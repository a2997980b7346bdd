import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from simplex_grid_opt import (
    Graph, bounds, cli, grid, hypergeom, load_polynomial, random_polynomial,
)
from simplex_grid_opt.stableset import parse_graph_text
from simplex_grid_opt import identities as ident_mod
from simplex_grid_opt.cli import (
    CSV_VERSION_LINE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SIZE_GUARD,
    EXIT_VERIFY_FAILED,
    main,
)
from simplex_grid_opt.rational import Enclosure, decimal_str, fraction_str
from strats import (
    DATA_DIR,
    anchored_extremes,
    anchored_form,
    clique_union,
    complete_graph,
    edge_list_text,
    fixed_quartic,
    motzkin_straus_form,
    naive_bernstein,
    naive_extremes,
    petersen,
    polynomials,
    random_graph,
    simplex_points,
    to_json_dict,
)

GAP = str(DATA_DIR / "strict_gap_quadratic.json")
SOS4 = str(DATA_DIR / "sum_of_squares_n4.json")
PETERSEN = str(DATA_DIR / "petersen.edges")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grid_min_paper_example_json(capsys):
    code, out, _ = run(capsys, "grid-min", "--poly", GAP, "--r", "16")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == "-17/32"
    assert obj["value_decimal"] == "-0.53125"
    assert obj["minimizers"] == ["7/16,9/16"]
    assert obj["evaluations"] == 17


def test_grid_min_r1_reads_vertex_minimum(capsys):
    code, out, _ = run(capsys, "grid-min", "--poly", GAP, "--r", "1")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == "1"


def test_grid_min_csv_has_version_header(capsys):
    code, out, _ = run(capsys, "grid-min", "--poly", GAP, "--r", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1].startswith("# decimal columns are advisory")
    assert lines[2] == "r,value,value_decimal,tie_count,evaluations,minimizers"
    assert lines[3].startswith("2,-1/2,-0.5,1,3,")


def test_grid_min_sum_of_squares_n3_r3(capsys, tmp_path):
    poly = tmp_path / "sos3.json"
    poly.write_text(
        json.dumps(
            {
                "n": 3,
                "terms": [{"alpha": [2 * (i == j) for j in range(3)], "coef": "1"} for i in range(3)],
            }
        )
    )
    code, out, _ = run(capsys, "grid-min", "--poly", str(poly), "--r", "3")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == "1/3"


def test_grid_max_verb(capsys):
    code, out, _ = run(capsys, "grid-max", "--poly", GAP, "--r", "2")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == "2"


def test_threads_do_not_change_output(capsys, tmp_path):
    # symmetric polynomial with many tied minimizers
    poly = tmp_path / "tied.json"
    terms = []
    for i in range(3):
        for j in range(3):
            alpha = [(i == k) + (j == k) for k in range(3)]
            terms.append({"alpha": alpha, "coef": "1"})
    poly.write_text(json.dumps({"n": 3, "terms": terms}))
    outputs = []
    for threads in ("1", "8"):
        code, out, _ = run(
            capsys, "grid-min", "--poly", str(poly), "--r", "5", "--threads", threads
        )
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    obj = json.loads(outputs[0])
    assert obj["tie_count"] == 21 and len(obj["minimizers"]) == 16


@pytest.mark.parametrize("argv", [
    ("grid-min", "--r", "2"), ("grid-max", "--r", "2"), ("converge", "--r-range", "1:2"),
    ("enclose", "--r", "1"),
], ids=lambda argv: argv[0])
def test_fewer_than_one_thread_exits_2_before_the_file_is_read(capsys, tmp_path, argv):
    # the CLI's own check, before the library's: the text and order stay
    for threads in ("0", "-5"):
        code, out, err = run(capsys, *argv, "--poly", str(tmp_path / "absent.json"),
                             "--threads", threads)
        assert (code, out, err) == (EXIT_CONFIG, "", "error: --threads must be at least 1\n")


def test_expect_paper_value_with_bernstein(capsys):
    code, out, _ = run(
        capsys, "expect", "--poly", GAP, "--r", "2", "--m", "16", "--counts", "7,9",
        "--bernstein",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["expectation"] == "31/80"
    assert obj["bernstein"] == "29/64"
    assert obj["bernstein_point"] == "7/16,9/16"


def test_expect_bernstein_at_explicit_point(capsys):
    code, out, _ = run(
        capsys, "expect", "--poly", GAP, "--r", "2", "--bernstein", "--x", "1/2,1/2"
    )
    assert code == EXIT_OK
    assert "expectation" not in json.loads(out)


@pytest.mark.parametrize("mode", [("--bernstein", "--x", "1/2,1/2"), ("--m", "4", "--counts", "2,2")])
def test_expect_prints_an_answer_of_any_length(capsys, tmp_path, mode):
    poly = tmp_path / "x1_100000.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"alpha": [100000, 0], "coef": "1"}]}))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "expect", "--poly", str(poly), "--r", "3", *mode)
    assert code == EXIT_OK, err
    assert sys.get_int_max_str_digits() == limit
    # E[(Z/3)^100000] with Z the first color's count in 3 draws
    if mode[0] == "--bernstein":
        key, p = "bernstein", {k: Fraction(math.comb(3, k), 8) for k in range(4)}
    else:
        key, p = "expectation", {k: Fraction(math.comb(2, k) * math.comb(2, 3 - k), 4)
                                 for k in (1, 2)}
    want = sum(pk * Fraction(k, 3) ** 100000 for k, pk in p.items())
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)[key] == f"{want.numerator}/{want.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("mode", [("--bernstein", "--x", "1"), ("--m", "3", "--counts", "3")])
def test_expect_refuses_a_huge_degree_before_any_row(capsys, monkeypatch, tmp_path, mode):
    poly = tmp_path / "x1_10_30.json"
    poly.write_text('{"n": 1, "terms": [{"alpha": [1' + "0" * 30 + '], "coef": 1}]}')
    rows = count_calls(monkeypatch, hypergeom, "_stirling_rows")
    code, out, err = run(capsys, "expect", "--poly", str(poly), "--r", "2", *mode)
    assert (code, out, rows) == (EXIT_CONFIG, "", [])
    assert f"more than {hypergeom._MAX_KERNEL_BITS} bits" in err


@pytest.mark.parametrize("mode", [("--bernstein", "--x", "1/3,2/3"), ("--m", "5", "--counts", "2,3")])
def test_expect_kernel_maximum(capsys, monkeypatch, mode):
    # degree 2 at r = 3: (min(2, 3) + 1) * 2 * bit_length(3 * total) bits, total = 3 or 5
    bits = 3 * 2 * (3 * (3 if mode[0] == "--bernstein" else 5)).bit_length()
    for maximum, want in ((bits, EXIT_OK), (bits - 1, EXIT_CONFIG)):
        monkeypatch.setattr(hypergeom, "_MAX_KERNEL_BITS", maximum)
        code, out, err = run(capsys, "expect", "--poly", GAP, "--r", "3", *mode)
        assert code == want, err
        assert (out == "") == (want == EXIT_CONFIG)


def test_fraction_str_renders_past_the_digit_limit():
    big = 7**20000  # 16,902 digits
    limit = sys.get_int_max_str_digits()
    rendered = [fraction_str(v) for v in (big, -big, Fraction(-big, 3), Fraction(3, big))]
    sys.set_int_max_str_digits(0)
    try:
        assert rendered == [str(big), f"-{big}", f"-{big}/3", f"3/{big}"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert fraction_str(Fraction(-6, 4)) == "-3/2" and fraction_str(5) == "5"
    with pytest.raises(ValueError, match="^empty enclosure: lo 1/3 > hi -1/"):
        Enclosure(Fraction(1, 3), Fraction(-1, big))


def test_decimal_str_rounds_half_to_even():
    # exactly half-way at the 21st significant digit: the even 20th digit stays
    tiny = Fraction(1, 10**20)
    assert decimal_str(1 + 5 * tiny) == "1.0000000000000000000"
    assert decimal_str(-1 - 5 * tiny) == "-1.0000000000000000000"
    assert decimal_str(1 + 15 * tiny) == "1.0000000000000000002"


def test_expect_renders_a_bernstein_point_past_the_digit_limit(capsys):
    # x = (1/N, M/N) with N of 4400 digits and M = N - 1, spelled out as text
    big, less = "1" + "0" * 4398 + "7", "1" + "0" * 4398 + "6"
    point = f"1/{big},{less}/{big}"
    code, out, err = run(capsys, "expect", "--poly", GAP, "--r", "2", "--bernstein", "--x", point)
    assert code == EXIT_OK, err
    assert json.loads(out)["bernstein_point"] == point


def test_converge_renders_a_degenerate_range_past_the_digit_limit(capsys, tmp_path):
    # c x_1 x_2 with c of 4400 digits: the enclosures of grid 1 cannot separate
    # fmax from fmin at r = 1, whose row is degenerate, and the gap is rendered
    poly = tmp_path / "wide_product.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"alpha": [1, 1], "coef": "5" + "1" * 4399}]}))
    code, out, err = run(capsys, "converge", "--poly", str(poly), "--r-range", "1:2", "--grid", "1",
                         "--format", "csv")
    assert code == EXIT_OK, err
    rows = out.splitlines()[3:]
    assert [row.split(",")[:5] for row in rows] == [["1", "0", "0", "degenerate", "degenerate"],
                                                   ["2", "0", "0", "0", "0"]]


def test_expect_invalid_counts_exit_2(capsys):
    code, _, err = run(capsys, "expect", "--poly", GAP, "--r", "2", "--m", "16", "--counts", "7,8")
    assert code == EXIT_CONFIG
    assert "error" in err


def test_expect_refuses_a_point_without_bernstein(capsys):
    # --x is read only with --bernstein: alone it is refused, well-formed or
    # not, with an urn or without, where it was once ignored with exit 0
    for x in ("foo", "1/4,3/4"):
        for urn in (("--m", "4", "--counts", "1,3"), ()):
            code, out, err = run(capsys, "expect", "--poly", GAP, "--r", "2", *urn, "--x", x)
            assert (code, out, err) == (EXIT_CONFIG, "", "error: --x is read only with --bernstein\n")
    code, out, _ = run(capsys, "expect", "--poly", GAP, "--r", "2", "--m", "4", "--counts", "1,3",
                       "--bernstein", "--x", "1/4,3/4")
    assert code == EXIT_OK and json.loads(out)["bernstein_point"] == "1/4,3/4"


def test_expect_requires_some_mode(capsys):
    code, _, _ = run(capsys, "expect", "--poly", GAP, "--r", "2")
    assert code == EXIT_CONFIG


def test_bounds_table_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--r-range", "2", "--m-range", "4",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1] == "kind,d,r,m,k,coefficient,applicable,reason"
    table = {line.split(",")[0]: line.split(",") for line in lines[2:]}
    assert table["QUAD_REFINED"][5] == "1/3"
    assert table["QUAD_DENOM"][5] == "1"
    assert table["KLS_GENERAL"][5] == "6"
    assert table["CUBIC_KLS"][6] == "false"


def test_bounds_refined_vanish_at_r_equals_m(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--r-range", "4", "--m-range", "4",
                       "--format", "csv")
    assert code == EXIT_OK
    table = {line.split(",")[0]: line.split(",") for line in out.splitlines()[2:]}
    assert table["QUAD_REFINED"][5] == "0"
    assert table["SQFREE_REFINED"][5] == "0"
    assert table["GENERAL_REFINED"][5] == "0"


@pytest.mark.parametrize("maximum, want", [(44, EXIT_OK), (43, EXIT_CONFIG)])
def test_bounds_row_maximum(capsys, monkeypatch, maximum, want):
    # 4 values of r times 11 kinds: 44 rows, at the maximum or one row past it
    monkeypatch.setattr(bounds, "_MAX_BOUND_ROWS", maximum)
    tables = count_calls(monkeypatch, bounds, "_coefficients")
    code, out, err = run(capsys, *PINNED_ARGV["bounds"])
    assert code == want
    if want == EXIT_OK:
        assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS["bounds", "json"]
    else:
        assert out == "" and "44 rows, more than 43" in err and tables == []


@pytest.mark.parametrize("maximum, want", [(1320, EXIT_OK), (1319, EXIT_CONFIG)])
def test_bounds_coefficient_bits_maximum(capsys, monkeypatch, maximum, want):
    # 44 rows * d * (bit_length(4d) + 2 * bit_length(r)) = 44 * 3 * (4 + 2 * 3) at d = 3, r <= 5
    monkeypatch.setattr(bounds, "_MAX_BOUND_BITS", maximum)
    tables = count_calls(monkeypatch, bounds, "_coefficients")
    code, out, err = run(capsys, *PINNED_ARGV["bounds"])
    assert code == want
    if want == EXIT_OK:
        assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS["bounds", "json"]
    else:
        assert out == "" and "more than 1319 bits" in err and tables == []


def test_bounds_refuses_a_huge_degree_at_once(capsys, monkeypatch):
    tables = count_calls(monkeypatch, bounds, "_coefficients")
    for argv in (("--d", "100000", "--r-range", "2"), ("--d", "9" * 4000, "--r-range", "2"),
                 ("--d", "100", "--r-range", "9" * 4000), ("--d", "100", "--r-range", "2",
                                                           "--m-range", "9" * 4000)):
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out) == (EXIT_CONFIG, ""), argv
        assert f"more than {bounds._MAX_BOUND_BITS} bits" in err
    assert tables == []


def test_bounds_refuses_a_huge_table_at_once(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("no report may be made")

    monkeypatch.setattr(bounds, "_coefficients", fail)
    code, out, err = run(capsys, "bounds", "--d", "3", "--r-range", "1:1000000000",
                         "--m-range", "1:1000000000")
    assert code == EXIT_CONFIG
    assert out == "" and f"more than {bounds._MAX_BOUND_ROWS}" in err
    # ranges longer than sys.maxsize, which len() cannot measure
    for argv in (("--r-range", "0:" + "9" * 30), ("--r-range", "2", "--m-range", "1:" + "9" * 30)):
        code, out, err = run(capsys, "bounds", "--d", "3", *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"more than {bounds._MAX_BOUND_ROWS}" in err


@pytest.mark.parametrize("argv, error", [
    (("bounds", "--d", "2", "--r-range", "x" * 5000), "expected an integer or 'lo:hi' range"),
    (("bounds", "--d", "2", "--r-range", "2", "--m-range", "1:" + "x" * 5000),
     "expected an integer or 'lo:hi' range"),
    (("converge", "--poly", SOS4, "--r-range", "2;" * 2500), "expected an integer or 'lo:hi' range"),
    (("expect", "--poly", SOS4, "--r", "2", "--m", "4", "--counts", "1," * 2500),
     "expected comma-separated integers"),
], ids=["r-range", "m-range", "converge", "counts"])
def test_option_errors_quote_the_start_of_a_long_value(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: {error}, got {argv[-1][:40]!r}...\n"
    # a short value is quoted whole, as before
    code, out, err = run(capsys, *argv[:-1], "3:2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: {error}, got '3:2'\n"


DASH_VALUES = pytest.mark.parametrize("argv, error", [
    (("bounds", "--d", "3", "--r-range", "-5:3"), "grid denominator must be positive, got -5"),
    (("bounds", "--d", "3", "--r-range", "2", "--m-range", "-1:3"),
     "reference denominator must be positive, got -1"),
    (("expect", "--poly", GAP, "--r", "4", "--m", "4", "--counts", "-1,5"), "negative color count in (-1, 5)"),
    (("expect", "--poly", GAP, "--r", "4", "--bernstein", "--x", "-1/2,3/2"),
     "point must lie on the standard simplex"),
], ids=["r-range", "m-range", "counts", "x"])


@DASH_VALUES
def test_a_value_starting_with_a_dash_reads_as_after_an_equals_sign(capsys, argv, error):
    # argparse takes "-5:3" after a space for an option ("expected one
    # argument"); the value reaches the program's own check in both forms
    spaced = run(capsys, *argv)
    joined = run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert spaced == joined == (EXIT_CONFIG, "", f"error: {error}\n")


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _unique_prefixes(verb: str, option: str) -> "list[str]":
    """Every prefix of option, itself included, that argparse's allow_abbrev
    reads as option alone among the verb's option strings."""
    options = _subparsers(cli._kept_parser()).choices[verb]._option_string_actions
    return [option[:end] for end in range(3, len(option) + 1)
            if [o for o in options if o.startswith(option[:end])] == [option]]


@DASH_VALUES
def test_a_dash_leading_value_after_an_abbreviated_option_reads_as_after_an_equals_sign(
    capsys, argv, error
):
    # "--r-r -5:3" as "--r-r=-5:3": argparse expands a unique prefix, and so
    # the value is attached after one as after the option in full
    option, value = argv[-2:]
    prefixes = _unique_prefixes(argv[0], option)
    assert option in prefixes and (len(prefixes) > 1) == (option != "--x")
    for prefix in prefixes:
        spaced = run(capsys, *argv[:-2], prefix, value)
        joined = run(capsys, *argv[:-2], f"{prefix}={value}")
        assert spaced == joined == (EXIT_CONFIG, "", f"error: {error}\n")


def test_an_abbreviated_option_after_a_value_option_is_still_an_option(capsys):
    # "--form" names --format as argparse reads it, so it is not taken for
    # --r-range's value, as "--format" in full is not
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--d", "3", "--r-range", "--form", "csv"])
    assert exc.value.code == EXIT_CONFIG
    assert "argument --r-range: expected one argument" in capsys.readouterr().err


def test_a_double_dash_after_a_value_option_is_left_to_argparse(capsys):
    # "--" ends the options for argparse, so it is not taken for a value
    # either: --r-range lacks one, as argparse alone reports
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--d", "3", "--r-range", "--"])
    assert exc.value.code == EXIT_CONFIG
    assert "argument --r-range: expected one argument" in capsys.readouterr().err


def _one_value_options() -> "list[tuple[str, str]]":
    """(verb, option) for every option of every verb's subparser that takes one value."""
    return [(verb, action.option_strings[0])
            for verb, sub in _subparsers(cli._kept_parser()).choices.items()
            for action in sub._actions if action.option_strings and action.nargs is None]


@pytest.mark.parametrize("verb, option", _one_value_options())
def test_a_double_dash_joined_to_a_value_option_is_a_missing_value(capsys, monkeypatch, verb, option):
    # argparse alone reads "--X=--" as the value [], which ended in a
    # traceback, a type error or a run; it reads as "--X --", in full and by
    # every unique prefix
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([verb, option, "--"])
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(f"error: argument {option}: expected one argument\n")
    spaced = _parse_exit(capsys, main, [verb, option, "--"])
    prefixes = _unique_prefixes(verb, option)
    assert option in prefixes
    for prefix in prefixes:
        assert _parse_exit(capsys, main, [verb, f"{prefix}=--"]) == spaced


def test_an_ambiguous_prefix_before_a_dash_leading_value_is_left_to_argparse(capsys):
    # --assume-m names two options: argparse's own error, byte for byte as the
    # full parser prints it, and no value is attached to either
    argv = ["converge", "--poly", GAP, "--r-range", "2", "--assume-m", "-3"]
    converge = _subparsers(cli._kept_parser()).choices["converge"]
    assert list(cli._attach_values(converge, argv[1:])) == argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_CONFIG
    assert err.endswith("sgo converge: error: ambiguous option: --assume-m could match "
                        "--assume-min-denominator, --assume-max-denominator\n")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().err == err


def test_an_option_string_after_a_value_option_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--d", "3", "--r-range", "--format", "csv"])
    assert exc.value.code == EXIT_CONFIG
    assert "argument --r-range: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("bounds", "--d", "2", "--r-range", "2:" + "9" * 5000),
    ("bounds", "--d", "2", "--r-range", "2", "--m-range", "+" + "9" * 4301),
    ("expect", "--poly", SOS4, "--r", "2", "--m", "4", "--counts", "1," + "9" * 5000),
], ids=["r-range", "m-range", "counts"])
def test_option_integers_past_the_digit_limit_name_it(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: integer in {argv[-1][:40]!r}... has more than 4300 digits\n"


def test_option_integers_at_the_digit_limit_parse(capsys):
    # MAX_INT_DIGITS digits parse: what is refused is the size of the table
    code, out, err = run(capsys, "bounds", "--d", "2", "--r-range", "2:" + "9" * 4300)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: bounds would print") and "rows, more than 100000" in err


def test_size_guard_env_quotes_the_start_of_a_long_value(capsys, monkeypatch):
    argv = ("grid-min", "--poly", SOS4, "--r", "2")
    for env, error in [("x" * 5000, "SGO_MAX_GRID must be an integer, got 'xxxxx"),
                       ("-" + "9" * 100, "SGO_MAX_GRID must not be negative, got '-9999"),
                       ("9" * 5000, "integer in '99999")]:
        monkeypatch.setenv("SGO_MAX_GRID", env)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {error}") and len(err) < 100, err


def test_converge_exact_rho_column(capsys):
    code, out, _ = run(
        capsys, "converge", "--poly", SOS4, "--r-range", "2:4",
        "--assume-min-denominator", "4", "--assume-max-denominator", "1",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    header, data = rows[0], rows[1:]
    r_idx = header.index("r")
    lo_idx = header.index("rho_lo")
    hi_idx = header.index("rho_hi")
    by_r = {row[r_idx]: row for row in data}
    assert by_r["2"][lo_idx] == by_r["2"][hi_idx] == "1/3"
    assert by_r["4"][lo_idx] == by_r["4"][hi_idx] == "0"  # r is a multiple of m


def test_converge_caps_rho_hi_at_one(capsys, tmp_path):
    # f = x_1^2 + 2x_2^2 - 10x_1x_2 at r = 1: the uncapped upper end
    # (grid_min - fmin.lo) / (range lower end) is 6, past the normalized
    # error's range [0, 1]
    poly = tmp_path / "cap.json"
    poly.write_text(json.dumps({"n": 2, "terms": [
        {"alpha": [2, 0], "coef": 1}, {"alpha": [0, 2], "coef": 2}, {"alpha": [1, 1], "coef": -10}]}))
    code, out, _ = run(capsys, "converge", "--poly", str(poly), "--r-range", "1:3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[2:] == [
        "r,grid_min,grid_min_decimal,rho_lo,rho_hi,KLS_QUAD,KLS_GENERAL,QUAD_REFINED,QUAD_DENOM,"
        "CUBIC_KLS,SQFREE_KLS,CUBIC_REFINED,SQFREE_REFINED,GENERAL_REFINED,CUBIC_RHO,GENERAL_RHO",
        "1,1,1,0,1,1,12,,,,1,,,,,",
        "2,-7/4,-1.75,0,13/15,1/2,6,,,,1/2,,,,,",
        "3,-14/9,-1.5555555555555555556,0,31/32,1/3,4,,,,1/3,,,,,",
    ]


def test_converge_rho_r_squared_bounded_by_m(capsys):
    from fractions import Fraction

    code, out, _ = run(
        capsys, "converge", "--poly", SOS4, "--r-range", "5:12",
        "--assume-min-denominator", "4", "--assume-max-denominator", "1",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    header, data = rows[0], rows[1:]
    for row in data:
        r = int(row[header.index("r")])
        rho_hi = Fraction(row[header.index("rho_hi")])
        assert rho_hi * r * r <= 4


def test_converge_refutes_a_false_max_assumption(capsys, tmp_path):
    poly = tmp_path / "false_max.json"
    poly.write_text(json.dumps({"n": 3, "degree": 2, "terms": [
        {"alpha": [0, 0, 2], "coef": "2"}, {"alpha": [0, 1, 1], "coef": "9"},
        {"alpha": [0, 2, 0], "coef": "1"}, {"alpha": [1, 0, 1], "coef": "1"},
        {"alpha": [1, 1, 0], "coef": "-7"}, {"alpha": [2, 0, 0], "coef": "-2"},
    ]}))
    code, out, _ = run(capsys, "grid-max", "--poly", str(poly), "--r", "2")
    assert code == EXIT_OK and json.loads(out)["value"] == "3"  # above the assumed fmax 2
    code, out, err = run(
        capsys, "converge", "--poly", str(poly), "--r-range", "2:2",
        "--assume-min-denominator", "3", "--assume-max-denominator", "1",
    )
    assert code == EXIT_CONFIG
    assert out == "" and "maximizer denominator is inconsistent" in err


@pytest.mark.parametrize("sign, side", [(1, "min"), (-1, "max")], ids=["min", "max"])
def test_converge_refutes_an_assumption_with_the_named_grid(capsys, tmp_path, sign, side):
    # ±(2x1^2 + x2^2 - 5x1x2): the r = 2 grid's extremum ∓1/2 is not the simplex
    # extremum ∓17/32, which the named grid 16 reaches; r = 2, 3 alone cannot tell
    poly = tmp_path / "gap.json"
    poly.write_text(json.dumps({"n": 2, "degree": 2, "terms": [
        {"alpha": [2, 0], "coef": str(2 * sign)}, {"alpha": [0, 2], "coef": str(sign)},
        {"alpha": [1, 1], "coef": str(-5 * sign)},
    ]}))
    argv = ("converge", "--poly", str(poly), "--r-range", "2:3")
    assert run(capsys, *argv, f"--assume-{side}-denominator", "2")[0] == EXIT_OK
    code, out, err = run(capsys, *argv, "--grid", "16", f"--assume-{side}-denominator", "2")
    assert code == EXIT_CONFIG
    assert out == "" and f"{side}imizer denominator is inconsistent" in err


@pytest.mark.parametrize(
    "fault, guard, want",
    [
        ((), "2000", EXIT_OK),
        (("--elevation", "9"), None, EXIT_CONFIG),
        (("--r-range", "0:3"), None, EXIT_CONFIG),
        (("--grid", "40"), "2000", EXIT_SIZE_GUARD),
        (("--r-range", "2:40"), "2000", EXIT_SIZE_GUARD),
        (("--assume-min-denominator", "40"), "2000", EXIT_SIZE_GUARD),
    ],
    ids=["none", "elevation", "r-range", "grid", "r-range-guard", "assumed-guard"],
)
def test_converge_exit_codes(capsys, monkeypatch, fault, guard, want):
    if guard is not None:
        monkeypatch.setenv("SGO_MAX_GRID", guard)
    code, out, err = run(capsys, "converge", "--poly", SOS4, "--r-range", "2:5", *fault)
    assert code == want
    assert (out == "" and "error" in err) if want else err == ""


@pytest.mark.parametrize("option", ["--grid", "--assume-min-denominator", "--assume-max-denominator"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_converge_names_a_denominator_option_below_one(capsys, option, value):
    code, out, err = run(capsys, "converge", "--poly", SOS4, "--r-range", "2:3", option, value)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: {option} must be at least 1, got {value}\n"


def count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_sweep_and_table_is_computed_once(capsys, monkeypatch):
    sweeps = count_calls(monkeypatch, grid, "_sweep")
    tables = count_calls(monkeypatch, bounds, "_bernstein_extrema")
    cases = [
        # 11 values of r, the named grid 6 among them; one table
        (("converge", "--r-range", "2:12", "--grid", "6", "--elevation", "2"), 11, 1),
        # 11 values of r plus the assumed denominator 1 (4 is in the range);
        # both sides pinned, no table
        (("converge", "--r-range", "2:12",
          "--assume-min-denominator", "4", "--assume-max-denominator", "1"), 12, 0),
        (("enclose", "--r", "6", "--elevation", "2"), 1, 1),
    ]
    for argv, want_sweeps, want_tables in cases:
        sweeps.clear()
        tables.clear()
        assert run(capsys, *argv, "--poly", SOS4)[0] == EXIT_OK
        assert len(sweeps) == want_sweeps, argv
        assert len({args[1] for args in sweeps}) == want_sweeps, argv  # (f, r, ...)
        assert len(tables) == want_tables, argv


def test_converge_builds_each_table_entry_once(capsys, monkeypatch):
    # every _Lazy table of the shape keeps what it builds: over r = 2..12 a
    # power, level power or row table entry is built once, however many nodes
    # and denominators read it
    builds = []
    lazy_init = grid._Lazy.__init__

    def counted(table, build):
        lazy_init(table, lambda key: builds.append((id(table), key)) or build(key))

    monkeypatch.setattr(grid._Lazy, "__init__", counted)
    grid._shape.cache_clear()
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:12")[0] == EXIT_OK
    grid._shape.cache_clear()
    assert len(builds) > 12 and len(set(builds)) == len(builds)


def test_default_verify_builds_no_bound_table(capsys, monkeypatch, tmp_path):
    # the only Bernstein tables verify builds are its witnesses' enclosures
    grid._shape.cache_clear()
    tables = count_calls(monkeypatch, grid, "_bernstein_columns")
    enclosures = count_calls(monkeypatch, bounds, "_bernstein_extrema")
    bound_checks = count_calls(monkeypatch, grid._Shape, "beaten")
    stepped_checks = count_calls(monkeypatch, grid._Shape, "skip")  # nodes and rows
    assert run(capsys, "verify")[0] == EXIT_OK
    assert 0 < len(tables) == len(enclosures) and bound_checks == stepped_checks == []
    # the same counters see the node and row tests of a sweep that bounds them
    poly = tmp_path / "quartic.json"
    poly.write_text(json.dumps(to_json_dict(fixed_quartic())))
    assert run(capsys, "grid-min", "--poly", str(poly), "--r", "80")[0] == EXIT_OK
    assert {args[1] for args in stepped_checks} == {1, 2}  # (self, k, ...): nodes, rows
    assert len(tables) > len(enclosures)


def test_converge_builds_one_shape_per_support(capsys, monkeypatch):
    # SOS4 has one support; r = 2..30 and the enclosure grid 6 all sweep it, and
    # the elevated Bernstein table of --elevation 2 sweeps nothing
    shapes = count_calls(monkeypatch, grid._Shape, "__init__")
    for extra in ((), ("--elevation", "2")):
        grid._shape.cache_clear()
        shapes.clear()
        argv = ("converge", "--poly", SOS4, "--r-range", "2:30", "--grid", "6", *extra)
        assert run(capsys, *argv)[0] == EXIT_OK
        assert len(shapes) == 1, extra


def test_converge_builds_one_plan_per_run(capsys, monkeypatch):
    # the integer form L*f is made once, by the one plan that every r, the
    # enclosure grid 6 and the Bernstein table of --elevation 2 read
    forms = count_calls(monkeypatch, grid, "_integer_form")
    for extra in ((), ("--elevation", "2")):
        forms.clear()
        argv = ("converge", "--poly", SOS4, "--r-range", "2:30", "--grid", "6", *extra)
        assert run(capsys, *argv)[0] == EXIT_OK
        assert len(forms) == 1, extra


def test_converge_rows_are_the_same_for_any_thread_count(capsys, monkeypatch, tmp_path):
    # each r's sweep splits into chunks that prune against their own extremes
    poly = tmp_path / "quartic.json"
    poly.write_text(json.dumps(to_json_dict(fixed_quartic())))
    pruned = []
    sweep = grid._sweep

    def counted(*args):
        result = sweep(*args)
        pruned.append(result[2])
        return result

    monkeypatch.setattr(grid, "_sweep", counted)
    outputs = []
    for threads in ("1", "3"):
        code, out, err = run(capsys, "converge", "--poly", str(poly), "--r-range", "24:32",
                             "--grid", "12", "--threads", threads)
        assert (code, err) == (EXIT_OK, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(pruned) == 2 * 10 and min(pruned) > 0


def test_converge_guard_counts_every_grid_once_up_to_the_budget(capsys, monkeypatch):
    # n = 4: r = 3..7 holds C(11, 4) - C(6, 4) = 315 points (hockey stick), and
    # the enclosure grid 10 outside the range C(13, 3) = 286 more; grid 5 is
    # in the range and counted once
    for grid_r, total in (("10", 601), ("5", 315)):
        argv = ("converge", "--poly", SOS4, "--r-range", "3:7", "--grid", grid_r)
        monkeypatch.setenv("SGO_MAX_GRID", str(total))
        assert run(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setenv("SGO_MAX_GRID", str(total - 1))
        message = f"error: the grids to sweep have {total} points in all, budget is {total - 1}\n"
        assert run(capsys, *argv) == (EXIT_SIZE_GUARD, "", message)


def test_default_verify_builds_one_shape_per_witness_support(capsys, monkeypatch):
    grid._shape.cache_clear()
    shapes = count_calls(monkeypatch, grid._Shape, "__init__")
    assert run(capsys, "verify")[0] == EXIT_OK
    supports = [args[1] for args in shapes]  # (self, support, n, d)
    assert 0 < len(supports) <= 8  # 8 witness polynomials
    assert len(set(supports)) == len(supports)


def test_threads_keep_the_bytes_of_a_pruned_sweep(capsys, monkeypatch, tmp_path):
    poly = tmp_path / "quartic.json"
    poly.write_text(json.dumps(to_json_dict(fixed_quartic())))
    pruned = []
    sweep = grid._sweep

    def counted(*args):
        result = sweep(*args)
        pruned.append(result[2])
        return result

    monkeypatch.setattr(grid, "_sweep", counted)
    outputs = []
    for threads in ("1", "8"):
        code, out, _ = run(capsys, "grid-min", "--poly", str(poly), "--r", "80", "--threads", threads)
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["evaluations"] == 91881  # C(83, 3)
    assert len(pruned) == 2 and min(pruned) > 0


def test_threads_keep_the_bytes_of_stepped_sweeps(capsys, tmp_path):
    # n = 3 (the root steps its rows) and n = 4 (the root steps its depth-1
    # nodes) at d = 3 and 4: the chunks of --threads 8 cut the stepped runs
    qs = {3: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
          4: (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))}
    for n, q in qs.items():
        for k in (1, 2):
            r = (24 if n == 3 else 10) * (k + 3)
            poly = tmp_path / f"anchored_{n}_{k}.json"
            poly.write_text(json.dumps(to_json_dict(anchored_form(q, k))))
            outputs = []
            for threads in ("1", "8"):
                code, out, _ = run(capsys, "grid-min", "--poly", str(poly), "--r", str(r),
                                   "--threads", threads)
                assert code == EXIT_OK
                outputs.append(out)
            assert outputs[0] == outputs[1]
            value, _, ties = anchored_extremes(q, r, 16)[0]
            obj = json.loads(outputs[0])
            assert (Fraction(obj["value"]), obj["tie_count"]) == (value, ties)


def test_many_variables_sweep_without_a_recursion_limit(capsys, tmp_path):
    # the prefix tree is n - 2 deep; these ran into Python's recursion limit before
    poly = tmp_path / "x1.json"
    poly.write_text(json.dumps({"n": 3000, "terms": [{"alpha": [1] + [0] * 2999, "coef": "1"}]}))
    code, out, _ = run(capsys, "grid-min", "--poly", str(poly), "--r", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert (obj["value"], obj["tie_count"], obj["evaluations"]) == ("0", 2999, 3000)
    graph = tmp_path / "empty.edges"
    graph.write_text("p edge 1200 0\n")
    code, out, _ = run(capsys, "stable-set", "--graph", str(graph), "--r", "1")
    assert code == EXIT_OK
    assert json.loads(out)["alpha_lb"] == 1


def test_converge_guards_the_total_of_its_grids(capsys, monkeypatch):
    # SOS4 grids r = 2..6 hold 10 + 20 + 35 + 56 + 84 = 205 points, each within 100
    monkeypatch.setenv("SGO_MAX_GRID", "100")
    code, out, err = run(capsys, "converge", "--poly", SOS4, "--r-range", "2:6")
    assert code == EXIT_SIZE_GUARD
    assert out == "" and "205 points in all" in err
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:6", "--force")[0] == EXIT_OK
    # r = 2..5 holds 121; a named or assumed grid in the range is swept once and
    # counted once, and --grid 7 adds 120, but only while a side is unassumed
    monkeypatch.setenv("SGO_MAX_GRID", "130")
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:5")[0] == EXIT_OK
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:5",
               "--grid", "2")[0] == EXIT_OK
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:5",
               "--grid", "7")[0] == EXIT_SIZE_GUARD
    assumed = ("--assume-min-denominator", "4", "--assume-max-denominator", "1", "--grid", "7")
    monkeypatch.setenv("SGO_MAX_GRID", "125")  # 121 + 4, the grid with denominator 1
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:5", *assumed)[0] == EXIT_OK
    monkeypatch.setenv("SGO_MAX_GRID", "124")
    assert run(capsys, "converge", "--poly", SOS4, "--r-range", "2:5",
               *assumed)[0] == EXIT_SIZE_GUARD


def test_converge_refuses_a_huge_range_at_once(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("a grid was swept before the guard")

    monkeypatch.setattr(grid, "_sweep", fail)
    code, out, err = run(capsys, "converge", "--poly", SOS4, "--r-range", "1:100000000")
    assert code == EXIT_SIZE_GUARD
    assert out == "" and "budget is 100000000" in err


def test_converge_refuses_more_rows_than_a_table_holds_before_any_sweep(capsys, monkeypatch, tmp_path):
    # a one-variable form has one grid point per r, so the grid guard admits
    # ranges of millions of r; converge prints at most bounds._MAX_BOUND_ROWS
    # rows, after the guard, which refuses a huge range with exit 3 first
    poly = tmp_path / "x.json"
    poly.write_text(json.dumps({"n": 1, "terms": [{"alpha": [1], "coef": "3"}]}))
    sweeps = count_calls(monkeypatch, grid, "_sweep")
    code, out, err = run(capsys, "converge", "--poly", str(poly), "--r-range", "1:100001")
    assert (code, out, err) == (EXIT_CONFIG, "", "error: converge would print 100001 rows, more than 100000\n")
    monkeypatch.setattr(bounds, "_MAX_BOUND_ROWS", 5)
    code, out, err = run(capsys, "converge", "--poly", str(poly), "--r-range", "2:7")
    assert (code, out, err) == (EXIT_CONFIG, "", "error: converge would print 6 rows, more than 5\n")
    assert sweeps == []
    code, out, err = run(capsys, "converge", "--poly", str(poly), "--r-range", "2:6")
    assert (code, err, [row["r"] for row in json.loads(out)]) == (EXIT_OK, "", [2, 3, 4, 5, 6])
    monkeypatch.setenv("SGO_MAX_GRID", "5")
    assert run(capsys, "converge", "--poly", str(poly), "--r-range", "2:7")[0] == EXIT_SIZE_GUARD


@pytest.mark.parametrize("elevation, message", [
    ("9", "elevation 9 exceeds the cap 8"), ("-3", "elevation must be nonnegative"),
])
def test_converge_refuses_a_bad_elevation_with_both_sides_assumed(capsys, monkeypatch, elevation,
                                                                  message):
    # no side reads the elevation here, which once let it pass; enclose refuses it too
    sweeps = count_calls(monkeypatch, grid, "_sweep")
    code, out, err = run(capsys, "converge", "--poly", SOS4, "--r-range", "2:4",
                         "--assume-min-denominator", "4", "--assume-max-denominator", "1",
                         "--elevation", elevation)
    assert (code, out, err, sweeps) == (EXIT_CONFIG, "", f"error: {message}\n", [])
    code, out, err = run(capsys, "enclose", "--poly", SOS4, "--r", "2", "--elevation", elevation)
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, want", [
    (("grid-min", "--poly", SOS4, "--r", "9" * 2200), EXIT_SIZE_GUARD),
    (("enclose", "--poly", SOS4, "--r", "9" * 2200), EXIT_SIZE_GUARD),
    (("stable-set", "--graph", PETERSEN, "--r", "9" * 2200), EXIT_SIZE_GUARD),
    (("converge", "--poly", SOS4, "--r-range", "1:" + "9" * 2200), EXIT_SIZE_GUARD),
    (("bounds", "--d", "3", "--r-range", "1:" + "9" * 4300), EXIT_CONFIG),
], ids=["grid-min", "enclose", "stable-set", "converge", "bounds"])
def test_guard_messages_render_counts_of_any_size(capsys, argv, want):
    # each refused count has more than the 4300 digits str() makes of an int
    code, out, err = run(capsys, *argv)
    assert code == want and out == ""
    assert "set_int_max_str_digits" not in err and err.count("\n") == 1 and len(err) < 100
    assert ("budget is 100000000" if want == EXIT_SIZE_GUARD else "more than 100000") in err


def test_verify_small_sweep_passes(capsys):
    code, out, _ = run(capsys, *PINNED_ARGV["verify"], "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert all(line.endswith(",true") for line in lines[2:])


# SHA-256 of the stdout of the smallest --inject-fault run below, recorded before
# verify wrote JSON and CSV from one loop
SMALL_FAULT_DIGESTS = {
    "json": "5b2e0ae1be8eaabeea3ae30d33ee880ccbd8c59f2417cb6e8f5b765b6a3d3e42",
    "csv": "a6d2af9e388f69f8d73085620b346b8aa0758f7294cdd571d06ae83ec9a588cc",
}


def test_verify_inject_fault_exits_4(capsys):
    for fmt, digest in SMALL_FAULT_DIGESTS.items():
        code, out, err = run(
            capsys, "verify", "--max-n", "1", "--max-d", "1", "--max-m", "2",
            "--max-k", "1", "--max-r", "2", "--samples", "1", "--witness-polys", "1",
            "--inject-fault", "--format", fmt,
        )
        assert code == EXIT_VERIFY_FAILED
        assert "INJECTED_FAULT" in out
        assert err == "verification failed: 1 of 2146 checks\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_writes_each_check_as_it_is_made(monkeypatch, fmt):
    built = count_calls(monkeypatch, ident_mod, "_check")
    built_at_write = []  # identity checks built when each write reached stdout

    class Spy(io.StringIO):
        def write(self, text):
            built_at_write.append(len(built))
            return super().write(text)

    out = Spy()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "--format", fmt]) == EXIT_OK
    printed = out.getvalue().count('"check": "identity"' if fmt == "json" else "\nidentity,")
    assert len(built) == printed > 0
    assert built_at_write[0] < printed


def test_verify_builds_no_fraction(capsys, monkeypatch):
    # every identity side is an int or an integer pair, decided by cross-multiplying
    # and rendered with one gcd, so no Fraction is made at all
    # (from Python 3.12 on, Fraction arithmetic builds its results through
    # _from_coprime_ints and not __new__, so that is counted too)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built.append(args)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2) and len(built) == 4  # all counted
    built.clear()
    code, out, _ = run(capsys, "verify", "--witness-polys", "0", "--max-m", "6", "--max-d", "4")
    assert code == EXIT_OK and len(built) == 0
    assert json.loads(out)["total"] > 10**4


def test_verify_empty_sweep_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "0", "--witness-polys", "0")
    assert code == EXIT_CONFIG
    assert "no checks run" in err


@pytest.mark.parametrize("option", ["--max-n", "--max-d", "--max-m"])
def test_verify_empty_sweep_with_a_fault_checks_the_fault_alone(capsys, option):
    # a cap below 1 sweeps and witnesses nothing, and --inject-fault still runs its check
    code, out, err = run(capsys, "verify", option, "0", "--inject-fault")
    assert code == EXIT_VERIFY_FAILED
    assert err == "verification failed: 1 of 1 checks\n"
    assert [row["name"] for row in json.loads(out)["checks"]] == ["INJECTED_FAULT"]


@pytest.mark.parametrize("option", ["--samples", "--witness-polys", "--max-k", "--max-r"])
def test_verify_rejects_negative_sizes(capsys, option):
    code, out, err = run(capsys, "verify", "--max-m", "3", "--max-d", "2", option, "-5")
    assert code == EXIT_CONFIG
    assert out == "" and f"{option} must be nonnegative" in err


class _ChecksStarted(Exception):
    pass


def _refuse_to_check(monkeypatch):
    """Make identities._verify_checks fail as it starts its first sweep or
    tables its first witness coefficients, which it does only once it has
    admitted the run."""
    def started(*args, **kwargs):
        raise _ChecksStarted

    monkeypatch.setattr(ident_mod, "run_default_sweeps", started)
    monkeypatch.setattr(bounds, "_coefficient_table", started)


def _verify_admits(capsys, *argv) -> bool:
    """Whether verify gets past its check count (identities._verify_checks)
    to its first check."""
    try:
        code, out, err = run(capsys, "verify", *argv)
    except _ChecksStarted:
        return True
    assert code == EXIT_CONFIG
    assert out == "" and f"more than {ident_mod._MAX_VERIFY_CHECKS} checks" in err
    return False


def test_verify_refuses_too_many_checks_before_any_work(capsys, monkeypatch):
    # with no samples and no witnesses the default caps run `base` identity checks;
    # each --samples adds two, so this many samples reach the maximum exactly
    base = len(list(ident_mod.run_default_sweeps(samples=0)))
    samples, odd = divmod(ident_mod._MAX_VERIFY_CHECKS - base, 2)
    assert odd == 0
    _refuse_to_check(monkeypatch)
    assert _verify_admits(capsys, "--witness-polys", "0", "--samples", str(samples))
    assert not _verify_admits(capsys, "--witness-polys", "0", "--samples", str(samples + 1))
    # a witness polynomial may add 15 (r, m) pairs * 11 kinds = 165 checks: with
    # 83 or 82 fewer samples, one polynomial ends 1 below or 1 above the maximum
    assert 15 * len(bounds.ALL_KINDS) == 165
    assert _verify_admits(capsys, "--witness-polys", "1", "--samples", str(samples - 83))
    assert not _verify_admits(capsys, "--witness-polys", "1", "--samples", str(samples - 82))


@pytest.mark.parametrize(
    "option", ["--max-n", "--max-d", "--max-m", "--max-k", "--max-r", "--samples",
               "--witness-polys"],
)
def test_verify_refuses_huge_caps_at_once(capsys, monkeypatch, option):
    _refuse_to_check(monkeypatch)
    assert not _verify_admits(capsys, option, "9" * 4000)


def test_verify_check_count_matches_the_run(capsys, monkeypatch):
    # exact for the identity sweeps, an upper bound for the witnesses: with the
    # maximum set to the count, a run is admitted, and one below it, refused
    argv = ["--max-n", "2", "--max-d", "3", "--max-m", "6", "--max-k", "2", "--max-r", "9",
            "--samples", "4"]
    for witnesses in ("0", "3"):
        code, out, _ = run(capsys, "verify", *argv, "--witness-polys", witnesses)
        assert code == EXIT_OK
        total = json.loads(out)["total"]
        with monkeypatch.context() as patched:
            _refuse_to_check(patched)
            patched.setattr(ident_mod, "_MAX_VERIFY_CHECKS", total - 1)
            assert not _verify_admits(capsys, *argv, "--witness-polys", witnesses)  # count >= total
            patched.setattr(ident_mod, "_MAX_VERIFY_CHECKS", total)
            if witnesses == "0":
                assert _verify_admits(capsys, *argv, "--witness-polys", witnesses)  # count <= total


def test_verify_parser_defaults_are_the_sweeps_defaults():
    # the seven caps' defaults are written once, on run_default_sweeps
    args = cli._parse(["verify"])
    defaults = ident_mod.run_default_sweeps.__kwdefaults__
    assert len(defaults) == 7
    assert {name: getattr(args, name) for name in defaults} == defaults


# SHA-256 of the stdout of `sgo verify --seed 1 --max-m 5 --max-d 3`, recorded
# before A_beta was grouped by |alpha|, moments were accumulated in integers
# and the bound witnesses were swept once per polynomial
VERIFY_DIGESTS = {
    "json": "deccf9c959620df8953b520c8fe0a8c72b1791614b7a20e2d535e531e29d2ae8",
    "csv": "f6c42e0477581d7d28719cfddd09e8ddffa2785d54c154e05233c26f5d7c4fed",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_bytes_are_pinned(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--max-m", "5", "--max-d", "3",
                       "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[fmt]


# SHA-256 of the stdout of `sgo verify --seed 1` at the benchmark's verify caps
# (--max-m, --max-d), and of one --inject-fault run, recorded before the identity
# checks were decided and rendered from integer pairs
VERIFY_CAP_DIGESTS = {
    (6, 3, "json"): "6c6fae2b6b06f58c79867a66290decad6272f61b6036f05bb5434631eb81f24a",
    (6, 3, "csv"): "6aee478122e0d54bef006d5636086a9ac5d68f39266afba28564b05686bea92f",
    (7, 3, "json"): "9688621070fb80c123063dd90cffe801034594aeec78a7425f815a8fe5f2d07d",
    (7, 3, "csv"): "faa11feea409b8475e52e0e88a22d87e6faffabb08e1cb32438125b11f4a89a7",
    (6, 4, "json"): "834cf36160aa76ccacb8425c1b119b62b43a0f017927f50769bb21c1bb88097f",
    (6, 4, "csv"): "cc057abf928e04b7cca7cb7e92d4dac6ee74b90de3ba82e3ee669f921e833f3a",
    (8, 3, "json"): "e6b34d2504a7e029f33b52e0cca361b5d951160e2fce16c687191d02dcce4b9e",
    (8, 3, "csv"): "bd072283e11614c43243e3c19ce7d27aa790b2391184307ec3ff0e9a6fcb4da6",
}
VERIFY_FAULT_DIGESTS = {
    "json": "60dec07c0200781b5f01c41c232381d8823982bf40bb2625bd4d655540b07037",
    "csv": "2838ef4c266c1e2d50ce71ad26b5949087ec9db75fbdf61f1b96ff16c78c9fce",
}


@pytest.mark.parametrize("max_m, max_d, fmt", sorted(VERIFY_CAP_DIGESTS))
def test_verify_bytes_at_the_benchmark_caps_are_pinned(capsys, max_m, max_d, fmt):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--max-m", str(max_m),
                       "--max-d", str(max_d), "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_CAP_DIGESTS[max_m, max_d, fmt]


@pytest.mark.parametrize("fmt", sorted(VERIFY_FAULT_DIGESTS))
def test_verify_inject_fault_bytes_are_pinned(capsys, fmt):
    code, out, err = run(capsys, "verify", "--seed", "1", "--max-m", "4", "--max-d", "2",
                         "--inject-fault", "--format", fmt)
    assert code == EXIT_VERIFY_FAILED and "verification failed: 1 of" in err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAULT_DIGESTS[fmt]


def _assert_written_unescaped(out):
    """verify writes every text of its JSON as it is: none may need escaping,
    and the whole must be json.dumps(indent=2) of itself."""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    for row in json.loads(out)["checks"]:
        for text in row.values():
            assert encode_basestring_ascii(text) == '"' + text + '"', text


@pytest.mark.parametrize(
    "argv", [("--max-m", str(m), "--max-d", str(d)) for m, d, fmt in VERIFY_CAP_DIGESTS
             if fmt == "json"] + [("--max-m", "4", "--max-d", "2", "--inject-fault")],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_verify_texts_at_the_benchmark_caps_need_no_escaping(capsys, argv):
    code, out, _ = run(capsys, "verify", "--seed", "1", *argv)
    assert code == (EXIT_VERIFY_FAILED if "--inject-fault" in argv else EXIT_OK)
    _assert_written_unescaped(out)


VERIFY_SIZES = {
    "--seed": st.integers(0, 10**6), "--max-n": st.integers(1, 3), "--max-d": st.integers(1, 4),
    "--max-m": st.integers(1, 6), "--max-k": st.integers(0, 3), "--max-r": st.integers(0, 8),
    "--samples": st.integers(0, 4), "--witness-polys": st.integers(0, 4),
}


@settings(max_examples=20, deadline=None)
@given(st.fixed_dictionaries(VERIFY_SIZES), st.booleans())
def test_verify_texts_of_small_runs_need_no_escaping(sizes, fault):
    argv = ["verify", *(token for item in sizes.items() for token in map(str, item))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--inject-fault"] * fault)
    assert code == (EXIT_VERIFY_FAILED if fault else EXIT_OK)
    _assert_written_unescaped(out.getvalue())


def test_verify_tables_each_bound_coefficient_once_per_run(capsys, monkeypatch):
    # at most 3 degrees * 15 (r, m) pairs * 11 kinds, each once; the table lives
    # for one verify call, so a second run in the same process builds it again
    calls = []

    def counted(name, coefficient):
        def count(d, r, m):
            calls.append((name, d, r, m))
            return coefficient(d, r, m)
        return count

    for name, rule in bounds._RULES.items():
        monkeypatch.setitem(bounds._RULES, name, bounds._Rule(
            rule.needs_m, rule.conditions, counted(name, rule.coefficient), rule.square_free))
    counts = []
    for _ in range(2):
        calls.clear()
        assert run(capsys, "verify")[0] == EXIT_OK
        assert len(set(calls)) == len(calls)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 3 * 15 * len(bounds.ALL_KINDS) == 495


def test_verify_builds_one_plan_per_witness_polynomial(capsys, monkeypatch):
    # one sweep plan (so one integer form) per polynomial serves its enclosures
    # and every grid minimum its witnesses read
    forms = count_calls(monkeypatch, grid, "_integer_form")
    polys = 6
    assert run(capsys, "verify", "--witness-polys", str(polys))[0] == EXIT_OK
    assert 0 < len(forms) <= polys


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 6), st.integers(1, 4))
def test_verify_witnesses_from_the_shared_table_equal_check_bounds(seed, max_d, max_m, polys):
    args = cli._parse([
        "verify", "--seed", str(seed), "--max-d", str(max_d), "--max-m", str(max_m),
        "--witness-polys", str(polys)])
    seen = []  # (f, the table it was witnessed with)
    witness_rows = bounds._witness_rows

    def recorded(f, table, *rest):
        seen.append((f, table))
        return witness_rows(f, table, *rest)

    with mock.patch.object(bounds, "_witness_rows", recorded), \
            mock.patch.object(ident_mod, "run_default_sweeps", lambda **caps: iter(())):
        checks = [check for column, check in ident_mod._verify_checks(
            args.max_n, args.max_d, args.max_m, args.max_k, args.max_r, args.samples, args.seed,
            args.witness_polys, False) if column == "bound-witness"]
    assert len(seen) == polys
    # the witness pairs: 1 <= r <= m <= min(5, max_m)
    pairs = [(r, m) for m in range(1, min(5, max_m) + 1) for r in range(1, m + 1)]
    tables, rows = {}, []
    for f, table in seen:
        assert tables.setdefault(f.d, table) is table  # one table per degree
        rows += [(w.kind.value, f"d={w.d};r={w.r};m={w.m}", fraction_str(w.lhs),
                  fraction_str(w.rhs), "le", w.holds) for w in bounds.check_bounds(f, pairs)]
    assert [(c.name, c.params_str(), *c._texts(), c.relation, c.holds) for c in checks] == rows


# SHA-256 of the stdout of one invocation per verb, recorded before the verbs
# shared one JSON/CSV emitter (verify's: before verify wrote both from one loop)
OUTPUT_DIGESTS = {
    ("grid-min", "csv"): "7e451231628eee86b91b1fad6481fdc1540be108917ad65b5db80cb674fd6277",
    ("grid-min", "json"): "d98e6dea2adc04a3d24450a30683496999ffff6ae50030e4a37203629aa714e5",
    ("grid-max", "csv"): "a6688978fe0c9e687100988e37d428f6a89d5115ea3510f1e06c235272ef6708",
    ("grid-max", "json"): "06169fea32c42943e698b3f6c9c37be1a485b593b1c84eb61d7fcba120858c1f",
    ("expect-urn", "csv"): "35955f869ac40a55c9f024bb65e5ce8a695c816a247aa0375dcf857dc4d910d5",
    ("expect-urn", "json"): "458ae98966c0f5e4c19580983a55e8e9c1742dafd9b087c25458907eb07e0a15",
    ("expect-bernstein", "csv"): "4f8408566e3cf8cf13ef63b655ba1ae7fcd30aaba55f73aa71747936521f1afb",
    ("expect-bernstein", "json"): "f8676023b8a0a267617be75357a708776ce845c22430c849f5edd7f8416bd1ef",
    ("bounds", "csv"): "a006b0772fd0bb4e342c13afde4f71a68c1d01242cc1e3b9ff6f20e1530da50d",
    ("bounds", "json"): "bd5cda009ff0ec730229883c8b3ed28308934410bab17454bf90a58c1a7f6f20",
    ("bounds-m-range", "csv"): "7647ed9d491114940d42b737bdabd5090a6128093a3cf11935dfe90b66ae7f4e",
    ("bounds-m-range", "json"): "8b087726957dd66f8f333b4fdd50208b6a4788c380c63be676a5d963261cef20",
    ("converge-assumed", "csv"): "6b30c7b58e67e3b644d2c5f04a7bdf8ab5f52f6578ca3553e92b0f58b991608d",
    ("converge-assumed", "json"): "e7a3013f4868c8bd78eb97cb1b6074c3cc49a201e6381fff2e7ea5ef991c906e",
    ("converge-grid", "csv"): "07f74b0a6adb56a74f3d0367c5e6e4ebf6658555699e3f5eade16f065a40281c",
    ("converge-grid", "json"): "afcff86ad28c257e2aa2ed630cc6852f7496dbccbd95614026187a225d308a44",
    ("enclose", "csv"): "e0603a01101992d8dbedd3110e90c87dec1e308089cc033577aa106c636eb45a",
    ("enclose", "json"): "8639d00cd87fca3306f59bb9424a36f92a3f640599e7bfb0f5920c3ffbba95df",
    ("stable-set", "csv"): "9cf8e62e0975f98c8bb9f7a5078c0f8bb1287b794fc90a078d49dca635e60e2f",
    ("stable-set", "json"): "11f9d8c799df7ec829a5cc8c033d37b784ccdcd5a67942ce6ac8ccbfffaeaf6d",
    ("verify", "csv"): "ec1db482d6ce0b44ca12255a38b2b8470cb1cb3f65fbedf3cf480e6c9c3ab859",
    ("verify", "json"): "715a02b00c5d6f56fc6734ebcf190420122862fecd79b929a56d233021ad1daa",
}
PINNED_ARGV = {
    "grid-min": ("grid-min", "--poly", GAP, "--r", "16"),
    "grid-max": ("grid-max", "--poly", SOS4, "--r", "4"),
    "expect-urn": ("expect", "--poly", GAP, "--r", "3", "--m", "16", "--counts", "7,9"),
    "expect-bernstein": ("expect", "--poly", GAP, "--r", "5", "--bernstein", "--x", "1/3,2/3"),
    "bounds": ("bounds", "--d", "3", "--r-range", "2:5"),
    "bounds-m-range": ("bounds", "--d", "3", "--r-range", "2:5", "--m-range", "2:4"),
    "converge-assumed": ("converge", "--poly", SOS4, "--r-range", "2:6",
                         "--assume-min-denominator", "4", "--assume-max-denominator", "1"),
    "converge-grid": ("converge", "--poly", GAP, "--r-range", "2:8", "--grid", "16",
                      "--elevation", "2"),
    "enclose": ("enclose", "--poly", SOS4, "--r", "6", "--elevation", "2"),
    "stable-set": ("stable-set", "--graph", PETERSEN, "--r", "4"),
    "verify": ("verify", "--max-n", "2", "--max-d", "2", "--max-m", "4", "--max-k", "2",
               "--max-r", "6", "--samples", "3", "--witness-polys", "2"),
}


@pytest.mark.parametrize("case, fmt", sorted(OUTPUT_DIGESTS), ids="-".join)
def test_output_bytes_are_pinned(capsys, case, fmt):
    code, out, err = run(capsys, *PINNED_ARGV[case], "--format", fmt)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[case, fmt]


# SHA-256 of the stdout of `sgo bounds --d D --r-range 1:12 --m-range 1:12`, recorded
# before the bound kinds were stated as one rule table: every kind, condition and
# reason, in the order the table prints them
WIDE_BOUNDS_DIGESTS = {
    (1, "csv"): "96b201566468b38f255083fe9723ee3315172108037b863f48db38eaee211bba",
    (1, "json"): "5920d2f66007ae2a8aad917a791584e7deb58fb77c7d80091a68b044c82725d0",
    (2, "csv"): "d32e880dd8aac212825c2a8b2a57524ac3333332893d47054e0fcacc717cac2d",
    (2, "json"): "8d1dddfaa2f927aa87ec22f35446ca98b5ea0eb3f293a814efce4cc01acdd980",
    (3, "csv"): "f23e2c4041bd3c646475f51a2172cd10c3107c2564052bf02e7ee10684d0673b",
    (3, "json"): "0ce65571025a0e5deb89d6043de1d9d07bc295c4ae12ce184ff4ced936c4c3db",
    (4, "csv"): "89530d911cc3a1754859ccf9df469a6da9eb6df13de9fada8582e466446e1c69",
    (4, "json"): "262054b4c905107b6e5be30a4dc7c20fa5ad0dfb9efb2201b2eb3034b6d1c8b3",
    (5, "csv"): "4fbcf3cb048d164612a02b8b4eed77de357a43be04daf83599af1af70cfc5233",
    (5, "json"): "7cdadd54038d6824d851f049b63dc6617dd6eff858c73925462edfa8715ee928",
    (6, "csv"): "1cc6833208d4345a0185b897c15d6124c3da2443d351b5fcda2d370fd07603c9",
    (6, "json"): "aa771a9d4d6f42f9782e3b5794a7db78c99e811eb3a9de2a3da67c20ec00f23f",
}


@pytest.mark.parametrize("d, fmt", sorted(WIDE_BOUNDS_DIGESTS))
def test_wide_bounds_table_bytes_are_pinned(capsys, d, fmt):
    code, out, err = run(capsys, "bounds", "--d", str(d), "--r-range", "1:12",
                         "--m-range", "1:12", "--format", fmt)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_BOUNDS_DIGESTS[d, fmt]


# SHA-256 of the stdout of quadratic sweeps, recorded before the sweep gave
# degree-2 nodes a sharper pruning bound: stable-set on the Petersen graph at
# r = 1..10, and grid-min, grid-max and converge on the two quadratic data files
QUADRATIC_SWEEP_DIGESTS = {
    ("stable-set", "--graph", PETERSEN, "--r", "1"):
        "7b2938258c1dc5eff445aa4f577f369b0888059f4db51b64800dee7c0697451b",
    ("stable-set", "--graph", PETERSEN, "--r", "2"):
        "c254566211cdf256af119654d534d23a0ae7218b118dadbaf685bf006ffb1f34",
    ("stable-set", "--graph", PETERSEN, "--r", "3"):
        "41ebc7d0350668b75afff49b698e17d8c49176f9496e6505375b213f97a5ef2c",
    ("stable-set", "--graph", PETERSEN, "--r", "4"):
        "11f9d8c799df7ec829a5cc8c033d37b784ccdcd5a67942ce6ac8ccbfffaeaf6d",
    ("stable-set", "--graph", PETERSEN, "--r", "5"):
        "f71ea08e2f5a85d42bd9082c84e6cd8285cc4f04c4e4d45e5bf060861a697131",
    ("stable-set", "--graph", PETERSEN, "--r", "6"):
        "2309f265e6df657c37ddf49ee335ef3fcd7889564d666713c97392276c530611",
    ("stable-set", "--graph", PETERSEN, "--r", "7"):
        "46b7c1ba20464c8fc29aa234a716fd9a6bd1cdb481bfea5fd5d5e42e912839df",
    ("stable-set", "--graph", PETERSEN, "--r", "8"):
        "465ce4292ae23221554b8bef1987cd2c30482bc10aaf9a549a7374f68ec06758",
    ("stable-set", "--graph", PETERSEN, "--r", "9"):
        "e578294cfe2d3639f1a3df0640811106f9798f6cafe880740c802361b53f12cd",
    ("stable-set", "--graph", PETERSEN, "--r", "10"):
        "fa8c67469665315278149d26343124809210ff37b898cd11811f4ac4755c002b",
    ("grid-min", "--poly", SOS4, "--r", "5"):
        "eb5bfe199f789ed2d8f90d9dc3e6dfa7251ac58077d07547142d0255fc0cb45b",
    ("grid-max", "--poly", SOS4, "--r", "5"):
        "ede2e7b8597b7399a265767ad1f4a19d8fc26211836ec07cf8f82af0043cd92d",
    ("grid-min", "--poly", SOS4, "--r", "16"):
        "c3757025215aacd631194251963f3eff445fb969e5a0fec1e68b788a6a6bf897",
    ("grid-max", "--poly", SOS4, "--r", "16"):
        "e4476584f2529d974c9321bc200e5834eaf57460c3e6f3dfe0b5b4d4daca8f7b",
    ("grid-min", "--poly", SOS4, "--r", "30"):
        "7023dd9ae6a040e9fd26f6297ed1ccf1d878dc7d584df93c4a95a41878b99ded",
    ("grid-max", "--poly", SOS4, "--r", "30"):
        "f088b00c5794acb1ea008d8e38763f1a401f9c1b72cb4f3046a31822c96f0594",
    ("converge", "--poly", SOS4, "--r-range", "2:16"):
        "52b70e232c0552049823ee6cff3105670ecf5f098735aadd564c1b92e50b396b",
    ("converge", "--poly", SOS4, "--r-range", "2:16", "--format", "csv"):
        "78538f6259e920a7bcfd2906068294a584d323dd673a1cccaeff6858ae58966e",
    ("grid-min", "--poly", GAP, "--r", "5"):
        "78fdcb3e91d89af12b36d563a364721a318ddc20acf9f4e8c24ebfc1cdde9b88",
    ("grid-max", "--poly", GAP, "--r", "5"):
        "aecb76a6def1763dc587cd1377d7c8a375ed9c94d4d65cb757cd40274e4c894d",
    ("grid-min", "--poly", GAP, "--r", "16"):
        "d98e6dea2adc04a3d24450a30683496999ffff6ae50030e4a37203629aa714e5",
    ("grid-max", "--poly", GAP, "--r", "16"):
        "5d7df1b1f27760d178596087ba6b58c47fbd8d0b145fc83c6db246e1e175f1d8",
    ("grid-min", "--poly", GAP, "--r", "30"):
        "98d5a46fbf2cb934f8d87e5b56d9cc95ba436e163b825d167cd8fe41673c75a4",
    ("grid-max", "--poly", GAP, "--r", "30"):
        "171c457e3e65b033c2dd0acca2c38fa282465110d2fd92d229b8eb898fdf06c0",
    ("converge", "--poly", GAP, "--r-range", "2:16"):
        "d4ef19eeb6cf568b7cd24c4d7209eb54833929ac770986110a6949ae3198782d",
    ("converge", "--poly", GAP, "--r-range", "2:16", "--format", "csv"):
        "4be8fdd775d619d8475a40bf2ce79c551b47e07e39a0793e6c26ee54491c9581",
}


@pytest.mark.parametrize("argv", list(QUADRATIC_SWEEP_DIGESTS),
                         ids=lambda argv: "-".join(Path(a).stem.lstrip("-") for a in argv))
def test_quadratic_sweep_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == QUADRATIC_SWEEP_DIGESTS[argv]


# SHA-256 of the stdout of stable-set, recorded while it still swept the vertex
# form: graphs whose stability number lies below r and at or above it, among
# them random graphs of the benchmark's three stable-set shapes (n/|E| 12/30,
# 10/22 and 11/27)
STABLE_SET_GRAPHS = {
    "K6": complete_graph(6),
    "empty7": Graph(7, []),
    "4xK4": clique_union(4, 4),
    "5xK3": clique_union(5, 3),
    "3xK5": clique_union(3, 5),
    "random1-n12-m30": random_graph(1, 12, 30),
    "random2-n10-m22": random_graph(2, 10, 22),
    "random3-n11-m27": random_graph(3, 11, 27),
    "random4-n8-m12": random_graph(4, 8, 12),
    "random5-n9-m24": random_graph(5, 9, 24),
    "random6-n12-m48": random_graph(6, 12, 48),
    "petersen": petersen(),
}
STABLE_SET_DIGESTS = {
    ("K6", 1, "csv"): "68af798785c63bcfec58155d043d6d281b78cd9020b6f794c49e04f0c97357f6",
    ("K6", 1, "json"): "7a07eb062268a1c288d8aceb540abb8fb0ecbf51a42bd4ad00ca8f9bf7230300",
    ("K6", 2, "csv"): "343c0b7f5d6a3bb6b98f0d43ee08448021212a87ea54408cc5f20d88a7a25b8a",
    ("K6", 2, "json"): "4689a214bd19eb767afb5c64fed328bce638ece13a657c3e91f470b87a408985",
    ("K6", 3, "csv"): "076192a1e89c1242a56329d9d7fc326787ad416f3816bb5ccc70af6343b66b0f",
    ("K6", 3, "json"): "821a9da90fec9099cde22590f1520ead35baecc076b1abdb5dcbe2e39ce9e68a",
    ("K6", 4, "csv"): "af4000e53b3135c53bfb77c1b28b8262823599984e345c313d11d220871c82b4",
    ("K6", 4, "json"): "47544390fd989d1a6017901833705740010d8fba27ba11b491cc656aa126eb9c",
    ("K6", 5, "csv"): "4225c3eab4d13e042ac08eccf6e7e8bc01397ef27b6ec2f2c6595bc7dc8e6fd8",
    ("K6", 5, "json"): "4642612c8f0c1d123673580a45626476bdd9f9763f5182285879dff246807440",
    ("K6", 6, "csv"): "f63129c37a91f53d0c1d6abc0b241aff7a995c6ec798b20e6607356dd538337e",
    ("K6", 6, "json"): "cce95b331408dbe34b99d54e042a2258e54b8f3b1911ea5fbb064381bb3020f4",
    ("K6", 7, "csv"): "2976733221a1ffa3f92da63c25015bc4a8d9bd6b6513e8a878857fcf35c03f2d",
    ("K6", 7, "json"): "e14cfb9a606ac1730221466c654d3a1ef9a608cb7b0c2e207970b996ff070252",
    ("K6", 8, "csv"): "91dee00b13c8fa0bfe96d3d38c9c0b07e5ba8c040419ffc4b4b361620ded39af",
    ("K6", 8, "json"): "476723edcf6b04e32c382f04307816d84c18c1fe12c5bf0ef46e12cf1d8f9588",
    ("empty7", 1, "csv"): "a56b96fc8d5b01cca72a822c4d367287b8fc12cda73b04dec6f328646b2bb45b",
    ("empty7", 1, "json"): "830f63048e9c35539e7ed1b88f07c63d080fb6ed23a4ccb88195b7034c2b4fcd",
    ("empty7", 2, "csv"): "a267a12f3b03913edafc0e085e1a5bf5e7fce0839748163f3868a7d8f9151da3",
    ("empty7", 2, "json"): "67e5cc6d2701cc0946f476e3bf1e5059e6f57bcf07ea40f44d1e0de3f18b5145",
    ("empty7", 3, "csv"): "99c851fda1c4dc3ba18eddf89240abce2b15946323fc8c40e3bd2e8c60b971f3",
    ("empty7", 3, "json"): "7c651026f2ee2de910fb0382f49b6d7dbdaf117cd62f4dabafd378d9f2d5bbd8",
    ("empty7", 4, "csv"): "3ea77162357b7f8aab59128ef2c61872998b8014e0f49f3ad55486d130937dde",
    ("empty7", 4, "json"): "3f0ee30d63584ec8ea3c55eb7c4cf0b4a8a7b4629eb421adc4b34993acb99474",
    ("empty7", 5, "csv"): "37846e6948089335c38aea4bb2e3b94835d3179b06d07ca781d498fcf247ca90",
    ("empty7", 5, "json"): "0ad5563e1d71d4d8331af901b772248658880cc282041cd8096ab661f698d35a",
    ("empty7", 6, "csv"): "33201e593b21ef7b5e6b39bd20f18a7cb690c435f87a78343e1f4eadc8b02ae3",
    ("empty7", 6, "json"): "a72ef35756f922442f4834ade5a8768560bc5295fc53e4b2911c992d5e0b9c03",
    ("empty7", 7, "csv"): "fef2b58008545ff9678e7b7454a474eb5fbae038551ed6d95a5fef7c98b4d8d7",
    ("empty7", 7, "json"): "8e08b45071d26f7a4a066d5e9a9602db7ccf1055fbc0e368dcfb55aad6118c90",
    ("empty7", 8, "csv"): "5c58619f457566317144efb4e8d76c4603e744e1ba1e20e2e6bdc8ebf236ed05",
    ("empty7", 8, "json"): "becc10ec0ae8682e29e4a728ab0610217ab6c60144ec1a912597bdfd733db46f",
    ("empty7", 9, "csv"): "4041fd98a309e83925aa1cd04bf8a5cf9273c90a77ae202bb2f09d5f74f6e6ed",
    ("empty7", 9, "json"): "bb5ce2317e54e460b398021ade668bb3ba383ac926e10a754706be184ace03de",
    ("4xK4", 5, "csv"): "d245db332283fe7ee383216f1d6ae26ff34a1a6c17c12a09070085620f05685d",
    ("4xK4", 5, "json"): "ccf2d23e7dab4658af5494f20536bdf31e58f144c02dbb8330ea9fdcddce5519",
    ("4xK4", 9, "csv"): "f03158e1c559c8606922e5f606126fa7ff83d258e5ba7cb8cf729a57ac45a6fe",
    ("4xK4", 9, "json"): "65990c763a793dd0a1df57ce04a742cd962957b7b5a67a5a9aa43bcc94c438a5",
    ("5xK3", 6, "csv"): "1e03881fc3188dc2d3f3cc89cc5a5502ace3729f4276b94a88e9f6964a378fbb",
    ("5xK3", 6, "json"): "e85dcf146f0cfb19b6943c7e63e5886055466c2f7b61aa248ebf859878d90630",
    ("3xK5", 4, "csv"): "1fee20b147249a3948c27d85e8684bd4d8cf9336a4070ed2641ca3884d709d7f",
    ("3xK5", 4, "json"): "63bb56f965799241dff6b511004b20d6b2a05a8c874bc6b8e34601ca1e7a2874",
    ("random1-n12-m30", 1, "csv"): "a23dbc4516f29f5bd128a111c3bc73b9405049170df79d70f2d65586a6296f3d",
    ("random1-n12-m30", 1, "json"): "79c7f17f8c4b3a18f4dfe14a2ab754f48e75314ea2a8d17503bce1d9f925bae2",
    ("random1-n12-m30", 2, "csv"): "8176450de74269e7ff8d96a536a0ff7cb04ecb654037804113429c0f74ee4664",
    ("random1-n12-m30", 2, "json"): "754215043abb95330ed05e96e2124b5f431b0e02c184e08d0f84f79561673ffc",
    ("random1-n12-m30", 3, "csv"): "ed821c7fb8757a07c4786a5cf4a567e523d228f5b143bae15688cb02d6e99fbf",
    ("random1-n12-m30", 3, "json"): "fb83244c4e9fce1e7207ce0c731b9e2fdeebd535e8cbf86f0b073f1ca8e69e72",
    ("random1-n12-m30", 4, "csv"): "56b3b331dd413dec121a4d039a3f56c46dea76d72164fdc429c5450bc8e34df4",
    ("random1-n12-m30", 4, "json"): "b2fe176a3fc0fef757943c3a048f3e8ca0337697312de8cbb25e900888726b6b",
    ("random1-n12-m30", 5, "csv"): "abac0d08e12fdd4814d8d28460bae734c0836900b244220f79365949f1489e33",
    ("random1-n12-m30", 5, "json"): "f006392e14af44054975b0041bb0e75d0321afc051e91d4a213c157f2be042d4",
    ("random1-n12-m30", 6, "csv"): "08afd5efd00333b18d3505c4ad516c328bc598b8245403ff1cbbe52d5a0adb81",
    ("random1-n12-m30", 6, "json"): "fa2334776ef40ab9c3cbb1fb0d13dafdbc43c24cf385a14058af1cfb97a8197d",
    ("random1-n12-m30", 7, "csv"): "23dea3f136c0da808e2868629fa7402cd0fc9521af6be0e09c5a87ccd57b6387",
    ("random1-n12-m30", 7, "json"): "67d825d5919f7c405c6b1595f0753ab5a81132b543d47afbdfc23cd2bda7f3d8",
    ("random1-n12-m30", 8, "csv"): "9a7d1b228e19ccf8b17b4b0c2d16ebf2ef62673657e33f1670e6208150013a8c",
    ("random1-n12-m30", 8, "json"): "64e47c18af8c89838e0e25a1b0e58272522fc2ce60d13f8d56e476352921566c",
    ("random1-n12-m30", 9, "csv"): "4e547c20d540e3ec254a65cae7604f7519304c85a8ce96803765bd36b36f9dce",
    ("random1-n12-m30", 9, "json"): "960fad27caeed7fd4aab8905f93d41a33001d6d5229b8c498f94a154ac6c1117",
    ("random1-n12-m30", 10, "csv"): "7d4d2f01e17a23c05b27c9b353f26bd6631aa628e36339e9f72f7bfcb9d42f21",
    ("random1-n12-m30", 10, "json"): "a64f5a5738ab16f74daea016f06319127d53787131792c03467301668ef5a1b5",
    ("random2-n10-m22", 1, "csv"): "757d11708edb3af23542339390fff36871c659060e4236bcaf2d0d157293444f",
    ("random2-n10-m22", 1, "json"): "980c7661416cca49ea6d594353f57b83bb2051551bcb64316f2a8e6578d4e306",
    ("random2-n10-m22", 2, "csv"): "3a1d0b0c9aa6c4563c403ab4981677a34e78078e21a6b6f28ec6863b72c98571",
    ("random2-n10-m22", 2, "json"): "cb0346ffbf76e3afcef74f9919b9c51c94151d5b53d95a421247f8933c80c72d",
    ("random2-n10-m22", 3, "csv"): "2974ac804b01100480cb2d3a1bdfdcfe82f71ed9c80744d1c08857294e99bb4f",
    ("random2-n10-m22", 3, "json"): "551ed7f244732b2d96f0b7f2d9884f4cb2062f4792332532c077f213ae3975fa",
    ("random2-n10-m22", 4, "csv"): "7a4ccfa3d67e93c0aa316fe5f6fefb7f47061569dcbb3c7304807b0bbbeff5d0",
    ("random2-n10-m22", 4, "json"): "81a2bd6127d8464e3ea691910f726175d5ab16653a4f06d63273fe485037542d",
    ("random2-n10-m22", 5, "csv"): "b3c1a612164f2fdf48364e5562f9c373e33867893281fcf8ba7c9462266ea1f8",
    ("random2-n10-m22", 5, "json"): "7a4643122877d8055a801ab0a2ed9ce5300fcc16f6740bc0ffa6d6395580b228",
    ("random2-n10-m22", 6, "csv"): "011da0991cba96f23f420d8efd957a985e53a8410595e7e9f8da812defdc521f",
    ("random2-n10-m22", 6, "json"): "210e099a5d8e2abf437ee0e71d1421b4ac3b1f88f0d7b0e4accd2b1d237c9ced",
    ("random2-n10-m22", 7, "csv"): "eb14b76a9c298c860dadb51509dc6036d1342565b71989a73b454bc23cf724ee",
    ("random2-n10-m22", 7, "json"): "c7c5858cddfbebccca3e8855dc2ea60fee1b61f58ad5a614a6d7be99e9b42124",
    ("random2-n10-m22", 8, "csv"): "ff79098ec5fea0b3ac81740a5668763ec1dd593c2ab4b28313107077279d3163",
    ("random2-n10-m22", 8, "json"): "9d9b8c37964c85553cc90b24deb893a965c31a529695abf0dabddddd233d2b73",
    ("random2-n10-m22", 9, "csv"): "df7c0ca9e260debcd20fb43e36fe8842d97ad20c33bf4cbe6d1be80fe618327d",
    ("random2-n10-m22", 9, "json"): "0c32c59b27e0610af846bbac36ed9d373ee3982c8e17949f455190b1bf4d2deb",
    ("random2-n10-m22", 10, "csv"): "f6ed05aff54f9bf76a23e660e0a2c5ae7150522274ffebe823734150eb47bc3d",
    ("random2-n10-m22", 10, "json"): "df0b6524b89ad549fc0b21619bfb3d91dd17c3a141add105feab73b7f39ebd71",
    ("random3-n11-m27", 1, "csv"): "c8ca214dd79e0f32061579b890e22ec10ee1707072fe75dc9e6dbb9182a1ae6a",
    ("random3-n11-m27", 1, "json"): "d8baf788451177d64dd6296ceaa0143d2cbd485d1f17c68fc9428291fa1d4edc",
    ("random3-n11-m27", 2, "csv"): "1b3b2f13b012b906aa32bb129684cf8b5395ec3483d9d4430845784480df5bcd",
    ("random3-n11-m27", 2, "json"): "f0d3a516740c1c2a65904faaec2d9a19f47e68d1aaa154c270c915d940373b14",
    ("random3-n11-m27", 3, "csv"): "9a4539fccc357e1afd57e7a3dd1c758f3feb1d4af7a06c859f78dfa1a149376c",
    ("random3-n11-m27", 3, "json"): "ec038b31835a5b9fe5867569e2f81e53e893fcfdc2704cf4204b1920e3d665e4",
    ("random3-n11-m27", 4, "csv"): "ffb09960e5470ada2c7b0009c8aedc67d817b68073c87ee4b875863daeb18a89",
    ("random3-n11-m27", 4, "json"): "d92d93ee60ea953dc0f902d404c857916c40f0d6c5cfffcf471518de4a5f6fcd",
    ("random3-n11-m27", 5, "csv"): "89b6b2a6292c148e108549ae532adcf0bcaa14436f116bacfe79751bb961802d",
    ("random3-n11-m27", 5, "json"): "eefd0eccdef6f7935fe87e2e439f2c1ce17430ad658c6c5c3d63c27223e11142",
    ("random3-n11-m27", 6, "csv"): "2b03aa3760beb57924cc6cbf93ba1b2c12683acdc5d5c041404030774c04111f",
    ("random3-n11-m27", 6, "json"): "56fd1c794c092deaef7378bc08c7cec52f7cc2740db689f197dc8a64d7c358a5",
    ("random3-n11-m27", 7, "csv"): "aad39f5a849e361eb7a4167b3a483c8ca80a8b148eae2627c15c492de83031a8",
    ("random3-n11-m27", 7, "json"): "25a0611d65c39201d17960d1f782a326a8f4f8f45cfbc560ed917414628a9c60",
    ("random3-n11-m27", 8, "csv"): "badca9b8138b737d2815c8e10a449190bbb9079e60719233fd1b467d462eaee8",
    ("random3-n11-m27", 8, "json"): "18f980bd94eab9b77acbc56b2b1b7955aa6852aea5055b285c8d7695d70a53c9",
    ("random3-n11-m27", 9, "csv"): "1e02d55a6d9df070b571ef0e1a39e367bbc8563e4e2df59c30f99367fe5f547a",
    ("random3-n11-m27", 9, "json"): "a6a6e56148a234c4a40af70949cb6d3e2c39b5bf7afefd1bfb12cbf796959cac",
    ("random3-n11-m27", 10, "csv"): "44cd622c4031f930c04dbcc0e525bb27efc44aff2b2d02db92c872af24081334",
    ("random3-n11-m27", 10, "json"): "d36ad5bdc433c55d6f25e435868bf4f7b9e2d2c77e3a95e31984a819e98abf5a",
    ("random4-n8-m12", 1, "csv"): "738e3599122a4f2600efa135d95083dcf1b5ead29c8738ec22c3815e2434853b",
    ("random4-n8-m12", 1, "json"): "44fc6c9848d1b8a4c7db3a348601748da95228b48c7caad7889980ee683757c8",
    ("random4-n8-m12", 2, "csv"): "b36b330bba9ad6499f339f384438bb8791e60fbcd645ff84c4fcc921197453e2",
    ("random4-n8-m12", 2, "json"): "28c49889a894f837cfae484cc0568d2dfa8d12e94d2a87ac2d291cc8edff8594",
    ("random4-n8-m12", 3, "csv"): "17c5a865835493ea0521161d4f0ec1bc33a1994abb3757fb32fec389788653b5",
    ("random4-n8-m12", 3, "json"): "61b03d202e54bc088eab5630ab54dbf694eed32219bac66e7b191d390e4a9e93",
    ("random4-n8-m12", 4, "csv"): "630e25e9742efdfe923e4a46ed94855d170316d1732f6230e4df839ee4aa91a7",
    ("random4-n8-m12", 4, "json"): "c2687084f6149072fe71b8f01174f2ac0158214c93ce140ca00571ee5fb1085e",
    ("random4-n8-m12", 5, "csv"): "a4050d6571d1a5bea3f9e446363563140fdfc1b296c96b3ee1ace47ff8f94f9c",
    ("random4-n8-m12", 5, "json"): "ae691c31171c28d0b126032824eb81f272d6fcd9fcd1a65df452a745666473f0",
    ("random4-n8-m12", 6, "csv"): "c874a92a17327b12db2d6545b78f6e6da3b02c7126e4df15fa897ed2eee80393",
    ("random4-n8-m12", 6, "json"): "29632535de2eab466c186c367e8c4f7494c195e5f04f119c4268a7090b86468f",
    ("random4-n8-m12", 7, "csv"): "527b6c053566cc886349515eb14682436b661df5a4ad2da23099eabc29f6f2d7",
    ("random4-n8-m12", 7, "json"): "e331b68831facf90ebe160a446bc2fd540072e0f719a07e02da9935746cd3455",
    ("random4-n8-m12", 8, "csv"): "081e4fcdbd7bdead8d14bfce7cb7aa6ffd87856f974aee3ede6d56a06f3b94b2",
    ("random4-n8-m12", 8, "json"): "11e33d504c53f0ee1ef276e3a3a73cb6f47c86ce191653fff34c5199eece7929",
    ("random4-n8-m12", 9, "csv"): "caf3db678126296ad537ea6cc3168e64999021e9d7c63dc9fe02701fdaf26366",
    ("random4-n8-m12", 9, "json"): "954dee4bb6325a02236ebf4060c3134c99c9c1c85b5f9b88dcbf4f1c125f09fc",
    ("random4-n8-m12", 10, "csv"): "6f019e576aa2821628846f6ded385c8b102c3999cb800965790f3a7b9642300f",
    ("random4-n8-m12", 10, "json"): "bc87b71b5100d036499a9b3dd06e7ba55798ecdb167faabfca4d34b641af84d1",
    ("random5-n9-m24", 1, "csv"): "52f3150d71af6fab2b3cc47995749d8f8f56dcfd359d965fe6da13801109aec9",
    ("random5-n9-m24", 1, "json"): "90ffec1f4d536d3611099da984dfc574cf88d4a859065b05707c9cd7dd828037",
    ("random5-n9-m24", 2, "csv"): "0c9b4bf0b5a2ec673f464c882a32d8453a2bc79df513577b758f45871b193d69",
    ("random5-n9-m24", 2, "json"): "ec693e232248392c9b0ba5552665801dbcac7f46772b4d4e43769ee7d0303a92",
    ("random5-n9-m24", 3, "csv"): "b585d7c3bc5ecc9129285262df6d7b63cf8cd14be806c3a51fb154e0f820e1bd",
    ("random5-n9-m24", 3, "json"): "59bb72b4ec6dcaec27d90d4ec3ceeb23f373344453d09f192a42147c5e757b0a",
    ("random5-n9-m24", 4, "csv"): "8fc88a20923317e5482293b8021548230e79ff51713dd6bf42db0ff765c7084f",
    ("random5-n9-m24", 4, "json"): "74f6c99aa51fbe52964602767e86605ea35aea3c2560da7d1850359864819f1b",
    ("random5-n9-m24", 5, "csv"): "fb8fc85ac563e2b273fc00cba70153b556cbd2297a0e31d829d834fc0ca1ef88",
    ("random5-n9-m24", 5, "json"): "402d7f5240df4dd8665471491c3b4c4204a3c662d5e44b0399f77b6ebb0595ae",
    ("random5-n9-m24", 6, "csv"): "3d9680b0ea112f89df0ccfb9d601ea7197abdf0ebc0f841b443c5830ba4491b8",
    ("random5-n9-m24", 6, "json"): "9d18fd7a4a7d21d96c1c5dc83143b189756368debe77e6b56f2c69711b107cb0",
    ("random5-n9-m24", 7, "csv"): "5f96dfffa37a82c70793dd8a18c09ca1b4ba7bbd80102f198e947dd950082cf5",
    ("random5-n9-m24", 7, "json"): "965d305398639cb36085b301a0688bac91ec6658d3d16a4267cf411adfd1f29e",
    ("random5-n9-m24", 8, "csv"): "55667f51180ae6324b3607cd37283fe2fe59cd61bbc70d85030aa0a57afff609",
    ("random5-n9-m24", 8, "json"): "5f5bf9e8673887737e1a485fd4ac5b31ac9a14f9484517163f11f675003f9ddc",
    ("random5-n9-m24", 9, "csv"): "c486ae5b93e3d159357b8132a82b842f86f622ac71cd36e614a62f0af06d66c7",
    ("random5-n9-m24", 9, "json"): "621f2c5732e1a35232dfcd2b9bbbd9a98a79a59df252395f18c8c96b34f75a25",
    ("random5-n9-m24", 10, "csv"): "b8c3c74c589b32a8b34dc10276fe0b37902385568572a432f227ed2a9252e34f",
    ("random5-n9-m24", 10, "json"): "160b599139076b7599229c9678122c63ca2c69907aeec0761571d266c8cc61a1",
    ("random6-n12-m48", 1, "csv"): "1a989ae82b9b4102df6fa532c16827b3f9359c1975d85227c710639d9697f5c9",
    ("random6-n12-m48", 1, "json"): "c3eadb9f45e6ff57b2aac4548afbef92c33ec0b1a63e4f5410d2cee81e3a55bf",
    ("random6-n12-m48", 2, "csv"): "8fa072366e216417dda9daa5f3547b86eb0bcdeafb26630b890771739b5f7af0",
    ("random6-n12-m48", 2, "json"): "7f7f8801c1feeab5c5b9eeef3c324557223932260b345bc92f9f2d4b1cf34fa3",
    ("random6-n12-m48", 3, "csv"): "af813a6cd7983723515187bf71efb57ebb8b603b6eaeec15fa99d918756320a5",
    ("random6-n12-m48", 3, "json"): "2c5aae50b2abe0bf9b766613ecb69a8a401b0c7bb910b0bb33a33b7b1ad7e851",
    ("random6-n12-m48", 4, "csv"): "4d321cfdea9b48003531831def4f11248cecc37d03bde33cf7b73699c96f5ac0",
    ("random6-n12-m48", 4, "json"): "c740103b31fc135c8024bf6274081de9b8cdcff50fb835950ac20e531ea4ded3",
    ("random6-n12-m48", 5, "csv"): "1cd4671f3af79eee18a75f243f02a7317f9c26119ae29a929e91e91da0caafbd",
    ("random6-n12-m48", 5, "json"): "d6b39ad3dc36281712119bb8d4217a29f09e0735493d79ec7004103bd962b802",
    ("random6-n12-m48", 6, "csv"): "515b010e00081466d25381b927476564fb0378aafdecfba894218a6021e37c7b",
    ("random6-n12-m48", 6, "json"): "6d289384781e87ce0632b65afe7f698ed6952ce8e7948447196e0dba8aba54cc",
    ("random6-n12-m48", 7, "csv"): "2f3247d681a3625138b59abfe274d19b41c9be9cbc87d2e49dc6c31a1ed349e4",
    ("random6-n12-m48", 7, "json"): "569b6bb55a79c012ec74dfa4cf4731ee65fa934cbfdd6ae6ab9a30cd2a426861",
    ("random6-n12-m48", 8, "csv"): "64dc7a988c4af0f9f158412d46e4dbc669e7a0a7bb97a4423c4d555544f4c173",
    ("random6-n12-m48", 8, "json"): "d637f60226f4b2e5637502474551a7eaae95b04b5bd4e346c36acbb4e46cef15",
    ("random6-n12-m48", 9, "csv"): "c7f491b4da135089cc578e82beddc5cd719c00c072b177c04fdd1133036e8021",
    ("random6-n12-m48", 9, "json"): "ab1a4985d98029dfbaf5de9db1c3123ce7e6d9309dd7a427af87ed5582715c6a",
    ("random6-n12-m48", 10, "csv"): "6545ecaea7a2af8b6a5bf31ba1e51693979c44eae739be07f545fae60fcb2845",
    ("random6-n12-m48", 10, "json"): "ccf2a64788e22187b504df70028be761d8f968a951f0772cf2d2de0f17ba621d",
    ("petersen", 11, "csv"): "94c4d884a96af1b23aed16811660eae172ac31ce2a73b80d3a9d6b2534581fb1",
    ("petersen", 11, "json"): "57e62b18cf608cd6d8094eccfc991c37fd57c1f340737b3b91829269b7dbe067",
    ("petersen", 12, "csv"): "8f1090a3179a136f11d813e8303f6bd5cc83f2394bf0cdfa9c8704698c264386",
    ("petersen", 12, "json"): "ca75665b646b7765f8e2495aae1bfcb7e506408b79b0806f2e0bfa7ef81a18d9",
}


@pytest.fixture(scope="module")
def stable_set_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("graphs")
    for name, g in STABLE_SET_GRAPHS.items():
        (folder / f"{name}.edges").write_text(edge_list_text(g))
    return folder


@pytest.mark.parametrize("name, r, fmt", sorted(STABLE_SET_DIGESTS))
def test_stable_set_bytes_are_pinned_against_the_sweep(capsys, stable_set_files, name, r, fmt):
    path = str(stable_set_files / f"{name}.edges")
    code, out, err = run(capsys, "stable-set", "--graph", path, "--r", str(r), "--format", fmt)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STABLE_SET_DIGESTS[name, r, fmt]


# SHA-256 of the stdout of sweeps whose Bernstein tables lack rows (the sparse
# quadratic x_0 x_1 + x_2^2 + x_3^2 + x_4^2) and of converge runs whose named or
# assumed grid lies in --r-range, recorded before a missing row became an empty
# row and before converge swept each denominator once; on one and two threads
SPARSE = str(DATA_DIR / "sparse_quadratic_n5.json")
SWEPT_ONCE_ARGV = {
    "grid-min-sparse": ("grid-min", "--poly", SPARSE, "--r", "20"),
    "grid-max-sparse": ("grid-max", "--poly", SPARSE, "--r", "20"),
    "converge-sparse": ("converge", "--poly", SPARSE, "--r-range", "2:12"),
    "converge-grid-in-range": ("converge", "--poly", SOS4, "--r-range", "2:12", "--grid", "6",
                               "--elevation", "2"),
    "converge-assumed-in-range": ("converge", "--poly", SOS4, "--r-range", "2:12",
                                  "--assume-min-denominator", "4", "--assume-max-denominator", "1"),
}
SWEPT_ONCE_DIGESTS = {
    ("converge-assumed-in-range", "csv"): "00f9a22e8ebdc5bfa1abef4d9cb3b2a6a0411399c575099e0e87019318a0da52",
    ("converge-assumed-in-range", "json"): "53b80ff59a2df7ffe85ffcc97522ad030bba794b934d9e6c59b67331e4d0d6f4",
    ("converge-grid-in-range", "csv"): "b6b20fdc1818e211e0dd2c30953ad600aca6e62375e95b42f8129ddb406e8659",
    ("converge-grid-in-range", "json"): "2ec29482b526ebce2bc34a41e6c86e180fe15bdf15d65cfd9a86279fdacdac69",
    ("converge-sparse", "csv"): "613fe79f26687ac7f3ad0b59132155730551ca5201f9340f0a8c33bffc4dd016",
    ("converge-sparse", "json"): "70037955d7fe4a3e1dc9095305b5589e0e2b237d0f57545b8aa71bb5b6e6fe5a",
    ("grid-max-sparse", "csv"): "9369eb104c5d5ab6ab014fdb3c16e2a00b0fa363f4c928ce8dbc35c81053068a",
    ("grid-max-sparse", "json"): "484b99e59b1f915b74918714bb9925785c9bb282318c60f8d13191b4721d4226",
    ("grid-min-sparse", "csv"): "965bcfa39783daf7f32a2bdc9efe9078f32c23b58b079d0f1dc679e628b5bfbb",
    ("grid-min-sparse", "json"): "d2d3b53a64b5fe248cb5945c1acd42583a926dbb48d5dd59394651d4902e986b",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case, fmt", sorted(SWEPT_ONCE_DIGESTS), ids="-".join)
def test_missing_row_and_repeated_grid_bytes_are_pinned(capsys, case, fmt, threads):
    code, out, err = run(capsys, *SWEPT_ONCE_ARGV[case], "--format", fmt, "--threads", threads)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SWEPT_ONCE_DIGESTS[case, fmt]


@pytest.mark.parametrize("argv", [("verify",), PINNED_ARGV["converge-grid"], PINNED_ARGV["bounds"]],
                         ids=["verify", "converge", "bounds"])
def test_tables_never_enter_the_pure_python_encoder(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("json.dumps ran its pure-Python encoder")

    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode", fail)
        code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


JSON_TEXT = st.text(st.characters(max_codepoint=0x1F600)) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f", "\u2028", "\U0001F600", "%s", "%%", "{}", '": "']
)
JSON_SCALARS = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | JSON_TEXT


@st.composite
def flat_tables(draw):
    """Keys and rows of scalars, one value per key: all strings, or any scalars."""
    keys = draw(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True))
    values = draw(st.sampled_from([JSON_TEXT, JSON_SCALARS]))
    rows = draw(st.lists(st.tuples(*[values] * len(keys)), max_size=4))
    return keys, rows


def _written_table(keys, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_table(keys, iter(rows))
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(flat_tables())
def test_json_writer_equals_json_dumps_indent_2(table):
    keys, rows = table
    records = [dict(zip(keys, row)) for row in rows]
    assert _written_table(keys, rows) == json.dumps(records, indent=2)


def test_verify_sweeps_each_witness_grid_once(capsys, monkeypatch):
    sweeps = count_calls(monkeypatch, grid, "_sweep")
    tables = count_calls(monkeypatch, bounds, "_bernstein_extrema")
    assert run(capsys, "verify")[0] == EXIT_OK
    # 8 witness polynomials, each swept at denominators 1..5 and enclosed once
    assert len(sweeps) <= 40
    assert len(tables) <= 8


def test_stable_set_petersen(capsys):
    code, out, _ = run(capsys, "stable-set", "--graph", PETERSEN, "--r", "4")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["grid_value"] == "1/4"
    assert obj["alpha_lb"] == 4
    assert obj["evaluations"] == 715


def test_enclose_outputs_nested_intervals(capsys):
    code, out, _ = run(capsys, "enclose", "--poly", SOS4, "--r", "4", "--elevation", "2")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["fmin"] == {
        "lo": "0", "hi": "1/4", "lo_decimal": "0", "hi_decimal": "0.25"
    }
    assert obj["fmax"]["lo"] == "1" and obj["fmax"]["hi"] == "1"


def test_enclose_size_guard_and_threads(capsys, monkeypatch):
    argv = ("enclose", "--poly", SOS4, "--r", "6", "--elevation", "1")
    outputs = [run(capsys, *argv, "--threads", threads)[1] for threads in ("1", "8")]
    assert outputs[0] == outputs[1]
    monkeypatch.setenv("SGO_MAX_GRID", "10")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SIZE_GUARD
    assert out == "" and "error" in err


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "954470b0b37dd961630960bb1d404ae44135a14db4869677a01b192c44f633f1"),
        ("csv", "7fcbe6427c7c7d61e0229acaedba058f6c7e51f27d3a1bba9831e4e2a696d410"),
    ],
    ids=["json", "csv"],
)
def test_expect_bernstein_ignores_the_size_guard(capsys, monkeypatch, fmt, digest):
    # the closed form sums no grid: a 5-point budget does not stop r = 16 (17 points),
    # and the bytes are those `expect ... --force` printed while a guard applied
    monkeypatch.setenv("SGO_MAX_GRID", "5")
    argv = ("expect", "--poly", GAP, "--r", "16", "--bernstein", "--x", "1/2,1/2", "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--d", "2", "--r-range", "2"),
        ("verify", "--max-n", "1", "--max-d", "1", "--max-m", "2", "--witness-polys", "1"),
    ],
    ids=["bounds", "verify"],
)
def test_verbs_that_sweep_no_grid_ignore_the_size_guard(capsys, monkeypatch, argv):
    monkeypatch.setenv("SGO_MAX_GRID", "not-a-number")
    assert run(capsys, *argv)[0] == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--d", "2", "--r-range", "2", "--threads", "1"),
        ("bounds", "--d", "2", "--r-range", "2", "--force"),
        ("verify", "--threads", "1"),
        ("verify", "--force"),
        ("expect", "--poly", GAP, "--r", "2", "--m", "16", "--counts", "7,9", "--threads", "1"),
        ("expect", "--poly", GAP, "--r", "16", "--bernstein", "--x", "1/2,1/2", "--force"),
        ("stable-set", "--graph", PETERSEN, "--r", "2", "--threads", "1"),
    ],
    ids=["bounds-threads", "bounds-force", "verify-threads", "verify-force", "expect-threads",
         "expect-force", "stable-set-threads"],
)
def test_flags_a_verb_would_ignore_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


PUBLIC_NAMES = [
    "ALL_KINDS", "BoundKind", "BoundReport", "BoundWitness",
    "DegenerateRangeError", "Enclosure", "Graph", "GridMinResult",
    "GridTooLargeError", "HomogeneousPolynomial", "HypergeomParams", "IdentityCheck",
    "RangeAssumptions", "StableSetBound", "a_beta",
    "alpha_lower_bound", "as_rational", "bernstein_approximation", "binomial",
    "bound_coefficient", "check_bounds", "composition_count", "compositions",
    "decimal_str", "evaluate",
    "exact_alpha", "expectation", "falling", "fraction_str",
    "from_json_dict", "grid_extrema", "grid_maximize", "grid_minimize", "homogenize",
    "is_square_free", "load_graph", "load_polynomial", "moment",
    "multinomial", "parse_graph_text",
    "random_polynomial", "range_enclosures", "rho_interval",
    "run_default_sweeps", "stirling2",
]
VERB_OPTIONS = [
    "bounds --d", "bounds --format", "bounds --m-range", "bounds --r-range",
    "converge --assume-max-denominator", "converge --assume-min-denominator",
    "converge --elevation", "converge --force", "converge --format", "converge --grid",
    "converge --homogenize", "converge --poly", "converge --r-range", "converge --threads",
    "enclose --elevation", "enclose --force", "enclose --format", "enclose --homogenize",
    "enclose --poly", "enclose --r", "enclose --threads",
    "expect --bernstein", "expect --counts", "expect --format", "expect --homogenize",
    "expect --m", "expect --poly", "expect --r", "expect --x",
    "grid-max --force", "grid-max --format", "grid-max --homogenize", "grid-max --poly",
    "grid-max --r", "grid-max --threads",
    "grid-min --force", "grid-min --format", "grid-min --homogenize", "grid-min --poly",
    "grid-min --r", "grid-min --threads",
    "stable-set --force", "stable-set --format", "stable-set --graph", "stable-set --r",
    "verify --format", "verify --inject-fault", "verify --max-d", "verify --max-k",
    "verify --max-m", "verify --max-n", "verify --max-r", "verify --samples", "verify --seed",
    "verify --witness-polys",
]


def test_public_names_and_verb_options_are_pinned():
    # adding or dropping an exported name or a flag shows up here as a diff
    package = sys.modules["simplex_grid_opt"]
    names = sorted(name for name, value in vars(package).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert _verb_options(cli.build_parser()) == VERB_OPTIONS
    # each verb's subparser in the kept parser holds that verb's options
    # alone, under the prog of a fresh parser's subparser
    one_verb = []
    kept = _subparsers(cli._kept_parser()).choices
    for verb, sub in _subparsers(cli.build_parser()).choices.items():
        parser = kept[verb]
        assert parser.prog == sub.prog == f"sgo {verb}"
        one_verb += [f"{verb} {option}" for action in parser._actions
                     if not isinstance(action, argparse._HelpAction)
                     for option in action.option_strings]
    assert sorted(one_verb) == VERB_OPTIONS


def _verb_options(parser: argparse.ArgumentParser) -> "list[str]":
    return sorted(f"{verb} {option}" for verb, sub in _subparsers(parser).choices.items()
                  for action in sub._actions if not isinstance(action, argparse._HelpAction)
                  for option in action.option_strings)


# one small run of each verb, in the order of cli._VERBS
ENTRY_POINT_ARGV = [
    ("grid-min", "--poly", GAP, "--r", "4"),
    ("grid-max", "--poly", SOS4, "--r", "3", "--format", "csv"),
    ("expect", "--poly", GAP, "--r", "3", "--m", "16", "--counts", "7,9", "--bernstein"),
    ("bounds", "--d", "3", "--r-range", "2:3", "--format", "csv"),
    ("converge", "--poly", GAP, "--r-range", "2:4"),
    ("verify", "--max-n", "2", "--max-d", "2", "--max-m", "3", "--witness-polys", "1"),
    ("stable-set", "--graph", PETERSEN, "--r", "2"),
    ("enclose", "--poly", SOS4, "--r", "3", "--format", "csv"),
]


@pytest.mark.parametrize("argv", ENTRY_POINT_ARGV, ids=[argv[0] for argv in ENTRY_POINT_ARGV])
def test_the_kept_parser_reads_what_a_fresh_parser_reads(argv):
    # the parser main keeps (cli._kept_parser), after the parses before this
    # one and with _attach_values, gives the attributes and values of a fresh
    # parser, `verb` and `func` included, and gives them again
    fresh = vars(cli.build_parser().parse_args(list(argv)))
    assert vars(cli._parse(list(argv))) == vars(cli._parse(list(argv))) == fresh


@pytest.mark.parametrize("argv", ENTRY_POINT_ARGV, ids=[argv[0] for argv in ENTRY_POINT_ARGV])
def test_module_entry_point_prints_what_main_prints(capsys, argv):
    # `python -m simplex_grid_opt.cli` passes no argv to main, which reads sys.argv
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "simplex_grid_opt.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == EXIT_OK


@pytest.mark.parametrize("argv", [("verify",), ("converge", "--poly", SOS4, "--r-range", "1:200")],
                         ids=["verify", "converge"])
def test_a_reader_that_closes_stdout_early_ends_the_run_with_exit_0(argv):
    # sgo verify | head -1: both outputs pass the pipe's buffer, so a write
    # meets the closed pipe; the run ends with nothing on stderr and exit 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "simplex_grid_opt.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first and (proc.wait(timeout=120), err) == (EXIT_OK, b"")


# Each verb's arguments that parse, the required option to leave out (verify
# has none, so an option loses its value instead) and an int option to misspell.
_VERB_ARGS = {
    "grid-min": (["--poly", "f.json", "--r", "2"], "--r", "--threads"),
    "grid-max": (["--poly", "f.json", "--r", "2"], "--poly", "--threads"),
    "expect": (["--poly", "f.json", "--r", "2"], "--r", "--m"),
    "bounds": (["--d", "2", "--r-range", "2"], "--d", "--d"),
    "converge": (["--poly", "f.json", "--r-range", "2"], "--r-range", "--elevation"),
    "verify": ([], None, "--max-n"),
    "stable-set": (["--graph", "g.edges", "--r", "2"], "--graph", "--r"),
    "enclose": (["--poly", "f.json", "--r", "2"], "--poly", "--elevation"),
}


def _parser_cases() -> "dict[str, list[str]]":
    cases = {"no-verb": [], "help": ["-h"], "unknown-verb": ["nosuch"],
             "leading-option": ["--format", "csv", "grid-min", "--poly", "f.json", "--r", "2"]}
    for verb, (args, required, int_option) in _VERB_ARGS.items():
        cases[f"{verb}-help"] = [verb, "-h"]
        cases[f"{verb}-bogus"] = [verb, *args, "--bogus"]
        if required is None:
            cases[f"{verb}-missing"] = [verb, "--seed"]
        else:
            at = args.index(required)
            cases[f"{verb}-missing"] = [verb, *args[:at], *args[at + 2:]]
        cases[f"{verb}-bad-int"] = [verb, *args, int_option, "x"]
    return cases


PARSER_CASES = _parser_cases()


def _parse_exit(capsys, parse, argv) -> str:
    """SHA-256 of the exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    text = json.dumps([exc.value.code, captured.out, captured.err])
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of json.dumps([exit code, stdout, stderr]) of each case, at 80
# columns, recorded under Python 3.11
PARSER_DIGESTS = {
    "bounds-bad-int": "fdbdd266bf61cfe342d69fb4be567e688b9a9825ae1f82c2e7ba0a5d8ca9d30c",
    "bounds-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "bounds-help": "14fa5796dc06469c1fb31a1d542f9bb852e0ffc82ecbe0dd0c2d69d3fb6b07dd",
    "bounds-missing": "a21745c6fffad814bd83d7b685bc3e237ee03d7a5d98d7e3d0590c723d2ce692",
    "converge-bad-int": "4b763ee50d9d7edcbb34f291bc69d6ed4da44f023c4ce6dc7aff6ca36af3b951",
    "converge-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "converge-help": "0f470c758e82766be221ee47e3c22ae3e757d615c34de33647c978b132be1550",
    "converge-missing": "e8dcce08ccd725db0755cc212e4dbf52cff6520895f691b4163eec41bf652301",
    "enclose-bad-int": "64025dea9d9705f7856d6cfcfdde7190512e10bd983e73221fd6df4dc9c9b4cd",
    "enclose-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "enclose-help": "7b4c437cb58891a749814edb2a41993aa2ad9f64f6518c951cc3b6fad8e6a7f3",
    "enclose-missing": "100ebea0124145507b4cd3c62a34a2f36570e4bb86d1e2478d5936fdd70cdb0e",
    "expect-bad-int": "aeb6d835607cb97cd685f25d965e90f0cd2fc960389959e3fae05143e5627d2c",
    "expect-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "expect-help": "077c81abee2a3cceb75d8afa584a49c00436be2428bad33291cf7d25790afdb8",
    "expect-missing": "932e9fb92f1c49758906091a107db26a65199ee21918e15ef9c1474fd45b6115",
    "grid-max-bad-int": "4bd10b3c776263d9daee21d19a8f53a92a74e9964e6b0df3c01b2a1ae9535e7d",
    "grid-max-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "grid-max-help": "75bd069caac4b0ffb9e107eef7ac885e5117ec16a082592c2adab549a071df34",
    "grid-max-missing": "a431b3bc065b36b5ff798681e3dfd48e2d0796f50a2123731ae8594878e244a3",
    "grid-min-bad-int": "93a686ad8026f028e541a547963575f7bec855ee42155c59f499f5262b8517d5",
    "grid-min-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "grid-min-help": "68e9568147e657053cff0197c9d6c6a5fb25af64a9b54de8d9002a84e4496f76",
    "grid-min-missing": "d4f589ef8e00bba0e62f48417b3b253f0e04848b95dd5c897a3ea4f9e4649fe8",
    "help": "652b5d6d1c90082729f463fa3a4f3c6b378df3391856e80ed2e0c2ab7e3e5e84",
    "leading-option": "daeadce155c863f8adf8356aaddc8b772493e2eea14ad13104fe0be91c4000e6",
    "no-verb": "79e8f42599f716df215b81259a316699730c79a756ef5593491763dd61752bbf",
    "stable-set-bad-int": "fa2a9eada478da790b2ad5b25581bbe6be104f0af9537c832269258c14b88e14",
    "stable-set-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "stable-set-help": "c2a09762689eda7a3e576e3cc37ed53028691731dda558ce2e73f43c10a915af",
    "stable-set-missing": "211be616579e802e6679944d8b01c559390e593437f1d552f45a953dc32014ea",
    "unknown-verb": "d0b6a1ba8d6839396051683af4fceb075f698c46806502114dbfb2af9a49dee1",
    "verify-bad-int": "8414c18527b778195e8d654539cbc24bdcdfdb8d9c1228f9ee81b3eade2769b1",
    "verify-bogus": "2263a151d455ce0fc3cb8033f0ff14bc9289d4b72ec22e9a5a0d18fc91b74aa8",
    "verify-help": "e932c5bb5def1098003728ac20081c3244f5b80d7a9df2f94440d5b0b03dc3f3",
    "verify-missing": "498223252329a14735d9798a5e9431d1fca4533b1337bb1bed9a5d07cb918493",
}


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_usage_and_parse_error_bytes_are_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv = PARSER_CASES[case]
    digest = _parse_exit(capsys, main, argv)
    assert digest == _parse_exit(capsys, cli.build_parser().parse_args, argv)
    if sys.version_info[:2] == (3, 11):  # argparse's layout differs between versions
        assert digest == PARSER_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_a_kept_verb_parser_prints_the_same_bytes_again(capsys, monkeypatch, case):
    # the parser is built once and kept (cli._kept_parser): a second run of a
    # case, and a run after a parse that succeeded with the kept parser,
    # print the bytes of the first run
    monkeypatch.setenv("COLUMNS", "80")
    argv = PARSER_CASES[case]
    cli._kept_parser.cache_clear()
    first = _parse_exit(capsys, main, argv)
    assert _parse_exit(capsys, main, argv) == first
    if argv and argv[0] in _VERB_ARGS:
        args = cli._parse([argv[0], *_VERB_ARGS[argv[0]][0]])
        assert args.verb == argv[0]
        assert _parse_exit(capsys, main, argv) == first
    if sys.version_info[:2] == (3, 11):  # argparse's layout differs between versions
        assert first == PARSER_DIGESTS[case]


# runs the calls of argv[1] (a JSON list) through main in one process, and
# prints the exit codes and the prog of every ArgumentParser constructed
_COUNT_PARSERS = """
import argparse, io, json, sys
built, init = [], argparse.ArgumentParser.__init__
def recorded(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = recorded
from simplex_grid_opt.cli import main
calls, out, codes = json.loads(sys.argv[1]), sys.stdout, []
sys.stdout = sys.stderr = io.StringIO()
for argv in calls:
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
out.write(json.dumps([codes, built]))
"""


@pytest.mark.parametrize("first", [*ENTRY_POINT_ARGV, ENTRY_POINT_ARGV[3] + ("--bogus",)],
                         ids=[*cli._VERBS, "bogus"])
def test_a_process_builds_the_parser_once_for_every_call(first):
    # whichever call comes first, a run of any verb or a leftover-argument
    # error, it builds sgo and its 8 subparsers, and no later run, help,
    # usage or error of the process constructs a parser
    calls = [list(first), *map(list, ENTRY_POINT_ARGV), *PARSER_CASES.values()]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _COUNT_PARSERS, json.dumps(calls)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, built = json.loads(proc.stdout)
    assert codes == [EXIT_CONFIG if "--bogus" in first else EXIT_OK] + [
        EXIT_OK] * len(ENTRY_POINT_ARGV) + [
        EXIT_OK if "-h" in argv else EXIT_CONFIG for argv in PARSER_CASES.values()]
    assert built == ["sgo", *(f"sgo {verb}" for verb in cli._VERBS)]


def test_a_sweep_past_the_row_table_bound_exits_2_before_any_table(capsys, monkeypatch, tmp_path):
    # grid-min refuses the dense degree-100 form at r = 150, and converge
    # refuses it as its one plan admits the largest r, before the enclosures'
    # Bernstein table or any row table
    def fail(*args, **kwargs):
        raise AssertionError("tables built past the row-table bound")

    poly = tmp_path / "dense.json"
    poly.write_text(json.dumps(to_json_dict(random_polynomial(random.Random(0), 3, 100))))
    monkeypatch.setattr(bounds, "_bernstein_extrema", fail)
    monkeypatch.setattr(grid._Lazy, "__missing__", fail)
    grid._shape.cache_clear()
    error = ("error: 4887 row suffixes of degree up to 100 are too many for a sweep at r = 150: "
             "its row tables would exceed 4000000000 bits\n")
    for argv in (("grid-min", "--r", "150"), ("converge", "--r-range", "2:150"),
                 ("converge", "--r-range", "2:3", "--grid", "150")):
        assert run(capsys, argv[0], "--poly", str(poly), *argv[1:]) == (EXIT_CONFIG, "", error)


def test_size_guard_env_and_force(capsys, monkeypatch):
    monkeypatch.setenv("SGO_MAX_GRID", "10")
    code, _, err = run(capsys, "grid-min", "--poly", SOS4, "--r", "8")
    assert code == EXIT_SIZE_GUARD
    assert "error" in err
    code, out, _ = run(capsys, "grid-min", "--poly", SOS4, "--r", "8", "--force")
    assert code == EXIT_OK
    monkeypatch.setenv("SGO_MAX_GRID", "not-a-number")
    code, _, _ = run(capsys, "grid-min", "--poly", SOS4, "--r", "2")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("force", [(), ("--force",)], ids=["guarded", "forced"])
def test_size_guard_env_refuses_a_negative_budget(capsys, monkeypatch, force):
    # a negative budget is a configuration error, as a non-integer one is; 0 is a budget
    argv = ("grid-min", "--poly", SOS4, "--r", "3", *force)
    monkeypatch.setenv("SGO_MAX_GRID", "-5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "SGO_MAX_GRID must not be negative, got '-5'" in err
    monkeypatch.setenv("SGO_MAX_GRID", "0")
    code, out, err = run(capsys, *argv)
    if force:
        assert (code, err) == (EXIT_OK, "")
    else:
        assert (code, out) == (EXIT_SIZE_GUARD, "")
        assert "grid has 20 points, budget is 0" in err


def test_parse_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "grid-min", "--poly", str(bad), "--r", "2")
    assert code == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    code, _, _ = run(capsys, "grid-min", "--poly", str(missing), "--r", "2")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "terms": [{"alpha": [1.5, 0.5], "coef": "1"}]}',
        '{"n": 2, "terms": [{"alpha": [true, 1], "coef": "1"}]}',
        '{"n": 2.7, "terms": [{"alpha": [1, 1], "coef": "1"}]}',
        '{"n": 2, "terms": [{"alpha": [1, 1], "coef": "1e999999999"}]}',
        '{"n": 2, "terms": [{"alpha": [1, 1], "coef": 1e999999999}]}',
        '{"n": 1, "terms": [{"alpha": [1%s], "coef": 1}]}' % ("0" * 5000),
        '{"n": 1%s, "terms": []}' % ("0" * 5000),
    ],
    ids=["float-alpha", "bool-alpha", "float-n", "huge-exponent-string", "huge-exponent-number",
         "5001-digit-alpha", "5001-digit-n"],
)
def test_malformed_polynomial_files_exit_2(capsys, tmp_path, text):
    poly = tmp_path / "poly.json"
    poly.write_text(text)
    code, out, err = run(capsys, "grid-min", "--poly", str(poly), "--r", "4")
    assert code == EXIT_CONFIG
    assert out == "" and "error" in err


def test_coefficients_past_the_int_string_limit_are_read(capsys, tmp_path):
    # 10^5000 (x1^2 + x2^2): at r = 2 the minimum 10^5000 / 2 sits at (1, 1)
    big = "1" + "0" * 5000
    poly = tmp_path / "big.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"alpha": [2, 0], "coef": big},
                                                  {"alpha": [0, 2], "coef": big}]}))
    code, out, err = run(capsys, "grid-min", "--poly", str(poly), "--r", "2")
    assert (code, err) == (EXIT_OK, "")
    obj = json.loads(out)
    assert obj["value"] == "5" + "0" * 4999 and obj["minimizers"] == ["1/2,1/2"]
    # the same 5001-digit coefficients as bare JSON integers
    poly.write_text('{"n": 2, "terms": [{"alpha": [2, 0], "coef": %s}, '
                    '{"alpha": [0, 2], "coef": %s}]}' % (big, big))
    assert run(capsys, "grid-min", "--poly", str(poly), "--r", "2") == (EXIT_OK, out, "")
    poly.write_text(json.dumps({"n": 1, "terms": [{"alpha": [1], "coef": "9" * 5000 + "x"}]}))
    code, out, err = run(capsys, "grid-min", "--poly", str(poly), "--r", "2")
    assert code == EXIT_CONFIG and out == ""
    assert "cannot parse" in err and len(err) < 200


def test_stable_set_bounds_the_vertex_form(capsys, monkeypatch, tmp_path):
    # no vertex form is built, so only the grid size guard refuses
    huge = tmp_path / "huge.edges"
    huge.write_text("p edge 100000000 0\n")
    code, out, err = run(capsys, "stable-set", "--graph", str(huge), "--r", "1")
    assert (code, err) == (EXIT_OK, "")
    assert (json.loads(out)["alpha_lb"], json.loads(out)["evaluations"]) == (1, 10**8)
    huge.write_text("p edge " + "9" * 4300 + " 0\n")
    code, out, err = run(capsys, "stable-set", "--graph", str(huge), "--r", "1")
    assert code == EXIT_SIZE_GUARD
    assert out == "" and "grid has" in err and len(err) < 100
    monkeypatch.setenv("SGO_MAX_GRID", "100")  # Petersen: 10 grid points at r = 1, 220 at r = 3
    assert run(capsys, "stable-set", "--graph", PETERSEN, "--r", "1")[0] == EXIT_OK
    assert run(capsys, "stable-set", "--graph", PETERSEN, "--r", "3")[0] == EXIT_SIZE_GUARD
    assert run(capsys, "stable-set", "--graph", PETERSEN, "--r", "3", "--force")[0] == EXIT_OK


def test_stable_set_force_counts_isolated_vertices_in_closed_form(capsys, tmp_path):
    # the guard is off, so n may be far past any mask: the vertices on no edge
    # are counted, not walked
    huge = tmp_path / "huge.edges"
    n = 10**20
    for text, r, alpha_lb in (("p edge %d 0\n" % n, "1", 1), ("p edge %d 0\n" % n, "3", 3),
                              ("p edge %d 1\n1 %d\n" % (n, n), "3", 3)):
        huge.write_text(text)
        code, out, err = run(capsys, "stable-set", "--graph", str(huge), "--r", r, "--force")
        assert (code, err) == (EXIT_OK, "")
        obj = json.loads(out)
        assert (obj["n"], obj["alpha_lb"]) == (n, alpha_lb)
        assert obj["evaluations"] == math.comb(n + int(r) - 1, int(r))


def test_cli_import_leaves_out_the_thread_pool():
    # concurrent.futures is imported only by a sweep that starts workers, csv
    # only by --format csv
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; import simplex_grid_opt.cli; "
            "print('concurrent.futures' in sys.modules, 'csv' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\n", "")


def test_deeply_nested_polynomial_json_exits_2(capsys, tmp_path):
    # the JSON scanner recurses once per level; graph files are read as text
    deep = "[" * 10**5 + "]" * 10**5 + "\n"
    poly, graph = tmp_path / "deep.json", tmp_path / "deep.edges"
    poly.write_text(deep)
    graph.write_text(deep)
    assert run(capsys, "grid-min", "--poly", str(poly), "--r", "2") == (
        EXIT_CONFIG, "", "error: polynomial JSON nests too deeply\n")
    poly.write_text('{"n": 2, "terms": [{"alpha": %s, "coef": 1}]}' % deep.strip())
    assert run(capsys, "expect", "--poly", str(poly), "--r", "2", "--bernstein",
               "--x", "1/2,1/2") == (EXIT_CONFIG, "", "error: polynomial JSON nests too deeply\n")
    code, out, err = run(capsys, "stable-set", "--graph", str(graph), "--r", "2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: line 1: expected 'u v', got '[[[[") and len(err) < 100


@pytest.mark.parametrize("text, start", [
    ('{"n": 1, "terms": [{"alpha": [[%s]], "coef": 1}]}' % ", ".join(["0"] * 10**5),
     "error: exponent must be a JSON integer (no point, exponent or quotes), got '[0, 0, "),
    ('{"n": 2, "terms": [{"alpha": [1, 1], "note": "%s"}]}' % ("y" * 10**5),
     "error: bad term \"{'alpha': [1, 1], 'note': 'yyy"),
    ('{"n": 0.%s1, "terms": []}' % ("0" * 5000),
     "error: 'n' must be a JSON integer (no point, exponent or quotes), got a Fraction with"),
    ('{"n": 2, "terms": [{"alpha": 0.%s1, "coef": 1}]}' % ("0" * 5000),
     "error: bad term a dict with a number too long to print: 'alpha' must be a list"),
], ids=["long-exponent", "long-term", "long-number-n", "long-number-term"])
def test_a_long_bad_value_gives_one_short_error_line(capsys, tmp_path, text, start):
    poly = tmp_path / "long.json"
    poly.write_text(text)
    code, out, err = run(capsys, "grid-min", "--poly", str(poly), "--r", "2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(start) and err.count("\n") == 1 and len(err.encode()) < 200


def _long_alpha_file(n, degree, alpha):
    return json.dumps({"n": n, "degree": degree, "terms": [{"alpha": alpha, "coef": 1}]})


@pytest.mark.parametrize("homogenize", [False, True], ids=["plain", "homogenize"])
@pytest.mark.parametrize("text, start", [
    (_long_alpha_file(2, 1, [0] * 10**5), "error: exponent '(0, 0, 0, 0, "),
    (_long_alpha_file(10**5, 1, [-1] + [0] * (10**5 - 1)), "error: negative exponent in '(-1, 0, 0, "),
    (_long_alpha_file(10**5, 1, [2] + [0] * (10**5 - 1)), "error: monomial '(2, 0, 0, "),
], ids=["length", "negative", "degree"])
def test_a_long_exponent_gives_one_short_error_line(capsys, tmp_path, text, start, homogenize):
    # the exponent tuple is quoted by its start, with and without --homogenize
    poly = tmp_path / "long_alpha.json"
    poly.write_text(text)
    flags = ["--homogenize"] if homogenize else []
    code, out, err = run(capsys, "grid-min", "--poly", str(poly), "--r", "2", *flags)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(start) and err.count("\n") == 1 and len(err.encode()) < 200, err


@pytest.mark.parametrize("verb", [("enclose", "--r", "1"), ("converge", "--r-range", "1")],
                         ids=["enclose", "converge"])
def test_an_oversized_enclosure_table_exits_2_before_any_sweep(capsys, monkeypatch, tmp_path,
                                                                verb):
    # x_1^4 in 20 variables at elevation 8: C(27, 19) = 2220075 entries, on a grid of 20 points
    poly = tmp_path / "x1.json"
    poly.write_text(json.dumps({"n": 20, "terms": [{"alpha": [4] + [0] * 19, "coef": 1}]}))
    sweeps = count_calls(monkeypatch, grid, "_sweep")
    started = time.monotonic()
    code, out, err = run(capsys, *verb, "--poly", str(poly), "--elevation", "8")
    assert time.monotonic() - started < 1
    assert (code, out, err) == (EXIT_CONFIG, "", "error: the Bernstein table at elevation 8 "
                                "would hold 2220075 entries, more than 200000\n")
    assert sweeps == []


def test_stable_set_sweeps_no_grid_and_builds_no_form(capsys, monkeypatch, tmp_path):
    # every grid sweep, of a built form or any other, goes through grid._sweep
    def fail(*args, **kwargs):
        raise AssertionError("stable-set swept a grid")

    monkeypatch.setattr(grid, "_sweep", fail)
    for r in ("1", "4", "12"):
        code, out, err = run(capsys, "stable-set", "--graph", PETERSEN, "--r", r)
        assert code == EXIT_OK and err == ""
    # at r = 1 the search stops at the first vertex and builds no neighbour mask,
    # so 10^8 vertices with edges at vertex 10^8 cost only the parse
    huge = tmp_path / "huge.edges"
    huge.write_text("1 100000000\n99999999 100000000\n")
    code, out, err = run(capsys, "stable-set", "--graph", str(huge), "--r", "1")
    assert (code, err) == (EXIT_OK, "")
    obj = json.loads(out)
    assert (obj["n"], obj["edges"], obj["alpha_lb"], obj["evaluations"]) == (10**8, 2, 1, 10**8)


# Values a hand-written or generated polynomial file may put where an integer or
# an exact coefficient belongs.
JSON_JUNK = st.one_of(
    st.integers(-2, 5),
    st.floats(),
    st.booleans(),
    st.sampled_from(["1e999999999", "-7E-4301", "1e4_301", "2/3", "0.5", "x"]),
)


@st.composite
def polynomial_files(draw):
    """(JSON object, variable count of the polynomial it started from): a valid
    polynomial file with up to two of n, degree, an exponent or a coefficient
    replaced by junk."""
    f = draw(polynomials(max_n=3, max_d=3))
    obj = to_json_dict(f)
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(["n", "degree", "alpha", "coef"]))
        term = draw(st.sampled_from(obj["terms"]))
        if field in ("n", "degree"):
            obj[field] = draw(JSON_JUNK)
        elif field == "alpha":
            term["alpha"][draw(st.integers(0, f.n - 1))] = draw(JSON_JUNK)
        else:
            term["coef"] = draw(JSON_JUNK)
    return obj, f.n


@settings(max_examples=150, deadline=None)
@given(polynomial_files(), st.integers(1, 4), st.booleans(), st.sampled_from([None, "4"]), st.data())
def test_cli_fuzz_polynomial_files(file, r, bernstein, guard, data):
    obj, n = file
    x = data.draw(simplex_points(n))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "poly.json")
        Path(path).write_text(json.dumps(obj))
        argv = ["grid-min", "--poly", path, "--r", str(r)]
        if bernstein:
            point = ",".join(map(str, x))
            argv = ["expect", "--poly", path, "--r", str(r), "--bernstein", "--x", point]
        env = {} if guard is None else {"SGO_MAX_GRID": guard}
        with (
            mock.patch.dict(os.environ, env),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIZE_GUARD), err.getvalue()
        if code != EXIT_OK:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            return
        f = load_polynomial(path)
    printed = Fraction(json.loads(out.getvalue())["bernstein" if bernstein else "value"])
    assert printed == (naive_bernstein(f, x, r) if bernstein else naive_extremes(f, r, 1)[0][0])


@pytest.mark.parametrize(
    "text, where",
    [
        ("p edge \u00b2 0\n1 2\n", "line 1: vertex count '\u00b2'"),
        ("p edge 1" + "0" * 4999 + " 0\n", "line 1: vertex count '1000"),
        ("c x\n1 2\n1 1" + "0" * 4999 + "\n", "line 3: vertex '1000"),
        ("1 \u0663\n", "line 1: vertex '\u0663'"),
        ("1 2 " + "3" * 5000 + "\n", "line 1: expected 'u v'"),
    ],
    ids=["superscript-count", "huge-count", "huge-vertex", "arabic-indic-vertex", "long-line"],
)
def test_junk_graph_files_exit_2_naming_the_line(capsys, tmp_path, text, where):
    graph = tmp_path / "junk.edges"
    graph.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "stable-set", "--graph", str(graph), "--r", "2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"error: {where}") and len(err) < 200, err


# Tokens a hand-written or generated edge list may put where a vertex index belongs.
INDEX_JUNK = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["\u00b2", "\u0663", "\uff13", "1" + "0" * 30, "1" + "0" * 5000, "x", "1.5", "+3", "007"]),
)


@st.composite
def graph_texts(draw):
    """Edge-list text: edge lines (with and without "e", self-loops among them),
    "p" and "c" lines, blank lines, and lines with a token missing or extra.
    Each file draws its tokens either from 1..6 or from INDEX_JUNK, and its
    lines either from the well-formed kinds or from all, so that about a
    quarter of the files are valid graphs."""
    index = draw(st.sampled_from([st.integers(1, 6).map(str), INDEX_JUNK]))
    well_formed = ["{u} {v}", "e {u} {v}", "p edge {u} {v}", "c {u} {v}", ""]
    kinds = draw(st.sampled_from([well_formed, well_formed + ["{u} {u}", "{u}", "{u} {v} {u}", "e {u}"]]))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        u, v = draw(index), draw(index)
        lines.append(draw(st.sampled_from(kinds)).format(u=u, v=v))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(graph_texts(), st.integers(1, 3), st.sampled_from([None, "30"]))
def test_cli_fuzz_graph_files(text, r, guard):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        path.write_text(text, encoding="utf-8")
        env = {} if guard is None else {"SGO_MAX_GRID": guard}
        with (
            mock.patch.dict(os.environ, env),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = main(["stable-set", "--graph", str(path), "--r", str(r)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIZE_GUARD), err.getvalue()
    if code != EXIT_OK:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    graph = parse_graph_text(text)
    obj = json.loads(out.getvalue())
    assert (obj["n"], obj["edges"]) == (graph.n, len(graph.edges))
    if graph.n <= 6:
        assert Fraction(obj["grid_value"]) == naive_extremes(motzkin_straus_form(graph), r, 1)[0][0]


# A 31-digit exponent: its sweep's power table is far past grid._MAX_POWER_TABLE_BITS.
HUGE_DEGREE = 10**30


@pytest.fixture(scope="module")
def huge_degree_files(tmp_path_factory):
    """Polynomial files of x_1^HUGE_DEGREE with n = 1 and n = 2, the exponent as a bare integer."""
    paths = []
    for n in (1, 2):
        path = tmp_path_factory.mktemp("degree") / f"x1_n{n}.json"
        alpha = ", ".join([str(HUGE_DEGREE)] + ["0"] * (n - 1))
        path.write_text('{"n": %d, "terms": [{"alpha": [%s], "coef": 1}]}' % (n, alpha))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "argv",
    [
        ("grid-min", "--r", "2"),
        ("grid-max", "--r", "2"),
        ("grid-min", "--r", "1", "--force"),
        ("enclose", "--r", "2", "--elevation", "2"),
        ("converge", "--r-range", "2:4"),
    ],
    ids=["grid-min", "grid-max", "grid-min-forced", "enclose", "converge"],
)
def test_degrees_past_the_power_table_bound_exit_2(capsys, huge_degree_files, n, argv):
    code, out, err = run(capsys, *argv, "--poly", huge_degree_files[n - 1])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"error: degree {decimal_str(HUGE_DEGREE)} is too high for a sweep at r = ")


@pytest.mark.parametrize("digits", [2200, 4300])
def test_the_degree_message_renders_r_of_any_size(capsys, digits):
    # --force lifts the grid size guard, so the power table bound refuses the sweep
    code, out, err = run(capsys, "grid-min", "--poly", SOS4, "--r", "9" * digits, "--force")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (f"error: degree 2 is too high for a sweep at r = {decimal_str(10**digits)}: "
                   f"its power table would exceed {grid._MAX_POWER_TABLE_BITS} bits\n")
    assert len(err) < 130


# Flags and values for test_cli_fuzz_flags.  FLAG marks a switch; a 30-digit
# integer goes only to flags whose check is closed form (the grid size under
# SGO_MAX_GRID, the verify check count), and --force is never passed.
FLAG = None
SMALL = st.integers(-1, 8).map(str)
WIDE = st.one_of(SMALL, st.integers(10**29, 10**30 - 1).map(str))
WIDE_RANGE = st.one_of(WIDE, st.tuples(WIDE, WIDE).map(":".join))
POLY = {"--poly": FLAG, "--homogenize": FLAG}  # --poly's files depend on the verb
COMMON = {"--format": st.sampled_from(["json", "csv"])}
THREADS = {"--threads": st.integers(0, 8).map(str)}
FUZZ_FLAGS = {
    "grid-min": {**COMMON, **THREADS, **POLY, "--r": WIDE},
    "grid-max": {**COMMON, **THREADS, **POLY, "--r": WIDE},
    "expect": {
        **COMMON, **POLY, "--r": WIDE,
        # urns that fit the files' n = 2 and n = 4, besides random ones
        "--m": st.one_of(st.sampled_from(["16", "6"]), SMALL),
        "--counts": st.one_of(
            st.sampled_from(["7,9", "1,2,3,0"]),
            st.lists(st.integers(0, 9).map(str), min_size=1, max_size=4).map(",".join),
        ),
        "--bernstein": FLAG,
        "--x": st.integers(1, 4).flatmap(simplex_points).map(lambda x: ",".join(map(str, x))),
    },
    "bounds": {
        **COMMON, "--d": st.integers(-1, 6).map(str), "--r-range": WIDE_RANGE,
        "--m-range": st.one_of(SMALL, st.tuples(SMALL, SMALL).map(":".join)),
    },
    "converge": {
        **COMMON, **THREADS, **POLY, "--r-range": WIDE_RANGE, "--elevation": st.integers(-1, 9).map(str),
        "--grid": SMALL, "--assume-min-denominator": SMALL, "--assume-max-denominator": SMALL,
    },
    "verify": {
        **COMMON, "--seed": SMALL, "--samples": SMALL, "--witness-polys": st.integers(-1, 2).map(str),
        "--max-n": WIDE, "--max-d": WIDE, "--max-m": WIDE, "--max-k": WIDE, "--max-r": WIDE,
        "--inject-fault": FLAG,
    },
    "stable-set": {**COMMON, "--graph": st.just(PETERSEN), "--r": WIDE},
    "enclose": {**COMMON, **THREADS, **POLY, "--r": WIDE, "--elevation": st.integers(-1, 9).map(str)},
}
REQUIRED = {"--poly", "--r", "--d", "--r-range", "--graph"}


@st.composite
def cli_argvs(draw, huge_degree_files):
    """A verb and a random subset of its flags; a required flag is left out
    one time in ten.  The verbs that sweep a polynomial also get the
    HUGE_DEGREE files."""
    verb = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    sweeps = verb in ("grid-min", "grid-max", "converge", "enclose")
    polys = [GAP, SOS4] + (huge_degree_files if sweeps else [])
    argv = [verb]
    for flag, values in FUZZ_FLAGS[verb].items():
        if not draw(st.integers(0, 9) if flag in REQUIRED else st.booleans()):
            continue
        if flag == "--poly":
            argv += [flag, draw(st.sampled_from(polys))]
        else:
            argv += [flag] if values is FLAG else [flag, draw(values)]
    return argv


def test_cli_fuzz_flags(huge_degree_files):
    @settings(max_examples=400, deadline=None)
    @given(cli_argvs(huge_degree_files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with (
            mock.patch.dict(os.environ, {"SGO_MAX_GRID": "10000"}),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                assert exc.code == EXIT_CONFIG, err.getvalue()
                return
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIZE_GUARD, EXIT_VERIFY_FAILED), err.getvalue()
        if code in (EXIT_CONFIG, EXIT_SIZE_GUARD):
            assert out.getvalue() == "" and err.getvalue().startswith("error: "), (argv, err.getvalue())
        else:
            assert out.getvalue()

    check()


def test_homogenize_flag(capsys, tmp_path):
    poly = tmp_path / "inhomo.json"
    poly.write_text(
        json.dumps({"n": 2, "degree": 2, "terms": [{"alpha": [1, 0], "coef": "1"}]})
    )
    code, _, _ = run(capsys, "grid-min", "--poly", str(poly), "--r", "2")
    assert code == EXIT_CONFIG
    code, out, _ = run(capsys, "grid-min", "--poly", str(poly), "--r", "2", "--homogenize")
    assert code == EXIT_OK
    # x1^2 + x1x2 = x1 on the simplex: minimum 0 at the x2 vertex
    assert json.loads(out)["value"] == "0"


def test_homogenize_flag_refuses_a_polynomial_without_variables(capsys, tmp_path):
    poly = tmp_path / "none.json"
    poly.write_text(json.dumps({"n": 0, "degree": 2, "terms": [{"alpha": [], "coef": 1}]}))
    for extra in ((), ("--homogenize",)):
        code, out, err = run(capsys, "grid-min", "--r", "2", "--poly", str(poly), *extra)
        assert (code, out, err) == (EXIT_CONFIG, "", "error: polynomial needs at least one variable\n")


def test_homogenize_flag_refuses_a_degree_below_one_as_the_plain_load_does(capsys, tmp_path):
    poly = tmp_path / "low.json"
    poly.write_text(json.dumps({"n": 2, "degree": -1, "terms": [{"alpha": [0, 0], "coef": 1}]}))
    plain, homogenized = (run(capsys, "grid-min", "--r", "2", "--poly", str(poly), *extra)
                          for extra in ((), ("--homogenize",)))
    assert plain == homogenized == (EXIT_CONFIG, "", "error: degree must be at least 1\n")


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid-min", "--r", "2"])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()
