"""Command-line front end.

Verbs: grid-min, grid-max, expect, bounds, converge, verify, stable-set,
enclose.  Each verb's run is decided in the library; this module only parses
its options and prints what the run gives.  Exact values are printed as
reduced fractions; decimal renderings are advisory (20 significant digits,
round-half-even).  Every verb prints one JSON document, or CSV that starts
with the version comment line "# simplex-grid-opt v1".

The verbs that sweep a grid (grid-min, grid-max, converge, enclose) take
--threads and --force; stable-set takes --force, as the grid size guard bounds
its stable-set search.  The guard is 10^8 points, or SGO_MAX_GRID when set;
converge compares the total of all the grids it sweeps before the first one
(bounds._converge_rows, which also makes its rows: cmd_converge only parses
its options and prints them).
expect sums no grid (its --bernstein value is closed form), so no guard
applies to it.  These limits are fixed and refused before any work (exit 2):
a sweep whose power table could exceed 10^9 bits or whose row tables could
exceed 4 * 10^9 (grid._Plan, at the largest grid of the run; --force does
not lift them), an elevation outside 0..8 (bounds.RangeAssumptions), an
enclosure (converge, enclose) whose Bernstein table would hold more than
2 * 10^5 entries (bounds._enclosures), an expectation whose Stirling rows
could exceed 4 * 10^6 bits (hypergeom._expected_value), a bounds table of
more than 10^5 rows or whose coefficients could exceed 10^7 bits
(bounds.bound_table), a converge run of more than 10^5 r values, checked
after its grid guard (bounds._converge_rows), a verify run of more than
3 * 10^5 checks, or of none without --inject-fault (identities._verify_checks,
which also makes the checks: cmd_verify only parses its options, refuses a
negative one and writes the checks), and fewer than one thread (the library
refuses it too).  An option or SGO_MAX_GRID value that does not parse is
quoted to its first 40 characters (rational._head), and an integer in it may
have at most 4300 digits (rational.MAX_INT_DIGITS).

Tables (bounds, converge, verify) are lists of flat records, written one
record at a time.  bounds and converge go through the C JSON encoder
(_write_table) or the csv writer (_csv_writer).  cmd_verify has one loop over
its checks, each a plain row (identities._Row), and makes no IdentityCheck:
it renders each distinct side once (a memo of at most _MAX_KEPT_TEXTS side
texts, for one call), writes each check with one f-string (no text of a
check needs escaping) or with the csv writer, and counts the checks and the
failures.  verify writes each row as its sweep makes it, after every refusal
and the few bound witnesses, and keeps none.
verify's seven cap defaults are those of identities.run_default_sweeps, read
from it.

Exit codes: 0 success, 2 invalid configuration or parse failure, 3 grid size
guard tripped, 4 verification failure.  A reader that closes stdout early
(sgo verify | head) ends the run at once, silently, with 0.  Output is
byte-identical for any --threads value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from typing import Any

from . import bounds as bounds_mod
from . import identities as ident_mod
from .grid import DEFAULT_GRID_GUARD, GridTooLargeError, grid_maximize, grid_minimize
from .hypergeom import HypergeomParams, bernstein_approximation, expectation
from .poly import HomogeneousPolynomial, load_polynomial
from .rational import (
    MAX_INT_DIGITS, Enclosure, _head, _ratio_str, as_rational, decimal_str, fraction_str,
)
from .stableset import alpha_lower_bound, load_graph

CSV_VERSION_LINE = "# simplex-grid-opt v1"
CSV_DECIMAL_NOTE = "# decimal columns are advisory: 20 significant digits, round-half-even"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE_GUARD = 3
EXIT_VERIFY_FAILED = 4


def _grid_guard(args: argparse.Namespace) -> "int | None":
    """The grid point budget: SGO_MAX_GRID or 10^8, and None (no guard) under --force.
    SGO_MAX_GRID must be a non-negative integer, even under --force."""
    guard: "int | None" = DEFAULT_GRID_GUARD
    env = os.environ.get("SGO_MAX_GRID")
    if env is not None:
        [guard] = _ints(env, [env], "SGO_MAX_GRID must be an integer")
        if guard < 0:
            raise ValueError(f"SGO_MAX_GRID must not be negative, got {_head(env)}")
    return None if args.force else guard


# --- small parsers -------------------------------------------------------------


def _ints(text: str, tokens: "list[str]", error: str) -> "list[int]":
    """int() of each of tokens, the parts of an input text.  When one does not
    parse, ValueError "{error}, got {text}", the text cut by rational._head; a
    digit string past MAX_INT_DIGITS gets a message that names that limit."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        pass
    for tok in tokens:
        digits = tok.strip().lstrip("+-").replace("_", "")
        if digits.isdecimal() and len(digits) > MAX_INT_DIGITS:
            raise ValueError(f"integer in {_head(text)} has more than {MAX_INT_DIGITS} digits")
    raise ValueError(f"{error}, got {_head(text)}")


def _parse_range(text: str) -> range:
    """Accept "7" or "2:16" (inclusive)."""
    parts = text.split(":")
    error = "expected an integer or 'lo:hi' range"
    if len(parts) <= 2:
        lo, hi = _ints(text, [parts[0], parts[-1]], error)
        if lo <= hi:
            return range(lo, hi + 1)
    raise ValueError(f"{error}, got {_head(text)}")


def _parse_counts(text: str) -> "tuple[int, ...]":
    return tuple(_ints(text, text.split(","), "expected comma-separated integers"))


def _load_poly(args: argparse.Namespace) -> HomogeneousPolynomial:
    return load_polynomial(args.poly, homogenize_terms=args.homogenize)


def _write_table(keys: "Sequence[str]", rows: "Iterable[Sequence]") -> None:
    """Write rows of scalars as json.dumps(indent=2) writes a list of objects
    with these keys, one row at a time.  sys.stdout is looked up here, as
    callers may swap it.

    Any indent makes json.dumps run its pure-Python encoder, so the layout is
    written here: each row goes to the C encoder with no indent and the layout
    in its item separator, and its only braces are the outer pair.
    """
    encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
    write, lead = sys.stdout.write, "["
    for row in rows:
        write(lead + "\n  {\n    " + encode(dict(zip(keys, row)))[1:-1] + "\n  }")
        lead = ","
    write("[]" if lead == "[" else "\n]")


def _csv_writer(header: "Sequence[str]", *, decimal_note: bool = False) -> "Any":
    """Print the CSV version line, the decimal note if asked and the header,
    and return the csv writer on sys.stdout that writes the rows."""
    import csv  # only --format csv writes CSV

    print(CSV_VERSION_LINE)
    if decimal_note:
        print(CSV_DECIMAL_NOTE)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    return writer


def _emit(args: argparse.Namespace, obj: "dict | list", header: "list[str]",
          rows: "Sequence[Sequence]", *, decimal_note: bool = False) -> None:
    """Print obj as JSON, or header and rows as versioned CSV (--format).  A dict
    prints as json.dumps(obj, indent=2), a list of records in header's order as
    a list of objects (_write_table)."""
    if args.format == "csv":
        _csv_writer(header, decimal_note=decimal_note).writerows(rows)
    elif isinstance(obj, dict):
        print(json.dumps(obj, indent=2))
    else:
        _write_table(header, obj)
        print()


def _emit_record(args: argparse.Namespace, obj: dict, *, omit: "tuple[str, ...]" = ()) -> None:
    """One-record output: the CSV row is obj without "command" and omit, lists joined by ';'."""
    header = [k for k in obj if k != "command" and k not in omit]
    row = [";".join(map(str, obj[k])) if isinstance(obj[k], list) else obj[k] for k in header]
    _emit(args, obj, header, [row], decimal_note=True)


# --- verbs ---------------------------------------------------------------------


def cmd_grid_extremum(args: argparse.Namespace) -> int:
    guard = _grid_guard(args)
    f = _load_poly(args)
    op = grid_minimize if args.verb == "grid-min" else grid_maximize
    result = op(f, args.r, threads=args.threads, max_points=guard)
    _emit_record(
        args,
        {
            "command": args.verb,
            "n": f.n,
            "degree": f.d,
            "r": args.r,
            "value": fraction_str(result.value),
            "value_decimal": decimal_str(result.value),
            "tie_count": result.tie_count,
            "evaluations": result.evaluations,
            "minimizers": [",".join(_ratio_str(a, args.r) for a in alpha)
                           for alpha in result.minimizers],
        },
        omit=("n", "degree"),
    )
    return EXIT_OK


def cmd_expect(args: argparse.Namespace) -> int:
    f = _load_poly(args)
    urn_mode = args.m is not None or args.counts is not None
    if urn_mode and (args.m is None or args.counts is None):
        raise ValueError("--m and --counts must be given together")
    if args.x is not None and not args.bernstein:
        raise ValueError("--x is read only with --bernstein")
    if not urn_mode and not args.bernstein:
        raise ValueError("nothing to compute: give --m/--counts, or --bernstein with --x")
    row: dict = {"command": "expect", "r": args.r}
    if urn_mode:
        params = HypergeomParams(m=args.m, counts=_parse_counts(args.counts), r=args.r)
        value = expectation(f, params)
        row.update(
            m=args.m,
            counts=list(params.counts),
            expectation=fraction_str(value),
            expectation_decimal=decimal_str(value),
        )
    if args.bernstein:
        if args.x is not None:
            point = tuple(as_rational(tok) for tok in args.x.split(","))
        elif urn_mode:
            point = params.mean_point()
        else:
            raise ValueError("--bernstein needs --x when no urn is given")
        bval = bernstein_approximation(f, point, args.r)
        row.update(
            bernstein_point=",".join(map(fraction_str, point)),
            bernstein=fraction_str(bval),
            bernstein_decimal=decimal_str(bval),
        )
    _emit_record(args, row)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    r_values = _parse_range(args.r_range)
    m_values: "Sequence[int | None]" = (None,) if args.m_range is None else _parse_range(args.m_range)
    records = [
        (report.kind.value, report.d, report.r, report.m, report.k,
         None if report.coefficient is None else fraction_str(report.coefficient),
         report.applicable, report.reason)
        for report in bounds_mod.bound_table(args.d, r_values, m_values)
    ]
    # CSV writes None as an empty field and a flag as true or false
    rows = [["" if v is None else str(v).lower() if type(v) is bool else v for v in record]
            for record in records]
    header = ["kind", "d", "r", "m", "k", "coefficient", "applicable", "reason"]
    _emit(args, records, header, rows)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    guard = _grid_guard(args)
    for option in ("grid", "assume_min_denominator", "assume_max_denominator"):
        value = getattr(args, option)
        if value is not None and value < 1:
            raise ValueError(f"--{option.replace('_', '-')} must be at least 1, got {value}")
    f = _load_poly(args)
    assumptions = bounds_mod.RangeAssumptions(
        elevation=args.elevation,
        grid=args.grid,
        assume_min_denominator=args.assume_min_denominator,
        assume_max_denominator=args.assume_max_denominator,
    )
    kind_names = [kind.value for kind in bounds_mod.ALL_KINDS]
    header = ["r", "grid_min", "grid_min_decimal", "rho_lo", "rho_hi"] + kind_names
    r_values = _parse_range(args.r_range)
    rows = bounds_mod._converge_rows(f, r_values, assumptions, args.threads, guard)
    _emit(args, rows, header, rows, decimal_note=True)
    return EXIT_OK


# Side texts cmd_verify keeps: its memo, keyed by a row's side as it is
# stored (an int or an integer pair), is emptied, before a row is rendered,
# once it holds this many.  A run at the benchmark's caps writes up
# to 2.7e4 side texts of 4.6e3 distinct sides (KMR and SIGMA make 3.8e3 of
# them and repeat few; the A_beta and moment checks repeat most); --max-m 20
# has 1.2e4 distinct sides, and keeping them all took its peak RSS from 16-17
# to 18-19 MB.
_MAX_KEPT_TEXTS = 4096


def cmd_verify(args: argparse.Namespace) -> int:
    for option in ("samples", "witness_polys", "max_k", "max_r"):
        if getattr(args, option) < 0:
            raise ValueError(f"--{option.replace('_', '-')} must be nonnegative")
    # the run is counted, refused or admitted, and its few witnesses made,
    # before any byte is written; the identity checks are made one row at a
    # time, as they are written, and no IdentityCheck is made
    rows = ident_mod._verify_checks(
        args.max_n, args.max_d, args.max_m, args.max_k, args.max_r, args.samples, args.seed,
        args.witness_polys, args.inject_fault,
    )
    # one record per check, in the chosen format, as json.dumps(indent=2) or
    # the csv writer lays it out; no JSON text is escaped, as none needs it:
    # names and relations are letters and "_", the params text is "key=value"
    # pairs joined by ";" with int or int-tuple values, each side is digits
    # with "-" and "/" (rational._ratio_str), and holds is "true" or "false"
    writerow, write, side_str = None, sys.stdout.write, ident_mod._side_str
    if args.format == "csv":
        writerow = _csv_writer(["check", "name", "params", "lhs", "rhs", "relation", "holds"]).writerow
    else:
        write('{\n  "checks": ')
    lead, total, failures = "[", 0, 0
    texts: "dict[int | tuple[int, int], str]" = {}  # each distinct side, rendered once
    for column, (name, _, lhs, rhs, relation, holds, params) in rows:
        if len(texts) >= _MAX_KEPT_TEXTS:
            texts.clear()
        lhs = side_str(lhs, texts)
        # the two sides of an "eq" that holds reduce to the same text
        rhs = lhs if holds and relation == "eq" else side_str(rhs, texts)
        shown = "true" if holds else "false"
        if writerow is None:
            write(f'{lead}\n    {{\n      "check": "{column}",\n      "name": "{name}",\n'
                  f'      "params": "{params}",\n      "lhs": "{lhs}",\n'
                  f'      "rhs": "{rhs}",\n      "relation": "{relation}",\n'
                  f'      "holds": "{shown}"\n    }}')
            lead = ","
        else:
            writerow((column, name, params, lhs, rhs, relation, shown))
        total += 1
        failures += not holds
    if writerow is None:
        print(f'\n  ],\n  "total": {total},\n  "failures": {failures}\n}}')
    if failures:
        print(f"verification failed: {failures} of {total} checks", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_stable_set(args: argparse.Namespace) -> int:
    guard = _grid_guard(args)
    graph = load_graph(args.graph)
    bound = alpha_lower_bound(graph, args.r, max_points=guard)
    _emit_record(
        args,
        {
            "command": "stable-set",
            "n": graph.n,
            "edges": len(graph.edges),
            "r": args.r,
            "grid_value": fraction_str(bound.grid_value),
            "grid_value_decimal": decimal_str(bound.grid_value),
            "alpha_lb": bound.alpha_lb,
            "evaluations": bound.evaluations,
        },
    )
    return EXIT_OK


def _interval(enc: Enclosure) -> "dict[str, str]":
    return {"lo": fraction_str(enc.lo), "hi": fraction_str(enc.hi),
            "lo_decimal": decimal_str(enc.lo), "hi_decimal": decimal_str(enc.hi)}


def cmd_enclose(args: argparse.Namespace) -> int:
    guard = _grid_guard(args)
    f = _load_poly(args)
    fmin, fmax = bounds_mod.range_enclosures(
        f, bounds_mod.RangeAssumptions(elevation=args.elevation, grid=args.r),
        threads=args.threads, max_points=guard,
    )
    obj = {
        "command": "enclose",
        "r": args.r,
        "elevation": args.elevation,
        "fmin": _interval(fmin),
        "fmax": _interval(fmax),
    }
    rows = [[quantity, *obj[quantity].values()] for quantity in ("fmin", "fmax")]
    _emit(args, obj, ["quantity", *obj["fmin"]], rows, decimal_note=True)
    return EXIT_OK


# --- parser --------------------------------------------------------------------

_CAPS = ident_mod.run_default_sweeps.__kwdefaults__  # verify's seven cap defaults

# option: its add_argument keywords, the same for every verb that takes it
_OPTIONS: "dict[str, dict[str, Any]]" = {
    "--format": dict(choices=("json", "csv"), default="json"),
    "--threads": dict(type=int, default=1,
                      help="worker threads for grid sweeps, capped at the CPU count; "
                      "never changes the output, and gives no speed-up under the GIL"),
    "--force": dict(action="store_true",
                    help="bypass the grid size guard (SGO_MAX_GRID, default 1e8)"),
    "--poly": dict(required=True, help="polynomial JSON file"),
    "--homogenize": dict(action="store_true",
                         help="raise lower-degree terms to the stated degree"),
    "--r": dict(type=int, required=True, help="grid denominator"),
    "--m": dict(type=int, help="total balls in the urn"),
    "--counts": dict(help="comma-separated balls per color, summing to m"),
    "--bernstein": dict(action="store_true",
                        help="also compute the order-r with-replacement value"),
    "--x": dict(help="simplex point for --bernstein, e.g. 7/16,9/16"),
    "--d": dict(type=int, required=True, help="polynomial degree"),
    "--r-range": dict(required=True, help="grid denominator(s), e.g. 2 or 1:16"),
    "--m-range": dict(help="reference denominator(s), e.g. 4 or 2:8"),
    "--elevation": dict(type=int, default=0),
    "--grid": dict(type=int, help="extra enclosure grid denominator"),
    "--assume-min-denominator": dict(
        type=int, help="assert the simplex minimum is attained at this denominator"),
    "--assume-max-denominator": dict(
        type=int, help="assert the simplex maximum is attained at this denominator"),
    "--seed": dict(type=int, default=_CAPS["seed"]),
    "--samples": dict(type=int, default=_CAPS["samples"],
                      help="random integer points for the polynomial identities"),
    "--witness-polys": dict(type=int, default=8, help="random polynomials for bound witnesses"),
    **{f"--{cap.replace('_', '-')}": dict(type=int, default=_CAPS[cap])
       for cap in ("max_n", "max_d", "max_m", "max_k", "max_r")},
    "--inject-fault": dict(action="store_true",
                           help="append a deliberately failing check (harness self-test)"),
    "--graph": dict(required=True, help="edge list file, one 'u v' per line"),
}

# verb: (help, command, its options of _OPTIONS in usage order), in the order
# the parser lists them
_VERBS = {
    "grid-min": ("exact grid minimum", cmd_grid_extremum,
                 "--format --threads --force --poly --homogenize --r"),
    "grid-max": ("exact grid maximum", cmd_grid_extremum,
                 "--format --threads --force --poly --homogenize --r"),
    "expect": ("urn-model expectation of f, and the with-replacement comparison value",
               cmd_expect, "--format --poly --homogenize --r --m --counts --bernstein --x"),
    "bounds": ("table of error-bound coefficients", cmd_bounds,
               "--format --d --r-range --m-range"),
    "converge": ("grid values, normalized-error intervals, and bound coefficients over "
                 "a range of r", cmd_converge,
                 "--format --threads --force --poly --homogenize --r-range --elevation --grid "
                 "--assume-min-denominator --assume-max-denominator"),
    "verify": ("run identity sweeps and bound witnesses; exit 4 on any failure", cmd_verify,
               "--format --seed --samples --witness-polys --max-n --max-d --max-m --max-k "
               "--max-r --inject-fault"),
    "stable-set": ("certified stability-number lower bound", cmd_stable_set,
                   "--format --force --graph --r"),
    "enclose": ("certified enclosures of the simplex extrema", cmd_enclose,
                "--format --threads --force --poly --homogenize --r --elevation"),
}


def build_parser() -> argparse.ArgumentParser:
    """The `sgo` parser: one subparser per verb of _VERBS, which takes the
    verb's options and sets its `func` default."""
    parser = argparse.ArgumentParser(
        prog="sgo",
        description="Exact minimization of homogeneous polynomials over simplex grids, "
        "with certified error bounds and identity verification.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, func, options) in _VERBS.items():
        sub = subs.add_parser(verb, help=help_text)
        for option in options.split():
            sub.add_argument(option, **_OPTIONS[option])
        sub.set_defaults(func=func)
    return parser


@cache
def _kept_parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first parse and kept: a parse leaves it as
    it was, so a process that runs many commands, such as a test suite or a
    library caller of main, builds it once."""
    return build_parser()


def _option_action(options: "dict[str, argparse.Action]", token: str) -> "argparse.Action | None":
    """The action that token names, as argparse reads an option string: in
    full, or as the unique prefix of one "--" option (allow_abbrev).  None for
    anything else, an ambiguous prefix included, which argparse reports."""
    action = options.get(token)
    if action is None and token.startswith("--") and "=" not in token:
        matches = [option for option in options if option.startswith(token)]
        if len(matches) == 1:
            action = options[matches[0]]
    return action


def _attach_values(parser: argparse.ArgumentParser, argv: "list[str]") -> "Iterator[str]":
    """The tokens of argv, with every option of the parser that takes one
    value, named in full or by a unique prefix (_option_action), joined to a
    following token that starts with "-" as "--option=value", unless that
    token names one of the parser's options the same way or is "--",
    argparse's end of options, and split from a "--" joined to it.  So
    `--r-range -5:3` and `--r-r -5:3` read as `--r-range=-5:3`, where
    argparse would take -5:3 for an option, and `--r-range --format csv`,
    `--r-range --form csv`, `--r-range --` and `--r-r=--` all lack their
    value, where argparse alone would read the last as an empty list."""
    options = parser._option_string_actions
    tokens = iter(argv)
    for token in tokens:
        name, joined, value = token.partition("=")
        action = _option_action(options, name)
        if action is None or action.nargs is not None:  # no value to attach: the token stays
            name, value = token, None
        elif not joined:  # the value follows, if any
            value = next(tokens, None)
            joined = value is not None and value.startswith("-") and _option_action(options, value) is None
        if joined and value not in (None, "--"):
            yield f"{name}={value}"
        else:  # apart, for argparse to read the value or report it missing
            yield from (name,) if value is None else (name, value)


def _parse(argv: "list[str]") -> argparse.Namespace:
    """Parse with the one parser (_kept_parser), each value after the verb
    that starts with "-" attached to its option first (_attach_values)."""
    parser = _kept_parser()
    if argv and argv[0] in _VERBS:
        [subs] = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        argv = [argv[0], *_attach_values(subs.choices[argv[0]], argv[1:])]
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at the exit's flush
        return code
    except BrokenPipeError:
        # the reader stopped early (sgo ... | head): it has what it asked for.
        # stdout goes to devnull, so the interpreter's last flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except GridTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
