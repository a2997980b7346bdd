"""Command-line front end.

Verbs: grid-min, grid-max, expect, bounds, converge, verify, stable-set,
enclose.  Exact values are printed as reduced fractions; decimal renderings
are advisory (20 significant digits, round-half-even).  Every verb prints one
JSON document, or CSV that starts with the version comment line
"# simplex-grid-opt v1".

The verbs that sweep a grid (grid-min, grid-max, converge, enclose) take
--threads and --force; stable-set takes --force, as the grid size guard bounds
its stable-set search.  The guard is 10^8 points, or SGO_MAX_GRID when set;
converge compares the total of all the grids it sweeps before the first one.
expect sums no grid (its --bernstein value is closed form), so no guard
applies to it.  These limits are fixed and refused before any work (exit 2):
a sweep whose power table could exceed 10^9 bits or whose row tables could
exceed 4 * 10^9 (grid._check_sweep; --force does not lift them), an
enclosure (converge, enclose) at an elevation above 8 or whose Bernstein
table would hold more than 2 * 10^5 entries (bounds._enclosures), an
expectation whose Stirling rows could exceed 4 * 10^6 bits
(hypergeom._expected_value), a bounds table of more than 10^5 rows or whose
coefficients could exceed 10^7 bits (bounds.bound_table), a
verify run of more than 3 * 10^5 checks, and fewer than one thread (the
library refuses it too).  An option or SGO_MAX_GRID value that does not
parse is quoted to its first 40 characters (rational._head), and an integer
in it may have at most 4300 digits (rational.MAX_INT_DIGITS).

Tables (bounds, converge, verify) are lists of flat records, written one
record at a time.  bounds and converge go through the C JSON encoder
(_write_table) or the csv writer (_csv_writer).  cmd_verify has one loop over
its checks: it renders each check once, writes it with one f-string (no text
of a check needs escaping) or with the csv writer, and counts the checks and
the failures.  verify writes each check as its sweep makes it, after every
refusal and the few bound witnesses, and keeps none.

Exit codes: 0 success, 2 invalid configuration or parse failure, 3 grid size
guard tripped, 4 verification failure.  A reader that closes stdout early
(sgo verify | head) ends the run at once, silently, with 0.  Output is
byte-identical for any --threads value.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from typing import Any

from . import bounds as bounds_mod
from . import identities as ident_mod
from .combin import composition_count
from .grid import (
    DEFAULT_GRID_GUARD,
    GridTooLargeError,
    _check_sweep,
    _grid_pairs,
    _grid_size,
    _Plan,
    grid_maximize,
    grid_minimize,
)
from .hypergeom import HypergeomParams, bernstein_approximation, expectation
from .poly import HomogeneousPolynomial, load_polynomial, random_polynomial
from .rational import (
    MAX_INT_DIGITS, Enclosure, _decimal_ratio, _head, _ratio_str, as_rational, decimal_str,
    fraction_str,
)
from .stableset import alpha_lower_bound, load_graph

CSV_VERSION_LINE = "# simplex-grid-opt v1"
CSV_DECIMAL_NOTE = "# decimal columns are advisory: 20 significant digits, round-half-even"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE_GUARD = 3
EXIT_VERIFY_FAILED = 4

# Most checks `verify` may run, counted before any work (_verify_check_count).
# The default run makes about 2.3e4; --max-m 20 makes 2.5e5 in about 3.4 s on
# a 2-vCPU Xeon VM.  Each check is written as it is made, so that run peaks at
# 18 MB RSS with stdout to a file, and at 88 MB in process with its 52 MB of
# JSON held in a StringIO.
_MAX_VERIFY_CHECKS = 3 * 10**5


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
    m_for_kinds = args.assume_min_denominator
    kind_names = [kind.value for kind in bounds_mod.ALL_KINDS]
    header = ["r", "grid_min", "grid_min_decimal", "rho_lo", "rho_hi"] + kind_names
    r_values = _parse_range(args.r_range)
    _converge_guard(f, r_values, assumptions, guard)
    plan = _Plan(f)  # one per run: every r and the enclosures sweep it
    extrema = {}  # each denominator the enclosures sweep, kept for the rows
    fmin, fmax = bounds_mod._enclosures(plan, assumptions, extrema, args.threads, guard)
    ends = bounds_mod._ends(fmin, fmax)
    rows = []
    for r in r_values:  # the guard has checked every grid: each r sweeps with no refusal
        low, high, den = extrema.get(r) or _grid_pairs(plan, r, args.threads)
        try:
            lo_num, lo_den, hi_num, hi_den = bounds_mod._rho(ends, low, high, den)
            rho_lo, rho_hi = _ratio_str(lo_num, lo_den), _ratio_str(hi_num, hi_den)
        except bounds_mod.DegenerateRangeError:
            rho_lo = rho_hi = "degenerate"
        rows.append([r, _ratio_str(low, den), _decimal_ratio(low, den), rho_lo, rho_hi,
                     *bounds_mod._coefficient_texts(f.d, r, m_for_kinds)])
    _emit(args, rows, header, rows, decimal_note=True)
    return EXIT_OK


def _converge_guard(f: HomogeneousPolynomial, r_values: range,
                    params: bounds_mod.RangeAssumptions, guard: "int | None") -> None:
    """Refuse, before any sweep or Bernstein table, a converge run with an
    r < 1, with a sweep past the degree or row-table bound at its largest
    denominator (grid._check_sweep), or whose grids hold more than guard
    points in total: every r of the range, plus the denominators that
    range_enclosures sweeps (bounds.swept_denominators) outside it, each grid
    counted once as it is swept once.

    The range is summed in closed form (hockey stick): sum over r = lo..hi of
    |I(n, r)| = |I(n + 1, hi)| - |I(n + 1, lo - 1)|, so a huge range costs
    nothing.
    """
    n, lo, hi = f.n, r_values[0], r_values[-1]
    swept = bounds_mod.swept_denominators(params)
    _grid_size(n, lo, None)  # refuses lo < 1
    total = composition_count(n + 1, hi) - composition_count(n + 1, lo - 1)
    total += sum(_grid_size(n, q, None) for q in swept if q not in r_values)
    if guard is not None and total > guard:
        raise GridTooLargeError(
            f"the grids to sweep have {decimal_str(total)} points in all, budget is {guard}"
        )
    _check_sweep(f, max([hi, *swept]))


def cmd_verify(args: argparse.Namespace) -> int:
    for option in ("samples", "witness_polys", "max_k", "max_r"):
        if getattr(args, option) < 0:
            raise ValueError(f"--{option.replace('_', '-')} must be nonnegative")
    count = _verify_check_count(args)
    if count > _MAX_VERIFY_CHECKS:
        raise ValueError(
            f"verify would run more than {_MAX_VERIFY_CHECKS} checks; lower --max-n, --max-d, "
            "--max-m, --max-k, --max-r, --samples or --witness-polys"
        )
    if count == 0 and not args.inject_fault:
        raise ValueError("no checks run: sweep ranges are empty")
    # count is 0 exactly when a cap is below 1, and then nothing is swept.  The
    # witnesses are few and made before any byte is written; the identity checks
    # are made one at a time, as they are written.
    witnesses, checks = [], ()
    if count:
        witnesses = _bound_witnesses(args)
        checks = ident_mod.run_default_sweeps(
            max_n=args.max_n, max_d=args.max_d, max_m=args.max_m, max_k=args.max_k,
            max_r=args.max_r, samples=args.samples, seed=args.seed,
        )
    # the rows in order, each group under its "check" column
    fault = ident_mod.IdentityCheck("INJECTED_FAULT", (), 0, 1, "eq", False)
    groups = (("identity", checks), ("bound-witness", witnesses),
              ("identity", [fault] if args.inject_fault else []))
    # one row per check, in the chosen format, as json.dumps(indent=2) or the
    # csv writer lays it out; no JSON text is escaped, as none needs it: names
    # and relations are letters and "_", params_str() is "key=value" pairs
    # joined by ";" with int or int-tuple values, each side is digits with "-"
    # and "/" (rational._ratio_str), and holds is "true" or "false"
    writerow, write = None, sys.stdout.write
    if args.format == "csv":
        writerow = _csv_writer(["check", "name", "params", "lhs", "rhs", "relation", "holds"]).writerow
    else:
        write('{\n  "checks": ')
    lead, total, failures = "[", 0, 0
    for column, group in groups:
        for check in group:
            lhs, rhs = check._texts()
            holds = "true" if check.holds else "false"
            if writerow is None:
                write(f'{lead}\n    {{\n      "check": "{column}",\n      "name": "{check.name}",\n'
                      f'      "params": "{check.params_str()}",\n      "lhs": "{lhs}",\n'
                      f'      "rhs": "{rhs}",\n      "relation": "{check.relation}",\n'
                      f'      "holds": "{holds}"\n    }}')
                lead = ","
            else:
                writerow((column, check.name, check.params_str(), lhs, rhs, check.relation, holds))
            total += 1
            failures += not check.holds
    if writerow is None:
        print(f'\n  ],\n  "total": {total},\n  "failures": {failures}\n}}')
    if failures:
        print(f"verification failed: {failures} of {total} checks", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _verify_check_count(args: argparse.Namespace) -> int:
    """The checks verify runs: the identity sweeps' exact count (or some
    count above _MAX_VERIFY_CHECKS once it passes that), plus at most one
    bound witness per witness polynomial, pair and kind.  Its time does not
    grow with the caps."""
    if min(args.max_n, args.max_d, args.max_m) < 1:
        return 0
    witnesses = args.witness_polys * len(_witness_pairs(args)) * len(bounds_mod.ALL_KINDS)
    return witnesses + ident_mod.default_sweep_count(
        max_n=args.max_n, max_d=args.max_d, max_m=args.max_m, max_k=args.max_k,
        max_r=args.max_r, samples=args.samples, stop=_MAX_VERIFY_CHECKS,
    )


def _witness_pairs(args: argparse.Namespace) -> "list[tuple[int, int]]":
    """The (r, m) pairs of the bound witnesses: 1 <= r <= m <= min(5, max_m)."""
    return [(r, m) for m in range(1, min(5, args.max_m) + 1) for r in range(1, m + 1)]


def _bound_witnesses(args: argparse.Namespace) -> "list[ident_mod.IdentityCheck]":
    """The bound witnesses that apply, as checks of lhs le rhs, for
    --witness-polys random polynomials.  The coefficients of every kind at
    every pair are tabled once per degree (bounds._pair_reports) and shared by
    the polynomials of that degree; the table lives for this call only."""
    rng = random.Random(args.seed)
    pairs = _witness_pairs(args)
    reports: "dict[int, list[bounds_mod.BoundReport]]" = {}
    out = []
    for _ in range(args.witness_polys):
        n = rng.randint(1, min(3, args.max_n))
        d = rng.randint(1, min(3, args.max_d))
        f = random_polynomial(rng, n, d)
        if f.d not in reports:
            reports[f.d] = bounds_mod._pair_reports(f.d, pairs)
        out += [ident_mod.IdentityCheck(w.kind.value, (("d", w.d), ("r", w.r), ("m", w.m)),
                                        w.lhs, w.rhs, "le", w.holds)
                for w in bounds_mod._witnesses(f, reports[f.d])]
    return out


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


def _add_common(sub: argparse.ArgumentParser, *, poly: bool = False, r: bool = False,
                sweeps: bool = False, guard: bool = False) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if sweeps:
        sub.add_argument("--threads", type=int, default=1,
                         help="worker threads for grid sweeps, capped at the CPU count; "
                         "never changes the output, and gives no speed-up under the GIL")
    if sweeps or guard:
        sub.add_argument("--force", action="store_true",
                         help="bypass the grid size guard (SGO_MAX_GRID, default 1e8)")
    if poly:
        sub.add_argument("--poly", required=True, help="polynomial JSON file")
        sub.add_argument("--homogenize", action="store_true",
                         help="raise lower-degree terms to the stated degree")
    if r:
        sub.add_argument("--r", type=int, required=True, help="grid denominator")


def _grid_extremum_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, poly=True, r=True, sweeps=True)


def _expect_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, poly=True, r=True)
    sub.add_argument("--m", type=int, help="total balls in the urn")
    sub.add_argument("--counts", help="comma-separated balls per color, summing to m")
    sub.add_argument("--bernstein", action="store_true",
                     help="also compute the order-r with-replacement value")
    sub.add_argument("--x", help="simplex point for --bernstein, e.g. 7/16,9/16")


def _bounds_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--d", type=int, required=True, help="polynomial degree")
    sub.add_argument("--r-range", required=True, help="grid denominator(s), e.g. 2 or 1:16")
    sub.add_argument("--m-range", help="reference denominator(s), e.g. 4 or 2:8")


def _converge_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, poly=True, sweeps=True)
    sub.add_argument("--r-range", required=True)
    sub.add_argument("--elevation", type=int, default=0)
    sub.add_argument("--grid", type=int, help="extra enclosure grid denominator")
    sub.add_argument("--assume-min-denominator", type=int,
                     help="assert the simplex minimum is attained at this denominator")
    sub.add_argument("--assume-max-denominator", type=int,
                     help="assert the simplex maximum is attained at this denominator")


def _verify_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples", type=int, default=25,
                     help="random integer points for the polynomial identities")
    sub.add_argument("--witness-polys", type=int, default=8,
                     help="random polynomials for bound witnesses")
    sub.add_argument("--max-n", type=int, default=3)
    sub.add_argument("--max-d", type=int, default=4)
    sub.add_argument("--max-m", type=int, default=8)
    sub.add_argument("--max-k", type=int, default=4)
    sub.add_argument("--max-r", type=int, default=30)
    sub.add_argument("--inject-fault", action="store_true",
                     help="append a deliberately failing check (harness self-test)")


def _stable_set_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, guard=True)
    sub.add_argument("--graph", required=True, help="edge list file, one 'u v' per line")
    sub.add_argument("--r", type=int, required=True)


def _enclose_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, poly=True, r=True, sweeps=True)
    sub.add_argument("--elevation", type=int, default=0)


# verb: (help, command, options), in the order the full parser lists them
_VERBS = {
    "grid-min": ("exact grid minimum", cmd_grid_extremum, _grid_extremum_options),
    "grid-max": ("exact grid maximum", cmd_grid_extremum, _grid_extremum_options),
    "expect": ("urn-model expectation of f, and the with-replacement comparison value",
               cmd_expect, _expect_options),
    "bounds": ("table of error-bound coefficients", cmd_bounds, _bounds_options),
    "converge": ("grid values, normalized-error intervals, and bound coefficients over "
                 "a range of r", cmd_converge, _converge_options),
    "verify": ("run identity sweeps and bound witnesses; exit 4 on any failure",
               cmd_verify, _verify_options),
    "stable-set": ("certified stability-number lower bound", cmd_stable_set,
                   _stable_set_options),
    "enclose": ("certified enclosures of the simplex extrema", cmd_enclose, _enclose_options),
}


def build_parser() -> argparse.ArgumentParser:
    """The full `sgo` parser, one subparser per verb of _VERBS."""
    parser = argparse.ArgumentParser(
        prog="sgo",
        description="Exact minimization of homogeneous polynomials over simplex grids, "
        "with certified error bounds and identity verification.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, func, add_options) in _VERBS.items():
        sub = subs.add_parser(name, help=help_text)
        add_options(sub)
        sub.set_defaults(func=func)
    return parser


@cache
def _verb_parser(verb: str) -> argparse.ArgumentParser:
    """The one verb's parser alone, as the full parser's subparser for it reads
    the arguments after the verb: the same prog, options and messages.  It is
    built on the verb's first parse and kept: it depends on the verb alone,
    and a parse leaves it as it was, so a process that runs many commands,
    such as a test suite or a library caller of main, builds it once."""
    _, func, add_options = _VERBS[verb]
    parser = argparse.ArgumentParser(prog=f"sgo {verb}")
    add_options(parser)
    parser.set_defaults(verb=verb, func=func)
    return parser


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
    """Parse with the called verb's parser alone, which builds no subparser
    and is built once per process (_verb_parser).  Anything that parser
    cannot place, and any argv that does not start with a verb, goes to the
    full parser, which prints the usage, help and errors.  A value that
    starts with "-" is attached to its option first (_attach_values)."""
    if argv and argv[0] in _VERBS:
        parser = _verb_parser(argv[0])
        argv = [*argv[:1], *_attach_values(parser, argv[1:])]
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


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
