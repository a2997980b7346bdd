"""Command-line front end.

Verbs: grid-min, grid-max, expect, bounds, converge, verify, stable-set,
enclose.  Exact values are printed as reduced fractions; decimal renderings
are advisory (20 significant digits, round-half-even).  Every verb prints one
JSON document, or CSV that starts with the version comment line
"# simplex-grid-opt v1".

The verbs that sweep a grid (grid-min, grid-max, converge, enclose,
stable-set) take --threads and --force.  The grid size guard is 10^8 points,
or SGO_MAX_GRID when set; stable-set also counts the vertex form's table, and
converge compares the total of all the grids it sweeps before the first one.
expect sums no grid (its --bernstein value is closed form), so no guard
applies to it.  These limits are fixed and refused before any work (exit 2):
a sweep whose power table exceeds 10^9 bits (grid._check_degree; --force
does not lift it), a bounds table of more than 10^5 rows, and a verify run
of more than 3 * 10^5 checks.

Exit codes: 0 success, 2 invalid configuration or parse failure, 3 grid size
guard tripped, 4 verification failure.  Output is byte-identical for any
--threads value.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import bounds as bounds_mod
from . import identities as ident_mod
from .combin import composition_count
from .grid import (
    DEFAULT_GRID_GUARD,
    GridTooLargeError,
    _check_degree,
    _grid_size,
    grid_extrema,
    grid_maximize,
    grid_minimize,
)
from .hypergeom import HypergeomParams, bernstein_approximation, expectation
from .poly import HomogeneousPolynomial, load_polynomial, random_polynomial
from .rational import Enclosure, as_rational, decimal_str, fraction_str
from .stableset import alpha_lower_bound, load_graph

CSV_VERSION_LINE = "# simplex-grid-opt v1"
CSV_DECIMAL_NOTE = "# decimal columns are advisory: 20 significant digits, round-half-even"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE_GUARD = 3
EXIT_VERIFY_FAILED = 4

# Most rows `bounds` prints: r values * m values * kinds, checked before any
# work.  At this maximum its JSON is 19 MB, made in about 1.5 s with a peak
# RSS of 130 MB on a 2-vCPU Xeon VM.
_MAX_BOUND_ROWS = 10**5
# Most checks `verify` may run, counted before any work (_verify_check_count).
# The default run makes about 2.3e4; --max-m 20 makes 2.5e5 in about 6.3 s
# with a peak RSS of 410 MB on a 2-vCPU Xeon VM, about 1.6 KB per check.
_MAX_VERIFY_CHECKS = 3 * 10**5


def _grid_guard(args: argparse.Namespace) -> "int | None":
    """The grid point budget: SGO_MAX_GRID or 10^8, and None (no guard) under --force."""
    guard: "int | None" = DEFAULT_GRID_GUARD
    env = os.environ.get("SGO_MAX_GRID")
    if env is not None:
        try:
            guard = int(env)
        except ValueError as exc:
            raise ValueError(f"SGO_MAX_GRID must be an integer, got {env!r}") from exc
    return None if args.force else guard


# --- small parsers -------------------------------------------------------------


def _parse_range(text: str) -> range:
    """Accept "7" or "2:16" (inclusive)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return range(int(parts[0]), int(parts[0]) + 1)
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise ValueError
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise ValueError(f"expected an integer or 'lo:hi' range, got {text!r}")


def _parse_counts(text: str) -> "tuple[int, ...]":
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _load_poly(args: argparse.Namespace) -> HomogeneousPolynomial:
    return load_polynomial(args.poly, homogenize_terms=args.homogenize)


class _Records(NamedTuple):
    """A JSON list of objects, one per row, each with these keys in this order."""

    keys: "Sequence[str]"
    rows: "Sequence[Sequence]"


_LITERALS = {True: "true", False: "false", None: "null"}
_CONTAINERS = (dict, list, tuple)  # json.dumps writes a tuple as a list


def _json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) byte for byte, its lines indented by `indent`.

    Any indent makes json.dumps run its pure-Python encoder, so large tables
    are passed as _Records.  A _Records value is written through one template
    that holds its keys and layout, filled with strings from the C string
    encoder; the containers around it are written here, and every other
    container goes to json.dumps.  Splicing is sound because ensure_ascii
    escapes every control character inside a string, so each newline in a
    dump is layout.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)  # as json.dumps writes an int
    if kind is bool or obj is None:
        return _LITERALS[obj]
    if kind is _Records:
        return _records_json(obj, indent)
    if not (isinstance(obj, _CONTAINERS) and obj):
        return json.dumps(obj)  # other scalars and empty containers have no layout
    if not _holds_records(obj):
        text = json.dumps(obj, indent=2)
        return text if indent == "\n" else text.replace("\n", indent)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + indent + "]"


def _holds_records(obj) -> bool:
    values = obj.values() if isinstance(obj, dict) else obj
    return any(isinstance(v, _Records) or (isinstance(v, _CONTAINERS) and _holds_records(v))
               for v in values)


def _records_json(records: _Records, indent: str) -> str:
    if not records.rows:
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    if not records.keys:
        template = "{}"
    else:
        template = "{" + field + ("," + field).join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in records.keys
        ) + inner + "}"
    try:  # rows of strings only, as verify's, fill the template in C
        body = [template % tuple(map(encode_basestring_ascii, row)) for row in records.rows]
    except TypeError:  # some value is not a string
        body = [template % tuple([_json(v, field) for v in row]) for row in records.rows]
    return "[" + inner + ("," + inner).join(body) + indent + "]"


def _emit(args: argparse.Namespace, obj, header: "list[str]", rows: "Sequence[Sequence]", *,
          decimal_note: bool = False) -> None:
    """Print obj as indented JSON, or header and rows as versioned CSV (--format).

    The JSON is the bytes of json.dumps(obj, indent=2), where each _Records in
    obj stands for its list of objects.
    """
    if args.format == "json":
        print(_json(obj))
        return
    print(CSV_VERSION_LINE)
    if decimal_note:
        print(CSV_DECIMAL_NOTE)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


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
            "minimizers": [",".join(str(Fraction(a, args.r)) for a in alpha)
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
            bernstein_point=",".join(str(v) for v in point),
            bernstein=fraction_str(bval),
            bernstein_decimal=decimal_str(bval),
        )
    _emit_record(args, row)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    r_values = _parse_range(args.r_range)
    m_values: "Sequence[int | None]" = (None,) if args.m_range is None else _parse_range(args.m_range)
    # len() of a range overflows past sys.maxsize; the difference of its ends does not
    m_count = 1 if args.m_range is None else m_values.stop - m_values.start
    count = (r_values.stop - r_values.start) * m_count * len(bounds_mod.ALL_KINDS)
    if count > _MAX_BOUND_ROWS:
        raise ValueError(f"bounds would print {count} rows, more than {_MAX_BOUND_ROWS}")
    reports = bounds_mod.bound_table(args.d, r_values, m_values)
    rows = [
        [
            report.kind.value,
            report.d,
            report.r,
            "" if report.m is None else report.m,
            "" if report.k is None else report.k,
            "" if report.coefficient is None else fraction_str(report.coefficient),
            str(report.applicable).lower(),
            report.reason,
        ]
        for report in reports
    ]
    records = [
        (row[0], row[1], row[2], row[3] or None, row[4] or None, row[5] or None,
         row[6] == "true", row[7])
        for row in rows
    ]
    header = ["kind", "d", "r", "m", "k", "coefficient", "applicable", "reason"]
    _emit(args, _Records(header, records), header, rows)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    guard = _grid_guard(args)
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
    fmin, fmax = bounds_mod.range_enclosures(f, assumptions, threads=args.threads, max_points=guard)
    rows = []
    for r in r_values:
        low, high = grid_extrema(f, r, threads=args.threads, max_points=guard)
        value = low.value
        try:
            rho = bounds_mod.rho_interval(fmin, fmax, value, high.value)
            rho_lo, rho_hi = fraction_str(rho.lo), fraction_str(rho.hi)
        except bounds_mod.DegenerateRangeError:
            rho_lo = rho_hi = "degenerate"
        row = [r, fraction_str(value), decimal_str(value), rho_lo, rho_hi]
        for kind in bounds_mod.ALL_KINDS:
            report = bounds_mod.bound_coefficient(kind, d=f.d, r=r, m=m_for_kinds)
            row.append("" if report.coefficient is None else fraction_str(report.coefficient))
        rows.append(row)
    _emit(args, _Records(header, rows), header, rows, decimal_note=True)
    return EXIT_OK


def _converge_guard(f: HomogeneousPolynomial, r_values: range,
                    params: bounds_mod.RangeAssumptions, guard: "int | None") -> None:
    """Refuse, before any sweep or Bernstein table, a converge run with an
    r < 1, with a sweep past the degree bound (grid._check_degree), or whose
    grids hold more than guard points in total: every r of the range, plus the
    denominators that range_enclosures sweeps (bounds.swept_denominators).

    The range is summed in closed form (hockey stick): sum over r = lo..hi of
    |I(n, r)| = |I(n + 1, hi)| - |I(n + 1, lo - 1)|, so a huge range costs
    nothing.
    """
    n, lo, hi = f.n, r_values[0], r_values[-1]
    swept = bounds_mod.swept_denominators(params)
    _grid_size(n, lo, None)  # refuses lo < 1
    total = composition_count(n + 1, hi) - composition_count(n + 1, lo - 1)
    total += sum(_grid_size(n, q, None) for q in swept)
    if guard is not None and total > guard:
        raise GridTooLargeError(f"the grids to sweep have {total} points in all, budget is {guard}")
    _check_degree(f.d, max([hi, *swept]))


def cmd_verify(args: argparse.Namespace) -> int:
    for option in ("samples", "witness_polys", "max_k", "max_r"):
        if getattr(args, option) < 0:
            raise ValueError(f"--{option.replace('_', '-')} must be nonnegative")
    if _verify_check_count(args) > _MAX_VERIFY_CHECKS:
        raise ValueError(
            f"verify would run more than {_MAX_VERIFY_CHECKS} checks; lower --max-n, --max-d, "
            "--max-m, --max-k, --max-r, --samples or --witness-polys"
        )
    checks = []
    if args.max_n >= 1 and args.max_d >= 1 and args.max_m >= 1:
        checks = ident_mod.run_default_sweeps(
            max_n=args.max_n,
            max_d=args.max_d,
            max_m=args.max_m,
            max_k=args.max_k,
            max_r=args.max_r,
            samples=args.samples,
            seed=args.seed,
        )
    rows = [
        ("identity", check.name, check.params_str(), fraction_str(check.lhs),
         fraction_str(check.rhs), check.relation, "true" if check.holds else "false")
        for check in checks
    ]
    rows += [
        ("bound-witness", w.kind.value, f"d={w.d};r={w.r};m={w.m}",
         fraction_str(w.lhs), fraction_str(w.rhs), "le", "true" if w.holds else "false")
        for w in _bound_witnesses(args)
    ]
    if args.inject_fault:
        rows.append(("identity", "INJECTED_FAULT", "", "0", "1", "eq", "false"))
    if not rows:
        raise ValueError("no checks run: sweep ranges are empty")
    failures = sum(1 for row in rows if row[6] != "true")
    header = ["check", "name", "params", "lhs", "rhs", "relation", "holds"]
    obj = {"checks": _Records(header, rows), "total": len(rows), "failures": failures}
    _emit(args, obj, header, rows)
    if failures:
        print(f"verification failed: {failures} of {len(rows)} checks", file=sys.stderr)
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


def _bound_witnesses(args: argparse.Namespace) -> "list[bounds_mod.BoundWitness]":
    if min(args.max_n, args.max_d, args.max_m) < 1:
        return []
    rng = random.Random(args.seed)
    pairs = _witness_pairs(args)
    out = []
    for _ in range(args.witness_polys):
        n = rng.randint(1, min(3, args.max_n))
        d = rng.randint(1, min(3, args.max_d))
        f = random_polynomial(rng, n, d)
        out += [w for w in bounds_mod.check_bounds(f, pairs) if w.applicable]
    return out


def cmd_stable_set(args: argparse.Namespace) -> int:
    guard = _grid_guard(args)
    graph = load_graph(args.graph)
    bound = alpha_lower_bound(graph, args.r, threads=args.threads, max_points=guard)
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
                sweeps: bool = False) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if sweeps:
        sub.add_argument("--threads", type=int, default=1,
                         help="worker threads for grid sweeps, capped at the CPU count; "
                         "never changes the output, and gives no speed-up under the GIL")
        sub.add_argument("--force", action="store_true",
                         help="bypass the grid size guard (SGO_MAX_GRID, default 1e8)")
    if poly:
        sub.add_argument("--poly", required=True, help="polynomial JSON file")
        sub.add_argument("--homogenize", action="store_true",
                         help="raise lower-degree terms to the stated degree")
    if r:
        sub.add_argument("--r", type=int, required=True, help="grid denominator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgo",
        description="Exact minimization of homogeneous polynomials over simplex grids, "
        "with certified error bounds and identity verification.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    for verb in ("grid-min", "grid-max"):
        sub = subs.add_parser(verb, help=f"exact grid {verb.split('-')[1]}imum")
        _add_common(sub, poly=True, r=True, sweeps=True)
        sub.set_defaults(func=cmd_grid_extremum)

    sub = subs.add_parser("expect", help="urn-model expectation of f, and the "
                          "with-replacement comparison value")
    _add_common(sub, poly=True, r=True)
    sub.add_argument("--m", type=int, help="total balls in the urn")
    sub.add_argument("--counts", help="comma-separated balls per color, summing to m")
    sub.add_argument("--bernstein", action="store_true",
                     help="also compute the order-r with-replacement value")
    sub.add_argument("--x", help="simplex point for --bernstein, e.g. 7/16,9/16")
    sub.set_defaults(func=cmd_expect)

    sub = subs.add_parser("bounds", help="table of error-bound coefficients")
    _add_common(sub)
    sub.add_argument("--d", type=int, required=True, help="polynomial degree")
    sub.add_argument("--r-range", required=True, help="grid denominator(s), e.g. 2 or 1:16")
    sub.add_argument("--m-range", help="reference denominator(s), e.g. 4 or 2:8")
    sub.set_defaults(func=cmd_bounds)

    sub = subs.add_parser("converge", help="grid values, normalized-error intervals, "
                          "and bound coefficients over a range of r")
    _add_common(sub, poly=True, sweeps=True)
    sub.add_argument("--r-range", required=True)
    sub.add_argument("--elevation", type=int, default=0)
    sub.add_argument("--grid", type=int, help="extra enclosure grid denominator")
    sub.add_argument("--assume-min-denominator", type=int,
                     help="assert the simplex minimum is attained at this denominator")
    sub.add_argument("--assume-max-denominator", type=int,
                     help="assert the simplex maximum is attained at this denominator")
    sub.set_defaults(func=cmd_converge)

    sub = subs.add_parser("verify", help="run identity sweeps and bound witnesses; "
                          "exit 4 on any failure")
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
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("stable-set", help="certified stability-number lower bound")
    _add_common(sub, sweeps=True)
    sub.add_argument("--graph", required=True, help="edge list file, one 'u v' per line")
    sub.add_argument("--r", type=int, required=True)
    sub.set_defaults(func=cmd_stable_set)

    sub = subs.add_parser("enclose", help="certified enclosures of the simplex extrema")
    _add_common(sub, poly=True, r=True, sweeps=True)
    sub.add_argument("--elevation", type=int, default=0)
    sub.set_defaults(func=cmd_enclose)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        return args.func(args)
    except GridTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
