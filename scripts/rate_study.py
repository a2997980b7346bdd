#!/usr/bin/env python3
"""Convergence-rate study: the grid error rho(r) where it is known exactly.

For f = x_1^2 + ... + x_n^2 the simplex minimum is 1/n with denominator n and
the maximum is 1, so the normalized grid error rho(r) is exact here.  The
script sweeps r, prints rho(r) and rho(r) * r^2, and checks that the product
never exceeds the minimizer denominator (the quadratic O(1/r^2) rate with its
explicit constant), all in exact rational arithmetic.

With --q, it studies the anchored form f_{q,k} = s^k sum_i (x_i - q_i s)^2,
s = x_1 + ... + x_n, of degree k + 2 (--k), for a rational point q of the
simplex.  On the simplex f is the squared distance to q, so fmin = 0 at q and
fmax is the largest vertex value, and rho(r) is exact at any degree.  The
integer points alpha with sum alpha = r are a translate of the lattice
A_{n-1}, whose squared covering radius is floor(n/2) ceil(n/2)/n <= n/4
(Conway and Sloane, Sphere Packings, Lattices and Groups, ch. 4), so r^2
times the grid minimum is at most n/4, and r^2 rho(r) <= n/(4 fmax): the
O(1/r^2) rate of the paper's second theorem at d >= 3, with a constant that
does not grow with q's denominator.  The script exits 1 if the product ever
exceeds it.

Usage: python scripts/rate_study.py [--n 4] [--r-max 40] [--csv]
       python scripts/rate_study.py --q 1/2,1/4,1/8,1/8 [--k 1] [--r-max 40] [--csv]
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from simplex_grid_opt import as_rational, bound_coefficient, grid_minimize
from simplex_grid_opt.poly import HomogeneousPolynomial, homogenize
from simplex_grid_opt.rational import decimal_str


def sum_of_squares(n: int) -> HomogeneousPolynomial:
    return HomogeneousPolynomial(n, 2, {tuple(2 * (i == j) for j in range(n)): 1 for i in range(n)})


def anchored_form(q: "list[Fraction]", k: int) -> HomogeneousPolynomial:
    """f_{q,k}: sum_i x_i^2 - 2 sum_i q_i x_i + sum_i q_i^2, homogenized to
    degree k + 2 by powers of s."""
    n = len(q)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    terms = [(tuple(2 * a for a in e), 1) for e in unit]
    terms += [(e, -2 * q_i) for e, q_i in zip(unit, q)]
    terms.append(((0,) * n, sum(q_i * q_i for q_i in q)))
    return homogenize(terms, n, k + 2)


def study(f: HomogeneousPolynomial, fmin: Fraction, fmax: Fraction, r_max: int, bound, label: str,
          sep: str) -> "Fraction | None":
    """Print one row per r = 1..r_max, whose column `label` is bound(r), the
    constant that rho(r) * r^2 must not exceed.  Returns the largest rho(r) *
    r^2, or None at the first r where it exceeds its bound."""
    print(sep.join(["r", "grid_min", "rho", "rho_r2", label, "ok"]))
    worst = Fraction(0)
    for r in range(1, r_max + 1):
        value = grid_minimize(f, r).value
        rho = (value - fmin) / (fmax - fmin)
        scaled = rho * r * r
        limit = bound(r)
        ok = scaled <= limit
        worst = max(worst, scaled)
        print(sep.join([str(r), str(value), str(rho), str(scaled), str(limit), str(ok)]))
        if not ok:
            print(f"violation at r={r}", file=sys.stderr)
            return None
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4, help="variables of the sum of squares")
    parser.add_argument("--q", help="anchor point of the simplex, e.g. 1/2,1/4,1/8,1/8")
    parser.add_argument("--k", type=int, default=1, help="the anchored form's degree less 2")
    parser.add_argument("--r-max", type=int, default=40)
    parser.add_argument("--csv", action="store_true", help="machine-readable output")
    args = parser.parse_args()
    sep = "," if args.csv else "  "

    if args.q is None:
        n = args.n
        worst = study(sum_of_squares(n), Fraction(1, n), Fraction(1), args.r_max,
                      lambda r: bound_coefficient("QUAD_DENOM", d=2, r=r, m=n).coefficient * r * r,
                      "denom_bound", sep)
        constant = f"denominator constant: {n}"
    else:
        try:
            q = [as_rational(tok) for tok in args.q.split(",")]
        except ValueError as exc:
            parser.error(f"--q: {exc}")
        if len(q) < 2 or any(q_i < 0 for q_i in q) or sum(q) != 1 or args.k < 0:
            parser.error("--q must be a point of a simplex of 2 or more coordinates and --k at least 0")
        n = len(q)
        fmax = max(1 - 2 * q_i + sum(x * x for x in q) for q_i in q)  # |e_i - q|^2
        worst = study(anchored_form(q, args.k), Fraction(0), fmax, args.r_max, lambda r: n / (4 * fmax),
                      "n_over_4fmax", sep)
        constant = f"n/(4 fmax): {n / (4 * fmax)}"
    if worst is None:
        return 1
    print(f"max rho*r^2 over the sweep: {worst} (~{decimal_str(worst, 6)}), {constant}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
