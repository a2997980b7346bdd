#!/usr/bin/env python3
"""Walkthrough of the strict-gap quadratic 2x1^2 + x2^2 - 5x1x2.

Its simplex minimum is -17/32, attained at (7/16, 9/16), so the minimizer has
denominator 16.  The script shows the grid minima sharpening as r grows, the
urn-model expectation that upper-bounds the coarse grid value strictly, the
with-replacement comparison value, and the certified normalized-error
interval at each r.

Usage: python scripts/strict_gap_demo.py [--r-max 16]
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from simplex_grid_opt import (
    HypergeomParams,
    RangeAssumptions,
    bernstein_approximation,
    expectation,
    grid_extrema,
    grid_minimize,
    range_enclosures,
    rho_interval,
)
from simplex_grid_opt.poly import HomogeneousPolynomial


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r-max", type=int, default=16)
    args = parser.parse_args()

    f = HomogeneousPolynomial(2, 2, {(2, 0): 2, (0, 2): 1, (1, 1): -5})
    minimizer = (Fraction(7, 16), Fraction(9, 16))
    fmin, fmax = range_enclosures(
        f, RangeAssumptions(assume_min_denominator=16, assume_max_denominator=1)
    )

    print("r  grid_min      minimizers            rho_interval")
    for r in range(1, args.r_max + 1):
        res, high = grid_extrema(f, r)
        points = " ".join(",".join(str(Fraction(a, r)) for a in alpha) for alpha in res.minimizers)
        rho = rho_interval(fmin, fmax, res.value, high.value)
        rho_txt = str(rho.lo) if rho.is_point else f"[{rho.lo}, {rho.hi}]"
        print(f"{r:<2} {str(res.value):<13} {points:<21} {rho_txt}")

    urn = HypergeomParams(m=16, counts=(7, 9), r=2)
    e_without = expectation(f, urn)
    e_with = bernstein_approximation(f, minimizer, 2)
    print()
    print(f"grid minimum at r=2:                 {grid_minimize(f, 2).value}")
    print(f"expectation, draws w/o replacement:  {e_without}   (strictly above the grid value)")
    print(f"expectation, draws w/ replacement:   {e_with}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
