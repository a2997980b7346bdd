#!/usr/bin/env python3
"""Certified stability-number bounds for a graph from simplex grid values.

Prints the minimum of x^T (I + A) x over grids of increasing denominator r,
each read off min(alpha, r) in closed form without a sweep, and its reciprocal
rounded up, a lower bound on the stability number alpha; compares against the
exact stability number from the uncapped stable-set search (exact_alpha), on
a graph small enough that exact_alpha does not refuse it.

Usage: python scripts/petersen_bound.py [--graph data/petersen.edges] [--r-max 6]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from simplex_grid_opt import alpha_lower_bound, exact_alpha, load_graph

DEFAULT_GRAPH = Path(__file__).resolve().parent.parent / "data" / "petersen.edges"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", default=str(DEFAULT_GRAPH))
    parser.add_argument("--r-max", type=int, default=6)
    args = parser.parse_args()

    g = load_graph(args.graph)
    print(f"graph: {g.n} vertices, {len(g.edges)} edges")
    print("r  grid_value  alpha_lb  evaluations")
    for r in range(1, args.r_max + 1):
        bound = alpha_lower_bound(g, r)
        print(f"{r:<2} {str(bound.grid_value):<11} {bound.alpha_lb:<9} {bound.evaluations}")
    try:
        print(f"exact stability number: {exact_alpha(g)}")
    except ValueError:  # too many vertices for the exponential search
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
