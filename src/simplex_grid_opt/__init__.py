"""Exact rational optimization of homogeneous polynomials over simplex grids.

The package minimizes a fixed-degree homogeneous polynomial over the grid of
simplex points with a common denominator, computes urn-model expectations and
moments exactly, evaluates every supported error-bound coefficient in exact
arithmetic, verifies the combinatorial identities those bounds rest on, and
turns grid values into certified stability-number bounds for graphs.
"""

from .bounds import (
    ALL_KINDS,
    BoundKind,
    BoundReport,
    BoundWitness,
    DegenerateRangeError,
    RangeAssumptions,
    bound_coefficient,
    check_bounds,
    range_enclosures,
    rho_interval,
)
from .combin import (
    binomial,
    composition_count,
    compositions,
    falling,
    multinomial,
    stirling2,
)
from .grid import (
    GridMinResult,
    GridTooLargeError,
    grid_extrema,
    grid_maximize,
    grid_minimize,
)
from .hypergeom import (
    HypergeomParams,
    bernstein_approximation,
    expectation,
    moment,
)
from .identities import (
    IdentityCheck,
    a_beta,
    run_default_sweeps,
)
from .poly import (
    HomogeneousPolynomial,
    evaluate,
    from_json_dict,
    homogenize,
    is_square_free,
    load_polynomial,
    random_polynomial,
)
from .rational import Enclosure, as_rational, decimal_str, fraction_str
from .stableset import (
    Graph,
    StableSetBound,
    alpha_lower_bound,
    exact_alpha,
    load_graph,
    parse_graph_text,
)

__version__ = "0.1.0"
