"""Exact combinatorial primitives.

Binomials, multinomials, falling factorials, Stirling numbers of the second
kind, lexicographic enumeration of the index sets I(n, d) (nonnegative integer
vectors with a fixed coordinate sum), and the rate constant c_d read off the
shifted falling-factorial polynomial (x-1)(x-2)...(x-d+1).

The two gap forms of the error bounds, the KLS gap 1 - rfd/r^d and its
refined form 1 - (rfd m^d)/(r^d mfd), where rfd and mfd are the falling
factorials of r and m, are stated here once (_kls_gap, _refined_gap) as
integer pairs: the bounds module builds its coefficients from them, and the
identities module checks the same expressions (STIRLING_SUM, SIGMA,
A_BETA_SUM).

Every integer argument is read with rational._as_int, so a float, a bool or
a str is refused (TypeError) before it reaches the exact arithmetic or
stirling2's cache, which would key 3.0 and True as it keys 3 and 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .rational import _as_int

IntOrFraction = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """C(n, k) for integer n >= 0, zero outside 0 <= k <= n."""
    n, k = _as_int(n), _as_int(k)
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(d: int, alpha: Sequence[int]) -> int:
    """d! / (alpha_1! ... alpha_n!) for a composition alpha of d."""
    d, alpha = _as_int(d), tuple(map(_as_int, alpha))
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative entry in {alpha}")
    if sum(alpha) != d:
        raise ValueError(f"entries of {alpha} must sum to {d}")
    out = 1
    rest = d
    for a in alpha:
        out *= math.comb(rest, a)
        rest -= a
    return out


def falling(x: IntOrFraction, d: int) -> IntOrFraction:
    """Falling factorial x(x-1)(x-2)...(x-d+1); the empty product (d=0) is 1.
    x is an int or a Fraction, and d an integer (rational._as_int)."""
    d = _as_int(d)
    if type(x) is not int and not isinstance(x, Fraction):  # an int skips isinstance's ABC check
        x = _as_int(x)
    if d < 0:
        raise ValueError(f"falling factorial needs d >= 0, got {d}")
    out: IntOrFraction = 1
    for i in range(d):
        out *= x - i
    return out


def stirling2(a: int, b: int) -> int:
    """Number of partitions of an a-element set into b nonempty blocks.

    S(a,b) = sum over j = 0..b of (-1)^(b-j) C(b,j) j^a / b!, which is 1 at
    S(0,0), 0 at S(a,0) for a > 0 and 0 for b > a.  The explicit sum has no
    recursion, so a large a cannot exhaust the stack.  Memoized (_stirling2)
    on the ints rational._as_int reads, before the cache: a key such as
    (3.0, 2), equal to (3, 2), would otherwise be answered from the cache or
    fill it.  Thread-safe because the result for a key never changes.
    """
    return _stirling2(_as_int(a), _as_int(b))


@lru_cache(maxsize=None)
def _stirling2(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError(f"Stirling numbers need nonnegative arguments, got ({a}, {b})")
    if b > a:
        return 0
    return sum((-1) ** (b - j) * math.comb(b, j) * j**a for j in range(b + 1)) // math.factorial(b)


# --- index sets I(n, total) in lexicographic order ---------------------------


def composition_count(n: int, total: int) -> int:
    """|I(n, total)| = C(total + n - 1, n - 1)."""
    n, total = _as_int(n), _as_int(total)
    if n < 1 or total < 0:
        raise ValueError(f"need n >= 1 and total >= 0, got n={n}, total={total}")
    return math.comb(total + n - 1, n - 1)


def compositions(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """Yield every alpha in I(n, total) exactly once, in lexicographic order.

    The order runs from (0, ..., 0, total) up to (total, 0, ..., 0).  Each
    element is derived from its predecessor in one list, so memory stays O(n):
    move one unit leftward past the last nonzero entry and reset the tail to
    its smallest arrangement.
    """
    n, total = _as_int(n), _as_int(total)
    composition_count(n, total)  # validates arguments
    cur = [0] * (n - 1) + [total]
    last = n - 1 if total else 0  # the last nonzero entry, or 0 when none is
    while True:
        yield tuple(cur)
        if last == 0:
            return
        v = cur[last]
        cur[last] = 0
        cur[last - 1] += 1
        cur[-1] = v - 1
        last = n - 1 if v > 1 else last - 1


# --- rate constant and gap forms of the error bounds --------------------------


def rate_constant(d: int) -> int:
    """c_d = (d-1) * sum(a) for d >= 2, where
    (x-1)(x-2)...(x-d+1) = x^(d-1) + sum_{i=0}^{d-2} (-1)^(d-1-i) a_i x^i.

    The signs alternate, so the absolute values of all d coefficients sum to
    |(-1-1)(-1-2)...(-1-d+1)| = d!; dropping the leading 1 gives
    sum(a) = d! - 1, and c_d = (d-1)(d!-1) with no expansion.
    """
    d = _as_int(d)
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return (d - 1) * (math.factorial(d) - 1)


# The gap forms take ints their callers have checked, r, m >= 1 and d >= 0, so
# rfd and mfd are math.perm(r, d) and math.perm(m, d): falling(r, d) and
# falling(m, d) there (0 when d > r), with no argument read again.


def _kls_gap(d: int, r: int, factor: int = 1) -> "tuple[int, int]":
    """(1 - rfd/r^d) * factor, as the pair ((r^d - rfd) * factor, r^d)."""
    top = r**d
    return (top - math.perm(r, d)) * factor, top


def _refined_gap(d: int, r: int, m: int, factor: int = 1) -> "tuple[int, int]":
    """(1 - (rfd m^d)/(r^d mfd)) * factor, as an integer pair; mfd > 0 as m >= d."""
    den = r**d * math.perm(m, d)
    return (den - math.perm(r, d) * m**d) * factor, den
