"""Exact rational scalars, certified intervals, and rendering helpers.

Every quantity in this package is an exact rational number.  We use
`fractions.Fraction` as the single numeric type; Python ints participate in
the same numeric tower, so integer-valued results may be returned as ints
without losing exactness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from math import gcd
from numbers import Rational as _RationalABC

DECIMAL_DIGITS = 20
# CPython's default limit on the digits of an int built from a string.  It bounds
# every integer an input may spell out: a decimal exponent here (one beyond it
# would build a power of ten far larger than any such int), the exponents, n and
# degree of a polynomial file (poly) and the indices of a graph file (stableset).
MAX_INT_DIGITS = 4300


def as_rational(value: object) -> Fraction:
    """Convert ints, Fractions, and numeric strings to an exact Fraction.

    Strings may be fraction literals ("-17/32"), integers ("3"), or decimal
    literals ("0.1", "1.25e3"), as `Fraction` reads them, of any length;
    decimals are converted exactly, so "0.1" becomes 1/10, and a decimal
    exponent above MAX_INT_DIGITS in magnitude is refused before any
    power of ten is built.  Binary floats are rejected: they generally do not
    equal the decimal the user wrote down.
    """
    if type(value) is Fraction:  # already exact; a subclass is converted below
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational coefficients")
    if isinstance(value, _RationalABC):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        _, e, exponent = text.lower().partition("e")
        digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > len(str(MAX_INT_DIGITS)) or int(digits) > MAX_INT_DIGITS
        ):
            raise ValueError(f"decimal exponent in {_head(value)} exceeds {MAX_INT_DIGITS}")
        if _LITERAL.fullmatch(text) is None:
            raise ValueError(f"cannot parse {_head(value)} as an exact rational")
        # Decimal reads digit strings exactly and without the interpreter's
        # limit on the digits of an int made from a string
        num, slash, den = text.partition("/")
        if not slash:
            return Fraction(Decimal(text))
        q = int(Decimal(den))
        if q == 0:
            raise ValueError(f"zero denominator in {_head(value)}")
        return Fraction(int(Decimal(num)), q)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a string or Fraction for an exact value"
        )
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


# The literals Fraction(str) reads: an integer, p/q, or a decimal with an
# optional exponent, digits grouped by single underscores.
_DIGITS = r"\d+(?:_\d+)*"
_LITERAL = re.compile(
    rf"[-+]?(?=\d|\.\d)(?:{_DIGITS})?(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:e[-+]?{_DIGITS})?)",
    re.IGNORECASE,
)


def _head(text: str) -> str:
    """The start of an input for an error message, however long the input is."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def fraction_str(value: "Fraction | int") -> str:
    """Render a rational as a reduced fraction "p/q" (or "p" when integral).

    Any length prints: past the interpreter's int-to-str digit limit the
    numerator and denominator go through `Decimal`, whose conversion from int
    is exact and unlimited, so the process-wide limit is never changed.
    """
    try:
        return str(value)
    except ValueError:
        return _ratio_str(value.numerator, value.denominator)


def _ratio_str(num: int, den: int = 1) -> str:
    """fraction_str(Fraction(num, den)) for den > 0, with one gcd and no Fraction;
    past the int-to-str digit limit both parts go through `Decimal`."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def decimal_str(value: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Advisory decimal rendering: `digits` significant digits, round-half-even."""
    q = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(q.numerator) / Decimal(q.denominator))


@dataclass(frozen=True)
class Enclosure:
    """Certified interval [lo, hi] containing an unknown exact quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Fraction) -> bool:
        return self.lo <= Fraction(value) <= self.hi
