"""Exact rational scalars, certified intervals, rendering helpers, and the
base of the package's frozen value classes.

Every quantity in this package is an exact rational number.  We use
`fractions.Fraction` as the single numeric type; Python ints participate in
the same numeric tower, so integer-valued results may be returned as ints
without losing exactness.  The renderers also read a value as an integer pair
(numerator, positive denominator), not necessarily reduced, with no Fraction:
_ratio_str and _decimal_ratio, which fraction_str and decimal_str wrap, and
which converge calls on its pairs directly.  The advisory decimal is Decimal
division in one fixed context (_DECIMAL), whatever the caller's context is.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import gcd
from numbers import Rational as _RationalABC
from operator import index

DECIMAL_DIGITS = 20
# CPython's default limit on the digits of an int built from a string.  It bounds
# every integer an input may spell out: a decimal exponent here (one beyond it
# would build a power of ten far larger than any such int), the exponents, n and
# degree of a polynomial file (poly) and the indices of a graph file (stableset).
MAX_INT_DIGITS = 4300


def as_rational(value: object) -> Fraction:
    """Convert ints, Fractions, and numeric strings to an exact Fraction.

    Strings may be fraction literals ("-17/32"), integers ("3"), or decimal
    literals ("0.1", "1.25e3"), as `Fraction` reads them, of any length.  A
    plain integer or p/q, each part of at most MAX_INT_DIGITS digits and q
    nonzero, is read by int(); every other string goes through `Decimal`,
    which reads digit strings exactly and without the interpreter's limit on
    the digits of an int made from a string.  Decimals are converted exactly,
    so "0.1" becomes 1/10, and a decimal exponent above MAX_INT_DIGITS in
    magnitude is refused before any power of ten is built.  Binary floats are
    rejected: they generally do not equal the decimal the user wrote down.
    """
    if type(value) is Fraction:  # already exact; a subclass is converted below
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational coefficients")
    if isinstance(value, _RationalABC):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num.startswith(("-", "+")) else num
        if digits.isdecimal() and len(digits) <= MAX_INT_DIGITS and (
            not slash or den.isdecimal() and len(den) <= MAX_INT_DIGITS
        ):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # the interpreter's limit was lowered: Decimal reads it
                q = 0
            if q:
                return Fraction(p, q)
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


def _shown(value: object, render=str) -> str:
    """render(value) for an error message: whole when short, else its start
    (_head), so the message stays one short line.  A value holding an
    int too long for str() is named by its type."""
    try:
        text = render(value)
    except ValueError:  # past the interpreter's limit on the digits of an int as a string
        return f"a {type(value).__name__} with a number too long to print"
    return text if len(text) <= 40 else _head(text)


def _as_int(value: object) -> int:
    """value as an int, exactly: an int or another integer type (__index__).
    A bool, a float (2.0 too), a str or any other value raises TypeError
    naming it, as poly._json_int refuses them in JSON, where int() would
    truncate, parse or pass a bool as 0 or 1."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"expected an integer, got {_shown(value, repr)}")
    return index(value)


def fraction_str(value: "Fraction | int") -> str:
    """Render a rational as a reduced fraction "p/q" (or "p" when integral),
    of any length: _ratio_str of its numerator and denominator.  The value is
    read by as_rational, which refuses a float or a bool (TypeError)."""
    q = as_rational(value)
    return _ratio_str(q.numerator, q.denominator)


def _ratio_str(num: int, den: int = 1) -> str:
    """fraction_str(Fraction(num, den)) for den > 0, with one gcd and no Fraction.

    Any length prints: past the interpreter's int-to-str digit limit both
    parts go through `Decimal`, whose conversion from int is exact and
    unlimited, so the process-wide limit is never changed.
    """
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def decimal_str(value: Fraction) -> str:
    """Advisory decimal rendering: DECIMAL_DIGITS significant digits,
    round-half-even: _decimal_ratio of the value's numerator and denominator.
    The value is read by as_rational, which refuses a float or a bool (TypeError)."""
    q = as_rational(value)
    return _decimal_ratio(q.numerator, q.denominator)


# The one context every decimal is rounded in.  Its exponent limits are open:
# the default ones raise Overflow past 10^999999, and a value of any size must
# print.  It is fixed, not the caller's thread context, so the bytes never
# depend on what localcontext() a caller has set.  The flags that divide sets
# on it are never read.
_DECIMAL = Context(prec=DECIMAL_DIGITS, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN,
                   capitals=1, clamp=0)


def _decimal_ratio(num: int, den: int) -> str:
    """decimal_str(Fraction(num, den)) for den > 0, with no Fraction and no
    str() of a part (which refuses more than 4300 digits): Decimal division
    in _DECIMAL, printed by its to-sci-string, which, unlike str(), does not
    read the thread's context."""
    return _DECIMAL.to_sci_string(_DECIMAL.divide(Decimal(num), Decimal(den)))


class _Record:
    """Base of the package's frozen value classes.

    A subclass names its fields in order in __match_args__ (a value class
    stores exactly those, as its __slots__).  Its own __init__ takes those
    fields as its parameters, in that order, validates them, and stores them
    with one call of _set (identities.IdentityCheck, which is not frozen,
    sets its slots itself).  The rest is derived from the field tuple as a
    frozen dataclass derives it: == holds only between instances of one class
    (another class gets NotImplemented), the hash is that of the tuple, the
    repr is QualName(field=value!r, ...), pickle and copy rebuild an instance
    by calling the class with its fields, and assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ()
    __match_args__: "tuple[str, ...]" = ()

    def _set(self, *values: object) -> None:
        """Store values as the fields named in __match_args__, in that order."""
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{k}={v!r}" for k, v in zip(self.__match_args__, self._fields())])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class Enclosure(_Record):
    """Certified interval [lo, hi] containing an unknown exact quantity.  The
    ends, and the value contains tests, are read by as_rational, which refuses
    a float or a bool (TypeError)."""

    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        lo, hi = as_rational(lo), as_rational(hi)
        if lo > hi:
            raise ValueError(f"empty enclosure: lo {fraction_str(lo)} > hi {fraction_str(hi)}")
        self._set(lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Fraction) -> bool:
        return self.lo <= as_rational(value) <= self.hi
