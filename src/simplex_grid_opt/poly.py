"""Homogeneous polynomials with exact rational coefficients.

A polynomial is a sparse table mapping exponent tuples in I(n, d) to nonzero
Fractions.  This module provides evaluation, homogenization of lower-degree
inputs, and reading the JSON interchange format.  The simplicial Bernstein
coefficients that enclose a polynomial on the simplex are computed in
integers by the sweep engine (grid._bernstein_extrema).
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .combin import compositions, multinomial
from .rational import MAX_INT_DIGITS, _as_int, _Record, _shown, as_rational

ExponentTuple = tuple  # tuple[int, ...]; one entry per variable
CoefLike = Union[int, str, Fraction]
TermsLike = Union[Mapping[ExponentTuple, CoefLike], Iterable["tuple[Sequence[int], CoefLike]"]]


class HomogeneousPolynomial(_Record):
    """n-variate homogeneous polynomial of degree d.

    coeffs maps exponent tuples (all of length n, entries >= 0, sum d) to
    nonzero rational coefficients, kept in lexicographic key order for
    deterministic serialization.  The zero polynomial has an empty table.
    Instances are immutable value objects; all operations on them are pure.
    They are unhashable, as the table is a dict.
    """

    __slots__ = __match_args__ = ("n", "d", "coeffs")

    def __init__(self, n: int, d: int, coeffs: "dict[tuple[int, ...], Fraction]") -> None:
        n, d = _size(n, d)
        table: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, coef in sorted(coeffs.items()):
            alpha = _exponent(alpha, n)
            if sum(alpha) != d:
                raise ValueError(
                    f"monomial {_shown(alpha)} has degree {sum(alpha)}, expected {d}"
                )
            c = as_rational(coef)
            if c != 0:
                table[alpha] = c
        self._set(n, d, table)

    @classmethod
    def from_terms(cls, n: int, terms: TermsLike, d: "int | None" = None) -> "HomogeneousPolynomial":
        """Build from (exponent, coefficient) pairs, merging duplicates.

        The degree is inferred as the maximum |alpha| when not given; all
        terms must then have that exact degree (use homogenize otherwise).
        """
        pairs = list(terms.items()) if isinstance(terms, Mapping) else list(terms)
        merged: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, coef in pairs:
            key = tuple(alpha)  # __init__ converts and checks every exponent
            c = as_rational(coef)
            merged[key] = merged[key] + c if key in merged else c
        if d is None:
            if not merged:
                raise ValueError("cannot infer the degree of an empty polynomial")
            d = max(sum(alpha) for alpha in merged)
        return cls(n=n, d=d, coeffs=merged)


def _size(n: int, d: int) -> "tuple[int, int]":
    """(n, d) as ints (_as_int), refused (ValueError) unless both are at least 1."""
    n, d = _as_int(n), _as_int(d)
    if n < 1:
        raise ValueError("polynomial needs at least one variable")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return n, d


def _exponent(alpha: Sequence[int], n: int) -> "tuple[int, ...]":
    """alpha as a tuple of ints (_as_int), refused (ValueError) unless it has
    n entries, none negative."""
    alpha = tuple(map(_as_int, alpha))
    if len(alpha) != n:
        raise ValueError(f"exponent {_shown(alpha)} has length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {_shown(alpha)}")
    return alpha


def evaluate(f: HomogeneousPolynomial, x: Sequence[CoefLike]) -> Fraction:
    """Exact value of f at the point x (any rationals, not only simplex points)."""
    if len(x) != f.n:
        raise ValueError(f"point has {len(x)} coordinates, polynomial has {f.n} variables")
    point = [as_rational(v) for v in x]
    total = Fraction(0)
    for alpha, coef in f.coeffs.items():
        term = coef
        for xi, a in zip(point, alpha):
            if a:
                term *= xi**a
        total += term
    return total


def is_square_free(f: HomogeneousPolynomial) -> bool:
    """True iff every stored exponent is 0 or 1 (multilinear monomials only)."""
    return all(a <= 1 for alpha in f.coeffs for a in alpha)


def homogenize(terms: TermsLike, n: int, d: int) -> HomogeneousPolynomial:
    """Raise every monomial of degree e <= d to degree d.

    Each term c*x^alpha is multiplied by (x_1 + ... + x_n)^(d-e) expanded via
    the multinomial theorem, so the result agrees with the input everywhere
    on the simplex.  n, d and each input exponent are checked here, in that
    order, as HomogeneousPolynomial checks them, so that an error names the
    input exponent and comes before any expansion; from_terms merges the
    expanded terms.
    """
    n, d = _size(n, d)
    pairs = list(terms.items()) if isinstance(terms, Mapping) else list(terms)
    out = []
    for alpha, coef in pairs:
        alpha = _exponent(alpha, n)
        c = as_rational(coef)
        e = sum(alpha)
        if e > d:
            raise ValueError(f"monomial {_shown(alpha)} has degree {e} > target degree {d}")
        # e = d expands to the term itself: the one kappa is all zeros
        out += [(tuple(map(add, alpha, kappa)), c * multinomial(d - e, kappa))
                for kappa in compositions(n, d - e)]
    return HomogeneousPolynomial.from_terms(n, out, d)


def random_polynomial(rng, n: int, d: int, coef_lo: int = -9, coef_hi: int = 9) -> HomogeneousPolynomial:
    """Dense random integer-coefficient instance for tests and experiments.

    Draws one coefficient per exponent in I(n, d); zero draws leave gaps.  The
    zero polynomial is avoided by forcing one nonzero coefficient.
    """
    coeffs: "dict[tuple[int, ...], Fraction]" = {}
    for alpha in compositions(n, d):
        c = rng.randint(coef_lo, coef_hi)
        if c:
            coeffs[alpha] = Fraction(c)
    if not coeffs:
        coeffs[(d,) + (0,) * (n - 1)] = Fraction(max(coef_hi, 1))
    return HomogeneousPolynomial(n, d, coeffs)


# --- JSON interchange ---------------------------------------------------------
#
# {"n": int, "terms": [{"alpha": [int, ...], "coef": "p/q" | "int" | "decimal"}],
#  "degree": optional int}
#
# n, degree and the exponents must be JSON integers: a float or a bool there is
# refused, not truncated.  The degree is inferred as max |alpha| when absent.
# Terms of lower degree are rejected unless homogenization is requested, and
# terms that repeat an exponent are summed.


# n, degree and the exponents have at most MAX_INT_DIGITS digits; only
# coefficients may be longer.
_JSON_INT_BOUND = 10**MAX_INT_DIGITS


def _json_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{what} must be a JSON integer (no point, exponent or quotes), got {_shown(value)}"
        )
    if abs(value) >= _JSON_INT_BOUND:
        raise ValueError(f"{what} has more than {MAX_INT_DIGITS} digits")
    return value


def from_json_dict(obj: Mapping, *, homogenize_terms: bool = False) -> HomogeneousPolynomial:
    if not isinstance(obj, Mapping):
        raise ValueError("polynomial JSON must be an object")
    if "n" not in obj:
        raise ValueError("polynomial JSON needs an integer field 'n'")
    n = _json_int(obj["n"], "'n'")
    raw_terms = obj.get("terms", [])
    if not isinstance(raw_terms, list):
        raise ValueError("'terms' must be a list")
    pairs = []
    for entry in raw_terms:
        try:
            alpha, coef = entry["alpha"], entry["coef"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad term {_shown(entry, repr)}: need 'alpha' and 'coef'") from exc
        if not isinstance(alpha, (list, tuple)):
            raise ValueError(f"bad term {_shown(entry, repr)}: 'alpha' must be a list")
        pairs.append((tuple(_json_int(a, "exponent") for a in alpha), as_rational(coef)))
    degree = obj.get("degree")
    if degree is None:
        if not pairs:
            raise ValueError("empty polynomial needs an explicit 'degree'")
        degree = max(sum(alpha) for alpha, _ in pairs)
    degree = _json_int(degree, "'degree'")
    if homogenize_terms:
        return homogenize(pairs, n, degree)
    return HomogeneousPolynomial.from_terms(n, pairs, d=degree)


def load_polynomial(path: str, *, homogenize_terms: bool = False) -> HomogeneousPolynomial:
    """Read a polynomial JSON file; decimal literals are parsed exactly, and so
    are integer literals of any length.  A file nested deeper than the JSON
    scanner can recurse is refused with a ValueError."""
    with open(path, "r", encoding="utf-8") as fp:
        text = fp.read()
    try:
        try:  # int runs inside the JSON scanner, with no call back into Python per literal
            obj = json.loads(text, parse_float=as_rational, parse_int=int)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # past the interpreter's limit on the digits of an int made from a string,
            # which Decimal does not have; an error of as_rational is raised again
            obj = json.loads(text, parse_float=as_rational, parse_int=lambda t: int(Decimal(t)))
    except RecursionError:  # the scanner recurses once per nested list or object
        raise ValueError("polynomial JSON nests too deeply") from None
    return from_json_dict(obj, homogenize_terms=homogenize_terms)
