"""Homogeneous polynomials with exact rational coefficients.

A polynomial is a sparse table mapping exponent tuples in I(n, d) to nonzero
Fractions.  This module provides evaluation, the simplex-Bernstein coefficient
table whose extremes sandwich the polynomial on the simplex, degree elevation
(multiplying by the sum of variables, which fixes values on the simplex while
tightening the sandwich), homogenization of lower-degree inputs, and the JSON
interchange format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .combin import compositions, multinomial
from .rational import MAX_INT_DIGITS, as_rational

ExponentTuple = tuple  # tuple[int, ...]; one entry per variable
CoefLike = Union[int, str, Fraction]
TermsLike = Union[Mapping[ExponentTuple, CoefLike], Iterable["tuple[Sequence[int], CoefLike]"]]

DEFAULT_ELEVATION_CAP = 8


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """n-variate homogeneous polynomial of degree d.

    coeffs maps exponent tuples (all of length n, entries >= 0, sum d) to
    nonzero rational coefficients, kept in lexicographic key order for
    deterministic serialization.  The zero polynomial has an empty table.
    Instances are immutable value objects; all operations on them are pure.
    """

    n: int
    d: int
    coeffs: "dict[tuple[int, ...], Fraction]"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("polynomial needs at least one variable")
        if self.d < 1:
            raise ValueError("degree must be at least 1")
        table: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, coef in sorted(self.coeffs.items()):
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {self.n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            if sum(alpha) != self.d:
                raise ValueError(f"monomial {alpha} has degree {sum(alpha)}, expected {self.d}")
            c = as_rational(coef)
            if c != 0:
                table[alpha] = c
        object.__setattr__(self, "coeffs", table)

    @classmethod
    def from_terms(cls, n: int, terms: TermsLike, d: "int | None" = None) -> "HomogeneousPolynomial":
        """Build from (exponent, coefficient) pairs, merging duplicates.

        The degree is inferred as the maximum |alpha| when not given; all
        terms must then have that exact degree (use homogenize otherwise).
        """
        pairs = list(terms.items()) if isinstance(terms, Mapping) else list(terms)
        merged: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, coef in pairs:
            key = tuple(int(a) for a in alpha)
            c = as_rational(coef)
            merged[key] = merged[key] + c if key in merged else c
        if d is None:
            if not merged:
                raise ValueError("cannot infer the degree of an empty polynomial")
            d = max(sum(alpha) for alpha in merged)
        return cls(n=n, d=d, coeffs=merged)

    def is_zero(self) -> bool:
        return not self.coeffs


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


def elevate(f: HomogeneousPolynomial, k: int, *, cap: int = DEFAULT_ELEVATION_CAP) -> HomogeneousPolynomial:
    """Multiply f by (x_1 + ... + x_n)^k, exactly.

    On the simplex this leaves values unchanged while refining the Bernstein
    coefficient table.  k is capped because the table grows as
    C(n + d + k - 1, d + k); pass a larger cap explicitly to go beyond it.
    """
    if k < 0:
        raise ValueError("elevation must be nonnegative")
    if k > cap:
        raise ValueError(f"elevation {k} exceeds the cap {cap}")
    coeffs = dict(f.coeffs)
    for _ in range(k):
        nxt: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, c in coeffs.items():
            for i in range(f.n):
                key = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                nxt[key] = nxt.get(key, Fraction(0)) + c
        coeffs = nxt
    return HomogeneousPolynomial(f.n, f.d + k, coeffs)


@dataclass(frozen=True)
class BernsteinTable:
    """Coefficients of f in the simplex Bernstein basis {(d!/b!) x^b : b in I(n,d)}.

    The entry at b is f_b * b!/d!.  The table covers all of I(n, d), zeros
    included, because the extreme entries are what certify bounds: on the
    simplex, f(x) is a convex combination of these coefficients, so
    min_coeff <= f(x) <= max_coeff.
    """

    entries: "dict[tuple[int, ...], Fraction]"
    min_coeff: Fraction
    max_coeff: Fraction


def bernstein_table(f: HomogeneousPolynomial) -> BernsteinTable:
    entries: "dict[tuple[int, ...], Fraction]" = {}
    for beta in compositions(f.n, f.d):
        entries[beta] = f.coeffs.get(beta, Fraction(0)) / multinomial(f.d, beta)
    values = entries.values()
    return BernsteinTable(entries=entries, min_coeff=min(values), max_coeff=max(values))


def is_square_free(f: HomogeneousPolynomial) -> bool:
    """True iff every stored exponent is 0 or 1 (multilinear monomials only)."""
    return all(a <= 1 for alpha in f.coeffs for a in alpha)


def homogenize(terms: TermsLike, n: int, d: int) -> HomogeneousPolynomial:
    """Raise every monomial of degree e <= d to degree d.

    Each term c*x^alpha is multiplied by (x_1 + ... + x_n)^(d-e) expanded via
    the multinomial theorem, so the result agrees with the input everywhere
    on the simplex.
    """
    pairs = list(terms.items()) if isinstance(terms, Mapping) else list(terms)
    out: "dict[tuple[int, ...], Fraction]" = {}
    for alpha, coef in pairs:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != n:
            raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {n}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        c = as_rational(coef)
        e = sum(alpha)
        if e > d:
            raise ValueError(f"monomial {alpha} has degree {e} > target degree {d}")
        if e == d:
            out[alpha] = out.get(alpha, Fraction(0)) + c
            continue
        for kappa in compositions(n, d - e):
            key = tuple(a + k for a, k in zip(alpha, kappa))
            out[key] = out.get(key, Fraction(0)) + c * multinomial(d - e, kappa)
    return HomogeneousPolynomial(n, d, out)


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
            f"{what} must be a JSON integer (no point, exponent or quotes), got {value}"
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
            raise ValueError(f"bad term {entry!r}: need 'alpha' and 'coef'") from exc
        if not isinstance(alpha, (list, tuple)):
            raise ValueError(f"bad term {entry!r}: 'alpha' must be a list")
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


def to_json_dict(f: HomogeneousPolynomial) -> dict:
    return {
        "n": f.n,
        "degree": f.d,
        "terms": [{"alpha": list(alpha), "coef": str(c)} for alpha, c in f.coeffs.items()],
    }


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
