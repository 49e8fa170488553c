"""Sparse Laurent polynomials over exact rationals, and matrices of them.

A polynomial is a finite map exponent -> coefficient.  Exponents are plain
Python ints (arbitrary precision; exponents like 2**(8*M*N) occur in the
circulant products).  Coefficients are ``Fraction`` in the default exact
mode, or :class:`adicspace.intervals.RatInterval` in certified-enclosure
mode; the two kinds mix freely inside one polynomial.

Every product goes through one kernel, :func:`_sum_products`, which adds
up f*g over (f, g) pairs in one term map and drops zeros once: ``f * g`` is
one pair, and :func:`mat_mul` and :meth:`LaurentMatrix.mul_vector` zip rows.

Every coefficient sum goes through :func:`sum_coeffs`, which adds the
numerators of rational terms as ints per denominator and then the interval
terms: the exact sum, in any order, without a gcd per ``Fraction`` addition.

Canonical form: zero coefficients are never stored, so ``==`` on the term
maps is semantic equality.  The zero rule is ``c == 0``, which is exact for
both kinds: a ``RatInterval`` equals 0 only as [0, 0].  Iteration and
serialization are ordered by exponent, making every derived report
deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import BadInput, DimensionMismatch
from .intervals import RatInterval

Coeff = Union[Fraction, int, RatInterval]


def _norm_coeff(c: Coeff):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, RatInterval)):
        return c
    raise TypeError(f"unsupported coefficient {c!r}")


_RATIONAL_TEXT = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def parse_rational(v) -> Fraction:
    """An int or a "num/den" string; a float, bool, "0.5" or "1e9" is a ValueError."""
    if type(v) is int or isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v):
        return Fraction(v)
    raise ValueError(f'{v!r} is not a "num/den" string or an integer')


class LaurentPoly:
    """An element of the Laurent polynomial algebra over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        # `not c == 0`: a Fraction's `!=` reaches its __eq__ only through object.__ne__
        object.__setattr__(self, "_terms", {int(exp): c for exp, v in terms.items()
                                            for c in (_norm_coeff(v),) if not c == 0}
                           if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def _of(terms: dict) -> "LaurentPoly":
        """Wrap a term map that is already canonical: int exponents, no zero coefficient."""
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_terms", terms)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: Fraction(1)})

    @staticmethod
    def monomial(coeff: Coeff, exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    @staticmethod
    def x(exp: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._terms.items())

    def coeff(self, exp: int):
        return self._terms.get(exp, Fraction(0))

    def support(self):
        return tuple(sorted(self._terms))

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_nonnegative(self) -> bool:
        return all(RatInterval.coerce(c).lo >= 0 for c in self._terms.values())

    def eval_at_one(self):
        """Sum of all coefficients (the image under x -> 1)."""
        return sum_coeffs(self._terms.values())

    def one_norm(self):
        """Sum of absolute values of the coefficients."""
        return sum_coeffs(map(abs, self._terms.values()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for exp, c in other._terms.items():
            acc = terms.get(exp)
            if acc is None:
                terms[exp] = c
            else:
                s = acc + c
                if s == 0:
                    del terms[exp]
                else:
                    terms[exp] = s
        return LaurentPoly._of(terms)

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatInterval)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _sum_products(((self, other),))

    __rmul__ = __mul__  # a scalar on the left: scale() commutes with it

    def scale(self, c: Coeff) -> "LaurentPoly":
        c = _norm_coeff(c)
        if c == 0:
            return LaurentPoly.zero()
        # A nonzero scalar times a nonzero coefficient is never an exact zero.
        return LaurentPoly._of({e: c * v for e, v in self._terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k."""
        return LaurentPoly._of({e + k: c for e, c in self._terms.items()})

    # -- equality / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        if not self._terms:
            return "LaurentPoly(0)"
        bits = [f"({c})x^{e}" for e, c in self.items()]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for e, c in self.items():
            if isinstance(c, RatInterval):
                out[str(e)] = [str(c.lo), str(c.hi)]
            else:
                out[str(e)] = str(c)
        return out

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "LaurentPoly":
        """Inverse of :meth:`to_json`; a malformed term is a ``BadInput`` naming its exponent."""
        if not isinstance(data, dict):
            raise BadInput(f"a polynomial must be a JSON object, not a {type(data).__name__}")
        terms = {}
        for e, c in data.items():
            try:
                if isinstance(c, list) and len(c) != 2:
                    raise ValueError(f"an interval is a [lo, hi] pair, not {len(c)} items")
                terms[int(e)] = (RatInterval(*map(parse_rational, c)) if isinstance(c, list)
                                 else parse_rational(c))
            except (ValueError, ZeroDivisionError) as exc:
                raise BadInput(f"term of exponent {e!r}: {exc}") from exc
        return LaurentPoly(terms)


class LaurentMatrix:
    """A rectangular matrix of Laurent polynomials; rows index the target."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        cols = len(entries[0])
        if cols == 0 or any(len(r) != cols for r in entries):
            raise ValueError("ragged or empty matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @staticmethod
    def identity(k: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return LaurentMatrix([[one if i == j else zero for j in range(k)] for i in range(k)])

    def mul_vector(self, f: Sequence[LaurentPoly]) -> list:
        if len(f) != self.cols:
            raise DimensionMismatch(f"vector length {len(f)} != cols {self.cols}")
        return [_sum_products(zip(row, f)) for row in self.entries]

    def eval_at_one(self) -> list:
        return [[e.eval_at_one() for e in row] for row in self.entries]

    def column_sums_at_one(self) -> list:
        # a circulant product holds each class polynomial k times: evaluate each object once
        distinct = {id(e): e for row in self.entries for e in row}
        ones = {key: e.eval_at_one() for key, e in distinct.items()}
        return [sum_coeffs(ones[id(row[j])] for row in self.entries) for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"LaurentMatrix({self.rows}x{self.cols})"

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.entries]


def sum_coeffs(values: Iterable):
    """Exact sum of int, Fraction and RatInterval values; Fraction(0) when empty.

    The result is a ``Fraction``, or a ``RatInterval`` when any term is one.
    """
    numerators: dict = {}
    intervals = []
    for v in values:
        if isinstance(v, RatInterval):
            intervals.append(v)
        else:
            den = v.denominator
            numerators[den] = numerators.get(den, 0) + v.numerator
    total = sum((Fraction(num, den) for den, num in numerators.items()), Fraction(0))
    return sum(intervals, total)


def _sum_products(pairs) -> LaurentPoly:
    """The sum of f * g over the (f, g) pairs, in one term map, zeros dropped once."""
    terms: dict = {}
    get = terms.get
    for f, g in pairs:
        g_terms = g._terms.items()
        for e1, c1 in f._terms.items():
            for e2, c2 in g_terms:
                e = e1 + e2
                p = c1 * c2
                acc = get(e)
                terms[e] = p if acc is None else acc + p
    for e in [e for e, c in terms.items() if c == 0]:
        del terms[e]
    return LaurentPoly._of(terms)


def mat_mul(mb: LaurentMatrix, ma: LaurentMatrix) -> LaurentMatrix:
    """Exact product mb @ ma; mb is applied after ma."""
    if mb.cols != ma.rows:
        raise DimensionMismatch(f"inner dimensions {mb.cols} != {ma.rows}")
    cols = list(zip(*ma.entries))
    return LaurentMatrix([[_sum_products(zip(row, col)) for col in cols] for row in mb.entries])


def weighted_one_norm(f: Sequence[LaurentPoly], w: Sequence) -> object:
    """Sum over coordinates of (weight * sum of |coefficients|)."""
    if len(f) != len(w):
        raise DimensionMismatch(f"vector length {len(f)} != weights length {len(w)}")
    return sum_coeffs(wi * fi.one_norm() for fi, wi in zip(f, w))
