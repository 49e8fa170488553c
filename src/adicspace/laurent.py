"""Sparse Laurent polynomials over exact rationals, and matrices of them.

A polynomial is a finite sum of terms c * x^e.  Exponents are plain Python
ints (arbitrary precision; exponents like 2**(8*M*N) occur in the circulant
products).  A coefficient is an exact rational, or a
:class:`adicspace.intervals.RatInterval` in certified-enclosure mode; the
two kinds mix freely inside one polynomial.

Store: the rational terms share one positive ``int`` denominator ``_den``
and keep their ``int`` numerators in ``_nums`` (exponent -> nonzero
numerator), reduced so that gcd(_den, all numerators) = 1, with ``_den`` = 1
when there are none.  Interval terms sit in a side map ``_ivals`` (exponent ->
RatInterval) on exponents disjoint from ``_nums``.  So sums and products of
rational terms are sums and products of plain ints, with one gcd per result
instead of one per term.  A term that meets an interval in a sum or product
is computed in interval arithmetic and stays an interval, even a point one.

Every product goes through one kernel, :func:`_sum_products`, which adds up
f*g over (f, g) pairs over the lcm of the pair denominators; ``f * g`` is one
pair, ``scale(c)`` is the pair (f, c x^0), ``shift(k)`` is the pair (f, x^k),
and :func:`mat_mul` and :meth:`LaurentMatrix.mul_vector` zip rows.
Every new polynomial goes through one canonicaliser, :func:`_fill`.  The l1
distance of two polynomials, :func:`l1_distance`, is summed from their maps
without forming the difference.

Canonical form: zero coefficients are never stored (for an interval, zero
means [0, 0]), so ``==`` on the maps is semantic equality; a point interval
equals, and hashes like, its rational.  ``_terms`` is a read-only view as
exponent -> ``Fraction`` or ``RatInterval``, and ``items``/``coeff`` give
coefficients the same way.  Iteration and :meth:`LaurentPoly.to_json`, the
library's JSON view, are ordered by exponent.  A report's text of a
polynomial is made by one method, :meth:`LaurentPoly.json_items`, ordered by
exponent string as ``json.dumps(sort_keys=True)`` orders keys.  Either way
every derived report is deterministic.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

from .errors import BadInput, DimensionMismatch, check_text_digits, decimal_digits
from .intervals import RatInterval

Coeff = Union[Fraction, int, RatInterval]

_RATIONAL_TEXT = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def parse_rational(v) -> Fraction:
    """An int or a "num/den" string; a float, bool, "0.5", "1e9" or "1/0" is a ValueError."""
    if type(v) is int or isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v):
        try:
            return Fraction(v if type(v) is int
                            else check_text_digits("a numerator or denominator", v))
        except ZeroDivisionError:
            raise ValueError(f"{v!r} has a zero denominator") from None
    raise ValueError(f'{v!r} is not a "num/den" string or an integer')


def fraction_text(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` for den > 0, written without building the Fraction."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def coeff_to_json(c) -> object:
    """The one JSON form of a coefficient: ``str(c)``, or ["lo", "hi"] for an interval."""
    return [str(c.lo), str(c.hi)] if isinstance(c, RatInterval) else str(c)


def coeff_from_json(v) -> Coeff:
    """Inverse of :func:`coeff_to_json`: :func:`parse_rational`, or a [lo, hi] pair of them."""
    if isinstance(v, list) and len(v) != 2:
        raise ValueError(f"an interval is a [lo, hi] pair, not {len(v)} items")
    return RatInterval(*map(parse_rational, v)) if isinstance(v, list) else parse_rational(v)


class LaurentPoly:
    """An element of the Laurent polynomial algebra over the rationals."""

    __slots__ = ("_den", "_nums", "_ivals")

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        rationals, ivals = {}, {}
        for exp, c in (terms.items() if terms else ()):
            if isinstance(c, RatInterval):
                ivals[int(exp)] = c
            elif isinstance(c, (int, Fraction)):
                rationals[int(exp)] = c
            else:
                raise TypeError(f"unsupported coefficient {c!r}")
        den = lcm(*(c.denominator for c in rationals.values()))
        _fill(self, den, {e: c.numerator * (den // c.denominator) for e, c in rationals.items()},
              ivals)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_ints(nums: dict, den: int = 1) -> "LaurentPoly":
        """The polynomial sum of (n / den) x^e over an {e: int n} map; takes ownership of nums."""
        return _canonical(den, nums, {})

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly._from_ints({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._from_ints({0: 1})

    @staticmethod
    def monomial(coeff: Coeff, exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    @staticmethod
    def x(exp: int = 1) -> "LaurentPoly":
        return LaurentPoly._from_ints({exp: 1})

    # -- inspection --------------------------------------------------------

    @property
    def _terms(self) -> dict:
        """A fresh exponent -> Fraction or RatInterval map; editing it changes nothing."""
        # one Fraction per distinct numerator: a dyadic product has few of them
        den = self._den
        value = {n: Fraction(n, den) for n in set(self._nums.values())}
        terms = {e: value[n] for e, n in self._nums.items()}
        terms.update(self._ivals)
        return terms

    def items(self):
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._terms.items())

    def coeff(self, exp: int):
        n = self._nums.get(exp)
        if n is not None:
            return Fraction(n, self._den)
        return self._ivals.get(exp, Fraction(0))

    def support(self):
        return tuple(sorted([*self._nums, *self._ivals]))

    def num_terms(self) -> int:
        return len(self._nums) + len(self._ivals)

    def is_zero(self) -> bool:
        return not (self._nums or self._ivals)

    def is_nonnegative(self) -> bool:
        return (all(n > 0 for n in self._nums.values())
                and all(c.lo >= 0 for c in self._ivals.values()))

    def eval_at_one(self):
        """Sum of all coefficients (the image under x -> 1)."""
        return sum(self._ivals.values(), Fraction(sum(self._nums.values()), self._den))

    def one_norm(self):
        """Sum of absolute values of the coefficients."""
        return sum(map(abs, self._ivals.values()),
                   Fraction(sum(map(abs, self._nums.values())), self._den))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        nums = dict(self._nums) if m1 == 1 else {e: n * m1 for e, n in self._nums.items()}
        get = nums.get
        for e, n in other._nums.items():
            nums[e] = get(e, 0) + n * m2
        ivals = dict(self._ivals)
        for e, c in other._ivals.items():
            acc = ivals.get(e)
            ivals[e] = c if acc is None else acc + c
        return _canonical(den, nums, ivals)

    def __neg__(self):
        return _canonical(self._den, {e: -n for e, n in self._nums.items()},
                          {e: -c for e, c in self._ivals.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _sum_products(((self, other),))

    def scale(self, c: Coeff) -> "LaurentPoly":
        return _sum_products(((self, LaurentPoly({0: c})),))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k."""
        return _sum_products(((self, LaurentPoly.x(k)),))

    # -- equality / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._ivals or other._ivals:  # a point interval equals its rational
            return self._terms == other._terms
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        bits = [f"({c})x^{e}" for e, c in self.items()]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """The library view: exponent -> ``coeff_to_json`` of its coefficient, ascending."""
        return {str(e): coeff_to_json(c) for e, c in self.items()}

    def widest_int(self) -> int:
        """The largest absolute value of an int in the text of the coefficients, or 0.

        A rational coefficient is written reduced, so its two ints are at most
        its numerator over ``_den`` and ``_den``.
        """
        ends = [x for c in self._ivals.values() for f in (c.lo, c.hi)
                for x in (f.numerator, f.denominator)]
        return max(self._den, *map(abs, ends), max(map(abs, self._nums.values()), default=0))

    def json_items(self, indent: str, batch: int):
        """The items of ``json.dumps(self.to_json(), sort_keys=True, indent=2)``, in lists.

        ``indent`` is the newline and indentation before each item.  Each term
        is formatted once, as '"e": text', with one text per distinct
        numerator.  A key is '-' and digits, which all sort above '"', so items
        sorted as strings come in the key order of ``sort_keys``.  Each list is
        sorted descending, for its reader to take items off its end.  A
        polynomial of more than ``batch`` terms comes one group of at most
        ``batch`` keys of :func:`_key_groups` at a time: a reader that empties
        each list before it asks for the next holds one group's strings at most.
        """
        pair = indent + "  "
        den, nums, ivals = self._den, self._nums, self._ivals
        # fraction_text is digits, '-' and '/': quoting it is its JSON string
        text = {n: f'"{fraction_text(n, den)}"' for n in set(nums.values())}
        keys = sorted(itertools.chain(nums, ivals)) if ivals else sorted(nums)
        for group in _key_groups(keys, batch) if len(keys) > batch else [keys]:
            if ivals:
                items = [f'"{e}": {text[nums[e]]}' if e in nums else
                         f'"{e}": [{pair}"{ivals[e].lo}",{pair}"{ivals[e].hi}"{indent}]'
                         for e in group]
            else:
                items = [f'"{e}": {t}' for e, t in
                         zip(group, map(text.__getitem__, map(nums.__getitem__, group)))]
            items.sort(reverse=True)
            yield items

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "LaurentPoly":
        """Inverse of :meth:`to_json`; a malformed term is a ``BadInput`` naming its exponent."""
        if not isinstance(data, dict):
            raise BadInput(f"a polynomial must be a JSON object, not a {type(data).__name__}")
        terms = {}
        for e, c in data.items():
            try:
                terms[int(e)] = coeff_from_json(c)
            except ValueError as exc:
                raise BadInput(f"term of exponent {e!r}: {exc}") from exc
        return LaurentPoly(terms)


def _key_groups(keys: list, batch: int):
    """The ascending ``keys`` in groups of at most ``batch``, each a run of them in string order.

    In string order the negative keys come first, then 0, then the positive
    keys; each sign's keys come in the runs of :func:`_digit_runs` of |e|.
    """
    i, j = bisect_left(keys, 0), bisect_right(keys, 0)
    negative = _digit_runs([-e for e in reversed(keys[:i])], batch)
    runs = itertools.chain(([-e for e in run] for run in negative), [keys[i:j]], _digit_runs(keys, batch))
    group = []
    for run in runs:
        if group and len(group) + len(run) > batch:
            yield group
            group = []
        group += run
    yield group


def _digit_runs(vals: list, batch: int):
    """The positive ints of the ascending ``vals`` in runs of their string order.

    The ints whose text starts with the k digits of p are, of each digit
    count n >= k, the range [p 10^(n-k), (p+1) 10^(n-k)) of ``vals``.  Up to
    ``batch`` of them are one run; more are split into p itself, which sorts
    first, then the ints that start with p0, ..., p9.  So a run holds at most
    ``batch`` ints, or one.
    """
    if not vals or vals[-1] <= 0:
        return
    top = decimal_digits(vals[-1])
    stack = [(p, 1) for p in range(9, 0, -1)]
    while stack:
        p, k = stack.pop()
        run = []
        for n in range(k, top + 1):
            ten = 10 ** (n - k)
            lo = bisect_left(vals, p * ten)
            run += vals[lo:bisect_left(vals, (p + 1) * ten, lo)]
            if len(run) > batch:
                break
        else:
            if run:
                yield run
            continue
        if run[0] == p:
            yield [p]
        stack += [(10 * p + d, k + 1) for d in range(9, -1, -1)]


_new = LaurentPoly.__new__
_set = object.__setattr__


def _fill(out: LaurentPoly, den: int, nums: dict, ivals: dict) -> LaurentPoly:
    """Canonicalise the terms n/den (n in nums) and ivals into ``out``; takes ownership.

    Zero numerators and [0, 0] intervals are dropped, an exponent present in
    both maps becomes one interval, and the numerators are reduced by their
    gcd with den.
    """
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    if ivals:
        for e in [e for e in ivals if e in nums]:
            ivals[e] += Fraction(nums.pop(e), den)
        # `not c == 0`: [0, 0] is the only interval equal to 0
        ivals = {e: c for e, c in ivals.items() if not c == 0}
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        den //= g
        nums = {e: n // g for e, n in nums.items()}
    _set(out, "_den", den)
    _set(out, "_nums", nums)
    _set(out, "_ivals", ivals)
    return out


def _canonical(den: int, nums: dict, ivals: dict) -> LaurentPoly:
    return _fill(_new(LaurentPoly), den, nums, ivals)


class LaurentMatrix:
    """A rectangular matrix of Laurent polynomials; rows index the target."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = len(entries)
        if rows == 0:
            raise DimensionMismatch("matrix needs at least one row")
        cols = len(entries[0])
        if cols == 0 or any(len(r) != cols for r in entries):
            raise DimensionMismatch("ragged or empty matrix")
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
        return [sum((ones[id(row[j])] for row in self.entries), Fraction(0))
                for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"LaurentMatrix({self.rows}x{self.cols})"


def _sum_products(pairs) -> LaurentPoly:
    """The sum of f * g over the (f, g) pairs, over the lcm of the pair denominators.

    Rational terms are multiplied and added as ints; a term pair with an
    interval in it is multiplied and added in interval arithmetic.
    """
    pairs = list(pairs)
    den = lcm(*(f._den * g._den for f, g in pairs))
    nums: dict = {}
    ivals: dict = {}
    get = nums.get
    for f, g in pairs:
        g_nums = g._nums.items()
        if g_nums:
            m = den // (f._den * g._den)
            for e1, n1 in f._nums.items():
                n1 *= m
                for e2, n2 in g_nums:
                    e = e1 + e2
                    nums[e] = get(e, 0) + n1 * n2
        if f._ivals or g._ivals:
            _interval_products(ivals, f, g)
    return _canonical(den, nums, ivals)


def _interval_products(ivals: dict, f: LaurentPoly, g: LaurentPoly):
    """Add to ivals every product of a term of f with a term of g where one is an interval."""
    for (e1, c1), (e2, c2) in itertools.product(f._terms.items(), g._terms.items()):
        if isinstance(c1, RatInterval) or isinstance(c2, RatInterval):
            e = e1 + e2
            p = c1 * c2
            acc = ivals.get(e)
            ivals[e] = p if acc is None else acc + p


def l1_distance(f: LaurentPoly, g: LaurentPoly):
    """``(f - g).one_norm()`` in value and in type, without forming f - g.

    Over lcm(f._den, g._den) it sums |n| over the larger numerator map once,
    then corrects the sum at each exponent of the smaller one.  An exponent
    where either side has an interval term is taken out of that sum and
    subtracted in interval arithmetic; a difference of [0, 0] is dropped, as
    :func:`_fill` drops it, so the result is a ``RatInterval`` exactly when
    f - g keeps an interval term.
    """
    d1, d2 = f._den, g._den
    den = d1 if d1 == d2 else lcm(d1, d2)
    m1, m2 = den // d1, den // d2
    big, small, m_big, m_small = f._nums, g._nums, m1, m2
    if len(big) < len(small):
        big, small, m_big, m_small = small, big, m2, m1
    total = sum(map(abs, big.values())) * m_big
    get = big.get
    for e, n in small.items():
        b = get(e)
        if b is None:
            total += abs(n) * m_small
        else:
            total += abs(b * m_big - n * m_small) - abs(b) * m_big
    terms = []
    for e in f._ivals.keys() | g._ivals.keys():
        # the rational sum above counted this exponent's one numerator
        total -= abs(f._nums.get(e, 0) * m1 - g._nums.get(e, 0) * m2)
        diff = f.coeff(e) - g.coeff(e)
        if not diff == 0:
            terms.append(abs(diff))
    return sum(terms, Fraction(total, den))


def mat_mul(mb: LaurentMatrix, ma: LaurentMatrix) -> LaurentMatrix:
    """Exact product mb @ ma; mb is applied after ma."""
    if mb.cols != ma.rows:
        raise DimensionMismatch(f"inner dimensions {mb.cols} != {ma.rows}")
    cols = list(zip(*ma.entries))
    return LaurentMatrix([[_sum_products(zip(row, col)) for col in cols] for row in mb.entries])
