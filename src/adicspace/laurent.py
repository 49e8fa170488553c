"""Sparse Laurent polynomials over exact rationals, and matrices of them.

A polynomial is a finite sum of terms c * x^e.  Exponents are plain Python
ints (arbitrary precision; exponents like 2**(8*M*N) occur in the circulant
products).  A coefficient is an exact rational, or a
:class:`adicspace.intervals.RatInterval` in certified-enclosure mode; the
two kinds mix freely inside one polynomial.

Store: the rational terms share one positive ``int`` denominator ``_den``
and keep their ``int`` numerators in ``_nums`` (exponent -> nonzero
numerator), reduced so that gcd(_den, all numerators) = 1, with ``_den`` = 1
when there are none.  An interval term [lo, hi] keeps its two endpoints'
``int`` numerators in two maps on the same exponents, ``_lo`` over
``_lo_den`` and ``_hi`` over ``_hi_den``, each reduced the same way; their
exponents are disjoint from those of ``_nums``, and [0, 0] is never stored.
So sums and products of either kind are sums and products of plain ints,
with one gcd per map of a result instead of one per term.  A term that meets
an interval in a sum or product is computed in interval arithmetic and stays
an interval, even a point one.

Every product goes through :func:`_sum_products`, which adds up f*g over
(f, g) pairs; ``f * g`` is one pair, ``scale(c)`` is the pair (f, c x^0),
``shift(k)`` is the pair (f, x^k), and :func:`mat_mul` and
:meth:`LaurentMatrix.mul_vector` zip rows.  Its one integer loop,
:func:`_int_products`, sums the products of (den, numerator map) factor
pairs over the lcm of their denominators.  The rational terms are one run
of it.  A product with an interval in it and no negative endpoint is two
more, one per endpoint, a rational being its own point interval; any other
goes term by term through ``RatInterval``.
Every new polynomial goes through one canonicaliser, :func:`_fill`.  The l1
distance of two rational polynomials, :func:`l1_distance`, is summed from
their maps without forming the difference; with an interval term it is the
norm of the difference.

Canonical form: zero coefficients are never stored (for an interval, zero
means [0, 0]), so ``==`` on the maps is semantic equality; a point interval
equals, and hashes like, its rational.  ``_terms`` is a read-only view as
exponent -> ``Fraction`` or ``RatInterval``, and ``items``/``coeff`` give
coefficients the same way.  Iteration and :meth:`LaurentPoly.to_json`, the
library's JSON view, are ordered by exponent.  A report's text of a
polynomial is made by one method, :meth:`LaurentPoly.json_items`, ordered by
exponent string as ``json.dumps(sort_keys=True)`` orders keys, in joined runs;
when every term has one coefficient, a run is one join of its key strings.
Either way every derived report is deterministic.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .errors import BadInput, DimensionMismatch, check_text_digits, decimal_digits
from .intervals import RatInterval, fraction_sum

Coeff = Union[Fraction, int, RatInterval]

# ASCII digits only: int() and Fraction() also read "2_0" and the digits of other scripts
_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")
_RATIONAL_TEXT = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def parse_integer(what: str, text: str) -> int:
    """``int(text)`` for a signed or unsigned decimal integer; anything else is a BadInput."""
    if not _INTEGER_TEXT.fullmatch(text):
        raise BadInput(f"{what} must be a decimal integer, not {text!r}")
    return int(check_text_digits(what, text))


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

    __slots__ = ("_den", "_nums", "_lo_den", "_lo", "_hi_den", "_hi")

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        rationals, los, his = {}, {}, {}
        for exp, c in (terms.items() if terms else ()):
            if isinstance(c, RatInterval):
                los[int(exp)], his[int(exp)] = c.lo, c.hi
            elif isinstance(c, (int, Fraction)):
                rationals[int(exp)] = c
            else:
                raise TypeError(f"unsupported coefficient {c!r}")
        if los:
            _fill(self, *_over_lcm(rationals), *_over_lcm(los), *_over_lcm(his))
        else:
            _fill(self, *_over_lcm(rationals))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_ints(nums: dict, den: int = 1) -> "LaurentPoly":
        """The polynomial sum of (n / den) x^e over an {e: int n} map; takes ownership of nums."""
        return _canonical(den, nums)

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
        terms.update((e, self._interval(e)) for e in self._lo)
        return terms

    def _interval(self, e: int) -> RatInterval:
        """The interval term at exponent e, which must have one."""
        return RatInterval(Fraction(self._lo[e], self._lo_den), Fraction(self._hi[e], self._hi_den))

    def items(self):
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._terms.items())

    def coeff(self, exp: int):
        n = self._nums.get(exp)
        if n is not None:
            return Fraction(n, self._den)
        return self._interval(exp) if exp in self._lo else Fraction(0)

    def support(self):
        return tuple(sorted([*self._nums, *self._lo]))

    def num_terms(self) -> int:
        return len(self._nums) + len(self._lo)

    def is_zero(self) -> bool:
        return not (self._nums or self._lo)

    def is_nonnegative(self) -> bool:
        return all(n > 0 for n in self._nums.values()) and all(n >= 0 for n in self._lo.values())

    def eval_at_one(self):
        """Sum of all coefficients (the image under x -> 1)."""
        rational = (sum(self._nums.values()), self._den)
        if not self._lo:
            return Fraction(*rational)
        return RatInterval(fraction_sum([rational, (sum(self._lo.values()), self._lo_den)]),
                           fraction_sum([rational, (sum(self._hi.values()), self._hi_den)]))

    def one_norm(self):
        """Sum of absolute values of the coefficients; a RatInterval when a term is an interval."""
        rational = (sum(map(abs, self._nums.values())), self._den)
        if not self._lo:
            return Fraction(*rational)
        hi = self._hi
        return _abs_sum(rational, [(n, hi[e]) for e, n in self._lo.items()],
                        self._lo_den, self._hi_den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._lo or other._lo:
            return _canonical(*_add_maps(self._den, self._nums, other._den, other._nums),
                              *_add_maps(self._lo_den, self._lo, other._lo_den, other._lo),
                              *_add_maps(self._hi_den, self._hi, other._hi_den, other._hi))
        return _canonical(*_add_maps(self._den, self._nums, other._den, other._nums))

    def __neg__(self):
        # -[lo, hi] = [-hi, -lo]
        return _canonical(self._den, {e: -n for e, n in self._nums.items()},
                          self._hi_den, {e: -n for e, n in self._hi.items()},
                          self._lo_den, {e: -n for e, n in self._lo.items()})

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
        if self._lo or other._lo:  # a point interval equals its rational
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
        its numerator over ``_den`` and ``_den``.  An interval endpoint is
        written reduced too, so its ints are its own numerator and denominator,
        not the shared denominator of its map.
        """
        widest = max(self._den, max(map(abs, self._nums.values()), default=0))
        for ends, den in ((self._lo, self._lo_den), (self._hi, self._hi_den)):
            for n in ends.values():
                g = gcd(n, den)
                widest = max(widest, abs(n) // g, den // g)
        return widest

    def json_items(self, indent: str, batch: int):
        """The items of ``json.dumps(self.to_json(), sort_keys=True, indent=2)``, in joined runs.

        ``indent`` is the newline and indentation before each item.  A key is
        '-' and digits, which all sort above '"', so sorting the items
        '"e": text' as strings, or sorting the key strings, gives the key
        order of ``sort_keys``.  Each run of :func:`_key_groups` (one run when
        there are at most ``batch`` terms) is yielded as soon as it is made,
        as the text of its items in that order joined by "," + ``indent``:
        none is empty, none holds more than ``batch`` items, and the zero
        polynomial yields none.  When every term has one and the same
        rational coefficient, a run is one join of its sorted key strings
        around that coefficient's text; otherwise each item is formatted
        once, with one text per distinct numerator.  A reader that writes
        each run before it asks for the next holds the strings of two runs
        at most.
        """
        pair, sep = indent + "  ", "," + indent
        den, nums, lo, hi = self._den, self._nums, self._lo, self._hi
        lo_den, hi_den = self._lo_den, self._hi_den
        # fraction_text is digits, '-' and '/': quoting it is its JSON string
        text = {n: f'"{fraction_text(n, den)}"' for n in set(nums.values())}
        keys = sorted(itertools.chain(nums, lo)) if lo else sorted(nums)
        groups = _key_groups(keys, batch) if len(keys) > batch else [keys] if keys else ()
        if not lo and len(text) == 1:
            (t,) = text.values()
            tail = f'": {t}'
            glue = tail + sep + '"'
            for group in groups:
                yield '"' + glue.join(sorted(map(str, group))) + tail
            return
        for group in groups:
            items = [f'"{e}": {text[nums[e]]}' if e in nums else
                     f'"{e}": [{pair}"{fraction_text(lo[e], lo_den)}",'
                     f'{pair}"{fraction_text(hi[e], hi_den)}"{indent}]'
                     for e in group]
            items.sort()
            yield sep.join(items)

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "LaurentPoly":
        """Inverse of :meth:`to_json`; a malformed term is a ``BadInput`` naming its exponent."""
        if not isinstance(data, dict):
            raise BadInput(f"a polynomial must be a JSON object, not a {type(data).__name__}")
        terms, keys = {}, {}
        for e, c in data.items():
            try:
                exp = int(check_text_digits("an exponent", e))
                terms[exp] = coeff_from_json(c)
            except ValueError as exc:
                raise BadInput(f"term of exponent {e!r}: {exc}") from exc
            if keys.setdefault(exp, e) != e:
                raise BadInput(f"keys {keys[exp]!r} and {e!r} name one exponent, {exp}")
        return LaurentPoly(terms)


def _key_groups(keys: list, batch: int):
    """The ascending ``keys`` in runs of their string order, none empty and none over ``batch``.

    In string order the negative keys come first, then 0, then the positive
    keys; each sign's keys come in the runs of :func:`_digit_runs` of |e|.
    """
    i, j = bisect_left(keys, 0), bisect_right(keys, 0)
    for run in _digit_runs([-e for e in reversed(keys[:i])], batch):
        yield [-e for e in run]
    if i < j:
        yield keys[i:j]
    yield from _digit_runs(keys, batch)


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
_NO_TERMS = MappingProxyType({})  # the endpoint maps of every polynomial without an interval


def _fill(out: LaurentPoly, den: int, nums: dict, lo_den: int = 1, lo: dict | None = None,
          hi_den: int = 1, hi: dict | None = None) -> LaurentPoly:
    """Canonicalise the terms n/den (n in nums) and [l/lo_den, h/hi_den] into ``out``.

    ``lo`` and ``hi`` hold the interval terms' endpoint numerators on the
    same exponents; the maps are taken over.  Zero numerators and [0, 0]
    intervals are dropped, an exponent present in nums and in lo becomes one
    interval, and each map is reduced by the gcd of its numerators and its
    denominator.
    """
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    if lo:
        both = nums.keys() & lo.keys() if nums else ()
        if both:  # each endpoint gains the rational at its exponent
            moved = {e: nums.pop(e) for e in both}
            lo_den, lo = _add_maps(lo_den, lo, den, moved)
            hi_den, hi = _add_maps(hi_den, hi, den, moved)
        if 0 in lo.values():
            for e in [e for e, n in lo.items() if not n and not hi[e]]:
                del lo[e], hi[e]
    if lo:
        lo_den, lo = _reduce(lo_den, lo)
        hi_den, hi = _reduce(hi_den, hi)
    else:
        lo_den, lo, hi_den, hi = 1, _NO_TERMS, 1, _NO_TERMS
    den, nums = _reduce(den, nums)
    _set(out, "_den", den)
    _set(out, "_nums", nums)
    _set(out, "_lo_den", lo_den)
    _set(out, "_lo", lo)
    _set(out, "_hi_den", hi_den)
    _set(out, "_hi", hi)
    return out


def _canonical(den: int, nums: dict, lo_den: int = 1, lo: dict | None = None,
               hi_den: int = 1, hi: dict | None = None) -> LaurentPoly:
    """A new polynomial from the arguments of :func:`_fill` after ``out``."""
    return _fill(_new(LaurentPoly), den, nums, lo_den, lo, hi_den, hi)


def _reduce(den: int, nums: dict) -> tuple:
    """(den, nums) divided through by the gcd of den and the numerators; takes over nums."""
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g == 1:
        return den, nums
    return den // g, {e: n // g for e, n in nums.items()}


def _over_lcm(values: dict) -> tuple:
    """(den, {e: numerator over den}) for an {e: int or Fraction} map, den the lcm of theirs."""
    den = lcm(*(c.denominator for c in values.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in values.items()}


def _add_maps(d1: int, m1: dict, d2: int, m2: dict) -> tuple:
    """(den, sums) of two numerator maps over their lcm den, zeros kept."""
    den = d1 if d1 == d2 else lcm(d1, d2)
    k1, k2 = den // d1, den // d2
    nums = dict(m1) if k1 == 1 else {e: n * k1 for e, n in m1.items()}
    get = nums.get
    for e, n in m2.items():
        nums[e] = get(e, 0) + n * k2
    return den, nums


def _abs_sum(rational: tuple, ends: list, lo_den: int, hi_den: int) -> RatInterval:
    """n/d plus the sum of |[l/lo_den, h/hi_den]| over the (l, h) numerator pairs.

    |[l, h]| is [l, h] when l >= 0, [-h, -l] when h <= 0 and [0, max(-l, h)]
    otherwise, so each endpoint of the sum gathers numerators over both
    denominators.  ``rational`` is the (n, d) pair.
    """
    lo_l = lo_h = hi_l = hi_h = 0
    for l, h in ends:
        if l >= 0:
            lo_l += l
            hi_h += h
        elif h <= 0:
            lo_h -= h
            hi_l -= l
        elif -l * hi_den > h * lo_den:
            hi_l -= l
        else:
            hi_h += h
    return RatInterval(fraction_sum([rational, (lo_l, lo_den), (lo_h, hi_den)]),
                       fraction_sum([rational, (hi_l, lo_den), (hi_h, hi_den)]))


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

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"LaurentMatrix({self.rows}x{self.cols})"


def _sum_products(pairs) -> LaurentPoly:
    """The sum of f * g over the (f, g) pairs.

    Rational terms are multiplied and added as ints by :func:`_int_products`.
    A term product with an interval in it is an interval, and a rational is
    its own point interval, ``(den, nums)`` on both ends.  [a, b] [c, d] is
    [ac, bd] when a, c >= 0, so a factor pair with no negative endpoint is
    two integer products, one on the lower-endpoint maps and one on the
    upper; any other goes term by term through ``RatInterval.__mul__``.
    """
    pairs = list(pairs)
    den, nums = _int_products([((f._den, f._nums), (g._den, g._nums)) for f, g in pairs])
    if not any(f._lo or g._lo for f, g in pairs):
        return _canonical(den, nums)
    lo_pairs, hi_pairs, signed = [], [], {}
    for f, g in pairs:
        f_rat, g_rat = ((f._den, f._nums),) * 2, ((g._den, g._nums),) * 2
        f_iv = ((f._lo_den, f._lo), (f._hi_den, f._hi))
        g_iv = ((g._lo_den, g._lo), (g._hi_den, g._hi))
        for (a_lo, a_hi), (c_lo, c_hi) in ((f_iv, g_iv), (f_iv, g_rat), (f_rat, g_iv)):
            if not (a_lo[1] and c_lo[1]):
                continue
            if min(a_lo[1].values()) >= 0 <= min(c_lo[1].values()):
                lo_pairs.append((a_lo, c_lo))
                hi_pairs.append((a_hi, c_hi))
                continue
            c_terms = _enclosures(c_lo, c_hi)
            for e1, x in _enclosures(a_lo, a_hi):
                for e2, y in c_terms:
                    e = e1 + e2
                    signed[e] = signed[e] + x * y if e in signed else x * y
    lo, hi = _int_products(lo_pairs), _int_products(hi_pairs)
    if signed:
        lo = _add_maps(*lo, *_over_lcm({e: s.lo for e, s in signed.items()}))
        hi = _add_maps(*hi, *_over_lcm({e: s.hi for e, s in signed.items()}))
    return _canonical(den, nums, *lo, *hi)


def _int_products(pairs: list) -> tuple:
    """(den, sums): the products of the ((d1, m1), (d2, m2)) numerator-map pairs, each over
    d1 d2, summed over den, the lcm of the d1 d2; zero sums are kept."""
    den = lcm(*(d1 * d2 for (d1, _), (d2, _) in pairs))
    nums: dict = {}
    get = nums.get
    for (d1, m1), (d2, m2) in pairs:
        m2 = m2.items()
        if m2:
            m = den // (d1 * d2)
            for e1, n1 in m1.items():
                n1 *= m
                for e2, n2 in m2:
                    e = e1 + e2
                    nums[e] = get(e, 0) + n1 * n2
    return den, nums


def _enclosures(lo: tuple, hi: tuple) -> list:
    """The (e, RatInterval) terms of the (lo_den, lo map) and (hi_den, hi map) endpoint pair."""
    (lo_den, lo), (hi_den, hi) = lo, hi
    return [(e, RatInterval(Fraction(n, lo_den), Fraction(hi[e], hi_den))) for e, n in lo.items()]


def l1_distance(f: LaurentPoly, g: LaurentPoly):
    """``(f - g).one_norm()``; for two rational polynomials, summed without forming f - g.

    Over lcm(f._den, g._den) it sums |n| over the larger numerator map once,
    then corrects the sum at each exponent of the smaller one.
    """
    if f._lo or g._lo:
        return (f - g).one_norm()
    d1, d2 = f._den, g._den
    den = d1 if d1 == d2 else lcm(d1, d2)
    big, small, m_big, m_small = f._nums, g._nums, den // d1, den // d2
    if len(big) < len(small):
        big, small, m_big, m_small = small, big, m_small, m_big
    total = sum(map(abs, big.values())) * m_big
    get = big.get
    for e, n in small.items():
        b = get(e)
        if b is None:
            total += abs(n) * m_small
        else:
            total += abs(b * m_big - n * m_small) - abs(b) * m_big
    return Fraction(total, den)


def mat_mul(mb: LaurentMatrix, ma: LaurentMatrix) -> LaurentMatrix:
    """Exact product mb @ ma; mb is applied after ma."""
    if mb.cols != ma.rows:
        raise DimensionMismatch(f"inner dimensions {mb.cols} != {ma.rows}")
    cols = list(zip(*ma.entries))
    return LaurentMatrix([[_sum_products(zip(row, col)) for col in cols] for row in mb.entries])
