"""Closed rational intervals: the certified-enclosure coefficient mode.

All endpoints are exact ``Fraction``s, so interval arithmetic here is exact
set arithmetic (no outward rounding is ever needed).  Mixed expressions with
``int``/``Fraction`` operands coerce to point intervals.  :func:`exact_sum`
adds ints, ``Fraction``s and intervals with one ``Fraction`` per endpoint.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RatInterval:
    """The closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = _as_fraction(lo)
        hi = lo if hi is None else _as_fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("RatInterval is immutable")

    @staticmethod
    def point(x) -> "RatInterval":
        return RatInterval(_as_fraction(x))

    @staticmethod
    def coerce(x) -> "RatInterval":
        return x if isinstance(x, RatInterval) else RatInterval.point(x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        return self.lo <= x <= self.hi

    def strictly_inside(self, lo, hi) -> bool:
        """True when [self] lies strictly inside the open interval (lo, hi)."""
        return _as_fraction(lo) < self.lo and self.hi < _as_fraction(hi)

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        o = RatInterval.coerce(other)
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-RatInterval.coerce(other))

    def __rsub__(self, other):
        return RatInterval.coerce(other) + (-self)

    def __mul__(self, other):
        o = RatInterval.coerce(other)
        if self.lo >= 0 and o.lo >= 0:  # the four-product rule's min and max
            return RatInterval(self.lo * o.lo, self.hi * o.hi)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatInterval.coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError(f"divisor interval [{o.lo}, {o.hi}] contains zero")
        if self.lo >= 0 and o.lo > 0:  # the four-quotient rule's min and max
            return RatInterval(self.lo / o.hi, self.hi / o.lo)
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return RatInterval(min(quotients), max(quotients))

    def __rtruediv__(self, other):
        return RatInterval.coerce(other) / self

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def __eq__(self, other):
        if isinstance(other, RatInterval):
            return self.lo == other.lo and self.hi == other.hi
        if isinstance(other, (int, Fraction)):
            return self.lo == other == self.hi
        return NotImplemented

    def __hash__(self):
        # A point interval equals its rational, so it must hash like one.
        if self.lo == self.hi:
            return hash(self.lo)
        return hash((self.lo, self.hi))

    def __repr__(self):
        if self.lo == self.hi:
            return f"RatInterval({self.lo})"
        return f"RatInterval({self.lo}, {self.hi})"


def fraction_sum(pairs) -> Fraction:
    """The sum of n/d over the (n, d) int pairs, d > 0, as one ``Fraction`` over the lcm of the d."""
    by_den = {}
    for n, d in pairs:
        by_den[d] = by_den.get(d, 0) + n
    return _sum_by_den(by_den)


def exact_sum(values):
    """``sum(values, Fraction(0))`` in value and in type, for ints, ``Fraction``s and intervals.

    Each endpoint's numerators are added per denominator, then over the lcm
    of the denominators: one ``Fraction`` per endpoint instead of one per
    value.  The sum is a ``RatInterval`` exactly when a value is one.
    """
    lo, hi, interval = {}, {}, False
    for v in values:
        if isinstance(v, RatInterval):
            a, b, interval = v.lo, v.hi, True
        elif isinstance(v, (int, Fraction)):
            a = b = v
        else:
            raise TypeError(f"cannot add {v!r} exactly")
        lo[a.denominator] = lo.get(a.denominator, 0) + a.numerator
        hi[b.denominator] = hi.get(b.denominator, 0) + b.numerator
    low = _sum_by_den(lo)
    if not interval:
        return low
    return RatInterval(low, _sum_by_den(hi))


def _sum_by_den(by_den: dict) -> Fraction:
    """The sum of n/d over a {d: n} map of ints, as one ``Fraction`` over the lcm of the d."""
    den = lcm(*by_den)
    return Fraction(sum(n * (den // d) for d, n in by_den.items()), den)
