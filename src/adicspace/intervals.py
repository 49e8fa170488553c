"""Closed rational intervals: the certified-enclosure coefficient mode.

All endpoints are exact ``Fraction``s, so interval arithmetic here is exact
set arithmetic (no outward rounding is ever needed).  Mixed expressions with
``int``/``Fraction`` operands coerce to point intervals.
"""

from __future__ import annotations

from fractions import Fraction


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
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatInterval.coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError(f"divisor interval [{o.lo}, {o.hi}] contains zero")
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
