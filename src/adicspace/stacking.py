"""Cutting-and-stacking towers and their comparison with the rotation.

Stage 1 cuts [0, 1) into a(1) equal intervals and stacks them in order.
Stage n -> n+1 cuts the column into a(n+1) sub-columns of equal width,
appends q(n-2) spacer intervals on top of each sub-column (q(-1) = 0, so
stage 2 adds none), and restacks the sub-columns left to right.  Heights
follow q(n+1) = a(n+1) q(n) + q(n-1): each sub-column reaches q(n) levels
and the new stack has a(n+1) q(n).

Spacers are freshly allocated mass: the space starts as [0, 1) and grows to
[0, L_n), L_n = q(n-1) / (a(1) ... a(n-1)), every endpoint an exact
rational.  No rescaling is applied to the stored endpoints, so the stage
maps stay exact translations; comparisons against the rotation angle fold
translations mod 1.

Every level of the stage-n tower has width 1/D, D = a(1) ... a(n), and the
S = height levels tile [0, L_n) = [0, S/D).  So a tower is stored as
integers: level i is the slot [starts[i], starts[i] + 1) in units of 1/D,
and the starts are a permutation of range(S).  Cutting multiplies every
start by a(n+1) and adds the sub-column index; spacers take the next free
slots.  So the slot is the level's word: a slot s < D, written in the mixed
radix a(1), ..., a(n) with the most significant digit first, has the digits
x_1 - 1, ..., x_n - 1 of the depth-n cylinder x_1 ... x_n that the level
carves, and a slot s >= D is a spacer.  Locating a point finds its slot
floor(x D) and the level whose start is that slot, and a translation mod 1
is (starts[i+1] - starts[i] mod D) / D.  The rotation comparison walks no
grid: of the G points g L / G, slot s holds the ceil((s+1) G / S) -
ceil(s G / S) with s G <= g S < (s+1) G.  The ``Fraction`` views
``intervals``, ``width`` and ``total_space`` are derived once per tower on
first use; a report writes the levels from the integers instead
(:meth:`Tower.json_items`), in joined runs from one text per slot boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Tuple

from . import rotation
from .errors import BadInput, InsufficientDepth, PointOutsideTower, TopLevel, check_budget
from .intervals import RatInterval
from .laurent import fraction_text
from .rotation import CFExpansion


@dataclass(frozen=True)
class Tower:
    """A stack of disjoint levels of width 1/``denominator`` tiling [0, L).

    Level i is the slot [starts[i], starts[i] + 1) in units of
    1/``denominator``; the starts are a permutation of ``range(height)``.
    """

    stage: int
    starts: Tuple[int, ...]
    denominator: int

    @property
    def height(self) -> int:
        return len(self.starts)

    @cached_property
    def width(self) -> Fraction:
        return Fraction(1, self.denominator)

    @cached_property
    def total_space(self) -> Fraction:
        """The space is [0, total_space)."""
        return Fraction(self.height, self.denominator)

    @cached_property
    def intervals(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        ends = [Fraction(s, self.denominator) for s in range(self.height + 1)]
        return tuple((ends[s], ends[s + 1]) for s in self.starts)

    def json_items(self, indent: str, batch: int):
        """The items of ``json.dumps([[str(lo), str(hi)] for lo, hi in self.intervals], indent=2)``.

        ``indent`` is the newline and indentation before each item.  From one
        text per slot boundary, the levels are yielded in tower order in runs
        of at most ``batch``, each run its items joined by "," + ``indent``.
        """
        pair, sep, den, starts = indent + "  ", "," + indent, self.denominator, self.starts
        # fraction_text is digits and '/': quoting it is its JSON string
        ends = [f'{pair}"{fraction_text(s, den)}"' for s in range(len(starts) + 1)]
        for i in range(0, len(starts), batch):
            yield sep.join([f"[{ends[s]},{ends[s + 1]}{indent}]" for s in starts[i:i + batch]])


def _check_height(cf: CFExpansion, stage: int):
    """Refuse a tower of over SIZE_CAP levels before it is built."""
    if stage < 1:
        raise BadInput("stage must be >= 1")
    if stage > cf.depth:
        raise InsufficientDepth(f"stage {stage} needs {stage} partial quotients")
    # h <- a(n+1) (h + q(n-2)) from h = a(1) is a(stage) q(stage-1): a(n) q(n-1) + q(n-2) = q(n)
    check_budget(f"the stage-{stage} tower height", cf.a(stage) * cf.q(stage - 1),
                 rotation.SIZE_CAP)


def build_tower(cf: CFExpansion, stage: int) -> Tower:
    _check_height(cf, stage)
    den = cf.a(1)
    starts = list(range(den))
    for n in range(1, stage):
        # slot s becomes slots s*cuts .. s*cuts + cuts - 1 in units of 1/(den*cuts);
        # spacers take the fresh slots above the current space, bottom first
        cuts = cf.a(n + 1)
        spacers = cf.q(n - 2)
        next_free = len(starts) * cuts
        new_starts: List[int] = []
        for k in range(cuts):
            new_starts += [s * cuts + k for s in starts]
            new_starts += range(next_free, next_free + spacers)
            next_free += spacers
        starts, den = new_starts, den * cuts
    return Tower(stage=stage, starts=tuple(starts), denominator=den)


def locate(t: Tower, x: Fraction) -> int:
    """Index of the level containing x, or PointOutsideTower."""
    q = Fraction(x)
    slot = q.numerator * t.denominator // q.denominator
    if not 0 <= slot < t.height:
        raise PointOutsideTower(f"{x} is not inside any level")
    return t.starts.index(slot)


def tower_map(t: Tower, x: Fraction) -> Fraction:
    """The stage map: translate x one level up; TopLevel on the last level."""
    x = Fraction(x)
    i = locate(t, x)
    if i == t.height - 1:
        raise TopLevel(f"{x} lies on the top level")
    return x + Fraction(t.starts[i + 1] - t.starts[i], t.denominator)


# -- comparison against the rotation -------------------------------------------


def circle_distance(value: Fraction, alpha: RatInterval) -> RatInterval:
    """Enclosure of the distance from value - alpha to the nearest integer, for any alpha.

    Over x = value - alpha = [a, b] that distance, c(t) = min(t mod 1, -t mod 1),
    is 0 at the integers, 1/2 at the half-integers and linear between.  So its
    least value is 0 if [a, b] holds an integer and min(c(a), c(b)) if not,
    and its greatest is 1/2 if [a, b] holds a half-integer and max(c(a), c(b))
    if not.
    """
    half = Fraction(1, 2)
    a, b = value - alpha.hi, value - alpha.lo
    ends = [min(t % 1, -t % 1) for t in (a, b)]
    lo = 0 if math.floor(b) >= a else min(ends)
    hi = half if math.floor(b - half) + half >= a else max(ends)
    return RatInterval(lo, hi)


@dataclass(frozen=True)
class TranslationStat:
    value: Fraction          # translation mod 1
    level_count: int
    grid_mass: int
    distance: RatInterval    # circle distance to the angle enclosure


@dataclass(frozen=True)
class RotationComparison:
    stage: int
    grid: int
    counted: int             # grid points outside the top level
    tolerance: Fraction
    stats: Tuple[TranslationStat, ...]
    in_mass: int

    @property
    def out_fraction(self) -> Optional[Fraction]:
        """Share of counted points out of tolerance; None when none is counted (0/0)."""
        return Fraction(self.counted - self.in_mass, self.counted) if self.counted else None


def compare_with_rotation(t: Tower, cf: CFExpansion, grid: int,
                          tolerance: Fraction) -> RotationComparison:
    """Distribution of T(x) - x (mod 1) over an equispaced grid, against alpha.

    A grid point is in tolerance when the circle distance of its level's
    translation to the angle enclosure is certified <= tolerance; points on
    the top level are excluded from the denominator.  The grid is never
    walked: point g sits at g L / G, which is slot floor(g S / G) for S =
    height, so slot s holds the ceil((s+1) G / S) - ceil(s G / S) points
    with s G <= g S < (s+1) G.
    """
    if grid < 1:
        raise BadInput("grid must be >= 1")
    if tolerance < 0:
        raise BadInput("tolerance must be >= 0")
    alpha = cf.alpha()
    den, starts, height = t.denominator, t.starts, len(t.starts)
    first = [-(-s * grid // height) for s in range(height + 1)]  # ceil(s G / S)
    # translation mod 1 of level i -> i+1, keyed by its numerator over den
    by_key = {}
    for lo, hi in zip(starts, starts[1:]):
        key = (hi - lo) % den
        mass, levels = by_key.get(key, (0, 0))
        by_key[key] = (mass + first[lo + 1] - first[lo], levels + 1)
    top = starts[-1]
    counted = grid - (first[top + 1] - first[top])
    stats = []
    in_mass = 0
    for key in sorted(by_key):
        mass, levels = by_key[key]
        v = Fraction(key, den)
        dist = circle_distance(v, alpha)
        if dist.hi <= tolerance:
            in_mass += mass
        stats.append(TranslationStat(value=v, level_count=levels, grid_mass=mass, distance=dist))
    return RotationComparison(stage=t.stage, grid=grid, counted=counted,
                              tolerance=Fraction(tolerance), stats=tuple(stats),
                              in_mass=in_mass)
