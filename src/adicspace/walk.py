"""The group-invariant matrix-valued random walk on Z attached to (M_n).

A state is (position m, vertex i, level n).  One step from vertex i reads
column i of M_n: each term c x^b of entry (j, i) moves the walker to
(m + b, j) with probability c.  Since only the displacement p - m enters,
the walk commutes with the Z-shift of the position coordinate.

A law at level n is a column of Laurent polynomials, one per vertex j of
V_n, with the mass at (d, j) as the coefficient of x^d in entry j: the
exact law is the start column pushed forward through the M_n, and the
empirical law holds integer counts.

The simulator draws from a counter-based generator: three chained rounds of
the SplitMix64 finalizer over (seed, trial, step).  Trajectories are thus
indexed by (seed, trial), independent, and reproducible in any order.  The
(seed, trial) prefix of the counter is fixed along a trajectory, so it is
computed once per trial and each step costs one round.  No draw depends on
the path taken, so a block of up to ``_BLOCK`` trials is mixed at once: the
block's 64-bit words sit in the 128-bit lanes of one int, and each round is a
few whole-int shifts, xors, masks and multiplies.  Masking before each
multiply keeps every product inside its lane, so each lane gets exactly the
draw that the scalar ``_mix64`` gives: the draws, and so every histogram for
a seed, do not depend on the block size.  Memory is bounded by the block, not
by the trial count.

Sampling is pure integer comparison: a 64-bit draw u selects the first
outcome whose cumulative probability cum satisfies u < ceil(cum * 2^64),
which holds exactly when u/2^64 < cum, so the per-step sampling bias is
below 2^-64.  Each column is checked once to be an exact probability vector,
so its last threshold is exactly 2^64 and no draw passes the last outcome.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .dimspace import DimensionSpace, push_forward
from .errors import DEFAULT_BUDGET, BadInput, DepthExceeded, DimensionMismatch, RangeError
from .intervals import RatInterval
from .laurent import LaurentPoly

_MASK = (1 << 64) - 1
_BLOCK = 4096  # trials mixed together, one per 128-bit lane


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _pack(values) -> int:
    """The 64-bit ``values`` as one int, value i in bits 128i..128i+63 and 0 above."""
    words = array("Q", bytes(16 * len(values)))
    words[0::2] = array("Q", values)
    return int.from_bytes(words, sys.byteorder)


def _unpack(z: int, lanes: int) -> array:
    """The low 64 bits of each of the first ``lanes`` 128-bit lanes of z."""
    return array("Q", z.to_bytes(16 * lanes, sys.byteorder))[0::2]


def _mix_lanes(z: int, mask: int) -> int:
    """``_mix64`` of each lane of z; ``mask`` holds _MASK in each lane.

    A shift carries a neighbour lane's bits only into bits 64..127 of a lane,
    and the mask clears them before the multiply, whose product is then below
    2^128.  Bits 64..127 of each lane of the result are left uncleared.
    """
    z &= mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


@dataclass(frozen=True)
class WalkState:
    position: int
    vertex: int
    level: int


@dataclass(frozen=True)
class DisplacementHistogram:
    """A walk law, exact or empirical: a column with one polynomial per terminal vertex."""

    masses: Tuple[LaurentPoly, ...]
    trials: int = 0  # 0 for an exact law

    @property
    def kind(self) -> str:
        return "empirical" if self.trials else "exact"

    def normalized(self) -> Tuple[LaurentPoly, ...]:
        if not self.trials:
            return self.masses
        return tuple(f.scale(Fraction(1, self.trials)) for f in self.masses)

    def total_mass(self):
        return sum((f.eval_at_one() for f in self.masses), Fraction(0))


def _check_start(space: DimensionSpace, start: WalkState, n: int):
    """A walk from ``start`` to level n: 0 <= start.level <= n <= depth, vertex in V_start.level."""
    if not (0 <= n <= space.depth):
        raise RangeError(f"level {n} outside 0..{space.depth}")
    if not (0 <= start.level <= n):
        raise RangeError(f"start level {start.level} outside 0..{n}")
    if not (0 <= start.vertex < space.dims[start.level]):
        raise BadInput(f"vertex {start.vertex} outside level {start.level}")


def step_distribution(space: DimensionSpace, s: WalkState) -> List[Tuple[WalkState, object]]:
    """All positive-probability successors of s, with their probabilities."""
    if s.level >= space.depth:
        raise DepthExceeded(f"level {s.level} >= depth {space.depth}")
    _check_start(space, s, s.level + 1)
    m = space.matrices[s.level]
    return [(WalkState(s.position + exp, j, s.level + 1), c)
            for j in range(m.rows) for exp, c in m.entries[j][s.vertex].items()]


def exact_distribution(space: DimensionSpace, n: int, start: WalkState,
                       budget: int = DEFAULT_BUDGET) -> DisplacementHistogram:
    """Distribution after walking from level start.level to level n, exactly.

    It is the column x^position e_vertex at level start.level pushed forward
    to level n: the mass at (d, j) is the coefficient of x^d in entry j.  A
    walk with more paths than ``budget`` is refused before it is pushed.
    """
    _check_start(space, start, n)
    column = [LaurentPoly.zero()] * space.dims[start.level]
    column[start.vertex] = LaurentPoly.x(start.position)
    return DisplacementHistogram(tuple(push_forward(space, column, start.level, n, budget)))


def simulate(space: DimensionSpace, n: int, trials: int, seed: int,
             start: WalkState | None = None) -> DisplacementHistogram:
    """Empirical histogram over `trials` independent trajectories.

    Each step law must be exact positive rationals summing to 1, or it is a
    ``BadInput`` naming its level and vertex (enclosures would widen verdicts).
    """
    if trials < 1:
        raise BadInput("trials must be >= 1")
    start = start or WalkState(0, 0, 0)
    _check_start(space, start, n)
    # tables[lvl - start.level][v]: the step law from (0, v, lvl) as outcomes [(displacement,
    # vertex)] and integer thresholds ceil(cum * 2^64) of the exact cumulative probabilities.
    tables = []
    for lvl in range(start.level, n):
        level_tables = []
        for v in range(space.dims[lvl]):
            outcomes, thresholds, acc = [], [], Fraction(0)
            for s, c in step_distribution(space, WalkState(0, v, lvl)):
                if not (isinstance(c, Fraction) and c > 0):
                    raise BadInput(f"level {lvl} vertex {v} has {c}, not an exact p > 0")
                outcomes.append((s.position, s.vertex))
                acc += c
                thresholds.append(-((-acc.numerator << 64) // acc.denominator))
            if acc != 1:
                raise BadInput(f"the step law of level {lvl} vertex {v} sums to {acc}, not 1")
            level_tables.append((outcomes, thresholds))
        tables.append(level_tables)
    counts = [{} for _ in range(space.dims[n])]  # counts[j]: displacement -> trials ending there
    base = _mix64(seed ^ 0x9E3779B97F4A7C15)
    for first in range(0, trials, _BLOCK):
        lanes = min(_BLOCK, trials - first)
        one = _pack([1] * lanes)
        mask = one * _MASK
        # lane t holds _mix64(base + first + t), the trial's prefix, with bits 64..127 clear
        z = _mix_lanes(_pack([(base + t) & _MASK for t in range(first, first + lanes)]), mask) & mask
        pos, vtx = [start.position] * lanes, [start.vertex] * lanes
        for step, level_tables in enumerate(tables):
            draws = _unpack(_mix_lanes(z + step * one, mask), lanes)
            moves = [outcomes[bisect_right(thresholds, u)]
                     for (outcomes, thresholds), u in zip([level_tables[v] for v in vtx], draws)]
            pos = [p + exp for p, (exp, _) in zip(pos, moves)]
            vtx = [v for _, v in moves]
        for p, v in zip(pos, vtx):
            row = counts[v]
            row[p] = row.get(p, 0) + 1
    return DisplacementHistogram(tuple(map(LaurentPoly._from_ints, counts)), trials)


def tv_distance(a: DisplacementHistogram, b: DisplacementHistogram) -> Fraction:
    """Total variation distance: half the one-norm of the normalized column difference."""
    if len(a.masses) != len(b.masses):
        raise DimensionMismatch(f"laws on {len(a.masses)} and {len(b.masses)} vertices")
    # an interval term, even a point one, makes the total mass an interval
    if any(isinstance(h.total_mass(), RatInterval) for h in (a, b)):
        raise BadInput("tv_distance needs exact masses")
    return sum(((f - g).one_norm() for f, g in zip(a.normalized(), b.normalized())),
               Fraction(0)) / 2


def histogram_to_json(h: DisplacementHistogram) -> dict:
    out = {"kind": h.kind,
           "masses": {str(j): f.to_json() for j, f in enumerate(h.masses) if not f.is_zero()}}
    if h.trials:
        out["trials"] = h.trials
    return out
