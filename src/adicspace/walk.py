"""The group-invariant matrix-valued random walk on Z attached to (M_n).

A state is (position m, vertex i, level n).  One step from vertex i reads
column i of M_n: each term c x^b of entry (j, i) moves the walker to
(m + b, j) with probability c.  Since only the displacement p - m enters,
the walk commutes with the Z-shift of the position coordinate.

A law at level n is a column of Laurent polynomials, one per vertex j of
V_n, with the mass at (d, j) as the coefficient of x^d in entry j: the
exact law is the start column pushed forward through the M_n, and the
empirical law holds integer counts.  A law's report block holds these
polynomials themselves, for the report writer to format.

The simulator draws from a counter-based generator: three chained rounds of
the SplitMix64 finalizer over (seed, trial, step).  Trajectories are thus
indexed by (seed, trial), independent, and reproducible in any order.  The
(seed, trial) prefix of the counter is fixed along a trajectory, so it is
computed once per trial and each step costs one round.  No draw depends on
the path taken, so a block of up to ``_BLOCK`` (2,048) trials is mixed at
once: the block's 64-bit words sit in the lanes of one int, each lane two
words wide (more when the positions need it), and each round is a few
whole-int shifts, xors, masks and multiplies.  Masking before each multiply
keeps every product inside its lane, so each lane gets exactly the draw that
the scalar ``_mix64`` gives: the draws, and so every histogram for a seed, do
not depend on the block size.

Sampling is pure integer comparison: a 64-bit draw u selects the first
outcome whose cumulative probability cum satisfies u < ceil(cum * 2^64),
which holds exactly when u/2^64 < cum, so the per-step sampling bias is
below 2^-64.  Each column is checked once to be an exact probability vector,
so its last threshold is exactly 2^64 and no draw passes the last outcome.
The choice is made for the whole block at once, with no bisect and no
per-trial work: for a threshold 1 <= t <= 2^64, bit 64 of u + (2^64 - t) is
set exactly when u >= t, and the sum stays below 2^65, inside its lane.  One
add, shift and mask per distinct threshold of the level thus give a 0/1 lane
mask ge[t].  The block's state is one 0/1 mask per vertex, the lanes of the
trials at it, and one int of positions.  Outcome k of vertex v takes the
lanes of v with ge[t_(k-1)] set and ge[t_k] clear; these masks nest, so with
``here`` the lanes of v not yet taken, rest = here & ge[t_k] are the lanes
past outcome k and here ^ rest its own, and the last outcome takes ``here``
as it is.  Those lanes join the mask of the outcome's target vertex and, for
each set bit i of its displacement, the mask bits[i]; the lanes of distinct
outcomes are disjoint, so or-ing them in is adding them, and the positions
gain sum_i bits[i] << i, one add per displacement bit of the level.  The
finalizer's last xor-shift u = y ^ (y >> 31) changes bits 0..32 of y only,
so on a level whose thresholds are all multiples of 2^33 (every preset's)
y >= t exactly when u >= t, and the step compares y.  At the end of a block
each lane holds position * K + vertex, which is unpacked once and counted
with one ``Counter``; only the distinct keys are decoded.  Memory is bounded
by the block times the vertices, displacement bits and thresholds of one
level, not by the trial count or the depth.

A step thus costs one mixing round, an add, shift and mask per distinct
threshold, and a few bitwise operations per outcome of every occupied vertex
of its level, where a per-trial bisect costs about one lookup per trial.
The lane choice wins on levels with few vertices and outcomes (the
odometer, Morse and circulant:4 presets have at most 4 vertices and 8
outcomes a level) and loses on wide ones: the two are about even from 32 to
64 outcomes a level, where circulant:32 (64 outcomes) is about 1.2 times as
slow as the bisect.  A wide level also holds one block-sized int per vertex,
two per distinct threshold and one per displacement bit: the ``tracemalloc``
peak of a circulant:1000 walk is about 97 MiB, as its root has 1,000
thresholds.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .dimspace import DimensionSpace, push_forward
from .errors import DEFAULT_BUDGET, BadInput, DepthExceeded, DimensionMismatch, RangeError
from .intervals import RatInterval, exact_sum
from .laurent import LaurentPoly, l1_distance

_MASK = (1 << 64) - 1
_TOP = 1 << 64
_BLOCK = 2048  # trials sampled together, one per lane
_FINE = (1 << 33) - 1  # the bits that the finalizer's last xor-shift can change


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _set_bits(d: int) -> Tuple[int, ...]:
    """The indices of the set bits of d >= 0, lowest first."""
    return tuple(i for i in range(d.bit_length()) if d >> i & 1)


def _pack(values, width: int = 2) -> int:
    """The 64-bit ``values`` as one int of ``width``-word lanes, value i in lane i's low word."""
    words = array("Q", bytes(8 * width * len(values)))
    words[0::width] = array("Q", values)
    return int.from_bytes(words, sys.byteorder)


def _unpack(z: int, lanes: int, width: int = 2) -> array:
    """The low word of each of the first ``lanes`` ``width``-word lanes of z."""
    return array("Q", z.to_bytes(8 * width * lanes, sys.byteorder))[0::width]


def _premix_lanes(z: int, mask: int) -> int:
    """``_mix64`` of each lane of z short of its last xor-shift; ``mask`` holds _MASK in each lane.

    Lanes are at least two words wide.  A shift carries a neighbour lane's
    bits only into bits 64 and up of a lane, and the mask clears them before
    the multiply, whose product is then below 2^128.  Bits 64 and up of each
    lane of the result are clear.
    """
    z &= mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    return ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask


def _mix_lanes(z: int, mask: int) -> int:
    """``_mix64`` of each lane of z; bits 64 and up of each lane are left uncleared."""
    z = _premix_lanes(z, mask)
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
        return exact_sum(f.eval_at_one() for f in self.masses)


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
    A seed outside 0..2^64-1, which the generator would read modulo 2^64, is a
    ``BadInput`` too.
    """
    if trials < 1:
        raise BadInput("trials must be >= 1")
    if not 0 <= seed <= _MASK:
        raise BadInput(f"seed {seed} outside 0..2^64-1")
    start = start or WalkState(0, 0, 0)
    _check_start(space, start, n)
    # tables[lvl - start.level]: the step laws of level lvl as
    # (laws, cuts, coarse, nbits, k(lvl + 1)).  laws[v] lists the outcomes of vertex v as
    # (threshold, set bits of displacement - lo, vertex), the threshold ceil(cum * 2^64) of the
    # exact cumulative probability, up to the first outcome whose threshold is 2^64: that one
    # takes the threshold None, and no draw reaches those after it.  lo is the level's least
    # displacement, nbits the bit length of its largest displacement - lo, cuts its distinct
    # thresholds below 2^64, and coarse tells whether each cut is a multiple of 2^33.
    tables, offset, span = [], start.position, 0
    for lvl in range(start.level, n):
        laws = []
        # column v of M_lvl read once, its outcomes in step_distribution's order
        for v, column in enumerate(zip(*space.matrices[lvl].entries)):
            law, acc = [], Fraction(0)
            for j, entry in enumerate(column):
                if entry.is_zero():
                    continue
                for b, c in entry.items():
                    if not (isinstance(c, Fraction) and c > 0):
                        raise BadInput(f"level {lvl} vertex {v} has {c}, not an exact p > 0")
                    acc += c
                    law.append((-((-acc.numerator << 64) // acc.denominator), b, j))
            if acc != 1:
                raise BadInput(f"the step law of level {lvl} vertex {v} sums to {acc}, not 1")
            laws.append(law[:next(k for k, (t, _, _) in enumerate(law) if t == _TOP) + 1])
        moves = [b for law in laws for _, b, _ in law]
        lo = min(moves)
        offset, span = offset + lo, span + max(moves) - lo
        cuts = {t for law in laws for t, _, _ in law} - {_TOP}
        tables.append(([[(t if t < _TOP else None, _set_bits(b - lo), j) for t, b, j in law]
                        for law in laws],
                       cuts, not any(t & _FINE for t in cuts), (max(moves) - lo).bit_length(),
                       space.dims[lvl + 1]))
    # A trial ends at key = (position - offset) * K + vertex, below (span + 1) * K: one
    # 64-bit word on every walk short of 2^64 positions, more words past that.
    K = space.dims[n]
    key_words = max(1, -(-((span + 1) * K - 1).bit_length() // 64))
    width = max(2, key_words)  # words per lane
    tally = Counter()
    base = _mix64(seed ^ 0x9E3779B97F4A7C15)
    size = 0
    for first in range(0, trials, _BLOCK):
        lanes = min(_BLOCK, trials - first)
        if lanes != size:  # the first block and a short last one
            size = lanes
            one = _pack([1] * lanes, width)
            mask = one * _MASK
            ramp = _pack(range(lanes), width)
            lift = {}  # lift[t]: 2^64 - t in every lane, for the thresholds of one level
        # lane t holds _mix64(base + first + t), the trial's prefix, with bits 64 and up clear
        z = _mix_lanes(((base + first) & _MASK) * one + ramp, mask) & mask
        at = [0] * space.dims[start.level]  # at[v]: 1 in the lanes of the trials now at v
        at[start.vertex] = one
        pos = 0  # each lane: the trial's displacement less the lo of the levels so far
        for laws, cuts, coarse, nbits, k_next in tables:
            if cuts:
                # u: each lane's draw, or on a coarse level the y before the finalizer's last
                # xor-shift u = y ^ (y >> 31); that changes bits 0..32 only, so y >= t exactly
                # when u >= t for a multiple t of 2^33
                u = _premix_lanes(z, mask)
                if not coarse:
                    u = (u ^ (u >> 31)) & mask
                lift = {t: lift[t] if t in lift else (_TOP - t) * one for t in cuts}
                # ge[t]: 1 in the lanes where u >= t, which is bit 64 of u + 2^64 - t
                ge = {t: (u + lift[t]) >> 64 & one for t in cuts}
            z += one  # the step counter
            nxt = [0] * k_next
            # bits[i]: 1 in the lanes whose displacement has bit i set; the outcomes' lanes
            # are disjoint, so or-ing them in is adding them
            bits = [0] * nbits
            for here, law in zip(at, laws):
                if not here:
                    continue
                for t, set_bits, j in law:
                    if t is None:  # the last outcome takes the lanes left
                        sel = here
                    else:
                        rest = here & ge[t]  # the lanes past this outcome
                        sel, here = here ^ rest, rest  # rest lies inside here
                    if sel:
                        for i in set_bits:
                            m = bits[i]
                            bits[i] = m | sel if m else sel
                        m = nxt[j]
                        nxt[j] = m | sel if m else sel
            for i, m in enumerate(bits):
                if m:
                    pos += m << i if i else m  # a shift by 0 would copy m
            at = nxt
        key = pos * K + sum(j * m for j, m in enumerate(at) if j and m)
        if key_words == 1:
            tally.update(_unpack(key, lanes, width))
        else:  # a key is its words, low first
            tally.update(zip(*(_unpack(key >> 64 * i, lanes, width) for i in range(key_words))))
    counts = [{} for _ in range(K)]  # counts[j]: displacement -> trials ending there
    for key, c in tally.items():
        if key_words > 1:
            key = sum(w << 64 * i for i, w in enumerate(key))
        p, j = divmod(key, K)
        counts[j][offset + p] = c
    return DisplacementHistogram(tuple(map(LaurentPoly._from_ints, counts)), trials)


def tv_distance(a: DisplacementHistogram, b: DisplacementHistogram) -> Fraction:
    """Total variation distance: half the one-norm of the normalized column difference.

    Each vertex's one-norm is :func:`laurent.l1_distance`, so no difference is formed.
    """
    if len(a.masses) != len(b.masses):
        raise DimensionMismatch(f"laws on {len(a.masses)} and {len(b.masses)} vertices")
    # an interval term, even a point one, makes the total mass an interval
    if any(isinstance(h.total_mass(), RatInterval) for h in (a, b)):
        raise BadInput("tv_distance needs exact masses")
    return exact_sum(map(l1_distance, a.normalized(), b.normalized())) / 2


def histogram_to_json(h: DisplacementHistogram) -> dict:
    """A law's report block: kind, nonzero masses by vertex as LaurentPoly, trials if empirical."""
    out = {"kind": h.kind,
           "masses": {str(j): f for j, f in enumerate(h.masses) if not f.is_zero()}}
    if h.trials:
        out["trials"] = h.trials
    return out
