"""Circulant matrix products and nonnegative rank-one l1 approximation.

The circulant family has M_n = (1/2)(I + x^(2^n) P) with P the k-cycle.
Because every factor is circulant, a product is determined by its class
vector (a_0, ..., a_{k-1}) with entry (r, c) = a_{(r-c) mod k}.  The
product over the block index set I = {8Mj, ..., 8Mj+4M : j < N} is built
from subsets: each subset S of I gives one monomial with the bits of S as
exponent (M >= 1 keeps the indices distinct), coefficient 2^-|I| and
class |S| mod k.  All of this is exact; sizes beyond the monomial budget
are rejected, never approximated.

The explicit k = 4 rank-one candidate pairs a column (phi_0..phi_3) whose
monomials carry one optional digit at the bottom of each block with a row
(g_0, g_3, g_2, g_1) whose monomials are products of per-block basic
monomials: either the full lower half-block (weight 2^{-3M}) or an
arbitrary pattern avoiding the block's bottom digit (weight 1 - 2^{-7M}),
all scaled by 2^{N+2} / 2^{(4M+1)N}.  A generic alternating
weighted-median descent provides a baseline candidate for comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import List, Tuple

from .errors import BadInput, BudgetExceeded, DimensionMismatch
from .laurent import LaurentMatrix, LaurentPoly, sum_coeffs

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class RankOneCandidate:
    column: Tuple[LaurentPoly, ...]
    row: Tuple[LaurentPoly, ...]


_DECIMAL_BITS = 12000  # a refusal writes 2^12000 out (3,613 digits); str() allows 4,300


def _check_budget(k: int, M: int, N: int, budget: int):
    exponent = (4 * M + 1) * N
    if exponent > _DECIMAL_BITS and exponent >= budget.bit_length():
        # 2^exponent > budget: refuse before building a number of exponent/8 bytes
        raise BudgetExceeded(f"k * 2^((4M+1)N) = {k} * 2^{exponent} exceeds the budget {budget}")
    if k << exponent > budget:
        raise BudgetExceeded(f"k * 2^((4M+1)N) = {k << exponent} exceeds the budget {budget}")


def block_indices(M: int, N: int) -> List[int]:
    """The exponent indices {8Mj, ..., 8Mj + 4M} over the N blocks."""
    out = []
    for j in range(N):
        out.extend(range(8 * M * j, 8 * M * j + 4 * M + 1))
    return out


def circulant_classes(k: int, M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    """Class vector of the product over the block index set, exact."""
    if k < 1:
        raise BadInput("k must be >= 1")
    if M < 1:
        raise BadInput("M must be >= 1")
    _check_budget(k, M, N, budget)
    indices = block_indices(M, N)
    exps = [0]  # exps[s] is the exponent of the subset that the bits of s pick from indices
    for i in indices:
        bit = 1 << i
        exps += [e | bit for e in exps]
    terms = [dict() for _ in range(k)]
    for s, e in enumerate(exps):
        terms[s.bit_count() % k][e] = 1
    return [LaurentPoly._from_ints(t, 1 << len(indices)) for t in terms]


def circulant_product(k: int, M: int, N: int, budget: int = DEFAULT_BUDGET) -> LaurentMatrix:
    """The full k x k product matrix; entry (r, c) is class (r - c) mod k."""
    classes = circulant_classes(k, M, N, budget)
    return LaurentMatrix([[classes[(r - c) % k] for c in range(k)] for r in range(k)])


def phi_polys(M: int, N: int) -> List[LaurentPoly]:
    """The four column polynomials: one optional bottom digit per block."""
    terms = [dict() for _ in range(4)]
    for bits in itertools.product((0, 1), repeat=N):
        exp = sum(a << (8 * M * j) for j, a in enumerate(bits))
        cls = sum(bits) % 4
        terms[cls][exp] = terms[cls].get(exp, 0) + 1
    return [LaurentPoly._from_ints(t, 2 ** N) for t in terms]


def f_polys(M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    """The four unnormalized row polynomials from the basic-monomial sums."""
    _check_budget(4, M, N, budget)
    full_low = sum(1 << i for i in range(4 * M))  # digits 0 .. 4M-1 of a block
    # Over the denominator 2^(7MN), a monomial with f form-full blocks has the
    # numerator 2^(N+2) (2^(-3M))^f (1 - 2^(-7M))^(N-f) 2^(7MN)
    # = 2^(N+2+4Mf) (2^(7M) - 1)^(N-f).
    numerators = [(2 ** (7 * M) - 1) ** (N - f) << (N + 2 + 4 * M * f) for f in range(N + 1)]
    # Per-block choices: (digit count, exponent within block, uses form-full)
    choices = [(4 * M, full_low, True)]
    for pattern in range(1 << (4 * M)):
        exp = pattern << 1  # digits 1 .. 4M only: the bottom digit stays clear
        choices.append((bin(pattern).count("1"), exp, False))
    terms = [dict() for _ in range(4)]
    for combo in itertools.product(range(len(choices)), repeat=N):
        exp, count, fulls = 0, 0, 0
        for j, c in enumerate(combo):
            dc, block_exp, is_full = choices[c]
            exp += block_exp << (8 * M * j)
            count += dc
            fulls += is_full
        cls = count % 4
        terms[cls][exp] = terms[cls].get(exp, 0) + numerators[fulls]
    return [LaurentPoly._from_ints(t, 1 << (7 * M * N)) for t in terms]


def g_polys(M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    norm = Fraction(1, 2 ** ((4 * M + 1) * N))
    return [f.scale(norm) for f in f_polys(M, N, budget)]


def explicit_candidate(M: int, N: int, budget: int = DEFAULT_BUDGET) -> RankOneCandidate:
    """The explicit k = 4 construction: phi columns, rows (g_0, g_3, g_2, g_1)."""
    phis, gs = phi_polys(M, N), g_polys(M, N, budget)
    return RankOneCandidate(column=tuple(phis), row=(gs[0], gs[3], gs[2], gs[1]))


def approximation_error(a: LaurentMatrix, cand: RankOneCandidate) -> Fraction:
    """Entrywise l1 distance between the matrix and the column-row product."""
    if a.rows != len(cand.column) or a.cols != len(cand.row):
        raise DimensionMismatch("candidate shape does not match the matrix")
    return sum_coeffs((a.entries[i][j] - cand.column[i] * cand.row[j]).one_norm()
                      for i in range(a.rows) for j in range(a.cols))


# -- alternating weighted-median descent ---------------------------------------


def _weighted_median(points: List[Tuple[Fraction, Fraction]]) -> Fraction:
    """Lower weighted median: the l1 minimizer of sum w |v - x|.

    It sorts and sums ints: the values times the lcm of their denominators
    and the weights times the lcm of theirs, which leaves the median as it is.
    """
    vden = math.lcm(*(v.denominator for v, _ in points))
    wden = math.lcm(*(w.denominator for _, w in points))
    scaled = sorted(((v.numerator * (vden // v.denominator),
                      w.numerator * (wden // w.denominator), v) for v, w in points),
                    key=itemgetter(0))
    total = sum(w for _, w, _ in scaled)
    acc = 0
    for _, w, v in scaled:
        acc += w
        if 2 * acc >= total:
            return v
    return scaled[-1][2]


def _optimize_vector(targets, partners, vector):
    """One in-place pass over the coefficients of each entry of ``vector``.

    targets[i][j] is the polynomial the product vector[i] * partners[j] is
    meant to match.  Every coefficient is set to the nonnegative weighted
    median of its compatible residual ratios; each step is the exact 1-D
    l1 minimizer, so the global objective never increases.
    """
    k = len(vector)
    for i in range(k):
        support = set(vector[i].support())
        for j, r in enumerate(partners):
            for s in targets[i][j].support():
                for tau in r.support():
                    support.add(s - tau)
        for t in sorted(support):
            base = vector[i] + LaurentPoly.monomial(-vector[i].coeff(t), t)
            points = []
            for j, r in enumerate(partners):
                if r.is_zero():
                    continue
                res = targets[i][j] - base * r
                for tau, w in r.items():
                    points.append((res.coeff(t + tau) / w, abs(w)))
            if not points:
                continue
            gamma = max(Fraction(0), _weighted_median(points))
            vector[i] = base + LaurentPoly.monomial(gamma, t)
    return vector


def greedy_rank_one(a: LaurentMatrix, iters: int) -> RankOneCandidate:
    """Alternating coordinatewise descent for a nonnegative rank-one fit.

    Initialization: the row entries are the column-sum polynomials of the
    matrix scaled to unit coefficient mass, the column entries are the
    constant 1.  Each iteration sweeps all column coefficients, then all
    row coefficients; the approximation error is nonincreasing and the
    result is deterministic.
    """
    if iters < 1:
        raise BadInput("iters must be >= 1")
    k = a.rows
    if a.cols != k:
        raise DimensionMismatch("greedy fit expects a square matrix")
    row = []
    for j in range(k):
        colsum = LaurentPoly.zero()
        for i in range(k):
            colsum = colsum + a.entries[i][j]
        mass = colsum.one_norm()
        row.append(colsum.scale(1 / mass) if mass else LaurentPoly.zero())
    col = [LaurentPoly.one() for _ in range(k)]
    col_targets = [[a.entries[i][j] for j in range(k)] for i in range(k)]
    row_targets = [[a.entries[i][j] for i in range(k)] for j in range(k)]
    for _ in range(iters):
        col = _optimize_vector(col_targets, row, col)
        row = _optimize_vector(row_targets, col, row)
    return RankOneCandidate(column=tuple(col), row=tuple(row))
