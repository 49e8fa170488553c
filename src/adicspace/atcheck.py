"""Circulant matrix products and nonnegative rank-one l1 approximation.

The circulant family has M_n = (1/2)(I + x^(2^n) P) with P the k-cycle.
Because every factor is circulant, a product is determined by its class
vector (a_0, ..., a_{k-1}) with entry (r, c) = a_{(r-c) mod k}.

Each polynomial family here is one product over blocks, prod_blocks
sum_(e, c, w) w x^e z^c read by the power of z mod k: a term picks one
choice (exponent e, digit count c, weight w) per block, and the blocks use
disjoint digits, so no two terms add.  Over the index set I = {8Mj, ...,
8Mj+4M : j < N} (M >= 1 keeps the indices distinct) the product takes the
choices 1 and x^(2^i) z for each i in I, over 2^|I|.  The explicit k = 4
candidate pairs a column (phi_0..phi_3), one optional digit at the bottom
of each block, with a row (g_0, g_3, g_2, g_1) that takes per block the
full lower half-block (weight 2^(-3M)) or a pattern on digits 1..4M
(weight 1 - 2^(-7M)), all scaled by 2^(N+2) / 2^((4M+1)N).  All of this is
exact; sizes over the monomial budget are refused, never approximated.  An
alternating weighted-median descent gives a baseline candidate.

Evaluation at x = 1 is a ring homomorphism, so the class masses are those
of the product of the Markov matrices M_n(1): :func:`circulant_masses`
counts them with k numbers per index and builds no Laurent term, under the
same size checks and refusals as :func:`circulant_classes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import List, Tuple, Union

from .errors import DEFAULT_BUDGET, BadInput, BudgetExceeded, DimensionMismatch, check_budget
from .intervals import RatInterval, exact_sum
from .laurent import LaurentMatrix, LaurentPoly, l1_distance


@dataclass(frozen=True)
class RankOneCandidate:
    column: Tuple[LaurentPoly, ...]
    row: Tuple[LaurentPoly, ...]


_DECIMAL_BITS = 12000  # a refusal writes 2^12000 out (3,613 digits); str() allows 4,300


def _check_sizes(k: int, M: int, N: int, budget: int):
    for name, value, least in (("k", k, 1), ("M", M, 1), ("N", N, 0)):
        if value < least:
            raise BadInput(f"{name} must be >= {least}")
    exponent = (4 * M + 1) * N
    if exponent > _DECIMAL_BITS and exponent >= budget.bit_length():
        # 2^exponent > budget: refuse before building a number of exponent/8 bytes
        raise BudgetExceeded(f"k * 2^((4M+1)N) = {k} * 2^{exponent} exceeds the budget {budget}")
    check_budget("k * 2^((4M+1)N)", k << exponent, budget)


def _block_classes(k: int, blocks, den: int) -> List[LaurentPoly]:
    """The class vector of prod_blocks sum_(e, c, w) w x^e z^c over den, z^k = 1.

    ``blocks`` is a list of choice lists of (exponent, digit count, int
    weight).  Every pick of one choice per block must give its own exponent.
    The terms are kept as (class, weight) -> exponent-list bins, grown one
    block at a time.
    """
    bins = {(0, 1): [0]}
    for choices in blocks:
        # the zero offset goes last and shares its bin's list, so a list is
        # extended in place only once its own bin has been read
        choices = sorted(choices, key=lambda choice: choice[0] == 0)
        grown = {}
        for (cls, w), exps in bins.items():
            for e, c, cw in choices:
                moved = [x + e for x in exps] if e else exps
                key = ((cls + c) % k, w * cw)
                if key in grown:
                    grown[key] += moved
                else:
                    grown[key] = moved
        bins = grown
    terms = [{} for _ in range(k)]
    for (cls, w), exps in bins.items():
        terms[cls].update(zip(exps, repeat(w)))
    return [LaurentPoly._from_ints(t, den) for t in terms]


def block_indices(M: int, N: int) -> List[int]:
    """The exponent indices {8Mj, ..., 8Mj + 4M} over the N blocks."""
    return [i for j in range(N) for i in range(8 * M * j, 8 * M * j + 4 * M + 1)]


def circulant_classes(k: int, M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    """Class vector of the product over the block index set, exact."""
    _check_sizes(k, M, N, budget)
    indices = block_indices(M, N)
    return _block_classes(k, [((0, 0, 1), (1 << i, 1, 1)) for i in indices], 1 << len(indices))


def circulant_masses(k: int, M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[Fraction]:
    """The class vector's masses at x = 1, sized and refused as the product is.

    At x = 1 each factor (1/2)(I + x^(2^i) P) is the Markov matrix of a
    fair step on Z/k, so mass c is the share of the subsets of the index set
    whose size is c mod k, counted one index at a time by Pascal's rule.
    """
    _check_sizes(k, M, N, budget)
    indices = block_indices(M, N)
    counts = [1] + [0] * (k - 1)
    for _ in indices:
        counts = [counts[c] + counts[c - 1] for c in range(k)]  # k = 1 doubles
    return [Fraction(n, 1 << len(indices)) for n in counts]


def circulant_product(k: int, M: int, N: int, budget: int = DEFAULT_BUDGET) -> LaurentMatrix:
    """The full k x k product matrix; entry (r, c) is class (r - c) mod k."""
    classes = circulant_classes(k, M, N, budget)
    return LaurentMatrix([[classes[(r - c) % k] for c in range(k)] for r in range(k)])


def phi_polys(M: int, N: int) -> List[LaurentPoly]:
    """The four column polynomials: one optional bottom digit per block."""
    return _block_classes(4, [((0, 0, 1), (1 << (8 * M * j), 1, 1)) for j in range(N)], 1 << N)


def f_polys(M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    """The four unnormalized row polynomials from the basic-monomial sums."""
    _check_sizes(4, M, N, budget)
    # Over 2^(7MN): the full lower half-block (digits 0 .. 4M-1) weighs 2^(-3M) 2^(7M),
    # a pattern on digits 1 .. 4M (the bottom digit stays clear) (1 - 2^(-7M)) 2^(7M).
    full = ((1 << (4 * M)) - 1, 4 * M, 1 << (4 * M))
    patterns = [(p << 1, p.bit_count(), (1 << (7 * M)) - 1) for p in range(1 << (4 * M))]
    blocks = [((0, 0, 1 << (N + 2)),)]
    blocks += [[(e << (8 * M * j), c, w) for e, c, w in (full, *patterns)] for j in range(N)]
    return _block_classes(4, blocks, 1 << (7 * M * N))


def g_polys(M: int, N: int, budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    norm = Fraction(1, 2 ** ((4 * M + 1) * N))
    return [f.scale(norm) for f in f_polys(M, N, budget)]


def explicit_candidate(M: int, N: int, budget: int = DEFAULT_BUDGET) -> RankOneCandidate:
    """The explicit k = 4 construction: phi columns, rows (g_0, g_3, g_2, g_1)."""
    phis, gs = phi_polys(M, N), g_polys(M, N, budget)
    return RankOneCandidate(column=tuple(phis), row=(gs[0], gs[3], gs[2], gs[1]))


def approximation_error(a: LaurentMatrix, cand: RankOneCandidate) -> Union[Fraction, RatInterval]:
    """Entrywise l1 distance between the matrix and the column-row product.

    A ``Fraction``, or a ``RatInterval`` enclosing it when an entry holds an
    interval.  Each entry's distance is :func:`laurent.l1_distance`, so the
    difference a_ij - c_i r_j is formed only where one of them holds an interval.
    """
    if a.rows != len(cand.column) or a.cols != len(cand.row):
        raise DimensionMismatch("candidate shape does not match the matrix")
    return exact_sum(l1_distance(a.entries[i][j], cand.column[i] * cand.row[j])
                     for i in range(a.rows) for j in range(a.cols))


# -- alternating weighted-median descent ---------------------------------------


def _ratio_median(points: List[Tuple[int, int, int]]) -> Fraction:
    """Lower weighted median of the ratios p / q (q > 0) under int weights w > 0.

    It is the l1 minimizer of sum w |p / q - x|.  The ratios are sorted as the
    ints p * (L // q) over L = lcm of the q, which keeps their order, and the
    one ``Fraction`` built is the ratio returned.
    """
    scale = math.lcm(*(q for _, q, _ in points))
    ranked = sorted(points, key=lambda pqw: pqw[0] * (scale // pqw[1]))
    total = sum(w for _, _, w in points)
    acc = 0
    for p, q, w in ranked:
        acc += w
        if 2 * acc >= total:  # at the latest on the last point, where acc = total > 0
            return Fraction(p, q)


def _optimize_vector(targets, partners, vector) -> bool:
    """One in-place pass over the coefficients of each entry of ``vector``.

    targets[i][j] is the polynomial the product vector[i] * partners[j] is
    meant to match; the partners have positive coefficients.  Every
    coefficient c at t is set to the nonnegative weighted median of the
    ratios res_j(t + tau) / w + c over the partner terms w x^tau, where
    res_j = targets[i][j] - vector[i] * partners[j]; each step is the exact
    1-D l1 minimizer, so the global objective never increases.  Returns
    whether any coefficient moved.

    The residuals are built once per entry and updated in place when a
    coefficient moves.  A positive ratio v / w is kept as the int pair
    (v.numerator * w.denominator, v.denominator * w.numerator); the weight
    of every other point is put on one point at 0, which leaves
    max(0, lower weighted median) as it is.  The weights are ints over the
    lcm of the partner denominators, a common scale the median ignores.
    """
    live = [(j, r, r.items()) for j, r in enumerate(partners) if not r.is_zero()]
    if not live:  # no ratio to take a median of: every entry stays as it is
        return False
    den = math.lcm(*(w.denominator for _, _, items in live for _, w in items))
    terms = [[(tau, w, w.numerator, w.denominator, w.numerator * (den // w.denominator))
              for tau, w in items] for _, _, items in live]
    total = sum(wi for partner in terms for *_, wi in partner)
    moved = False
    for i, entry in enumerate(vector):
        coeffs = dict(entry.items())
        residuals = [dict((targets[i][j] - entry * r).items()) for j, r, _ in live]
        support = set(coeffs)
        for j, r, _ in live:
            taus = r.support()
            for s in targets[i][j].support():
                support.update(s - tau for tau in taus)
        for t in sorted(support):
            c = coeffs.get(t, 0)
            positive = []
            for res, partner in zip(residuals, terms):
                get = res.get
                for tau, w, wn, wd, wi in partner:
                    v = get(t + tau, 0)
                    if c:
                        v += c * w
                    n = v.numerator
                    if n > 0:
                        positive.append((n * wd, v.denominator * wn, wi))
            if positive:
                rest = total - sum(wi for *_, wi in positive)
                gamma = _ratio_median([*positive, (0, 1, rest)] if rest else positive)
            else:
                gamma = 0
            if gamma == c:
                continue
            moved = True
            step = gamma - c
            for res, partner in zip(residuals, terms):
                for tau, w, *_ in partner:
                    e = t + tau
                    v = res.get(e, 0) - step * w
                    if v:
                        res[e] = v
                    else:
                        del res[e]
            if gamma:
                coeffs[t] = gamma
            else:
                del coeffs[t]
        vector[i] = LaurentPoly(coeffs)
    return moved


def greedy_rank_one(a: LaurentMatrix, iters: int, budget: int = DEFAULT_BUDGET) -> RankOneCandidate:
    """Alternating coordinatewise descent for a nonnegative rank-one fit.

    The matrix must be square with exact nonnegative coefficients.
    Initialization: the row entries are the column-sum polynomials of the
    matrix scaled to unit coefficient mass, the column entries are the
    constant 1.  Each iteration sweeps all column coefficients, then all
    row coefficients; the approximation error is nonincreasing and the
    result is deterministic.  ``iters`` bounds the iterations: the descent
    stops after one in which neither sweep moved a coefficient, since the
    next would start from the same state and give the same candidate.  A
    sweep whose count of (target term, partner term) pairs is over
    ``budget`` is refused before it starts.
    """
    if iters < 1:
        raise BadInput("iters must be >= 1")
    k = a.rows
    if a.cols != k:
        raise DimensionMismatch("greedy fit expects a square matrix")
    for i, entries in enumerate(a.entries):
        for j, e in enumerate(entries):
            for _, c in e.items():
                if isinstance(c, RatInterval):
                    raise BadInput(f"entry ({i}, {j}) has an interval coefficient; "
                                   "the greedy fit needs exact ones")
                if c < 0:
                    raise BadInput(f"entry ({i}, {j}) has a negative coefficient; "
                                   "the greedy fit needs a nonnegative matrix")
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
        moved = False
        for targets, partners, vector in ((col_targets, row, col), (row_targets, col, row)):
            check_budget("the target and partner term pairs of a greedy sweep",
                         sum(t.num_terms() * p.num_terms()
                             for row in targets for t, p in zip(row, partners)), budget)
            if _optimize_vector(targets, partners, vector):
                moved = True
        if not moved:  # the next iteration would start here again and move nothing
            break
    return RankOneCandidate(column=tuple(col), row=tuple(row))
