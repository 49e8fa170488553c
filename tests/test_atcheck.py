import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspace import atcheck as AT
from adicspace.cli import main
from adicspace.errors import AdicspaceError, BadInput, BudgetExceeded, DimensionMismatch
from adicspace.intervals import RatInterval
from adicspace.laurent import LaurentMatrix, LaurentPoly


def g_norm_counting_oracle(M, N):
    """Sum of |coefficients| of g_0+..+g_3 by block-type counting alone.

    Terms with S full lower half-blocks number C(N, S) 2^{4M(N-S)}, each
    with weight 2^{N+2} 2^{-3MS} (1 - 2^{-7M})^{N-S}; no two terms share an
    exponent, so the counted total equals the expanded coefficient mass.
    """
    eps = Fraction(1, 2 ** (7 * M))
    total = Fraction(0)
    for s in range(N + 1):
        total += (comb(N, s) * 2 ** (4 * M * (N - s))
                  * 2 ** (N + 2) * Fraction(1, 2 ** (3 * M * s)) * (1 - eps) ** (N - s))
    return total / 2 ** ((4 * M + 1) * N)


def shift_scale_classes(k, M, N):
    """Reference: multiply the class vector by (1/2)(I + x^(2^i) P) one index at a time."""
    classes = [LaurentPoly.one()] + [LaurentPoly.zero()] * (k - 1)
    for i in AT.block_indices(M, N):
        classes = [(classes[p] + classes[(p - 1) % k].shift(1 << i)).scale(Fraction(1, 2))
                   for p in range(k)]
    return classes


def test_circulant_classes_match_shift_scale_recurrence():
    for k in range(1, 6):
        for M, N in ((1, 1), (1, 2), (2, 1)):
            assert AT.circulant_classes(k, M, N) == shift_scale_classes(k, M, N), (k, M, N)


# -- reference models: each family enumerated on its own -------------------------


def subset_doubling_classes(k, M, N):
    """Class vector by subset doubling: subset s of the indices has class popcount(s) mod k."""
    indices = AT.block_indices(M, N)
    exps = [0]  # exps[s] is the exponent of the subset that the bits of s pick from indices
    for i in indices:
        exps += [e | (1 << i) for e in exps]
    terms = [dict() for _ in range(k)]
    for s, e in enumerate(exps):
        terms[s.bit_count() % k][e] = 1
    return [LaurentPoly._from_ints(t, 1 << len(indices)) for t in terms]


def bit_product_phis(M, N):
    """phi_0..phi_3 over every bit vector of the N optional bottom digits."""
    terms = [dict() for _ in range(4)]
    for bits in itertools.product((0, 1), repeat=N):
        exp = sum(a << (8 * M * j) for j, a in enumerate(bits))
        cls = sum(bits) % 4
        terms[cls][exp] = terms[cls].get(exp, 0) + 1
    return [LaurentPoly._from_ints(t, 2 ** N) for t in terms]


def choice_product_fs(M, N):
    """f_0..f_3 over every tuple of the 2^(4M)+1 per-block choices, weighed by full blocks."""
    full_low = sum(1 << i for i in range(4 * M))
    # a monomial with f full blocks has the numerator 2^(N+2+4Mf) (2^(7M) - 1)^(N-f) over 2^(7MN)
    numerators = [(2 ** (7 * M) - 1) ** (N - f) << (N + 2 + 4 * M * f) for f in range(N + 1)]
    choices = [(4 * M, full_low, True)]
    for pattern in range(1 << (4 * M)):
        choices.append((bin(pattern).count("1"), pattern << 1, False))
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


def within_budget(k, M, N):
    return k << ((4 * M + 1) * N) <= AT.DEFAULT_BUDGET


def test_block_kernel_matches_the_three_enumerations():
    # N = 0 included: the product is then the empty one, 1 in class 0
    for M in range(1, 4):
        for N in range(0, 4):
            assert AT.phi_polys(M, N) == bit_product_phis(M, N), (M, N)
            if within_budget(4, M, N):  # f_polys up to (M, N) = (2, 2)
                assert AT.f_polys(M, N) == choice_product_fs(M, N), (M, N)
            for k in range(1, 7):
                if within_budget(k, M, N):
                    expected = subset_doubling_classes(k, M, N)
                    assert AT.circulant_classes(k, M, N) == expected, (k, M, N)


def test_empty_product_is_one_in_class_zero():
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    assert AT.circulant_classes(3, 2, 0) == [one, zero, zero]
    assert AT.phi_polys(2, 0) == [one, zero, zero, zero]
    assert AT.f_polys(2, 0) == [LaurentPoly({0: 4}), zero, zero, zero]


def test_negative_block_count_is_refused_by_name(capsys):
    for call in (lambda: AT.circulant_classes(4, 1, -1), lambda: AT.f_polys(1, -1)):
        with pytest.raises(BadInput, match="N must be >= 0"):
            call()
    assert main(["at", "--M", "1", "--N", "-1"]) == 1
    assert capsys.readouterr().out == \
        '{"error": {"code": "BadInput", "message": "N must be >= 0"}}\n'


def test_circulant_classes_reject_bad_sizes():
    with pytest.raises(BadInput):
        AT.circulant_classes(0, 1, 1)
    with pytest.raises(BadInput):
        AT.circulant_classes(4, 0, 2)  # M = 0 repeats the index 0 in every block


def test_circulant_product_k1_is_dyadic_telescoping():
    a = AT.circulant_product(1, 1, 1)
    assert a.entries[0][0] == LaurentPoly({e: Fraction(1, 32) for e in range(32)})


def test_circulant_product_small_golden():
    a = AT.circulant_product(4, 1, 1)
    # class 0 collects subset sizes 0 and 4 of the five indices {0..4}
    a0 = a.entries[0][0]
    assert a0.num_terms() == comb(5, 0) + comb(5, 4)
    expected = {0: Fraction(1, 32)}
    for subset in combinations((1, 2, 4, 8, 16), 4):
        expected[sum(subset)] = Fraction(1, 32)
    assert a0 == LaurentPoly(expected)


def test_circulant_product_columns_stochastic():
    for k in (2, 3, 4):
        a = AT.circulant_product(k, 1, 1)
        assert [sum(row[j].eval_at_one() for row in a.entries) for j in range(k)] == [1] * k


def test_circulant_masses_match_classes_and_closed_form():
    for k in range(1, 7):
        for M, N in ((1, 0), (1, 1), (1, 2), (2, 1)):
            masses = AT.circulant_masses(k, M, N)
            assert masses == [c.eval_at_one() for c in AT.circulant_classes(k, M, N)], (k, M, N)
            size = len(AT.block_indices(M, N))
            closed = [Fraction(sum(comb(size, j) for j in range(c, size + 1, k)), 2 ** size)
                      for c in range(k)]
            assert masses == closed, (k, M, N)


def test_circulant_masses_refuse_as_circulant_classes():
    def refusal(fn, *args):
        with pytest.raises(AdicspaceError) as info:
            fn(*args)
        return info.value.code, info.value.message

    for args in ((4, 3, 2), (4, 2000, 2000), (0, 1, 1), (4, 0, 1)):
        assert refusal(AT.circulant_masses, *args) == refusal(AT.circulant_classes, *args), args


def test_circulant_residue_class_support():
    for k in (3, 4):
        a = AT.circulant_product(k, 1, 1)
        for r in range(k):
            for c in range(k):
                for e, _ in a.entries[r][c].items():
                    assert bin(e).count("1") % k == (r - c) % k


def test_budget_gate():
    with pytest.raises(BudgetExceeded):
        AT.circulant_product(4, 2, 2, budget=1 << 19)
    with pytest.raises(BudgetExceeded):
        AT.f_polys(3, 2, budget=1 << 20)
    AT.circulant_product(4, 2, 2, budget=1 << 20)  # exactly at the cap


def test_phi_structure():
    phis = AT.phi_polys(1, 2)
    assert [p.one_norm() for p in phis] == [Fraction(1, 4), Fraction(1, 2),
                                            Fraction(1, 4), Fraction(0)]
    assert phis[1] == LaurentPoly({1: Fraction(1, 4), 256: Fraction(1, 4)})
    assert all(p.is_nonnegative() for p in phis)


def test_g_norm_expansion_matches_counting_oracle():
    for M, N in ((1, 1), (2, 1), (1, 2)):
        gs = AT.g_polys(M, N)
        gsum = gs[0] + gs[1] + gs[2] + gs[3]
        assert all(g.is_nonnegative() for g in gs)
        assert gsum.one_norm() == g_norm_counting_oracle(M, N) == 4


def test_cross_class_products_land_in_their_class():
    phis, gs = AT.phi_polys(1, 1), AT.g_polys(1, 1)
    for i, phi in enumerate(phis):
        for j, g in enumerate(gs):
            for e, _ in (phi * g).items():
                assert bin(e).count("1") % 4 == (i + j) % 4


def test_regrouping_identity():
    # with per-class supports disjoint, the per-entry error sum collapses
    for M, N in ((1, 1), (1, 2)):
        a = AT.circulant_product(4, M, N)
        phis, gs = AT.phi_polys(M, N), AT.g_polys(M, N)
        cand = AT.explicit_candidate(M, N)
        total = AT.approximation_error(a, cand)
        gsum = gs[0] + gs[1] + gs[2] + gs[3]
        asum = LaurentPoly.zero()
        for r in range(4):
            asum = asum + a.entries[r][0]
        regrouped = sum(((phi * gsum) - asum).one_norm() for phi in phis)
        assert total == regrouped


def test_explicit_errors_frozen():
    values = {(1, 1): Fraction(95, 16), (2, 1): Fraction(12287, 2048),
              (1, 2): Fraction(24067, 4096), (1, 3): Fraction(1560883971, 268435456)}
    for (M, N), expected in values.items():
        a = AT.circulant_product(4, M, N)
        assert AT.approximation_error(a, AT.explicit_candidate(M, N)) == expected


def test_phi_mass_quarter_deviation_sharp_bound():
    # the masses are binomial residue-class sums: their worst gap from 1/4
    # is at most 1/(2 sqrt(2)^N), with equality direction checked squared
    for M, N in ((1, 1), (2, 1), (1, 2), (1, 3)):
        masses = [p.one_norm() for p in AT.phi_polys(M, N)]
        assert sum(masses) == 1
        worst = max(abs(m - Fraction(1, 4)) for m in masses)
        assert 4 * worst ** 2 <= Fraction(1, 2 ** N)


def test_approximation_error_trivials():
    p = LaurentPoly({0: Fraction(1, 2), 3: Fraction(1, 2)})
    rank_one = LaurentMatrix([[p]])
    cand = AT.RankOneCandidate(column=(p,), row=(LaurentPoly.one(),))
    assert AT.approximation_error(rank_one, cand) == 0
    a = AT.circulant_product(4, 1, 1)
    zero = AT.RankOneCandidate(column=(LaurentPoly.zero(),) * 4,
                               row=(LaurentPoly.zero(),) * 4)
    assert AT.approximation_error(a, zero) == 4
    with pytest.raises(DimensionMismatch):
        AT.approximation_error(a, cand)


def test_greedy_recovers_rank_one_scalar():
    p = LaurentPoly({e: Fraction(1, 8) for e in range(8)})
    a = LaurentMatrix([[p]])
    cand = AT.greedy_rank_one(a, 1)
    assert AT.approximation_error(a, cand) == 0


def test_greedy_error_nonincreasing_and_beats_explicit():
    a = AT.circulant_product(4, 1, 1)
    errors = [AT.approximation_error(a, AT.greedy_rank_one(a, it)) for it in (1, 2, 3)]
    assert errors[0] >= errors[1] >= errors[2]
    explicit_err = AT.approximation_error(a, AT.explicit_candidate(1, 1))
    assert errors[-1] <= explicit_err
    cand = AT.greedy_rank_one(a, 2)
    assert all(c.is_nonnegative() for c in cand.column)
    assert all(r.is_nonnegative() for r in cand.row)


def test_greedy_rejects_zero_iters():
    a = AT.circulant_product(2, 1, 1)
    with pytest.raises(BadInput):
        AT.greedy_rank_one(a, 0)


def test_greedy_rejects_a_non_square_matrix():
    tall = LaurentMatrix([[LaurentPoly.one()], [LaurentPoly.x()]])
    with pytest.raises(DimensionMismatch, match="square"):
        AT.greedy_rank_one(tall, 1)


def fraction_sort_median(points):
    """Reference lower weighted median: sort the Fractions themselves."""
    points = sorted(points, key=lambda vw: vw[0])
    total = sum(w for _, w in points)
    acc = Fraction(0)
    for v, w in points:
        acc += w
        if 2 * acc >= total:
            return v
    return points[-1][0]


def test_weighted_median_matches_fraction_sort():
    rng = random.Random(20261018)
    for _ in range(300):
        # few distinct values, so ties are common; mixed and non-dyadic denominators
        pool = [Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4, 6, 7, 16)))
                for _ in range(rng.randrange(1, 5))]
        points = [(rng.choice(pool), Fraction(rng.randrange(1, 20), rng.choice((1, 3, 5, 8))))
                  for _ in range(rng.randrange(1, 14))]
        # the median ignores a common weight scale: weights as ints over their lcm
        wden = lcm(*(w.denominator for _, w in points))
        ratios = [(v.numerator, v.denominator, w.numerator * (wden // w.denominator))
                  for v, w in points]
        assert AT._ratio_median(ratios) == fraction_sort_median(points)


# -- the descent against the per-candidate reference ---------------------------


def per_candidate_optimize_vector(targets, partners, vector):
    """Reference pass: rebuild targets[i][j] - base * r as a Laurent product per candidate."""
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
            gamma = max(Fraction(0), fraction_sort_median(points))
            vector[i] = base + LaurentPoly.monomial(gamma, t)
    return vector


def candidate_json(cand):
    return json.dumps([[p.to_json() for p in cand.column], [p.to_json() for p in cand.row]])


def reference_greedy(a, iters):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AT, "_optimize_vector", per_candidate_optimize_vector)
        return AT.greedy_rank_one(a, iters)


@pytest.mark.parametrize("k, M, N, iters", [(4, 1, 1, 3), (2, 1, 1, 3), (3, 1, 1, 2),
                                             (5, 1, 1, 2), (4, 1, 1, 1)])
def test_greedy_matches_per_candidate_reference(k, M, N, iters):
    a = AT.circulant_product(k, M, N)
    expected = candidate_json(reference_greedy(a, iters))
    assert candidate_json(AT.greedy_rank_one(a, iters)) == expected


def test_greedy_stops_at_its_fixed_point(monkeypatch):
    # at (4, 1, 1) only the first column sweep moves a coefficient, so the
    # second iteration moves nothing and a third is not run
    a = AT.circulant_product(4, 1, 1)
    sweeps = []
    optimize = AT._optimize_vector

    def counted(*args):
        moved = optimize(*args)
        sweeps.append(moved)
        return moved

    monkeypatch.setattr(AT, "_optimize_vector", counted)
    cand = AT.greedy_rank_one(a, 3)
    assert sweeps == [True, False, False, False]
    monkeypatch.undo()
    assert candidate_json(AT.greedy_rank_one(a, 50)) == candidate_json(
        AT.greedy_rank_one(a, 2)) == candidate_json(cand)


def test_greedy_matches_pinned_reference_at_2_2_1():
    # the reference takes about 20 s here; this is the sha256 of its candidate_json
    cand = AT.greedy_rank_one(AT.circulant_product(2, 2, 1), 1)
    assert hashlib.sha256(candidate_json(cand).encode()).hexdigest() == \
        "06f69dac06fe818041b856a60e4e8966d7ef30820c9152175e6c8c3588b6da52"


# non-dyadic coefficients; a zero row or column of the matrix gives a zero partner,
# and an all-zero matrix leaves no partner at all
small_polys = st.one_of(
    st.just({}),
    st.dictionaries(st.integers(-3, 5), st.builds(Fraction, st.integers(1, 6),
                                                  st.sampled_from([1, 2, 3, 5, 7, 9])),
                    max_size=4))


@st.composite
def nonnegative_matrices(draw):
    k = draw(st.integers(1, 3))
    entries = [[LaurentPoly(draw(small_polys)) for _ in range(k)] for _ in range(k)]
    zero_rows = draw(st.sets(st.integers(0, k - 1)))
    zero_cols = draw(st.sets(st.integers(0, k - 1)))
    return LaurentMatrix([[LaurentPoly.zero() if i in zero_rows or j in zero_cols else e
                           for j, e in enumerate(row)] for i, row in enumerate(entries)])


@given(nonnegative_matrices(), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_greedy_matches_reference_on_small_matrices(a, iters):
    expected = candidate_json(reference_greedy(a, iters))
    assert candidate_json(AT.greedy_rank_one(a, iters)) == expected


def test_greedy_refuses_interval_and_negative_coefficients():
    x = LaurentPoly.x()
    negative = LaurentMatrix([[LaurentPoly.one(), -x], [-x, LaurentPoly.one()]])
    with pytest.raises(BadInput, match="negative"):
        AT.greedy_rank_one(negative, 1)
    interval = LaurentMatrix([[LaurentPoly({0: RatInterval(Fraction(1, 3), Fraction(1, 2))})]])
    with pytest.raises(BadInput, match="interval"):
        AT.greedy_rank_one(interval, 1)


def test_greedy_budget_is_checked_before_each_sweep(capsys):
    # (4, 1, 1): 128 target terms against 32-term partners in the first sweep
    a = AT.circulant_product(4, 1, 1)
    with pytest.raises(BudgetExceeded, match="4096"):
        AT.greedy_rank_one(a, 1, budget=4095)
    AT.greedy_rank_one(a, 1, budget=4096)
    started = time.monotonic()
    assert main(["at", "--k", "3", "--M", "1", "--N", "3", "--greedy", "1"]) == 1
    assert time.monotonic() - started < 5
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "BudgetExceeded"
