import json
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adicspace import bratteli as B
from adicspace import walk as W
from adicspace.cli import _write_json
from adicspace.dimspace import DimensionSpace, build_matrices, partial_product
from adicspace.errors import BadInput, BudgetExceeded, DepthExceeded, DimensionMismatch, RangeError
from adicspace.intervals import RatInterval
from adicspace.laurent import LaurentMatrix, LaurentPoly, coeff_to_json
from conftest import random_diagram

HALF = Fraction(1, 2)


def written(block) -> str:
    """The report text of a ``histogram_to_json`` block."""
    chunks = []
    _write_json(block, chunks.append)
    return "".join(chunks)


def test_odometer_step_distribution():
    sp = build_matrices(B.odometer_diagram(6))
    for n in (0, 3, 5):
        dist = W.step_distribution(sp, W.WalkState(0, 0, n))
        assert dist == [(W.WalkState(0, 0, n + 1), HALF),
                        (W.WalkState(2 ** n, 0, n + 1), HALF)]


def test_morse_step_distribution():
    sp = build_matrices(B.morse_diagram(6))
    dist = W.step_distribution(sp, W.WalkState(5, 0, 3))
    assert (W.WalkState(5, 0, 4), HALF) in dist
    assert (W.WalkState(5 + 2 ** 2, 1, 4), HALF) in dist
    assert len(dist) == 2


def test_step_distribution_shift_equivariance():
    rng = random.Random(4)
    d = random_diagram(rng, depth=4)
    sp = build_matrices(d)
    for t in (-7, 13):
        base = W.step_distribution(sp, W.WalkState(0, 0, 0))
        shifted = W.step_distribution(sp, W.WalkState(t, 0, 0))
        assert shifted == [(W.WalkState(s.position + t, s.vertex, s.level), p)
                           for s, p in base]


def test_step_probabilities_sum_to_one():
    rng = random.Random(41)
    for _ in range(5):
        d = random_diagram(rng, depth=4)
        sp = build_matrices(d)
        for n in range(sp.depth):
            for v in range(sp.dims[n]):
                total = sum(p for _, p in W.step_distribution(sp, W.WalkState(0, v, n)))
                assert total == 1


def test_step_depth_guard():
    sp = build_matrices(B.odometer_diagram(2))
    with pytest.raises(DepthExceeded):
        W.step_distribution(sp, W.WalkState(0, 0, 2))


def test_exact_distribution_odometer_uniform():
    sp = build_matrices(B.odometer_diagram(4))
    hist = W.exact_distribution(sp, 3, W.WalkState(0, 0, 0))
    assert hist.masses == (LaurentPoly({d: Fraction(1, 8) for d in range(8)}),)
    assert hist.total_mass() == 1


def test_exact_distribution_matches_partial_product():
    rng = random.Random(6)
    d = random_diagram(rng, depth=5)
    sp = build_matrices(d)
    hist = W.exact_distribution(sp, 5, W.WalkState(3, 0, 0))
    prod = partial_product(sp, 0, 5)
    assert len(hist.masses) == sp.dims[5]
    for j, column in enumerate(hist.masses):
        assert column == LaurentPoly({3 + e: c for e, c in prod.entries[j][0].items()})


def test_exact_distribution_level_zero_is_point_mass():
    sp = build_matrices(B.morse_diagram(3))
    hist = W.exact_distribution(sp, 0, W.WalkState(9, 0, 0))
    assert hist.masses == (LaurentPoly({9: Fraction(1)}),)


def test_circulant_digit_count_support():
    # starting past the root fan-out, the vertex class tracks the binary
    # digit count of the displacement
    sp = build_matrices(B.circulant_diagram(4, 4))
    hist = W.exact_distribution(sp, 4, W.WalkState(0, 0, 1))
    assert hist.total_mass() == 1
    for j, column in enumerate(hist.masses):
        for d in column.support():
            assert bin(d).count("1") % 4 == j


def test_exact_distribution_shift_equivariance():
    sp = build_matrices(B.circulant_diagram(3, 4))
    base = W.exact_distribution(sp, 4, W.WalkState(0, 0, 0))
    shifted = W.exact_distribution(sp, 4, W.WalkState(11, 0, 0))
    assert shifted.masses == tuple(LaurentPoly({d + 11: c for d, c in f.items()})
                                   for f in base.masses)


def test_simulate_deterministic_and_single_trial():
    sp = build_matrices(B.morse_diagram(5))
    a = W.simulate(sp, 5, 200, seed=99)
    b = W.simulate(sp, 5, 200, seed=99)
    assert a == b
    c = W.simulate(sp, 5, 200, seed=100)
    assert c != a
    one = W.simulate(sp, 5, 1, seed=5)
    assert one.total_mass() == 1
    (j, column), = [(j, f) for j, f in enumerate(one.masses) if not f.is_zero()]
    (d, count), = column.items()
    exact = W.exact_distribution(sp, 5, W.WalkState(0, 0, 0))
    assert count == 1 and exact.masses[j].coeff(d) > 0


def test_simulate_requires_positive_trials():
    sp = build_matrices(B.odometer_diagram(2))
    with pytest.raises(BadInput):
        W.simulate(sp, 2, 0, seed=1)


def test_simulate_tv_convergence_small():
    sp = build_matrices(B.odometer_diagram(4))
    exact = W.exact_distribution(sp, 4, W.WalkState(0, 0, 0))
    tv_small = W.tv_distance(exact, W.simulate(sp, 4, 200, seed=7))
    tv_big = W.tv_distance(exact, W.simulate(sp, 4, 20000, seed=7))
    assert tv_big < tv_small < Fraction(1, 2)


def test_one_step_expectation_of_harmonic_vector():
    # with mu_{n+1} M_n(1) = mu_n, the expected next value of mu equals mu at
    # the current state, exactly
    rng = random.Random(12)
    d = random_diagram(rng, depth=4)
    sp = build_matrices(d)
    mus = [[Fraction(1)] * sp.dims[n] for n in range(sp.depth + 1)]
    for n in range(sp.depth):
        for v in range(sp.dims[n]):
            dist = W.step_distribution(sp, W.WalkState(0, v, n))
            expect = sum(p * mus[n + 1][s.vertex] for s, p in dist)
            assert expect == mus[n][v]


def test_histogram_json_sorted():
    sp = build_matrices(B.morse_diagram(4))
    hist = W.exact_distribution(sp, 4, W.WalkState(0, 0, 0))
    block = W.histogram_to_json(hist)
    data = json.loads(written(block))
    assert data["kind"] == "exact"
    for j, row in data["masses"].items():
        assert list(row) == sorted(row)  # the report: keys in string order, as sort_keys gives
        keys = [int(k) for k in block["masses"][j].to_json()]  # the library view
        assert keys == sorted(keys) == sorted(map(int, row))


def test_pulled_back_harmonic_vector_is_exact():
    # pulling any terminal vector back through M_n(1) gives the unique
    # harmonic sequence ending there; expectations reproduce it exactly
    rng = random.Random(2718)
    d = random_diagram(rng, depth=4)
    sp = build_matrices(d)
    mus = [None] * (sp.depth + 1)
    mus[-1] = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for _ in range(sp.dims[-1])]
    for n in range(sp.depth - 1, -1, -1):
        ones = sp.matrices[n].eval_at_one()
        mus[n] = [sum(mus[n + 1][i] * ones[i][j] for i in range(sp.matrices[n].rows))
                  for j in range(sp.dims[n])]
    from adicspace.dimspace import check_harmonic
    assert check_harmonic(sp, mus).ok
    for n in range(sp.depth):
        for v in range(sp.dims[n]):
            dist = W.step_distribution(sp, W.WalkState(0, v, n))
            assert sum(p * mus[n + 1][s.vertex] for s, p in dist) == mus[n][v]


def test_simulate_rejects_enclosure_space():
    from adicspace import rotation as R
    from adicspace.dimspace import build_matrices

    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    sp = build_matrices(R.rotation_diagram(cf, 3))
    with pytest.raises(BadInput):
        W.simulate(sp, 3, 10, seed=1)


def test_exact_distribution_enclosure_mode():
    from adicspace import rotation as R
    from adicspace.intervals import RatInterval

    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    sp = build_matrices(R.rotation_diagram(cf, 3))
    hist = W.exact_distribution(sp, 3, W.WalkState(0, 0, 0))
    total = hist.total_mass()
    assert isinstance(total, RatInterval) and total.contains(1)
    # displacements into the first vertex stay below q(3)
    assert all(0 <= disp < cf.q(3) for disp in hist.masses[0].support())


# Recorded from the Fraction-threshold sampler that preceded the integer one;
# both must give the same bytes for the same seed.
MORSE6_COUNTS = {
    0: [37, 26, 41, 22, 38, 33, 28, 24, 30, 31, 35, 33, 34, 29, 29, 42,
        31, 27, 37, 29, 26, 37, 24, 35, 31, 20, 29, 23, 35, 32, 31, 25],
    1: [32, 32, 34, 28, 29, 50, 42, 38, 32, 48, 31, 27, 30, 29, 33, 40,
        27, 35, 28, 28, 26, 24, 28, 24, 30, 33, 33, 34, 32, 28, 19, 32],
}


def test_simulate_bytes_pinned_morse():
    sp = build_matrices(B.morse_diagram(6))
    got = json.loads(written(W.histogram_to_json(W.simulate(sp, 6, 2000, seed=12345))))
    assert got == {
        "kind": "empirical",
        "masses": {str(j): {str(d): str(c) for d, c in enumerate(counts)}
                   for j, counts in MORSE6_COUNTS.items()},
        "trials": 2000,
    }


def test_simulate_bytes_pinned_random_diagram_nonzero_start():
    d = random_diagram(random.Random(2024), depth=5)
    sp = build_matrices(d)
    assert sp.dims == (1, 4, 2, 3, 2, 4)
    got = json.loads(written(W.histogram_to_json(
        W.simulate(sp, 5, 500, seed=77, start=W.WalkState(-3, 3, 1)))))
    assert got == {
        "kind": "empirical",
        "masses": {
            "0": {"7": "18", "10": "18", "21": "5", "24": "4"},
            "1": {"7": "5", "10": "7", "13": "39", "16": "18", "27": "38", "30": "35"},
            "2": {"7": "14", "10": "11"},
            "3": {"-1": "63", "2": "58", "13": "68", "16": "70", "27": "18", "30": "11"},
        },
        "trials": 500,
    }


def test_integer_threshold_matches_fraction_comparison():
    # u < ceil(p * 2^64) exactly when u / 2^64 < p, for every 64-bit u
    rng = random.Random(1729)
    two64 = 1 << 64
    for _ in range(2000):
        den = rng.choice([rng.randint(1, 50), rng.randint(1, 10 ** 30), 3 ** rng.randint(1, 60)])
        p = Fraction(rng.randint(1, den), den)
        t = -((-p.numerator << 64) // p.denominator)
        for u in (t - 1, t, t + 1):
            if 0 <= u < two64:
                assert (u < t) == (Fraction(u, two64) < p)


def test_start_state_is_checked_once_for_every_walk_function():
    sp = build_matrices(B.circulant_diagram(3, 3))  # dims (1, 3, 3, 3)
    for start, error in ((W.WalkState(0, -1, 1), BadInput),   # not the last vertex
                         (W.WalkState(0, 3, 1), BadInput),    # k(1) = 3
                         (W.WalkState(0, 1, 0), BadInput),    # the root is vertex 0 only
                         (W.WalkState(0, 0, -1), RangeError),
                         (W.WalkState(0, 0, 3), RangeError)):  # start after the target 2
        with pytest.raises(error):
            W.exact_distribution(sp, 2, start)
        with pytest.raises(error):
            W.simulate(sp, 2, 5, seed=1, start=start)
    for s in (W.WalkState(0, -1, 1), W.WalkState(0, 3, 1)):
        with pytest.raises(BadInput):
            W.step_distribution(sp, s)
    with pytest.raises(RangeError):
        W.step_distribution(sp, W.WalkState(0, 0, -1))  # would read matrices[-1]
    with pytest.raises(RangeError):
        W.exact_distribution(sp, 4, W.WalkState(0, 0, 0))


def test_exact_distribution_from_an_inner_vertex_matches_partial_product():
    sp = build_matrices(random_diagram(random.Random(2024), depth=5))  # dims (1, 4, 2, 3, 2, 4)
    hist = W.exact_distribution(sp, 5, W.WalkState(-3, 3, 1))
    prod = partial_product(sp, 1, 5)
    assert hist.total_mass() == 1
    for j in range(sp.dims[5]):
        assert hist.masses[j] == LaurentPoly({e - 3: c for e, c in prod.entries[j][3].items()})


def test_exact_walk_is_refused_over_the_path_budget():
    d = random_diagram(random.Random(2024), depth=5)
    sp = build_matrices(d)
    paths = sum(B.count_paths_into(d, 5, v) for v in range(d.k(5)))
    assert W.exact_distribution(sp, 5, W.WalkState(0, 0, 0), budget=paths).total_mass() == 1
    with pytest.raises(BudgetExceeded, match=f"= {paths} exceeds the budget {paths - 1}$"):
        W.exact_distribution(sp, 5, W.WalkState(0, 0, 0), budget=paths - 1)
    # the product from the root has one column, the exact walk's column
    assert partial_product(sp, 0, 5, budget=paths).cols == 1
    with pytest.raises(BudgetExceeded, match=rf"M_4 \.\.\. M_0 = {paths} exceeds the budget {paths - 1}$"):
        partial_product(sp, 0, 5, budget=paths - 1)


def test_histogram_writes_an_interval_mass_as_a_pair():
    from adicspace import rotation as R

    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    sp = build_matrices(R.rotation_diagram(cf, 2))
    rows = json.loads(written(W.histogram_to_json(
        W.exact_distribution(sp, 2, W.WalkState(0, 0, 0)))))["masses"]
    masses = [c for row in rows.values() for c in row.values()]
    assert masses and all(isinstance(c, list) and len(c) == 2 for c in masses)


def test_tv_distance_refuses_interval_mass_and_unequal_vertex_counts():
    one = W.DisplacementHistogram((LaurentPoly.one(),))
    point = W.DisplacementHistogram((LaurentPoly({0: RatInterval(1)}),))
    assert point.masses == one.masses  # a point interval equals its rational, yet is refused
    for a, b in ((point, one), (one, point), (point, point)):
        with pytest.raises(BadInput):
            W.tv_distance(a, b)
    with pytest.raises(DimensionMismatch):
        W.tv_distance(one, W.DisplacementHistogram((LaurentPoly.one(), LaurentPoly.zero())))


# -- reference models: a walk law as vertex -> displacement -> mass dicts

def reference_exact(space, n, start):
    """vertex -> displacement -> probability, stepped out from ``start`` one level at a time."""
    law = {(start.vertex, start.position): Fraction(1)}
    for level in range(start.level, n):
        nxt = {}
        for (v, pos), mass in law.items():
            for s, p in W.step_distribution(space, W.WalkState(pos, v, level)):
                nxt[s.vertex, s.position] = nxt.get((s.vertex, s.position), 0) + mass * p
        law = nxt
    masses = {}
    for (j, d), c in law.items():
        masses.setdefault(j, {})[d] = c
    return masses


def reference_json(kind, masses, trials=0):
    rows = {str(j): {str(d): coeff_to_json(c) for d, c in sorted(masses[j].items())}
            for j in sorted(masses)}
    out = {"kind": kind, "masses": rows}
    if kind == "empirical":
        out["trials"] = trials
    return out


def reference_tv(pa, pb):
    keys = {(j, d) for h in (pa, pb) for j, row in h.items() for d in row}
    return sum(abs(pa.get(j, {}).get(d, Fraction(0)) - pb.get(j, {}).get(d, Fraction(0)))
               for j, d in keys) / 2


def test_column_laws_match_the_dict_of_dicts_reference():
    rng = random.Random(15)
    cases = [(build_matrices(B.odometer_diagram(6)), 6, W.WalkState(0, 0, 0)),
             (build_matrices(B.odometer_diagram(6)), 6, W.WalkState(7, 0, 2)),
             (build_matrices(B.morse_diagram(6)), 6, W.WalkState(0, 0, 0)),
             (build_matrices(B.morse_diagram(6)), 6, W.WalkState(-5, 1, 2)),
             (build_matrices(B.circulant_diagram(4, 5)), 5, W.WalkState(0, 0, 0)),
             (build_matrices(B.circulant_diagram(4, 5)), 5, W.WalkState(3, 2, 1))]
    for _ in range(20):
        sp = build_matrices(random_diagram(rng, depth=rng.randint(2, 5)))
        level = rng.randint(0, sp.depth - 1)
        start = W.WalkState(rng.randint(-9, 9), rng.randrange(sp.dims[level]), level)
        cases.append((sp, rng.randint(level, sp.depth), start))
    for sp, n, start in cases:
        exact = W.exact_distribution(sp, n, start)
        emp = W.simulate(sp, n, 300, seed=rng.randrange(1 << 31), start=start)
        assert len(exact.masses) == len(emp.masses) == sp.dims[n]
        ref_exact = reference_exact(sp, n, start)
        ref_counts = {j: {d: int(c) for d, c in f.items()}
                      for j, f in enumerate(emp.masses) if not f.is_zero()}
        assert sum(c for row in ref_counts.values() for c in row.values()) == emp.total_mass() == 300
        for got, want in ((written(W.histogram_to_json(exact)), reference_json("exact", ref_exact)),
                          (written(W.histogram_to_json(emp)),
                           reference_json("empirical", ref_counts, 300))):
            assert json.loads(got) == want
            assert got == json.dumps(want, sort_keys=True, indent=2)
        ref_freqs = {j: {d: Fraction(c, 300) for d, c in row.items()} for j, row in ref_counts.items()}
        assert W.tv_distance(exact, emp) == reference_tv(ref_exact, ref_freqs)
        assert W.tv_distance(emp, exact) == W.tv_distance(exact, emp)
        assert W.tv_distance(exact, exact) == 0


# -- the sampler against the clamped step loop it replaced

def clamped_simulate(space, n, trials, seed, start=W.WalkState(0, 0, 0)):
    """Reference sampler: the same tables and draws, each step clamped to the last outcome.

    Nothing checks the columns, so a column that is not a law is sampled
    silently; on a law the clamp never acts.
    """
    tables = []
    for lvl in range(start.level, n):
        level_tables = []
        for v in range(space.dims[lvl]):
            outcomes, thresholds, acc = [], [], Fraction(0)
            for s, c in W.step_distribution(space, W.WalkState(0, v, lvl)):
                outcomes.append((s.position, s.vertex))
                acc += c
                thresholds.append(-((-acc.numerator << 64) // acc.denominator))
            level_tables.append((outcomes, thresholds, len(outcomes) - 1))
        tables.append(level_tables)
    counts = [{} for _ in range(space.dims[n])]
    base = W._mix64(seed ^ 0x9E3779B97F4A7C15)
    for trial in range(trials):
        z = W._mix64(base + trial)
        pos, vtx = start.position, start.vertex
        for step, level_tables in enumerate(tables):
            outcomes, thresholds, last = level_tables[vtx]
            exp, vtx = outcomes[min(bisect_right(thresholds, W._mix64(z + step)), last)]
            pos += exp
        row = counts[vtx]
        row[pos] = row.get(pos, 0) + 1
    return W.DisplacementHistogram(tuple(map(LaurentPoly._from_ints, counts)), trials)


def test_simulate_matches_the_clamped_reference():
    rng = random.Random(16)
    cases = [(build_matrices(B.odometer_diagram(7)), 7, W.WalkState(0, 0, 0)),
             (build_matrices(B.morse_diagram(6)), 6, W.WalkState(-5, 1, 2)),
             (build_matrices(B.circulant_diagram(4, 5)), 5, W.WalkState(3, 2, 1))]
    for _ in range(20):
        sp = build_matrices(random_diagram(rng, depth=rng.randint(2, 5)))
        level = rng.randint(0, sp.depth - 1)
        start = W.WalkState(rng.randint(-9, 9), rng.randrange(sp.dims[level]), level)
        cases.append((sp, rng.randint(level, sp.depth), start))
    for sp, n, start in cases:
        seed = rng.randrange(1 << 31)
        got = W.simulate(sp, n, 400, seed, start=start)
        assert got.masses == clamped_simulate(sp, n, 400, seed, start).masses
        assert got.total_mass() == 400


@pytest.mark.parametrize("block", [1, 3, 7])
def test_simulate_matches_the_clamped_reference_at_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(W, "_BLOCK", block)
    cases = [(build_matrices(B.morse_diagram(5)), 5, W.WalkState(0, 0, 0)),
             (build_matrices(random_diagram(random.Random(2024), depth=5)), 5, W.WalkState(-3, 3, 1))]
    for sp, n, start in cases:
        for trials in sorted({1, block - 1, block, block + 1, 3 * block + 2} - {0}):
            seed = 1000 * block + trials
            assert W.simulate(sp, n, trials, seed, start=start) == \
                clamped_simulate(sp, n, trials, seed, start), (block, trials)


def test_simulate_matches_the_clamped_reference_over_several_blocks():
    trials = 2 * W._BLOCK + 5
    cases = [(build_matrices(B.circulant_diagram(4, 5)), 5, W.WalkState(0, 0, 0), 31),
             (build_matrices(random_diagram(random.Random(2024), depth=5)), 5, W.WalkState(-3, 3, 1), 77)]
    for sp, n, start, seed in cases:
        got = W.simulate(sp, n, trials, seed, start=start)
        assert got == clamped_simulate(sp, n, trials, seed, start)
        assert got.total_mass() == trials


@pytest.mark.parametrize("depth", [70, 130])  # positions past 2^64, and past 2^128
def test_simulate_matches_the_clamped_reference_past_two_to_the_64(depth):
    sp = build_matrices(B.odometer_diagram(depth))
    got = W.simulate(sp, depth, 300, seed=depth)
    assert got == clamped_simulate(sp, depth, 300, depth)
    assert max(got.masses[0].support()) >= 1 << (depth - 6)


def test_simulate_matches_the_clamped_reference_when_only_the_key_passes_two_to_the_64():
    # positions fit in one word; position * K + vertex does not
    sp = build_matrices(B.circulant_diagram(4, 64))
    start = W.WalkState(5, 2, 3)
    spans = [[e for row in m.entries for f in row for e in f.support()]
             for m in sp.matrices[start.level:64]]
    span, k = sum(max(exps) - min(exps) for exps in spans), sp.dims[64]
    assert k > 1 and span + 1 <= 1 << 64 < (span + 1) * k
    for trials, seed in ((1, 4), (300, 64)):
        got = W.simulate(sp, 64, trials, seed, start=start)
        assert got == clamped_simulate(sp, 64, trials, seed, start)
        assert got.total_mass() == trials


def test_zero_step_walk_is_the_start_state():
    sp = build_matrices(random_diagram(random.Random(2024), depth=5))  # dims (1, 4, 2, 3, 2, 4)
    start = W.WalkState(-3, 3, 1)
    trials = 2 * W._BLOCK + 5
    got = W.simulate(sp, 1, trials, seed=8, start=start)
    assert got == clamped_simulate(sp, 1, trials, 8, start)
    assert got.masses == (LaurentPoly.zero(),) * 3 + (LaurentPoly._from_ints({-3: trials}),)


WORDS = st.one_of(st.sampled_from([0, 1, 1 << 63, W._MASK]), st.integers(0, W._MASK))
THRESHOLDS = st.one_of(st.sampled_from([1, 1 << 63, W._MASK, 1 << 64]), st.integers(1, 1 << 64))


@settings(max_examples=300, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=9), THRESHOLDS)
@example([0, W._MASK, 1 << 63], 1 << 64)  # the last threshold: no lane passes it
@example([0, W._MASK, (1 << 63) - 1], 1 << 63)
def test_lane_mask_is_the_scalar_comparison_lane_by_lane(values, t):
    # bit 64 of u + 2^64 - t is set exactly when u >= t, and never carries into the next lane
    lanes = len(values)
    one = W._pack([1] * lanes)
    ge = (W._pack(values) + ((1 << 64) - t) * one) >> 64 & one
    assert list(W._unpack(ge, lanes)) == [int(u >= t) for u in values]


COARSE_CUTS = st.one_of(st.sampled_from([1 << 33, 1 << 63, W._MASK ^ W._FINE]),
                        st.integers(1, (1 << 31) - 1).map(lambda c: c << 33))


@settings(max_examples=300, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=9), COARSE_CUTS, st.integers(-(1 << 34), 1 << 34))
@example([0, W._MASK], 1 << 33, -1)
@example([1, 2], W._MASK ^ W._FINE, 0)
def test_a_coarse_cut_reads_the_draw_before_the_last_xor_shift(values, t, near):
    # u = y ^ (y >> 31) changes bits 0..32 of y only, so y >= t exactly when u >= t
    # for every multiple t of 2^33: lane by lane, as simulate reads it ...
    lanes = len(values)
    one = W._pack([1] * lanes)
    y = W._premix_lanes(W._pack(values), one * W._MASK)
    ge = (y + ((1 << 64) - t) * one) >> 64 & one
    assert list(W._unpack(ge, lanes)) == [int(W._mix64(v) >= t) for v in values]
    assert list(W._unpack(y >> 64, lanes)) == [0] * lanes  # bits 64 and up of each lane clear
    # ... and on a word y within 2^34 of the cut, where a random draw seldom falls
    w = (t + near) & W._MASK
    assert (w >= t) == ((w ^ (w >> 31)) >= t)


@settings(max_examples=300, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=9), st.integers(0, 70))
@example([W._MASK, W._MASK - 2, 0], 5)  # z + step passes 2^64 in two lanes and must wrap
def test_lane_mixer_matches_mix64_value_by_value(values, step):
    lanes = len(values)
    one = W._pack([1] * lanes)
    mask = one * W._MASK
    z = W._pack(values)
    assert list(W._unpack(z, lanes)) == values
    assert list(W._unpack(W._mix_lanes(z, mask), lanes)) == [W._mix64(v) for v in values]
    assert list(W._unpack(W._mix_lanes(z + step * one, mask), lanes)) == \
        [W._mix64(v + step) for v in values]
    # the step round as simulate runs it, on the trial prefixes with bits 64..127 cleared
    prefix = W._mix_lanes(z, mask) & mask
    assert list(W._unpack(W._mix_lanes(prefix + step * one, mask), lanes)) == \
        [W._mix64(W._mix64(v) + step) for v in values]


def test_simulate_memory_is_bounded_by_the_block():
    import tracemalloc

    sp = build_matrices(B.circulant_diagram(4, 5))

    def peak(trials):
        tracemalloc.start()
        try:
            W.simulate(sp, 5, trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * W._BLOCK), peak(16 * W._BLOCK)
    assert large <= small + 64 * 1024, (small, large)


def test_simulate_memory_does_not_grow_with_the_depth():
    import tracemalloc

    # one vertex per level and a threshold of its own at every level
    def chain(depth):
        laws = [{0: Fraction(1, m), 1: Fraction(m - 1, m)} for m in range(3, depth + 3)]
        return DimensionSpace(tuple(LaurentMatrix([[LaurentPoly(t)]]) for t in laws),
                              (1,) * (depth + 1))

    def peak(depth):
        sp = chain(depth)
        tracemalloc.start()
        try:
            W.simulate(sp, depth, 2 * W._BLOCK, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shallow, deep = peak(8), peak(64)
    assert deep <= shallow + 64 * 1024, (shallow, deep)


def one_by_one(terms):
    """A hand-built 1x1 space whose one column is ``terms``, never validated."""
    return DimensionSpace((LaurentMatrix([[LaurentPoly(terms)]]),), (1, 1))


@pytest.mark.parametrize("terms, clamped, reason", [
    ({0: Fraction(1, 4), 1: Fraction(1, 4)}, {0: 997, 1: 3003}, "sums to 1/2, not 1"),
    ({0: Fraction(3, 4), 1: Fraction(3, 4)}, {0: 2972, 1: 1028}, "sums to 3/2, not 1"),
    ({0: HALF, 1: -HALF, 2: Fraction(1)}, {2: 4000}, "has -1/2, not an exact p > 0"),
    ({}, None, "sums to 0, not 1"),
], ids=["sums-to-half", "sums-to-three-halves", "negative-term", "empty-column"])
def test_simulate_refuses_a_column_that_is_not_a_law(terms, clamped, reason):
    sp = one_by_one(terms)
    with pytest.raises(BadInput, match=f"level 0 vertex 0 {reason}$"):
        W.simulate(sp, 1, 4000, seed=1)
    if clamped is not None:  # the clamped loop samples a wrong law without an error
        assert clamped_simulate(sp, 1, 4000, 1).masses[0] == LaurentPoly._from_ints(clamped)


def test_simulate_matches_the_clamped_reference_on_negative_displacements():
    # a labeling never gives a negative exponent, but a hand-built space may
    steps = ({-7: Fraction(1, 3), 2: Fraction(2, 3)}, {-1: HALF, 0: Fraction(1, 4), 1 << 70: Fraction(1, 4)})
    sp = DimensionSpace(tuple(LaurentMatrix([[LaurentPoly(t)]]) for t in steps), (1, 1, 1))
    got = W.simulate(sp, 2, 500, seed=9, start=W.WalkState(4, 0, 0))
    assert got == clamped_simulate(sp, 2, 500, 9, W.WalkState(4, 0, 0))
    assert min(got.masses[0].support()) == 4 - 8


def chain(*steps):
    """A hand-built walk with one vertex a level, the step law of level n being ``steps[n]``."""
    return DimensionSpace(tuple(LaurentMatrix([[LaurentPoly(t)]]) for t in steps),
                          (1,) * (len(steps) + 1))


TINY = Fraction(1, 1 << 70)


@pytest.mark.parametrize("steps, coarse", [
    # a cut at 2^33 exactly, the least coarse one
    (({0: Fraction(1, 1 << 31), 5: 1 - Fraction(1, 1 << 31)},) * 3, [True] * 3),
    # a cut at 2^32: the draw needs its last xor-shift
    (({0: Fraction(1, 1 << 32), 3: 1 - Fraction(1, 1 << 32)},) * 3, [False] * 3),
    # coarse and fine levels in turn
    (({0: HALF, 1: HALF}, {0: Fraction(1, 3), 2: Fraction(2, 3)}) * 3, [True, False] * 3),
    # the first cut rounds up to 2^64, so no draw passes the first outcome
    (({0: 1 - TINY, 1: TINY}, {0: HALF, 1: HALF}), [True, True]),
], ids=["cut-at-2^33", "cut-at-2^32", "coarse-then-fine", "first-cut-at-2^64"])
def test_simulate_matches_the_clamped_reference_on_coarse_and_fine_cuts(steps, coarse):
    sp = chain(*steps)
    cuts = [{-((-c.numerator << 64) // c.denominator) for c in accumulate(law.values())} - {1 << 64}
            for law in steps]
    assert [not any(t & W._FINE for t in c) for c in cuts] == coarse
    for trials, seed in ((1, 0), (W._BLOCK + 3, 41), (500, W._MASK)):
        got = W.simulate(sp, len(steps), trials, seed)
        assert got == clamped_simulate(sp, len(steps), trials, seed)
        assert got.total_mass() == trials


@pytest.mark.parametrize("seed", [0, 12345, W._MASK])
def test_a_fine_cut_between_a_draw_and_its_value_before_the_last_xor_shift(seed):
    # trial 0's first draw u and the y before its last xor-shift, with a fine cut between them
    z = W._mix64(W._mix64(seed ^ 0x9E3779B97F4A7C15))
    u = W._mix64(z)
    y = W._unpack(W._premix_lanes(W._pack([z]), W._pack([W._MASK])), 1)[0]
    assert y ^ (y >> 31) == u != y
    t = max(u, y)
    assert t & W._FINE
    p = Fraction(t, 1 << 64)  # its threshold is t itself
    sp = chain({0: p, 1: 1 - p})
    got = W.simulate(sp, 1, 1, seed)
    assert got == clamped_simulate(sp, 1, 1, seed)
    assert got.masses[0] == LaurentPoly._from_ints({int(u >= t): 1})
    assert W.simulate(sp, 1, 300, seed) == clamped_simulate(sp, 1, 300, seed)

def all_joined(k: int, depth: int) -> B.OrderedBratteliDiagram:
    """k vertices a level, every vertex joined to every vertex of the next, p = 1/k each.

    The edges into a vertex are ordered by their source, so the label of the edge from
    vertex i into level n + 1 is i * k^(n - 1): several set bits for most i.
    """
    levels = [["root"]] + [[f"v{n}_{i}" for i in range(k)] for n in range(1, depth + 1)]
    edges = [[B.Edge(f"e0_{i}", 0, 0, i, Fraction(1, k)) for i in range(k)]]
    orders = {(1, i): [f"e0_{i}"] for i in range(k)}
    for n in range(1, depth):
        edges.append([B.Edge(f"e{n}_{i}_{j}", n, i, j, Fraction(1, k))
                      for i in range(k) for j in range(k)])
        orders.update({(n + 1, j): [f"e{n}_{i}_{j}" for i in range(k)] for j in range(k)})
    return B.OrderedBratteliDiagram(levels, edges, orders)


def test_simulate_matches_the_clamped_reference_on_a_wide_level_with_multi_bit_displacements():
    sp = build_matrices(all_joined(8, 4))
    assert sp.dims == (1, 8, 8, 8, 8)
    moves = {b for m in sp.matrices for row in m.entries for f in row for b in f.support()}
    assert max(bin(b).count("1") for b in moves) == 3 and max(moves) == 7 * 64
    for trials, seed, start in ((W._BLOCK + 9, 5, W.WalkState(0, 0, 0)),
                                (300, 6, W.WalkState(-2, 5, 2))):
        got = W.simulate(sp, 4, trials, seed, start=start)
        assert got == clamped_simulate(sp, 4, trials, seed, start)
        assert got.total_mass() == trials


def test_simulate_memory_on_a_wide_level_is_bounded_by_the_block():
    import tracemalloc

    sp = build_matrices(all_joined(16, 2))  # a level of 16 vertices and 256 outcomes

    def peak(trials):
        tracemalloc.start()
        try:
            W.simulate(sp, 2, trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * W._BLOCK), peak(16 * W._BLOCK)
    assert large <= small + 64 * 1024, (small, large)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
def test_simulate_refuses_a_seed_outside_64_bits(seed):
    # the generator reads the seed modulo 2^64, so -1 would replay 2^64 - 1
    sp = build_matrices(B.odometer_diagram(3))
    with pytest.raises(BadInput, match=rf"^seed {seed} outside 0\.\.2\^64-1$"):
        W.simulate(sp, 3, 5, seed)
    for ok in (0, W._MASK):
        assert W.simulate(sp, 3, 50, ok) == clamped_simulate(sp, 3, 50, ok)
