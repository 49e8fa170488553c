import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from adicspace import bratteli as B
from adicspace import dimspace as D
from adicspace.errors import DimensionMismatch, RangeError
from adicspace.intervals import RatInterval, exact_sum
from adicspace.labeling import label_edges, path_bsum
from adicspace.laurent import LaurentMatrix, LaurentPoly
from conftest import random_diagram
from path_oracle import left_fold, paths_between
from test_cli import non_dyadic_spec

HALF = Fraction(1, 2)


def odometer_closed(n):
    return LaurentMatrix([[LaurentPoly({0: HALF, 2 ** n: HALF})]])


def circulant_closed(k, n):
    rows = []
    for r in range(k):
        row = [LaurentPoly.zero()] * k
        row[r] = LaurentPoly({0: HALF})
        row[(r - 1) % k] = LaurentPoly({2 ** n: HALF})
        rows.append(row)
    return LaurentMatrix(rows)


def test_odometer_matrices_golden():
    sp = D.build_matrices(B.odometer_diagram(8))
    for n in range(8):
        assert sp.matrices[n] == odometer_closed(n)


def test_morse_matrices_golden():
    # the root fans out as a 2x1 column; from there the closed form holds
    sp = D.build_matrices(B.morse_diagram(8))
    assert sp.matrices[0] == LaurentMatrix([[LaurentPoly({0: HALF})],
                                            [LaurentPoly({0: HALF})]])
    for n in range(7):
        assert sp.matrices[n + 1] == circulant_closed(2, n)


def test_circulant_matrices_golden():
    for k in (3, 4, 5):
        sp = D.build_matrices(B.circulant_diagram(k, 6))
        for n in range(5):
            assert sp.matrices[n + 1] == circulant_closed(k, n)


def test_wide_sparse_levels_share_one_zero():
    # circulant:300 has 2 edges into each of 300 vertices: 600 of 90,000 entries are nonzero
    d = B.circulant_diagram(300, 3)
    tracemalloc.start()
    try:
        space = D.build_matrices(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"build_matrices peaked at {peak / 2 ** 20:.1f} MiB"
    assert len({id(e) for m in space.matrices for row in m.entries for e in row
                if e.is_zero()}) == 1


def test_each_edge_is_one_term_of_its_entry():
    # labels strictly increase along a fiber, so parallel edges never share an exponent
    from adicspace import rotation as R

    rng = random.Random(30)
    diagrams = [B.odometer_diagram(6), B.morse_diagram(6), B.circulant_diagram(4, 6)]
    diagrams += [random_diagram(rng, depth=4) for _ in range(10)]
    diagrams.append(R.rotation_diagram(R.CFExpansion([2, 1, 3, 1, 2, 4, 1, 2]), 6))
    diagrams.append(B.validate_diagram(non_dyadic_spec(9)))  # parallel w and x edges
    for d in diagrams:
        for n, m in enumerate(D.build_matrices(d).matrices):
            assert sum(e.num_terms() for row in m.entries for e in row) == len(d.edges[n])


def test_partial_product_telescopes_odometer():
    sp = D.build_matrices(B.odometer_diagram(12))
    for n in (3, 8, 12):
        prod = D.partial_product(sp, 0, n)
        assert prod.entries[0][0] == LaurentPoly(
            {j: Fraction(1, 2 ** n) for j in range(2 ** n)}
        )


def test_partial_product_single_factor_and_range_guard():
    sp = D.build_matrices(B.morse_diagram(4))
    assert D.partial_product(sp, 2, 3) == sp.matrices[2]
    with pytest.raises(RangeError):
        D.partial_product(sp, 3, 3)
    with pytest.raises(RangeError):
        D.partial_product(sp, 0, 9)


def test_circulant_partial_product_subset_oracle():
    # product of the first three closed-form factors for k = 4: each class
    # collects the subsets of {1, 2, 4} whose size is congruent to it mod 4
    k = 4
    prod = circulant_closed(k, 0)
    for n in (1, 2):
        from adicspace.laurent import mat_mul
        prod = mat_mul(circulant_closed(k, n), prod)
    classes = {p: {} for p in range(k)}
    for size in range(4):
        for subset in combinations((1, 2, 4), size):
            classes[size % k][sum(subset)] = Fraction(1, 8)
    for r in range(k):
        for c in range(k):
            assert prod.entries[r][c] == LaurentPoly(classes[(r - c) % k])


def test_path_measure_oracle_on_random_diagrams():
    # entry (j, 0) of M_{n-1} ... M_0 is the sum over the paths p into j of
    # mu(p) x^{bsum(p)}: the matrices against the paths, by separate routes
    rng = random.Random(29)
    for _ in range(8):
        d = random_diagram(rng, depth=4)
        lab = label_edges(d)
        sp = D.build_matrices(d)
        for n in range(1, d.depth + 1):
            prod = D.partial_product(sp, 0, n)
            for j in range(d.k(n)):
                expected = LaurentPoly.zero()
                for p in B.enumerate_paths(d, n - 1, v=j):
                    expected = expected + LaurentPoly.monomial(B.cylinder_measure(d, p),
                                                               path_bsum(lab, p))
                assert prod.entries[j][0] == expected


def fold_oracle_diagrams():
    """The presets at depth 8, random diagrams, rotation and interval-p diagrams."""
    from adicspace import rotation as R
    from test_cli import interval_spec

    rng = random.Random(30)
    diagrams = [B.odometer_diagram(8), B.morse_diagram(8), B.circulant_diagram(4, 8)]
    diagrams += [random_diagram(rng, depth=5) for _ in range(10)]
    for terms, depth in (([1] * 12, 9), (list(range(2, 10)), 6)):  # enclosure-valued p
        diagrams.append(R.rotation_diagram(R.CFExpansion(terms), depth))
    diagrams.append(B.validate_diagram(interval_spec(7)))  # ["lo", "hi"] p on one level
    return diagrams


def test_partial_product_equals_the_left_fold():
    # the product tree groups the same factors as the fold, so every coefficient is the same
    for d in fold_oracle_diagrams():
        sp = D.build_matrices(d)
        for start, stop in combinations(range(d.depth + 1), 2):
            tree, fold = D.partial_product(sp, start, stop), left_fold(sp, start, stop)
            assert tree == fold, (start, stop)
            assert ([[p.to_json() for p in row] for row in tree.entries]
                    == [[p.to_json() for p in row] for row in fold.entries]), (start, stop)


def test_each_path_is_one_term_of_its_product_entry():
    # no two term products ever add, which is why the grouping cannot change a coefficient
    for d in fold_oracle_diagrams():
        sp = D.build_matrices(d)
        for start, stop in combinations(range(d.depth + 1), 2):
            prod = D.partial_product(sp, start, stop)
            for j, row in enumerate(prod.entries):
                for i, entry in enumerate(row):
                    assert entry.num_terms() == len(paths_between(d, start, i, stop, j))


def test_partial_product_peaks_below_1_4_times_what_it_keeps():
    # the left fold peaked at 1.72 times its result; two half-products peak at 1.23
    sp = D.build_matrices(B.odometer_diagram(16))
    tracemalloc.start()
    try:
        prod = D.partial_product(sp, 0, 16)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prod.entries[0][0].num_terms() == 2 ** 16
    assert peak < 1.4 * kept, (peak, kept)


def test_generated_matrices_are_stochastic_and_positive():
    from adicspace import rotation as R

    rng = random.Random(17)
    spaces = [D.build_matrices(random_diagram(rng, depth=4)) for _ in range(10)]
    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    spaces.append(D.build_matrices(R.rotation_diagram(cf, 4)))  # interval probabilities
    for sp in spaces:
        for m in sp.matrices:
            for j in range(m.cols):
                mass = exact_sum(row[j].eval_at_one() for row in m.entries)
                assert RatInterval.coerce(mass).contains(1)
            assert all(RatInterval.coerce(c).lo > 0
                       for row in m.entries for entry in row for _, c in entry.items())


def test_check_harmonic_all_ones_passes():
    for d in (B.odometer_diagram(5), B.morse_diagram(5), B.circulant_diagram(4, 5)):
        sp = D.build_matrices(d)
        mus = [[Fraction(1)] * sp.dims[n] for n in range(sp.depth + 1)]
        assert D.check_harmonic(sp, mus).ok


def test_check_harmonic_reports_residual_pattern():
    sp = D.build_matrices(B.morse_diagram(3))
    mus = [[Fraction(1)] * sp.dims[0]] + [[Fraction(1), Fraction(2)]] * 3
    rep = D.check_harmonic(sp, mus)
    assert not rep.ok
    # (1,2) * (1/2)J = (3/2, 3/2); residual against (1,2) is (+1/2, -1/2)
    assert rep.residuals[1] == (HALF, -HALF)


def test_check_harmonic_refuses_misshapen_rows():
    sp = D.build_matrices(B.morse_diagram(3))  # dims (1, 2, 2, 2)
    with pytest.raises(DimensionMismatch, match="one row vector per level"):
        D.check_harmonic(sp, [[1], [1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch, match="mu_2 has length 3, expected 2"):
        D.check_harmonic(sp, [[1], [1, 1], [1, 1, 1], [1, 1]])


def test_state_eval_and_compatibility():
    sp = D.build_matrices(B.circulant_diagram(4, 5))
    ones = [Fraction(1)] * 4
    unit = [LaurentPoly.one()] + [LaurentPoly.zero()] * 3
    assert D.state_eval(unit, ones) == 1
    rng = random.Random(8)
    f = [LaurentPoly({rng.randint(-3, 3): Fraction(rng.randint(-5, 5), 3)})
         for _ in range(4)]
    pushed = sp.matrices[2].mul_vector(f)
    assert D.state_eval(pushed, ones) == D.state_eval(f, ones)
    with pytest.raises(DimensionMismatch):
        D.state_eval(unit[:2], ones)


def test_stochastic_column_state_is_one():
    sp = D.build_matrices(B.morse_diagram(4))
    m = sp.matrices[2]
    col = [m.entries[i][0] for i in range(m.rows)]
    assert D.state_eval(col, [Fraction(1)] * m.rows) == 1


def test_horizon_norm_telescoping_cancellation():
    sp = D.build_matrices(B.odometer_diagram(6))
    f = [LaurentPoly({0: Fraction(1), 1: Fraction(-1)})]
    assert D.horizon_norm(sp, f, 0, 3) == Fraction(1, 4)
    assert D.horizon_norm(sp, f, 0, 0) == 2


def test_horizon_norm_constant_for_nonnegative():
    sp = D.build_matrices(B.circulant_diagram(3, 6))
    f = [LaurentPoly({1: Fraction(2, 3)}), LaurentPoly({0: Fraction(1, 3)}),
         LaurentPoly.zero()]
    values = [D.horizon_norm(sp, f, 1, m) for m in range(1, 7)]
    assert all(v == values[0] for v in values)


def test_horizon_norm_nonincreasing():
    sp = D.build_matrices(B.morse_diagram(6))
    f = [LaurentPoly({0: Fraction(1)}), LaurentPoly({0: Fraction(-1)})]
    values = [D.horizon_norm(sp, f, 1, m) for m in range(1, 7)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    rng = random.Random(31)
    for _ in range(5):
        d = random_diagram(rng, depth=5)
        sp = D.build_matrices(d)
        f = [LaurentPoly({rng.randint(-2, 2): Fraction(rng.randint(-4, 4))})
             for _ in range(sp.dims[0])]
        values = [D.horizon_norm(sp, f, 0, m) for m in range(sp.depth + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_check_harmonic_rotation_encloses_zero():
    from adicspace import rotation as R

    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    sp = D.build_matrices(R.rotation_diagram(cf, 5))
    mus = [[Fraction(1)] * sp.dims[n] for n in range(sp.depth + 1)]
    assert D.check_harmonic(sp, mus).ok
