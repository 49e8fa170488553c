from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspace.errors import DimensionMismatch
from adicspace.intervals import RatInterval
from adicspace.laurent import LaurentMatrix, LaurentPoly, mat_mul, sum_coeffs, weighted_one_norm

HALF = Fraction(1, 2)


def poly(*terms):
    return LaurentPoly({e: Fraction(c) for e, c in terms})


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
polys_st = st.dictionaries(st.integers(min_value=-6, max_value=6), fractions_st,
                           max_size=5).map(LaurentPoly)


# -- frozen arithmetic examples -------------------------------------------------

def test_square_of_one_plus_x():
    f = poly((0, 1), (1, 1))
    assert f * f == poly((0, 1), (1, 2), (2, 1))


def test_dyadic_telescoping_step():
    # (1/2)(1+x) * (1/2)(1+x^2) expands to (1/4)(1+x+x^2+x^3)
    f = poly((0, HALF), (1, HALF))
    g = poly((0, HALF), (2, HALF))
    assert f * g == poly((0, "1/4"), (1, "1/4"), (2, "1/4"), (3, "1/4"))


def test_multiplicative_identity():
    f = poly((-3, "2/7"), (5, -2))
    assert f * LaurentPoly.one() == f


def test_cancellation_drops_terms():
    f = poly((0, 1), (4, 1))
    g = poly((0, 1), (4, -1))
    assert (f + g) == poly((0, 2))
    assert (f - f).is_zero()
    column = LaurentMatrix([[LaurentPoly.one()], [LaurentPoly.one()]])
    # an interval entry that sums to RatInterval(0, 0) is dropped
    point = LaurentPoly({3: RatInterval(Fraction(1, 2))})
    m = LaurentMatrix([[point, poly((3, "-1/2"), (5, 1))]])
    assert mat_mul(m, column).entries[0][0] == poly((5, 1))
    # rational terms that sum to Fraction(0) are dropped, in mat_mul and in mul_vector
    m = LaurentMatrix([[poly((0, "1/3"), (2, 1)), poly((0, "-1/3"), (2, -1))]])
    assert mat_mul(m, column).entries[0][0].is_zero()
    assert m.mul_vector([LaurentPoly.one(), LaurentPoly.one()])[0].is_zero()
    # an interval that only contains 0 is not an exact zero, so it is kept
    wide = LaurentPoly({0: RatInterval(Fraction(1, 3), Fraction(1, 2))})
    m = LaurentMatrix([[wide, poly((0, "-2/5"))]])
    assert mat_mul(m, column).entries[0][0] == LaurentPoly(
        {0: RatInterval(Fraction(-1, 15), Fraction(1, 10))})


def test_negative_exponents_and_shift():
    f = poly((-2, 1), (1, 1))
    assert f.shift(2) == poly((0, 1), (3, 1))
    assert (f * LaurentPoly.x(-1)) == poly((-3, 1), (0, 1))


def test_eval_and_norm_with_signs():
    f = poly((0, 1), (3, -2))
    assert f.eval_at_one() == -1
    assert f.one_norm() == 3


def test_enclosure_coefficients_mix():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    f = LaurentPoly({0: iv, 1: Fraction(1, 2)})
    g = f * f
    # (iv*x^0 + 1/2 x)^2: constant iv^2, middle 2*(iv/2), top 1/4
    assert g.coeff(0) == RatInterval(Fraction(1, 9), Fraction(1, 4))
    assert g.coeff(1) == RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert g.coeff(2) == Fraction(1, 4)
    total = g.eval_at_one()
    assert isinstance(total, RatInterval)
    assert total.contains(Fraction(1, 9) + Fraction(1, 3) + Fraction(1, 4))


def test_serialization_round_trip():
    f = LaurentPoly({-2: Fraction(3, 4), 10 ** 20: Fraction(-1, 7),
                     3: RatInterval(Fraction(1, 3), Fraction(2, 3))})
    assert LaurentPoly.from_json(f.to_json()) == f
    assert list(f.to_json()) == sorted(f.to_json(), key=int)


# -- ring axioms on randomized polynomials --------------------------------------

@given(polys_st, polys_st, polys_st)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys_st, polys_st)
@settings(max_examples=60, deadline=None)
def test_eval_at_one_is_a_homomorphism(f, g):
    assert (f * g).eval_at_one() == f.eval_at_one() * g.eval_at_one()
    assert (f + g).eval_at_one() == f.eval_at_one() + g.eval_at_one()


# -- matrices --------------------------------------------------------------------

def morse_closed_form(n):
    one, x = poly((0, HALF)), poly((2 ** n, HALF))
    return LaurentMatrix([[one, x], [x, one]])


def test_mat_mul_identity():
    m = morse_closed_form(3)
    assert mat_mul(LaurentMatrix.identity(2), m) == m
    assert mat_mul(m, LaurentMatrix.identity(2)) == m


def test_odometer_scalar_product():
    # prod over i<3 of (1/2)(1 + x^(2^i)) is the uniform eighth on 0..7
    acc = LaurentMatrix([[LaurentPoly.one()]])
    for i in range(3):
        acc = mat_mul(LaurentMatrix([[poly((0, HALF), (2 ** i, HALF))]]), acc)
    assert acc.entries[0][0] == LaurentPoly({k: Fraction(1, 8) for k in range(8)})


def test_morse_products_frozen():
    # expanded by hand from the closed forms with exponents 2^n
    m1m0 = mat_mul(morse_closed_form(1), morse_closed_form(0))
    quarter = Fraction(1, 4)
    assert m1m0 == LaurentMatrix([
        [poly((0, quarter), (3, quarter)), poly((1, quarter), (2, quarter))],
        [poly((1, quarter), (2, quarter)), poly((0, quarter), (3, quarter))],
    ])
    m2m1 = mat_mul(morse_closed_form(2), morse_closed_form(1))
    assert m2m1 == LaurentMatrix([
        [poly((0, quarter), (6, quarter)), poly((2, quarter), (4, quarter))],
        [poly((2, quarter), (4, quarter)), poly((0, quarter), (6, quarter))],
    ])


def test_mat_mul_dimension_mismatch():
    m = morse_closed_form(0)
    tall = LaurentMatrix([[LaurentPoly.one()], [LaurentPoly.one()], [LaurentPoly.one()]])
    with pytest.raises(DimensionMismatch):
        mat_mul(m, tall)


matrices_st = st.lists(st.lists(polys_st, min_size=2, max_size=2), min_size=2, max_size=2)


@given(matrices_st.map(LaurentMatrix), matrices_st.map(LaurentMatrix),
       matrices_st.map(LaurentMatrix))
@settings(max_examples=30, deadline=None)
def test_mat_mul_associativity(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_eval_at_one_matrix_and_column_sums():
    m = morse_closed_form(4)
    assert m.eval_at_one() == [[HALF, HALF], [HALF, HALF]]
    assert m.column_sums_at_one() == [Fraction(1), Fraction(1)]


# -- weighted one-norm ------------------------------------------------------------

def test_weighted_one_norm_basics():
    assert weighted_one_norm([poly((0, 1), (1, 1))], [Fraction(1)]) == 2
    col = [poly((0, HALF)), poly((5, HALF))]
    assert weighted_one_norm(col, [Fraction(1), Fraction(1)]) == 1
    with pytest.raises(DimensionMismatch):
        weighted_one_norm(col, [Fraction(1)])


@given(polys_st, polys_st)
@settings(max_examples=40, deadline=None)
def test_norm_submultiplicative_under_stochastic_scalar(f, g):
    # |f*g| <= |f| |g|, with equality when all coefficients are nonnegative
    lhs = (f * g).one_norm()
    assert lhs <= f.one_norm() * g.one_norm()
    fp = LaurentPoly({e: abs(c) for e, c in f.items()})
    gp = LaurentPoly({e: abs(c) for e, c in g.items()})
    assert (fp * gp).one_norm() == fp.one_norm() * gp.one_norm()


# -- exact coefficient sum ----------------------------------------------------------

def naive_fold(values):
    """Left fold from Fraction(0), reordering so an interval term goes first."""
    total = Fraction(0)
    for v in values:
        total = total + v if not isinstance(v, RatInterval) else v + total
    return total


sum_fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=30)
intervals_st = st.tuples(sum_fractions_st, sum_fractions_st).map(
    lambda ab: RatInterval(min(ab), max(ab)))
mixed_st = st.lists(st.one_of(st.integers(min_value=-9, max_value=9), sum_fractions_st,
                              intervals_st), max_size=12)


@given(mixed_st, st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_sum_coeffs_matches_naive_fold(values, cancel):
    # appending negations of a prefix makes terms cancel, possibly to zero
    values = values + [-v for v in values[:cancel]]
    got, want = sum_coeffs(values), naive_fold(values)
    assert type(got) is type(want)
    assert got == want
    assert sum_coeffs(iter(values)) == want


def test_sum_coeffs_edge_cases():
    assert sum_coeffs([]) == 0 and type(sum_coeffs([])) is Fraction
    assert type(sum_coeffs([3, -3])) is Fraction
    thirds = [Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)]
    assert sum_coeffs(thirds) == 0
    iv = RatInterval(Fraction(1, 7), Fraction(2, 7))
    assert sum_coeffs([Fraction(1, 3), iv, 2]) == RatInterval(Fraction(52, 21), Fraction(55, 21))


def _column_sums_per_entry(a):
    """Column sums at x = 1 with one evaluation per matrix position."""
    return [sum_coeffs(a.entries[i][j].eval_at_one() for i in range(a.rows))
            for j in range(a.cols)]


def test_column_sums_at_one_shared_and_distinct_entries():
    from adicspace.atcheck import circulant_product

    shared = circulant_product(4, 1, 1)
    assert len({id(e) for row in shared.entries for e in row}) == 4
    assert shared.column_sums_at_one() == _column_sums_per_entry(shared)
    f = poly((0, "1/3"), (2, "-5/7"))
    interval = LaurentPoly({1: RatInterval(Fraction(1, 4), Fraction(1, 3))})
    distinct = LaurentMatrix([
        [f, poly((-1, 2)), LaurentPoly.zero()],
        [poly((0, "1/3"), (2, "-5/7")), f, interval],  # an equal copy beside f itself
        [poly((4, "2/9"), (5, "1/9")), poly((3, -1), (7, "1/2")), f],
    ])
    sums = distinct.column_sums_at_one()
    assert sums == _column_sums_per_entry(distinct)
    assert sums[:2] == [Fraction(-3, 7), Fraction(47, 42)]
    assert isinstance(sums[2], RatInterval)
