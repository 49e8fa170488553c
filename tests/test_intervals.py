from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspace.intervals import RatInterval, exact_sum
from adicspace.laurent import LaurentPoly


def test_point_and_width():
    p = RatInterval.point(Fraction(3, 7))
    assert p.lo == p.hi == Fraction(3, 7)
    assert p.width == 0
    assert RatInterval(1, 2).width == 1


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


def test_inexact_endpoints_rejected():
    for lo, hi in ((0.5, None), (Fraction(1, 2), 0.75), ("1/2", None)):
        with pytest.raises(TypeError, match="exact rational"):
            RatInterval(lo, hi)


def test_arithmetic_endpoints():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    b = RatInterval(Fraction(-1), Fraction(2))
    assert (a + b) == RatInterval(Fraction(-2, 3), Fraction(5, 2))
    assert (a - b) == RatInterval(Fraction(1, 3) - 2, Fraction(1, 2) + 1)
    assert (a * b) == RatInterval(Fraction(-1, 2), Fraction(1))
    assert (b / a) == RatInterval(Fraction(-3), Fraction(6))


def test_mixed_scalar_coercion():
    a = RatInterval(Fraction(1, 4), Fraction(1, 2))
    assert 1 + a == RatInterval(Fraction(5, 4), Fraction(3, 2))
    assert Fraction(2) * a == RatInterval(Fraction(1, 2), Fraction(1))
    assert 1 - a == RatInterval(Fraction(1, 2), Fraction(3, 4))
    assert 1 / a == RatInterval(2, 4)


def test_division_through_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        RatInterval(1, 2) / RatInterval(-1, 1)


def test_abs_three_cases():
    assert abs(RatInterval(1, 2)) == RatInterval(1, 2)
    assert abs(RatInterval(-2, -1)) == RatInterval(1, 2)
    assert abs(RatInterval(-1, 3)) == RatInterval(0, 3)


def test_containment_and_strictness():
    a = RatInterval(Fraction(1, 9), Fraction(1, 7))
    assert a.contains(Fraction(1, 8))
    assert a.strictly_inside(Fraction(1, 10), Fraction(1, 6))
    assert not a.strictly_inside(Fraction(1, 9), Fraction(1, 6))


def test_zero_and_sign_predicates():
    # the zero rule of the Laurent kernels is `c == 0`, exact for both coefficient kinds
    assert RatInterval(0, 0) == 0
    assert RatInterval(0, 1) != 0
    assert Fraction(0) == 0
    assert LaurentPoly({0: RatInterval(0, 2), 1: Fraction(1, 3)}).is_nonnegative()
    assert not LaurentPoly({0: RatInterval(-1, 2)}).is_nonnegative()
    assert not LaurentPoly({0: Fraction(-1, 3)}).is_nonnegative()


def test_point_interval_hashes_like_its_rational():
    for q in (0, 1, -3, 2 ** 70, Fraction(1), Fraction(-5, 7), Fraction(1, 3 ** 40)):
        r = RatInterval(q)
        assert r == q and hash(r) == hash(q)
    assert len({RatInterval(Fraction(1, 2)), Fraction(1, 2)}) == 1


def four_products(a, b):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return min(products), max(products)


def four_quotients(a, b):
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return min(quotients), max(quotients)


ends_st = st.fractions(min_value=-5, max_value=5, max_denominator=40)
nonnegative_ends_st = st.fractions(min_value=0, max_value=5, max_denominator=40)


def intervals(ends):
    return st.tuples(ends, ends).map(lambda ab: RatInterval(min(ab), max(ab)))


@given(st.one_of(intervals(nonnegative_ends_st), intervals(ends_st)),
       st.one_of(intervals(nonnegative_ends_st), intervals(ends_st), ends_st))
@settings(max_examples=300, deadline=None)
def test_products_and_quotients_keep_the_four_point_rule(a, b):
    # a nonnegative pair takes [ac, bd] and [a/d, b/c]; the endpoints are those of the full rule
    c = RatInterval.coerce(b)
    got = a * b
    assert (got.lo, got.hi) == four_products(a, c)
    assert all(type(x) is Fraction for x in (got.lo, got.hi))
    if c.lo > 0 or c.hi < 0:
        got = a / b
        assert (got.lo, got.hi) == four_quotients(a, c)


sum_values_st = st.lists(st.one_of(st.integers(-20, 20), ends_st, intervals(ends_st),
                                   st.just(RatInterval(Fraction(1, 3), Fraction(1, 2)))),
                         max_size=12)


@given(sum_values_st)
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_the_fraction_fold_in_value_and_type(values):
    want = sum(values, Fraction(0))
    got = exact_sum(iter(values))
    assert type(got) is type(want) and got == want
    if isinstance(got, RatInterval):
        assert all(type(x) is Fraction for x in (got.lo, got.hi))


def test_exact_sum_refuses_an_inexact_value():
    assert exact_sum([]) == 0 and type(exact_sum([])) is Fraction
    with pytest.raises(TypeError):
        exact_sum([Fraction(1, 2), 0.5])


def test_interval_is_immutable_and_compares_only_with_numbers():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(AttributeError, match="immutable"):
        iv.lo = Fraction(0)
    assert iv.lo == Fraction(1, 3)
    for other in ("1/3", None, (Fraction(1, 3), Fraction(1, 2))):
        assert iv != other and not (iv == other)
    assert RatInterval(Fraction(1, 2)) == Fraction(1, 2) != iv


def test_interval_reprs():
    assert repr(RatInterval(Fraction(1, 2))) == "RatInterval(1/2)"
    assert repr(RatInterval(Fraction(-1, 3), 2)) == "RatInterval(-1/3, 2)"
