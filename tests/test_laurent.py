import json
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adicspace import rotation
from adicspace.cli import _writable
from adicspace.dimspace import build_matrices, partial_product
from adicspace.errors import DimensionMismatch
from adicspace.intervals import RatInterval
from adicspace.laurent import (LaurentMatrix, LaurentPoly, _key_groups, coeff_from_json,
                               coeff_to_json, l1_distance, mat_mul)
from path_oracle import left_fold

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


def test_matrix_shape_errors_are_coded():
    one = LaurentPoly.one()
    for entries in ([], [[]], [[one, one], [one]], [[one], [one, one]]):
        with pytest.raises(DimensionMismatch):
            LaurentMatrix(entries)


def test_mul_vector_refuses_a_vector_of_the_wrong_length():
    one = LaurentPoly.one()
    m = LaurentMatrix([[one, one]])
    for vec in ([], [one], [one, one, one]):
        with pytest.raises(DimensionMismatch, match=f"^vector length {len(vec)} != cols 2$"):
            m.mul_vector(vec)
    assert m.mul_vector([one, one]) == [LaurentPoly({0: Fraction(2)})]


def test_poly_refuses_inexact_coefficients_and_scalar_products():
    for c in (0.5, "1/2", None):
        with pytest.raises(TypeError, match="unsupported coefficient"):
            LaurentPoly({0: c})
    # a scalar product is scale(); * takes two polynomials
    for c in (2, HALF):
        with pytest.raises(TypeError):
            LaurentPoly.x() * c
        with pytest.raises(TypeError):
            c * LaurentPoly.x()


matrices_st = st.lists(st.lists(polys_st, min_size=2, max_size=2), min_size=2, max_size=2)


@given(matrices_st.map(LaurentMatrix), matrices_st.map(LaurentMatrix),
       matrices_st.map(LaurentMatrix))
@settings(max_examples=30, deadline=None)
def test_mat_mul_associativity(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_eval_at_one_matrix_and_column_sums():
    m = morse_closed_form(4)
    assert m.eval_at_one() == [[HALF, HALF], [HALF, HALF]]
    assert _column_sums(m) == [Fraction(1), Fraction(1)]


@given(polys_st, polys_st)
@settings(max_examples=40, deadline=None)
def test_norm_submultiplicative_under_stochastic_scalar(f, g):
    # |f*g| <= |f| |g|, with equality when all coefficients are nonnegative
    lhs = (f * g).one_norm()
    assert lhs <= f.one_norm() * g.one_norm()
    fp = LaurentPoly({e: abs(c) for e, c in f.items()})
    gp = LaurentPoly({e: abs(c) for e, c in g.items()})
    assert (fp * gp).one_norm() == fp.one_norm() * gp.one_norm()


# -- exact coefficient sums ---------------------------------------------------------

def naive_fold(values):
    """Left fold from Fraction(0), reordering so an interval term goes first."""
    total = Fraction(0)
    for v in values:
        total = total + v if not isinstance(v, RatInterval) else v + total
    return total


sum_fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=30)
intervals_st = st.tuples(sum_fractions_st, sum_fractions_st).map(
    lambda ab: RatInterval(min(ab), max(ab)))


def _column_sums(a):
    """Column sums at x = 1, folded from the matrix's own evaluation."""
    values = a.eval_at_one()
    return [naive_fold([values[i][j] for i in range(a.rows)]) for j in range(a.cols)]


def test_eval_at_one_shared_and_distinct_entries():
    from adicspace.atcheck import circulant_product

    shared = circulant_product(4, 1, 1)
    assert len({id(e) for row in shared.entries for e in row}) == 4
    assert _column_sums(shared) == [Fraction(1)] * 4
    f = poly((0, "1/3"), (2, "-5/7"))
    interval = LaurentPoly({1: RatInterval(Fraction(1, 4), Fraction(1, 3))})
    distinct = LaurentMatrix([
        [f, poly((-1, 2)), LaurentPoly.zero()],
        [poly((0, "1/3"), (2, "-5/7")), f, interval],  # an equal copy beside f itself
        [poly((4, "2/9"), (5, "1/9")), poly((3, -1), (7, "1/2")), f],
    ])
    sums = _column_sums(distinct)
    assert sums[:2] == [Fraction(-3, 7), Fraction(47, 42)]
    assert isinstance(sums[2], RatInterval)


# -- the shared-denominator store against a one-coefficient-per-term model ----------

class RefPoly:
    """Reference model: one Fraction or RatInterval per exponent, zeros dropped."""

    def __init__(self, terms):
        self.terms = {e: Fraction(c) if isinstance(c, int) else c
                      for e, c in terms.items() if not c == 0}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RefPoly.sum_products([(self, other)])

    @staticmethod
    def sum_products(pairs):
        """Every product into one map, zeros dropped at the end: a coefficient
        that any interval product reached is an interval, even if it sums to a point."""
        out = {}
        for f, g in pairs:
            for e1, c1 in f.terms.items():
                for e2, c2 in g.terms.items():
                    e = e1 + e2
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return RefPoly(out)

    def scale(self, c):
        return RefPoly({e: c * v for e, v in self.terms.items()})

    def shift(self, k):
        return RefPoly({e + k: c for e, c in self.terms.items()})

    def to_json(self):
        return {str(e): [str(c.lo), str(c.hi)] if isinstance(c, RatInterval) else str(c)
                for e, c in sorted(self.terms.items())}

    def __eq__(self, other):
        return self.terms == other.terms


def same(x, y):
    """Equal and of the same kind: a point interval is not its rational here."""
    return type(x) is type(y) and x == y


def assert_canonical(p):
    assert type(p._den) is int and p._den > 0
    assert all(type(n) is int and n != 0 for n in p._nums.values())
    assert gcd(p._den, *p._nums.values()) == 1
    assert p._nums or p._den == 1
    # each endpoint map: int numerators over its own positive, reduced denominator
    for den, ends in ((p._lo_den, p._lo), (p._hi_den, p._hi)):
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in ends.values())
        assert gcd(den, *ends.values()) == 1
        assert ends or den == 1
    assert p._lo.keys() == p._hi.keys()
    # no [0, 0] term, and lo <= hi
    assert all(p._lo[e] or p._hi[e] for e in p._lo)
    assert all(p._lo[e] * p._hi_den <= p._hi[e] * p._lo_den for e in p._lo)
    assert not set(p._nums) & set(p._lo)


def assert_matches(p, ref):
    assert_canonical(p)
    assert set(p._terms) == set(ref.terms)
    assert all(same(c, ref.terms[e]) for e, c in p._terms.items())
    items = p.items()
    assert [e for e, _ in items] == sorted(ref.terms)
    assert all(same(c, ref.terms[e]) for e, c in items)
    for e in range(-14, 15):
        assert same(p.coeff(e), ref.terms.get(e, Fraction(0)))
    assert same(p.eval_at_one(), naive_fold(list(ref.terms.values())))
    assert same(p.one_norm(), naive_fold([abs(c) for c in ref.terms.values()]))
    assert p.to_json() == ref.to_json() and list(p.to_json()) == list(ref.to_json())
    assert p.num_terms() == len(ref.terms) and p.is_zero() == (not ref.terms)


store_fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=60)
store_coeffs_st = st.one_of(
    st.integers(min_value=-4, max_value=4), store_fractions_st,
    store_fractions_st.map(RatInterval.point),
    st.tuples(store_fractions_st, store_fractions_st).map(lambda ab: RatInterval(min(ab), max(ab))))
store_terms_st = st.dictionaries(st.integers(min_value=-6, max_value=6), store_coeffs_st, max_size=6)


def swap_kinds(terms):
    """The same polynomial with each point interval as its rational and each rational as a point."""
    out = {}
    for e, c in terms.items():
        if isinstance(c, RatInterval):
            out[e] = c.lo if c.lo == c.hi else c
        else:
            out[e] = RatInterval.point(c)
    return out


@given(store_terms_st, store_terms_st, st.integers(min_value=0, max_value=6),
       st.one_of(st.integers(min_value=-3, max_value=3), store_fractions_st, intervals_st),
       st.integers(min_value=-4, max_value=4))
@settings(max_examples=200, deadline=None)
# interval x interval and interval x rational factors, no endpoint negative, unlike denominators
@example({0: RatInterval(Fraction(1, 3), HALF), 1: Fraction(2, 5)},
         {0: RatInterval(Fraction(1, 7), Fraction(1, 4)), 2: Fraction(3, 11)},
         0, RatInterval(Fraction(1, 9), Fraction(5, 6)), 1)
# only p's interval has a negative endpoint: each pair of the mat_mul row multiplies some
# factors through RatInterval and some as ints, and the two sums meet at one exponent
@example({0: RatInterval(-HALF, Fraction(1, 3)), 1: Fraction(1, 4)},
         {0: RatInterval(Fraction(1, 5), HALF), 1: Fraction(2, 7)}, 0, Fraction(3, 5), 1)
# a rational plus an interval at one exponent: coprime denominators, then a sum of [0, 0]
@example({0: Fraction(1, 3)}, {0: RatInterval(Fraction(1, 4), HALF)}, 0, 1, 0)
@example({0: Fraction(1, 3)}, {0: RatInterval(Fraction(-1, 3))}, 0, 1, 0)
def test_store_matches_reference_model(a, b, cancel, c, k):
    # b negates a prefix of a's terms, so sums can cancel to zero term by term
    b = dict(b)
    b.update((e, -v) for e, v in list(a.items())[:cancel])
    p, q, rp, rq = LaurentPoly(a), LaurentPoly(b), RefPoly(a), RefPoly(b)
    for got, want in ((p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
                      (p * q, rp * rq), (p.scale(c), rp.scale(c) if c != 0 else RefPoly({})),
                      (p.shift(k), rp.shift(k)),
                      # two pairs with unlike denominators, summed over their lcm
                      (mat_mul(LaurentMatrix([[p, q]]), LaurentMatrix([[q], [p.shift(k)]])).entries[0][0],
                       RefPoly.sum_products([(rp, rq), (rq, rp.shift(k))]))):
        assert_matches(got, want)
    assert (p == q) == (rp == rq)
    # a point interval equals, and hashes like, its rational
    swapped = LaurentPoly(swap_kinds(a))
    assert swapped == p and hash(swapped) == hash(p)
    # exact terms cancel to the zero polynomial; a wide interval minus itself does not
    exact = LaurentPoly({e: v for e, v in a.items()
                         if not isinstance(v, RatInterval) or v.lo == v.hi})
    for zero in (exact - exact, exact + (-exact), q * LaurentPoly.zero()):
        assert zero.is_zero() and zero._den == 1 and zero == LaurentPoly.zero()


@given(store_terms_st, store_terms_st, st.integers(min_value=0, max_value=6),
       st.sampled_from([0, 1, 20]))
@settings(max_examples=200, deadline=None)
def test_l1_distance_is_the_norm_of_the_difference(a, b, copied, offset):
    # b repeats a prefix of a's terms, so f - g cancels there: a rational to 0, a point
    # interval (or a rational against its point interval) to [0, 0], a wide one to a
    # wide interval; offset 20 moves g's support clear of f's
    b = dict(b)
    b.update(list(a.items())[:copied])
    f, g = LaurentPoly(a), LaurentPoly(b).shift(offset)
    for x, y in ((f, g), (g, f), (f, LaurentPoly(swap_kinds(b)))):
        # the reference model's difference, folded as assert_matches folds a one-norm
        want = naive_fold([abs(c) for c in (RefPoly(x._terms) - RefPoly(y._terms)).terms.values()])
        got = l1_distance(x, y)
        assert type(got) is type(want) and got == want


def test_l1_distance_examples():
    point = LaurentPoly({0: RatInterval(Fraction(1, 6))})
    # an exact [0, 0] difference is dropped, so the distance stays a Fraction
    assert type(l1_distance(point, poly((0, "1/6"), (1, 1)))) is Fraction
    assert l1_distance(point, poly((0, "1/6"), (1, 1))) == 1
    wide = LaurentPoly({2: RatInterval(Fraction(1, 3), Fraction(1, 2))})
    assert l1_distance(poly((0, "1/6"), (2, "1/2")), wide) == RatInterval(
        Fraction(1, 6), Fraction(1, 3))
    assert l1_distance(poly((0, "1/3"), (5, -1)), poly((0, "-1/2"), (7, "1/4"))) == Fraction(
        25, 12)


def test_store_examples():
    f = poly((0, "1/6"), (3, "1/10"))
    assert (f._den, f._nums) == (30, {0: 5, 3: 3})
    assert (f + poly((0, "-1/6")))._den == 10  # reduced after a cancellation
    assert (f - f)._den == 1 and not (f - f)._nums
    # a rational meeting an interval at one exponent becomes one interval
    g = f + LaurentPoly({3: RatInterval(Fraction(0), Fraction(1, 10))})
    assert g._nums == {0: 1} and g._den == 6
    assert g.coeff(3) == RatInterval(Fraction(1, 10), Fraction(1, 5))
    point = LaurentPoly({0: RatInterval(Fraction(1, 6))})
    assert point.to_json() == {"0": ["1/6", "1/6"]} and point == poly((0, "1/6"))
    assert hash(point) == hash(poly((0, "1/6")))


def test_rotation_product_coefficients_share_a_point_and_equal_the_fold():
    # the rotation's measure is invariant, so every path into one vertex has one mass, and
    # each coefficient of that vertex's entry encloses it: the enclosures have a common point
    space = build_matrices(rotation.rotation_diagram(rotation.CFExpansion(range(2, 13)), 6))
    product = partial_product(space, 0, 6)
    assert product == left_fold(space, 0, 6)
    for row in product.entries:
        (entry,) = row
        assert_canonical(entry)
        coeffs = [c for _, c in entry.items()]
        assert all(isinstance(c, RatInterval) for c in coeffs)
        assert max(c.lo for c in coeffs) <= min(c.hi for c in coeffs)
    assert [row[0].num_terms() for row in product.entries] == [6961, 972]


def test_widest_int_reads_each_endpoint_not_the_shared_denominator():
    # each map's shared denominator, an lcm of 3^5000 and a power of 7, has over 5,700
    # digits, past the 4,300-digit cap on report ints; each reduced endpoint has at
    # most the 3,381 digits of 7^4000
    p = LaurentPoly({0: RatInterval(Fraction(1, 3 ** 5000), Fraction(2, 3 ** 5000)),
                     1: RatInterval(Fraction(5, 7 ** 4000), Fraction(1, 7 ** 3999)),
                     2: Fraction(1, 2)})
    assert p._lo_den == 3 ** 5000 * 7 ** 4000 and p._hi_den == 3 ** 5000 * 7 ** 3999
    ends = [x for _, c in p.items() for f in (RatInterval.coerce(c).lo, RatInterval.coerce(c).hi)
            for x in (abs(f.numerator), f.denominator)]
    assert p.widest_int() == max(ends) == 7 ** 4000
    assert _writable("the polynomial", [p]) == [p]  # not refused
    assert (p + p).widest_int() == 7 ** 4000 and (-p).widest_int() == 7 ** 4000


def test_one_json_form_per_coefficient():
    for c, text in ((Fraction(-3, 4), "-3/4"), (5, "5"),
                    (RatInterval(Fraction(1, 3), Fraction(1, 2)), ["1/3", "1/2"]),
                    (RatInterval(Fraction(1, 2)), ["1/2", "1/2"])):  # a point interval too
        assert coeff_to_json(c) == text
        assert coeff_from_json(text) == c
    for bad in (["1"], ["1", "2", "3"], ["1/2", "1/3"], 0.5, True, "1e9"):
        with pytest.raises(ValueError):
            coeff_from_json(bad)


# keys that share long digit prefixes, of both signs and of many digit counts
prefix_keys_st = st.lists(st.integers(-130, 130) | st.integers(10 ** 20 - 50, 10 ** 20 + 50)
                          | st.integers(-10 ** 20 - 50, -10 ** 20 + 50), unique=True, max_size=60)


@given(prefix_keys_st, st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_key_groups_are_bounded_runs_of_the_string_order(keys, batch):
    assume(len(keys) > batch)
    groups = list(_key_groups(sorted(keys), batch))
    assert all(0 < len(g) <= batch for g in groups)
    assert [s for g in groups for s in sorted(map(str, g))] == sorted(map(str, keys))


def mixed_poly(n):
    """n terms of alternating sign exponents 0, -37, 74, -111, ..., coefficients k/3."""
    return LaurentPoly({(-1) ** k * 37 * k: Fraction(k + 1, 3) for k in range(n)})


@pytest.mark.parametrize("batch", [8, 4096])
def test_json_items_are_ascending_nonempty_runs_of_the_key_order(batch):
    keys = [*range(-130, 131), *range(10 ** 20 - 50, 10 ** 20 + 50)]
    wide = {e: Fraction(e % 7 - 3, 4) for e in keys}
    wide.update((-e, RatInterval(Fraction(e % 5, 3), Fraction(e % 5 + 1, 3)))
                for e in range(10 ** 20 - 40, 10 ** 20 + 40, 3))
    # one coefficient text: joined run by run, unless an interval term is in the polynomial
    one_coeff = {e: Fraction(1, 3) for e in keys}
    one_interval = {**one_coeff, -10 ** 20: RatInterval(Fraction(1, 3), Fraction(1, 2))}
    polys = [LaurentPoly.zero(), *map(mixed_poly, (1, batch - 1, batch, batch + 1)),
             *map(LaurentPoly, (wide, one_coeff, one_interval))]
    for p in polys:
        # items are joined by ',' and the indent; an interval item's own ',' is
        # followed by a deeper indent, not by the '"' of the next key
        runs = [re.split(r',\n  (?=")', chunk) for chunk in p.json_items("\n  ", batch)]
        assert all(0 < len(run) <= batch and run == sorted(run) for run in runs)
        assert [item.split('"')[1] for run in runs for item in run] == sorted(map(str, p.support()))
        if p.is_zero():
            assert runs == []
        else:
            text = "{\n  " + ",\n  ".join(item for run in runs for item in run) + "\n}"
            assert text == json.dumps(p.to_json(), sort_keys=True, indent=2)


def test_reprs_name_the_terms_and_the_shape():
    assert repr(LaurentPoly.zero()) == "LaurentPoly(0)"
    assert repr(poly((2, HALF), (-1, 3))) == "LaurentPoly((3)x^-1 + (1/2)x^2)"
    assert repr(LaurentMatrix([[poly((0, 1))] * 3] * 2)) == "LaurentMatrix(2x3)"


def test_polys_and_matrices_are_immutable():
    p, m = poly((1, 1)), LaurentMatrix([[poly((0, 1))]])
    for obj, name in ((p, "_den"), (p, "extra"), (m, "rows"), (m, "entries")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, 2)
    assert p == poly((1, 1)) and m.rows == 1 and m.entries == ((poly((0, 1)),),)


def test_polys_and_matrices_do_not_mix_with_other_types():
    p, m = poly((1, 1)), LaurentMatrix([[poly((0, 1))]])
    for other in (1, HALF, "x", None):
        for op in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p):
            with pytest.raises(TypeError):
                op()
        assert p != other and not (p == other) and m != other and not (m == other)
    assert m != p and p != m
