import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

from adicspace import bratteli as B
from adicspace import rotation as R
from adicspace.dimspace import build_matrices
from adicspace.errors import BadInput, BudgetExceeded, InsufficientDepth, RangeError
from adicspace.intervals import RatInterval, exact_sum
from adicspace.labeling import label_edges, labeling_to_json, path_bsum
from adicspace.laurent import LaurentMatrix, LaurentPoly
from path_oracle import paths_into, report_tables, tables_from_b


def cf_increasing(depth=10):
    return R.CFExpansion([n + 1 for n in range(1, depth + 1)])


def eval_finite_cf(terms):
    """Independent oracle: fold [0; a1, ..., an] from the back."""
    val = Fraction(0)
    for a in reversed(terms):
        val = Fraction(1, a + val)
    return val


def test_convergents_against_folding_oracle():
    cf = cf_increasing()
    for n in range(1, cf.depth + 1):
        p, q = cf.p(n), cf.q(n)
        assert Fraction(p, q) == eval_finite_cf(cf.terms[:n])
        assert math.gcd(p, q) == 1


def test_convergents_frozen_and_base_case():
    cf = cf_increasing()
    assert (cf.p(0), cf.q(0)) == (0, 1)
    assert [(cf.p(n), cf.q(n)) for n in (1, 2, 3)] == [(1, 2), (3, 7), (13, 30)]
    for read, n in ((cf.p, 11), (cf.p, -2), (cf.q, 11), (cf.q, -2), (cf.a, 11), (cf.a, 0)):
        with pytest.raises(RangeError):
            read(n)


def test_fibonacci_denominators():
    cf = R.CFExpansion([1] * 12)
    fib = [1, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    assert [cf.q(n) for n in range(13)] == fib[:13]


def test_alpha_enclosure_brackets_truth():
    # alpha of the infinite expansion lies strictly between the depth-D
    # convergent and the mediant, whatever the tail; deeper truncations of
    # the same rule must land inside shallower enclosures
    deep = cf_increasing(16)
    shallow = cf_increasing(10)
    assert shallow.alpha().lo < deep.alpha().lo <= deep.alpha().hi < shallow.alpha().hi


def test_alpha_n_identity_base():
    cf = cf_increasing()
    assert R.alpha_n(cf, 0) == cf.alpha()


def test_alpha_1_enclosed_between_ninth_and_seventh():
    cf = cf_increasing()
    a1 = R.alpha_n(cf, 1)
    assert a1.strictly_inside(Fraction(1, 9), Fraction(1, 7))


def test_alpha_n_strict_bracket_all_levels():
    cf = cf_increasing()
    for n in range(cf.depth - 1):
        enc = R.alpha_n(cf, n)
        assert enc.strictly_inside(Fraction(1, cf.q(n) + cf.q(n + 1)),
                                   Fraction(1, cf.q(n + 1)))


def test_alpha_n_depth_guard():
    cf = cf_increasing()
    with pytest.raises(InsufficientDepth):
        R.alpha_n(cf, cf.depth - 1)
    with pytest.raises(RangeError, match="n >= 0"):
        R.alpha_n(cf, -1)


def test_alpha_n_strict_bracket_fails_exactly_at_a_last_quotient_of_1():
    # alpha(n) = 1/(q(n+1) + q(n)/r) with r the complete quotient at n + 2; at
    # n = depth - 2 the enclosure lets r = a(depth), which is the bound's r = 1
    cf = R.CFExpansion([2, 3, 1])
    assert cf.alpha() == RatInterval(Fraction(7, 16), Fraction(4, 9))
    assert abs(cf.q(1) * cf.alpha() - cf.p(1)) == RatInterval(Fraction(1, 9), Fraction(1, 8))
    assert Fraction(1, cf.q(1) + cf.q(2)) == Fraction(1, 9)
    with pytest.raises(InsufficientDepth, match=r"^alpha\(1\) enclosure fails the strict bracket$"):
        R.alpha_n(cf, 1)
    for depth in range(2, 6):
        for terms in itertools.product((1, 2, 3), repeat=depth):
            cf = R.CFExpansion(list(terms))
            for n in range(depth - 1):
                if n == depth - 2 and terms[-1] == 1:
                    with pytest.raises(InsufficientDepth):
                        R.alpha_n(cf, n)
                else:
                    assert R.alpha_n(cf, n).strictly_inside(
                        Fraction(1, cf.q(n) + cf.q(n + 1)), Fraction(1, cf.q(n + 1))), terms


def test_alpha_recurrence_within_enclosures():
    cf = cf_increasing()
    for n in range(1, cf.depth - 2):
        lhs = R.alpha_n(cf, n + 1)
        rhs = R.alpha_n(cf, n - 1) - cf.a(n + 1) * R.alpha_n(cf, n)
        assert lhs.intersects(rhs)


def test_summability_verdicts():
    cf = cf_increasing()
    linear = R.GrowthRule("linear", Fraction(1))
    rep = R.summability_report(cf, linear)
    assert rep.verdict == "CONVERGENT_CERTIFIED"
    assert rep.tail_bound == Fraction(1, cf.depth)
    assert rep.partial_sum == Fraction(1, 2) - Fraction(1, 11)  # sum 1/(k(k+1)) over k = 2..10

    ones = R.CFExpansion([1] * 10)
    rep1 = R.summability_report(ones, R.GrowthRule("linear", Fraction(1)))
    assert rep1.verdict == "INCONCLUSIVE"  # a(n) = 1 fails a(n) >= n at n = 2
    assert R.summability_report(ones).verdict == "INCONCLUSIVE"
    assert rep1.partial_sum == 9

    powers = R.CFExpansion([2 ** n for n in range(1, 9)])
    geo = R.GrowthRule("geometric", Fraction(1), Fraction(2))
    repg = R.summability_report(powers, geo)
    assert repg.verdict == "CONVERGENT_CERTIFIED"
    assert repg.tail_bound == Fraction(1, 3 * 2 ** 15)


def test_a_one_term_partial_sum_is_the_fraction_zero():
    # a one-term cf has no product a(n) a(n+1): the empty sum is still a Fraction
    rep = R.summability_report(R.CFExpansion([2]))
    assert type(rep.partial_sum) is Fraction and rep.partial_sum == 0
    assert str(rep.partial_sum) == "0"


def test_total_bound_needs_a_certified_tail():
    ones = R.CFExpansion([1] * 10)
    for rule in (None, R.GrowthRule("linear", Fraction(1))):  # no rule, and one that fails
        rep = R.summability_report(ones, rule)
        assert rep.tail_bound is None and rep.partial_sum == 9, rule


def test_rotation_diagram_shape_and_measure():
    cf = cf_increasing()
    d = R.rotation_diagram(cf, 5)
    lab = label_edges(d)
    assert d.depth == 5
    assert [d.k(n) for n in range(6)] == [1, 2, 2, 2, 2, 2]
    assert len(d.edges[0]) == cf.a(1) + 1
    for n in range(1, 5):
        assert len(d.edges[n]) == cf.a(n + 1) + 2
    # explicit labels
    assert lab["e1_21"] == cf.a(2) * cf.q(1)
    assert lab["e2_11_3"] == 2 * cf.q(2)
    assert lab["e3_12"] == 0


def test_rotation_diagram_depth_guard():
    with pytest.raises(InsufficientDepth):
        R.rotation_diagram(cf_increasing(6), 5)
    with pytest.raises(BadInput, match="depth must be >= 1"):
        R.rotation_diagram(cf_increasing(6), 0)


def test_rank_one_builders_refuse_out_of_range_levels():
    cf = cf_increasing()
    with pytest.raises(InsufficientDepth, match=f"need {cf.depth + 1} terms"):
        R.rank_one_polys(cf, cf.depth + 1)
    with pytest.raises(RangeError, match="n >= 1"):
        R.rank_one_gap(cf, 0)


def closed_form_matrix(cf, n):
    """M_n written out: stay x^{k q(n)} over k < a(n+1), x^{a(n+1) q(n)} and out = alpha(n+1)/alpha(n-1)."""
    prev = R.alpha_n(cf, n - 1) if n else Fraction(1)  # alpha(-1) = 1
    stay, out = R.alpha_n(cf, n) / prev, R.alpha_n(cf, n + 1) / prev
    a, q = cf.a(n + 1), cf.q(n)
    first = [LaurentPoly({k * q: stay for k in range(a)}), LaurentPoly({0: out})]
    if not n:  # V_0 has one vertex, so M_0 has one column
        return LaurentMatrix([[first[0]], [first[1]]])
    return LaurentMatrix([[first[0], LaurentPoly.x(a * q)], [first[1], LaurentPoly.zero()]])


def test_rotation_matrices_match_diagram_route():
    # the second input has single-loop fibers, where a(n+1) = 1
    for cf, depth in ((cf_increasing(), 5), (R.CFExpansion([2, 1, 3, 1, 2, 4, 1, 2]), 6)):
        space = build_matrices(R.rotation_diagram(cf, depth))
        for n in range(depth):
            assert space.matrices[n] == R.rotation_matrix(cf, n) == closed_form_matrix(cf, n)


def test_rotation_matrix_shapes_and_entries():
    cf = cf_increasing()
    m0 = R.rotation_matrix(cf, 0)
    assert (m0.rows, m0.cols) == (2, 1)
    assert m0.entries[0][0].support() == (0, 1)  # a(1) = 2 parallel edges
    m2 = R.rotation_matrix(cf, 2)
    assert m2.entries[0][0].support() == tuple(k * cf.q(2) for k in range(cf.a(3)))
    assert m2.entries[0][1] == LaurentPoly.x(cf.a(3) * cf.q(2))
    assert m2.entries[1][1].is_zero()


def test_rotation_column_sums_enclose_one():
    cf = cf_increasing()
    for n in range(6):
        m = R.rotation_matrix(cf, n)
        for s in (exact_sum(row[j].eval_at_one() for row in m.entries) for j in range(m.cols)):
            if isinstance(s, RatInterval):
                assert s.contains(1)
            else:
                assert s == 1


def explicit_labels(cf, depth):
    """The closed-form labels of E_n: k q(n) on loop k + 1, a(n+1) q(n) on the cross edge, 0 out."""
    labels = {}
    for n in range(depth):
        a, q = cf.a(n + 1), cf.q(n)
        labels.update({f"e{n}_11_{k + 1}": k * q for k in range(a)})
        if n:  # the root has no v_2, so E_0 has no cross edge
            labels[f"e{n}_21"] = a * q
        labels[f"e{n}_12"] = 0
    return labels


def test_explicit_labeling_matches_generic():
    for cf, depth in ((cf_increasing(), 5), (R.CFExpansion([2, 1, 3, 1, 2, 4]), 4)):
        d, labels = R.rotation_diagram(cf, depth), explicit_labels(cf, depth)
        # the labels, then the label report's tables against the max/min recursion over them
        assert label_edges(d) == labels
        assert report_tables(labeling_to_json(d, label_edges(d))) == tables_from_b(d, labels)


def test_rotation_path_counts_are_the_convergent_denominators():
    # the induction behind the explicit labels: N(v_1 at n) = q(n), N(v_2 at n) = q(n - 1)
    rng = random.Random(16)
    for _ in range(12):
        cf = R.CFExpansion([rng.randint(1, 6) for _ in range(rng.randint(3, 8))])
        depth = cf.depth - 2
        d = R.rotation_diagram(cf, depth)
        for n in range(1, depth + 1):
            assert [B.count_paths_into(d, n, v) for v in (0, 1)] == [cf.q(n), cf.q(n - 1)]
        assert label_edges(d) == explicit_labels(cf, depth)


def test_rotation_successor_increment_bruteforce():
    # small partial quotients, depth 4: consecutive paths into each vertex
    # differ by exactly one in their label sum
    cf = R.CFExpansion([2, 3, 2, 4, 2, 2])
    d = R.rotation_diagram(cf, 4)
    lab = label_edges(d)
    for n in range(4):
        for v in range(d.k(n + 1)):
            paths = [B.FinitePath(p) for p in paths_into(d, n + 1, v)]
            sums = [path_bsum(lab, p) for p in paths]
            assert sums == list(range(len(paths)))
            for p, q in zip(paths, paths[1:]):
                assert B.successor(d, p).ids() == q.ids()


def test_rank_one_polys_golden():
    cf = cf_increasing()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polys = R.rank_one_polys(cf, 3, R.GrowthRule("linear", Fraction(1)))
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    assert polys[0] == LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert polys[1] == LaurentPoly({0: third, 2: third, 4: third})
    assert polys[2] == LaurentPoly({0: quarter, 7: quarter, 14: quarter, 21: quarter})


def test_rank_one_polys_mass_and_support():
    cf = cf_increasing()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        polys = R.rank_one_polys(cf, 8)
    for n, p in enumerate(polys):
        assert p.eval_at_one() == 1
        sup = p.support()
        assert len(sup) == cf.a(n + 1)
        steps = {b - a for a, b in zip(sup, sup[1:])}
        assert steps == {cf.q(n)} or len(sup) == 1


def test_rank_one_polys_warns_without_certificate():
    with pytest.warns(UserWarning):
        R.rank_one_polys(cf_increasing(), 3)


def test_rank_one_gap_identity_and_bound():
    cfs = [cf_increasing(), R.CFExpansion([1] * 12 + [2]), R.CFExpansion([2, 1, 2, 3, 2, 3, 2]),
           cf_increasing(40)]
    for cf in cfs:
        for n in range(1, cf.depth - 2):
            rep = R.rank_one_gap(cf, n)
            # the gap is 2 alpha(n+1)/alpha(n-1), read off the alphas and not off M_n
            assert rep.gap.intersects(2 * R.alpha_n(cf, n + 1) / R.alpha_n(cf, n - 1))
            # the two entries the approximant changes are equally far off
            (m00, _), (m10, _) = R.rotation_matrix(cf, n).entries
            a = cf.a(n + 1)
            p_n = LaurentPoly({k * cf.q(n): Fraction(1, a) for k in range(a)})
            first = RatInterval.coerce((m00 - p_n).one_norm())
            assert first.intersects(RatInterval.coerce(m10.one_norm()))
            assert rep.tail_bound == Fraction(2, cf.a(n + 1) * cf.a(n + 2))
            assert rep.gap.hi < rep.tail_bound


def test_rank_one_gap_unit_quotient_degenerate():
    cf = R.CFExpansion([2, 1, 2, 3, 2, 3, 2])
    rep = R.rank_one_gap(cf, 1)  # a(2) = 1: single-term row plus the corner
    assert rep.gap.lo > 0
    m = R.rotation_matrix(cf, 1)
    assert m.entries[0][0].num_terms() == 1


def test_cf_rejects_bad_terms():
    with pytest.raises(BadInput):
        R.CFExpansion([])
    with pytest.raises(BadInput):
        R.CFExpansion([2, 0, 3])


def test_parse_rule():
    rule = R.parse_rule("linear:c=1/2")
    assert rule.kind == "linear" and rule.c == Fraction(1, 2)
    geo = R.parse_rule("geometric:c=1,g=3")
    assert geo.g == 3
    with pytest.raises(BadInput):
        R.parse_rule("cubic:c=1")


def test_growth_rule_kind_is_checked_at_construction():
    for kind in ("cubic", "", "Linear"):
        with pytest.raises(BadInput):
            R.GrowthRule(kind, Fraction(1))


def test_growth_rule_needs_positive_c():
    # a(n) >= c n with c <= 0 holds for every expansion, and 1/(c^2 start) needs c > 0:
    # a(n) = 1 gives the divergent series sum 1/(a(n) a(n+1)), so nothing may certify it;
    # c g^n with g <= 1 does not grow either
    ones = R.CFExpansion([1] * 6)
    for kind, c, g in (("linear", -1, 2), ("linear", 0, 2), ("geometric", -1, 2), ("geometric", 0, 2),
                       ("geometric", 1, "1/2"), ("geometric", 1, 0), ("geometric", 1, -2),
                       ("geometric", 1, 1)):
        with pytest.raises(BadInput):
            R.GrowthRule(kind, Fraction(c), Fraction(g))
        with pytest.raises(BadInput):
            R.parse_rule(f"{kind}:c={c},g={g}")
    for text in ("linear:c=1/0", "linear:c=0.5", "linear:c=1e-3"):
        with pytest.raises(BadInput):
            R.parse_rule(text)
    assert R.GrowthRule("linear", Fraction(1, 1000)).c > 0
    assert R.summability_report(ones, R.parse_rule("linear:c=1/2")).verdict == "INCONCLUSIVE"


def test_partial_quotient_cap_guards_every_builder(monkeypatch):
    cf = R.CFExpansion([2, 5, 3, 4, 2, 2])
    monkeypatch.setattr(R, "SIZE_CAP", 4)
    assert R.rotation_matrix(cf, 0).entries[0][0].num_terms() == 2
    for build in (lambda: R.rotation_matrix(cf, 1), lambda: R.rank_one_gap(cf, 1),
                  lambda: R.rotation_diagram(cf, 2)):
        with pytest.raises(BudgetExceeded, match=r"a\(2\) = 5"):
            build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(BudgetExceeded):
            R.rank_one_polys(cf, 2)
    monkeypatch.setattr(R, "SIZE_CAP", 5)
    assert R.rotation_matrix(cf, 1).entries[0][0].num_terms() == 5
