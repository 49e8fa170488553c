import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspace import rotation as R
from adicspace import stacking as S
from adicspace.errors import BadInput, BudgetExceeded, InsufficientDepth, PointOutsideTower, TopLevel
from adicspace.intervals import RatInterval
import tower_oracle as O


def cf_increasing(depth=10):
    return R.CFExpansion([n + 1 for n in range(1, depth + 1)])


def test_stage_one_golden():
    cf = cf_increasing()
    t = S.build_tower(cf, 1)
    assert t.height == 2
    assert t.intervals == ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))
    assert O.level_words(cf, t) == [(1,), (2,)]
    assert t.total_space == 1


def test_stage_two_golden():
    # three sub-columns of the halved column, no spacers yet
    cf = cf_increasing()
    t = S.build_tower(cf, 2)
    assert t.height == 6
    assert t.total_space == 1
    assert t.intervals[0] == (Fraction(0), Fraction(1, 6))
    assert t.intervals[1] == (Fraction(1, 2), Fraction(2, 3))
    assert O.level_words(cf, t)[:2] == [(1, 1), (2, 1)]
    assert t.width == Fraction(1, 6)


def test_heights_and_spaces_follow_recurrences():
    cf = cf_increasing()
    for stage in range(1, 7):
        t = S.build_tower(cf, stage)
        assert t.height == cf.a(stage) * cf.q(stage - 1)
        prod = 1
        for i in range(1, stage):
            prod *= cf.a(i)
        assert t.total_space == Fraction(cf.q(stage - 1), prod)
        assert all(hi - lo == t.width for lo, hi in t.intervals)


def test_spacer_counts_per_stage():
    cf = cf_increasing()
    for stage in range(1, 6):
        cur = S.build_tower(cf, stage)
        nxt = S.build_tower(cf, stage + 1)
        cur_spacers = sum(1 for w in O.level_words(cf, cur) if w is None)
        nxt_spacers = sum(1 for w in O.level_words(cf, nxt) if w is None)
        assert nxt_spacers == cf.a(stage + 1) * (cur_spacers + cf.q(stage - 2))


def test_intervals_disjoint():
    t = S.build_tower(cf_increasing(), 4)
    spans = sorted(t.intervals)
    for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
        assert ahi <= blo


def test_tower_map_stage_one():
    t = S.build_tower(cf_increasing(), 1)
    assert S.tower_map(t, Fraction(1, 4)) == Fraction(3, 4)
    with pytest.raises(TopLevel):
        S.tower_map(t, Fraction(3, 4))
    with pytest.raises(PointOutsideTower):
        S.tower_map(t, Fraction(3, 2))


def test_tower_map_translates_levels_exactly():
    t = S.build_tower(cf_increasing(), 3)
    for i in range(t.height - 1):
        (lo, hi), (nlo, nhi) = t.intervals[i], t.intervals[i + 1]
        assert nhi - nlo == hi - lo
        x = lo + (hi - lo) / 3
        assert S.tower_map(t, x) == nlo + (hi - lo) / 3


def test_extension_property_on_random_rationals():
    cf = cf_increasing()
    rng = random.Random(77)
    towers = {s: S.build_tower(cf, s) for s in range(1, 6)}
    for stage in range(1, 5):
        cur, nxt = towers[stage], towers[stage + 1]
        for _ in range(200):
            i = rng.randrange(cur.height - 1)
            lo, hi = cur.intervals[i]
            x = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
            assert S.tower_map(nxt, x) == S.tower_map(cur, x)


def test_build_tower_guards():
    with pytest.raises(BadInput):
        S.build_tower(cf_increasing(), 0)
    with pytest.raises(InsufficientDepth):
        S.build_tower(cf_increasing(3), 4)


# -- skyscraper -----------------------------------------------------------------

def test_column_heights_follow_the_label_cocycle():
    cf = cf_increasing(6)
    # first non-maximal digit at slot m gives height 1 + q(0) + .. + q(m-3)
    assert O.column_height(cf, (1, 1, 1, 1, 1, 1)) == 1
    assert O.column_height(cf, (2, 1, 1, 1, 1, 1)) == 1
    assert O.column_height(cf, (2, 3, 2, 1, 1, 1)) == 1 + cf.q(0)
    assert O.column_height(cf, (2, 3, 4, 3, 1, 1)) == 1 + cf.q(0) + cf.q(1)
    assert O.column_height(cf, (2, 3, 4, 5, 6, 7)) == 1 + sum(cf.q(t) for t in range(4))


def test_odometer_step_carries():
    cf = cf_increasing(4)
    assert O.odometer_step(cf, (1, 1, 1, 1)) == (2, 1, 1, 1)
    assert O.odometer_step(cf, (2, 3, 1, 1)) == (1, 1, 2, 1)
    with pytest.raises(O.TruncationBoundary):
        O.odometer_step(cf, (2, 3, 4, 5))


def test_skyscraper_step_cases():
    cf = cf_increasing(4)
    flat = O.SkyscraperPoint((1, 1, 1, 1), 0)  # height-1 column
    stepped = O.skyscraper_step(cf, flat)
    assert stepped == O.SkyscraperPoint((2, 1, 1, 1), 0)
    tall_word = (2, 3, 4, 3)
    h = O.column_height(cf, tall_word)
    assert h == 4
    up = O.skyscraper_step(cf, O.SkyscraperPoint(tall_word, 1))
    assert up == O.SkyscraperPoint(tall_word, 2)
    off_top = O.skyscraper_step(cf, O.SkyscraperPoint(tall_word, h - 1))
    assert off_top == O.SkyscraperPoint((1, 1, 1, 4), 0)
    with pytest.raises(BadInput):
        O.skyscraper_step(cf, O.SkyscraperPoint(tall_word, h))


def test_orbit_visits_every_point_once():
    cf = R.CFExpansion([2, 3, 2])
    words, word = [], (1, 1, 1)
    while True:
        words.append(word)
        try:
            word = O.odometer_step(cf, word)
        except O.TruncationBoundary:
            break
    total = sum(O.column_height(cf, w) for w in words)
    p = O.SkyscraperPoint((1, 1, 1), 0)
    seen = {p}
    for _ in range(total - 1):
        p = O.skyscraper_step(cf, p)
        assert p not in seen
        seen.add(p)
    with pytest.raises(O.TruncationBoundary):
        O.skyscraper_step(cf, p)
    assert len(seen) == total


def test_tower_levels_mirror_skyscraper_orbit():
    # the words read off the slots are the skyscraper's orbit codes, spacers included
    rng = random.Random(28)
    cfs = [cf_increasing(10), cf_increasing(12)]
    cfs += [R.CFExpansion([rng.randint(1, 5) for _ in range(7)]) for _ in range(20)]
    for cf in cfs:
        for stage in range(1, 8):
            t = S.build_tower(cf, stage)
            assert O.level_words(cf, t) == O.skyscraper_orbit_codes(cf, stage), (cf.terms, stage)


# -- rotation comparison ----------------------------------------------------------

def test_circle_distance_cases():
    alpha = RatInterval(Fraction(2, 5), Fraction(2, 5))
    near = S.circle_distance(Fraction(1, 2), alpha)
    assert near == RatInterval(Fraction(1, 10))
    wrapped = S.circle_distance(Fraction(19, 20), alpha)
    assert wrapped == RatInterval(Fraction(9, 20))  # min(11/20, 9/20)
    # |9/10 - alpha| = [2/5, 17/30] straddles 1/2: the distance peaks at 1/2 (alpha = 2/5)
    # and is least at alpha = 1/2, where it is 2/5
    straddling = S.circle_distance(Fraction(9, 10), RatInterval(Fraction(1, 3), Fraction(1, 2)))
    assert straddling == RatInterval(Fraction(2, 5), Fraction(1, 2))


def circle_distance_unit_alpha(value, alpha):
    """The earlier formula, which holds only for alpha inside [0, 1)."""
    d = abs(RatInterval.point(value % 1) - alpha)
    if d.hi <= Fraction(1, 2):
        return d
    if d.lo >= Fraction(1, 2):
        return RatInterval(1 - d.hi, 1 - d.lo)
    return RatInterval(min(d.lo, 1 - d.hi), Fraction(1, 2))


def test_circle_distance_for_any_alpha():
    # 1/10 - 21/10 = -2 is an integer: the distance is 0, not -1
    assert S.circle_distance(Fraction(1, 10), RatInterval(Fraction(21, 10))) == RatInterval(0)
    rng = random.Random(36)
    for _ in range(2000):
        den = rng.randrange(1, 40)
        lo = rng.randrange(den)
        alpha = RatInterval(Fraction(lo, den), Fraction(rng.randrange(lo, den), den))
        value = Fraction(rng.randrange(-3 * den, 3 * den), den)
        expected = circle_distance_unit_alpha(value, alpha)
        for shift in (-3, -1, 0, 1, 2):
            assert S.circle_distance(value, alpha + shift) == expected, (value, alpha, shift)


def test_compare_stage_one_single_value():
    cf = cf_increasing()
    rep = S.compare_with_rotation(S.build_tower(cf, 1), cf, grid=100,
                                  tolerance=Fraction(1, 10))
    assert len(rep.stats) == 1
    stat = rep.stats[0]
    assert stat.value == Fraction(1, 2)
    # |1/2 - alpha| = alpha(1)/q(1), reported as an enclosure
    expected = R.alpha_n(cf, 1) / cf.q(1)
    assert stat.distance.intersects(expected)
    assert rep.counted == 50  # top-level points excluded
    assert rep.in_mass == 50 and rep.out_fraction == 0


def test_compare_masses_match_grid():
    cf = cf_increasing()
    t = S.build_tower(cf, 3)
    rep = S.compare_with_rotation(t, cf, grid=2800, tolerance=Fraction(1, 10))
    assert sum(s.grid_mass for s in rep.stats) == rep.counted
    # stage 3 carries exactly the four translation values computed by hand
    assert [s.value for s in rep.stats] == [Fraction(1, 24), Fraction(1, 6),
                                            Fraction(1, 2), Fraction(2, 3)]
    in_vals = [s for s in rep.stats if s.distance.hi <= rep.tolerance]
    assert [s.value for s in in_vals] == [Fraction(1, 2)]


def test_compare_rejects_empty_grid():
    cf = cf_increasing()
    with pytest.raises(BadInput):
        S.compare_with_rotation(S.build_tower(cf, 2), cf, 0, Fraction(1, 10))


def test_compare_rejects_negative_tolerance_and_accepts_zero():
    # no circle distance is below a negative tolerance, so every out_fraction would read 1
    cf = cf_increasing()
    tower = S.build_tower(cf, 2)
    for tol in (Fraction(-1), Fraction(-1, 10 ** 9)):
        with pytest.raises(BadInput, match=r"^tolerance must be >= 0$"):
            S.compare_with_rotation(tower, cf, 100, tol)
    assert S.compare_with_rotation(tower, cf, 100, Fraction(0)).tolerance == 0


def test_limit_space_enclosure_contains_iterates():
    cf = cf_increasing(12)
    enc = O.limit_space_enclosure(cf, R.GrowthRule("linear", Fraction(1)))
    # the per-stage spaces q(s-1)/(a(1)..a(s-1)) increase toward the limit
    for stage in range(2, 13):
        prod = 1
        for i in range(1, stage):
            prod *= cf.a(i)
        assert Fraction(cf.q(stage - 1), prod) <= enc.hi
    t6 = S.build_tower(cf, 6)
    assert t6.total_space < enc.hi
    assert enc.lo <= enc.hi < Fraction(17, 10)


def test_limit_space_enclosure_refusals():
    with pytest.raises(BadInput, match="certified growth rule"):
        O.limit_space_enclosure(cf_increasing(12), None)
    # the rule holds on 1, 2, but its tail bound from n = 1 is 1/(c^2 * 1) = 1
    with pytest.raises(InsufficientDepth, match="tail bound"):
        O.limit_space_enclosure(R.CFExpansion([1, 2]), R.GrowthRule("linear", Fraction(1)))


def test_words_are_checked_against_the_quotients():
    cf = R.CFExpansion([2, 3, 4])
    for word, message in (((1, 1), "word length 2 != cf depth 3"),
                          ((1, 4, 1), "digit 4 outside 1..3 at slot 2"),
                          ((0, 1, 1), "digit 0 outside 1..2 at slot 1")):
        for use in (O.check_word, O.odometer_step, O.column_height):
            with pytest.raises(BadInput, match=message):
                use(cf, word)


def test_column_height_is_the_slot_label_cocycle():
    # h(x) must equal the label increment of one odometer step,
    # sum over slots of b(Tx_n) - b(x_n) with b(k at n) = (k-1) q(n-1)
    cf = cf_increasing(6)
    rng = random.Random(555)
    word = tuple([1] * 6)
    for _ in range(300):
        try:
            nxt = O.odometer_step(cf, word)
        except O.TruncationBoundary:
            break
        increment = sum(O.slot_label(cf, n, b) - O.slot_label(cf, n, a)
                        for n, (a, b) in enumerate(zip(word, nxt), start=1))
        assert increment == O.column_height(cf, word)
        word = nxt


# -- the integer slot representation against Fraction oracles ---------------------

def brute_force_comparison(t, cf, grid, tolerance):
    """Walk the points g L / G one by one against the Fraction levels."""
    order = sorted(range(t.height), key=lambda i: t.intervals[i][0])
    per_level = [0] * t.height
    pos = 0
    for g in range(grid):
        x = g * t.total_space / grid
        while not x < t.intervals[order[pos]][1]:
            pos += 1
        lo, hi = t.intervals[order[pos]]
        assert lo <= x < hi
        per_level[order[pos]] += 1
    by_value = {}
    for i in range(t.height - 1):
        v = (t.intervals[i + 1][0] - t.intervals[i][0]) % 1
        mass, levels = by_value.get(v, (0, 0))
        by_value[v] = (mass + per_level[i], levels + 1)
    alpha = cf.alpha()
    stats, in_mass = [], 0
    for v in sorted(by_value):
        mass, levels = by_value[v]
        dist = S.circle_distance(v, alpha)
        if dist.hi <= tolerance:
            in_mass += mass
        stats.append(S.TranslationStat(v, levels, mass, dist))
    return S.RotationComparison(stage=t.stage, grid=grid, counted=grid - per_level[-1],
                                tolerance=tolerance, stats=tuple(stats), in_mass=in_mass)


def test_closed_form_comparison_matches_grid_walk():
    cf = cf_increasing()
    tolerance = Fraction(1, 10)
    for stage in range(1, 6):
        t = S.build_tower(cf, stage)
        for grid in sorted({1, 7, t.height - 1, t.height + 1, 2800} - {0}):
            assert (S.compare_with_rotation(t, cf, grid, tolerance)
                    == brute_force_comparison(t, cf, grid, tolerance)), (stage, grid)


def test_integer_slots_tile_the_space():
    cf = cf_increasing()
    for stage in range(1, 7):
        t = S.build_tower(cf, stage)
        assert sorted(t.starts) == list(range(t.height))
        assert t.total_space == t.height * t.width
        assert t.width == Fraction(1, t.denominator)
        assert all(lo == s * t.width and hi == lo + t.width
                   for s, (lo, hi) in zip(t.starts, t.intervals))
        (run,) = t.json_items("\n  ", t.height)
        assert "[\n  " + run + "\n]" == json.dumps(interval_texts(t), indent=2)


def interval_texts(t):
    return [[str(lo), str(hi)] for lo, hi in t.intervals]


@given(st.lists(st.integers(1, 9), min_size=6, max_size=6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_json_items_join_to_the_json_of_the_intervals(terms, stage):
    cf = R.CFExpansion(terms)
    t = S.build_tower(cf, stage)
    want = json.dumps(interval_texts(t), indent=2)
    for batch in sorted({1, t.height - 1, t.height, t.height + 1} - {0}):
        runs = list(t.json_items("\n  ", batch))
        # each run is whole items, in tower order: at most batch of them, and one more "]" each
        assert [run.count("\n  ]") for run in runs] == [
            min(batch, t.height - i) for i in range(0, t.height, batch)], batch
        assert "[\n  " + ",\n  ".join(runs) + "\n]" == want, batch


def test_locate_and_map_match_linear_scan():
    cf = cf_increasing()
    rng = random.Random(2718)
    for stage in range(1, 5):
        t = S.build_tower(cf, stage)
        top_lo, top_hi = t.intervals[-1]
        points = [Fraction(0), -t.width / 2, t.total_space, t.total_space + 1, top_lo,
                  top_lo + t.width / 3, top_hi - t.width / 7]
        points += [t.intervals[rng.randrange(t.height)][0] for _ in range(50)]
        for _ in range(300):
            den = rng.randint(10 ** 5, 10 ** 6)
            points.append(Fraction(rng.randint(-den // 4, den * 5 // 4), den) * t.total_space)
        for x in points:
            hits = [i for i, (lo, hi) in enumerate(t.intervals) if lo <= x < hi]
            if not hits:
                with pytest.raises(PointOutsideTower):
                    S.locate(t, x)
                with pytest.raises(PointOutsideTower):
                    S.tower_map(t, x)
                continue
            (i,) = hits
            assert S.locate(t, x) == i
            if i == t.height - 1:
                with pytest.raises(TopLevel):
                    S.tower_map(t, x)
            else:
                assert S.tower_map(t, x) == x + t.intervals[i + 1][0] - t.intervals[i][0]


def test_tower_height_cap_is_checked_from_the_recurrence(monkeypatch):
    cf = R.CFExpansion([10, 10, 3])  # heights 10, 10 * (10 + 0) = 100, 3 * (100 + 1) = 303
    monkeypatch.setattr(R, "SIZE_CAP", 100)
    assert S.build_tower(cf, 2).height == 100
    assert len(O.skyscraper_orbit_codes(cf, 2)) == 100
    for build in (S.build_tower, O.skyscraper_orbit_codes):
        with pytest.raises(BudgetExceeded, match="stage-3 tower height = 303"):
            build(cf, 3)
    monkeypatch.setattr(R, "SIZE_CAP", 99)
    with pytest.raises(BudgetExceeded):
        S.build_tower(cf, 2)
