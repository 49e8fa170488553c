import random
from types import SimpleNamespace

import pytest

from adicspace import bratteli as B
from adicspace.errors import BudgetExceeded, IncompatiblePaths
from adicspace.labeling import cocycle, label_edges, labeling_to_json, path_bsum
from conftest import random_diagram
from path_oracle import count_paths_into, paths_into, report_tables, tables_from_b


def test_odometer_labels_double_per_level():
    d = B.odometer_diagram(8)
    lab = label_edges(d)
    for n in range(8):
        assert lab[f"e{n}_0"] == 0
        assert lab[f"e{n}_1"] == 2 ** n


def test_morse_labels_frozen():
    d = B.morse_diagram(4)
    lab = label_edges(d)
    # crossed second edges carry 2^(n-1) from level 1 on
    assert lab["e1_1_0"] == 1 and lab["e1_0_1"] == 1
    assert lab["e2_1_0"] == 2 and lab["e2_0_1"] == 2
    assert lab["e3_1_0"] == 4 and lab["e3_0_1"] == 4
    assert lab["e1_0_0"] == 0 and lab["e1_1_1"] == 0


def test_labels_of_at_most_4300_digits_are_made_and_longer_ones_refused():
    # a diagram is read only through its path counts and its (here empty) fibers
    for top in (10 ** 4300, 10 ** 4300 - 1):
        d = SimpleNamespace(path_counts=((1,), (2, top)), in_edges={})
        assert report_tables(labeling_to_json(d, label_edges(d)))[0][1, 1] == top - 1
    for top, digits in ((10 ** 4300 + 1, 4301), (10 ** 4301 + 1, 4302), (2 ** 20000, 6021)):
        with pytest.raises(BudgetExceeded) as exc:
            label_edges(SimpleNamespace(path_counts=((1,), (2, 3), (top, 1)), in_edges={}))
        assert exc.value.message == ("the decimal digits of the largest label into level 2 "
                                     f"= {digits} exceeds the budget 4300")


def test_odometer_bsums():
    d = B.odometer_diagram(3)
    lab = label_edges(d)
    minimal = B.unrank(d, 3, 0, 0)
    maximal = B.unrank(d, 3, 0, B.count_paths_into(d, 3, 0) - 1)
    assert path_bsum(lab, minimal) == 0
    assert path_bsum(lab, maximal) == 7
    assert cocycle(lab, minimal, maximal) == 7
    assert cocycle(lab, minimal, minimal) == 0


def test_morse_maximal_bsum_counts_paths():
    # three levels past the root fan-out: 8 paths, so the maximal b-sum is 7
    d = B.morse_diagram(4)
    lab = label_edges(d)
    maximal = B.unrank(d, 4, 0, B.count_paths_into(d, 4, 0) - 1)
    assert path_bsum(lab, maximal) == B.count_paths_into(d, 4, 0) - 1 == 7


def test_cocycle_rejects_incompatible():
    d = B.morse_diagram(3)
    lab = label_edges(d)
    p = B.unrank(d, 3, 0, 0)
    q = B.unrank(d, 3, 1, 0)
    with pytest.raises(IncompatiblePaths):
        cocycle(lab, p, q)
    with pytest.raises(IncompatiblePaths):
        cocycle(lab, p, B.unrank(d, 2, 0, 0))


def assert_successor_increment_and_consecutive(d, lab, max_level=None):
    depth = max_level or d.depth
    for n in range(depth):
        for v in range(d.k(n + 1)):
            paths = [B.FinitePath(p) for p in paths_into(d, n + 1, v)]
            sums = [path_bsum(lab, p) for p in paths]
            assert sums == list(range(len(paths)))
            for p, q in zip(paths, paths[1:]):
                assert cocycle(lab, p, q) == 1
                assert B.successor(d, p).ids() == q.ids()
            assert B.successor(d, paths[-1]) is None


def test_properties_on_worked_examples():
    for d in (B.odometer_diagram(6), B.morse_diagram(6), B.circulant_diagram(4, 6)):
        assert_successor_increment_and_consecutive(d, label_edges(d))


def test_properties_on_randomized_diagrams():
    rng = random.Random(2024)
    for _ in range(25):
        d = random_diagram(rng, depth=5)
        lab = label_edges(d)
        assert_successor_increment_and_consecutive(d, lab)
        # the inductive definition itself, with wmax from the independent max recursion
        wmax, _ = tables_from_b(d, lab)
        for (n, v), fiber in d.in_edges.items():
            assert lab[fiber[0].id] == 0
            for prev, cur in zip(fiber, fiber[1:]):
                assert lab[cur.id] == wmax[(n - 1, prev.src)] + lab[prev.id] + 1


def test_wmin_zero_wmax_counts():
    rng = random.Random(99)
    for _ in range(10):
        d = random_diagram(rng, depth=5)
        wmax, wmin = report_tables(labeling_to_json(d, label_edges(d)))
        for n in range(d.depth + 1):
            for v in range(d.k(n)):
                assert wmin[(n, v)] == 0
                assert wmax[(n, v)] == count_paths_into(d, n, v) - 1


def test_tables_from_external_b_match_dp():
    # the label report reads the path-count table; the oracle runs the max/min recursion
    rng = random.Random(16)
    diagrams = [B.odometer_diagram(4), B.morse_diagram(5), B.circulant_diagram(3, 4)]
    diagrams += [random_diagram(rng, depth=rng.randint(1, 5)) for _ in range(20)]
    for d in diagrams:
        lab = label_edges(d)
        assert tables_from_b(d, lab) == report_tables(labeling_to_json(d, lab))


def test_labels_nonnegative_and_minimal_zero():
    rng = random.Random(5)
    d = random_diagram(rng, depth=5)
    lab = label_edges(d)
    assert all(v >= 0 for v in lab.values())
    for (n, v), fiber in d.in_edges.items():
        assert lab[fiber[0].id] == 0
