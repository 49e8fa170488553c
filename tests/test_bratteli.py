import json
import random
from fractions import Fraction

import pytest

from adicspace import bratteli as B
from adicspace.cli import main
from adicspace.dimspace import build_matrices
from adicspace.errors import (BadInput, BadMeasure, BadOrder, BudgetExceeded, DepthExceeded,
                              EmptyFiber, MissingRoot)
from adicspace.intervals import RatInterval
from adicspace.labeling import label_edges
from adicspace.walk import WalkState, exact_distribution
from conftest import random_diagram
import path_oracle as oracle


def odometer_spec(depth=3, p0="1/2", p1="1/2"):
    spec = {"levels": [["v"] for _ in range(depth + 1)], "edges": [], "orders": {}}
    for n in range(depth):
        spec["edges"].append([
            {"id": f"e{n}_0", "src": 0, "dst": 0, "p": p0},
            {"id": f"e{n}_1", "src": 0, "dst": 0, "p": p1},
        ])
        spec["orders"][f"{n + 1}/0"] = [f"e{n}_0", f"e{n}_1"]
    return spec


def test_validate_odometer_spec():
    d = B.validate_diagram(odometer_spec())
    assert d.depth == 3
    assert [d.k(n) for n in range(4)] == [1, 1, 1, 1]


def test_validate_rejects_bad_measure():
    with pytest.raises(BadMeasure):
        B.validate_diagram(odometer_spec(p0="1/3", p1="1/3"))
    with pytest.raises(BadMeasure):
        B.validate_diagram(odometer_spec(p0="0", p1="1"))
    # enclosure mode: p must be certainly positive and the source sum must enclose 1
    narrow = RatInterval(Fraction(1, 4), Fraction(1, 3))
    for p0, p1 in ((RatInterval(0, 1), RatInterval(1, 2)), (narrow, narrow)):
        edges = [[B.Edge("e0", 0, 0, 0, p0), B.Edge("e1", 0, 0, 0, p1)]]
        with pytest.raises(BadMeasure):
            B.OrderedBratteliDiagram([["r"], ["v"]], edges, {(1, 0): ["e0", "e1"]})


def test_validate_rejects_missing_root():
    spec = odometer_spec()
    spec["levels"][0] = ["a", "b"]
    spec["edges"][0][0]["src"] = 1
    with pytest.raises(MissingRoot):
        B.validate_diagram(spec)


def test_validate_rejects_bad_order():
    spec = odometer_spec()
    spec["orders"]["1/0"] = ["e0_0", "e0_0"]
    with pytest.raises(BadOrder):
        B.validate_diagram(spec)
    del spec["orders"]["1/0"]
    with pytest.raises(BadOrder):
        B.validate_diagram(spec)


def test_validate_rejects_empty_fiber():
    spec = {
        "levels": [["v"], ["a", "b"], ["c"]],
        "edges": [
            [{"id": "x", "src": 0, "dst": 0, "p": "1"}],
            [{"id": "y", "src": 0, "dst": 0, "p": "1"},
             {"id": "z", "src": 1, "dst": 0, "p": "1"}],
        ],
        "orders": {"1/0": ["x"], "1/1": [], "2/0": ["y", "z"]},
    }
    # vertex 1/1 has no incoming edge
    with pytest.raises(EmptyFiber):
        B.validate_diagram(spec)


def test_constructor_checks_level_count_before_indexing():
    edge = B.Edge("e0", 0, 0, 0, Fraction(1))
    with pytest.raises(BadInput):
        B.OrderedBratteliDiagram([["r"]], [[edge]], {})
    with pytest.raises(MissingRoot):
        B.OrderedBratteliDiagram([], [[edge]], {})
    with pytest.raises(BadInput):
        B.OrderedBratteliDiagram([["r"], ["v"]], [[B.Edge("e0", 0, 0, -1, Fraction(1))]],
                                 {(1, 0): ["e0"]})


def test_constructor_rejects_duplicate_ids_and_sinks():
    half = Fraction(1, 2)
    twins = [[B.Edge("e0", 0, 0, 0, half), B.Edge("e0", 0, 0, 0, half)]]
    with pytest.raises(BadInput, match="duplicate edge id 'e0'"):
        B.OrderedBratteliDiagram([["r"], ["v"]], twins, {(1, 0): ["e0", "e0"]})
    # vertex b of V_1 has an incoming edge but no outgoing one
    edges = [[B.Edge("x", 0, 0, 0, half), B.Edge("y", 0, 0, 1, half)],
             [B.Edge("z", 1, 0, 0, Fraction(1))]]
    with pytest.raises(EmptyFiber, match="vertex 1/1 has no outgoing edge"):
        B.OrderedBratteliDiagram([["r"], ["a", "b"], ["c"]], edges,
                                 {(1, 0): ["x"], (1, 1): ["y"], (2, 0): ["z"]})


def test_validate_rejects_malformed_order_keys():
    for key in ("1", "1/0/0", "one/0", "1/x"):
        spec = odometer_spec()
        spec["orders"][key] = spec["orders"].pop("1/0")
        with pytest.raises(BadInput, match="malformed order key"):
            B.validate_diagram(spec)


def test_validate_rejects_order_keys_of_no_vertex():
    for key in ("7/3", "0/0", "4/0", "1/1", "-1/0"):
        spec = odometer_spec()
        spec["orders"][key] = ["e0_0"]
        with pytest.raises(BadOrder, match=key):
            B.validate_diagram(spec)


def test_morse_diagram_is_valid_and_crossed():
    d = B.morse_diagram(3)
    assert [e.id for e in d.in_edges[(2, 0)]] == ["e1_0_0", "e1_1_0"]
    assert [e.id for e in d.in_edges[(2, 1)]] == ["e1_1_1", "e1_0_1"]
    assert all(e.p == Fraction(1, 2) for e in d.edges[1])


def test_presets_refuse_depth_below_one():
    for build in (B.odometer_diagram, B.morse_diagram, lambda d: B.circulant_diagram(3, d)):
        for depth in (0, -2):
            with pytest.raises(BadInput):
                build(depth)
    assert B.circulant_diagram(2, 1).depth == 1


def test_presets_are_sized_before_they_are_built(monkeypatch):
    # 2 D edges on the odometer, k (2 D - 1) on the k-cycle family
    for build, size in ((lambda: B.odometer_diagram(5), 10), (lambda: B.circulant_diagram(3, 4), 21)):
        monkeypatch.setattr(B, "SIZE_CAP", size)
        assert sum(len(level) for level in build().edges) == size
        monkeypatch.setattr(B, "SIZE_CAP", size - 1)
        with pytest.raises(BudgetExceeded, match=f"= {size} exceeds the budget {size - 1}$"):
            build()
    monkeypatch.undo()
    for build in (B.odometer_diagram, B.morse_diagram, lambda d: B.circulant_diagram(1 << 20, d)):
        with pytest.raises(BudgetExceeded):
            build(10 ** 8)


def test_json_round_trip():
    d = B.circulant_diagram(3, 4)
    again = B.validate_diagram(json.loads(json.dumps(B.diagram_to_json(d))))
    assert B.diagram_to_json(again) == B.diagram_to_json(d)


def test_enclosure_mode_diagram_json_round_trip():
    from adicspace import rotation as R

    d = R.rotation_diagram(R.CFExpansion([n + 1 for n in range(1, 11)]), 3)
    spec = B.diagram_to_json(d)
    ps = [e["p"] for level in spec["edges"] for e in level]
    # the cross edges have p = 1 exactly; every other p is an ["lo", "hi"] enclosure
    assert ps.count("1") == 2
    assert all(isinstance(p, list) and len(p) == 2 for p in ps if p != "1")
    again = B.validate_diagram(json.loads(json.dumps(spec)))
    assert B.diagram_to_json(again) == spec
    assert [e.p for e in again.edges[1]] == [e.p for e in d.edges[1]]


def test_validate_reads_p_like_a_laurent_coefficient():
    for p0, p1, error in ((["1/4", "1/3"], "1/2", BadMeasure),  # [3/4, 5/6] misses 1
                          (["1/2"], "1/2", BadInput),
                          (["1/2", "1/3"], "1/2", BadInput),      # lo > hi
                          (["0", "1/2"], ["1/2", "1"], BadMeasure)):
        with pytest.raises(error):
            B.validate_diagram(odometer_spec(2, p0, p1))
    d = B.validate_diagram(odometer_spec(2, ["1/3", "1/2"], ["1/2", "2/3"]))
    assert d.edges[0][0].p == RatInterval(Fraction(1, 3), Fraction(1, 2))


# -- enumeration order -----------------------------------------------------------

def test_odometer_enumeration_is_binary_counting():
    d = B.odometer_diagram(3)
    paths = B.enumerate_paths(d, 1)
    as_bits = [tuple(int(e.id[-1]) for e in p.edges) for p in paths]
    assert as_bits == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_morse_single_path_per_level_one_vertex():
    d = B.morse_diagram(2)
    assert len(B.enumerate_paths(d, 0, v=0)) == 1
    assert len(B.enumerate_paths(d, 0, v=1)) == 1


def test_enumerate_depth_guard():
    d = B.odometer_diagram(2)
    with pytest.raises(DepthExceeded):
        B.enumerate_paths(d, 2)
    # a vertex that is not the diagram's is refused, a negative index included
    for level, vertex in ((1, 1), (1, -1), (3, 0), (-1, 0)):
        with pytest.raises(BadInput, match=f"no vertex {level}/{vertex} "):
            B.unrank(d, level, vertex, 0)
    with pytest.raises(BadInput, match="no vertex 1/1 "):
        B.enumerate_paths(d, 0, v=1)


# -- successor -------------------------------------------------------------------

def path_by_bits(d, bits):
    return B.FinitePath(tuple(d.edges[n][b] for n, b in enumerate(bits)))


def test_odometer_successor_increments_binary():
    d = B.odometer_diagram(3)
    assert B.successor(d, path_by_bits(d, (1, 0, 0))) == path_by_bits(d, (0, 1, 0))
    assert B.successor(d, path_by_bits(d, (1, 1, 1))) is None


def test_successor_keeps_terminal_vertex():
    rng = random.Random(7)
    d = random_diagram(rng, depth=4)
    for v in range(d.k(4)):
        p = B.unrank(d, 4, v, 0)
        while p is not None:
            assert p.terminal == (4, v)
            p = B.successor(d, p)


def walk(d, p, step):
    visited = [p]
    while (p := step(d, p)) is not None:
        visited.append(p)
    return [x.ids() for x in visited]


def test_successor_cycles_through_enumeration():
    from adicspace import rotation as R

    rng = random.Random(3)
    diagrams = [random_diagram(rng, depth=3) for _ in range(10)]
    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    diagrams.append(R.rotation_diagram(cf, 4))  # interval probabilities
    for d in diagrams:
        n = d.depth
        for v in range(d.k(n)):
            expected = [tuple(e.id for e in p) for p in oracle.paths_into(d, n, v)]
            assert len(expected) == B.count_paths_into(d, n, v) == oracle.count_paths_into(d, n, v)
            assert [p.ids() for p in B.enumerate_paths(d, n - 1, v=v)] == expected
            lo, hi = B.unrank(d, n, v, 0), B.unrank(d, n, v, len(expected) - 1)
            assert walk(d, lo, B.successor) == expected
            assert walk(d, hi, B.predecessor) == expected[::-1]
            assert B.predecessor(d, lo) is None and B.successor(d, hi) is None


def test_unrank_matches_the_oracle_routes():
    # rank r is the r-th path of the recursive enumeration, and T^(+-1) is r -> r +- 1
    rng = random.Random(11)
    for _ in range(30):
        d = random_diagram(rng, depth=5, max_vertices=3)
        for n, v in d.in_edges:
            paths = [B.FinitePath(p) for p in oracle.paths_into(d, n, v)]
            for r, p in enumerate(paths):
                assert B.unrank(d, n, v, r) == p
                assert oracle.adic_neighbor(d, p, +1) == B.unrank(d, n, v, r + 1)
                assert oracle.adic_neighbor(d, p, -1) == B.unrank(d, n, v, r - 1)
            assert B.unrank(d, n, v, -1) is None and B.unrank(d, n, v, len(paths)) is None
            assert oracle.extreme_path_into(d, n, v, 0) == B.unrank(d, n, v, 0)
            assert oracle.extreme_path_into(d, n, v, -1) == B.unrank(d, n, v, len(paths) - 1)


def test_unrank_reads_one_path_of_two_to_the_sixty():
    d = B.odometer_diagram(60)
    r = 2 ** 59 + 12345
    p = B.unrank(d, 60, 0, r)
    # e{n}_0 < e{n}_1 and b(e{n}_1) = 2^n: the path spells r in binary, lowest bit first
    assert [int(e.id[-1]) for e in p.edges] == [(r >> n) & 1 for n in range(60)]
    assert B.successor(d, p) == B.unrank(d, 60, 0, r + 1)
    assert B.predecessor(d, p) == B.unrank(d, 60, 0, r - 1)
    assert B.unrank(d, 60, 0, 2 ** 60) is None
    assert B.successor(d, B.unrank(d, 60, 0, 2 ** 60 - 1)) is None


def test_enumeration_of_a_chain_deeper_than_the_recursion_limit():
    depth = 1500
    edges = [[B.Edge(f"e{n}", n, 0, 0, Fraction(1))] for n in range(depth)]
    d = B.OrderedBratteliDiagram([["v"]] * (depth + 1), edges,
                                 {(n + 1, 0): [f"e{n}"] for n in range(depth)})
    (p,) = B.enumerate_paths(d, depth - 1)
    assert p.edges == tuple(level[0] for level in edges)
    assert B.successor(d, p) is None and B.predecessor(d, p) is None


def test_path_counts_are_built_on_first_use():
    # N doubles per level on the odometer: validation and truncation never count paths
    d = B.validate_diagram(B.diagram_to_json(B.odometer_diagram(64)))
    cut = B.truncate(d, 4)
    assert "path_counts" not in vars(d) and "path_counts" not in vars(cut)
    assert B.count_paths_into(cut, 4, 0) == 16
    assert "path_counts" in vars(cut) and "path_counts" not in vars(d)


def test_predecessor_inverts_successor():
    rng = random.Random(11)
    d = random_diagram(rng, depth=4)
    for p in B.enumerate_paths(d, 3):
        q = B.successor(d, p)
        if q is not None:
            assert B.predecessor(d, q) == p


# -- cylinder measures ------------------------------------------------------------

def test_cylinder_measures_frozen():
    d = B.odometer_diagram(3)
    assert B.cylinder_measure(d, path_by_bits(d, (0, 1, 0))) == Fraction(1, 8)
    m = B.morse_diagram(2)
    p = B.unrank(m, 2, 0, 0)
    assert B.cylinder_measure(m, p) == Fraction(1, 4)


def test_cylinder_measures_sum_to_one():
    rng = random.Random(23)
    for _ in range(5):
        d = random_diagram(rng, depth=4)
        for n in range(d.depth):
            total = sum(B.cylinder_measure(d, p) for p in B.enumerate_paths(d, n))
            assert total == 1


def test_maximal_path_count_is_vertex_count(capsys):
    # one adic-maximal path into each vertex: the validate report counts V_1 .. V_depth
    assert main(["validate", "--preset", "circulant:5", "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["maximal_paths_per_level"] == [5, 5, 5, 5]


def test_truncate_keeps_the_labels_matrices_and_walk_law_of_its_levels():
    rng = random.Random(18)
    start = WalkState(0, 0, 0)
    for _ in range(10):
        d = random_diagram(rng, depth=4)
        lab = label_edges(d)
        space = build_matrices(d)
        for n in range(1, d.depth + 1):
            cut = B.truncate(d, n)
            assert label_edges(cut) == {e.id: lab[e.id] for level in d.edges[:n] for e in level}
            cut_space = build_matrices(cut)
            assert cut_space.matrices == space.matrices[:n]
            assert exact_distribution(cut_space, n, start) == exact_distribution(space, n, start)
        assert B.truncate(d, d.depth) is d
        for depth in (0, -1, d.depth + 1):
            with pytest.raises(DepthExceeded):
                B.truncate(d, depth)


def test_adic_steps_refuse_a_path_that_is_not_one():
    d = B.odometer_diagram(3)
    e0, e1, e2 = (d.edges[n][0] for n in range(3))
    # an edge that is not the diagram's: a foreign id, and a diagram edge id with a far endpoint
    foreign, far = B.Edge("zz", 0, 0, 0, Fraction(1, 3)), e0._replace(dst=5)
    for edges, message in (((), "empty path"),
                           ((e1, e2), "path must start at the root"),
                           ((e0, e2), "edges 'e0_0', 'e2_0' are not consecutive"),
                           ((foreign, e1), "edge 'zz' is not an edge of the diagram"),
                           ((far, e1), "edge 'e0_0' is not an edge of the diagram")):
        for step in (B.successor, B.predecessor, B.cylinder_measure):
            with pytest.raises(BadInput, match=message):
                step(d, B.FinitePath(edges))


def test_rotation_diagram_path_operations():
    from adicspace import rotation as R

    cf = R.CFExpansion([n + 1 for n in range(1, 11)])
    d = R.rotation_diagram(cf, 4)
    # a(1) = 2 paths of length one into the first vertex, one into the second
    assert len(B.enumerate_paths(d, 0, v=0)) == cf.a(1)
    assert len(B.enumerate_paths(d, 0, v=1)) == 1
    assert B.count_paths_into(d, 3, 0) == cf.q(3)
    assert B.count_paths_into(d, 3, 1) == cf.q(2)
    # measure of the two-edge cylinder through the outgoing edge: the
    # probabilities multiply to an enclosure of alpha(2)
    e0 = d.in_edges[(1, 0)][0]
    e1 = next(e for e in d.edges[1] if e.src == 0 and e.dst == 1)
    measure = B.cylinder_measure(d, B.FinitePath((e0, e1)))
    from adicspace import rotation
    assert measure.intersects(rotation.alpha_n(cf, 2))


def test_rotation_cylinder_measures_enclose_one():
    from adicspace import rotation as R
    from adicspace.intervals import RatInterval

    cf = R.CFExpansion([2, 3, 2, 4, 2, 2])
    d = R.rotation_diagram(cf, 3)
    for n in range(3):
        total = RatInterval(0)
        for p in B.enumerate_paths(d, n):
            total = total + B.cylinder_measure(d, p)
        assert total.contains(1)
