"""Ordered Bratteli diagrams with Markov measures, at finite depth.

A diagram is a leveled multigraph: level n holds the vertex set V_n (V_0 is
a singleton root), and E_n is the set of edges from V_n to V_{n+1}.  Every
non-root vertex carries an explicit total order on its incoming edges; no
default order is assumed, because the worked families use orders that are
not left-to-right.  Each edge carries a transition probability p(e) > 0 and
the probabilities out of any vertex sum to 1 (exactly in rational mode, or
as an interval containing 1 in enclosure mode).

Depth is fixed at construction.  Operations act on finite paths
(e_0, ..., e_n) from the root.  A path into a vertex w is named by its rank
0..N(w) - 1 in adic order (:func:`unrank`), and the successor operation
below, rank r to r + 1, is the finite restriction of the adic
transformation: it fixes the terminal vertex.

JSON interchange format::

    {"levels": [["v0"], ["a", "b"], ...],
     "edges":  [[{"id": "e0", "src": 0, "dst": 0, "p": "1/2"}, ...], ...],
     "orders": {"<level>/<vertex-index>": ["edgeId", ...], ...}}

``src``/``dst`` are JSON integer indices into the adjacent level lists;
``p`` is written like a Laurent coefficient, as a "num/den" string or an
["lo", "hi"] pair for an enclosure; the order key for vertex i of V_n is
``"n/i"`` and lists the ids of the E_{n-1} edges into that vertex, minimal
first.  :func:`validate_diagram` only parses this shape.  The
:class:`OrderedBratteliDiagram` constructor checks every rule once: the
root, the level count and the endpoints before it indexes anything, then
ids, measures, fibers and orders (an order for no non-root vertex too) in
one pass over each E_n.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (SIZE_CAP, TEXT_DIGITS, BadInput, BadMeasure, BadOrder, DepthExceeded,
                     EmptyFiber, MissingRoot, check_budget, check_text_digits, decimal_digits)
from .intervals import RatInterval, exact_sum
from .laurent import coeff_from_json, coeff_to_json


def _text(x) -> str:
    """A rational or an interval in its report form, or its digit count past TEXT_DIGITS.

    An interval is written as a report writes it, ``["lo", "hi"]``.
    """
    c = RatInterval.coerce(x)
    digits = sum(decimal_digits(i) for f in {c.lo, c.hi} for i in (f.numerator, f.denominator))
    if digits > TEXT_DIGITS:
        return f"a number of {digits} digits"
    return json.dumps(coeff_to_json(x)) if isinstance(x, RatInterval) else str(x)


class Edge(NamedTuple):
    id: str
    level: int
    src: int
    dst: int
    p: object  # Fraction or RatInterval, > 0


@dataclass(frozen=True)
class FinitePath:
    """A path (e_0, ..., e_n) from the root; r(e_k) = s(e_{k+1})."""

    edges: tuple

    def __len__(self):
        return len(self.edges)

    @property
    def terminal(self):
        last = self.edges[-1]
        return (last.level + 1, last.dst)

    def ids(self):
        return tuple(e.id for e in self.edges)


class OrderedBratteliDiagram:
    """Validated diagram; immutable after construction.

    ``levels[n]`` are the vertex labels of V_n; ``edges[n]`` the E_n edge
    tuple; ``in_edges[(n+1, v)]`` the edges into vertex v of V_{n+1} in
    their total order.
    """

    def __init__(self, levels, edges, orders):
        self.levels = tuple(tuple(l) for l in levels)
        self.edges = tuple(tuple(e) for e in edges)
        root_size = len(self.levels[0]) if self.levels else 0
        if root_size != 1:
            raise MissingRoot(f"V_0 must be a singleton, got {root_size} vertices")
        if len(self.levels) != len(self.edges) + 1:
            raise BadInput("need exactly one more vertex level than edge level")
        self.in_edges = {}
        seen_ids = set()
        for n, level_edges in enumerate(self.edges):
            outs = [[] for _ in self.levels[n]]
            fibers = [[] for _ in self.levels[n + 1]]
            for e in level_edges:
                if e.id in seen_ids:
                    raise BadInput(f"duplicate edge id {e.id!r}")
                seen_ids.add(e.id)
                if not (0 <= e.src < len(outs) and 0 <= e.dst < len(fibers)):
                    raise BadInput(f"edge {e.id!r} endpoints out of range")
                if RatInterval.coerce(e.p).lo <= 0:
                    raise BadMeasure(f"edge {e.id!r} has p <= 0")
                outs[e.src].append(e)
                fibers[e.dst].append(e)
            for v, out in enumerate(outs):
                if not out:
                    raise EmptyFiber(f"vertex {n}/{v} has no outgoing edge")
                total = exact_sum(e.p for e in out)
                if not RatInterval.coerce(total).contains(1):
                    raise BadMeasure(f"source sums at vertex {n}/{v} equal {_text(total)}, not 1")
            for v, fiber in enumerate(fibers):
                order = orders.get((n + 1, v))
                if order is None:
                    raise BadOrder(f"no order given for vertex {n + 1}/{v}")
                if not fiber:
                    raise EmptyFiber(f"vertex {n + 1}/{v} has no incoming edge")
                by_id = {e.id: e for e in fiber}
                if sorted(order) != sorted(by_id):
                    raise BadOrder(f"order at vertex {n + 1}/{v} is not a permutation of its fiber")
                self.in_edges[(n + 1, v)] = tuple(by_id[i] for i in order)
        for n, v in orders:
            if (n, v) not in self.in_edges:
                raise BadOrder(f"an order is given for {n}/{v}, which is no non-root vertex")

    @property
    def depth(self) -> int:
        """Number of edge levels; paths have length at most depth."""
        return len(self.edges)

    def k(self, n: int) -> int:
        return len(self.levels[n])

    @cached_property
    def path_counts(self) -> tuple:
        """``path_counts[n][v]`` is N, the number of paths from the root into vertex v of V_n.

        Built on first use, never by validation: N grows like 2^n.
        """
        counts = [(1,)]
        for n in range(1, len(self.levels)):
            counts.append(tuple(sum(counts[n - 1][e.src] for e in self.in_edges[(n, v)])
                                for v in range(self.k(n))))
        return tuple(counts)


def validate_diagram(spec: dict) -> OrderedBratteliDiagram:
    """Build a diagram from the JSON interchange dict, or raise a coded error."""
    if not isinstance(spec, dict):
        raise BadInput(f"a diagram must be a JSON object, not a {type(spec).__name__}")
    for key in ("levels", "edges"):
        if key not in spec:
            raise BadInput(f'a diagram needs a "{key}" key')
    levels, raw_edges, raw_orders = spec["levels"], spec["edges"], spec.get("orders", {})
    if not isinstance(levels, list) or not all(isinstance(l, list) for l in levels):
        raise BadInput("levels must be a list of vertex lists")
    if not isinstance(raw_edges, list) or not all(
            isinstance(level, list) and all(isinstance(e, dict) for e in level)
            for level in raw_edges):
        raise BadInput("edges must be a list of lists of edge objects")
    edges = []
    for n, level in enumerate(raw_edges):
        parsed = []
        for e in level:
            try:
                src, dst = e["src"], e["dst"]
                if type(src) is not int or type(dst) is not int:
                    raise ValueError(f"src {src!r} and dst {dst!r} must be JSON integers")
                parsed.append(Edge(id=str(e["id"]), level=n, src=src, dst=dst,
                                   p=coeff_from_json(e["p"])))
            except (KeyError, ValueError, TypeError) as exc:
                raise BadInput(f"malformed edge {e.get('id')!r} in E_{n}: {exc}") from exc
        edges.append(parsed)
    if not isinstance(raw_orders, dict):
        raise BadInput("orders must be an object mapping \"level/vertex\" to edge ids")
    orders, keys = {}, {}
    for key, ids in raw_orders.items():
        try:
            lvl, v = map(int, check_text_digits("an order key", key).split("/"))
        except ValueError as exc:
            raise BadInput(f"malformed order key {key!r}") from exc
        if keys.setdefault((lvl, v), key) != key:
            raise BadInput(f"order keys {keys[lvl, v]!r} and {key!r} name one vertex, {lvl}/{v}")
        if not isinstance(ids, list) or not all(isinstance(i, (str, int)) for i in ids):
            raise BadInput(f"order {key!r} must be a list of edge ids")
        orders[(lvl, v)] = [str(i) for i in ids]
    return OrderedBratteliDiagram(levels, edges, orders)


def truncate(d: OrderedBratteliDiagram, depth: int) -> OrderedBratteliDiagram:
    """The first ``depth`` edge levels of ``d`` with their vertices and orders; ``d`` at its depth."""
    if depth == d.depth:
        return d
    if not 1 <= depth < d.depth:
        raise DepthExceeded(f"depth {depth} is outside 1..{d.depth}, the depth of the diagram")
    orders = {key: [e.id for e in es] for key, es in d.in_edges.items() if key[0] <= depth}
    return OrderedBratteliDiagram(d.levels[:depth + 1], d.edges[:depth], orders)


def diagram_to_json(d: OrderedBratteliDiagram) -> dict:
    edges = [[{"id": e.id, "src": e.src, "dst": e.dst, "p": coeff_to_json(e.p)} for e in level]
             for level in d.edges]
    orders = {f"{n}/{v}": [e.id for e in es] for (n, v), es in d.in_edges.items()}
    return {"levels": [list(l) for l in d.levels], "edges": edges, "orders": orders}


# -- path machinery ----------------------------------------------------------


def fiber_labels(d: OrderedBratteliDiagram, level: int, vertex: int) -> list:
    """b(e) for the in-edges e of the vertex in order: N summed over the sources
    of the edges before e."""
    below = d.path_counts[level - 1]
    return list(itertools.accumulate((below[e.src] for e in d.in_edges[(level, vertex)][:-1]),
                                     initial=0))


def unrank(d: OrderedBratteliDiagram, level: int, vertex: int, r: int) -> Optional[FinitePath]:
    """The path into the vertex of rank ``r`` in adic order; None when r is outside 0..N - 1.

    The adic order compares the latest differing edge via the order at its
    range vertex, so the paths through an in-edge e come after the b(e)
    paths through the edges before it, and a path's rank is its b-sum.
    Each level scans the fiber for the in-edge e with b(e) <= r < b(e) +
    N(s(e)), subtracts b(e) and steps to s(e).
    """
    if not 0 <= r < count_paths_into(d, level, vertex):
        return None
    edges = []
    for n in range(level, 0, -1):
        below = d.path_counts[n - 1]
        for e in d.in_edges[(n, vertex)]:
            if r < below[e.src]:
                break
            r -= below[e.src]
        edges.append(e)
        vertex = e.src
    return FinitePath(tuple(reversed(edges)))


def enumerate_paths(d: OrderedBratteliDiagram, n: int, v: Optional[int] = None) -> list:
    """All paths (e_0, ..., e_n), in adic order.

    When ``v`` is given only paths with r(e_n) = v are produced; otherwise
    paths are grouped by terminal vertex in level order (the adic order is
    only a partial order across distinct terminals).
    """
    if n >= d.depth:
        raise DepthExceeded(f"level {n} >= depth {d.depth}")
    vertices = range(d.k(n + 1)) if v is None else (v,)
    return [unrank(d, n + 1, w, r) for w in vertices for r in range(count_paths_into(d, n + 1, w))]


def count_paths_into(d: OrderedBratteliDiagram, level: int, vertex: int) -> int:
    if not (0 <= level <= d.depth and 0 <= vertex < d.k(level)):
        raise BadInput(f"no vertex {level}/{vertex} in a diagram of depth {d.depth}")
    return d.path_counts[level][vertex]


def check_path(d: OrderedBratteliDiagram, p: FinitePath):
    """Refuses anything but consecutive edges of ``d``, from the root."""
    if not p.edges:
        raise BadInput("empty path")
    if p.edges[0].level != 0 or p.edges[0].src != 0:
        raise BadInput("path must start at the root")
    for e in p.edges:
        if e not in d.in_edges.get((e.level + 1, e.dst), ()):
            raise BadInput(f"edge {e.id!r} is not an edge of the diagram")
    for a, b in itertools.pairwise(p.edges):
        if b.level != a.level + 1 or b.src != a.dst:
            raise BadInput(f"edges {a.id!r}, {b.id!r} are not consecutive")


def _rank(d: OrderedBratteliDiagram, p: FinitePath) -> int:
    check_path(d, p)
    return sum(fiber_labels(d, e.level + 1, e.dst)[d.in_edges[(e.level + 1, e.dst)].index(e)]
               for e in p.edges)


def successor(d: OrderedBratteliDiagram, p: FinitePath) -> Optional[FinitePath]:
    """The next path in adic order with the same terminal vertex: T, rank r to r + 1.

    Returns None when p is the adic-maximal path into its terminal vertex.
    """
    r = _rank(d, p)
    return unrank(d, *p.terminal, r + 1)


def predecessor(d: OrderedBratteliDiagram, p: FinitePath) -> Optional[FinitePath]:
    """Inverse of :func:`successor`; None on the adic-minimal path."""
    r = _rank(d, p)
    return unrank(d, *p.terminal, r - 1)


def cylinder_measure(d: OrderedBratteliDiagram, p: FinitePath):
    """Product of the edge probabilities along the path, exact."""
    check_path(d, p)
    total = Fraction(1)
    for e in p.edges:
        total = total * e.p
    return total


# -- bundled example families -------------------------------------------------


def _check_depth(depth: int, edges: int):
    """A preset of depth >= 1 with at most SIZE_CAP ``edges``."""
    if depth < 1:
        raise BadInput(f"a preset diagram needs depth >= 1, not {depth}")
    check_budget(f"the edges of the depth-{depth} preset", edges, SIZE_CAP)


def odometer_diagram(depth: int) -> OrderedBratteliDiagram:
    """Dyadic odometer: one vertex per level, two edges e0 < e1, p = 1/2."""
    _check_depth(depth, 2 * depth)
    levels = [["v"] for _ in range(depth + 1)]
    edges, orders = [], {}
    for n in range(depth):
        e0 = Edge(f"e{n}_0", n, 0, 0, Fraction(1, 2))
        e1 = Edge(f"e{n}_1", n, 0, 0, Fraction(1, 2))
        edges.append([e0, e1])
        orders[(n + 1, 0)] = [e0.id, e1.id]
    return OrderedBratteliDiagram(levels, edges, orders)


def circulant_diagram(k: int, depth: int) -> OrderedBratteliDiagram:
    """The k-cycle family: loops stay, shifts move v_i to v_{i+1 mod k}.

    Level 0 is the root fanning out with p = 1/k.  From level 1 on, vertex
    i emits a loop edge and a shift edge, p = 1/2 each; the order at every
    vertex puts the loop edge first.  k = 2 is the Morse diagram (there the
    order at the second vertex is the crossed one, which is exactly what
    the loop-first rule produces).
    """
    if k < 2:
        raise BadInput("k must be at least 2")
    _check_depth(depth, k * (2 * depth - 1))
    levels = [["root"]] + [[f"v{n}_{i}" for i in range(k)] for n in range(1, depth + 1)]
    edges, orders = [], {}
    root_edges = [Edge(f"e0_{i}", 0, 0, i, Fraction(1, k)) for i in range(k)]
    edges.append(root_edges)
    for i in range(k):
        orders[(1, i)] = [root_edges[i].id]
    for n in range(1, depth):
        level_edges = []
        loops = [Edge(f"e{n}_{i}_{i}", n, i, i, Fraction(1, 2)) for i in range(k)]
        shifts = [Edge(f"e{n}_{i}_{(i + 1) % k}", n, i, (i + 1) % k, Fraction(1, 2)) for i in range(k)]
        level_edges.extend(loops)
        level_edges.extend(shifts)
        edges.append(level_edges)
        for i in range(k):
            orders[(n + 1, i)] = [loops[i].id, shifts[(i - 1) % k].id]
    return OrderedBratteliDiagram(levels, edges, orders)


def morse_diagram(depth: int) -> OrderedBratteliDiagram:
    """Two vertices per level, the crossed incoming orders, p = 1/2."""
    return circulant_diagram(2, depth)
