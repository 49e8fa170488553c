"""The inductive integer edge labeling b and its path cocycle.

For each vertex v with ordered incoming edges e^1 < ... < e^p the labeling
satisfies b(e^1) = 0 and b(e^{i+1}) = wmax(s(e^i)) + b(e^i) + 1, where
wmax(u) is the largest b-sum over paths from the root into u (wmax(root) = 0,
so level-0 edges are labeled by the same rule with empty-path maximum 0).
The resulting cocycle increases by exactly 1 along the adic successor, and
the b-sums of the paths into any vertex, read in adic order, are
0, 1, ..., N_v - 1.

So wmax(u) = N_u - 1 and wmin(u) = 0: :func:`label_edges` writes the labels
b(e^{i+1}) = b(e^i) + N_{s(e^i)} and both tables from the path counts N, and
:func:`tables_from_b` is the O(|E|) max/min recursion for a supplied labeling.
No path is enumerated: path counts grow exponentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .bratteli import FinitePath, OrderedBratteliDiagram
from .errors import IncompatiblePaths

VertexKey = Tuple[int, int]


@dataclass(frozen=True)
class EdgeLabeling:
    b: Dict[str, int]          # edge id -> label, >= 0
    wmax: Dict[VertexKey, int]  # vertex -> max path b-sum into it
    wmin: Dict[VertexKey, int]  # vertex -> min path b-sum into it


def tables_from_b(d: OrderedBratteliDiagram, b: Dict[str, int]) -> EdgeLabeling:
    """DP tables for an externally supplied labeling (e.g. the rotation one)."""
    wmax: Dict[VertexKey, int] = {(0, 0): 0}
    wmin: Dict[VertexKey, int] = {(0, 0): 0}
    for n in range(d.depth):
        for v in range(d.k(n + 1)):
            incoming = d.in_edges[(n + 1, v)]
            wmax[(n + 1, v)] = max(wmax[(n, e.src)] + b[e.id] for e in incoming)
            wmin[(n + 1, v)] = min(wmin[(n, e.src)] + b[e.id] for e in incoming)
    return EdgeLabeling(b=dict(b), wmax=wmax, wmin=wmin)


def label_edges(d: OrderedBratteliDiagram) -> EdgeLabeling:
    """Run the construction over the whole diagram, as running path counts."""
    b: Dict[str, int] = {}
    count: Dict[VertexKey, int] = {(0, 0): 1}  # N: paths from the root into each vertex
    for n in range(d.depth):
        for v in range(d.k(n + 1)):
            total = 0
            for e in d.in_edges[(n + 1, v)]:
                b[e.id] = total
                total += count[(n, e.src)]
            count[(n + 1, v)] = total
    return EdgeLabeling(b, {u: c - 1 for u, c in count.items()}, dict.fromkeys(count, 0))


def path_bsum(labeling: EdgeLabeling, p: FinitePath) -> int:
    return sum(labeling.b[e.id] for e in p.edges)


def cocycle(labeling: EdgeLabeling, p: FinitePath, q: FinitePath) -> int:
    """b-sum difference of two tail-equivalent finite paths: bsum(q) - bsum(p)."""
    if len(p) != len(q) or p.terminal != q.terminal:
        raise IncompatiblePaths("paths must share length and terminal vertex")
    return path_bsum(labeling, q) - path_bsum(labeling, p)


def labeling_to_json(d: OrderedBratteliDiagram, labeling: EdgeLabeling) -> dict:
    return {
        "b": {eid: str(v) for eid, v in sorted(labeling.b.items())},
        "wmax": {f"{n}/{v}": str(x) for (n, v), x in sorted(labeling.wmax.items())},
        "wmin": {f"{n}/{v}": str(x) for (n, v), x in sorted(labeling.wmin.items())},
    }
