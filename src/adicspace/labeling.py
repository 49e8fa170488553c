"""The inductive integer edge labeling b and its path cocycle.

For each vertex v with ordered incoming edges e^1 < ... < e^p the labeling
satisfies b(e^1) = 0 and b(e^{i+1}) = wmax(s(e^i)) + b(e^i) + 1, where
wmax(u) is the largest b-sum over paths from the root into u (wmax(root) = 0,
so level-0 edges are labeled by the same rule with empty-path maximum 0).
The resulting cocycle increases by exactly 1 along the adic successor, and
the b-sums of the paths into any vertex, read in adic order, are
0, 1, ..., N_v - 1.

So wmax(u) = N_u - 1 and wmin(u) = 0, and b(e^{i+1}) = b(e^i) + N_{s(e^i)}:
the labels are the running sums of the diagram's path counts
(:func:`~adicspace.bratteli.fiber_labels`), and a path's b-sum is its rank
in adic order, the r of :func:`~adicspace.bratteli.unrank`.
:func:`label_edges` reads them into the labeling, the map from edge id to
label; no path is enumerated.  The ``label`` report writes wmax and wmin off
the path counts too.
"""

from __future__ import annotations

from typing import Dict

from .bratteli import FinitePath, OrderedBratteliDiagram, fiber_labels
from .errors import IncompatiblePaths, check_digits


def label_edges(d: OrderedBratteliDiagram) -> Dict[str, int]:
    """The labeling, edge id -> label >= 0, read from the diagram's path counts.

    The largest label into a level is its largest N - 1.  A level where that
    has more than TEXT_DIGITS digits is refused before anything is labeled,
    since no report could write it.
    """
    for n, level in enumerate(d.path_counts):
        check_digits(f"the largest label into level {n}", max(level) - 1)
    return {e.id: label for (n, v), fiber in d.in_edges.items()
            for e, label in zip(fiber, fiber_labels(d, n, v))}


def path_bsum(labels: Dict[str, int], p: FinitePath) -> int:
    return sum(labels[e.id] for e in p.edges)


def cocycle(labels: Dict[str, int], p: FinitePath, q: FinitePath) -> int:
    """b-sum difference of two tail-equivalent finite paths: bsum(q) - bsum(p)."""
    if len(p) != len(q) or p.terminal != q.terminal:
        raise IncompatiblePaths("paths must share length and terminal vertex")
    return path_bsum(labels, q) - path_bsum(labels, p)


def labeling_to_json(d: OrderedBratteliDiagram, labels: Dict[str, int]) -> dict:
    """The ``label`` report: the labels, and wmax = N - 1 and wmin = 0 at every vertex."""
    wmax = {f"{n}/{v}": str(c - 1)
            for n, level in enumerate(d.path_counts) for v, c in enumerate(level)}
    return {"b": {eid: str(v) for eid, v in labels.items()}, "wmax": wmax,
            "wmin": dict.fromkeys(wmax, "0")}
