"""The path routes that do not read the diagram's path counts: test oracles.

The library ranks paths through one path-count table per diagram
(``OrderedBratteliDiagram.path_counts``, read by ``bratteli.fiber_labels``
and ``bratteli.unrank``).  The routes here compute the same things another
way, so tests compare two independent routes:

- ``adic_neighbor`` moves the first edge that can move one place in its
  fiber and rebuilds the prefix with ``extreme_path_into``;
- ``count_paths_into`` runs the path-count recursion level by level;
- ``tables_from_b`` runs the max/min recursion for any supplied labeling;
  ``report_tables`` reads the ``label`` report's tables into the same form;
- ``left_fold`` multiplies the M_n one level at a time, where
  ``dimspace.partial_product`` multiplies two half-products;
- ``paths_between`` enumerates the paths from one vertex to another by
  recursion over fibers, and ``paths_into`` those from the root.
"""

from adicspace.bratteli import FinitePath
from adicspace.laurent import mat_mul


def paths_into(d, level, vertex):
    """Edge tuples of the paths from the root into the vertex, in adic order."""
    return paths_between(d, 0, 0, level, vertex)


def extreme_path_into(d, level, vertex, end):
    """The path through the in-edge at position ``end`` (0 or -1) of every fiber."""
    edges = []
    for n in range(level, 0, -1):
        edges.append(d.in_edges[(n, vertex)][end])
        vertex = edges[-1].src
    return FinitePath(tuple(reversed(edges)))


def adic_neighbor(d, p, step):
    """The path one adic step away: ``step`` +1 is T, -1 is T^-1; None past the end."""
    end = 0 if step > 0 else -1
    for m, e in enumerate(p.edges):
        fiber = d.in_edges[(e.level + 1, e.dst)]
        idx = fiber.index(e) + step
        if 0 <= idx < len(fiber):
            nxt = fiber[idx]
            prefix = extreme_path_into(d, m, nxt.src, end).edges
            return FinitePath(prefix + (nxt,) + p.edges[m + 1:])
    return None


def count_paths_into(d, level, vertex):
    counts = {(0, 0): 1}
    for n in range(level):
        for v in range(d.k(n + 1)):
            counts[(n + 1, v)] = sum(counts[(n, e.src)] for e in d.in_edges[(n + 1, v)])
    return counts[(level, vertex)]


def tables_from_b(d, b):
    """The (wmax, wmin) tables of the labeling ``b``, from the max/min recursion."""
    wmax, wmin = {(0, 0): 0}, {(0, 0): 0}
    for n in range(d.depth):
        for v in range(d.k(n + 1)):
            incoming = d.in_edges[(n + 1, v)]
            wmax[(n + 1, v)] = max(wmax[(n, e.src)] + b[e.id] for e in incoming)
            wmin[(n + 1, v)] = min(wmin[(n, e.src)] + b[e.id] for e in incoming)
    return wmax, wmin


def report_tables(report):
    """The (wmax, wmin) tables of a ``label`` report body, keyed (level, vertex)."""
    return tuple({tuple(map(int, key.split("/"))): int(x) for key, x in report[name].items()}
                 for name in ("wmax", "wmin"))


def left_fold(space, start, stop):
    """M_{stop-1} ... M_{start} as acc = M_n acc, one level at a time."""
    acc = space.matrices[start]
    for n in range(start + 1, stop):
        acc = mat_mul(space.matrices[n], acc)
    return acc


def paths_between(d, start, i, stop, j):
    """Edge tuples of the paths from vertex i of level ``start`` to vertex j of level ``stop``."""
    if stop == start:
        return [()] if i == j else []
    return [prefix + (e,) for e in d.in_edges[(stop, j)]
            for prefix in paths_between(d, start, i, stop - 1, e.src)]
