import os
import random
from fractions import Fraction
from pathlib import Path

from adicspace.bratteli import Edge, OrderedBratteliDiagram

# Child interpreters (``python -m adicspace.cli``) import this checkout too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


def random_diagram(rng: random.Random, depth: int = 5, max_vertices: int = 4,
                   max_parallel: int = 3, max_paths: int = 20000) -> OrderedBratteliDiagram:
    """A random diagram within the stated size family.

    Every vertex keeps nonempty fibers on both sides; per source/target pair
    at most ``max_parallel`` parallel edges; probabilities are random exact
    rationals normalized per source.  Resamples when the path count into
    some vertex would exceed ``max_paths`` (enumeration stays tractable).
    """
    while True:
        sizes = [1] + [rng.randint(1, max_vertices) for _ in range(depth)]
        levels = [[f"v{n}_{i}" for i in range(k)] for n, k in enumerate(sizes)]
        all_edges, orders = [], {}
        eid = 0
        ok = True
        counts = {(0, 0): 1}
        for n in range(depth):
            kn, kn1 = sizes[n], sizes[n + 1]
            multiplicity = {}
            for v in range(kn1):
                for _ in range(rng.randint(1, 2)):
                    src = rng.randrange(kn)
                    multiplicity[(src, v)] = min(max_parallel, multiplicity.get((src, v), 0) + 1)
            for src in range(kn):
                if not any(s == src for s, _ in multiplicity):
                    multiplicity[(src, rng.randrange(kn1))] = 1
            if rng.random() < 0.5:
                src, v = rng.randrange(kn), rng.randrange(kn1)
                multiplicity[(src, v)] = min(max_parallel, multiplicity.get((src, v), 0) + 1)
            level_edges = []
            for (src, dst), mult in sorted(multiplicity.items()):
                for _ in range(mult):
                    level_edges.append((eid, src, dst))
                    eid += 1
            by_src = {}
            for e in level_edges:
                by_src.setdefault(e[1], []).append(e)
            parsed = []
            for src, group in sorted(by_src.items()):
                weights = [rng.randint(1, 5) for _ in group]
                total = sum(weights)
                for (ident, s, dst), w in zip(group, weights):
                    parsed.append(Edge(f"e{ident}", n, s, dst, Fraction(w, total)))
            all_edges.append(parsed)
            for v in range(kn1):
                fiber = [e.id for e in parsed if e.dst == v]
                rng.shuffle(fiber)
                orders[(n + 1, v)] = fiber
                counts[(n + 1, v)] = sum(
                    counts[(n, e.src)] for e in parsed if e.dst == v
                )
                if counts[(n + 1, v)] > max_paths:
                    ok = False
            if not ok:
                break
        if ok:
            return OrderedBratteliDiagram(levels, all_edges, orders)
