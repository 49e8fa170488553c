"""Spans around the program's public functions, installed from the outside.

Each traced function is replaced, at every module attribute it is bound
under (``dimspace.mat_mul`` and ``laurent.mat_mul`` are one function bound
twice), by a wrapper that records a span (name, start, end, parent).  Class
methods are replaced on the class.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _den_bits(poly) -> int:
    bits = 0
    for c in poly._terms.values():
        for q in ((c.lo, c.hi) if hasattr(c, "lo") else (c,)):
            bits = max(bits, q.denominator.bit_length())
    return bits


def _samples(args, kwargs, result):
    """Trials times steps; the CLI passes (space, level, trials, seed) and no start."""
    _, n, trials = args[:3]
    return trials * n


# (module, function, span name, counters); a counter maps (args, kwargs,
# result) to the amount it adds to its key.  Only functions whose self time
# is a per-layer metric get a span; the time of any other function stays with
# the span that calls it, or with cli.main's self time.
FUNCTIONS = [
    ("bratteli", "odometer_diagram", "bratteli.preset", {}),
    ("bratteli", "morse_diagram", "bratteli.preset", {}),
    ("bratteli", "circulant_diagram", "bratteli.preset", {}),
    ("bratteli", "validate_diagram", "bratteli.validate_diagram", {}),
    ("bratteli", "enumerate_paths", "bratteli.enumerate_paths",
     {"bratteli.paths": lambda a, k, r: len(r)}),
    ("labeling", "label_edges", "labeling.label_edges", {}),
    ("laurent", "mat_mul", "laurent.mat_mul", {}),
    ("dimspace", "build_matrices", "dimspace.build_matrices", {}),
    ("dimspace", "partial_product", "dimspace.partial_product",
     {"dimspace.product_terms": lambda a, k, r: sum(e.num_terms() for row in r.entries for e in row)}),
    ("walk", "exact_distribution", "walk.exact_distribution", {}),
    ("walk", "simulate", "walk.simulate", {"walk.samples": _samples}),
    ("walk", "tv_distance", "walk.tv_distance", {}),
    ("atcheck", "circulant_classes", "atcheck.circulant_classes",
     {"atcheck.monomials": lambda a, k, r: sum(p.num_terms() for p in r)}),
    ("atcheck", "f_polys", "atcheck.f_polys", {}),
    ("atcheck", "approximation_error", "atcheck.approximation_error", {}),
    ("atcheck", "greedy_rank_one", "atcheck.greedy_rank_one", {}),
    ("rotation", "rank_one_gap", "rotation.rank_one_gap", {}),
    ("rotation", "rotation_matrix", "rotation.rotation_matrix", {}),
    ("stacking", "build_tower", "stacking.build_tower",
     {"stacking.levels": lambda a, k, r: r.height}),
    ("stacking", "compare_with_rotation", "stacking.compare_with_rotation",
     {"stacking.grid_points": lambda a, k, r: r.grid}),
]

METHODS = [
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul",
     {"laurent.terms_out": lambda a, k, r: r.num_terms() if r is not NotImplemented else 0}),
    ("laurent", "LaurentPoly", "__add__", "laurent.add", {}),
    ("laurent", "LaurentPoly", "scale", "laurent.scale", {}),
    ("laurent", "LaurentPoly", "shift", "laurent.shift", {}),
    ("laurent", "LaurentPoly", "to_json", "laurent.to_json", {}),
    ("laurent", "LaurentPoly", "eval_at_one", "laurent.eval_at_one", {}),
    ("laurent", "LaurentPoly", "one_norm", "laurent.one_norm", {}),
]

# Calls counted without a span: their self time is no metric, and they are
# small and called often, so a span would cost more than the work it measures.
COUNTED = [
    ("bratteli", None, "successor", "bratteli.successor.calls"),
    ("rotation", None, "alpha_n", "rotation.alpha_n.calls"),
    ("intervals", "RatInterval", "__init__", "intervals.new.calls"),
]

def _budget_used(args, kwargs, result):
    k, m, n = args[:3]
    budget = args[3] if len(args) > 3 else kwargs.get("budget", 1 << 20)
    return k * (1 << ((4 * m + 1) * n)) / budget


# span name -> {key: fn(args, kwargs, result)}; the key keeps the largest
# value seen.  These walk whole polynomials, so they run inside a
# "trace.count" span of their own and do not inflate the parent's self time.
MAXIMA = {
    "laurent.mat_mul": {"laurent.max_den_bits":
                        lambda a, k, r: max(_den_bits(e) for row in r.entries for e in row)},
    "atcheck.circulant_classes": {"laurent.max_den_bits": lambda a, k, r: max(_den_bits(p) for p in r),
                                  "atcheck.budget_used": _budget_used},
}


PACKAGE = "adicspace"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self._undo = []

    # -- recording --------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span and return its result."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counters):
        tracer = self
        maxima = MAXIMA.get(name, {})

        def update_maxima(args, kwargs, result):
            for key, measure in maxima.items():
                tracer.maxima[key] = max(tracer.maxima[key], measure(args, kwargs, result))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            for key, count in counters.items():
                tracer.counts[key] += count(args, kwargs, result)
            if maxima:
                tracer.span("trace.count", update_maxima, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing -------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        pkg = sys.modules[PACKAGE]
        for mod, fn_name, span_name, counters in FUNCTIONS:
            fn = getattr(getattr(pkg, mod), fn_name)
            self._replace_everywhere(fn, self._wrap(span_name, fn, counters))
        for mod, cls_name, meth, span_name, counters in METHODS:
            cls = getattr(getattr(pkg, mod), cls_name)
            self._undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, self._wrap(span_name, cls.__dict__[meth], counters))
        for mod, cls_name, attr, key in COUNTED:
            if cls_name is None:
                fn = getattr(getattr(pkg, mod), attr)
                self._replace_everywhere(fn, self._counted(key, fn))
            else:
                cls = getattr(getattr(pkg, mod), cls_name)
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self._counted(key, cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> dict:
        """Summed self time per span name over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        out = defaultdict(float)
        for rec, c in zip(spans, child):
            out[rec[0]] += (rec[2] - rec[1]) - c
        return dict(out)

    def nesting_error(self, root: int) -> float:
        """For the tree under ``root``: how far the self times miss the root's
        duration, plus how far any child sticks out of its parent (seconds)."""
        end = root + 1
        while end < len(self.spans) and self.spans[end][3] >= root:
            end += 1
        total = sum(self.self_times(root, end).values())
        name, start, stop, _ = self.spans[root]
        err = abs(total - (stop - start))
        for rec in self.spans[root + 1:end]:
            p = self.spans[rec[3]]
            err += max(0.0, p[1] - rec[1]) + max(0.0, rec[2] - p[2])
        return err
