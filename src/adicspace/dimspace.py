"""Dimension-space matrices synthesized from an ordered diagram with its measure.

M_n is the k(n+1) x k(n) Laurent matrix whose (i, j) entry collects
p(e) x^{b(e)} over the edges from vertex j of V_n to vertex i of V_{n+1},
where b is the diagram's own labeling (:func:`~adicspace.labeling.label_edges`).
Labels strictly increase along a fiber, so each edge is one term of its
entry.  Columns are stochastic at x = 1.  The direct limit along the M_n is
never materialized; what is computed is the matrix sequence, partial
products, states against harmonic row vectors, and norms at a finite horizon
(the norm of a pushed-forward vector is nonincreasing in the horizon, so any
finite horizon certifies an upper bound).

A partial product is a product tree: the product of its upper and lower
halves, split at the level midpoint.  Entry (j, i) of M_{b-1} ... M_a has
one term per path from i to j (distinct paths from a common prefix have
distinct b-sums), so no two term products ever add, and each coefficient
is the product of its path's edge probabilities in any grouping: the tree's
bytes are those of a one-level-at-a-time fold, which builds and drops every
intermediate product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .bratteli import OrderedBratteliDiagram
from .errors import DEFAULT_BUDGET, DimensionMismatch, RangeError, check_budget
from .intervals import RatInterval, exact_sum
from .labeling import label_edges
from .laurent import LaurentMatrix, LaurentPoly, mat_mul


@dataclass(frozen=True)
class DimensionSpace:
    matrices: Tuple[LaurentMatrix, ...]
    dims: Tuple[int, ...]  # dims[n] = k(n); len(dims) = len(matrices) + 1

    @property
    def depth(self) -> int:
        return len(self.matrices)


def build_matrices(d: OrderedBratteliDiagram) -> DimensionSpace:
    """The M_n of the labeled diagram; all entries with no edge share one zero polynomial."""
    labels, zero, mats = label_edges(d), LaurentPoly.zero(), []
    for n in range(d.depth):
        terms = {}  # (dst, src) -> exponent -> coefficient, for the pairs with an edge
        for e in d.edges[n]:
            terms.setdefault((e.dst, e.src), {})[labels[e.id]] = e.p
        mats.append(LaurentMatrix([[LaurentPoly(terms[i, j]) if (i, j) in terms else zero
                                    for j in range(d.k(n))] for i in range(d.k(n + 1))]))
    return DimensionSpace(matrices=tuple(mats), dims=tuple(d.k(n) for n in range(d.depth + 1)))


def _extent(p: LaurentPoly) -> tuple:
    """(terms, least exponent, greatest exponent) of p, or () for zero."""
    exps = p.support()
    return exps and (len(exps), exps[0], exps[-1])


def _sum_extent(pairs) -> tuple:
    """Bounds the extent of sum_v a_v f_v from the pairs of nonzero extents (a_v, f_v)."""
    if not pairs:
        return ()
    lo, hi = min(a[1] + f[1] for a, f in pairs), max(a[2] + f[2] for a, f in pairs)
    return min(sum(a[0] * f[0] for a, f in pairs), hi - lo + 1), lo, hi


def _term_bound(space: DimensionSpace, columns: Sequence[Sequence[LaurentPoly]],
                n: int, m: int) -> int:
    """Bounds the terms of M_{m-1} ... M_n applied to each column, before any product is made.

    A term of entry w picks a term of some f_v and one of each entry on a path
    from v (the path count, for a one-term column), and entry w has at most one
    term per exponent in its range (which caps many-term columns that merge).
    """
    cols = [[_extent(p) for p in f] for f in columns]
    for lvl in range(n, m):
        mat = [[_extent(e) for e in row] for row in space.matrices[lvl].entries]
        cols = [[_sum_extent([(a, f) for a, f in zip(row, col) if a and f]) for row in mat]
                for col in cols]
    return sum(x[0] for col in cols for x in col if x)


def partial_product(space: DimensionSpace, start: int, stop: int,
                    budget: int = DEFAULT_BUDGET) -> LaurentMatrix:
    """M_{stop-1} ... M_{start}, exact; requires start < stop <= depth; sized before it is built.

    It is made by :func:`_product_tree`, whose recursion is log2(stop - start)
    deep.  A half-product has at most as many terms as the result: every
    vertex has a path into it and a path out of it, so each path of a half
    extends to at least one path of the whole.
    """
    if not (0 <= start < stop <= space.depth):
        raise RangeError(f"need 0 <= {start} < {stop} <= {space.depth}")
    # column v is e_v pushed forward, and the identity's rows are its columns
    check_budget(f"the terms of M_{stop - 1} ... M_{start}",
                 _term_bound(space, LaurentMatrix.identity(space.dims[start]).entries,
                             start, stop), budget)
    return _product_tree(space.matrices, start, stop)


def _product_tree(mats: Sequence[LaurentMatrix], start: int, stop: int) -> LaurentMatrix:
    """M_{stop-1} ... M_{start} as the product of its upper and lower halves."""
    if stop - start == 1:
        return mats[start]
    mid = (start + stop) // 2
    return mat_mul(_product_tree(mats, mid, stop), _product_tree(mats, start, mid))


@dataclass(frozen=True)
class HarmonicReport:
    residuals: Tuple[Tuple[object, ...], ...]  # per level, per coordinate
    ok: bool


def check_harmonic(space: DimensionSpace, mus: Sequence[Sequence]) -> HarmonicReport:
    """Residuals mu_{n+1} M_n(1) - mu_n; pass iff all are (or enclose) zero."""
    if len(mus) != space.depth + 1:
        raise DimensionMismatch("need one row vector per level")
    for n, mu in enumerate(mus):
        if len(mu) != space.dims[n]:
            raise DimensionMismatch(f"mu_{n} has length {len(mu)}, expected {space.dims[n]}")
    residuals = []
    ok = True
    for n, m in enumerate(space.matrices):
        ones = m.eval_at_one()
        nxt = mus[n + 1]
        row = []
        for j in range(m.cols):
            res = exact_sum(nxt[i] * ones[i][j] for i in range(m.rows)) - mus[n][j]
            row.append(res)
            ok = ok and RatInterval.coerce(res).contains(0)
        residuals.append(tuple(row))
    return HarmonicReport(residuals=tuple(residuals), ok=ok)


def state_eval(f: Sequence[LaurentPoly], mu: Sequence) -> object:
    """The bounded state: sum over coordinates of mu_i times the coefficient sum."""
    if len(f) != len(mu):
        raise DimensionMismatch(f"vector length {len(f)} != state length {len(mu)}")
    return exact_sum(mi * fi.eval_at_one() for fi, mi in zip(f, mu))


def push_forward(space: DimensionSpace, f: Sequence[LaurentPoly], n: int, m: int,
                 budget: int = DEFAULT_BUDGET) -> List[LaurentPoly]:
    """M_{m-1} ... M_n f, the level-m representative of [f, n]; sized before it is built."""
    if not (0 <= n <= m <= space.depth):
        raise RangeError(f"need 0 <= {n} <= {m} <= {space.depth}")
    if len(f) != space.dims[n]:
        raise DimensionMismatch(f"vector length {len(f)} != k({n}) = {space.dims[n]}")
    check_budget(f"the terms pushed from level {n} to level {m}",
                 _term_bound(space, [f], n, m), budget)
    vec = list(f)
    for lvl in range(n, m):
        vec = space.matrices[lvl].mul_vector(vec)
    return vec


def horizon_norm(space: DimensionSpace, f: Sequence[LaurentPoly], n: int, m: int,
                 budget: int = DEFAULT_BUDGET) -> object:
    """One-norm of the pushed-forward vector at level m, all-ones weights.

    For vectors with nonnegative coefficients this is independent of m; in
    general it is nonincreasing in m, so the value at any finite horizon is
    an upper bound certificate for the limit norm.
    """
    vec = push_forward(space, f, n, m, budget)
    return exact_sum(fi.one_norm() for fi in vec)

