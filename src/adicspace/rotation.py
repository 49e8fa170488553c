"""Continued fractions with certified enclosures, and the rotation diagram.

The irrational angle is never entered as a float.  A :class:`CFExpansion`
holds finitely many positive partial quotients a(1), ..., a(D); the angle
alpha they determine (for any infinite continuation) lies strictly between
the depth-D convergent p(D)/q(D) and the mediant
(p(D)+p(D-1))/(q(D)+q(D-1)), which gives a certified rational enclosure of
width 1/(q(D)(q(D)+q(D-1))).  All derived quantities alpha(n) =
|q(n) alpha - p(n)| are intervals computed from that enclosure, and every
claimed strict inequality is checked on interval endpoints; operations
raise InsufficientDepth instead of silently widening a verdict.

The two-vertex rotation diagram carries the explicit labeling
b(e^n_{1,2}) = 0, b(e^n_{2,1}) = a(n+1) q(n), b(e^n_{1,1}(k)) = (k-1) q(n),
with the parallel edges ordered by k and the cross edge last.  They are the
running path counts of :func:`label_edges`: by induction N(v_1 at n) = q(n)
and N(v_2 at n) = q(n-1), since the root is v_1 with q(0) = 1, q(-1) = 0, and
a(n+1) q(n) + q(n-1) = q(n+1).  So :func:`rotation_diagram` returns the
diagram alone: :func:`build_matrices` labels it and reads each M_n off it,
with alpha(n)/alpha(n-1) on the loops and alpha(n+1)/alpha(n-1) on the
v_1 -> v_2 edge.  The rank-one approximant of M_n has 1/a(n+1) and 0
there instead, so it is M_n with P_n at (0, 0) and 0 at (1, 0): the column
(1, 0) times the row (P_n, M_n(0, 1)).  :func:`level_gap` is the
:func:`approximation_error` of M_n against it, the l1 error that ``at``
reports for the circulant products.
Level 0 is the n = 0 case of the same rule: the recurrences start at p(-1) = 1,
q(-1) = 0, so alpha(-1) = |q(-1) alpha - p(-1)| = 1 divides the level-0
probabilities alpha(0) and alpha(1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .atcheck import RankOneCandidate, approximation_error
from .bratteli import Edge, OrderedBratteliDiagram
from .dimspace import build_matrices
from .errors import SIZE_CAP, BadInput, InsufficientDepth, RangeError, check_budget, check_digits
from .intervals import RatInterval, exact_sum
from .laurent import LaurentMatrix, LaurentPoly, parse_rational


class CFExpansion:
    """Finite truncation a(1), .., a(D) of a continued fraction expansion."""

    def __init__(self, terms: Sequence[int]):
        terms = tuple(int(a) for a in terms)
        if not terms or any(a < 1 for a in terms):
            raise BadInput("continued fraction terms must be positive integers")
        self.terms = terms
        # p(-1) = 1, q(-1) = 0, p(0) = 0, q(0) = 1 head the recurrences.
        ps, qs = [1, 0], [0, 1]
        for n, a in enumerate(terms, start=1):
            ps.append(a * ps[-1] + ps[-2])
            qs.append(a * qs[-1] + qs[-2])
            # the denominator of alpha()'s mediant end: past TEXT_DIGITS no report can write it
            check_digits(f"q({n}) + q({n - 1})", qs[-1] + qs[-2])
        self._ps, self._qs = ps, qs

    @property
    def depth(self) -> int:
        return len(self.terms)

    def a(self, n: int) -> int:
        """Partial quotient a(n), 1-based."""
        if not (1 <= n <= self.depth):
            raise RangeError(f"a({n}) outside 1..{self.depth}")
        return self.terms[n - 1]

    def p(self, n: int) -> int:
        if not (-1 <= n <= self.depth):
            raise RangeError(f"p({n}) outside -1..{self.depth}")
        return self._ps[n + 1]

    def q(self, n: int) -> int:
        if not (-1 <= n <= self.depth):
            raise RangeError(f"q({n}) outside -1..{self.depth}")
        return self._qs[n + 1]

    def alpha(self) -> RatInterval:
        """Certified enclosure of the angle, valid for any infinite tail."""
        d = self.depth
        end1 = Fraction(self.p(d), self.q(d))
        end2 = Fraction(self.p(d) + self.p(d - 1), self.q(d) + self.q(d - 1))
        return RatInterval(min(end1, end2), max(end1, end2))


def alpha_n(cf: CFExpansion, n: int) -> RatInterval:
    """Enclosure of alpha(n) = |q(n) alpha - p(n)|.

    Requires n <= depth - 2 so the enclosure can be certified to lie
    strictly inside the open interval (1/(q(n)+q(n+1)), 1/q(n+1)).  As
    alpha(n) = 1/(q(n+1) + q(n)/r), r the complete quotient at n + 2, and
    alpha() lets r range over [a(depth), a(depth) + 1] at n = depth - 2,
    the bracket fails exactly there when a(depth) = 1: r = 1 puts alpha(n)
    on 1/(q(n)+q(n+1)), as cf 2,3,1 gives alpha(1) = [1/9, 1/8].
    """
    if n < 0:
        raise RangeError("alpha(n) needs n >= 0")
    if n > cf.depth - 2:
        raise InsufficientDepth(f"alpha({n}) needs two spare terms beyond {n}")
    enc = abs(cf.q(n) * cf.alpha() - cf.p(n))
    lo_bound = Fraction(1, cf.q(n) + cf.q(n + 1))
    hi_bound = Fraction(1, cf.q(n + 1))
    if not enc.strictly_inside(lo_bound, hi_bound):
        raise InsufficientDepth(f"alpha({n}) enclosure fails the strict bracket")
    return enc


@dataclass(frozen=True)
class GrowthRule:
    """Declared lower bound on the partial quotients, used for tail bounds.

    kind "linear":    a(n) >= c * n for all n.
    kind "geometric": a(n) >= c * g**n for all n, with g > 1.
    """

    kind: str
    c: Fraction
    g: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in ("linear", "geometric"):
            raise BadInput(f"unknown growth rule {self.kind!r}")
        # a(n) >= c n (or c g^n) says nothing when c <= 0, and the tail bounds divide by c^2
        if self.c <= 0:
            raise BadInput(f"growth rule needs c > 0, got c = {self.c}")
        # c g^n with g <= 1 does not grow, and the geometric tail bound divides by 1 - g^-2
        if self.kind == "geometric" and self.g <= 1:
            raise BadInput(f"geometric growth rule needs g > 1, got g = {self.g}")

    def holds_for(self, cf: CFExpansion) -> bool:
        if self.kind == "linear":
            return all(cf.a(n) >= self.c * n for n in range(1, cf.depth + 1))
        return all(cf.a(n) >= self.c * self.g ** n for n in range(1, cf.depth + 1))

    def tail_bound(self, start: int) -> Fraction:
        """Certified bound on the sum of 1/(a(n)a(n+1)) over n >= start."""
        if self.kind == "linear":
            # sum 1/(c^2 n (n+1)) over n >= start telescopes to 1/(c^2 start)
            return Fraction(1) / (self.c ** 2 * start)
        r = self.g ** -2
        return (self.c ** -2) * (self.g ** (-2 * start - 1)) / (1 - r)


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: Fraction
    verdict: str  # "CONVERGENT_CERTIFIED" | "INCONCLUSIVE"
    tail_bound: Optional[Fraction]


def summability_report(cf: CFExpansion, rule: Optional[GrowthRule] = None) -> SummabilityReport:
    """Partial sum of 1/(a(n)a(n+1)) plus a tail verdict.

    The verdict is CONVERGENT_CERTIFIED only when a declared growth rule
    both holds on the supplied terms and has a summable tail; otherwise the
    report is INCONCLUSIVE with the partial sum alone.
    """
    partial = exact_sum(Fraction(1, cf.a(n) * cf.a(n + 1)) for n in range(1, cf.depth))
    if rule is not None and rule.holds_for(cf):
        return SummabilityReport(partial, "CONVERGENT_CERTIFIED", rule.tail_bound(cf.depth))
    return SummabilityReport(partial, "INCONCLUSIVE", None)


# -- the rotation diagram ------------------------------------------------------


def rotation_diagram(cf: CFExpansion, depth: int) -> OrderedBratteliDiagram:
    """The two-vertex diagram of the rotation; its labeling is its own path-count ranking.

    Level n >= 1 has vertices (v_1, v_2); E_n consists of a(n+1) parallel
    edges v_1 -> v_1 (ordered by k), one edge v_2 -> v_1 (last in the
    order), and one edge v_1 -> v_2.  Probabilities are enclosures derived
    from the alpha(n); the v_2 -> v_1 edge has exact probability 1.  Level n
    reads alpha(n+1), then checks a(n+1): a refusal names the first that fails.
    """
    if depth < 1:
        raise BadInput("depth must be >= 1")
    levels, edges, orders = [["v0"]], [], {}
    alphas = [Fraction(1), alpha_n(cf, 0)]  # alphas[n + 1] = alpha(n)
    for n in range(depth):  # a depth past the cf is refused by alpha_n, before anything is built
        alphas.append(alpha_n(cf, n + 1))
        levels.append([f"v{n + 1}_1", f"v{n + 1}_2"])
        stay, out = alphas[n + 1] / alphas[n], alphas[n + 2] / alphas[n]
        into_v1 = [Edge(f"e{n}_11_{k + 1}", n, 0, 0, stay)
                   for k in range(check_budget(f"a({n + 1})", cf.a(n + 1), SIZE_CAP))]
        if n:  # the root has no v_2, so E_0 has no cross edge
            into_v1.append(Edge(f"e{n}_21", n, 1, 0, Fraction(1)))
        edges.append(into_v1 + [Edge(f"e{n}_12", n, 0, 1, out)])
        orders[n + 1, 0], orders[n + 1, 1] = [e.id for e in into_v1], [f"e{n}_12"]
    return OrderedBratteliDiagram(levels, edges, orders)


# -- rank-one structure --------------------------------------------------------


def rotation_matrix(cf: CFExpansion, n: int) -> LaurentMatrix:
    """M_n of the rotation diagram (2x1 for n = 0, else 2x2), enclosure-valued."""
    return build_matrices(rotation_diagram(cf, n + 1)).matrices[n]


def _rank_one_poly(cf: CFExpansion, n: int) -> LaurentPoly:
    """P_n = (1/a(n+1)) (1 + x^{q(n)} + ... + x^{(a(n+1)-1) q(n)})."""
    a, q = check_budget(f"a({n + 1})", cf.a(n + 1), SIZE_CAP), cf.q(n)
    return LaurentPoly._from_ints(dict.fromkeys(range(0, a * q, q), 1), a)


def rank_one_polys(cf: CFExpansion, count: int, rule: Optional[GrowthRule] = None) -> List[LaurentPoly]:
    """P_n for n < count, the (0, 0) entry of the rank-one approximant of M_n."""
    if count > cf.depth:
        raise InsufficientDepth(f"need {count} terms, have {cf.depth}")
    report = summability_report(cf, rule)
    if report.verdict != "CONVERGENT_CERTIFIED":
        warnings.warn("summability not certified; the rank-one identification is heuristic",
                      stacklevel=2)
    return [_rank_one_poly(cf, n) for n in range(count)]


@dataclass(frozen=True)
class GapReport:
    """The l1 distance between M_n and its displayed rank-one approximant."""

    n: int
    gap: RatInterval                 # exact enclosure of the full l1 gap
    tail_bound: Optional[Fraction]   # 2/(a(n+1) a(n+2)) when available


def level_gap(cf: CFExpansion, n: int, m: LaurentMatrix) -> GapReport:
    """The l1 error of m = M_n, n >= 1, against the column-row product approximant.

    The approximant differs from M_n only in entry (0, 0), P_n, and the corner
    (1, 0), 0 in place of alpha(n+1)/alpha(n-1); the two entries are equally
    far off, so the gap equals 2 alpha(n+1)/alpha(n-1) exactly (up to enclosure
    width).
    """
    if n < 1:
        raise RangeError("a rank-one gap needs n >= 1")
    cand = RankOneCandidate(column=(LaurentPoly.one(), LaurentPoly.zero()),
                            row=(_rank_one_poly(cf, n), m.entries[0][1]))
    tail = Fraction(2, cf.a(n + 1) * cf.a(n + 2)) if n + 2 <= cf.depth else None
    return GapReport(n=n, gap=RatInterval.coerce(approximation_error(m, cand)), tail_bound=tail)


def rank_one_gap(cf: CFExpansion, n: int) -> GapReport:
    """:func:`level_gap` of M_n, read off a rotation diagram of depth n + 1."""
    return level_gap(cf, n, rotation_matrix(cf, n))


def parse_rule(text: str) -> GrowthRule:
    """Parse CLI rule syntax: "linear:c=1" or "geometric:c=1,g=2"."""
    try:
        kind, _, params = text.partition(":")
        kv = dict(item.split("=") for item in params.split(",")) if params else {}
        c = parse_rational(kv.get("c", "1"))
        g = parse_rational(kv.get("g", "2"))
        return GrowthRule(kind=kind, c=c, g=g)
    except (ValueError, TypeError) as exc:
        raise BadInput(f"cannot parse growth rule {text!r}") from exc
