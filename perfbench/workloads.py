"""Workload definitions: the report lists, why each was chosen, the sizes
to stay away from, the seeded inputs, and the independent-route oracles.

A report is one ``adicspace.cli.main(argv)`` call.  Fixed-input reports
are checked against ``goldens.json`` (exit code, error code, sha256 of
stdout).  Seeded reports cannot carry a precommitted hash of all their
stdout; each has an oracle that checks its output through a route that does
not share the code being timed, and every later pass must repeat the first
pass's bytes.  Where part of a seeded report does not depend on the seed
(the ``exact`` block of a walk, the tower of ``stack --map``), the golden
holds the sha256 of that part.

Sizes were measured on Python 3.11.7, 2 vCPU.  Do not grow a workload into
the sizes listed in ``OUT_OF_RANGE``: they take minutes, not seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

CF_STACK = ",".join(str(a) for a in range(2, 14))      # 2, 3, ..., 13
CF_ROTATION = ",".join(str(a) for a in range(2, 42))   # 2, 3, ..., 41
CF_ROTATION_TINY = ",".join(str(a) for a in range(2, 12))
TV_BOUND = Fraction(1, 50)  # acceptance criterion 7
MAX_VERTICES = 3   # per level of a random diagram
MAX_PATHS = 3000   # into any vertex; keeps the path-enumeration oracle cheap

OUT_OF_RANGE = [
    "at --M 2 --N 2 --explicit: 13-14 s per report",
    "at --k 3 --M 1 --N 3 --greedy 1: did not finish in 5 min; the descent is "
    "quadratic in the support size",
    "interval-mode partial_product on rotation_diagram: grows as the product of "
    "the partial quotients (golden-ratio cf: depth 25 took 14.5 s, depth 29 took 98 s); "
    "no CLI subcommand reaches it",
    "at --k 4 --M 3 --N 2 and above: refused by the 2^20 monomial budget; keep it "
    "only as the expected refusal",
]

# layer -> (metrics, workloads whose wall_ref/cpu_ref (and raw wall_s/cpu_s) it should
# move, workloads it should not move)
PREDICTIONS = {
    "cli": (["cli.self_s", "cli.report_bytes"], ["products", "towers"], ["walk", "circulant"]),
    "bratteli": (["bratteli.preset.self_s", "bratteli.validate_diagram.self_s",
                  "bratteli.enumerate_paths.self_s", "bratteli.paths", "bratteli.successor.calls"],
                 ["products (marginal; path functions run only in the oracle)"], ["walk", "circulant", "towers"]),
    "labeling": (["labeling.label_edges.self_s", "labeling.label_edges.calls"],
                 ["products (marginal)"], ["towers", "circulant"]),
    "laurent": (["laurent.mul.self_s", "laurent.mul.calls", "laurent.add.self_s",
                 "laurent.scale.self_s", "laurent.shift.self_s", "laurent.eval_at_one.self_s",
                 "laurent.one_norm.self_s", "laurent.mat_mul.self_s", "laurent.to_json.self_s",
                 "laurent.terms_out", "laurent.max_den_bits"],
                ["products (primary; also peak_rss_mb)", "circulant"], ["walk", "towers"]),
    "dimspace": (["dimspace.build_matrices.self_s", "dimspace.partial_product.self_s",
                  "dimspace.product_terms"], ["products"], ["circulant", "towers"]),
    "walk": (["walk.simulate.self_s", "walk.samples", "walk.samples_per_s",
              "walk.exact_distribution.self_s", "walk.tv_distance.self_s"],
             ["walk"], ["products", "circulant", "towers"]),
    "atcheck": (["atcheck.circulant_classes.self_s", "atcheck.monomials", "atcheck.budget_used",
                 "atcheck.f_polys.calls", "atcheck.f_polys.self_s",
                 "atcheck.approximation_error.self_s", "atcheck.greedy_rank_one.self_s",
                 "atcheck.refused"],
                ["circulant (also peak_rss_mb)"], ["products", "walk", "towers"]),
    "rotation": (["rotation.alpha_n.calls", "rotation.rank_one_gap.self_s",
                  "rotation.rotation_matrix.self_s"], ["towers (small)"],
                 ["products", "walk", "circulant"]),
    "stacking": (["stacking.build_tower.self_s", "stacking.levels",
                  "stacking.compare_with_rotation.self_s", "stacking.grid_points_per_s"],
                 ["towers"], ["products", "walk", "circulant"]),
    "intervals": (["intervals.new.calls"], ["towers"], ["products", "walk"]),
}


@dataclass
class Report:
    """One CLI call and what its outcome must be.

    A fixed-input report carries the sha256 of its stdout from goldens.json.
    A seeded report carries an ``oracle``: it gets the stdout of every report
    of the pass, by name, and returns an error string or None.
    """

    name: str
    argv: list
    exit: int = 0
    error: Optional[str] = None
    sha256: Optional[str] = None
    oracle: Optional[Callable[[dict], Optional[str]]] = None
    # For a seeded report: hashes the part of stdout that does not depend on
    # the seed; ``sha256`` is then the golden of that hash.
    seed_free: Optional[Callable[[bytes], str]] = None


@dataclass
class Workload:
    name: str
    why: str
    reports: list = field(default_factory=list)


# -- products: random diagrams and the path-measure oracle ---------------------


def random_diagram_spec(rng: random.Random, depth: int) -> dict:
    """A random ordered diagram in the JSON interchange format.

    Edge probabilities are arbitrary rationals (weights 1..7 normalized per
    source), so denominators are not powers of two.  Resamples until no
    vertex has more than ``MAX_PATHS`` paths into it.
    """
    while True:
        sizes = [1] + [rng.randint(1, MAX_VERTICES) for _ in range(depth)]
        levels = [[f"v{n}_{i}" for i in range(k)] for n, k in enumerate(sizes)]
        edges, orders, counts = [], {}, [1]
        ident = 0
        for n in range(depth):
            pairs = []
            for dst in range(sizes[n + 1]):
                pairs.extend((rng.randrange(sizes[n]), dst) for _ in range(rng.randint(1, 2)))
            for src in range(sizes[n]):
                if all(s != src for s, _ in pairs):
                    pairs.append((src, rng.randrange(sizes[n + 1])))
            level = []
            for src in range(sizes[n]):
                out = [(s, d) for s, d in sorted(pairs) if s == src]
                weights = [rng.randint(1, 7) for _ in out]
                for (s, d), w in zip(out, weights):
                    level.append({"id": f"e{ident}", "src": s, "dst": d,
                                  "p": str(Fraction(w, sum(weights)))})
                    ident += 1
            edges.append(level)
            next_counts = []
            for dst in range(sizes[n + 1]):
                fiber = [e for e in level if e["dst"] == dst]
                ids = [e["id"] for e in fiber]
                rng.shuffle(ids)
                orders[f"{n + 1}/{dst}"] = ids
                next_counts.append(sum(counts[e["src"]] for e in fiber))
            counts = next_counts
        if max(counts) <= MAX_PATHS:
            return {"levels": levels, "edges": edges, "orders": orders}


def path_measure_oracle(bratteli, d, label_out: bytes, product_out: bytes) -> Optional[str]:
    """The paper's central identity, through path enumeration.

    Entry (j, 0) of partial_product(0, n) must equal the sum over the paths
    into vertex j of cylinder_measure(path) * x**bsum(path), where the
    labels b come from the ``label`` report.  Also checks that the b-sums of
    the paths into j, in adic order, are 0, 1, ..., N_j - 1 and that the
    successor walks that same order.
    """
    b = {eid: int(v) for eid, v in json.loads(label_out)["b"].items()}
    product = json.loads(product_out)["product"]
    lo, hi = product["range"]
    if (lo, hi) != (0, d.depth):
        return f"product range {lo}..{hi} is not 0..{d.depth}"
    matrix = product["matrix"]
    if len(matrix) != d.k(d.depth):
        return "product has the wrong number of rows"
    for j, row in enumerate(matrix):
        paths = bratteli.enumerate_paths(d, d.depth - 1, j)
        expected = {}
        for i, p in enumerate(paths):
            bsum = sum(b[e.id] for e in p.edges)
            if bsum != i:
                return f"vertex {j}: path {i} in adic order has b-sum {bsum}"
            expected[bsum] = expected.get(bsum, Fraction(0)) + bratteli.cylinder_measure(d, p)
            nxt = bratteli.successor(d, p)
            if nxt != (paths[i + 1] if i + 1 < len(paths) else None):
                return f"vertex {j}: successor of path {i} breaks the adic order"
        got = {int(e): Fraction(c) for e, c in row[0].items()}
        if got != expected:
            return f"vertex {j}: product entry differs from the path-measure sum"
    return None


# -- walk: a recomputed TV distance -------------------------------------------


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def exact_block_sha256(out: bytes) -> str:
    """Hash of the seed-independent ``exact`` block of a walk report."""
    return _sha256_json(json.loads(out)["exact"])


def walk_oracle(name: str, trials: int):
    def check(outs: dict) -> Optional[str]:
        rep = json.loads(outs[name])
        emp = rep["empirical"]
        if emp["trials"] != trials:
            return "empirical trial count differs from --trials"
        exact = {(j, d): Fraction(c) for j, row in rep["exact"]["masses"].items()
                 for d, c in row.items()}
        counts = {(j, d): int(c) for j, row in emp["masses"].items() for d, c in row.items()}
        if sum(counts.values()) != trials:
            return "empirical counts do not sum to the trial count"
        keys = set(exact) | set(counts)
        tv = sum(abs(exact.get(k, Fraction(0)) - Fraction(counts.get(k, 0), trials))
                 for k in keys) / 2
        if Fraction(rep["tv_distance"]) != tv:
            return "reported tv_distance differs from the recomputed one"
        if not tv < TV_BOUND:
            return f"TV {float(tv):.4f} is not below {TV_BOUND}"
        return None
    return check


# -- towers: the seeded map point against the report's own intervals ----------


def tower_body_sha256(out: bytes) -> str:
    """Hash of a ``stack --map`` report without its seed-dependent ``map`` block."""
    rep = json.loads(out)
    del rep["map"]
    return _sha256_json(rep)


def tower_map_oracle(name: str, x: Fraction):
    def check(outs: dict) -> Optional[str]:
        rep = json.loads(outs[name])
        intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in rep["intervals"]]
        hits = [i for i, (lo, hi) in enumerate(intervals) if lo <= x < hi]
        if len(hits) != 1 or hits[0] == len(intervals) - 1:
            return f"{x} is not on exactly one non-top level"
        i = hits[0]
        if Fraction(rep["map"]["x"]) != x:
            return "map.x differs from the input point"
        if Fraction(rep["map"]["Tx"]) != x + intervals[i + 1][0] - intervals[i][0]:
            return "map.Tx is not x translated one level up"
        return None
    return check


def seeded_map_point(adicspace, rng: random.Random, cf: str, stage: int) -> Fraction:
    """A rational point of the stage tower that is not on its top level."""
    tower = adicspace.stacking.build_tower(adicspace.rotation.CFExpansion(
        [int(a) for a in cf.split(",")]), stage)
    top_lo, top_hi = tower.intervals[-1]
    while True:
        x = Fraction(rng.randrange(10 ** 6), rng.randrange(1, 10 ** 6)) % tower.total_space
        if not top_lo <= x < top_hi:
            return x


# -- the workloads --------------------------------------------------------------

WHY = {
    "products": "Fraction Laurent products (dyadic presets beside random non-dyadic diagrams) "
                "and an 8 MB JSON report: laurent mul/mat_mul, partial_product, CLI serialization",
    "walk": "Monte-Carlo walk sampler at 1e5 trials on three families: walk.simulate is ~99% "
            "of this pass and 0% of every other one",
    "circulant": "circulant classes at the 2^20 budget, explicit and greedy rank-one checks, "
                 "and a budget refusal: the only workload that runs atcheck",
    "towers": "RatInterval arithmetic, cutting-and-stacking and the rotation reports: the only "
              "workload that runs stacking, rotation and intervals",
}


def build(adicspace, name: str, seed: int, workdir: Path, goldens: dict,
          tiny: bool = False) -> Workload:
    """The report list of one workload; seeded inputs are written to workdir.

    ``goldens`` maps a report's name to its recorded outcome; pass an empty
    dict only to record them.  A golden whose argv differs from the report's
    is an error, so a workload cannot drift from its hashes.  A seeded report
    with a golden has the seeded value as its last argument, recorded as
    "SEED".
    """
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, WHY[name])

    def fixed(tag, argv, seed_free=None, oracle=None):
        rep = Report(tag, argv, oracle=oracle, seed_free=seed_free)
        if goldens:
            g = goldens[tag]
            if g["argv"] != (argv[:-1] + ["SEED"] if seed_free else argv):
                raise ValueError(f"golden {tag!r} was recorded for another argv")
            rep.exit, rep.error, rep.sha256 = g["exit"], g["error"], g["sha256"]
        w.reports.append(rep)

    if name == "products":
        presets = ([("odometer", 6), ("morse", 5), ("circulant:4", 5)] if tiny
                   else [("odometer", 18), ("morse", 16), ("circulant:4", 16)])
        for preset, depth in presets:
            fixed(f"matrices-{preset.replace(':', '')}-{depth}",
                  ["matrices", "--preset", preset, "--depth", str(depth), "--product", f"0..{depth}"])
        depth = 5 if tiny else 10
        for k in range(1 if tiny else 4):
            spec = random_diagram_spec(rng, depth)
            path = workdir / f"diagram{k}.json"
            path.write_text(json.dumps(spec, sort_keys=True))
            d = adicspace.bratteli.validate_diagram(spec)
            label, product = f"label-random{k}", f"matrices-random{k}"

            def oracle(outs, d=d, label=label, product=product):
                return path_measure_oracle(adicspace.bratteli, d, outs[label], outs[product])

            w.reports.append(Report(label, ["label", str(path)], oracle=oracle))
            w.reports.append(Report(product, ["matrices", str(path), "--product", f"0..{depth}"],
                                    oracle=oracle))
    elif name == "walk":
        trials = 20000 if tiny else 100000
        walk_seed = str(rng.randrange(1 << 31))
        cases = ([("odometer", 3), ("morse", 3), ("circulant:4", 3)] if tiny
                 else [("odometer", 6), ("morse", 6), ("circulant:4", 5)])
        for preset, depth in cases:
            tag = f"walk-{preset.replace(':', '')}-{depth}"
            fixed(tag, ["walk", "--preset", preset, "--depth", str(depth), "--exact",
                        "--trials", str(trials), "--seed", walk_seed],
                  seed_free=exact_block_sha256, oracle=walk_oracle(tag, trials))
    elif name == "circulant":
        cases = ([("1", "1", []), ("1", "1", ["--explicit", "--greedy", "1"]), ("3", "2", [])]
                 if tiny else
                 [("2", "2", []), ("1", "1", ["--explicit", "--greedy", "3"]),
                  ("1", "3", ["--explicit"]), ("3", "2", [])])
        for m, n, extra in cases:
            fixed("-".join(["at", m, n] + [x.lstrip("-") for x in extra]),
                  ["at", "--k", "4", "--M", m, "--N", n] + extra)
    elif name == "towers":
        stage, grid, cf_rot = (4, 1000, CF_ROTATION_TINY) if tiny else (7, 100000, CF_ROTATION)
        fixed(f"stack-{stage}-compare", ["stack", "--cf", CF_STACK, "--stage", str(stage),
                                         "--compare", "--grid", str(grid)])
        fixed(f"rotation-{len(cf_rot.split(','))}",
              ["rotation", "--cf", cf_rot, "--rule", "linear:c=1", "--matrices", "--polys", "--gaps"])
        map_stage = stage - 1
        x = seeded_map_point(adicspace, rng, CF_STACK, map_stage)
        tag = f"stack-{map_stage}-map"
        fixed(tag, ["stack", "--cf", CF_STACK, "--stage", str(map_stage), "--map", str(x)],
              seed_free=tower_body_sha256, oracle=tower_map_oracle(tag, x))
    else:
        raise KeyError(name)
    return w


NAMES = tuple(WHY)
