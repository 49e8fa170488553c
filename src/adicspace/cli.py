"""Command-line frontend.

Every subcommand reads JSON (or a bundled preset), computes exactly, and
prints one JSON report (to stdout or --out FILE) with the tool version, the
input's sha256 and no timestamps.  A diagram report uses its first --depth N
levels: a preset is built at N (default 8), a file is validated and cut to
its first N (default all).  `matrices`, `walk` and `at` size their builds
against --budget B (default 2**20); reports depend only on argv and files.
`at` reads its column masses at x = 1 and builds the circulant product only
for --explicit or --greedy.
A report is computed and checked in full, then written in chunks: the bytes of
json.dumps with sorted keys and a two-space indent, and a newline.  Every
LaurentPoly of a report, a walk law's masses too, is put in the body as itself;
only its text is made while it is written, after its coefficients are checked,
and a polynomial whose terms share one coefficient is written as one join of
its key strings per run.  A `stack` report puts its tower there as itself too:
its levels are written in runs, from one text per slot boundary.
Module errors exit 1 with {"error": {"code", "message"}}; usage errors exit 2.
``main(argv)`` builds its argument parser once per process: the parser
depends on nothing in argv.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _enc
from operator import itemgetter

from . import __version__
from . import atcheck, bratteli, dimspace, labeling, rotation, stacking, walk
from .errors import (DEFAULT_BUDGET, AdicspaceError, BadInput, UsageError, check_digits,
                     check_text_digits)
from .intervals import exact_sum
from .laurent import LaurentPoly, coeff_to_json, parse_integer, parse_rational

PRESETS = {
    "odometer": lambda depth: bratteli.odometer_diagram(depth),
    "morse": lambda depth: bratteli.morse_diagram(depth),
}


def _depth(args, default: int) -> int:
    """--depth, or ``default`` when it is not given; a depth below 1 is a BadInput."""
    if args.depth is None:
        return default
    if args.depth < 1:
        raise BadInput(f"--depth must be at least 1, not {args.depth}")
    return args.depth


def _load_diagram(args) -> tuple:
    """Returns (diagram, input-bytes): --preset at --depth, or a JSON file cut to --depth levels."""
    if args.preset and args.diagram:
        raise UsageError("need a diagram file or --preset, not both")
    if args.preset:
        depth = _depth(args, 8)
        name = args.preset
        kind, colon, size = name.partition(":")
        if kind == "circulant":
            try:
                k = int(size) if colon else 4
            except ValueError:
                raise UsageError(f"preset {name!r} needs an integer size, as in circulant:4") from None
            d = bratteli.circulant_diagram(k, depth)
        elif name in PRESETS:
            d = PRESETS[name](depth)
        else:
            raise UsageError(f"unknown preset {name!r}")
        payload = json.dumps(bratteli.diagram_to_json(d), sort_keys=True).encode()
        return d, payload
    if not args.diagram:
        raise UsageError("need a diagram file or --preset")
    with open(args.diagram, "rb") as fh:
        payload = fh.read()
    d = bratteli.validate_diagram(_parse_json(payload))
    return bratteli.truncate(d, _depth(args, d.depth)), payload


def _parse_json(payload):
    """json.loads; a key given twice in one object, or input nested past the decoder's
    recursion limit, is a BadInput."""
    try:  # an integer's digits are counted before int() would refuse them
        return json.loads(payload, parse_int=lambda t: int(check_text_digits("a JSON integer", t)),
                          object_pairs_hook=_unique_keys)
    except RecursionError:
        raise BadInput("the JSON input nests too deeply for the decoder") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict, where json.loads alone keeps the last of two."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise BadInput(f"a JSON object has two keys {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


_BATCH = 4096  # container items per joined chunk, so no chunk grows with the report


def _write_json(obj, write, indent: str = "\n") -> None:
    """Passes ``obj`` to ``write`` in chunks.

    Joined, the chunks are json.dumps(obj) with sorted keys and indent 2,
    where a LaurentPoly stands for its ``to_json()`` dict and a Tower for
    its ``intervals`` as a list of [lo, hi] string pairs.  Only dict (str
    keys), list, tuple, str, int, bool, None, LaurentPoly and Tower are
    written; anything else is a TypeError.  ``indent`` is the newline and
    indentation that close ``obj``.  Every container is written in batches
    of at most ``_BATCH`` items, so no chunk grows with the report.  A batch
    of str items or str-to-str dict entries is joined in one go; any other
    batch goes item by item.  A LaurentPoly or a Tower formats its own item
    text (its ``json_items``) in runs of at most ``_BATCH`` items, each
    already joined, and each run is written as soon as it is made, so its
    text is freed as it is written.
    """
    if isinstance(obj, str):
        write(_enc(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif not isinstance(obj, (dict, list, tuple, LaurentPoly, stacking.Tower)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    else:
        has_runs = isinstance(obj, (LaurentPoly, stacking.Tower))
        is_dict = isinstance(obj, (dict, LaurentPoly))
        inner = indent + "  "
        lead, sep = ("{" if is_dict else "[") + inner, "," + inner
        if has_runs:
            batches = obj.json_items(inner, _BATCH)
        else:
            items = sorted(obj) if is_dict else obj  # a dict's keys: no list of item tuples
            batches = (items[i:i + _BATCH] for i in range(0, len(items), _BATCH))
        for batch in batches:
            try:
                if has_runs:
                    parts = (batch,)  # one run of items, joined by json_items
                elif is_dict:
                    # itemgetter of one key gives the value itself, not a 1-tuple
                    values = itemgetter(*batch)(obj) if len(batch) > 1 else (obj[batch[0]],)
                    parts = [f"{_enc(k)}: {_enc(v)}" for k, v in zip(batch, values)]
                else:
                    parts = [_enc(x) for x in batch]
            except TypeError:  # not all str: the batch goes item by item
                for x in batch:
                    write(lead)
                    lead = sep
                    if is_dict:
                        write(_enc(x) + ": ")
                        x = obj[x]
                    _write_json(x, write, inner)
            else:
                write(lead + sep.join(parts))
                lead = sep
        close = "}" if is_dict else "]"
        write(indent + close if lead == sep else lead[0] + close)  # empty: lead is the opener


def _report(args, body: dict, payload: bytes) -> int:
    """Writes the computed report to --out or stdout; the two get the same bytes."""
    head = {"tool": {"name": "adicspace", "version": __version__},
            "input_sha256": hashlib.sha256(payload).hexdigest()}
    head.update(body)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        _write_json(head, fh.write)
        fh.write("\n")
    return 0


def _writable(what: str, polys):
    """``polys``, LaurentPoly in lists or tuples, if no coefficient is too long to write.

    A LaurentPoly is formatted while the report is written, so its
    coefficients are checked here, before the first byte.  Its exponents
    are below a number checked or written earlier: the labels, which
    ``label_edges`` checks, or for ``rotation --polys`` the q of the alpha
    enclosure.
    """
    def widest(obj) -> int:
        if isinstance(obj, LaurentPoly):
            return obj.widest_int()
        return max(map(widest, obj), default=0)

    check_digits(f"a coefficient of {what}", widest(polys))
    return polys


def cmd_validate(args) -> int:
    d, payload = _load_diagram(args)
    body = {
        "ok": True,
        "levels": [len(l) for l in d.levels],
        "edges": [len(e) for e in d.edges],
        "maximal_paths_per_level": [d.k(n) for n in range(1, d.depth + 1)],
    }
    return _report(args, body, payload)


def cmd_label(args) -> int:
    d, payload = _load_diagram(args)
    return _report(args, labeling.labeling_to_json(d, labeling.label_edges(d)), payload)


def cmd_matrices(args) -> int:
    if args.horizon is not None and not args.norm:
        raise UsageError("--horizon needs --norm")
    d, payload = _load_diagram(args)
    space = dimspace.build_matrices(d)
    body = {"matrices": _writable("the matrices", [m.entries for m in space.matrices])}
    if args.product:
        try:
            lo, hi = (int(x) for x in args.product.split(".."))
        except ValueError as exc:
            raise UsageError(f"bad --product range {args.product!r}") from exc
        matrix = dimspace.partial_product(space, lo, hi, args.budget).entries
        body["product"] = {"range": [lo, hi], "matrix": _writable("the product", matrix)}
    if args.norm:
        with open(args.norm) as fh:
            data = _parse_json(fh.read())
        if not isinstance(data, list):
            raise BadInput(f"--norm needs a JSON list of polynomial objects, not a {type(data).__name__}")
        vec = [LaurentPoly.from_json(p) for p in data]
        horizon = args.horizon if args.horizon is not None else space.depth
        norm = dimspace.horizon_norm(space, vec, 0, horizon, args.budget)
        body["norm"] = {"horizon": horizon, "value": coeff_to_json(norm)}
    return _report(args, body, payload)


def cmd_walk(args) -> int:
    d, payload = _load_diagram(args)
    space = dimspace.build_matrices(d)
    body = {"level": space.depth}
    exact = None
    if args.exact or not args.trials:
        exact = walk.exact_distribution(space, space.depth, walk.WalkState(0, 0, 0), args.budget)
        _writable("the exact law", exact.masses)
        body["exact"] = walk.histogram_to_json(exact)
    if args.trials:
        emp = walk.simulate(space, space.depth, args.trials, args.seed)
        body["empirical"] = walk.histogram_to_json(emp)
        if exact is not None:
            body["tv_distance"] = str(walk.tv_distance(exact, emp))
    return _report(args, body, payload)


def _parse_cf(args) -> rotation.CFExpansion:
    if bool(args.cf) == bool(args.cf_file):
        raise UsageError("need exactly one of --cf and --cf-file")
    if args.cf_file:
        with open(args.cf_file) as fh:
            tokens = fh.read().replace(",", " ").split()
    else:
        tokens = args.cf.split(",")
    return rotation.CFExpansion([parse_integer("a partial quotient", t) for t in tokens])


def cmd_rotation(args) -> int:
    cf = _parse_cf(args)
    rule = rotation.parse_rule(args.rule) if args.rule else None
    payload = json.dumps({"cf": list(cf.terms)}, sort_keys=True).encode()
    depth = _depth(args, max(1, cf.depth - 2))
    body = {"cf": list(cf.terms), "alpha": coeff_to_json(cf.alpha())}
    report = rotation.summability_report(cf, rule)
    tail = report.tail_bound
    if tail is not None:
        check_digits("the tail bound", max(tail.numerator, tail.denominator))
    body["summability"] = {
        "partial_sum": str(report.partial_sum),
        "verdict": report.verdict,
        "tail_bound": None if tail is None else str(tail),
    }
    # one dimension space serves --matrices and --gaps, built where the first of them reads it
    space = functools.cache(lambda: dimspace.build_matrices(rotation.rotation_diagram(cf, depth)))
    if args.matrices:
        body["matrices"] = _writable("the matrices", [m.entries for m in space().matrices])
    if args.polys:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            polys = rotation.rank_one_polys(cf, depth, rule)
        body["polys"] = _writable("the polys", polys)
    if args.gaps:
        gaps = [rotation.level_gap(cf, n, space().matrices[n]) for n in range(1, depth)]
        body["gaps"] = [{"n": g.n, "gap": coeff_to_json(g.gap),
                         "tail_bound": None if g.tail_bound is None else str(g.tail_bound)}
                        for g in gaps]
    return _report(args, body, payload)


def cmd_stack(args) -> int:
    cf = _parse_cf(args)
    payload = json.dumps({"cf": list(cf.terms)}, sort_keys=True).encode()
    tower = stacking.build_tower(cf, args.stage)
    body = {
        "stage": tower.stage,
        "height": tower.height,
        "width": str(tower.width),
        "total_space": str(tower.total_space),
        "intervals": tower,
    }
    if args.map is not None:
        x = parse_rational(args.map)
        tx = stacking.tower_map(tower, x)
        check_digits("Tx", max(abs(tx.numerator), tx.denominator))
        body["map"] = {"x": str(x), "Tx": str(tx)}
    if args.compare:
        tol = parse_rational(args.tolerance)
        rep = stacking.compare_with_rotation(tower, cf, args.grid, tol)
        body["compare"] = {
            "grid": rep.grid,
            "counted": rep.counted,
            "tolerance": str(rep.tolerance),
            "out_fraction": None if rep.out_fraction is None else str(rep.out_fraction),
            "values": [
                {"value": str(s.value), "levels": s.level_count, "mass": s.grid_mass,
                 "distance": coeff_to_json(s.distance)}
                for s in rep.stats
            ],
        }
    return _report(args, body, payload)


def cmd_at(args) -> int:
    if args.explicit and args.k != 4:  # a usage error, before anything is built
        raise UsageError("the explicit construction is the k = 4 case")
    payload = json.dumps({"k": args.k, "M": args.M, "N": args.N}, sort_keys=True).encode()
    # every column of a circulant matrix sums to the sum of its class masses
    mass = exact_sum(atcheck.circulant_masses(args.k, args.M, args.N, args.budget))
    body = {"k": args.k, "M": args.M, "N": args.N, "column_mass": [str(mass)] * args.k}
    if args.explicit or args.greedy:
        a = atcheck.circulant_product(args.k, args.M, args.N, args.budget)
    if args.explicit:
        cand = atcheck.explicit_candidate(args.M, args.N, args.budget)
        gsum = cand.row[0] + cand.row[1] + cand.row[2] + cand.row[3]
        body["explicit"] = {
            "error": str(atcheck.approximation_error(a, cand)),
            "phi_masses": [str(p.one_norm()) for p in cand.column],
            "g_norm": str(gsum.one_norm()),
        }
    if args.greedy:
        cand = atcheck.greedy_rank_one(a, args.greedy, args.budget)
        body["greedy"] = {"iters": args.greedy,
                          "error": str(atcheck.approximation_error(a, cand))}
    return _report(args, body, payload)


_NUMBER_WORD = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads any word starting -<digit> or -.<digit> as a value.

    argparse reads -1 and -0.5 as values but -1/2 as an unknown option, so
    ``--map -1/2`` would be a usage error while ``--map=-1/2`` reaches the
    program.  No option of this parser starts with a digit.  Subparsers take
    the class of their parent, so one override covers every subcommand.

    It also reads ``--flag=--`` as the value "--": argparse (Python 3.11 at
    least) drops it and hands the program an empty list, which
    ``--budget=--`` turned into a ``TypeError`` traceback.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NUMBER_WORD

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="adicspace", description="exact diagram-to-dimension-space toolkit")
    ap.add_argument("--version", action="version", version=f"adicspace {__version__}")
    sub = ap.add_subparsers(dest="command")

    def common(p, diagram=True, budget=False):
        if diagram:
            p.add_argument("diagram", nargs="?", help="diagram JSON file")
            p.add_argument("--preset", help="odometer | morse | circulant:K")
            p.add_argument("--depth", type=int, help="use the first N levels (default: preset 8, file all)")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="cap on each derived build: its terms, monomials or sweep "
                                "pairs (default %(default)s)")
        p.add_argument("--out", help="write the report to FILE instead of stdout")

    p = sub.add_parser("validate", help="validate a diagram")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("label", help="run the inductive edge labeling")
    common(p)
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("matrices", help="emit the dimension-space matrices")
    common(p, budget=True)
    p.add_argument("--product", help="partial product range a..b")
    p.add_argument("--norm", help="vector JSON file for a horizon norm")
    p.add_argument("--horizon", type=int)
    p.set_defaults(fn=cmd_matrices)

    p = sub.add_parser("walk", help="random-walk distributions")
    common(p, budget=True)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("rotation", help="continued-fraction rotation tools")
    common(p, diagram=False)
    p.add_argument("--cf", help="comma-separated partial quotients")
    p.add_argument("--cf-file", help="file with partial quotients")
    p.add_argument("--rule", help="growth rule, e.g. linear:c=1")
    p.add_argument("--depth", type=int)
    p.add_argument("--matrices", action="store_true")
    p.add_argument("--polys", action="store_true")
    p.add_argument("--gaps", action="store_true")
    p.set_defaults(fn=cmd_rotation)

    p = sub.add_parser("stack", help="cutting-and-stacking towers")
    common(p, diagram=False)
    p.add_argument("--cf", help="comma-separated partial quotients")
    p.add_argument("--cf-file", help="file with partial quotients")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--map", help="map one rational point")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--grid", type=int, default=10000)
    p.add_argument("--tolerance", default="1/10")
    p.set_defaults(fn=cmd_stack)

    p = sub.add_parser("at", help="circulant products and rank-one errors")
    common(p, diagram=False, budget=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--explicit", action="store_true")
    p.add_argument("--greedy", type=int, default=0)
    p.set_defaults(fn=cmd_at)

    return ap


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on the first call of the process."""
    return build_parser()


def _dispatch(argv) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        if not getattr(args, "command", None):
            ap.print_usage(sys.stderr)
            return 2
        return args.fn(args)
    except UsageError as exc:
        _print_error(exc.code, exc.message, sys.stderr)
        return 2
    except AdicspaceError as exc:
        _print_error(exc.code, exc.message, sys.stdout)
        return 1
    except BrokenPipeError:
        raise  # an OSError, but not bad input: main handles it
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        _print_error("BadInput", str(exc), sys.stdout)
        return 1


def _print_error(code: str, message: str, stream) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}), file=stream)


if __name__ == "__main__":
    sys.exit(main())
