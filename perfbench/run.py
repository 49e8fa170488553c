"""Benchmark of the adicspace command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  One process runs one workload as a closed
loop with one client: each report is one in-process ``cli.main(argv)`` call
with stdout captured in memory, and the next starts only after it returns.
A pass runs the workload's report list once; passes repeat until
``--seconds`` have gone by.  No thread or process is started while timing.

The host's speed drifts by a fifth and more, within seconds and over
minutes, and process CPU time drifts with it.  So while a report runs, a
timer (SIGALRM every GAUGE_INTERVAL seconds of wall time) interrupts it to
time a fixed snippet of stdlib ``Fraction`` arithmetic that calls no program
code; that gauge time is taken out of the report's time.  The end-to-end
times are given in units of the snippet: ``wall_ref`` is a pass's wall time
divided by the snippet's mean wall time over the pass, ``cpu_ref`` the same
in CPU time.  The ratio moves with the program's own cost and much less with
the host's drift.  The raw ``wall_s`` and ``cpu_s`` (gauge time taken out)
are printed beside them.  A traced run does not use the gauge; its
untraced passes give the per-layer ``wall_s`` and ``cpu_s``.

Every report is checked: exit code, error code, and the sha256 of stdout
against ``goldens.json`` for fixed inputs; for seeded inputs the sha256 of
the part that does not depend on the seed where there is one, an
independent-route oracle on the first pass, then byte equality with the
first pass.  Any mismatch, traceback or unexpected success is a failed
report.  A traced run also checks its own spans and counts; a failure there
makes the result incorrect but is not a failed report.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced passes with passes that have spans installed around
the program's public functions (see spans.py), and reports the per-layer
metrics, including ``trace.overhead``.  ``--selftest`` runs every workload
once at tiny sizes, prints every metric with its unit, and checks that a
negative-control report with a wrong hash reads ``failed_frac`` = 1.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details (per-pass values with median and quartiles, platform,
why each workload, the layer predictions, spans) go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up samples are taken after each report, one plus one per SETUP_EVERY
# seconds of its wall time, never while a report is timed.  A fresh
# interpreter's start-up time switches between host regimes some 40% apart
# every few seconds; spread over the run in proportion to report time, the
# samples see those regimes in the same shares as the reports do.
SETUP_EVERY = 1.0
# Wall time between two gauge samples; a sample takes about a millisecond.
GAUGE_INTERVAL = 0.02
NEGATIVE_CONTROL = ["validate", "--preset", "odometer", "--depth", "3"]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def load_program():
    """Import adicspace from this checkout's src/, or exit without a result."""
    if not (SRC / "adicspace" / "cli.py").is_file():
        sys.exit(f"no adicspace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adicspace
    import adicspace.cli
    if Path(adicspace.__file__).resolve().parent != SRC / "adicspace":
        sys.exit(f"imported adicspace from {adicspace.__file__}, not from {SRC}")
    return adicspace


def measure_setup(runs: int) -> list:
    """Fresh interpreter -> import adicspace.cli -> build_parser(), timed from outside."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import adicspace.cli as c; c.build_parser()"
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def reference_snippet() -> int:
    """Fixed Fraction and big-int work like the program's own, timed by the gauge.

    It calls no program code, so a change to the program leaves its cost
    alone; about 1 ms on a 2 vCPU Xeon with Python 3.11.
    """
    x = Fraction(1, 3)
    acc = 0
    for i in range(100):
        x = x * Fraction(3, 5) + Fraction(1, i % 13 + 2)
        acc += x.numerator & 7
    return acc


class Gauge:
    """The host's speed, sampled while reports run.

    ``running()`` arms a SIGALRM timer; each tick times ``reference_snippet``
    and adds its wall and CPU time to the totals, which the caller takes out
    of the report's own time.
    """

    def __init__(self):
        self.ticks = 0
        self.wall = self.cpu = 0.0

    def _tick(self, signum, frame):
        t0, c0 = perf_counter(), process_time()
        reference_snippet()
        self.wall += perf_counter() - t0
        self.cpu += process_time() - c0
        self.ticks += 1

    def sample(self):
        """One tick now; a pass too short for the timer still gets a gauge value."""
        self._tick(None, None)

    @contextlib.contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL, GAUGE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def platform_note() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "system": platform.system()}


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


# -- running and checking reports ----------------------------------------------


def run_report(cli, rep, tracer=None, gauge=None):
    """One cli.main call; returns (wall_s, cpu_s, exit code, stdout bytes, traceback).

    With a gauge, the report runs with the gauge's timer armed and the gauge
    time is taken out of wall_s and cpu_s.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    tb = rc = None
    g0 = (gauge.wall, gauge.cpu) if gauge else (0.0, 0.0)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (gauge.running() if gauge else contextlib.nullcontext()):
        t0, c0 = perf_counter(), process_time()
        try:
            rc = tracer.span("cli.main", cli.main, rep.argv) if tracer else cli.main(rep.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            tb = traceback.format_exc()
        wall, cpu = perf_counter() - t0, process_time() - c0
    if gauge:
        wall -= gauge.wall - g0[0]
        cpu -= gauge.cpu - g0[1]
    return wall, cpu, rc, out.getvalue().encode(), tb


def check_outcome(rep, rc, out: bytes, tb) -> str | None:
    if tb is not None:
        return "traceback: " + tb.strip().splitlines()[-1]
    if rc != rep.exit:
        return f"exit {rc}, expected {rep.exit}"
    if rep.error is not None:
        try:
            code = json.loads(out)["error"]["code"]
        except (ValueError, KeyError, TypeError):
            code = None
        if code != rep.error:
            return f"error code {code}, expected {rep.error}"
    if rep.sha256 is not None:
        try:
            digest = rep.seed_free(out) if rep.seed_free else hashlib.sha256(out).hexdigest()
        except (ValueError, KeyError, TypeError):
            return "stdout is not the expected report"
        if digest != rep.sha256:
            return "stdout sha256 differs from the golden"
    return None


class Run:
    """Passes over one workload, with every report checked."""

    def __init__(self, cli, workload, gauged=True):
        self.cli = cli
        self.workload = workload
        self.gauged = gauged   # untraced passes run with a Gauge
        self.first = {}        # report name -> sha256 of its first-pass stdout
        self.oracle = {}       # report name -> oracle verdict from the first pass
        self.attempted = 0
        self.failures = []     # (pass index, report name, reason)
        self.trace_failures = []  # (pass index, reason): span or count checks
        # {"wall_s", "cpu_s", "traced", "report_bytes"}, and for an untraced
        # pass {"gauge_ticks", "ref_wall_s", "ref_cpu_s", "wall_ref", "cpu_ref"}
        self.passes = []

    def run_pass(self, tracer=None, after_report=None):
        outs, checks = {}, {}
        wall = cpu = 0.0
        gauge = Gauge() if self.gauged and not tracer else None
        for rep in self.workload.reports:
            w, c, rc, out, tb = run_report(self.cli, rep, tracer, gauge)
            wall, cpu = wall + w, cpu + c
            outs[rep.name] = out
            if after_report:
                after_report(w)
            checks[rep.name] = check_outcome(rep, rc, out, tb)
        seeded = [rep for rep in self.workload.reports if rep.oracle is not None]
        if seeded and (not self.first or tracer is not None):
            def run_oracles():
                by_oracle = {}  # reports that share an oracle (label + matrices) run it once
                for rep in seeded:
                    if rep.oracle not in by_oracle:
                        try:
                            by_oracle[rep.oracle] = rep.oracle(outs)
                        except (ValueError, KeyError, TypeError, IndexError) as exc:
                            by_oracle[rep.oracle] = f"oracle could not read the report: {exc!r}"
                return {rep.name: by_oracle[rep.oracle] for rep in seeded}

            verdicts = tracer.span("bench.oracle", run_oracles) if tracer else run_oracles()
            if not self.first:
                self.oracle = verdicts
        index = len(self.passes)
        for rep in self.workload.reports:
            sha = hashlib.sha256(outs[rep.name]).hexdigest()
            reason = checks[rep.name]
            if reason is None and rep.oracle is not None:
                reason = self.oracle.get(rep.name) or (
                    "stdout differs from the first pass" if self.first.get(rep.name, sha) != sha else None)
            self.first.setdefault(rep.name, sha)
            self.attempted += 1
            if reason is not None:
                self.failures.append((index, rep.name, reason))
        record = {"wall_s": wall, "cpu_s": cpu, "traced": tracer is not None,
                  "report_bytes": sum(len(o) for o in outs.values())}
        if gauge:
            if not gauge.ticks:
                gauge.sample()
            ref_wall, ref_cpu = gauge.wall / gauge.ticks, gauge.cpu / gauge.ticks
            record.update(gauge_ticks=gauge.ticks, ref_wall_s=ref_wall, ref_cpu_s=ref_cpu,
                          wall_ref=wall / ref_wall, cpu_ref=cpu / ref_cpu)
        self.passes.append(record)

    def repeat(self, seconds: float, traced: bool = False, after_report=None) -> list:
        """Passes until they have taken ``seconds`` (at least one); returns the tracers.

        ``after_report`` is called with each report's wall time, outside the
        time of the report.
        """
        tracers = []
        spent = 0.0
        while True:
            start = perf_counter()
            tracer = None
            if traced:
                tracer = Tracer()
                tracer.install()
            try:
                self.run_pass(tracer, after_report)
            finally:
                if tracer:
                    tracer.uninstall()
                    tracers.append(tracer)
            spent += perf_counter() - start
            if spent >= seconds:
                return tracers

    def values(self, key: str, traced: bool = False) -> list:
        return [p[key] for p in self.passes if p["traced"] == traced]


# -- metrics --------------------------------------------------------------------


def end_to_end(run: Run, setup_times: list) -> dict:
    return {
        "wall_ref": stats(run.values("wall_ref")),
        "cpu_ref": stats(run.values("cpu_ref")),
        "wall_s": stats(run.values("wall_s")),  # raw; printed, not an end-to-end metric
        "cpu_s": stats(run.values("cpu_s")),
        "peak_rss_mb": stats([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
        "setup_s": stats(setup_times),
    }


def layer_values(run: Run, tracer: Tracer, reports: int) -> tuple:
    """Per-layer metrics of one traced pass: (timings, counts)."""
    selfs = tracer.self_times()
    roots = [i for i, rec in enumerate(tracer.spans) if rec[3] == -1 and rec[0] == "cli.main"]
    nesting = max(tracer.nesting_error(i) for i in roots)
    if nesting > 1e-6:
        run.trace_failures.append((len(run.passes) - 1, f"span accounting off by {nesting:.3g} s"))
    timings = {f"{name}.self_s": t for name, t in selfs.items()}
    timings["cli.self_s"] = selfs.get("cli.main", 0.0)
    counts = dict(tracer.counts)
    counts.update(tracer.maxima)
    simulate, compare = selfs.get("walk.simulate", 0.0), selfs.get("stacking.compare_with_rotation", 0.0)
    timings["walk.samples_per_s"] = counts.get("walk.samples", 0) / simulate if simulate else 0.0
    timings["stacking.grid_points_per_s"] = (counts.get("stacking.grid_points", 0) / compare
                                             if compare else 0.0)
    counts["atcheck.refused"] = counts.get("atcheck.circulant_classes.raised", 0) / reports
    return timings, counts


def per_layer(run: Run, tracers: list) -> dict:
    reports = len(run.workload.reports)
    passes = [layer_values(run, t, reports) for t in tracers]
    counts = passes[0][1]
    if any(c != counts for _, c in passes[1:]):
        run.trace_failures.append((len(run.passes) - 1, "counts differ between traced passes"))
    out = {key: stats([t.get(key, 0.0) for t, _ in passes])
           for key in set().union(*(t for t, _ in passes))}
    out.update({key: stats([value]) for key, value in counts.items()})
    out["cli.report_bytes"] = stats(run.values("report_bytes", traced=True))
    out["wall_s"] = stats(run.values("wall_s"))
    out["cpu_s"] = stats(run.values("cpu_s"))
    untraced = statistics.median(run.values("wall_s"))
    out["trace.overhead"] = stats([statistics.median(run.values("wall_s", traced=True)) / untraced - 1])
    return out


def failed_frac(run: Run) -> dict:
    return stats([len(run.failures) / run.attempted])


def emit(spec: dict, section: str, measured: dict, run: Run):
    """Print the metrics of one section, then the result line."""
    metrics = {}
    for m in spec[section]:
        st = measured.get(m["name"], stats([0]))
        metrics[m["name"]] = {"value": st["median"], "unit": m["unit"]}
        print(f"{run.workload.name:10s} {m['name']:40s} {st['median']:.6g} {m['unit']} "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n {st['n']})")
    for index, name, reason in run.failures:
        print(f"FAILED pass {index} {name}: {reason}")
    for index, reason in run.trace_failures:
        print(f"FAILED trace, pass {index}: {reason}")
    failed = len(run.failures)
    print(json.dumps({"correct": failed == 0 and not run.trace_failures, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))


def write_results(path: Path, run: Run, args, measured: dict, tracers: list):
    body = {
        "workload": run.workload.name, "why": run.workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "platform": platform_note(),
        "load_model": "closed loop, one client, one process per workload, in-process cli.main",
        "reports": [{"name": r.name, "argv": r.argv, "exit": r.exit, "error": r.error,
                     "sha256": r.sha256, "oracle": r.oracle is not None} for r in run.workload.reports],
        "passes": run.passes, "metrics": measured,
        "failures": [{"pass": i, "report": n, "reason": why} for i, n, why in run.failures],
        "trace_failures": [{"pass": i, "reason": why} for i, why in run.trace_failures],
        "predictions": {layer: {"metrics": m, "should_move": yes, "should_not_move": no}
                        for layer, (m, yes, no) in workloads.PREDICTIONS.items()},
        "out_of_range": workloads.OUT_OF_RANGE,
    }
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    if tracers:
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            for rec in tracers[0].spans:
                fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    goldens = json.loads((HERE / "goldens.json").read_text())
    adicspace = load_program()
    os.environ.pop("ADICSPACE_BUDGET", None)  # the program gets argv only
    if args.selftest:
        return selftest(adicspace, spec, goldens)

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.build(adicspace, args.workload, args.seed, workdir, goldens["full"])
    run = Run(adicspace.cli, w, gauged=not args.trace)
    tracers = []
    if args.trace:
        # Untraced and traced passes alternate, so the host's drift reaches
        # both sides of trace.overhead alike; neither side runs the gauge.
        start = perf_counter()
        while not tracers or perf_counter() - start < args.seconds:
            run.repeat(0)
            tracers += run.repeat(0, traced=True)
        measured = per_layer(run, tracers)
        measured["failed_frac"] = failed_frac(run)
        section = "per_layer"
    else:
        setup_times = []
        run.repeat(args.seconds,
                   after_report=lambda wall: setup_times.extend(measure_setup(1 + int(wall / SETUP_EVERY))))
        measured = end_to_end(run, setup_times)
        section = "end_to_end"
    write_results(workdir.with_name(f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  run, args, measured, tracers)
    med = {key: statistics.median(run.values(key)) for key in ("wall_s", "cpu_s")}
    print(f"{w.name}: {len(run.passes)} passes; wall_s {med['wall_s']:.6g} s, cpu_s {med['cpu_s']:.6g} s, "
          f"failed_frac {len(run.failures) / run.attempted} ratio")
    emit(spec, section, measured, run)
    return 0


def selftest(adicspace, spec: dict, goldens: dict) -> int:
    """Every workload once at tiny sizes, traced and untraced, plus a negative control."""
    ok = True
    setup_times = measure_setup(3)
    for name in workloads.NAMES:
        workdir = WORK / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        run = Run(adicspace.cli, workloads.build(adicspace, name, 1, workdir, goldens["tiny"], tiny=True))
        run.repeat(0)
        measured = end_to_end(run, setup_times)
        measured.update(per_layer(run, run.repeat(0, traced=True)))
        measured["failed_frac"] = failed_frac(run)
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                st = measured.get(m["name"], stats([0]))
                print(f"{name:10s} {m['name']:40s} {st['median']:.6g} {m['unit']}")
        for index, rep, reason in run.failures:
            print(f"FAILED {name} pass {index} {rep}: {reason}")
        for index, reason in run.trace_failures:
            print(f"FAILED {name} trace, pass {index}: {reason}")
        ok = ok and not run.failures and not run.trace_failures
    control = workloads.Workload("negative-control", "a report whose expected sha256 is wrong",
                                 [workloads.Report("negative-control", NEGATIVE_CONTROL, sha256="0" * 64)])
    run = Run(adicspace.cli, control)
    run.repeat(0)
    frac = failed_frac(run)["median"]
    print(f"{'negative-control':10s} {'failed_frac':40s} {frac:.6g} ratio (must be 1)")
    ok = ok and frac == 1
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
