"""Run-to-run spread of the end-to-end metrics: the benchmark's noise floor.

    python3 perfbench/spread.py [--out FILE]

Runs ``run.py`` once per seed (seeds 1..10) for each workload of
BENCHMARK.json, one run at a time, with its ``run_seconds``.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the quartile spread as a share of the
median, against a third of the metric's bound, and exits 1 if any spread is
wider or any run is incorrect.  The raw ``wall_s`` and ``cpu_s`` of the
same runs, read from their results files, are printed beside them with no
bound, to show how much of the host's drift the gauge takes out.  ``--out``
also writes those figures, the platform and every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

RUNS = 10
RAW = ("wall_s", "cpu_s")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, steady = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            details = json.loads((run.WORK / f"results-{workload}-seed{seed}-trace0.json").read_text())
            result["raw"] = {name: details["metrics"][name]["median"] for name in RAW}
            runs.append(result)
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        table[workload] = {"runs": runs, "metrics": {}}
        for name, bound in list(bounds.items()) + [(name, None) for name in RAW]:
            values = [r["raw"][name] if bound is None else r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            table[workload]["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": share}
            ok = bound is None or share < bound / 3
            steady = steady and ok and all(r["correct"] for r in runs)
            verdict = ("(raw, no bound)" if bound is None
                       else f"(bound/3 {bound / 3:.3f}) {'ok' if ok else 'WIDE'}")
            print(f"{workload:10s} {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.3f} {verdict}")
    if args.out:
        body = {"platform": run.platform_note(), "run_seconds": spec["run_seconds"],
                "seeds": list(range(1, RUNS + 1)), "workloads": table}
        with open(args.out, "w") as fh:
            fh.write(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
