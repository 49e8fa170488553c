"""Write goldens.json: the expected outcome of every fixed-input report.

    python3 perfbench/record_goldens.py

Runs each fixed report of every workload once, at full and at tiny size,
and records its argv, exit code, error code and the sha256 of its stdout.
Of a seeded report with a seed-independent part (walk, ``stack --map``)
only that part is hashed, and "SEED" stands in the argv for the seeded
value.

The committed goldens were taken on the commit that added this benchmark.
Record again only on a commit whose report bytes are meant to change; a
change that claims to be faster must pass against the goldens as they are.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def record(adicspace, tiny: bool) -> dict:
    out = {}
    for name in workloads.NAMES:
        workdir = run.WORK / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        for rep in workloads.build(adicspace, name, 0, workdir, {}, tiny=tiny).reports:
            if rep.oracle is not None and rep.seed_free is None:  # checked by its oracle only
                continue
            _, _, rc, stdout, tb = run.run_report(adicspace.cli, rep)
            if tb is not None:
                sys.exit(f"{rep.name} raised:\n{tb}")
            error = json.loads(stdout)["error"]["code"] if rc != 0 else None
            if rep.seed_free:
                argv, sha = rep.argv[:-1] + ["SEED"], rep.seed_free(stdout)
            else:
                argv, sha = rep.argv, hashlib.sha256(stdout).hexdigest()
            out[rep.name] = {"argv": argv, "exit": rc, "error": error, "sha256": sha}
            print(rep.name, rc, sha, flush=True)
    return out


if __name__ == "__main__":
    adicspace = run.load_program()
    goldens = {"full": record(adicspace, False), "tiny": record(adicspace, True)}
    (run.HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
