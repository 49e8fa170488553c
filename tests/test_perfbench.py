import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # Every workload once at tiny sizes, traced and untraced, against the
    # tiny goldens, plus the negative control; it writes only to .bench_work/.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stdout.rstrip().endswith("selftest passed")
