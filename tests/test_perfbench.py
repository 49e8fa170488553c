import importlib.util
import subprocess
import sys
from pathlib import Path

from adicspace import cli, laurent

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # Every workload once at tiny sizes, traced and untraced, against the
    # tiny goldens, plus the negative control; it writes only to .bench_work/.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stdout.rstrip().endswith("selftest passed")


def test_every_name_the_spans_trace_exists():
    """The bench wraps or counts each name in spans.FUNCTIONS, METHODS and COUNTED,
    and reads LaurentPoly._terms; without this test a renamed one shows only as a
    traceback at the end of the bench selftest.

    Spans replace module and class attributes only, never a value held in a
    container, which is why cli.PRESETS holds lambdas that call the preset
    functions rather than the functions themselves: a dict value would keep
    the unwrapped function and the CLI's preset builds would go unmeasured.
    """
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, None, name) for mod, name, *_ in spans.FUNCTIONS]
    names += [(mod, cls, name) for mod, cls, name, *_ in spans.METHODS + spans.COUNTED]
    missing, wrapped = [], set()
    for mod, cls, name in names:
        module = importlib.import_module(f"adicspace.{mod}")
        value = vars(module if cls is None else getattr(module, cls)).get(name)
        if not callable(value):
            missing.append(".".join(filter(None, (mod, cls, name))))
        elif cls is None:
            wrapped.add(value)
    assert missing == []
    assert isinstance(vars(laurent.LaurentPoly).get("_terms"), property)
    assert wrapped.isdisjoint(cli.PRESETS.values())
