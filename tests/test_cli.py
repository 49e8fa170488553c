import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

from adicspace import bratteli as B
from adicspace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_preset_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--preset", "odometer", "--depth", "4")
    assert code == 0
    body = json.loads(out)
    assert body["ok"] and body["levels"] == [1] * 5
    assert body["maximal_paths_per_level"] == [1, 1, 1, 1]
    assert body["tool"]["name"] == "adicspace"
    assert "input_sha256" in body


def test_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "matrices", "--preset", "morse", "--depth", "5")
    _, second, _ = run_cli(capsys, "matrices", "--preset", "morse", "--depth", "5")
    assert first == second


def test_matrices_odometer_golden(capsys):
    code, out, _ = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "5")
    assert code == 0
    mats = json.loads(out)["matrices"]
    assert len(mats) == 5
    assert mats[3] == [[{"0": "1/2", "8": "1/2"}]]


def test_matrices_product_flag(capsys):
    code, out, _ = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "4",
                           "--product", "0..3")
    body = json.loads(out)
    assert body["product"]["matrix"] == [[{str(k): "1/8" for k in range(8)}]]


def test_label_emits_integer_strings(capsys):
    code, out, _ = run_cli(capsys, "label", "--preset", "odometer", "--depth", "3")
    body = json.loads(out)
    assert body["b"]["e2_1"] == "4"
    assert body["wmin"]["3/0"] == "0"
    assert body["wmax"]["3/0"] == "7"


def test_walk_exact_golden(capsys):
    code, out, _ = run_cli(capsys, "walk", "--preset", "odometer", "--depth", "3",
                           "--level", "3", "--exact")
    body = json.loads(out)
    assert body["exact"]["masses"] == {"0": {str(d): "1/8" for d in range(8)}}


def test_walk_tv_report(capsys):
    code, out, _ = run_cli(capsys, "walk", "--preset", "morse", "--depth", "4",
                           "--level", "4", "--exact", "--trials", "500", "--seed", "3")
    body = json.loads(out)
    assert "empirical" in body and "tv_distance" in body
    assert Fraction(body["tv_distance"]) < Fraction(1, 2)


def test_validate_file_and_bad_measure(tmp_path, capsys):
    spec = B.diagram_to_json(B.circulant_diagram(3, 3))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "validate", str(good))
    assert code == 0 and json.loads(out)["ok"]

    spec["edges"][0][0]["p"] = "2/3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BadMeasure"


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "validate")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "UsageError"


def test_circulant_preset_size(capsys):
    for preset in ("circulant:x", "circulant:", "circulantx"):
        code, _, err = run_cli(capsys, "validate", "--preset", preset, "--depth", "3")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "UsageError"
    code, out, err = run_cli(capsys, "validate", "--preset", "circulant:1", "--depth", "3")
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "BadInput"


def test_unknown_subcommand_exits_2():
    proc = subprocess.run([sys.executable, "-m", "adicspace.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_console_entry_point_runs():
    proc = subprocess.run(["adicspace", "rotation", "--cf", "2,3,4,5,6,7,8",
                           "--rule", "linear:c=1", "--polys", "--depth", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["summability"]["verdict"] == "CONVERGENT_CERTIFIED"
    assert body["polys"][0] == {"0": "1/2", "1": "1/2"}
    assert body["polys"][2] == {"0": "1/4", "7": "1/4", "14": "1/4", "21": "1/4"}


def test_rotation_gaps_subcommand(capsys):
    code, out, _ = run_cli(capsys, "rotation", "--cf", "2,3,4,5,6,7,8,9,10,11",
                           "--gaps", "--depth", "7")
    body = json.loads(out)
    for item in body["gaps"]:
        assert Fraction(item["gap"][1]) < Fraction(item["tail_bound"])


def test_stack_map_and_compare(capsys):
    code, out, _ = run_cli(capsys, "stack", "--cf", "2,3,4,5,6,7", "--stage", "2",
                           "--map", "1/12", "--compare", "--grid", "600",
                           "--tolerance", "1/10")
    body = json.loads(out)
    assert body["height"] == 6
    assert body["map"] == {"x": "1/12", "Tx": "7/12"}
    assert Fraction(body["compare"]["out_fraction"]) > 0


def test_at_subcommand_explicit(capsys):
    code, out, _ = run_cli(capsys, "at", "--k", "4", "--M", "1", "--N", "1",
                           "--explicit", "--greedy", "1")
    body = json.loads(out)
    assert body["explicit"]["error"] == "95/16"
    assert body["explicit"]["g_norm"] == "4"
    assert Fraction(body["greedy"]["error"]) <= Fraction(95, 16)


def test_at_budget_exceeded(capsys):
    code, out, _ = run_cli(capsys, "at", "--k", "4", "--M", "2", "--N", "2",
                           "--budget", str(1 << 19))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--preset", "morse", "--depth", "3",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ok"]


def test_matrices_norm_flag(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([{"0": "1", "1": "-1"}]))
    code, out, _ = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "3",
                           "--norm", str(vec), "--horizon", "3")
    body = json.loads(out)
    assert body["norm"] == {"horizon": 3, "value": "1/4"}


def test_budget_env_var(monkeypatch, capsys):
    monkeypatch.setenv("ADICSPACE_BUDGET", "64")  # below k * 2^(4M+1) = 128
    code, out, _ = run_cli(capsys, "at", "--k", "4", "--M", "1", "--N", "1")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_validate_rejects_malformed_orders(tmp_path, capsys):
    spec = B.diagram_to_json(B.odometer_diagram(2))
    for orders in (list(spec["orders"].values()), {"1/0": "e0_0"}, {"1/0": [["e0_0"]]}):
        spec["orders"] = orders
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["code"] == "BadInput"


def test_validate_rejects_malformed_levels_and_edges(tmp_path, capsys):
    for spec in ({"levels": 5, "edges": []}, {"levels": [["r"]], "edges": 5},
                 {"levels": [["r"]], "edges": [5]}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["code"] == "BadInput"


CF_STACK = ",".join(str(a) for a in range(2, 14))


def test_stack_report_bytes_are_pinned(capsys):
    # stdout sha256 recorded before towers were stored as integer slots
    pins = {
        ("--stage", "5", "--compare", "--grid", "5000"):
            "068e981776817c9b96f99f1e4c86cf3f33d7865178460a8ac3675a97676f5f0b",
        ("--stage", "4", "--map", "1/3"):
            "0d003d21c6bb51115c68b94d6972f8a5e267fbf3137989bd291785b6ae22abad",
    }
    for flags, digest in pins.items():
        code, out, _ = run_cli(capsys, "stack", "--cf", CF_STACK, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def test_closed_stdout_exits_1_without_traceback():
    # a report and an error report, each with stdout block-buffered and unbuffered
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["validate", "--preset", "circulant", "--depth", "2"],
                 ["stack", "--cf", "2,3", "--stage", "9"]):
        for env in (buffered, dict(buffered, PYTHONUNBUFFERED="1")):
            read_end, write_end = os.pipe()
            os.close(read_end)  # no reader: the first write hits a broken pipe
            try:
                proc = subprocess.run([sys.executable, "-m", "adicspace.cli", *argv],
                                      stdout=write_end, stderr=subprocess.PIPE, text=True,
                                      env=env)
            finally:
                os.close(write_end)
            assert proc.returncode == 1, argv
            assert "Traceback" not in proc.stderr and proc.stderr == "", argv


def test_validate_rejects_json_float_and_bool_p(tmp_path, capsys):
    spec = {"levels": [["r"], ["a"]],
            "edges": [[{"id": "e0", "src": 0, "dst": 0, "p": 1}]],
            "orders": {"1/0": ["e0"]}}
    path = tmp_path / "d.json"
    for p, ok in ((1, True), ("1", True), ("2/2", True), (1.0, False), (0.1, False),
                  (True, False)):
        spec["edges"][0][0]["p"] = p
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(path))
        if ok:
            assert code == 0 and json.loads(out)["ok"], p
        else:
            assert code == 1 and err == "", p
            error = json.loads(out)["error"]
            assert error["code"] == "BadInput" and "'e0'" in error["message"], p
