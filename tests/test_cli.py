import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspace import bratteli as B
from adicspace import cli, errors, rotation, stacking
from adicspace.cli import _BATCH, _write_json, build_parser, main
from adicspace.dimspace import build_matrices, partial_product
from adicspace.intervals import RatInterval
from adicspace.labeling import label_edges
from adicspace.laurent import LaurentPoly
from path_oracle import paths_into


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
    code, out, _ = run_cli(capsys, "walk", "--preset", "odometer", "--depth", "3", "--exact")
    body = json.loads(out)
    assert body["exact"]["masses"] == {"0": {str(d): "1/8" for d in range(8)}}


def test_walk_tv_report(capsys):
    code, out, _ = run_cli(capsys, "walk", "--preset", "morse", "--depth", "4",
                           "--exact", "--trials", "500", "--seed", "3")
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


def test_a_diagram_file_with_a_preset_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "odometer.json"
    path.write_text(json.dumps(B.diagram_to_json(B.odometer_diagram(2))))
    for diagram in ("/nonexistent.json", str(path)):
        for command in ("validate", "label", "matrices", "walk"):
            code, out, err = run_cli(capsys, command, diagram, "--preset", "odometer", "--depth", "2")
            assert code == 2 and out == "", (command, diagram)
            assert json.loads(err) == {"error": {"code": "UsageError", "message":
                                                 "need a diagram file or --preset, not both"}}
    for argv in ([str(path)], ["--preset", "odometer", "--depth", "2"]):
        assert run_cli(capsys, "validate", *argv)[0] == 0, argv


def test_no_subcommand_prints_usage_and_exits_2(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: ")


def test_circulant_preset_size(capsys):
    for preset in ("circulant:x", "circulant:", "circulantx"):
        code, _, err = run_cli(capsys, "validate", "--preset", preset, "--depth", "3")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "UsageError"
    code, out, err = run_cli(capsys, "validate", "--preset", "circulant:1", "--depth", "3")
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "BadInput"


def test_preset_size_is_only_the_circulant_suffix(capsys):
    for command in ("validate", "label", "matrices", "walk"):
        code, out, err = run_quietly([command, "--preset", "circulant", "--k", "0", "--depth", "2"])
        assert code == 2 and out == "" and "unrecognized arguments: --k" in err, command
    code, out, err = run_cli(capsys, "validate", "--preset", "circulant:0", "--depth", "2")
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "BadInput"
    _, bare, _ = run_cli(capsys, "validate", "--preset", "circulant", "--depth", "2")
    _, four, _ = run_cli(capsys, "validate", "--preset", "circulant:4", "--depth", "2")
    assert bare == four and json.loads(bare)["levels"] == [1, 4, 4]


def test_oversized_continued_fractions_are_refused_before_building(capsys):
    for argv in (["stack", "--cf", "1000000000,2", "--stage", "1"],
                 ["stack", "--cf", "2,1000,1000", "--stage", "3"],  # 1000 (1000 * 2 + 1) levels
                 ["rotation", "--cf", "2,1000000000,3,4", "--matrices"],
                 ["rotation", "--cf", "2,1000000000,3,4", "--polys"],
                 ["rotation", "--cf", "2,1000000000,3,4,5", "--gaps"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == "", argv
        assert json.loads(out)["error"]["code"] == "BudgetExceeded", argv
    code, out, _ = run_cli(capsys, "rotation", "--cf", "2,1000000000,3,4")
    assert code == 0 and json.loads(out)["summability"]["verdict"]


def test_a_continued_fraction_too_long_to_write_is_refused_as_it_is_read(tmp_path, capsys):
    # every report writes alpha, whose mediant denominator q(n) + q(n-1) passes 4,300 digits
    # at n = 20576 when every quotient is 1, so the recurrence stops there
    path = tmp_path / "cf.txt"
    path.write_text(" ".join(["1"] * 30000))
    for argv in (["rotation", "--cf-file", str(path)],
                 ["stack", "--cf-file", str(path), "--stage", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == "", argv
        assert json.loads(out)["error"] == {
            "code": "BudgetExceeded",
            "message": "the decimal digits of q(20576) + q(20575) = 4301 exceeds the budget 4300"}, argv


def assert_too_many_digits(out, err, what, digits):
    assert err == ""
    assert json.loads(out) == {"error": {"code": "BudgetExceeded", "message":
                                         f"the decimal digits of {what} = {digits} "
                                         "exceeds the budget 4300"}}


def test_a_partial_quotient_too_long_to_read_is_refused_by_its_digits(tmp_path, capsys):
    path = tmp_path / "cf.txt"
    path.write_text("1, " + "9" * 5000)
    for argv in (["rotation", "--cf", "2,3," + "9" * 5000],
                 ["stack", "--cf-file", str(path), "--stage", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert_too_many_digits(out, err, "a partial quotient", 5000)


def test_partial_quotients_are_ascii_decimal_integers(tmp_path, capsys):
    path = tmp_path / "cf.txt"
    path.write_text("2;3")
    for source, token in ((["--cf", "2_0"], "2_0"), (["--cf", "\u0663"], "\u0663"),
                          (["--cf", "2,"], ""), (["--cf-file", str(path)], "2;3")):
        code, out, err = run_cli(capsys, "stack", *source, "--stage", "1")
        assert code == 1 and err == "", source
        assert json.loads(out)["error"] == {
            "code": "BadInput",
            "message": f"a partial quotient must be a decimal integer, not {token!r}"}, source
    code, out, _ = run_cli(capsys, "stack", "--cf", "2, 3", "--stage", "2")
    assert code == 0 and json.loads(out)["height"] == 6


def test_rationals_are_read_in_ascii_digits_only(tmp_path, capsys):
    # Fraction() reads "\u0660" as 0 and "\u0661/\u0662" as 1/2: both would run
    code, out, err = run_cli(capsys, "stack", "--cf", "2,3", "--stage", "2", "--map", "\u0660")
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "BadInput"
    spec = B.diagram_to_json(B.morse_diagram(2))
    path = tmp_path / "morse.json"
    path.write_text(json.dumps(spec))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    spec["edges"][0][0]["p"] = "\u0661/\u0662"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "BadInput"


def test_a_rational_too_long_to_read_is_refused_by_its_digits(tmp_path, capsys):
    long_den = "1/" + "7" * 4301
    spec = non_dyadic_spec(2)
    spec["edges"][0][0]["p"] = long_den
    path = tmp_path / "long_p.json"
    path.write_text(json.dumps(spec))
    for argv in (["stack", "--cf", "2,3,4,5", "--stage", "3", "--compare", "--tolerance", long_den],
                 ["rotation", "--cf", "2,3,4", "--rule", "linear:c=" + long_den],
                 ["validate", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert_too_many_digits(out, err, "a numerator or denominator", 4301)
    # a JSON integer is counted before the decoder makes it
    path.write_text(json.dumps(non_dyadic_spec(2)).replace('"2/3"', "1" * 4301, 1))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert_too_many_digits(out, err, "a JSON integer", 4301)


def test_an_exponent_too_long_to_read_is_refused_by_its_digits(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([{"1" * 5000: "1"}]))
    code, out, err = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "3",
                             "--norm", str(vec))
    assert code == 1
    assert_too_many_digits(out, err, "an exponent", 5000)


def test_an_order_key_too_long_to_read_is_refused_by_its_digits(tmp_path, capsys):
    spec = non_dyadic_spec(2)
    spec["orders"]["1" * 5000 + "/0"] = spec["orders"].pop("1/0")
    path = tmp_path / "long_key.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert_too_many_digits(out, err, "an order key", 5000)


def test_a_mapped_point_too_long_to_write_is_refused_before_the_first_byte(capsys):
    # 1/x has 4,300 digits and is read; Tx's denominator has 4,301 and cannot be written
    code, out, err = run_cli(capsys, "stack", "--cf", "2,3,4,5", "--stage", "3",
                             "--map", "1/" + "7" * 4300)
    assert code == 1
    assert_too_many_digits(out, err, "Tx", 4301)


def test_a_tail_bound_too_long_to_write_is_refused_before_the_first_byte(capsys):
    # each rule is read and holds on the cf; its tail bound cannot be written
    nines, ten = "9" * 4300, "1" + "0" * 4299
    rules = {
        # 1/(c^2 * 5) = (10^4300 - 1)^2 / 5
        f"linear:c=1/{nines}": 8600,
        # g = 3^1800 has 859 digits, c g^5 <= 1 and g^11 has 9,448
        f"geometric:c=1/{ten},g={3 ** 1800}": 9444,
    }
    for rule, digits in rules.items():
        code, out, err = run_cli(capsys, "rotation", "--cf", "2,3,4,5,6", "--rule", rule)
        assert code == 1, rule[:20]
        assert_too_many_digits(out, err, "the tail bound", digits)


def test_a_source_sum_too_long_to_write_is_named_by_its_digits(tmp_path, capsys):
    # each p is read; their sum 1/<4,300 sevens> + 1/<4,299 threes>1 is far from 1 and too long
    spec = non_dyadic_spec(2)
    spec["edges"][0][0]["p"] = "1/" + "7" * 4300
    spec["edges"][0][1]["p"] = "1/" + "3" * 4299 + "1"
    path = tmp_path / "long_sum.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": {"code": "BadMeasure", "message":
                                         "source sums at vertex 0/0 equal a number of "
                                         "12901 digits, not 1"}}


def test_an_interval_source_sum_is_named_in_its_report_form(tmp_path, capsys):
    # the out-edges of vertex 0/0 sum to [1/3 + 1/7, 1/2 + 1/7] = [10/21, 9/14]
    spec = non_dyadic_spec(2)
    spec["edges"][0][0]["p"] = ["1/3", "1/2"]
    spec["edges"][0][1]["p"] = "1/7"
    path = tmp_path / "interval_sum.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": {"code": "BadMeasure", "message":
                                         'source sums at vertex 0/0 equal ["10/21", "9/14"], '
                                         "not 1"}}


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


def test_python_dash_m_runs_the_cli_from_a_checkout(capsys):
    argv = ["validate", "--preset", "odometer", "--depth", "3"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "adicspace", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode()) == (0, out.encode())


def test_main_builds_one_parser_per_process_and_writes_what_a_fresh_process_writes(
        tmp_path, capsys):
    report_file = tmp_path / "report.json"
    report = ["matrices", "--preset", "odometer", "--depth", "4", "--product", "0..4"]
    argvs = [report,
             ["walk", "--preset", "odometer", "--trials", "x"],  # usage error, exit 2
             ["validate", str(tmp_path / "missing.json")],  # module error, exit 1
             ["label", "--preset", "morse", "--depth", "4", "--out", str(report_file)],
             report]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err, report_file.read_text() if "--out" in argv else None

    cli._parser.cache_clear()
    try:
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
            runs = [in_process(argv) for argv in argvs]
        assert built.call_count == 1
    finally:
        cli._parser.cache_clear()
    assert [run[0] for run in runs] == [0, 2, 1, 0, 0]
    for argv, run in zip(argvs, runs):
        report_file.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "adicspace", *argv], capture_output=True,
                              text=True)
        written = report_file.read_text() if "--out" in argv else None
        assert (proc.returncode, proc.stdout, proc.stderr, written) == run, argv


def test_rational_flags_take_a_negative_value_with_or_without_equals(capsys):
    stack = ["stack", "--cf", "2,3,4", "--stage", "2"]
    for flag, extra, error in (("--map", [], "PointOutsideTower"),
                               ("--tolerance", ["--compare"], "BadInput")):
        for value in ("-1/2", "-1", "-1/-2"):
            outcomes = []
            for spelling in ([flag, value], [f"{flag}={value}"]):
                code, out, err = run_cli(capsys, *stack, *extra, *spelling)
                assert err == "", spelling
                outcomes.append((code, json.loads(out)["error"]))
            assert outcomes[0] == outcomes[1], (flag, value)
            code, error_body = outcomes[0]
            assert code == 1 and error_body["code"] == (error if value != "-1/-2" else "BadInput")


def test_a_flag_given_the_value_double_dash_is_read_as_that_value(capsys):
    product = ["matrices", "--preset", "odometer", "--depth", "5", "--product", "0..5"]
    for argv in (product + ["--budget=--"], ["walk", "--preset", "odometer", "--depth=--"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid int value: '--'" in capsys.readouterr().err, argv
    code, out, err = run_cli(capsys, "validate", "--preset=--")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "UsageError", "message": "unknown preset '--'"}


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


def test_stack_compare_with_every_point_on_the_top_level(capsys):
    # a stage-1 tower of cf 1 is one level, which is its top: no grid point is counted
    code, out, _ = run_cli(capsys, "stack", "--cf", "1", "--stage", "1", "--compare")
    assert code == 0
    compare = json.loads(out)["compare"]
    assert compare["counted"] == 0 and compare["values"] == []
    assert compare["out_fraction"] is None  # 0/0: nothing was compared


def test_at_subcommand_explicit(capsys):
    code, out, _ = run_cli(capsys, "at", "--k", "4", "--M", "1", "--N", "1",
                           "--explicit", "--greedy", "1")
    body = json.loads(out)
    assert body["explicit"]["error"] == "95/16"
    assert body["explicit"]["g_norm"] == "4"
    assert Fraction(body["greedy"]["error"]) <= Fraction(95, 16)


def test_at_explicit_is_the_k_4_case(capsys):
    code, out, err = run_cli(capsys, "at", "--k", "3", "--M", "1", "--N", "1", "--explicit")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "UsageError",
                                        "message": "the explicit construction is the k = 4 case"}


def test_at_explicit_with_k_not_4_is_refused_before_the_product_is_sized(capsys):
    # k * 2^26 passes the budget, but the usage error comes first
    code, out, err = run_cli(capsys, "at", "--k", "3", "--M", "3", "--N", "2", "--explicit")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "UsageError",
                                        "message": "the explicit construction is the k = 4 case"}


def test_at_budget_exceeded(capsys):
    code, out, _ = run_cli(capsys, "at", "--k", "4", "--M", "2", "--N", "2",
                           "--budget", str(1 << 19))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def at_goldens():
    """The full-size `at` reports of the bench goldens, read and never written."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
    full = json.loads(path.read_text(encoding="utf-8"))["full"]
    return {name: rep for name, rep in sorted(full.items()) if name.startswith("at-")}


def test_at_reports_match_the_bench_goldens(capsys):
    goldens = at_goldens()
    assert len(goldens) == 4
    for name, rep in goldens.items():
        code, out, _ = run_cli(capsys, *rep["argv"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rep["exit"], rep["sha256"]), name


def test_at_column_masses_build_no_circulant_product(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the column masses built the circulant classes")

    monkeypatch.setattr(cli.atcheck, "circulant_classes", refuse)
    rep = at_goldens()["at-2-2"]
    code, out, _ = run_cli(capsys, *rep["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == rep["sha256"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--preset", "morse", "--depth", "3",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ok"]


# twelve partial quotients at stage 6: a tower of 6,804 intervals, more than one
# writer batch, and a report of some 0.4 MB, several times a pipe's buffer
MULTI_BATCH = ("stack", "--cf", "2,3,4,5,6,7,8,9,10,11,12,13", "--stage", "6")


def test_out_file_has_the_stdout_bytes(tmp_path, capsys):
    argv = (*MULTI_BATCH, "--compare")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(json.loads(out)["intervals"]) > _BATCH
    target = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode()


def test_matrices_norm_flag(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([{"0": "1", "1": "-1"}]))
    code, out, _ = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "3",
                           "--norm", str(vec), "--horizon", "3")
    body = json.loads(out)
    assert body["norm"] == {"horizon": 3, "value": "1/4"}


def test_matrices_norm_writes_an_interval_as_a_pair(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    for terms, value in (([{"0": ["1/3", "1/2"]}], ["1/3", "1/2"]),
                         ([{"0": ["1/2", "1/2"]}], ["1/2", "1/2"])):  # a point interval too
        vec.write_text(json.dumps(terms))
        code, out, _ = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "3",
                               "--norm", str(vec), "--horizon", "3")
        assert code == 0
        assert json.loads(out)["norm"] == {"horizon": 3, "value": value}


def test_depth_zero_is_refused_not_defaulted(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(B.diagram_to_json(B.morse_diagram(3))))
    for argv in (["label", "--preset", "circulant:2", "--depth", "0"],
                 ["matrices", "--preset", "morse", "--depth", "0"],
                 ["validate", "--preset", "odometer", "--depth", "0"],
                 ["matrices", "--preset", "circulant:3", "--depth", "-2"],
                 ["matrices", str(path), "--depth", "0"],
                 ["rotation", "--cf", "2,3,4,5", "--depth", "0", "--matrices"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == "", argv
        assert json.loads(out)["error"]["code"] == "BadInput", argv
    code, out, _ = run_cli(capsys, "matrices", str(path), "--depth", "1")
    assert code == 0 and len(json.loads(out)["matrices"]) == 1


def test_depth_cuts_a_diagram_file_to_the_preset_of_that_depth(tmp_path, capsys):
    path = tmp_path / "morse4.json"
    path.write_text(json.dumps(B.diagram_to_json(B.morse_diagram(4))))
    commands = (["validate"], ["label"], ["matrices"], ["walk", "--exact"])
    for command in commands:
        bodies = []
        for source in ([str(path)], ["--preset", "morse"]):
            code, out, err = run_cli(capsys, *command, *source, "--depth", "2")
            assert code == 0 and err == "", (command, source)
            body = json.loads(out)
            del body["input_sha256"]
            bodies.append(body)
        assert bodies[0] == bodies[1], command
    for command in commands:
        for depth, error in (("9", "DepthExceeded"), ("0", "BadInput")):
            code, out, err = run_cli(capsys, *command, str(path), "--depth", depth)
            assert code == 1 and err == "", (command, depth)
            assert json.loads(out)["error"]["code"] == error, (command, depth)
    root = tmp_path / "root.json"  # a diagram of depth 0 is read whole, as before
    root.write_text(json.dumps({"levels": [["r"]], "edges": [], "orders": {}}))
    code, out, _ = run_cli(capsys, "walk", str(root))
    assert code == 0 and json.loads(out)["exact"]["masses"] == {"0": {"0": "1"}}
    code, _, err = run_quietly(["walk", "--preset", "odometer", "--depth", "3", "--level", "3"])
    assert code == 2 and "unrecognized arguments" in err


def test_cf_and_cf_file_together_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cf.txt"
    path.write_text("2 3 4 5")
    for argv in (["rotation", "--cf", "2,3,4,5", "--cf-file", str(path), "--matrices"],
                 ["stack", "--cf", "2,3", "--cf-file", str(path), "--stage", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["code"] == "UsageError", argv
        code, _, _ = run_cli(capsys, *[a for a in argv if a not in ("--cf", argv[2])])
        assert code == 0, argv


def test_horizon_without_norm_is_a_usage_error(tmp_path, capsys):
    # refused before the diagram is read: a missing diagram file would be exit 1
    for argv in (["matrices", "--preset", "odometer", "--depth", "3", "--horizon", "3"],
                 ["matrices", str(tmp_path / "missing.json"), "--horizon", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["code"] == "UsageError", argv


def test_budget_zero_is_refused_like_a_negative_budget(capsys):
    for budget in ("0", "-1"):
        code, out, err = run_cli(capsys, "at", "--k", "4", "--M", "1", "--N", "1",
                                 "--budget", budget)
        assert code == 1 and err == "", budget
        assert json.loads(out)["error"]["code"] == "BudgetExceeded", budget


def test_rotation_refuses_a_level_whose_bracket_the_enclosure_touches(capsys):
    # the last quotient is 1, so alpha(depth - 2) reaches 1/(q(n) + q(n+1)): see rotation.alpha_n
    for argv, n in ((["--cf", "2,3,1", "--matrices"], 1),
                    (["--cf", "2,3,4,1", "--matrices"], 2)):  # the default --depth 2
        code, out, err = run_cli(capsys, "rotation", *argv)
        assert code == 1 and err == "", argv
        assert json.loads(out)["error"] == {
            "code": "InsufficientDepth", "message": f"alpha({n}) enclosure fails the strict bracket"}
    code, out, _ = run_cli(capsys, "rotation", "--cf", "2,3,4,1", "--matrices", "--depth", "1")
    assert code == 0 and len(json.loads(out)["matrices"]) == 1


def test_rotation_refusals_come_in_report_order(capsys):
    # --matrices, then --polys, then --gaps; each builds level by level, reading alpha(n+1)
    # before it checks a(n+1), and --gaps builds nothing at depth 1
    depth = ("InsufficientDepth", "alpha(3) needs two spare terms beyond 3")
    for argv, error in (
            (["--cf", "2,3", "--gaps"], None),
            (["--cf", "2,3,1", "--gaps"], None),
            (["--cf", "2,3", "--matrices"],
             ("InsufficientDepth", "alpha(1) needs two spare terms beyond 1")),
            (["--cf", "2,3,4", "--polys", "--gaps", "--depth", "4"],
             ("InsufficientDepth", "need 4 terms, have 3")),
            (["--cf", "2,3,4,5", "--matrices", "--depth", "4"], depth),
            (["--cf", "2,3,4,5", "--gaps", "--depth", "4"], depth),
            (["--cf", "2,3,4,5", "--matrices", "--depth", str(1 << 40)], depth),
            (["--cf", "2,3,4,1", "--polys", "--gaps"],
             ("InsufficientDepth", "alpha(2) enclosure fails the strict bracket")),
            (["--cf", "2,3000000,4,5,6", "--gaps", "--polys"],
             ("BudgetExceeded", "a(2) = 3000000 exceeds the budget 1048576")),
            # --gaps reads M_0 too, so it checks a(1) as --matrices does
            (["--cf", "2000000,3,4,5", "--gaps"],
             ("BudgetExceeded", "a(1) = 2000000 exceeds the budget 1048576")),
            (["--cf", "2000000,3,4,5", "--matrices"],
             ("BudgetExceeded", "a(1) = 2000000 exceeds the budget 1048576"))):
        code, out, err = run_cli(capsys, "rotation", *argv)
        assert err == "", argv
        if error is None:
            assert code == 0 and json.loads(out)["gaps"] == [], argv
        else:
            assert code == 1, argv
            assert json.loads(out) == {"error": {"code": error[0], "message": error[1]}}, argv


def test_every_option_is_in_the_readme_command_line_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {(name, option) for name, p in commands.items() for a in p._actions
               for option in a.option_strings if option not in ("-h", "--help")}
    assert len(commands) == 7 and len(options) > 40
    missing = sorted((name, option) for name, option in options
                     if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", section))
    assert missing == []


def test_at_budget_below_the_first_product(capsys):
    # below k * 2^(4M+1) = 128
    code, out, _ = run_cli(capsys, "at", "--k", "4", "--M", "1", "--N", "1", "--budget", "64")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_walk_exact_is_refused_over_the_budget(capsys):
    code, out, err = run_cli(capsys, "walk", "--preset", "odometer", "--depth", "21", "--exact")
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"
    argv = ("walk", "--preset", "odometer", "--depth", "5", "--exact")  # 32 paths
    code, out, _ = run_cli(capsys, *argv, "--budget", "31")
    assert code == 1 and json.loads(out)["error"]["code"] == "BudgetExceeded"
    assert run_cli(capsys, *argv, "--budget", "32")[0] == 0


def test_reports_ignore_the_environment(monkeypatch, capsys):
    commands = (["at", "--M", "1", "--N", "1"],
                ["walk", "--preset", "odometer", "--depth", "5", "--exact"],
                ["matrices", "--preset", "odometer", "--depth", "5", "--product", "0..5"])
    monkeypatch.delenv("ADICSPACE_BUDGET", raising=False)
    unset = [run_cli(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _, _ in unset)
    monkeypatch.setenv("ADICSPACE_BUDGET", "1")
    for argv, (code, out, err) in zip(commands, unset):
        assert run_cli(capsys, *argv) == (code, out, err), argv


def test_matrices_product_and_norm_follow_the_budget(tmp_path, capsys):
    one, wide = tmp_path / "one.json", tmp_path / "wide.json"
    one.write_text(json.dumps([{"0": "1"}]))
    wide.write_text(json.dumps([{str(e): "1" for e in range(1025)}]))
    # 2^5 terms at level 5; the wide vector has 1025 terms times 2^10 paths, but its
    # pushed exponents fill only 0..2047, so the bound is 2048 and not over 2^20
    for depth, extra, size in (("5", ["--product", "0..5"], 32), ("5", ["--norm", str(one)], 32),
                               ("10", ["--norm", str(wide)], 2048)):
        argv = ("matrices", "--preset", "odometer", "--depth", depth, *extra)
        code, out, _ = run_cli(capsys, *argv, "--budget", str(size - 1))
        assert code == 1, extra
        assert json.loads(out)["error"]["message"].endswith(f"= {size} exceeds the budget {size - 1}")
        assert run_cli(capsys, *argv, "--budget", str(size))[0] == 0, extra


def test_exponential_builds_are_refused_at_once(capsys):
    for argv in (["matrices", "--preset", "odometer", "--depth", "21", "--product", "0..21"],
                 ["walk", "--preset", "odometer", "--depth", "21", "--exact"],
                 ["validate", "--preset", "odometer", "--depth", "100000000"],
                 ["validate", "--preset", "circulant:1000000"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 5, argv  # about 0.01 s each
        assert code == 1 and err == "", argv
        assert json.loads(out)["error"]["code"] == "BudgetExceeded", argv


def test_validate_rejects_malformed_orders(tmp_path, capsys):
    spec = B.diagram_to_json(B.odometer_diagram(2))
    for orders in (list(spec["orders"].values()), {"1/0": "e0_0"}, {"1/0": [["e0_0"]]}):
        spec["orders"] = orders
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["code"] == "BadInput"


def test_a_diagram_that_is_not_an_object_or_lacks_a_key_is_named_in_words(tmp_path, capsys):
    for spec, message in (([1], "a diagram must be a JSON object, not a list"),
                          (None, "a diagram must be a JSON object, not a NoneType"),
                          ("x", "a diagram must be a JSON object, not a str"),
                          (3, "a diagram must be a JSON object, not a int"),
                          ({"edges": []}, 'a diagram needs a "levels" key')):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert (code, err) == (1, ""), spec
        assert json.loads(out) == {"error": {"code": "BadInput", "message": message}}, spec


def test_validate_rejects_malformed_levels_and_edges(tmp_path, capsys):
    for spec in ({"levels": 5, "edges": []}, {"levels": [["r"]], "edges": 5},
                 {"levels": [["r"]], "edges": [5]}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["code"] == "BadInput"


DEEP_JSON = "[" * 100_000  # nested past the decoder's recursion limit


def assert_too_deep(out, err):
    assert err == ""
    assert json.loads(out)["error"] == {"code": "BadInput",
                                        "message": "the JSON input nests too deeply for the decoder"}


def test_validate_refuses_json_nested_past_the_decoder(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "validate", str(deep))
    assert code == 1
    assert_too_deep(out, err)


def test_norm_vector_refuses_json_nested_past_the_decoder(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "2",
                             "--norm", str(deep))
    assert code == 1
    assert_too_deep(out, err)


CF_STACK = ",".join(str(a) for a in range(2, 14))


# stdout sha256 of stack reports: the first two recorded before towers were stored as
# integer slots, the others (the benchmark's scale and a one-level tower) before towers
# wrote their own intervals
STACK_PINS = {
    ("--cf", CF_STACK, "--stage", "5", "--compare", "--grid", "5000"):
        "068e981776817c9b96f99f1e4c86cf3f33d7865178460a8ac3675a97676f5f0b",
    ("--cf", CF_STACK, "--stage", "4", "--map", "1/3"):
        "0d003d21c6bb51115c68b94d6972f8a5e267fbf3137989bd291785b6ae22abad",
    ("--cf", CF_STACK, "--stage", "7", "--compare", "--grid", "100000"):
        "ac39e9eb64ee3b68a86ca32821b3e0bab749353effa5c26dc52abd464bea6a06",
    ("--cf", CF_STACK, "--stage", "6", "--map", "138044/486307"):
        "9cb2edcd36c5cc6ea44effe88b254cc9d80c5520b8d5dddc374ece684ba1fb0b",
    ("--cf", "1", "--stage", "1"):
        "716eb3313aa031f1e04730f2cd3b231885d8139170cbd6aa95fe2379843f7217",
}


def test_stack_report_bytes_are_pinned(capsys):
    for flags, digest in STACK_PINS.items():
        code, out, _ = run_cli(capsys, "stack", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def test_out_file_gets_the_stdout_bytes_of_each_pinned_stack_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    for flags, digest in STACK_PINS.items():
        code, printed, _ = run_cli(capsys, "stack", *flags, "--out", str(target))
        assert code == 0 and printed == ""
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, flags


def non_dyadic_spec(depth):
    """Two vertices per level; edge probabilities in thirds, fifths, sevenths and fifteenths."""
    levels = [["r"]] + [[f"v{n}_0", f"v{n}_1"] for n in range(1, depth + 1)]
    edges = [[{"id": "a0", "src": 0, "dst": 0, "p": "1/3"},
              {"id": "a1", "src": 0, "dst": 1, "p": "2/3"}]]
    orders = {"1/0": ["a0"], "1/1": ["a1"]}
    for n in range(1, depth):
        edges.append([{"id": f"s{n}", "src": 0, "dst": 0, "p": "2/7"},
                      {"id": f"t{n}", "src": 0, "dst": 1, "p": "5/7"},
                      {"id": f"u{n}", "src": 1, "dst": 0, "p": "1/3"},
                      {"id": f"w{n}", "src": 1, "dst": 1, "p": "1/5"},
                      {"id": f"x{n}", "src": 1, "dst": 1, "p": "7/15"}])
        orders[f"{n + 1}/0"] = [f"u{n}", f"s{n}"]
        orders[f"{n + 1}/1"] = [f"w{n}", f"t{n}", f"x{n}"]
    return {"levels": levels, "edges": edges, "orders": orders}


def interval_spec(depth):
    """non_dyadic_spec with interval probabilities on the w and x edges of the last level.

    At depth 10 the product's entry into v_1 has 6,765 terms, 5,168 of them
    intervals, and the entry into v_0 has 4,181 rational terms.
    """
    spec = non_dyadic_spec(depth)
    for e in spec["edges"][-1]:
        if e["id"][0] in "wx":
            e["p"] = ["1/6", "1/4"] if e["id"][0] == "w" else ["2/5", "1/2"]
    return spec


def interval_levels_spec(depth):
    """non_dyadic_spec with interval probabilities on a0 and on every w and x edge."""
    spec = non_dyadic_spec(depth)
    spec["edges"][0][0]["p"] = ["1/4", "1/3"]
    for level in spec["edges"][1:]:
        for e in level:
            if e["id"][0] in "wx":
                e["p"] = ["1/6", "1/4"] if e["id"][0] == "w" else ["2/5", "1/2"]
    return spec


def product_pins(tmp_path):
    """(argv, stdout sha256) of the pinned product and rotation reports."""
    non_dyadic, interval = tmp_path / "non_dyadic.json", tmp_path / "interval.json"
    non_dyadic.write_text(json.dumps(non_dyadic_spec(9)))
    interval.write_text(json.dumps(interval_spec(10)))
    return {
        # recorded before every Laurent product went through one kernel
        ("matrices", "--preset", "circulant:4", "--depth", "8", "--product", "0..8"):
            "cdad6b47c5fbd784c7654c0fdd554d6fa11e5a45618998560b5624fd05133ed7",
        ("rotation", "--cf", CF_STACK, "--matrices", "--polys", "--gaps"):
            "4ce5c25bc3e5ef1b5ad6c70ef9771a5e45529096028a76aed503fec870bb3a99",
        # a non-dyadic product, whose terms have unlike reduced denominators;
        # recorded while each coefficient was stored as a Fraction
        ("matrices", str(non_dyadic), "--product", "0..9"):
            "16da5104c283a944f9a650b67d288acb9a760fdfc8454e701c47f15769fbf3a7",
        # entries of more than one batch, one mixing interval and rational terms;
        # recorded while each polynomial was written through its to_json() dict
        ("matrices", str(interval), "--product", "0..10"):
            "cfc0cd9fce360958638759ad1295ba70a11af4377ffded4f225964568b2e8d9c",
    }


def test_product_and_rotation_report_bytes_are_pinned(capsys, tmp_path):
    for argv, digest in product_pins(tmp_path).items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_partial_product_report_bytes_are_pinned(capsys, tmp_path):
    # stdout sha256 recorded while partial_product multiplied one level at a time
    pins = {
        ("odometer", "0..10"): "b367280106e39cb8a8eb24ffd91195fb5c00740e069d72f12e601a31eb7d4e50",
        ("odometer", "3..10"): "cefaa5752fcefc7538d79e3794178101c226f20b03bb1b2416a3697d8bc81e6e",
        ("odometer", "3..7"): "59e4aaeae2fcea2854a1576d860bb95d8be64da7c662f4f051243b74e39a2b01",
        ("morse", "0..10"): "0433ca419a259ce1f0efb56307a1e0048e6f60d07581b233f51a518284f674a1",
        ("morse", "3..10"): "9bd1a60fb9ded9dd5255ba7ef350a006433b6794c19f2081ca4f7669cf83259e",
        ("morse", "3..7"): "f3de6952cadb241fbf046528047129d006eccbc3b2b93cb4a448d9a81a8754f8",
        ("circulant:4", "0..10"):
            "4a22f4008d5c8caf0f0f9cdfb16cc68504c6be66b5ec80c3bb012c7bbb46d4fc",
        ("circulant:4", "3..10"):
            "c682909262d2d82feda9f6746806d01bff564dd494b7116666d5e2df6b4142e6",
        ("circulant:4", "3..7"):
            "33d75a1c36201729cd86800cd46a1fe6f1c7239dea1d96621248137578f0b830",
    }
    for (preset, levels), digest in pins.items():
        code, out, _ = run_cli(capsys, "matrices", "--preset", preset, "--depth", "10",
                               "--product", levels)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (preset, levels)
    # enclosure-valued factors at every level, multiplied in another grouping by the tree
    path = tmp_path / "interval_levels.json"
    path.write_text(json.dumps(interval_levels_spec(9)))
    code, out, _ = run_cli(capsys, "matrices", str(path), "--product", "0..9")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INTERVAL_LEVELS_PIN


# stdout sha256 of `matrices FILE --product 0..9` on interval_levels_spec(9)
INTERVAL_LEVELS_PIN = "80bdc81a918de67f62cb2118d43548bef2f30341baece19954b0ba4bf91e3b25"


def test_signed_norm_report_bytes_are_pinned(capsys, tmp_path):
    # (1 - x) e_0 has a negative coefficient, so its products with the enclosures of
    # interval_levels_spec(9) go through the four-product rule; recorded while every such
    # product was formed as ints over the corner denominators
    spec, vec = tmp_path / "interval_levels.json", tmp_path / "vec.json"
    spec.write_text(json.dumps(interval_levels_spec(9)))
    vec.write_text(json.dumps([{"0": "1", "1": "-1"}]))
    code, out, _ = run_cli(capsys, "matrices", str(spec), "--norm", str(vec))
    assert code == 0 and "norm" in json.loads(out)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7766f9880a9e8a170ca9ba0ce9b54d812730351e27c8abd2d1962fd5d5ad3065")


def test_interval_product_report_is_its_paths_in_interval_arithmetic(capsys, tmp_path):
    # each coefficient of the pinned product is its path's probabilities multiplied in
    # RatInterval arithmetic, one path at a time, without the shared-denominator store
    spec = interval_levels_spec(9)
    path = tmp_path / "interval_levels.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "matrices", str(path), "--product", "0..9")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == INTERVAL_LEVELS_PIN
    d = B.validate_diagram(spec)
    labels = label_edges(d)
    for v, (entry,) in enumerate(json.loads(out)["product"]["matrix"]):
        want = {}
        for edges in paths_into(d, 9, v):
            p = RatInterval(1)
            for e in edges:
                p = p * e.p
            want[str(sum(labels[e.id] for e in edges))] = (
                [str(p.lo), str(p.hi)] if any(isinstance(e.p, RatInterval) for e in edges) else str(p.lo))
        assert entry == want and any(isinstance(c, list) for c in entry.values())


def test_label_and_validate_report_bytes_are_pinned(capsys, tmp_path):
    # stdout sha256 recorded while a labeling carried its own wmax and wmin tables
    pins = {
        ("label", "odometer"): "98788e6028bf7662ce0e375ba9feff2ff9f2150647e0d44efa501b19a102ea80",
        ("label", "morse"): "84840c76499f8d41832df2e418120e163ddbef8332583a0300d0baf1e2486226",
        ("label", "circulant:4"): "2974d058feb66dfba97cb621429885424c665dc66c93f3e59b490ad8fc779a57",
        ("validate", "odometer"): "d46d61f246b3dccb446c00325797cdab7788ffab9a949a02e79d2131c322eb92",
        ("validate", "morse"): "bc6941676ffe3c2e77cbf61ed17806ea5406c1f86c034d3740413cd8cbc3cbc3",
        ("validate", "circulant:4"):
            "b255e7b23331d592a60f2e95eb6e674f7f17c7d4090baaa76d79c72806f29219",
    }
    for (command, preset), digest in pins.items():
        code, out, _ = run_cli(capsys, command, "--preset", preset, "--depth", "6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, preset)
    path = tmp_path / "non_dyadic.json"
    path.write_text(json.dumps(non_dyadic_spec(9)))
    code, out, _ = run_cli(capsys, "label", str(path))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "73843fa78be581bad4a579cfdbf136ff52feabba12c10f6354aeb6212cf2fa9f")


def test_reports_write_polynomials_without_their_json_dicts(capsys, tmp_path):
    refused = mock.patch.object(LaurentPoly, "to_json", side_effect=AssertionError("to_json"))
    with refused:
        for argv, digest in {**product_pins(tmp_path), **walk_pins(tmp_path)}.items():
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_writing_a_product_peaks_below_its_json_dicts():
    d = B.odometer_diagram(16)
    product = partial_product(build_matrices(d), 0, 16).entries
    assert len(product[0][0].support()) == 2 ** 16

    def peak(write_body):
        tracemalloc.start()
        try:
            write_body()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    direct = peak(lambda: _write_json(product, lambda chunk: None))
    dicts = peak(lambda: _write_json([[p.to_json() for p in row] for row in product],
                                     lambda chunk: None))
    assert direct < dicts, (direct, dicts)


def written_peak_and_size(poly):
    """The tracemalloc peak of writing ``poly`` in runs of at most 64 items, and its text length."""
    chunks = []
    _write_json(poly, chunks.append)
    text = sum(map(len, chunks))

    tracemalloc.start()
    try:
        with mock.patch.object(cli, "_BATCH", 64):
            _write_json(poly, lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, text


# 8,192 items of exponents 1xxxx and 2xxxx in groups of at most 64 keys; a 200-digit
# denominator makes every item string long, so the items are most of what is written
WIDE_KEYS, WIDE_DEN = [f * 10 ** 4 + i for f in (1, 2) for i in range(4096)], 10 ** 200


def test_writing_a_polynomial_holds_one_group_of_items_at_once():
    poly = LaurentPoly._from_ints({e: 1 + e % 2 for e in WIDE_KEYS}, WIDE_DEN)
    peak, text = written_peak_and_size(poly)
    # about 0.1 when one group of 64 items is held at a time, over 0.5 for a first-digit group
    assert peak < text / 4, (peak, text)


def test_writing_a_one_coefficient_polynomial_frees_each_joined_run():
    # every term is 1/10^200: each run is one join of its keys around that one text
    poly = LaurentPoly._from_ints(dict.fromkeys(WIDE_KEYS, 1), WIDE_DEN)
    peak, text = written_peak_and_size(poly)
    assert peak < text / 4, (peak, text)


def test_writing_a_tower_holds_its_boundary_texts_and_two_batches_of_items():
    t = stacking.build_tower(rotation.CFExpansion(range(2, 14)), 7)
    assert t.height > 10 * _BATCH
    indent = "\n  "
    ends = [f'{indent}  "{Fraction(s, t.denominator)}"' for s in range(t.height + 1)]
    items = [f"[{ends[s]},{ends[s + 1]}{indent}]" for s in t.starts[:_BATCH]]
    ends_size = sys.getsizeof(ends) + sum(map(sys.getsizeof, ends))
    batch_size = sys.getsizeof(items) + sum(map(sys.getsizeof, items))
    del items
    tracemalloc.start()
    try:
        _write_json(t, lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a batch's items while they are joined, then its run and the run before it; the item
    # strings of every level at once (about 5 MB more here) would pass the bound by far
    assert peak < ends_size + 2 * batch_size + 64 * 1024, (peak, ends_size, batch_size)


def test_too_long_labels_are_refused_before_labeling(capsys):
    # 2^14285 paths reach level 14285: its largest label has 4,301 digits
    for argv in (["matrices", "--product", "0..14300"], ["label"], ["walk", "--trials", "1"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--preset", "odometer", "--depth", "14300")
        assert time.perf_counter() - started < 5, argv  # about 0.6 s each, most of it the preset
        assert code == 1 and err == "", argv
        assert json.loads(out) == {"error": {"code": "BudgetExceeded", "message":
                                             "the decimal digits of the largest label into level "
                                             "14285 = 4301 exceeds the budget 4300"}}, argv


def long_coefficient_spec():
    """Five levels; each multiplies the denominator of the stay-at-v_0 path by 10^1000."""
    big = 10 ** 1000
    spec = {"levels": [["r"]] + [[f"a{n}", f"b{n}"] for n in range(1, 6)],
            "edges": [[{"id": "s0", "src": 0, "dst": 0, "p": f"1/{big}"},
                       {"id": "t0", "src": 0, "dst": 1, "p": f"{big - 1}/{big}"}]],
            "orders": {"1/0": ["s0"], "1/1": ["t0"]}}
    for n in range(1, 5):
        spec["edges"].append([{"id": f"s{n}", "src": 0, "dst": 0, "p": f"1/{big}"},
                              {"id": f"t{n}", "src": 0, "dst": 1, "p": f"{big - 1}/{big}"},
                              {"id": f"u{n}", "src": 1, "dst": 1, "p": "1"}])
        spec["orders"][f"{n + 1}/0"] = [f"s{n}"]
        spec["orders"][f"{n + 1}/1"] = [f"t{n}", f"u{n}"]
    return spec


def test_too_long_coefficients_are_refused_before_the_first_byte(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_coefficient_spec()))
    code, out, _ = run_cli(capsys, "matrices", str(path), "--product", "0..4")
    assert code == 0 and "1" + "0" * 4000 in out  # 10^4000 has 4,001 digits
    code, out, _ = run_cli(capsys, "matrices", str(path), "--product", "0..5")
    assert code == 1
    assert json.loads(out) == {"error": {"code": "BudgetExceeded", "message":
                                         "the decimal digits of a coefficient of the product "
                                         "= 5001 exceeds the budget 4300"}}


def test_a_walk_law_too_long_to_write_is_refused_before_the_first_byte(capsys, tmp_path):
    # the stay-at-v_0 path has probability 1/10^5000, written with 5,001 digits
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_coefficient_spec()))
    for flags in (["--exact"], ["--exact", "--trials", "10"]):
        code, out, err = run_cli(capsys, "walk", str(path), *flags)
        assert code == 1 and err == "", flags
        assert json.loads(out) == {"error": {"code": "BudgetExceeded", "message":
                                             "the decimal digits of a coefficient of the exact "
                                             "law = 5001 exceeds the budget 4300"}}, flags
    code, out, _ = run_cli(capsys, "walk", str(path), "--depth", "4", "--exact")
    assert code == 0 and "1" + "0" * 4000 in out  # 10^4000 has 4,001 digits


def interval_walk_spec():
    """Two levels; the root's edges and two edges into c carry interval probabilities."""
    return {"levels": [["r"], ["a", "b"], ["c", "d"]],
            "edges": [[{"id": "e0", "src": 0, "dst": 0, "p": ["1/3", "1/2"]},
                       {"id": "e1", "src": 0, "dst": 1, "p": ["1/2", "2/3"]}],
                      [{"id": "f0", "src": 0, "dst": 0, "p": "1/4"},
                       {"id": "f1", "src": 0, "dst": 1, "p": "3/4"},
                       {"id": "f2", "src": 1, "dst": 0, "p": ["1/5", "2/5"]},
                       {"id": "f3", "src": 1, "dst": 0, "p": ["3/5", "4/5"]}]],
            "orders": {"1/0": ["e0"], "1/1": ["e1"], "2/0": ["f2", "f0", "f3"], "2/1": ["f1"]}}


def walk_pins(tmp_path):
    """(argv, stdout sha256) of the pinned walk reports."""
    small, interval = tmp_path / "interval_walk.json", tmp_path / "interval.json"
    small.write_text(json.dumps(interval_walk_spec()))
    interval.write_text(json.dumps(interval_spec(10)))
    return {
        # recorded while a walk law was a dict of dicts of Fractions
        ("walk", "--preset", "circulant:4", "--depth", "5", "--exact", "--trials", "2000",
         "--seed", "3"): "afa6973c76d4cadd3ac8a7c77607a47058fff25d7bac1626bf057eea10cd2e80",
        ("walk", "--preset", "morse", "--depth", "4"):
            "51f8ee89a1db7b8b98f2329848dcaa240bb734cb4e9d0eebe2daf9d2616de6b6",
        ("walk", str(small), "--exact"):
            "d1fac803a88e4ec56b46b0eb861df6cb419f1cb0377c86f12bc41242ef1bf77f",
        # recorded while each mass was written through its to_json() dict; the
        # interval law has masses of more than one batch, interval pairs among them
        ("walk", "--preset", "circulant:4", "--depth", "5", "--exact", "--trials", "1000",
         "--seed", "7"): "b7ad20bfa15732970ff4ee74d5f1f70c6ed223687ccc2e930ffed84c02beca6e",
        ("walk", str(interval), "--exact"):
            "dbe5d244cceefd5ddb22de808d1dafb1210dabc426602e5b053b0a30f1ef7591",
    }


def test_walk_report_bytes_are_pinned(capsys, tmp_path):
    for argv, digest in walk_pins(tmp_path).items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_walk_report_bytes_across_sampler_blocks_are_pinned(capsys):
    # stdout sha256 recorded while each trial was mixed on its own; 9000 trials
    # fill two sampler blocks of 4096 and part of a third
    code, out, _ = run_cli(capsys, "walk", "--preset", "circulant:4", "--depth", "5",
                           "--trials", "9000", "--seed", "336077931")
    assert code == 0
    assert json.loads(out)["empirical"]["trials"] == 9000
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "63183a35ba20e97eb244212d9f39b4e89d955dc4ec134417526ac66fb5c56a42")



# stdout sha256 of the walk benchmark's three reports at 100,000 trials (49 sampler
# blocks), recorded while each step subtracted and multiplied per outcome
BENCHMARK_WALK_PINS = {
    ("odometer", "6"): "e863c08c7d6ab1c7c30be14e7adb31b222ac90ffb2cbdaf77549b3e98ed0a809",
    ("morse", "6"): "0b6fbe77aa2bcaca6b8670cf535ceeb13719b721f97e30012736a873c82bf164",
    ("circulant:4", "5"): "f2509b0caaa68ec20b9b85019f25448178cc5b3eaa68434bc3230eedb34cf4ce",
}


@pytest.mark.parametrize("preset, depth", sorted(BENCHMARK_WALK_PINS))
def test_walk_report_bytes_at_benchmark_scale_are_pinned(capsys, preset, depth):
    code, out, _ = run_cli(capsys, "walk", "--preset", preset, "--depth", depth, "--exact",
                           "--trials", "100000", "--seed", "12345")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_WALK_PINS[preset, depth]


def test_walk_refuses_a_seed_outside_64_bits(capsys):
    # -1 and 2^64 - 1 (and 0 and 2^64) once wrote the same report
    argv = ("walk", "--preset", "odometer", "--depth", "3", "--trials", "5", "--seed")
    for seed in ("-1", str(1 << 64)):
        code, out, _ = run_cli(capsys, *argv, seed)
        assert code == 1
        assert json.loads(out)["error"] == {"code": "BadInput",
                                            "message": f"seed {seed} outside 0..2^64-1"}
    reports = []
    for seed in ("0", str((1 << 64) - 1)):
        code, out, _ = run_cli(capsys, *argv, seed)
        assert code == 0
        reports.append(json.loads(out)["empirical"])
    assert reports[0] != reports[1] and all(r["trials"] == 5 for r in reports)

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


def test_reader_closing_mid_report_exits_1_without_traceback():
    # the reader takes the first 4 KB of a multi-batch report, then closes the pipe
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for env in (buffered, dict(buffered, PYTHONUNBUFFERED="1")):
        proc = subprocess.Popen([sys.executable, "-m", "adicspace.cli", *MULTI_BATCH],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(4096)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1, env.get("PYTHONUNBUFFERED")
        assert head.startswith(b'{\n  "height": ') and err == b"", err


short_strs = st.lists(st.text(), max_size=9)
json_leaves = (st.none() | st.booleans() | st.integers() | st.text() | short_strs
               | st.lists(st.tuples(st.text(), st.text()), max_size=9)
               | st.dictionaries(st.text(), st.text(), max_size=9))
json_trees = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)
                  # one other item among str items
                  | st.builds(lambda xs, x, i: [*xs[:i], x, *xs[i:]], short_strs, kids,
                              st.integers(0, 9))),
    max_leaves=8)


def _json_dumps_mismatch(obj):
    """None when the writer's chunks join to json.dumps(obj, sort_keys=True, indent=2),
    else the first differing offset with some text around it on each side: a short
    report where pytest's diff of two long strings takes minutes."""
    chunks = []
    _write_json(obj, chunks.append)
    got = "".join(chunks)
    want = json.dumps(obj, sort_keys=True, indent=2, default=LaurentPoly.to_json)
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[max(0, i - 40):i + 40], want[max(0, i - 40):i + 40]


@given(json_trees, st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_write_json_matches_json_dumps(obj, batch):
    with mock.patch.object(cli, "_BATCH", batch):  # batches this small cross their boundaries often
        assert _json_dumps_mismatch(obj) is None


# exponents whose strings sort unlike their values, and some past 64 bits
exponents_st = st.sampled_from([-10, -2, -1, 0, 1, 2, 10]) | st.integers(-2 ** 70, 2 ** 70)
rationals_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)
intervals_st = st.builds(lambda lo, width: RatInterval(lo, lo + width), rationals_st,
                         st.just(Fraction(0)) | st.fractions(min_value=0, max_value=2,
                                                             max_denominator=12))
report_polys_st = st.dictionaries(exponents_st, rationals_st | intervals_st,
                                  max_size=9).map(LaurentPoly)


@st.composite
def nested_polys(draw):
    """A polynomial at depth 0 to 3 of lists, dicts and (poly, poly) tuples."""
    node = draw(report_polys_st)
    for kind in draw(st.lists(st.sampled_from(["list", "dict", "pair"]), max_size=3)):
        other = draw(report_polys_st)
        node = {"list": [node, other], "dict": {"b": node, "a": other, "c": "s"},
                "pair": (node, other)}[kind]
    return node


@given(nested_polys(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_write_json_matches_json_dumps_with_polynomials(obj, batch):
    with mock.patch.object(cli, "_BATCH", batch):
        assert _json_dumps_mismatch(obj) is None


@pytest.mark.parametrize("n", [_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_write_json_matches_json_dumps_at_full_batches(n):
    texts = ["a", "\u00e9\x00\u2028\U0001d11e", '"\\/']
    poly = LaurentPoly({e - n // 2: Fraction(1, 1 + e % 7) if e % 3 else RatInterval(-e, 1)
                        for e in range(n)})
    one_coeff = LaurentPoly({e - n // 2: Fraction(-1, 3) for e in range(n)})
    assert poly.num_terms() == one_coeff.num_terms() == n
    obj = {"strs": [texts[i % 3] for i in range(n)],
           "pairs": [(texts[i % 3], str(i)) for i in range(n)],
           "map": {str(i): texts[i % 3] for i in range(n)},
           "mixed": [*map(str, range(n)), 1, [], {}, ("a", "b")],
           "poly": [[poly, LaurentPoly.zero(), one_coeff]]}
    assert _json_dumps_mismatch(obj) is None


@pytest.mark.parametrize("bad", [
    0.5, Fraction(1, 2), {"a"}, {1: "a"}, {"a": "b", 2: "c"}, [Fraction(1)],
    ["a"] * (_BATCH + 5) + [0.5], [("a", "b")] * 3 + [("a", 0.5)], {"k": 1.0}, {("a", "b"): "c"},
])
def test_write_json_refuses_what_is_not_a_report_value(bad):
    with pytest.raises(TypeError):
        _write_json(bad, lambda chunk: None)


def test_validate_rejects_json_float_and_bool_p(tmp_path, capsys):
    spec = {"levels": [["r"], ["a"]],
            "edges": [[{"id": "e0", "src": 0, "dst": 0, "p": 1}]],
            "orders": {"1/0": ["e0"]}}
    path = tmp_path / "d.json"
    for p, ok in ((1, True), ("1", True), ("2/2", True), (1.0, False), (0.1, False),
                  (True, False), ("0.5", False), ("1e0", False), ("1/0", False)):
        spec["edges"][0][0]["p"] = p
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(path))
        if ok:
            assert code == 0 and json.loads(out)["ok"], p
        else:
            assert code == 1 and err == "", p
            error = json.loads(out)["error"]
            assert error["code"] == "BadInput" and "'e0'" in error["message"], p
            if p == "1/0":
                assert error["message"] == "malformed edge 'e0' in E_0: '1/0' has a zero denominator"


def test_validate_rejects_non_integer_src_and_dst(tmp_path, capsys):
    path = tmp_path / "d.json"
    for field, value in (("dst", 0.9), ("src", False), ("dst", True), ("src", 0.0),
                         ("dst", "0"), ("src", None)):
        spec = {"levels": [["r"], ["a"]],
                "edges": [[{"id": "e0", "src": 0, "dst": 0, "p": "1"}]],
                "orders": {"1/0": ["e0"]}}
        spec["edges"][0][0][field] = value
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1 and err == "", (field, value)
        error = json.loads(out)["error"]
        assert error["code"] == "BadInput" and "'e0'" in error["message"], (field, value)


def test_budget_refusal_compares_exponents_first(capsys):
    code, out, _ = run_cli(capsys, "at", "--M", "3", "--N", "2")
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "BudgetExceeded",
        "message": "k * 2^((4M+1)N) = 268435456 exceeds the budget 1048576"}
    # 2^16002000 has about 4.8 million decimal digits: it is refused, never written out
    code, out, _ = run_cli(capsys, "at", "--M", "2000", "--N", "2000")
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "BudgetExceeded",
        "message": "k * 2^((4M+1)N) = 4 * 2^16002000 exceeds the budget 1048576"}


def test_norm_vector_rejects_hostile_json(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    # (vector JSON, text the message must contain)
    cases = [('{"0": "1"}', "list"), ("5", "list"), ("[[1, 2]]", "object"),
             ('[{"0": ["1"]}]', "'0'"), ('[{"0": ["1", "2", "3"]}]', "'0'"),
             ('[{"3": 0.1}]', "'3'"), ('[{"-2": true}]', "'-2'"), ('[{"0": null}]', "'0'"),
             ('[{"0": "1/0"}]', "'0'"), ('[{"0": "1e5"}]', "'0'"), ('[{"x": "1"}]', "'x'"),
             ('[{"0": ["1/2", "1/3"]}]', "'0'")]
    for text, named in cases:
        vec.write_text(text)
        code, out, err = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "2",
                                 "--norm", str(vec))
        assert code == 1 and err == "", text
        error = json.loads(out)["error"]
        assert error["code"] == "BadInput" and named in error["message"], text
    vec.write_text('[{"0": ["1/3", "1/2"], "1": -1}]')
    code, out, _ = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "2",
                           "--norm", str(vec))
    assert code == 0 and "norm" in json.loads(out)


def test_norm_vector_refuses_two_keys_for_one_exponent(tmp_path, capsys):
    # json.loads alone keeps the last of two equal keys, and int() reads "7" and "007" alike
    vec = tmp_path / "vec.json"
    for text, message in (('[{"7": "1", "007": "2"}]', "keys '7' and '007' name one exponent, 7"),
                          ('[{"7": "1", "7": "2"}]', "a JSON object has two keys '7'")):
        vec.write_text(text)
        code, out, err = run_cli(capsys, "matrices", "--preset", "odometer", "--depth", "2",
                                 "--norm", str(vec))
        assert code == 1 and err == ""
        assert json.loads(out) == {"error": {"code": "BadInput", "message": message}}, text


def test_diagram_file_refuses_two_keys_for_one_vertex(tmp_path, capsys):
    spec = non_dyadic_spec(2)  # vertex 1/0 has the one in-edge a0
    path = tmp_path / "d.json"
    text = json.dumps(spec)
    for doubled, message in (('"01/0": ["a0"], "1/0"', "order keys '01/0' and '1/0' name one vertex, 1/0"),
                             ('"1/0": ["a0"], "1/0"', "a JSON object has two keys '1/0'")):
        path.write_text(text.replace('"1/0"', doubled, 1))
        for command in ("validate", "matrices"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and err == ""
            assert json.loads(out) == {"error": {"code": "BadInput", "message": message}}, doubled


def test_rational_flags_reject_zero_denominators_and_non_fractions(capsys):
    for flags in (("--map", "1/0"), ("--compare", "--tolerance", "1/0"), ("--map", "0.5"),
                  ("--map", "1e3"), ("--compare", "--tolerance", "0.1")):
        code, out, err = run_cli(capsys, "stack", "--cf", "2,3", "--stage", "2", *flags)
        assert code == 1 and err == "", flags
        assert json.loads(out)["error"]["code"] == "BadInput", flags
        if flags[-1] == "1/0":  # our message, not Python's "Fraction(1, 0)"
            assert json.loads(out)["error"]["message"] == "'1/0' has a zero denominator"
    # no distance >= 0 is within a negative tolerance, given as its own argument or after "="
    for tol in (("--tolerance", "-1"), ("--tolerance=-1/1000000",)):
        code, out, err = run_cli(capsys, "stack", "--cf", "2,3,4", "--stage", "1", "--compare", *tol)
        assert code == 1 and err == "", tol
        assert json.loads(out)["error"] == {"code": "BadInput",
                                            "message": "tolerance must be >= 0"}, tol
    for rule in ("linear:c=-1", "linear:c=0", "geometric:c=-1,g=2", "linear:c=1/0"):
        code, out, err = run_cli(capsys, "rotation", "--cf", "1,1,1,1,1,1", "--rule", rule)
        assert code == 1 and err == "", rule
        assert json.loads(out)["error"]["code"] == "BadInput", rule


def test_seed_and_budget_only_where_they_are_read():
    for argv in (["validate", "--preset", "morse", "--depth", "2", "--seed", "1"],
                 ["stack", "--cf", "2,3", "--stage", "2", "--budget", "5"],
                 ["label", "--preset", "morse", "--depth", "2", "--budget", "5"],
                 ["validate", "--preset", "morse", "--depth", "2", "--budget", "5"],
                 ["rotation", "--cf", "2,3,4,5", "--budget", "5"],
                 ["at", "--M", "1", "--N", "1", "--seed", "1"]):
        code, _, err = run_quietly(argv)
        assert code == 2 and "unrecognized arguments" in err, argv
    for argv in (["matrices", "--preset", "odometer", "--depth", "5", "--product", "0..5"],
                 ["walk", "--preset", "odometer", "--depth", "5", "--exact"],
                 ["at", "--M", "1", "--N", "1"]):
        assert run_quietly(argv + ["--budget", "1048576"]) == run_quietly(argv), argv


# -- fuzzing cli.main with hostile input -------------------------------------------

ERROR_CODES = {cls.code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.AdicspaceError)}


def run_quietly(argv):
    """Exit code, stdout and stderr of main(argv); an argparse exit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_coded_exit(argv):
    """Exit 0, 1 or 2, with a report, an errors.py code or argparse usage; never a raise."""
    code, out, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert "tool" in json.loads(out)
    elif code == 1:
        assert json.loads(out)["error"]["code"] in ERROR_CODES, argv
    elif err.startswith("{"):
        assert json.loads(err)["error"]["code"] in ERROR_CODES, argv
    else:
        assert err.startswith("usage:"), argv


json_leaves = (st.none() | st.booleans() | st.integers(-3, 5) | st.floats(width=16)
               | st.text("0123456789/-.e ", max_size=12))
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.text("0123/-abdegilnoprstv", max_size=6), kids, max_size=3),
    max_leaves=8)
DIAGRAM = B.diagram_to_json(B.circulant_diagram(2, 2))


@st.composite
def diagram_specs(draw):
    """A top-level JSON value, or the circulant diagram with a few nodes replaced or removed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    spec = copy.deepcopy(DIAGRAM)
    for _ in range(draw(st.integers(1, 3))):
        node = spec
        while True:
            keys = list(range(len(node))) if isinstance(node, list) else sorted(node)
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (list, dict)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.integers(0, 4)) == 0:
                del node[key]
            else:
                node[key] = draw(json_values)
            break
        if not spec:
            break
    return spec


coefficients = (json_leaves | st.lists(st.integers(-2, 2) | st.text("0123/-", max_size=3),
                                       max_size=3))
norm_vectors = st.lists(st.dictionaries(st.text("-0123x", max_size=3), coefficients,
                                        max_size=3), max_size=2) | json_values
rational_texts = (st.text("0123456789/-.e", max_size=12)
                  | st.builds("{}/{}".format, st.integers(-3, 9), st.integers(-1, 9)))
flag_values = st.one_of(
    st.tuples(st.just("--map"), rational_texts),
    st.tuples(st.just("--tolerance"), rational_texts),
    st.tuples(st.just("--rule"), st.text("0123456789/-.e:=,cglinearmot", max_size=16)
              | st.builds("{}:c={},g={}".format, st.sampled_from(["linear", "geometric", "x"]),
                          rational_texts, rational_texts)),
    st.tuples(st.just("--product"), st.text("0123456789.-", max_size=8)
              | st.builds("{}..{}".format, st.integers(-2, 5), st.integers(-2, 5))))
FLAG_COMMANDS = {
    "--map": ["stack", "--cf", "2,3", "--stage", "2"],
    "--tolerance": ["stack", "--cf", "2,3,4", "--stage", "2", "--compare", "--grid", "20"],
    "--rule": ["rotation", "--cf", "1,2,3,4,5,6", "--polys", "--depth", "2"],
    "--product": ["matrices", "--preset", "morse", "--depth", "3"],
}


@given(diagram_specs(), st.sampled_from([["validate"], ["label"], ["walk", "--exact"],
                                         ["matrices", "--product", "0..2"]]))
@settings(max_examples=60, deadline=None)
def test_fuzz_diagram_json(tmp_path_factory, spec, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-diagram.json"
    path.write_text(json.dumps(spec))
    assert_coded_exit(command + [str(path)])


@given(norm_vectors, st.integers(-1, 3))
@settings(max_examples=50, deadline=None)
def test_fuzz_norm_vector_json(tmp_path_factory, vector, horizon):
    path = tmp_path_factory.getbasetemp() / "fuzz-vector.json"
    path.write_text(json.dumps(vector))
    assert_coded_exit(["matrices", "--preset", "odometer", "--depth", "2", "--norm", str(path),
                       "--horizon", str(horizon)])


@given(flag_values)
@settings(max_examples=80, deadline=None)
def test_fuzz_rational_flags(flag_value):
    flag, value = flag_value
    assert_coded_exit(FLAG_COMMANDS[flag] + [f"{flag}={value}"])


# Small values and values far over every budget.  The sizes in between are left
# out on purpose: they are legitimate work that takes seconds to minutes (a
# 2^19-level odometer, a 2^20-monomial circulant class), not refusals.
int_values = st.integers(-3, 12) | st.integers(1 << 40, 1 << 80)
MORSE_FILE = "<morse-4.json>"  # test_fuzz_integer_flags writes a depth-4 Morse diagram here
INT_FLAG_COMMANDS = {
    "--grid": [["stack", "--cf", "2,3,4", "--stage", "2", "--compare"]],
    "--stage": [["stack", "--cf", "2,3,4"]],
    "--depth": [["validate", "--preset", "odometer"], ["label", "--preset", "morse"],
                ["walk", "--preset", "circulant:3", "--exact"],
                ["matrices", "--preset", "odometer", "--product", "0..2"],
                ["walk", MORSE_FILE, "--exact"],
                ["rotation", "--cf", "1,2,3,4,5,6", "--matrices", "--polys", "--gaps"]],
    "--seed": [["walk", "--preset", "odometer", "--depth", "3", "--trials", "5"]],
    "--k": [["at", "--M", "1", "--N", "1"]],
    "--M": [["at", "--N", "1"]],
    "--N": [["at", "--M", "1"]],
    "--budget": [["matrices", "--preset", "odometer", "--depth", "5", "--product", "0..5"],
                 ["walk", "--preset", "odometer", "--depth", "5", "--exact"],
                 ["at", "--M", "1", "--N", "1"]],
}


# The integer flags left out of INT_FLAG_COMMANDS, each with its reason.
INT_FLAG_EXCLUSIONS = {
    "--trials": "asks for work linear in its value, so 2^40 trials would not finish",
    "--greedy": "asks for work linear in its value, so 2^40 sweeps would not finish",
    "--horizon": "needs a --norm file; test_fuzz_norm_vector_json fuzzes it",
}


def test_integer_flag_fuzz_table_follows_the_parser():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    int_options = {(name, option) for name, p in commands.items() for a in p._actions
                   if a.type is int for option in a.option_strings}
    assert set(INT_FLAG_COMMANDS) | set(INT_FLAG_EXCLUSIONS) == {o for _, o in int_options}
    assert not set(INT_FLAG_COMMANDS) & set(INT_FLAG_EXCLUSIONS)
    unfuzzed = sorted((name, option) for name, option in int_options
                      if option in INT_FLAG_COMMANDS
                      and all(argv[0] != name for argv in INT_FLAG_COMMANDS[option]))
    assert unfuzzed == []


@given(st.sampled_from(sorted(INT_FLAG_COMMANDS)), int_values, st.data())
@settings(max_examples=80, deadline=None)
def test_fuzz_integer_flags(tmp_path_factory, flag, value, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-morse-4.json"
    path.write_text(json.dumps(B.diagram_to_json(B.morse_diagram(4))))
    command = data.draw(st.sampled_from(INT_FLAG_COMMANDS[flag]))
    assert_coded_exit([str(path) if arg == MORSE_FILE else arg for arg in command]
                      + [f"{flag}={value}"])


@given(st.text("0123456789 -+_.ex", max_size=8)
       | st.sampled_from(["9" * 5000, "-1", "0", "\u0663", "1e9"]),
       st.sampled_from(INT_FLAG_COMMANDS["--budget"]))
@settings(max_examples=50, deadline=None)
def test_fuzz_budget_flag_text(text, command):
    assert_coded_exit(command + [f"--budget={text}"])


# Valid terms stay below 100 (every token is followed by a separator): the stage-2
# tower has q(2) = a(1) a(2) + 1 levels, so a large term would be a size test.
cf_tokens = (st.integers(-3, 40).map(str)
             | st.sampled_from(["", " ", "x", "1.5", "1/2", "1e3", "+2", "0x1", "2_0", "\u0663",
                                "9" * 5000, "nan"])
             | st.text("0123456789 ,.-+e/x\t\n", max_size=2))
cf_texts = st.lists(st.tuples(cf_tokens, st.sampled_from([",", ", ", " ", ",,", "\n", ";"])),
                    max_size=5).map(lambda pairs: "".join(t + sep for t, sep in pairs)[:-1])


@given(cf_texts, st.booleans())
@settings(max_examples=80, deadline=None)
def test_fuzz_cf_text(tmp_path_factory, text, from_file):
    if from_file:
        path = tmp_path_factory.getbasetemp() / "fuzz-cf.txt"
        path.write_text(text, encoding="utf-8")
        source = [f"--cf-file={path}"]
    else:
        source = [f"--cf={text}"]
    assert_coded_exit(["stack", *source, "--stage", "2"])

