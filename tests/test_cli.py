"""Tests for the command-line interface."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import srkweak
from srkweak import harness, tableau
from srkweak.cli import build_parser, main
from srkweak.conditions import REDUCED_TOLERANCE, TABLE_TOLERANCE
from srkweak.tableau import registry_get, save_method, tableau_to_dict


def strict_json(text):
    """Parse as JSON proper: Python's json would also read NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_check_reduced_ok(capsys):
    assert main(["check", "BDK1", "--reduced"]) == 0
    out = capsys.readouterr().out
    assert "all satisfied" in out


def test_check_both_reports(capsys):
    assert main(["check", "StratoExplicit24"]) == 0
    out = capsys.readouterr().out
    assert "reduced conditions" in out and "table conditions" in out


def test_check_json(capsys):
    assert main(["check", "BDK3", "--table", "--json"]) == 0
    [payload] = json.loads(capsys.readouterr().out)
    assert payload["all_satisfied"] is True
    assert len(payload["records"]) == 43


@pytest.mark.parametrize(
    "part,tolerance,n_superfluous",
    [("--table", TABLE_TOLERANCE, 27), ("--reduced", REDUCED_TOLERANCE, 2)],
)
def test_check_json_record_schema(part, tolerance, n_superfluous, capsys):
    assert main(["check", "BDK1", part, "--json"]) == 0
    [payload] = strict_json(capsys.readouterr().out)
    assert payload["kind"] == part[2:]
    keys = ["id", "description", "forest", "lhs", "target", "residual", "satisfied", "tolerance", "superfluous"]
    for rec in payload["records"]:
        assert list(rec) == keys
        assert rec["tolerance"] == tolerance
        assert rec["superfluous"] is (rec["target"] == 0.0)
    assert sum(rec["superfluous"] for rec in payload["records"]) == n_superfluous


def test_check_json_without_a_route_flag_is_one_document(capsys):
    assert main(["check", "BDK1", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in reports] == ["reduced", "table"]
    assert all(r["method"] == "BDK1" and r["all_satisfied"] for r in reports)


def test_check_report_text_and_json(capsys):
    assert main(["check", "BDK1", "--reduced"]) == 0
    text = capsys.readouterr().out
    assert "ito.1" in text and "all satisfied" in text
    assert main(["check", "BDK1", "--json"]) == 0
    reduced, table = strict_json(capsys.readouterr().out)
    assert reduced["all_satisfied"] is True
    assert len(reduced["records"]) == 10
    assert len(table["records"]) == 43


def test_check_json_writes_an_overflowing_residual_as_null(tmp_path, capsys):
    # finite entries whose products overflow: the condition values are inf or nan
    data = json.dumps(tableau_to_dict(registry_get("BDK1"))).replace("1.0", "1e200")
    assert "1e200" in data
    path = tmp_path / "huge.json"
    path.write_text(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warning is not output
        assert main(["check", str(path), "--table", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [payload] = strict_json(captured.out)
    assert payload["all_satisfied"] is False
    assert any(rec["lhs"] is None for rec in payload["records"])


def test_check_fails_on_broken_method(tmp_path, capsys):
    data = tableau_to_dict(registry_get("BDK1"))
    data["alpha"] = [0.5, 0.6]
    data["name"] = "broken"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--reduced"]) == 1


def test_check_accepts_method_file(tmp_path, capsys):
    path = tmp_path / "bdk1.json"
    save_method(registry_get("BDK1"), path)
    assert main(["check", str(path)]) == 0


def test_converge_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "converge",
            "det_exponential",
            "BDK2",
            "--h",
            "0.5,0.25",
            "--batches",
            "2",
            "--paths",
            "1",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "method,problem,h,estimate,stderr,exact,abs_error,effort"
    assert "BDK2" in text
    assert "observed order" in capsys.readouterr().out


def test_converge_csv_and_json_output(tmp_path, capsys):
    path = tmp_path / "conv.csv"
    argv = ["converge", "det_exponential", "BDK2", "--h", "0.5,0.25", "--batches", "2", "--paths", "1"]
    assert main(argv + ["--seed", "0", "--out", str(path), "--json"]) == 0
    wrote, document = capsys.readouterr().out.split("\n", 1)
    assert wrote == f"wrote {path}"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["h"] for r in rows] == ["0.5", "0.25"]
    assert set(rows[0]) == {"method", "problem", "h", "estimate", "stderr", "exact", "abs_error", "effort"}
    payload = strict_json(document)
    assert payload["method"] == "BDK2"
    records = payload["records"]
    assert len(records) == 2
    assert payload["slope"] == harness.fit_slope([r["h"] for r in records], [r["abs_error"] for r in records])


def test_converge_csv_writes_an_unknown_value_as_an_empty_field(tmp_path, capsys):
    # the double well has no closed-form expectation, so neither exact nor abs_error is known
    out = tmp_path / "dw.csv"
    argv = ["converge", "doublewell_langevin", "BDK2", "--h", "0.5,0.25", "--batches", "2", "--paths", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    assert "nan" not in out.read_text()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["exact"], r["abs_error"]) for r in rows] == [("", ""), ("", "")]
    assert all(math.isfinite(float(r["estimate"])) for r in rows)


def test_converge_json_writes_an_unknown_error_as_null(capsys):
    # the double well has no closed-form expectation, so no error and no slope
    argv = ["converge", "doublewell_langevin", "BDK2", "--h", "0.5,0.25", "--batches", "2", "--paths", "3"]
    assert main(argv + ["--json"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["slope"] is None
    assert [rec["abs_error"] for rec in payload["records"]] == [None, None]
    assert all(math.isfinite(rec["estimate"]) for rec in payload["records"])


def test_converge_text_prints_an_unknown_number_as_a_dash(capsys):
    # the double well has no closed-form expectation: no error, slope or local order
    argv = ["converge", "doublewell_langevin", "BDK2", "--h", "0.5,0.25", "--batches", "2", "--paths", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "nan" not in out.lower()
    lines = out.splitlines()
    assert "observed order - (least squares" in lines[0]
    assert "abs_error=- " in lines[1] and "abs_error=- " in lines[2]
    assert lines[2].endswith(" local_order=-")


def test_converge_prints_fit_range_and_local_orders(capsys):
    args = ["converge", "det_exponential", "BDK2", "--h", "0.5,0.25,0.125", "--batches", "2", "--paths", "1"]
    assert main(args + ["--json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "least squares over h = 0.5 ... 0.125, 3 step sizes" in lines[0]
    assert "local_order" not in lines[1]
    for coarse, fine, line in zip(records[:-1], records[1:], lines[2:], strict=True):
        local = math.log2(coarse["abs_error"] / fine["abs_error"]) / math.log2(coarse["h"] / fine["h"])
        assert line.endswith(f"local_order={local:.3f}")


def test_effort_output(capsys, monkeypatch):
    from srkweak import harness

    probes = []
    integrate = harness.integrate_paths
    monkeypatch.setattr(harness, "integrate_paths", lambda *a, **k: probes.append(1) or integrate(*a, **k))
    assert main(["effort", "BDK3", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "N_d=3" in out and "N_s=2" in out and "N_r=2" in out and "effort=7" in out
    assert len(probes) == 1  # one instrumented step gives N_d and N_s


def test_forests_listing(capsys):
    assert main(["forests", "--max-order", "1", "--exotic"]) == 0
    out = capsys.readouterr().out
    assert "[1[1]]" in out and "phi_i f^{p1,i}_{i1} f^{p1,i1}" in out


def test_forests_order_three_lists_every_exotic_flow_coefficient(capsys):
    assert main(["forests", "--max-order", "3", "--exotic"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 669
    assert not [row[0] for row in rows if "-" in (row[3], row[4])]
    by_forest = {row[0]: row for row in rows}
    assert by_forest["[0[0][0]]"][3:5] == ["1/3", "1/3"]
    assert by_forest["[0[0[0]]]"][3:5] == ["1/6", "1/6"]


def test_forests_listing_stops_quietly_when_its_reader_closes_the_pipe():
    env = {**os.environ, "PYTHONPATH": str(Path(srkweak.__file__).parents[1])}
    cmd = [sys.executable, "-m", "srkweak.cli", "forests", "--max-order", "3"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"forest")
        proc.stdout.close()  # as `| head -1` does; the listing is far longer than a pipe buffer
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert err == b""
    assert code == 128 + 13  # the status of a process killed by SIGPIPE


def test_commands_parse_without_reading_the_method_registry(monkeypatch, capsys):
    def no_registry():
        raise AssertionError("read the method registry")

    monkeypatch.setattr(tableau, "_registry", no_registry)
    build_parser()
    assert main(["forests", "--max-order", "1"]) == 0
    assert capsys.readouterr().out.startswith("forest")


def test_forests_table(capsys):
    assert main(["forests", "--table"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 44  # header + 43 rows


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["forests", "--table"], "364b5ce3774aa15b3281bf277a555bff318d895a20f1033043a1d674748e0aff"),
        (
            ["forests", "--max-order", "3"],
            "14958926a35e85c99a9247bcd33facb1a92363e618810630e329c13cfb88b932",
        ),
    ],
    ids=["table", "order_three"],
)
def test_forests_output_is_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_invariant_command(capsys):
    code = main(
        [
            "invariant",
            "--potential",
            "ou",
            "--h",
            "0.25",
            "--steps",
            "20000",
            "--burn-in",
            "200",
            "--seed",
            "3",
            "--chains",
            "20",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["second_moment"][0] - 1.0) < 0.15


def test_invariant_json_writes_an_undefined_stderr_as_null(capsys):
    # one step per chain fills one time batch, which has no spread
    assert main(["invariant", "--h", "0.25", "--steps", "5", "--burn-in", "0", "--chains", "100"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["mean_stderr"] == payload["second_moment_stderr"] == [None]
    assert math.isfinite(payload["mean"][0]) and math.isfinite(payload["second_moment"][0])


def test_invariant_reports_the_chain_steps_it_averaged(capsys):
    # 5 steps over 100 chains round up to one post-burn-in step per chain
    assert main(["invariant", "--h", "0.25", "--steps", "5", "--chains", "100"]) == 0
    assert strict_json(capsys.readouterr().out)["steps"] == 100


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "NoSuchMethod"],
        ["converge", "no_such_problem", "BDK1", "--h", "0.5,0.25"],
        ["invariant", "--potential", "no_such_potential", "--h", "0.1", "--steps", "10"],
        ["effort", "BDK1", "--m", "0"],
        ["check", "MALFORMED"],
        ["check", "MISSING"],
        ["check", "NAN_ENTRY"],
        ["check", "HUGE_ENTRY", "--reduced"],
        ["check", "NULL_DET_ORDER"],
    ],
    ids=[
        "method", "problem", "potential", "effort_m0", "malformed_file", "missing_file",
        "nan_entry", "huge_entry", "null_det_order",
    ],
)
def test_input_errors_print_one_line_and_exit_2(argv, tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"name": "x",')
    files = {"MALFORMED": str(malformed), "MISSING": str(tmp_path / "missing.json")}
    bdk1 = json.dumps(tableau_to_dict(registry_get("BDK1")))
    for name, literal in [("NAN_ENTRY", "NaN"), ("HUGE_ENTRY", "1e400")]:
        files[name] = str(tmp_path / f"{name.lower()}.json")
        Path(files[name]).write_text(bdk1.replace('"alpha": [0.5,', f'"alpha": [{literal},'))
    files["NULL_DET_ORDER"] = str(tmp_path / "null_det_order.json")
    Path(files["NULL_DET_ORDER"]).write_text(bdk1.replace('"det_order": 2', '"det_order": null'))
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("srkweak: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "sinh1d", "BDK2", "--h", "0.5,0.25", "--batches", "2", "--paths", "0"],
        ["invariant", "--h", "0.1", "--steps", "0"],
        ["invariant", "--h", "0.1", "--steps", "10", "--burn-in", "-5"],
        ["invariant", "--h", "0", "--steps", "10"],
        ["invariant", "--h", "-0.1", "--steps", "10"],
        ["forests", "--max-order", "-1"],
        ["forests", "--max-order", "0"],
        ["converge", "sinh1d", "BDK2", "--h", "0.5,0.25", "--seed", "-3"],
        ["invariant", "--h", "0.1", "--steps", "10", "--seed", "-1"],
        ["invariant", "--h", "0.1", "--steps", "10", "--chains", "0"],
    ],
    ids=[
        "paths_0", "steps_0", "negative_burn_in", "h_0", "negative_h",
        "max_order_negative", "max_order_0", "converge_negative_seed", "invariant_negative_seed",
        "chains_0",
    ],
)
def test_impossible_run_sizes_print_one_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("srkweak: error: ")
    assert "nan" not in captured.err.lower() and "math domain" not in captured.err
    if "--seed" in argv:  # the message names the seed and its value
        assert f"seed must be a non-negative integer, got {argv[-1]}" in lines[0]


@pytest.mark.parametrize(
    "h,message",
    [("0.5", "at least two step sizes"), ("0.5,0.3", "not a whole number of steps")],
)
def test_converge_rejects_bad_step_sizes_before_simulating(h, message, capsys, monkeypatch):
    from srkweak import harness

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting the input")

    monkeypatch.setattr(harness, "integrate_paths", no_simulation)
    assert main(["converge", "det_exponential", "BDK2", "--h", h]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("h", ["0", "-0.5", "nan", "inf"])
@pytest.mark.parametrize("command", ["converge", "invariant"])
def test_a_bad_step_size_prints_one_line_and_exits_2(command, h, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting the step size")

    monkeypatch.setattr(harness, "integrate_paths", no_simulation)
    monkeypatch.setattr(harness, "langevin_chain", no_simulation)
    if command == "converge":
        argv = ["converge", "sinh1d", "BDK2", "--h", f"0.5,{h}"]
    else:
        argv = ["invariant", "--h", h, "--steps", "10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"srkweak: error: the step size must be a finite positive number, got {float(h)!r}"]


def test_a_failed_step_prints_one_line_and_exits_2(capsys):
    # the fixed-point solve of ItoDIRKEX's implicit drift stage does not converge at h = 2
    argv = ["converge", "sinh1d", "ItoDIRKEX", "--h", "2,1", "--batches", "2", "--paths", "10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("srkweak: error: sinh1d/ItoDIRKEX batch 0 (h=2.0, seed=0): fixed point")


def test_a_failed_langevin_chain_prints_one_line_and_exits_2(capsys):
    # the double well's cubic drift overflows at h = 3
    argv = ["invariant", "--potential", "doublewell", "--h", "3", "--steps", "50", "--burn-in", "0", "--chains", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("srkweak: error: non-finite state at step ")
    assert "of the postprocessed chain (h=3.0, first bad chain " in lines[0]


def test_converge_out_keeps_an_existing_file_when_the_sweep_fails(tmp_path, capsys):
    out = tmp_path / "table.csv"
    out.write_text("keep me too\n")
    argv = ["converge", "sinh1d", "ItoDIRKEX", "--h", "2,1", "--batches", "2", "--paths", "10"]
    assert main(argv + ["--out", str(out)]) == 2  # the fixed-point solve fails at h = 2
    assert "fixed point" in capsys.readouterr().err
    assert out.read_text() == "keep me too\n"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_converge_rejects_an_unwritable_output_before_simulating(target, tmp_path, capsys, monkeypatch):
    from srkweak import harness

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before opening the output")

    monkeypatch.setattr(harness, "run_convergence", no_simulation)
    out = tmp_path / "missing" / "table.csv" if target == "missing_dir" else tmp_path
    assert main(["converge", "det_exponential", "BDK2", "--h", "0.5,0.25", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("srkweak: error: ") and str(out) in lines[0]
