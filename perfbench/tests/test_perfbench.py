"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads, spans = run.import_benchmark()

NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_COUNTS = (
    "randvars.uniforms_per_path_step",
    "randvars.draw_bytes_per_path_step",
    "stepper.drift_evals_per_step",
    "stepper.diffusion_evals_per_step",
    "stepper.solver.sweeps_per_step",
)
EXPLICIT = ("BDK1", "BDK2", "BDK3", "EulerMaruyama")


def traced_cycle(name, seed):
    """One traced round of a workload: (layer metrics, per-op (label, counts, digest))."""
    wl = workloads.make_workload(name, seed)
    wl.prepare()
    tracer = spans.Tracer()
    rng, counts, _, ok, results = run.traced_round(workloads, wl, tracer, 0)
    assert ok
    (summary,) = tracer.summarize([rng])
    per_op = []
    for j, (op, _, op_ok, digest) in enumerate(results[wl.cycle:]):
        assert op_ok
        per_op.append((op.label, dict(tracer.counts[j]) | op.counts(), digest))
    return run.layer_metrics(summary, counts, run.layer_units(name)), per_op


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    for name in list(e2e) + list(layer) + list(run.LANGEVIN_LAYER) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name
    assert not set(layer) & set(run.LANGEVIN_LAYER)
    listed = [w["name"] for w in manifest["workloads"]]
    assert listed == [w for w in workloads.WORKLOADS if w != "langevin_ou"]


@pytest.mark.parametrize("name", ["sinh1d_m1", "langevin_ou", "tennoise_m10"])
def test_exact_counts_repeat_for_the_same_seed(name):
    first, _ = traced_cycle(name, 3)
    second, _ = traced_cycle(name, 3)
    setup = {"trace.overhead_frac"} | {f"{s}.setup_s" for s in run.SETUP_SPANS}
    assert set(first) | setup == set(run.layer_units(name))
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key
    assert first["randvars.uniforms_per_path_step"] > 0


def test_other_seed_changes_outputs_but_not_explicit_counts():
    _, ops1 = traced_cycle("sinh1d_m1", 1)
    _, ops2 = traced_cycle("sinh1d_m1", 2)
    for (label1, counts1, digest1), (label2, counts2, digest2) in zip(ops1, ops2):
        assert label1 == label2
        assert digest1 != digest2
        if label1 in EXPLICIT:
            assert counts1 == counts2, label1


def test_oracles_reject_shifted_outputs():
    wl = workloads.make_workload("sinh1d_m1", 1)
    op = wl.make_op(1)
    rec = op.call()
    assert op.check(rec)[0]
    ref = workloads.reference()["sinh1d"]["methods"][op.label]
    shifted = dataclasses.replace(rec, estimate=rec.estimate + ref["sd"])
    assert not op.check(shifted)[0]

    wl = workloads.make_workload("order_conditions", 1)
    op = wl.make_op(0)
    table, reduced = op.call()
    assert op.check((table, reduced))[0]
    table.records[5].lhs += 1e-9
    assert not op.check((table, reduced))[0]


def test_batch_equals_sequential_on_every_workload():
    for name in workloads.WORKLOADS:
        assert workloads.batch_equals_sequential(workloads.make_workload(name, 5), 5), name


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "langevin_ou", "--seed", "4",
         "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sinh1d_m1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
