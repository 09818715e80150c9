"""srkweak benchmark: one caller, closed loop, through the public API.

    python3 perfbench/run.py --workload sinh1d_m1 --seed 1 --seconds 40 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Each op is issued only after the previous one returns.  BLAS and
OpenMP pools are capped at one thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time of
10 fresh interpreters spread over the run, from spawn to the first op being
ready),
``ns_per_item`` (wall time of the timed ops in whole cycles over the items
they completed; an item is a path-step, a chain-step or a condition row), ``op_ms_p50``/``op_ms_p90`` (op latency) and ``peak_mem_mb`` (peak
traced heap of the workload's ``mem_ops`` under tracemalloc, untimed).

``--trace 1`` repeats one cycle of ops, untraced and then traced with spans
around every layer boundary, until the time is up; it prints the per-layer
metrics (medians over rounds) and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.npz``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 10
TRACE_SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "ns_per_item": "ns",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_mem_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "randvars.draws_from_uniforms.calls": "count",
    "randvars.draws_from_uniforms.busy_s": "s",
    "randvars.draws_from_uniforms.ns_per_row": "ns",
    "randvars.uniforms_per_path_step": "count",
    "randvars.draw_bytes_per_path_step": "B",
    "randvars.moment.calls": "count",
    "randvars.moment.busy_s": "s",
    "randvars.enumerate_atoms.busy_s": "s",
    "stepper.integrate_paths.busy_s": "s",
    "stepper.integrate_paths.self_s": "s",
    "stepper.fields.busy_s": "s",
    "stepper.drift_evals_per_step": "count",
    "stepper.diffusion_evals_per_step": "count",
    "stepper.solver.sweeps_per_step": "count",
    "harness.estimate_weak_error.self_s": "s",
    "harness.effort.busy_s": "s",
    "harness.observable.busy_s": "s",
    "forests.rk_coefficient_map.calls": "count",
    "forests.rk_coefficient_map.busy_s": "s",
    "forests.rk_coefficient_map.self_s": "s",
    "forests.elementary_differential_string.busy_s": "s",
    "conditions.check_all_table.self_s": "s",
    "conditions.check_reduced.busy_s": "s",
    "tableau.registry.setup_s": "s",
    "conditions.condition_table.setup_s": "s",
    "forests.exact_flow_coefficients.setup_s": "s",
    "trace.overhead_frac": "ratio",
}

# langevin_ou runs by hand only: at the run length that BENCHMARK.json's time
# budget allows, its op_ms_p50 spread past its bound between sets of runs, so
# the manifest lists the other three workloads.  These layers run only there.
LANGEVIN_LAYER = {
    "stepper.langevin_postprocessed_step.calls": "count",
    "stepper.langevin_postprocessed_step.busy_s": "s",
    "stepper.langevin_postprocessed_step.self_s": "s",
    "stepper.langevin_chain.self_s": "s",
    "harness.run_invariant_measure.self_s": "s",
}


def layer_units(workload: str) -> dict:
    """The per-layer metrics a ``--trace 1`` run of ``workload`` prints."""
    return PER_LAYER | (LANGEVIN_LAYER if workload == "langevin_ou" else {})


SETUP_SPANS = ("tableau.registry", "conditions.condition_table", "forests.exact_flow_coefficients")


def import_benchmark():
    """Import srkweak from this checkout's src/ and the benchmark modules."""
    if not (SRC / "srkweak" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no srkweak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import srkweak

    if not Path(srkweak.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: srkweak imported from {srkweak.__file__}, not {SRC}")
    import spans
    import workloads

    return workloads, spans


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int, trace: bool) -> None:
    """Child process: build the workload up to its first op, report, exit."""
    workloads, spans = import_benchmark()
    tracer = spans.Tracer()
    ctx = workloads.traced_setup_layers(tracer) if trace else contextlib.nullcontext()
    with ctx:
        workloads.make_workload(workload, seed).prepare()
    (summary,) = tracer.summarize([(0, len(tracer))])
    print(json.dumps({name: summary.get(name, (0, 0.0))[1] for name in SETUP_SPANS}), flush=True)


def measure_setup(workload: str, seed: int, trace: bool, n: int):
    """Median wall time from spawning a fresh interpreter to its first op
    being ready, and the median of each set-up span the children report."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--setup-probe",
    ]
    walls, splits = [], []
    for _ in range(n):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            walls.append(perf_counter() - start)
            proc.stdout.read()
            try:
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {code}")
        splits.append(json.loads(line))
    return statistics.median(walls), {k: statistics.median(s[k] for s in splits) for k in SETUP_SPANS}


# ---------------------------------------------------------------------------
# ops


def run_op(wl, i: int, tracer=None, op_id: int = -1):
    """Run op i once: (op, wall seconds, oracle ok, output digest)."""
    op = wl.make_op(i, tracer)
    call = op.call
    if tracer is not None:
        tracer.begin_op(op_id)
        call = tracer.wrap("op", call)
    start = perf_counter()
    try:
        out = call()
        wall = perf_counter() - start
        ok, digest = op.check(out)
    except Exception:  # an op that raises is a failed op; the loop goes on
        traceback.print_exc()
        return op, perf_counter() - start, False, None
    return op, wall, bool(ok), digest


def percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def timed_run(wl, seconds: float, probe_setup):
    """End-to-end metrics of one closed-loop run; returns (metrics, results, lines).

    ``probe_setup()`` measures one fresh set-up.  The probes are spread evenly
    over the run, between ops, because the machine's speed changes over
    seconds: back-to-back probes would all sample one moment."""
    results = [run_op(wl, i) for i in range(wl.cycle)]  # warm-up, untimed
    timed, setups = [], []
    start = perf_counter()
    i = wl.cycle
    while (perf_counter() - start < seconds or len(timed) < max(wl.cycle, 2)
           or len(setups) < SETUP_PROBES):
        if perf_counter() - start >= len(setups) * seconds / SETUP_PROBES and len(setups) < SETUP_PROBES:
            setups.append(probe_setup())
            continue
        timed.append(run_op(wl, i))
        i += 1
    elapsed = perf_counter() - start
    tracemalloc.start()
    try:
        for j in wl.mem_ops:
            results.append(run_op(wl, j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results += timed

    groups = {}
    for op, wall, _, _ in timed:
        groups.setdefault(op.group, (op, []))[1].append(wall)
    med = {g: statistics.median(walls) for g, (_, walls) in groups.items()}
    # Whole cycles only, so every method (or tableau kind) weighs the same in
    # every run.
    whole = timed[: len(timed) // wl.cycle * wl.cycle]
    walls_ms = [wall * 1e3 for _, wall, _, _ in timed]
    metrics = {
        "ns_per_item": sum(r[1] for r in whole) / sum(r[0].units for r in whole) * 1e9,
        "op_ms_p50": percentile(walls_ms, 50),
        "op_ms_p90": percentile(walls_ms, 90),
        "peak_mem_mb": peak / 2**20,
        "setup_s": statistics.median(setups),
    }
    lines = [f"timed ops: {len(timed)} and {len(setups)} set-up probes in {elapsed:.2f} s"]
    lines += [
        f"  {op.label:>24}: {len(walls)} ops, median {med[g] * 1e3:.3f} ms, "
        f"{sum(walls) / len(walls) / op.units * 1e9:.1f} ns per item"
        for g, (op, walls) in sorted(groups.items())
    ]
    return metrics, results, lines


# ---------------------------------------------------------------------------
# traced rounds


def layer_metrics(summary: dict, c: dict, names=PER_LAYER) -> dict:
    """Per-layer metrics of one round from its span summary and exact counts."""

    def span(name):
        return summary.get(name, (0, 0.0, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    draws = span("randvars.draws_from_uniforms")
    rows = c.get("draw_rows", 0)
    out = {
        "randvars.draws_from_uniforms.calls": draws[0],
        "randvars.draws_from_uniforms.busy_s": draws[1],
        "randvars.draws_from_uniforms.ns_per_row": ratio(draws[1] * 1e9, rows),
        "randvars.uniforms_per_path_step": ratio(c.get("draw_uniforms", 0), rows),
        "randvars.draw_bytes_per_path_step": ratio(c.get("draw_bytes", 0), rows),
        "stepper.drift_evals_per_step": ratio(c.get("drift_evals", 0), c.get("steps", 0)),
        "stepper.diffusion_evals_per_step": ratio(c.get("diffusion_evals", 0), c.get("noise_steps", 0)),
        "stepper.solver.sweeps_per_step": ratio(c.get("implicit_sweeps", 0), c.get("implicit_steps", 0)),
    }
    for name in names:
        head, _, kind = name.rpartition(".")
        if name in out or kind not in ("calls", "busy_s", "self_s"):
            continue
        calls, busy, own = span(head)
        out[name] = {"calls": calls, "busy_s": busy, "self_s": own}[kind]
    return out


def traced_round(workloads, wl, tracer, r: int):
    """Round r: one cycle of ops untraced, then the same ops traced.

    Returns (span index range, exact counts, overhead, ok, results); ok says
    that tracing changed no output.
    """
    plain = [run_op(wl, i) for i in range(wl.cycle)]
    lo = len(tracer)
    base = r * wl.cycle
    with workloads.traced_layers(tracer):
        traced = [run_op(wl, i, tracer, base + i) for i in range(wl.cycle)]
    counts = {}
    for j, (op, _, _, _) in enumerate(traced):
        for key, n in list(tracer.counts[base + j].items()) + list(op.counts().items()):
            counts[key] = counts.get(key, 0) + n
    ok = all(p[3] == t[3] for p, t in zip(plain, traced))
    overhead = sum(t[1] for t in traced) / sum(p[1] for p in plain) - 1.0
    return (lo, len(tracer)), counts, overhead, ok, plain + traced


def traced_run(workloads, spans, wl, seconds: float, seed: int, names=PER_LAYER):
    """Per-layer metrics from alternating untraced and traced rounds of one cycle."""
    tracer = spans.Tracer()
    results = [run_op(wl, i) for i in range(wl.cycle)]  # warm-up
    rounds = []
    start = perf_counter()
    while len(rounds) < 2 or perf_counter() - start < seconds:
        rounds.append(traced_round(workloads, wl, tracer, len(rounds)))
        results += rounds[-1][4]

    summaries = tracer.summarize([r[0] for r in rounds])
    per_round = [layer_metrics(s, r[1], names) for s, r in zip(summaries, rounds)]
    ok = all(r[3] for r in rounds)
    ok &= all(r[1] == rounds[0][1] for r in rounds)  # counts repeat exactly
    ok &= tracer.self_sums_match()
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_frac"] = statistics.median(r[2] for r in rounds)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.npz"
    tracer.save(path)
    lines = [
        f"traced rounds: {len(rounds)} of {wl.cycle} ops, {len(tracer)} spans -> {path.relative_to(ROOT)}",
        f"exact counts per round: {json.dumps(rounds[0][1], sort_keys=True)}",
    ]
    return metrics, results, ok, lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, bool(args.trace))
        return 0
    workloads, spans = import_benchmark()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    wl = workloads.make_workload(args.workload, args.seed)
    wl.prepare()
    correct = workloads.batch_equals_sequential(wl, args.seed)
    lines = [f"batch == sequential: {correct}"]

    if args.trace:
        units = layer_units(args.workload)
        _, splits = measure_setup(args.workload, args.seed, True, TRACE_SETUP_PROBES)
        metrics, results, ok, more = traced_run(workloads, spans, wl, args.seconds, args.seed, units)
        correct &= ok
        for name in SETUP_SPANS:
            metrics[f"{name}.setup_s"] = splits[name]
    else:
        def probe_setup():
            return measure_setup(args.workload, args.seed, False, 1)[0]

        metrics, results, more = timed_run(wl, args.seconds, probe_setup)
        units = END_TO_END
    lines += more

    failed = sum(1 for _, _, ok, _ in results if not ok)
    correct = bool(correct and failed == 0)
    lines.append(f"ops attempted {len(results)}, failed {failed} (failed_frac {failed / len(results):.4g})")
    for name in units:
        lines.append(f"{name:>48} = {metrics[name]:.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
