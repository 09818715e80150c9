"""Record the oracle targets of the stepping and Langevin workloads.

For each (problem, method) at the workload's step size this runs one
high-path-count weak-error estimate and stores its mean (exact value plus the
method's bias at that h) and the per-path standard deviation of the
observable.  For the Langevin workload it runs many ops and stores the spread
of their mean and second moment.  The result is perfbench/reference.json; it
is recorded once and then kept, so oracles do not move with the code under
test.

    python3 perfbench/calibrate.py      # takes a few minutes
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from srkweak import harness  # noqa: E402

CALIBRATION_SEED = 20261017
N_BATCHES = 100
LANGEVIN_OPS = 400


def stepping_reference(name: str, n_per_batch: int) -> dict:
    wl = workloads.make_workload(name, CALIBRATION_SEED)
    exact = wl.setup.observable.exact_expectation(wl.setup.T)
    out = {"h": wl.h, "exact": exact, "methods": {}}
    for t in wl.tableaux:
        start = time.perf_counter()
        rec = harness.estimate_weak_error(
            wl.setup, t, wl.h, N_BATCHES, n_per_batch, CALIBRATION_SEED
        )
        sd = rec.stderr * math.sqrt(N_BATCHES) * math.sqrt(n_per_batch)
        out["methods"][t.name] = {
            "mean": rec.estimate,
            "bias": rec.estimate - exact,
            "sd": sd,
            "paths": N_BATCHES * n_per_batch,
        }
        print(f"{name} {t.name}: mean={rec.estimate:.6f} bias={rec.estimate - exact:+.5f} "
              f"sd={sd:.4f} ({time.perf_counter() - start:.1f} s)", flush=True)
    return out


def langevin_reference() -> dict:
    wl = workloads.make_workload("langevin_ou", CALIBRATION_SEED)
    seconds, means = [], []
    for i in range(LANGEVIN_OPS):
        rep = harness.run_invariant_measure(
            wl.F, wl.D, wl.d, wl.m, wl.h,
            n_steps=wl.n_chains * wl.steps_per_chain,
            burn_in=wl.burn_in,
            seed=workloads.op_seed(CALIBRATION_SEED, i),
            n_chains=wl.n_chains,
        )
        seconds.append(float(rep.second_moment[0]))
        means.append(float(rep.mean[0]))
    out = {
        "h": wl.h,
        "ops": LANGEVIN_OPS,
        "mean_second_moment": float(np.mean(seconds)),
        "sd_second_moment": float(np.std(seconds, ddof=1)),
        "mean_mean": float(np.mean(means)),
        "sd_mean": float(np.std(means, ddof=1)),
    }
    print("langevin_ou:", out, flush=True)
    return out


def main() -> None:
    ref = {
        "seed": CALIBRATION_SEED,
        "sinh1d": stepping_reference("sinh1d_m1", 20_000),
        "tennoise": stepping_reference("tennoise_m10", 10_000),
        "langevin_ou": langevin_reference(),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")


if __name__ == "__main__":
    main()
