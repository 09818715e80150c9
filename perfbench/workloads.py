"""The benchmark's four workloads, their oracles and the traced library layers.

Every workload is a seeded stream of ops.  Op ``i`` of a workload with seed
``s`` draws its randomness from ``SeedSequence((s, i))``, the way
``harness.estimate_weak_error`` seeds its batches, so the same seed gives the
same ops.  An op is one call (or one pair of calls) into the public API of
srkweak; its oracle does not depend on the seed.

The workloads are chosen to load different layers:

* ``sinh1d_m1``: weak-error estimates on the one-noise problem of criterion 4,
  cycling three explicit order-2 methods, Euler-Maruyama and the
  drift-implicit ItoDIRKEX.  Light draw layer (1-2 uniforms per step); the
  fixed-point solver dominates the implicit ops.
* ``tennoise_m10``: weak-error estimates on the ten-noise problem of
  criterion 5.  The dense (m+1)^2 Theta assembly dominates.
* ``langevin_ou``: short postprocessed Langevin chains of criterion 9 on the
  quadratic potential.  The draw layer is called 100 rows wide, so its cost
  is per call, not per element.
* ``order_conditions``: both order-condition routes on a stream of tableaux
  (the registered weak-order-2 methods and seeded perturbations of them, some
  with a fresh ``c``).  No stepping; the only workload that loads ``forests``
  and ``conditions``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from srkweak import conditions, forests, harness, randvars, stepper, tableau

# Oracle width in standard errors.  The stderr comes from the per-path (or
# per-op) spread recorded in reference.json, not from the op's own few batch
# means, whose few degrees of freedom give heavy tails and false failures.
Z_ORACLE = 6.0

# Batch and sequential runs of an implicit method may differ in the last bits.
IMPLICIT_BATCH_RTOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@functools.cache
def reference() -> dict:
    """Oracle targets recorded once at high path count by calibrate.py."""
    return json.loads(REFERENCE_PATH.read_text())


def op_seed(seed: int, i: int) -> int:
    """The integer seed of op ``i``, drawn from ``SeedSequence((seed, i))``."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is the oracle.

    ``check(output)`` returns ``(ok, digest)``; the digest is a tuple of
    floats that identifies the output (equal seeds give equal digests).
    ``units`` is the work the op completes: path-steps, chain-steps or
    condition rows.  ``counts()`` gives exact per-op counts after a traced
    call.
    """

    group: int
    label: str
    units: int
    call: Callable
    check: Callable
    counts: Callable = dict


# ---------------------------------------------------------------------------
# stepping workloads: harness.estimate_weak_error


@dataclass
class Stepping:
    name: str
    problem: str
    h: float
    methods: tuple
    n_batches: int
    n_per_batch: int
    seed: int

    def __post_init__(self):
        self.setup = harness.make_problem(self.problem)
        self.n_steps = round(self.setup.T / self.h)
        self.tableaux = [tableau.registry_get(n) for n in self.methods]
        self.cycle = len(self.methods)
        self.mem_ops = range(self.cycle)

    def prepare(self) -> None:
        m = self.setup.make().m
        for t in self.tableaux:
            harness.effort(t, m)

    def bs_cases(self):
        """(problem, method, x0, h) cases for the batch == sequential check."""
        return [(self.setup.make(), t, self.setup.x0, self.h) for t in self.tableaux]

    def make_op(self, i: int, tracer=None) -> Op:
        t = self.tableaux[i % self.cycle]
        ref = reference()[self.problem]["methods"][t.name]
        n_paths = self.n_batches * self.n_per_batch
        tol = Z_ORACLE * ref["sd"] * math.sqrt(1.0 / n_paths + 1.0 / ref["paths"])
        seed = op_seed(self.seed, i)
        setup, problems = self.setup, []
        if tracer is not None:
            setup = _traced_setup(self.setup, tracer, problems)
        h, nb, npb = self.h, self.n_batches, self.n_per_batch

        def call():
            return harness.estimate_weak_error(setup, t, h, nb, npb, seed)

        def check(rec):
            ok = math.isfinite(rec.stderr) and abs(rec.estimate - ref["mean"]) <= tol
            return ok, (rec.estimate, rec.stderr)

        implicit = tableau.stage_evaluation_order(t) is None

        def counts():
            ev = sum(p.eval_counts for p in problems)
            steps = nb * self.n_steps
            return {
                "steps": steps,
                "drift_evals": int(ev[0]),
                "diffusion_evals": int(ev[1:].sum()),
                "noise_steps": steps * (len(ev) - 1),
                "implicit_steps": steps if implicit else 0,
                "implicit_sweeps": int(ev[0]) // t.s1 if implicit else 0,
            }

        return Op(i % self.cycle, t.name, n_paths * self.n_steps, call, check, counts)


def _traced_setup(setup, tracer, problems):
    """The same problem and observable with every field and phi in a span."""

    def factory():
        base = setup.make()
        fields = [tracer.wrap("stepper.fields", f) for f in base.fields]
        problem = stepper.SdeProblem(base.d, base.m, base.calculus, fields, base.label)
        problems.append(problem)
        return problem

    observable = dataclasses.replace(
        setup.observable, phi=tracer.wrap("harness.observable", setup.observable.phi)
    )
    return dataclasses.replace(setup, problem_factory=factory, observable=observable)


# ---------------------------------------------------------------------------
# Langevin workload: harness.run_invariant_measure


@dataclass
class Langevin:
    name: str
    h: float
    n_chains: int
    steps_per_chain: int
    burn_in: int
    seed: int
    cycle: int = 1
    mem_ops: tuple = (0,)

    def __post_init__(self):
        self.F, self.D, self.d, self.m, self.exact_mean, self.exact_second = (
            harness.invariant_setup("ou")
        )

    def prepare(self) -> None:
        randvars.RvFamily.make(randvars.ITO, 0.5)

    def bs_cases(self):
        return _sinh_bs_cases()

    def make_op(self, i: int, tracer=None) -> Op:
        F, D = self.F, self.D
        if tracer is not None:
            F = tracer.wrap("stepper.fields", F, count="drift_evals")
            D = tracer.wrap("stepper.fields", D, count="diffusion_evals")
        seed = op_seed(self.seed, i)
        chain_steps = self.burn_in + self.steps_per_chain
        ref = reference()["langevin_ou"]

        def call():
            return harness.run_invariant_measure(
                F, D, self.d, self.m, self.h,
                n_steps=self.n_chains * self.steps_per_chain,
                burn_in=self.burn_in,
                seed=seed,
                n_chains=self.n_chains,
                exact_mean=self.exact_mean,
                exact_second_moment=self.exact_second,
            )

        def check(rep):
            second, mean = float(rep.second_moment[0]), float(rep.mean[0])
            ok = (
                abs(second - float(self.exact_second[0])) <= Z_ORACLE * ref["sd_second_moment"]
                and abs(mean - float(self.exact_mean[0])) <= Z_ORACLE * ref["sd_mean"]
            )
            return ok, (second, mean)

        def counts():
            return {"steps": chain_steps, "noise_steps": chain_steps * self.m}

        return Op(0, "ou", self.n_chains * chain_steps, call, check, counts)


# ---------------------------------------------------------------------------
# order-condition workload: conditions.check_all_table + check_reduced

# Op i checks a candidate built from weak-order-2 method i % 12; kind
# (i // 12) % 3 is 0 for the registered tableau, 1 for a perturbation of its
# nonzero entries and 2 for a perturbation that also draws a fresh c, which
# misses the atom-table cache.  Perturbing only nonzero entries keeps the
# sparsity pattern, so the work per kind does not depend on the seed.
PERTURBATION = 0.1
FRESH_C = (0.05, 0.45)


@dataclass
class OrderConditions:
    name: str
    seed: int

    def __post_init__(self):
        self.bases = [
            tableau.registry_get(n)
            for n in tableau.registry_names()
            if tableau.registry_get(n).weak_order == 2
        ]
        self.cycle = 3 * len(self.bases)
        # tracemalloc slows this pure-Python workload ~10x: the memory pass
        # checks one tableau (BDK1) in each kind
        self.mem_ops = (0, len(self.bases), 2 * len(self.bases))

    def prepare(self) -> None:
        conditions.condition_table()
        for t in self.bases:
            family = randvars.RvFamily.make(t.calculus, t.c)
            for m in (1, 2):
                randvars.enumerate_atoms(family, m)

    def bs_cases(self):
        return _sinh_bs_cases()

    def candidate(self, i: int):
        base = self.bases[i % len(self.bases)]
        kind = (i // len(self.bases)) % 3
        if kind == 0:
            return base, kind
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))

        def jitter(a):
            if a is None:
                return None
            return a * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, a.shape))

        c = rng.uniform(*FRESH_C) if kind == 2 else base.c
        cand = tableau.make_tableau(
            f"{base.name}~{i}", base.calculus,
            jitter(base.alpha), jitter(base.beta), jitter(base.A0), jitter(base.B0),
            jitter(base.A1), jitter(base.B1), jitter(base.Bhat1),
            c=c, det_order=base.det_order, weak_order=base.weak_order,
            structure=base.structure,
        )
        return cand, kind

    def make_op(self, i: int, tracer=None) -> Op:
        t, kind = self.candidate(i)
        reduced_rows = (9 if t.calculus == randvars.ITO else 26) + (t.c == 0.5)

        def call():
            return (
                conditions.check_all_table(t, tolerance=conditions.TABLE_TOLERANCE),
                conditions.check_reduced(t, tolerance=conditions.REDUCED_TOLERANCE),
            )

        def check(reports):
            table, reduced = reports
            rows = conditions.condition_table()
            ito = t.calculus == randvars.ITO
            ok = len(table.records) == len(rows) == 43 and len(reduced.records) == reduced_rows
            ok = ok and all(
                rec.id == row.id
                and rec.target == float(row.target_ito if ito else row.target_strat)
                and math.isfinite(rec.lhs)
                for rec, row in zip(table.records, rows)
            )
            ok = ok and all(math.isfinite(rec.lhs) for rec in reduced.records)
            if kind == 0:
                ok = ok and table.all_satisfied and reduced.all_satisfied
                ok = ok and all(r.residual <= conditions.TABLE_TOLERANCE for r in table.records)
                ok = ok and all(r.residual <= conditions.REDUCED_TOLERANCE for r in reduced.records)
            return ok, tuple(r.lhs for r in table.records + reduced.records)

        label = f"{t.name.split('~')[0]}:{('registered', 'perturbed', 'fresh_c')[kind]}"
        return Op(i % self.cycle, label, 43 + reduced_rows, call, check)


def _sinh_bs_cases():
    setup = harness.make_problem("sinh1d")
    return [
        (setup.make(), tableau.registry_get(n), setup.x0, 2.0**-4)
        for n in ("BDK2", "ItoDIRKEX")
    ]


def make_workload(name: str, seed: int):
    # The registry is built lazily on first use; every workload's set-up pays
    # for it here.
    tableau.registry_names()
    if name == "sinh1d_m1":
        return Stepping(
            name, "sinh1d", 2.0**-4,
            ("BDK1", "BDK2", "BDK3", "EulerMaruyama", "ItoDIRKEX"),
            n_batches=2, n_per_batch=5000, seed=seed,
        )
    if name == "tennoise_m10":
        return Stepping(
            name, "tennoise", 2.0**-3, ("BDK1", "BDK2", "BDK3"),
            n_batches=2, n_per_batch=2500, seed=seed,
        )
    if name == "langevin_ou":
        return Langevin(name, h=0.25, n_chains=100, steps_per_chain=400, burn_in=40, seed=seed)
    if name == "order_conditions":
        return OrderConditions(name, seed=seed)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


WORKLOADS = ("sinh1d_m1", "tennoise_m10", "langevin_ou", "order_conditions")


# ---------------------------------------------------------------------------
# checks and traced layers


def batch_equals_sequential(workload, seed: int, n_paths: int = 3, n_steps: int = 4) -> bool:
    """``integrate_paths`` over a few paths matches ``integrate_path`` run path
    after path on the same generator: bit for bit for explicit methods, and
    to the fixed-point tolerance for implicit ones, whose sweep count and
    stopping test are shared across the batch (the contract tests/test_stepper.py
    pins)."""
    for problem, t, x0, h in workload.bs_cases():
        ss = np.random.SeedSequence((seed,))
        batch = stepper.integrate_paths(
            problem, t, x0, h, n_steps, n_paths, np.random.default_rng(ss)
        )
        rng = np.random.default_rng(ss)
        seq = np.stack([stepper.integrate_path(problem, t, x0, h, n_steps, rng) for _ in range(n_paths)])
        if tableau.stage_evaluation_order(t) is not None:
            same = np.array_equal(batch, seq)
        else:
            same = bool(np.all(np.abs(batch - seq) <= IMPLICIT_BATCH_RTOL * (1.0 + np.abs(seq))))
        if not same:
            return False
    return True


def _count_draw(tracer, args, result):
    u, (theta, Theta) = args[2], result
    counts = tracer.current_counts
    counts["draw_rows"] += u.size // u.shape[-1]
    counts["draw_uniforms"] += u.size
    counts["draw_bytes"] += theta.nbytes + Theta.nbytes


# (module, attribute, span name): each public function is wrapped where the
# calling layer looks it up, so spans nest the way the layers call each other.
TRACE_POINTS = (
    (harness, "estimate_weak_error", "harness.estimate_weak_error"),
    (harness, "effort", "harness.effort"),
    (harness, "integrate_paths", "stepper.integrate_paths"),
    (harness, "run_invariant_measure", "harness.run_invariant_measure"),
    (stepper, "langevin_postprocessed_step", "stepper.langevin_postprocessed_step"),
    (randvars, "moment", "randvars.moment"),
    (randvars, "enumerate_atoms", "randvars.enumerate_atoms"),
    (forests, "rk_coefficient_map", "forests.rk_coefficient_map"),
    (forests, "elementary_differential_string", "forests.elementary_differential_string"),
    (conditions, "check_all_table", "conditions.check_all_table"),
    (conditions, "check_reduced", "conditions.check_reduced"),
    (conditions, "condition_table", "conditions.condition_table"),
)

SETUP_POINTS = (
    (tableau, "registry_names", "tableau.registry"),
    (conditions, "condition_table", "conditions.condition_table"),
    (conditions, "exact_flow_coefficients", "forests.exact_flow_coefficients"),
)


@contextlib.contextmanager
def _patched(replacements):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, fn in replacements:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def traced_layers(tracer):
    """Context in which the library's layer functions record spans."""
    chain = harness.langevin_chain

    def traced_chain(*args, observer=None, **kwargs):
        if observer is not None:
            observer = tracer.wrap("harness.observable", observer)
        return chain(*args, observer=observer, **kwargs)

    replacements = [(mod, attr, tracer.wrap(span, getattr(mod, attr))) for mod, attr, span in TRACE_POINTS]
    replacements.append((harness, "langevin_chain", tracer.wrap("stepper.langevin_chain", traced_chain)))
    replacements.append(
        (randvars, "draws_from_uniforms",
         tracer.wrap("randvars.draws_from_uniforms", randvars.draws_from_uniforms, after=_count_draw))
    )
    return _patched(replacements)


def traced_setup_layers(tracer):
    """Context in which the lazy set-up steps record spans."""
    return _patched([(mod, attr, tracer.wrap(span, getattr(mod, attr))) for mod, attr, span in SETUP_POINTS])
