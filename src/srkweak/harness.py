"""Benchmark problems, Monte Carlo weak-error estimation, convergence slopes,
effort accounting, and invariant-measure experiments.

Weak errors are estimated batch-wise: batch ``b`` owns the generator stream
seeded from the pair ``(seed, b)`` and simulates its paths independently, so
estimates are a pure function of (seed, parameters) no matter how batches are
scheduled, and the standard error is the batch-mean standard deviation over
``sqrt(n_batches)``.  The observed convergence order is the least-squares
slope of log2(weak error) against log2(h).

The per-step computational effort of a method is ``N_d + m N_s + N_r``:
instrumented drift and (per-noise) diffusion evaluation counts of one step
plus the number of scalar random variables the family draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .randvars import ITO
from .stepper import SdeProblem, StepError, _check_count, _check_step_size, integrate_paths, langevin_chain
from .tableau import MethodTableau

__all__ = [
    "Observable",
    "ProblemSetup",
    "ConvergenceRecord",
    "ConvergenceTable",
    "InvariantMeasureReport",
    "make_problem",
    "problem_names",
    "invariant_setup",
    "estimate_weak_error",
    "run_convergence",
    "fit_slope",
    "effort",
    "effort_counts",
    "evaluation_counts",
    "run_invariant_measure",
]


@dataclass(frozen=True)
class Observable:
    """A test functional phi and, when known, the closed form of E[phi(X(t))]."""

    phi: Callable
    exact_expectation: Optional[Callable] = None


@dataclass(frozen=True)
class ProblemSetup:
    problem_factory: Callable
    observable: Observable
    x0: np.ndarray
    T: float
    name: str

    def make(self) -> SdeProblem:
        return self.problem_factory()


@dataclass(frozen=True)
class ConvergenceRecord:
    h: float
    estimate: float
    stderr: float
    abs_error: float
    n_batches: int
    n_per_batch: int


@dataclass
class ConvergenceTable:
    method: str
    problem: str
    records: list = field(default_factory=list)

    @property
    def slope(self) -> float:
        hs = [r.h for r in self.records]
        errs = [r.abs_error for r in self.records]
        return fit_slope(hs, errs)


def fit_slope(h_values: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log2(error) against log2(h), no outlier rejection."""
    if len(h_values) < 2:
        raise ValueError("need at least two step sizes for a slope")
    x = np.log2(np.asarray(h_values, dtype=float))
    y = np.log2(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# built-in problems

_TEN_SIGMA = (
    1 / 10, 1 / 15, 1 / 20, 1 / 25, 1 / 40,
    1 / 25, 1 / 20, 1 / 15, 1 / 20, 1 / 25,
)
_TEN_SHIFT = (
    1 / 2, 1 / 4, 1 / 5, 1 / 10, 1 / 20,
    1 / 2, 1 / 4, 1 / 5, 1 / 10, 1 / 20,
)

# fourth-moment closed form for the ten-noise problem: with
# S1 = sum sigma_p^2 and S0 = sum sigma_p^2 a_p, the second and fourth moments
# follow  M2' = (2 + S1) M2 + S0,  M4' = (4 + 6 S1) M4 + 6 S0 M2.
_TEN_S1 = sum(s * s for s in _TEN_SIGMA)
_TEN_S0 = sum(s * s * a for s, a in zip(_TEN_SIGMA, _TEN_SHIFT))


def _ten_noise_exact(t: float) -> float:
    s0, s1 = _TEN_S0, _TEN_S1
    lam2 = 2.0 + s1
    lam4 = 4.0 + 6.0 * s1
    # M2(t) = (1 + s0/lam2) e^{lam2 t} - s0/lam2, M2(0)=1
    c2 = 1.0 + s0 / lam2
    k = 6.0 * s0
    const = k * (s0 / lam2) / lam4
    mid = k * c2 / (lam2 - lam4)
    c4 = 1.0 - mid - const
    return c4 * math.exp(lam4 * t) + mid * math.exp(lam2 * t) + const


def _sinh_phi(x: np.ndarray) -> np.ndarray:
    z = np.arcsinh(x[:, 0])
    return z**3 - 6.0 * z**2 + 8.0 * z


# Overdamped Langevin dynamics dX = F(X) dt + sqrt(2) dW with F = -grad V:
# name -> (F, stationary mean, stationary second moment), None when unknown.
# The quadratic V(x) = x^2/2 has the stationary density exp(-x^2/2).
_POTENTIALS = {
    "ou": (lambda x: -x, 0.0, 1.0),
    "doublewell": (lambda x: x - x**3, None, None),  # V(x) = x^4/4 - x^2/2
}
_ROOT2 = math.sqrt(2.0)


def _problem(name: str, fields: list, phi: Callable, exact, x0: float, T: float) -> ProblemSetup:
    """A named scalar Ito problem with m = len(fields) - 1 noises, started at x0;
    ``exact`` is the closed form of E[phi(X(t))], or None where none is known."""
    m = len(fields) - 1
    return ProblemSetup(
        problem_factory=lambda: SdeProblem(1, m, ITO, fields, label=name),
        observable=Observable(phi, exact),
        x0=np.array([x0]),
        T=T,
        name=name,
    )


_PROBLEMS = {
    setup.name: setup
    for setup in (
        _problem(
            "sinh1d",
            [lambda x: 0.5 * x + np.sqrt(x * x + 1.0), lambda x: np.sqrt(x * x + 1.0)],
            _sinh_phi,
            lambda t: t**3 - 3.0 * t**2 + 2.0 * t,
            0.0,
            2.0,
        ),
        _problem(
            "tennoise",
            [lambda x: x]
            + [
                lambda x, s=sig, a=shift: s * np.sqrt(x * x + a)
                for sig, shift in zip(_TEN_SIGMA, _TEN_SHIFT)
            ],
            lambda x: x[:, 0] ** 4,
            _ten_noise_exact,
            1.0,
            1.0,
        ),
        _problem(
            "det_exponential",
            [lambda x: x, lambda x: np.zeros_like(x)],
            lambda x: x[:, 0],
            math.exp,
            1.0,
            1.0,
        ),
        _problem(
            "ou_langevin",
            [_POTENTIALS["ou"][0], lambda x: np.full_like(x, _ROOT2)],
            lambda x: x[:, 0] ** 2,
            lambda t: 1.0 - math.exp(-2.0 * t),  # the second moment from x0 = 0
            0.0,
            1.0,
        ),
        _problem(
            "doublewell_langevin",
            [_POTENTIALS["doublewell"][0], lambda x: np.full_like(x, _ROOT2)],
            lambda x: x[:, 0] ** 2,
            None,
            0.0,
            1.0,
        ),
    )
}


def problem_names() -> tuple:
    return tuple(_PROBLEMS)


def make_problem(name: str) -> ProblemSetup:
    if name not in _PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(sorted(_PROBLEMS))}")
    return _PROBLEMS[name]


# ---------------------------------------------------------------------------
# weak-error estimation


def _check_seed(seed) -> None:
    """The one rule for seeds, shared by the weak-error and invariant-measure runs."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"the seed must be a non-negative integer, got {seed!r}")


def _steps_for(T: float, h: float) -> int:
    _check_step_size(h)
    n = T / h
    n_int = round(n)
    if abs(n - n_int) > 1e-9 or n_int < 1:
        raise ValueError(f"T/h = {n} is not a whole number of steps")
    return n_int


def estimate_weak_error(
    setup: ProblemSetup,
    method: MethodTableau,
    h: float,
    n_batches: int,
    n_per_batch: int,
    seed: int,
) -> ConvergenceRecord:
    """Monte Carlo estimate of E[phi(X_T)] and its weak error at one step size."""
    _check_count("batches", n_batches, least=2)  # two for a standard error
    _check_count("paths per batch", n_per_batch, least=1)
    _check_seed(seed)
    n_steps = _steps_for(setup.T, h)
    problem = setup.make()
    means = np.empty(n_batches)
    for b in range(n_batches):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        try:
            X = integrate_paths(problem, method, setup.x0, h, n_steps, n_per_batch, rng)
        except StepError as exc:
            # the same class with the same context (h, method, where)
            wrapped = type(exc)(f"{setup.name}/{method.name} batch {b} (h={h}, seed={seed}): {exc}")
            wrapped.__dict__.update(exc.__dict__)
            raise wrapped from exc
        means[b] = float(np.mean(setup.observable.phi(X)))
    estimate = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(n_batches))
    exact_fn = setup.observable.exact_expectation
    abs_error = abs(estimate - exact_fn(setup.T)) if exact_fn is not None else math.nan
    return ConvergenceRecord(
        h=h,
        estimate=estimate,
        stderr=stderr,
        abs_error=abs_error,
        n_batches=n_batches,
        n_per_batch=n_per_batch,
    )


def run_convergence(
    setup: ProblemSetup,
    method: MethodTableau,
    h_list: Sequence[float],
    n_batches: int,
    n_per_batch: int,
    seed: int,
) -> ConvergenceTable:
    """One weak-error record per step size plus the regression slope."""
    h_list = list(h_list)
    for h in h_list:  # reject every step size before simulating any
        _steps_for(setup.T, h)
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    table = ConvergenceTable(method=method.name, problem=setup.name)
    for i, h in enumerate(h_list):
        table.records.append(
            estimate_weak_error(setup, method, h, n_batches, n_per_batch, seed + i)
        )
    return table


# ---------------------------------------------------------------------------
# effort accounting


def evaluation_counts(method: MethodTableau, m: int) -> tuple:
    """(N_d, N_s): instrumented drift/diffusion evaluations of one step."""
    _check_count("noises", m, least=1)
    zero = lambda x: np.zeros_like(x)
    problem = SdeProblem(1, m, method.calculus, [zero] * (m + 1))
    integrate_paths(problem, method, np.zeros(1), 1.0, 1, 1, np.random.default_rng(0))
    n_d = problem.drift_evals
    per_noise = problem.diffusion_evals
    if len(set(per_noise.tolist())) != 1:
        raise RuntimeError(f"uneven diffusion evaluation counts: {per_noise}")
    return n_d, int(per_noise[0])


def effort_counts(method: MethodTableau, m: int) -> tuple:
    """(N_d, N_s, N_r, effort) of one step: the evaluation counts, the random
    variables drawn, and the effort N_d + m*N_s + N_r."""
    n_d, n_s = evaluation_counts(method, m)
    n_r = method.family.rv_count(m)
    return n_d, n_s, n_r, n_d + m * n_s + n_r


def effort(method: MethodTableau, m: int) -> int:
    """Computational effort per step, N_d + m*N_s + N_r."""
    return effort_counts(method, m)[3]


# ---------------------------------------------------------------------------
# invariant-measure experiments


@dataclass(frozen=True)
class InvariantMeasureReport:
    h: float
    n_steps: int
    burn_in: int
    n_chains: int
    mean: np.ndarray
    second_moment: np.ndarray
    mean_stderr: np.ndarray
    second_moment_stderr: np.ndarray
    exact_mean: Optional[np.ndarray]
    exact_second_moment: Optional[np.ndarray]

    @property
    def second_moment_error(self) -> Optional[np.ndarray]:
        if self.exact_second_moment is None:
            return None
        return np.abs(self.second_moment - self.exact_second_moment)


def invariant_setup(name: str):
    """(F, D, d, m, exact_mean, exact_second_moment) for a named potential.

    F = -D^2 grad V with D = I; the exact moments are fresh arrays, or None
    where they are not known.
    """
    if name not in _POTENTIALS:
        raise KeyError(f"unknown potential {name!r}; known: {', '.join(_POTENTIALS)}")
    F, mean, second = _POTENTIALS[name]
    D = lambda x: np.ones(x.shape + (1,))
    fresh = lambda v: None if v is None else np.full(1, v)
    return F, D, 1, 1, fresh(mean), fresh(second)


_TIME_BATCHES = 50


def run_invariant_measure(
    F: Callable,
    D: Callable,
    d: int,
    m: int,
    h: float,
    n_steps: int,
    burn_in: int,
    seed: int,
    x0=None,
    n_chains: int = 1,
    exact_mean=None,
    exact_second_moment=None,
) -> InvariantMeasureReport:
    """Time-averages of x and x^2 over the postprocessed outputs after burn-in.

    ``n_steps`` counts post-burn-in steps in total across ``n_chains``
    parallel replicas, each of which runs burn_in + ceil(n_steps / n_chains)
    steps; the report's ``n_steps`` is the number of chain-steps averaged,
    n_chains * ceil(n_steps / n_chains).  The standard errors come from batch
    means over ``_TIME_BATCHES`` contiguous time blocks.  Results are a pure
    function of (seed, params).
    """
    _check_count("chains", n_chains, least=1)
    _check_step_size(h)
    _check_count("post-burn-in steps", n_steps, least=1)
    _check_count("burn-in steps", burn_in)
    _check_seed(seed)
    steps_per_chain = int(math.ceil(n_steps / n_chains))
    total = burn_in + steps_per_chain
    if x0 is None:
        x0 = np.zeros(d)
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))

    batch_len = max(1, steps_per_chain // _TIME_BATCHES)
    sums = np.zeros((_TIME_BATCHES, d))
    sums2 = np.zeros((_TIME_BATCHES, d))
    counts = np.zeros(_TIME_BATCHES)

    def observer(k: int, xbar: np.ndarray):
        if k < burn_in:
            return
        idx = min((k - burn_in) // batch_len, _TIME_BATCHES - 1)
        sums[idx] += xbar.sum(axis=0)
        sums2[idx] += (xbar**2).sum(axis=0)
        counts[idx] += xbar.shape[0]

    langevin_chain(F, D, x0, m, h, total, rng, n_chains=n_chains, observer=observer)

    used = counts > 0
    batch_mean = sums[used] / counts[used, None]
    batch_second = sums2[used] / counts[used, None]
    k = int(used.sum())
    mean = batch_mean.mean(axis=0)
    second = batch_second.mean(axis=0)
    mean_se = batch_mean.std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else np.full(d, math.nan)
    second_se = (
        batch_second.std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else np.full(d, math.nan)
    )
    return InvariantMeasureReport(
        h=h,
        n_steps=n_chains * steps_per_chain,
        burn_in=burn_in,
        n_chains=n_chains,
        mean=mean,
        second_moment=second,
        mean_stderr=mean_se,
        second_moment_stderr=second_se,
        exact_mean=None if exact_mean is None else np.asarray(exact_mean, dtype=float),
        exact_second_moment=(
            None if exact_second_moment is None else np.asarray(exact_second_moment, dtype=float)
        ),
    )
