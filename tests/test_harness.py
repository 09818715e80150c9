"""Tests for the benchmark problems, weak-error estimation, and effort metric."""

import math
import re

import numpy as np
import pytest

from srkweak import harness
from srkweak.harness import (
    effort,
    effort_counts,
    estimate_weak_error,
    evaluation_counts,
    fit_slope,
    invariant_setup,
    make_problem,
    run_convergence,
    run_invariant_measure,
)
from srkweak.randvars import ITO, STRATONOVICH
from srkweak.stepper import ImplicitSolveError, NonFiniteStateError, SdeProblem, integrate_paths
from srkweak.tableau import registry_get


def test_problem_names_and_unknown():
    assert set(harness.problem_names()) == {
        "sinh1d",
        "tennoise",
        "ou_langevin",
        "doublewell_langevin",
        "det_exponential",
    }
    with pytest.raises(KeyError):
        make_problem("heat_equation")


def test_sinh1d_setup():
    setup = make_problem("sinh1d")
    assert setup.T == 2.0 and setup.x0[0] == 0.0
    exact = setup.observable.exact_expectation
    assert exact(2.0) == pytest.approx(0.0, abs=1e-14)
    assert exact(1.0) == pytest.approx(0.0, abs=1e-14)  # t^3 - 3t^2 + 2t at t=1
    assert exact(0.5) == pytest.approx(0.5**3 - 3 * 0.25 + 1.0)
    prob = setup.make()
    x = np.array([[0.3], [1.0]])
    assert prob.fields[0](x) == pytest.approx(0.5 * x + np.sqrt(x * x + 1))


def test_tennoise_setup_matches_moment_ode():
    from scipy.integrate import solve_ivp

    setup = make_problem("tennoise")
    prob = setup.make()
    assert prob.m == 10 and setup.T == 1.0 and setup.x0[0] == 1.0
    s1 = sum(s * s for s in harness._TEN_SIGMA)
    s0 = sum(s * s * a for s, a in zip(harness._TEN_SIGMA, harness._TEN_SHIFT))

    def rhs(t, y):
        m2, m4 = y
        return [(2 + s1) * m2 + s0, (4 + 6 * s1) * m4 + 6 * s0 * m2]

    sol = solve_ivp(rhs, [0.0, 1.0], [1.0, 1.0], rtol=1e-11, atol=1e-13, dense_output=True)
    exact = setup.observable.exact_expectation
    for t in (0.0, 0.25, 0.5, 1.0):
        assert exact(t) == pytest.approx(float(sol.sol(t)[1]), rel=1e-8)
    # the diffusion fields are sigma_p * sqrt(x^2 + a_p)
    x = np.array([[2.0]])
    assert prob.fields[1](x)[0, 0] == pytest.approx(0.1 * math.sqrt(4.0 + 0.5))
    assert prob.fields[5](x)[0, 0] == pytest.approx(1 / 40 * math.sqrt(4.0 + 1 / 20))


def test_det_exponential_setup():
    setup = make_problem("det_exponential")
    assert setup.observable.exact_expectation(1.0) == pytest.approx(math.e)


def test_estimate_weak_error_deterministic_problem():
    setup = make_problem("det_exponential")
    rec = estimate_weak_error(setup, registry_get("BDK2"), 0.25, 4, 8, seed=5)
    assert rec.stderr == 0.0
    assert rec.abs_error < 5e-3  # third-order one-step error, 4 steps
    rec2 = estimate_weak_error(setup, registry_get("BDK2"), 0.25, 4, 8, seed=5)
    assert rec.estimate == rec2.estimate  # bit-identical under the same seed


def test_estimate_weak_error_argument_checks():
    setup = make_problem("det_exponential")
    with pytest.raises(ValueError):
        estimate_weak_error(setup, registry_get("BDK1"), 0.3, 4, 8, seed=0)  # T/h not whole
    with pytest.raises(ValueError):
        estimate_weak_error(setup, registry_get("BDK1"), 0.25, 1, 8, seed=0)  # one batch


def _linear_setup(drift, name):
    """dX = drift(X) dt + 0.5 X dW from X(0) = 1 to T = 2, observing X."""
    return harness.ProblemSetup(
        problem_factory=lambda: SdeProblem(1, 1, ITO, [drift, lambda x: 0.5 * x], label=name),
        observable=harness.Observable(phi=lambda x: x[:, 0]),
        x0=np.array([1.0]),
        T=2.0,
        name=name,
    )


def test_weak_error_keeps_the_class_and_context_of_a_step_failure():
    # stiff drift: ItoDIRKEX's implicit drift stage does not converge at h = 1/4
    stiff = _linear_setup(lambda x: -20.0 * x, "stiff")
    with pytest.raises(ImplicitSolveError, match=r"^stiff/ItoDIRKEX batch 0 \(h=0.25, seed=1\): fixed point") as info:
        estimate_weak_error(stiff, registry_get("ItoDIRKEX"), 0.25, 2, 10, seed=1)
    assert (info.value.h, info.value.method) == (0.25, "ItoDIRKEX")
    assert info.value.where[0] == 0 and "at step 1/8 (h=0.25)" in str(info.value)
    # cubic drift: BDK1 overflows at the fourth step of h = 1/2
    cubic = _linear_setup(lambda x: x * x * x, "cubic")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as info:
        estimate_weak_error(cubic, registry_get("BDK1"), 0.5, 2, 10, seed=1)
    assert str(info.value).startswith("cubic/BDK1 batch 0 (h=0.5, seed=1): non-finite state at step 4/4")
    assert (info.value.where, info.value.h, info.value.method) == ((3, 9), 0.5, "BDK1")


def test_run_convergence_requires_decreasing_h():
    setup = make_problem("det_exponential")
    with pytest.raises(ValueError):
        run_convergence(setup, registry_get("BDK1"), [0.25, 0.5], 2, 2, seed=0)


@pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf], ids=repr)
def test_harness_entry_points_reject_a_bad_step_size(h, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting the step size")

    monkeypatch.setattr(harness, "integrate_paths", no_simulation)
    monkeypatch.setattr(harness, "langevin_chain", no_simulation)
    setup, method = make_problem("det_exponential"), registry_get("BDK1")
    F, D, d, m, _, _ = invariant_setup("ou")
    message = f"the step size must be a finite positive number, got {h!r}"
    with pytest.raises(ValueError, match=message):
        estimate_weak_error(setup, method, h, 2, 2, seed=0)
    # checked before the order of the step sizes, and before any is simulated
    for h_list in ([0.5, h], [h, 0.5]):
        with pytest.raises(ValueError, match=message):
            run_convergence(setup, method, h_list, 2, 2, seed=0)
    with pytest.raises(ValueError, match=message):
        run_invariant_measure(F, D, d, m, h, 10, 0, seed=0)


BAD_COUNTS_AND_SEEDS = [  # (entry point, parameter, value, message)
    ("weak", "n_batches", 2.0, "the number of batches must be an integer of at least 2, got 2.0"),
    ("weak", "n_batches", 1, "the number of batches must be an integer of at least 2, got 1"),
    ("weak", "n_per_batch", 3.0, "the number of paths per batch must be an integer of at least 1, got 3.0"),
    ("weak", "n_per_batch", 0, "the number of paths per batch must be an integer of at least 1, got 0"),
    ("weak", "seed", 1.5, "the seed must be a non-negative integer, got 1.5"),
    ("weak", "seed", -1, "the seed must be a non-negative integer, got -1"),
    ("invariant", "n_steps", 2.5, "the number of post-burn-in steps must be an integer of at least 1, got 2.5"),
    ("invariant", "n_steps", 0, "the number of post-burn-in steps must be an integer of at least 1, got 0"),
    ("invariant", "burn_in", 0.5, "the number of burn-in steps must be an integer of at least 0, got 0.5"),
    ("invariant", "burn_in", -5, "the number of burn-in steps must be an integer of at least 0, got -5"),
    ("invariant", "n_chains", 2.0, "the number of chains must be an integer of at least 1, got 2.0"),
    ("invariant", "n_chains", 0, "the number of chains must be an integer of at least 1, got 0"),
    ("invariant", "seed", 1.5, "the seed must be a non-negative integer, got 1.5"),
    ("invariant", "seed", -1, "the seed must be a non-negative integer, got -1"),
    ("effort", "m", 1.5, "the number of noises must be an integer of at least 1, got 1.5"),
    ("effort", "m", 0, "the number of noises must be an integer of at least 1, got 0"),
]


@pytest.mark.parametrize(
    "entry,name,value,message", BAD_COUNTS_AND_SEEDS, ids=[f"{e}-{n}={v!r}" for e, n, v, _ in BAD_COUNTS_AND_SEEDS]
)
def test_harness_entry_points_reject_bad_counts_and_seeds(entry, name, value, message, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting the count or seed")

    monkeypatch.setattr(harness, "integrate_paths", no_simulation)
    monkeypatch.setattr(harness, "langevin_chain", no_simulation)
    setup, method = make_problem("det_exponential"), registry_get("BDK1")
    F, D, d, m, _, _ = invariant_setup("ou")
    pattern = f"^{re.escape(message)}$"
    if entry == "weak":
        args = {"n_batches": 2, "n_per_batch": 2, "seed": 0, name: value}
        with pytest.raises(ValueError, match=pattern):
            estimate_weak_error(setup, method, 0.25, **args)
        with pytest.raises(ValueError, match=pattern):
            run_convergence(setup, method, [0.5, 0.25], **args)
    elif entry == "invariant":
        args = {"n_steps": 10, "burn_in": 0, "seed": 0, "n_chains": 2, name: value}
        with pytest.raises(ValueError, match=pattern):
            run_invariant_measure(F, D, d, m, 0.25, **args)
    else:
        with pytest.raises(ValueError, match=pattern):
            evaluation_counts(method, **{name: value})


def test_fit_slope_on_synthetic_data():
    hs = [0.5, 0.25, 0.125]
    assert fit_slope(hs, [c * h**2 for c, h in zip([3, 3, 3], hs)]) == pytest.approx(2.0)
    assert fit_slope(hs, [h for h in hs]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fit_slope([0.5], [1.0])


@pytest.mark.parametrize(
    "name,m,expected",
    [
        ("BDK1", 1, 5),        # 2 + 2 + 1
        ("BDK1", 10, 33),      # 2 + 20 + 11
        ("BDK2", 10, 34),      # 3 + 20 + 11
        ("BDK3", 1, 7),        # 3 + 2 + 2
        ("BDK3", 4, 20),       # 3 + 8 + 9
        ("EulerMaruyama", 1, 3),
    ],
)
def test_effort_values(name, m, expected):
    assert effort(registry_get(name), m) == expected


def test_evaluation_counts():
    assert evaluation_counts(registry_get("BDK1"), 3) == (2, 2)
    assert evaluation_counts(registry_get("BDK2"), 3) == (3, 2)
    assert evaluation_counts(registry_get("StratoExplicit24"), 2) == (2, 4)
    assert effort_counts(registry_get("BDK3"), 4) == (3, 2, 9, 20)


def test_weak_error_on_ito_geometric_brownian_motion():
    # dX = a X dt + b X dW has E[X^2(t)] = x0^2 exp((2a + b^2) t)
    a_lin, b_lin = 0.3, 0.4
    prob_factory = lambda: SdeProblem(
        1, 1, ITO, [lambda x: a_lin * x, lambda x: b_lin * x], label="gbm"
    )
    setup = harness.ProblemSetup(
        problem_factory=prob_factory,
        observable=harness.Observable(
            phi=lambda x: x[:, 0] ** 2,
            exact_expectation=lambda t: math.exp((2 * a_lin + b_lin**2) * t),
        ),
        x0=np.array([1.0]),
        T=1.0,
        name="gbm",
    )
    rec_coarse = estimate_weak_error(setup, registry_get("BDK1"), 0.5, 20, 4000, seed=3)
    rec_fine = estimate_weak_error(setup, registry_get("BDK1"), 0.125, 20, 4000, seed=3)
    assert rec_fine.abs_error < rec_coarse.abs_error
    assert rec_fine.abs_error <= 4 * rec_fine.stderr + 2e-3


def test_weak_error_on_stratonovich_linear_problem():
    # dX = a X dt + b X o dW: X(t) = x0 exp(at + bW), E[X^2] = exp((2a + 2b^2) t);
    # the Ito interpretation would give exp((2a + b^2) t) instead, far away
    a_lin, b_lin = 0.2, 0.7
    prob_factory = lambda: SdeProblem(
        1, 1, STRATONOVICH, [lambda x: a_lin * x, lambda x: b_lin * x], label="strato_gbm"
    )
    exact_strato = math.exp(2 * a_lin + 2 * b_lin**2)
    ito_value = math.exp(2 * a_lin + b_lin**2)
    setup = harness.ProblemSetup(
        problem_factory=prob_factory,
        observable=harness.Observable(
            phi=lambda x: x[:, 0] ** 2,
            exact_expectation=lambda t: math.exp((2 * a_lin + 2 * b_lin**2) * t),
        ),
        x0=np.array([1.0]),
        T=1.0,
        name="strato_gbm",
    )
    for name in ["StratoExplicit24", "StratoDIRK", "StratoDetOrder3"]:
        rec = estimate_weak_error(setup, registry_get(name), 0.125, 20, 4000, seed=4)
        assert rec.abs_error <= max(4 * rec.stderr, 0.12), name
        assert abs(rec.estimate - ito_value) > 1.0, name


def test_weak_error_estimate_makes_no_effort_probe(monkeypatch):
    # the effort is the caller's to compute, once per sweep, not per step size
    def no_probe(*args, **kwargs):
        raise AssertionError("estimate_weak_error ran an effort probe")

    monkeypatch.setattr(harness, "effort", no_probe)
    rec = estimate_weak_error(make_problem("det_exponential"), registry_get("BDK2"), 0.5, 2, 1, seed=0)
    assert math.isfinite(rec.estimate)


def test_invariant_setup_and_zero_field_moments():
    F, D, d, m, exact_mean, exact_second = invariant_setup("ou")
    assert exact_second[0] == 1.0
    with pytest.raises(KeyError):
        invariant_setup("quartic")
    zero_F = lambda x: np.zeros_like(x)
    zero_D = lambda x: np.zeros(x.shape + (1,))
    rep = run_invariant_measure(
        zero_F, zero_D, 1, 1, 0.1, 2000, 0, seed=1, x0=np.array([0.4]), n_chains=4
    )
    assert rep.mean[0] == pytest.approx(0.4, abs=1e-14)
    assert rep.second_moment[0] == pytest.approx(0.16, abs=1e-14)


def test_invariant_measure_ou_short_run():
    F, D, d, m, exact_mean, exact_second = invariant_setup("ou")
    rep = run_invariant_measure(
        F, D, d, m, 0.25, 200_000, 500, seed=2, n_chains=50,
        exact_mean=exact_mean, exact_second_moment=exact_second,
    )
    assert rep.second_moment[0] == pytest.approx(1.0, abs=0.03)
    assert rep.second_moment_error[0] < 0.03
    rep2 = run_invariant_measure(
        F, D, d, m, 0.25, 200_000, 500, seed=2, n_chains=50,
        exact_mean=exact_mean, exact_second_moment=exact_second,
    )
    assert rep.second_moment[0] == rep2.second_moment[0]  # deterministic under seed
