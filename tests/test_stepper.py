"""Tests for single steps, paths, batching, implicit solves, and the
postprocessed invariant-measure scheme."""

import math

import numpy as np
import pytest

from srkweak import stepper
from srkweak.harness import invariant_setup, make_problem
from srkweak.randvars import (
    ITO,
    STRATONOVICH,
    NoiseDraw,
    RvFamily,
    draws_from_uniforms,
    mixing_coefficients,
    sample_draw,
)
from srkweak.stepper import (
    _mix,
    ImplicitSolveError,
    LangevinState,
    NonFiniteStateError,
    SdeProblem,
    integrate_path,
    integrate_paths,
    langevin_chain,
    langevin_postprocessed_step,
    step,
)
from srkweak.tableau import registry_get, registry_names, stage_evaluation_order
from test_randvars import _assemble_reference

S3 = math.sqrt(3.0)


def zero_problem(m=1, calculus=ITO, d=1):
    zero = lambda x: np.zeros_like(x)
    return SdeProblem(d, m, calculus, [zero] * (m + 1))


def sinh_problem():
    return SdeProblem(
        1,
        1,
        ITO,
        [lambda x: 0.5 * x + np.sqrt(x * x + 1.0), lambda x: np.sqrt(x * x + 1.0)],
        label="sinh1d",
    )


def manual_draw(family, theta, eta):
    return NoiseDraw(family, np.asarray(theta, float), np.asarray(eta, float))


def test_euler_with_constant_noise_field():
    em = registry_get("EulerMaruyama")
    prob = SdeProblem(1, 1, ITO, [lambda x: np.zeros_like(x), lambda x: np.ones_like(x)])
    theta1 = math.sqrt(2.0 + S3)
    draw = manual_draw(em.family, [1.0, theta1], [1.0, 1.0])
    Theta = _assemble_reference(draw.family, 1, draw.eta, draw.theta[1:])
    assert Theta.tolist() == [[1.0, theta1], [1.0, -3 * theta1 + theta1**3]]
    out = step(prob, em, np.array([0.0]), 1.0, draw)
    assert out[0] == theta1


def test_zero_fields_are_fixed_points():
    rng = np.random.default_rng(0)
    for name in ["BDK1", "BDK2", "StratoExplicit24", "ItoImplicit12", "StratoDIRK"]:
        t = registry_get(name)
        prob = zero_problem(m=2, calculus=t.calculus)
        x = integrate_path(prob, t, np.array([1.25]), 0.3, 4, rng)
        assert x[0] == 1.25, name


def test_zero_steps_returns_initial_state():
    t = registry_get("BDK1")
    x = integrate_path(sinh_problem(), t, np.array([0.7]), 0.1, 0, np.random.default_rng(8))
    assert x[0] == 0.7
    xb = integrate_paths(sinh_problem(), t, np.array([0.7]), 0.1, 0, 4, np.random.default_rng(8))
    assert np.all(xb == 0.7)


def _kutta_rk3(f, x, h):
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x - h * k1 + 2 * h * k2)
    return x + h * (k1 / 6 + 2 * k2 / 3 + k3 / 6)


def test_bdk2_zero_noise_exponential_value():
    t = registry_get("BDK2")
    prob = SdeProblem(1, 1, ITO, [lambda x: x, lambda x: np.zeros_like(x)])
    draw = sample_draw(t.family, 1, np.random.default_rng(1))
    out = step(prob, t, np.array([1.0]), 0.1, draw)
    expected = 1.0 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6
    assert out[0] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("name", ["BDK2", "BDK3"])
def test_zero_noise_reduces_to_kutta_rk3(name):
    t = registry_get(name)
    f_np = lambda x: np.sin(x) + 0.3 * x * x
    prob = SdeProblem(1, 1, ITO, [f_np, lambda x: np.zeros_like(x)])
    rng = np.random.default_rng(2)
    for x0, h in [(0.3, 0.2), (-1.1, 0.05), (2.0, 0.01)]:
        draw = sample_draw(t.family, 1, rng)
        got = step(prob, t, np.array([x0]), h, draw)[0]
        want = _kutta_rk3(lambda z: math.sin(z) + 0.3 * z * z, x0, h)
        assert got == pytest.approx(want, rel=1e-15)


def test_step_is_deterministic():
    t = registry_get("BDK1")
    prob = sinh_problem()
    draw = sample_draw(t.family, 1, np.random.default_rng(3))
    a = step(prob, t, np.array([0.4]), 0.25, draw)
    b = step(prob, t, np.array([0.4]), 0.25, draw)
    assert a[0] == b[0]


@pytest.mark.parametrize(
    "name,nd,ns",
    [("BDK1", 2, 2), ("BDK2", 3, 2), ("BDK3", 3, 2), ("EulerMaruyama", 1, 1)],
)
def test_explicit_evaluation_counts(name, nd, ns):
    t = registry_get(name)
    prob = zero_problem(m=2)
    integrate_path(prob, t, np.zeros(1), 0.5, 1, np.random.default_rng(4))
    assert prob.drift_evals == nd
    assert prob.diffusion_evals.tolist() == [ns, ns]


def test_eval_counters_accumulate_over_path():
    t = registry_get("BDK1")
    prob = sinh_problem()
    integrate_path(prob, t, np.zeros(1), 2.0**-5, 64, np.random.default_rng(5))
    assert prob.drift_evals == 2 * 64
    assert prob.diffusion_evals.tolist() == [2 * 64]
    assert np.isfinite(prob.eval_counts).all()


def test_step_argument_checks():
    t = registry_get("BDK1")
    prob = sinh_problem()
    fam = t.family
    draw = sample_draw(fam, 1, np.random.default_rng(6))
    with pytest.raises(ValueError):
        step(prob, t, np.array([0.0]), -0.1, draw)
    draw2 = sample_draw(fam, 2, np.random.default_rng(6))
    with pytest.raises(ValueError):
        step(prob, t, np.array([0.0]), 0.1, draw2)
    strat = sample_draw(RvFamily.make(STRATONOVICH, 0.5), 1, np.random.default_rng(6))
    with pytest.raises(ValueError):
        step(prob, t, np.array([0.0]), 0.1, strat)
    # same calculus, other c: BDK1 (c = 1/2) would read the wrong Theta[p][0]
    quarter = sample_draw(RvFamily.make(ITO, 0.25), 1, np.random.default_rng(6))
    with pytest.raises(ValueError, match="c=0.25"):
        step(prob, t, np.array([0.0]), 0.1, quarter)
    sprob = zero_problem(calculus=STRATONOVICH)
    with pytest.raises(ValueError):
        step(sprob, t, np.array([0.0]), 0.1, draw)
    with pytest.raises(ValueError, match="need m\\+1 = 2 fields, got 3"):
        SdeProblem(1, 1, ITO, [lambda x: x] * 3)


def test_nonfinite_state_raises_with_context():
    t = registry_get("BDK1")
    prob = SdeProblem(1, 1, ITO, [lambda x: x * 1e200, lambda x: np.zeros_like(x)])
    # the drift overflows to inf, which is what the check must catch
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NonFiniteStateError) as err:
        integrate_path(prob, t, np.array([1.0]), 1.0, 3, np.random.default_rng(7))
    assert err.value.method == "BDK1"
    assert err.value.where is not None


def test_batch_matches_sequential_scalar_paths():
    t = registry_get("BDK1")
    rng_batch = np.random.default_rng(42)
    xb = integrate_paths(sinh_problem(), t, np.array([0.0]), 0.25, 8, 3, rng_batch)
    rng_seq = np.random.default_rng(42)
    prob = sinh_problem()
    xs = [integrate_path(prob, t, np.array([0.0]), 0.25, 8, rng_seq) for _ in range(3)]
    for i in range(3):
        assert xb[i, 0] == xs[i][0]


def test_batch_matches_scalar_for_implicit_and_strato():
    for name in ["ItoImplicit12", "StratoExplicit24", "StratoDIRK"]:
        t = registry_get(name)
        prob = SdeProblem(
            1,
            1,
            t.calculus,
            [lambda x: -0.4 * x, lambda x: 0.3 * x + 0.1],
        )
        xb = integrate_paths(prob, t, np.array([1.0]), 0.125, 6, 2, np.random.default_rng(9))
        xs0 = integrate_path(prob, t, np.array([1.0]), 0.125, 6, np.random.default_rng(9))
        assert xb[0, 0] == pytest.approx(xs0[0], rel=1e-12), name


IMPLICIT_METHODS = tuple(
    n for n in registry_names() if stage_evaluation_order(registry_get(n)) is None
)


@pytest.mark.parametrize("name", IMPLICIT_METHODS)
def test_implicit_stage_solution_matches_direct_linear_solve(name):
    # linear scalar problem: stage equations are linear, solve them directly
    t = registry_get(name)
    a_lin, b_lin = -0.7, 0.4
    x0, h = 0.9, 0.05
    fam = t.family
    draw = sample_draw(fam, 1, np.random.default_rng(10))
    s1, s2 = t.s1, t.s2
    n = s1 + s2
    K = np.zeros((n, n))
    Theta = _assemble_reference(fam, 1, draw.eta, draw.theta[1:])
    th01, th10, th11 = Theta[0, 1], Theta[1, 0], Theta[1, 1]
    # at m = 1 the only stochastic entry is the diagonal q = p, which
    # Stratonovich methods read from Bhat1
    B_diag = t.Bhat1 if t.calculus == STRATONOVICH else t.B1
    sqh = math.sqrt(h)
    for i in range(s1):
        for j in range(s1):
            K[i, j] += h * a_lin * t.A0[i, j]
        for j in range(s2):
            K[i, s1 + j] += sqh * b_lin * t.B0[i, j] * th01
    for i in range(s2):
        for j in range(s1):
            K[s1 + i, j] += h * a_lin * t.A1[i, j] * th10
        for j in range(s2):
            K[s1 + i, s1 + j] += sqh * b_lin * B_diag[i, j] * th11
    stages = np.linalg.solve(np.eye(n) - K, np.full(n, x0))
    expected = (
        x0
        + h * a_lin * float(t.alpha @ stages[:s1])
        + sqh * draw.theta[1] * b_lin * float(t.beta @ stages[s1:])
    )
    prob = SdeProblem(1, 1, t.calculus, [lambda x: a_lin * x, lambda x: b_lin * x])
    got = step(prob, t, np.array([x0]), h, draw)[0]
    assert got == pytest.approx(expected, abs=1e-12 * (1 + abs(x0)))


@pytest.mark.parametrize("name", IMPLICIT_METHODS)
def test_implicit_divergence_raises(name):
    # every cyclic block diverges; some overflow to inf and then NaN, which
    # must fail the stopping test rather than pass it
    t = registry_get(name)
    prob = SdeProblem(1, 1, t.calculus, [lambda x: 50.0 * x, lambda x: 50.0 * x])
    draw = sample_draw(t.family, 1, np.random.default_rng(11))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ImplicitSolveError, match="stage block"):
            step(prob, t, np.array([1.0]), 1.0, draw)


def test_block_solve_evaluates_explicit_stages_once():
    # ItoDIRKEX is s0 | d0 (cyclic) | s1: only the drift stage is iterated,
    # so each step makes exactly s2 = 2 diffusion evaluations
    t = registry_get("ItoDIRKEX")
    setup = make_problem("sinh1d")
    prob = setup.make()
    integrate_paths(prob, t, setup.x0, 2.0**-4, 16, 5, np.random.default_rng(3))
    assert prob.diffusion_evals.tolist() == [t.s2 * 16]
    assert prob.drift_evals > 16  # the drift block takes several sweeps


def _affine_pair(problem, M, bvec):
    Minv = np.linalg.inv(M)

    def push(f):
        return lambda y: (f((y - bvec) @ Minv.T)) @ M.T

    return SdeProblem(
        problem.d,
        problem.m,
        problem.calculus,
        [push(f) for f in problem.fields],
    )


@pytest.mark.parametrize("name", ["BDK1", "StratoExplicit24", "StratoDIRK"])
def test_affine_equivariance(name):
    t = registry_get(name)
    f0 = lambda x: np.stack([np.sin(x[:, 1]), x[:, 0] * x[:, 1] - 0.2], axis=1)
    f1 = lambda x: np.stack([0.3 * x[:, 1] + 0.1, np.cos(x[:, 0])], axis=1)
    prob = SdeProblem(2, 1, t.calculus, [f0, f1])
    M = np.array([[1.2, -0.3], [0.4, 0.9]])
    bvec = np.array([0.5, -1.0])
    tprob = _affine_pair(prob, M, bvec)
    draw = sample_draw(t.family, 1, np.random.default_rng(12))
    x = np.array([0.2, -0.4])
    straight = M @ step(prob, t, x, 0.1, draw) + bvec
    mapped = step(tprob, t, M @ x + bvec, 0.1, draw)
    assert mapped == pytest.approx(straight, rel=1e-12)


# ---------------------------------------------------------------------------
# postprocessed invariant-measure scheme


def _const_identity_D(x):
    n, d = x.shape
    out = np.zeros((n, d, d))
    idx = np.arange(d)
    out[:, idx, idx] = 1.0
    return out


def test_langevin_zero_fields():
    zero_F = lambda x: np.zeros_like(x)
    zero_D = lambda x: np.zeros(x.shape + (1,))
    fam = RvFamily.make(ITO, 0.5)
    draw = sample_draw(fam, 1, np.random.default_rng(13))
    state = LangevinState(np.array([0.7]), np.array([0.7]))
    new = langevin_postprocessed_step(zero_F, zero_D, state, 0.1, draw)
    assert new.x[0] == 0.7 and new.xbar[0] == 0.7


def test_langevin_constant_identity_diffusion_formula():
    # with D = I the postprocessed output is x + sqrt(h/2) sum_p theta_p e_p
    d = m = 2
    F = lambda x: -x
    fam = RvFamily.make(ITO, 0.5)
    draw = sample_draw(fam, m, np.random.default_rng(14))
    x = np.array([0.3, -0.5])
    state = LangevinState(x, x.copy())
    h = 0.2
    new = langevin_postprocessed_step(F, _const_identity_D, state, h, draw)
    expected_xbar = x + math.sqrt(h / 2.0) * np.asarray(draw.theta[1:])
    assert new.xbar == pytest.approx(expected_xbar, abs=1e-14)
    # and the chain update with cached force: x + h F(xbar) + sqrt(2h) theta
    expected_x = x + h * (-expected_xbar) + math.sqrt(2 * h) * np.asarray(draw.theta[1:])
    assert new.x == pytest.approx(expected_x, abs=1e-14)


def test_langevin_evaluation_counts():
    calls = {"F": 0, "D": 0}

    def F(x):
        calls["F"] += 1
        return -x

    def D(x):
        calls["D"] += 1
        return np.ones(x.shape + (1,))

    n_steps = 50
    langevin_chain(F, D, np.zeros(1), 1, 0.1, n_steps, np.random.default_rng(15), n_chains=4)
    # one F per step plus the initial F(xbar_{-1}); m+1 D calls per step, so
    # each noise column of D is evaluated twice per step
    assert calls["F"] == n_steps + 1
    assert calls["D"] == n_steps * 2


def test_a_non_finite_langevin_step_names_its_step_and_first_bad_chain():
    F, D, d, m, _, _ = invariant_setup("doublewell")
    fam = RvFamily.make(ITO, 0.5)
    draw = NoiseDraw(fam, *draws_from_uniforms(fam, m, np.full((3, fam.rv_count(m)), 0.3)))
    # chains 1 and 2 start where the cubic drift overflows; chain 0 stays finite
    state = LangevinState(np.array([[0.0], [1e200], [1e200]]), np.zeros((3, d)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as err:
        langevin_postprocessed_step(F, D, state, 0.5, draw)
    assert (err.value.where, err.value.h) == (1, 0.5)
    assert "first bad chain 1" in str(err.value)
    # the chain re-raises it with the step: where = (step, chain), as integrate_paths does
    rng = np.random.default_rng(np.random.SeedSequence((0,)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as err:
        langevin_chain(F, D, np.zeros(d), m, 3.0, 50, rng, n_chains=4)
    step_index, chain = err.value.where
    assert err.value.h == 3.0 and chain == err.value.__cause__.where
    assert str(err.value) == (
        f"non-finite state at step {step_index + 1}/50 of the postprocessed chain "
        f"(h=3.0, first bad chain {chain})"
    )


def test_langevin_chain_is_deterministic():
    F = lambda x: -x
    D = lambda x: np.ones(x.shape + (1,))
    a = langevin_chain(F, D, np.zeros(1), 1, 0.25, 100, np.random.default_rng(16), n_chains=3)
    b = langevin_chain(F, D, np.zeros(1), 1, 0.25, 100, np.random.default_rng(16), n_chains=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.xbar, b.xbar)


def test_langevin_x_chain_variance_matches_closed_form():
    # for V = x^2/2 and D = 1 the x-chain is linear with stationary variance
    # exactly 1 - h/2, while the postprocessed xbar-chain has variance 1
    F = lambda x: -x
    D = lambda x: np.ones(x.shape + (1,))
    h = 0.25
    xbars = []

    def observer(k, xbar):
        if k >= 200:
            xbars.append(xbar.copy())

    rng = np.random.default_rng(17)
    n_chains, n_steps = 400, 3000
    langevin_chain(F, D, np.zeros(1), 1, h, n_steps, rng, n_chains=n_chains, observer=observer)
    xbar_all = np.concatenate(xbars, axis=0)[:, 0]
    var_xbar = float(np.mean(xbar_all**2))
    assert var_xbar == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("m", [2, 3, 10])
def test_langevin_inner_stage_matches_dense_einsum(m):
    # the inner stages H + sqrt(h/2) sum_q Theta[p][q] D_q(H), mixed from the
    # generators, against the dense O(m^2) sum over the reference Theta
    fam = RvFamily.make(ITO, 0.5)
    rng = np.random.default_rng(m)
    n, d, h = 50, 3, 0.25
    A = 0.3 * rng.standard_normal((d, d, m))
    F = lambda x: -x
    calls = []

    def D(x):
        calls.append(x)
        return 1.0 + np.einsum("nk,kdp->ndp", np.sin(x), A)

    draw = NoiseDraw(fam, *draws_from_uniforms(fam, m, rng.random((n, fam.rv_count(m)))))
    x, xbar = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    langevin_postprocessed_step(F, D, LangevinState(x, xbar), h, draw)
    H, inner = calls[0], calls[1:]
    assert len(inner) == m
    DH, Theta = D(H), _assemble_reference(fam, m, draw.eta, draw.theta[:, 1:])[:, 1:, 1:]
    root_half_h = math.sqrt(h / 2.0)
    want = H[:, None, :] + root_half_h * np.einsum("ndq,npq->npd", DH, Theta)
    # rounding bound: 1e-14 of the summed magnitudes of the terms
    scale = np.abs(H)[:, None, :] + root_half_h * np.einsum("ndq,npq->npd", np.abs(DH), np.abs(Theta))
    for p, got in enumerate(inner):
        assert np.all(np.abs(got - want[:, p]) <= 1e-14 * scale[:, p])


# ---------------------------------------------------------------------------
# structured stage mixing

MIX_FAMILIES = [(cal, c) for cal in (ITO, STRATONOVICH) for c in (0.5, 0.25, 1.0 / 3.0)]


@pytest.mark.parametrize("calculus,c", MIX_FAMILIES)
@pytest.mark.parametrize("m", [2, 3, 10])
def test_structured_mixing_matches_dense_einsum(calculus, c, m):
    fam = RvFamily.make(calculus, c)
    rng = np.random.default_rng(m)
    n, d = 200, 2
    theta, eta = draws_from_uniforms(fam, m, rng.random((n, fam.rv_count(m))))
    F = rng.standard_normal((m, n, d))
    strato = calculus == STRATONOVICH
    coefficients = mixing_coefficients(fam, theta, eta)
    U, V = _mix(coefficients, F, strato, True, True)
    # a mix formed alone is the same array, and the one not wanted is None
    U_alone, no_V = _mix(coefficients, F, strato, True, False)
    no_U, V_alone = _mix(coefficients, F, strato, False, True)
    assert no_U is None and no_V is None
    assert np.array_equal(U_alone, U) and np.array_equal(V_alone, V)
    Theta = _assemble_reference(fam, m, eta, theta[:, 1:])
    Thpq = Theta[:, 1:, 1:].copy()
    if strato:
        Thpq[:, np.arange(m), np.arange(m)] = 0.0
    # rounding bound: 1e-14 of the summed magnitudes of the terms
    for got, subscripts, coef in [(U, "nq,qnd->nd", Theta[:, 0, 1:]), (V, "npq,qnd->pnd", Thpq)]:
        want = np.einsum(subscripts, coef, F)
        scale = np.einsum(subscripts, np.abs(coef), np.abs(F))
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("name,mixes_per_step", [("BDK2", 1), ("EulerMaruyama", 0)])
def test_only_mixes_that_a_stage_reads_are_formed(monkeypatch, name, mixes_per_step):
    # BDK2's second stochastic stage enters only the update, through beta, and
    # Euler-Maruyama's one stage too, so neither is mixed
    calls = []

    def counting_mix(*args):
        calls.append(args[3:])
        return _mix(*args)

    monkeypatch.setattr(stepper, "_mix", counting_mix)
    setup = make_problem("sinh1d")
    integrate_paths(setup.make(), registry_get(name), setup.x0, 0.25, 4, 3, np.random.default_rng(0))
    assert len(calls) == 4 * mixes_per_step
    assert all(wanted == (True, True) for wanted in calls)


@pytest.mark.parametrize("calculus,c", MIX_FAMILIES)
def test_batched_generators_and_coefficients_are_noise_major(calculus, c):
    # the stepper reads theta.T and the coefficients as contiguous (m, n) rows
    fam, m = RvFamily.make(calculus, c), 10
    u = np.random.default_rng(0).random((50, 3, fam.rv_count(m)))
    theta, eta = draws_from_uniforms(fam, m, u[:, 1, :])
    assert theta.shape == eta.shape == (50, m + 1)
    assert theta.T.flags.c_contiguous
    for a in mixing_coefficients(fam, theta, eta):
        if a is None:  # the all-ones Theta[q][0] column of the c = 1/2 variant
            continue
        assert a.shape == (m, 50) and a.flags.c_contiguous


@pytest.mark.parametrize("name", ["BDK1", "BDK2", "BDK3", "StratoExplicit24"])
def test_batch_matches_sequential_with_mixed_noises(name):
    t = registry_get(name)
    for m in (3, 10):  # m = 10 is the shape of the tennoise benchmark
        fields = [lambda x: -0.4 * x] + [
            (lambda k: lambda x: (0.2 + 0.1 * k) * np.sin(x) + 0.1)(k) for k in range(m)
        ]
        prob = SdeProblem(1, m, t.calculus, fields)
        xb = integrate_paths(prob, t, np.array([0.5]), 0.125, 6, 4, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        xs = np.stack([integrate_path(prob, t, np.array([0.5]), 0.125, 6, rng) for _ in range(4)])
        assert np.array_equal(xb, xs), m


# ---------------------------------------------------------------------------
# outputs pinned bit for bit (float.hex) across changes to the stepping core

PINNED_SINH1D = {  # integrate_paths on sinh1d, h = 1/16, 8 steps, 3 paths, seed 2024
    "BDK2": ["-0x1.cbae6dcca43c8p-4", "0x1.daf14da1488b5p+0", "0x1.3c524410ac12dp-3"],
    "EulerMaruyama": ["-0x1.a865c62eb1a20p-4", "0x1.b1f9d71a7d0d7p+0", "0x1.21dc89cb6aa5ep-3"],
    "ItoDIRKEX": ["0x1.f07d0357f3e5bp+1", "0x1.d2ec711186b48p-2", "0x1.092af5f56dfd2p-1"],
}


@pytest.mark.parametrize("name", sorted(PINNED_SINH1D))
def test_sinh1d_paths_are_pinned(name):
    setup = make_problem("sinh1d")
    x = integrate_paths(
        setup.make(), registry_get(name), setup.x0, 2.0**-4, 8, 3, np.random.default_rng(2024)
    )
    assert [v.hex() for v in x[:, 0].tolist()] == PINNED_SINH1D[name]


def test_langevin_chain_is_pinned():
    # criterion 9's stream consumer: the OU chain seeded as run_invariant_measure seeds it
    F, D, d, m, _, _ = invariant_setup("ou")
    rng = np.random.default_rng(np.random.SeedSequence((6,)))
    state = langevin_chain(F, D, np.zeros(d), m, 0.25, 100, rng, n_chains=3)
    assert [v.hex() for v in state.x[:, 0].tolist()] == [
        "-0x1.a4cdca9bae79dp+0", "0x1.96df54f92c0c0p-7", "-0x1.7a3b52ee92a00p-3"
    ]
    assert [v.hex() for v in state.xbar[:, 0].tolist()] == [
        "-0x1.47efd3f867098p+0", "0x1.0ad38c3c68397p-2", "0x1.543158b427a72p-1"
    ]
    # m = 2 with a state-dependent diffusion, so the mixed Theta[p][q] enter
    coupling = np.array([[1.0, -0.5], [0.25, 1.0]])
    D2 = lambda x: np.eye(2) + 0.3 * np.sin(x)[:, :, None] * coupling
    rng = np.random.default_rng(np.random.SeedSequence((6,)))
    state = langevin_chain(F, D2, np.zeros(2), 2, 0.25, 100, rng, n_chains=3)
    assert [v.hex() for v in state.x.ravel().tolist()] == [
        "0x1.332a41414f37cp+0", "-0x1.3afaa25d3f353p+0", "0x1.447f27ee76656p-2",
        "0x1.2d8406a324256p+0", "-0x1.c6aa3f27e2588p-4", "0x1.dac0c06e7be44p-1",
    ]
    assert [v.hex() for v in state.xbar.ravel().tolist()] == [
        "0x1.0c60765fcc40dp-2", "-0x1.03f4329584fdap+0", "0x1.19d6c83998a10p-2",
        "0x1.4fe3aec2851a5p+0", "0x1.ddbe16ee8e5dep-3", "0x1.b8537e7fb259ap-3",
    ]
