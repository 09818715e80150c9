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
    _weighted_sum,
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
from srkweak.tableau import make_tableau, registry_get, registry_names, stage_evaluation_order
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


@pytest.mark.parametrize(
    "d,m,what",
    [(1, 0, "noises"), (1.5, 1, "state dimensions"), (0, 1, "state dimensions"), (1, 1.0, "noises")],
)
def test_problem_dimension_and_noise_counts_share_the_count_rule(d, m, what):
    # m + 1 fields, so only the count rule can reject the problem
    got = m if what == "noises" else d
    with pytest.raises(ValueError, match=f"^the number of {what} must be an integer of at least 1, got {got}$"):
        SdeProblem(d, m, ITO, [lambda x: x] * (int(m) + 1))


def test_nonfinite_state_raises_with_context():
    t = registry_get("BDK1")
    prob = SdeProblem(1, 1, ITO, [lambda x: x * 1e200, lambda x: np.zeros_like(x)])
    # the drift overflows to inf, which is what the check must catch
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NonFiniteStateError) as err:
        integrate_path(prob, t, np.array([1.0]), 1.0, 3, np.random.default_rng(7))
    assert err.value.method == "BDK1"
    assert err.value.where is not None


def test_a_path_and_a_one_path_batch_report_the_same_failure():
    # dX = X^3 dt + X/2 dW from X = 1 overflows at the fifth BDK1 step of h = 1/2;
    # both entry points run the same one-step kernel on the same stream
    t = registry_get("BDK1")
    cubic = lambda: SdeProblem(1, 1, ITO, [lambda x: x * x * x, lambda x: 0.5 * x])
    runs = [
        lambda rng: integrate_path(cubic(), t, np.array([1.0]), 0.5, 8, rng),
        lambda rng: integrate_paths(cubic(), t, np.array([1.0]), 0.5, 8, 1, rng),
    ]
    errors = []
    for run in runs:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as err:
            run(np.random.default_rng(0))
        errors.append(err.value)
    for e in errors:
        assert (e.where, e.h, e.method) == ((4, 0), 0.5, "BDK1")
        assert str(e) == "non-finite state at step 5/8 of BDK1 (h=0.5, first bad path 0)"
        assert e.__cause__ is None


def test_a_single_step_and_an_implicit_solve_name_their_step():
    t = registry_get("BDK1")
    prob = SdeProblem(1, 1, ITO, [lambda x: x * 1e200, lambda x: np.zeros_like(x)])
    draw = sample_draw(t.family, 1, np.random.default_rng(7))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        step(prob, t, np.array([1e200]), 1.0, draw)
    assert err.value.where == (0, 0)
    assert str(err.value) == "non-finite state at step 1/1 of BDK1 (h=1.0, first bad path 0)"
    # the stopping test is shared across the batch, so no single path is named
    t = registry_get("ItoDIRKEX")
    prob = SdeProblem(1, 1, ITO, [lambda x: 50.0 * x, lambda x: 50.0 * x])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ImplicitSolveError) as err:
        integrate_paths(prob, t, np.array([1.0]), 1.0, 3, 4, np.random.default_rng(11))
    assert (err.value.where, err.value.method) == ((0, None), "ItoDIRKEX")
    assert str(err.value).endswith("within 200 iterations at step 1/3 (h=1.0)")


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


def test_an_ito_tableau_steps_without_its_bhat1():
    # Bhat1 means nothing to an Ito method, so a block it would close is not
    # iterated: the path and the evaluation counts are those without it
    t = registry_get("BDK1")
    fields = [lambda x: -x, lambda x: 0.3 * x]
    blocks = [getattr(t, b) for b in ("alpha", "beta", "A0", "B0", "A1", "B1")]
    with_bhat1 = make_tableau("BDK1+Bhat1", ITO, *blocks, np.eye(2), c=0.5, det_order=2,
                              weak_order=2, structure=t.structure)
    runs = []
    for method in (t, with_bhat1):
        prob = SdeProblem(1, 1, ITO, fields)
        x = integrate_paths(prob, method, np.array([1.0]), 0.1, 3, 2, np.random.default_rng(0))
        runs.append((x.tolist(), prob.eval_counts.tolist()))
    assert runs[0] == runs[1]


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
    assert (err.value.where, err.value.h) == ((0, 1), 0.5)
    assert "first bad chain 1" in str(err.value)
    # the chain raises the same record at its step: where = (step, chain), as integrate_paths does
    rng = np.random.default_rng(np.random.SeedSequence((0,)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as err:
        langevin_chain(F, D, np.zeros(d), m, 3.0, 50, rng, n_chains=4)
    step_index, chain = err.value.where
    assert err.value.h == 3.0
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


@pytest.mark.parametrize("m", [3, 10])
def test_the_public_postprocessed_step_does_not_depend_on_the_draws_layout(m):
    # one draw, its theta and eta contiguous or every other entry of a wider
    # array: the sums over noises add in one fixed order, so the bits agree
    fam, d = RvFamily.make(ITO, 0.5), 2
    A = 0.3 * np.random.default_rng(m).standard_normal((d, d, m))
    F = lambda x: -x - 0.1 * x**3
    D = lambda x: np.eye(d, m) + np.einsum("nk,kdp->ndp", np.sin(x), A)
    for seed in range(15):
        rng = np.random.default_rng(seed)
        theta, eta = draws_from_uniforms(fam, m, rng.random(fam.rv_count(m)))
        x = rng.standard_normal(d)
        outs = []
        for layout in (np.ascontiguousarray, lambda a: np.repeat(a, 2)[::2]):
            draw = NoiseDraw(fam, layout(theta), layout(eta))
            state = langevin_postprocessed_step(F, D, LangevinState(x, x), 0.25, draw)
            outs.append((state.x.tobytes(), state.xbar.tobytes(), state.f_xbar.tobytes()))
        assert not np.repeat(theta, 2)[::2].flags.c_contiguous
        assert outs[0] == outs[1], seed


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
    U, V = _weighted_sum(coefficients[0], F), _mix(coefficients, F, strato)
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
        calls.append(args)
        return _mix(*args)

    monkeypatch.setattr(stepper, "_mix", counting_mix)
    setup = make_problem("sinh1d")
    integrate_paths(setup.make(), registry_get(name), setup.x0, 0.25, 4, 3, np.random.default_rng(0))
    assert len(calls) == 4 * mixes_per_step


def test_a_stage_forms_only_the_mix_that_is_read(monkeypatch):
    # stochastic stage 0 is read only through B0 (by drift stage 1), so it
    # forms U and makes no _mix call; stage 1 only through B1 (by stochastic
    # stage 2), so it makes a _mix call and forms no U; stage 2 enters only
    # the update, through beta, and forms neither
    t = make_tableau(
        "mixes", ITO, [0.5, 0.5], [0.0, 0.5, 0.5],
        [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        np.zeros((3, 2)), [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        c=0.5, det_order=1, weak_order=1, structure="explicit",
    )
    mixed, formed = [], []
    mix, evaluate = stepper._mix, stepper._StageValues.evaluate

    def counting_mix(coefficients, F, strato):
        mixed.append(len(formed))  # the stage being evaluated when _mix is called
        return mix(coefficients, F, strato)

    def recording_evaluate(values, stage, H):
        if stage.kind == "stoch":
            formed.append(None)
        evaluate(values, stage, H)
        if stage.kind == "stoch":
            formed[-1] = (stage.i, values.U[stage.i] is not None, values.V[stage.i] is not None)

    monkeypatch.setattr(stepper, "_mix", counting_mix)
    monkeypatch.setattr(stepper._StageValues, "evaluate", recording_evaluate)
    integrate_paths(_mixed_noise_problem(ITO, 2), t, np.array([0.5]), 0.125, 2, 3, np.random.default_rng(0))
    assert formed == [(0, True, False), (1, False, True), (2, False, False)] * 2
    assert mixed == [2, 5]  # once a step, while stochastic stage 1 is evaluated


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


def _mixed_noise_problem(calculus, m):
    fields = [lambda x: -0.4 * x] + [
        (lambda k: lambda x: (0.2 + 0.1 * k) * np.sin(x) + 0.1)(k) for k in range(m)
    ]
    return SdeProblem(1, m, calculus, fields)


@pytest.mark.parametrize("name", ["BDK1", "BDK2", "BDK3", "StratoExplicit24"])
def test_batch_matches_sequential_with_mixed_noises(name):
    t = registry_get(name)
    for m in (3, 10):  # m = 10 is the shape of the tennoise benchmark
        prob = _mixed_noise_problem(t.calculus, m)
        xb = integrate_paths(prob, t, np.array([0.5]), 0.125, 6, 4, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        xs = np.stack([integrate_path(prob, t, np.array([0.5]), 0.125, 6, rng) for _ in range(4)])
        assert np.array_equal(xb, xs), m


# ---------------------------------------------------------------------------
# the uniform stream: drawn path-major, stored step-major in chunks of paths


@pytest.mark.parametrize("name", ["BDK3", "ItoDIRKEX", "StratoExplicit24"])
@pytest.mark.parametrize("n_steps,n_paths", [(6, 5), (1, 1), (3, 1), (1, 4)])
def test_integrate_paths_leaves_the_generator_where_one_draw_would(monkeypatch, name, n_steps, n_paths):
    t = registry_get(name)
    k = t.family.rv_count(3)
    monkeypatch.setattr(stepper, "_STREAM_CHUNK_UNIFORMS", 2 * n_steps * k)  # 2 paths a chunk
    rng = np.random.default_rng(31)
    integrate_paths(_mixed_noise_problem(t.calculus, 3), t, np.array([0.5]), 0.125, n_steps, n_paths, rng)
    reference = np.random.default_rng(31)
    reference.random((n_paths, n_steps, k))
    assert rng.random(5).tobytes() == reference.random(5).tobytes()


@pytest.mark.parametrize("n_steps,n_paths", [(0, 4), (3, 0), (0, 0)])
def test_an_empty_batch_consumes_no_uniforms(n_steps, n_paths):
    rng = np.random.default_rng(32)
    state = rng.bit_generator.state
    x = integrate_paths(sinh_problem(), registry_get("BDK3"), np.array([0.7]), 0.1, n_steps, n_paths, rng)
    assert x.shape == (n_paths, 1) and np.all(x == 0.7)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", ["BDK3", "ItoDIRKEX"])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_chunks_of_the_uniform_stream_do_not_change_the_paths(monkeypatch, name, m):
    # ItoDIRKEX and BDK3 draw k = 2 uniforms per step at m = 1, 2m + 1 above
    t = registry_get(name)
    n_steps, n_paths, k = 6, 5, t.family.rv_count(m)
    run = lambda: integrate_paths(
        _mixed_noise_problem(ITO, m), t, np.array([0.5]), 0.125, n_steps, n_paths,
        np.random.default_rng(33),
    )
    whole = run()  # one chunk holds every path
    for paths_per_chunk in (1, 2):  # one path; 2 does not divide 5
        monkeypatch.setattr(stepper, "_STREAM_CHUNK_UNIFORMS", paths_per_chunk * n_steps * k)
        assert run().tobytes() == whole.tobytes(), paths_per_chunk
    # and path after path: bit for bit when explicit, within 1e-12 when implicit
    rng = np.random.default_rng(33)
    prob = _mixed_noise_problem(ITO, m)
    alone = np.stack([integrate_path(prob, t, np.array([0.5]), 0.125, n_steps, rng) for _ in range(n_paths)])
    if name in IMPLICIT_METHODS:
        np.testing.assert_allclose(whole, alone, rtol=1e-12, atol=0.0)
    else:
        assert whole.tobytes() == alone.tobytes()


BAD_STEP_SIZES = [0.0, -0.5, math.nan, math.inf]
STEP_SIZE_MESSAGE = "the step size must be a finite positive number, got "


@pytest.mark.parametrize("h", BAD_STEP_SIZES, ids=repr)
def test_every_stepping_entry_point_rejects_a_bad_step_size(h):
    t = registry_get("BDK1")
    prob = sinh_problem()
    x0 = np.array([0.0])
    draw = sample_draw(t.family, 1, np.random.default_rng(6))
    F, D, d, m, _, _ = invariant_setup("ou")
    calls = {
        "step": lambda: step(prob, t, x0, h, draw),
        "integrate_path": lambda: integrate_path(prob, t, x0, h, 3, np.random.default_rng(6)),
        "integrate_path, no steps": lambda: integrate_path(prob, t, x0, h, 0, np.random.default_rng(6)),
        "integrate_paths": lambda: integrate_paths(prob, t, x0, h, 3, 2, np.random.default_rng(6)),
        "langevin_postprocessed_step": lambda: langevin_postprocessed_step(
            F, D, LangevinState(x0, x0), h, sample_draw(RvFamily.make(ITO, 0.5), 1, np.random.default_rng(6))
        ),
        "langevin_chain": lambda: langevin_chain(F, D, x0, m, h, 3, np.random.default_rng(6)),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match=STEP_SIZE_MESSAGE + repr(h)):
            call()
    assert prob.eval_counts.tolist() == [0, 0]


@pytest.mark.parametrize("n", [-1, 1.5], ids=repr)
def test_every_stepping_entry_point_rejects_a_bad_count(n):
    t = registry_get("BDK1")
    prob = sinh_problem()
    x0 = np.array([0.0])
    F, D, _, m, _, _ = invariant_setup("ou")
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    calls = {
        "steps": [
            lambda: integrate_path(prob, t, x0, 0.25, n, rng),
            lambda: integrate_paths(prob, t, x0, 0.25, n, 2, rng),
            lambda: langevin_chain(F, D, x0, m, 0.25, n, rng),
        ],
        "paths": [lambda: integrate_paths(prob, t, x0, 0.25, 3, n, rng)],
        "chains": [lambda: langevin_chain(F, D, x0, m, 0.25, 3, rng, n_chains=n)],
    }
    for what, entry_points in calls.items():
        message = f"the number of {what} must be an integer of at least 0, got {n!r}$"
        for call in entry_points:
            with pytest.raises(ValueError, match=message):
                call()
    # and at least one noise
    with pytest.raises(ValueError, match="the number of noises must be an integer of at least 1, got 0$"):
        langevin_chain(F, lambda x: np.ones(x.shape + (0,)), x0, 0, 0.25, 3, rng)
    assert prob.eval_counts.tolist() == [0, 0]
    assert rng.bit_generator.state == state


def test_no_steps_or_no_chains_draw_nothing():
    F, D, d, m, _, _ = invariant_setup("ou")
    rng = np.random.default_rng(34)
    state = rng.bit_generator.state
    x = integrate_path(sinh_problem(), registry_get("BDK3"), np.array([0.7]), 0.1, 0, rng)
    assert x.tolist() == [0.7]
    chain = langevin_chain(F, D, np.full(d, 0.7), m, 0.1, 0, rng, n_chains=2)
    assert chain.x.tolist() == chain.xbar.tolist() == [[0.7], [0.7]] and chain.f_xbar is None
    chain = langevin_chain(F, D, np.full(d, 0.7), m, 0.1, 5, rng, n_chains=0)
    assert chain.x.shape == chain.xbar.shape == chain.f_xbar.shape == (0, d)
    assert rng.bit_generator.state == state


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


def _identity_drift_problem(calculus, m):
    # the drift returns its argument, so a stage value aliases the iterate it
    # was evaluated at, and a sweep that overwrote that iterate would show
    fields = [lambda x: x] + [
        (lambda k: lambda x: (0.2 + 0.1 * k) * np.sin(x) + 0.1)(k) for k in range(m)
    ]
    return SdeProblem(1, m, calculus, fields)


PIN_PROBLEMS = {  # name -> (problem factory, x0)
    "sinh1d": (lambda: make_problem("sinh1d").make(), 0.0),
    "ito_m3": (lambda: _identity_drift_problem(ITO, 3), 0.5),
    "strato_m1": (lambda: _identity_drift_problem(STRATONOVICH, 1), 0.5),
    "strato_m3": (lambda: _identity_drift_problem(STRATONOVICH, 3), 0.5),
}

# every registered method on two problems of its calculus: integrate_paths,
# h = 1/8, 6 steps, 4 paths, seed 77; the final states and the eval_counts,
# which pin the implicit sweep counts
PINNED_ALL_METHODS = {
    ("ito_m3", "BDK1"): (
        ["0x1.6ac9664e31e0cp-1", "0x1.18ddb7a116cd7p+1",
         "0x1.7bacd6facc591p-3", "0x1.5e7080f16d8e1p+0"],
        [12, 12, 12, 12],
    ),
    ("ito_m3", "BDK2"): (
        ["0x1.6b57059280eacp-1", "0x1.199c09dbf48fap+1",
         "0x1.7b066e0097c7cp-3", "0x1.5f3885358f49ep+0"],
        [18, 12, 12, 12],
    ),
    ("ito_m3", "BDK3"): (
        ["0x1.17edae6c8a2dfp-1", "0x1.7b15e231f07f0p-2",
         "0x1.eb08837f321fbp-2", "0x1.b3e9590af8a8cp-3"],
        [18, 12, 12, 12],
    ),
    ("ito_m3", "EulerMaruyama"): (
        ["0x1.4cdafb2390adep-1", "0x1.df04305975531p+0",
         "0x1.bb1fd35157e72p-3", "0x1.4eb839ed06113p+0"],
        [6, 6, 6, 6],
    ),
    ("ito_m3", "ItoDIRKEX"): (
        ["0x1.366b0dd9b6f96p-1", "0x1.80e5ee916c57ap-2",
         "0x1.eb53c4d99ba70p-2", "0x1.598d6885ba62fp-3"],
        [67, 12, 12, 12],
    ),
    ("ito_m3", "ItoEXDIRK"): (
        ["0x1.6fec2ad9cbb1ap-1", "0x1.1b69343b8d2cbp+1",
         "0x1.7e2f58da3dadfp-3", "0x1.5cc7afcde1879p+0"],
        [12, 206, 206, 206],
    ),
    ("ito_m3", "ItoImplicit12"): (
        ["0x1.4cf7e69ffa45dp-1", "0x1.81d2e0d5db14fp-2",
         "0x1.f40be50a35f98p-2", "0x1.8ffd1ac4f99aap-3"],
        [68, 228, 228, 228],
    ),
    ("sinh1d", "BDK1"): (
        ["0x1.17eb192717cc2p+1", "0x1.958d69a67ef80p+0",
         "-0x1.284d8b529edbcp+0", "-0x1.b1b590fcb2914p-3"],
        [12, 12],
    ),
    ("sinh1d", "BDK2"): (
        ["0x1.18a294b8b4a6bp+1", "0x1.9626b79db235ep+0",
         "-0x1.2837210101994p+0", "-0x1.b038c3e56a1e4p-3"],
        [18, 12],
    ),
    ("sinh1d", "BDK3"): (
        ["0x1.b1a748af896b5p-1", "-0x1.56d07fdf91d60p-4",
         "0x1.42e0693f66893p+1", "-0x1.20c7e77bd92c5p+0"],
        [18, 12],
    ),
    ("sinh1d", "EulerMaruyama"): (
        ["0x1.0cacd7d0e07f8p+1", "0x1.afe5e6f7df94ep+0",
         "-0x1.21d36c5dee784p+0", "-0x1.010b006d5e420p-2"],
        [6, 6],
    ),
    ("sinh1d", "ItoDIRKEX"): (
        ["0x1.aee585ceec2d2p-1", "-0x1.6204657c0e240p-4",
         "0x1.4fa7a5ade951cp+1", "-0x1.2584baacc5e7fp+0"],
        [72, 12],
    ),
    ("sinh1d", "ItoEXDIRK"): (
        ["0x1.15a77ab9bd4cap+1", "0x1.9884ca20d3a66p+0",
         "-0x1.2078af0dd8505p+0", "-0x1.ca3473a2caf38p-3"],
        [12, 361],
    ),
    ("sinh1d", "ItoImplicit12"): (
        ["0x1.b3a82692d4b86p-1", "-0x1.b3968c58c1a72p-4",
         "0x1.546566991bae5p+1", "-0x1.190932971e690p+0"],
        [74, 359],
    ),
    ("strato_m1", "StratoDIRK"): (
        ["0x1.493dff5435e20p-1", "0x1.560463163b04ap+0",
         "0x1.802f911212c4ap+0", "0x1.6e44b971c81ccp+0"],
        [66, 163],
    ),
    ("strato_m1", "StratoDIRKEX"): (
        ["0x1.4a18e0d3b4f90p-1", "0x1.55fafe2bed5fep+0",
         "0x1.800e41feeac6ap+0", "0x1.6d41ae5475782p+0"],
        [66, 24],
    ),
    ("strato_m1", "StratoDetOrder3"): (
        ["0x1.61eb811f03946p-1", "0x1.4cc44ae7f25e7p+0",
         "0x1.8268ed7afeceep+0", "0x1.7dc8bd4c0d638p+0"],
        [18, 24],
    ),
    ("strato_m1", "StratoEXDIRK"): (
        ["0x1.625f88ca8e183p-1", "0x1.4bd7cb41c3a0fp+0",
         "0x1.81247e34ea111p+0", "0x1.7c8f5a19b973bp+0"],
        [12, 136],
    ),
    ("strato_m1", "StratoExplicit24"): (
        ["0x1.62162ba0f76c3p-1", "0x1.4bebdceafd7a9p+0",
         "0x1.814376ecd11f0p+0", "0x1.7cadea91b9a0fp+0"],
        [12, 24],
    ),
    ("strato_m1", "StratoImplicit12"): (
        ["0x1.48c25f0839134p-1", "0x1.55fed21038e28p+0",
         "0x1.7ff63cf719a1cp+0", "0x1.6e4bbdaea4263p+0"],
        [75, 150],
    ),
    ("strato_m3", "StratoDIRK"): (
        ["0x1.9607cd72f10cbp+0", "0x1.1ac497e5965e4p+0",
         "0x1.854f8905e6fd3p-1", "0x1.7a4063ea6a584p+1"],
        [68, 197, 197, 197],
    ),
    ("strato_m3", "StratoDIRKEX"): (
        ["0x1.95d86e6238c30p+0", "0x1.19fd649f50934p+0",
         "0x1.831c9a4613ff3p-1", "0x1.74eb48a8b3bd3p+1"],
        [68, 24, 24, 24],
    ),
    ("strato_m3", "StratoDetOrder3"): (
        ["0x1.f88ec82918b37p+0", "0x1.08c0b0f3a0071p+1",
         "0x1.194c8564dfa7fp+0", "0x1.8d8fee4bf41d1p-1"],
        [18, 24, 24, 24],
    ),
    ("strato_m3", "StratoEXDIRK"): (
        ["0x1.f6dba498d28aep+0", "0x1.07a486a7efbf4p+1",
         "0x1.19660e03732dbp+0", "0x1.8c37118321ee8p-1"],
        [12, 196, 196, 196],
    ),
    ("strato_m3", "StratoExplicit24"): (
        ["0x1.f72709c42dcd6p+0", "0x1.0827f9224eb56p+1",
         "0x1.189fb6d600072p+0", "0x1.8e52e55ccff54p-1"],
        [12, 24, 24, 24],
    ),
    ("strato_m3", "StratoImplicit12"): (
        ["0x1.9497072a0142fp+0", "0x1.1b1ce079d8a2ap+0",
         "0x1.84a4e84fbafd7p-1", "0x1.7b0366728a7b4p+1"],
        [94, 188, 188, 188],
    ),
}


@pytest.mark.parametrize("problem,name", sorted(PINNED_ALL_METHODS))
def test_every_method_is_pinned(problem, name):
    factory, x0 = PIN_PROBLEMS[problem]
    prob = factory()
    t = registry_get(name)
    x = integrate_paths(prob, t, np.array([x0]), 0.125, 6, 4, np.random.default_rng(77))
    values, counts = PINNED_ALL_METHODS[problem, name]
    assert [v.hex() for v in x[:, 0].tolist()] == values
    assert prob.eval_counts.tolist() == counts


@pytest.mark.parametrize("n_chains", [1, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_langevin_chain_equals_the_iterated_public_step(monkeypatch, m, d, n_chains):
    # blocks of 7 steps and sub-blocks of 3, so 20 steps cross both kinds of
    # boundary; the loop draws the same blocks and steps through them one by one
    fam = RvFamily.make(ITO, 0.5)
    k = fam.rv_count(m)
    monkeypatch.setattr(stepper, "_CHAIN_BLOCK_UNIFORMS", 7 * n_chains * k)
    monkeypatch.setattr(stepper, "_CHAIN_SUB_BLOCK_VALUES", 3 * n_chains * (m + 1))
    A = 0.3 * np.random.default_rng(m + d).standard_normal((d, d, m))
    F = lambda x: -x - 0.1 * x**3
    D = lambda x: np.eye(d, m) + np.einsum("nk,kdp->ndp", np.sin(x), A)
    x0, h, n_steps = 0.1 * np.arange(1, d + 1), 0.2, 20
    xbars = []
    chain = langevin_chain(
        F, D, x0, m, h, n_steps, np.random.default_rng(m), n_chains=n_chains,
        observer=lambda s, xbar: xbars.append(xbar.copy()),
    )
    rng = np.random.default_rng(m)
    x = np.broadcast_to(x0, (n_chains, d)).copy()
    state = LangevinState(x, x.copy())
    for start in range(0, n_steps, 7):
        u = rng.random((n_chains, min(7, n_steps - start), k))
        for s in range(u.shape[1]):
            draw = NoiseDraw(fam, *draws_from_uniforms(fam, m, u[:, s, :]))
            state = langevin_postprocessed_step(F, D, state, h, draw)
            assert xbars[start + s].tobytes() == state.xbar.tobytes()
    for got, want in zip((chain.x, chain.xbar, chain.f_xbar), (state.x, state.xbar, state.f_xbar)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    # m = 3 on d = 2: eta_0 is drawn, and both up and low enter every inner stage
    coupling3 = np.array([[1.0, -0.5, 0.25], [0.5, 1.0, -0.75]])
    D3 = lambda x: np.eye(2, 3) + 0.3 * np.sin(x)[:, :, None] * coupling3
    rng = np.random.default_rng(np.random.SeedSequence((6,)))
    state = langevin_chain(F, D3, np.zeros(2), 3, 0.25, 100, rng, n_chains=3)
    assert [v.hex() for v in state.x.ravel().tolist()] == [
        "0x1.6df0fbcdda464p-1", "0x1.3dd14c5d51c70p+0", "-0x1.18200ee0555f2p+0",
        "-0x1.027d2500461e2p+0", "-0x1.88af45cc93004p-2", "-0x1.dd1ca6aef992cp-1",
    ]
    assert [v.hex() for v in state.xbar.ravel().tolist()] == [
        "0x1.7f4393407185dp-1", "0x1.cefa375050009p+0", "-0x1.1e3ccb399eff4p+0",
        "-0x1.9098225fe8c30p-1", "-0x1.536fa969b4d4ep-1", "-0x1.de4fe73db9e5cp-1",
    ]
