"""One-step and whole-path execution of the stochastic Runge-Kutta methods.

The step computes the stage values

    H_i^0 = x + h sum_j A0[i,j] f^0(H_j^0) + sqrt(h) sum_{j,q} B0[i,j] Theta[0][q] f^q(H_j^q)
    H_i^p = x + h Theta[p][0] sum_j A1[i,j] f^0(H_j^0)
              + sqrt(h) sum_{j,q} B1[i,j] Theta[p][q] f^q(H_j^q)

(for Stratonovich the diagonal q = p contribution uses Bhat1 instead of B1)
and the update

    x' = x + h sum_i alpha_i f^0(H_i^0) + sqrt(h) sum_{i,p} beta_i theta_p f^p(H_i^p).

Stages are evaluated block by block in the dependency order induced by the
nonzero coefficient entries (:func:`tableau.stage_blocks`; drift and
stochastic stages may interleave).  A block that does not read itself is
evaluated once; a cyclic block is solved by fixed-point iteration on its own
stages, with tolerance ``1e-13 * (1 + |x|)`` in the max norm over the block
and the batch, and an iteration cap of 200.  Each diffusion value
f^q(H_j^q) is computed once per (j, q) and reused everywhere it appears,
which is what makes the optimal per-step evaluation counts attainable.

A step's noise is carried by its generators (theta, eta) and never as the
dense (m+1) x (m+1) Theta: the stages read five per-noise coefficient arrays
(:func:`randvars.mixing_coefficients`), and since the mixed entries are
``Theta[p][q] = theta_q (1 +- eta_0)`` every row of the stage combination
follows from exclusive suffix and prefix sums, in O(m) per path.
:func:`step` slices the same coefficients from its draw's dense Theta.

The batched core is noise-major: stochastic stage inputs and values have
shape (m, n, d), theta and the coefficients (m, n), so each noise is a
contiguous (n, d) row.  Field p reads row p - 1 and its value is stored
into row p - 1 of the stage array; the stage combination adds whole rows in
place as running sums.  A single step is the n = 1 case of the same kernel.

States are 1-D arrays of length d; everything also runs vectorized over a
leading batch axis (states of shape (n, d)), which the Monte Carlo harness
uses.  ``step`` is a pure function of its arguments: identical inputs give
bit-identical outputs.  Vector fields must accept batched states (n, d) and
return arrays of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import randvars
from .randvars import ITO, STRATONOVICH, NoiseDraw, RvFamily
from .tableau import MethodTableau, mixes_read, stage_blocks

__all__ = [
    "SdeProblem",
    "StepError",
    "ImplicitSolveError",
    "NonFiniteStateError",
    "step",
    "integrate_path",
    "integrate_paths",
    "family_for_method",
    "LangevinState",
    "langevin_postprocessed_step",
    "langevin_chain",
    "FIXED_POINT_TOL",
    "FIXED_POINT_MAXITER",
]

FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAXITER = 200


class StepError(RuntimeError):
    pass


class ImplicitSolveError(StepError):
    """Fixed-point iteration for a cyclic stage block failed to converge."""


class NonFiniteStateError(StepError):
    """A step produced a non-finite state; carries the step context."""

    def __init__(self, message, *, h=None, method=None, where=None):
        super().__init__(message)
        self.h = h
        self.method = method
        self.where = where


class SdeProblem:
    """An SDE ``dX = f^0 dt + sum_p f^p dW^p`` with instrumented field evaluations.

    ``fields[p]`` maps states of shape (n, d) to arrays of the same shape;
    ``eval_counts[p]`` counts the calls made to field p (one per call,
    regardless of batch width).
    """

    def __init__(self, d: int, m: int, calculus: str, fields: Sequence[Callable], label: str = ""):
        if len(fields) != m + 1:
            raise ValueError(f"need m+1 = {m + 1} fields, got {len(fields)}")
        self.d = int(d)
        self.m = int(m)
        self.calculus = calculus
        self.fields = tuple(fields)
        self.label = label
        self.eval_counts = np.zeros(m + 1, dtype=np.int64)

    def eval_field(self, p: int, x: np.ndarray) -> np.ndarray:
        self.eval_counts[p] += 1
        return self.fields[p](x)

    def reset_counts(self) -> None:
        self.eval_counts[:] = 0

    @property
    def drift_evals(self) -> int:
        return int(self.eval_counts[0])

    @property
    def diffusion_evals(self) -> np.ndarray:
        return self.eval_counts[1:].copy()


def family_for_method(t: MethodTableau) -> RvFamily:
    return RvFamily.make(t.calculus, t.c)


def _nonzero_cols(row: np.ndarray):
    return [j for j in range(row.shape[0]) if row[j] != 0.0]


def _weighted_sum(w, F):
    """sum_q w_q F_q for coefficient rows w (m, n) and stage rows F (m, n, d),
    added in increasing q."""
    out = w[0, :, None] * F[0]
    if len(F) > 1:
        term = np.empty_like(out)
        for q in range(1, len(F)):
            out += np.multiply(w[q, :, None], F[q], out=term)
    return out


def _mix(coefficients, F, strato, want_U, want_V):
    """Combine the stage values F = f^q(H_j^q), shape (m, n, d), with Theta.

    Returns U = sum_q Theta[0][q] F_q, shape (n, d), and V of shape (m, n, d)
    whose row p is sum_{q >= 1} Theta[p][q] F_q; for Stratonovich the
    diagonal q = p is left out, since it enters through Bhat1.  The mixed
    entries are theta_q (1 +- eta_0), so running exclusive suffix and prefix
    sums over the contiguous noise rows give every row in O(m).  They add in
    the order of a ``cumsum`` along the noise axis.  A mix that is not
    wanted is returned as None.
    """
    row0, _, diag, up, low = coefficients
    U = _weighted_sum(row0, F) if want_U else None
    if not want_V:
        return U, None
    V = np.zeros_like(F) if strato else diag[:, :, None] * F
    if up is not None:
        m = len(F)
        acc, term = np.empty_like(F[0]), np.empty_like(F[0])
        np.multiply(up[m - 1, :, None], F[m - 1], out=acc)
        for p in range(m - 2, -1, -1):  # row p gets sum_{q > p} up_q F_q
            V[p] += acc
            if p:
                acc += np.multiply(up[p, :, None], F[p], out=term)
        np.multiply(low[0, :, None], F[0], out=acc)
        for p in range(1, m):  # row p gets sum_{q < p} low_q F_q
            V[p] += acc
            if p < m - 1:
                acc += np.multiply(low[p, :, None], F[p], out=term)
    return U, V


def _stage_terms(problem, t, xb, h, coefficients):
    """Evaluate all stage field values; returns (F0 list, Fst list).

    ``coefficients`` are the five noise-major (m, n) coefficient rows of
    :func:`randvars.mixing_coefficients`.  F0[i] is f^0 at drift stage i,
    shape (n, d); Fst[j] holds f^q at stochastic stage j in row q - 1,
    shape (m, n, d).  The stage blocks of :func:`tableau.stage_blocks` are
    taken in order: a block that does not read itself is evaluated once, a
    cyclic one is solved by fixed-point iteration on its own stages.  A
    stochastic stage's mixes U and V are formed only where a stage reads
    them (:func:`tableau.mixes_read`).
    """
    m = problem.m
    sqh = math.sqrt(h)
    strato = t.calculus == STRATONOVICH
    _, Thp0, Th_diag, _, _ = coefficients
    reads_U, reads_V = mixes_read(t)

    F0 = [None] * t.s1
    Fst = [None] * t.s2
    U = [None] * t.s2                  # sum_q Theta[0][q] f^q(H_j^q), (n, d)
    V = [None] * t.s2                  # (m, n, d): row p is sum over q entering H_i^p

    def stage_input(kind, i):
        """H_i^0 for a drift stage (n, d), the rows H_i^p for a stochastic one."""
        if kind == "drift":
            acc = xb.copy()
            for j in _nonzero_cols(t.A0[i]):
                acc += (h * t.A0[i, j]) * F0[j]
            for j in _nonzero_cols(t.B0[i]):
                acc += (sqh * t.B0[i, j]) * U[j]
            return acc
        acc = np.empty((m,) + xb.shape)
        acc[...] = xb
        term = np.empty_like(acc)  # scratch for one term at a time
        cols = _nonzero_cols(t.A1[i])
        if cols:
            da = sum(t.A1[i, j] * F0[j] for j in cols)
            if Thp0 is None:  # Theta[p][0] = 1 in the c = 1/2 variant
                acc += h * da
            else:
                acc += np.multiply(h * Thp0[:, :, None], da, out=term)
        for j in _nonzero_cols(t.B1[i]):
            acc += np.multiply(sqh * t.B1[i, j], V[j], out=term)
        if strato:
            for j in _nonzero_cols(t.Bhat1[i]):
                np.multiply(Th_diag[:, :, None], Fst[j], out=term)
                acc += np.multiply(sqh * t.Bhat1[i, j], term, out=term)
        return acc

    def evaluate(kind, i, H):
        """f^0 at a drift stage; f^p at row p - 1 of a stochastic one, then mixed."""
        if kind == "drift":
            F0[i] = problem.eval_field(0, H)
            return
        Fst[i] = np.empty_like(H)
        for p in range(m):
            Fst[i][p] = problem.eval_field(p + 1, H[p])
        if reads_U[i] or reads_V[i]:
            U[i], V[i] = _mix(coefficients, Fst[i], strato, reads_U[i], reads_V[i])

    for nodes, cyclic in stage_blocks(t):
        if not cyclic:
            for kind, i in nodes:
                evaluate(kind, i, stage_input(kind, i))
            continue
        # fixed point on the block's stage inputs, started from x
        H = [xb.copy() if kind == "drift" else np.broadcast_to(xb, (m,) + xb.shape).copy()
             for kind, _ in nodes]
        tol = FIXED_POINT_TOL * (1.0 + float(np.max(np.abs(xb))))
        for _ in range(FIXED_POINT_MAXITER):
            for (kind, i), Hk in zip(nodes, H):
                evaluate(kind, i, Hk)
            H_new = [stage_input(kind, i) for kind, i in nodes]
            # np.max, unlike Python's max, keeps a NaN change from passing
            delta = np.max([np.max(np.abs(a - b)) for a, b in zip(H_new, H)])
            H = H_new
            if delta <= tol:
                break
        else:
            block = ", ".join(f"{kind} {i}" for kind, i in nodes)
            raise ImplicitSolveError(
                f"fixed point for stage block ({block}) of {t.name} did not reach "
                f"{tol:.3g} within {FIXED_POINT_MAXITER} iterations (h={h})"
            )
    return F0, Fst


def _apply_step(problem, t, xb, h, th, coefficients):
    """One step of the batch ``xb`` (n, d); ``th`` holds theta_1..theta_m as
    noise-major rows (m, n)."""
    F0, Fst = _stage_terms(problem, t, xb, h, coefficients)
    out = xb.copy()
    for i in range(t.s1):
        if t.alpha[i] != 0.0:
            out += (h * t.alpha[i]) * F0[i]
    sqh = math.sqrt(h)
    for j in range(t.s2):
        if t.beta[j] != 0.0:
            out += (sqh * t.beta[j]) * _weighted_sum(th, Fst[j])
    return out


def _check_step_args(problem: SdeProblem, t: MethodTableau, h: float, draw: Optional[NoiseDraw]):
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if problem.calculus != t.calculus:
        raise ValueError(
            f"calculus mismatch: problem is {problem.calculus}, method {t.name} is {t.calculus}"
        )
    if draw is not None:
        if draw.m != problem.m:
            raise ValueError(f"draw has m={draw.m}, problem has m={problem.m}")
        if draw.calculus != t.calculus:
            raise ValueError(
                f"draw is from a {draw.calculus} family, method {t.name} is {t.calculus}"
            )


def _dense_coefficients(Theta: np.ndarray):
    """The five coefficient rows of :func:`randvars.mixing_coefficients`,
    sliced noise-major (m, n) from dense Theta of shape (n, m+1, m+1).

    The c=1/2 column Theta[q][0], None there, is sliced as its ones.
    """
    m = Theta.shape[-1] - 1
    idx = np.arange(1, m + 1)
    diag = Theta[:, idx, idx].T
    if m == 1:
        return Theta[:, 0, 1:].T, Theta[:, 1:, 0].T, diag, None, None
    return Theta[:, 0, 1:].T, Theta[:, 1:, 0].T, diag, Theta[:, 1, 1:].T, Theta[:, m, 1:].T


def step(problem: SdeProblem, t: MethodTableau, x, h: float, draw: NoiseDraw) -> np.ndarray:
    """One method step from state ``x`` using the given per-step draw."""
    _check_step_args(problem, t, h, draw)
    x = np.asarray(x, dtype=float)
    xb = x.reshape(1, problem.d)
    th = draw.theta[1:, None]
    out = _apply_step(problem, t, xb, h, th, _dense_coefficients(draw.Theta[None]))
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError(
            f"non-finite state after one {t.name} step (h={h})", h=h, method=t.name
        )
    return out.reshape(x.shape)


def integrate_path(
    problem: SdeProblem,
    t: MethodTableau,
    x0,
    h: float,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n-fold composition of :func:`step` with a fresh draw per step."""
    family = family_for_method(t)
    x = np.asarray(x0, dtype=float)
    for k in range(n_steps):
        draw = randvars.sample_draw(family, problem.m, rng)
        try:
            x = step(problem, t, x, h, draw)
        except NonFiniteStateError as exc:
            raise NonFiniteStateError(
                f"non-finite state at step {k + 1}/{n_steps} of {t.name} (h={h})",
                h=h,
                method=t.name,
                where=k,
            ) from exc
    return x


def integrate_paths(
    problem: SdeProblem,
    t: MethodTableau,
    x0,
    h: float,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized batch of independent paths sharing one generator stream.

    The random variables are pre-drawn path-major (path 0 consumes its whole
    per-step sequence first, then path 1, ...), so a batch reproduces
    :func:`integrate_path` run path after path on the same generator.  For
    explicit methods it does so bit for bit.  For implicit methods it agrees
    to within 1e-12 relative: each cyclic stage block's fixed-point sweeps and
    its stopping test are shared across the batch, so a path may take more
    sweeps than alone.
    """
    _check_step_args(problem, t, h, None)
    family = family_for_method(t)
    m = problem.m
    k = family.rv_count(m)
    u = rng.random((n_paths, n_steps, k))
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, problem.d)).copy()
    for s in range(n_steps):
        theta, eta = randvars.draws_from_uniforms(family, m, u[:, s, :])
        coefficients = randvars.mixing_coefficients(family, theta, eta)
        del eta  # the stages need only theta and the coefficients
        x = _apply_step(problem, t, x, h, theta.T[1:], coefficients)
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
            raise NonFiniteStateError(
                f"non-finite state at step {s + 1}/{n_steps} of {t.name} "
                f"(h={h}, first bad path {bad})",
                h=h,
                method=t.name,
                where=(s, bad),
            )
    return x


# ---------------------------------------------------------------------------
# postprocessed integrator for invariant-measure sampling


@dataclass
class LangevinState:
    """Chain state (x, postprocessed xbar of the previous step, cached F(xbar))."""

    x: np.ndarray
    xbar: np.ndarray
    f_xbar: Optional[np.ndarray] = None


def langevin_postprocessed_step(
    F: Callable,
    D: Callable,
    state: LangevinState,
    h: float,
    draw: NoiseDraw,
) -> LangevinState:
    """One step of the postprocessed invariant-measure scheme.

        H      = x + (h/4) F(xbar_prev)
        xbar   = x + sqrt(h/2) sum_p D[:,p](H) theta_p
        x_next = x + h F(xbar)
                   + sqrt(2h) sum_p D[:,p](H + sqrt(h/2) sum_q D[:,q](H) Theta[p][q]) theta_p

    ``F`` maps (n, d) -> (n, d) and ``D`` maps (n, d) -> (n, d, m).  With the
    cached ``F(xbar)`` threaded through the state, each step costs one F
    evaluation and m+1 D evaluations (the shared D(H) plus one p-shifted
    evaluation per noise column, i.e. two evaluations per column).  The draw
    only uses theta_p and the mixed Theta[p][q], so the Ito c=1/2 family is
    used throughout.
    """
    x = np.atleast_2d(np.asarray(state.x, dtype=float))
    xbar_prev = np.atleast_2d(np.asarray(state.xbar, dtype=float))
    squeeze = np.asarray(state.x).ndim == 1

    f_prev = state.f_xbar
    if f_prev is None:
        f_prev = F(xbar_prev)
    f_prev = np.atleast_2d(f_prev)

    theta = np.atleast_2d(draw.theta)[:, 1:]          # (n, m)
    Theta = draw.Theta[None, 1:, 1:] if draw.Theta.ndim == 2 else draw.Theta[:, 1:, 1:]
    m = theta.shape[1]

    H = x + (h / 4.0) * f_prev
    DH = D(H)                                          # (n, d, m)
    root_half_h = math.sqrt(h / 2.0)
    xbar = x + root_half_h * np.einsum("ndp,np->nd", DH, theta)
    f_cur = F(xbar)

    inner = H[:, None, :] + root_half_h * np.einsum("ndq,npq->npd", DH, Theta)
    cols = np.stack([D(inner[:, p, :])[:, :, p] for p in range(m)], axis=2)  # (n, d, m)
    x_next = x + h * f_cur + math.sqrt(2.0 * h) * np.einsum("ndp,np->nd", cols, theta)

    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(xbar))):
        raise NonFiniteStateError("non-finite state in postprocessed step", h=h)
    if squeeze:
        return LangevinState(x_next[0], xbar[0], f_cur[0])
    return LangevinState(x_next, xbar, f_cur)


def langevin_chain(
    F: Callable,
    D: Callable,
    x0,
    m: int,
    h: float,
    n_steps: int,
    rng: np.random.Generator,
    n_chains: int = 1,
    observer: Optional[Callable] = None,
) -> LangevinState:
    """Run the postprocessed chain for ``n_steps`` steps over ``n_chains``
    parallel replicas; calls ``observer(step_index, xbar)`` after each step.

    Randomness is pre-drawn chain-major per block of steps, so results are a
    pure function of (seed, parameters).
    """
    family = RvFamily.make(ITO, 0.5)
    d = np.asarray(x0, dtype=float).shape[-1] if np.asarray(x0).ndim else 1
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    state = LangevinState(x, x.copy(), None)
    k = family.rv_count(m)
    block = max(1, min(n_steps, int(2e6 // max(1, n_chains * k))))
    done = 0
    while done < n_steps:
        todo = min(block, n_steps - done)
        u = rng.random((n_chains, todo, k))
        for s in range(todo):
            theta, eta = randvars.draws_from_uniforms(family, m, u[:, s, :])
            Theta = randvars.dense_theta(family, theta, eta)
            draw = NoiseDraw(m=m, calculus=ITO, theta=theta, Theta=Theta)
            state = langevin_postprocessed_step(F, D, state, h, draw)
            if observer is not None:
                observer(done + s, state.xbar)
        done += todo
    return state
