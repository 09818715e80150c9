"""One-step and whole-path execution of the stochastic Runge-Kutta methods.

The step computes the stage values

    H_i^0 = x + h sum_j A0[i,j] f^0(H_j^0) + sqrt(h) sum_{j,q} B0[i,j] Theta[0][q] f^q(H_j^q)
    H_i^p = x + h Theta[p][0] sum_j A1[i,j] f^0(H_j^0)
              + sqrt(h) sum_{j,q} B1[i,j] Theta[p][q] f^q(H_j^q)

(for Stratonovich the diagonal q = p contribution uses Bhat1 instead of B1)
and the update

    x' = x + h sum_i alpha_i f^0(H_i^0) + sqrt(h) sum_{i,p} beta_i theta_p f^p(H_i^p).

Each tableau is compiled once, on first use, into a stage program (cached
for as long as the tableau lives): the stage blocks in the dependency order
of :func:`tableau.stage_blocks` (drift and stochastic stages may
interleave), each stage's nonzero entries as Python floats in column order,
which mixes of each stochastic stage some stage reads, and the update as a
last stage whose terms are the nonzero alpha and beta.  A step runs that
program and never rereads the tableau; every stage input and the update are
summed by one routine, as x + term_1 + term_2 + ... in column order.  A
block that does not read itself is evaluated once; a cyclic block is solved
by fixed-point iteration on its own stages, with tolerance
``1e-13 * (1 + |x|)`` in the max norm over the block and the batch, and an
iteration cap of 200.  A sweep re-forms only the terms that read the block,
and each diffusion value f^q(H_j^q) is computed once per (j, q) and reused
everywhere it appears, which makes the optimal per-step evaluation counts
attainable.

A step's noise is carried by its generators (theta, eta) and never as the
dense (m+1) x (m+1) Theta: the stages read five per-noise coefficient arrays
(:func:`randvars.mixing_coefficients`), and since the mixed entries are
``Theta[p][q] = theta_q (1 +- eta_0)`` every row of the stage combination
follows from exclusive suffix and prefix sums, in O(m) per path.

The batched core is noise-major: stochastic stage inputs and values have
shape (m, n, d), theta and the coefficients (m, n), so each noise is a
contiguous (n, d) row.  Field p reads row p - 1 and its value is stored
into row p - 1 of the stage array; the stage combination adds whole rows in
place as running sums.  :func:`step`, on a 1-D state of length d, is the
n = 1 case of the same kernel and a pure function of its arguments.  Vector
fields must map batched states (n, d) to arrays of the same shape.

The uniforms of :func:`integrate_paths` are consumed from the generator
path-major (path 0's whole sequence, then path 1's, ...) but stored
step-major, as one (n_steps, k, n) array filled a chunk of paths at a time,
so each step reads its k uniforms per path as k contiguous rows.  The array
holds as many values as a path-major one would; a chunk in flight adds at
most 64 Ki more, or one path's sequence where that is longer.

The postprocessed Langevin chain has one kernel too, on (n, d) arrays with
theta as noise-major rows.  Its sums over noises are the core's mix and
weighted sum, in an order fixed whatever the draw's memory layout, and
:func:`langevin_postprocessed_step` is its one-step case.  The chain forms
draws and mixing coefficients a sub-block of steps at a time from blocks of
pre-drawn uniforms, and equals that step iterated, bit for bit.

A failed step raises once, from the kernel, whatever the entry point:
:class:`NonFiniteStateError` for a non-finite state and
:class:`ImplicitSolveError` for a fixed point not reached, each with the
record ``where = (step, row)`` of :class:`StepError`, the 0-based step and
its first bad path or chain; row is None for a cyclic block, whose stopping
test the batch shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import randvars
from .randvars import ITO, STRATONOVICH, NoiseDraw, RvFamily, _check_calculus, _check_count
from .tableau import MethodTableau, _per_tableau, stage_blocks

__all__ = [
    "SdeProblem",
    "StepError",
    "ImplicitSolveError",
    "NonFiniteStateError",
    "step",
    "integrate_path",
    "integrate_paths",
    "LangevinState",
    "langevin_postprocessed_step",
    "langevin_chain",
    "FIXED_POINT_TOL",
    "FIXED_POINT_MAXITER",
]

FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAXITER = 200
_CHAIN_BLOCK_UNIFORMS = 2_000_000  # most uniforms the Langevin chain draws at once
_CHAIN_SUB_BLOCK_VALUES = 1024  # most theta (or eta) values it forms from them at once
_STREAM_CHUNK_UNIFORMS = 65_536  # most uniforms integrate_paths draws before transposing them


class StepError(RuntimeError):
    """A step failed; carries the step context (step size, method, where).

    ``where = (step, row)``: the 0-based step (0 of 1 for a single step) and
    its first bad path or chain, or None for a cyclic block, whose
    fixed-point stopping test the batch shares."""

    def __init__(self, message, *, h=None, method=None, where=None):
        super().__init__(message)
        self.h = h
        self.method = method
        self.where = where


class ImplicitSolveError(StepError):
    """Fixed-point iteration for a cyclic stage block failed to converge."""


class NonFiniteStateError(StepError):
    """A step produced a non-finite state."""


class SdeProblem:
    """An SDE ``dX = f^0 dt + sum_p f^p dW^p`` with instrumented field evaluations.

    ``fields[p]`` maps states of shape (n, d) to arrays of the same shape;
    ``eval_counts[p]`` counts the calls made to field p (one per call,
    regardless of batch width).
    """

    def __init__(self, d: int, m: int, calculus: str, fields: Sequence[Callable], label: str = ""):
        _check_count("state dimensions", d, least=1)
        _check_count("noises", m, least=1)
        _check_calculus(calculus)
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

    @property
    def drift_evals(self) -> int:
        return int(self.eval_counts[0])

    @property
    def diffusion_evals(self) -> np.ndarray:
        return self.eval_counts[1:].copy()


class _Stage(NamedTuple):
    """One stage of a compiled tableau: its input is x plus its terms in order.

    A term is ``(block, entries)``: the coefficient block it comes from
    ("A0", "B0", "A1", "B1" or "Bhat1"; the update stage reads "A0" for alpha
    and "beta") and the nonzero ``(j, entry)`` pairs of the stage's row there,
    as Python floats in column order.  Each entry is one term, except that a
    row's A1 entries form a single term, since Theta[p][0] multiplies their
    sum.  ``prefix`` holds the terms before the first one that reads a stage
    of the stage's own cyclic block (all of them outside a cyclic block);
    ``rest`` holds the others as ``(term, in_block)`` pairs.
    """

    kind: str
    i: int
    prefix: tuple
    rest: tuple


class _StageProgram(NamedTuple):
    """A tableau compiled for stepping: the blocks of :func:`tableau.stage_blocks`
    as ``(stages, cyclic)``, which mixes of each stochastic stage some stage
    reads (``reads_U``, ``reads_V``), and the update as one more stage, whose
    terms are the nonzero alpha ("A0") and beta ("beta") entries."""

    name: str
    strato: bool
    s1: int
    s2: int
    blocks: tuple
    reads_U: tuple
    reads_V: tuple
    update: _Stage


def _nonzero(row) -> tuple:
    return tuple((j, v) for j, v in enumerate(row.tolist()) if v != 0.0)


@_per_tableau
def _stage_program(t: MethodTableau) -> _StageProgram:
    """Compile ``t`` once (cached for as long as ``t`` lives)."""
    strato = t.calculus == STRATONOVICH

    def terms(kind, i):
        """The terms of stage (kind, i) in the order its input adds them."""
        if kind == "drift":
            return tuple((b, (e,)) for b in ("A0", "B0") for e in _nonzero(getattr(t, b)[i]))
        a1 = _nonzero(t.A1[i])
        blocks = ("B1", "Bhat1") if strato else ("B1",)
        return ((("A1", a1),) if a1 else ()) + tuple(
            (b, (e,)) for b in blocks for e in _nonzero(getattr(t, b)[i])
        )

    blocks = []
    for nodes, cyclic in stage_blocks(t):
        stages = []
        for kind, i in nodes:
            ts = terms(kind, i)
            inside = [
                cyclic and any(("drift" if b in ("A0", "A1") else "stoch", j) in nodes for j, _ in e)
                for b, e in ts
            ]
            k = inside.index(True) if True in inside else len(ts)
            stages.append(_Stage(kind, i, ts[:k], tuple(zip(ts[k:], inside[k:]))))
        blocks.append((tuple(stages), cyclic))

    # U_j enters drift stages only, through column j of B0, and V_j
    # stochastic stages only, through column j of B1; the update and Bhat1
    # read f^q(H_j^q) itself
    reads_U, reads_V = (tuple(np.any(b != 0.0, axis=0).tolist()) for b in (t.B0, t.B1))
    update = tuple((b, (e,)) for b, row in (("A0", t.alpha), ("beta", t.beta)) for e in _nonzero(row))
    return _StageProgram(
        t.name, strato, t.s1, t.s2, tuple(blocks), reads_U, reads_V,
        _Stage("update", 0, update, ()),
    )


def _weighted_sum(w, F):
    """sum_q w_q F_q for coefficient rows w (m, n) and stage rows F (m, n, d),
    added in increasing q."""
    out = w[0, :, None] * F[0]
    if len(F) > 1:
        term = np.empty_like(out)
        for q in range(1, len(F)):
            out += np.multiply(w[q, :, None], F[q], out=term)
    return out


def _mix(coefficients, F, strato):
    """Combine the stage values F = f^q(H_j^q), shape (m, n, d), with Theta.

    Returns V of shape (m, n, d) whose row p is sum_{q >= 1} Theta[p][q] F_q;
    for Stratonovich the diagonal q = p is left out, since it enters through
    Bhat1.  The mixed entries are theta_q (1 +- eta_0), so running exclusive
    suffix and prefix sums over the contiguous noise rows give every row in
    O(m).  They add in the order of a ``cumsum`` along the noise axis.  (The
    row p = 0 mix, U = sum_q Theta[0][q] F_q, is one :func:`_weighted_sum`.)
    """
    _, _, diag, up, low = coefficients
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
    return V


class _StageValues:
    """The field values at the stages of one step, filled block by block.

    F0[i] is f^0 at drift stage i, shape (n, d); Fst[j] holds f^q at
    stochastic stage j in row q - 1, shape (m, n, d); U[j] and V[j] are its
    mixes, formed only where some stage reads them.  ``th`` holds
    theta_1..theta_m and ``coefficients`` the five coefficient rows of
    :func:`randvars.mixing_coefficients`, all noise-major (m, n).
    """

    __slots__ = ("problem", "program", "xb", "h", "sqh", "th", "coefficients", "F0", "Fst", "U", "V")

    def __init__(self, problem, program, xb, h, th, coefficients):
        self.problem, self.program, self.xb, self.h = problem, program, xb, h
        self.sqh = math.sqrt(h)
        self.th, self.coefficients = th, coefficients
        self.F0 = [None] * program.s1
        self.Fst = [None] * program.s2
        self.U = [None] * program.s2   # sum_q Theta[0][q] f^q(H_j^q), (n, d)
        self.V = [None] * program.s2   # (m, n, d): row p is sum over q entering H_i^p

    def term(self, block, entries, out):
        """The product of one stage-input term, written into ``out``."""
        if block == "A1":
            da = sum(a * self.F0[j] for j, a in entries)
            Thp0 = self.coefficients[1]
            if Thp0 is None:  # Theta[p][0] = 1 in the c = 1/2 variant
                return np.multiply(self.h, da, out=out)
            return np.multiply(self.h * Thp0[:, :, None], da, out=out)
        ((j, a),) = entries
        if block == "A0":
            return np.multiply(self.h * a, self.F0[j], out=out)
        if block == "B0":
            return np.multiply(self.sqh * a, self.U[j], out=out)
        if block == "B1":
            return np.multiply(self.sqh * a, self.V[j], out=out)
        if block == "beta":  # the update's sum_p theta_p f^p(H_j^p)
            return np.multiply(self.sqh * a, _weighted_sum(self.th, self.Fst[j]), out=out)
        # Bhat1, on the diagonal q = p
        np.multiply(self.coefficients[2][:, :, None], self.Fst[j], out=out)
        return np.multiply(self.sqh * a, out, out=out)

    def empty(self, stage):
        """A stage input, unset: (m, n, d) for a stochastic stage, else (n, d)."""
        xb = self.xb
        return np.empty((self.problem.m,) + xb.shape if stage.kind == "stoch" else xb.shape)

    def fresh_x(self, stage):
        """A copy of x as the stage's input."""
        H = self.empty(stage)
        H[...] = self.xb
        return H

    def prefix_sum(self, stage):
        """x plus the stage's prefix terms, in order, as a fresh array."""
        if not stage.prefix:
            return self.fresh_x(stage)
        first, *rest = stage.prefix
        acc = self.term(*first, self.empty(stage))
        acc += self.xb  # t + x is x + t bit for bit, and x is not copied first
        if rest:
            scratch = np.empty_like(acc)
            for block, entries in rest:
                acc += self.term(block, entries, scratch)
        return acc

    def evaluate(self, stage, H):
        """f^0 at a drift stage; f^p at row p - 1 of a stochastic one, then mixed.
        A sweep's previous values are dropped before the fields allocate."""
        i = stage.i
        if stage.kind == "drift":
            self.F0[i] = None
            self.F0[i] = self.problem.eval_field(0, H)
            return
        problem, program = self.problem, self.program
        self.Fst[i] = self.U[i] = self.V[i] = None
        F = self.Fst[i] = np.empty_like(H)
        for p in range(problem.m):
            F[p] = problem.eval_field(p + 1, H[p])
        if program.reads_U[i]:
            self.U[i] = _weighted_sum(self.coefficients[0], F)
        if program.reads_V[i]:
            self.V[i] = _mix(self.coefficients, F, program.strato)

    def solve(self, stages, at):
        """Fixed-point iteration on a cyclic block's stage inputs, started from x.

        Each stage's prefix sum and the products of its later out-of-block
        terms are formed once.  A sweep writes the first in-block term into
        the next iterate, adds the prefix sum (addition commutes, so this is
        x + ... + term bit for bit), then adds the later terms in order.  The
        two iterates per stage and one scratch per stage shape, which holds
        the other in-block terms and the stopping test, are allocated once.
        """
        H = [self.fresh_x(s) for s in stages]
        H_new = [np.empty_like(Hk) for Hk in H]
        scratch = {s.kind: np.empty_like(Hk) for s, Hk in zip(stages, H)}
        prefix = [self.prefix_sum(s) if s.prefix else self.xb for s in stages]
        later = [
            [t if inside else self.term(*t, np.empty_like(Hk)) for t, inside in s.rest[1:]]
            for s, Hk in zip(stages, H)
        ]
        first = [(s.rest[0][0], scratch[s.kind]) for s in stages]
        tol = FIXED_POINT_TOL * (1.0 + float(np.max(np.abs(self.xb))))
        for _ in range(FIXED_POINT_MAXITER):
            for s, Hk in zip(stages, H):
                self.evaluate(s, Hk)
            converged = True
            for ((block, entries), scr), Hk, acc, base, rest in zip(first, H, H_new, prefix, later):
                self.term(block, entries, acc)
                acc += base
                for t in rest:
                    acc += t if isinstance(t, np.ndarray) else self.term(*t, scr)
                if converged:  # max |change| <= tol; max propagates a NaN, which fails
                    np.subtract(acc, Hk, out=scr)
                    converged = scr.max() <= tol and scr.min() >= -tol
            H, H_new = H_new, H
            if converged:
                return
        nodes = ", ".join(f"{s.kind} {s.i}" for s in stages)
        name, h, (k, n_steps) = self.program.name, self.h, at
        raise ImplicitSolveError(
            f"fixed point for stage block ({nodes}) of {name} did not reach {tol:.3g} within "
            f"{FIXED_POINT_MAXITER} iterations at step {k + 1}/{n_steps} (h={h})",
            h=h, method=name, where=(k, None),
        )


def _check_finite(states, at, h, what, row, method=None):
    """The one failure rule of every stepping entry point: the states of step
    ``at = (s, n_steps)``, each (n, d), must be finite, or the step raises
    with ``where = (s, first row with a non-finite entry in any state)``."""
    if all(np.isfinite(x).all() for x in states):
        return
    finite = np.logical_and.reduce([np.isfinite(x).all(axis=1) for x in states])
    bad = int(np.flatnonzero(~finite)[0])
    s, n_steps = at
    raise NonFiniteStateError(
        f"non-finite state at step {s + 1}/{n_steps} of {what} (h={h}, first bad {row} {bad})",
        h=h, method=method, where=(s, bad),
    )


def _apply_step(problem, t, xb, h, th, coefficients, at):
    """Step ``at = (s, n_steps)`` of the batch ``xb`` (n, d); ``th`` holds
    theta_1..theta_m as noise-major rows (m, n)."""
    program = _stage_program(t)
    values = _StageValues(problem, program, xb, h, th, coefficients)
    for stages, cyclic in program.blocks:  # in dependency order
        if cyclic:
            values.solve(stages, at)
        else:
            (stage,) = stages
            values.evaluate(stage, values.prefix_sum(stage))
    values.U = values.V = None  # frees the mixes, which the update does not read
    out = values.prefix_sum(program.update)
    _check_finite((out,), at, h, t.name, "path", t.name)
    return out


def _one_step(problem, t, x, h, draw, at):
    """Step ``at`` of one state ``x`` (d,): the n = 1 case of :func:`_apply_step`."""
    coefficients = randvars.mixing_coefficients(draw.family, draw.theta[None], draw.eta[None])
    out = _apply_step(problem, t, x.reshape(1, problem.d), h, draw.theta[1:, None], coefficients, at)
    return out.reshape(x.shape)


def _check_step_size(h: float) -> None:
    """The one rule for step sizes, shared by every stepping entry point."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"the step size must be a finite positive number, got {h}")


def _check_step_args(problem: SdeProblem, t: MethodTableau, h: float, n_steps: int):
    """The checks of a run of ``n_steps`` steps, made once before its first step."""
    _check_step_size(h)
    if problem.calculus != t.calculus:
        raise ValueError(
            f"calculus mismatch: problem is {problem.calculus}, method {t.name} is {t.calculus}"
        )
    _check_count("steps", n_steps)


def step(problem: SdeProblem, t: MethodTableau, x, h: float, draw: NoiseDraw) -> np.ndarray:
    """One method step from state ``x`` using the given per-step draw."""
    _check_step_args(problem, t, h, 1)
    if draw.m != problem.m:
        raise ValueError(f"draw has m={draw.m}, problem has m={problem.m}")
    family = t.family
    if draw.family != family:
        raise ValueError(
            f"draw is from the {draw.calculus} family with c={draw.family.c}, "
            f"method {t.name} needs {family.calculus} with c={family.c}"
        )
    return _one_step(problem, t, np.asarray(x, dtype=float), h, draw, (0, 1))


def integrate_path(
    problem: SdeProblem,
    t: MethodTableau,
    x0,
    h: float,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n-fold composition of :func:`step` with a fresh draw per step."""
    _check_step_args(problem, t, h, n_steps)
    family = t.family
    x = np.asarray(x0, dtype=float)
    for s in range(n_steps):
        x = _one_step(problem, t, x, h, randvars.sample_draw(family, problem.m, rng), (s, n_steps))
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
    :func:`integrate_path` run path after path on the same generator and
    leaves it where one ``rng.random((n_paths, n_steps, k))`` would.  They are
    stored step-major, (n_steps, k, n_paths), in an array of the same size,
    so each step reads contiguous rows.  For
    explicit methods it does so bit for bit.  For implicit methods it agrees
    to within 1e-12 relative: each cyclic stage block's fixed-point sweeps and
    its stopping test are shared across the batch, so a path may take more
    sweeps than alone.
    """
    _check_step_args(problem, t, h, n_steps)
    _check_count("paths", n_paths)
    family = t.family
    m = problem.m
    k = family.rv_count(m)
    # path-major draws, a chunk of paths at a time, transposed into step-major rows
    ut = np.empty((n_steps, k, n_paths))
    chunk = max(1, _STREAM_CHUNK_UNIFORMS // max(1, n_steps * k))
    for a in range(0, n_paths, chunk):
        b = min(a + chunk, n_paths)
        ut[:, :, a:b] = rng.random((b - a, n_steps, k)).transpose(1, 2, 0)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, problem.d)).copy()
    for s in range(n_steps):
        theta, eta = randvars.draws_from_uniforms(family, m, ut[s].T)
        coefficients = randvars.mixing_coefficients(family, theta, eta)
        del eta  # the stages need only theta and the coefficients
        x = _apply_step(problem, t, x, h, theta.T[1:], coefficients, (s, n_steps))
    return x


# ---------------------------------------------------------------------------
# postprocessed integrator for invariant-measure sampling


@dataclass
class LangevinState:
    """Chain state (x, postprocessed xbar of the previous step, cached F(xbar))."""

    x: np.ndarray
    xbar: np.ndarray
    f_xbar: Optional[np.ndarray] = None


def _postprocessed_step(F, D, x, f_prev, h, th, coefficients, at):
    """Step ``at = (s, n_steps)`` of the chains ``x`` (n, d), given F at their
    previous outputs, theta_1..theta_m ``th`` as noise-major rows (m, n) and
    the draws' mixing coefficients.  The sums over noises are the stepping
    core's, in its fixed order.  Returns ``(x_next, xbar, F(xbar))``."""
    H = x + (h / 4.0) * f_prev
    DH = np.moveaxis(D(H), 2, 0)                       # (m, n, d): column p of D(H) in row p
    root_half_h = math.sqrt(h / 2.0)
    xbar = x + root_half_h * _weighted_sum(th, DH)
    f_cur = F(xbar)
    V = _mix(coefficients, DH, False)                  # (m, n, d)
    cols = np.stack([D(H + root_half_h * V[p])[:, :, p] for p in range(len(V))])
    x_next = x + h * f_cur + math.sqrt(2.0 * h) * _weighted_sum(th, cols)
    _check_finite((x_next, xbar), at, h, "the postprocessed chain", "chain")
    return x_next, xbar, f_cur


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
    only uses theta_p and Theta[p][q], p, q >= 1 (the chain draws from the Ito
    c=1/2 family); the sums over noises are the stepping core's weighted sum
    and Ito mix V, in O(m) per chain from the draw's generators and in the
    same order whatever the draw's memory layout.  This is the one-step case
    of the kernel that :func:`langevin_chain` runs; a 1-D state is one chain.
    """
    _check_step_size(h)
    x, xbar = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (state.x, state.xbar))
    f_prev = F(xbar) if state.f_xbar is None else np.atleast_2d(state.f_xbar)
    theta, eta = np.atleast_2d(draw.theta), np.atleast_2d(draw.eta)   # (n, m+1)
    coefficients = randvars.mixing_coefficients(draw.family, theta, eta)
    out = _postprocessed_step(F, D, x, f_prev, h, theta.T[1:], coefficients, (0, 1))
    return LangevinState(*(a[0] if np.ndim(state.x) == 1 else a for a in out))


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

    Randomness is pre-drawn chain-major per block of steps and turned into
    draws a sub-block at a time, so results are a pure function of (seed,
    parameters); x, xbar and F(xbar) are carried as (n_chains, d) arrays.
    """
    _check_step_size(h)
    family = RvFamily.make(ITO, 0.5)
    k = family.rv_count(m)  # and the count rule for m
    _check_count("steps", n_steps)
    _check_count("chains", n_chains)
    d = np.asarray(x0, dtype=float).shape[-1] if np.asarray(x0).ndim else 1
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    xbar = x.copy()
    f_xbar = F(xbar) if n_steps > 0 else None
    block = max(1, _CHAIN_BLOCK_UNIFORMS // max(1, n_chains * k))
    sub_block = max(1, _CHAIN_SUB_BLOCK_VALUES // max(1, n_chains * (m + 1)))
    for s in range(n_steps):
        i = s % block  # the step's row in its block of uniforms
        if i == 0:
            u = rng.random((n_chains, min(block, n_steps - s), k))
        j = i % sub_block
        if j == 0:
            theta, eta = randvars.draws_from_uniforms(family, m, u[:, i : i + sub_block])
            coefficients = randvars.mixing_coefficients(family, theta, eta)
        step_coefficients = [c if c is None else c[:, j] for c in coefficients]
        x, xbar, f_xbar = _postprocessed_step(
            F, D, x, f_xbar, h, theta.T[1:, j], step_coefficients, (s, n_steps)
        )
        if observer is not None:
            observer(s, xbar)
    return LangevinState(x, xbar, f_xbar)
