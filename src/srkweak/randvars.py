"""Discrete random-variable families driving the stochastic Runge-Kutta methods.

Per integration step the methods consume a fresh draw of independent discrete
variables ``eta_0..eta_m`` (symmetric signs) and ``theta_1..theta_m``, from
which the matrix entries ``Theta[p][q]`` are derived in closed form:

* Ito calculus: ``theta_p`` takes values ``+-sqrt(2 +- sqrt(3))`` (a four-point
  law with the first five Gaussian moments) and ``Theta[p][p] = -3 theta_p +
  theta_p^3``.
* Stratonovich calculus: ``theta_p`` takes values ``+-sqrt(3), 0`` and
  ``Theta[p][p] = theta_p``.

For ``c in (0, 1/2)``: ``Theta[0][p] = theta_p + eta_p sqrt(1/(2c) - 1)`` and
``Theta[p][0] = 1 - eta_p theta_p sqrt(2c/(1-2c))``; the ``c = 1/2`` variant
instead uses ``Theta[0][p] = theta_p`` and ``Theta[p][0] = 1`` and needs ``m+1``
scalar variables per step instead of ``2m+1`` (and only ``m`` when ``m = 1``,
since ``eta_0`` enters only the mixed entries ``Theta[p][q]``, p != q >= 1).

A draw is carried by its generators ``(theta, eta)``, two arrays of shape
(..., m+1) (:func:`draws_from_uniforms`).  The stepper reads the entries of
Theta it needs per noise column from :func:`mixing_coefficients`; the dense
Theta is a derived view (:func:`dense_theta`) for single-step draws, atoms,
moments and the Langevin chain.  The coefficients are noise-major rows,
(m, ...), and batched generators are stored noise-major and returned as
transposed (Fortran-order) views, so each noise is a contiguous row of the
batch; the values do not depend on the storage order.

The sample space is finite, so every moment is available exactly through
:func:`enumerate_atoms` / :func:`moment`: an atom table holds the
probabilities, theta and Theta of all atoms as arrays, and a moment is one
weighted sum over their columns, memoized on the table it was computed from.
The expectation checks elsewhere use
tolerance 1e-12 because the support points involve ``sqrt(3)`` arithmetic.

Families and atom tables are immutable and shareable; :func:`sample_draw`
requires exclusive access to its generator stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

ITO = "ito"
STRATONOVICH = "stratonovich"
CALCULI = (ITO, STRATONOVICH)

__all__ = [
    "ITO",
    "STRATONOVICH",
    "CALCULI",
    "RvFamily",
    "NoiseDraw",
    "AtomTable",
    "FamilyError",
    "CapacityError",
    "sample_draw",
    "enumerate_atoms",
    "moment",
    "draws_from_uniforms",
    "mixing_coefficients",
    "dense_theta",
]

MAX_ATOM_NOISES = 3

_SQRT3 = math.sqrt(3.0)

# Ito four-point law for theta_p
_ITO_SUPPORT = (
    math.sqrt(2.0 + _SQRT3),
    -math.sqrt(2.0 + _SQRT3),
    math.sqrt(2.0 - _SQRT3),
    -math.sqrt(2.0 - _SQRT3),
)
_ITO_PROBS = (
    (3.0 - _SQRT3) / 12.0,
    (3.0 - _SQRT3) / 12.0,
    (3.0 + _SQRT3) / 12.0,
    (3.0 + _SQRT3) / 12.0,
)

# Stratonovich three-point law for theta_p
_STRAT_SUPPORT = (_SQRT3, -_SQRT3, 0.0)
_STRAT_PROBS = (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)


# theta takes the i-th support value when its uniform reaches exactly i of these
_EDGES = {ITO: tuple(np.cumsum(_ITO_PROBS)[:-1]), STRATONOVICH: tuple(np.cumsum(_STRAT_PROBS)[:-1])}
_SUPPORTS = {ITO: np.array(_ITO_SUPPORT), STRATONOVICH: np.array(_STRAT_SUPPORT)}

# Ito Theta[p][p] = -3 theta_p + theta_p^3 at the ascending support values,
# which _ITO_MIDPOINTS separate.  Tabulated on Python floats, it is
# bit-identical to the array formula, whose pow costs ~6x an x*x*x product.
_ITO_ASCENDING = sorted(_ITO_SUPPORT)
_ITO_MIDPOINTS = tuple((a + b) / 2.0 for a, b in zip(_ITO_ASCENDING, _ITO_ASCENDING[1:]))
_ITO_DIAG = np.array([-3.0 * s + s**3 for s in _ITO_ASCENDING])


class FamilyError(ValueError):
    """Invalid family parameters (c out of range, variant mismatch)."""


class CapacityError(ValueError):
    """An operation requested beyond its supported order or noise count."""


@dataclass(frozen=True)
class RvFamily:
    """One of the method random-variable families: calculus, c, and the c=1/2 variant."""

    calculus: str
    c: float
    half_variant: bool

    def __post_init__(self):
        if self.calculus not in CALCULI:
            raise FamilyError(f"unknown calculus {self.calculus!r}")
        if not 0.0 < self.c <= 0.5:
            raise FamilyError(f"c must lie in (0, 1/2], got {self.c}")
        if self.half_variant != (self.c == 0.5):
            raise FamilyError("half_variant is required exactly when c = 1/2")

    @classmethod
    def make(cls, calculus: str, c: float) -> "RvFamily":
        return cls(calculus, float(c), float(c) == 0.5)

    @property
    def theta_support(self):
        if self.calculus == ITO:
            return _ITO_SUPPORT, _ITO_PROBS
        return _STRAT_SUPPORT, _STRAT_PROBS

    def rv_count(self, m: int) -> int:
        """Scalar random variables consumed per step (the N_r of the effort metric).

        theta_p for every noise, eta_p per noise unless the c=1/2 variant, and
        eta_0 only when there are mixed entries, i.e. m > 1.
        """
        n = m
        if not self.half_variant:
            n += m
        if m > 1:
            n += 1
        return n


@dataclass(frozen=True, slots=True)
class NoiseDraw:
    """One step's realization: ``theta[0..m]`` with theta[0]=1 and the Theta matrix.

    Slotted: an atom table holds one per atom (1024 for m = 3).
    """

    m: int
    calculus: str
    theta: np.ndarray
    Theta: np.ndarray


@dataclass(frozen=True, eq=False)
class AtomTable:
    """The full finite sample space of a family, as read-only batched arrays.

    Row k of ``probs`` (N,), ``theta`` (N, m+1) and ``Theta`` (N, m+1, m+1)
    is atom k: its probability, its generators theta and its matrix Theta.
    ``_moments`` memoizes :func:`moment` on this table, keyed by the
    monomial as a tuple of tuples; it lives and dies with the table, so
    whatever bounds the atom cache bounds it too.
    """

    m: int
    family: RvFamily
    probs: np.ndarray
    theta: np.ndarray
    Theta: np.ndarray
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def atoms(self) -> tuple:
        """The atoms as ``(probability, NoiseDraw)`` pairs, row views of the arrays."""
        calculus = self.family.calculus
        return tuple(
            (prob, NoiseDraw(self.m, calculus, theta, Theta))
            for prob, theta, Theta in zip(self.probs.tolist(), self.theta, self.Theta)
        )


def _count_reached(x: np.ndarray, thresholds) -> np.ndarray:
    """How many of the ascending ``thresholds`` each entry of ``x`` reaches.

    Equal to ``np.searchsorted(thresholds, x, side="right")``; with at most
    three thresholds, one comparison each is about 20x faster.
    """
    idx = (x >= thresholds[0]).view(np.int8)
    for t in thresholds[1:]:
        idx += x >= t
    return idx


def draws_from_uniforms(family: RvFamily, m: int, u: np.ndarray):
    """Map uniforms of shape (..., rv_count(m)) to the generators (theta, eta).

    Both results have shape (..., m+1).  ``theta[..., 0] = 1`` and
    ``eta[..., p]`` is eta_p; the signs a family does not draw (eta_0 when
    m = 1, eta_1..eta_m in the c=1/2 variant) are 1.

    Column layout: eta_0 first (only when m > 1), then theta_1..theta_m, then
    eta_1..eta_m (only without the c=1/2 variant).  One uniform is consumed
    per scalar random variable, so stream usage per step equals ``rv_count``.
    A sign is +1 below 1/2; theta takes the i-th support value when its
    uniform reaches exactly i of the cumulative probabilities.

    Both are returned as transposes of noise-major arrays (Fortran order), so
    ``theta.T[p]`` is a contiguous row of the batch for each noise p.
    """
    k = family.rv_count(m)
    u = np.asarray(u)
    if u.shape[-1] != k:
        raise ValueError(f"expected {k} uniforms per draw, got {u.shape[-1]}")
    # Each group of uniforms is copied into the rows it turns into, which
    # are then mapped in place: the comparisons read contiguous rows, and no
    # other copy of the uniforms is made.
    u = u.T
    theta = np.empty((m + 1,) + u.shape[1:])
    eta = np.empty_like(theta)
    theta[0] = 1.0
    col = 0
    if m > 1:
        eta[0] = u[0]
        _signs(eta[:1])
        col += 1
    else:
        eta[0] = 1.0
    theta[1:] = u[col : col + m]
    idx = _count_reached(theta[1:], _EDGES[family.calculus])
    # every index is in range, so "clip" changes none; it lets take write in place
    np.take(_SUPPORTS[family.calculus], idx, out=theta[1:], mode="clip")
    col += m
    if family.half_variant:
        eta[1:] = 1.0
    else:
        eta[1:] = u[col : col + m]
        _signs(eta[1:])
    return theta.T, eta.T


def _signs(x: np.ndarray) -> None:
    """Map uniforms ``x`` in place to +1 below 1/2 and -1 elsewhere."""
    np.less(x, 0.5, out=x)
    x *= 2.0
    x -= 1.0


def mixing_coefficients(family: RvFamily, theta: np.ndarray, eta: np.ndarray):
    """The entries of Theta that a stage combination reads, as noise-major rows.

    Each is the transpose of a (..., m) array, so it has shape (m, n) for a
    batch of n draws and (m,) for one draw.

    Returns ``(row0, col0, diag, up, low)``: ``row0[q] = Theta[0][q]``,
    ``col0[q] = Theta[q][0]``, ``diag[q] = Theta[q][q]`` and, for p, q >= 1,
    ``Theta[p][q] = up[q] = theta_q (1 + eta_0)`` when q > p and
    ``low[q] = theta_q (1 - eta_0)`` when q < p.  ``col0`` is None in the
    c=1/2 variant, where every Theta[q][0] is 1, and ``up`` and ``low`` are
    None when m = 1, which has no mixed entries.
    """
    m = theta.shape[-1] - 1
    # In place, so that no two batch-sized temporaries are alive at once.
    th, e = theta.T[1:], eta.T
    if family.half_variant:
        row0 = th
        col0 = None  # Theta[p][0] = 1
    else:
        c = family.c
        row0 = math.sqrt(1.0 / (2.0 * c) - 1.0) * e[1:]
        row0 += th
        col0 = math.sqrt(2.0 * c / (1.0 - 2.0 * c)) * e[1:]
        col0 *= th
        np.subtract(1.0, col0, out=col0)
    if family.calculus == ITO:
        diag = np.empty_like(th)
        np.take(_ITO_DIAG, _count_reached(th, _ITO_MIDPOINTS), out=diag, mode="clip")
    else:
        diag = th
    if m == 1:
        return row0, col0, diag, None, None
    return row0, col0, diag, th * (1.0 + e[0]), th * (1.0 - e[0])


def dense_theta(family: RvFamily, theta: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The matrix Theta of draws given by their generators, shape (..., m+1, m+1).

    A derived view for single-step draws, atoms, moments and the Langevin
    chain; the batched stepper mixes stages from :func:`mixing_coefficients`.
    """
    m = theta.shape[-1] - 1
    row0, col0, diag, up, low = (
        None if a is None else a.T for a in mixing_coefficients(family, theta, eta)
    )
    Theta = np.zeros(theta.shape[:-1] + (m + 1, m + 1))
    Theta[..., 0, 0] = 1.0
    Theta[..., 0, 1:] = row0
    Theta[..., 1:, 0] = 1.0 if col0 is None else col0
    if up is not None:
        for p in range(1, m + 1):
            Theta[..., p, p + 1 :] = up[..., p:]
            Theta[..., p, 1:p] = low[..., : p - 1]
    idx = np.arange(1, m + 1)
    Theta[..., idx, idx] = diag
    return Theta


def sample_draw(family: RvFamily, m: int, rng: np.random.Generator) -> NoiseDraw:
    """Sample one step's draw; consumes exactly ``rv_count(m)`` uniforms from rng."""
    if m < 1:
        raise ValueError("need at least one noise")
    u = rng.random(family.rv_count(m))
    theta, eta = draws_from_uniforms(family, m, u)
    Theta = dense_theta(family, theta, eta)
    theta.setflags(write=False)
    Theta.setflags(write=False)
    return NoiseDraw(m=m, calculus=family.calculus, theta=theta, Theta=Theta)


_ATOM_CACHE: dict = {}


def enumerate_atoms(family: RvFamily, m: int) -> AtomTable:
    """Every joint outcome of (eta_0..eta_m, theta_1..theta_m) with its probability."""
    if m < 1:
        raise ValueError("need at least one noise")
    if m > MAX_ATOM_NOISES:
        raise CapacityError(f"atom enumeration supports m <= {MAX_ATOM_NOISES}")
    key = (family.calculus, family.c, family.half_variant, m)
    cached = _ATOM_CACHE.get(key)
    if cached is not None:
        return cached
    support, probs = family.theta_support
    # outcomes in itertools.product order: signs outer, theta indices inner
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=m + 1)))
    indices = list(itertools.product(range(len(support)), repeat=m))
    # generators stored noise-major, as draws_from_uniforms stores them, so that
    # mixing_coefficients reads contiguous rows
    eta = np.asfortranarray(np.repeat(signs, len(indices), axis=0))
    theta = np.ones(eta.shape, order="F")
    theta[:, 1:] = np.tile(_SUPPORTS[family.calculus][np.array(indices)], (len(signs), 1))
    Theta = dense_theta(family, theta, eta)
    theta_probs = []
    for idx in indices:
        prob = 0.5 ** (m + 1)
        for i in idx:
            prob *= probs[i]
        theta_probs.append(prob)
    atom_probs = np.tile(theta_probs, len(signs))
    for array in (atom_probs, theta, Theta):
        array.setflags(write=False)
    table = AtomTable(m=m, family=family, probs=atom_probs, theta=theta, Theta=Theta)
    _ATOM_CACHE[key] = table
    return table


_FACTOR_ARITY = {"theta": 1, "Theta": 2}


def moment(family: RvFamily, m: int, monomial: Iterable) -> float:
    """Exact expectation of a monomial in the theta / Theta variables.

    ``monomial`` is an iterable of ``(factor, exponent)`` pairs with factor
    ``("theta", p)`` or ``("Theta", p, q)``; indices must not exceed ``m``.
    The expectation is one weighted sum over the columns of the atom table,
    memoized on that table: a repeated monomial returns the stored float.
    Every factor of a new monomial is validated before any arithmetic.
    """
    table = enumerate_atoms(family, m)
    key = tuple(monomial)  # a tuple is its own key, so a hit allocates nothing
    try:
        value = table._moments.get(key)
    except TypeError:  # factors passed as lists
        key = tuple([(tuple(factor), exponent) for factor, exponent in key])
        value = table._moments.get(key)
    if value is not None:
        return value
    for factor, _ in key:
        kind, indices = factor[0], factor[1:]
        if _FACTOR_ARITY.get(kind) != len(indices):
            raise ValueError(f"unknown factor {factor!r}: expected ('theta', p) or ('Theta', p, q)")
        if any(not 0 <= i <= m for i in indices):
            raise ValueError(f"factor {factor!r} references a noise index beyond m={m}")
    value = table.probs
    for factor, exponent in key:
        if factor[0] == "theta":
            column = table.theta[:, factor[1]]
        else:
            column = table.Theta[:, factor[1], factor[2]]
        value = value * column**exponent
    value = table._moments[key] = float(value.sum())
    return value
