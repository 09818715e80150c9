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
(..., m+1) (:func:`draws_from_uniforms`, :class:`NoiseDraw`); no dense
(m+1) x (m+1) Theta is ever built.  Every stepping path, single steps and the
Langevin chain included, reads the entries of Theta it needs per noise column
from :func:`mixing_coefficients`, the one place where the entry formulas
live.  The coefficients are noise-major rows, (m, ...), and batched
generators are stored noise-major and returned as transposed (Fortran-order)
views, so each noise is a contiguous row of the batch; the values do not
depend on the storage order.

The sample space is finite, so every moment is available exactly through
:func:`enumerate_atoms`, whose atom table is the sampler's own outcome set:
the distinct draws of :func:`draws_from_uniforms` and their probabilities,
with theta_0..theta_m and the rows of :func:`mixing_coefficients` as its
moment columns.  One kernel gives exact moments: a set of monomials
(:class:`Monomials`, checked once when built) is one pass over the table
that starts from the probabilities, multiplies in the factor columns
position by position and sums each row, and :func:`expectations` memoizes
that row on the table it read.  :func:`moment` is the one-row case of
:func:`expectations`.  The expectation checks elsewhere use tolerance 1e-12
because the support points involve ``sqrt(3)`` arithmetic.

Families and atom tables are immutable and shareable; :func:`sample_draw`
requires exclusive access to its generator stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
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
    "Monomials",
    "expectations",
    "draws_from_uniforms",
    "mixing_coefficients",
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
    """Invalid family parameters (unknown calculus, c out of range)."""


class CapacityError(ValueError):
    """An operation requested beyond its supported order or noise count."""


@dataclass(frozen=True)
class RvFamily:
    """One of the method random-variable families: calculus, c, and the c=1/2 variant."""

    calculus: str
    c: float

    def __post_init__(self):
        if self.calculus not in CALCULI:
            raise FamilyError(f"unknown calculus {self.calculus!r}")
        if not 0.0 < self.c <= 0.5:
            raise FamilyError(f"c must lie in (0, 1/2], got {self.c}")

    @classmethod
    def make(cls, calculus: str, c: float) -> "RvFamily":
        return cls(calculus, float(c))

    @property
    def half_variant(self) -> bool:
        """The c=1/2 variant, which draws no eta_p and has every Theta[p][0] = 1."""
        return self.c == 0.5

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
    """One step's realization: its family and generators ``theta``, ``eta``.

    The generators have shape (m+1,), or (n, m+1) for a batch of n draws, as
    :func:`draws_from_uniforms` returns them.  Slotted: an atom table holds
    one per atom (1024 for m = 3).
    """

    family: RvFamily
    theta: np.ndarray
    eta: np.ndarray

    @property
    def m(self) -> int:
        return self.theta.shape[-1] - 1

    @property
    def calculus(self) -> str:
        return self.family.calculus


@dataclass(frozen=True, eq=False)
class AtomTable:
    """The sampler's outcome set of a family, as read-only batched arrays.

    Row k of ``probs`` (N,) and of ``theta`` and ``eta`` (N, m+1) is atom k:
    its probability and its generators.  ``columns`` (K, N) holds one
    contiguous row per moment factor: theta_0..theta_m, then the rows
    ``row0``, ``col0`` (ones in the c=1/2 variant), ``diag``, ``up`` and
    ``low`` (m > 1 only) of :func:`mixing_coefficients`; each Theta[p][q] is
    one of them (:func:`_column_index`).  ``_moments`` memoizes
    :func:`expectations` (a read-only row per :class:`Monomials`, so
    :func:`moment` too); it lives and dies with the table, so whatever bounds
    the atom cache bounds it too.
    """

    m: int
    family: RvFamily
    probs: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    columns: np.ndarray
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def atoms(self) -> tuple:
        """The atoms as ``(probability, NoiseDraw)`` pairs, row views of the generators."""
        return tuple(
            (prob, NoiseDraw(self.family, theta, eta))
            for prob, theta, eta in zip(self.probs.tolist(), self.theta, self.eta)
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


def _check_count(what: str, n, least: int = 0) -> None:
    """The one rule for every count (steps, paths, chains, batches, noises, state dimensions)."""
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise ValueError(f"the number of {what} must be an integer of at least {least}, got {n!r}")


def sample_draw(family: RvFamily, m: int, rng: np.random.Generator) -> NoiseDraw:
    """Sample one step's draw; consumes exactly ``rv_count(m)`` uniforms from rng."""
    _check_count("noises", m, least=1)
    u = rng.random(family.rv_count(m))
    theta, eta = draws_from_uniforms(family, m, u)
    theta.setflags(write=False)
    eta.setflags(write=False)
    return NoiseDraw(family, theta, eta)


_ATOM_CACHE: dict = {}


def _check_noise_count(m: int) -> None:
    _check_count("noises", m, least=1)
    if m > MAX_ATOM_NOISES:
        raise CapacityError(f"atom enumeration supports m <= {MAX_ATOM_NOISES}")


@lru_cache(maxsize=None)  # at most 12 keys: calculus, c = 1/2 variant, m
def _outcomes(calculus: str, half_variant: bool, m: int):
    """Read-only ``(probs, theta, eta)`` of the distinct draws, which do not depend on c:
    each variable :func:`draws_from_uniforms` reads (in its column order, the first outermost)
    takes each value from a uniform inside its bin, with that value's probability."""
    family = RvFamily.make(calculus, 0.5 if half_variant else 0.25)
    edges = (0.0,) + _EDGES[calculus] + (1.0,)
    theta_bins = ([(a + b) / 2.0 for a, b in zip(edges, edges[1:])], family.theta_support[1])
    sign_bins = ([0.25, 0.75], [0.5, 0.5])
    variables = [sign_bins] * (m > 1) + [theta_bins] * m + [sign_bins] * (0 if half_variant else m)
    grid = np.meshgrid(*[uniforms for uniforms, _ in variables], indexing="ij")
    u = np.stack(grid, axis=-1).reshape(-1, len(variables))
    outcomes = (reduce(np.multiply.outer, [np.array(p) for _, p in variables]).ravel(),
                *draws_from_uniforms(family, m, u))
    for array in outcomes:
        array.setflags(write=False)
    return outcomes


def enumerate_atoms(family: RvFamily, m: int) -> AtomTable:
    """The sampler's outcome set: each distinct draw of :func:`draws_from_uniforms`, with its probability."""
    _check_noise_count(m)
    key = (family.calculus, family.c, m)
    cached = _ATOM_CACHE.get(key)
    if cached is not None:
        return cached
    probs, theta, eta = _outcomes(family.calculus, family.half_variant, m)
    row0, col0, diag, up, low = mixing_coefficients(family, theta, eta)
    if col0 is None:  # the c=1/2 variant: every Theta[p][0] is 1
        col0 = np.ones_like(row0)
    columns = np.concatenate([a for a in (theta.T, row0, col0, diag, up, low) if a is not None])
    columns.setflags(write=False)
    table = AtomTable(m, family, probs, theta, eta, columns)
    _ATOM_CACHE[key] = table
    return table


_FACTOR_ARITY = {"theta": 1, "Theta": 2}


def _column_index(factor, m: int) -> int:
    """The row of ``AtomTable.columns`` holding a factor, checked against m."""
    kind, indices = factor[0], factor[1:]
    if _FACTOR_ARITY.get(kind) != len(indices):
        raise ValueError(f"unknown factor {factor!r}: expected ('theta', p) or ('Theta', p, q)")
    if any(not 0 <= i <= m for i in indices):
        raise ValueError(f"factor {factor!r} references a noise index beyond m={m}")
    if kind == "theta":
        return indices[0]
    p, q = indices
    if p == q == 0:
        return 0  # Theta[0][0] = 1 = theta_0
    # blocks of m rows after theta_0..theta_m, indexed by noise q (p in col0)
    block = 0 if p == 0 else 1 if q == 0 else 2 if p == q else 3 if q > p else 4
    return m + block * m + (q or p)


_CHUNK_ROWS = 64  # per kernel pass: two (rows, atoms) arrays, 1 MiB at 1024 atoms


def _weighted_sums(table: AtomTable, index: np.ndarray) -> np.ndarray:
    """The exact moment kernel: one expectation per row of ``index``.

    Row i is the sum over atoms of ``probs`` times the columns
    ``index[i, 0], index[i, 1], ...``, multiplied in left to right; the sum
    runs along each contiguous row, so a row sums exactly as a lone
    monomial's vector does, and taking the rows ``_CHUNK_ROWS`` at a time
    bounds the memory of a large set without moving a bit.
    """
    sums = np.empty(len(index))
    w = np.empty((min(len(index), _CHUNK_ROWS), len(table.probs)))
    factor = np.empty_like(w)
    for start in range(0, len(index), _CHUNK_ROWS):
        rows = index[start : start + _CHUNK_ROWS]
        w_rows, factor_rows = w[: len(rows)], factor[: len(rows)]
        w_rows[:] = table.probs
        for j in range(index.shape[1]):
            np.take(table.columns, rows[:, j], axis=0, out=factor_rows, mode="clip")
            w_rows *= factor_rows
        w_rows.sum(axis=1, out=sums[start : start + len(rows)])
    return sums


class Monomials:
    """Monomials of one noise count ``m`` as rows of factor columns, checked once.

    ``factors`` holds one tuple of factors per monomial, each factor
    ``("theta", p)`` or ``("Theta", p, q)`` taken to the first power (repeat a
    factor for a higher power).  ``index`` (rows, positions) names their
    columns in the atom table; a shorter monomial is padded with column 0,
    theta_0 = 1, and multiplying by 1.0 changes no bit.  Equal sets compare
    and hash equal, and the hash is computed once, so a memo hit by the same
    object costs one dict lookup.
    """

    __slots__ = ("m", "factors", "index", "_hash")

    def __init__(self, m: int, factors):
        _check_noise_count(m)
        self.m = m
        self.factors = tuple(tuple(monomial) for monomial in factors)
        self.index = np.zeros((len(self.factors), max(map(len, self.factors), default=0)), dtype=np.intp)
        for row, monomial in zip(self.index, self.factors):
            row[: len(monomial)] = [_column_index(factor, m) for factor in monomial]
        self.index.setflags(write=False)
        self._hash = hash((m, self.factors))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomials) and (self.m, self.factors) == (other.m, other.factors)


def expectations(family: RvFamily, monomials: Monomials) -> np.ndarray:
    """Exact expectations of a set of monomials, one read-only row per set.

    Computed in one pass of the moment kernel and memoized on the atom table
    it read; a repeated set returns the stored row.
    """
    table = enumerate_atoms(family, monomials.m)
    row = table._moments.get(monomials)
    if row is None:
        row = _weighted_sums(table, monomials.index)
        row.setflags(write=False)
        table._moments[monomials] = row
    return row


def moment(family: RvFamily, m: int, monomial: Iterable) -> float:
    """Exact expectation of a monomial in the theta / Theta variables.

    ``monomial`` is an iterable of ``(factor, exponent)`` pairs with factor
    ``("theta", p)`` or ``("Theta", p, q)``, indices at most ``m``, and a
    non-negative integer exponent.  The one-row case of :func:`expectations`:
    each factor is repeated once per unit of its exponent (exponent 0 drops
    it), and the row is validated and memoized there.
    """
    pairs = [(tuple(factor), exponent) for factor, exponent in monomial]
    if not all(isinstance(exponent, (int, np.integer)) for _, exponent in pairs):
        raise ValueError(f"non-integer exponent in monomial {pairs!r}")
    if any(exponent < 0 for _, exponent in pairs):
        raise ValueError(f"negative exponent in monomial {pairs!r}")
    factors = [factor for factor, exponent in pairs for _ in range(exponent)]
    return float(expectations(family, Monomials(m, [factors]))[0])
