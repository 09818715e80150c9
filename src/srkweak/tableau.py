"""Method tableaux: data model, validation, JSON file I/O, built-in registry.

A method is defined by the coefficient blocks of the structured ansatz

    z^0 = alpha,            z^p     = beta theta_p,
    Z^{0,0} = A0,           Z^{0,q} = B0 Theta[0][q],
    Z^{p,0} = A1 Theta[p][0],  Z^{p,q} = B1 Theta[p][q],

with s1 deterministic and s2 stochastic stages; Stratonovich methods carry an
extra block Bhat1 applied on the diagonal q = p.  The two-block form is kept
as-is (never padded to a common stage count), which preserves the optimal
per-step evaluation counts.

Tableaux are immutable after construction (arrays are read-only), so they can
be shared freely across workers.

File format: JSON object with keys name, calculus ("ito"|"stratonovich"), c,
alpha, beta, A0, B0, A1, B1, optional Bhat1 (row-major arrays), det_order,
weak_order, structure.  Entries may be numbers or strings "a+b*sqrt(k)" with
rational a, b and integer k (e.g. "3/5-1/10*sqrt(6)").
"""

from __future__ import annotations

import functools
import json
import math
import re
import weakref
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .randvars import CALCULI, ITO, STRATONOVICH

__all__ = [
    "MethodTableau",
    "ValidationReport",
    "TableauError",
    "UnknownMethodError",
    "TableauFileError",
    "make_tableau",
    "validate",
    "stage_blocks",
    "stage_evaluation_order",
    "mixes_read",
    "registry_names",
    "registry_get",
    "load_method",
    "save_method",
    "tableaux_equal",
    "EXPLICIT",
    "DIAGONALLY_IMPLICIT",
    "IMEX",
]

EXPLICIT = "explicit"
DIAGONALLY_IMPLICIT = "diagonally_implicit"
IMEX = "imex"
STRUCTURES = (EXPLICIT, DIAGONALLY_IMPLICIT, IMEX)


class TableauError(ValueError):
    pass


class UnknownMethodError(KeyError):
    pass


class TableauFileError(TableauError):
    pass


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MethodTableau:
    """Coefficient blocks of one stochastic Runge-Kutta method.

    ``s1``/``s2`` are the deterministic/stochastic stage counts (the row
    counts of A0 and A1).  Instances are hashable by identity; use
    :func:`tableaux_equal` for field-by-field comparison.
    """

    name: str
    calculus: str
    alpha: np.ndarray
    beta: np.ndarray
    A0: np.ndarray
    B0: np.ndarray
    A1: np.ndarray
    B1: np.ndarray
    Bhat1: Optional[np.ndarray]
    c: float
    det_order: int
    weak_order: int
    structure: str

    @property
    def s1(self) -> int:
        return self.A0.shape[0]

    @property
    def s2(self) -> int:
        return self.A1.shape[0]


def make_tableau(
    name: str,
    calculus: str,
    alpha,
    beta,
    A0,
    B0,
    A1,
    B1,
    Bhat1=None,
    *,
    c: float,
    det_order: int,
    weak_order: int,
    structure: str,
) -> MethodTableau:
    """Normalize inputs into an immutable tableau (no validation beyond types)."""
    return MethodTableau(
        name=str(name),
        calculus=calculus,
        alpha=_readonly(alpha),
        beta=_readonly(beta),
        A0=np.atleast_2d(_readonly(A0)),
        B0=np.atleast_2d(_readonly(B0)),
        A1=np.atleast_2d(_readonly(A1)),
        B1=np.atleast_2d(_readonly(B1)),
        Bhat1=None if Bhat1 is None else np.atleast_2d(_readonly(Bhat1)),
        c=float(c),
        det_order=int(det_order),
        weak_order=int(weak_order),
        structure=structure,
    )


def tableaux_equal(a: MethodTableau, b: MethodTableau) -> bool:
    """Bit-exact field-by-field equality."""
    for f in fields(MethodTableau):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    findings: list = field(default_factory=list)  # (severity, message)

    @property
    def ok(self) -> bool:
        return not any(sev == "error" for sev, _ in self.findings)

    def errors(self):
        return [msg for sev, msg in self.findings if sev == "error"]

    def warnings(self):
        return [msg for sev, msg in self.findings if sev == "warning"]


def _per_tableau(fn):
    """Memoize ``fn(t)`` for as long as the tableau ``t`` lives."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(t: MethodTableau):
        value = cache.get(t)
        if value is None:
            value = cache[t] = fn(t)
        return value

    return cached


@_per_tableau
def stage_blocks(t: MethodTableau) -> tuple:
    """The stage blocks in dependency order: a tuple of (nodes, cyclic).

    Nodes are ("drift", i) and ("stoch", j); a drift stage depends on the
    stages its nonzero A0/B0 row entries reference, a stochastic stage on its
    A1/B1 (and Bhat1) entries.  A block is a strongly connected set of nodes,
    listed in sorted order; ``cyclic`` says whether it reads itself, i.e.
    needs an implicit solve.  Each block comes after every block it reads;
    among the ready blocks the one with the smallest first node goes first.
    """
    size = {"drift": t.s1, "stoch": t.s2}

    def refs(block, i, kind):
        """The ``kind`` stages that the nonzero entries of row i of ``block`` read."""
        return {(kind, j) for j in range(min(size[kind], block.shape[1])) if block[i, j] != 0.0}

    deps = {}
    for i in range(t.s1):
        deps[("drift", i)] = refs(t.A0, i, "drift") | refs(t.B0, i, "stoch")
    for i in range(t.s2):
        deps[("stoch", i)] = refs(t.A1, i, "drift") | refs(t.B1, i, "stoch")
        if t.Bhat1 is not None:
            deps[("stoch", i)] |= refs(t.Bhat1, i, "stoch")
    reach = {n: set(d) for n, d in deps.items()}  # transitive closure (Warshall)
    for k in deps:
        for n in deps:
            if k in reach[n]:
                reach[n] |= reach[k]
    pending = sorted({tuple(sorted({n} | {k for k in reach[n] if n in reach[k]})) for n in deps})
    blocks, placed = [], set()
    while pending:
        nodes = next(b for b in pending if all(deps[n] <= placed | set(b) for n in b))
        blocks.append((nodes, nodes[0] in reach[nodes[0]]))
        placed.update(nodes)
        pending.remove(nodes)
    return tuple(blocks)


@_per_tableau
def mixes_read(t: MethodTableau) -> tuple:
    """Which mixes of each stochastic stage j some stage reads: ``(U, V)``,
    one flag per stage each.

    The mix ``U_j = sum_q Theta[0][q] f^q(H_j^q)`` enters drift stages only,
    through column j of B0, and the rows ``V_j`` enter stochastic stages
    only, through column j of B1; a mix whose column is zero is never read.
    The update reads f^q(H_j^q) itself, as does Bhat1.
    """
    def read(block):
        return tuple(bool(np.any(block[:, j : j + 1] != 0.0)) for j in range(t.s2))

    return read(t.B0), read(t.B1)


def stage_evaluation_order(t: MethodTableau):
    """The stages of :func:`stage_blocks` in order, or None when a block is
    cyclic, i.e. the method genuinely needs an implicit solve."""
    blocks = stage_blocks(t)
    return None if any(c for _, c in blocks) else [n for nodes, _ in blocks for n in nodes]


def validate(t: MethodTableau, check_order: bool = True, tol: float = 1e-13) -> ValidationReport:
    """Shape/range/structure checks; warnings when a declared weak order 2 fails
    its reduced condition system."""
    report = ValidationReport()
    err = lambda msg: report.findings.append(("error", msg))
    warn = lambda msg: report.findings.append(("warning", msg))

    if t.calculus not in CALCULI:
        err(f"unknown calculus {t.calculus!r}")
        return report
    if t.structure not in STRUCTURES:
        err(f"unknown structure {t.structure!r}")
    if not 0.0 < t.c <= 0.5:
        err(f"c must lie in (0, 1/2], got {t.c}")

    s1, s2 = t.s1, t.s2
    if t.alpha.shape != (s1,):
        err(f"alpha has length {t.alpha.shape[0]}, expected s1={s1}")
    if t.beta.shape != (s2,):
        err(f"beta has length {t.beta.shape[0]}, expected s2={s2}")
    if t.A0.shape != (s1, s1):
        err(f"A0 has shape {t.A0.shape}, expected ({s1}, {s1})")
    if t.B0.shape != (s1, s2):
        err(f"B0 has shape {t.B0.shape}, expected ({s1}, {s2})")
    if t.A1.shape != (s2, s1):
        err(f"A1 has shape {t.A1.shape}, expected ({s2}, {s1})")
    if t.B1.shape != (s2, s2):
        err(f"B1 has shape {t.B1.shape}, expected ({s2}, {s2})")
    if t.calculus == STRATONOVICH:
        if t.Bhat1 is None:
            err("Stratonovich tableau requires the Bhat1 block")
        elif t.Bhat1.shape != (s2, s2):
            err(f"Bhat1 has shape {t.Bhat1.shape}, expected ({s2}, {s2})")
    elif t.Bhat1 is not None:
        err("Bhat1 is only meaningful for Stratonovich tableaux")

    if not report.ok:
        return report

    if t.structure == EXPLICIT and stage_evaluation_order(t) is None:
        err("structure declared explicit but the stage dependencies are cyclic")

    if check_order and t.weak_order >= 2:
        from . import conditions

        reduced = conditions.check_reduced(t, tolerance=tol)
        for rec in reduced.records:
            if not rec.satisfied:
                warn(
                    f"declared weak order 2 but reduced condition {rec.id} "
                    f"({rec.description}) is violated: lhs={rec.lhs:.6g}, "
                    f"target={rec.target:.6g}"
                )
    return report


# ---------------------------------------------------------------------------
# registry

_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)


def _build_registry() -> dict:
    reg = {}

    def add(t: MethodTableau):
        reg[t.name] = t

    # Ito explicit, (2,2) stages, mixes the Heun and explicit midpoint updates.
    add(
        make_tableau(
            "BDK1",
            ITO,
            alpha=[0.5, 0.5],
            beta=[0.0, 1.0],
            A0=[[0.0, 0.0], [1.0, 0.0]],
            B0=[[0.0, 0.0], [1.0, 0.0]],
            A1=[[0.0, 0.0], [0.5, 0.0]],
            B1=[[0.0, 0.0], [0.5, 0.0]],
            c=0.5,
            det_order=2,
            weak_order=2,
            structure=EXPLICIT,
        )
    )

    # Ito explicit, (3,2) stages, deterministic part is Kutta's third-order method.
    add(
        make_tableau(
            "BDK2",
            ITO,
            alpha=[1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            beta=[0.0, 1.0],
            A0=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
            B0=[[0.0, 0.0], [0.6 - _S6 / 10.0, 0.0], [0.6 + 0.4 * _S6, 0.0]],
            A1=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],
            B1=[[0.0, 0.0], [0.5, 0.0]],
            c=0.5,
            det_order=3,
            weak_order=2,
            structure=EXPLICIT,
        )
    )

    # Ito explicit, (3,2) stages, c = 1/3, same deterministic part as BDK2.
    add(
        make_tableau(
            "BDK3",
            ITO,
            alpha=[1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            beta=[0.0, 1.0],
            A0=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
            B0=[[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
            A1=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],
            B1=[[0.0, 0.0], [0.5, 0.0]],
            c=1.0 / 3.0,
            det_order=3,
            weak_order=2,
            structure=EXPLICIT,
        )
    )

    # Ito (1,2) with implicit midpoint drift and implicit stochastic stages, c = 1/4.
    add(
        make_tableau(
            "ItoImplicit12",
            ITO,
            alpha=[1.0],
            beta=[0.0, 1.0],
            A0=[[0.5]],
            B0=[[0.5, 0.0]],
            A1=[[0.0], [0.5]],
            B1=[[1.0, 0.0], [-0.5, 1.0]],
            c=0.25,
            det_order=2,
            weak_order=2,
            structure=DIAGONALLY_IMPLICIT,
        )
    )

    # Stratonovich explicit, (2,4) stages, c = 1/2.
    add(
        make_tableau(
            "StratoExplicit24",
            STRATONOVICH,
            alpha=[0.5, 0.5],
            beta=[0.0, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            A0=[[0.0, 0.0], [1.0, 0.0]],
            B0=[[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            A1=[[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
            B1=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [-1.0, 1.5, 0.0, 0.0],
                [-1.0, 1.5, 0.0, 0.0],
            ],
            Bhat1=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [-0.5, 0.5, 0.0, 0.0],
                [-1.5, 1.5, 1.0, 0.0],
            ],
            c=0.5,
            det_order=2,
            weak_order=2,
            structure=EXPLICIT,
        )
    )

    # Stratonovich (1,2) with implicit midpoint drift; Bhat1 is the two-stage
    # Gauss-Legendre-type block, c = 1/4.
    add(
        make_tableau(
            "StratoImplicit12",
            STRATONOVICH,
            alpha=[1.0],
            beta=[0.5, 0.5],
            A0=[[0.5]],
            B0=[[0.25, 0.25]],
            A1=[[0.5], [0.5]],
            B1=[[0.25, 0.25], [0.25, 0.25]],
            Bhat1=[
                [0.25, (3.0 + 2.0 * _S3) / 12.0],
                [(3.0 - 2.0 * _S3) / 12.0, 0.25],
            ],
            c=0.25,
            det_order=2,
            weak_order=2,
            structure=DIAGONALLY_IMPLICIT,
        )
    )

    # Stratonovich explicit, (3,4) stages, deterministic order 3, c = 1/2.
    add(
        make_tableau(
            "StratoDetOrder3",
            STRATONOVICH,
            alpha=[0.25, 0.0, 0.75],
            beta=[0.0, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            A0=[[0.0, 0.0, 0.0], [1.0 / 3.0, 0.0, 0.0], [0.0, 2.0 / 3.0, 0.0]],
            B0=[
                [0.5 - _S3 / 2.0, 0.0, 0.0, 0.0],
                [_S3 - 1.0, 0.0, 0.0, 0.0],
                [1.0 / 6.0 + _S3 / 6.0, 0.0, 0.0, 1.0 / 3.0],
            ],
            A1=[
                [0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0],
                [-0.5, 1.0, 0.0],
                [0.5, 0.0, 0.0],
            ],
            B1=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [-1.0, 1.5, 0.0, 0.0],
                [-0.5, 1.5, -0.5, 0.0],
            ],
            Bhat1=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [-0.5, 0.5, 0.0, 0.0],
                [-1.5, 1.5, 1.0, 0.0],
            ],
            c=0.5,
            det_order=3,
            weak_order=2,
            structure=EXPLICIT,
        )
    )

    # Ito IMEX: diagonally implicit drift, explicit noise, (1,2) stages, c = 1/4.
    add(
        make_tableau(
            "ItoDIRKEX",
            ITO,
            alpha=[1.0],
            beta=[0.0, 1.0],
            A0=[[0.5]],
            B0=[[0.5, 0.0]],
            A1=[[0.0], [0.5]],
            B1=[[0.0, 0.0], [0.5, 0.0]],
            c=0.25,
            det_order=2,
            weak_order=2,
            structure=IMEX,
        )
    )

    # Ito IMEX: explicit drift, diagonally implicit noise, (2,2) stages, c = 1/2.
    add(
        make_tableau(
            "ItoEXDIRK",
            ITO,
            alpha=[0.5, 0.5],
            beta=[0.0, 1.0],
            A0=[[0.0, 0.0], [1.0, 0.0]],
            B0=[[0.0, 0.0], [1.0, 0.0]],
            A1=[[0.0, 0.0], [0.5, 0.0]],
            B1=[[1.0, 0.0], [-0.5, 1.0]],
            c=0.5,
            det_order=2,
            weak_order=2,
            structure=IMEX,
        )
    )

    # Stratonovich IMEX: diagonally implicit drift, explicit noise, (1,4), c = 1/4.
    add(
        make_tableau(
            "StratoDIRKEX",
            STRATONOVICH,
            alpha=[1.0],
            beta=[0.0, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            A0=[[0.5]],
            B0=[[0.0, 0.5, 0.0, 0.0]],
            A1=[[0.0], [0.0], [1.5], [1.5]],
            B1=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [-1.0, 1.5, 0.0, 0.0],
                [-0.5, 1.5, -0.5, 0.0],
            ],
            Bhat1=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [-0.5, 0.5, 0.0, 0.0],
                [-1.5, 1.5, 1.0, 0.0],
            ],
            c=0.25,
            det_order=2,
            weak_order=2,
            structure=IMEX,
        )
    )

    # Stratonovich IMEX: explicit drift, diagonally implicit noise, (2,3), c = 1/2.
    add(
        make_tableau(
            "StratoEXDIRK",
            STRATONOVICH,
            alpha=[0.5, 0.5],
            beta=[0.0, 0.5, 0.5],
            A0=[[0.0, 0.0], [1.0, 0.0]],
            B0=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            A1=[[0.0, 0.0], [0.5, 0.0], [0.5, 0.0]],
            B1=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
            Bhat1=[
                [0.5, 0.0, 0.0],
                [(3.0 - 2.0 * _S3) / 6.0, _S3 / 6.0, 0.0],
                [(-3.0 + 2.0 * _S3) / 6.0, 0.5, (3.0 - _S3) / 6.0],
            ],
            c=0.5,
            det_order=2,
            weak_order=2,
            structure=IMEX,
        )
    )

    # Stratonovich diagonally implicit, (1,3) stages, c = 1/4.
    add(
        make_tableau(
            "StratoDIRK",
            STRATONOVICH,
            alpha=[1.0],
            beta=[0.0, 0.5, 0.5],
            A0=[[0.5]],
            B0=[[0.5, 0.0, 0.0]],
            A1=[[0.0], [0.5], [0.5]],
            B1=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
            Bhat1=[
                [0.5, 0.0, 0.0],
                [(3.0 - 2.0 * _S3) / 6.0, _S3 / 6.0, 0.0],
                [(-3.0 + 2.0 * _S3) / 6.0, 0.5, (3.0 - _S3) / 6.0],
            ],
            c=0.25,
            det_order=2,
            weak_order=2,
            structure=DIAGONALLY_IMPLICIT,
        )
    )

    # Weak order 1 baseline with the same discrete increments.
    add(
        make_tableau(
            "EulerMaruyama",
            ITO,
            alpha=[1.0],
            beta=[1.0],
            A0=[[0.0]],
            B0=[[0.0]],
            A1=[[0.0]],
            B1=[[0.0]],
            c=0.5,
            det_order=1,
            weak_order=1,
            structure=EXPLICIT,
        )
    )
    return reg


_REGISTRY: dict = {}


def _registry() -> dict:
    if not _REGISTRY:
        _REGISTRY.update(_build_registry())
    return _REGISTRY


def registry_names() -> tuple:
    return tuple(_registry())


def registry_get(name: str) -> MethodTableau:
    reg = _registry()
    if name not in reg:
        raise UnknownMethodError(
            f"unknown method {name!r}; registered methods: {', '.join(sorted(reg))}"
        )
    return reg[name]


# ---------------------------------------------------------------------------
# file I/O

_SQRT_TERM = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?:(?P<sign>[+-])?\s*(?P<b>\d+(?:/\d+)?)?\s*\*?\s*sqrt\(\s*(?P<k>\d+)\s*\))?\s*$"
)


def _parse_entry(value) -> float:
    """A tableau entry: a JSON number, or a string 'a+b*sqrt(k)' with rational a, b."""
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise TableauFileError(f"tableau entry must be number or string, got {value!r}")
    text = value.strip()
    try:
        return float(Fraction(text))
    except ValueError:
        pass
    match = _SQRT_TERM.match(text)
    if not match or "sqrt" not in text:
        raise TableauFileError(f"cannot parse tableau entry {value!r}")
    a = Fraction(match.group("a")) if match.group("a") else Fraction(0)
    b = Fraction(match.group("b")) if match.group("b") else Fraction(1)
    if match.group("sign") == "-":
        b = -b
    k = int(match.group("k"))
    return float(a) + float(b) * math.sqrt(k)


def _parse_matrix(raw, what: str) -> np.ndarray:
    try:
        rows = [[_parse_entry(x) for x in row] for row in raw]
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise TableauFileError(f"{what} is not a rectangular numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise TableauFileError(f"{what} must be a matrix (list of equal-length rows)")
    return arr


def _parse_vector(raw, what: str) -> np.ndarray:
    try:
        arr = np.array([_parse_entry(x) for x in raw], dtype=float)
    except (TypeError, ValueError) as exc:
        raise TableauFileError(f"{what} is not a numeric vector: {exc}") from exc
    return arr


def tableau_from_dict(data: dict) -> MethodTableau:
    required = ["name", "calculus", "c", "alpha", "beta", "A0", "B0", "A1", "B1"]
    missing = [k for k in required if k not in data]
    if missing:
        raise TableauFileError(f"missing keys: {', '.join(missing)}")
    calculus = data["calculus"]
    if calculus not in CALCULI:
        raise TableauFileError(f"calculus must be one of {CALCULI}, got {calculus!r}")
    t = make_tableau(
        data["name"],
        calculus,
        alpha=_parse_vector(data["alpha"], "alpha"),
        beta=_parse_vector(data["beta"], "beta"),
        A0=_parse_matrix(data["A0"], "A0"),
        B0=_parse_matrix(data["B0"], "B0"),
        A1=_parse_matrix(data["A1"], "A1"),
        B1=_parse_matrix(data["B1"], "B1"),
        Bhat1=None if data.get("Bhat1") is None else _parse_matrix(data["Bhat1"], "Bhat1"),
        c=_parse_entry(data["c"]),
        det_order=int(data.get("det_order", 1)),
        weak_order=int(data.get("weak_order", 1)),
        structure=data.get("structure", EXPLICIT),
    )
    report = validate(t, check_order=False)
    if not report.ok:
        raise TableauError("invalid tableau: " + "; ".join(report.errors()))
    return t


def tableau_to_dict(t: MethodTableau) -> dict:
    data = {
        "name": t.name,
        "calculus": t.calculus,
        "c": t.c,
        "alpha": t.alpha.tolist(),
        "beta": t.beta.tolist(),
        "A0": t.A0.tolist(),
        "B0": t.B0.tolist(),
        "A1": t.A1.tolist(),
        "B1": t.B1.tolist(),
        "det_order": t.det_order,
        "weak_order": t.weak_order,
        "structure": t.structure,
    }
    if t.Bhat1 is not None:
        data["Bhat1"] = t.Bhat1.tolist()
    return data


def load_method(path) -> MethodTableau:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TableauFileError(f"malformed method file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise TableauFileError(f"method file {path} must contain a JSON object")
    return tableau_from_dict(data)


def save_method(t: MethodTableau, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tableau_to_dict(t), fh, indent=2)
        fh.write("\n")
