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
det_order, weak_order, structure and the coefficient blocks, row-major arrays
whose keys and shapes come from the one block table ``_BLOCKS`` (Bhat1 is
optional).  Entries may be numbers or strings "a+b*sqrt(k)" with rational a, b
and integer k (e.g. "3/5-1/10*sqrt(6)").  The built-in registry is a tuple of
such records with exact entries, read and validated by
:func:`tableau_from_dict` on first use, as a user's method file is.
"""

from __future__ import annotations

import functools
import json
import math
import re
import weakref
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .randvars import CALCULI, ITO, STRATONOVICH, RvFamily

__all__ = [
    "MethodTableau",
    "TableauError",
    "UnknownMethodError",
    "TableauFileError",
    "make_tableau",
    "validate",
    "stage_blocks",
    "stage_evaluation_order",
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


# The coefficient blocks in signature and file order, each with its shape in
# stage counts.  Bhat1, last, is the Stratonovich-only block and the one that
# may be absent (None).
_BLOCKS = {
    "alpha": ("s1",),
    "beta": ("s2",),
    "A0": ("s1", "s1"),
    "B0": ("s1", "s2"),
    "A1": ("s2", "s1"),
    "B1": ("s2", "s2"),
    "Bhat1": ("s2", "s2"),
}
_REQUIRED_BLOCKS = tuple(_BLOCKS)[:-1]


def _readonly(a, ndim: int) -> np.ndarray:
    a = np.array(a, dtype=float, ndmin=ndim)
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

    @property
    def family(self) -> RvFamily:
        """The random-variable family the method draws from: its calculus and c."""
        return RvFamily.make(self.calculus, self.c)


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
    blocks = zip(_BLOCKS.items(), (alpha, beta, A0, B0, A1, B1, Bhat1))
    arrays = {b: None if v is None and b == "Bhat1" else _readonly(v, len(shape)) for (b, shape), v in blocks}
    return MethodTableau(
        name=str(name),
        calculus=calculus,
        **arrays,
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
    A1/B1 (and a Stratonovich method's Bhat1) entries.  A block is a
    strongly connected set of nodes, listed in sorted order; ``cyclic`` says
    whether it reads itself, i.e. needs an implicit solve.  Each block comes after every block it reads;
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
        if t.calculus == STRATONOVICH and t.Bhat1 is not None:
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


def stage_evaluation_order(t: MethodTableau):
    """The stages of :func:`stage_blocks` in order, or None when a block is
    cyclic, i.e. the method genuinely needs an implicit solve."""
    blocks = stage_blocks(t)
    return None if any(c for _, c in blocks) else [n for nodes, _ in blocks for n in nodes]


def validate(t: MethodTableau) -> list:
    """The shape, range, finiteness and structure errors of a tableau, one
    message each; an empty list means valid.  :mod:`srkweak.conditions`
    checks the order conditions."""
    errors = []
    err = errors.append

    if t.calculus not in CALCULI:
        err(f"unknown calculus {t.calculus!r}")
        return errors
    if t.structure not in STRUCTURES:
        err(f"unknown structure {t.structure!r}")
    if not 0.0 < t.c <= 0.5:
        err(f"c must lie in (0, 1/2], got {t.c}")
    non_finite, misshapen = [], []
    for block, shape in _BLOCKS.items():
        value, expected = getattr(t, block), tuple(getattr(t, n) for n in shape)
        if value is not None and not np.all(np.isfinite(value)):
            non_finite.append(f"{block} has non-finite entries")
        # an Ito tableau's Bhat1 is reported below, whatever its shape
        if value is None or value.shape == expected or (block == "Bhat1" and t.calculus != STRATONOVICH):
            continue
        if len(shape) == 1:
            misshapen.append(f"{block} has length {value.shape[0]}, expected {shape[0]}={expected[0]}")
        else:
            misshapen.append(f"{block} has shape {value.shape}, expected {expected}")
    errors += non_finite
    if not math.isfinite(t.c):
        err("c has non-finite entries")
    errors += misshapen
    if t.calculus == STRATONOVICH and t.Bhat1 is None:
        err("Stratonovich tableau requires the Bhat1 block")
    if t.calculus != STRATONOVICH and t.Bhat1 is not None:
        err("Bhat1 is only meaningful for Stratonovich tableaux")

    if errors:
        return errors

    if t.structure == EXPLICIT and stage_evaluation_order(t) is None:
        err("structure declared explicit but the stage dependencies are cyclic")
    return errors


# ---------------------------------------------------------------------------
# file I/O

# [a ±] [b *] sqrt(k): ``a`` only when a sign follows it, so a lone
# ``b*sqrt(k)`` binds its coefficient to the root
_SQRT_TERM = re.compile(
    r"^\s*(?:(?P<a>[+-]?\d+(?:/\d+)?)\s*(?=[+-]))?"
    r"(?P<sign>[+-])?\s*(?:(?P<b>\d+(?:/\d+)?)\s*\*?\s*)?sqrt\(\s*(?P<k>\d+)\s*\)\s*$"
)


def _parse_entry(value) -> float:
    """A tableau entry: a JSON number, or a string '[a±][b*]sqrt(k)' with rational a, b."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        raise TableauFileError(f"tableau entry must be number or string, got {value!r}")
    text = value.strip()
    try:
        try:
            return float(Fraction(text))
        except ValueError:
            match = _SQRT_TERM.match(text)
        if not match:
            raise TableauFileError(f"cannot parse tableau entry {value!r}")
        a = Fraction(match.group("a")) if match.group("a") else Fraction(0)
        b = Fraction(match.group("b")) if match.group("b") else Fraction(1)
        if match.group("sign") == "-":
            b = -b
        return float(a) + float(b) * math.sqrt(int(match.group("k")))
    except ZeroDivisionError:
        raise TableauFileError(f"tableau entry {value!r} divides by zero") from None
    except OverflowError:
        raise TableauFileError(f"tableau entry {value!r} is too large for a float") from None


def _parse_field(data: dict, key: str, kind: type, default=None):
    """A scalar field of a method file: a JSON integer (not a bool) or a string."""
    value = data.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TableauFileError(f"{key} must be {'an integer' if kind is int else 'a string'}, got {value!r}")
    return value


def _parse_block(raw, block: str) -> np.ndarray:
    """A block of a method file: a list of entries, or for a matrix a list of rows."""
    matrix = len(_BLOCKS[block]) == 2
    try:
        rows = [[_parse_entry(x) for x in row] if matrix else _parse_entry(row) for row in raw]
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        kind = "rectangular numeric matrix" if matrix else "numeric vector"
        raise TableauFileError(f"{block} is not a {kind}: {exc}") from exc
    if matrix and arr.ndim != 2:
        raise TableauFileError(f"{block} must be a matrix (list of equal-length rows)")
    return arr


def tableau_from_dict(data: dict) -> MethodTableau:
    missing = [k for k in ("name", "calculus", "c", *_REQUIRED_BLOCKS) if k not in data]
    if missing:
        raise TableauFileError(f"missing keys: {', '.join(missing)}")
    calculus = data["calculus"]
    if calculus not in CALCULI:
        raise TableauFileError(f"calculus must be one of {CALCULI}, got {calculus!r}")
    # a null Bhat1 reads as an absent one; any other null block is malformed
    blocks = {b: _parse_block(data[b], b) for b in _BLOCKS if b != "Bhat1" or data.get(b) is not None}
    t = make_tableau(
        _parse_field(data, "name", str),
        calculus,
        **blocks,
        c=_parse_entry(data["c"]),
        det_order=_parse_field(data, "det_order", int, 1),
        weak_order=_parse_field(data, "weak_order", int, 1),
        structure=data.get("structure", EXPLICIT),
    )
    errors = validate(t)
    if errors:
        raise TableauError("invalid tableau: " + "; ".join(errors))
    return t


def tableau_to_dict(t: MethodTableau) -> dict:
    data = {
        "name": t.name,
        "calculus": t.calculus,
        "c": t.c,
        **{block: getattr(t, block).tolist() for block in _REQUIRED_BLOCKS},
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


# ---------------------------------------------------------------------------
# registry: method-file records, read and validated like a user's file

_METHODS = (
    # Ito explicit, (2,2) stages, mixes the Heun and explicit midpoint updates.
    dict(name="BDK1", calculus=ITO, c=0.5, det_order=2, weak_order=2, structure=EXPLICIT,
         alpha=[0.5, 0.5], beta=[0, 1],
         A0=[[0, 0], [1, 0]], B0=[[0, 0], [1, 0]],
         A1=[[0, 0], [0.5, 0]], B1=[[0, 0], [0.5, 0]]),
    # Ito explicit, (3,2) stages, deterministic part is Kutta's third-order method.
    dict(name="BDK2", calculus=ITO, c=0.5, det_order=3, weak_order=2, structure=EXPLICIT,
         alpha=["1/6", "2/3", "1/6"], beta=[0, 1],
         A0=[[0, 0, 0], [0.5, 0, 0], [-1, 2, 0]],
         B0=[[0, 0], ["3/5-1/10*sqrt(6)", 0], ["3/5+2/5*sqrt(6)", 0]],
         A1=[[0, 0, 0], [0.5, 0, 0]], B1=[[0, 0], [0.5, 0]]),
    # Ito explicit, (3,2) stages, c = 1/3, same deterministic part as BDK2.
    dict(name="BDK3", calculus=ITO, c="1/3", det_order=3, weak_order=2, structure=EXPLICIT,
         alpha=["1/6", "2/3", "1/6"], beta=[0, 1],
         A0=[[0, 0, 0], [0.5, 0, 0], [-1, 2, 0]], B0=[[0, 0], [0.5, 0], [1, 0]],
         A1=[[0, 0, 0], [0.5, 0, 0]], B1=[[0, 0], [0.5, 0]]),
    # Ito (1,2) with implicit midpoint drift and implicit stochastic stages, c = 1/4.
    dict(name="ItoImplicit12", calculus=ITO, c=0.25, det_order=2, weak_order=2,
         structure=DIAGONALLY_IMPLICIT,
         alpha=[1], beta=[0, 1], A0=[[0.5]], B0=[[0.5, 0]],
         A1=[[0], [0.5]], B1=[[1, 0], [-0.5, 1]]),
    # Stratonovich explicit, (2,4) stages, c = 1/2.
    dict(name="StratoExplicit24", calculus=STRATONOVICH, c=0.5, det_order=2, weak_order=2,
         structure=EXPLICIT,
         alpha=[0.5, 0.5], beta=[0, "2/3", "1/6", "1/6"],
         A0=[[0, 0], [1, 0]], B0=[[0, 0, 0, 0], [0, 1, 0, 0]],
         A1=[[0, 0], [0.5, 0], [0.5, 0], [0.5, 0]],
         B1=[[0, 0, 0, 0], [0.5, 0, 0, 0], [-1, 1.5, 0, 0], [-1, 1.5, 0, 0]],
         Bhat1=[[0, 0, 0, 0], [0.5, 0, 0, 0], [-0.5, 0.5, 0, 0], [-1.5, 1.5, 1, 0]]),
    # Stratonovich (1,2) with implicit midpoint drift; Bhat1 is the two-stage
    # Gauss-Legendre-type block, c = 1/4.
    dict(name="StratoImplicit12", calculus=STRATONOVICH, c=0.25, det_order=2, weak_order=2,
         structure=DIAGONALLY_IMPLICIT,
         alpha=[1], beta=[0.5, 0.5], A0=[[0.5]], B0=[[0.25, 0.25]],
         A1=[[0.5], [0.5]], B1=[[0.25, 0.25], [0.25, 0.25]],
         Bhat1=[[0.25, "1/4+1/6*sqrt(3)"], ["1/4-1/6*sqrt(3)", 0.25]]),
    # Stratonovich explicit, (3,4) stages, deterministic order 3, c = 1/2.
    dict(name="StratoDetOrder3", calculus=STRATONOVICH, c=0.5, det_order=3, weak_order=2,
         structure=EXPLICIT,
         alpha=[0.25, 0, 0.75], beta=[0, "2/3", "1/6", "1/6"],
         A0=[[0, 0, 0], ["1/3", 0, 0], [0, "2/3", 0]],
         B0=[["1/2-1/2*sqrt(3)", 0, 0, 0], ["-1+sqrt(3)", 0, 0, 0],
             ["1/6+1/6*sqrt(3)", 0, 0, "1/3"]],
         A1=[[0, 0, 0], [0.5, 0, 0], [-0.5, 1, 0], [0.5, 0, 0]],
         B1=[[0, 0, 0, 0], [0.5, 0, 0, 0], [-1, 1.5, 0, 0], [-0.5, 1.5, -0.5, 0]],
         Bhat1=[[0, 0, 0, 0], [0.5, 0, 0, 0], [-0.5, 0.5, 0, 0], [-1.5, 1.5, 1, 0]]),
    # Ito IMEX: diagonally implicit drift, explicit noise, (1,2) stages, c = 1/4.
    dict(name="ItoDIRKEX", calculus=ITO, c=0.25, det_order=2, weak_order=2, structure=IMEX,
         alpha=[1], beta=[0, 1], A0=[[0.5]], B0=[[0.5, 0]],
         A1=[[0], [0.5]], B1=[[0, 0], [0.5, 0]]),
    # Ito IMEX: explicit drift, diagonally implicit noise, (2,2) stages, c = 1/2.
    dict(name="ItoEXDIRK", calculus=ITO, c=0.5, det_order=2, weak_order=2, structure=IMEX,
         alpha=[0.5, 0.5], beta=[0, 1],
         A0=[[0, 0], [1, 0]], B0=[[0, 0], [1, 0]],
         A1=[[0, 0], [0.5, 0]], B1=[[1, 0], [-0.5, 1]]),
    # Stratonovich IMEX: diagonally implicit drift, explicit noise, (1,4), c = 1/4.
    dict(name="StratoDIRKEX", calculus=STRATONOVICH, c=0.25, det_order=2, weak_order=2,
         structure=IMEX,
         alpha=[1], beta=[0, "2/3", "1/6", "1/6"], A0=[[0.5]], B0=[[0, 0.5, 0, 0]],
         A1=[[0], [0], [1.5], [1.5]],
         B1=[[0, 0, 0, 0], [0.5, 0, 0, 0], [-1, 1.5, 0, 0], [-0.5, 1.5, -0.5, 0]],
         Bhat1=[[0, 0, 0, 0], [0.5, 0, 0, 0], [-0.5, 0.5, 0, 0], [-1.5, 1.5, 1, 0]]),
    # Stratonovich IMEX: explicit drift, diagonally implicit noise, (2,3), c = 1/2.
    dict(name="StratoEXDIRK", calculus=STRATONOVICH, c=0.5, det_order=2, weak_order=2,
         structure=IMEX,
         alpha=[0.5, 0.5], beta=[0, 0.5, 0.5],
         A0=[[0, 0], [1, 0]], B0=[[0, 0, 0], [1, 0, 0]],
         A1=[[0, 0], [0.5, 0], [0.5, 0]], B1=[[0, 0, 0], [0.5, 0, 0], [0.5, 0, 0]],
         Bhat1=[[0.5, 0, 0], ["1/2-1/3*sqrt(3)", "1/6*sqrt(3)", 0],
                ["-1/2+1/3*sqrt(3)", 0.5, "1/2-1/6*sqrt(3)"]]),
    # Stratonovich diagonally implicit, (1,3) stages, c = 1/4.
    dict(name="StratoDIRK", calculus=STRATONOVICH, c=0.25, det_order=2, weak_order=2,
         structure=DIAGONALLY_IMPLICIT,
         alpha=[1], beta=[0, 0.5, 0.5], A0=[[0.5]], B0=[[0.5, 0, 0]],
         A1=[[0], [0.5], [0.5]], B1=[[0, 0, 0], [0.5, 0, 0], [0.5, 0, 0]],
         Bhat1=[[0.5, 0, 0], ["1/2-1/3*sqrt(3)", "1/6*sqrt(3)", 0],
                ["-1/2+1/3*sqrt(3)", 0.5, "1/2-1/6*sqrt(3)"]]),
    # Weak order 1 baseline with the same discrete increments.
    dict(name="EulerMaruyama", calculus=ITO, c=0.5, det_order=1, weak_order=1, structure=EXPLICIT,
         alpha=[1], beta=[1], A0=[[0]], B0=[[0]], A1=[[0]], B1=[[0]]),
)


@functools.cache
def _registry() -> dict:
    return {r["name"]: tableau_from_dict(r) for r in _METHODS}


def registry_names() -> tuple:
    return tuple(_registry())


def registry_get(name: str) -> MethodTableau:
    reg = _registry()
    if name not in reg:
        raise UnknownMethodError(
            f"unknown method {name!r}; registered methods: {', '.join(sorted(reg))}"
        )
    return reg[name]
