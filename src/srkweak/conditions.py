"""Weak-order condition checks for method tableaux.

Two independent routes are provided:

* :func:`check_all_table` evaluates the full order-two condition table (34
  exotic rows plus 9 single-class decorated rows) by the generic forest rule:
  the table's forests are compiled once into one contraction program
  (:func:`srkweak.forests.contraction_program`, of which
  :func:`srkweak.forests.rk_coefficient_map` is the one-forest case), and each
  row's left-hand side is an exact atom-table expectation times the stage
  sum.  The expectations of all rows of one noise count come from one pass
  over the atom table, memoized on it; the stage sums are contracted
  bottom-up with one matrix-vector product per edge of each distinct subtree,
  shared by every row that contains it.  Each row's target column is
  regenerated from the exact-flow coefficients of the matching generator
  (Grossman-Larson exponential, with the decorated rows reduced to exotic
  refinements); the targets and the row description are computed once, in
  :func:`condition_table`.  Nothing here is a hand-written contraction formula.

* :func:`check_reduced` evaluates the small algebraic condition systems that
  the structured ansatz admits: 9 conditions for Ito (plus one more when
  c = 1/2) and 26 for Stratonovich (plus one more when c = 1/2), as direct
  numpy contractions of the coefficient blocks.

Each route takes its target column from the tableau's own calculus.  Rows
whose target is zero are sums of expectations that a good choice of random
variables can satisfy automatically; they are flagged ``superfluous`` for
reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import forests
from .forests import DecoratedForest, enumerate_forests, exact_flow_coefficients, finer_decorations
from .randvars import ITO, STRATONOVICH
from .tableau import MethodTableau

__all__ = [
    "ConditionRecord",
    "ConditionReport",
    "condition_table",
    "check_all_table",
    "check_reduced",
    "TABLE_TOLERANCE",
    "REDUCED_TOLERANCE",
]

TABLE_TOLERANCE = 1e-12
REDUCED_TOLERANCE = 1e-13


@dataclass
class ConditionRecord:
    id: str
    description: str
    lhs: float
    target: float
    satisfied: bool
    forest: str = ""

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.target)

    @property
    def superfluous(self) -> bool:
        return self.target == 0.0


@dataclass
class ConditionReport:
    method: str
    calculus: str
    kind: str  # "table" | "reduced"
    tolerance: float
    records: list = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(rec.satisfied for rec in self.records)


# ---------------------------------------------------------------------------
# full condition table


@dataclass(frozen=True)
class TableRow:
    """One condition row; ``description`` and the float targets are fixed per row."""

    id: str
    forest: DecoratedForest
    target_ito: Fraction
    target_strat: Fraction
    kind: str  # "exotic" | "decorated"
    description: str
    float_ito: float
    float_strat: float

    @classmethod
    def make(cls, id: str, forest: DecoratedForest, kind: str) -> "TableRow":
        target_ito = _flow_target(forest, ITO)
        target_strat = _flow_target(forest, STRATONOVICH)
        return cls(
            id=id,
            forest=forest,
            target_ito=target_ito,
            target_strat=target_strat,
            kind=kind,
            description=forests.elementary_differential_string(forest),
            float_ito=float(target_ito),
            float_strat=float(target_strat),
        )


def _flow_target(f: DecoratedForest, calculus: str) -> Fraction:
    """Exact-flow target of a forest: e(f) when exotic, otherwise the sum of
    exact-flow coefficients over its exotic decoration refinements."""
    e = exact_flow_coefficients(calculus, 2)
    if f.is_exotic:
        return e(f)
    total = Fraction(0)
    for refined, mult in finer_decorations(f, exotic_only=True):
        total += mult * e(refined)
    return total


@lru_cache(maxsize=None)
def condition_table() -> tuple:
    """All weak-order-two condition rows with both calculus target columns."""
    exotic = enumerate_forests(2, exotic_only=True)
    decorated = [f for f in enumerate_forests(2) if not f.is_exotic]
    rows = [TableRow.make(f"E{i:02d}", f, "exotic") for i, f in enumerate(exotic, start=1)]
    rows += [TableRow.make(f"D{i:02d}", f, "decorated") for i, f in enumerate(decorated, start=1)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _table_program() -> forests.ContractionProgram:
    """The condition table's forests compiled into one contraction program."""
    return forests.contraction_program(tuple(row.forest for row in condition_table()))


def check_all_table(t: MethodTableau, tolerance: float = TABLE_TOLERANCE) -> ConditionReport:
    """Evaluate all 43 order-two condition rows against the target column of
    the method's calculus."""
    report = ConditionReport(method=t.name, calculus=t.calculus, kind="table", tolerance=tolerance)
    for row, lhs in zip(condition_table(), _table_program().evaluate(t)):
        target = row.float_ito if t.calculus == ITO else row.float_strat
        rec = ConditionRecord(
            id=row.id,
            description=row.description,
            lhs=lhs,
            target=target,
            satisfied=abs(lhs - target) <= tolerance,
            forest=row.forest.text,
        )
        report.records.append(rec)
    return report


# ---------------------------------------------------------------------------
# reduced condition systems


def _ito_reduced(t: MethodTableau):
    a, b = t.alpha, t.beta
    A0, B0, A1, B1 = t.A0, t.B0, t.A1, t.B1
    e1, e2 = np.ones(t.s1), np.ones(t.s2)
    yield "ito.1", "alpha.1 = 1", a @ e1, 1.0
    yield "ito.2", "beta.1 = 1", b @ e2, 1.0
    yield "ito.3", "alpha.A0.1 = 1/2", a @ A0 @ e1, 0.5
    yield "ito.4", "alpha.B0.1 = 1/2", a @ B0 @ e2, 0.5
    yield "ito.5", "alpha.(B0.1)^2 = c", a @ (B0 @ e2) ** 2, t.c
    yield "ito.6", "beta.A1.1 = 1/2", b @ A1 @ e1, 0.5
    yield "ito.7", "beta.B1.1 = 1/2", b @ B1 @ e2, 0.5
    yield "ito.8", "beta.(B1.1)^2 = 1/4", b @ (B1 @ e2) ** 2, 0.25
    yield "ito.9", "beta.B1.B1.1 = 0", b @ B1 @ (B1 @ e2), 0.0
    if t.c == 0.5:
        yield "ito.10", "beta.A1.B0.1 = 0", b @ A1 @ (B0 @ e2), 0.0


def _strato_reduced(t: MethodTableau):
    a, b = t.alpha, t.beta
    A0, B0, A1, B1, Bh = t.A0, t.B0, t.A1, t.B1, t.Bhat1
    e1, e2 = np.ones(t.s1), np.ones(t.s2)
    B1e = B1 @ e2
    Bhe = Bh @ e2
    A1e = A1 @ e1
    yield "strato.1", "alpha.1 = 1", a @ e1, 1.0
    yield "strato.2", "beta.1 = 1", b @ e2, 1.0
    yield "strato.3", "beta.Bhat1.1 = 1/2", b @ Bhe, 0.5
    yield "strato.4", "alpha.A0.1 = 1/2", a @ A0 @ e1, 0.5
    yield "strato.5", "alpha.B0.1 = 1/2", a @ B0 @ e2, 0.5
    yield "strato.6", "alpha.(B0.1)^2 = c", a @ (B0 @ e2) ** 2, t.c
    yield "strato.7", "alpha.B0.Bhat1.1 = 1/4", a @ B0 @ Bhe, 0.25
    yield "strato.8", "beta.A1.1 = 1/2", b @ A1e, 0.5
    yield "strato.9", "beta.(Bhat1.1 * A1.1) = 1/4", b @ (Bhe * A1e), 0.25
    yield "strato.10", "beta.Bhat1.A1.1 = 1/4", b @ Bh @ A1e, 0.25
    yield "strato.11", "beta.B1.1 = 1/2", b @ B1e, 0.5
    yield "strato.12", "beta.(B1.1)^2 = 1/4", b @ B1e**2, 0.25
    yield "strato.13", "beta.Bhat1.B1.Bhat1.1 = 1/8", b @ Bh @ B1 @ Bhe, 0.125
    yield "strato.14", "beta.(Bhat1.1 * B1.Bhat1.1) = 1/8", b @ (Bhe * (B1 @ Bhe)), 0.125
    yield "strato.15", "beta.(Bhat1.1 * (B1.1)^2) = 1/8", b @ (Bhe * B1e**2), 0.125
    yield "strato.16", "beta.(B1.1 * Bhat1.B1.1) = 1/8", b @ (B1e * (Bh @ B1e)), 0.125
    yield "strato.17", "beta.Bhat1.(B1.1)^2 = 1/8", b @ Bh @ B1e**2, 0.125
    yield "strato.18", "beta.(B1.1 * Bhat1.1) = 1/4", b @ (B1e * Bhe), 0.25
    yield "strato.19", "beta.Bhat1.B1.1 = 1/4", b @ Bh @ B1e, 0.25
    yield "strato.20", "beta.B1.Bhat1.1 = 1/4", b @ B1 @ Bhe, 0.25
    yield "strato.21", "beta.(Bhat1.1 * Bhat1.Bhat1.1) = 1/8", b @ (Bhe * (Bh @ Bhe)), 0.125
    yield "strato.22", "beta.Bhat1.(Bhat1.1)^2 = 1/12", b @ Bh @ Bhe**2, 1.0 / 12.0
    yield "strato.23", "beta.Bhat1.Bhat1.Bhat1.1 = 1/24", b @ Bh @ (Bh @ Bhe), 1.0 / 24.0
    yield "strato.24", "beta.(Bhat1.1)^3 = 1/4", b @ Bhe**3, 0.25
    yield "strato.25", "beta.(Bhat1.1)^2 = 1/3", b @ Bhe**2, 1.0 / 3.0
    yield "strato.26", "beta.Bhat1.Bhat1.1 = 1/6", b @ Bh @ Bhe, 1.0 / 6.0
    if t.c == 0.5:
        yield "strato.27", "beta.A1.B0.1 = 0", b @ A1 @ (B0 @ e2), 0.0


def check_reduced(t: MethodTableau, tolerance: float = REDUCED_TOLERANCE) -> ConditionReport:
    """Evaluate the reduced weak-order-two condition system of the method's calculus."""
    report = ConditionReport(method=t.name, calculus=t.calculus, kind="reduced", tolerance=tolerance)
    gen = _ito_reduced(t) if t.calculus == ITO else _strato_reduced(t)
    for cid, desc, lhs, target in gen:
        lhs = float(lhs)
        rec = ConditionRecord(
            id=cid,
            description=desc,
            lhs=lhs,
            target=float(target),
            satisfied=abs(lhs - float(target)) <= tolerance,
        )
        report.records.append(rec)
    return report
