"""Tests for the reduced condition systems and the full condition table."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from srkweak import conditions, forests, randvars, tableau
from srkweak.conditions import (
    REDUCED_TOLERANCE,
    TABLE_TOLERANCE,
    check_all_table,
    check_reduced,
    condition_table,
)
from srkweak.forests import elementary_differential_string, parse_forest
from srkweak.randvars import ITO
from srkweak.tableau import EXPLICIT, make_tableau, registry_get, registry_names

S6 = math.sqrt(6.0)

WEAK2 = [n for n in registry_names() if registry_get(n).weak_order == 2]


def _by_forest(report):
    return {rec.forest: rec for rec in report.records}


def test_condition_table_shape():
    rows = condition_table()
    assert len(rows) == 43
    assert sum(1 for r in rows if r.forest.is_exotic) == 34
    assert sum(1 for r in rows if not r.forest.is_exotic) == 9


@pytest.mark.parametrize("name", WEAK2)
def test_weak2_methods_pass_reduced(name):
    report = check_reduced(registry_get(name))
    assert report.all_satisfied, [
        (r.id, r.lhs, r.target) for r in report.records if not r.satisfied
    ]
    for rec in report.records:
        assert rec.residual <= REDUCED_TOLERANCE


@pytest.mark.parametrize("name", WEAK2)
def test_weak2_methods_pass_table(name):
    report = check_all_table(registry_get(name))
    assert len(report.records) == 43
    assert report.all_satisfied, [
        (r.id, r.lhs, r.target) for r in report.records if not r.satisfied
    ]


def test_reduced_condition_counts():
    # the extra condition enters exactly when c = 1/2
    assert len(check_reduced(registry_get("BDK1")).records) == 10
    assert len(check_reduced(registry_get("BDK2")).records) == 10
    assert len(check_reduced(registry_get("BDK3")).records) == 9
    assert len(check_reduced(registry_get("ItoImplicit12")).records) == 9
    assert len(check_reduced(registry_get("StratoExplicit24")).records) == 27
    assert len(check_reduced(registry_get("StratoDetOrder3")).records) == 27
    assert len(check_reduced(registry_get("StratoImplicit12")).records) == 26
    assert len(check_reduced(registry_get("StratoEXDIRK")).records) == 27
    assert len(check_reduced(registry_get("StratoDIRK")).records) == 26


def test_reduced_examples_from_contractions():
    # alpha.(B0.1)^2 = c for the three explicit Ito methods
    rec = {r.id: r for r in check_reduced(registry_get("BDK1")).records}["ito.5"]
    assert rec.lhs == pytest.approx(0.5, abs=1e-15)
    rec = {r.id: r for r in check_reduced(registry_get("BDK2")).records}["ito.5"]
    expected = 2.0 / 3.0 * (0.6 - S6 / 10) ** 2 + 1.0 / 6.0 * (0.6 + 0.4 * S6) ** 2
    assert rec.lhs == pytest.approx(expected, abs=1e-15)
    assert rec.lhs == pytest.approx(0.5, abs=1e-14)
    rec = {r.id: r for r in check_reduced(registry_get("BDK3")).records}["ito.5"]
    assert rec.lhs == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert rec.target == pytest.approx(1.0 / 3.0)


def test_euler_maruyama_is_weak_order_one_only():
    report = check_all_table(registry_get("EulerMaruyama"))
    by_forest = _by_forest(report)
    # the three order-one rows hold
    for text in ["[0]", "[1]·[1]", "[1[1]]"]:
        assert by_forest[text].satisfied, text
    # an order-two row is violated: the black chain needs alpha.A0.1 = 1/2
    rec = by_forest["[0[0]]"]
    assert not rec.satisfied
    assert rec.lhs == pytest.approx(0.0, abs=1e-15)
    assert rec.target == pytest.approx(0.5)
    assert not report.all_satisfied


class Surd:
    """a + b*sqrt(k) with rational a, b (k = 0 for a rational): a record's entry, exactly."""

    def __init__(self, a, b=0, k=0):
        self.a, self.b, self.k = Fraction(a), Fraction(b), k  # Fraction reads a float exactly

    def _join(self, other):
        o = other if isinstance(other, Surd) else Surd(other)
        assert not (self.k and o.k and self.k != o.k)  # one surd per method
        return o, self.k or o.k

    def __add__(self, other):
        o, k = self._join(other)
        return Surd(self.a + o.a, self.b + o.b, k)

    __radd__ = __add__

    def __sub__(self, other):
        o, k = self._join(other)
        return Surd(self.a - o.a, self.b - o.b, k)

    def __mul__(self, other):
        o, k = self._join(other)
        return Surd(self.a * o.a + self.b * o.b * k, self.a * o.b + self.b * o.a, k)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = Surd(1)
        for _ in range(n):
            result = result * self
        return result

    def is_zero(self):
        return self.a == 0 and self.b == 0


def _surd(entry):
    """A record's entry read by the method-file grammar into a :class:`Surd`, not through float."""
    if not isinstance(entry, str):
        return Surd(entry)
    m = tableau._SQRT_TERM.match(entry)
    if m is None:
        return Surd(Fraction(entry))
    b = Fraction(m.group("b") or 1) * (-1 if m.group("sign") == "-" else 1)
    return Surd(Fraction(m.group("a") or 0), b, int(m.group("k")))


def _exact_tableau(record):
    """The registered tableau with its blocks as object arrays of :class:`Surd`."""
    t = registry_get(record["name"])
    exact = np.vectorize(_surd, otypes=[object])
    blocks = {
        key: None if record.get(key) is None else exact(np.array(record[key], dtype=object))
        for key in ("alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1")
    }
    return SimpleNamespace(**blocks, s1=t.s1, s2=t.s2, c=t.c)


@pytest.mark.parametrize("record", tableau._METHODS, ids=lambda r: r["name"])
def test_reduced_conditions_hold_exactly_on_the_records(record):
    t = registry_get(record["name"])
    system = conditions._ito_reduced if t.calculus == ITO else conditions._strato_reduced
    failed = [
        cid
        for cid, _, lhs, target in system(_exact_tableau(record))
        if not (lhs - Fraction(target).limit_denominator(1000)).is_zero()
    ]
    if t.weak_order == 2:
        assert failed == []
    else:
        assert failed == [f"ito.{i}" for i in range(3, 9)]


def test_calculus_separation():
    # an Ito method fails the Stratonovich column: the liana chain row has
    # target 1/2 there but the Ito family gives 0
    rec = _by_forest(check_all_table(registry_get("BDK1")))["[1[1]]"]
    row = next(row for row in condition_table() if row.forest.text == "[1[1]]")
    assert rec.lhs == pytest.approx(0.0, abs=1e-13)
    assert rec.target == row.target_ito == 0
    assert row.target_strat == Fraction(1, 2)
    assert abs(rec.lhs - float(row.target_strat)) > TABLE_TOLERANCE


def test_noise_label_independence():
    bdk2 = registry_get("BDK2")
    for text in ["[1[2]]·[1]·[2]", "[1[1]]·[2]·[2]", "[1[2[2]]]·[1]"]:
        f = parse_forest(text)
        a = forests.rk_coefficient_map(bdk2, f, noise_labels=(1, 2))
        b = forests.rk_coefficient_map(bdk2, f, noise_labels=(2, 1))
        assert a == pytest.approx(b, abs=1e-13)


def test_perturbed_method_fails_table():
    t = registry_get("BDK1")
    bad = make_tableau(
        "perturbed", ITO, [0.5, 0.5], [0.1, 0.9], t.A0, t.B0, t.A1, t.B1,
        c=0.5, det_order=2, weak_order=2, structure=EXPLICIT,
    )
    assert not check_all_table(bad).all_satisfied
    assert not check_reduced(bad).all_satisfied


def test_superfluous_flag_marks_zero_targets():
    report = check_all_table(registry_get("BDK1"))
    for rec in report.records:
        assert rec.superfluous == (rec.target == 0.0)


def test_table_records_take_the_target_of_the_methods_calculus():
    for t in (registry_get("BDK1"), registry_get("StratoDIRK")):
        report = check_all_table(t)
        assert report.calculus == t.calculus
        for rec, row in zip(report.records, condition_table(), strict=True):
            assert rec.target == float(row.target_ito if t.calculus == ITO else row.target_strat)
            assert rec.description == elementary_differential_string(row.forest)


# ---------------------------------------------------------------------------
# table left-hand sides pinned bit for bit (float.hex) across changes to the
# moment layer and the forest contraction


def _fresh_c(base, seed):
    """``base`` with every block entry scaled by 1 + 0.1 U(-1, 1) and c drawn from (0.05, 0.45)."""
    rng = np.random.default_rng(seed)

    def jitter(a):
        return None if a is None else a * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, a.shape))

    blocks = [jitter(getattr(base, k)) for k in ("alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1")]
    return make_tableau(
        f"{base.name}~fresh", base.calculus, *blocks, c=rng.uniform(0.05, 0.45),
        det_order=base.det_order, weak_order=base.weak_order, structure=base.structure,
    )


PINNED_TABLE_LHS = {  # check_all_table lhs row by row; BDK2~fresh is _fresh_c(BDK2, 8), c = 0.2929...
    "BDK2": [
        "0x1.ffffffffffffdp-1", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.ffffffffffffcp-1", "0x1.fffffffffffffp-1", "0x0.0p+0",
        "0x1.ffffffffffffep-2", "0x1.fffffffffffffp-2", "0x1.ffffffffffffep-2",
        "0x0.0p+0", "0x1.0000000000001p+0", "-0x1.0000000000000p-54",
        "0x1.0000000000000p-1", "0x1.0000000000001p-1", "0x1.0000000000001p-1",
        "0x0.0p+0", "-0x1.0000000000000p-55", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x1.2000000000000p-55", "-0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0", "0x1.0000000000001p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.8000000000001p+1", "0x1.0000000000000p+0",
        "0x1.0000000000001p-1", "0x0.0p+0", "0x1.0000000000001p-1",
        "-0x1.0000000000000p-53", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0",
    ],
    "StratoExplicit24": [
        "0x1.0000000000000p+0", "0x1.ffffffffffffdp-1", "0x1.fffffffffffffp-2",
        "0x1.0000000000000p+0", "0x1.ffffffffffffdp-1", "0x1.fffffffffffffp-2",
        "0x1.0000000000000p-1", "0x1.ffffffffffffep-2", "0x1.fffffffffffffp-2",
        "0x1.fffffffffffffp-3", "0x1.ffffffffffff9p-1", "0x1.ffffffffffffbp-2",
        "0x1.ffffffffffffdp-2", "0x1.ffffffffffffap-2", "0x1.ffffffffffffbp-2",
        "0x1.ffffffffffffcp-3", "0x1.ffffffffffffcp-3", "0x0.0p+0",
        "0x1.ffffffffffffcp-3", "0x1.fffffffffffffp-3", "0x0.0p+0",
        "0x1.ffffffffffffdp-3", "0x1.ffffffffffffdp-3", "0x1.ffffffffffffdp-4",
        "0x1.fffffffffffffp-3", "0x1.ffffffffffffdp-3", "0x1.ffffffffffffdp-3",
        "0x1.ffffffffffffdp-4", "0x1.ffffffffffffbp-2", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.7fffffffffffbp+1", "0x1.7fffffffffffdp+0",
        "0x1.ffffffffffffbp-1", "0x1.ffffffffffffbp-2", "0x1.7fffffffffffep-1",
        "0x1.7fffffffffffep-1", "0x1.7fffffffffffep-2", "0x1.ffffffffffffdp-3",
        "0x1.ffffffffffffdp-4",
    ],
    "BDK2~fresh": [
        "0x1.0d9bdf7bba503p+0", "0x1.27474a1e6f11ep+0", "0x0.0p+0",
        "0x1.1bf0f29268790p+0", "0x1.36f9b2d1aada8p+0", "0x0.0p+0",
        "0x1.f0e07524ac2f8p-2", "0x1.164f8507d98cdp-1", "0x1.b6068bdd628f4p-1",
        "-0x0.0p+0", "0x1.549560ac56528p+0", "-0x1.4486c1ad01d44p-56",
        "0x1.1a8f20f78c304p-1", "0x1.4486c1ad01d45p-1", "0x1.3539ef328cc49p-1",
        "-0x0.0p+0", "-0x1.82886aff2ff5ap-55", "0x0.0p+0",
        "-0x0.0p+0", "0x1.0d3cd313f5973p-55", "0x0.0p+0",
        "0x0.0p+0", "-0x1.2fdaf467de5e5p-54", "-0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0", "0x1.3539ef328cc48p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.fee01102817bcp+1", "0x1.4486c1ad01d43p+0",
        "0x1.3539ef328cc48p-1", "0x0.0p+0", "0x1.3539ef328cc47p-1",
        "-0x1.26a5c6362cf6ap-53", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0",
    ],
}


PINNED_REDUCED_LHS = {  # check_reduced lhs row by row; StratoDIRK~fresh is _fresh_c(StratoDIRK, 8)
    "BDK2": [
        "0x1.fffffffffffffp-1", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        "0x1.fffffffffffffp-2", "0x1.ffffffffffffep-2", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.0000000000000p-2", "0x0.0p+0",
        "0x0.0p+0",
    ],
    "StratoExplicit24": [
        "0x1.0000000000000p+0", "0x1.fffffffffffffp-1", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        "0x1.0000000000000p-2", "0x1.fffffffffffffp-2", "0x1.0000000000000p-2",
        "0x1.0000000000000p-2", "0x1.fffffffffffffp-2", "0x1.fffffffffffffp-3",
        "0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.0000000000000p-3",
        "0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.0000000000000p-2",
        "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-3",
        "0x1.5555555555555p-4", "0x1.5555555555555p-5", "0x1.0000000000000p-2",
        "0x1.5555555555555p-2", "0x1.5555555555555p-3", "0x0.0p+0",
    ],
    "BDK2~fresh": [
        "0x1.0d9bdf7bba504p+0", "0x1.12f04ebc20c11p+0", "0x1.f0e07524ac2fap-2",
        "0x1.0323c04af9b41p-1", "0x1.009fa75bf9d60p-1", "0x1.0718712d753bbp-1",
        "0x1.195b787d921f4p-1", "0x1.1fecfe8ff9c8ap-2", "0x0.0p+0",
    ],
    "StratoDIRK~fresh": [
        "0x1.ee482e9ab014fp-1", "0x1.02bef00a48286p+0", "0x1.01a286ffcaa0bp-1",
        "0x1.096c9ec93df75p-1", "0x1.e383d6e95d04ap-2", "0x1.d8fb89d8dba4fp-3",
        "0x1.05a5aeb357449p-2", "0x1.f6725fb0eadcdp-2", "0x1.ecfe92d65485ep-3",
        "0x1.f7127f1459cffp-3", "0x1.0cf3302bb54d3p-1", "0x1.17af4dd66860cp-2",
        "0x1.22ed91f8b03e3p-3", "0x1.1e1f9b27ba5e7p-3", "0x1.0f5ce4adf5663p-3",
        "0x1.14bf89779ded4p-3", "0x1.1b06c1985f5a7p-3", "0x1.085f8671c99eap-2",
        "0x1.0ccffda66d7e3p-2", "0x1.2313a9cc91956p-2", "0x1.009625da07610p-3",
        "0x1.5a2434df8f2d2p-4", "0x1.400e3ad522a31p-5", "0x1.0580fb10aa06ap-2",
        "0x1.5bcbaf10127f2p-2", "0x1.4ee6680c26250p-3",
    ],
}


def _pinned_tableau(key):
    name = key.split("~")[0]
    return _fresh_c(registry_get(name), 8) if key.endswith("~fresh") else registry_get(name)


@pytest.mark.parametrize("key", sorted(PINNED_TABLE_LHS))
def test_table_lhs_are_pinned(key):
    assert [rec.lhs.hex() for rec in check_all_table(_pinned_tableau(key)).records] == PINNED_TABLE_LHS[key]


@pytest.mark.parametrize("key", sorted(PINNED_REDUCED_LHS))
def test_reduced_lhs_are_pinned(key):
    assert [rec.lhs.hex() for rec in check_reduced(_pinned_tableau(key)).records] == PINNED_REDUCED_LHS[key]


# ---------------------------------------------------------------------------
# the table as one compiled contraction


def _registered_perturbed_and_fresh_c():
    rng = np.random.default_rng(20261019)

    def jitter(a):
        return None if a is None else a * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, a.shape))

    for name in registry_names():
        base = registry_get(name)
        yield base
        for c in (base.c, rng.uniform(0.05, 0.45)):
            yield make_tableau(
                f"{name}~{c:.4f}", base.calculus,
                *(jitter(getattr(base, k)) for k in ("alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1")),
                c=c, det_order=base.det_order, weak_order=base.weak_order, structure=base.structure,
            )


@pytest.mark.parametrize("t", list(_registered_perturbed_and_fresh_c()), ids=lambda t: t.name)
def test_table_lhs_equal_the_per_forest_map_bit_for_bit(t):
    table = [rec.lhs.hex() for rec in check_all_table(t).records]
    assert table == [forests.rk_coefficient_map(t, row.forest).hex() for row in condition_table()]


def test_a_second_table_on_the_same_family_computes_no_weights(monkeypatch):
    kernel_rows = []
    weighted_sums = randvars._weighted_sums

    def counting(table, index):
        kernel_rows.append(len(index))
        return weighted_sums(table, index)

    monkeypatch.setattr(randvars, "_weighted_sums", counting)
    monkeypatch.setattr(randvars, "_ATOM_CACHE", {})  # so the first table misses
    base = registry_get("BDK2")
    blocks = [getattr(base, k) for k in ("alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1")]
    first, second = (
        make_tableau(f"BDK2~{k}", ITO, *(None if b is None else b * scale for b in blocks), c=0.123456789,
                     det_order=2, weak_order=2, structure=base.structure)
        for k, scale in enumerate((1.0, 1.01))
    )
    check_all_table(first)
    # one pass per noise count over all 43 rows
    assert sorted(kernel_rows) == sorted(len(rows) for rows, _ in conditions._table_program().groups)
    assert sum(kernel_rows) == 43
    kernel_rows.clear()
    check_all_table(second)
    check_all_table(first)
    assert kernel_rows == []
