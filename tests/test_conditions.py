"""Tests for the reduced condition systems and the full condition table."""

import json
import math

import numpy as np
import pytest

from srkweak import conditions
from srkweak.conditions import (
    REDUCED_TOLERANCE,
    TABLE_TOLERANCE,
    check_all_table,
    check_reduced,
    condition_table,
    evaluate_table_condition,
    render_report,
    report_to_json,
)
from srkweak.forests import elementary_differential_string, parse_forest
from srkweak.randvars import ITO, STRATONOVICH
from srkweak.tableau import EXPLICIT, make_tableau, registry_get, registry_names

S6 = math.sqrt(6.0)

WEAK2 = [n for n in registry_names() if registry_get(n).weak_order == 2]


def _by_forest(report):
    return {rec.forest: rec for rec in report.records}


def test_condition_table_shape():
    rows = condition_table()
    assert len(rows) == 43
    assert sum(1 for r in rows if r.kind == "exotic") == 34
    assert sum(1 for r in rows if r.kind == "decorated") == 9


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


def test_calculus_separation():
    # an Ito method checked against the Stratonovich column must fail; the
    # liana chain row has target 1/2 there but the Ito family gives 0
    report = check_all_table(registry_get("BDK1"), calculus=STRATONOVICH)
    rec = _by_forest(report)["[1[1]]"]
    assert not rec.satisfied
    assert rec.lhs == pytest.approx(0.0, abs=1e-13)
    assert rec.target == pytest.approx(0.5)


def test_noise_label_independence():
    bdk2 = registry_get("BDK2")
    for text in ["[1[2]]·[1]·[2]", "[1[1]]·[2]·[2]", "[1[2[2]]]·[1]"]:
        f = parse_forest(text)
        a = evaluate_table_condition(bdk2, f, noise_labels=(1, 2))
        b = evaluate_table_condition(bdk2, f, noise_labels=(2, 1))
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


def test_report_rendering_and_json():
    report = check_reduced(registry_get("BDK1"))
    text = render_report(report)
    assert "ito.1" in text and "all satisfied" in text
    payload = json.loads(report_to_json(report))
    assert payload["all_satisfied"] is True
    assert len(payload["records"]) == 10
    table_payload = json.loads(report_to_json(check_all_table(registry_get("BDK1"))))
    assert len(table_payload["records"]) == 43


def test_table_row_targets_both_columns_present():
    for rec, row in zip(check_all_table(registry_get("BDK1")).records, condition_table(), strict=True):
        assert not math.isnan(rec.target_ito)
        assert not math.isnan(rec.target_strat)
        assert (rec.target_ito, rec.target_strat) == (float(row.target_ito), float(row.target_strat))
        assert rec.description == elementary_differential_string(row.forest)


def test_evaluate_rejects_higher_order_forest():
    import srkweak.forests as fo

    with pytest.raises(fo.CapacityError):
        evaluate_table_condition(registry_get("BDK1"), parse_forest("[0[0][1][1]]"))


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
        "0x1.ffffffffffffep-1", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.ffffffffffffdp-1", "0x1.fffffffffffffp-1", "0x0.0p+0",
        "0x1.fffffffffffffp-2", "0x1.fffffffffffffp-2", "0x1.ffffffffffffep-2",
        "0x0.0p+0", "0x1.0000000000001p+0", "0x0.0p+0",
        "0x1.0000000000000p-1", "0x1.0000000000001p-1", "0x1.0000000000001p-1",
        "-0x0.0p+0", "-0x1.8000000000000p-54", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "-0x1.2000000000000p-55", "-0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0", "0x1.0000000000001p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.8000000000001p+1", "0x1.fffffffffffffp-1",
        "0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-1",
        "-0x1.0000000000000p-53", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0",
    ],
    "StratoExplicit24": [
        "0x1.ffffffffffffep-1", "0x1.ffffffffffffdp-1", "0x1.fffffffffffffp-2",
        "0x1.ffffffffffffep-1", "0x1.ffffffffffffdp-1", "0x1.fffffffffffffp-2",
        "0x1.ffffffffffffep-2", "0x1.ffffffffffffep-2", "0x1.fffffffffffffp-2",
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
        "-0x0.0p+0", "0x1.549560ac56528p+0", "0x0.0p+0",
        "0x1.1a8f20f78c304p-1", "0x1.4486c1ad01d45p-1", "0x1.3539ef328cc49p-1",
        "-0x0.0p+0", "-0x1.cfd6e6cbd326cp-54", "0x0.0p+0",
        "-0x0.0p+0", "0x1.0d3cd313f5973p-55", "0x0.0p+0",
        "0x0.0p+0", "-0x1.4b7a7efcf2957p-55", "-0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0", "0x1.3539ef328cc48p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.fee01102817bcp+1", "0x1.4486c1ad01d43p+0",
        "0x1.3539ef328cc48p-1", "0x0.0p+0", "0x1.3539ef328cc47p-1",
        "-0x1.26a5c6362cf6ap-53", "-0x0.0p+0", "-0x0.0p+0",
        "-0x0.0p+0",
    ],
}


@pytest.mark.parametrize("key", sorted(PINNED_TABLE_LHS))
def test_table_lhs_are_pinned(key):
    name = key.split("~")[0]
    t = _fresh_c(registry_get(name), 8) if key.endswith("~fresh") else registry_get(name)
    assert [rec.lhs.hex() for rec in check_all_table(t).records] == PINNED_TABLE_LHS[key]
