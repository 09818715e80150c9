"""Tests for tableau data model, registry, validation, and file round trips."""

import dataclasses
import json
import math

import numpy as np
import pytest

from srkweak.randvars import ITO, STRATONOVICH
from srkweak.tableau import (
    DIAGONALLY_IMPLICIT,
    EXPLICIT,
    IMEX,
    MethodTableau,
    TableauError,
    TableauFileError,
    UnknownMethodError,
    load_method,
    make_tableau,
    registry_get,
    registry_names,
    save_method,
    stage_blocks,
    stage_evaluation_order,
    tableau_from_dict,
    tableau_to_dict,
    tableaux_equal,
    validate,
)

S3 = math.sqrt(3.0)
S6 = math.sqrt(6.0)


def test_registry_names_complete():
    assert set(registry_names()) == {
        "BDK1",
        "BDK2",
        "BDK3",
        "ItoImplicit12",
        "StratoExplicit24",
        "StratoImplicit12",
        "StratoDetOrder3",
        "ItoDIRKEX",
        "ItoEXDIRK",
        "StratoDIRKEX",
        "StratoEXDIRK",
        "StratoDIRK",
        "EulerMaruyama",
    }


def test_registry_unknown_name():
    with pytest.raises(UnknownMethodError) as err:
        registry_get("BDK9")
    assert "BDK1" in str(err.value)


def test_bdk1_fields():
    t = registry_get("BDK1")
    assert (t.s1, t.s2) == (2, 2)
    assert t.calculus == ITO and t.c == 0.5
    assert np.array_equal(t.alpha, [0.5, 0.5])
    assert np.array_equal(t.beta, [0.0, 1.0])
    assert np.array_equal(t.A0, [[0, 0], [1, 0]])
    assert np.array_equal(t.B0, [[0, 0], [1, 0]])
    assert np.array_equal(t.A1, [[0, 0], [0.5, 0]])
    assert np.array_equal(t.B1, [[0, 0], [0.5, 0]])
    assert t.Bhat1 is None


def test_bdk2_irrational_column():
    t = registry_get("BDK2")
    assert (t.s1, t.s2) == (3, 2)
    col = t.B0[:, 0]
    assert col == pytest.approx([0.0, 0.6 - S6 / 10.0, 0.6 + 0.4 * S6], abs=0)
    assert t.c == 0.5
    assert np.array_equal(t.alpha, [1 / 6, 2 / 3, 1 / 6])


def test_strato_implicit12_blocks():
    # The Gauss-Legendre-type block sits in Bhat1 (the diagonal-noise block);
    # B1 is the constant quarter matrix.  The full 26-condition system only
    # holds with this assignment.
    t = registry_get("StratoImplicit12")
    assert t.c == 0.25
    assert np.array_equal(t.B1, [[0.25, 0.25], [0.25, 0.25]])
    expected = np.array([[0.25, (3 + 2 * S3) / 12.0], [(3 - 2 * S3) / 12.0, 0.25]])
    assert np.array_equal(t.Bhat1, expected)


def test_euler_maruyama_entry():
    t = registry_get("EulerMaruyama")
    assert (t.s1, t.s2) == (1, 1)
    assert t.weak_order == 1
    assert np.all(t.A0 == 0) and np.all(t.B1 == 0)
    assert t.c == 0.5


def test_arrays_are_read_only():
    t = registry_get("BDK1")
    with pytest.raises(ValueError):
        t.A0[0, 0] = 1.0


def test_registered_methods_validate_clean():
    for name in registry_names():
        report = validate(registry_get(name))
        assert report.ok, (name, report.findings)
        assert report.findings == [], (name, report.findings)


def test_validate_flags_weak_order_violation():
    t = registry_get("BDK1")
    bad = make_tableau(
        "BDK1-broken",
        ITO,
        alpha=[0.5, 1.0 / 3.0],
        beta=t.beta,
        A0=t.A0,
        B0=t.B0,
        A1=t.A1,
        B1=t.B1,
        c=t.c,
        det_order=2,
        weak_order=2,
        structure=EXPLICIT,
    )
    report = validate(bad)
    assert report.ok  # warnings only
    assert any("ito.1" in msg for msg in report.warnings())


def test_validate_structure_and_shape_errors():
    t = registry_get("BDK1")
    missing_bhat = make_tableau(
        "strato-broken", STRATONOVICH, t.alpha, t.beta, t.A0, t.B0, t.A1, t.B1,
        c=0.25, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    report = validate(missing_bhat)
    assert not report.ok and any("Bhat1" in m for m in report.errors())

    bad_c = make_tableau(
        "c-broken", ITO, t.alpha, t.beta, t.A0, t.B0, t.A1, t.B1,
        c=0.7, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    assert not validate(bad_c).ok

    cyclic = make_tableau(
        "cyclic", ITO, [1.0], [1.0], A0=[[0.5]], B0=[[0.0]], A1=[[0.0]], B1=[[0.0]],
        c=0.25, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    report = validate(cyclic)
    assert not report.ok and any("explicit" in m for m in report.errors())

    short_alpha = make_tableau(
        "shape", ITO, [1.0], t.beta, t.A0, t.B0, t.A1, t.B1,
        c=0.5, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    assert any("alpha" in m for m in validate(short_alpha).errors())


def test_stage_order_interleaves_stochastic_first():
    order = stage_evaluation_order(registry_get("BDK1"))
    # the second drift stage needs the first stochastic stage
    assert order.index(("stoch", 0)) < order.index(("drift", 1))
    for name in registry_names():
        t = registry_get(name)
        if t.structure == EXPLICIT:
            assert stage_evaluation_order(t) is not None, name
    assert stage_evaluation_order(registry_get("ItoImplicit12")) is None
    assert stage_evaluation_order(registry_get("StratoDIRK")) is None
    # IMEX methods are implicit in one family only, but still cyclic as a whole
    assert stage_evaluation_order(registry_get("ItoDIRKEX")) is None


# recorded from the stage-order builder before it was rewritten as one set
# builder per coefficient block; "d" is a drift stage, "s" a stochastic one
PINNED_STAGE_ORDERS = {
    "BDK1": "d0 s0 d1 s1",
    "BDK2": "d0 s0 d1 d2 s1",
    "BDK3": "d0 s0 d1 d2 s1",
    "ItoImplicit12": None,
    "StratoExplicit24": "d0 s0 s1 d1 s2 s3",
    "StratoImplicit12": None,
    "StratoDetOrder3": "s0 d0 d1 s1 s2 s3 d2",
    "ItoDIRKEX": None,
    "ItoEXDIRK": None,
    "StratoDIRKEX": None,
    "StratoEXDIRK": None,
    "StratoDIRK": None,
    "EulerMaruyama": "d0 s0",
}


def test_stage_evaluation_order_pinned():
    assert set(PINNED_STAGE_ORDERS) == set(registry_names())
    for name, want in PINNED_STAGE_ORDERS.items():
        order = stage_evaluation_order(registry_get(name))
        got = None if order is None else " ".join(kind[0] + str(i) for kind, i in order)
        assert got == want, name


PINNED_STAGE_BLOCKS = {  # blocks in order, "(c)" marks a cyclic one
    "BDK1": "d0 | s0 | d1 | s1",
    "BDK2": "d0 | s0 | d1 | d2 | s1",
    "BDK3": "d0 | s0 | d1 | d2 | s1",
    "ItoImplicit12": "s0 (c) | d0 (c) | s1 (c)",
    "StratoExplicit24": "d0 | s0 | s1 | d1 | s2 | s3",
    "StratoImplicit12": "d0 s0 s1 (c)",
    "StratoDetOrder3": "s0 | d0 | d1 | s1 | s2 | s3 | d2",
    "ItoDIRKEX": "s0 | d0 (c) | s1",
    "ItoEXDIRK": "d0 | s0 (c) | d1 | s1 (c)",
    "StratoDIRKEX": "s0 | s1 | d0 (c) | s2 | s3",
    "StratoEXDIRK": "d0 | s0 (c) | d1 | s1 (c) | s2 (c)",
    "StratoDIRK": "s0 (c) | d0 (c) | s1 (c) | s2 (c)",
    "EulerMaruyama": "d0 | s0",
}


def test_stage_blocks_pinned():
    assert set(PINNED_STAGE_BLOCKS) == set(registry_names())
    for name, want in PINNED_STAGE_BLOCKS.items():
        blocks = stage_blocks(registry_get(name))
        got = " | ".join(
            " ".join(kind[0] + str(i) for kind, i in nodes) + (" (c)" if cyclic else "")
            for nodes, cyclic in blocks
        )
        assert got == want, name


def test_tableaux_equal_detects_each_single_field_change():
    t = registry_get("StratoExplicit24")
    assert tableaux_equal(t, dataclasses.replace(t))
    changes = {
        "name": "other", "calculus": ITO, "c": 0.25, "det_order": 3, "weak_order": 1,
        "structure": IMEX,
        **{k: getattr(t, k) + 0.5 for k in ("alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1")},
    }
    assert set(changes) == {f.name for f in dataclasses.fields(MethodTableau)}
    for key, value in changes.items():
        other = dataclasses.replace(t, **{key: value})
        assert not tableaux_equal(t, other), key
        assert not tableaux_equal(other, t), key


def test_tableaux_equal_bhat1_on_one_side_and_shape_mismatch():
    t = registry_get("StratoExplicit24")
    no_bhat = dataclasses.replace(t, Bhat1=None)
    assert not tableaux_equal(t, no_bhat) and not tableaux_equal(no_bhat, t)
    assert tableaux_equal(no_bhat, dataclasses.replace(t, Bhat1=None))
    # same entries, other shape: a column of zeros appended to B1
    wide = dataclasses.replace(t, B1=np.hstack([t.B1, np.zeros((t.s2, 1))]))
    assert not tableaux_equal(t, wide) and not tableaux_equal(wide, t)
    assert not tableaux_equal(t, dataclasses.replace(t, alpha=t.alpha[None, :]))


def test_save_load_round_trip_bit_exact(tmp_path):
    for name in registry_names():
        t = registry_get(name)
        path = tmp_path / f"{name}.json"
        save_method(t, path)
        loaded = load_method(path)
        assert tableaux_equal(t, loaded), name


def test_load_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TableauFileError):
        load_method(path)

    data = tableau_to_dict(registry_get("BDK1"))
    data["alpha"] = [0.5]  # wrong length
    path.write_text(json.dumps(data))
    with pytest.raises(TableauError) as err:
        load_method(path)
    assert "alpha" in str(err.value)

    data = tableau_to_dict(registry_get("BDK1"))
    data["c"] = 0.7
    path.write_text(json.dumps(data))
    with pytest.raises(TableauError) as err:
        load_method(path)
    assert "c" in str(err.value)

    data = tableau_to_dict(registry_get("BDK1"))
    del data["beta"]
    path.write_text(json.dumps(data))
    with pytest.raises(TableauFileError):
        load_method(path)


def test_sqrt_string_entries(tmp_path):
    data = tableau_to_dict(registry_get("BDK2"))
    data["B0"][1][0] = "3/5-1/10*sqrt(6)"
    data["B0"][2][0] = "3/5+2/5*sqrt(6)"
    path = tmp_path / "bdk2.json"
    path.write_text(json.dumps(data))
    loaded = load_method(path)
    assert loaded.B0[1, 0] == pytest.approx(0.6 - S6 / 10.0, abs=1e-15)
    assert loaded.B0[2, 0] == pytest.approx(0.6 + 0.4 * S6, abs=1e-15)
    assert tableau_from_dict({**tableau_to_dict(registry_get("BDK1")), "c": "1/2"}).c == 0.5


def test_sqrt_string_rejects_garbage():
    with pytest.raises(TableauFileError):
        tableau_from_dict(
            {**tableau_to_dict(registry_get("BDK1")), "c": "sqrt(two)"}
        )


def test_structure_tags():
    assert registry_get("BDK1").structure == EXPLICIT
    assert registry_get("ItoImplicit12").structure == DIAGONALLY_IMPLICIT
    assert registry_get("ItoDIRKEX").structure == IMEX
