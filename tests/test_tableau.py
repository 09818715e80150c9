"""Tests for tableau data model, registry, validation, and file round trips."""

import dataclasses
import hashlib
import json
import math
import re

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


def test_registered_floats_are_pinned():
    # sha256 over every registered method, in registry order: its name, each
    # block's little-endian float64 bytes and shape ("-" for no Bhat1), and its
    # scalar fields; a change to a record or to the entry parser moves it
    digest = hashlib.sha256()
    for name in registry_names():
        t = registry_get(name)
        digest.update(name.encode())
        for block in (t.alpha, t.beta, t.A0, t.B0, t.A1, t.B1, t.Bhat1):
            if block is None:
                digest.update(b"-")
            else:
                digest.update(block.astype("<f8").tobytes() + repr(block.shape).encode())
        digest.update(repr((t.calculus, t.c, t.det_order, t.weak_order, t.structure)).encode())
    assert digest.hexdigest() == "182f3f420e57ec270e6c6a4baf8714ba1220fd5fb1038cc90b3d261231be2b7f"


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
        assert validate(registry_get(name)) == [], name


def test_validate_structure_and_shape_errors():
    t = registry_get("BDK1")
    missing_bhat = make_tableau(
        "strato-broken", STRATONOVICH, t.alpha, t.beta, t.A0, t.B0, t.A1, t.B1,
        c=0.25, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    assert any("Bhat1" in m for m in validate(missing_bhat))

    bad_c = make_tableau(
        "c-broken", ITO, t.alpha, t.beta, t.A0, t.B0, t.A1, t.B1,
        c=0.7, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    assert validate(bad_c) == ["c must lie in (0, 1/2], got 0.7"]

    cyclic = make_tableau(
        "cyclic", ITO, [1.0], [1.0], A0=[[0.5]], B0=[[0.0]], A1=[[0.0]], B1=[[0.0]],
        c=0.25, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    assert any("explicit" in m for m in validate(cyclic))

    short_alpha = make_tableau(
        "shape", ITO, [1.0], t.beta, t.A0, t.B0, t.A1, t.B1,
        c=0.5, det_order=1, weak_order=1, structure=EXPLICIT,
    )
    assert any("alpha" in m for m in validate(short_alpha))

    ito_with_bhat = dataclasses.replace(t, Bhat1=t.B1)
    assert validate(ito_with_bhat) == ["Bhat1 is only meaningful for Stratonovich tableaux"]
    assert validate(dataclasses.replace(t, structure="bogus")) == ["unknown structure 'bogus'"]


@pytest.mark.parametrize("block", ["alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1"])
def test_validate_reports_a_misshapen_block(block):
    t = registry_get("StratoDIRK")  # carries every block
    value = getattr(t, block)
    # the stage counts come from the rows of A0 and A1, so only this block is wrong
    short = dataclasses.replace(t, **{block: value[:-1] if value.ndim == 1 else value[:, :-1]})
    [message] = validate(short)
    assert message.startswith(f"{block} has ")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("block", ["alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1", "c"])
def test_non_finite_entries_are_rejected(block, value):
    data = tableau_to_dict(registry_get("StratoDIRK"))  # carries every block
    if block == "c":
        data["c"] = value
    elif block in ("alpha", "beta"):
        data[block][-1] = value
    else:
        data[block][-1][-1] = value
    with pytest.raises(TableauError, match=f"{block} has non-finite entries"):
        tableau_from_dict(data)


def test_non_finite_json_numbers_in_a_method_file_are_rejected(tmp_path):
    # Python's json reads NaN, Infinity and numbers beyond the float range
    text = json.dumps(tableau_to_dict(registry_get("BDK1")))
    path = tmp_path / "bad.json"
    for literal in ("NaN", "Infinity", "1e400"):
        path.write_text(text.replace('"alpha": [0.5,', f'"alpha": [{literal},'))
        with pytest.raises(TableauError, match="alpha has non-finite entries"):
            load_method(path)


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

    path.write_text(json.dumps([tableau_to_dict(registry_get("BDK1"))]))
    with pytest.raises(TableauFileError, match="must contain a JSON object"):
        load_method(path)

    data = tableau_to_dict(registry_get("BDK1"))
    data["calculus"] = "levy"
    with pytest.raises(TableauFileError, match="calculus must be one of"):
        tableau_from_dict(data)

    strato = tableau_to_dict(registry_get("StratoDIRK"))  # carries every block
    with pytest.raises(TableauFileError, match="^missing keys: name, B1$"):
        tableau_from_dict({k: v for k, v in strato.items() if k not in ("name", "B1")})
    for change, message in [
        ({"c": [0.5]}, r"^tableau entry must be number or string, got \[0.5\]$"),
        ({"alpha": [[1]]}, "^alpha is not a numeric vector: tableau entry must be number or string"),
        ({"beta": None}, "^beta is not a numeric vector: 'NoneType' object is not iterable$"),
        ({"A0": [[0.5], [0.5, 0]]}, "^A0 is not a rectangular numeric matrix: "),
        ({"A0": None}, "^A0 is not a rectangular numeric matrix: 'NoneType' object is not iterable$"),
        ({"A0": []}, r"^A0 must be a matrix \(list of equal-length rows\)$"),
    ]:
        with pytest.raises(TableauFileError, match=message):
            tableau_from_dict({**strato, **change})
    # an entry that divides by zero or whose parts overflow a float, as c and
    # inside a block
    big = "1" + "0" * 400
    for entry, message in [
        ("1/0", "divides by zero"),
        ("1/0+sqrt(2)", "divides by zero"),
        (f"sqrt({big})", "is too large for a float"),
        (f"{big}+sqrt(2)", "is too large for a float"),
        (f"{big}*sqrt(2)", "is too large for a float"),
    ]:
        with pytest.raises(TableauFileError, match=f"^tableau entry '{re.escape(entry)}' {message}$"):
            tableau_from_dict({**strato, "c": entry})
        with pytest.raises(TableauFileError, match=f"^A0 is not a rectangular numeric matrix: .*{message}$"):
            tableau_from_dict({**strato, "A0": [[entry]]})
    # the scalar fields: det_order and weak_order are JSON integers, name a string
    bdk1 = tableau_to_dict(registry_get("BDK1"))
    for change, message in [
        ({"det_order": None}, "^det_order must be an integer, got None$"),
        ({"det_order": 2.7}, "^det_order must be an integer, got 2.7$"),
        ({"det_order": 2.0}, "^det_order must be an integer, got 2.0$"),
        ({"det_order": "2"}, "^det_order must be an integer, got '2'$"),
        ({"det_order": True}, "^det_order must be an integer, got True$"),
        ({"weak_order": [2]}, r"^weak_order must be an integer, got \[2\]$"),
        ({"name": None}, "^name must be a string, got None$"),
        ({"name": 7}, "^name must be a string, got 7$"),
    ]:
        with pytest.raises(TableauFileError, match=message):
            tableau_from_dict({**bdk1, **change})
    # only Bhat1 may be null: it then reads as absent
    with pytest.raises(TableauError, match="^invalid tableau: Stratonovich tableau requires the Bhat1 block$"):
        tableau_from_dict({**strato, "Bhat1": None})


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


@pytest.mark.parametrize(
    "entry,expected",
    [
        ("2*sqrt(3)", 2.0 * S3),
        ("1/2*sqrt(3)", 0.5 * S3),
        ("-2*sqrt(3)", -2.0 * S3),
        ("sqrt(6)", S6),
        ("1+sqrt(6)", 1.0 + S6),
        ("3/5-1/10*sqrt(6)", 0.6 - S6 / 10.0),
        ("3/5+2/5*sqrt(6)", 0.6 + 0.4 * S6),
        (True, None),
        (False, None),
        ("1e400", None),
    ],
    ids=repr,
)
def test_tableau_entry_forms(entry, expected):
    data = tableau_to_dict(registry_get("BDK2"))
    data["B0"][1][0] = entry
    if expected is None:
        with pytest.raises(TableauFileError):
            tableau_from_dict(data)
    else:
        assert tableau_from_dict(data).B0[1, 0] == pytest.approx(expected, abs=1e-15)


def test_sqrt_string_rejects_garbage():
    with pytest.raises(TableauFileError):
        tableau_from_dict(
            {**tableau_to_dict(registry_get("BDK1")), "c": "sqrt(two)"}
        )


def test_structure_tags():
    assert registry_get("BDK1").structure == EXPLICIT
    assert registry_get("ItoImplicit12").structure == DIAGONALLY_IMPLICIT
    assert registry_get("ItoDIRKEX").structure == IMEX
