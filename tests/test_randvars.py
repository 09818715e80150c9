"""Tests for the discrete random-variable families."""

import gc
import itertools
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from srkweak import conditions, randvars
from srkweak.randvars import (
    ITO,
    STRATONOVICH,
    CapacityError,
    FamilyError,
    RvFamily,
    dense_theta,
    draws_from_uniforms,
    enumerate_atoms,
    mixing_coefficients,
    moment,
    sample_draw,
)
from srkweak.tableau import make_tableau, registry_get, registry_names

S3 = math.sqrt(3.0)


def fam(calculus, c):
    return RvFamily.make(calculus, c)


def test_family_validation():
    with pytest.raises(FamilyError):
        RvFamily.make(ITO, 0.7)
    with pytest.raises(FamilyError):
        RvFamily.make(ITO, 0.0)
    with pytest.raises(FamilyError):
        RvFamily(ITO, 0.25, True)  # half variant requires c = 1/2
    with pytest.raises(FamilyError):
        RvFamily(ITO, 0.5, False)
    with pytest.raises(FamilyError):
        RvFamily.make("milstein", 0.5)
    assert fam(ITO, 0.5).half_variant is True
    assert fam(STRATONOVICH, 0.25).half_variant is False


def test_theta_supports():
    values, probs = fam(ITO, 0.5).theta_support
    assert sorted(abs(v) for v in values) == pytest.approx(
        sorted([math.sqrt(2 - S3)] * 2 + [math.sqrt(2 + S3)] * 2)
    )
    assert sum(probs) == pytest.approx(1.0)
    values, probs = fam(STRATONOVICH, 0.5).theta_support
    assert set(values) == {S3, -S3, 0.0}
    assert sum(probs) == pytest.approx(1.0)


def test_rv_counts():
    f = fam(ITO, 0.5)
    assert f.rv_count(1) == 1
    assert f.rv_count(2) == 3
    assert f.rv_count(10) == 11
    g = fam(ITO, 1.0 / 3.0)
    assert g.rv_count(1) == 2
    assert g.rv_count(5) == 11
    s = fam(STRATONOVICH, 0.25)
    assert s.rv_count(1) == 2
    assert s.rv_count(4) == 9


def test_atom_counts_and_total_probability():
    table = enumerate_atoms(fam(ITO, 0.25), 1)
    assert len(table.atoms) == 16  # 2^2 * 4
    assert sum(p for p, _ in table.atoms) == pytest.approx(1.0, abs=1e-15)
    table = enumerate_atoms(fam(STRATONOVICH, 0.25), 2)
    assert len(table.atoms) == 72  # 2^3 * 3^2
    assert sum(p for p, _ in table.atoms) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(CapacityError):
        enumerate_atoms(fam(ITO, 0.25), 4)


def test_basic_moments():
    for calculus in (ITO, STRATONOVICH):
        for c in (0.25, 1.0 / 3.0, 0.5):
            f = fam(calculus, c)
            assert moment(f, 1, [(("theta", 1), 2)]) == pytest.approx(1.0, abs=1e-13)
            assert moment(f, 1, [(("Theta", 0, 1), 2)]) == pytest.approx(
                1.0 / (2.0 * c), abs=1e-12
            )
            assert moment(f, 1, [(("Theta", 1, 0), 1)]) == pytest.approx(1.0, abs=1e-13)
    assert moment(fam(ITO, 0.5), 1, [(("theta", 1), 4)]) == pytest.approx(3.0, abs=1e-12)
    assert moment(fam(STRATONOVICH, 0.5), 1, [(("theta", 1), 4)]) == pytest.approx(3.0, abs=1e-12)
    # E[theta * Theta_pp] = -3 E[theta^2] + E[theta^4] = 0 for the Ito family
    assert moment(fam(ITO, 0.5), 1, [(("theta", 1), 1), (("Theta", 1, 1), 1)]) == pytest.approx(
        0.0, abs=1e-13
    )
    with pytest.raises(ValueError):
        moment(fam(ITO, 0.5), 1, [(("theta", 2), 2)])


def test_draw_invariants():
    rng = np.random.default_rng(3)
    for calculus in (ITO, STRATONOVICH):
        f = fam(calculus, 0.25)
        for _ in range(200):
            d = sample_draw(f, 2, rng)
            assert d.theta[0] == 1.0
            assert d.Theta[0, 0] == 1.0
            for p in (1, 2):
                t = d.theta[p]
                expected = (-3.0 * t + t**3) if calculus == ITO else t
                assert d.Theta[p, p] == pytest.approx(expected, abs=1e-14)
            # (1+eta0)(1-eta0) = 0 makes one of the mixed entries vanish
            assert d.Theta[1, 2] * d.Theta[2, 1] == 0.0
        # and the same holds over the entire sample space
        for _, atom in enumerate_atoms(f, 2).atoms:
            assert atom.Theta[1, 2] * atom.Theta[2, 1] == 0.0


def test_ito_theta_support_values():
    rng = np.random.default_rng(4)
    hi, lo = math.sqrt(2 + S3), math.sqrt(2 - S3)
    seen = {round(abs(float(sample_draw(fam(ITO, 0.5), 1, rng).theta[1])), 12) for _ in range(500)}
    assert seen == {round(hi, 12), round(lo, 12)}


def _mixed_factors(m):
    out = []
    for p in range(1, m + 1):
        out.append(("theta", p))
    for p in range(0, m + 1):
        for q in range(0, m + 1):
            if (p, q) != (0, 0):
                out.append(("Theta", p, q))
    return out


def _swap12(factor):
    swap = {0: 0, 1: 2, 2: 1}
    if factor[0] == "theta":
        return ("theta", swap[factor[1]])
    return ("Theta", swap[factor[1]], swap[factor[2]])


def test_permutation_invariance_exhaustive_degree_four():
    for calculus in (ITO, STRATONOVICH):
        f = fam(calculus, 0.25)
        factors = _mixed_factors(2)
        for degree in (1, 2, 3, 4):
            for combo in itertools.combinations_with_replacement(factors, degree):
                mono = [(fac, 1) for fac in combo]
                swapped = [(_swap12(fac), 1) for fac in combo]
                a = moment(f, 2, mono)
                b = moment(f, 2, swapped)
                assert a == pytest.approx(b, abs=1e-12), (calculus, combo)


def _odd_count(combo):
    n = 0
    for fac in combo:
        if fac[0] == "theta" and fac[1] != 0:
            n += 1
        if fac[0] == "Theta" and fac[2] != 0:
            n += 1
    return n


def test_odd_moments_vanish_degree_five():
    for calculus in (ITO, STRATONOVICH):
        f = fam(calculus, 0.25)
        factors = _mixed_factors(2)
        for degree in (1, 3, 5):
            for combo in itertools.combinations_with_replacement(factors, degree):
                if _odd_count(combo) % 2 == 1:
                    value = moment(f, 2, [(fac, 1) for fac in combo])
                    assert value == pytest.approx(0.0, abs=1e-11), (calculus, combo)


def test_empirical_moments_match_exact():
    f = fam(ITO, 0.25)
    m = 2
    n = 1_000_000
    rng = np.random.default_rng(99)
    u = rng.random((n, f.rv_count(m)))
    theta, eta = draws_from_uniforms(f, m, u)
    Theta = dense_theta(f, theta, eta)
    checks = [
        (theta[:, 1] ** 2, [(("theta", 1), 2)]),
        (theta[:, 1] ** 4, [(("theta", 1), 4)]),
        (theta[:, 1] * Theta[:, 1, 1], [(("theta", 1), 1), (("Theta", 1, 1), 1)]),
        (Theta[:, 0, 1] ** 2, [(("Theta", 0, 1), 2)]),
        (Theta[:, 1, 2] * Theta[:, 2, 1], [(("Theta", 1, 2), 1), (("Theta", 2, 1), 1)]),
    ]
    for samples, mono in checks:
        exact = moment(f, m, mono)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - exact) <= 5.0 * se + 1e-12, mono


def test_sample_stream_use_is_rv_count():
    for calculus, c, m in [(ITO, 0.5, 1), (ITO, 0.5, 3), (ITO, 0.25, 2), (STRATONOVICH, 0.25, 3)]:
        f = fam(calculus, c)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        sample_draw(f, m, rng1)
        rng2.random(f.rv_count(m))
        # both streams must now be at the same position
        assert rng1.random() == rng2.random()


def test_half_variant_entries():
    rng = np.random.default_rng(6)
    d = sample_draw(fam(ITO, 0.5), 2, rng)
    assert np.allclose(d.Theta[0, 1:], d.theta[1:])
    assert np.allclose(d.Theta[1:, 0], 1.0)


FAMILIES = [(cal, c) for cal in (ITO, STRATONOVICH) for c in (0.5, 0.25, 1.0 / 3.0)]


def _assemble_reference(family, m, eta, theta_raw):
    """Theta entry by entry from the closed forms of the module docstring."""
    batch = eta.shape[:-1]
    Theta = np.zeros(batch + (m + 1, m + 1))
    Theta[..., 0, 0] = 1.0
    if family.half_variant:
        Theta[..., 0, 1:] = theta_raw
        Theta[..., 1:, 0] = 1.0
    else:
        c = family.c
        a = math.sqrt(1.0 / (2.0 * c) - 1.0)
        b = math.sqrt(2.0 * c / (1.0 - 2.0 * c))
        Theta[..., 0, 1:] = theta_raw + a * eta[..., 1:]
        Theta[..., 1:, 0] = 1.0 - b * eta[..., 1:] * theta_raw
    diag = -3.0 * theta_raw + theta_raw**3 if family.calculus == ITO else theta_raw
    for p in range(1, m + 1):
        Theta[..., p, p] = diag[..., p - 1]
        for q in range(1, m + 1):
            if q > p:
                Theta[..., p, q] = theta_raw[..., q - 1] * (1.0 + eta[..., 0])
            elif q < p:
                Theta[..., p, q] = theta_raw[..., q - 1] * (1.0 - eta[..., 0])
    return Theta


@pytest.mark.parametrize("calculus,c", FAMILIES)
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_dense_theta_matches_entrywise_reference(calculus, c, m):
    f = fam(calculus, c)
    u = np.random.default_rng(m).random((500, f.rv_count(m)))
    theta, eta = draws_from_uniforms(f, m, u)
    assert theta.shape == eta.shape == (500, m + 1)
    assert np.all(theta[:, 0] == 1.0)
    Theta = dense_theta(f, theta, eta)
    assert np.array_equal(Theta, _assemble_reference(f, m, eta, theta[:, 1:]))


@pytest.mark.parametrize("calculus", [ITO, STRATONOVICH])
def test_uniform_thresholds_match_searchsorted(calculus):
    f = fam(calculus, 0.25)
    support, probs = f.theta_support
    edges = np.cumsum(probs)[:-1]
    m = 2
    u = np.random.default_rng(7).random((1000, f.rv_count(m)))
    # uniforms exactly on a threshold take the upper value
    u[: len(edges), 1] = edges
    u[0, 0] = u[0, 3] = 0.5
    theta, eta = draws_from_uniforms(f, m, u)
    expected = np.array(support)[np.searchsorted(edges, u[:, 1 : 1 + m], side="right")]
    assert np.array_equal(theta[:, 1:], expected)
    assert np.array_equal(eta[:, 0], np.where(u[:, 0] < 0.5, 1.0, -1.0))
    assert np.array_equal(eta[:, 1:], np.where(u[:, 1 + m :] < 0.5, 1.0, -1.0))
    assert eta[0, 0] == eta[0, 1] == -1.0


def test_diagonal_tables_are_exact():
    for calculus in (ITO, STRATONOVICH):
        f = fam(calculus, 0.5)
        support, _ = f.theta_support
        theta = np.array([[1.0, s] for s in support])
        diag = mixing_coefficients(f, theta, np.ones_like(theta))[2][0]
        for s, value in zip(support, diag):
            assert value == (-3.0 * s + s**3 if calculus == ITO else s)


@pytest.mark.parametrize("calculus,c", FAMILIES)
def test_atoms_are_dense_theta_of_their_generators(calculus, c):
    f = fam(calculus, c)
    support, probs = f.theta_support
    for m in (1, 2, 3):
        atoms = enumerate_atoms(f, m).atoms
        outcomes = itertools.product(
            itertools.product((1.0, -1.0), repeat=m + 1),
            itertools.product(range(len(support)), repeat=m),
        )
        for (prob, draw), (etas, idx) in zip(atoms, outcomes, strict=True):
            assert prob == 0.5 ** (m + 1) * math.prod(probs[i] for i in idx)
            theta = np.array((1.0,) + tuple(support[i] for i in idx))
            assert np.array_equal(draw.theta, theta)
            assert np.array_equal(draw.Theta, dense_theta(f, theta, np.array(etas)))
            assert not draw.theta.flags.writeable and not draw.Theta.flags.writeable


@pytest.mark.parametrize("calculus,c", FAMILIES)
def test_atom_table_arrays_are_the_rows_of_its_atoms(calculus, c):
    for m in (1, 2, 3):
        table = enumerate_atoms(fam(calculus, c), m)
        assert table.probs.shape == (len(table.atoms),)
        assert table.theta.shape == (len(table.atoms), m + 1)
        assert table.Theta.shape == (len(table.atoms), m + 1, m + 1)
        for array in (table.probs, table.theta, table.Theta):
            assert not array.flags.writeable
        for k, (prob, draw) in enumerate(table.atoms):
            assert type(prob) is float and prob == table.probs[k]
            assert draw.theta.tobytes() == table.theta[k].tobytes()
            assert draw.Theta.tobytes() == table.Theta[k].tobytes()


def _all_factors(m):
    return [("theta", p) for p in range(m + 1)] + [
        ("Theta", p, q) for p in range(m + 1) for q in range(m + 1)
    ]


@pytest.mark.parametrize("calculus,c", FAMILIES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_moment_matches_per_atom_fsum(calculus, c, m):
    """Every monomial of degree <= 4 against a per-atom math.fsum reference."""
    f = fam(calculus, c)
    factors = _all_factors(m)
    atoms = enumerate_atoms(f, m).atoms
    probs = np.array([prob for prob, _ in atoms])
    # column j: factor j's value on every atom, read draw by draw
    values = np.array(
        [
            [float(draw.theta[fac[1:]] if fac[0] == "theta" else draw.Theta[fac[1:]]) for fac in factors]
            for _, draw in atoms
        ]
    )
    for degree in range(5):
        for combo in itertools.combinations_with_replacement(range(len(factors)), degree):
            terms = probs.copy()
            for j in combo:
                terms *= values[:, j]
            expected = math.fsum(terms)
            scale = math.fsum(np.abs(terms))
            monomial = [(factors[j], k) for j, k in sorted(Counter(combo).items())]
            assert abs(moment(f, m, monomial) - expected) <= 1e-14 * (1.0 + scale), monomial


@pytest.mark.parametrize("bad", [("bogus", 1), ("theta", 1, 2), ("Theta", 1)])
def test_moment_rejects_a_malformed_factor_after_vanishing_ones(bad):
    # E[Theta_12 Theta_21] vanishes on every atom, so a late factor is never reached
    # by a loop that stops at the first zero product
    vanishing = [(("Theta", 1, 2), 1), (("Theta", 2, 1), 1)]
    with pytest.raises(ValueError, match="unknown factor"):
        moment(fam(ITO, 0.5), 2, vanishing + [(bad, 1)])


def test_atom_tables_of_fresh_c_stay_small():
    """The cached table of a new c holds its arrays, not one draw object per atom."""
    tracemalloc.start()
    try:
        for c in (0.0123, 0.2345, 0.3456):
            for calculus in (ITO, STRATONOVICH):
                for m in (1, 2):
                    enumerate_atoms(fam(calculus, c), m)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # six (calculus, c) pairs, under 24 KiB each for m = 1 and m = 2 together
    assert held < 6 * 24 * 1024



# ---------------------------------------------------------------------------
# moments memoized on their atom table


def _weighted_sum(table, monomial):
    value = table.probs
    for factor, exponent in monomial:
        column = table.theta[:, factor[1]] if factor[0] == "theta" else table.Theta[:, factor[1], factor[2]]
        value = value * column**exponent
    return float(value.sum())


def _order_condition_tableaux():
    """One tableau per registered family, plus BDK2 and StratoExplicit24 at two fresh c."""
    by_family = {}
    for name in registry_names():
        t = registry_get(name)
        by_family.setdefault((t.calculus, t.c), t)
    tableaux = list(by_family.values())
    for base in (registry_get("BDK2"), registry_get("StratoExplicit24")):
        for c in (0.1234567, 0.3456789):
            blocks = [getattr(base, k) for k in ("alpha", "beta", "A0", "B0", "A1", "B1", "Bhat1")]
            tableaux.append(
                make_tableau(base.name, base.calculus, *blocks, c=c, det_order=base.det_order,
                             weak_order=base.weak_order, structure=base.structure)
            )
    return tableaux


def test_memoized_moments_equal_the_weighted_sum_on_miss_and_hit(monkeypatch):
    calls = []

    def recording_moment(family, m, monomial):
        calls.append((family, m, monomial))
        return moment(family, m, monomial)

    monkeypatch.setattr(randvars, "moment", recording_moment)
    for t in _order_condition_tableaux():
        conditions.check_all_table(t)
        conditions.check_reduced(t)
    monkeypatch.undo()
    assert len({(f.calculus, f.c) for f, _, _ in calls}) == 9
    # fresh tables, so each monomial's first call is a miss
    monkeypatch.setattr(randvars, "_ATOM_CACHE", {})
    for family, m, monomial in calls:
        table = enumerate_atoms(family, m)
        key = tuple(monomial)
        first = moment(family, m, monomial)
        assert table._moments[key] == first
        assert moment(family, m, monomial) == first == _weighted_sum(table, monomial)


@pytest.mark.parametrize(
    "bad, match",
    [((("bogus", 1), 1), "unknown factor"), ((("Theta", 1), 1), "unknown factor"),
     ((("theta", 3), 1), "beyond m=2"), ((("Theta", 1, 3), 1), "beyond m=2")],
)
def test_memo_still_validates_a_new_monomial_with_a_cached_prefix(bad, match):
    f = fam(ITO, 0.2)
    prefix = [(("theta", 1), 2), (("Theta", 1, 2), 1)]
    moment(f, 2, prefix)
    with pytest.raises(ValueError, match=match):
        moment(f, 2, prefix + [bad])
    with pytest.raises(ValueError, match=match):
        moment(f, 2, [bad])


def test_memo_is_per_noise_count():
    f = fam(STRATONOVICH, 0.2)
    assert moment(f, 2, [(("theta", 2), 2)]) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError, match="beyond m=1"):
        moment(f, 1, [(("theta", 2), 2)])


def test_memo_accepts_factors_passed_as_lists():
    f = fam(ITO, 0.5)
    as_lists = moment(f, 2, [[["theta", 1], 2], [["Theta", 0, 2], 2]])
    assert moment(f, 2, ((("theta", 1), 2), (("Theta", 0, 2), 2))) == as_lists
    assert moment(f, 2, iter([(["theta", 1], 2), (["Theta", 0, 2], 2)])) == as_lists


def test_memo_lives_and_dies_with_its_table():
    f = fam(ITO, 0.2468)
    table = enumerate_atoms(f, 1)
    moment(f, 1, [(("theta", 1), 4)])
    assert len(table._moments) == 1
    ref = weakref.ref(table)
    (key,) = [k for k, v in randvars._ATOM_CACHE.items() if v is table]
    del table, randvars._ATOM_CACHE[key]
    gc.collect()
    # the memo is an attribute of the table, so it is freed with it
    assert ref() is None
    assert moment(f, 1, [(("theta", 1), 4)]) == pytest.approx(3.0, abs=1e-12)
