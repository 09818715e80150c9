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
    Monomials,
    RvFamily,
    draws_from_uniforms,
    enumerate_atoms,
    expectations,
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
    # one atom per outcome of the rv_count(m) variables the sampler draws
    counts = [
        (ITO, 0.25, 1, 8),  # theta_1, eta_1: 4 * 2
        (STRATONOVICH, 0.25, 2, 72),  # eta_0, theta_1..2, eta_1..2: 2 * 3^2 * 2^2
        (ITO, 0.5, 1, 4), (ITO, 0.5, 2, 32), (ITO, 0.5, 3, 128),  # eta_0 when m > 1, theta_1..m
        (STRATONOVICH, 0.5, 1, 3), (STRATONOVICH, 0.5, 2, 18), (STRATONOVICH, 0.5, 3, 54),
    ]
    for calculus, c, m, count in counts:
        table = enumerate_atoms(fam(calculus, c), m)
        assert len(table.atoms) == count, (calculus, c, m)
        assert math.fsum(p for p, _ in table.atoms) == pytest.approx(1.0, abs=1e-15)
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
            _, _, diag, up, low = mixing_coefficients(f, d.theta, d.eta)
            for p in (1, 2):
                t = d.theta[p]
                expected = (-3.0 * t + t**3) if calculus == ITO else t
                assert diag[p - 1] == pytest.approx(expected, abs=1e-14)
            # (1+eta0)(1-eta0) = 0 makes one of the mixed entries Theta[1][2], Theta[2][1] vanish
            assert up[1] * low[0] == 0.0
        # and the same holds over the entire sample space
        Theta = _table_entries(enumerate_atoms(f, 2))
        assert np.all(Theta[:, 1, 2] * Theta[:, 2, 1] == 0.0)


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
    Theta = _assemble_reference(f, m, eta, theta[:, 1:])
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
    f = fam(ITO, 0.25)
    with pytest.raises(ValueError, match="the number of noises must be an integer of at least 1, got 0"):
        sample_draw(f, 0, np.random.default_rng(5))
    with pytest.raises(ValueError, match=f"expected {f.rv_count(2)} uniforms per draw, got 3"):
        draws_from_uniforms(f, 2, np.full((4, 3), 0.5))


def test_half_variant_entries():
    rng = np.random.default_rng(6)
    d = sample_draw(fam(ITO, 0.5), 2, rng)
    row0, col0, _, _, _ = mixing_coefficients(fam(ITO, 0.5), d.theta, d.eta)
    assert np.array_equal(row0, d.theta[1:])
    assert col0 is None  # every Theta[p][0] is 1
    Theta = _table_entries(enumerate_atoms(fam(ITO, 0.5), 2))
    assert np.all(Theta[:, 1:, 0] == 1.0)


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


def _dense(rows, m):
    """Theta, shape (N, m+1, m+1), read from rows (K, N) in the atom table's column layout."""
    return np.stack(
        [np.stack([rows[randvars._column_index(("Theta", p, q), m)] for q in range(m + 1)], axis=-1)
         for p in range(m + 1)],
        axis=-2,
    )


def _table_entries(table):
    """Every Theta[p][q] of an atom table, read from its moment columns."""
    return _dense(table.columns, table.m)


@pytest.mark.parametrize("calculus,c", FAMILIES)
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_dense_theta_matches_entrywise_reference(calculus, c, m):
    # the rows of mixing_coefficients, laid out as the atom table lays them
    # out, give every Theta[p][q] of the entry-by-entry reference
    f = fam(calculus, c)
    u = np.random.default_rng(m).random((500, f.rv_count(m)))
    theta, eta = draws_from_uniforms(f, m, u)
    assert theta.shape == eta.shape == (500, m + 1)
    assert np.all(theta[:, 0] == 1.0)
    row0, col0, diag, up, low = mixing_coefficients(f, theta, eta)
    assert (col0 is None) == f.half_variant and (up is None) == (low is None) == (m == 1)
    rows = [theta.T, row0, np.ones_like(row0) if col0 is None else col0, diag] + ([up, low] if m > 1 else [])
    Theta = _dense(np.concatenate(rows), m)
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
        table = enumerate_atoms(f, m)
        atoms, Theta = table.atoms, _table_entries(table)
        # draws_from_uniforms' column order, the first variable outermost:
        # eta_0 when m > 1, theta_1..theta_m, eta_1..eta_m unless c = 1/2
        eta0s = (1.0, -1.0) if m > 1 else (1.0,)
        etas = [(1.0,) * m] if f.half_variant else list(itertools.product((1.0, -1.0), repeat=m))
        outcomes = itertools.product(eta0s, itertools.product(range(len(support)), repeat=m), etas)
        n_signs = (m > 1) + (0 if f.half_variant else m)
        for k, ((prob, draw), (eta0, idx, eta)) in enumerate(zip(atoms, outcomes, strict=True)):
            assert prob == 0.5**n_signs * math.prod(probs[i] for i in idx)
            theta = np.array((1.0,) + tuple(support[i] for i in idx))
            assert np.array_equal(draw.theta, theta)
            assert np.array_equal(draw.eta, (eta0,) + eta)
            # the atom's moment columns hold the reference Theta of these generators
            assert np.array_equal(Theta[k], _assemble_reference(f, m, np.array((eta0,) + eta), theta[1:]))
            assert not draw.theta.flags.writeable and not draw.eta.flags.writeable


@pytest.mark.parametrize("calculus", [ITO, STRATONOVICH])
@pytest.mark.parametrize("c", [0.5, 0.25])
@pytest.mark.parametrize("m", [1, 2])
def test_atoms_are_the_distinct_draws_of_the_sampler(calculus, c, m):
    # m <= 2: the rarest atom then has probability >= 1.4e-3, so 40 000 draws
    # miss none with overwhelming probability (at m = 3 some have ~7e-5)
    f = fam(calculus, c)
    table = enumerate_atoms(f, m)
    u = np.random.default_rng(12).random((40_000, f.rv_count(m)))
    drawn = set(map(tuple, np.hstack(draws_from_uniforms(f, m, u)).tolist()))
    atoms = set(map(tuple, np.hstack((table.theta, table.eta)).tolist()))
    assert len(atoms) == len(table.probs)
    assert drawn == atoms


@pytest.mark.parametrize("calculus,c", FAMILIES)
def test_atom_table_arrays_are_the_rows_of_its_atoms(calculus, c):
    for m in (1, 2, 3):
        table = enumerate_atoms(fam(calculus, c), m)
        assert table.probs.shape == (len(table.atoms),)
        assert table.theta.shape == table.eta.shape == (len(table.atoms), m + 1)
        # theta_0..theta_m, then row0, col0, diag and, when m > 1, up and low: m rows each
        assert table.columns.shape == (m + 1 + (5 if m > 1 else 3) * m, len(table.atoms))
        for array in (table.probs, table.theta, table.eta, table.columns):
            assert not array.flags.writeable
        for k, (prob, draw) in enumerate(table.atoms):
            assert type(prob) is float and prob == table.probs[k]
            assert draw.family == table.family and draw.m == m
            assert draw.theta.tobytes() == table.theta[k].tobytes()
            assert draw.eta.tobytes() == table.eta[k].tobytes()


@pytest.mark.parametrize("calculus,c", FAMILIES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_atom_columns_and_entry_moments_equal_the_reference(calculus, c, m):
    """Each Theta[p][q] row of the moment columns is the reference entry at every
    atom, bit for bit, and its moment is the probability-weighted reference."""
    f = fam(calculus, c)
    table = enumerate_atoms(f, m)
    reference = _assemble_reference(f, m, table.eta, table.theta[:, 1:])
    for p in range(m + 1):
        for q in range(m + 1):
            column = table.columns[randvars._column_index(("Theta", p, q), m)]
            assert column.tobytes() == reference[:, p, q].tobytes(), (p, q)
            assert moment(f, m, [(("Theta", p, q), 1)]) == float((table.probs * reference[:, p, q]).sum()), (p, q)


def test_moment_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        moment(fam(ITO, 0.5), 1, [(("theta", 1), -1)])


def test_moment_rejects_a_non_integer_exponent():
    with pytest.raises(ValueError, match="non-integer exponent"):
        moment(fam(ITO, 0.5), 1, [(("theta", 1), 1.5)])


@pytest.mark.parametrize(
    "call",
    [
        lambda f: enumerate_atoms(f, 2.0),
        lambda f: moment(f, 2.0, [(("theta", 1), 2)]),
        lambda f: sample_draw(f, 1.5, np.random.default_rng(5)),
        lambda f: Monomials(1.5, [[("theta", 1)]]),
    ],
    ids=["enumerate_atoms", "moment", "sample_draw", "Monomials"],
)
def test_a_non_integer_noise_count_is_the_one_count_error(call):
    with pytest.raises(ValueError, match=r"^the number of noises must be an integer of at least 1, got \d\.\d$"):
        call(fam(ITO, 0.25))


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
    # column j: factor j's value on every atom, read draw by draw, Theta from the reference
    values = []
    for _, draw in atoms:
        Theta = _assemble_reference(f, m, draw.eta, draw.theta[1:])
        values.append([float(draw.theta[fac[1:]] if fac[0] == "theta" else Theta[fac[1:]]) for fac in factors])
    values = np.array(values)
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
    Theta = _assemble_reference(table.family, table.m, table.eta, table.theta[:, 1:])
    for factor, exponent in monomial:
        column = table.theta[:, factor[1]] if factor[0] == "theta" else Theta[:, factor[1], factor[2]]
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

    def recording_expectations(family, monomials):
        calls.append((family, monomials))
        return expectations(family, monomials)

    monkeypatch.setattr(randvars, "expectations", recording_expectations)
    for t in _order_condition_tableaux():
        conditions.check_all_table(t)
        conditions.check_reduced(t)
    monkeypatch.undo()
    assert len({(f.calculus, f.c) for f, _ in calls}) == 9
    # fresh tables, so each set's first call is a miss
    monkeypatch.setattr(randvars, "_ATOM_CACHE", {})
    for family, monomials in calls:
        table = enumerate_atoms(family, monomials.m)
        first = expectations(family, monomials)
        assert table._moments[monomials] is first and not first.flags.writeable
        assert expectations(family, monomials) is first
        for value, factors in zip(first.tolist(), monomials.factors):
            monomial = [(factor, 1) for factor in factors]
            assert moment(family, monomials.m, monomial) == value == _weighted_sum(table, monomial)


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


@pytest.mark.parametrize(
    "bad, match",
    [(("bogus", 1), "unknown factor"), (("Theta", 1), "unknown factor"), (("theta", 1, 2), "unknown factor"),
     (("theta", 3), "beyond m=2"), (("Theta", 1, 3), "beyond m=2"), (("theta", -1), "beyond m=2")],
)
def test_monomial_sets_raise_the_errors_of_moment(bad, match):
    good = [("theta", 1), ("Theta", 1, 2)]
    with pytest.raises(ValueError, match=match) as from_moment:
        moment(fam(ITO, 0.2), 2, [(factor, 1) for factor in good + [bad]])
    with pytest.raises(ValueError, match=match) as from_set:
        Monomials(2, [good, good + [bad]])
    assert str(from_set.value) == str(from_moment.value)
    for check in (lambda: moment(fam(ITO, 0.2), 4, []), lambda: Monomials(4, [good])):
        with pytest.raises(CapacityError, match="m <= 3"):
            check()


def test_monomial_sets_pad_with_theta_zero_and_compare_by_value():
    sets = [Monomials(2, [[("theta", 1), ("theta", 1)], [], [("Theta", 2, 1)]]) for _ in range(2)]
    assert sets[0] == sets[1] and hash(sets[0]) == hash(sets[1]) and sets[0] is not sets[1]
    assert sets[0].index.tolist() == [[1, 1], [0, 0], [3 + 4 * 2, 0]]  # Theta[2][1] is low[1]
    f = fam(STRATONOVICH, 0.3)
    row = expectations(f, sets[0])
    assert expectations(f, sets[1]) is row  # an equal set hits the first one's memo
    assert row.tolist() == [moment(f, 2, [(("theta", 1), 1), (("theta", 1), 1)]), moment(f, 2, []),
                            moment(f, 2, [(("Theta", 2, 1), 1)])]


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


def _unchunked_weighted_sums(table, index):
    w = np.empty((len(index), len(table.probs)))
    w[:] = table.probs
    for j in range(index.shape[1]):
        w *= table.columns[index[:, j]]
    return w.sum(axis=1)


def test_moment_kernel_in_chunks_moves_no_bit_and_stays_small():
    """The 669 exotic forests of order <= 3 at a fresh c, one kernel pass per noise count."""
    from srkweak.forests import contraction_program, enumerate_forests

    program = contraction_program(enumerate_forests(3, exotic_only=True))
    assert max(len(rows) for rows, _ in program.groups) > 4 * randvars._CHUNK_ROWS
    f = fam(ITO, 0.1357)
    tables = [enumerate_atoms(f, monomials.m) for _, monomials in program.groups]
    assert max(len(table.probs) for table in tables) == 1024
    for table, (rows, monomials) in zip(tables, program.groups):
        tracemalloc.start()
        try:
            got = randvars._weighted_sums(table, monomials.index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two chunk-sized (rows, atoms) arrays and the result; all rows at once
        # would take 2 * len(rows) * len(atoms) * 8 bytes (6.4 MiB for the 411 rows at m = 3)
        assert peak <= 2 * randvars._CHUNK_ROWS * len(table.probs) * 8 + 16 * len(rows) + 64 * 1024
        assert got.tobytes() == _unchunked_weighted_sums(table, monomials.index).tobytes()


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
