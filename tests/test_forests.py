"""Tests for the decorated/exotic forest combinatorics."""

import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srkweak import forests as fo
from srkweak.forests import (
    CapacityError,
    DecoratedForest,
    ForestError,
    ForestSum,
    bck_coproduct,
    concat,
    convolution_exp,
    deshuffle,
    elementary_differential_string,
    enumerate_forests,
    exact_flow_coefficients,
    finer_decorations,
    generator_map,
    generator_sum,
    gl_exponential,
    parse_forest,
    symmetry,
)
from srkweak.conditions import _flow_target, condition_table
from srkweak.randvars import ITO, STRATONOVICH, RvFamily, moment
from srkweak.tableau import make_tableau, registry_get, registry_names

pf = parse_forest


# ---------------------------------------------------------------------------
# canonical forms


def _relabelled_copy(f, rng):
    """Random node relabelling plus random decoration-class relabelling."""
    nodes, edges, dec = f.graph()
    perm = list(nodes)
    rng.shuffle(perm)
    node_map = dict(zip(nodes, perm))
    labels = sorted({d for d in dec.values() if d > 0})
    new_labels = rng.sample(range(1, 50), len(labels))
    label_map = {0: 0, **dict(zip(labels, new_labels))}
    return (
        [node_map[v] for v in nodes],
        [(node_map[c], node_map[p]) for c, p in edges],
        {node_map[v]: label_map[dec[v]] for v in nodes},
    )


def test_canonical_key_stable_under_relabelling():
    rng = random.Random(20260810)
    pool = enumerate_forests(2)
    for _ in range(500):
        f = rng.choice(pool)
        assert DecoratedForest.from_graph(*_relabelled_copy(f, rng)) == f


def test_equivalent_forests_with_inequivalent_decorations():
    # chain(a,b) + single(a) + single(b): swapping which single carries which
    # class gives an equivalent forest through a non-equivalent decoration
    base = DecoratedForest.from_graph([0, 1, 2, 3], [(1, 0)], {0: 1, 1: 2, 2: 1, 3: 2})
    swapped = DecoratedForest.from_graph([0, 1, 2, 3], [(1, 0)], {0: 1, 1: 2, 2: 2, 3: 1})
    renamed = DecoratedForest.from_graph([0, 1, 2, 3], [(1, 0)], {0: 7, 1: 3, 2: 7, 3: 3})
    assert base == swapped == renamed
    # but refining all four nodes into one class gives a different forest
    coarse = DecoratedForest.from_graph([0, 1, 2, 3], [(1, 0)], {0: 1, 1: 1, 2: 1, 3: 1})
    assert coarse != base


def test_structural_errors():
    with pytest.raises(ForestError):  # odd decoration class
        DecoratedForest.from_graph([0, 1], [], {0: 1, 1: 0})
    with pytest.raises(ForestError):  # cycle
        DecoratedForest.from_graph([0, 1], [(0, 1), (1, 0)], {0: 0, 1: 0})
    with pytest.raises(ForestError):  # two parents for one child
        DecoratedForest.from_graph([0, 1, 2], [(0, 1), (0, 2)], {0: 0, 1: 0, 2: 0})


@pytest.mark.parametrize(
    "decoration",
    [
        {0: 1.5, 1: 1.2}, {0: 1.0, 1: 1.0}, {0: True, 1: True},
        {0: np.True_, 1: np.True_}, {0: "1", 1: "1"}, {0: -1, 1: -1},
    ],
    ids=["float", "integral_float", "bool", "numpy_bool", "str", "negative"],
)
def test_from_graph_rejects_a_decoration_that_is_not_a_nonnegative_integer(decoration):
    with pytest.raises(ForestError) as err:
        DecoratedForest.from_graph([0, 1], [], decoration)
    assert str(err.value) == f"decoration {decoration[0]!r} of node 0 is not a nonnegative integer"


def test_from_graph_accepts_numpy_integers():
    dec = {0: np.int64(1), 1: np.uint8(1), 2: np.int32(0)}
    assert DecoratedForest.from_graph([0, 1, 2], [(2, 0)], dec) == pf("[1[0]]·[1]")


def test_text_whitespace_is_free():
    assert pf(" [0 [1] [1]] .\t[0]\n") == pf("[0[1][1]]·[0]")
    assert pf("  1 ") == pf("") == DecoratedForest.empty()


def test_order_and_exotic_flag():
    assert pf("[0]").order == 1
    assert pf("[1]·[1]").order == 1
    assert pf("[0[0]]·[1]·[1]").order == 3
    assert pf("[1[1][2][2]]").order == 2
    assert pf("[1[1][1][1]]").is_exotic is False
    assert pf("[1[1][2][2]]").is_exotic is True
    assert DecoratedForest.empty().order == 0


def test_text_round_trip():
    for f in enumerate_forests(3):
        assert pf(f.text) == f
    assert pf("1") == DecoratedForest.empty()
    assert pf("[0[1][1]]·[0]") == pf("[0].[0[5][5]]")  # '.' accepted, labels free


@pytest.mark.parametrize(
    "text,message",
    [
        ("[0", "unbalanced '[' in '[0'"),
        ("[x]", "expected decoration digits at position 1 of '[x]'"),
        ("]", "unbalanced ']' in ']'"),
        ("[0]x", "unexpected character 'x' in '[0]x'"),
        ("[1]", "decoration class 1 has odd size 1"),
        ("[0]]", "unbalanced ']' in '[0]]'"),
        ("[1[1][1]]", "decoration class 1 has odd size 3"),
        ("[0]·[0[1]·[1]]", "unexpected character '·' in '[0]·[0[1]·[1]]'"),  # '·' only between roots
        ("[²]", "expected decoration digits at position 1 of '[²]'"),
        ("·", "'·' at position 0 of '·' is not between two trees"),
        ("..", "'.' at position 0 of '..' is not between two trees"),
        ("·[0]··", "'·' at position 0 of '·[0]··' is not between two trees"),
        ("[0]·", "'·' at position 3 of '[0]·' is not between two trees"),
        ("[0]..[0]", "'.' at position 4 of '[0]..[0]' is not between two trees"),
        ("[0][0]", "expected '·' before the tree at position 3 of '[0][0]'"),
        (" [0] [0]", "expected '·' before the tree at position 5 of ' [0] [0]'"),
    ],
    ids=[
        "open", "no_digits", "close", "trailing", "odd_one", "extra_close", "odd_three", "inner_dot",
        "superscript_digit", "lone_dot", "two_dots", "outer_dots", "last_dot", "double_dot",
        "no_dot", "no_dot_spaced",
    ],
)
def test_parse_errors_are_pinned(text, message):
    with pytest.raises(ForestError) as err:
        pf(text)
    assert str(err.value) == message


@st.composite
def random_forest_graph(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    parents = [draw(st.integers(min_value=-1, max_value=v - 1)) for v in range(n)]
    edges = [(v, p) for v, p in enumerate(parents) if p >= 0]
    # pair up nodes for decorations: a random matching of an even subset
    ids = list(range(n))
    k = draw(st.integers(min_value=0, max_value=n // 2))
    chosen = draw(st.permutations(ids))[: 2 * k]
    dec = {v: 0 for v in ids}
    for i in range(k):
        dec[chosen[2 * i]] = i + 1
        dec[chosen[2 * i + 1]] = i + 1
    return ids, edges, dec


@given(random_forest_graph())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_text_round_trip_random(graph):
    f = DecoratedForest.from_graph(*graph)
    assert pf(f.text) == f


# ---------------------------------------------------------------------------
# enumeration and symmetry


def test_enumeration_counts():
    assert len(enumerate_forests(1, exotic_only=True)) == 3
    assert len(enumerate_forests(2, exotic_only=True)) == 34
    decorated_extra = [f for f in enumerate_forests(2) if not f.is_exotic]
    assert len(decorated_extra) == 9
    listing = enumerate_forests(2)
    assert len(set(listing)) == len(listing)
    assert listing == tuple(sorted(listing, key=lambda f: (f.order, f.trees)))
    with pytest.raises(CapacityError):
        enumerate_forests(4)


def test_enumeration_counts_order_three():
    listing = enumerate_forests(3)
    exotic = enumerate_forests(3, exotic_only=True)
    assert len(listing) == 1270
    assert len(exotic) == 669
    assert sum(f.order == 3 for f in exotic) == 635
    assert exotic == tuple(f for f in listing if f.is_exotic)


def test_every_capacity_raise_is_the_randvars_error():
    from srkweak import randvars

    cases = {
        "enumerate_forests": lambda: enumerate_forests(4),
        "gl_exponential": lambda: gl_exponential(generator_sum(ITO), 4),
        "CoefficientMap": lambda: exact_flow_coefficients(ITO, 1)(pf("[0[0]]")),
    }
    for name, case in cases.items():
        with pytest.raises(randvars.CapacityError):
            case()
    assert CapacityError is randvars.CapacityError


def test_set_partitions_counts_and_part_sizes():
    # partitions into even parts; perfect matchings (n - 1)!!
    assert [len(list(fo._set_partitions(range(n), "even"))) for n in (2, 4, 6)] == [1, 4, 31]
    assert [len(list(fo._set_partitions(range(n), "pairs"))) for n in (2, 4, 6)] == [1, 3, 15]
    allowed = {"even": lambda k: k % 2 == 0, "pairs": lambda k: k == 2}
    for parts, ok in allowed.items():
        seen = set()
        for partition in fo._set_partitions(range(6), parts):
            assert sorted(itertools.chain(*partition)) == list(range(6))
            assert all(ok(len(part)) for part in partition)
            seen.add(frozenset(partition))
        assert len(seen) == len(list(fo._set_partitions(range(6), parts)))


@pytest.mark.parametrize(
    "text,sigma",
    [
        ("[0]", 1),
        ("[0]·[0]·[0]", 6),
        ("[1]·[1]", 2),
        ("[1]·[1]·[1]·[1]", 24),
        ("[1]·[1]·[2]·[2]", 8),
        ("[1[1]]·[1]·[1]", 2),
        ("[1[1]]·[2]·[2]", 2),
        ("[1[2]]·[1]·[2]", 1),
        ("[1[2]]·[1[2]]", 2),
        ("[1[2]]·[2[1]]", 2),
        ("[0[1][1]]", 2),
        ("[1]·[1]·[2]·[2]·[3]·[3]", 48),
        ("[1]·[1[1][1][2][2]]", 4),
        ("[1[1]]·[2[2]]·[3[3]]", 6),
        ("[1[2]]·[2[3]]·[3[1]]", 3),
        ("[0[1][1][2][2]]", 8),
        ("[0[0][0]]", 2),
    ],
    ids=lambda x: str(x),
)
def test_symmetry_values(text, sigma):
    assert symmetry(pf(text)) == sigma


def test_symmetry_brute_force_three_blacks():
    f = DecoratedForest.from_graph([0, 1, 2], [], {0: 0, 1: 0, 2: 0})
    assert symmetry(f) == 6


# ---------------------------------------------------------------------------
# products


def test_gl_single_nodes():
    result = ForestSum({pf("[0]"): 1}).gl(ForestSum({pf("[0]"): 1}))
    assert dict(result.terms()) == {pf("[0]·[0]"): F(1), pf("[0[0]]"): F(1)}


def test_gl_two_singles_onto_one():
    result = ForestSum({pf("[0]·[0]"): 1}).gl(ForestSum({pf("[0]"): 1}))
    assert dict(result.terms()) == {
        pf("[0]·[0]·[0]"): F(1),
        pf("[0]·[0[0]]"): F(2),
        pf("[0[0][0]]"): F(1),
    }


def test_gl_liana_pairs():
    result = ForestSum({pf("[1]·[1]"): 1}).gl(ForestSum({pf("[2]·[2]"): 1}))
    assert dict(result.terms()) == {
        pf("[1]·[1]·[2]·[2]"): F(1),
        pf("[1]·[1[2]]·[2]"): F(4),
        pf("[1]·[1[2][2]]"): F(2),
        pf("[1[2]]·[1[2]]"): F(2),
    }


def test_gl_unit_laws():
    unit = ForestSum.unit()
    for text in ["[0]", "[1[1]]", "[0[1][1]]·[0]"]:
        s = ForestSum({pf(text): 1})
        assert dict(unit.gl(s).terms()) == dict(s.terms())
        assert dict(s.gl(unit).terms()) == dict(s.terms())


def test_gl_grading():
    ones = enumerate_forests(1, exotic_only=True)
    for f1, f2 in itertools.product(ones, repeat=2):
        prod = ForestSum({f1: 1}).gl(ForestSum({f2: 1}))
        assert prod.homogeneous_order() == 2


def test_concat_keeps_classes_disjoint():
    f = concat(pf("[1]·[1]"), pf("[1]·[1]"))
    assert f == pf("[1]·[1]·[2]·[2]")


# ---------------------------------------------------------------------------
# exponentials and the exact-flow coefficients


def test_order_one_flow_coefficients():
    e = exact_flow_coefficients(ITO, 1)
    assert e(pf("[0]")) == 1
    assert F(e(pf("[1]·[1]")), symmetry(pf("[1]·[1]"))) == F(1, 2)
    assert e(pf("[1[1]]")) == 0
    e = exact_flow_coefficients(STRATONOVICH, 1)
    assert F(e(pf("[1[1]]")), 1) == F(1, 2)


def _tree_factorial(tree) -> int:
    """gamma(t) = |t| * prod of gamma over the subtrees of the root."""

    def size(t):
        return 1 + sum(size(c) for c in t[1])

    return size(tree) * math.prod(_tree_factorial(c) for c in tree[1])


@pytest.mark.parametrize("calculus", [ITO, STRATONOVICH])
def test_flow_coefficients_of_deterministic_forests_are_inverse_tree_factorials(calculus):
    """Up to order 3, a forest with only zero decorations has e(f) = prod 1/gamma(t),
    the coefficient of the deterministic exact flow (Butcher); the first check of
    order-3 flow coefficients that does not run through the Grossman-Larson series."""
    e = exact_flow_coefficients(calculus, 3)
    deterministic = [f for f in enumerate_forests(3) if not f.decoration_sizes]
    assert len(deterministic) == 1 + 2 + 4
    for f in deterministic:
        assert e(f) == F(1, math.prod(_tree_factorial(t) for t in f.trees)), f.text
    assert (e(pf("[0[0][0]]")), e(pf("[0[0[0]]]")), e(pf("[0]·[0[0]]"))) == (F(1, 3), F(1, 6), F(1, 2))


def test_generator_maps():
    l_ito = generator_map(ITO)
    assert l_ito(pf("[0]")) == 1
    assert l_ito(pf("[1]·[1]")) == 1
    assert l_ito(pf("[1[1]]")) == 0
    l_str = generator_map(STRATONOVICH)
    assert l_str(pf("[1[1]]")) == F(1, 2)


def test_gl_exponential_requires_homogeneous_order_one():
    bad = ForestSum({pf("[0]"): 1, pf("[0[0]]"): 1})
    with pytest.raises(ValueError):
        gl_exponential(bad, 2)


def test_convolution_matches_gl_exponential():
    """Grossman-Larson grafting and BCK cutting give one exponential; order 3
    runs both on all 635 order-3 exotic forests."""
    for calculus, order in itertools.product((ITO, STRATONOVICH), (2, 3)):
        e_gl = exact_flow_coefficients(calculus, order)
        e_cv = convolution_exp(generator_map(calculus), order)
        assert e_cv(DecoratedForest.empty()) == 1
        for f in enumerate_forests(order, exotic_only=True):
            assert e_gl(f) == e_cv(f), (calculus, f.text)


def test_convolution_exp_rejects_higher_order_support():
    bad = fo.CoefficientMap({pf("[0[0]]"): F(1)}, max_order=2)
    with pytest.raises(ValueError):
        convolution_exp(bad, 2)


# ---------------------------------------------------------------------------
# coproducts


def test_bck_simple_cases():
    one = DecoratedForest.empty()
    assert set(bck_coproduct(pf("[0]"))) == {(one, pf("[0]"), 1), (pf("[0]"), one, 1)}
    # a liana is never severed: neither the pair nor the liana chain can be cut
    assert len(bck_coproduct(pf("[1]·[1]"))) == 2
    assert len(bck_coproduct(pf("[1[1]]"))) == 2
    # the black chain has one admissible nontrivial cut
    terms = dict(((P, R), m) for P, R, m in bck_coproduct(pf("[0[0]]")))
    assert terms[(pf("[0]"), pf("[0]"))] == 1
    assert len(terms) == 3
    # pruning one of two identical trees carries multiplicity two
    terms = dict(((P, R), m) for P, R, m in bck_coproduct(pf("[0]·[0]")))
    assert terms[(pf("[0]"), pf("[0]"))] == 2


def test_bck_cuts_are_antichains():
    # chain of three black nodes: cutting both edges would put two cuts on one
    # root-to-leaf path, so only single-edge cuts appear
    terms = bck_coproduct(pf("[0[0[0]]]"))
    pairs = {(P.text, R.text) for P, R, _ in terms}
    assert pairs == {
        ("1", "[0[0[0]]]"),
        ("[0]", "[0[0]]"),
        ("[0[0]]", "[0]"),
        ("[0[0[0]]]", "1"),
    }


def _coproduct_as_sum(f):
    return {(P, R): m for P, R, m in bck_coproduct(f)}


def test_bck_coassociativity_order_two():
    for f in enumerate_forests(2, exotic_only=True):
        left = {}
        for P, R, m in bck_coproduct(f):
            for P2, R2, m2 in bck_coproduct(P):
                key = (P2, R2, R)
                left[key] = left.get(key, 0) + m * m2
        right = {}
        for P, R, m in bck_coproduct(f):
            for P2, R2, m2 in bck_coproduct(R):
                key = (P, P2, R2)
                right[key] = right.get(key, 0) + m * m2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right, f.text


def test_deshuffle_examples():
    one = DecoratedForest.empty()
    assert set(deshuffle(pf("[1[1]]"))) == {(one, pf("[1[1]]"), 1), (pf("[1[1]]"), one, 1)}
    # two blocks -> four ordered splits
    f = pf("[1[1]]·[0]")
    assert len(deshuffle(f)) == 4
    # trees connected by a shared class are never separated
    f = pf("[1[2]]·[1[2]]")
    assert set(deshuffle(f)) == {(one, f, 1), (f, one, 1)}
    # two identical blocks -> three splits
    f = pf("[1]·[1]·[2]·[2]")
    terms = set(deshuffle(f))
    assert (pf("[1]·[1]"), pf("[1]·[1]"), 1) in terms
    assert len(terms) == 3


def test_deshuffle_block_count_rule():
    for f in enumerate_forests(2, exotic_only=True):
        terms = deshuffle(f)
        # number of splits is the product of (multiplicity + 1) over the
        # distinct liana-connected blocks
        lefts = {L for L, _, _ in terms}
        assert len(terms) == len(set(terms))
        assert (DecoratedForest.empty() in lefts) and (f in lefts)


def _perturbed(name, c, rng):
    """The registered tableau ``name`` with every entry scaled by 1 + U(-0.1, 0.1), at c."""
    base = registry_get(name)

    def jitter(a):
        return None if a is None else a * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, a.shape))

    return make_tableau(
        f"{name}~{c:.4f}", base.calculus,
        jitter(base.alpha), jitter(base.beta), jitter(base.A0), jitter(base.B0),
        jitter(base.A1), jitter(base.B1), jitter(base.Bhat1),
        c=c, det_order=base.det_order, weak_order=base.weak_order, structure=base.structure,
    )


def test_deshuffle_blocks_factor_both_sides():
    # every split of a forest of order <= 3 into two non-empty sets of its
    # liana-connected blocks: the exact-flow target and the Runge-Kutta
    # coefficient of the forest are the products of those of the two sides
    splits = [(f, l, r) for f in enumerate_forests(3) for l, r, _ in deshuffle(f) if l.trees and r.trees]
    assert len(splits) == 249
    assert sum(f.is_exotic for f, _, _ in splits) == 195
    assert sum(f.order == 3 for f, _, _ in splits) == 240

    # flow side, exactly, with the condition table's own target rule: e(f)
    # for an exotic f, otherwise the sum over its exotic refinements
    for calculus in (ITO, STRATONOVICH):
        for f, l, r in splits:
            e_f, e_l, e_r = (_flow_target(g, calculus) for g in (f, l, r))
            assert e_f == e_l * e_r, (calculus, f.text, l.text, r.text)

    # method side, on the registered tableaux and on perturbed ones whose
    # conditions fail, so the factorization does not rest on them holding
    programs = [fo.contraction_program(tuple(split[k] for split in splits)) for k in range(3)]
    rng = np.random.default_rng(20261021)
    tableaux = [registry_get(name) for name in registry_names()]
    tableaux += [
        _perturbed(name, c, rng)
        for name in ("BDK1", "BDK3", "StratoExplicit24", "StratoDIRK")
        for c in (1 / 2, 1 / 3, 1 / 4, 1 / 5)
    ]
    for t in tableaux:
        v_f, v_l, v_r = (program.evaluate(t) for program in programs)
        for (f, l, r), a, b, c in zip(splits, v_f, v_l, v_r):
            assert abs(a - b * c) <= 1e-14 * (1.0 + abs(a)), (t.name, f.text, l.text, r.text)


# ---------------------------------------------------------------------------
# refinement and Isserlis multiplicities


def test_finer_decorations_identity_on_exotic():
    for text in ["[1]·[1]", "[1[1]]", "[1[2]]·[1]·[2]"]:
        assert finer_decorations(pf(text), exotic_only=True) == [(pf(text), 1)]


def test_finer_decorations_worked_example():
    f = pf("[1[1]]·[1]·[1]")
    got = dict(finer_decorations(f, exotic_only=True))
    assert got == {pf("[1[1]]·[2]·[2]"): 1, pf("[1[2]]·[1]·[2]"): 2}


def test_finer_decorations_multiplicity_is_symmetry_ratio():
    for f in enumerate_forests(2):
        for refined, mult in finer_decorations(f, exotic_only=True):
            assert mult * symmetry(refined) == symmetry(f), (f.text, refined.text)


def test_finer_decorations_counts_where_symmetry_ratio_fails():
    # the 3 pairings of the size-4 class all give one forest, yet both sides
    # have symmetry 48: swapping a former class-2 pair with a class-1 pair is
    # an automorphism of the refinement but not of the coarse decoration
    f = pf("[1]·[1]·[1]·[1]·[2]·[2]")
    refined = pf("[1]·[1]·[2]·[2]·[3]·[3]")
    assert dict(finer_decorations(f, exotic_only=True)) == {refined: 3}
    assert symmetry(f) == symmetry(refined) == 48


def test_finer_decorations_includes_trivial_refinement():
    f = pf("[1]·[1]·[1]·[1]")
    got = dict(finer_decorations(f))
    assert got[f] == 1
    assert got[pf("[1]·[1]·[2]·[2]")] == 3


# ---------------------------------------------------------------------------
# coefficient map of a tableau and differential strings


def test_rk_coefficient_map_simple_values():
    from srkweak.tableau import registry_get

    bdk1 = registry_get("BDK1")
    assert fo.rk_coefficient_map(bdk1, pf("[0]")) == pytest.approx(1.0, abs=1e-15)
    assert fo.rk_coefficient_map(bdk1, pf("[1[1]]")) == pytest.approx(0.0, abs=1e-13)
    # four singles in one class: (beta.1)^4 E[theta^4] = 3
    assert fo.rk_coefficient_map(bdk1, pf("[1]·[1]·[1]·[1]")) == pytest.approx(3.0, abs=1e-12)
    assert fo.rk_coefficient_map(bdk1, DecoratedForest.empty()) == 1.0


def test_rk_coefficient_map_label_override():
    from srkweak.tableau import registry_get

    bdk1 = registry_get("BDK1")
    f = pf("[1[2]]·[1]·[2]")
    a = fo.rk_coefficient_map(bdk1, f, noise_labels=(1, 2))
    b = fo.rk_coefficient_map(bdk1, f, noise_labels=(2, 1))
    assert a == pytest.approx(b, abs=1e-13)


def _rk_coefficient_reference(t, f, noise_labels=None):
    """rk_coefficient_map by summing over every stage assignment of the nodes.

    Returns the coefficient and the sum of the magnitudes of its terms.
    """
    nodes, edges, dec = f.graph()
    classes = sorted({d for d in dec.values() if d > 0})
    labels = tuple(noise_labels or range(1, len(classes) + 1))
    label = {0: 0, **dict(zip(classes, labels))}
    parent = dict(edges)
    roots = [v for v in nodes if v not in parent]
    monomial = [(("theta", label[dec[r]]), 1) for r in roots if dec[r] != 0]
    monomial += [
        (("Theta", label[dec[p]], label[dec[c]]), 1) for c, p in edges if (dec[p], dec[c]) != (0, 0)
    ]
    family = RvFamily.make(t.calculus, t.c)
    weight = moment(family, max((1,) + labels), monomial)

    def block(p, q):
        if p == 0:
            return t.A0 if q == 0 else t.B0
        if q == 0:
            return t.A1
        return t.Bhat1 if (t.calculus == STRATONOVICH and p == q) else t.B1

    terms = []
    for assign in itertools.product(*[range(t.s2 if dec[v] else t.s1) for v in nodes]):
        prod = weight
        for r in roots:
            prod *= (t.beta if dec[r] else t.alpha)[assign[r]]
        for c, p in edges:
            prod *= block(label[dec[p]], label[dec[c]])[assign[p], assign[c]]
        terms.append(prod)
    return math.fsum(terms), math.fsum(abs(x) for x in terms)


def _weak2_variants():
    """Each registered weak-order-2 tableau, a seeded perturbation and one with a fresh c."""
    rng = np.random.default_rng(20261018)
    for name in registry_names():
        base = registry_get(name)
        if base.weak_order != 2:
            continue
        yield base
        for c in (base.c, rng.uniform(0.05, 0.45)):
            yield _perturbed(name, c, rng)


@pytest.mark.parametrize("t", list(_weak2_variants()), ids=lambda t: t.name)
def test_rk_coefficient_map_matches_assignment_sum_on_all_rows(t):
    for row in condition_table():
        n_classes = len(row.forest.decoration_sizes)
        for labels in (None, tuple(range(n_classes, 0, -1))):
            got = fo.rk_coefficient_map(t, row.forest, noise_labels=labels)
            expected, scale = _rk_coefficient_reference(t, row.forest, labels)
            assert abs(got - expected) <= 1e-14 * (1.0 + scale), (row.id, labels)


@pytest.mark.parametrize("name", ["BDK1", "BDK2", "StratoDIRK", "ItoDIRKEX"])
def test_order_three_program_matches_the_per_forest_map_bit_for_bit(name):
    t = registry_get(name)
    listing = enumerate_forests(3, exotic_only=True)
    program = fo.contraction_program(listing)
    # 3657 nodes in 669 forests, 386 distinct subtrees
    assert sum(f.n_nodes for f in listing) == 3657 and len(program.nodes) == 386
    got = [x.hex() for x in program.evaluate(t)]
    assert got == [fo.rk_coefficient_map(t, f).hex() for f in listing]


def test_order_three_program_values_are_pinned():
    # every order-3 forest (1270, exotic or not) on every registered method,
    # in registry order, one float.hex per line
    program = fo.contraction_program(tuple(enumerate_forests(3)))
    text = "\n".join(v.hex() for name in registry_names() for v in program.evaluate(registry_get(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5e12075e68afa1ea9c3dc35719b5aefeebc2608913efd4a092f5c5ae917c4b1d"
    )


def test_program_raises_the_per_forest_errors_for_bad_noise_labels():
    bdk1 = registry_get("BDK1")
    f = pf("[1[2]]·[1]·[2]")
    for labels in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="need one noise label per decoration class"):
            fo.rk_coefficient_map(bdk1, f, noise_labels=labels)
    with pytest.raises(ValueError, match=r"factor \('theta', -1\) references a noise index beyond m=1"):
        fo.rk_coefficient_map(bdk1, f, noise_labels=(-1, 1))
    with pytest.raises(CapacityError, match="m <= 3"):
        fo.rk_coefficient_map(bdk1, f, noise_labels=(4, 1))
    with pytest.raises(ValueError, match="need one noise label"):
        fo.contraction_program((pf("[0]"), f), (1,))
    # the empty forest has no classes to label, and its coefficient is 1
    assert fo.rk_coefficient_map(bdk1, DecoratedForest.empty(), noise_labels=(1,)) == 1.0
    assert fo.rk_coefficient_map(bdk1, f, noise_labels=(3, 1)) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize(
    "text,rendered",
    [
        ("[0]", "phi_i f^{0,i}"),
        ("[1]·[1]", "phi_ij f^{p1,i} f^{p1,j}"),
        ("[1[1]]", "phi_i f^{p1,i}_{i1} f^{p1,i1}"),
    ],
)
def test_elementary_differential_examples(text, rendered):
    assert elementary_differential_string(pf(text)) == rendered


def test_elementary_differential_strings_of_every_order_three_forest_are_pinned():
    rendered = "\n".join(elementary_differential_string(f) for f in enumerate_forests(3))
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "30218b02193efcd2926995408767e592183410b4a1211bddd441529d40074ba4"
    )


def test_elementary_differential_depends_only_on_the_forest():
    # equal sibling subtrees written as literals may be one shared object;
    # each still gets its own index
    shared = DecoratedForest(((0, ((1, ()), (1, ()))),))
    assert shared == pf("[0[1][1]]")
    assert elementary_differential_string(shared) == "phi_i f^{0,i}_{i1i2} f^{p1,i1} f^{p1,i2}"


def test_elementary_differential_names_at_most_seven_roots():
    assert elementary_differential_string(pf("·".join(["[0]"] * 7))).startswith("phi_ijklabc ")
    with pytest.raises(CapacityError, match="at most 7 roots"):
        elementary_differential_string(pf("·".join(["[0]"] * 8)))


def test_elementary_differential_all_rows_render():
    for f in enumerate_forests(2):
        s = elementary_differential_string(f)
        assert s.startswith("phi_")
        assert s.count("f^{") == f.n_nodes
