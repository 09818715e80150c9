"""Decorated and exotic rooted forests and their Hopf-algebra operations.

A decorated forest is a rooted forest whose nodes carry nonnegative integer
decorations; every nonzero decoration value is shared by an even number of
nodes, and forests are considered up to graph isomorphism combined with
relabelling of the nonzero decoration values.  A forest is *exotic* when every
nonzero decoration class has size exactly two (a *liana*).

This module provides canonical forms, enumeration, symmetry coefficients, the
concatenation and Grossman-Larson products, the deshuffle and
Butcher-Connes-Kreimer coproducts, the convolution and Grossman-Larson
exponentials that produce the exact-flow coefficients of an SDE generator,
decoration-refinement combinatorics, elementary differential rendering, and
the Runge-Kutta coefficient map of a method tableau on a forest.

Every operation computes on the canonical encoding of a forest, a sorted
tuple of ``(decoration, (child, ...))`` trees, and canonicalises its result
there.  A node/edge graph is read only by :meth:`DecoratedForest.from_graph`
and built only by :meth:`DecoratedForest.graph`; :func:`parse_forest` reads
the bracket text straight into encoded trees, and
:func:`elementary_differential_string` renders each node by its position in
them, never by object identity.

All coefficients in this layer are exact rationals; only
:func:`rk_coefficient_map` returns floats (method tableaux carry irrational
entries).  Every value is immutable, so everything here is safe to share
between threads.

Text format: a tree is ``[dec child child ...]`` and trees are joined with
``'·'``, e.g. ``"[0[1][1]]·[0]"`` is a black root carrying a liana pair,
concatenated with a single black node.  The empty forest prints as ``"1"``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import randvars
from .randvars import STRATONOVICH, CapacityError, _check_calculus

__all__ = [
    "DecoratedForest",
    "ForestSum",
    "CoefficientMap",
    "ForestError",
    "CapacityError",
    "parse_forest",
    "enumerate_forests",
    "symmetry",
    "concat",
    "gl_exponential",
    "bck_coproduct",
    "deshuffle",
    "convolution_product",
    "convolution_exp",
    "finer_decorations",
    "generator_sum",
    "generator_map",
    "exact_flow_coefficients",
    "rk_coefficient_map",
    "ContractionProgram",
    "contraction_program",
    "elementary_differential_string",
]

MAX_ORDER = 3


class ForestError(ValueError):
    """Raised for structurally invalid forests (cycles, odd decoration class)."""


def _encode_tree(v, children, dec):
    return (dec[v], tuple(sorted(_encode_tree(c, children, dec) for c in children[v])))


def _relabelled(trees, relabel) -> tuple:
    """Encoded trees with every decoration d replaced by ``relabel[d]``, re-sorted."""
    return tuple(sorted((relabel[d], _relabelled(kids, relabel)) for d, kids in trees))


def _label_permutations(labels):
    """Every bijection of ``labels`` onto 1..len(labels) as a relabel map fixing 0."""
    for perm in itertools.permutations(range(1, len(labels) + 1)):
        yield {0: 0, **dict(zip(labels, perm))}


def _preorder(trees):
    """The decorations of encoded trees in depth-first preorder."""
    stack = list(reversed(trees))
    while stack:
        d, kids = stack.pop()
        yield d
        stack.extend(reversed(kids))


def _preorder_children(tree) -> list:
    """Each node of an encoded tree in preorder, as its decoration and the
    preorder numbers of its children (the root is 0)."""
    nodes: list = []

    def visit(t):
        kids: list = []
        nodes.append((t[0], kids))
        for c in t[1]:
            kids.append(len(nodes))
            visit(c)

    visit(tree)
    return nodes


def _redecorated(trees, decorations) -> tuple:
    """Encoded trees with their preorder decorations drawn from the iterator ``decorations``."""
    return tuple((next(decorations), _redecorated(kids, decorations)) for _, kids in trees)


def _canonical(trees) -> tuple:
    """Canonical form of encoded trees: the least relabelling of the nonzero
    decoration classes onto 1, 2, ..., every level sorted."""
    labels = sorted({d for d in _preorder(trees) if d})
    return min(_relabelled(trees, relabel) for relabel in _label_permutations(labels))


def _check_classes(decorations) -> None:
    """Raise ForestError unless every nonzero decoration class has even size."""
    for label, size in Counter(d for d in decorations if d).items():
        if size % 2:
            raise ForestError(f"decoration class {label} has odd size {size}")


def _canonical_trees(nodes, edges, decoration):
    """Canonical encoding of a raw (nodes, child->parent edges, decoration) graph."""
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ForestError("duplicate node ids")
    node_set = set(nodes)
    parent: dict = {}
    for child, par in edges:
        if child not in node_set or par not in node_set:
            raise ForestError(f"edge ({child!r}, {par!r}) references unknown node")
        if child in parent:
            raise ForestError(f"node {child!r} has more than one outgoing edge")
        parent[child] = par
    children: dict = {v: [] for v in nodes}
    for child, par in parent.items():
        children[par].append(child)
    # every node lies below a root unless the edges close a cycle
    roots = [v for v in nodes if v not in parent]
    reached = list(roots)
    for v in reached:
        reached.extend(children[v])
    if len(reached) < len(nodes):
        raise ForestError("cycle detected in forest edges")
    dec = {}
    for v in nodes:
        value = decoration.get(v, 0) if isinstance(decoration, Mapping) else decoration[v]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ForestError(f"decoration {value!r} of node {v!r} is not a nonnegative integer")
        dec[v] = int(value)
    _check_classes(dec.values())
    return _canonical([_encode_tree(v, children, dec) for v in roots])


@dataclass(frozen=True)
class DecoratedForest:
    """A decorated rooted forest in canonical form.

    ``trees`` is the canonical nested-tuple encoding; equality and hashing go
    through it, so two forests compare equal iff they are equivalent.
    """

    trees: tuple

    @classmethod
    def from_graph(cls, nodes, edges, decoration) -> "DecoratedForest":
        """Canonical form of a raw decorated graph; ``edges`` are (child, parent)."""
        return cls(_canonical_trees(nodes, edges, decoration))

    @classmethod
    def empty(cls) -> "DecoratedForest":
        return cls(())

    @cached_property
    def _decorations(self) -> tuple:
        """The node decorations in depth-first preorder."""
        return tuple(_preorder(self.trees))

    @property
    def n_nodes(self) -> int:
        return len(self._decorations)

    @property
    def decoration_sizes(self) -> dict:
        return dict(Counter(d for d in self._decorations if d > 0))

    @cached_property
    def order(self) -> Fraction:
        # a black node has order 1, a decorated one 1/2
        return Fraction(len(self._decorations) + self._decorations.count(0), 2)

    @property
    def is_exotic(self) -> bool:
        return all(size == 2 for size in self.decoration_sizes.values())

    def graph(self):
        """Rebuild a representative ``(nodes, edges, decoration)`` in DFS order."""
        edges: list = []
        dec: dict = {}
        for t in self.trees:
            base = len(dec)
            for v, (d, kids) in enumerate(_preorder_children(t), base):
                dec[v] = d
                edges += [(base + k, v) for k in kids]
        return list(dec), sorted(edges), dec

    @property
    def roots(self) -> tuple:
        return tuple(t[0] for t in self.trees)

    @cached_property
    def text(self) -> str:
        if not self.trees:
            return "1"

        def render(t):
            return "[" + str(t[0]) + "".join(render(c) for c in t[1]) + "]"

        return "·".join(render(t) for t in self.trees)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DecoratedForest({self.text!r})"


_FOREST_TOKEN = re.compile(r"\[([0-9]*)|\S")  # '[' and its decoration, or a non-space


def parse_forest(text: str) -> DecoratedForest:
    """Parse the nested-bracket forest notation, e.g. ``"[0[1][1]]·[0]"``: one
    ``'·'`` or ``'.'`` between each two trees, none elsewhere, whitespace free."""
    if text.strip() in ("1", ""):
        return DecoratedForest.empty()
    roots: list = []
    stack: list = []  # the open trees, each a (decoration, children) frame
    sep = None  # position of a separator that no tree has followed yet
    for token in _FOREST_TOKEN.finditer(text):
        ch, pos = token[0][0], token.start()
        if ch == "[":
            if not token[1]:
                raise ForestError(f"expected decoration digits at position {pos + 1} of {text!r}")
            if roots and sep is None and not stack:
                raise ForestError(f"expected '·' before the tree at position {pos} of {text!r}")
            sep = None
            stack.append((int(token[1]), []))
        elif ch == "]":
            if not stack:
                raise ForestError(f"unbalanced ']' in {text!r}")
            d, kids = stack.pop()
            (stack[-1][1] if stack else roots).append((d, tuple(kids)))
        elif ch in "·." and not stack:
            if not roots or sep is not None:
                raise ForestError(f"{ch!r} at position {pos} of {text!r} is not between two trees")
            sep = pos
        else:
            raise ForestError(f"unexpected character {ch!r} in {text!r}")
    if stack:
        raise ForestError(f"unbalanced '[' in {text!r}")
    if sep is not None:
        raise ForestError(f"{text[sep]!r} at position {sep} of {text!r} is not between two trees")
    _check_classes(_preorder(roots))
    return DecoratedForest(_canonical(roots))


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _forest_shapes(n: int) -> tuple:
    """All forests with n nodes total and every decoration 0, as canonical trees.

    A tree with k nodes is a root over a forest with k - 1.
    """
    if n == 0:
        return ((),)
    out = set()
    for k in range(1, n + 1):
        for kids in _forest_shapes(k - 1):
            for rest in _forest_shapes(n - k):
                out.add(tuple(sorted(rest + ((0, kids),))))
    return tuple(sorted(out))


def _decoration_strings(n: int) -> list:
    """Decorations of n nodes up to relabelling, every nonzero class even.

    Nonzero labels first occur in the order 1, 2, ... (restricted growth), so
    each decoration is listed once per relabelling class.
    """
    strings = [()]
    for _ in range(n):
        strings = [s + (d,) for s in strings for d in range(max(s, default=0) + 2)]
    return [s for s in strings if all(s.count(d) % 2 == 0 for d in s if d)]


@lru_cache(maxsize=None)
def enumerate_forests(max_order: int, exotic_only: bool = False) -> tuple:
    """All decorated forests with 1 <= order <= max_order, sorted by (order, key).

    With ``exotic_only`` the result is restricted to exotic forests.  Supported
    up to order 3; the test suite pins the counts at every supported order.
    """
    if max_order < 1:
        raise ValueError(f"the maximum forest order must be at least 1, got {max_order}")
    if max_order > MAX_ORDER:
        raise CapacityError(f"forest enumeration supports order <= {MAX_ORDER}")
    found = set()
    for n in range(1, 2 * max_order + 1):
        # a forest's order is (nodes + black nodes) / 2
        decorations = [s for s in _decoration_strings(n) if n + s.count(0) <= 2 * max_order]
        for shape in _forest_shapes(n):
            for decs in decorations:
                f = DecoratedForest(_canonical(_redecorated(shape, iter(decs))))
                if not exotic_only or f.is_exotic:
                    found.add(f)
    return tuple(sorted(found, key=lambda f: (f.order, f.trees)))


# ---------------------------------------------------------------------------
# symmetry


def _fixed_automorphisms(trees) -> int:
    """Automorphisms of encoded trees that keep every decoration label in place.

    Such an automorphism permutes equal sibling subtrees and acts inside each,
    so k equal siblings t contribute k! * a(t)^k, where a(t) counts the
    automorphisms of t's children.
    """
    count = 1
    for (_, kids), k in Counter(trees).items():
        count *= math.factorial(k) * _fixed_automorphisms(kids) ** k
    return count


def symmetry(f: DecoratedForest) -> int:
    """Number of automorphisms of the decorated forest.

    An automorphism is a node bijection preserving the edges and mapping the
    decoration to an equivalent one (nonzero classes may be permuted).  Each
    one induces a permutation of the nonzero labels, and the automorphisms
    inducing one admissible permutation form a coset of those that fix every
    label.  So sigma(f) is the label-fixing count times the number of label
    permutations that map f's canonical trees onto themselves.
    """
    relabellings = sum(
        _relabelled(f.trees, relabel) == f.trees
        for relabel in _label_permutations(sorted(f.decoration_sizes))
    )
    return _fixed_automorphisms(f.trees) * relabellings


# ---------------------------------------------------------------------------
# products

_ZERO = Fraction(0)


class ForestSum:
    """A finite rational linear combination of decorated forests."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for forest, coeff in items:
                data[forest] = data.get(forest, _ZERO) + Fraction(coeff)
        self._terms = {f: c for f, c in data.items() if c}

    @classmethod
    def unit(cls) -> "ForestSum":
        return cls({DecoratedForest.empty(): Fraction(1)})

    def terms(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0].order, kv[0].trees))

    def __add__(self, other: "ForestSum") -> "ForestSum":
        out = dict(self._terms)
        for f, c in other._terms.items():
            out[f] = out.get(f, _ZERO) + c
        return ForestSum(out)

    def __mul__(self, scalar) -> "ForestSum":
        q = Fraction(scalar)
        return ForestSum({f: c * q for f, c in self._terms.items()})

    __rmul__ = __mul__

    def homogeneous_order(self):
        orders = {f.order for f in self._terms}
        return orders.pop() if len(orders) == 1 else None

    def gl(self, other: "ForestSum", max_order=None) -> "ForestSum":
        out: dict = {}
        for f1, c1 in self._terms.items():
            for f2, c2 in other._terms.items():
                if max_order is not None and f1.order + f2.order > max_order:
                    continue
                for g, mult in _gl_pair(f1, f2).items():
                    out[g] = out.get(g, _ZERO) + c1 * c2 * mult
        return ForestSum(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self._terms:
            return "ForestSum(0)"
        parts = [f"{c}*{f.text}" for f, c in self.terms()]
        return "ForestSum(" + " + ".join(parts) + ")"


def _shifted(f1: DecoratedForest, f2: DecoratedForest) -> tuple:
    """The trees of f2 with its nonzero labels moved above those of f1."""
    shift = max(f1._decorations, default=0)
    return _redecorated(f2.trees, (d + shift if d else 0 for d in f2._decorations))


def _grafted(trees, onto: Mapping, count) -> tuple:
    """Encoded trees with the trees ``onto[j]`` added as children of node j,
    the nodes numbered in post-order by the counter ``count``."""
    return tuple((d, _grafted(kids, onto, count) + onto.get(next(count), ())) for d, kids in trees)


@lru_cache(maxsize=None)
def _gl_pair(f1: DecoratedForest, f2: DecoratedForest) -> Mapping:
    """Grossman-Larson product of two forests: graft the roots of f1 onto the
    nodes of f2 in all possible ways (including not grafting), with multiplicity."""
    high = _shifted(f1, f2)
    out: Counter = Counter()
    # target -1 leaves a root of f1 a root
    for targets in itertools.product(range(-1, f2.n_nodes), repeat=len(f1.trees)):
        onto: dict = {}
        for tree, j in zip(f1.trees, targets):
            onto[j] = onto.get(j, ()) + (tree,)
        grafted = onto.get(-1, ()) + _grafted(high, onto, itertools.count())
        out[DecoratedForest(_canonical(grafted))] += 1
    return dict(out)


def concat(f1: DecoratedForest, f2: DecoratedForest) -> DecoratedForest:
    """Concatenation product: disjoint union with disjoint nonzero decorations."""
    return DecoratedForest(_canonical(f1.trees + _shifted(f1, f2)))


# ---------------------------------------------------------------------------
# generators and exponentials

_BLACK = "[0]"
_LIANA_PAIR = "[1]·[1]"
_LIANA_CHAIN = "[1[1]]"


def generator_sum(calculus: str) -> ForestSum:
    """Forest-sum representation of the SDE generator (order-1 homogeneous)."""
    _check_calculus(calculus)
    terms = {parse_forest(_BLACK): 1, parse_forest(_LIANA_PAIR): Fraction(1, 2)}
    if calculus == STRATONOVICH:
        terms[parse_forest(_LIANA_CHAIN)] = Fraction(1, 2)
    return ForestSum(terms)


def generator_map(calculus: str) -> "CoefficientMap":
    """The generator as a coefficient map (forest-sum coefficients times symmetry)."""
    values = {f: symmetry(f) * c for f, c in generator_sum(calculus).terms()}
    return CoefficientMap(values, max_order=1)


@dataclass(frozen=True)
class CoefficientMap:
    """Assignment of rational coefficients to all forests up to ``max_order``."""

    values: Mapping
    max_order: int

    def __call__(self, f: DecoratedForest) -> Fraction:
        if f.order > self.max_order:
            raise CapacityError(f"coefficient map only defined up to order {self.max_order}")
        return self.values.get(f, _ZERO)

    def items(self):
        return sorted(self.values.items(), key=lambda kv: (kv[0].order, kv[0].trees))


def gl_exponential(generator: ForestSum, max_order: int) -> CoefficientMap:
    """Exact-flow coefficients from the Grossman-Larson exponential of the generator.

    The coefficient of a forest in ``sum_n generator^{<>n} / n!`` is multiplied
    by its symmetry coefficient, so the result pairs directly with the
    Runge-Kutta coefficient map of :func:`rk_coefficient_map`.
    """
    if generator.homogeneous_order() != 1:
        raise ValueError("generator must be homogeneous of order 1")
    if max_order > MAX_ORDER:
        raise CapacityError(f"supported up to order {MAX_ORDER}")
    series = ForestSum.unit()
    power = ForestSum.unit()
    for n in range(1, max_order + 1):
        power = power.gl(generator, max_order=max_order) * Fraction(1, n)
        series = series + power
    values = {f: symmetry(f) * c for f, c in series.terms()}
    return CoefficientMap(values, max_order=max_order)


@lru_cache(maxsize=None)
def exact_flow_coefficients(calculus: str, max_order: int) -> CoefficientMap:
    return gl_exponential(generator_sum(calculus), max_order)


# ---------------------------------------------------------------------------
# coproducts


def _cuts(tree):
    """The admissible cuts of an encoded tree as ``(pruned, kept)`` tuples of trees.

    Either the whole tree is pruned, or its root is kept and each child
    subtree is cut on its own; so no root-to-leaf path is cut twice.
    """
    yield (tree,), ()
    d, kids = tree
    for parts in itertools.product(*map(_cuts, kids)):
        yield sum((p for p, _ in parts), ()), ((d, sum((k for _, k in parts), ())),)


def bck_coproduct(f: DecoratedForest):
    """Butcher-Connes-Kreimer coproduct of an exotic forest.

    Returns a tuple of ``(pruned, remaining, multiplicity)`` triples, the
    admissible cuts: at most one severed edge per root-to-leaf path, whole
    trees may be pruned, and a cut that separates the two nodes of a liana is
    rejected (both sides must again be exotic forests).
    """
    if not f.is_exotic:
        raise ForestError("coproduct is defined on exotic forests")
    out: Counter = Counter()
    for parts in itertools.product(*map(_cuts, f.trees)):
        pruned = sum((p for p, _ in parts), ())
        kept = sum((k for _, k in parts), ())
        if (set(_preorder(pruned)) - {0}) & set(_preorder(kept)):
            continue
        out[(DecoratedForest(_canonical(pruned)), DecoratedForest(_canonical(kept)))] += 1
    return tuple((P, R, mult) for (P, R), mult in sorted(out.items(), key=lambda kv: (kv[0][0].trees, kv[0][1].trees)))


def deshuffle(f: DecoratedForest):
    """Deshuffle coproduct: all ordered splits of the liana-connected blocks.

    Trees joined by a shared decoration class always stay on the same side of
    the tensor.  Returns ``(left, right, multiplicity)`` triples; each distinct
    ordered pair of forests appears once.  Both sides of an order condition
    factor over the split: a forest's exact-flow target and its Runge-Kutta
    coefficient are those of ``left`` times those of ``right``.
    """
    blocks: list = []  # (labels, trees): root trees merged while they share a label
    for tree in f.trees:
        labels, trees = set(_preorder((tree,))) - {0}, (tree,)
        for block in [b for b in blocks if b[0] & labels]:
            blocks.remove(block)
            labels, trees = labels | block[0], block[1] + trees
        blocks.append((labels, trees))
    grouped = Counter(DecoratedForest(_canonical(trees)) for _, trees in blocks)
    items = sorted(grouped.items(), key=lambda kv: kv[0].trees)

    # a forest splits into its liana-connected blocks in one way only, so
    # distinct takes give distinct pairs
    out = []
    for take in itertools.product(*[range(mult + 1) for _, mult in items]):
        left = DecoratedForest.empty()
        right = DecoratedForest.empty()
        for (blk, mult), k in zip(items, take):
            for _ in range(k):
                left = concat(left, blk)
            for _ in range(mult - k):
                right = concat(right, blk)
        out.append((left, right, 1))
    return tuple(out)


def convolution_product(a: CoefficientMap, b: CoefficientMap, max_order: int) -> CoefficientMap:
    """Convolution of coefficient maps through the BCK coproduct on exotic forests."""
    values: dict = {}
    empty = DecoratedForest.empty()
    values[empty] = a(empty) * b(empty)
    for f in enumerate_forests(max_order, exotic_only=True):
        total = _ZERO
        for P, R, mult in bck_coproduct(f):
            total += mult * a(P) * b(R)
        if total:
            values[f] = total
    return CoefficientMap(values, max_order=max_order)


def convolution_exp(l: CoefficientMap, max_order: int) -> CoefficientMap:
    """Exponential ``sum_n l^{*n}/n!`` of an order-1 supported coefficient map.

    Because ``l`` is supported on order-1 forests and vanishes on the empty
    forest, the n-th convolution power is supported on forests of order
    exactly n, so the exponential truncates cleanly.
    """
    for f, c in l.items():
        if c and f.order != 1:
            raise ValueError("convolution exponential needs an order-1 supported map")
    empty = DecoratedForest.empty()
    values: dict = {empty: Fraction(1)}
    power = CoefficientMap({empty: Fraction(1)}, max_order=max_order)
    lifted = CoefficientMap(l.values, max_order=max_order)
    for n in range(1, max_order + 1):
        power = convolution_product(power, lifted, max_order)
        fact = Fraction(1, math.factorial(n))
        for f in enumerate_forests(max_order, exotic_only=True):
            if f.order == n:
                coeff = power(f) * fact
                if coeff:
                    values[f] = coeff
    return CoefficientMap(values, max_order=max_order)


# ---------------------------------------------------------------------------
# decoration refinement


def _set_partitions(elems, parts: str):
    """Set partitions of ``elems`` as lists of frozensets.

    ``parts`` restricts the part sizes: ``"even"`` or ``"pairs"``.
    The part holding the first element comes first, its other members chosen
    in ``itertools.combinations`` order.
    """
    elems = list(elems)
    if not elems:
        yield []
        return
    first = elems[0]
    rest = elems[1:]
    # how many other elements join the first one's part
    sizes = {"even": range(1, len(rest) + 1, 2), "pairs": (1,)}[parts]
    for k in sizes:
        for others in itertools.combinations(rest, k):
            part = frozenset((first,) + others)
            remaining = [e for e in rest if e not in part]
            for sub in _set_partitions(remaining, parts):
                yield [part] + sub


def _refinements(f: DecoratedForest, parts: str):
    """Every refinement of the decoration of ``f``, node by node in preorder.

    Each combination of one partition per nonzero decoration class, with the
    part sizes that ``parts`` names (see :func:`_set_partitions`), yields the
    forest that labels those parts 1, 2, ... in order.
    """
    classes: dict = {}  # label -> preorder positions of its nodes
    for i, d in enumerate(f._decorations):
        if d > 0:
            classes.setdefault(d, []).append(i)
    per_class = [list(_set_partitions(classes[lab], parts)) for lab in sorted(classes)]
    for combo in itertools.product(*per_class):
        new = [0] * f.n_nodes
        for label, part in enumerate(itertools.chain.from_iterable(combo), 1):
            for i in part:
                new[i] = label
        yield DecoratedForest(_canonical(_redecorated(f.trees, iter(new))))


def finer_decorations(f: DecoratedForest, exotic_only: bool = False):
    """All inequivalent refinements of the decoration, with multiplicities.

    A refinement splits each nonzero decoration class into smaller even
    classes (into pairs when ``exotic_only``).  The multiplicity of an output
    forest is the number of distinct refining decorations producing it.  It
    equals ``symmetry(f) / symmetry(refined)`` only when every automorphism
    of ``refined`` maps each class of ``f`` onto a class of ``f``; at order
    <= 3 exactly then.  Otherwise the count is the right quantity: the 3
    pairings of the size-4 class of ``[1]·[1]·[1]·[1]·[2]·[2]`` all give
    ``[1]·[1]·[2]·[2]·[3]·[3]``, and both forests have symmetry 48.
    """
    out = Counter(_refinements(f, "pairs" if exotic_only else "even"))
    return sorted(out.items(), key=lambda kv: kv[0].trees)


# ---------------------------------------------------------------------------
# Runge-Kutta coefficient map and differentials


# The coefficient block of an edge from a parent with noise label p to a
# child with label q (0 for a drift node); B1_diag joins two nodes of one
# noise class and reads Bhat1 in Stratonovich calculus.  A blocks act on a
# drift child, B blocks on a stochastic one.
def _edge_block(p: int, q: int) -> str:
    if p == 0:
        return "A0" if q == 0 else "B0"
    if q == 0:
        return "A1"
    return "B1_diag" if p == q else "B1"


@dataclass(frozen=True, eq=False)
class ContractionProgram:
    """A sequence of forests compiled into one tableau-independent contraction.

    ``nodes`` holds the distinct subtrees of all the forests in post-order
    (children first), each as ``(stochastic, slot, children)``: ``slot`` is
    its row in the drift or the stochastic weight array, and ``children``
    lists ``(block, child slot)`` pairs in the order the encoded tree lists
    them (an A block reads a drift row, a B block a stochastic one).  A
    subtree shared by several forests, or by one forest twice, is one node.
    ``roots`` are the distinct root nodes as ``(stochastic, slot)``, and
    ``root_rows`` gives each row's roots as positions in ``roots``.
    ``groups`` holds, per noise count, the rows it covers and their moment
    monomials; the empty forest is in no group and has weight 1.
    """

    n_drift: int
    n_stochastic: int
    nodes: tuple
    roots: tuple
    root_rows: tuple
    groups: tuple

    def evaluate(self, tableau) -> list:
        """The coefficient of ``tableau`` on every forest, in order, as floats.

        Row i is the product over its roots, left to right, of ``alpha @ w``
        or ``beta @ w``, times its moment; a row whose moment is zero is 0.0.
        A node's weight vector ``w`` is the elementwise product over its
        children c of ``M_c @ w_c`` (all ones at a leaf), formed once per
        distinct subtree into a preallocated row; the products run in the
        same order as for a forest on its own, so a row's bits do not depend
        on the other forests.  The products call ``ndarray.dot``, not ``@``:
        the same BLAS kernels without the ufunc dispatch, which is about half
        the cost of a call on these one- to four-element operands.
        """
        weights = np.ones(len(self.root_rows))  # the empty forest's stays 1
        for rows, monomials in self.groups:
            weights[rows] = randvars.expectations(tableau.family, monomials)
        drift, stochastic = w = (np.empty((self.n_drift, tableau.s1)), np.empty((self.n_stochastic, tableau.s2)))
        edges = {  # block name -> (matrix, the array its child rows live in)
            "A0": (tableau.A0, drift),
            "A1": (tableau.A1, drift),
            "B0": (tableau.B0, stochastic),
            "B1": (tableau.B1, stochastic),
            "B1_diag": (tableau.Bhat1 if tableau.calculus == STRATONOVICH else tableau.B1, stochastic),
        }
        for is_stochastic, v, children in self.nodes:
            out = w[is_stochastic][v]
            if not children:
                out.fill(1.0)
                continue
            (block, c), *rest = children
            matrix, source = edges[block]
            matrix.dot(source[c], out=out)
            for block, c in rest:
                matrix, source = edges[block]
                out *= matrix.dot(source[c])
        root_values = [
            float((tableau.beta if is_stochastic else tableau.alpha).dot(w[is_stochastic][v]))
            for is_stochastic, v in self.roots
        ]
        return [
            0.0 if weight == 0.0 else math.prod([root_values[k] for k in roots]) * weight
            for roots, weight in zip(self.root_rows, weights.tolist())
        ]


@lru_cache(maxsize=1024)
def contraction_program(forests: tuple, noise_labels: tuple | None = None) -> ContractionProgram:
    """Compile forests into a :class:`ContractionProgram`, once per argument set.

    Distinct decoration classes of each forest are bound to fixed distinct
    noise labels (1, 2, ... unless ``noise_labels`` overrides them for every
    forest).  Each row's moment monomial has one factor ``theta_p`` per
    stochastic root and one ``Theta[p][q]`` per edge that is not between two
    drift nodes; the monomials are checked here, once.
    """
    slots: dict = {}  # (stochastic, children) -> row in its weight array
    counts = [0, 0]  # drift and stochastic rows so far
    nodes, roots, root_rows, by_m = [], {}, [], {}

    def compile_tree(tree, label, monomial) -> int:
        """Slot of an encoded subtree, its children compiled first; appends
        the subtree's Theta factors to ``monomial``, one per edge in preorder."""
        d, kids = tree
        children = []
        for child in kids:
            block = (label[d], label[child[0]])
            if block != (0, 0):
                monomial.append(("Theta", *block))
            children.append((_edge_block(*block), compile_tree(child, label, monomial)))
        node = (d != 0, tuple(children))
        if node not in slots:
            slots[node] = counts[node[0]]
            counts[node[0]] += 1
            nodes.append((node[0], slots[node], node[1]))
        return slots[node]

    for i, f in enumerate(forests):
        if not f.trees:
            root_rows.append(())
            continue
        classes = sorted(f.decoration_sizes)
        labels = tuple(range(1, len(classes) + 1)) if noise_labels is None else noise_labels
        if len(labels) != len(classes):
            raise ValueError("need one noise label per decoration class")
        label = {0: 0, **dict(zip(classes, labels))}
        monomial = [("theta", label[d]) for d in f.roots if label[d] != 0]
        root_rows.append(
            tuple(roots.setdefault((t[0] != 0, compile_tree(t, label, monomial)), len(roots)) for t in f.trees)
        )
        rows, monomials = by_m.setdefault(max((1,) + labels), ([], []))
        rows.append(i)
        monomials.append(monomial)

    groups = tuple(
        (np.array(rows, dtype=np.intp), randvars.Monomials(m, monomials))
        for m, (rows, monomials) in sorted(by_m.items())
    )
    return ContractionProgram(
        n_drift=counts[0],
        n_stochastic=counts[1],
        nodes=tuple(nodes),
        roots=tuple(roots),
        root_rows=tuple(root_rows),
        groups=groups,
    )


def rk_coefficient_map(tableau, f: DecoratedForest, noise_labels: Sequence[int] | None = None) -> float:
    """Coefficient of a method tableau on a decorated forest.

    Nodes are summed over stage indices (deterministic stages for decoration
    zero, stochastic ones otherwise); each root contributes ``alpha_i`` or
    ``beta_i theta_p`` and each edge the matching coefficient block times the
    corresponding Theta variable.  Distinct decoration classes are bound to
    fixed distinct noise labels (1, 2, ... unless ``noise_labels`` overrides)
    and the expectation is evaluated exactly over the family's atom table.
    The stage contraction and the moment factor separate because the
    coefficient blocks are deterministic.  This is the one-forest case of
    :func:`contraction_program`.
    """
    if noise_labels is not None:
        noise_labels = tuple(noise_labels)
    return contraction_program((f,), noise_labels).evaluate(tableau)[0]


_ROOT_LETTERS = "ijklabc"


def elementary_differential_string(f: DecoratedForest) -> str:
    """Index-notation elementary differential, e.g. ``"phi_i f^{p1,i}_{i1} f^{p1,i1}"``.

    Each tree's root takes the next letter of ``ijklabc`` and every other node
    that letter followed by its preorder number in the tree, so the string
    depends only on the forest's encoding.
    """
    if not f.trees:
        return "phi"
    if len(f.trees) > len(_ROOT_LETTERS):
        raise CapacityError(
            f"an elementary differential names at most {len(_ROOT_LETTERS)} roots "
            f"({_ROOT_LETTERS}), got {len(f.trees)}"
        )
    parts = ["phi_" + _ROOT_LETTERS[: len(f.trees)]]
    for letter, tree in zip(_ROOT_LETTERS, f.trees):
        nodes = _preorder_children(tree)
        names = [letter] + [f"{letter}{k}" for k in range(1, len(nodes))]
        for name, (d, kids) in zip(names, nodes):
            sub = "".join(names[k] for k in kids)
            parts.append(f"f^{{{f'p{d}' if d else '0'},{name}}}" + (f"_{{{sub}}}" if sub else ""))
    return " ".join(parts)
