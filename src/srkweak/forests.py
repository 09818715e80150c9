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
decoration-refinement combinatorics with Moebius inversion, elementary
differential rendering, and the Runge-Kutta coefficient map of a method
tableau on a forest.

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import randvars
from .randvars import ITO, STRATONOVICH, CapacityError

__all__ = [
    "DecoratedForest",
    "ForestSum",
    "CoefficientMap",
    "ForestError",
    "PosetError",
    "CapacityError",
    "canonicalize",
    "parse_forest",
    "enumerate_forests",
    "symmetry",
    "concat",
    "gl_product",
    "gl_exponential",
    "bck_coproduct",
    "deshuffle",
    "convolution_product",
    "convolution_exp",
    "finer_decorations",
    "moebius",
    "generator_sum",
    "generator_map",
    "exact_flow_coefficients",
    "rk_coefficient_map",
    "elementary_differential_string",
]

MAX_ORDER = 3


class ForestError(ValueError):
    """Raised for structurally invalid forests (cycles, odd decoration class)."""


class PosetError(ForestError):
    """Raised when two forests are not comparable in the refinement order."""


# A canonical tree is a nested tuple (decoration, (child, child, ...)) with
# children sorted; a canonical forest is a sorted tuple of canonical trees.


def _adjacency(nodes, edges):
    """``(parent, children, roots)`` of a graph given by (child, parent) edges."""
    parent = dict(edges)
    children: dict = {v: [] for v in nodes}
    for c, p in edges:
        children[p].append(c)
    return parent, children, [v for v in nodes if v not in parent]


def _encode_tree(v, children, dec, relabel):
    kids = tuple(sorted(_encode_tree(c, children, dec, relabel) for c in children[v]))
    return (relabel[dec[v]], kids)


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
    # acyclicity: walking to the root must terminate
    for v in nodes:
        seen = {v}
        w = v
        while w in parent:
            w = parent[w]
            if w in seen:
                raise ForestError("cycle detected in forest edges")
            seen.add(w)
    dec = {}
    for v in nodes:
        value = decoration.get(v, 0) if isinstance(decoration, Mapping) else decoration[v]
        value = int(value)
        if value < 0:
            raise ForestError("decorations must be nonnegative integers")
        dec[v] = value
    class_sizes = Counter(d for d in dec.values() if d > 0)
    for label, size in class_sizes.items():
        if size % 2:
            raise ForestError(f"decoration class {label} has odd size {size}")

    _, children, roots = _adjacency(nodes, parent.items())
    labels = sorted(class_sizes)
    best = None
    for perm in itertools.permutations(range(1, len(labels) + 1)):
        relabel = {0: 0}
        relabel.update(dict(zip(labels, perm)))
        key = tuple(sorted(_encode_tree(r, children, dec, relabel) for r in roots))
        if best is None or key < best:
            best = key
    return best if best is not None else ()


@dataclass(frozen=True)
class DecoratedForest:
    """A decorated rooted forest in canonical form.

    ``trees`` is the canonical nested-tuple encoding; equality and hashing go
    through it, so two forests compare equal iff they are equivalent.
    """

    trees: tuple

    @classmethod
    def from_graph(cls, nodes, edges, decoration) -> "DecoratedForest":
        return cls(_canonical_trees(nodes, edges, decoration))

    @classmethod
    def from_text(cls, text: str) -> "DecoratedForest":
        return parse_forest(text)

    @classmethod
    def empty(cls) -> "DecoratedForest":
        return cls(())

    @classmethod
    def single(cls, dec: int = 0) -> "DecoratedForest":
        return cls.from_graph([0], [], {0: dec})

    @cached_property
    def _decorations(self) -> tuple:
        """The node decorations in depth-first preorder."""
        out: list = []
        stack = list(reversed(self.trees))
        while stack:
            t = stack.pop()
            out.append(t[0])
            stack.extend(reversed(t[1]))
        return tuple(out)

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
        nodes: list = []
        edges: list = []
        dec: dict = {}

        def walk(t, par):
            v = len(nodes)
            nodes.append(v)
            dec[v] = t[0]
            if par is not None:
                edges.append((v, par))
            for c in t[1]:
                walk(c, v)

        for t in self.trees:
            walk(t, None)
        return nodes, edges, dec

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


def canonicalize(nodes, edges, decoration) -> DecoratedForest:
    """Canonical form of a raw decorated graph; ``edges`` are (child, parent)."""
    return DecoratedForest.from_graph(nodes, edges, decoration)


def parse_forest(text: str) -> DecoratedForest:
    """Parse the nested-bracket forest notation, e.g. ``"[0[1][1]]·[0]"``."""
    s = text.strip()
    if s in ("1", ""):
        return DecoratedForest.empty()
    nodes: list = []
    edges: list = []
    dec: dict = {}

    def new_node(d, parent):
        v = len(nodes)
        nodes.append(v)
        dec[v] = d
        if parent is not None:
            edges.append((v, parent))
        return v

    pos = 0
    stack: list = []
    while pos < len(s):
        ch = s[pos]
        if ch == "[":
            pos += 1
            start = pos
            while pos < len(s) and s[pos].isdigit():
                pos += 1
            if pos == start:
                raise ForestError(f"expected decoration digits at position {start} of {text!r}")
            d = int(s[start:pos])
            parent = stack[-1] if stack else None
            stack.append(new_node(d, parent))
        elif ch == "]":
            if not stack:
                raise ForestError(f"unbalanced ']' in {text!r}")
            stack.pop()
            pos += 1
        elif ch in "·." and not stack:
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            raise ForestError(f"unexpected character {ch!r} in {text!r}")
    if stack:
        raise ForestError(f"unbalanced '[' in {text!r}")
    return DecoratedForest.from_graph(nodes, edges, dec)


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


@lru_cache(maxsize=None)
def enumerate_forests(max_order: int, exotic_only: bool = False) -> tuple:
    """All decorated forests with 1 <= order <= max_order, sorted by (order, key).

    With ``exotic_only`` the result is restricted to exotic forests.  Supported
    up to order 3; the enumeration is cross-checked against the known counts
    at order <= 2 by the test suite.
    """
    if max_order > MAX_ORDER:
        raise CapacityError(f"forest enumeration supports order <= {MAX_ORDER}")
    found = set()
    for n in range(1, 2 * max_order + 1):
        for shape in _forest_shapes(n):
            if not shape:
                continue
            nodes, edges, _ = DecoratedForest(shape).graph()
            max_label = n // 2
            for decs in itertools.product(range(max_label + 1), repeat=n):
                sizes = Counter(d for d in decs if d > 0)
                if any(size % 2 for size in sizes.values()):
                    continue
                f = DecoratedForest.from_graph(nodes, edges, dict(enumerate(decs)))
                if f.order > max_order:
                    continue
                if exotic_only and not f.is_exotic:
                    continue
                found.add(f)
    return tuple(sorted(found, key=lambda f: (f.order, f.trees)))


# ---------------------------------------------------------------------------
# symmetry


def _structure_code(tree):
    return tuple(sorted(_structure_code(c) for c in tree[1]))


def symmetry(f: DecoratedForest) -> int:
    """Number of automorphisms of the decorated forest.

    An automorphism is a node bijection preserving the edges and mapping the
    decoration to an equivalent one (nonzero classes may be permuted).
    """
    nodes, edges, dec = f.graph()
    n = len(nodes)
    if n == 0:
        return 1
    parent = {c: p for c, p in edges}
    count = 0
    for perm in itertools.permutations(range(n)):
        ok = True
        for v in range(n):
            pv = parent.get(v)
            pw = parent.get(perm[v])
            if (pv is None) != (pw is None) or (pv is not None and perm[pv] != pw):
                ok = False
                break
        if not ok:
            continue
        # decoration must map through a label bijection fixing 0
        relabel: dict = {}
        image = set()
        for v in range(n):
            a, b = dec[v], dec[perm[v]]
            if (a == 0) != (b == 0):
                ok = False
                break
            if a in relabel:
                if relabel[a] != b:
                    ok = False
                    break
            else:
                if b in image:
                    ok = False
                    break
                relabel[a] = b
                image.add(b)
        if ok:
            count += 1
    return count


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
                coeff = Fraction(coeff)
                if coeff:
                    data[forest] = data.get(forest, _ZERO) + coeff
                    if not data[forest]:
                        del data[forest]
        self._terms = {f: c for f, c in data.items() if c}

    @classmethod
    def unit(cls) -> "ForestSum":
        return cls({DecoratedForest.empty(): Fraction(1)})

    @classmethod
    def zero(cls) -> "ForestSum":
        return cls()

    def coefficient(self, f: DecoratedForest) -> Fraction:
        return self._terms.get(f, _ZERO)

    def terms(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0].order, kv[0].trees))

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "ForestSum") -> "ForestSum":
        out = dict(self._terms)
        for f, c in other._terms.items():
            out[f] = out.get(f, _ZERO) + c
        return ForestSum(out)

    def __mul__(self, scalar) -> "ForestSum":
        q = Fraction(scalar)
        return ForestSum({f: c * q for f, c in self._terms.items()})

    __rmul__ = __mul__

    def truncate(self, max_order) -> "ForestSum":
        return ForestSum({f: c for f, c in self._terms.items() if f.order <= max_order})

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


def _shifted_graphs(f1: DecoratedForest, f2: DecoratedForest):
    """Representative graphs of f1 and f2 with disjoint ids and nonzero labels."""
    n1, e1, d1 = f1.graph()
    n2, e2, d2 = f2.graph()
    off = len(n1)
    shift = max([0] + [d for d in d1.values()])
    n2 = [v + off for v in n2]
    e2 = [(c + off, p + off) for c, p in e2]
    d2 = {v + off: (d + shift if d > 0 else 0) for v, d in d2.items()}
    return (n1, e1, d1), (n2, e2, d2)


@lru_cache(maxsize=None)
def _gl_pair(f1: DecoratedForest, f2: DecoratedForest) -> Mapping:
    """Grossman-Larson product of two forests: graft the roots of f1 onto the
    nodes of f2 in all possible ways (including not grafting), with multiplicity."""
    (n1, e1, d1), (n2, e2, d2) = _shifted_graphs(f1, f2)
    roots1 = sorted(set(n1) - {c for c, _ in e1})
    nodes = n1 + n2
    dec = {**d1, **d2}
    out: Counter = Counter()
    for targets in itertools.product([None] + n2, repeat=len(roots1)):
        edges = list(e1) + list(e2)
        edges += [(r, t) for r, t in zip(roots1, targets) if t is not None]
        out[DecoratedForest.from_graph(nodes, edges, dec)] += 1
    return dict(out)


def gl_product(a, b) -> ForestSum:
    """Grossman-Larson product, bilinear over forest sums."""
    if isinstance(a, DecoratedForest):
        a = ForestSum({a: 1})
    if isinstance(b, DecoratedForest):
        b = ForestSum({b: 1})
    return a.gl(b)


def concat(f1: DecoratedForest, f2: DecoratedForest) -> DecoratedForest:
    """Concatenation product: disjoint union with disjoint nonzero decorations."""
    (n1, e1, d1), (n2, e2, d2) = _shifted_graphs(f1, f2)
    return DecoratedForest.from_graph(n1 + n2, list(e1) + list(e2), {**d1, **d2})


# ---------------------------------------------------------------------------
# generators and exponentials

_BLACK = "[0]"
_LIANA_PAIR = "[1]·[1]"
_LIANA_CHAIN = "[1[1]]"


def generator_sum(calculus: str) -> ForestSum:
    """Forest-sum representation of the SDE generator (order-1 homogeneous)."""
    black = parse_forest(_BLACK)
    pair = parse_forest(_LIANA_PAIR)
    chain = parse_forest(_LIANA_CHAIN)
    if calculus == ITO:
        return ForestSum({black: 1, pair: Fraction(1, 2)})
    if calculus == STRATONOVICH:
        return ForestSum({black: 1, pair: Fraction(1, 2), chain: Fraction(1, 2)})
    raise ValueError(f"unknown calculus {calculus!r}")


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


def _descendants(v, children):
    out = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for c in children[w]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _class_integrity_ok(node_sets, dec) -> bool:
    """Every nonzero decoration class lies entirely inside one side."""
    side_of: dict = {}
    for side, nodes in enumerate(node_sets):
        for v in nodes:
            d = dec[v]
            if d == 0:
                continue
            if d in side_of and side_of[d] != side:
                return False
            side_of[d] = side
    return True


def _subforest(nodes, edges, dec) -> DecoratedForest:
    node_set = set(nodes)
    sub_edges = [(c, p) for c, p in edges if c in node_set and p in node_set]
    return DecoratedForest.from_graph(list(nodes), sub_edges, {v: dec[v] for v in nodes})


def bck_coproduct(f: DecoratedForest):
    """Butcher-Connes-Kreimer coproduct of an exotic forest.

    Returns a tuple of ``(pruned, remaining, multiplicity)`` triples, the
    admissible cuts: at most one severed edge per root-to-leaf path, whole
    trees may be pruned, and a cut that separates the two nodes of a liana is
    rejected (both sides must again be exotic forests).
    """
    if not f.is_exotic:
        raise ForestError("coproduct is defined on exotic forests")
    nodes, edges, dec = f.graph()
    parent, children, roots = _adjacency(nodes, edges)

    def ancestors(v):
        out = set()
        while v in parent:
            v = parent[v]
            out.add(v)
        return out

    anc = {v: ancestors(v) for v in nodes}

    tree_options = []  # per tree: list of P-node-sets
    for r in roots:
        tree_nodes = _descendants(r, children)
        tree_edges = [(c, p) for c, p in edges if c in tree_nodes]
        options = [frozenset(tree_nodes)]  # prune the whole tree
        edge_children = [c for c, _ in tree_edges]
        for k in range(len(edge_children) + 1):
            for cut in itertools.combinations(edge_children, k):
                # admissible: no two cut edges on one root-to-leaf path
                if any(
                    c1 in anc[c2] or c2 in anc[c1]
                    for c1, c2 in itertools.combinations(cut, 2)
                ):
                    continue
                pruned: set = set()
                for c in cut:
                    pruned |= _descendants(c, children)
                options.append(frozenset(pruned))
        tree_options.append(options)

    out: Counter = Counter()
    for combo in itertools.product(*tree_options):
        p_nodes = set().union(*combo) if combo else set()
        r_nodes = set(nodes) - p_nodes
        if not _class_integrity_ok((p_nodes, r_nodes), dec):
            continue
        P = _subforest(sorted(p_nodes), edges, dec)
        R = _subforest(sorted(r_nodes), edges, dec)
        out[(P, R)] += 1
    return tuple((P, R, mult) for (P, R), mult in sorted(out.items(), key=lambda kv: (kv[0][0].trees, kv[0][1].trees)))


def deshuffle(f: DecoratedForest):
    """Deshuffle coproduct: all ordered splits of the liana-connected blocks.

    Trees joined by a shared decoration class always stay on the same side of
    the tensor.  Returns ``(left, right, multiplicity)`` triples; each distinct
    ordered pair of forests appears once.
    """
    nodes, edges, dec = f.graph()
    _, children, roots = _adjacency(nodes, edges)

    # union-find over trees, merging trees that share a decoration class
    comp = list(range(len(roots)))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    tree_of: dict = {}
    for i, r in enumerate(roots):
        for v in _descendants(r, children):
            tree_of[v] = i
    class_trees: dict = {}
    for v in nodes:
        d = dec[v]
        if d > 0:
            class_trees.setdefault(d, set()).add(tree_of[v])
    for trees in class_trees.values():
        trees = sorted(trees)
        for t in trees[1:]:
            comp[find(t)] = find(trees[0])

    blocks: dict = {}
    for i, r in enumerate(roots):
        blocks.setdefault(find(i), set()).update(_descendants(r, children))
    block_forests = [_subforest(sorted(b), edges, dec) for b in blocks.values()]
    grouped = Counter(block_forests)
    items = sorted(grouped.items(), key=lambda kv: kv[0].trees)

    out = []
    seen = set()
    for take in itertools.product(*[range(mult + 1) for _, mult in items]):
        left = DecoratedForest.empty()
        right = DecoratedForest.empty()
        for (blk, mult), k in zip(items, take):
            for _ in range(k):
                left = concat(left, blk)
            for _ in range(mult - k):
                right = concat(right, blk)
        if (left, right) not in seen:
            seen.add((left, right))
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
    for n in range(1, max_order + 1):
        lifted = CoefficientMap(dict(l.values), max_order=max_order)
        power = convolution_product(power, lifted, max_order)
        fact = Fraction(1, math.factorial(n))
        for f in enumerate_forests(max_order, exotic_only=True):
            if f.order == n:
                coeff = power(f) * fact
                if coeff:
                    values[f] = coeff
    return CoefficientMap(values, max_order=max_order)


# ---------------------------------------------------------------------------
# decoration refinement and Moebius inversion


def _set_partitions(elems, parts: str = "any"):
    """Set partitions of ``elems`` as lists of frozensets.

    ``parts`` restricts the part sizes: ``"any"``, ``"even"`` or ``"pairs"``.
    The part holding the first element comes first, its other members chosen
    in ``itertools.combinations`` order.
    """
    elems = list(elems)
    if not elems:
        yield []
        return
    first = elems[0]
    rest = elems[1:]
    if parts == "pairs":
        sizes = (1,)
    elif parts == "even":
        sizes = range(1, len(rest) + 1, 2)
    else:
        sizes = range(len(rest) + 1)
    for k in sizes:
        for others in itertools.combinations(rest, k):
            part = frozenset((first,) + others)
            remaining = [e for e in rest if e not in part]
            for sub in _set_partitions(remaining, parts):
                yield [part] + sub


def _refinements(f: DecoratedForest, parts: str):
    """Every refinement of the decoration of ``f``'s representative graph.

    Yields ``(combo, refined)``: ``combo`` holds one partition of each
    nonzero decoration class (in label order), with the part sizes that
    ``parts`` names (see :func:`_set_partitions`), and ``refined`` is the
    forest that labels those parts 1, 2, ... in order.
    """
    nodes, edges, dec = f.graph()
    classes: dict = {}
    for v in nodes:
        if dec[v] > 0:
            classes.setdefault(dec[v], []).append(v)
    per_class = [list(_set_partitions(classes[lab], parts)) for lab in sorted(classes)]
    for combo in itertools.product(*per_class):
        new_dec = {v: 0 for v in nodes}
        next_label = 1
        for class_parts in combo:
            for part in sorted(class_parts, key=sorted):
                for v in part:
                    new_dec[v] = next_label
                next_label += 1
        yield combo, DecoratedForest.from_graph(nodes, edges, new_dec)


def finer_decorations(f: DecoratedForest, exotic_only: bool = False):
    """All inequivalent refinements of the decoration, with multiplicities.

    A refinement splits each nonzero decoration class into smaller even
    classes (into pairs when ``exotic_only``).  The multiplicity of an output
    forest is the number of distinct refining decorations producing it; it
    always equals ``symmetry(f) / symmetry(refined)``.
    """
    out = Counter(refined for _, refined in _refinements(f, "pairs" if exotic_only else "even"))
    return sorted(out.items(), key=lambda kv: kv[0].trees)


def moebius(fine: DecoratedForest, coarse: DecoratedForest) -> int:
    """Moebius function of the decoration-refinement poset between two forests.

    ``fine`` must refine ``coarse``; the recursion is
    ``mu(f, f) = 1`` and ``mu(f, c) = -sum_{f <= d < c} mu(f, d)`` over the
    intermediate decorations of a fixed representative of ``coarse``.
    """
    match = next((combo for combo, refined in _refinements(coarse, "even") if refined == fine), None)
    if match is None:
        raise PosetError("first forest does not refine the second")

    # poset element: per class, a partition of that class's fine parts
    bottom = tuple(frozenset(frozenset((p,)) for p in parts) for parts in match)
    top = tuple(frozenset((frozenset(parts),)) for parts in match)

    def refinements_below(elem):
        per_class = []
        for blocks in elem:
            choices = []
            for block_partition in itertools.product(
                *[list(_set_partitions(sorted(block, key=sorted))) for block in sorted(blocks, key=sorted)]
            ):
                merged = frozenset(
                    frozenset(part) for parts in block_partition for part in parts
                )
                choices.append(merged)
            per_class.append(sorted(set(choices), key=sorted))
        for combo in itertools.product(*per_class):
            yield tuple(combo)

    memo: dict = {}

    def mu_of(elem):
        if elem == bottom:
            return 1
        if elem in memo:
            return memo[elem]
        total = 0
        for below in refinements_below(elem):
            if below != elem:
                total -= mu_of(below)
        memo[elem] = total
        return total

    return mu_of(top)


# ---------------------------------------------------------------------------
# Runge-Kutta coefficient map and differentials


@lru_cache(maxsize=1024)
def _contraction_plan(f: DecoratedForest, noise_labels: tuple | None):
    """The tableau-independent part of :func:`rk_coefficient_map` for one forest.

    Returns ``(m, monomial, roots, post_order)``: the noise count, the moment
    monomial, the roots as ``(node, stochastic)`` and every node as
    ``(node, stochastic, children)`` in post-order (children before parents),
    where ``children`` holds ``(child, block)`` pairs naming the coefficient
    block of the edge: ``"A0"``, ``"B0"``, ``"A1"``, ``"B1"`` or ``"B1_diag"``
    (a stochastic edge within one noise class, Bhat1 in Stratonovich calculus).
    """
    nodes, edges, dec = f.graph()
    classes = sorted({d for d in dec.values() if d > 0})
    if noise_labels is None:
        noise_labels = tuple(range(1, len(classes) + 1))
    if len(noise_labels) != len(classes):
        raise ValueError("need one noise label per decoration class")
    label = {0: 0}
    label.update(dict(zip(classes, noise_labels)))
    m = max((1,) + noise_labels)

    _, _, roots = _adjacency(nodes, edges)
    monomial = [(("theta", label[dec[r]]), 1) for r in roots if label[dec[r]] != 0]
    children = {v: [] for v in nodes}
    for child, par in edges:
        p, q = label[dec[par]], label[dec[child]]
        if (p, q) != (0, 0):
            monomial.append((("Theta", p, q), 1))
        if p == 0:
            block = "A0" if q == 0 else "B0"
        elif q == 0:
            block = "A1"
        else:
            block = "B1_diag" if p == q else "B1"
        children[par].append((child, block))
    # graph() numbers every node after its parent
    post_order = tuple((v, dec[v] != 0, tuple(children[v])) for v in reversed(nodes))
    return m, tuple(monomial), tuple((r, dec[r] != 0) for r in roots), post_order


@lru_cache(maxsize=None)
def _ones(n: int) -> np.ndarray:
    """A shared read-only vector of ``n`` ones, the weight of every leaf."""
    ones = np.ones(n)
    ones.setflags(write=False)
    return ones


def rk_coefficient_map(tableau, f: DecoratedForest, noise_labels: Sequence[int] | None = None) -> float:
    """Coefficient of a method tableau on a decorated forest.

    Nodes are summed over stage indices (deterministic stages for decoration
    zero, stochastic ones otherwise); each root contributes ``alpha_i`` or
    ``beta_i theta_p`` and each edge the matching coefficient block times the
    corresponding Theta variable.  Distinct decoration classes are bound to
    fixed distinct noise labels (1, 2, ... unless ``noise_labels`` overrides)
    and the expectation is evaluated exactly over the family's atom table.
    The stage contraction and the moment factor separate because the
    coefficient blocks are deterministic.

    The stage sum is contracted bottom-up: each node's weight vector is the
    elementwise product over its children c of ``M_c @ w_c`` (all ones at a
    leaf), and the sum is the product over roots of ``alpha @ w`` or
    ``beta @ w``.  A leaf reads a shared ones vector and an inner node starts
    from its first child's product, so no node allocates a vector of its own.
    """
    if not f.trees:
        return 1.0
    if noise_labels is not None:
        noise_labels = tuple(noise_labels)
    m, monomial, roots, post_order = _contraction_plan(f, noise_labels)
    family = randvars.RvFamily.make(tableau.calculus, tableau.c)
    weight = randvars.moment(family, m, monomial)
    if weight == 0.0:
        return 0.0

    blocks = {
        "A0": tableau.A0,
        "B0": tableau.B0,
        "A1": tableau.A1,
        "B1": tableau.B1,
        "B1_diag": tableau.Bhat1 if tableau.calculus == STRATONOVICH else tableau.B1,
    }
    w = {}
    for v, stochastic, children in post_order:
        if not children:
            w[v] = _ones(tableau.s2 if stochastic else tableau.s1)
            continue
        (c, block), *rest = children
        vec = blocks[block] @ w[c]
        for c, block in rest:
            vec *= blocks[block] @ w[c]
        w[v] = vec
    total = 1.0
    for r, stochastic in roots:
        total *= (tableau.beta if stochastic else tableau.alpha) @ w[r]
    return float(total * weight)


_ROOT_LETTERS = "ijklabc"


def elementary_differential_string(f: DecoratedForest) -> str:
    """Index-notation elementary differential, e.g. ``"phi_i f^{p1,i}_{i1} f^{p1,i1}"``."""
    if not f.trees:
        return "phi"
    parts = []
    root_indices = []
    pieces = []
    for t_idx, tree in enumerate(f.trees):
        letter = _ROOT_LETTERS[t_idx]
        root_indices.append(letter)
        counter = itertools.count(1)
        index: dict = {}

        def assign(t, idx):
            index[id(t)] = idx
            for c in t[1]:
                assign(c, f"{letter}{next(counter)}")

        assign(tree, letter)

        def render(t):
            dec = t[0]
            sup = "0" if dec == 0 else f"p{dec}"
            child_idx = "".join(index[id(c)] for c in t[1])
            term = f"f^{{{sup},{index[id(t)]}}}"
            if child_idx:
                term += f"_{{{child_idx}}}"
            pieces.append(term)
            for c in t[1]:
                render(c)

        render(tree)
    parts.append("phi_" + "".join(root_indices))
    parts.extend(pieces)
    return " ".join(parts)
