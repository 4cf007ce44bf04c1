"""Convex linear orders: enumeration, order types, Ramsey degrees, and the
order-invariant hull.

The convex orders of a space are exactly its sibling rearrangements: each
ball's children follow one another in any arrangement, each read in one of
its own convex orders.  Enumeration folds over the branching balls of the
canonical walk, joins every arrangement of a ball's children with every
choice of their orders, and sorts the result once, so its cost is linear
in its output up to that sort.

Two convex orders have the same *order type* when the unique
order-preserving bijection between them is an isometry.  The isometries
act freely on the convex orders, so each type has ``iso`` members, and the
number of types, the Ramsey degree of the space, is ``clo / iso``.  The
same fold lists a ball's types as its sequences of slots, each a child
class and one of its types, every class filling one slot per child of it.
A type's least order fills the slots from left to right, each with the
unused child of its class whose least order of the slot's type starts
lowest.  That is exact: an isometry fixing the prefix fixes every used
child, so it only permutes the unused isomorphic children and acts inside
them, and blocks in different children start at different points.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, permutations, product
from math import prod

from .errors import InternalNonIntegerTau
from .spaces import UltrametricSpace, _fold, _steps, canonical_convex_order
from .trees import (
    LeveledTree,
    _Classes,
    _uniform_joins,
    branchings,
    canonical_tree,
    count_automorphisms,
    count_sibling_orderings,
    tree_to_space,
)


@dataclass(frozen=True)
class OrderTypeClass:
    """One order type: its lexicographically least convex order and its
    number of convex orders, the isometry count of the space."""

    representative: tuple[int, ...]
    size: int


@dataclass(frozen=True)
class RamseyDegreeReport:
    clo_count: int
    iso_count: int
    tau: int


def enumerate_convex_orders(space: UltrametricSpace) -> list[tuple[int, ...]]:
    """Every convex order exactly once, in lexicographic index order: the
    sibling rearrangements of the canonical walk's balls, sorted."""
    walk = canonical_convex_order(space)

    def node(_, kids: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for arrangement in permutations(kids):
            joined = arrangement[0]
            for orders in arrangement[1:]:
                joined = [a + b for a in joined for b in orders]
            out += joined
        return out

    orders = _fold(_steps(space.ranks, walk), [[(p,)] for p in walk], node)
    orders.sort()
    return orders


def count_convex_orders(space: UltrametricSpace) -> int:
    """Closed form: the product of (child count)! over the internal nodes of
    the space's tree, since convex orders are exactly the sibling
    rearrangements."""
    return count_sibling_orderings(canonical_tree(space))


def order_profile(space: UltrametricSpace, order: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Distance sequence read along an order; equal profiles mean the unique
    order-preserving bijection is an isometry."""
    return tuple(space.dist[p][q] for p, q in combinations(order, 2))


def order_type_partition(space: UltrametricSpace) -> list[OrderTypeClass]:
    """One class per order type, by ascending representative, the type's
    lexicographic minimum, read off the fold of the module docstring."""
    walk = canonical_convex_order(space)
    classes = _Classes()
    types: dict[tuple, int] = {}

    # a ball's value: its class id, and its least order of each type id
    def node(key, kids: list[tuple[int, dict]]) -> tuple[int, dict]:
        cls = classes(key, [c for c, _ in kids])
        # the children that can fill each slot (c, t), by where their least
        # order of type t starts; each class's slots interleave with the rest
        ranked: dict[tuple[int, int], list[int]] = {}
        for x, (c, least) in enumerate(kids):
            for t in least:
                ranked.setdefault((c, t), []).append(x)
        for (_, t), xs in ranked.items():
            xs.sort(key=lambda x: kids[x][1][t][0])
        sequences: list[tuple] = [()]
        for c, m in Counter([c for c, _ in kids]).items():
            options = [slot for slot in ranked if slot[0] == c]
            sequences = [
                _interleave(slots, run, at)
                for slots in sequences
                for run in product(options, repeat=m)
                for at in combinations(range(len(slots) + m), m)
            ]
        out = {}
        for slots in sequences:
            used: set[int] = set()
            skip: dict[tuple[int, int], int] = {}
            order: list[int] = []
            for slot in slots:
                xs, i = ranked[slot], skip.get(slot, 0)
                while xs[i] in used:
                    i += 1
                skip[slot] = i + 1
                used.add(xs[i])
                order += kids[xs[i]][1][slot[1]]
            out[types.setdefault((cls, slots), len(types) + 1)] = tuple(order)
        return cls, out

    cls, least = _fold(_steps(space.ranks, walk), [(0, {0: (p,)}) for p in walk], node)
    return [OrderTypeClass(rep, classes.auts[cls]) for rep in sorted(least.values())]


def _interleave(slots: tuple, run: tuple, at: tuple[int, ...]) -> tuple:
    """``slots`` with the items of ``run`` inserted to land at positions ``at``."""
    out = list(slots)
    for i, item in zip(at, run):
        out.insert(i, item)
    return tuple(out)


def tau(space: UltrametricSpace) -> RamseyDegreeReport:
    """Ramsey degree report: convex-order count, isometry count, and their
    exact quotient."""
    return _tree_report(canonical_tree(space))


def _tree_report(tree: LeveledTree) -> RamseyDegreeReport:
    clo = count_sibling_orderings(tree)
    iso = count_automorphisms(tree)
    if clo % iso != 0:
        raise InternalNonIntegerTau(f"{clo} not divisible by {iso}")
    return RamseyDegreeReport(clo_count=clo, iso_count=iso, tau=clo // iso)


def is_order_invariant(space: UltrametricSpace) -> bool:
    """True iff all convex orderings of the space are isomorphic, that is
    iff its tree branches uniformly on each level: the leaves reach the
    product of the per-level maximum child counts exactly when every node
    has its level's maximum."""
    tree = canonical_tree(space)
    return prod(branchings(tree)) == len(tree.labels)


def order_invariant_hull(space: UltrametricSpace) -> UltrametricSpace:
    """Smallest-levelwise uniform superspace: pad every tree node to its
    level's maximum branching factor with fresh complete subtrees.

    Original labels survive unchanged; fresh points are labeled ``_h<k>``
    with a counter that skips any colliding input label.  The result
    contains the input isometrically and is order-invariant.
    """
    tree = canonical_tree(space)
    branch = branchings(tree)
    size = prod(branch)
    if size > sys.maxsize:
        raise ValueError(f"hull has {size} points, more than a list can hold")
    # the padded tree is the uniform tree of the branchings, and each node
    # keeps its own children first; a leaf's position reads its child
    # indices in mixed radix, where radix[d] is the number of leaves under
    # a depth-(d + 1) node, and the next leaf after a join at depth j is
    # the first leaf of the next depth-(j + 1) node
    radix = [prod(branch[depth + 1:]) for depth in range(tree.height)]
    labels: list[str | None] = [None] * size
    labels[0] = tree.labels[0]
    position = 0
    for label, join in zip(tree.labels[1:], tree.joins):
        position = (position // radix[join] + 1) * radix[join]
        labels[position] = label
    # fresh labels fill the other positions from left to right, skipping
    # any input label
    taken = set(space.labels)
    fresh = (name for name in map("_h{}".format, count(1)) if name not in taken)
    labels = [label if label is not None else next(fresh) for label in labels]
    hull_tree = LeveledTree(tuple(labels), _uniform_joins(branch), tree.levels)
    hull, _ = tree_to_space(hull_tree)
    return hull
