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
types are found one representative each, the type's lexicographic
minimum, by a depth-first search that extends a prefix by the points of
the open ball's unused children in ascending order, and skips a candidate
when a lower-index candidate has the same chain of ball class ids below
the open ball: the two lie in one orbit of the prefix's pointwise
stabiliser.  An order that is not the minimum gs of its type is cut where
it first differs from gs, since g fixes the prefix before it; a minimum is
never cut, and every prefix kept extends to one, so the search visits at
most n prefixes per type (canonical augmentation, McKay 1998).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, permutations
from math import prod

from .errors import InternalNonIntegerTau
from .spaces import UltrametricSpace, _steps, canonical_convex_order
from .trees import (
    LeveledTree,
    _Classes,
    _fold,
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

    orders = _fold(_steps(space.dist, walk), [[(p,)] for p in walk], node)
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
    lexicographic minimum, found by the pruned search of the module
    docstring."""
    n = space.size
    walk = canonical_convex_order(space)
    # items 0..n-1 are the points, then the branching balls as the fold
    # closes them
    cls = [0] * n
    kids: list[tuple[int, ...]] = [()] * n
    parent = [-1] * n
    least: list[dict[int, tuple[int, int]]] = [{0: (p, p)} for p in range(n)]
    classes = _Classes()
    chains: dict[tuple[int, int], int] = {}

    def orbits(items) -> dict[int, tuple[int, int]]:
        """The orbits of the items' points under the isometries that permute
        the items, each keyed by its interned chain of class ids from the
        items down (a point's own is 0), with its least point and the item
        that holds it."""
        out: dict[int, tuple[int, int]] = {}
        for x in items:
            for chain, (p, _) in least[x].items():
                chain = chains.setdefault((cls[x], chain), len(chains) + 1)
                if chain not in out or p < out[chain][0]:
                    out[chain] = (p, x)
        return out

    def node(key, children: list[int]) -> int:
        ball = len(cls)
        cls.append(classes(key, [cls[x] for x in children]))
        kids.append(tuple(children))
        parent.append(-1)
        for x in children:
            parent[x] = ball
        least.append(orbits(children))
        return ball

    root = _fold(_steps(space.dist, walk), walk, node)

    # a frontier lists the open balls' unused children, deepest ball
    # first, as nested pairs (children, rest) ending in None; the next
    # point comes from the head, each orbit offering its least point once
    def choices(frontier):
        return iter(sorted(orbits(frontier[0]).values()))

    def place(frontier, p: int, x: int):
        unused, rest = frontier
        if len(unused) > 1:
            rest = (tuple([y for y in unused if y != x]), rest)
        # open every ball from x down to p, the deepest last
        opened = []
        while p != x:
            up = parent[p]
            opened.append(tuple([y for y in kids[up] if y != p]))
            p = up
        for group in reversed(opened):
            rest = (group, rest)
        return rest

    minima: list[tuple[int, ...]] = []
    prefix: list[int] = []
    start = ((root,), None)
    stack = [(start, choices(start))]
    while stack:
        frontier, options = stack[-1]
        option = next(options, None)
        if option is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        p, x = option
        following = place(frontier, p, x)
        if following is None:
            minima.append((*prefix, p))
        else:
            prefix.append(p)
            stack.append((following, choices(following)))
    size = classes.auts[cls[root]]
    return [OrderTypeClass(rep, size) for rep in minima]


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
