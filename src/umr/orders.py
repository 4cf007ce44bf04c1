"""Convex linear orders: enumeration, order types, Ramsey degrees, and the
order-invariant hull.

Two convex orders on a space have the same *order type* when the unique
order-preserving bijection between them is an isometry, that is when their
adjacent steps are equal: along a convex order each distance is the largest
step between its two points.  The number of order types is the Ramsey
degree of the space, the convex-order count over the isometry count.

Enumeration costs time linear in its output, O(n^2) per convex order, with
no scan of the n! permutations: a sequence is convex iff each point is
nearest to its predecessor among the points not yet placed, so a
depth-first search along that rule never reaches a dead end.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import prod

from .errors import InternalNonIntegerTau
from .spaces import UltrametricSpace, _nearest_unused, _steps
from .trees import (
    LeveledTree,
    _uniform_joins,
    branchings,
    canonical_tree,
    count_automorphisms,
    count_sibling_orderings,
    tree_to_space,
)


@dataclass(frozen=True)
class OrderTypeClass:
    """Convex orders of one order type, in lexicographic order."""

    members: tuple[tuple[int, ...], ...]

    @property
    def representative(self) -> tuple[int, ...]:
        """The first member, the class's lexicographic minimum."""
        return self.members[0]


@dataclass(frozen=True)
class RamseyDegreeReport:
    clo_count: int
    iso_count: int
    tau: int


def enumerate_convex_orders(space: UltrametricSpace) -> list[tuple[int, ...]]:
    """Every convex order exactly once, in lexicographic index order.

    Depth-first: any first point, then each next point among the unused
    points nearest to the last one, all in ascending index order.  Every
    branch ends in a convex order, so the cost is O(n^2) per order.
    """
    n = space.size
    used = [False] * n
    seq: list[int] = []
    out: list[tuple[int, ...]] = []

    def extend(point: int) -> None:
        used[point] = True
        seq.append(point)
        if len(seq) == n:
            out.append(tuple(seq))
        else:
            for nxt in _nearest_unused(space, point, used):
                extend(nxt)
        seq.pop()
        used[point] = False

    for first in range(n):
        extend(first)
    return out


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
    """Partition of the convex orders into order types by their steps,
    classes listed by first appearance; each representative is its class's
    lexicographic minimum."""
    classes: dict[tuple[Fraction, ...], list[tuple[int, ...]]] = {}
    for order in enumerate_convex_orders(space):
        classes.setdefault(_steps(space.dist, order), []).append(order)
    return [OrderTypeClass(tuple(members)) for members in classes.values()]


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
