"""Duality between convexly ordered ultrametric spaces and leveled trees.

A leveled tree of height n is rooted, keeps every leaf at depth n, and
carries a strictly decreasing list of n level distances.  Leaves are the
points of the dual space, the distance between two leaves is the level
distance of their deepest common ancestor, and left-to-right leaf order is
a convex order.  Conversely a space plus a convex order determines such a
tree whose nodes at depth m are the balls of the m-th distance.

Every level above the leaves must contain at least one node with two or
more children; this keeps the level distances exactly the realized
distances of the dual space and makes the correspondence a bijection.

A ``LeveledTree`` is stored as its leaf labels, its levels and its joins:
joins[i] is the depth of the deepest common ancestor of leaves i and i + 1.
It is the only tree type: UTREE text is read straight into joins, and
every statistic is read off them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from typing import Any, Callable, Sequence, TypeVar

from .errors import FormatError, NonConvexOrder
from .rational import body_lines, format_rational, parse_rational
from .spaces import (
    _ZERO, DistanceSet, UltrametricSpace, _fold, _maxima, _realized, _steps,
    canonical_convex_order, is_convex_order,
)

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class LeveledTree:
    """A leveled tree as its leaf labels from left to right, its joins and
    its levels: joins[i] is the depth of the deepest common ancestor of
    leaves i and i + 1.  Equality and hashing compare these three fields."""

    labels: tuple[str, ...]
    joins: tuple[int, ...]
    levels: DistanceSet

    def __post_init__(self):
        height = len(self.levels)
        if len(self.joins) != len(self.labels) - 1:
            raise ValueError(f"{len(self.labels)} leaves need {len(self.labels) - 1} joins")
        if self.joins and not 0 <= min(self.joins) <= max(self.joins) < height:
            raise ValueError(f"joins must lie in 0..{height - 1}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate leaf labels")
        # a node at depth d has two children iff two neighbours join at d
        unbranched = set(range(height)).difference(self.joins)
        if unbranched:
            raise ValueError(
                f"level {min(unbranched)} has no branching node; its distance is unrealized"
            )

    @property
    def height(self) -> int:
        return len(self.levels)

    def _fold(self, leaf: _T, node: Callable[[int, list[_T]], _T]) -> _T:
        """``_fold`` with minus the joins as steps: ``node`` gets -depth."""
        return _fold([-j for j in self.joins], [leaf] * len(self.labels), node)


def branchings(tree: LeveledTree) -> list[int]:
    """The largest child count on each level 0..height-1.  Every level has
    a branching node, so the unary nodes the fold skips never set it."""
    most = [1] * tree.height

    def node(key: int, kids: list[None]) -> None:
        most[-key] = max(most[-key], len(kids))

    tree._fold(None, node)
    return most


def _uniform_joins(vector: Sequence[int]) -> tuple[int, ...]:
    """Joins of the complete tree whose depth-d nodes have vector[d] children."""
    # a depth-d node's joins: vector[d] copies of its children's, d between
    joins: list[int] = []
    for depth in reversed(range(len(vector))):
        joins = ([*joins, depth] * vector[depth])[:-1]
    return tuple(joins)


def _require_convex(space: UltrametricSpace, order: tuple[int, ...]) -> None:
    if not is_convex_order(space, order):
        raise NonConvexOrder(f"order {order} is not convex for this space")


def space_to_tree(space: UltrametricSpace, order: tuple[int, ...]) -> LeveledTree:
    """Tree of the ordered space: depth-m nodes are the balls of the m-th
    realized distance, siblings sorted so the leaf sequence equals the
    given convex order."""
    _require_convex(space, order)
    return _build_tree(space, order)


def canonical_tree(space: UltrametricSpace) -> LeveledTree:
    """Tree of the space under its canonical convex order, which is convex
    by construction and so is not checked again."""
    return _build_tree(space, canonical_convex_order(space))


def _build_tree(space: UltrametricSpace, seq: tuple[int, ...]) -> LeveledTree:
    # seq is convex, so it steps over every distance: a step's depth counts the larger ranks
    steps = _steps(space.ranks, seq)
    depth_of = {r: depth for depth, r in enumerate(sorted(set(steps), reverse=True))}
    labels, joins = tuple(space.labels[p] for p in seq), tuple(map(depth_of.__getitem__, steps))
    return LeveledTree(labels, joins, _realized(space.values, depth_of))


def tree_to_space(tree: LeveledTree) -> tuple[UltrametricSpace, tuple[int, ...]]:
    """Dual space of a tree: points are the leaves in left-to-right order,
    the distance of two leaves is the level distance of their deepest
    common ancestor, and the returned order is the identity, which is the
    space's canonical convex order.  The value table is 0 and the levels,
    ascending, so a join at depth j is rank height - j, and the rank of two
    leaves is the largest such rank between them."""
    n, steps = len(tree.labels), [tree.height - j for j in tree.joins]
    # each row's entries after and, read backwards, before the diagonal
    after, before = dict(_maxima(steps)), dict(_maxima(steps[::-1]))
    rows = tuple((*before.get(n - 1 - i, ())[::-1], 0, *after.get(i, ())) for i in range(n))
    order, values = tuple(range(n)), (_ZERO, *reversed(tree.levels.values))
    return UltrametricSpace(tree.labels, rows, values, order), order


def count_automorphisms(tree: LeveledTree) -> int:
    """Number of level-preserving, parent-respecting self-bijections; equals
    the isometry count of the dual space."""
    classes = _Classes()
    return classes.auts[tree._fold(0, classes)]


class _Classes:
    """Class ids of the balls of one fold, as a ``node`` function: a ball
    closed at ``key`` over children of class ids ``kids`` interns its key
    and its children's sorted ids, so two balls get one id iff a
    level-preserving bijection maps one onto the other.  A point's class
    is 0, and ``auts[c]`` counts the self-bijections of class c: the
    product of its children's counts and of m! per m equal children."""

    def __init__(self):
        self.ids: dict[tuple[Any, tuple[int, ...]], int] = {}
        self.auts = [1]

    def __call__(self, key: Any, kids: list[int]) -> int:
        form = (key, tuple(sorted(kids)))
        cls = self.ids.get(form)
        if cls is None:
            cls = self.ids[form] = len(self.auts)
            auts = self.auts
            auts.append(prod(auts[k] ** m * factorial(m) for k, m in Counter(kids).items()))
        return cls


def canonical_code(tree: LeveledTree) -> str:
    """Order-comparable token string identifying a tree up to a
    level-preserving, parent-respecting bijection (sibling order and leaf
    labels ignored): a leaf is ``()``, a node its children's codes sorted
    and wrapped in one more pair of brackets."""
    # a value is (depth of the subtree's first branching, its code); a
    # child first branching at depth d of a node at depth t sits below
    # d - t - 1 unary nodes, each wrapping its code once more
    def node(key: int, kids: list[tuple[int, str]]) -> tuple[int, str]:
        codes = []
        for d, code in kids:
            wraps = d + key - 1
            codes.append("".join(["(" * wraps, code, ")" * wraps]) if wraps else code)
        codes.sort()
        return -key, "".join(["(", *codes, ")"])

    return tree._fold((tree.height, "()"), node)[1]  # the root branches


def count_sibling_orderings(tree: LeveledTree) -> int:
    """Product of (child count)! over internal nodes: the number of sibling
    rearrangements, i.e. of convex orders of the dual space."""
    return tree._fold(1, lambda key, kids: factorial(len(kids)) * prod(kids))


# --- UTREE text format -----------------------------------------------------
#
#   utree v1
#   levels <a_0> ... <a_{n-1}>      empty list allowed for a single point
#   ((a b) (c))                     nested parentheses, leaves are labels

def format_utree(tree: LeveledTree) -> str:
    labels, joins = tree.labels, tree.joins
    height = tree.height
    # between leaves that join at depth j, the nodes below depth j close
    # and open again
    parts = ["(" * height, labels[0]]
    for label, join in zip(labels[1:], joins):
        below = height - 1 - join
        parts += [")" * below, " ", "(" * below, label]
    parts.append(")" * height)

    levels = " ".join(format_rational(v) for v in tree.levels)
    header = f"levels {levels}" if levels else "levels"
    return "\n".join(["utree v1", header, "".join(parts)]) + "\n"


def parse_utree(text: str) -> LeveledTree:
    lines = body_lines(text, "utree v1")
    if len(lines) < 2 or not lines[0].startswith("levels"):
        raise FormatError("expected 'levels' line and a tree line")
    level_tokens = lines[0].split()[1:]
    values = tuple(parse_rational(tok) for tok in level_tokens)
    body = " ".join(lines[1:])

    height = len(values)
    labels: list[str] = []
    joins: list[int] = []
    # one pass over runs of brackets and labels: depth counts the open
    # brackets, a label lies at that depth, and it joins the last leaf at
    # (fewest open brackets since that leaf) - 1.  A valid tree nests no
    # deeper than its level count, which is reported ahead of the first
    # syntax fault in the text, and that ahead of the first misplaced leaf.
    depth = deepest = fewest = 0
    fault = misplaced = None
    closed = False  # the root is finished
    previous = ""
    for run in re.findall(r"\(+|\)+|[^\s()]+", body):
        kind = run[0]
        if fault is None:
            if closed:
                fault = "trailing tokens after tree"
            elif kind == ")":
                if not depth:
                    fault = "unexpected ')'"
                elif previous == "(":
                    fault = "internal node with no children"
                elif len(run) > depth:
                    fault = "trailing tokens after tree"
        if kind == "(":
            depth += len(run)
            deepest = max(deepest, depth)
        elif kind == ")":
            depth -= len(run)
            fewest = min(fewest, depth)
            closed = not depth
        else:
            if labels:
                joins.append(fewest - 1)
            if depth != height and misplaced is None:
                misplaced = f"leaf at depth {depth}, expected {height}"
            labels.append(run)
            fewest = depth
            closed = not depth
        previous = kind
    if deepest > height:
        raise FormatError(f"tree nests {deepest} deep but has {height} levels")
    if fault is None and depth:
        fault = "missing ')'"
    if fault is not None:
        raise FormatError(fault)
    try:
        levels = DistanceSet(values)
        if misplaced is not None:
            raise ValueError(misplaced)
        return LeveledTree(tuple(labels), tuple(joins), levels)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
