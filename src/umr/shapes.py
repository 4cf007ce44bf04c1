"""Leveled-tree shapes: exhaustive generation, and the extremal scan by
counting.

Shapes are unlabeled trees with all leaves at the same depth and at least
one branching node on every level (so each level distance is realized in
the dual space), kept as their joins.  ``all_tree_shapes`` generates them
bottom-up as canonically sorted child multisets, which yields each shape
exactly once, then materializes them into ``LeveledTree`` values with
placeholder labels and power-of-two levels.

The extremal scan lists no shapes.  Deleting the levels on which no node
branches maps the uniform-depth trees of height h, unary nodes allowed,
onto the shapes of height at most h, and keeps the Ramsey degree
tau = prod over nodes of k! / prod m! (k children, m of them equal per
class).  So the shape count is an alternating sum over the multiset
(Euler) transform of those trees (Otter, "The number of trees", 1948),
the maximum tau is a DP over (height, size), and the shapes attaining it
come from a search that the DP bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator

from .orders import _tree_report
from .spaces import DistanceSet
from .trees import LeveledTree, _uniform_joins

SHAPE_PREFIX = "p"
UNIFORM_PREFIX = "z"
MAX_SCAN_LEAVES = 16


# A memo entry: (canonical code, bitmask of the levels on which the shape
# has a node with two or more children, the shape's joins).
_Coded = tuple[str, int, tuple[int, ...]]


@lru_cache(maxsize=None)
def _shapes(height: int, leaves: int, need: int = 0) -> tuple[_Coded, ...]:
    """Every uniform-depth shape with the given height and leaf count that
    branches on every level in the bitmask ``need``, in code order.  With
    no levels needed, unary chains are included: they occur inside
    branching shapes.

    The root's children are a multiset of shapes one level lower, taken in
    nondecreasing (leaf count, code) order, so each multiset comes once.  A
    branch is cut when the leaves left cannot cover the levels still
    missing: a shape with m leaves branches on at most m - 1 levels.
    """
    if height == 0:
        return (("()", 0, ()),) if leaves == 1 else ()
    options = [
        (size, *entry) for size in range(1, leaves + 1) for entry in _shapes(height - 1, size)
    ]
    child_need = need >> 1
    result: list[_Coded] = []
    chosen: list[tuple[str, tuple[int, ...]]] = []

    def extend(start: int, remaining: int, branching: int) -> None:
        for idx in range(start, len(options)):
            size, code, sub_branching, sub = options[idx]
            left = remaining - size
            if left < 0:
                return
            covered = branching | sub_branching
            missing = (child_need & ~covered).bit_count()
            if left == 0:
                root_branches = bool(chosen)
                if missing or (need & 1 and not root_branches):
                    continue
                children = sorted([*chosen, (code, sub)], key=lambda child: child[0])
                # the children's joins one level down, 0 between neighbours
                joins: list[int] = []
                for _, child_joins in children:
                    joins += [0, *(j + 1 for j in child_joins)]
                result.append((
                    "(" + "".join(c for c, _ in children) + ")",
                    root_branches | covered << 1,
                    tuple(joins[1:]),
                ))
            elif missing < left:
                chosen.append((code, sub))
                extend(idx, left, covered)
                chosen.pop()

    extend(0, leaves, 0)
    return tuple(sorted(result, key=lambda entry: entry[0]))


@lru_cache(maxsize=None)
def default_levels(height: int) -> DistanceSet:
    """The powers of two below 2^height, largest first: one table per
    height, shared by every shape of that height."""
    return DistanceSet(tuple(Fraction(2 ** (height - 1 - i)) for i in range(height)))


def all_tree_shapes(leaves: int) -> list[LeveledTree]:
    """Every leveled-tree shape with the given leaf count, all heights,
    deduplicated, in deterministic (height, code) order."""
    if leaves < 1:
        raise ValueError("leaf count must be positive")
    labels = tuple(f"{SHAPE_PREFIX}{i}" for i in range(1, leaves + 1))
    return [
        LeveledTree(labels, joins, default_levels(height))
        for height in range(leaves)
        for _, _, joins in _shapes(height, leaves, (1 << height) - 1)
    ]


def is_comb(tree: LeveledTree) -> bool:
    """True when all branching nodes lie on a single root-to-leaf branch,
    that is when no node has two children with branching nodes below.  A
    subtree reads 0 for a leaf, 1 for a comb that branches, 2 otherwise."""
    return tree._fold(0, lambda key, kids: 1 + (sum(kids) > 1)) < 2


def comb_tree(leaves: int) -> LeveledTree:
    """The full comb: height leaves-1, one binary split per level, all on
    the leftmost branch."""
    if leaves < 2:
        raise ValueError("a comb needs at least two leaves")
    labels = tuple(f"{SHAPE_PREFIX}{i}" for i in range(1, leaves + 1))
    return LeveledTree(labels, tuple(range(leaves - 2, -1, -1)), default_levels(leaves - 1))


def tree_degree(tree: LeveledTree) -> int:
    """Ramsey degree straight from the tree: sibling orderings divided by
    automorphisms."""
    return _tree_report(tree).tau


@dataclass(frozen=True)
class ShapeFinding:
    code: str
    degree: int
    comb: bool


@dataclass(frozen=True)
class ExtremalReport:
    leaves: int
    shape_count: int
    max_degree: int
    comb_degree: int
    argmax: tuple[ShapeFinding, ...]
    all_combs: bool


def extremal_scan(leaves: int) -> ExtremalReport:
    """The maximum Ramsey degree over the shapes with the given leaf count,
    the shapes attaining it in (height, code) order, and whether they are
    combs, all without listing the shapes."""
    if leaves < 2:
        raise ValueError("scan needs at least two leaves")
    if leaves > MAX_SCAN_LEAVES:
        raise ValueError(f"scan capped at {MAX_SCAN_LEAVES} leaves")
    scan = _Scan(leaves)
    best = scan.top[-1][leaves][0]
    argmax = tuple(
        ShapeFinding(code, best, kind < 2)
        for height in range(1, leaves)
        if scan.top[height][leaves][0] == best
        for code, _, _, kind in sorted(scan.trees(height, leaves, best, (1 << height) - 1))
    )
    return ExtremalReport(
        leaves=leaves,
        shape_count=_shape_count(leaves),
        max_degree=best,
        comb_degree=tree_degree(comb_tree(leaves)),
        argmax=argmax,
        all_combs=all(finding.comb for finding in argmax),
    )


def _shape_count(leaves: int) -> int:
    """The number of shapes with the given leaf count.  uniform[h][s]
    counts the uniform-depth trees of height h with s leaves, unary nodes
    allowed: a tree of height h is a multiset of trees of height h - 1, so
    each row is the multiset transform of the one before.  Inclusion and
    exclusion over the levels that do not branch leaves the shapes."""
    uniform = [[0, 1] + [0] * (leaves - 1)]
    for _ in range(1, leaves):
        row = [1] + [0] * leaves  # multisets by total size; the empty one
        for size, kinds in enumerate(uniform[-1][1:], 1):
            if kinds:  # t trees of this size: C(kinds + t - 1, t) multisets
                row = [
                    sum(comb(kinds + t - 1, t) * row[total - size * t] for t in range(total // size + 1))
                    for total in range(leaves + 1)
                ]
        uniform.append(row)
    return sum(
        (-1) ** (height - kept) * comb(height, kept) * uniform[kept][leaves]
        for height in range(leaves)
        for kept in range(height + 1)
    )


def _degree_tables(leaves: int) -> tuple[list[list[list[int]]], list[dict[tuple[int, int], int]]]:
    """top[h][s]: the degrees of the best leaves // s distinct uniform-depth
    trees of height h with s leaves, descending (all of them when fewer
    exist); best[h][s, k]: the largest k! / prod m! * prod tau over the
    multisets of k trees of height h - 1 with s leaves in all.

    A tree's children are a multiset of trees one level lower, and its
    degree is k! / prod m! times theirs, so a DP over the kept trees of
    each size, one at a time with each multiplicity, reads both tables.
    Keeping leaves // s trees per size s is exact: a parent of size p has
    at most p // s children of size s, and one outside the kept trees can
    be swapped for any of the leaves // s - p // s + 1 >= leaves // p kept
    ones it does not use, each giving a distinct parent of no lower
    degree.  A partial multiset of q leaves keeps its best leaves // q."""
    top = [[[], [1]] + [[] for _ in range(leaves - 1)]]
    best: list[dict[tuple[int, int], int]] = [{}]
    for _ in range(1, leaves):
        states = {(0, 0): [1]}
        for size, degrees in enumerate(top[-1]):
            for tau in degrees:
                grown = set()
                # larger totals first, so each state is read before it grows
                for (total, count) in sorted(states, reverse=True):
                    values = states[total, count]
                    for m in range(1, (leaves - total) // size + 1):
                        key = (total + m * size, count + m)
                        factor = comb(count + m, m) * tau ** m
                        states.setdefault(key, []).extend([value * factor for value in values])
                        grown.add(key)
                for total, count in grown:
                    values = states[total, count]
                    values.sort(reverse=True)
                    del values[leaves // total:]
        row: list[list[int]] = [[] for _ in range(leaves + 1)]
        for (total, _), values in states.items():
            if total:
                row[total] += values
        for total, values in enumerate(row[1:], 1):
            values.sort(reverse=True)
            del values[leaves // total:]
        top.append(row)
        best.append({key: values[0] for key, values in states.items()})
    return top, best


# A search entry: (canonical code, bitmask of the levels on which the tree
# branches, its degree, its kind: 0 if it does not branch, 1 if it is a
# comb that does, 2 otherwise).  A node's kind is its only child's, or
# 1 + (its children's kinds sum to more than 1), as in ``is_comb``.
_Entry = tuple[str, int, int, int]


class _Scan:
    """The degree tables for one leaf count, and the trees they bound."""

    def __init__(self, leaves: int):
        self.leaves = leaves
        self.top, self.best = _degree_tables(leaves)
        self._bounds: dict[tuple[int, int, int, int], int] = {}
        self._kept: dict[tuple[int, int], tuple[_Entry, ...]] = {}

    def bound(self, height: int, left: int, count: int, most: int) -> int:
        """The most that children of height - 1 with ``left`` leaves in
        all, at most ``most`` of them, can multiply the degree of a node of
        height ``height`` that has ``count`` children so far: they bring
        C(count + c, c) * best[c] for c of them."""
        key = (height, left, count, min(most, left))
        if key not in self._bounds:
            best = self.best[height]
            self._bounds[key] = max(
                (comb(count + c, c) * best[left, c] for c in range(key[3] + 1) if (left, c) in best),
                default=0,
            )
        return self._bounds[key]

    def kept(self, height: int, size: int) -> tuple[_Entry, ...]:
        """Every tree of this height and size whose degree reaches that of
        the (leaves // size)-th best, by descending degree then code.  By
        the exchange in ``_degree_tables``, every child of such a tree is
        a kept tree one level lower."""
        if (height, size) not in self._kept:
            degrees, rank = self.top[height][size], self.leaves // size
            floor = degrees[rank - 1] if len(degrees) == rank else 1
            found = self.trees(height, size, floor, 0)
            self._kept[height, size] = tuple(sorted(found, key=lambda entry: (-entry[2], entry[0])))
        return self._kept[height, size]

    def trees(self, height: int, size: int, floor: int, need: int) -> list[_Entry]:
        """Every tree of this height and size with degree at least ``floor``
        that branches on every level in the bitmask ``need``.

        Children are kept trees, chosen by descending size and within a
        size in ``kept`` order, each with a multiplicity.  A branch is cut
        when the table bound on the leaves left cannot reach ``floor``: c
        more children with ``left`` leaves branch on at most left - c
        levels, so the levels still missing cap c.  A child covers at most
        size - 1 of them, and within a size the degrees fall, so the first
        child that cannot reach ``floor`` with that many ends its size."""
        if height == 0:
            return [("()", 0, 1, 0)] if size == 1 else []
        child_need = need >> 1
        found: list[_Entry] = []
        chosen: list[tuple[_Entry, int]] = []

        def fits(left: int, count: int, degree: int, tau: int, child: int, missing: int):
            # the multiplicities of such a child that leave a bound >= floor
            for m in range(1, left // child + 1):
                rest, grown = left - m * child, degree * comb(count + m, m) * tau ** m
                if grown * self.bound(height, rest, count + m, rest - missing) >= floor:
                    yield m, grown

        def extend(largest: int, start: int, left: int, count: int, degree: int, covered: int) -> None:
            if not left:
                if child_need & ~covered or (need & 1 and count < 2):
                    return
                codes = sorted(entry[0] for entry, m in chosen for _ in range(m))
                kind = chosen[0][0][3] if count == 1 else 1 + (sum(e[3] * m for e, m in chosen) > 1)
                found.append(("(" + "".join(codes) + ")", (count > 1) | covered << 1, degree, kind))
                return
            if need & 1 and not count:
                largest = left - 1  # the node must branch
            missing = (child_need & ~covered).bit_count()
            for child in range(min(largest, left), 0, -1):
                degrees = self.top[height - 1][child]
                least = max(missing - child + 1, 0)
                if not degrees or next(fits(left, count, degree, degrees[0], child, least), None) is None:
                    continue
                entries = self.kept(height - 1, child)
                for idx in range(start if child == largest else 0, len(entries)):
                    entry = entries[idx]
                    _, mask, tau, _ = entry
                    if next(fits(left, count, degree, tau, child, least), None) is None:
                        break
                    still = (child_need & ~(covered | mask)).bit_count()
                    for m, grown in fits(left, count, degree, tau, child, still):
                        chosen.append((entry, m))
                        extend(child, idx + 1, left - m * child, count + m, grown, covered | mask)
                        chosen.pop()

        extend(size, 0, size, 0, 1, 0)
        return found


def branching_vectors(height: int) -> Iterator[tuple[int, ...]]:
    """Uniform branching vectors (every entry >= 2) of the given height in
    nondecreasing leaf count, ties broken lexicographically; infinite for
    height >= 1."""
    if height == 0:
        yield ()
        return
    leaves = 2 ** height
    while True:
        yield from _vectors_with_product(height, leaves)
        leaves += 1


def _vectors_with_product(height: int, product: int) -> Iterator[tuple[int, ...]]:
    if height == 1:
        if product >= 2:
            yield (product,)
        return
    for b in range(2, product + 1):
        if product % b == 0:
            for rest in _vectors_with_product(height - 1, product // b):
                yield (b,) + rest


def uniform_tree(vector: tuple[int, ...], levels: DistanceSet) -> LeveledTree:
    """Complete tree where every depth-l node has vector[l] children, leaves
    labeled ``z1..zn``."""
    if len(vector) != len(levels):
        raise ValueError("branching vector length must match the level count")
    for depth, branching in enumerate(vector):
        if branching < 1:  # its nodes would be leaves above the leaf level
            raise ValueError(f"leaf at depth {depth}, expected {len(vector)}")
    joins = _uniform_joins(vector)
    labels = tuple(f"{UNIFORM_PREFIX}{i}" for i in range(1, len(joins) + 2))
    return LeveledTree(labels, joins, levels)
