"""Exhaustive generation of leveled-tree shapes and the extremal scan.

Shapes are unlabeled trees with all leaves at the same depth and at least
one branching node on every level (so each level distance is realized in
the dual space), kept as their joins.  They are generated bottom-up as
canonically sorted child multisets, which yields each shape exactly once,
then materialized into ``LeveledTree`` values with placeholder labels and
power-of-two levels.

The extremal scan walks every shape with a given leaf count, computes the
Ramsey degree of each, and reports the maximum together with the arg-max
shapes and whether those are combs (all branching nodes on one branch).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .orders import _tree_report
from .spaces import DistanceSet
from .trees import LeveledTree, _uniform_joins, canonical_code

SHAPE_PREFIX = "p"
UNIFORM_PREFIX = "z"
MAX_SCAN_LEAVES = 7


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
    """Scan every shape with the given leaf count and report the maximum
    Ramsey degree, the shapes attaining it, and whether they are combs."""
    if leaves < 2:
        raise ValueError("scan needs at least two leaves")
    if leaves > MAX_SCAN_LEAVES:
        raise ValueError(f"scan capped at {MAX_SCAN_LEAVES} leaves")
    shapes = all_tree_shapes(leaves)
    degrees = [tree_degree(tree) for tree in shapes]
    best = max(degrees)
    argmax = tuple(
        ShapeFinding(canonical_code(tree), degree, is_comb(tree))
        for tree, degree in zip(shapes, degrees)
        if degree == best
    )
    return ExtremalReport(
        leaves=leaves,
        shape_count=len(shapes),
        max_degree=best,
        comb_degree=tree_degree(comb_tree(leaves)),
        argmax=argmax,
        all_combs=all(finding.comb for finding in argmax),
    )


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
