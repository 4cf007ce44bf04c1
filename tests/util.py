"""Shared builders and independent brute-force oracles for the tests.

The oracles deliberately avoid the library's own code paths: isometries
are counted by scanning all permutations against the raw matrix, convexity
is re-derived from the interval definition, the validity check is a naive
triple loop, and arrows are decided by trying every coloring.  Expected values in the tests come from these, never
from the functions under test.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

import umr


def equilateral(n, d=1):
    labels = [f"p{i}" for i in range(1, n + 1)]
    return umr.space_from_distances(
        labels,
        {(a, b): d for i, a in enumerate(labels) for b in labels[i + 1:]},
    )


def c3():
    return umr.space_from_distances(
        ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}
    )


def e3():
    return equilateral(3)


def comb4():
    return umr.space_from_distances(
        ["a", "b", "c", "e"],
        {
            ("a", "b"): 1,
            ("a", "c"): 2,
            ("b", "c"): 2,
            ("a", "e"): 3,
            ("b", "e"): 3,
            ("c", "e"): 3,
        },
    )


def cb4():
    return umr.space_from_distances(
        ["p", "q", "r", "s"],
        {
            ("p", "q"): 1,
            ("r", "s"): 1,
            ("p", "r"): 2,
            ("p", "s"): 2,
            ("q", "r"): 2,
            ("q", "s"): 2,
        },
    )


def brute_isometry_count(space):
    n = space.size
    count = 0
    for perm in permutations(range(n)):
        if all(
            space.dist[perm[i]][perm[j]] == space.dist[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            count += 1
    return count


def oracle_is_convex(space, seq):
    """Interval definition, re-derived: every ball around every center at
    every pairwise distance is contiguous in the sequence."""
    pos = {p: i for i, p in enumerate(seq)}
    n = space.size
    radii = {space.dist[i][j] for i in range(n) for j in range(i + 1, n)}
    for center in range(n):
        for r in radii:
            places = sorted(pos[y] for y in range(n) if space.dist[y][center] <= r)
            if places and places[-1] - places[0] + 1 != len(places):
                return False
    return True


def brute_convex_orders(space):
    return [
        seq
        for seq in permutations(range(space.size))
        if oracle_is_convex(space, seq)
    ]


def brute_arrow_holds(ambient, target, pattern, k, l):
    """Unordered arrow ambient -> (target)^pattern_{k,l}: copies are the
    subsets of the raw matrix that some bijection makes isometric to the
    smaller space, and all k ** copies colorings are tried."""

    def copies(small):
        m = small.size
        return [
            frozenset(subset)
            for subset in combinations(range(ambient.size), m)
            if any(
                all(
                    ambient.dist[perm[i]][perm[j]] == small.dist[i][j]
                    for i in range(m)
                    for j in range(i + 1, m)
                )
                for perm in permutations(subset)
            )
        ]

    x_sets = copies(pattern)
    y_members = [
        [i for i, x in enumerate(x_sets) if x <= y] for y in copies(target)
    ]
    return all(
        any(len({colors[i] for i in members}) <= l for members in y_members)
        for colors in product(range(k), repeat=len(x_sets))
    )


def naive_valid(matrix):
    """Triple-loop oracle on a raw square matrix of Fractions."""
    n = len(matrix)
    if n == 0:
        return False
    for i in range(n):
        if matrix[i][i] != 0:
            return False
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                return False
            if i != j and matrix[i][j] <= 0:
                return False
    for i in range(n):
        for j in range(n):
            for z in range(n):
                if len({i, j, z}) == 3 and matrix[i][j] > max(
                    matrix[i][z], matrix[z][j]
                ):
                    return False
    return True


def shape_spaces(max_leaves, max_height=None):
    """One space per tree shape with up to max_leaves points."""
    out = []
    for n in range(1, max_leaves + 1):
        for tree in umr.all_tree_shapes(n):
            if max_height is not None and tree.height > max_height:
                continue
            space, _ = umr.tree_to_space(tree)
            out.append(space)
    return out


def frac(text):
    return Fraction(text)
