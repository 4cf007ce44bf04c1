"""Finite ultrametric spaces and their tree duals, step by step.

Run:  python demos/01_spaces_and_trees.py
"""

from fractions import Fraction as F

import umr

print("=== validating distance matrices ===")

# Three points where one pair is closer than the rest: the smallest
# interesting ultrametric space.
c3 = umr.space_from_distances(
    ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}
)
print("accepted:", c3)

# The triangle 1-2-3 breaks the strong triangle inequality, and the error
# names the witnessing triple.
try:
    umr.space_from_distances(
        ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 3}
    )
except umr.UltrametricViolation as err:
    print("rejected:", err)

print()
print("=== balls partition the space ===")
for radius in umr.distance_set(c3):
    blocks = umr.ball_partition(c3, radius)
    pretty = [" ".join(c3.labels[p] for p in block) for block in blocks]
    print(f"radius {radius}: {pretty}")

print()
print("=== convex orders keep every ball contiguous ===")
print("a,b,c convex?", umr.is_convex_order(c3, (0, 1, 2)))
print("a,c,b convex?", umr.is_convex_order(c3, (0, 2, 1)), "(the ball {a,b} is split)")

print()
print("=== the tree dual ===")
tree = umr.space_to_tree(c3, (0, 1, 2))
print(umr.format_utree(tree), end="")
print("leaves left to right:", tree.labels)
print("self-maps preserving levels and parents:", umr.count_automorphisms(tree))

back, order = umr.tree_to_space(tree)
print("round trip equals the original space:", back == c3)

print()
print("=== the same machinery on text files ===")
text = umr.format_uspace(c3)
print(text, end="")
print("parses back equal:", umr.parse_uspace(text) == c3)

print()
print("=== a taller example: the 4-point comb ===")
comb = umr.space_from_distances(
    ["a", "b", "c", "e"],
    {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2,
     ("a", "e"): 3, ("b", "e"): 3, ("c", "e"): 3},
)
print(umr.format_utree(umr.space_to_tree(comb, umr.canonical_convex_order(comb))), end="")
print("fractional distances work the same:")
tiny = umr.space_from_distances(
    ["x", "y", "z"], {("x", "y"): F(1, 4), ("x", "z"): F(1, 2), ("y", "z"): F(1, 2)}
)
print(umr.format_utree(umr.space_to_tree(tiny, umr.canonical_convex_order(tiny))), end="")
