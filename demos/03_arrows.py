"""Arrow statements checked by a pruned depth-first coloring search.

Z -> (Y)^X_{k,l} says: color the copies of X inside Z with k colors however
you like; some copy of Y will see at most l colors on its own copies of X.
The search cuts a partial coloring once some Y-copy can see at most l
colors in every completion, and once a swap of two twin points of Z (at
equal distance from every other point) turns it into an earlier partial
coloring: the swap maps copies to copies, so each completion holds the
arrow as its image, which the search has already passed, does.
``colorings=`` still counts every coloring decided, cut ones included, so
K6 reports all 16384.

Run:  python demos/03_arrows.py
"""

import umr


def equilateral(n):
    labels = [f"p{i}" for i in range(1, n + 1)]
    return umr.space_from_distances(
        labels, {(a, b): 1 for i, a in enumerate(labels) for b in labels[i + 1:]}
    )


pair = equilateral(2)
triangle = equilateral(3)

print("=== the classical Ramsey number in ultrametric dress ===")
for n in (5, 6):
    verdict = umr.verify_arrow(equilateral(n), triangle, pair, 2, 1)
    print(f"  {n} points -> (triangle)^pair with 2 colors: ", end="")
    print(umr.format_arrow_report(verdict).splitlines()[0])
print("  (fails at 5, holds at 6: the engine rediscovers R(3,3)=6)")

print()
print("=== the counterexample at 5 points, replayed ===")
fails = umr.verify_arrow(equilateral(5), triangle, pair, 2, 1)
print(umr.format_arrow_report(fails), end="")

print()
print("=== the order-type coloring: why degrees cannot drop below tau ===")
c3 = umr.space_from_distances(
    ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}
)
hull = umr.order_invariant_hull(c3)
coloring = umr.order_type_coloring(hull, umr.canonical_convex_order(hull), c3)
print(f"  copies of c3 in its hull, colored by induced order type (k={coloring.k}):")
for copy, color in zip(coloring.copies, coloring.colors):
    names = " ".join(hull.labels[p] for p in copy)
    print(f"    {{{names}}} -> color {color}")
print(
    "  every hull copy sees all",
    coloring.k,
    "colors:",
    umr.verify_degree_lower(c3, hull, hull, umr.canonical_convex_order(hull)),
)

print()
print("=== searching for ordered witnesses ===")
z, _ = umr.search_witness(
    pair, umr.canonical_convex_order(pair),
    triangle, umr.canonical_convex_order(triangle), 2,
)
print(f"  smallest pool witness for pair -> triangle, 2 colors: {z.size} points")

print()
print("=== chaining witnesses, one per order type ===")
result = umr.chain_upper_bound(c3, c3, 2)
print(
    f"  c3 -> c3 with 2 colors: chained through {len(result.steps)} ordered"
    f" witnesses into {result.space.size} points, value bound l={result.value_bound}"
)
print(f"  re-verified exhaustively: {result.verdict.holds}")
