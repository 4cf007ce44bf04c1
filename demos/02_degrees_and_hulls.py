"""Convex-order counting, order types, Ramsey degrees, and hulls.

Run:  python demos/02_degrees_and_hulls.py
"""

import umr

c3 = umr.space_from_distances(
    ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}
)
e3 = umr.space_from_distances(
    ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
)

print("=== every convex order of c3 ===")
for order in umr.enumerate_convex_orders(c3):
    print("  " + " < ".join(umr.order_labels(c3, order)))
print("product formula agrees:", umr.count_convex_orders(c3))

print()
print("=== order types: convex orders up to isometry ===")
for i, cls in enumerate(umr.order_type_partition(c3)):
    rep = " < ".join(umr.order_labels(c3, cls.representative))
    print(f"  type {i}: {cls.size} orders, e.g. {rep}")

print()
print("=== the Ramsey degree is orders divided by symmetries ===")
for name, space in (("c3", c3), ("e3", e3)):
    r = umr.tau(space)
    print(f"  {name}: clo={r.clo_count} iso={r.iso_count} tau={r.tau}")
print("equilateral spaces are the degree-1 (fully order-invariant) ones here:")
print("  e3 order-invariant?", umr.is_order_invariant(e3))
print("  c3 order-invariant?", umr.is_order_invariant(c3))

print()
print("=== the order-invariant hull ===")
hull = umr.order_invariant_hull(c3)
print("hull points:", hull.labels)
print("hull is order-invariant:", umr.is_order_invariant(hull))
print("hull still contains c3:", hull.restrict([hull.index(l) for l in "abc"]) == c3)
print("and under ANY convex order on the hull, both order types of c3 appear:")
reps = [cls.representative for cls in umr.order_type_partition(c3)]
for hull_order in umr.enumerate_convex_orders(hull)[:3]:
    found = [
        len(umr.enumerate_copies(hull, c3, hull_order, rep)) for rep in reps
    ]
    labels = ",".join(umr.order_labels(hull, hull_order))
    print(f"  order {labels}: copies per type {found}")
print("  ... (all other hull orders behave the same; the test suite checks them)")

print()
print("=== degrees are maximized by combs ===")
for n in range(2, 8):
    scan = umr.extremal_scan(n)
    print(
        f"  n={n}: {scan.shape_count} shapes, max tau={scan.max_degree} "
        f"= comb tau={scan.comb_degree}, argmax all combs: {scan.all_combs}"
    )
