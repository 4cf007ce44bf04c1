"""The countable homogeneous ultrametric space, executable.

Points are finitely supported rational functions on a distance menu; the
distance between two points is the largest coordinate where they differ.
Any finite order-isometry between subsets extends to a full automorphism,
and the extension is an explicit move list you can print and replay.

Run:  python demos/04_homogeneous_model.py
"""

import random
from fractions import Fraction as F

import umr

menu = umr.menu_of(1, F(1, 2), F(1, 4))
print("menu:", [str(v) for v in menu])

print()
print("=== points, distance, order ===")
zero = umr.ZERO_POINT
y = umr.qs_point({F(1, 2): 3})
z = umr.qs_point({F(1): 2, F(1, 4): -1})
print("d(0, y) =", umr.qs_distance(zero, y, menu))
print("d(0, z) =", umr.qs_distance(zero, z, menu))
print("0 < y ?", umr.qs_lex_compare(zero, y, menu) == umr.LESS)
print("finite subsets really are ultrametric spaces with menu distances:")
pts = [zero, y, z, umr.qs_point({F(1): 2})]
matrix = [[umr.qs_distance(a, b) for b in pts] for a in pts]
space = umr.validate_space(matrix, ["p0", "p1", "p2", "p3"])
print("  validated,", space.size, "points, distances", [str(d) for d in umr.distance_set(space)])

print()
print("=== extending a two-point partial isometry ===")
x1, x2 = zero, umr.qs_point({F(1, 2): 1})
y1, y2 = zero, umr.qs_point({F(1, 2): 2})
auto = umr.extend_isometry([(x1, y1), (x2, y2)], menu)
print("move list:")
print(umr.format_automorphism(auto), end="")
print("hits both targets:", auto(x1) == y1 and auto(x2) == y2)
inv = umr.invert_automorphism(auto)
probe = umr.qs_point({F(1, 2): F(7, 2), F(1, 4): 5})
print("inverse undoes it on a probe point:", inv(auto(probe)) == probe)

print()
print("=== the same, end to end with random data ===")
rng = random.Random(4)
sources = []
while len(sources) < 4:
    p = umr.random_point(menu, rng)
    if p not in sources:
        sources.append(p)
scrambler = umr.random_automorphism(menu, rng)
targets = [scrambler(p) for p in sources]
extension = umr.extend_isometry(list(zip(sources, targets)), menu)
print("extension matches all four targets:",
      all(extension(p) == q for p, q in zip(sources, targets)))
sample = [umr.random_point(menu, rng) for _ in range(200)]
mapped = [(a, extension(a)) for a in sample]
ok = all(
    umr.qs_distance(a, b) == umr.qs_distance(fa, fb)
    and umr.qs_lex_compare(a, b) == umr.qs_lex_compare(fa, fb)
    for i, (a, fa) in enumerate(mapped)
    for b, fb in mapped[i + 1:]
)
print("and preserves distance + order on 200 fresh points:", ok)

print()
print("=== the batch harness ===")
report = umr.check_homogeneity(menu, n=4, trials=50, seed=0)
print(f"50 random 4-point extensions: {report.passes}/{report.trials} passed")

print()
print("=== rejected inputs ===")
try:
    umr.extend_isometry([(x1, y1), (x2, umr.qs_point({F(1): 1}))], menu)
except umr.NotPartialIsometry as err:
    print("distance mismatch caught:", err)
