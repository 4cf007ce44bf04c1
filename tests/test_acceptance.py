"""Acceptance suite: one test per criterion, each printing a PASS line.

Run under pytest (``pytest tests/test_acceptance.py -s``) or standalone
(``python tests/test_acceptance.py``), which prints one pass/fail line per
criterion and exits nonzero on any failure.

The exhaustive quantifiers ("every ultrametric space with <= 6 points")
range over one representative per tree shape, which covers every space up
to isometry and relabeling of distances; distance values never enter the
counting logic, and the duality criterion is additionally run over a
fractional menu to pin the exact-arithmetic path.
"""

import random
import sys
from fractions import Fraction as F
from functools import lru_cache
import umr
from util import (
    brute_convex_orders,
    brute_isometry_count,
    c3,
    e3,
    equilateral,
    nested_tree,
)

MENU3 = umr.menu_of(1, F(1, 2), F(1, 4))
FRACTIONAL_LEVELS = (F(1), F(1, 2), F(1, 4))


@lru_cache(maxsize=None)
def shapes_upto(max_leaves):
    out = []
    for n in range(1, max_leaves + 1):
        out.extend(umr.all_tree_shapes(n))
    return tuple(out)


@lru_cache(maxsize=None)
def spaces_upto(max_leaves, max_height=None):
    out = []
    for tree in shapes_upto(max_leaves):
        if max_height is not None and tree.height > max_height:
            continue
        out.append(umr.tree_to_space(tree)[0])
    return tuple(out)


def with_fractional_menu(space):
    """Order-preserving relabeling of the distance values onto 1, 1/2, 1/4."""
    mapping = dict(zip(umr.distance_set(space), FRACTIONAL_LEVELS))
    n = space.size
    rows = [
        [F(0) if i == j else mapping[space.dist[i][j]] for j in range(n)]
        for i in range(n)
    ]
    return umr.validate_space(rows, space.labels)


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_duality_round_trip():
    checked = 0
    for base in spaces_upto(6, max_height=3):
        for space in (base, with_fractional_menu(base)) if base.size > 1 else (base,):
            for order in umr.enumerate_convex_orders(space):
                tree = umr.space_to_tree(space, order)
                back, back_order = umr.tree_to_space(tree)
                assert back == space
                assert umr.order_labels(back, back_order) == umr.order_labels(space, order)
                checked += 1
    assert checked > 1000
    report(1, "duality round trip")


def test_criterion_02_counting_oracles():
    for space in spaces_upto(6):
        assert umr.count_convex_orders(space) == len(brute_convex_orders(space))
        tree = umr.space_to_tree(space, umr.canonical_convex_order(space))
        assert umr.count_automorphisms(tree) == brute_isometry_count(space)
    report(2, "counting oracles")


def test_criterion_03_ramsey_degree_formula():
    for space in spaces_upto(6):
        degrees = umr.tau(space)
        assert degrees.tau == len(umr.order_type_partition(space))
        assert degrees.tau * degrees.iso_count == degrees.clo_count
    report(3, "ramsey degree formula")


def test_criterion_04_nontrivial_isometry():
    for tree in shapes_upto(6):
        if len(tree.labels) >= 2:
            assert umr.count_automorphisms(tree) >= 2
    report(4, "nontrivial isometry")


def test_criterion_05_extremal_comb():
    for n in range(2, 8):
        scan = umr.extremal_scan(n)
        assert scan.max_degree == 2 ** (n - 2)
        assert scan.comb_degree == scan.max_degree
        assert scan.all_combs
        comb_code = umr.canonical_code(umr.comb_tree(n))
        assert comb_code in {finding.code for finding in scan.argmax}
    report(5, "extremal comb claim")


def test_criterion_06_ordering_property():
    hull_orders = {}
    for space in spaces_upto(4):
        if space.size < 2:
            continue
        hull = umr.order_invariant_hull(space)
        if hull not in hull_orders:
            hull_orders[hull] = umr.enumerate_convex_orders(hull)
        reps = [cls.representative for cls in umr.order_type_partition(space)]
        for hull_order in hull_orders[hull]:
            for rep in reps:
                assert umr.enumerate_copies(hull, space, hull_order, rep), (
                    "missing order type in ordered hull"
                )
    report(6, "ordering property at desk scale")


def test_criterion_07_ramsey_object_characterization():
    for tree in shapes_upto(7):
        per_level = {}
        stack = [(nested_tree(tree), 0)]
        while stack:
            node, depth = stack.pop()
            if not isinstance(node, str):
                per_level.setdefault(depth, set()).add(len(node))
                stack.extend((child, depth + 1) for child in node)
        uniform = all(len(counts) == 1 for counts in per_level.values())
        assert (umr.tree_degree(tree) == 1) == uniform
    report(7, "ramsey objects are the uniformly branching trees")


def test_criterion_08_arrow_engine_ramsey_3_3():
    pair = equilateral(2)
    holds = umr.verify_arrow(equilateral(6), e3(), pair, 2, 1)
    assert holds.holds and holds.copies == 15
    fails = umr.verify_arrow(equilateral(5), e3(), pair, 2, 1)
    assert not fails.holds
    sets = [frozenset(c) for c in fails.witness.copies]
    for y in umr.enumerate_copies(equilateral(5), e3()):
        seen = {
            fails.witness.colors[i]
            for i, s in enumerate(sets)
            if s <= frozenset(y)
        }
        assert len(seen) > 1
    report(8, "arrow engine reproduces R(3,3)=6")


def _least_l_with_pool_witness(pattern, k, max_leaves=6, budget=10 ** 6):
    """Smallest l for which some uniformly branching pool candidate is a
    verified witness of Z -> (hull)^pattern_{k,l}; a budget blowout never
    counts as a witness."""
    target = umr.order_invariant_hull(pattern)
    tree = umr.space_to_tree(target, umr.canonical_convex_order(target))
    degree = umr.tau(pattern).tau
    for l in range(1, degree + 1):
        for vector in umr.branching_vectors(tree.height):
            size = 1
            for b in vector:
                size *= b
            if size > max_leaves:
                break
            candidate = umr.tree_to_space(
                umr.uniform_tree(vector, tree.levels)
            )[0]
            try:
                verdict = umr.verify_arrow(candidate, target, pattern, k, l, budget=budget)
            except umr.BudgetExceeded:
                continue
            if verdict.holds:
                return l
    return None


def test_criterion_09_degree_pincer():
    for pattern in (equilateral(2), c3(), e3()):
        degree = umr.tau(pattern).tau
        assert _least_l_with_pool_witness(pattern, k=2) == degree
        hull = umr.order_invariant_hull(pattern)
        assert umr.verify_degree_lower(
            pattern, hull, hull, umr.canonical_convex_order(hull)
        )
    bigger = umr.tree_to_space(
        umr.uniform_tree((2, 3), umr.distance_set(c3()))
    )[0]
    assert umr.verify_degree_lower(
        c3(), umr.order_invariant_hull(c3()), bigger,
        umr.canonical_convex_order(bigger),
    )
    report(9, "degree pincer at micro scale")


def test_criterion_10_homogeneity():
    for n in range(1, 6):
        result = umr.check_homogeneity(MENU3, n, trials=200, seed=1000 * n, samples=100)
        assert result.all_passed, f"n={n} failures at trials {result.failures}"
    report(10, "homogeneous extensions, 200 trials per size")


def test_criterion_11_coherence():
    rng = random.Random(31337)
    agreements = 0
    for _ in range(1000):
        x = umr.random_point(MENU3, rng)
        s = MENU3[rng.randrange(len(MENU3) - 1)]
        y = x + umr.qs_point({s: F(rng.randint(1, 9), 3)})
        assert umr.qs_distance(x, y) == s

        def nudge(p):
            below = [t for t in MENU3 if t < s]
            t = below[rng.randrange(len(below))]
            return p + umr.qs_point({t: F(rng.randint(-9, 9), 3)})

        x2, y2 = nudge(x), nudge(y)
        assert umr.qs_distance(x, x2) < s
        assert umr.qs_distance(y, y2) < s
        if umr.qs_lex_compare(x, y) == umr.qs_lex_compare(x2, y2):
            agreements += 1
    assert agreements == 1000
    report(11, "coherence of the lexicographic order")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                number = name.split("_")[2]
                print(f"ACCEPTANCE {number} {name}: FAIL ({exc})")
    sys.exit(1 if failures else 0)
