from fractions import Fraction as F
from itertools import combinations, product
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import umr
from umr.ramsey import _completions, _members
from util import (
    _colorings,
    brute_arrow_holds,
    brute_convex_orders,
    brute_twin_classes,
    brute_copies,
    brute_ordered_copies,
    c3,
    cb4,
    comb4,
    e3,
    equilateral,
    exhaustive_arrow,
    leveled_trees,
    profile,
    safe_cut_arrow,
    shape_spaces,
    shuffled_shape_spaces,
)


def ordered(space):
    return umr.canonical_convex_order(space)


def test_single_point_pattern_copies():
    one = umr.validate_space([[0]], ["x"])
    for n in (1, 3, 5):
        assert len(umr.enumerate_copies(equilateral(n), one)) == n


def test_pair_copies_in_triangle():
    assert len(umr.enumerate_copies(e3(), equilateral(2))) == 3


def test_c3_copies_in_complete_binary():
    copies = umr.enumerate_copies(cb4(), c3())
    assert len(copies) == 4
    for copy in copies:
        sub = cb4().restrict(sorted(copy))
        assert sorted(
            sub.dist[i][j] for i in range(3) for j in range(i + 1, 3)
        ) == [F(1), F(2), F(2)]


def test_ordered_copies_respect_the_order():
    ambient = cb4()
    # pair-before-singleton reading of c3 under its identity order
    copies = umr.enumerate_copies(ambient, c3(), ordered(ambient), ordered(c3()))
    assert len(copies) == 2
    singleton_first = (2, 0, 1)
    copies = umr.enumerate_copies(ambient, c3(), ordered(ambient), singleton_first)
    assert len(copies) == 2
    for copy in copies:
        # pattern point 2 (the far point) must come first in ambient order
        assert copy[2] == min(copy)


def test_copy_mappings_preserve_distance():
    for copy in umr.enumerate_copies(comb4(), c3()):
        for i in range(3):
            for j in range(i + 1, 3):
                assert comb4().dist[copy[i]][copy[j]] == c3().dist[i][j]


def assert_copies_are_the_oracles(ambient, ambient_order, pattern, pattern_orders):
    """Unordered copies: the permutation oracle's subsets in its order, each
    mapping an isometry.  Ordered copies, for each given pattern order: the
    all-pairs monotone oracle's mappings in its order."""
    copies = umr.enumerate_copies(ambient, pattern)
    assert [tuple(sorted(c)) for c in copies] == brute_copies(ambient, pattern)
    for copy in copies:
        assert len(set(copy)) == pattern.size
        assert all(
            ambient.dist[copy[i]][copy[j]] == pattern.dist[i][j]
            for i in range(pattern.size)
            for j in range(i + 1, pattern.size)
        )
    for pattern_order in pattern_orders:
        got = umr.enumerate_copies(ambient, pattern, ambient_order, pattern_order)
        expected = brute_ordered_copies(ambient, ambient_order, pattern, pattern_order)
        assert got == expected


def test_copies_match_the_oracles_on_shape_spaces():
    # each shape comes twice, power-of-two levels first; patterns take
    # their levels from the ambient's family, so that copies occur
    patterns = list(shuffled_shape_spaces(4))
    checked = 0
    for index, ambient in enumerate(shuffled_shape_spaces(6)):
        for pattern in patterns[index % 2::2]:
            if pattern.size <= ambient.size:
                assert_copies_are_the_oracles(
                    ambient, ordered(ambient), pattern, brute_convex_orders(pattern)
                )
                checked += 1
    assert checked > 2000


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(leveled_trees(6), st.data())
def test_copies_match_the_oracles_on_random_trees(z_tree, data):
    ambient, _ = umr.tree_to_space(z_tree)
    ambient = ambient.restrict(data.draw(st.permutations(range(ambient.size))))
    pattern = data.draw(spaces_on_levels(z_tree.levels, 4))
    pattern = pattern.restrict(data.draw(st.permutations(range(pattern.size))))
    assume(pattern.size <= ambient.size)
    ambient_order = data.draw(st.sampled_from(brute_convex_orders(ambient)))
    pattern_order = data.draw(st.sampled_from(brute_convex_orders(pattern)))
    assert_copies_are_the_oracles(ambient, ambient_order, pattern, [pattern_order])


def test_copies_refuse_non_convex_orders():
    with pytest.raises(umr.NonConvexOrder):
        umr.enumerate_copies(cb4(), c3(), ordered(cb4()), (0, 2, 1))
    with pytest.raises(umr.NonConvexOrder):
        umr.verify_arrow(
            cb4(), c3(), equilateral(2), 2, 1,
            ambient_order=(0, 2, 1, 3), target_order=ordered(c3()), pattern_order=(0, 1),
        )
    with pytest.raises(umr.NonConvexOrder):
        umr.order_type_coloring(cb4(), (0, 2, 1, 3), c3())


def test_pigeonhole_arrow():
    one = umr.validate_space([[0]], ["x"])
    verdict = umr.verify_arrow(equilateral(3), equilateral(2), one, 2, 1)
    assert verdict.holds


def test_classical_ramsey_3_3():
    pair = equilateral(2)
    holds = umr.verify_arrow(equilateral(6), e3(), pair, 2, 1)
    assert holds.holds
    assert holds.copies == 15
    fails = umr.verify_arrow(equilateral(5), e3(), pair, 2, 1)
    assert not fails.holds
    # the reported coloring really is bad: every triangle sees both colors
    witness = fails.witness
    sets = [frozenset(c) for c in witness.copies]
    for y in umr.enumerate_copies(equilateral(5), e3()):
        inside = {
            witness.colors[i] for i, s in enumerate(sets) if s <= frozenset(y)
        }
        assert len(inside) > 1


def test_single_copy_target_always_holds():
    verdict = umr.verify_arrow(c3(), c3(), c3(), 2, 1)
    assert verdict.holds


def test_hull_ambient_holds_at_its_degree():
    hull = umr.order_invariant_hull(c3())
    verdict = umr.verify_arrow(hull, c3(), c3(), 2, 2)
    assert verdict.holds


def test_no_target_copy_means_failure():
    verdict = umr.verify_arrow(equilateral(2), e3(), equilateral(2), 2, 1)
    assert not verdict.holds


def test_color_and_value_monotonicity():
    pair = equilateral(2)
    base = umr.verify_arrow(equilateral(6), e3(), pair, 2, 1)
    assert base.holds
    assert umr.verify_arrow(equilateral(6), e3(), pair, 1, 1).holds
    assert umr.verify_arrow(equilateral(6), e3(), pair, 2, 2).holds


def test_embedding_monotonicity_small():
    one = umr.validate_space([[0]], ["x"])
    pair = equilateral(2)
    assert umr.verify_arrow(equilateral(3), pair, one, 2, 1).holds
    assert umr.verify_arrow(equilateral(4), pair, one, 2, 1).holds


def test_pruning_is_sound():
    pair = equilateral(2)
    cases = [
        (equilateral(4), e3(), pair, 2, 1),
        (equilateral(5), e3(), pair, 2, 1),
        (equilateral(4), e3(), pair, 3, 1),
        (cb4(), c3(), c3(), 2, 1),
        (umr.order_invariant_hull(c3()), c3(), c3(), 2, 2),
    ]
    for ambient, target, pattern, k, l in cases:
        verdict = umr.verify_arrow(ambient, target, pattern, k, l)
        assert verdict.holds == brute_arrow_holds(ambient, target, pattern, k, l)


def stirling2(n, j):
    return sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1)) // factorial(j)


def restricted_growth_count(n, k):
    return sum(stirling2(n, j) for j in range(1, k + 1)) if n else 1


def test_pruned_enumeration_counts_color_classes():
    for n in range(1, 8):
        for k in (1, 2, 3):
            pruned = sum(1 for _ in _colorings(n, k))
            assert pruned == restricted_growth_count(n, k)


def test_completion_table_counts_restricted_growth_strings():
    def brute(r, m, k):
        # strings of r more colors, each at most one above the largest so far
        count = 0
        for tail in product(range(k), repeat=r):
            top = m
            for c in tail:
                if c > top + 1:
                    break
                top = max(top, c)
            else:
                count += 1
        return count

    for n in range(1, 9):
        for k in (1, 2, 3, 4):
            table = _completions(n, k, 10 ** 9)
            assert len(table) == n
            assert table[n - 1][0] == restricted_growth_count(n, k)
            assert table == [[brute(r, m, k) for m in range(k)] for r in range(n)]
            capped = _completions(n, k, 7)
            assert capped == [[min(7, t) for t in row] for row in table]


def test_budget_exceeded():
    pair = equilateral(2)
    with pytest.raises(umr.BudgetExceeded) as err:
        umr.verify_arrow(equilateral(6), e3(), pair, 2, 1, budget=10)
    assert err.value.colorings == 10


def exhaustive_outcome(ambient, target, pattern, k, l, orders, budget):
    try:
        return exhaustive_arrow(ambient, target, pattern, k, l, budget=budget, **orders)
    except umr.BudgetExceeded as exc:
        return "budget-exceeded", exc.copies, exc.colorings


def assert_search_gives(expected, ambient, target, pattern, k, l, orders, budget):
    """verify_arrow agrees with the oracle's outcome on verdict, colorings,
    witness colors and copies, or on both BudgetExceeded fields."""
    try:
        verdict = umr.verify_arrow(ambient, target, pattern, k, l, budget=budget, **orders)
    except umr.BudgetExceeded as exc:
        assert ("budget-exceeded", exc.copies, exc.colorings) == expected
        return
    colors = None if verdict.witness is None else verdict.witness.colors
    assert (verdict.holds, verdict.colorings, colors) == expected
    copies = umr.enumerate_copies(
        ambient, pattern, orders.get("ambient_order"), orders.get("pattern_order")
    )
    assert verdict.copies == len(copies)
    if verdict.witness is not None:
        assert verdict.witness.copies == tuple(copies)


def arrow_orders(ambient, target, pattern, with_orders):
    if not with_orders:
        return {}
    return {
        "ambient_order": ordered(ambient),
        "target_order": ordered(target),
        "pattern_order": ordered(pattern),
    }


# Largest number of restricted-growth colorings an instance below may have,
# so that the one-by-one oracle stays quick; K6 with pairs and 2 colors
# (16384) is among them.
EXHAUSTIVE_LIMIT = 16384


def small_instances():
    """Every (Z, Y, X) with Y of at most 4 points and X of at most 3 among
    the equilateral spaces of 1-6 points, c3, cb4, comb4 and their hulls."""
    spaces = [equilateral(n) for n in range(1, 7)]
    for base in (c3(), cb4(), comb4()):
        for space in (base, umr.order_invariant_hull(base)):
            if space not in spaces:
                spaces.append(space)
    for ambient in spaces:
        for target in spaces:
            for pattern in spaces:
                if pattern.size > 3 or target.size > 4:
                    continue
                if not pattern.size <= target.size <= ambient.size:
                    continue
                for with_orders in (False, True):
                    orders = arrow_orders(ambient, target, pattern, with_orders)
                    n = len(umr.enumerate_copies(
                        ambient, pattern, orders.get("ambient_order"), orders.get("pattern_order")
                    ))
                    for k in (1, 2, 3):
                        if restricted_growth_count(n, k) > EXHAUSTIVE_LIMIT:
                            continue
                        for l in range(1, k + 1):
                            yield ambient, target, pattern, k, l, orders


def test_search_matches_exhaustive_scan_on_small_instances(monkeypatch):
    # each instance is decided a dozen times over the same copy lists
    enumerate_copies = umr.ramsey.enumerate_copies
    found = {}

    def copies_once(*args):
        if args not in found:
            found[args] = enumerate_copies(*args)
        return found[args]

    monkeypatch.setattr(umr.ramsey, "enumerate_copies", copies_once)
    monkeypatch.setattr(umr, "enumerate_copies", copies_once)
    instances = 0
    for instance in small_instances():
        unlimited = exhaustive_outcome(*instance, umr.DEFAULT_BUDGET)
        rank = unlimited[1]
        for budget in (-1, 0, rank - 1, rank, rank + 1):
            # the scan never reaches a budget at or above the rank
            expected = unlimited if budget >= rank else exhaustive_outcome(*instance, budget)
            assert_search_gives(expected, *instance, budget)
        instances += 1
    assert instances > 2000


def test_search_at_a_palette_larger_than_the_copies():
    # colors never go above the copy index, so k far beyond the number of
    # copies decides like the one-by-one scan and allocates nothing per color
    k = 10 ** 9
    for ambient in (e3(), equilateral(4)):
        for l in (1, 2, 3):
            for with_orders in (False, True):
                orders = arrow_orders(ambient, e3(), equilateral(2), with_orders)
                instance = (ambient, e3(), equilateral(2), k, l, orders)
                unlimited = exhaustive_outcome(*instance, umr.DEFAULT_BUDGET)
                rank = unlimited[1]
                for budget in (0, rank - 1, rank):
                    expected = unlimited if budget >= rank else exhaustive_outcome(*instance, budget)
                    assert_search_gives(expected, *instance, budget)
    verdict = umr.verify_arrow(e3(), e3(), equilateral(2), k, 1)
    assert verdict.witness.k == k


@st.composite
def spaces_on_levels(draw, levels, max_leaves):
    """A space from a random leveled tree of at most max_leaves leaves, its
    levels drawn from the given ones so that it can embed."""
    tree = draw(leveled_trees(max_leaves))
    height = len(tree.levels)
    assume(height <= len(levels))
    chosen = draw(st.lists(
        st.sampled_from(levels.values), min_size=height, max_size=height, unique=True,
    )) if height else []
    tree = umr.LeveledTree(
        tree.labels, tree.joins, umr.DistanceSet(tuple(sorted(chosen, reverse=True)))
    )
    return umr.tree_to_space(tree)[0]


@st.composite
def arrow_instances(draw):
    """Z, Y and X from random leveled trees, Y and X on levels drawn from
    Z's so that copies can exist."""
    z_tree = draw(leveled_trees(6))
    ambient, _ = umr.tree_to_space(z_tree)
    target = draw(spaces_on_levels(z_tree.levels, 4))
    pattern = draw(spaces_on_levels(z_tree.levels, 3))
    k = draw(st.integers(1, 3))
    l = draw(st.integers(1, k))
    orders = arrow_orders(ambient, target, pattern, draw(st.booleans()))
    return ambient, target, pattern, k, l, orders


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(arrow_instances(), st.data())
def test_search_matches_exhaustive_scan_on_random_instances(instance, data):
    ambient, target, pattern, k, l, orders = instance
    n = len(umr.enumerate_copies(
        ambient, pattern, orders.get("ambient_order"), orders.get("pattern_order")
    ))
    total = restricted_growth_count(n, k)
    assume(total <= 4096)
    budget = data.draw(st.one_of(st.sampled_from([-1, 0]), st.integers(0, total + 1)))
    expected = exhaustive_outcome(*instance, budget)
    assert_search_gives(expected, *instance, budget)


def safe_cut_outcome(ambient, target, pattern, k, l, orders, budget):
    try:
        return safe_cut_arrow(ambient, target, pattern, k, l, budget=budget, **orders)[:3]
    except umr.BudgetExceeded as exc:
        return "budget-exceeded", exc.copies, exc.colorings


def test_search_matches_the_safe_cut_search_beyond_the_exhaustive_scan():
    # K8 and K9 fail for K4 (R(4, 4) = 18), at colorings 255575 and 33150643
    pair = equilateral(2)
    instances = [(7, 3, 2, 1), (8, 3, 2, 1), (8, 4, 2, 1), (9, 4, 2, 1), (6, 3, 3, 2), (7, 3, 3, 2)]
    ranks = {}
    for n, y, k, l in instances:
        for with_orders in (False, True):
            ambient, target = equilateral(n), equilateral(y)
            instance = (ambient, target, pair, k, l, arrow_orders(ambient, target, pair, with_orders))
            unlimited = safe_cut_outcome(*instance, 10 ** 18)
            rank = unlimited[1]
            ranks[n, y, k, with_orders] = rank
            for budget in (rank - 1, rank, rank + 1):
                expected = unlimited if budget >= rank else safe_cut_outcome(*instance, budget)
                assert_search_gives(expected, *instance, budget)
    assert ranks[8, 4, 2, False] == 255575
    assert ranks[9, 4, 2, True] == 33150643


def test_forced_colors_cut_at_least_half_the_nodes():
    pair = equilateral(2)
    for n in (6, 7):
        verdict = umr.verify_arrow(equilateral(n), e3(), pair, 2, 1)
        holds, colorings, _, nodes = safe_cut_arrow(equilateral(n), e3(), pair, 2, 1)
        assert (verdict.holds, verdict.colorings) == (holds, colorings)
        assert 2 * verdict.nodes <= nodes


def test_twins_are_the_points_of_one_ball_along_the_walk():
    # consecutive twins along each convex order, every order of up to 4 points
    checked = 0
    for space in shuffled_shape_spaces(6):
        classes = brute_twin_classes(space)
        for walk in brute_convex_orders(space) if space.size <= 4 else [ordered(space)]:
            place = {p: i for i, p in enumerate(walk)}
            expected = set()
            for cls in classes:
                cls.sort(key=place.__getitem__)
                expected.update(zip(cls, cls[1:]))
            got = umr.ramsey._twins(space, walk)
            assert len(got) == len(expected) and set(got) == expected
            checked += bool(got)
    assert checked > 100


def eager_arrow(*args, **kwargs):
    """verify_arrow with the twin swaps found at the first raised color, so
    that the symmetry cut also runs on searches too short to wait for them."""
    wait, umr.ramsey._SWAP_WAIT = umr.ramsey._SWAP_WAIT, 0
    try:
        return umr.verify_arrow(*args, **kwargs)
    finally:
        umr.ramsey._SWAP_WAIT = wait


def assert_symmetry_cut_is_exact(ambient, target, pattern, k, l, orders):
    """The eager search's verdict, colorings and witness colors are the
    safe-cut search's, and the one-by-one scan's when it is short; returns
    whether the oracle had to search."""
    args = (ambient, target, pattern, k, l)
    verdict = eager_arrow(*args, budget=10 ** 12, **orders)
    holds, colorings, colors, nodes = safe_cut_arrow(*args, budget=10 ** 12, **orders)
    got = (verdict.holds, verdict.colorings, verdict.witness and verdict.witness.colors)
    assert got == (holds, colorings, colors)
    if nodes and restricted_growth_count(verdict.copies, k) <= 4096:
        assert exhaustive_arrow(*args, **orders) == (holds, colorings, colors)
    return bool(nodes)


def shape_instances():
    """Every (Z, Y, X) over the shape spaces of at most 5 points, and those
    with a 6-point Z, Y of at most 4 and X of at most 3 points, with (k, l)
    = (2, 1), (3, 1) and (3, 2), unordered and along canonical orders."""
    spaces = shape_spaces(6)
    for ambient in spaces:
        for target in spaces:
            for pattern in spaces:
                if not pattern.size <= target.size <= ambient.size:
                    continue
                if ambient.size == 6 and (target.size > 4 or pattern.size > 3):
                    continue
                for with_orders in (False, True):
                    orders = arrow_orders(ambient, target, pattern, with_orders)
                    for k, l in ((2, 1), (3, 1), (3, 2)):
                        yield ambient, target, pattern, k, l, orders


def test_symmetry_cut_matches_the_oracles_on_shape_spaces(monkeypatch):
    # each copy list is enumerated once, keyed by the spaces' identities
    copies, found = umr.ramsey._copies, {}

    def copies_once(ambient, pattern, ambient_order=None, pattern_order=None):
        key = (id(ambient), id(pattern), ambient_order, pattern_order)
        if key not in found:
            found[key] = copies(ambient, pattern, ambient_order, pattern_order)
        return found[key]

    monkeypatch.setattr(umr.ramsey, "_copies", copies_once)
    monkeypatch.setattr(umr, "enumerate_copies", copies_once)
    searched = 0
    for instance in shape_instances():
        searched += assert_symmetry_cut_is_exact(*instance)
    assert searched > 2000


def test_symmetry_cut_matches_the_oracles_along_every_order_of_z():
    # twins need not be neighbours along a convex order of Z, and swapping
    # them may then take an ordered copy off its list
    spaces = shape_spaces(5)
    small = [space for space in spaces if space.size <= 3]
    checked = 0
    for ambient in [space for space in spaces if space.size == 5]:
        for walk in brute_convex_orders(ambient):
            for target in small:
                for pattern in small:
                    if pattern.size > min(target.size, 2):
                        continue
                    orders = {
                        "ambient_order": walk,
                        "target_order": ordered(target),
                        "pattern_order": ordered(pattern),
                    }
                    for k, l in ((2, 1), (3, 1), (3, 2)):
                        checked += assert_symmetry_cut_is_exact(ambient, target, pattern, k, l, orders)
    assert checked > 600


@st.composite
def any_order_instances(draw):
    """``arrow_instances`` whose ordered ones take convex orders drawn at
    random, so that twins of Z need not be neighbours along its order."""
    ambient, target, pattern, k, l, orders = draw(arrow_instances())
    if orders:
        orders = {
            name: draw(st.sampled_from(brute_convex_orders(space)))
            for name, space in (
                ("ambient_order", ambient), ("target_order", target), ("pattern_order", pattern)
            )
        }
    return ambient, target, pattern, k, l, orders


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(any_order_instances())
def test_symmetry_cut_matches_the_oracles_on_random_instances(instance):
    assert_symmetry_cut_is_exact(*instance)


def test_symmetry_cut_opens_k9_and_k10():
    pair = equilateral(2)
    # R(4, 4) = 18: K10 has a 2-coloring of its edges with no one-colored K4
    verdict = umr.verify_arrow(equilateral(10), equilateral(4), pair, 2, 1, budget=10 ** 12)
    assert (verdict.holds, verdict.colorings) == (False, 76987847441)
    assert verdict.nodes <= 7458
    witness = verdict.witness
    color = {frozenset(copy): c for copy, c in zip(witness.copies, witness.colors)}
    for quad in combinations(range(10), 4):
        assert {color[frozenset(edge)] for edge in combinations(quad, 2)} == {0, 1}
    # R(3, 3) = 6: every 2-coloring of K9's 36 edges has a one-colored triangle
    verdict = umr.verify_arrow(equilateral(9), e3(), pair, 2, 1, budget=10 ** 12)
    assert (verdict.holds, verdict.colorings) == (True, 2 ** 35)
    assert verdict.nodes <= 295


def test_search_work_on_benchmark_shaped_instances(monkeypatch):
    # the copies colored over arrows shaped like the benchmark's, so that a
    # lost cut fails here and not only in a timing
    nodes = []
    arrow = umr.ramsey._arrow

    def counted(*args):
        verdict = arrow(*args)
        nodes.append(verdict.nodes)
        return verdict

    monkeypatch.setattr(umr.ramsey, "_arrow", counted)
    pair, far_pair = equilateral(2), equilateral(2, 2)
    for n, k, l in ((3, 2, 1), (4, 3, 1), (5, 2, 1), (5, 3, 2), (6, 2, 1), (7, 2, 1)):
        for with_orders in (False, True):
            ambient = equilateral(n)
            umr.verify_arrow(ambient, e3(), pair, k, l, **arrow_orders(ambient, e3(), pair, with_orders))
    for x, y in ((pair, e3()), (pair, c3()), (far_pair, c3()), (c3(), c3())):
        umr.search_witness(x, ordered(x), y, ordered(y), 2)
    for x, y in ((pair, e3()), (pair, c3()), (c3(), c3())):
        umr.chain_upper_bound(x, y, 2)
    assert sum(nodes) <= 1000  # 3178 without the symmetry cut


def test_order_type_coloring_constant_for_pair():
    pair = equilateral(2)
    coloring = umr.order_type_coloring(equilateral(4), ordered(equilateral(4)), pair)
    assert coloring.k == 1
    assert set(coloring.colors) == {0}


def test_order_type_coloring_on_hull_uses_both_colors():
    hull = umr.order_invariant_hull(c3())
    coloring = umr.order_type_coloring(hull, ordered(hull), c3())
    assert coloring.k == 2
    assert set(coloring.colors) == {0, 1}


def test_order_type_coloring_constant_for_e3():
    coloring = umr.order_type_coloring(equilateral(5), ordered(equilateral(5)), e3())
    assert coloring.k == 1
    assert set(coloring.colors) == {0}


def test_order_type_coloring_is_isometry_invariant():
    from itertools import permutations

    hull = umr.order_invariant_hull(c3())
    coloring = umr.order_type_coloring(hull, ordered(hull), c3())
    color_of = {frozenset(c): col for c, col in zip(coloring.copies, coloring.colors)}
    n = hull.size
    isometries = [
        perm
        for perm in permutations(range(n))
        if all(
            hull.dist[perm[i]][perm[j]] == hull.dist[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        )
    ]
    for perm in isometries:
        for copy, color in zip(coloring.copies, coloring.colors):
            moved = frozenset(perm[p] for p in copy)
            # orbit image induces an isomorphic ordered copy iff profiles agree;
            # when it does, the color must be preserved
            seq = sorted(moved)
            prof_orig = sorted(copy)
            same_profile = all(
                hull.dist[seq[a]][seq[b]] == hull.dist[prof_orig[a]][prof_orig[b]]
                for a in range(3)
                for b in range(a + 1, 3)
            )
            if same_profile:
                assert color_of[moved] == color


def test_members_match_a_subset_scan():
    # Z with at most 5 points, X no larger than Y, both at most 3; unordered
    # and ordered under the canonical orders
    spaces = list(shuffled_shape_spaces(5))
    small = [space for space in spaces if space.size <= 3]
    found = 0
    for ambient in spaces:
        for target in small:
            for pattern in small:
                if pattern.size > target.size:
                    continue
                for with_orders in (False, True):
                    x_orders = (ordered(ambient), ordered(pattern)) if with_orders else ()
                    y_orders = (ordered(ambient), ordered(target)) if with_orders else ()
                    x_copies = umr.enumerate_copies(ambient, pattern, *x_orders)
                    y_copies = umr.enumerate_copies(ambient, target, *y_orders)
                    members = _members(x_copies, y_copies, pattern.size)
                    assert len(members) == len(y_copies)
                    for y, inside in zip(y_copies, members):
                        expected = [i for i, c in enumerate(x_copies) if set(c) <= set(y)]
                        assert sorted(inside) == expected
                        found += len(inside)
                    if pattern.size == 1:
                        # the single-point copies are the points in index order
                        assert [sorted(inside) for inside in members] == [sorted(y) for y in y_copies]
                    assert _members(y_copies, y_copies, target.size) == [[i] for i in range(len(y_copies))]
                    assert _members(x_copies, [], target.size) == []
    assert found > 5000


def test_order_type_coloring_reads_each_copys_profile_along_every_convex_order():
    spaces = list(shape_spaces(5))
    patterns = [space for space in spaces if space.size <= 3]
    colored, used = 0, set()
    for ambient in spaces:
        for order in brute_convex_orders(ambient):
            place = {point: p for p, point in enumerate(order)}
            for pattern in patterns:
                coloring = umr.order_type_coloring(ambient, order, pattern)
                classes = umr.order_type_partition(pattern)
                profiles = [profile(pattern, cls.representative) for cls in classes]
                assert coloring.k == len(classes)
                assert list(coloring.copies) == umr.enumerate_copies(ambient, pattern)
                for copy, color in zip(coloring.copies, coloring.colors):
                    along = sorted(copy, key=place.get)
                    assert color == profiles.index(profile(ambient, along))
                    colored += 1
                    used.add(color)
    assert colored > 8000 and used == {0, 1}


def test_degree_lower_examples():
    hull = umr.order_invariant_hull(c3())
    assert umr.verify_degree_lower(c3(), hull, hull, ordered(hull))
    assert umr.verify_degree_lower(e3(), e3(), equilateral(5), ordered(equilateral(5)))
    pair = equilateral(2)
    assert umr.verify_degree_lower(pair, pair, equilateral(4), ordered(equilateral(4)))


def test_degree_lower_matches_a_subset_scan():
    spaces = [equilateral(n) for n in range(2, 6)] + [c3(), cb4(), comb4()]
    spaces += [umr.order_invariant_hull(c3()), umr.order_invariant_hull(comb4())]
    verdicts = set()
    for ambient in spaces:
        order = ordered(ambient)
        for target in spaces:
            for pattern in spaces:
                if not pattern.size <= target.size <= ambient.size:
                    continue
                coloring = umr.order_type_coloring(ambient, order, pattern)
                x_sets = [frozenset(c) for c in coloring.copies]
                expected = all(
                    len({
                        color for xs, color in zip(x_sets, coloring.colors)
                        if xs <= frozenset(y)
                    }) == coloring.k
                    for y in umr.enumerate_copies(ambient, target)
                )
                assert umr.verify_degree_lower(pattern, target, ambient, order) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_degree_lower_on_larger_ambient():
    hull = umr.order_invariant_hull(c3())
    bigger = umr.tree_to_space(
        umr.uniform_tree((2, 3), umr.distance_set(c3()))
    )[0]
    assert umr.verify_degree_lower(c3(), hull, bigger, ordered(bigger))


def test_search_witness_minimal_cases():
    pair = equilateral(2)
    z, _ = umr.search_witness(pair, ordered(pair), pair, ordered(pair), 2)
    assert z.size == 2
    z, _ = umr.search_witness(pair, ordered(pair), e3(), ordered(e3()), 2)
    assert z.size == 6


def test_search_witness_single_point_pattern():
    one = umr.validate_space([[0]], ["x"])
    z, _ = umr.search_witness(one, (0,), e3(), ordered(e3()), 2)
    verdict = umr.verify_arrow(
        z, e3(), one, 2, 1,
        ambient_order=ordered(z), target_order=ordered(e3()),
        pattern_order=(0,),
    )
    assert verdict.holds


def test_arrow_takes_all_three_orders_or_none():
    pair = equilateral(2)
    partial = [
        {"pattern_order": (0, 1)},
        {"target_order": (0, 1, 2)},
        {"pattern_order": (0, 1), "target_order": (0, 1, 2)},
        {"ambient_order": tuple(range(6)), "pattern_order": (0, 1)},
    ]
    for orders in partial:
        with pytest.raises(ValueError, match="pass both orders or neither"):
            umr.verify_arrow(equilateral(6), e3(), pair, 2, 1, **orders)


def test_copies_take_both_orders_or_neither():
    for orders in [((0, 1, 2), None), (None, (0, 1))]:
        with pytest.raises(ValueError, match="pass both orders or neither"):
            umr.enumerate_copies(e3(), equilateral(2), *orders)


def test_each_given_order_is_checked_once(monkeypatch):
    checked = []
    is_convex_order = umr.spaces.is_convex_order

    def counted(space, order):
        checked.append(order)
        return is_convex_order(space, order)

    monkeypatch.setattr(umr.spaces, "is_convex_order", counted)
    monkeypatch.setattr(umr.trees, "is_convex_order", counted)
    pair, six = equilateral(2), equilateral(6)
    umr.verify_arrow(
        six, e3(), pair, 2, 1,
        ambient_order=ordered(six), target_order=ordered(e3()), pattern_order=ordered(pair),
    )
    assert len(checked) == 3
    checked.clear()
    # candidates with 2, 3 and 4 points fail before the 5-point one holds
    one = umr.validate_space([[0]], ["x"])
    z, _ = umr.search_witness(one, (0,), e3(), ordered(e3()), 2)
    assert z.size == 5
    assert checked == [ordered(e3()), (0,)]


def test_search_budget_exceeded():
    pair = equilateral(2)
    with pytest.raises(umr.BudgetExceeded):
        umr.search_witness(pair, ordered(pair), e3(), ordered(e3()), 2, budget=5)


def test_chain_with_identity_oracle():
    witness = equilateral(6)
    fixed = (witness, ordered(witness))

    def oracle(_, __):
        return fixed

    result = umr.chain_upper_bound(e3(), e3(), 2, oracle=oracle)
    assert result.space == witness
    assert len(result.steps) == 1  # one order type
    assert result.verdict.holds


def test_chain_pair_to_triangle():
    pair = equilateral(2)
    result = umr.chain_upper_bound(pair, e3(), 2)
    assert result.value_bound == 1
    assert result.verdict is not None and result.verdict.holds


def test_chain_c3():
    result = umr.chain_upper_bound(c3(), c3(), 2)
    assert result.value_bound == 2
    assert len(result.steps) == 2
    assert result.verdict is not None and result.verdict.holds
    final = umr.verify_arrow(result.space, c3(), c3(), 2, 2)
    assert final.holds


def test_chain_oracle_failure():
    pair = equilateral(2)
    with pytest.raises(umr.OracleFailure):
        umr.chain_upper_bound(pair, e3(), 2, budget=5)


def test_arrow_report_format():
    pair = equilateral(2)
    verdict = umr.verify_arrow(equilateral(6), e3(), pair, 2, 1)
    report = umr.format_arrow_report(verdict)
    assert report == f"arrow holds copies=15 colorings={verdict.colorings}\n"
    fails = umr.verify_arrow(equilateral(5), e3(), pair, 2, 1)
    lines = umr.format_arrow_report(fails).splitlines()
    assert lines[0] == f"arrow fails copies=10 colorings={fails.colorings}"
    assert lines[1] == "copy 0 color 0"
    assert len(lines) == 11
    exceeded = umr.BudgetExceeded(15, 10)
    assert umr.format_arrow_report(exceeded) == (
        "arrow budget-exceeded copies=15 colorings=10\n"
    )


def test_coloring_requires_totality():
    with pytest.raises(ValueError):
        umr.Coloring(pattern=e3(), ambient=e3(), copies=(), colors=(0,), k=1)
