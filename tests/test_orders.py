import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import umr
from util import (
    brute_convex_orders,
    brute_isometries,
    c3,
    cb4,
    comb4,
    convexity_oracle,
    e3,
    equilateral,
    leveled_trees,
    naive_convex_orders,
    naive_hull,
    naive_order_type_partition,
    profile_classes,
    shape_spaces,
    shuffled_census_spaces,
    shuffled_shape_spaces,
)


def test_enumerate_c3_orders_exactly():
    got = [tuple(order) for order in umr.enumerate_convex_orders(c3())]
    assert got == [(0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0)]


def test_enumerate_e3_orders_all_six():
    assert len(umr.enumerate_convex_orders(e3())) == 6


def test_one_point_space_has_one_order():
    space = umr.validate_space([[0]], ["a"])
    assert [tuple(o) for o in umr.enumerate_convex_orders(space)] == [(0,)]


def test_enumeration_is_the_ordered_filter_oracle():
    for space in shuffled_shape_spaces(6):
        brute = brute_convex_orders(space)
        assert umr.enumerate_convex_orders(space) == brute
        assert umr.canonical_convex_order(space) == brute[0]

        # each class's members are its representative's images under the
        # isometries, rebuilt here from the brute-force isometry list
        isometries = brute_isometries(space)
        classes = umr.order_type_partition(space)
        got = [
            (rep, sorted({tuple(g[p] for p in rep) for g in isometries}))
            for rep in (cls.representative for cls in classes)
        ]
        assert got == [(members[0], members) for members in profile_classes(space, brute)]
        # the isometries act freely on the convex orders
        assert {len(members) for _, members in got} == {len(isometries)}
        assert {cls.size for cls in classes} == {len(isometries)}


def _assert_matches_the_search_oracles(space):
    assert umr.enumerate_convex_orders(space) == naive_convex_orders(space)
    got = [(cls.representative, cls.size) for cls in umr.order_type_partition(space)]
    assert got == [(members[0], len(members)) for members in naive_order_type_partition(space)]


def test_orders_and_types_match_the_search_oracles():
    for space in shuffled_shape_spaces(6):
        _assert_matches_the_search_oracles(space)
    for space in shuffled_census_spaces():
        _assert_matches_the_search_oracles(space)
    # one wide ball with mixed classes: two c3-shaped balls and two points,
    # all at distance 3, labels listed in reverse; 4!/(2!·2!)·2² = 24 types
    # of 16 orders each
    labels = ["q", "p", "c2", "b2", "a2", "c1", "b1", "a1"]
    near = {("a1", "b1"): 1, ("a1", "c1"): 2, ("b1", "c1"): 2}
    near.update({(a[0] + "2", b[0] + "2"): d for (a, b), d in near.items()})
    pairs = {(a, b): near.get((b, a), 3) for i, a in enumerate(labels) for b in labels[i + 1:]}
    space = umr.space_from_distances(labels, pairs)
    _assert_matches_the_search_oracles(space)
    assert umr.tau(space) == umr.RamseyDegreeReport(384, 16, 24)


def test_types_of_a_deep_uniform_space_need_no_recursion():
    # 1024 points, 10 levels: one type, found without walking 2^1023 orders
    levels = umr.DistanceSet(tuple(F(2 ** k) for k in range(10, 0, -1)))
    space, _ = umr.tree_to_space(umr.uniform_tree((2,) * 10, levels))
    points = list(range(space.size))
    random.Random(19).shuffle(points)
    space = space.restrict(points)
    classes = umr.order_type_partition(space)
    assert [(cls.representative, cls.size) for cls in classes] == [
        (umr.canonical_convex_order(space), umr.count_convex_orders(space))
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(leveled_trees(max_leaves=10), st.data())
def test_enumeration_on_random_trees(tree, data):
    if umr.count_sibling_orderings(tree) > 20000:
        return
    space, _ = umr.tree_to_space(tree)
    space = space.restrict(data.draw(st.permutations(range(space.size))))
    orders = [tuple(order) for order in umr.enumerate_convex_orders(space)]
    assert all(a < b for a, b in zip(orders, orders[1:]))
    assert all(map(convexity_oracle(space), orders))
    assert len(orders) == umr.count_convex_orders(space)
    assert umr.canonical_convex_order(space) == orders[0]
    _assert_matches_the_search_oracles(space)


def test_count_formula_matches_filter_oracle():
    for space in shape_spaces(5):
        assert umr.count_convex_orders(space) == len(brute_convex_orders(space))


def test_comb4_count_is_eight():
    assert umr.count_convex_orders(comb4()) == 8
    assert len(brute_convex_orders(comb4())) == 8


def test_order_type_partition_examples():
    classes = umr.order_type_partition(e3())
    assert len(classes) == 1 and classes[0].size == 6

    classes = umr.order_type_partition(c3())
    assert [cls.size for cls in classes] == [2, 2]
    assert tuple(classes[0].representative) == (0, 1, 2)
    assert tuple(classes[1].representative) == (2, 0, 1)

    classes = umr.order_type_partition(equilateral(2))
    assert len(classes) == 1 and classes[0].size == 2


def test_classes_have_equal_size_equal_to_isometry_count():
    for space in shape_spaces(5):
        classes = umr.order_type_partition(space)
        iso = umr.tau(space).iso_count
        assert {cls.size for cls in classes} == {iso}


def test_tau_examples():
    assert umr.tau(e3()) == umr.RamseyDegreeReport(6, 6, 1)
    assert umr.tau(c3()) == umr.RamseyDegreeReport(4, 2, 2)
    assert umr.tau(comb4()) == umr.RamseyDegreeReport(8, 2, 4)


def test_profiles_split_the_convex_orders_as_their_steps_do():
    # along a convex order each distance is the largest adjacent step
    # between its two points, so the steps decide the whole profile
    for space in shape_spaces(5):
        orders = umr.enumerate_convex_orders(space)
        profiles = [umr.order_profile(space, order) for order in orders]
        steps = [tuple(space.dist[p][q] for p, q in zip(o, o[1:])) for o in orders]
        assert len(set(profiles)) == len(set(steps)) == len(set(zip(profiles, steps)))
        assert len(set(profiles)) == len(umr.order_type_partition(space))


def test_tau_counts_order_types():
    for space in shape_spaces(5):
        assert umr.tau(space).tau == len(umr.order_type_partition(space))


def test_order_invariance_examples():
    assert umr.is_order_invariant(e3())
    assert not umr.is_order_invariant(c3())
    assert umr.is_order_invariant(cb4())


def test_order_invariant_iff_tau_one():
    for space in shape_spaces(6):
        assert umr.is_order_invariant(space) == (umr.tau(space).tau == 1)


def test_hull_of_e3_is_e3():
    assert umr.order_invariant_hull(e3()) == e3()


def test_hull_of_c3_is_complete_binary():
    hull = umr.order_invariant_hull(c3())
    assert hull.size == 4
    assert umr.is_order_invariant(hull)
    assert set(c3().labels) <= set(hull.labels)
    assert "_h1" in hull.labels
    sub = hull.restrict([hull.index(l) for l in ("a", "b", "c")])
    assert sub == c3()


def test_hull_of_comb4_is_complete_binary_of_height_three():
    hull = umr.order_invariant_hull(comb4())
    assert hull.size == 8
    assert list(umr.distance_set(hull)) == [F(3), F(2), F(1)]
    assert umr.is_order_invariant(hull)
    sub = hull.restrict([hull.index(l) for l in comb4().labels])
    assert sub == comb4()


def test_hull_is_order_invariant_for_all_small_spaces():
    for space in shape_spaces(5):
        hull = umr.order_invariant_hull(space)
        assert umr.is_order_invariant(hull)
        original = [hull.index(l) for l in space.labels]
        assert hull.restrict(original) == space


def test_hull_matches_the_padding_oracle():
    # the shape spaces with at most 7 leaves, shuffled; every other one has
    # some of the labels _h1.._h4 that the fresh-label counter must skip
    rng = random.Random(15)
    for k, space in enumerate(shuffled_shape_spaces(7)):
        if k % 2:
            names = [f"_h{i}" for i in range(1, 5)]
            rng.shuffle(names)
            taken = rng.randint(1, min(4, space.size))
            space = umr.validate_space(space.dist, names[:taken] + list(space.labels[taken:]))
        expected = umr.format_uspace(naive_hull(space))
        assert umr.format_uspace(umr.order_invariant_hull(space)) == expected


def test_hull_realizes_every_order_type_of_c3():
    space = c3()
    hull = umr.order_invariant_hull(space)
    reps = [cls.representative for cls in umr.order_type_partition(space)]
    for hull_order in umr.enumerate_convex_orders(hull):
        for rep in reps:
            copies = umr.enumerate_copies(hull, space, hull_order, rep)
            assert copies, "an order type went missing under some convex order"


def test_reasonability_every_suborder_extends():
    from itertools import combinations

    for big in shape_spaces(5):
        n = big.size
        big_orders = umr.enumerate_convex_orders(big)
        for size in range(2, n):
            for subset in combinations(range(n), size):
                small = big.restrict(subset)
                local = {p: i for i, p in enumerate(subset)}
                restrictions = {
                    tuple(local[p] for p in order if p in local)
                    for order in big_orders
                }
                for small_order in umr.enumerate_convex_orders(small):
                    assert tuple(small_order) in restrictions


def test_internal_tau_report_consistency():
    for space in shape_spaces(5):
        report = umr.tau(space)
        assert report.tau * report.iso_count == report.clo_count
