from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import umr
from util import (
    brute_isometry_count,
    c3,
    cb4,
    e3,
    from_nested,
    leveled_trees,
    nested_tree,
    shape_spaces,
)


def test_c3_tree_structure():
    tree = umr.space_to_tree(c3(), (0, 1, 2))
    assert tree.height == 2
    assert list(tree.levels) == [F(2), F(1)]
    assert umr.format_utree(tree) == "utree v1\nlevels 2 1\n((a b) (c))\n"


def test_e3_tree_is_flat():
    tree = umr.space_to_tree(e3(), (0, 1, 2))
    assert tree.height == 1
    assert umr.format_utree(tree) == "utree v1\nlevels 1\n(p1 p2 p3)\n"


def test_one_point_tree_is_a_single_leaf():
    space = umr.validate_space([[0]], ["a"])
    tree = umr.space_to_tree(space, (0,))
    assert tree.height == 0
    assert (tree.labels, tree.joins) == (("a",), ())
    assert umr.format_utree(tree) == "utree v1\nlevels\na\n"


def test_sibling_order_follows_the_given_order():
    tree = umr.space_to_tree(c3(), (2, 0, 1))
    assert tree.labels == ("c", "a", "b")


def test_non_convex_order_is_rejected():
    with pytest.raises(umr.NonConvexOrder):
        umr.space_to_tree(c3(), (0, 2, 1))


def test_tree_to_space_inverts_the_example():
    tree = umr.parse_utree("utree v1\nlevels 2 1\n((a b) (c))\n")
    space, order = umr.tree_to_space(tree)
    assert space == c3()
    assert umr.order_labels(space, order) == ("a", "b", "c")


def test_complete_binary_tree_space():
    tree = umr.parse_utree("utree v1\nlevels 2 1\n((p q) (r s))\n")
    space, _ = umr.tree_to_space(tree)
    assert space == cb4()


def test_round_trip_over_all_small_shapes():
    for space in shape_spaces(5):
        for order in umr.enumerate_convex_orders(space):
            tree = umr.space_to_tree(space, order)
            back, back_order = umr.tree_to_space(tree)
            assert back == space
            assert umr.order_labels(back, back_order) == umr.order_labels(space, order)


def test_reverse_round_trip_preserves_code_and_leaves():
    for space in shape_spaces(5):
        order = umr.canonical_convex_order(space)
        tree = umr.space_to_tree(space, order)
        back_space, back_order = umr.tree_to_space(tree)
        again = umr.space_to_tree(back_space, back_order)
        assert umr.canonical_code(again) == umr.canonical_code(tree)
        assert again.labels == tree.labels


def test_automorphism_count_examples():
    assert umr.count_automorphisms(umr.space_to_tree(c3(), (0, 1, 2))) == 2
    assert umr.count_automorphisms(umr.space_to_tree(e3(), (0, 1, 2))) == 6


def test_automorphism_count_matches_brute_force():
    for space in shape_spaces(5):
        tree = umr.space_to_tree(space, umr.canonical_convex_order(space))
        assert umr.count_automorphisms(tree) == brute_isometry_count(space)


def test_every_multipoint_space_has_a_nontrivial_isometry():
    for space in shape_spaces(6):
        if space.size >= 2:
            tree = umr.space_to_tree(space, umr.canonical_convex_order(space))
            assert umr.count_automorphisms(tree) >= 2


def test_canonical_code_ignores_sibling_order():
    left = umr.parse_utree("utree v1\nlevels 2 1\n((a b) (c))\n")
    right = umr.parse_utree("utree v1\nlevels 2 1\n((c) (a b))\n")
    assert umr.canonical_code(left) == umr.canonical_code(right)


def test_canonical_code_distinguishes_shapes():
    t_c3 = umr.space_to_tree(c3(), (0, 1, 2))
    t_e3 = umr.space_to_tree(e3(), (0, 1, 2))
    assert umr.canonical_code(t_c3) != umr.canonical_code(t_e3)


def test_canonical_code_stable_under_reserialization():
    tree = umr.space_to_tree(cb4(), umr.canonical_convex_order(cb4()))
    reparsed = umr.parse_utree(umr.format_utree(tree))
    assert umr.canonical_code(reparsed) == umr.canonical_code(tree)


def test_utree_round_trip_normalizes_whitespace():
    text = "utree v1\nlevels 2 1\n( ( a   b )   (c) )\n"
    tree = umr.parse_utree(text)
    assert umr.format_utree(tree) == "utree v1\nlevels 2 1\n((a b) (c))\n"
    assert umr.format_utree(umr.parse_utree(umr.format_utree(tree))) == umr.format_utree(tree)


def test_utree_validation_errors():
    with pytest.raises(umr.FormatError):
        umr.parse_utree("utree v1\nlevels 1\n((a) b)\n")  # uneven leaf depth
    with pytest.raises(umr.FormatError):
        umr.parse_utree("utree v1\nlevels 2 1\n((a) (b))\n")  # level 1 never branches
    with pytest.raises(umr.FormatError):
        umr.parse_utree("utree v1\nlevels 1\n(a a)\n")  # duplicate labels
    with pytest.raises(umr.FormatError):
        umr.parse_utree("utree v1\nlevels 1 2\n(a b)\n")  # increasing levels


def test_record_checks_its_joins_and_labels():
    levels = umr.DistanceSet((F(2), F(1)))
    umr.LeveledTree(("a", "b", "c"), (1, 0), levels)
    malformed = [
        (("a", "b", "c"), (1,), "3 leaves need 2 joins"),
        (("a", "b", "c"), (1, 2), "joins must lie in 0..1"),
        (("a", "b", "c"), (0, 0), "level 1 has no branching node"),
        (("a", "b", "a"), (1, 0), "duplicate leaf labels"),
    ]
    for labels, joins, message in malformed:
        with pytest.raises(ValueError, match=message):
            umr.LeveledTree(labels, joins, levels)


def test_sibling_ordering_count():
    tree = umr.space_to_tree(cb4(), umr.canonical_convex_order(cb4()))
    assert umr.count_sibling_orderings(tree) == 8


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(leveled_trees(max_leaves=7))
def test_random_tree_round_trip(tree):
    space, order = umr.tree_to_space(tree)
    assert tree.labels == space.labels
    # the stored order against a fresh nearest-unused walk of the matrix
    assert umr.canonical_convex_order(space) == umr.spaces._walk(space.dist)
    rebuilt = umr.space_to_tree(space, order)
    assert rebuilt == tree
    assert hash(rebuilt) == hash(tree)
    from_nodes = from_nested(nested_tree(tree), tree.levels)
    assert from_nodes == tree
    assert hash(from_nodes) == hash(tree)
    assert umr.parse_utree(umr.format_utree(tree)) == tree
    canonical = umr.canonical_tree(space)
    assert umr.canonical_code(canonical) == umr.canonical_code(tree)
    assert umr.count_automorphisms(canonical) == umr.count_automorphisms(tree)
    assert umr.count_sibling_orderings(canonical) == umr.count_sibling_orderings(tree)


def test_canonical_tree_matches_checked_build():
    for space in shape_spaces(6):
        expected = umr.space_to_tree(space, umr.canonical_convex_order(space))
        assert umr.canonical_tree(space) == expected
        assert expected.levels == umr.distance_set(space)
