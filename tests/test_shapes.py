import sys
from collections import Counter
from fractions import Fraction as F
from itertools import islice, product
from math import factorial, prod

import pytest
from hypothesis import given, settings

import umr
from util import (
    cb4,
    code_tree,
    comb4,
    e3,
    enumerated_extremal_report,
    from_nested,
    leveled_trees,
    naive_automorphisms,
    naive_canonical_code,
    naive_child_counts,
    naive_is_comb,
    nested_tree,
    profile_classes,
    uniform_entries,
)

# leaves: (shape count, max tau); for n >= 10 tau beats the comb's 2^(n-2)
PINNED_SCANS = {
    2: (1, 1), 3: (2, 2), 4: (6, 4), 5: (20, 8), 6: (90, 16), 7: (468, 32),
    8: (2910, 64), 9: (20644, 128), 10: (165874, 360), 11: (1484344, 840),
    12: (14653890, 2520), 13: (158136988, 6720), 14: (1852077284, 20160),
    15: (23394406084, 60480), 16: (317018563806, 181440),
}


def test_shape_counts_match_hand_enumeration():
    # n=4: flat, {2,2}, {3,1}, {2,1,1} at height 2, comb and double-split at height 3
    counts = [len(umr.all_tree_shapes(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 20, 90, 468]
    with pytest.raises(ValueError, match="leaf count must be positive"):
        umr.all_tree_shapes(0)


def test_shapes_are_valid_and_distinct():
    for n in range(2, 7):
        shapes = umr.all_tree_shapes(n)
        codes = [umr.canonical_code(t) for t in shapes]
        assert len(set(codes)) == len(codes)
        for tree in shapes:
            assert len(tree.labels) == n


def test_is_comb_examples():
    assert umr.is_comb(umr.comb_tree(4))
    assert umr.is_comb(umr.space_to_tree(e3(), (0, 1, 2)))  # single branching node
    assert not umr.is_comb(umr.space_to_tree(cb4(), umr.canonical_convex_order(cb4())))


def check_join_statistics(tree):
    root = nested_tree(tree)
    counts = naive_child_counts(root)
    assert umr.is_comb(tree) == naive_is_comb(root)
    assert umr.trees.branchings(tree) == [max(level) for level in counts]
    space, _ = umr.tree_to_space(tree)
    assert umr.is_order_invariant(space) == all(len(set(level)) == 1 for level in counts)
    assert umr.count_sibling_orderings(tree) == prod(
        factorial(c) for level in counts for c in level
    )
    assert umr.canonical_code(tree) == naive_canonical_code(root)
    assert umr.count_automorphisms(tree) == naive_automorphisms(root)


def test_join_statistics_match_node_walks_on_all_shapes():
    for n in range(1, 9):
        for tree in umr.all_tree_shapes(n):
            check_join_statistics(tree)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(leveled_trees(max_leaves=7))
def test_join_statistics_match_node_walks_on_random_trees(tree):
    check_join_statistics(tree)


def test_comb_tree_shape():
    for n in range(2, 8):
        comb = umr.comb_tree(n)
        assert comb.height == n - 1
        assert len(comb.labels) == n
        assert umr.is_comb(comb)
        assert umr.tree_degree(comb) == 2 ** (n - 2)
    assert umr.format_utree(umr.comb_tree(4)).splitlines()[2] == "(((p1 p2) (p3)) ((p4)))"
    with pytest.raises(ValueError, match="a comb needs at least two leaves"):
        umr.comb_tree(1)


def test_shapes_of_one_height_share_their_levels():
    # one levels table per height; spaces and rank maps read as they do
    # from a table built afresh for each shape
    shapes = [tree for n in range(1, 6) for tree in umr.all_tree_shapes(n)] + [umr.comb_tree(5)]
    for a, b in zip(shapes, shapes[1:]):
        assert (a.levels is b.levels) == (a.height == b.height)
    assert umr.comb_tree(5).levels is umr.all_tree_shapes(5)[-1].levels
    fresh = [
        umr.LeveledTree(t.labels, t.joins, umr.DistanceSet(tuple(F(2 ** (t.height - 1 - i)) for i in range(t.height))))
        for t in shapes
    ]
    shared = [umr.tree_to_space(t) for t in shapes]
    alone = [umr.tree_to_space(t) for t in fresh]
    assert [(s.labels, s.ranks, s.values, o) for s, o in shared] == [
        (s.labels, s.ranks, s.values, o) for s, o in alone
    ]
    for ((x, _), (fx, _)), ((y, _), (fy, _)) in product(zip(shared, alone), repeat=2):
        assert umr.spaces._rank_map(x.values, y.values) == umr.spaces._rank_map(fx.values, fy.values)


def test_deep_comb_compares_hashes_and_is_a_comb():
    # deeper than the recursion limit: none of these may recurse per level
    comb = umr.comb_tree(1200)
    assert sys.getrecursionlimit() < comb.height
    assert umr.is_comb(comb)
    again = umr.parse_utree(umr.format_utree(comb))
    assert again == comb
    assert hash(again) == hash(comb)


def test_deep_comb_statistics_read_only_branching_nodes():
    comb = umr.comb_tree(1200)
    assert umr.count_automorphisms(comb) == 2
    assert umr.count_sibling_orderings(comb) == 2 ** 1199
    assert umr.trees.branchings(comb) == [2] * 1199
    shallower = umr.comb_tree(300)
    assert umr.canonical_code(shallower) == naive_canonical_code(nested_tree(shallower))


def test_comb4_space_matches_comb_tree():
    tree = umr.space_to_tree(comb4(), umr.canonical_convex_order(comb4()))
    assert umr.canonical_code(tree) == umr.canonical_code(umr.comb_tree(4))


def test_tree_degree_matches_space_tau():
    for n in range(2, 6):
        for tree in umr.all_tree_shapes(n):
            space, _ = umr.tree_to_space(tree)
            assert umr.tree_degree(tree) == umr.tau(space).tau


def test_ten_leaf_tree_beats_the_comb():
    # max tau = 2^(n-2), attained only by combs, holds for n <= 9; at n = 10
    # this non-comb has degree 360 > 2^8
    tree = umr.parse_utree(
        "utree v1\nlevels 16 8 4 2 1\n"
        "(((((p1 p2)))) ((((p3) (p4)))) ((((p5)) ((p6)))) "
        "((((p7))) (((p8)))) ((((p9)))) ((((p10)))))\n"
    )
    space, _ = umr.tree_to_space(tree)
    report = umr.tau(space)
    assert (report.clo_count, report.iso_count, report.tau) == (11520, 32, 360)
    assert report.tau > 2 ** 8 == umr.tree_degree(umr.comb_tree(10))
    assert len(profile_classes(space, umr.enumerate_convex_orders(space))) == 360
    assert not umr.is_comb(tree)


def test_extremal_scan_small():
    report = umr.extremal_scan(4)
    assert report.max_degree == 4
    assert report.comb_degree == 4
    assert len(report.argmax) == 1
    assert report.all_combs


def test_extremal_scan_bounds():
    with pytest.raises(ValueError):
        umr.extremal_scan(1)
    with pytest.raises(ValueError, match="scan capped at 16 leaves"):
        umr.extremal_scan(17)


def test_extremal_scan_matches_the_enumeration():
    # every field, the arg-max shapes and their order included
    for n in range(2, 10):
        assert umr.extremal_scan(n) == enumerated_extremal_report(n)


def nested_labels(node):
    return [node] if isinstance(node, str) else [label for child in node for label in nested_labels(child)]


def test_extremal_scan_pins_every_leaf_count_up_to_the_cap():
    assert max(PINNED_SCANS) == umr.shapes.MAX_SCAN_LEAVES
    for n, (count, best) in PINNED_SCANS.items():
        report = umr.extremal_scan(n)
        assert (report.leaves, report.shape_count, report.max_degree) == (n, count, best)
        assert report.comb_degree == 2 ** (n - 2)
        (finding,) = report.argmax
        assert report.all_combs == finding.comb == (n <= 9)
        # the arg-max code is a shape of that degree, read back as a tree
        root = code_tree(finding.code)
        height = finding.code.index(")") - 1
        tree = from_nested(root, umr.shapes.default_levels(height))
        assert umr.canonical_code(tree) == finding.code
        assert umr.tree_degree(tree) == finding.degree == best
        assert umr.is_comb(tree) == finding.comb
        if n >= 10:
            # j single leaves and k - j distinct two-leaf children, which
            # therefore split on distinct levels
            sizes = Counter(len(nested_labels(child)) for child in root)
            pairs = {naive_canonical_code(child) for child in root if len(nested_labels(child)) == 2}
            j, k = sizes[1], len(root)
            assert j in (2, 3) and sizes == {1: j, 2: k - j} and len(pairs) == k - j
            assert best == factorial(k) // factorial(j)


def test_ten_leaf_scan_finds_the_readme_shape():
    tree = umr.parse_utree(
        "utree v1\nlevels 16 8 4 2 1\n"
        "(((((p1 p2)))) ((((p3) (p4)))) ((((p5)) ((p6)))) "
        "((((p7))) (((p8)))) ((((p9)))) ((((p10)))))\n"
    )
    report = umr.extremal_scan(10)
    assert report.argmax == (umr.ShapeFinding(umr.canonical_code(tree), 360, False),)
    assert not report.all_combs


def test_scan_tables_and_kept_trees_match_brute_force():
    # every uniform-depth tree of each (height, size), unary nodes allowed,
    # scored from its code; the scan keeps the best leaves // size
    for leaves in range(2, 8):
        scan = umr.shapes._Scan(leaves)
        for height in range(leaves):
            for size in range(1, leaves + 1):
                entries = uniform_entries(height, size)
                degrees = sorted((entry[2] for entry in entries), reverse=True)
                rank = leaves // size
                assert scan.top[height][size] == degrees[:rank]
                floor = degrees[rank - 1] if len(degrees) >= rank else 1
                kept = [(c, m, d, cb < 2) for c, m, d, cb in scan.kept(height, size)]
                assert kept == sorted(
                    (entry for entry in entries if entry[2] >= floor),
                    key=lambda entry: (-entry[2], entry[0]),
                )
                # the shapes among them: every level branches
                full = (1 << height) - 1
                shapes = sorted((c, m, d, cb < 2) for c, m, d, cb in scan.trees(height, size, floor, full))
                assert shapes == sorted(entry for entry in entries if entry[1] == full and entry[2] >= floor)
                if height:
                    # best[height][size, k]: the best degree with k children
                    best = {}
                    for code, _, degree, _ in entries:
                        key = (size, len(code_tree(code)))
                        best[key] = max(best.get(key, 0), degree)
                    assert {key: v for key, v in scan.best[height].items() if key[0] == size} == best


def test_branching_vector_order():
    first = list(islice(umr.branching_vectors(2), 6))
    assert first == [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
    assert next(iter(umr.branching_vectors(0))) == ()


def test_uniform_tree_structure():
    levels = umr.DistanceSet((F(2), F(1)))
    tree = umr.uniform_tree((2, 3), levels)
    assert umr.format_utree(tree).splitlines()[2] == "((z1 z2 z3) (z4 z5 z6))"
    assert len(tree.labels) == 6
    space, _ = umr.tree_to_space(tree)
    assert umr.is_order_invariant(space)
    assert list(umr.distance_set(space)) == [F(2), F(1)]
    single = umr.uniform_tree((), umr.DistanceSet(()))
    assert (single.labels, single.joins) == (("z1",), ())
    with pytest.raises(ValueError, match="leaf at depth 1, expected 2"):
        umr.uniform_tree((2, 0), levels)
    with pytest.raises(ValueError, match="branching vector length must match the level count"):
        umr.uniform_tree((2, 3, 2), levels)
