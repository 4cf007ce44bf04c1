import random
import tracemalloc
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import umr
from util import (
    brute_convex_orders,
    brute_copies,
    c3,
    comb4,
    convexity_oracle,
    e3,
    equilateral,
    fraction_frames,
    leveled_trees,
    naive_convex_orders,
    naive_first_error,
    naive_parse_uspace,
    naive_path_maxima,
    naive_valid,
    shape_spaces,
    shuffled_shape_spaces,
)


def test_one_point_matrix_is_valid():
    space = umr.validate_space([[0]], ["a"])
    assert space.size == 1
    assert list(umr.distance_set(space)) == []


def test_c3_is_valid():
    space = c3()
    assert space.dist[0][1] == 1
    assert space.dist[1][2] == 2


def test_triangle_1_2_3_names_its_witness():
    with pytest.raises(umr.UltrametricViolation) as err:
        umr.space_from_distances(
            ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 3}
        )
    assert err.value.labels == ("b", "c", "a")
    assert str(err.value) == "UltrametricViolation b c a"


def test_rejects_empty_space():
    with pytest.raises(umr.EmptySpace):
        umr.validate_space([], [])


def test_rejects_duplicate_labels():
    with pytest.raises(umr.DuplicateLabel):
        umr.validate_space([[0, 1], [1, 0]], ["a", "a"])


def test_rejects_asymmetry():
    with pytest.raises(umr.AsymmetricMatrix) as err:
        umr.validate_space([[0, 1], [2, 0]], ["a", "b"])
    assert err.value.labels == ("a", "b")


def test_rejects_nonzero_diagonal():
    with pytest.raises(umr.NonzeroDiagonal):
        umr.validate_space([[1, 1], [1, 0]], ["a", "b"])


def test_rejects_nonpositive_off_diagonal():
    with pytest.raises(umr.NonpositiveOffDiagonal):
        umr.validate_space([[0, 0], [0, 0]], ["a", "b"])
    with pytest.raises(umr.NonpositiveOffDiagonal):
        umr.validate_space([[0, -1], [-1, 0]], ["a", "b"])


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        umr.validate_space([[0, 1], [1, 0]], ["a", "b", "c"])


def test_rejects_floats():
    with pytest.raises(TypeError):
        umr.validate_space([[0, 0.5], [0.5, 0]], ["a", "b"])
    with pytest.raises(TypeError, match="exact rational required, got str"):
        umr.as_fraction("1")


def test_distance_set_examples():
    assert list(umr.distance_set(c3())) == [F(2), F(1)]
    assert list(umr.distance_set(e3())) == [F(1)]


def test_ball_partition_examples():
    space = c3()
    assert umr.ball_partition(space, F(1)) == ((0, 1), (2,))
    assert umr.ball_partition(space, F(2)) == ((0, 1, 2),)
    assert len(umr.ball_partition(equilateral(5), F(7))) == 1


def test_ball_partition_requires_positive_radius():
    with pytest.raises(ValueError):
        umr.ball_partition(c3(), F(0))


def test_ball_partition_matches_the_definition():
    for space in shuffled_shape_spaces(5):
        n = space.size
        radii = list(umr.distance_set(space))
        for r in [*radii, F(1, 100), F(100)]:
            balls = {tuple(y for y in range(n) if space.dist[x][y] <= r) for x in range(n)}
            assert umr.ball_partition(space, r) == tuple(sorted(balls))


def test_ball_refinement():
    for space in shape_spaces(5):
        radii = list(umr.distance_set(space))
        for small, large in zip(radii[1:], radii):
            fine = umr.ball_partition(space, small)
            coarse = umr.ball_partition(space, large)
            for block in fine:
                assert any(set(block) <= set(big) for big in coarse)


def test_is_convex_order_examples():
    space = c3()
    assert umr.is_convex_order(space, (0, 1, 2))
    assert not umr.is_convex_order(space, (0, 2, 1))
    two = equilateral(2)
    assert umr.is_convex_order(two, (0, 1))
    assert umr.is_convex_order(two, (1, 0))


def test_is_convex_order_rejects_non_permutations():
    with pytest.raises(ValueError):
        umr.is_convex_order(c3(), (0, 0, 1))


def test_convexity_matches_interval_oracle():
    # every permutation of every shape space with up to 6 points; the
    # convex ones are also the nearest-unused search's, and path maxima
    # agree with running maxima on each
    for space in shape_spaces(6):
        oracle = convexity_oracle(space)
        convex = []
        for seq in permutations(range(space.size)):
            assert umr.is_convex_order(space, seq) == oracle(seq) == naive_path_maxima(space.dist, seq)
            if oracle(seq):
                convex.append(seq)
        assert convex == naive_convex_orders(space)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.data())
def test_path_maxima_match_running_maxima_on_integer_matrices(n, top, data):
    # symmetric matrices over 0..top, ultrametric or not, along any order
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(st.integers(0, top))
    order = data.draw(st.permutations(range(n)))
    assert umr.spaces._path_maxima(rows, order) == naive_path_maxima(rows, order)


def test_canonical_convex_order_is_convex():
    for space in shape_spaces(6):
        walk = umr.canonical_convex_order(space)
        assert umr.is_convex_order(space, walk)
        # built by the constructor, a space keeps no order and walks its matrix
        bare = umr.UltrametricSpace(space.labels, space.ranks, space.values)
        assert bare._order is None and umr.canonical_convex_order(bare) == walk


def test_validate_matches_naive_triple_loop():
    rng = random.Random(20240817)
    spaces = shape_spaces(5)
    for _ in range(300):
        base = rng.choice(spaces)
        n = base.size
        rows = [list(row) for row in base.dist]
        if rng.random() < 0.7 and n >= 2:
            i = rng.randrange(n)
            j = rng.randrange(n)
            rows[i][j] = F(rng.randint(0, 8), rng.randint(1, 4))
            if rng.random() < 0.5:
                rows[j][i] = rows[i][j]
        expected = naive_valid(rows)
        try:
            umr.validate_space(rows, base.labels)
            got = True
        except umr.SpaceValidationError:
            got = False
        assert got == expected


def validation_outcome(matrix, labels):
    """What validate_space does, in the oracle's terms."""
    try:
        umr.validate_space(matrix, labels)
    except umr.SpaceValidationError as err:
        return type(err), err.labels
    return None


def test_validate_names_the_oracle_witness_on_every_small_matrix():
    # every symmetric zero-diagonal matrix with n <= 4 over {1, 2, 3} and
    # n = 5 over {1, 2}: only the ultrametric stage can fail
    checked = violations = 0
    for n, alphabet in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2, 3)), (4, (1, 2, 3)), (5, (1, 2))):
        labels = [f"x{k}" for k in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for values in product(alphabet, repeat=len(pairs)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(pairs, values):
                rows[i][j] = rows[j][i] = v
            expected = naive_first_error(rows, labels)
            assert validation_outcome(rows, labels) == expected, rows
            checked += 1
            violations += expected is not None
    assert checked == 1 + 3 + 27 + 729 + 1024
    assert 0 < violations < checked


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(leveled_trees(max_leaves=12), st.data())
def test_validate_names_the_oracle_error_on_perturbed_trees(tree, data):
    space, _ = umr.tree_to_space(tree)
    n = space.size
    order = data.draw(st.permutations(range(n)))
    rows = [[space.dist[p][q] for q in order] for p in order]
    labels = [space.labels[p] for p in order]
    kind = data.draw(
        st.sampled_from(["none", "diagonal", "asymmetric", "zero", "negative", "above top"])
    )
    if kind == "diagonal":
        k = data.draw(st.integers(0, n - 1))
        rows[k][k] = F(1, 2)
    elif kind != "none" and n >= 2:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        top = max(tree.levels)
        value = {
            "asymmetric": rows[i][j] + F(1, 3),
            "zero": F(0),
            "negative": -rows[i][j],
            "above top": top + data.draw(st.fractions(min_value=F(1, 7), max_value=5)),
        }[kind]
        rows[i][j] = value
        # a one-sided zero or negative entry is asymmetric and nonpositive
        # at once, which pins the order of those two checks
        if kind == "above top" or (kind in ("zero", "negative") and data.draw(st.booleans())):
            rows[j][i] = value
    assert validation_outcome(rows, labels) == naive_first_error(rows, labels)


def test_uspace_round_trip():
    one = umr.validate_space([[0]], ["solo"])
    for space in (one, c3(), e3(), equilateral(4, F(5, 3))):
        text = umr.format_uspace(space)
        assert umr.parse_uspace(text) == space
        assert umr.format_uspace(umr.parse_uspace(text)) == text


def test_uspace_canonical_text():
    text = umr.format_uspace(c3())
    assert text == (
        "uspace v1\n"
        "points 3\n"
        "labels a b c\n"
        "d a b 1\n"
        "d a c 2\n"
        "d b c 2\n"
    )


def test_uspace_accepts_fraction_shorthand():
    text = "uspace v1\npoints 2\nlabels a b\nd a b 3/2\n"
    space = umr.parse_uspace(text)
    assert space.dist[0][1] == F(3, 2)


def test_uspace_parse_errors():
    with pytest.raises(umr.FormatError):
        umr.parse_uspace("nope\n")
    with pytest.raises(umr.FormatError):
        umr.parse_uspace("uspace v1\npoints 2\nlabels a b\n")
    with pytest.raises(umr.FormatError, match="bad points line"):
        umr.parse_uspace("uspace v1\npoints x\nlabels a b\nd a b 1\n")
    with pytest.raises(umr.FormatError):
        umr.parse_uspace(
            "uspace v1\npoints 2\nlabels a b\nd a b 1\nd a b 1\n"
        )


def parse_outcome(parse, text):
    """What a USPACE parse returns, as the labels, matrix and canonical
    order of its space, or the class and message of the error it raises."""
    try:
        space = parse(text)
    except umr.UmrError as exc:
        return type(exc), str(exc)
    return space.labels, space.dist, space._order


def spelled(value, factor=1):
    """A USPACE token for value, its terms multiplied by factor."""
    return f"{factor * value.numerator}/{factor * value.denominator}"


MUTATIONS = (
    "none", "bad line", "unknown label", "repeated pair", "diagonal pair", "bad rational",
    "zero", "negative", "nonpositive pairs", "raised", "spelled apart", "dropped",
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(leveled_trees(max_leaves=7), st.sampled_from(MUTATIONS), st.data())
def test_parse_uspace_matches_the_sequential_parse(tree, kind, data):
    # a valid text, its points stored and its lines listed in any order,
    # with at most one mutation
    space, _ = umr.tree_to_space(tree)
    space = space.restrict(data.draw(st.permutations(range(space.size))))
    text_lines = umr.format_uspace(space).splitlines()
    head, lines = text_lines[:3], data.draw(st.permutations(text_lines[3:]))
    if lines and kind != "none":
        k = data.draw(st.integers(0, len(lines) - 1))
        _, a, b, token = lines[k].split()
        value = F(token)
        if kind == "bad line":
            lines[k] = data.draw(st.sampled_from([f"d {a} {b}", f"e {a} {b} {token}", f"d {a} {b} {token} 1"]))
        elif kind == "unknown label":
            lines[k] = data.draw(st.sampled_from([f"d zz {b} {token}", f"d {a} zz {token}"]))
        elif kind == "repeated pair":
            _, c, e, other = data.draw(st.sampled_from(lines)).split()
            lines[k] = data.draw(st.sampled_from([f"d {c} {e} {other}", f"d {e} {c} {other}"]))
        elif kind == "diagonal pair":
            lines[k] = f"d {a} {a} {token}"
        elif kind == "bad rational":
            lines[k] = f"d {a} {b} " + data.draw(st.sampled_from(["1/0", "x", "1//2", "2/", "0.5"]))
        elif kind == "dropped":
            del lines[k]
        elif kind == "nonpositive pairs":
            # the pair scan names the first bad pair in index order
            bad = st.sampled_from(["0", "0/3", "-0", "-1", "-2/3"])
            for k in data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3)):
                _, a, b, _ = lines[k].split()
                lines[k] = f"d {a} {b} {data.draw(bad)}"
        else:
            new = {
                "zero": data.draw(st.sampled_from(["0", "0/3", spelled(F(0))])),
                "negative": spelled(-value),
                "raised": spelled(value + data.draw(st.sampled_from([F(1, 3), tree.levels[0]]))),
                "spelled apart": spelled(value, data.draw(st.integers(2, 3))),
            }[kind]
            lines[k] = f"d {a} {b} {new}"
    text = "\n".join([*head, *lines]) + "\n"
    assert parse_outcome(umr.parse_uspace, text) == parse_outcome(naive_parse_uspace, text)


def test_parse_uspace_matches_the_sequential_parse_at_the_edges():
    texts = [
        "uspace v1\npoints 0\nlabels\n",
        "uspace v1\npoints 0\nlabels\nd a b 1\n",
        "uspace v1\npoints 1\nlabels a\n",
        "uspace v1\npoints 1\nlabels a\nd a a 0\n",
        "uspace v1\npoints 2\nlabels a a\nd a a 1\n",
        "uspace v1\npoints 4\nlabels b a a b\n",
        "uspace v1\npoints 5\nlabels c b a a b\n",
        "uspace v1\npoints 2\nlabels a b\nd a b 1\nd b a 1\n",
        "uspace v1\npoints 2\nlabels a b\nd a b 1\nd a b 1\nd a b x\n",
        "uspace v1\npoints 3\nlabels a b c\nd a b 1\nd a c 2\nd b c 2/1\nd c a 4/2\n",
        "uspace v1\npoints 3\nlabels a b c\nd a b 2\nd a c 2/1\nd b c 4/2\n",
        "uspace v1\npoints 3\nlabels a b c\nd a b 0\nd a c -1\nd b c 1\n",
    ]
    for text in texts:
        assert parse_outcome(umr.parse_uspace, text) == parse_outcome(naive_parse_uspace, text)


def test_a_short_uspace_is_refused_before_its_table_is_built():
    n = 20000
    text = f"uspace v1\npoints {n}\nlabels " + " ".join(f"p{k}" for k in range(n)) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(umr.FormatError, match="missing distance lines"):
            umr.parse_uspace(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # the line count is read first, so a short document names it even
    # where one of its lines is bad
    with pytest.raises(umr.FormatError, match="missing distance lines"):
        umr.parse_uspace("uspace v1\npoints 3\nlabels a b c\nd a a 1\n")


def test_space_equality_ignores_row_order():
    one = umr.space_from_distances(["a", "b"], {("a", "b"): 1})
    other = umr.space_from_distances(["b", "a"], {("a", "b"): 1})
    assert one == other
    assert hash(one) == hash(other)
    third = umr.space_from_distances(["a", "b"], {("a", "b"): 2})
    assert one != third
    assert not one == 3 and one != 3


def fresh(value):
    """An equal Fraction that is a new object, not the one passed in."""
    value = F(value)
    return F(2 * value.numerator, 2 * value.denominator)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(leveled_trees(max_leaves=10), st.data())
def test_validate_ranks_equal_distances_held_by_distinct_objects(tree, data):
    space, _ = umr.tree_to_space(tree)
    n = space.size
    rows = [[fresh(v) for v in row] for row in space.dist]
    if n >= 2 and data.draw(st.booleans()):
        # a fresh copy of another value (or 0) in one or both halves of a pair
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        value = data.draw(st.sampled_from([F(0), *tree.levels]))
        rows[i][j] = fresh(value)
        if data.draw(st.booleans()):
            rows[j][i] = fresh(value)
    expected = naive_first_error(rows, space.labels)
    assert validation_outcome(rows, space.labels) == expected
    if expected is None:
        validated = umr.validate_space(rows, space.labels)
        assert validated == space
        assert validated.dist == space.dist


def representations(value):
    """Equal values of value as distinct objects: an int where it is one,
    and Fractions built in and out of lowest terms."""
    out = [F(value), F(3 * value.numerator, 3 * value.denominator)]
    if value.denominator == 1:
        out.append(int(value))
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 5), st.data())
def test_validate_mixes_ints_and_fractions(n, data):
    # each entry, both halves of a pair apart, in its own representation
    alphabet = st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3)])
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = F(0) if i == j else data.draw(alphabet)
            rows[i][j] = data.draw(st.sampled_from(representations(value)))
            other = data.draw(alphabet) if i != j and data.draw(st.integers(0, 9)) == 0 else value
            rows[j][i] = data.draw(st.sampled_from(representations(other)))
    labels = [f"x{k}" for k in range(n)]
    assert validation_outcome(rows, labels) == naive_first_error(rows, labels)


def test_validate_equates_ints_and_fractions():
    mixed = [[0, 1, F(2)], [F(1), F(0), 2], [F(4, 2), 2, 0]]
    assert umr.validate_space(mixed, ["a", "b", "c"]) == c3()
    halves = [[0, F(2, 4), 1], [F(1, 2), 0, F(3, 3)], [1, 1, F(0)]]
    space = umr.validate_space(halves, ["a", "b", "c"])
    assert space.dist == ((0, F(1, 2), 1), (F(1, 2), 0, 1), (1, 1, 0))
    assert all(type(v) is F for row in space.dist for v in row)


def test_validate_raises_type_error_at_the_first_float():
    with pytest.raises(TypeError, match="got 0.0"):
        umr.validate_space([[0.0, 1], [1, 0]], ["a", "b"])
    # the float is coerced before any check runs, even one that fails
    # earlier in the matrix
    rows = [[5, 1, 2], [1, 0, 2], [2, 2.0, 0]]
    with pytest.raises(TypeError, match="got 2.0"):
        umr.validate_space(rows, ["a", "b", "c"])
    rows = [[0, 1, 2], [1, 0, 0.5], [1.5, 2, 0]]
    with pytest.raises(TypeError, match="got 0.5"):
        umr.validate_space(rows, ["a", "b", "c"])
    # a float or bool equal to an int before it is still refused
    for bad in (1.0, True):
        with pytest.raises(TypeError, match=f"got {bad}"):
            umr.validate_space([[0, 1], [bad, 0]], ["a", "b"])


def test_validated_spaces_keep_the_walk(monkeypatch):
    validated, expected = [], []
    for space in shape_spaces(6):
        n = space.size
        for variant in (space, space.restrict(range(n - 1, -1, -1))):
            parsed = umr.parse_uspace(umr.format_uspace(variant))
            plain = variant.restrict(range(n))
            walk = umr.spaces._walk(variant.dist)
            assert umr.canonical_convex_order(variant) == walk
            assert parsed == plain and parsed == variant
            assert hash(parsed) == hash(plain) == hash(variant)
            assert repr(parsed) == repr(plain)
            validated.append(parsed)
            expected.append(walk)

    def no_walk(dist):
        raise AssertionError("validated space walked again")

    monkeypatch.setattr(umr.spaces, "_walk", no_walk)
    assert [umr.canonical_convex_order(space) for space in validated] == expected


def test_restrict_refuses_an_empty_or_repeated_selection():
    with pytest.raises(umr.EmptySpace):
        c3().restrict([])
    for points in ([0, 0, 1], [1, 1], [0, 3], [-1, 0]):
        with pytest.raises(ValueError, match="distinct point indices"):
            c3().restrict(points)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(leveled_trees(max_leaves=7), st.data())
def test_restrict_keeps_the_least_convex_order_without_walking(tree, data):
    space, _ = umr.tree_to_space(tree)
    shuffled = space.restrict(data.draw(st.permutations(range(space.size))))
    points = data.draw(st.lists(st.sampled_from(range(space.size)), min_size=1, unique=True))

    def no_walk(dist):
        raise AssertionError("restricted space walked its matrix")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(umr.spaces, "_walk", no_walk)
        for sub in (space.restrict(points), shuffled.restrict(points)):
            order = umr.canonical_convex_order(sub)
            assert order == umr.enumerate_convex_orders(sub)[0]
            if sub.size <= 5:
                assert order == brute_convex_orders(sub)[0]


def test_restriction_keeps_its_parents_value_table():
    parent = comb4()  # a b at 1, c at 2 from them, e at 3 from the rest
    sub = parent.restrict([3, 1, 0])  # e b a: distance 2 is not realized
    assert sub.values is parent.values and F(2) in sub.values
    assert list(umr.distance_set(sub)) == [3, 1]

    def eba(far, a="a"):
        return f"uspace v1\npoints 3\nlabels e b {a}\nd e b {far}\nd e {a} {far}\nd b {a} 1\n"

    text = eba("3")
    fresh = umr.parse_uspace(text)
    assert F(2) not in fresh.values
    assert umr.format_uspace(sub) == umr.format_uspace(fresh) == text
    # equal to a parse with the rows in another order, not to one that
    # renames a point or puts the unrealized table value on a pair
    permuted = umr.parse_uspace("uspace v1\npoints 3\nlabels a e b\nd a e 3\nd a b 1\nd e b 3\n")
    assert sub == permuted and permuted == sub and hash(sub) == hash(permuted)
    renamed = umr.parse_uspace(eba("3", a="x"))
    closer = umr.parse_uspace(eba("2"))
    assert renamed != sub and sub != renamed
    assert closer != sub and sub != closer
    # radii on, between, below and above the table's values, realized or not
    n = sub.size
    for r in (F(1), F(2), F(3), F(3, 2), F(5, 2), F(1, 2), F(7, 2), F(100)):
        balls = {tuple(y for y in range(n) if sub.dist[x][y] <= r) for x in range(n)}
        assert umr.ball_partition(sub, r) == umr.ball_partition(fresh, r) == tuple(sorted(balls))
    # copies through the ambient's table; a value missing from it leaves none
    assert umr.enumerate_copies(parent, fresh) == umr.enumerate_copies(parent, sub)
    assert [tuple(sorted(c)) for c in umr.enumerate_copies(parent, fresh)] == brute_copies(parent, fresh)
    farther = umr.parse_uspace(eba("5/2"))
    assert umr.enumerate_copies(parent, farther) == brute_copies(parent, farther) == []


def test_tree_order_copy_and_text_functions_read_no_fraction():
    levels = umr.DistanceSet((F(7), F(5, 2), F(2), F(1, 3), F(1, 5)))
    uniform, _ = umr.tree_to_space(umr.uniform_tree((2, 2, 2, 2, 3), levels))
    shuffled = uniform.restrict(random.Random(48).sample(range(48), 48))
    space = umr.parse_uspace(umr.format_uspace(shuffled))
    assert space.size == 48 and space.values is not uniform.values
    order = umr.canonical_convex_order(space)
    pattern = space.restrict([order[0], order[1], order[47]])
    # 48 points have at least 2^47 convex orders, so 12 of them are listed
    small = space.restrict(order[:12])
    calls = {
        "_fold": lambda: umr.spaces._fold(
            umr.spaces._steps(space.ranks, order), [0] * 48, umr.trees._Classes()
        ),
        "canonical_tree": lambda: umr.canonical_tree(space),
        "enumerate_convex_orders": lambda: umr.enumerate_convex_orders(small),
        "order_type_partition": lambda: umr.order_type_partition(space),
        "enumerate_copies": lambda: umr.enumerate_copies(space, pattern),
        "format_uspace": lambda: umr.format_uspace(space),
        "tree_to_space": lambda: umr.tree_to_space(umr.canonical_tree(space)),
        "restrict": lambda: space.restrict(order[::2]),
        "distance_set": lambda: umr.distance_set(space),
        "is_convex_order": lambda: umr.is_convex_order(space, order),
    }
    assert {name: fraction_frames(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)
    # a table value is formatted once however many pairs realize it
    formatted = []
    original = umr.spaces.format_rational
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(umr.spaces, "format_rational", lambda v: formatted.append(v) or original(v))
        umr.format_uspace(space)
    assert formatted == list(space.values)
    # the runs above did the work: 48 pairs at 1/5, each with 24 points at 7
    assert len(umr.enumerate_copies(space, pattern)) == 48 * 24
    assert len(umr.enumerate_convex_orders(small)) == umr.count_convex_orders(small) == 10368
