import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import umr
from umr import urysohn
from util import naive_apply, naive_extension_error, naive_preserves_sample


MENU2 = umr.menu_of(1, F(1, 2))
MENU3 = umr.menu_of(1, F(1, 2), F(1, 4))


def test_menu_validation():
    with pytest.raises(ValueError):
        umr.menu_of()
    with pytest.raises(ValueError):
        umr.menu_of(1, 2)
    with pytest.raises(ValueError):
        umr.menu_of(1, 0)


def test_distance_examples():
    zero = umr.ZERO_POINT
    assert umr.qs_distance(zero, zero, MENU2) == 0
    y = umr.qs_point({F(1, 2): 3})
    assert umr.qs_distance(zero, y, MENU2) == F(1, 2)
    x = umr.qs_point({F(1): 2})
    y = umr.qs_point({F(1): 2, F(1, 2): 5})
    assert umr.qs_distance(x, y, MENU2) == F(1, 2)


def test_lex_examples():
    zero = umr.ZERO_POINT
    assert umr.qs_lex_compare(zero, zero, MENU2) == umr.EQUAL
    assert umr.qs_lex_compare(zero, umr.qs_point({F(1, 2): 3}), MENU2) == umr.LESS
    x = umr.qs_point({F(1): 2})
    y = umr.qs_point({F(1): 1, F(1, 2): 100})
    assert umr.qs_lex_compare(x, y, MENU2) == umr.GREATER


def test_support_outside_menu_is_rejected():
    stray = umr.qs_point({F(1, 3): 1})
    with pytest.raises(ValueError):
        umr.qs_distance(stray, umr.ZERO_POINT, MENU2)


def test_distance_is_an_ultrametric_on_samples():
    rng = random.Random(11)
    points = [umr.random_point(MENU3, rng) for _ in range(40)]
    for x, y, z in combinations(points, 3):
        dxz = umr.qs_distance(x, z)
        assert dxz <= max(umr.qs_distance(x, y), umr.qs_distance(y, z))
    for x, y in combinations(points, 2):
        assert (umr.qs_distance(x, y) == 0) == (x == y)
        assert umr.qs_distance(x, y) == umr.qs_distance(y, x)


def test_lex_is_a_total_order_with_convex_balls():
    rng = random.Random(12)
    points = []
    while len(points) < 30:
        p = umr.random_point(MENU3, rng)
        if p not in points:
            points.append(p)
    points.sort(key=lambda p: tuple(p.value_at(s) for s in MENU3))
    for i, j in combinations(range(len(points)), 2):
        assert umr.qs_lex_compare(points[i], points[j]) == umr.LESS
    # every ball is an interval of the sorted sample
    for center in points:
        for r in MENU3:
            hits = [
                i for i, p in enumerate(points) if umr.qs_distance(p, center) <= r
            ]
            assert hits == list(range(hits[0], hits[-1] + 1))


def test_piecewise_map_basics():
    phi = umr.stretch_above(F(1, 2), F(1), F(2))
    assert phi(F(0)) == 0
    assert phi(F(1, 2)) == F(1, 2)
    assert phi(F(1)) == 2
    assert phi(F(2)) == 3  # slope-1 tail
    inv = phi.inverse()
    rng = random.Random(13)
    for _ in range(100):
        q = F(rng.randint(-60, 60), rng.randint(1, 12))
        assert inv(phi(q)) == q
        assert phi(inv(q)) == q


def test_piecewise_map_validation():
    with pytest.raises(ValueError):
        umr.PiecewiseLinearMap((F(1), F(0)), (F(1), F(1)))
    with pytest.raises(ValueError):
        umr.PiecewiseLinearMap((F(0),), (F(-1),))
    with pytest.raises(ValueError):
        umr.stretch_above(F(2), F(1), F(3))


def test_translate_inverse():
    t = umr.Translate(umr.qs_point({F(1): F(3, 2)}))
    p = umr.qs_point({F(1): -1, F(1, 2): 4})
    assert t.invert().apply(t.apply(p)) == p


def test_coordmap_fixes_points_outside_its_ball():
    move = umr.CoordMap(
        scale=F(1, 2),
        center=umr.qs_point({F(1): 1}),
        threshold=F(0),
        value_map=umr.stretch_above(F(0), F(1), F(2)),
        shifts=((F(1, 4), F(5)),),
    )
    outside = umr.qs_point({F(1): 2, F(1, 2): 9})
    assert move.apply(outside) == outside
    below = umr.qs_point({F(1): 1, F(1, 2): -3})
    assert move.apply(below) == below
    inside = umr.qs_point({F(1): 1, F(1, 2): 1})
    image = move.apply(inside)
    assert image.value_at(F(1, 2)) == 2
    assert image.value_at(F(1, 4)) == 5


def test_coordmap_validation():
    with pytest.raises(ValueError):
        umr.CoordMap(
            scale=F(1),
            center=umr.qs_point({F(1, 2): 1}),  # center at/below the scale
            threshold=F(0),
            value_map=umr.PiecewiseLinearMap(),
        )
    with pytest.raises(ValueError):
        umr.CoordMap(
            scale=F(1, 2),
            center=umr.ZERO_POINT,
            threshold=F(0),
            value_map=umr.PiecewiseLinearMap(),
            shifts=((F(1), F(1)),),  # shift at/above the scale
        )
    # shifts obey the scale rule when the move is built, not when applied
    for shifts in [((F(1, 4), F(1)), (F(1, 2), F(1))), ((F(1, 2), F(1)), (F(1, 2), F(2)))]:
        with pytest.raises(ValueError, match="scales must be strictly decreasing"):
            umr.CoordMap(F(1), umr.ZERO_POINT, F(0), umr.PiecewiseLinearMap(), shifts)


def test_random_moves_preserve_structure():
    rng = random.Random(14)
    for _ in range(30):
        auto = umr.random_automorphism(MENU3, rng)
        pts = [umr.random_point(MENU3, rng) for _ in range(12)]
        images = [auto(p) for p in pts]
        for (p, ip), (q, iq) in combinations(zip(pts, images), 2):
            assert umr.qs_distance(p, q) == umr.qs_distance(ip, iq)
            assert umr.qs_lex_compare(p, q) == umr.qs_lex_compare(ip, iq)


def test_extend_single_pair_is_a_translation():
    x = umr.qs_point({F(1): 1})
    y = umr.qs_point({F(1, 2): -2})
    auto = umr.extend_isometry([(x, y)], MENU2)
    assert auto(x) == y
    assert len(auto.moves) == 1
    assert isinstance(auto.moves[0], umr.Translate)


def test_extend_identity_pairs_gives_identity():
    rng = random.Random(15)
    pts = []
    while len(pts) < 4:
        p = umr.random_point(MENU2, rng)
        if p not in pts:
            pts.append(p)
    auto = umr.extend_isometry([(p, p) for p in pts], MENU2)
    for _ in range(50):
        q = umr.random_point(MENU2, rng)
        assert auto(q) == q


def test_extend_two_pair_example():
    x1, x2 = umr.ZERO_POINT, umr.qs_point({F(1, 2): 1})
    y1, y2 = umr.ZERO_POINT, umr.qs_point({F(1, 2): 2})
    auto = umr.extend_isometry([(x1, y1), (x2, y2)], MENU2)
    assert auto(x1) == y1 and auto(x2) == y2
    rng = random.Random(16)
    pts = [umr.random_point(MENU2, rng) for _ in range(100)]
    images = [auto(p) for p in pts]
    for (p, ip), (q, iq) in combinations(zip(pts, images), 2):
        assert umr.qs_distance(p, q) == umr.qs_distance(ip, iq)
        assert umr.qs_lex_compare(p, q) == umr.qs_lex_compare(ip, iq)


def test_extend_accepts_unsorted_input():
    rng = random.Random(17)
    pts = []
    while len(pts) < 3:
        p = umr.random_point(MENU3, rng)
        if p not in pts:
            pts.append(p)
    auto = umr.random_automorphism(MENU3, rng)
    pairs = [(p, auto(p)) for p in pts]
    pairs.reverse()
    ext = umr.extend_isometry(pairs, MENU3)
    for p, q in pairs:
        assert ext(p) == q


def test_extend_rejects_duplicates():
    x = umr.qs_point({F(1): 1})
    with pytest.raises(umr.DuplicatePoint):
        umr.extend_isometry([(x, x), (x, umr.ZERO_POINT)], MENU2)


def test_extend_rejects_distance_mismatch():
    x1, x2 = umr.ZERO_POINT, umr.qs_point({F(1, 2): 1})
    y1, y2 = umr.ZERO_POINT, umr.qs_point({F(1): 1})
    with pytest.raises(umr.NotPartialIsometry) as err:
        umr.extend_isometry([(x1, y1), (x2, y2)], MENU2)
    assert err.value.pair == (0, 1)


def test_extend_rejects_order_reversal():
    x1, x2 = umr.ZERO_POINT, umr.qs_point({F(1, 2): 1})
    y1, y2 = umr.qs_point({F(1, 2): 2}), umr.ZERO_POINT
    with pytest.raises(umr.NotOrderPreserving):
        umr.extend_isometry([(x1, y1), (x2, y2)], MENU2)


def test_inverse_round_trips():
    rng = random.Random(18)
    auto = umr.random_automorphism(MENU3, rng, max_moves=4)
    inv = umr.invert_automorphism(auto)
    double = umr.invert_automorphism(inv)
    for _ in range(100):
        p = umr.random_point(MENU3, rng)
        assert inv(auto(p)) == p
        assert auto(inv(p)) == p
        assert double(p) == auto(p)


def test_apply_is_left_to_right():
    t1 = umr.Translate(umr.qs_point({F(1): 1}))
    moved = umr.CoordMap(
        scale=F(1, 2),
        center=umr.qs_point({F(1): 1}),
        threshold=F(0),
        value_map=umr.stretch_above(F(0), F(1), F(3)),
    )
    auto = umr.QsAutomorphism((t1, moved))
    p = umr.qs_point({F(1, 2): 1})
    # translate first puts the point inside the coordmap ball
    assert auto(p) == umr.qs_point({F(1): 1, F(1, 2): 3})


def test_homogeneity_small_run_passes():
    report = umr.check_homogeneity(MENU2, 2, 30, seed=5, samples=25)
    assert report.all_passed


def test_homogeneity_counts_rejections_and_raises_crashes(monkeypatch):
    def extend(error):
        def failing(pairs, menu):
            raise error
        return failing

    monkeypatch.setattr(urysohn, "extend_isometry", extend(umr.NotPartialIsometry(0, 1)))
    report = umr.check_homogeneity(MENU2, 2, trials=3, seed=0)
    assert report.failures == (0, 1, 2)
    # a crash is a bug to show, not a failed trial
    monkeypatch.setattr(urysohn, "extend_isometry", extend(TypeError("boom")))
    with pytest.raises(TypeError, match="boom"):
        umr.check_homogeneity(MENU2, 2, trials=3, seed=0)


@pytest.mark.parametrize("n, trials", [(0, 5), (2, 0), (2, -3)])
def test_homogeneity_rejects_empty_runs(n, trials):
    # a run of no trials would report "all passed" on nothing
    with pytest.raises(ValueError, match="must be at least 1"):
        umr.check_homogeneity(MENU2, n, trials, seed=0)


# Image breakers over MENU2: one reverses the order, one turns distance
# 1/2 into 1/4 and keeps the order, one merges points 1/2 apart.
BREAKERS = {
    "reverse order": lambda q: -q,
    "change one distance": lambda q: umr.qs_point(
        {F(1, 4) if s == F(1, 2) else s: v for s, v in q.coords}
    ),
    "merge two points": lambda q: q.restrict_above(F(1, 2)),
}


@pytest.mark.parametrize("breaker", BREAKERS.values(), ids=list(BREAKERS))
def test_homogeneity_reports_extensions_that_break_the_sample(monkeypatch, breaker):
    extend = urysohn.extend_isometry
    check = urysohn._preserves_sample
    verdicts = []

    def broken_extend(pairs, menu):
        # hits every target, and breaks the image of every other point
        auto, targets = extend(pairs, menu), dict(pairs)
        return lambda p: targets[p] if p in targets else breaker(auto(p))

    def recorded_check(auto, sample, menu):
        verdict = check(auto, sample, menu)
        verdicts.append((verdict, naive_preserves_sample(auto, sample)))
        return verdict

    monkeypatch.setattr(urysohn, "extend_isometry", broken_extend)
    monkeypatch.setattr(urysohn, "_preserves_sample", recorded_check)
    report = umr.check_homogeneity(MENU2, 3, trials=8, seed=40, samples=30)
    assert report.failures == tuple(range(8))
    assert verdicts == [(False, False)] * 8


def qs_points(menu):
    # few values per coordinate, so samples repeat points and share prefixes
    values = st.integers(-3, 3).map(lambda k: F(k, 2))
    return st.dictionaries(st.sampled_from(list(menu)), values).map(umr.qs_point)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    sample=st.lists(qs_points(MENU3), max_size=12),
    seed=st.integers(0, 2**16),
    breaker=st.sampled_from([None, *BREAKERS.values()]),
)
def test_sample_check_matches_the_pair_loop(sample, seed, breaker):
    auto = umr.random_automorphism(MENU3, random.Random(seed))
    mapped = auto if breaker is None else lambda p: breaker(auto(p))
    verdict = urysohn._preserves_sample(mapped, sample, MENU3)
    assert verdict == naive_preserves_sample(mapped, sample)
    if breaker is None:
        assert verdict


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data(), st.lists(qs_points(MENU2), max_size=8))
def test_sample_check_matches_the_pair_loop_on_any_map(data, sample):
    table = {p: data.draw(qs_points(MENU2)) for p in sample}
    assert urysohn._preserves_sample(table.get, sample, MENU2) == naive_preserves_sample(
        table.get, sample
    )



PERTURBATIONS = ("duplicate source", "swap targets", "shift target")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    sources=st.lists(qs_points(MENU3), min_size=1, max_size=8, unique=True),
    seed=st.integers(0, 2**16),
    perturbation=st.sampled_from([None, *PERTURBATIONS]),
)
def test_extension_validation_matches_the_pair_scan(data, sources, seed, perturbation):
    auto = umr.random_automorphism(MENU3, random.Random(seed))
    pairs = [(p, auto(p)) for p in sources]
    if perturbation is not None:
        i = data.draw(st.integers(0, len(pairs) - 1))
        j = data.draw(st.integers(0, len(pairs) - 1))
        (x, y), (u, v) = pairs[i], pairs[j]
        if perturbation == "duplicate source":
            pairs[j] = (x, v)
        elif perturbation == "swap targets":
            pairs[i], pairs[j] = (x, v), (u, y)
        else:
            shift = data.draw(qs_points(MENU3).filter(lambda q: len(q.coords) == 1))
            pairs[i] = (x, y + shift)
    expected = naive_extension_error(pairs)
    if expected is None:
        extension = umr.extend_isometry(pairs, MENU3)
        assert all(extension(p) == q for p, q in pairs)
    else:
        with pytest.raises(type(expected)) as err:
            umr.extend_isometry(pairs, MENU3)
        assert (type(err.value), str(err.value)) == (type(expected), str(expected))


HALVES = st.integers(-3, 3).map(lambda k: F(k, 2))


@st.composite
def points_and_moves(draw, menu):
    """A point and a move: a Translate, or a CoordMap whose ball often holds
    the point and whose threshold, value map and shifts often cancel it."""
    point = draw(qs_points(menu))
    if draw(st.booleans()):
        return point, umr.Translate(draw(qs_points(menu)))
    scale = draw(st.sampled_from(list(menu)))
    center = point if draw(st.booleans()) else draw(qs_points(menu))
    threshold = draw(HALVES)
    steps = draw(st.lists(st.integers(0, 4), max_size=3, unique=True))
    breakpoints = tuple(threshold + F(k, 2) for k in sorted(steps))
    slopes = tuple(draw(st.sampled_from([F(1, 2), F(1), F(2)])) for _ in breakpoints)
    below = [t for t in menu if t < scale]
    shifts = draw(st.dictionaries(st.sampled_from(below), HALVES.filter(bool))) if below else {}
    return point, umr.CoordMap(
        scale=scale,
        center=center.restrict_above(scale),
        threshold=threshold,
        value_map=umr.PiecewiseLinearMap(breakpoints, slopes),
        shifts=tuple(sorted(shifts.items(), reverse=True)),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(points_and_moves(MENU3))
# a shift that cancels a coordinate
@example((
    umr.qs_point({F(1): 1, F(1, 2): 1, F(1, 4): F(1, 2)}),
    umr.CoordMap(F(1, 2), umr.qs_point({F(1): 1}), F(0), umr.PiecewiseLinearMap(),
                 ((F(1, 4), F(-1, 2)),)),
))
# a value map that lands on 0
@example((
    umr.qs_point({F(1, 2): F(-1, 2)}),
    umr.CoordMap(F(1, 2), umr.ZERO_POINT, F(-1), umr.PiecewiseLinearMap((F(-1),), (F(2),))),
))
# outside the ball: a coordinate above the scale that the center lacks
@example((
    umr.qs_point({F(1): 1, F(1, 2): 1}),
    umr.CoordMap(F(1, 4), umr.qs_point({F(1): 1}), F(-1), umr.PiecewiseLinearMap()),
))
# at the threshold
@example((
    umr.qs_point({F(1): 1, F(1, 2): F(1, 2)}),
    umr.CoordMap(
        F(1, 2), umr.qs_point({F(1): 1}), F(1, 2), umr.stretch_above(F(1, 2), F(1), F(3))
    ),
))
# a translation that cancels every coordinate
@example((
    umr.qs_point({F(1): 1, F(1, 4): 2}),
    umr.Translate(umr.qs_point({F(1): -1, F(1, 4): -2})),
))
def test_moves_match_dict_arithmetic(case):
    point, move = case
    expected = naive_apply(move, point)
    assert move.apply(point) == expected
    if isinstance(move, umr.Translate):
        assert point + move.offset == expected
        assert point - move.offset == naive_apply(umr.Translate(-move.offset), point)


def test_homogeneity_detects_perturbed_targets():
    rng = random.Random(19)
    rejected = 0
    trials = 30
    for _ in range(trials):
        pts = []
        while len(pts) < 3:
            p = umr.random_point(MENU3, rng)
            if p not in pts:
                pts.append(p)
        auto = umr.random_automorphism(MENU3, rng)
        images = [auto(p) for p in pts]
        # force a distance break: align the largest differing coordinate
        s = umr.qs_distance(images[0], images[1])
        delta = images[0].value_at(s) - images[1].value_at(s)
        images[1] = images[1] + umr.qs_point({s: delta})
        try:
            umr.extend_isometry(list(zip(pts, images)), MENU3)
        except (umr.NotPartialIsometry, umr.DuplicatePoint):
            rejected += 1
    assert rejected == trials


def test_sampled_subsets_are_ultrametric_spaces_with_menu_distances():
    rng = random.Random(20)
    for _ in range(20):
        pts = []
        while len(pts) < 5:
            p = umr.random_point(MENU3, rng)
            if p not in pts:
                pts.append(p)
        labels = [f"q{i}" for i in range(5)]
        matrix = [[umr.qs_distance(a, b) for b in pts] for a in pts]
        space = umr.validate_space(matrix, labels)
        assert set(umr.distance_set(space)) <= set(MENU3)


def test_coherence_on_constructed_quadruples():
    rng = random.Random(21)
    for _ in range(100):
        x = umr.random_point(MENU3, rng)
        s = MENU3[rng.randrange(len(MENU3) - 1)]  # leave room below s
        bump = F(rng.randint(1, 6), 3)
        y = x + umr.qs_point({s: bump})
        assert umr.qs_distance(x, y) == s

        def nudge(p):
            below = [t for t in MENU3 if t < s]
            t = below[rng.randrange(len(below))]
            return p + umr.qs_point({t: F(rng.randint(-6, 6), 3)})

        x2, y2 = nudge(x), nudge(y)
        assert umr.qs_distance(x, x2) < s and umr.qs_distance(y, y2) < s
        assert umr.qs_lex_compare(x, y) == umr.qs_lex_compare(x2, y2)


def test_menu_and_qpoint_round_trips():
    text = umr.format_menu(MENU3)
    assert umr.parse_menu(text) == MENU3
    assert text == "menu v1\n1\n1/2\n1/4\n"
    p = umr.qs_point({F(1): 2, F(1, 4): F(-3, 4)})
    ptext = umr.format_qpoint(p)
    assert ptext == "qpoint v1\n1 2\n1/4 -3/4\n"
    assert umr.parse_qpoint(ptext, MENU3) == p
    assert umr.parse_qpoint("qpoint v1\n", MENU3) == umr.ZERO_POINT


def test_qpoint_parse_errors():
    with pytest.raises(umr.FormatError):
        umr.parse_qpoint("qpoint v1\n1/3 2\n", MENU3)
    with pytest.raises(umr.FormatError):
        umr.parse_qpoint("qpoint v1\n1 2\n1 3\n", MENU3)
    with pytest.raises(umr.FormatError):
        umr.parse_menu("menu v1\n")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(MENU3.values), st.fractions(-3, 3, max_denominator=4)),
        unique_by=lambda pair: pair[0],
    )
)
def test_parsed_points_match_qs_point_in_any_line_order(coords):
    # zero values included, scales in drawn order: both parsers sort and
    # drop as qs_point does, from a mapping or from the pairs themselves
    expected = umr.qs_point(dict(coords))
    assert umr.qs_point(coords) == expected
    text = "".join(f"{s} {v}\n" for s, v in coords)
    assert umr.parse_qpoint("qpoint v1\n" + text, MENU3) == expected
    inline = ",".join(f"{s}:{v}" for s, v in coords) or "0"
    (move,) = umr.parse_automorphism(f"translate {inline}\n", MENU3).moves
    assert move.offset == expected


def test_automorphism_serialization_round_trip():
    rng = random.Random(22)
    for _ in range(10):
        auto = umr.random_automorphism(MENU3, rng)
        text = umr.format_automorphism(auto)
        back = umr.parse_automorphism(text, MENU3)
        for _ in range(20):
            p = umr.random_point(MENU3, rng)
            assert back(p) == auto(p)


def test_extension_serialization_matches():
    x1, x2 = umr.ZERO_POINT, umr.qs_point({F(1, 2): 1})
    y1, y2 = umr.ZERO_POINT, umr.qs_point({F(1, 2): 2})
    auto = umr.extend_isometry([(x1, y1), (x2, y2)], MENU2)
    text = umr.format_automorphism(auto)
    assert text == "coordmap s=1/2 center=0 alpha=1/2 phi=1/2:3,1:1 shifts=-\n"
    assert umr.parse_automorphism(text, MENU2)(x2) == y2


def test_shifts_parse_in_any_order():
    in_order, any_order = (
        umr.parse_automorphism(f"coordmap s=1 center=0 alpha=-1 phi=- shifts={shifts}\n", MENU3)
        for shifts in ("1/2:1,1/4:1", "1/4:1,1/2:1")
    )
    rng = random.Random(23)
    for _ in range(50):
        p = umr.random_point(MENU3, rng)
        assert any_order(p) == in_order(p)


def test_automorphism_parse_rejects_off_menu_scales():
    off_menu = [
        "coordmap s=1/3 center=0 alpha=0 phi=- shifts=-\n",
        "coordmap s=1/2 center=3:2 alpha=0 phi=- shifts=-\n",
        "coordmap s=1 center=0 alpha=0 phi=- shifts=1/3:1\n",
        "translate 1/3:1\n",
    ]
    for text in off_menu:
        with pytest.raises(umr.FormatError):
            umr.parse_automorphism(text, MENU2)
    on_menu = "coordmap s=1 center=0 alpha=0 phi=- shifts=1/2:1\ntranslate 1:1\n"
    assert len(umr.parse_automorphism(on_menu, MENU2).moves) == 2


def test_automorphism_parse_raises_only_format_errors():
    bad = {
        "translate -1:2\n": "scales must be positive",
        "translate 1:2,1:3\n": "repeated coordinate 1",
        "translate 1/2:1,1:1,2/4:3\n": "repeated coordinate 2/4",
        "coordmap s=1/4 center=1:1,1:2 alpha=0 phi=- shifts=-\n": "repeated coordinate 1",
        "coordmap s=1 center=0 alpha=0 phi=- shifts=1/2:1,1/2:2\n": "repeated coordinate 1/2",
    }
    for text, message in bad.items():
        with pytest.raises(umr.FormatError, match=message):
            umr.parse_automorphism(text, MENU3)
