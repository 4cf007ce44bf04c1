import dataclasses
import hashlib
import random
from fractions import Fraction as F
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import umr
from umr import urysohn
from util import (
    fraction_qpoint,
    fraction_qpoint_values,
    fraction_rational,
    loop_ball,
    loop_first_difference,
    loop_offset,
    loop_preserves_sample,
    loop_run,
    naive_apply,
    naive_compare,
    naive_distance,
    naive_draw,
    naive_extension_error,
    naive_piecewise,
    naive_preserves_sample,
)


MENU2 = umr.menu_of(1, F(1, 2))
MENU3 = umr.menu_of(1, F(1, 2), F(1, 4))
MENU5 = umr.menu_of(3, 2, 1, F(1, 2), F(1, 3))


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
    assert inv.inverse() == phi and hash(inv.inverse()) == hash(phi)
    # the anchors kept for evaluation are neither compared nor shown
    assert repr(phi) == (
        "PiecewiseLinearMap(breakpoints=(Fraction(1, 2), Fraction(1, 1)),"
        " slopes=(Fraction(3, 1), Fraction(1, 1)))"
    )
    assert [f.name for f in dataclasses.fields(phi)] == ["breakpoints", "slopes"]
    # a stretch that keeps its source is one slope-1 segment: the identity
    still = umr.stretch_above(F(1, 2), F(1), F(1))
    assert still == umr.PiecewiseLinearMap((F(1, 2),), (F(1),))
    assert [still(q) for q in (F(-3), F(1, 2), F(1), F(7, 3))] == [F(-3), F(1, 2), F(1), F(7, 3)]
    rng = random.Random(13)
    for _ in range(100):
        q = F(rng.randint(-60, 60), rng.randint(1, 12))
        assert inv(phi(q)) == q
        assert phi(inv(q)) == q


def test_piecewise_map_matches_the_segment_oracle():
    # below, at, between and above the breakpoints of random maps
    rng = random.Random(20)
    for _ in range(300):
        cuts = sorted(
            {F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(rng.randint(0, 5))}
        )
        slopes = [F(rng.randint(1, 20), rng.randint(1, 6)) for _ in cuts]
        phi = umr.PiecewiseLinearMap(tuple(cuts), tuple(slopes))
        ends = [cuts[0], cuts[-1]] if cuts else [F(0), F(0)]
        probes = [
            *cuts,
            *((a + b) / 2 for a, b in zip(cuts, cuts[1:])),
            *(ends[0] - F(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(3)),
            *(ends[1] + F(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(3)),
        ]
        for x in probes:
            assert phi(x) == naive_piecewise(cuts, slopes, x)


def test_piecewise_map_validation():
    with pytest.raises(ValueError, match="one slope per breakpoint"):
        umr.PiecewiseLinearMap((F(0), F(1)), (F(1),))
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
    with pytest.raises(ValueError, match="zero shifts must be dropped"):
        umr.CoordMap(F(1), umr.ZERO_POINT, F(0), umr.PiecewiseLinearMap(), ((F(1, 2), F(0)),))
    with pytest.raises(ValueError, match="value map must be the identity up to the threshold"):
        umr.CoordMap(F(1), umr.ZERO_POINT, F(0), umr.stretch_above(F(-1), F(1), F(2)))
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
    assert umr.extend_isometry([], MENU2) == umr.IDENTITY


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


def test_inverse_round_trips_through_stretched_coordmaps():
    # CoordMap.invert inverts the value map, which reads its anchors
    stretched = 0
    for seed in range(12):
        rng = random.Random(seed)
        auto = umr.random_automorphism(MENU3, rng, max_moves=4)
        inv = umr.invert_automorphism(auto)
        for _ in range(40):
            p = umr.random_point(MENU3, rng)
            assert inv(auto(p)) == p
            for move in auto.moves:
                if isinstance(move, umr.CoordMap) and move.apply(p) != p:
                    assert move.invert().apply(move.apply(p)) == p
                    stretched += any(m != 1 for m in move.value_map.slopes)
    assert stretched > 0


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
        def failing(sources, targets):
            raise error
        return failing

    monkeypatch.setattr(urysohn, "_extend", extend(umr.NotPartialIsometry(0, 1)))
    report = umr.check_homogeneity(MENU2, 2, trials=3, seed=0)
    assert report.failures == (0, 1, 2)
    assert report.reasons == ("NotPartialIsometry",) * 3
    # an extension that leaves every point in place misses the targets
    monkeypatch.setattr(urysohn, "_extend", lambda sources, targets: [])
    report = umr.check_homogeneity(MENU2, 2, trials=3, seed=0)
    assert report.failures == (0, 1, 2)
    assert report.reasons == ("image mismatch",) * 3
    # a crash is a bug to show, not a failed trial
    monkeypatch.setattr(urysohn, "_extend", extend(TypeError("boom")))
    with pytest.raises(TypeError, match="boom"):
        umr.check_homogeneity(MENU2, 2, trials=3, seed=0)


@pytest.mark.parametrize("n, trials", [(0, 5), (2, 0), (2, -3)])
def test_homogeneity_rejects_empty_runs(n, trials):
    # a run of no trials would report "all passed" on nothing
    with pytest.raises(ValueError, match="must be at least 1"):
        umr.check_homogeneity(MENU2, n, trials, seed=0)


# Image breakers over MENU3: one reverses the order, one moves the value
# at 1/2 down to 1/4 (where a value at 1/4 wins), one merges points 1/2
# apart.  Each stays on the menu, as an image in the model must.
BREAKERS = {
    "reverse order": lambda q: -q,
    "change one distance": lambda q: umr.qs_point(
        {F(1, 4) if s == F(1, 2) else s: v for s, v in q.coords}
    ),
    "merge two points": lambda q: q.restrict_above(F(1, 2)),
}


def on_values(frame, mapping, sample):
    """A sample of QsPoints as value tuples over one grid, and a map of
    them as a table of the images' value tuples over another."""
    grid = urysohn._grid(sample)
    images = {p: mapping(p) for p in sample}
    out = urysohn._grid(images.values())
    table = {frame.values(p, grid): frame.values(q, out) for p, q in images.items()}
    return [frame.values(p, grid) for p in sample], table.__getitem__


@pytest.mark.parametrize("breaker", BREAKERS.values(), ids=list(BREAKERS))
def test_homogeneity_reports_extensions_that_break_the_sample(monkeypatch, breaker):
    frame = urysohn._Frame(MENU3)
    extend = urysohn._extend
    check = urysohn._preserves_sample
    verdicts = []

    # Each breaker commutes with scaling, and distance and order do too, so
    # numerators over any grid may stand in for the values they scale.
    def broken_extend(sources, targets):
        # hits every target, and breaks the image of every other point
        moves = extend(sources, targets)
        out = urysohn._Offset(prod(move.factor for move in moves), frame.zero)
        hits = {x: out(y) for x, y in zip(sources, targets)}

        def broken(x):
            if x in hits:
                return hits[x]
            return frame.values(breaker(frame.point(urysohn._run(moves, x), 1)), 1)

        broken.factor = out.factor
        return [broken]

    def recorded_check(moves, sample):
        verdict = check(moves, sample)

        def mapped(p):
            return frame.point(urysohn._run(moves, frame.values(p, urysohn.POINT_GRID)), 1)

        points = [frame.point(x, urysohn.POINT_GRID) for x in sample]
        verdicts.append((verdict, naive_preserves_sample(mapped, points)))
        return verdict

    monkeypatch.setattr(urysohn, "_extend", broken_extend)
    monkeypatch.setattr(urysohn, "_preserves_sample", recorded_check)
    report = umr.check_homogeneity(MENU3, 3, trials=8, seed=40, samples=30)
    assert report.failures == tuple(range(8))
    assert report.reasons == ("sample mismatch",) * 8
    assert verdicts == [(False, False)] * 8


def test_sample_check_reads_the_extension_at_the_sampled_values(monkeypatch):
    # the sample is drawn over POINT_GRID, the extension runs on the grid of
    # the scrambled images: the map the check reads must still be the
    # extension's automorphism at each sampled point
    frame, seen = urysohn._Frame(MENU3), {"checks": 0}
    scramble, extend, check = urysohn._Frame.scramble, urysohn._extend, urysohn._preserves_sample

    def recorded_scramble(self, rng, max_moves=3):
        seen["scrambler"] = scramble(self, rng, max_moves)
        return seen["scrambler"]

    def recorded_extend(sources, targets):
        seen["moves"] = extend(sources, targets)
        return seen["moves"]

    def recorded_check(moves, sample):
        grid = urysohn.POINT_GRID * prod(move.factor for move in seen["scrambler"])
        auto = umr.QsAutomorphism(frame.record(seen["moves"], grid))
        out = grid * prod(move.factor for move in seen["moves"])
        for x in sample:
            assert frame.point(urysohn._run(moves, x), out) == auto(frame.point(x, urysohn.POINT_GRID))
        seen["checks"] += 1
        return check(moves, sample)

    monkeypatch.setattr(urysohn._Frame, "scramble", recorded_scramble)
    monkeypatch.setattr(urysohn, "_extend", recorded_extend)
    monkeypatch.setattr(urysohn, "_preserves_sample", recorded_check)
    assert umr.check_homogeneity(MENU3, 4, trials=6, seed=3, samples=20).all_passed
    assert seen["checks"] == 6


def qs_points(menu, values=st.integers(-3, 3).map(lambda k: F(k, 2))):
    # few values per coordinate, so samples repeat points and share prefixes
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
    values, image = on_values(urysohn._Frame(MENU3), mapped, sample)
    verdict = urysohn._preserves_sample([image], values)
    assert verdict == naive_preserves_sample(mapped, sample)
    if breaker is None:
        assert verdict


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data(), st.lists(qs_points(MENU2), max_size=8))
def test_sample_check_matches_the_pair_loop_on_any_map(data, sample):
    table = {p: data.draw(qs_points(MENU2)) for p in sample}
    values, image = on_values(urysohn._Frame(MENU2), table.get, sample)
    verdict = urysohn._preserves_sample([image], values)
    assert verdict == naive_preserves_sample(table.get, sample)


# Value tuples for the kernels: few values per position, negative ones
# among them, so pairs are often equal or agree on long prefixes.
SMALL = st.integers(-4, 4)


def value_tuples(length, values=SMALL):
    return st.lists(values, min_size=length, max_size=length).map(tuple)


@st.composite
def tuple_pairs(draw):
    x = draw(st.integers(1, 9).flatmap(value_tuples))
    agree = draw(st.integers(0, len(x)))
    return x, x[:agree] + draw(value_tuples(len(x) - agree))


def offsets(length):
    return st.builds(urysohn._Offset, st.integers(1, 12), value_tuples(length, st.integers(-10**20, 10**20)))


@st.composite
def balls(draw, length, finer=None):
    """A compiled ball on tuples of this length: its factor is 1 when
    ``finer`` is False, above 1 when it is True, either when None."""
    k = draw(st.integers(0, length - 1))
    slopes = urysohn._SLOPES if finer is not False else ((1, 1), (2, 1), (3, 1))
    lift = draw(st.sampled_from((1, 2, 3) if finer is not False else (1,)))
    threshold = draw(st.integers(-12, 12))
    steps = draw(st.lists(st.integers(1, 6), max_size=2))
    breakpoints = [threshold + draw(st.integers(0, 3))] if steps or draw(st.booleans()) else []
    for step in steps:
        breakpoints.append(breakpoints[-1] + step)
    rates = [draw(st.sampled_from(slopes)) for _ in breakpoints]
    if finer and lift == 1 and all(q == 1 for _, q in rates):
        lift = 2
    center = [c * lift for c in draw(value_tuples(k))]
    if center and lift > 1 and draw(st.booleans()):
        center[-1] += 1  # off the input grid: no point is in the ball
    shifts = draw(value_tuples(length - k - 1, st.integers(-12, 12)))
    return urysohn._ball(k, lift, center, threshold, breakpoints, rates, shifts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tuple_pairs())
def test_first_difference_matches_the_loop(pair):
    assert urysohn._first_difference(*pair) == loop_first_difference(*pair)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(offsets(n), value_tuples(n))))
def test_offset_matches_the_loop(case):
    move, x = case
    assert move(x) == loop_offset(move, x)


@pytest.mark.parametrize("inside", [True, False], ids=["in the ball", "outside"])
@pytest.mark.parametrize("finer", [False, True], ids=["factor 1", "factor above 1"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), length=st.integers(1, 7))
def test_ball_matches_the_loop(finer, inside, data, length):
    move = data.draw(balls(length, finer))
    assert (move.factor > 1) == finer
    tail = data.draw(value_tuples(length - move.k - 1))
    if inside:
        assume(move.gate is not None)
        # the least value whose lift passes the threshold, and some above it
        v = move.threshold // move.lift + 1 + data.draw(st.integers(0, 12))
        x = (*move.gate, v, *tail)
    else:
        way = data.draw(st.sampled_from(["value", "prefix", "any"]))
        if way == "value" and move.gate is not None:
            x = (*move.gate, move.threshold // move.lift - data.draw(st.integers(0, 12)), *tail)
        elif way == "prefix" and move.gate:
            gate = list(move.gate)
            gate[data.draw(st.integers(0, move.k - 1))] += data.draw(st.sampled_from([-1, 1]))
            x = (*gate, data.draw(SMALL), *tail)
        else:
            x = data.draw(value_tuples(length))
    assert move(x) == loop_ball(move, x)


def affine_moves(length):
    return st.lists(st.one_of(offsets(length), balls(length)), max_size=7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(affine_moves(n), st.lists(value_tuples(n), max_size=6))))
def test_fused_moves_match_the_moves_one_by_one(case):
    moves, points = case
    fused = urysohn._fused(moves)
    kinds = [isinstance(move, urysohn._Offset) for move in fused]
    assert not any(a and b for a, b in zip(kinds, kinds[1:]))
    assert [m for m in fused if isinstance(m, urysohn._Ball)] == [m for m in moves if isinstance(m, urysohn._Ball)]
    assert prod(move.factor for move in fused) == prod(move.factor for move in moves)
    for x in points:
        assert loop_run(fused, x) == loop_run(moves, x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    sample=st.lists(value_tuples(3), max_size=14),
    lead=value_tuples(3),
    trail=offsets(3),
    reverse=st.booleans(),
)
def test_sample_check_on_move_lists_matches_the_per_point_loop(seed, sample, lead, trail, reverse):
    # a translation before and an offset after a scrambler, which may hold
    # adjacent offsets of its own; a final reflection reverses every order
    frame = urysohn._Frame(MENU3)
    moves = [urysohn._Offset(1, lead), *frame.scramble(random.Random(seed)), trail]
    if reverse:
        moves.append(urysohn._Offset(-1, frame.zero))
    verdict = urysohn._preserves_sample(moves, sample)
    assert verdict == loop_preserves_sample(moves, sample)
    assert verdict == (not reverse or len(set(sample)) < 2)



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
def points_and_moves(draw, menu, values=HALVES, numbers=HALVES, unit=F(1, 2),
                     slopes=(F(1, 2), F(1), F(2))):
    """A point with the given values and a move: a Translate, or a CoordMap
    whose ball often holds the point and whose threshold, value map and
    shifts often cancel it.  The move's offset, center, threshold and
    shifts are drawn from ``numbers``, its breakpoints ``unit`` apart."""
    point = draw(qs_points(menu, values))
    if draw(st.booleans()):
        return point, umr.Translate(draw(qs_points(menu, numbers)))
    scale = draw(st.sampled_from(list(menu)))
    center = point if draw(st.booleans()) else draw(qs_points(menu, numbers))
    threshold = draw(numbers)
    steps = draw(st.lists(st.integers(0, 4), max_size=3, unique=True))
    breakpoints = tuple(threshold + unit * k for k in sorted(steps))
    slopes = tuple(draw(st.sampled_from(slopes)) for _ in breakpoints)
    below = [t for t in menu if t < scale]
    shifts = draw(st.dictionaries(st.sampled_from(below), numbers.filter(bool))) if below else {}
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
# the point from MENU3, the move from MENU5: a scale the point lacks, a
# threshold below 0, and the point's value below the scale kept
@example((
    umr.qs_point({F(1): 1, F(1, 4): 2}),
    umr.CoordMap(F(1, 3), umr.qs_point({F(1): 1}), F(-1), umr.stretch_above(F(-1), F(0), F(1))),
))
# the point from MENU5, the move from MENU3: a value map that lands on 0
# and a shift at a scale the point lacks
@example((
    umr.qs_point({F(1, 2): F(-1, 2), F(1, 3): 1}),
    umr.CoordMap(F(1, 2), umr.ZERO_POINT, F(-1), umr.PiecewiseLinearMap((F(-1),), (F(2),)),
                 ((F(1, 4), F(1)),)),
))
def test_moves_match_dict_arithmetic(case):
    point, move = case
    expected = naive_apply(move, point)
    assert move.apply(point) == expected
    if isinstance(move, umr.Translate):
        assert point + move.offset == expected
        assert point - move.offset == naive_apply(umr.Translate(-move.offset), point)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    point=qs_points(MENU5),
    moves=st.lists(points_and_moves(MENU3).map(lambda case: case[1]), max_size=3),
)
# IDENTITY on ZERO_POINT
@example(point=umr.ZERO_POINT, moves=[])
# a translation into the CoordMap's ball, whose shift cancels the first
# translation's, then a translation back
@example(point=umr.qs_point({F(1, 3): 2}), moves=[
    umr.Translate(umr.qs_point({F(1): 1, F(1, 4): -1})),
    umr.CoordMap(F(1, 2), umr.qs_point({F(1): 1}), F(-1), umr.stretch_above(F(-1), F(0), F(2)),
                 ((F(1, 4), F(1)),)),
    umr.Translate(umr.qs_point({F(1): -1})),
])
def test_automorphisms_match_composed_dict_arithmetic(point, moves):
    # the point and the moves come from different menus
    expected = point
    for move in moves:
        expected = naive_apply(move, expected)
    assert umr.QsAutomorphism(tuple(moves))(point) == expected


# the scales of two menus: each menu misses some, and the frame of a pair
# of points is often wider than either support
TWO_MENUS = sorted(set(MENU3) | set(MENU5), reverse=True)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=qs_points(TWO_MENUS), y=qs_points(TWO_MENUS), menu=st.sampled_from([None, MENU3, MENU5]))
@example(x=umr.ZERO_POINT, y=umr.ZERO_POINT, menu=None)
@example(x=umr.qs_point({1: 1}), y=umr.qs_point({F(1, 4): 1}), menu=MENU5)
@example(x=umr.qs_point({2: 1}), y=umr.qs_point({3: 1}), menu=MENU3)
def test_distance_and_order_match_dict_arithmetic(x, y, menu):
    off = [s for p in (x, y) for s, _ in p.coords if menu is not None and s not in menu]
    if off:
        # x is checked before y, each from its largest scale down
        for geometry in (umr.qs_distance, umr.qs_lex_compare):
            with pytest.raises(ValueError, match=f"^coordinate {off[0]} not in menu$"):
                geometry(x, y, menu)
    else:
        assert umr.qs_distance(x, y, menu) == naive_distance(x, y)
        assert umr.qs_lex_compare(x, y, menu) == naive_compare(x, y)


# values off the n/6 grid that random points use
OFF_GRID = st.fractions(-3, 3, max_denominator=35)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    case=points_and_moves(MENU5, OFF_GRID),
    others=st.lists(qs_points(MENU5, OFF_GRID), max_size=4),
    seed=st.integers(0, 2**16),
)
# in the ball, at the threshold; then a value map and a shift that cancel
@example(case=(
    umr.qs_point({3: F(1, 5), 1: F(2, 7)}),
    umr.CoordMap(1, umr.qs_point({3: F(1, 5)}), F(2, 7), umr.stretch_above(F(2, 7), 1, 2)),
), others=[umr.qs_point({3: F(1, 5), 1: F(3, 7), F(1, 3): F(-1, 7)})], seed=0)
@example(case=(
    umr.qs_point({2: F(-1, 2), F(1, 2): F(1, 7)}),
    umr.CoordMap(2, umr.ZERO_POINT, F(-1), umr.PiecewiseLinearMap((F(-1),), (F(2),)),
                 ((F(1, 2), F(-1, 7)),)),
), others=[], seed=1)
def test_compiled_moves_match_dict_arithmetic(case, others, seed):
    # the hand-built move first, while its ball often still holds the point
    point, move = case
    moves = (move, *umr.random_automorphism(MENU5, random.Random(seed), max_moves=4).moves)
    check_compiled(MENU5, moves, (point, *others))


def check_compiled(menu, moves, points):
    """Compiled on the points' least grid, the moves carry each point as the
    composed ``naive_apply`` does, and ``record`` gives the moves back."""
    frame = urysohn._Frame(menu)
    grid = urysohn._grid(points)
    compiled, out = frame.compile(moves, grid)
    for p in points:
        expected = p
        for m in moves:
            expected = naive_apply(m, expected)
        assert frame.point(urysohn._run(compiled, frame.values(p, grid)), out) == expected
    assert frame.record(compiled, grid) == tuple(moves)


# values with denominators 7, 11 and 13: a move's data are often off the
# grid of the points it meets (its lift) and its slopes widen the grid
SEVENS = st.builds(F, st.integers(-30, 30), st.sampled_from([7, 11, 13]))


def odd_moves(unit, slopes):
    return points_and_moves(MENU5, SEVENS, numbers=SEVENS, unit=unit, slopes=slopes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    case=odd_moves(F(1, 11), (F(3, 7), F(1), F(13, 11))),
    others=st.lists(qs_points(MENU5, SEVENS), max_size=4),
    more=st.lists(odd_moves(F(2, 13), (F(2, 13), F(7, 11))).map(lambda c: c[1]), max_size=3),
)
def test_compiled_moves_on_sevenths_elevenths_and_thirteenths(case, others, more):
    point, move = case
    check_compiled(MENU5, (move, *more), (point, *others))


def test_extension_with_a_ball_per_pair_grows_the_grid():
    # 120 sources in one ball, at values p/7, onto increasing values q/11
    # with growing gaps: a translation and then one ball per pair, each
    # widening the grid by its own factor
    pairs = [
        (umr.qs_point({1: 1, F(1, 2): F(5 * i + i % 3, 7)}),
         umr.qs_point({1: 1, F(1, 2): F(i * i + 3 * i + 1, 11)}))
        for i in range(120)
    ]
    auto = umr.extend_isometry(pairs, MENU2)
    assert len(auto.moves) == 120
    for p, q in pairs:
        image = p
        for move in auto.moves:
            image = naive_apply(move, image)
        assert image == q
    points = [p for pair in pairs for p in pair]
    frame, grid = urysohn._Frame(MENU2), urysohn._grid(points)
    compiled, out = frame.compile(auto.moves, grid)
    assert out.bit_length() > 400
    assert frame.record(compiled, grid) == auto.moves


def pinned_extension(menu, seed, n):
    """``format_automorphism`` of the extension of n seeded random points
    onto their images under a random automorphism and four ball moves
    around current images, given in shuffled order."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        p = umr.random_point(menu, rng)
        if p not in points:
            points.append(p)
    moves = list(umr.random_automorphism(menu, rng).moves)
    for _ in range(4):
        q = umr.QsAutomorphism(tuple(moves))(rng.choice(points))
        s = menu[rng.randrange(len(menu))]
        alpha = q.value_at(s) - F(rng.randint(1, 6), 6)
        shifts = tuple((t, F(rng.randint(1, 6), 6)) for t in menu if t < s and rng.random() < 0.5)
        phi = umr.PiecewiseLinearMap((alpha,), (F(rng.randint(1, 4), 2),))
        moves.append(umr.CoordMap(s, q.restrict_above(s), alpha, phi, shifts))
    auto = umr.QsAutomorphism(tuple(moves))
    pairs = [(p, auto(p)) for p in points]
    rng.shuffle(pairs)
    return umr.format_automorphism(umr.extend_isometry(pairs, menu))


# sha256 of each text, recorded before the extension ran on value tuples
PINNED_EXTENSIONS = {
    ("MENU3", 1, 2): "58a8a12daa0d90909829c1369cc739862220f880d6aed33b61513f04f94a4baf",
    ("MENU3", 2, 6): "acfe62130c30e7174a19148bc7a9dfc2946413ca087f6d48ef2e28442375338a",
    ("MENU3", 3, 12): "80cb432f8fe80dd8c26bf9707530b053db923833db8bad9e8c3ad74db3b2817a",
    ("MENU3", 4, 25): "b43f0a5b1ed4a0d94788f6f86408d47cdfb723eec1beedcff41f62bca5691ff1",
    ("MENU5", 1, 2): "8862afbc2496f15c3cea857ed18e0cd390c1f9afd57a1c3fdac9d978b207f797",
    ("MENU5", 2, 6): "e38858c466a0f3d3f5def85cd1918d0676390e11af698adcd05412c2e6b0e605",
    ("MENU5", 3, 12): "5ea6dc678e923a711aa51fea46c59b950c9b1f206a594f23f454ae881da4e0ce",
    ("MENU5", 4, 25): "4597784298ccd05d98f1ca6768bd90eba2d69a0732fe2a5ae3abc77cdd267a4f",
}


@pytest.mark.parametrize("menu_name, seed, n", list(PINNED_EXTENSIONS))
def test_extension_moves_are_pinned(menu_name, seed, n):
    text = pinned_extension({"MENU3": MENU3, "MENU5": MENU5}[menu_name], seed, n)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EXTENSIONS[menu_name, seed, n]


def test_extension_moves_are_pinned_in_full():
    assert pinned_extension(MENU3, 2, 6) == (
        "translate 1:7/3,1/2:7/3,1/4:-7/6\n"
        "coordmap s=1 center=0 alpha=5/3 phi=5/3:1 shifts=1/2:1/6\n"
        "coordmap s=1/2 center=1:7/3 alpha=8/3 phi=8/3:3,17/6:1 shifts=-\n"
        "coordmap s=1/2 center=1:7/3 alpha=23/6 phi=23/6:5,9/2:1 shifts=-\n"
        "coordmap s=1 center=0 alpha=43/12 phi=43/12:1 shifts=1/2:-1/6\n"
    )


def test_random_point_draws_are_pinned():
    rng = random.Random(7)
    assert [umr.random_point(MENU3, rng) for _ in range(3)] == [
        umr.qs_point({1: F(-3, 2), F(1, 2): F(-5, 2), F(1, 4): F(8, 3)}),
        umr.qs_point({1: F(-5, 2), F(1, 4): F(-13, 6)}),
        umr.qs_point({1: F(-7, 3), F(1, 2): F(17, 6), F(1, 4): 3}),
    ]
    # sha256 of 50 formatted draws on MENU5 per seed, recorded before the
    # draws were read from value tuples
    pinned = [
        "438b37f7c4158bb6aab5b0bcc8be24f939a46e63e67e28f0e6815386d0430cd7",
        "3cc04c83d317d90c4a3acde65bbe94bf08996990ce4463995f759c98a9643740",
        "f37c55bfa63db2ff4737ecc868974c431491e30a54649d381d50ab5a4bf6fe45",
    ]
    for seed, digest in enumerate(pinned):
        rng = random.Random(seed)
        text = "".join(umr.format_qpoint(umr.random_point(MENU5, rng)) for _ in range(50))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_draws_read_the_rng_as_randint_does():
    # the rejection sampling on the rng's bits makes randint's draws and
    # leaves the rng in randint's state, whether the draws are made one at
    # a time or k in one loop
    for length in range(1, 9):
        frame = urysohn._Frame(umr.menu_of(*range(length, 0, -1)))
        for seed in range(200):
            fast, batch, slow = (random.Random(seed) for _ in range(3))
            drawn = [frame.draw(fast) for _ in range(50)]
            assert frame.draws(batch, 50) == drawn == [naive_draw(length, slow) for _ in range(50)]
            assert fast.getstate() == batch.getstate() == slow.getstate()
    # a frame of no scales draws empty tuples and reads no bits
    rng, state = random.Random(0), random.Random(0).getstate()
    assert urysohn._Frame(()).draws(rng, 3) == [(), (), ()]
    assert umr.random_point(umr.DistanceSet(()), rng) == umr.ZERO_POINT
    assert rng.getstate() == state


def test_homogeneity_samples_are_the_draws_one_at_a_time(monkeypatch):
    # the sorted samples the harness hands to its check, against a replay
    # of each trial's rng with every point drawn on its own
    frame, samples, check = urysohn._Frame(MENU3), [], urysohn._preserves_sample

    def recorded_check(moves, sample):
        samples.append(sample)
        return check(moves, sample)

    monkeypatch.setattr(urysohn, "_preserves_sample", recorded_check)
    for seed in range(6):
        samples.clear()
        assert umr.check_homogeneity(MENU3, 4, 8, seed).all_passed
        replayed = []
        for t in range(8):
            rng, drawn = random.Random(seed + t), set()
            while len(drawn) < 4:
                drawn.add(naive_draw(3, rng))
            frame.scramble(rng)
            replayed.append(sorted(naive_draw(3, rng) for _ in range(100)))
        assert samples == replayed


def test_public_point_constructor_keeps_its_checks():
    for coords, message in [
        (((F(1, 2), F(1)), (F(1), F(1))), "scales must be strictly decreasing"),
        (((F(1), F(1)), (F(1), F(2))), "scales must be strictly decreasing"),
        (((F(1), F(1)), (F(0), F(1))), "scales must be positive"),
        (((F(1), F(1)), (F(1, 2), F(0))), "zero values must be dropped"),
    ]:
        with pytest.raises(ValueError, match=message):
            umr.QsPoint(coords)


def test_move_at_a_nonpositive_scale_is_refused_when_built():
    for scale in (F(-1), F(0)):
        with pytest.raises(ValueError, match="scale must be positive"):
            umr.CoordMap(scale, umr.ZERO_POINT, F(-5), umr.PiecewiseLinearMap((F(-5),), (F(2),)))


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
    # drop as qs_point does, from a mapping or from the pairs themselves;
    # parsed, inline and frame-built points skip the checks that qs_point's
    # points pass, so each must equal its checked point
    expected = umr.qs_point(dict(coords))
    assert umr.qs_point(coords) == expected
    text = "".join(f"{s} {v}\n" for s, v in coords)
    assert umr.parse_qpoint("qpoint v1\n" + text, MENU3) == expected
    assert umr.parse_qpoint(umr.format_qpoint(expected), MENU3) == expected
    inline = ",".join(f"{s}:{v}" for s, v in coords) or "0"
    above = ",".join(f"{s}:{v}" for s, v in coords if s > MENU3[-1]) or "0"
    translate, coordmap = umr.parse_automorphism(
        f"translate {inline}\ncoordmap s={MENU3[-1]} center={above} alpha=0 phi=- shifts=-\n",
        MENU3,
    ).moves
    assert translate.offset == expected
    assert coordmap.center == expected.restrict_above(MENU3[-1])
    frame, grid = urysohn._Frame(MENU3), urysohn._grid([expected])
    assert frame.point(frame.values(expected, grid), grid) == expected


# Spellings of each scale of MENU6, its canonical one first, and of values;
# the lines a qpoint text may go wrong by.
SPELLINGS = {
    F(3): ["3", "6/2", "-3/-1", "+3", "03", "3_0/1_0"],
    F(1): ["1", "+1", "2/2", "-1/-1", "001"],
    F(1, 2): ["1/2", "2/4", "-1/-2", "+1/2", "0_1/2", "5/10"],
    F(1, 6): ["1/6", "2/12", "-1/-6", "1/0_6"],
}
MENU6 = umr.menu_of(*SPELLINGS)
VALUE_TOKENS = st.one_of(
    st.sampled_from(["2/4", "-3/-6", "+1", "0/5", "007", "1_0", "0", "-0", "1/-3", "-7/1"]),
    st.tuples(st.integers(-40, 40), st.integers(-12, 12).filter(bool)).map("{0[0]}/{0[1]}".format),
    st.fractions(max_denominator=30).map(str),
)
BAD_LINES = [
    "1/3 1", "2/6 1", "0 1", "0/5 2", "-1/2 1", "-2/4 1", "-0/3 1", "1/0 1", "x 1",
    "1 1/0", "1 x", "1/2 3/0_0", "1", "1 2 3",
]


@st.composite
def qpoint_texts(draw):
    """A qpoint text over MENU6 in any spellings, with at most one fault: a
    bad line, a scale repeated (maybe under another spelling) or a bad header."""
    scales = draw(st.lists(st.sampled_from(list(SPELLINGS)), unique=True))
    lines = [f"{draw(st.sampled_from(SPELLINGS[s]))} {draw(VALUE_TOKENS)}" for s in scales]
    fault = draw(st.sampled_from(["none", "none", "line", "repeat", "header"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "line":
        lines.insert(at, draw(st.sampled_from(BAD_LINES)))
    elif fault == "repeat" and scales:
        lines.insert(at, f"{draw(st.sampled_from(SPELLINGS[draw(st.sampled_from(scales))]))} 1")
    header = "qpoint v2" if fault == "header" else "qpoint v1"
    return "\n".join([header, *lines]) + "\n"


def outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def drawn(texts, missing):
    """The texts one at a time, as a reader draws files, with the one at
    index ``missing`` unreadable."""
    for i, text in enumerate(texts):
        if i == missing:
            raise FileNotFoundError(f"no text {i}")
        yield text


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(qpoint_texts(), min_size=1, max_size=4), st.none() | st.integers(0, 3))
@example(["qpoint v1\n1/2 1\n2/4 3\n"], None)  # one scale under two spellings
@example(["qpoint v1\n0/5 1\n", "qpoint v1\n1/3 1\n"], None)  # nonpositive, off-menu
@example(["qpoint v1\n1 1/0\n", "qpoint v1\n"], 1)  # a malformed text before a missing one
def test_qpoint_reader_matches_the_fraction_route(texts, missing):
    # numerators, grid and every error, including the first of several
    # texts, read as the Fraction route reads them
    expected = outcome(lambda: fraction_qpoint_values(drawn(texts, missing), MENU6))
    got = outcome(lambda: urysohn._read_qpoints(drawn(texts, missing), MENU6)[1:])
    assert got == expected
    for text in texts:
        point = outcome(lambda: umr.qs_point(fraction_qpoint(text, MENU6)))
        assert outcome(lambda: umr.parse_qpoint(text, MENU6)) == point
        for token in text.split():
            assert outcome(lambda: umr.parse_rational(token)) == outcome(lambda: fraction_rational(token))


def test_qpoint_reader_reads_each_value_token_once_per_call(monkeypatch):
    # many texts over six value tokens: a call reads each distinct one once
    # (scales in their canonical spelling are not read), the next call reads
    # them again, and the result is the Fraction route's
    rng = random.Random(29)
    tokens = ["1/2", "-3/4", "2/4", "5", "0", "7/6"]
    texts = [
        "qpoint v1\n" + "".join(f"{s} {rng.choice(tokens)}\n" for s in MENU6 if rng.random() < 0.8)
        for _ in range(40)
    ]
    used = sorted({line.split()[1] for text in texts for line in text.splitlines()[1:]})
    expected = fraction_qpoint_values(texts, MENU6)
    calls = []
    terms = urysohn.rational_terms
    monkeypatch.setattr(urysohn, "rational_terms", lambda token: calls.append(token) or terms(token))
    for _ in range(2):
        calls.clear()
        assert urysohn._read_qpoints(iter(texts), MENU6)[1:] == expected
        assert sorted(calls) == used
    # a repeated coordinate speaks before its malformed value is read
    with pytest.raises(umr.FormatError, match="repeated coordinate 1"):
        urysohn._read_qpoints(["qpoint v1\n1 1/2\n", "qpoint v1\n1 1/2\n1 x/0\n"], MENU6)


def test_rational_terms_are_lowest_terms_with_a_positive_denominator():
    # parse_rational follows the same token rule into a Fraction of those terms
    cases = {"2/4": (1, 2), "-3/-6": (1, 2), "+1": (1, 1), "0/5": (0, 1), "0/-5": (0, 1),
             "007": (7, 1), "1_0": (10, 1), "4/-6": (-2, 3), "-0": (0, 1)}
    assert {token: umr.rational.rational_terms(token) for token in cases} == cases
    parsed = {token: umr.parse_rational(token) for token in cases}
    assert {token: (v.numerator, v.denominator) for token, v in parsed.items()} == cases
    assert all(type(v) is F and type(v.numerator) is int for v in parsed.values())
    for token in ("1/0", "-0/0", "x", "1/2/3", "1.5", "/2", "2/", "1/"):
        for parse in (umr.rational.rational_terms, umr.parse_rational):
            with pytest.raises(umr.FormatError, match=f"bad rational {token!r}"):
                parse(token)


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
        # a point's coordinate is quoted as written, a move's scale as a rational
        "translate 2/6:1\n": "coordinate 2/6 not in menu",
        "coordmap s=2/6 center=0 alpha=0 phi=- shifts=-\n": "coordinate 1/3 not in menu",
        "coordmap s=1 center=0 alpha=0 phi=- shifts\n": "bad field 'shifts'",
    }
    for text, message in bad.items():
        with pytest.raises(umr.FormatError, match=message):
            umr.parse_automorphism(text, MENU3)
