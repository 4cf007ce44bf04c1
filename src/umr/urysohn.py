"""Executable model of the countable homogeneous ultrametric space over a
finite distance menu.

Points are finitely supported rational-valued functions on the menu.  The
distance of two distinct points is the largest coordinate where they
differ, and the lexicographic order compares the values at that same
coordinate.  Under these definitions every finite subset induces a
convexly ordered ultrametric space with distances drawn from the menu.

Automorphisms (order-preserving self-isometries) are represented as finite
move lists.  A ``Translate`` adds a fixed point coordinatewise.  A
``CoordMap`` acts inside one ball: on the points that agree with a stored
center above some scale s and whose value at s exceeds a threshold, it
applies a strictly increasing piecewise-linear rational bijection at s and
adds fixed shifts below s; everything else is untouched.  The threshold
gate is what lets a CoordMap move one point of a ball onto another while
fixing previously matched points sitting lower in the order.

``extend_isometry`` grows any finite order-preserving isometry one point
at a time into a genuine automorphism: a translation matches the first
pair, and each further point is captured by one CoordMap.

``QsPoint`` and the move records are the public view.  All arithmetic
runs on a point's tuple of values at the positions of a ``_Frame``,
largest scale first, so the lex order is tuple order and a distance is
the first position where two tuples differ.  The extension, the
homogeneity harness and its sample check stay in the menu's frame
throughout; the public sum, moves, distance and order convert into the
frame of the scales they touch (the menu's, when one is given) and back.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Callable, NamedTuple, NoReturn, Sequence

from .errors import (
    DuplicatePoint,
    FormatError,
    NotOrderPreserving,
    NotPartialIsometry,
    UmrError,
)
from .rational import as_fraction, body_lines, format_rational, parse_rational
from .spaces import DistanceSet

_ZERO = Fraction(0)

LESS = -1
EQUAL = 0
GREATER = 1


def menu_of(*values) -> DistanceSet:
    """Distance menu: nonempty, strictly decreasing, positive."""
    if not values:
        raise ValueError("menu must be nonempty")
    return DistanceSet(tuple(as_fraction(v) for v in values))


def _check_scales(coords) -> None:
    """The scale rule for (scale, value) pairs: scales strictly decreasing
    and the last one positive, so every one is."""
    for (a, _), (b, _) in zip(coords, coords[1:]):
        if a <= b:
            raise ValueError("scales must be strictly decreasing")
    if coords and coords[-1][0] <= 0:
        raise ValueError("scales must be positive")


@dataclass(frozen=True)
class QsPoint:
    """Finitely supported function: (scale, value) pairs, scales strictly
    decreasing, values nonzero."""

    coords: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        _check_scales(self.coords)
        for _, v in self.coords:
            if not v:
                raise ValueError("zero values must be dropped")

    def value_at(self, scale: Fraction) -> Fraction:
        for s, v in self.coords:
            if s == scale:
                return v
            if s < scale:
                break
        return _ZERO

    def restrict_above(self, scale: Fraction) -> "QsPoint":
        return QsPoint(tuple((s, v) for s, v in self.coords if s > scale))

    def __add__(self, other: "QsPoint") -> "QsPoint":
        return Translate(other).apply(self)

    def __neg__(self) -> "QsPoint":
        return QsPoint(tuple((s, -v) for s, v in self.coords))

    def __sub__(self, other: "QsPoint") -> "QsPoint":
        return self + (-other)


ZERO_POINT = QsPoint()


def qs_point(mapping) -> QsPoint:
    """Normalize a {scale: value} mapping or pair iterable into a QsPoint."""
    pairs = mapping.items() if hasattr(mapping, "items") else mapping
    cleaned = sorted(
        ((as_fraction(s), as_fraction(v)) for s, v in pairs if v != 0),
        key=itemgetter(0),
        reverse=True,
    )
    return QsPoint(tuple(cleaned))


def _compare(x: QsPoint, y: QsPoint, menu: DistanceSet | None):
    """The frame, the value tuples of x and y there and the first position
    where they differ; the menu's frame when one is given (x is checked
    against it first), otherwise the frame of the scales of x and y."""
    frame = _Frame(menu) if menu is not None else _spanning(x, (Translate(y),))
    a, b = frame.values(x), frame.values(y)
    return frame, a, b, _first_difference(a, b)


def qs_distance(x: QsPoint, y: QsPoint, menu: DistanceSet | None = None) -> Fraction:
    """0 for equal points, otherwise the largest coordinate where they
    differ."""
    frame, a, _, k = _compare(x, y, menu)
    return frame.scales[k] if k < len(a) else _ZERO


def qs_lex_compare(x: QsPoint, y: QsPoint, menu: DistanceSet | None = None) -> int:
    """LESS/EQUAL/GREATER by the values at the largest differing
    coordinate."""
    _, a, b, k = _compare(x, y, menu)
    if k == len(a):
        return EQUAL
    return LESS if a[k] < b[k] else GREATER


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Strictly increasing piecewise-linear bijection of the rationals onto
    themselves: the identity up to the first breakpoint, then the given
    slope on each successive segment (the last slope extends to infinity)."""

    breakpoints: tuple[Fraction, ...] = ()
    slopes: tuple[Fraction, ...] = ()
    # the image of each breakpoint, computed once when the map is built
    _anchors: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.breakpoints) != len(self.slopes):
            raise ValueError("one slope per breakpoint")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if a >= b:
                raise ValueError("breakpoints must be strictly increasing")
        for m in self.slopes:
            if m <= 0:
                raise ValueError("slopes must be positive")
        anchors = list(self.breakpoints[:1])
        for i in range(1, len(self.breakpoints)):
            anchors.append(
                anchors[-1] + self.slopes[i - 1] * (self.breakpoints[i] - self.breakpoints[i - 1])
            )
        object.__setattr__(self, "_anchors", tuple(anchors))

    def __call__(self, x: Fraction) -> Fraction:
        # the segment of the last breakpoint at or below x; the map is
        # continuous, so a breakpoint's own value is its anchor either way
        i = bisect_right(self.breakpoints, x) - 1
        if i < 0:
            return x
        return self._anchors[i] + self.slopes[i] * (x - self.breakpoints[i])

    def inverse(self) -> "PiecewiseLinearMap":
        return PiecewiseLinearMap(self._anchors, tuple(1 / m for m in self.slopes))


def stretch_above(alpha: Fraction, source: Fraction, image: Fraction) -> PiecewiseLinearMap:
    """Identity up to alpha, then the increasing map taking source to image
    (both above alpha) with a slope-1 tail."""
    if source <= alpha or image <= alpha:
        raise ValueError("source and image must lie above alpha")
    if source == image:
        return PiecewiseLinearMap((alpha,), (Fraction(1),))
    return PiecewiseLinearMap(
        (alpha, source),
        ((image - alpha) / (source - alpha), Fraction(1)),
    )


@dataclass(frozen=True)
class Translate:
    offset: QsPoint

    def apply(self, point: QsPoint) -> QsPoint:
        return QsAutomorphism((self,))(point)

    def invert(self) -> "Translate":
        return Translate(-self.offset)


@dataclass(frozen=True)
class CoordMap:
    """Ball move: on points agreeing with ``center`` above ``scale`` whose
    value at ``scale`` exceeds ``threshold``, remap the value at ``scale``
    through ``value_map`` and add the fixed ``shifts`` below ``scale``."""

    scale: Fraction
    center: QsPoint
    threshold: Fraction
    value_map: PiecewiseLinearMap
    shifts: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        center, shifts = self.center.coords, self.shifts
        if center and center[-1][0] <= self.scale:
            raise ValueError("center must live strictly above the scale")
        _check_scales(shifts)
        if shifts and shifts[0][0] >= self.scale:
            raise ValueError("shifts must live strictly below the scale")
        for _, delta in shifts:
            if not delta:
                raise ValueError("zero shifts must be dropped")
        if self.value_map.breakpoints and self.value_map.breakpoints[0] < self.threshold:
            raise ValueError("value map must be the identity up to the threshold")

    def apply(self, point: QsPoint) -> QsPoint:
        return QsAutomorphism((self,))(point)

    def invert(self) -> "CoordMap":
        return CoordMap(
            scale=self.scale,
            center=self.center,
            threshold=self.threshold,
            value_map=self.value_map.inverse(),
            shifts=tuple((t, -delta) for t, delta in self.shifts),
        )


Move = Translate | CoordMap


@dataclass(frozen=True)
class QsAutomorphism:
    moves: tuple[Move, ...] = ()

    def __call__(self, point: QsPoint) -> QsPoint:
        frame = _spanning(point, self.moves)
        compiled = [frame.compile(move) for move in self.moves]
        return frame.point(_run(compiled, frame.values(point)))


IDENTITY = QsAutomorphism()


def invert_automorphism(auto: QsAutomorphism) -> QsAutomorphism:
    return QsAutomorphism(tuple(move.invert() for move in reversed(auto.moves)))


# --- the model on menu positions ---------------------------------------------


class _Offset(NamedTuple):
    """A Translate on value tuples: adds ``offset`` position by position."""

    offset: tuple[Fraction, ...]

    def __call__(self, x: tuple) -> tuple:
        return tuple([a + d if d else a for a, d in zip(x, self.offset)])


class _Ball(NamedTuple):
    """A CoordMap on value tuples: its scale is position ``k``, its center
    the values above it and its shifts the values below it."""

    k: int
    center: tuple[Fraction, ...]
    threshold: Fraction
    value_map: PiecewiseLinearMap
    shifts: tuple[Fraction, ...]

    def __call__(self, x: tuple) -> tuple:
        k = self.k
        if x[:k] != self.center or x[k] <= self.threshold:
            return x
        below = [a + d if d else a for a, d in zip(x[k + 1:], self.shifts)]
        return (*self.center, self.value_map(x[k]), *below)


def _run(moves: Sequence[Callable[[tuple], tuple]], x: tuple) -> tuple:
    for move in moves:
        x = move(x)
    return x


def _first_difference(x: tuple, y: tuple) -> int:
    """The first position where two value tuples differ (the position of
    their distance), or len(x) when they are equal."""
    for k, (a, b) in enumerate(zip(x, y)):
        if a is not b and a != b:
            return k
    return len(x)


class _Frame:
    """The positions of strictly decreasing scales (a menu's, or those an
    operation touches), largest first, and every conversion between value
    tuples there and the public QsPoint and move records.  A value tuple
    holds ``_ZERO`` where the point has no coordinate."""

    def __init__(self, scales: Sequence[Fraction]):
        self.scales = tuple(scales)
        self.position = {s: k for k, s in enumerate(self.scales)}
        self.zero = (_ZERO,) * len(self.scales)

    def _position(self, scale: Fraction) -> int:
        k = self.position.get(scale)
        if k is None:
            raise ValueError(f"coordinate {format_rational(scale)} not in menu")
        return k

    def values(self, point: QsPoint) -> tuple[Fraction, ...]:
        """The point's value tuple; ValueError if its support leaves the menu."""
        values = list(self.zero)
        for s, v in point.coords:
            values[self._position(s)] = v
        return tuple(values)

    def point(self, values: Sequence[Fraction]) -> QsPoint:
        """The point with these values at the first len(values) positions."""
        return QsPoint(tuple((s, v) for s, v in zip(self.scales, values) if v))

    def draw(self, rng: random.Random) -> tuple[int, ...]:
        """``random_point``'s draw as the numerators n of its values
        n/POINT_GRID (0 where it has no coordinate): one rng.random() per
        position and one rng.randint() per position it fills."""
        return tuple([
            rng.randint(-POINT_SPAN, POINT_SPAN) if rng.random() < POINT_DENSITY else 0
            for _ in self.scales
        ])

    def compile(self, move: Move) -> _Offset | _Ball:
        if isinstance(move, Translate):
            return _Offset(self.values(move.offset))
        k = self._position(move.scale)
        return _Ball(
            k, self.values(move.center)[:k], move.threshold, move.value_map,
            self.values(QsPoint(move.shifts))[k + 1:],
        )

    def record(self, move: _Offset | _Ball) -> Move:
        if isinstance(move, _Offset):
            return Translate(self.point(move.offset))
        return CoordMap(
            scale=self.scales[move.k],
            center=self.point(move.center),
            threshold=move.threshold,
            value_map=move.value_map,
            shifts=self.point(self.zero[:move.k + 1] + move.shifts).coords,
        )


def _spanning(point: QsPoint, moves: Sequence[Move]) -> _Frame:
    """The frame of every scale that the point and the moves mention."""
    scales = {s for s, _ in point.coords}
    for move in moves:
        if isinstance(move, Translate):
            scales.update(s for s, _ in move.offset.coords)
        else:
            scales.add(move.scale)
            scales.update(s for s, _ in move.center.coords + move.shifts)
    return _Frame(sorted(scales, reverse=True))


def extend_isometry(
    pairs: Sequence[tuple[QsPoint, QsPoint]], menu: DistanceSet
) -> QsAutomorphism:
    """Extend a finite distance- and order-preserving map to a full
    automorphism.

    The pairs are sorted by source once and validated along that order:
    sources and targets must be strictly increasing, with equal distances
    between neighbours.  The lex order is convex on every finite set, so
    each distance is the largest adjacent step between its two points, and
    this accepts exactly the valid maps with O(n log n) comparisons.  Only
    when it fails does the all-pairs scan run, to name the first bad pair
    (errors cite the positions in the given sequence).  The first sorted
    pair is matched by a translation.  Each later source x, already
    carried to h(x) by the moves so far, is captured by one CoordMap: with
    s the distance from the previous source, h(x) and the wanted target
    agree above s and both sit above all earlier targets at s, so a
    threshold strictly between leaves the earlier targets fixed while a
    stretch at s plus shifts below s move h(x) exactly onto the target.
    The work runs on value tuples; only the moves it returns are records.
    """
    frame = _Frame(menu)
    sources = [frame.values(p) for p, _ in pairs]
    targets = [frame.values(q) for _, q in pairs]
    return QsAutomorphism(tuple(map(frame.record, _extend(sources, targets))))


def _extend(sources: list[tuple], targets: list[tuple]) -> list[_Offset | _Ball]:
    """``extend_isometry`` on value tuples of one frame: the moves, in
    order, or the same UmrError for the same pair."""
    n = len(sources)
    if n == 0:
        return []
    ordered = sorted(zip(sources, targets), key=itemgetter(0))
    xs = [x for x, _ in ordered]
    ys = [y for _, y in ordered]
    steps = []
    for m in range(1, n):
        k = _first_difference(xs[m - 1], xs[m])
        apart = k < len(xs[m]) and _first_difference(ys[m - 1], ys[m]) == k
        if not apart or ys[m - 1][k] >= ys[m][k]:
            _raise_first_bad_pair(sources, targets)
        steps.append(k)

    moves: list[_Offset | _Ball] = []
    if xs[0] != ys[0]:
        moves.append(_Offset(tuple([b - a for a, b in zip(xs[0], ys[0])])))

    for m in range(1, n):
        carried = _run(moves, xs[m])
        wanted = ys[m]
        if carried == wanted:
            continue
        k = steps[m - 1]
        # geometry of the sorted configuration, guaranteed by validation
        assert _first_difference(carried, wanted) >= k
        low = ys[m - 1][k]
        high = min(wanted[k], carried[k])
        assert low < high
        alpha = (low + high) / 2
        moves.append(_Ball(
            k, wanted[:k], alpha, stretch_above(alpha, carried[k], wanted[k]),
            tuple([b - a for a, b in zip(carried[k + 1:], wanted[k + 1:])]),
        ))
    return moves


def _raise_first_bad_pair(sources: list[tuple], targets: list[tuple]) -> NoReturn:
    """Raise for the first pair (i, j), in the given order, that the map
    does not keep apart, at the same distance and in the same order."""
    for i, j in combinations(range(len(sources)), 2):
        k = _first_difference(sources[i], sources[j])
        if k == len(sources[i]):
            raise DuplicatePoint(f"sources {i} and {j} coincide")
        if _first_difference(targets[i], targets[j]) != k:
            raise NotPartialIsometry(i, j)
        if (sources[i] < sources[j]) != (targets[i] < targets[j]):
            raise NotOrderPreserving(i, j)
    raise AssertionError("the sorted check failed on a valid map")


# --- randomized generation and the homogeneity harness ----------------------

POINT_DENSITY = 0.75
POINT_SPAN = 18
POINT_GRID = 6
# n -> n/POINT_GRID for |n| <= POINT_SPAN, one object per value, so that
# equal drawn values compare by identity
_GRID = {n: Fraction(n, POINT_GRID) if n else _ZERO for n in range(-POINT_SPAN, POINT_SPAN + 1)}


def _on_grid(numerators: Sequence[int]) -> tuple[Fraction, ...]:
    """The value tuple of a draw."""
    return tuple([_GRID[n] for n in numerators])


def random_point(menu: DistanceSet, rng: random.Random) -> QsPoint:
    """Random finitely supported point: each coordinate present with
    probability POINT_DENSITY, values n/POINT_GRID for integers n with
    |n| <= POINT_SPAN."""
    frame = _Frame(menu)
    return frame.point(_on_grid(frame.draw(rng)))


def random_automorphism(
    menu: DistanceSet, rng: random.Random, max_moves: int = 3
) -> QsAutomorphism:
    """Random composition of valid primitive moves."""
    slopes = (
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
    )
    frame = _Frame(menu)
    moves: list[Move] = []
    for _ in range(rng.randint(1, max_moves)):
        if rng.random() < 0.5:
            moves.append(Translate(frame.point(_on_grid(frame.draw(rng)))))
            continue
        k = rng.randrange(len(menu))
        alpha = Fraction(rng.randint(-18, 18), 6)
        breakpoints = [alpha]
        for _ in range(rng.randint(0, 2)):
            breakpoints.append(breakpoints[-1] + Fraction(rng.randint(1, 12), 6))
        chosen = tuple(rng.choice(slopes) for _ in breakpoints)
        shift_items = []
        for t in menu[k + 1:]:
            if rng.random() < 0.5:
                delta = Fraction(rng.randint(-12, 12), 6)
                if delta != 0:
                    shift_items.append((t, delta))
        moves.append(
            CoordMap(
                scale=menu[k],
                center=frame.point(_on_grid(frame.draw(rng)[:k])),
                threshold=alpha,
                value_map=PiecewiseLinearMap(tuple(breakpoints), chosen),
                shifts=tuple(shift_items),
            )
        )
    return QsAutomorphism(tuple(moves))


@dataclass(frozen=True)
class HomogeneityReport:
    """``reasons[i]`` says why trial ``failures[i]`` failed: the name of the
    UmrError the extension raised, "image mismatch" (a target missed) or
    "sample mismatch" (a sample pair's distance or order changed)."""

    trials: int
    passes: int
    failures: tuple[int, ...]
    reasons: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def check_homogeneity(
    menu: DistanceSet,
    n: int,
    trials: int,
    seed: int,
    samples: int = 100,
) -> HomogeneityReport:
    """Randomized end-to-end exercise of the extension algorithm.

    Each trial draws n distinct points, pushes them through a random
    automorphism to get an order-isometric image, extends the finite map,
    and then checks that the extension hits every target exactly and
    preserves distance and order on every pair from an independent sample,
    checked along the sample's sorted order with O(s log s) comparisons;
    that is exact because the lex order is convex on every finite set.
    Points, moves and the sample are value tuples throughout, drawn with
    the rng calls of ``random_point``.  Trial i uses seed + i, so trials
    are independent of scheduling.  n may not exceed the
    (2 POINT_SPAN + 1)^len(menu) distinct points that ``random_point``
    can draw.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    limit = (2 * POINT_SPAN + 1) ** len(menu)
    if n > limit:
        raise ValueError(f"n must be at most {limit}, the number of distinct random points")
    frame = _Frame(menu)
    failures, reasons = [], []
    for t in range(trials):
        rng = random.Random(seed + t)
        drawn: dict[tuple[int, ...], None] = {}
        while len(drawn) < n:
            drawn[frame.draw(rng)] = None
        points = list(map(_on_grid, drawn))
        scrambler = [frame.compile(move) for move in random_automorphism(menu, rng).moves]
        images = [_run(scrambler, p) for p in points]
        try:
            moves = _extend(points, images)
        except UmrError as exc:
            reason = type(exc).__name__
        else:
            if any(_run(moves, p) != q for p, q in zip(points, images)):
                reason = "image mismatch"
            else:
                # numerators sort as their values do, so the check's own
                # sort meets the sample in order
                sample = sorted([frame.draw(rng) for _ in range(samples)])
                if _preserves_sample(partial(_run, moves), list(map(_on_grid, sample))):
                    continue
                reason = "sample mismatch"
        failures.append(t)
        reasons.append(reason)
    return HomogeneityReport(trials, trials - len(failures), tuple(failures), tuple(reasons))


def _preserves_sample(image: Callable[[tuple], tuple], sample: Sequence[tuple]) -> bool:
    """Whether ``image`` preserves distance and order on every pair of a
    sample of value tuples."""
    # Lex order is convex on every finite set, so each distance is the
    # largest adjacent step between its two points, in both sorted lists.
    ordered = sorted(sample)
    points = ordered[:1] + [y for x, y in zip(ordered, ordered[1:]) if x != y]
    images = [image(p) for p in points]
    for x, y, a, b in zip(points, points[1:], images, images[1:]):
        k = _first_difference(a, b)
        if k != _first_difference(x, y) or a[k] >= b[k]:
            return False
    return True


# --- text formats ------------------------------------------------------------
#
#   menu v1                qpoint v1
#   1                      1 2
#   1/2                    1/2 -3/4

def format_menu(menu: DistanceSet) -> str:
    return "\n".join(["menu v1"] + [format_rational(v) for v in menu]) + "\n"


def parse_menu(text: str) -> DistanceSet:
    lines = body_lines(text, "menu v1")
    if not lines:
        raise FormatError("menu must list at least one distance")
    try:
        return DistanceSet(tuple(parse_rational(tok) for tok in lines))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_qpoint(point: QsPoint) -> str:
    lines = ["qpoint v1"]
    for s, v in point.coords:
        lines.append(f"{format_rational(s)} {format_rational(v)}")
    return "\n".join(lines) + "\n"


def _read_coords(pairs, menu: DistanceSet) -> tuple[tuple[Fraction, Fraction], ...]:
    """Coordinates from (scale, value) token pairs in any order, each scale
    once and on the menu; zero values are dropped, the rest come out in
    menu order."""
    position = _Frame(menu).position
    coords: list[tuple[Fraction, Fraction] | None] = [None] * len(menu)
    for scale, value in pairs:
        s = parse_rational(scale)
        k = position.get(s)
        if k is None:
            _check_scales(((s, None),))  # the scale rule speaks before the menu
            raise FormatError(f"coordinate {scale} not in menu")
        if coords[k] is not None:
            raise FormatError(f"repeated coordinate {scale}")
        coords[k] = (s, parse_rational(value))
    return tuple(c for c in coords if c is not None and c[1])


def _line_pair(line: str) -> list[str]:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"bad coordinate line {line!r}")
    return parts


def parse_qpoint(text: str, menu: DistanceSet) -> QsPoint:
    lines = body_lines(text, "qpoint v1")
    try:
        return QsPoint(_read_coords(map(_line_pair, lines), menu))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _chunk_pairs(token: str, none: str, kind: str):
    """The ``a:b`` chunks of a comma-separated token, each split in two;
    the token ``none`` has no chunks."""
    if token == none:
        return
    for chunk in token.split(","):
        if ":" not in chunk:
            raise FormatError(f"bad {kind} chunk {chunk!r}")
        yield chunk.split(":", 1)


def _parse_inline_point(token: str, menu: DistanceSet) -> QsPoint:
    return QsPoint(_read_coords(_chunk_pairs(token, "0", "point"), menu))


def _inline_pairs(pairs: tuple[tuple[Fraction, Fraction], ...], none: str = "-") -> str:
    if not pairs:
        return none
    return ",".join(
        f"{format_rational(a)}:{format_rational(b)}" for a, b in pairs
    )


def _parse_inline_pairs(token: str) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(
        (parse_rational(a), parse_rational(b)) for a, b in _chunk_pairs(token, "-", "pair")
    )


def format_automorphism(auto: QsAutomorphism) -> str:
    lines = []
    for move in auto.moves:
        if isinstance(move, Translate):
            lines.append(f"translate {_inline_pairs(move.offset.coords, '0')}")
        else:
            phi = _inline_pairs(
                tuple(zip(move.value_map.breakpoints, move.value_map.slopes))
            )
            lines.append(
                f"coordmap s={format_rational(move.scale)}"
                f" center={_inline_pairs(move.center.coords, '0')}"
                f" alpha={format_rational(move.threshold)}"
                f" phi={phi}"
                f" shifts={_inline_pairs(move.shifts)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_automorphism(text: str, menu: DistanceSet) -> QsAutomorphism:
    frame = _Frame(menu)
    moves: list[Move] = []
    for line in (ln.strip() for ln in text.splitlines()):
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "translate" and len(parts) == 2:
                moves.append(Translate(_parse_inline_point(parts[1], menu)))
                continue
            if parts[0] != "coordmap":
                raise FormatError(f"unknown move {line!r}")
            fields = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise FormatError(f"bad field {part!r}")
                key, value = part.split("=", 1)
                fields[key] = value
            pl_pairs = _parse_inline_pairs(fields["phi"])
            scale = parse_rational(fields["s"])
            frame._position(scale)  # an off-menu scale raises as a point's does
            moves.append(
                CoordMap(
                    scale=scale,
                    center=_parse_inline_point(fields["center"], menu),
                    threshold=parse_rational(fields["alpha"]),
                    value_map=PiecewiseLinearMap(
                        tuple(a for a, _ in pl_pairs),
                        tuple(b for _, b in pl_pairs),
                    ),
                    shifts=_read_coords(_chunk_pairs(fields["shifts"], "-", "pair"), menu),
                )
            )
        except KeyError as exc:
            raise FormatError(f"missing coordmap field {exc}") from exc
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return QsAutomorphism(tuple(moves))
