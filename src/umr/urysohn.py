"""Executable model of the countable homogeneous ultrametric space over a
finite distance menu.

Points are finitely supported rational functions on the menu; the
distance of two points is the largest coordinate where they differ, and
the lex order compares their values there.  Automorphisms are move lists:
a ``Translate`` adds a point, and a ``CoordMap`` remaps, inside one ball
and above a threshold, the value at one scale by a piecewise-linear
bijection and shifts the values below it.  ``extend_isometry`` grows any
finite order-preserving isometry into such a list.

The arithmetic runs on integers.  A value tuple holds a point's values at
the positions of a ``_Frame``, largest scale first, as numerators over one
grid G (n stands for n/G), so the lex order is tuple order and a distance
is the first position where two tuples differ.  Each compiled move has an
integer factor L and maps grid G to grid G*L, every position scaled alike:
it lifts its input by the least L1 that makes its own data integers and
gates there, and a ball then applies each slope p/q as the integer p*Q/q,
with Q the lcm of its slope denominators, so L = L1*Q.  The grid grows by
one factor per move; an extension ball, whose threshold is the midpoint of
two grid values, has L = q or 2q for its slope p/q.  Qpoint texts are read
straight into value tuples: each value token into integer terms, the points
then onto one grid, the lcm of their denominators (``_read_qpoints``).
``QsPoint`` and the move records, over ``Fraction``, are built only by
``_Frame.point`` and ``_Frame.record`` and by the qpoint and move parsers.
Each call that takes a menu builds its own ``_Frame`` of it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations, compress, count, repeat
from math import gcd, lcm, prod
from operator import add, itemgetter, mul, ne
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

from .errors import (
    DuplicatePoint, FormatError, NotOrderPreserving, NotPartialIsometry, UmrError,
)
from .rational import as_fraction, body_lines, format_rational, parse_rational, rational_terms
from .spaces import DistanceSet

_ZERO = Fraction(0)

LESS, EQUAL, GREATER = -1, 0, 1


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
        if not all(v for _, v in self.coords):
            raise ValueError("zero values must be dropped")

    @classmethod
    def _of(cls, coords: tuple[tuple[Fraction, Fraction], ...]) -> "QsPoint":
        """A point of coordinates known to keep the rules (scales from a
        frame that keeps the scale rule, in its order; no zero values),
        built without checking them again."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

    def value_at(self, scale: Fraction) -> Fraction:
        return dict(self.coords).get(scale, _ZERO)

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
    coords = ((as_fraction(s), as_fraction(v)) for s, v in pairs if v != 0)
    return QsPoint(tuple(sorted(coords, key=itemgetter(0), reverse=True)))


def _split(x: QsPoint, y: QsPoint, menu: DistanceSet | None):
    """The largest scale where x and y differ (past the common prefix of
    their coordinates, the larger next scale) and their values there, or
    (0, 0, 0); with a menu, x's scales and then y's must lie on it."""
    if menu is not None:
        position = _Frame(menu)._position
        for s, _ in x.coords + y.coords:
            position(s)
    a, b, i = x.coords, y.coords, 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    s, v = a[i] if i < len(a) else (_ZERO, _ZERO)
    t, w = b[i] if i < len(b) else (_ZERO, _ZERO)
    return (s, v, w) if s == t else (s, v, _ZERO) if s > t else (t, _ZERO, w)


def qs_distance(x: QsPoint, y: QsPoint, menu: DistanceSet | None = None) -> Fraction:
    """0 for equal points, otherwise the largest coordinate where they
    differ."""
    return _split(x, y, menu)[0]


def qs_lex_compare(x: QsPoint, y: QsPoint, menu: DistanceSet | None = None) -> int:
    """LESS/EQUAL/GREATER by the values at the largest differing
    coordinate, as numerators over the product of their denominators."""
    _, v, w = _split(x, y, menu)
    a, b = v.numerator * w.denominator, w.numerator * v.denominator
    return (a > b) - (a < b)


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Strictly increasing piecewise-linear bijection of the rationals onto
    themselves: the identity up to the first breakpoint, then the given
    slope on each successive segment (the last slope extends to infinity)."""

    breakpoints: tuple[Fraction, ...] = ()
    slopes: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if len(self.breakpoints) != len(self.slopes):
            raise ValueError("one slope per breakpoint")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if a >= b:
                raise ValueError("breakpoints must be strictly increasing")
        for m in self.slopes:
            if m <= 0:
                raise ValueError("slopes must be positive")

    @cached_property
    def _anchors(self) -> tuple[Fraction, ...]:  # the image of each breakpoint
        b, m, anchors = self.breakpoints, self.slopes, list(self.breakpoints[:1])
        for i in range(1, len(b)):
            anchors.append(anchors[-1] + m[i - 1] * (b[i] - b[i - 1]))
        return tuple(anchors)

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
    return PiecewiseLinearMap((alpha, source), ((image - alpha) / (source - alpha), Fraction(1)))


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
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if center and center[-1][0] <= self.scale:
            raise ValueError("center must live strictly above the scale")
        _check_scales(shifts)
        if shifts and shifts[0][0] >= self.scale:
            raise ValueError("shifts must live strictly below the scale")
        if not all(delta for _, delta in shifts):
            raise ValueError("zero shifts must be dropped")
        if self.value_map.breakpoints and self.value_map.breakpoints[0] < self.threshold:
            raise ValueError("value map must be the identity up to the threshold")

    def apply(self, point: QsPoint) -> QsPoint:
        return QsAutomorphism((self,))(point)

    def invert(self) -> "CoordMap":
        shifts = tuple((t, -delta) for t, delta in self.shifts)
        return replace(self, value_map=self.value_map.inverse(), shifts=shifts)


Move = Translate | CoordMap


@dataclass(frozen=True)
class QsAutomorphism:
    moves: tuple[Move, ...] = ()

    def __call__(self, point: QsPoint) -> QsPoint:
        frame, grid = _spanning(point, self.moves), _grid((point,))
        compiled, out = frame.compile(self.moves, grid)
        return frame.point(_run(compiled, frame.values(point, grid)), out)


IDENTITY = QsAutomorphism()


def invert_automorphism(auto: QsAutomorphism) -> QsAutomorphism:
    return QsAutomorphism(tuple(move.invert() for move in reversed(auto.moves)))


# --- the model on integer numerators -----------------------------------------


class _Offset(NamedTuple):
    """A Translate on value tuples: scales every position by ``factor`` and
    adds ``offset``, numerators on the output grid."""

    factor: int
    offset: tuple[int, ...]

    def __call__(self, x: tuple) -> tuple:
        # (*map(..),) allocates the tuple at its size; tuple(map(..)) shrinks a
        # 10-slot guess, so its tuples pile up in their size's free list once freed
        return (*map(add, map(mul, x, repeat(self.factor)), self.offset),)


class _Ball(NamedTuple):
    """A CoordMap on value tuples at position ``k``: ``gate`` is its center on
    the input grid (None if off it: no point is in the ball), its threshold
    and breakpoints are on that grid times ``lift``, and ``rates`` (the
    slopes), ``anchors`` (the breakpoints' images), ``head`` (the center)
    and ``shifts`` are on the output grid, the input's times ``factor``."""

    k: int
    lift: int
    factor: int
    gate: tuple[int, ...] | None
    threshold: int
    breakpoints: tuple[int, ...]
    rates: tuple[int, ...]
    anchors: tuple[int, ...]
    head: tuple[int, ...]
    shifts: tuple[int, ...]

    def __call__(self, x: tuple) -> tuple:
        k, f, v = self.k, self.factor, x[self.k] * self.lift
        if x[:k] != self.gate or v <= self.threshold:
            return x if f == 1 else (*map(mul, x, repeat(f)),)
        i = bisect_right(self.breakpoints, v) - 1
        if i < 0:
            v = v * f // self.lift
        else:
            v = self.anchors[i] + self.rates[i] * (v - self.breakpoints[i])
        return (*self.head, v, *map(add, map(mul, x[k + 1:], repeat(f)), self.shifts))


def _ball(k: int, lift: int, center, threshold: int, breakpoints, slopes, shifts) -> _Ball:
    """The ball at k with center, threshold, breakpoints and shifts on its
    input grid times ``lift``, and slopes as (p, q) in lowest terms."""
    spread = lcm(*(q for _, q in slopes))
    rates = tuple([p * (spread // q) for p, q in slopes])
    anchors = [b * spread for b in breakpoints[:1]]
    for i in range(1, len(breakpoints)):
        anchors.append(anchors[-1] + rates[i - 1] * (breakpoints[i] - breakpoints[i - 1]))
    gate = None if any(c % lift for c in center) else tuple([c // lift for c in center])
    return _Ball(
        k, lift, lift * spread, gate, threshold, tuple(breakpoints), rates, tuple(anchors),
        tuple([c * spread for c in center]), tuple([d * spread for d in shifts]),
    )


def _scaling(factor: int, zero: tuple[int, ...]) -> list[_Offset]:
    """The moves that put value tuples on a grid ``factor`` times finer:
    none when it is the same grid."""
    return [] if factor == 1 else [_Offset(factor, zero)]


def _run(moves: Sequence[Callable[[tuple], tuple]], x: tuple) -> tuple:
    for move in moves:
        x = move(x)
    return x


def _fused(moves: Sequence[Callable[[tuple], tuple]]) -> list[Callable[[tuple], tuple]]:
    """The moves with each run of adjacent offsets composed exactly into
    one: x*f1 + d1, then that times f2 plus d2, is x*(f1*f2) + (d1*f2 + d2)."""
    fused: list = []
    for move in moves:
        if fused and isinstance(move, _Offset) and isinstance(fused[-1], _Offset):
            fused[-1] = _Offset(fused[-1].factor * move.factor, move(fused[-1].offset))
        else:
            fused.append(move)
    return fused


def _first_difference(x: tuple, y: tuple) -> int:
    """The first position where two value tuples differ (the position of
    their distance), or len(x) when they are equal."""
    return next(compress(count(), map(ne, x, y)), len(x))


def _grid(points) -> int:
    """The least grid on which every value of the points is a numerator."""
    return lcm(*(v.denominator for p in points for _, v in p.coords))


class _Frame:
    """The positions of strictly decreasing scales, largest first, and the
    conversions between records and value tuples there: numerators over a
    grid the caller keeps, 0 where a point has no coordinate.  The lookups
    are built on first use: the harness, which only draws, reads no scale.
    Its scales, a menu's or those of points and moves checked when built,
    are positive, so its points are built unchecked (``QsPoint._of``)."""

    def __init__(self, scales: Sequence[Fraction]):
        self.scales = tuple(scales)
        self.zero = (0,) * len(self.scales)

    @cached_property
    def position(self) -> dict[tuple[int, int], int]:  # by (numerator, denominator)
        return {(s.numerator, s.denominator): k for k, s in enumerate(self.scales)}

    @cached_property
    def tokens(self) -> dict[str, int]:  # by each scale's canonical spelling
        return {format_rational(s): k for k, s in enumerate(self.scales)}

    def _position(self, scale: Fraction) -> int:
        k = self.position.get((scale.numerator, scale.denominator))
        if k is None:
            raise ValueError(f"coordinate {format_rational(scale)} not in menu")
        return k

    def values(self, point: QsPoint, grid: int) -> tuple[int, ...]:
        """The point over a grid its denominators divide; ValueError off the frame."""
        values = list(self.zero)
        for s, v in point.coords:
            values[self._position(s)] = v.numerator * (grid // v.denominator)
        return tuple(values)

    def point(self, values: Sequence[int], grid: int) -> QsPoint:
        """The point with values n/grid at the first len(values) positions."""
        return QsPoint._of(tuple((s, Fraction(n, grid)) for s, n in zip(self.scales, values) if n))

    def draw(self, rng: random.Random) -> tuple[int, ...]:
        return self.draws(rng, 1)[0]

    def draws(self, rng: random.Random, count: int) -> list[tuple[int, ...]]:
        """``count`` of ``random_point``'s draws over POINT_GRID, in one
        loop: one rng.random() per position and, per position it fills, the
        rng's bits read exactly as ``rng.randint(-POINT_SPAN, POINT_SPAN)``
        reads them, so the draws and the rng's state are randint's."""
        random_, bits, width = rng.random, rng.getrandbits, len(self.scales)
        values = []
        for _ in range(count * width):
            if random_() < POINT_DENSITY:
                r = bits(_DRAW_BITS)
                while r >= _DRAW_WIDTH:
                    r = bits(_DRAW_BITS)
                values.append(r - POINT_SPAN)
            else:
                values.append(0)
        return list(zip(*[iter(values)] * width)) if width else [()] * count

    def scramble(self, rng: random.Random, max_moves: int = 3) -> list[_Offset | _Ball]:
        """``random_automorphism``'s moves on tuples over POINT_GRID, with
        its rng calls; drawn data are scaled onto the running grid."""
        moves, grow = [], 1
        for _ in range(rng.randint(1, max_moves)):
            if rng.random() < 0.5:
                moves.append(_Offset(1, tuple([a * grow for a in self.draw(rng)])))
                continue
            k = rng.randrange(len(self.scales))
            breakpoints = [rng.randint(-POINT_SPAN, POINT_SPAN) * grow]
            for _ in range(rng.randint(0, 2)):
                breakpoints.append(breakpoints[-1] + rng.randint(1, 12) * grow)
            slopes = [rng.choice(_SLOPES) for _ in breakpoints]
            below = range(k + 1, len(self.scales))
            shifts = [rng.randint(-12, 12) * grow if rng.random() < 0.5 else 0 for _ in below]
            center = [a * grow for a in self.draw(rng)[:k]]
            moves.append(_ball(k, 1, center, breakpoints[0], breakpoints, slopes, shifts))
            grow *= moves[-1].factor
        return moves

    def compile(self, moves: Sequence[Move], grid: int) -> tuple[list[_Offset | _Ball], int]:
        """The moves on value tuples over ``grid``, and their output grid."""
        compiled: list[_Offset | _Ball] = []
        for move in moves:
            if isinstance(move, Translate):
                lifted = lcm(grid, _grid((move.offset,)))
                compiled.append(_Offset(lifted // grid, self.values(move.offset, lifted)))
            else:
                k, shifts = self._position(move.scale), QsPoint(move.shifts)
                numbers = (move.threshold, *move.value_map.breakpoints)
                lifted = lcm(grid, _grid((move.center, shifts)), *(v.denominator for v in numbers))
                threshold, *breakpoints = [v.numerator * (lifted // v.denominator) for v in numbers]
                compiled.append(_ball(
                    k, lifted // grid, self.values(move.center, lifted)[:k], threshold, breakpoints,
                    [(m.numerator, m.denominator) for m in move.value_map.slopes],
                    self.values(shifts, lifted)[k + 1:],
                ))
            grid *= compiled[-1].factor
        return compiled, grid

    def record(self, moves: Sequence[_Offset | _Ball], grid: int) -> tuple[Move, ...]:
        """The public records of moves that run on tuples over ``grid``."""
        records: list[Move] = []
        for move in moves:
            out = grid * move.factor
            if isinstance(move, _Offset):
                records.append(Translate(self.point(move.offset, out)))
            else:
                lifted, spread = grid * move.lift, move.factor // move.lift
                records.append(CoordMap(
                    scale=self.scales[move.k],
                    center=self.point(move.head, out),
                    threshold=Fraction(move.threshold, lifted),
                    value_map=PiecewiseLinearMap(
                        tuple([Fraction(b, lifted) for b in move.breakpoints]),
                        tuple([Fraction(r, spread) for r in move.rates]),
                    ),
                    shifts=self.point(self.zero[:move.k + 1] + move.shifts, out).coords,
                ))
            grid = out
        return tuple(records)


def _spanning(point: QsPoint, moves: Sequence[Move]) -> _Frame:
    """The frame of every scale that the point and the moves mention."""
    coords = list(point.coords)
    for m in moves:
        if isinstance(m, Translate):
            coords += m.offset.coords
        else:
            coords += ((m.scale, None), *m.center.coords, *m.shifts)
    scales = {(s.numerator, s.denominator): s for s, _ in coords}
    return _Frame(sorted(scales.values(), reverse=True))


def extend_isometry(pairs: Sequence[tuple[QsPoint, QsPoint]], menu: DistanceSet) -> QsAutomorphism:
    """Extend a finite distance- and order-preserving map to a full
    ``QsAutomorphism``, on value tuples over the pairs' least common grid.

    The pairs are validated along their sorted order (sources and targets
    increasing, equal neighbour distances), which is exact as the lex
    order is convex; only on failure does the all-pairs scan name the first
    bad pair by input positions.  A translation matches the first pair.
    Each later source x, carried to h(x), is captured by one CoordMap at
    the distance s from the previous source: h(x) and its target agree
    above s and lie above the earlier targets at s, so a threshold between
    fixes those, and a stretch at s and shifts below s finish the move.
    """
    frame, grid = _Frame(menu), _grid(p for pair in pairs for p in pair)
    sources = [frame.values(p, grid) for p, _ in pairs]
    targets = [frame.values(q, grid) for _, q in pairs]
    return QsAutomorphism(frame.record(_extend(sources, targets), grid))


def _extend(sources: list[tuple], targets: list[tuple]) -> list[_Offset | _Ball]:
    """``extend_isometry`` on value tuples over one grid: the moves, in
    order, or the same UmrError for the same pair."""
    if not sources:
        return []
    xs, ys = zip(*sorted(zip(sources, targets), key=itemgetter(0)))
    steps = []
    for m in range(1, len(xs)):
        k = _first_difference(xs[m - 1], xs[m])
        apart = k < len(xs[m]) and _first_difference(ys[m - 1], ys[m]) == k
        if not apart or ys[m - 1][k] >= ys[m][k]:
            _raise_first_bad_pair(sources, targets)
        steps.append(k)

    moves: list[_Offset | _Ball] = []
    if xs[0] != ys[0]:
        moves.append(_Offset(1, tuple([b - a for a, b in zip(xs[0], ys[0])])))
    grow = 1  # the moves' factor so far: carried points lie on grid * grow
    for m in range(1, len(xs)):
        carried = _run(moves, xs[m])
        wanted = tuple([b * grow for b in ys[m]])
        if carried == wanted:
            continue
        k = steps[m - 1]
        # geometry of the sorted configuration, guaranteed by validation
        assert _first_difference(carried, wanted) >= k
        low, high = ys[m - 1][k] * grow, min(wanted[k], carried[k])
        assert low < high
        # the threshold is the midpoint, a grid value once the grid is doubled
        lift = 1 + (low + high) % 2
        alpha, source, image = (low + high) * lift // 2, carried[k] * lift, wanted[k] * lift
        # stretch_above's map, in one segment when source == image
        d = gcd(image - alpha, source - alpha)
        stretch = [(alpha, ((image - alpha) // d, (source - alpha) // d)), (source, (1, 1))]
        breakpoints, slopes = zip(*stretch[:1 + (source != image)])
        moves.append(_ball(
            k, lift, [c * lift for c in wanted[:k]], alpha, breakpoints, slopes,
            [(b - a) * lift for a, b in zip(carried[k + 1:], wanted[k + 1:])],
        ))
        grow *= moves[-1].factor
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
# randint(-POINT_SPAN, POINT_SPAN) draws getrandbits(_DRAW_BITS) until it is
# below _DRAW_WIDTH, and adds -POINT_SPAN
_DRAW_WIDTH = 2 * POINT_SPAN + 1
_DRAW_BITS = _DRAW_WIDTH.bit_length()
POINT_GRID = 6
# the slopes p/q that random_automorphism draws, as (p, q)
_SLOPES = ((1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (3, 1))


def random_point(menu: DistanceSet, rng: random.Random) -> QsPoint:
    """Random point: each coordinate present with probability POINT_DENSITY,
    values n/POINT_GRID for integers n with |n| <= POINT_SPAN, each n read
    from the rng's bits exactly as ``rng.randint`` reads it (``_Frame.draws``)."""
    frame = _Frame(menu)
    return frame.point(frame.draw(rng), POINT_GRID)


def random_automorphism(menu: DistanceSet, rng: random.Random, max_moves: int = 3) -> QsAutomorphism:
    """A random ``QsAutomorphism`` of valid moves (``_Frame.scramble``)."""
    frame = _Frame(menu)
    return QsAutomorphism(frame.record(frame.scramble(rng, max_moves), POINT_GRID))


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
    menu: DistanceSet, n: int, trials: int, seed: int, samples: int = 100
) -> HomogeneityReport:
    """Randomized end-to-end exercise of the extension algorithm.

    Each trial draws n distinct points, maps them by a random automorphism,
    extends that finite map, and checks that the extension hits every
    target and keeps distance and order on every pair of an independent
    sample (along its sorted order, exact as the lex order is convex),
    mapped one move at a time with adjacent offsets composed exactly.
    Everything is a value tuple, drawn over POINT_GRID with the rng calls
    of ``random_point`` and ``random_automorphism``; a drawn value reads
    the rng's bits exactly as ``randint`` does.  Trial i uses seed + i.
    n may not exceed the (2 POINT_SPAN + 1)^len(menu) drawable points.
    """
    for name, count in (("n", n), ("trials", trials)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    limit = _DRAW_WIDTH ** len(menu)
    if n > limit:
        raise ValueError(f"n must be at most {limit}, the number of distinct random points")
    frame = _Frame(menu)
    failures, reasons = [], []
    for t in range(trials):
        rng = random.Random(seed + t)
        drawn: dict[tuple[int, ...], None] = {}
        while len(drawn) < n:
            drawn[frame.draw(rng)] = None
        scrambler = frame.scramble(rng)
        # the points lifted onto their images' grid
        lift = _scaling(prod(move.factor for move in scrambler), frame.zero)
        points, images = [_run(lift, p) for p in drawn], [_run(scrambler, p) for p in drawn]
        try:
            moves = _extend(points, images)
        except UmrError as exc:
            reason = type(exc).__name__
        else:
            out = _scaling(prod(move.factor for move in moves), frame.zero)
            if any(_run(moves, p) != _run(out, q) for p, q in zip(points, images)):
                reason = "image mismatch"
            else:
                # numerators sort as their values do, so the check's own
                # sort meets the sample in order
                if _preserves_sample([*lift, *moves], sorted(frame.draws(rng, samples))):
                    continue
                reason = "sample mismatch"
        failures.append(t)
        reasons.append(reason)
    return HomogeneityReport(trials, trials - len(failures), tuple(failures), tuple(reasons))


def _preserves_sample(moves: Sequence[Callable[[tuple], tuple]], sample: Sequence[tuple]) -> bool:
    """Whether the moves, run in order, preserve distance and order on
    every pair of a sample of value tuples.  The distinct points are mapped
    one move at a time, with adjacent offsets composed exactly (``_fused``)."""
    # Lex order is convex on every finite set, so each distance is the
    # largest adjacent step between its two points, in both sorted lists;
    # images a, b keep the step x < y at k iff a[:k] == b[:k] and a[k] < b[k].
    ordered = sorted(sample)
    points = ordered[:1] + [y for x, y in zip(ordered, ordered[1:]) if x != y]
    images = points
    for move in _fused(moves):
        images = list(map(move, images))
    for k, a, b in zip(map(_first_difference, points, points[1:]), images, images[1:]):
        if a[:k] != b[:k] or a[k] >= b[k]:
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
    lines = [f"{format_rational(s)} {format_rational(v)}" for s, v in point.coords]
    return "\n".join(["qpoint v1", *lines]) + "\n"


def _read_terms(pairs, frame: _Frame, values: dict | None = None) -> list[tuple[int, int]]:
    """A point's value at each frame position as (numerator, denominator)
    in lowest terms, (0, 1) where it has none, from (scale, value) token
    pairs in any order, each scale once and on the frame; a scale is read
    only when not in its canonical spelling, and a value token only when
    not yet in ``values`` (token -> terms), which keeps what it reads."""
    if values is None:
        values = {}
    terms: list = [None] * len(frame.scales)
    for scale, value in pairs:
        k = frame.tokens.get(scale)
        if k is None:
            s = rational_terms(scale)
            k = frame.position.get(s)
            if s[0] <= 0:  # the scale rule speaks before the menu
                raise FormatError("scales must be positive")
            if k is None:
                raise FormatError(f"coordinate {scale} not in menu")
        if terms[k] is not None:
            raise FormatError(f"repeated coordinate {scale}")
        t = values.get(value)
        if t is None:
            t = values[value] = rational_terms(value)
        terms[k] = t
    return [t or (0, 1) for t in terms]


def _terms_point(terms: list[tuple[int, int]], frame: _Frame) -> QsPoint:
    return QsPoint._of(tuple([(s, Fraction(p, q)) for s, (p, q) in zip(frame.scales, terms) if p]))


def _line_pair(line: str) -> list[str]:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"bad coordinate line {line!r}")
    return parts


def _read_qpoints(texts: Iterable[str], menu: DistanceSet) -> tuple[_Frame, list[tuple], int]:
    """The menu's frame, the points of qpoint texts, each read as it is
    drawn (so its errors come before a later text is drawn), as value
    tuples over their least common grid, and that grid.  Each distinct
    value token is read once per call: the texts share one token table."""
    frame = _Frame(menu)
    values: dict[str, tuple[int, int]] = {}
    read = [
        _read_terms(map(_line_pair, body_lines(text, "qpoint v1")), frame, values)
        for text in texts
    ]
    grid = lcm(*(q for terms in read for _, q in terms))
    return frame, [tuple([p * (grid // q) for p, q in terms]) for terms in read], grid


def parse_qpoint(text: str, menu: DistanceSet) -> QsPoint:
    frame = _Frame(menu)
    return _terms_point(_read_terms(map(_line_pair, body_lines(text, "qpoint v1")), frame), frame)


def _chunk_pairs(token: str, none: str, kind: str):
    """The ``a:b`` chunks of a comma-separated token, each split in two;
    the token ``none`` has no chunks."""
    if token == none:
        return
    for chunk in token.split(","):
        if ":" not in chunk:
            raise FormatError(f"bad {kind} chunk {chunk!r}")
        yield chunk.split(":", 1)


def _parse_inline_point(token: str, frame: _Frame, none="0", kind="point") -> QsPoint:
    return _terms_point(_read_terms(_chunk_pairs(token, none, kind), frame), frame)


def _inline_pairs(pairs: tuple[tuple[Fraction, Fraction], ...], none: str = "-") -> str:
    if not pairs:
        return none
    return ",".join(f"{format_rational(a)}:{format_rational(b)}" for a, b in pairs)


def format_automorphism(auto: QsAutomorphism) -> str:
    lines = []
    for move in auto.moves:
        if isinstance(move, Translate):
            lines.append(f"translate {_inline_pairs(move.offset.coords, '0')}")
        else:
            phi = _inline_pairs(tuple(zip(move.value_map.breakpoints, move.value_map.slopes)))
            lines.append(
                f"coordmap s={format_rational(move.scale)}"
                f" center={_inline_pairs(move.center.coords, '0')}"
                f" alpha={format_rational(move.threshold)} phi={phi}"
                f" shifts={_inline_pairs(move.shifts)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_automorphism(text: str, menu: DistanceSet) -> QsAutomorphism:
    frame = _Frame(menu)
    moves: list[Move] = []
    for line in filter(None, (ln.strip() for ln in text.splitlines())):
        parts = line.split()
        try:
            if parts[0] == "translate" and len(parts) == 2:
                moves.append(Translate(_parse_inline_point(parts[1], frame)))
                continue
            if parts[0] != "coordmap":
                raise FormatError(f"unknown move {line!r}")
            fields = {}
            for key, eq, value in (part.partition("=") for part in parts[1:]):
                if not eq:
                    raise FormatError(f"bad field {key!r}")
                fields[key] = value
            phi = [tuple(map(parse_rational, c)) for c in _chunk_pairs(fields["phi"], "-", "pair")]
            scale = parse_rational(fields["s"])
            frame._position(scale)  # an off-menu scale raises as a point's does
            moves.append(CoordMap(
                scale=scale,
                center=_parse_inline_point(fields["center"], frame),
                threshold=parse_rational(fields["alpha"]),
                value_map=PiecewiseLinearMap(tuple(a for a, _ in phi), tuple(b for _, b in phi)),
                shifts=_parse_inline_point(fields["shifts"], frame, "-", "pair").coords,
            ))
        except KeyError as exc:
            raise FormatError(f"missing coordmap field {exc}") from exc
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return QsAutomorphism(tuple(moves))
