"""Finite ultrametric spaces with exact rational distances.

An ultrametric space satisfies the strong triangle inequality
``d(x,z) <= max(d(x,y), d(y,z))``, which forces the closed balls of any
fixed radius to partition the point set.  A linear order on the points,
a tuple of point indices, is *convex* when every ball is an interval of
it; convex orders are the combinatorial backbone of everything else in
this package.

Point identity is by label.  Two spaces compare equal when they carry the
same label set with the same label-to-label distances, regardless of the
storage order of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import inf
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    AsymmetricMatrix,
    DuplicateLabel,
    EmptySpace,
    FormatError,
    NonzeroDiagonal,
    NonpositiveOffDiagonal,
    UltrametricViolation,
)
from .rational import as_fraction, body_lines, format_rational, parse_rational

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)
_T = TypeVar("_T")


@dataclass(frozen=True)
class DistanceSet:
    """Distinct distances of a space, strictly decreasing, all positive."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        for v in self.values:
            if v <= 0:
                raise ValueError(f"distance {v} is not positive")
        for a, b in zip(self.values, self.values[1:]):
            if a <= b:
                raise ValueError("distances must be strictly decreasing")

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def __contains__(self, value) -> bool:
        return value in self.values


@dataclass(frozen=True, eq=False)
class UltrametricSpace:
    labels: tuple[str, ...]
    dist: Matrix
    # the canonical convex order, from validate_space, tree_to_space or restrict
    _order: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def restrict(self, points: Sequence[int]) -> "UltrametricSpace":
        """Induced subspace on distinct point indices, labels preserved
        (EmptySpace for none, ValueError for a repeated or unknown index).
        The parent's canonical order stays convex on the chosen points; its
        fold, each ball listing its children by first point, is the least."""
        pts = tuple(points)
        if not pts:
            raise EmptySpace()
        place = {p: i for i, p in enumerate(pts)}
        order = [place[p] for p in canonical_convex_order(self) if p in place]
        if len(order) != len(pts):
            raise ValueError("points must be distinct point indices")
        dist = tuple(tuple(self.dist[p][q] for q in pts) for p in pts)
        least = _fold(
            _steps(dist, order), [[p] for p in order],
            lambda _, kids: [p for kid in sorted(kids) for p in kid],
        )
        return UltrametricSpace(tuple(self.labels[p] for p in pts), dist, tuple(least))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UltrametricSpace):
            return NotImplemented
        if sorted(self.labels) != sorted(other.labels):
            return False
        om = {lab: i for i, lab in enumerate(other.labels)}
        n = self.size
        return all(
            self.dist[i][j] == other.dist[om[self.labels[i]]][om[self.labels[j]]]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def __hash__(self) -> int:
        pairs = frozenset(
            (frozenset((self.labels[i], self.labels[j])), self.dist[i][j])
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )
        return hash((frozenset(self.labels), pairs))

    def __repr__(self) -> str:
        return f"UltrametricSpace({list(self.labels)!r}, {self.size} points)"


def validate_space(matrix: Sequence[Sequence], labels: Sequence[str]) -> UltrametricSpace:
    """Check every space invariant and return the validated space.

    Raises the error naming the first witness found, scanning rows and
    unordered pairs in index order: EmptySpace, DuplicateLabel,
    NonzeroDiagonal, AsymmetricMatrix, NonpositiveOffDiagonal, then
    UltrametricViolation(x, y, z) where d(x,y) > max(d(x,z), d(z,y)).
    A float entry raises TypeError, the first one in row order.

    Every check compares integers: each distance is replaced by its rank
    among the distinct values, 0 included, which orders them as the
    values do.  Entries are ranked by object, each distinct one coerced
    once; parse_uspace ranks its tokens instead, and from the rank matrix
    on both run the same checks.  The returned space keeps the
    nearest-unused walk the check took, which is its canonical convex
    order, and holds one Fraction per distinct value.

    Cost: O(n^2) for a valid space, which is checked along the
    nearest-unused walk with O(n) Python steps for path maxima, the rest
    list operations made in C, plus O(k log k) to rank k distinct values;
    an invalid space's witness costs O(n^2) plus O(n) per pair joined by
    a path of shorter steps, O(n^3) in the worst case.
    """
    names = tuple(labels)
    n = len(names)
    if n == 0:
        raise EmptySpace()
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateLabel(name)
        seen.add(name)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and match the label count")
    # each distinct entry object is coerced once, in row order, so the
    # first float raises; equal values held by distinct objects share a rank
    entries = dict(zip(map(id, chain.from_iterable(matrix)), chain.from_iterable(matrix)))
    values, entry_ranks, zero = _ranked([as_fraction(v) for v in entries.values()])
    rank_by_id = dict(zip(entries, entry_ranks))
    ranks = [list(map(rank_by_id.__getitem__, map(id, row))) for row in matrix]
    # the pair scan runs only when some pair may be bad: when a value is
    # negative, an off-diagonal rank is zero's, or the ranks are asymmetric
    scan = bool(zero) or sum(row.count(zero) for row in ranks) != n
    scan = scan or ranks != list(map(list, zip(*ranks)))
    return _validated(names, ranks, values, zero, scan)


def _ranked(exact: list[Fraction]) -> tuple[list[Fraction], list[int], int]:
    """The distinct values among ``exact`` and 0, ascending, the rank of
    each entry of ``exact`` among them, and the rank of 0; equal values are
    found by their lowest terms, since hashing a Fraction is slow."""
    terms = [v.as_integer_ratio() for v in exact]
    values = sorted({(0, 1): _ZERO, **dict(zip(terms, exact))}.values())
    rank_of = {v.as_integer_ratio(): r for r, v in enumerate(values)}
    return values, list(map(rank_of.__getitem__, terms)), rank_of[0, 1]


def _validated(
    names: tuple[str, ...], ranks: list[list[int]], values: list[Fraction], zero: int,
    scan: bool,
) -> UltrametricSpace:
    """The space holding ``values[r]`` where the square rank matrix holds
    r, once every check of validate_space after the label checks passes on
    the ranks (``zero`` is the rank of 0), or the first witness's error.
    The pair scan, for asymmetric and nonpositive pairs, runs only when
    ``scan`` is true: the caller knows that no pair is bad otherwise."""
    n = len(names)
    for i in range(n):
        if ranks[i][i] != zero:
            raise NonzeroDiagonal(names[i])
    if scan:
        for i in range(n):
            row = ranks[i]
            for j in range(i + 1, n):
                if row[j] != ranks[j][i]:
                    raise AsymmetricMatrix(names[i], names[j])
                if row[j] <= zero:
                    raise NonpositiveOffDiagonal(names[i], names[j])
    # The matrix is ultrametric iff path maxima hold along the nearest-unused
    # walk: an unfinished ball holds the last point placed, which a nearest
    # unused point never leaves early, so an ultrametric walk is convex; and
    # path maxima at a < b < c give d(a, c) = max(d(a, b), d(b, c)).
    walk = _walk(ranks)
    if _path_maxima(ranks, walk):
        dist = tuple(tuple(map(values.__getitem__, row)) for row in ranks)
        return UltrametricSpace(names, dist, walk)
    raise UltrametricViolation(*(names[k] for k in _first_witness(ranks)))


def _first_witness(ranks: list[list[int]]) -> tuple[int, int, int]:
    """The first (i, j, z), pairs i < j in index order and then z
    ascending, with d(i,j) > max(d(i,z), d(z,j)), for a symmetric
    positive rank matrix known to have one; z = i and z = j give
    max = d(i,j) and so never witness.  A witness makes i, z, j a path
    whose steps all lie below d(i,j), so only the pairs whose minimax
    distance is below their own are scanned."""
    n = len(ranks)
    minimax = _minimax(ranks)
    return next(
        (i, j, z)
        for i, row in enumerate(ranks)
        for j in range(i + 1, n)
        if minimax[i][j] < row[j] and min(map(max, row, ranks[j])) < row[j]
        for z in range(n)
        if max(row[z], ranks[j][z]) < row[j]
    )


def _minimax(ranks: list[list[int]]) -> list[list[int]]:
    """For every pair, the least over the paths between them of the
    largest step, in O(n^2): it is the largest step on the path through a
    minimum spanning tree, grown here by Prim's rule, so a point joined by
    a step w to tree point p lies max(minimax(p, x), w) from each tree
    point x."""
    n = len(ranks)
    minimax = [[0] * n for _ in range(n)]
    near, link = list(ranks[0]), [0] * n
    tree, rest = [0], list(range(1, n))
    while rest:
        v = min(rest, key=near.__getitem__)
        rest.remove(v)
        step, via = near[v], minimax[link[v]]
        for x in tree:
            minimax[v][x] = minimax[x][v] = max(via[x], step)
        tree.append(v)
        row = ranks[v]
        for x in rest:
            if row[x] < near[x]:
                near[x], link[x] = row[x], v
    return minimax


def space_from_distances(labels: Sequence[str], pairs: dict) -> UltrametricSpace:
    """Build and validate a space from ``{(a, b): distance}`` label pairs."""
    names = tuple(labels)
    index = {lab: i for i, lab in enumerate(names)}
    n = len(names)
    rows = [[_ZERO] * n for _ in range(n)]
    for (a, b), value in pairs.items():
        v = as_fraction(value)
        rows[index[a]][index[b]] = v
        rows[index[b]][index[a]] = v
    return validate_space(rows, names)


def distance_set(space: UltrametricSpace) -> DistanceSet:
    """Distinct off-diagonal distances, largest first: the steps of a convex order."""
    steps = _steps(space.dist, canonical_convex_order(space))
    return DistanceSet(tuple(sorted(set(steps), reverse=True)))


def ball_partition(space: UltrametricSpace, radius: Fraction) -> tuple[tuple[int, ...], ...]:
    """Closed balls of the given radius; in an ultrametric space they
    partition the points, and they are the runs of a convex order between
    its steps above the radius.  Blocks are sorted by smallest member."""
    r = as_fraction(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    order = canonical_convex_order(space)
    blocks = [[order[0]]]
    for p, step in zip(order[1:], _steps(space.dist, order)):
        if step > r:
            blocks.append([])
        blocks[-1].append(p)
    return tuple(sorted(tuple(sorted(block)) for block in blocks))


def _path_maxima(dist: Sequence[Sequence], order: Sequence[int]) -> bool:
    """True iff along the order each entry is the largest step between its
    two points.  On an ultrametric matrix that holds iff every ball is an
    interval: the ball of radius d(x, y) around x spans every step between
    x and y, and by path maxima no point between them lies farther from x
    than y.

    From step i on, the running maximum of the steps is step i up to the
    next larger step j, and from j on the running maximum from j.  One pass
    from the right keeps the next larger steps on a stack, each with its
    expected row, so each point's expected row is one run of equal steps
    followed by a row already built: O(n) Python steps, and O(n^2) copies
    and compares made in C."""
    steps = _steps(dist, order)
    larger: list[tuple[int, list]] = [(len(steps), [])]
    for i in range(len(steps) - 1, -1, -1):
        step = steps[i]
        while len(larger) > 1 and larger[-1][1][0] <= step:
            larger.pop()
        j, suffix = larger[-1]
        expected = [step] * (j - i) + suffix
        if list(map(dist[order[i]].__getitem__, order[i + 1:])) != expected:
            return False
        larger.append((i, expected))
    return True


def is_convex_order(space: UltrametricSpace, order: tuple[int, ...]) -> bool:
    """True iff every ball at every realized radius is an interval of the
    order, checked in O(n^2) as path maxima: each distance is the largest
    step between its two points along the order."""
    if sorted(order) != list(range(space.size)):
        raise ValueError("order must be a permutation of the point indices")
    return _path_maxima(space.dist, order)


def canonical_convex_order(space: UltrametricSpace) -> tuple[int, ...]:
    """The lexicographically least convex order: point 0, then each time
    the lowest-index point among the unused points nearest to the last.
    Only a space built with the constructor walks the matrix for it."""
    if space._order is not None:
        return space._order
    return _walk(space.dist)


def _walk(dist: Sequence[Sequence]) -> tuple[int, ...]:
    """The walk of canonical_convex_order over a matrix of comparable entries."""
    order, unused = [0], list(range(1, len(dist)))
    while unused:
        order.append(min(unused, key=dist[order[-1]].__getitem__))
        unused.remove(order[-1])
    return tuple(order)


def _steps(dist: Sequence[Sequence], order: Sequence[int]) -> tuple:
    """The distances between neighbours along an order."""
    return tuple([dist[a][b] for a, b in zip(order, order[1:])])


def _fold(steps: Sequence[Any], leaves: Iterable[_T], node: Callable[[Any, list[_T]], _T]) -> _T:
    """Value of the ball a sequence spans, from its adjacent steps and its
    points' values: a ball cut at its largest step ``key`` into top balls is
    node(key, their values).  One stack pass closes a ball where a neighbour's
    step is larger, so it visits only branching balls, in O(n) plus the calls."""
    stack: list[tuple[Any, list[_T]]] = []
    for step, value in zip([*steps, inf], leaves):
        while stack and stack[-1][0] < step:
            key, kids = stack.pop()
            kids.append(value)
            value = node(key, kids)
        if stack and stack[-1][0] == step:
            stack[-1][1].append(value)
        else:
            stack.append((step, [value]))
    return stack[0][1][0]


def order_labels(space: UltrametricSpace, order: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(space.labels[p] for p in order)


# --- USPACE text format ----------------------------------------------------
#
#   uspace v1
#   points <n>
#   labels <name_1> ... <name_n>
#   d <name_i> <name_j> <p/q>        one line per unordered pair

def format_uspace(space: UltrametricSpace) -> str:
    lines = [
        "uspace v1",
        f"points {space.size}",
        "labels " + " ".join(space.labels),
    ]
    # each distinct value object is formatted once
    text = {id(v): v for row in space.dist for v in row}
    text = {key: format_rational(v) for key, v in text.items()}
    for i in range(space.size):
        for j in range(i + 1, space.size):
            lines.append(
                f"d {space.labels[i]} {space.labels[j]} {text[id(space.dist[i][j])]}"
            )
    return "\n".join(lines) + "\n"


def parse_uspace(text: str) -> UltrametricSpace:
    """The space a USPACE text describes, checked as validate_space checks
    a matrix.  Lines are checked in order, after the line count: a text
    with fewer distance lines than pairs raises FormatError before any
    table is built.  Each distinct token is parsed once, and the checks
    run on the ranks of the tokens' values."""
    lines = body_lines(text, "uspace v1")
    if len(lines) < 2 or not lines[0].startswith("points "):
        raise FormatError("expected 'points <n>' line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError("bad points line") from exc
    label_parts = lines[1].split()
    if not label_parts or label_parts[0] != "labels" or len(label_parts) != n + 1:
        raise FormatError("expected 'labels' line with one name per point")
    names = tuple(label_parts[1:])
    index = {lab: i for i, lab in enumerate(names)}
    if len(index) != n:
        # the first label seen again later, found in O(n): index keeps
        # each label's last position
        raise DuplicateLabel(next(l for i, l in enumerate(names) if index[l] != i))
    # a short document is refused before its table is built, so the
    # table is bounded by the document's own size
    if len(lines) - 2 < n * (n - 1) // 2:
        raise FormatError("missing distance lines")
    # each cell holds the index of its token's value, 0 the diagonal's
    # zero; off-diagonal cells stay None until their line fills them
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = 0
    tokens: dict[str, int] = {}
    exact = [_ZERO]
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "d":
            raise FormatError(f"bad distance line {line!r}")
        _, a, b, value = parts
        try:
            i, j = index[a], index[b]
        except KeyError:
            raise FormatError(f"unknown label in {line!r}") from None
        row = table[i]
        if row[j] is not None:
            raise FormatError(f"repeated or diagonal pair in {line!r}")
        token = tokens.get(value)
        if token is None:
            token = tokens[value] = len(exact)
            exact.append(parse_rational(value))
        row[j] = table[j][i] = token
    # no line repeated a pair and none is missing, so every cell is filled
    if n == 0:
        raise EmptySpace()
    values, rank, zero = _ranked(exact)
    # the table is symmetric with a zero diagonal by construction, so a
    # pair can be bad only when some token's value is not positive
    scan = any(v <= 0 for v in exact[1:])
    ranks = [list(map(rank.__getitem__, row)) for row in table]
    return _validated(names, ranks, values, zero, scan)
