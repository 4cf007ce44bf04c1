"""Arrow verification by a pruned depth-first coloring search, witness
chaining, and the order-type lower-bound coloring.

``Z -> (Y)^X_{k,l}`` means: however the copies of X inside Z are colored
with k colors, some copy of Y inside Z sees at most l colors on its own
copies of X.  Copies are subsets (each counted once), held as mapping
tuples and decided by their adjacent steps along a convex order of Z; the
ordered variant also requires the induced order to match.

The verifier searches colorings depth first, one representative per
color-permutation class (restricted-growth strings, first copy pinned to
color 0), and cuts a subtree once some Y-copy can see at most l colors in
every completion of the partial coloring, once every color of some later
copy would make a Y-copy safe, or once a swap of twin points of Z that
keeps the copy lists takes the partial coloring to an earlier one, all of
whose completions hold the arrow as the search got past them; a cut
subtree is counted, not visited.  The prunings are tested against oracles
that try every coloring, that scan the restricted-growth strings one by
one, and that cut only at a safe Y-copy.  Work is metered in colorings
decided, the number that scan examines, and cut off by a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, pairwise
from math import inf
from operator import itemgetter
from typing import Callable, Sequence

from .errors import BudgetExceeded, OracleFailure
from .orders import order_type_partition
from .shapes import branching_vectors, uniform_tree
from .spaces import UltrametricSpace, _fold, _rank_map, _steps, canonical_convex_order
from .trees import _require_convex, space_to_tree, tree_to_space

DEFAULT_BUDGET = 10 ** 7
# Finding the twin swaps costs about as much as coloring n + |Y| copies; the
# arrow search finds them once it has colored this many times that.
_SWAP_WAIT = 2

OrderedSpace = tuple[UltrametricSpace, tuple[int, ...]]


@dataclass(frozen=True)
class Coloring:
    pattern: UltrametricSpace
    ambient: UltrametricSpace
    copies: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.copies) != len(self.colors):
            raise ValueError("coloring must be total on the copy list")


@dataclass(frozen=True)
class ArrowVerdict:
    """``colorings`` is the number of colorings decided, ``nodes`` the
    work spent on it: the copies the search colored."""

    holds: bool
    witness: Coloring | None
    copies: int
    colorings: int
    nodes: int


def _ball(step: int, balls: list[tuple[tuple, list[int]]]) -> tuple[tuple, list[int]]:
    """Canonical form of a ball of a convex sequence, and the sequence's
    positions arranged along it, as ``_fold``'s node over the leaves
    ``((), [p])`` for the positions p, which the fold reads and never changes.

    A point's form is ``()``; a ball cut at its largest step rank into top
    balls has the form ``(step, their forms sorted)``, and its arrangement
    is theirs in that order.  Equal forms mean isometric spaces, and lining
    up their arrangements gives an isometry."""
    balls.sort(key=itemgetter(0))
    return (step, tuple([form for form, _ in balls])), [p for _, part in balls for p in part]


def enumerate_copies(
    ambient: UltrametricSpace,
    pattern: UltrametricSpace,
    ambient_order: tuple[int, ...] | None = None,
    pattern_order: tuple[int, ...] | None = None,
) -> list[tuple[int, ...]]:
    """All subsets of the ambient space isometric to the pattern, one per
    subset, in lexicographic subset order, each as its mapping: entry i is
    the ambient index of pattern point i.  Passing both orders, both convex
    (NonConvexOrder otherwise), switches to the ordered variant, where the
    unique monotone identification must preserve distances.  An unordered
    copy carries the isometry that lines up the canonical forms, not
    always the lexicographically least one.

    A subset read along a convex ambient order (the one given, else the
    canonical one) stays convex, so its adjacent steps decide it: an
    ordered copy has the pattern's steps along ``pattern_order``, an
    unordered one the pattern's canonical form."""
    if (ambient_order is None) != (pattern_order is None):
        raise ValueError("pass both orders or neither")
    if pattern_order is not None:
        _require_convex(ambient, ambient_order)
        _require_convex(pattern, pattern_order)
    return _copies(ambient, pattern, ambient_order, pattern_order)


def _copies(
    ambient: UltrametricSpace, pattern: UltrametricSpace, ambient_order, pattern_order
) -> list[tuple[int, ...]]:
    """``enumerate_copies`` on orders already checked."""
    ordered = pattern_order is not None
    if not ordered:
        ambient_order = canonical_convex_order(ambient)
        pattern_order = canonical_convex_order(pattern)
    m, n = pattern.size, ambient.size
    # the pattern's steps as ambient ranks; a value the ambient lacks leaves no copy
    to_ambient = _rank_map(pattern.values, ambient.values)
    steps = tuple(map(to_ambient.__getitem__, _steps(pattern.ranks, pattern_order)))
    if None in steps:
        return []
    leaves = [((), [p]) for p in range(m)]
    key = (lambda s: (s, range(m))) if ordered else (lambda s: _fold(s, leaves, _ball))
    target, pattern_arranged = key(steps)
    place = {point: p for p, point in enumerate(ambient_order)}
    out: list[tuple[int, ...]] = []
    for subset in combinations(range(n), m):
        points = sorted(subset, key=place.__getitem__)
        form, arranged = key(_steps(ambient.ranks, points))
        if form == target:
            mapping = [0] * m
            for i, j in zip(pattern_arranged, arranged):
                mapping[pattern_order[i]] = points[j]
            out.append(tuple(mapping))
    return out


def _completions(rows: int, k: int, cap: int) -> list[list[int]]:
    """``table[r][m]`` for r below ``rows`` (at least one row): the
    restricted-growth completions of r more copies when colors 0..m are in
    use, each capped at ``cap``.  A capped entry is only ever compared with
    the budget, and an entry below the cap is exact because its summands
    are."""
    table = [[1] * k]
    for _ in range(rows - 1):
        prev = table[-1]
        table.append([
            min(cap, (m + 1) * prev[m] + (prev[m + 1] if m + 1 < k else 0))
            for m in range(k)
        ])
    return table


def _members(x_copies: Sequence[tuple], y_copies: Sequence[tuple], m: int) -> list[list[int]]:
    """For each Y-copy, the indices of the X-copies inside it, in the order
    of its m-subsets.  Each Y-copy is an isometry from Y (a monotone one for
    ordered copies), so the positions of Y that carry an X-copy are the
    same in all of them: found once on the first, read off every one."""
    if not y_copies:
        return []
    index = {frozenset(c): i for i, c in enumerate(x_copies)}
    first = y_copies[0]
    carry = [s for s in combinations(range(len(first)), m)
             if frozenset(map(first.__getitem__, s)) in index]
    return [[index[frozenset(map(y.__getitem__, s))] for s in carry] for y in y_copies]


def _twins(space: UltrametricSpace, walk: tuple[int, ...]) -> list[tuple[int, int]]:
    """Pairs of twin points, at equal distance from every other point: the
    points that are children of one ball, each paired with the next of them
    along the convex order ``walk``."""
    pairs: list[tuple[int, int]] = []
    _fold(_steps(space.ranks, walk), walk,
          lambda step, kids: pairs.extend(pairwise([p for p in kids if p is not None])))
    return pairs


def _swaps(
    ambient: UltrametricSpace, order: tuple[int, ...] | None,
    x_copies: Sequence[tuple], y_copies: Sequence[tuple],
) -> list[list[tuple[list[int], int]]]:
    """The swaps of ``_twins`` along ``order`` (else the canonical order)
    that map every X-copy and every Y-copy, as a point set, to one in its
    list, each as ``(perm, first)``: the permutation of the X-copies and the
    first copy it moves.  Entry i, for each copy i but the last, lists the
    swaps that map copies 0..i onto themselves."""
    n = len(x_copies)
    bit = [1 << p for p in range(ambient.size)]
    at = {sum(map(bit.__getitem__, c)): j for j, c in enumerate(x_copies)}
    y_bits = {sum(map(bit.__getitem__, y)) for y in y_copies}
    stable: list[list[tuple[list[int], int]]] = [[] for _ in range(n)]
    for p, q in _twins(ambient, order or canonical_convex_order(ambient)):
        pq, one = bit[p] | bit[q], (bit[p], bit[q])
        perm = [at.get(b ^ pq) if (b & pq) in one else j for b, j in at.items()]
        if None in perm or any((b ^ pq) not in y_bits for b in y_bits if (b & pq) in one):
            continue
        first = next((j for j in range(n) if perm[j] != j), n)
        # copies 0..j map onto themselves when none of them goes beyond j
        for j, reach in enumerate(accumulate(perm[first:n - 1], max), first):
            if reach == j:
                stable[j].append((perm, first))
    return stable


def verify_arrow(
    ambient: UltrametricSpace,
    target: UltrametricSpace,
    pattern: UltrametricSpace,
    k: int,
    l: int,
    ambient_order: tuple[int, ...] | None = None,
    target_order: tuple[int, ...] | None = None,
    pattern_order: tuple[int, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ArrowVerdict:
    """Decide the arrow by a depth-first search over colorings; the ordered
    arrow takes all three orders, each convex, the unordered one none
    (ValueError otherwise, NonConvexOrder for an order that is not convex).

    Colorings are restricted-growth strings (copy 0 has color 0, each copy
    at most one above the largest color before it), searched in
    lexicographic order.  Once some Y-copy can see at most l colors in
    every completion of the partial coloring (its colors seen plus its
    uncolored X-copies, capped at k), the whole subtree is good: it is
    counted, not visited.  The subtree is good as well once a later copy is
    forced: a Y-copy whose only uncolored member is its last one, and whose
    other members show exactly l colors, is safe if that member takes one
    of them, and such Y-copies may cover every color of one later copy.
    The third cut swaps two twin points of Z (at equal distance from every
    other point) if that maps the X- and Y-copies, as point sets, onto their
    lists.  Once a swap maps copies 0..i onto themselves and their colors,
    renamed in order of first use, to an earlier string, it maps every
    completion c into an earlier subtree, where every coloring holds the
    arrow as the search got here; the swap keeps which X-copies lie in which
    Y-copy, so c holds it too.  The swaps are found once the search has
    colored 2 (n + |Y|) copies, twice what finding them costs.
    All cuts drop only colorings that hold the arrow, so a full coloring
    the search reaches is the first counterexample, and ``colorings`` is
    the number of colorings decided, the same number an exhaustive scan
    examines: all of them when the arrow holds, the counterexample's rank
    when it fails.  Raises BudgetExceeded when that number is above the
    budget.
    """
    orders = (ambient_order, target_order, pattern_order)
    if orders.count(None) not in (0, 3):
        raise ValueError("pass both orders or neither")
    if ambient_order is not None:
        _require_convex(ambient, ambient_order)
        _require_convex(pattern, pattern_order)
        _require_convex(target, target_order)
    return _arrow(ambient, target, pattern, k, l, orders, budget)


def _arrow(
    ambient: UltrametricSpace, target: UltrametricSpace, pattern: UltrametricSpace,
    k: int, l: int, orders: tuple, budget: int,
) -> ArrowVerdict:
    """``verify_arrow`` on its three orders, already checked, or three Nones."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    ambient_order, target_order, pattern_order = orders
    x_copies = _copies(ambient, pattern, ambient_order, pattern_order)
    y_copies = _copies(ambient, target, ambient_order, target_order)
    n = len(x_copies)
    members = _members(x_copies, y_copies, pattern.size)
    # Copy i never gets a color above i, so a palette of n colors gives the
    # same colorings as any larger k.
    palette = min(k, max(n, 1))
    table = _completions(n, palette, max(budget, 0) + 1)
    colors = [0] * n
    nodes = 0

    def decided(count: int, holds: bool) -> ArrowVerdict:
        if count > budget:
            raise BudgetExceeded(n, max(budget, 0))
        witness = None if holds else Coloring(
            pattern=pattern, ambient=ambient, copies=tuple(x_copies),
            colors=tuple(colors), k=k,
        )
        return ArrowVerdict(holds, witness, n, count, nodes)

    # Some Y-copy sees at most l colors whatever the coloring.
    if any(min(len(inside), k) <= l for inside in members):
        return decided(table[-1][0], True)
    # No Y-copy at all: the first coloring (every copy color 0) fails.
    if not members:
        return decided(1, False)
    # From here every Y-copy has more than l members and k > l, so a Y-copy
    # is safe once seen + uncolored <= l.
    covering: list[list[int]] = [[] for _ in range(n)]
    # Copies are colored in index order, so once a Y-copy's second-to-last
    # member is placed, its last one is its only uncolored member; if the
    # others show exactly l colors, any of them on the last member makes it
    # safe.  forced[j][c] counts the placed members, over such Y-copies
    # closing at j, that show color c; covered[j] counts the colors so forced.
    closing: list[list[tuple[int, list[int], int]]] = [[] for _ in range(n)]
    for y, inside in enumerate(members):
        for i in inside:
            covering[i].append(y)
        inside.sort()
        closing[inside[-2]].append((y, inside[:-1], inside[-1]))
    forced = {inside[-1]: [0] * palette for inside in members}
    covered = [0] * n
    uncolored = [len(inside) for inside in members]
    seen = [[0] * palette for _ in members]
    distinct = [0] * len(members)
    top = [0] * n  # largest color among copies 0..i
    stable: list = []  # _swaps' table, once the search has colored `wait` copies
    wait = _SWAP_WAIT * (n + len(members))

    def earlier(i: int) -> bool:
        """Whether a swap in ``stable[i]`` takes copies 0..i to an earlier
        restricted-growth string, its colors renamed; the two agree before
        ``first``, where colors 0..top[first - 1] keep their names."""
        for perm, first in stable[i]:
            base = top[first - 1] + 1 if first else 0
            fresh: dict[int, int] = {}
            for j in range(first, i + 1):
                c = colors[perm[j]]
                if c >= base:
                    c = fresh.setdefault(c, base + len(fresh))
                if c != colors[j]:
                    if c < colors[j]:
                        return True
                    break
        return False

    def place(i: int) -> bool:
        """Color copy i with colors[i]; True when that makes a Y-copy safe,
        or forces every color of a later copy to make one safe."""
        c = colors[i]
        cut = False
        for y in covering[i]:
            uncolored[y] -= 1
            if not seen[y][c]:
                distinct[y] += 1
            seen[y][c] += 1
            if distinct[y] + uncolored[y] <= l:
                cut = True
        for y, head, j in closing[i]:
            if distinct[y] == l:
                row = forced[j]
                for x in head:
                    if not row[colors[x]]:
                        covered[j] += 1
                    row[colors[x]] += 1
                if covered[j] == palette:
                    cut = True
        return cut

    def unplace(i: int) -> None:
        # Copies after i are uncolored again, so the counts are as place(i)
        # left them and pick out the same Y-copies.
        for y, head, j in closing[i]:
            if distinct[y] == l:
                row = forced[j]
                for x in head:
                    row[colors[x]] -= 1
                    if not row[colors[x]]:
                        covered[j] -= 1
        c = colors[i]
        for y in covering[i]:
            uncolored[y] += 1
            seen[y][c] -= 1
            if not seen[y][c]:
                distinct[y] -= 1

    count = 0
    i = 0
    while True:
        nodes += 1
        if not place(i) and not (stable and stable[i] and earlier(i)):
            if i == n - 1:
                return decided(count + 1, False)
            i += 1
            top[i] = top[i - 1]
            continue
        count += table[n - 1 - i][top[i]]
        if count > budget:
            raise BudgetExceeded(n, max(budget, 0))
        # Step to the next coloring in order, backing out of copies whose
        # color cannot go higher.
        unplace(i)
        while i > 0 and colors[i] == min(palette - 1, top[i - 1] + 1):
            colors[i] = 0
            i -= 1
            unplace(i)
        if i == 0:
            return decided(count, True)
        if nodes > wait:
            stable, wait = _swaps(ambient, ambient_order, x_copies, y_copies), inf
        colors[i] += 1
        top[i] = max(top[i - 1], colors[i])


def order_type_coloring(
    ambient: UltrametricSpace, ambient_order: tuple[int, ...], pattern: UltrametricSpace
) -> Coloring:
    """Color each unordered copy of the pattern by the order type it induces
    under the ambient convex order (NonConvexOrder otherwise), looked up by
    its steps; uses exactly one color per order type."""
    _require_convex(ambient, ambient_order)
    classes = order_type_partition(pattern)
    # each order type's steps as ambient ranks, as a copy reads its own
    to_ambient = _rank_map(pattern.values, ambient.values).__getitem__
    color_of = {tuple(map(to_ambient, _steps(pattern.ranks, c.representative))): i
                for i, c in enumerate(classes)}
    place = {point: p for p, point in enumerate(ambient_order)}
    copies = enumerate_copies(ambient, pattern)
    colors = [color_of[_steps(ambient.ranks, sorted(c, key=place.__getitem__))] for c in copies]
    return Coloring(pattern, ambient, tuple(copies), tuple(colors), k=len(classes))


def verify_degree_lower(
    pattern: UltrametricSpace,
    target: UltrametricSpace,
    ambient: UltrametricSpace,
    ambient_order: tuple[int, ...],
) -> bool:
    """True iff the order-type coloring takes its full palette on every copy
    of the target inside the ambient space."""
    coloring = order_type_coloring(ambient, ambient_order, pattern)
    y_copies = enumerate_copies(ambient, target)
    return all(
        len({coloring.colors[i] for i in inside}) == coloring.k
        for inside in _members(coloring.copies, y_copies, pattern.size)
    )


def search_witness(
    pattern: UltrametricSpace,
    pattern_order: tuple[int, ...],
    target: UltrametricSpace,
    target_order: tuple[int, ...],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> OrderedSpace:
    """Search the pool of uniformly branching trees (same height and level
    distances as the target's tree) in nondecreasing size for an ordered
    space Z with Z -> (target)^pattern_k ordered, single color class.

    The pool is complete for the ordering side of the theory and a
    heuristic for the Ramsey side; the search is exhaustive only relative
    to this pool and its budget.  Raises BudgetExceeded when the cumulative
    coloring budget runs out.  Each candidate is convexly ordered by
    construction, so only the two given orders are checked.
    """
    target_tree = space_to_tree(target, target_order)
    _require_convex(pattern, pattern_order)
    spent = 0
    for vector in branching_vectors(target_tree.height):
        candidate_tree = uniform_tree(vector, target_tree.levels)
        candidate, candidate_order = tree_to_space(candidate_tree)
        try:
            verdict = _arrow(
                candidate, target, pattern, k, 1,
                (candidate_order, target_order, pattern_order), budget - spent,
            )
        except BudgetExceeded as exc:
            raise BudgetExceeded(exc.copies, spent + exc.colorings) from None
        spent += verdict.colorings
        if verdict.holds:
            return candidate, candidate_order
    raise BudgetExceeded(0, spent)


@dataclass(frozen=True)
class ChainResult:
    space: UltrametricSpace
    order: tuple[int, ...]
    steps: tuple[UltrametricSpace, ...]
    value_bound: int
    verdict: ArrowVerdict | None


def chain_upper_bound(
    pattern: UltrametricSpace,
    target: UltrametricSpace,
    k: int,
    oracle: Callable[[OrderedSpace, OrderedSpace], OrderedSpace] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ChainResult:
    """Iterate an ordered-witness oracle once per order type of the pattern,
    each step aiming at the previous step's output, so the final space
    bounds the unordered arrow at l = (number of order types).

    The construction is re-verified by verify_arrow when the budget allows;
    a verdict of None means the check was skipped, never that it failed.
    """
    classes = order_type_partition(pattern)
    if oracle is None:
        def oracle(ordered_pattern: OrderedSpace, ordered_target: OrderedSpace) -> OrderedSpace:
            return search_witness(
                ordered_pattern[0], ordered_pattern[1],
                ordered_target[0], ordered_target[1],
                k, budget=budget,
            )
    current: OrderedSpace = (target, canonical_convex_order(target))
    steps: list[UltrametricSpace] = []
    for cls in classes:
        try:
            current = oracle((pattern, cls.representative), current)
        except BudgetExceeded as exc:
            raise OracleFailure(
                f"no ordered witness within budget ({exc.colorings} colorings)"
            ) from exc
        steps.append(current[0])
    try:
        verdict = verify_arrow(
            current[0], target, pattern, k, len(classes), budget=budget
        )
    except BudgetExceeded:
        verdict = None
    return ChainResult(
        space=current[0],
        order=current[1],
        steps=tuple(steps),
        value_bound=len(classes),
        verdict=verdict,
    )


def format_arrow_report(result: ArrowVerdict | BudgetExceeded) -> str:
    """One status line, then the counterexample coloring when the arrow
    fails (copies in canonical enumeration order)."""
    if isinstance(result, BudgetExceeded):
        return (
            f"arrow budget-exceeded copies={result.copies} "
            f"colorings={result.colorings}\n"
        )
    status = "holds" if result.holds else "fails"
    lines = [f"arrow {status} copies={result.copies} colorings={result.colorings}"]
    if result.witness is not None:
        for i, color in enumerate(result.witness.colors):
            lines.append(f"copy {i} color {color}")
    return "\n".join(lines) + "\n"
