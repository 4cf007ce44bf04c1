"""Arrow verification by exhaustive coloring search, witness chaining, and
the order-type lower-bound coloring.

``Z -> (Y)^X_{k,l}`` means: however the copies of X inside Z are colored
with k colors, some copy of Y inside Z sees at most l colors on its own
copies of X.  Copies are subsets (each subset counted once); the ordered
variant additionally requires the induced order to match.

The verifier enumerates colorings exhaustively, one representative per
color-permutation class (restricted-growth strings, first copy pinned to
color 0); soundness of this pruning is tested against a brute-force
oracle that tries every coloring.  Work is metered in colorings examined
and cut off by a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .errors import BudgetExceeded, OracleFailure
from .orders import order_profile, order_type_partition
from .shapes import branching_vectors, uniform_tree
from .spaces import UltrametricSpace, canonical_convex_order
from .trees import space_to_tree, tree_to_space

DEFAULT_BUDGET = 10 ** 7

OrderedSpace = tuple[UltrametricSpace, tuple[int, ...]]


@dataclass(frozen=True)
class Copy:
    """Distance-preserving identification of a pattern inside an ambient
    space; ``mapping[i]`` is the ambient index of pattern point i."""

    mapping: tuple[int, ...]

    def points(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))


@dataclass(frozen=True)
class Coloring:
    pattern: UltrametricSpace
    ambient: UltrametricSpace
    copies: tuple[Copy, ...]
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.copies) != len(self.colors):
            raise ValueError("coloring must be total on the copy list")


@dataclass(frozen=True)
class ArrowVerdict:
    holds: bool
    witness: Coloring | None
    copies: int
    colorings: int


def _match_subset(
    pattern: UltrametricSpace, ambient: UltrametricSpace, subset: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Lexicographically least distance-preserving bijection of the pattern
    onto the subset, or None."""
    m = len(subset)
    pattern_multiset = sorted(
        pattern.dist[i][j] for i in range(m) for j in range(i + 1, m)
    )
    subset_multiset = sorted(
        ambient.dist[p][q] for p, q in combinations(subset, 2)
    )
    if pattern_multiset != subset_multiset:
        return None
    assign: list[int | None] = [None] * m
    used = [False] * m

    def backtrack(i: int) -> bool:
        if i == m:
            return True
        for pos in range(m):
            if used[pos]:
                continue
            q = subset[pos]
            if all(
                ambient.dist[q][subset[assign[j]]] == pattern.dist[i][j]  # type: ignore[index]
                for j in range(i)
            ):
                assign[i] = pos
                used[pos] = True
                if backtrack(i + 1):
                    return True
                used[pos] = False
                assign[i] = None
        return False

    if not backtrack(0):
        return None
    return tuple(subset[assign[i]] for i in range(m))  # type: ignore[index]


def enumerate_copies(
    ambient: UltrametricSpace,
    pattern: UltrametricSpace,
    ambient_order: tuple[int, ...] | None = None,
    pattern_order: tuple[int, ...] | None = None,
) -> list[Copy]:
    """All subsets of the ambient space isometric to the pattern, one Copy
    per subset, in lexicographic subset order.  Passing both orders switches
    to the ordered variant, where the unique monotone identification must
    preserve distances."""
    if (ambient_order is None) != (pattern_order is None):
        raise ValueError("pass both orders or neither")
    m, n = pattern.size, ambient.size
    out: list[Copy] = []
    if m > n:
        return out
    if ambient_order is None:
        for subset in combinations(range(n), m):
            mapping = _match_subset(pattern, ambient, subset)
            if mapping is not None:
                out.append(Copy(mapping))
        return out
    apos = [0] * n
    for p, point in enumerate(ambient_order):
        apos[point] = p
    for subset in combinations(range(n), m):
        arranged = sorted(subset, key=apos.__getitem__)
        mapping = [0] * m
        for rank, point in enumerate(arranged):
            mapping[pattern_order[rank]] = point
        if all(
            ambient.dist[mapping[i]][mapping[j]] == pattern.dist[i][j]
            for i in range(m)
            for j in range(i + 1, m)
        ):
            out.append(Copy(tuple(mapping)))
    return out


def _colorings(count: int, k: int) -> Iterator[list[int]]:
    """Restricted growth strings in canonical order (first copy color 0,
    each new color introduced in sequence), one per color-permutation
    class.  Yields a reused list."""
    if count == 0:
        yield []
        return
    colors = [0] * count
    maxes = [0] * count
    while True:
        yield colors
        i = count - 1
        while i > 0:
            cap = min(k - 1, maxes[i - 1] + 1)
            if colors[i] < cap:
                break
            i -= 1
        if i == 0:
            return
        colors[i] += 1
        maxes[i] = max(maxes[i - 1], colors[i])
        for j in range(i + 1, count):
            colors[j] = 0
            maxes[j] = maxes[j - 1]


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
    """Decide the arrow by exhausting colorings; the ordered arrow takes all
    three orders, the unordered one none (ValueError otherwise).

    Returns a verdict with the first counterexample coloring (in canonical
    enumeration order) when the arrow fails; raises BudgetExceeded when the
    coloring budget runs out before a verdict.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    x_copies = enumerate_copies(ambient, pattern, ambient_order, pattern_order)
    y_copies = enumerate_copies(ambient, target, ambient_order, target_order)
    x_sets = [frozenset(c.mapping) for c in x_copies]
    y_members = []
    for y in y_copies:
        y_set = frozenset(y.mapping)
        y_members.append(
            tuple(i for i, xs in enumerate(x_sets) if xs <= y_set)
        )
    examined = 0
    for colors in _colorings(len(x_copies), k):
        examined += 1
        if examined > budget:
            raise BudgetExceeded(len(x_copies), examined - 1)
        good = False
        for members in y_members:
            seen: set[int] = set()
            within = True
            for idx in members:
                seen.add(colors[idx])
                if len(seen) > l:
                    within = False
                    break
            if within:
                good = True
                break
        if not good:
            witness = Coloring(
                pattern=pattern,
                ambient=ambient,
                copies=tuple(x_copies),
                colors=tuple(colors),
                k=k,
            )
            return ArrowVerdict(False, witness, len(x_copies), examined)
    return ArrowVerdict(True, None, len(x_copies), examined)


def order_type_coloring(
    ambient: UltrametricSpace, ambient_order: tuple[int, ...], pattern: UltrametricSpace
) -> Coloring:
    """Color each unordered copy of the pattern by the order type it induces
    under the ambient convex order; uses exactly one color per order type."""
    classes = order_type_partition(pattern)
    profiles = [
        order_profile(pattern, cls.representative) for cls in classes
    ]
    pos = [0] * ambient.size
    for p, point in enumerate(ambient_order):
        pos[point] = p
    copies = enumerate_copies(ambient, pattern)
    colors = [
        profiles.index(order_profile(ambient, sorted(copy.mapping, key=pos.__getitem__)))
        for copy in copies
    ]
    return Coloring(
        pattern=pattern,
        ambient=ambient,
        copies=tuple(copies),
        colors=tuple(colors),
        k=len(classes),
    )


def verify_degree_lower(
    pattern: UltrametricSpace,
    target: UltrametricSpace,
    ambient: UltrametricSpace,
    ambient_order: tuple[int, ...],
) -> bool:
    """True iff the order-type coloring takes its full palette on every copy
    of the target inside the ambient space."""
    coloring = order_type_coloring(ambient, ambient_order, pattern)
    x_sets = [frozenset(c.mapping) for c in coloring.copies]
    for y in enumerate_copies(ambient, target):
        y_set = frozenset(y.mapping)
        seen = {
            coloring.colors[i] for i, xs in enumerate(x_sets) if xs <= y_set
        }
        if len(seen) != coloring.k:
            return False
    return True


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
    coloring budget runs out.
    """
    target_tree = space_to_tree(target, target_order)
    spent = 0
    for vector in branching_vectors(target_tree.height):
        candidate_tree = uniform_tree(vector, target_tree.levels)
        candidate, candidate_order = tree_to_space(candidate_tree)
        try:
            verdict = verify_arrow(
                candidate,
                target,
                pattern,
                k,
                1,
                ambient_order=candidate_order,
                target_order=target_order,
                pattern_order=pattern_order,
                budget=budget - spent,
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
