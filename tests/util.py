"""Shared builders and independent brute-force oracles for the tests.

The oracles deliberately avoid the library's own code paths: isometries
are counted by scanning all permutations against the raw matrix, twin
points are grouped by comparing raw matrix entries, convexity
is re-derived from the interval definition (and path maxima from running
maxima), the validity check and its first witness are naive scans ending
in a triple loop, the USPACE parser is the sequential one that fills a
table of Fractions line by line before validate_space, arrows are decided
by trying every coloring (or every restricted-growth coloring, one by one,
for the engine's counts, or, for instances too large for that scan, by a
recursive search that cuts only at an already safe Y-copy), the
homogeneous model's checks and moves are pair loops and arithmetic over
plain coordinate dicts (and its value-tuple kernels plain loops over one
point at a time), its draws are ``randint`` calls and its qpoint
texts are read over ``Fraction`` line by line, trees are
read, padded and walked as nested tuples (a leaf is its label, a node the
tuple of its children), and the extremal scan is the list of every shape,
each scored.  Expected values in the tests come from these,
never from the functions under test.
"""

import fractions
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, count, permutations, product
from math import factorial, lcm, prod

from hypothesis import strategies as st

import umr
from umr.rational import body_lines, parse_rational


def equilateral(n, d=1):
    labels = [f"p{i}" for i in range(1, n + 1)]
    return umr.space_from_distances(
        labels,
        {(a, b): d for i, a in enumerate(labels) for b in labels[i + 1:]},
    )


def c3():
    return umr.space_from_distances(
        ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}
    )


def e3():
    return equilateral(3)


def comb4():
    return umr.space_from_distances(
        ["a", "b", "c", "e"],
        {
            ("a", "b"): 1,
            ("a", "c"): 2,
            ("b", "c"): 2,
            ("a", "e"): 3,
            ("b", "e"): 3,
            ("c", "e"): 3,
        },
    )


def cb4():
    return umr.space_from_distances(
        ["p", "q", "r", "s"],
        {
            ("p", "q"): 1,
            ("r", "s"): 1,
            ("p", "r"): 2,
            ("p", "s"): 2,
            ("q", "r"): 2,
            ("q", "s"): 2,
        },
    )


def brute_isometries(space):
    """Every distance-preserving permutation of the points, as tuples."""
    n = space.size
    return [
        perm
        for perm in permutations(range(n))
        if all(
            space.dist[perm[i]][perm[j]] == space.dist[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        )
    ]


def brute_isometry_count(space):
    return len(brute_isometries(space))


def brute_twin_classes(space):
    """The points grouped into classes of twins, read off the raw matrix:
    p and q are twins when every other point is as far from p as from q.
    Classes of one point are left out."""
    n = space.size
    classes = []
    for p in range(n):
        for cls in classes:
            q = cls[0]
            if all(space.dist[p][x] == space.dist[q][x] for x in range(n) if x not in (p, q)):
                cls.append(p)
                break
        else:
            classes.append([p])
    return [cls for cls in classes if len(cls) > 1]


def convexity_oracle(space):
    """Interval definition, re-derived: a predicate that is true for a
    sequence iff every ball around every center at every pairwise distance
    is contiguous in it."""
    n = space.size
    radii = {space.dist[i][j] for i in range(n) for j in range(i + 1, n)}
    balls = {
        frozenset(y for y in range(n) if space.dist[y][center] <= r)
        for center in range(n)
        for r in radii
    }

    def is_convex(seq):
        pos = {p: i for i, p in enumerate(seq)}
        for ball in balls:
            places = [pos[y] for y in ball]
            if max(places) - min(places) + 1 != len(places):
                return False
        return True

    return is_convex


def brute_convex_orders(space):
    """The convex orders among all n! permutations, in lexicographic order."""
    return list(filter(convexity_oracle(space), permutations(range(space.size))))


def naive_convex_orders(space):
    """Depth-first search over the raw matrix: any first point, then each
    next point among the unused points nearest to the last one, all in
    ascending index order; each branch ends in a convex order, listed in
    lexicographic order.  This is the nearest-unused lemma: a sequence is
    convex iff each point after the first is nearest to its predecessor
    among the points not yet placed, since every ball entered and not yet
    finished holds the last point placed."""
    n = space.size
    used = [False] * n
    seq = []
    out = []

    def extend(point):
        used[point] = True
        seq.append(point)
        if len(seq) == n:
            out.append(tuple(seq))
        else:
            row = space.dist[point]
            best = min(row[q] for q in range(n) if not used[q])
            for q in [q for q in range(n) if not used[q] and row[q] == best]:
                extend(q)
        seq.pop()
        used[point] = False

    for first in range(n):
        extend(first)
    return out


def naive_order_type_partition(space):
    """The convex orders grouped by their adjacent steps, groups in order of
    first appearance, each group's members in lexicographic order."""
    classes = {}
    for seq in naive_convex_orders(space):
        steps = tuple(space.dist[a][b] for a, b in zip(seq, seq[1:]))
        classes.setdefault(steps, []).append(seq)
    return list(classes.values())


def profile(space, seq):
    """The distances a sequence of points reads between every earlier and
    later point."""
    n = len(seq)
    return tuple(space.dist[seq[p]][seq[q]] for p in range(n) for q in range(p + 1, n))


def profile_classes(space, orders):
    """Orders grouped by their profiles, groups in order of first appearance."""
    classes = {}
    for seq in orders:
        classes.setdefault(profile(space, seq), []).append(seq)
    return list(classes.values())


def _preserves(ambient, pattern, mapping):
    """Whether pattern point i -> mapping[i] keeps every distance of the
    raw matrices."""
    m = pattern.size
    return all(
        ambient.dist[mapping[i]][mapping[j]] == pattern.dist[i][j]
        for i in range(m)
        for j in range(i + 1, m)
    )


def brute_copies(ambient, pattern):
    """The subsets of the ambient space, in lexicographic order, that some
    bijection makes isometric to the pattern: every permutation of every
    subset is tried against the raw matrices."""
    return [
        subset
        for subset in combinations(range(ambient.size), pattern.size)
        if any(_preserves(ambient, pattern, perm) for perm in permutations(subset))
    ]


def brute_ordered_copies(ambient, ambient_order, pattern, pattern_order):
    """The ordered copies as mappings, in lexicographic subset order: each
    subset, read along the ambient order, is identified position by
    position with the pattern order and kept when every pair of the raw
    matrices agrees."""
    place = {p: i for i, p in enumerate(ambient_order)}
    out = []
    for subset in combinations(range(ambient.size), pattern.size):
        mapping = dict(zip(pattern_order, sorted(subset, key=place.get)))
        mapping = tuple(mapping[i] for i in range(pattern.size))
        if _preserves(ambient, pattern, mapping):
            out.append(mapping)
    return out


def brute_arrow_holds(ambient, target, pattern, k, l):
    """Unordered arrow ambient -> (target)^pattern_{k,l}: copies come from
    ``brute_copies`` and all k ** copies colorings are tried."""
    x_sets = [frozenset(x) for x in brute_copies(ambient, pattern)]
    y_members = [
        [i for i, x in enumerate(x_sets) if x <= frozenset(y)]
        for y in brute_copies(ambient, target)
    ]
    return all(
        any(len({colors[i] for i in members}) <= l for members in y_members)
        for colors in product(range(k), repeat=len(x_sets))
    )


def _colorings(count, k):
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


def exhaustive_arrow(
    ambient, target, pattern, k, l,
    ambient_order=None, target_order=None, pattern_order=None,
    budget=umr.DEFAULT_BUDGET,
):
    """The arrow decided by examining restricted-growth colorings one by
    one in canonical order: ``(holds, colorings examined, first bad
    coloring or None)``, or BudgetExceeded once the count passes the
    budget.  Copies come from ``umr.enumerate_copies``; containment is a
    subset scan."""
    x_copies = umr.enumerate_copies(ambient, pattern, ambient_order, pattern_order)
    y_copies = umr.enumerate_copies(ambient, target, ambient_order, target_order)
    x_sets = [frozenset(c) for c in x_copies]
    y_members = [
        [i for i, xs in enumerate(x_sets) if xs <= frozenset(y)]
        for y in y_copies
    ]
    examined = 0
    for colors in _colorings(len(x_copies), k):
        examined += 1
        if examined > budget:
            raise umr.BudgetExceeded(len(x_copies), examined - 1)
        if not any(len({colors[i] for i in members}) <= l for members in y_members):
            return False, examined, tuple(colors)
    return True, examined, None


def safe_cut_arrow(
    ambient, target, pattern, k, l,
    ambient_order=None, target_order=None, pattern_order=None,
    budget=umr.DEFAULT_BUDGET,
):
    """The arrow decided by a recursive search over restricted-growth
    colorings in canonical order that cuts a subtree only once some Y-copy
    is already safe: it sees at most l colors in every completion (its
    colors so far plus its uncolored X-copies, capped at k).  A cut subtree
    is counted by a memoised count of its completions.  Returns ``(holds,
    colorings, first bad coloring or None, nodes)``, nodes being the copies
    it colored, or raises BudgetExceeded, as ``exhaustive_arrow`` does, once
    the count passes the budget.  It reaches instances too large for the
    one-by-one scan."""
    x_copies = umr.enumerate_copies(ambient, pattern, ambient_order, pattern_order)
    y_copies = umr.enumerate_copies(ambient, target, ambient_order, target_order)
    x_sets = [frozenset(c) for c in x_copies]
    y_members = [
        [i for i, xs in enumerate(x_sets) if xs <= frozenset(y)]
        for y in y_copies
    ]
    n = len(x_sets)
    colors = []

    def safe(members):
        colored = [colors[i] for i in members if i < len(colors)]
        return min(len(set(colored)) + len(members) - len(colored), k) <= l

    @cache
    def completions(rest, top):
        # colorings of ``rest`` more copies after a prefix using colors 0..top
        if not rest:
            return 1
        return sum(completions(rest - 1, max(top, c)) for c in range(min(k, top + 2)))

    if any(safe(members) for members in y_members):
        return True, completions(n, -1), None, 0
    if not y_members:
        return False, 1, (0,) * n, 0
    containing = [[m for m in y_members if i in m] for i in range(n)]
    count = nodes = 0

    def search(top):
        # True once every copy is colored and no Y-copy is safe; colors
        # then holds that coloring
        nonlocal count, nodes
        i = len(colors)
        for c in range(min(k, top + 2)):
            colors.append(c)
            nodes += 1
            cut = any(safe(members) for members in containing[i])
            if cut:
                count += completions(n - 1 - i, max(top, c))
            elif i == n - 1:
                count += 1
            if count > budget:
                raise umr.BudgetExceeded(n, max(budget, 0))
            if not cut and (i == n - 1 or search(max(top, c))):
                return True
            colors.pop()
        return False

    if search(-1):
        return False, count, tuple(colors), nodes
    return True, count, None, nodes


def naive_valid(matrix):
    """Triple-loop oracle on a raw square matrix of Fractions."""
    n = len(matrix)
    if n == 0:
        return False
    for i in range(n):
        if matrix[i][i] != 0:
            return False
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                return False
            if i != j and matrix[i][j] <= 0:
                return False
    for i in range(n):
        for j in range(n):
            for z in range(n):
                if len({i, j, z}) == 3 and matrix[i][j] > max(
                    matrix[i][z], matrix[z][j]
                ):
                    return False
    return True


def naive_first_error(matrix, labels):
    """The error ``validate_space`` must raise, as (class, labels), or None
    for a valid space: the documented checks in their documented order,
    each a plain scan of the raw matrix, the last one the triple loop."""
    names = list(labels)
    n = len(names)
    if n == 0:
        return umr.EmptySpace, ()
    for k, name in enumerate(names):
        if name in names[:k]:
            return umr.DuplicateLabel, (name,)
    for i in range(n):
        if matrix[i][i] != 0:
            return umr.NonzeroDiagonal, (names[i],)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return umr.AsymmetricMatrix, (names[i], names[j])
            if matrix[i][j] <= 0:
                return umr.NonpositiveOffDiagonal, (names[i], names[j])
    for i in range(n):
        for j in range(i + 1, n):
            for z in range(n):
                if z not in (i, j) and matrix[i][j] > max(matrix[i][z], matrix[z][j]):
                    return umr.UltrametricViolation, (names[i], names[j], names[z])
    return None


def naive_path_maxima(dist, order):
    """Path maxima read off running maxima: along the order, each point's
    row from its successor on equals the running maximum of the steps from
    it on."""
    steps = [dist[a][b] for a, b in zip(order, order[1:])]
    return all(
        [dist[p][q] for q in order[i + 1:]] == list(accumulate(steps[i:], max))
        for i, p in enumerate(order)
    )


def naive_parse_uspace(text):
    """The sequential USPACE parse: a table of Fractions filled line by
    line, each line checked as it is read and each distinct token parsed
    once, the line count checked after the last line, then validate_space
    on the table."""
    lines = body_lines(text, "uspace v1")
    if len(lines) < 2 or not lines[0].startswith("points "):
        raise umr.FormatError("expected 'points <n>' line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise umr.FormatError("bad points line") from exc
    label_parts = lines[1].split()
    if not label_parts or label_parts[0] != "labels" or len(label_parts) != n + 1:
        raise umr.FormatError("expected 'labels' line with one name per point")
    names = tuple(label_parts[1:])
    index = {lab: i for i, lab in enumerate(names)}
    if len(index) != n:
        raise umr.DuplicateLabel(next(l for l in names if names.count(l) > 1))
    rows = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    values = {}
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "d":
            raise umr.FormatError(f"bad distance line {line!r}")
        i, j = index.get(parts[1]), index.get(parts[2])
        if i is None or j is None:
            raise umr.FormatError(f"unknown label in {line!r}")
        if rows[i][j] is not None:
            raise umr.FormatError(f"repeated or diagonal pair in {line!r}")
        if parts[3] not in values:
            values[parts[3]] = parse_rational(parts[3])
        rows[i][j] = rows[j][i] = values[parts[3]]
    if len(lines) - 2 != n * (n - 1) // 2:
        raise umr.FormatError("missing distance lines")
    return umr.validate_space(rows, names)


def dict_geometry(p, q):
    """(distance, order sign) of two homogeneous-model points, read off
    their coordinate dicts; (0, 0) for equal points."""
    a, b = dict(p.coords), dict(q.coords)
    differ = [s for s in a.keys() | b.keys() if a.get(s, 0) != b.get(s, 0)]
    if not differ:
        return 0, 0
    s = max(differ)
    return s, (a.get(s, 0) > b.get(s, 0)) - (a.get(s, 0) < b.get(s, 0))


def naive_distance(p, q):
    """The largest scale where the coordinate dicts of p and q differ, 0
    for equal points."""
    return dict_geometry(p, q)[0]


def naive_compare(p, q):
    """-1, 0 or 1 as p's value is below, equal to or above q's at the
    largest scale where their coordinate dicts differ."""
    return dict_geometry(p, q)[1]


def naive_preserves_sample(auto, sample):
    """Whether the map ``auto`` keeps distance and lex order on every pair
    of the sample, each read off the points' coordinate dicts."""
    mapped = [(p, auto(p)) for p in sample]
    return all(
        dict_geometry(p, q) == dict_geometry(fp, fq)
        for (p, fp), (q, fq) in combinations(mapped, 2)
    )


def loop_first_difference(x, y):
    """The first position where two value tuples of one length differ, by
    a plain loop; len(x) when they are equal."""
    for k in range(len(x)):
        if x[k] != y[k]:
            return k
    return len(x)


def loop_offset(move, x):
    """An ``_Offset`` applied position by position: x * factor + offset."""
    out = []
    for a, d in zip(x, move.offset):
        out.append(a * move.factor + d)
    return tuple(out)


def loop_ball(move, x):
    """A ``_Ball`` applied by plain loops.  Outside the ball (no gate, the
    prefix before k is not the gate, or the lifted value at k is at most
    the threshold) every position is scaled by the factor.  Inside, the
    prefix becomes the head, the lifted value at k goes through the segment
    of the last breakpoint at or below it (scaled alone below the first),
    and each later position is scaled and shifted."""
    k, f, v = move.k, move.factor, x[move.k] * move.lift
    if move.gate is None or list(x[:k]) != list(move.gate) or v <= move.threshold:
        return tuple(a * f for a in x)
    i = -1
    for j, b in enumerate(move.breakpoints):
        if b <= v:
            i = j
    value = v * f // move.lift if i < 0 else move.anchors[i] + move.rates[i] * (v - move.breakpoints[i])
    tail = [x[j] * f + move.shifts[j - k - 1] for j in range(k + 1, len(x))]
    return (*move.head, value, *tail)


def loop_run(moves, x):
    """One value tuple through a move list, one move after another, each
    offset and ball applied by its loop oracle (other callables as given)."""
    for move in moves:
        if isinstance(move, umr.urysohn._Offset):
            x = loop_offset(move, x)
        elif isinstance(move, umr.urysohn._Ball):
            x = loop_ball(move, x)
        else:
            x = move(x)
    return x


def loop_preserves_sample(moves, sample):
    """Whether a move list keeps distance (the first differing position)
    and order on every pair of a sample of value tuples, each point mapped
    on its own by ``loop_run`` and every pair compared."""
    points = sorted(set(sample))
    mapped = [(x, loop_run(moves, x)) for x in points]
    return all(
        loop_first_difference(x, y) == loop_first_difference(a, b) and (x < y) == (a < b)
        for (x, a), (y, b) in combinations(mapped, 2)
    )


def naive_draw(length, rng):
    """The homogeneous model's draw of a value tuple of this length, as
    ``rng.randint`` makes it: per position, one ``rng.random()`` and, when
    it falls below POINT_DENSITY, one ``rng.randint`` over the span."""
    span = umr.urysohn.POINT_SPAN
    return tuple(
        rng.randint(-span, span) if rng.random() < umr.urysohn.POINT_DENSITY else 0
        for _ in range(length)
    )


def naive_extension_error(pairs):
    """The error ``extend_isometry`` must raise on these (on-menu) pairs,
    or None: the first pair (i, j) in input order whose sources coincide,
    or whose distance or order the map changes, read off coordinate dicts."""
    for (i, (p, fp)), (j, (q, fq)) in combinations(enumerate(pairs), 2):
        (d, sign), (fd, fsign) = dict_geometry(p, q), dict_geometry(fp, fq)
        if d == 0:
            return umr.DuplicatePoint(f"sources {i} and {j} coincide")
        if d != fd:
            return umr.NotPartialIsometry(i, j)
        if sign != fsign:
            return umr.NotOrderPreserving(i, j)
    return None


def naive_apply(move, point):
    """Image of ``point`` under a Translate or CoordMap: dict arithmetic on
    its coordinates, then ``qs_point``."""
    items = dict(point.coords)
    if isinstance(move, umr.Translate):
        shifts = move.offset.coords
    else:
        above = {s: v for s, v in items.items() if s > move.scale}
        value = items.get(move.scale, 0)
        if above != dict(move.center.coords) or value <= move.threshold:
            return point
        items[move.scale] = move.value_map(value)
        shifts = move.shifts
    for s, v in shifts:
        items[s] = items.get(s, 0) + v
    return umr.qs_point(items)


def fraction_rational(token):
    """A rational token as ``Fraction`` takes its two ``int`` terms."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise umr.FormatError(f"bad rational {token!r}") from exc


def fraction_qpoint(text, menu):
    """A qpoint text as a {scale: value} dict of ``Fraction``s, line by
    line, with the parser's errors: a scale in its canonical spelling is
    looked up as written, any other is read as a rational first."""
    canonical = {umr.format_rational(s): s for s in menu}
    coords = {}
    for line in body_lines(text, "qpoint v1"):
        parts = line.split()
        if len(parts) != 2:
            raise umr.FormatError(f"bad coordinate line {line!r}")
        token, value = parts
        scale = canonical.get(token)
        if scale is None:
            scale = fraction_rational(token)
            if scale <= 0:
                raise umr.FormatError("scales must be positive")
            if scale not in menu:
                raise umr.FormatError(f"coordinate {token} not in menu")
        if scale in coords:
            raise umr.FormatError(f"repeated coordinate {token}")
        coords[scale] = fraction_rational(value)
    return coords


def fraction_qpoint_values(texts, menu):
    """Qpoint texts, each read in turn by ``fraction_qpoint``, as numerator
    tuples at the menu's positions over the least common denominator of
    their values, and that denominator."""
    points = [fraction_qpoint(text, menu) for text in texts]
    grid = lcm(*(v.denominator for p in points for v in p.values()))
    return [tuple(int(p.get(s, 0) * grid) for s in menu) for p in points], grid


def naive_piecewise(breakpoints, slopes, x):
    """Value at x of the map with these breakpoints and slopes, summed
    segment by segment from the left: x itself up to the first breakpoint,
    else the first breakpoint plus each segment's slope times the length
    of its part below x."""
    if not breakpoints or x <= breakpoints[0]:
        return x
    value = breakpoints[0]
    for i, slope in enumerate(slopes):
        end = breakpoints[i + 1] if i + 1 < len(breakpoints) else x
        value += slope * (max(min(x, end), breakpoints[i]) - breakpoints[i])
    return value


def _children(node):
    """A nested-tuple node's children: a leaf is its label, a node the
    tuple of its children."""
    return () if isinstance(node, str) else node


def nested_tree(tree):
    """The record as nested tuples, split top down: a depth-d node's
    children are the runs of its leaves that no join at depth d separates."""
    def node(lo, hi, depth):
        if depth == tree.height:
            return tree.labels[lo]
        bounds = [lo, *(i + 1 for i in range(lo, hi - 1) if tree.joins[i] == depth), hi]
        return tuple(node(a, b, depth + 1) for a, b in zip(bounds, bounds[1:]))

    return node(0, len(tree.labels), 0)


def from_nested(root, levels):
    """The record of a nested-tuple tree whose leaves must all lie at depth
    len(levels), read by a pre-order walk: the child of the deepest common
    ancestor of leaves i and i + 1 is the first node visited after leaf i."""
    height = len(levels)
    labels, joins = [], []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if len(joins) < len(labels):
            joins.append(depth - 1)
        if isinstance(node, str):
            if depth != height:
                raise ValueError(f"leaf at depth {depth}, expected {height}")
            labels.append(node)
        elif depth >= height:
            raise ValueError("internal node below the leaf level")
        stack.extend((child, depth + 1) for child in reversed(_children(node)))
    return umr.LeveledTree(tuple(labels), tuple(joins), levels)


def _post_order(root):
    """Every node after its subtrees, children left to right."""
    visited, stack = [], [root]
    while stack:
        node = stack.pop()
        visited.append(node)
        stack.extend(_children(node))
    return visited[::-1]


def naive_child_counts(root):
    """Child counts of the internal nodes on each level from the root down,
    found breadth first over the nested-tuple nodes."""
    counts = []
    level = [root]
    while any(_children(node) for node in level):
        counts.append([len(node) for node in level if _children(node)])
        level = [child for node in level for child in _children(node)]
    return counts


def naive_canonical_code(root):
    """The code of a nested-tuple tree by a post-order walk: a leaf is
    ``()``, a node its children's codes sorted and wrapped in brackets."""
    codes = []  # per finished subtree, left to right
    for node in _post_order(root):
        k = len(_children(node))
        kids = sorted(codes[len(codes) - k:])
        del codes[len(codes) - k:]
        codes.append("(" + "".join(kids) + ")")
    return codes[0]


def naive_automorphisms(root):
    """Automorphisms of a nested-tuple tree by a post-order walk: a node's
    count is its children's product times m! for each group of m children
    with equal codes."""
    done = []  # per finished subtree: (code, automorphisms)
    for node in _post_order(root):
        k = len(_children(node))
        kids = sorted(done[len(done) - k:])
        del done[len(done) - k:]
        groups = Counter(code for code, _ in kids)
        total = prod(aut for _, aut in kids) * prod(factorial(m) for m in groups.values())
        done.append(("(" + "".join(code for code, _ in kids) + ")", total))
    return done[0][1]


def naive_is_comb(root):
    """True when no node has two children whose subtrees branch, found by a
    post-order walk over the nested-tuple nodes."""
    branched = []  # per finished subtree: has a branching node
    for node in _post_order(root):
        k = len(_children(node))
        kids = branched[len(branched) - k:]
        del branched[len(branched) - k:]
        if sum(kids) > 1:
            return False
        branched.append(k >= 2 or any(kids))
    return True


def code_tree(code):
    """The nested-tuple tree of a canonical code, read bracket by bracket:
    ``()`` is a leaf, labeled p1, p2, ... from left to right."""
    labels = (f"p{i}" for i in count(1))
    stack = [[]]
    for bracket in code:
        if bracket == "(":
            stack.append([])
        else:
            kids = stack.pop()
            stack[-1].append(tuple(kids) if kids else next(labels))
    return stack[0][0]


def naive_degree(root):
    """The Ramsey degree of a nested-tuple tree: its sibling orderings, the
    product of k! over its nodes, over its automorphisms."""
    orderings = prod(factorial(k) for level in naive_child_counts(root) for k in level)
    return orderings // naive_automorphisms(root)


def uniform_entries(height, size):
    """(code, branching-level bitmask, degree, is comb) of every
    uniform-depth tree of this height and size, unary nodes allowed, as the
    shape generator lists them with no level required to branch."""
    out = []
    for code, mask, _ in umr.shapes._shapes(height, size):
        root = code_tree(code)
        out.append((code, mask, naive_degree(root), naive_is_comb(root)))
    return out


def enumerated_extremal_report(leaves):
    """The extremal report by listing every shape and scoring each one."""
    shapes = umr.all_tree_shapes(leaves)
    degrees = [umr.tree_degree(tree) for tree in shapes]
    best = max(degrees)
    argmax = tuple(
        umr.ShapeFinding(umr.canonical_code(tree), degree, umr.is_comb(tree))
        for tree, degree in zip(shapes, degrees)
        if degree == best
    )
    return umr.ExtremalReport(
        leaves=leaves,
        shape_count=len(shapes),
        max_degree=best,
        comb_degree=umr.tree_degree(umr.comb_tree(leaves)),
        argmax=argmax,
        all_combs=all(finding.comb for finding in argmax),
    )


def naive_parse_utree(text):
    """UTREE text read token by token into nested tuples, then into a
    record by ``from_nested``, with ``parse_utree``'s errors in its order:
    rationals, nesting depth, syntax in text order, levels, the first
    misplaced leaf, the record's own checks."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "utree v1":
        raise umr.FormatError("expected 'utree v1' header")
    if len(lines) < 3 or not lines[1].startswith("levels"):
        raise umr.FormatError("expected 'levels' line and a tree line")
    values = tuple(umr.parse_rational(tok) for tok in lines[1].split()[1:])
    tokens = " ".join(lines[2:]).replace("(", " ( ").replace(")", " ) ").split()
    depth = deepest = 0
    for token in tokens:
        if token == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif token == ")":
            depth -= 1
    if deepest > len(values):
        raise umr.FormatError(f"tree nests {deepest} deep but has {len(values)} levels")
    open_kids = []  # the children of each unclosed bracket, innermost last
    root = None
    for token in tokens:
        if root is not None:
            raise umr.FormatError("trailing tokens after tree")
        if token == "(":
            open_kids.append([])
            continue
        if token != ")":
            node = token
        elif not open_kids:
            raise umr.FormatError("unexpected ')'")
        else:
            node = tuple(open_kids.pop())
            if not node:
                raise umr.FormatError("internal node with no children")
        if open_kids:
            open_kids[-1].append(node)
        else:
            root = node
    if open_kids:
        raise umr.FormatError("missing ')'")
    try:
        return from_nested(root, umr.DistanceSet(values))
    except ValueError as exc:
        raise umr.FormatError(str(exc)) from exc


def naive_hull(space):
    """The order-invariant hull by padding the nested-tuple tree: every
    node's children first, padded in turn, then fresh complete subtrees up
    to its level's maximum branching, their leaves labeled ``_h<k>`` in
    the order they are made, skipping input labels."""
    tree = umr.canonical_tree(space)
    height = tree.height
    branch = [max(level) for level in naive_child_counts(nested_tree(tree))]
    taken = set(space.labels)
    names = (f"_h{k}" for k in count(1))

    def fresh_subtree(depth):
        if depth == height:
            return next(name for name in names if name not in taken)
        return tuple(fresh_subtree(depth + 1) for _ in range(branch[depth]))

    def pad(node, depth):
        if isinstance(node, str):
            return node
        kids = [pad(child, depth + 1) for child in node]
        kids += [fresh_subtree(depth + 1) for _ in range(branch[depth] - len(kids))]
        return tuple(kids)

    hull, _ = umr.tree_to_space(from_nested(pad(nested_tree(tree), 0), tree.levels))
    return hull


def shuffled_shape_spaces(max_leaves):
    """Each shape space twice, its point storage order shuffled from a fixed
    seed: once with the power-of-two levels, once with fractional ones."""
    trees = (tree for n in range(1, max_leaves + 1) for tree in umr.all_tree_shapes(n))
    return _shuffled_spaces(trees, random.Random(20261018))


# the fixed 7- and 8-point shapes of the census benchmark with their
# heights, the last the uniform (2,2,2) tree
CENSUS_SHAPES = (
    (2, (("a", "b", "c"), ("d", "e"), ("f", "g"))),
    (3, ((("a", "b"), ("c", "d", "e")), (("f", "g"),))),
    (3, ((("a", "b"), ("c", "d")), (("e", "f"), ("g", "h")))),
)


def shuffled_census_spaces():
    """The census shapes, shuffled as in shuffled_shape_spaces."""
    trees = [
        from_nested(root, umr.DistanceSet(tuple(Fraction(2 ** k) for k in range(height, 0, -1))))
        for height, root in CENSUS_SHAPES
    ]
    return _shuffled_spaces(trees, random.Random(20261019))


def _shuffled_spaces(trees, rng):
    for tree in trees:
        fractional = umr.DistanceSet(tuple(Fraction(7, 3 * k + 2) for k in range(tree.height)))
        for levels in (tree.levels, fractional):
            space, _ = umr.tree_to_space(umr.LeveledTree(tree.labels, tree.joins, levels))
            points = list(range(space.size))
            rng.shuffle(points)
            yield space.restrict(points)


def shape_spaces(max_leaves, max_height=None):
    """One space per tree shape with up to max_leaves points."""
    out = []
    for n in range(1, max_leaves + 1):
        for tree in umr.all_tree_shapes(n):
            if max_height is not None and tree.height > max_height:
                continue
            space, _ = umr.tree_to_space(tree)
            out.append(space)
    return out


@st.composite
def leveled_trees(draw, max_leaves):
    """Random leveled tree with at most max_leaves leaves: shuffled leaf
    labels grouped bottom up, each level splitting its row of nodes into
    consecutive runs with at least one run of two or more, under random
    decreasing rational levels."""
    n = draw(st.integers(1, max_leaves))
    labels = draw(st.permutations([f"x{i}" for i in range(n)]))
    nodes = list(labels)
    height = 0
    while len(nodes) > 1:
        cuts = sorted(draw(st.sets(st.integers(1, len(nodes) - 1), max_size=len(nodes) - 2)))
        bounds = [0, *cuts, len(nodes)]
        nodes = [tuple(nodes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        height += 1
    levels = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 20), max_value=100, max_denominator=20),
            min_size=height,
            max_size=height,
            unique=True,
        )
    )
    return from_nested(nodes[0], umr.DistanceSet(tuple(sorted(levels, reverse=True))))


def fraction_frames(call, *exempt) -> int:
    """The frames from fractions.py entered while call() runs, apart from
    those under format_rational, which reads a value's terms as text, or
    under one of the ``exempt`` functions."""
    boundaries = {f.__code__ for f in (umr.rational.format_rational, *exempt)}
    frames = 0

    def hook(frame, event, arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            caller = frame.f_back
            while caller is not None and caller.f_code not in boundaries:
                caller = caller.f_back
            frames += caller is None

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


def frac(text):
    return Fraction(text)
