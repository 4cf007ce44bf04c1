"""Reference math and text formats owned by the benchmark.

Nothing here imports ``umr``.  The generator writes its inputs with these
functions and the checker derives every expected answer from them, so a
change to the library can neither alter the workload nor vouch for its own
output.

Trees are nested lists: a leaf is its label (a ``str``), an internal node
is a list of children, and every leaf sits at the same depth.  ``levels``
is the strictly decreasing tuple of level distances, one per depth above
the leaves.  Spaces are a label tuple (file order) plus a distance lookup
``dist[a][b]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, groupby, permutations, product
from math import factorial, prod

ZERO = Fraction(0)


# --- rationals ----------------------------------------------------------------

def fmt_q(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_q(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(token))


# --- leveled trees ------------------------------------------------------------

def is_leaf(node) -> bool:
    return isinstance(node, str)


def leaves(node) -> list[str]:
    if is_leaf(node):
        return [node]
    return [label for child in node for label in leaves(child)]


def height(node) -> int:
    depth = 0
    while not is_leaf(node):
        node = node[0]
        depth += 1
    return depth


def tree_distances(tree, levels) -> dict[str, dict[str, Fraction]]:
    """Dual distances: two leaves are at the level distance of their
    deepest common ancestor."""
    dist: dict[str, dict[str, Fraction]] = {}

    def walk(node, depth: int) -> list[str]:
        if is_leaf(node):
            dist[node] = {node: ZERO}
            return [node]
        groups = [walk(child, depth + 1) for child in node]
        for gi, group in enumerate(groups):
            for other in groups[gi + 1:]:
                for a in group:
                    for b in other:
                        dist[a][b] = dist[b][a] = levels[depth]
        return [label for group in groups for label in group]

    walk(tree, 0)
    return dist


def code_and_aut(node) -> tuple[str, int]:
    """Canonical shape code and automorphism count: the product of the
    children's counts times m! for every group of m isomorphic children."""
    if is_leaf(node):
        return "()", 1
    parts = sorted(code_and_aut(child) for child in node)
    aut = prod(a for _, a in parts)
    for _, group in groupby(code for code, _ in parts):
        aut *= factorial(len(list(group)))
    return "(" + "".join(code for code, _ in parts) + ")", aut


def iso_count(tree) -> int:
    return code_and_aut(tree)[1]


def clo_count(tree) -> int:
    """Convex orders are the sibling rearrangements: prod of (children)!."""
    if is_leaf(tree):
        return 1
    return factorial(len(tree)) * prod(clo_count(child) for child in tree)


def branching(tree) -> list[set[int]]:
    """Child counts seen at each depth above the leaves."""
    out: list[set[int]] = [set() for _ in range(height(tree))]

    def walk(node, depth):
        if not is_leaf(node):
            out[depth].add(len(node))
            for child in node:
                walk(child, depth + 1)

    walk(tree, 0)
    return out


def sibling_orders(node) -> list[tuple[str, ...]]:
    """Every leaf sequence reachable by rearranging siblings."""
    if is_leaf(node):
        return [(node,)]
    out = []
    for arrangement in permutations(node):
        for parts in product(*(sibling_orders(child) for child in arrangement)):
            out.append(tuple(label for part in parts for label in part))
    return out


def is_comb(node) -> bool:
    """All branching nodes on one root-to-leaf branch."""
    while not is_leaf(node):
        branching_kids = [c for c in node if not is_leaf(c) and _branches(c)]
        if len(branching_kids) > 1:
            return False
        if not branching_kids:
            return True
        node = branching_kids[0]
    return True


def _branches(node) -> bool:
    return not is_leaf(node) and (len(node) >= 2 or any(_branches(c) for c in node))


# --- shape enumeration --------------------------------------------------------

def _shapes_of(h: int, n: int, memo: dict) -> list[tuple]:
    """Unlabelled trees of height h with n leaves (unary nodes allowed), as
    child tuples sorted by code; () is a leaf."""
    key = (h, n)
    if key in memo:
        return memo[key]
    if h == 0:
        memo[key] = [()] if n == 1 else []
        return memo[key]
    options = sorted(
        ((shape_code(s), s, m) for m in range(1, n + 1) for s in _shapes_of(h - 1, m, memo)),
        key=lambda item: item[0],
    )
    found = []

    def extend(start, remaining, acc):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for i in range(start, len(options)):
            _, sub, m = options[i]
            if m <= remaining:
                acc.append(sub)
                extend(i, remaining - m, acc)
                acc.pop()

    extend(0, n, [])
    memo[key] = found
    return found


def shape_code(shape: tuple) -> str:
    return "(" + "".join(shape_code(c) for c in shape) + ")"


def _every_level_branches(shape: tuple, h: int) -> bool:
    seen = [False] * h

    def walk(node, depth):
        if node:
            if len(node) >= 2:
                seen[depth] = True
            for child in node:
                walk(child, depth + 1)

    walk(shape, 0)
    return all(seen)


def tree_shapes(n: int) -> list[tuple]:
    """Every leveled-tree shape with n leaves, ordered by (height, code)."""
    if n == 1:
        return [()]
    memo: dict = {}
    out = []
    for h in range(1, n):
        found = [s for s in _shapes_of(h, n, memo) if s and _every_level_branches(s, h)]
        out.extend(sorted(found, key=shape_code))
    return out


def label_shape(shape: tuple, labels, rng=None):
    """Nested-list tree with the labels on the leaves, siblings shuffled
    when an rng is given."""
    it = iter(labels)

    def build(node):
        if not node:
            return next(it)
        kids = [build(child) for child in node]
        if rng is not None:
            rng.shuffle(kids)
        return kids

    return build(shape)


# --- spaces -------------------------------------------------------------------

def distinct_distances(labels, dist) -> list[Fraction]:
    return sorted({dist[a][b] for a, b in combinations(labels, 2)}, reverse=True)


def first_violation(labels, dist):
    """First strong-triangle witness in index order: pairs i<j, then z."""
    n = len(labels)
    rank = {v: r for r, v in enumerate(sorted({dist[a][b] for a in labels for b in labels}))}
    d = [[rank[dist[a][b]] for b in labels] for a in labels]
    for i in range(n):
        for j in range(i + 1, n):
            dij, row_i = d[i][j], d[i]
            for z in range(n):
                if z != i and z != j and dij > max(row_i[z], d[z][j]):
                    return labels[i], labels[j], labels[z]
    return None


def canonical_order(labels, dist) -> list[int]:
    """The documented canonical convex order: refine balls radius by
    radius, blocks in order of their smallest point index."""
    radii = distinct_distances(labels, dist)
    out: list[int] = []

    def arrange(points, level):
        if len(points) == 1:
            out.append(points[0])
            return
        threshold = radii[level] if level < len(radii) else ZERO
        blocks: list[list[int]] = []
        for p in sorted(points):
            for block in blocks:
                if dist[labels[block[0]]][labels[p]] <= threshold:
                    block.append(p)
                    break
            else:
                blocks.append([p])
        for block in blocks:
            arrange(block, level + 1)

    arrange(list(range(len(labels))), 1)
    return out


def tree_of_space(labels, dist):
    """Rebuild the leveled tree (nested lists) of a valid space by splitting
    balls level by level; raises ValueError when the matrix is not the dual
    of a leveled tree."""
    levels = distinct_distances(labels, dist)
    h = len(levels)

    def split(block, depth):
        if depth == h:
            if len(block) != 1:
                raise ValueError("distinct points at distance 0")
            return block[0]
        threshold = levels[depth + 1] if depth + 1 < h else ZERO
        parts: list[list[str]] = []
        for p in block:
            for part in parts:
                if dist[part[0]][p] <= threshold:
                    part.append(p)
                    break
            else:
                parts.append([p])
        for part in parts:
            for a, b in combinations(part, 2):
                if dist[a][b] > threshold:
                    raise ValueError("ball is not closed under the threshold")
        for pa, pb in combinations(parts, 2):
            for a in pa:
                for b in pb:
                    if dist[a][b] != levels[depth]:
                        raise ValueError("sibling balls not at the level distance")
        return [split(part, depth + 1) for part in parts]

    return split(list(labels), 0), tuple(levels)


def profile(labels, dist, seq) -> tuple:
    return tuple(
        dist[labels[seq[p]]][labels[seq[q]]]
        for p in range(len(seq)) for q in range(p + 1, len(seq))
    )


def order_types(labels, dist, orders) -> list[list[tuple[int, ...]]]:
    """Orders (index tuples, already sorted) grouped by distance profile,
    classes by first appearance."""
    classes: dict[tuple, list] = {}
    for seq in orders:
        classes.setdefault(profile(labels, dist, seq), []).append(seq)
    return list(classes.values())


def convex_orders(tree, labels) -> list[tuple[int, ...]]:
    """All convex orders as index tuples in lexicographic order."""
    index = {label: i for i, label in enumerate(labels)}
    return sorted(tuple(index[x] for x in seq) for seq in sibling_orders(tree))


# --- copies and arrows --------------------------------------------------------

def copies(amb_labels, amb_dist, pat_labels, pat_dist, amb_order=None, pat_order=None):
    """Point subsets of the ambient space isometric to the pattern, in
    lexicographic subset order; with orders, the monotone identification
    must be the isometry."""
    n, m = len(amb_labels), len(pat_labels)
    out = []
    if amb_order is not None:
        pos = {p: r for r, p in enumerate(amb_order)}
    for subset in combinations(range(n), m):
        if amb_order is not None:
            arranged = sorted(subset, key=pos.__getitem__)
            maps = [{pat_order[r]: arranged[r] for r in range(m)}]
        else:
            maps = ({i: perm[i] for i in range(m)} for perm in permutations(subset))
        for mp in maps:
            if all(
                amb_dist[amb_labels[mp[i]]][amb_labels[mp[j]]]
                == pat_dist[pat_labels[i]][pat_labels[j]]
                for i in range(m) for j in range(i + 1, m)
            ):
                out.append(frozenset(subset))
                break
    return out


def arrow_members(x_sets, y_sets) -> list[list[int]]:
    return [[i for i, xs in enumerate(x_sets) if xs <= ys] for ys in y_sets]


def is_counterexample(colors, members, l: int) -> bool:
    """Every Y-copy sees more than l colors."""
    return all(len({colors[i] for i in mem}) > l for mem in members)


def arrow_holds(x_sets, y_sets, k: int, l: int) -> bool:
    """Exhaustive: no k-coloring of the X-copies is a counterexample.  The
    first copy's color is pinned, since permuting colors maps
    counterexamples to counterexamples."""
    members = arrow_members(x_sets, y_sets)
    if not x_sets:
        return not is_counterexample((), members, l)
    for rest in product(range(k), repeat=len(x_sets) - 1):
        if is_counterexample((0,) + rest, members, l):
            return False
    return True


# --- homogeneous model --------------------------------------------------------
#
# A point is a dict {scale: nonzero value}.

def qs_diff(x: dict, y: dict):
    """Largest scale where the points differ, or None."""
    scales = sorted(set(x) | set(y), reverse=True)
    for s in scales:
        if x.get(s, ZERO) != y.get(s, ZERO):
            return s
    return None


def qs_dist(x: dict, y: dict) -> Fraction:
    s = qs_diff(x, y)
    return ZERO if s is None else s


def qs_cmp(x: dict, y: dict) -> int:
    s = qs_diff(x, y)
    if s is None:
        return 0
    return -1 if x.get(s, ZERO) < y.get(s, ZERO) else 1


def _clean(point: dict) -> dict:
    return {s: v for s, v in point.items() if v != 0}


def pl_apply(breakpoints, slopes, x: Fraction) -> Fraction:
    """Identity up to the first breakpoint, then the given slope on each
    successive segment, the last one unbounded."""
    if not breakpoints or x <= breakpoints[0]:
        return x
    value = breakpoints[0]
    for i, b in enumerate(breakpoints):
        nxt = breakpoints[i + 1] if i + 1 < len(breakpoints) else None
        if nxt is None or x <= nxt:
            return value + slopes[i] * (x - b)
        value += slopes[i] * (nxt - b)
    raise AssertionError("unreachable")


def apply_move(move: dict, point: dict) -> dict:
    if move["kind"] == "translate":
        out = dict(point)
        for s, v in move["offset"].items():
            out[s] = out.get(s, ZERO) + v
        return _clean(out)
    s = move["s"]
    above = {t: v for t, v in point.items() if t > s}
    if above != move["center"] or point.get(s, ZERO) <= move["alpha"]:
        return point
    out = dict(point)
    out[s] = pl_apply(move["breaks"], move["slopes"], point.get(s, ZERO))
    for t, delta in move["shifts"]:
        out[t] = out.get(t, ZERO) + delta
    return _clean(out)


def apply_moves(moves, point: dict) -> dict:
    for move in moves:
        point = apply_move(move, point)
    return point


def _inline_point(token: str) -> dict:
    if token == "0":
        return {}
    return _clean({parse_q(a): parse_q(b) for a, b in (c.split(":", 1) for c in token.split(","))})


def _inline_pairs(token: str) -> list[tuple[Fraction, Fraction]]:
    if token == "-":
        return []
    return [(parse_q(a), parse_q(b)) for a, b in (c.split(":", 1) for c in token.split(","))]


def parse_moves(lines) -> list[dict]:
    """Read the documented move-list format; raises ValueError on anything
    else."""
    moves = []
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] == "translate":
            moves.append({"kind": "translate", "offset": _inline_point(parts[1])})
            continue
        if not parts or parts[0] != "coordmap":
            raise ValueError(f"unknown move {line!r}")
        fields = dict(p.split("=", 1) for p in parts[1:])
        phi = _inline_pairs(fields["phi"])
        moves.append({
            "kind": "coordmap",
            "s": parse_q(fields["s"]),
            "center": _inline_point(fields["center"]),
            "alpha": parse_q(fields["alpha"]),
            "breaks": [b for b, _ in phi],
            "slopes": [m for _, m in phi],
            "shifts": _inline_pairs(fields["shifts"]),
        })
    return moves


# --- text formats -------------------------------------------------------------

def uspace_text(labels, dist) -> str:
    lines = ["uspace v1", f"points {len(labels)}", "labels " + " ".join(labels)]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            lines.append(f"d {a} {b} {fmt_q(dist[a][b])}")
    return "\n".join(lines) + "\n"


def parse_uspace(text: str):
    """Labels in file order and the distance lookup; ValueError when the
    text is not a complete USPACE document."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if lines[0] != ["uspace", "v1"] or lines[1][0] != "points" or lines[2][0] != "labels":
        raise ValueError("not a USPACE document")
    labels = tuple(lines[2][1:])
    if len(labels) != int(lines[1][1]) or len(set(labels)) != len(labels):
        raise ValueError("bad labels line")
    dist = {a: {a: ZERO} for a in labels}
    for parts in lines[3:]:
        if len(parts) != 4 or parts[0] != "d" or parts[2] in dist[parts[1]]:
            raise ValueError(f"bad distance line {parts!r}")
        dist[parts[1]][parts[2]] = dist[parts[2]][parts[1]] = parse_q(parts[3])
    if any(len(row) != len(labels) for row in dist.values()):
        raise ValueError("missing distance lines")
    return labels, dist


def utree_text(tree, levels) -> str:
    def render(node):
        return node if is_leaf(node) else "(" + " ".join(render(c) for c in node) + ")"

    return "\n".join(["utree v1", " ".join(["levels"] + [fmt_q(v) for v in levels]), render(tree)]) + "\n"


def parse_utree(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines[0] != "utree v1" or not lines[1].startswith("levels"):
        raise ValueError("not a UTREE document")
    levels = tuple(parse_q(t) for t in lines[1].split()[1:])
    tokens = " ".join(lines[2:]).replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            node = stack.pop()
            stack[-1].append(node)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced tree text")
    return stack[0][0], levels


def menu_text(values) -> str:
    return "\n".join(["menu v1"] + [fmt_q(v) for v in values]) + "\n"


def qpoint_text(point: dict) -> str:
    lines = ["qpoint v1"] + [f"{fmt_q(s)} {fmt_q(v)}" for s, v in sorted(point.items(), reverse=True)]
    return "\n".join(lines) + "\n"
