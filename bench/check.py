"""Answer checkers.  Each takes the job's exit code and stdout and returns
None when the answer is right, else a short reason.

Expected values come from the generator's own trees and from ``model``,
never from the library.  Work counters the library prints (``colorings=``)
are not checked: they measure effort, not the answer.
"""

from __future__ import annotations

from math import prod

from . import model


def exact(text: str, code: int):
    def check(got_code: int, out: str):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if out != text:
            return "output differs from the expected text"
        return None

    return check


def _same_space(labels, dist, got_labels, got_dist) -> bool:
    if sorted(got_labels) != sorted(labels):
        return False
    return all(
        got_dist[a][b] == dist[a][b]
        for i, a in enumerate(labels) for b in labels[i + 1:]
    )


def tree_roundtrip(labels, dist):
    """``tree`` output: a UTREE whose dual space is the input space."""

    def check(code: int, out: str):
        if code != 0:
            return f"exit {code}"
        try:
            tree, levels = model.parse_utree(out)
        except (ValueError, IndexError):
            return "unparsable UTREE"
        if _leaf_depths(tree) != {len(levels)}:
            return "leaves not all at the depth of the level list"
        got = model.tree_distances(tree, levels)
        if not _same_space(labels, dist, list(got), got):
            return "UTREE dual is not the input space"
        return None

    return check


def _leaf_depths(node, depth=0) -> set[int]:
    if model.is_leaf(node):
        return {depth}
    return set().union(*(_leaf_depths(c, depth + 1) for c in node))


def space_roundtrip(labels, dist):
    """``space`` output: a USPACE equal to the generating tree's dual."""

    def check(code: int, out: str):
        if code != 0:
            return f"exit {code}"
        try:
            got_labels, got_dist = model.parse_uspace(out)
        except (ValueError, IndexError, KeyError, ZeroDivisionError):
            return "unparsable USPACE"
        if not _same_space(labels, dist, got_labels, got_dist):
            return "USPACE differs from the tree's dual"
        return None

    return check


def hull(labels, dist, widths, levels):
    """``hull`` output contains the input with its labels and distances,
    and branches uniformly with each level's largest input branching."""

    def check(code: int, out: str):
        if code != 0:
            return f"exit {code}"
        try:
            got_labels, got_dist = model.parse_uspace(out)
            tree, got_levels = model.tree_of_space(got_labels, got_dist)
        except (ValueError, IndexError, KeyError, ZeroDivisionError):
            return "hull is not a valid ultrametric USPACE"
        if not set(labels) <= set(got_labels):
            return "hull lost input points"
        if any(got_dist[a][b] != dist[a][b] for i, a in enumerate(labels) for b in labels[i + 1:]):
            return "hull changed input distances"
        if got_levels != tuple(levels):
            return "hull has other distances"
        if [sorted(s) for s in model.branching(tree)] != [[w] for w in widths]:
            return "hull does not branch uniformly at the input's widths"
        return None

    return check


def arrow(verdict: bool, k: int, l: int, x_sets, y_sets):
    """``arrow``: the known verdict, the copy count, and on failure a
    coloring that really is a counterexample."""
    n_copies = len(x_sets)

    def check(code: int, out: str):
        lines = out.splitlines()
        status = "holds" if verdict else "fails"
        head = f"arrow {status} copies={n_copies} colorings="
        if not lines or not lines[0].startswith(head) or not lines[0][len(head):].isdigit():
            return f"expected '{head}...'"
        if verdict:
            return None if code == 0 and len(lines) == 1 else "unexpected exit or trailing lines"
        if code != 1 or len(lines) != 1 + n_copies:
            return "failing arrow must exit 1 and color every copy"
        colors = []
        for i, line in enumerate(lines[1:]):
            parts = line.split()
            if parts[:3] != ["copy", str(i), "color"] or len(parts) != 4:
                return f"bad coloring line {line!r}"
            colors.append(int(parts[3]))
        if any(c < 0 or c >= k for c in colors):
            return "color out of range"
        if not model.is_counterexample(colors, model.arrow_members(x_sets, y_sets), l):
            return "coloring is not a counterexample"
        return None

    return check


def search(k: int, x, y, pool):
    """``search``: a uniformly branching witness with the target's levels,
    on which the ordered arrow holds (checked exhaustively), and no
    smaller pool member is one.  ``pool`` maps a branching vector to
    whether the ordered arrow holds on that candidate."""

    def check(code: int, out: str):
        lines = out.splitlines(keepends=True)
        if code != 0 or not lines or not lines[0].startswith("witness points="):
            return "no witness"
        try:
            labels, dist = model.parse_uspace("".join(lines[1:]))
            tree, levels = model.tree_of_space(labels, dist)
        except (ValueError, IndexError, KeyError, ZeroDivisionError):
            return "witness is not a valid USPACE"
        if lines[0] != f"witness points={len(labels)}\n":
            return "point count mismatch"
        widths = model.branching(tree)
        if any(len(w) != 1 for w in widths) or levels != y[2]:
            return "witness is not in the uniform pool"
        vector = tuple(min(w) for w in widths)
        if model.leaves(tree) != list(labels):
            return "witness points are not listed in leaf order"
        if not pool(vector):
            return "ordered arrow fails on the witness"
        if any(pool(v) for v in pool_before(vector)):
            return "a smaller pool member is already a witness"
        return None

    return check


def pool_before(vector):
    """Uniform branching vectors the search visits before ``vector``:
    smaller leaf count, then lexicographically smaller."""
    target = prod(vector)

    def vectors(h, product):
        if h == 1:
            if product >= 2:
                yield (product,)
            return
        for b in range(2, product + 1):
            if product % b == 0:
                for rest in vectors(h - 1, product // b):
                    yield (b,) + rest

    out = []
    for total in range(2 ** len(vector), target + 1):
        out.extend(v for v in vectors(len(vector), total) if total < target or v < vector)
    return out


def chain(k: int, types: int, x, y):
    """``chain``: one step per order type of X, verified, and the printed
    space satisfies the unordered arrow with l = types (exhaustive)."""

    def check(code: int, out: str):
        lines = out.splitlines(keepends=True)
        if code != 0 or not lines:
            return f"exit {code}"
        try:
            labels, dist = model.parse_uspace("".join(lines[1:]))
        except (ValueError, IndexError, KeyError, ZeroDivisionError):
            return "chain space is not a valid USPACE"
        want = f"chain steps={types} points={len(labels)} l={types} verified=holds\n"
        if lines[0] != want:
            return f"expected {want.strip()!r}"
        x_sets = model.copies(labels, dist, x[0], x[1])
        y_sets = model.copies(labels, dist, y[0], y[1])
        if not model.arrow_holds(x_sets, y_sets, k, types):
            return "the unordered arrow fails on the chain space"
        return None

    return check


def moves_replay(pairs):
    """``qs-extend``: replaying the printed move list sends every source
    exactly onto its target."""

    def check(code: int, out: str):
        lines = out.splitlines()
        if code != 0 or not lines or not lines[0].startswith("moves="):
            return f"exit {code}"
        try:
            moves = model.parse_moves(lines[1:])
        except (ValueError, KeyError, IndexError, ZeroDivisionError):
            return "unparsable move list"
        if lines[0] != f"moves={len(moves)}":
            return "move count mismatch"
        for x, y in pairs:
            if model.apply_moves(moves, x) != y:
                return "a source misses its target"
        return None

    return check

