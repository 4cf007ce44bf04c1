"""Seeded workload generator.

``build(workload, seed, directory)`` writes every input file the workload
needs into ``directory`` and returns the job list: for each job the ``umr``
argv and a checker for its answer.  The same seed gives byte-identical
files and the same argv list.  Labels and point order are shuffled and
level distances are random rationals with non-unit denominators.  The
generator uses only ``model``; it never calls the library.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path
from typing import Callable

from . import check, model

WORKLOADS = ("census", "large", "arrow", "homogeneity")


@dataclass
class Job:
    argv: list[str]
    check: Callable[[int, str], str | None]
    anchor: str | None = None


class _Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def put(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.directory / f"f{self.count:05d}.{suffix}"
        path.write_text(text)
        return str(path)


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    """Random rational in (lo, hi) whose lowest-terms denominator is not 1."""
    while True:
        den = rng.randint(2, 9)
        value = Fraction(rng.randint(lo * den + 1, hi * den - 1), den)
        if value.denominator != 1:
            return value


def _levels(rng: random.Random, h: int) -> tuple[Fraction, ...]:
    values: set[Fraction] = set()
    while len(values) < h:
        values.add(_rational(rng, 0, 40))
    return tuple(sorted(values, reverse=True))


def _labels(rng: random.Random, n: int) -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add(rng.choice(string.ascii_lowercase) + str(rng.randrange(10000)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def _shape_from_code(code: str) -> tuple:
    stack: list[list] = [[]]
    for ch in code:
        if ch == "(":
            stack.append([])
        else:
            node = tuple(stack.pop())
            stack[-1].append(node)
    return stack[0][0]


class _Space:
    """A generated space: its tree, levels, file order and distances."""

    def __init__(self, rng: random.Random, shape: tuple):
        self.levels = _levels(rng, _shape_height(shape))
        self.tree = model.label_shape(shape, _labels(rng, _shape_leaves(shape)), rng)
        self.labels = model.leaves(self.tree)
        rng.shuffle(self.labels)
        self.labels = tuple(self.labels)
        self.dist = model.tree_distances(self.tree, self.levels)


def _shape_height(shape: tuple) -> int:
    return 0 if not shape else 1 + _shape_height(shape[0])


def _shape_leaves(shape: tuple) -> int:
    return 1 if not shape else sum(_shape_leaves(c) for c in shape)


def _mark(jobs: list[Job], verbs, name: str) -> list[Job]:
    for job in jobs:
        if job.argv[0] in verbs and job.argv[1].endswith(".uspace"):
            job.anchor = name.format(verb=job.argv[0])
    return jobs


def _space_jobs(w: _Writer, sp: _Space, verbs) -> list[Job]:
    """The per-space verbs on the USPACE, then space/iso on the UTREE."""
    labels, dist, tree, levels = sp.labels, sp.dist, sp.tree, sp.levels
    n = len(labels)
    uspace = w.put(model.uspace_text(labels, dist), "uspace") if verbs else None
    utree = w.put(model.utree_text(tree, levels), "utree")
    iso, clo = model.iso_count(tree), model.clo_count(tree)
    jobs = []
    for verb in verbs:
        if verb == "validate":
            expect = check.exact(f"valid points={n}\n", 0)
        elif verb == "tree":
            expect = check.tree_roundtrip(labels, dist)
        elif verb == "iso":
            expect = check.exact(f"iso={iso}\n", 0)
        elif verb == "clo":
            expect = check.exact(f"clo={clo}\n", 0)
        elif verb == "tau":
            expect = check.exact(f"clo={clo} iso={iso} tau={clo // iso}\n", 0)
        elif verb == "orders":
            orders = model.convex_orders(tree, labels)
            text = "".join("order " + " ".join(labels[i] for i in seq) + "\n" for seq in orders)
            expect = check.exact(text, 0)
        elif verb == "types":
            classes = model.order_types(labels, dist, model.convex_orders(tree, labels))
            text = "".join(
                f"type {i} size={len(c)} rep={' '.join(labels[p] for p in c[0])}\n"
                for i, c in enumerate(classes)
            )
            expect = check.exact(text, 0)
        elif verb == "hull":
            widths = [max(s) for s in model.branching(tree)]
            expect = check.hull(labels, dist, widths, levels)
        else:
            raise ValueError(verb)
        jobs.append(Job([verb, uspace], expect))
    jobs.append(Job(["space", utree], check.space_roundtrip(labels, dist)))
    jobs.append(Job(["iso", utree], check.exact(f"iso={iso}\n", 0)))
    return jobs


# --- census ---------------------------------------------------------------------

CENSUS_VERBS = ("validate", "tree", "iso", "clo", "tau", "orders", "types", "hull")
# Fixed 7- and 8-point shapes; the last is the uniform (2,2,2) tree.
CENSUS_EXTRA = (
    "((()()())(()())(()()))",
    "(((()())(()()()))((()())))",
    "(((()())(()()))((()())(()())))",
)


def _census(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    shapes = [s for n in range(1, 7) for s in model.tree_shapes(n)]
    shapes += [_shape_from_code(c) for c in CENSUS_EXTRA]
    for shape in shapes:
        space_jobs = _space_jobs(w, _Space(rng, shape), CENSUS_VERBS)
        if model.shape_code(shape) == CENSUS_EXTRA[-1]:
            _mark(space_jobs, ("orders", "types"), "{verb} on the (2,2,2) space")
        jobs += space_jobs
    for n in range(2, 8):
        jobs.append(_extremal_job(n))
    return jobs


def _extremal_job(n: int) -> Job:
    shapes = model.tree_shapes(n)
    taus = [model.clo_count(t) // model.iso_count(t) for t in (model.label_shape(s, _names()) for s in shapes)]
    best = max(taus)
    argmax = [s for s, t in zip(shapes, taus) if t == best]
    combs = [model.is_comb(model.label_shape(s, _names())) for s in argmax]
    comb_tau = 2 ** (n - 2)
    lines = [
        f"extremal n={n} shapes={len(shapes)} max-tau={best} comb-tau={comb_tau} "
        f"argmax={len(argmax)} all-combs={'yes' if all(combs) else 'no'}"
    ]
    for s, c in zip(argmax, combs):
        lines.append(f"shape {model.shape_code(s)} tau={best} comb={'yes' if c else 'no'}")
    anchor = "extremal -n 7" if n == 7 else None
    return Job(["extremal", "-n", str(n)], check.exact("\n".join(lines) + "\n", 0), anchor)


def _names():
    return (f"p{i}" for i in range(10 ** 6))


# --- large ----------------------------------------------------------------------

LARGE_VALID = (48, 52, 56, 60)
LARGE_ANCHOR = 144
LARGE_INVALID = (56, 72, 88)
LARGE_VERBS = ("validate", "tree", "iso", "clo", "tau", "hull")


def _random_tree_shape(rng: random.Random, n: int) -> tuple:
    """A uniform height-3 tree whose leaf count is a little above n, pruned
    at random leaves down to n, so the hull stays within about 1.3 n points.
    The fixed height keeps the per-level work alike from seed to seed."""
    vectors = [v for v in product(range(2, 7), repeat=3) if n <= prod(v) <= 1.3 * n]
    while True:
        vector = rng.choice(vectors)

        def full(depth):
            return [] if depth == len(vector) else [full(depth + 1) for _ in range(vector[depth])]

        root = full(0)
        for _ in range(prod(vector) - n):
            path = [root]
            while path[-1]:
                path.append(rng.choice(path[-1]))
            for parent, child in zip(reversed(path[:-1]), reversed(path[1:])):
                if child:
                    break
                parent.remove(child)
        shape = _freeze(root)
        if _all_levels_branch(shape, len(vector)):
            return shape


def _freeze(node: list) -> tuple:
    return tuple(_freeze(c) for c in node)


def _all_levels_branch(shape: tuple, h: int) -> bool:
    widths = model.branching(model.label_shape(shape, _names()))
    return len(widths) == h and all(max(s) >= 2 for s in widths)


def _large(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    for n in LARGE_VALID:
        jobs += _space_jobs(w, _Space(rng, _random_tree_shape(rng, n)), LARGE_VERBS)
    anchor = _Space(rng, _random_tree_shape(rng, LARGE_ANCHOR))
    jobs += _mark(_space_jobs(w, anchor, ("validate",)), ("validate",), "validate on a 144-point space")
    for n in LARGE_INVALID:
        sp = _Space(rng, _random_tree_shape(rng, n))
        invalid = _space_jobs(w, sp, ())
        # Raise one distance near the end of the scan above every level:
        # only that pair can witness a violation, after nearly all of the
        # O(n^3) triple scan has run.
        i = n - 2 - rng.randrange(3)
        a, b = sp.labels[i], sp.labels[-1]
        dist = {p: dict(row) for p, row in sp.dist.items()}
        dist[a][b] = dist[b][a] = sp.levels[0] + _rational(rng, 0, 5)
        witness = model.first_violation(sp.labels, dist)
        path = w.put(model.uspace_text(sp.labels, dist), "uspace")
        jobs.append(Job(["validate", path], check.exact("UltrametricViolation " + " ".join(witness) + "\n", 1)))
        jobs += invalid
    return jobs


# --- arrow ----------------------------------------------------------------------

def _small(rng: random.Random, w: _Writer, tree, levels) -> tuple:
    """(labels, dist, levels, tree, path) for a small space in shuffled
    file order."""
    labels = model.leaves(tree)
    rng.shuffle(labels)
    labels = tuple(labels)
    dist = model.tree_distances(tree, levels)
    return labels, dist, levels, tree, w.put(model.uspace_text(labels, dist), "uspace")


def _arrow(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    d = _rational(rng, 0, 40)

    def eq(n):
        return _small(rng, w, _labels(rng, n), (d,))

    e2, e3 = eq(2), eq(3)
    # (ambient size, k, l, verdict from R(3,3) = 6 and pigeonhole, variants).
    # Three K6 spaces put a cluster of equal-cost exhaustive searches at
    # p90, so that percentile does not hinge on two unlike jobs.
    instances = (
        (3, 2, 1, False, (False, True)),
        (4, 3, 1, False, (False, True)),
        (5, 2, 1, False, (False, True)),
        (5, 3, 2, True, (False, True)),
        (6, 2, 1, True, (False, True)),
        (6, 2, 1, True, (False, True)),
        (6, 2, 1, True, (False, True)),
        (7, 2, 1, True, (False,)),
    )
    for n, k, l, verdict, variants in instances:
        z = eq(n)
        for ordered in variants:
            anchor = "K6 arrow, pairs, 2 colors" if (n, k, ordered) == (6, 2, False) else None
            if anchor and any(job.anchor == anchor for job in jobs):
                anchor = None
            jobs.append(_arrow_job(z, e3, e2, k, l, ordered, verdict, anchor))

    hi, lo = _levels(rng, 2)
    a, b, c, x, y = _labels(rng, 5)
    spaces = {
        "c3": _small(rng, w, [[a, b], [c]], (hi, lo)),
        "h3": _small(rng, w, [[a, b], [x, y]], (hi, lo)),
        "e2lo": _small(rng, w, [a, b], (lo,)),
        "e2hi": _small(rng, w, [a, c], (hi,)),
        "e3": _small(rng, w, [a, c, x], (hi,)),
    }
    # Small instances whose verdict the benchmark decides exhaustively.
    for zn, yn, xn in (("h3", "c3", "e2lo"), ("h3", "c3", "e2hi"), ("h3", "h3", "e2hi"), ("c3", "c3", "e2lo"),
                       ("e3", "e2hi", "e2hi"), ("h3", "e2lo", "e2lo"), ("h3", "c3", "c3")):
        for ordered, k, l in ((False, 2, 1), (True, 2, 1), (False, 3, 2), (True, 3, 2)):
            jobs.append(_arrow_job(spaces[zn], spaces[yn], spaces[xn], k, l, ordered, None))
    for zn, xn in (("h3", "c3"), ("h3", "e2lo"), ("h3", "e2hi"), ("e3", "e2hi"), ("c3", "e2lo"), ("h3", "h3")):
        jobs.append(_coloring_job(spaces[zn], spaces[xn]))
    for zn, yn, xn in (("h3", "h3", "c3"), ("h3", "c3", "c3"), ("h3", "c3", "e2lo"), ("e3", "e3", "e2hi"), ("h3", "h3", "e2hi")):
        jobs.append(_degree_job(spaces[zn], spaces[yn], spaces[xn]))
    for xn, yn in (("e2hi", "e3"), ("e2lo", "c3"), ("e2hi", "c3"), ("c3", "c3"), ("c3", "h3"), ("e2lo", "h3")):
        jobs.append(_search_job(spaces[xn], spaces[yn], 2))
    for xn, yn in (("e2hi", "e3"), ("e2lo", "c3"), ("c3", "c3")):
        x, y = spaces[xn], spaces[yn]
        types = len(model.order_types(x[0], x[1], model.convex_orders(x[3], x[0])))
        jobs.append(Job(["chain", "--X", x[4], "--Y", y[4], "-k", "2"], check.chain(2, types, x, y)))
    return jobs


def _arrow_job(z, y, x, k: int, l: int, ordered: bool, verdict, anchor=None) -> Job:
    """``verdict`` None: decide it here by exhausting colorings."""
    if ordered:
        zo = model.canonical_order(z[0], z[1])
        x_sets = model.copies(z[0], z[1], x[0], x[1], zo, model.canonical_order(x[0], x[1]))
        y_sets = model.copies(z[0], z[1], y[0], y[1], zo, model.canonical_order(y[0], y[1]))
    else:
        x_sets = model.copies(z[0], z[1], x[0], x[1])
        y_sets = model.copies(z[0], z[1], y[0], y[1])
    if verdict is None:
        verdict = model.arrow_holds(x_sets, y_sets, k, l)
    argv = ["arrow", "--Z", z[4], "--Y", y[4], "--X", x[4], "-k", str(k), "-l", str(l)]
    return Job(argv + (["--ordered"] if ordered else []), check.arrow(verdict, k, l, x_sets, y_sets), anchor)


def _type_coloring(z, x):
    """Copies of X in Z and the order-type color of each under Z's
    canonical order."""
    reps = [model.profile(x[0], x[1], c[0]) for c in model.order_types(x[0], x[1], model.convex_orders(x[3], x[0]))]
    pos = {p: r for r, p in enumerate(model.canonical_order(z[0], z[1]))}
    sets = model.copies(z[0], z[1], x[0], x[1])
    colors = [reps.index(model.profile(z[0], z[1], sorted(s, key=pos.__getitem__))) for s in sets]
    return sets, colors, len(reps)


def _coloring_job(z, x) -> Job:
    sets, colors, k = _type_coloring(z, x)
    text = f"coloring k={k} copies={len(sets)}\n" + "".join(f"copy {i} color {c}\n" for i, c in enumerate(colors))
    return Job(["coloring", "--Z", z[4], "--X", x[4]], check.exact(text, 0))


def _degree_job(z, y, x) -> Job:
    sets, colors, k = _type_coloring(z, x)
    holds = all(
        len({colors[i] for i in mem}) == k
        for mem in model.arrow_members(sets, model.copies(z[0], z[1], y[0], y[1]))
    )
    text = f"degree-lower {'holds' if holds else 'fails'}\n"
    return Job(["degree-lower", "--Z", z[4], "--Y", y[4], "--X", x[4]], check.exact(text, 0 if holds else 1))


def _search_job(x, y, k: int) -> Job:
    x_order = model.canonical_order(x[0], x[1])
    y_order = model.canonical_order(y[0], y[1])
    memo: dict = {}

    def pool(vector):
        if vector not in memo:
            def full(depth, counter):
                if depth == len(vector):
                    return f"z{next(counter)}"
                return [full(depth + 1, counter) for _ in range(vector[depth])]

            tree = full(0, iter(range(1, 10 ** 6)))
            labels = model.leaves(tree)
            dist = model.tree_distances(tree, y[2])
            order = list(range(len(labels)))
            x_sets = model.copies(labels, dist, x[0], x[1], order, x_order)
            y_sets = model.copies(labels, dist, y[0], y[1], order, y_order)
            memo[vector] = model.arrow_holds(x_sets, y_sets, k, 1)
        return memo[vector]

    return Job(["search", "--X", x[4], "--Y", y[4], "-k", str(k)], check.search(k, x, y, pool))


# --- homogeneity ------------------------------------------------------------------

QS_CHECK_TRIALS = 8
QS_ANCHOR_TRIALS = 20
# 60 qs-extend configurations, so that the median job is one of them: half
# spread over 5..60 pairs, half of 20 pairs, so that the median falls among
# many alike jobs rather than on one configuration's luck.
QS_EXTEND_SIZES = tuple(20 if i % 2 else 5 + (55 * (i // 2)) // 29 for i in range(60))


def _menu(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    return _levels(rng, size)


def _point(rng: random.Random, menu, pools) -> dict:
    """A point supported on all scales but one: a fixed support size keeps
    each configuration's parsing and comparison work alike across seeds."""
    gap = rng.randrange(len(menu))
    return {s: rng.choice(pools[s]) for i, s in enumerate(menu) if i != gap}


def _value_pools(rng: random.Random, menu) -> dict:
    return {s: sorted({_rational(rng, -6, 6) for _ in range(6)}) for s in menu}


def _random_moves(rng: random.Random, menu, sources) -> list[dict]:
    """A translation plus two ball moves centred on current images, so the
    targets form a non-trivial order-isometric copy."""
    offset = {s: _rational(rng, -6, 6) for s in menu if rng.random() < 0.6} or {menu[0]: Fraction(1, 2)}
    moves = [{"kind": "translate", "offset": offset}]
    for _ in range(2):
        s = rng.choice(menu)
        image = model.apply_moves(moves, rng.choice(sources))
        value = image.get(s, Fraction(0))
        alpha = value - _rational(rng, 0, 3)
        moves.append({
            "kind": "coordmap", "s": s,
            "center": {t: v for t, v in image.items() if t > s},
            "alpha": alpha,
            "breaks": [alpha, alpha + _rational(rng, 0, 4)],
            "slopes": [_rational(rng, 0, 3), _rational(rng, 0, 3)],
            "shifts": [(t, _rational(rng, -3, 3)) for t in menu if t < s and rng.random() < 0.5],
        })
    return moves


def _homogeneity(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    anchor_menu = w.put(model.menu_text((Fraction(1), Fraction(1, 2), Fraction(1, 4))), "menu")
    seed = rng.randrange(10 ** 6)
    jobs.append(Job(
        ["qs-check", "--menu", anchor_menu, "-n", "5", "--trials", str(QS_ANCHOR_TRIALS), "--seed", str(seed)],
        check.exact(f"seed={seed}\nqs-check trials={QS_ANCHOR_TRIALS} n=5 pass={QS_ANCHOR_TRIALS} fail=0\n", 0),
        "qs-check -n 5 on menu {1, 1/2, 1/4}",
    ))
    for n in range(1, 9):
        for r in range(2):
            menu_path = w.put(model.menu_text(_menu(rng, 3 + (n + r) % 4)), "menu")
            seed = rng.randrange(10 ** 6)
            jobs.append(Job(
                ["qs-check", "--menu", menu_path, "-n", str(n), "--trials", str(QS_CHECK_TRIALS), "--seed", str(seed)],
                check.exact(f"seed={seed}\nqs-check trials={QS_CHECK_TRIALS} n={n} pass={QS_CHECK_TRIALS} fail=0\n", 0),
            ))
    for i, size in enumerate(QS_EXTEND_SIZES):
        menu = _menu(rng, 3 + i % 4)
        pools = _value_pools(rng, menu)
        menu_path = w.put(model.menu_text(menu), "menu")
        sources: list[dict] = []
        while len(sources) < size:
            p = _point(rng, menu, pools)
            if p not in sources:
                sources.append(p)
        moves = _random_moves(rng, menu, sources)
        pairs = [(x, model.apply_moves(moves, x)) for x in sources]
        files = [w.put(model.qpoint_text(p), "qpoint") for pair in pairs for p in pair]
        jobs.append(Job(["qs-extend", *files, "--menu", menu_path], check.moves_replay(pairs)))
        if i % 3 == 0:
            x, y = rng.choice(sources), rng.choice(sources)
            px, py = w.put(model.qpoint_text(x), "qpoint"), w.put(model.qpoint_text(y), "qpoint")
            word = {-1: "less", 0: "equal", 1: "greater"}[model.qs_cmp(x, y)]
            jobs.append(Job(["qs-dist", px, py, "--menu", menu_path], check.exact(f"d={model.fmt_q(model.qs_dist(x, y))}\n", 0)))
            jobs.append(Job(["qs-cmp", px, py, "--menu", menu_path], check.exact(f"cmp={word}\n", 0)))
    return jobs


_BUILDERS = {"census": _census, "large": _large, "arrow": _arrow, "homogeneity": _homogeneity}


def build(workload: str, seed: int, directory: Path) -> list[Job]:
    """Write the workload's inputs for this seed and return its jobs."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Writer(directory))

