"""Command-line entry point.

One verb per library operation, deterministic line-oriented output, and a
stable exit-code contract: 0 success or property holds, 1 property fails
or invalid input, 2 budget exceeded or usage error.  Randomized verbs take
--seed (default 0) and print it in their report header.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    BudgetExceeded,
    FormatError,
    OracleFailure,
    SpaceValidationError,
    UmrError,
)
from .orders import (
    count_convex_orders,
    enumerate_convex_orders,
    order_invariant_hull,
    order_type_partition,
    tau,
)
from .ramsey import (
    DEFAULT_BUDGET,
    chain_upper_bound,
    format_arrow_report,
    order_type_coloring,
    search_witness,
    verify_arrow,
    verify_degree_lower,
)
from .rational import format_rational
from .shapes import extremal_scan
from .spaces import canonical_convex_order, format_uspace, order_labels, parse_uspace
from .trees import canonical_tree, count_automorphisms, format_utree, parse_utree, tree_to_space
from .urysohn import (
    check_homogeneity,
    extend_isometry,
    format_automorphism,
    parse_menu,
    parse_qpoint,
    qs_distance,
    qs_lex_compare,
)

_CMP_WORDS = {-1: "less", 0: "equal", 1: "greater"}


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_space(path: str):
    return parse_uspace(_read(path))


def _load_tree_or_space_tree(path: str):
    """Accept either format for tree-shaped queries, sniffing the header."""
    text = _read(path)
    head = text.lstrip().splitlines()[0] if text.strip() else ""
    if head == "utree v1":
        return parse_utree(text)
    return canonical_tree(parse_uspace(text))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umr",
        description="exact computations on finite ultrametric spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, *, files: int = 0, xyz: bool = False, kl: bool = False,
            ordered: bool = False, budget: bool = False, n: bool = False):
        p = sub.add_parser(name)
        if files:
            p.add_argument("files", nargs=files)
        if xyz:
            p.add_argument("--Z", required=True)
            p.add_argument("--Y", required=True)
            p.add_argument("--X", required=True)
        if kl:
            p.add_argument("-k", type=int, default=2)
            p.add_argument("-l", type=int, default=1)
        if ordered:
            p.add_argument("--ordered", action="store_true")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if n:
            p.add_argument("-n", type=int, required=True)
        return p

    add("validate", files=1)
    add("tree", files=1)
    add("space", files=1)
    add("iso", files=1)
    add("clo", files=1)
    add("tau", files=1)
    add("orders", files=1)
    add("types", files=1)
    add("hull", files=1)
    add("arrow", xyz=True, kl=True, ordered=True, budget=True)
    coloring = sub.add_parser("coloring")
    coloring.add_argument("--Z", required=True)
    coloring.add_argument("--X", required=True)
    degree = sub.add_parser("degree-lower")
    degree.add_argument("--Z", required=True)
    degree.add_argument("--Y", required=True)
    degree.add_argument("--X", required=True)
    chain = sub.add_parser("chain")
    chain.add_argument("--Y", required=True)
    chain.add_argument("--X", required=True)
    chain.add_argument("-k", type=int, default=2)
    chain.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    search = sub.add_parser("search")
    search.add_argument("--Y", required=True)
    search.add_argument("--X", required=True)
    search.add_argument("-k", type=int, default=2)
    search.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add("extremal", n=True)
    qs_dist = sub.add_parser("qs-dist")
    qs_dist.add_argument("files", nargs=2)
    qs_dist.add_argument("--menu", required=True)
    qs_cmp = sub.add_parser("qs-cmp")
    qs_cmp.add_argument("files", nargs=2)
    qs_cmp.add_argument("--menu", required=True)
    qs_extend = sub.add_parser("qs-extend")
    qs_extend.add_argument("files", nargs="+")
    qs_extend.add_argument("--menu", required=True)
    qs_check = sub.add_parser("qs-check")
    qs_check.add_argument("--menu", required=True)
    qs_check.add_argument("-n", type=int, default=3)
    qs_check.add_argument("--trials", type=int, default=200)
    qs_check.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except BudgetExceeded as exc:
        print(f"budget-exceeded colorings={exc.colorings}")
        return 2
    except OracleFailure as exc:
        print(f"OracleFailure {exc}")
        return 2
    except (SpaceValidationError, FormatError) as exc:
        print(str(exc) if isinstance(exc, SpaceValidationError) else f"FormatError {exc}")
        return 1
    except (UmrError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__} {exc}")
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    verb = args.verb

    if verb == "validate":
        space = _load_space(args.files[0])
        print(f"valid points={space.size}")
        return 0

    if verb == "tree":
        print(format_utree(canonical_tree(_load_space(args.files[0]))), end="")
        return 0

    if verb == "space":
        tree = parse_utree(_read(args.files[0]))
        space, _ = tree_to_space(tree)
        print(format_uspace(space), end="")
        return 0

    if verb == "iso":
        print(f"iso={count_automorphisms(_load_tree_or_space_tree(args.files[0]))}")
        return 0

    if verb == "clo":
        print(f"clo={count_convex_orders(_load_space(args.files[0]))}")
        return 0

    if verb == "tau":
        report = tau(_load_space(args.files[0]))
        print(f"clo={report.clo_count} iso={report.iso_count} tau={report.tau}")
        return 0

    if verb == "orders":
        space = _load_space(args.files[0])
        for order in enumerate_convex_orders(space):
            print("order " + " ".join(order_labels(space, order)))
        return 0

    if verb == "types":
        space = _load_space(args.files[0])
        for i, cls in enumerate(order_type_partition(space)):
            rep = " ".join(order_labels(space, cls.representative))
            print(f"type {i} size={len(cls.members)} rep={rep}")
        return 0

    if verb == "hull":
        print(format_uspace(order_invariant_hull(_load_space(args.files[0]))), end="")
        return 0

    if verb == "arrow":
        ambient = _load_space(args.Z)
        target = _load_space(args.Y)
        pattern = _load_space(args.X)
        kwargs = {}
        if args.ordered:
            kwargs = {
                "ambient_order": canonical_convex_order(ambient),
                "target_order": canonical_convex_order(target),
                "pattern_order": canonical_convex_order(pattern),
            }
        try:
            verdict = verify_arrow(
                ambient, target, pattern, args.k, args.l,
                budget=args.budget, **kwargs,
            )
        except BudgetExceeded as exc:
            print(format_arrow_report(exc), end="")
            return 2
        print(format_arrow_report(verdict), end="")
        return 0 if verdict.holds else 1

    if verb == "coloring":
        ambient = _load_space(args.Z)
        pattern = _load_space(args.X)
        coloring = order_type_coloring(ambient, canonical_convex_order(ambient), pattern)
        print(f"coloring k={coloring.k} copies={len(coloring.copies)}")
        for i, color in enumerate(coloring.colors):
            print(f"copy {i} color {color}")
        return 0

    if verb == "degree-lower":
        ambient = _load_space(args.Z)
        target = _load_space(args.Y)
        pattern = _load_space(args.X)
        ok = verify_degree_lower(pattern, target, ambient, canonical_convex_order(ambient))
        print(f"degree-lower {'holds' if ok else 'fails'}")
        return 0 if ok else 1

    if verb == "chain":
        pattern = _load_space(args.X)
        target = _load_space(args.Y)
        result = chain_upper_bound(pattern, target, args.k, budget=args.budget)
        if result.verdict is None:
            checked = "skipped"
        else:
            checked = "holds" if result.verdict.holds else "fails"
        print(
            f"chain steps={len(result.steps)} points={result.space.size} "
            f"l={result.value_bound} verified={checked}"
        )
        print(format_uspace(result.space), end="")
        if checked == "fails":
            return 1
        return 0 if checked == "holds" else 2

    if verb == "search":
        pattern = _load_space(args.X)
        target = _load_space(args.Y)
        try:
            witness, _ = search_witness(
                pattern, canonical_convex_order(pattern),
                target, canonical_convex_order(target),
                args.k, budget=args.budget,
            )
        except BudgetExceeded as exc:
            print(f"search budget-exceeded colorings={exc.colorings}")
            return 2
        print(f"witness points={witness.size}")
        print(format_uspace(witness), end="")
        return 0

    if verb == "extremal":
        report = extremal_scan(args.n)
        print(
            f"extremal n={report.leaves} shapes={report.shape_count} "
            f"max-tau={report.max_degree} comb-tau={report.comb_degree} "
            f"argmax={len(report.argmax)} "
            f"all-combs={'yes' if report.all_combs else 'no'}"
        )
        for finding in report.argmax:
            comb = "yes" if finding.comb else "no"
            print(f"shape {finding.code.text} tau={finding.degree} comb={comb}")
        return 0

    menu = parse_menu(_read(args.menu))

    if verb == "qs-dist":
        x = parse_qpoint(_read(args.files[0]), menu)
        y = parse_qpoint(_read(args.files[1]), menu)
        print(f"d={format_rational(qs_distance(x, y, menu))}")
        return 0

    if verb == "qs-cmp":
        x = parse_qpoint(_read(args.files[0]), menu)
        y = parse_qpoint(_read(args.files[1]), menu)
        print(f"cmp={_CMP_WORDS[qs_lex_compare(x, y, menu)]}")
        return 0

    if verb == "qs-extend":
        if len(args.files) % 2 != 0:
            print("qs-extend needs an even number of qpoint files (x1 y1 x2 y2 ...)")
            return 2
        points = [parse_qpoint(_read(f), menu) for f in args.files]
        pairs = list(zip(points[0::2], points[1::2]))
        auto = extend_isometry(pairs, menu)
        print(f"moves={len(auto.moves)}")
        print(format_automorphism(auto), end="")
        return 0

    if verb == "qs-check":
        print(f"seed={args.seed}")
        report = check_homogeneity(menu, args.n, args.trials, args.seed)
        print(
            f"qs-check trials={report.trials} n={args.n} "
            f"pass={report.passes} fail={len(report.failures)}"
        )
        return 0 if report.all_passed else 1

    raise AssertionError(f"unhandled verb {verb}")


if __name__ == "__main__":
    sys.exit(main())
