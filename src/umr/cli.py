"""Command-line entry point.

One verb per library operation, deterministic line-oriented output, and a
stable exit-code contract: 0 success or property holds, 1 property fails
or invalid input, 2 budget exceeded or usage error.  Randomized verbs take
--seed (default 0) and print it in their report header.

Each verb is declared once, in ``VERBS``: its argument specs and a handler
that prints the report and returns the exit code.  Handlers call the
library through this module's globals, so rebinding a name here (as a
tracer does) reaches every verb.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import BudgetExceeded, OracleFailure, SpaceValidationError, UmrError
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

# verb name -> (argument specs, handler), in the order ``umr -h`` lists them
VERBS: dict[str, tuple] = {}


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as data."""
    return flags, options


_FILE = _arg("files", nargs=1)
_Z, _Y, _X = (_arg(f"--{name}", required=True) for name in "ZYX")
_K = _arg("-k", type=int, default=2)
_BUDGET = _arg("--budget", type=int, default=DEFAULT_BUDGET)
_MENU = _arg("--menu", required=True)


def _verb(name: str, *specs):
    """Register the decorated handler as verb ``name`` taking ``specs``."""
    def register(handler):
        VERBS[name] = (specs, handler)
        return handler
    return register


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser is a fixed function of ``VERBS``: built once, on first use."""
    parser = argparse.ArgumentParser(
        prog="umr",
        description="exact computations on finite ultrametric spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (specs, _) in VERBS.items():
        verb = sub.add_parser(name)
        for flags, options in specs:
            verb.add_argument(*flags, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _, handler = VERBS[args.verb]
    try:
        return handler(args)
    except BudgetExceeded as exc:
        print(f"budget-exceeded colorings={exc.colorings}")
        return 2
    except OracleFailure as exc:
        print(f"OracleFailure {exc}")
        return 2
    except SpaceValidationError as exc:
        print(exc)  # the message already starts with the class name
        return 1
    except (UmrError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__} {exc}")
        return 1


def _read(path: str) -> str:
    """The file's text, decoded and newline-translated as ``open`` does by
    default; an error names the path as typed."""
    with open(path) as file:
        return file.read()


def _load_space(path: str):
    return parse_uspace(_read(path))


@_verb("validate", _FILE)
def _validate(args) -> int:
    print(f"valid points={_load_space(args.files[0]).size}")
    return 0


@_verb("tree", _FILE)
def _tree(args) -> int:
    print(format_utree(canonical_tree(_load_space(args.files[0]))), end="")
    return 0


@_verb("space", _FILE)
def _space(args) -> int:
    space, _ = tree_to_space(parse_utree(_read(args.files[0])))
    print(format_uspace(space), end="")
    return 0


@_verb("iso", _FILE)
def _iso(args) -> int:
    """Accept either format, sniffing the first non-blank line as the
    parsers read it."""
    text = _read(args.files[0])
    head = next((line.strip() for line in text.splitlines() if line.strip()), "")
    tree = parse_utree(text) if head == "utree v1" else canonical_tree(parse_uspace(text))
    print(f"iso={count_automorphisms(tree)}")
    return 0


@_verb("clo", _FILE)
def _clo(args) -> int:
    print(f"clo={count_convex_orders(_load_space(args.files[0]))}")
    return 0


@_verb("tau", _FILE)
def _tau(args) -> int:
    report = tau(_load_space(args.files[0]))
    print(f"clo={report.clo_count} iso={report.iso_count} tau={report.tau}")
    return 0


@_verb("orders", _FILE)
def _orders(args) -> int:
    space = _load_space(args.files[0])
    for order in enumerate_convex_orders(space):
        print("order " + " ".join(order_labels(space, order)))
    return 0


@_verb("types", _FILE)
def _types(args) -> int:
    space = _load_space(args.files[0])
    for i, cls in enumerate(order_type_partition(space)):
        rep = " ".join(order_labels(space, cls.representative))
        print(f"type {i} size={cls.size} rep={rep}")
    return 0


@_verb("hull", _FILE)
def _hull(args) -> int:
    print(format_uspace(order_invariant_hull(_load_space(args.files[0]))), end="")
    return 0


@_verb(
    "arrow", _Z, _Y, _X, _K, _arg("-l", type=int, default=1),
    _arg("--ordered", action="store_true"), _BUDGET,
)
def _arrow(args) -> int:
    ambient, target, pattern = (_load_space(path) for path in (args.Z, args.Y, args.X))
    orders = {}
    if args.ordered:
        orders = {
            "ambient_order": canonical_convex_order(ambient),
            "target_order": canonical_convex_order(target),
            "pattern_order": canonical_convex_order(pattern),
        }
    try:
        verdict = verify_arrow(
            ambient, target, pattern, args.k, args.l, budget=args.budget, **orders,
        )
    except BudgetExceeded as exc:
        print(format_arrow_report(exc), end="")
        return 2
    print(format_arrow_report(verdict), end="")
    return 0 if verdict.holds else 1


@_verb("coloring", _Z, _X)
def _coloring(args) -> int:
    ambient, pattern = _load_space(args.Z), _load_space(args.X)
    coloring = order_type_coloring(ambient, canonical_convex_order(ambient), pattern)
    print(f"coloring k={coloring.k} copies={len(coloring.copies)}")
    for i, color in enumerate(coloring.colors):
        print(f"copy {i} color {color}")
    return 0


@_verb("degree-lower", _Z, _Y, _X)
def _degree_lower(args) -> int:
    ambient, target, pattern = (_load_space(path) for path in (args.Z, args.Y, args.X))
    ok = verify_degree_lower(pattern, target, ambient, canonical_convex_order(ambient))
    print(f"degree-lower {'holds' if ok else 'fails'}")
    return 0 if ok else 1


@_verb("chain", _Y, _X, _K, _BUDGET)
def _chain(args) -> int:
    pattern, target = _load_space(args.X), _load_space(args.Y)
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
    return {"holds": 0, "fails": 1, "skipped": 2}[checked]


@_verb("search", _Y, _X, _K, _BUDGET)
def _search(args) -> int:
    pattern, target = _load_space(args.X), _load_space(args.Y)
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


@_verb("extremal", _arg("-n", type=int, required=True))
def _extremal(args) -> int:
    report = extremal_scan(args.n)
    print(
        f"extremal n={report.leaves} shapes={report.shape_count} "
        f"max-tau={report.max_degree} comb-tau={report.comb_degree} "
        f"argmax={len(report.argmax)} "
        f"all-combs={'yes' if report.all_combs else 'no'}"
    )
    for finding in report.argmax:
        comb = "yes" if finding.comb else "no"
        print(f"shape {finding.code} tau={finding.degree} comb={comb}")
    return 0


@_verb("qs-dist", _arg("files", nargs=2), _MENU)
def _qs_dist(args) -> int:
    menu = parse_menu(_read(args.menu))
    x, y = (parse_qpoint(_read(path), menu) for path in args.files)
    print(f"d={format_rational(qs_distance(x, y))}")
    return 0


@_verb("qs-cmp", _arg("files", nargs=2), _MENU)
def _qs_cmp(args) -> int:
    menu = parse_menu(_read(args.menu))
    x, y = (parse_qpoint(_read(path), menu) for path in args.files)
    print(f"cmp={_CMP_WORDS[qs_lex_compare(x, y)]}")
    return 0


@_verb("qs-extend", _arg("files", nargs="+"), _MENU)
def _qs_extend(args) -> int:
    menu = parse_menu(_read(args.menu))
    if len(args.files) % 2 != 0:
        print("qs-extend needs an even number of qpoint files (x1 y1 x2 y2 ...)")
        return 2
    points = [parse_qpoint(_read(path), menu) for path in args.files]
    auto = extend_isometry(list(zip(points[0::2], points[1::2])), menu)
    print(f"moves={len(auto.moves)}")
    print(format_automorphism(auto), end="")
    return 0


@_verb(
    "qs-check", _MENU, _arg("-n", type=int, default=3),
    _arg("--trials", type=int, default=200), _arg("--seed", type=int, default=0),
)
def _qs_check(args) -> int:
    menu = parse_menu(_read(args.menu))
    print(f"seed={args.seed}")
    report = check_homogeneity(menu, args.n, args.trials, args.seed)
    print(
        f"qs-check trials={report.trials} n={args.n} "
        f"pass={report.passes} fail={len(report.failures)}"
    )
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
