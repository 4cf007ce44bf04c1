import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import umr
from umr import cli, urysohn
from umr.cli import VERBS, main
from util import (
    brute_convex_orders,
    c3,
    comb4,
    e3,
    enumerated_extremal_report,
    equilateral,
    fraction_frames,
    from_nested,
    profile_classes,
)

README = Path(__file__).resolve().parents[1] / "README.md"
MENU3 = umr.menu_of(1, F(1, 2), F(1, 4))  # the menu of the fixture files


@pytest.fixture
def files(tmp_path):
    """Write the standard fixture files once per test."""
    paths = {}

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)

    put("c3.uspace", umr.format_uspace(c3()))
    put("e2.uspace", umr.format_uspace(equilateral(2)))
    put("e3.uspace", umr.format_uspace(e3()))
    put("e5.uspace", umr.format_uspace(equilateral(5)))
    put("e6.uspace", umr.format_uspace(equilateral(6)))
    put("comb4.uspace", umr.format_uspace(comb4()))
    put(
        "bad.uspace",
        "uspace v1\npoints 3\nlabels a b c\nd a b 1\nd a c 2\nd b c 3\n",
    )
    put("c3.utree", "utree v1\nlevels 2 1\n((a b) (c))\n")
    put("menu.menu", umr.format_menu(umr.menu_of(1, F(1, 2), F(1, 4))))
    put("zero.qpoint", umr.format_qpoint(umr.ZERO_POINT))
    put("y.qpoint", umr.format_qpoint(umr.qs_point({F(1, 2): 3})))
    put("x2.qpoint", umr.format_qpoint(umr.qs_point({F(1, 2): 1})))
    put("y2.qpoint", umr.format_qpoint(umr.qs_point({F(1, 2): 2})))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_tau_example(files, capsys):
    code, out = run(capsys, "tau", files["c3.uspace"])
    assert code == 0
    assert out == "clo=4 iso=2 tau=2\n"


def test_validate_ok(files, capsys):
    code, out = run(capsys, "validate", files["c3.uspace"])
    assert code == 0
    assert out == "valid points=3\n"


def test_validate_violation_names_witness(files, capsys):
    code, out = run(capsys, "validate", files["bad.uspace"])
    assert code == 1
    assert out == "UltrametricViolation b c a\n"


def test_tree_and_space_round_trip(files, capsys):
    code, out = run(capsys, "tree", files["c3.uspace"])
    assert code == 0
    assert out == "utree v1\nlevels 2 1\n((a b) (c))\n"
    code, out = run(capsys, "space", files["c3.utree"])
    assert code == 0
    assert out == umr.format_uspace(c3())


def test_iso_accepts_both_formats(files, capsys):
    assert run(capsys, "iso", files["c3.uspace"]) == (0, "iso=2\n")
    assert run(capsys, "iso", files["c3.utree"]) == (0, "iso=2\n")


def test_iso_sniffs_the_stripped_header(tmp_path, capsys):
    # parse_utree strips every line, so the sniff must too
    path = tmp_path / "padded.utree"
    path.write_text("\n  utree v1   \nlevels 2 1\n((a b) (c))\n")
    assert run(capsys, "iso", str(path)) == (0, "iso=2\n")
    assert run(capsys, "space", str(path)) == (0, umr.format_uspace(c3()))


def test_iso_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.utree"
    path.write_text("utree v1\nlevels 1\n" + "(" * 3000 + "a" + ")" * 3000 + "\n")
    code, out = run(capsys, "iso", str(path))
    assert code == 1
    assert out.startswith("FormatError ")


def test_iso_reads_a_deep_comb_per_branching_node(tmp_path, capsys):
    path = tmp_path / "comb.utree"
    path.write_text(umr.format_utree(umr.comb_tree(1200)))
    assert run(capsys, "iso", str(path)) == (0, "iso=2\n")


def comb_uspace(n):
    """USPACE text of the n-point comb p1..pn: d(pi, pj) = 2^(j - 2)."""
    labels = " ".join(f"p{k}" for k in range(1, n + 1))
    return f"uspace v1\npoints {n}\nlabels {labels}\n" + "".join(
        f"d p{i} p{j} {2 ** (j - 2)}\n"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )


def test_deep_valid_tree_answers(tmp_path, capsys):
    # a comb of height h has h + 1 leaves and Θ(h²) nodes, so a tree deeper
    # than the recursion limit is tested under a lowered limit instead
    n = 301
    path = tmp_path / "comb.utree"
    path.write_text(umr.format_utree(umr.comb_tree(n)))
    expected = comb_uspace(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        iso = run(capsys, "iso", str(path))
        space = run(capsys, "space", str(path))
    finally:
        sys.setrecursionlimit(limit)
    assert iso == (0, "iso=2\n")
    assert space == (0, expected)


def test_deep_valid_space_answers(tmp_path, capsys):
    # the tree of a 301-point comb space is 300 levels deep, and so is
    # comb_tree(301); hull is never run on it, since the hull of a comb
    # has 2^300 points
    n = 301
    text = comb_uspace(n)
    space_path = tmp_path / "comb.uspace"
    space_path.write_text(text)
    tree_path = tmp_path / "comb.utree"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        iso = run(capsys, "iso", str(space_path))
        clo = run(capsys, "clo", str(space_path))
        tau = run(capsys, "tau", str(space_path))
        code, tree = run(capsys, "tree", str(space_path))
        tree_path.write_text(tree)
        back = run(capsys, "space", str(tree_path))
        comb = umr.format_utree(umr.comb_tree(n))
    finally:
        sys.setrecursionlimit(limit)
    assert iso == (0, "iso=2\n")
    assert clo == (0, f"clo={2 ** (n - 1)}\n")
    assert tau == (0, f"clo={2 ** (n - 1)} iso=2 tau={2 ** (n - 2)}\n")
    assert (code, tree) == (0, comb)
    assert back == (0, text)


def test_clo_and_orders(files, capsys):
    assert run(capsys, "clo", files["c3.uspace"]) == (0, "clo=4\n")
    code, out = run(capsys, "orders", files["c3.uspace"])
    assert code == 0
    assert out.splitlines() == [
        "order a b c",
        "order b a c",
        "order c a b",
        "order c b a",
    ]


def test_types(files, capsys):
    code, out = run(capsys, "types", files["c3.uspace"])
    assert code == 0
    assert out.splitlines() == [
        "type 0 size=2 rep=a b c",
        "type 1 size=2 rep=c a b",
    ]


def test_orders_and_types_match_the_permutation_filter(tmp_path, capsys):
    rng = random.Random(222)
    labels = [f"q{i}" for i in range(8)]
    rng.shuffle(labels)
    pairs = [tuple(labels[i:i + 2]) for i in range(0, 8, 2)]
    root = (tuple(pairs[:2]), tuple(pairs[2:]))
    levels = umr.DistanceSet((F(9, 2), F(5, 3), F(2, 7)))
    space, _ = umr.tree_to_space(from_nested(root, levels))
    points = list(range(8))
    rng.shuffle(points)
    space = space.restrict(points)
    path = tmp_path / "u222.uspace"
    path.write_text(umr.format_uspace(space))

    brute = brute_convex_orders(space)
    assert len(brute) == 128

    def name(seq):
        return " ".join(space.labels[p] for p in seq)

    expected = "".join(f"order {name(seq)}\n" for seq in brute)
    assert run(capsys, "orders", str(path)) == (0, expected)
    expected = "".join(
        f"type {i} size={len(members)} rep={name(members[0])}\n"
        for i, members in enumerate(profile_classes(space, brute))
    )
    assert run(capsys, "types", str(path)) == (0, expected)


def test_types_and_coloring_read_one_order_per_type(tmp_path, capsys):
    # e12 has 12! convex orders in one type; e10 inside e10 is one copy
    e10, e12 = tmp_path / "e10.uspace", tmp_path / "e12.uspace"
    e10.write_text(umr.format_uspace(equilateral(10)))
    e12.write_text(umr.format_uspace(equilateral(12)))
    assert run(capsys, "coloring", "--Z", str(e10), "--X", str(e10)) == (
        0, "coloring k=1 copies=1\ncopy 0 color 0\n"
    )
    rep = " ".join(f"p{i}" for i in range(1, 13))
    assert run(capsys, "types", str(e12)) == (0, f"type 0 size=479001600 rep={rep}\n")


def test_types_on_a_wide_space_needs_no_recursion(tmp_path, capsys):
    # one ball with 300 children: the fold over the balls and the filling
    # of its slots must not recurse per child, so it runs under a lowered
    # recursion limit
    n = 300
    path = tmp_path / "e300.uspace"
    path.write_text(umr.format_uspace(equilateral(n)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        types = run(capsys, "types", str(path))
    finally:
        sys.setrecursionlimit(limit)
    rep = " ".join(f"p{i}" for i in range(1, n + 1))
    assert types == (0, f"type 0 size={factorial(n)} rep={rep}\n")


def test_hull(files, capsys):
    code, out = run(capsys, "hull", files["c3.uspace"])
    assert code == 0
    assert umr.parse_uspace(out) == umr.order_invariant_hull(c3())


def test_hull_refuses_more_points_than_a_list_holds(tmp_path, capsys):
    # d(p_i, p_j) = max(i, j) is a 70-point comb, whose hull has 2^69 points
    n = 70
    labels = " ".join(f"p{k}" for k in range(1, n + 1))
    path = tmp_path / "comb70.uspace"
    path.write_text(f"uspace v1\npoints {n}\nlabels {labels}\n" + "".join(
        f"d p{i} p{j} {j}\n" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ))
    start = time.perf_counter()
    code, out = run(capsys, "hull", str(path))
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, f"ValueError hull has {2 ** 69} points, more than a list can hold\n")
    assert elapsed < 1


def test_arrow_holds(files, capsys):
    code, out = run(
        capsys, "arrow",
        "--Z", files["e6.uspace"], "--Y", files["e3.uspace"],
        "--X", files["e2.uspace"], "-k", "2", "-l", "1",
    )
    assert code == 0
    assert out.startswith("arrow holds copies=15 colorings=")


def test_arrow_fails_with_witness(files, capsys):
    code, out = run(
        capsys, "arrow",
        "--Z", files["e5.uspace"], "--Y", files["e3.uspace"],
        "--X", files["e2.uspace"], "-k", "2", "-l", "1",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("arrow fails copies=10")
    assert lines[1].startswith("copy 0 color ")


def test_arrow_budget_exceeded(files, capsys):
    code, out = run(
        capsys, "arrow",
        "--Z", files["e6.uspace"], "--Y", files["e3.uspace"],
        "--X", files["e2.uspace"], "-k", "2", "-l", "1", "--budget", "7",
    )
    assert code == 2
    assert out == "arrow budget-exceeded copies=15 colorings=7\n"


def test_arrow_budget_edges(files, capsys):
    arrow = (
        "arrow", "--Z", files["e6.uspace"], "--Y", files["e3.uspace"],
        "--X", files["e2.uspace"], "-k", "2", "-l", "1", "--budget",
    )
    assert run(capsys, *arrow, "16384") == (0, "arrow holds copies=15 colorings=16384\n")
    assert run(capsys, *arrow, "16383") == (
        2, "arrow budget-exceeded copies=15 colorings=16383\n"
    )
    for budget in ("0", "-1"):
        assert run(capsys, *arrow, budget) == (
            2, "arrow budget-exceeded copies=15 colorings=0\n"
        )


def test_arrow_with_a_huge_palette(files, capsys):
    arrow = (
        "arrow", "--Z", files["e3.uspace"], "--Y", files["e3.uspace"],
        "--X", files["e2.uspace"], "-k", "1000000000", "-l",
    )
    assert run(capsys, *arrow, "1") == (
        1, "arrow fails copies=3 colorings=2\ncopy 0 color 0\ncopy 1 color 0\ncopy 2 color 1\n"
    )
    assert run(capsys, *arrow, "2") == (
        1, "arrow fails copies=3 colorings=5\ncopy 0 color 0\ncopy 1 color 1\ncopy 2 color 2\n"
    )


def test_arrow_search_depth_is_not_call_depth(files, tmp_path, capsys):
    # 60 points have 1770 pairs, one search level each; c3 has no copy in
    # an equilateral space, so the first coloring already fails
    z = tmp_path / "e60.uspace"
    z.write_text(umr.format_uspace(equilateral(60)))
    arrow = ("arrow", "--Z", str(z), "--X", files["e2.uspace"], "-k", "2", "-l", "1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        no_target = run(capsys, *arrow, "--Y", files["c3.uspace"])
        triangles = run(capsys, *arrow, "--Y", files["e3.uspace"], "--budget", "1000")
    finally:
        sys.setrecursionlimit(limit)
    assert no_target == (
        1,
        "arrow fails copies=1770 colorings=1\n"
        + "".join(f"copy {i} color 0\n" for i in range(1770)),
    )
    assert triangles == (2, "arrow budget-exceeded copies=1770 colorings=1000\n")


def test_arrow_ordered_flag(files, capsys):
    code, out = run(
        capsys, "arrow", "--ordered",
        "--Z", files["e3.uspace"], "--Y", files["e2.uspace"],
        "--X", files["e2.uspace"], "-k", "2", "-l", "1",
    )
    assert code == 0


def test_coloring(files, capsys, tmp_path):
    hull_path = tmp_path / "hull.uspace"
    hull_path.write_text(umr.format_uspace(umr.order_invariant_hull(c3())))
    code, out = run(
        capsys, "coloring", "--Z", str(hull_path), "--X", files["c3.uspace"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coloring k=2 copies=4"
    assert {line.rsplit(" ", 1)[1] for line in lines[1:]} == {"0", "1"}


def test_degree_lower(files, capsys, tmp_path):
    hull_path = tmp_path / "hull.uspace"
    hull_path.write_text(umr.format_uspace(umr.order_invariant_hull(c3())))
    code, out = run(
        capsys, "degree-lower",
        "--Z", str(hull_path), "--Y", str(hull_path), "--X", files["c3.uspace"],
    )
    assert code == 0
    assert out == "degree-lower holds\n"


def test_degree_lower_holds_vacuously_without_y_copies(files, capsys):
    # c3 does not embed in e2: no Y-copy can miss a color, while the arrow
    # has no Y-copy to see few colors
    pair = ("--Z", files["e2.uspace"], "--Y", files["c3.uspace"], "--X", files["e2.uspace"])
    assert run(capsys, "degree-lower", *pair) == (0, "degree-lower holds\n")
    assert run(capsys, "arrow", *pair) == (1, "arrow fails copies=1 colorings=1\ncopy 0 color 0\n")


def test_chain(files, capsys):
    code, out = run(
        capsys, "chain", "--X", files["c3.uspace"], "--Y", files["c3.uspace"], "-k", "2"
    )
    assert code == 0
    assert out.splitlines()[0] == "chain steps=2 points=6 l=2 verified=holds"


def test_chain_skips_a_check_the_budget_will_not_cover(files, capsys):
    code, out = run(
        capsys, "chain", "--Y", files["c3.uspace"], "--X", files["c3.uspace"],
        "-k", "2", "--budget", "300",
    )
    result = umr.chain_upper_bound(c3(), c3(), 2, budget=300)
    assert result.verdict is None
    assert code == 2
    assert out == "chain steps=2 points=6 l=2 verified=skipped\n" + umr.format_uspace(result.space)


def test_every_traced_name_still_resolves():
    # the benchmark's tracer wraps these names in the modules umr.cli loads;
    # a name the library drops would break `bench/run.py --trace 1`, which
    # no test here runs
    from bench import tracing

    found = tracing.originals()
    assert sorted(found) == sorted(tracing.NAMES)
    assert all(callable(found[name]) for name in tracing.NAMES)


def test_search(files, capsys):
    code, out = run(
        capsys, "search", "--X", files["e2.uspace"], "--Y", files["e3.uspace"], "-k", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "witness points=6"


def test_search_budget(files, capsys):
    code, out = run(
        capsys, "search", "--X", files["e2.uspace"], "--Y", files["e3.uspace"],
        "-k", "2", "--budget", "5",
    )
    assert code == 2
    assert out.startswith("search budget-exceeded")


def test_extremal(files, capsys):
    code, out = run(capsys, "extremal", "-n", "4")
    assert code == 0
    head = out.splitlines()[0]
    assert head == "extremal n=4 shapes=6 max-tau=4 comb-tau=4 argmax=1 all-combs=yes"


def _extremal_text(report):
    yes = {True: "yes", False: "no"}
    lines = [
        f"extremal n={report.leaves} shapes={report.shape_count} max-tau={report.max_degree} "
        f"comb-tau={report.comb_degree} argmax={len(report.argmax)} all-combs={yes[report.all_combs]}"
    ]
    lines += [f"shape {f.code} tau={f.degree} comb={yes[f.comb]}" for f in report.argmax]
    return "\n".join(lines) + "\n"


def test_extremal_text_matches_the_enumeration(capsys):
    for n in range(2, 8):
        assert run(capsys, "extremal", "-n", str(n)) == (0, _extremal_text(enumerated_extremal_report(n)))


def test_extremal_answers_up_to_the_cap(capsys):
    code, out = run(capsys, "extremal", "-n", "10")
    assert (code, out.splitlines()[0]) == (
        0, "extremal n=10 shapes=165874 max-tau=360 comb-tau=256 argmax=1 all-combs=no"
    )
    assert out.splitlines()[1] == (
        "shape (((((()()))))((((())(()))))((((()))((()))))((((())))(((()))))((((()))))((((())))))"
        " tau=360 comb=no"
    )
    code, out = run(capsys, "extremal", "-n", "16")
    assert (code, out.splitlines()[0]) == (
        0, "extremal n=16 shapes=317018563806 max-tau=181440 comb-tau=16384 argmax=1 all-combs=no"
    )
    assert run(capsys, "extremal", "-n", "17") == (1, "ValueError scan capped at 16 leaves\n")


def test_qs_verbs(files, capsys):
    code, out = run(
        capsys, "qs-dist", files["zero.qpoint"], files["y.qpoint"],
        "--menu", files["menu.menu"],
    )
    assert (code, out) == (0, "d=1/2\n")
    code, out = run(
        capsys, "qs-cmp", files["zero.qpoint"], files["y.qpoint"],
        "--menu", files["menu.menu"],
    )
    assert (code, out) == (0, "cmp=less\n")


def test_qs_extend(files, capsys):
    code, out = run(
        capsys, "qs-extend",
        files["zero.qpoint"], files["zero.qpoint"],
        files["x2.qpoint"], files["y2.qpoint"],
        "--menu", files["menu.menu"],
    )
    assert code == 0
    assert out.splitlines()[0] == "moves=1"
    assert out.splitlines()[1].startswith("coordmap s=1/2")


def test_qs_extend_output_replays(files, capsys):
    code, out = run(
        capsys, "qs-extend",
        files["zero.qpoint"], files["zero.qpoint"],
        files["x2.qpoint"], files["y2.qpoint"],
        "--menu", files["menu.menu"],
    )
    assert code == 0
    menu = umr.menu_of(1, F(1, 2), F(1, 4))
    auto = umr.parse_automorphism("\n".join(out.splitlines()[1:]), menu)
    assert auto(umr.qs_point({F(1, 2): 1})) == umr.qs_point({F(1, 2): 2})
    assert auto(umr.ZERO_POINT) == umr.ZERO_POINT


def test_qs_extend_rejects_bad_pairs(files, capsys):
    code, out = run(
        capsys, "qs-extend",
        files["zero.qpoint"], files["zero.qpoint"],
        files["x2.qpoint"], files["zero.qpoint"],
        "--menu", files["menu.menu"],
    )
    assert code == 1
    assert "NotPartialIsometry" in out or "DuplicatePoint" in out


def test_qs_errors_keep_their_order_across_files(files, capsys, tmp_path):
    # an odd file count beats a malformed first file, which beats a missing
    # third file; files are read and parsed one at a time, in order
    bad, missing = tmp_path / "bad.qpoint", str(tmp_path / "missing.qpoint")
    bad.write_text("qpoint v1\n2/6 1\n")
    ok, menu = files["y.qpoint"], ["--menu", files["menu.menu"]]
    not_found = f"FileNotFoundError [Errno 2] No such file or directory: '{missing}'\n"
    assert run(capsys, "qs-extend", str(bad), ok, missing, *menu) == (
        2, "qs-extend needs an even number of qpoint files (x1 y1 x2 y2 ...)\n",
    )
    assert run(capsys, "qs-extend", str(bad), ok, missing, ok, *menu) == (
        1, "FormatError coordinate 2/6 not in menu\n",
    )
    assert run(capsys, "qs-extend", ok, ok, missing, str(bad), *menu) == (1, not_found)
    # a text that does not decode is reported as such, not as a format error
    undecodable = tmp_path / "undecodable.qpoint"
    undecodable.write_bytes(b"qpoint v1\n1 \xff\n")
    for verb in ("qs-dist", "qs-cmp"):
        assert run(capsys, verb, str(bad), missing, *menu) == (1, "FormatError coordinate 2/6 not in menu\n")
        assert run(capsys, verb, missing, str(bad), *menu) == (1, not_found)
        code, out = run(capsys, verb, ok, str(undecodable), *menu)
        assert (code, out.split()[0]) == (1, "UnicodeDecodeError")


def test_qs_check_seed_header(files, capsys):
    code, out = run(
        capsys, "qs-check", "--menu", files["menu.menu"],
        "-n", "2", "--trials", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed=0"
    assert lines[1] == "qs-check trials=5 n=2 pass=5 fail=0"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_qs_check_rejects_no_trials(files, capsys, trials):
    code, out = run(
        capsys, "qs-check", "--menu", files["menu.menu"], "-n", "2", "--trials", trials,
    )
    assert (code, out) == (1, "seed=0\nValueError trials must be at least 1\n")


@pytest.mark.parametrize(
    "n, expected",
    [
        ("37", (0, "seed=0\nqs-check trials=1 n=37 pass=1 fail=0\n")),
        # one distance leaves 37 drawable points; drawing 38 would never end
        ("38", (1, "seed=0\nValueError n must be at most 37, the number of distinct random points\n")),
    ],
)
def test_qs_check_rejects_more_points_than_it_can_draw(tmp_path, capsys, n, expected):
    menu = tmp_path / "one.menu"
    menu.write_text(umr.format_menu(umr.menu_of(1)))
    assert run(capsys, "qs-check", "--menu", str(menu), "-n", n, "--trials", "1") == expected


def test_identical_invocations_identical_output(files, capsys):
    _, first = run(capsys, "tau", files["c3.uspace"])
    _, second = run(capsys, "tau", files["c3.uspace"])
    assert first == second
    _, first = run(
        capsys, "qs-check", "--menu", files["menu.menu"], "-n", "2",
        "--trials", "3", "--seed", "9",
    )
    _, second = run(
        capsys, "qs-check", "--menu", files["menu.menu"], "-n", "2",
        "--trials", "3", "--seed", "9",
    )
    assert first == second


# Runs every argv of a JSON list through main in one process and prints
# each exit code, stdout and stderr.
HASH_SEED_DRIVER = """
import contextlib, io, json, sys
from umr.cli import main
answers = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    answers.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(answers))
"""


def test_output_does_not_depend_on_the_hash_seed(files, tmp_path):
    # a fresh process per hash seed, so set and dict order of strings differ
    invocations = valid_invocations(files, tmp_path)
    assert list(invocations) == list(VERBS)
    argvs = json.dumps(list(invocations.values()))
    src = str(Path(umr.__file__).resolve().parents[1])
    answers = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_DRIVER, argvs],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert (result.returncode, result.stderr) == (0, "")
        answers.append(json.loads(result.stdout))
    assert answers[0] == answers[1]
    assert [code for code, _, _ in answers[0]] == [0] * len(VERBS)


def test_usage_error_exits_2(files, capsys):
    assert main(["no-such-verb"]) == 2
    assert main([]) == 2
    assert main(["arrow", "--Z", files["e6.uspace"]]) == 2


def test_missing_file_diagnostic(files, capsys, tmp_path, monkeypatch):
    # the error names the path as typed, not normalised, whichever file
    # argument of whichever verb names it
    monkeypatch.chdir(tmp_path)
    expected = {
        "/nonexistent/file.uspace":
            "FileNotFoundError [Errno 2] No such file or directory: '/nonexistent/file.uspace'\n",
        "./missing//x.uspace":
            "FileNotFoundError [Errno 2] No such file or directory: './missing//x.uspace'\n",
        str(tmp_path): f"IsADirectoryError [Errno 21] Is a directory: '{tmp_path}'\n",
    }
    reading = 0
    for argv in valid_invocations(files, tmp_path).values():
        at_files = [i for i, token in enumerate(argv) if Path(token).is_file()]
        reading += bool(at_files)
        for at in at_files:
            for path, line in expected.items():
                assert run(capsys, *argv[:at], path, *argv[at + 1:]) == (1, line), (argv, at)
    assert reading == len(VERBS) - 1  # all but extremal


# Byte pieces a text file may hold: both line ends and CR LF, ASCII, a
# two-byte UTF-8 letter, its lead byte alone, and bytes no UTF-8 text holds.
READ_PIECES = [b"\r", b"\n", b"\r\n", b"\t", b" ", b"a", b"1/2", b"\xc3\xa9", b"\xc3", b"\xff", b"\x85"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.booleans(),
    st.sampled_from([0, 1, 8180, 8190, 8191, 8192, 8193]),
    st.lists(st.sampled_from(READ_PIECES), max_size=30),
)
@example(False, 0, [])  # the empty file
@example(True, 8190, [b"\r\n"])  # a BOM, and CR LF across the first 8192 bytes
@example(False, 8191, [b"\xc3\xa9", b"\r"])  # a letter across them, a final CR
def test_read_matches_a_text_mode_read(tmp_path_factory, bom, pad, pieces):
    # the same text, or the same error type and message, as open(path).read()
    path = tmp_path_factory.getbasetemp() / "read.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + b"a" * pad + b"".join(pieces))

    def outcome(read):
        try:
            return read()
        except Exception as exc:
            return type(exc), str(exc)

    with open(path) as file:
        expected = outcome(file.read)
    assert outcome(lambda: cli._read(str(path))) == expected


def valid_invocations(files, tmp_path):
    """A quick argv that succeeds, for each verb, in table order."""
    hull_path = tmp_path / "hull.uspace"
    hull_path.write_text(umr.format_uspace(umr.order_invariant_hull(c3())))
    return {
        "validate": ["validate", files["c3.uspace"]],
        "tree": ["tree", files["c3.uspace"]],
        "space": ["space", files["c3.utree"]],
        "iso": ["iso", files["c3.uspace"]],
        "clo": ["clo", files["c3.uspace"]],
        "tau": ["tau", files["c3.uspace"]],
        "orders": ["orders", files["c3.uspace"]],
        "types": ["types", files["c3.uspace"]],
        "hull": ["hull", files["c3.uspace"]],
        "arrow": [
            "arrow", "--Z", files["e3.uspace"], "--Y", files["e2.uspace"],
            "--X", files["e2.uspace"], "-k", "2", "-l", "1",
        ],
        "coloring": ["coloring", "--Z", files["comb4.uspace"], "--X", files["c3.uspace"]],
        "degree-lower": [
            "degree-lower", "--Z", str(hull_path), "--Y", str(hull_path),
            "--X", files["c3.uspace"],
        ],
        "chain": ["chain", "--X", files["e2.uspace"], "--Y", files["e2.uspace"], "-k", "2"],
        "search": ["search", "--X", files["e2.uspace"], "--Y", files["e2.uspace"], "-k", "2"],
        "extremal": ["extremal", "-n", "3"],
        "qs-dist": [
            "qs-dist", files["zero.qpoint"], files["y.qpoint"],
            "--menu", files["menu.menu"],
        ],
        "qs-cmp": [
            "qs-cmp", files["zero.qpoint"], files["y.qpoint"],
            "--menu", files["menu.menu"],
        ],
        "qs-extend": [
            "qs-extend", files["zero.qpoint"], files["zero.qpoint"],
            "--menu", files["menu.menu"],
        ],
        "qs-check": [
            "qs-check", "--menu", files["menu.menu"], "-n", "1", "--trials", "2",
        ],
    }


def test_every_verb_is_reachable(files, capsys, tmp_path):
    invocations = valid_invocations(files, tmp_path)
    assert list(invocations) == list(VERBS)
    for verb, argv in invocations.items():
        code = main(argv)
        capsys.readouterr()
        assert code == 0, f"verb {verb} exited {code}"


def answer(argv):
    """main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def full_parser_answer(argv):
    """``answer`` with every argv parsed by the full parser, subparsers and all."""
    def parse(argv):
        args = cli._parser().parse_args(argv)
        return args.verb, args

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse", parse)
        return answer(argv)


def argv_cases(argv):
    """Cases around a verb's valid argv: help, no arguments, a bad integer,
    unrecognized extras, a ``--`` before the positionals, abbreviated long
    options and ``--opt=value``."""
    verb, rest = argv[0], argv[1:]
    specs = {flag: options for flags, options in VERBS[verb][0] for flag in flags}
    options, positionals, i = [], [], 0
    while i < len(rest):
        takes_value = rest[i] in specs and specs[rest[i]].get("action") != "store_true"
        if rest[i].startswith("-"):
            options.append(rest[i:i + 1 + takes_value])
            i += 1 + takes_value
        else:
            positionals.append(rest[i])
            i += 1
    flat = [token for option in options for token in option]
    cases = [
        [verb, "-h"], [verb], [*argv, "--bogus"], [*argv, "stray"],
        [verb, *flat, "--", *positionals],
    ]
    for flag, spec in specs.items():
        if "type" in spec:
            cases.append([*argv, flag, "x"])
        if flag.startswith("--") and len(flag) > 5:
            value = [] if spec.get("action") == "store_true" else ["5"] if "type" in spec else [rest[-1]]
            cases.append([*argv, flag[:5], *value])
    for at, option in enumerate(options):
        if len(option) == 2:
            joined = [token for o in options[:at] + [["=".join(option)]] + options[at + 1:] for token in o]
            cases.append([verb, *positionals, *joined])
    return cases


def test_verb_parsers_answer_as_the_full_parser(files, tmp_path):
    for verb, argv in valid_invocations(files, tmp_path).items():
        for case in argv_cases(argv):
            assert answer(case) == full_parser_answer(case), case
    for case in ([], ["-h"], ["--help"], ["valid", files["c3.uspace"]], ["no-such-verb"], ["-k", "2"]):
        assert answer(case) == full_parser_answer(case), case
    # the cases reach help, usage errors on both parsers' usage lines, and answers
    assert answer(["validate", "-h"])[1].startswith("usage: umr validate [-h] files\n")
    assert answer(["arrow", "-k", "x"])[2].startswith("usage: umr arrow [-h]")
    assert answer(["validate", files["c3.uspace"], "stray"])[2] == (
        f"{cli._parser().format_usage()}umr: error: unrecognized arguments: stray\n"
    )
    arrow = valid_invocations(files, tmp_path)["arrow"]
    assert answer([*arrow, "--bud", "1"]) == (2, "arrow budget-exceeded copies=3 colorings=1\n", "")


def test_qs_verbs_read_qpoints_without_fraction_in_one_parse_pass(files, tmp_path, capsys):
    # no Fraction from the qpoint texts through _extend: the menu (its parse
    # and frame) and the move records and their text are exempt
    frame = urysohn._Frame
    exempt = (
        urysohn.parse_menu, frame.__init__, frame.position.func, frame.tokens.func,
        frame.record, urysohn.format_automorphism,
    )
    texts = {
        "x1": "1 -3/4\n", "y1": "-2/-2 -6/8\n1/4 5/6\n",
        "x2": "1/2 1/3\n1 -3/4\n", "y2": "1 -3/4\n2/4 4/6\n1/4 1/5\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.qpoint"
        paths[name].write_text("qpoint v1\n" + text)
    menu = ["--menu", files["menu.menu"]]
    points = [umr.parse_qpoint(path.read_text(), MENU3) for path in paths.values()]
    auto = umr.extend_isometry(list(zip(points[0::2], points[1::2])), MENU3)
    assert len(auto.moves) == 2
    runs = {
        ("qs-extend", *map(str, paths.values()), *menu): f"moves=2\n{umr.format_automorphism(auto)}",
        ("qs-dist", str(paths["x2"]), str(paths["y2"]), *menu): "d=1/2\n",
        ("qs-cmp", str(paths["y2"]), str(paths["x2"]), *menu): "cmp=greater\n",
    }
    for argv, expected in runs.items():
        assert fraction_frames(lambda: main(list(argv)), *exempt) == 0, argv
        assert capsys.readouterr().out == expected
    # every verb's argv is parsed in one pass, by the verb's own parser
    passes = []
    original = argparse.ArgumentParser.parse_known_args
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            argparse.ArgumentParser, "parse_known_args",
            lambda parser, *args, **kwargs: passes.append(parser.prog) or original(parser, *args, **kwargs),
        )
        for argv in [*runs, *valid_invocations(files, tmp_path).values()]:
            passes.clear()
            main(list(argv))
            assert passes == [f"umr {argv[0]}"]
    capsys.readouterr()


def table_flags(verb):
    return {flag for flags, _ in VERBS[verb][0] for flag in flags if flag.startswith("-")}


def readme_flags(text):
    return set(re.findall(r"(?<![\w-])--?[A-Za-z]\w*", text))


def test_readme_command_line_matches_the_verb_table():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    synopsis = section.split("```", 2)[1]
    assert readme_flags(synopsis) == set().union(*map(table_flags, VERBS))
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        usage = line.split("|")[1]
        # a row may name several verbs: "`clo f` / `tau f`", "`qs-dist / qs-cmp p q ...`"
        for part in re.split(r"`\s*/\s*`|\s/\s", usage.strip(" `")):
            rows[part.split()[0]] = readme_flags(usage)
    assert sorted(rows) == sorted(VERBS)
    for verb, flags in rows.items():
        assert flags == table_flags(verb), verb


# Fragments of the five text formats, valid and not, for the fuzz below.
RATIONALS = st.sampled_from(
    ["1", "2", "1/2", "1/4", "3/2", "2/4", "0", "-1", "-1/2", "1/0", "x", ""]
)
LABELS = st.sampled_from(["a", "b", "c", "d"])
LINES = st.one_of(
    st.sampled_from([
        "uspace v1", "utree v1", "menu v1", "qpoint v1", " utree v1  ", "uspace v2",
        "points", "labels", "levels", "d", "", "((a b) (c))", "(a b)", "((a) (b c))",
        "(a (b c))", "(", ")", "((a b)", "()", "a b",
    ]),
    st.integers(-1, 5).map("points {}".format),
    st.lists(LABELS, max_size=5).map(lambda names: " ".join(["labels", *names])),
    st.tuples(LABELS, LABELS, RATIONALS).map(lambda t: "d {} {} {}".format(*t)),
    st.lists(RATIONALS, max_size=3).map(lambda values: " ".join(["levels", *values])),
    st.tuples(RATIONALS, RATIONALS).map(" ".join),
    RATIONALS,
)
SPACES = [umr.format_uspace(space) for space in (c3(), e3(), comb4(), equilateral(2))]
TREES = ["utree v1\nlevels 2 1\n((a b) (c))\n", "utree v1\nlevels 1\n(a b c)\n"]
MENUS = [umr.format_menu(umr.menu_of(1, F(1, 2), F(1, 4))), "menu v1\n1\n"]
QPOINTS = [
    umr.format_qpoint(umr.qs_point(coords))
    for coords in ({}, {F(1, 2): 3}, {F(1): -1, F(1, 4): F(1, 2)})
]


def valid_texts(verb, flag):
    """The inputs that argument of that verb expects when used rightly."""
    if flag == "--menu":
        return MENUS
    if flag == "files" and verb.startswith("qs-"):
        return QPOINTS
    return {"space": TREES, "iso": SPACES + TREES}.get(verb, SPACES)


# every integer flag of the table, bounded so that no run is long
INT_RANGES = {
    "-k": (-1, 3), "-l": (-1, 3), "-n": (-1, 8), "--trials": (-1, 3),
    "--budget": (-1, 1000), "--seed": (0, 3),
}


@st.composite
def invocations(draw, verb):
    """An argv for ``verb`` built from its specs in the table, and the text
    of each file it names (paths relative to a scratch directory).  A run
    carries at most one fault, so that many runs reach the library."""
    argv, files = [verb], {}

    def new_file(flag):
        name = f"f{len(files)}"
        files[name] = draw(st.sampled_from(valid_texts(verb, flag)))
        return name

    for flags, options in VERBS[verb][0]:
        flag = flags[0]
        if not flag.startswith("-"):
            count = options["nargs"]
            count = draw(st.integers(1, 4)) if count == "+" else count
            argv += [new_file(flag) for _ in range(count)]
        elif options.get("action") == "store_true":
            argv += [flag] * draw(st.booleans())
        elif "type" in options:
            argv += [flag, str(draw(st.integers(*INT_RANGES[flag])))]
        else:
            argv += [flag, new_file(flag)]
    fault = draw(st.sampled_from(["none", "text", "text", "path", "drop", "stray"]))
    if fault == "text" and files:
        # this or another kind of text, lines replaced by or joined by fragments
        name = draw(st.sampled_from(sorted(files)))
        text = draw(st.just(files[name]) | st.sampled_from(SPACES + TREES + MENUS + QPOINTS))
        lines = text.splitlines()
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(lines)))
            lines[at:at + draw(st.integers(0, 1))] = [draw(LINES)]
        files[name] = "\n".join(lines) + "\n"
    elif fault == "path" and files:
        at = draw(st.sampled_from([i for i, token in enumerate(argv) if token in files]))
        argv[at] = draw(st.sampled_from(["missing", "."] + sorted(files)))
    elif fault == "drop":
        # a dropped or a stray token can only make a usage error (or
        # help), never an unbounded default
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif fault == "stray":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--bogus", "x"])))
    return argv, files


@pytest.mark.parametrize("verb", list(VERBS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_main_never_raises(tmp_path_factory, verb, data):
    argv, files = data.draw(invocations(verb))
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (root / name).write_text(text)
    argv = [str(root / token) if token in files or token in ("missing", ".") else token
            for token in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
