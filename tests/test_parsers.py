"""Random text after each format's header reaches the five parsers, and
only the package's own errors may come out of them."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import umr
from util import leveled_trees, naive_parse_utree

MENU = umr.menu_of(1, F(1, 2), F(1, 4))

RATIONAL = st.sampled_from(
    ["1", "2", "1/2", "1/4", "2/4", "3/2", "0", "-1", "-1/2", "1/0", "0/0", "x", "1//2", "9" * 5000]
)
LABEL = st.sampled_from(["a", "b", "c", "e"])
PAIRS = st.one_of(
    st.sampled_from(["-", "0", ""]),
    st.lists(st.builds("{}:{}".format, RATIONAL, RATIONAL), min_size=1, max_size=3).map(",".join),
)
WORD = st.one_of(
    RATIONAL,
    LABEL,
    PAIRS,
    st.sampled_from(["d", "points", "labels", "levels", "(", ")", "translate", "coordmap", "=", ":"]),
    st.text(max_size=4),
)
# the two kinds of move line, with random fields
MOVE = st.one_of(
    PAIRS.map("translate {}".format),
    st.builds(
        "coordmap s={} center={} alpha={} phi={} shifts={}".format,
        RATIONAL, PAIRS, RATIONAL, PAIRS, PAIRS,
    ),
    st.lists(
        st.builds(
            "{}={}".format,
            st.sampled_from(["s", "center", "alpha", "phi", "shifts", "x"]),
            st.one_of(RATIONAL, PAIRS),
        ),
        max_size=6,
    ).map(lambda fields: " ".join(["coordmap", *fields])),
)
# random words, or one of the lines some format expects with random fields
LINE = st.one_of(
    st.lists(WORD, max_size=5).map(" ".join),
    RATIONAL,
    st.builds("d {} {} {}".format, LABEL, LABEL, RATIONAL),
    st.builds("{} {}".format, RATIONAL, RATIONAL),
    st.lists(RATIONAL, max_size=3).map(lambda values: " ".join(["levels", *values])),
    st.lists(st.one_of(LABEL, st.sampled_from(["(", ")"])), max_size=10).map(" ".join),
    MOVE,
)


def header_first(*headers, line=LINE):
    """One of the headers, then random lines."""
    return st.builds(
        lambda head, lines: "\n".join([head, *lines]) + "\n",
        st.sampled_from(headers),
        st.lists(line, max_size=6),
    )


def parse_or_umr_error(parse, text):
    try:
        parse(text)
    except umr.UmrError:
        pass


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(header_first("uspace v1\npoints 2\nlabels a b", "uspace v1\npoints 3\nlabels a b c", "uspace v1"))
def test_parse_uspace_raises_only_umr_errors(text):
    parse_or_umr_error(umr.parse_uspace, text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(header_first("utree v1\nlevels 2 1", "utree v1\nlevels 1", "utree v1"))
def test_parse_utree_raises_only_umr_errors(text):
    parse_or_umr_error(umr.parse_utree, text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(header_first("menu v1"))
def test_parse_menu_raises_only_umr_errors(text):
    parse_or_umr_error(umr.parse_menu, text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(header_first("qpoint v1"))
def test_parse_qpoint_raises_only_umr_errors(text):
    parse_or_umr_error(lambda t: umr.parse_qpoint(t, MENU), text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    header_first(
        "translate 1:1", "coordmap s=1/2 center=1:1 alpha=0 phi=- shifts=-",
        line=st.one_of(MOVE, LINE),
    )
)
def test_parse_automorphism_raises_only_umr_errors(text):
    parse_or_umr_error(lambda t: umr.parse_automorphism(t, MENU), text)


@st.composite
def spliced(draw, texts):
    """A text with up to three random splices after its ``levels`` keyword
    (or its first line), each cutting a few characters and putting a few
    brackets, labels, spaces or newlines in their place."""
    text = draw(texts)
    keyword = text.find("\nlevels")
    start = keyword + len("\nlevels") if keyword >= 0 else text.index("\n") + 1
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(start, len(text)))
        cut = draw(st.integers(0, 3))
        pieces = st.sampled_from(["(", ")", " ", "\n", "a", "x1", "2"])
        text = text[:at] + "".join(draw(st.lists(pieces, max_size=3))) + text[at + cut:]
    return text


def outcome(parse, text):
    """The record's fields, or the type and message of what was raised."""
    try:
        tree = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return tree.labels, tree.joins, tree.levels


# bracketed labels nested to random depths, so that leaves may be
# misplaced, labels repeated and levels left without a branching node
NESTED = st.recursive(
    LABEL, lambda kids: st.lists(kids, min_size=1, max_size=3).map(lambda ks: f"({' '.join(ks)})")
)
UTREE_TEXT = st.one_of(
    header_first("utree v1\nlevels 2 1", "utree v1\nlevels 1", "utree v1"),
    st.builds(
        "utree v1\nlevels {}\n{}\n".format, st.sampled_from(["", "1", "2 1", "3 2 1", "1 2"]), NESTED
    ),
    leveled_trees(max_leaves=6).map(umr.format_utree),
)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(spliced(UTREE_TEXT))
def test_parse_utree_matches_the_token_oracle(text):
    assert outcome(umr.parse_utree, text) == outcome(naive_parse_utree, text)


def test_parse_utree_matches_the_token_oracle_on_chosen_texts():
    deep = "(" * 3000 + "a" + ")" * 3000
    levels = " ".join(str(k) for k in range(3000, 0, -1))
    bodies = {
        "3 2 1": ["(a (b) ((c)))", "(((a b) (c)) ((d)))"],  # misplaced leaves; a valid tree
        "2 1": ["((a) (a))", "((a b) (c)) )", ") ((a))", "((a b)", "((a) ())", "(a b) c"],
        "1 2": ["(a b c)", "(a b c) d"],
        "1": ["((a b)", deep],
        levels: [deep],
    }
    texts = [f"utree v1\nlevels {line}\n{body}\n" for line, group in bodies.items() for body in group]
    for text in [*texts, umr.format_utree(umr.comb_tree(1200))]:
        assert outcome(umr.parse_utree, text) == outcome(naive_parse_utree, text)
