"""Random text after each format's header reaches the five parsers, and
only the package's own errors may come out of them."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import umr

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
