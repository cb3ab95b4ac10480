"""Property tests: the parsers are total and the text formats round-trip.

Examples are derandomized and the example database is off, so every run
checks the same inputs.
"""

import re
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bergeturan import (
    BergeCertificate,
    Hypergraph,
    PatternGraph,
    find_berge_embedding,
    make_hypergraph,
    parse_pattern,
    read_hypergraph,
    write_hypergraph,
)
from bergeturan.errors import FormatError, InvalidCycleLength, ParseError

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _small_numbers(text):
    # a pattern like P123456789 is valid but too large to build in a test
    return re.search(r"[0-9]{3}", text) is None


@st.composite
def mutated(draw, texts, alphabet):
    """A text from ``texts``, perhaps with one character deleted or inserted."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["keep", "delete", "insert"]))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(st.sampled_from(alphabet)) + text[at:]
    return text


pattern_terms = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "", "2", "0"]),
    st.sampled_from("PCSM"),
    st.integers(0, 6),
)
pattern_exprs = st.lists(pattern_terms, min_size=1, max_size=3).map("+".join)
pattern_texts = st.one_of(
    st.text(max_size=16),
    mutated(pattern_exprs, "PCSM+ 09²１x-"),
).filter(_small_numbers)


@PROPERTY
@given(pattern_texts)
def test_parse_pattern_is_total(text):
    try:
        pattern = parse_pattern(text)
    except (ParseError, InvalidCycleLength):
        return
    assert isinstance(pattern, PatternGraph)
    assert parse_pattern(pattern.expr) == pattern


@st.composite
def hypergraphs(draw, max_n=7):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, max_n))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), r))),
                          max_size=8))
    return make_hypergraph(r, n, edges)


hg_texts = st.one_of(
    st.text(max_size=40),
    mutated(hypergraphs().map(write_hypergraph), "0123456789 \n#²３-x\r"),
)


@PROPERTY
@given(hg_texts)
def test_read_hypergraph_is_total(text):
    try:
        h = read_hypergraph(text)
    except FormatError:
        return
    assert isinstance(h, Hypergraph)
    assert read_hypergraph(write_hypergraph(h)) == h


@PROPERTY
@given(hypergraphs())
def test_canonical_text_round_trips(h):
    text = write_hypergraph(h)
    assert read_hypergraph(text) == h
    assert write_hypergraph(read_hypergraph(text)) == text


@PROPERTY
@given(hypergraphs(), st.sampled_from(["P1", "P2", "P3", "S2", "M2", "C3", "P1+P2"]))
def test_kernel_certificates_round_trip_through_json(h, expr):
    cert = find_berge_embedding(h, parse_pattern(expr)).certificate
    if cert is not None:
        assert BergeCertificate.from_json(cert.to_json()) == cert
