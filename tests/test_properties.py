"""Property tests: the parsers are total and the text formats round-trip.

Examples are derandomized and the example database is off, so every run
checks the same inputs.
"""

import re
from itertools import combinations

import pytest
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
from bergeturan.core import _read_bulk, _read_lines
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


@PROPERTY
@given(pattern_texts)
def test_cached_parse_matches_a_fresh_parse(text):
    def outcome(parse):
        try:
            pattern = parse(text)
        except (ParseError, InvalidCycleLength) as exc:
            return type(exc), str(exc), getattr(exc, "offset", None)
        return pattern, repr(pattern)

    cached = outcome(parse_pattern)
    assert outcome(parse_pattern.__wrapped__) == cached
    again = outcome(parse_pattern)
    assert again == cached
    if isinstance(cached[0], PatternGraph):
        assert again[0] is cached[0]


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


@st.composite
def raw_hg_texts(draw, max_n=7):
    """.hg text as a person might write it: edges in any order, repeated or
    written backwards, with leading zeros and comment lines."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, max_n))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), r))),
                          max_size=8))
    lines = [f"{r} {n} {len(edges)}"]
    for edge in edges:
        if draw(st.integers(0, 9)) == 0:
            edge = edge[::-1]
        lines.append(" ".join(draw(st.sampled_from(["", "", "", "0"])) + str(v) for v in edge))
        if draw(st.integers(0, 5)) == 0:
            lines.append("# note")
    return "\n".join(lines) + "\n"


near_hg_texts = st.one_of(
    st.text(max_size=40),
    mutated(raw_hg_texts(), "0123456789 \n#\t\r\uff13x"),
)


@settings(PROPERTY, max_examples=500)
@given(near_hg_texts)
def test_bulk_reader_agrees_with_the_line_scan(text):
    _bulk_reader_agrees_with_the_line_scan(text)


def _bulk_reader_agrees_with_the_line_scan(text):
    # the bulk pass accepts exactly the texts the line scan accepts, with
    # the same hypergraph, and every rejected text fails at the same line
    try:
        expected = _read_lines(text)
    except FormatError as exc:
        assert _read_bulk(text) is None
        with pytest.raises(FormatError) as got:
            read_hypergraph(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    bulk = _read_bulk(text)
    assert bulk == expected
    assert bulk.duplicates_collapsed == expected.duplicates_collapsed


@st.composite
def large_raw_hg_texts(draw):
    """.hg text of 64 to 80 edges, the size at which the bulk reader parses
    labels by JSON: edges in any order and perhaps repeated, and in some
    texts one edge written backwards, one label with leading zeros or a
    comment line."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r + 6, 12))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), r))),
                          min_size=64, max_size=80))
    lines = [" ".join(map(str, edge)) for edge in edges]
    extra = draw(st.sampled_from(["none", "none", "backwards", "zeros", "comment"]))
    at = draw(st.integers(0, len(lines) - 1))
    if extra == "backwards":
        lines[at] = " ".join(map(str, edges[at][::-1]))
    elif extra == "zeros":
        fields = lines[at].split(" ")
        i = draw(st.integers(0, r - 1))
        fields[i] = "00" + fields[i]
        lines[at] = " ".join(fields)
    elif extra == "comment":
        lines.insert(at, "# note")
    return f"{r} {n} {len(edges)}\n" + "\n".join(lines) + "\n"


@settings(PROPERTY, max_examples=300)
@given(mutated(large_raw_hg_texts(), "0123456789 \n#\t\r\uff13x"))
def test_bulk_reader_agrees_with_the_line_scan_on_large_hosts(text):
    _bulk_reader_agrees_with_the_line_scan(text)


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
