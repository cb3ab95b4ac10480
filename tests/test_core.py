import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bergeturan import (
    BergeCertificate,
    EmbeddingResult,
    FormulaParams,
    Hypergraph,
    PatternGraph,
    Status,
    block_construction,
    extremal_construction,
    make_hypergraph,
    parse_pattern,
    read_hypergraph,
    write_hypergraph,
)
from bergeturan import core
from bergeturan._reader import _read_bulk, _read_lines
from bergeturan.core import Record
from bergeturan.errors import (
    FormatError,
    InvalidCycleLength,
    NonUniformEdge,
    ParamsOutOfRange,
    ParseError,
    VertexOutOfRange,
)


class TestMakeHypergraph:
    def test_canonicalizes_by_sorting(self):
        h = make_hypergraph(3, 5, [[3, 1, 2], [3, 4, 5]])
        assert h.edges == ((1, 2, 3), (3, 4, 5))
        assert not h.duplicates_collapsed

    def test_collapses_duplicates_with_flag(self):
        h = make_hypergraph(3, 5, [[1, 2, 3], [1, 2, 3]])
        assert h.edges == ((1, 2, 3),)
        assert h.duplicates_collapsed

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            make_hypergraph(3, 4, [[1, 2, 5]])

    def test_non_uniform_edge(self):
        with pytest.raises(NonUniformEdge):
            make_hypergraph(3, 5, [[1, 2]])
        with pytest.raises(NonUniformEdge):
            make_hypergraph(3, 5, [[1, 1, 2]])

    def test_canonicalization_idempotent(self):
        h = make_hypergraph(3, 6, [[6, 5, 4], [1, 3, 2], [2, 3, 4]])
        again = make_hypergraph(h.r, h.n, [list(e) for e in h.edges])
        assert again == h

    def test_bad_params(self):
        with pytest.raises(ParamsOutOfRange):
            make_hypergraph(1, 5, [])
        with pytest.raises(ParamsOutOfRange):
            make_hypergraph(4, 3, [])


class TestParsePattern:
    def test_k_disjoint_paths(self):
        pat = parse_pattern("2P5")
        assert pat.num_vertices == 12
        assert pat.num_edges == 10
        assert pat.kind_tag == "disjoint-union"

    def test_union(self):
        pat = parse_pattern("P3+M2")
        assert pat.num_vertices == 8
        assert pat.num_edges == 5

    def test_short_cycle_rejected(self):
        with pytest.raises(InvalidCycleLength):
            parse_pattern("C2")

    def test_whitespace_ignored(self):
        assert parse_pattern(" 2 P5 + M2 ") == parse_pattern("2P5+M2")

    def test_parse_errors_carry_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_pattern("P")
        assert exc.value.offset == 1
        with pytest.raises(ParseError) as exc:
            parse_pattern("2C3")
        assert exc.value.offset == 1
        with pytest.raises(ParseError):
            parse_pattern("P3++M2")
        with pytest.raises(ParseError):
            parse_pattern("X3")
        with pytest.raises(ParseError):
            parse_pattern("")

    @pytest.mark.parametrize("expr,offset", [
        ("P" + "9" * 5000, 1),
        ("9" * 5000 + "P3", 0),
        ("P3 + C" + "0" * 4301, 6),
        ("S" + "9" * 4301, 1),
    ])
    def test_overlong_integers_carry_offset(self, expr, offset):
        # int() refuses more than 4300 digits by default
        with pytest.raises(ParseError) as exc:
            parse_pattern(expr)
        assert (str(exc.value), exc.value.offset) == (
            f"integer longer than 4300 digits (at offset {offset})", offset)

    def test_non_ascii_digits_rejected(self):
        # str.isdigit accepts these; int() rejects the superscript and
        # silently converts full-width digits
        with pytest.raises(ParseError) as exc:
            parse_pattern("P\u00b2")
        assert exc.value.offset == 1
        with pytest.raises(ParseError) as exc:
            parse_pattern("P\uff13")
        assert exc.value.offset == 1

    def test_single_edge_aliases(self):
        for expr in ("P1", "S1", "M1"):
            pat = parse_pattern(expr)
            assert pat.num_vertices == 2
            assert pat.num_edges == 1

    def test_grammar_total_on_path_unions(self):
        for k, ell in [(1, 1), (2, 3), (7, 11), (40, 25), (1000, 1000)]:
            pat = parse_pattern(f"{k}P{ell}")
            assert pat.num_vertices == k * (ell + 1)
            assert pat.num_edges == k * ell

    def test_vertices_are_contiguous_and_covered(self):
        pat = parse_pattern("P2+C4+S3+M2")
        touched = {v for e in pat.edges for v in e}
        assert touched == set(range(1, pat.num_vertices + 1))

    def test_equal_strings_share_one_pattern(self):
        first = parse_pattern("2P5+M2")
        # built at run time, so not the same string object as the literal
        again = "".join(["2P5", "+", "M2"])
        assert parse_pattern(again) is first
        assert parse_pattern(" 2P5 + M2") == first

    @pytest.mark.parametrize("expr,error,offset", [
        ("P3++M2", ParseError, 3), ("2C3", ParseError, 1), ("C2", InvalidCycleLength, None),
    ])
    def test_errors_are_raised_on_every_call(self, expr, error, offset):
        raised = []
        for _ in range(3):
            with pytest.raises(error) as exc:
                parse_pattern(expr)
            raised.append(exc.value)
        assert len({id(e) for e in raised}) == 3
        assert {(str(e), getattr(e, "offset", None)) for e in raised} == {
            (str(raised[0]), offset)}

    @pytest.mark.parametrize("value,name", [
        (["P", "2"], "list"), (b"P2", "bytes"), (None, "NoneType"), (2, "int"),
    ])
    def test_non_str_raises_type_error_before_the_cache(self, value, name):
        before = parse_pattern.cache_info()
        with pytest.raises(TypeError, match=f"^pattern expression must be str, not {name}$"):
            parse_pattern(value)
        after = parse_pattern.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_cache_is_bounded(self):
        maxsize = parse_pattern.cache_info().maxsize
        assert maxsize is not None
        for length in range(1, maxsize + 50):
            parse_pattern(f"S{length}")
        assert parse_pattern.cache_info().currsize == maxsize


class TestFormulaParams:
    def test_derived_fields(self):
        p = FormulaParams(n=10, r=3, ell=5, k=2)
        assert p.ell_prime == 3
        assert p.parity_indicator == 0
        assert p.core_size == 5
        assert FormulaParams(n=10, r=3, ell=6, k=2).parity_indicator == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ParamsOutOfRange):
            FormulaParams(n=0, r=3, ell=5, k=2)
        with pytest.raises(ParamsOutOfRange):
            FormulaParams(n=5, r=1, ell=5, k=2)


class TestRecord:
    """The frozen-record semantics every result type relies on."""

    def test_fields_defaults_and_post_init(self):
        seen = []

        class Point(Record, eq_skip=("label",), repr_skip=("cache",)):
            x: int
            y: int = 0
            label: str = ""
            cache: tuple = ()

            def __post_init__(self):
                seen.append((self.x, self.y))

        point = Point(3, cache=(9,))
        assert seen == [(3, 0)]
        assert (point.x, point.y, point.label, point.cache) == (3, 0, "", (9,))
        assert Point(1) == Point(x=1, y=0)
        assert repr(Point(1, 2, "a", (9,))) == f"{Point.__qualname__}(x=1, y=2, label='a')"
        assert Point(1, label="a") == Point(1, label="b")
        assert hash(Point(1, label="a")) == hash(Point(1, label="b")) == hash((1, 0, ()))
        assert Point(1, cache=(1,)) != Point(1)
        assert Point(1) != (1, 0, "", ())

    def test_signature_lists_the_fields_in_order_with_defaults(self):
        class Point(Record):
            x: int
            y: int = 0
            label: str = "origin"

        assert str(inspect.signature(Point)) == "(x, y=0, label='origin')"
        assert str(inspect.signature(FormulaParams)) == "(n, r, ell, k=1)"
        assert list(inspect.signature(Hypergraph).parameters) == [
            "n", "r", "edges", "duplicates_collapsed"]

    def test_generated_init_names_its_class(self):
        for cls in (Hypergraph, PatternGraph, FormulaParams, EmbeddingResult):
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
            assert cls.__init__.__module__ == cls.__module__

    def test_one_field_record_hashes_as_a_one_tuple(self):
        class Single(Record):
            value: tuple

        class Skipped(Record, eq_skip=("note",)):
            value: int
            note: str = ""

        assert hash(Single((1, 2))) == hash(((1, 2),))
        assert hash(Skipped(7, "a")) == hash(Skipped(7, "b")) == hash((7,))
        assert Single((1, 2)) == Single((1, 2)) != Single((2, 1))
        nan = float("nan")
        # fields compare as members of a tuple, by identity first
        assert Single(nan) == Single(nan)

    def test_records_of_two_classes_with_equal_fields_are_unequal(self):
        class Left(Record):
            x: int

        class Right(Record):
            x: int

        assert Left(1) != Right(1) and not Left(1) == Right(1)
        assert Left(1) != (1,)
        assert len({Left(1), Right(1)}) == 2

    def test_eq_skip_field_is_ignored_by_eq_and_hash(self):
        class Tagged(Record, eq_skip=("tag",)):
            x: int
            tag: str
            y: int = 0

        assert Tagged(1, "a", 2) == Tagged(1, "b", 2)
        assert hash(Tagged(1, "a", 2)) == hash(Tagged(1, "b", 2)) == hash((1, 2))
        assert Tagged(1, "a", 2) != Tagged(1, "a", 3)
        assert repr(Tagged(1, "a")) == f"{Tagged.__qualname__}(x=1, tag='a', y=0)"

    def test_repr_skip_field_is_absent_from_repr(self):
        class Cached(Record, repr_skip=("memo",)):
            x: int
            memo: tuple = ()

        assert repr(Cached(1, (2, 3))) == f"{Cached.__qualname__}(x=1)"
        assert Cached(1, (2, 3)) != Cached(1)

    def test_fields_are_frozen(self):
        h = make_hypergraph(3, 5, [[1, 2, 3]])
        with pytest.raises(AttributeError, match="'edges'"):
            h.edges = ()
        with pytest.raises(AttributeError):
            h.extra = 1
        with pytest.raises(AttributeError):
            del h.n
        with pytest.raises(AttributeError):
            FormulaParams(10, 3, 5).k = 2
        assert h.edges == ((1, 2, 3),)

    def test_hypergraph_compares_without_the_duplicates_flag(self):
        fresh = make_hypergraph(3, 5, [[1, 2, 3]])
        collapsed = make_hypergraph(3, 5, [[1, 2, 3], [3, 2, 1]])
        assert collapsed.duplicates_collapsed and not fresh.duplicates_collapsed
        assert fresh == collapsed
        assert hash(fresh) == hash(collapsed) == hash((5, 3, ((1, 2, 3),)))
        assert len({fresh, collapsed}) == 1
        assert fresh != make_hypergraph(3, 6, [[1, 2, 3]])
        assert repr(collapsed) == "Hypergraph(n=5, r=3, edges=((1, 2, 3),), duplicates_collapsed=True)"

    def test_literal_reprs(self):
        pattern = parse_pattern("P2")
        assert repr(pattern) == (
            "PatternGraph(num_vertices=3, edges=((1, 2), (2, 3)), kind_tag='path', expr='P2')")
        certificate = BergeCertificate(parse_pattern("P1"), (4, 2), (0,))
        assert repr(EmbeddingResult(Status.FOUND, certificate, 3)) == (
            "EmbeddingResult(status=<Status.FOUND: 'found'>, certificate=BergeCertificate("
            "pattern=PatternGraph(num_vertices=2, edges=((1, 2),), kind_tag='path', expr='P1'), "
            "defining_vertices=(4, 2), edge_assignment=(0,)), nodes=3)")
        assert repr(FormulaParams(10, 3, 5)) == "FormulaParams(n=10, r=3, ell=5, k=1)"

    def test_post_init_still_validates(self):
        with pytest.raises(ParamsOutOfRange):
            FormulaParams(0, 3, 5)

    @pytest.mark.parametrize("build", [
        lambda: PatternGraph(3, ((1, 2), (2, 3)), "path"),
        lambda: PatternGraph(3, ((1, 2), (2, 3)), "path", "P2", "extra"),
        lambda: FormulaParams(10, 3, 5, ell_prime=3),
        lambda: Hypergraph(n=5, r=3, edges=(), m=0),
        lambda: FormulaParams(10, 3, 5, n=10),
    ])
    def test_wrong_arity_or_keyword_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()


class TestHgFormat:
    def test_read_basic(self):
        h = read_hypergraph("3 5 2\n1 2 3\n3 4 5\n")
        assert (h.r, h.n, h.m) == (3, 5, 2)

    def test_round_trip_identity(self):
        h = make_hypergraph(3, 6, [[4, 5, 6], [1, 2, 3], [2, 3, 5]])
        assert read_hypergraph(write_hypergraph(h)) == h

    def test_byte_exact_round_trip(self):
        text = "3 5 2\n1 2 3\n3 4 5\n"
        assert write_hypergraph(read_hypergraph(text)) == text

    def test_reads_streams_and_comments(self):
        h = read_hypergraph(io.StringIO("# host\n3 5 1\n# edge\n1 2 3\n"))
        assert h.edges == ((1, 2, 3),)

    def test_arity_error_line_number(self):
        with pytest.raises(FormatError) as exc:
            read_hypergraph("3 5 2\n1 2\n3 4 5\n")
        assert exc.value.line == 2

    def test_missing_trailing_newline(self):
        with pytest.raises(FormatError):
            read_hypergraph("3 5 1\n1 2 3")

    def test_descending_vertices_rejected(self):
        with pytest.raises(FormatError) as exc:
            read_hypergraph("3 5 1\n3 2 1\n")
        assert exc.value.line == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            read_hypergraph("3 5 2\n1 2 3\n")

    def test_header_garbage(self):
        with pytest.raises(FormatError):
            read_hypergraph("three five two\n")

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(FormatError) as exc:
            read_hypergraph("3 5 1\n1 2 \u00b2\n")
        assert exc.value.line == 2
        with pytest.raises(FormatError) as exc:
            read_hypergraph("\uff13 5 0\n")
        assert exc.value.line == 1


# texts and what the line-by-line reader makes of them: the edges and the
# duplicates flag, or the FormatError message and line
READER_TABLE = [
    ("# host\n3 5 2\n1 2 3\n# edge\n3 4 5\n", (((1, 2, 3), (3, 4, 5)), False)),
    ("3 5 2\n3 4 5\n1 2 3\n", (((1, 2, 3), (3, 4, 5)), False)),
    ("3 5 3\n1 2 3\n2 3 4\n1 2 3\n", (((1, 2, 3), (2, 3, 4)), True)),
    ("3 5 0\n", ((), False)),
    ("1000000000 1000000000 0\n", ((), False)),
    ("2 4 2\n1 2\n3 4\n", (((1, 2), (3, 4)), False)),
    ("3 5 1\n01 02 003\n", (((1, 2, 3),), False)),
    ("3 5 1\n1  2 3\n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n1 2 3 \n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n 1 2 3\n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n1\t2 3\n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n1 2 3\r\n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n1 2 \uff13\n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n\n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n1 2 \n", ("line 2: expected 3 integers", 2)),
    ("3 5 1\n 2 3\n", ("line 2: expected 3 integers", 2)),
    ("3 5 2\n1 2 3\n2  4\n", ("line 3: expected 3 integers", 3)),
    ("3 5 1\n0 2 3\n", ("line 2: vertex outside 1..5", 2)),
    ("3 5 1\n1 2 6\n", ("line 2: vertex outside 1..5", 2)),
    ("3 5 1\n1 3 2\n", ("line 2: vertices must be strictly ascending", 2)),
    ("3 5 2\n1 2 3\n", ("line 1: expected 2 edge lines, found 1", 1)),
    ("3 5 1\n1 2 3\n2 3 4\n", ("line 1: expected 1 edge lines, found 2", 1)),
    ("# a\n3 5 2\n1 2 3\n# b\n1 2 9\n", ("line 5: vertex outside 1..5", 5)),
    ("1 5 1\n1\n", ("line 1: uniformity r must be >= 2, got 1", 1)),
    ("3 2 0\n", ("line 1: need n >= r, got n=2, r=3", 1)),
    ("3 5 1\n1 2 3", ("line 2: missing trailing newline", 2)),
    ("# a\n# b\n", ("line 1: missing header", 1)),
    # integers longer than int()'s default limit of 4300 digits
    ("3 5 1\n1 2 " + "9" * 5000 + "\n", ("line 2: integer longer than 4300 digits", 2)),
    ("3 5 1\n1 2 " + "0" * 4400 + "3\n", ("line 2: integer longer than 4300 digits", 2)),
    ("3 " + "9" * 5000 + " 0\n", ("line 1: integer longer than 4300 digits", 1)),
    ("# a\n3 5 " + "1" * 5000 + "\n", ("line 2: integer longer than 4300 digits", 2)),
    ("3 5 1\n1 2 " + "0" * 4299 + "3\n", (((1, 2, 3),), False)),
]


@pytest.mark.parametrize("text,expected", READER_TABLE)
def test_reader_table(text, expected):
    if isinstance(expected[0], str):
        with pytest.raises(FormatError) as exc:
            read_hypergraph(text)
        assert (str(exc.value), exc.value.line) == expected
        # the bulk pass declines every text the line scan rejects
        assert _read_bulk(text) is None
    else:
        h = read_hypergraph(text)
        assert (h.edges, h.duplicates_collapsed) == expected
        # and reads every text it accepts without falling back to the scan
        bulk = _read_bulk(text)
        assert bulk == _read_lines(text)
        assert bulk.duplicates_collapsed == expected[1]


def _random_hg_text(rng):
    """A random .hg text: r in 2..4, labels up to two digits, some with
    leading zeros, comment lines anywhere, repeated or unsorted edges, and
    0 edges or a count on either side of the readers' large-host cut."""
    r = rng.randint(2, 4)
    n = rng.randint(r, 14)
    m = rng.choice((0, 1, 2, 5, CUT - 1, CUT, CUT + 1))
    zeros = rng.random() < 0.3
    lines = []
    for _ in range(m):
        edge = sorted(rng.sample(range(1, n + 1), r))
        lines.append(" ".join("0" * (zeros and rng.random() < 0.05) + str(v) for v in edge))
    if rng.random() < 0.2:
        rng.shuffle(lines)
    lines.insert(0, f"{r} {n} {m}")
    for _ in range(rng.choice((0, 0, 1, 3))):
        lines.insert(rng.randint(0, len(lines)), "#" + rng.choice(("", " note", "1 2 3")))
    return "\n".join(lines) + "\n"


def _mutated(rng, text):
    """``text`` with one byte replaced, deleted or inserted."""
    at = rng.randrange(len(text))
    byte = rng.choice("0123456789 \n#\r\tx-²")
    return rng.choice((text[:at] + byte + text[at + 1:], text[:at] + text[at + 1:],
                       text[:at] + byte + text[at:]))


def test_bulk_and_line_readers_agree():
    # every text that one reader accepts, the other accepts with an equal
    # host and duplicates flag; read_hypergraph trusts the bulk reader's
    # None to mean that the line reader raises
    rng = random.Random(23)
    accepted = declined = 0
    for _ in range(1500):
        text = _random_hg_text(rng)
        for candidate in (text, _mutated(rng, text), _mutated(rng, text)):
            bulk = _read_bulk(candidate)
            try:
                lines = _read_lines(candidate)
            except FormatError:
                assert bulk is None, candidate
                declined += 1
                continue
            assert bulk == lines, candidate
            assert bulk.duplicates_collapsed == lines.duplicates_collapsed
            accepted += 1
    assert accepted > 1500 and declined > 1000


# hosts whose header names far more vertices than their edges cover
LARGE_N_HOSTS = [
    "3 1000000000 0\n",
    "3 1000000000 1\n1 2 3\n",
    "3 100000 2\n1 2 3\n99998 99999 100000\n",
]

_LARGE_N_PROBE = """
import json, sys
from bergeturan import find_berge_embedding, parse_pattern, read_hypergraph
from bergeturan.berge import _vertex_rows
out = []
for text in json.loads(sys.argv[1]):
    h = read_hypergraph(text)
    found = [find_berge_embedding(h, parse_pattern(e)) for e in ("P1", "P2")]
    out.append([list(map(hex, h.edge_vertex_masks())), sorted(_vertex_rows(h).items()),
                [(res.status.value, res.nodes) for res in found]])
print(json.dumps(out))
"""


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_large_n_hosts_cost_nothing_in_n():
    # reading, edge masks, incidence and search cost nothing per vertex
    # beyond the last covered one; the child's address space is capped at
    # 1 GB, so a table indexed by n fails there at once
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _LARGE_N_PROBE, json.dumps(LARGE_N_HOSTS)],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [[], [], [["not-found", 0], ["not-found", 0]]],
        [["0x7"], [[1, 1], [2, 1], [3, 1]], [["found", 2], ["not-found", 0]]],
        [["0x7", hex(0b111 << 99997)],
         [[1, 1], [2, 1], [3, 1], [99998, 2], [99999, 2], [100000, 2]],
         [["found", 2], ["not-found", 10]]],
    ]


# --- edge masks of large hosts ------------------------------------------------

CUT = core._LARGE_HOST_EDGES


def _hg_lines(m, n=12, r=3, seed=0):
    """m distinct random edges of 1..n, sorted, as .hg edge lines."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
    return [" ".join(map(str, e)) + "\n" for e in sorted(edges)]


def _canonical(m):
    return f"3 12 {m}\n" + "".join(_hg_lines(m))


def _commented(m):
    lines = _hg_lines(m)
    return f"# a host\n3 12 {m}\n" + "".join(lines[:5]) + "# more\n" + "".join(lines[5:])


def _unsorted(m):
    # no duplicates, so only the order differs from the canonical edge list
    return f"3 12 {m}\n" + "".join(reversed(_hg_lines(m)))


def _duplicated(m):
    # m + 1 lines, so the reader's route follows the lines and the mask
    # builder's the m edges
    lines = _hg_lines(m)
    return f"3 12 {m + 1}\n" + "".join(lines[:3] + [lines[2]] + lines[3:])


MASK_HOSTS = {
    "canonical": lambda m: read_hypergraph(_canonical(m)),
    "canonical-r4": lambda m: read_hypergraph(f"4 12 {m}\n" + "".join(_hg_lines(m, r=4))),
    "comments": lambda m: read_hypergraph(_commented(m)),
    "unsorted": lambda m: read_hypergraph(_unsorted(m)),
    "duplicates": lambda m: read_hypergraph(_duplicated(m)),
    # the host the line scan builds
    "line-scan": lambda m: _read_lines(_canonical(m)),
    "make": lambda m: make_hypergraph(3, 12, [tuple(map(int, line.split()))[::-1]
                                              for line in _hg_lines(m)]),
    # 60 and 65 edges
    "extremal": lambda m: extremal_construction(
        FormulaParams(n=10, r=3, ell=5 if m < CUT else 6, k=2))[0],
    # one edge per block of three
    "block": lambda m: block_construction(3 * m, 3, 3),
}


@pytest.mark.parametrize("kind,m", [(kind, m) for kind in sorted(MASK_HOSTS)
                                    for m in (CUT - 1, CUT)] + [("canonical", 0)])
def test_edge_masks_match_naive_on_both_sides_of_the_cut(kind, m):
    h = MASK_HOSTS[kind](m)
    assert (h.m < CUT) == (m < CUT)
    naive = [sum(1 << (v - 1) for v in e) for e in h.edges]
    twin = Hypergraph(h.n, h.r, h.edges)
    before = (repr(h), hash(h))
    first = h.edge_vertex_masks()
    assert first == naive
    first.append(0)
    first[0] = -1
    assert h.edge_vertex_masks() == naive
    assert h.edge_vertex_masks() is not h.edge_vertex_masks()
    assert (repr(h), hash(h)) == before
    assert h == twin and twin == h and hash(twin) == hash(h)
    assert read_hypergraph(write_hypergraph(h)) == h


@pytest.mark.parametrize("at", [0, CUT // 2, CUT - 1])
@pytest.mark.parametrize("digits", ["9" * 5000, "0" * 4400 + "3"])
def test_overlong_label_in_a_large_host_names_its_line(at, digits):
    lines = _hg_lines(CUT)
    lines[at] = "1 2 " + digits + "\n"
    text = f"3 12 {CUT}\n" + "".join(lines)
    assert _read_bulk(text) is None
    with pytest.raises(FormatError) as exc:
        read_hypergraph(text)
    assert (str(exc.value), exc.value.line) == (
        f"line {at + 2}: integer longer than 4300 digits", at + 2)


@pytest.mark.parametrize("at,field", [(0, 0), (CUT // 2, 0), (CUT // 2, 1), (CUT - 1, 2)])
def test_leading_zero_label_in_a_large_host_is_read_in_bulk(at, field):
    # JSON refuses 007, so the bulk reader parses a block with a label that
    # starts with 0 per field, as the line scan does: at the start of the
    # block, of a line and inside a line
    lines = _hg_lines(CUT)
    fields = lines[at].split()
    fields[field] = "00" + fields[field]
    lines[at] = " ".join(fields) + "\n"
    text = f"3 12 {CUT}\n" + "".join(lines)
    bulk = _read_bulk(text)
    assert bulk is not None
    assert bulk == _read_lines(text) == read_hypergraph(_canonical(CUT))


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("at", [0, CUT // 2, CUT - 1])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_empty_field_in_a_large_host_names_its_line(where, at, zero):
    # the line keeps two spaces and a newline, so only the parse of the
    # labels finds the missing one: JSON, or int() per field where another
    # line has a leading zero
    lines = _hg_lines(CUT)
    a, b, c = lines[at].split()
    lines[at] = {"start": f" {b} {c}\n", "middle": f"{a}  {c}\n", "end": f"{a} {b} \n"}[where]
    if zero:
        other = (at + 1) % CUT
        lines[other] = "0" + lines[other]
    text = f"3 12 {CUT}\n" + "".join(lines)
    assert _read_bulk(text) is None
    with pytest.raises(FormatError) as exc:
        read_hypergraph(text)
    assert (str(exc.value), exc.value.line) == (f"line {at + 2}: expected 3 integers", at + 2)


_HUGE_LABELS_PROBE = """
import sys, tracemalloc
from bergeturan import read_hypergraph
tracemalloc.start()
h = read_hypergraph(sys.stdin.read())
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(h.m, peak)
"""


def test_reading_a_large_host_with_huge_labels_builds_no_mask():
    # each mask of these edges would take about 125 MB, so the child runs
    # under the 1 GB cap: a reader that built masks fails there, not here
    top = 10 ** 9
    text = f"3 {top} {CUT}\n" + "".join(
        f"{top - 3 * i - 2} {top - 3 * i - 1} {top - 3 * i}\n" for i in reversed(range(CUT)))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _HUGE_LABELS_PROBE], input=text,
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    m, peak = map(int, proc.stdout.split())
    assert m == CUT and peak < 1 << 20
