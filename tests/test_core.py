import io

import pytest

from bergeturan import (
    FormulaParams,
    Hypergraph,
    make_hypergraph,
    parse_pattern,
    read_hypergraph,
    write_hypergraph,
)
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
