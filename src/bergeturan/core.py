"""Core data types: uniform hypergraphs, pattern graphs, formula parameters.

Vertices are the integers 1..n.  A hypergraph is canonical when every edge
is an ascending vertex tuple and the edge list is sorted lexicographically
with no duplicates.  All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .errors import (
    FormatError,
    InvalidCycleLength,
    NonUniformEdge,
    ParamsOutOfRange,
    ParseError,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 1..n with a canonical edge list.

    Construct through :func:`make_hypergraph` or :func:`read_hypergraph`;
    direct construction assumes the fields are already canonical.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]
    duplicates_collapsed: bool = field(default=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def covered_vertices(self) -> tuple[int, ...]:
        """Vertices incident to at least one edge, ascending."""
        seen = set()
        for e in self.edges:
            seen.update(e)
        return tuple(sorted(seen))

    def edge_vertex_masks(self) -> list[int]:
        """Per-edge bitmask of member vertices (bit v-1 set for vertex v)."""
        return [sum(1 << (v - 1) for v in e) for e in self.edges]

    def incidence_masks(self) -> dict[int, int]:
        """Per-vertex bitmask over edge indices (bit j set when v in edge j)."""
        out: dict[int, int] = {}
        for j, e in enumerate(self.edges):
            for v in e:
                out[v] = out.get(v, 0) | (1 << j)
        return out


def make_hypergraph(r, n, raw_edges) -> Hypergraph:
    """Validate and canonicalize raw edges into a Hypergraph.

    Duplicate edges are collapsed and the result flags it.  Raises
    ParamsOutOfRange for r < 2 or n < r, NonUniformEdge when an edge has a
    number of distinct vertices other than r, VertexOutOfRange for labels
    outside 1..n.
    """

    def canonical_edges():
        for raw in raw_edges:
            edge = tuple(sorted(set(raw)))
            if len(edge) != r:
                raise NonUniformEdge(f"edge {list(raw)} has {len(edge)} distinct vertices, expected {r}")
            if edge[0] < 1 or edge[-1] > n:
                raise VertexOutOfRange(f"edge {list(raw)} leaves the vertex range 1..{n}")
            yield edge

    return _assemble(r, n, canonical_edges())


def _assemble(r, n, edges) -> Hypergraph:
    """Check r and n, then de-duplicate and sort ``edges``, which must be
    ascending r-tuples inside 1..n.  A generator of edges is consumed after
    the r and n checks; a list was checked before them."""
    if r < 2:
        raise ParamsOutOfRange(f"uniformity r must be >= 2, got {r}")
    if n < r:
        raise ParamsOutOfRange(f"need n >= r, got n={n}, r={r}")
    edges = list(edges)
    deduped = sorted(set(edges))
    return Hypergraph(
        n=n,
        r=r,
        edges=tuple(deduped),
        duplicates_collapsed=len(deduped) != len(edges),
    )


@dataclass(frozen=True)
class PatternGraph:
    """A simple graph to be located in Berge form inside a host hypergraph.

    Vertices are exactly 1..num_vertices, none isolated.  ``edges`` keeps
    the construction order (path order, cycle order, ...) so certificates
    can refer to pattern edges by position.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    kind_tag: str
    expr: str

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _is_digit(ch: str) -> bool:
    # str.isdigit also accepts superscripts and other scripts' digits,
    # which int() then rejects or silently converts
    return "0" <= ch <= "9"


def _shift(edges, offset):
    return [(u + offset, v + offset) for u, v in edges]


def path_pattern(length: int) -> PatternGraph:
    """P_length: a path with `length` edges on length+1 vertices."""
    if length < 1:
        raise ParamsOutOfRange(f"path length must be >= 1, got {length}")
    edges = tuple((i, i + 1) for i in range(1, length + 1))
    return PatternGraph(length + 1, edges, "path", f"P{length}")


def cycle_pattern(length: int) -> PatternGraph:
    """C_length: a cycle with `length` edges; the shortest cycle has three."""
    if length < 3:
        raise InvalidCycleLength(f"cycle length must be >= 3, got {length}")
    edges = tuple((i, i + 1) for i in range(1, length)) + ((1, length),)
    return PatternGraph(length, edges, "cycle", f"C{length}")


def star_pattern(size: int) -> PatternGraph:
    """S_size: a star with `size` edges; vertex 1 is the centre."""
    if size < 1:
        raise ParamsOutOfRange(f"star size must be >= 1, got {size}")
    edges = tuple((1, i) for i in range(2, size + 2))
    return PatternGraph(size + 1, edges, "star", f"S{size}")


def matching_pattern(size: int) -> PatternGraph:
    """M_size: a matching with `size` pairwise-disjoint edges."""
    if size < 1:
        raise ParamsOutOfRange(f"matching size must be >= 1, got {size}")
    edges = tuple((2 * i - 1, 2 * i) for i in range(1, size + 1))
    return PatternGraph(2 * size, edges, "matching", f"M{size}")


def disjoint_paths_pattern(k: int, length: int) -> PatternGraph:
    """kP_length: k vertex-disjoint paths with `length` edges each."""
    if k < 1:
        raise ParamsOutOfRange(f"path count must be >= 1, got {k}")
    if k == 1:
        return path_pattern(length)
    single = path_pattern(length)
    edges: list[tuple[int, int]] = []
    for i in range(k):
        edges.extend(_shift(single.edges, i * single.num_vertices))
    return PatternGraph(k * single.num_vertices, tuple(edges), "disjoint-union", f"{k}P{length}")


def union_pattern(parts: list[PatternGraph]) -> PatternGraph:
    """Disjoint union of already-built patterns, relabelled consecutively."""
    if not parts:
        raise ParamsOutOfRange("union of zero patterns")
    if len(parts) == 1:
        return parts[0]
    edges: list[tuple[int, int]] = []
    offset = 0
    for part in parts:
        edges.extend(_shift(part.edges, offset))
        offset += part.num_vertices
    expr = "+".join(p.expr for p in parts)
    return PatternGraph(offset, tuple(edges), "disjoint-union", expr)


def parse_pattern(expr: str) -> PatternGraph:
    """Parse a pattern expression: TERM ('+' TERM)*.

    TERM is [k]P<l> | C<l> | S<l> | M<k> with positive integers in ASCII
    digits; whitespace is ignored.  Raises ParseError with the byte offset
    of the problem, or InvalidCycleLength for C<l> with l < 3.
    """
    terms = []
    i = 0
    expect_term = True
    while True:
        while i < len(expr) and expr[i].isspace():
            i += 1
        if i >= len(expr):
            if expect_term:
                raise ParseError("expected a term", i)
            break
        if not expect_term:
            if expr[i] != "+":
                raise ParseError(f"expected '+' before {expr[i]!r}", i)
            i += 1
            expect_term = True
            continue
        mult = None
        if _is_digit(expr[i]):
            start = i
            while i < len(expr) and _is_digit(expr[i]):
                i += 1
            mult = int(expr[start:i])
            if mult < 1:
                raise ParseError("multiplier must be positive", start)
            while i < len(expr) and expr[i].isspace():
                i += 1
        if i >= len(expr):
            raise ParseError("expected a pattern letter", i)
        letter = expr[i]
        if letter not in "PCSM":
            raise ParseError(f"unknown pattern letter {letter!r}", i)
        if mult is not None and letter != "P":
            raise ParseError("multiplier is only allowed before P", i)
        i += 1
        while i < len(expr) and expr[i].isspace():
            i += 1
        if i >= len(expr) or not _is_digit(expr[i]):
            raise ParseError(f"expected a positive integer after {letter!r}", i)
        start = i
        while i < len(expr) and _is_digit(expr[i]):
            i += 1
        value = int(expr[start:i])
        if value < 1:
            raise ParseError("parameter must be positive", start)
        if letter == "P":
            terms.append(disjoint_paths_pattern(mult or 1, value))
        elif letter == "C":
            terms.append(cycle_pattern(value))
        elif letter == "S":
            terms.append(star_pattern(value))
        else:
            terms.append(matching_pattern(value))
        expect_term = False
    return union_pattern(terms)


@dataclass(frozen=True)
class FormulaParams:
    """Parameters (n, r, ell, k) of the disjoint-path formulas.

    The derived core parameter ell' = floor((ell+1)/2) and the parity
    indicator (1 when ell is even) are always recomputed, never stored.
    """

    n: int
    r: int
    ell: int
    k: int = 1

    def __post_init__(self):
        if self.n < 1 or self.ell < 1 or self.k < 1 or self.r < 2:
            raise ParamsOutOfRange(
                f"need n,ell,k >= 1 and r >= 2; got n={self.n}, r={self.r}, ell={self.ell}, k={self.k}"
            )

    @property
    def ell_prime(self) -> int:
        return (self.ell + 1) // 2

    @property
    def parity_indicator(self) -> int:
        return 1 if self.ell % 2 == 0 else 0

    @property
    def core_size(self) -> int:
        return self.k * self.ell_prime - 1


# --- .hg text format -------------------------------------------------------
#
#   line 1:  "r n m"  (three integers)
#   then m lines, each r ascending integers separated by single spaces.
#   Integers are written in ASCII digits.
#   Lines beginning '#' are comments.  Trailing newline required.


def write_hypergraph(h: Hypergraph) -> str:
    """Serialize a canonical hypergraph to .hg text."""
    lines = [f"{h.r} {h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def read_hypergraph(text) -> Hypergraph:
    """Parse .hg text (a string or text stream) into a canonical Hypergraph.

    Raises FormatError with the 1-based physical line number of the first
    problem.  read(write(h)) == h, and write(read(s)) == s byte-exactly for
    canonical s.
    """
    if isinstance(text, io.TextIOBase):
        text = text.read()
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline", max(1, text.count("\n") + 1))
    numbered = [(i + 1, line) for i, line in enumerate(text.split("\n")[:-1])]
    content = [(no, line) for no, line in numbered if not line.startswith("#")]
    if not content:
        raise FormatError("missing header", 1)
    head_no, head = content[0]
    parts = head.split(" ")
    if len(parts) != 3 or not head.isascii() or not all(p.isdigit() for p in parts):
        raise FormatError("header must be three integers 'r n m'", head_no)
    r, n, m = (int(p) for p in parts)
    if len(content) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(content) - 1}", head_no)
    edges = []
    for no, line in content[1:]:
        fields = line.split(" ")
        if len(fields) != r or not line.isascii() or not all(f.isdigit() for f in fields):
            raise FormatError(f"expected {r} integers", no)
        vertices = tuple(map(int, fields))
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise FormatError("vertices must be strictly ascending", no)
        if vertices[0] < 1 or vertices[-1] > n:
            raise FormatError(f"vertex outside 1..{n}", no)
        edges.append(vertices)
    try:
        return _assemble(r, n, edges)
    except ParamsOutOfRange as exc:
        raise FormatError(str(exc), head_no) from exc
