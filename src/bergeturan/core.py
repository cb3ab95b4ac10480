"""Core data types: uniform hypergraphs, pattern graphs, formula parameters.

Vertices are the integers 1..n.  A hypergraph is canonical when every edge
is an ascending vertex tuple and the edge list is sorted lexicographically
with no duplicates.  All types are immutable after construction and safe to
share across threads.

Every result type of the package derives from :class:`Record`, an
immutable record that behaves as a frozen standard-library data class:
fields from the class annotations, defaults from class attributes,
``__post_init__``, and ``==``, ``hash`` and ``repr`` over the fields.  It
generates the same per-class methods, once per class, without importing
the standard module, which would bring ``inspect``, ``ast``, ``dis`` and
``tokenize`` into every command-line call.
"""

from __future__ import annotations

import io
import sys
from functools import lru_cache, wraps
from itertools import chain
from operator import lt

from .errors import (
    FormatError,
    InvalidCycleLength,
    NonUniformEdge,
    ParamsOutOfRange,
    ParseError,
    VertexOutOfRange,
)
from .symmetry import _LARGE_HOST_EDGES, incidence


class Record:
    """Base of the immutable result types.

    The fields of a subclass are its own annotations, in order; a class
    attribute of the same name is the field's default.  Each subclass gets,
    once at class creation, an ``__init__`` with exactly its fields as
    parameters (positional or keyword) that calls ``__post_init__`` when
    the class defines one, and the ``repr``, ``==`` and ``hash`` of a
    frozen data class: ``==`` holds between instances of the same class
    with equal compared fields, and ``hash`` is the hash of their tuple.
    Class keywords leave fields out: ``eq_skip`` of ``==`` and ``hash``,
    ``repr_skip`` of ``repr``.  Assignment and deletion raise
    AttributeError; ``functools.cached_property`` still works, because it
    writes the instance dictionary directly.
    """

    def __init_subclass__(cls, eq_skip=(), repr_skip=(), **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = ", ".join(f"{name}=_default_{name}" if name in defaults else name
                           for name in names)
        compared = [name for name in names if name not in eq_skip]
        mine = "".join(f"self.{name}, " for name in compared)
        theirs = "".join(f"other.{name}, " for name in compared)
        shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names if name not in repr_skip)
        # object.__setattr__ passes the frozen check and keeps the values
        # inline; reading self.__dict__ here would materialize the dictionary
        # and make every later attribute read, ==, and hash slower
        lines = [
            f"def __init__(self, {params}):",
            *(f"    _set(self, {name!r}, {name})" for name in names),
            *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
            "def __repr__(self):",
            f"    return f'{{self.__class__.__qualname__}}({shown})'",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({mine}))",
        ]
        namespace = {f"_default_{name}": value for name, value in defaults.items()}
        namespace["_set"] = object.__setattr__
        exec("\n".join(lines), namespace)
        for method in ("__init__", "__repr__", "__eq__", "__hash__"):
            function = namespace[method]
            function.__module__ = cls.__module__
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, function)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _VertexBits(dict):
    """Vertex v to its bit 1 << (v - 1), computed at its first lookup."""

    def __missing__(self, v):
        bit = self[v] = 1 << (v - 1)
        return bit


class Hypergraph(Record, eq_skip=("duplicates_collapsed",)):
    """An r-uniform hypergraph on vertices 1..n with a canonical edge list.

    Construct through :func:`make_hypergraph` or :func:`read_hypergraph`;
    direct construction assumes the fields are already canonical.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]
    duplicates_collapsed: bool = False

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
        """Per-edge bitmask of member vertices (bit v-1 set for vertex v).

        Each call builds a fresh list; the host keeps none.  A host of at
        least ``_LARGE_HOST_EDGES`` edges computes one bit per distinct
        label and looks it up once per incidence."""
        edges = self.edges
        if len(edges) < _LARGE_HOST_EDGES:
            # vertex v sets bit v, and the sum is shifted down by one; no
            # table indexed by n, whose bits would cost n**2 / 16 bytes
            bit_above = (1).__lshift__
            return [sum(map(bit_above, e)) >> 1 for e in edges]
        # the incidences in edge order, regrouped r at a time by zip
        bit = _VertexBits().__getitem__
        return list(map(sum, zip(*[map(bit, chain.from_iterable(edges))] * self.r)))

    def incidence_masks(self) -> dict[int, int]:
        """Per covered vertex, the bitmask over edge indices (bit j set when
        v is in edge j)."""
        covered = [v - 1 for v in self.covered_vertices()]
        # the builder's table runs to the last covered vertex, not to n
        inc, _ = incidence(covered[-1] + 1 if covered else 0, self.edge_vertex_masks(), covered)
        return {v + 1: inc[v] for v in covered}


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
    # a strictly ascending list, as every canonical file holds, is already
    # sorted and free of duplicates
    deduped = edges if all(map(lt, edges, edges[1:])) else sorted(set(edges))
    return Hypergraph(
        n=n,
        r=r,
        edges=tuple(deduped),
        duplicates_collapsed=len(deduped) != len(edges),
    )


class PatternGraph(Record):
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


def _int(digits: str, error, where) -> int:
    """int() of a run of ASCII digits, raising ``error(message, where)``
    first where int() would refuse it for its length: more digits than
    the interpreter's integer string-conversion limit (4300 by default)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < len(digits):
        raise error(f"integer longer than {limit} digits", where)
    return int(digits)


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


def _memoised_on_str(parse):
    """``parse`` behind a type check and a bounded cache of its results.

    A non-str argument raises TypeError before the cache is consulted, so
    an unhashable one cannot surface as the cache's own error.  Exceptions
    are not cached: a bad expression is parsed, and raises, on every call.
    The wrapper exposes ``parse`` as ``__wrapped__`` and the cache's
    ``cache_info``."""
    cached = lru_cache(maxsize=512)(parse)

    @wraps(parse)
    def checked(expr):
        if not isinstance(expr, str):
            raise TypeError(f"pattern expression must be str, not {type(expr).__name__}")
        return cached(expr)

    checked.cache_info = cached.cache_info
    return checked


@_memoised_on_str
def parse_pattern(expr: str) -> PatternGraph:
    """Parse a pattern expression: TERM ('+' TERM)*.

    TERM is [k]P<l> | C<l> | S<l> | M<k> with positive integers in ASCII
    digits; whitespace is ignored.  Raises ParseError with the byte offset
    of the problem, or InvalidCycleLength for C<l> with l < 3, on every
    call; a non-str ``expr`` raises TypeError.

    Results are cached per expression string (the 512 most recently used),
    so every call with an equal string returns the same immutable
    PatternGraph, as ``re`` returns one compiled pattern.
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
            mult = _int(expr[start:i], ParseError, start)
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
        value = _int(expr[start:i], ParseError, start)
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


class FormulaParams(Record):
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

    @property
    def hypothesis_failures(self) -> tuple[str, ...]:
        """The theorem-range conditions k >= 2, r >= 3, ell' >= r and
        2*ell' >= r+7 that these parameters miss, in that order."""
        conditions = (("k >= 2", self.k >= 2), ("r >= 3", self.r >= 3),
                      ("ell' >= r", self.ell_prime >= self.r),
                      ("2*ell' >= r+7", 2 * self.ell_prime >= self.r + 7))
        return tuple(name for name, holds in conditions if not holds)


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

    The edge block is checked in bulk first (:func:`_read_bulk`); a text
    that fails any bulk check is read again line by line
    (:func:`_read_lines`), which finds and reports the first problem.  A
    bulk read of at least ``_LARGE_HOST_EDGES`` edges parses all its labels
    in one ``json.loads`` pass, and imports ``json`` when it first does.
    No edge mask is built here.
    """
    if isinstance(text, io.TextIOBase):
        text = text.read()
    h = _read_bulk(text)
    return h if h is not None else _read_lines(text)


_DIGITS = b"0123456789"


def _read_bulk(text):
    """The hypergraph of ``text``, or None where :func:`_read_lines` might
    raise.  Each check runs over the whole edge block at C speed: the lines
    must hold r fields of ASCII digits between single spaces, and the
    vertex columns must rise strictly within 1..n.

    From ``_LARGE_HOST_EDGES`` edges on, the edge block becomes one JSON
    array, its spaces and newlines turned into commas, and ``json.loads``
    parses every label in one pass at C speed.  JSON refuses a label with
    a leading zero, such as 007, which the line scan reads as 7, so a block
    with a label that starts with 0 takes the per-field int() of smaller
    hosts.  Either route rejects an empty field and, as the line scan does,
    a label longer than the interpreter's integer string-conversion limit
    (``json.loads`` raises ValueError for it too; were it to accept one,
    the label would still exceed n, whose digits are within the limit, and
    fail the range check)."""
    if not text.endswith("\n"):
        return None
    if "#" in text:
        lines = [line for line in text.split("\n") if not line.startswith("#")]
        if len(lines) < 2:
            return None
        head, body = lines[0], "\n".join(lines[1:])
    else:
        head, _, body = text.partition("\n")
    parts = head.split(" ")
    if len(parts) != 3 or not head.isascii() or not all(map(str.isdigit, parts)):
        return None
    try:
        r, n, m = map(int, parts)
    except ValueError:  # an integer too long to convert
        return None
    if r < 2 or n < r or not body.isascii():
        return None
    # the bytes besides digits must be r-1 spaces and a newline per line
    # (sizes first, so that the expected layout is never larger than the text)
    holes = body.encode().translate(None, _DIGITS)
    if len(holes) != r * m or m and holes != (b" " * (r - 1) + b"\n") * m:
        return None
    if not m:  # with no edges, r is bounded by nothing in the text
        return _assemble(r, n, [])
    try:
        if m < _LARGE_HOST_EDGES or body[0] == "0" or " 0" in body or "\n0" in body:
            values = list(map(int, body.split()))
        else:
            import json  # only large reads need it

            values = json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:  # an empty field (JSON) or an integer too long to convert
        return None
    if len(values) != r * m:  # an empty field (split)
        return None
    columns = [values[i::r] for i in range(r)]
    if min(columns[0]) < 1 or max(columns[-1]) > n:
        return None
    for low, high in zip(columns, columns[1:]):
        if not all(map(lt, low, high)):
            return None
    return _assemble(r, n, zip(*columns))


def _read_lines(text) -> Hypergraph:
    """Read ``text`` one line at a time, raising FormatError at the first
    line with a problem."""
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
    r, n, m = (_int(p, FormatError, head_no) for p in parts)
    if len(content) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(content) - 1}", head_no)
    edges = []
    for no, line in content[1:]:
        fields = line.split(" ")
        if len(fields) != r or not line.isascii() or not all(f.isdigit() for f in fields):
            raise FormatError(f"expected {r} integers", no)
        vertices = tuple(_int(f, FormatError, no) for f in fields)
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise FormatError("vertices must be strictly ascending", no)
        if vertices[0] < 1 or vertices[-1] > n:
            raise FormatError(f"vertex outside 1..{n}", no)
        edges.append(vertices)
    try:
        return _assemble(r, n, edges)
    except ParamsOutOfRange as exc:
        raise FormatError(str(exc), head_no) from exc
