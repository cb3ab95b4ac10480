"""Core data types: uniform hypergraphs, pattern graphs, formula parameters.

Vertices are the integers 1..n.  A hypergraph is canonical when every edge
is an ascending vertex tuple and the edge list is sorted lexicographically
with no duplicates.  All types are immutable after construction and safe to
share across threads.

Every result type of the package derives from :class:`Record`, an
immutable record that behaves as a frozen standard-library data class:
fields from the class annotations, defaults from class attributes,
``__post_init__``, and ``==``, ``hash`` and ``repr`` over the fields.  It
generates one method per class, ``__init__``, and shares the others,
without importing the standard module, which would bring ``inspect``,
``ast``, ``dis`` and ``tokenize`` into every command-line call.

The ``.hg`` reader lives in the private module ``_reader``, which
:func:`read_hypergraph` imports at its first call.
"""

from __future__ import annotations

import io
import sys
from functools import lru_cache, wraps
from operator import attrgetter, lt

from .errors import (
    InvalidCycleLength,
    NonUniformEdge,
    ParamsOutOfRange,
    ParseError,
    VertexOutOfRange,
)

# Hosts with at least this many edges take the large-host routes: the bulk
# reader parses their labels in one ``json.loads`` pass (``_reader._read_bulk``)
# and leaves the label columns on the host, and the kernel builds their
# masks and vertex tables in one transpose of those columns
# (``berge._host_prep``).  Smaller hosts keep the per-item routes: there a
# label repeats only a few times, and a read imports no ``json``.  Medians
# of interleaved runs on random canonical hosts (n=12, r=3; n=30, r=3;
# n=60, r=4), one core of a 2-core x86 machine, CPython 3.11.  At 64 edges
# the masks and the kernel's tables took 30, 51 and 93 us by the transpose,
# against 48, 76 and 119 by the per-edge masks and the packing of them into
# tables; on the 14,157-edge construction, 3.0 against 5.7 ms.  Parsing the
# labels took (9 runs, before the transpose), by JSON, by int() per
# distinct label (the route JSON replaced) and by int() per field: 29, 30
# and 47 us at n=12, m=64; 50, 49 and 86 at m=128; 81, 75 and 143 at m=220
# (dense n=12 hosts, which no workload reads, are up to 7% slower by JSON);
# 25, 32 and 45 at n=30, m=64; 28, 46 and 48 at n=60, m=64; 1.2, 1.3 and
# 2.0 ms at m=3000; and 1.9, 2.1 and 3.6 ms and 5.5, 8.2 and 10.4 ms on the
# 7,084- and 14,157-edge constructions.  JSON and int() per field meet at
# about 8 edges.
_LARGE_HOST_EDGES = 64


class Record:
    """Base of the immutable result types.

    The fields of a subclass are its own annotations, in order; a class
    attribute of the same name is the field's default.  Each subclass gets,
    once at class creation, an ``__init__`` with exactly its fields as
    parameters (positional or keyword) that calls ``__post_init__`` when
    the class defines one; it is the one generated method, because the
    signature of ``__init__`` and its speed need it.  The ``repr``, ``==``
    and ``hash`` of a frozen data class are shared by every subclass and
    read what ``__init_subclass__`` sets on it: ``_key``, the tuple of the
    compared fields, for ``==`` and ``hash``, and ``_shown``, the names
    of the shown fields, for ``repr``.  ``==`` holds between instances of
    the same class with equal compared fields, and ``hash`` is the hash of
    their tuple.  Class keywords leave fields out:
    ``eq_skip`` of ``==`` and ``hash``, ``repr_skip`` of ``repr``.
    Assignment and deletion raise AttributeError;
    ``functools.cached_property`` still works, because it writes the
    instance dictionary directly.
    """

    def __init_subclass__(cls, eq_skip=(), repr_skip=(), **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = ", ".join(f"{name}=_default_{name}" if name in defaults else name
                           for name in names)
        # object.__setattr__ passes the frozen check and keeps the values
        # inline; reading self.__dict__ here would materialize the dictionary
        # and make every later attribute read, ==, and hash slower
        lines = [
            f"def __init__(self, {params}):",
            *(f"    _set(self, {name!r}, {name})" for name in names),
            *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        ]
        namespace = {f"_default_{name}": value for name, value in defaults.items()}
        namespace["_set"] = object.__setattr__
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__module__ = cls.__module__
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        compared = tuple(name for name in names if name not in eq_skip)
        # the key is the tuple of the compared fields, as a data class
        # hashes and compares; attrgetter returns a tuple from two names on
        if len(compared) > 1:
            key = attrgetter(*compared)
        else:
            key = lambda record: tuple(getattr(record, name) for name in compared)
        cls._key = staticmethod(key)
        cls._shown = tuple(name for name in names if name not in repr_skip)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
        return tuple(sorted(set().union(*self.edges)))

    def edge_vertex_masks(self) -> list[int]:
        """Per-edge bitmask of member vertices (bit v-1 set for vertex v).

        Each call builds a fresh list; the host keeps none."""
        # vertex v sets bit v, and the sum is shifted down by one; no table
        # indexed by n, whose bits would cost n**2 / 16 bytes
        bit_above = (1).__lshift__
        return [sum(map(bit_above, e)) >> 1 for e in self.edges]


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


def _assemble(r, n, edges, label_columns=None) -> Hypergraph:
    """Check r and n, then de-duplicate and sort ``edges``, which must be
    ascending r-tuples inside 1..n.  A generator of edges is consumed after
    the r and n checks; a list was checked before them.  ``label_columns``,
    the edges' labels place by place, stay on a host that keeps the order
    of ``edges``, for each transpose of them (``berge._host_prep``)."""
    if r < 2:
        raise ParamsOutOfRange(f"uniformity r must be >= 2, got {r}")
    if n < r:
        raise ParamsOutOfRange(f"need n >= r, got n={n}, r={r}")
    edges = list(edges)
    # a strictly ascending list, as every canonical file holds, is already
    # sorted and free of duplicates
    deduped = edges if all(map(lt, edges, edges[1:])) else sorted(set(edges))
    h = Hypergraph(
        n=n,
        r=r,
        edges=tuple(deduped),
        duplicates_collapsed=len(deduped) != len(edges),
    )
    if label_columns is not None and deduped is edges:
        # an attribute of the instance, not a field, so out of ==, hash and repr
        object.__setattr__(h, "_label_columns", label_columns)
    return h


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
        2*ell' >= r+7 that these parameters miss, in that order.

        They are not the range k >= 2, r >= 3, ell >= r+7 of the paper's
        abstract.  For odd ell, 2*ell' = ell+1, so ell = r+6 passes where
        ell' >= r holds too: at r = 3, 5 and 7, as (r, ell) = (3, 9).  For
        r >= 9, ell' >= r needs ell >= 2r-1, so every ell from r+7 to 2r-2
        fails on it, as (10, 17) does.  Elsewhere the two agree.  The
        conditions stay as written until the paper's body settles which
        range is meant."""
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


# the reader's own module, imported at the first read, so that a command
# that reads no file never compiles it
_reader = None


def read_hypergraph(text) -> Hypergraph:
    """Parse .hg text (a string or text stream) into a canonical Hypergraph.

    Raises FormatError with the 1-based physical line number of the first
    problem.  read(write(h)) == h, and write(read(s)) == s byte-exactly for
    canonical s.

    The edge block is checked in bulk first (``_reader._read_bulk``); a
    text that fails any bulk check is read again line by line
    (``_reader._read_lines``), which finds and reports the first problem.
    A bulk read of at least ``_LARGE_HOST_EDGES`` edges parses all its
    labels in one ``json.loads`` pass, and imports ``json`` when it first
    does.  No edge mask is built here.
    """
    global _reader
    if _reader is None:
        # an import statement here on every call would cost each small
        # read about 2 us, 15%, of resolving the relative name
        from . import _reader
    if isinstance(text, io.TextIOBase):
        text = text.read()
    h = _reader._read_bulk(text)
    return h if h is not None else _reader._read_lines(text)
