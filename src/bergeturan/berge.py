"""Berge containment with certificates, good orders, and neighbourhood tools.

A host r-graph contains a Berge copy of a pattern graph F when there are an
injective map of V(F) into the host's vertices (the defining vertices) and
a bijection from E(F) onto distinct hyperedges (the defining hyperedges)
such that each hyperedge contains the images of its pattern edge's
endpoints.  Finders here return explicit certificates; absence answers are
exact unless a node budget cut the search short, which is reported as an
explicit indeterminate status, never as "not found".
"""

from __future__ import annotations

import json
from enum import Enum
from functools import lru_cache
from math import comb

from . import _engine_py
from .core import (
    Hypergraph,
    PatternGraph,
    Record,
    cycle_pattern,
    parse_pattern,
    path_pattern,
    star_pattern,
)
from .errors import (
    BadParameters,
    BergeTuranError,
    EmptyHypergraph,
    FormatError,
    IndexOutOfRange,
    TooFewEdges,
    V0TooSmall,
    VertexNotInHost,
    VertexOutOfRange,
)


class Status(Enum):
    FOUND = "found"
    NOT_FOUND = "not-found"
    INDETERMINATE = "indeterminate"


_STATUS_FROM_ENGINE = {
    _engine_py.NOT_FOUND: Status.NOT_FOUND,
    _engine_py.FOUND: Status.FOUND,
    _engine_py.INDETERMINATE: Status.INDETERMINATE,
}


class BergeCertificate(Record):
    """Witness of a Berge copy: defining vertices and the edge bijection.

    ``defining_vertices[i]`` is the host vertex hosting pattern vertex i+1;
    ``edge_assignment[j]`` is the host edge index assigned to
    ``pattern.edges[j]``.
    """

    pattern: PatternGraph
    defining_vertices: tuple[int, ...]
    edge_assignment: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.expr,
            "defining_vertices": list(self.defining_vertices),
            "edge_assignment": [
                [u, v, h] for (u, v), h in zip(self.pattern.edges, self.edge_assignment)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "BergeCertificate":
        """Parse a document written by :meth:`to_json`.  Raises FormatError
        for any malformed document: bad JSON, a missing or mistyped field,
        a bad pattern expression, or a pattern edge without a hyperedge."""
        try:
            doc = json.loads(text)
            pattern = parse_pattern(doc["pattern"])
            vertices = tuple(doc["defining_vertices"])
            triples = [tuple(t) for t in doc["edge_assignment"]]
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
        except (KeyError, TypeError, ValueError, BergeTuranError) as exc:
            raise FormatError(f"malformed certificate: {exc!r}", 1) from exc
        if not all(type(v) is int for v in vertices):
            raise FormatError("defining_vertices must be integers", 1)
        if not all(len(t) == 3 and all(type(x) is int for x in t) for t in triples):
            raise FormatError("edge_assignment entries must be [u, v, hyperedge] integers", 1)
        by_pair = {(min(u, v), max(u, v)): h for u, v, h in triples}
        try:
            assignment = tuple(by_pair[(min(u, v), max(u, v))] for u, v in pattern.edges)
        except KeyError as exc:
            raise FormatError(f"edge_assignment misses pattern edge {exc}", 1) from exc
        return BergeCertificate(pattern, vertices, assignment)


class EmbeddingResult(Record):
    status: Status
    certificate: BergeCertificate | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


class PathSearchResult(Record):
    length: int
    certificate: BergeCertificate
    exact: bool
    nodes: int


class GoodOrder(Record):
    ordering: tuple[int, ...]


class StarResult(Record):
    exists: bool
    certificate: BergeCertificate | None
    degree: int
    degree_threshold: int
    degree_condition_holds: bool


@lru_cache(maxsize=512)
def _pattern_plan(pattern: PatternGraph):
    """Deterministic assignment order: repeatedly take the unplaced pattern
    vertex with the most placed neighbours, breaking ties by higher degree
    then lower index (0-based output)."""
    p = pattern.num_vertices
    edges0 = tuple((u - 1, v - 1) for u, v in pattern.edges)
    deg = [0] * p
    adj = [[] for _ in range(p)]
    for a, b in edges0:
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    placed = [False] * p
    placed_nbrs = [0] * p
    order = []
    for _ in range(p):
        best = None
        key = None
        for v in range(p):
            if placed[v]:
                continue
            k = (-placed_nbrs[v], -deg[v], v)
            if key is None or k < key:
                key = k
                best = v
        order.append(best)
        placed[best] = True
        for w in adj[best]:
            placed_nbrs[w] += 1
    return edges0, tuple(order)


def _host_prep(h: Hypergraph):
    """The kernel's view of the host: one vertex bitmask per hyperedge.
    A named step, so the benchmark tracer can time host preparation."""
    return h.edge_vertex_masks()


def solve_raw(edge_masks, pattern, budget=0, pinned=None):
    """Low-level search over raw edge masks; called by find_berge_embedding,
    longest_berge_path and search's _pinned_copy and _pattern_edge_orbits."""
    edges0, order = _pattern_plan(pattern)
    pinned_pe, pinned_he = pinned if pinned else (-1, -1)
    return _engine_py.solve(edge_masks, edges0, order, budget, pinned_pe, pinned_he)


def _result_from_engine(pattern, raw):
    status, images, assignment, nodes = raw
    cert = None
    if status == _engine_py.FOUND:
        cert = BergeCertificate(
            pattern=pattern,
            defining_vertices=tuple(v + 1 for v in images),
            edge_assignment=tuple(assignment),
        )
    return EmbeddingResult(_STATUS_FROM_ENGINE[status], cert, nodes)


def find_berge_embedding(h: Hypergraph, pattern: PatternGraph, budget: int = 0) -> EmbeddingResult:
    """Search for a Berge copy of ``pattern`` in ``h``.

    budget 0 means unlimited, in which case "not found" is a proof of
    absence.  A positive budget caps vertex-assignment attempts and an
    exhausted budget yields an indeterminate status.
    """
    raw = solve_raw(_host_prep(h), pattern, budget)
    return _result_from_engine(pattern, raw)


def verify_certificate(h: Hypergraph, cert: BergeCertificate) -> bool:
    """Check a certificate against the host: injective defining vertices,
    injective edge assignment, and per-edge endpoint containment."""
    pattern = cert.pattern
    if len(cert.defining_vertices) != pattern.num_vertices:
        raise IndexOutOfRange("defining_vertices length differs from pattern order")
    if len(cert.edge_assignment) != pattern.num_edges:
        raise IndexOutOfRange("edge_assignment length differs from pattern size")
    for v in cert.defining_vertices:
        if not 1 <= v <= h.n:
            raise IndexOutOfRange(f"host vertex {v} outside 1..{h.n}")
    for j in cert.edge_assignment:
        if not 0 <= j < h.m:
            raise IndexOutOfRange(f"hyperedge index {j} outside 0..{h.m - 1}")
    if len(set(cert.defining_vertices)) != pattern.num_vertices:
        return False
    if len(set(cert.edge_assignment)) != pattern.num_edges:
        return False
    for (u, v), j in zip(pattern.edges, cert.edge_assignment):
        edge = h.edges[j]
        if cert.defining_vertices[u - 1] not in edge or cert.defining_vertices[v - 1] not in edge:
            return False
    return True


def longest_berge_path(h: Hypergraph, budget: int = 0) -> PathSearchResult:
    """Longest ell with a Berge path of ell edges in ``h``, with a witness.

    Scans upward from ell = 1; containment is monotone decreasing in ell,
    so the first absence proof pins the maximum.  With a budget, an
    indeterminate query stops the scan and the result is marked inexact.
    """
    if h.m == 0:
        raise EmptyHypergraph("host has no hyperedges")
    masks = _host_prep(h)
    upper = min(h.m, len(h.covered_vertices()) - 1)
    best = None
    total_nodes = 0
    exact = True
    length = 0
    for ell in range(1, upper + 1):
        pattern = path_pattern(ell)
        raw = solve_raw(masks, pattern, budget)
        total_nodes += raw[3]
        result = _result_from_engine(pattern, raw)
        if result.status is Status.FOUND:
            best = result.certificate
            length = ell
        elif result.status is Status.NOT_FOUND:
            break
        else:
            exact = False
            break
    return PathSearchResult(length, best, exact, total_nodes)


def find_berge_cycle(h: Hypergraph, length: int, budget: int = 0) -> EmbeddingResult:
    """Search for a Berge cycle of the given length: the embedding search
    for C<length>, so answer, certificate and node count are those of
    ``find_berge_embedding``.  Lengths below 3 raise InvalidCycleLength
    (from :func:`cycle_pattern`)."""
    return find_berge_embedding(h, cycle_pattern(length), budget)


def good_order(h: Hypergraph, first: int) -> GoodOrder:
    """Order the covered vertices so every consecutive pair is a good pair
    (two distinct hyperedges covering the two vertices separately).

    Builds the order by peeling the lexicographically last edge: the
    two-edge base case interleaves the private vertices of each edge and
    appends the intersection; each peeled edge's private vertices are then
    spliced in front, alternating with the existing prefix.  The result is
    rotated to start at ``first``.
    """
    if h.m < 2:
        raise TooFewEdges(f"good orders need at least 2 edges, got {h.m}")
    e1, e2 = h.edges[0], h.edges[1]
    s1, s2 = set(e1), set(e2)
    left = sorted(s1 - s2)
    right = sorted(s2 - s1)
    ordering = []
    for a, b in zip(left, right):
        ordering.extend((a, b))
    ordering.extend(sorted(s1 & s2))
    covered = s1 | s2
    for e in h.edges[2:]:
        private = sorted(set(e) - covered)
        merged = []
        for i, v in enumerate(private):
            merged.extend((v, ordering[i]))
        merged.extend(ordering[len(private):])
        ordering = merged
        covered.update(e)
    if first not in covered:
        raise VertexNotInHost(f"vertex {first} is not covered by any hyperedge")
    i = ordering.index(first)
    return GoodOrder(tuple(ordering[i:] + ordering[:i]))


def berge_common_neighbours(h: Hypergraph, v0) -> frozenset[int]:
    """Vertices outside v0 joined to every pair of v0 through two distinct
    hyperedges: u qualifies when for all v1, v2 in v0 there are distinct
    E1, E2 with {v1, u} in E1 and {v2, u} in E2."""
    v0 = sorted(set(v0))
    if len(v0) < 2:
        raise V0TooSmall(f"need at least 2 base vertices, got {len(v0)}")
    for v in v0:
        if not 1 <= v <= h.n:
            raise VertexOutOfRange(f"vertex {v} outside 1..{h.n}")
    inc = h.incidence_masks()
    out = []
    for u in range(1, h.n + 1):
        if u in v0:
            continue
        mu = inc.get(u, 0)
        if mu == 0:
            continue
        ok = True
        for i in range(len(v0)):
            for j in range(i + 1, len(v0)):
                m1 = mu & inc.get(v0[i], 0)
                m2 = mu & inc.get(v0[j], 0)
                if m1 == 0 or m2 == 0 or (m1 | m2).bit_count() < 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(u)
    return frozenset(out)


def berge_star_exists(h: Hypergraph, centre: int, size: int) -> StarResult:
    """Decide whether a Berge star with the given centre and edge count
    exists, reporting alongside whether the sufficient degree condition
    d(centre) > C(size-1, r-1) holds.

    Existence reduces to a system of distinct representatives: a matching
    of ``size`` leaves to distinct hyperedges through the centre.
    """
    if not size > h.r >= 2:
        raise BadParameters(f"need size > r >= 2, got size={size}, r={h.r}")
    if not 1 <= centre <= h.n:
        raise VertexOutOfRange(f"vertex {centre} outside 1..{h.n}")
    inc = h.incidence_masks()
    through = inc.get(centre, 0)
    degree = through.bit_count()
    threshold = comb(size - 1, h.r - 1)
    leaves = sorted(v for v, mask in inc.items() if mask & through and v != centre)
    # maximum matching leaf -> hyperedge through the centre, leaves in
    # ascending order, each by the kernel's augmenting path
    cand = [inc[y] & through for y in leaves]
    match_of = [-1] * len(leaves)
    owner = [-1] * h.m
    matched = 0
    for i in range(len(leaves)):
        matched += _engine_py.augment(i, cand, match_of, owner, [])
        if matched == size:
            break
    exists = matched == size
    cert = None
    if exists:
        chosen = [(y, j) for y, j in zip(leaves, match_of) if j >= 0]
        cert = BergeCertificate(
            pattern=star_pattern(size),
            defining_vertices=(centre,) + tuple(y for y, _ in chosen),
            edge_assignment=tuple(j for _, j in chosen),
        )
    return StarResult(exists, cert, degree, threshold, degree > threshold)
