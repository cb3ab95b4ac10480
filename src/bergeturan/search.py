"""Exact Turan numbers for small instances by branch and bound.

Freeness of a host from a Berge pattern is downward closed in the edge
set, so the search walks candidate r-sets in lexicographic order, include
branch first, keeping the current set free at all times.  Adding an edge
is checked incrementally: a new Berge copy must use the new hyperedge as
one of its representatives, so only embeddings pinned through it are
searched.  The value is label-invariant, so a labelled search suffices;
the root symmetry rule forces the first included edge to be {1..r},
which any nonempty free host can be relabelled to satisfy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import combinations

from ._engine_py import FOUND
from .berge import Status, find_berge_embedding, solve_raw
from .constructions import extremal_construction
from .core import FormulaParams, Hypergraph, PatternGraph, disjoint_paths_pattern
from .errors import HostNotFree, ParamsOutOfRange, ScaleGuardExceeded
from .formulas import berge_kpl_turan


@dataclass(frozen=True)
class SearchOptions:
    connected_only: bool = False
    node_budget: int = 0
    witness_limit: int = 1
    max_candidates: int = 64
    initial_witness: Hypergraph | None = None


@dataclass(frozen=True)
class SearchResult:
    max_edges: int
    witnesses: tuple[Hypergraph, ...]
    nodes_explored: int
    elapsed: float
    exact: bool


class _Budget(Exception):
    pass


def _mask(edge):
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def _pinned_copy(n, masks, pattern):
    """Does some Berge copy in ``masks`` use its last hyperedge?  One pinned
    search per pattern edge, in index order, stopping at the first copy."""
    new_idx = len(masks) - 1
    for pe in range(pattern.num_edges):
        status, _, _, _ = solve_raw(n, masks, pattern, pinned=(pe, new_idx))
        if status == FOUND:
            return True
    return False


def _spans_one_component(n, edges):
    """Do the edges cover 1..n and join it into one component?"""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    covered = set()
    for e in edges:
        covered.update(e)
        root = find(e[0])
        for v in e[1:]:
            parent[find(v)] = root
    if len(covered) != n:
        return False
    return len({find(v) for v in covered}) == 1


class _Searcher:
    def __init__(self, n, r, pattern, opts):
        self.n = n
        self.r = r
        self.pattern = pattern
        self.opts = opts
        self.candidates = list(combinations(range(1, n + 1), r))
        self.cand_masks = [_mask(e) for e in self.candidates]
        self.chosen: list[int] = []
        self.chosen_masks: list[int] = []
        self.best = -1
        self.witness_sets: list[tuple[int, ...]] = []
        self.nodes = 0
        self.truncated = False

    def record_leaf(self):
        size = len(self.chosen)
        current = tuple(self.chosen)
        if size > self.best:
            self.best = size
            self.witness_sets = [current]
        elif size == self.best and len(self.witness_sets) < self.opts.witness_limit:
            if current not in self.witness_sets:
                self.witness_sets.append(current)

    def dfs(self, idx):
        self.nodes += 1
        if self.opts.node_budget and self.nodes > self.opts.node_budget:
            raise _Budget
        remaining = len(self.candidates) - idx
        room = len(self.chosen) + remaining
        if room < self.best or (room == self.best and len(self.witness_sets) >= self.opts.witness_limit):
            return
        # can the chosen set plus the remaining candidates still cover 1..n
        # in one component?  At a leaf this checks the chosen set itself.
        if self.opts.connected_only and not _spans_one_component(
                self.n, [self.candidates[j] for j in self.chosen] + self.candidates[idx:]):
            return
        if idx == len(self.candidates):
            self.record_leaf()
            return
        self.include(idx)
        self.dfs(idx + 1)

    def include(self, idx):
        """Branch on adding candidate ``idx`` to the (free) chosen set,
        unless that creates a Berge copy."""
        new_mask = self.cand_masks[idx]
        if _pinned_copy(self.n, self.chosen_masks + [new_mask], self.pattern):
            return
        self.chosen.append(idx)
        self.chosen_masks.append(new_mask)
        self.dfs(idx + 1)
        self.chosen.pop()
        self.chosen_masks.pop()

    def run(self):
        started = time.perf_counter()
        opts = self.opts
        if opts.initial_witness is not None:
            w = opts.initial_witness
            if w.n != self.n or w.r != self.r:
                raise ParamsOutOfRange("initial witness has mismatched n or r")
            if find_berge_embedding(w, self.pattern, budget=0).status is not Status.NOT_FOUND:
                raise HostNotFree("initial witness contains the forbidden pattern")
            self.best = w.m
            self.witness_sets = [tuple(self.candidates.index(e) for e in w.edges)]
        if self.best < 0:
            # the empty host is always free; feasible unless connectivity is required
            self.best = 0 if not opts.connected_only else -1
            if self.best == 0:
                self.witness_sets = [()]
        try:
            # any nonempty free host relabels so its first edge is {1..r}
            self.include(0)
        except _Budget:
            self.truncated = True
        witnesses = tuple(
            Hypergraph(n=self.n, r=self.r, edges=tuple(self.candidates[j] for j in s))
            for s in self.witness_sets
        )
        # independent re-check of every witness with an unlimited budget
        for w in witnesses:
            res = find_berge_embedding(w, self.pattern, budget=0)
            if res.status is not Status.NOT_FOUND:
                raise HostNotFree("internal error: witness failed its freeness re-check")
        return SearchResult(
            max_edges=max(self.best, 0),
            witnesses=witnesses,
            nodes_explored=self.nodes,
            elapsed=time.perf_counter() - started,
            exact=not self.truncated,
        )


def exact_turan(n: int, r: int, pattern: PatternGraph, opts: SearchOptions | None = None) -> SearchResult:
    """Maximum edge count of an r-graph on n labelled vertices with no
    Berge copy of ``pattern``, with extremal witnesses.

    With ``connected_only`` the maximum runs over connected hosts covering
    all n vertices.  A node budget returns the best value found so far with
    ``exact=False``.
    """
    if r > n:
        raise ParamsOutOfRange(f"need r <= n, got r={r}, n={n}")
    opts = opts or SearchOptions()
    if opts.witness_limit < 1:
        raise ParamsOutOfRange("witness_limit must be >= 1")
    total = 1
    for i in range(r):
        total = total * (n - i) // (i + 1)
    if total > opts.max_candidates:
        raise ScaleGuardExceeded(
            f"C({n},{r}) = {total} exceeds the configured cap {opts.max_candidates}"
        )
    return _Searcher(n, r, pattern, opts).run()


def is_maximal_free(h: Hypergraph, pattern: PatternGraph) -> bool:
    """Is the (verified free) host saturated: does adding any absent r-set
    create a Berge copy?"""
    res = find_berge_embedding(h, pattern, budget=0)
    if res.status is not Status.NOT_FOUND:
        raise HostNotFree("host already contains the pattern")
    masks = h.edge_vertex_masks()
    present = set(h.edges)
    for e in combinations(range(1, h.n + 1), h.r):
        if e in present:
            continue
        if not _pinned_copy(h.n, masks + [_mask(e)], pattern):
            return False
    return True


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    r: int
    k: int
    ell: int
    search_value: int
    search_exact: bool
    formula_value: int
    construction_edges: int | None
    flag: str  # "matches-formula" | "search-above-formula" | "construction-absent" | ...

    def csv_row(self):
        return [self.n, self.r, self.k, self.ell, self.search_value,
                int(self.search_exact), self.formula_value,
                self.construction_edges if self.construction_edges is not None else "",
                self.flag]


def compare_with_formula(n: int, r: int, k: int, ell: int,
                         opts: SearchOptions | None = None) -> ComparisonReport:
    """Run the exhaustive search for k disjoint Berge paths against the
    closed formula.  Wherever the construction fits it seeds the search, so
    the search value is never below the formula; equality is only promised
    for large n, so a strict excess at small n is reported, not failed."""
    params = FormulaParams(n=n, r=r, ell=ell, k=k)
    formula = berge_kpl_turan(params).value
    opts = opts or SearchOptions()
    construction_edges = None
    try:
        built, _ = extremal_construction(params)
        construction_edges = built.m
        if opts.initial_witness is None and not opts.connected_only:
            opts = replace(opts, initial_witness=built)
    except ParamsOutOfRange:
        pass
    pattern = disjoint_paths_pattern(k, ell)
    result = exact_turan(n, r, pattern, opts)
    if construction_edges is None:
        flag = "construction-absent"
    elif result.max_edges == formula:
        flag = "matches-formula"
    elif result.max_edges > formula:
        flag = "search-above-formula"
    else:
        flag = "search-below-formula"
    return ComparisonReport(n, r, k, ell, result.max_edges, result.exact,
                            formula, construction_edges, flag)
