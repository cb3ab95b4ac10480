"""Exact Turan numbers for small instances: the value by listing the free
hosts level by level up to isomorphism, the witnesses by branch and bound
with the value known.

Complete host.  One kernel call asks whether the complete r-graph on 1..n
is free.  If it is, the value is C(n, r) and that host is the only witness.

Levels.  Level k holds one host per isomorphism class of free hosts with k
edges.  Level 0 is the empty host.  For each class R of level k, one absent
r-set e is taken per orbit of Aut(R), R + e is kept when no Berge copy
uses e (R is free, so a copy of R + e must use it), and the kept hosts are
reduced to one per class by their canonical form
(:func:`bergeturan.orbits.canonical_form`).  This lists every class of
free hosts with k + 1 edges.  Freeness is downward closed in the edge set,
so deleting an edge f from a free host H with k + 1 edges leaves a free
host isomorphic to some listed R, by a map sigma; then sigma(H) is
R + sigma(f), and sigma(f) is absent from R.  An automorphism of R maps
R + sigma(f) onto R + e for the representative e of sigma(f)'s orbit, and
H is isomorphic to a kept host.  The value is the last nonempty level;
under ``connected_only`` it is the last level holding a class that covers
1..n in one component, since a disconnected free host can grow into a
connected one and every class is listed.  Classes are listed in a fixed
order, so the counts repeat.  Once a level passes ``_LEVEL_CAP`` classes
(weak patterns, whose free hosts are many), the instance goes to the
branch and bound alone, which then proves the value as well.

Orbits of Aut(R).  Each listed class keeps the generators that its
canonical form gives, which with the twin swaps generate Aut(R)
(:mod:`bergeturan.orbits`).  Before they are used, each must map R's
edges onto themselves, or the listing raises, since a wrong generator
would skip extensions that the listing needs.  The absent orbit
representatives of R's twin group are joined into groups, the orbits of
Aut(R) (:func:`bergeturan.orbits._orbit_groups`), and each group gets
one check, on its first member e, and one canonical form if R + e is
free.  Every member f of the group gives a host R + f isomorphic to
R + e, so the group is dead or free as one.  Forms appear in the order of
a listing that tries every representative: the first representative that
gives a form is the first member of its group, since its whole group gives
that form, and the skipped members give only forms seen before.  So the
levels, ``lower`` and ``nodes_explored`` are those of one check per twin
orbit; only ``pinned_calls`` falls.

Inherited dead extensions.  Each listed class C keeps a record of every
class R of the level above and absent r-set e that produced it, with the
labelling lambda that maps R + e onto C.  Let f be an orbit
representative of C and d = lambda^-1(f), which is absent from R + e.  If
R's listing found d's orbit under R's twin group dead, a twin swap maps
R + d onto R + g for the orbit's representative g, so R + d has a Berge
copy.  Then lambda(R + e + d) = C + f contains lambda(R + d), so it has
one too, and f is dead without a kernel call.  The orbit key of d on R's
twin classes is that of f on their images under lambda, which the record
keeps.  A group of C is dead when any member is, and a dead group puts
every member's orbit key among C's dead orbits, for C's own children, so
inheritance stays on twin orbits.  A record skips only checks whose answer
is a copy, so it changes nothing but ``pinned_calls`` either.

Branch and bound.  The search walks candidate r-sets in lexicographic
order, include branch first, keeping the current set free at all times.
Each node carries its live candidates: the later r-sets that the chosen set
can take one at a time without a Berge copy.  Including one filters the
others (forward checking), and a node is bounded by its chosen count plus
its live count.  A filter check is incremental: a new Berge copy must use
the new hyperedge as one of its representatives, so only embeddings pinned
through it are searched.  The value is label-invariant, so a labelled
search suffices; the root symmetry rule forces the first included edge to
be {1..r}, which any nonempty free host can be relabelled to satisfy.
With the value known, a subtree is also pruned once the witness list is
full, and it returns the witnesses of the search that does not know it
(see :class:`_Searcher`).

Filter checks are answered once per orbit of the chosen set's twin group
(:mod:`bergeturan.orbits`): later candidates with one orbit key share
one check.  The live lists, the tree and the answer are those of one
check per candidate, and only the count of kernel calls falls.  The tree
and :func:`is_maximal_free` keep twin orbits, not those of the whole
automorphism group: the chosen set changes at every include, and its
twin classes come from the swap tests of ``orbits.twin_classes`` alone,
where Aut orbits would cost a canonical form walk per include.  A twin
orbit lies inside an Aut orbit, so this costs only checks, never an
answer.

Orbits of pattern edges.  If a Berge copy (phi, psi) puts pattern edge e
on hyperedge j and sigma in Aut(F) maps e to e', then (phi o sigma^-1,
psi o sigma^-1) is a copy that puts e' on j.  So a search pinned at one
edge answers for its orbit under Aut(F) (:func:`_pinned_copy`).  The
kernel finds the orbits too.  A Berge copy of F in the 2-uniform host
made of F's own edges is an automorphism of F: the images are an
injective map of V(F) into itself, hence a bijection, and each pattern
edge takes a distinct host edge, which holds its endpoints' images and
nothing else, so the bijection maps E(F) onto E(F).  Every automorphism
is such a copy.  So that search, with edge i pinned to edge j, finds an
automorphism that maps i onto j or proves that none exists
(:func:`_pattern_edge_orbits`).
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from math import comb

from . import _lazy_getattr
from ._engine_py import FOUND
from .berge import Status, find_berge_embedding, solve_raw
from .core import FormulaParams, Hypergraph, PatternGraph, Record, disjoint_paths_pattern
from .errors import HostNotFree, ParamsOutOfRange, ScaleGuardExceeded
from .orbits import (
    _find,
    _orbit_groups,
    _orbit_key,
    _refine,
    _relabel,
    _tables,
    canonical_form,
    twin_classes,
)
from .symmetry import HostView

# The functions that ``compare_with_formula`` imports from their defining
# module when it runs.  They resolve on this module too, as they did when
# it imported them at its top, because the benchmark's tracer
# (``bench/tracer.py``) looks them up and re-binds them here; the wrapper
# it puts on the defining module is the one that runs.
__getattr__ = _lazy_getattr(__name__, {
    "extremal_construction": "constructions",
    "berge_kpl_turan": "formulas",
})


class SearchOptions(Record):
    """Options of :func:`exact_turan`.

    ``node_budget`` caps ``SearchResult.nodes_explored``: the classes the
    level search lists plus the nodes of the branch-and-bound tree, not the
    kernel calls, since listing a class or including a candidate can run
    many pinned checks (``SearchResult.pinned_calls`` counts them).  0
    means unlimited.  A truncated result is inexact, and its witnesses are
    free.  ``initial_witness`` is a free host that seeds the lower bound,
    covering 1..n in one component under ``connected_only``; when its size
    is the value, it is the first witness."""

    connected_only: bool = False
    node_budget: int = 0
    witness_limit: int = 1
    max_candidates: int = 64
    initial_witness: Hypergraph | None = None


class SearchResult(Record):
    """``answered_by`` names the search that proved ``max_edges``:
    ``"complete-host"``, ``"levels"`` or ``"branch-and-bound"``."""

    max_edges: int
    witnesses: tuple[Hypergraph, ...]
    nodes_explored: int
    pinned_calls: int
    elapsed: float
    exact: bool
    answered_by: str


# A level that passes this many classes hands the instance to the branch
# and bound.  The largest levels of the instances measured whose listing
# ends are 168 classes (8 3 C5, 2 s) and 91 (11 2 P4); weak patterns, such
# as 2P3 at n = 8..10, 3P2 at n = 9 and 2P4 at n = 8, pass the cap at their
# fifth level, after about 0.3 s.
_LEVEL_CAP = 200


class _Budget(Exception):
    pass


@lru_cache(maxsize=512)
def _pattern_edge_orbits(pattern):
    """The orbits of a ``PatternGraph``'s edges under its automorphism
    group Aut(F): tuples of 0-based edge indices, each ascending, ordered
    by their smallest index (the orbit's representative).

    Edges are taken in index order.  An edge is tried against each earlier
    representative whose endpoints have the same refined colours
    (``orbits._refine``, which every automorphism keeps), by a kernel
    search in F's own edges pinning the representative onto it (see the
    module docstring).  The first automorphism found merges every edge
    with its image under it, and with them the two orbits.  An edge that
    no automorphism reaches from an earlier representative becomes one.
    So two edges share an orbit only through explicit automorphisms, and
    the exhaustive searches make the representatives pairwise
    inequivalent.  kP_l has ceil(l/2) orbits.
    """
    masks = [1 << (u - 1) | 1 << (v - 1) for u, v in pattern.edges]
    edges0, through, _ = _tables(pattern.num_vertices, masks)
    colour = _refine([0] * pattern.num_vertices, edges0, through)
    keys = [sorted((colour[a], colour[b])) for a, b in edges0]
    view = HostView(masks)
    root = list(range(len(edges0)))
    reps = []
    for j in range(len(edges0)):
        if _find(root, j) != j:
            continue
        for i in reps:
            if keys[i] != keys[j]:
                continue
            status, _, assignment, _ = solve_raw(view, pattern, pinned=(i, j))
            if status == FOUND:
                for k, image in enumerate(assignment):
                    s, t = _find(root, k), _find(root, image)
                    root[max(s, t)] = min(s, t)
                break
        else:
            reps.append(j)
    orbits = {}
    for k in range(len(edges0)):
        orbits.setdefault(_find(root, k), []).append(k)
    return tuple(tuple(orbits[i]) for i in sorted(orbits))


def _pinned_copy(masks, pattern, stats=None):
    """Does some Berge copy in ``masks`` use its last hyperedge?  One pinned
    search per orbit of pattern edges under Aut(F), which answers for its
    orbit (see the module docstring), on the orbit's smallest edge index,
    in index order, stopping at the first copy, all on one view of
    ``masks``.  Each adds one to ``stats.pinned_calls`` if ``stats`` is given."""
    new_idx = len(masks) - 1
    view = HostView(masks)
    for orbit in _pattern_edge_orbits(pattern):
        if stats is not None:
            stats.pinned_calls += 1
        status, _, _, _ = solve_raw(view, pattern, pinned=(orbit[0], new_idx))
        if status == FOUND:
            return True
    return False


def _spans_one_component(n, masks):
    """Do the edges, as vertex bitmasks, cover 1..n and join it into one
    component?  The first edge's component grows until no edge meets it
    and leaves it."""
    component = masks[0] if masks else 0
    grown = -1
    while grown != component:
        grown = component
        for mask in masks:
            if mask & component:
                component |= mask
    return component == (1 << n) - 1


class _Searcher:
    """The level search, and the include/exclude tree over the candidates
    with forward checking.

    A tree node holds the chosen set, which is free, and ``alive``: the
    later candidates j, in index order, for which chosen + j is free.  Its
    first live candidate is branched on, include first.  Including it
    filters the rest of ``alive`` by one pinned check per twin orbit (see
    the module docstring); excluding it keeps them.

    The recorded witnesses are those of the search that tries every later
    candidate and is bounded by chosen + all remaining candidates:

    * A dead candidate is dead in every superset.  If chosen + j has a
      Berge copy, so has every superset of it, so j fails its check at
      every node below; the plain search tries it and backs out, which
      is a branch with no leaf.
    * The live candidates keep their lexicographic order and the include
      branch still comes first, so both searches meet the same leaves in
      the same order.
    * A subtree is pruned only when the free sets in it, of at most
      chosen + live elements, cannot change ``best`` or the witness list:
      room < best, or room == best with the list full.  ``best`` only
      grows and a full list stays full until ``best`` grows, so those
      leaves could not change either later.  The same holds for the
      ``connected_only`` span check, since no leaf below uses a dead
      candidate.
    * With the value proven (``proven``), ``best`` starts at the value
      and never grows, and the witnesses are the first free sets of that
      size that the plain search meets, less any equal to the seed.  So a
      full list stops the search, at any room, and the leaves that join
      the list are the same.

    So the sequence of leaves that change ``best`` or the witness list is
    the same, and so are the value and the witnesses.  ``nodes`` counts
    the listed classes and the calls of :meth:`dfs`, which the node budget
    caps.
    """

    def __init__(self, n, r, pattern, opts):
        self.n = n
        self.r = r
        self.pattern = pattern
        self.opts = opts
        self.candidates = tuple(combinations(range(1, n + 1), r))
        self.complete = Hypergraph(n=n, r=r, edges=self.candidates)
        self.cand_masks = self.complete.edge_vertex_masks()
        self.chosen: list[int] = []
        self.chosen_masks: list[int] = []
        self.best = -1
        self.witness_sets: list[tuple[int, ...]] = []
        self.proven = False
        # the first listed free set of the deepest level that counts, as
        # candidate indices: the value once the listing ends
        self.lower: tuple[int, ...] | None = None
        self.nodes = 0
        self.pinned_calls = 0
        self.truncated = False

    def count_node(self):
        self.nodes += 1
        if self.opts.node_budget and self.nodes > self.opts.node_budget:
            raise _Budget

    def record_leaf(self):
        size = len(self.chosen)
        current = tuple(self.chosen)
        if size > self.best:
            self.best = size
            self.witness_sets = [current]
        elif size == self.best and len(self.witness_sets) < self.opts.witness_limit:
            if current not in self.witness_sets:
                self.witness_sets.append(current)

    def pruned(self, room):
        """Can no free set of at most ``room`` edges change the answer?"""
        full = len(self.witness_sets) >= self.opts.witness_limit
        return room < self.best or full and (self.proven or room == self.best)

    def dfs(self, alive):
        self.count_node()
        if self.pruned(len(self.chosen) + len(alive)):
            return
        # can the chosen set plus the live candidates still cover 1..n in
        # one component?  At a leaf this checks the chosen set itself.
        if self.opts.connected_only and not _spans_one_component(
                self.n, self.chosen_masks + [self.cand_masks[j] for j in alive]):
            return
        if not alive:
            self.record_leaf()
            return
        self.include(alive[0], alive[1:])
        self.dfs(alive[1:])

    def include(self, idx, later):
        """Branch on adding the live candidate ``idx`` to the chosen set,
        on the candidates of ``later`` that stay live with it.  The filter
        stops, and the branch is skipped, once the dead ones prune it."""
        self.chosen.append(idx)
        self.chosen_masks.append(self.cand_masks[idx])
        room = len(self.chosen) + len(later)
        classes = twin_classes(self.n, self.chosen_masks)
        answers = {}  # orbit key -> does chosen + j have a Berge copy
        alive = []
        for j in later:
            mask = self.cand_masks[j]
            key = _orbit_key(classes, mask)
            copy = answers.get(key)
            if copy is None:
                copy = answers[key] = _pinned_copy(self.chosen_masks + [mask], self.pattern, self)
            if not copy:
                alive.append(j)
                continue
            room -= 1
            if self.pruned(room):
                break
        else:
            self.dfs(alive)
        self.chosen.pop()
        self.chosen_masks.pop()

    def list_levels(self):
        """List the free hosts level by level, one per isomorphism class
        (see the module docstring), keeping ``lower`` up to date.  Returns
        False as soon as a level passes ``_LEVEL_CAP`` classes.

        Each listed class keeps the generators and twin classes that its
        canonical form gives, in its own labels, and a record of every
        parent R and extension e that produced it: R's twin classes,
        relabelled as R + e is onto the class, and R's dead orbit keys, a
        set that R's own listing fills before the class is grown.  A
        class's absent orbit representatives are joined into groups by its
        generators, each of which must map its edges onto themselves.  A
        group that a record puts in a dead orbit of its parent is dead
        without a kernel call; otherwise its first member is checked, and a
        free one is grown (see the module docstring)."""
        n, connected = self.n, self.opts.connected_only
        index = {mask: j for j, mask in enumerate(self.cand_masks)}
        self.count_node()
        if not connected:
            self.lower = ()
        # form -> (its generators, its twin classes, [(a parent's classes in
        # the form's labels, its dead orbit keys)]), in the order listed
        level = {(): ((), [(1 << n) - 1], [])}
        while level:
            grown = {}
            for host, (generators, classes, parents) in level.items():
                masks = list(host)
                for g in generators:
                    if sorted([_relabel(mask, g) for mask in host]) != masks:
                        raise RuntimeError(f"internal error: {g} is no automorphism of {host}")
                dead = set()
                for group in _orbit_groups(classes, self.r, set(host), generators):
                    masks.append(group[0][0])
                    if any(_orbit_key(up, e) in gone for e, _ in group for up, gone in parents) \
                            or _pinned_copy(masks, self.pattern, self):
                        dead.update(key for _, key in group)
                    else:
                        form, labelling, automorphisms, twins = canonical_form(n, masks)
                        entry = grown.get(form)
                        if entry is None:
                            self.count_node()
                            entry = grown[form] = (automorphisms, twins, [])
                            if len(grown) > _LEVEL_CAP:
                                return False
                            if len(form) > len(self.lower or ()) and (
                                    not connected or _spans_one_component(n, form)):
                                self.lower = tuple(sorted(index[mask] for mask in form))
                        entry[2].append(([_relabel(c, labelling) for c in classes], dead))
                    masks.pop()
            level = grown
        return True

    def start(self):
        """Take ``best`` and the witness list from the seed, if any, or
        from the empty host, which is free (and feasible unless
        connectivity is required)."""
        w = self.opts.initial_witness
        if w is not None:
            if w.n != self.n or w.r != self.r:
                raise ParamsOutOfRange("initial witness has mismatched n or r")
            if self.opts.connected_only and not _spans_one_component(self.n, w.edge_vertex_masks()):
                raise ParamsOutOfRange("initial witness does not cover 1..n in one component")
            if find_berge_embedding(w, self.pattern, budget=0).status is not Status.NOT_FOUND:
                raise HostNotFree("initial witness contains the forbidden pattern")
            self.best = w.m
            self.witness_sets = [tuple(self.candidates.index(e) for e in w.edges)]
        elif not self.opts.connected_only:
            self.best = 0
            self.witness_sets = [()]

    def prove(self):
        """Take the value from ``lower``: from here the tree only lists
        witnesses of it."""
        self.proven = True
        value = len(self.lower) if self.lower is not None else -1
        if value > self.best:
            self.best = value
            self.witness_sets = []

    def branch(self):
        """Run the tree from its root, unless the value is proven and no
        leaf can join the witness list."""
        if self.proven and (self.best <= 0 or self.pruned(self.best)):
            return
        # any nonempty free host relabels so its first edge is {1..r}
        if not _pinned_copy(self.cand_masks[:1], self.pattern, self):
            self.include(0, range(1, len(self.candidates)))

    def run(self, prove=True):
        """The value and its witnesses.  The complete host, then the level
        search, proves the value where it can, and the tree lists the
        witnesses; otherwise, or without ``prove``, the tree alone
        answers.  Past the node budget the result keeps the best free set
        found, the deepest listed class among them."""
        started = time.perf_counter()
        answered_by = "branch-and-bound"
        self.start()
        try:
            if prove and find_berge_embedding(self.complete, self.pattern,
                                              budget=0).status is Status.NOT_FOUND:
                # the tree's first leaf, and the only free set of its size
                answered_by = "complete-host"
                if not self.opts.connected_only or _spans_one_component(self.n, self.cand_masks):
                    self.lower = tuple(range(len(self.candidates)))
                self.prove()
                if self.lower:
                    self.chosen = list(self.lower)
                    self.record_leaf()
            else:
                if prove:
                    answered_by = "levels"
                    if self.list_levels():
                        self.prove()
                    else:
                        answered_by = "branch-and-bound"
                self.branch()
        except _Budget:
            self.truncated = True
            if self.lower is not None and (len(self.lower) > self.best or not self.witness_sets):
                self.best = len(self.lower)
                self.witness_sets = [self.lower]
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
            pinned_calls=self.pinned_calls,
            elapsed=time.perf_counter() - started,
            exact=not self.truncated,
            answered_by=answered_by,
        )


def exact_turan(n: int, r: int, pattern: PatternGraph, opts: SearchOptions | None = None) -> SearchResult:
    """Maximum edge count of an r-graph on n labelled vertices with no
    Berge copy of ``pattern``, with extremal witnesses: the first
    ``witness_limit`` free sets of that size in the order of the include-
    first lexicographic search (see the module docstring).

    With ``connected_only`` the maximum runs over connected hosts covering
    all n vertices.  A node budget returns the best value found so far with
    ``exact=False``.  Raises ParamsOutOfRange for r < 2 or n < r, as
    ``make_hypergraph`` does, and for a witness limit below 1 or a negative
    node budget, before anything is searched.
    """
    if r < 2 or n < r:
        raise ParamsOutOfRange(f"need 2 <= r <= n, got r={r}, n={n}")
    opts = opts or SearchOptions()
    if opts.witness_limit < 1:
        raise ParamsOutOfRange("witness_limit must be >= 1")
    if opts.node_budget < 0:
        raise ParamsOutOfRange(f"node_budget must be >= 0, got {opts.node_budget}")
    total = comb(n, r)
    if total > opts.max_candidates:
        raise ScaleGuardExceeded(
            f"C({n},{r}) = {total} exceeds the configured cap {opts.max_candidates}"
        )
    return _Searcher(n, r, pattern, opts).run()


def is_maximal_free(h: Hypergraph, pattern: PatternGraph) -> bool:
    """Is the (verified free) host saturated: does adding any absent r-set
    create a Berge copy?

    One r-set is tried per orbit of the host's twin group
    (:mod:`bergeturan.orbits`).  An automorphism maps H onto itself, so
    an orbit of r-sets is wholly present or wholly absent, and one absent
    r-set answers for its orbit.  The constructions have two or three twin
    classes."""
    res = find_berge_embedding(h, pattern, budget=0)
    if res.status is not Status.NOT_FOUND:
        raise HostNotFree("host already contains the pattern")
    masks = h.edge_vertex_masks()
    for (e, _), in _orbit_groups(twin_classes(h.n, masks), h.r, set(masks), ()):
        if not _pinned_copy(masks + [e], pattern):
            return False
    return True


class ComparisonReport(Record):
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
    from .constructions import extremal_construction
    from .formulas import berge_kpl_turan

    params = FormulaParams(n=n, r=r, ell=ell, k=k)
    formula = berge_kpl_turan(params).value
    opts = opts or SearchOptions()
    construction_edges = None
    try:
        built, _ = extremal_construction(params)
        construction_edges = built.m
        if opts.initial_witness is None and not opts.connected_only:
            opts = SearchOptions(connected_only=opts.connected_only,
                                 node_budget=opts.node_budget,
                                 witness_limit=opts.witness_limit,
                                 max_candidates=opts.max_candidates,
                                 initial_witness=built)
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
