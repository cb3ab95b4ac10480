"""Independent brute-force oracles used to pin expected test values.

Nothing here shares code with the package's search machinery: containment
is decided by enumerating injective vertex maps and trying all edge
assignments, and small Turan numbers come from sweeping every subset of
the candidate edge set.  The inequalities I1-I5 are transcribed from their
statements in ``fractions.Fraction`` arithmetic.  One helper is no
oracle: :func:`kernel_twin_classes` reads the twin classes off the
embedding kernel's lazy classifier, so that tests can hold the Turán
search's classifier against a second, independent one.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb


def naive_contains(h, pattern, pinned=None):
    """Try all injective maps of pattern vertices into host vertices and,
    for each, all assignments of pattern edges to distinct hyperedges.

    ``pinned`` = (pattern-edge index, hyperedge index), both 0-based,
    forces that pattern edge onto exactly that hyperedge.

    A partial map is abandoned only when a fully-mapped pattern edge's
    endpoints lie in no allowed hyperedge at all (a direct consequence of
    the containment requirement, not a search heuristic).
    """
    p = pattern.num_vertices
    hosts = sorted({v for e in h.edges for v in e})
    if p > len(hosts) or pattern.num_edges > h.m:
        return False
    edge_sets = [set(e) for e in h.edges]
    allowed = [range(h.m)] * pattern.num_edges
    if pinned is not None:
        allowed[pinned[0]] = [pinned[1]]
    by_later = [[] for _ in range(p + 1)]
    for i, (u, v) in enumerate(pattern.edges):
        by_later[max(u, v)].append(i)

    def candidates(img, i):
        u, v = pattern.edges[i]
        return [j for j in allowed[i] if img[u] in edge_sets[j] and img[v] in edge_sets[j]]

    def assign(pairs, used):
        if not pairs:
            return True
        first, rest = pairs[0], pairs[1:]
        for j in first:
            if j not in used:
                used.add(j)
                if assign(rest, used):
                    return True
                used.remove(j)
        return False

    img = {}

    def place(k):
        if k > p:
            pairs = [candidates(img, i) for i in range(pattern.num_edges)]
            return assign(pairs, set())
        for w in hosts:
            if w in img.values():
                continue
            img[k] = w
            ok = True
            for i in by_later[k]:
                if not candidates(img, i):
                    ok = False
                    break
            if ok and place(k + 1):
                return True
            del img[k]
        return False

    return place(1)


def brute_star(h, centre, size):
    """Is there a Berge star with ``size`` edges centred at ``centre``: some
    ``size`` leaves, each given its own hyperedge through the centre and
    the leaf?  Tries every set of leaves and every choice of hyperedges."""
    from itertools import product

    through = [set(e) for e in h.edges if centre in e]
    leaves = sorted({v for e in through for v in e} - {centre})
    for chosen in combinations(leaves, size):
        options = [[j for j, e in enumerate(through) if y in e] for y in chosen]
        if any(len(set(pick)) == size for pick in product(*options)):
            return True
    return False


def superset_closure(marks, m):
    """Close a bool array over all 2^m subsets upwards: afterwards an entry
    is True exactly when some subset of it was True.  One pass per bit j
    ORs the half of the table without j into the half with j."""
    table = marks.copy()
    for j in range(m):
        halves = table.reshape(-1, 2, 1 << j)
        halves[:, 1, :] |= halves[:, 0, :]
    return table


def _naive_free_table(n, r, pattern):
    """The candidate r-sets of 1..n in lexicographic order, and a bool
    array over all 2^C(n,r) subsets (bit j = candidate j) that is True
    exactly at the free ones, by marking every superset of every
    copy-hosting q-subset (:func:`superset_closure`).

    A Berge copy uses exactly q = |pattern.edges| hyperedges, so a subset
    is free exactly when it contains no hosting q-subset.
    """
    import numpy as np

    from bergeturan.core import Hypergraph

    candidates = list(combinations(range(1, n + 1), r))
    m = len(candidates)
    q = pattern.num_edges
    bad = np.zeros(1 << m, dtype=bool)
    if q <= m:
        for combo in combinations(range(m), q):
            sub = Hypergraph(n=n, r=r, edges=tuple(candidates[j] for j in combo))
            if naive_contains(sub, pattern):
                bad[sum(1 << j for j in combo)] = True
    return candidates, ~superset_closure(bad, m)


def naive_turan(n, r, pattern):
    """Maximum free subset size over all 2^C(n,r) subsets of candidate
    r-sets (:func:`_naive_free_table`)."""
    import numpy as np

    candidates, free = _naive_free_table(n, r, pattern)
    sizes = np.zeros(len(free), dtype=np.int8)
    idx = np.arange(len(free), dtype=np.int64)
    for j in range(len(candidates)):
        sizes += ((idx >> j) & 1).astype(np.int8)
    return int(sizes[free].max())


def naive_turan_witnesses(n, r, pattern, limit):
    """The first ``limit`` maximum free edge sets that contain {1..r}, in
    the order of an include-first walk over the lexicographic candidates
    (the order of ``exact_turan``), or the empty set alone where the
    maximum is 0."""
    candidates, free = _naive_free_table(n, r, pattern)
    masks = free.nonzero()[0].tolist()
    best = max(bin(mask).count("1") for mask in masks)
    if best == 0:
        return [()]
    m = len(candidates)
    top = [mask for mask in masks if mask & 1 and bin(mask).count("1") == best]
    # include first: a set that takes candidate j comes before one that
    # skips it, among sets that agree on every earlier candidate
    top.sort(key=lambda mask: [not (mask >> j) & 1 for j in range(m)])
    return [tuple(candidates[j] for j in range(m) if (mask >> j) & 1) for mask in top[:limit]]


def brute_bcn(h, v0):
    """Quantifier-literal Berge-common-neighbour check."""
    v0 = sorted(set(v0))
    out = set()
    for u in range(1, h.n + 1):
        if u in v0:
            continue
        ok = True
        for i in range(len(v0)):
            for j in range(i + 1, len(v0)):
                v1, v2 = v0[i], v0[j]
                found = False
                for e1 in h.edges:
                    for e2 in h.edges:
                        if e1 != e2 and v1 in e1 and u in e1 and v2 in e2 and u in e2:
                            found = True
                            break
                    if found:
                        break
                if not found:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(u)
    return frozenset(out)


def is_good_pair(h, u, v):
    """Definition check: two distinct hyperedges covering u and v separately."""
    for e1 in h.edges:
        for e2 in h.edges:
            if e1 != e2 and u in e1 and v in e2:
                return True
    return False


def random_hypergraph(rng: random.Random, n, r, m):
    """Random host with up to m distinct edges (at least one)."""
    from bergeturan.core import make_hypergraph

    edges = set()
    for _ in range(m):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
    return make_hypergraph(r, n, sorted(edges))


def symmetric_hypergraph(rng: random.Random, n, r):
    """Complete r-graphs on disjoint blocks of r..r+2 shuffled vertices plus
    up to three random edges: hosts with large classes of interchangeable
    vertices."""
    from bergeturan.core import make_hypergraph

    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = set()
    start = 0
    while start < n:
        size = rng.randint(r, r + 2)
        edges.update(combinations(sorted(labels[start:start + size]), r))
        start += size
    for _ in range(rng.randint(0, 3)):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
    return make_hypergraph(r, n, sorted(edges))


def naive_twin_classes(n, edges):
    """Twin classes of a host on vertices 0..n-1 whose edges are vertex
    collections, repeats allowed: u and w share a class exactly when
    swapping them maps the multiset of edges onto itself.  Returns one
    frozenset per class, the classes sorted by smallest member."""
    from collections import Counter

    multiset = Counter(frozenset(e) for e in edges)

    def swapped(e, u, w):
        return frozenset(w if v == u else u if v == w else v for v in e)

    def twins(u, w):
        return Counter(swapped(e, u, w) for e in multiset.elements()) == multiset

    classes = {frozenset(w for w in range(n) if twins(u, w)) for u in range(n)}
    return sorted(classes, key=min)


def kernel_twin_classes(n, masks):
    """The twin classes of the host on vertices 0..n-1 with the given
    hyperedges (vertex bitmasks), read off the unpinned records of the
    embedding kernel's lazy classifier (``symmetry._candidates``), each
    forced: the uncovered vertices, and each covered vertex with its
    earlier twins.  Vertex bitmasks, ordered by smallest member."""
    from bergeturan.symmetry import HostView, _candidates

    _, unclassified, cands, _, _, through = _candidates(HostView(masks), 0)
    classes = {}  # smallest member -> the class
    uncovered = (1 << n) - 1
    for v, vbit, guard, earlier in cands:
        if guard >= unclassified:
            earlier = through(v)
        first = earlier & -earlier or vbit
        classes[first] = classes.get(first, 0) | vbit
        uncovered ^= vbit
    if uncovered:
        classes[uncovered & -uncovered] = uncovered
    return [classes[first] for first in sorted(classes)]


def naive_edge_orbits(pattern):
    """Orbits of pattern edges under all vertex permutations that map the
    edge set onto itself, as ascending tuples of 0-based edge indices
    ordered by their smallest index.  Tries all p! permutations, so keep
    to patterns of at most 8 vertices."""
    from itertools import permutations

    edges = [frozenset(e) for e in pattern.edges]
    index = {e: i for i, e in enumerate(edges)}
    automorphisms = [
        perm for perm in permutations(range(1, pattern.num_vertices + 1))
        if all(frozenset(perm[v - 1] for v in e) in index for e in edges)
    ]
    orbits = {
        tuple(sorted({index[frozenset(perm[v - 1] for v in e)] for perm in automorphisms}))
        for e in edges
    }
    return tuple(sorted(orbits))


# --- the inequalities I1-I5 as stated, in Fraction arithmetic ---------------


def _i1(r, L):
    lhs = Fraction(comb(2 * L - 1, r - 1))
    rhs = Fraction(comb(2 * L, r) + 2 * comb(2 * L, r - 1) + comb(2 * L, r - 2), 2 * L)
    return lhs, rhs


def _i2(r, k, l):
    lhs = comb(k * l - 1, r - 1) - Fraction(comb(k * l - 1, r - 2), 2)
    rhs = Fraction(comb((k - 1) * l, r - 1) + 1)
    return lhs, rhs


def _i3(r, k, l):
    lhs = Fraction(sum(comb((k - 1) * l - 1, r - t - 1) for t in range(1, r - 1)), 2) \
        - l + comb(l - 1, r - 2)
    return lhs, Fraction(0)


def _i4(r, k, l):
    lhs = Fraction(comb(k * l - 1, r - 1))
    rhs = Fraction(comb((k - 1) * l - 1, r - 1) + comb(k * l - 1, r - 2))
    return lhs, rhs


def _i5(r, k, l):
    L = (l + 1) // 2
    cap = Fraction(comb(k * L - 1, r - 1))
    inner = max(
        cap - Fraction(comb(k * L - 1, r - 2), 2) + Fraction(1, 2),
        Fraction(comb(l, r), l) + Fraction(5, 2),
    )
    # stated as max{...} < cap, so lhs is the cap and rhs the max
    return cap, inner


# lemma id -> (sides as (lhs, rhs), strict); I2 alone is stated with >=
LEMMA_SIDES = {"I1": (_i1, True), "I2": (_i2, False), "I3": (_i3, True),
               "I4": (_i4, True), "I5": (_i5, True)}


def naive_verify(lemma_id, grid):
    """(rows, violations, margin_min) of one inequality over a grid: rows
    are (point, lhs, rhs, slack) with slack = lhs - rhs, violations the
    sorted points where the inequality fails, margin_min the least slack
    (None on an empty grid)."""
    sides, strict = LEMMA_SIDES[lemma_id]
    rows = []
    for pt in grid:
        lhs, rhs = sides(*pt)
        rows.append((tuple(pt), lhs, rhs, lhs - rhs))
    violations = sorted(pt for pt, _, _, slack in rows if (slack <= 0 if strict else slack < 0))
    margin = min((slack for *_, slack in rows), default=None)
    return tuple(rows), tuple(violations), margin
