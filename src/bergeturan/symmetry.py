"""Symmetry of hosts and patterns: twin classes of host vertices, orbits of
r-sets under the twin group, orbits of pattern edges under Aut(F), and a
canonical form of a host.

Twins.  Host vertices u and w are twins when swapping them maps the set of
hyperedges onto itself and, when a hyperedge is pinned, u and w are both
inside it or both outside it (the swap then lies in the pinned edge's
stabiliser).  The automorphisms that fix the pinned edge form a group, and
the transpositions in a group form an equivalence relation on the
vertices: (u u) is the identity, (u w) = (w u), and if (u v) and (v w)
are in it, so is (u w) = (u v)(v w)(u v).  So twins fall into classes.
Uncovered vertices are twins of each other, since their swap fixes every
hyperedge.  The twin test (:func:`_swap_is_automorphism`) compares
hyperedges as a set, so a host whose edge list repeats an edge gets no
twins: each covered vertex is a class of its own, which refines its twin
classes.  Everything below holds for any such refinement, where it costs
only more checks.

Orbits of r-sets.  The transpositions inside a class generate the
symmetric group on it, and transpositions of different classes commute, so
the swaps of twins generate the product G of the symmetric groups on the
classes C_1..C_k.  Two r-sets S and T share an orbit of G exactly when
|S & C_i| = |T & C_i| for every i.  Every element of G maps each class
onto itself, so it keeps the sizes.  Where the sizes agree, a bijection of
S & C_i onto T & C_i extends to a permutation of C_i for each i, and the
product of these maps S onto T.  So the sizes are the orbit's key
(:func:`_orbit_key`), and taking the c_i smallest members of each class,
for every (c_1..c_k) with c_i <= |C_i| summing to r, gives one r-set per
orbit (:func:`_orbit_representatives`).  An automorphism sigma of a host H
maps H + e onto H + sigma(e), so both have a Berge copy or neither has:
one r-set answers for its orbit.

Orbits of pattern edges.  If a Berge copy (phi, psi) puts pattern edge e
on hyperedge j and sigma in Aut(F) maps e to e', then (phi o sigma^-1,
psi o sigma^-1) is a copy that puts e' on j.  So a search pinned at one
edge answers for its orbit under Aut(F) (:func:`_pattern_edge_orbits`).

Canonical form.  Colour refinement on the vertex-hyperedge incidence,
individualisation of one vertex per twin class of the first non-singleton
cell, and the least relabelled edge tuple over the leaves give one form per
isomorphism class (:func:`canonical_form`).  The level search of
``search`` keeps one free host per form.

This module imports no other module of the package; the kernel, ``core``
and ``search`` import it.  Vertices and indices are 0-based here.
"""

import sys
from array import array
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, compress, groupby, islice, repeat
from operator import add, or_

# Hosts with at least this many edges take the large-host routes, here and
# in ``core``: labels parsed in one ``json.loads`` pass, edge masks built
# from one bit per distinct label, incidence rows converted at their first
# read, and twin tests with a dict for membership and no per-bit walk.
# Smaller hosts keep the per-item routes: there a label repeats only a few
# times, a search reads most rows, and a read imports no ``json``.  Medians
# of 9 runs on random canonical hosts (n=12, r=3; n=30, r=3; n=60, r=4),
# one core of a 2-core x86 machine, CPython 3.11.  At 64 edges the masks
# took 36 us against 51 per edge (n=12) and 50-67 against 50-70 (n=60).
# Parsing the labels took, by JSON, by int() per distinct label (the route
# JSON replaced) and by int() per field: 29, 30 and 47 us at n=12, m=64;
# 50, 49 and 86 at m=128; 81, 75 and 143 at m=220 (dense n=12 hosts, which
# no workload reads, are up to 7% slower by JSON); 25, 32 and 45 at n=30,
# m=64; 28, 46 and 48 at n=60, m=64; 1.2, 1.3 and 2.0 ms at m=3000; and
# 1.9, 2.1 and 3.6 ms and 5.5, 8.2 and 10.4 ms on the 7,084- and
# 14,157-edge constructions.  JSON and int() per field meet at about 8
# edges.  On those constructions ``dict.fromkeys`` builds the membership
# table in 0.8-1.9 ms against 1.0-2.1 ms for ``set``, whose linear probing
# suffers from masks that share their low bits; below 64 edges ``set``
# builds in about half the time.
_LARGE_HOST_EDGES = 64

# _BIT_DIGIT[k] maps a byte to b"1" when its bit k is set, else to b"0";
# _NO_BIT[k] lists the bytes whose bit k is clear
_BIT_DIGIT = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]
_DIGIT_FLAG = bytes.maketrans(b"01", b"\0\1")
_NO_BIT = [bytes(compress(range(256), digits.translate(bytes.maketrans(b"01", b"\1\0"))))
           for digits in _BIT_DIGIT]


class _LazyRows(dict):
    """Vertex v to its incidence row, converted from v's byte column of the
    packed edge matrix at its first lookup (see :func:`incidence`)."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def __missing__(self, v):
        row = self[v] = int(self.columns[v >> 3].translate(_BIT_DIGIT[v & 7]), 2)
        return row


def incidence(n, edge_masks, vertices):
    """The incidence rows and degrees of a host: ``(rows, degree)``, where
    ``rows[v]`` is the bitmask of the edges through vertex v (bit j for
    edge j) and ``degree[v]`` its number of bits, for every vertex v below
    n.  ``vertices`` lists the covered vertices; every other vertex has row
    and degree 0.

    Dense hosts go through a byte transpose: the edge masks are packed into
    a matrix of one row of little-endian bytes per edge, last edge first,
    and cut into its byte columns, so the bit of vertex v down its column,
    read as a string of binary digits, is v's row.  Each vertex costs one
    ``translate`` and one ``int(..., 2)``, both linear in m, where setting
    bit j of a growing integer per incidence is quadratic.  On hosts of
    6-16 vertices and 4-32 edges (CPython 3.11, one Xeon core) the
    transpose takes about 0.7 us per vertex and the per-bit loop about
    0.2 us per incidence, so the loop is kept up to four incidences per
    vertex.  Up to 64 vertices, ``array("Q")`` packs the matrix about 2.5
    times faster than ``int.to_bytes`` per edge (0.6 against 1.5 ms at
    m = 14,157).

    From ``_LARGE_HOST_EDGES`` edges on, the transposed rows are lazy: the
    degrees are counted from the columns with ``translate``, which deletes
    the bytes without v's bit, and a row is converted with ``int(..., 2)``
    only when it is first read, so a search that reads few rows skips most
    conversions.  Only the columns, m bytes per byte of vertex labels, stay
    alive with the rows.  At m = 14,157 and n = 60 the degrees cost 0.7 ms,
    where converting every row costs 3.4 ms more.  The choices change no
    result.
    """
    m = len(edge_masks)
    if m and m * edge_masks[0].bit_count() > 4 * len(vertices):
        if n <= 64:
            words = array("Q", edge_masks)
            words.reverse()
            if sys.byteorder == "big":
                words.byteswap()
            matrix, width = words.tobytes(), 8
        else:
            width = (n + 7) >> 3
            matrix = b"".join(map(int.to_bytes, reversed(edge_masks), repeat(width),
                                  repeat("little")))
        columns = [matrix[c::width] for c in range((n + 7) >> 3)]
        if m >= _LARGE_HOST_EDGES:
            degree = [0] * n
            for v in vertices:
                degree[v] = len(columns[v >> 3].translate(None, _NO_BIT[v & 7]))
            return _LazyRows(columns), degree
        inc = [0] * n
        for v in vertices:
            inc[v] = int(columns[v >> 3].translate(_BIT_DIGIT[v & 7]), 2)
    else:
        inc = [0] * n
        for j, em in enumerate(edge_masks):
            bit = 1 << j
            while em:
                low = em & -em
                inc[low.bit_length() - 1] |= bit
                em ^= low
    return inc, list(map(int.bit_count, inc))


def _swap_is_automorphism(edge_masks, edge_set, inc, u, w):
    """Whether swapping vertices u and w, of equal degree, maps the
    hyperedges of a host without repeated edges onto themselves.

    It does when it maps each hyperedge through w but not u onto a
    hyperedge: at equal degrees those images are then all the hyperedges
    through u but not w.  On hosts of fewer than ``_LARGE_HOST_EDGES``
    edges the first few are checked one at a time, walking the set bits of
    their index mask, which settles most pairs that are not twins.  A step
    of that walk costs O(m), and on large hosts nearly every pair tested is
    a twin pair (the class's first-hyperedge check in :func:`_join_class`
    settles the others), so there the walk is skipped.  The rest are
    picked out with ``compress`` over 0/1 flags and looked up in one pass
    at C speed that stops at the first missing image.
    """
    only_w = inc[w] & ~inc[u]
    shift = (1 << u) - (1 << w)
    if len(edge_masks) < _LARGE_HOST_EDGES:
        for _ in range(8):
            if not only_w:
                return True
            low = only_w & -only_w
            only_w ^= low
            if edge_masks[low.bit_length() - 1] + shift not in edge_set:
                return False
    flags = format(only_w, "0%db" % len(edge_masks)).encode().translate(_DIGIT_FLAG)
    return all(map(edge_set.__contains__,
                   map(add, compress(reversed(edge_masks), flags), repeat(shift))))


def _join_class(edge_masks, edge_set, inc, classes, w):
    """Put w in the first of ``classes`` whose representative is its twin,
    or in a new class of its own, and return w's earlier twins.  A class
    is [representative, bitmask of its members so far]."""
    wbit = 1 << w
    # the swap must map w's first hyperedge onto a hyperedge, which settles
    # most pairs that are not twins
    first = edge_masks[(inc[w] & -inc[w]).bit_length() - 1]
    for cls in classes:
        u = cls[0]
        if not first >> u & 1 and first - wbit + (1 << u) not in edge_set:
            continue
        if _swap_is_automorphism(edge_masks, edge_set, inc, u, w):
            earlier = cls[1]
            cls[1] |= wbit
            return earlier
    classes.append([w, wbit])
    return 0


def _candidates(edge_masks, inc, degree, pinned_mask, vertices, unclassified):
    """The kernel's candidate records and the lazy classifier of twins.

    Returns (cands, inside, through).  ``cands`` holds a record (v, 1 << v,
    guard, earlier twins) per vertex of ``vertices``, the covered vertices
    in ascending order, and ``inside`` the records of the pinned
    hyperedge's vertices.  The vertices are grouped by degree (``degree``
    of :func:`incidence`, so grouping reads no row of ``inc``) and
    pinned-edge membership, which twins share.  The smallest vertex of a
    group has no earlier twin; the record of every other vertex starts
    with no earlier twins and bit ``unclassified`` set in its guard.
    ``through(v)`` classifies the members of v's group in ascending order
    up to v (:func:`_join_class`), replaces their records in both lists
    and returns v's earlier twins.

    A member's class depends only on the smaller members of its group, and
    twins form classes, so every vertex gets the earlier twins that
    classifying all vertices at once gives it: its smaller twins.  A
    caller that stops early skips the tests of the vertices it never
    reached.  The first call builds a membership table of the edge masks,
    a set or, from ``_LARGE_HOST_EDGES`` edges on, a dict; each test then
    costs one pass over an m-bit mask and a lookup per hyperedge through
    one vertex of the pair but not the other.
    """
    cands = []
    inside = []
    groups = {}  # (degree, pinned membership) -> [pending members, classes, next pending]
    for v in vertices:
        vbit = 1 << v
        key = degree[v] << 1 | pinned_mask >> v & 1
        group = groups.get(key)
        if group is None:
            groups[key] = [[], [[v, vbit]], 0]
            record = (v, vbit, vbit, 0)
        else:
            group[0].append((v, len(cands), len(inside) if pinned_mask & vbit else -1))
            record = (v, vbit, vbit | unclassified, 0)
        cands.append(record)
        if pinned_mask & vbit:
            inside.append(record)
    edge_set = None
    simple = True

    def through(v):
        nonlocal edge_set, simple
        if edge_set is None:
            edge_set = (set if len(edge_masks) < _LARGE_HOST_EDGES else dict.fromkeys)(edge_masks)
            simple = len(edge_set) == len(edge_masks)
        group = groups[degree[v] << 1 | pinned_mask >> v & 1]
        pending, classes = group[0], group[1]
        while True:
            w, i, j = pending[group[2]]
            group[2] += 1
            wbit = 1 << w
            earlier = _join_class(edge_masks, edge_set, inc, classes, w) if simple else 0
            cands[i] = record = (w, wbit, earlier | wbit, earlier)
            if j >= 0:
                inside[j] = record
            if w == v:
                return earlier

    return cands, inside, through


def twin_classes(n, edge_masks):
    """The twin classes of the host on vertices 0..n-1, as vertex bitmasks
    ordered by smallest member: the uncovered vertices, and the classes of
    the covered ones read off the unpinned classifier's records."""
    covered = reduce(or_, edge_masks, 0)
    width = covered.bit_length()
    vertices = [v for v in range(width) if covered >> v & 1]
    cands, _, through = _candidates(edge_masks, *incidence(width, edge_masks, vertices), 0,
                                    vertices, 1 << width)
    classes = {}  # smallest member -> the class
    for v, vbit, guard, earlier in cands:
        if guard >> width:
            earlier = through(v)
        first = earlier & -earlier or vbit
        classes[first] = classes.get(first, 0) | vbit
    uncovered = ((1 << n) - 1) & ~covered
    if uncovered:
        classes[uncovered & -uncovered] = uncovered
    return [classes[first] for first in sorted(classes)]


def _orbit_key(classes, rset):
    """The sizes of the r-set's intersections with the twin classes, all
    vertex bitmasks: equal exactly for r-sets in one orbit."""
    return tuple((rset & c).bit_count() for c in classes)


def _orbit_representatives(classes, r):
    """One r-set per orbit of the product of the symmetric groups on
    ``classes`` (vertex bitmasks), as a bitmask: for every way of taking
    c_i vertices from class i with the c_i summing to r, the r-set of the
    smallest c_i members of each class."""
    # prefixes[i][c] is the smallest c members of class i, for c <= r
    prefixes = []
    for cls in classes:
        row = [0]
        for v in islice(_bits(cls), r):
            row.append(row[-1] | 1 << v)
        prefixes.append(row)
    # a multiset of r class indices says how many vertices each class gives
    for pick in combinations_with_replacement(range(len(classes)), r):
        rset = 0
        for i, run in groupby(pick):
            c = len(tuple(run))
            if c >= len(prefixes[i]):
                break
            rset |= prefixes[i][c]
        else:
            yield rset


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(colour, edges, through):
    """The coarsest refinement of ``colour`` (one int per vertex) in which
    vertices of one colour meet equally many hyperedges of each colour, a
    hyperedge's colour being the sorted colours of its vertices.  Each
    round gives a vertex the rank of its sorted signature (its colour, then
    the sorted colours of the hyperedges through it), so the order of the
    old colours is kept and the result depends only on the colouring, not
    on the labels."""
    classes = len(set(colour))
    while True:
        edge_colours = [tuple(sorted([colour[v] for v in e])) for e in edges]
        sigs = [(colour[v], sorted([edge_colours[j] for j in through[v]]))
                for v in range(len(colour))]
        ranked = sorted(range(len(sigs)), key=sigs.__getitem__)
        colour = [0] * len(sigs)
        rank = 0
        for prev, v in zip(ranked, ranked[1:]):
            if sigs[v] != sigs[prev]:
                rank += 1
            colour[v] = rank
        if rank + 1 == classes:
            return colour
        classes = rank + 1


def _leaves(n, edge_masks):
    """The discrete colourings of the individualisation-refinement tree of
    the host on vertices 0..n-1, each a list that gives every vertex its
    own colour in 0..n-1.

    The root is the refined colouring with every vertex alike.  A node that
    is not discrete individualises, one child each, the vertices of its
    first non-singleton cell (the one of least colour), but only one
    member of each twin class there, the smallest (:func:`twin_classes`):
    the swap of two twins u and w maps the host onto itself and fixes every
    vertex individualised above, none of which is in the cell, so it maps
    the subtree of u onto that of w, and both yield the same relabelled
    hosts.  Individualising v gives it a colour of its own just below its
    cell, then refines (:func:`_refine`)."""
    edges = [tuple(_bits(mask)) for mask in edge_masks]
    through = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            through[v].append(j)
    twin = [0] * n
    for i, cls in enumerate(twin_classes(n, edge_masks)):
        for v in _bits(cls):
            twin[v] = i
    pending = [_refine([0] * n, edges, through)]
    while pending:
        colour = pending.pop()
        size = [0] * n
        for c in colour:
            size[c] += 1
        cell = next((c for c in range(n) if size[c] > 1), None)
        if cell is None:
            yield colour
            continue
        seen = set()
        for v in range(n):
            if colour[v] == cell and twin[v] not in seen:
                seen.add(twin[v])
                split = [2 * c + (u != v) for u, c in enumerate(colour)]
                pending.append(_refine(split, edges, through))


def canonical_form(n, edge_masks):
    """The canonical form of the host on vertices 0..n-1 with the given
    hyperedges (vertex bitmasks, no edge repeated), and a labelling that
    produces it: ``(form, labelling)``, where ``labelling[v]`` is the new
    label of vertex v and ``form`` is the ascending tuple of the relabelled
    hyperedge masks.  Two hosts get one form exactly when they are
    isomorphic.

    The form is the least relabelled tuple over the leaves of the
    individualisation-refinement tree (:func:`_leaves`; McKay and Piperno,
    *Practical graph isomorphism, II*, 2014).  Refinement and the choice of
    the cell to split depend on no label, so relabelling the host by sigma
    relabels every node of the tree by sigma, and the set of relabelled
    hosts at the leaves, hence its least member, is the same; where only
    one twin per class is individualised, the skipped subtrees yield the
    same hosts as the kept one.  Every leaf labelling relabels the host
    isomorphically, so isomorphic hosts are also the only ones that share
    a form."""
    best = labelling = None
    for colour in _leaves(n, edge_masks):
        form = tuple(sorted([sum([1 << colour[v] for v in _bits(mask)]) for mask in edge_masks]))
        if best is None or form < best:
            best, labelling = form, tuple(colour)
    return best, labelling


def _automorphism(adj, colour, seed):
    """A vertex permutation that preserves adjacency, maps every vertex to
    one of its colour and extends the (vertex, image) pairs of ``seed``, or
    None when there is none.

    Backtracks in breadth-first order from the seed's vertices: a vertex
    with a placed neighbour w takes its image among the neighbours of w's
    image, the first vertex of a new component any unused vertex.  A
    candidate image must have v's colour, and the placed neighbours of v
    must map onto exactly the neighbours of the image that are images
    already; when every vertex is placed the map is an automorphism.
    """
    p = len(adj)
    order = [v for v, _ in seed]
    parent = [-1] * p
    seen = 0
    for v in order:
        seen |= 1 << v
    head = 0
    while len(order) < p:
        if head == len(order):
            v = next(v for v in range(p) if not seen >> v & 1)
            seen |= 1 << v
            order.append(v)
        v = order[head]
        head += 1
        for w in _bits(adj[v] & ~seen):
            seen |= 1 << w
            parent[w] = v
            order.append(w)
    fixed = dict(seed)
    image = [-1] * p
    placed = used = 0

    def choices(i):
        v = order[i]
        if v in fixed:
            return iter((fixed[v],))
        if parent[v] >= 0:
            return _bits(adj[image[parent[v]]] & ~used)
        return (w for w in range(p) if not used >> w & 1)

    pending = [choices(0)]
    while pending:
        v = order[len(pending) - 1]
        if image[v] >= 0:
            used ^= 1 << image[v]
            placed ^= 1 << v
            image[v] = -1
        for w in pending[-1]:
            if used >> w & 1 or colour[w] != colour[v]:
                continue
            nbrs = adj[v] & placed
            if (adj[w] & used).bit_count() == nbrs.bit_count() and all(
                    adj[w] >> image[x] & 1 for x in _bits(nbrs)):
                break
        else:
            pending.pop()
            continue
        image[v] = w
        used |= 1 << w
        placed |= 1 << v
        if len(pending) == p:
            return image
        pending.append(choices(len(pending)))
    return None


@lru_cache(maxsize=512)
def _pattern_edge_orbits(pattern):
    """The orbits of a ``PatternGraph``'s edges under its automorphism
    group Aut(F): tuples of 0-based edge indices, each ascending, ordered
    by their smallest index (the orbit's representative).

    Vertices are first coloured by colour refinement (iterated degree),
    which every automorphism preserves, so edges whose endpoint colours
    differ lie in different orbits.  Edges are then taken in index order.
    An edge is tried against each earlier representative of its colours,
    looking for an automorphism that maps the representative onto it
    (:func:`_automorphism`, either orientation); the first one found merges
    the two orbits, and with them every edge with its image under that
    automorphism.  An edge that no automorphism reaches from an earlier
    representative becomes one.  So two edges share an orbit only through
    explicit automorphisms, and the exhaustive search makes the
    representatives pairwise inequivalent.  kP_l has ceil(l/2) orbits.
    """
    p = pattern.num_vertices
    edges0 = [(u - 1, v - 1) for u, v in pattern.edges]
    adj = [0] * p
    for a, b in edges0:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    colour = [0] * p
    classes = 1
    while True:
        sigs = [(colour[v], tuple(sorted(colour[w] for w in _bits(adj[v])))) for v in range(p)]
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [ids[sig] for sig in sigs]
        if len(ids) == classes:
            break
        classes = len(ids)

    def key(e):
        return tuple(sorted((colour[e[0]], colour[e[1]])))

    index = {frozenset(e): i for i, e in enumerate(edges0)}
    root = list(range(len(edges0)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    reps = []
    for j, (a, b) in enumerate(edges0):
        if find(j) != j:
            continue
        for i in reps:
            if key(edges0[i]) != key((a, b)):
                continue
            c, d = edges0[i]
            sigma = _automorphism(adj, colour, ((c, a), (d, b))) or \
                _automorphism(adj, colour, ((c, b), (d, a)))
            if sigma is not None:
                for k, (x, y) in enumerate(edges0):
                    s, t = find(k), find(index[frozenset((sigma[x], sigma[y]))])
                    root[max(s, t)] = min(s, t)
                break
        else:
            reps.append(j)
    orbits = {}
    for k in range(len(edges0)):
        orbits.setdefault(find(k), []).append(k)
    return tuple(tuple(orbits[i]) for i in sorted(orbits))
