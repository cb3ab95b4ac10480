"""Twins of host vertices: the twin test and the embedding kernel's lazy
classifier of twins, with the incidence rows and degrees they read.

Host vertices u and w are twins when swapping them maps the set of
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

Every query runs this code: the kernel classifies its candidates here,
and ``core`` takes its large-host threshold (``_LARGE_HOST_EDGES``) and
``Hypergraph.incidence_masks`` from it.  The orbits and the canonical form,
which only the Turán search uses, are in :mod:`bergeturan.orbits`; it
reads the twin classes off :func:`_candidates`.

This module imports no other module of the package; the kernel, ``core``
and ``orbits`` import it.  Vertices and indices are 0-based here.
"""

import sys
from array import array
from itertools import compress, repeat
from operator import add

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

    Returns (cands, inside, smaller, through).  ``cands`` holds a record
    (v, 1 << v, guard, earlier twins) per vertex of ``vertices``, the
    covered vertices in ascending order, and ``inside`` the records of the
    pinned hyperedge's vertices.  The vertices are grouped by degree
    (``degree`` of :func:`incidence`, so grouping reads no row of ``inc``)
    and pinned-edge membership, which twins share.  The smallest vertex of
    a group has no earlier twin, and its record is final: guard 1 << v, no
    earlier twins.  The record of every other vertex starts with no
    earlier twins and bit ``unclassified`` set in its guard, and
    ``smaller[v]`` is the bitmask of the smaller members of its group,
    which hold its earlier twins.  ``through(v)`` classifies the members
    of v's group in ascending order up to v (:func:`_join_class`),
    replaces their records in both lists with final ones, whose guard is
    a member's earlier twins and its own bit, and returns v's earlier
    twins.

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
    smaller = {}
    # (degree, pinned membership) -> [pending members, classes, next pending, members so far]
    groups = {}
    for v in vertices:
        vbit = 1 << v
        key = degree[v] << 1 | pinned_mask >> v & 1
        group = groups.get(key)
        if group is None:
            groups[key] = [[], [[v, vbit]], 0, vbit]
            record = (v, vbit, vbit, 0)
        else:
            group[0].append((v, len(cands), len(inside) if pinned_mask & vbit else -1))
            smaller[v] = group[3]
            group[3] |= vbit
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

    return cands, inside, smaller, through
