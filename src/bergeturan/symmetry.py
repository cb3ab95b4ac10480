"""A host's vertex tables and its twins: the covered vertices, incidence
rows and degrees, the twin test, and the one step that joins a vertex to
its twin class, with the embedding kernel's lazy loop over it.

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
twins from the join step: each covered vertex is a class of its own,
which refines its twin classes.  Everything below holds for any such
refinement, where it costs only more checks.

One routine decides twins for the whole package: :func:`_join_class`
puts a covered vertex into the classes found so far among its group, or
starts a class, and holds the guard for repeated edges.  Two loops
run it.  The kernel's, in :func:`_candidates`, is lazy: it joins the
members of a (degree, pinned membership) group only up to the vertex the
search asks about.  The Turán search's, ``orbits._tables``, joins every
covered vertex into the classes of its degree at once.  Both read the
rows of :func:`incidence`, the only source of incidence bitmask rows
in the package.

Every query runs this code.  The kernel reads a host only through its
view (:class:`HostView`): its edge masks, and tables of them built once
per view.  :func:`incidence` finds the covered vertices and builds the
incidence rows and degrees; the kernel's set-up is one call to
:func:`_candidates`, which builds on them, and the neighbourhood tools
of ``berge`` read the rows.  The view of a large host comes with its
tables, built with its masks from its label columns
(:func:`label_masks`); both byte transposes, of the label columns and of
the packed masks, end in the same tables (:func:`_column_tables`).  The
orbits and canonical form that only the Turán search uses are in
:mod:`bergeturan.orbits`, which takes the join step and the rows from
here.

This module imports no other module of the package; the kernel,
``berge`` and ``orbits`` import it, and ``core`` never does.  Vertices
and indices are 0-based here.
"""

import sys
from array import array
from functools import reduce
from itertools import compress, repeat
from operator import add, or_

# _BIT_DIGIT[k] maps a byte to b"1" when its bit k is set, else to b"0";
# _NO_BIT[k] lists the bytes whose bit k is clear
_BIT_DIGIT = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]
_DIGIT_FLAG = bytes.maketrans(b"01", b"\0\1")
_NO_BIT = [bytes(compress(range(256), digits.translate(bytes.maketrans(b"01", b"\1\0"))))
           for digits in _BIT_DIGIT]
# _LANE[k] maps a label v in 1..64 to its bit in byte k of an edge mask,
# 1 << (v - 1) % 8 where (v - 1) // 8 == k, else to 0; built at the first
# call of label_masks, so that no command pays for it at start-up
_LANE = []


class _LazyRows(dict):
    """Vertex v to its incidence row, converted from v's byte column of the
    packed edge matrix at its first lookup (see :func:`incidence`)."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def __missing__(self, v):
        row = self[v] = int(self.columns[v >> 3].translate(_BIT_DIGIT[v & 7]), 2)
        return row


class HostView:
    """A host as the kernel reads it: ``masks``, one vertex bitmask per
    hyperedge, and two tables of them, built at first read and kept:
    ``tables``, what :func:`incidence` returns, and ``members``, the twin
    test's membership dict, faster to build than a set of such masks."""

    __slots__ = ("masks", "_tables", "_members")

    def __init__(self, masks, tables=None):
        self.masks = masks
        self._tables = tables
        self._members = None

    @property
    def tables(self):
        if self._tables is None:
            self._tables = incidence(self.masks)
        return self._tables

    @property
    def members(self):
        if self._members is None:
            self._members = dict.fromkeys(self.masks)
        return self._members


def label_masks(columns):
    """The view of a host, its edge masks with their incidence tables
    filled, built in one byte transpose of its label columns; None where
    a label exceeds 64.

    ``columns[i][j]`` is the (i+1)-th smallest label of edge j, so the
    last column holds the largest labels.  Byte lane k of the edge masks,
    the bits of labels 8k+1..8k+8, is the OR over columns of each column
    as bytes, translated label by label to its bit in lane k (``_LANE``);
    an edge's labels are distinct, so their bits never collide.  Read as
    integers, m bytes each, the OR takes one pass per column at C speed,
    and ``to_bytes(m, "big")`` gives the lane last edge first: the byte
    column that :func:`incidence` reads degrees and rows from.  The lanes,
    interleaved into eight bytes per edge, are the edge masks as
    ``array("Q")`` words, last edge first until the words are reversed.
    So nothing runs per incidence or per edge in
    Python, and the tables equal those that :func:`incidence` builds from
    the masks.
    """
    top = max(columns[-1])
    if top > 64:
        return None
    if not _LANE:
        _LANE.extend(bytes(1 << (v - 1 & 7) if (v - 1) >> 3 == k else 0 for v in range(256))
                     for k in range(8))
    m = len(columns[0])
    blocks = [bytes(column) for column in columns]
    lanes = []
    for table in _LANE[:(top + 7) >> 3]:
        lane = 0
        for block in blocks:
            lane |= int.from_bytes(block.translate(table), "little")
        lanes.append(lane.to_bytes(m, "big"))
    matrix = bytearray(8 * m)
    for k, lane in enumerate(lanes):
        matrix[k::8] = lane
    words = array("Q", matrix)
    words.reverse()
    if sys.byteorder == "big":
        words.byteswap()
    return HostView(words.tolist(), _column_tables(lanes, (1 << top) - 1))


def _column_tables(columns, covered):
    """``(vertices, rows, degree)`` of :func:`incidence` from the byte
    columns of a host, counting the degree of each vertex in the bitmask
    ``covered``, whose top bit is the last covered vertex; the covered
    vertices are those of nonzero degree."""
    degree = [len(columns[v >> 3].translate(None, _NO_BIT[v & 7])) if covered >> v & 1 else 0
              for v in range(covered.bit_length())]
    return list(compress(range(len(degree)), degree)), _LazyRows(columns), degree


def incidence(edge_masks):
    """The covered vertices of a host, ascending, and its incidence tables:
    ``(vertices, rows, degree)``, where ``rows[v]`` is the bitmask of the
    edges through vertex v (bit j for edge j) and ``degree[v]`` its number
    of bits.  The tables stop at the last covered vertex, since no vertex
    above it takes part.

    Dense hosts go through a byte transpose: the edge masks are packed into
    a matrix of one row of little-endian bytes per edge, last edge first,
    and cut into its byte columns, so the bit of vertex v down its column,
    read as a string of binary digits, is v's row.  The degrees are counted
    from the columns with ``translate``, which deletes the bytes without
    v's bit, and a row is converted with ``int(..., 2)`` only when it is
    first read (:class:`_LazyRows`), so a search that reads few rows skips
    most conversions.  Only the columns, m bytes per byte of vertex labels,
    stay alive with the rows.  Each step is linear in m, where setting bit
    j of a growing integer per incidence is quadratic; at m = 14,157 and
    n = 60 the degrees cost 0.7 ms, where converting every row costs
    3.4 ms more.  On hosts of 6-16 vertices and 4-32 edges (CPython 3.11,
    one Xeon core) the transpose takes about 0.7 us per vertex and the
    per-bit loop about 0.2 us per incidence, so sparse hosts, with at most
    four incidences per vertex, set the bits one at a time instead.  Up to
    64 vertices, ``array("Q")`` packs the matrix about 2.5 times faster
    than ``int.to_bytes`` per edge (0.6 against 1.5 ms at m = 14,157).
    The choices change no result.

    A view from :func:`label_masks` comes with its tables: on the
    14,157-edge host this function took 2.2 ms after the masks were built,
    where the transpose builds masks and tables in 2.5 ms (medians on one
    core).
    """
    covered = reduce(or_, edge_masks, 0)
    n = covered.bit_length()
    m = len(edge_masks)
    if not m or m * edge_masks[0].bit_count() <= 4 * covered.bit_count():
        inc = [0] * n
        for j, em in enumerate(edge_masks):
            bit = 1 << j
            while em:
                low = em & -em
                inc[low.bit_length() - 1] |= bit
                em ^= low
        degree = list(map(int.bit_count, inc))
        return list(compress(range(n), degree)), inc, degree
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
    return _column_tables([matrix[c::width] for c in range((n + 7) >> 3)], covered)


def _swap_is_automorphism(edge_masks, edge_set, inc, u, w):
    """Whether swapping vertices u and w, of equal degree, maps the
    hyperedges of a host without repeated edges onto themselves.

    It does when it maps each hyperedge through w but not u onto a
    hyperedge: at equal degrees those images are then all the hyperedges
    through u but not w.  The first few are checked one at a time, walking
    the set bits of their index mask, which settles most pairs that are not
    twins on small hosts.  The rest are picked out with ``compress`` over
    0/1 flags and looked up in one pass at C speed that stops at the first
    missing image.
    """
    only_w = inc[w] & ~inc[u]
    shift = (1 << u) - (1 << w)
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
    is [representative, bitmask of its members so far], and ``classes``
    hold earlier vertices of w's group, which twins share: its degree
    and, in the kernel, its pinned membership.  w must be covered: the
    first check reads w's first hyperedge.  Where ``edge_set`` holds fewer masks than
    ``edge_masks``, the host repeats an edge, and w gets a class of its
    own with no test (see the module docstring)."""
    wbit = 1 << w
    if len(edge_set) == len(edge_masks):
        # the swap must map w's first hyperedge onto a hyperedge, which
        # settles most pairs that are not twins
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


def _candidates(host, pinned_mask):
    """The kernel's set-up on a :class:`HostView`: the incidence rows, the
    candidate records and the lazy loop over the join step.

    Returns (rows, unclassified, cands, inside, smaller, through).
    ``rows`` is that of :func:`incidence`.  ``cands`` holds a record (v,
    1 << v, guard, earlier twins) per covered vertex, in ascending order,
    and ``inside`` the records of the pinned hyperedge's vertices.  The
    vertices are grouped by degree (grouping reads no row) and pinned-edge
    membership, which twins share.  The smallest vertex of a group has no
    earlier twin, and its record is final: guard 1 << v, no earlier twins.
    The record of every other vertex starts with no earlier twins and the
    bit ``unclassified``, above every vertex, set in its guard, and
    ``smaller[v]`` is the bitmask of the smaller members of its group,
    which hold its earlier twins.  ``through(v)`` joins the members of
    v's group in ascending order up to v (:func:`_join_class`),
    replaces their records in both lists with final ones, whose guard is
    a member's earlier twins and its own bit, and returns v's earlier
    twins.

    A member's class depends only on the smaller members of its group, and
    twins form classes, so every vertex gets the earlier twins that
    classifying all vertices at once gives it: its smaller twins.  A
    caller that stops early skips the tests of the vertices it never
    reached.  The first call reads the view's membership table; each test
    then costs one pass over an m-bit mask and a lookup per hyperedge
    through one vertex of the pair but not the other.
    """
    vertices, inc, degree = host.tables
    # a bit above every covered vertex: the tables end at the last one
    unclassified = 1 << len(degree)
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

    def through(v):
        group = groups[degree[v] << 1 | pinned_mask >> v & 1]
        pending, classes = group[0], group[1]
        while True:
            w, i, j = pending[group[2]]
            group[2] += 1
            wbit = 1 << w
            earlier = _join_class(host.masks, host.members, inc, classes, w)
            cands[i] = record = (w, wbit, earlier | wbit, earlier)
            if j >= 0:
                inside[j] = record
            if w == v:
                return earlier

    return inc, unclassified, cands, inside, smaller, through
