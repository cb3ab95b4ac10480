"""Pure-Python Berge-embedding kernel.

Searches a host r-graph for an injective placement of a pattern graph's
vertices together with a bijection from pattern edges onto distinct
hyperedges, each hyperedge containing the images of its pattern edge's
endpoints.

Deterministic contract:

* pattern vertices are assigned in the caller-supplied ``order``;
* host candidates are the covered vertices (those in some hyperedge of
  ``edge_masks``), tried in ascending order; no pattern vertex can map to
  an isolated vertex, and a host with fewer covered vertices than the
  pattern has vertices (or fewer hyperedges than it has edges) is refuted
  after 0 nodes;
* host twins are pruned: a candidate is skipped while a smaller twin of it
  is still unused (the twin rule below);
* a "node" is one vertex-assignment attempt: each host candidate examined
  at a position that passes the used-vertex, twin and pin filters;
* once both endpoints of a pattern edge are placed, the edge must admit a
  system of distinct representative hyperedges jointly with all other such
  edges; feasibility is maintained with an incremental augmenting-path
  matching (:func:`augment`, the explicit-stack paragraph below);
* ``pinned`` (pattern-edge index, host-edge index) restricts that pattern
  edge's representative to exactly that hyperedge, and the positions of
  its two endpoints draw candidates only from the pinned hyperedge (the
  pin rule below);
* the first embedding reached in this order is returned.

Twin rule.  Host vertices u and v are twins when swapping them maps the
set of hyperedges onto itself and, when a hyperedge is pinned, u and v are
both inside it or both outside it (the swap then lies in the pinned edge's
stabiliser).  The transpositions that are automorphisms of a structure
form an equivalence relation, so twins fall into classes.  At every
position the search skips candidate v while a twin u < v is unused.  This
is exact: an embedding that extends the current placement with v maps
under the swap of u and v to one that extends the same placement with u,
because neither vertex is used yet, the swap fixes every earlier image and
the pinned hyperedge, and it carries hyperedges to hyperedges.  So v's
subtree holds an embedding only if u's does, and u's subtree is searched
first.  Every status and the first embedding (images and assignment) are
those of the search without the rule; only node counts fall.  Twins are
looked for among covered vertices of equal degree and equal pinned-edge
membership; a host whose edge list repeats an edge gets no twins.

Lazy twin classes.  The classes are found only as far as the search
reaches.  Covered vertices are grouped by degree and pinned-edge
membership, which twins share.  The smallest vertex of a group has no
smaller twin.  Any other vertex is classified when it first passes the
used-vertex filter: the members of its group are classified in ascending
order up to it, each joining the class of the representative it is a twin
of, if any, else starting its own.  A member's class depends only on
the smaller members of its group, and twins form classes, so every vertex
gets the earlier twins that classifying all vertices before the search
gives it: its smaller twins.  The filter reads them before the candidate
counts as a node, so every status, first embedding and node count is that
of the eager classification; a search that stops early skips the tests of
the vertices it never reached.

Set-up cost.  A call's set-up is linear in the edge masks and in the
per-vertex incidence masks, n x m bits in all (see :func:`incidence`),
where n runs only to the last covered vertex: a few passes over the edge
list and O(n) operations on m-bit integers.  The first twin test builds a
set of the edge masks; each test then costs one pass over an m-bit mask
and a set lookup per hyperedge through one vertex of the pair but not the
other.  On a host that repeats an edge, classifying a vertex only records
that it has no earlier twins.

Pin rule.  Under a pin, the positions of both endpoints of the pinned
pattern edge take their candidates from a list holding only the vertices
of the pinned hyperedge, built once per call; every other position, and
every unpinned call, keeps the list of all covered vertices.  This is
exact: an embedding represents the pinned pattern edge by the pinned
hyperedge, which must contain the images of both its endpoints, so a
placement of either endpoint outside it can never complete.  The twin
rule is untouched, because twins agree on pinned-edge membership: a
skipped candidate's smaller twin is in the same list.  So every status and
first embedding stay those of the search without the rule; only the node
counts of pinned queries fall.

Explicit stacks.  Nothing recurses, so no answer depends on the caller's
stack.  The search keeps a frame per position up to the current one: its
iterator over untried candidates, its rows (the hyperedges through each
placed neighbour), and the log mark and bit of the vertex placed there.
:func:`augment` keeps its path of pattern edges on a stack and tries each
edge's candidate hyperedges in ascending index order, each hyperedge at
most once per call; the search takes a free lowest candidate itself, as
the call's first step would.  Each matching change is logged as (0,
pattern edge, old hyperedge) then (1, hyperedge, old owner), and a failed
placement or a backtrack pops the log back to its mark.

An exhaustive search (budget 0, NOT_FOUND) expands, at every reachable
placement, one unused vertex of each twin class whatever the candidate
order, and the swap carries the subtrees of the others onto its subtree,
so its node count depends only on the host's edge sets and the pattern
plan, not on the vertex labels.

Vertices and indices are 0-based here; wrappers translate.
"""

import sys
from array import array
from functools import reduce
from itertools import compress, repeat
from operator import add, or_

NOT_FOUND = 0
FOUND = 1
INDETERMINATE = 2

# _BIT_DIGIT[k] maps a byte to b"1" when its bit k is set, else to b"0"
_BIT_DIGIT = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]
_DIGIT_FLAG = bytes.maketrans(b"01", b"\0\1")


def incidence(n, edge_masks, vertices):
    """Per vertex, the bitmask of the edges through it (bit j for edge j),
    computed for ``vertices`` and 0 for every other vertex below n.

    Large hosts go through a byte transpose: the edge masks are packed into
    a matrix of one row of little-endian bytes per edge, last edge first,
    so the bit of vertex v down the rows, read as a string of binary
    digits, is v's mask.  Each vertex costs one strided slice, one
    ``translate`` and one ``int(..., 2)``, all linear in m, where setting
    bit j of a growing integer per incidence is quadratic.  On hosts of
    6-16 vertices and 4-32 edges (CPython 3.11, one Xeon core) the
    transpose takes about 0.7 us per vertex and the per-bit loop about
    0.2 us per incidence, so the loop is kept up to four incidences per
    vertex.  Up to 64 vertices, ``array("Q")`` packs the rows about 2.5
    times faster than ``int.to_bytes`` per edge (0.6 against 1.5 ms at
    m = 14,157).  The choices change no result.
    """
    inc = [0] * n
    m = len(edge_masks)
    if m and m * edge_masks[0].bit_count() > 4 * len(vertices):
        if n <= 64:
            words = array("Q", edge_masks)
            words.reverse()
            if sys.byteorder == "big":
                words.byteswap()
            rows, width = words.tobytes(), 8
        else:
            width = (n + 7) >> 3
            rows = b"".join(map(int.to_bytes, reversed(edge_masks), repeat(width), repeat("little")))
        for v in vertices:
            inc[v] = int(rows[v >> 3::width].translate(_BIT_DIGIT[v & 7]), 2)
    else:
        for j, em in enumerate(edge_masks):
            bit = 1 << j
            while em:
                low = em & -em
                inc[low.bit_length() - 1] |= bit
                em ^= low
    return inc


def _swap_is_automorphism(edge_masks, edge_set, inc, u, w):
    """Whether swapping vertices u and w, of equal degree, maps the
    hyperedges of a host without repeated edges onto themselves.

    It does when it maps each hyperedge through w but not u onto a
    hyperedge: at equal degrees those images are then all the hyperedges
    through u but not w.  The first few are checked one at a time, walking
    the set bits of their index mask, which settles most pairs that are not
    twins.  A step of that walk costs O(m), so the rest are picked out with
    ``compress`` over 0/1 flags and checked in one pass at C speed.
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
    return edge_set.issuperset(map(add, compress(reversed(edge_masks), flags), repeat(shift)))


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


def twin_classes(n, edge_masks):
    """The twin classes of the host on vertices 0..n-1, as one vertex
    bitmask per class, ordered by smallest member.

    All uncovered vertices below n form one class: swapping two of them
    fixes every hyperedge.  Twins share their degree, so the covered
    vertices are grouped by it and each joins a class by
    :func:`_join_class`, in ascending order.  A host whose edge list
    repeats an edge gets a class of its own for every covered vertex,
    which is a refinement of its twin classes, as the kernel gets no twins
    there.
    """
    covered = reduce(or_, edge_masks, 0)
    uncovered = ((1 << n) - 1) & ~covered
    classes = [uncovered] if uncovered else []
    vertices = [v for v in range(covered.bit_length()) if covered >> v & 1]
    edge_set = set(edge_masks)
    if len(edge_set) < len(edge_masks):
        classes += [1 << v for v in vertices]
    else:
        inc = incidence(covered.bit_length(), edge_masks, vertices)
        groups = {}  # degree -> [[representative, members], ...]
        for v in vertices:
            _join_class(edge_masks, edge_set, inc, groups.setdefault(inc[v].bit_count(), []), v)
        classes += [members for group in groups.values() for _, members in group]
    return sorted(classes, key=lambda c: c & -c)


def _candidates(edge_masks, inc, pinned_mask, host_order, unclassified):
    """The search's candidate records and the lazy classifier of twins.

    Returns (cands, inside, through).  ``cands`` holds a record (v, 1 << v,
    guard, earlier twins) per covered vertex and ``inside`` the records of
    the pinned hyperedge's vertices, both ascending in v.  Twins agree on
    degree and pinned-edge membership, so the covered vertices are grouped
    by the two.  The smallest vertex of a group has no earlier twin; the
    record of every other vertex starts with no earlier twins and bit
    ``unclassified`` set in its guard.  ``through(v)`` classifies the
    members of v's group in ascending order up to v, replaces their records
    in both lists and returns v's earlier twins: a member joins the class
    of the representative it is a twin of, if any, else starts its own.  A
    host whose edge list repeats an edge gets no twins.
    """
    cands = []
    inside = []
    groups = {}  # (degree, pinned membership) -> [pending members, classes, next pending]
    for v in host_order:
        vbit = 1 << v
        key = inc[v].bit_count() << 1 | pinned_mask >> v & 1
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
            edge_set = set(edge_masks)
            simple = len(edge_set) == len(edge_masks)
        group = groups[inc[v].bit_count() << 1 | pinned_mask >> v & 1]
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


def augment(pe, cand, match_of, owner, log):
    """Match pattern edge ``pe`` by an augmenting path (see the module
    docstring); return whether it was, changing nothing when not.
    ``cand[e]`` is the bitmask of the hyperedges pattern edge e may take,
    ``match_of[e]`` its hyperedge and ``owner[j]`` hyperedge j's pattern
    edge, -1 when there is none; each change is appended to ``log``."""
    visited = 0
    path = []  # (edge, its bits left, the hyperedge it tries) up to the top
    remaining = cand[pe]
    while True:
        remaining &= ~visited
        if not remaining:
            if not path:
                return False
            pe, remaining, _ = path.pop()
            continue
        low = remaining & -remaining
        remaining ^= low
        visited |= low
        j = low.bit_length() - 1
        path.append((pe, remaining, j))
        if owner[j] == -1:
            for pe, _, j in reversed(path):
                log.append((0, pe, match_of[pe]))
                log.append((1, j, owner[j]))
                match_of[pe] = j
                owner[j] = pe
            return True
        pe = owner[j]
        remaining = cand[pe]


def solve(edge_masks, pat_edges, order, budget=0, pinned_pe=-1, pinned_he=-1):
    """Run the embedding search.

    Returns (status, images, assignment, nodes) where images maps pattern
    vertex -> host vertex and assignment maps pattern edge index -> host
    edge index (both None unless status == FOUND).
    """
    m = len(edge_masks)
    # pattern vertices are never isolated, so the plan lists all of them
    p = len(order)
    q = len(pat_edges)
    covered = reduce(or_, edge_masks, 0)
    if q > m or p > covered.bit_count():
        return (NOT_FOUND, None, None, 0)
    # vertices above the last covered one take no part, so per-vertex
    # tables need not run to it
    n = covered.bit_length()

    # covered's binary digits, lowest first, in one pass
    host_order = [v for v, digit in enumerate(bin(covered)[:1:-1]) if digit == "1"]
    # the hyperedges through each vertex as a bitmask; a pair's shared
    # edges are inc[a] & inc[b]
    inc = incidence(n, edge_masks, host_order)
    pinned_mask = edge_masks[pinned_he] if pinned_he >= 0 else 0
    pos_of = [-1] * p
    for i, pv in enumerate(order):
        pos_of[pv] = i
    # pattern edges become forced at the later-placed endpoint's position
    incident = [[] for _ in range(p)]
    for pe, (a, b) in enumerate(pat_edges):
        if pos_of[a] > pos_of[b]:
            incident[pos_of[a]].append((pe, b))
        else:
            incident[pos_of[b]].append((pe, a))
    # candidate v passes the used-vertex and twin filters when
    # used & guard == earlier twins, with guard = earlier twins | v.  Until
    # v is classified, its record reads no earlier twins and its guard also
    # has bit n set, so that it passes the used-vertex filter alone and is
    # then sent to be classified
    unclassified = 1 << n
    cands, inside, twins_through = _candidates(edge_masks, inc, pinned_mask, host_order,
                                               unclassified)
    pos_cands = [cands] * p
    if pinned_pe >= 0:
        # the pin rule: both endpoints of the pinned edge lie in its hyperedge
        for pv in pat_edges[pinned_pe]:
            pos_cands[pos_of[pv]] = inside

    images = [-1] * p
    match_of = [-1] * q
    owner = [-1] * m
    cand = [0] * q
    log = []  # (array_tag, index, old_value); tag 0 = match_of, 1 = owner
    used = 0
    nodes = 0
    pinned_bit = (1 << pinned_he) if pinned_he >= 0 else 0
    # the frame's vertex bit is 0 while no vertex is placed at its position;
    # position 0 has no placed neighbour
    stack = [(iter(pos_cands[0]), (), 0, 0)]
    while stack:
        remaining, rows, mark, vbit = stack[-1]
        if vbit:
            # back from the next position: take this position's vertex out
            _rollback(log, mark, match_of, owner)
            used ^= vbit
        for v, vbit, guard, earl in remaining:
            if used & guard != earl:
                continue
            if guard >= unclassified:
                earl = twins_through(v)
                if used & earl != earl:
                    continue
            nodes += 1
            if budget and nodes > budget:
                return (INDETERMINATE, None, None, nodes)
            iv = inc[v]
            for _, row in rows:
                if not row & iv:
                    break
            else:
                mark = len(log)
                for pe, row in rows:
                    cand[pe] = row = row & iv
                    j = (row & -row).bit_length() - 1
                    if owner[j] == -1:
                        # the lowest candidate is free: augment's first step
                        log.append((0, pe, match_of[pe]))
                        log.append((1, j, -1))
                        match_of[pe] = j
                        owner[j] = pe
                    elif not augment(pe, cand, match_of, owner, log):
                        break
                else:
                    pos = len(stack)
                    images[order[pos - 1]] = v
                    if pos == p:
                        return (FOUND, images, match_of, nodes)
                    used |= vbit
                    stack[-1] = (remaining, rows, mark, vbit)
                    # the hyperedges through each placed neighbour, fixed
                    # at the next position
                    rows = []
                    for pe, other in incident[pos]:
                        row = inc[images[other]]
                        if pe == pinned_pe:
                            row &= pinned_bit
                        rows.append((pe, row))
                    stack.append((iter(pos_cands[pos]), rows, 0, 0))
                    break
                _rollback(log, mark, match_of, owner)
        else:
            stack.pop()
    return (NOT_FOUND, None, None, nodes)


def _rollback(log, mark, match_of, owner):
    """Undo the matching changes logged since ``mark``."""
    while len(log) > mark:
        tag, idx, old = log.pop()
        if tag == 0:
            match_of[idx] = old
        else:
            owner[idx] = old
