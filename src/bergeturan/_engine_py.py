"""Pure-Python Berge-embedding kernel.

Searches a host r-graph for an injective placement of a pattern graph's
vertices together with a bijection from pattern edges onto distinct
hyperedges, each hyperedge containing the images of its pattern edge's
endpoints.

Deterministic contract:

* pattern vertices are assigned in the caller-supplied ``order``;
* host candidates are the covered vertices (those in some hyperedge of
  the host, a ``symmetry.HostView``), tried in ascending order; no
  pattern vertex can map to an isolated vertex, and a host with fewer
  covered vertices than the pattern has vertices (or fewer hyperedges
  than it has edges) is refuted after 0 nodes;
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

Twin rule.  Twins, and why they form classes, are defined in
:mod:`bergeturan.symmetry`.  Skipping candidate v while a twin u < v is
unused is exact: an embedding that extends the current placement with v
maps under the swap of u and v to one that extends the same placement
with u, because neither vertex is used yet, the swap fixes every earlier
image and the pinned hyperedge, and it carries hyperedges to hyperedges.
So v's subtree holds an embedding only if u's does, and u's subtree is
searched first.  Every status and the first embedding (images and
assignment) are those of the search without the rule; only node counts
fall.  A candidate is classified lazily (``symmetry._candidates``),
before it counts as a node, and only when it passes the used-vertex
filter while some smaller member of its group (same degree, same
pinned-edge membership) is unused.  Twins share both, so a candidate's
earlier twins are among those smaller members: when all of them are
used, no twin can skip it, and it passes as classifying it would let it
pass.  Groups are classified in ascending order, so every class and every
node count is that of classifying every vertex first.  Set-up is one call
to ``symmetry._candidates``, after the edge-count refutation, which
builds no table, and before the covered-vertex one: it builds the
candidate records from the view's tables (``symmetry.incidence``, built
once per view, converting a mask only when it is first read).

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

from .symmetry import _candidates

NOT_FOUND = 0
FOUND = 1
INDETERMINATE = 2


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


def solve(host, pat_edges, order, budget=0, pinned_pe=-1, pinned_he=-1):
    """Run the embedding search in ``host``, a ``symmetry.HostView``.

    Returns (status, images, assignment, nodes) where images maps pattern
    vertex -> host vertex and assignment maps pattern edge index -> host
    edge index (both None unless status == FOUND).
    """
    m = len(host.masks)
    # pattern vertices are never isolated, so the plan lists all of them
    p = len(order)
    q = len(pat_edges)
    if q > m:
        return (NOT_FOUND, None, None, 0)
    pinned_mask = host.masks[pinned_he] if pinned_he >= 0 else 0
    # inc[v] is the hyperedges through vertex v as a bitmask, so a pair's
    # shared edges are inc[a] & inc[b], and cands holds a record per
    # covered vertex.  Candidate v passes the used-vertex and twin filters
    # when used & guard == earlier twins, with guard = earlier twins | v;
    # an unclassified record also has bit unclassified in its guard, so
    # that it passes the used-vertex filter alone and is then classified
    # if some smaller member of its group, smaller[v], is unused
    inc, unclassified, cands, inside, smaller, twins_through = _candidates(host, pinned_mask)
    if p > len(cands):
        return (NOT_FOUND, None, None, 0)
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
                # v's earlier twins are among its smaller group-mates, so
                # only an unused one of those can skip it
                mates = smaller[v]
                if used & mates != mates:
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
