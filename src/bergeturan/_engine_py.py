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
  matching, scanning candidate hyperedges in ascending index order;
* ``pinned`` (pattern-edge index, host-edge index) restricts that pattern
  edge's representative to exactly that hyperedge, and the positions of
  its two endpoints draw candidates only from the pinned hyperedge (the
  pin rule below);
* the first embedding reached in this order is returned.

Twin rule.  Host vertices u and v are twins when swapping them maps the
set of hyperedges onto itself and, when a hyperedge is pinned, u and v are
both inside it or both outside it (the swap then lies in the pinned edge's
stabiliser).  The transpositions that are automorphisms of a structure
form an equivalence relation, so twins fall into classes, computed once
per call.  At every position the search skips candidate v while a twin u
< v is unused.  This is exact: an embedding that extends the current
placement with v maps under the swap of u and v to one that extends the
same placement with u, because neither vertex is used yet, the swap fixes
every earlier image and the pinned hyperedge, and it carries hyperedges to
hyperedges.  So v's subtree holds an embedding only if u's does, and u's
subtree is searched first.  Every status and the first embedding (images
and assignment) are those of the search without the rule; only node
counts fall.  Twins are looked for among covered vertices of equal degree
and equal pinned-edge membership; a host whose edge list repeats an edge
gets no twins.

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

An exhaustive search (budget 0, NOT_FOUND) expands, at every reachable
placement, one unused vertex of each twin class whatever the candidate
order, and the swap carries the subtrees of the others onto its subtree,
so its node count depends only on the host's edge sets and the pattern
plan, not on the vertex labels.

Vertices and indices are 0-based here; wrappers translate.
"""

NOT_FOUND = 0
FOUND = 1
INDETERMINATE = 2


class _BudgetHit(Exception):
    pass


def _earlier_twins(edge_masks, inc, host_order, pinned_mask):
    """Per vertex, the bitmask of its twins with smaller labels."""
    buckets = {}
    for v in host_order:
        key = inc[v].bit_count() << 1 | pinned_mask >> v & 1
        if key in buckets:
            buckets[key].append(v)
        else:
            buckets[key] = [v]
    earlier = [0] * len(inc)
    edge_set = None
    for members in buckets.values():
        if len(members) < 2:
            continue
        if edge_set is None:
            edge_set = set(edge_masks)
            if len(edge_set) < len(edge_masks):
                return earlier
        classes = []  # [representative's bit, its edges, bitmask of members so far]
        for v in members:
            vbit = 1 << v
            for cls in classes:
                if cls[1] is None:
                    cls[1] = [em for em in edge_masks if em & cls[0]]
                # equal degrees, so the swap maps u's edges missing v onto
                # v's edges missing u once each image is an edge
                swap = vbit | cls[0]
                for em in cls[1]:
                    if not em & vbit and em ^ swap not in edge_set:
                        break
                else:
                    earlier[v] = cls[2]
                    cls[2] |= vbit
                    break
            else:
                classes.append([vbit, None, vbit])
    return earlier


def solve(n, edge_masks, pat_edges, order, budget=0, pinned_pe=-1, pinned_he=-1):
    """Run the embedding search.

    Returns (status, images, assignment, nodes) where images maps pattern
    vertex -> host vertex and assignment maps pattern edge index -> host
    edge index (both None unless status == FOUND).
    """
    m = len(edge_masks)
    # pattern vertices are never isolated, so the plan lists all of them
    p = len(order)
    q = len(pat_edges)
    covered = 0
    for em in edge_masks:
        covered |= em
    if q > m or p > covered.bit_count():
        return (NOT_FOUND, None, None, 0)

    # one pass over the edges: the hyperedges through each vertex as a
    # bitmask; a pair's shared edges are inc[a] & inc[b]
    inc = [0] * n
    for j, em in enumerate(edge_masks):
        bit = 1 << j
        while em:
            low = em & -em
            inc[low.bit_length() - 1] |= bit
            em ^= low
    host_order = [v for v in range(n) if covered >> v & 1]
    pinned_mask = edge_masks[pinned_he] if pinned_he >= 0 else 0
    earlier = _earlier_twins(edge_masks, inc, host_order, pinned_mask)
    # candidate v passes the used-vertex and twin filters when
    # used & (earlier twins | v) == earlier twins
    cands = [(v, 1 << v, earlier[v] | 1 << v, earlier[v]) for v in host_order]
    pos_cands = [cands] * p

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
    if pinned_pe >= 0:
        # the pin rule: both endpoints of the pinned edge lie in its hyperedge
        inside = [c for c in cands if pinned_mask >> c[0] & 1]
        for pv in pat_edges[pinned_pe]:
            pos_cands[pos_of[pv]] = inside

    images = [-1] * p
    match_of = [-1] * q
    owner = [-1] * m
    cand = [0] * q
    log = []  # (array_tag, index, old_value); tag 0 = match_of, 1 = owner
    used = 0
    nodes = 0
    visited = 0
    pinned_bit = (1 << pinned_he) if pinned_he >= 0 else 0

    def augment(pe):
        nonlocal visited
        remaining = cand[pe]
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            if visited & low:
                continue
            visited |= low
            j = low.bit_length() - 1
            if owner[j] == -1 or augment(owner[j]):
                log.append((0, pe, match_of[pe]))
                log.append((1, j, owner[j]))
                match_of[pe] = j
                owner[j] = pe
                return True
        return False

    def rollback(mark):
        while len(log) > mark:
            tag, idx, old = log.pop()
            if tag == 0:
                match_of[idx] = old
            else:
                owner[idx] = old

    def dfs(pos):
        nonlocal used, nodes, visited
        if pos == p:
            return True
        pv = order[pos]
        # the hyperedges through each placed neighbour, fixed at this position
        rows = []
        for pe, other in incident[pos]:
            row = inc[images[other]]
            if pe == pinned_pe:
                row &= pinned_bit
            rows.append((pe, row))
        for v, vbit, guard, earl in pos_cands[pos]:
            if used & guard != earl:
                continue
            nodes += 1
            if budget and nodes > budget:
                raise _BudgetHit
            iv = inc[v]
            for _, row in rows:
                if not row & iv:
                    break
            else:
                images[pv] = v
                used |= vbit
                mark = len(log)
                for pe, row in rows:
                    cand[pe] = row & iv
                    visited = 0
                    if not augment(pe):
                        break
                else:
                    if dfs(pos + 1):
                        return True
                rollback(mark)
                images[pv] = -1
                used ^= vbit
        return False

    try:
        found = dfs(0)
    except _BudgetHit:
        return (INDETERMINATE, None, None, nodes)
    if found:
        return (FOUND, list(images), list(match_of), nodes)
    return (NOT_FOUND, None, None, nodes)
