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
* a "node" is one vertex-assignment attempt: each host candidate examined
  at a position after the used-vertex filter, which is the only filter;
* once both endpoints of a pattern edge are placed, the edge must admit a
  system of distinct representative hyperedges jointly with all other such
  edges; feasibility is maintained with an incremental augmenting-path
  matching, scanning candidate hyperedges in ascending index order;
* ``pinned`` (pattern-edge index, host-edge index) restricts that pattern
  edge's representative to exactly that hyperedge;
* the first embedding reached in this order is returned.

An exhaustive search (budget 0, NOT_FOUND) expands every feasible partial
placement whatever the candidate order, so its node count depends only on
the host's edge sets and the pattern plan, not on the vertex labels.

Vertices and indices are 0-based here; wrappers translate.
"""

NOT_FOUND = 0
FOUND = 1
INDETERMINATE = 2


class _BudgetHit(Exception):
    pass


def solve(n, edge_masks, pat_edges, order, budget=0, pinned_pe=-1, pinned_he=-1):
    """Run the embedding search.

    Returns (status, images, assignment, nodes) where images maps pattern
    vertex -> host vertex and assignment maps pattern edge index -> host
    edge index (both None unless status == FOUND).
    """
    m = len(edge_masks)
    p = max((max(a, b) for a, b in pat_edges), default=-1) + 1
    q = len(pat_edges)
    covered = 0
    for em in edge_masks:
        covered |= em
    if q > m or p > covered.bit_count():
        return (NOT_FOUND, None, None, 0)
    host_order = [v for v in range(n) if covered >> v & 1]

    pair_mask = [[0] * n for _ in range(n)]
    for j, em in enumerate(edge_masks):
        bit = 1 << j
        vs = []
        t = em
        while t:
            v = (t & -t).bit_length() - 1
            vs.append(v)
            t &= t - 1
        for x in range(len(vs)):
            for y in range(x + 1, len(vs)):
                pair_mask[vs[x]][vs[y]] |= bit
                pair_mask[vs[y]][vs[x]] |= bit

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

    images = [-1] * p
    match_of = [-1] * q
    owner = [-1] * m
    cand = [0] * q
    log = []  # (array_tag, index, old_value); tag 0 = match_of, 1 = owner
    state = {"used": 0, "nodes": 0, "visited": 0}
    pinned_bit = (1 << pinned_he) if pinned_he >= 0 else 0

    def augment(pe):
        remaining = cand[pe]
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            if state["visited"] & low:
                continue
            state["visited"] |= low
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
        if pos == p:
            return True
        pv = order[pos]
        inc = incident[pos]
        for v in host_order:
            vbit = 1 << v
            if state["used"] & vbit:
                continue
            state["nodes"] += 1
            if budget and state["nodes"] > budget:
                raise _BudgetHit
            feasible = True
            for pe, other in inc:
                pm = pair_mask[images[other]][v]
                if pe == pinned_pe:
                    pm &= pinned_bit
                if pm == 0:
                    feasible = False
                    break
            if not feasible:
                continue
            images[pv] = v
            state["used"] |= vbit
            mark = len(log)
            ok = True
            for pe, other in inc:
                pm = pair_mask[images[other]][v]
                if pe == pinned_pe:
                    pm &= pinned_bit
                cand[pe] = pm
                state["visited"] = 0
                if not augment(pe):
                    ok = False
                    break
            if ok and dfs(pos + 1):
                return True
            rollback(mark)
            images[pv] = -1
            state["used"] &= ~vbit
        return False

    try:
        found = dfs(0)
    except _BudgetHit:
        return (INDETERMINATE, None, None, state["nodes"])
    if found:
        return (FOUND, list(images), list(match_of), state["nodes"])
    return (NOT_FOUND, None, None, state["nodes"])
