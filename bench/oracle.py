"""Answer checks owned by the benchmark.

Nothing here imports ``bergeturan``.  Hosts are parsed from ``.hg`` text
with a reader of our own, patterns are rebuilt from their expressions, and
containment is decided *edge-first*: choose distinct hyperedges for the
pattern edges, then distinct defining vertices inside them.  The package's
kernel works vertex-first with an incremental matching, so the two agree
only when both are right.

Vertices are 1-based throughout, as in the ``.hg`` format.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb


# --- hosts and patterns ----------------------------------------------------


def parse_hg(text: str):
    """Return (r, n, edges) from ``.hg`` text; edges are ascending tuples."""
    lines = [ln for ln in text.split("\n")[:-1] if not ln.startswith("#")]
    r, n, m = (int(x) for x in lines[0].split())
    edges = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    if len(edges) != m or any(len(e) != r or len(set(e)) != r for e in edges):
        raise ValueError("malformed .hg text")
    if any(not 1 <= v <= n for e in edges for v in e):
        raise ValueError("vertex out of range")
    return r, n, edges


def format_hg(r: int, n: int, edges) -> str:
    """Canonical ``.hg`` text: sorted edges of ascending labels."""
    rows = sorted(tuple(sorted(e)) for e in edges)
    return "".join([f"{r} {n} {len(rows)}\n"] + [" ".join(map(str, e)) + "\n" for e in rows])


_TERM = re.compile(r"\s*(\d*)\s*([PCSM])\s*(\d+)\s*")


def pattern_edges(expr: str):
    """Return (p, edges) for a pattern expression.

    Labels follow the documented certificate convention: a path P_l is
    1-2-...-(l+1), a cycle C_l adds (1, l), a star S_l joins centre 1 to
    2..l+1, a matching M_k pairs (2i-1, 2i), and kP_l and '+' place their
    parts side by side with consecutive labels.
    """
    parts = []
    for term in expr.split("+"):
        match = _TERM.fullmatch(term)
        if match is None:
            raise ValueError(f"bad pattern term {term!r}")
        mult, letter, value = int(match.group(1) or 1), match.group(2), int(match.group(3))
        if letter == "P":
            one = (value + 1, [(i, i + 1) for i in range(1, value + 1)])
        elif letter == "C":
            one = (value, [(i, i + 1) for i in range(1, value)] + [(1, value)])
        elif letter == "S":
            one = (value + 1, [(1, i) for i in range(2, value + 2)])
        else:
            one = (2 * value, [(2 * i - 1, 2 * i) for i in range(1, value + 1)])
        parts.extend([one] * mult)
    p, edges = 0, []
    for size, part in parts:
        edges.extend((a + p, b + p) for a, b in part)
        p += size
    return p, edges


# --- certificates -----------------------------------------------------------


def certificate_error(edges, expr, defining_vertices, triples):
    """Why a certificate fails to witness ``expr`` in the host, or None.

    ``triples`` are ``[u, v, h]``: pattern edge (u, v) sits in host edge h
    (0-based).  The triples must cover the pattern's edges exactly once.
    """
    p, pat = pattern_edges(expr)
    dv = list(defining_vertices)
    if len(dv) != p or len(set(dv)) != p:
        return "defining vertices are not an injective map of the pattern"
    want = sorted(tuple(sorted(e)) for e in pat)
    got = sorted(tuple(sorted((u, v))) for u, v, _ in triples)
    if want != got:
        return "edge assignment does not cover the pattern's edges"
    hs = [h for _, _, h in triples]
    if len(set(hs)) != len(hs):
        return "two pattern edges share a hyperedge"
    for u, v, h in triples:
        if not 0 <= h < len(edges):
            return f"hyperedge index {h} out of range"
        if dv[u - 1] not in edges[h] or dv[v - 1] not in edges[h]:
            return f"hyperedge {h} misses an endpoint of pattern edge ({u}, {v})"
    return None


def triples_of(expr, edge_assignment):
    """Triples for an assignment listed in the pattern's edge order."""
    _, pat = pattern_edges(expr)
    return [[u, v, h] for (u, v), h in zip(pat, edge_assignment)]


# --- containment --------------------------------------------------------------


def _edge_order(pat):
    """Pattern edges reordered so each one meets an earlier one when it can."""
    left = list(pat)
    order = [left.pop(0)]
    seen = set(order[0])
    while left:
        k = next((i for i, (a, b) in enumerate(left) if a in seen or b in seen), 0)
        a, b = left.pop(k)
        order.append((a, b))
        seen.update((a, b))
    return order


def _distinct_reps(cands):
    """Can every pattern vertex get its own host vertex from its mask?"""
    items = sorted(cands, key=lambda c: bin(c).count("1"))

    def rec(i, used):
        if i == len(items):
            return True
        rest = items[i] & ~used
        while rest:
            low = rest & -rest
            if rec(i + 1, used | low):
                return True
            rest ^= low
        return False

    return rec(0, 0)


def contains(edges, expr, fixed=None):
    """Is there a Berge copy of ``expr`` in the host?

    ``fixed`` maps pattern vertices to the host vertex they must take.
    Enumerates injective maps of pattern edges to hyperedges, keeping per
    pattern vertex the mask of host vertices common to its hyperedges so
    far, and finishes with a distinct-representatives check.
    """
    p, pat = pattern_edges(expr)
    if len(pat) > len(edges):
        return False
    masks = [sum(1 << v for v in e) for e in edges]
    everything = 0
    for mk in masks:
        everything |= mk
    cand = [everything] * (p + 1)
    for pv, hv in (fixed or {}).items():
        cand[pv] = cand[pv] & (1 << hv)
    order = _edge_order(pat)
    m = len(masks)

    def rec(i, used):
        if i == len(order):
            return _distinct_reps(cand[1:])
        a, b = order[i]
        ca, cb = cand[a], cand[b]
        for j in range(m):
            if used >> j & 1:
                continue
            na, nb = ca & masks[j], cb & masks[j]
            if not na or not nb or (na == nb and na & (na - 1) == 0):
                continue
            cand[a], cand[b] = na, nb
            if rec(i + 1, used | (1 << j)):
                cand[a], cand[b] = ca, cb
                return True
            cand[a], cand[b] = ca, cb
        return False

    return rec(0, 0)


def has_berge_path(edges, length):
    """Is there a Berge path with ``length`` edges?  Walks vertex, hyperedge,
    vertex, ... with no vertex or hyperedge repeated."""
    inc = {}
    for j, e in enumerate(edges):
        for v in e:
            inc.setdefault(v, []).append(j)

    def walk(v, k, used_v, used_e):
        if k == length:
            return True
        for j in inc[v]:
            if used_e >> j & 1:
                continue
            for w in edges[j]:
                if not used_v >> w & 1 and walk(w, k + 1, used_v | (1 << w), used_e | (1 << j)):
                    return True
        return False

    return any(walk(v, 0, 1 << v, 0) for v in sorted(inc))


def common_neighbours(n, edges, base):
    """Vertices u outside ``base`` such that every pair v1, v2 of ``base``
    has distinct hyperedges E1 and E2 with {v1, u} in E1 and {v2, u} in E2."""
    base = sorted(set(base))
    out = []
    for u in range(1, n + 1):
        if u in base:
            continue
        ok = True
        for v1, v2 in combinations(base, 2):
            ok = any(
                i != j and u in e1 and v1 in e1 and u in e2 and v2 in e2
                for i, e1 in enumerate(edges) for j, e2 in enumerate(edges)
            )
            if not ok:
                break
        if ok:
            out.append(u)
    return out


def good_order_error(edges, first, ordering):
    """Why ``ordering`` is not a good order of the covered vertices, or None."""
    covered = sorted({v for e in edges for v in e})
    if sorted(ordering) != covered:
        return "ordering is not a permutation of the covered vertices"
    if ordering[0] != first:
        return "ordering does not start at the requested vertex"
    for a, b in zip(ordering, ordering[1:]):
        if not any(i != j and a in e1 and b in e2
                   for i, e1 in enumerate(edges) for j, e2 in enumerate(edges)):
            return f"consecutive pair ({a}, {b}) is not good"
    return None


def star_exists(edges, centre, size):
    """Berge star of ``size`` edges with the given centre."""
    return contains(edges, f"S{size}", fixed={1: centre})


# --- Turan numbers and constructions --------------------------------------------


def connected_spanning(n, chosen):
    """Do the edges cover 1..n and form one connected component?"""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    covered = set()
    for e in chosen:
        covered.update(e)
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    return len(covered) == n and len({find(v) for v in range(1, n + 1)}) == 1


def turan_by_subsets(n, r, expr, connected=False):
    """ex_r(n, Berge-expr) over every subset of the C(n, r) candidate edges.

    A Berge copy uses exactly q = |E(F)| hyperedges, so the q-subsets that
    host a copy are found first; a set is free when it holds none of them.
    Freeness is closed under taking subsets, so every free set is reached
    by adding candidates in increasing order to a smaller free set.
    """
    _, pat = pattern_edges(expr)
    q = len(pat)
    cands = list(combinations(range(1, n + 1), r))
    hosting = {
        sum(1 << j for j in combo)
        for combo in combinations(range(len(cands)), q)
        if contains([cands[j] for j in combo], expr)
    }
    best = -1
    chosen = []  # candidate indices, increasing

    def visit(start):
        nonlocal best
        if len(chosen) > best and (
            not connected or connected_spanning(n, [cands[j] for j in chosen])
        ):
            best = len(chosen)
        bits = [1 << j for j in chosen]
        for j in range(start, len(cands)):
            bit = 1 << j
            if len(bits) >= q - 1 and any(
                sum(sub) | bit in hosting for sub in combinations(bits, q - 1)
            ):
                continue
            chosen.append(j)
            visit(j + 1)
            chosen.pop()

    visit(0)
    return best


def construction_edges(n, r, ell, k):
    """The paper's extremal host: core A = {1..a} with a = k*floor((ell+1)/2)-1,
    every r-set inside A, every r-set meeting B = {a+1..n} in one vertex, and
    for even ell every r-set meeting B exactly in its two smallest vertices."""
    a = k * ((ell + 1) // 2) - 1
    core = range(1, a + 1)
    outer = range(a + 1, n + 1)
    edges = list(combinations(core, r))
    edges += [c + (b,) for c in combinations(core, r - 1) for b in outer]
    if ell % 2 == 0:
        edges += [c + (a + 1, a + 2) for c in combinations(core, r - 2)]
    return sorted(tuple(sorted(e)) for e in edges)


def construction_count(n, r, ell, k):
    """Closed-form edge count of the extremal host (the paper's formula)."""
    a = k * ((ell + 1) // 2) - 1
    return comb(a, r - 1) * (n - a) + comb(a, r) + (comb(a, r - 2) if ell % 2 == 0 else 0)
