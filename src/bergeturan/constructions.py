"""Extremal constructions with exact edge-class accounting.

The main construction splits the vertices into a core A of size k*ell'-1
(ell' = floor((ell+1)/2)) and the remaining outer set B, and takes every
r-set inside A (class 1), every r-set meeting B in exactly one vertex
(class 2), and, when ell is even, every r-set meeting B in exactly the two
fixed special vertices u, v (class 3).  Its edge count is

    C(k*ell'-1, r-1)*(n-k*ell'+1) + C(k*ell'-1, r) + [ell even]*C(k*ell'-1, r-2)

and it contains no k vertex-disjoint Berge paths of length ell.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

from .core import FormulaParams, Hypergraph, Record
from .errors import BlockTooSmall, DoesNotDivide, FormatError, ParamsOutOfRange

EDGE_CLASSES = ("inside_core", "one_outer", "special_pair")


class ConstructionLayout(Record):
    """Vertex split and per-class edge counts of the core construction."""

    core_A: tuple[int, ...]
    outer_B: tuple[int, ...]
    special_pair: tuple[int, int] | None
    edge_classes: dict[str, int]
    theorem_hypothesis_holds: bool
    k1_extrapolation: bool

    def to_json_dict(self) -> dict:
        return {
            "A": list(self.core_A),
            "B": list(self.outer_B),
            "special_pair": list(self.special_pair) if self.special_pair else None,
            "class_counts": dict(self.edge_classes),
            "theorem_hypothesis_holds": self.theorem_hypothesis_holds,
            "k1_extrapolation": self.k1_extrapolation,
        }

    @staticmethod
    def from_json(text: str) -> "ConstructionLayout":
        """Parse the JSON of a :meth:`to_json_dict` document.  Raises
        FormatError for any malformed document: bad JSON, not an object, a
        missing or mistyped field, a vertex that is not an integer, a
        special pair that is not a pair, or an edge class without an
        integer count."""
        try:
            doc = json.loads(text)
            layout = ConstructionLayout(
                core_A=tuple(doc["A"]),
                outer_B=tuple(doc["B"]),
                special_pair=tuple(doc["special_pair"]) if doc.get("special_pair") else None,
                edge_classes=dict(doc["class_counts"]),
                theorem_hypothesis_holds=bool(doc.get("theorem_hypothesis_holds", False)),
                k1_extrapolation=bool(doc.get("k1_extrapolation", False)),
            )
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed layout: {exc!r}", 1) from exc
        pair = layout.special_pair or ()
        if not all(type(v) is int for v in layout.core_A + layout.outer_B + pair):
            raise FormatError("A, B and special_pair must hold integers", 1)
        if pair and len(pair) != 2:
            raise FormatError("special_pair must hold two vertices", 1)
        if not all(type(layout.edge_classes.get(name)) is int for name in EDGE_CLASSES):
            raise FormatError(f"class_counts must give an integer for each of {EDGE_CLASSES}", 1)
        return layout


class AuditReport(Record):
    class_results: dict[str, tuple[int, int, bool]]  # name -> (expected, recounted, ok)
    unexpected_edges: int
    passed: bool


def extremal_construction(p: FormulaParams) -> tuple[Hypergraph, ConstructionLayout]:
    """Build the core construction for (n, r, ell, k).

    A = {1 .. k*ell'-1}, B = {k*ell' .. n}; when ell is even the special
    pair is the two smallest B vertices.  Requires k*ell'-1 >= r-1 and
    n >= k*ell'-1+r; the theorem-range hypotheses
    (:attr:`FormulaParams.hypothesis_failures`) are reported, not enforced,
    and k = 1 is an explicitly flagged extrapolation.
    """
    a_size = p.core_size
    if a_size < p.r - 1:
        raise ParamsOutOfRange(f"core size {a_size} below r-1={p.r - 1}")
    if p.n < a_size + p.r:
        raise ParamsOutOfRange(f"need n >= {a_size + p.r} to reach outer vertices, got {p.n}")
    core = tuple(range(1, a_size + 1))
    outer = tuple(range(a_size + 1, p.n + 1))
    even = p.parity_indicator == 1
    if even and len(outer) < 2:
        raise ParamsOutOfRange("even path length needs at least two outer vertices")
    inside = [c for c in combinations(core, p.r)]
    one_out = [c + (b,) for c in combinations(core, p.r - 1) for b in outer]
    special = None
    two_out = []
    if even:
        special = (outer[0], outer[1])
        two_out = [c + special for c in combinations(core, p.r - 2)]
    edges = sorted(inside + one_out + two_out)
    h = Hypergraph(n=p.n, r=p.r, edges=tuple(edges))
    layout = ConstructionLayout(
        core_A=core,
        outer_B=outer,
        special_pair=special,
        edge_classes={
            "inside_core": len(inside),
            "one_outer": len(one_out),
            "special_pair": len(two_out),
        },
        theorem_hypothesis_holds=not p.hypothesis_failures,
        k1_extrapolation=p.k == 1,
    )
    return h, layout


def block_construction(n: int, block: int, r: int) -> Hypergraph:
    """Disjoint union of n/block complete r-graphs on `block` vertices each.

    Contains no Berge path with `block` edges: such a path needs block+1
    defining vertices inside one component.  Raises ParamsOutOfRange for
    r < 2 or n < r, as ``make_hypergraph`` does, before the block checks.
    """
    if r < 2 or n < r:
        raise ParamsOutOfRange(f"need 2 <= r <= n, got r={r}, n={n}")
    if block < r:
        raise BlockTooSmall(f"block size {block} below uniformity {r}")
    if n % block != 0:
        raise DoesNotDivide(f"{block} does not divide {n}")
    edges = []
    for start in range(1, n + 1, block):
        edges.extend(combinations(range(start, start + block), r))
    return Hypergraph(n=n, r=r, edges=tuple(sorted(edges)))


def construction_audit(h: Hypergraph, layout: ConstructionLayout) -> AuditReport:
    """Recount the construction's edge classes from scratch.

    Classifies every edge by its intersection with the outer set and
    compares against both the layout's recorded counts and the closed-form
    class sizes.
    """
    a_size = len(layout.core_A)
    outer = set(layout.outer_B)
    special = set(layout.special_pair) if layout.special_pair else None
    counts = dict.fromkeys(EDGE_CLASSES, 0)
    unexpected = 0
    for e in h.edges:
        meet = outer.intersection(e)
        if not meet:
            counts["inside_core"] += 1
        elif len(meet) == 1:
            counts["one_outer"] += 1
        elif special is not None and meet == special:
            counts["special_pair"] += 1
        else:
            unexpected += 1
    expected = {
        "inside_core": comb(a_size, h.r),
        "one_outer": comb(a_size, h.r - 1) * len(layout.outer_B),
        "special_pair": comb(a_size, h.r - 2) if special else 0,
    }
    results = {
        name: (expected[name], counts[name], expected[name] == counts[name] == layout.edge_classes[name])
        for name in counts
    }
    passed = unexpected == 0 and all(ok for _, _, ok in results.values())
    return AuditReport(class_results=results, unexpected_edges=unexpected, passed=passed)
