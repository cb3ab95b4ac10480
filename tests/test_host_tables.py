"""The host view that carries a host to the kernel: the transpose of a
large host's label columns gives the tables that the packing of its edge
masks gives, it runs where it should and nowhere else, and a view builds
its tables once, and not at all for a call refuted by edge count."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bergeturan import _engine_py, berge, core, symmetry
from bergeturan.berge import _host_prep, find_berge_embedding, longest_berge_path, solve_raw
from bergeturan.constructions import construction_audit, extremal_construction
from bergeturan.symmetry import HostView
from bergeturan.core import (
    FormulaParams,
    make_hypergraph,
    parse_pattern,
    path_pattern,
    read_hypergraph,
    write_hypergraph,
)

PROPERTY = settings(max_examples=120, derandomize=True, database=None, deadline=None)
CUT = core._LARGE_HOST_EDGES
SRC = Path(__file__).resolve().parents[1] / "src"


def _naive_masks(edges):
    return [sum(1 << (v - 1) for v in e) for e in edges]


def _tables(view):
    """The covered vertices, every covered vertex's row and the degrees
    of a host view's tables."""
    vertices, rows, degree = view.tables
    return vertices, [rows[v] for v in vertices], degree


@st.composite
def label_hosts(draw):
    """(n, r, edges, text): m random r-sets of labels in 1..n, with the
    lowest or highest label perhaps left uncovered and edges perhaps
    repeated, and the .hg text of them, perhaps unsorted and perhaps with a
    label written with a leading zero."""
    n = draw(st.sampled_from([8, 63, 64, 65]))
    m = draw(st.sampled_from([CUT - 1, CUT]))
    r = draw(st.integers(2, 5))
    low = 2 if draw(st.booleans()) else 1
    high = n - 1 if draw(st.booleans()) else n
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = range(low, high + 1)
    # the ends of the pool are covered
    edges = [tuple(sorted([low, *rng.sample(pool[1:], r - 1)]))]
    edges += [tuple(sorted(rng.sample(pool, r))) for _ in range(m - 2)]
    edges.append(tuple(sorted([*rng.sample(pool[:-1], r - 1), high])))
    if draw(st.booleans()):
        edges.sort()
    lines = [" ".join(map(str, e)) for e in edges]
    if draw(st.booleans()):
        at = rng.randrange(m)
        lines[at] = "0" + lines[at]
    text = f"{r} {n} {m}\n" + "".join(line + "\n" for line in lines)
    return n, r, edges, text


@PROPERTY
@given(label_hosts())
def test_transpose_gives_the_tables_of_the_packing(host):
    n, r, edges, text = host
    # the transpose of the label columns, against the packing of the masks
    kept = symmetry.label_masks(list(zip(*edges)))
    naive = _naive_masks(edges)
    if max(map(max, edges)) > 64:
        assert kept is None
    else:
        assert kept.masks == naive
        assert _tables(kept) == _tables(HostView(naive))
        assert kept.tables is kept.tables
    # and through the host the text reads to, whichever route it takes
    h = read_hypergraph(text)
    naive = _naive_masks(h.edges)
    large = h.m >= CUT and max(map(max, h.edges)) <= 64
    # the reader leaves its label columns only where the edges kept their order
    assert ("_label_columns" in vars(h)) == (h.m >= CUT and list(h.edges) == edges)
    columns = vars(h).get("_label_columns")
    view = _host_prep(h)
    assert view.masks == naive and h.edge_vertex_masks() == naive
    assert (view._tables is not None) == large
    assert vars(h).get("_label_columns") is columns
    assert _tables(view) == _tables(HostView(naive))
    # a later call takes the same columns, and builds a view afresh
    again = _host_prep(h)
    assert again.masks == naive and again is not view
    assert _tables(again) == _tables(HostView(naive))
    covered = sorted(set().union(*h.edges))
    assert h.covered_vertices() == tuple(covered)
    expected = {v: sum(1 << j for j, e in enumerate(h.edges) if v in e) for v in covered}
    assert berge._vertex_rows(h) == expected


# the six constructions of the ``queries`` benchmark's large jobs, 7,084 to
# 14,157 edges, as (n, r, ell, k)
LARGE_CONSTRUCTIONS = [(44, 3, 15, 3), (52, 4, 11, 2), (60, 3, 13, 3), (40, 4, 9, 3),
                       (64, 3, 15, 3), (60, 4, 13, 2)]


def test_large_constructions_answer_alike_from_text_and_from_make_hypergraph():
    # the tables of a host read from text (the reader's label columns) and
    # of one built by make_hypergraph (columns from its edges) give
    # the kernel answers, certificates and node counts of the plain masks
    rng = random.Random(5)
    digests = {"text": hashlib.sha256(), "make": hashlib.sha256(), "plain": hashlib.sha256()}
    for params in LARGE_CONSTRUCTIONS:
        g, _ = extremal_construction(FormulaParams(*params))
        labels = list(range(1, g.n + 1))
        rng.shuffle(labels)
        made = make_hypergraph(g.r, g.n, [[labels[v - 1] for v in e] for e in g.edges])
        read = read_hypergraph(write_hypergraph(made))
        assert read == made and "_label_columns" in vars(read)
        for expr in ("P3", "2P2", "C4"):
            pattern = parse_pattern(expr)
            pins = (None, (rng.randrange(pattern.num_edges), rng.randrange(made.m)))
            for pinned in pins:
                for route, masks in (("text", _host_prep(read)), ("make", _host_prep(made)),
                                     ("plain", HostView(made.edge_vertex_masks()))):
                    out = solve_raw(masks, pattern, pinned=pinned)
                    digests[route].update(repr(out).encode() + b"\n")
        assert _host_prep(read)._tables is not None and _host_prep(made)._tables is not None
    assert digests["text"].hexdigest() == digests["make"].hexdigest() \
        == digests["plain"].hexdigest()


_SMALL_ROUTE_PROBE = """
import sys
import bergeturan
from bergeturan.cli import main
from bergeturan import symmetry
assert symmetry._LANE == []
path = sys.argv[1]
codes = [main(["check", path, "-F", "P2"]), main(["check", path, "-F", "2P4", "--budget", "0"]),
         main(["longest-path", path]), main(["turan", "-n", "6", "-r", "3", "-F", "P2"])]
print(codes, symmetry._LANE == [])
"""


def test_small_hosts_and_start_up_build_no_lane_tables(tmp_path):
    # importing the package and answering on hosts below the cut (the
    # ``proofs`` hosts have 13-34 edges, a ``turan`` complete host at most
    # 56) never reach the transpose, which builds its lane tables first
    host = tmp_path / "h.hg"
    g, _ = extremal_construction(FormulaParams(n=13, r=3, ell=4, k=2))
    assert g.m < CUT
    host.write_text(write_hypergraph(g))
    proc = subprocess.run([sys.executable, "-B", "-c", _SMALL_ROUTE_PROBE, str(host)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[1, 0, 0, 0] True"


def test_large_found_query_runs_no_packing_of_the_masks(monkeypatch):
    # a FOUND query on a large host read from text takes its tables from
    # the transpose: no OR over the edge masks and no re-pack of them into
    # words, which is how incidence builds tables from plain masks
    made = []

    def no_reduce(*args):
        raise AssertionError("OR-reduce of edge masks")

    def recording_array(code, *initializer):
        made.append([type(arg).__name__ for arg in initializer])
        return real_array(code, *initializer)

    real_array = symmetry.array
    monkeypatch.setattr(symmetry, "reduce", no_reduce)
    monkeypatch.setattr(symmetry, "array", recording_array)
    g, _ = extremal_construction(FormulaParams(n=60, r=4, ell=13, k=2))
    h = read_hypergraph(write_hypergraph(g))
    assert h.m == 14157
    for expr in ("P3", "2P2", "C4"):
        res = find_berge_embedding(h, parse_pattern(expr))
        assert res.found
    # one transpose per query, each packing its lanes from a bytearray
    assert made == [["bytearray"]] * 3


def test_reading_without_querying_builds_no_tables(monkeypatch):
    # the ``roundtrip`` jobs: build, write, read back, compare and audit
    def no_transpose(columns):
        raise AssertionError("tables built by a read")

    monkeypatch.setattr(berge, "label_masks", no_transpose)
    h, layout = extremal_construction(FormulaParams(n=40, r=3, ell=11, k=2))
    assert h.m >= CUT
    back = read_hypergraph(write_hypergraph(h))
    assert back == h and hash(back) == hash(h) and repr(back) == repr(h)
    assert construction_audit(back, layout).passed
    # the reader's label columns are still there for a first query
    assert "_label_columns" in vars(back)


def test_longest_path_scan_builds_the_tables_once(monkeypatch):
    # every length's search reads one view, which builds its tables once
    # and its membership table once, at the first twin test; the scan's
    # answer, certificate and node count are those of a fresh view per
    # length, each of which builds its own tables
    builds, views, member_tables = [], [], []
    real_incidence, real_solve = symmetry.incidence, _engine_py.solve
    real_join = symmetry._join_class

    def counting(edge_masks):
        builds.append(len(edge_masks))
        return real_incidence(edge_masks)

    def recording(host, *args):
        views.append(host)
        return real_solve(host, *args)

    def joining(edge_masks, edge_set, *args):
        member_tables.append(edge_set)
        return real_join(edge_masks, edge_set, *args)

    monkeypatch.setattr(symmetry, "incidence", counting)
    monkeypatch.setattr(_engine_py, "solve", recording)
    monkeypatch.setattr(symmetry, "_join_class", joining)
    h = make_hypergraph(3, 14, [(i, i + 1, i + 2) for i in range(1, 13)] + [(1, 5, 9), (2, 7, 12)])
    res = longest_berge_path(h)
    assert builds == [h.m]
    # a path of 13 edges covers all 14 vertices, so the scan ends there
    assert len(views) == res.length == 13 and all(view is views[0] for view in views)
    assert member_tables and all(table is member_tables[0] for table in member_tables)
    nodes = 0
    for ell in range(1, res.length + 2):
        out = solve_raw(HostView(h.edge_vertex_masks()), path_pattern(ell))
        nodes += out[3]
        if out[0] == _engine_py.FOUND:
            found = out
    assert out[0] == _engine_py.NOT_FOUND and res.exact and res.nodes == nodes
    cert = res.certificate
    assert found[1:3] == ([v - 1 for v in cert.defining_vertices], list(cert.edge_assignment))
    assert len(cert.edge_assignment) == res.length >= 5
    assert len(builds) == res.length + 2


def test_refuted_kernel_calls_build_no_tables(monkeypatch):
    # a call with more pattern edges than hyperedges returns after 0 nodes,
    # before it reads the view's tables or its membership table, pinned or
    # not; P2 fits, and its search tests the twins 2 and 3, so it builds both
    def no_build(edge_masks):
        raise AssertionError("tables built for a refuted call")

    monkeypatch.setattr(symmetry, "incidence", no_build)
    host = HostView([0b0111, 0b1110])
    for expr, pinned in (("P3", None), ("2P2", None), ("C3", (0, 1))):
        out = solve_raw(host, parse_pattern(expr), pinned=pinned)
        assert out == (_engine_py.NOT_FOUND, None, None, 0)
    assert host._tables is None and host._members is None
    monkeypatch.undo()
    assert solve_raw(host, parse_pattern("P2"))[0] == _engine_py.FOUND
    assert host._tables is not None and host._members is not None
