"""The tables a large host keeps for the kernel: the transpose of its label
columns gives what the packing of its edge masks gives, and it runs where
it should and nowhere else."""

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


def _tables(edge_masks):
    """The covered vertices, every covered vertex's row and the degrees
    that ``symmetry.incidence`` returns for ``edge_masks``."""
    vertices, rows, degree = symmetry.incidence(edge_masks)
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
        assert kept == naive
        assert _tables(kept) == _tables(naive)
        assert symmetry.incidence(kept) is symmetry.incidence(kept)
    # and through the host the text reads to, whichever route it takes
    h = read_hypergraph(text)
    naive = _naive_masks(h.edges)
    large = h.m >= CUT and max(map(max, h.edges)) <= 64
    # the reader leaves its label columns only where the edges kept their order
    assert ("_label_columns" in vars(h)) == (h.m >= CUT and list(h.edges) == edges)
    masks = _host_prep(h)
    assert masks == naive and h.edge_vertex_masks() == naive
    assert (masks.__class__ is not list) == large
    assert "_label_columns" not in vars(h)
    assert _tables(masks) == _tables(naive)
    # a later call takes the columns of the edges, and builds afresh
    again = _host_prep(h)
    assert again == naive and again is not masks
    assert _tables(again) == _tables(naive)
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
                                     ("plain", made.edge_vertex_masks())):
                    out = solve_raw(masks, pattern, pinned=pinned)
                    digests[route].update(repr(out).encode() + b"\n")
        assert _host_prep(read).__class__ is _host_prep(made).__class__ is not list
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
    # every length's search takes the tables of one build, and the scan's
    # answer, certificate and node count are those of plain masks per length
    builds = []
    real_incidence = symmetry.incidence

    def counting(edge_masks):
        if edge_masks.__class__ is list:
            builds.append(len(edge_masks))
        return real_incidence(edge_masks)

    monkeypatch.setattr(symmetry, "incidence", counting)
    h = make_hypergraph(3, 14, [(i, i + 1, i + 2) for i in range(1, 13)] + [(1, 5, 9), (2, 7, 12)])
    res = longest_berge_path(h)
    assert builds == [h.m]
    nodes = 0
    for ell in range(1, res.length + 2):
        out = solve_raw(h.edge_vertex_masks(), path_pattern(ell))
        nodes += out[3]
        if out[0] == _engine_py.FOUND:
            found = out
    assert out[0] == _engine_py.NOT_FOUND and res.exact and res.nodes == nodes
    cert = res.certificate
    assert found[1:3] == ([v - 1 for v in cert.defining_vertices], list(cert.edge_assignment))
    assert len(cert.edge_assignment) == res.length >= 5
    assert len(builds) == res.length + 2
