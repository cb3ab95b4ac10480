"""The single embedding kernel: its contract, its twin rule, its report
and the call path to it."""

import gc
import hashlib
import inspect
import json
import random
from itertools import combinations

from bergeturan import (
    SearchOptions,
    _engine_py,
    exact_turan,
    find_berge_embedding,
    longest_berge_path,
    make_hypergraph,
    orbits,
    parse_pattern,
    search,
    symmetry,
)
from bergeturan.berge import _pattern_plan, _vertex_rows, solve_raw
from bergeturan.cli import main
from bergeturan.core import FormulaParams
from bergeturan.constructions import block_construction, extremal_construction
from bergeturan.errors import ParamsOutOfRange
from bergeturan.search import _pattern_edge_orbits
from bergeturan.symmetry import HostView
from oracles import (kernel_twin_classes, naive_contains, naive_twin_classes, random_hypergraph,
                     symmetric_hypergraph)

CORPUS_PATTERNS = [parse_pattern(e) for e in
                   ("P1", "P2", "P3", "P4", "C3", "C4", "S2", "S3", "M2", "2P2", "P2+M1")]


def _fits(params):
    try:
        extremal_construction(FormulaParams(*params))
    except ParamsOutOfRange:
        return False
    return True


# the extremal constructions that fit on 6..10 vertices, as (n, r, ell, k)
SMALL_CONSTRUCTIONS = [params for params in ((n, r, ell, k) for n in range(6, 11)
                                             for r in (2, 3, 4) for ell in range(2, 7)
                                             for k in (1, 2)) if _fits(params)]


def _twin_corpus(seed, count):
    """Seeded (host, pattern, pinned) queries, about half of them pinned, on
    hosts with many twins (unions of complete blocks plus random edges, and
    relabelled small extremal constructions) and on random hosts."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.45:
            n = rng.randint(4, 8)
            h = symmetric_hypergraph(rng, n, min(rng.choice((2, 3, 3, 4)), n))
        elif kind < 0.75:
            params = rng.choice(SMALL_CONSTRUCTIONS)
            g, _ = extremal_construction(FormulaParams(*params))
            labels = list(range(1, g.n + 1))
            rng.shuffle(labels)
            h = make_hypergraph(g.r, g.n, [[labels[v - 1] for v in e] for e in g.edges])
        else:
            n = rng.randint(3, 8)
            h = random_hypergraph(rng, n, min(rng.choice((2, 3, 3, 4)), n), rng.randint(1, 10))
        pattern = rng.choice(CORPUS_PATTERNS)
        pinned = None
        if rng.random() < 0.5:
            pinned = (rng.randrange(pattern.num_edges), rng.randrange(h.m))
        out.append((h, pattern, pinned))
    return out


def test_backend_report():
    from bergeturan.engine import backend_name, compiled_available
    assert backend_name() == "pure-python"
    assert compiled_available() is False


def test_every_search_calls_the_kernel_by_module_name(monkeypatch):
    # the benchmark tracer counts kernel calls by re-binding _engine_py.solve
    # and search.solve_raw, so both must be looked up at call time
    calls = []
    real = _engine_py.solve

    def counting(*args):
        out = real(*args)
        calls.append(out[3])
        return out

    pinned = []
    real_raw = search.solve_raw

    def counting_raw(*args, **kwargs):
        pinned.append(kwargs["pinned"])
        return real_raw(*args, **kwargs)

    monkeypatch.setattr(_engine_py, "solve", counting)
    monkeypatch.setattr(search, "solve_raw", counting_raw)
    h, _ = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=2))

    res = find_berge_embedding(h, parse_pattern("P3"))
    assert res.found and calls == [res.nodes]

    calls.clear()
    # two disjoint complete 4-vertex blocks: the scan stops at the proof for P4
    path = longest_berge_path(block_construction(8, 4, 3))
    assert path.length == 3 and path.exact
    assert len(calls) == 4 and sum(calls) == path.nodes

    calls.clear()
    result = exact_turan(5, 3, parse_pattern("P3"), SearchOptions(witness_limit=2))
    # one freeness check of the complete host, the pinned checks during the
    # search, and one freeness re-check per witness
    assert len(result.witnesses) == 2 and all(pinned)
    assert len(calls) == 1 + len(pinned) + len(result.witnesses)


def test_short_covered_hosts_stop_at_zero_nodes(monkeypatch):
    # 2P2 has 6 vertices; a pinned query on a host covering fewer is
    # refuted before any vertex is placed
    calls = []
    real = _engine_py.solve

    def recording(host, *args):
        out = real(host, *args)
        covered = 0
        for em in host.masks:
            covered |= em
        calls.append((covered.bit_count(), out[3]))
        return out

    monkeypatch.setattr(_engine_py, "solve", recording)
    result = exact_turan(6, 3, parse_pattern("2P2"))
    assert result.exact
    short = [nodes for covered, nodes in calls if covered < 6]
    full = [nodes for covered, nodes in calls if covered >= 6]
    assert short and full and max(full) > 0
    assert set(short) == {0}


def test_cli_manifest_reports_backend(capsys):
    code = main(["formula", "--name", "erdos-gallai", "-n", "10", "-l", "3", "--json", "-"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["manifest"]["engine_backend"] == "pure-python"


def test_solve_keeps_its_positional_contract():
    # the benchmark tracer wraps _engine_py.solve positionally and reads
    # out[0] (status) and out[3] (nodes)
    params = list(inspect.signature(_engine_py.solve).parameters.values())
    assert [p.name for p in params] == [
        "host", "pat_edges", "order", "budget", "pinned_pe", "pinned_he"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.default for p in params[3:]] == [0, -1, -1]
    h, _ = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
    edges0, order = _pattern_plan(parse_pattern("2P5"))
    host = HostView(h.edge_vertex_masks())
    out = _engine_py.solve(host, edges0, order)
    assert type(out) is tuple and len(out) == 4
    assert out[:3] == (_engine_py.NOT_FOUND, None, None) and out[3] > 0
    status, images, assignment, nodes = _engine_py.solve(host, edges0, order, 10, -1, -1)
    assert (status, images, assignment, nodes) == (_engine_py.INDETERMINATE, None, None, 11)
    status, images, assignment, nodes = _engine_py.solve(
        host, *_pattern_plan(parse_pattern("P5")), 0, 2, 7)
    assert status == _engine_py.FOUND and assignment[2] == 7
    assert len(images) == 6 and len(assignment) == 5 and nodes > 0


def test_twin_rule_agrees_with_naive_oracles():
    # statuses of pinned and unpinned queries on hosts full of twins
    corpus = _twin_corpus(20261018, 1500)
    seen = set()
    for h, pattern, pinned in corpus:
        status = solve_raw(HostView(h.edge_vertex_masks()), pattern, pinned=pinned)[0]
        expected = naive_contains(h, pattern, pinned)
        assert (status == _engine_py.FOUND) == expected, (h, pattern.expr, pinned)
        assert status != _engine_py.INDETERMINATE
        seen.add((pinned is None, expected))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_twin_rule_keeps_first_certificates():
    # sha256 of (status, images, assignment) over 2,400 queries, recorded by
    # the kernel without twin pruning: the rule only removes subtrees that
    # a smaller twin's branch, searched first, mirrors
    corpus = _twin_corpus(7, 2400)
    digest = hashlib.sha256()
    pinned = 0
    for h, pattern, pin in corpus:
        out = solve_raw(HostView(h.edge_vertex_masks()), pattern, pinned=pin)
        digest.update(repr(out[:3]).encode() + b"\n")
        pinned += pin is not None
    assert pinned >= 1000
    assert digest.hexdigest() == "6ea83e8e70bb67bbc096e8f9263cacb151fce03121d0bc503ff0ae76d812e646"


def test_lazy_twin_classes_keep_node_counts():
    # sha256 of the whole answer, node counts included, over the queries
    # above, recorded by the kernel that classified every covered vertex
    # before the search began
    digest = hashlib.sha256()
    for h, pattern, pin in _twin_corpus(7, 2400):
        out = solve_raw(HostView(h.edge_vertex_masks()), pattern, pinned=pin)
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == "f1b2a28d78e1c6270c1db9372a6548cdefc14f2ce65a3640040c8b5d6d598a4b"


def test_repeated_edge_hosts_run_no_twin_tests(monkeypatch):
    # two disjoint complete 3-graphs on 4 vertices, one edge listed twice:
    # such a host has no twins, so classifying a vertex tests no class;
    # the answers and node counts are those of the eager classification
    def no_twin_test(*args):
        raise AssertionError("twin test on a host that repeats an edge")

    monkeypatch.setattr(symmetry, "_join_class", no_twin_test)
    blocks = [sum(1 << v for v in e) for b in (0, 4) for e in combinations(range(b, b + 4), 3)]
    host = HostView(blocks + blocks[:1])
    assert solve_raw(host, parse_pattern("C5")) == (_engine_py.NOT_FOUND, None, None, 640)
    assert solve_raw(host, parse_pattern("2P2")) == (
        _engine_py.FOUND, [1, 0, 2, 5, 4, 6], [1, 0, 5, 4], 13)


# relabelled extremal constructions with 7,084, 12,144 and 14,157 edges
LARGE_HOSTS = [(44, 3, 15, 3), (64, 3, 15, 3), (60, 4, 13, 2)]


def _relabelled_construction(params, rng):
    g, _ = extremal_construction(FormulaParams(*params))
    labels = list(range(1, g.n + 1))
    rng.shuffle(labels)
    return make_hypergraph(g.r, g.n, [[labels[v - 1] for v in e] for e in g.edges])


def _large_host_queries(hosts):
    """(masks, pattern, pinned) for P3, 2P2 and C4, unpinned and pinned, on
    each of ``hosts`` (a prefix of LARGE_HOSTS) relabelled by one
    ``random.Random(8)``, which also draws the pins."""
    rng = random.Random(8)
    for params in hosts:
        h = _relabelled_construction(params, rng)
        masks = h.edge_vertex_masks()
        for expr in ("P3", "2P2", "C4"):
            pattern = parse_pattern(expr)
            for pinned in (None, (rng.randrange(pattern.num_edges), rng.randrange(h.m))):
                yield masks, pattern, pinned


def test_large_hosts_keep_answers_and_node_counts(monkeypatch):
    # sha256 of (status, images, assignment, nodes) for P3, 2P2 and C4,
    # unpinned and pinned, recorded by the kernel that built the incidence
    # with one growing integer per vertex and classified every covered
    # vertex before the search began.  A candidate is classified only
    # when an unused smaller group-mate could skip it: 58 twin tests,
    # where classifying every candidate that reaches the twin filter ran 91
    tests = []
    real_test = symmetry._swap_is_automorphism

    def counting_test(*args):
        tests.append(args)
        return real_test(*args)

    monkeypatch.setattr(symmetry, "_swap_is_automorphism", counting_test)
    digest = hashlib.sha256()
    for masks, pattern, pinned in _large_host_queries(LARGE_HOSTS):
        out = solve_raw(HostView(masks), pattern, pinned=pinned)
        assert out[0] == _engine_py.FOUND
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == "bab0b7572ed4ae077520b1ed69670edd8fc44f03b3e8cc2c4f21a90b5ce9b174"
    assert len(tests) == 58


def test_large_host_queries_classify_only_when_a_group_mate_is_unused(monkeypatch):
    # on the 7,084- and 12,144-edge hosts every FOUND query places each
    # candidate that reaches the twin filter after all its smaller
    # group-mates are used, so no twin class could skip it and none is
    # tested; classifying each such candidate ran 25 twin tests
    def no_twin_test(*args):
        raise AssertionError("twin test where every smaller group-mate is used")

    monkeypatch.setattr(symmetry, "_join_class", no_twin_test)
    queries = list(_large_host_queries(LARGE_HOSTS[:2]))
    assert sorted({len(masks) for masks, _, _ in queries}) == [7084, 12144]
    assert sum(pinned is not None for _, _, pinned in queries) == 6
    for masks, pattern, pinned in queries:
        assert solve_raw(HostView(masks), pattern, pinned=pinned)[0] == _engine_py.FOUND


def test_large_host_queries_convert_only_the_rows_they_read(monkeypatch):
    # a FOUND P3 query on the 14,157-edge host places four vertices and
    # tests a few twins: it converts the rows of those, not of all 60
    # covered vertices
    built = []

    real_incidence = symmetry.incidence

    def recording(edge_masks):
        vertices, rows, degree = real_incidence(edge_masks)
        built.append(rows)
        return vertices, rows, degree

    monkeypatch.setattr(symmetry, "incidence", recording)
    h = _relabelled_construction(LARGE_HOSTS[2], random.Random(8))
    assert h.m == 14157
    out = solve_raw(HostView(h.edge_vertex_masks()), parse_pattern("P3"))
    assert out[0] == _engine_py.FOUND
    (rows,) = built
    assert 4 <= len(rows) < len(h.covered_vertices()) == 60


def test_solve_leaves_no_reference_cycles():
    # every call's search state is freed by reference counting when it
    # returns; cycles would leave it to the collector, which then runs
    # every few hundred calls
    h, _ = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
    masks = h.edge_vertex_masks()
    plan = _pattern_plan(parse_pattern("2P2"))
    gc.collect()
    gc.disable()
    try:
        for budget, pin in ((0, (-1, -1)), (0, (1, 5)), (3, (-1, -1))):
            _engine_py.solve(HostView(masks), *plan, budget, *pin)
        _engine_py.solve(HostView(masks), *_pattern_plan(parse_pattern("2P5")), 0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _incidence_by_definition(n, edge_masks):
    inc = [0] * n
    for j, em in enumerate(edge_masks):
        for v in range(n):
            if em >> v & 1:
                inc[v] |= 1 << j
    return inc


def _check_incidence(n, masks):
    """Check the covered vertices, every row and the degree table of
    ``symmetry.incidence`` against the definition on a host whose vertices
    lie below n; return whether the rows were lazy and whether the tables
    run past 64 vertices."""
    vertices, rows, degree = symmetry.incidence(masks)
    lazy = isinstance(rows, dict)
    if lazy:
        assert len(rows) == 0  # no row is converted before it is read
    expected = _incidence_by_definition(n, masks)
    assert vertices == [v for v in range(n) if expected[v]]
    # the tables run to the last covered vertex
    width = vertices[-1] + 1
    assert not any(expected[width:])
    assert [rows[v] for v in range(width)] == expected[:width]
    assert degree == [row.bit_count() for row in expected[:width]]
    return lazy, width > 64


def test_incidence_agrees_with_its_definition():
    # hosts on both sides of the switch from the per-bit loop to the byte
    # transpose, with vertices in every byte of one, two and three words:
    # dense hosts get lazy rows at every size, sparse hosts a list
    rng = random.Random(11)
    switched = set()
    for _ in range(400):
        n = rng.choice((rng.randint(2, 24), rng.randint(60, 150)))
        pool = rng.sample(range(n), rng.randint(2, min(n, 30)))
        r = rng.randint(1, min(4, len(pool)))
        m = rng.randint(1, 60)
        masks = [sum(1 << v for v in rng.sample(pool, r)) for _ in range(m)]
        covered = [v for v in range(n) if any(em >> v & 1 for em in masks)]
        transposed = m * r > 4 * len(covered)
        lazy, wide = _check_incidence(n, masks)
        assert lazy == transposed
        switched.add((transposed, wide))
    assert switched == {(False, False), (False, True), (True, False), (True, True)}


def test_lazy_incidence_agrees_with_its_definition():
    # hosts of 64 to 400 edges, on both sides of the per-bit loop's switch
    # and of the 64-vertex packing, with vertices in every byte of up to 19
    # words
    rng = random.Random(14)
    seen = set()
    for _ in range(150):
        n = rng.choice((rng.randint(2, 64), rng.randint(65, 150)))
        pool = rng.sample(range(n), rng.randint(2, min(n, 80)))
        r = rng.randint(1, min(4, len(pool)))
        m = rng.choice((rng.randint(64, 80), rng.randint(64, 400)))
        masks = [sum(1 << v for v in rng.sample(pool, r)) for _ in range(m)]
        covered = [v for v in range(n) if any(em >> v & 1 for em in masks)]
        transposed = m * r > 4 * len(covered)
        lazy, wide = _check_incidence(n, masks)
        assert lazy == transposed
        seen.add((transposed, wide))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_incidence_of_no_edges_is_empty():
    assert symmetry.incidence([]) == ([], [], [])


def test_vertex_rows_agree_with_their_definition():
    rng = random.Random(12)
    hosts = [random_hypergraph(rng, n, rng.randint(2, min(4, n)), rng.randint(1, 50))
             for n in (rng.randint(3, 20) for _ in range(200))]
    # and large hosts, whose rows are lazy: a relabelled construction of
    # 480 edges on 20 vertices and a random one on up to 90 vertices
    hosts.append(_relabelled_construction((20, 3, 9, 2), rng))
    hosts.append(random_hypergraph(rng, 90, 3, 300))
    assert min(h.m for h in hosts[-2:]) >= 64 and hosts[-1].n > 64
    for h in hosts:
        expected = {}
        for j, e in enumerate(h.edges):
            for v in e:
                expected[v] = expected.get(v, 0) | (1 << j)
        assert _vertex_rows(h) == expected


def test_twin_classes_agree_with_naive_oracle(monkeypatch):
    # hosts full of twins and random hosts with r in {2, 3, 4}, with up to
    # two uncovered vertices past the last label, and some listing one edge
    # twice: those get a class per covered vertex, which refines the twin
    # classes.  Both classifiers answer each host: the Turán search's, in
    # orbits, and the kernel's lazy one, where no vertex of degree 0
    # reaches a twin test.
    real_join = symmetry._join_class
    joined = []

    def checked_join(edge_masks, edge_set, inc, classes, w):
        assert inc[w], w
        joined.append(w)
        return real_join(edge_masks, edge_set, inc, classes, w)

    # one definition, which the Turán search imports from orbits
    assert search.twin_classes is orbits.twin_classes
    monkeypatch.setattr(symmetry, "_join_class", checked_join)
    rng = random.Random(13)
    seen = set()
    for h, _, _ in _twin_corpus(1313, 500):
        n = h.n + rng.randint(0, 2)
        masks = h.edge_vertex_masks()
        repeated = rng.random() < 0.2
        if repeated:
            masks.append(rng.choice(masks))
        expected = naive_twin_classes(n, [[v for v in range(n) if em >> v & 1] for em in masks])
        covered = {v for em in masks for v in range(n) if em >> v & 1}
        uncovered = frozenset(range(n)) - covered
        for classify in (orbits.twin_classes, kernel_twin_classes):
            got = [frozenset(v for v in range(n) if c >> v & 1) for c in classify(n, masks)]
            if repeated:
                singletons = [frozenset((v,)) for v in covered]
                assert got == sorted(singletons + ([uncovered] if uncovered else []), key=min)
                assert all(any(c <= t for t in expected) for c in got)
            else:
                assert got == expected, (classify.__name__, h, n)
        seen.add((h.r, repeated, bool(uncovered), any(len(c - uncovered) > 1 for c in expected)))
    assert joined
    assert {(r, repeated) for r, repeated, _, _ in seen} == {
        (r, repeated) for r in (2, 3, 4) for repeated in (False, True)}
    assert {(bare, twins) for _, _, bare, twins in seen} == {
        (bare, twins) for bare in (False, True) for twins in (False, True)}


def test_pin_rule_starts_inside_the_pinned_hyperedge():
    # P1 pinned to the last triple of K_6^(3): both endpoints are drawn from
    # {4, 5, 6}, whose three vertices are twins, so the first two
    # candidates complete the copy
    h = make_hypergraph(3, 6, [list(e) for e in combinations(range(1, 7), 3)])
    status, images, assignment, nodes = solve_raw(
        HostView(h.edge_vertex_masks()), parse_pattern("P1"), pinned=(0, h.m - 1))
    assert (status, images, assignment, nodes) == (_engine_py.FOUND, [3, 4], [h.m - 1], 2)


def test_pinned_copy_agrees_with_every_pinned_edge():
    # one query per edge orbit answers as one naive query per pattern edge,
    # with the new edge last in the kernel's host and anywhere in the oracle's
    rng = random.Random(6)
    seen = set()
    for h, pattern, _ in _twin_corpus(606, 400):
        absent = [e for e in combinations(range(1, h.n + 1), h.r) if e not in h.edges]
        if not absent:
            continue
        new = rng.choice(absent)
        grown = make_hypergraph(h.r, h.n, [list(e) for e in h.edges] + [list(new)])
        pinned_he = grown.edges.index(new)
        expected = any(naive_contains(grown, pattern, (pe, pinned_he))
                       for pe in range(pattern.num_edges))
        masks = h.edge_vertex_masks() + [sum(1 << (v - 1) for v in new)]
        assert search._pinned_copy(masks, pattern) == expected, (grown, pattern.expr)
        seen.add(expected)
    assert seen == {True, False}


def test_pinned_copy_queries_one_edge_per_orbit(monkeypatch):
    # each pinned check runs at most one kernel call per edge orbit, on the
    # orbit's smallest edge; 2P2 has one orbit, so a free include costs one
    # call where one call per pattern edge would cost four
    for expr in ("2P2", "P3", "P2+M1"):
        pattern = parse_pattern(expr)
        reps = [orbit[0] for orbit in _pattern_edge_orbits(pattern)]
        checks = []
        real_copy, real_raw = search._pinned_copy, search.solve_raw

        def counting_copy(*args):
            checks.append([])
            found = real_copy(*args)
            checks[-1].append(found)
            return found

        def counting_raw(*args, **kwargs):
            checks[-1].append(kwargs["pinned"][0])
            return real_raw(*args, **kwargs)

        monkeypatch.setattr(search, "_pinned_copy", counting_copy)
        monkeypatch.setattr(search, "solve_raw", counting_raw)
        assert exact_turan(6, 3, pattern).exact
        monkeypatch.undo()
        assert checks
        for *pinned, found in checks:
            assert pinned == reps[:len(pinned)]
            if not found:
                assert pinned == reps
        if expr == "2P2":
            assert reps == [0] and any(c == [0, False] for c in checks)


def test_large_host_twin_classes_agree_with_naive_oracle():
    # hosts of at least 64 edges, whose twin tests use a dict and no
    # per-bit walk: relabelled constructions, full of twins, and random
    # hosts, with up to two uncovered vertices and some listing one edge
    # twice; the Turán search's classifier and the kernel's answer each
    rng = random.Random(15)
    seen = set()
    for i in range(24):
        if i % 2:
            h = random_hypergraph(rng, rng.randint(12, 16), 3, rng.randint(100, 200))
        else:
            h = _relabelled_construction(rng.choice(
                [(13, 3, 5, 2), (14, 3, 6, 2), (12, 3, 5, 3), (16, 4, 7, 2)]), rng)
        n = h.n + rng.randint(0, 2)
        masks = h.edge_vertex_masks()
        repeated = i % 4 == 3
        if repeated:
            masks.append(rng.choice(masks))
        assert len(masks) >= 64
        expected = naive_twin_classes(n, [[v for v in range(n) if em >> v & 1] for em in masks])
        for classify in (orbits.twin_classes, kernel_twin_classes):
            got = [frozenset(v for v in range(n) if c >> v & 1) for c in classify(n, masks)]
            if repeated:
                # a class per covered vertex, which refines the twin classes
                covered = {v for em in masks for v in range(n) if em >> v & 1}
                assert all(len(c) == 1 for c in got if c & covered)
                assert all(any(c <= t for t in expected) for c in got)
            else:
                assert got == expected, (classify.__name__, h, n)
        seen.add((repeated, any(len(c) > 1 for c in expected)))
    assert seen == {(repeated, twins) for repeated in (False, True) for twins in (False, True)}
