import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergeturan import (
    SearchOptions,
    SearchResult,
    Status,
    block_construction,
    compare_with_formula,
    exact_turan,
    find_berge_embedding,
    is_maximal_free,
    make_hypergraph,
    parse_pattern,
    search,
)
from bergeturan.constructions import extremal_construction
from bergeturan.core import FormulaParams, Hypergraph, disjoint_paths_pattern
from bergeturan.errors import HostNotFree, ParamsOutOfRange, ScaleGuardExceeded
from oracles import (
    _naive_free_table,
    naive_contains,
    naive_turan,
    naive_turan_witnesses,
    random_hypergraph,
    symmetric_hypergraph,
)

# (n, r, pattern, connected_only, witness_limit, max_candidates) -> the
# value and the witness edge lists, as the search without forward checking
# found them: the instances of the benchmark's turan workload, then two at
# n = 8
PINNED_ANSWERS = [
    ((7, 3, "P4", False, 1, 64), 5, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7))]),
    ((8, 3, "P3", False, 1, 64), 4, [
        ((1, 2, 3), (1, 2, 4), (5, 6, 7), (5, 6, 8))]),
    ((7, 3, "C3", False, 1, 64), 6, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 6, 7), (4, 6, 7), (5, 6, 7))]),
    ((6, 3, "2P2", False, 1, 64), 10, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4),
         (2, 3, 5), (2, 4, 5), (3, 4, 5))]),
    ((6, 3, "P4", True, 1, 64), 4, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6))]),
    ((7, 4, "P3", False, 1, 64), 2, [
        ((1, 2, 3, 4), (1, 2, 3, 5))]),
    ((6, 3, "C4", False, 2, 64), 4, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)),
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 6))]),
    ((6, 3, "P4", False, 3, 64), 4, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)),
        ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)),
        ((1, 2, 3), (1, 2, 5), (1, 3, 5), (2, 3, 5))]),
    ((8, 3, "2P2", False, 1, 100), 11, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4),
         (2, 3, 5), (2, 4, 5), (3, 4, 5), (6, 7, 8))]),
    ((8, 3, "C3", False, 1, 100), 8, [
        ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (3, 7, 8), (4, 7, 8), (5, 7, 8),
         (6, 7, 8))]),
]


class TestExactTuran:
    def test_pinned_values(self):
        assert exact_turan(4, 3, parse_pattern("P2")).max_edges == 1
        assert exact_turan(6, 3, parse_pattern("P2")).max_edges == 2
        assert exact_turan(4, 3, parse_pattern("P3")).max_edges == 2

    def test_complete_host_extremal_for_p4(self):
        res = exact_turan(4, 3, parse_pattern("P4"))
        assert res.max_edges == 4
        assert res.exact
        assert res.witnesses[0].m == 4

    def test_witnesses_are_free_and_sized(self):
        res = exact_turan(6, 3, parse_pattern("P2"), SearchOptions(witness_limit=3))
        assert res.witnesses
        for w in res.witnesses:
            assert w.m == res.max_edges
            assert find_berge_embedding(w, parse_pattern("P2")).status is Status.NOT_FOUND

    def test_budget_truncation_keeps_lower_bound(self):
        # the budget counts listed classes and tree nodes, not the pinned
        # checks they run: the level search stops at its sixth class, one
        # pinned check per class so far
        pat = parse_pattern("2P2")
        res = exact_turan(6, 3, pat, SearchOptions(node_budget=5))
        assert (res.exact, res.answered_by) == (False, "levels")
        assert (res.nodes_explored, res.pinned_calls) == (6, 5)
        assert [w.edges for w in res.witnesses] == [((1, 2, 3), (4, 5, 6))]
        # the branch and bound alone stops at its sixth tree node
        tree = search._Searcher(6, 3, pat, SearchOptions(node_budget=5)).run(prove=False)
        assert (tree.exact, tree.answered_by) == (False, "branch-and-bound")
        assert tree.max_edges >= 0
        assert tree.nodes_explored == 6
        assert tree.pinned_calls > tree.nodes_explored

    def test_every_budget_gives_free_witnesses(self):
        # 21 listed classes prove the value 5, and 9 tree nodes find the
        # first witness; below 30 nodes the result is inexact, with free
        # witnesses of the size it reports
        pat = parse_pattern("P4")
        full = exact_turan(7, 3, pat)
        assert (full.nodes_explored, full.answered_by) == (30, "levels")
        sizes = []
        for budget in range(1, 32):
            res = exact_turan(7, 3, pat, SearchOptions(node_budget=budget))
            assert res.exact is (budget >= 30)
            assert res.nodes_explored == min(budget + 1, 30)
            assert res.witnesses
            for w in res.witnesses:
                assert w.m == res.max_edges
                assert find_berge_embedding(w, pat).status is Status.NOT_FOUND
            sizes.append(res.max_edges)
        assert sizes == sorted(sizes) and sizes[-1] == full.max_edges
        assert res == SearchResult(full.max_edges, full.witnesses, 30, full.pinned_calls,
                                   res.elapsed, True, "levels")

    def test_scale_guard(self):
        with pytest.raises(ScaleGuardExceeded):
            exact_turan(12, 3, parse_pattern("P2"))
        # n < r, and r < 2 as make_hypergraph rejects it
        for n, r in ((2, 3), (-1, 2), (5, 1), (4, 0), (0, 0)):
            with pytest.raises(ParamsOutOfRange):
                exact_turan(n, r, parse_pattern("P2"))

    def test_negative_node_budget_raises(self):
        for budget in (-1, -5):
            with pytest.raises(ParamsOutOfRange, match="node_budget"):
                exact_turan(6, 3, parse_pattern("2P2"), SearchOptions(node_budget=budget))

    def test_determinism(self):
        a = exact_turan(6, 3, parse_pattern("P3"))
        b = exact_turan(6, 3, parse_pattern("P3"))
        assert a.max_edges == b.max_edges
        assert a.witnesses[0] == b.witnesses[0]
        assert a.nodes_explored == b.nodes_explored

    def test_matches_naive_enumeration(self):
        for n in (4, 5):
            for expr in ("P2", "P3", "M2", "2P2", "C3"):
                pat = parse_pattern(expr)
                assert exact_turan(n, 3, pat).max_edges == naive_turan(n, 3, pat), (n, expr)

    def test_matches_naive_enumeration_r4(self):
        for expr in ("P2", "P3", "M2"):
            pat = parse_pattern(expr)
            assert exact_turan(6, 4, pat).max_edges == naive_turan(6, 4, pat), expr

    def test_monotone_in_n(self):
        pat = parse_pattern("P3")
        values = [exact_turan(n, 3, pat).max_edges for n in (4, 5, 6)]
        assert values == sorted(values)

    def test_monotone_in_pattern_extension(self):
        # a pattern containing another is no easier to host
        small = exact_turan(6, 3, parse_pattern("P2")).max_edges
        large = exact_turan(6, 3, parse_pattern("P3")).max_edges
        assert large >= small

    def test_warm_start_seeds_incumbent(self):
        block = block_construction(8, 4, 3)
        res = exact_turan(8, 3, parse_pattern("P4"),
                          SearchOptions(node_budget=500, initial_witness=block))
        assert res.max_edges >= 8
        assert res.witnesses[0] == block

    def test_warm_start_must_be_free(self):
        bad = make_hypergraph(3, 6, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        with pytest.raises(HostNotFree):
            exact_turan(6, 3, parse_pattern("P2"), SearchOptions(initial_witness=bad))

    def test_connected_search_refuses_a_seed_that_does_not_span(self):
        # two disjoint triples are free of P2 but not connected: taken as a
        # seed they gave max_edges 2 as exact, where the connected search
        # without a seed proves 0
        pattern = parse_pattern("P2")
        apart = make_hypergraph(3, 7, [[1, 2, 3], [4, 5, 6]])
        opts = SearchOptions(connected_only=True, initial_witness=apart)
        with pytest.raises(ParamsOutOfRange, match="one component"):
            exact_turan(7, 3, pattern, opts)
        # a seed that leaves vertex 7 uncovered does not span either
        short = make_hypergraph(3, 7, [[1, 2, 3]])
        with pytest.raises(ParamsOutOfRange, match="one component"):
            exact_turan(7, 3, pattern, SearchOptions(connected_only=True, initial_witness=short))
        res = exact_turan(7, 3, pattern, SearchOptions(connected_only=True))
        assert (res.max_edges, res.exact) == (0, True)
        # without connected_only the same seed is a witness of the value
        res = exact_turan(7, 3, pattern, SearchOptions(initial_witness=apart))
        assert (res.max_edges, res.exact, res.witnesses[0]) == (2, True, apart)

    def test_warm_start_of_the_value_stays_first(self):
        # a seed as large as the value leads the witness list, and the
        # witnesses after it are those of the branch and bound
        seed = make_hypergraph(3, 7, [[1, 3, 4], [2, 3, 4], [3, 4, 5], [3, 4, 6], [3, 4, 7]])
        opts = SearchOptions(witness_limit=3, initial_witness=seed)
        res = exact_turan(7, 3, parse_pattern("P4"), opts)
        tree = search._Searcher(7, 3, parse_pattern("P4"), opts).run(prove=False)
        assert (res.max_edges, res.answered_by) == (5, "levels")
        assert res.witnesses[0] == seed
        assert res.witnesses == tree.witnesses and len(res.witnesses) == 3

    @pytest.mark.parametrize("instance,value,witnesses", PINNED_ANSWERS,
                             ids=["-".join(map(str, row[0])) for row in PINNED_ANSWERS])
    def test_reproduces_pinned_answers(self, instance, value, witnesses):
        n, r, expr, connected, limit, cap = instance
        res = exact_turan(n, r, parse_pattern(expr), SearchOptions(
            connected_only=connected, witness_limit=limit, max_candidates=cap))
        assert res.exact
        assert res.max_edges == value
        assert [w.edges for w in res.witnesses] == witnesses

    def test_live_candidates_shrink_the_tree(self):
        # the bound chosen + remaining candidates took 7,057 tree nodes
        pat = parse_pattern("P4")
        tree = search._Searcher(7, 3, pat, SearchOptions()).run(prove=False)
        assert (tree.max_edges, tree.exact, tree.nodes_explored) == (5, True, 550)
        # the level search lists 21 classes, and the tree that knows the
        # value takes 9 nodes to its first witness
        res = exact_turan(7, 3, pat)
        assert (res.max_edges, res.exact, res.nodes_explored) == (5, True, 30)

    @pytest.mark.parametrize("instance", [row[0] for row in PINNED_ANSWERS],
                             ids=["-".join(map(str, row[0])) for row in PINNED_ANSWERS])
    def test_twin_orbits_keep_every_answer(self, monkeypatch, instance):
        # singleton classes give every later candidate a check of its own,
        # which is the search with one check per candidate: every field
        # but the count of checks, and the elapsed time, is the same.  The
        # tree takes its classes from twin_classes, and the listing those
        # of every class it grows from canonical_form
        n, r, expr, connected, limit, cap = instance
        opts = SearchOptions(connected_only=connected, witness_limit=limit, max_candidates=cap)
        reduced = exact_turan(n, r, parse_pattern(expr), opts)
        real_form = search.canonical_form

        def singleton_form(n, masks):
            return real_form(n, masks)[:3] + ([1 << v for v in range(n)],)

        monkeypatch.setattr(search, "twin_classes", lambda n, masks: [1 << v for v in range(n)])
        monkeypatch.setattr(search, "canonical_form", singleton_form)
        plain = exact_turan(n, r, parse_pattern(expr), opts)

        def answer(res):
            return res.max_edges, res.witnesses, res.nodes_explored, res.exact

        assert answer(reduced) == answer(plain)
        assert reduced.pinned_calls < plain.pinned_calls

    @pytest.mark.parametrize("n,r,expr,cap,tree_calls,calls", [
        # one check per candidate: 6,387 in the tree; 283 with a check per
        # orbit representative of every listed class, 259 with one per
        # twin orbit that no parent answers
        (7, 3, "P4", 64, 3644, 194),
        # one check per candidate: 27,763 in the tree; 979 with a check per
        # orbit representative of every listed class, 440 with one per
        # twin orbit that no parent answers
        (8, 3, "2P2", 100, 12491, 337),
    ], ids=["7-3-P4-64-3644", "8-3-2P2-100-12491"])
    def test_twin_orbits_cut_the_pinned_calls(self, n, r, expr, cap, tree_calls, calls):
        opts = SearchOptions(max_candidates=cap)
        tree = search._Searcher(n, r, parse_pattern(expr), opts).run(prove=False)
        assert tree.exact and tree.pinned_calls == tree_calls
        res = exact_turan(n, r, parse_pattern(expr), opts)
        assert res.exact and res.pinned_calls == calls

    def test_inherited_dead_extensions_answer_9_3_2P2(self):
        # the listing makes 331 checks, 1,440 with a check per orbit
        # representative of every class and 446 with one per twin orbit,
        # and the tree that knows the value 38 more; the value and witness
        # are those of 8 3 2P2 and 10 3 2P2
        res = exact_turan(9, 3, parse_pattern("2P2"), SearchOptions(max_candidates=84))
        assert (res.max_edges, res.exact, res.answered_by) == (11, True, "levels")
        assert (res.nodes_explored, res.pinned_calls) == (105, 369)
        assert [w.edges for w in res.witnesses] == [(
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4),
            (2, 3, 5), (2, 4, 5), (3, 4, 5), (6, 7, 8))]

    @pytest.mark.parametrize("n,r,expr,cap,value,witness", [
        (10, 3, "2P2", 120, 11, ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
                                 (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5), (6, 7, 8))),
        (10, 3, "P4", 120, 8, tuple((1, 2, v) for v in range(3, 11))),
        (8, 3, "C4", 64, 6, tuple((1, 2, v) for v in range(3, 9))),
    ])
    def test_levels_prove_values_out_of_the_trees_reach(self, n, r, expr, cap, value, witness):
        # the witnesses are those the branch and bound found, in 79,942,
        # 132,825 and 45,874 tree nodes (20 s, 54 s and 11 s on one core)
        res = exact_turan(n, r, parse_pattern(expr), SearchOptions(max_candidates=cap))
        assert (res.max_edges, res.exact, res.answered_by) == (value, True, "levels")
        assert [w.edges for w in res.witnesses] == [witness]

    def test_values_obey_the_averaging_bound(self):
        # deleting a vertex keeps a host free, and each edge misses n - r
        # of the n vertices: ex(n) <= floor(n * ex(n - 1) / (n - r))
        # (Katona, Nemetz and Simonovits, 1964)
        for expr in ("P3", "P4", "C3", "2P2"):
            pat = parse_pattern(expr)
            values = {n: exact_turan(n, 3, pat, SearchOptions(max_candidates=84)).max_edges
                      for n in range(4, 10)}
            for n in range(5, 10):
                assert values[n] <= n * values[n - 1] // (n - 3), (expr, n, values)

    @pytest.mark.parametrize("n,r,expr", [(7, 3, "2P3"), (8, 3, "3P2")])
    def test_a_free_complete_host_answers_alone(self, n, r, expr):
        # the pattern has more vertices than the host: the complete host is
        # the tree's first leaf and the only free host of its size
        pat = parse_pattern(expr)
        res = exact_turan(n, r, pat, SearchOptions(witness_limit=2))
        tree = search._Searcher(n, r, pat, SearchOptions(witness_limit=2)).run(prove=False)
        assert (res.max_edges, res.exact, res.answered_by) == (comb(n, r), True, "complete-host")
        assert (res.nodes_explored, res.pinned_calls) == (0, 0)
        assert res.witnesses == tree.witnesses == (make_hypergraph(r, n, combinations(range(1, n + 1), r)),)

    def test_levels_past_the_cap_hand_over_to_the_tree(self):
        # 8 3 2P3 lists 1 + 1 + 3 + 11 + 52 classes, then its fifth level
        # passes 200 classes at the 269th listed class; the branch and
        # bound then runs unchanged on the rest of the budget
        pat = parse_pattern("2P3")
        res = exact_turan(8, 3, pat, SearchOptions(node_budget=400))
        tree = search._Searcher(8, 3, pat, SearchOptions(node_budget=131)).run(prove=False)
        assert (res.exact, res.answered_by) == (False, "branch-and-bound")
        assert res.nodes_explored == tree.nodes_explored + 269
        assert res.max_edges == tree.max_edges == 16
        assert res.witnesses == tree.witnesses

    @pytest.mark.parametrize("instance", [row[0] for row in PINNED_ANSWERS[:8]],
                             ids=["-".join(map(str, row[0])) for row in PINNED_ANSWERS[:8]])
    def test_a_low_cap_gives_the_same_answers(self, monkeypatch, instance):
        # past the cap the branch and bound proves the value itself, on the
        # instances of the benchmark
        n, r, expr, connected, limit, cap = instance
        opts = SearchOptions(connected_only=connected, witness_limit=limit, max_candidates=cap)
        monkeypatch.setattr(search, "_LEVEL_CAP", 2)
        capped = exact_turan(n, r, parse_pattern(expr), opts)
        tree = search._Searcher(n, r, parse_pattern(expr), opts).run(prove=False)
        assert capped.answered_by == "branch-and-bound"
        assert (capped.max_edges, capped.witnesses, capped.exact) == (
            tree.max_edges, tree.witnesses, tree.exact)
        assert capped.nodes_explored > tree.nodes_explored

    def test_pinned_calls_are_counted_and_repeat(self, monkeypatch):
        calls = []
        real_raw = search.solve_raw

        def counting_raw(*args, **kwargs):
            calls.append(kwargs["pinned"])
            return real_raw(*args, **kwargs)

        monkeypatch.setattr(search, "solve_raw", counting_raw)
        opts = SearchOptions(witness_limit=2)
        first = exact_turan(6, 3, parse_pattern("C4"), opts)
        assert first.pinned_calls == len(calls) > first.nodes_explored
        second = exact_turan(6, 3, parse_pattern("C4"), opts)
        assert (second.pinned_calls, second.nodes_explored) == (
            first.pinned_calls, first.nodes_explored)

    def test_connected_variant(self):
        # two disjoint triples are not connected: best connected P2-free
        # host on 6 vertices cannot cover every vertex, so no feasible host
        plain = exact_turan(6, 3, parse_pattern("P2"))
        conn = exact_turan(6, 3, parse_pattern("P2"), SearchOptions(connected_only=True))
        assert plain.max_edges == 2
        assert conn.max_edges == 0
        conn4 = exact_turan(4, 3, parse_pattern("P4"), SearchOptions(connected_only=True))
        assert conn4.max_edges == 4
        assert len(conn4.witnesses[0].covered_vertices()) == 4

    def test_span_check_matches_a_graph_search(self):
        # edge lists in random order, so that an edge can meet the component
        # only after a later edge has joined it
        rng = random.Random(31)
        seen = set()
        for _ in range(2000):
            n = rng.randint(2, 9)
            r = rng.randint(2, min(3, n))
            edges = [rng.sample(range(1, n + 1), r) for _ in range(rng.randint(1, 8))]
            reached = set(edges[0])
            while any(reached & set(e) and not reached >= set(e) for e in edges):
                reached.update(*(e for e in edges if reached & set(e)))
            expected = reached == set(range(1, n + 1))
            masks = [sum(1 << (v - 1) for v in e) for e in edges]
            assert search._spans_one_component(n, masks) is expected, (n, edges)
            seen.add(expected)
        assert seen == {True, False}

    def test_freeness_downward_closed_on_chains(self):
        rng = random.Random(424242)
        pat = parse_pattern("P3")
        for _ in range(40):
            h = random_hypergraph(rng, 6, 3, 8)
            free = find_berge_embedding(h, pat).status is Status.NOT_FOUND
            if free:
                for cut in range(h.m):
                    sub = make_hypergraph(3, 6, [list(e) for e in h.edges[:cut]])
                    assert find_berge_embedding(sub, pat).status is Status.NOT_FOUND


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(3, 5),
       st.sampled_from(["P1", "P2", "P3", "P4", "M2", "M3", "S2", "S3", "C3", "C4", "2P2",
                        "P2+M1"]),
       st.integers(1, 3))
def test_matches_naive_witnesses(n, expr, limit):
    # the value, and the witnesses in the order the search meets them
    pat = parse_pattern(expr)
    res = exact_turan(n, 3, pat, SearchOptions(witness_limit=limit))
    assert res.max_edges == naive_turan(n, 3, pat)
    assert [w.edges for w in res.witnesses] == naive_turan_witnesses(n, 3, pat, limit)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_naive_free_table_matches_subset_walk(n, r):
    # the oracle's superset closure against a walk over the q-subsets of
    # every subset of candidates
    for expr in ("P2", "M2", "P3", "C3", "2P2"):
        pat = parse_pattern(expr)
        candidates, free = _naive_free_table(n, r, pat)
        m, q = len(candidates), pat.num_edges
        assert len(free) == 1 << m
        hosting = {}
        for mask in range(1 << m):
            chosen = [j for j in range(m) if mask >> j & 1]
            want = True
            for combo in combinations(chosen, q):
                if combo not in hosting:
                    sub = Hypergraph(n=n, r=r, edges=tuple(candidates[j] for j in combo))
                    hosting[combo] = naive_contains(sub, pat)
                if hosting[combo]:
                    want = False
                    break
            assert bool(free[mask]) is want, (n, r, expr, mask)


def _saturated_by_every_rset(h, pattern):
    """The saturation check with one pinned check per absent r-set, in
    lexicographic order, stopping at the first that creates no copy."""
    masks = h.edge_vertex_masks()
    present = set(h.edges)
    return all(search._pinned_copy(masks + [sum(1 << (v - 1) for v in e)], pattern)
               for e in combinations(range(1, h.n + 1), h.r) if e not in present)


# (r, k, ell) -> the largest n compared, at most 20, over the extremal
# constructions that fit.  A host that is not saturated stops the
# unreduced loop within 35 checks, but a saturated one costs it a check per
# absent r-set, so each row stops where the loop stays cheap; 2P6 runs to
# its first saturated host, n=14 (3 s).  The first saturated hosts of 2P7,
# 2P8, 3P4 and 3P5, and of 2P6, 3P3 and 3P4 at r=4, cost it 2-60 s, so
# those rows stop below them, and the r=4 rows of 3P6-3P8 are left out.
SATURATION_ROWS = {
    **{(2, 1, ell): 14 for ell in range(3, 9)},
    **{(2, 2, ell): 16 for ell in range(1, 8)}, (2, 2, 8): 18,
    **{(2, 3, ell): 18 for ell in range(1, 9)},
    **{(3, 1, ell): 13 for ell in range(5, 9)},
    (3, 2, 3): 13, (3, 2, 4): 12, (3, 2, 5): 13, (3, 2, 6): 14, (3, 2, 7): 15, (3, 2, 8): 17,
    (3, 3, 2): 20, (3, 3, 3): 13, (3, 3, 4): 14, (3, 3, 5): 17,
    **{(3, 3, ell): 20 for ell in range(6, 9)},
    (4, 1, 7): 20, (4, 1, 8): 20, (4, 2, 3): 12, (4, 2, 4): 20, (4, 2, 5): 11,
    (4, 2, 6): 13, (4, 2, 7): 15, (4, 2, 8): 17, (4, 3, 3): 11, (4, 3, 4): 14, (4, 3, 5): 17,
}


def _greedy_free_hosts():
    """Greedy maximal free 3-graphs on 6 vertices, each then with up to two
    edges dropped, with their patterns."""
    rng = random.Random(515151)
    triples = list(combinations(range(1, 7), 3))
    for _ in range(12):
        pat = parse_pattern(rng.choice(["P2", "P3", "M2", "2P2", "P2+M1", "C3"]))
        edges = []
        for e in rng.sample(triples, len(triples)):
            if not naive_contains(make_hypergraph(3, 6, edges + [list(e)]), pat):
                edges.append(list(e))
        for drop in range(3):
            kept = rng.sample(edges, len(edges) - min(drop, len(edges) - 1))
            yield make_hypergraph(3, 6, kept), pat


class TestMaximality:
    def test_complete_host_is_maximal(self):
        h = make_hypergraph(3, 4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        assert is_maximal_free(h, parse_pattern("P4"))

    def test_two_disjoint_triples_maximal_for_p2(self):
        h = make_hypergraph(3, 6, [[1, 2, 3], [4, 5, 6]])
        assert is_maximal_free(h, parse_pattern("P2"))

    def test_single_triple_not_maximal(self):
        h = make_hypergraph(3, 6, [[1, 2, 3]])
        assert not is_maximal_free(h, parse_pattern("P2"))

    def test_rejects_non_free_host(self):
        h = make_hypergraph(3, 6, [[1, 2, 3], [3, 4, 5]])
        with pytest.raises(HostNotFree):
            is_maximal_free(h, parse_pattern("P2"))

    def test_extremal_construction_is_saturated(self):
        # every absent triple of the n=13 construction creates a Berge 2P5;
        # with one hyperedge deleted the host stays free and re-adding that
        # hyperedge creates none
        h, _ = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
        pattern = parse_pattern("2P5")
        assert is_maximal_free(h, pattern)
        cut = make_hypergraph(3, 13, [list(e) for e in h.edges[1:]])
        assert find_berge_embedding(cut, pattern).status is Status.NOT_FOUND
        assert not is_maximal_free(cut, pattern)

    @pytest.mark.parametrize("r,k,ell", list(SATURATION_ROWS),
                             ids=[f"r{r}-{k}P{ell}" for r, k, ell in SATURATION_ROWS])
    def test_orbits_match_every_rset_on_constructions(self, r, k, ell):
        pattern = disjoint_paths_pattern(k, ell)
        seen = []
        for n in range(r, SATURATION_ROWS[r, k, ell] + 1):
            try:
                h, _ = extremal_construction(FormulaParams(n=n, r=r, ell=ell, k=k))
            except ParamsOutOfRange:
                continue
            saturated = is_maximal_free(h, pattern)
            assert saturated == _saturated_by_every_rset(h, pattern), n
            seen.append(saturated)
        assert seen

    def test_matches_naive_extension(self):
        seen = set()
        for h, pat in _greedy_free_hosts():
            naive = all(
                naive_contains(make_hypergraph(3, 6, list(h.edges) + [e]), pat)
                for e in combinations(range(1, 7), 3) if e not in h.edges
            )
            assert is_maximal_free(h, pat) == naive, (h.edges, pat.expr)
            seen.add(naive)
        assert seen == {True, False}

    def test_orbits_match_every_rset_on_the_corpus(self):
        # the hosts of the tests above, the cut construction among them, and
        # greedy maximal free subhosts of complete blocks, which keep large
        # twin classes, then with one edge dropped
        h13, _ = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
        corpus = [
            (make_hypergraph(3, 4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]), "P4"),
            (make_hypergraph(3, 6, [[1, 2, 3], [4, 5, 6]]), "P2"),
            (make_hypergraph(3, 6, [[1, 2, 3]]), "P2"),
            (h13, "2P5"),
            (make_hypergraph(3, 13, [list(e) for e in h13.edges[1:]]), "2P5"),
        ]
        corpus = [(h, parse_pattern(expr)) for h, expr in corpus] + list(_greedy_free_hosts())
        rng = random.Random(717171)
        for _ in range(40):
            r = rng.choice((2, 3, 4))
            h = symmetric_hypergraph(rng, rng.randint(r + 2, 9), r)
            pat = parse_pattern(rng.choice(["P2", "P3", "M2", "2P2", "C3", "S3"]))
            edges = []
            for e in h.edges:
                grown = make_hypergraph(r, h.n, edges + [e])
                if find_berge_embedding(grown, pat).status is Status.NOT_FOUND:
                    edges.append(e)
            corpus.append((make_hypergraph(r, h.n, edges), pat))
            corpus.append((make_hypergraph(r, h.n, edges[1:] or edges), pat))
        seen = set()
        for h, pat in corpus:
            saturated = is_maximal_free(h, pat)
            assert saturated == _saturated_by_every_rset(h, pat), (h, pat.expr)
            seen.add(saturated)
        assert seen == {True, False}


class TestCompareWithFormula:
    def test_search_never_below_construction(self):
        rep = compare_with_formula(7, 3, 2, 3)
        assert rep.search_value >= rep.formula_value
        assert rep.construction_edges == rep.formula_value

    def test_construction_absent_at_tiny_n(self):
        rep = compare_with_formula(5, 3, 2, 3, SearchOptions(max_candidates=16))
        assert rep.construction_edges is None
        assert rep.flag == "construction-absent"

    @pytest.mark.parametrize("connected_only,given", [(False, None), (True, None),
                                                     (False, ((1, 2, 3),))])
    def test_construction_seeds_only_a_missing_witness(self, monkeypatch, connected_only, given):
        calls = []
        real = search.exact_turan

        def recording(n, r, pattern, opts):
            calls.append(opts)
            return real(n, r, pattern, opts)

        monkeypatch.setattr(search, "exact_turan", recording)
        witness = given and make_hypergraph(3, 7, given)
        opts = SearchOptions(connected_only=connected_only, node_budget=500, witness_limit=2,
                             max_candidates=40, initial_witness=witness)
        compare_with_formula(7, 3, 2, 3, opts)
        (used,) = calls
        built, _ = extremal_construction(FormulaParams(n=7, r=3, ell=3, k=2))
        seeded = not connected_only and given is None
        assert used.initial_witness == (built if seeded else witness)
        assert (used.connected_only, used.node_budget, used.witness_limit, used.max_candidates) \
            == (connected_only, 500, 2, 40)
        assert opts.initial_witness is witness

    def test_csv_row_shape(self):
        rep = compare_with_formula(7, 3, 2, 3)
        row = rep.csv_row()
        assert row[0] == 7 and len(row) == 9
