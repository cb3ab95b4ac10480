import random
from itertools import combinations

import pytest

from bergeturan import (
    SearchOptions,
    Status,
    block_construction,
    compare_with_formula,
    exact_turan,
    find_berge_embedding,
    is_maximal_free,
    make_hypergraph,
    parse_pattern,
)
from bergeturan.errors import HostNotFree, ParamsOutOfRange, ScaleGuardExceeded
from oracles import naive_contains, naive_turan, random_hypergraph


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
        res = exact_turan(6, 3, parse_pattern("2P2"), SearchOptions(node_budget=5))
        assert not res.exact
        assert res.max_edges >= 0

    def test_scale_guard(self):
        with pytest.raises(ScaleGuardExceeded):
            exact_turan(12, 3, parse_pattern("P2"))
        with pytest.raises(ParamsOutOfRange):
            exact_turan(2, 3, parse_pattern("P2"))

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

    def test_matches_naive_extension(self):
        # greedy maximal free hosts, then with a few edges dropped
        rng = random.Random(515151)
        triples = list(combinations(range(1, 7), 3))
        seen = set()
        for _ in range(12):
            pat = parse_pattern(rng.choice(["P2", "P3", "M2", "2P2", "P2+M1", "C3"]))
            edges = []
            for e in rng.sample(triples, len(triples)):
                if not naive_contains(make_hypergraph(3, 6, edges + [list(e)]), pat):
                    edges.append(list(e))
            for drop in range(3):
                kept = rng.sample(edges, len(edges) - min(drop, len(edges) - 1))
                h = make_hypergraph(3, 6, kept)
                naive = all(
                    naive_contains(make_hypergraph(3, 6, kept + [list(e)]), pat)
                    for e in triples if list(e) not in kept
                )
                assert is_maximal_free(h, pat) == naive, (h.edges, pat.expr)
                seen.add(naive)
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

    def test_csv_row_shape(self):
        rep = compare_with_formula(7, 3, 2, 3)
        row = rep.csv_row()
        assert row[0] == 7 and len(row) == 9
