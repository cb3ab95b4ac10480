import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    search,
)
from bergeturan.constructions import extremal_construction
from bergeturan.core import FormulaParams, Hypergraph
from bergeturan.errors import HostNotFree, ParamsOutOfRange, ScaleGuardExceeded
from oracles import (
    _naive_free_table,
    naive_contains,
    naive_turan,
    naive_turan_witnesses,
    random_hypergraph,
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
        res = exact_turan(6, 3, parse_pattern("2P2"), SearchOptions(node_budget=5))
        assert not res.exact
        assert res.max_edges >= 0
        # the budget counts tree nodes, not the pinned checks they run
        assert res.nodes_explored == 6
        assert res.pinned_calls > res.nodes_explored

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
        res = exact_turan(7, 3, parse_pattern("P4"))
        assert (res.max_edges, res.exact, res.nodes_explored) == (5, True, 550)

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
