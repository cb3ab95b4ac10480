import random
from itertools import product

import pytest

from bergeturan import (
    FormulaParams,
    Status,
    berge_kpl_turan,
    block_construction,
    construction_audit,
    extremal_construction,
    find_berge_embedding,
    make_hypergraph,
    parse_pattern,
    read_hypergraph,
    verify_certificate,
    write_hypergraph,
)
from bergeturan.core import Hypergraph
from bergeturan.errors import BlockTooSmall, DoesNotDivide, ParamsOutOfRange


class TestExtremalConstruction:
    def test_odd_length_counts(self):
        h, layout = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=2))
        assert h.m == 60
        assert layout.edge_classes == {"inside_core": 10, "one_outer": 50, "special_pair": 0}
        assert layout.special_pair is None

    def test_even_length_counts(self):
        h, layout = extremal_construction(FormulaParams(n=10, r=3, ell=6, k=2))
        assert h.m == 65
        assert layout.edge_classes["special_pair"] == 5
        assert layout.special_pair == (6, 7)

    def test_layout_split(self):
        _, layout = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
        assert layout.core_A == (1, 2, 3, 4, 5)
        assert layout.outer_B == tuple(range(6, 14))

    def test_edge_count_matches_formula_on_grid(self):
        for r in (3, 4, 5):
            for k in (1, 2, 3):
                for ell in range(r, 2 * r + 5):
                    lp = (ell + 1) // 2
                    for n in range(k * lp + r, k * lp + r + 13):
                        try:
                            p = FormulaParams(n=n, r=r, ell=ell, k=k)
                            h, _ = extremal_construction(p)
                        except ParamsOutOfRange:
                            continue
                        assert h.m == berge_kpl_turan(p).value

    def test_preconditions(self):
        with pytest.raises(ParamsOutOfRange):
            extremal_construction(FormulaParams(n=30, r=5, ell=5, k=1))  # core too small
        with pytest.raises(ParamsOutOfRange):
            extremal_construction(FormulaParams(n=6, r=3, ell=5, k=2))  # n too small

    def test_k1_flagged_as_extrapolation(self):
        _, layout = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=1))
        assert layout.k1_extrapolation
        assert not layout.theorem_hypothesis_holds

    def test_freeness_small_scale(self):
        for ell, expr in ((5, "2P5"), (6, "2P6")):
            h, _ = extremal_construction(FormulaParams(n=13, r=3, ell=ell, k=2))
            assert find_berge_embedding(h, parse_pattern(expr)).status is Status.NOT_FOUND
        for ell in (5, 6):
            h, _ = extremal_construction(FormulaParams(n=10, r=3, ell=ell, k=1))
            assert find_berge_embedding(h, parse_pattern(f"P{ell}")).status is Status.NOT_FOUND

    def test_even_length_freeness_searches(self):
        # 2P6 has 14 vertices, so the n=13 checks above finish at once; 2P4
        # has 10 and must be ruled out by a real search
        h, _ = extremal_construction(FormulaParams(n=13, r=4, ell=4, k=2))
        res = find_berge_embedding(h, parse_pattern("2P4"))
        assert res.status is Status.NOT_FOUND
        assert res.nodes > 0

    def test_exhaustive_node_count_ignores_labels(self):
        # a NOT_FOUND search expands one unused vertex of each twin class at
        # every feasible partial placement, so relabelling the host or adding
        # isolated vertices keeps its nodes
        h, _ = extremal_construction(FormulaParams(n=13, r=4, ell=4, k=2))
        pattern = parse_pattern("2P4")
        rng = random.Random(4)
        labellings = []
        for _ in range(2):
            perm = list(range(1, 14))
            rng.shuffle(perm)
            labellings.append((13, perm))
        # labels 1 and 8 of 1..15 stay isolated
        labellings.append((15, [v for v in range(1, 16) if v not in (1, 8)]))
        for n, labels in labellings:
            g = make_hypergraph(4, n, [[labels[v - 1] for v in e] for e in h.edges])
            res = find_berge_embedding(g, pattern)
            assert res.status is Status.NOT_FOUND
            assert res.nodes == 229

    @pytest.mark.parametrize("n, r, ell, k, edges, nodes", [
        (14, 3, 6, 2, 105, 2_820),
        (30, 3, 5, 3, 672, 2_386),
        (32, 4, 9, 2, 2_058, 3_981),
    ])
    def test_freeness_searches_at_scale(self, n, r, ell, k, edges, nodes):
        # kP_ell has k*(ell+1) <= n vertices, so absence needs a real search;
        # one more r-set inside B gives a copy the same search must find
        h, layout = extremal_construction(FormulaParams(n=n, r=r, ell=ell, k=k))
        pattern = parse_pattern(f"{k}P{ell}")
        assert h.m == edges and pattern.num_vertices <= n
        res = find_berge_embedding(h, pattern)
        assert res.status is Status.NOT_FOUND
        assert res.nodes == nodes
        g = make_hypergraph(r, n, [list(e) for e in h.edges] + [list(layout.outer_B[-r:])])
        control = find_berge_embedding(g, pattern)
        assert control.status is Status.FOUND
        assert verify_certificate(g, control.certificate)

    def test_contains_single_path_positive_control(self):
        h, _ = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
        res = find_berge_embedding(h, parse_pattern("P5"))
        assert res.status is Status.FOUND


class TestBlockConstruction:
    def test_two_blocks(self):
        h = block_construction(8, 4, 3)
        assert h.m == 8
        assert h.n == 8

    def test_single_block_complete(self):
        h = block_construction(4, 4, 3)
        assert h.m == 4

    def test_divisibility_enforced(self):
        with pytest.raises(DoesNotDivide):
            block_construction(9, 4, 3)
        with pytest.raises(BlockTooSmall):
            block_construction(8, 2, 3)

    def test_uniformity_and_order_checked_first(self):
        # r and n are checked as make_hypergraph checks them, before the
        # block size, which for r = 0 would otherwise divide by zero
        for n, block, r in ((0, 3, 3), (4, 2, 1), (4, 0, 0), (2, 4, 3), (-3, 3, 3)):
            with pytest.raises(ParamsOutOfRange):
                block_construction(n, block, r)

    def test_every_built_host_reads_back(self):
        built = 0
        for n, block, r in product(range(-1, 10), range(-1, 6), range(-1, 5)):
            try:
                h = block_construction(n, block, r)
            except (ParamsOutOfRange, BlockTooSmall, DoesNotDivide):
                continue
            built += 1
            assert read_hypergraph(write_hypergraph(h)) == h
        assert built >= 10

    def test_blocks_are_path_free(self):
        for n in (6, 9, 12):
            h = block_construction(n, 3, 3)
            assert find_berge_embedding(h, parse_pattern("P3")).status is Status.NOT_FOUND
        for n in (4, 8, 12):
            h = block_construction(n, 4, 3)
            assert find_berge_embedding(h, parse_pattern("P4")).status is Status.NOT_FOUND


class TestAudit:
    def test_passes_on_fresh_construction(self):
        h, layout = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=2))
        report = construction_audit(h, layout)
        assert report.passed
        assert report.unexpected_edges == 0

    def test_detects_deleted_edge(self):
        h, layout = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=2))
        dropped = next(e for e in h.edges if len(set(e) & set(layout.outer_B)) == 1)
        damaged = Hypergraph(n=h.n, r=h.r, edges=tuple(e for e in h.edges if e != dropped))
        report = construction_audit(damaged, layout)
        assert not report.passed
        assert not report.class_results["one_outer"][2]

    def test_even_case_class_sizes(self):
        h, layout = extremal_construction(FormulaParams(n=10, r=3, ell=6, k=2))
        report = construction_audit(h, layout)
        assert report.passed
        assert report.class_results["special_pair"][0] == 5

    def test_flags_foreign_edges(self):
        h, layout = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=2))
        foreign = make_hypergraph(3, 10, [list(e) for e in h.edges] + [[6, 7, 8]])
        report = construction_audit(foreign, layout)
        assert not report.passed
        assert report.unexpected_edges == 1
