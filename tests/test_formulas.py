import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergeturan import (
    FormulaParams,
    berge_kpl_turan,
    berge_path_bound,
    conjecture_values,
    connected_berge_path_turan,
    default_grid,
    erdos_gallai_bound,
    kpl_graph_turan,
    two_path_turan,
    verify_lemma,
)
from bergeturan.errors import GridOutsideHypotheses, OutsideTheoremRange, ParamsOutOfRange
from bergeturan.formulas import LEMMAS, _i5_sides
from oracles import LEMMA_SIDES, naive_verify


class TestErdosGallai:
    def test_values(self):
        assert erdos_gallai_bound(10, 3) == 10
        assert erdos_gallai_bound(7, 4) == Fraction(21, 2)
        assert erdos_gallai_bound(9, 1) == 0


class TestKplGraph:
    def test_odd_length(self):
        res = kpl_graph_turan(100, 2, 3)
        assert res.value == 3 * (100 - 3) + 3

    def test_even_length_adds_one(self):
        assert kpl_graph_turan(100, 2, 4).value == 3 * (100 - 3) + 3 + 1

    def test_threshold(self):
        assert kpl_graph_turan(100, 2, 3).threshold_n0 == 8 + 288
        assert not kpl_graph_turan(100, 2, 3).valid
        assert kpl_graph_turan(296, 2, 3).valid

    def test_range(self):
        with pytest.raises(ParamsOutOfRange):
            kpl_graph_turan(10, 1, 3)


class TestBergePathBound:
    def test_long_path_case(self):
        res = berge_path_bound(8, 3, 4)
        assert res.value == 8
        assert res.case == "long-path"

    def test_short_path_case(self):
        res = berge_path_bound(8, 4, 3)
        assert res.value == Fraction(16, 5)
        assert res.case == "short-path"

    def test_boundary_r_equals_ell_routes_short(self):
        res = berge_path_bound(8, 3, 3)
        assert res.value == 4
        assert res.case == "short-path"

    def test_boundary_ell_equals_r_plus_one_routes_long(self):
        assert berge_path_bound(12, 3, 4).case == "long-path"

    def test_outside_range(self):
        with pytest.raises(OutsideTheoremRange):
            berge_path_bound(8, 2, 3)  # r+1 = 3 fails the > 3 gate of the long case


class TestConnectedPath:
    def test_odd(self):
        res = connected_berge_path_turan(100, 3, 19)
        assert res.value == 36 * (100 - 9) + 84

    def test_even_adds_lower_binomial(self):
        assert connected_berge_path_turan(100, 3, 20).value == 36 * 91 + 84 + 9

    def test_gate(self):
        with pytest.raises(OutsideTheoremRange):
            connected_berge_path_turan(100, 3, 18)


class TestTwoPath:
    def test_equal_odd_lengths_match_pair_formula(self):
        for n in (500, 1000):
            res = two_path_turan(n, 3, 9, 9)
            pair = berge_kpl_turan(FormulaParams(n=n, r=3, ell=9, k=2))
            assert res.value == pair.value
            assert res.binomial_part >= res.path_bound_part

    def test_explicit_value(self):
        res = two_path_turan(1000, 3, 9, 9)
        assert res.binomial_part == comb(9, 2) * (1000 - 9) + comb(9, 3)

    def test_parity_gate(self):
        with pytest.raises(OutsideTheoremRange):
            two_path_turan(1000, 3, 10, 9)
        with pytest.raises(OutsideTheoremRange):
            two_path_turan(1000, 3, 9, 8)

    def test_single_edge_case(self):
        res = two_path_turan(1000, 3, 17, 1)
        assert res.case == "path-plus-edge"
        assert res.binomial_part == comb(9, 2) * (1000 - 8) + comb(9, 3)
        with pytest.raises(OutsideTheoremRange):
            two_path_turan(1000, 3, 15, 1)


class TestBergeKpl:
    def test_even_example(self):
        res = berge_kpl_turan(FormulaParams(n=50, r=3, ell=6, k=2))
        assert res.value == 10 * 50 - 35

    def test_odd_example(self):
        res = berge_kpl_turan(FormulaParams(n=50, r=3, ell=5, k=2))
        assert res.value == 10 * 50 - 40

    def test_always_evaluates_with_flag(self):
        res = berge_kpl_turan(FormulaParams(n=10, r=3, ell=5, k=2))
        assert not res.hypothesis_ok
        assert "2*ell' >= r+7" in res.hypothesis_failures
        ok = berge_kpl_turan(FormulaParams(n=1000, r=3, ell=19, k=2))
        assert ok.hypothesis_ok

    def test_single_core_shape_matches_connected_formula(self):
        # with k = 1 the core has ell'-1 vertices: same shape as the
        # connected single-path formula
        for r in (3, 4):
            for ell in range(2 * r + 13, 2 * r + 21):
                n = 500
                a = berge_kpl_turan(FormulaParams(n=n, r=r, ell=ell, k=1)).value
                b = connected_berge_path_turan(n, r, ell).value
                assert a == b

    def test_no_overflow_at_large_scale(self):
        res = berge_kpl_turan(FormulaParams(n=10**6, r=5, ell=10**3, k=3))
        assert res.value > 0
        assert isinstance(res.value, int)


class TestConjectures:
    def test_all_odd_drops_indicator(self):
        rep = conjecture_values(100, 3, [5, 7])
        assert rep.forest_indicator == 0
        s = 3 + 4
        assert rep.forest_value == comb(s - 1, 2) * (100 - s + 1) + comb(s - 1, 3)

    def test_any_even_raises_indicator(self):
        rep = conjecture_values(100, 3, [5, 6])
        assert rep.forest_indicator == 1
        s, t = 3 + 3, 5 + 6
        expected = comb(s - 1, 2) * (100 - s + 1) + comb(s - 1, 3) + comb(t - 1, 1)
        assert rep.forest_value == expected

    def test_uniform_list_evaluated_as_printed(self):
        rep = conjecture_values(100, 3, [5, 5])
        pair = berge_kpl_turan(FormulaParams(n=100, r=3, ell=5, k=2)).value
        # printed uniform formula multiplies by (n - k*ell'): one core-binomial less
        assert rep.uniform_value == pair - comb(5, 2)
        assert rep.notes

    def test_parameter_gate(self):
        with pytest.raises(ParamsOutOfRange):
            conjecture_values(100, 3, [5])
        with pytest.raises(ParamsOutOfRange):
            conjecture_values(100, 3, [5, 2])


class TestLemmaGrids:
    def test_all_hold_with_positive_margin(self):
        for lemma_id in sorted(LEMMAS):
            report = verify_lemma(lemma_id)
            assert report.violations == ()
            assert report.margin_min > 0

    def test_frozen_minimum_slacks(self):
        # exact rational margins over the default grids
        assert verify_lemma("I1").margin_min == Fraction(2, 3)
        assert verify_lemma("I2").margin_min == Fraction(7, 2)
        assert verify_lemma("I3").margin_min == Fraction(3, 2)
        assert verify_lemma("I4").margin_min == 4
        assert verify_lemma("I5").margin_min == 2

    def test_single_point_values(self):
        rep = verify_lemma("I1", [(3, 3)])
        _, lhs, rhs, slack = rep.rows[0]
        assert (lhs, rhs, slack) == (10, Fraction(28, 3), Fraction(2, 3))
        rep = verify_lemma("I4", [(3, 2, 3)])
        _, lhs, rhs, slack = rep.rows[0]
        assert (lhs, rhs, slack) == (10, 6, 4)
        rep = verify_lemma("I3", [(3, 3, 3)])
        _, lhs, rhs, slack = rep.rows[0]
        assert slack == Fraction(3, 2)

    def test_grid_hypotheses_enforced(self):
        with pytest.raises(GridOutsideHypotheses):
            verify_lemma("I1", [(3, 2)])
        with pytest.raises(GridOutsideHypotheses):
            verify_lemma("I3", [(3, 2, 5)])

    @pytest.mark.parametrize("lemma_id,pt", [
        ("I1", (3.0, 3.0)), ("I1", ("3", 3)), ("I1", (3, True)), ("I4", (3, 2, 3.0)),
        ("I5", (3, 2, 7.5)),
    ])
    def test_non_integer_points_raise_typed_error(self, lemma_id, pt):
        with pytest.raises(GridOutsideHypotheses, match=re.escape(str(pt))):
            verify_lemma(lemma_id, [(3, 3) if lemma_id == "I1" else (3, 2, 5), pt])

    @pytest.mark.parametrize("grid", [5, [3], [(3, 3), None]])
    def test_non_sequence_grids_raise_typed_error(self, grid):
        with pytest.raises(GridOutsideHypotheses):
            verify_lemma("I1", grid)

    def test_reports_on_one_grid_are_equal(self):
        a, b = verify_lemma("I3"), verify_lemma("I3")
        assert a == b
        # rows are built on read, and are not part of equality
        assert len(a.rows) == len(a.grid)
        assert a == b
        assert verify_lemma("I3", default_grid("I3")[:-1]) != b

    def test_report_repr_omits_scaled_and_rows_build_on_read(self):
        rep = verify_lemma("I1", [(3, 3)])
        assert repr(rep) == ("LemmaReport(lemma_id='I1', grid=((3, 3),), violations=(), "
                             "margin_min=Fraction(2, 3), strict=True)")
        assert "rows" not in vars(rep)
        rows = rep.rows
        assert rows == (((3, 3), Fraction(10), Fraction(28, 3), Fraction(2, 3)),)
        assert vars(rep)["rows"] is rows and rep.rows is rows

    def test_default_grid_ranges(self):
        grid = default_grid("I2")
        rs = {pt[0] for pt in grid}
        ks = {pt[1] for pt in grid}
        ls = {pt[2] for pt in grid}
        assert rs == set(range(3, 9))
        assert ks == set(range(2, 7))
        assert max(ls) == 30


class TestLemmaOracle:
    # the Fraction transcriptions of the statements in tests/oracles.py

    @pytest.mark.parametrize("pt,cap,first,second", [
        # k = 1 lies outside the hypotheses; there the second arm wins
        ((3, 1, 11), 10, 8, Fraction(35, 2)),
        ((3, 2, 7), 21, 18, Fraction(15, 2)),
    ])
    def test_i5_sides_take_the_max_of_both_printed_arms(self, pt, cap, first, second):
        r, k, l = pt
        L = (l + 1) // 2
        # max{C(kL-1, r-1) - C(kL-1, r-2)/2 + 1/2, C(l, r)/l + 5/2} < C(kL-1, r-1)
        assert Fraction(comb(k * L - 1, r - 1)) == cap
        assert comb(k * L - 1, r - 1) - Fraction(comb(k * L - 1, r - 2), 2) + Fraction(1, 2) == first
        assert Fraction(comb(l, r), l) + Fraction(5, 2) == second
        lhs, rhs, den = _i5_sides(*pt)
        assert den > 0
        assert (Fraction(lhs, den), Fraction(rhs, den)) == (cap, max(first, second))
        assert (Fraction(lhs, den), Fraction(rhs, den)) == LEMMA_SIDES["I5"][0](*pt)

    @pytest.mark.parametrize("axes", [(), (12, 10, 60)])
    @pytest.mark.parametrize("lemma_id", sorted(LEMMAS))
    def test_grids_match_fraction_oracle(self, lemma_id, axes):
        grid = default_grid(lemma_id, *axes)
        rep = verify_lemma(lemma_id, grid if axes else None)
        rows, violations, margin = naive_verify(lemma_id, grid)
        assert rep.grid == grid
        assert rep.rows == rows
        assert all(type(value) is Fraction for row in rep.rows for value in row[1:])
        assert rep.violations == violations
        assert rep.margin_min == margin

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_random_points_match_fraction_oracle(self, data):
        lemma_id = data.draw(st.sampled_from(sorted(LEMMAS)))

        def point():
            r = data.draw(st.integers(3, 20))
            if lemma_id == "I1":
                return r, data.draw(st.integers(r, 200))
            k = data.draw(st.integers(3 if lemma_id == "I3" else 2, 12))
            low = max(5, 2 * r - 1) if lemma_id == "I5" else r
            return r, k, data.draw(st.integers(low, 200))

        grid = [point() for _ in range(data.draw(st.integers(1, 4)))]
        rep = verify_lemma(lemma_id, grid)
        rows, violations, margin = naive_verify(lemma_id, grid)
        assert rep.rows == rows
        assert rep.violations == violations
        assert rep.margin_min == margin
