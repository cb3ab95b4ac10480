import json
import os
import random
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import pytest

from bergeturan import (
    BergeCertificate,
    Status,
    berge_common_neighbours,
    berge_star_exists,
    cycle_pattern,
    find_berge_cycle,
    find_berge_embedding,
    longest_berge_path,
    make_hypergraph,
    parse_pattern,
    verify_certificate,
)
from bergeturan.cli import main
from bergeturan.core import FormulaParams, write_hypergraph
from bergeturan.constructions import extremal_construction
from bergeturan.errors import (
    BadParameters,
    EmptyHypergraph,
    FormatError,
    IndexOutOfRange,
    InvalidCycleLength,
    V0TooSmall,
)
from bergeturan.search import _pattern_edge_orbits
from oracles import brute_bcn, brute_star, naive_contains, naive_edge_orbits, random_hypergraph

K4_TRIPLES = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
SRC = Path(__file__).resolve().parents[1] / "src"


def _star_corpus(seed, hosts):
    """Seeded (host, centre, size) queries: random hosts with r = 2..4,
    every centre, a size of r+1 to r+3."""
    rng = random.Random(seed)
    for _ in range(hosts):
        r = rng.randint(2, 4)
        n = rng.randint(r + 2, 10)
        h = random_hypergraph(rng, n, r, rng.randint(1, 24))
        for centre in range(1, n + 1):
            yield h, centre, r + rng.randint(1, 3)


class TestFindEmbedding:
    def test_two_intersecting_edges_host_p2(self):
        h = make_hypergraph(3, 5, [[1, 2, 3], [3, 4, 5]])
        res = find_berge_embedding(h, parse_pattern("P2"))
        assert res.status is Status.FOUND
        assert verify_certificate(h, res.certificate)

    def test_p3_in_three_page_book(self):
        h = make_hypergraph(3, 5, [[1, 2, 3], [1, 2, 4], [1, 2, 5]])
        res = find_berge_embedding(h, parse_pattern("P3"))
        assert res.status is Status.FOUND
        assert verify_certificate(h, res.certificate)
        assert naive_contains(h, parse_pattern("P3"))

    def test_p4_needs_four_edges(self):
        h = make_hypergraph(3, 5, [[1, 2, 3], [1, 2, 4], [1, 2, 5]])
        assert find_berge_embedding(h, parse_pattern("P4")).status is Status.NOT_FOUND

    def test_budget_yields_indeterminate_not_false_negative(self):
        h, _ = extremal_construction(FormulaParams(n=13, r=3, ell=5, k=2))
        res = find_berge_embedding(h, parse_pattern("2P5"), budget=10)
        assert res.status is Status.INDETERMINATE
        assert res.certificate is None
        assert res.nodes >= 10

    def test_deep_patterns_answer(self, capsys, tmp_path):
        # the search keeps its placed positions and augmenting paths on
        # explicit stacks, so the pattern's length is no depth limit
        h = make_hypergraph(2, 1300, [[v, v + 1] for v in range(1, 1300)])
        res = find_berge_embedding(h, parse_pattern("P900"))
        assert res.status is Status.FOUND and res.nodes == 767_248
        assert verify_certificate(h, res.certificate)
        res = find_berge_embedding(h, parse_pattern("P1200"))
        assert res.status is Status.FOUND and res.nodes == 842_998
        assert verify_certificate(h, res.certificate)
        path = tmp_path / "path.hg"
        path.write_text(write_hypergraph(h))
        capsys.readouterr()
        assert main(["check", str(path), "-F", "P1200"]) == 1
        assert "CONTAINS" in capsys.readouterr().out

    def test_deep_answers_do_not_depend_on_the_stack(self):
        # the answers above, and a star whose augmenting paths run 1,200
        # edges deep, in a child interpreter that allows 150 frames
        code = """
import sys
from bergeturan import (berge_star_exists, find_berge_embedding, make_hypergraph,
                        parse_pattern, verify_certificate)
path = make_hypergraph(2, 1300, [[v, v + 1] for v in range(1, 1300)])
chain = make_hypergraph(3, 1202, [[1, i + 1, i + 2] for i in range(1, 1201)])
pattern = parse_pattern("P1200")
sys.setrecursionlimit(150)
res = find_berge_embedding(path, pattern)
star = berge_star_exists(chain, 1, 1200)
print(res.status.value, res.nodes, verify_certificate(path, res.certificate),
      star.exists, verify_certificate(chain, star.certificate))
"""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["found", "842998", "True", "True", "True"]

    def test_pigeonhole_refutations_are_exact(self):
        # too few host vertices or hyperedges: refuted without search
        h, _ = extremal_construction(FormulaParams(n=10, r=3, ell=5, k=2))
        res = find_berge_embedding(h, parse_pattern("2P5"), budget=10)
        assert res.status is Status.NOT_FOUND
        assert res.nodes == 0

    def test_fuzz_agreement_with_naive(self):
        rng = random.Random(90125)
        pats = [parse_pattern(e) for e in ["P1", "P2", "P3", "P4", "C3", "C4", "S2", "M2", "2P2"]]
        for _ in range(400):
            n = rng.randint(3, 7)
            r = min(rng.choice([2, 3, 3, 4]), n)
            h = random_hypergraph(rng, n, r, rng.randint(1, 7))
            pat = rng.choice(pats)
            res = find_berge_embedding(h, pat)
            assert (res.status is Status.FOUND) == naive_contains(h, pat)
            if res.certificate is not None:
                assert verify_certificate(h, res.certificate)

    def test_exhaustive_tiny_hosts_match_naive(self):
        # every host on 5 vertices with at most two triples, every small pattern
        from itertools import combinations
        triples = list(combinations(range(1, 6), 3))
        pats = [parse_pattern(e) for e in ["P1", "P2", "P3", "P4", "C3", "S2", "M2"]]
        hosts = [[t] for t in triples]
        hosts += [[a, b] for a, b in combinations(triples, 2)]
        for raw in hosts:
            h = make_hypergraph(3, 5, [list(e) for e in raw])
            for pat in pats:
                res = find_berge_embedding(h, pat)
                assert (res.status is Status.FOUND) == naive_contains(h, pat)

    def test_free_subhost_of_free_host(self):
        # freeness is downward closed in the edge set
        rng = random.Random(5150)
        pat = parse_pattern("P3")
        for _ in range(60):
            h = random_hypergraph(rng, 7, 3, 7)
            if find_berge_embedding(h, pat).status is Status.NOT_FOUND:
                sub = make_hypergraph(3, 7, [list(e) for e in h.edges[::2]])
                assert find_berge_embedding(sub, pat).status is Status.NOT_FOUND


class TestEdgeOrbits:
    def test_matches_naive_automorphism_group(self):
        for expr in ("P1", "P2", "P3", "P4", "P5", "P6", "C3", "C4", "C5", "C6",
                     "S3", "M3", "2P2", "2P3", "P2+M1", "C3+C3", "C3+C4"):
            pattern = parse_pattern(expr)
            assert _pattern_edge_orbits(pattern) == naive_edge_orbits(pattern), expr

    def test_unions_of_cycles_split_by_cycle_length(self):
        # every vertex has degree 2, so colour refinement leaves one colour
        # and only the kernel's NOT_FOUND answers keep cycles of different
        # lengths apart; more than 8 vertices, beyond naive_edge_orbits
        expected = {
            "C4+C4+C8": (tuple(range(8)), tuple(range(8, 16))),
            "C3+C3+C6": (tuple(range(6)), tuple(range(6, 12))),
            "C5+C5+C5": (tuple(range(15)),),
            "C3+C4+C5+C3": ((0, 1, 2, 12, 13, 14), (3, 4, 5, 6), (7, 8, 9, 10, 11)),
        }
        for expr, orbits in expected.items():
            pattern = parse_pattern(expr)
            assert pattern.num_vertices > 8 and all(
                sum(v in e for e in pattern.edges) == 2 for v in range(1, pattern.num_vertices + 1))
            assert _pattern_edge_orbits.__wrapped__(pattern) == orbits, expr

    def test_disjoint_paths_fold_to_half_a_path(self):
        # Aut(kP_l) swaps the paths and reverses each, so edge i of a path
        # meets edge l-1-i of every path
        for k, ell in ((3, 10), (4, 12), (6, 20)):
            pattern = parse_pattern(f"{k}P{ell}")
            started = time.perf_counter()
            orbits = _pattern_edge_orbits.__wrapped__(pattern)
            assert time.perf_counter() - started < 0.5, pattern.expr
            assert len(orbits) == (ell + 1) // 2
            for orbit in orbits:
                i = orbit[0]
                assert orbit == tuple(sorted(
                    {c * ell + i for c in range(k)} | {c * ell + ell - 1 - i for c in range(k)}))


class TestVerifyCertificate:
    def setup_method(self):
        self.h = make_hypergraph(3, 5, [[1, 2, 3], [3, 4, 5]])
        self.good = find_berge_embedding(self.h, parse_pattern("P2")).certificate

    def test_accepts_valid(self):
        assert verify_certificate(self.h, self.good)

    def test_rejects_non_injective_assignment(self):
        cert = BergeCertificate(self.good.pattern, self.good.defining_vertices, (0, 0))
        assert not verify_certificate(self.h, cert)

    def test_rejects_containment_violation(self):
        # pattern edge (1,2) mapped to {3,4,5} but vertex 1 is not inside
        cert = BergeCertificate(self.good.pattern, (1, 3, 4), (1, 0))
        assert not verify_certificate(self.h, cert)

    def test_rejects_repeated_defining_vertices(self):
        cert = BergeCertificate(self.good.pattern, (3, 3, 4), self.good.edge_assignment)
        assert not verify_certificate(self.h, cert)

    def test_malformed_references_raise(self):
        with pytest.raises(IndexOutOfRange):
            verify_certificate(self.h, BergeCertificate(self.good.pattern, (1, 3, 9), (0, 1)))
        with pytest.raises(IndexOutOfRange):
            verify_certificate(self.h, BergeCertificate(self.good.pattern, (1, 3, 4), (0, 7)))
        with pytest.raises(IndexOutOfRange):
            verify_certificate(self.h, BergeCertificate(self.good.pattern, (1, 3), (0, 1)))

    def test_json_round_trip(self):
        text = self.good.to_json()
        doc = json.loads(text)
        assert doc["pattern"] == "P2"
        back = BergeCertificate.from_json(text)
        assert back == self.good
        assert verify_certificate(self.h, back)

    def test_json_dict_is_the_parsed_json(self):
        # the CLI embeds the dict in its --json documents, so it must be
        # what parsing the certificate's own JSON gives
        assert json.loads(self.good.to_json()) == self.good.to_json_dict()

    @pytest.mark.parametrize("text", [
        "{",
        "{}",
        "[]",
        "null",
        '{"pattern": "P2", "defining_vertices": [1, 2, 3], "edge_assignment": [[1, 2], [2, 3, 1]]}',
        '{"pattern": "P2", "defining_vertices": [1, 2, 3], "edge_assignment": [[1, 2, 0]]}',
        '{"pattern": "P2", "defining_vertices": [1, 2, 3], "edge_assignment": [[1, "2", 0], [2, 3, 1]]}',
        '{"pattern": "P2", "defining_vertices": [1, "a", 3], "edge_assignment": [[1, 2, 0], [2, 3, 1]]}',
        '{"pattern": "P2", "defining_vertices": 5, "edge_assignment": [[1, 2, 0], [2, 3, 1]]}',
        '{"pattern": "Q2", "defining_vertices": [1, 2, 3], "edge_assignment": [[1, 2, 0], [2, 3, 1]]}',
        '{"pattern": "C2", "defining_vertices": [1, 2], "edge_assignment": []}',
    ])
    def test_malformed_json_raises_format_error(self, text):
        with pytest.raises(FormatError):
            BergeCertificate.from_json(text)


class TestLongestPath:
    def test_complete_four_vertex_host(self):
        h = make_hypergraph(3, 4, K4_TRIPLES)
        res = longest_berge_path(h)
        assert res.length == 3
        assert res.exact
        assert verify_certificate(h, res.certificate)

    def test_single_edge(self):
        h = make_hypergraph(3, 3, [[1, 2, 3]])
        assert longest_berge_path(h).length == 1

    def test_empty_host_rejected(self):
        with pytest.raises(EmptyHypergraph):
            longest_berge_path(make_hypergraph(3, 3, []))

    def test_construction_path_cap(self):
        # vertices outside the core never share an edge, so the core must
        # cover any Berge path; a core of 5 caps the length at 10 < 12
        h, _ = extremal_construction(FormulaParams(n=12, r=3, ell=5, k=2))
        res = longest_berge_path(h)
        assert res.exact
        assert res.length == 10
        assert verify_certificate(h, res.certificate)

    def test_matches_embedding_scan_on_small_hosts(self):
        rng = random.Random(314)
        for _ in range(30):
            h = random_hypergraph(rng, 6, 3, rng.randint(1, 6))
            res = longest_berge_path(h)
            by_scan = 0
            for ell in range(1, 7):
                if find_berge_embedding(h, parse_pattern(f"P{ell}")).status is Status.FOUND:
                    by_scan = ell
            assert res.length == by_scan


class TestCycles:
    def test_triangle_in_complete_host(self):
        h = make_hypergraph(3, 4, K4_TRIPLES)
        res = find_berge_cycle(h, 3)
        assert res.status is Status.FOUND
        assert verify_certificate(h, res.certificate)

    def test_two_edges_cannot_host_triangle(self):
        h = make_hypergraph(3, 5, [[1, 2, 3], [3, 4, 5]])
        assert find_berge_cycle(h, 3).status is Status.NOT_FOUND

    def test_short_cycle_rejected(self):
        h = make_hypergraph(3, 4, K4_TRIPLES)
        with pytest.raises(InvalidCycleLength):
            find_berge_cycle(h, 2)

    def test_general_embedding_has_no_cycle_option(self):
        # every P2 here has an end below its centre, which a cycle rule
        # forcing the first image minimal would forbid; no such rule exists
        h = make_hypergraph(3, 6, [[1, 2, 3], [3, 5, 6], [4, 5, 6]])
        res = find_berge_embedding(h, parse_pattern("P2"))
        assert res.status is Status.FOUND
        assert verify_certificate(h, res.certificate)
        with pytest.raises(TypeError):
            find_berge_embedding(h, parse_pattern("P2"), cycle_sym=True)

    def test_cycle_found_iff_naive(self):
        rng = random.Random(2718)
        for _ in range(200):
            h = random_hypergraph(rng, 7, 3, rng.randint(3, 8))
            for length in (3, 4):
                res = find_berge_cycle(h, length)
                assert (res.status is Status.FOUND) == naive_contains(h, parse_pattern(f"C{length}"))

    def test_cycle_is_the_cycle_pattern_embedding(self):
        rng = random.Random(1414)
        seen = set()
        for _ in range(150):
            n = rng.randint(4, 8)
            r = min(rng.choice([2, 3, 3, 4]), n)
            h = random_hypergraph(rng, n, r, rng.randint(2, 9))
            length = rng.randint(3, 5)
            budget = rng.choice([0, 0, 5])
            res = find_berge_cycle(h, length, budget)
            assert res == find_berge_embedding(h, cycle_pattern(length), budget)
            seen.add(res.status)
        assert seen == set(Status)


class TestBCN:
    def test_direct_example(self):
        h = make_hypergraph(3, 5, [[1, 2, 5], [3, 4, 5]])
        assert berge_common_neighbours(h, [1, 3]) == frozenset({5})

    def test_single_edge_cannot_supply_two(self):
        h = make_hypergraph(3, 5, [[1, 2, 5]])
        assert berge_common_neighbours(h, [1, 2]) == frozenset()

    def test_pair_base_set(self):
        h = make_hypergraph(3, 4, [[1, 2, 3], [1, 2, 4]])
        assert berge_common_neighbours(h, [3, 4]) == frozenset({1, 2})

    def test_small_base_rejected(self):
        h = make_hypergraph(3, 4, [[1, 2, 3]])
        with pytest.raises(V0TooSmall):
            berge_common_neighbours(h, [1])

    def test_brute_force_agreement(self):
        rng = random.Random(1618)
        for _ in range(150):
            h = random_hypergraph(rng, rng.randint(4, 8), 3, rng.randint(2, 8))
            base = rng.sample(range(1, h.n + 1), rng.randint(2, 4))
            assert berge_common_neighbours(h, base) == brute_bcn(h, base)


class TestBergeStar:
    def test_high_degree_centre_has_star(self):
        # centre degree C(3,2)+1 = 4 with disjoint leaf pairs
        edges = [[9, 1, 2], [9, 3, 4], [9, 5, 6], [9, 7, 8]]
        h = make_hypergraph(3, 9, edges)
        res = berge_star_exists(h, 9, 4)
        assert res.degree_condition_holds
        assert res.exists
        assert verify_certificate(h, res.certificate)
        assert res.certificate.defining_vertices[0] == 9

    def test_isolated_centre(self):
        h = make_hypergraph(3, 5, [[1, 2, 3]])
        res = berge_star_exists(h, 5, 4)
        assert not res.exists
        assert res.degree == 0

    def test_too_few_leaves(self):
        h = make_hypergraph(3, 4, K4_TRIPLES)
        res = berge_star_exists(h, 1, 4)
        assert not res.exists
        assert res.degree == 3
        assert not res.degree_condition_holds

    def test_bad_parameters(self):
        h = make_hypergraph(3, 4, K4_TRIPLES)
        with pytest.raises(BadParameters):
            berge_star_exists(h, 1, 3)

    def test_degree_criterion_implies_existence(self):
        rng = random.Random(777)
        for _ in range(200):
            h = random_hypergraph(rng, rng.randint(5, 9), rng.choice([2, 3]), rng.randint(2, 10))
            size = h.r + rng.randint(1, 2)
            any_centre = False
            for centre in range(1, h.n + 1):
                res = berge_star_exists(h, centre, size)
                if res.degree_condition_holds:
                    assert res.exists
                if res.exists:
                    any_centre = True
                    assert verify_certificate(h, res.certificate)
            engine_found = find_berge_embedding(h, parse_pattern(f"S{size}")).status is Status.FOUND
            assert engine_found == any_centre

    def test_star_agrees_with_brute_force(self):
        seen = set()
        for h, centre, size in _star_corpus(31, 150):
            res = berge_star_exists(h, centre, size)
            assert res.exists == brute_star(h, centre, size), (h, centre, size)
            seen.add((h.r, res.exists))
        assert seen == {(r, exists) for r in (2, 3, 4) for exists in (True, False)}

    def test_star_results_keep_their_digest(self):
        # sha256 of the whole StarResult, certificates included, over
        # 4,450 queries (1,560 with a star), recorded by the matching that
        # recursed once per augmenting step
        digest = sha256()
        for h, centre, size in _star_corpus(2026, 600):
            digest.update(repr(berge_star_exists(h, centre, size)).encode() + b"\n")
        assert digest.hexdigest() == "90ef982cc57ac118af95321b914b14e0a0124fcf3912d129f666cb43a625499c"

    def test_long_augmenting_paths_answer(self, capsys, tmp_path):
        # in the chain {1, i+1, i+2}, leaf y first tries the hyperedge of
        # leaf y-1, so each augmenting path walks back to leaf 2
        h = make_hypergraph(3, 1202, [[1, i + 1, i + 2] for i in range(1, 1201)])
        res = berge_star_exists(h, 1, 1200)
        assert res.exists and verify_certificate(h, res.certificate)
        path = tmp_path / "chain.hg"
        path.write_text(write_hypergraph(h))
        capsys.readouterr()
        assert main(["star", str(path), "--centre", "1", "--size", "1200"]) == 0
        assert "exists: True" in capsys.readouterr().out
