"""The single embedding kernel: its report and the call path to it."""

import json

from bergeturan import (
    SearchOptions,
    _engine_py,
    exact_turan,
    find_berge_embedding,
    longest_berge_path,
    parse_pattern,
    search,
)
from bergeturan.cli import main
from bergeturan.core import FormulaParams
from bergeturan.constructions import block_construction, extremal_construction


def test_backend_report():
    from bergeturan import backend_name, compiled_available
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
    # pinned checks during the search plus one freeness re-check per witness
    assert len(result.witnesses) == 2 and all(pinned)
    assert len(calls) == len(pinned) + len(result.witnesses)


def test_short_covered_hosts_stop_at_zero_nodes(monkeypatch):
    # 2P2 has 6 vertices; a pinned query on a host covering fewer is
    # refuted before any vertex is placed
    calls = []
    real = _engine_py.solve

    def recording(n, edge_masks, *args):
        out = real(n, edge_masks, *args)
        covered = 0
        for em in edge_masks:
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
