"""What each entry point loads: the lazy public API of the package and the
per-subcommand import sets of the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergeturan
from bergeturan import cli, constructions, core, formulas, search
from bergeturan.cli import build_parser, main
from bergeturan.formulas import LEMMAS

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name the package exported when its __init__ imported all
# submodules eagerly, less the kernel report (``backend_name`` and
# ``compiled_available``), which is read from ``bergeturan.engine``
EAGER_EXPORTS = sorted([
    "BergeCertificate", "EmbeddingResult", "GoodOrder", "PathSearchResult", "StarResult",
    "Status", "berge_common_neighbours", "berge_star_exists", "find_berge_cycle",
    "find_berge_embedding", "good_order", "longest_berge_path", "verify_certificate",
    "AuditReport", "ConstructionLayout", "block_construction", "construction_audit",
    "extremal_construction",
    "FormulaParams", "Hypergraph", "PatternGraph", "cycle_pattern", "disjoint_paths_pattern",
    "make_hypergraph", "matching_pattern", "parse_pattern", "path_pattern", "read_hypergraph",
    "star_pattern", "union_pattern", "write_hypergraph",
    "ConjectureReport", "LemmaReport", "berge_kpl_turan", "berge_path_bound",
    "conjecture_values", "connected_berge_path_turan", "default_grid", "erdos_gallai_bound",
    "kpl_graph_turan", "two_path_turan", "verify_lemma",
    "ComparisonReport", "SearchOptions", "SearchResult", "compare_with_formula",
    "exact_turan", "is_maximal_free",
])


class TestLazyPublicApi:
    def test_all_matches_the_eager_exports(self):
        assert sorted(bergeturan.__all__) == EAGER_EXPORTS

    def test_every_name_resolves_to_its_submodule_object(self):
        for name in bergeturan.__all__:
            value = getattr(bergeturan, name)
            module = sys.modules[value.__module__]
            assert getattr(module, name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bergeturan import *", namespace)
        assert set(bergeturan.__all__) <= set(namespace)
        assert namespace["find_berge_embedding"] is bergeturan.berge.find_berge_embedding

    def test_dir_lists_every_name(self):
        assert set(bergeturan.__all__) <= set(dir(bergeturan))
        assert "__version__" in dir(bergeturan)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bergeturan.no_such_name
        assert not hasattr(bergeturan, "no_such_name")


def _loaded_modules(*argv, cwd, entry=("-m", "bergeturan")):
    """The modules that ``python -m bergeturan ARGV`` imports, read from the
    interpreter's own ``-X importtime`` report; ``entry`` replaces
    ``-m bergeturan``, so ``entry=("-c", "pass")`` gives the modules a bare
    interpreter loads, site hooks included."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-B", "-X", "importtime", *entry, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


def _loaded_submodules(*argv, cwd):
    """The package modules among :func:`_loaded_modules`."""
    code, names = _loaded_modules(*argv, cwd=cwd)
    return code, {name for name in names if name.split(".")[0] == "bergeturan"}


# a run of every subcommand: its arguments, exit code, and whether it
# loads cli_extra
EVERY_COMMAND = [
    (("check", "h.hg", "-F", "P2"), 1, False),
    (("find", "h.hg", "-F", "P2"), 0, False),
    (("cycle", "h.hg", "--length", "3"), 1, False),
    (("longest-path", "h.hg"), 0, False),
    (("turan", "-n", "4", "-r", "3", "-F", "P2"), 0, False),
    (("construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2", "-o", "c.hg"), 0, True),
    (("block", "-n", "8", "-l", "4", "-r", "3"), 0, True),
    (("formula", "--name", "erdos-gallai", "-n", "10", "-l", "3"), 0, True),
    (("good-order", "h.hg", "--first", "1"), 0, True),
    (("bcn", "h.hg", "--vertices", "1,2"), 0, True),
    (("star", "h.hg", "--centre", "3", "--size", "4"), 1, True),
    (("verify-lemmas", "--lemma", "I1"), 0, True),
    (("audit", "c.hg", "--layout", "c.hg.layout.json"), 0, True),
]


class TestSubcommandImports:
    def test_check_loads_only_the_kernel_path(self, tmp_path):
        host = tmp_path / "h.hg"
        host.write_text("3 5 2\n1 2 3\n3 4 5\n")
        code, loaded = _loaded_submodules("check", str(host), "-F", "P2", cwd=tmp_path)
        assert code == 1  # P2 is there: the command ran to its answer
        assert loaded == {"bergeturan", "bergeturan.cli", "bergeturan.core",
                          "bergeturan.errors", "bergeturan.berge", "bergeturan._engine_py",
                          "bergeturan.symmetry"}

    def test_json_is_imported_by_the_first_large_read(self, tmp_path):
        # importing core loads no json; a read of fewer than 64 edges loads
        # none either, and the first larger read imports it
        _, bare = _loaded_modules(cwd=tmp_path, entry=("-c", "pass"))
        assert "json" not in bare
        code, loaded = _loaded_modules(cwd=tmp_path, entry=("-c", "import bergeturan.core"))
        assert code == 0
        assert "json" not in loaded
        probe = ("import sys\n"
                 "from bergeturan.core import read_hypergraph\n"
                 "read_hypergraph('2 9 63\\n' + '1 2\\n' * 63)\n"
                 "assert 'json' not in sys.modules\n"
                 "read_hypergraph('2 9 64\\n' + '1 2\\n' * 64)\n"
                 "assert 'json' in sys.modules\n")
        code, _ = _loaded_modules(cwd=tmp_path, entry=("-c", probe))
        assert code == 0
        # check loads json for its own output, so the large read adds no
        # module to its import set
        host = tmp_path / "h.hg"
        host.write_text("3 5 2\n1 2 3\n3 4 5\n")
        code, loaded = _loaded_modules("check", str(host), "-F", "P2", cwd=tmp_path)
        assert code == 1
        assert "json" in loaded

    def test_core_loads_no_package_module_but_errors(self, tmp_path):
        # the reader, the patterns, the records and the edge masks load and
        # run without the twin code, a large read by JSON included
        probe = ("import sys\n"
                 "from itertools import combinations\n"
                 "from bergeturan.core import read_hypergraph\n"
                 "edges = list(combinations(range(1, 13), 3))\n"
                 "h = read_hypergraph('3 12 220\\n' + ''.join("
                 "' '.join(map(str, e)) + '\\n' for e in edges))\n"
                 "assert 'json' in sys.modules and '_label_columns' in vars(h)\n"
                 "assert h.edge_vertex_masks() == [sum(1 << v - 1 for v in e) for e in edges]\n"
                 "assert h.covered_vertices() == tuple(range(1, 13))\n")
        for code_text in ("import bergeturan.core", probe):
            code, loaded = _loaded_modules(cwd=tmp_path, entry=("-c", code_text))
            assert code == 0
            assert {name for name in loaded if name.split(".")[0] == "bergeturan"} == {
                "bergeturan", "bergeturan.core", "bergeturan.errors"}

    def test_symmetry_loads_no_other_package_module(self, tmp_path):
        # the kernel and orbits import symmetry, never the reverse
        code, loaded = _loaded_modules(cwd=tmp_path, entry=("-c", "import bergeturan.symmetry"))
        assert code == 0
        assert {name for name in loaded if name.split(".")[0] == "bergeturan"} == {
            "bergeturan", "bergeturan.symmetry"}

    def test_orbits_loads_no_package_module_but_symmetry(self, tmp_path):
        # so a checker of Turán answers can load it without the kernel or
        # the search
        code, loaded = _loaded_modules(cwd=tmp_path, entry=("-c", "import bergeturan.orbits"))
        assert code == 0
        assert {name for name in loaded if name.split(".")[0] == "bergeturan"} == {
            "bergeturan", "bergeturan.symmetry", "bergeturan.orbits"}

    def test_turan_loads_search_but_no_formulas(self, tmp_path):
        code, loaded = _loaded_submodules("turan", "-n", "4", "-r", "3", "-F", "P2",
                                          cwd=tmp_path)
        assert code == 0
        assert {"bergeturan.search", "bergeturan.orbits"} <= loaded
        assert not loaded & {"bergeturan.formulas", "bergeturan.constructions",
                             "bergeturan.cli_extra"}

    @pytest.mark.parametrize("argv,expected", [
        (("--help",), 0),
        (("--version",), 0),
        (("frobnicate",), 2),
        (("check", "h.hg"), 2),  # no -F: a usage error of one sub-parser
    ])
    def test_help_version_and_usage_errors_load_no_kernel(self, tmp_path, argv, expected):
        code, loaded = _loaded_submodules(*argv, cwd=tmp_path)
        assert code == expected
        assert "bergeturan.cli" in loaded
        assert not loaded & {"bergeturan.berge", "bergeturan.core", "bergeturan.symmetry",
                             "bergeturan._engine_py", "bergeturan.cli_extra"}

    @pytest.mark.parametrize("argv", [
        ("formula", "--name", "erdos-gallai", "-n", "10", "-l", "3"),
        ("verify-lemmas", "--lemma", "I1"),
    ])
    def test_commands_without_a_host_load_no_kernel(self, tmp_path, argv):
        code, loaded = _loaded_submodules(*argv, cwd=tmp_path)
        assert code == 0
        assert {"bergeturan.formulas", "bergeturan.cli_extra"} <= loaded
        assert not loaded & {"bergeturan.berge", "bergeturan._engine_py",
                             "bergeturan.symmetry"}

    def test_verify_lemmas_loads_formulas(self, tmp_path):
        # the control: the report does show a module a command imports late
        code, loaded = _loaded_submodules("verify-lemmas", "--lemma", "I1", cwd=tmp_path)
        assert code == 0
        assert "bergeturan.formulas" in loaded
        assert "bergeturan.search" not in loaded

    @pytest.mark.parametrize("argv,expected", [
        (("check", "h.hg", "-F", "P2"), 1),
        (("longest-path", "h.hg"), 0),
    ])
    def test_host_commands_digest_without_hashlib(self, tmp_path, argv, expected):
        # the manifest digests the host with CPython's own SHA-256, not
        # OpenSSL's (_hashlib takes milliseconds to load); these commands
        # run no Turán search and report no backend module
        (tmp_path / "h.hg").write_text("3 5 2\n1 2 3\n3 4 5\n")
        code, loaded = _loaded_modules(*argv, cwd=tmp_path)
        assert code == expected
        assert loaded & {"_sha2", "_sha256"}
        assert not loaded & {"hashlib", "_hashlib", "bergeturan.orbits", "bergeturan.engine",
                             "bergeturan.cli_extra"}

    @pytest.mark.parametrize("argv,expected,extra", EVERY_COMMAND,
                             ids=[row[0][0] for row in EVERY_COMMAND])
    def test_only_the_other_commands_load_cli_extra(self, tmp_path, argv, expected, extra):
        # the handlers of construct, block, formula, good-order, bcn, star,
        # verify-lemmas and audit live in cli_extra, which the parser and
        # the other commands never import; audit reads the construction
        # that construct writes
        (tmp_path / "h.hg").write_text("3 5 2\n1 2 3\n3 4 5\n")
        assert main(["construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2",
                     "-o", str(tmp_path / "c.hg")]) == 0
        code, loaded = _loaded_submodules(*argv, cwd=tmp_path)
        assert code == expected
        assert ("bergeturan.cli_extra" in loaded) is extra

    def test_no_command_loads_dataclasses(self, tmp_path):
        # the result types are Records: importing dataclasses would bring in
        # inspect, ast, dis and tokenize, about 14 ms of every call; a
        # module the bare interpreter already loads costs a command nothing
        _, bare = _loaded_modules(cwd=tmp_path, entry=("-c", "pass"))
        host = tmp_path / "h.hg"
        host.write_text("3 5 2\n1 2 3\n3 4 5\n")
        for argv, expected in [(("check", str(host), "-F", "P2"), 1),
                               (("turan", "-n", "4", "-r", "3", "-F", "P2"), 0),
                               (("construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2",
                                 "-o", str(tmp_path / "c.hg")), 0)]:
            code, loaded = _loaded_modules(*argv, cwd=tmp_path)
            assert code == expected, argv
            assert "bergeturan.core" in loaded
            assert "dataclasses" not in loaded - bare, argv

    def test_lemma_choices_are_the_lemma_ids(self):
        subcommands = next(a for a in build_parser()._actions if a.dest == "subcommand")
        verify = subcommands.choices["verify-lemmas"]
        lemma = next(a for a in verify._actions if a.dest == "lemma")
        assert lemma.choices == ["all", *sorted(LEMMAS)]


# the names the benchmark's tracer (bench/tracer.py) looks up and re-binds
TRACED_ON_CLI = {"read_hypergraph": core, "write_hypergraph": core, "parse_pattern": core,
                 "extremal_construction": constructions, "block_construction": constructions,
                 "construction_audit": constructions, "exact_turan": search}
TRACED_ON_SEARCH = {"extremal_construction": constructions, "berge_kpl_turan": formulas}


# runs the commands named in argv[2] under the benchmark's tracer, with
# bench/ (argv[1]) on sys.path, and prints each one's exit code and the
# names of the spans it recorded
_TRACED_COMMANDS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from bergeturan import cli
t = tracer.Tracer()
tracer.install(t)
report = {}
for argv in json.loads(sys.argv[2]):
    start = len(t.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[argv[0]] = [code, sorted({span[0] for span in t.spans[start:]})]
print(json.dumps(report))
"""


class TestLateImports:
    def test_the_benchmark_tracer_finds_every_name_it_wraps(self, tmp_path):
        # tracer.install looks up every name it wraps, so a renamed one
        # fails here; the traced commands record kernel and embedding spans
        host = tmp_path / "h.hg"
        host.write_text("3 5 3\n1 2 3\n2 3 4\n3 4 5\n")
        commands = [["check", str(host), "-F", "P2"], ["cycle", str(host), "--length", "3"]]
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _TRACED_COMMANDS, str(SRC.parent / "bench"),
             json.dumps(commands)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["check"][0] == 1 and report["cycle"][0] == 0
        for _, names in report.values():
            assert {"engine.pure", "berge.find_berge_embedding"} <= set(names)

    def test_traced_names_resolve_on_the_importing_module(self):
        for module, names in ((cli, TRACED_ON_CLI), (search, TRACED_ON_SEARCH)):
            for name, source in names.items():
                assert getattr(module, name) is getattr(source, name)
            with pytest.raises(AttributeError):
                module.no_such_name

    @pytest.mark.parametrize("source,name,argv", [
        (constructions, "extremal_construction",
         ["construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2"]),
        (constructions, "block_construction", ["block", "-n", "8", "-l", "4", "-r", "3"]),
        (search, "exact_turan", ["turan", "-n", "4", "-r", "3", "-F", "P2"]),
        (formulas, "verify_lemma", ["verify-lemmas", "--lemma", "I1"]),
    ])
    def test_commands_call_the_defining_module(self, monkeypatch, capsys, source, name, argv):
        calls = []
        real = getattr(source, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(source, name, counting)
        assert main(argv) == 0
        assert calls == [name]

    def test_a_wrapper_bound_over_parse_pattern_is_the_one_that_runs(self, monkeypatch, capsys,
                                                                      tmp_path):
        # the tracer re-binds parse_pattern on core and on cli with setattr
        calls = []
        real = core.parse_pattern

        def counting(expr):
            calls.append(expr)
            return real(expr)

        # cli first: it resolves the name on core, and monkeypatch restores
        # what it resolved
        for module in (cli, core):
            monkeypatch.setattr(module, "parse_pattern", counting)
        host = tmp_path / "h.hg"
        host.write_text("3 4 1\n1 2 3\n")
        assert main(["check", str(host), "-F", "P1"]) == 1
        assert core.parse_pattern("P1") is real("P1")
        assert calls == ["P1", "P1"]

    @pytest.mark.parametrize("name,argv,expected", [
        ("read_hypergraph", ["check", "{dir}/h.hg", "-F", "P1"], 1),
        ("parse_pattern", ["check", "{dir}/h.hg", "-F", "P1"], 1),
        ("read_hypergraph", ["audit", "{dir}/c.hg"], 0),
        ("write_hypergraph", ["turan", "-n", "4", "-r", "3", "-F", "P2", "--out-dir", "{dir}"], 0),
    ])
    def test_names_wrapped_as_the_tracer_does_run_once_per_call(self, monkeypatch, capsys,
                                                                 tmp_path, name, argv, expected):
        # the tracer wraps the name on core, then wraps what cli resolves
        # for it; a command that runs core's wrapper records one call
        (tmp_path / "h.hg").write_text("3 4 1\n1 2 3\n")
        assert main(["construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2",
                     "-o", str(tmp_path / "c.hg")]) == 0
        calls = []

        def wrap(fn):
            def counting(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counting

        on_core = wrap(getattr(core, name))
        monkeypatch.setattr(cli, name, wrap(on_core))
        monkeypatch.setattr(core, name, on_core)
        assert main([arg.format(dir=tmp_path) for arg in argv]) == expected
        assert calls == [name]

    def test_audit_calls_the_defining_module(self, monkeypatch, capsys, tmp_path):
        host = str(tmp_path / "h.hg")
        assert main(["construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2", "-o", host]) == 0
        calls = []
        real = constructions.construction_audit

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(constructions, "construction_audit", counting)
        assert main(["audit", host]) == 0
        assert len(calls) == 1

    def test_compare_with_formula_calls_the_defining_modules(self, monkeypatch):
        calls = []
        for source, name in ((constructions, "extremal_construction"),
                             (formulas, "berge_kpl_turan")):
            def counting(*args, _real=getattr(source, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(source, name, counting)
        report = search.compare_with_formula(5, 3, 2, 3, search.SearchOptions(max_candidates=16))
        assert report.flag == "construction-absent"
        assert sorted(calls) == ["berge_kpl_turan", "extremal_construction"]
