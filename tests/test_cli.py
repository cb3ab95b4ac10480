"""End-to-end coverage of every documented CLI flag combination.

Each invocation runs in-process through ``cli.main``; tests assert the
exit code and validate machine output against the shipped JSON schemas.
"""

import csv
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from bergeturan import cli
from bergeturan.cli import build_parser, main
from bergeturan.core import _LARGE_HOST_EDGES, read_hypergraph
from bergeturan.formulas import default_grid
from oracles import naive_verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema(name):
    ref = resources.files("bergeturan") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def validate(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name))


def json_doc(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def host_file(tmp_path):
    path = tmp_path / "h.hg"
    code = main(["construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2", "-o", str(path)])
    assert code == 0
    return path


class TestConstructAndAudit:
    def test_construct_writes_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "c.hg"
        code, _ = run_cli(capsys, "construct", "-n", "10", "-r", "3", "-l", "5", "-k", "2",
                          "-o", str(out))
        assert code == 0
        assert out.exists()
        layout = json.loads((tmp_path / "c.hg.layout.json").read_text())
        assert layout["class_counts"]["one_outer"] == 50
        manifest = json.loads((tmp_path / "c.hg.manifest.json").read_text())
        validate(manifest, "manifest")
        assert manifest["subcommand"] == "construct"

    def test_construct_json_stdout(self, capsys):
        code, doc = json_doc(capsys, "construct", "-n", "10", "-r", "3", "-l", "6", "-k", "2",
                             "--json")
        assert code == 0
        validate(doc, "construct")
        validate(doc["manifest"], "manifest")
        assert doc["edges"] == 65

    def test_construct_rejects_bad_params(self, capsys):
        code, _ = run_cli(capsys, "construct", "-n", "4", "-r", "3", "-l", "5", "-k", "2")
        assert code == 2

    def test_block_json(self, capsys):
        code, doc = json_doc(capsys, "block", "-n", "8", "-l", "4", "-r", "3", "--json")
        assert code == 0
        validate(doc, "construct")
        assert doc["edges"] == 8

    def test_block_divisibility_error(self, capsys):
        code, _ = run_cli(capsys, "block", "-n", "9", "-l", "4", "-r", "3")
        assert code == 2

    def test_every_host_block_writes_reads_back(self, tmp_path, capsys):
        # r < 2, n < r, a block below r and a block that does not divide n
        # exit 2 and write nothing; every written host reads back
        written = 0
        for n, block, r in itertools.product(range(0, 7), range(0, 4), range(0, 4)):
            out = tmp_path / f"b{n}-{block}-{r}.hg"
            code, _ = run_cli(capsys, "block", "-n", str(n), "-l", str(block), "-r", str(r),
                              "-o", str(out))
            if code == 0:
                written += 1
                h = read_hypergraph(out.read_text())
                assert (h.n, h.r) == (n, r)
            else:
                assert code == 2 and not out.exists()
        assert written >= 5

    def test_audit_roundtrip(self, host_file, capsys):
        code, doc = json_doc(capsys, "audit", str(host_file), "--json")
        assert code == 0
        validate(doc, "audit")
        assert doc["passed"]

    def test_audit_detects_tampering(self, host_file, tmp_path, capsys):
        text = host_file.read_text().splitlines()
        header = text[0].split()
        header[2] = str(int(header[2]) - 1)
        tampered = tmp_path / "t.hg"
        tampered.write_text("\n".join([" ".join(header)] + text[1:-1]) + "\n")
        code, doc = json_doc(capsys, "audit", str(tampered),
                             "--layout", str(host_file) + ".layout.json", "--json")
        assert code == 1
        assert not doc["passed"]


    @pytest.mark.parametrize("layout", [
        '{"B": [1]}',
        "[1, 2]",
        '"A"',
        "{not json",
        '{"A": [1, "2"], "B": [3], "class_counts": {"inside_core": 0, "one_outer": 1,'
        ' "special_pair": 0}}',
        '{"A": [1, 2], "B": [3, 4], "special_pair": [3], "class_counts": {"inside_core": 0,'
        ' "one_outer": 2, "special_pair": 0}}',
        '{"A": [1, 2], "B": [3], "class_counts": {"inside_core": 1, "one_outer": 2}}',
        '{"A": [1, 2], "B": [3], "class_counts": [1, 2]}',
    ])
    def test_audit_malformed_layout_exit_two(self, host_file, tmp_path, capsys, layout):
        bad = tmp_path / "bad.layout.json"
        bad.write_text(layout)
        code = main(["audit", str(host_file), "--layout", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line ") and err.count("\n") == 1


class TestContainmentCommands:
    def test_check_free_exit_zero(self, host_file, capsys):
        code, out = run_cli(capsys, "check", str(host_file), "-F", "2P5")
        assert code == 0
        assert "FREE" in out

    def test_check_contains_exit_one(self, host_file, capsys):
        code, doc = json_doc(capsys, "check", str(host_file), "-F", "P5", "--json")
        assert code == 1
        validate(doc, "embedding")
        assert doc["status"] == "found"
        validate(doc["certificate"], "certificate")

    def test_check_budget_exit_three(self, host_file, capsys):
        # P5 needs six placements, so a three-node budget cannot conclude
        code, doc = json_doc(capsys, "check", str(host_file), "-F", "P5",
                             "--budget", "3", "--json")
        assert code == 3
        assert doc["status"] == "indeterminate"

    def test_find_found_exit_zero(self, host_file, capsys):
        code, doc = json_doc(capsys, "find", str(host_file), "-F", "P3", "--json")
        assert code == 0
        validate(doc, "embedding")

    def test_find_not_found_exit_one(self, host_file, capsys):
        code, doc = json_doc(capsys, "find", str(host_file), "-F", "2P5", "--json")
        assert code == 1
        assert doc["certificate"] is None

    def test_cycle(self, host_file, capsys):
        code, doc = json_doc(capsys, "cycle", str(host_file), "--length", "4", "--json")
        assert code == 0
        validate(doc, "embedding")

    def test_cycle_length_gate(self, host_file, capsys):
        code, _ = run_cli(capsys, "cycle", str(host_file), "--length", "2")
        assert code == 2

    def test_longest_path(self, host_file, capsys):
        code, doc = json_doc(capsys, "longest-path", str(host_file), "--json")
        assert code == 0
        validate(doc, "longest_path")
        assert doc["exact"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "check", "nope.hg", "-F", "P2")
        assert code == 2

    def test_bad_pattern_exit_two(self, host_file, capsys):
        code, _ = run_cli(capsys, "check", str(host_file), "-F", "Z9")
        assert code == 2

    def test_overlong_integer_exit_two(self, tmp_path, capsys):
        path = tmp_path / "long.hg"
        path.write_text("3 5 1\n1 2 " + "9" * 5000 + "\n")
        assert main(["check", str(path), "-F", "P2"]) == 2
        assert "line 2: integer longer than 4300 digits" in capsys.readouterr().err

    def test_overlong_integer_in_a_large_host_exit_two(self, tmp_path, capsys):
        # enough edges for the reader's distinct-label route
        m = _LARGE_HOST_EDGES
        lines = [f"{i} {i + 1} {i + 2}\n" for i in range(1, m + 1)]
        lines[m // 2] = "1 2 " + "9" * 5000 + "\n"
        path = tmp_path / "long.hg"
        path.write_text(f"3 {m + 2} {m}\n" + "".join(lines))
        assert main(["check", str(path), "-F", "P2"]) == 2
        assert f"line {m // 2 + 2}: integer longer than 4300 digits" in capsys.readouterr().err

    def test_crlf_host_reads_as_lf_and_digests_raw_bytes(self, host_file, tmp_path, capsys):
        raw = host_file.read_bytes().replace(b"\n", b"\r\n")
        crlf = tmp_path / "crlf.hg"
        crlf.write_bytes(raw)
        code, doc = json_doc(capsys, "check", str(crlf), "-F", "2P5", "--json")
        assert code == 0
        assert doc["free"]
        digests = doc["manifest"]["input_digests"]
        assert digests == {str(crlf): hashlib.sha256(raw).hexdigest()}

    def test_audit_digests_host_and_layout(self, host_file, capsys):
        code, doc = json_doc(capsys, "audit", str(host_file), "--json")
        assert code == 0
        layout = host_file.with_name(host_file.name + ".layout.json")
        assert doc["manifest"]["input_digests"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (host_file, layout)
        }

    @pytest.mark.parametrize("fallback", [False, True])
    def test_input_digests_are_sha256_with_or_without_the_builtin(self, monkeypatch, tmp_path,
                                                                  fallback):
        # CPython's own SHA-256 module gives the digest; hashlib runs only
        # where it does not import (a None in sys.modules makes it fail)
        rng = random.Random(7)
        inputs = {"empty": b"", "lf.hg": b"3 5 2\n1 2 3\n3 4 5\n",
                  "crlf.hg": b"3 5 2\r\n1 2 3\r\n3 4 5\r\n", "random": rng.randbytes(4099)}
        expected = {}
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
            expected[str(tmp_path / name)] = hashlib.sha256(data).hexdigest()
        calls = []
        real = hashlib.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        if fallback:
            for module in ("_sha2", "_sha256"):
                monkeypatch.setitem(sys.modules, module, None)
        run = cli._Run(None)
        for name in inputs:
            # the digest is taken from the bytes before they are decoded
            try:
                run.read_input(tmp_path / name)
            except UnicodeDecodeError:
                assert name == "random"
        assert run.inputs == expected
        assert calls == (list(inputs.values()) if fallback else [])


class TestVertexCommands:
    def test_good_order(self, host_file, capsys):
        code, doc = json_doc(capsys, "good-order", str(host_file), "--first", "3", "--json")
        assert code == 0
        validate(doc, "good_order")
        assert doc["ordering"][0] == 3

    def test_bcn(self, tmp_path, capsys):
        path = tmp_path / "b.hg"
        path.write_text("3 5 2\n1 2 5\n3 4 5\n")
        code, doc = json_doc(capsys, "bcn", str(path), "--vertices", "1,3", "--json")
        assert code == 0
        validate(doc, "bcn")
        assert doc["common_neighbours"] == [5]

    def test_star_exists(self, host_file, capsys):
        code, doc = json_doc(capsys, "star", str(host_file), "--centre", "1",
                             "--size", "4", "--json")
        assert code == 0
        validate(doc, "star")
        assert doc["exists"]

    def test_star_missing_exit_one(self, tmp_path, capsys):
        path = tmp_path / "s.hg"
        path.write_text("3 5 1\n1 2 3\n")
        code, doc = json_doc(capsys, "star", str(path), "--centre", "1",
                             "--size", "4", "--json")
        assert code == 1
        assert not doc["exists"]


class TestTuranCommand:
    def test_exact_run_with_witnesses(self, tmp_path, capsys):
        out_dir = tmp_path / "wit"
        code, doc = json_doc(capsys, "turan", "-n", "6", "-r", "3", "-F", "P2",
                             "--witnesses", "2", "--out-dir", str(out_dir), "--json")
        assert code == 0
        validate(doc, "turan")
        assert doc["max_edges"] == 2
        assert doc["answered_by"] == "levels"
        assert doc["witness_files"]
        first = (out_dir / "witness_0.hg").read_text()
        assert first.startswith("3 6 2")
        manifest = json.loads((out_dir / "witness_0.hg.manifest.json").read_text())
        validate(manifest, "manifest")

    def test_budget_exit_three(self, capsys):
        code, doc = json_doc(capsys, "turan", "-n", "6", "-r", "3", "-F", "2P2",
                             "--budget", "5", "--json")
        assert code == 3
        validate(doc, "turan")
        assert not doc["exact"]
        assert doc["nodes_explored"] == 6

    def test_connected_flag(self, capsys):
        code, doc = json_doc(capsys, "turan", "-n", "4", "-r", "3", "-F", "P4",
                             "--connected", "--json")
        assert code == 0
        assert doc["max_edges"] == 4

    def test_scale_guard_exit_two(self, capsys):
        code, _ = run_cli(capsys, "turan", "-n", "12", "-r", "3", "-F", "P2")
        assert code == 2

    @pytest.mark.parametrize("n,r", [("5", "1"), ("4", "0"), ("2", "3")])
    def test_uniformity_below_two_or_order_below_r_exit_two(self, tmp_path, capsys, n, r):
        out_dir = tmp_path / "wit"
        code, _ = run_cli(capsys, "turan", "-n", n, "-r", r, "-F", "P1",
                          "--out-dir", str(out_dir))
        assert code == 2
        assert not out_dir.exists()


class TestFormulaCommand:
    @pytest.mark.parametrize("argv,expected", [
        (["--name", "erdos-gallai", "-n", "10", "-l", "3"], 10),
        (["--name", "kpl-graph", "-n", "100", "-k", "2", "-l", "3"], 294),
        (["--name", "berge-path", "-n", "8", "-r", "3", "-l", "4"], 8),
        (["--name", "connected-berge-path", "-n", "100", "-r", "3", "-l", "19"], 3360),
        (["--name", "two-path", "-n", "1000", "-r", "3", "-l", "9", "--ell2", "9"], 35760),
        (["--name", "berge-kpl", "-n", "50", "-r", "3", "-l", "6", "-k", "2"], 465),
    ])
    def test_integer_formulas(self, capsys, argv, expected):
        code, doc = json_doc(capsys, "formula", *argv, "--json")
        assert code == 0
        validate(doc, "formula")
        assert doc["value"] == expected

    def test_rational_rendering(self, capsys):
        code, doc = json_doc(capsys, "formula", "--name", "berge-path",
                             "-n", "8", "-r", "4", "-l", "3", "--json")
        assert code == 0
        assert doc["value"] == "16/5"

    def test_conjecture(self, capsys):
        code, doc = json_doc(capsys, "formula", "--name", "conjecture",
                             "-n", "100", "-r", "3", "--ells", "5,6", "--json")
        assert code == 0
        validate(doc, "formula")
        assert doc["indicator"] == 1

    def test_out_of_range_exit_two(self, capsys):
        code, _ = run_cli(capsys, "formula", "--name", "connected-berge-path",
                          "-n", "100", "-r", "3", "-l", "18")
        assert code == 2


class TestVerifyLemmas:
    def test_default_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code, doc = json_doc(capsys, "verify-lemmas", "--csv", str(out), "--json")
        assert code == 0
        validate(doc, "lemmas")
        assert doc["total_violations"] == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lemma,")
        assert len(lines) > 2000
        # slack column renders exact fractions
        assert any("/" in line.rsplit(",", 1)[1] for line in lines[1:])
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        validate(manifest, "manifest")

    def test_csv_rows_fill_one_header(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "verify-lemmas", "--csv", str(out))
        assert code == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lemma", "r", "k", "l", "L", "lhs", "rhs", "slack"]
        assert {len(row) for row in rows} == {8}
        with out.open(newline="") as fh:
            by_lemma = {}
            for row in csv.DictReader(fh):
                by_lemma.setdefault(row["lemma"], row)
        assert sorted(by_lemma) == ["I1", "I2", "I3", "I4", "I5"]
        # the first grid points: I1 at (r, L) = (3, 3), I2 at (r, k, l) = (3, 2, 3)
        assert by_lemma["I1"] == {"lemma": "I1", "r": "3", "k": "", "l": "", "L": "3",
                                  "lhs": "10", "rhs": "28/3", "slack": "2/3"}
        assert by_lemma["I2"] == {"lemma": "I2", "r": "3", "k": "2", "l": "3", "L": "",
                                  "lhs": "15/2", "rhs": "4", "slack": "7/2"}

    def test_csv_text_matches_fraction_oracle(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "verify-lemmas", "--csv", str(out))
        assert code == 0
        lines = ["lemma,r,k,l,L,lhs,rhs,slack"]
        for lemma_id in ("I1", "I2", "I3", "I4", "I5"):
            names = ("r", "L") if lemma_id == "I1" else ("r", "k", "l")
            rows, _, _ = naive_verify(lemma_id, default_grid(lemma_id))
            for pt, lhs, rhs, slack in rows:
                params = dict(zip(names, pt))
                cells = [params.get(name, "") for name in ("r", "k", "l", "L")]
                lines.append(",".join(map(str, [lemma_id, *cells, lhs, rhs, slack])))
        assert out.read_bytes().decode().split("\r\n") == [*lines, ""]

    def test_single_lemma(self, capsys):
        code, doc = json_doc(capsys, "verify-lemmas", "--lemma", "I1", "--json")
        assert code == 0
        assert len(doc["lemmas"]) == 1
        assert doc["lemmas"][0]["margin_min"] == "2/3"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv,option,item", [
        (["bcn", "h.hg", "--vertices", "\uff11,3"], "--vertices", "\uff11"),
        (["bcn", "h.hg", "--vertices", "1,,3"], "--vertices", ""),
        (["formula", "--name", "conjecture", "-n", "20", "-r", "3", "--ells", "5,x"],
         "--ells", "x"),
        (["formula", "--name", "erdos-gallai", "-n", "\uff11\uff10", "-l", "3"],
         "-n", "\uff11\uff10"),
        (["turan", "-n", "6", "-r", "3", "-F", "P2", "--witnesses", "+2"],
         "--witnesses", "+2"),
    ])
    def test_integer_arguments_take_ascii_digits_only(self, capsys, argv, option, item):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {option}: not an integer: {item!r}" in err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_runs_as_module_from_checkout(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-B", "-m", "bergeturan", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("bergeturan ")


COMMANDS = ["construct", "block", "formula", "check", "find", "longest-path", "cycle",
            "good-order", "bcn", "star", "turan", "verify-lemmas", "audit"]
USAGE = ("usage: bergeturan [-h] [--version]\n"
         "                  {" + ",".join(COMMANDS) + "}\n"
         "                  ...\n")


class TestOneSubParser:
    """``main`` builds only the sub-parser that the first argument names;
    what it prints and returns is what the parser of every subcommand gives."""

    @staticmethod
    def full_parser_outcome(capsys, argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], [], ["frobnicate"], ["--bogus"],
        ["check", "--version"], ["check", "h.hg", "-F", "P2", "--bogus"],
        *([command, "--help"] for command in COMMANDS),
        # a missing required argument: every command but verify-lemmas has one
        *([command] for command in COMMANDS if command != "verify-lemmas"),
        *([command, "--bogus"] for command in COMMANDS),
    ], ids=" ".join)
    def test_output_and_exit_code_match_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected = self.full_parser_outcome(capsys, argv)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected

    @pytest.mark.parametrize("argv,error", [
        (["check", "h.hg", "-F", "P2", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: subcommand"),
        (["frobnicate"], "argument subcommand: invalid choice: 'frobnicate' (choose from "
                         + ", ".join(map(repr, COMMANDS)) + ")"),
    ])
    def test_top_level_errors(self, capsys, monkeypatch, argv, error):
        # the usage line lists every subcommand, and the errors name the
        # subcommand argument as "subcommand"
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 2
        assert capsys.readouterr().err == USAGE + f"bergeturan: error: {error}\n"

    def test_main_builds_only_the_named_sub_parser(self, capsys, monkeypatch):
        built = []

        def recording(command=None):
            parser = build_parser(command)
            built.append(sorted(next(a for a in parser._actions
                                     if a.dest == "subcommand").choices))
            return parser

        monkeypatch.setattr(cli, "build_parser", recording)
        assert main(["formula", "--name", "erdos-gallai", "-n", "10", "-l", "3"]) == 0
        assert main(["frobnicate"]) == 2
        assert built == [["formula"], sorted(COMMANDS)]
