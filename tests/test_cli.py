"""End-to-end coverage of every documented CLI flag combination.

Each invocation runs in-process through ``cli.main``; tests assert the
exit code and validate machine output against the shipped JSON schemas.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from bergeturan.cli import main


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
        assert doc["witness_files"]
        first = (out_dir / "witness_0.hg").read_text()
        assert first.startswith("3 6 2")
        manifest = json.loads((out_dir / "witness_0.hg.manifest.json").read_text())
        validate(manifest, "manifest")

    def test_budget_exit_three(self, capsys):
        code, doc = json_doc(capsys, "turan", "-n", "6", "-r", "3", "-F", "2P2",
                             "--budget", "5", "--json")
        assert code == 3
        assert not doc["exact"]

    def test_connected_flag(self, capsys):
        code, doc = json_doc(capsys, "turan", "-n", "4", "-r", "3", "-F", "P4",
                             "--connected", "--json")
        assert code == 0
        assert doc["max_edges"] == 4

    def test_scale_guard_exit_two(self, capsys):
        code, _ = run_cli(capsys, "turan", "-n", "12", "-r", "3", "-F", "P2")
        assert code == 2


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
        proc = subprocess.run([sys.executable, "-m", "bergeturan", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("bergeturan ")
