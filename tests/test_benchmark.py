"""The benchmark's own answer checks: one pass of each workload, run on a
copy of the checkout, must answer every job correctly, with the answers
pinned by their digest."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# the ``answer_digest`` of a seed-1 pass, over every job's status,
# certificate and witnesses: a change to any of them shows here
ANSWER_DIGESTS = {
    "turan": "dae2923a261d62794e85be2cd798534dd61862cb6c653558b64a3771c7621e0c",
    "proofs": "a43028d3dd83b392abcd017b42791f7c26223b3d09cde8275af133d9cf25e813",
    "queries": "d91027a77ade03e4c88c1a3e198105c334478848a09c06470e87c16597e5976b",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_benchmark_pass_answers_correctly(tmp_path, workload):
    # the copy keeps the run's records under tmp_path, and the run uses the
    # package from the copy's src
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0 and last["attempted"] > 0
    assert f"bench: answer_digest={ANSWER_DIGESTS[workload]}" in proc.stdout.splitlines()
