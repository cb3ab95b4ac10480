#!/usr/bin/env python3
"""The bergeturan benchmark: three workloads, checked answers, traced layers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {proofs,turan,queries} --seed N \
        --seconds S --trace {0,1}

Every workload is a single-process closed loop: one job at a time, no
threads.  A *pass* runs each job of the workload once; passes repeat until
``--seconds`` have elapsed (the last pass is finished).  ``proofs`` and
``turan`` run each job as a fresh ``bergeturan`` CLI process;
``queries`` runs each pass in one fresh worker process that calls the
library API.  The package is used from the checkout's ``src`` with
whatever kernel lane it selects; nothing is compiled.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones:

* ``wall_s`` - one pass: the sum over jobs of each job's median time
  across the run's passes;
* ``verdict_p50_ms``, ``verdict_p99_ms`` - percentiles over jobs of those
  per-job medians (the sample count is printed above the result);
* ``peak_rss_mb`` - median over passes of the largest peak RSS of a
  process that ran part of the pass;
* ``setup_s`` - median over fresh interpreters (3 before the passes and 2
  after each pass) of the time to import the package and build the CLI
  parser.

With ``--trace 1`` plain and traced passes alternate; the metrics are the
per-layer totals of one traced pass (medians over traced passes), plus
``trace.overhead_frac``, traced ``wall_s`` over plain ``wall_s`` minus 1.

Every result is checked outside the timed region (see workloads.py and
oracle.py); ``failed`` counts job runs whose answer was wrong.  Self-checks
(repeatable node counts, self times summing to the traced wall time, and
a job with a deliberately wrong expectation being caught) clear
``correct`` when they fail.  Scratch files and a record of each run go to
``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import random
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES_FIRST = 3  # fresh-interpreter probes before the passes ...
SETUP_PROBES_PER_PASS = 2  # ... and after each plain pass, to span the run


def spawn(cmd, cwd, env, stdout_path):
    """Run a child to completion: (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


class Run:
    def __init__(self, args):
        self.workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.python = sys.executable

    # --- set-up ---------------------------------------------------------------

    def probe(self):
        """(scaled, raw) seconds of one fresh interpreter reaching a ready CLI."""
        before = speed.chunk()
        raw = spawn([self.python, str(BENCH / "setup_probe.py")], self.workdir, self.env,
                    self.workdir / "probe.out")[0]
        return raw * speed.REFERENCE_S * 2 / (before + speed.chunk()), raw

    def lanes(self):
        code = ("from bergeturan import engine; import json; print(json.dumps("
                "{'compiled_importable': engine.compiled_available(), "
                "'selected': engine.backend_name()}))")
        out = subprocess.run([self.python, "-c", code], cwd=self.workdir, env=self.env,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    # --- passes ---------------------------------------------------------------

    def cli_pass(self, jobs, traced):
        results, layer_parts = {}, []
        chunk = speed.chunk()
        for job in jobs:
            if "out_dir" in job:
                shutil.rmtree(self.workdir / job["out_dir"], ignore_errors=True)
            trace_path = self.workdir / "trace.json"
            trace_path.unlink(missing_ok=True)
            cmd = [self.python, str(BENCH / "clijob.py"), str(trace_path) if traced else "-",
                   *job["argv"]]
            stdout = self.workdir / "job.out"
            raw, code, rss = spawn(cmd, self.workdir, self.env, stdout)
            after = speed.chunk()
            seconds = raw * speed.REFERENCE_S * 2 / (chunk + after)
            chunk = after
            try:
                doc = json.loads(stdout.read_text())
            except ValueError:
                doc = None
            witnesses = []
            if doc and job["kind"] == "turan":
                witnesses = [(self.workdir / p).read_text() for p in doc["witness_files"]]
            results[job["id"]] = {"seconds": seconds, "raw_seconds": raw, "exit": code,
                                  "doc": doc, "witnesses": witnesses, "rss": rss}
            if traced:
                dump = json.loads(trace_path.read_text())
                for span in dump["spans"]:
                    span[4] = job["id"]
                layer_parts.append(dump)
        return results, layer_parts

    def queries_pass(self, corpus_path, traced):
        result_path = self.workdir / "queries.result.json"
        cmd = [self.python, str(BENCH / "worker.py"), str(corpus_path), str(result_path),
               "1" if traced else "0"]
        _, code, rss = spawn(cmd, self.workdir, self.env, self.workdir / "worker.out")
        if code != 0:
            err = (self.workdir / "worker.out.err").read_text()[-2000:]
            raise SystemExit(f"queries worker failed (exit {code}):\n{err}")
        dump = json.loads(result_path.read_text())
        results = {jid: {"seconds": s, "raw_seconds": raw, "answer": a, "public": p, "rss": rss}
                   for jid, s, raw, a, p in dump["jobs"]}
        return results, [dump] if traced else []


def layer_metrics(parts):
    """Sum the per-process aggregates of one traced pass."""
    totals, per_job, roots, selfs, hits, misses = {}, {}, 0, 0, 0, 0
    for dump in parts:
        t, jobs, root_ns, self_ns = tracer.aggregate(dump["spans"])
        for k, v in t.items():
            totals[k] = totals.get(k, 0) + v
        per_job.update({j: c for j, c in jobs.items() if j is not None})
        roots += root_ns
        selfs += self_ns
        hits += dump["plan_cache"][0]
        misses += dump["plan_cache"][1]
    calls, engine_s = totals["engine.calls"], totals["engine.s"]
    pinned = totals.pop("search.pinned_hits")
    totals.pop("harness.self_s")
    totals["engine.nodes_per_s"] = totals["engine.nodes"] / engine_s if engine_s else 0.0
    totals["engine.us_per_call"] = engine_s / calls * 1e6 if calls else 0.0
    totals["search.pinned_hit_ratio"] = pinned / totals["search.pinned_calls"] \
        if totals["search.pinned_calls"] else 0.0
    totals["berge.plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return totals, per_job, roots, selfs


def quantile(values, q):
    """Linear-interpolation quantile (values need not be sorted)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_job_medians(passes, key="seconds"):
    ids = passes[0]["results"].keys()
    return {j: statistics.median(p["results"][j][key] for p in passes) for j in ids}


def source_identity():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bergeturan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return commit, h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["proofs", "turan", "queries"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bergeturan" / "__init__.py").is_file():
        print(f"bench: no bergeturan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    speed.pin()
    run = Run(args)
    load_start = os.getloadavg()
    started = time.perf_counter()

    # inputs and expected answers, all outside the timed passes
    if args.workload == "queries":
        corpus, jobs = workloads.queries(args.seed)
        corpus_path = run.workdir / "corpus.json"
        corpus_path.write_text(json.dumps(corpus))
        workloads.prepare_queries(jobs)
    elif args.workload == "proofs":
        jobs = workloads.proofs(args.seed, run.workdir)
    else:
        jobs = workloads.turan()
        workloads.prepare_turan(jobs)
    by_id = {job["id"]: job for job in jobs}
    lanes = run.lanes()
    setup = []
    if not args.trace:
        run.probe()  # warm the bytecode cache; not timed
        setup = [run.probe() for _ in range(SETUP_PROBES_FIRST)]
    prepared = time.perf_counter() - started

    # timed passes
    passes = []
    order_rng = random.Random(f"order-{args.seed}")
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds or (
            args.trace and len(passes) < 2):
        traced = bool(args.trace) and len(passes) % 2 == 1
        if args.workload == "queries":
            results, parts = run.queries_pass(corpus_path, traced)
        else:
            order = list(jobs)
            order_rng.shuffle(order)
            results, parts = run.cli_pass(order, traced)
        passes.append({"traced": traced, "results": results, "parts": parts})
        if not args.trace:
            setup += [run.probe() for _ in range(SETUP_PROBES_PER_PASS)]
    measured = time.perf_counter() - t0

    # answers
    attempted = failed = 0
    failures, verdicts = [], {}
    first = passes[0]["results"]
    for p in passes:
        for jid, res in p["results"].items():
            attempted += 1
            # a result identical to one already checked needs no second oracle run
            key = (jid, json.dumps({k: v for k, v in res.items()
                                    if k not in ("seconds", "raw_seconds", "rss")},
                                   sort_keys=True))
            if key not in verdicts:
                verdicts[key] = workloads.check(by_id[jid], res)
            err = verdicts[key]
            if err is None and workloads.answer(by_id[jid], res) != \
                    workloads.answer(by_id[jid], first[jid]):
                err = "answer differs from the first pass"
            if err is not None:
                failed += 1
                failures.append(f"{jid}: {err}")
    answers = {jid: workloads.answer(by_id[jid], res) for jid, res in first.items()}
    digest = workloads.digest(answers)

    # self-checks
    problems = []
    for jid in first:
        counts = {json.dumps(workloads.public_counts(by_id[jid], p["results"][jid]))
                  for p in passes}
        if len(counts) != 1:
            problems.append(f"{jid}: reported node counts differ between passes")
    canary = next(c for c in map(workloads.corrupt, jobs) if c is not None)
    if workloads.check(canary, first[canary["id"]]) is None:
        problems.append(f"{canary['id']}: a deliberately wrong expectation was not caught")

    plain = [p for p in passes if not p["traced"]]
    medians = per_job_medians(plain)
    raw_medians = per_job_medians(plain, "raw_seconds")
    wall = sum(medians.values())
    samples = sum(len(p["results"]) for p in plain)
    metrics, raw = {}, {}
    if not args.trace:
        rss = statistics.median(max(r["rss"] for r in p["results"].values()) for p in plain)
        metrics = {
            "wall_s": (wall, "s"),
            "verdict_p50_ms": (quantile(medians.values(), 0.50) * 1e3, "ms"),
            "verdict_p99_ms": (quantile(medians.values(), 0.99) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
        }
        raw = {
            "wall_s": sum(raw_medians.values()),
            "verdict_p50_ms": quantile(raw_medians.values(), 0.50) * 1e3,
            "verdict_p99_ms": quantile(raw_medians.values(), 0.99) * 1e3,
            "setup_s": statistics.median(r for _, r in setup),
        }
    else:
        traced_passes = [p for p in passes if p["traced"]]
        layers = [layer_metrics(p["parts"]) for p in traced_passes]
        for i, (totals, per_job, roots, selfs) in enumerate(layers):
            if roots != selfs:
                problems.append(f"traced pass {i}: self times sum to {selfs} ns, "
                                f"root spans to {roots} ns")
            if per_job != layers[0][1]:
                problems.append(f"traced pass {i}: kernel or tree counts differ from pass 0")
        for jid, counts in layers[0][1].items():
            public = workloads.public_counts(by_id[jid], first[jid])
            if "nodes" in public and public["nodes"] != counts["engine.nodes"]:
                problems.append(f"{jid}: traced kernel nodes {counts['engine.nodes']} "
                                f"!= reported {public['nodes']}")
            if "nodes_explored" in public and public["nodes_explored"] != \
                    counts["search.tree_nodes"]:
                problems.append(f"{jid}: traced tree nodes != reported")
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["per_layer"]] if (ROOT / "BENCHMARK.json").is_file() else []
        for name, unit in tracer.UNITS.items():
            metrics[name] = (statistics.median(t[name] for t, _, _, _ in layers), unit)
        traced_wall = sum(per_job_medians(traced_passes).values())
        metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "frac")
        missing = [n for n in names if n not in metrics]
        if missing:
            problems.append(f"per-layer metrics not produced: {missing}")

    commit, source = source_identity()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "plain_passes": len(plain),
        "jobs": len(jobs), "samples": samples, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures[:20],
        "self_check_problems": problems, "answer_digest": digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": raw,
        "per_job_median_s": medians,
        "per_job_unscaled_median_s": raw_medians,
        "env": {
            "python": platform.python_version(), "nproc": os.cpu_count(), "lanes": lanes,
            "commit": commit, "source_sha256": source, "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "prepare_s": prepared, "measure_s": measured,
    }
    records = ROOT / ".bench_run" / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs={len(jobs)} timed_samples={samples} "
          f"measured={measured:.1f}s prepare={prepared:.1f}s")
    print(f"bench: failed_frac={failed / attempted:.6f} ({failed}/{attempted})")
    for line in failures[:10]:
        print(f"bench: FAILED {line}")
    for line in problems:
        print(f"bench: SELF-CHECK {line}")
    print(f"bench: answer_digest={digest}")
    print(f"bench: env python={record['env']['python']} nproc={os.cpu_count()} "
          f"lanes={json.dumps(lanes)} commit={commit} source_sha256={source[:16]} "
          f"loadavg={load_start[0]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"bench: {name} = {value:.6g} {unit}"
              + (f" (unscaled {raw[name]:.6g})" if name in raw else ""))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
