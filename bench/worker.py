"""Run one pass of the ``queries`` corpus through the library API.

Usage: python3 bench/worker.py CORPUS RESULT TRACE

CORPUS is the JSON the benchmark generated from its seed: host texts and
jobs.  Each job is timed from reading its host's ``.hg`` text to its
verdict, including the package's own certificate check where it returns
one.  Answers are turned into JSON after the clock stops.  The reference
chunk of speed.py is timed between blocks of jobs, and each job's time is
also reported scaled by the chunk times on either side of its block.  With TRACE=1
every call into the package is recorded as a span (see tracer.py), each
job under a root ``harness.job`` span.
"""

import json
import sys
import time

import speed
from bergeturan import berge, constructions, core, formulas

BLOCK = 25  # jobs between two timings of the reference chunk


def _host(job):
    return core.read_hypergraph(job["host_text"])


def _cert(cert):
    if cert is None:
        return None
    return {"pattern": cert.pattern.expr, "defining_vertices": list(cert.defining_vertices),
            "edge_assignment": list(cert.edge_assignment)}


def _checked(h, res):
    return res, berge.verify_certificate(h, res.certificate) if res.certificate else None


def run_embed(job):
    h = _host(job)
    return _checked(h, berge.find_berge_embedding(h, core.parse_pattern(job["pattern"])))


def run_cycle(job):
    h = _host(job)
    return _checked(h, berge.find_berge_cycle(h, job["length"]))


def run_star(job):
    h = _host(job)
    return _checked(h, berge.berge_star_exists(h, job["centre"], job["size"]))


def run_longest(job):
    h = _host(job)
    return _checked(h, berge.longest_berge_path(h))


def run_bcn(job):
    return berge.berge_common_neighbours(_host(job), job["base"])


def run_good(job):
    return berge.good_order(_host(job), job["first"])


def run_roundtrip(job):
    h, layout = constructions.extremal_construction(core.FormulaParams(*job["params"]))
    text = core.write_hypergraph(h)
    back = core.read_hypergraph(text)
    return text, back == h, constructions.construction_audit(back, layout)


def run_lemma(job):
    grid = formulas.default_grid(job["lemma"], *job["grid"])
    return formulas.verify_lemma(job["lemma"], grid)


def run_formula(job):
    return [formulas.berge_kpl_turan(core.FormulaParams(*p)).value for p in job["params"]]


def answer(kind, out):
    """(answer, public counts) of one job, as JSON-ready values."""
    if kind in ("embed", "cycle", "large"):
        res, ok = out
        return {"status": res.status.value, "cert": _cert(res.certificate), "verified": ok}, \
            {"nodes": res.nodes}
    if kind == "star":
        res, ok = out
        return {"exists": res.exists, "cert": _cert(res.certificate), "verified": ok,
                "degree": res.degree, "threshold": res.degree_threshold}, {}
    if kind == "longest":
        res, ok = out
        return {"length": res.length, "exact": res.exact, "cert": _cert(res.certificate),
                "verified": ok}, {"nodes": res.nodes}
    if kind == "bcn":
        return {"vertices": sorted(out)}, {}
    if kind == "good":
        return {"ordering": list(out.ordering)}, {}
    if kind == "roundtrip":
        text, same, audit = out
        return {"text": text, "read_equal": same, "audit_passed": audit.passed,
                "unexpected": audit.unexpected_edges}, {}
    if kind == "lemma":
        return {"points": len(out.grid), "violations": [list(v) for v in out.violations],
                "margin_min": str(out.margin_min)}, {}
    return {"values": out}, {}


RUNNERS = {
    "embed": run_embed, "large": run_embed, "cycle": run_cycle, "star": run_star,
    "longest": run_longest, "bcn": run_bcn, "good": run_good, "roundtrip": run_roundtrip,
    "lemma": run_lemma, "formula": run_formula,
}


def main():
    corpus_path, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(corpus_path) as fh:
        corpus = json.load(fh)
    for job in corpus["jobs"]:
        if "host" in job:
            job["host_text"] = corpus["hosts"][job["host"]]
    tr = None
    if trace:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    outs, block = [], []
    chunk = speed.chunk()
    for i, job in enumerate(corpus["jobs"]):
        fn = RUNNERS[job["kind"]]
        if tr is not None:
            tr.job = job["id"]
            fn = tr.wrap("harness.job", fn)
        start = time.perf_counter()
        out = fn(job)
        block.append((job, time.perf_counter() - start, out))
        if len(block) == BLOCK or i == len(corpus["jobs"]) - 1:
            after = speed.chunk()
            scale = speed.REFERENCE_S * 2 / (chunk + after)
            outs.extend((job, raw * scale, raw, out) for job, raw, out in block)
            block, chunk = [], after
    result = {"jobs": [[job["id"], scaled, raw, *answer(job["kind"], out)]
                       for job, scaled, raw, out in outs]}
    if tr is not None:
        result["spans"] = tr.spans
        result["plan_cache"] = tracer.plan_cache(berge)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
