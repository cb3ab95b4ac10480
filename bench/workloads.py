"""The three workloads: seeded inputs, expected answers and answer checks.

Every expected answer comes from outside the code under test: the paper's
theorem (its constructions are kP_l-free), certificates re-checked by
``oracle``, brute-force enumerators in ``oracle``, or values pinned at the
commit that introduced this benchmark and re-derived by enumeration where
that is affordable.

A job is a dict with an ``id`` and a ``kind``.  ``check(job, result)``
returns None when the result is right and a one-line reason otherwise;
``answer(job, result)`` is the part of a result that the ROADMAP's rule
"a speed-up counts only if every answer stays the same" covers.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path

import oracle

# --- proofs ----------------------------------------------------------------------

# (n, r, ell, k) of the paper's extremal host, the kP_l it must be free of
# (None: covered by the longest-path scan), a pattern it contains (FOUND
# control), and whether to scan for its longest Berge path.  For k = 1 the
# host is P_ell-free, so the longest path has at most ell-1 edges; the scan
# must find exactly ell-1, which its certificate proves from below.
PROOF_HOSTS = [
    (13, 3, 4, 2, "2P4", "2P3", False),
    (14, 3, 2, 3, "3P2", "2P2", False),
    (13, 4, 4, 2, "2P4", "2P3", False),
    (12, 3, 7, 1, "P7", "P6", True),
    (14, 3, 7, 1, None, "P5", True),
    (13, 3, 6, 1, None, "P4", True),
]


def relabelled_construction(rng, n, r, ell, k):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = [tuple(perm[v - 1] for v in e) for e in oracle.construction_edges(n, r, ell, k)]
    return oracle.format_hg(r, n, edges)


def proofs(seed, workdir: Path):
    """Exhaustive CLI checks on relabelled extremal hosts (one per host)."""
    rng = random.Random(f"proofs-{seed}")
    jobs = []
    for n, r, ell, k, free, control, scan in PROOF_HOSTS:
        tag = f"n{n}r{r}l{ell}k{k}"
        text = relabelled_construction(rng, n, r, ell, k)
        (workdir / f"{tag}.hg").write_text(text)
        host = {"file": f"{tag}.hg", "edges": oracle.parse_hg(text)[2]}
        if free:
            jobs.append({"id": f"check:{tag}:{free}", "kind": "free", "pattern": free, **host,
                         "argv": ["check", host["file"], "-F", free, "--budget", "0", "--json"]})
        jobs.append({"id": f"check:{tag}:{control}", "kind": "control", "pattern": control,
                     **host, "argv": ["check", host["file"], "-F", control, "--json"]})
        if scan:
            jobs.append({"id": f"longest-path:{tag}", "kind": "scan", "length": ell - 1, **host,
                         "argv": ["longest-path", host["file"], "--budget", "0", "--json"]})
    return jobs


# --- turan -----------------------------------------------------------------------

# (n, r, pattern, connected, witnesses, max_edges pinned at introduction)
TURAN_JOBS = [
    (7, 3, "P4", False, 1, 5),
    (8, 3, "P3", False, 1, 4),
    (7, 3, "C3", False, 1, 6),
    (6, 3, "2P2", False, 1, 10),
    (6, 3, "P4", True, 1, 4),
    (7, 4, "P3", False, 1, 2),
    (6, 3, "C4", False, 2, 4),
    (6, 3, "P4", False, 3, 4),
]


def turan():
    """Exact Turan numbers through the CLI, witnesses written to files.

    The instances are fixed; the seed only sets the order of each pass.
    """
    jobs = []
    for n, r, expr, connected, limit, pinned in TURAN_JOBS:
        jid = f"turan:{n}-{r}-{expr}{'-connected' if connected else ''}"
        out = f"wit-{n}-{r}-{expr}{'-c' if connected else ''}"
        argv = ["turan", "-n", str(n), "-r", str(r), "-F", expr, "--witnesses", str(limit),
                "--out-dir", out, "--json"] + (["--connected"] if connected else [])
        jobs.append({"id": jid, "kind": "turan", "n": n, "r": r, "pattern": expr,
                     "connected": connected, "limit": limit, "max_edges": pinned,
                     "out_dir": out, "argv": argv})
    return jobs


def prepare_turan(jobs):
    """Re-derive pinned values by subset enumeration where n <= 6."""
    for job in jobs:
        if job["n"] <= 6:
            job["enumerated"] = oracle.turan_by_subsets(job["n"], job["r"], job["pattern"],
                                                       job["connected"])


# --- queries ---------------------------------------------------------------------

EMBED_PATTERNS = ["P1", "P2", "P3", "P4", "2P1", "2P2", "C3", "C4", "S2", "S3", "M2", "M3",
                  "P2+M1"]
# (n, r, ell, k): constructions with 7.1k to 14.2k edges, queried for small patterns
LARGE_HOSTS = [(44, 3, 15, 3), (52, 4, 11, 2), (60, 3, 13, 3), (40, 4, 9, 3), (64, 3, 15, 3),
               (60, 4, 13, 2)]
LARGE_PATTERNS = ["P3", "2P2", "C4"]
# (n, r, ell, k): constructions with 0.8k to 3.5k edges, built, written and read back
ROUNDTRIPS = [(30, 3, 9, 2), (40, 3, 11, 2), (36, 4, 7, 2), (48, 3, 9, 3), (32, 3, 6, 3),
              (28, 4, 8, 2)]
LEMMA_GRID = (12, 10, 60)  # r_max, k_max, l_max: 18,675 points over I1..I5
SMALL_JOBS = 800
KINDS = ["embed"] * 8 + ["cycle"] * 2 + ["star"] * 2 + ["bcn"] * 2 + ["good"] * 3 + ["longest"] * 3


def _small_host(rng):
    n = rng.randint(5, 12)
    r = rng.randint(2, 4)
    m = min(rng.randint(2, 14), comb(n, r))
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
    return r, n, sorted(edges)


def queries(seed):
    """A seeded corpus of independent library-API jobs; returns (corpus, jobs)."""
    rng = random.Random(f"queries-{seed}")
    hosts, jobs = [], []

    def add_host(text):
        hosts.append(text)
        return len(hosts) - 1

    for i in range(SMALL_JOBS):
        r, n, edges = _small_host(rng)
        kind = rng.choice(KINDS)
        if kind == "longest" and len(edges) > 8:
            kind = "embed"
        covered = sorted({v for e in edges for v in e})
        job = {"id": f"q{i:04d}:{kind}", "kind": kind, "edges": edges, "n": n, "r": r,
               "host": add_host(oracle.format_hg(r, n, edges))}
        if kind == "embed":
            job["pattern"] = rng.choice(EMBED_PATTERNS)
        elif kind == "cycle":
            job["length"] = rng.randint(3, 5)
        elif kind == "star":
            job["centre"] = rng.choice(covered)
            job["size"] = r + rng.randint(1, 2)
        elif kind == "bcn":
            job["base"] = rng.sample(covered, rng.randint(2, min(3, len(covered))))
        elif kind == "good":
            job["first"] = rng.choice(covered)
        jobs.append(job)
    for n, r, ell, k in LARGE_HOSTS:
        text = relabelled_construction(rng, n, r, ell, k)
        h = add_host(text)
        edges = oracle.parse_hg(text)[2]
        for expr in LARGE_PATTERNS:
            jobs.append({"id": f"large:n{n}r{r}l{ell}k{k}:{expr}", "kind": "large", "host": h,
                         "edges": edges, "pattern": expr})
    for params in ROUNDTRIPS:
        jobs.append({"id": "roundtrip:{}-{}-{}-{}".format(*params), "kind": "roundtrip",
                     "params": list(params)})
    for lemma in ("I1", "I2", "I3", "I4", "I5"):
        jobs.append({"id": f"lemma:{lemma}", "kind": "lemma", "lemma": lemma,
                     "grid": list(LEMMA_GRID)})
    for i in range(2):
        params = []
        while len(params) < 300:
            r, ell, k = rng.randint(2, 6), rng.randint(1, 20), rng.randint(1, 5)
            a = k * ((ell + 1) // 2) - 1
            if a >= r - 1:
                params.append([rng.randint(a + r, a + r + 200), r, ell, k])
        jobs.append({"id": f"formula:{i}", "kind": "formula", "params": params})
    rng.shuffle(jobs)
    wire = [{key: v for key, v in job.items() if key != "edges"} for job in jobs]
    return {"hosts": hosts, "jobs": wire}, jobs


def _lemma_points(lemma, r_max, k_max, l_max):
    """Grid size from the stated hypotheses: r >= 3 throughout, L >= r for
    I1; k >= 2 (k >= 3 for I3) and l >= r, and for I5 l >= 5 with
    floor((l+1)/2) >= r."""
    if lemma == "I1":
        return sum(1 for r in range(3, r_max + 1) for _ in range(r, l_max + 1))
    k_min = 3 if lemma == "I3" else 2
    count = 0
    for r in range(3, r_max + 1):
        for _ in range(k_min, k_max + 1):
            for l in range(r, l_max + 1):
                if lemma != "I5" or (l >= 5 and (l + 1) // 2 >= r):
                    count += 1
    return count


def prepare_queries(jobs):
    """Expected answers of the corpus, by the oracles (outside any timing)."""
    for job in jobs:
        kind, edges = job["kind"], job.get("edges")
        if kind == "embed":
            job["expect"] = oracle.contains(edges, job["pattern"])
        elif kind == "cycle":
            job["expect"] = oracle.contains(edges, f"C{job['length']}")
        elif kind == "large":
            job["expect"] = True
        elif kind == "star":
            job["expect"] = oracle.star_exists(edges, job["centre"], job["size"])
        elif kind == "bcn":
            job["expect"] = oracle.common_neighbours(job["n"], edges, job["base"])
        elif kind == "roundtrip":
            n, r, ell, k = job["params"]
            job["expect"] = oracle.format_hg(r, n, oracle.construction_edges(n, r, ell, k))
            assert job["expect"].count("\n") == oracle.construction_count(n, r, ell, k) + 1
        elif kind == "lemma":
            job["expect"] = _lemma_points(job["lemma"], *job["grid"])
        elif kind == "formula":
            job["expect"] = [oracle.construction_count(*p) for p in job["params"]]


# --- checks ----------------------------------------------------------------------


def _cert_error(edges, cert, expr):
    """Check a certificate given as CLI JSON (triples) or worker JSON."""
    if cert is None:
        return "no certificate"
    if cert["pattern"] != expr:
        return f"certificate is for {cert['pattern']}, not {expr}"
    triples = cert["edge_assignment"]
    if triples and not isinstance(triples[0], list):
        triples = oracle.triples_of(expr, triples)
    return oracle.certificate_error(edges, expr, cert["defining_vertices"], triples)


def _check_cli(job, res):
    doc, code = res["doc"], res["exit"]
    kind = job["kind"]
    if doc is None:
        return f"exit {code} without JSON output"
    if kind == "free":
        if code != 0 or doc["status"] != "not-found" or not doc["free"]:
            return f"expected FREE (exit 0), got {doc['status']} (exit {code})"
        return None
    if kind == "control":
        if code != 1 or doc["status"] != "found":
            return f"expected FOUND (exit 1), got {doc['status']} (exit {code})"
        return _cert_error(job["edges"], doc["certificate"], job["pattern"])
    if kind == "scan":
        if code != 0 or not doc["exact"] or doc["length"] != job["length"]:
            return f"expected exact length {job['length']}, got {doc['length']} (exit {code})"
        return _cert_error(job["edges"], doc["certificate"], f"P{job['length']}")
    # turan
    if code != 0 or not doc["exact"]:
        return f"turan search not exact (exit {code})"
    best = doc["max_edges"]
    if best != job["max_edges"]:
        return f"max_edges {best}, pinned {job['max_edges']}"
    if job.get("enumerated", best) != best:
        return f"max_edges {best}, subset enumeration gives {job['enumerated']}"
    texts = res["witnesses"]
    if not 1 <= len(texts) <= job["limit"] or len(set(texts)) != len(texts):
        return f"{len(texts)} witnesses for a limit of {job['limit']}"
    for text in texts:
        r, n, edges = oracle.parse_hg(text)
        if (r, n) != (job["r"], job["n"]) or len(set(edges)) != best:
            return "witness has the wrong shape or size"
        if oracle.contains(edges, job["pattern"]):
            return "witness contains the pattern"
        if job["connected"] and not oracle.connected_spanning(n, edges):
            return "witness is not connected and spanning"
    return None


def _check_query(job, res):
    kind, edges, ans = job["kind"], job.get("edges"), res["answer"]
    if kind in ("embed", "cycle", "large"):
        expr = job.get("pattern") or f"C{job['length']}"
        found = ans["status"] == "found"
        if found != job["expect"] or ans["status"] == "indeterminate":
            return f"status {ans['status']}, expected found={job['expect']}"
        if found and ans["verified"] is not True:
            return "the package rejected its own certificate"
        return _cert_error(edges, ans["cert"], expr) if found else None
    if kind == "star":
        if ans["exists"] != job["expect"]:
            return f"star exists={ans['exists']}, expected {job['expect']}"
        degree = sum(1 for e in edges if job["centre"] in e)
        if ans["degree"] != degree or ans["threshold"] != comb(job["size"] - 1, job["r"] - 1):
            return "wrong degree or threshold"
        if not ans["exists"]:
            return None
        if ans["cert"]["defining_vertices"][0] != job["centre"] or ans["verified"] is not True:
            return "star certificate has the wrong centre or was rejected"
        return _cert_error(edges, ans["cert"], f"S{job['size']}")
    if kind == "bcn":
        return None if ans["vertices"] == job["expect"] else "wrong common neighbours"
    if kind == "good":
        return oracle.good_order_error(edges, job["first"], ans["ordering"])
    if kind == "longest":
        length = ans["length"]
        if not ans["exact"] or length < 1 or ans["verified"] is not True:
            return "longest path not exact or its certificate was rejected"
        if oracle.has_berge_path(edges, length + 1):
            return f"a Berge path longer than {length} exists"
        return _cert_error(edges, ans["cert"], f"P{length}")
    if kind == "roundtrip":
        if ans["text"] != job["expect"] or not ans["read_equal"]:
            return "construction text differs from the reference or did not read back"
        return None if ans["audit_passed"] and ans["unexpected"] == 0 else "audit failed"
    if kind == "lemma":
        if ans["violations"] or ans["points"] != job["expect"]:
            return f"{len(ans['violations'])} violations over {ans['points']} points"
        return None
    return None if ans["values"] == job["expect"] else "formula differs from the edge count"


def check(job, res):
    """Reason the result is wrong, or None."""
    try:
        return _check_cli(job, res) if "argv" in job else _check_query(job, res)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed result: {exc!r}"


def answer(job, res):
    """The parts of a result that must not change: status, first
    certificate, max_edges or length, and witnesses."""
    if "argv" not in job:
        return res["answer"]
    doc = res["doc"] or {}
    keys = ("status", "certificate", "length", "max_edges")
    out = {k: doc[k] for k in keys if k in doc}
    if job["kind"] == "turan":
        out["witnesses"] = res["witnesses"]
    return out


def public_counts(job, res):
    """Node counts the program reports, which must repeat exactly."""
    if "argv" not in job:
        return res["public"]
    doc = res["doc"] or {}
    return {k: doc[k] for k in ("nodes", "nodes_explored") if k in doc}


def digest(answers):
    """sha256 over the sorted (job id, answer) pairs."""
    blob = json.dumps(sorted(answers.items()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def corrupt(job):
    """A copy of ``job`` whose expected answer is deliberately wrong, or
    None when its kind has no expectation to falsify."""
    bad = dict(job)
    kind = job["kind"]
    if kind in ("free", "control"):
        bad["kind"] = "control" if kind == "free" else "free"
    elif kind == "scan":
        bad["length"] = job["length"] + 1
    elif kind == "turan":
        bad["max_edges"] = job["max_edges"] + 1
    elif kind in ("embed", "cycle", "large", "star"):
        bad["expect"] = not job["expect"]
    elif kind in ("bcn", "formula"):
        bad["expect"] = job["expect"] + [0]
    elif kind == "lemma":
        bad["expect"] = job["expect"] + 1
    else:
        return None
    return bad
