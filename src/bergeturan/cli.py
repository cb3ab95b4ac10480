"""Command-line entry point.

One subcommand per operation; results go to stdout for humans or to
--json / --csv for machines.  Exit codes: 0 when the run succeeded and any
checked property holds, 1 when a checked property fails (a forbidden Berge
copy was found, an inequality was violated, an audit mismatched), 2 for
usage or format errors, and 3 when a budget truncated a search.

Every invocation assembles a run manifest (arguments, input digests, tool
version, wall time, result summary).  The manifest is embedded in JSON
output and written as ``<output>.manifest.json`` beside the first output
file; ``--manifest PATH`` overrides the location.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, berge, engine
from .constructions import ConstructionLayout, block_construction, construction_audit, extremal_construction
from .core import FormulaParams, parse_pattern, read_hypergraph, write_hypergraph
from .errors import BergeTuranError
from .formulas import (
    LEMMAS,
    berge_kpl_turan,
    berge_path_bound,
    conjecture_values,
    connected_berge_path_turan,
    erdos_gallai_bound,
    kpl_graph_turan,
    two_path_turan,
    verify_lemma,
)
from .search import SearchOptions, exact_turan

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _frac(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def _integer(text):
    """Parse an integer argument: ASCII digits with an optional leading '-'.

    ``int`` alone also takes other scripts' digits, '+', '_' and
    surrounding whitespace."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _integer_list(text):
    """Parse a comma-separated list, each item as :func:`_integer`."""
    return [_integer(item) for item in text.split(",")]


def _load_host(run, path):
    try:
        text = run.read_input(path)
    except FileNotFoundError:
        raise BergeTuranError(f"no such file: {path}")
    return read_hypergraph(text)


def _certificate_doc(cert):
    if cert is None:
        return None
    return json.loads(cert.to_json())


class _Run:
    """Collects outputs and the manifest for one invocation."""

    def __init__(self, ns):
        self.ns = ns
        self.started = time.perf_counter()
        self.inputs = {}
        self.outputs = []
        self.summary = {}

    def read_input(self, path):
        """Read an input file once: digest its bytes for the manifest and
        decode the same bytes as ``Path.read_text`` would, universal
        newlines included."""
        data = Path(path).read_bytes()
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return io.TextIOWrapper(io.BytesIO(data)).read()

    def write_file(self, path, text):
        Path(path).write_text(text)
        self.outputs.append(str(path))

    def manifest(self):
        args = {k: v for k, v in vars(self.ns).items() if k != "func" and v is not None}
        return {
            "subcommand": self.ns.subcommand,
            "arguments": {k: _frac(v) for k, v in args.items()},
            "input_digests": self.inputs,
            "tool_version": __version__,
            "engine_backend": engine.backend_name(),
            "wall_time_s": round(time.perf_counter() - self.started, 6),
            "result_summary": self.summary,
        }

    def emit(self, doc, human_lines):
        """Route the result document per --json and write the manifest."""
        ns = self.ns
        manifest = self.manifest()
        target = getattr(ns, "json", None)
        if target == "-":
            print(json.dumps({**doc, "manifest": manifest}, indent=2))
        else:
            if target:
                self.write_file(target, json.dumps(doc, indent=2) + "\n")
            for line in human_lines:
                print(line)
        manifest_path = getattr(ns, "manifest", None)
        if manifest_path is None and self.outputs:
            manifest_path = self.outputs[0] + ".manifest.json"
        if manifest_path:
            Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n")


def _add_common(sp, budget=False, json_out=True):
    sp.add_argument("--manifest", help="write the run manifest to this path")
    if budget:
        sp.add_argument("--budget", type=_integer, default=0,
                        help="node budget; 0 means unlimited (exact)")
    if json_out:
        sp.add_argument("--json", nargs="?", const="-",
                        help="machine output; '-' or no value for stdout, else a path")


def _cmd_construct(ns, run):
    params = FormulaParams(n=ns.n, r=ns.r, ell=ns.ell, k=ns.k)
    h, layout = extremal_construction(params)
    doc = {
        "n": ns.n, "r": ns.r, "ell": ns.ell, "k": ns.k,
        "edges": h.m,
        "formula_value": berge_kpl_turan(params).value,
        "layout": layout.to_json_dict(),
        "hg_file": ns.output,
    }
    if ns.output:
        run.write_file(ns.output, write_hypergraph(h))
        run.write_file(ns.output + ".layout.json",
                       json.dumps(layout.to_json_dict(), indent=2) + "\n")
    run.summary = {"edges": h.m}
    human = [f"built construction on {ns.n} vertices: {h.m} edges"]
    if not ns.output and ns.json is None:
        human.append(write_hypergraph(h).rstrip("\n"))
    run.emit(doc, human)
    return EXIT_OK


def _cmd_block(ns, run):
    h = block_construction(ns.n, ns.block, ns.r)
    doc = {"n": ns.n, "r": ns.r, "block": ns.block, "edges": h.m, "hg_file": ns.output}
    if ns.output:
        run.write_file(ns.output, write_hypergraph(h))
    run.summary = {"edges": h.m}
    human = [f"built {ns.n // ns.block} complete blocks: {h.m} edges"]
    if not ns.output and ns.json is None:
        human.append(write_hypergraph(h).rstrip("\n"))
    run.emit(doc, human)
    return EXIT_OK


def _cmd_formula(ns, run):
    name = ns.name
    if name == "conjecture":
        if not ns.ells:
            raise BergeTuranError("--ells is required for the conjecture formula")
    elif ns.ell is None:
        raise BergeTuranError(f"-l/--ell is required for {name}")
    if name == "erdos-gallai":
        value = erdos_gallai_bound(ns.n, ns.ell)
        doc = {"formula": name, "value": _frac(value)}
    elif name == "kpl-graph":
        res = kpl_graph_turan(ns.n, ns.k, ns.ell)
        doc = {"formula": name, "value": res.value,
               "threshold_n0": res.threshold_n0, "valid": res.valid}
    elif name == "berge-path":
        res = berge_path_bound(ns.n, ns.r, ns.ell)
        doc = {"formula": name, "value": _frac(res.value), "case": res.case}
    elif name == "connected-berge-path":
        res = connected_berge_path_turan(ns.n, ns.r, ns.ell)
        doc = {"formula": name, "value": res.value, "large_n_required": res.large_n_required}
    elif name == "two-path":
        res = two_path_turan(ns.n, ns.r, ns.ell, ns.ell2)
        doc = {"formula": name, "value": _frac(res.value), "case": res.case,
               "binomial_part": res.binomial_part, "path_bound_part": _frac(res.path_bound_part)}
    elif name == "berge-kpl":
        res = berge_kpl_turan(FormulaParams(n=ns.n, r=ns.r, ell=ns.ell, k=ns.k))
        doc = {"formula": name, "value": res.value, "hypothesis_ok": res.hypothesis_ok,
               "hypothesis_failures": list(res.hypothesis_failures),
               "large_n_required": res.large_n_required}
    else:  # conjecture
        res = conjecture_values(ns.n, ns.r, ns.ells)
        doc = {"formula": name, "value": res.forest_value,
               "indicator": res.forest_indicator,
               "uniform_value": res.uniform_value, "notes": list(res.notes)}
    run.summary = {"value": doc["value"]}
    run.emit(doc, [f"{name}: {doc['value']}"])
    return EXIT_OK


_STATUS_EXIT = {
    berge.Status.FOUND: EXIT_OK,
    berge.Status.NOT_FOUND: EXIT_PROPERTY_FAILS,
    berge.Status.INDETERMINATE: EXIT_TRUNCATED,
}


def _embedding_doc(host_path, expr, result):
    return {
        "host": str(host_path),
        "pattern": expr,
        "status": result.status.value,
        "nodes": result.nodes,
        "certificate": _certificate_doc(result.certificate),
    }


def _cmd_check(ns, run):
    h = _load_host(run, ns.host)
    pattern = parse_pattern(ns.pattern)
    result = berge.find_berge_embedding(h, pattern, budget=ns.budget)
    doc = _embedding_doc(ns.host, pattern.expr, result)
    doc["free"] = result.status is berge.Status.NOT_FOUND
    run.summary = {"status": result.status.value}
    if result.status is berge.Status.NOT_FOUND:
        run.emit(doc, ["FREE"])
        return EXIT_OK
    if result.status is berge.Status.FOUND:
        run.emit(doc, ["CONTAINS", result.certificate.to_json().rstrip("\n")])
        return EXIT_PROPERTY_FAILS
    run.emit(doc, ["INDETERMINATE (budget exhausted)"])
    return EXIT_TRUNCATED


def _cmd_find(ns, run):
    h = _load_host(run, ns.host)
    pattern = parse_pattern(ns.pattern)
    result = berge.find_berge_embedding(h, pattern, budget=ns.budget)
    doc = _embedding_doc(ns.host, pattern.expr, result)
    run.summary = {"status": result.status.value}
    lines = [result.status.value.upper()]
    if result.certificate:
        lines.append(result.certificate.to_json().rstrip("\n"))
    run.emit(doc, lines)
    return _STATUS_EXIT[result.status]


def _cmd_cycle(ns, run):
    h = _load_host(run, ns.host)
    result = berge.find_berge_cycle(h, ns.length, budget=ns.budget)
    doc = _embedding_doc(ns.host, f"C{ns.length}", result)
    run.summary = {"status": result.status.value}
    lines = [result.status.value.upper()]
    if result.certificate:
        lines.append(result.certificate.to_json().rstrip("\n"))
    run.emit(doc, lines)
    return _STATUS_EXIT[result.status]


def _cmd_longest_path(ns, run):
    h = _load_host(run, ns.host)
    result = berge.longest_berge_path(h, budget=ns.budget)
    doc = {
        "host": ns.host,
        "length": result.length,
        "exact": result.exact,
        "nodes": result.nodes,
        "certificate": _certificate_doc(result.certificate),
    }
    run.summary = {"length": result.length, "exact": result.exact}
    run.emit(doc, [f"longest Berge path: {result.length} ({'exact' if result.exact else 'lower bound'})"])
    return EXIT_OK if result.exact else EXIT_TRUNCATED


def _cmd_good_order(ns, run):
    h = _load_host(run, ns.host)
    order = berge.good_order(h, ns.first)
    doc = {"host": ns.host, "first": ns.first, "ordering": list(order.ordering)}
    run.summary = {"length": len(order.ordering)}
    run.emit(doc, [" ".join(str(v) for v in order.ordering)])
    return EXIT_OK


def _cmd_bcn(ns, run):
    h = _load_host(run, ns.host)
    result = sorted(berge.berge_common_neighbours(h, ns.vertices))
    doc = {"host": ns.host, "base_set": sorted(set(ns.vertices)), "common_neighbours": result}
    run.summary = {"count": len(result)}
    run.emit(doc, [" ".join(str(v) for v in result) if result else "(none)"])
    return EXIT_OK


def _cmd_star(ns, run):
    h = _load_host(run, ns.host)
    result = berge.berge_star_exists(h, ns.centre, ns.size)
    doc = {
        "host": ns.host,
        "centre": ns.centre,
        "size": ns.size,
        "exists": result.exists,
        "degree": result.degree,
        "degree_threshold": result.degree_threshold,
        "degree_condition_holds": result.degree_condition_holds,
        "certificate": _certificate_doc(result.certificate),
    }
    run.summary = {"exists": result.exists}
    run.emit(doc, [f"exists: {result.exists} (degree {result.degree}, threshold {result.degree_threshold})"])
    return EXIT_OK if result.exists else EXIT_PROPERTY_FAILS


def _cmd_turan(ns, run):
    pattern = parse_pattern(ns.pattern)
    opts = SearchOptions(
        connected_only=ns.connected,
        node_budget=ns.budget,
        witness_limit=ns.witnesses,
        max_candidates=ns.max_candidates,
    )
    result = exact_turan(ns.n, ns.r, pattern, opts)
    witness_files = []
    if ns.out_dir:
        out = Path(ns.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, w in enumerate(result.witnesses):
            path = out / f"witness_{i}.hg"
            run.write_file(path, write_hypergraph(w))
            witness_files.append(str(path))
    doc = {
        "n": ns.n, "r": ns.r, "pattern": pattern.expr,
        "connected_only": ns.connected,
        "max_edges": result.max_edges,
        "exact": result.exact,
        "nodes_explored": result.nodes_explored,
        "elapsed_s": round(result.elapsed, 6),
        "witness_count": len(result.witnesses),
        "witness_files": witness_files,
    }
    run.summary = {"max_edges": result.max_edges, "exact": result.exact}
    run.emit(doc, [f"max edges: {result.max_edges} ({'exact' if result.exact else 'budget-truncated'})"])
    return EXIT_OK if result.exact else EXIT_TRUNCATED


def _cmd_verify_lemmas(ns, run):
    ids = sorted(LEMMAS) if ns.lemma == "all" else [ns.lemma]
    reports = [verify_lemma(lid) for lid in ids]
    rows = []
    for rep in reports:
        for pt, lhs, rhs, slack in rep.rows:
            rows.append([rep.lemma_id, *pt, str(lhs), str(rhs), str(slack)])
    if ns.csv:
        with open(ns.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lemma", "params...", "lhs", "rhs", "slack"])
            writer.writerows(rows)
        run.outputs.append(ns.csv)
    total_violations = sum(len(r.violations) for r in reports)
    doc = {
        "lemmas": [
            {
                "lemma_id": r.lemma_id,
                "statement": LEMMAS[r.lemma_id].statement,
                "points": len(r.grid),
                "violations": [list(v) for v in r.violations],
                "margin_min": str(r.margin_min),
                "strict": r.strict,
            }
            for r in reports
        ],
        "total_violations": total_violations,
        "csv_file": ns.csv,
    }
    run.summary = {"total_violations": total_violations}
    lines = [
        f"{r.lemma_id}: {len(r.grid)} points, {len(r.violations)} violations, min slack {r.margin_min}"
        for r in reports
    ]
    run.emit(doc, lines)
    return EXIT_OK if total_violations == 0 else EXIT_PROPERTY_FAILS


def _cmd_audit(ns, run):
    h = _load_host(run, ns.host)
    layout_path = ns.layout or ns.host + ".layout.json"
    data = json.loads(run.read_input(layout_path))
    layout = ConstructionLayout(
        core_A=tuple(data["A"]),
        outer_B=tuple(data["B"]),
        special_pair=tuple(data["special_pair"]) if data.get("special_pair") else None,
        edge_classes=dict(data["class_counts"]),
        theorem_hypothesis_holds=bool(data.get("theorem_hypothesis_holds", False)),
        k1_extrapolation=bool(data.get("k1_extrapolation", False)),
    )
    report = construction_audit(h, layout)
    doc = {
        "host": ns.host,
        "layout": str(layout_path),
        "passed": report.passed,
        "unexpected_edges": report.unexpected_edges,
        "classes": {
            name: {"expected": exp, "recounted": got, "ok": ok}
            for name, (exp, got, ok) in report.class_results.items()
        },
    }
    run.summary = {"passed": report.passed}
    lines = [f"{name}: expected {exp}, recounted {got}, {'ok' if ok else 'MISMATCH'}"
             for name, (exp, got, ok) in report.class_results.items()]
    lines.append("PASS" if report.passed else "FAIL")
    run.emit(doc, lines)
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bergeturan",
        description="Turan-type verification and search on Berge hypergraphs",
    )
    parser.add_argument("--version", action="version", version=f"bergeturan {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("construct", help="build the core extremal construction")
    sp.add_argument("-n", type=_integer, required=True)
    sp.add_argument("-r", type=_integer, required=True)
    sp.add_argument("-l", "--ell", dest="ell", type=_integer, required=True)
    sp.add_argument("-k", type=_integer, default=1)
    sp.add_argument("-o", "--output", help="write .hg here (plus .layout.json sidecar)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("block", help="disjoint complete blocks construction")
    sp.add_argument("-n", type=_integer, required=True)
    sp.add_argument("-l", "--block", dest="block", type=_integer, required=True)
    sp.add_argument("-r", type=_integer, required=True)
    sp.add_argument("-o", "--output")
    _add_common(sp)
    sp.set_defaults(func=_cmd_block)

    sp = sub.add_parser("formula", help="evaluate a closed-form bound exactly")
    sp.add_argument("--name", required=True,
                    choices=["erdos-gallai", "kpl-graph", "berge-path",
                             "connected-berge-path", "two-path", "berge-kpl", "conjecture"])
    sp.add_argument("-n", type=_integer, required=True)
    sp.add_argument("-r", type=_integer, default=2)
    sp.add_argument("-l", "--ell", dest="ell", type=_integer)
    sp.add_argument("--ell2", type=_integer, default=1)
    sp.add_argument("-k", type=_integer, default=2)
    sp.add_argument("--ells", type=_integer_list,
                    help="comma-separated path lengths for the forest conjecture")
    _add_common(sp)
    sp.set_defaults(func=_cmd_formula)

    sp = sub.add_parser("check", help="prove or refute freeness from a Berge pattern")
    sp.add_argument("host")
    sp.add_argument("-F", "--pattern", required=True)
    _add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("find", help="find a Berge copy with a certificate")
    sp.add_argument("host")
    sp.add_argument("-F", "--pattern", required=True)
    _add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_find)

    sp = sub.add_parser("longest-path", help="longest Berge path with witness")
    sp.add_argument("host")
    _add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_longest_path)

    sp = sub.add_parser("cycle", help="find a Berge cycle of a given length")
    sp.add_argument("host")
    sp.add_argument("--length", type=_integer, required=True)
    _add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_cycle)

    sp = sub.add_parser("good-order", help="vertex order whose consecutive pairs are good")
    sp.add_argument("host")
    sp.add_argument("--first", type=_integer, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_good_order)

    sp = sub.add_parser("bcn", help="Berge-common neighbours of a vertex set")
    sp.add_argument("host")
    sp.add_argument("--vertices", type=_integer_list, required=True,
                    help="comma-separated base set")
    _add_common(sp)
    sp.set_defaults(func=_cmd_bcn)

    sp = sub.add_parser("star", help="Berge star with a given centre")
    sp.add_argument("host")
    sp.add_argument("--centre", type=_integer, required=True)
    sp.add_argument("--size", type=_integer, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_star)

    sp = sub.add_parser("turan", help="exact Turan number by branch and bound")
    sp.add_argument("-n", type=_integer, required=True)
    sp.add_argument("-r", type=_integer, required=True)
    sp.add_argument("-F", "--pattern", required=True)
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--witnesses", type=_integer, default=1)
    sp.add_argument("--max-candidates", type=_integer, default=64)
    sp.add_argument("--out-dir", help="directory for witness .hg files")
    _add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_turan)

    sp = sub.add_parser("verify-lemmas", help="verify the binomial inequalities exactly")
    sp.add_argument("--lemma", default="all", choices=["all", *sorted(LEMMAS)])
    sp.add_argument("--csv", help="write one row per grid point here")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_lemmas)

    sp = sub.add_parser("audit", help="recount a construction's edge classes")
    sp.add_argument("host")
    sp.add_argument("--layout", help="layout JSON (default: <host>.layout.json)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    run = _Run(ns)
    try:
        return ns.func(ns, run)
    except (BergeTuranError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())
