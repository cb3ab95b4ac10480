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
import io
import json
import sys
import time
from pathlib import Path

from . import __version__, _lazy_getattr
from .errors import BergeTuranError

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3

# the keys of formulas.LEMMAS in order (a test keeps them equal), spelled
# out so that building the parser does not import formulas
_LEMMA_IDS = ("I1", "I2", "I3", "I4", "I5")


# The functions that the commands import from their defining module when
# they run, so that building the parser loads no kernel.  They resolve on
# this module too, as they did when it imported them at its top, because
# the benchmark's tracer (``bench/tracer.py``) looks them up and re-binds
# them here; the wrapper it puts on the defining module is the one that
# runs.
__getattr__ = _lazy_getattr(__name__, {
    "read_hypergraph": "core",
    "write_hypergraph": "core",
    "parse_pattern": "core",
    "extremal_construction": "constructions",
    "block_construction": "constructions",
    "construction_audit": "constructions",
    "exact_turan": "search",
})


def _frac(x):
    """An exact rational (an int or a ``Fraction``) as JSON: an integer when
    whole, else the string 'p/q'."""
    return int(x) if x.denominator == 1 else str(x)


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
    from .core import read_hypergraph

    try:
        text = run.read_input(path)
    except FileNotFoundError:
        raise BergeTuranError(f"no such file: {path}")
    return read_hypergraph(text)


def _certificate_doc(cert):
    return None if cert is None else cert.to_json_dict()


def _sha256(data):
    """The SHA-256 of ``data`` from CPython's own implementation (module
    ``_sha2`` from 3.12 on, ``_sha256`` before), which loads in under a
    millisecond; ``hashlib`` loads OpenSSL, a few milliseconds, and runs
    only where neither imports.  All three give the same digest."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


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
        self.inputs[str(path)] = _sha256(data).hexdigest()
        return io.TextIOWrapper(io.BytesIO(data)).read()

    def write_file(self, path, text):
        Path(path).write_text(text)
        self.outputs.append(str(path))

    def manifest(self):
        args = {k: v for k, v in vars(self.ns).items() if k != "func" and v is not None}
        return {
            "subcommand": self.ns.subcommand,
            "arguments": args,
            "input_digests": self.inputs,
            "tool_version": __version__,
            "engine_backend": "pure-python",
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


def _cmd_construct(ns, run):
    from .constructions import extremal_construction
    from .core import FormulaParams, write_hypergraph
    from .formulas import berge_kpl_turan

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
    from .constructions import block_construction
    from .core import write_hypergraph

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
    from .core import FormulaParams
    from .formulas import (
        berge_kpl_turan,
        berge_path_bound,
        conjecture_values,
        connected_berge_path_turan,
        erdos_gallai_bound,
        kpl_graph_turan,
        two_path_turan,
    )

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


# by ``berge.Status`` value, so that building the parser loads no kernel
_STATUS_EXIT = {
    "found": EXIT_OK,
    "not-found": EXIT_PROPERTY_FAILS,
    "indeterminate": EXIT_TRUNCATED,
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
    from .berge import Status, find_berge_embedding
    from .core import parse_pattern

    h = _load_host(run, ns.host)
    pattern = parse_pattern(ns.pattern)
    result = find_berge_embedding(h, pattern, budget=ns.budget)
    doc = _embedding_doc(ns.host, pattern.expr, result)
    doc["free"] = result.status is Status.NOT_FOUND
    run.summary = {"status": result.status.value}
    if result.status is Status.NOT_FOUND:
        run.emit(doc, ["FREE"])
        return EXIT_OK
    if result.status is Status.FOUND:
        run.emit(doc, ["CONTAINS", result.certificate.to_json().rstrip("\n")])
        return EXIT_PROPERTY_FAILS
    run.emit(doc, ["INDETERMINATE (budget exhausted)"])
    return EXIT_TRUNCATED


def _cmd_find(ns, run):
    from .berge import find_berge_embedding
    from .core import parse_pattern

    h = _load_host(run, ns.host)
    pattern = parse_pattern(ns.pattern)
    result = find_berge_embedding(h, pattern, budget=ns.budget)
    doc = _embedding_doc(ns.host, pattern.expr, result)
    run.summary = {"status": result.status.value}
    lines = [result.status.value.upper()]
    if result.certificate:
        lines.append(result.certificate.to_json().rstrip("\n"))
    run.emit(doc, lines)
    return _STATUS_EXIT[result.status.value]


def _cmd_cycle(ns, run):
    from .berge import find_berge_cycle

    h = _load_host(run, ns.host)
    result = find_berge_cycle(h, ns.length, budget=ns.budget)
    doc = _embedding_doc(ns.host, f"C{ns.length}", result)
    run.summary = {"status": result.status.value}
    lines = [result.status.value.upper()]
    if result.certificate:
        lines.append(result.certificate.to_json().rstrip("\n"))
    run.emit(doc, lines)
    return _STATUS_EXIT[result.status.value]


def _cmd_longest_path(ns, run):
    from .berge import longest_berge_path

    h = _load_host(run, ns.host)
    result = longest_berge_path(h, budget=ns.budget)
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
    from .berge import good_order

    h = _load_host(run, ns.host)
    order = good_order(h, ns.first)
    doc = {"host": ns.host, "first": ns.first, "ordering": list(order.ordering)}
    run.summary = {"length": len(order.ordering)}
    run.emit(doc, [" ".join(str(v) for v in order.ordering)])
    return EXIT_OK


def _cmd_bcn(ns, run):
    from .berge import berge_common_neighbours

    h = _load_host(run, ns.host)
    result = sorted(berge_common_neighbours(h, ns.vertices))
    doc = {"host": ns.host, "base_set": sorted(set(ns.vertices)), "common_neighbours": result}
    run.summary = {"count": len(result)}
    run.emit(doc, [" ".join(str(v) for v in result) if result else "(none)"])
    return EXIT_OK


def _cmd_star(ns, run):
    from .berge import berge_star_exists

    h = _load_host(run, ns.host)
    result = berge_star_exists(h, ns.centre, ns.size)
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
    from .core import parse_pattern, write_hypergraph
    from .search import SearchOptions, exact_turan

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
        "answered_by": result.answered_by,
        "nodes_explored": result.nodes_explored,
        "pinned_calls": result.pinned_calls,
        "elapsed_s": round(result.elapsed, 6),
        "witness_count": len(result.witnesses),
        "witness_files": witness_files,
    }
    run.summary = {"max_edges": result.max_edges, "exact": result.exact}
    run.emit(doc, [f"max edges: {result.max_edges} ({'exact' if result.exact else 'budget-truncated'})"])
    return EXIT_OK if result.exact else EXIT_TRUNCATED


def _cmd_verify_lemmas(ns, run):
    import csv

    from .formulas import LEMMAS, verify_lemma

    ids = sorted(LEMMAS) if ns.lemma == "all" else [ns.lemma]
    reports = [verify_lemma(lid) for lid in ids]
    if ns.csv:
        # one column per parameter name of any lemma; a lemma's row leaves
        # the others empty
        with open(ns.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, ["lemma", "r", "k", "l", "L", "lhs", "rhs", "slack"],
                                    restval="")
            writer.writeheader()
            for rep in reports:
                names = LEMMAS[rep.lemma_id].params
                for pt, lhs, rhs, slack in rep.rows:
                    writer.writerow({"lemma": rep.lemma_id, **dict(zip(names, pt)),
                                     "lhs": lhs, "rhs": rhs, "slack": slack})
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
    from .constructions import ConstructionLayout, construction_audit

    h = _load_host(run, ns.host)
    layout_path = ns.layout or ns.host + ".layout.json"
    layout = ConstructionLayout.from_json(run.read_input(layout_path))
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


_REQUIRED_INT = {"type": _integer, "required": True}
_HOST = (("host",), {})
_PATTERN = (("-F", "--pattern"), {"required": True})
_MANIFEST = (("--manifest",), {"help": "write the run manifest to this path"})
_JSON = (("--json",), {"nargs": "?", "const": "-",
                       "help": "machine output; '-' or no value for stdout, else a path"})
_COMMON = [_MANIFEST, _JSON]
# the node budget of the kernel searches
_COMMON_BUDGET = [_MANIFEST,
                  (("--budget",), {"type": _integer, "default": 0,
                                   "help": "node budget; 0 means unlimited (exact)"}),
                  _JSON]

# One row per subcommand, in the order the usage line lists them: its help,
# its function, and its arguments as (flags, add_argument keywords) in the
# order its --help lists them.
_COMMANDS = {
    "construct": ("build the core extremal construction", _cmd_construct, [
        (("-n",), _REQUIRED_INT),
        (("-r",), _REQUIRED_INT),
        (("-l", "--ell"), _REQUIRED_INT),
        (("-k",), {"type": _integer, "default": 1}),
        (("-o", "--output"), {"help": "write .hg here (plus .layout.json sidecar)"}),
        *_COMMON,
    ]),
    "block": ("disjoint complete blocks construction", _cmd_block, [
        (("-n",), _REQUIRED_INT),
        (("-l", "--block"), _REQUIRED_INT),
        (("-r",), _REQUIRED_INT),
        (("-o", "--output"), {}),
        *_COMMON,
    ]),
    "formula": ("evaluate a closed-form bound exactly", _cmd_formula, [
        (("--name",), {"required": True,
                       "choices": ["erdos-gallai", "kpl-graph", "berge-path",
                                   "connected-berge-path", "two-path", "berge-kpl",
                                   "conjecture"]}),
        (("-n",), _REQUIRED_INT),
        (("-r",), {"type": _integer, "default": 2}),
        (("-l", "--ell"), {"type": _integer}),
        (("--ell2",), {"type": _integer, "default": 1}),
        (("-k",), {"type": _integer, "default": 2}),
        (("--ells",), {"type": _integer_list,
                       "help": "comma-separated path lengths for the forest conjecture"}),
        *_COMMON,
    ]),
    "check": ("prove or refute freeness from a Berge pattern", _cmd_check,
              [_HOST, _PATTERN, *_COMMON_BUDGET]),
    "find": ("find a Berge copy with a certificate", _cmd_find,
             [_HOST, _PATTERN, *_COMMON_BUDGET]),
    "longest-path": ("longest Berge path with witness", _cmd_longest_path,
                     [_HOST, *_COMMON_BUDGET]),
    "cycle": ("find a Berge cycle of a given length", _cmd_cycle, [
        _HOST,
        (("--length",), _REQUIRED_INT),
        *_COMMON_BUDGET,
    ]),
    "good-order": ("vertex order whose consecutive pairs are good", _cmd_good_order, [
        _HOST,
        (("--first",), _REQUIRED_INT),
        *_COMMON,
    ]),
    "bcn": ("Berge-common neighbours of a vertex set", _cmd_bcn, [
        _HOST,
        (("--vertices",), {"type": _integer_list, "required": True,
                           "help": "comma-separated base set"}),
        *_COMMON,
    ]),
    "star": ("Berge star with a given centre", _cmd_star, [
        _HOST,
        (("--centre",), _REQUIRED_INT),
        (("--size",), _REQUIRED_INT),
        *_COMMON,
    ]),
    "turan": ("exact Turan number by levels up to isomorphism, witnesses by branch and bound",
              _cmd_turan, [
        (("-n",), _REQUIRED_INT),
        (("-r",), _REQUIRED_INT),
        _PATTERN,
        (("--connected",), {"action": "store_true"}),
        (("--witnesses",), {"type": _integer, "default": 1}),
        (("--max-candidates",), {"type": _integer, "default": 64}),
        (("--out-dir",), {"help": "directory for witness .hg files"}),
        (("--budget",), {"type": _integer, "default": 0,
                         "help": "budget on listed classes plus tree nodes (each may run "
                                 "many pinned kernel checks); 0 means unlimited (exact); a "
                                 "truncated run is inexact, with free witnesses"}),
        *_COMMON,
    ]),
    "verify-lemmas": ("verify the binomial inequalities exactly", _cmd_verify_lemmas, [
        (("--lemma",), {"default": "all", "choices": ["all", *_LEMMA_IDS]}),
        (("--csv",), {"help": "write one row per grid point here"}),
        *_COMMON,
    ]),
    "audit": ("recount a construction's edge classes", _cmd_audit, [
        _HOST,
        (("--layout",), {"help": "layout JSON (default: <host>.layout.json)"}),
        *_COMMON,
    ]),
}


def build_parser(command=None):
    """The argument parser of every subcommand, or of ``command`` alone.

    The parser of one subcommand parses its arguments, and prints its help
    and errors, as the full parser does: its usage line still lists every
    subcommand."""
    parser = argparse.ArgumentParser(
        prog="bergeturan",
        description="Turan-type verification and search on Berge hypergraphs",
    )
    parser.add_argument("--version", action="version", version=f"bergeturan {__version__}")
    # a metavar also renames the subcommand in the errors on a missing or
    # unknown one, which only the full parser reports
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flags, options in arguments:
                sp.add_argument(*flags, **options)
            sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call runs one subcommand: build only its sub-parser when the first
    # argument names it
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
