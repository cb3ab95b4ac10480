"""In-memory spans around the calls into each bergeturan module.

A span records name, start, end (perf_counter_ns), parent span and job id,
plus a small info value taken from the call's result (kernel status and
nodes, tree nodes, grid points).  Spans stay in memory and are written as
JSON when the traced process ends.

Each function is wrapped at the name its caller resolves: ``search`` binds
``solve_raw`` and ``find_berge_embedding`` by name and ``cli`` binds
``exact_turan``, the readers and the constructions by name, so those names
are replaced in the modules that use them as well as where they are
defined.  Lanes are counted by wrapping ``_engine_py.solve`` (and
``_engine_cy.solve`` when it imports), which the dispatcher in
``bergeturan.engine`` looks up on every call.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, job, info]
        self.stack = []
        self.job = None

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, _now(), 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if info is not None:
                    rec[5] = info(args, kwargs, out)
                return out
            finally:
                stack.pop()
                rec[2] = _now()

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _kernel_info(args, kwargs, out):
    return [out[0], out[3]]  # status, nodes


def _solve_raw_info(args, kwargs, out):
    pinned = kwargs.get("pinned", args[6] if len(args) > 6 else None)
    return [out[0], bool(pinned)]


def _tree_info(args, kwargs, out):
    return out.nodes_explored


def _grid_info(args, kwargs, out):
    return len(out.grid)


def _one(args, kwargs, out):
    return 1


_BERGE = ("find_berge_embedding", "find_berge_cycle", "longest_berge_path", "good_order",
          "berge_common_neighbours", "berge_star_exists", "verify_certificate", "_host_prep")
_FORMULAS = ("berge_kpl_turan", "berge_path_bound", "conjecture_values",
             "connected_berge_path_turan", "erdos_gallai_bound", "kpl_graph_turan",
             "two_path_turan", "default_grid")


def install(tracer):
    """Wrap the package's public functions; returns the modules touched."""
    from bergeturan import _engine_py, berge, cli, constructions, core, engine, formulas, search

    def span_name(fn):
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def infos(name):
        if name.endswith(".solve_raw"):
            return _solve_raw_info
        if name.endswith(".exact_turan"):
            return _tree_info
        if name.endswith(".verify_lemma"):
            return _grid_info
        if name.startswith("formulas.") and not name.endswith(".default_grid"):
            return _one
        return None

    def patch(module, attr):
        fn = getattr(module, attr)
        name = span_name(fn)
        setattr(module, attr, tracer.wrap(name, fn, infos(name)))

    _engine_py.solve = tracer.wrap("engine.pure", _engine_py.solve, _kernel_info)
    if engine._engine_cy is not None:
        engine._engine_cy.solve = tracer.wrap("engine.compiled", engine._engine_cy.solve,
                                              _kernel_info)
    for attr in _BERGE + ("solve_raw",):
        patch(berge, attr)
    for attr in ("read_hypergraph", "write_hypergraph", "parse_pattern"):
        patch(core, attr)
        patch(cli, attr)
    for attr in ("extremal_construction", "block_construction", "construction_audit"):
        patch(constructions, attr)
        patch(cli, attr)
    for attr in _FORMULAS + ("verify_lemma",):
        patch(formulas, attr)
        if hasattr(cli, attr):
            patch(cli, attr)
    for attr in ("exact_turan", "is_maximal_free", "compare_with_formula"):
        patch(search, attr)
    for attr in ("solve_raw", "find_berge_embedding", "extremal_construction", "berge_kpl_turan"):
        patch(search, attr)
    patch(cli, "exact_turan")
    return berge


def plan_cache(berge):
    info = berge._pattern_plan.cache_info()
    return [info.hits, info.misses]


# --- aggregation (runs in the benchmark's parent process) ---------------------

_EXACT = {
    "engine.pure": "engine.s",
    "engine.compiled": "engine.s",
    "berge._host_prep": "berge.host_prep_s",
    "berge.verify_certificate": "berge.verify_s",
    "core.read_hypergraph": "core.read_s",
    "core.write_hypergraph": "core.write_s",
    "core.parse_pattern": "core.parse_pattern_s",
    "constructions.construction_audit": "constructions.audit_s",
}
_BY_LAYER = {
    "berge": "berge.self_s",
    "search": "search.self_s",
    "constructions": "constructions.build_s",
    "formulas": "formulas.s",
    "cli": "cli.self_s",
    "harness": "harness.self_s",
}
TIME_BUCKETS = sorted(set(_EXACT.values()) | set(_BY_LAYER.values()))

# the per-layer metrics a traced run reports, with their units
UNITS = {
    "engine.calls": "count", "engine.s": "s", "engine.nodes": "count",
    "engine.nodes_per_s": "1/s", "engine.us_per_call": "us", "engine.found": "count",
    "engine.not_found": "count", "engine.indeterminate": "count",
    "engine.pure_calls": "count", "engine.compiled_calls": "count",
    "search.tree_nodes": "count", "search.pinned_calls": "count",
    "search.pinned_hit_ratio": "frac", "search.self_s": "s",
    "berge.host_prep_s": "s", "berge.self_s": "s", "berge.verify_s": "s",
    "berge.plan_cache_hit_ratio": "frac",
    "core.read_s": "s", "core.write_s": "s", "core.parse_pattern_s": "s",
    "constructions.build_s": "s", "constructions.audit_s": "s",
    "formulas.s": "s", "formulas.points": "count", "cli.self_s": "s",
}


def bucket_of(name):
    return _EXACT.get(name) or _BY_LAYER[name.split(".", 1)[0]]


def aggregate(spans):
    """Per-layer totals of one traced process.

    Self time is a span's duration minus its children's durations (the
    process is single-threaded, so children never overlap).  Returns
    (totals, per_job, root_ns, self_ns): totals maps metric names to
    values, per_job maps job id to its deterministic counts, root_ns is the
    summed duration of the top-level spans and self_ns the summed self
    times, which must be equal.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(TIME_BUCKETS, 0)
    counts = {
        "engine.calls": 0, "engine.nodes": 0, "engine.found": 0, "engine.not_found": 0,
        "engine.indeterminate": 0, "engine.pure_calls": 0, "engine.compiled_calls": 0,
        "search.tree_nodes": 0, "search.pinned_calls": 0, "search.pinned_hits": 0,
        "formulas.points": 0,
    }
    per_job = {}
    root_ns = 0
    for i, (name, start, end, parent, job, info) in enumerate(spans):
        self_ns[bucket_of(name)] += end - start - child_ns[i]
        if parent < 0:
            root_ns += end - start
        mine = per_job.setdefault(job, {"engine.calls": 0, "engine.nodes": 0,
                                        "search.tree_nodes": 0})
        if name.startswith("engine."):
            status, nodes = info
            counts["engine.calls"] += 1
            counts["engine.nodes"] += nodes
            counts[("engine.not_found", "engine.found", "engine.indeterminate")[status]] += 1
            counts["engine.pure_calls" if name == "engine.pure" else "engine.compiled_calls"] += 1
            mine["engine.calls"] += 1
            mine["engine.nodes"] += nodes
        elif name == "berge.solve_raw" and info[1]:
            counts["search.pinned_calls"] += 1
            counts["search.pinned_hits"] += info[0] == 1
        elif name == "search.exact_turan":
            counts["search.tree_nodes"] += info
            mine["search.tree_nodes"] += info
        elif name.startswith("formulas.") and info is not None:
            counts["formulas.points"] += info
    totals = {k: v / 1e9 for k, v in self_ns.items()}
    totals.update(counts)
    return totals, per_job, root_ns, sum(self_ns.values())
