"""The handlers of the commands that build, evaluate, inspect and audit:
``construct``, ``block``, ``formula``, ``good-order``, ``bcn``, ``star``,
``verify-lemmas`` and ``audit``.

:mod:`bergeturan.cli` parses every command and imports this module only
to run one of these, so ``check``, ``find``, ``cycle``, ``longest-path``
and ``turan`` never compile it.  Each handler imports what it runs when it
runs, as those of ``cli`` do.
"""

import json

from .cli import EXIT_OK, EXIT_PROPERTY_FAILS, _certificate_doc, _load_host
from .errors import BergeTuranError


def _frac(x):
    """An exact rational (an int or a ``Fraction``) as JSON: an integer when
    whole, else the string 'p/q'."""
    return int(x) if x.denominator == 1 else str(x)


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
