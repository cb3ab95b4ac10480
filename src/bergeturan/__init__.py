"""Verification and search toolkit for Turan-type problems on Berge hypergraphs.

Builds the extremal configurations, decides Berge-subhypergraph containment
with certificates, evaluates the exact Turan formulas, verifies the
supporting binomial inequalities in exact rational arithmetic, and computes
exact Turan numbers for small instances: the value by listing the free
hosts level by level up to isomorphism, the witnesses by branch and bound.

The public names below are resolved on first use (PEP 562): importing the
package loads none of its submodules, so a CLI subcommand pays only for the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "berge": (
        "BergeCertificate", "EmbeddingResult", "GoodOrder", "PathSearchResult", "StarResult",
        "Status", "berge_common_neighbours", "berge_star_exists", "find_berge_cycle",
        "find_berge_embedding", "good_order", "longest_berge_path", "verify_certificate",
    ),
    "constructions": (
        "AuditReport", "ConstructionLayout", "block_construction", "construction_audit",
        "extremal_construction",
    ),
    "core": (
        "FormulaParams", "Hypergraph", "PatternGraph", "cycle_pattern", "disjoint_paths_pattern",
        "make_hypergraph", "matching_pattern", "parse_pattern", "path_pattern", "read_hypergraph",
        "star_pattern", "union_pattern", "write_hypergraph",
    ),
    "formulas": (
        "ConjectureReport", "LemmaReport", "berge_kpl_turan", "berge_path_bound",
        "conjecture_values", "connected_berge_path_turan", "default_grid", "erdos_gallai_bound",
        "kpl_graph_turan", "two_path_turan", "verify_lemma",
    ),
    "search": (
        "ComparisonReport", "SearchOptions", "SearchResult", "compare_with_formula",
        "exact_turan", "is_maximal_free",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def _lazy_getattr(module_name, sources):
    """A PEP 562 ``__getattr__`` for module ``module_name`` that resolves each
    name in ``sources`` on the submodule it maps to, importing that on first
    use, and raises AttributeError for every other name."""

    def __getattr__(name):
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        return getattr(import_module(f"{__name__}.{source}"), name)

    return __getattr__


__getattr__ = _lazy_getattr(__name__, _SOURCE)


def __dir__():
    return sorted(set(globals()) | set(__all__))
