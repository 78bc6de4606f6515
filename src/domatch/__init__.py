"""Graphs whose total domination number is twice the minimum maximal matching number.

Exact solvers for both invariants, a certificate checker and searcher for
the minimum-degree-at-most-two characterization, a polynomial recognizer
for the leafless case, and generators for the named graph families.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562), so a caller pays only
for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public names by the module that defines them.
_EXPORTS = {
    "characterization": (
        "CONDITION_IDS",
        "CertifyingMatchingResult",
        "ConditionReport",
        "MatchingPartition",
        "Violation",
        "check_certificate_conditions",
        "find_certifying_matching",
        "iter_maximal_matchings",
        "partition_matching",
        "total_dominating_set_from_matching",
    ),
    "errors": (
        "DomainError",
        "DomatchError",
        "EdgeListFormatError",
        "ResourceLimitError",
    ),
    "generators": (
        "TightGraphParams",
        "TightRecipe",
        "build_tight_graph",
        "cycle",
        "high_degree_extremal",
        "path",
        "random_tight_graph",
        "spider",
        "subdivided_grid",
        "triangle_book",
    ),
    "graph": (
        "INFINITE_GIRTH",
        "Edge",
        "Graph",
        "SupportClassification",
        "connected_components",
        "girth",
        "min_degree",
        "parse_edge_list",
        "serialize_edge_list",
        "support_classification",
    ),
    "oracles": (
        "DEFAULT_MAX_VERTICES",
        "BoundReport",
        "Matching",
        "SearchStats",
        "SolverResult",
        "check_matching_bound",
        "is_matching",
        "is_maximal_matching",
        "is_tight_graph",
        "is_total_dominating",
        "minimum_maximal_matching",
        "total_domination_number",
    ),
    "recognizer": (
        "CertifyingMatching",
        "ComponentOutcome",
        "ExceptionalBook",
        "ExceptionalSixCycle",
        "RecognitionOutcome",
        "Refutation",
        "check_degree_two_certificate",
        "recognize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Submodules (``domatch.oracles``) resolve too; importing one binds it here.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
