"""Exact domination-type invariants of graphs and lexicographic products.

The package computes the domination, total / perfect / Roman / perfect
Roman / total Roman domination, packing and open packing parameters of
small graphs exactly, builds lexicographic products, predicts product
parameters from factor data via a theorem-indexed formula engine, and
verifies every implemented statement by brute force over graph corpora.

Importing the package loads ``errors``, ``graph``, ``graphio``,
``product`` and ``solvers``.  The analysis layers ``structure``,
``formula`` and ``verify`` load together, through the module
``__getattr__`` (PEP 562), on the first access to one of their names or
to one of the three modules: a process that only solves one graph,
builds one product or generates one graph never compiles them.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    DomainError,
    GraphFormatError,
    HypothesisError,
    InconsistencyError,
    LexdomError,
)
from .graph import Graph, RomanAssignment, assignment_from_masks, bits, build_graph, mask_from
from .graphio import (
    GraphFamilySpec,
    generate,
    load_corpus,
    parse_edge_list,
    parse_family,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .product import ProductIndexMap, lex_product
from .solvers import (
    ParameterKind,
    SolveResult,
    TheoremId,
    enumerate_optimal_v2,
    is_feasible,
    is_prdf,
    is_rdf,
    is_trdf,
    solve,
    zeta,
    zeta_couples,
    zeta_prime,
)

__all__ = [
    "CapExceededError", "DomainError", "GraphFormatError", "HypothesisError",
    "InconsistencyError", "LexdomError",
    "Graph", "RomanAssignment", "assignment_from_masks", "bits", "build_graph", "mask_from",
    "GraphFamilySpec", "generate", "load_corpus", "parse_edge_list", "parse_family",
    "parse_graph6", "write_edge_list", "write_graph6",
    "ProductIndexMap", "lex_product",
    "ParameterKind", "SolveResult", "TheoremId", "enumerate_optimal_v2", "is_feasible",
    "is_prdf", "is_rdf", "is_trdf", "solve", "zeta", "zeta_couples", "zeta_prime",
    "HypothesisCheck", "HypothesisKind", "check_hypothesis", "graph_class",
    "is_dominating_couple", "is_efficient_closed_domination", "is_efficient_open_domination",
    "Prediction", "construct_witness", "predict",
    "ClaimRecord", "CorpusReport", "VerificationReport", "check_structural_lemmas",
    "verify_corpus", "verify_pair",
]

#: Each analysis layer and the names the package takes from it.
_ANALYSIS = {
    "structure": ("HypothesisCheck", "HypothesisKind", "check_hypothesis", "graph_class",
                  "is_dominating_couple", "is_efficient_closed_domination",
                  "is_efficient_open_domination"),
    "formula": ("Prediction", "construct_witness", "predict"),
    "verify": ("ClaimRecord", "CorpusReport", "VerificationReport",
               "check_structural_lemmas", "verify_corpus", "verify_pair"),
}
_LAZY = {*_ANALYSIS, *(name for names in _ANALYSIS.values() for name in names)}


def __getattr__(name: str):
    """Load all three analysis layers on the first access to one of their
    names; any other name is missing, and nothing is imported."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    for layer, names in _ANALYSIS.items():
        module = import_module(f".{layer}", __name__)
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
