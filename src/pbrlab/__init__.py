"""Workbench for finite hidden-variable models of quantum preparations:
exact two-qubit Born probabilities, LP feasibility with Farkas certificates
for the two-state no-go argument, and the contextual counterexample that
reproduces the quantum statistics with fully overlapping epistemic states.

Public names are resolved on first use (PEP 562), so importing the package,
or one command of its command line, loads only the modules that need it.
"""

import importlib

__version__ = "0.2.0"

_SUBMODULES = ("contextual", "hilbert", "nogo", "ontology", "simplex",
               "values")
_SOURCES = {  # public name -> the submodule defining it
    **dict.fromkeys(("MeasurementBasis", "PureState", "born", "born_targets",
                     "inner", "make_state", "pbr_basis", "product_state",
                     "psi", "tensor"), "hilbert"),
    **dict.fromkeys(("CONTEXTS", "EpistemicState", "LambdaSpace",
                     "OntologicalModel", "OutcomeCounts", "ResponseTable",
                     "support_overlap"), "values"),
    **dict.fromkeys(("chi_square_statistic", "predict", "sample",
                     "validate_model"), "ontology"),
    **dict.fromkeys(("FeasibilityOutcome", "FeasibilityProblem",
                     "build_feasibility", "solve_feasibility",
                     "verify_certificate", "witness_model"), "nogo"),
    **dict.fromkeys(("ContradictionProof", "NoOverlap",
                     "derive_contradiction"), "forcing"),
    **dict.fromkeys(("RefutationReport", "build_interval_model",
                     "refutation_report"), "contextual"),
}

__all__ = sorted([*_SOURCES, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value
