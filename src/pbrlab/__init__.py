"""Workbench for finite hidden-variable models of quantum preparations:
exact two-qubit Born probabilities, LP feasibility with Farkas certificates
for the two-state no-go argument, and the contextual counterexample that
reproduces the quantum statistics with fully overlapping epistemic states.
"""

__version__ = "0.1.0"

from .hilbert import (CONTEXTS, MeasurementBasis, PureState, born,
                      born_targets, inner, make_state, pbr_basis,
                      product_state, psi, tensor)
from .ontology import (EpistemicState, LambdaSpace, OntologicalModel,
                       OutcomeCounts, ResponseTable, chi_square_statistic,
                       predict, sample, support_overlap, validate_model)
from .nogo import (ContradictionProof, FeasibilityOutcome, FeasibilityProblem,
                   NoOverlap, build_feasibility, derive_contradiction,
                   solve_feasibility, verify_certificate, witness_model)
from .contextual import (RefutationReport, build_interval_model,
                         refutation_report)
from .scalar import RootTwo, Scalar

__all__ = [name for name in dir() if not name.startswith("_")]
