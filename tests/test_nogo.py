from fractions import Fraction

import pytest

from pbrlab.hilbert import CONTEXTS, born_targets
from pbrlab.nogo import (ContradictionProof, NoOverlap, build_feasibility,
                         derive_contradiction, solve_feasibility,
                         theorem_expected_verdict, verify_certificate,
                         witness_model)
from pbrlab.ontology import (EpistemicState, LambdaSpace, ModelError,
                             OntologicalModel, ResponseTable, predict,
                             validate_model)

PBR = born_targets()


def _uniform_pair(L):
    u = EpistemicState.uniform(L)
    return u, u


def test_build_counts_L1():
    p = build_feasibility(*_uniform_pair(1), PBR)
    assert p.num_vars == 4
    assert len(p.A) == 1 + 16
    assert all(len(row) == 4 for row in p.A)


def test_build_counts_L2():
    p = build_feasibility(*_uniform_pair(2), PBR)
    assert p.num_vars == 16
    assert len(p.A) == 4 + 16
    assert p.row_labels[0] == "norm lambda=0 lambda'=0"
    assert p.row_labels[4] == "born outcome=1 context=11"


def test_born_row_coefficients():
    r1 = EpistemicState((Fraction(1, 3), Fraction(2, 3)))
    r2 = EpistemicState((Fraction(1, 4), Fraction(3, 4)))
    p = build_feasibility(r1, r2, PBR)
    # row for outcome 1, context (1,1): weights rho1(lam)*rho1(lam') on the
    # outcome-1 columns, zero elsewhere
    row = p.A[4]
    expected = {(0, 0): Fraction(1, 9), (0, 1): Fraction(2, 9),
                (1, 0): Fraction(2, 9), (1, 1): Fraction(4, 9)}
    for (lam, lamp), w in expected.items():
        assert row[lam * 2 + lamp] == w
    assert all(v == 0 for v in row[4:])


def test_build_rejects_bad_inputs():
    bad = EpistemicState((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ModelError):
        build_feasibility(bad, EpistemicState.uniform(2), PBR)
    with pytest.raises(ModelError):
        build_feasibility(*_uniform_pair(2), ((Fraction(1),) * 4,) * 4)


def test_disjoint_point_masses_feasible():
    r1 = EpistemicState.point_mass(2, 0)
    r2 = EpistemicState.point_mass(2, 1)
    p = build_feasibility(r1, r2, PBR)
    out = solve_feasibility(p)
    assert out.feasible

    # independent witness: P(.|lam, lam') = targets of context (j(lam), k(lam'))
    # with j(0)=1, j(1)=2; check it satisfies all 20 constraints directly
    def ctx_row(lam, lamp):
        return PBR[CONTEXTS.index((1 if lam == 0 else 2, 1 if lamp == 0 else 2))]

    x = [Fraction(0)] * p.num_vars
    for i in range(4):
        for lam in range(2):
            for lamp in range(2):
                x[(i * 2 + lam) * 2 + lamp] = ctx_row(lam, lamp)[i]
    for row, rhs in zip(p.A, p.b):
        assert sum(c * v for c, v in zip(row, x)) == rhs


def test_uniform_overlap_infeasible_with_certificate():
    p = build_feasibility(*_uniform_pair(2), PBR)
    out = solve_feasibility(p)
    assert not out.feasible
    assert verify_certificate(p, out.certificate)


def test_single_lambda_infeasible():
    p = build_feasibility(*_uniform_pair(1), PBR)
    out = solve_feasibility(p)
    assert not out.feasible
    assert verify_certificate(p, out.certificate)


def test_zero_certificate_rejected():
    p = build_feasibility(*_uniform_pair(2), PBR)
    assert not verify_certificate(p, [Fraction(0)] * len(p.A))


def test_certificate_fails_on_feasible_problem():
    infeasible = build_feasibility(*_uniform_pair(2), PBR)
    cert = solve_feasibility(infeasible).certificate
    feasible = build_feasibility(EpistemicState.point_mass(2, 0),
                                 EpistemicState.point_mass(2, 1), PBR)
    assert not verify_certificate(feasible, cert)


def test_certificate_dimension_mismatch():
    p = build_feasibility(*_uniform_pair(2), PBR)
    with pytest.raises(ModelError):
        verify_certificate(p, [Fraction(1)])


def test_soundness_witness_reproduces_targets():
    # feasible verdicts must come with an exactly reproducing model
    pairs = [
        (EpistemicState.point_mass(2, 0), EpistemicState.point_mass(2, 1)),
        (EpistemicState.point_mass(3, 2), EpistemicState.point_mass(3, 0)),
        (EpistemicState((Fraction(1, 3), Fraction(2, 3), Fraction(0), Fraction(0))),
         EpistemicState((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)))),
    ]
    for r1, r2 in pairs:
        p = build_feasibility(r1, r2, PBR)
        out = solve_feasibility(p)
        assert out.feasible
        m = witness_model(p, out)
        assert validate_model(m) == []
        for c, ctx in enumerate(CONTEXTS):
            assert predict(m, ctx) == PBR[c]


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_theorem_instance_uniform(L):
    r1, r2 = _uniform_pair(L)
    p = build_feasibility(r1, r2, PBR)
    out = solve_feasibility(p)
    assert not out.feasible
    assert verify_certificate(p, out.certificate)
    assert not theorem_expected_verdict(r1, r2)


def _trivial_response(L):
    return ResponseTable(tuple(
        tuple(tuple(Fraction(1, 4) for _ in range(L)) for _ in range(L))
        for _ in range(4)))


def _model(r1, r2, targets=PBR, mode="exact"):
    L = r1.size
    return OntologicalModel(mode=mode, lambda_space=LambdaSpace(L),
                            rho1=r1, rho2=r2,
                            response=(_trivial_response(L),), born_targets=targets)


def test_contradiction_uniform_overlap():
    proof = derive_contradiction(_model(*_uniform_pair(2)))
    assert isinstance(proof, ContradictionProof)
    assert proof.lambda_star == 0
    assert [s.context for s in proof.steps] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [s.outcome for s in proof.steps] == [1, 2, 3, 4]
    assert all(s.weight > 0 for s in proof.steps)
    assert proof.total == 0
    assert "requires 1" in proof.conclusion


def test_contradiction_matches_lp_on_same_inputs():
    for L in (1, 2, 3, 4):
        proof = derive_contradiction(_model(*_uniform_pair(L)))
        assert isinstance(proof, ContradictionProof)


def test_contradiction_no_overlap():
    m = _model(EpistemicState.point_mass(2, 0), EpistemicState.point_mass(2, 1))
    assert isinstance(derive_contradiction(m), NoOverlap)


def test_contradiction_requires_zero_targets():
    flat = ((Fraction(1, 4),) * 4,) * 4
    with pytest.raises(ModelError, match="outcome 1"):
        derive_contradiction(_model(*_uniform_pair(2), targets=flat))


def test_contradiction_refuses_float_mode():
    m = OntologicalModel(mode="float", lambda_space=LambdaSpace(2),
                         rho1=EpistemicState((0.5, 0.5)),
                         rho2=EpistemicState((0.5, 0.5)),
                         response=(_trivial_response(2),), born_targets=PBR)
    with pytest.raises(ModelError, match="exact"):
        derive_contradiction(m)


def test_monotonicity_block_disjoint_L4():
    r1 = EpistemicState((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    r2 = EpistemicState((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    p = build_feasibility(r1, r2, PBR)
    out = solve_feasibility(p)
    assert out.feasible
    m = witness_model(p, out)
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == PBR[c]
