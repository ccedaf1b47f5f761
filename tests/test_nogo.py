from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_simplex import (densify, dense_solve_equalities,
                           dense_verify_certificate)
from pbrlab.contextual import build_interval_model
from pbrlab.hilbert import CONTEXTS, born_targets
from pbrlab.nogo import (ContradictionProof, NoOverlap, build_feasibility,
                         derive_contradiction, lambda_classes, quotient,
                         solve_feasibility, theorem_expected_verdict,
                         verify_certificate, witness_model)
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
    assert all(len(row) == 4 for row in densify(p.A, p.num_vars))
    # sparse rows: 4 outcome columns per normalization row, one cell per
    # Born row at L = 1
    assert [len(row) for row in p.A] == [4] + [1] * 16


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
    assert p.A[4] == ((0, Fraction(1, 9)), (1, Fraction(2, 9)),
                      (2, Fraction(2, 9)), (3, Fraction(4, 9)))
    row = densify(p.A, p.num_vars)[4]
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
    for row, rhs in zip(densify(p.A, p.num_vars), p.b):
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


def test_certificate_with_zero_objective_rejected():
    # y^T A <= 0 in every column, but y^T b = -1 + 1/4 + 1/4 + 1/2 = 0:
    # y = -1 on the normalization row, 1 on the Born rows of outcomes
    # 2, 3 and 4 in context 11 (targets 1/4, 1/4, 1/2)
    p = build_feasibility(*_uniform_pair(1), PBR)
    y = [Fraction(0)] * len(p.A)
    y[0] = Fraction(-1)
    for i in (1, 2, 3):
        y[1 + 4 * i] = Fraction(1)
    assert p.b[5] == Fraction(1, 4) and p.b[13] == Fraction(1, 2)
    assert not verify_certificate(p, y)
    assert not dense_verify_certificate(densify(p.A, p.num_vars), p.b, y)


def test_audit_shares_no_code_with_simplex():
    # the audit checks the solver's certificates and their lift, so it must
    # not run any of the solver's code, nor the lift's integer scaling
    import types

    import pbrlab.nogo as nogo

    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from names(const)

    for name in names(verify_certificate.__code__):
        used = getattr(nogo, name, None)
        assert getattr(used, "__module__", None) != "pbrlab.simplex", name
        assert name != "_over_common_denominator", name


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


def _model(r1, r2, targets=PBR):
    L = r1.size
    return OntologicalModel(lambda_space=LambdaSpace(L),
                            rho1=r1, rho2=r2,
                            response=(_trivial_response(L),), born_targets=targets)


_HALVES = EpistemicState.uniform(2)
BAD_INPUTS = {
    "negative-rho1": (EpistemicState((Fraction(3, 2), Fraction(-1, 2))),
                      _HALVES, PBR),
    "unnormalised-rho2": (_HALVES, EpistemicState((Fraction(1, 3),) * 2), PBR),
    "both-rho": (EpistemicState((Fraction(-1), Fraction(1))),
                 EpistemicState((Fraction(1), Fraction(1))), PBR),
    "rows-sum-to-4": (_HALVES, _HALVES, ((Fraction(1),) * 4,) * 4),
    "target-out-of-range": (_HALVES, _HALVES, (
        (Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)),
        *PBR[1:])),
    "targets-not-4x4": (_HALVES, _HALVES, PBR[:3]),
    "float-rho1": (EpistemicState((0.5, 0.5)), _HALVES, PBR),
    "bool-rho2": (_HALVES, EpistemicState((True, False)), PBR),
    "float-target": (_HALVES, _HALVES, (
        (0.0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), *PBR[1:])),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_builders_report_what_validation_reports(case):
    r1, r2, targets = BAD_INPUTS[case]
    complaints = validate_model(_model(r1, r2, targets))
    assert complaints
    for build in (lambda: build_feasibility(r1, r2, targets),
                  lambda: build_interval_model(2, targets, r1, r2)):
        with pytest.raises(ModelError) as raised:
            build()
        assert all(c in str(raised.value) for c in complaints)


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


def test_monotonicity_block_disjoint_L4():
    r1 = EpistemicState((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    r2 = EpistemicState((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    p = build_feasibility(r1, r2, PBR)
    out = solve_feasibility(p)
    assert out.feasible
    m = witness_model(p, out)
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == PBR[c]


def test_sparse_rows_skip_zero_weights():
    r1 = EpistemicState((Fraction(1, 2), Fraction(0), Fraction(1, 2)))
    r2 = EpistemicState((Fraction(0), Fraction(1), Fraction(0)))
    p = build_feasibility(r1, r2, PBR)
    L = 3
    for row in p.A:
        cols = [col for col, _ in row]
        assert cols == sorted(set(cols))
        assert all(a != 0 for _, a in row)
        assert all(0 <= col < p.num_vars for col in cols)
    assert all(len(row) == 4 for row in p.A[:L * L])
    # contexts 11, 12, 21, 22 carry 4, 2, 2 and 1 nonzero cells
    assert [len(row) for row in p.A[L * L:]] == [4, 2, 2, 1] * 4


@st.composite
def _rho_pairs(draw, max_size=4):
    """Epistemic states over L <= max_size with small integer weights, zeros
    included; for L > 1 about half of the pairs have disjoint supports."""
    L = draw(st.integers(1, max_size))
    weights = st.lists(st.integers(0, 6), min_size=L, max_size=L)
    w1 = draw(weights.filter(any))
    w2 = draw(weights.filter(any))
    if L > 1 and draw(st.booleans()):
        # rho1 keeps the points below a cut, rho2 the points from it on
        cut = draw(st.integers(1, L - 1))
        w1 = [w if i < cut else 0 for i, w in enumerate(w1)]
        w2 = [0 if i < cut else w for i, w in enumerate(w2)]
        assume(any(w1) and any(w2))
    return (EpistemicState(tuple(Fraction(w, sum(w1)) for w in w1)),
            EpistemicState(tuple(Fraction(w, sum(w2)) for w in w2)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_rho_pairs())
def test_solve_feasibility_matches_dense_reference(pair):
    """The sparse solver makes the dense reference's pivots on the quotient
    LP, and solve_feasibility returns the lift of that answer: each cell's
    response is its class pair's, and the 16 Born duals are kept."""
    p = build_feasibility(*pair, PBR)
    classes, q = quotient(p)
    ref = dense_solve_equalities(densify(q.A, q.num_vars), q.b)
    out = solve_feasibility(p)
    assert out.feasible == ref.feasible == theorem_expected_verdict(*pair)
    K = q.lambda_size
    if out.feasible:
        assert out.witness.p == tuple(
            tuple(tuple(ref.witness[(i * K + kappa) * K + kappa_p]
                        for kappa_p in classes) for kappa in classes)
            for i in range(4))
    else:
        assert out.certificate[len(p.A) - 16:] == ref.certificate[K * K:]
        if q is p:
            assert out.certificate == ref.certificate


def _state(*weights):
    total = sum(weights)
    return EpistemicState(tuple(Fraction(w, total) for w in weights))


K_CASES = {  # (rho1, rho2, K)
    "disjoint": (_state(1, 2, 0, 0), _state(0, 0, 3, 4), 2),
    "one-shared": (_state(1, 2, 3, 0), _state(0, 0, 5, 4), 3),
    "two-shared": (_state(1, 2, 3, 4, 0, 0), _state(0, 0, 5, 7, 6, 2), 4),
    "uniform": (EpistemicState.uniform(5), EpistemicState.uniform(5), 1),
    "distinct-overlap": (_state(1, 2, 3, 4), _state(4, 3, 2, 9), 4),
    "point-masses": (EpistemicState.point_mass(3, 0),
                     EpistemicState.point_mass(3, 2), 3),
}


@pytest.mark.parametrize("case", sorted(K_CASES))
def test_class_count(case):
    """K is 2 for disjoint supports, s + 2 for s shared lambdas with
    distinct ratios, 1 for uniform rho and L for distinct overlapping
    weights; a lambda outside both supports adds one class."""
    r1, r2, K = K_CASES[case]
    assert len(set(lambda_classes(r1, r2))) == K
    padded = (EpistemicState(r1.weights + (Fraction(0),)),
              EpistemicState(r2.weights + (Fraction(0),)))
    if case == "point-masses":  # lambda 1 is already outside both supports
        K -= 1
    assert len(set(lambda_classes(*padded))) == K + 1


def test_classes_are_numbered_by_first_appearance():
    # lambdas 1 and 3 share [2 : 1], lambda 2 is outside both supports
    r1, r2 = _state(1, 4, 0, 2, 3), _state(3, 2, 0, 1, 0)
    assert lambda_classes(r1, r2) == (0, 1, 2, 1, 3)
    classes, q = quotient(build_feasibility(r1, r2, PBR))
    assert q.lambda_size == 4
    assert q.rho1.weights == (Fraction(1, 10), Fraction(6, 10), Fraction(0),
                              Fraction(3, 10))
    assert q.rho2.weights == (Fraction(1, 2), Fraction(1, 2), Fraction(0),
                              Fraction(0))


def test_quotient_with_one_lambda_per_class_is_the_problem():
    p = build_feasibility(*K_CASES["distinct-overlap"][:2], PBR)
    classes, q = quotient(p)
    assert classes == (0, 1, 2, 3) and q is p


@st.composite
def _shaped_rho_pairs(draw, max_size=7):
    """rho pairs over L <= max_size of a drawn shape: disjoint supports,
    partial overlap or full overlap, optionally with lambdas outside both
    supports, with weights from 1..2 (many duplicated ratios, so several
    lambdas share a class) or 1..1000 (mostly distinct)."""
    L = draw(st.integers(1, max_size))
    shape = draw(st.sampled_from(["disjoint", "partial", "full"]))
    roles = {"disjoint": "12", "partial": "123", "full": "3"}[shape]
    if draw(st.booleans()):
        roles += "0"  # outside both supports
    role = draw(st.lists(st.sampled_from(roles), min_size=L, max_size=L))
    assume("1" in role or "3" in role)
    assume("2" in role or "3" in role)
    assume(shape != "partial" or ("3" in role and set(role) - {"0", "3"}))
    weight = st.integers(1, draw(st.sampled_from([2, 1000])))
    w1 = [draw(weight) if r in "13" else 0 for r in role]
    w2 = [draw(weight) if r in "23" else 0 for r in role]
    return _state(*w1), _state(*w2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_shaped_rho_pairs())
def test_lifted_answers_hold_on_the_unreduced_problem(pair):
    """Whatever the shape, the verdict is the theorem's, a lifted
    certificate passes both audits of the unreduced LP, and a lifted
    witness is a valid model reproducing every target."""
    p = build_feasibility(*pair, PBR)
    out = solve_feasibility(p)
    assert out.feasible == theorem_expected_verdict(*pair)
    if out.feasible:
        m = witness_model(p, out)
        assert validate_model(m) == []
        for c, ctx in enumerate(CONTEXTS):
            assert predict(m, ctx) == PBR[c]
    else:
        assert verify_certificate(p, out.certificate)
        assert dense_verify_certificate(densify(p.A, p.num_vars), p.b,
                                        out.certificate)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_rho_pairs(), st.integers(0, 10 ** 6), st.sampled_from([1, -1]))
def test_audit_matches_dense_audit(pair, index, sign):
    p = build_feasibility(*pair, PBR)
    dense = densify(p.A, p.num_vars)
    out = solve_feasibility(p)
    zero = (Fraction(0),) * len(p.A)
    # the solver's certificate, or the zero vector for a feasible problem
    found = zero if out.feasible else out.certificate
    moved = list(found)
    moved[index % len(moved)] += sign * Fraction(1, 7)
    for y in (found, tuple(moved), zero):
        assert verify_certificate(p, y) == dense_verify_certificate(dense, p.b, y)
    if not out.feasible:
        assert verify_certificate(p, found)


def _forcing_certificate(p, proof):
    """The Farkas certificate the forcing proof spells out: 1 on the norm
    row of (lambda*, lambda*), and -1 / (rho_j(lambda*) rho_k(lambda*)) on
    the Born row of each outcome's zero-target context (j, k). Column
    (i, lambda*, lambda*) then sums to 1 - 1 = 0, every other column to
    -rho_j rho_k / weight <= 0, and y^T b = 1 - 0."""
    L = p.lambda_size
    y = [Fraction(0)] * len(p.A)
    y[proof.lambda_star * L + proof.lambda_star] = Fraction(1)
    for step in proof.steps:
        c = CONTEXTS.index(step.context)
        y[L * L + 4 * (step.outcome - 1) + c] = -1 / step.weight
    return y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rho_pairs(max_size=6))
def test_forcing_proof_is_a_farkas_certificate(pair):
    """The two halves of the no-go argument agree: the LP is infeasible
    exactly when the forcing proof finds an overlap, and the proof then
    yields a certificate the audit accepts, built with no solver code."""
    p = build_feasibility(*pair, PBR)
    proof = derive_contradiction(_model(*pair))
    assert solve_feasibility(p).feasible == isinstance(proof, NoOverlap)
    if isinstance(proof, ContradictionProof):
        assert verify_certificate(p, _forcing_certificate(p, proof))
