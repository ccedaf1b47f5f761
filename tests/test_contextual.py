import json
from fractions import Fraction

import pytest

from pbrlab import ontology
from pbrlab.contextual import build_interval_model, refutation_report
from pbrlab.forcing import ContradictionProof, derive_contradiction
from pbrlab.hilbert import CONTEXTS, born_targets
from pbrlab.ontology import predict, validate_model
from pbrlab.serialize import dumps_canonical, model_from_json, model_to_json
from pbrlab.values import EpistemicState, ModelError, support_overlap
from records import replace

PBR = born_targets()


def test_interval_L2_context_11_deterministic():
    # targets (0, 1/4, 1/4, 1/2) and cell width 1/4 align on the interval
    # boundaries, so cells map to outcomes (2, 3, 4, 4) with no splitting
    m = build_interval_model(2, PBR)
    table = m.table((1, 1))
    expected_outcomes = {(0, 0): 2, (0, 1): 3, (1, 0): 4, (1, 1): 4}
    for (lam, lamp), outcome in expected_outcomes.items():
        for i in range(4):
            want = Fraction(1) if i + 1 == outcome else Fraction(0)
            assert table.p[i][lam][lamp] == want


def test_interval_L1_copies_targets():
    m = build_interval_model(1, PBR)
    for c, ctx in enumerate(CONTEXTS):
        table = m.table(ctx)
        assert tuple(table.p[i][0][0] for i in range(4)) == PBR[c]


def test_interval_L3_fractional_boundaries():
    m = build_interval_model(3, PBR)
    assert validate_model(m) == []
    # cell width 1/9 does not divide 1/4: some cell must split
    table = m.table((1, 1))
    fractional = [table.p[i][x][y] for i in range(4)
                  for x in range(3) for y in range(3)
                  if table.p[i][x][y] not in (0, 1)]
    assert fractional
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == PBR[c]


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_interval_exact_reproduction(L):
    m = build_interval_model(L, PBR)
    assert m.contextual and len(m.response) == 4
    assert validate_model(m) == []
    assert support_overlap(m.rho1, m.rho2).overlap_mass == 1
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == PBR[c]


def test_interval_arbitrary_targets():
    targets = ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6)),
               (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
               (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7)),
               (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    m = build_interval_model(3, targets)
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == targets[c]


def test_interval_supplied_rhos():
    # the generalized construction keeps exactness for non-uniform overlap
    r1 = EpistemicState((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    r2 = EpistemicState((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    m = build_interval_model(3, PBR, rho1=r1, rho2=r2)
    assert validate_model(m) == []
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == PBR[c]
    assert not support_overlap(r1, r2).disjoint


def test_interval_rejects_bad_inputs():
    with pytest.raises(ModelError):
        build_interval_model(0, PBR)
    with pytest.raises(ModelError):
        build_interval_model(2, ((Fraction(1),) * 4,) * 4)
    with pytest.raises(ModelError):
        build_interval_model(2, PBR, rho1=EpistemicState.uniform(3))
    with pytest.raises(ModelError, match="rho1"):
        build_interval_model(2, PBR, rho1=EpistemicState((Fraction(2), Fraction(-1))))
    with pytest.raises(ModelError, match="rho2"):
        build_interval_model(2, PBR, rho2=EpistemicState((Fraction(1, 3),) * 2))


def test_context_independent_table_reduces_to_noncontextual():
    base = build_interval_model(2, PBR)
    shared = base.table((1, 1))
    m = replace(base, response=(shared,) * 4)
    assert m.contextual
    for ctx in CONTEXTS:
        flat = replace(m, response=(m.table(ctx),))
        assert not flat.contextual
        assert predict(m, ctx) == predict(flat, ctx)


def test_degenerate_contextual_model_still_contradicted():
    # freezing the response across contexts brings back the no-go argument
    base = build_interval_model(2, PBR)
    flat = replace(base, response=(base.table((1, 1)),))
    assert validate_model(flat) == []
    proof = derive_contradiction(flat)
    assert isinstance(proof, ContradictionProof)


def test_contradiction_refuses_contextual_model():
    # the case the forcing argument cannot reach: a valid model whose
    # response depends on the prepared states
    m = build_interval_model(2, PBR)
    assert m.contextual and validate_model(m) == []
    with pytest.raises(ModelError, match="applies to noncontextual models"):
        derive_contradiction(m)


def test_refutation_affirms_collapse():
    rep = refutation_report(build_interval_model(2, PBR))
    assert rep.born_reproduced
    assert rep.overlap_mass == 1
    assert rep.eq2_violated
    assert rep.collapse
    assert "collapse" in rep.verdict


def test_refutation_disjoint_supports_no_claim():
    r1 = EpistemicState.point_mass(2, 0)
    r2 = EpistemicState.point_mass(2, 1)
    m = build_interval_model(2, PBR, rho1=r1, rho2=r2)
    rep = refutation_report(m)
    assert rep.born_reproduced
    assert not rep.eq2_violated
    assert not rep.collapse
    assert "disjoint" in rep.verdict


def test_refutation_detects_perturbation():
    m = build_interval_model(2, PBR)
    eps = Fraction(1, 1000)
    planes = [[list(row) for row in plane]
              for plane in m.table((1, 2)).p]
    # move mass between two outcomes in one cell: rows stay stochastic,
    # the prediction no longer matches
    assert planes[0][0][0] == 1  # cell (0,0) is deterministic for outcome 1
    planes[0][0][0] -= eps
    planes[1][0][0] += eps
    from pbrlab.values import ResponseTable
    perturbed = ResponseTable(tuple(tuple(tuple(r) for r in p) for p in planes))
    slices = list(m.response)
    slices[CONTEXTS.index((1, 2))] = perturbed
    m2 = replace(m, response=tuple(slices))
    assert validate_model(m2) == []
    rep = refutation_report(m2)
    assert not rep.born_reproduced
    assert not rep.collapse


def test_refutation_rejects_invalid_model():
    m = build_interval_model(2, PBR)
    bad = replace(m, rho1=EpistemicState((Fraction(2), Fraction(-1))))
    with pytest.raises(ModelError):
        refutation_report(bad)


def test_thesis_both_directions_on_same_inputs():
    # same rhos and targets: noncontextual infeasible, contextual collapses
    from pbrlab.nogo import build_feasibility, solve_feasibility
    u = EpistemicState.uniform(2)
    assert not solve_feasibility(build_feasibility(u, u, PBR)).feasible
    assert refutation_report(build_interval_model(2, PBR)).collapse


def _integer_literals(node):
    """`node` with every "0" and "1" string turned into a JSON integer."""
    if isinstance(node, dict):
        return {key: _integer_literals(v) for key, v in node.items()}
    if isinstance(node, list):
        return [_integer_literals(v) for v in node]
    return int(node) if node in ("0", "1") else node


@pytest.mark.parametrize("source", ["built", "as written", "integer literals"])
def test_validation_checks_each_distinct_cell_once(monkeypatch, source):
    # At L = 40 every cell of the interval model is a unit row, so a table
    # holds at most 4 distinct cells; the memo must see them as such, or
    # validation falls back to 6400 Fraction checks per table.
    model = build_interval_model(40, PBR)
    if source != "built":
        doc = json.loads(dumps_canonical(model_to_json(model)))
        if source == "integer literals":
            doc = _integer_literals(doc)
        model = model_from_json(doc)
    calls = []
    check_cell = ontology._cell_complaints
    monkeypatch.setattr(ontology, "_cell_complaints",
                        lambda cell: calls.append(cell) or check_cell(cell))
    assert validate_model(model) == []
    assert 0 < len(calls) <= 4 * len(model.response)
