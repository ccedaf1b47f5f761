"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from hull_oracle import hull_feasible
from pbrlab.cli import main
from pbrlab.contextual import build_interval_model, refutation_report
from pbrlab.hilbert import (CONTEXTS, born, born_targets, gram, pbr_basis,
                            product_state)
from pbrlab.nogo import (ContradictionProof, NoOverlap, build_feasibility,
                         derive_contradiction, solve_feasibility,
                         verify_certificate, witness_model)
from pbrlab.ontology import (EpistemicState, chi_square_statistic, predict,
                             sample, support_overlap)
from records import replace

PBR = born_targets()
CHI2_999_3DOF = 16.27


def _noncontextual(m, context):
    """The model seen by one preparation context, its table used in all."""
    return replace(m, response=(m.table(context),))


def _outcome(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_basis_correctness():
    t0 = time.perf_counter()
    basis = pbr_basis.__wrapped__()  # rebuild, don't trust the cache timing
    g = gram(basis)
    ok = all(g[r][c] == (1 if r == c else 0) for r in range(4) for c in range(4))
    for i, (j, k) in enumerate(CONTEXTS):
        ok = ok and born(basis.effects[i], product_state(j, k)) == 0
    elapsed = time.perf_counter() - t0
    _outcome(1, "basis-correctness", ok and elapsed < 0.1)


def test_criterion_2_born_completeness():
    basis = pbr_basis()
    ok = True
    for (j, k) in CONTEXTS:
        s = product_state(j, k)
        ok = ok and sum(born(e, s) for e in basis.effects) == 1
    vec = [born(e, product_state(1, 1)) for e in basis.effects]
    ok = ok and vec == [0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    _outcome(2, "born-completeness", ok)


def test_criterion_3_theorem_instances():
    t0 = time.perf_counter()
    ok = True
    for L in (1, 2, 3, 4):
        u = EpistemicState.uniform(L)
        problem = build_feasibility(u, u, PBR)
        outcome = solve_feasibility(problem)
        ok = ok and not outcome.feasible
        ok = ok and verify_certificate(problem, outcome.certificate)
    elapsed = time.perf_counter() - t0
    _outcome(3, "theorem-instances", ok and elapsed < 5.0)


def test_criterion_4_feasible_control():
    pairs = [
        (EpistemicState.point_mass(2, 0), EpistemicState.point_mass(2, 1)),
        (EpistemicState.point_mass(3, 1), EpistemicState.point_mass(3, 2)),
        (EpistemicState((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))),
         EpistemicState((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)))),
    ]
    ok = True
    for r1, r2 in pairs:
        problem = build_feasibility(r1, r2, PBR)
        outcome = solve_feasibility(problem)
        ok = ok and outcome.feasible
        if outcome.feasible:
            m = witness_model(problem, outcome)
            for c, ctx in enumerate(CONTEXTS):
                ok = ok and predict(m, ctx) == PBR[c]
    _outcome(4, "feasible-control", ok)


def _random_overlapping_pair(rng, L):
    while True:
        w1 = [rng.randint(0, 5) for _ in range(L)]
        w2 = [rng.randint(0, 5) for _ in range(L)]
        if sum(w1) and sum(w2) and any(a and b for a, b in zip(w1, w2)):
            return (EpistemicState(tuple(Fraction(v, sum(w1)) for v in w1)),
                    EpistemicState(tuple(Fraction(v, sum(w2)) for v in w2)))


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    cases = [(EpistemicState.uniform(1), EpistemicState.uniform(1)),
             (EpistemicState.uniform(2), EpistemicState.uniform(2))]
    for _ in range(10):
        cases.append(_random_overlapping_pair(rng, 2))
    for _ in range(10):
        # at L=2 disjoint supports force opposite point masses
        side = rng.randint(0, 1)
        cases.append((EpistemicState.point_mass(2, side),
                      EpistemicState.point_mass(2, 1 - side)))

    ok = True
    for r1, r2 in cases:
        lp = solve_feasibility(build_feasibility(r1, r2, PBR)).feasible
        oracle = hull_feasible(r1, r2, PBR)
        disjoint = support_overlap(r1, r2).disjoint
        ok = ok and lp == oracle == disjoint
    elapsed = time.perf_counter() - t0
    _outcome(5, "oracle-equivalence", ok and elapsed < 60.0)


def test_criterion_6_contradiction_proof():
    overlap_model = _noncontextual(build_interval_model(2, PBR), (1, 1))
    proof = derive_contradiction(overlap_model)
    ok = isinstance(proof, ContradictionProof)
    if ok:
        ok = [s.context for s in proof.steps] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        ok = ok and [s.outcome for s in proof.steps] == [1, 2, 3, 4]
        ok = ok and all(s.weight > 0 for s in proof.steps)
        ok = ok and proof.total == 0 != 1

    disjoint_model = _noncontextual(build_interval_model(
        2, PBR, rho1=EpistemicState.point_mass(2, 0),
        rho2=EpistemicState.point_mass(2, 1)), (1, 1))
    ok = ok and isinstance(derive_contradiction(disjoint_model), NoOverlap)
    _outcome(6, "contradiction-proof", ok)


def test_criterion_7_collapse_demonstration():
    ok = True
    for L in (1, 2, 3, 5):
        m = build_interval_model(L, PBR)
        rep = refutation_report(m)
        ok = ok and rep.overlap_mass == 1
        ok = ok and rep.born_reproduced
        ok = ok and rep.collapse
    # simultaneously, the noncontextual case on the same rhos is infeasible
    u = EpistemicState.uniform(2)
    ok = ok and not solve_feasibility(build_feasibility(u, u, PBR)).feasible
    _outcome(7, "collapse-demonstration", ok)


def test_criterion_8_statistical_consistency():
    m = build_interval_model(2, PBR)
    ok = True
    for c, ctx in enumerate(CONTEXTS):
        flat = _noncontextual(m, ctx)
        counts = sample(flat, ctx, 100_000, seed=42)
        rerun = sample(flat, ctx, 100_000, seed=42)
        ok = ok and counts == rerun
        stat = chi_square_statistic(counts, predict(flat, ctx))
        ok = ok and stat < CHI2_999_3DOF
    _outcome(8, "statistical-consistency", ok)


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_9_cli_golden(capsys):
    ok = True
    for argv in (["basis", "--json"],
                 ["nogo", "--lambda-size", "2", "--json"],
                 ["refute", "--lambda-size", "2", "--json"]):
        code1, out1 = _capture(capsys, argv)
        code2, out2 = _capture(capsys, argv)
        ok = ok and code1 == code2 == 0
        ok = ok and out1 == out2
        ok = ok and json.dumps(json.loads(out1), indent=2,
                               sort_keys=True) + "\n" == out1
    _outcome(9, "cli-golden-files", ok)
