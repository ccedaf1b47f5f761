"""Seeded inputs and the command cycles of each workload.

A workload is a cycle of `pbr ... --json` commands that the closed loop
repeats. Its *focus* commands exercise the mechanism the workload is for;
its *companion* commands are the remaining command kinds at lambda size 2,
one each per cycle, so that every workload reports a latency for every
command kind. Companions are dominated by interpreter start-up and import.

Every input file is generated from the seed; the program receives only the
files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("nogo-uniform", "nogo-random", "contextual")
KINDS = ("nogo_certificate", "nogo_witness", "refute", "check", "sample")
CONTEXTS = ("11", "12", "21", "22")

L_UNIFORM = 12     # dense tableau and Farkas audit dominate; 4 pivots
L_RANDOM = 7       # many pivots, growing bit-lengths, no symmetry
L_CONTEXTUAL = 40  # about 450 KB of model JSON
L_COMPANION = 2
RANDOM_POOL = 40   # distinct rho files per path; more than a run reaches
SAMPLE_N = 400
COMPANION_SAMPLE_N = 100


@dataclass(frozen=True)
class Command:
    kind: str        # one of KINDS
    argv: tuple      # arguments after `pbr`
    lambda_size: int
    rho: str = ""    # rho file for nogo; "" means uniform
    model: str = ""  # model file read (check, sample) or written (refute)
    context: str = ""
    n: int = 0
    seed: int = 0


def _normalised(ints) -> list:
    total = sum(ints)
    return [str(Fraction(w, total)) for w in ints]


def _rho_file(path: Path, rho1: list, rho2: list) -> None:
    path.write_text(json.dumps({"lambda_size": len(rho1),
                                "rho1": _normalised(rho1),
                                "rho2": _normalised(rho2)}))


def _overlapping(rng: random.Random, L: int):
    """Full support on both sides, 2L distinct weights in 1..1000."""
    w = rng.sample(range(1, 1001), 2 * L)
    return w[:L], w[L:]


def _disjoint(rng: random.Random, L: int, size1: int):
    """rho1 on a random set of size1 points, rho2 on the complement."""
    support = set(rng.sample(range(L), size1))
    w = rng.sample(range(1, 1001), L)
    return ([w[i] if i in support else 0 for i in range(L)],
            [0 if i in support else w[i] for i in range(L)])


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write every input file of one run into workdir; return their names."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    names = {"companion_overlap": "c_overlap.json",
             "companion_disjoint": "c_disjoint.json",
             "sample_seed": rng.randrange(2 ** 31)}
    _rho_file(workdir / names["companion_overlap"], *_overlapping(rng, L_COMPANION))
    _rho_file(workdir / names["companion_disjoint"], *_disjoint(rng, L_COMPANION, 1))
    if workload == "nogo-random":
        names["overlap"], names["disjoint"] = [], []
        for k in range(RANDOM_POOL):
            o, d = f"overlap_{k:02d}.json", f"disjoint_{k:02d}.json"
            _rho_file(workdir / o, *_overlapping(rng, L_RANDOM))
            # Alternate a 3|4 and a 4|3 split so every disjoint LP has the
            # same support sizes; only the weights and positions vary.
            _rho_file(workdir / d, *_disjoint(rng, L_RANDOM, 3 + k % 2))
            names["overlap"].append(o)
            names["disjoint"].append(d)
    return names


def _nogo(kind: str, L: int, rho: str = "") -> Command:
    argv = ("nogo", "--lambda-size", str(L)) + (("--rho", rho) if rho else ()) + ("--json",)
    return Command(kind, argv, L, rho=rho)


def _refute(L: int, out: str) -> Command:
    return Command("refute", ("refute", "--lambda-size", str(L), "--out", out, "--json"),
                   L, model=out)


def _check(L: int, model: str) -> Command:
    return Command("check", ("check", "--model", model, "--json"), L, model=model)


def _sample(L: int, model: str, context: str, n: int, seed: int) -> Command:
    return Command("sample", ("sample", "--model", model, "--context", context,
                              "--n", str(n), "--seed", str(seed), "--json"),
                   L, model=model, context=context, n=n, seed=seed)


def cycle(workload: str, names: dict, i: int) -> list:
    """The commands of cycle i, in the order they run."""
    seed = names["sample_seed"]
    cert = _nogo("nogo_certificate", L_COMPANION, names["companion_overlap"])
    witness = _nogo("nogo_witness", L_COMPANION, names["companion_disjoint"])
    model_rest = [_refute(L_COMPANION, "c_model.json"),
                  _check(L_COMPANION, "c_model.json"),
                  _sample(L_COMPANION, "c_model.json", CONTEXTS[i % 4],
                          COMPANION_SAMPLE_N, seed)]
    if workload == "nogo-uniform":
        return [_nogo("nogo_certificate", L_UNIFORM), witness] + model_rest
    if workload == "nogo-random":
        # Two certificate LPs per witness LP. A certificate LP's cost varies
        # more from file to file, and each seed draws its own files, so a
        # run needs more of them for a median that repeats across seeds.
        return [_nogo("nogo_certificate", L_RANDOM, names["overlap"][(2 * i) % RANDOM_POOL]),
                _nogo("nogo_certificate", L_RANDOM,
                      names["overlap"][(2 * i + 1) % RANDOM_POOL]),
                _nogo("nogo_witness", L_RANDOM, names["disjoint"][i % RANDOM_POOL])] + model_rest
    if workload == "contextual":
        # One context per cycle, rotating through all four: sampling all
        # four every cycle would leave too few refute and check samples
        # in a run for a tail percentile.
        return [_refute(L_CONTEXTUAL, "model.json"), _check(L_CONTEXTUAL, "model.json"),
                _sample(L_CONTEXTUAL, "model.json", CONTEXTS[i % 4], SAMPLE_N, seed),
                cert, witness]
    raise ValueError(f"unknown workload {workload!r}")
