"""The benchmark's output checker, `perfbench/checker.py`, loaded read-only
by path. It imports nothing from pbrlab and rebuilds the no-go LP from the
documented row and column order, so a `nogo` verdict it accepts has been
judged by code that shares none of the solver's, the reduction's or the
audit's. It recomputes the Born predictions of `refute` models and the
outcome distributions of `sample` the same way."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
_spec = importlib.util.spec_from_file_location("perfbench_checker", _PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def rho_pair(doc: dict) -> list:
    """[rho1, rho2] of a `--rho` file as Fractions. pbr reads a weight
    written as a JSON integer too, so the checker's `"num/den"` parse is
    applied to strings only."""
    return [[Fraction(w) if type(w) is int else checker.frac(w)
             for w in doc[key]] for key in ("rho1", "rho2")]


def nogo_errors(stdout: str, rho, L: int) -> list:
    """The checker's complaints about one `pbr nogo --json` stdout for the
    pair rho, or for uniform rho over L when rho is None."""
    if rho is None:
        rho = [[Fraction(1, L)] * L for _ in range(2)]
    return checker.check_nogo(json.loads(stdout), rho, L)


def refute_errors(stdout: str, model_text: str, L: int) -> list:
    """The checker's complaints about one `pbr refute --json --out FILE`
    stdout, with `model_text` the text of FILE."""
    return checker.check_refute(json.loads(stdout), json.loads(model_text), L)


def check_errors(stdout: str, model: dict) -> list:
    """The checker's complaints about one `pbr check --json` stdout for a
    model file known to be valid."""
    return checker.check_check(json.loads(stdout), model)


def sample_errors(stdout: str, model: dict, context: str, n: int,
                  seed: int) -> list:
    """The checker's complaints about one `pbr sample --json` stdout, with
    the outcome distribution computed by `checker.predictions`. A
    noncontextual model's one table serves every context."""
    if model["response"]["kind"] == "contextual":
        L, rho, tables = checker.parse_model(model)
    else:
        L = model["lambda_size"]
        rho = [checker.fracs(model["rho1"]), checker.fracs(model["rho2"])]
        tables = [[[checker.fracs(row) for row in plane]
                   for plane in model["response"]["p"]]] * 4
    predicted = checker.predictions(rho, tables.__getitem__, L)
    return checker.check_sample(json.loads(stdout), model, context, n, seed,
                                predicted[checker.CONTEXTS.index(context)])
