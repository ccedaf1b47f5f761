"""The benchmark's output checker, `perfbench/checker.py`, loaded read-only
by path. It imports nothing from pbrlab and rebuilds the no-go LP from the
documented row and column order, so a `nogo` verdict it accepts has been
judged by code that shares none of the solver's, the reduction's or the
audit's."""

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
