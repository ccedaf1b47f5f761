"""Reading a model file, for `pbr check`, `sample` and `contradiction`: its
parsed JSON document into an exact `OntologicalModel`. The file read, the
JSON parser and the checks a model file shares with a rho file are in
`reader`; a `nogo --rho` run reads a rho file only, and never compiles
this module.
"""

from .reader import _MALFORMED, _field, _list, _Literals, _states
from .serialize import _quoted
from .values import (CONTEXTS, LambdaSpace, ModelError, OntologicalModel,
                     ResponseTable)


def _targets_from_json(rows, literals):
    if len(_list(rows)) != 4 or any(len(_list(r)) != 4 for r in rows):
        raise ModelError("born_targets must be 4x4")
    return tuple(map(literals.row, rows))


def _table_from_json(p, literals) -> ResponseTable:
    return ResponseTable(tuple(tuple(map(literals.row, _list(plane)))
                               for plane in _list(p)))


def model_from_json(d: dict):
    try:
        mode = _field(d, "mode")
        if mode != "exact":
            raise ModelError(f"unknown mode {_quoted(mode)}; "
                             "models are exact")
        literals = _Literals()
        L, rho1, rho2 = _states(d, literals)
        targets = _targets_from_json(_field(d, "born_targets"), literals)
        resp = _field(d, "response")
        kind = _field(resp, "kind")
        if kind == "noncontextual":
            response = (_table_from_json(_field(resp, "p"), literals),)
        elif kind == "contextual":
            p = _field(resp, "p")
            response = tuple(_table_from_json(_field(p, f"{j}{k}"), literals)
                             for j, k in CONTEXTS)
        else:
            raise ModelError(f"unknown response kind {_quoted(kind)}")
    except _MALFORMED as e:
        raise ModelError(f"malformed model: {e}") from e

    return OntologicalModel(lambda_space=LambdaSpace(L), rho1=rho1, rho2=rho2,
                            response=response, born_targets=targets)
