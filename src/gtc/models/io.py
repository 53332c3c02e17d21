"""Loading model bindings from JSON.

One file per model run::

    {"model": "finset" | "metric" | "tot" | "hilbert" | "flat",
     "objects": {atom: carrier...},
     "boxes": {name: denotation...}}

Each backend reads its own carriers and denotations: see the docstrings
of the five model classes.
"""

from __future__ import annotations

import json
import math

from ..signatures import BoxSig
from . import MODEL_NAMES, MODELS
from .base import EvalError


def load_bindings(payload, sigs: dict[str, BoxSig]):
    """Build (model, boxes) from JSON text or its parsed payload;
    signatures give each box its profile.  Malformed data raises
    EvalError."""
    try:
        if isinstance(payload, str):
            payload = read_json(payload)
        if not isinstance(payload, dict):
            raise EvalError("bindings must be a JSON object")
        return _load(payload, sigs)
    except EvalError:
        raise
    except KeyError as exc:
        raise EvalError(f"bad bindings: missing {exc}") from None
    except (AttributeError, IndexError, RecursionError, TypeError, ValueError) as exc:
        raise EvalError(f"bad bindings: {exc}") from None


def read_json(text: str):
    """JSON text whose floats are all finite: the NaN and Infinity
    literals and a number beyond the float range raise ValueError."""
    return json.loads(text, parse_constant=_no_constant, parse_float=_finite)


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite(text: str) -> float:
    x = float(text)
    if math.isinf(x):
        raise ValueError(f"{text} overflows a float")
    return x


def _load(payload: dict, sigs: dict[str, BoxSig]):
    kind = payload.get("model")
    if kind not in MODEL_NAMES:  # a tuple test: kind may be unhashable
        raise EvalError(f"unknown model {kind!r}")
    model = MODELS[kind].from_json(payload.get("objects", {}))
    boxes = {
        name: model.box_from_json(_sig_for(name, sigs), spec)
        for name, spec in payload.get("boxes", {}).items()
    }
    return model, boxes


def _sig_for(name: str, sigs: dict[str, BoxSig]) -> BoxSig:
    if name not in sigs:
        raise EvalError(f"binding for undeclared box {name!r}")
    return sigs[name]
