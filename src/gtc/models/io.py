"""Loading model bindings from JSON.

One file per model run::

    {"model": "finset" | "metric" | "tot" | "hilbert" | "flat",
     "objects": {atom: carrier...},
     "boxes": {name: denotation...}}

Carriers and denotations per model:

* finset:  objects {"A": ["a0", ...]}; boxes {"f": {"table": {"0:a0": "1:b0"}}}
  (keys and values are "gate:element").
* metric:  objects {"A": dim}; boxes either
  {"kind": "affine", "weight": [[...]], "offset": [...]} or
  {"kind": "named", "name": "cos_half"}.
* tot:     objects {"X": {"stages": [["x0"], ...], "restrictions": [{...}]}};
  boxes {"f": {"stages": [{"x0|y0": "z0|w0"}, ...]}} with tuple entries
  joined by "|" (the empty tuple is "").
* hilbert: objects {"A": dim}; boxes {"f": {"matrix": [[...]],
  "witness": {"e_dim": n, "g": [[...]], "h": [[...]]}}}.  The witness may
  be omitted: in finite dimension every matrix factors, and a canonical
  witness is derived on load when the declared split requires one.
* flat:    objects {"X": {"elements": ["p", ...]}}; boxes
  {"f": {"table": {"p|q": "r"}}}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..signatures import BoxSig
from .base import EvalError
from .finset import FinSetModel, FinSetMorphism
from .flatposet import FlatPosetModel, PosetMorphism, flat
from .hilbert import HilbertModel, HilbertMorphism, split_permuted
from .metric import MetricModel, affine, named_function
from .trees import StageObject, ToposOfTreesModel, ToTMorphism


def _untuple(s: str) -> tuple:
    return tuple(s.split("|")) if s else ()


def _tag(s: str) -> tuple[int, str]:
    gate, elem = s.split(":", 1)
    return int(gate), elem


def load_bindings(payload, sigs: dict[str, BoxSig]):
    """Build (model, boxes) from JSON text or its parsed payload;
    signatures give each box its profile.  Malformed data raises
    EvalError."""
    try:
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict):
            raise EvalError("bindings must be a JSON object")
        return _load(payload, sigs)
    except EvalError:
        raise
    except KeyError as exc:
        raise EvalError(f"bad bindings: missing {exc}") from None
    except (AttributeError, IndexError, RecursionError, TypeError, ValueError) as exc:
        raise EvalError(f"bad bindings: {exc}") from None


def _load(payload: dict, sigs: dict[str, BoxSig]):
    kind = payload.get("model")
    objects = payload.get("objects", {})
    raw_boxes = payload.get("boxes", {})
    if kind == "finset":
        model = FinSetModel({a: tuple(v) for a, v in objects.items()})
        boxes = {}
        for name, spec in raw_boxes.items():
            sig = _sig_for(name, sigs)
            table = {_tag(k): _tag(v) for k, v in spec["table"].items()}
            boxes[name] = FinSetMorphism(model.ob(sig.inputs), model.ob(sig.outputs), table)
        return model, boxes
    if kind == "metric":
        model = MetricModel({a: int(v) for a, v in objects.items()})
        boxes = {}
        for name, spec in raw_boxes.items():
            sig = _sig_for(name, sigs)
            in_dims = model.ob(sig.inputs)
            out_dims = model.ob(sig.outputs)
            if spec.get("kind", "affine") == "affine":
                boxes[name] = affine(
                    in_dims,
                    out_dims,
                    np.asarray(spec["weight"], dtype=float),
                    np.asarray(spec["offset"], dtype=float),
                )
            else:
                boxes[name] = named_function(spec["name"])
        return model, boxes
    if kind == "tot":
        objs = {}
        for atom, spec in objects.items():
            stages = tuple(tuple(s) for s in spec["stages"])
            restr = tuple(dict(r) for r in spec.get("restrictions", []))
            objs[atom] = StageObject(stages, restr)
        model = ToposOfTreesModel(objs)
        boxes = {}
        for name, spec in raw_boxes.items():
            sig = _sig_for(name, sigs)
            maps = tuple(
                {_untuple(k): _untuple(v) for k, v in stage.items()}
                for stage in spec["stages"]
            )
            boxes[name] = ToTMorphism(model.ob(sig.inputs), model.ob(sig.outputs), maps)
        return model, boxes
    if kind == "hilbert":
        model = HilbertModel({a: int(v) for a, v in objects.items()})
        boxes = {}
        for name, spec in raw_boxes.items():
            sig = _sig_for(name, sigs)
            mat = np.asarray(spec["matrix"], dtype=float)
            witness = spec.get("witness")
            if witness is not None:
                witness = {
                    "e_dim": int(witness["e_dim"]),
                    "g": np.asarray(witness["g"], dtype=float),
                    "h": np.asarray(witness["h"], dtype=float),
                }
            elif sig.split.unguarded_in and sig.split.guarded_out:
                witness = derive_witness(model, sig, mat)
            boxes[name] = HilbertMorphism(
                model.ob(sig.inputs), model.ob(sig.outputs), mat, witness
            )
        return model, boxes
    if kind == "flat":
        model = FlatPosetModel(
            {a: flat(tuple(spec["elements"])) for a, spec in objects.items()}
        )
        boxes = {}
        for name, spec in raw_boxes.items():
            sig = _sig_for(name, sigs)
            table = {_untuple(k): _untuple(v) for k, v in spec["table"].items()}
            boxes[name] = PosetMorphism(model.ob(sig.inputs), model.ob(sig.outputs), table)
        return model, boxes
    raise EvalError(f"unknown model {kind!r}")


def _sig_for(name: str, sigs: dict[str, BoxSig]) -> BoxSig:
    if name not in sigs:
        raise EvalError(f"binding for undeclared box {name!r}")
    return sigs[name]


def derive_witness(model: HilbertModel, sig: BoxSig, mat: np.ndarray) -> dict:
    """Canonical factorization for a declared split: in finite dimension
    the rearranged matrix always factors through a large enough middle
    space (take it to be the whole guarded-input/guarded-output corner)."""
    in_dims = model.ob(sig.inputs)
    out_dims = model.ob(sig.outputs)
    mat = np.asarray(mat, dtype=float)
    want = (math.prod(out_dims), math.prod(in_dims))
    if mat.shape != want:
        raise EvalError(
            f"matrix for {sig.name!r} has shape {mat.shape}, profile needs {want}"
        )
    grouped, (da, db, dc, dd) = split_permuted(mat, in_dims, out_dims, sig.split)
    # grouped[(c,d),(a,b)] = sum_e h[c,(a,e)] g[(e,d),b] with E = B x D
    e_dim = db * dd
    four = grouped.reshape(dc, dd, da, db)
    h = four.transpose(0, 2, 3, 1).reshape(dc, da * e_dim)
    g = _name_witness(db, dd)
    return {"e_dim": e_dim, "g": g, "h": h}


def _name_witness(db: int, dd: int) -> np.ndarray:
    """g: B -> (B x D) x D copying B and emitting the paired-basis name of D."""
    g = np.zeros((db * dd * dd, db))
    for b in range(db):
        for d in range(dd):
            g[(b * dd + d) * dd + d, b] = 1.0
    return g
