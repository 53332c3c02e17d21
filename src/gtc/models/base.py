"""The interpretation routine shared by all model backends.

A backend supplies the categorical operations; this module folds an
expression over them.  Box bindings are validated against their declared
splits once per evaluation, in whatever sense the backend defines
(image restrictions, contraction factors, stage delays, factorization
witnesses).
"""

from __future__ import annotations

import numpy as np

from ..expressions import Id, MorphExpr, Sym, fold
from ..signatures import ObjectExpr


class EvalError(ValueError):
    """Unbound box, witness/split inconsistency, or bad model data."""


class Model:
    """What the five backends share.  A backend sets ``name`` and
    ``objects`` (atom to carrier) and supplies the categorical operations
    (``identity``, ``symmetry``, ``compose``, ``tensor``, ``trace``,
    ``validate_box``) and its bindings JSON: ``from_json`` builds the
    model from the ``"objects"`` entry, ``box_from_json`` one box from its
    ``"boxes"`` entry, ``render`` a value as JSON, and ``apply`` a value
    to an input point given as JSON.
    """

    name: str
    objects: dict
    noun = "carrier"  # what an atom denotes, for the missing-atom error

    def ob(self, word: ObjectExpr) -> tuple:
        try:
            return tuple(self.objects[a] for a in word)
        except KeyError as exc:
            raise EvalError(f"no {self.noun} for atom {exc.args[0]!r}") from None

    def equal(self, m1, m2, tol=None, rng=None):
        """Exact equality; the deviation is 0 or 1."""
        same = m1 == m2
        return same, 0.0 if same else 1.0


class DimensionModel(Model):
    """A backend whose atoms denote dimensions, integers of at least 1."""

    noun = "dimension"

    def __init__(self, objects: dict[str, int]):
        for atom, dim in objects.items():
            if type(dim) is not int or dim < 1:
                raise EvalError(f"dimension for atom {atom!r} must be an integer >= 1")
        self.objects = dict(objects)

    @classmethod
    def from_json(cls, objects: dict):
        return cls(objects)


def trusted(cls, *values):
    """An instance of the frozen dataclass ``cls`` with these field values,
    in field order, made without running ``__post_init__``.

    Morphisms are checked by their constructors where they enter (loaders,
    binding generators, tests).  Every constructor check is closed under
    the categorical operations, so an operation on checked operands builds
    its result this way instead of checking it again."""
    x = object.__new__(cls)
    x.__dict__.update(zip(cls.__match_args__, values))
    return x


def json_array(value, what: str):
    """``value`` if it is a JSON array (a list, or a tuple from Python);
    anything else, a string above all, raises EvalError naming ``what``."""
    if not isinstance(value, (list, tuple)):
        raise EvalError(f"{what} must be a JSON array")
    return value


def json_floats(value, what: str) -> np.ndarray:
    """``value`` as a float array; numpy would read a JSON boolean as 0 or 1."""
    if any(type(v) is bool for v in np.asarray(value, dtype=object).flat):
        raise EvalError(f"{what} holds a boolean, not a number")
    return np.asarray(value, dtype=float)


def untuple(s: str) -> tuple:
    """A tuple of element names from its JSON text, joined by "|" (the
    empty tuple is "")."""
    return tuple(s.split("|")) if s else ()


def eval_expr(e: MorphExpr, model, boxes: dict, tol: float | None = None):
    """Denotation of ``e`` in ``model`` under the given box bindings.

    ``tol`` is forwarded to backends that solve feedback numerically.
    The expression is assumed to have passed ``check_annotated``; this
    routine still validates each binding against its declared split.
    """
    checked: set[str] = set()

    def leaf(x: MorphExpr):
        if isinstance(x, Id):
            return model.identity(x.obj)
        if isinstance(x, Sym):
            return model.symmetry(x.left, x.right)
        name = x.sig.name
        if name not in boxes:
            raise EvalError(f"no binding for box {name!r}")
        if name not in checked:
            model.validate_box(x.sig, boxes[name])
            checked.add(name)
        return boxes[name]

    return fold(
        e,
        leaf,
        lambda x, f, g: model.compose(f, g),
        lambda x, f, g: model.tensor(f, g),
        lambda x, body: model.trace(body, x.loop, x.corners, tol),
    )
