"""The interpretation routine shared by all model backends.

A backend supplies the categorical operations; this module folds an
expression over them.  Box bindings are validated against their declared
splits once per evaluation, in whatever sense the backend defines
(image restrictions, contraction factors, stage delays, factorization
witnesses).
"""

from __future__ import annotations

from ..expressions import Id, MorphExpr, Sym, fold


class EvalError(ValueError):
    """Unbound box, witness/split inconsistency, or bad model data."""


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
