"""Denotation depends on the diagram, not on how it was written.

Relabeling a diagram's box instances changes cut order, slicing order,
and the whole synthesized expression; the evaluated morphism must not
change in any model.  This drives expressions, elaboration, synthesis,
and all five backends against each other.
"""

import numpy as np
import pytest

from graph_reference import relabel
from gtc.axioms import BINDING_GENERATORS, AxiomInstance
from gtc.diagrams import Diagram, diagram_iso, elaborate
from gtc.generators import rand_guarded_diagram
from gtc.guardedness import check_annotated
from gtc.models import eval_expr
from gtc.synthesis import SynthesisError, synthesize, synthesis_preconditions


def _unique_names(d: Diagram) -> Diagram:
    from gtc.signatures import BoxSig

    boxes = tuple(
        BoxSig(f"{sig.name}_{i}", sig.inputs, sig.outputs, sig.split)
        for i, sig in enumerate(d.boxes)
    )
    return Diagram(boxes, d.wires, d.boundary_in, d.boundary_out)


@pytest.mark.parametrize("model_name", sorted(BINDING_GENERATORS))
def test_synthesis_denotation_is_representation_independent(model_name):
    rng = np.random.default_rng(2718)
    gen = BINDING_GENERATORS[model_name]
    done = 0
    while done < 12:
        d, claim = rand_guarded_diagram(rng, max_boxes=4)
        if len(d.boxes) < 2:
            continue
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError:
            continue
        d = _unique_names(d)
        perm = list(rng.permutation(len(d.boxes)))
        d2 = relabel(d, perm)
        assert diagram_iso(d, d2)
        e1 = synthesize(d, claim)
        e2 = synthesize(d2, claim)
        assert check_annotated(e1, claim).ok and check_annotated(e2, claim).ok

        sigs = {sig.name: sig for sig in d.boxes}
        instance = AxiomInstance("vanishing1", done, sigs, None, None, None)
        model, boxes = gen(instance, np.random.default_rng([done, 5]))
        v1 = eval_expr(e1, model, boxes, tol=1e-12)
        v2 = eval_expr(e2, model, boxes, tol=1e-12)
        ok, dev = model.equal(v1, v2, tol=1e-9, rng=np.random.default_rng(0))
        assert ok, (model_name, dev, perm)
        done += 1


def test_wire_only_diagram_synthesizes_to_permutation():
    d = Diagram(
        (),
        frozenset({(("din", 0), ("dout", 1)), (("din", 1), ("dout", 0))}),
        (("A", False), ("B", False)),
        (("B", False), ("A", False)),
    )
    claim = d.boundary_claim()
    e = synthesize(d, claim)
    assert diagram_iso(elaborate(e, claim), d)
