"""Walkthrough: from a cyclic diagram back to a traced expression.

Diagrams whose boxes are all white or all black, whose loops are all
guarded, and whose promised input-to-output paths are all guarded can be
rebuilt as annotated expressions: cut a loop wire whose source has no
unguarded path from the promised inputs and whose target has none to the
promised outputs, synthesize the opened diagram, and close the cut with
a trace node.
"""

import numpy as np

from gtc import (
    check_annotated,
    compute_uv,
    diagram_iso,
    elaborate,
    print_expr,
    synthesize,
)
from gtc.generators import rand_guarded_diagram
from gtc.synthesis import SynthesisError, loop_wires, synthesis_preconditions

rng = np.random.default_rng(2024)
while True:
    diagram, claim = rand_guarded_diagram(rng)
    try:
        synthesis_preconditions(diagram, claim)
    except SynthesisError:
        continue
    if loop_wires(diagram):
        break

# every port carries one wire end, so the index counts the wires
print(f"diagram: {len(diagram.boxes)} boxes, {diagram.index.n_ports // 2} wires,")
print(f"         {len(loop_wires(diagram))} wires on loops")
u_set, v_set = compute_uv(diagram, claim)
print("boxes with unguarded paths to promised outputs (U):", sorted(u_set))
print("boxes on unguarded paths from promised inputs (V): ", sorted(v_set))
print("disjoint?", not (u_set & v_set))

expr = synthesize(diagram, claim)
print("\nsynthesized expression:\n ", print_expr(expr))
print("\nrechecks under the claim?", check_annotated(expr, claim).ok)
print("elaborates back isomorphically?", diagram_iso(elaborate(expr, claim), diagram))

print("\nand a violating diagram is refused with a witness:")
while True:
    bad, bad_claim = rand_guarded_diagram(rng, p_black=0.2)
    try:
        synthesis_preconditions(bad, bad_claim)
    except SynthesisError as exc:
        print("  reason:", exc.reason)
        print("  witness:", exc.witness)
        break
