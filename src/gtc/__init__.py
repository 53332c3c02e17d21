"""Typed string diagrams with guarded feedback.

Boxes declare which inputs they can absorb unguarded and which outputs
they promise to guard; claims about whole expressions and diagrams are
decided structurally (rule derivation), geometrically (path analysis),
or syntax-directedly for annotated feedback nodes.  Guarded cyclic
diagrams of polarized boxes can be turned back into annotated traced
expressions, and typed expressions evaluate in five concrete models.
"""

from .counterexamples import equal_morphisms_different_typing, find_untypable_diagram
from .diagrams import (
    Diagram,
    DiagramError,
    diagram_iso,
    elaborate,
    export_dot,
    export_json,
    import_json,
    reverse_diagram,
)
from .expressions import (
    Box,
    Comp,
    Id,
    MorphExpr,
    ParseError,
    Sym,
    Tensor,
    Trace,
    TypingError,
    leaf_boxes,
    parse_expr,
    parse_source,
    print_expr,
    trace,
)
from .guardedness import (
    CheckResult,
    PortPath,
    check_annotated,
    claim_derivable,
    derivable_splits,
    geometric_check,
    geometric_witness,
    infer_trace_annotations,
    split_derivable,
)
from .signatures import (
    UNIT,
    BoxSig,
    ObjectExpr,
    SignatureError,
    Split,
    dual_split,
    mk_split,
    obj,
    parse_box_decl,
    parse_claim,
    parse_object,
    split_kind,
    weaken,
)
from .synthesis import (
    SynthesisError,
    acyclic_to_expr,
    compute_uv,
    cut_wire,
    find_cut_wire,
    loop_wires,
    perm_to_expr,
    synthesize,
    synthesis_preconditions,
)

__version__ = "0.1.0"
