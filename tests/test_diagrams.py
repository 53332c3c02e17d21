import gc
import json

import numpy as np
import pytest

import graph_reference
from gtc.axioms import AXIOMS, gen_axiom_instances
from gtc.diagrams import (
    Diagram,
    DiagramError,
    diagram_iso,
    elaborate,
    export_dot,
    export_json,
    import_json,
    reverse_diagram,
)
from gtc.expressions import Trace, leaf_boxes, parse_expr
from gtc.generators import rand_accepted_traced, rand_guarded_diagram, rand_trace_free_expr
from gtc.guardedness import geometric_check
from gtc.signatures import BoxSig, dual_split, mk_split, parse_box_decl, parse_object
from gtc.synthesis import SynthesisError, synthesize

SIGS = {
    s.name: s
    for s in map(
        parse_box_decl,
        [
            "box f : A | I -> I | B",
            "box g : B | I -> I | C",
            "box b : A | I -> I | A",
            "box w : I | B -> C | I",
            "box p : A*A | I -> I | A*A",
            "box q : I | A*A -> A*A | I",
        ],
    )
}


def test_identity_elaborates_to_bare_wire():
    d = elaborate(parse_expr("id[A]", SIGS))
    assert len(d.boxes) == 0
    assert d.wires == frozenset({(("din", 0), ("dout", 0))})


def test_composition_elaborates_middle_wires():
    d = elaborate(parse_expr("f ; g", SIGS))
    assert len(d.boxes) == 2
    assert (("bout", 0, 0), ("bin", 1, 0)) in d.wires


def test_trace_adds_loop_wires():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 50:
        got = rand_accepted_traced(rng)
        if got is None or not isinstance(got[0], Trace):
            continue
        tr, _ = got
        outer = elaborate(tr)
        inner = elaborate(tr.body)
        assert len(outer.boxes) == len(inner.boxes)
        assert len(outer.wires) == len(inner.wires) - len(tr.loop)
        checked += 1


def test_bare_loop_is_rejected():
    e = parse_expr("tr[A: I|I -> I|I]{ id[A] }", SIGS)
    with pytest.raises(DiagramError):
        elaborate(e)


def _elaboration_corpus():
    rng = np.random.default_rng(31)
    out = [rand_trace_free_expr(rng, max_boxes=8, n_atoms=4) for _ in range(300)]
    while len(out) < 600:
        got = rand_accepted_traced(rng)
        if got is not None:
            out.append(got[0])
    while len(out) < 800:
        d, claim = rand_guarded_diagram(rng, max_boxes=int(rng.integers(1, 11)))
        try:
            out.append(synthesize(d, claim))
        except SynthesisError:  # no valid claim, no expression
            pass
    for axiom in AXIOMS:  # vanishing1's left side is a trace over I
        for inst in gen_axiom_instances(axiom, 5, 10):
            out += [inst.lhs, inst.rhs]
    return out


# bare loops: one wire, two wires crossed by a symmetry, and a yanking
# trace X1 = tr[A: A|I -> A|I]{ sym[A,A] } closed by an outer trace
_BARE_LOOPS = [
    "tr[A: I|I -> I|I]{ id[A] }",
    "tr[A*A: I|I -> I|I]{ sym[A,A] }",
    "tr[A: I|I -> I|I]{ tr[A: A|I -> A|I]{ sym[A,A] } }",
    "f (*) tr[A: I|I -> I|I]{ id[A] } ; g",
]


# symmetries wider than one wire, and traces over I, which the random
# corpus does not build
_WIDE_SYMS = [
    "tr[I: A|I -> A|I]{ b }",
    "tr[A: I|I -> I|I]{ tr[I: A|I -> A|I]{ b } } (*) tr[I: I|I -> I|I]{ id[I] }",
    "f (*) b (*) g ; sym[B*A,C]",
    "sym[A,A*B] ; f (*) g (*) b",
    "tr[A*A: I|I -> I|I]{ p ; sym[A,A] }",
    "tr[A*A: A|I -> A|I]{ sym[A,A*A] ; b (*) q ; sym[A,A*A] }",
]


def _outcome(elab, e, claim=None):
    """The diagram, or the text of the DiagramError."""
    try:
        return elab(e, claim)
    except DiagramError as exc:
        return str(exc)


def test_elaborate_matches_union_find_reference():
    exprs = _elaboration_corpus() + [parse_expr(t, SIGS) for t in _WIDE_SYMS + _BARE_LOOPS]
    for e in exprs:
        got = _outcome(elaborate, e)
        assert got == _outcome(graph_reference.elaborate, e)
        if not isinstance(got, str):
            assert got.boxes == tuple(leaf_boxes(e))
    for text in _BARE_LOOPS:  # the bare loop is reported before a claim that does not fit
        e, wide = parse_expr(text, SIGS), mk_split(5, 0, [], [])
        got = _outcome(elaborate, e, wide)
        assert got == _outcome(graph_reference.elaborate, e, wide)
        assert got.startswith("trace closes a wire through no box")


def test_iso_reflexive_and_boundary_sensitive():
    d1 = elaborate(parse_expr("f (*) g", SIGS))
    d2 = elaborate(parse_expr("g (*) f", SIGS))
    assert diagram_iso(d1, d1)
    assert not diagram_iso(d1, d2)


def test_iso_compares_boundary_to_boundary_wires():
    from gtc.expressions import Id, Sym
    from gtc.signatures import obj

    x = obj("X")
    straight = elaborate(Id(x * x))
    crossed = elaborate(Sym(x, x))
    assert straight.boundary_in == crossed.boundary_in
    assert not diagram_iso(straight, crossed)
    assert diagram_iso(crossed, elaborate(Sym(x, x)))


def test_iso_detects_crossed_wires_between_boxes():
    straight = elaborate(parse_expr("p ; q", SIGS))
    crossed = elaborate(parse_expr("p ; sym[A,A] ; q", SIGS))
    assert not diagram_iso(straight, crossed)
    assert not diagram_iso(crossed, straight)


def test_iso_after_round_trip_through_text():
    from gtc.expressions import leaf_boxes, print_expr

    rng = np.random.default_rng(5)
    for _ in range(100):
        e = rand_trace_free_expr(rng, max_boxes=5)
        sigs = {b.name: b for b in leaf_boxes(e)}
        e2 = parse_expr(print_expr(e), sigs)
        assert diagram_iso(elaborate(e), elaborate(e2))


def test_port_path_validation_and_guard_detection():
    from gtc.guardedness import PortPath

    d = elaborate(parse_expr("f ; g", SIGS))
    walk = PortPath(
        (("din", 0), ("bin", 0, 0), ("bout", 0, 0), ("bin", 1, 0), ("bout", 1, 0), ("dout", 0))
    )
    # the walk crosses each box from input 0 to output 0, and both boxes
    # promise their output, so it is guarded and the claim guarding the
    # output from the input holds
    assert all(d.boxes[b].split.passage_guarded(0, 0) for b in (0, 1))
    assert geometric_check(d, mk_split(1, 1, {0}, {0}))
    with pytest.raises(ValueError):
        PortPath((("din", 0), ("bout", 0, 0)))  # wire into a source port


def test_reverse_preserves_passage_guardedness():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d, _ = rand_guarded_diagram(rng)
        r = reverse_diagram(d)
        for b, sig in enumerate(d.boxes):
            for i in range(len(sig.inputs)):
                for j in range(len(sig.outputs)):
                    assert sig.split.passage_guarded(i, j) == r.boxes[
                        b
                    ].split.passage_guarded(j, i)


def test_reverse_is_involution_and_preserves_checks():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d, claim = rand_guarded_diagram(rng)
        assert diagram_iso(reverse_diagram(reverse_diagram(d)), d)
        dual_claim = dual_split(claim)
        assert geometric_check(d, claim) == geometric_check(
            reverse_diagram(d), dual_claim
        )


def test_export_import_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d, _ = rand_guarded_diagram(rng)
        text = export_json(d)
        assert "\n" not in text  # one line; import still reads the indented layout
        assert import_json(text) == d == import_json(json.dumps(json.loads(text), indent=2))
        assert diagram_iso(import_json(text), d)


def test_import_rejects_schema_violation():
    with pytest.raises(DiagramError):
        import_json('{"boxes": "nope"}')
    with pytest.raises(DiagramError):
        import_json('{"boxes": [], "wires": [], "in": [{"atom": "A"}], "out": []}')
    with pytest.raises(DiagramError, match="boundary atom 5"):
        import_json(
            '{"boxes": [], "wires": [[["din", 0], ["dout", 0]]],'
            ' "in": [{"atom": 5, "guarded": false}], "out": [{"atom": 5, "guarded": false}]}'
        )


@pytest.mark.parametrize("atom", ["I", "", "A*B", " A"])
def test_import_rejects_bad_boundary_atoms(atom):
    # a bare pass-through wire joins equal atoms, so only the word check sees them
    with pytest.raises(DiagramError) as info:
        import_json(
            json.dumps({"boxes": [], "wires": [[["din", 0], ["dout", 0]]],
                        "in": [{"atom": atom, "guarded": False}],
                        "out": [{"atom": atom, "guarded": True}]})
        )
    assert str(info.value) == f"bad diagram JSON: bad atom name {atom!r}"


def test_dot_empty_diagram():
    d = elaborate(parse_expr("id[I]", SIGS))
    dot = export_dot(d)
    assert dot.startswith("digraph") and "->" not in dot


def test_dot_black_box_inputs_filled():
    d = elaborate(parse_expr("b", SIGS))
    dot = export_dot(d)
    # one filled input gate, one filled (promised) output gate
    assert "<i0> &#9679;" in dot
    assert "<o0> &#9679;" in dot
    d2 = elaborate(parse_expr("w", SIGS))  # white box: open marks
    dot2 = export_dot(d2)
    assert "<i0> &#9675;" in dot2 and "<o0> &#9675;" in dot2


def test_boundary_claim_round_trip():
    d, claim = rand_guarded_diagram(np.random.default_rng(8))
    assert d.boundary_claim() == claim
    weakest = mk_split(
        len(d.boundary_in), len(d.boundary_out), range(len(d.boundary_in))
    )
    assert d.with_claim(weakest).boundary_claim() == weakest


def test_random_diagram_is_built_with_its_claim_as_with_claim_would():
    for seed in range(200):
        d, claim = rand_guarded_diagram(np.random.default_rng(seed))
        bi, bo = (tuple((a, False) for a, _ in side) for side in (d.boundary_in, d.boundary_out))
        assert Diagram(d.boxes, d.wires, bi, bo).with_claim(claim) == d


# --- validation -------------------------------------------------------------

LOOP_BOX = SIGS["b"]  # A -> A
A_IN, A_OUT = (("A", False),), (("A", True),)
THROUGH = {(("din", 0), ("bin", 0, 0)), (("bout", 0, 0), ("dout", 0))}


@pytest.mark.parametrize(
    "boxes,wires,bi,bo,message",
    [
        (
            (LOOP_BOX,), {(("bin", 0, 0), ("din", 0)), (("bout", 0, 0), ("dout", 0))},
            A_IN, A_OUT, "wire ('bin', 0, 0) -> ('din', 0) has bad orientation",
        ),
        (  # an unknown kind is caught by the orientation check
            (LOOP_BOX,), {(("din", 0), ("box", 0, 0)), (("bout", 0, 0), ("dout", 0))},
            A_IN, A_OUT, "wire ('din', 0) -> ('box', 0, 0) has bad orientation",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("bin", 1, 0)), (("bout", 0, 0), ("dout", 0))},
            A_IN, A_OUT, "wire end ('bin', 1, 0) is not a port of the diagram",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("bin", 0, 0)), (("bout", 0, 1), ("dout", 0))},
            A_IN, A_OUT, "wire end ('bout', 0, 1) is not a port of the diagram",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("bin", 0, 0.5)), (("bout", 0, 0), ("dout", 0))},
            A_IN, A_OUT, "wire end ('bin', 0, 0.5) is not a port of the diagram",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("bin", 0, 0)), (("bout", 0, 0), ("dout", 1))},
            A_IN, A_OUT, "wire end ('dout', 1) is not a port of the diagram",
        ),
        (
            (LOOP_BOX,), {(("din", 0, 0), ("bin", 0, 0)), (("bout", 0, 0), ("dout", 0))},
            A_IN, A_OUT, "wire end ('din', 0, 0) is not a port of the diagram",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("bin", 0, 0)), (("din", 0), ("dout", 0))},
            A_IN, A_OUT, "port ('din', 0) carries more than one wire",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("dout", 0)), (("bout", 0, 0), ("dout", 0))},
            A_IN, A_OUT, "port ('dout', 0) carries more than one wire",
        ),
        (
            (), {(("din", 0), ("dout", 0))},
            A_IN, (("B", True),), "wire ('din', 0) -> ('dout', 0) joins atoms A and B",
        ),
        (
            (LOOP_BOX,), {(("din", 0), ("dout", 0))},
            A_IN, A_OUT, "port ('bin', 0, 0) is not wired",
        ),
        (  # equal atom texts on a pass-through wire, but no atom name
            (), {(("din", 0), ("dout", 0))},
            (("I", False),), (("I", True),), "bad atom name 'I'",
        ),
    ],
)
def test_diagram_validation_messages(boxes, wires, bi, bo, message):
    from gtc.diagrams import Diagram

    with pytest.raises(DiagramError) as info:
        Diagram(boxes, frozenset(wires), bi, bo)
    assert str(info.value) == message


def test_claim_of_the_wrong_width_is_rejected():
    e = parse_expr("b", SIGS)  # one input, one output
    for claim in (mk_split(3, 0, [0, 2], []), mk_split(1, 2, [], [1])):
        with pytest.raises(DiagramError, match="^claim does not fit the diagram boundary$"):
            elaborate(e, claim)
        with pytest.raises(DiagramError, match="^claim does not fit the diagram boundary$"):
            elaborate(e).with_claim(claim)
    fits = mk_split(1, 1, [0], [0])
    assert elaborate(e, fits).boundary_claim() == elaborate(e).with_claim(fits).boundary_claim()


def test_diagram_validation_accepts_numpy_indices():
    from gtc.diagrams import Diagram

    d = Diagram((LOOP_BOX,), frozenset(THROUGH), A_IN, A_OUT)
    wires = {
        (("din", np.int64(0)), ("bin", np.int64(0), np.int8(0))),
        (("bout", np.int32(0), np.int64(0)), ("dout", np.uint8(0))),
    }
    d_np = Diagram((LOOP_BOX,), frozenset(wires), A_IN, A_OUT)
    assert d_np == d and hash(d_np) == hash(d)
    claim = d.boundary_claim()
    assert geometric_check(d_np, claim) == geometric_check(d, claim)


def test_diagram_and_its_index_form_no_reference_cycle():
    import gc
    import weakref

    from gtc.guardedness import geometric_witness

    d, claim = rand_guarded_diagram(np.random.default_rng(3), max_boxes=6)
    geometric_witness(d, claim)
    _ = d.index.reach_in, d.index.full_sccs
    gc.disable()
    try:
        alive = weakref.ref(d)
        del d
        assert alive() is None
    finally:
        gc.enable()


def _payload_with(path: tuple, value) -> str:
    """A valid diagram's JSON with the field at ``path`` set to ``value``."""
    d = elaborate(parse_expr("b ; b", SIGS))
    payload = json.loads(export_json(d))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("wires", 0, 1, 2), 0.7, "bad port index 0.7"),
        (("wires", 0, 0, 1), "0", "bad port index '0'"),
        (("in", 0, "guarded"), "false", "bad guarded flag 'false'"),
        (("out", 0, "guarded"), 1, "bad guarded flag 1"),
        (("boxes", 0, "id"), 0.0, "bad box id 0.0"),
        (("boxes", 1, "id"), True, "bad box id True"),
        (("boxes", 0, "sig", "unguarded_in"), [True], "bad gate index True"),
        (("wires", 0, 0), ["bout", True], "bad port index True"),  # before the missing gate
        (("wires", 0, 0), ["bout", 0, True], "bad port index True"),
        (("wires", 0, 0), ["bout", 0], "list index out of range"),
        (("wires", 0, 0), ["box", 0, 0], "bad port ['box', 0, 0]"),
    ],
    ids=["float-port", "string-port", "string-flag", "integer-flag", "float-id", "boolean-id",
         "boolean-gate", "boolean-box-short-port", "boolean-gate-port", "short-port",
         "bad-port-kind"],
)
def test_import_rejects_values_of_the_wrong_json_type(path, value, message):
    with pytest.raises(DiagramError) as info:
        import_json(_payload_with(path, value))
    assert str(info.value) == f"bad diagram JSON: {message}"


# --- box shapes shared within one import_json call ---------------------------

SHAPE_JSON = {"name": "f", "inputs": "A*B", "outputs": "B", "unguarded_in": [1],
              "guarded_out": [0]}


@pytest.mark.parametrize(
    "second, message",
    [
        ({"unguarded_in": [True]}, "bad gate index True"),
        ({"unguarded_in": [1.0]}, "bad gate index 1.0"),
        ({"guarded_out": [False]}, "bad gate index False"),
        ({"inputs": 5}, "object 5 is not a string"),
        ({"inputs": ["A", "B"]}, "object ['A', 'B'] is not a string"),
        ({"name": "let"}, "bad box name 'let'"),
        ({"unguarded_in": 1}, "'int' object is not iterable"),
        # the words are read before the gates
        (
            {"inputs": "A*", "unguarded_in": [True]},
            "syntax error in object 'A*' near position 2: expected atom, got ''",
        ),
    ],
    ids=["boolean-gate", "float-gate", "boolean-output-gate", "integer-word", "list-word",
         "reserved-name", "integer-gates", "bad-word-and-gate"],
)
def test_second_box_of_a_shape_fails_as_the_first_would(second, message):
    boxes = [{"id": 0, "sig": SHAPE_JSON}, {"id": 1, "sig": {**SHAPE_JSON, "name": "g", **second}}]
    with pytest.raises(DiagramError) as info:
        import_json(json.dumps({"boxes": boxes, "wires": [], "in": [], "out": []}))
    assert str(info.value) == f"bad diagram JSON: {message}"


def test_equal_box_signatures_from_two_imports_are_one_object():
    # equal signatures are one object, however many imports build them, and
    # boxes of one gate layout within one import share one split
    decls = ["box b : Ai | I -> I | Ai", "box f : Ai | I -> I | Bi", "box w : I | Bi -> Ci | I"]
    sigs = {s.name: s for s in map(parse_box_decl, decls)}
    text = export_json(elaborate(parse_expr("(b ; f) (*) w", sigs)))
    del sigs
    gc.collect()  # the three signatures parsed above are gone
    first, second = import_json(text).boxes, import_json(text).boxes
    assert [s.name for s in first] == ["b", "f", "w"]
    assert all(a is b for a, b in zip(first, second))
    assert first[0].split is first[1].split  # one gate layout over other words
    assert first[0].split is not first[2].split


def test_imported_boxes_are_the_live_diagrams_boxes():
    rng = np.random.default_rng(28)
    diagrams = [elaborate(parse_expr("(b ; f) (*) (p ; q)", SIGS))]
    diagrams += [rand_guarded_diagram(rng)[0] for _ in range(100)]
    traced = (rand_accepted_traced(rng) for _ in range(100))
    diagrams += [elaborate(got[0]) for got in traced if got is not None]
    for d in diagrams:
        back = import_json(export_json(d))
        assert len(back.boxes) == len(d.boxes)
        assert all(back.boxes[i] is d.boxes[i] for i in range(len(d.boxes)))


def test_shared_box_shapes_equal_those_built_alone():
    rng = np.random.default_rng(21)
    for _ in range(300):
        d, _ = rand_guarded_diagram(rng)
        for raw, sig in zip(json.loads(export_json(d))["boxes"], import_json(export_json(d)).boxes):
            j = raw["sig"]
            inputs, outputs = parse_object(j["inputs"]), parse_object(j["outputs"])
            split = mk_split(len(inputs), len(outputs), j["unguarded_in"], j["guarded_out"])
            alone = BoxSig(j["name"], inputs, outputs, split)
            assert sig == alone and str(sig) == str(alone)
            assert sig.split.unguarded_in_mask == split.unguarded_in_mask
            assert sig.split.guarded_out_mask == split.guarded_out_mask
