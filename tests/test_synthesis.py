from collections import Counter

import numpy as np
import pytest

import graph_reference as ref
from gtc.diagrams import Diagram, DiagramError, diagram_iso, elaborate
from gtc.expressions import parse_expr, parse_source, print_expr
from gtc.generators import rand_guarded_diagram
from gtc.guardedness import check_annotated
from gtc.signatures import mk_split, parse_box_decl
from gtc.synthesis import (
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

SIGS = {
    s.name: s
    for s in map(
        parse_box_decl,
        [
            "box blk : A | I -> I | A",
            "box wht : I | A -> A | I",
            "box two : I | A*A -> A*A | I",
        ],
    )
}


def _self_loop_black() -> tuple[Diagram, object]:
    """One black box A*A -> A*A with its second output fed back."""
    sig = parse_box_decl("box loopy : A*A | I -> I | A*A")
    d = Diagram(
        (sig,),
        frozenset(
            {
                (("din", 0), ("bin", 0, 0)),
                (("bout", 0, 1), ("bin", 0, 1)),
                (("bout", 0, 0), ("dout", 0)),
            }
        ),
        (("A", False),),
        (("A", True),),
    )
    return d, mk_split(1, 1, {0}, {0})


def test_perm_expr_realizes_permutation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        atoms = [str(rng.choice(["A", "B"])) for _ in range(n)]
        dest = list(rng.permutation(n))
        e = perm_to_expr(atoms, dest)
        assert e is ref.perm_to_expr(atoms, dest)
        d = elaborate(e)
        for j in range(n):
            assert (("din", dest[j]), ("dout", j)) in d.wires


def test_uv_empty_without_promised_outputs():
    e = parse_expr("wht ; wht", {**SIGS, "wht": SIGS["wht"]})
    d = elaborate(e)
    u, v = compute_uv(d, mk_split(1, 1, set(), set()))
    assert u == frozenset()


def test_uv_disjoint_on_valid_diagrams():
    rng = np.random.default_rng(1)
    done = 0
    while done < 100:
        d, claim = rand_guarded_diagram(rng)
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError:
            continue
        u, v = compute_uv(d, claim)
        assert not (u & v)
        done += 1


def test_self_loop_cut_wire():
    d, claim = _self_loop_black()
    u, v = compute_uv(d, claim)
    wire = find_cut_wire(d, u, v)
    assert wire == (("bout", 0, 1), ("bin", 0, 1))


def test_cut_wire_surgery():
    d, claim = _self_loop_black()
    d2, claim2 = cut_wire(d, (("bout", 0, 1), ("bin", 0, 1)), claim)
    assert len(d2.boundary_in) == 2 and len(d2.boundary_out) == 2
    assert not loop_wires(d2)
    assert claim2.unguarded_in == frozenset({0, 1})
    assert claim2.guarded_out == frozenset({0, 1})
    for wire in [(("bout", 0, 0), ("bin", 0, 1)), (("bout", 0, 1), ("bin", 0, 2))]:
        with pytest.raises(DiagramError, match=r"^wire \('bout', 0, \d\) -> .* is not in the diagram$"):
            cut_wire(d, wire, claim)


def test_cut_diagram_four_path_cases_guarded():
    """After a valid cut, no unguarded path joins old or new promised
    boundary ports: the four path families of the recursive argument."""
    rng = np.random.default_rng(2)
    done = 0
    while done < 60:
        d, claim = rand_guarded_diagram(rng)
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError:
            continue
        if not loop_wires(d):
            continue
        u, v = compute_uv(d, claim)
        wire = find_cut_wire(d, u, v)
        d2, claim2 = cut_wire(d, wire, claim)
        reach = ref.unguarded_reach(d2)
        n_in, n_out = len(d.boundary_in), len(d.boundary_out)
        old_a = [("din", i) for i in sorted(claim.unguarded_in)]
        old_d = {("dout", j) for j in sorted(claim.guarded_out)}
        new_in, new_out = ("din", n_in), ("dout", n_out)
        for case, (srcs, dsts) in {
            "A->D": (old_a, old_d),
            "I->O": ([new_in], {new_out}),
            "I->D": ([new_in], old_d),
            "A->O": (old_a, {new_out}),
        }.items():
            for s in srcs:
                assert not (reach[s] & dsts), case
        done += 1


def test_single_black_self_loop_synthesizes():
    d, claim = _self_loop_black()
    e = synthesize(d, claim)
    assert check_annotated(e, claim).ok
    assert diagram_iso(elaborate(e, claim), d)


def test_single_box_extracts_to_a_leaf():
    from gtc.expressions import Box

    d = elaborate(parse_expr("blk", SIGS))
    e = acyclic_to_expr(d)
    assert isinstance(e, Box) and e.sig.name == "blk"


def test_acyclic_round_trip():
    rng = np.random.default_rng(3)
    done = 0
    while done < 150:
        d, claim = rand_guarded_diagram(rng, max_boxes=8)
        if loop_wires(d):
            continue
        e = acyclic_to_expr(d)
        assert diagram_iso(elaborate(e, claim), d)
        done += 1


def test_synthesis_round_trip_random():
    rng = np.random.default_rng(4)
    done = 0
    while done < 100:
        d, claim = rand_guarded_diagram(rng)
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError:
            continue
        e = synthesize(d, claim)
        assert check_annotated(e, claim).ok
        assert diagram_iso(elaborate(e, claim), d)
        done += 1


def _outcome(synth, d, claim) -> tuple:
    try:
        return "text", print_expr(synth(d, claim))
    except SynthesisError as exc:
        return "error", exc.reason, exc.witness


def test_synthesize_matches_reference():
    """The one-index loop gives the text, or the error reason and witness,
    of the loop that built a new diagram per cut."""
    loop = "tr[U: I|I -> I|I]{ f }"
    family = parse_source(
        "box f : U | I -> I | U\n"
        + "".join(f"let loops{n} = " + " (*) ".join([loop] * n) + "\n" for n in (1, 2, 7, 40))
        + "let mixed = tr[U: I|I -> I|I]{ f ; f } (*) (id[U] ; f) (*) tr[U: I|I -> I|I]{ f }\n"
    ).exprs.values()
    inputs = [(elaborate(e), mk_split(len(e.dom), len(e.cod))) for e in family]
    for max_boxes, seed in ((14, 41), (48, 42)):
        rng = np.random.default_rng(seed)
        inputs += [rand_guarded_diagram(rng, max_boxes=max_boxes) for _ in range(200)]
    outcomes = Counter()
    for d, claim in inputs:
        got = _outcome(synthesize, d, claim)
        assert got == _outcome(ref.synthesize, d, claim)
        outcomes[got[0], bool(loop_wires(d))] += 1
    # texts of cyclic and acyclic diagrams, and errors
    assert min(outcomes["text", True], outcomes["error", True]) > 100, outcomes
    assert outcomes["text", False] > 10, outcomes


def test_violations_are_reported_with_witness():
    rng = np.random.default_rng(5)
    done = 0
    while done < 30:
        d, claim = rand_guarded_diagram(rng, p_black=0.3)
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError as exc:
            assert exc.witness is not None
            assert exc.reason
            done += 1


def test_unguarded_loop_rejected():
    sig = parse_box_decl("box w2 : I | A -> A | I")  # white with a loop
    d = Diagram(
        (sig,),
        frozenset({(("bout", 0, 0), ("bin", 0, 0))}),
        (),
        (),
    )
    claim = mk_split(0, 0)
    with pytest.raises(SynthesisError) as err:
        synthesize(d, claim)
    assert err.value.reason == "unguarded loop"


def test_trace_free_expressions_elaborate_acyclically():
    rng = np.random.default_rng(6)
    from gtc.generators import rand_trace_free_expr

    for _ in range(100):
        e = rand_trace_free_expr(rng, max_boxes=6)
        assert not loop_wires(elaborate(e))


def test_reversal_swaps_u_and_v():
    from gtc.diagrams import reverse_diagram
    from gtc.signatures import dual_split

    rng = np.random.default_rng(7)
    for _ in range(100):
        d, claim = rand_guarded_diagram(rng)
        u, v = compute_uv(d, claim)
        u2, v2 = compute_uv(reverse_diagram(d), dual_split(claim))
        assert (u, v) == (v2, u2)


def test_mixed_box_rejected():
    sig = parse_box_decl("box m : A | A -> A | A")
    d = elaborate(
        parse_expr("m", {"m": sig}),
        mk_split(2, 2, {0}, {1}),
    )
    with pytest.raises(SynthesisError) as err:
        synthesize(d, mk_split(2, 2, {0}, {1}))
    assert "white nor black" in str(err.value)


def test_long_unguarded_pipeline_round_trips_without_deep_recursion():
    """599 white boxes in a row, closed by one black box: every loop and
    path search runs the length of the chain, over some 1,200 ports."""
    import sys

    from gtc.diagrams import export_json, import_json
    from gtc.expressions import parse_source
    from gtc.signatures import parse_claim

    n = 600
    assert sys.getrecursionlimit() <= 1000  # the interpreter's default
    decls = [f"box s{k} : I | X -> X | I" for k in range(n - 1)]
    decls.append(f"box s{n - 1} : X | I -> I | X")
    text = "\n".join(decls) + "\nlet main = " + " ; ".join(f"s{k}" for k in range(n)) + "\n"
    e = parse_source(text).exprs["main"]
    claim = parse_claim("X | I -> I | X", e.dom, e.cod)
    assert check_annotated(e, claim).ok
    d = import_json(export_json(elaborate(e, claim)))
    back = synthesize(d, claim)
    assert check_annotated(back, claim).ok
    assert diagram_iso(elaborate(back, claim), d)
