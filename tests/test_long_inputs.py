"""Inputs far longer than Python's default recursion limit is deep."""

import copy
import sys
import time

import numpy as np

from graph_reference import relabel
from gtc import diagrams, signatures
from gtc.diagrams import diagram_iso, elaborate, export_json, import_json
from gtc.expressions import Box, Id, Sym, Trace, parse_expr, parse_source, print_expr, trace
from gtc.guardedness import check_annotated, derivable_splits
from gtc.models import eval_expr
from gtc.models.io import load_bindings
from gtc.signatures import parse_box_decl, parse_claim, parse_object
from gtc.synthesis import synthesize

# a white box on lane X, a black box on lane Y
DECLS = "box w : I | X -> X | I\nbox b : Y | I -> I | Y\n"
BINDINGS = {
    "model": "finset",
    "objects": {"X": ["x0", "x1"], "Y": []},
    "boxes": {"w": {"table": {"0:x0": "0:x1", "0:x1": "0:x0"}}, "b": {"table": {}}},
}


def test_5000_box_chain_under_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000  # the interpreter's default
    slices = 2500  # 5,000 boxes in a left-nested ';' chain of 2,500 slices
    src = parse_source(DECLS + "let main = " + " ; ".join(["w (*) b"] * slices) + "\n")
    e = src.exprs["main"]
    claim = parse_claim("X*Y | I -> X | Y", e.dom, e.cod)
    assert check_annotated(e, claim).ok
    d = elaborate(e, claim)
    assert len(d.boxes) == 5000
    assert derivable_splits(e) == {
        (frozenset({1}), frozenset({0, 1})),
        (frozenset({0, 1}), frozenset({1})),
    }

    back = synthesize(import_json(export_json(d)), claim)
    assert check_annotated(back, claim).ok
    assert diagram_iso(elaborate(back, claim), d)

    # nodes are shared: == and hash walk nothing, and repr folds the chain
    for expr in (e, back):
        again = parse_expr(print_expr(expr), src.sigs)
        assert again is expr and again == expr and hash(again) == hash(expr)
        assert copy.deepcopy(expr) is expr and copy.copy(expr) is expr
        assert repr(expr).count("Box(sig=BoxSig(name=") == 5000
    assert print_expr(e) == " ; ".join(["w (*) b"] * slices)

    model, boxes = load_bindings(BINDINGS, src.sigs)
    value = eval_expr(e, model, boxes)  # an even number of swaps
    assert value.table == {(0, "x0"): (0, "x0"), (0, "x1"): (0, "x1")}


def test_20000_boxes_over_two_shapes_build_each_split_once(monkeypatch):
    calls = []
    real = signatures.mk_split

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    n = 20000
    decls = [f"box s{i} : {'X | I -> I | X' if i % 2 else 'I | X -> X | I'}" for i in range(n)]
    text = "\n".join(decls) + "\nlet main = " + " ; ".join(f"s{i}" for i in range(n)) + "\n"
    monkeypatch.setattr(signatures, "mk_split", counted)
    src = parse_source(text)
    assert len(src.sigs) == n and len(calls) <= 4
    d = elaborate(src.exprs["main"])
    exported = export_json(d)
    monkeypatch.setattr(diagrams, "mk_split", counted)
    calls.clear()
    back = import_json(exported)
    assert len(back.boxes) == n and len(calls) <= 4
    assert back == d


def _shuffled(d, rng):
    return relabel(d, [int(b) for b in rng.permutation(len(d.boxes))])


def test_shuffled_2000_box_ladder_of_one_signature():
    # every box is X*X -> X*X, so only the wiring tells the rungs apart
    rungs = ["p"] * 2000
    decl = "box p : X*X | I -> I | X*X\n"
    exprs = parse_source(
        decl + "let ladder = " + " ; sym[X,X] ; ".join(rungs) + "\n"
        "let kinked = " + " ; sym[X,X] ; ".join(rungs[:1000]) + " ; "
        + " ; sym[X,X] ; ".join(rungs[1000:]) + "\n"
    ).exprs
    ladder, kinked = elaborate(exprs["ladder"]), elaborate(exprs["kinked"])
    rng = np.random.default_rng(26)
    a, b = _shuffled(ladder, rng), _shuffled(ladder, rng)
    assert diagram_iso(a, b) and diagram_iso(b, ladder)
    assert not diagram_iso(a, _shuffled(kinked, rng))


def test_1500_independent_loops_against_a_shuffled_copy():
    loop = "tr[U: I|I -> I|I]{ f }"
    exprs = parse_source(
        "box f : U | I -> I | U\n"
        "let loops = " + " (*) ".join([loop] * 1500) + "\n"
        "let pair = " + " (*) ".join([loop] * 1498 + ["tr[U: I|I -> I|I]{ f ; f }"]) + "\n"
    ).exprs
    loops, pair = elaborate(exprs["loops"]), elaborate(exprs["pair"])
    assert len(loops.boxes) == len(pair.boxes) == 1500
    rng = np.random.default_rng(27)
    assert diagram_iso(loops, _shuffled(loops, rng))
    assert not diagram_iso(_shuffled(loops, rng), pair)


def test_20_unguarded_inputs_and_no_outputs_give_one_claim_quickly():
    # listing all 2^20 input sets took over a second for this one claim
    e = Box(parse_box_decl(f"box f : {'*'.join(['A'] * 20)} | I -> I | I"))
    start = time.process_time()
    assert derivable_splits(e) == {(frozenset(range(20)), frozenset())}
    assert time.process_time() - start < 0.25


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _loops(n: int):
    """``n`` independent loops, each through one black box, and their claim."""
    loop = "tr[U: I|I -> I|I]{ f }"
    src = parse_source("box f : U | I -> I | U\nlet loops = " + " (*) ".join([loop] * n) + "\n")
    e = src.exprs["loops"]
    claim = parse_claim("I|I -> I|I", e.dom, e.cod)
    return elaborate(e, claim), claim


def test_synthesis_of_100_loops_under_a_low_recursion_limit():
    # one cut per loop: a recursive synthesis needs a frame per cut
    d, claim = _loops(100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 80)
    try:
        back = synthesize(d, claim)
    finally:
        sys.setrecursionlimit(limit)
    assert check_annotated(back, claim).ok
    assert diagram_iso(elaborate(back, claim), d)


def test_400_loops_synthesize_and_recheck_in_under_a_second():
    # 5.6 s when each cut built a new diagram and index
    d, claim = _loops(400)
    start = time.process_time()
    back = synthesize(d, claim)
    assert check_annotated(back, claim).ok
    assert time.process_time() - start < 1.0


def test_1500_loops_synthesize_in_under_10_seconds():
    # the printed text grows as n², so this stays above linear
    d, claim = _loops(1500)
    start = time.process_time()
    back = synthesize(d, claim)
    assert time.process_time() - start < 10.0
    assert check_annotated(back, claim).ok
    assert diagram_iso(elaborate(back, claim), d)


def test_1500_loops_print_and_parse_back_to_the_same_text():
    # 4.5 million characters, nested 1,500 traces deep
    d, claim = _loops(1500)
    text = print_expr(synthesize(d, claim))
    assert sys.getrecursionlimit() <= 1000
    back = parse_expr(text, {sig.name: sig for sig in d.boxes})
    assert print_expr(back) == text and back.dom == d.dom and back.cod == d.cod


def test_10000_nested_parentheses_and_traces_parse():
    # the parser keeps open parentheses and traces on a list, not the call stack
    n = 10000
    src = parse_source(
        "box f : A | I -> I | A\n"
        f"let parens = {'(' * n}f{')' * n}\n"
        # each level's body is the level below it beside one more f
        f"let traces = {'tr[A: I|I -> I|I]{ ' * n}f }}{' (*) f }' * (n - 1)}\n"
    )
    assert sys.getrecursionlimit() <= 1000
    assert print_expr(src.exprs["parens"]) == "f"
    e, depth = src.exprs["traces"], 0
    while isinstance(e, Trace):
        e, depth = e.body.top if depth < n - 1 else e.body, depth + 1
    assert depth == n and e == Box(src.sigs["f"])
    assert parse_expr(print_expr(src.exprs["traces"]), src.sigs) is src.exprs["traces"]


def test_10000_nested_yanking_traces_elaborate_to_one_wire():
    # X1 = tr[A: A|I -> A|I]{ sym[A,A] }, X(k+1) the same trace around
    # (Xk (*) id[A]) ; sym[A,A]: each level's loop wire leads through
    # every level below it to the diagram input
    a = parse_object("A")
    e = trace(a, Sym(a, a), 1, 1)
    for _ in range(9999):
        e = trace(a, (e @ Id(a)) >> Sym(a, a), 1, 1)
    assert sys.getrecursionlimit() <= 1000
    start = time.process_time()
    d = elaborate(e)
    assert time.process_time() - start < 1.0
    assert d.boxes == () and d.wires == frozenset({(("din", 0), ("dout", 0))})


def test_20000_box_pipeline_through_json_and_back_quickly():
    # elaborate and import_json hand the index its ids, export_json writes
    # from them, and == compares them: no step builds the port tuples
    src = parse_source(DECLS + "let main = " + " ; ".join(["w (*) b"] * 10000) + "\n")
    e = src.exprs["main"]
    claim = parse_claim("X*Y | I -> X | Y", e.dom, e.cod)
    start = time.process_time()
    d = elaborate(e, claim)
    back = import_json(export_json(d))
    assert back == d
    assert time.process_time() - start < 2.0
    assert len(back.boxes) == 20000
    assert not any("ports" in vars(x.index) or "wires" in vars(x) for x in (d, back))
