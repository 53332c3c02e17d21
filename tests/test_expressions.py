import numpy as np
import pytest

from gtc.expressions import (
    Comp,
    Id,
    ParseError,
    Tensor,
    Trace,
    TypingError,
    fold,
    parse_expr,
    parse_source,
    print_expr,
)
from gtc.generators import rand_accepted_traced, rand_trace_free_expr
from gtc.signatures import UNIT, mk_split, obj, parse_box_decl

SIGS = {
    s.name: s
    for s in map(
        parse_box_decl,
        [
            "box f : A | I -> I | B",
            "box g : B | I -> I | C",
            "box h : I | A -> B*C | I",
            "box k : A*B | I -> I | A",
        ],
    )
}


def test_composition_typing():
    e = parse_expr("f ; g", SIGS)
    assert str(e.dom) == "A" and str(e.cod) == "C"


def test_tensor_typing():
    e = parse_expr("id[A] (*) f", SIGS)
    assert str(e.dom) == "A*A" and str(e.cod) == "A*B"


def test_profile_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_expr("f ; f", SIGS)


def test_unknown_box_rejected():
    with pytest.raises(ParseError):
        parse_expr("nope", SIGS)


def test_malformed_trace_annotation_rejected():
    # body lacks the loop factor at the annotated spot
    with pytest.raises(ParseError):
        parse_expr("tr[B: A|I -> I|C]{ f ; g }", SIGS)


def test_trace_annotation_must_have_corner_layout():
    body = Id(obj("A", "B"))
    for ann, message in (
        (mk_split(2, 2, {1}, {1}), "unguarded inputs must be a gate prefix"),
        (mk_split(2, 2, {0, 1}, {0}), "guarded outputs must be a gate suffix"),
    ):
        with pytest.raises(TypingError, match=f"^trace annotation: {message}$"):
            Trace(obj("B"), body, ann)


def test_trace_shape_accepted():
    e = parse_expr("tr[B: A|I -> I|I]{ k ; f }", SIGS)
    assert str(e.dom) == "A" and str(e.cod) == "I"


def test_print_base_cases():
    assert print_expr(Id(UNIT)) == "id[I]"
    assert print_expr(parse_expr("sym[A,B*C]", SIGS)) == "sym[A,B*C]"


def test_print_respects_precedence():
    e = parse_expr("id[A] (*) f ; k", SIGS)
    assert isinstance(e, Comp) and isinstance(e.first, Tensor)
    assert print_expr(e) == "id[A] (*) f ; k"
    e2 = parse_expr("(f ; g) (*) id[A]", SIGS)
    assert isinstance(e2, Tensor)
    assert print_expr(e2) == "(f ; g) (*) id[A]"
    # left-nested chains print flat
    assert print_expr(parse_expr("id[A] ; id[A] ; f ; g", SIGS)) == "id[A] ; id[A] ; f ; g"
    assert print_expr(parse_expr("f (*) f (*) id[A]", SIGS)) == "f (*) f (*) id[A]"
    # right-nested children keep their parentheses, so the tree round-trips
    e = Comp(parse_expr("id[A]", SIGS), parse_expr("f ; g", SIGS))
    assert print_expr(e) == "id[A] ; (f ; g)"
    assert parse_expr(print_expr(e), SIGS) == e
    t = Tensor(parse_expr("f", SIGS), parse_expr("f (*) f", SIGS))
    assert print_expr(t) == "f (*) (f (*) f)"
    assert parse_expr(print_expr(t), SIGS) == t


def test_fold_is_postorder_left_to_right():
    e = parse_expr("tr[B: A|I -> I|I]{ k ; f } (*) (h ; id[B*C])", SIGS)
    order = []

    def leaf(x):
        order.append(print_expr(x))
        return order[-1]

    def node(op):
        def handler(x, *kids):
            order.append(op)
            return f"{op}({', '.join(kids)})"

        return handler

    got = fold(e, leaf, node(";"), node("(*)"), node("tr"))
    assert got == "(*)(tr(;(k, f)), ;(h, id[B*C]))"
    assert order == ["k", "f", ";", "tr", "h", "id[B*C]", ";", "(*)"]
    # without a trace handler a trace is a leaf and its body is not entered
    got = fold(e, leaf, node(";"), node("(*)"))
    assert got == "(*)(tr[B: A|I -> I|I]{ k ; f }, ;(h, id[B*C]))"


def test_round_trip_random_expressions():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        e = rand_trace_free_expr(rng, max_boxes=6)
        sigs = {b.name: b for b in _leaves(e)}
        assert parse_expr(print_expr(e), sigs) == e


def test_round_trip_traced_expressions():
    rng = np.random.default_rng(12)
    done = 0
    while done < 200:
        got = rand_accepted_traced(rng)
        if got is None:
            continue
        e, _ = got
        sigs = {b.name: b for b in _leaves(e)}
        assert parse_expr(print_expr(e), sigs) == e
        done += 1


def _leaves(e):
    from gtc.expressions import leaf_boxes

    return leaf_boxes(e)


def test_source_files():
    src = parse_source(
        """
        # declarations
        box f : A | I -> I | B
        box g : B | I -> I | C   # a comment
        let both = f ; g
        """
    )
    assert set(src.sigs) == {"f", "g"}
    assert str(src.exprs["both"].cod) == "C"


def test_source_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_source("box f : A | I -> I | B\nbox f : A | I -> I | B")
    with pytest.raises(ParseError):
        parse_source("box f : A | I -> I | B\nlet x = f\nlet x = f")
