import copy
import dataclasses
import gc
import hashlib
import os
import pickle
import random
import re
import sys
import threading
import weakref

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
from gtc.diagrams import import_json
from gtc.generators import rand_accepted_traced, rand_trace_free_expr
from gtc.signatures import UNIT, mk_split, obj, parse_box_decl
from gtc.synthesis import SynthesisError, synthesize
from test_signatures import _roundtrip_inputs

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


@pytest.mark.parametrize(
    "text, bad, pos",
    [("f & g", "&", 2), ("&f", "&", 0), ("f ;é", "é", 3), ("f  -  g", "-", 3), ("f ;\t> g", ">", 4)],
)
def test_bad_character_is_reported_at_its_own_position(text, bad, pos):
    with pytest.raises(ParseError) as info:
        parse_expr(text, SIGS)
    assert str(info.value) == f"unexpected character {bad!r} at position {pos}"


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


def test_nodes_are_shared_immutable_and_printed_by_a_fold():
    e = parse_expr("tr[B: A|I -> I|I]{ k ; f } (*) (h ; id[B*C])", SIGS)
    again = parse_expr("(tr[B: A|I -> I|I]{ k ; f }) (*) (h ; (id[B*C]))", SIGS)
    assert again is e and Comp(e.bottom.first, e.bottom.second) is e.bottom
    for back in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert back is e
    assert repr(Id(obj("A"))) == "Id(obj=ObjectExpr(factors=('A',)))"
    assert repr(e) == (
        f"Tensor(top=Trace(loop={obj('B')!r}, body=Comp(first=Box(sig={SIGS['k']!r}), "
        f"second=Box(sig={SIGS['f']!r})), annotation={e.top.annotation!r}), "
        f"bottom=Comp(first=Box(sig={SIGS['h']!r}), second=Id(obj={obj('B', 'C')!r})))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.top = e.bottom
    # a node nothing refers to leaves its table
    probe = weakref.ref(Comp(Id(obj("Zq")), Id(obj("Zq"))))
    gc.collect()
    assert probe() is None and (Id(obj("Zq")), Id(obj("Zq"))) not in Comp._table


def test_nodes_built_from_many_threads_are_one_object():
    # more threads than cores, switching often, each building the same new
    # expressions in its own order: a racy insert would leave two copies of
    # one expression, which compare unequal
    n_threads = 4 * (os.cpu_count() or 1)
    sigs = {f"f{i}": parse_box_decl(f"box f{i} : A | I -> I | A") for i in range(300)}
    texts = [f"tr[A: I|I -> I|I]{{ f{i} ; f{i} }} (*) (f{i} ; id[A])" for i in range(300)]
    errors: list[BaseException] = []
    built: list[list] = []

    def work(seed: int) -> None:
        mine = [None] * len(texts)
        try:
            for i in np.random.default_rng(seed).permutation(len(texts)):
                mine[i] = parse_expr(texts[i], sigs)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        built.append(mine)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(built) == n_threads
    for i, text in enumerate(texts):
        first = built[0][i]
        assert print_expr(first) == text
        assert all(mine[i] is first for mine in built)


# one input for each ParseError text of expressions.py, against SIGS
MESSAGE_INPUTS = [
    "f & g",  # unexpected character, at its own position
    "&f",
    "f ;é",
    "id A]",  # expected <token kind>
    "sym[A B]",
    "tr[B A|I -> I|I]{ k ; f }",
    "tr[B: A|I -> I|I]{ k ; f ",
    "(f",
    "tr",
    "id[;]",  # expected object
    "id[A*]",
    "id[I*A]",  # bad object
    "f ; f",  # cannot compose
    "; f",  # expected expression
    "",
    "f (*)",
    "f ; (*) g",
    "nope",  # unknown box
    "tr[B: A|I -> I|C]{ f ; g }",  # trace body has profile
    "f )",  # trailing input
    "f ; g }",
]
# and each parse_source text
SOURCE_INPUTS = [
    "let = f",
    "box f : A | I -> I | B\nlet m = f\nlet m = f",
    "hello",
    "box f : A | I -> I | B\nbox f : A | I -> I | B",
    "box f : A -> B",
    "box f : A | I -> I | B\n# a comment\nlet m = f ; f  # another",
    "box f : A | I -> I | A\nlet m = ((f ; f)) (*) tr[A: I|I -> I|I]{ f } ; id[A]",  # parses
]
_TOKEN = re.compile(r"\(\*\)|->|\w+|\S")


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` with one token of its ``let`` line deleted, duplicated or
    swapped with the next."""
    start = text.index("\nlet ") + 1
    spans = [m.span() for m in _TOKEN.finditer(text, start)][3:]  # past 'let name ='
    kind, i = rng.randrange(3), rng.randrange(len(spans) - 1)
    (a, b), (c, d) = spans[i], spans[i + 1]
    if kind == 0:
        return text[:a] + text[b:]
    if kind == 1:
        return text[:a] + text[a:b] + " " + text[a:]
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def _parse_outcome(text: str) -> str:
    try:
        exprs = parse_source(text).exprs
    except ParseError as exc:
        return f"error: {exc}"
    return "ok: " + " | ".join(print_expr(e) for e in exprs.values())


def test_parse_error_texts_match_golden_digest():
    # the seed-1 `roundtrip` benchmark sources (pipelines, and the text that
    # synthesis prints for its valid diagrams), each with single-token
    # mistakes, and one input per message
    rng = random.Random(27)
    decls = "\n".join(map(str, SIGS.values()))
    texts = [f"{decls}\nlet main = {t}" for t in MESSAGE_INPUTS] + SOURCE_INPUTS
    for kind, text, valid, _ in _roundtrip_inputs(1):
        if kind == "pipeline":
            texts.append(_mutant(text, rng))
        elif valid:
            d = import_json(text)
            try:
                e = synthesize(d, d.boundary_claim())
            except SynthesisError:
                continue
            lines = [str(sig) for sig in dict.fromkeys(d.boxes)]
            source = "\n".join([*lines, f"let main = {print_expr(e)}"])
            texts += (_mutant(source, rng) for _ in range(2))
    digest, outcomes = hashlib.sha256(), []
    for text in texts:
        outcomes.append(_parse_outcome(text))
        digest.update(f"{text!r}\t{outcomes[-1]}\n".encode())
    errors = sum(o.startswith("error: ") for o in outcomes)
    assert (len(texts), errors) == (364, 363)
    assert digest.hexdigest() == "3e15f4e629589d52a390fa1fec55fa9a5876dfda07ecf81bc3c41479d1468ffe"
