"""Property tests for the models: on small random data the exact models'
constructors and loaders either return a valid value or raise EvalError,
and in every model the result of an operation on checked operands passes
its constructor's checks."""

from collections import Counter
from dataclasses import fields
from itertools import product

import numpy as np
from hypothesis import given, settings, strategies as st

from gtc.axioms import AXIOMS, BINDING_GENERATORS, gen_axiom_instances
from gtc.laws import all_stage_objects
from gtc.models import MODEL_NAMES, EvalError, Poset, PosetMorphism, eval_expr, flat, lift
from gtc.models.io import load_bindings
from gtc.models.trees import StageObject, ToTMorphism
from gtc.signatures import parse_box_decl

FAST = settings(max_examples=80, deadline=None)

names = st.sampled_from(["a", "b", "c", "d"])
tuples = st.lists(names, max_size=3).map(tuple)
json_junk = st.one_of(st.none(), st.integers(-2, 2), st.text(max_size=3), st.lists(names, max_size=2))


def _returns_or_eval_error(build):
    try:
        got = build()
    except EvalError:
        return None
    return got


@st.composite
def poset_data(draw):
    elements = draw(st.lists(names, max_size=4))
    leq = draw(st.sets(st.tuples(names, names), max_size=6))
    if draw(st.booleans()):
        leq |= {(a, a) for a in elements}
    return elements, leq


@given(poset_data())
@FAST
def test_poset_returns_or_raises_eval_error(data):
    elements, leq = data
    p = _returns_or_eval_error(lambda: Poset(tuple(elements), frozenset(leq)))
    if p is None:
        return
    assert Poset(elements, leq) is p and p.elements == tuple(elements)
    assert all(p.le(a, a) for a in p.elements)
    assert p.is_flat == all(a == b for a, b in p.leq)
    tp, bot = lift(p)
    assert tp.bottom() == bot and bot not in p.elements and lift(p)[0] is tp


@st.composite
def stage_data(draw):
    depth = draw(st.integers(1, 3))
    stages = [draw(st.lists(names, max_size=3)) for _ in range(depth)]
    n_restr = draw(st.sampled_from([depth - 1, depth - 1, depth, max(depth - 2, 0)]))
    restr = [
        draw(st.dictionaries(names, names, max_size=3)) for _ in range(n_restr)
    ]
    return stages, restr


@given(stage_data())
@FAST
def test_stage_object_returns_or_raises_eval_error(data):
    stages, restr = data
    x = _returns_or_eval_error(lambda: StageObject(stages, restr))
    if x is None:
        return
    assert StageObject(tuple(map(tuple, stages)), tuple(map(dict, restr))) is x
    for n, r in enumerate(x.restr):
        assert set(r) == set(x.stages[n + 1]) and set(r.values()) == set(x.stages[n])
        assert all(r[e] == lo for lo, e in x.section[n].items())


_SHAPES = all_stage_objects(2, 2) + [StageObject((("a", "b"),), ())]


@st.composite
def tot_morphism_data(draw):
    gate = st.sampled_from(_SHAPES)
    dom = tuple(draw(st.lists(gate, max_size=2)))
    cod = tuple(draw(st.lists(gate, max_size=2)))
    depth = draw(st.integers(0, 3))
    maps = []
    for n in range(depth):
        keys = [
            x
            for x in product(*(g.stages[min(n, len(g.stages) - 1)] for g in dom))
            if draw(st.integers(0, 9))
        ]
        keys += draw(st.lists(tuples, max_size=1))
        values = [
            tuple(draw(st.sampled_from(g.stages[min(n, len(g.stages) - 1)])) for g in cod)
            if draw(st.integers(0, 5))
            else draw(tuples)
            for _ in keys
        ]
        maps.append(dict(zip(keys, values)))
    return dom, cod, tuple(maps)


@given(tot_morphism_data())
@FAST
def test_tot_morphism_returns_or_raises_eval_error(data):
    dom, cod, maps = data
    m = _returns_or_eval_error(lambda: ToTMorphism(dom, cod, maps))
    if m is None:
        return
    for n, table in enumerate(m.maps):
        assert set(table) == set(product(*(g.stages[n] for g in dom)))
        assert set(table.values()) <= set(product(*(g.stages[n] for g in cod)))


_POSETS = [flat(["a"]), flat(["a", "b"]), lift(flat(["a", "b"]))[0]]


@st.composite
def poset_morphism_data(draw):
    carrier = st.sampled_from(_POSETS)
    dom = tuple(draw(st.lists(carrier, max_size=2)))
    cod = tuple(draw(st.lists(carrier, max_size=2)))
    keys = [x for x in product(*(p.elements for p in dom)) if draw(st.integers(0, 9))]
    keys += draw(st.lists(tuples, max_size=1))
    values = [
        tuple(draw(st.sampled_from(p.elements)) for p in cod)
        if draw(st.integers(0, 5))
        else draw(tuples)
        for _ in keys
    ]
    return dom, cod, dict(zip(keys, values))


@given(poset_morphism_data())
@FAST
def test_poset_morphism_returns_or_raises_eval_error(data):
    dom, cod, table = data
    m = _returns_or_eval_error(lambda: PosetMorphism(dom, cod, table))
    if m is None:
        return
    assert set(m.table) == set(product(*(p.elements for p in dom)))


_SIGS = {
    s.name: s
    for s in map(parse_box_decl, ["box p : I | A -> A | I", "box q : A | B -> A | B"])
}


def _joined(draw, n: int):
    return "|".join(draw(names) for _ in range(n))


@st.composite
def tot_payloads(draw):
    objects = {}
    for atom in draw(st.sets(st.sampled_from(["A", "B"]))):
        if draw(st.integers(0, 3)):
            x = draw(st.sampled_from(_SHAPES[:-1]))
            stages, restr = x.stages, x.restr
        else:
            stages, restr = draw(stage_data())
        objects[atom] = {"stages": stages, "restrictions": restr}
        if not draw(st.integers(0, 9)):
            objects[atom][draw(st.sampled_from(["stages", "restrictions"]))] = draw(json_junk)
    boxes = {}
    for name in draw(st.sets(st.sampled_from(["p", "q", "r"]))):
        arity = 1 if name == "p" else 2
        boxes[name] = {
            "stages": [
                {
                    _joined(draw, arity): _joined(draw, draw(st.sampled_from([arity, arity, 1])))
                    for _ in range(draw(st.integers(0, 4)))
                }
                for _ in range(draw(st.integers(0, 2)))
            ]
        }
    return {"model": "tot", "objects": objects, "boxes": boxes}


@st.composite
def flat_payloads(draw):
    objects = {
        atom: {"elements": draw(st.lists(names, max_size=3))}
        for atom in draw(st.sets(st.sampled_from(["A", "B"])))
    }
    boxes = {}
    for name in draw(st.sets(st.sampled_from(["p", "q", "r"]))):
        arity = 1 if name == "p" else 2
        boxes[name] = {
            "table": {
                _joined(draw, arity): _joined(draw, draw(st.sampled_from([arity, arity, 1])))
                for _ in range(draw(st.integers(0, 4)))
            }
        }
        if not draw(st.integers(0, 9)):
            boxes[name] = draw(json_junk)
    return {"model": "flat", "objects": objects, "boxes": boxes}


@given(st.one_of(tot_payloads(), flat_payloads()))
@FAST
def test_load_bindings_returns_or_raises_eval_error(payload):
    got = _returns_or_eval_error(lambda: load_bindings(payload, _SIGS))
    if got is None:
        return
    model, boxes = got
    for name, m in boxes.items():
        sig = _SIGS[name]
        assert m.dom == model.ob(sig.inputs) and m.cod == model.ob(sig.outputs)
        _returns_or_eval_error(lambda: model.validate_box(sig, m))


OPERATIONS = ("identity", "symmetry", "compose", "tensor", "trace")


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


class _Rebuilding:
    """A model whose operations rebuild each result through its class's
    public constructor, which must accept it and give the same fields."""

    def __init__(self, model):
        self.model = model
        self.seen = Counter()

    def __getattr__(self, name):
        op = getattr(self.model, name)
        if name not in OPERATIONS:
            return op

        def checked(*args):
            m = op(*args)
            values = [getattr(m, f.name) for f in fields(m)]
            try:
                rebuilt = type(m)(*values)
            except EvalError as exc:
                raise AssertionError(f"{name} built an invalid result: {exc}") from None
            assert all(_same(getattr(rebuilt, f.name), v) for f, v in zip(fields(m), values))
            self.seen[name] += 1
            return m

        return checked


@given(seed=st.integers(0, 2**16), model_name=st.sampled_from(MODEL_NAMES))
@settings(max_examples=40, deadline=None)
def test_operation_results_pass_their_constructors(seed, model_name):
    seen = Counter()
    for axiom in AXIOMS:
        inst = gen_axiom_instances(axiom, seed)[0]
        model, boxes = BINDING_GENERATORS[model_name](inst, np.random.default_rng(seed))
        checking = _Rebuilding(model)
        for side in (inst.lhs, inst.rhs):
            try:
                eval_expr(side, checking, boxes, tol=1e-12)
            except EvalError:
                # only a side that fails its guardedness check may not settle
                assert inst.failing_side is not None
        seen += checking.seen
    assert set(seen) == set(OPERATIONS)
