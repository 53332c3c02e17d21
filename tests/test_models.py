import copy
import dataclasses
import gc
import math
import os
import pickle
import sys
import threading
import time
import weakref
from itertools import product

import numpy as np
import pytest

from gtc.axioms import BINDING_GENERATORS, AxiomInstance
from gtc.expressions import parse_expr
from gtc.models import (
    EvalError,
    FinSetModel,
    FinSetMorphism,
    HilbertModel,
    HilbertMorphism,
    MetricMorphism,
    Poset,
    banach_rec,
    eval_expr,
    finset_iter,
    flat,
    grec_to_rec,
    hs_factored_trace,
    hs_sum_trace,
    lfp_rec,
    lift,
    rec_to_grec,
)
from gtc.models.hilbert import (
    WITNESS_TOL,
    check_witness,
    corner_perms,
    kron,
    kron_perm,
    perm_index,
    rotate_witness,
    split_permuted,
    trace_witness,
)
from gtc.models.io import load_bindings
from gtc.models.metric import MetricModel, _iterate, affine, named_function
from gtc.models.trees import StageObject, ToTMorphism, ToposOfTreesModel, stagewise
from gtc.signatures import UNIT, mk_split, obj, parse_box_decl

# --- finset -------------------------------------------------------------------


def test_finset_iter_forced_value():
    f = FinSetMorphism(
        (("x",),), (("y",), ("x",)), {(0, "x"): (0, "y")}
    )
    assert finset_iter(f).table == {(0, "x"): (0, "y")}


def test_finset_iter_rejects_feedback_hit():
    f = FinSetMorphism(
        (("x",),), (("y",), ("x",)), {(0, "x"): (1, "x")}
    )
    with pytest.raises(EvalError):
        finset_iter(f)


def test_finset_fixpoint_law_brute_force():
    model = FinSetModel({})
    for sx in range(4):
        for sy in range(4):
            xs = tuple(f"x{i}" for i in range(sx))
            ys = tuple(f"y{i}" for i in range(sy))
            for targets in product(ys, repeat=sx):
                f = FinSetMorphism(
                    (xs,), (ys, xs), {(0, x): (0, t) for x, t in zip(xs, targets)}
                )
                fd = finset_iter(f)
                case = FinSetMorphism(
                    (ys, xs),
                    (ys,),
                    {
                        **{(0, y): (0, y) for y in ys},
                        **{(1, x): fd.table[(0, x)] for x in xs},
                    },
                )
                assert model.compose(f, case) == fd


def test_finset_eval_identity_and_composition():
    sigs = {
        s.name: s
        for s in map(
            parse_box_decl,
            ["box p : I | A -> B | I", "box q : I | B -> A | I"],
        )
    }
    model = FinSetModel({"A": ("a0", "a1"), "B": ("b0",)})
    boxes = {
        "p": FinSetMorphism(
            (("a0", "a1"),), (("b0",),), {(0, "a0"): (0, "b0"), (0, "a1"): (0, "b0")}
        ),
        "q": FinSetMorphism((("b0",),), (("a0", "a1"),), {(0, "b0"): (0, "a0")}),
    }
    ident = eval_expr(parse_expr("id[A]", sigs), model, boxes)
    assert ident.table == {(0, "a0"): (0, "a0"), (0, "a1"): (0, "a1")}
    both = eval_expr(parse_expr("p ; q", sigs), model, boxes)
    assert both.table == {(0, "a0"): (0, "a0"), (0, "a1"): (0, "a0")}


def test_finset_binding_split_enforced():
    sigs = {"p": parse_box_decl("box p : A | I -> I | B")}
    model = FinSetModel({"A": ("a0",), "B": ("b0",)})
    bad = FinSetMorphism((("a0",),), (("b0",),), {(0, "a0"): (0, "b0")})
    with pytest.raises(EvalError):
        model.validate_box(sigs["p"], bad)


# --- metric -------------------------------------------------------------------


def test_banach_simple_halving():
    # y = y/2 + 1 has the unique fixpoint 2
    f = affine([1], [1], np.array([[0.5]]), np.array([1.0]))
    y, _ = banach_rec(f, [], 1e-12)
    assert abs(float(y[0][0]) - 2.0) < 1e-10


def test_banach_average_returns_parameter():
    f = affine([1, 1], [1], np.array([[0.5, 0.5]]), np.array([0.0]))
    for x in (3.0, -1.25, 0.0):
        y, _ = banach_rec(f, [np.array([x])], 1e-11)
        assert abs(float(y[0][0]) - x) < 1e-9


def _bisect(fun, lo, hi, n=200):
    for _ in range(n):
        mid = (lo + hi) / 2
        if (fun(lo) - lo) * (fun(mid) - mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_banach_cos_against_bisection():
    f = named_function("cos_half")
    y, _ = banach_rec(f, [], 1e-12)
    target = _bisect(lambda t: math.cos(t) / 2.0, 0.0, 1.0)
    assert abs(float(y[0][0]) - target) < 1e-9


def test_banach_bound_respected():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = float(rng.uniform(0.1, 0.9))
        dim = int(rng.integers(1, 3))
        w = rng.normal(size=(dim, dim))
        w *= c / max(np.max(np.sum(np.abs(w), axis=1)), 1e-9)
        b = rng.uniform(-1, 1, size=dim)
        f = affine([dim], [dim], w, b)
        assert float(f.lip[0, 0]) <= c + 1e-12
        tol = 10.0 ** rng.uniform(-12, -6)
        y, count = banach_rec(f, [], tol)
        y0 = np.zeros(dim)
        d0 = float(np.max(np.abs(w @ y0 + b - y0)))
        goal = tol * (1.0 - float(f.lip[0, 0]))
        if d0 <= goal:
            bound = 1
        else:
            bound = math.ceil(math.log(goal / d0) / math.log(float(f.lip[0, 0]))) + 1
        assert count <= bound + 1
        resid = float(np.max(np.abs(w @ np.asarray(y[0]) + b - np.asarray(y[0]))))
        assert resid <= goal * (1.0 + 1e-9)


def test_banach_calls_the_loop_map_once_per_iterate():
    f = affine([1], [1], np.array([[0.5]]), np.array([1.0]))
    calls = []

    def counted(xs):
        calls.append(None)
        return f.fn(xs)

    y, count = banach_rec(MetricMorphism(f.in_dims, f.out_dims, counted, f.lip), [], 1e-12)
    assert count > 1 and len(calls) == count + 1
    y_plain, count_plain = banach_rec(f, [], 1e-12)
    assert count == count_plain and np.array_equal(y[0], y_plain[0])


def test_banach_wrong_factor_reported():
    # expanding map declared contractive
    f = MetricMorphism((1,), (1,), lambda xs: [2.0 * xs[0] + 1.0], np.array([[0.9]]))
    with pytest.raises(EvalError):
        banach_rec(f, [], 1e-10)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, -math.inf])
def test_metric_feedback_rejects_a_tolerance_that_is_not_positive(tol):
    _rejects_tolerance(tol, f"tolerance must be positive, not {tol}")


def test_metric_feedback_rejects_an_infinite_tolerance():
    # an infinite tolerance would stop the iteration after its first step
    _rejects_tolerance(math.inf, "tolerance must be finite, not inf")


def _rejects_tolerance(tol, message):
    f = affine([1, 1], [1], np.array([[0.5, 0.5]]), np.zeros(1))
    with pytest.raises(EvalError, match=message):
        banach_rec(f, [np.array([1.0])], tol)
    body = affine([1, 1], [1, 1], np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros(2))
    a, u = obj("A"), obj("U")
    with pytest.raises(EvalError, match=message):
        MetricModel({"A": 1, "U": 1}).trace(body, u, (a, UNIT, a, UNIT), tol)


def _metric_trace(m, loop, corners):
    return MetricModel({"A": 1, "U": 1}).trace(m, loop, corners, 1e-12)


def test_metric_trace_no_loop_is_plain_evaluation():
    a = obj("A")
    f = affine([1, 1], [1, 1], np.eye(2), np.zeros(2))
    c_out, d_out = _metric_trace(f, UNIT, (a * a, UNIT, a, a)).apply([[1.5], [-2.0]])
    assert abs(float(c_out[0][0]) - 1.5) < 1e-12
    assert abs(float(d_out[0][0]) + 2.0) < 1e-12


def test_metric_trace_solves_loop():
    # (A, U) -> (C, U'): C copies the loop value, U' = (a + u)/2
    w = np.array([[0.0, 1.0], [0.5, 0.5]])
    f = affine([1, 1], [1, 1], w, np.zeros(2))
    (c_out,) = _metric_trace(f, obj("U"), (obj("A"), UNIT, obj("A"), UNIT)).apply([[4.0]])
    assert abs(float(c_out[0][0]) - 4.0) < 1e-9


def test_metric_trace_evaluates_the_body_once_per_iterate():
    # (A, U) -> (C, U'): C copies the loop value, U' = (a + u)/2 + 1
    f = affine([1, 1], [1, 1], np.array([[0.0, 1.0], [0.5, 0.5]]), np.array([0.0, 1.0]))
    calls = []

    def counted(xs):
        calls.append(None)
        return f.fn(xs)

    body = MetricMorphism(f.in_dims, f.out_dims, counted, f.lip)
    xs = [np.array([[4.0], [-2.0]])]
    u, count, _ = _iterate(f, xs, [], 1, 1, 1, 0.5, 1e-12)
    at_fixpoint = f.fn(xs + u)[0]  # the output at the settled loop blocks
    assert count > 1

    traced = MetricModel({"A": 1, "U": 1}).trace(body, obj("U"), (obj("A"), UNIT, obj("A"), UNIT))
    ys = traced.apply(xs)
    assert len(calls) == count + 1 and np.array_equal(ys[0], at_fixpoint)

    calls.clear()  # no loop blocks: the one evaluation is the answer
    a = obj("A")
    c_out, _ = _metric_trace(body, UNIT, (a * a, UNIT, a, a)).apply([[1.5], [-2.0]])
    assert len(calls) == 1 and c_out[0, 0] == f.fn([np.array([[1.5]]), np.array([[-2.0]])])[0][0, 0]


# --- trees --------------------------------------------------------------------


def _simple_objects():
    x = StageObject(
        (("x0",), ("x0", "x1"), ("x0", "x1")),
        ({"x0": "x0", "x1": "x0"}, {"x0": "x0", "x1": "x1"}),
    )
    y = StageObject(
        (("y0",), ("y0", "y1"), ("y0", "y1")),
        ({"y0": "y0", "y1": "y0"}, {"y0": "y0", "y1": "y1"}),
    )
    return x, y


def _tot_fixpoint(f, y_family):
    """The x family solving x = f(y, x) at the compatible y family, read
    off the model's feedback: duplicate f's output and trace the copy."""
    model = ToposOfTreesModel({})
    dup = stagewise(f.cod, f.cod * 2, lambda n, v: v + v, len(f.maps))
    x = obj("X")
    rec = model.trace(model.compose(f, dup), x, (obj("Y"), UNIT, UNIT, x))
    return [rec.maps[n][(v,)][0] for n, v in enumerate(y_family)]


def test_tot_fixpoint_constant_witness():
    x, y = _simple_objects()
    witness = (
        {(("y0",), "*"): "x0"},
        {(("y0",), "x0"): "x0", (("y1",), "x0"): "x0"},
        {(("y0",), "x0"): "x0", (("y1",), "x0"): "x0",
         (("y0",), "x1"): "x0", (("y1",), "x1"): "x0"},
    )
    maps = []
    for n in range(3):
        table = {}
        for yv in y.stages[n]:
            for xv in x.stages[n]:
                prev = "*" if n == 0 else x.restr[n - 1][xv]
                table[(yv, xv)] = (witness[n][((yv,), prev)],)
        maps.append(table)
    f = ToTMorphism((y, x), (x,), tuple(maps))
    assert _tot_fixpoint(f, ["y0", "y1", "y1"]) == ["x0", "x0", "x0"]


def test_tot_fixpoint_is_unique():
    """Exhaustive: the computed fixpoint is the only compatible family
    solving x = f(y, x)."""
    x, y = _simple_objects()
    from gtc.laws import _enumerate_natural, _guarded_from_witness, _later

    families = []
    stage_elems = x.stages
    for v1 in stage_elems[0]:
        for v2 in stage_elems[1]:
            if x.restr[0][v2] != v1:
                continue
            for v3 in stage_elems[2]:
                if x.restr[1][v3] == v2:
                    families.append([v1, v2, v3])
    y_families = []
    for w1 in y.stages[0]:
        for w2 in y.stages[1]:
            if y.restr[0][w2] != w1:
                continue
            for w3 in y.stages[2]:
                if y.restr[1][w3] == w2:
                    y_families.append([w1, w2, w3])

    count = 0
    for w in _enumerate_natural((y, _later(x)), x):
        maps = _guarded_from_witness((y, x), x, w, {1})
        f = ToTMorphism((y, x), (x,), tuple(maps))
        for yf in y_families:
            solutions = [
                xf
                for xf in families
                if all(f.maps[n][(yf[n], xf[n])] == (xf[n],) for n in range(3))
            ]
            assert solutions == [_tot_fixpoint(f, yf)]
            count += 1
    assert count > 0


def test_tot_binding_validation_rejects_undelayed():
    x, _ = _simple_objects()
    sig = parse_box_decl("box d : X | I -> I | X")
    model = ToposOfTreesModel({"X": x})
    maps = tuple({(v,): (v,) for v in x.stages[n]} for n in range(3))  # identity
    ident = ToTMorphism((x,), (x,), maps)
    with pytest.raises(EvalError):
        model.validate_box(sig, ident)


# --- hilbert ------------------------------------------------------------------


def test_full_trace_matches_basis_sum():
    rng = np.random.default_rng(31)
    f = rng.normal(size=(5, 5))
    by_formula = float(sum(f[i, i] for i in range(5)))
    assert hs_sum_trace(f, 1, 5, 1, 1, 1)[0, 0] == by_formula
    g, h, e = trace_witness(f, 1, 5, 1, 1, 1)
    assert hs_factored_trace(g, h, e, 1, 5, 1, 1, 1)[0, 0] == pytest.approx(
        by_formula, abs=1e-9
    )


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(32)
    p = rng.normal(size=(2, 2))
    q = rng.normal(size=(3, 3))
    f = np.kron(p, q)  # (C x U) <- (A x U) with A = C = dim 2, U = dim 3
    # arrange as (A,U,B=1) -> (C,D=1,U): same layout
    w = hs_sum_trace(f, 2, 3, 1, 2, 1)
    assert np.allclose(w, np.trace(q) * p, atol=1e-12)


def test_witness_independence():
    rng = np.random.default_rng(33)
    for _ in range(20):
        da, du, db, dc, dd = (int(rng.integers(1, 3)) for _ in range(5))
        mat = rng.normal(size=(dc * dd * du, da * du * db))
        g, h, e = trace_witness(mat, da, du, db, dc, dd)
        t1 = hs_factored_trace(g, h, e, da, du, db, dc, dd)
        rot = np.linalg.qr(rng.normal(size=(e, e)))[0]
        g2, h2 = rotate_witness(g, h, e, da, du, dd, rot)
        t2 = hs_factored_trace(g2, h2, e, da, du, db, dc, dd)
        assert np.max(np.abs(t1 - t2)) < 1e-9
        assert np.max(np.abs(t1 - hs_sum_trace(mat, da, du, db, dc, dd))) < 1e-9


def test_basis_independence():
    rng = np.random.default_rng(34)
    for _ in range(20):
        da, du, db, dc, dd = 2, 3, 2, 2, 2
        mat = rng.normal(size=(dc * dd * du, da * du * db))
        q = np.linalg.qr(rng.normal(size=(du, du)))[0]
        pre = np.kron(np.kron(np.eye(da), q), np.eye(db))
        post = np.kron(np.eye(dc * dd), q.T)
        rotated = post @ mat @ pre
        t1 = hs_sum_trace(mat, da, du, db, dc, dd)
        t2 = hs_sum_trace(rotated, da, du, db, dc, dd)
        assert np.max(np.abs(t1 - t2)) < 1e-9


def test_dagger_commutes_with_trace():
    rng = np.random.default_rng(35)
    for _ in range(20):
        da, du, db, dc, dd = (int(rng.integers(1, 3)) for _ in range(5))
        e_dim = int(rng.integers(1, 3))
        g = rng.normal(size=(e_dim * dd * du, db))
        h = rng.normal(size=(dc, da * du * e_dim))
        mat = np.kron(h, np.eye(dd * du)) @ np.kron(np.eye(da * du), g)
        g1 = kron_perm((dd, du, dc), [2, 0, 1])  # (D,U,C) -> (C,D,U)
        g2 = kron_perm((da, du, db), [2, 0, 1])  # (A,U,B) -> (B,A,U)
        body = g2 @ mat.T @ g1
        lhs = hs_sum_trace(body, dd, du, dc, db, da)
        w = hs_sum_trace(mat, da, du, db, dc, dd)
        sym_dc = kron_perm((dd, dc), [1, 0])
        sym_ab = kron_perm((da, db), [1, 0])
        rhs = sym_ab @ w.T @ sym_dc
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_kron_equals_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(36)
    for m, n, p, q in product(range(1, 5), repeat=4):
        a, b = rng.normal(size=(m, n)), rng.normal(size=(p, q))
        for x, y in ((a, b), (a, np.eye(p)), (np.eye(m), b)):
            ours, theirs = kron(x, y), np.kron(x, y)
            assert ours.shape == theirs.shape and np.array_equal(ours, theirs)


def test_witness_check_agrees_with_allclose_around_the_tolerance():
    # U | I -> I | U groups as A = U, B = I, C = I, D = U: the matrix is
    # its own grouped form
    split = parse_box_decl("box b : U | I -> I | U").split
    rng = np.random.default_rng(37)
    verdicts = set()
    for scale in (1e-3, 1.0, 1e3):
        g, h = rng.normal(size=(4, 1)), scale * rng.normal(size=(1, 4))
        rebuilt = np.kron(h, np.eye(2)) @ np.kron(np.eye(2), g)
        for factor in (0.5, 0.999, 1.001, 2.0):
            for sign in (1.0, -1.0):
                mat = rebuilt.copy()
                mat[1, 0] += sign * factor * WITNESS_TOL
                m = HilbertMorphism((2,), (2,), mat, {"e_dim": 2, "g": g, "h": h})
                want = np.allclose(rebuilt, mat, atol=WITNESS_TOL, rtol=0)
                try:
                    check_witness(m, split)
                    got = True
                except EvalError:
                    got = False
                assert got == want, (scale, factor, sign)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_hilbert_box_requires_witness():
    sig = parse_box_decl("box b : U | I -> I | U")
    model = HilbertModel({"U": 2})
    bare = HilbertMorphism((2,), (2,), np.eye(2))
    with pytest.raises(EvalError):
        model.validate_box(sig, bare)


def test_metric_binding_contraction_enforced():
    from gtc.models import MetricModel

    sig = parse_box_decl("box c : A | I -> I | A")
    model = MetricModel({"A": 1})
    loose = affine([1], [1], np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(EvalError):
        model.validate_box(sig, loose)
    tight = affine([1], [1], np.array([[0.5]]), np.array([0.0]))
    model.validate_box(sig, tight)


def test_unbound_box_reported():
    sigs = {"p": parse_box_decl("box p : I | A -> A | I")}
    model = FinSetModel({"A": ("a0",)})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("p", sigs), model, {})


# --- flat posets ---------------------------------------------------------------


def test_flat_binding_constancy_enforced():
    from gtc.models import FlatPosetModel, PosetMorphism

    sig = parse_box_decl("box c : A | I -> I | A")
    model = FlatPosetModel({"A": flat(("p", "q"))})
    ident = PosetMorphism(
        (flat(("p", "q")),), (flat(("p", "q")),), {("p",): ("p",), ("q",): ("q",)}
    )
    with pytest.raises(EvalError):
        model.validate_box(sig, ident)


def test_one_point_carrier_forces_everything():
    x = flat(["only"])
    tx, bot = lift(x)
    b = flat(["b"])
    f = {("b", bot): "only", ("b", "only"): "only"}
    assert lfp_rec(f, b, tx) == {"b": "only"}
    grec = rec_to_grec(lfp_rec)
    rec2 = grec_to_rec(grec)
    assert rec2(f, b, tx) == {"b": "only"}
    g = {("b", bot): "only", ("b", "only"): "only"}
    assert grec(g, b, x) == {"b": "only"}


def test_grec_rejects_a_witness_with_a_missing_or_an_extra_key():
    grec = rec_to_grec(lfp_rec)
    x, b = flat(["p", "q"]), flat(["b"])
    tx, bot = lift(x)
    g = {("b", z): "q" for z in tx.elements}
    assert grec(g, b, x) == {"b": "q"}
    missing = {k: v for k, v in g.items() if k != ("b", bot)}
    extra = {**g, ("c", "p"): "p"}
    for bad in (missing, extra):
        with pytest.raises(EvalError, match="witness table does not cover Y x TX"):
            grec(bad, b, x)
    assert grec(g, b, x) == {"b": "q"}


def test_lfp_needs_pointed_carrier():
    x = flat(["p", "q"])
    with pytest.raises(EvalError):
        lfp_rec({("b", "p"): "p", ("b", "q"): "q"}, flat(["b"]), x)


def test_poset_validation():
    refl = {("a", "a"), ("b", "b"), ("c", "c")}
    with pytest.raises(EvalError, match="antisymmetric"):
        Poset(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
    with pytest.raises(EvalError, match="unknown elements"):
        Poset(("a",), frozenset({("a", "a"), ("a", "z")}))
    with pytest.raises(EvalError, match="not reflexive at b"):
        Poset(("a", "b"), frozenset({("a", "a"), ("a", "b")}))
    with pytest.raises(EvalError, match="not transitive"):
        Poset(("a", "b", "c"), frozenset(refl | {("a", "b"), ("b", "c")}))
    chain = Poset(("a", "b", "c"), frozenset(refl | {("a", "b"), ("b", "c"), ("a", "c")}))
    assert chain.bottom() == "a" and chain.le("a", "c") and not chain.le("c", "a")


def test_non_monotone_table_on_lifted_carrier_rejected():
    from gtc.models import PosetMorphism

    tx, bot = lift(flat(("p", "q")))
    monotone = {(bot,): (bot,), ("p",): ("p",), ("q",): ("q",)}
    PosetMorphism((tx,), (tx,), monotone)
    with pytest.raises(EvalError, match="not monotone"):
        # bot <= q, but the image p of bot is not below the image q of q
        PosetMorphism((tx,), (tx,), {**monotone, (bot,): ("p",)})


def _all_pairs_monotone(keys, values, key_le, value_le):
    """Reference enumeration: every table keys -> values, kept when each
    ordered pair of keys maps to an ordered pair of values."""
    for combo in product(values, repeat=len(keys)):
        t = dict(zip(keys, combo))
        if all(value_le(t[k], t[m]) for k in keys for m in keys if key_le(k, m)):
            yield t


def test_monotone_enumerations_match_all_pairs_reference():
    from gtc.laws import _monotone_tables_between, _monotone_two_arg

    lifted = [lift(flat([f"x{i}" for i in range(n)]))[0] for n in (1, 2)]
    for nb in (1, 2):
        b = flat([f"b{i}" for i in range(nb)])
        for src in lifted:
            for dst in lifted:
                keys = [(bv, sv) for bv in b.elements for sv in src.elements]
                want = list(
                    _all_pairs_monotone(
                        keys,
                        dst.elements,
                        lambda k, m: k[0] == m[0] and src.le(k[1], m[1]),
                        dst.le,
                    )
                )
                assert list(_monotone_tables_between(b, src, dst)) == want
    for a, nb in [(lifted[0], 1), (lifted[0], 2), (lifted[1], 1)]:
        b = flat([f"b{i}" for i in range(nb)])
        keys = [(bv, u, v) for bv in b.elements for u in a.elements for v in a.elements]
        want = list(
            _all_pairs_monotone(
                keys,
                a.elements,
                lambda k, m: k[0] == m[0] and a.le(k[1], m[1]) and a.le(k[2], m[2]),
                a.le,
            )
        )
        assert list(_monotone_two_arg(b, a)) == want


# --- interchange in every model -------------------------------------------------


def test_eval_respects_interchange_everywhere():
    """(f (*) g) ; (h1 (*) h2) equals (f ; h1) (*) (g ; h2) in each model."""
    rng_master = np.random.default_rng(77)
    sigs = {
        s.name: s
        for s in map(
            parse_box_decl,
            [
                "box f : I | A -> B | I",
                "box g : I | C -> D | I",
                "box h1 : I | B -> A | I",
                "box h2 : I | D -> C | I",
            ],
        )
    }
    inst = AxiomInstance("vanishing1", 0, sigs, None, None, None)
    lhs = parse_expr("(f (*) g) ; (h1 (*) h2)", sigs)
    rhs = parse_expr("(f ; h1) (*) (g ; h2)", sigs)
    for model_name, gen in BINDING_GENERATORS.items():
        rng = np.random.default_rng([77, hash(model_name) % 1000])
        model, boxes = gen(inst, rng)
        v1 = eval_expr(lhs, model, boxes, tol=1e-12)
        v2 = eval_expr(rhs, model, boxes, tol=1e-12)
        ok, dev = model.equal(v1, v2, tol=1e-9, rng=rng)
        assert ok, (model_name, dev)


# --- carriers built once --------------------------------------------------------


def _carrier_data(tag: str):
    """Fresh (not shared) data for one poset and one stage object."""
    elems = (f"{tag}0", f"{tag}1", f"{tag}2")
    leq = frozenset({(a, a) for a in elems} | {(elems[0], elems[1])})
    stages = ((f"{tag}0",), (f"{tag}0", f"{tag}1"))
    restr = ({f"{tag}0": f"{tag}0", f"{tag}1": f"{tag}0"},)
    return (list(elems), set(leq)), (stages, restr)


def test_equal_carrier_data_gives_the_shared_object():
    (elems, leq), (stages, restr) = _carrier_data("sh")
    p = Poset(tuple(elems), frozenset(leq))
    assert Poset(elems, leq) is p and Poset(tuple(elems), frozenset(leq)) is p
    assert flat(["a", "b"]) is flat(("a", "b"))
    assert p.is_flat is False and p.bottom() is None and p.le("sh0", "sh1")
    tp, bot = lift(p)
    assert lift(p) == (tp, bot) and lift(p)[0] is tp and tp.bottom() == bot == "_BOT"
    assert lift(flat(["_BOT"]))[1] == "_BOT_"
    x = StageObject(stages, restr)
    # same restriction, other key order: still the same carrier
    assert StageObject(list(stages), [dict(reversed(list(restr[0].items())))]) is x
    assert x.restr == restr and x.restr[0] is not restr[0]  # a private copy
    restr[0]["sh1"] = "zz"  # so the caller's dict cannot change the carrier
    assert x.restr[0]["sh1"] == "sh0"
    assert StageObject(stages, ({"sh0": "sh0", "sh1": "sh0"},)) is x
    assert hash(x) == hash(StageObject(stages, ({"sh0": "sh0", "sh1": "sh0"},)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.stages = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.elements = ()


def test_carrier_copies_and_pickles_are_the_shared_object():
    (elems, leq), (stages, restr) = _carrier_data("cp")
    p, x = Poset(elems, leq), StageObject(stages, restr)
    tp, _ = lift(p)
    for obj in (p, tp, x):
        for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert back is obj
    m = ToTMorphism((x,), (x,), ({("cp0",): ("cp0",)}, {("cp0",): ("cp1",), ("cp1",): ("cp0",)}))
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.dom[0] is x and lift(pickle.loads(pickle.dumps(p)))[0] is tp
    assert repr(p) == f"Poset(elements={p.elements!r}, leq={p.leq!r})"


def test_unreferenced_carriers_leave_their_tables():
    from gtc.laws import _enumerate_natural
    from gtc.models import trees

    (elems, leq), (stages, restr) = _carrier_data("gc")
    was = gc.isenabled()
    gc.disable()  # reference counting alone must free them: no cycles
    try:
        p = Poset(elems, leq)
        lift(lift(p)[0])
        x = StageObject(stages, restr)
        trees._word((x, x, x), 2)
        m = ToTMorphism((x,), (x,), ({("gc0",): ("gc0",)}, {("gc0",): ("gc1",), ("gc1",): ("gc0",)}))
        started = _enumerate_natural((x,), x)  # a law enumeration left half done
        next(started)
        n_posets, n_stage_objects = len(Poset._table), len(StageObject._table)
        probes = [weakref.ref(o) for o in (p, lift(p)[0], x)]
        del p, x, m, started
        assert [probe() for probe in probes] == [None] * 3
        assert len(Poset._table) <= n_posets - 3  # p, its lift and the lift's lift
        assert len(StageObject._table) == n_stage_objects - 1
    finally:
        if was:
            gc.enable()


def test_invalid_carriers_fail_the_same_way_every_time():
    bad_posets = [
        ((("a", "a"), frozenset({("a", "a")})), "duplicate poset elements"),
        ((("a", "b"), frozenset({("a", "a")})), "order not reflexive at b"),
        ((("a",), frozenset({("a", "a"), ("a", "z")})), r"order pair \(a, z\) uses unknown elements"),
    ]
    bad_stage_objects = [
        (((("a",), ("b",)), ()), "need exactly one restriction"),
        (((("a",), ("b", "c")), ({"b": "a"},)), "restriction 0 does not cover stage 2"),
        (((("a", "d"), ("b",)), ({"b": "a"},)), "restriction 0 is not surjective"),
        (((("a",), ("b",)), ({"b": "z"},)), "restriction 0 leaves stage 1"),
        ((((),), ()), "empty stage sets"),
        (((("a", "a"), ("b",)), ({"b": "a"},)), "^duplicate elements in stage 1$"),
        (((("a",), ("b", "b")), ({"b": "a"},)), "^duplicate elements in stage 2$"),
        (((("a", "a", "d"), ("b",)), ({"b": "a"},)), "restriction 0 is not surjective"),
    ]
    for _ in range(3):  # a failure is never cached
        for args, message in bad_posets:
            with pytest.raises(EvalError, match=message):
                Poset(*args)
        for args, message in bad_stage_objects:
            with pytest.raises(EvalError, match=message):
                StageObject(*args)


def test_tot_morphism_rejects_values_outside_its_codomain():
    one = StageObject((("a0", "a1"),), ())
    with pytest.raises(EvalError, match="^stage 1 map leaves the codomain$"):
        ToTMorphism((one,), (one,), ({("a0",): ("zz",), ("a1",): ("a0",)},))
    with pytest.raises(EvalError, match="^stage 1 map leaves the codomain$"):
        ToTMorphism((one,), (one,), ({("a0",): ("a0", "a1"), ("a1",): ("a0",)},))
    with pytest.raises(EvalError, match="^stage 1 map leaves the codomain$"):
        ToTMorphism((one,), (one, one), ({("a0",): ("a0",), ("a1",): ("a0", "a1")},))
    two = StageObject((("a0",), ("a0", "a1")), ({"a0": "a0", "a1": "a0"},))
    with pytest.raises(EvalError, match="^stage 2 map leaves the codomain$"):
        ToTMorphism((two,), (two,), ({("a0",): ("a0",)}, {("a0",): ("zz",), ("a1",): ("a0",)}))
    ok = ToTMorphism((two,), (two,), ({("a0",): ("a0",)}, {("a0",): ("a1",), ("a1",): ("a0",)}))
    assert ok.maps[1][("a0",)] == ("a1",)
    for n_maps in (0, 2):
        with pytest.raises(EvalError, match="^need one stage map per carrier stage$"):
            ToTMorphism((one,), (one,), ({("a0",): ("a0",), ("a1",): ("a1",)},) * n_maps)
    with pytest.raises(EvalError, match="^need one stage map per carrier stage$"):
        ToTMorphism((two,), (), ({("a0",): ()},))
    with pytest.raises(EvalError, match="same stage count"):
        ToTMorphism((one, two), (), ({("a0", "a0"): (), ("a1", "a0"): ()},))


def test_tot_operations_reject_operands_of_different_stage_counts():
    # a morphism between unit words carries its stage count only in its
    # maps, so only the operation can tell that the result would be invalid
    two = StageObject((("a0",), ("a0", "a1")), ({"a0": "a0", "a1": "a0"},))
    unit1 = ToTMorphism((), (), ({(): ()},))
    unit2 = ToTMorphism((), (), ({(): ()},) * 2)
    to_two = ToTMorphism((), (two,), ({(): ("a0",)}, {(): ("a1",)}))
    ident = ToTMorphism((two,), (two,), ({("a0",): ("a0",)}, {("a0",): ("a0",), ("a1",): ("a1",)}))
    model = ToposOfTreesModel({"X": two})
    for f, g in ((unit1, ident), (unit1, to_two), (unit2, unit1)):
        with pytest.raises(EvalError, match="^need one stage map per carrier stage$"):
            model.tensor(f, g)
    for f, g in ((unit1, to_two), (unit2, unit1), (unit1, unit2)):
        with pytest.raises(EvalError, match="^need one stage map per carrier stage$"):
            model.compose(f, g)
    assert model.compose(unit2, to_two).maps == to_two.maps
    assert model.tensor(unit2, ident).maps == ident.maps


def test_tot_word_tables_are_built_once_per_word():
    from gtc.models.trees import _word

    x, y = _simple_objects()
    w = _word((x, y, x), 3)
    assert _word((x, y, x), 3) is w and _word((x, y), 3) is not w
    assert list(w[1]) == list(product(x.stages[1], y.stages[1], x.stages[1]))
    assert w[0] == {("x0", "y0", "x0"): None}
    assert w[2][("x1", "y0", "x1")] == ("x1", "y0", "x1")
    assert w[1][("x1", "y1", "x0")] == ("x0", "y0", "x0")
    assert _word((), 2) == ({(): None}, {(): ()}) and _word((), 0) == ()
    assert x.section == ({"x0": "x0"}, {"x0": "x0", "x1": "x1"})


def test_tot_fibers_follow_restriction_order():
    from gtc.models.trees import stagewise

    x = StageObject(
        (("fa", "fb"), ("fc", "fd", "fe")), ({"fe": "fa", "fc": "fb", "fd": "fa"},)
    )
    assert x.fibers == ({"fa": ("fe", "fd"), "fb": ("fc",)},)
    assert x.section == ({"fa": "fd", "fb": "fc"},)
    dup = stagewise((x,), (x, x), lambda n, p: p + p, 2)
    assert dup.maps == (
        {("fa",): ("fa", "fa"), ("fb",): ("fb", "fb")},
        {("fc",): ("fc", "fc"), ("fd",): ("fd", "fd"), ("fe",): ("fe", "fe")},
    )
    with pytest.raises(EvalError, match="stage 1 map leaves the codomain"):
        stagewise((x,), (x,), lambda n, p: ("zz",), 2)


def test_carriers_built_from_many_threads():
    # more threads than cores, switching often, all building the same
    # carriers, their lifts and word tables; every result must be right and
    # equal data must give one object
    n_threads = 4 * (os.cpu_count() or 1)
    sizes = range(1, 6)
    deadline = time.monotonic() + 1.0
    errors: list[BaseException] = []
    built: list[list] = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        mine = []
        try:
            while time.monotonic() < deadline:
                k = int(rng.choice(sizes))
                elems = tuple(f"th{i}" for i in range(k))
                p = flat(elems)
                tp, bot = lift(p)
                assert tp.bottom() == bot and len(tp.elements) == k + 1 and p.is_flat
                stages = (elems[:1], elems)
                x = StageObject(stages, ({e: elems[0] for e in elems},))
                tbl = trees._word((x, x), 2)
                assert len(tbl[1]) == k * k and tbl[1][(elems[-1],) * 2] == (elems[0],) * 2
                mine.append((k, p, tp, x))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        built.append(mine)

    from gtc.models import trees

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
    assert len(built) == n_threads and sum(map(len, built)) > n_threads
    first: dict = {}
    for mine in built:
        for k, p, tp, x in mine:
            assert first.setdefault(k, (p, tp, x)) == (p, tp, x)
            assert first[k][0] is p and first[k][1] is tp and first[k][2] is x


def _profiles(max_gates: int):
    """Every gate-dimension tuple of up to ``max_gates`` gates, each of
    dimension 1 to 3."""
    for n in range(max_gates + 1):
        yield from product(range(1, 4), repeat=n)


def test_gathered_permutations_equal_dense_products():
    from itertools import permutations

    rng = np.random.default_rng(0)
    for dims in _profiles(3):
        total = math.prod(dims)
        m = rng.normal(size=(total, 2))
        for perm in permutations(range(len(dims))):
            dense, idx = kron_perm(dims, list(perm)), perm_index(dims, list(perm))
            assert np.array_equal(m[idx], dense @ m)
            assert np.array_equal(m[np.argsort(idx)], dense.T @ m)
    # the corner grouping of split_permuted and its inverse, as
    # axioms.hilbert_bindings applies it, on every split of every profile
    # of up to 3 gates
    for in_dims in _profiles(3):
        for out_dims in _profiles(3 - len(in_dims)):
            n_in, n_out = len(in_dims), len(out_dims)
            mat = rng.normal(size=(math.prod(out_dims), math.prod(in_dims)))
            for a, g in product(range(1 << n_in), range(1 << n_out)):
                split = mk_split(
                    n_in, n_out, [i for i in range(n_in) if a >> i & 1],
                    [j for j in range(n_out) if g >> j & 1],
                )
                a_gates, b_gates, c_gates, d_gates = split.corner_gates()
                p_in = kron_perm(in_dims, a_gates + b_gates)
                p_out = kron_perm(out_dims, c_gates + d_gates)
                grouped, _ = split_permuted(mat, in_dims, out_dims, split)
                assert np.array_equal(grouped, p_out @ mat @ p_in.T)
                in_idx, out_idx, _ = corner_perms(in_dims, out_dims, split)
                back = grouped[np.ix_(np.argsort(out_idx), np.argsort(in_idx))]
                assert np.array_equal(back, p_out.T @ grouped @ p_in)
                assert np.array_equal(back, mat)


# --- numbers entering the numeric models --------------------------------------


@pytest.mark.parametrize("model", [MetricModel, HilbertModel])
@pytest.mark.parametrize("dim", [2.7, 1.0, -1, 0, True, "x", None])
def test_dimension_constructors_check_instead_of_coercing(model, dim):
    with pytest.raises(EvalError, match=r"dimension for atom 'A' must be an integer >= 1"):
        model({"B": 2, "A": dim})
    assert model({"A": 3}).objects == {"A": 3}


def test_nan_contraction_factors_are_rejected():
    # NaN passes both `lip < 0` and the contraction test `lip >= 1.0`
    with pytest.raises(EvalError, match="Lipschitz bounds must be finite"):
        MetricMorphism((1,), (1,), lambda xs: xs, np.array([[math.nan]]))
    with pytest.raises(EvalError, match="Lipschitz bounds must be finite"):
        affine((1,), (1,), np.array([[math.nan]]), np.array([0.0]))
    sigs = {"f": parse_box_decl("box f : A | I -> I | A")}
    payload = {"model": "metric", "objects": {"A": 1}, "boxes": {"f": {"weight": [[math.nan]], "offset": [0.0]}}}
    with pytest.raises(EvalError, match="Lipschitz bounds must be finite"):
        load_bindings(payload, sigs)  # parsed already, so no JSON literal to refuse


@pytest.mark.parametrize("dims", [((2.5,), (1,)), ((1,), (0,)), ((True,), (1,)), ((1,), (np.int64(1),))])
def test_numeric_morphisms_take_only_integer_dimensions(dims):
    in_dims, out_dims = dims
    with pytest.raises(EvalError, match="is not an integer >= 1"):
        MetricMorphism(in_dims, out_dims, lambda xs: xs, np.array([[0.5]]))
    with pytest.raises(EvalError, match="is not an integer >= 1"):
        HilbertMorphism(in_dims, out_dims, np.array([[0.5]]))
    assert MetricMorphism((1,), (1,), lambda xs: xs, np.array([[0.5]])).in_dims == (1,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hilbert_morphism_rejects_a_non_finite_matrix(bad):
    with pytest.raises(EvalError, match="matrix must be finite"):
        HilbertMorphism((1,), (1,), np.array([[bad]]))


@pytest.mark.parametrize("part", ["g", "h"])
def test_hilbert_morphism_rejects_a_non_finite_witness(part):
    witness = {"e_dim": 1, "g": np.array([[1.0]]), "h": np.array([[0.5]])}
    assert HilbertMorphism((1,), (1,), np.array([[0.5]]), dict(witness)).witness is not None
    witness[part] = np.array([[math.nan]])
    with pytest.raises(EvalError, match=f"witness {part} must be finite"):
        HilbertMorphism((1,), (1,), np.array([[0.5]]), witness)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_bindings_text_with_non_finite_literals_is_rejected(literal):
    sigs = {"f": parse_box_decl("box f : I | A -> A | I")}
    text = f'{{"model": "metric", "objects": {{"A": 1}}, "boxes": {{"f": {{"weight": [[{literal}]], "offset": [0.0]}}}}}}'
    with pytest.raises(EvalError, match=f"bad bindings: {literal} is not a JSON number"):
        load_bindings(text, sigs)
    assert load_bindings(text.replace(literal, "0.5"), sigs)[1]["f"].lip[0, 0] == 0.5


def test_hilbert_bindings_take_no_booleans_and_an_integer_e_dim():
    sigs = {"f": parse_box_decl("box f : A | I -> I | A")}
    witness = {"e_dim": 1, "g": [[1.0]], "h": [[0.5]]}
    payload = {"model": "hilbert", "objects": {"A": 1}, "boxes": {"f": {"matrix": [[0.5]], "witness": witness}}}
    model, boxes = load_bindings(payload, sigs)
    model.validate_box(sigs["f"], boxes["f"])
    for e_dim in (1.5, 1.0, True, "1"):
        witness["e_dim"] = e_dim
        with pytest.raises(EvalError, match="e_dim for 'f' must be an integer"):
            load_bindings(payload, sigs)
    witness["e_dim"] = 1
    for where in (payload["boxes"]["f"]["matrix"][0], witness["h"][0]):
        where[0] = True
        with pytest.raises(EvalError, match="holds a boolean, not a number"):
            load_bindings(payload, sigs)
        where[0] = 0.5
