"""Feedback-axiom harness: generate decorated instances of the eight
trace axioms as expression pairs, instantiate them in each model, and
compare the two denotations.

Every instance carries explicit splits chosen so that both sides pass
``check_annotated``.  Two encodings deserve a note, flagged in the
report header: the guard placements for sliding variants 2 and 3 follow
the half-turn symmetry of variant 1, and yanking is generated in its
guarded form (a promising box pulled through its own feedback loop),
since a bare swap cannot carry the required promise in any of the
models here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product as iproduct

import numpy as np

from .expressions import Box, Comp, Id, MorphExpr, Sym, Tensor, trace as mk_trace
from .guardedness import check_annotated
from .models import (
    MODEL_NAMES,
    EvalError,
    FinSetModel,
    FinSetMorphism,
    FlatPosetModel,
    HilbertModel,
    HilbertMorphism,
    MetricModel,
    PosetMorphism,
    StageObject,
    ToposOfTreesModel,
    eval_expr,
    flat,
)
from .models.flatposet import product_elements
from .models.hilbert import corner_perms, kron
from .models.metric import affine
from .models.trees import stagewise
from .signatures import UNIT, BoxSig, ObjectExpr, Split, corner_split
from .synthesis import perm_to_expr

AXIOMS = (
    "vanishing1",
    "vanishing2",
    "sliding1",
    "sliding2",
    "sliding3",
    "superposing",
    "tightening",
    "yanking",
)

REVIEW_NOTE = (
    "sliding2/sliding3 guard placement and guarded yanking are encoding "
    "choices cross-validated by holding in every model"
)


@dataclass
class AxiomInstance:
    axiom: str
    index: int
    sigs: dict[str, BoxSig]
    lhs: MorphExpr
    rhs: MorphExpr
    claim: Split
    atoms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = []
        for sig in self.sigs.values():
            names += list(sig.inputs) + list(sig.outputs)
        self.atoms = tuple(dict.fromkeys(names))

    @cached_property
    def failing_side(self) -> str | None:
        """The first side ("lhs", then "rhs") that fails the claim's
        guardedness check, or None; checked once per instance, whatever
        the number of models it is evaluated in."""
        for side, expr in (("lhs", self.lhs), ("rhs", self.rhs)):
            if not check_annotated(expr, self.claim).ok:
                return side
        return None


class _Names:
    def __init__(self) -> None:
        self.n = 0

    def word(self, rng, lo: int, hi: int, tag: str) -> ObjectExpr:
        k = int(rng.integers(lo, hi + 1))
        out = []
        for _ in range(k):
            out.append(f"{tag}{self.n}")
            self.n += 1
        return ObjectExpr(tuple(out))


def _claim(a, b, c, d) -> Split:
    """The canonical split ``A|B -> C|D`` of four corner words, for a
    claim or a box's own split."""
    return corner_split(len(a * b), len(c * d), len(a), len(c))


def _guard_box(name: str, a, u_in, b, c, d, u_out) -> BoxSig:
    """Box with profile a*u_in*b -> c*d*u_out promising exactly the trace
    shape: a and u_in unguarded, d and u_out guarded."""
    return BoxSig(name, a * u_in * b, c * d * u_out, _claim(a * u_in, b, c, d * u_out))


def _plain_box(name: str, dom, cod) -> BoxSig:
    """White box: nothing promised."""
    return BoxSig(name, dom, cod, _claim(UNIT, dom, cod, UNIT))


def _promise_box(name: str, dom, cod) -> BoxSig:
    """Black box: everything promised."""
    return BoxSig(name, dom, cod, _claim(dom, UNIT, UNIT, cod))


def _route(src_labels: list, dst_labels: list) -> list[int]:
    index = {lab: i for i, lab in enumerate(src_labels)}
    return [index[lab] for lab in dst_labels]


def _perm(atoms_by_label: dict, src: list, dst: list) -> MorphExpr:
    return perm_to_expr([atoms_by_label[s] for s in src], _route(src, dst))


def _labels(word: ObjectExpr, tag: str) -> list:
    return [(tag, i) for i in range(len(word))]


def gen_axiom_instances(axiom: str, seed: int, count: int = 1):
    """Instances of one axiom: pairs of expressions plus the signature
    registry serving as the bindings template."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")
    rng = np.random.default_rng([seed, AXIOMS.index(axiom)])
    return [_gen_one(axiom, rng, i) for i in range(count)]


def _gen_one(axiom: str, rng, index: int) -> AxiomInstance:
    names = _Names()
    w = names.word
    if axiom == "vanishing1":
        a, b = w(rng, 0, 2, "a"), w(rng, 0, 2, "b")
        c, d = w(rng, 1, 2, "c"), w(rng, 0, 2, "d")
        f = _guard_box("f", a, ObjectExpr(), b, c, d, ObjectExpr())
        body = Box(f)
        lhs = mk_trace(ObjectExpr(), body, len(a), len(c))
        rhs = body
        claim = _claim(a, b, c, d)
        return AxiomInstance(axiom, index, {"f": f}, lhs, rhs, claim)

    if axiom == "vanishing2":
        a, b = w(rng, 0, 1, "a"), w(rng, 0, 1, "b")
        c, d = w(rng, 1, 1, "c"), w(rng, 0, 1, "d")
        u1, u2 = w(rng, 1, 1, "u"), w(rng, 1, 1, "v")
        f = _guard_box("f", a, u1 * u2, b, c, d, u1 * u2)
        lhs = mk_trace(u1 * u2, Box(f), len(a), len(c))
        inner = mk_trace(u2, Box(f), len(a) + 1, len(c))
        rhs = mk_trace(u1, inner, len(a), len(c))
        claim = _claim(a, b, c, d)
        return AxiomInstance(axiom, index, {"f": f}, lhs, rhs, claim)

    if axiom in ("sliding1", "sliding2", "sliding3"):
        if axiom == "sliding1":
            a, b = w(rng, 0, 1, "a"), w(rng, 0, 2, "b")
            c, d = w(rng, 1, 2, "c"), w(rng, 0, 1, "d")
        else:
            a, d = ObjectExpr(), ObjectExpr()
            b, c = w(rng, 0, 2, "b"), w(rng, 1, 2, "c")
        u, up = w(rng, 1, 1, "u"), w(rng, 1, 1, "v")
        if axiom == "sliding1":
            f = _guard_box("f", a, u, b, c, d, up)
            g = _plain_box("g", up, u)
        elif axiom == "sliding2":
            f = _plain_box("f", a * u * b, c * d * up)
            g = _promise_box("g", up, u)
        else:
            f = _guard_box("f", a, u, b, c, d, up)
            g = _promise_box("g", up, u)
        pre = [Id(a)] if len(a) else []
        pre += [Box(g)]
        pre += [Id(b)] if len(b) else []
        lhs_body = Comp(reduce(Tensor, pre), Box(f))
        lhs = mk_trace(up, lhs_body, len(a), len(c))
        post = [Id(c * d)] if len(c * d) else []
        post += [Box(g)]
        rhs_body = Comp(Box(f), reduce(Tensor, post))
        rhs = mk_trace(u, rhs_body, len(a), len(c))
        claim = _claim(a, b, c, d)
        return AxiomInstance(axiom, index, {"f": f, "g": g}, lhs, rhs, claim)

    if axiom == "superposing":
        a, b = w(rng, 0, 1, "a"), w(rng, 0, 1, "b")
        c, d = w(rng, 1, 1, "c"), w(rng, 0, 1, "d")
        u = w(rng, 1, 1, "u")
        a2, b2 = w(rng, 0, 1, "p"), w(rng, 0, 1, "q")
        c2, d2 = w(rng, 1, 1, "r"), w(rng, 0, 1, "s")
        f = _guard_box("f", a, u, b, c, d, u)
        g = BoxSig("g", a2 * b2, c2 * d2, _claim(a2, b2, c2, d2))
        atoms = {}
        for word, tag in [
            (a, "a"), (b, "b"), (c, "c"), (d, "d"), (u, "u"),
            (a2, "p"), (b2, "q"), (c2, "r"), (d2, "s"),
        ]:
            for i, atom in enumerate(word):
                atoms[(tag, i)] = atom
        la, lb, lc, ld, lu = (_labels(x, t) for x, t in
                              [(a, "a"), (b, "b"), (c, "c"), (d, "d"), (u, "u")])
        la2, lb2, lc2, ld2 = (_labels(x, t) for x, t in
                              [(a2, "p"), (b2, "q"), (c2, "r"), (d2, "s")])
        perm1 = _perm(atoms, la + la2 + lu + lb + lb2, la + lu + lb + la2 + lb2)
        perm2 = _perm(atoms, lc + ld + lu + lc2 + ld2, lc + lc2 + ld + ld2 + lu)
        body = Comp(Comp(perm1, Tensor(Box(f), Box(g))), perm2)
        lhs = mk_trace(u, body, len(a * a2), len(c * c2))
        perm3 = _perm(atoms, la + la2 + lb + lb2, la + lb + la2 + lb2)
        perm4 = _perm(atoms, lc + ld + lc2 + ld2, lc + lc2 + ld + ld2)
        traced_f = mk_trace(u, Box(f), len(a), len(c))
        rhs = Comp(Comp(perm3, Tensor(traced_f, Box(g))), perm4)
        claim = _claim(a * a2, b * b2, c * c2, d * d2)
        return AxiomInstance(axiom, index, {"f": f, "g": g}, lhs, rhs, claim)

    if axiom == "tightening":
        a, b = w(rng, 1, 1, "a"), w(rng, 1, 1, "b")
        c, d = w(rng, 1, 1, "c"), w(rng, 1, 1, "d")
        u = w(rng, 1, 1, "u")
        a2, b2 = w(rng, 1, 1, "p"), w(rng, 1, 1, "q")
        c2, d2 = w(rng, 1, 1, "r"), w(rng, 1, 1, "s")
        f = _guard_box("f", a, u, b, c, d, u)
        u1 = _plain_box("u1", a2, a)
        u2 = _plain_box("u2", b2, b)
        v1 = _plain_box("v1", c, c2)
        v2 = _plain_box("v2", d, d2)
        lhs_body = Comp(
            Comp(reduce(Tensor, [Box(u1), Id(u), Box(u2)]), Box(f)),
            reduce(Tensor, [Box(v1), Box(v2), Id(u)]),
        )
        lhs = mk_trace(u, lhs_body, len(a2), len(c2))
        rhs = Comp(
            Comp(Tensor(Box(u1), Box(u2)), mk_trace(u, Box(f), len(a), len(c))),
            Tensor(Box(v1), Box(v2)),
        )
        claim = _claim(a2, b2, c2, d2)
        sigs = {"f": f, "u1": u1, "u2": u2, "v1": v1, "v2": v2}
        return AxiomInstance(axiom, index, sigs, lhs, rhs, claim)

    if axiom == "yanking":
        a = w(rng, 1, 2, "a")
        wd = w(rng, 1, 1, "w")
        u = w(rng, 1, 1, "u")
        g = BoxSig("g", a, wd * u, _claim(a, UNIT, wd, u))
        body = Comp(
            Tensor(Box(g), Id(u)),
            reduce(Tensor, [Id(wd), Sym(u, u)]),
        )
        lhs = mk_trace(u, body, len(a), len(wd) + 1)
        rhs = Box(g)
        claim = _claim(a, UNIT, wd * u, UNIT)
        return AxiomInstance(axiom, index, {"g": g}, lhs, rhs, claim)

    raise AssertionError(axiom)


# --- per-model binding generation --------------------------------------------


def _finset_carriers(instance: AxiomInstance, rng, max_size: int) -> dict:
    carriers = {
        atom: tuple(f"{atom}_e{i}" for i in range(int(rng.integers(1, max_size + 1))))
        for atom in instance.atoms
    }
    # starve carriers that would force promised gates to receive data they
    # cannot legally pass on (the unit of a coproduct is empty)
    changed = True
    while changed:
        changed = False
        for sig in instance.sigs.values():
            live_out = [
                j for j in range(len(sig.outputs)) if carriers[sig.outputs[j]]
            ]
            live_unguarded = [j for j in live_out if j in sig.split.unguarded_out]
            for i in range(len(sig.inputs)):
                if not carriers[sig.inputs[i]]:
                    continue
                allowed = live_unguarded if i in sig.split.unguarded_in else live_out
                if not allowed:
                    carriers[sig.inputs[i]] = ()
                    changed = True
    return carriers


def finset_bindings(instance: AxiomInstance, rng, max_size: int = 3):
    carriers = _finset_carriers(instance, rng, max_size)
    model = FinSetModel(carriers)
    boxes = {}
    for name, sig in instance.sigs.items():
        dom = model.ob(sig.inputs)
        table = {}
        for g in range(len(dom)):
            live_out = [
                (j, e)
                for j in range(len(sig.outputs))
                for e in carriers[sig.outputs[j]]
                if g not in sig.split.unguarded_in or j in sig.split.unguarded_out
            ]
            for e in dom[g]:
                pick = live_out[int(rng.integers(0, len(live_out)))]
                table[(g, e)] = pick
        boxes[name] = FinSetMorphism(dom, model.ob(sig.outputs), table)
    return model, boxes


def metric_bindings(instance: AxiomInstance, rng, max_dim: int = 2):
    dims = {atom: int(rng.integers(1, max_dim + 1)) for atom in instance.atoms}
    model = MetricModel(dims)
    boxes = {}
    for name, sig in instance.sigs.items():
        in_dims = model.ob(sig.inputs)
        out_dims = model.ob(sig.outputs)
        total_in, total_out = sum(in_dims), sum(out_dims)
        weight = rng.normal(size=(total_out, total_in))
        in_ofs = np.cumsum((0,) + in_dims)
        out_ofs = np.cumsum((0,) + out_dims)
        n_ug = max(1, len(sig.split.unguarded_in))
        for i in range(len(in_dims)):
            for j in range(len(out_dims)):
                sub = weight[out_ofs[j] : out_ofs[j + 1], in_ofs[i] : in_ofs[i + 1]]
                if not sub.size:
                    continue
                norm = max(np.max(np.sum(np.abs(sub), axis=1)), 1e-9)
                if i in sig.split.unguarded_in and j in sig.split.guarded_out:
                    target = 0.7 / n_ug
                else:
                    target = 0.9
                sub *= target * float(rng.uniform(0.3, 1.0)) / norm
        offset = rng.uniform(-1.0, 1.0, size=total_out)
        boxes[name] = affine(in_dims, out_dims, weight, offset)
    return model, boxes


def _stage_object(rng, depth: int, max_size: int) -> StageObject:
    sizes = sorted(int(rng.integers(1, max_size + 1)) for _ in range(depth))
    stages = tuple(
        tuple(f"s{n}_{i}" for i in range(sizes[n])) for n in range(depth)
    )
    restr = []
    for n in range(depth - 1):
        hi, lo = list(stages[n + 1]), list(stages[n])
        targets = lo + [lo[int(rng.integers(0, len(lo)))] for _ in range(len(hi) - len(lo))]
        rng.shuffle(targets)
        restr.append(dict(zip(hi, targets)))
    return StageObject(stages, tuple(restr))


def _natural_component(rng, dom_gates, cod_gate, delayed_gates):
    """One output gate's stagewise tables, natural and (if requested)
    delayed on the given input gates."""
    depth = len(cod_gate.stages)

    def key(n: int, x: tuple):
        if not delayed_gates:
            return x
        out = []
        for g, v in enumerate(x):
            if g in delayed_gates:
                if n == 0:
                    continue
                out.append(dom_gates[g].restr[n - 1][v])
            else:
                out.append(v)
        return tuple(out)

    tables: list[dict] = []
    for n in range(depth):
        table = {}
        chosen: dict = {}
        for x in iproduct(*(g.stages[n] for g in dom_gates)):
            k = key(n, x)
            if k not in chosen:
                if n == 0:
                    chosen[k] = cod_gate.stages[0][
                        int(rng.integers(0, len(cod_gate.stages[0])))
                    ]
                else:
                    lo_x = tuple(
                        dom_gates[g].restr[n - 1][v] for g, v in enumerate(x)
                    )
                    fiber = cod_gate.fibers[n - 1][tables[n - 1][lo_x]]
                    chosen[k] = fiber[int(rng.integers(0, len(fiber)))]
            table[x] = chosen[k]
        tables.append(table)
    return tables


def tot_bindings(instance: AxiomInstance, rng, depth: int = 3, max_size: int = 2):
    objects = {atom: _stage_object(rng, depth, max_size) for atom in instance.atoms}
    model = ToposOfTreesModel(objects)
    boxes = {}
    for name, sig in instance.sigs.items():
        dom = model.ob(sig.inputs)
        cod = model.ob(sig.outputs)
        per_gate = []
        for j in range(len(cod)):
            delayed = sig.split.unguarded_in if j in sig.split.guarded_out else frozenset()
            per_gate.append(_natural_component(rng, dom, cod[j], delayed))
        boxes[name] = stagewise(
            dom, cod, lambda n, x: tuple(t[n][x] for t in per_gate), depth
        )
    return model, boxes


def hilbert_bindings(instance: AxiomInstance, rng, max_dim: int = 2):
    dims = {atom: int(rng.integers(1, max_dim + 1)) for atom in instance.atoms}
    model = HilbertModel(dims)
    boxes = {}
    for name, sig in instance.sigs.items():
        in_dims = model.ob(sig.inputs)
        out_dims = model.ob(sig.outputs)
        split = sig.split
        if split.unguarded_in and split.guarded_out:
            in_idx, out_idx, (da, db, dc, dd) = corner_perms(in_dims, out_dims, split)
            e_dim = int(rng.integers(1, 3))
            g = rng.normal(size=(e_dim * dd, db)) / np.sqrt(max(db, 1))
            h = rng.normal(size=(dc, da * e_dim)) / np.sqrt(max(da * e_dim, 1))
            grouped = kron(h, np.eye(dd)) @ kron(np.eye(da), g)
            mat = grouped[np.ix_(np.argsort(out_idx), np.argsort(in_idx))]
            boxes[name] = HilbertMorphism(
                in_dims, out_dims, mat, {"e_dim": e_dim, "g": g, "h": h}
            )
        else:
            mat = rng.normal(size=(math.prod(out_dims), math.prod(in_dims)))
            boxes[name] = HilbertMorphism(in_dims, out_dims, mat)
    return model, boxes


def flat_bindings(instance: AxiomInstance, rng, max_size: int = 3):
    objects = {
        atom: flat(
            tuple(f"{atom}_p{i}" for i in range(int(rng.integers(1, max_size + 1))))
        )
        for atom in instance.atoms
    }
    model = FlatPosetModel(objects)
    boxes = {}
    for name, sig in instance.sigs.items():
        dom = model.ob(sig.inputs)
        cod = model.ob(sig.outputs)
        elems = product_elements(dom)
        chosen: dict = {}
        table = {}
        for x in elems:
            key = tuple(v for g, v in enumerate(x) if g not in sig.split.unguarded_in)
            if key not in chosen:
                chosen[key] = tuple(
                    p.elements[int(rng.integers(0, len(p.elements)))]
                    for j, p in enumerate(cod)
                    if j in sig.split.guarded_out
                )
            guarded_vals = iter(chosen[key])
            free_vals = tuple(
                p.elements[int(rng.integers(0, len(p.elements)))] for p in cod
            )
            table[x] = tuple(
                next(guarded_vals) if j in sig.split.guarded_out else free_vals[j]
                for j in range(len(cod))
            )
        boxes[name] = PosetMorphism(dom, cod, table)
    return model, boxes


BINDING_GENERATORS = {
    "finset": finset_bindings,
    "metric": metric_bindings,
    "tot": tot_bindings,
    "hilbert": hilbert_bindings,
    "flat": flat_bindings,
}


def check_axiom(
    instance: AxiomInstance,
    model_name: str,
    seed: int,
    tol: float = 1e-9,
) -> dict:
    """Instantiate one instance in one model and compare both sides."""
    rng = np.random.default_rng(
        [seed, instance.index, AXIOMS.index(instance.axiom), MODEL_NAMES.index(model_name)]
    )
    gen = BINDING_GENERATORS[model_name]
    report = {
        "axiom": instance.axiom,
        "model": model_name,
        "seed": seed,
        "index": instance.index,
    }
    try:
        model, boxes = gen(instance, rng)
        if instance.failing_side is not None:
            raise EvalError(f"{instance.failing_side} fails its guardedness check")
        eval_tol = min(tol, 1e-9) * 1e-3
        checked: set[str] = set()  # both sides share the bindings: validate each once
        lhs = eval_expr(instance.lhs, model, boxes, tol=eval_tol, checked=checked)
        rhs = eval_expr(instance.rhs, model, boxes, tol=eval_tol, checked=checked)
        ok, dev = model.equal(lhs, rhs, tol=tol, rng=rng)
        report["verdict"] = "pass" if ok else "fail"
        report["max_dev"] = dev
    except EvalError as exc:
        raise EvalError(
            f"{instance.axiom}[{instance.index}] in {model_name}: {exc}"
        ) from exc
    return report


def run_axiom_suite(
    models=MODEL_NAMES,
    seeds=(0,),
    per_axiom: int = 50,
    tol: float = 1e-9,
) -> tuple[dict, list[dict]]:
    """The full grid: every axiom, ``per_axiom`` instances per seed, every
    model.  Returns (header, reports)."""
    header = {
        "kind": "axiom-suite",
        "models": list(models),
        "seeds": list(seeds),
        "per_axiom": per_axiom,
        "tol": tol,
        "note": REVIEW_NOTE,
    }
    reports = [
        check_axiom(inst, model_name, seed, tol)
        for seed in seeds
        for axiom in AXIOMS
        for inst in gen_axiom_instances(axiom, seed, per_axiom)
        for model_name in models
    ]
    reports.sort(key=lambda r: (r["seed"], r["axiom"], r["index"], r["model"]))
    return header, reports
