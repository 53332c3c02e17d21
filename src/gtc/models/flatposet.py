"""Finite posets and monotone maps (monoidal structure = product).

Expression evaluation uses flat (discrete) carriers, where a split is
respected exactly when every promised output is constant in the promised
inputs; feedback then settles in one step.  The recursion bridge between
plain least-fixpoint recursion on pointed carriers and guarded recursion
on lifted arguments lives here too: ``grec_to_rec`` and ``rec_to_grec``
transport one operator into the other and are mutually inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import NoneType

from ..signatures import BoxSig, Interned, ObjectExpr
from .base import EvalError, Model, json_array, trusted, untuple


class Poset(Interned):
    """A finite poset.  Equal data gives one shared object (see
    ``Interned``), validated when it is first built, with everything derived
    from it (up-sets, bottom, flatness, lift) stored on it."""

    __slots__ = ("elements", "leq", "up", "is_flat", "_bottom", "_lift")
    __match_args__ = ("elements", "leq")
    elements: tuple[str, ...]
    leq: frozenset  # all pairs (a, b) with a <= b, reflexivity included

    def __new__(cls, elements: tuple[str, ...], leq: frozenset) -> Poset:
        key = (tuple(elements), frozenset(leq))
        shared = cls._table.get(key, NoneType)()
        if shared is not None:
            return shared
        elements, leq = key
        # up[a]: the elements above a, from which the order is checked
        up = {a: set() for a in elements}
        if len(up) != len(elements):
            raise EvalError("duplicate poset elements")
        for a, b in leq:
            if a not in up or b not in up:
                raise EvalError(f"order pair ({a}, {b}) uses unknown elements")
            up[a].add(b)
        for a in elements:
            if a not in up[a]:
                raise EvalError(f"order not reflexive at {a}")
        for a, b in leq:
            if not up[b] <= up[a]:
                raise EvalError("order not transitive")
            if a != b and a in up[b]:
                raise EvalError("order not antisymmetric")
        up = {a: frozenset(s) for a, s in up.items()}
        bottom = next((a for a in elements if len(up[a]) == len(elements)), None)
        return cls._insert(key, elements, leq, up, all(a == b for a, b in leq), bottom, None)

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def bottom(self) -> str | None:
        return self._bottom


def flat(elements) -> Poset:
    elements = tuple(elements)
    return Poset(elements, frozenset((a, a) for a in elements))


def lift(p: Poset) -> tuple[Poset, str]:
    """Adjoin a fresh bottom; returns (lifted poset, bottom's name).
    Built once per poset and kept on it."""
    if p._lift is None:
        bot = "_BOT"
        while bot in p.up:
            bot += "_"
        leq = p.leq | {(bot, e) for e in p.elements} | {(bot, bot)}
        object.__setattr__(p, "_lift", (Poset((bot,) + p.elements, leq), bot))
    return p._lift


def product_elements(posets: tuple[Poset, ...]) -> list[tuple]:
    return list(product(*(p.elements for p in posets)))


def is_monotone(table: dict, dom: tuple[Poset, ...], cod: tuple[Poset, ...]) -> bool:
    """x <= y implies table[x] <= table[y], componentwise; each x meets
    only the y in the product of its components' up-sets."""
    for x in product(*(p.elements for p in dom)):
        fx = table[x]
        for y in product(*(p.up[a] for p, a in zip(dom, x))):
            if not all(v in q.up[u] for q, u, v in zip(cod, fx, table[y])):
                return False
    return True


@dataclass(frozen=True)
class PosetMorphism:
    dom: tuple[Poset, ...]
    cod: tuple[Poset, ...]
    table: dict

    def __post_init__(self) -> None:
        if set(self.table) != set(product(*(p.elements for p in self.dom))):
            raise EvalError("table does not cover the domain")
        out_elems = set(product(*(p.elements for p in self.cod)))
        for y in self.table.values():
            if y not in out_elems:
                raise EvalError("table leaves the codomain")
        if not is_monotone(self.table, self.dom, self.cod):
            raise EvalError("table is not monotone")


class FlatPosetModel(Model):
    """Bindings JSON: objects ``{"X": {"elements": ["p", ...]}}``; a box
    ``{"table": {"p|q": "r", ...}}``, tuple entries joined by "|" (the
    empty tuple is "")."""

    name = "flat"

    def __init__(self, objects: dict[str, Poset]):
        for name, p in objects.items():
            if not p.is_flat:
                raise EvalError(
                    f"carrier for {name!r} is not flat; expression evaluation "
                    f"uses discrete carriers only"
                )
        self.objects = dict(objects)

    @classmethod
    def from_json(cls, objects: dict) -> FlatPosetModel:
        elements = {a: spec["elements"] for a, spec in objects.items()}
        return cls({a: flat(json_array(e, f"elements for atom {a!r}")) for a, e in elements.items()})

    def box_from_json(self, sig: BoxSig, spec: dict) -> PosetMorphism:
        table = {untuple(k): untuple(v) for k, v in spec["table"].items()}
        return PosetMorphism(self.ob(sig.inputs), self.ob(sig.outputs), table)

    def render(self, m: PosetMorphism) -> dict:
        return {"table": {"|".join(k): "|".join(v) for k, v in m.table.items()}}

    def apply(self, m: PosetMorphism, point: dict) -> dict:
        return {"elems": "|".join(m.table[untuple(point["elems"])])}

    def identity(self, word: ObjectExpr) -> PosetMorphism:
        dom = self.ob(word)
        elems = product_elements(dom)
        return trusted(PosetMorphism, dom, dom, {x: x for x in elems})

    def symmetry(self, left: ObjectExpr, right: ObjectExpr) -> PosetMorphism:
        dom = self.ob(left * right)
        cod = self.ob(right * left)
        k = len(left)
        elems = product_elements(dom)
        return trusted(PosetMorphism, dom, cod, {x: x[k:] + x[:k] for x in elems})

    def compose(self, f: PosetMorphism, g: PosetMorphism) -> PosetMorphism:
        if f.cod != g.dom:
            raise EvalError("composition mismatch")
        return trusted(PosetMorphism, f.dom, g.cod, {x: g.table[y] for x, y in f.table.items()})

    def tensor(self, f: PosetMorphism, g: PosetMorphism) -> PosetMorphism:
        ni = len(f.dom)
        elems = product_elements(f.dom + g.dom)
        table = {x: f.table[x[:ni]] + g.table[x[ni:]] for x in elems}
        return trusted(PosetMorphism, f.dom + g.dom, f.cod + g.cod, table)

    def trace(self, m: PosetMorphism, loop, corners, tol=None) -> PosetMorphism:
        a, b, c, d = corners
        n_a, n_cd, k = len(a), len(c) + len(d), len(loop)
        dom = m.dom[:n_a] + m.dom[n_a + k :]
        cod = m.cod[:n_cd]
        loops = m.dom[n_a : n_a + k]
        for p in loops:
            if not p.elements:
                raise EvalError("empty loop carrier")
        fill = tuple(p.elements[0] for p in loops)
        elems = product_elements(dom)
        table = {}
        for x in elems:
            xa, xb = x[:n_a], x[n_a:]
            u = m.table[xa + fill + xb][n_cd:]
            y = m.table[xa + u + xb]
            if y[n_cd:] != u:
                raise EvalError(
                    "feedback does not settle: a binding is not constant on its "
                    "promised gates"
                )
            table[x] = y[:n_cd]
        return trusted(PosetMorphism, dom, cod, table)

    def validate_box(self, sig: BoxSig, m: PosetMorphism) -> None:
        if m.dom != self.ob(sig.inputs) or m.cod != self.ob(sig.outputs):
            raise EvalError(f"binding for {sig.name!r} has the wrong carriers")
        g_out = sorted(sig.split.guarded_out)
        if not g_out or not sig.split.unguarded_in:
            return
        buckets: dict[tuple, tuple] = {}
        for x, y in m.table.items():
            key = tuple(v for g, v in enumerate(x) if g not in sig.split.unguarded_in)
            out = tuple(y[j] for j in g_out)
            if buckets.setdefault(key, out) != out:
                raise EvalError(
                    f"binding for {sig.name!r} is not constant in its promised "
                    f"inputs on promised outputs"
                )

    equal = Model.equal  # in the class's own namespace, where bench/tracer.py wraps it


# --- recursion bridge ---------------------------------------------------------


def lfp_rec(f: dict, b_poset: Poset, a_poset: Poset) -> dict:
    """Least-fixpoint recursion: for f: B x A -> A monotone with A
    pointed, iterate from the bottom until stable."""
    bot = a_poset.bottom()
    if bot is None:
        raise EvalError("recursion needs a pointed carrier")
    out = {}
    for bv in b_poset.elements:
        x = bot
        for _ in range(len(a_poset.elements) + 1):
            nxt = f[(bv, x)]
            if nxt == x:
                break
            if not a_poset.le(x, nxt):
                raise EvalError("iteration left the ascending chain; f not monotone?")
            x = nxt
        else:
            raise EvalError("no fixpoint within the carrier height")
        out[bv] = x
    return out


def rec_to_grec(rec):
    """Transport a recursion operator to a guarded one: given the witness
    g: Y x TX -> X of a guarded map f = g(id x eta), solve z = eta g(y, z)
    over the lifted carrier by ``rec``, then finish with one g step.

    Witness tables index the lifted carrier by ``lift(x_poset)`` names.
    The returned operator keeps the key set of Y x TX for each pair of
    carriers it has seen.
    """
    covers: dict = {}

    def grec(g: dict, y_poset: Poset, x_poset: Poset) -> dict:
        tx, _ = lift(x_poset)
        want = covers.get((y_poset, tx))
        if want is None:
            want = covers[y_poset, tx] = {(yv, z) for yv in y_poset.elements for z in tx.elements}
        if g.keys() != want:
            raise EvalError("witness table does not cover Y x TX")
        # eta injects by name, so eta . g reuses the same table over TX
        z_star = rec(dict(g), y_poset, tx)
        return {yv: g[(yv, z_star[yv])] for yv in y_poset.elements}

    return grec


def grec_to_rec(grec):
    """Transport a guarded operator back: for f: B x A -> A over pointed A,
    recurse the lifted map eta f (id x alg) through ``grec`` and collapse
    with the algebra."""

    def rec(f: dict, b_poset: Poset, a_poset: Poset) -> dict:
        bot_a = a_poset.bottom()
        if bot_a is None:
            raise EvalError("recursion needs a pointed carrier")
        ta, bot = lift(a_poset)
        tta, bot2 = lift(ta)
        # the structure map alg: TA -> A sends bot to bot_a and fixes the
        # rest; alg2 = alg . T alg: TTA -> A also sends bot2 to bot_a
        alg2 = [(w, bot_a if w == bot or w == bot2 else w) for w in tta.elements]
        g = {(bv, w): f[(bv, a)] for bv in b_poset.elements for w, a in alg2}
        z = grec(g, b_poset, ta)
        return {bv: bot_a if z[bv] == bot else z[bv] for bv in b_poset.elements}

    return rec
