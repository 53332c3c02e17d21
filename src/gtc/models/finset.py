"""Finite sets with tagged disjoint unions (monoidal structure = coproduct).

A word denotes the disjoint union of its gates' carriers; an element is a
pair (gate, name).  A morphism is a total function table.  A split is
respected when elements entering at promised (unguarded) input gates land
in unpromised (unguarded) output gates: promised outputs are then
unreachable from the loop's point of view, so feedback resolves in at
most one replay around the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..signatures import BoxSig, ObjectExpr
from .base import EvalError, Model, json_array, trusted

Elem = tuple[int, str]  # (gate, element name)


@dataclass(frozen=True)
class FinSetMorphism:
    dom: tuple[tuple[str, ...], ...]  # per-gate carriers
    cod: tuple[tuple[str, ...], ...]
    table: dict

    def __post_init__(self) -> None:
        want = {(g, e) for g, c in enumerate(self.dom) for e in c}
        have = set(self.table)
        if want != have:
            raise EvalError("function table does not cover the domain exactly")
        for x, y in self.table.items():
            g, e = y
            if not (0 <= g < len(self.cod) and e in self.cod[g]):
                raise EvalError(f"table sends {x} outside the codomain: {y}")

    def __call__(self, x: Elem) -> Elem:
        return self.table[x]

    def __hash__(self):
        return hash((self.dom, self.cod, tuple(sorted(self.table.items()))))


class FinSetModel(Model):
    """Bindings JSON: objects ``{"A": ["a0", ...]}``; a box
    ``{"table": {"0:a0": "1:b0", ...}}``, keys and values "gate:element"."""

    name = "finset"

    def __init__(self, objects: dict[str, tuple[str, ...]]):
        self.objects = {k: tuple(v) for k, v in objects.items()}

    @classmethod
    def from_json(cls, objects: dict) -> FinSetModel:
        return cls({a: json_array(v, f"carrier for atom {a!r}") for a, v in objects.items()})

    def box_from_json(self, sig: BoxSig, spec: dict) -> FinSetMorphism:
        table = {_tag(k): _tag(v) for k, v in spec["table"].items()}
        return FinSetMorphism(self.ob(sig.inputs), self.ob(sig.outputs), table)

    def render(self, m: FinSetMorphism) -> dict:
        return {"table": {f"{g}:{e}": f"{g2}:{e2}" for (g, e), (g2, e2) in m.table.items()}}

    def apply(self, m: FinSetMorphism, point: dict) -> dict:
        gate, elem = point["gate"], point["elem"]
        out = m.table[(int(gate), elem)]
        return {"gate": out[0], "elem": out[1]}

    def identity(self, word: ObjectExpr) -> FinSetMorphism:
        dom = self.ob(word)
        return trusted(FinSetMorphism, dom, dom, {x: x for x in _elems(dom)})

    def symmetry(self, left: ObjectExpr, right: ObjectExpr) -> FinSetMorphism:
        dom = self.ob(left * right)
        cod = self.ob(right * left)
        k, m = len(left), len(right)
        table = {}
        for g, e in _elems(dom):
            table[(g, e)] = (g + m, e) if g < k else (g - k, e)
        return trusted(FinSetMorphism, dom, cod, table)

    def compose(self, f: FinSetMorphism, g: FinSetMorphism) -> FinSetMorphism:
        if f.cod != g.dom:
            raise EvalError("composition mismatch")
        return trusted(FinSetMorphism, f.dom, g.cod, {x: g.table[y] for x, y in f.table.items()})

    def tensor(self, f: FinSetMorphism, g: FinSetMorphism) -> FinSetMorphism:
        nf_in, nf_out = len(f.dom), len(f.cod)
        table = dict(f.table)
        for (gate, e), (gate2, e2) in g.table.items():
            table[(gate + nf_in, e)] = (gate2 + nf_out, e2)
        return trusted(FinSetMorphism, f.dom + g.dom, f.cod + g.cod, table)

    def trace(self, m: FinSetMorphism, loop, corners, tol=None) -> FinSetMorphism:
        a, b, c, d = corners
        k = len(loop)
        a_len, c_len, d_len = len(a), len(c), len(d)
        n_out = len(m.cod)
        dom = m.dom[:a_len] + m.dom[a_len + k :]
        cod = m.cod[: n_out - k]
        bound = sum(len(car) for car in m.dom[a_len : a_len + k]) + 1
        table = {}
        for gate, e in _elems(dom):
            inner = gate if gate < a_len else gate + k
            y = m.table[(inner, e)]
            steps = 0
            while y[0] >= n_out - k:
                steps += 1
                if steps > bound:
                    raise EvalError(
                        "feedback does not settle: some binding violates its split"
                    )
                y = m.table[(a_len + (y[0] - (n_out - k)), y[1])]
            table[(gate, e)] = y
        return trusted(FinSetMorphism, dom, cod, table)

    def validate_box(self, sig: BoxSig, m: FinSetMorphism) -> None:
        if m.dom != self.ob(sig.inputs) or m.cod != self.ob(sig.outputs):
            raise EvalError(f"binding for {sig.name!r} has the wrong carriers")
        for (g, e), (g2, _) in m.table.items():
            if g in sig.split.unguarded_in and g2 not in sig.split.unguarded_out:
                raise EvalError(
                    f"binding for {sig.name!r} sends unguarded input gate {g} "
                    f"into promised output gate {g2}"
                )

    equal = Model.equal  # in the class's own namespace, where bench/tracer.py wraps it


def _tag(s: str) -> Elem:
    gate, elem = s.split(":", 1)
    return int(gate), elem


def _elems(carriers: tuple[tuple[str, ...], ...]):
    for g, c in enumerate(carriers):
        for e in c:
            yield (g, e)


def finset_iter(f: FinSetMorphism) -> FinSetMorphism:
    """Strip the feedback summand off a morphism X -> Y + X whose image
    already avoids it; the result is the unique g with f = inl . g."""
    k = len(f.dom)
    if k == 0 or f.cod[len(f.cod) - k :] != f.dom:
        raise EvalError("iteration needs a morphism of shape X -> Y + X")
    n_y = len(f.cod) - k
    cod = f.cod[:n_y]
    table = {}
    for x, (g, e) in f.table.items():
        if g >= n_y:
            raise EvalError(f"not guarded: {x} lands in the feedback summand")
        table[x] = (g, e)
    return FinSetMorphism(f.dom, cod, table)
