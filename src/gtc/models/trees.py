"""Stage-indexed finite sets (monoidal structure = product).

An object assigns each stage 1..N a finite set together with restriction
maps from each stage to the one below; all restrictions here are required
surjective so that stage-(n-1) values always have stage-n representatives.
A morphism is a stagewise family of maps commuting with the restrictions.

A split is respected when every promised (guarded) output runs one stage
behind the promised (unguarded) inputs: its stage-1 component ignores
them, and its stage-(n+1) component sees them only through the
restriction to stage n.  Feedback is then solved stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from types import NoneType

from ..signatures import BoxSig, Interned, ObjectExpr
from .base import EvalError, Model, json_array, trusted, untuple


_SERIALS = count()


class StageObject(Interned):
    """Stage sets with surjective restrictions.  Equal data gives one shared
    object (see ``Interned``), checked when it is first built; the word
    tables it owns leave with it."""

    __slots__ = ("stages", "restr", "section", "fibers", "_serial", "_words")
    __match_args__ = ("stages", "restr")
    stages: tuple[tuple[str, ...], ...]
    restr: tuple[dict, ...]  # restr[n]: stage n+2 -> stage n+1

    def __new__(cls, stages, restr) -> StageObject:
        stages = tuple(map(tuple, stages))
        restr = tuple(map(dict, restr))
        key = (stages, tuple(frozenset(r.items()) for r in restr))
        shared = cls._table.get(key, NoneType)()
        if shared is not None:
            return shared
        if len(restr) != len(stages) - 1:
            raise EvalError("need exactly one restriction per adjacent stage pair")
        for n, r in enumerate(restr):
            hi, lo = stages[n + 1], stages[n]
            if set(r) != set(hi):
                raise EvalError(f"restriction {n} does not cover stage {n + 2}")
            if not set(r.values()) <= set(lo):
                raise EvalError(f"restriction {n} leaves stage {n + 1}")
            if set(r.values()) != set(lo):
                raise EvalError(f"restriction {n} is not surjective")
        if any(len(s) == 0 for s in stages):
            raise EvalError("empty stage sets are not supported")
        for n, s in enumerate(stages):
            if len(set(s)) != len(s):
                raise EvalError(f"duplicate elements in stage {n + 1}")
        # section[n]: each stage-(n+1) element to its first preimage at
        # stage n+2, in stage order; fibers[n]: to all its preimages, in
        # the order of restr[n]
        section, fibers = [], []
        for n, r in enumerate(restr):
            first: dict = {}
            for e in stages[n + 1]:
                first.setdefault(r[e], e)
            section.append(first)
            fiber: dict = {}
            for e, v in r.items():
                fiber.setdefault(v, []).append(e)
            fibers.append({v: tuple(es) for v, es in fiber.items()})
        # _words: tables of the words this object starts, keyed by the
        # serials of the rest of the word; serials, not objects, so no word
        # keeps a carrier alive or forms a cycle through it
        return cls._intern(
            key, stages, restr, tuple(section), tuple(fibers), next(_SERIALS), {}
        )


def _word(gates: tuple[StageObject, ...], depth: int) -> tuple[dict, ...]:
    """The tables of a word of stage objects: ``word[n]`` maps each
    stage-(n+1) tuple, in product order, to its restriction to stage n (to
    None at stage 1).  Built on first use and kept by the word's first gate;
    the unit word has no owner, and ``depth`` sizes it and nothing else."""
    if gates:
        owner = gates[0]._words
        key = tuple(g._serial for g in gates[1:])
        word = owner.get(key)
        if word is not None:
            return word
        depths = {len(g.stages) for g in gates}
        if len(depths) > 1:
            raise EvalError("all carriers must use the same stage count")
        depth = depths.pop()
    word = [dict.fromkeys(product(*(g.stages[0] for g in gates)))][:depth]
    for n in range(1, depth):
        # restricting gate by gate lists the restricted tuples in the same
        # product order as the tuples themselves
        points = product(*(g.stages[n] for g in gates))
        down = product(*([g.restr[n - 1][v] for v in g.stages[n]] for g in gates))
        word.append(dict(zip(points, down)))
    word = tuple(word)
    return owner.setdefault(key, word) if gates else word


def stagewise(dom: tuple, cod: tuple, fn, depth: int) -> ToTMorphism:
    """The morphism ``dom -> cod`` between words of stage objects whose
    stage-(n+1) map sends each domain point ``x``, in product order, to
    ``fn(n, x)``; ``depth`` sizes the unit word, as for ``_word``."""
    maps = tuple({x: fn(n, x) for x in xs} for n, xs in enumerate(_word(dom, depth)))
    return ToTMorphism(dom, cod, maps)


@dataclass(frozen=True)
class ToTMorphism:
    dom: tuple[StageObject, ...]
    cod: tuple[StageObject, ...]
    maps: tuple[dict, ...]  # maps[n]: stage-(n+1) tuples -> tuples

    def __post_init__(self) -> None:
        depth = len(self.maps)
        dom, cod = _word(self.dom, depth), _word(self.cod, depth)
        if not len(dom) == len(cod) == depth:
            raise EvalError("need one stage map per carrier stage")
        for n in range(depth):
            if self.maps[n].keys() != dom[n].keys():
                raise EvalError(f"stage {n + 1} map does not cover its domain")
        for n in range(depth):
            if not set(self.maps[n].values()) <= cod[n].keys():
                raise EvalError(f"stage {n + 1} map leaves the codomain")
        for n in range(1, depth):
            hi, lo, down = self.maps[n], self.maps[n - 1], dom[n]
            # restrict each point's image, and map each point's restriction
            lhs = list(map(cod[n].__getitem__, map(hi.__getitem__, down)))
            if lhs != list(map(lo.__getitem__, down.values())):
                x = next(x for x, y in zip(down, lhs) if y != lo[down[x]])
                raise EvalError(f"naturality fails between stages {n + 1} and {n} at {x}")


class ToposOfTreesModel(Model):
    """Bindings JSON: objects ``{"X": {"stages": [["x0"], ...],
    "restrictions": [{...}, ...]}}``; a box ``{"stages": [{"x0|y0":
    "z0|w0", ...}, ...]}``, one map per stage, tuple entries joined by "|"
    (the empty tuple is "")."""

    name = "tot"

    def __init__(self, objects: dict[str, StageObject]):
        depths = {len(o.stages) for o in objects.values()}
        if len(depths) > 1:
            raise EvalError("all carriers must use the same stage count")
        self.depth = depths.pop() if depths else 1
        self.objects = dict(objects)

    @classmethod
    def from_json(cls, objects: dict) -> ToposOfTreesModel:
        objs = {}
        for atom, spec in objects.items():
            what = f"stages for atom {atom!r}"
            stages = [json_array(s, what) for s in json_array(spec["stages"], what)]
            restr = json_array(spec.get("restrictions", []), f"restrictions for atom {atom!r}")
            objs[atom] = StageObject(stages, restr)  # which makes the tuples and dicts
        return cls(objs)

    def box_from_json(self, sig: BoxSig, spec: dict) -> ToTMorphism:
        maps = tuple(
            {untuple(k): untuple(v) for k, v in stage.items()} for stage in spec["stages"]
        )
        return ToTMorphism(self.ob(sig.inputs), self.ob(sig.outputs), maps)

    def render(self, m: ToTMorphism) -> dict:
        return {
            "stages": [{"|".join(k): "|".join(v) for k, v in stage.items()} for stage in m.maps]
        }

    def apply(self, m: ToTMorphism, point: dict) -> dict:
        stages = [untuple(s) for s in point["stages"]]
        out = [m.maps[n][stages[n]] for n in range(len(m.maps))]
        return {"stages": ["|".join(t) for t in out]}

    def identity(self, word: ObjectExpr) -> ToTMorphism:
        dom = self.ob(word)
        maps = tuple({x: x for x in xs} for xs in _word(dom, self.depth))
        return trusted(ToTMorphism, dom, dom, maps)

    def symmetry(self, left: ObjectExpr, right: ObjectExpr) -> ToTMorphism:
        dom = self.ob(left * right)
        cod = self.ob(right * left)
        k = len(left)
        maps = tuple({x: x[k:] + x[:k] for x in xs} for xs in _word(dom, self.depth))
        return trusted(ToTMorphism, dom, cod, maps)

    def compose(self, f: ToTMorphism, g: ToTMorphism) -> ToTMorphism:
        if f.cod != g.dom:
            raise EvalError("composition mismatch")
        _same_depth(f, g)
        maps = tuple(
            {x: gm[y] for x, y in fm.items()} for fm, gm in zip(f.maps, g.maps)
        )
        return trusted(ToTMorphism, f.dom, g.cod, maps)

    def tensor(self, f: ToTMorphism, g: ToTMorphism) -> ToTMorphism:
        _same_depth(f, g)
        ni = len(f.dom)
        dom = f.dom + g.dom
        maps = tuple(
            {x: fm[x[:ni]] + gm[x[ni:]] for x in xs}
            for fm, gm, xs in zip(f.maps, g.maps, _word(dom, len(f.maps)))
        )
        return trusted(ToTMorphism, dom, f.cod + g.cod, maps)

    def trace(self, m: ToTMorphism, loop, corners, tol=None) -> ToTMorphism:
        a, b, c, d = corners
        n_a, n_cd, k = len(a), len(c) + len(d), len(loop)
        dom = m.dom[:n_a] + m.dom[n_a + k :]
        cod = m.cod[:n_cd]
        loops = m.dom[n_a : n_a + k]

        # stage by stage: the loop value u at a point is the body's loop
        # output when fed the first preimage of u at the point's restriction
        # (any element at stage 1); the body is delayed on the loop, so the
        # choice of preimage does not matter and u must settle
        maps = []
        u_below: dict = {}
        for n, (body, down) in enumerate(zip(m.maps, _word(dom, len(m.maps)))):
            table, u_here = {}, {}
            for x in down:
                if n == 0:
                    z = tuple(g.stages[0][0] for g in loops)
                else:
                    u = u_below[down[x]]
                    z = tuple(g.section[n - 1][uv] for g, uv in zip(loops, u))
                xa, xb = x[:n_a], x[n_a:]
                u = body[xa + z + xb][n_cd:]
                y = body[xa + u + xb]
                if y[n_cd:] != u:
                    raise EvalError(
                        "feedback does not settle stagewise: a binding is not "
                        "actually delayed on its promised gates"
                    )
                table[x], u_here[x] = y[:n_cd], u
            maps.append(table)
            u_below = u_here
        return trusted(ToTMorphism, dom, cod, tuple(maps))

    def validate_box(self, sig: BoxSig, m: ToTMorphism) -> None:
        if m.dom != self.ob(sig.inputs) or m.cod != self.ob(sig.outputs):
            raise EvalError(f"binding for {sig.name!r} has the wrong carriers")
        if len(m.maps) != self.depth:
            raise EvalError(f"binding for {sig.name!r} needs {self.depth} stage maps")
        ug_in = sorted(sig.split.unguarded_in)
        g_out = sorted(sig.split.guarded_out)
        if not g_out or not ug_in:
            return
        for n in range(len(m.maps)):
            buckets: dict[tuple, tuple] = {}
            for x, y in m.maps[n].items():
                if n == 0:
                    key = tuple(v for g, v in enumerate(x) if g not in sig.split.unguarded_in)
                else:
                    key = tuple(
                        m.dom[g].restr[n - 1][v] if g in sig.split.unguarded_in else v
                        for g, v in enumerate(x)
                    )
                out = tuple(y[j] for j in g_out)
                if buckets.setdefault(key, out) != out:
                    raise EvalError(
                        f"binding for {sig.name!r} is not delayed on its promised "
                        f"outputs at stage {n + 1}"
                    )

    equal = Model.equal  # in the class's own namespace, where bench/tracer.py wraps it


def _same_depth(f: ToTMorphism, g: ToTMorphism) -> None:
    """Operands between unit words carry their stage count only in their
    maps; a result must have one map per stage of its carriers."""
    if len(f.maps) != len(g.maps):
        raise EvalError("need one stage map per carrier stage")


def tot_fixpoint(f: ToTMorphism, witness: tuple[dict, ...], y: list[tuple]):
    """Solve x = f(y, x) stage by stage for f: Y x X -> X with a delayed
    witness g: the stage-1 value ignores x, later stages read the previous
    stage's x.

    ``witness[n]`` maps (y stage-(n+1) tuple, previous x or "*") to x;
    ``y`` is a compatible family of stage tuples for the parameter gates.
    Returns the x family and asserts the fixpoint property.
    """
    depth = len(f.maps)
    if len(f.cod) != 1 or f.dom[-1] != f.cod[0]:
        raise EvalError("fixpoint needs a morphism of shape Y x X -> X")
    ys = [tuple(v) for v in y]
    if len(ys) != depth:
        raise EvalError("parameter family must cover every stage")
    xs: list = []
    for n in range(depth):
        prev = xs[n - 1] if n else "*"
        try:
            xs.append(witness[n][(ys[n], prev)])
        except KeyError:
            raise EvalError("witness does not cover the needed arguments") from None
    for n in range(depth):
        if f.maps[n][ys[n] + (xs[n],)] != (xs[n],):
            raise EvalError("witness disagrees with the morphism: not a fixpoint")
    return xs
