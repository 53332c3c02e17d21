"""Turning guarded cyclic diagrams back into annotated traced expressions.

The loop mirrors the constructive argument: while the diagram is
cyclic, find a loop wire whose source box has no unguarded path from the
claimed unguarded inputs (not in V) and whose target box has no unguarded
path to the claimed guarded outputs (not in U), and cut it.  Each cut
removes a wire from a loop, so the loop terminates.  The acyclic rest is
read off as a trace-free expression by topological slicing, and each cut
is then closed with a trace node, the last cut innermost.
"""

from __future__ import annotations

from functools import reduce

from .diagrams import Diagram, Port
from .expressions import Comp, Id, MorphExpr, Sym, Tensor
from .expressions import Box as BoxNode
from .expressions import trace as mk_trace
from .guardedness import GeometricWitness, geometric_witness
from .signatures import ObjectExpr, Split, mk_split


class SynthesisError(ValueError):
    """A hypothesis fails; carries which one and a concrete witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


def synthesis_preconditions(d: Diagram, claim: Split) -> None:
    """Raise SynthesisError unless the diagram is ideally guarded, every
    loop is guarded, and every claimed-critical path is guarded."""
    for b, sig in enumerate(d.boxes):
        if sig.kind == "mixed":
            raise SynthesisError(
                f"box {b} ({sig.name}) is neither white nor black",
                witness={"box": b, "sig": str(sig)},
            )
    bad: GeometricWitness | None = geometric_witness(d, claim)
    if bad is not None:
        what = "unguarded loop" if bad.kind == "loop" else "unguarded critical path"
        raise SynthesisError(what, witness=bad.to_json())


def compute_uv(d: Diagram, claim: Split) -> tuple[frozenset[int], frozenset[int]]:
    """U: boxes with an unguarded path from their own inputs to a
    claimed-guarded output.  V: boxes whose outputs lie on an unguarded
    path from a claimed-unguarded input."""
    ix = d.index
    guarded, reach = claim.guarded_out_mask, ix.reach_out
    u_set = frozenset(
        b for b in range(len(d.boxes)) if any(reach[v] & guarded for v in ix.gates(b)[0])
    )
    seen = set(claim.unguarded_in)  # a boundary input's id is its position
    todo = list(seen)
    while todo:
        for q in ix.unguarded[todo.pop()]:
            if q not in seen:
                seen.add(q)
                todo.append(q)
    v_set = frozenset(b for b in range(len(d.boxes)) if not seen.isdisjoint(ix.gates(b)[1]))
    return u_set, v_set


def loop_wires(d: Diagram) -> list[tuple[Port, Port]]:
    """Wires lying on some directed cycle (box passages included): those
    whose two ends share a strongly connected component."""
    ix = d.index
    comp = ix.full_sccs[0]
    return [w for w, s, t in zip(ix.wires, ix.src, ix.dst) if comp[s] == comp[t]]


def find_cut_wire(
    d: Diagram, u_set: frozenset[int], v_set: frozenset[int]
) -> tuple[Port, Port]:
    """The lexicographically least loop wire from a box outside V into a
    box outside U."""
    candidates = [
        w
        for w in loop_wires(d)
        if w[0][1] not in v_set and w[1][1] not in u_set
    ]
    if not candidates:
        raise SynthesisError(
            "no loop wire avoids U and V; hypotheses do not hold",
            witness={"U": sorted(u_set), "V": sorted(v_set)},
        )
    return min(candidates, key=lambda w: (w[0][1], w[0][2]))


def cut_wire(
    d: Diagram, wire: tuple[Port, Port], claim: Split
) -> tuple[Diagram, Split]:
    """Open one wire into a fresh unguarded input and guarded output,
    appended at the end of the respective boundaries."""
    src, dst = wire
    atom = d.port_atom(src)
    n_in, n_out = len(d.boundary_in), len(d.boundary_out)
    wires = (d.wires - {wire}) | {
        (("din", n_in), dst),
        (src, ("dout", n_out)),
    }
    d2 = Diagram(
        d.boxes,
        frozenset(wires),
        d.boundary_in + ((atom, False),),
        d.boundary_out + ((atom, True),),
    )
    claim2 = mk_split(
        n_in + 1,
        n_out + 1,
        unguarded_in=set(claim.unguarded_in) | {n_in},
        guarded_out=set(claim.guarded_out) | {n_out},
    )
    return d2, claim2


# --- permutations as expressions ---------------------------------------------


def perm_to_expr(atoms: list[str], dest: list[int]) -> MorphExpr:
    """Expression with domain ``atoms`` whose output at position j is the
    input at position ``dest[j]``, realized as adjacent transpositions."""
    n = len(atoms)
    if sorted(dest) != list(range(n)):
        raise ValueError(f"not a permutation: {dest}")
    cur = list(range(n))
    cur_atoms = list(atoms)
    slices: list[MorphExpr] = []
    for pos in range(n):
        q = cur.index(dest[pos])
        while q > pos:
            pieces: list[MorphExpr] = []
            if q - 1 > 0:
                pieces.append(Id(ObjectExpr(tuple(cur_atoms[: q - 1]))))
            pieces.append(
                Sym(ObjectExpr((cur_atoms[q - 1],)), ObjectExpr((cur_atoms[q],)))
            )
            if q + 1 < n:
                pieces.append(Id(ObjectExpr(tuple(cur_atoms[q + 1 :]))))
            slices.append(reduce(Tensor, pieces))
            cur[q - 1], cur[q] = cur[q], cur[q - 1]
            cur_atoms[q - 1], cur_atoms[q] = cur_atoms[q], cur_atoms[q - 1]
            q -= 1
    if not slices:
        return Id(ObjectExpr(tuple(atoms)))
    return reduce(Comp, slices)


def loop_perms(
    dom_atoms: list[str],
    cod_atoms: list[str],
    i: int,
    j: int,
    corners: tuple[list[int], list[int], list[int], list[int]],
) -> tuple[MorphExpr, MorphExpr]:
    """The permutations around a body with loop input ``i`` and loop output
    ``j`` that bring it to trace shape ``A*U*B -> C*D*U``.

    ``corners`` holds the body's other gates as the A, B, C and D gate
    lists; the pre-permutation maps ``A*U*B`` onto the body's domain, the
    post-permutation its codomain onto ``C*D*U``.
    """
    a_gates, b_gates, c_gates, d_gates = corners
    canon_in = [dom_atoms[g] for g in a_gates] + [dom_atoms[i]] + [dom_atoms[g] for g in b_gates]
    src = {g: pos for pos, g in enumerate(a_gates)}
    src[i] = len(a_gates)
    src.update((g, len(a_gates) + 1 + pos) for pos, g in enumerate(b_gates))
    perm_pre = perm_to_expr(canon_in, [src[g] for g in range(len(dom_atoms))])
    perm_post = perm_to_expr(cod_atoms, c_gates + d_gates + [j])
    return perm_pre, perm_post


def _compose_opt(parts: list[MorphExpr]) -> MorphExpr:
    """``parts`` composed in order, identities dropped."""
    useful = [p for p in parts if not isinstance(p, Id)]
    return reduce(Comp, useful) if useful else parts[0]


# --- acyclic extraction -------------------------------------------------------


def acyclic_to_expr(d: Diagram) -> MorphExpr:
    """Read an acyclic diagram off as slices of boxes between explicit
    wire permutations."""
    if loop_wires(d):
        raise SynthesisError("diagram is cyclic", witness=None)

    # longest-path layering of the boxes: the full graph is acyclic, so its
    # components are single ports, closed sinks first
    ix = d.index
    ports, pred = ix.ports, dict(zip(ix.dst, ix.src))  # target id -> source id
    layer = [1] * len(d.boxes)
    for v in reversed(ix.full_sccs[1]):
        if ports[v][0] == "bin" and ports[pred[v]][0] == "bout":
            b = ports[v][1]
            layer[b] = max(layer[b], layer[ports[pred[v]][1]] + 1)
    by_level: dict[int, list[int]] = {}
    for b, lv in enumerate(layer):
        by_level.setdefault(lv, []).append(b)

    alive = list(range(len(d.boundary_in)))  # wires, each by its source's id
    parts: list[MorphExpr] = []

    def atoms(wires: list[int]) -> list[str]:
        return [d.port_atom(ports[w]) for w in wires]

    def rearrange(desired: list[int]) -> None:
        nonlocal alive
        if desired == alive:
            return
        index = {w: i for i, w in enumerate(alive)}
        parts.append(perm_to_expr(atoms(alive), [index[w] for w in desired]))
        alive = desired

    for lv in sorted(by_level):
        boxes = by_level[lv]
        needed = [pred[v] for b in boxes for v in ix.gates(b)[0]]
        needed_set = set(needed)
        rest = [w for w in alive if w not in needed_set]
        rearrange(needed + rest)
        pieces: list[MorphExpr] = [BoxNode(d.boxes[b]) for b in boxes]
        if rest:
            pieces.append(Id(ObjectExpr(tuple(atoms(rest)))))
        parts.append(reduce(Tensor, pieces))
        alive = [v for b in boxes for v in ix.gates(b)[1]] + rest

    rearrange([pred[ix.n_in + j] for j in range(ix.n_out)])
    if not parts:
        return Id(d.dom)
    return _compose_opt(parts)


# --- the main loop -------------------------------------------------------------


def synthesize(d: Diagram, claim: Split) -> MorphExpr:
    """Produce an annotated expression that checks under ``claim`` and
    elaborates back to ``d`` (up to diagram isomorphism)."""
    synthesis_preconditions(d, claim)
    cuts = []
    while loop_wires(d):
        u_set, v_set = compute_uv(d, claim)
        wire = find_cut_wire(d, u_set, v_set)
        cuts.append((d, claim, wire))
        d, claim = cut_wire(d, wire, claim)
    expr = acyclic_to_expr(d)
    for d, claim, wire in reversed(cuts):  # the last cut is the innermost trace
        expr = _retrace(d, claim, wire, expr)
    return expr


def _retrace(d: Diagram, claim: Split, wire: tuple[Port, Port], inner: MorphExpr) -> MorphExpr:
    """Close the loop of ``wire``, cut from ``d``, around ``inner``, the
    expression of the cut diagram."""
    atom = d.port_atom(wire[0])
    corners = claim.corner_gates()
    a_gates, b_gates, c_gates, d_gates = corners
    dom_atoms = [a for a, _ in d.boundary_in]
    cod_atoms = [a for a, _ in d.boundary_out]
    n_out = len(cod_atoms)

    # inner's boundary appends the fresh loop input and output to the
    # original one
    perm_pre, perm_post = loop_perms(
        dom_atoms + [atom], cod_atoms + [atom], len(dom_atoms), n_out, corners
    )
    body = _compose_opt([perm_pre, inner, perm_post])
    traced = mk_trace(ObjectExpr((atom,)), body, len(a_gates), len(c_gates))

    outer_pre = perm_to_expr(dom_atoms, a_gates + b_gates)
    out_pos = {g: pos for pos, g in enumerate(c_gates + d_gates)}
    outer_post = perm_to_expr(
        [cod_atoms[g] for g in c_gates] + [cod_atoms[g] for g in d_gates],
        [out_pos[g] for g in range(n_out)],
    )
    return _compose_opt([outer_pre, traced, outer_post])
