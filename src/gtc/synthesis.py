"""Turning guarded cyclic diagrams back into annotated traced expressions.

The loop mirrors the constructive argument: while the diagram is
cyclic, find a loop wire whose source box has no unguarded path from the
claimed unguarded inputs (not in V) and whose target box has no unguarded
path to the claimed guarded outputs (not in U), and cut it.  Each cut
removes a wire from a loop, so the loop terminates.  The acyclic rest is
read off as a trace-free expression by topological slicing, and each cut
is then closed with a trace node, the last cut innermost.

``synthesize`` makes every cut on the input diagram's one index (see
``_cuts``); ``compute_uv``, ``find_cut_wire`` and ``cut_wire`` answer the
same questions for one diagram at a time.
"""

from __future__ import annotations

from functools import reduce

from .diagrams import Diagram, DiagramError, DiagramIndex, Port, tarjan
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
    comp, ports, peer = ix.full_sccs[0], ix.ports, ix.peer
    return [(ports[s], ports[peer[s]]) for s in ix.sources if comp[s] == comp[peer[s]]]


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
    ids = {p: v for v, p in enumerate(d.index.ports)}
    s, t = (ids.get(p) for p in wire)
    if s is None or d.index.peer[s] != t:
        raise DiagramError(f"wire {wire[0]} -> {wire[1]} is not in the diagram")
    d2 = _opened(d, [(s, t)])
    n_in, n_out = len(d.boundary_in), len(d.boundary_out)
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
    cur = list(range(n))  # the input now at each position
    where = list(range(n))  # the position of each input
    cur_atoms = list(atoms)
    slices: list[MorphExpr] = []
    for pos in range(n):
        q = where[dest[pos]]
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
            where[cur[q - 1]], where[cur[q]] = q - 1, q
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
    if not d.index.full_acyclic:
        raise SynthesisError("diagram is cyclic", witness=None)

    # longest-path layering of the boxes: the full graph is acyclic, so its
    # components are single ports, closed sinks first
    ix = d.index
    pred = ix.peer  # a target id's source id
    # per id, the box whose input (output) gate it is, else -1; per source
    # id, its atom
    in_box, out_box = [-1] * ix.n_ports, [-1] * ix.n_ports
    atom = [a for a, _ in d.boundary_in] + [""] * (ix.n_ports - ix.n_in)
    for b, sig in enumerate(d.boxes):
        ins, outs = ix.gates(b)
        in_box[ins.start : ins.stop] = [b] * len(ins)
        out_box[outs.start : outs.stop] = [b] * len(outs)
        atom[outs.start : outs.stop] = sig.outputs.factors
    layer = [1] * len(d.boxes)
    for v in reversed(ix.full_sccs[1]):
        b, b_src = in_box[v], out_box[pred[v]]
        if b >= 0 and b_src >= 0:
            layer[b] = max(layer[b], layer[b_src] + 1)
    by_level: dict[int, list[int]] = {}
    for b, lv in enumerate(layer):
        by_level.setdefault(lv, []).append(b)

    alive = list(range(len(d.boundary_in)))  # wires, each by its source's id
    parts: list[MorphExpr] = []

    def atoms(wires: list[int]) -> list[str]:
        return [atom[w] for w in wires]

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
    if d.index.full_acyclic:
        return acyclic_to_expr(d)
    cuts = _cuts(d, claim)
    opened = _opened(d, cuts)
    expr = acyclic_to_expr(opened)
    n_in, n_out = len(d.boundary_in), len(d.boundary_out)
    dom = [a for a, _ in opened.boundary_in]
    cod = [a for a, _ in opened.boundary_out]
    atoms = dom[n_in:]
    a_gates, b_gates, c_gates, d_gates = claim.corner_gates()
    for k in reversed(range(len(cuts))):  # the last cut is the innermost trace
        # before cut k, the k earlier cuts' loop inputs and outputs are
        # claimed unguarded and guarded
        corners = (
            a_gates + list(range(n_in, n_in + k)),
            b_gates,
            c_gates,
            d_gates + list(range(n_out, n_out + k)),
        )
        expr = _retrace(dom[: n_in + k], cod[: n_out + k], corners, atoms[k], expr)
    return expr


def _opened(d: Diagram, cuts: list[tuple[int, int]]) -> Diagram:
    """``d`` with cut wire ``k``, ``(s, t)`` by the ids of its ends, opened
    into a new unguarded input ``n_in + k`` that drives ``t`` and a new
    guarded output ``n_out + k`` that ``s`` drives.  The new ports move
    the outputs' ids up by ``len(cuts)`` and the boxes' by twice that,
    and the targets are re-pointed: nothing is checked again."""
    ix, k = d.index, len(cuts)
    n_in, n_out = ix.n_in, ix.n_out
    m = n_in + n_out

    def move(v: int) -> int:
        return v if v < n_in else v + k if v < m else v + 2 * k

    peer = [move(w) for w in ix.peer]
    peer[m:m] = range(k)  # the new outputs, filled below
    peer[n_in:n_in] = range(k)  # the new inputs
    for c, (s, t) in enumerate(cuts):
        s, t, i, j = move(s), move(t), n_in + c, m + k + c
        peer[i], peer[t], peer[s], peer[j] = t, i, j, s
    base = [v + 2 * k for v in ix.base]
    atoms = [d.port_atom(ix.ports[s]) for s, _ in cuts]
    return Diagram._of(
        d.boxes,
        d.boundary_in + tuple((a, False) for a in atoms),
        d.boundary_out + tuple((a, True) for a in atoms),
        DiagramIndex(ix.boxes, n_in + k, n_out + k, base, peer),
    )


def _cuts(d: Diagram, claim: Split) -> list[tuple[int, int]]:
    """The wires that ``find_cut_wire`` picks, one cut after another, until
    no loop is left: the ids of their ends, all read off ``d``'s index.

    A cut adds no candidate: deleting a wire makes no new loop, and U and
    V only grow, since a path through the cut wire now ends at its new
    guarded output or starts at its new unguarded input.  So the
    candidates are walked once in order, U grows by a backward and V by a
    forward unguarded search from the cut wire's ends, and only the
    component that held the wire is split again."""
    ix = d.index
    ports, succ, n = ix.ports, list(ix.full), ix.n_ports
    pred: list = [[] for _ in range(n)]  # unguarded predecessors
    for v, ws in enumerate(ix.unguarded):
        for w in ws:
            pred[w].append(v)
    u_set: set[int] = set()
    v_set: set[int] = set()
    # ports with an unguarded path to a claimed-guarded output, from a
    # claimed-unguarded input
    to_out, from_in = bytearray(n), bytearray(n)

    def grow(starts, adj, seen: bytearray, kind: str, boxes: set[int]) -> None:
        todo = [v for v in starts if not seen[v]]
        for v in todo:
            seen[v] = 1
        while todo:
            v = todo.pop()
            if ports[v][0] == kind:
                boxes.add(ports[v][1])
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    todo.append(w)

    grow([ix.n_in + j for j in claim.guarded_out], pred, to_out, "bin", u_set)
    grow(claim.unguarded_in, ix.unguarded, from_in, "bout", v_set)  # an input's id is its position

    comp = list(ix.full_sccs[0])
    n_comps = max(comp) + 1
    cyclic: dict[int, list[int]] = {}  # the components that hold a loop
    for v, c in enumerate(comp):
        cyclic.setdefault(c, []).append(v)
    cyclic = {c: vs for c, vs in cyclic.items() if len(vs) > 1}
    peer = ix.peer
    # a loop wire leaves an output gate, and ids follow (box, gate) order
    candidates = [s for s in ix.sources if comp[s] == comp[peer[s]]]
    cuts: list[tuple[int, int]] = []
    at = 0
    while cyclic:
        while at < len(candidates):
            s = candidates[at]
            t = peer[s]
            if comp[s] == comp[t] and ports[s][1] not in v_set and ports[t][1] not in u_set:
                break
            at += 1
        else:
            raise SynthesisError(
                "no loop wire avoids U and V; hypotheses do not hold",
                witness={"U": sorted(u_set), "V": sorted(v_set)},
            )
        at += 1
        cuts.append((s, t))
        succ[s] = ()
        grow([s], pred, to_out, "bin", u_set)
        grow([t], ix.unguarded, from_in, "bout", v_set)
        nodes = cyclic.pop(comp[s])
        local = {v: i for i, v in enumerate(nodes)}
        sub = tarjan([[local[w] for w in succ[v] if w in local] for v in nodes])[0]
        parts: dict[int, list[int]] = {}
        for v, c in zip(nodes, sub):
            comp[v] = n_comps + c
            parts.setdefault(comp[v], []).append(v)
        n_comps += len(parts)
        cyclic.update((c, vs) for c, vs in parts.items() if len(vs) > 1)
    return cuts


def _retrace(
    dom_atoms: list[str],
    cod_atoms: list[str],
    corners: tuple[list[int], list[int], list[int], list[int]],
    atom: str,
    inner: MorphExpr,
) -> MorphExpr:
    """Close the loop of a wire carrying ``atom``, cut from a diagram with
    boundary ``dom_atoms -> cod_atoms`` and claim corners ``corners``,
    around ``inner``, the expression of the cut diagram."""
    a_gates, b_gates, c_gates, d_gates = corners
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
