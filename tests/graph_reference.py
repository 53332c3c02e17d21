"""Direct searches, kept only as a reference for the tests.

Each graph function answers one graph question by walking the diagram
from scratch, the way ``gtc`` did before it read every answer off the
cached ``DiagramIndex``.  ``test_graph_index`` asserts that both give
equal results.  ``infer_trace_annotations`` is the exhaustive annotation
search that the one-fold inference replaced, and ``diagram_iso`` the
backtracking search over box assignments that wire-following replaced.
``elaborate`` is the union-find flattening that the one top-down walk
replaced.  ``synthesize`` is the synthesis loop that built a new
``Diagram`` and claim for every cut, and ``perm_to_expr`` the
permutation builder that searched the current order for each position.
``relabel`` renumbers a diagram's boxes, to give the deciders work.
``export_json``, ``equal`` and ``number_wires`` are the JSON export,
the ``==`` and the checked numbering of the design that stored a
diagram's wires as a frozenset of port tuples, before the ids became
the storage.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import Counter
from functools import reduce

from gtc.diagrams import Diagram, DiagramError, Port, check_fits
from gtc.expressions import Box, Comp, Id, MorphExpr, Sym, Tensor, Trace, fold, trace
from gtc.guardedness import GeometricWitness, PortPath, check_annotated
from gtc.signatures import BoxSig, ObjectExpr, Split, corner_split
from gtc.synthesis import (
    _compose_opt,
    acyclic_to_expr,
    compute_uv,
    cut_wire,
    find_cut_wire,
    loop_perms,
    synthesis_preconditions,
)
from gtc.synthesis import loop_wires as index_loop_wires


def relabel(d: Diagram, perm: list[int]) -> Diagram:
    """Renumber box instances by ``perm`` (new index of old box b)."""
    boxes = [None] * len(d.boxes)
    for old, new in enumerate(perm):
        boxes[new] = d.boxes[old]

    def move(p):
        if p[0] in ("bin", "bout"):
            return (p[0], perm[p[1]], p[2])
        return p

    wires = frozenset((move(s), move(t)) for s, t in d.wires)
    return Diagram(tuple(boxes), wires, d.boundary_in, d.boundary_out)


def unguarded_successors(d: Diagram) -> dict[Port, list[Port]]:
    """Adjacency of the graph whose edges are wires plus every box
    passage that is not guarded."""
    succ: dict[Port, list[Port]] = {p: [] for p in d.all_ports()}
    for src, dst in d.wires:
        succ[src].append(dst)
    for b, sig in enumerate(d.boxes):
        for i in range(len(sig.inputs)):
            for j in range(len(sig.outputs)):
                if not sig.split.passage_guarded(i, j):
                    succ[("bin", b, i)].append(("bout", b, j))
    return succ


def full_successors(d: Diagram) -> dict[Port, list[Port]]:
    succ: dict[Port, list[Port]] = {p: [] for p in d.all_ports()}
    for src, dst in d.wires:
        succ[src].append(dst)
    for b, sig in enumerate(d.boxes):
        for i in range(len(sig.inputs)):
            for j in range(len(sig.outputs)):
                succ[("bin", b, i)].append(("bout", b, j))
    return succ


def unguarded_reach(d: Diagram) -> dict[Port, frozenset[Port]]:
    """For every port, a depth-first search of the ports reachable along
    unguarded paths of at least one step."""
    succ = unguarded_successors(d)
    reach: dict[Port, frozenset[Port]] = {}
    for start in succ:
        seen: set[Port] = set()
        stack = list(succ[start])
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(succ[p])
        reach[start] = frozenset(seen)
    return reach


def bfs_path(
    succ: dict[Port, list[Port]], sources: list[Port], targets: set[Port]
) -> list[Port] | None:
    parent: dict[Port, Port | None] = {}
    queue = []
    for s in sources:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    while queue:
        p = queue.pop(0)
        if p in targets:
            path = [p]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for q in succ[p]:
            if q not in parent:
                parent[q] = p
                queue.append(q)
    return None


def find_unguarded_loop(d: Diagram) -> PortPath | None:
    """A cycle surviving deletion of all guarded passages, by recursive
    depth-first search (small diagrams only)."""
    succ = unguarded_successors(d)
    color: dict[Port, int] = {}
    stack_path: list[Port] = []

    def dfs(p: Port) -> list[Port] | None:
        color[p] = 1
        stack_path.append(p)
        for q in succ[p]:
            if color.get(q, 0) == 1:
                i = stack_path.index(q)
                return stack_path[i:] + [q]
            if color.get(q, 0) == 0:
                got = dfs(q)
                if got is not None:
                    return got
        stack_path.pop()
        color[p] = 2
        return None

    for p in succ:
        if color.get(p, 0) == 0:
            cyc = dfs(p)
            if cyc is not None:
                return PortPath(tuple(cyc))
    return None


def geometric_witness(d: Diagram, claim: Split) -> GeometricWitness | None:
    loop = find_unguarded_loop(d)
    if loop is not None:
        return GeometricWitness("loop", loop)
    sources = [("din", i) for i in sorted(claim.unguarded_in)]
    targets = {("dout", j) for j in claim.guarded_out}
    path = bfs_path(unguarded_successors(d), sources, targets)
    if path is not None:
        return GeometricWitness("path", PortPath(tuple(path)))
    return None


def loop_wires(d: Diagram) -> list[tuple[Port, Port]]:
    """Wires whose target reaches their source, one search per wire."""
    succ = full_successors(d)

    def reaches(start: Port, goal: Port) -> bool:
        seen = set()
        stack = [start]
        while stack:
            p = stack.pop()
            if p == goal:
                return True
            if p in seen:
                continue
            seen.add(p)
            stack.extend(succ[p])
        return False

    return [w for w in d.wires if reaches(w[1], w[0])]


def compute_uv(d: Diagram, claim: Split) -> tuple[frozenset[int], frozenset[int]]:
    reach = unguarded_reach(d)
    guarded_outs = {("dout", j) for j in claim.guarded_out}
    u_set = set()
    for b, sig in enumerate(d.boxes):
        for i in range(len(sig.inputs)):
            if reach[("bin", b, i)] & guarded_outs:
                u_set.add(b)
                break
    v_set = set()
    from_inputs: set[Port] = set()
    for i in claim.unguarded_in:
        from_inputs |= reach[("din", i)]
    for b, sig in enumerate(d.boxes):
        if any(("bout", b, k) in from_inputs for k in range(len(sig.outputs))):
            v_set.add(b)
    return frozenset(u_set), frozenset(v_set)


def infer_trace_annotations(e, claim: Split):
    """Try every combination of output promises across the trace nodes,
    the nodes in preorder and each from its strongest promise, and return
    the first re-annotated expression that checks under ``claim``."""
    # trace nodes in preorder, each with its rank in the fold's (postorder) visits
    rank = itertools.count()
    nodes = fold(
        e,
        lambda x: [],
        lambda x, first, second: first + second,
        lambda x, top, bottom: top + bottom,
        lambda x, body: [(next(rank), x), *body],
    )
    ranges = [range(len(t.body.cod) - len(t.loop) + 1) for _, t in nodes]
    for combo in itertools.product(*ranges):
        choice = {r: c_len for (r, _), c_len in zip(nodes, combo)}
        rank = itertools.count()

        def retrace(x, body):
            return trace(x.loop, body, len(x.corners[0]), choice[next(rank)])

        candidate = fold(
            e, lambda x: x, lambda x, f, g: Comp(f, g), lambda x, t, b: Tensor(t, b), retrace
        )
        if check_annotated(candidate, claim).ok:
            return candidate
    return None


def diagram_iso(d1: Diagram, d2: Diagram) -> bool:
    """Depth-first search over box assignments, boxes in ``str(sig)``
    order, each checked against the wires to the boxes assigned so far.
    Exponential when many boxes share a signature."""
    if d1.boundary_in != d2.boundary_in or d1.boundary_out != d2.boundary_out:
        return False
    if Counter(d1.boxes) != Counter(d2.boxes):
        return False
    wires2 = d2.wires
    # wires from boundary to boundary map to themselves
    if any(s[0] == "din" and t[0] == "dout" and (s, t) not in wires2 for s, t in d1.wires):
        return False
    by_sig: dict[BoxSig, list[int]] = {}
    for b, sig in enumerate(d2.boxes):
        by_sig.setdefault(sig, []).append(b)
    order1 = sorted(range(len(d1.boxes)), key=lambda b: str(d1.boxes[b]))
    box_wires: list[list] = [[] for _ in d1.boxes]  # a wire from a box to itself once
    for w in d1.wires:
        for b in {p[1] for p in w if p[0] in ("bin", "bout")}:
            box_wires[b].append(w)
    assign: dict[int, int] = {}

    def mapped(p: Port) -> Port | None:
        if p[0] in ("din", "dout"):
            return p
        if p[1] in assign:
            return (p[0], assign[p[1]], p[2])
        return None

    def consistent(b1: int) -> bool:
        """Do the wires between ``b1`` and what is already assigned map?"""
        for src, dst in box_wires[b1]:
            ms, md = mapped(src), mapped(dst)
            if ms is not None and md is not None and (ms, md) not in wires2:
                return False
        return True

    # the positions of ``order1``, each with an iterator over its untried candidates
    used: set[int] = set()
    tries: list = []
    pos = 0
    while pos < len(order1):
        b1 = order1[pos]
        if len(tries) == pos:
            tries.append(iter(by_sig[d1.boxes[b1]]))
        else:  # back from a dead end below
            used.discard(assign.pop(b1))
        for b2 in tries[pos]:
            if b2 not in used:
                assign[b1] = b2
                if consistent(b1):
                    used.add(b2)
                    pos += 1
                    break
                del assign[b1]
        else:
            if pos == 0:
                return False
            tries.pop()
            pos -= 1
    return True


class _Frag:
    """Union-find scratchpad used while flattening an expression."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.boxes: list[tuple[BoxSig, list[int], list[int]]] = []

    def fresh(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def elaborate(e: MorphExpr, claim: Split | None = None) -> Diagram:
    """One union-find node per wire segment, joined at every ``;`` and
    trace; then each port attaches to its node's root."""
    fr = _Frag()

    def leaf(x: MorphExpr) -> tuple[list[int], list[int]]:
        if isinstance(x, Box):
            ins = [fr.fresh() for _ in x.sig.inputs]
            outs = [fr.fresh() for _ in x.sig.outputs]
            fr.boxes.append((x.sig, ins, outs))
            return ins, outs
        if isinstance(x, Id):
            nodes = [fr.fresh() for _ in x.obj]
            return nodes, list(nodes)
        nodes = [fr.fresh() for _ in range(len(x.left) + len(x.right))]
        k = len(x.left)
        return nodes, nodes[k:] + nodes[:k]

    def comp(x: Comp, first, second) -> tuple[list[int], list[int]]:
        for a, b in zip(first[1], second[0]):
            fr.union(a, b)
        return first[0], second[1]

    def trace(x: Trace, body) -> tuple[list[int], list[int]]:
        ins, outs = body
        a_len, k, m = len(x.corners[0]), len(x.loop), len(outs)
        for t in range(k):
            fr.union(outs[m - k + t], ins[a_len + t])
        return ins[:a_len] + ins[a_len + k :], outs[: m - k]

    top_ins, top_outs = fold(
        e, leaf, comp, lambda x, top, bot: (top[0] + bot[0], top[1] + bot[1]), trace
    )

    drivers: dict[int, Port] = {}
    consumers: dict[int, Port] = {}

    def attach(ends: dict[int, Port], node: int, port: Port) -> None:
        r = fr.find(node)
        if r in ends:
            verb = "driven" if ends is drivers else "consumed"
            raise DiagramError(f"node {verb} twice: {ends[r]} and {port}")
        ends[r] = port

    for i, n in enumerate(top_ins):
        attach(drivers, n, ("din", i))
    for j, n in enumerate(top_outs):
        attach(consumers, n, ("dout", j))
    for b, (_, ins, outs) in enumerate(fr.boxes):
        for k, n in enumerate(ins):
            attach(consumers, n, ("bin", b, k))
        for k, n in enumerate(outs):
            attach(drivers, n, ("bout", b, k))

    roots = {fr.find(i) for i in range(len(fr.parent))}
    wires = set()
    for r in roots:
        if r in drivers and r in consumers:
            wires.add((drivers[r], consumers[r]))
        elif r in drivers or r in consumers:
            raise DiagramError("dangling wire end (expression is ill-typed)")
        else:
            raise DiagramError(
                "trace closes a wire through no box; the resulting bare loop "
                "has no port-graph representation"
            )

    n_in, n_out = len(top_ins), len(top_outs)
    if claim is None:
        claim = corner_split(n_in, n_out, n_in, n_out)
    check_fits(claim, n_in, n_out)
    bi = tuple((e.dom[i], i not in claim.unguarded_in) for i in range(n_in))
    bo = tuple((e.cod[j], j in claim.guarded_out) for j in range(n_out))
    return Diagram(tuple(sig for sig, _, _ in fr.boxes), frozenset(wires), bi, bo)


def synthesize(d: Diagram, claim: Split) -> MorphExpr:
    """Cut the least candidate wire of a new ``Diagram`` and claim until
    no loop is left, then close the cuts around the acyclic rest, the
    last cut innermost."""
    synthesis_preconditions(d, claim)
    cuts = []
    while index_loop_wires(d):
        u_set, v_set = compute_uv(d, claim)
        wire = find_cut_wire(d, u_set, v_set)
        cuts.append((d, claim, wire))
        d, claim = cut_wire(d, wire, claim)
    expr = acyclic_to_expr(d)
    for d, claim, wire in reversed(cuts):
        expr = _retrace(d, claim, wire, expr)
    return expr


def _retrace(d: Diagram, claim: Split, wire: tuple[Port, Port], inner: MorphExpr) -> MorphExpr:
    atom = d.port_atom(wire[0])
    corners = claim.corner_gates()
    a_gates, b_gates, c_gates, d_gates = corners
    dom_atoms = [a for a, _ in d.boundary_in]
    cod_atoms = [a for a, _ in d.boundary_out]
    n_out = len(cod_atoms)
    perm_pre, perm_post = loop_perms(
        dom_atoms + [atom], cod_atoms + [atom], len(dom_atoms), n_out, corners
    )
    body = _compose_opt([perm_pre, inner, perm_post])
    traced = trace(ObjectExpr((atom,)), body, len(a_gates), len(c_gates))
    outer_pre = perm_to_expr(dom_atoms, a_gates + b_gates)
    out_pos = {g: pos for pos, g in enumerate(c_gates + d_gates)}
    outer_post = perm_to_expr(
        [cod_atoms[g] for g in c_gates] + [cod_atoms[g] for g in d_gates],
        [out_pos[g] for g in range(n_out)],
    )
    return _compose_opt([outer_pre, traced, outer_post])


def perm_to_expr(atoms: list[str], dest: list[int]) -> MorphExpr:
    """Adjacent transpositions that bring ``dest[pos]`` to each position
    in turn, found by scanning the current order."""
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


# --- wires as a frozenset of port tuples -------------------------------------


def export_json(d: Diagram) -> str:
    """The payload built as dicts and lists, its wires sorted as lists."""
    payload = {
        "boxes": [
            {
                "id": b,
                "sig": {
                    "name": sig.name,
                    "inputs": str(sig.inputs),
                    "outputs": str(sig.outputs),
                    "unguarded_in": sorted(sig.split.unguarded_in),
                    "guarded_out": sorted(sig.split.guarded_out),
                },
            }
            for b, sig in enumerate(d.boxes)
        ],
        "wires": sorted([[list(s), list(t)] for s, t in d.wires]),
        "in": [{"atom": a, "guarded": g} for a, g in d.boundary_in],
        "out": [{"atom": a, "guarded": g} for a, g in d.boundary_out],
    }
    return json.dumps(payload)


def equal(d1: Diagram, d2: Diagram) -> bool:
    """``==`` of the frozen dataclass whose fields were the boxes, the
    wire frozenset and both boundaries."""
    return (d1.boxes, d1.wires, d1.boundary_in, d1.boundary_out) == (
        d2.boxes, d2.wires, d2.boundary_in, d2.boundary_out
    )


def number_wires(boxes, wires, bi, bo) -> tuple[list[int], list[int]]:
    """The ids of the wires' sources and targets, in ``wires`` order,
    each end checked and numbered by its own call of ``number``."""
    as_int = operator.index
    *base, n = itertools.accumulate(
        (sig.split.n_in + sig.split.n_out for sig in boxes), initial=len(bi) + len(bo)
    )
    seen, src, dst = bytearray(n), [], []

    def number(p: Port, ids: list[int]) -> str:
        atom = None
        try:
            at = as_int(p[1])
            if p[0] in ("din", "dout"):
                side, v = (bi, at) if p[0] == "din" else (bo, len(bi) + at)
                atom = side[at][0] if len(p) == 2 and 0 <= at < len(side) else None
            elif len(p) == 3 and 0 <= at < len(boxes):
                k, sig = as_int(p[2]), boxes[at]
                gates = (sig.inputs if p[0] == "bin" else sig.outputs).factors
                v = base[at] + k + (0 if p[0] == "bin" else sig.split.n_in)
                atom = gates[k] if 0 <= k < len(gates) else None
        except (IndexError, TypeError):
            pass
        if atom is None:
            raise DiagramError(f"wire end {p} is not a port of the diagram")
        if seen[v]:
            raise DiagramError(f"port {p} carries more than one wire")
        seen[v] = 1
        ids.append(v)
        return atom

    for s, t in wires:
        if s[0] not in ("din", "bout") or t[0] not in ("dout", "bin"):
            raise DiagramError(f"wire {s} -> {t} has bad orientation")
        a, b = number(s, src), number(t, dst)
        if a != b:
            raise DiagramError(f"wire {s} -> {t} joins atoms {a} and {b}")
        if s[0] == "din" and t[0] == "dout":
            try:
                ObjectExpr((a,))
            except ValueError as exc:
                raise DiagramError(str(exc)) from None
    if 2 * len(src) < n:
        ports = [("din", i) for i in range(len(bi))] + [("dout", j) for j in range(len(bo))]
        for b, sig in enumerate(boxes):
            ports += [("bin", b, k) for k in range(len(sig.inputs))]
            ports += [("bout", b, k) for k in range(len(sig.outputs))]
        raise DiagramError(f"port {ports[seen.index(0)]} is not wired")
    return src, dst
