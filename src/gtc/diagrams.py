"""Port-graph diagrams and elaboration of expressions into them.

A diagram is a list of box instances plus a set of directed wires between
ports.  Ports are numbered, and the numbers are what a diagram stores:
its ``DiagramIndex`` gives every port an integer id and holds each id's
wire partner.  Port tuples are the view that JSON, DOT and witnesses
show:

    ("din", i)        i-th diagram input
    ("dout", j)       j-th diagram output
    ("bin", b, k)     input gate k of box instance b
    ("bout", b, k)    output gate k of box instance b

Wires run from a source port (``din`` or ``bout``) to a target port
(``dout`` or ``bin``); every port carries exactly one wire end.  Each wire
carries a single atom, so tensor-typed connections appear as parallel
wires.  Cycles are allowed.

Data is checked once, where it enters: ``Diagram(...)`` and
``import_json`` number each wire end with every check, while
``elaborate``, ``with_claim`` and synthesis build their output's ids
directly, since it is well-formed by construction.
"""

from __future__ import annotations

import itertools
import json
import operator
from bisect import bisect_right
from dataclasses import FrozenInstanceError
from functools import cached_property

from .expressions import Box, Comp, Id, MorphExpr, Sym, Tensor, Trace
from .signatures import BoxSig, ObjectExpr, Split, corner_split, mk_split, parse_object

Port = tuple


class DiagramError(ValueError):
    """Ill-formed diagram data."""


class Diagram:
    """A validated port graph: box signatures, both boundaries, and
    ``index``, the ``DiagramIndex`` that numbers the ports and stores the
    wires.

    ``Diagram(boxes, wires, boundary_in, boundary_out)`` takes the wires
    as port-tuple pairs and checks them.  ``wires`` is a frozenset view
    built on first read; a frozenset given to the constructor is kept as
    that view.  ``==`` and ``hash`` compare the boxes, both boundaries
    and each port's wire partner, which is to compare the wire sets.
    """

    def __init__(
        self,
        boxes: tuple[BoxSig, ...],
        wires: frozenset[tuple[Port, Port]],
        boundary_in: tuple[tuple[str, bool], ...],  # (atom, guarded flag)
        boundary_out: tuple[tuple[str, bool], ...],
    ) -> None:
        index = DiagramIndex.checked(boxes, wires, boundary_in, boundary_out)
        self.__dict__.update(
            boxes=boxes, boundary_in=boundary_in, boundary_out=boundary_out, index=index
        )
        if type(wires) is frozenset:
            self.__dict__["wires"] = wires

    @classmethod
    def _of(cls, boxes, boundary_in, boundary_out, index: DiagramIndex) -> Diagram:
        """A diagram over ``index``, which a trusted producer built."""
        d = object.__new__(cls)
        d.__dict__.update(
            boxes=boxes, boundary_in=boundary_in, boundary_out=boundary_out, index=index
        )
        return d

    @cached_property
    def wires(self) -> frozenset[tuple[Port, Port]]:
        """The wires as port-tuple pairs, read off the ids."""
        ix, ports = self.index, self.index.ports
        return frozenset((ports[s], ports[ix.peer[s]]) for s in ix.sources)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.boxes == other.boxes
            and self.boundary_in == other.boundary_in
            and self.boundary_out == other.boundary_out
            and self.index.peer == other.index.peer
        )

    def __hash__(self) -> int:
        return hash((self.boxes, self.boundary_in, self.boundary_out, tuple(self.index.peer)))

    def __repr__(self) -> str:
        return (
            f"Diagram(boxes={self.boxes!r}, wires={self.wires!r}, "
            f"boundary_in={self.boundary_in!r}, boundary_out={self.boundary_out!r})"
        )

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def port_atom(self, p: Port) -> str:
        if p[0] == "din":
            return self.boundary_in[p[1]][0]
        if p[0] == "dout":
            return self.boundary_out[p[1]][0]
        b = self.boxes[p[1]]
        return b.inputs[p[2]] if p[0] == "bin" else b.outputs[p[2]]

    def all_ports(self) -> list[Port]:
        return list(self.index.ports)

    @property
    def dom(self) -> ObjectExpr:
        return ObjectExpr(tuple(a for a, _ in self.boundary_in))

    @property
    def cod(self) -> ObjectExpr:
        return ObjectExpr(tuple(a for a, _ in self.boundary_out))

    def boundary_claim(self) -> Split:
        """The claim recorded in the boundary decorations."""
        return mk_split(
            len(self.boundary_in),
            len(self.boundary_out),
            unguarded_in=[i for i, (_, g) in enumerate(self.boundary_in) if not g],
            guarded_out=[j for j, (_, g) in enumerate(self.boundary_out) if g],
        )

    def with_claim(self, claim: Split) -> "Diagram":
        """Same graph, and same index, boundary decorations replaced by ``claim``."""
        check_fits(claim, len(self.boundary_in), len(self.boundary_out))
        bi = tuple(
            (a, i not in claim.unguarded_in) for i, (a, _) in enumerate(self.boundary_in)
        )
        bo = tuple(
            (a, j in claim.guarded_out) for j, (a, _) in enumerate(self.boundary_out)
        )
        return Diagram._of(self.boxes, bi, bo, self.index)


def check_fits(claim: Split, n_in: int, n_out: int) -> None:
    if claim.n_in != n_in or claim.n_out != n_out:
        raise DiagramError("claim does not fit the diagram boundary")


# --- the graph index ----------------------------------------------------------


def tarjan(adj: list) -> tuple[list[int], list[int]]:
    """Strongly connected components of the graph on ``0..n-1`` with
    successor lists ``adj`` (Tarjan 1972, with an explicit stack).  Returns
    ``(comp, closed)``: each node's component number, and the nodes in the
    order their components close, one component after another in reverse
    topological order (no edge leads to a later component)."""
    n = len(adj)
    order, low, comp = [-1] * n, [0] * n, [-1] * n
    closed: list[int] = []
    open_nodes: list[int] = []  # visited, component not yet closed
    tick = itertools.count()
    n_comps = 0
    for root in range(n):
        work = [(root, iter(adj[root]))] if order[root] < 0 else []
        while work:
            v, succ = work[-1]
            if order[v] < 0:
                order[v] = low[v] = next(tick)
                open_nodes.append(v)
            for w in succ:
                if order[w] < 0:
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0:  # still open, so in v's component
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == order[v]:
                    while not closed or closed[-1] != v:
                        closed.append(open_nodes.pop())
                        comp[closed[-1]] = n_comps
                    n_comps += 1
    return comp, closed


def sccs(adj: list) -> tuple[list[int], list[int]]:
    """``tarjan(adj)``'s ``(comp, closed)`` contract, with Tarjan run only
    on a cyclic graph.  One topological pass (Kahn 1962) comes first; if
    it orders every node, the graph is acyclic and its components are the
    single nodes, numbered in reverse topological order."""
    n = len(adj)
    indeg = [0] * n
    for succ in adj:
        for w in succ:
            indeg[w] += 1
    order = [v for v in range(n) if not indeg[v]]
    for v in order:  # the order grows while it is read
        for w in adj[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) < n:  # the nodes left over lie on or behind a cycle
        return tarjan(adj)
    order.reverse()
    comp = [0] * n
    for c, v in enumerate(order):
        comp[v] = c
    return comp, order


class DiagramIndex:
    """The port graphs of one diagram and the answers read off them
    (``Diagram.index``); it refers to no ``Diagram``.  Its ids are how a
    diagram stores its wires, and ``ports`` is their port-tuple view.

    Ports get integer ids in ``Diagram.all_ports`` order: the inputs, the
    outputs, then box ``b``'s input and output gates from ``base[b]`` on.
    ``peer[v]`` is the id at the other end of port ``v``'s wire.  The
    constructor trusts its arguments; ``checked`` builds them from wires
    given as port tuples.  Every wire joins equal atoms, so a boundary
    atom wired to a box is a word's; one wired to the boundary is checked
    as a word.  The full graph has an edge for every wire and box passage,
    the unguarded graph drops the guarded passages.  A port has one wire
    out at most and passages keep output-gate order, so searches are
    deterministic.  The components of either graph come from ``sccs``: a
    topological pass, and Tarjan only when that finds a cycle.
    """

    def __init__(self, boxes: tuple, n_in: int, n_out: int, base: list[int], peer: list[int]):
        self.boxes, self.n_in, self.n_out, self.base, self.peer = boxes, n_in, n_out, base, peer
        self.n_ports = len(peer)

    @classmethod
    def checked(cls, boxes, wires, bi, bo) -> DiagramIndex:
        """The index of ``wires``, pairs of ports given as tuples (or as
        lists read from JSON), with every end checked and numbered once.
        A wire met again is skipped, as a set holds it once."""
        n_in, as_int = len(bi), operator.index
        *base, n = itertools.accumulate(
            (sig.split.n_in + sig.split.n_out for sig in boxes), initial=n_in + len(bo)
        )
        peer = [-1] * n
        # per box, the first id of its inputs and of its outputs, and their atoms
        sides = {
            "bin": (base, [sig.inputs.factors for sig in boxes]),
            "bout": (
                [v + sig.split.n_in for v, sig in zip(base, boxes)],
                [sig.outputs.factors for sig in boxes],
            ),
        }

        def locate(p: Port) -> tuple[int | None, str | None]:
            """Wire end ``p``'s id and atom; no atom if ``p`` is no port."""
            try:
                kind, at = p[0], as_int(p[1])
                if kind in sides:
                    (firsts, words), k = sides[kind], as_int(p[2])
                    if len(p) == 3 and 0 <= at < len(words) and 0 <= k < len(words[at]):
                        return firsts[at] + k, words[at][k]
                elif len(p) == 2:
                    side, v = (bi, at) if kind == "din" else (bo, n_in + at)
                    if 0 <= at < len(side):
                        return v, side[at][0]
            except (IndexError, TypeError):
                pass
            return None, None

        for s, t in wires:
            if s[0] not in ("din", "bout") or t[0] not in ("dout", "bin"):
                raise DiagramError(f"wire {_shown(s)} -> {_shown(t)} has bad orientation")
            (v, a), (w, b) = locate(s), locate(t)
            if a is None:
                raise DiagramError(f"wire end {_shown(s)} is not a port of the diagram")
            if peer[v] >= 0:
                if peer[v] == w:  # the same wire again
                    continue
                raise DiagramError(f"port {_shown(s)} carries more than one wire")
            if b is None:
                raise DiagramError(f"wire end {_shown(t)} is not a port of the diagram")
            if peer[w] >= 0:
                raise DiagramError(f"port {_shown(t)} carries more than one wire")
            peer[v], peer[w] = w, v
            if a != b:
                raise DiagramError(f"wire {_shown(s)} -> {_shown(t)} joins atoms {a} and {b}")
            if s[0] == "din" and t[0] == "dout":  # no box word has checked the atom
                try:
                    ObjectExpr((a,))
                except ValueError as exc:  # a bad atom name
                    raise DiagramError(str(exc)) from None
        index = cls(boxes, n_in, len(bo), base, peer)
        if -1 in peer:  # a port that no wire reached
            raise DiagramError(f"port {index.ports[peer.index(-1)]} is not wired")
        return index

    def gates(self, b: int) -> tuple[range, range]:
        """The ids of box ``b``'s input gates and of its output gates."""
        v, split = self.base[b], self.boxes[b].split
        return range(v, v + split.n_in), range(v + split.n_in, v + split.n_in + split.n_out)

    @cached_property
    def sources(self) -> list[int]:
        """The wires' source ids: box outputs by box and gate, then the
        diagram inputs, which is the order of ``sorted(Diagram.wires)``."""
        out: list[int] = []
        for v, sig in zip(self.base, self.boxes):
            out += range(v + sig.split.n_in, v + sig.split.n_in + sig.split.n_out)
        return out + list(range(self.n_in))

    @cached_property
    def full(self) -> list:
        """Successor ids per port: its wire's target, or its box's outputs."""
        succ: list = [(w,) for w in self.peer]  # right for the sources
        succ[self.n_in : self.n_in + self.n_out] = [()] * self.n_out
        for v, sig in zip(self.base, self.boxes):
            n_in, w = sig.split.n_in, v + sig.split.n_in
            succ[v:w] = [range(w, w + sig.split.n_out)] * n_in
        return succ

    @cached_property
    def unguarded(self) -> list:
        """``full`` less the passages from unguarded inputs to guarded outputs."""
        succ = list(self.full)
        for v, sig in zip(self.base, self.boxes):
            ui, go = sig.split.unguarded_in_mask, sig.split.guarded_out_mask
            if ui and go:  # else the box guards no passage
                outs = succ[v]
                free = [t for j, t in enumerate(outs) if not go >> j & 1]
                succ[v : v + sig.split.n_in] = [
                    free if ui >> i & 1 else outs for i in range(sig.split.n_in)
                ]
        return succ

    @cached_property
    def ports(self) -> list[Port]:
        """Each id's port tuple, the view of the ids."""
        out: list[Port] = [("din", i) for i in range(self.n_in)]
        out += [("dout", j) for j in range(self.n_out)]
        for b, sig in enumerate(self.boxes):
            out += [("bin", b, k) for k in range(sig.split.n_in)]
            out += [("bout", b, k) for k in range(sig.split.n_out)]
        return out

    @cached_property
    def full_sccs(self) -> tuple[list[int], list[int]]:
        return sccs(self.full)

    @cached_property
    def full_acyclic(self) -> bool:
        # no port leads to itself in one step: a cycle fills a component
        return len(set(self.full_sccs[0])) == self.n_ports

    @cached_property
    def unguarded_sccs(self) -> tuple[list[int], list[int]]:
        # a subgraph of an acyclic graph has its single-port components,
        # and its edges still lead only to earlier ones
        return self.full_sccs if self.full_acyclic else sccs(self.unguarded)

    @cached_property
    def unguarded_loop(self) -> bool:
        return len(set(self.unguarded_sccs[0])) < self.n_ports

    def unguarded_reach_masks(self, bits: list[int]) -> list[int]:
        """Per port, the union of ``bits`` over the ports it reaches along
        unguarded paths of zero or more steps."""
        comp, closed = self.unguarded_sccs
        succ, mask = self.unguarded, [0] * len(comp)  # per component
        for v in closed:
            m = bits[v]
            for w in succ[v]:
                m |= mask[comp[w]]
            mask[comp[v]] |= m
        return [mask[c] for c in comp]

    @cached_property
    def reach_out(self) -> list[int]:
        """Per port, the boundary outputs it reaches along unguarded paths,
        with bit ``j`` for ``("dout", j)``."""
        bits = [0] * self.n_ports
        bits[self.n_in : self.n_in + self.n_out] = [1 << j for j in range(self.n_out)]
        return self.unguarded_reach_masks(bits)

    @cached_property
    def reach_in(self) -> list[int]:
        """Per boundary input ``i``, the ``reach_out`` mask of ``("din", i)``."""
        return self.reach_out[: self.n_in]


def _shown(p) -> Port:
    """Port ``p`` as an error text shows it: a JSON list as a tuple."""
    return tuple(p) if type(p) is list else p


# --- elaboration ------------------------------------------------------------


def elaborate(e: MorphExpr, claim: Split | None = None) -> Diagram:
    """Flatten a well-typed expression into its port graph.

    Identities, symmetries, and trace feedback contribute wires only; the
    boundary decorations come from ``claim`` (default: nothing guarded).
    Raises DiagramError if ``claim`` does not fit the boundary, or if a
    trace closes a wire that passes through no box at all, since such a
    loop has no ports to hang on to.

    One top-down walk with an explicit stack hands each node the ids of
    the ports that drive its inputs and takes back those that drive its
    outputs (``fold`` is bottom-up, so it cannot hand a node its input
    drivers).  A box input holds its driver in ``peer`` until the end.  A
    trace feeds its body one placeholder, a negative int, per loop wire
    and binds it to the body's loop output; the walk then resolves every
    placeholder once, so nested traces cost one step per level.  The
    ids go straight into the index: nothing is checked again.
    """
    n_in, n_out = len(e.dom), len(e.cod)
    boxes: list[BoxSig] = []
    base: list[int] = []
    peer: list[int] = [-1] * (n_in + n_out)  # a target's driver, until its wire's source
    bound: list = []  # per placeholder ~p, the driver bound to it
    outs: list = []  # per node walked and not yet consumed, its output drivers
    todo: list = [(e, list(range(n_in)))]
    while todo:
        x, ins = todo.pop()
        if ins is None:  # the second half of a ';' takes the first half's outputs
            ins = outs.pop()
        t = type(x)
        if t is Box:
            v = len(peer)
            boxes.append(x.sig)
            base.append(v)
            peer += ins
            peer += [-1] * x.sig.split.n_out
            outs.append(list(range(v + len(ins), len(peer))))
        elif t is Comp:
            todo += ((x.second, None), (x.first, ins))
        elif t is Tensor:
            n = len(x.top.dom)
            todo += ((_JOIN, ()), (x.bottom, ins[n:]), (x.top, ins[:n]))
        elif t is Id:
            outs.append(ins)
        elif t is Sym:
            outs.append(ins[len(x.left) :] + ins[: len(x.left)])
        elif t is Trace:
            a_len, p = len(x.corners[0]), len(bound)
            loop = [~q for q in range(p, p + len(x.loop))]
            bound += loop
            todo += ((_BIND, loop), (x.body, ins[:a_len] + loop + ins[a_len:]))
        elif x is _JOIN:
            bottom = outs.pop()
            outs[-1] = outs[-1] + bottom
        else:  # _BIND: the body's trailing outputs drive its loop placeholders
            body, k = outs[-1], len(ins)  # k may be 0: a trace over I
            for p, d in zip(ins, body[len(body) - k :]):
                bound[~p] = d
            outs[-1] = body[: len(body) - k]
    peer[n_in : n_in + n_out] = outs.pop()

    for start in range(len(bound)):  # each placeholder is followed once
        chain, p = [], start
        while bound[p] is not None and bound[p] < 0:
            chain.append(p)
            bound[p], p = None, ~bound[p]  # None: on the chain being followed
        if bound[p] is None:
            raise DiagramError(
                "trace closes a wire through no box; the resulting bare loop "
                "has no port-graph representation"
            )
        for q in chain:
            bound[q] = bound[p]

    if claim is None:
        claim = corner_split(n_in, n_out, n_in, n_out)
    check_fits(claim, n_in, n_out)
    bi = tuple((e.dom[i], i not in claim.unguarded_in) for i in range(n_in))
    bo = tuple((e.cod[j], j in claim.guarded_out) for j in range(n_out))
    boxes = tuple(boxes)
    targets = [range(n_in, n_in + n_out)]
    targets += (range(v, v + sig.split.n_in) for v, sig in zip(base, boxes))
    for t in itertools.chain.from_iterable(targets):
        s = peer[t]
        if s < 0:
            s = peer[t] = bound[~s]
        peer[s] = t
    return Diagram._of(boxes, bi, bo, DiagramIndex(boxes, n_in, n_out, base, peer))


_JOIN, _BIND = "join", "bind"  # work items that finish a tensor and a trace


# --- isomorphism ------------------------------------------------------------


def diagram_iso(d1: Diagram, d2: Diagram) -> bool:
    """Decide whether a box bijection exists that preserves signatures,
    gate order, wires, and both boundaries verbatim.

    Every port carries one wire, so pairing two boxes forces the pairing
    of the boxes at the far ends of their wires, gate for gate.  The
    boundary pairs with itself; then each unpaired box keeps the first
    unused box of its signature that grows without a clash (isomorphism
    of components is an equivalence relation).  Bound: a component tries
    each box once and a try pairs at most the component, so boxes²
    pairings at most; boxes wired to the boundary are paired in one pass.
    """
    (cuts1, peer1, sigs1), (cuts2, peer2, sigs2) = _nodes(d1), _nodes(d2)
    image, used = [-1] * len(sigs1), bytearray(len(sigs2))

    def grow(k1: int, k2: int) -> bool:
        """Pair node ``k1`` with ``k2`` and every pair that forces, or none."""
        made, ends = [], []  # nodes paired; far ends of paired ports, to check

        def pair(c1: int, c2: int) -> bool:
            if image[c1] >= 0 or used[c2] or sigs1[c1] != sigs2[c2]:
                return image[c1] == c2
            image[c1], used[c2] = c2, 1
            made.append(c1)
            ends.extend(zip(peer1[cuts1[c1] : cuts1[c1 + 1]], peer2[cuts2[c2] : cuts2[c2 + 1]]))
            return True

        ok = pair(k1, k2)
        while ok and ends:
            q1, q2 = ends.pop()
            c1, c2 = bisect_right(cuts1, q1) - 1, bisect_right(cuts2, q2) - 1
            ok = q1 - cuts1[c1] == q2 - cuts2[c2] and pair(c1, c2)
        for c in () if ok else made:
            used[image[c]], image[c] = 0, -1
        return ok

    by_sig: dict = {}
    for k2 in range(1, len(sigs2)):
        by_sig.setdefault(sigs2[k2], []).append(k2)
    return len(sigs1) == len(sigs2) and grow(0, 0) and all(
        image[k1] >= 0 or any(grow(k1, k2) for k2 in by_sig.get(sigs1[k1], ()) if not used[k2])
        for k1 in range(1, len(sigs1))
    )


def _nodes(d: Diagram) -> tuple[list[int], list[int], tuple]:
    """Node ``k`` (0 the boundary, ``b + 1`` box ``b``) has signature ``sigs[k]``
    and the ids from ``cuts[k]`` below ``cuts[k + 1]``; ``peer[v]`` is id ``v``'s wire partner."""
    ix = d.index
    return [0, *ix.base, ix.n_ports], ix.peer, ((d.boundary_in, d.boundary_out), *d.boxes)


# --- reversal ---------------------------------------------------------------


def reverse_diagram(d: Diagram) -> Diagram:
    """Turn the diagram half a turn: reverse every wire, dualize every
    box split, swap the boundaries, and flip their decorations."""
    from .signatures import dual_split

    boxes = tuple(
        BoxSig(sig.name, sig.outputs, sig.inputs, dual_split(sig.split))
        for sig in d.boxes
    )

    flip = {"din": "dout", "dout": "din", "bin": "bout", "bout": "bin"}

    def rev(p: Port) -> Port:
        return (flip[p[0]],) + p[1:]

    wires = frozenset((rev(dst), rev(src)) for src, dst in d.wires)
    bi = tuple((a, not g) for a, g in d.boundary_out)
    bo = tuple((a, not g) for a, g in d.boundary_in)
    return Diagram(boxes, wires, bi, bo)


# --- serialization ----------------------------------------------------------


def _box_json(b: int, sig: BoxSig, shapes: dict) -> str:
    """Box ``b``'s JSON; ``shapes``, one per export, maps each box shape
    to the text of its signature's fields after the name."""
    key = sig.inputs, sig.outputs, sig.split
    shape = shapes.get(key)
    if shape is None:
        shape = shapes[key] = json.dumps({
            "inputs": str(sig.inputs),
            "outputs": str(sig.outputs),
            "unguarded_in": sorted(sig.split.unguarded_in),
            "guarded_out": sorted(sig.split.guarded_out),
        })[1:]
    # a box name is atom-like, so JSON writes it as it is
    return f'{{"id": {b}, "sig": {{"name": "{sig.name}", {shape}}}'


def _typed(v, typ: type, what: str):
    """``v`` if JSON decoded it as ``typ``: ``true`` and ``0.0`` are no integers."""
    if type(v) is not typ:
        raise DiagramError(f"bad {what} {v!r}")
    return v


_SIDES = ("unguarded_in", "guarded_out")
_INT = {int}


def _shape(d: dict) -> tuple | None:
    """The texts of box signature ``d``'s two words and its two gate lists,
    if they are strings and lists of ``int`` (``true`` and ``1.0`` equal
    ``1`` as keys); else None."""
    if type(d) is not dict:
        return None
    ins, outs = d.get("inputs"), d.get("outputs")
    ui, go = d.get(_SIDES[0], []), d.get(_SIDES[1], [])
    if type(ins) is str is type(outs) and type(ui) is list is type(go):
        if _INT.issuperset(map(type, ui + go)):
            return ins, outs, tuple(ui), tuple(go)
    return None


def _sig_from_json(d: dict, shapes: dict) -> BoxSig:
    """``shapes``, one per import, maps each box shape read so far (see
    ``_shape``) to its words and split, and each gate layout to its split.
    A box of no shape is read field by field, in the order that picks its
    error."""
    key = _shape(d)
    shape = shapes.get(key)
    if shape is not None:
        return BoxSig(d["name"], *shape)
    inputs, outputs = parse_object(d["inputs"]), parse_object(d["outputs"])
    ui, go = (tuple(_typed(g, int, "gate index") for g in d.get(side, ())) for side in _SIDES)
    name, layout = d["name"], (len(inputs), len(outputs), ui, go)
    split = shapes.get(layout)
    if split is None:
        split = shapes[layout] = mk_split(*layout)
    if key is not None:
        shapes[key] = inputs, outputs, split
    return BoxSig(name, inputs, outputs, split)


def _check_port(v: list) -> None:
    """Raise unless JSON port ``v``'s kind and indices are well typed;
    drop any items past them."""
    kind = v[0]
    if kind in ("bin", "bout") and type(v[1]) is int is type(v[2]):
        del v[3:]
    elif kind in ("din", "dout"):
        _typed(v[1], int, "port index")
        del v[2:]
    elif kind in ("bin", "bout"):  # an index is no int
        _typed(v[1], int, "port index")
        _typed(v[2], int, "port index")
    else:
        raise DiagramError(f"bad port {v!r}")


def export_json(d: Diagram) -> str:
    """The diagram as one line of JSON (``json.tool`` pretty-prints it):
    the text ``json.dumps`` writes for its payload, with the wires in
    ``sorted`` order, written from the ids in ``DiagramIndex.sources``
    order."""
    ix, shapes = d.index, {}
    end = [f'["din", {i}]' for i in range(ix.n_in)]  # each id's port, as JSON
    end += [f'["dout", {j}]' for j in range(ix.n_out)]
    for b, sig in enumerate(d.boxes):
        end += [f'["bin", {b}, {k}]' for k in range(sig.split.n_in)]
        end += [f'["bout", {b}, {k}]' for k in range(sig.split.n_out)]
    wires = ", ".join(f"[{end[s]}, {end[ix.peer[s]]}]" for s in ix.sources)
    boxes = ", ".join(_box_json(b, sig, shapes) for b, sig in enumerate(d.boxes))
    bi = json.dumps([{"atom": a, "guarded": g} for a, g in d.boundary_in])
    bo = json.dumps([{"atom": a, "guarded": g} for a, g in d.boundary_out])
    return f'{{"boxes": [{boxes}], "wires": [{wires}], "in": {bi}, "out": {bo}}}'


def import_json(text: str) -> Diagram:
    try:
        payload = json.loads(text)
        boxes_raw = sorted(payload["boxes"], key=lambda b: _typed(b["id"], int, "box id"))
        if [b["id"] for b in boxes_raw] != list(range(len(boxes_raw))):
            raise DiagramError("box ids must be 0..n-1")
        shapes: dict = {}
        boxes = tuple(_sig_from_json(b["sig"], shapes) for b in boxes_raw)
        wires = payload["wires"]
        for s, t in wires:
            _check_port(s)
            _check_port(t)
        bi = tuple((p["atom"], _typed(p["guarded"], bool, "guarded flag")) for p in payload["in"])
        bo = tuple((p["atom"], _typed(p["guarded"], bool, "guarded flag")) for p in payload["out"])
        for atom, _ in bi + bo:
            if not isinstance(atom, str):
                raise DiagramError(f"boundary atom {atom!r} is not a string")
        ObjectExpr(tuple(a for a, _ in bi + bo))  # a bad atom name raises here
    except (IndexError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise DiagramError(f"bad diagram JSON: {exc}") from None
    return Diagram(boxes, wires, bi, bo)


def export_dot(d: Diagram) -> str:
    """Graphviz rendering; record nodes, filled marks on the promising
    gates (unguarded inputs, guarded outputs)."""

    def gate_label(flag: bool, tag: str) -> str:
        return f"<{tag}> {'&#9679;' if flag else '&#9675;'}"

    lines = ["digraph diagram {", "  rankdir=LR;", "  node [shape=record];"]
    for i, (a, g) in enumerate(d.boundary_in):
        lines.append(f'  din{i} [label="in {i}: {a}", shape=plaintext];')
    for j, (a, g) in enumerate(d.boundary_out):
        lines.append(f'  dout{j} [label="out {j}: {a}", shape=plaintext];')
    for b, sig in enumerate(d.boxes):
        ins = "|".join(
            gate_label(k in sig.split.unguarded_in, f"i{k}")
            for k in range(len(sig.inputs))
        )
        outs = "|".join(
            gate_label(k in sig.split.guarded_out, f"o{k}")
            for k in range(len(sig.outputs))
        )
        left = f"{{{ins}}}|" if ins else ""
        right = f"|{{{outs}}}" if outs else ""
        lines.append(f'  b{b} [label="{{{left}{sig.name}{right}}}"];')

    def dot_ref(p: Port) -> str:
        if p[0] in ("din", "dout"):
            return f"{p[0]}{p[1]}"
        return f"b{p[1]}:{'i' if p[0] == 'bin' else 'o'}{p[2]}"

    ports, peer = d.index.ports, d.index.peer
    for s in d.index.sources:  # the order of sorted(d.wires)
        lines.append(f"  {dot_ref(ports[s])} -> {dot_ref(ports[peer[s]])};")
    lines.append("}")
    return "\n".join(lines)
