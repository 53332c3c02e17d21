"""Deciding guardedness claims, three ways.

* ``geometric_check`` inspects the port graph: a claim holds when no
  unguarded path joins a claimed-unguarded input to a claimed-guarded
  output and no loop is unguarded.  A path is guarded when it crosses
  some box from an unguarded input gate to a guarded output gate.  The
  diagram's cached ``DiagramIndex`` answers both questions.

* ``derivable_splits`` runs the structural rules bottom-up over a
  trace-free expression, returning the exact derivable claims as an
  antichain of maximal elements.  On trace-free expressions the two
  computations agree; the test suite exercises that equivalence as an
  oracle.

* ``check_annotated`` verifies a traced expression layer by layer:
  each trace node is opaqued into a box carrying its conclusion split,
  and the resulting trace-free layers are checked geometrically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .diagrams import Diagram, DiagramError, DiagramIndex, Port, elaborate
from .expressions import Box, Comp, MorphExpr, Sym, Tensor, Trace, fold
from .signatures import BoxSig, SignatureError, Split, _gate_set


@dataclass(frozen=True)
class PortPath:
    """A directed walk through a diagram, as the ports it visits.

    Consecutive ports alternate wires (source -> target) and box
    passages (input gate -> output gate of one box).
    """

    ports: tuple[Port, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.ports, self.ports[1:]):
            wire_step = a[0] in ("din", "bout") and b[0] in ("dout", "bin")
            passage = (
                a[0] == "bin" and b[0] == "bout" and a[1] == b[1]
            )
            if not (wire_step or passage):
                raise ValueError(f"ports {a} and {b} are not incident")

    def passages(self) -> list[tuple[int, int, int]]:
        """(box, input gate, output gate) for each box crossing."""
        out = []
        for a, b in zip(self.ports, self.ports[1:]):
            if a[0] == "bin":
                out.append((a[1], a[2], b[2]))
        return out

    def is_guarded(self, d: Diagram) -> bool:
        return any(
            d.boxes[b].split.passage_guarded(i, j) for b, i, j in self.passages()
        )


def unguarded_reach(d: Diagram) -> dict[Port, frozenset[Port]]:
    """For every port, the set of ports reachable along unguarded paths
    of at least one step."""
    ix = d.index
    zero_or_more = ix.unguarded_reach_masks([1 << v for v in range(ix.n_ports)])
    reach: dict[Port, frozenset[Port]] = {}
    for v, p in enumerate(ix.ports):
        m = 0
        for w in ix.unguarded[v]:
            m |= zero_or_more[w]
        reach[p] = frozenset(q for w, q in enumerate(ix.ports) if m >> w & 1)
    return reach


def _first_unguarded_loop(ix: DiagramIndex) -> list[Port]:
    """The cycle a depth-first search of the unguarded graph closes
    first, rooted in port order; the graph must have one."""
    adj = ix.unguarded
    color = [0] * len(adj)  # 0 unseen, 1 on the search path, 2 done
    path, work = [], []
    for root in range(len(adj)):
        if color[root] == 0:
            color[root] = 1
            path, work = [root], [iter(adj[root])]
        while work:
            for q in work[-1]:
                if color[q] == 1:
                    return [ix.ports[v] for v in path[path.index(q) :] + [q]]
                if color[q] == 0:
                    color[q] = 1
                    path.append(q)
                    work.append(iter(adj[q]))
                    break
            else:
                color[path.pop()] = 2
                work.pop()
    raise AssertionError("the unguarded graph is acyclic")


def _shortest_path(ix: DiagramIndex, sources: list[int], targets: set[int]) -> list[Port]:
    """A shortest unguarded path from ``sources`` to ``targets``, found
    breadth first; one must exist."""
    parent: dict[int, int | None] = dict.fromkeys(sources)
    queue = list(parent)
    for p in queue:  # the queue grows while it is read
        if p in targets:
            path = [p]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return [ix.ports[v] for v in reversed(path)]
        for q in ix.unguarded[p]:
            if q not in parent:
                parent[q] = p
                queue.append(q)
    raise AssertionError("no unguarded path joins the sources to the targets")


@dataclass(frozen=True)
class GeometricWitness:
    kind: str  # "path" or "loop"
    path: PortPath

    def to_json(self) -> dict:
        return {"kind": self.kind, "ports": [list(p) for p in self.path.ports]}


def _holds(d: Diagram, claim: Split) -> bool:
    if claim.n_in != len(d.boundary_in) or claim.n_out != len(d.boundary_out):
        raise DiagramError("claim does not fit the diagram boundary")
    ix = d.index
    if ix.unguarded_loop:
        return False
    guarded, reach = claim.guarded_out_mask, ix.reach_in
    for i in claim.unguarded_in:
        if reach[i] & guarded:
            return False
    return True


def geometric_witness(d: Diagram, claim: Split) -> GeometricWitness | None:
    """None if the claim holds geometrically, else the offending
    unguarded loop or, failing one, a shortest offending path."""
    if _holds(d, claim):
        return None
    ix = d.index
    if ix.unguarded_loop:
        return GeometricWitness("loop", PortPath(tuple(_first_unguarded_loop(ix))))
    # a boundary input's id is its position, a boundary output's follows them
    sources = sorted(claim.unguarded_in)
    targets = {ix.n_in + j for j in claim.guarded_out}
    return GeometricWitness("path", PortPath(tuple(_shortest_path(ix, sources, targets))))


def geometric_check(d: Diagram, claim: Split) -> bool:
    """Does the claim hold geometrically?  Builds no witness."""
    return _holds(d, claim)


def geometric_reach_table(d: Diagram) -> list[int] | None:
    """``geometric_check`` for every claim at once, on masks: per mask
    ``a`` of unguarded inputs, the boundary outputs its inputs reach along
    unguarded paths, so the claim ``(a, g)`` holds iff ``table[a] & g == 0``.
    None if the diagram has an unguarded loop, where no claim holds."""
    if d.index.unguarded_loop:
        return None
    table = [0]
    for reach in d.index.reach_in:
        # the masks with input i's bit: each mask below them plus i's reach
        table += [t | reach for t in table]
    return table


# --- structural derivation search -------------------------------------------


class TraceNotAllowed(ValueError):
    """derivable_splits only covers trace-free expressions."""


def _antichain(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The maximal pairs, under ``(a, d) <= (a2, d2)`` iff ``a <= a2`` and
    ``d <= d2`` as bit sets.

    A pair is only dominated by pairs with more bits, so pairs are visited
    by decreasing bit count and each is compared with the maxima kept so
    far; a repeated pair is dominated by its first copy.
    """
    maxima: list[tuple[int, int]] = []
    by_bits = sorted(pairs, key=lambda p: p[0].bit_count() + p[1].bit_count(), reverse=True)
    for a, d in by_bits:
        for a2, d2 in maxima:
            if a & ~a2 == 0 and d & ~d2 == 0:
                break
        else:
            maxima.append((a, d))
    return maxima


# widest subterm, in domain plus codomain gates, that derivable_splits
# takes: a wires-only leaf lists 2**n_in candidates, and composing two
# subterms compares every pair of their maximal claims, which takes about
# a second at this width
MAX_SPLIT_WIDTH = 20


def _check_width(x: MorphExpr) -> None:
    width = len(x.dom) + len(x.cod)
    if width > MAX_SPLIT_WIDTH:
        raise SignatureError(
            f"subterm {x.dom} -> {x.cod} is {width} gates wide; derivable_splits "
            f"takes at most {MAX_SPLIT_WIDTH}"
        )


def derivable_masks(e: MorphExpr) -> list[tuple[int, int]]:
    """``derivable_splits`` as pairs of masks (unguarded inputs, guarded
    outputs), with bit ``i`` for gate ``i``."""

    def leaf(x: MorphExpr) -> list[tuple[int, int]]:
        if isinstance(x, Trace):
            raise TraceNotAllowed("expression contains a trace node")
        _check_width(x)
        n_in, n_out = len(x.dom), len(x.cod)
        full_out = (1 << n_out) - 1
        if isinstance(x, Box):
            s = x.sig.split
            return _antichain(
                {
                    (s.unguarded_in_mask, s.guarded_out_mask),
                    ((1 << n_in) - 1, 0),
                    (0, full_out),
                }
            )
        # wires only: a claim holds iff no claimed-unguarded input is wired
        # straight to a claimed-guarded output; input i feeds output perm[i].
        # The candidates form an antichain already: a larger input set has a
        # larger image under the injective perm, so a smaller output set.
        k, r = (len(x.left), len(x.right)) if isinstance(x, Sym) else (0, 0)
        perm = [i + r if i < k else i - k for i in range(n_in)]
        cands = []
        for s_mask in range(1 << n_in):
            img = 0
            for i in range(n_in):
                if s_mask >> i & 1:
                    img |= 1 << perm[i]
            cands.append((s_mask, full_out & ~img))
        return cands

    def comp(x: Comp, left, right) -> list[tuple[int, int]]:
        # need a middle partition E|F with F <= dg and (mid - F) <= af,
        # i.e. every middle gate is covered by dg or af
        _check_width(x)
        mid_full = (1 << len(x.first.cod)) - 1
        return _antichain(
            {(ag, df) for ag, dg in left for af, df in right if mid_full & ~af & ~dg == 0}
        )

    def tensor(x: Tensor, top, bottom) -> list[tuple[int, int]]:
        # the gates of the two factors are disjoint bit ranges, so a pair of
        # the product is below another iff it is in each factor: the product
        # of two antichains is one
        _check_width(x)
        si, so = len(x.top.dom), len(x.top.cod)
        return [(a1 | (a2 << si), d1 | (d2 << so)) for a1, d1 in top for a2, d2 in bottom]

    return fold(e, leaf, comp, tensor)


def derivable_splits(e: MorphExpr) -> frozenset[tuple[frozenset[int], frozenset[int]]]:
    """All derivable claims of a trace-free expression, given by their
    maximal elements (claims are downward closed under weakening).

    Raises SignatureError if a subterm is wider than ``MAX_SPLIT_WIDTH``
    (20) domain plus codomain gates: the search is exponential in width.
    """
    return frozenset((_gate_set(a), _gate_set(d)) for a, d in derivable_masks(e))


def masks_derivable(maxes: list[tuple[int, int]], a: int, g: int) -> bool:
    """``claim_derivable`` on masks: is the claim with unguarded inputs
    ``a`` and guarded outputs ``g`` below a pair of ``derivable_masks``?"""
    for am, gm in maxes:
        if a & ~am == 0 and g & ~gm == 0:
            return True
    return False


def claim_derivable(
    maxes: frozenset[tuple[frozenset[int], frozenset[int]]], claim: Split
) -> bool:
    ui, go = claim.unguarded_in, claim.guarded_out
    for a, d in maxes:
        if ui <= a and go <= d:
            return True
    return False


def split_derivable(e: MorphExpr, claim: Split) -> bool:
    """Convenience: is the claim derivable for this trace-free expression?"""
    return claim_derivable(derivable_splits(e), claim)


# --- syntax-directed checking of annotated traced expressions ---------------


@dataclass
class CheckResult:
    ok: bool
    certificate: list[dict] = field(default_factory=list)
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"ok": self.ok, "nodes": self.certificate}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _opaque(e: MorphExpr, queue: list, counter) -> MorphExpr:
    """Replace maximal trace subterms by boxes decorated with their
    conclusion splits, queueing the nodes for their own layer checks."""

    def leaf(x: MorphExpr) -> MorphExpr:
        if not isinstance(x, Trace):
            return x
        idx = next(counter)
        queue.append((idx, x))
        return Box(BoxSig(f"tr_{idx}", x.dom, x.cod, x.conclusion_split()))

    return fold(e, leaf, _rebuild_comp, _rebuild_tensor)


def _rebuild_comp(x: Comp, first: MorphExpr, second: MorphExpr) -> MorphExpr:
    return Comp(first, second)


def _rebuild_tensor(x: Tensor, top: MorphExpr, bottom: MorphExpr) -> MorphExpr:
    return Tensor(top, bottom)


def check_annotated(e: MorphExpr, claim: Split) -> CheckResult:
    """Verify every trace annotation and the top-level claim.

    Each layer (the expression with its immediate trace subterms turned
    opaque) is elaborated and checked geometrically; a trace node's body
    is checked against its annotation.  Returns per-node certificates
    and, on failure, the first offending path or loop.
    """
    counter = itertools.count()
    queue: list[tuple[int, Trace]] = []
    result = CheckResult(ok=True)

    top_layer = _opaque(e, queue, counter)
    layers: list[tuple[str, MorphExpr, Split, dict]] = [
        ("top", top_layer, claim, {"node": "top", "claim": str(claim)})
    ]
    while queue:
        idx, tr = queue.pop(0)
        body_layer = _opaque(tr.body, queue, counter)
        a, b, c, d = tr.corners
        entry = {
            "node": f"tr_{idx}",
            "loop": str(tr.loop),
            "corners": f"{a}|{b} -> {c}|{d}",
        }
        layers.append((f"tr_{idx}", body_layer, tr.annotation, entry))

    for _, layer, layer_claim, entry in layers:
        diagram = elaborate(layer)
        bad = geometric_witness(diagram, layer_claim)
        entry["ok"] = bad is None
        result.certificate.append(entry)
        if bad is not None and result.ok:
            result.ok = False
            result.witness = {"node": entry["node"], **bad.to_json()}
    return result


def infer_trace_annotations(
    e: MorphExpr, claim: Split, max_nodes: int = 3
) -> MorphExpr | None:
    """Brute-force annotation search for a lightly traced expression.

    The loop word and its position are part of each trace node (they fix
    the feedback wiring), so the only annotation freedom left is how many
    body outputs are claimed unguarded ahead of the guarded block.  Tries
    every combination across all trace nodes and returns a re-annotated
    expression that checks under ``claim``, or None.  Refuses expressions
    with more than ``max_nodes`` trace nodes.
    """
    from .expressions import trace as mk_trace

    # trace nodes in preorder, each with its rank in the fold's (postorder) visits
    rank = itertools.count()
    nodes: list[tuple[int, Trace]] = fold(
        e,
        lambda x: [],
        lambda x, first, second: first + second,
        lambda x, top, bottom: top + bottom,
        lambda x, body: [(next(rank), x), *body],
    )
    if len(nodes) > max_nodes:
        raise ValueError(f"refusing inference with more than {max_nodes} trace nodes")

    ranges = [range(len(t.body.cod) - len(t.loop) + 1) for _, t in nodes]
    for combo in itertools.product(*ranges):
        choice = {r: c_len for (r, _), c_len in zip(nodes, combo)}
        rank = itertools.count()

        def retrace(x: Trace, body: MorphExpr) -> MorphExpr:
            return mk_trace(x.loop, body, len(x.corners[0]), choice[next(rank)])

        try:
            candidate = fold(e, lambda x: x, _rebuild_comp, _rebuild_tensor, retrace)
        except Exception:
            continue
        if check_annotated(candidate, claim).ok:
            return candidate
    return None
