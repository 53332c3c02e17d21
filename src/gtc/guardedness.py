"""Deciding guardedness claims, geometrically and structurally.

* ``geometric_check`` inspects the port graph: a claim holds when no
  unguarded path joins a claimed-unguarded input to a claimed-guarded
  output and no loop is unguarded.  A path is guarded when it crosses
  some box from an unguarded input gate to a guarded output gate.  The
  diagram's cached ``DiagramIndex`` answers both questions, with one
  reach mask per boundary input.

* ``structural_reach`` runs the structural rules bottom-up over an
  expression in one fold, giving the same shape: one mask per input of
  the outputs no derivation can guard once that input is unguarded.  On
  trace-free expressions the two deciders agree; the test suite
  exercises that equivalence as an oracle.  ``derivable_splits`` lists
  the maximal derivable claims it implies, one per union of its masks.

* ``check_annotated`` verifies a traced expression layer by layer:
  each trace node is read as a box carrying its conclusion split, and
  each resulting trace-free layer is decided structurally.  Only a
  failing layer is elaborated, to find its geometric witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagrams import Diagram, DiagramIndex, Port, check_fits, elaborate
from .expressions import Box, Comp, MorphExpr, Sym, Tensor, Trace, fold, trace as mk_trace
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
    check_fits(claim, len(d.boundary_in), len(d.boundary_out))
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
    return reach_table(d.index.reach_in)


# --- structural derivation -------------------------------------------------


class TraceNotAllowed(ValueError):
    """The structural rules only cover trace-free expressions."""


def _union(masks: list[int], a: int) -> int:
    """The union of ``masks[i]`` over the bits ``i`` of ``a``."""
    out = 0
    while a:
        low = a & -a
        out |= masks[low.bit_length() - 1]
        a ^= low
    return out


def structural_reach(e: MorphExpr, traces: list[Trace] | None = None) -> list[int]:
    """Per input gate ``i``, the mask of outputs that no derivation can
    guard once ``i`` is claimed unguarded: the claim with unguarded inputs
    ``a`` and guarded outputs ``g`` is derivable iff ``g`` misses the
    union of these masks over the bits of ``a``.

    A trace node counts as a box with its conclusion split and is
    appended to ``traces``; without a list it raises TraceNotAllowed.
    """

    def leaf(x: MorphExpr) -> list[int]:
        if isinstance(x, Trace):
            if traces is None:
                raise TraceNotAllowed("expression contains a trace node")
            traces.append(x)
            s = x.conclusion_split()
        elif isinstance(x, Box):
            s = x.sig.split
        else:  # wires only: input i feeds output perm[i]
            k, r = (len(x.left), len(x.right)) if isinstance(x, Sym) else (0, 0)
            return [1 << (i + r if i < k else i - k) for i in range(len(x.dom))]
        # an unguarded input reaches every output the box does not promise,
        # a guarded one reaches them all
        full = (1 << len(x.cod)) - 1
        ui, rest = s.unguarded_in_mask, full & ~s.guarded_out_mask
        return [rest if ui >> i & 1 else full for i in range(len(x.dom))]

    def comp(x: Comp, first: list[int], second: list[int]) -> list[int]:
        return [_union(second, m) for m in first]

    def tensor(x: Tensor, top: list[int], bottom: list[int]) -> list[int]:
        shift = len(x.top.cod)
        return top + [m << shift for m in bottom]

    return fold(e, leaf, comp, tensor)


def reach_table(reach: list[int]) -> list[int]:
    """Per mask ``a`` of inputs, the union of ``reach`` over its bits."""
    table = [0]
    for r in reach:
        # the masks with this input's bit: each mask below them plus its reach
        table += [t | r for t in table]
    return table


def _derives(reach: list[int], claim: Split) -> bool:
    return _union(reach, claim.unguarded_in_mask) & claim.guarded_out_mask == 0


# widest expression, in domain plus codomain gates, that derivable_splits
# takes: the maximal claims can number 2^(width/2), as for an identity
MAX_SPLIT_WIDTH = 20


def derivable_splits(e: MorphExpr) -> frozenset[tuple[frozenset[int], frozenset[int]]]:
    """All derivable claims of a trace-free expression, given by their
    maximal elements (claims are downward closed under weakening).

    Raises SignatureError if the expression is wider than
    ``MAX_SPLIT_WIDTH`` (20) domain plus codomain gates: the listing is
    exponential in width.
    """
    width = len(e.dom) + len(e.cod)
    if width > MAX_SPLIT_WIDTH:
        raise SignatureError(
            f"subterm {e.dom} -> {e.cod} is {width} gates wide; derivable_splits "
            f"takes at most {MAX_SPLIT_WIDTH}"
        )
    full = (1 << len(e.cod)) - 1
    reach = structural_reach(e)
    unions = {0}
    for r in reach:
        unions |= {u | r for u in unions}
    # a maximal claim leaves unguarded some union u of reach masks and every
    # input whose mask lies in u, and promises the outputs outside u
    maxes = set()
    for u in unions:
        a = sum(1 << i for i, r in enumerate(reach) if r & ~u == 0)
        maxes.add((_gate_set(a), _gate_set(full & ~u)))
    return frozenset(maxes)


def claim_derivable(
    maxes: frozenset[tuple[frozenset[int], frozenset[int]]], claim: Split
) -> bool:
    ui, go = claim.unguarded_in, claim.guarded_out
    for a, d in maxes:
        if ui <= a and go <= d:
            return True
    return False


def split_derivable(e: MorphExpr, claim: Split) -> bool:
    """Is the claim derivable for this trace-free expression?"""
    check_fits(claim, len(e.dom), len(e.cod))
    return _derives(structural_reach(e), claim)


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


def _opaque(e: MorphExpr) -> MorphExpr:
    """Replace maximal trace subterms by boxes decorated with their
    conclusion splits."""

    def leaf(x: MorphExpr) -> MorphExpr:
        if not isinstance(x, Trace):
            return x
        return Box(BoxSig("opaque", x.dom, x.cod, x.conclusion_split()))

    return fold(e, leaf, _rebuild_comp, _rebuild_tensor)


def _rebuild_comp(x: Comp, first: MorphExpr, second: MorphExpr) -> MorphExpr:
    return Comp(first, second)


def _rebuild_tensor(x: Tensor, top: MorphExpr, bottom: MorphExpr) -> MorphExpr:
    return Tensor(top, bottom)


def check_annotated(e: MorphExpr, claim: Split) -> CheckResult:
    """Verify every trace annotation and the top-level claim.

    Each layer (the expression with its immediate trace subterms read as
    boxes carrying their conclusion splits) is decided structurally; a
    trace node's body is checked against its annotation.  Trace nodes are
    numbered ``tr_0, tr_1, ...`` breadth first.  Returns per-node
    certificates and, on failure, the first failing layer's shortest
    offending path in its elaborated diagram.
    """
    check_fits(claim, len(e.dom), len(e.cod))
    result = CheckResult(ok=True)
    traces: list[Trace] = []
    layers = [(e, claim, {"node": "top", "claim": str(claim)})]
    for layer, layer_claim, entry in layers:  # the list grows while it is read
        found = len(traces)
        entry["ok"] = _derives(structural_reach(layer, traces), layer_claim)
        result.certificate.append(entry)
        if not entry["ok"] and result.ok:
            result.ok = False
            bad = geometric_witness(elaborate(_opaque(layer)), layer_claim)
            result.witness = {"node": entry["node"], **bad.to_json()}
        for idx in range(found, len(traces)):
            tr = traces[idx]
            a, b, c, d = tr.corners
            entry = {"node": f"tr_{idx}", "loop": str(tr.loop), "corners": f"{a}|{b} -> {c}|{d}"}
            layers.append((tr.body, tr.annotation, entry))
    return result


def infer_trace_annotations(e: MorphExpr, claim: Split) -> MorphExpr | None:
    """Annotate every trace node as strongly as its body allows.

    The loop word and its position are part of each trace node (they fix
    the feedback wiring), so the only annotation freedom left is how many
    body outputs are claimed unguarded ahead of the guarded block.  Bottom
    up, each node claims the fewest that its re-annotated body derives.  A
    stronger inner conclusion never makes an outer body derive less, so if
    any choice checks, this one does.  Returns the re-annotated expression
    if it checks under ``claim``, else None.
    """

    def retrace(x: Trace, body: MorphExpr) -> MorphExpr:
        reach, a_len = structural_reach(body, []), len(x.corners[0])
        for c_len in range(len(body.cod) - len(x.loop) + 1):
            candidate = mk_trace(x.loop, body, a_len, c_len)
            if _derives(reach, candidate.annotation):
                return candidate
        return candidate  # no promise holds: the check below fails

    candidate = fold(e, lambda x: x, _rebuild_comp, _rebuild_tensor, retrace)
    return candidate if check_annotated(candidate, claim).ok else None
