"""Random well-typed expressions, accepted traced expressions, and
feedback diagrams for the property suites.

Expressions are built as layered circuits: each slice tensors fresh
boxes, identities, and adjacent swaps over the current word.  Traced
expressions wrap a trace around a derivable promise of a trace-free
core, so they are accepted by construction.  Diagrams are built by
matching box gates and boundary ports atom by atom, which freely
produces cycles and bare wires.

The draws are part of the contract: a seed names the same samples on
every version (``tests/test_generators.py`` pins them), so benchmark
inputs and sampled tests stay comparable.  Two rules keep the stream
while skipping numpy's per-call overhead:

* pick an atom as ``atoms[int(rng.integers(0, len(atoms)))]``, the draw
  ``Generator.choice`` makes, not by ``choice`` itself;
* draw a split's masks bit by bit, in gate order (``_rand_mask``), and
  build it with ``Split._of``.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

from .diagrams import Diagram, DiagramIndex
from .expressions import Box, Comp, Id, MorphExpr, Sym, Tensor, trace as mk_trace
from .guardedness import derivable_splits
from .signatures import BoxSig, ObjectExpr, Split, corner_split, mk_split
from .synthesis import loop_perms

ATOMS = ("A", "B", "C", "D")


def rand_word(rng, atoms, lo: int, hi: int) -> ObjectExpr:
    k = int(rng.integers(lo, hi + 1))
    n = len(atoms)
    return ObjectExpr(tuple(atoms[int(rng.integers(0, n))] for _ in range(k)))


def _rand_mask(rng, n: int, p: float) -> int:
    """A mask of ``n`` gates, each set with probability ``p``: one draw
    per gate, in gate order."""
    m = 0
    for g in range(n):
        if rng.random() < p:
            m |= 1 << g
    return m


def rand_split(rng, n_in: int, n_out: int) -> Split:
    ui = _rand_mask(rng, n_in, 0.5)
    go = _rand_mask(rng, n_out, 0.5)
    return Split._of(n_in, n_out, ui, go)


def rand_trace_free_expr(
    rng,
    max_boxes: int = 8,
    n_atoms: int = 4,
    max_width: int = 5,
    max_slices: int = 4,
) -> MorphExpr:
    atoms = ATOMS[:n_atoms]
    counter = [0]

    def fresh_box(dom: ObjectExpr) -> BoxSig:
        cod = rand_word(rng, atoms, 0 if len(dom) else 1, 2)
        counter[0] += 1
        name = f"b{counter[0]}"
        return BoxSig(name, dom, cod, rand_split(rng, len(dom), len(cod)))

    word = rand_word(rng, atoms, 1, max_width)
    expr: MorphExpr = Id(word)
    boxes_left = max_boxes
    for _ in range(int(rng.integers(1, max_slices + 1))):
        pieces: list[MorphExpr] = []
        i = 0
        n = len(word)
        while i < n:
            roll = rng.random()
            if roll < 0.45 and boxes_left > 0:
                take = int(rng.integers(1, min(2, n - i) + 1))
                sig = fresh_box(word[i : i + take])
                pieces.append(Box(sig))
                boxes_left -= 1
                i += take
            elif roll < 0.6 and i + 1 < n:
                pieces.append(Sym(word[i : i + 1], word[i + 1 : i + 2]))
                i += 2
            else:
                pieces.append(Id(word[i : i + 1]))
                i += 1
        if boxes_left > 0 and rng.random() < 0.15 and len(word) < max_width:
            sig = fresh_box(ObjectExpr())
            pieces.insert(int(rng.integers(0, len(pieces) + 1)), Box(sig))
            boxes_left -= 1
        if not pieces:
            break
        slice_expr = reduce(Tensor, pieces)
        if len(slice_expr.cod) > max_width:
            continue
        expr = Comp(expr, slice_expr)
        word = expr.cod
    return expr


def wrap_in_trace(rng, base: MorphExpr, claim_a, claim_d) -> tuple[MorphExpr, Split] | None:
    """Close one matching promised pair of ``base`` into a feedback loop.

    ``claim_a``/``claim_d`` must be a derivable promise.  Returns the
    traced expression and its conclusion claim, or None when no input in
    claim_a shares an atom with an output in claim_d.
    """
    dom, cod = base.dom, base.cod
    pairs = [
        (i, j)
        for i in sorted(claim_a)
        for j in sorted(claim_d)
        if dom[i] == cod[j]
    ]
    if not pairs:
        return None
    i, j = pairs[int(rng.integers(0, len(pairs)))]
    split = mk_split(len(dom), len(cod), claim_a, claim_d)
    a_gates, b_gates, c_gates, d_gates = split.corner_gates()
    # the loop gates leave the promised corners
    corners = [g for g in a_gates if g != i], b_gates, c_gates, [g for g in d_gates if g != j]
    perm_pre, perm_post = loop_perms(list(dom), list(cod), i, j, corners)
    body = Comp(Comp(perm_pre, base), perm_post)
    a_len, c_len = len(corners[0]), len(c_gates)
    traced = mk_trace(ObjectExpr((dom[i],)), body, a_len, c_len)
    return traced, corner_split(len(traced.dom), len(traced.cod), a_len, c_len)


def rand_accepted_traced(rng, max_boxes: int = 6) -> tuple[MorphExpr, Split] | None:
    """A traced expression plus a claim that check_annotated accepts,
    built by closing loops over derivable promises."""
    base = rand_trace_free_expr(rng, max_boxes=max_boxes)
    maxes = sorted(
        derivable_splits(base), key=lambda ad: (sorted(ad[0]), sorted(ad[1]))
    )
    options = [(a, d) for a, d in maxes if a and d]
    if not options:
        return None
    a, d = options[int(rng.integers(0, len(options)))]
    got = wrap_in_trace(rng, base, a, d)
    if got is None:
        return None
    expr, claim = got
    if rng.random() < 0.35:
        again = wrap_in_trace(
            rng, expr, sorted(claim.unguarded_in), sorted(claim.guarded_out)
        )
        if again is not None:
            return again
    return expr, claim


def rand_guarded_diagram(
    rng,
    max_boxes: int = 6,
    n_atoms: int = 2,
    p_black: float = 0.6,
) -> tuple[Diagram, Split]:
    """A random diagram of white/black boxes with a random claim; no
    filtering, so callers sort into hypothesis-satisfying and violating
    populations themselves.  Atoms and gates match by construction, so
    the diagram is built from ids, as ``elaborate`` builds its own."""
    atoms = ATOMS[:n_atoms]
    n_boxes = int(rng.integers(1, max_boxes + 1))
    boxes = []
    for k in range(n_boxes):
        dom = rand_word(rng, atoms, 1, 2)
        cod = rand_word(rng, atoms, 1, 2)
        if rng.random() < p_black:
            split = corner_split(len(dom), len(cod), len(dom), 0)
        else:
            split = corner_split(len(dom), len(cod), 0, len(cod))
        boxes.append(BoxSig._of(f"n{k}", dom, cod, split))

    # a port is ("box", offset) from the first box gate's id, or a
    # boundary port ("din", i) or ("dout", j): its id once the boundary
    # is known
    sinks: dict[str, list] = {a: [] for a in atoms}
    sources: dict[str, list] = {a: [] for a in atoms}
    at = 0
    for sig in boxes:
        for a in sig.inputs:
            sinks[a].append(("box", at))
            at += 1
        for a in sig.outputs:
            sources[a].append(("box", at))
            at += 1

    boundary_in: list[str] = []  # atoms; the guard flags come from the claim
    boundary_out: list[str] = []
    for a in atoms:
        need = len(sinks[a]) - len(sources[a])
        extra = int(rng.integers(0, 2))
        n_din = max(0, need) + extra
        n_dout = n_din - need
        for _ in range(n_din):
            sources[a].append(("din", len(boundary_in)))
            boundary_in.append(a)
        for _ in range(n_dout):
            sinks[a].append(("dout", len(boundary_out)))
            boundary_out.append(a)

    n_in, n_out = len(boundary_in), len(boundary_out)
    first = {"din": 0, "dout": n_in, "box": n_in + n_out}
    peer = [-1] * (n_in + n_out + at)
    for a in atoms:
        src = list(sources[a])
        dst = list(sinks[a])
        order = rng.permutation(len(src))
        for (s, i), (t, j) in zip([src[int(o)] for o in order], dst):
            v, w = first[s] + i, first[t] + j
            peer[v], peer[w] = w, v

    ui = _rand_mask(rng, n_in, 0.5)
    go = _rand_mask(rng, n_out, 0.4)
    claim = Split._of(n_in, n_out, ui, go)
    bi = tuple((a, not ui >> i & 1) for i, a in enumerate(boundary_in))
    bo = tuple((a, go >> j & 1 == 1) for j, a in enumerate(boundary_out))
    boxes = tuple(boxes)
    *base, _ = accumulate((len(s.inputs) + len(s.outputs) for s in boxes), initial=n_in + n_out)
    return Diagram._of(boxes, bi, bo, DiagramIndex(boxes, n_in, n_out, base, peer)), claim
