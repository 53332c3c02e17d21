"""The cached ``DiagramIndex`` answers every graph question as the direct
traversals in ``graph_reference`` do, on seeded random diagrams, and
``diagram_iso`` decides as the backtracking search does."""

from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest

import graph_reference as ref
from gtc import diagrams
from gtc.diagrams import Diagram, diagram_iso, elaborate, sccs, tarjan
from gtc.expressions import parse_source
from gtc.generators import rand_accepted_traced, rand_guarded_diagram, rand_trace_free_expr
from gtc.guardedness import geometric_check, geometric_witness
from gtc.signatures import BoxSig, mk_split, parse_box_decl
from gtc.synthesis import acyclic_to_expr, compute_uv, loop_wires

MAX_WIDTH_ALL_CLAIMS = 8
SAMPLED_CLAIMS = 64


def _guarded_diagrams():
    rng = np.random.default_rng(21)
    return [rand_guarded_diagram(rng, max_boxes=int(rng.integers(1, 13)))[0] for _ in range(250)]


def _elaborated_diagrams():
    rng = np.random.default_rng(22)
    out = [elaborate(rand_trace_free_expr(rng, max_boxes=8, n_atoms=4)) for _ in range(200)]
    while len(out) < 300:
        got = rand_accepted_traced(rng)
        if got is not None:
            out.append(elaborate(got[0]))
    return out


def _claims(d, rng):
    n_in, n_out = len(d.boundary_in), len(d.boundary_out)
    if n_in + n_out <= MAX_WIDTH_ALL_CLAIMS:
        bits = product(product((0, 1), repeat=n_in), product((0, 1), repeat=n_out))
    else:
        bits = [
            (rng.integers(0, 2, n_in), rng.integers(0, 2, n_out)) for _ in range(SAMPLED_CLAIMS)
        ]
    for a, dd in bits:
        yield mk_split(
            n_in, n_out, [i for i in range(n_in) if a[i]], [j for j in range(n_out) if dd[j]]
        )


@pytest.mark.parametrize(
    "make,verdicts",
    # accepted traced expressions close only guarded loops
    [(_guarded_diagrams, {None, "path", "loop"}), (_elaborated_diagrams, {None, "path"})],
)
def test_index_matches_direct_traversals(make, verdicts):
    rng = np.random.default_rng(23)
    corpus, loops = make(), 0
    kinds = Counter()
    for d in corpus:
        reach = ref.unguarded_reach(d)
        assert d.index.reach_out == [
            sum(1 << j for j in range(len(d.boundary_out)) if ("dout", j) in reach[p] | {p})
            for p in d.all_ports()
        ]
        assert d.index.unguarded_loop == (ref.find_unguarded_loop(d) is not None)
        assert loop_wires(d) == sorted(ref.loop_wires(d))  # in source-id order
        loops += bool(loop_wires(d))
        for claim in _claims(d, rng):
            want = ref.geometric_witness(d, claim)
            got = geometric_witness(d, claim)
            assert got == want
            assert geometric_check(d, claim) == (want is None)
            assert compute_uv(d, claim) == ref.compute_uv(d, claim)
            kinds[want and want.kind] += 1
    # the corpus holds cyclic and acyclic diagrams and the expected verdicts
    # and witnesses
    assert 0 < loops < len(corpus) and set(kinds) == verdicts, kinds


def test_acyclic_diagram_runs_no_tarjan(monkeypatch):
    # the topological pass orders an acyclic diagram's full graph, and its
    # unguarded graph, a subgraph, closes in the same order
    calls = []
    real = diagrams.tarjan
    monkeypatch.setattr(diagrams, "tarjan", lambda adj: calls.append(adj) or real(adj))
    rng = np.random.default_rng(28)
    for _ in range(50):
        e = rand_trace_free_expr(rng, max_boxes=8, n_atoms=4)
        d = elaborate(e)
        claim = mk_split(len(e.dom), len(e.cod), range(len(e.dom)), range(len(e.cod)))
        geometric_witness(d, claim), loop_wires(d), d.index.reach_out, acyclic_to_expr(d)
        assert not d.index.unguarded_loop and calls == []


def _random_graphs():
    """Adjacency lists: random ones, with and without back edges, and the
    full and unguarded graphs of elaborated and generated diagrams."""
    rng = np.random.default_rng(29)
    graphs = []
    for _ in range(200):
        n = int(rng.integers(0, 30))
        relabel = [int(v) for v in rng.permutation(n)]
        adj = [[] for _ in range(n)]
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            v, w = sorted(int(x) for x in rng.integers(0, n, 2))
            if v < w or rng.random() < 0.1:  # forward edges, a few back edges and loops
                adj[relabel[v]].append(relabel[w])
        graphs.append(adj)
    for _ in range(60):
        d = elaborate(rand_trace_free_expr(rng, max_boxes=8, n_atoms=4))
        graphs += [d.index.full, d.index.unguarded]
        d = rand_guarded_diagram(rng, max_boxes=12)[0]
        graphs += [d.index.full, d.index.unguarded]
    return graphs


def test_sccs_orders_acyclic_graphs_and_defers_cycles_to_tarjan():
    acyclic = cyclic = 0
    for adj in _random_graphs():
        comp, closed = sccs(adj)
        if len(set(tarjan(adj)[0])) < len(adj) or any(v in adj[v] for v in range(len(adj))):
            cyclic += 1
            assert (comp, closed) == tarjan(adj)
            continue
        acyclic += 1
        assert sorted(closed) == list(range(len(adj)))
        assert all(comp[v] == c for c, v in enumerate(closed))
        for v, succ in enumerate(adj):
            assert all(comp[w] < comp[v] for w in succ)
    assert acyclic > 200 and cyclic > 50, (acyclic, cyclic)


def test_tarjan_components_in_reverse_topological_order():
    # 0 -> 1 <-> 2 -> 3, plus an isolated 4
    adj = [[1], [2], [1, 3], [], []]
    comp, closed = tarjan(adj)
    assert sorted(closed) == [0, 1, 2, 3, 4]
    assert comp[1] == comp[2] and len(set(comp)) == 4
    assert comp[3] < comp[1] < comp[0]
    assert [comp[v] for v in closed] == sorted(comp)
    for v, succ in enumerate(adj):
        assert all(comp[w] <= comp[v] for w in succ)


def test_tarjan_long_chain_needs_no_recursion():
    n = 20_000
    comp, closed = tarjan([[v + 1] for v in range(n - 1)] + [[0]])
    assert len(closed) == n and set(comp) == {0}


# --- isomorphism --------------------------------------------------------------


def _rewired(d: Diagram, rng) -> Diagram:
    """``d`` with the targets of two random wires swapped, when the two are
    distinct and carry one atom."""
    wires = sorted(d.wires)
    (s1, t1), (s2, t2) = (wires[int(i)] for i in rng.integers(0, len(wires), 2))
    if s1 == s2 or d.port_atom(s1) != d.port_atom(s2):
        return d
    swapped = set(d.wires) - {(s1, t1), (s2, t2)} | {(s1, t2), (s2, t1)}
    return Diagram(d.boxes, frozenset(swapped), d.boundary_in, d.boundary_out)


def _one_name(d: Diagram) -> Diagram:
    boxes = tuple(BoxSig("n", sig.inputs, sig.outputs, sig.split) for sig in d.boxes)
    return Diagram(boxes, d.wires, d.boundary_in, d.boundary_out)


@pytest.mark.parametrize("n_atoms,rename", [(2, False), (1, True)], ids=["named", "one-name"])
def test_iso_matches_backtracking_search(n_atoms, rename):
    # with one atom and one box name, boxes of a shape share their signature
    rng = np.random.default_rng(24)
    verdicts = Counter()
    for k in range(800):
        d = rand_guarded_diagram(rng, max_boxes=7, n_atoms=n_atoms)[0]
        d = _one_name(d) if rename else d
        d2 = ref.relabel(d, [int(b) for b in rng.permutation(len(d.boxes))])
        d2 = _rewired(d2, rng) if k % 2 else d2
        want = ref.diagram_iso(d, d2)
        assert diagram_iso(d, d2) == diagram_iso(d2, d) == want
        verdicts[want] += 1
    assert min(verdicts.values()) > 100, verdicts


LOOPS = "box f : U | I -> I | U\n" + "".join(
    f"let loops{a}{b} = tr[U: I|I -> I|I]{{ {' ; '.join(['f'] * a)} }}"
    f" (*) tr[U: I|I -> I|I]{{ {' ; '.join(['f'] * b)} }}\n"
    for a, b in [(2, 3), (1, 4), (3, 2)]
)


def test_iso_pairs_closed_loops_of_identical_boxes():
    exprs = parse_source(LOOPS).exprs
    d23, d14, d32 = (elaborate(exprs[f"loops{n}"]) for n in (23, 14, 32))
    assert len(d23.boxes) == len(d14.boxes) == 5 and not d23.boundary_in
    rng = np.random.default_rng(25)
    for _ in range(10):
        shuffled = ref.relabel(d23, [int(b) for b in rng.permutation(5)])
        assert diagram_iso(d23, shuffled) and diagram_iso(shuffled, d32)
        assert not diagram_iso(shuffled, d14) and not diagram_iso(d14, shuffled)


def test_failed_grow_leaves_no_pairing_behind():
    # a closed ring s -> s -> s -> s -> t -> s: a first box paired with the
    # wrong s pairs its neighbours before it meets t, and every such try
    # must be undone before the right one can succeed
    s, t = (parse_box_decl(f"box {n} : U | I -> I | U") for n in "st")
    ring = Diagram(
        (s, s, s, s, t),
        frozenset((("bout", b, 0), ("bin", (b + 1) % 5, 0)) for b in range(5)),
        (),
        (),
    )
    for perm in permutations(range(5)):
        assert diagram_iso(ring, ref.relabel(ring, list(perm)))
    short = Diagram(  # the t box closes a loop on itself
        (s, s, s, s, t),
        frozenset({*((("bout", b, 0), ("bin", (b + 1) % 4, 0)) for b in range(4)),
                   (("bout", 4, 0), ("bin", 4, 0))}),
        (),
        (),
    )
    assert not ref.diagram_iso(ring, short)
    assert not diagram_iso(ring, short) and not diagram_iso(short, ring)
