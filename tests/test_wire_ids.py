"""A diagram stores its wires as integer ids.  The JSON export, ``==``
and the checked numbering give what the design that stored a frozenset
of port tuples gave (``graph_reference``), and the producers whose
output is well-formed by construction run no checked numbering."""

import json
from collections import Counter

import numpy as np

import graph_reference as ref
from gtc import synthesis
from gtc.diagrams import Diagram, DiagramError, DiagramIndex, elaborate, export_json, import_json
from gtc.expressions import parse_source
from gtc.generators import rand_accepted_traced, rand_guarded_diagram, rand_trace_free_expr
from gtc.signatures import mk_split, parse_claim
from gtc.synthesis import (
    SynthesisError,
    compute_uv,
    cut_wire,
    find_cut_wire,
    synthesis_preconditions,
    synthesize,
)
from test_graph_index import _rewired


def _pipeline(rng, n_boxes: int, lanes: int, p_guard: float):
    """A serial program of ``n_boxes`` boxes over one or two lanes, of the
    shapes the ``roundtrip`` benchmark draws, with the claim that every
    input is unguarded and every output guarded."""
    decls: list[str] = []

    def box(dom: str, guarded: bool) -> str:
        name = f"s{len(decls)}"
        decls.append(f"box {name} : {dom} | I -> I | {dom}" if guarded else
                     f"box {name} : I | {dom} -> {dom} | I")
        return name

    slices = []
    while len(decls) < n_boxes - 1:
        guarded = bool(rng.random() < p_guard)
        roll = rng.random() if lanes == 2 else 0.5
        if roll < 0.3:
            slices.append(f"{box('X', guarded)} (*) {box('Y', guarded)}")
        elif roll < 0.6:
            slices.append(box("X*Y" if lanes == 2 else "X", guarded))
        elif roll < 0.8:
            slices.append(f"{box('X', guarded)} (*) id[Y]")
        else:
            slices.append(f"id[X] (*) {box('Y', guarded)}")
    word = "X*Y" if lanes == 2 else "X"
    slices.append(box(word, True))
    e = parse_source("\n".join(decls) + "\nlet main = " + " ; ".join(slices) + "\n").exprs["main"]
    return e, parse_claim(f"{word} | I -> I | {word}", e.dom, e.cod)


def _expressions():
    """(expression, claim) pairs: trace-free, accepted traced and pipelines."""
    rng = np.random.default_rng(31)
    out = [(rand_trace_free_expr(rng, max_boxes=8, n_atoms=4), None) for _ in range(150)]
    while len(out) < 250:
        got = rand_accepted_traced(rng)
        if got is not None:
            out.append(got)
    for n in (50, 190, 330, 470, 600):
        for lanes, p_guard in [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)]:
            out.append(_pipeline(rng, n, lanes, p_guard))
    return out


def _diagrams():
    """Elaborated diagrams, random guarded diagrams built from port tuples,
    and the latter with two wires' targets swapped."""
    rng = np.random.default_rng(32)
    out = [elaborate(e, claim) for e, claim in _expressions()]
    guarded = [rand_guarded_diagram(rng, max_boxes=int(rng.integers(1, 30)))[0] for _ in range(200)]
    return out + guarded + [_rewired(d, rng) for d in guarded]


def _tuple_built(d: Diagram) -> Diagram:
    """``d`` built again through the checked constructor, from its wires
    as a new frozenset of port tuples."""
    return Diagram(d.boxes, frozenset(set(d.wires)), d.boundary_in, d.boundary_out)


def test_elaborate_gives_the_reference_wires_and_ids():
    for e, claim in _expressions():
        d, old = elaborate(e, claim), ref.elaborate(e, claim)
        assert d.wires == old.wires and d.index.peer == old.index.peer
        assert d == old and ref.equal(d, old) and hash(d) == hash(old)


def test_export_and_import_match_the_tuple_design():
    for d in _diagrams():
        text = export_json(d)
        assert text == ref.export_json(d)
        back = import_json(text)
        assert export_json(back) == text and back.wires == d.wires
        # the ids pair the ends that the old numbering paired
        ix = back.index
        src, dst = ref.number_wires(d.boxes, d.wires, d.boundary_in, d.boundary_out)
        assert sorted(zip(src, dst)) == sorted((s, ix.peer[s]) for s in ix.sources)
        assert ix.sources == sorted(src, key=lambda s: (s < ix.n_in, s))
        assert sorted(d.wires) == [(ix.ports[s], ix.ports[ix.peer[s]]) for s in ix.sources]


def test_equality_verdicts_and_hashes_match_the_frozenset_design():
    rng = np.random.default_rng(33)
    corpus = _diagrams()
    verdicts = Counter()
    for k, d in enumerate(corpus):
        n_in, n_out = len(d.boundary_in), len(d.boundary_out)
        others = [
            _tuple_built(d),
            import_json(export_json(d)),
            _rewired(d, rng),
            ref.relabel(d, [int(b) for b in rng.permutation(len(d.boxes))]),
            d.with_claim(mk_split(n_in, n_out, range(n_in))),
            corpus[k - 1],
        ]
        for x in others:
            want = ref.equal(d, x)
            assert (d == x) == (x == d) == want and (d != x) != want
            if want:
                assert hash(d) == hash(x)
            verdicts[want] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_the_cut_diagram_matches_the_one_built_from_tuples():
    rng = np.random.default_rng(34)
    cut = 0
    while cut < 60:
        d, claim = rand_guarded_diagram(rng, max_boxes=int(rng.integers(2, 30)))
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError:
            continue
        if d.index.full_acyclic:
            continue
        cuts = synthesis._cuts(d, claim)
        ports = d.index.ports
        pairs = [(ports[s], ports[t]) for s, t in cuts]
        n_in, n_out = len(d.boundary_in), len(d.boundary_out)
        wires = d.wires.difference(pairs).union(
            [(("din", n_in + k), t) for k, (_, t) in enumerate(pairs)]
            + [(s, ("dout", n_out + k)) for k, (s, _) in enumerate(pairs)]
        )
        atoms = tuple(d.port_atom(s) for s, _ in pairs)
        bi = d.boundary_in + tuple((a, False) for a in atoms)
        bo = d.boundary_out + tuple((a, True) for a in atoms)
        want = Diagram(d.boxes, wires, bi, bo)
        got = synthesis._opened(d, cuts)
        assert got == want and got.wires == want.wires and got.index.base == want.index.base
        assert export_json(got) == ref.export_json(want)
        cut += 1


def _broken(d: Diagram, rng) -> frozenset:
    """``d``'s wires with one of them dropped, turned round, re-pointed
    anywhere, or joined by a wire from a source that already has one."""
    wires = sorted(d.wires)
    s, t = wires[int(rng.integers(len(wires)))]
    ports = d.all_ports() + [("din", len(d.boundary_in)), ("bin", len(d.boxes), 0), ("bout", 0, 9)]
    anywhere = ports[int(rng.integers(len(ports)))]
    kind = int(rng.integers(4))
    if kind == 0:
        return d.wires - {(s, t)}
    if kind == 1:
        return d.wires - {(s, t)} | {(t, s)}
    if kind == 2:
        return d.wires - {(s, t)} | {(s, anywhere)}
    return d.wires | {(s, anywhere)}


def test_checked_numbering_fails_as_the_reference_does():
    rng = np.random.default_rng(35)
    outcomes = Counter()
    for _ in range(600):
        d, _ = rand_guarded_diagram(rng, max_boxes=int(rng.integers(1, 8)))
        if not d.wires:
            continue
        wires = _broken(d, rng)
        try:
            want = ref.number_wires(d.boxes, wires, d.boundary_in, d.boundary_out)
        except DiagramError as exc:
            want = str(exc)
        try:
            got = DiagramIndex.checked(d.boxes, wires, d.boundary_in, d.boundary_out)
        except DiagramError as exc:
            assert str(exc) == want
            outcomes[want.split()[0]] += 1
        else:
            assert not isinstance(want, str), want
            assert sorted(zip(*want)) == sorted((s, got.peer[s]) for s in got.sources)
            outcomes["ok"] += 1
    assert set(outcomes) == {"ok", "wire", "port"}, outcomes


def test_a_wire_listed_twice_in_json_is_read_once():
    # a frozenset of the wires read held it once
    d = elaborate(_pipeline(np.random.default_rng(36), 6, 2, 0.5)[0])
    text = export_json(d)
    payload = json.loads(text)
    payload["wires"].insert(3, payload["wires"][0])
    back = import_json(json.dumps(payload))
    assert back == d and export_json(back) == text


def test_trusted_producers_run_no_checked_numbering(monkeypatch):
    calls = []
    real = DiagramIndex.checked
    counted = staticmethod(lambda *args: calls.append(args) or real(*args))
    rng = np.random.default_rng(37)
    exprs = _expressions()
    cyclic = []
    while len(cyclic) < 20:
        d, claim = rand_guarded_diagram(rng, max_boxes=int(rng.integers(2, 30)))
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError:
            continue
        if not d.index.full_acyclic:
            cyclic.append((d, claim))
    monkeypatch.setattr(DiagramIndex, "checked", counted)
    for e, claim in exprs:
        d = elaborate(e, claim)
        d.with_claim(mk_split(len(e.dom), len(e.cod)))
    for d, claim in cyclic:
        synthesize(d, claim)
        cut_wire(d, find_cut_wire(d, *compute_uv(d, claim)), claim)
    assert calls == []
    import_json(export_json(cyclic[0][0]))  # a checked entry point
    assert len(calls) == 1


def test_a_frozenset_given_is_kept_as_the_view():
    d = elaborate(_pipeline(np.random.default_rng(38), 12, 2, 0.5)[0])
    wires = frozenset(set(d.wires))
    assert Diagram(d.boxes, wires, d.boundary_in, d.boundary_out).wires is wires
    built = Diagram(d.boxes, sorted(wires), d.boundary_in, d.boundary_out)  # not a set
    assert built.wires == wires and type(built.wires) is frozenset
    assert repr(built) == repr(Diagram(d.boxes, built.wires, d.boundary_in, d.boundary_out))
