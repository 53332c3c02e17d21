import hashlib
import json
from itertools import product

import numpy as np
import pytest

import graph_reference
from graph_reference import infer_trace_annotations, split_derivable

from gtc.counterexamples import equal_morphisms_different_typing
from gtc.diagrams import DiagramError, diagram_iso, elaborate
from gtc.expressions import parse_expr, print_expr
from gtc.generators import (
    rand_accepted_traced,
    rand_guarded_diagram,
    rand_split,
    rand_trace_free_expr,
    wrap_in_trace,
)
from gtc.guardedness import (
    _derives,
    _opaque,
    check_annotated,
    claim_derivable,
    derivable_splits,
    geometric_check,
    geometric_reach_table,
    reach_table,
    structural_reach,
)
from gtc.synthesis import SynthesisError, synthesize
from gtc.expressions import Box, Comp, Id, Sym, Tensor, Trace, fold, trace
from gtc.signatures import SignatureError, mk_split, obj, parse_box_decl

SIGS = {
    s.name: s
    for s in map(
        parse_box_decl,
        [
            "box blk : A | I -> I | A",  # black 1-1
            "box wht : I | A -> A | I",  # white 1-1
        ],
    )
}


def test_reach_black_box():
    d = elaborate(parse_expr("blk", SIGS))
    reach = graph_reference.unguarded_reach(d)
    assert ("bout", 0, 0) not in reach[("bin", 0, 0)]
    assert ("dout", 0) not in reach[("din", 0)]


def test_reach_white_box():
    d = elaborate(parse_expr("wht", SIGS))
    reach = graph_reference.unguarded_reach(d)
    assert ("bout", 0, 0) in reach[("bin", 0, 0)]
    assert ("dout", 0) in reach[("din", 0)]


def test_reach_white_then_black_chain():
    d = elaborate(parse_expr("wht ; blk", SIGS))
    reach = graph_reference.unguarded_reach(d)
    assert ("bin", 1, 0) in reach[("din", 0)]  # reaches the middle wire
    assert ("dout", 0) not in reach[("din", 0)]  # but not the final output


def test_geometric_single_box_with_declared_claim():
    d = elaborate(parse_expr("blk", SIGS))
    assert geometric_check(d, mk_split(1, 1, {0}, {0}))


def test_geometric_white_box_rejects_promise():
    d = elaborate(parse_expr("wht", SIGS))
    assert not geometric_check(d, mk_split(1, 1, {0}, {0}))
    assert geometric_check(d, mk_split(1, 1, {0}, set()))
    assert geometric_check(d, mk_split(1, 1, set(), {0}))


def test_derivable_box_is_weakening_closure():
    maxes = derivable_splits(parse_expr("blk", SIGS))
    assert (frozenset({0}), frozenset({0})) in maxes
    maxes_w = derivable_splits(parse_expr("wht", SIGS))
    assert maxes_w == frozenset(
        {(frozenset({0}), frozenset()), (frozenset(), frozenset({0}))}
    )


def test_derivable_identity():
    e = parse_expr("id[A]", SIGS)
    maxes = derivable_splits(e)
    assert not claim_derivable(maxes, mk_split(1, 1, {0}, {0}))
    assert claim_derivable(maxes, mk_split(1, 1, {0}, set()))
    assert claim_derivable(maxes, mk_split(1, 1, set(), {0}))


def test_derivable_black_then_white_matches_geometry():
    e = parse_expr("blk ; wht", SIGS)
    d = elaborate(e)
    maxes = derivable_splits(e)
    for a_bits, d_bits in product([0, 1], repeat=2):
        claim = mk_split(1, 1, {0} if a_bits else set(), {0} if d_bits else set())
        assert claim_derivable(maxes, claim) == geometric_check(d, claim)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(100)
    for _ in range(150):
        e = rand_trace_free_expr(rng, max_boxes=6)
        d = elaborate(e)
        maxes = derivable_splits(e)
        n_in, n_out = len(e.dom), len(e.cod)
        for a_bits in product([0, 1], repeat=n_in):
            for d_bits in product([0, 1], repeat=n_out):
                claim = mk_split(
                    n_in,
                    n_out,
                    {i for i in range(n_in) if a_bits[i]},
                    {j for j in range(n_out) if d_bits[j]},
                )
                assert claim_derivable(maxes, claim) == geometric_check(d, claim)


def test_downward_closure():
    rng = np.random.default_rng(101)
    for _ in range(50):
        e = rand_trace_free_expr(rng, max_boxes=5)
        maxes = derivable_splits(e)
        for a, dd in maxes:
            for i in sorted(a):
                weaker = mk_split(len(e.dom), len(e.cod), a - {i}, dd)
                assert claim_derivable(maxes, weaker)


def test_check_annotated_matches_derivable_on_trace_free():
    rng = np.random.default_rng(102)
    for _ in range(50):
        e = rand_trace_free_expr(rng, max_boxes=5)
        n_in, n_out = len(e.dom), len(e.cod)
        for _ in range(5):
            a = {i for i in range(n_in) if rng.random() < 0.5}
            dd = {j for j in range(n_out) if rng.random() < 0.5}
            claim = mk_split(n_in, n_out, a, dd)
            assert check_annotated(e, claim).ok == split_derivable(e, claim)


def test_typing_gap_fixture():
    sigs, traced, composite, claim = equal_morphisms_different_typing()
    assert not check_annotated(traced, claim).ok
    assert check_annotated(composite, claim).ok
    assert diagram_iso(elaborate(traced), elaborate(composite))


def test_accepted_implies_geometric():
    rng = np.random.default_rng(103)
    done = 0
    while done < 100:
        got = rand_accepted_traced(rng)
        if got is None:
            continue
        e, claim = got
        assert check_annotated(e, claim).ok
        assert geometric_check(elaborate(e), claim)
        done += 1


def test_certificate_lists_trace_nodes():
    rng = np.random.default_rng(104)
    while True:
        got = rand_accepted_traced(rng)
        if got is None:
            continue
        e, claim = got
        res = check_annotated(e, claim)
        names = {entry["node"] for entry in res.certificate}
        assert "top" in names and any(n.startswith("tr_") for n in names)
        break


def test_inference_finds_no_annotation_for_the_gap_fixture():
    sigs, traced, composite, claim = equal_morphisms_different_typing()
    assert infer_trace_annotations(composite, claim) == composite
    # no choice of output promise rescues the traced form
    assert infer_trace_annotations(traced, claim) is None


def test_inference_annotates_nested_traces_per_node():
    # the inner body passes U to Y unguarded, so the inner node must leave Y
    # unpromised; the outer node can still promise Y, which no input reaches
    sigs = {
        s.name: s
        for s in map(parse_box_decl, ["box k : U | I -> Y | U", "box m : V | I -> I | V"])
    }
    e = parse_expr("tr[V: I|I -> Y|I]{ tr[U: I|I -> Y|I]{ k } (*) m }", sigs)
    claim = mk_split(0, 1, guarded_out=[0])
    got = infer_trace_annotations(e, claim)
    assert print_expr(got) == "tr[V: I|I -> I|Y]{ tr[U: I|I -> Y|I]{ k } (*) m }"
    assert check_annotated(got, claim).ok


# --- the all-pairs reference for the structural search ----------------------


def _antichain_all_pairs(pairs):
    # distinct pairs with a <= a2 and d <= d2 are strictly dominated
    return {
        (a, d)
        for a, d in pairs
        if not any((a, d) != (a2, d2) and a & ~a2 == 0 and d & ~d2 == 0 for a2, d2 in pairs)
    }


def _mask(gates) -> int:
    return sum(1 << g for g in gates)


def _wire_candidates(x):
    n_in, full_out = len(x.dom), (1 << len(x.cod)) - 1
    k, r = (len(x.left), len(x.right)) if isinstance(x, Sym) else (0, 0)
    perm = [i + r if i < k else i - k for i in range(n_in)]
    return {(s, full_out & ~sum(1 << perm[i] for i in range(n_in) if s >> i & 1)) for s in range(1 << n_in)}


def _derivable_splits_reference(e):
    """derivable_splits as it was first written: every node's candidates
    reduced by the all-pairs antichain."""

    def leaf(x):
        assert not isinstance(x, Trace)
        if isinstance(x, Box):
            s = x.sig.split
            n_in, n_out = len(x.dom), len(x.cod)
            return _antichain_all_pairs(
                {(_mask(s.unguarded_in), _mask(s.guarded_out)), ((1 << n_in) - 1, 0), (0, (1 << n_out) - 1)}
            )
        return _antichain_all_pairs(_wire_candidates(x))

    def comp(x, left, right):
        mid_full = (1 << len(x.first.cod)) - 1
        return _antichain_all_pairs(
            {(ag, df) for ag, dg in left for af, df in right if mid_full & ~af & ~dg == 0}
        )

    def tensor(x, top, bottom):
        si, so = len(x.top.dom), len(x.top.cod)
        return _antichain_all_pairs(
            {(a1 | (a2 << si), d1 | (d2 << so)) for a1, d1 in top for a2, d2 in bottom}
        )

    def unmask(m, n):
        return frozenset(i for i in range(n) if m >> i & 1)

    masks = fold(e, leaf, comp, tensor)
    return frozenset((unmask(a, len(e.dom)), unmask(d, len(e.cod))) for a, d in masks)


def test_derivable_splits_match_all_pairs_reference():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        e = rand_trace_free_expr(rng, max_boxes=8)
        assert derivable_splits(e) == _derivable_splits_reference(e)


def test_wire_candidates_are_an_antichain():
    # identity and symmetry leaves skip the reduction; every width below 8
    for n in range(8):
        for k in range(n + 1):
            atoms = [f"W{i}" for i in range(n)]
            for x in (Sym(obj(*atoms[:k]), obj(*atoms[k:])), Id(obj(*atoms))):
                cands = _wire_candidates(x)
                assert _antichain_all_pairs(cands) == cands
                assert derivable_splits(x) == _derivable_splits_reference(x)


def test_derivable_splits_enforces_width_limit():
    from gtc.guardedness import MAX_SPLIT_WIDTH

    # only the whole expression is listed claim by claim, so only it is limited
    assert MAX_SPLIT_WIDTH == 20
    at_limit = derivable_splits(Id(obj(*["A"] * 10)))
    assert len(at_limit) == 1 << 10
    wide_leaf = Id(obj(*["A"] * 11))
    wide_node = Tensor(Id(obj(*["A"] * 5)), Id(obj(*["A"] * 6)))
    for e, width in ((wide_leaf, 22), (wide_node, 22)):
        with pytest.raises(SignatureError, match=f"is {width} gates wide; .* at most 20"):
            derivable_splits(e)
    # a 1 -> 1 expression through a 21-gate middle: its first box is 22 wide
    fan_out = Box(parse_box_decl(f"box fan : A | I -> {'*'.join(['A'] * 21)} | I"))
    fan_in = Box(parse_box_decl(f"box join : {'*'.join(['A'] * 21)} | I -> A | I"))
    narrow = fan_out >> fan_in
    assert len(narrow.first.dom) + len(narrow.first.cod) == 22
    maxes = {(frozenset({0}), frozenset()), (frozenset(), frozenset({0}))}
    assert derivable_splits(narrow) == maxes


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _split_verdicts(e):
    """Both deciders on every claim of a trace-free expression, the way
    the suite's structural/geometric block first ran them: one validated
    ``Split`` per claim.  Keyed by the claim's two masks."""
    d = elaborate(e)
    maxes = derivable_splits(e)
    n_in, n_out = len(e.dom), len(e.cod)
    verdicts = {}
    for a_bits in product([0, 1], repeat=n_in):
        for d_bits in product([0, 1], repeat=n_out):
            claim = mk_split(
                n_in,
                n_out,
                {i for i in range(n_in) if a_bits[i]},
                {j for j in range(n_out) if d_bits[j]},
            )
            key = (claim.unguarded_in_mask, claim.guarded_out_mask)
            verdicts[key] = (claim_derivable(maxes, claim), geometric_check(d, claim))
    return verdicts


def test_mask_deciders_match_split_deciders():
    rng = np.random.default_rng(200)
    widths = set()
    for _ in range(60):
        e = rand_trace_free_expr(rng, max_boxes=6)
        widths.add(len(e.dom) + len(e.cod))
        reach = structural_reach(e)
        structural_table, table = reach_table(reach), geometric_reach_table(elaborate(e))
        assert table is not None  # a trace-free expression has no loop
        verdicts = _split_verdicts(e)
        assert len(verdicts) == 1 << len(e.dom) + len(e.cod)
        for (a, g), (structural, geometric) in verdicts.items():
            assert (structural_table[a] & g == 0) == structural
            claim = mk_split(len(e.dom), len(e.cod), _bits(a), _bits(g))
            assert _derives(reach, claim) == structural
            assert (table[a] & g == 0) == geometric
    assert max(widths) == 10


def test_reach_table_matches_geometric_check_with_loops():
    rng = np.random.default_rng(201)
    loops = 0
    for _ in range(80):
        d, _ = rand_guarded_diagram(rng)
        table = geometric_reach_table(d)
        loops += table is None
        n_in, n_out = len(d.boundary_in), len(d.boundary_out)
        for a in range(1 << n_in):
            for g in range(1 << n_out):
                claim = mk_split(
                    n_in, n_out, [i for i in range(n_in) if a >> i & 1],
                    [j for j in range(n_out) if g >> j & 1],
                )
                assert (table is not None and table[a] & g == 0) == geometric_check(d, claim)
    assert 0 < loops < 80


def test_claim_that_does_not_fit_the_diagram_is_a_diagram_error():
    e = Id(obj("A"))
    d = elaborate(e)
    deciders = ((geometric_check, d), (synthesize, d), (split_derivable, e), (check_annotated, e))
    for claim in (mk_split(2, 1, {0}, {0}), mk_split(2, 1, set(), {0}), mk_split(1, 0, {0}, set())):
        for decide, x in deciders:
            with pytest.raises(DiagramError, match="^claim does not fit the diagram boundary$"):
                decide(x, claim)


# --- certificates of traced expressions --------------------------------------


def _reannotate(rng, e):
    """``e`` with every trace node given a random output promise."""

    def retrace(x, body):
        c_len = int(rng.integers(0, len(body.cod) - len(x.loop) + 1))
        return trace(x.loop, body, len(x.corners[0]), c_len)

    return fold(e, lambda x: x, lambda x, f, g: Comp(f, g), lambda x, t, b: Tensor(t, b), retrace)


def _traced_corpus(seed, n_accepted=400, n_diagrams=150):
    """Traced expressions with claims: accepted ones with their own claim,
    then re-annotated at random with a random claim, for closed-loop
    expressions and for synthesized diagrams; about a third fail."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < n_accepted:
        got = rand_accepted_traced(rng)
        if got is None:
            continue
        done += 1
        e, claim = got
        yield e, claim
        yield _reannotate(rng, e), rand_split(rng, len(e.dom), len(e.cod))
    for _ in range(n_diagrams):
        d, claim = rand_guarded_diagram(rng)
        try:
            e = synthesize(d, claim)
        except SynthesisError:
            continue
        yield e, claim
        yield _reannotate(rng, e), rand_split(rng, len(e.dom), len(e.cod))


def test_certificates_match_golden_digest():
    digest, failures = hashlib.sha256(), 0
    for e, claim in _traced_corpus(300):
        cert = check_annotated(e, claim).to_json()
        failures += not cert["ok"]
        digest.update(json.dumps(cert).encode())
    assert failures == 295
    assert digest.hexdigest() == "2404d63f6f0771db05c119cf13ff1ee86476aa1f8badeb92ac170e0a43fbe10d"


def test_synthesized_text_matches_golden_digest():
    # pins the `gtc synthesize` text: the texts of the diagrams whose claim
    # synthesis accepts, in order, many of them with loops
    rng = np.random.default_rng(303)
    digest, texts, traced = hashlib.sha256(), 0, 0
    for _ in range(300):
        d, claim = rand_guarded_diagram(rng, max_boxes=14)
        try:
            text = print_expr(synthesize(d, claim))
        except SynthesisError:
            continue
        texts += 1
        traced += "tr[" in text
        digest.update(text.encode() + b"\n")
    assert (texts, traced) == (162, 138)
    assert digest.hexdigest() == "62b37524ea4eb829b848f0e5430298cc1c60aa97efd8f2242dee3f5f7b5ac849"


def test_every_traced_layer_decides_alike_structurally_and_geometrically():
    verdicts = {True: 0, False: 0}
    for e, claim in _traced_corpus(301, n_accepted=150, n_diagrams=60):
        layers = [(e, claim)]
        for layer, layer_claim in layers:  # the list grows while it is read
            traces = []
            structural = _derives(structural_reach(layer, traces), layer_claim)
            assert structural == geometric_check(elaborate(_opaque(layer)), layer_claim)
            verdicts[structural] += 1
            layers += [(t.body, t.annotation) for t in traces]
    assert verdicts[True] > 500 and verdicts[False] > 100, verdicts


def _n_traces(e):
    def add(x, left, right):
        return left + right

    return fold(e, lambda x: 0, add, add, lambda x, body: 1 + body)


def _inference_corpus(seed, n):
    """Expressions with 1-3 trace nodes, side by side and nested, each
    with its own claim when it has one and with a random claim."""
    rng = np.random.default_rng(seed)
    while n:
        got = rand_accepted_traced(rng, max_boxes=4)
        if got is None:
            continue
        e, claim = got
        if rng.random() < 0.4:
            other = rand_accepted_traced(rng, max_boxes=3)
            if other is not None:
                e, claim = Tensor(e, other[0]), None
        if rng.random() < 0.4:
            a = [i for i in range(len(e.dom)) if rng.random() < 0.7]
            d = [j for j in range(len(e.cod)) if rng.random() < 0.7]
            e, claim = wrap_in_trace(rng, e, a, d) or (e, claim)
        if not 1 <= _n_traces(e) <= 3:
            continue
        n -= 1
        if claim is not None:
            yield e, claim
        yield e, rand_split(rng, len(e.dom), len(e.cod))


def test_inference_matches_the_exhaustive_search():
    found, per_count = 0, {1: 0, 2: 0, 3: 0}
    for e, claim in _inference_corpus(302, 150):
        got = infer_trace_annotations(e, claim)
        assert got == graph_reference.search_trace_annotations(e, claim)
        found += got is not None
        per_count[_n_traces(e)] += 1
    assert 50 < found < sum(per_count.values()), found
    assert min(per_count.values()) > 20, per_count
