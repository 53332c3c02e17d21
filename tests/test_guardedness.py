from itertools import product

import numpy as np
import pytest

from gtc.counterexamples import equal_morphisms_different_typing
from gtc.diagrams import DiagramError, diagram_iso, elaborate
from gtc.expressions import parse_expr, print_expr
from gtc.generators import rand_accepted_traced, rand_guarded_diagram, rand_trace_free_expr
from gtc.guardedness import (
    _antichain,
    check_annotated,
    claim_derivable,
    derivable_masks,
    derivable_splits,
    geometric_check,
    geometric_reach_table,
    infer_trace_annotations,
    masks_derivable,
    split_derivable,
    unguarded_reach,
)
from gtc.synthesis import synthesize
from gtc.expressions import Box, Id, Sym, Tensor, Trace, fold
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
    reach = unguarded_reach(d)
    assert ("bout", 0, 0) not in reach[("bin", 0, 0)]
    assert ("dout", 0) not in reach[("din", 0)]


def test_reach_white_box():
    d = elaborate(parse_expr("wht", SIGS))
    reach = unguarded_reach(d)
    assert ("bout", 0, 0) in reach[("bin", 0, 0)]
    assert ("dout", 0) in reach[("din", 0)]


def test_reach_white_then_black_chain():
    d = elaborate(parse_expr("wht ; blk", SIGS))
    reach = unguarded_reach(d)
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


def test_inference_refuses_many_nodes():
    sigs, traced, _, claim = equal_morphisms_different_typing()
    with pytest.raises(ValueError):
        infer_trace_annotations(traced, claim, max_nodes=0)


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


def test_antichain_matches_all_pairs_reference():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n_a, n_d = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        pairs = [
            (int(rng.integers(1 << n_a)), int(rng.integers(1 << n_d)))
            for _ in range(int(rng.integers(0, 40)))
        ]
        got = _antichain(pairs + pairs[:3])  # repeats are dropped too
        assert len(got) == len(set(got)) and set(got) == _antichain_all_pairs(set(pairs))


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

    # every node is checked, not only the leaves that enumerate candidates
    assert MAX_SPLIT_WIDTH == 20
    at_limit = derivable_splits(Id(obj(*["A"] * 10)))
    assert len(at_limit) == 1 << 10
    wide_leaf = Id(obj(*["A"] * 11))
    wide_node = Tensor(Id(obj(*["A"] * 5)), Id(obj(*["A"] * 6)))  # leaves 10 and 12 wide
    for e, width in ((wide_leaf, 22), (wide_node, 22)):
        with pytest.raises(SignatureError, match=f"is {width} gates wide; .* at most 20"):
            derivable_splits(e)


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
        maxes, table = derivable_masks(e), geometric_reach_table(elaborate(e))
        assert table is not None  # a trace-free expression has no loop
        verdicts = _split_verdicts(e)
        assert len(verdicts) == 1 << len(e.dom) + len(e.cod)
        for (a, g), (structural, geometric) in verdicts.items():
            assert masks_derivable(maxes, a, g) == structural
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
    d = elaborate(Id(obj("A")))
    claim = mk_split(2, 1, {0}, {0})
    for decide in (geometric_check, synthesize):
        with pytest.raises(DiagramError, match="^claim does not fit the diagram boundary$"):
            decide(d, claim)
