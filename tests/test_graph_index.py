"""The cached ``DiagramIndex`` answers every graph question as the direct
traversals in ``graph_reference`` do, on seeded random diagrams."""

from collections import Counter
from itertools import product

import numpy as np
import pytest

import graph_reference as ref
from gtc.diagrams import elaborate, tarjan
from gtc.generators import rand_accepted_traced, rand_guarded_diagram, rand_trace_free_expr
from gtc.guardedness import geometric_check, geometric_witness, unguarded_reach
from gtc.signatures import mk_split
from gtc.synthesis import compute_uv, loop_wires

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
    loops = 0
    kinds = Counter()
    for d in make():
        assert unguarded_reach(d) == ref.unguarded_reach(d)
        assert loop_wires(d) == ref.loop_wires(d)
        loops += bool(loop_wires(d))
        for claim in _claims(d, rng):
            want = ref.geometric_witness(d, claim)
            got = geometric_witness(d, claim)
            assert got == want
            assert geometric_check(d, claim) == (want is None)
            assert compute_uv(d, claim) == ref.compute_uv(d, claim)
            kinds[want and want.kind] += 1
    # the corpus holds cyclic diagrams and the expected verdicts and witnesses
    assert loops and set(kinds) == verdicts, kinds


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
