"""The draws of ``gtc.generators`` are part of its contract: a seed names
the same samples on every version, so the benchmark inputs and the
sampled acceptance tests stay comparable across changes.  Each digest
below covers the printed samples of one fixed seed and the next draw of
the generator after them, which pins how much of the stream was used."""

import hashlib
import itertools

import numpy as np
import pytest

from gtc.diagrams import export_json
from gtc.expressions import leaf_boxes, print_expr
from gtc.generators import rand_accepted_traced, rand_guarded_diagram, rand_trace_free_expr
from gtc.signatures import Split, mk_split

N_SAMPLES = 150


def _expr_text(e) -> str:
    return print_expr(e) + "\n" + "\n".join(repr(sig) for sig in leaf_boxes(e))


def _trace_free(rng) -> str:
    return _expr_text(rand_trace_free_expr(rng))


def _accepted(rng) -> str:
    got = rand_accepted_traced(rng)
    if got is None:
        return "None"
    expr, claim = got
    return _expr_text(expr) + "\n" + str(claim)


def _diagram(rng) -> str:
    d, claim = rand_guarded_diagram(rng, max_boxes=48)
    return export_json(d) + "\n" + str(claim)


def _digest(draw, seed: int) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(N_SAMPLES):
        h.update(draw(rng).encode() + b"\n\n")
    h.update(str(int(rng.integers(1 << 62))).encode())
    return h.hexdigest()


GOLDEN = {  # the samples as drawn with Generator.choice and mk_split
    ("trace_free", 0): "f6fda8917982d90f9e439080be89fe686ed77adf5fbdb23f33f1d567265412f1",
    ("trace_free", 7): "3f8263d7df3c1d20177013d8129dbceb3f646224acba9fb370a5bb88ee294fa1",
    ("accepted", 0): "2fb7a90d431331c76eca8d4014bfaa137d6bb340053050f5ee572ab7e3a20bc3",
    ("accepted", 7): "397cb9b59d03b8427b520ffa5e1f8d90f58696d5f1be177dfd508dfba27d0696",
    ("diagram", 0): "c8a9102ea5dc856c8033fdbf03744abcfd4eff4ca7d0f8997678a7f33867fdc7",
    ("diagram", 7): "97aca99a25fd55746fe047c8201ac7bd1cd9a73636499d7256515e2b09c5b9dd",
}


@pytest.mark.parametrize("name, draw", [
    ("trace_free", _trace_free), ("accepted", _accepted), ("diagram", _diagram)
])
@pytest.mark.parametrize("seed", [0, 7])
def test_generators_draw_the_pinned_stream(name, draw, seed):
    assert _digest(draw, seed) == GOLDEN[name, seed]


def test_trusted_split_is_mk_split():
    for n_in, n_out in itertools.product(range(5), repeat=2):
        for ui, go in itertools.product(range(1 << n_in), range(1 << n_out)):
            want = mk_split(n_in, n_out, [g for g in range(n_in) if ui >> g & 1],
                            [g for g in range(n_out) if go >> g & 1])
            got = Split._of(n_in, n_out, ui, go)
            assert got == want
            assert (got.n_in, got.n_out) == (n_in, n_out)
            assert (got.unguarded_in_mask, got.guarded_out_mask) == (ui, go)
            for side in ("unguarded_in", "guarded_in", "unguarded_out", "guarded_out"):
                assert getattr(got, side) is getattr(want, side)  # the shared gate set
