"""The benchmark's own checks: exact traced counts and unchanged verdicts.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402


def _traced(op, batch):
    tr = tracer.Tracer()
    tr.install()
    try:
        p = run.run_batch(op, batch, SpeedClock())
    finally:
        tr.uninstall()
    return p, run._counts(tr.summary(p.wall_ns))


@pytest.mark.parametrize("workload,size", [("oracle", 20), ("roundtrip", 6), ("suite", 1)])
def test_traced_counts_repeat_and_verdicts_match_untraced(workload, size, monkeypatch):
    monkeypatch.chdir(ROOT)
    make_inputs, op, _, _ = workloads.WORKLOADS[workload]
    batch = make_inputs(5)[:size]
    plain = run.run_batch(op, batch, SpeedClock())
    first, counts1 = _traced(op, batch)
    second, counts2 = _traced(op, batch)
    assert not plain.wrong
    assert counts1 and counts1 == counts2
    assert first.verdicts == plain.verdicts == second.verdicts


def test_uninstall_restores_every_binding():
    import gtc.axioms
    import gtc.cli
    import gtc.guardedness

    original = gtc.guardedness.check_annotated
    tr = tracer.Tracer()
    tr.install()
    try:
        assert gtc.cli.check_annotated is not original
        assert gtc.axioms.check_annotated is gtc.cli.check_annotated
    finally:
        tr.uninstall()
    assert gtc.cli.check_annotated is original
    assert gtc.axioms.check_annotated is original
    assert gtc.axioms.BINDING_GENERATORS["finset"] is gtc.axioms.finset_bindings
    assert not hasattr(gtc.models.FinSetModel.compose, "__wrapped_original__")


def test_self_time_subtracts_the_union_of_children():
    parent = ["p", 0, 100, None, None]
    spans = [parent, ["a", 10, 40, parent, None], ["b", 30, 60, parent, None]]
    tr = tracer.Tracer()
    tr.spans.extend(spans)
    summary = tr.summary(200)
    assert summary["layers"]["p"]["self_ns"] == 100 - 50
    assert summary["coverage"] == 0.5


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == run.per_layer_unit(m["name"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_roundtrip_pipelines_span_50_to_600_boxes_below_the_ceiling():
    pipelines = [inp for inp in workloads.roundtrip_inputs(5) if inp[0] == "pipeline"]
    sizes = [n for _, _, _, n in pipelines]
    assert (min(sizes), max(sizes)) == (50, 600)
    unguarded_chains = [
        n for _, text, claim, n in pipelines
        if claim.startswith("X |") and text.count("| I -> I |") == 1
    ]
    assert unguarded_chains and max(unguarded_chains) <= workloads.UNGUARDED_CHAIN_MAX
