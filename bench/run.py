"""gtc's benchmark: one seeded workload, timed end to end or traced by layer.

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``src/`` is put on the import path.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; an ``env`` line and a readable
summary come before it.  The benchmark's own tests:
``python3 -m pytest bench/test_bench.py``.

Workloads (each a closed loop: one client, the next operation sent when
the previous one completes; inputs are generated before timing starts):

* ``oracle``: one operation elaborates a random trace-free expression,
  runs ``derivable_splits`` and decides every claim on it both
  structurally and geometrically.  Many claims per small diagram, so a
  per-diagram index of the geometric check pays off here.
* ``roundtrip``: one operation parses a ``.gtc`` pipeline of 50-600 boxes
  or imports a cyclic diagram of 1-48 boxes, checks, elaborates, moves it
  through diagram JSON, synthesizes it back, re-checks, compares by
  isomorphism and prints.  One claim per large program, so an index that
  costs more than the one traversal it replaces shows as a loss.  The
  timed mix stays below the known recursion ceiling; every run then
  attempts three inputs beyond it once and reports how each ends
  (``workloads.ceiling_probe``; the per-layer ``ceiling.failed``).
* ``suite``: one operation is ``gtc suite --per-axiom 10 --jobs nproc``
  in process; the only workload that evaluates in the five models and
  runs the three law suites.

Two rows of the roadmap's first item are not workloads.  The tier-1
pytest wall time (about 62 s on a 2-core machine) would add about 23
minutes to each check at 22 runs.  A scaled ``gtc eval`` per model would
not scale: axiom instances are a few gates wide, so the binding
generators' size arguments barely move evaluation cost (hilbert eval went
from 0.011 s to 0.012 s for dimension 2 to 4 on 24 instances).

End-to-end metrics (``--trace 0``), the same names on every workload.
Times are scaled to a reference speed of the machine (see ``speed.py``);
the summary lines also give them raw.

* ``setup_s``: median of at least three set-ups, each importing ``gtc``
  afresh and generating the inputs;
* ``op_p50_ms``, ``op_p90_ms``: percentiles of operation latency,
  interpolated between ranks; a failed operation counts as the whole
  measuring time.  On
  ``suite`` an operation is one ``gtc suite`` run, so ``op_p50_ms`` is
  its wall time; a run holds too few of them for ten samples beyond p90;
* ``work_per_s``: claims decided per second (``oracle``), boxes of
  correctly round-tripped programs per second (``roundtrip``), axiom
  checks per second (``suite``);
* ``peak_rss_mb``: peak resident set of this process plus its largest
  finished child.

The failure ratio is the result line's ``failed / attempted``; it is not a
metric, because it reads 0 on the seed code.  Failures are classified by
exception type in the summary.  The ceiling probe's inputs are not
operations of the workload: they are not timed and not counted in
``attempted`` or ``failed``, but a probe that completes must be correct.

The traced run (``--trace 1``) repeats one fixed batch of operations, in
untraced/traced pairs, until ``--seconds`` have passed.  The counts
(calls, ports) are exact for a seed and must repeat in every pass; the
verdicts must equal the untraced pass's.  ``self_ms`` is the median over
traced passes of a span's summed raw duration minus the time its child
spans cover.  Spans are wall time, so on ``suite`` the spans of the
``--jobs`` pool threads also hold the time a thread waits for the
interpreter lock.  ``LAYER_TABLE`` below records which end-to-end metric each
layer metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import (  # noqa: E402
    OUT_DIR,
    WORKLOADS,
    WrongResult,
    ceiling_probe,
    failure_site,
    nproc,
)

# set-ups repeat until both bounds are reached
SETUP_MIN_REPS = 3
SETUP_MIN_NS = 3_000_000_000

GTC_MODULES = (
    "gtc",
    "gtc.cli",
    "gtc.axioms",
    "gtc.laws",
    "gtc.generators",
    "gtc.models",
    "gtc.models.io",
)

MODELS = ("finset", "metric", "tot", "hilbert", "flat")

# (per-layer metrics, the end-to-end metric and workload they should move)
LAYER_TABLE = [
    (
        ["guardedness.geometric_check.self_ms", "guardedness.geometric_check.calls"],
        "work_per_s on oracle; little change on suite",
    ),
    (
        [
            "guardedness.derivable_splits.self_ms",
            "guardedness.derivable_splits.calls",
            "guardedness.claim_derivable.self_ms",
        ],
        "op_p90_ms on oracle",
    ),
    (
        ["guardedness.check_annotated.self_ms", "guardedness.check_annotated.calls"],
        "op_p50_ms on roundtrip; op_p50_ms (wall time) on suite, where "
        "check_axiom re-checks each instance once per model",
    ),
    (
        [
            "diagrams.elaborate.self_ms",
            "diagrams.elaborate.calls",
            "diagrams.elaborate.ports",
            "diagrams.import_json.self_ms",
            "diagrams.export_json.self_ms",
            "expressions.parse_source.self_ms",
            "expressions.print_expr.self_ms",
        ],
        "work_per_s (boxes/s) on roundtrip",
    ),
    (
        ["diagrams.diagram_iso.self_ms"]
        + [
            f"synthesis.{fn}.self_ms"
            for fn in (
                "synthesis_preconditions",
                "synthesize",
                "loop_wires",
                "compute_uv",
                "find_cut_wire",
                "acyclic_to_expr",
            )
        ],
        "op_p90_ms on roundtrip",
    ),
    (["synthesis.cut_wire.calls"], "cuts made on roundtrip (a count)"),
    (
        [
            f"models.{m}.{op}.{kind}"
            for m in MODELS
            for op in ("compose", "tensor", "trace")
            for kind in ("self_ms", "calls")
        ]
        + [f"models.{m}.{op}.self_ms" for m in MODELS for op in ("equal", "validate_box")]
        + ["models.eval_expr.self_ms"],
        "op_p50_ms (wall time) on suite; no change on oracle or roundtrip, "
        "which never evaluate",
    ),
    (
        ["axioms.gen_axiom_instances.self_ms", "axioms.check_axiom.self_ms"]
        + [f"axioms.{m}_bindings.self_ms" for m in MODELS]
        + [
            f"laws.{fn}.self_ms"
            for fn in (
                "finset_conway_suite",
                "tot_conway_suite",
                "flat_transfer_suite",
                "law_implication_report",
            )
        ]
        + ["cli.main.self_ms"],
        "op_p50_ms (wall time) on suite",
    ),
    (
        [
            "trace.overhead.op_p50_ms",
            "trace.overhead.op_p90_ms",
            "trace.overhead.wall_ms",
            "trace.span_coverage",
        ],
        "the cost of tracing and the share of time inside named spans",
    ),
    (
        ["ceiling.failed"],
        "ceiling probes on roundtrip that still raise (3 on the seed code); "
        "the roadmap's recursion item brings it to 0",
    ),
    (["src.lines"], "the size of src/, which the roadmap tracks"),
]

PER_LAYER = [name for names, _ in LAYER_TABLE for name in names]


def per_layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name == "trace.span_coverage":
        return "ratio", "higher"
    if name.endswith("_ms"):
        return "ms", "lower"
    return "count", "lower"


END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def set_up(make_inputs, seed: int, clock: SpeedClock):
    """Import ``gtc`` afresh and build the inputs, several times; returns
    the last inputs and the median scaled and raw set-up times in s."""
    scaled, raw = [], []
    start = perf_counter_ns()
    while len(raw) < SETUP_MIN_REPS or perf_counter_ns() - start < SETUP_MIN_NS:
        for name in [n for n in sys.modules if n == "gtc" or n.startswith("gtc.")]:
            del sys.modules[name]
        inputs = None
        clock.sample()
        t0 = perf_counter_ns()
        for mod in GTC_MODULES:
            importlib.import_module(mod)
        inputs = make_inputs(seed)
        t1 = perf_counter_ns()
        clock.sample()
        raw.append((t1 - t0) / 1e9)
        scaled.append(raw[-1] * clock.scale(t0, t1))
    return inputs, statistics.median(scaled), statistics.median(raw)


def src_lines() -> int:
    total = 0
    for root, _, files in os.walk("src"):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(),
    }


class Pass:
    """Per-operation times, verdicts and failures of a sequence of operations."""

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.starts: list[int] = []
        self.ns: list[int] = []
        self.ok: list[bool] = []
        self.work = 0
        self.verdicts: list = []
        self.failures: Counter = Counter()
        self.sites: Counter = Counter()
        self.wrong: list[str] = []
        self.wall_ns = 0

    def run_one(self, op, inp) -> None:
        self.clock.maybe_sample()
        t0 = perf_counter_ns()
        try:
            work, verdict = op(inp)
        except WrongResult as exc:
            self._fail(exc, t0)
            self.wrong.append(str(exc)[:300])
        except Exception as exc:  # a failed operation is measured, not fatal
            self._fail(exc, t0)
        else:
            self._record(t0, True)
            self.work += work
            self.verdicts.append(verdict)

    def _record(self, t0: int, ok: bool) -> None:
        self.ns.append(perf_counter_ns() - t0)
        self.starts.append(t0)
        self.ok.append(ok)

    def _fail(self, exc: Exception, t0: int) -> None:
        self._record(t0, False)
        self.verdicts.append(("failed", type(exc).__name__))
        self.failures[type(exc).__name__] += 1
        self.sites[failure_site(exc)] += 1

    def finish(self, start: int) -> "Pass":
        self.wall_ns = perf_counter_ns() - start
        self.clock.sample()
        return self

    @property
    def attempted(self) -> int:
        return len(self.ns)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled_ns(self) -> list[float]:
        return [t * self.clock.scale(s, s + t) for s, t in zip(self.starts, self.ns)]

    def percentile_ms(self, q: float, scaled: bool = True) -> float:
        """Percentile with linear interpolation between ranks; a failed
        operation reads as the whole pass."""
        times = np.asarray(self.scaled_ns() if scaled else self.ns, dtype=float)
        times[~np.asarray(self.ok)] = times.sum()
        return float(np.percentile(times, 100 * q)) / 1e6


def run_for(op, inputs, seconds: float, clock: SpeedClock) -> Pass:
    p = Pass(clock)
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while i == 0 or perf_counter_ns() < deadline:
        p.run_one(op, inputs[i % len(inputs)])
        i += 1
    return p.finish(start)


def run_batch(op, batch, clock: SpeedClock) -> Pass:
    p = Pass(clock)
    start = perf_counter_ns()
    for inp in batch:
        p.run_one(op, inp)
    return p.finish(start)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_ceiling(workload: str) -> tuple[int, list[str], list[str]]:
    """Run the ceiling probe on ``roundtrip``: (probes that raised, summary
    lines, wrong outputs)."""
    if workload != "roundtrip":
        return 0, [], []
    try:
        outcomes = ceiling_probe()
    except WrongResult as exc:
        return 0, [], [f"ceiling probe: {exc}"[:300]]
    lines = [f"  ceiling probe: {label}: {outcome}" for label, outcome in outcomes]
    return sum(outcome != "ok" for _, outcome in outcomes), lines, []


def timed_run(workload, inputs, seconds, setup, clock) -> tuple[dict, list[str]]:
    _, op, _, unit = WORKLOADS[workload]
    setup_s, setup_raw_s = setup
    p = run_for(op, inputs, seconds, clock)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": p.percentile_ms(0.5),
        "op_p90_ms": p.percentile_ms(0.9),
        "work_per_s": p.work / (sum(p.scaled_ns()) / 1e9),
        "peak_rss_mb": peak_rss_mb(),
    }
    _, probe_lines, probe_wrong = probe_ceiling(workload)
    wrong = p.wrong + probe_wrong
    n = p.attempted
    lines = [
        f"{workload}: {n} operations in {p.wall_ns / 1e9:.2f} s, {p.failed} failed "
        f"(fail_ratio {p.failed / n:.4f}), by type {dict(p.failures)}, "
        f"where {dict(p.sites)}; "
        f"{int(0.1 * n)} operations beyond p90",
        f"  {p.work} {unit} in correct operations",
        f"  raw: setup_s {setup_raw_s:.4f}, op_p50_ms {p.percentile_ms(0.5, False):.4f}, "
        f"op_p90_ms {p.percentile_ms(0.9, False):.4f}, "
        f"work_per_s {p.work / (sum(p.ns) / 1e9):.4f}; "
        f"reference loop median {statistics.median(r for _, r in clock.samples) / 1e3:.1f} us",
    ]
    if workload == "suite":
        lines.append(f"  wall_s {metrics['op_p50_ms'] / 1e3:.3f} s (median gtc suite run)")
    lines += probe_lines
    lines += [f"  wrong: {w}" for w in wrong[:5]]
    result = {
        "correct": not wrong,
        "attempted": n,
        "failed": p.failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in END_TO_END},
    }
    return result, lines


def _counts(summary: dict) -> dict:
    return {
        name: {k: v for k, v in row.items() if k != "self_ns"}
        for name, row in summary["layers"].items()
    }


def traced_run(workload, inputs, seconds, seed, clock) -> tuple[dict, list[str]]:
    _, op, batch_size, _ = WORKLOADS[workload]
    batch = inputs[:batch_size]
    tr = tracer.Tracer()
    pairs = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while not pairs or perf_counter_ns() < deadline:
        traced_first = len(pairs) % 2 == 1
        if not traced_first:
            plain = run_batch(op, batch, clock)
        tr.reset()
        tr.install()
        try:
            traced = run_batch(op, batch, clock)
        finally:
            tr.uninstall()
        if traced_first:
            plain = run_batch(op, batch, clock)
        pairs.append((plain, traced, tr.summary(traced.wall_ns)))

    wrong = [w for plain, traced, _ in pairs for w in plain.wrong + traced.wrong]
    first_counts = _counts(pairs[0][2])
    for plain, traced, summary in pairs:
        if traced.verdicts != plain.verdicts:
            wrong.append("traced verdicts differ from untraced verdicts")
        if _counts(summary) != first_counts:
            wrong.append("traced counts differ between passes of one batch")

    def med(fn) -> float:
        return statistics.median(fn(*pair) for pair in pairs)

    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if span.startswith(("trace", "src", "ceiling")):
            continue
        if kind == "self_ms":
            metrics[name] = med(lambda p, t, s: s["layers"].get(span, {}).get("self_ns", 0) / 1e6)
        else:
            metrics[name] = first_counts.get(span, {}).get(kind, 0)
    for q in (50, 90):
        metrics[f"trace.overhead.op_p{q}_ms"] = med(
            lambda p, t, s: t.percentile_ms(q / 100) - p.percentile_ms(q / 100)
        )
    metrics["trace.overhead.wall_ms"] = med(
        lambda p, t, s: (sum(t.scaled_ns()) - sum(p.scaled_ns())) / 1e6
    )
    metrics["trace.span_coverage"] = med(lambda p, t, s: s["coverage"])
    metrics["ceiling.failed"], probe_lines, probe_wrong = probe_ceiling(workload)
    wrong += probe_wrong
    metrics["src.lines"] = src_lines()

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    tr.write_jsonl(spans_path)
    attempted = sum(p.attempted + t.attempted for p, t, _ in pairs)
    failed = sum(p.failed + t.failed for p, t, _ in pairs)
    lines = [
        f"{workload} traced: {len(pairs)} untraced/traced pairs of a {len(batch)}-operation "
        f"batch; spans of the last traced pass in {spans_path}",
        f"  overhead: {metrics['trace.overhead.wall_ms']:.1f} ms per batch (scaled), "
        f"span coverage {metrics['trace.span_coverage']:.3f}",
    ]
    lines += probe_lines
    lines += [f"  wrong: {w}" for w in wrong[:5]]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": per_layer_unit(name)[0]} for name in PER_LAYER
        },
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gtc", "__init__.py")):
        print("error: src/gtc not found; run from the root of a gtc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    clock = SpeedClock()
    make_inputs = WORKLOADS[args.workload][0]
    inputs, *setup = set_up(make_inputs, args.seed, clock)
    # the inputs live for the whole run; keep the collector from scanning them
    gc.freeze()
    print("env " + json.dumps(environment(args.workload, args.seed)))
    if args.trace:
        result, lines = traced_run(args.workload, inputs, args.seconds, args.seed, clock)
    else:
        result, lines = timed_run(args.workload, inputs, args.seconds, setup, clock)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
