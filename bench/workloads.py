"""The three workloads: seeded inputs, one operation each, and the check of
every output.

Inputs are built by ``make_inputs(seed)`` before timing starts.  An
operation returns ``(work, verdict)``: ``work`` is the unit the
throughput metric counts (claims, boxes, axiom checks) and ``verdict`` a
hashable summary of the outputs, used to compare traced and untraced
passes.  A wrong output raises ``WrongResult``; any other exception is a
failed operation, classified by type.

Operations look ``gtc`` functions up through the module at call time
(``diagrams.elaborate``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import traceback
from itertools import product

import numpy as np


class WrongResult(Exception):
    """An operation finished but its output is wrong."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- oracle -----------------------------------------------------------------

ORACLE_POOL = 5000
# Inputs come in blocks of 50 holding a fixed number of expressions per
# boundary width n_in + n_out (an operation decides 2**width claims), in
# the proportions the generator draws them, so every run sees the same
# mix of operation sizes.
ORACLE_BLOCK = {1: 2, 2: 5, 3: 5, 4: 7, 5: 6, 6: 7, 7: 6, 8: 6, 9: 4, 10: 2}


def oracle_inputs(seed: int) -> list:
    """Random trace-free expressions with criterion 1's parameters."""
    from gtc.generators import rand_trace_free_expr

    rng = np.random.default_rng([seed, 1])
    block_size = sum(ORACLE_BLOCK.values())
    by_width: dict[int, list] = {k: [] for k in ORACLE_BLOCK}
    out: list = []
    while len(out) < ORACLE_POOL:
        while any(len(by_width[k]) < n for k, n in ORACLE_BLOCK.items()):
            e = rand_trace_free_expr(rng, max_boxes=8, n_atoms=4)
            by_width.setdefault(len(e.dom) + len(e.cod), []).append(e)
        block = []
        for k, n in ORACLE_BLOCK.items():
            block += by_width[k][:n]
            del by_width[k][:n]
        out += [block[int(i)] for i in rng.permutation(block_size)]
    return out


def oracle_op(e) -> tuple[int, object]:
    """Decide every claim on ``e`` structurally and geometrically; the two
    verdicts must agree."""
    from gtc import diagrams, guardedness, signatures

    d = diagrams.elaborate(e)
    maxes = guardedness.derivable_splits(e)
    n_in, n_out = len(e.dom), len(e.cod)
    verdicts = []
    for a_bits in product((0, 1), repeat=n_in):
        a = {i for i in range(n_in) if a_bits[i]}
        for d_bits in product((0, 1), repeat=n_out):
            dd = {j for j in range(n_out) if d_bits[j]}
            claim = signatures.mk_split(n_in, n_out, a, dd)
            structural = guardedness.claim_derivable(maxes, claim)
            geometric = guardedness.geometric_check(d, claim)
            if structural != geometric:
                raise WrongResult(f"claim {claim}: structural {structural}, geometric {geometric}")
            verdicts.append(geometric)
    return len(verdicts), tuple(verdicts)


# --- roundtrip --------------------------------------------------------------

# A cycle is 12 blocks of 7 operations: one valid and one violating
# diagram of 1-48 boxes, and one pipeline from each fifth of the sizes
# 50-600, the kinds crossed with the sizes.  Sizes, kinds and slot order
# follow a layout that is the same for every seed, which draws only the
# programs and diagrams, so every run sees the same mix and the median
# operation is a mid-sized pipeline.  A pool of several cycles keeps
# inputs distinct on faster code.
ROUNDTRIP_CYCLES = 4
BLOCKS_PER_CYCLE = 12
PIPELINE_SIZES = [int(round(x)) for x in np.linspace(50, 600, 5 * BLOCKS_PER_CYCLE)]
# (lanes, probability that a box guards its passages); p = 0 leaves every
# passage unguarded except the closing slice's
PIPELINE_KINDS = [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)]
# The known recursion ceiling (ROADMAP item 4): a one-lane pipeline with
# every passage unguarded raises RecursionError in find_unguarded_loop.dfs
# from 496 boxes, and a 1,000-box chain raises it in Comp.dom.  The timed
# mix draws that kind's sizes from 50-400 instead of 50-600, a margin for
# the traced run's extra frames, so no timed operation fails;
# ``ceiling_probe`` attempts the inputs beyond it once in every run.
UNGUARDED_CHAIN_MAX = 400
CEILING_PROBES = [(500, 1, 0.0), (600, 1, 0.0), (1000, 1, 0.5)]
DIAGRAM_QUARTERS = [(1, 12), (13, 24), (25, 36), (37, 48)]


def pipeline_source(rng, n_boxes: int, lanes: int, p_guard: float) -> tuple[str, str]:
    """A serial ``.gtc`` program of exactly ``n_boxes`` boxes over ``lanes``
    wires, joined by ``;`` and ``(*)``, plus the claim that every input is
    unguarded and every output guarded.  The last slice guards every lane,
    so the claim holds."""
    atoms = ("X", "Y")[:lanes]
    decls: list[str] = []

    def box(dom: str, guarded: bool) -> str:
        name = f"s{len(decls)}"
        if guarded:
            decls.append(f"box {name} : {dom} | I -> I | {dom}")
        else:
            decls.append(f"box {name} : I | {dom} -> {dom} | I")
        return name

    def draw() -> bool:
        return bool(rng.random() < p_guard)

    closing = 1 if lanes == 1 or rng.random() < 0.5 else 2
    slices = []
    left = n_boxes - closing
    while left > 0:
        if lanes == 1:
            slices.append(box("X", draw()))
            left -= 1
            continue
        roll = rng.random()
        if roll < 0.4 and left >= 2:
            slices.append(f"{box('X', draw())} (*) {box('Y', draw())}")
            left -= 2
        elif roll < 0.7:
            slices.append(box("X*Y", draw()))
            left -= 1
        elif roll < 0.85:
            slices.append(f"{box('X', draw())} (*) id[Y]")
            left -= 1
        else:
            slices.append(f"id[X] (*) {box('Y', draw())}")
            left -= 1
    if closing == 1:
        slices.append(box("*".join(atoms), True))
    else:
        slices.append(f"{box('X', True)} (*) {box('Y', True)}")
    word = "*".join(atoms)
    text = "\n".join(decls) + "\nlet main = " + " ; ".join(slices) + "\n"
    return text, f"{word} | I -> I | {word}"


def reference_valid(d, claim) -> bool:
    """Synthesis hypotheses decided here, independently of ``gtc``: every
    box white or black, no cycle and no path from a claimed-unguarded
    input to a claimed-guarded output once guarded passages are deleted."""
    succ: dict = {}
    for b, sig in enumerate(d.boxes):
        s = sig.split
        white = not s.unguarded_in and not s.guarded_out
        black = not s.guarded_in and not s.unguarded_out
        if not (white or black):
            return False
        for i in range(len(sig.inputs)):
            for j in range(len(sig.outputs)):
                if not (i in s.unguarded_in and j in s.guarded_out):
                    succ.setdefault(("bin", b, i), []).append(("bout", b, j))
    for src, dst in d.wires:
        succ.setdefault(src, []).append(dst)
    indeg: dict = {}
    for p, qs in succ.items():
        indeg.setdefault(p, 0)
        for q in qs:
            indeg[q] = indeg.get(q, 0) + 1
    ready = [p for p, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        p = ready.pop()
        removed += 1
        for q in succ.get(p, ()):
            indeg[q] -= 1
            if indeg[q] == 0:
                ready.append(q)
    if removed != len(indeg):
        return False
    seen = {("din", i) for i in claim.unguarded_in}
    todo = list(seen)
    while todo:
        p = todo.pop()
        if p[0] == "dout" and p[1] in claim.guarded_out:
            return False
        for q in succ.get(p, ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return True


def _diagram_pools(rng) -> dict[tuple[int, bool], list[tuple]]:
    """Diagram inputs per (size quarter, validity), enough for one cycle."""
    from gtc.diagrams import export_json
    from gtc.generators import rand_guarded_diagram

    want = BLOCKS_PER_CYCLE // len(DIAGRAM_QUARTERS)
    pools = {(q, v): [] for q in range(len(DIAGRAM_QUARTERS)) for v in (True, False)}
    while any(len(pool) < want for pool in pools.values()):
        d, claim = rand_guarded_diagram(rng, max_boxes=48)
        q = next(i for i, (lo, hi) in enumerate(DIAGRAM_QUARTERS) if lo <= len(d.boxes) <= hi)
        valid = reference_valid(d, claim)
        if len(pools[q, valid]) < want:
            pools[q, valid].append(("diagram", export_json(d), valid, len(d.boxes)))
    return pools


def roundtrip_inputs(seed: int) -> list[tuple]:
    rng = np.random.default_rng([seed, 2])
    layout = np.random.default_rng(0)
    ops: list[tuple] = []
    per = BLOCKS_PER_CYCLE
    kinds = PIPELINE_KINDS * (per // len(PIPELINE_KINDS))
    for _ in range(ROUNDTRIP_CYCLES):
        pools = _diagram_pools(rng)
        fifths = [
            list(zip(
                [PIPELINE_SIZES[f * per + int(i)] for i in layout.permutation(per)],
                [kinds[int(i)] for i in layout.permutation(per)],
            ))
            for f in range(5)
        ]
        for b in range(per):
            q = b % len(DIAGRAM_QUARTERS)
            k = b // len(DIAGRAM_QUARTERS)
            block = [pools[q, True][k], pools[(q + 2) % len(DIAGRAM_QUARTERS), False][k]]
            for f in range(5):
                n, (lanes, p_guard) = fifths[f][b]
                if (lanes, p_guard) == (1, 0.0):
                    n = 50 + (n - 50) * (UNGUARDED_CHAIN_MAX - 50) // (600 - 50)
                text, claim = pipeline_source(rng, n, lanes, p_guard)
                block.append(("pipeline", text, claim, n))
            ops += [block[int(i)] for i in layout.permutation(len(block))]
    return ops


def _round_trip(d, claim, n_boxes: int) -> tuple[int, object]:
    """Shared tail: synthesize ``d`` back, re-check, compare, print."""
    from gtc import diagrams, expressions, guardedness, synthesis

    e = synthesis.synthesize(d, claim)
    if not guardedness.check_annotated(e, claim).ok:
        raise WrongResult("synthesized expression fails its check")
    if not diagrams.diagram_iso(diagrams.elaborate(e, claim), d):
        raise WrongResult("synthesized expression is not isomorphic to its input")
    return n_boxes, expressions.print_expr(e)


def roundtrip_op(inp) -> tuple[int, object]:
    from gtc import diagrams, expressions, guardedness, signatures, synthesis

    kind, text, extra, n_boxes = inp
    if kind == "pipeline":
        src = expressions.parse_source(text)
        expr = src.exprs["main"]
        claim = signatures.parse_claim(extra, expr.dom, expr.cod)
        res = guardedness.check_annotated(expr, claim)
        if not res.ok:
            raise WrongResult(f"valid pipeline rejected: {res.witness}")
        elaborated = diagrams.elaborate(expr, claim)
        d = diagrams.import_json(diagrams.export_json(elaborated))
        if d != elaborated:
            raise WrongResult("diagram JSON does not round-trip")
        return _round_trip(d, claim, n_boxes)
    d = diagrams.import_json(text)
    if diagrams.import_json(diagrams.export_json(d)) != d:
        raise WrongResult("diagram JSON does not round-trip")
    claim = d.boundary_claim()
    if extra:
        return _round_trip(d, claim, n_boxes)
    try:
        synthesis.synthesize(d, claim)
    except synthesis.SynthesisError as exc:
        if exc.witness is None:
            raise WrongResult(f"violation without witness: {exc.reason}") from None
        return 0, ("violation", exc.reason)
    raise WrongResult("diagram violating the hypotheses was synthesized")


def failure_site(exc: BaseException) -> str:
    """``"<exception type> in <innermost function>"``."""
    frames = traceback.extract_tb(exc.__traceback__)
    return f"{type(exc).__name__} in {frames[-1].name if frames else '?'}"


def ceiling_probe() -> list[tuple[str, str]]:
    """Attempt each of ``CEILING_PROBES`` once: ``(label, outcome)`` with
    outcome ``"ok"`` or the failure site.  Raises ``WrongResult`` if a
    probe completes with a wrong output."""
    rng = np.random.default_rng(0)
    out = []
    for n, lanes, p_guard in CEILING_PROBES:
        text, claim = pipeline_source(rng, n, lanes, p_guard)
        try:
            roundtrip_op(("pipeline", text, claim, n))
        except WrongResult:
            raise
        except Exception as exc:
            outcome = failure_site(exc)
        else:
            outcome = "ok"
        out.append((f"{n}-box pipeline, {lanes} lane(s), p_guard {p_guard}", outcome))
    return out


# --- suite ------------------------------------------------------------------

SUITE_PER_AXIOM = 10
SUITE_POOL = 64
OUT_DIR = ".bench_out"


def suite_inputs(seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 3])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=SUITE_POOL)]


def suite_op(suite_seed: int) -> tuple[int, object]:
    """``gtc suite`` in process, as a user runs it; the summary must show no
    failure and the report the expected number of lines."""
    import gtc.axioms
    import gtc.cli
    import gtc.models

    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "suite-report.jsonl")
    buf = io.StringIO()
    argv = ["suite", "--seeds", str(suite_seed), "--per-axiom", str(SUITE_PER_AXIOM),
            "--jobs", str(nproc()), "--out", out]
    with contextlib.redirect_stdout(buf):
        rc = gtc.cli.main(argv)
    summary = json.loads(buf.getvalue().strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        report = fh.read()
    os.remove(out)
    checks = len(gtc.axioms.AXIOMS) * SUITE_PER_AXIOM * len(gtc.models.MODEL_NAMES)
    lines = report.splitlines()
    # header, one line per check, six law and oracle blocks
    if rc != 0 or summary["failures"] != 0 or summary["checks"] != checks:
        raise WrongResult(f"suite exit {rc}, summary {summary}")
    if len(lines) != 1 + checks + 6:
        raise WrongResult(f"report has {len(lines)} lines, expected {1 + checks + 6}")
    return checks, hashlib.sha256(report.encode()).hexdigest()


# name -> (make inputs, operation, ops in one traced batch, unit of work)
WORKLOADS = {
    "oracle": (oracle_inputs, oracle_op, 200, "claims"),
    "roundtrip": (roundtrip_inputs, roundtrip_op, 21, "boxes"),
    "suite": (suite_inputs, suite_op, 1, "axiom checks"),
}
