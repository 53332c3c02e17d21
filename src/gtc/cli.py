"""Command-line entry point.

Subcommands::

    gtc check FILE --name N --claim 'A|B -> C|D' [--dot OUT] [--json OUT]
    gtc synthesize DIAGRAM.json [--claim 'A|B -> C|D'] [--cert OUT]
    gtc eval FILE --name N --model M --bindings B.json [--inputs IN.json]
    gtc suite [--models ...] [--seeds ...] [--out REPORT.jsonl] [--jobs N]

Exit codes: 0 success, 1 a check or hypothesis failed (witness on
stdout), 2 malformed input.  Data goes to stdout, errors to stderr.
The environment variable GTC_SEED overrides the default seed.  ``suite``
runs its checks in one thread; ``--jobs`` is accepted for compatibility
and has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .diagrams import DiagramError, diagram_iso, elaborate, export_dot, export_json, import_json
from .expressions import ParseError, TypingError, parse_source, print_expr
from .generators import rand_guarded_diagram, rand_trace_free_expr
from .guardedness import check_annotated, geometric_reach_table, reach_table, structural_reach
from .model_names import MODEL_NAMES, EvalError
from .signatures import SignatureError, parse_claim
from .synthesis import SynthesisError, synthesis_preconditions, synthesize

PARSE_ERRORS = (ParseError, SignatureError, TypingError, DiagramError)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gtc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify a guardedness claim")
    p_check.add_argument("file")
    p_check.add_argument("--name", required=True, help="binding to check")
    p_check.add_argument("--claim", required=True, help="claim 'A|B -> C|D'")
    p_check.add_argument("--dot", help="write the elaborated diagram as DOT")
    p_check.add_argument("--json", dest="json_out", help="write the diagram as JSON")

    p_syn = sub.add_parser("synthesize", help="diagram JSON to traced expression")
    p_syn.add_argument("diagram")
    p_syn.add_argument(
        "--claim",
        help="claim 'A|B -> C|D'; defaults to the diagram's boundary decorations",
    )
    p_syn.add_argument("--cert", help="write the checker certificate here")

    p_eval = sub.add_parser("eval", help="evaluate an expression in a model")
    p_eval.add_argument("file")
    p_eval.add_argument("--name", required=True)
    p_eval.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_eval.add_argument("--bindings", required=True)
    p_eval.add_argument("--claim", help="claim to check before evaluating")
    p_eval.add_argument("--inputs", help="JSON file with an input point")
    p_eval.add_argument("--tol", type=float, default=1e-12)

    p_suite = sub.add_parser("suite", help="run the axiom and law suites")
    p_suite.add_argument("--models", nargs="*", default=list(MODEL_NAMES))
    p_suite.add_argument("--seeds", nargs="*", type=int, default=None)
    p_suite.add_argument("--per-axiom", type=int, default=50)
    p_suite.add_argument("--tol", type=float, default=1e-9)
    p_suite.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p_suite.add_argument("--out", help="write the JSON-lines report here")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "synthesize":
            return cmd_synthesize(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_suite(args)
    except (*PARSE_ERRORS, EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dumps(value, **kwargs) -> str:
    """``value`` as JSON text; a NaN or infinity in it is an error, not output."""
    try:
        return json.dumps(value, allow_nan=False, **kwargs)
    except ValueError:
        raise EvalError("result is not finite, so it has no JSON form") from None


def _load_expr(path: str, name: str):
    with open(path, encoding="utf-8") as fh:
        src = parse_source(fh.read())
    if name not in src.exprs:
        raise ParseError(f"no binding named {name!r} in {path}")
    return src, src.exprs[name]


def cmd_check(args) -> int:
    src, expr = _load_expr(args.file, args.name)
    claim = parse_claim(args.claim, expr.dom, expr.cod)
    result = check_annotated(expr, claim)
    if args.dot or args.json_out:
        diagram = elaborate(expr, claim)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(diagram))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(export_json(diagram))
    print(_dumps(result.to_json(), indent=2))
    return 0 if result.ok else 1


def cmd_synthesize(args) -> int:
    with open(args.diagram, encoding="utf-8") as fh:
        diagram = import_json(fh.read())
    claim = (
        parse_claim(args.claim, diagram.dom, diagram.cod)
        if args.claim
        else diagram.boundary_claim()
    )
    try:
        expr = synthesize(diagram, claim)
    except SynthesisError as exc:
        print(
            _dumps({"ok": False, "reason": exc.reason, "witness": exc.witness}),
        )
        return 1
    result = check_annotated(expr, claim)
    lines = [str(sig) for sig in dict.fromkeys(diagram.boxes)]
    lines.append(f"let synthesized = {print_expr(expr)}")
    print("\n".join(lines))
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(_dumps(result.to_json(), indent=2))
    return 0 if result.ok else 1


def cmd_eval(args) -> int:
    import numpy as np

    from .models import eval_expr
    from .models.io import load_bindings, read_json

    bad = _tol_error(args.tol)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    src, expr = _load_expr(args.file, args.name)
    if args.claim:
        claim = parse_claim(args.claim, expr.dom, expr.cod)
        res = check_annotated(expr, claim)
        if not res.ok:
            print(_dumps(res.to_json(), indent=2))
            return 1
    with open(args.bindings, encoding="utf-8") as fh:
        model, boxes = load_bindings(fh.read(), src.sigs)
    if model.name != args.model:
        raise EvalError(
            f"bindings file is for model {model.name!r}, not {args.model!r}"
        )
    # a value that overflows is reported once, by _dumps, not also by numpy
    with np.errstate(all="ignore"):
        value = eval_expr(expr, model, boxes, tol=args.tol)
        if args.inputs:
            with open(args.inputs, encoding="utf-8") as fh:
                text = fh.read()
            # a point that is malformed or outside the domain is bad input (exit 2)
            try:
                out = model.apply(value, read_json(text))
            except KeyError as exc:
                raise EvalError(f"bad input point: no entry {exc}") from None
            except (AttributeError, IndexError, RecursionError, TypeError, ValueError) as exc:
                raise EvalError(f"bad input point: {exc}") from None
            print(_dumps(out))
        else:
            print(_dumps(model.render(value)))
    return 0


def cmd_suite(args) -> int:
    from .axioms import run_axiom_suite
    from .laws import (
        finset_conway_suite,
        flat_transfer_suite,
        law_implication_report,
        tot_conway_suite,
    )

    bad = _suite_arg_error(args)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    seeds = [int(os.environ.get("GTC_SEED", "0"))] if args.seeds is None else args.seeds
    header, reports = run_axiom_suite(
        models=tuple(args.models),
        seeds=tuple(seeds),
        per_axiom=args.per_axiom,
        tol=args.tol,
    )
    lines = [_dumps(header)]
    failures = 0
    for rep in reports:
        lines.append(_dumps(rep))
        if rep["verdict"] != "pass":
            failures += 1

    law_blocks = {}
    if "finset" in args.models:
        suite = finset_conway_suite()
        law_blocks["finset_laws"] = suite
        law_blocks["finset_implications"] = law_implication_report(suite)
    if "tot" in args.models:
        law_blocks["tot_laws"] = tot_conway_suite()
    if "flat" in args.models:
        law_blocks["flat_laws"] = flat_transfer_suite()
    law_blocks["structural_geometric"] = _oracle_block(seeds[0])
    law_blocks["synthesis_round_trip"] = _synthesis_block(seeds[0])
    for name, block in law_blocks.items():
        lines.append(_dumps({"kind": name, **block}))
        failures += _count_failures(block)

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    summary = {
        "kind": "summary",
        "checks": len(reports),
        "failures": failures,
    }
    print(_dumps(summary))
    return 0 if failures == 0 else 1


def _suite_arg_error(args) -> str | None:
    """What is wrong with the ``gtc suite`` arguments, if anything."""
    unknown = [m for m in args.models if m not in MODEL_NAMES]
    if unknown:
        return f"unknown model {unknown[0]!r}; choose from {', '.join(MODEL_NAMES)}"
    seed = os.environ.get("GTC_SEED", "0")
    if args.seeds is None and not seed.strip().isdecimal():
        return f"GTC_SEED must be an integer of at least 0, not {seed!r}"
    if args.seeds == []:
        return "--seeds needs at least one seed"
    if min(args.seeds or [0]) < 0:
        return f"--seeds must be at least 0, not {min(args.seeds)}"
    if args.per_axiom < 0:
        return f"--per-axiom must be at least 0, not {args.per_axiom}"
    if args.jobs < 1:
        return f"--jobs must be at least 1, not {args.jobs}"
    return _tol_error(args.tol)


def _tol_error(tol: float) -> str | None:
    """What is wrong with a ``--tol`` value, if anything: NaN, zero and
    negatives are not tolerances, and infinity bounds no answer."""
    if not tol > 0:
        return f"--tol must be positive, not {tol}"
    return None if math.isfinite(tol) else f"--tol must be finite, not {tol}"


def _oracle_block(seed: int, n_expr: int = 100) -> dict:
    """Sampled agreement of the structural and geometric deciders, on
    every claim of each expression as a pair of masks."""
    import numpy as np

    rng = np.random.default_rng([seed, 91])
    checked = failures = 0
    for _ in range(n_expr):
        e = rand_trace_free_expr(rng, max_boxes=6)
        structural, table = reach_table(structural_reach(e)), geometric_reach_table(elaborate(e))
        for a in range(1 << len(e.dom)):
            for g in range(1 << len(e.cod)):
                checked += 1
                geometric = table is not None and table[a] & g == 0
                if (structural[a] & g == 0) != geometric:
                    failures += 1
    return {"claims": {"instances": checked, "failures": failures}}


def _synthesis_block(seed: int, n_good: int = 50, n_bad: int = 10) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 92])
    good = bad = good_fail = bad_fail = 0
    while good < n_good or bad < n_bad:
        d, claim = rand_guarded_diagram(rng)
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError as exc:
            if bad < n_bad:
                bad += 1
                if exc.witness is None:
                    bad_fail += 1
            continue
        if good >= n_good:
            continue
        good += 1
        e = synthesize(d, claim)
        if not check_annotated(e, claim).ok or not diagram_iso(elaborate(e, claim), d):
            good_fail += 1
    return {
        "round_trips": {"instances": good, "failures": good_fail},
        "witnessed_violations": {"instances": bad, "failures": bad_fail},
    }


def _count_failures(block: dict) -> int:
    total = 0
    for v in block.values():
        if isinstance(v, dict) and "failures" in v:
            total += v["failures"]
        elif isinstance(v, bool) and not v:
            total += 1
    return total


if __name__ == "__main__":
    sys.exit(main())
