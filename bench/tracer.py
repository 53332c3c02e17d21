"""Spans around the public functions of each ``gtc`` layer, recorded from
outside the package.

``Tracer.install`` wraps every named function and rebinds the wrapper in
every loaded ``gtc`` module (and module-level dict) that holds the
original, because ``from .x import f`` gives each importer its own
binding.  Model operations are wrapped on their classes.  ``uninstall``
puts the originals back, so untraced and traced passes run in one
process.

A span is ``[name, start_ns, end_ns, parent, attrs]``.  Each thread keeps
its own parent stack; a span opened on a worker thread with an empty
stack takes as parent the innermost span open on the thread that
installed the tracer (``gtc suite --jobs N`` runs its checks on pool
threads while ``cli.main`` waits).  Spans stay in memory until
``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter_ns

# module -> public functions timed in the traced run.  ``signatures``
# (mk_split, parse_claim: microseconds per claim) and ``counterexamples``
# (no workload calls it) get no row.
FUNCTIONS = {
    "gtc.guardedness": (
        "geometric_check",
        "derivable_splits",
        "claim_derivable",
        "check_annotated",
    ),
    "gtc.diagrams": ("elaborate", "import_json", "export_json", "diagram_iso"),
    "gtc.expressions": ("parse_source", "print_expr"),
    "gtc.synthesis": (
        "synthesis_preconditions",
        "synthesize",
        "loop_wires",
        "compute_uv",
        "find_cut_wire",
        "acyclic_to_expr",
        "cut_wire",
    ),
    "gtc.models.base": ("eval_expr",),
    "gtc.axioms": (
        "gen_axiom_instances",
        "check_axiom",
        "finset_bindings",
        "metric_bindings",
        "tot_bindings",
        "hilbert_bindings",
        "flat_bindings",
    ),
    "gtc.laws": (
        "finset_conway_suite",
        "tot_conway_suite",
        "flat_transfer_suite",
        "law_implication_report",
    ),
    "gtc.cli": ("main",),
}

# model name -> (module, class); the methods below are wrapped on the class
MODEL_CLASSES = {
    "finset": ("gtc.models.finset", "FinSetModel"),
    "metric": ("gtc.models.metric", "MetricModel"),
    "tot": ("gtc.models.trees", "ToposOfTreesModel"),
    "hilbert": ("gtc.models.hilbert", "HilbertModel"),
    "flat": ("gtc.models.flatposet", "FlatPosetModel"),
}
MODEL_METHODS = ("compose", "tensor", "trace", "equal", "validate_box")


def span_name(module: str, fn: str) -> str:
    """``gtc.models.base.eval_expr`` -> ``models.eval_expr``."""
    layer = module.removeprefix("gtc.").removesuffix(".base")
    return f"{layer}.{fn}"


def _diagram_ports(d) -> int:
    return (
        len(d.boundary_in)
        + len(d.boundary_out)
        + sum(len(s.inputs) + len(s.outputs) for s in d.boxes)
    )


# span name -> function of the result giving extra attributes
ATTRS = {"diagrams.elaborate": lambda d: {"ports": _diagram_ports(d)}}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_thread = threading.get_ident()
        self._restore: list[tuple] = []

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans = self.spans
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = None
            span = [name, 0, 0, parent, None]
            stack.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                spans.append(span)
            if attrs_of is not None:
                span[4] = attrs_of(result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and every model method."""
        for mod_name in [*FUNCTIONS, *(m for m, _ in MODEL_CLASSES.values())]:
            importlib.import_module(mod_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "gtc" or n.startswith("gtc.")]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[mod_name]
            for fn_name in names:
                orig = getattr(home, fn_name)
                self._rebind(modules, orig, self.wrap(span_name(mod_name, fn_name), orig))
        for model, (mod_name, cls_name) in MODEL_CLASSES.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            for meth in MODEL_METHODS:
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(f"models.{model}.{meth}", orig))
                self._restore.append((cls, meth, orig))

    def _rebind(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, v in list(val.items()):
                        if v is orig:
                            val[key] = wrapper
                            self._restore.append((val, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()

    def summary(self, wall_ns: int) -> dict:
        """Per span name: calls, self time (duration minus the union of its
        children's intervals) and summed attributes; plus the share of
        ``wall_ns`` covered by top-level spans."""
        children: dict[int, list[list]] = {}
        roots = []
        for s in self.spans:
            if s[3] is None:
                roots.append(s)
            else:
                children.setdefault(id(s[3]), []).append(s)
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s[0], {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += (s[2] - s[1]) - _covered(children.get(id(s), ()), s[1], s[2])
            if s[4]:
                for k, v in s[4].items():
                    row[k] = row.get(k, 0) + v
        coverage = _covered(roots, None, None) / wall_ns if wall_ns > 0 else 0.0
        return {"layers": out, "coverage": coverage}

    def write_jsonl(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s[0],
                    "start_ns": s[1],
                    "end_ns": s[2],
                    "parent": None if s[3] is None else ids.get(id(s[3])),
                }
                if s[4]:
                    row.update(s[4])
                fh.write(json.dumps(row) + "\n")


def _covered(spans, lo, hi) -> int:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for s in sorted(spans, key=lambda s: s[1]):
        start = s[1] if lo is None else max(s[1], lo)
        end = s[2] if hi is None else min(s[2], hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
