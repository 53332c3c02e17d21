"""Fuzzed command line: ``gtc.cli.main`` in process on ``check``,
``synthesize``, ``eval`` and ``suite`` with generated argv and small
generated ``.gtc``, diagram and bindings files.  Whatever the input, the
exit code is 0, 1 or 2 and no traceback reaches stderr."""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from gtc.cli import main
from gtc.diagrams import export_json
from gtc.expressions import ParseError, TypingError, parse_source
from gtc.generators import rand_guarded_diagram
from gtc.signatures import SignatureError

DECLS = "box h : I | A -> A | I\nbox k : A | I -> I | A\nbox g : I | A*B -> B | A\n"
TRACES = ("tr[A: I|I -> I|I]", "tr[A: A|I -> I|A]", "tr[B: A|I -> I|B]", "tr[A: I|A*B -> B|I]")


def _exprs(leaves: tuple[str, ...]):
    """Expression text over ``leaves``, combined by ``;``, ``(*)`` and traces."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.tuples(inner, st.sampled_from((" ; ", " (*) ")), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"
        )
        | st.tuples(st.sampled_from(TRACES), inner).map(lambda t: f"{t[0]}{{ {t[1]} }}"),
        max_leaves=6,
    )


def _sources(leaves: tuple[str, ...]):
    return st.tuples(st.integers(0, 7), _exprs(leaves)).map(
        lambda t: (DECLS if t[0] else "") + f"let main = {t[1]}\n"
    )


words = st.sampled_from(("I", "A", "B", "A*B", "B*A", "A*A", "", "A*"))
junk_claims = st.tuples(words, words, words, words).map(
    lambda w: f"{w[0]}|{w[1]} -> {w[2]}|{w[3]}"
) | st.just("bogus")
# a pair of corner lengths, made into a claim that fits the profile (``_fit``)
claims = st.tuples(st.integers(0, 8), st.integers(0, 8)) | junk_claims


def _fit(claim, src: str | None = None, dom=None, cod=None) -> str:
    """``claim`` itself if it is text, else the claim with those corner
    lengths (modulo the widths) on ``dom -> cod``, or on the profile of
    ``main`` in ``src``."""
    if isinstance(claim, str):
        return claim
    if src is not None:
        try:
            e = parse_source(src).exprs["main"]
        except (ParseError, SignatureError, TypingError, KeyError):
            return "A|I -> I|A"
        dom, cod = e.dom, e.cod
    a, c = claim[0] % (len(dom) + 1), claim[1] % (len(cod) + 1)
    return f"{dom[:a]}|{dom[a:]} -> {cod[:c]}|{cod[c:]}"


names = st.sampled_from(("main", "main", "main", "other"))

# junk for any leaf of a JSON document
leaf_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(-1, 3, allow_nan=False),
    st.sampled_from(("din", "dout", "bin", "bout", "A", "B", "I", "", "false", "x")),
    st.just([]),
    st.just({}),
)


def _mutated(doc, where: int, value, inner: bool = False):
    """``doc`` with its ``where``-th leaf (mod the leaf count) set to
    ``value``; with ``inner``, non-empty arrays and objects count as slots
    too."""
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            if isinstance(child, (dict, list)) and child:
                if inner:
                    slots.append((node, key))
                walk(child)
            else:
                slots.append((node, key))

    walk(doc)
    if slots:
        node, key = slots[where % len(slots)]
        node[key] = value
    return doc


mutations = st.none() | st.tuples(st.integers(0, 10**6), leaf_junk)
# junk for a node of the bindings' "objects": negative, zero, fractional
# and boolean dimensions, and strings where a carrier or stage array belongs
object_junk = st.sampled_from((-1, 0, 2.7, True, False, "xyz", "x0", ""))
# junk for a number under the bindings' "boxes": non-finite numbers, which
# json.dumps writes as the NaN and Infinity literals, an integer of 401
# digits that no float holds, a fraction where an integer belongs, and
# booleans
number_junk = st.sampled_from((math.nan, math.inf, -math.inf, 10**400, 1.5, True, False))
object_mutations = st.tuples(st.just("objects"), st.integers(0, 10**6), object_junk) | st.tuples(
    st.just("boxes"), st.integers(0, 10**6), number_junk
)


def _run(argv: list[str], files: dict[str, str], env: dict[str, str] | None = None) -> None:
    """Write ``files`` to a fresh directory, put their paths for the
    ``{name}`` fields of ``argv`` and run the CLI on it."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("out1", "out2", *files)}
        for name, text in files.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [a.format(**paths) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(max_examples=60, deadline=None)
@given(
    src=_sources(
        ("h", "h", "k", "k", "g", "id[A]", "id[A]", "id[B]", "id[A*B]", "sym[A,B]", "id[I]", "q", "(")
    ),
    name=names,
    claim=claims,
    extra=st.sampled_from(([], ["--dot", "{out1}"], ["--json", "{out2}"], ["--name"])),
)
def test_check_exits_0_1_or_2(src, name, claim, extra):
    argv = ["check", "{src}", "--name", name, "--claim", _fit(claim, src), *extra]
    _run(argv, {"src": src})


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mutation=mutations,
    claim=st.none() | claims,
    cert=st.booleans(),
)
def test_synthesize_exits_0_1_or_2(seed, mutation, claim, cert):
    d, _ = rand_guarded_diagram(np.random.default_rng(seed), max_boxes=6)
    doc = json.loads(export_json(d))
    if mutation is not None:
        doc = _mutated(doc, *mutation)
    argv = ["synthesize", "{diagram}"]
    argv += ["--claim", _fit(claim, dom=d.dom, cod=d.cod)] if claim is not None else []
    argv += ["--cert", "{out1}"] if cert else []
    _run(argv, {"diagram": json.dumps(doc)})


# per model, carriers for A and B and a binding of the white box h : A -> A;
# hilbert also binds the black box k with a factorization witness
BINDINGS = {
    "finset": {
        "objects": {"A": ["a0", "a1"], "B": ["b0"]},
        "boxes": {"h": {"table": {"0:a0": "0:a1", "0:a1": "0:a0"}}},
    },
    "metric": {
        "objects": {"A": 1, "B": 2},
        "boxes": {"h": {"kind": "affine", "weight": [[0.5]], "offset": [0.0]}},
    },
    "hilbert": {
        "objects": {"A": 2, "B": 1},
        "boxes": {
            "h": {"matrix": [[0, 1], [1, 0]]},
            # k : A -> A, promised on both gates, with a witness of its split
            "k": {
                "matrix": [[1, 0], [0, 0]],
                "witness": {"e_dim": 1, "g": [[1], [0]], "h": [[1, 0]]},
            },
        },
    },
    "tot": {
        "objects": {
            "A": {"stages": [["x0"], ["x0", "x1"]], "restrictions": [{"x0": "x0", "x1": "x0"}]},
            "B": {"stages": [["y"], ["y"]], "restrictions": [{"y": "y"}]},
        },
        "boxes": {"h": {"stages": [{"x0": "x0"}, {"x0": "x0", "x1": "x1"}]}},
    },
    "flat": {
        "objects": {"A": {"elements": ["p", "q"]}, "B": {"elements": ["r"]}},
        "boxes": {"h": {"table": {"p": "q", "q": "p"}}},
    },
}
POINTS = (
    '{"gate": 0, "elem": "a0"}', '{"blocks": [[1.0]]}', '{"vector": [1.0, 2.0]}',
    '{"stages": ["x0", "x1"]}', '{"elems": "p"}', "[]", "{", "",
)


@settings(max_examples=60, deadline=None)
@given(
    src=_sources(("h", "h", "k", "id[A]", "id[A*A]", "sym[A,A]", "id[I]")),
    model=st.sampled_from(sorted(BINDINGS)),
    named=st.none() | st.sampled_from(sorted(BINDINGS) + ["bogus"]),
    mutation=st.none() | mutations,
    objects_mutation=st.none() | object_mutations,
    claim=st.none() | claims,
    point=st.none() | st.sampled_from(POINTS),
    tol=st.sampled_from(("1e-12", "1e-12", "0", "-1", "nan", "x")),
)
def test_eval_exits_0_1_or_2(src, model, named, mutation, objects_mutation, claim, point, tol):
    bindings = {"model": model, **json.loads(json.dumps(BINDINGS[model]))}
    if objects_mutation is not None:
        part, where, value = objects_mutation
        _mutated(bindings[part], where, value, inner=True)
    if mutation is not None:
        bindings = _mutated(bindings, *mutation)
    files = {"src": src, "bindings": json.dumps(bindings)}
    argv = ["eval", "{src}", "--name", "main", "--model", named or model]
    argv += ["--bindings", "{bindings}", "--tol", tol]
    argv += ["--claim", _fit(claim, src)] if claim is not None else []
    if point is not None:
        files["point"] = point
        argv += ["--inputs", "{point}"]
    _run(argv, files)


# the cheapest law suites only, so that a run stays well under a second
@settings(max_examples=8, deadline=None)
@given(
    models=st.none() | st.lists(st.sampled_from(("finset", "flat", "bogus")), max_size=2),
    seeds=st.none() | st.lists(st.integers(-2, 5).map(str) | st.just("x"), max_size=2),
    gtc_seed=st.none() | st.sampled_from(("3", " 7 ", "abc", "-1", "", "1.5")),
    jobs=st.sampled_from(("1", "2", "0", "x")),
    tol=st.sampled_from(("1e-9", "0", "nan", "-1")),
)
def test_suite_exits_0_1_or_2(models, seeds, gtc_seed, jobs, tol):
    argv = ["suite", "--per-axiom", "0", "--jobs", jobs, "--tol", tol]
    argv += ["--models", *models] if models is not None else ["--models", "finset"]
    argv += ["--seeds", *seeds] if seeds is not None else []
    _run(argv, {}, {"GTC_SEED": gtc_seed} if gtc_seed is not None else None)
