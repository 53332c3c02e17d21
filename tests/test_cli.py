import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gtc.cli import main
from gtc.diagrams import export_json
from gtc.generators import rand_guarded_diagram
from gtc.synthesis import SynthesisError, synthesis_preconditions

GTC_SOURCE = """
box f : X | I -> I | U
box g : I | U -> Y | I
let pipeline = f ; g
let looped = tr[U: X|I -> I|Y]{ sym[X,U] ; (g (*) f) }
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "demo.gtc"
    path.write_text(GTC_SOURCE, encoding="utf-8")
    return str(path)


def test_check_and_synthesize_start_without_numpy(source_file, tmp_path):
    # only eval and suite load the models, and numpy with them
    code = (
        "import sys\n"
        "from gtc.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m == 'numpy' or m.startswith('gtc.models')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    diagram = str(tmp_path / "d.json")
    for args in (
        ["check", source_file, "--name", "pipeline", "--claim", "X|I -> I|Y", "--json", diagram],
        ["synthesize", diagram],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


def test_check_accepts(source_file, capsys):
    code = main(["check", source_file, "--name", "pipeline", "--claim", "X|I -> I|Y"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]


def test_check_rejects_with_witness(source_file, capsys):
    code = main(["check", source_file, "--name", "looped", "--claim", "X|I -> I|Y"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert payload["witness"]["kind"] == "path"


def test_check_cross_checked_against_structural_oracle(source_file, capsys):
    from gtc.expressions import parse_source
    from graph_reference import split_derivable
    from gtc.signatures import parse_claim

    src = parse_source(GTC_SOURCE)
    expr = src.exprs["pipeline"]
    claim = parse_claim("X|I -> I|Y", expr.dom, expr.cod)
    code = main(["check", source_file, "--name", "pipeline", "--claim", "X|I -> I|Y"])
    assert (code == 0) == split_derivable(expr, claim)
    capsys.readouterr()


def test_check_parse_error_exit_2(source_file, capsys):
    assert main(["check", source_file, "--name", "missing", "--claim", "X|I -> I|Y"]) == 2
    assert main(["check", source_file, "--name", "pipeline", "--claim", "bogus"]) == 2
    capsys.readouterr()


def test_check_writes_dot_and_json(source_file, tmp_path, capsys):
    dot = tmp_path / "d.dot"
    js = tmp_path / "d.json"
    main(
        [
            "check", source_file, "--name", "pipeline",
            "--claim", "X|I -> I|Y", "--dot", str(dot), "--json", str(js),
        ]
    )
    capsys.readouterr()
    assert dot.read_text().startswith("digraph")
    json.loads(js.read_text())


def test_check_reports_a_failing_certificate_that_has_no_diagram(tmp_path, capsys):
    # the body is a bare wire: the layer check fails, and closing the loop
    # leaves no port to elaborate, which only an export needs
    path = tmp_path / "bare.gtc"
    path.write_text("let main = tr[A: I|I -> I|I]{ id[A] }\n")
    argv = ["check", str(path), "--name", "main", "--claim", "I|I -> I|I"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [n["ok"] for n in payload["nodes"]] == [True, False]
    assert payload["witness"] == {"node": "tr_0", "kind": "path", "ports": [["din", 0], ["dout", 0]]}
    assert main([*argv, "--dot", str(tmp_path / "d.dot")]) == 2
    assert _error_line(capsys).startswith("error: trace closes a wire through no box")


def _find(rng, want_ok: bool):
    while True:
        d, claim = rand_guarded_diagram(rng)
        try:
            synthesis_preconditions(d, claim)
            ok = True
        except SynthesisError:
            ok = False
        if ok == want_ok:
            return d


def test_synthesize_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(2)
    d = _find(rng, True)
    path = tmp_path / "d.json"
    path.write_text(export_json(d))
    code = main(["synthesize", str(path), "--cert", str(tmp_path / "c.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "let synthesized" in out
    cert = json.loads((tmp_path / "c.json").read_text())
    assert cert["ok"]
    # the emitted text re-parses and re-checks
    from gtc.expressions import parse_source
    from gtc.guardedness import check_annotated

    src = parse_source(out)
    assert check_annotated(src.exprs["synthesized"], d.boundary_claim()).ok


def test_synthesize_reports_violation(tmp_path, capsys):
    rng = np.random.default_rng(3)
    d = _find(rng, False)
    path = tmp_path / "bad.json"
    path.write_text(export_json(d))
    code = main(["synthesize", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"] and payload["witness"] is not None


def test_eval_banach_closed_form(tmp_path, capsys):
    src = tmp_path / "m.gtc"
    src.write_text(
        "box avg2 : A*U | I -> U | U\nlet fix = tr[U: A|I -> U|I]{ avg2 }\n"
    )
    bind = tmp_path / "b.json"
    bind.write_text(
        json.dumps(
            {
                "model": "metric",
                "objects": {"A": 1, "U": 1},
                "boxes": {
                    "avg2": {
                        "kind": "affine",
                        "weight": [[0.5, 0.5], [0.5, 0.5]],
                        "offset": [0.0, 0.0],
                    }
                },
            }
        )
    )
    inputs = tmp_path / "in.json"
    inputs.write_text('{"blocks": [[3.0]]}')
    code = main(
        [
            "eval", str(src), "--name", "fix", "--model", "metric",
            "--bindings", str(bind), "--inputs", str(inputs),
            "--claim", "A|I -> U|I",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["blocks"][0][0] - 3.0) < 1e-9


@pytest.mark.parametrize("with_inputs", [True, False], ids=["inputs", "no-inputs"])
@pytest.mark.parametrize(
    "tol, shown", [("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")], ids=["nan", "zero", "negative"]
)
def test_eval_tolerance_that_is_not_positive_exit_2(tmp_path, capsys, tol, shown, with_inputs):
    src = tmp_path / "m.gtc"
    src.write_text("box avg2 : A*U | I -> U | U\nlet fix = tr[U: A|I -> U|I]{ avg2 }\n")
    bind = tmp_path / "b.json"
    bind.write_text(json.dumps({
        "model": "metric",
        "objects": {"A": 1, "U": 1},
        "boxes": {"avg2": {"weight": [[0.5, 0.5], [0.9, 0.5]], "offset": [0.0, 0.0]}},
    }))
    inputs = tmp_path / "in.json"
    inputs.write_text('{"blocks": [[1.0]]}')
    argv = ["eval", str(src), "--name", "fix", "--model", "metric", "--bindings", str(bind)]
    argv += ["--inputs", str(inputs)] if with_inputs else []
    assert main([*argv, f"--tol={tol}"]) == 2
    assert _error_line(capsys) == f"error: --tol must be positive, not {shown}"
    assert main([*argv, "--tol=1e-9"]) == 0


@pytest.mark.parametrize("command", ["eval", "suite"])
def test_infinite_tolerance_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    # an infinite tolerance stops the fixpoint iteration after one step,
    # so the answer would carry no bound; a huge finite one still runs
    import gtc.axioms
    import gtc.cli

    monkeypatch.setattr(gtc.cli, "_load_expr", lambda *a: pytest.fail("work was done"))
    monkeypatch.setattr(gtc.axioms, "run_axiom_suite", lambda **k: pytest.fail("work was done"))
    argv = ["eval", str(tmp_path / "m.gtc"), "--name", "fix", "--model", "metric",
            "--bindings", str(tmp_path / "b.json")] if command == "eval" else ["suite"]
    assert main([*argv, "--tol=inf"]) == 2
    assert capsys.readouterr().err == "error: --tol must be finite, not inf\n"


def test_eval_identity_finset(tmp_path, capsys):
    src = tmp_path / "f.gtc"
    src.write_text("box p : I | A -> A | I\nlet idA = id[A]\n")
    bind = tmp_path / "b.json"
    bind.write_text(
        json.dumps({"model": "finset", "objects": {"A": ["a0", "a1"]}, "boxes": {}})
    )
    code = main(
        ["eval", str(src), "--name", "idA", "--model", "finset", "--bindings", str(bind)]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["table"] == {"0:a0": "0:a0", "0:a1": "0:a1"}


def test_eval_full_trace_of_identity(tmp_path, capsys):
    src = tmp_path / "h.gtc"
    src.write_text("box w : U | I -> I | U\nlet t = tr[U: I|I -> I|I]{ w }\n")
    bind = tmp_path / "b.json"
    bind.write_text(
        json.dumps(
            {
                "model": "hilbert",
                "objects": {"U": 2},
                "boxes": {"w": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
            }
        )
    )
    code = main(
        [
            "eval", str(src), "--name", "t", "--model", "hilbert",
            "--bindings", str(bind), "--claim", "I|I -> I|I",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["matrix"] == [[2.0]]


_TOT_A = {
    "stages": [["x0"], ["x0", "x1"], ["x0", "x1"]],
    "restrictions": [{"x0": "x0", "x1": "x0"}, {"x0": "x0", "x1": "x1"}],
}

# model -> (source defining main, bindings, input point, printed value,
# printed image of the point)
_EVAL_PINS = {
    "finset": (
        "box p : I | A -> A*B | I\nlet main = p ; sym[A,B]\n",
        {
            "objects": {"A": ["a0", "a1"], "B": ["b0"]},
            "boxes": {"p": {"table": {"0:a0": "1:b0", "0:a1": "0:a0"}}},
        },
        {"gate": 0, "elem": "a1"},
        '{"table": {"0:a0": "0:b0", "0:a1": "1:a0"}}',
        '{"gate": 1, "elem": "a0"}',
    ),
    "metric": (
        "box f : A | I -> A*B | I\nlet main = f ; sym[A,B]\n",
        {
            "objects": {"A": 1, "B": 2},
            "boxes": {
                "f": {
                    "kind": "affine",
                    "weight": [[0.5], [1.0], [-0.25]],
                    "offset": [0.25, 0.0, 1.0],
                }
            },
        },
        {"blocks": [[2.0]]},
        '{"in_dims": [1], "out_dims": [2, 1], "lip": [[1.0, 0.5]]}',
        '{"blocks": [[2.0, 0.5], [1.25]]}',
    ),
    "tot": (
        "box p : I | A -> A | I\nlet main = sym[A,A] ; (p (*) id[A])\n",
        {
            "objects": {"A": _TOT_A},
            "boxes": {
                "p": {
                    "stages": [
                        {"x0": "x0"},
                        {"x0": "x0", "x1": "x0"},
                        {"x0": "x0", "x1": "x0"},
                    ]
                }
            },
        },
        {"stages": ["x0|x0", "x1|x0", "x1|x1"]},
        '{"stages": [{"x0|x0": "x0|x0"}, '
        '{"x0|x0": "x0|x0", "x0|x1": "x0|x0", "x1|x0": "x0|x1", "x1|x1": "x0|x1"}, '
        '{"x0|x0": "x0|x0", "x0|x1": "x0|x0", "x1|x0": "x0|x1", "x1|x1": "x0|x1"}]}',
        '{"stages": ["x0|x0", "x0|x1", "x0|x1"]}',
    ),
    "hilbert": (
        "box h : A*U | I -> A | U\nlet main = tr[U: A|I -> A|I]{ h }\n",
        {
            "objects": {"A": 2, "U": 2},
            "boxes": {
                "h": {
                    "matrix": [
                        [1.0, 0.5, 0.0, 2.0],
                        [0.0, 1.0, -1.0, 0.0],
                        [0.25, 0.0, 1.0, 0.5],
                        [3.0, 0.0, 0.0, 1.0],
                    ]
                }
            },
        },
        {"vector": [1.0, 2.0]},
        '{"matrix": [[2.0, 0.0], [0.25, 2.0]]}',
        '{"vector": [2.0, 4.25]}',
    ),
    "flat": (
        "box f : I | A*B -> A | I\nlet main = sym[B,A] ; f\n",
        {
            "objects": {"A": {"elements": ["p", "q"]}, "B": {"elements": ["r"]}},
            "boxes": {"f": {"table": {"p|r": "q", "q|r": "p"}}},
        },
        {"elems": "r|q"},
        '{"table": {"r|p": "q", "r|q": "p"}}',
        '{"elems": "p"}',
    ),
}


@pytest.mark.parametrize("model", list(_EVAL_PINS))
def test_eval_prints_the_value_and_the_image_of_a_point(tmp_path, capsys, model):
    source, bindings, point, value_text, image_text = _EVAL_PINS[model]
    src, bind, inputs = tmp_path / "m.gtc", tmp_path / "b.json", tmp_path / "in.json"
    src.write_text(source)
    bind.write_text(json.dumps({"model": model, **bindings}))
    inputs.write_text(json.dumps(point))
    argv = ["eval", str(src), "--name", "main", "--model", model, "--bindings", str(bind)]
    assert main(argv) == 0
    assert capsys.readouterr().out == value_text + "\n"
    assert main(argv + ["--inputs", str(inputs)]) == 0
    assert capsys.readouterr().out == image_text + "\n"


def test_suite_small_green(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = main(
        [
            "suite", "--models", "finset", "flat", "--per-axiom", "2",
            "--seeds", "4", "--out", str(report),
        ]
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert summary["failures"] == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert lines[0]["kind"] == "axiom-suite"
    assert {l["model"] for l in lines if "model" in l} == {"finset", "flat"}


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_suite_report_does_not_depend_on_jobs(tmp_path, capsys, seed):
    # --jobs is accepted for compatibility; the checks run in one thread
    texts = set()
    for jobs in ("1", "2", "4"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        argv = ["suite", "--per-axiom", "2", "--seeds", seed, "--jobs", jobs, "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        texts.add(out.read_bytes())
    assert len(texts) == 1


def test_suite_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GTC_SEED", "13")
    env_out = tmp_path / "env.jsonl"
    assert main(["suite", "--models", "finset", "--per-axiom", "1", "--out", str(env_out)]) == 0
    capsys.readouterr()
    explicit_out = tmp_path / "explicit.jsonl"
    assert main(
        ["suite", "--models", "finset", "--per-axiom", "1", "--seeds", "13",
         "--out", str(explicit_out)]
    ) == 0
    capsys.readouterr()
    assert env_out.read_text() == explicit_out.read_text()


def test_suite_determinism_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        code = main(
            ["suite", "--models", "finset", "--per-axiom", "2", "--seeds", "9",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
    assert a.read_text() == b.read_text()


# sha256 of the `gtc suite --seeds N --per-axiom 10` report for seeds 0, 1
# and 7, one JSON line per line, with the numeric models' (metric, hilbert)
# max_dev left out: every verdict, the exact models' instance lines, the law
# and oracle blocks and the summary, all independent of floating-point
# rounding.
SUITE_DIGESTS = {
    0: "93fae86a7e3e921838bf44f607be7fa3d349a20baab93d0f0002a57b55d1bf2d",
    1: "5e724552eac29f7a52a8285632aea391573a0febf7fac156028177eacb1b3516",
    7: "21896e0fe5450e5f7283440457e9141e43653c27d95948ef6e46da744b45c411",
}


def test_suite_report_matches_golden_digest(capsys):
    for seed, digest in SUITE_DIGESTS.items():
        assert main(["suite", "--seeds", str(seed), "--per-axiom", "10"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for line in lines:
            if line.get("model") in ("metric", "hilbert"):
                del line["max_dev"]
        text = "\n".join(json.dumps(line) for line in lines)
        assert len(lines) == 408
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed


def _error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_eval_overflow_is_one_error_line(tmp_path, capsys):
    src = tmp_path / "f.gtc"
    src.write_text("box f : I | A -> A | I\nlet main = f\n")
    bind = tmp_path / "b.json"
    bind.write_text(json.dumps(
        {"model": "metric", "objects": {"A": 1},
         "boxes": {"f": {"weight": [[1e308]], "offset": [0.0]}}}
    ))
    inputs = tmp_path / "in.json"
    inputs.write_text('{"blocks": [[10.0]]}')
    argv = ["eval", str(src), "--name", "main", "--model", "metric",
            "--bindings", str(bind), "--inputs", str(inputs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # outside pytest, a warning is printed to stderr
        assert main(argv) == 2
    assert _error_line(capsys) == "error: result is not finite, so it has no JSON form"


def test_synthesize_missing_box_exit_2(tmp_path, capsys):
    payload = json.loads(export_json(_find(np.random.default_rng(2), True)))
    n_boxes = len(payload["boxes"])
    payload["wires"][0][1] = ["bin", n_boxes, 0]  # a box that does not exist
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    assert main(["synthesize", str(path)]) == 2
    assert "not a port" in _error_line(capsys)


@pytest.mark.parametrize(
    "model, bindings, message",
    [
        ("finset", [], "JSON object"),
        ("finset", {"model": "finset", "objects": {"A": ["a0"]}, "boxes": {"p": {}}}, "'table'"),
        (
            "metric",
            {"model": "metric", "objects": {"A": 1}, "boxes": {"p": {"weight": [[0.5]]}}},
            "'offset'",
        ),
        # a dimension is a JSON integer of at least 1
        ("hilbert", {"model": "hilbert", "objects": {"A": -1}}, "integer >= 1"),
        ("metric", {"model": "metric", "objects": {"A": -1}}, "integer >= 1"),
        ("metric", {"model": "metric", "objects": {"A": 2.7}}, "integer >= 1"),
        ("hilbert", {"model": "hilbert", "objects": {"A": True}}, "integer >= 1"),
        # a string is not split into a carrier of its characters
        ("finset", {"model": "finset", "objects": {"A": "xyz"}}, "JSON array"),
        ("flat", {"model": "flat", "objects": {"A": {"elements": "pq"}}}, "JSON array"),
        ("tot", {"model": "tot", "objects": {"A": {"stages": ["ab"]}}}, "JSON array"),
    ],
)
def test_eval_malformed_bindings_exit_2(tmp_path, capsys, model, bindings, message):
    src = tmp_path / "f.gtc"
    src.write_text("box p : I | A -> A | I\nlet main = p\n")
    bind = tmp_path / "b.json"
    bind.write_text(json.dumps(bindings))
    argv = ["eval", str(src), "--name", "main", "--model", model, "--bindings", str(bind)]
    assert main(argv) == 2
    assert message in _error_line(capsys)


_IDENTITY_BINDINGS = {
    "finset": {"objects": {"A": ["a0", "a1"]}},
    "metric": {"objects": {"A": 1}},
    "hilbert": {"objects": {"A": 2}},
    "tot": {
        "objects": {
            "A": {
                "stages": [["x0"], ["x0", "x1"], ["x0", "x1"]],
                "restrictions": [{"x0": "x0", "x1": "x0"}, {"x0": "x0", "x1": "x1"}],
            }
        }
    },
    "flat": {"objects": {"A": {"elements": ["p", "q"]}}},
}


@pytest.mark.parametrize(
    "model, point, message",
    [
        ("finset", '{"gate": 0}', "'elem'"),
        ("finset", '{"gate": 0, "elem": "a9"}', "no entry"),
        ("finset", '{"gate": "x", "elem": "a0"}', "bad input point"),
        ("finset", '{"gate": 0,', "bad input point"),
        ("metric", '{"vector": [1.0]}', "'blocks'"),
        ("metric", '{"blocks": [["x"]]}', "bad input point"),
        ("hilbert", '{"vector": [1.0, 2.0, 3.0]}', "bad input point"),
        ("hilbert", "[1.0, 2.0]", "bad input point"),
        ("tot", '{"stages": ["x0"]}', "bad input point"),
        ("tot", '{"stages": [0, 1, 2]}', "bad input point"),
        ("flat", '{"elems": "r"}', "no entry"),
        ("flat", '{"elems": ["p"]}', "bad input point"),
    ],
    ids=[
        "finset-no-elem", "finset-unknown-elem", "finset-bad-gate", "finset-not-json",
        "metric-no-blocks", "metric-bad-block", "hilbert-wrong-length",
        "hilbert-not-object", "tot-few-stages", "tot-bad-stage", "flat-unknown-elems",
        "flat-bad-elems",
    ],
)
def test_eval_malformed_inputs_exit_2(tmp_path, capsys, model, point, message):
    src = tmp_path / "f.gtc"
    src.write_text("box p : I | A -> A | I\nlet main = id[A]\n")
    bind = tmp_path / "b.json"
    bind.write_text(json.dumps({"model": model, "boxes": {}, **_IDENTITY_BINDINGS[model]}))
    inputs = tmp_path / "in.json"
    inputs.write_text(point)
    argv = [
        "eval", str(src), "--name", "main", "--model", model,
        "--bindings", str(bind), "--inputs", str(inputs),
    ]
    assert main(argv) == 2
    assert message in _error_line(capsys)



_THREE_STAGES = {
    "stages": [["x0"], ["x0", "x1"], ["x0", "x1"]],
    "restrictions": [{"x0": "x0", "x1": "x0"}, {"x0": "x0", "x1": "x1"}],
}


@pytest.mark.parametrize(
    "decl, carrier, maps, message",
    [
        ("A -> A", {"stages": [["a0", "a1"]]}, [{"a0": "zz", "a1": "a0"}],
         "stage 1 map leaves the codomain"),
        ("A -> A", _THREE_STAGES, [{"x0": "x0"}], "need one stage map per carrier stage"),
        ("I -> I", _THREE_STAGES, [{"": ""}], "binding for 'p' needs 3 stage maps"),
        ("A -> A", {"stages": [["a0", "a0"], ["b"]], "restrictions": [{"b": "a0"}]},
         [{"a0": "a0"}, {"b": "b"}], "duplicate elements in stage 1"),
    ],
    ids=["value-outside-codomain", "too-few-maps", "unit-box-too-few-maps", "duplicate-stage"],
)
def test_eval_tot_bad_stage_maps_exit_2(tmp_path, capsys, decl, carrier, maps, message):
    src = tmp_path / "f.gtc"
    dom, cod = decl.split(" -> ")
    src.write_text(f"box p : I | {dom} -> {cod} | I\nlet main = p ; p\n")
    bind = tmp_path / "b.json"
    bind.write_text(
        json.dumps({"model": "tot", "objects": {"A": carrier}, "boxes": {"p": {"stages": maps}}})
    )
    argv = ["eval", str(src), "--name", "main", "--model", "tot", "--bindings", str(bind)]
    assert main(argv) == 2
    assert _error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize(
    "sig, message",
    [
        ({"name": "f", "inputs": 5, "outputs": "A"}, "object 5 is not a string"),
        ({"name": "f", "inputs": "A", "outputs": "A", "unguarded_in": ["x"]}, "bad gate index 'x'"),
        ({"name": "f", "inputs": "A", "outputs": "A", "guarded_out": [1.5]}, "bad gate index 1.5"),
        ({"name": "f", "inputs": "A", "outputs": "A", "unguarded_in": [3]}, "exceed range(1)"),
    ],
)
def test_synthesize_malformed_box_data_exit_2(tmp_path, capsys, sig, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"boxes": [{"id": 0, "sig": sig}], "wires": [], "in": [], "out": []}))
    assert main(["synthesize", str(path)]) == 2
    assert message in _error_line(capsys)


def test_check_deep_nesting_exit_2(tmp_path, capsys):
    # no nesting limit: a 10,000-level nest checks; unbalanced, it is an error
    path = tmp_path / "deep.gtc"
    args = ["check", str(path), "--name", "main", "--claim", "A|I -> I|A"]
    path.write_text("box f : A | I -> I | A\nlet main = " + "(" * 10000 + "f" + ")" * 10000 + "\n")
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    path.write_text("box f : A | I -> I | A\nlet main = " + "(" * 10000 + "f" + ")" * 9999 + "\n")
    assert main(args) == 2
    assert _error_line(capsys) == "error: line 2: expected rpar at position 20000, got ''"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--models", "bogus"], "unknown model 'bogus'; choose from finset, metric, tot, hilbert, flat"),
        (["--seeds"], "--seeds needs at least one seed"),
        (["--per-axiom", "-1"], "--per-axiom must be at least 0, not -1"),
        (["--jobs", "0"], "--jobs must be at least 1, not 0"),
        (["--tol", "-1"], "--tol must be positive, not -1.0"),
        (["--seeds", "3", "-1"], "--seeds must be at least 0, not -1"),
    ],
    ids=["unknown-model", "no-seeds", "negative-per-axiom", "no-jobs", "negative-tol",
         "negative-seed"],
)
def test_suite_malformed_arguments_exit_2(capsys, args, message):
    assert main(["suite", *args]) == 2
    assert _error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize("value", ["abc", "-2", "", "1.5"])
def test_suite_malformed_seed_from_environment_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("GTC_SEED", value)
    assert main(["suite", "--models", "finset", "--per-axiom", "0"]) == 2
    assert _error_line(capsys) == f"error: GTC_SEED must be an integer of at least 0, not {value!r}"


def test_synthesize_rejects_a_guarded_flag_that_is_not_a_boolean(tmp_path, capsys):
    payload = json.loads(export_json(_find(np.random.default_rng(2), True)))
    payload["in"][0]["guarded"] = "false"
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    assert main(["synthesize", str(path)]) == 2
    assert _error_line(capsys) == "error: bad diagram JSON: bad guarded flag 'false'"


def test_suite_zero_per_axiom_still_runs(capsys):
    assert main(["suite", "--models", "finset", "--per-axiom", "0", "--seeds", "3"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary == {"kind": "summary", "checks": 0, "failures": 0}


def test_oracle_block_counts_a_planted_disagreement(monkeypatch):
    import gtc.cli as cli

    real = cli.structural_reach
    monkeypatch.setattr(cli, "structural_reach", lambda e: [0] + real(e)[1:])
    assert cli._oracle_block(0, n_expr=10)["claims"]["failures"] > 0
    monkeypatch.setattr(cli, "structural_reach", real)
    monkeypatch.setattr(cli, "geometric_reach_table", lambda d: None)
    assert cli._oracle_block(0, n_expr=10)["claims"]["failures"] > 0


def _oracle_enumeration(seed: int, n_expr: int, structural_reach, geometric_reach_table) -> dict:
    """``_oracle_block`` as a full enumeration of every claim of every expression."""
    from gtc.diagrams import elaborate
    from gtc.generators import rand_trace_free_expr
    from gtc.guardedness import reach_table

    rng = np.random.default_rng([seed, 91])
    checked = failures = 0
    for _ in range(n_expr):
        e = rand_trace_free_expr(rng, max_boxes=6)
        structural = reach_table(structural_reach(e))
        table = geometric_reach_table(elaborate(e))
        for a in range(1 << len(e.dom)):
            for g in range(1 << len(e.cod)):
                checked += 1
                geometric = table is not None and table[a] & g == 0
                failures += (structural[a] & g == 0) != geometric
    return {"claims": {"instances": checked, "failures": failures}}


def test_oracle_block_matches_a_full_enumeration(monkeypatch):
    import gtc.cli as cli

    real_reach, real_table = cli.structural_reach, cli.geometric_reach_table

    def planted(e):
        # flip one output bit in the mask of every other input: several
        # rows of the reach table then differ from the geometric ones
        reach = real_reach(e)
        for i in range(0, len(reach) if e.cod else 0, 2):
            reach[i] ^= 1 << (i + len(e.dom)) % len(e.cod)
        return reach

    def some_loops(d):  # claim an unguarded loop in some diagrams
        return None if len(d.boundary_in) % 3 == 2 else real_table(d)

    for seed in (0, 7):
        honest = cli._oracle_block(seed, n_expr=30)
        assert honest == _oracle_enumeration(seed, 30, real_reach, real_table)
        assert honest["claims"]["failures"] == 0
        for reach, table in ((planted, real_table), (real_reach, some_loops), (planted, some_loops)):
            monkeypatch.setattr(cli, "structural_reach", reach)
            monkeypatch.setattr(cli, "geometric_reach_table", table)
            got = cli._oracle_block(seed, n_expr=30)
            assert got == _oracle_enumeration(seed, 30, reach, table)
            assert got["claims"]["instances"] == honest["claims"]["instances"]
            assert got["claims"]["failures"] > 0
        monkeypatch.setattr(cli, "structural_reach", real_reach)
        monkeypatch.setattr(cli, "geometric_reach_table", real_table)


def test_eval_too_deep_bindings_and_inputs_exit_2(tmp_path, capsys):
    src = tmp_path / "f.gtc"
    src.write_text("box p : I | A -> A | I\nlet main = id[A]\n")
    deep = "[" * 100_000 + "]" * 100_000
    bind = tmp_path / "b.json"
    bind.write_text(deep)
    argv = ["eval", str(src), "--name", "main", "--model", "finset", "--bindings", str(bind)]
    assert main(argv) == 2
    assert _error_line(capsys).startswith("error: bad bindings: maximum recursion depth")
    bind.write_text(json.dumps({"model": "finset", "boxes": {}, **_IDENTITY_BINDINGS["finset"]}))
    inputs = tmp_path / "in.json"
    inputs.write_text(deep)
    assert main([*argv, "--inputs", str(inputs)]) == 2
    assert _error_line(capsys).startswith("error: bad input point: maximum recursion depth")


# numbers that JSON carries but no binding or input point may hold:
# non-finite literals, numbers beyond the float range, booleans where a
# float belongs, a fraction where an integer belongs
_BLACK, _WHITE = "box f : A | I -> I | A", "box f : I | A -> A | I"
_LOOP = "tr[A: I|I -> I|I]{ f }"
_BIG = "1" + "0" * 400  # an integer that no float holds
# a contraction whose fixpoint the metric trace iterates from the point
_AVG, _FIX = "box f : A*A | I -> A | A", "tr[A: A|I -> A|I]{ f }"
_AVG_BOXES = '{"weight": [[0.5, 0.5], [0.9, 0.5]], "offset": [0.0, 0.0]}'


@pytest.mark.parametrize(
    "model, decl, expr, boxes, point, message",
    [
        # NaN passes both the sign test and the contraction test (>= 1.0)
        ("metric", _BLACK, _LOOP, '{"weight": [[NaN]], "offset": [0.0]}', None, "NaN is not"),
        (
            "metric", _WHITE, "f", '{"weight": [[Infinity]], "offset": [0.0]}',
            None, "Infinity is not",
        ),
        (
            "metric", _WHITE, "f", '{"weight": [[0.5]], "offset": [-Infinity]}',
            None, "-Infinity is not",
        ),
        ("metric", _WHITE, "f", '{"weight": [[true]], "offset": [0.0]}', None, "boolean"),
        ("metric", _WHITE, "f", '{"weight": [[0.5]], "offset": [false]}', None, "boolean"),
        ("hilbert", _WHITE, "f", '{"matrix": [[true]]}', None, "boolean"),
        ("hilbert", _WHITE, "f", '{"matrix": [[NaN]]}', None, "NaN is not"),
        (
            "hilbert", _BLACK, _LOOP,
            '{"matrix": [[1.0]], "witness": {"e_dim": 1.5, "g": [[1.0]], "h": [[1.0]]}}',
            None, "e_dim for 'f' must be an integer",
        ),
        (
            "hilbert", _BLACK, _LOOP,
            '{"matrix": [[1.0]], "witness": {"e_dim": 1, "g": [[true]], "h": [[1.0]]}}',
            None, "boolean",
        ),
        (
            "metric", _WHITE, "f", f'{{"weight": [[{_BIG}]], "offset": [0.0]}}',
            None, f"error: weight holds {_BIG}, which overflows a float",
        ),
        (
            "metric", _WHITE, "f", '{"weight": [[1e400]], "offset": [0.0]}',
            None, "error: bad bindings: 1e400 overflows a float",
        ),
        (
            "metric", _WHITE, "f", '{"weight": [[0.5]], "offset": [0.0]}',
            f'{{"blocks": [[{_BIG}]]}}',
            f"error: bad input point: input block holds {_BIG}, which overflows a float",
        ),
        (
            "hilbert", _WHITE, "f", '{"matrix": [[1.0]]}',
            f'{{"vector": [-{_BIG}]}}',
            f"error: bad input point: input vector holds -{_BIG}, which overflows a float",
        ),
        (
            "metric", _AVG, _FIX, _AVG_BOXES,
            '{"blocks": [[1e400]]}', "error: bad input point: 1e400 overflows a float",
        ),
        (
            "metric", _AVG, _FIX, _AVG_BOXES,
            '{"blocks": [[NaN]]}', "error: bad input point: NaN is not a JSON number",
        ),
        # numpy reads a string as the number it spells
        (
            "metric", _AVG, _FIX, '{"weight": [["0.5", "0.5"], [0.9, 0.5]], "offset": [0.0, 0.0]}',
            None, "error: weight holds the string '0.5', not a number",
        ),
        (
            "metric", _AVG, _FIX, _AVG_BOXES, '{"blocks": [["1e400"]]}',
            "error: bad input point: input block holds the string '1e400', not a number",
        ),
    ],
    ids=[
        "metric-nan-contraction", "metric-infinity", "metric-minus-infinity",
        "metric-true-weight", "metric-false-offset", "hilbert-true-entry", "hilbert-nan",
        "hilbert-fractional-e-dim", "hilbert-true-witness", "metric-huge-weight",
        "metric-1e400-weight", "metric-huge-point", "hilbert-huge-point", "metric-1e400-point",
        "metric-nan-point", "metric-string-weight", "metric-string-point",
    ],
)
def test_eval_non_finite_or_coerced_numbers_exit_2(
    tmp_path, capsys, model, decl, expr, boxes, point, message
):
    src = tmp_path / "f.gtc"
    src.write_text(f"{decl}\nlet main = {expr}\n")
    bind = tmp_path / "b.json"
    bind.write_text(f'{{"model": "{model}", "objects": {{"A": 1}}, "boxes": {{"f": {boxes}}}}}')
    argv = ["eval", str(src), "--name", "main", "--model", model, "--bindings", str(bind)]
    if point is not None:
        inputs = tmp_path / "in.json"
        inputs.write_text(point)
        argv += ["--inputs", str(inputs)]
    assert main(argv) == 2
    assert message in _error_line(capsys)


def test_eval_metric_feedback_that_overflows_is_not_a_bad_point(tmp_path, capsys):
    src = tmp_path / "f.gtc"
    src.write_text("box f : A*U | I -> B | U\nlet main = tr[U: A|I -> B|I]{ f }\n")
    bind = tmp_path / "b.json"
    f = {"weight": [[1.0, 0.0], [0.9, 0.05]], "offset": [0.0, 1e308]}
    objects = {"A": 1, "B": 1, "U": 1}
    bind.write_text(json.dumps({"model": "metric", "objects": objects, "boxes": {"f": f}}))
    inputs = tmp_path / "in.json"
    inputs.write_text('{"blocks": [[1e308]]}')  # a valid point whose first iterate is inf
    argv = ["eval", str(src), "--name", "main", "--model", "metric", "--bindings", str(bind)]
    assert main([*argv, "--inputs", str(inputs)]) == 2
    assert _error_line(capsys) == "error: metric feedback iterate is not finite"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "model, boxes, point",
    [
        ("metric", {"f": {"weight": [[1e308]], "offset": [0.0]}}, '{"blocks": [[10.0]]}'),
        ("hilbert", {"f": {"matrix": [[1e308]]}}, '{"vector": [10.0]}'),
    ],
)
def test_eval_never_prints_a_non_finite_value(tmp_path, capsys, model, boxes, point):
    src = tmp_path / "f.gtc"
    src.write_text(f"{_WHITE}\nlet main = f\n")
    bind = tmp_path / "b.json"
    bind.write_text(json.dumps({"model": model, "objects": {"A": 1}, "boxes": boxes}))
    inputs = tmp_path / "in.json"
    inputs.write_text(point)
    argv = ["eval", str(src), "--name", "main", "--model", model, "--bindings", str(bind)]
    assert main(argv) == 0  # the value itself is finite
    assert json.loads(capsys.readouterr().out)
    assert main([*argv, "--inputs", str(inputs)]) == 2  # its image of the point is not
    assert "not finite" in _error_line(capsys)
