"""Digests of gtc's observable behaviour, one sha256 line per output group.

    python3 tests/parity.py

Run it on two checkouts and diff the outputs: equal lines mean the
outputs of that group are byte-identical.  The groups:

* ``acceptance``: the nine ACCEPTANCE lines of ``tests/test_acceptance.py``;
* ``certificates``: ``check_annotated`` certificates of the tier-1 traced
  corpus (``tests/test_guardedness.py``);
* ``synthesize``: ``gtc synthesize`` stdout, exit code and ``--cert`` file
  for the 96 diagrams among the seed-1 ``roundtrip`` benchmark inputs;
* ``suite``: ``gtc suite --per-axiom 10`` stdout and report, ``max_dev``
  included, for seeds 0, 1 and 7;
* ``oracle_op`` and ``roundtrip_op``: the ``repr`` of each benchmark
  operation's result over its seed-1 inputs;
* ``signatures``: the ``repr`` and ``str`` of every box signature parsed
  from the seed-1 ``roundtrip`` sources and imported from their diagram
  JSON texts, and each imported diagram's ``export_json`` text.

pytest does not collect this file; it takes under a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]

from gtc import cli  # noqa: E402
from gtc.guardedness import check_annotated  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def acceptance(h) -> None:
    import test_acceptance

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for n in range(1, 10):
            test = next(f for name, f in vars(test_acceptance).items()
                        if name.startswith(f"test_criterion_{n}_"))
            test()
    lines = [line for line in out.getvalue().splitlines() if line.startswith("ACCEPTANCE")]
    assert len(lines) == 9, lines
    h.update("\n".join(lines).encode())


def certificates(h) -> None:
    from test_guardedness import _traced_corpus

    for e, claim in _traced_corpus(300):
        h.update(json.dumps(check_annotated(e, claim).to_json()).encode())


def synthesize(h, tmp: str) -> None:
    import workloads

    diagram, cert = os.path.join(tmp, "d.json"), os.path.join(tmp, "cert.json")
    n = 0
    for kind, text, _, _ in workloads.roundtrip_inputs(1):
        if kind != "diagram":
            continue
        n += 1
        with open(diagram, "w", encoding="utf-8") as fh:
            fh.write(text)
        if os.path.exists(cert):
            os.remove(cert)
        code, out = _run(["synthesize", diagram, "--cert", cert])
        written = open(cert, encoding="utf-8").read() if os.path.exists(cert) else "<none>"
        h.update(f"{code}\n{out}\n{written}\n".encode())
    assert n == 96, n


def suite(h, tmp: str) -> None:
    report = os.path.join(tmp, "report.jsonl")
    for seed in (0, 1, 7):
        code, out = _run(["suite", "--seeds", str(seed), "--per-axiom", "10", "--out", report])
        with open(report, encoding="utf-8") as fh:
            h.update(f"{code}\n{out}\n{fh.read()}\n".encode())


def bench_op(h, name: str) -> None:
    import workloads

    make_inputs, op, _, _ = workloads.WORKLOADS[name]
    for inp in make_inputs(1):
        h.update(repr(op(inp)).encode() + b"\n")


def signatures(h) -> None:
    import workloads
    from gtc.diagrams import export_json, import_json
    from gtc.expressions import parse_source

    for kind, text, _, _ in workloads.roundtrip_inputs(1):
        if kind == "pipeline":
            sigs, out = parse_source(text).sigs.values(), ""
        else:
            d = import_json(text)
            sigs, out = d.boxes, export_json(d)
        for sig in sigs:
            h.update(f"{sig!r}\n{sig}\n".encode())
        h.update(f"{out}\n".encode())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        groups = {
            "acceptance": acceptance,
            "certificates": certificates,
            "synthesize": lambda h: synthesize(h, tmp),
            "suite": lambda h: suite(h, tmp),
            "oracle_op": lambda h: bench_op(h, "oracle"),
            "roundtrip_op": lambda h: bench_op(h, "roundtrip"),
            "signatures": signatures,
        }
        for name, group in groups.items():
            h = hashlib.sha256()
            group(h)
            print(f"{name} {h.hexdigest()}")


if __name__ == "__main__":
    main()
