"""The demos run to completion and print what they printed before.

Demos 01-03 print splits, certificates and synthesized expressions, which
are pinned byte for byte.  Demos 04-05 print floating-point results and
deviations, which depend on rounding; those are masked before hashing, so
the rest of their text is pinned.
"""

import hashlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's stdout (floats masked for 04 and 05)
DEMO_DIGESTS = {
    "01_typecheck.py": "086d5c01febdab61e633f5289c6e79db6bc61f020c1533e52ccb78bc92b1a97f",
    "02_typing_gap.py": "53a604fadcc878fb21e08aabbb09d7a6cc5a648358725798cd3d36cc7b4cbb18",
    "03_synthesis.py": "b67f115e5a7511a20da8ffe4050ef57cecb746e0c40b5a42782037d6106e7583",
    "04_models.py": "eef74caf7f713105aaf3d7c0dafdadf25ef8ae934467928931e3a5e06137c6dc",
    "05_axiom_report.py": "5095521ef71c03d406b592d97650abf14bdaa035804f6b5b37cb7dd11b38be42",
}
MASK_FLOATS = ("04_models.py", "05_axiom_report.py")


def test_every_demo_is_pinned():
    assert sorted(os.listdir(os.path.join(ROOT, "demos"))) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output(demo):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    if demo in MASK_FLOATS:
        out = re.sub(r"\d+\.\d+(?:e[-+]\d+)?", "<float>", out)
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_DIGESTS[demo], out
