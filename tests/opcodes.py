"""Python opcode counts of two fixed runs, with the functions that execute most.

    python3 tests/opcodes.py

The runs:

* ``roundtrip_op``: the first 84 seed-1 ``roundtrip`` benchmark operations;
* ``suite``: one in-process ``gtc suite --seeds 1 --per-axiom 10``.

For each run it prints the total number of Python opcodes executed and the
15 functions that executed most of them.  A trace function counts every
opcode, so the counts leave out time spent in C (numpy, builtins) and in
waiting.  With the hash seed fixed (the script sets ``PYTHONHASHSEED=0``
and restarts itself when it is not) the counts repeat exactly from one run
to the next, so two checkouts compare by count on a machine too noisy to
compare by time.  A count is not a speed-up: an opcode's cost varies.

pytest does not collect this file; it takes a few minutes.
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

N_ROUNDTRIP = 84
TOP = 15


def count_opcodes(run) -> collections.Counter:
    """Opcodes executed by ``run()`` on this thread, per code object."""
    counts: collections.Counter = collections.Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def report(name: str, counts: collections.Counter) -> None:
    print(f"{name} {sum(counts.values()):,} opcodes")
    for code, n in counts.most_common(TOP):
        where = os.path.relpath(code.co_filename, ROOT)
        print(f"  {n:>12,}  {where}:{code.co_firstlineno}({code.co_name})")


def main() -> None:
    import workloads
    from gtc import cli

    inputs = workloads.roundtrip_inputs(1)[:N_ROUNDTRIP]

    def roundtrip() -> None:
        for inp in inputs:
            workloads.roundtrip_op(inp)

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["suite", "--seeds", "1", "--per-axiom", "10", "--out", os.path.join(tmp, "r")]

        def suite() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        report("roundtrip_op", count_opcodes(roundtrip))
        report("suite", count_opcodes(suite))


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    main()
