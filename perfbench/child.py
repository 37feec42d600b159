"""One benchmark child process: import the package, then call its CLI in a closed loop.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run SPEC_JSON

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS/OpenMP thread caps in the environment.  Both modes
first import numpy, then time ``import qubitbath, qubitbath.cli`` plus
building the argument parser (the package's set-up cost), before the
harness imports anything of its own, and report both times on a ``ready``
line with the peak RSS at that point.  ``setup`` stops there; ``run`` calls
``qubitbath.cli.main(argv)`` once to warm up and again and again until
``seconds`` have passed, one call in flight at a time, and reports each
call on its own line as soon as it ends, so that the parent can tell a
hung call from a slow child.  Before each call it times
:func:`reference_kernel`, repeated to take about ``REFERENCE_SHARE`` of the
warm-up call's time; the parent divides the call times by it.  Protocol
lines are JSON on the original standard output; the program's own standard
output and error are captured per call.
"""

from __future__ import annotations

# Only modules a fresh interpreter has loaded already come before the clock.
import os
import sys
import time

_CHANNEL = os.fdopen(os.dup(1), "w")
# anything else writing to fd 1 must not corrupt the protocol
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
_START = time.perf_counter()
import numpy  # noqa: E402

_PACKAGE_START = time.perf_counter()
NUMPY_S = _PACKAGE_START - _START
import qubitbath  # noqa: E402
import qubitbath.cli as cli  # noqa: E402

cli.build_parser()
SETUP_S = time.perf_counter() - _PACKAGE_START

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

#: Outputs up to this size travel in full on the protocol line, to be checked one by one.
INLINE_BYTES = 1 << 16

#: Share of a call's time spent on the reference kernel before it: the more
#: of the run the kernel covers, the better it samples the host's speed.
REFERENCE_SHARE = 0.3


def reference_kernel() -> float:
    """Fixed work, timed to follow the host's CPU speed.

    Interpreter loops, float formatting, dict and list churn and small
    numpy mat-vecs, the same kinds of work as the CLI calls; it uses
    nothing from the package, so no change to the program moves it.  The
    formatting repeats a small block, so that the kernel's own memory stays
    far below that of any workload.
    """
    acc = 0.0
    for i in range(40000):
        acc += math.sin(i * 0.001) * (i % 7)
    rows = [(i * 0.5, i * 0.25, math.exp(-i * 1e-4)) for i in range(500)]
    size = 0
    for block in range(16):
        size += len("\n".join(",".join(format(v + block, ".17g") for v in row) for row in rows))
        size += len(json.dumps([{"a": a, "b": b, "c": c + block} for a, b, c in rows]))
    m, v = numpy.full((16, 16), 0.01), numpy.ones(16)
    for _ in range(5000):
        v = m @ v
    return acc + size + float(v[0])


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(argv: list[str], out: str) -> dict:
    captured, errors = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
            rc = cli.main(argv)
    except Exception:  # a crash of the program is a failed operation, not a harness error
        rc, error = None, traceback.format_exc(limit=-8)
    op = {"event": "op", "wall_s": time.perf_counter() - start, "rc": rc, "error": error}
    op["stdout"] = captured.getvalue()[-INLINE_BYTES:]
    op["stderr"] = errors.getvalue()[-INLINE_BYTES:]
    if os.path.exists(out):
        op["bytes"] = os.path.getsize(out)
        with open(out, "rb") as handle:
            op["sha256"] = hashlib.file_digest(handle, "sha256").hexdigest()
            if op["bytes"] <= INLINE_BYTES:
                handle.seek(0)
                op["text"] = handle.read().decode("utf-8", errors="replace")
    return op


def _emit(obj):
    _CHANNEL.write(json.dumps(obj) + "\n")
    _CHANNEL.flush()


def _reference_s(reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        reference_kernel()
    return (time.perf_counter() - start) / reps


def main(argv: list[str]) -> int:
    _emit({"event": "ready", "setup_s": SETUP_S, "numpy_s": NUMPY_S, "module": qubitbath.__file__,
           "maxrss_mb": _maxrss_mb()})
    if argv[1] == "setup":
        return 0

    spec = json.loads(argv[2])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    out, keep = spec["out"], spec["keep"]
    call_argv = spec["argv"] + ["--out", out]
    loop_start = None
    reps = 1
    while True:
        if tracer is not None:
            tracer.reset()
        ref_s = _reference_s(reps)
        harness_rss_mb = _maxrss_mb()
        op = _call(call_argv, out)
        op["ref_s"] = ref_s
        if tracer is not None:
            op["layers"] = tracer.metrics()
        if os.path.exists(out):
            if loop_start is None:
                os.replace(out, keep)  # the warm-up output, checked in full by the parent
            else:
                os.remove(out)
        op["warmup"] = loop_start is None
        if op["warmup"]:
            # peak RSS with the harness's own work done, before the program's first call
            op["harness_rss_mb"] = harness_rss_mb
        op["maxrss_mb"] = _maxrss_mb()
        _emit(op)
        now = time.perf_counter()
        if loop_start is None:
            loop_start = now
            reps = max(1, round(REFERENCE_SHARE * op["wall_s"] / ref_s))
        elif now - loop_start >= spec["seconds"]:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
