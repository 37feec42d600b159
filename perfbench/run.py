"""Out-of-process benchmark of the qubitbath command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The seed makes the workload's command line (and only
that: the program sees nothing but the generated argv).  Each run starts
fresh child processes (``child.py``) with BLAS/OpenMP threads capped at
the number of usable cores:

* ``--trace 0``: seven set-up children (the first, which may compile
  bytecode, is discarded) give ``setup_s``; one workload child calls
  ``qubitbath.cli.main`` in a closed loop (one call in flight) for
  ``--seconds`` after one warm-up call and gives ``wall_per_ref`` and
  ``peak_rss_mb`` (the child's own ``ru_maxrss``).
* ``setup_s`` is the median over the kept set-up children of the time
  of ``import qubitbath, qubitbath.cli`` and building the parser, in a
  fresh interpreter that has imported numpy just before.  numpy's own
  import is fixed work that no change to the package moves, but it took
  0.06 s or 0.15 s depending on the shared host's state, which doubled
  the set-up time from one run to the next; its median goes into the
  record and the summary.
* ``wall_per_ref`` is the mean wall time of a call over the mean time of
  a fixed reference kernel (``child.reference_kernel``) timed just before
  each call in the same child: call time in units of fixed work.  Raw
  seconds cannot be compared between runs on a shared 2-core host whose
  CPU speed changes by up to 1.7x from one minute, or one second, to the
  next: over ten runs of a workload the quartile spread of the median call
  time reached 0.26 of its value, that of ``wall_per_ref`` 0.02 to 0.08.
  The raw mean and median call time, and the highest percentile with ten
  calls beyond it, go into the record and the summary; so do the
  reference-kernel times.
* ``--trace 1``: an untraced child and a traced child (``tracer.py``),
  half the seconds each, give the per-layer metrics (medians over calls)
  and ``trace_overhead_frac`` (traced over untraced ``wall_per_ref``,
  minus 1).

Every output is checked by ``checks.py``: the warm-up output in full, each
later deterministic output by byte identity with it, and each ``verify``
report one by one.  A call that exits non-zero, raises, fails its check
or runs past ``OP_TIMEOUT_S`` (the child is then killed) is a failed
operation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any operation failed.  Each run also leaves a record with
the environment, every sample and the SHA-256 of the outputs under
``.perfbench/records``.  Without the package source the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_CHILDREN = 7  # the first is discarded
IMPORT_TIMEOUT_S = 60.0
OP_TIMEOUT_S = 60.0  # one CLI call; the slowest takes a few seconds
RUN_DEADLINE_S = 170.0  # the whole run, so that a hang still ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (no package source, child protocol broken)."""


# ---------------------------------------------------------------------------
# Workloads: argv from the seed, and the check of one output.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int, bool], tuple[list[str], dict]]
    # deterministic: check(text, **params) on the warm-up output, byte identity after it;
    # otherwise check(text, stdout) on every output
    check: Callable[..., list[str]]
    deterministic: bool


def _blp(rng, seed, small):
    xi = rng.uniform(0.95, 1.05)
    steps = 5 if small else 17
    # kappa runs over the README's fractions of 8|xi|, so windows and crossings do not depend on xi
    argv = ["blp", "--xi", repr(xi), "--kappa-range", f"0:{8.0 * xi!r}:{steps}", "--pairs", "16", "--seed", str(seed)]
    return argv, {"xi": xi, "kappa_hi": 8.0 * xi, "steps": steps}


def _contour(rng, seed, small):
    xi = rng.uniform(0.95, 1.05)
    t_max = 1.0 if small else 10.0
    argv = ["contour", "--xi", repr(xi), "--kappa-range", "0:14:141", "--t-max", repr(t_max), "--dt", "0.01"]
    return argv, {"xi": xi, "kappa_hi": 14.0, "steps": 141, "t_max": t_max, "dt": 0.01}


def _evolve(rng, seed, small):
    # underdamped at xi = 1; a narrow band, because the share of rows whose
    # decayed values print in exponent form, and so the JSON work, grows with kappa
    kappa = rng.uniform(3.8, 4.2)
    direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
    radius = rng.uniform(0.5, 0.99) / math.sqrt(sum(v * v for v in direction))
    bloch = tuple(radius * v for v in direction)
    t_max = 10.0 if small else 100.0
    # "--bloch=" keeps argparse from reading a leading minus sign as an option
    argv = ["evolve", "--xi", "1", "--kappa", repr(kappa), "--bloch=" + ",".join(map(repr, bloch)),
            "--t-max", repr(t_max), "--dt", "0.002", "--format", "json"]
    return argv, {"xi": 1.0, "kappa": kappa, "bloch": bloch, "t_max": t_max, "dt": 0.002}


def _verify(rng, seed, small):
    return ["verify", "--seed", str(seed)] + (["--tol", "1e-2"] if small else []), {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("blp-sweep", _blp, checks.check_blp, True),
        Workload("contour-csv", _contour, checks.check_contour, True),
        Workload("evolve-json", _evolve, checks.check_evolve, True),
        Workload("verify", _verify, checks.check_verify, False),
    )
}


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(nproc()) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], deadline: float, op_timeout: float, work: Path):
    """Start a child and yield its protocol lines, killing it on a timeout.

    The first line (``ready``) may take up to IMPORT_TIMEOUT_S, every later
    one up to ``op_timeout``; both are cut at ``deadline``.  The last line
    yielded is ``{"event": "timeout"}`` or ``{"event": "exit", "rc": ...}``,
    with the seconds since the line before it.
    """
    stderr_path = work / f"stderr-{time.monotonic_ns()}.txt"
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, stderr=stderr, env=child_env(), cwd=ROOT,
        )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            buf = b""
            last = time.monotonic()
            limit = min(deadline, last + IMPORT_TIMEOUT_S)
            while True:
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    yield {"event": "timeout", "elapsed_s": time.monotonic() - last}
                    return
                if not sel.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    last = time.monotonic()
                    limit = min(deadline, last + op_timeout)
                    yield json.loads(line)
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        yield {"event": "exit", "rc": rc, "elapsed_s": time.monotonic() - last,
               "stderr": stderr_path.read_text(errors="replace")[-4000:]}
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def start_child(args: list[str], deadline: float, op_timeout: float, work: Path):
    """run_child, once the child has imported the checkout's package: (ready line, lines)."""
    lines = run_child(args, deadline, op_timeout, work)
    ready = next(lines)
    if ready["event"] != "ready":
        stderr = "".join(line.get("stderr", "") for line in [ready, *lines])
        raise HarnessError(f"child did not start ({ready['event']}): {stderr[-2000:]}")
    module = Path(ready["module"]).resolve()
    if ROOT / "src" not in module.parents:
        lines.close()
        raise HarnessError(f"imported {module}, not the checkout's src")
    return ready, lines


def measure_setup(deadline: float, work: Path) -> list[dict]:
    """Set-up seconds and numpy-import seconds of each kept set-up child."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        ready, lines = start_child(["setup"], deadline, IMPORT_TIMEOUT_S, work)
        end = list(lines)[-1]
        if end["event"] != "exit" or end["rc"] != 0:
            raise HarnessError(f"set-up child failed: {end}")
        samples.append({"setup_s": ready["setup_s"], "numpy_s": ready["numpy_s"]})
    return samples[1:]


def run_workload_child(workload: Workload, argv: list[str], params: dict, seconds: float,
                       trace: bool, deadline: float, op_timeout: float, work: Path) -> dict:
    """One closed-loop child; returns its calls with every output checked."""
    suffix = ".json" if "json" in argv else ".csv"
    spec = {"argv": argv, "seconds": seconds, "trace": trace,
            "out": str(work / f"out{suffix}"), "keep": str(work / f"first{suffix}")}
    ready, lines = start_child(["run", json.dumps(spec)], deadline, op_timeout, work)
    ops = []
    for line in lines:
        if line["event"] == "op":
            ops.append(line)
        elif line["event"] in ("timeout", "exit"):
            end = line
    if not (end["event"] == "exit" and end["rc"] == 0):
        # the call in flight when the child hung or died is a failed operation
        ops.append({"event": "op", "wall_s": end["elapsed_s"], "rc": None, "warmup": not ops,
                    "error": f"child stopped: {end}"})
    reference = None
    for op in ops:
        problems = []
        if op["rc"] != 0:
            problems.append(f"exit code {op['rc']}: {op.get('error') or op.get('stderr', '')[-400:]}")
        elif not workload.deterministic:
            problems += workload.check(op.get("text", ""), op["stdout"])
        elif op["warmup"]:
            problems += workload.check(Path(spec["keep"]).read_text(encoding="utf-8"), **params)
            reference = None if problems else op.get("sha256")
        elif reference is None or op.get("sha256") != reference:
            problems.append("output is not byte-identical to a correct warm-up output for the same argv")
        op["problems"] = problems
    return {"ops": ops, "stopped": end["event"], "ready_rss_mb": ready["maxrss_mb"]}


# ---------------------------------------------------------------------------
# Run record.
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": nproc(),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "thread_caps": {var: str(nproc()) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def _timed(ops: list[dict]) -> list[dict]:
    """The calls after the warm-up, or the warm-up alone if the child stopped in it."""
    return [op for op in ops if not op["warmup"]] or ops


def _wall_per_ref(ops: list[dict]) -> float:
    """Call time over reference-kernel time; 0 when no call completed (a failed run)."""
    timed = [op for op in _timed(ops) if "ref_s" in op]
    return sum(op["wall_s"] for op in timed) / sum(op["ref_s"] for op in timed) if timed else 0.0


def run(workload: Workload, seed: int, seconds: float, trace: bool, small: bool,
        op_timeout: float = OP_TIMEOUT_S) -> dict:
    if not (ROOT / "src" / "qubitbath" / "cli.py").is_file():
        raise HarnessError(f"no package source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    argv, params = workload.make(random.Random(seed), seed, small)
    work = STATE / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "small": small, "argv": argv, "environment": environment()}
    try:
        metrics: dict[str, float] = {}
        children = []
        if trace:
            plain = run_workload_child(workload, argv, params, seconds / 2, False, deadline, op_timeout, work)
            children = [plain]
            if plain["stopped"] == "exit":  # after a hang there is no time left for a traced child
                children.append(run_workload_child(workload, argv, params, seconds / 2, True, deadline, op_timeout, work))
            traced = children[-1]
            layer_ops = [op["layers"] for op in traced["ops"] if "layers" in op and not op["warmup"]]
            layer_ops = layer_ops or [op["layers"] for op in traced["ops"] if "layers" in op]
            for entry in spec["per_layer"]:
                name = entry["name"]
                if name == "trace_overhead_frac":
                    base = _wall_per_ref(plain["ops"])
                    value = _wall_per_ref(traced["ops"]) / base - 1.0 if base else 0.0
                else:
                    value = statistics.median_low(op[name] for op in layer_ops) if layer_ops else 0.0
                metrics[name] = value
        else:
            setup = measure_setup(deadline, work)
            child = run_workload_child(workload, argv, params, seconds, False, deadline, op_timeout, work)
            children = [child]
            walls = [op["wall_s"] for op in _timed(child["ops"])]
            record["setup_samples"] = setup
            record["numpy_import_median_s"] = statistics.median(s["numpy_s"] for s in setup)
            record["rss_mb"] = {"after_import": child["ready_rss_mb"],
                                "after_reference": child["ops"][0].get("harness_rss_mb")}
            record["wall_mean_s"] = statistics.fmean(walls)
            record["wall_median_s"] = statistics.median(walls)
            if len(walls) > 10:
                k = len(walls) - 11  # the sample with ten samples above it
                record["wall_tail"] = {"s": sorted(walls)[k], "percentile": 100.0 * (k + 1) / len(walls), "samples": len(walls)}
            metrics = {
                "wall_per_ref": _wall_per_ref(child["ops"]),
                "setup_s": statistics.median(s["setup_s"] for s in setup),
                "peak_rss_mb": max((op.get("maxrss_mb", 0.0) for op in child["ops"]), default=0.0),
            }
            if workload.name == "verify":
                record["check_seconds"] = [checks.report_seconds(op["text"]) for op in child["ops"] if "text" in op]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = [op for child in children for op in child["ops"]]
    failed = [op for op in ops if op["problems"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update({
        "result": result,
        "failed_ratio": len(failed) / len(ops),
        "wall_samples_s": [[op["wall_s"] for op in child["ops"]] for child in children],
        "ref_samples_s": [[op.get("ref_s") for op in child["ops"]] for child in children],
        "stopped": [child["stopped"] for child in children],
        "output_sha256": sorted({op["sha256"] for op in ops if "sha256" in op}) if workload.deterministic else None,
        "problems": [op["problems"] for op in failed][:20],
    })
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    record["path"] = str((records / name).relative_to(ROOT))
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    result["record"] = record["path"]
    return result


def _print_summary(name: str, result: dict):
    ratio = result["failed"] / result["attempted"]
    record = json.loads((ROOT / result.pop("record")).read_text())
    print(f"{name}: {result['attempted']} operations, {result['failed']} failed (failed_ratio {ratio:g}); record {record['path']}")
    if "wall_mean_s" in record:
        tail = record.get("wall_tail") or {}
        print(f"  raw call time, not gated: mean {record['wall_mean_s']:.4g} s, median {record['wall_median_s']:.4g} s"
              + (f", p{tail['percentile']:.0f} {tail['s']:.4g} s of {tail['samples']} calls" if tail else ""))
        rss = record["rss_mb"]
        print(f"  not gated: numpy import median {record['numpy_import_median_s']:.4g} s; peak RSS {rss['after_import']:.1f} MB"
              f" after import, {rss['after_reference']:.1f} MB after the reference kernel")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.small)
            for name in names
        }
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        _print_summary(name, result)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
