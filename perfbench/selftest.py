"""Self-test of the benchmark, on every workload at reduced size.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks against BENCHMARK.json
that an untraced run prints every end-to-end metric and a traced run every
per-layer metric, each with its unit and with no failed operation; that
two traced runs of one seed give identical counts (all but the size of
the verify report, which holds timings); that a call past its
timeout is a failed operation rather than a stall; and that without the
package source the benchmark exits non-zero and prints no result.
Lists every problem found and exits non-zero if there is one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B", "calls/window")

problems: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        problems.append(message)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=400
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, time.monotonic() - start


def expect_run(where: str, rc: int, result: dict | None, entries: list[dict]):
    expect(rc == 0, f"{where}: exit code {rc}")
    if result is None:
        problems.append(f"{where}: no result line")
        return
    expect(result["correct"] and result["failed"] == 0, f"{where}: {result['failed']} failed operations")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted {result['attempted']}")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    wanted = {entry["name"]: entry["unit"] for entry in entries}
    expect(printed == wanted, f"{where}: metrics or units differ from BENCHMARK.json: "
                              f"{sorted(set(printed.items()) ^ set(wanted.items()))}")


def main() -> int:
    counts = [e["name"] for e in SPEC["per_layer"] if e["unit"] in COUNT_UNITS]
    for workload in (w["name"] for w in SPEC["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--small"]
        rc, result, _ = bench(*base, "--trace", "0")
        expect_run(f"{workload} --trace 0", rc, result, SPEC["end_to_end"])
        if result:
            expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: a zero end-to-end metric")
        traced = []
        for _ in range(2):
            rc, result, _ = bench(*base, "--trace", "1")
            expect_run(f"{workload} --trace 1", rc, result, SPEC["per_layer"])
            traced.append(result)
        if all(traced):
            # the verify report holds the checks' timings, so its size is not fixed
            fixed = [n for n in counts if not (workload == "verify" and n == "cli.write_records.bytes")]
            differ = [n for n in fixed if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]]
            expect(not differ, f"{workload}: counts differ between two traced runs: {differ}")
            if workload == "verify":  # run_acceptance reaches it through a default argument
                calls = traced[0]["metrics"]["lindblad.build_generator.calls"]["value"]
                expect(calls > 0, "verify: lindblad.build_generator.calls is 0")
        print(f"{workload}: checked", flush=True)

    start = time.monotonic()
    result = run.run(run.WORKLOADS["blp-sweep"], 3, 1.0, trace=False, small=True, op_timeout=0.01)
    seconds = time.monotonic() - start
    expect(not result["correct"] and result["failed"] >= 1, f"timed-out call not reported as failed: {result}")
    expect(seconds < 180, f"timed-out run took {seconds:.0f} s")
    print("hang guard: checked", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        rc, result, _ = bench("--workload", "blp-sweep", "--seed", "3", "--seconds", "1", cwd=bare)
        expect(rc != 0 and result is None, f"without the package: exit {rc}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("missing package: checked", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
