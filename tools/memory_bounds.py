"""Peak-RSS bounds of the CLI's streamed paths: evolve, contour and the blp scan.

``evolve`` and ``contour`` compute and write their rows one block at a time
and hold no table, and the blp detector scans its grids in windows of 8,192
points, so their peak RSS stays under fixed bounds and does not grow with
the table.  Each run is the CLI in a child process of its own
(``python -m qubitbath.cli``), and its peak is that child's own
``ru_maxrss``, read by ``os.wait4``; outputs go to a temporary directory.
The exit status is the number of bounds exceeded.  It takes no arguments;
from the repository root, without installing the package:

    PYTHONPATH=src python tools/memory_bounds.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

#: (argv, output name, bound in MB); each run's peak at the time of writing in the comment
BOUNDS = [
    # 1,000,001 JSON rows (36 MB): formatting the whole table at once took 1 GB, holding it 96 MB
    (["evolve", "--kappa", "4", "--t-max", "2000", "--dt", "0.002", "--format", "json"], "big.json", 75),
    # 1,411,141 rows (34 MB): holding the table took 65 MB
    (["contour", "--t-max", "100"], "big.csv", 75),
    # a 5.5-million-point scan at kappa = 0.001 (54 MB): one kernel call over the grid took 378 MB
    (["blp", "--xi", "1", "--kappa-range", "0.001:0.002:2", "--pairs", "0"], "blp-long.csv", 100),
    # one kappa row of 1,000,001 times in pieces of 8,192 (34 MB): one kernel call over the row took 122 MB
    (["contour", "--kappa-range", "4:8:1", "--t-max", "1000", "--dt", "0.001"], "contour-long.csv", 75),
]

#: (argv, output name, smaller and larger --t-max): the larger run's peak may exceed the smaller's by FLAT_MB at most.
#: 2,000,001 evolve rows against 500,001 (35.7 and 35.7 MB; 157 and 65 MB when the table was held),
#: 2,820,141 contour rows against 705,141 (33.3 and 33.1 MB; 98 and 49 MB)
FLAT = [
    (["evolve", "--kappa", "4", "--dt", "0.002", "--format", "json"], "flat.json", "1000", "4000"),
    (["contour"], "flat.csv", "50", "200"),
]
FLAT_MB = 5.0


def peak_mb(argv: list[str], out: str) -> float:
    """Run the CLI with ``argv`` and ``--out out`` in a child process; its own peak RSS in MB."""
    child = subprocess.Popen([sys.executable, "-m", "qubitbath.cli", *argv, "--out", out])
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return usage.ru_maxrss / 1024  # kilobytes on Linux


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        for argv, name, bound in BOUNDS:
            peak = peak_mb(argv, os.path.join(directory, name))
            print(f"{' '.join(argv)}: peak RSS {peak:.1f} MB (bound {bound} MB)")
            failed += peak > bound
        for argv, name, small, large in FLAT:
            low, high = (peak_mb(argv + ["--t-max", t_max], os.path.join(directory, name)) for t_max in (small, large))
            print(f"{' '.join(argv)}: peak RSS {low:.1f} MB at --t-max {small}, {high:.1f} MB at {large} "
                  f"(bound {low + FLAT_MB:.1f} MB)")
            failed += high > low + FLAT_MB
    return failed


if __name__ == "__main__":
    sys.exit(main())
