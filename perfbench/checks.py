"""Correctness checks on the files the CLI writes.

Every check recomputes what it needs from the closed forms printed in the
README and the module docstrings, with numpy only: nothing here imports
the package under test.  Each function returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: The acceptance checks ``qubitbath verify`` must run, in report order.
CHECK_NAMES = (
    "generator_fidelity",
    "analytic_numeric_oracle",
    "threshold_reproduction",
    "blp_closed_form",
    "criteria_agreement",
    "bath_correlation",
    "contour_sign_structure",
    "conservation",
    "superoperator_table",
)

#: Relative tail the CLI's automatic BLP horizon leaves uncovered.
BLP_REL_TAIL = 1e-6


def _csv_rows(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if not lines or lines[0] != header:
        return [], [f"header is {lines[0][:80]!r}, expected {header!r}"]
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    return [line.split(",") for line in lines[1:-1]], []


def blp_closed_form(xi: float, kappa: float) -> float:
    """1/(exp(kappa*pi/sqrt(64 xi^2 - kappa^2)) - 1) below 8|xi|, else 0."""
    if kappa >= 8.0 * abs(xi):
        return 0.0
    r = math.sqrt(64.0 * xi * xi - kappa * kappa)
    return 1.0 / math.expm1(kappa * math.pi / r)


def blp_window_count(xi: float, kappa: float) -> int:
    """Increase windows inside the automatic horizon.

    Window n closes at 4*n*pi/r; the horizon covers the first
    ceil(ln(1/rel_tail) * r / (kappa*pi)) of them, so that the geometric
    tail exp(-kappa*pi/r)**n is below ``BLP_REL_TAIL``.
    """
    if kappa >= 8.0 * abs(xi):
        return 0
    r = math.sqrt(64.0 * xi * xi - kappa * kappa)
    return max(1, math.ceil(math.log(1.0 / BLP_REL_TAIL) * r / (kappa * math.pi)))


def check_blp(text: str, xi: float, kappa_hi: float, steps: int) -> list[str]:
    rows, problems = _csv_rows(text, "kappa,blp_analytic,blp_numeric,abs_gap,intervals_used")
    if problems:
        return problems
    kappas = np.linspace(0.0, kappa_hi, steps)
    if len(rows) != steps:
        return [f"{len(rows)} rows, expected {steps}"]
    for row, kappa in zip(rows, kappas):
        where = f"kappa={kappa:.6g}"
        if len(row) != 5 or float(row[0]) != kappa:
            problems.append(f"{where}: malformed row {row}")
            continue
        if kappa == 0.0:
            if row[1:] != ["inf", "inf", "inf", "0"]:
                problems.append(f"{where}: expected the inf sentinel, got {row[1:]}")
            continue
        analytic, numeric, gap = (float(v) for v in row[1:4])
        expected = blp_closed_form(xi, kappa)
        if abs(analytic - expected) > 1e-9 * expected:
            problems.append(f"{where}: blp_analytic {analytic!r} != closed form {expected!r}")
        if not abs(numeric - analytic) <= 1e-3:
            problems.append(f"{where}: |numeric - analytic| = {abs(numeric - analytic):.3e} > 1e-3")
        if abs(gap - abs(numeric - analytic)) > 1e-15:
            problems.append(f"{where}: abs_gap column {gap!r} disagrees with the values")
        if int(row[4]) != blp_window_count(xi, kappa):
            problems.append(
                f"{where}: intervals_used {row[4]}, closed form {blp_window_count(xi, kappa)}"
            )
    return problems


def coherence_closed_form(xi: float, kappa: float, t: np.ndarray):
    """c(t) and dc/dt from the three printed branches.

    underdamped: exp(-kt/4) (k sin(rt/4)/r + cos(rt/4)),  dc/dt = -16 xi^2/r exp(-kt/4) sin(rt/4)
    overdamped:  exp(-kt/4) (k sinh(rt/4)/r + cosh(rt/4)), dc/dt = -16 xi^2/r exp(-kt/4) sinh(rt/4)
    critical:    exp(-kt/4) (1 + kt/4),                      dc/dt = -4 xi^2 t exp(-kt/4)
    """
    disc = kappa * kappa - 64.0 * xi * xi
    envelope = np.exp(-kappa * t / 4.0)
    if disc < 0:
        r = math.sqrt(-disc)
        sin, cos = np.sin(r * t / 4.0), np.cos(r * t / 4.0)
        return envelope * (kappa * sin / r + cos), -16.0 * xi * xi / r * envelope * sin
    if disc > 0:
        r = math.sqrt(disc)
        sinh, cosh = np.sinh(r * t / 4.0), np.cosh(r * t / 4.0)
        return envelope * (kappa * sinh / r + cosh), -16.0 * xi * xi / r * envelope * sinh
    return envelope * (1.0 + kappa * t / 4.0), -4.0 * xi * xi * t * envelope


def _time_axis(t_max: float, dt: float) -> np.ndarray:
    return dt * np.arange(int(math.floor(t_max / dt + 1e-9)) + 1)


def check_contour(text: str, xi: float, kappa_hi: float, steps: int, t_max: float, dt: float) -> list[str]:
    rows, problems = _csv_rows(text, "t,kappa,d_abs_c_dt")
    if problems:
        return problems
    kappas = np.linspace(0.0, kappa_hi, steps)
    times = _time_axis(t_max, dt)
    if len(rows) != len(kappas) * len(times):
        return [f"{len(rows)} rows, expected {len(kappas)} x {len(times)}"]
    if any(len(row) != 3 for row in rows):
        return ["a row does not have 3 fields"]
    values = np.array(rows, dtype=float).reshape(len(kappas), len(times), 3)
    if not np.array_equal(values[:, :, 0], np.broadcast_to(times, values.shape[:2])):
        problems.append("t column is not the time axis")
    if not np.array_equal(values[:, :, 1], np.broadcast_to(kappas[:, None], values.shape[:2])):
        problems.append("kappa column is not the kappa grid")
    worst = 0.0
    for row, kappa in enumerate(kappas):
        c, dc = coherence_closed_form(xi, float(kappa), times)
        resolved = np.abs(c) > 1e-12
        err = np.abs(values[row, :, 2] - np.sign(c) * dc)[resolved]
        worst = max(worst, float(err.max(initial=0.0)))
    if not worst <= 1e-12:
        problems.append(f"max |d|c|/dt - closed form| = {worst:.3e} > 1e-12")
    return problems


EVOLVE_COLUMNS = ["t", "x", "y", "z", "c_analytic", "c_numeric", "abs(c_analytic-c_numeric)"]


def check_evolve(text: str, xi: float, kappa: float, bloch: tuple, t_max: float, dt: float) -> list[str]:
    doc = json.loads(text)
    if doc.get("columns") != EVOLVE_COLUMNS:
        return [f"columns are {doc.get('columns')}"]
    times = _time_axis(t_max, dt)
    records = doc["records"]
    if len(records) != len(times):
        return [f"{len(records)} records, expected {len(times)}"]
    t, x, y, z, ca, cn, gap = np.array([[r[k] for k in EVOLVE_COLUMNS] for r in records], dtype=float).T
    problems = []
    if not np.array_equal(t, times):
        problems.append("t column is not the time axis")
    worst_gap = float(np.abs(ca - cn).max())
    if not worst_gap <= 1e-8:
        problems.append(f"max |c_analytic - c_numeric| = {worst_gap:.3e} > 1e-8")
    if not np.array_equal(gap, np.abs(ca - cn)):
        problems.append("abs(c_analytic-c_numeric) column disagrees with the values")
    drift = float(np.abs(x - bloch[0]).max())
    if not drift <= 1e-10:
        problems.append(f"x drift {drift:.3e} > 1e-10")
    c, _ = coherence_closed_form(xi, kappa, times)
    worst_c = float(np.abs(ca - c).max())
    if not worst_c <= 1e-10:
        problems.append(f"max |c_analytic - closed form| = {worst_c:.3e} > 1e-10")
    worst_yz = float(max(np.abs(y - c * bloch[1]).max(), np.abs(z - c * bloch[2]).max()))
    if not worst_yz <= 1e-8:
        problems.append(f"max |(y, z) - c (y0, z0)| = {worst_yz:.3e} > 1e-8")
    return problems


def check_verify(report: str, stdout: str) -> list[str]:
    """The report lists every acceptance check, each passed; stdout agrees."""
    lines = report.split("\n")
    if lines[0] != "check,passed,seconds,detail" or lines[-1] != "":
        return ["report is not the check,passed,seconds,detail CSV"]
    rows = [line.split(",", 3) for line in lines[1:-1]]
    problems = []
    if [row[0] for row in rows] != list(CHECK_NAMES):
        problems.append(f"checks run: {[row[0] for row in rows]}")
    problems += [f"{row[0]} failed: {row[-1]}" for row in rows if row[1] != "1"]
    summary = f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed"
    if summary not in stdout.splitlines():
        problems.append(f"stdout lacks {summary!r}")
    return problems


def report_seconds(report: str) -> dict[str, float]:
    """Seconds per check from a verify report."""
    return {row[0]: float(row[2]) for row in (line.split(",", 3) for line in report.split("\n")[1:-1])}
