"""Command-line front end: trajectories, sweeps, measures, verification.

Subcommands and the flags each one reads
----------------------------------------
evolve     reduced Bloch trajectory plus analytic/numeric coherence factors
           --xi --kappa --t-max --dt --bloch --format --out
contour    d|c|/dt on a (t, kappa) grid at fixed coupling
           --xi --kappa-range --t-max --dt --format --out
blp        analytic vs numeric non-Markovianity measure over a kappa sweep
           --xi --kappa-range --t-max --pairs --seed --format --out
threshold  bisection for the Markovian/non-Markovian transition rate
           --xi --kappa-range --tol --format --out
verify     run the acceptance checks and exit non-zero on any failure
           --tol --seed --format --out

:data:`SUBCOMMANDS` is the one table of handlers, flags and defaults; a
flag a subcommand does not read is a validation error there.

``threshold`` and ``verify`` print a text summary and write a data file
(CSV unless --format says otherwise) only with --out; --format without
--out is a validation error there.

Outputs are deterministic for a fixed configuration and seed: CSV with LF
line endings and 17 significant digits, or JSON with a ``records`` list.
Both are printed by row templates built once per column layout; the JSON
is byte-identical to ``json.dumps(..., indent=1)``.  A CSV text cell that
holds a comma, a quote, CR or LF is quoted per RFC 4180.  An infinite
value is written as the token ``inf`` in CSV and the string ``"infinite"``
in JSON.  ``evolve`` and ``contour`` write at most :data:`MAX_ROWS` rows
(time points x kappa steps); a larger or non-finite ``--t-max/--dt`` is a
validation error.

Exit codes: 0 success, 1 validation or I/O error, 2 numeric failure,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .acceptance import run_acceptance
from .analytic import abs_coherence_derivative, blp_analytic, coherence_factor
from .errors import NumericsError, ValidationError
from .lindblad import MAX_RATE, ModelParams, TimeGrid, build_generator, expm_trajectory
from .markovianity import blp_numeric, threshold_scan
from .operator_space import initial_joint_vector

__all__ = ["SUBCOMMANDS", "build_parser", "main", "entry"]

_INF_JSON = json.dumps("infinite")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    # route argparse usage errors through the package's validation exit code
    def error(self, message):
        raise ValidationError(message)


def _checked(convert, accept, what: str):
    """A flag type: ``convert`` the text, then require ``accept(value)``.

    argparse reports the ArgumentTypeError as "argument --flag: ...", which
    main() prints with exit code 1.
    """

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_finite = _checked(float, math.isfinite, "finite")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_count = _checked(int, lambda v: v >= 0, ">= 0")


def _bloch(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects 'x,y,z', got {text!r}")
    x, y, z = (_finite(p) for p in parts)
    if x * x + y * y + z * z > 1.0 + 1e-12:
        raise argparse.ArgumentTypeError("vector must have norm <= 1")
    return (x, y, z)


def _kappa_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expects 'lo:hi:steps', got {text!r}")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    steps = int(parts[2]) if len(parts) == 3 else 2
    if hi <= lo:
        raise argparse.ArgumentTypeError("needs lo < hi")
    if steps < 1:
        raise argparse.ArgumentTypeError("needs at least one step")
    return (lo, hi, steps)


#: argparse keywords of each flag; its default depends on the subcommand.
_FLAGS = {
    "xi": dict(type=_finite),
    "kappa": dict(type=_finite),
    "kappa-range": dict(type=_kappa_range, metavar="LO:HI:STEPS"),
    "t-max": dict(type=_non_negative),
    "dt": dict(type=_positive),
    "bloch": dict(type=_bloch, metavar="X,Y,Z"),
    "pairs": dict(type=_count),
    "seed": dict(type=int),
    "tol": dict(type=_finite),
    "format": dict(choices=("csv", "json")),
    "out": dict(metavar="PATH"),
}


#: Most rows ``evolve`` or ``contour`` may write; a larger request is a
#: validation error raised before any array is allocated.
MAX_ROWS = 10_000_000


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _csv_text(text: str) -> str:
    """A CSV text cell, quoted per RFC 4180 when it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values, fmt: str) -> tuple[str, list]:
    """The template spec of one column and its cells.

    A float column (of a float ndarray, or floats only) is folded once in
    numpy: -0.0 becomes 0.0 and +-inf the infinity token.  Its cells are
    Python floats, printed by '%.17g' in CSV and by '%s' (float.__repr__,
    as json's encoder does) in JSON.  Other cells are rendered one by one:
    str() with quoting in CSV, json.dumps() in JSON.
    """
    if isinstance(values, np.ndarray) or all(isinstance(v, float) for v in values):
        folded = np.asarray(values, dtype=float) + 0.0
        infinite = np.isinf(folded)
        if fmt == "csv":
            folded[infinite] = np.inf  # '%.17g' % inf is the token "inf"
            return "%.17g", folded.tolist()
        cells = folded.tolist()
        for k in np.flatnonzero(~np.isfinite(folded)).tolist():
            cells[k] = _INF_JSON if infinite[k] else "NaN"
        return "%s", cells
    if fmt == "csv":
        return "%s", [_csv_text(str(v)) for v in values]
    return "%s", [json.dumps(v) for v in values]


def write_records(path: str | None, fmt: str, columns: list[str], rows: np.ndarray | list[list]):
    """Serialize a table to CSV (LF, UTF-8, 17 significant digits) or JSON.

    ``rows`` is a 2-D float ndarray or a list of rows, one cell per column.
    Each row is printed by one ``%`` of a template built once per column
    layout; the JSON one reproduces ``json.dumps(..., indent=1)`` exactly.
    """
    # no rows: zip(*rows) yields no columns either
    by_column = list(rows.T) if isinstance(rows, np.ndarray) else list(zip(*rows)) or [()] * len(columns)
    specs, cells = zip(*(_column(values, fmt) for values in by_column))
    if fmt == "csv":
        lines = map(",".join(specs).__mod__, zip(*cells))
        text = "\n".join([",".join(map(_csv_text, columns)), *lines]) + "\n"
    else:
        keys = (json.dumps(col).replace("%", "%%") for col in columns)
        record = "  {\n" + ",\n".join(f"   {key}: {spec}" for key, spec in zip(keys, specs)) + "\n  }"
        body = ",\n".join(map(record.__mod__, zip(*cells)))
        text = json.dumps({"columns": columns, "records": []}, indent=1) + "\n"
        if body:  # open the empty records list up as indent=1 does a full one
            text = text.removesuffix("[]\n}\n") + "[\n" + body + "\n ]\n}\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _time_axis(t_max: float, dt: float, rows_per_time: int = 1) -> np.ndarray:
    """The times 0, dt, ... up to t_max, each written as ``rows_per_time`` rows.

    The row count is checked against :data:`MAX_ROWS` before anything is
    allocated.
    """
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ValidationError(f"--t-max / --dt = {steps} is not a finite number of time steps")
    n_times = math.floor(steps + 1e-9) + 1
    if n_times * rows_per_time > MAX_ROWS:
        raise ValidationError(
            f"{n_times * rows_per_time} output rows exceed the limit of {MAX_ROWS}; use a larger --dt or a smaller grid"
        )
    return dt * np.arange(n_times)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

EVOLVE_COLUMNS = ["t", "x", "y", "z", "c_analytic", "c_numeric", "abs(c_analytic-c_numeric)"]
CONTOUR_COLUMNS = ["t", "kappa", "d_abs_c_dt"]
BLP_COLUMNS = ["kappa", "blp_analytic", "blp_numeric", "abs_gap", "intervals_used"]
THRESHOLD_COLUMNS = ["xi", "kappa_star", "abs_dev_from_8xi", "witness"]


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.kappa is None:
        raise ValidationError("evolve requires --kappa")
    if args.t_max == 0:
        raise ValidationError("evolve requires --t-max > 0")
    params = ModelParams(args.xi, args.kappa)
    gen = build_generator(params)
    times = _time_axis(args.t_max, args.dt)
    grid = TimeGrid(0.0, float(times[-1]), len(times))
    traj = expm_trajectory(gen, initial_joint_vector(args.bloch), grid)
    probe = expm_trajectory(gen, initial_joint_vector((0.0, 0.0, 1.0)), grid)
    c_analytic = np.atleast_1d(coherence_factor(params, times))
    c_numeric = 4.0 * probe[:, 12]
    table = np.column_stack(
        (times, 4.0 * traj[:, [4, 8, 12]], c_analytic, c_numeric, np.abs(c_analytic - c_numeric))
    )
    write_records(args.out, args.format, EVOLVE_COLUMNS, table)
    return EXIT_OK


def cmd_contour(args: argparse.Namespace) -> int:
    if args.t_max == 0:
        raise ValidationError("contour requires --t-max > 0")
    lo, hi, steps = args.kappa_range
    if lo < 0:
        raise ValidationError("cooling rates must be >= 0")
    times = _time_axis(args.t_max, args.dt, steps)
    kappas = np.linspace(lo, hi, steps)
    table = np.empty((steps, len(times), 3))
    table[:, :, 0] = times
    table[:, :, 1] = kappas[:, None]
    for block, kappa in zip(table, kappas):
        block[:, 2] = abs_coherence_derivative(ModelParams(args.xi, float(kappa)), times)
    write_records(args.out, args.format, CONTOUR_COLUMNS, table.reshape(-1, 3))
    return EXIT_OK


def cmd_blp(args: argparse.Namespace) -> int:
    lo, hi, steps = args.kappa_range
    if lo < 0:
        raise ValidationError("cooling rates must be >= 0")
    rows = []
    for kappa in np.linspace(lo, hi, steps):
        params = ModelParams(args.xi, float(kappa))
        analytic = blp_analytic(params)
        if analytic == math.inf:
            # the measure diverges: report the sentinel, not a horizon artifact
            rows.append([float(kappa), math.inf, math.inf, math.inf, 0])
            continue
        # --t-max 0 (the default) leaves the horizon to blp_numeric
        result = blp_numeric(params, horizon=args.t_max or None, n_pairs=args.pairs, seed=args.seed)
        rows.append(
            [
                float(kappa),
                analytic,
                result.value,
                abs(result.value - analytic),
                result.n_intervals,
            ]
        )
    write_records(args.out, args.format, BLP_COLUMNS, rows)
    return EXIT_OK


def _data_format(args: argparse.Namespace) -> str:
    """Format of the data file of a subcommand that prints a text summary.

    Such a file is written only with --out, so --format alone is an error
    rather than a flag that does nothing.
    """
    if args.format is not None and not args.out:
        raise ValidationError(f"{args.subcommand} --format needs --out; the summary is plain text")
    return args.format or "csv"


def cmd_threshold(args: argparse.Namespace) -> int:
    fmt = _data_format(args)
    if args.xi == 0:
        raise ValidationError("threshold requires a nonzero coupling")
    if args.kappa_range is not None:
        lo, hi, _ = args.kappa_range
    else:
        lo, hi = 4.0 * abs(args.xi), min(20.0 * abs(args.xi), MAX_RATE)
    witness = "rate-sign (information backflow)"
    star = threshold_scan(args.xi, lo, hi, tol=args.tol)
    deviation = abs(star - 8.0 * abs(args.xi))
    print(f"kappa* = {star:.12g}")
    print(f"|kappa* - 8|xi|| = {deviation:.3e}")
    print(f"witness: {witness}")
    if args.out:
        write_records(args.out, fmt, THRESHOLD_COLUMNS, [[args.xi, star, deviation, witness]])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    fmt = _data_format(args)
    results = run_acceptance(tol=args.tol, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f} s]  {r.detail}")
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    if args.out:
        rows = [[r.name, int(r.passed), r.seconds, r.detail] for r in results]
        write_records(args.out, fmt, ["check", "passed", "seconds", "detail"], rows)
    return EXIT_OK if n_failed == 0 else EXIT_ACCEPTANCE


_OUTPUT = {"format": "csv", "out": None}
# csv unless --format is given, and --format only together with --out
_SUMMARY_OUTPUT = {"format": None, "out": None}

#: Each subcommand's handler and the flags it reads, with their defaults.
#: A flag missing from a subcommand's set is an error there, not ignored.
SUBCOMMANDS = {
    "evolve": (cmd_evolve, {"xi": 1.0, "kappa": None, "t-max": 10.0, "dt": 0.01, "bloch": "0,0,1", **_OUTPUT}),
    "contour": (cmd_contour, {"xi": 1.0, "kappa-range": "0:14:141", "t-max": 10.0, "dt": 0.01, **_OUTPUT}),
    "blp": (cmd_blp, {"xi": 1.0, "kappa-range": "0:8:17", "t-max": 0.0, "pairs": 16, "seed": 0, **_OUTPUT}),
    "threshold": (cmd_threshold, {"xi": 1.0, "kappa-range": None, "tol": 1e-6, **_SUMMARY_OUTPUT}),
    "verify": (cmd_verify, {"tol": None, "seed": 0, **_SUMMARY_OUTPUT}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="qubitbath", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, defaults) in SUBCOMMANDS.items():
        # no abbreviations: "--kappa" must not silently mean "--kappa-range"
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for flag, default in defaults.items():
            p.add_argument(f"--{flag}", default=default, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
