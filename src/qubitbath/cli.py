"""Command-line front end: trajectories, sweeps, measures, verification.

Subcommands and the flags each one reads
----------------------------------------
evolve     reduced Bloch trajectory plus analytic/numeric coherence factors,
           exit 2 (no file) where they differ by more than acceptance.ORACLE_TOL
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
Both are formatted and written in fixed chunks of rows: in each chunk a
float column prints each of its distinct values once, and the chunk's text
is one join of its cells with the fixed separators, keys and row joiners;
the JSON is byte-identical to ``json.dumps(..., indent=1)``.  Where the OS
reports an affinity mask (Linux), the chunks are formatted on every CPU in
it: the process and forked workers take them round-robin, and the bytes
are the same for any number of CPUs; elsewhere the process formats them
all.  No worker outlives the write.  A CSV text
cell that holds a comma, a quote, CR or LF is quoted per RFC 4180.  An infinite
value is written as the token ``inf`` in CSV and the string ``"infinite"``
in JSON.  ``evolve`` and ``contour`` write the times k*dt up to --t-max
(the single time 0 where --t-max < --dt, --t-max 0 included), and ``evolve``
propagates in steps of --dt itself.  They write at most :data:`MAX_ROWS` rows
(time points x kappa steps); a larger or non-finite ``--t-max/--dt`` is a
validation error, as are more than :data:`MAX_ROWS` ``blp`` kappa steps
and any step count in the ``lo:hi`` of ``threshold --kappa-range``.

Exit codes: 0 success, 1 validation or I/O error, 2 numeric failure,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .acceptance import ORACLE_TOL, run_acceptance
from .analytic import abs_coherence_derivative, blp_analytic, coherence_factor
from .errors import NumericsError, ValidationError
from .lindblad import MAX_RATE, ModelParams, TimeGrid, build_generator, expm_trajectory
from .markovianity import _blp_many, threshold_scan
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


def _kappa_range(text: str) -> tuple[float, float, int | None]:
    """'lo:hi' or 'lo:hi:steps'; ``steps`` is None where it is omitted."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expects 'lo:hi:steps', got {text!r}")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    steps = int(parts[2]) if len(parts) == 3 else None
    if hi <= lo:
        raise argparse.ArgumentTypeError("needs lo < hi")
    if steps is not None and steps < 1:
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
#: validation error raised before any array is allocated.  Formatting takes
#: O(chunk) memory (:data:`_CHUNK_ROWS`); what grows with the rows is the
#: table.  Peak RSS above the import, per row, at 100,001 and 400,001 rows:
#: evolve CSV 142 and 87 B, evolve JSON 159 and 92 B, contour (one kappa
#: step) 94 and 92 B.  An added evolve row costs about 70 B, so 10,000,000
#: evolve rows need about 0.75 GB.
MAX_ROWS = 10_000_000

#: Rows formatted and written at a time by :func:`write_records`, and time
#: steps per propagation in ``evolve``: their memory is bounded by this.
_CHUNK_ROWS = 8192

#: SIGKILL's number, which POSIX fixes; the signal module is not imported for it,
#: since its import alone costs the CLI about 0.07 MB of peak RSS.
_SIGKILL = 9


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _csv_text(text: str) -> str:
    """A CSV text cell, quoted per RFC 4180 when it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(values, float_column: bool, fmt: str):
    """The printed cells of one column's values in one chunk of rows.

    A float column is folded in numpy (-0.0 becomes 0.0, and in CSV -inf
    becomes inf) before it is deduplicated, so each distinct folded value is
    printed once: by '%.17g' in CSV, by float.__repr__ (as json's encoder
    does) in JSON, with the infinity token and NaN there.  An object-array
    take maps the printed values back to the rows.  Other cells are rendered
    one by one: str() with quoting in CSV, json.dumps() in JSON.
    """
    if float_column:
        folded = np.asarray(values, dtype=float) + 0.0
        if fmt == "csv":
            folded[np.isinf(folded)] = np.inf  # '%.17g' % inf is the token "inf"
        distinct, where = np.unique(folded, return_inverse=True)
        if fmt == "csv":
            printed = list(map("%.17g".__mod__, distinct.tolist()))
        else:
            printed = list(map(float.__repr__, distinct.tolist()))
            for k in np.flatnonzero(~np.isfinite(distinct)).tolist():
                printed[k] = _INF_JSON if np.isinf(distinct[k]) else "NaN"
        return np.array(printed, dtype=object)[where]
    if fmt == "csv":
        return [_csv_text(str(v)) for v in values]
    return [json.dumps(v) for v in values]


def _chunk_text(chunk, floats: list[bool], fmt: str, glue: list[str], first: str | None) -> str:
    """One chunk's text: one join over a grid of ``glue[k]`` before the cells of column k.

    ``first``, where given, replaces the glue before the first cell: the
    table's first row has no row before it.
    """
    grid = np.empty((len(chunk), 2 * len(floats)), dtype=object)
    grid[:, 0::2] = glue
    for k, (values, is_float) in enumerate(zip(chunk.T if isinstance(chunk, np.ndarray) else zip(*chunk), floats)):
        grid[:, 2 * k + 1] = _cells(values, is_float, fmt)
    if first is not None:
        grid[0, 0] = first
    parts = grid.ravel().tolist()
    del grid  # freed before the join allocates the text
    return "".join(parts)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _serve(pipe_fd: int, texts, inherited: list[int]):
    """A forked worker's whole life: send each of ``texts`` down its pipe, then exit.

    It first closes the read ends it inherited (``inherited``), so that its
    own pipe and its siblings' have the caller as their only reader.  Each
    text goes as its 8-byte length and its UTF-8 bytes.  The worker ends in
    os._exit whatever happens, so it never returns into the caller's frames
    and never flushes the stdio buffers it inherited (the table's head may
    sit in one); if the caller is gone, its next write fails with EPIPE and
    it exits with status 1.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(pipe_fd, "wb") as pipe:
            for text in texts:
                data = text.encode()
                del text
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
                del data
        status = 0
    finally:
        os._exit(status)


def _reap(workers: dict, owner: int):
    """Wait for worker ``owner``, forget it, and raise OSError unless it exited with status 0."""
    pid, pipe = workers[owner]
    status = os.waitpid(pid, 0)[1]
    del workers[owner]
    pipe.close()
    if status:
        raise OSError(f"formatting worker {pid} failed with exit code {os.waitstatus_to_exitcode(status)}")


def _receive(workers: dict, owner: int) -> bytes:
    """The next chunk from worker ``owner``'s pipe; OSError if the worker ended before sending it all."""
    pid, pipe = workers[owner]
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 8 or len(data) < size:
        _reap(workers, owner)  # raises where the worker failed
        raise OSError(f"formatting worker {pid} exited with code 0 before it sent its chunk")
    return data


def _pieces(fmt: str, columns: list[str], rows: np.ndarray | list[list]):
    """The UTF-8 bytes of a table: its head, one piece per :data:`_CHUNK_ROWS` rows, its tail.

    Whether a column prints as floats (every cell of a float ndarray, or a
    float in every row) is decided once over the whole column, so a chunk
    boundary cannot change how a cell is printed.  A chunk's text is one
    join over an object grid that interleaves its cell columns with the
    fixed glue of a row: the separators and JSON keys, and before the first
    cell of every row but the table's first, the end of the row before and
    the row joiner.

    The chunks are formatted by n = min(usable CPUs, chunks) processes:
    chunk k by process k mod n, where process 0 is the caller and the n - 1
    others are forked once the head is yielded.  Each worker sends its
    chunks, in order, down a pipe of its own; the caller formats its own
    chunks and reads the others from the pipes in their turn, so it holds
    one chunk at a time.  With n = 1 nothing is forked.  Forking is safe
    here because a worker calls no BLAS: it only runs np.unique (a sort),
    tolist, repr and '%', the object-array take and str.join, so an idle
    OpenBLAS thread of the caller, which fork does not copy, holds no lock
    that the worker could wait on.  However the generator ends (exhausted,
    or closed early by a write error or KeyboardInterrupt), its ``finally``
    SIGKILLs the workers still running and waits for every one.
    """
    array = isinstance(rows, np.ndarray)
    floats = [array or all(isinstance(row[k], float) for row in rows) for k in range(len(columns))]
    if fmt == "csv":
        start, seps, end, joiner = "", [","] * (len(columns) - 1), "", "\n"
        head, tail = ",".join(map(_csv_text, columns)) + "\n", "\n"
    else:
        keys = [json.dumps(col) for col in columns]
        start, seps, end, joiner = f"  {{\n   {keys[0]}: ", [f",\n   {key}: " for key in keys[1:]], "\n  }", ",\n"
        head, tail = json.dumps({"columns": columns, "records": []}, indent=1) + "\n", ""
        if len(rows):  # open the empty records list up as indent=1 does a full one
            head, tail = head.removesuffix("[]\n}\n") + "[\n", "\n ]\n}\n"
    glue = [end + joiner + start, *seps]
    yield head.encode()
    begins = range(0, len(rows), _CHUNK_ROWS)
    n = min(_usable_cpus(), len(begins))

    def texts(owner: int):
        # built in a call, so no chunk's cells stay referenced here while the next is built
        for begin in begins[owner::n]:
            yield _chunk_text(rows[begin:begin + _CHUNK_ROWS], floats, fmt, glue, None if begin else start)

    workers = {}  # process number -> (pid, read end of its pipe)
    try:
        for owner in range(1, n):
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(write_fd, texts(owner), [read_fd, *(p.fileno() for _, p in workers.values())])
            finally:
                os.close(write_fd)  # the caller's copy: EOF on the pipe then means the worker has ended
            workers[owner] = (pid, pipe)
        own = texts(0)
        for k in range(len(begins)):
            yield next(own).encode() if k % n == 0 else _receive(workers, k % n)
        for owner in list(workers):
            _reap(workers, owner)
    finally:
        for pid, _ in workers.values():
            os.kill(pid, _SIGKILL)
        for owner in list(workers):
            try:
                _reap(workers, owner)
            except OSError:  # killed above; the error that closed the generator is the one to report
                pass
    if len(rows):
        yield (end + tail).encode()


def write_records(path: str | None, fmt: str, columns: list[str], rows: np.ndarray | list[list]):
    """Serialize a table to CSV (LF, UTF-8, 17 significant digits) or JSON.

    ``rows`` is a 2-D float ndarray or a list of rows, one cell per column;
    both go through the same route.  The text is formatted and written
    :data:`_CHUNK_ROWS` rows at a time, so its memory is bounded by the
    chunk, not by the table.  In a chunk, each float column prints each
    distinct value once (:func:`_cells`), and the chunk's text is one join
    over a grid of its cells and the fixed glue between them
    (:func:`_chunk_text`); the JSON reproduces ``json.dumps(..., indent=1)``
    exactly.  On Linux the chunks are formatted on every usable CPU, by the
    caller and by forked workers that take them round-robin
    (:func:`_pieces`); the bytes are the same for any number of CPUs, and
    no worker outlives the call.  A file is written as those bytes; standard
    output gets their text.
    """
    pieces = _pieces(fmt, columns, rows)
    try:
        if path is None:
            sys.stdout.writelines(piece.decode() for piece in pieces)
        else:
            with open(path, "wb") as handle:
                handle.writelines(pieces)
    finally:
        pieces.close()


def _time_axis(t_max: float, dt: float, rows_per_time: int = 1) -> TimeGrid:
    """The times 0, dt, ... up to t_max, each written as ``rows_per_time`` rows.

    The row count is checked against :data:`MAX_ROWS` before anything is
    allocated.  A --t-max below --dt leaves the single time 0.
    """
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ValidationError(f"--t-max / --dt = {steps} is not a finite number of time steps")
    n_times = math.floor(steps + 1e-9) + 1
    if n_times * rows_per_time > MAX_ROWS:
        raise ValidationError(
            f"{n_times * rows_per_time} output rows exceed the limit of {MAX_ROWS}; use a larger --dt or a smaller grid"
        )
    return TimeGrid(dt, n_times)


def _kappa_sweep(args: argparse.Namespace) -> tuple[float, float, int]:
    """--kappa-range of contour and blp: 2 steps unless given, each at least one output row."""
    lo, hi, steps = args.kappa_range
    if lo < 0:
        raise ValidationError("cooling rates must be >= 0")
    steps = 2 if steps is None else steps
    if steps > MAX_ROWS:
        raise ValidationError(f"{steps} kappa steps exceed the limit of {MAX_ROWS} output rows")
    return lo, hi, steps


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
    params = ModelParams(args.xi, args.kappa)
    gen = build_generator(params)
    grid = _time_axis(args.t_max, args.dt)
    times = grid.times()
    table = np.empty((grid.num, len(EVOLVE_COLUMNS)))
    table[:, 0] = times
    # column 0 is the state whose Bloch vector is written, column 1 the probe whose c is checked
    states = np.column_stack([initial_joint_vector(args.bloch), initial_joint_vector((0.0, 0.0, 1.0))])
    # _CHUNK_ROWS steps per propagation; neighbouring chunks share their edge row, so each
    # starts from the last states of the one before, and since lindblad._BLOCK divides
    # _CHUNK_ROWS its blocks of rows start where one trajectory's would: the same bits
    for start in range(0, max(grid.num - 1, 1), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, grid.num - 1) + 1
        traj = expm_trajectory(gen, states, TimeGrid(grid.step, stop - start))
        block = table[start:stop]
        block[:, 1:4] = 4.0 * traj[:, [4, 8, 12], 0]
        block[:, 4] = coherence_factor(params, times[start:stop])
        block[:, 5] = 4.0 * traj[:, 12, 1]
        block[:, 6] = np.abs(block[:, 4] - block[:, 5])
        states = traj[-1]
    gap = table[:, 6].max()
    if gap > ORACLE_TOL:
        raise NumericsError(f"propagated c departs from the closed form by {gap:.3e}, over the bound {ORACLE_TOL:g}")
    write_records(args.out, args.format, EVOLVE_COLUMNS, table)
    return EXIT_OK


def cmd_contour(args: argparse.Namespace) -> int:
    lo, hi, steps = _kappa_sweep(args)
    times = _time_axis(args.t_max, args.dt, steps).times()
    kappas = np.linspace(lo, hi, steps)
    table = np.empty((steps, len(times), 3))
    table[:, :, 0] = times
    table[:, :, 1] = kappas[:, None]
    for block, kappa in zip(table, kappas):
        block[:, 2] = abs_coherence_derivative(ModelParams(args.xi, float(kappa)), times)
    write_records(args.out, args.format, CONTOUR_COLUMNS, table.reshape(-1, 3))
    return EXIT_OK


def cmd_blp(args: argparse.Namespace) -> int:
    lo, hi, steps = _kappa_sweep(args)
    points = [ModelParams(args.xi, float(kappa)) for kappa in np.linspace(lo, hi, steps)]
    analytic = [blp_analytic(params) for params in points]
    # the measure diverges where analytic is inf: those rows report the sentinel, not a horizon artifact;
    # --t-max 0 (the default) leaves the horizon to blp_numeric
    finite = [params for params, value in zip(points, analytic) if value != math.inf]
    results = iter(_blp_many(finite, [args.t_max or None] * len(finite), args.pairs, args.seed))
    rows = []
    for params, value in zip(points, analytic):
        if value == math.inf:
            rows.append([params.kappa, math.inf, math.inf, math.inf, 0])
            continue
        result = next(results)
        rows.append([params.kappa, value, result.value, abs(result.value - value), len(result.segments)])
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
        lo, hi, steps = args.kappa_range
        if steps is not None:
            raise ValidationError("threshold --kappa-range takes 'lo:hi'; the bisection has no step count")
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
