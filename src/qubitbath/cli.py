"""Command-line front end: trajectories, sweeps, measures, verification.

Subcommands and the flags each one reads
----------------------------------------
evolve     reduced Bloch trajectory plus analytic/numeric coherence factors,
           exit 2 (no file) where they differ by more than analytic.ORACLE_TOL
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
Both are formatted and written in blocks of at most :data:`_CHUNK_ROWS`
rows, in one process: a block's float cells are printed in numpy
(:mod:`qubitbath._floattext`), byte for byte as '%.17g' and float.__repr__
print them, and its bytes are picked from one grid of those cells and the
fixed separators, keys and row joiners; the JSON is byte-identical to
``json.dumps(..., indent=1)``.  A CSV text
cell that holds a comma, a quote, CR or LF is quoted per RFC 4180.  An infinite
value is written as the token ``inf`` in CSV and the string ``"infinite"``
in JSON.  ``evolve`` and ``contour`` write the times k*dt up to --t-max
(the single time 0 where --t-max < --dt, --t-max 0 included), and ``evolve``
propagates in steps of --dt itself.  They write at most :data:`MAX_ROWS` rows
(time points x kappa steps); a larger or non-finite ``--t-max/--dt`` is a
validation error, as are more than :data:`MAX_ROWS` ``blp`` kappa steps
and any step count in the ``lo:hi`` of ``threshold --kappa-range``.

``evolve`` and ``contour`` refuse every input before their first row:
``evolve`` checks the closed form's time limit at its last time before it
propagates, ``contour`` the rates and time limits of its two kappa ends
before the window loop that reads d|c|/dt (analytic's one route).  Neither
holds a table: each block of rows is computed once the block before it is
written.  So the one refusal that can follow written rows is evolve's
numeric one (exit 2), which still propagates the rest once a block is
refused, so that the error names the largest gap of the whole trajectory.
A refused run leaves no --out file, and an existing one as it was.  On
standard output it leaves printed the head and the blocks before the first
refused one, in full or in part, as the output buffer flushed them.

Exit codes: 0 success, 1 validation or I/O error, 2 numeric failure,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys

import numpy as np

from .analytic import ORACLE_TOL, _abs_derivative_windows, _check_times, blp_analytic, coherence_factor
from .errors import NumericsError, ValidationError
from .lindblad import MAX_RATE, ModelParams, TimeGrid, build_generator, expm_trajectory
from .markovianity import _blp_many, _points, threshold_scan
from .operator_space import initial_joint_vector

__all__ = ["SUBCOMMANDS", "build_parser", "main", "entry"]

_INF_JSON = json.dumps("infinite").encode()

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
#: validation error raised before any array is allocated.  The rows are
#: computed and written a block of at most :data:`_CHUNK_ROWS` at a time and
#: no table is held, so the limit bounds the time of a run, not its memory.
#: Peak RSS and wall time at about 10,000,000 rows (CPython 3.11, numpy
#: 2.4.6, 2-core x86-64 host): evolve JSON 35.4 MB and 34 s, evolve CSV
#: 37.1 MB and 106 s, contour 33.9 MB and 8 s; at 100,001 rows 35.6, 35.4
#: and 33.2 MB.
MAX_ROWS = 10_000_000

#: Rows formatted and written at a time by :func:`write_records`, time steps
#: per propagation in ``evolve`` and lanes per kernel call in ``contour``:
#: their memory is bounded by this.
_CHUNK_ROWS = 8192

# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _csv_text(text: str) -> str:
    """A CSV text cell, quoted per RFC 4180 when it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_cells(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray, None]:
    """Byte strings as (w, n) uint64 words, 8w bytes from the lowest byte of ``words[0]``, and their lengths."""
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    width = -(-max(lengths.max(), 1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width).T, lengths, None


def _float_cells(values: np.ndarray, fmt: str) -> np.ndarray:
    """The text of float cells as (3, n) uint64 words, NUL past each text: '%.17g' in CSV, float.__repr__ in JSON.

    The values come folded (-0.0 as 0.0, and in CSV -inf as inf); the JSON
    tokens for +-inf and NaN, NUL-padded too, replace repr's.  They are printed
    in slices of half a chunk's rows: the formatter holds about 150 bytes a
    value, and slices of :data:`_CHUNK_ROWS` // 2 values keep that near 0.6 MB
    where whole-chunk slices took 1.2 MB (and peak RSS on the README contour
    rose by 0.8 MB), at the same speed.
    """
    # imported here, on the first table: compiling the module without cached bytecode
    # added about 4 ms, a tenth, to the CLI's set-up time
    from ._floattext import float_text

    words = np.empty((3, len(values)), dtype=np.uint64)
    for begin in range(0, len(values), _CHUNK_ROWS // 2):
        part = slice(begin, begin + _CHUNK_ROWS // 2)
        words[:, part] = float_text(values[part], shortest=fmt == "json")
    if fmt == "json":
        for lanes, token in ((np.flatnonzero(np.isinf(values)), _INF_JSON), (np.flatnonzero(np.isnan(values)), b"NaN")):
            words[:, lanes] = np.frombuffer(token.ljust(8 * len(words), b"\0"), dtype=np.uint64)[:, None]
    return words


def _columns_text(chunk, floats: list[bool], fmt: str, repeats: list | None):
    """The cells of one chunk of rows, column by column: (w, n) uint64 words, lengths and row indices.

    The float cells of all float columns go through :func:`_float_cells` in
    one pass, and have no lengths (None): their words are NUL past the text.
    A float column that repeats its values prints each distinct value once
    (np.unique), and its row indices map them to its rows; other columns
    have None there, for cell k on row k.  ``repeats`` holds per float
    column False, or the distinct values, row indices and words of its last
    chunk (copies), which a chunk whose column equals them reuses, so that
    contour's time axis is sorted and printed once.  Where it is None, the
    chunk is the first of a table of several chunks and decides it: a
    column repeats where that chunk holds at most half as many distinct
    values as rows, as contour's t and kappa and evolve's conserved x do;
    elsewhere np.unique's sort costs more than it saves.  Other cells are
    rendered one by one: str() with quoting in CSV, json.dumps() in JSON.
    """
    columns = list(chunk.T) if isinstance(chunk, np.ndarray) else [list(c) for c in zip(*chunk)]
    decided, printed = [], []  # per float column: False or [distinct values, rows, words]; the values it prints
    for values in (values for values, is_float in zip(columns, floats) if is_float):
        folded = np.asarray(values, dtype=float) + 0.0  # a copy
        if fmt == "csv":
            folded[np.isinf(folded)] = np.inf  # '%.17g' % inf is the token "inf"
        last = None if repeats is None else repeats[len(decided)]
        if last and np.array_equal(last[0][last[1]], folded):  # never where it holds NaN, which equals nothing
            decided.append(last), printed.append(last[0][:0])
            continue
        if last is not False:
            distinct, inverse = np.unique(folded, return_inverse=True)
        if last is False or (last is None and 2 * len(distinct) > len(folded)):
            decided.append(False), printed.append(folded)
        else:  # kept for the next chunk, so its row indices in the narrowest type that holds them
            decided.append([distinct, inverse.astype(np.min_scalar_type(len(distinct))), None])
            printed.append(distinct)
    words, offset = _float_cells(np.concatenate(printed or [np.empty(0)]), fmt), 0
    for k, (values, memo) in enumerate(zip(printed, decided)):
        part, offset = words[:, offset:offset + len(values)], offset + len(values)
        if memo and memo[2] is None:
            memo[2] = part.copy()
        printed[k] = (memo[2], None, memo[1]) if memo else (part, None, None)
    printed = iter(printed)
    return [next(printed) if is_float else _text_cells(
        [(_csv_text(str(v)) if fmt == "csv" else json.dumps(v)).encode() for v in values]
    ) for values, is_float in zip(columns, floats)], decided


def _grid(store: list, rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """An uninitialised (rows, width) uint8 grid and bool mask, both in the one buffer ``store[0]``,
    which is reused and grows as needed."""
    if store[0].size < 2 * rows * width:
        store[0] = np.empty(2 * rows * width, dtype=np.uint8)
    grid, keep = store[0][:2 * rows * width].reshape(2, rows, width)
    return grid, keep.view(bool)


def _row_template(glue: list[bytes], widths: list[int]) -> tuple[bytearray, list[int]]:
    """A row's bytes before its cells go in: ``glue[k]``, then ``widths[k]`` words for cell k.

    Each cell starts at a multiple of 8 bytes, after its glue and the NUL
    padding before it; the cells' words are NUL too.  Also each cell's word offset.
    """
    template, at = bytearray(), []
    for g, width in zip(glue, widths):
        template += bytes(-(len(template) + len(g)) % 8) + g
        at.append(len(template) // 8)
        template += bytes(8 * width)
    return template, at


def _chunk_pieces(cells, n_rows: int, glue: list[bytes], skip: int, store: list):
    """The bytes of ``n_rows`` rows, ``glue[k]`` then the cells of column k on each, as uint8 arrays.

    The glue and the cells' words are laid side by side in a (rows, width)
    uint8 grid (:func:`_row_template`), and its bytes other than NUL are
    picked: glue holds no NUL, and a float cell's words are NUL past its
    text; a text cell, which may hold NUL, is picked by its length.
    ``skip`` bytes of the first row's glue are left out.  The grid holds at
    most :data:`_CHUNK_ROWS` cells at a time, so the rows go in slices of
    that many cells.  The grid and its mask are views of the buffer in
    ``store`` (:func:`_grid`), which every block of a table reuses.
    """
    template, at = _row_template(glue, [len(words) for words, _, _ in cells])
    step = max(_CHUNK_ROWS // len(cells), 1)
    for begin in range(0, n_rows, step):
        part = slice(begin, min(begin + step, n_rows))
        grid, keep = _grid(store, part.stop - begin, len(template))
        grid[:] = np.frombuffer(template, dtype=np.uint8)
        for k, (words, _, rows) in zip(at, cells):
            grid.view(np.uint64)[:, k:k + len(words)] = words[:, part if rows is None else rows[part]].T
        np.not_equal(grid, 0, out=keep)
        for k, (words, lengths, _) in zip(at, cells):
            if lengths is not None:
                keep[:, 8 * k:8 * (k + len(words))] = np.arange(8 * len(words)) < lengths[part, None]
        if begin == 0:
            first = -len(glue[0]) % 8  # where the first glue starts
            keep[0, first:first + skip] = False
        yield grid[keep]


class _Table:
    """A float table of ``n_rows`` rows that arrive as blocks of at most :data:`_CHUNK_ROWS` rows.

    len() is the row count; iterating it runs ``blocks``, once.  A block
    may be a view of a buffer that the next block refills.
    """

    def __init__(self, n_rows: int, blocks):
        self.n_rows, self.blocks = n_rows, blocks

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self):
        return iter(self.blocks)


def _pieces(fmt: str, columns: list[str], rows):
    """The UTF-8 bytes of a table: its head, the pieces of each block of rows, its tail.

    An ndarray or a list of rows goes in blocks of :data:`_CHUNK_ROWS` rows,
    a sized iterable of float blocks (:class:`_Table`) in its own blocks.
    Whether a column prints as floats (every cell of float blocks, or a
    float in every row of a list) is decided once over the whole column, so
    a block boundary cannot change how a cell is printed.  The first block is computed before the
    head is yielded, so a table whose first block is refused yields nothing.
    Each row of a block is its cells with the fixed glue before each: the
    separators and JSON keys, and before the first cell the end of the row
    before and the row joiner, which the table's first row leaves out.
    """
    listed = isinstance(rows, list)
    floats = [not listed or all(isinstance(row[k], float) for row in rows) for k in range(len(columns))]
    if fmt == "csv":
        start, seps, end, joiner = "", [","] * (len(columns) - 1), "", "\n"
        head, tail = ",".join(map(_csv_text, columns)) + "\n", "\n"
    else:
        keys = [json.dumps(col) for col in columns]
        start, seps, end, joiner = f"  {{\n   {keys[0]}: ", [f",\n   {key}: " for key in keys[1:]], "\n  }", ",\n"
        head, tail = json.dumps({"columns": columns, "records": []}, indent=1) + "\n", ""
        if len(rows):  # open the empty records list up as indent=1 does a full one
            head, tail = head.removesuffix("[]\n}\n") + "[\n", "\n ]\n}\n"
    glue = [(end + joiner + start).encode(), *(sep.encode() for sep in seps)]
    if listed or isinstance(rows, np.ndarray):
        blocks = (rows[begin:begin + _CHUNK_ROWS] for begin in range(0, len(rows), _CHUNK_ROWS))
    else:
        blocks = iter(rows)
    # the grid and mask of _chunk_pieces are one buffer that every block reuses; a float table's
    # (3 words a cell) is allocated here, before the first block.  With glibc, allocated after it,
    # among the producer's freed temporaries, it cost about 1,250 minor page faults per evolve-json
    # call and 1.4 MB more peak RSS; as two buffers, or two arrays per slice, about 3,000 faults
    # per README contour call, as the heap was trimmed and faulted in again on every block
    store = [np.empty(0, dtype=np.uint8)]
    if not listed:
        _grid(store, max(_CHUNK_ROWS // len(columns), 1), len(_row_template(glue, [3] * len(columns))[0]))
    chunk = next(blocks, None)
    yield head.encode()
    repeats = None if len(rows) > _CHUNK_ROWS else [False] * len(columns)
    skip = len(end + joiner)
    while chunk is not None:
        cells, repeats = _columns_text(chunk, floats, fmt, repeats)
        n_rows = len(chunk)
        del chunk  # its cells are copied; the producer may refill its buffer
        yield from _chunk_pieces(cells, n_rows, glue, skip, store)
        del cells  # freed before the next block is built
        skip, chunk = 0, next(blocks, None)
    if len(rows):
        yield (end + tail).encode()


@contextlib.contextmanager
def _output_file(path: str):
    """A binary file for ``path`` that replaces it only once the whole table is written.

    A regular file, or a path that does not exist yet, is written as a
    temporary file in the same directory, which os.replace() moves onto it
    at the end; on any exception the temporary file is deleted and ``path``
    is left as it was.  A symbolic link's target is replaced, not the link.
    A new file gets the mode open() would give it (0o666 less the umask),
    an existing one keeps its own, and an existing file that cannot be
    written is refused as open() refuses it.  Anything else, such as a
    device or a FIFO (``/dev/null``), is written directly, as standard
    output is: renaming onto it would replace the node itself.
    """
    target = path
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            target = os.path.realpath(path)
            mode = os.stat(path).st_mode
    except OSError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            yield handle
        return
    if mode is not None:  # refused here if it cannot be written; opened without truncating it
        os.close(os.open(target, os.O_WRONLY))
    directory, name = os.path.split(target)
    while True:
        temporary = os.path.join(directory, f".{name[:64]}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # named by the path asked for, as open() would name it
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def write_records(path: str | None, fmt: str, columns: list[str], rows):
    """Serialize a table to CSV (LF, UTF-8, 17 significant digits) or JSON.

    ``rows`` is a 2-D float ndarray, a list of rows with one cell per
    column, or a sized iterable of 2-D float blocks (:class:`_Table`):
    len() gives its row count, and iterating it yields blocks of at most
    :data:`_CHUNK_ROWS` rows, each computed only when the one before is
    written.  All three go through the same route, one block at a time
    (an ndarray or a list in blocks of _CHUNK_ROWS rows), so the memory
    of the text is bounded by the block, not by the table, and a _Table's
    producer need never hold the table either.  In a block, the float
    cells are printed in numpy (:mod:`qubitbath._floattext`), a column that
    repeats its values once per distinct value and not at all where it
    equals the block before (:func:`_columns_text`), and the cells and the
    fixed glue between them are laid out in a uint8 grid, whose bytes
    other than NUL padding are picked (:func:`_chunk_pieces`); the JSON
    reproduces ``json.dumps(..., indent=1)`` exactly, whatever the block
    edges.  Everything runs in the calling process.

    A file is written as those bytes (see :func:`_output_file`): where a
    block's producer raises, a regular ``path`` is left as it was.
    Standard output gets their text; nothing is printed before the first
    block is computed, but a later block's error leaves the blocks before
    it printed, in part or in full.
    """
    pieces = _pieces(fmt, columns, rows)
    try:
        if path is None:
            sys.stdout.writelines(str(piece, "utf-8") for piece in pieces)
        else:
            with _output_file(path) as handle:
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


def _evolve_blocks(params: ModelParams, gen: np.ndarray, bloch: tuple[float, float, float], grid: TimeGrid):
    """The rows of ``evolve``, one block per propagation chunk of :data:`_CHUNK_ROWS` steps.

    Each block is checked before it is yielded: where c departs from the
    closed form by more than ORACLE_TOL, the rest of the trajectory is still
    propagated, unwritten, so that the error names the largest gap of the
    whole trajectory.  The blocks are views of one buffer, refilled for the
    next block.
    """
    # column 0 is the state whose Bloch vector is written, column 1 the probe whose c is checked
    states = np.column_stack([initial_joint_vector(bloch), initial_joint_vector((0.0, 0.0, 1.0))])
    buffer = np.empty((_CHUNK_ROWS, len(EVOLVE_COLUMNS)))
    worst = 0.0
    # each chunk propagates one step past its block, to the state the next chunk starts from,
    # and since lindblad._BLOCK divides _CHUNK_ROWS its blocks of rows start where one
    # trajectory's would: the same bits
    for start in range(0, grid.num, _CHUNK_ROWS):
        block = buffer[:min(_CHUNK_ROWS, grid.num - start)]
        traj = expm_trajectory(gen, states, TimeGrid(grid.step, min(len(block) + 1, grid.num - start)))
        block[:, 0] = times = grid.step * np.arange(start, start + len(block))
        block[:, 1:4] = 4.0 * traj[:len(block), [4, 8, 12], 0]
        block[:, 4] = coherence_factor(params, times)
        block[:, 5] = 4.0 * traj[:len(block), 12, 1]
        np.abs(block[:, 4] - block[:, 5], out=block[:, 6])
        states = traj[-1].copy()  # not a view, which would hold this chunk's trajectory through the next
        del traj
        worst = max(worst, block[:, 6].max())
        if worst <= ORACLE_TOL:
            yield block
    if worst > ORACLE_TOL:
        raise NumericsError(f"propagated c departs from the closed form by {worst:.3e}, over the bound {ORACLE_TOL:g}")


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.kappa is None:
        raise ValidationError("evolve requires --kappa")
    params = ModelParams(args.xi, args.kappa)
    grid = _time_axis(args.t_max, args.dt)
    _check_times(grid.step * (grid.num - 1), params.discriminant)  # the closed form's limit, before any propagation
    blocks = _evolve_blocks(params, build_generator(params), args.bloch, grid)
    write_records(args.out, args.format, EVOLVE_COLUMNS, _Table(grid.num, blocks))
    return EXIT_OK


def _contour_blocks(xi: float, kappas: np.ndarray, grid: TimeGrid):
    """The rows of ``contour``, one block per window of :data:`_CHUNK_ROWS` lanes of ``analytic._abs_derivative_windows``,
    each a view of one buffer that the next window refills, so no array grows with the row count."""
    buffer = np.empty((_CHUNK_ROWS, len(CONTOUR_COLUMNS)))
    for window, times, values in _abs_derivative_windows(xi, kappas, grid, _CHUNK_ROWS):
        lanes = buffer[:values.size].reshape(*values.shape, len(CONTOUR_COLUMNS))
        lanes[:, :, 0], lanes[:, :, 1], lanes[:, :, 2] = times, window[:, None], values
        del values  # freed before the block is written: held through it, it raised peak RSS by 0.1-0.2 MB
        yield lanes.reshape(-1, len(CONTOUR_COLUMNS))


def cmd_contour(args: argparse.Namespace) -> int:
    lo, hi, steps = _kappa_sweep(args)
    grid = _time_axis(args.t_max, args.dt, steps)
    blocks = _contour_blocks(args.xi, np.linspace(lo, hi, steps), grid)
    write_records(args.out, args.format, CONTOUR_COLUMNS, _Table(steps * grid.num, blocks))
    return EXIT_OK


def cmd_blp(args: argparse.Namespace) -> int:
    lo, hi, steps = _kappa_sweep(args)
    points = [ModelParams(args.xi, float(kappa)) for kappa in np.linspace(lo, hi, steps)]
    analytic = [blp_analytic(params) for params in points]
    # the measure diverges where analytic is inf: those rows report the sentinel, not a horizon artifact;
    # --t-max 0 (the default) leaves the horizon to blp_numeric
    finite = [params for params, value in zip(points, analytic) if value != math.inf]
    results = iter(_blp_many(_points(finite), [args.t_max or None] * len(finite), args.pairs, args.seed))
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
    # imported here: the other subcommands never load acceptance and oracles (about 825 lines)
    from .acceptance import run_acceptance

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
