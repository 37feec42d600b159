"""``cli.write_records`` against a per-value oracle.

The oracle is the serializer the row templates replaced: every value
formatted on its own, floats by ``format(v + 0.0, ".17g")`` with the token
``inf`` in CSV, records by ``json.dumps(..., indent=1)`` over values with
``"infinite"`` for +-inf in JSON.  That float treatment applies in a column
that holds floats only, over all its rows; a float in any other column is
printed as its other cells are, by str() in CSV and json.dumps() in JSON.
The oracle differs from the old serializer only in quoting CSV text cells
that hold a comma, a quote, CR or LF (RFC 4180); ``csv.reader`` is the
independent check that those cells read back.

The float text itself comes from ``qubitbath._floattext``, which prints
float64 arrays in numpy; the tests in its section check it against
``repr`` and ``'%.17g'`` value by value.  The tests at the end shrink
``_CHUNK_ROWS`` so that a few rows make several chunks.
"""

import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitbath._floattext as floattext
import qubitbath.cli as cli


def _quoted(text):
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def float_columns(columns, rows):
    return [all(isinstance(row[k], float) for row in rows) for k in range(len(columns))]


def oracle_csv(columns, rows):
    def cell(v, float_column):
        if float_column:
            return "inf" if math.isinf(v) else format(v + 0.0, ".17g")  # + 0.0 folds -0.0
        return _quoted(str(v))

    floats = float_columns(columns, rows)
    lines = [",".join(map(_quoted, columns))]
    lines.extend(",".join(map(cell, row, floats)) for row in rows)
    return "\n".join(lines) + "\n"


def oracle_json(columns, rows):
    def safe(v, float_column):
        if float_column:
            return "infinite" if math.isinf(v) else v + 0.0
        return v

    floats = float_columns(columns, rows)
    records = [{col: safe(v, f) for col, v, f in zip(columns, row, floats)} for row in rows]
    return json.dumps({"columns": columns, "records": records}, indent=1) + "\n"


ORACLES = {"csv": oracle_csv, "json": oracle_json}


def written(fmt, columns, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        cli.write_records(path, fmt, columns, rows)
        with open(path, "rb") as handle:
            return handle.read()


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e300, -1e-300, 1e16, 1e17, 0.1, 123456789.123]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
TEXT = st.one_of(st.text(), st.sampled_from(['a,b', '"quoted"', 'say "x", y', "line\nbreak", "cr\rlf", "",
                                             "ünïcödé", "%s %d %%", "{0.25, 0.5, 1, 2}", "\x00", "nul\x00, then €"]))
CELLS = {"float": FLOATS, "int": st.integers(), "str": TEXT}
NAMES = st.one_of(st.text(min_size=1), st.sampled_from(["t", "kappa", "abs(c_analytic-c_numeric)", "100%", 'q"x']))


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    columns = draw(st.lists(NAMES, min_size=len(kinds), max_size=len(kinds), unique=True))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)).map(list), max_size=12))
    return columns, rows


@settings(max_examples=150, deadline=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]), numpy_scalars=st.booleans())
def test_rows_match_oracle(table, fmt, numpy_scalars):
    columns, rows = table
    expected = ORACLES[fmt](columns, rows).encode("utf-8")
    if numpy_scalars:  # np.float64 cells must print as plain floats
        rows = [[np.float64(v) if isinstance(v, float) else v for v in row] for row in rows]
    assert written(fmt, columns, rows) == expected


@settings(max_examples=100, deadline=None)
@given(
    n_columns=st.integers(1, 5),
    values=st.lists(FLOATS, max_size=60),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_float_array_matches_oracle(n_columns, values, fmt):
    rows = [values[k:k + n_columns] for k in range(0, len(values) - n_columns + 1, n_columns)]
    columns = [f"c{k}" for k in range(n_columns)]
    table = np.array(rows, dtype=float).reshape(len(rows), n_columns)
    assert written(fmt, columns, table) == ORACLES[fmt](columns, rows).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_rows(fmt):
    columns = ["t", "x"]
    expected = ORACLES[fmt](columns, []).encode("utf-8")
    assert written(fmt, columns, []) == expected
    assert written(fmt, columns, np.empty((0, 2))) == expected
    assert written(fmt, columns, cli._Table(0, [])) == expected


C = cli._CHUNK_ROWS


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, C - 1, C, C + 1, 2 * C + 1])
def test_chunk_boundaries_match_oracle(n_rows, fmt):
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-20, 20, (n_rows, 2))
    table.reshape(-1)[::7] = np.resize(SPECIAL_FLOATS, table.reshape(-1)[::7].size)
    columns = ["t", "x"]
    assert written(fmt, columns, table) == ORACLES[fmt](columns, table.tolist()).encode("utf-8")
    # list rows whose last column is all floats in the first chunk and holds an int and a
    # str in later ones: floats there print as text cells, where a per-chunk decision
    # would print 0.1 as 0.10000000000000001 (CSV) or -0.0 as 0.0 (JSON)
    mixed = np.resize(SPECIAL_FLOATS, n_rows).tolist()
    if n_rows > C:
        mixed[C] = 7
        mixed[2 * C:] = ["late, text"] * len(mixed[2 * C:])
    rows = [[*row, m] for row, m in zip(table.tolist(), mixed)]
    assert written(fmt, columns + ["m"], rows) == ORACLES[fmt](columns + ["m"], rows).encode("utf-8")


def repeated_table(case, n_rows):
    """A float table full of repeats, as columns and an (n_rows, k) array."""
    k = np.arange(n_rows)
    if case == "cartesian":  # contour's layout: every time of one kappa step, then the next step
        t, kappa = 0.01 * (k % 101), np.linspace(0.0, 14.0, 141)[k // 101 % 141]
        # 0.0 above kappa = 8 and -0.0 at t = 0, as d|c|/dt has both
        return ["t", "kappa", "d_abs_c_dt"], np.stack([t, kappa, np.where(kappa > 8.0, 0.0, -np.sin(t * kappa))], 1)
    if case == "constant":  # evolve's x, which the coupling conserves
        return ["t", "x"], np.stack([0.002 * k, np.full(n_rows, 0.3)], 1)
    # repeated NaN, both infinities (both read inf in CSV) and 0.0 next to -0.0
    specials = np.resize([math.nan, math.inf, -math.inf, 0.0, -0.0, math.nan, -math.inf, 1.5, -0.0], n_rows)
    return ["specials", "zeros"], np.stack([specials, np.resize([0.0, -0.0], n_rows)], 1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [C - 1, C, C + 1, 2 * C + 1])
@pytest.mark.parametrize("case", ["cartesian", "constant", "specials"])
def test_repeated_values_match_oracle(case, n_rows, fmt):
    columns, table = repeated_table(case, n_rows)
    expected = ORACLES[fmt](columns, table.tolist()).encode("utf-8")
    assert written(fmt, columns, table) == expected
    assert written(fmt, columns, table.tolist()) == expected
    if case == "specials" and fmt == "csv":
        assert b"-inf" not in expected and b"-0" not in expected


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_csv_text_cells_read_back(table):
    columns, rows = table
    text = written("csv", columns, rows).decode("utf-8")
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed[0] == columns
    assert len(parsed) == len(rows) + 1
    for row, back in zip(rows, parsed[1:]):
        back = back or [""]  # csv.reader reads the blank line of one empty cell as no fields
        assert len(back) == len(columns)
        assert [b for v, b in zip(row, back) if isinstance(v, str)] == [v for v in row if isinstance(v, str)]


# ---------------------------------------------------------------------------
# The numpy float text against repr and '%.17g', value by value.
# ---------------------------------------------------------------------------

ORACLE_TEXT = {True: repr, False: "%.17g".__mod__}


def raw_bytes(words):
    return np.ascontiguousarray(words.T).view(np.uint8).reshape(-1, floattext.WIDTH)


def texts(words):
    """Each value's text: the non-NUL prefix of its 24 bytes."""
    return [bytes(row).split(b"\0", 1)[0].decode() for row in raw_bytes(words)]


def assert_nul_past_lengths(words):
    """Each text's words hold no NUL before its length and only NUL after it, its length read as
    that of its non-NUL prefix: write_records picks a float cell's bytes as those that are not NUL."""
    raw = raw_bytes(words)
    nul = raw == 0
    lengths = np.where(nul.any(axis=1), nul.argmax(axis=1), floattext.WIDTH)
    past = np.arange(floattext.WIDTH) >= lengths[:, None]
    assert not raw[past].any()
    assert raw[~past].all()


def assert_prints_as_python(values):
    values = np.asarray(values, dtype=float)
    for shortest, oracle in ORACLE_TEXT.items():
        expected = [oracle(v) for v in values.tolist()]
        words = floattext._numpy_text(values, shortest)  # every lane through numpy, however few
        assert texts(words) == expected
        assert_nul_past_lengths(words)
        words = floattext.float_text(values, shortest)
        assert texts(words) == expected
        assert_nul_past_lengths(words)


BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 0x4310000000000000).map(lambda b: b | (2**63 if b & 1 else 0)),  # |v| below 2**50, either sign
)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(BIT_PATTERNS, min_size=1, max_size=40))
def test_float_text_matches_python_on_bit_patterns(bits):
    assert_prints_as_python(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=-(2.0**50), max_value=2.0**50), min_size=1, max_size=40))
def test_float_text_matches_python_below_2_to_50(values):
    assert_prints_as_python(values)


EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,  # subnormals
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    2.0**-25,  # 2.98023223876953125e-08: 18 digits, a tie that '%.17g' rounds to even
    1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002, 1e16, 1e17, 9999999999999998.0, 99999999999999984.0,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**50 - 0.5, 2.0**50, 0.1, 0.3, 1 / 3, 123456789.123, 1e23, 8.0, 0.5,
    *(2.0**k for k in range(-1074, 1024)), *(10.0**k for k in range(-323, 309)),
]


def test_float_text_matches_python_on_edges():
    # 5e-324 prints through CPython in '%.17g' (a quotient of few digits), 0.5 and 8.0 in
    # repr (exact digits cut), 1e300, inf and nan in both (2**50 and above)
    assert_prints_as_python(EDGE_FLOATS + [-v for v in EDGE_FLOATS])


NUL_CASES = [0.0, -0.0, 5e-324, -1e-310, 2.225073858507201e-308, 2.0**50, -(2.0**53) - 2, 1e300, -1.7976931348623157e308,
             math.inf, -math.inf, math.nan, 0.5, -8.0, 0.1, 1e16, 2.0**-25, 123456789.123]


@pytest.mark.parametrize("shortest", [True, False])
@pytest.mark.parametrize("n_values", [len(NUL_CASES), floattext._NUMPY_LANES - 1, floattext._NUMPY_LANES, 4_096])
def test_float_text_is_nul_past_its_length(n_values, shortest):
    # -0.0, subnormals, values of 2**50 and above, inf and nan among random bit patterns; passes of
    # fewer than _NUMPY_LANES values print through CPython, longer ones through numpy
    bits = np.random.default_rng(n_values).integers(0, 2**64, n_values, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values[:len(NUL_CASES)] = NUL_CASES
    words = floattext.float_text(values, shortest)
    assert_nul_past_lengths(words)
    assert texts(words) == list(map(ORACLE_TEXT[shortest], values.tolist()))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_values", [len(NUL_CASES), 4_096])
def test_float_cells_are_nul_past_their_text(n_values, fmt):
    # the cells come folded: -0.0 as 0.0, and in CSV -inf as inf; in JSON the tokens for +-inf
    # and NaN replace repr's text and its padding
    values = np.resize(NUL_CASES, n_values) + 0.0
    if fmt == "csv":
        values[np.isinf(values)] = math.inf
    cell = "%.17g".__mod__ if fmt == "csv" else lambda v: json.dumps("infinite" if math.isinf(v) else v)
    padded = b"".join(cell(v).encode().ljust(floattext.WIDTH, b"\0") for v in values.tolist())
    assert np.ascontiguousarray(cli._float_cells(values, fmt).T).tobytes() == padded


def test_a_short_pass_prints_through_python(monkeypatch):
    printed = []
    monkeypatch.setattr(floattext, "_numpy_text", lambda *args: printed.append(args))
    values = np.linspace(-3.0, 7.0, floattext._NUMPY_LANES - 1)
    assert texts(floattext.float_text(values, True)) == list(map(repr, values.tolist()))
    assert printed == []


# ---------------------------------------------------------------------------
# Tables of several small chunks.
# ---------------------------------------------------------------------------

SMALL = 4  # rows per chunk in the tests below, so that a few rows make several chunks


def edge_table(n_rows):
    """A float table with -0.0, +-inf and NaN on the first and last row of every chunk."""
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-20, 20, (n_rows, 3))
    edges = sorted({*range(0, n_rows, SMALL), *range(SMALL - 1, n_rows, SMALL), n_rows - 1})
    specials = [-0.0, math.inf, -math.inf, math.nan, 0.0]
    for k, row in enumerate(edges):
        table[row] = np.roll(specials, k)[:3]
    return ["t", "x", "y"], table


def repeated_rows(n_rows):
    """Contour's layout in small: t takes two values and kappa one in each chunk, so that a table of
    several chunks prints them once per value; d_abs_c_dt differs on every row."""
    k = np.arange(n_rows)
    t = np.where(k % 2, 0.25, -0.0)
    kappa = np.where(k // SMALL % 3 == 2, np.inf, 1.5 * (k // SMALL))
    d_abs_c_dt = np.sin(k + 1.0) * 10.0 ** (k % 7 - 3)
    return ["t", "kappa", "d_abs_c_dt"], np.stack([t, kappa, d_abs_c_dt], 1)


def verify_rows(n_rows):
    """The layout of ``verify --out``: name, int flag, seconds, a detail that needs quoting."""
    columns = ["check", "passed", "seconds", "detail"]
    rows = [[f"check_{k}", k % 2, [0.25, -0.0, math.inf, math.nan][k % 4], f'max gap {k}e-9, "ok"\nnext'] for k in range(n_rows)]
    return columns, rows


def threshold_rows(n_rows):
    """The layout of ``threshold --out``, one float column holding an int."""
    columns = ["xi", "kappa_star", "abs_dev_from_8xi", "witness"]
    rows = [[1.0 + k, 8.0 * (1.0 + k), [0.0, 1e-17, 7][k % 3], "rate-sign (information backflow)"] for k in range(n_rows)]
    return columns, rows


TABLES = {"floats": edge_table, "repeats": repeated_rows, "verify": verify_rows, "threshold": threshold_rows}
# 1 chunk, 2 chunks, 3 chunks with a 1-row last one, and 5 chunks with a 1-row last one
PARALLEL_ROWS = [1, SMALL + 3, 2 * SMALL + 1, 4 * SMALL + 1]

# The two tests below are named for the forked writer that formatted chunks in
# other processes before the numpy float text; their ids are kept.  They now check
# that small chunks (one pass, one byte grid per chunk, and the repeated-value
# decision of the first chunk) write the bytes of one chunk.


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", PARALLEL_ROWS)
@pytest.mark.parametrize("layout", sorted(TABLES))
def test_workers_write_the_one_process_bytes_to_a_file(layout, n_rows, fmt, tmp_path, monkeypatch):
    columns, rows = TABLES[layout](n_rows)
    path = tmp_path / "out"
    cli.write_records(str(path), fmt, columns, rows)
    expected = path.read_bytes()
    if isinstance(rows, np.ndarray):
        assert expected == ORACLES[fmt](columns, rows.tolist()).encode("utf-8")
    monkeypatch.setattr(cli, "_CHUNK_ROWS", SMALL)
    cli.write_records(str(path), fmt, columns, rows)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", PARALLEL_ROWS)
@pytest.mark.parametrize("layout", sorted(TABLES))
def test_workers_write_the_one_process_text_to_stdout(layout, n_rows, fmt, capfd, monkeypatch):
    columns, rows = TABLES[layout](n_rows)
    outputs = []
    for chunk_rows in (cli._CHUNK_ROWS, SMALL):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        cli.write_records(None, fmt, columns, rows)
        sys.stdout.flush()
        outputs.append(capfd.readouterr().out)
    assert outputs[1] == outputs[0]
    assert outputs[0].count(columns[-1]) == (1 if fmt == "csv" else n_rows + 1)


def test_write_records_never_forks(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", SMALL)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("write_records forked"))
    columns, table = edge_table(3 * SMALL)
    path = tmp_path / "out"
    cli.write_records(str(path), "csv", columns, table)
    assert path.read_bytes() == oracle_csv(columns, table.tolist()).encode("utf-8")
    assert cli.main(["evolve", "--kappa", "4", "--t-max", "0.2", "--format", "json", "--out", str(path)]) == 0


def test_a_full_device_is_an_io_error(capsys, alarm):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this OS")
    assert cli.main(["contour", "--out", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No space left on device" in err


def streamed(table, sizes):
    """``table`` as a cli._Table of blocks of the given sizes, each a view of one buffer that the
    next block refills, as evolve's and contour's producers refill theirs."""
    buffer = np.empty((max(sizes), table.shape[1]))

    def blocks():
        begin = 0
        for size in sizes:
            block = buffer[:size]
            block[:] = table[begin:begin + size]
            begin += size
            yield block

    return cli._Table(len(table), blocks())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", PARALLEL_ROWS)
@pytest.mark.parametrize("layout", ["floats", "repeats"])
def test_blocks_write_the_bytes_of_the_table(layout, n_rows, fmt, tmp_path, monkeypatch):
    # blocks of 1 to SMALL rows, whose edges are not the chunk edges of the table: what a block
    # edge changes is which values are printed once per distinct value, not the text
    monkeypatch.setattr(cli, "_CHUNK_ROWS", SMALL)
    columns, table = TABLES[layout](n_rows)
    sizes = []
    while sum(sizes) < n_rows:
        sizes.append(min(len(sizes) % SMALL + 1, n_rows - sum(sizes)))
    path = tmp_path / "out"
    cli.write_records(str(path), fmt, columns, table)
    expected = path.read_bytes()
    cli.write_records(str(path), fmt, columns, streamed(table, sizes))
    assert path.read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "case, sizes, prints",
    [
        ("same", [12] * 4, 1),  # every block holds the same times: printed in the first only
        ("shorter last", [12] * 4 + [8], 2),  # and again in the last, whose column is shorter
        ("changed", [12] * 4, 3),  # one time differs in block 2: printed in blocks 1, 2 and 3
        ("nan", [12] * 4, 4),  # NaN equals nothing, so a column that holds it is printed in every block
    ],
)
def test_a_repeating_column_is_printed_again_only_where_it_changes(case, sizes, prints, fmt, tmp_path, monkeypatch):
    # contour's layout in small: rows of 4 times and one kappa each, 3 rows a block, the blocks
    # refilled in one buffer; t and kappa repeat their values in the first block
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 12)
    k = np.arange(sum(sizes))
    t = 0.1 * (k % 4)
    if case == "changed":
        t[17] = 7.0
    if case == "nan":
        t[k % 4 == 3] = math.nan
    columns, table = ["t", "kappa", "d_abs_c_dt"], np.stack([t, 0.5 * (k // 4), np.sin(k + 1.0)], 1)
    passes, float_text = [], floattext.float_text
    monkeypatch.setattr(floattext, "float_text", lambda values, shortest: passes.append(values.copy()) or float_text(values, shortest))
    path = tmp_path / "out"
    cli.write_records(str(path), fmt, columns, streamed(table, sizes))
    assert path.read_bytes() == ORACLES[fmt](columns, table.tolist()).encode("utf-8")
    assert sum(np.count_nonzero(values == 0.1) for values in passes) == prints  # only t holds 0.1


def test_a_new_file_gets_the_mode_open_gives_it(tmp_path):
    columns, table = edge_table(3)
    umask = os.umask(0o027)
    try:
        cli.write_records(str(tmp_path / "new.csv"), "csv", columns, table)
    finally:
        os.umask(umask)
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640


def test_an_existing_file_keeps_its_mode_and_a_link_its_target(tmp_path):
    columns, table = edge_table(3)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n")
    target.chmod(0o604)
    link.symlink_to(target)
    cli.write_records(str(link), "csv", columns, table)
    assert link.is_symlink() and target.stat().st_mode & 0o777 == 0o604
    assert target.read_bytes() == oracle_csv(columns, table.tolist()).encode("utf-8")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]
    target.unlink()  # a dangling link's target is created, as open() creates it
    cli.write_records(str(link), "csv", columns, table)
    assert link.is_symlink() and target.read_bytes() == oracle_csv(columns, table.tolist()).encode("utf-8")


def test_a_fifo_is_written_directly(tmp_path, alarm):
    # renaming a finished file onto a FIFO or a device such as /dev/null would replace the node
    import threading

    columns, table = edge_table(3)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    cli.write_records(str(fifo), "csv", columns, table)
    reader.join()
    assert received == [oracle_csv(columns, table.tolist()).encode("utf-8")]
    assert fifo.is_fifo()
