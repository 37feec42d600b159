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
"""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                                             "ünïcödé", "%s %d %%", "{0.25, 0.5, 1, 2}"]))
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
