import csv
import hashlib
import importlib.util
import json
import math
import pathlib
import random
import sys
import tracemalloc

import numpy as np
import pytest

import qubitbath.cli as cli
from qubitbath import acceptance, analytic
from qubitbath.acceptance import CheckResult
from qubitbath.errors import NumericsError
from qubitbath.markovianity import MAX_PAIRS, MAX_SCAN_POINTS


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, convert=float):
    idx = header.index(name)
    return [convert(row[idx]) for row in rows]


class TestEvolve:
    def test_critical_z_column(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = cli.main(
            ["evolve", "--xi", "1", "--kappa", "8", "--bloch", "0,0,1",
             "--t-max", "5", "--dt", "0.05", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.EVOLVE_COLUMNS
        t = np.array(column(header, rows, "t"))
        z = np.array(column(header, rows, "z"))
        assert np.abs(z - np.exp(-2 * t) * (1 + 2 * t)).max() <= 1e-10
        gap = np.array(column(header, rows, "abs(c_analytic-c_numeric)"))
        assert gap.max() <= 1e-10

    def test_zero_coupling_constant_columns(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert cli.main(["evolve", "--xi", "0", "--kappa", "3", "--bloch", "0.3,0.2,0.4",
                         "--t-max", "2", "--dt", "0.1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        for name in ("x", "y", "z", "c_analytic", "c_numeric"):
            values = column(header, rows, name)
            assert max(values) - min(values) <= 1e-12

    def test_overdamped_monotone_coherence(self, tmp_path):
        out = tmp_path / "mono.csv"
        assert cli.main(["evolve", "--xi", "1", "--kappa", "16",
                         "--t-max", "8", "--dt", "0.05", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        c = column(header, rows, "c_numeric")
        assert all(a >= b - 1e-12 for a, b in zip(c, c[1:]))
        assert all(v > 0 for v in c)

    def test_json_format(self, tmp_path):
        out = tmp_path / "evolve.json"
        assert cli.main(["evolve", "--kappa", "8", "--t-max", "1", "--dt", "0.5",
                         "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == cli.EVOLVE_COLUMNS
        assert len(payload["records"]) == 3
        assert payload["records"][0]["z"] == pytest.approx(1.0)

    def test_deterministic_bytes(self, tmp_path):
        args = ["evolve", "--kappa", "4", "--t-max", "2", "--dt", "0.1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_kappa_is_validation_error(self, capsys):
        assert cli.main(["evolve", "--t-max", "1"]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_bad_bloch_is_validation_error(self):
        assert cli.main(["evolve", "--kappa", "1", "--bloch", "2,0,0"]) == 1
        assert cli.main(["evolve", "--kappa", "1", "--bloch", "1,2"]) == 1

    def test_unwritable_path(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
        code = cli.main(["evolve", "--kappa", "1", "--t-max", "1", "--out", str(missing_dir)])
        assert code == 1
        assert str(missing_dir) in capsys.readouterr().err

    def test_negative_kappa_rejected(self):
        assert cli.main(["evolve", "--kappa", "-1", "--t-max", "1"]) == 1

    def test_numeric_failure_exit_code(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(cli, "expm_trajectory", boom)
        assert cli.main(["evolve", "--kappa", "1", "--t-max", "1"]) == 2

    @pytest.mark.parametrize("xi, gap", [("1e15", "1.161e-01"), ("1e10", "4.440e-06")])
    def test_propagation_off_the_closed_form_is_refused(self, tmp_path, capsys, xi, gap):
        # the matrix exponential loses accuracy at these couplings; no trajectory is written or printed
        out = tmp_path / "evolve.csv"
        argv = ["evolve", "--xi", xi, "--kappa", "1", "--t-max", "1", "--dt", "0.5"]
        for target in (["--out", str(out)], []):
            assert cli.main(argv + target) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("numeric failure:")
            assert f"by {gap}, over the bound 1e-08" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_memory_per_row_is_bounded_by_the_table(self, tmp_path):
        # the trajectory is propagated, checked and formatted one block of rows at a time, and no
        # table is built, so the peak does not grow with the rows: under 1 B a row here, where the
        # whole (rows, 7) table took 65 B and formatting it whole about 1,200 B.  The first call
        # imports the float-text module, which would count as rows
        def peak_bytes(t_max):
            tracemalloc.start()
            try:
                argv = ["evolve", "--kappa", "4", "--t-max", t_max, "--dt", "0.001", "--format", "json"]
                assert cli.main(argv + ["--out", str(tmp_path / "evolve.json")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes("0.1")
        assert (peak_bytes("20") - peak_bytes("10")) / 10_000 <= 16  # 20,001 and 10,001 rows

    @staticmethod
    def skew_past_the_first_block(monkeypatch):
        """Move c off the closed form by 1e-6 t after the first block of rows, most on the last row."""
        closed_form = cli.coherence_factor
        first_block_end = cli._CHUNK_ROWS * 0.002
        monkeypatch.setattr(cli, "coherence_factor",
                            lambda params, t: closed_form(params, t) + np.where(t >= first_block_end, 1e-6 * t, 0.0))

    def test_refusal_after_the_first_block_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # 20,001 rows, three blocks: the first is written before the second is refused, and the
        # gap named is the whole trajectory's largest, on its last row, as when it was checked whole
        self.skew_past_the_first_block(monkeypatch)
        argv = ["evolve", "--kappa", "4", "--t-max", "40", "--dt", "0.002"]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"t,x\n0,1\n")
        for out in (new, old):
            assert cli.main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "numeric failure: propagated c departs from the closed form by 4.000e-05, over the bound 1e-08\n")
        assert [path.name for path in tmp_path.iterdir()] == ["old.csv"]  # no temporary file left either
        assert old.read_bytes() == b"t,x\n0,1\n"

    def test_time_refusal_comes_before_any_propagation(self, capsys, monkeypatch):
        # 200,001 rows, of which the last 100,000 lie above MAX_TIME: nothing is propagated or printed
        propagated = []
        monkeypatch.setattr(cli, "expm_trajectory", lambda *args: propagated.append(args))
        assert cli.main(["evolve", "--kappa", "4", "--t-max", "2e150", "--dt", "1e145"]) == 1
        error = "error: time must be <= 1e+150: MAX_TIME = 1e+150, less where disc*(t/4)**2 overflows\n"
        assert capsys.readouterr() == ("", error)
        assert propagated == []

    def test_refusal_on_stdout_leaves_the_blocks_before_it(self, capsys, monkeypatch):
        argv = ["evolve", "--kappa", "4", "--t-max", "40", "--dt", "0.002"]
        assert cli.main(argv) == 0
        whole = capsys.readouterr().out
        self.skew_past_the_first_block(monkeypatch)
        assert cli.main(argv) == 2
        printed = capsys.readouterr().out
        assert whole.startswith(printed) and printed.count("\n") <= 1 + cli._CHUNK_ROWS


class TestContour:
    def test_sign_structure_rows(self, tmp_path):
        out = tmp_path / "contour.csv"
        code = cli.main(
            ["contour", "--kappa-range", "4:10:4", "--t-max", "4", "--dt", "0.02",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.CONTOUR_COLUMNS
        kappa = np.array(column(header, rows, "kappa"))
        value = np.array(column(header, rows, "d_abs_c_dt"))
        assert value[kappa == 10.0].max() <= 1e-12
        assert value[kappa == 8.0].max() <= 1e-12
        assert value[kappa == 4.0].max() > 0  # backflow window inside [0, 4]

    def test_grid_shape_and_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert cli.main(["contour", "--kappa-range", "0:2:3", "--t-max", "1",
                         "--dt", "0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 3 * 3
        # kappa-major ordering with t minor
        assert column(header, rows, "kappa") == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert column(header, rows, "t") == [0, 0.5, 1.0] * 3

    @pytest.mark.parametrize(
        "argv, calls",
        [
            # the README grid: 8 rows of 1,001 times per call, 18 calls where one per row made 141
            (["--kappa-range", "0:14:141", "--t-max", "10", "--dt", "0.01"], 18),
            # 10,001 times: each row in two pieces, one of 8,192 times and one of 1,809
            (["--kappa-range", "4:8:2", "--t-max", "100", "--dt", "0.01"], 4),
        ],
    )
    def test_kernel_calls_span_whole_rows(self, argv, calls, monkeypatch, tmp_path):
        lanes, kernel = [], analytic._kernel

        def counted(*args):  # the lanes each call evaluates
            c, dc = kernel(*args)
            lanes.append(c.size)
            return c, dc

        monkeypatch.setattr(analytic, "_kernel", counted)
        assert cli.main(["contour", *argv, "--out", str(tmp_path / "c.csv")]) == 0
        header, rows = read_csv(tmp_path / "c.csv")
        assert len(lanes) == calls
        assert sum(lanes) == len(rows) and max(lanes) <= cli._CHUNK_ROWS

    @pytest.mark.parametrize(
        "argv, error",
        [
            # every row is refused for its time; the smaller end, checked first, has the highest limit
            pytest.param(["--kappa-range", "1e60:4e60:4", "--t-max", "1e100", "--dt", "1e99"],
                         "time must be <= 4e+94: MAX_TIME = 1e+150, less where disc*(t/4)**2 overflows",
                         id="smaller-end-time"),
            # the smaller end passes, and the larger is refused for its rate before its time (4e+79)
            pytest.param(["--kappa-range", "0:2e75:3", "--t-max", "1e80", "--dt", "1e79"],
                         "kappa and 8|xi| must be <= MAX_RATE = 1e+75", id="larger-end-rate"),
        ],
    )
    def test_refusal_names_the_first_refused_row(self, argv, error, capsys, tmp_path):
        # only the two ends of the sweep are checked: |disc| and the rate are largest at one of them
        out = tmp_path / "c.csv"
        assert cli.main(["contour", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kappa-range", "1e60:4e60:4", "--t-max", "1e100", "--dt", "1e99"],
            ["--kappa-range", "0:2e75:3", "--t-max", "1e80", "--dt", "1e79"],
            ["--kappa-range", "0:2e75:3", "--t-max", "5e79", "--dt", "1e76"],
        ],
    )
    def test_refused_contour_evaluates_no_window(self, argv, monkeypatch, tmp_path):
        # every refusal is decided before the first window, by ModelParams and the time check alone
        made, kernel = [], analytic._kernel
        monkeypatch.setattr(analytic, "_kernel", lambda *args: made.append(args) or kernel(*args))
        assert cli.main(["contour", *argv, "--out", str(tmp_path / "c.csv")]) == 1
        assert made == []

    def test_refusal_after_the_first_window_leaves_no_file(self, tmp_path, capsys):
        # 5,001 times a row, so each kappa row is a window of its own; the first row passes and the
        # last is refused for its time, before the first window is evaluated
        argv = ["contour", "--kappa-range", "1e74:1e75:3", "--t-max", "5e79", "--dt", "1e76"]
        error = "error: time must be <= 4e+79: MAX_TIME = 1e+150, less where disc*(t/4)**2 overflows\n"
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"t,kappa\n0,1\n")
        for out in (new, old):
            assert cli.main(argv + ["--out", str(out)]) == 1
            assert capsys.readouterr().err == error
        assert [path.name for path in tmp_path.iterdir()] == ["old.csv"]  # no temporary file left either
        assert old.read_bytes() == b"t,kappa\n0,1\n"
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", error)

    def test_refusal_of_the_first_window_prints_nothing(self, capsys):
        assert cli.main(["contour", "--kappa-range", "1e60:4e60:4", "--t-max", "1e100", "--dt", "1e99"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("chunk_rows", [3_003, 500])
    def test_readme_grid_in_other_blocks_writes_its_digest(self, chunk_rows, monkeypatch, tmp_path):
        # 3,003: blocks of three whole kappa rows that repeat the time axis; 500: each row's 1,001
        # times in blocks of 500, 500 and 1, so the kappa column repeats the block before instead
        from test_output_hashes import FILE_OUTPUTS

        argv, digest = FILE_OUTPUTS["contour-csv"]
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        assert cli.main(argv + ["--out", str(tmp_path / "c.csv")]) == 0
        assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == digest

    def test_readme_grid_prints_its_time_axis_twice(self, monkeypatch, tmp_path):
        # 141 kappa rows of 1,001 times in 18 blocks of 8 rows (the last of 5): d|c|/dt prints
        # every row's value, kappa its 8 or 5 values a block, and the time axis prints in the
        # first block and the shorter last one, where it printed in all 18 (159,300 values)
        import qubitbath._floattext as floattext

        printed, float_text = [], floattext.float_text
        monkeypatch.setattr(floattext, "float_text", lambda values, shortest: printed.append(len(values)) or float_text(values, shortest))
        argv = ["contour", "--xi", "1", "--kappa-range", "0:14:141", "--t-max", "10", "--dt", "0.01"]
        assert cli.main(argv + ["--out", str(tmp_path / "c.csv")]) == 0
        assert sum(printed) <= 143_284  # 141 * 1,001 + 141 + 2 * 1,001

    def test_memory_per_row_is_flat(self, tmp_path):
        # the rows are evaluated and formatted one kernel window at a time, and no table is built:
        # 0.1 B a row here, where the whole (rows, 3) table took 28 B.  The first call imports the
        # float-text module, which would count as rows
        def peak_bytes(t_max):
            tracemalloc.start()
            try:
                argv = ["contour", "--kappa-range", "4:8:2", "--t-max", t_max, "--dt", "0.001"]
                assert cli.main(argv + ["--out", str(tmp_path / "contour.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes("0.1")
        assert (peak_bytes("80") - peak_bytes("20")) / 120_000 <= 1  # 160,002 and 40,002 rows


class TestTimeAxis:
    def test_evolve_propagates_with_the_dt_it_writes(self, monkeypatch, tmp_path):
        steps = []
        propagate = cli.expm_trajectory

        def recorded(gen, v0, grid):
            steps.append(grid.step)
            return propagate(gen, v0, grid)

        monkeypatch.setattr(cli, "expm_trajectory", recorded)
        out = tmp_path / "evolve.csv"
        assert cli.main(["evolve", "--kappa", "4", "--dt", "0.1", "--t-max", "0.3", "--out", str(out)]) == 0
        assert steps == [0.1]  # the state and the probe, as two columns of one call
        assert column(*read_csv(out), "t") == [0.0, 0.1, 0.2, 0.1 * 3]

    @pytest.mark.parametrize("argv", [
        ["evolve", "--kappa", "4", "--t-max", "0.001"],
        ["contour", "--kappa-range", "4:8:2", "--t-max", "0.001"],
        ["evolve", "--kappa", "4", "--t-max", "0"],
        ["contour", "--kappa-range", "4:8:2", "--t-max", "0"],
    ])
    def test_t_max_below_dt_writes_the_single_time_zero(self, argv, tmp_path):
        out = tmp_path / "one.csv"
        assert cli.main([*argv, "--dt", "0.01", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        times = column(header, rows, "t")
        assert times == [0.0] * len(times)
        assert len(rows) == (2 if argv[0] == "contour" else 1)


class TestBlp:
    def test_sweep_with_sentinel_and_monotonicity(self, tmp_path):
        out = tmp_path / "blp.csv"
        code = cli.main(
            ["blp", "--kappa-range", "0:8:5", "--pairs", "4", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.BLP_COLUMNS
        assert column(header, rows, "kappa") == [0, 2, 4, 6, 8]
        assert rows[0][header.index("blp_analytic")] == "inf"
        assert rows[0][header.index("blp_numeric")] == "inf"
        analytic = column(header, rows, "blp_analytic")[1:]
        assert analytic[0] > analytic[1] > analytic[2] > analytic[3]
        assert analytic[-1] == 0.0
        gaps = column(header, rows, "abs_gap")[1:]
        assert max(gaps) <= 1e-3

    def test_json_sentinel_string(self, tmp_path):
        out = tmp_path / "blp.json"
        assert cli.main(["blp", "--kappa-range", "0:4:2", "--pairs", "0",
                         "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["records"][0]["blp_analytic"] == "infinite"
        assert isinstance(payload["records"][1]["blp_analytic"], float)

    def test_subnormal_kappa_writes_the_sentinel(self, tmp_path):
        out = tmp_path / "blp.csv"
        assert cli.main(["blp", "--kappa-range", "0:5e-324:2", "--pairs", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert column(header, rows, "kappa") == [0.0, 5e-324]
        for row in rows:
            assert row[1:] == ["inf", "inf", "inf", "0"]

    def test_scan_over_point_budget_is_a_validation_error(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            # the scan lays its grids end to end with np.cumsum before it reads the first window
            raise AssertionError("grid allocated")

        out = tmp_path / "blp.csv"
        monkeypatch.setattr(np, "cumsum", refuse)
        assert cli.main(["blp", "--kappa-range", "0:2e-6:3", "--out", str(out)]) == 1
        assert "blp_tail_bound" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_max,points", [("1e160", "1e+162"), ("1e308", "inf")])
    def test_scan_refusal_states_a_short_point_count(self, t_max, points, capsys):
        assert cli.main(["blp", "--kappa-range", "4:6:2", "--t-max", t_max]) == 1
        err = capsys.readouterr().err
        assert f" takes {points} grid points, over the limit of " in err
        assert len(err) < 250

    def test_seeded_determinism(self, tmp_path):
        args = ["blp", "--kappa-range", "2:6:3", "--pairs", "8", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_horizon_override(self, tmp_path):
        out = tmp_path / "blp.csv"
        assert cli.main(["blp", "--kappa-range", "4:6:2", "--t-max", "3",
                         "--pairs", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        # horizon 3 covers only the first window at kappa = 4
        assert column(header, rows, "intervals_used", int)[0] == 1

    def test_sweep_over_the_row_limit_is_refused_before_allocating(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep allocated")

        out = tmp_path / "blp.csv"
        monkeypatch.setattr(np, "linspace", refuse)
        assert cli.main(["blp", "--kappa-range", "0:8:10000000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"limit of {cli.MAX_ROWS}" in err
        assert not out.exists()

    def test_pairs_over_the_limit_are_refused(self, tmp_path, capsys):
        out = tmp_path / "blp.csv"
        assert cli.main(["blp", "--pairs", str(MAX_PAIRS + 1), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_PAIRS) in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["blp", "contour"])
    def test_omitted_step_count_is_two(self, name, tmp_path):
        out = tmp_path / "out.csv"
        argv = [name, "--kappa-range", "4:6", "--t-max", "1", "--out", str(out)]
        if name == "contour":
            argv += ["--dt", "1"]
        assert cli.main(argv) == 0
        header, rows = read_csv(out)
        assert sorted(set(column(header, rows, "kappa"))) == [4.0, 6.0]

    def test_small_coupling_scan_is_refused_not_zero(self, capsys, tmp_path):
        # kappa/(8|xi|) = 5e-5 and 1e-4 are underdamped at any scale; the scan
        # for the tail is too long and must say so rather than write 0
        out = tmp_path / "blp.csv"
        argv = ["blp", "--xi", "1e-5", "--kappa-range", "4e-9:8e-9:2", "--pairs", "0"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"over the limit of {MAX_SCAN_POINTS}" in err
        assert not out.exists()

    def test_small_coupling_scans_as_the_unit_coupling(self, tmp_path):
        # the grid step is at most max(0.01, 0.0025/|xi|) apart, so xi = 1e-5 scans the kappa/xi
        # ratios of xi = 1 on a grid of the same shape, where a cap of 0.01 took 1.12e9 points
        tables = []
        for xi, kappa_hi in (("1", "8"), ("1e-5", "8e-5")):
            out = tmp_path / f"blp-{xi}.csv"
            assert cli.main(["blp", "--xi", xi, "--kappa-range", f"0:{kappa_hi}:17", "--pairs", "0", "--out", str(out)]) == 0
            header, rows = read_csv(out)
            tables.append((column(header, rows, "intervals_used", int), column(header, rows, "blp_numeric")))
        (counts, unit), (small_counts, small) = tables
        assert small_counts == counts and max(counts) == 71
        assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(small, unit))

    def test_window_count_beyond_the_float_range_is_refused(self, capsys, tmp_path):
        # at kappa = 1e-300 the default horizon's window count log(1e6)*r/(kappa*pi) is inf
        out = tmp_path / "blp.csv"
        assert cli.main(["blp", "--xi", "3e7", "--kappa-range", "1e-300:1:3", "--pairs", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1e309 increase windows" in err
        assert not out.exists()


class TestThreshold:
    def test_scaling_with_coupling(self, tmp_path, capsys):
        out = tmp_path / "threshold.csv"
        code = cli.main(["threshold", "--xi", "2", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "kappa*" in captured
        header, rows = read_csv(out)
        assert header == cli.THRESHOLD_COLUMNS
        star = column(header, rows, "kappa_star")[0]
        assert star == pytest.approx(16.0, abs=1e-6)
        assert column(header, rows, "abs_dev_from_8xi")[0] <= 1e-6

    @pytest.mark.parametrize("xi,expected", [("0.25", 2.0), ("1", 8.0)])
    def test_small_couplings(self, xi, expected, capsys):
        assert cli.main(["threshold", "--xi", xi]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert float(line.split("=")[1]) == pytest.approx(expected, abs=1e-6)

    def test_explicit_bracket(self, capsys):
        assert cli.main(["threshold", "--xi", "1", "--kappa-range", "1:20"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert float(line.split("=")[1]) == pytest.approx(8.0, abs=1e-6)

    def test_invalid_bracket(self, capsys):
        assert cli.main(["threshold", "--xi", "1", "--kappa-range", "9:20"]) == 1

    def test_step_count_is_rejected(self, capsys):
        # the bisection reads no step count, so one given is an error, not ignored
        assert cli.main(["threshold", "--xi", "2", "--kappa-range", "8:40:999"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_zero_coupling_rejected(self):
        assert cli.main(["threshold", "--xi", "0"]) == 1

    @pytest.mark.usefixtures("alarm")
    @pytest.mark.parametrize("argv", [["--xi", "1e10"], ["--tol", "1e-20"]])
    def test_tol_below_one_ulp_terminates(self, argv, capsys):
        assert cli.main(["threshold"] + argv) == 0
        assert capsys.readouterr().out.startswith("kappa* = ")

    @pytest.mark.usefixtures("alarm")
    @pytest.mark.parametrize("xi", ["1e74", "1.25e74"])
    def test_default_bracket_stays_inside_max_rate(self, xi, tmp_path):
        # 20|xi| exceeds MAX_RATE here, but the threshold 8|xi| does not
        out = tmp_path / "threshold.csv"
        assert cli.main(["threshold", "--xi", xi, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        star = column(header, rows, "kappa_star")[0]
        assert abs(star - 8.0 * float(xi)) <= max(1e-6, 2 * math.ulp(8.0 * float(xi)))


class TestVerify:
    @staticmethod
    def _stub(passed_flags):
        return [
            CheckResult(name=f"check_{i}", passed=flag, detail="stub", seconds=0.0, budget=1.0)
            for i, flag in enumerate(passed_flags)
        ]

    def test_all_pass_exit_zero(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(acceptance, "run_acceptance", lambda tol, seed: self._stub([True, True]))
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "2/2 checks passed" in text
        header, rows = read_csv(out)
        assert column(header, rows, "passed", int) == [1, 1]

    def test_failure_exit_three_and_named(self, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "run_acceptance", lambda tol, seed: self._stub([True, False]))
        assert cli.main(["verify"]) == 3
        text = capsys.readouterr().out
        assert "check_1" in text and "FAIL" in text

    def test_tol_is_forwarded(self, monkeypatch):
        seen = {}

        def fake(tol, seed):
            seen["tol"] = tol
            return self._stub([True])

        monkeypatch.setattr(acceptance, "run_acceptance", fake)
        assert cli.main(["verify", "--tol", "1e-2"]) == 0
        assert seen["tol"] == pytest.approx(1e-2)

    def test_out_rows_read_back_as_four_fields(self, capsys, tmp_path):
        # threshold_reproduction and conservation details hold commas
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()[:-1]
        with open(out, newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["check", "passed", "seconds", "detail"]
        assert [len(row) for row in rows] == [4] * len(printed)
        assert [row[3] for row in rows] == [line.split("]  ", 1)[1] for line in printed]
        assert any("," in row[3] for row in rows)


class TestEntry:
    @pytest.mark.parametrize(
        "argv, code", [(["threshold", "--xi", "0"], 1), (["threshold", "--xi", "2", "--kappa-range", "8:40", "--tol", "1e-6"], 0)]
    )
    def test_exits_with_the_code_of_main(self, argv, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["qubitbath", *argv])
        with pytest.raises(SystemExit) as raised:
            cli.entry()
        assert raised.value.code == code


class TestRowBudget:
    def test_non_finite_step_count(self, capsys):
        assert cli.main(["evolve", "--kappa", "1", "--t-max", "1e300", "--dt", "1e-10"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--kappa", "1", "--t-max", "1000", "--dt", "1e-5"],  # 1e8 + 1 rows
            ["contour", "--t-max", "1000", "--dt", "0.01"],  # 100001 times x 141 kappas
        ],
    )
    def test_over_budget_is_rejected(self, argv, capsys):
        assert cli.main(argv) == 1
        assert f"exceed the limit of {cli.MAX_ROWS}" in capsys.readouterr().err

    def test_budget_edge(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "MAX_ROWS", 12)
        out = str(tmp_path / "out.csv")
        assert cli.main(["evolve", "--kappa", "1", "--t-max", "0.11", "--dt", "0.01", "--out", out]) == 0
        assert len(read_csv(pathlib.Path(out))[1]) == 12
        assert cli.main(["evolve", "--kappa", "1", "--t-max", "0.12", "--dt", "0.01", "--out", out]) == 1
        # contour counts time points x kappa steps
        assert cli.main(["contour", "--kappa-range", "0:1:6", "--t-max", "0.01", "--dt", "0.01", "--out", out]) == 0
        assert len(read_csv(pathlib.Path(out))[1]) == 12
        assert cli.main(["contour", "--kappa-range", "0:1:7", "--t-max", "0.01", "--dt", "0.01", "--out", out]) == 1


class TestTimeLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--kappa", "4", "--t-max", "1e160", "--dt", "1e158"],
            ["contour", "--kappa-range", "0:14:3", "--t-max", "1e160", "--dt", "1e158"],
        ],
    )
    def test_times_above_max_time_are_rejected(self, argv, capsys, tmp_path):
        # (t/4)**2 overflows above t ~ 5e154; such times are refused, not written as nan
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "MAX_TIME" in capsys.readouterr().err
        assert not out.exists()


class TestRateLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--xi", "1e155", "--kappa", "1"],
            ["threshold", "--xi", "5e306"],
            ["blp", "--xi", "1e200", "--kappa-range", "1:2:2"],
        ],
    )
    def test_rates_above_max_rate_are_rejected(self, argv, capsys):
        # the discriminant kappa**2 - 64*xi**2 overflowed here (OverflowError)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MAX_RATE" in err


    def test_coupling_below_min_rate_is_rejected(self, capsys):
        # xi**2 is subnormal here; the closed-form measure (about 1e30) was written as 0 with exit 0
        assert cli.main(["blp", "--xi", "1e-170", "--kappa-range", "1e-201:1e-200:2", "--pairs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MIN_RATE" in err


class TestParsing:
    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_kappa_range(self):
        assert cli.main(["contour", "--kappa-range", "5:1:3"]) == 1
        assert cli.main(["contour", "--kappa-range", "abc"]) == 1

    def test_bad_format_rejected_by_parser(self):
        assert cli.main(["evolve", "--kappa", "1", "--format", "yaml"]) == 1

    def test_nonpositive_dt(self):
        assert cli.main(["evolve", "--kappa", "1", "--dt", "0"]) == 1

    def test_non_finite_xi(self):
        assert cli.main(["evolve", "--kappa", "1", "--xi", "nan"]) == 1


# The flags each subcommand reads, written out here rather than read from
# cli.SUBCOMMANDS, so that a change to the table has to be made twice.
READS = {
    "evolve": {"xi", "kappa", "t-max", "dt", "bloch", "format", "out"},
    "contour": {"xi", "kappa-range", "t-max", "dt", "format", "out"},
    "blp": {"xi", "kappa-range", "t-max", "pairs", "seed", "format", "out"},
    "threshold": {"xi", "kappa-range", "tol", "format", "out"},
    "verify": {"tol", "seed", "format", "out"},
}
VALID_VALUE = {
    "xi": "1", "kappa": "4", "kappa-range": "0:8:3", "t-max": "1", "dt": "0.1",
    "bloch": "0,0,1", "pairs": "2", "seed": "1", "tol": "1e-3", "format": "json",
    "out": "unused.csv",
}
FOREIGN = [
    (name, flag) for name, flags in READS.items() for flag in sorted(set(VALID_VALUE) - flags)
]

README_COMMANDS = [
    "evolve --xi 1 --kappa 8 --bloch 0,0,1 --t-max 10 --dt 0.01 --out traj.csv",
    "contour --xi 1 --kappa-range 0:14:141 --t-max 10 --dt 0.01 --out contour.csv",
    "blp --xi 1 --kappa-range 0:8:17 --pairs 16 --seed 0 --out blp.csv",
    "threshold --xi 2 --kappa-range 8:40 --tol 1e-6",
    "verify",
    "verify --tol 1e-2 --out report.csv",
]


class TestFlagsPerSubcommand:
    def test_table_registers_29_flags(self):
        assert {name: set(flags) for name, (_, flags) in cli.SUBCOMMANDS.items()} == READS
        assert sum(map(len, READS.values())) == 29

    @pytest.mark.parametrize("name,flag", FOREIGN)
    def test_unread_flag_is_rejected(self, name, flag, capsys):
        required = ["--kappa", "4"] if name == "evolve" else []
        assert cli.main([name, *required, f"--{flag}", VALID_VALUE[flag]]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["threshold", "verify"])
    def test_format_without_out_is_rejected(self, name, capsys):
        assert cli.main([name, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "--out" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["threshold", "verify"])
    def test_format_with_out_is_written(self, name, tmp_path, monkeypatch):
        fake = [CheckResult("fake", True, "ok", 0.5, 1.0)]
        monkeypatch.setattr(acceptance, "run_acceptance", lambda tol, seed: fake)
        out = tmp_path / "data.json"
        assert cli.main([name, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["records"]

    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_readme_command_parses(self, command):
        args = cli.build_parser().parse_args(command.split())
        assert args.handler is cli.SUBCOMMANDS[command.split()[0]][0]

    def test_benchmark_argvs_parse(self, monkeypatch):
        perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))  # run.py imports its sibling checks.py
        spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up
        spec.loader.exec_module(run)
        for workload in run.WORKLOADS.values():
            for small in (False, True):
                argv, _ = workload.make(random.Random(3), 3, small)
                cli.build_parser().parse_args(argv + ["--out", "unused"])
