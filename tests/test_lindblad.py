import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitbath.cli as cli
from qubitbath.acceptance import reference_generator_matrix
from qubitbath.analytic import REGIME_TOL, coherence_factor
from qubitbath.errors import NumericsError, ValidationError
from qubitbath.lindblad import (
    COOLING_PART,
    MAX_RATE,
    MIN_RATE,
    ModelParams,
    TimeGrid,
    _BLOCK,
    _expm,
    build_generator,
    expm_trajectory,
)
from qubitbath.operator_space import (
    PAULIS,
    coherence4,
    initial_joint_vector,
)
from qubitbath.oracles import (
    BATH_EXCITED,
    BATH_GROUND,
    bath_dissipator_matrix,
    bath_propagator,
    coherence4_to_bloch,
    devectorize2q,
    evolve_expm,
    evolve_ode,
    partial_trace_bath,
    vectorize2q,
)

# the accepted couplings: 0 or |xi| >= MIN_RATE
xi_values = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda xi: xi == 0.0 or abs(xi) >= MIN_RATE)
kappa_values = st.floats(0.0, 20.0, allow_nan=False)

EPS = np.finfo(float).eps


def traced_bloch_z(v):
    return coherence4_to_bloch(partial_trace_bath(v))[2]


def underdamped_factor(xi, kappa, t):
    # closed-form branch written out directly, as an independent oracle
    r = math.sqrt(64 * xi**2 - kappa**2)
    return math.exp(-kappa * t / 4) * (
        kappa * math.sin(t * r / 4) / r + math.cos(t * r / 4)
    )


class TestModelParams:
    def test_rejects_negative_kappa(self):
        with pytest.raises(ValidationError):
            ModelParams(1.0, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ModelParams(math.nan, 1.0)
        with pytest.raises(ValidationError):
            ModelParams(1.0, math.inf)

    def test_rates_bounded_by_max_rate(self):
        # the threshold line kappa = 8|xi| stays admitted up to the bound
        ModelParams(MAX_RATE / 8.0, MAX_RATE)
        for xi, kappa in ((np.nextafter(MAX_RATE / 8.0, math.inf), 0.0), (0.0, 2.0 * MAX_RATE), (1e155, 1.0)):
            with pytest.raises(ValidationError, match="MAX_RATE"):
                ModelParams(xi, kappa)

    def test_nonzero_coupling_bounded_below_by_min_rate(self):
        for xi in (MIN_RATE, -MIN_RATE, 0.0):
            ModelParams(xi, 0.0)
        for xi in (np.nextafter(MIN_RATE, 0.0), -np.nextafter(MIN_RATE, 0.0), 1e-170, 5e-324):
            with pytest.raises(ValidationError, match="MIN_RATE"):
                ModelParams(xi, 1.0)

    def test_squares_normal_at_min_rate(self):
        # 64*xi**2 and the critical band REGIME_TOL*64*xi**2 stay normal floats at the bound
        assert REGIME_TOL * 64.0 * ModelParams(MIN_RATE, 0.0).xi ** 2 >= sys.float_info.min

    def test_negative_xi_allowed(self):
        assert ModelParams(-2.0, 1.0).discriminant == pytest.approx(1 - 256)


class TestGenerator:
    @given(xi_values, kappa_values)
    @settings(max_examples=40)
    def test_matches_published_table_exactly(self, xi, kappa):
        built = build_generator(ModelParams(xi, kappa))
        assert np.array_equal(built, reference_generator_matrix(xi, kappa))

    def test_zero_params_give_zero_generator(self):
        assert np.array_equal(build_generator(ModelParams(0.0, 0.0)), np.zeros((16, 16)))

    @given(xi_values, kappa_values)
    @settings(max_examples=20)
    def test_linear_split(self, xi, kappa):
        full = build_generator(ModelParams(xi, kappa))
        coupling_only = build_generator(ModelParams(xi, 0.0))
        assert np.array_equal(full, coupling_only + kappa * COOLING_PART)

    @given(xi_values, kappa_values)
    @settings(max_examples=20)
    def test_entries_from_allowed_set(self, xi, kappa):
        m = build_generator(ModelParams(xi, kappa))
        allowed = {0.0, 2 * xi, -2 * xi, -kappa / 2, -kappa}
        assert set(np.unique(m)) <= allowed
        assert np.array_equal(m[0], np.zeros(16))

    def test_generator_is_read_only(self):
        gen = build_generator(ModelParams(1.0, 2.0))
        with pytest.raises(ValueError):
            gen[0, 0] = 1.0


class TestDissipatorAction:
    def test_ground_product_state_is_dark(self):
        v = initial_joint_vector((0.3, 0.2, -0.5))
        assert COOLING_PART @ v == pytest.approx(np.zeros(16), abs=1e-15)

    def test_transverse_bath_component_halves(self):
        rho_s = np.eye(2) / 2
        v = vectorize2q(np.kron(rho_s, PAULIS[1]))  # rho_S (x) sigma_x
        assert COOLING_PART @ v == pytest.approx(-0.5 * v, abs=1e-15)

    def test_excited_bath_state_decays_to_ground(self):
        rho_s = np.eye(2) / 2
        excited = np.outer(BATH_EXCITED, BATH_EXCITED.conj())
        ground = np.outer(BATH_GROUND, BATH_GROUND.conj())
        v = vectorize2q(np.kron(rho_s, excited))
        expected = vectorize2q(np.kron(rho_s, ground - excited))
        assert COOLING_PART @ v == pytest.approx(expected, abs=1e-15)

    @given(xi_values, st.floats(0.01, 20.0, allow_nan=False))
    @settings(max_examples=20)
    def test_kappa_times_action_is_pure_cooling_generator(self, xi, kappa):
        v = initial_joint_vector((0.1, -0.2, 0.3)) + 0.01 * np.arange(16)
        m = build_generator(ModelParams(xi, kappa))
        m0 = build_generator(ModelParams(xi, 0.0))
        assert (m - m0) @ v == pytest.approx(kappa * COOLING_PART @ v, abs=1e-13)


class TestEvolveExpm:
    def test_identity_at_t_zero(self):
        gen = build_generator(ModelParams(1.3, 2.1))
        v0 = initial_joint_vector((0.1, 0.2, 0.3))
        assert np.array_equal(evolve_expm(gen, v0, 0.0), v0)
        for n in (4, 16):
            assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))

    def test_rejects_negative_time(self):
        gen = build_generator(ModelParams(1.0, 1.0))
        with pytest.raises(ValidationError):
            evolve_expm(gen, initial_joint_vector((0, 0, 1)), -0.1)

    @given(xi_values, kappa_values, st.floats(0.0, 5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_expm(self, xi, kappa, t):
        gen = build_generator(ModelParams(xi, kappa))
        v0 = initial_joint_vector((0.3, -0.3, 0.5))
        ours = evolve_expm(gen, v0, t)
        reference = scipy.linalg.expm(gen * t) @ v0
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_undamped_oscillation(self):
        gen = build_generator(ModelParams(1.0, 0.0))
        v0 = initial_joint_vector((0.0, 0.0, 1.0))
        for t in (0.3, 1.0, 2.5):
            assert traced_bloch_z(evolve_expm(gen, v0, t)) == pytest.approx(
                math.cos(2 * t), abs=1e-12
            )

    def test_overdamped_frozen_value(self):
        # closed-form value computed independently before the build
        gen = build_generator(ModelParams(1.0, 16.0))
        v = evolve_expm(gen, initial_joint_vector((0.0, 0.0, 1.0)), 1.0)
        assert traced_bloch_z(v) == pytest.approx(0.6303600222780176, abs=1e-12)


class TestTimeGrid:
    def test_validation(self):
        for step, num in [(0.0, 10), (-0.1, 10), (math.inf, 10), (0.1, 0)]:
            with pytest.raises(ValidationError):
                TimeGrid(step, num)
        for step, num in [(0.1, 4), (0.3, 1), (20.0 / 1999, 2000)]:
            assert np.array_equal(TimeGrid(step, num).times(), step * np.arange(num))
        # the acceptance oracle's grid is linspace(0, 20, 2000), and bath_correlation's
        # linspace(0, 10, 201), bit for bit
        assert np.array_equal(TimeGrid(20.0 / 1999, 2000).times(), np.linspace(0.0, 20.0, 2000))
        assert np.array_equal(TimeGrid(0.05, 201).times(), np.linspace(0.0, 10.0, 201))


class TestEvolveOde:
    def test_critical_matches_closed_form(self):
        params = ModelParams(1.0, 8.0)
        grid = TimeGrid(0.1, 101)
        traj = evolve_ode(build_generator(params), initial_joint_vector((0, 0, 1)), grid)
        times = grid.times()
        expected = np.exp(-2 * times) * (1 + 2 * times)
        z = 4.0 * traj[:, 12]
        assert np.abs(z - expected).max() <= 1e-8

    def test_zero_generator_constant_trajectory(self):
        gen = build_generator(ModelParams(0.0, 0.0))
        v0 = initial_joint_vector((0.5, 0.1, -0.2))
        traj = evolve_ode(gen, v0, TimeGrid(0.5, 11))
        assert np.abs(traj - v0).max() == 0.0

    def test_underdamped_matches_branch_formula(self):
        params = ModelParams(1.0, 4.0)
        grid = TimeGrid(0.1, 101)
        traj = evolve_ode(build_generator(params), initial_joint_vector((0, 0, 1)), grid)
        z = 4.0 * traj[:, 12]
        expected = [underdamped_factor(1.0, 4.0, t) for t in grid.times()]
        assert np.abs(z - expected).max() <= 1e-8

    @pytest.mark.parametrize("params", [ModelParams(1, 16), ModelParams(1, 8), ModelParams(1, 4)])
    def test_adaptive_agrees_with_expm_all_regimes(self, params):
        gen = build_generator(params)
        v0 = initial_joint_vector((0.3, 0.5, -0.4))
        grid = TimeGrid(0.5, 41)
        ode = evolve_ode(gen, v0, grid, atol=1e-10)
        exact = expm_trajectory(gen, v0, grid)
        assert np.abs(ode - exact).max() <= 1e-8

    def test_step_underflow_raises_with_time(self):
        gen = build_generator(ModelParams(1.0, 4.0))
        with pytest.raises(NumericsError, match="underflow at t="):
            evolve_ode(
                gen,
                initial_joint_vector((0, 0, 1)),
                TimeGrid(0.5, 3),
                atol=1e-300,
            )


class TestConservationLaws:
    @given(
        st.floats(-0.5, 0.5, allow_nan=False),
        st.floats(-0.5, 0.5, allow_nan=False),
        st.floats(-0.5, 0.5, allow_nan=False),
        xi_values,
        kappa_values,
    )
    @settings(max_examples=15, deadline=None)
    def test_trace_positivity_x_conservation(self, x0, y0, z0, xi, kappa):
        gen = build_generator(ModelParams(xi, kappa))
        v0 = initial_joint_vector((x0, y0, z0))
        for t in (0.5, 2.0, 9.0):
            v = evolve_expm(gen, v0, t)
            rho = devectorize2q(v)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert v[0] == pytest.approx(0.25, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10
            x_t = coherence4_to_bloch(partial_trace_bath(v))[0]
            assert x_t == pytest.approx(x0, abs=1e-10)


class TestBathPropagator:
    def test_sigma_x_decay(self):
        coeffs = coherence4(PAULIS[1]).real
        for kappa, tau in [(0.5, 1.0), (2.0, 3.0), (8.0, 0.25)]:
            out = bath_propagator(kappa, tau, coeffs)
            assert out == pytest.approx(math.exp(-kappa * tau / 2) * coeffs, abs=1e-15)

    def test_ground_state_fixed_point(self):
        ground = coherence4(np.outer(BATH_GROUND, BATH_GROUND.conj())).real
        out = bath_propagator(3.0, 7.0, ground)
        assert out == pytest.approx(ground, abs=1e-15)

    def test_excited_state_populations(self):
        excited = coherence4(np.outer(BATH_EXCITED, BATH_EXCITED.conj())).real
        kappa, tau = 1.5, 0.8
        w, _, _, z = bath_propagator(kappa, tau, excited)
        p_excited = w + z  # <1|rho|1> for the sigma_z = +1 excited state
        p_ground = w - z
        assert p_excited == pytest.approx(math.exp(-kappa * tau), abs=1e-15)
        assert p_ground == pytest.approx(1 - math.exp(-kappa * tau), abs=1e-15)

    @given(
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=25)
    def test_semigroup_property(self, kappa, t1, t2):
        coeffs = np.array([0.5, 0.1, -0.2, 0.4])
        once = bath_propagator(kappa, t1 + t2, coeffs)
        twice = bath_propagator(kappa, t2, bath_propagator(kappa, t1, coeffs))
        assert once == pytest.approx(twice, abs=1e-12)

    def test_matches_matrix_exponential_route(self):
        kappa, tau = 2.0, 1.3
        coeffs = np.array([0.5, 0.3, -0.1, 0.2])
        direct = bath_propagator(kappa, tau, coeffs)
        via_expm = scipy.linalg.expm(bath_dissipator_matrix(kappa) * tau) @ coeffs
        assert direct == pytest.approx(via_expm, abs=1e-13)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValidationError):
            bath_propagator(-1.0, 1.0, np.zeros(4))
        with pytest.raises(ValidationError):
            bath_propagator(1.0, -1.0, np.zeros(4))


class TestExpmTrajectory:
    def test_matches_pointwise_expm(self):
        gen = build_generator(ModelParams(0.8, 5.0))
        v0 = initial_joint_vector((0.1, 0.6, -0.3))
        grid = TimeGrid(0.5, 9)
        traj = expm_trajectory(gen, v0, grid)
        for k, t in enumerate(grid.times()):
            assert traj[k] == pytest.approx(evolve_expm(gen, v0, t), abs=1e-11)

    @pytest.mark.parametrize("num", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2001])
    @pytest.mark.parametrize("xi,kappa,step", [(1.0, 4.0, 0.002), (0.37, 11.0, 0.05)])
    def test_matches_a_matmul_loop_to_rounding(self, xi, kappa, step, num):
        # The loop rounds one 16-term product per step, the blocked route one per power and
        # row; each rounding is at most 16u*||P||*max|v| (u = eps/2), and ||P||, ||P^m|| <= 1.5
        # here. So row k of the two routes differs by at most C*k*eps*max|v| with
        # C = 2 * 8 * 1.5 * 1.5 = 36; the largest seen on these grids is k*eps*max|v|/3.
        gen = build_generator(ModelParams(xi, kappa))
        v0 = initial_joint_vector((0.3, -0.4, 0.5))
        step_prop = _expm(gen * step)
        expected = [np.array(v0, dtype=float)]
        for _ in range(num - 1):
            expected.append(step_prop @ expected[-1])
        expected = np.array(expected)
        traj = expm_trajectory(gen, v0, TimeGrid(step, num))
        assert np.array_equal(traj[0], v0)
        k = np.arange(num)[:, None]
        assert (np.abs(traj - expected) <= 36 * k * EPS * np.abs(expected).max()).all()

    @pytest.mark.parametrize("num", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2001])
    def test_columns_equal_one_column_calls(self, num):
        # cmd_evolve propagates its state and probe as the two columns of one call. A
        # (B*16, 16) @ (16, 2) product may sum a row in another order than (B*16, 16) @ (16,),
        # so a column matches its one-column call to rounding (the bound of
        # test_matches_a_matmul_loop_to_rounding); every row of every power has two nonzero
        # terms at the coefficients evolve writes, 4, 8 and 12, so those match bit for bit
        gen = build_generator(ModelParams(1.0, 4.0))
        grid = TimeGrid(0.002, num)
        state, probe = initial_joint_vector((0.3, -0.4, 0.5)), initial_joint_vector((0.0, 0.0, 1.0))
        both = expm_trajectory(gen, np.column_stack([state, probe]), grid)
        assert both.shape == (num, 16, 2)
        k = np.arange(num)[:, None]
        for column, v0 in enumerate((state, probe)):
            alone = expm_trajectory(gen, v0, grid)
            assert np.array_equal(both[:, [4, 8, 12], column], alone[:, [4, 8, 12]])
            assert (np.abs(both[:, :, column] - alone) <= 36 * k * EPS * np.abs(alone).max()).all()

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 8.0, 40.0])
    def test_bath_generator_matches_the_closed_form(self, kappa):
        # the 4x4 route of verify's bath_correlation, two operators as columns; within the
        # per-row bound of test_matches_a_matmul_loop_to_rounding (largest ratio seen 2.5)
        v0 = np.array([[0.5, 0.25], [0.3, -0.2], [-0.1, 0.4], [0.2, -0.25]])
        grid = TimeGrid(0.05, 201)
        traj = expm_trajectory(bath_dissipator_matrix(kappa), v0, grid)
        expected = np.array([[bath_propagator(kappa, t, column) for column in v0.T] for t in grid.times()])
        k = np.arange(grid.num)[:, None, None]
        assert (np.abs(traj - expected.transpose(0, 2, 1)) <= 36 * (k + 1) * EPS * np.abs(v0).max()).all()

    def test_evolve_chunks_equal_one_trajectory(self, monkeypatch):
        # cmd_evolve propagates _CHUNK_ROWS steps at a time, each chunk from the last state
        # of the one before; the 20,001 rows span three chunks, and the blocks of rows line
        # up with one call's because _BLOCK divides _CHUNK_ROWS; the streamed blocks are views of
        # one buffer that the next block refills, so each is copied as it arrives
        tables = []
        monkeypatch.setattr(cli, "write_records", lambda *args: tables.append(np.concatenate([block.copy() for block in args[3]])))
        argv = ["evolve", "--xi", "1", "--kappa", "4", "--bloch=0.3,-0.2,0.5", "--t-max", "40", "--dt", "0.002"]
        assert cli.main(argv) == 0
        (table,) = tables
        grid = TimeGrid(0.002, 20_001)
        assert len(table) == grid.num > 2 * cli._CHUNK_ROWS
        assert cli._CHUNK_ROWS % _BLOCK == 0
        gen = build_generator(ModelParams(1.0, 4.0))
        traj = expm_trajectory(gen, initial_joint_vector((0.3, -0.2, 0.5)), grid)
        probe_traj = expm_trajectory(gen, initial_joint_vector((0.0, 0.0, 1.0)), grid)
        assert np.array_equal(table[:, 1:4], 4.0 * traj[:, [4, 8, 12]])
        assert np.array_equal(table[:, 5], 4.0 * probe_traj[:, 12])

    def test_non_finite_input_raises(self):
        v0 = initial_joint_vector((0.3, -0.4, 0.5))
        for bad in (math.nan, math.inf, -math.inf):
            gen = build_generator(ModelParams(1.0, 4.0)).copy()
            gen[3, 5] = bad
            with pytest.raises(NumericsError, match="non-finite generator"):
                expm_trajectory(gen, v0, TimeGrid(0.01, 200))
        v0[7] = np.nan
        with pytest.raises(NumericsError, match="non-finite state"):
            expm_trajectory(build_generator(ModelParams(1.0, 4.0)), v0, TimeGrid(0.01, 200))


class TestStackedExpm:
    """expm_trajectory over m states stacked as the columns (lanes) of one (n, m) array."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_in_any_lane_raises(self, bad):
        gen = build_generator(ModelParams(1.0, 4.0))
        for lane in range(3):
            v0 = np.column_stack([initial_joint_vector(b) for b in ((0.3, -0.4, 0.5), (0, 0, 1), (1, 0, 0))])
            v0[5, lane] = bad
            with pytest.raises(NumericsError, match="non-finite state"):
                expm_trajectory(gen, v0, TimeGrid(0.01, 200))


class TestTrajectoryAccuracy:
    """The propagated probe's c = 4 v[12] against the closed form, to the rounding floor.

    Error model.  Each step multiplies by P = _expm(M h).  After s squarings
    (2**s < 4 ||Mh||, or s = 0 for ||Mh|| <= 0.5) the error of P is at most
    2**s times that of the series and squarings at the scaled size, each a
    16-term product: ||dP|| <= 16 eps max(1, 4 ||Mh||).  Each step also
    rounds one 16-term product, at most 8 eps ||P|| max|v|.  With |v| <= 1/4,
    c = 4 v[12], ||P|| <= 1.5 and every ||P^m|| <= 1.5 (the propagator's
    infinity norm over the admitted domain), the errors of num - 1 steps add
    up to at most 1.5 (64 eps ||M|| t_max + 16 eps num + 12 eps num), so
    C = 100.  The largest ratio seen over 3,000 random draws of this domain
    was 3.2 (xi = 0.88, kappa = 8395, step = 0.077, 309 points).
    """

    C = 100

    @given(
        st.sampled_from([-1.0, 1.0]),
        st.floats(-6.0, 3.0),
        st.floats(0.0, 1e4),
        st.floats(-4.0, 1.0),
        st.integers(1, 2001),
    )
    @settings(max_examples=100, deadline=None)
    def test_gap_stays_at_the_rounding_floor(self, sign, log_xi, kappa, log_step, num):
        params, grid = ModelParams(sign * 10.0**log_xi, kappa), TimeGrid(10.0**log_step, num)
        gen = build_generator(params)
        traj = expm_trajectory(gen, initial_joint_vector((0.0, 0.0, 1.0)), grid)
        gap = np.abs(4.0 * traj[:, 12] - coherence_factor(params, grid.times())).max()
        t_max = grid.step * (num - 1)
        assert gap <= self.C * EPS * (np.abs(gen).sum(axis=1).max() * t_max + num)

    def test_a_million_undamped_steps(self):
        # xi = 1, kappa = 0, dt = 0.002 up to t = 2000, propagated in cmd_evolve's chunks so
        # that one chunk is held at a time; one matvec per step left a gap of 2.08e-11
        params, step, num = ModelParams(1.0, 0.0), 0.002, 1_000_001
        gen = build_generator(params)
        state, gap = initial_joint_vector((0.0, 0.0, 1.0)), 0.0
        for start in range(0, num - 1, cli._CHUNK_ROWS):
            chunk = TimeGrid(step, min(start + cli._CHUNK_ROWS, num - 1) + 1 - start)
            traj = expm_trajectory(gen, state, chunk)
            times = step * np.arange(start, start + chunk.num)
            gap = max(gap, np.abs(4.0 * traj[:, 12] - coherence_factor(params, times)).max())
            state = traj[-1]
        assert gap <= self.C * EPS * (np.abs(gen).sum(axis=1).max() * step * (num - 1) + num)
        assert gap <= 2 * 2.08e-11
