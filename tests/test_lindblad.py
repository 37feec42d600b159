import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitbath.acceptance import reference_generator_matrix
from qubitbath.errors import NumericsError, ValidationError
from qubitbath.lindblad import (
    COOLING_PART,
    MAX_RATE,
    ModelParams,
    TimeGrid,
    build_generator,
    expm_trajectory,
)
from qubitbath.operator_space import (
    BATH_EXCITED,
    BATH_GROUND,
    PAULIS,
    coherence4,
    initial_joint_vector,
    vectorize2q,
)
from qubitbath.oracles import (
    bath_dissipator_matrix,
    bath_propagator,
    coherence4_to_bloch,
    devectorize2q,
    evolve_expm,
    evolve_ode,
    partial_trace_bath,
)

xi_values = st.floats(-3.0, 3.0, allow_nan=False)
kappa_values = st.floats(0.0, 20.0, allow_nan=False)


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
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ValidationError):
            TimeGrid(-1.0, 1.0, 10)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 1)


class TestEvolveOde:
    def test_critical_matches_closed_form(self):
        params = ModelParams(1.0, 8.0)
        grid = TimeGrid(0.0, 10.0, 101)
        traj = evolve_ode(build_generator(params), initial_joint_vector((0, 0, 1)), grid)
        times = grid.times()
        expected = np.exp(-2 * times) * (1 + 2 * times)
        z = 4.0 * traj[:, 12]
        assert np.abs(z - expected).max() <= 1e-8

    def test_zero_generator_constant_trajectory(self):
        gen = build_generator(ModelParams(0.0, 0.0))
        v0 = initial_joint_vector((0.5, 0.1, -0.2))
        traj = evolve_ode(gen, v0, TimeGrid(0.0, 5.0, 11))
        assert np.abs(traj - v0).max() == 0.0

    def test_underdamped_matches_branch_formula(self):
        params = ModelParams(1.0, 4.0)
        grid = TimeGrid(0.0, 10.0, 101)
        traj = evolve_ode(build_generator(params), initial_joint_vector((0, 0, 1)), grid)
        z = 4.0 * traj[:, 12]
        expected = [underdamped_factor(1.0, 4.0, t) for t in grid.times()]
        assert np.abs(z - expected).max() <= 1e-8

    @pytest.mark.parametrize("params", [ModelParams(1, 16), ModelParams(1, 8), ModelParams(1, 4)])
    def test_adaptive_agrees_with_expm_all_regimes(self, params):
        gen = build_generator(params)
        v0 = initial_joint_vector((0.3, 0.5, -0.4))
        grid = TimeGrid(0.0, 20.0, 41)
        ode = evolve_ode(gen, v0, grid, atol=1e-10)
        exact = expm_trajectory(gen, v0, grid)
        assert np.abs(ode - exact).max() <= 1e-8

    def test_step_underflow_raises_with_time(self):
        gen = build_generator(ModelParams(1.0, 4.0))
        with pytest.raises(NumericsError, match="underflow at t="):
            evolve_ode(
                gen,
                initial_joint_vector((0, 0, 1)),
                TimeGrid(0.0, 1.0, 3),
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
        grid = TimeGrid(0.0, 4.0, 9)
        traj = expm_trajectory(gen, v0, grid)
        for k, t in enumerate(grid.times()):
            assert traj[k] == pytest.approx(evolve_expm(gen, v0, t), abs=1e-11)
