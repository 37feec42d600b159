import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitbath.analytic import (
    MAX_TIME,
    IncreaseInterval,
    Regime,
    abs_coherence_derivative,
    bath_correlation,
    blp_analytic,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    coherence_factor_with_derivative,
    default_blp_horizon,
    has_information_backflow,
    increase_intervals,
)
from qubitbath.errors import (
    DegenerateModelError,
    PoleError,
    RegimeError,
    ValidationError,
)
from qubitbath.lindblad import ModelParams
from qubitbath.operator_space import PAULIS, coherence4
from qubitbath.oracles import (
    bath_propagator,
    coherence_factor_derivative,
    coherence_log_derivative,
    dephasing_rate,
)

xi_values = st.floats(-3.0, 3.0, allow_nan=False)
kappa_values = st.floats(0.0, 20.0, allow_nan=False)


class TestClassifyRegime:
    def test_trivial_cases(self):
        assert classify_regime(ModelParams(1, 16)) is Regime.OVERDAMPED
        assert classify_regime(ModelParams(1, 8)) is Regime.CRITICAL
        assert classify_regime(ModelParams(1, 4)) is Regime.UNDERDAMPED

    def test_tolerance_band(self):
        assert classify_regime(ModelParams(1.0, 8.0 * (1 + 1e-10))) is Regime.CRITICAL
        assert classify_regime(ModelParams(1.0, 8.0 * (1 - 1e-10))) is Regime.CRITICAL
        assert classify_regime(ModelParams(1.0, 8.1)) is Regime.OVERDAMPED

    def test_negative_xi(self):
        assert classify_regime(ModelParams(-1.0, 8.0)) is Regime.CRITICAL


class TestCoherenceFactor:
    @given(xi_values, kappa_values)
    @settings(max_examples=30)
    def test_unity_at_time_zero(self, xi, kappa):
        assert coherence_factor(ModelParams(xi, kappa), 0.0) == 1.0

    def test_undamped_cosine(self):
        params = ModelParams(1.0, 0.0)
        t = np.linspace(0, 10, 101)
        assert np.abs(coherence_factor(params, t) - np.cos(2 * t)).max() <= 1e-12

    def test_overdamped_frozen_value(self):
        assert coherence_factor(ModelParams(1.0, 16.0), 1.0) == pytest.approx(
            0.6303600222780176, abs=1e-15
        )

    def test_critical_branch(self):
        params = ModelParams(1.0, 8.0)
        t = np.linspace(0, 10, 101)
        expected = np.exp(-2 * t) * (1 + 2 * t)
        assert np.abs(coherence_factor(params, t) - expected).max() <= 1e-13

    @given(xi_values, kappa_values, st.floats(0, 20, allow_nan=False))
    @settings(max_examples=60)
    def test_bounded_by_one(self, xi, kappa, t):
        assert abs(coherence_factor(ModelParams(xi, kappa), t)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_continuity_across_critical_boundary(self, t):
        eps = 1e-10
        at_boundary = coherence_factor(ModelParams(1.0, 8.0), t)
        below = coherence_factor(ModelParams(1.0, 8.0 - eps), t)
        above = coherence_factor(ModelParams(1.0, 8.0 + eps), t)
        assert below == pytest.approx(at_boundary, abs=1e-9)
        assert above == pytest.approx(at_boundary, abs=1e-9)

    def test_long_time_overdamped_does_not_overflow(self):
        # sinh/cosh would overflow near t ~ 400 without the stable branch
        value = coherence_factor(ModelParams(1.0, 16.0), 500.0)
        assert 0 < value < 1e-100 or value == 0.0

    def test_critical_envelope_bounds_up_to_threshold(self):
        t = np.linspace(0, 20, 2001)
        for kappa in (0.0, 2.0, 4.0, 7.9, 8.0):
            params = ModelParams(1.0, kappa)
            envelope = np.exp(-kappa * t / 4) * (1 + kappa * t / 4)
            c = np.abs(coherence_factor(params, t))
            assert np.all(c <= envelope + 1e-12), f"envelope violated at kappa={kappa}"

    def test_critical_envelope_exceeded_when_overdamped(self):
        # stronger cooling slows the system decay, so above the threshold the
        # coherence factor rises above the critical-branch envelope
        t = np.linspace(0, 20, 2001)
        params = ModelParams(1.0, 12.0)
        envelope = np.exp(-params.kappa * t / 4) * (1 + params.kappa * t / 4)
        c = np.abs(coherence_factor(params, t))
        assert np.any(c > envelope + 1e-6)
        assert np.all(c <= 1.0 + 1e-12)

    @pytest.mark.parametrize("params", [ModelParams(1, 4), ModelParams(1, 8), ModelParams(1, 0), ModelParams(1, 20)])
    def test_finite_up_to_max_time_and_rejected_above(self, params):
        times = np.array([0.0, 1.0, 1e100, MAX_TIME])
        c, dc = coherence_factor_with_derivative(params, times)
        assert np.isfinite(c).all() and np.isfinite(dc).all()
        assert np.all(np.abs(c) <= 1.0)
        for t in (1e160, np.array([1.0, 1e160]), np.nextafter(MAX_TIME, math.inf)):
            with pytest.raises(ValidationError, match="MAX_TIME"):
                coherence_factor(params, t)

    @pytest.mark.parametrize("params", [ModelParams(1e5, 1.0), ModelParams(1.0, 1e6), ModelParams(1.25e74, 0.0)])
    def test_time_bound_keeps_s_finite_at_large_rates(self, params):
        # above |disc| ~ 1.6e10 the bound is 4*sqrt(1e308/|disc|), below MAX_TIME
        limit = 4.0 * math.sqrt(1e308 / abs(params.discriminant))
        assert limit < MAX_TIME
        c, dc = coherence_factor_with_derivative(params, np.array([0.0, 1.0, limit]))
        assert np.isfinite(c).all() and np.isfinite(dc).all()
        assert np.all(np.abs(c) <= 1.0)
        with pytest.raises(ValidationError, match="overflow"):
            coherence_factor(params, np.nextafter(limit, math.inf))
        with pytest.raises(ValidationError):
            coherence_factor(params, MAX_TIME)

    def test_rejects_negative_or_non_finite_time(self):
        with pytest.raises(ValidationError):
            coherence_factor(ModelParams(1, 1), -0.1)
        with pytest.raises(ValidationError):
            coherence_factor(ModelParams(1, 1), math.nan)


class TestDerivative:
    @pytest.mark.parametrize(
        "params,t",
        [
            (ModelParams(1.0, 16.0), 0.7),
            (ModelParams(1.0, 8.0), 1.3),
            (ModelParams(1.0, 4.0), 0.4),
            (ModelParams(0.5, 3.0), 2.0),
            (ModelParams(1.0, 0.0), 0.3),
        ],
    )
    def test_matches_central_difference(self, params, t):
        h = 1e-6
        numeric = (coherence_factor(params, t + h) - coherence_factor(params, t - h)) / (2 * h)
        exact = coherence_factor_derivative(params, t)
        assert exact == pytest.approx(numeric, rel=1e-6)

    def test_zero_at_time_zero(self):
        assert coherence_factor_derivative(ModelParams(1.0, 5.0), 0.0) == 0.0


class TestLogDerivative:
    def test_critical_closed_form(self):
        params = ModelParams(1.0, 8.0)
        for t in (0.2, 1.0, 4.0):
            expected = params.kappa**2 * t / (2 * (16 + 4 * params.kappa * t))
            assert dephasing_rate(params, t) == pytest.approx(expected, rel=1e-12)

    def test_overdamped_closed_form(self):
        params = ModelParams(1.0, 16.0)
        rd = math.sqrt(params.discriminant)
        for t in (0.3, 1.0, 3.0):
            expected = 8.0 / (params.kappa + rd / math.tanh(t * rd / 4))
            assert dephasing_rate(params, t) == pytest.approx(expected, rel=1e-12)

    def test_overdamped_rate_vanishes_at_origin(self):
        rate = dephasing_rate(ModelParams(1.0, 16.0), 1e-9)
        assert 0 <= rate < 1e-6

    def test_overdamped_rate_always_positive(self):
        # t range limited to where |c| stays above the pole threshold
        params = ModelParams(1.0, 10.0)
        for t in np.linspace(0.01, 25, 200):
            assert dephasing_rate(params, float(t)) > 0

    def test_underdamped_negative_inside_window(self):
        params = ModelParams(1.0, 4.0)
        window = increase_intervals(params, 1)[0]
        t = 0.5 * (window.t_lo + window.t_hi)
        r = math.sqrt(-params.discriminant)
        assert 1 / math.tan(t * r / 4) < -params.kappa / r  # the sign condition
        assert dephasing_rate(params, t) < 0

    def test_pole_error_carries_nearest_zero(self):
        params = ModelParams(1.0, 4.0)
        zero = increase_intervals(params, 1)[0].t_lo
        with pytest.raises(PoleError) as excinfo:
            coherence_log_derivative(params, zero)
        assert excinfo.value.nearest_zero == pytest.approx(zero, abs=1e-9)

    def test_deep_decay_poles_without_zero(self):
        params = ModelParams(1.0, 16.0)
        with pytest.raises(PoleError) as excinfo:
            coherence_log_derivative(params, 200.0)
        assert excinfo.value.nearest_zero is None


class TestAbsCoherenceDerivative:
    def test_never_positive_at_or_above_threshold(self):
        t = np.linspace(0, 10, 1001)
        for kappa in (8.0, 10.0, 14.0):
            values = abs_coherence_derivative(ModelParams(1.0, kappa), t)
            assert values.max() <= 1e-12

    def test_positive_inside_each_window(self):
        params = ModelParams(1.0, 4.0)
        for window in increase_intervals(params, 3):
            t = 0.5 * (window.t_lo + window.t_hi)
            assert abs_coherence_derivative(params, t) > 0

    def test_zero_at_cosine_extremum(self):
        assert abs_coherence_derivative(ModelParams(1.0, 0.0), math.pi / 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_finite_where_log_derivative_poles(self):
        # |c| ~ 3e-47 here: coherence_log_derivative raises, d|c|/dt does not
        value = abs_coherence_derivative(ModelParams(1.0, 16.0), 200.0)
        assert math.isfinite(value)
        assert value <= 0.0

    def test_zero_where_coherence_is_exactly_zero(self):
        params = ModelParams(1.0, 4.0)
        t = np.array([1e4, 2e4])  # the envelope exp(-kappa*t/4) underflows to 0
        assert np.all(coherence_factor(params, t) == 0.0)
        assert np.all(abs_coherence_derivative(params, t) == 0.0)

    def test_matches_sign_times_derivative_on_readme_grid(self):
        # the former contour route: sign(c) * dc/dt, one kappa row at a time
        times = 0.01 * np.arange(1001)
        for kappa in np.linspace(0.0, 14.0, 141):
            params = ModelParams(1.0, float(kappa))
            expected = np.sign(coherence_factor(params, times)) * coherence_factor_derivative(params, times)
            assert np.array_equal(abs_coherence_derivative(params, times), expected)

    def test_sign_matches_log_derivative(self):
        params = ModelParams(1.0, 4.0)
        for t in (0.3, 1.5, 1.7, 2.5):
            lhs = abs_coherence_derivative(params, t)
            rhs = coherence_log_derivative(params, t)
            assert math.copysign(1, lhs) == math.copysign(1, rhs)


class TestIncreaseIntervals:
    def test_undamped_values(self):
        windows = increase_intervals(ModelParams(1.0, 0.0), 3)
        for n, w in enumerate(windows, start=1):
            assert w.t_hi == pytest.approx(n * math.pi / 2, rel=1e-12)
            assert w.t_hi - w.t_lo == pytest.approx(math.pi / 4, rel=1e-12)

    def test_frozen_values(self):
        w = increase_intervals(ModelParams(1.0, 4.0), 1)[0]
        assert w.t_hi == pytest.approx(1.8137993642342178, abs=1e-14)
        assert w.t_hi - w.t_lo == pytest.approx(0.6045997880780726, abs=1e-14)

    def test_endpoint_identities(self):
        params = ModelParams(1.0, 4.0)
        for w in increase_intervals(params, 4):
            assert abs(coherence_factor(params, w.t_lo)) <= 1e-12
            assert abs(coherence_factor(params, w.t_hi)) == pytest.approx(
                math.exp(-params.kappa * w.t_hi / 4), rel=1e-10
            )
            sign = (-1) ** w.n
            assert coherence_factor(params, w.t_hi) == pytest.approx(
                sign * math.exp(-params.kappa * w.t_hi / 4), rel=1e-10
            )

    def test_rate_negative_inside(self):
        params = ModelParams(0.7, 2.0)
        for w in increase_intervals(params, 2):
            for frac in (0.25, 0.5, 0.75):
                t = w.t_lo + frac * (w.t_hi - w.t_lo)
                assert dephasing_rate(params, t) < 0

    def test_regime_error_outside_underdamped(self):
        with pytest.raises(RegimeError):
            increase_intervals(ModelParams(1.0, 10.0), 1)
        with pytest.raises(RegimeError):
            increase_intervals(ModelParams(1.0, 8.0), 1)

    def test_n_max_validation(self):
        with pytest.raises(ValidationError):
            increase_intervals(ModelParams(1.0, 4.0), 0)


class TestBlpAnalytic:
    def test_zero_at_and_above_threshold(self):
        assert blp_analytic(ModelParams(1.0, 8.0)) == 0.0
        assert blp_analytic(ModelParams(1.0, 12.0)) == 0.0
        assert blp_analytic(ModelParams(-0.5, 4.0)) == 0.0

    def test_infinite_without_cooling(self):
        assert blp_analytic(ModelParams(1.0, 0.0)) == math.inf

    def test_degenerate_model(self):
        with pytest.raises(DegenerateModelError):
            blp_analytic(ModelParams(0.0, 0.0))

    def test_frozen_value(self):
        assert blp_analytic(ModelParams(1.0, 4.0)) == pytest.approx(
            0.19479100012307657, abs=1e-16
        )

    def test_strictly_decreasing_in_kappa(self):
        kappas = np.linspace(0.1, 7.9, 79)
        values = [blp_analytic(ModelParams(1.0, float(k))) for k in kappas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_graceful_underflow_near_threshold(self):
        value = blp_analytic(ModelParams(1.0, 8.0 - 1e-9))
        assert 0.0 <= value < 1e-100

    def test_geometric_sum_identity(self):
        params = ModelParams(1.0, 4.0)
        windows = increase_intervals(params, 10)
        analytic = blp_analytic(params)
        # partial sums of the per-window increases approach the closed form
        # with the remainder given exactly by the geometric tail bound
        for n in (1, 3, 5, 8):
            partial = sum(math.exp(-params.kappa * w.t_hi / 4) for w in windows[:n])
            assert partial < analytic
            assert analytic - partial == pytest.approx(
                blp_tail_bound(params, n), rel=1e-9, abs=1e-15
            )


class TestDefaultHorizon:
    def test_tail_is_small_enough(self):
        params = ModelParams(1.0, 4.0)
        horizon, n = default_blp_horizon(params)
        assert blp_tail_bound(params, n) <= 1e-6 * blp_analytic(params)
        assert horizon > increase_intervals(params, n)[-1].t_hi

    def test_requires_convergent_regime(self):
        with pytest.raises(RegimeError):
            default_blp_horizon(ModelParams(1.0, 10.0))
        with pytest.raises(DegenerateModelError):
            default_blp_horizon(ModelParams(1.0, 0.0))


class TestBathCorrelation:
    def test_unit_at_zero_lag(self):
        assert bath_correlation(3.0, 0.0) == 1.0

    def test_direct_value(self):
        assert bath_correlation(2.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_matches_propagated_coupling_operator(self):
        # pair sigma_x with the cooled sigma_x using the normalized pairing
        sigma_x_coeffs = coherence4(PAULIS[1]).real
        for kappa in (0.5, 2.0, 8.0):
            for tau in (0.1, 1.0, 4.0):
                evolved = bath_propagator(kappa, tau, sigma_x_coeffs)
                assert evolved[1] == pytest.approx(bath_correlation(kappa, tau), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            bath_correlation(-1.0, 1.0)
        with pytest.raises(ValidationError):
            bath_correlation(1.0, -1.0)


class TestBackflowPredicate:
    @given(xi_values.filter(lambda x: abs(x) > 1e-3), kappa_values)
    @settings(max_examples=60)
    def test_matches_threshold_inequality(self, xi, kappa):
        expected = kappa < 8 * abs(xi) and classify_regime(ModelParams(xi, kappa)) is Regime.UNDERDAMPED
        assert has_information_backflow(ModelParams(xi, kappa)) == expected

    def test_stable_arbitrarily_close_to_threshold(self):
        assert has_information_backflow(ModelParams(1.0, 8.0 - 1e-7))
        assert not has_information_backflow(ModelParams(1.0, 8.0 + 1e-7))

    @pytest.mark.usefixtures("alarm")
    @given(
        st.floats(-8.0, 3.0),
        st.booleans(),
        st.one_of(st.floats(0.0, 0.95), st.floats(1.05, 2.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_sign_agrees_with_predicate(self, exponent, negative, fraction):
        # the predicate reads the regime alone; the rate c'/c is the independent route
        xi = (-1.0 if negative else 1.0) * 10.0**exponent
        kappa = fraction * 8.0 * abs(xi)
        params = ModelParams(xi, kappa)
        backflow = has_information_backflow(params)
        assert backflow == (fraction < 1.0)
        if backflow:
            r = math.sqrt(-params.discriminant)
            probe = 4.0 * (math.pi - 0.5 * math.atan2(r, kappa)) / r
            assert dephasing_rate(params, probe) < 0.0
        else:
            for t in (0.5, 1.0, 2.0):
                assert dephasing_rate(params, t / abs(xi)) > 0.0
