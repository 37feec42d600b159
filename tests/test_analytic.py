import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitbath.analytic import (
    _BIG_S,
    MAX_TIME,
    REGIME_TOL,
    Regime,
    _abs_derivative,
    _increasing,
    _kernel,
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
from qubitbath.lindblad import MAX_RATE, MIN_RATE, ModelParams
from qubitbath.operator_space import PAULIS, coherence4
from qubitbath.oracles import (
    bath_propagator,
    coherence_log_derivative,
    dephasing_rate,
)

# the accepted couplings: 0 or |xi| >= MIN_RATE
xi_values = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda xi: xi == 0.0 or abs(xi) >= MIN_RATE)
kappa_values = st.floats(0.0, 20.0, allow_nan=False)
# the extremes: |xi| log-uniform in [1e-6, 1e3] of either sign, kappa in [0, 1e4]
wide_xi = st.builds(lambda e, negative: (-1.0 if negative else 1.0) * 10.0**e, st.floats(-6.0, 3.0), st.booleans())
wide_kappa = st.floats(0.0, 1e4)


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

    @pytest.mark.parametrize("fraction", [0.0, 1e-31, 0.5, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.01, 2.0])
    def test_scale_free_down_to_min_rate(self, fraction):
        # the band stays normal at the smallest coupling, so the verdict is that at xi = 1
        tiny, unit = ModelParams(MIN_RATE, fraction * 8.0 * MIN_RATE), ModelParams(1.0, fraction * 8.0)
        assert classify_regime(tiny) is classify_regime(unit)
        assert has_information_backflow(tiny) is has_information_backflow(unit)
        assert blp_analytic(tiny) == pytest.approx(blp_analytic(unit), rel=1e-14)


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

    @pytest.mark.usefixtures("alarm")
    @given(wide_xi, wide_kappa, st.floats(0.0, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_one_at_the_extremes(self, xi, kappa, t_max):
        # rounding lets |c| overshoot 1 by a few ulp where s is just under _BIG_S;
        # the second grid resolves the decay, wherever t_max puts the first
        decay = min(1e6, 40.0 / max(kappa, 8.0 * abs(xi)))
        times = np.append(np.linspace(0.0, t_max, 1001), np.linspace(0.0, decay, 1001))
        assert np.abs(coherence_factor(ModelParams(xi, kappa), times)).max() <= 1.0 + 1e-14

    @pytest.mark.usefixtures("alarm")
    @given(wide_xi, st.floats(-3e-8, 1.5e-8), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_continuous_across_the_critical_band(self, xi, offset, taus):
        # a kappa step of 1.5e-8*8|xi| that starts at most 3e-8 below 8|xi|
        # crosses the REGIME_TOL band; c must move by less than the step
        # times |dc/dkappa| <= t/4, with no jump at the band's edges
        step = 1.5e-8 * 8.0 * abs(xi)
        kappa = 8.0 * abs(xi) * (1.0 + offset)
        t = np.array(taus) / abs(xi)
        jump = coherence_factor(ModelParams(xi, kappa + step), t) - coherence_factor(ModelParams(xi, kappa), t)
        assert np.all(np.abs(jump) <= step * t / 4.0 + 1e-15)

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


@st.composite
def kernel_lane(draw):
    """One (xi, kappa, t) lane of a batch, from one of the kernel's branches."""
    xi = draw(wide_xi)
    branch = draw(st.sampled_from(["underdamped", "threshold", "overdamped", "xi0", "kappa0"]))
    if branch == "underdamped":
        kappa = 8.0 * abs(xi) * draw(st.floats(0.0, 0.99))
    elif branch == "threshold":  # kappa = 8|xi|(1 +- 1e-9), inside the REGIME_TOL band
        kappa = 8.0 * abs(xi) * (1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9])))
    elif branch == "overdamped":
        kappa = 8.0 * abs(xi) * draw(st.floats(1.01, 1e3))
    elif branch == "xi0":
        xi, kappa = 0.0, draw(wide_kappa)
    else:
        kappa = 0.0
    disc = abs(ModelParams(xi, kappa).discriminant)
    # t in units of 4/sqrt(|disc|), so that |s| = f**2: the series band is f < 1e-3
    # and the overdamped lanes pass _BIG_S (s > 900) where f > 30
    unit = 4.0 / math.sqrt(disc) if disc else 1.0
    f = draw(st.one_of(st.just(0.0), st.floats(0.0, 9.9e-4), st.floats(0.0, 200.0)))
    # at xi = 0 a kappa below about 1e-147 puts f * unit past MAX_TIME, which both routes
    # refuse; such a lane reads the largest accepted time instead
    return xi, kappa, min(f * unit, MAX_TIME)


class TestBatchedKernel:
    @given(st.lists(kernel_lane(), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_every_lane_equals_the_one_point_call(self, lanes):
        assert 1e-9 < REGIME_TOL and _BIG_S == 900.0  # the bands the strategy draws across
        xi, kappa, t = (np.array(column) for column in zip(*lanes))
        c, dc = _kernel(xi, kappa, t)
        for k, (x, kap, time) in enumerate(lanes):
            one = coherence_factor_with_derivative(ModelParams(x, kap), time)
            assert (c[k].hex(), dc[k].hex()) == (one[0].hex(), one[1].hex()), (x, kap, time)

    def test_points_broadcast_against_rows_of_times(self):
        xi, kappa = np.array([[1.0], [1.0], [0.5]]), np.array([[4.0], [12.0], [0.0]])
        times = np.array([np.linspace(0.0, h, 7) for h in (3.0, 60.0, 5.0)])
        c, dc = _kernel(xi, kappa, times)
        for row, x, kap, t in zip(range(3), xi[:, 0], kappa[:, 0], times):
            one = coherence_factor_with_derivative(ModelParams(x, kap), t)
            assert c[row].tobytes() == one[0].tobytes() and dc[row].tobytes() == one[1].tobytes()

    def test_squares_round_as_model_params_does(self):
        # here xi**2 (C pow) and xi*xi differ in the last bit, and so do c and dc
        # at t = 0.1; the pinned values are those of the unbatched kernel
        xi = float.fromhex("0x1.28374a9a927ffp+1")
        assert xi**2 != xi * xi
        c, dc = coherence_factor_with_derivative(ModelParams(xi, 4.0 * xi), 0.1)
        assert (c.hex(), dc.hex()) == ("0x1.d1897cd807b58p-1", "-0x1.a78bddda053dfp+0")

    def test_time_limit_is_per_lane(self):
        xi = np.array([1.0, 1e30])  # |disc| 64 and 6.4e61: limits MAX_TIME and about 1e123
        _kernel(xi, np.zeros(2), np.array([1e140, 1e120]))
        with pytest.raises(ValidationError, match="time must be <= "):
            _kernel(xi, np.zeros(2), np.array([1e120, 1e140]))


def reference_kernel(xi, kappa, t):
    """c and dc/dt with every term computed lane by lane: the kernel body from before the per-point
    terms, with ``xi``, ``kappa`` and ``t`` broadcast together and each lane's branch read from its
    own discriminant (the time checks are left to the callers, whose times are valid)."""
    k, x2 = kappa, np.float_power(xi, 2.0)
    disc = np.float_power(k, 2.0) - 64.0 * x2
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    s = disc * (arr / 4.0) ** 2
    big = s > _BIG_S
    long_time = big.any()
    if long_time:
        s[big] = _BIG_S
    u = np.abs(s)
    small = u < 1e-6
    r = np.sqrt(u)
    r[small] = 1.0
    pos = np.greater(disc, 0)
    if pos.all() or not pos.any():
        sinhc, cosh = (np.sinh(r) / r, np.cosh(r)) if pos.any() else (np.sin(r) / r, np.cos(r))
    else:
        sinhc, cosh, pos = np.empty_like(r), np.empty_like(r), np.broadcast_to(pos, s.shape)
        for lanes, sin, cos in ((pos, np.sinh, np.cosh), (~pos, np.sin, np.cos)):
            part = r[lanes]
            sinhc[lanes], cosh[lanes] = sin(part) / part, cos(part)
    u = s[small]
    sinhc[small] = 1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0))
    cosh[small] = 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
    kt4 = k * arr / 4.0
    envelope = np.exp(-kt4)
    c = envelope * (kt4 * sinhc + cosh)
    dc = -4.0 * x2 * arr * envelope * sinhc
    if long_time:
        tb, kb, x2b, db = (np.broadcast_to(a, s.shape)[big] if np.ndim(a) else a for a in (arr, k, x2, disc))
        r = np.sqrt(db)
        grow, decay = np.exp(-64.0 * x2b / (r + kb) * tb / 4.0), np.exp(-(r + kb) * tb / 4.0)
        c[big] = 0.5 * ((1.0 + kb / r) * grow + (1.0 - kb / r) * decay)
        dc[big] = -8.0 * x2b / r * (grow - decay)
    return c, dc


@st.composite
def ragged_batch(draw):
    """Points with |xi| log-uniform over 1e-30 to 1e30 and from every branch of the kernel, each with
    0 to 12 lanes (the series band, the _BIG_S clip, the critical band), in a shuffled lane order;
    the times and their owners are a 1-d array or a column, as the window edges read them."""
    points, times = [], []
    for _ in range(draw(st.integers(1, 8))):
        xi = (-1.0 if draw(st.booleans()) else 1.0) * 10.0 ** draw(st.floats(-30.0, 30.0))
        branch = draw(st.sampled_from(["underdamped", "threshold", "overdamped", "xi0", "kappa0"]))
        if branch == "underdamped":
            kappa = 8.0 * abs(xi) * draw(st.floats(0.0, 0.99))
        elif branch == "threshold":  # inside the REGIME_TOL band
            kappa = 8.0 * abs(xi) * (1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9])))
        elif branch == "overdamped":
            kappa = 8.0 * abs(xi) * draw(st.floats(1.01, 1e3))
        elif branch == "xi0":
            xi, kappa = 0.0, 10.0 ** draw(st.floats(-30.0, 30.0))
        else:
            kappa = 0.0
        disc = abs(ModelParams(xi, kappa).discriminant)
        unit = 4.0 / math.sqrt(disc) if disc else 1.0  # |s| = f**2, as in kernel_lane
        f = st.one_of(st.just(0.0), st.floats(0.0, 9.9e-4), st.floats(0.0, 200.0))
        times.append([min(v * unit, MAX_TIME) for v in draw(st.lists(f, max_size=12))])
        points.append((xi, kappa))
    owner = np.array([k for k, lanes in enumerate(times) for _ in lanes], dtype=int)
    order = np.array(draw(st.permutations(range(owner.size))), dtype=int)
    xi, kappa = (np.array(column) for column in zip(*points))
    t, owner = np.array([v for lanes in times for v in lanes])[order], owner[order]
    return (xi, kappa, t[:, None], owner[:, None]) if draw(st.booleans()) else (xi, kappa, t, owner)


class TestPerPointKernel:
    """Per-point terms read by index give every lane the bits of the lane-by-lane kernel."""

    @given(ragged_batch())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_per_lane_kernel(self, batch):
        xi, kappa, t, owner = batch
        c, dc = _kernel(xi, kappa, t, owner)
        ref_c, ref_dc = reference_kernel(xi[owner], kappa[owner], t)
        assert c.shape == dc.shape == t.shape
        assert [v.hex() for v in c.ravel().tolist()] == [v.hex() for v in ref_c.ravel().tolist()]
        assert [v.hex() for v in dc.ravel().tolist()] == [v.hex() for v in ref_dc.ravel().tolist()]

    def test_time_limit_is_read_by_index(self):
        xi = np.array([1e30, 1.0])  # limits about 5e123 and MAX_TIME
        _kernel(xi, np.zeros(2), np.array([1e140, 1e120]), np.array([1, 0]))
        with pytest.raises(ValidationError, match=r"time must be <= 5e\+123"):
            _kernel(xi, np.zeros(2), np.array([1e140, 1e140]), np.array([1, 0]))
        # both lanes over their limits: the first lane's is named, though the second's is smaller
        with pytest.raises(ValidationError, match=r"time must be <= 1e\+150:"):
            _kernel(xi, np.zeros(2), np.array([1e151, 1e140]), np.array([1, 0]))


class TestIncreaseSign:
    """The detector's envelope-free sign against the value route's d|c|/dt > 0."""

    @staticmethod
    def same_where_resolved(xi, kappa, t, owner=None):
        """_increasing equals _abs_derivative > 0 on every lane where neither c nor dc is 0, and is False
        where t = 0 or xi = 0; returns the sign and the mask of resolved lanes."""
        c, dc = _kernel(xi, kappa, t, owner)
        rising = _increasing(xi, kappa, t, owner)
        resolved = (c != 0) & (dc != 0)
        assert rising.shape == c.shape
        assert np.array_equal(rising[resolved], (_abs_derivative(xi, kappa, t, owner) > 0)[resolved])
        lane_xi = np.broadcast_to(xi if owner is None else xi[owner], c.shape)
        assert not rising[(np.broadcast_to(t, c.shape) == 0) | (lane_xi == 0)].any()
        return rising, resolved

    @given(ragged_batch())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_value_route_on_ragged_batches(self, batch):
        self.same_where_resolved(*batch)

    def test_every_branch_in_one_batch(self):
        # underdamped, critical, overdamped and xi = 0 points in one mixed-regime batch; per point the
        # times 0, one in the series band (|s| < 1e-6), a spread over several periods and, overdamped,
        # past the _BIG_S clip
        xi = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
        kappa = np.array([4.0, 8.0, 12.0, 2.0, 0.0])
        times = np.concatenate([[0.0, 1e-4], np.linspace(0.05, 40.0, 400)])
        disc = kappa**2 - 64.0 * xi**2
        assert (disc[None, :] * (times[:, None] / 4.0) ** 2 > _BIG_S).any()
        assert (np.abs(disc[None, :]) * (1e-4 / 4.0) ** 2 < 1e-6).all()
        for args in ((xi[:, None], kappa[:, None], times),  # points broadcast against times
                     (xi, kappa, np.tile(times, 5), np.repeat(np.arange(5), times.size))):  # read by index
            rising, resolved = self.same_where_resolved(*args)
            assert rising.any() and resolved.sum() == 4 * (times.size - 1)  # all but t = 0 and xi = 0

    def test_windows_past_the_underflow_of_c(self):
        # c and dc/dt are exactly 0 here, so sign(c) * dc/dt is 0; the sign still rises in every window
        params = ModelParams(1.0, 4.0)
        windows = increase_intervals(params, 1102)[500:]
        inside, outside = windows.mean(axis=1), windows[:, 1] + 0.5
        assert np.all(coherence_factor(params, inside) == 0.0)
        assert np.all(abs_coherence_derivative(params, inside) == 0.0)
        assert _increasing(params.xi, params.kappa, inside).all()
        assert not _increasing(params.xi, params.kappa, outside).any()


def mp_coherence_with_derivative(xi, kappa, t):
    """c and dc/dt of the overdamped closed form, at 50 digits, from the exact binary inputs."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        xi, kappa, t = mp.mpf(xi), mp.mpf(kappa), mp.mpf(t)
        r = mp.sqrt(kappa**2 - 64 * xi**2)
        envelope, sinh, cosh = mp.exp(-kappa * t / 4), mp.sinh(r * t / 4), mp.cosh(r * t / 4)
        return envelope * (kappa / r * sinh + cosh), -16 * xi**2 / r * envelope * sinh


class TestLongTimeOverdamped:
    """The long-time overdamped forms against mpmath where kappa >> 8|xi|.

    There c = exp(x) to about 1 part in exp(2x*kappa/(r - kappa)), with the
    exponent x = (r - kappa)*t/4 = -16 xi**2 t/(r + kappa) (r = sqrt(disc)).
    Formed that way, x carries a few roundings, so exp(x) is good to about
    (4|x| + 4)*eps; written as the difference r - kappa, it lost about
    eps*kappa**2/(32 xi**2) relative to x (3e-5 to 1.2e-3 in c at these points).
    """

    @pytest.mark.parametrize("xi,kappa,t", [
        (1e-3, 1e4, 3.1e8), (1e-3, 1e4, 1.25e9), (1e-3, 1e4, 1.25e10), (1e-3, 1e6, 1e11), (0.5, 1e3, 2e4),
    ])
    def test_matches_fifty_digits(self, xi, kappa, t):
        assert kappa**2 * (t / 4.0) ** 2 > _BIG_S  # the long-time branch
        c, dc = coherence_factor_with_derivative(ModelParams(xi, kappa), t)
        ref_c, ref_dc = mp_coherence_with_derivative(xi, kappa, t)
        x = abs(math.log(float(ref_c)))
        bound = (4.0 * x + 4.0) * np.finfo(float).eps
        assert abs(c - ref_c) <= bound * abs(ref_c)
        assert abs(dc - ref_dc) <= bound * abs(ref_dc)


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
        exact = coherence_factor_with_derivative(params, t)[1]
        assert exact == pytest.approx(numeric, rel=1e-6)

    def test_zero_at_time_zero(self):
        assert coherence_factor_with_derivative(ModelParams(1.0, 5.0), 0.0)[1] == 0.0


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
        t_lo, t_hi = increase_intervals(params, 1)[0]
        t = 0.5 * (t_lo + t_hi)
        r = math.sqrt(-params.discriminant)
        assert 1 / math.tan(t * r / 4) < -params.kappa / r  # the sign condition
        assert dephasing_rate(params, t) < 0

    def test_pole_error_carries_nearest_zero(self):
        params = ModelParams(1.0, 4.0)
        zero = increase_intervals(params, 1)[0, 0]
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
        for t_lo, t_hi in increase_intervals(params, 3):
            t = 0.5 * (t_lo + t_hi)
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
            c, dc = coherence_factor_with_derivative(params, times)
            expected = np.sign(c) * dc
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
        for n, (t_lo, t_hi) in enumerate(windows, start=1):
            assert t_hi == pytest.approx(n * math.pi / 2, rel=1e-12)
            assert t_hi - t_lo == pytest.approx(math.pi / 4, rel=1e-12)

    def test_frozen_values(self):
        t_lo, t_hi = increase_intervals(ModelParams(1.0, 4.0), 1)[0]
        assert t_hi == pytest.approx(1.8137993642342178, abs=1e-14)
        assert t_hi - t_lo == pytest.approx(0.6045997880780726, abs=1e-14)

    def test_endpoint_identities(self):
        params = ModelParams(1.0, 4.0)
        for n, (t_lo, t_hi) in enumerate(increase_intervals(params, 4), start=1):
            assert abs(coherence_factor(params, t_lo)) <= 1e-12
            assert abs(coherence_factor(params, t_hi)) == pytest.approx(
                math.exp(-params.kappa * t_hi / 4), rel=1e-10
            )
            sign = (-1) ** n
            assert coherence_factor(params, t_hi) == pytest.approx(
                sign * math.exp(-params.kappa * t_hi / 4), rel=1e-10
            )

    def test_rate_negative_inside(self):
        params = ModelParams(0.7, 2.0)
        for t_lo, t_hi in increase_intervals(params, 2):
            for frac in (0.25, 0.5, 0.75):
                t = t_lo + frac * (t_hi - t_lo)
                assert dephasing_rate(params, t) < 0

    def test_rows_of_an_n_by_2_array(self):
        params = ModelParams(1.0, 4.0)
        windows = increase_intervals(params, 5)
        assert windows.shape == (5, 2) and windows.dtype == np.float64
        r = math.sqrt(-params.discriminant)
        spacing, delta = 4.0 * math.pi / r, 4.0 * math.atan2(r, params.kappa) / r
        for n, (t_lo, t_hi) in enumerate(windows.tolist(), start=1):
            assert (t_lo, t_hi) == (n * spacing - delta, n * spacing)

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

    def test_infinite_where_decay_per_window_underflows(self):
        # kappa*pi/r rounds to 0 at the smallest subnormal kappa, as at kappa = 0
        params = ModelParams(1.0, 5e-324)
        assert blp_analytic(params) == math.inf
        assert blp_tail_bound(params, 3) == math.inf

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
            partial = sum(math.exp(-params.kappa * t_hi / 4) for t_hi in windows[:n, 1])
            assert partial < analytic
            assert analytic - partial == pytest.approx(
                blp_tail_bound(params, n), rel=1e-9, abs=1e-15
            )


class TestDefaultHorizon:
    def test_tail_is_small_enough(self):
        params = ModelParams(1.0, 4.0)
        horizon, n = default_blp_horizon(params)
        assert blp_tail_bound(params, n) <= 1e-6 * blp_analytic(params)
        assert horizon > increase_intervals(params, n)[-1, 1]

    def test_requires_convergent_regime(self):
        with pytest.raises(RegimeError):
            default_blp_horizon(ModelParams(1.0, 10.0))
        with pytest.raises(DegenerateModelError):
            default_blp_horizon(ModelParams(1.0, 0.0))

    @pytest.mark.parametrize("xi,kappa,digits", [(3e7, 1e-300, 309), (MAX_RATE / 8.0, 5e-324, 399)])
    def test_window_count_beyond_the_float_range_is_refused(self, xi, kappa, digits):
        # math.ceil of the inf count raised OverflowError; the count is named instead
        with pytest.raises(ValidationError, match=f"about 1e{digits} increase windows"):
            default_blp_horizon(ModelParams(xi, kappa))

    def test_finite_window_count_near_the_float_maximum_is_kept(self):
        horizon, n = default_blp_horizon(ModelParams(3e7, 1e-299))  # about 1.06e308 windows
        assert n > 1e308 and 0.0 < horizon < math.inf


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

    # rates checked as ModelParams checks them, lags as every closed-form time
    @pytest.mark.parametrize(
        "kappa, tau",
        [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (math.inf, 0.0), (1e76, 1.0), (1.0, math.inf), (1.0, 1e151)],
    )
    def test_validation(self, kappa, tau):
        with pytest.raises(ValidationError):
            bath_correlation(kappa, tau)


class TestBackflowPredicate:
    @given(xi_values.filter(lambda x: abs(x) > 1e-3), kappa_values)
    @settings(max_examples=60)
    def test_matches_threshold_inequality(self, xi, kappa):
        expected = kappa < 8 * abs(xi) and classify_regime(ModelParams(xi, kappa)) is Regime.UNDERDAMPED
        assert has_information_backflow(ModelParams(xi, kappa)) == expected

    @pytest.mark.usefixtures("alarm")
    @given(wide_xi, wide_kappa, wide_kappa)
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_kappa(self, xi, kappa_a, kappa_b):
        lo, hi = sorted((kappa_a, kappa_b))
        assert has_information_backflow(ModelParams(xi, lo)) >= has_information_backflow(ModelParams(xi, hi))

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
