import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitbath import markovianity
from qubitbath.analytic import (
    blp_analytic,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    has_information_backflow,
    increase_intervals,
)
from qubitbath.errors import SingularMapError, ValidationError
from qubitbath.lindblad import ModelParams, build_generator
from qubitbath.markovianity import (
    DivisibilityVerdict,
    OPTIMAL_PAIR,
    QubitState,
    StatePair,
    _choi_min_eigenvalue,
    _refine_crossings,
    blp_numeric,
    cp_divisibility_witness,
    detect_increase_segments,
    evolved_trace_distance,
    threshold_scan,
)
from qubitbath.operator_space import initial_joint_vector
from qubitbath.oracles import (
    choi_matrix,
    choi_min_eigenvalue,
    coherence4_to_bloch,
    density_matrix,
    density_trace_distance,
    dephasing_rate,
    evolve_expm,
    intermediate_map,
    partial_trace_bath,
    system_map,
    trace_distance,
)

ball_coords = st.floats(-0.577, 0.577, allow_nan=False)


def random_states(draw_tuple):
    return QubitState(*draw_tuple)


class TestQubitState:
    def test_rejects_bloch_norm_above_one(self):
        with pytest.raises(ValidationError):
            QubitState(1.0, 1.0, 0.0)

    def test_density_matrix(self):
        rho = density_matrix(QubitState(0.0, 0.0, 1.0))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_pair_deltas(self):
        pair = StatePair(QubitState(0.1, 0.2, 0.3), QubitState(-0.1, 0.0, 0.5))
        assert (pair.dx, pair.dy, pair.dz) == pytest.approx((0.2, 0.2, -0.2))


class TestSystemMap:
    def test_identity_at_zero(self):
        assert np.array_equal(system_map(ModelParams(1, 4), 0.0), np.eye(4))

    def test_critical_diagonal(self):
        params = ModelParams(1.0, 8.0)
        t = 1.7
        c = math.exp(-2 * t) * (1 + 2 * t)
        assert np.allclose(system_map(params, t), np.diag([1, 1, c, c]), atol=1e-14)

    @pytest.mark.parametrize("params", [ModelParams(1, 16), ModelParams(1, 8), ModelParams(1, 4)])
    def test_agrees_with_joint_propagation(self, params):
        # oracle: trace the full 16-dimensional propagation for random states
        rng = np.random.default_rng(7)
        gen = build_generator(params)
        for _ in range(20):
            bloch = rng.uniform(-1, 1, 3)
            bloch /= max(1.0, np.linalg.norm(bloch) / 0.99)
            t = float(rng.uniform(0.0, 6.0))
            joint = evolve_expm(gen, initial_joint_vector(bloch), t)
            traced = coherence4_to_bloch(partial_trace_bath(joint))
            mapped = system_map(params, t) @ np.array(
                [0.5, 0.5 * bloch[0], 0.5 * bloch[1], 0.5 * bloch[2]]
            )
            assert traced == pytest.approx(coherence4_to_bloch(mapped), abs=1e-8)


class TestIntermediateMap:
    def test_identity_when_endpoints_coincide(self):
        assert np.array_equal(intermediate_map(ModelParams(1, 4), 1.0, 1.0), np.eye(4))

    def test_reduces_to_system_map_from_zero(self):
        params = ModelParams(1.0, 5.0)
        assert np.allclose(
            intermediate_map(params, 0.0, 2.0), system_map(params, 2.0), atol=1e-14
        )

    def test_composition_identity(self):
        params = ModelParams(1.0, 4.0)
        s, u = 0.6, 1.1
        composed = intermediate_map(params, s, u) @ intermediate_map(params, 0.0, s)
        assert np.abs(composed - system_map(params, u)).max() <= 1e-12

    def test_singular_at_coherence_zero(self):
        params = ModelParams(1.0, 4.0)
        zero = increase_intervals(params, 1)[0].t_lo
        with pytest.raises(SingularMapError):
            intermediate_map(params, zero, zero + 0.1)

    def test_rejects_unordered_times(self):
        with pytest.raises(ValidationError):
            intermediate_map(ModelParams(1, 4), 2.0, 1.0)


class TestChoi:
    def test_identity_map_eigenvalues(self):
        eigs = np.linalg.eigvalsh(choi_matrix(np.eye(4)))
        assert eigs == pytest.approx([0, 0, 0, 1.0], abs=1e-14)
        assert choi_min_eigenvalue(np.eye(4)) == pytest.approx(0.0, abs=1e-14)

    def test_trace_normalization(self):
        c = choi_matrix(np.diag([1.0, 1.0, 0.4, 0.4]))
        assert np.trace(c).real == pytest.approx(1.0, abs=1e-14)

    def test_expanding_map_is_not_cp(self):
        # eigenvalues derived by hand: {(1+l)/2, (1-l)/2, 0, 0}
        eig = choi_min_eigenvalue(np.diag([1.0, 1.0, 1.1, 1.1]))
        assert eig == pytest.approx(-0.05, abs=1e-14)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=30)
    def test_contracting_map_is_cp(self, lam):
        assert choi_min_eigenvalue(np.diag([1.0, 1.0, lam, lam])) >= -1e-12

    @given(st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=40)
    def test_pauli_diagonal_eigenvalue_formula(self, a, b, c):
        eigs = sorted(np.linalg.eigvalsh(choi_matrix(np.diag([1.0, a, b, c]))))
        by_hand = sorted(
            [(1 + a + b + c) / 4, (1 + a - b - c) / 4, (1 - a + b - c) / 4, (1 - a - b + c) / 4]
        )
        assert eigs == pytest.approx(by_hand, abs=1e-12)

    def test_unitary_rotation_is_cp(self):
        theta = 0.7
        rot = np.eye(4)
        rot[1, 1] = rot[2, 2] = math.cos(theta)
        rot[1, 2], rot[2, 1] = -math.sin(theta), math.sin(theta)
        assert choi_min_eigenvalue(rot) >= -1e-12

    def test_rejects_non_trace_preserving(self):
        bad = np.eye(4)
        bad[0, 1] = 0.2
        with pytest.raises(ValidationError):
            choi_matrix(bad)

    @given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=25)
    def test_batched_route_matches_scalar(self, ratios):
        # the closed form cp_divisibility_witness uses, against the generic Choi operator
        closed = _choi_min_eigenvalue(np.array(ratios))
        generic = [choi_min_eigenvalue(np.diag([1.0, 1.0, r, r])) for r in ratios]
        assert closed == pytest.approx(generic, abs=1e-12)


class TestDivisibilityWitness:
    def test_markovian_point(self):
        witness = cp_divisibility_witness(ModelParams(1.0, 10.0))
        assert witness.verdict is DivisibilityVerdict.DIVISIBLE
        assert witness.min_choi_eigenvalue >= -1e-10

    def test_boundary_point(self):
        witness = cp_divisibility_witness(ModelParams(1.0, 8.0))
        assert witness.verdict is DivisibilityVerdict.DIVISIBLE

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    def test_default_horizon_catches_backflow(self, kappa):
        witness = cp_divisibility_witness(ModelParams(1.0, kappa))
        assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE
        assert witness.min_choi_eigenvalue < -1e-10

    def test_non_markovian_point_and_offending_window(self):
        params = ModelParams(1.0, 4.0)
        first = increase_intervals(params, 1)[0]
        witness = cp_divisibility_witness(params)
        assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE
        lo, hi = witness.worst_interval
        step = witness.horizon / witness.n_subintervals
        assert first.t_lo - step <= lo and hi <= first.t_hi + step

    def test_default_horizon_covers_first_window(self):
        params = ModelParams(1.0, 4.0)
        first = increase_intervals(params, 1)[0]
        witness = cp_divisibility_witness(params)
        assert witness.horizon == 1.5 * first.t_hi
        assert witness.n_subintervals == 400
        assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE

    def test_skips_subintervals_at_zeros(self):
        params = ModelParams(1.0, 0.0)  # c = cos(2t); the horizon 3*pi/4 is a zero
        witness = cp_divisibility_witness(params)
        assert witness.horizon == pytest.approx(0.75 * math.pi, abs=1e-15)
        assert abs(coherence_factor(params, witness.horizon)) < 1e-12
        assert (witness.n_skipped, witness.n_subintervals) == (1, 400)
        assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE

    def test_default_grid_skip_count(self):
        # kappa = r = 4*sqrt(2): the first zero 3*pi/r is grid point 200 of
        # the horizon 6*pi/r, so both sub-intervals touching it are skipped
        params = ModelParams(1.0, 4.0 * math.sqrt(2.0))
        witness = cp_divisibility_witness(params)
        zero = increase_intervals(params, 1)[0].t_lo
        assert zero == pytest.approx(witness.horizon / 2, abs=1e-15)
        assert witness.n_skipped == 2
        # the adjacent sub-intervals decide
        assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE

    @pytest.mark.parametrize("fraction", [0.995, 0.999])
    def test_near_threshold_is_inconclusive(self, fraction):
        # |c| drops below MAP_SINGULARITY_TOL before the first window opens;
        # the skipped evidence must not read as divisible
        params = ModelParams(1.0, fraction * 8.0)
        assert has_information_backflow(params) and blp_analytic(params) > 0
        witness = cp_divisibility_witness(params)
        assert witness.n_skipped > 100
        assert witness.verdict is DivisibilityVerdict.INCONCLUSIVE

    @pytest.mark.usefixtures("alarm")
    @given(st.floats(-3.0, 3.0), st.booleans(), st.floats(0.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_divisible_exactly_without_backflow(self, exponent, negative, fraction):
        xi = (-1.0 if negative else 1.0) * 10.0**exponent
        params = ModelParams(xi, fraction * 8.0 * abs(xi))
        verdict = cp_divisibility_witness(params).verdict
        if has_information_backflow(params):
            assert verdict is not DivisibilityVerdict.DIVISIBLE
        else:
            assert verdict is DivisibilityVerdict.DIVISIBLE

    def test_rate_sign_matches_short_map_choi_sign(self):
        params = ModelParams(1.0, 4.0)
        eps = 1e-4
        for t in (0.4, 1.0, 1.45, 1.7, 2.2):
            rate = dephasing_rate(params, t)
            eig = choi_min_eigenvalue(
                np.diag([1, 1, *(2 * [coherence_factor(params, t + eps) / coherence_factor(params, t)])])
            )
            if rate < -1e-3:
                assert eig < -1e-8
            elif rate > 1e-3:
                assert eig >= -1e-8


class TestScaleInvariance:
    # the dynamics depends on kappa and xi only through kappa/|xi| and |xi|*t,
    # so every verdict at (a*xi, a*kappa) must be the one at (xi, kappa)
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99, 1.01, 2.0])
    @pytest.mark.parametrize("xi", [1e-8, 1e-5, 1e-3, 1.0, 1e3])
    def test_verdicts_depend_on_kappa_over_xi_only(self, xi, fraction):
        params = ModelParams(xi, fraction * 8.0 * xi)
        unit = ModelParams(1.0, fraction * 8.0)
        assert classify_regime(params) is classify_regime(unit)
        assert has_information_backflow(params) == has_information_backflow(unit)
        assert cp_divisibility_witness(params).verdict is cp_divisibility_witness(unit).verdict
        assert blp_tail_bound(params, 0) == blp_analytic(params)


class TestTraceDistance:
    def test_identical_states(self):
        s = QubitState(0.3, 0.1, -0.5)
        assert trace_distance(s, s) == 0.0

    def test_antipodal_pure_states(self):
        assert trace_distance(QubitState(0, 0, 1), QubitState(0, 0, -1)) == pytest.approx(1.0)

    def test_orthogonal_axes(self):
        d = trace_distance(QubitState(1, 0, 0), QubitState(0, 1, 0))
        assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    @given(
        st.tuples(ball_coords, ball_coords, ball_coords),
        st.tuples(ball_coords, ball_coords, ball_coords),
    )
    @settings(max_examples=50)
    def test_bloch_and_eigenvalue_routes_agree(self, b1, b2):
        s1, s2 = QubitState(*b1), QubitState(*b2)
        closed = trace_distance(s1, s2)
        generic = density_trace_distance(density_matrix(s1), density_matrix(s2))
        assert closed == pytest.approx(generic, abs=1e-12)


class TestEvolvedTraceDistance:
    def test_initial_value(self):
        pair = StatePair(QubitState(0.5, 0.1, 0.0), QubitState(-0.1, 0.0, 0.3))
        d0 = evolved_trace_distance(ModelParams(1, 4), pair, 0.0)
        assert d0 == pytest.approx(trace_distance(pair.first, pair.second), abs=1e-15)

    def test_antipodal_z_pair_tracks_coherence(self):
        params = ModelParams(1.0, 4.0)
        for t in (0.0, 0.7, 1.5, 3.0):
            d = evolved_trace_distance(params, OPTIMAL_PAIR, t)
            assert d == pytest.approx(abs(coherence_factor(params, t)), abs=1e-14)

    def test_x_only_pair_is_constant(self):
        pair = StatePair(QubitState(0.8, 0, 0), QubitState(-0.6, 0, 0))
        params = ModelParams(1.0, 4.0)
        t = np.linspace(0, 10, 50)
        d = evolved_trace_distance(params, pair, t)
        assert np.abs(d - 0.7).max() <= 1e-14

    @given(
        st.tuples(ball_coords, ball_coords, ball_coords),
        st.tuples(ball_coords, ball_coords, ball_coords),
        st.floats(0.0, 8.0, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_matches_mapped_states(self, b1, b2, t):
        params = ModelParams(1.0, 3.0)
        pair = StatePair(QubitState(*b1), QubitState(*b2))
        c = coherence_factor(params, t)
        mapped1 = QubitState(pair.first.x, c * pair.first.y, c * pair.first.z)
        mapped2 = QubitState(pair.second.x, c * pair.second.y, c * pair.second.z)
        assert evolved_trace_distance(params, pair, t) == pytest.approx(
            trace_distance(mapped1, mapped2), abs=1e-12
        )


class TestIncreaseDetection:
    def test_matches_predicted_windows(self):
        params = ModelParams(1.0, 4.0)
        predicted = increase_intervals(params, 3)
        horizon = predicted[-1].t_hi + 0.3
        detected = detect_increase_segments(params, horizon)
        assert len(detected) == 3
        for (lo, hi), window in zip(detected, predicted):
            assert lo == pytest.approx(window.t_lo, abs=1e-8)
            assert hi == pytest.approx(window.t_hi, abs=1e-8)

    def test_no_windows_when_markovian(self):
        assert detect_increase_segments(ModelParams(1.0, 9.0), 20.0) == []
        assert detect_increase_segments(ModelParams(1.0, 8.0), 20.0) == []

    def test_hundreds_of_windows_match_closed_form(self):
        params = ModelParams(1.0, 0.1)
        result = blp_numeric(params, n_pairs=0)
        assert len(result.segments) == result.n_intervals == 352
        predicted = increase_intervals(params, result.n_intervals)
        detected = np.array(result.segments)
        expected = np.array([(w.t_lo, w.t_hi) for w in predicted])
        assert np.abs(detected - expected).max() <= 1e-8

    @given(st.floats(0.25, 4.0), st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_three_windows_match_closed_form(self, xi, fraction):
        params = ModelParams(xi, fraction * 8.0 * xi)
        predicted = increase_intervals(params, 3)
        # a quarter period past the third window, well before the fourth opens
        horizon = predicted[-1].t_hi + math.pi / math.sqrt(-params.discriminant)
        detected = detect_increase_segments(params, horizon)
        assert len(detected) == 3
        for (lo, hi), window in zip(detected, predicted):
            assert lo == pytest.approx(window.t_lo, abs=1e-8)
            assert hi == pytest.approx(window.t_hi, abs=1e-8)


def _far_zero(params, t):
    """The zero of c nearest ``t``, where the trace distance starts to grow."""
    r = math.sqrt(-params.discriminant)
    n = round(t * r / (4.0 * math.pi))
    return n * 4.0 * math.pi / r - 4.0 * math.atan2(r, params.kappa) / r


@pytest.mark.usefixtures("alarm")
class TestRefineCrossing:
    """Bisection must end where 1e-10 is below one ulp of t (t > 2**19)."""

    @staticmethod
    def refine(params, lo, hi, rising):
        return _refine_crossings(params, np.array(lo), np.array(hi), np.array(rising))

    def test_terminates_below_ulp_resolution(self):
        (t,) = self.refine(ModelParams(1.0, 4.0), [900000.1], [900000.11], [True])
        assert 900000.1 <= t <= 900000.11

    def test_finds_coherence_zero_near_9e5(self):
        params = ModelParams(1.0, 1e-5)
        zero = _far_zero(params, 9e5)
        (t,) = self.refine(params, [zero - 0.005], [zero + 0.005], [True])
        assert t == pytest.approx(zero, abs=1e-6)

    def test_mixed_batch_freezes_finished_bracket(self, monkeypatch):
        # the narrow bracket near t = 9e5 stops at one ulp (~1.2e-10) after
        # ~14 halvings; the one near t = 1 halves on down to 1e-10
        params = ModelParams(1.0, 1e-5)
        near = increase_intervals(params, 1)[0].t_lo
        far = _far_zero(params, 9e5)
        sizes = []
        kernel = markovianity._signal
        monkeypatch.setattr(markovianity, "_signal", lambda p, t: sizes.append(t.size) or kernel(p, t))

        def refine_counted(lo, hi):
            sizes.clear()
            return self.refine(params, lo, hi, [True] * len(lo)), list(sizes)

        (t_near,), near_sizes = refine_counted([near - 0.005], [near + 0.005])
        (t_far,), far_sizes = refine_counted([far - 1e-6], [far + 1e-6])
        both, both_sizes = refine_counted([near - 0.005, far - 1e-6], [near + 0.005, far + 1e-6])
        assert both.tolist() == [t_near, t_far]
        assert len(far_sizes) < len(near_sizes)
        # one vector call per halving: two midpoints until the far bracket
        # stops, then the near one alone
        assert both_sizes == [2] * len(far_sizes) + [1] * (len(near_sizes) - len(far_sizes))
        assert t_near == pytest.approx(near, abs=1e-9)
        assert t_far == pytest.approx(far, abs=1e-6)


class TestBlpNumeric:
    def test_zero_at_and_above_threshold(self):
        for kappa in (8.0, 12.0):
            result = blp_numeric(ModelParams(1.0, kappa), n_pairs=2)
            assert result.value == 0.0
            assert result.segments == ()

    def test_default_horizon_windows_match_predicted(self):
        params = ModelParams(1.0, 4.0)
        result = blp_numeric(params, n_pairs=8, seed=5)
        assert not result.divergent
        assert result.value == pytest.approx(blp_analytic(params), abs=1e-3)
        predicted = increase_intervals(params, result.n_intervals)
        for (lo, hi), window in zip(result.segments, predicted):
            assert hi == pytest.approx(window.t_hi, abs=1e-6)

    def test_matches_analytic(self):
        params = ModelParams(1.0, 4.0)
        result = blp_numeric(params, n_pairs=8, seed=3)
        assert result.value == pytest.approx(blp_analytic(params), abs=1e-3)
        assert abs(result.value - blp_analytic(params)) <= result.tail_bound * 1.01 + 1e-12

    def test_divergent_case_counts_windows(self):
        result = blp_numeric(ModelParams(1.0, 0.0), horizon=10.0, n_pairs=0)
        assert result.divergent
        assert result.n_intervals == 6  # windows end at n*pi/2 <= 10
        assert result.value == pytest.approx(result.n_intervals, abs=1e-6)
        # per-window increment is 1 for the optimal pair when kappa = 0
        assert result.value / result.n_intervals == pytest.approx(1.0, abs=1e-6)

    def test_divergent_requires_explicit_horizon(self):
        from qubitbath.errors import DegenerateModelError

        with pytest.raises(DegenerateModelError):
            blp_numeric(ModelParams(1.0, 0.0))

    def test_random_pairs_never_beat_optimal(self):
        params = ModelParams(1.0, 3.0)
        result = blp_numeric(params, n_pairs=64, seed=11)
        assert max(result.random_values) <= result.optimal_value + 1e-9
        assert result.value == result.optimal_value
        assert result.best_pair == OPTIMAL_PAIR

    def test_deterministic_for_seed(self):
        params = ModelParams(1.0, 5.0)
        a = blp_numeric(params, n_pairs=16, seed=42)
        b = blp_numeric(params, n_pairs=16, seed=42)
        assert a.random_values == b.random_values

    def test_scan_over_point_budget_raises_before_allocating(self, monkeypatch):
        # kappa = 1e-6 asks for a 5.5e9-point grid (44 GB per float array)
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(ValidationError, match="blp_analytic.*blp_tail_bound"):
            blp_numeric(ModelParams(1.0, 1e-6), n_pairs=0)

    def test_scan_budget_admits_kappa_1e_3(self, monkeypatch):
        # 5.5e6 points: admitted, so the grid is built (and stopped right there)
        class Admitted(Exception):
            pass

        def admitted(start, stop, num):
            raise Admitted(num)

        monkeypatch.setattr(np, "linspace", admitted)
        with pytest.raises(Admitted) as info:
            blp_numeric(ModelParams(1.0, 1e-3), n_pairs=0)
        assert 5_000_000 < info.value.args[0] <= markovianity.MAX_SCAN_POINTS

    def test_scan_budget_edge(self, monkeypatch):
        params = ModelParams(1.0, 9.0)  # step 0.01: horizon 1 is 101 points
        monkeypatch.setattr(markovianity, "MAX_SCAN_POINTS", 101)
        assert detect_increase_segments(params, 1.0) == []
        with pytest.raises(ValidationError):
            detect_increase_segments(params, 1.001)
        with pytest.raises(ValidationError):
            detect_increase_segments(params, math.inf)

    def test_telescoped_increase_equals_quadrature(self):
        # independent oracle: integrate max(d', 0) by fine trapezoidal quadrature
        params = ModelParams(1.0, 4.0)
        horizon = increase_intervals(params, 2)[-1].t_hi + 0.2
        t = np.linspace(0, horizon, 200001)
        d = evolved_trace_distance(params, OPTIMAL_PAIR, t)
        rates = np.diff(d) / np.diff(t)
        quadrature = float(np.sum(np.clip(rates, 0, None) * np.diff(t)))
        result = blp_numeric(params, horizon=horizon, n_pairs=0)
        assert result.value == pytest.approx(quadrature, abs=1e-4)


class TestAssess:
    def test_markovian_report(self):
        # every Markovianity verdict agrees at a point above the threshold
        params = ModelParams(1.0, 10.0)
        assert cp_divisibility_witness(params).verdict is DivisibilityVerdict.DIVISIBLE
        result = blp_numeric(params, n_pairs=2)
        assert result.value == 0.0
        assert blp_analytic(params) == 0.0
        assert result.segments == ()


class TestThresholdScan:
    @pytest.mark.parametrize("xi,expected", [(1.0, 8.0), (0.5, 4.0), (-1.0, 8.0), (2.0, 16.0)])
    def test_finds_threshold(self, xi, expected):
        lo, hi = 0.5 * expected, 2.5 * expected
        assert threshold_scan(xi, lo, hi, tol=1e-6) == pytest.approx(expected, abs=1e-6)

    def test_spec_bracket(self):
        assert threshold_scan(1.0, 1.0, 20.0, tol=1e-6) == pytest.approx(8.0, abs=1e-6)

    def test_invalid_bracket_same_side(self):
        with pytest.raises(ValidationError):
            threshold_scan(1.0, 9.0, 20.0)
        with pytest.raises(ValidationError):
            threshold_scan(1.0, 1.0, 7.0)

    def test_invalid_bracket_order(self):
        with pytest.raises(ValidationError):
            threshold_scan(1.0, 5.0, 4.0)

    @pytest.mark.usefixtures("alarm")
    @pytest.mark.parametrize(
        "xi,tol",
        # one ulp of kappa near 8e10 (1.5e-5) exceeds the default tol; 1e-20 is below one ulp of 8
        [(1e10, 1e-6), (1.0, 1e-20)],
    )
    def test_terminates_below_ulp_resolution(self, xi, tol):
        star = threshold_scan(xi, 4.0 * xi, 20.0 * xi, tol=tol)
        assert star == pytest.approx(8.0 * xi, rel=1e-8)

    @pytest.mark.usefixtures("alarm")
    @given(st.floats(-6.0, 10.0), st.booleans(), st.floats(-15.0, -3.0))
    @settings(max_examples=200, deadline=None)
    def test_lands_within_tol_or_two_ulp_at_any_coupling(self, exponent, negative, tol_exponent):
        xi = (-1.0 if negative else 1.0) * 10.0**exponent
        tol = 10.0**tol_exponent
        star = threshold_scan(xi, 4.0 * abs(xi), 20.0 * abs(xi), tol=tol)
        assert abs(star - 8.0 * abs(xi)) <= max(tol, 2 * math.ulp(8.0 * xi))

    @pytest.mark.usefixtures("alarm")
    @pytest.mark.parametrize("xi", [25.0, 100.0, 1e10])
    def test_lands_on_threshold_not_band_edge(self, xi):
        # not the lower edge of the REGIME_TOL band, 4e-8*|xi| below 8|xi|,
        # which has_information_backflow counts as backflow-free
        tol = 1e-6
        star = threshold_scan(xi, 4.0 * xi, 20.0 * xi, tol=tol)
        assert abs(star - 8.0 * xi) <= max(tol, 2 * math.ulp(8.0 * xi))
