import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitbath import analytic, markovianity
from qubitbath.analytic import (
    Regime,
    blp_analytic,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    has_information_backflow,
    increase_intervals,
)
from qubitbath.errors import SingularMapError, ValidationError
from qubitbath.lindblad import MIN_RATE, ModelParams, build_generator
from qubitbath.markovianity import (
    DivisibilityVerdict,
    QubitState,
    _choi_min_eigenvalue,
    _points,
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
        zero = increase_intervals(params, 1)[0, 0]
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


    def test_stacked_minima_equal_the_per_map_minima(self):
        params = ModelParams(1.0, 4.0)
        maps = np.array([intermediate_map(params, s, s + 0.37) for s in np.linspace(0.0, 3.0, 9)] + [np.eye(4)])
        stacked = choi_min_eigenvalue(maps)
        assert stacked.shape == (10,)
        assert [v.hex() for v in stacked.tolist()] == [choi_min_eigenvalue(m).hex() for m in maps]
        assert isinstance(choi_min_eigenvalue(maps[0]), float)

    def test_stack_rejects_a_bad_map(self):
        bad = np.eye(4)
        bad[0, 1] = 0.2
        with pytest.raises(ValidationError, match="trace preserving"):
            choi_min_eigenvalue(np.array([np.eye(4), bad, np.eye(4)]))
        for wrong in ([np.eye(4), np.eye(3)], np.ones((3, 4, 3)), np.ones((2, 2, 4, 4))):
            with pytest.raises(ValidationError, match="4x4"):
                choi_min_eigenvalue(wrong)


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
        t_lo, t_hi = increase_intervals(params, 1)[0]
        witness = cp_divisibility_witness(params)
        assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE
        lo, hi = witness.worst_interval
        step = witness.horizon / witness.n_subintervals
        assert t_lo - step <= lo and hi <= t_hi + step

    def test_default_horizon_covers_first_window(self):
        params = ModelParams(1.0, 4.0)
        t_hi = increase_intervals(params, 1)[0, 1]
        witness = cp_divisibility_witness(params)
        assert witness.horizon == 1.5 * t_hi
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
        zero = increase_intervals(params, 1)[0, 0]
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

    @pytest.mark.parametrize("xi", [1.0, 1e9])
    def test_blp_gap_within_the_tail_bound_at_any_coupling(self, xi):
        # the bisection stops at min(1e-10, 1e-9/|xi|): at an absolute 1e-10 the edges of
        # windows 4/sqrt(-disc) ~ 1e-9 long at |xi| = 1e9 were off by 2.4e-2 of the measure
        params = ModelParams(xi, 0.85 * 8.0 * xi)
        result, analytic = blp_numeric(params, n_pairs=0), blp_analytic(params)
        assert abs(result.value - analytic) <= result.tail_bound + 1e-8 * analytic


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
        first, second = QubitState(0.5, 0.1, 0.0), QubitState(-0.1, 0.0, 0.3)
        d0 = evolved_trace_distance(ModelParams(1, 4), first, second, 0.0)
        assert d0 == pytest.approx(trace_distance(first, second), abs=1e-15)

    def test_antipodal_z_pair_tracks_coherence(self):
        params = ModelParams(1.0, 4.0)
        for t in (0.0, 0.7, 1.5, 3.0):
            d = evolved_trace_distance(params, QubitState(0.0, 0.0, 1.0), QubitState(0.0, 0.0, -1.0), t)
            assert d == pytest.approx(abs(coherence_factor(params, t)), abs=1e-14)

    def test_x_only_pair_is_constant(self):
        params = ModelParams(1.0, 4.0)
        t = np.linspace(0, 10, 50)
        d = evolved_trace_distance(params, QubitState(0.8, 0, 0), QubitState(-0.6, 0, 0), t)
        assert np.abs(d - 0.7).max() <= 1e-14

    @given(
        st.tuples(ball_coords, ball_coords, ball_coords),
        st.tuples(ball_coords, ball_coords, ball_coords),
        st.floats(0.0, 8.0, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_matches_mapped_states(self, b1, b2, t):
        params = ModelParams(1.0, 3.0)
        first, second = QubitState(*b1), QubitState(*b2)
        c = coherence_factor(params, t)
        mapped1 = QubitState(first.x, c * first.y, c * first.z)
        mapped2 = QubitState(second.x, c * second.y, c * second.z)
        assert evolved_trace_distance(params, first, second, t) == pytest.approx(
            trace_distance(mapped1, mapped2), abs=1e-12
        )


class TestIncreaseDetection:
    def test_matches_predicted_windows(self):
        params = ModelParams(1.0, 4.0)
        predicted = increase_intervals(params, 3)
        horizon = predicted[-1, 1] + 0.3
        detected = detect_increase_segments(params, horizon)
        assert len(detected) == 3
        for (lo, hi), (t_lo, t_hi) in zip(detected, predicted):
            assert lo == pytest.approx(t_lo, abs=1e-8)
            assert hi == pytest.approx(t_hi, abs=1e-8)

    def test_no_windows_when_markovian(self):
        assert detect_increase_segments(ModelParams(1.0, 9.0), 20.0).shape == (0, 2)
        assert detect_increase_segments(ModelParams(1.0, 8.0), 20.0).shape == (0, 2)

    def test_hundreds_of_windows_match_closed_form(self):
        params = ModelParams(1.0, 0.1)
        result = blp_numeric(params, n_pairs=0)
        assert len(result.segments) == 352
        predicted = increase_intervals(params, len(result.segments))
        assert np.abs(result.segments - predicted).max() <= 1e-8

    def test_windows_found_until_c_underflows(self):
        # c*dc/dt underflows to 0 from t ~ 1500 (|c| ~ 1e-163), and a detector
        # reading it stopped at 941 windows; d|c|/dt keeps its sign there
        params = ModelParams(1.0, 1.0)
        detected = detect_increase_segments(params, 2000.0)
        assert detected.shape == (1263, 2)
        assert np.abs(detected - increase_intervals(params, 1263)).max() <= 1e-8

    def test_windows_found_past_the_underflow_of_c(self):
        # c underflows to 0 from t ~ 745, where a detector reading sign(c) * dc/dt stopped at 411
        # windows; the envelope-free sign finds every window up to the horizon
        params = ModelParams(1.0, 4.0)
        result = blp_numeric(params, horizon=2000.0, n_pairs=0)
        predicted = increase_intervals(params, 1103)
        assert predicted[-2, 1] < 2000.0 < predicted[-1, 0]  # 1,102 windows close before the horizon
        assert coherence_factor(params, 800.0) == 0.0
        assert result.segments.shape == (1102, 2)
        assert np.abs(result.segments - predicted[:-1]).max() <= 1e-9

    @given(st.floats(0.25, 4.0), st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_three_windows_match_closed_form(self, xi, fraction):
        params = ModelParams(xi, fraction * 8.0 * xi)
        predicted = increase_intervals(params, 3)
        # a quarter period past the third window, well before the fourth opens
        horizon = predicted[-1, 1] + math.pi / math.sqrt(-params.discriminant)
        detected = detect_increase_segments(params, horizon)
        assert len(detected) == 3
        for (lo, hi), (t_lo, t_hi) in zip(detected, predicted):
            assert lo == pytest.approx(t_lo, abs=1e-8)
            assert hi == pytest.approx(t_hi, abs=1e-8)


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
        owner = np.zeros(len(lo), dtype=int)  # every bracket belongs to the one point
        return _refine_crossings(_points([params]), owner, np.array(lo), np.array(hi), np.array(rising))

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
        near = increase_intervals(params, 1)[0, 0]
        far = _far_zero(params, 9e5)
        sizes = []
        sign = markovianity._increasing_lanes  # the bisection's one call per halving
        monkeypatch.setattr(markovianity, "_increasing_lanes", lambda kappa, disc, pos, t: sizes.append(t.size) or sign(kappa, disc, pos, t))

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

    def test_halvings_stay_inside_their_scanned_brackets(self, monkeypatch):
        # every midpoint lies inside a bracket whose ends the scan checked, so a halving checks no time
        brackets, halvings, checks = [], [], []
        bisect, check = markovianity._bisect, analytic._check_times

        def spied(lo, hi, width, upper):
            def counted(active, mid):
                checked = len(checks)
                up = upper(active, mid)
                halvings.append((active, mid, len(checks) - checked))
                return up

            brackets.append((np.array(lo), np.array(hi)))
            return bisect(lo, hi, width, counted)

        monkeypatch.setattr(markovianity, "_bisect", spied)
        monkeypatch.setattr(analytic, "_check_times", lambda *args: checks.append(args) or check(*args))
        points = [ModelParams(1.0, float(kappa)) for kappa in np.linspace(0.0, 8.0, 17)] + [ModelParams(1.0, 4.0)]
        markovianity._detect_many(_points(points), [30.0] * 17 + [2000.0])
        ((lo, hi),) = brackets
        assert len(lo) > 1102 and len(halvings) > 20
        for active, mid, checked in halvings:
            assert checked == 0
            assert np.all((lo[active] < mid) & (mid < hi[active]))


class TestBlpNumeric:
    def test_zero_at_and_above_threshold(self):
        for kappa in (8.0, 12.0):
            result = blp_numeric(ModelParams(1.0, kappa), n_pairs=2)
            assert result.value == 0.0
            assert result.segments.shape == (0, 2)

    def test_default_horizon_windows_match_predicted(self):
        params = ModelParams(1.0, 4.0)
        result = blp_numeric(params, n_pairs=8, seed=5)
        assert not math.isinf(result.tail_bound)
        assert result.value == pytest.approx(blp_analytic(params), abs=1e-3)
        predicted = increase_intervals(params, len(result.segments))
        for (lo, hi), (t_lo, t_hi) in zip(result.segments, predicted):
            assert hi == pytest.approx(t_hi, abs=1e-6)

    def test_matches_analytic(self):
        params = ModelParams(1.0, 4.0)
        result = blp_numeric(params, n_pairs=8, seed=3)
        assert result.value == pytest.approx(blp_analytic(params), abs=1e-3)
        assert abs(result.value - blp_analytic(params)) <= result.tail_bound * 1.01 + 1e-12

    def test_divergent_case_counts_windows(self):
        result = blp_numeric(ModelParams(1.0, 0.0), horizon=10.0, n_pairs=0)
        assert math.isinf(result.tail_bound)
        assert len(result.segments) == 6  # windows end at n*pi/2 <= 10
        assert result.value == pytest.approx(len(result.segments), abs=1e-6)
        # per-window increment is 1 for the optimal pair when kappa = 0
        assert result.value / len(result.segments) == pytest.approx(1.0, abs=1e-6)

    def test_divergent_requires_explicit_horizon(self):
        from qubitbath.errors import DegenerateModelError

        with pytest.raises(DegenerateModelError):
            blp_numeric(ModelParams(1.0, 0.0))

    @pytest.mark.parametrize(
        "xi, kappa, horizon", [(1.0, 3.0, None), (1.0, 7.9, None), (2.0, 1.0, None), (1.0, 0.0, 10.0)]
    )
    def test_random_pairs_never_beat_optimal(self, xi, kappa, horizon):
        params = ModelParams(xi, kappa)
        result = blp_numeric(params, horizon=horizon, n_pairs=64, seed=11)
        # the optimal pair's distance is |c|: its measure telescopes |c| over the windows
        optimal = float(np.diff(np.abs(coherence_factor(params, result.segments))).sum())
        assert result.value == optimal
        assert max(result.random_values) <= optimal + 1e-9

    def test_reads_the_kernel_once_for_all_pairs(self, monkeypatch):
        shapes = []
        kernel = analytic._kernel

        def counted(xi, kappa, t, *owner):
            shapes.append(np.shape(t))
            return kernel(xi, kappa, t, *owner)

        for module in (analytic, markovianity):  # the edges are markovianity's; the detector reads the increase sign
            monkeypatch.setattr(module, "_kernel", counted)
        result = blp_numeric(ModelParams(1.0, 4.0), n_pairs=16)
        # c at both edges of every window is one call
        assert [s for s in shapes if len(s) != 1] == [(len(result.segments), 2)]

    def test_segments_are_the_read_only_detector_array(self):
        params = ModelParams(1.0, 4.0)
        result = blp_numeric(params, n_pairs=0)
        assert result.segments.shape == (len(result.segments), 2)
        assert not result.segments.flags.writeable
        assert np.array_equal(result.segments, detect_increase_segments(params, result.horizon))

    def test_pair_count_limit(self, monkeypatch):
        monkeypatch.setattr(markovianity, "MAX_PAIRS", 2)
        assert len(blp_numeric(ModelParams(1.0, 4.0), n_pairs=2).random_values) == 2
        for n_pairs in (-1, 3):
            with pytest.raises(ValidationError, match="n_pairs"):
                blp_numeric(ModelParams(1.0, 4.0), n_pairs=n_pairs)

    @pytest.mark.usefixtures("alarm")
    def test_max_pairs_within_time_and_memory(self):
        # the pairs are one (MAX_PAIRS, 3) array of differences, scored one
        # (windows, 2) temporary at a time; a (pairs x windows) array or a
        # state object per draw exceeds this budget
        tracemalloc.start()
        try:
            result = blp_numeric(ModelParams(1, 0.5), n_pairs=markovianity.MAX_PAIRS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.random_values) == markovianity.MAX_PAIRS
        assert peak <= 2_500_000

    def test_deterministic_for_seed(self):
        params = ModelParams(1.0, 5.0)
        a = blp_numeric(params, n_pairs=16, seed=42)
        b = blp_numeric(params, n_pairs=16, seed=42)
        assert a.random_values == b.random_values

    def test_scan_over_point_budget_raises_before_allocating(self, monkeypatch):
        # kappa = 1e-6 asks for a 5.5e9-point grid; the scan lays its grids end to end
        # with np.cumsum before it reads the first window
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "cumsum", refuse)
        with pytest.raises(ValidationError, match="blp_analytic.*blp_tail_bound"):
            blp_numeric(ModelParams(1.0, 1e-6), n_pairs=0)

    def test_scan_budget_admits_kappa_1e_3(self, monkeypatch):
        # 5.5e6 points: admitted, so the grids are laid out (and stopped right there)
        class Admitted(Exception):
            pass

        def admitted(sizes):
            raise Admitted(*sizes.tolist())

        monkeypatch.setattr(np, "cumsum", admitted)
        with pytest.raises(Admitted) as info:
            blp_numeric(ModelParams(1.0, 1e-3), n_pairs=0)
        assert 5_000_000 < info.value.args[0] <= markovianity.MAX_SCAN_POINTS

    def test_scan_budget_edge(self, monkeypatch):
        params = ModelParams(1.0, 9.0)  # step 0.01: horizon 1 is 101 points
        monkeypatch.setattr(markovianity, "MAX_SCAN_POINTS", 101)
        assert detect_increase_segments(params, 1.0).shape == (0, 2)
        with pytest.raises(ValidationError):
            detect_increase_segments(params, 1.001)
        with pytest.raises(ValidationError):
            detect_increase_segments(params, math.inf)

    def test_telescoped_increase_equals_quadrature(self):
        # independent oracle: integrate max(d', 0) by fine trapezoidal quadrature
        params = ModelParams(1.0, 4.0)
        horizon = increase_intervals(params, 2)[-1, 1] + 0.2
        t = np.linspace(0, horizon, 200001)
        d = evolved_trace_distance(params, QubitState(0.0, 0.0, 1.0), QubitState(0.0, 0.0, -1.0), t)
        rates = np.diff(d) / np.diff(t)
        quadrature = float(np.sum(np.clip(rates, 0, None) * np.diff(t)))
        result = blp_numeric(params, horizon=horizon, n_pairs=0)
        assert result.value == pytest.approx(quadrature, abs=1e-4)


def _hex(arrays):
    return [[v.hex() for v in np.ravel(a).tolist()] for a in arrays]


class TestBatchedScans:
    """The batched scans against their one-point calls, bit for bit."""

    @staticmethod
    def same_detection(points, horizons):
        batched = markovianity._detect_many(_points(points), horizons)
        single = [detect_increase_segments(p, h) for p, h in zip(points, horizons)]
        assert [s.shape for s in batched] == [s.shape for s in single]
        assert _hex(batched) == _hex(single)
        return batched

    def test_explicit_cases(self):
        trailing = ModelParams(1.0, 4.0)
        t_lo, t_hi = increase_intervals(trailing, 2)[1]
        cases = [
            (ModelParams(1.0, 12.0), 5.0),  # overdamped: no crossing
            (ModelParams(1.0, 0.0), 10.0),  # kappa = 0 with an explicit horizon
            (trailing, 0.5 * (t_lo + t_hi)),  # a rise closed at the horizon
            (ModelParams(0.5, 1.0), 120.0),  # 12,001 points: longer than one window, split in two
            (ModelParams(2.0, 3.0), 15.0),
        ]
        batched = self.same_detection(*zip(*cases))
        assert batched[0].shape == (0, 2) and len(batched[1]) == 6
        assert batched[2][-1, 1] == cases[2][1]
        assert markovianity._SLICE_POINTS < 12_001

    def test_grids_straddling_a_slice_boundary(self, monkeypatch):
        # four grids of 3,001 points: whole grids go two to a slice, none is split
        points = [ModelParams(1.0, kappa) for kappa in (1.0, 2.0, 4.0, 6.0)]
        horizons = [30.0] * 4
        sizes = []
        sign = analytic._increasing_lanes  # the scan's one call per slice
        monkeypatch.setattr(analytic, "_increasing_lanes", lambda kappa, disc, pos, t: sizes.append(t.size) or sign(kappa, disc, pos, t))
        self.same_detection(points, horizons)
        assert sizes[:2] == [6002, 6002]  # the two slice scans of the batched call

    def test_leading_fall_is_dropped(self, monkeypatch):
        # the real signal is 0 at t = 0; a stand-in sign whose signal is
        # cos(xi*t) starts positive, so the first sign change is a fall
        def cosine(kappa, disc, pos, t):  # each lane's xi from its kappa and disc = kappa**2 - 64*xi**2
            return np.cos(np.sqrt((kappa * kappa - disc) / 64.0) * t) > 0

        for module in (analytic, markovianity):  # the scan's sign is analytic's, the bisection's markovianity's
            monkeypatch.setattr(module, "_increasing_lanes", cosine)
        points = [ModelParams(1.0, 12.0), ModelParams(2.0, 20.0)]
        batched = self.same_detection(points, [10.0, 10.0])
        assert batched[0][0, 0] == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert batched[1][0, 0] == pytest.approx(0.75 * math.pi, abs=1e-9)

    def test_over_limit_horizon_is_refused_before_any_grid(self):
        # 1,000,001 points (8 MB per float array) twice, then a horizon over MAX_SCAN_POINTS
        points = [ModelParams(1.0, 9.0)] * 3
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="over the limit"):
                markovianity._detect_many(_points(points), [10_000.0, 10_000.0, 1e6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_blp_many_equals_blp_numeric_on_the_readme_sweep(self):
        points = [ModelParams(1.0, float(kappa)) for kappa in np.linspace(0.0, 8.0, 17)]
        horizons = [10.0] + [None] * 16  # kappa = 0 diverges and needs one
        batched = markovianity._blp_many(_points(points), horizons, 16, 0)
        for params, horizon, result in zip(points, horizons, batched):
            single = blp_numeric(params, horizon=horizon, n_pairs=16, seed=0)
            for name in ("value", "tail_bound", "horizon"):
                assert getattr(result, name).hex() == getattr(single, name).hex()
            assert _hex([result.random_values, result.segments]) == _hex([single.random_values, single.segments])
            assert not result.segments.flags.writeable

    def test_blp_many_sums_as_the_per_point_tail(self):
        # the oracle is the per-point tail that the array pass replaced: c at one point's own
        # windows and np.diff(...).sum() for the optimal pair and for each random pair; the
        # counts run from 0 to 352 windows (pairwise sums from 8 on, recursive from 128 on),
        # and the ratio kappa/|xi| = 2 gives three points the same count, one row array
        points = [ModelParams(1.0, k) for k in (0.1, 0.3, 1.0, 2.0, 7.9, 9.0)]
        points += [ModelParams(2.0, 4.0), ModelParams(-0.5, 1.0), ModelParams(3.0, 1.0)]
        results = markovianity._blp_many(_points(points), [None] * len(points), 5, 3)
        differences = markovianity._random_differences(3, 5)
        counts = [len(r.segments) for r in results]
        assert min(counts) == 0 and max(counts) > 128 and counts.count(counts[3]) == 3
        for params, result in zip(points, results):
            c_edges = markovianity._kernel(params.xi, params.kappa, result.segments)[0]
            optimal = float(np.diff(np.abs(c_edges)).sum())
            randoms = tuple(float(np.diff(markovianity._trace_distance(d, c_edges)).sum()) for d in differences)
            assert [v.hex() for v in result.random_values] == [v.hex() for v in randoms]
            assert result.value.hex() == max((optimal, *randoms)).hex()

    def test_witness_many_equals_the_one_point_witness(self):
        points = [ModelParams(xi, f * 8.0 * xi) for xi in (0.25, 1.3) for f in np.linspace(0.0, 1.9, 20).tolist()]
        assert markovianity._witness_many(_points(points)) == [cp_divisibility_witness(p) for p in points]

    def test_witness_grids_equal_the_per_point_linspaces(self):
        # one linspace over the horizons of verify's criteria grid gives every point its own 401 times
        xis, fractions = np.linspace(0.25, 2.0, 20).tolist(), np.linspace(0.0, 1.9, 20).tolist()
        horizons = [reference_witness_horizon(ModelParams(xi, f * 8.0 * xi)) for xi in xis for f in fractions]
        grids = np.linspace(0.0, np.array(horizons), 401, axis=-1)
        assert np.array_equal(grids, np.array([np.linspace(0.0, horizon, 401) for horizon in horizons]))


def reference_grid_size(params, horizon):
    """The points of a point's scan grid: 200 per oscillation period, at most max(0.01, 0.0025/|xi|) apart."""
    step = max(0.01, 0.0025 / abs(params.xi)) if params.xi else 0.01
    if params.discriminant < 0:
        step = min(step, 8.0 * math.pi / math.sqrt(-params.discriminant) / 200.0)
    return math.ceil(horizon / step) + 1


def reference_scan(points, horizons):
    """The whole-grid scan that the windowed one replaced: each point's np.linspace grid, read in one
    kernel call with its point's scalars, and its sign changes bisected and paired per point."""
    out = []
    for params, horizon in zip(points, horizons):
        times = np.linspace(0.0, horizon, reference_grid_size(params, horizon))
        positive = markovianity._increasing(params.xi, params.kappa, times)
        idx = np.flatnonzero(positive[1:] != positive[:-1])
        owner = np.zeros(idx.size, dtype=int)
        edges = _refine_crossings(_points([params]), owner, times[idx], times[idx + 1], positive[idx + 1])
        if idx.size and not positive[idx[0] + 1]:  # a leading fall
            edges = edges[1:]
        if edges.size % 2:  # a trailing rise
            edges = np.append(edges, horizon)
        out.append(edges.reshape(-1, 2))
    return out


class TestWindowedScan:
    """The windows of _detect_many against reference_scan, bit for bit."""

    @staticmethod
    def same_as_reference(points, horizons):
        windowed = markovianity._detect_many(_points(points), horizons)
        reference = reference_scan(points, horizons)
        assert [s.shape for s in windowed] == [s.shape for s in reference]
        assert _hex(windowed) == _hex(reference)
        return windowed

    def test_grids_around_the_window_size(self):
        # xi = 1 scans at the step 0.01: a horizon of (n - 1.5) * 0.01 is an n-point grid; one
        # grid of S + 1 points leaves a window of one lane, and 12,001 points split in two
        sizes = [markovianity._SLICE_POINTS + d for d in (-1, 0, 1)] + [12_001]
        points = [ModelParams(1.0, kappa) for kappa in (0.5, 1.0, 2.0, 3.0)]
        horizons = [(n - 1.5) * 0.01 for n in sizes]
        assert [reference_grid_size(p, h) for p, h in zip(points, horizons)] == sizes
        for p, h in zip(points, horizons):
            assert len(self.same_as_reference([p], [h])) == 1
        self.same_as_reference(points, horizons)

    def test_a_bracket_across_a_window_edge(self):
        # at kappa = 0.6 the signal of this 12,001-point grid changes sign between lanes S - 1 and S,
        # the last lane of the first window and the first of the second
        params, horizon, edge = ModelParams(1.0, 0.6), 119.995, markovianity._SLICE_POINTS
        times = np.linspace(0.0, horizon, reference_grid_size(params, horizon))
        positive = markovianity._increasing(params.xi, params.kappa, times)
        assert times.size == 12_001 and positive[edge - 1] != positive[edge]
        (segments,) = self.same_as_reference([params], [horizon])
        assert np.any((segments > times[edge - 1]) & (segments < times[edge]))

    @given(st.lists(st.tuples(st.sampled_from([1.0, -0.3, 0.1, 2.5]), st.floats(0.0, 1.5), st.floats(0.02, 150.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_ragged_batches(self, draws):
        # grids from 3 to about 24,000 points, whole ones packed together and long ones split
        points = [ModelParams(xi, f * 8.0 * abs(xi)) for xi, f, _ in draws]
        self.same_as_reference(points, [horizon for _, _, horizon in draws])

    def test_every_scan_call_reads_at_most_one_window(self, monkeypatch):
        # the 12,001-point grid was read in one kernel call, and so was the 550,001-point one below
        lanes, sign = [], analytic._increasing_lanes
        monkeypatch.setattr(analytic, "_increasing_lanes", lambda kappa, disc, pos, t: lanes.append(np.size(t)) or sign(kappa, disc, pos, t))
        monkeypatch.setattr(markovianity, "_refine_crossings", lambda points, owner, lo, hi, rising: lo)
        points, horizons = [ModelParams(1.0, 3.0), ModelParams(0.5, 1.0), ModelParams(1.0, 0.01)], [20.0, 120.0, 5500.0]
        markovianity._detect_many(_points(points), horizons)
        assert max(lanes) <= markovianity._SLICE_POINTS
        assert sum(lanes) == sum(reference_grid_size(p, h) for p, h in zip(points, horizons))  # no lane twice

    def test_long_scan_memory(self):
        # 550,001 points: the whole-grid scan held about 65 B per point (35.8 MB)
        detect_increase_segments(ModelParams(1.0, 0.01), 10.0)
        tracemalloc.start()
        try:
            segments = detect_increase_segments(ModelParams(1.0, 0.01), 5500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(segments) == 3501
        assert peak < 4_000_000


def reference_witness_horizon(params):
    """The default witness horizon of one point, as the per-point route computed it before the
    horizons became one array pass over the points."""
    if classify_regime(params) is Regime.UNDERDAMPED:
        return 1.5 * increase_intervals(params, 1)[0, 1]
    return 80.0 / max(params.kappa, 8.0 * abs(params.xi), 1.0)


def reference_witness(params, horizon, times, c):
    """The witness of one point from its grid ``times`` and c on it, one sub-interval ratio at a
    time over the valid ones: the per-point loop body that the array pass of _witness_many replaced."""
    resolved = np.abs(c) >= markovianity.MAP_SINGULARITY_TOL
    valid = resolved[:-1] & resolved[1:]
    min_eig, worst = math.inf, None
    if np.any(valid):
        ratios = np.abs(c[1:][valid] / c[:-1][valid])
        k = int(np.argmax(ratios))
        min_eig = float(_choi_min_eigenvalue(ratios[k]))
        idx = np.flatnonzero(valid)[k]
        worst = (float(times[idx]), float(times[idx + 1]))
    if min_eig < -markovianity.CP_EIGENVALUE_TOL:
        verdict = DivisibilityVerdict.NON_DIVISIBLE
    elif classify_regime(params) is Regime.UNDERDAMPED:
        verdict = DivisibilityVerdict.INCONCLUSIVE
    else:
        verdict = DivisibilityVerdict.DIVISIBLE
    return markovianity.DivisibilityWitness(verdict, min_eig, worst, len(times) - 1, int((~valid).sum()), float(horizon))


def reference_witnesses(points):
    out = []
    for params in points:
        horizon = reference_witness_horizon(params)
        times = np.linspace(0.0, horizon, 401)
        out.append(reference_witness(params, horizon, times, markovianity._kernel(params.xi, params.kappa, times)[0]))
    return out


# |xi| log-uniform over 60 decades, either sign, and kappa/(8|xi|) in [0, 2]
witness_points = st.builds(
    lambda e, negative, f: ModelParams((-1.0 if negative else 1.0) * 10.0**e, f * 8.0 * 10.0**e),
    st.floats(-30.0, 30.0), st.booleans(), st.floats(0.0, 2.0),
)


class TestPerPointHorizons:
    @given(witness_points)
    @settings(max_examples=60, deadline=None)
    def test_first_window_ends_equal_increase_intervals(self, params):
        if classify_regime(params) is not Regime.UNDERDAMPED:
            return
        (end,) = _points([params]).ends.tolist()
        assert end.hex() == increase_intervals(params, 1)[0, 1].hex()

    @given(st.lists(witness_points, max_size=30), st.lists(st.integers(0, 1000), max_size=30))
    @example([], [])
    @example([ModelParams(xi, f * 8.0 * abs(xi)) for xi in (0.25, -1.3, 2e7, 1e-30) for f in np.linspace(0.0, 1.9, 20).tolist()],
             [79, 0, 41, 41, 20])
    @settings(max_examples=60, deadline=None)
    def test_point_record_equals_the_per_point_values(self, points, picks):
        # every field against its one-point route, bit for bit, and a record's take against the record of the subset
        record = _points(points)
        under = [classify_regime(p) is Regime.UNDERDAMPED for p in points]
        assert record.params == tuple(points)
        assert _bits(_columns(record)) == _bits([
            [float(p.xi) for p in points],
            [float(p.kappa) for p in points],
            [p.discriminant for p in points],
            [p.discriminant > 0 for p in points],
            under,
            [increase_intervals(p, 1)[0, 1] if u else math.nan for p, u in zip(points, under)],
            [float(reference_witness_horizon(p)) for p in points],
        ])
        idx = [k % len(points) for k in picks] if points else []
        subset, fresh = record.take(idx), _points([points[k] for k in idx])
        assert subset.params == fresh.params
        assert _bits(_columns(subset)) == _bits(_columns(fresh))


def _columns(record):
    """Every array field of a point record, as a list."""
    return [column.tolist() for column in record[1:]]


def _bits(columns):
    """The columns with each float as its hex, so that equal means bit for bit (nan too)."""
    return [[v.hex() if isinstance(v, float) else v for v in column] for column in columns]


class TestBatchedWitness:
    """_witness_many's array pass against the per-point loop it replaced, whole witnesses with ==."""

    @given(st.lists(witness_points, min_size=1, max_size=45))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_point_loop(self, points):
        assert markovianity._SLICE_POINTS // 401 < 45  # some draws span two slices
        assert markovianity._witness_many(_points(points)) == reference_witnesses(points)

    def test_fixed_cases(self):
        # kappa = 0, both sides of the critical band and a point whose |c| underflows before its
        # first window (skipped sub-intervals), each at three couplings
        fractions = (0.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.999)
        points = [ModelParams(xi, f * 8.0 * abs(xi)) for f in fractions for xi in (1.0, -3e-5, 2e7)]
        batched = markovianity._witness_many(_points(points))
        assert batched == reference_witnesses(points)
        verdicts = [{(w.verdict, w.n_skipped > 0) for w in batched[k : k + 3]} for k in range(0, 12, 3)]
        assert verdicts[0] == {(DivisibilityVerdict.NON_DIVISIBLE, True)}
        assert verdicts[1] == verdicts[2] == {(DivisibilityVerdict.DIVISIBLE, False)}
        assert verdicts[3] == {(DivisibilityVerdict.INCONCLUSIVE, True)}

    def test_a_row_without_a_valid_sub_interval(self, monkeypatch):
        # a stand-in c that vanishes on every lane of the first point: no ratio, an infinite minimum
        kernel = markovianity._kernel
        monkeypatch.setattr(markovianity, "_kernel", lambda xi, kappa, t: (kernel(xi, kappa, t)[0] * (xi != 1.0), None))
        points = [ModelParams(1.0, 4.0), ModelParams(2.0, 4.0)]
        batched = markovianity._witness_many(_points(points))
        assert batched == reference_witnesses(points)
        assert batched[0].min_choi_eigenvalue == math.inf and batched[0].worst_interval is None
        assert batched[0].n_skipped == 400 and batched[1].worst_interval is not None


class TestAssess:
    def test_markovian_report(self):
        # every Markovianity verdict agrees at a point above the threshold
        params = ModelParams(1.0, 10.0)
        assert cp_divisibility_witness(params).verdict is DivisibilityVerdict.DIVISIBLE
        result = blp_numeric(params, n_pairs=2)
        assert result.value == 0.0
        assert blp_analytic(params) == 0.0
        assert result.segments.shape == (0, 2)


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
    @given(st.floats(-150.0, 3.0), st.booleans(), st.floats(-12.0, -3.0))
    # an absolute width of tol put these at relative errors of 50%, 0.39% and 12.5%
    @example(-150.0, False, -6.0)
    @example(-5.0, False, -6.0)
    @example(math.log10(3e-7), True, -6.0)
    @settings(max_examples=200, deadline=None)
    def test_relative_error_is_within_tol_at_any_coupling(self, exponent, negative, tol_exponent):
        xi = (-1.0 if negative else 1.0) * max(10.0**exponent, MIN_RATE)
        tol = 10.0**tol_exponent
        star = threshold_scan(xi, 4.0 * abs(xi), 20.0 * abs(xi), tol=tol)
        assert abs(star - 8.0 * abs(xi)) <= tol * 8.0 * abs(xi)

    @pytest.mark.usefixtures("alarm")
    @pytest.mark.parametrize("xi", [25.0, 100.0, 1e10])
    def test_lands_on_threshold_not_band_edge(self, xi):
        # not the lower edge of the REGIME_TOL band, 4e-8*|xi| below 8|xi|,
        # which has_information_backflow counts as backflow-free
        tol = 1e-6
        star = threshold_scan(xi, 4.0 * xi, 20.0 * xi, tol=tol)
        assert abs(star - 8.0 * xi) <= max(tol, 2 * math.ulp(8.0 * xi))
