"""Each reproducibility criterion as a pinned test, one pass/fail line each.

The checks themselves live in qubitbath.acceptance (shared with the
``qubitbath verify`` subcommand); this module runs them once at collection
scope and asserts every one of them, so `pytest tests/test_acceptance.py -s`
prints the per-criterion summary table.
"""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from qubitbath import acceptance, analytic, markovianity, oracles
from qubitbath.acceptance import ALL_CHECK_NAMES, run_acceptance
from qubitbath.lindblad import ModelParams, TimeGrid
from qubitbath.operator_space import PAULIS_2Q


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_acceptance()}


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.name}: {status} ({result.seconds:.2f} s < {result.budget:g} s) {result.detail}")
    assert result.passed, result.detail
    assert result.seconds < result.budget


def test_all_criteria_are_present(results):
    assert set(results) == set(ALL_CHECK_NAMES)


#: SHA-256 of the nine "name<TAB>passed<TAB>detail" lines of run_acceptance(seed=0), in spec
#: order and joined by newlines, computed with numpy 2.4.6 on CPython 3.11 (x86-64), as the
#: output digests are; ``passed`` prints as True whether it is a bool or a numpy bool
VERIFY_DETAILS_SHA256 = "cd68789d2ce8eb3dd98264df34282214220840d1ff16717d5a41269b569e1503"


def test_verify_details_are_pinned(results):
    # a refactor of the routes under verify leaves every number it prints unchanged
    assert list(results) == list(ALL_CHECK_NAMES)
    text = "\n".join(f"{r.name}\t{r.passed}\t{r.detail}" for r in results.values())
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DETAILS_SHA256


def test_criterion_1_generator_fidelity(results):
    _report(results["generator_fidelity"])


def test_criterion_2_analytic_numeric_oracle(results):
    _report(results["analytic_numeric_oracle"])


def test_criterion_3_threshold_reproduction(results):
    _report(results["threshold_reproduction"])


def test_criterion_4_blp_closed_form(results):
    _report(results["blp_closed_form"])


def test_criterion_5_criteria_agreement(results):
    _report(results["criteria_agreement"])


def test_criterion_6_bath_correlation(results):
    _report(results["bath_correlation"])


def test_criterion_7_contour_sign_structure(results):
    _report(results["contour_sign_structure"])


def test_criterion_8_conservation(results):
    _report(results["conservation"])


def test_criterion_9_superoperator_table(results):
    _report(results["superoperator_table"])


def test_loose_tolerance_passes():
    results = run_acceptance(tol=1e-2)
    assert all(r.passed for r in results)
    oracle = next(r for r in results if r.name == "analytic_numeric_oracle")
    assert "0.01" in oracle.detail or "tol 0.01" in oracle.detail


def test_disagreement_names_its_point_in_plain_floats(monkeypatch):
    # flip the rate-sign verdict at one grid point: exactly one disagreement
    backflow = acceptance.has_information_backflow
    flipped = ModelParams(0.25, 0.0)
    monkeypatch.setattr(acceptance, "has_information_backflow", lambda p: backflow(p) != (p == flipped))
    result = acceptance._check_criteria_agreement()
    assert not result.passed
    assert result.detail == "1 disagreements, first: (0.25, 0.0, 'rate=True cp=False blp=False')"
    assert "np.float64" not in result.detail


def test_wrong_rate_verdict_at_an_overdamped_point_is_reported(monkeypatch):
    # the measure's horizon follows the regime, not the rate verdict under test
    backflow = acceptance.has_information_backflow
    flipped = ModelParams(0.25, 1.9 * 8.0 * 0.25)
    monkeypatch.setattr(acceptance, "has_information_backflow", lambda p: backflow(p) != (p == flipped))
    result = acceptance._check_criteria_agreement()
    assert result.detail == "1 disagreements, first: (0.25, 3.8, 'rate=False cp=True blp=True')"


def test_criteria_agreement_scans_in_batches(monkeypatch):
    # one point at a time, markovianity made 6,600 kernel passes here (5,800
    # detection, 400 edge and 400 witness); batched it makes about 80
    passes = []
    kernel, sign = analytic._kernel, analytic._increasing_lanes
    # the scan's sign is analytic's, the bisection's, the witness and the edges markovianity's
    monkeypatch.setattr(markovianity, "_kernel", lambda xi, kappa, t, *owner: passes.append(np.size(t)) or kernel(xi, kappa, t, *owner))
    for module in (analytic, markovianity):
        monkeypatch.setattr(module, "_increasing_lanes", lambda kappa, disc, pos, t: passes.append(np.size(t)) or sign(kappa, disc, pos, t))
    assert acceptance._check_criteria_agreement().passed
    assert len(passes) <= 100
    assert max(passes) <= markovianity._SLICE_POINTS


def test_verify_stacks_its_maps_and_bath_propagators(monkeypatch):
    # one kernel pass for the 400 worst-interval maps (400 pairs of one-point calls before)
    # and one 201-point trajectory per bath rate (201 exponentials each before)
    kernel_rows, grids = [], []
    kernel, propagate = oracles._kernel, acceptance.expm_trajectory
    monkeypatch.setattr(oracles, "_kernel", lambda xi, kappa, t: kernel_rows.append(np.shape(t)) or kernel(xi, kappa, t))
    monkeypatch.setattr(acceptance, "expm_trajectory", lambda gen, v0, grid: grids.append(grid) or propagate(gen, v0, grid))
    assert acceptance._check_criteria_agreement().passed
    assert acceptance._check_bath_correlation().passed
    assert kernel_rows == [(400, 2)]
    assert grids == [TimeGrid(0.05, 201)] * 3


def test_criteria_agreement_memory():
    # grids are built one slice at a time: holding every grid alive peaked at 3.2 MB
    acceptance._check_criteria_agreement()
    tracemalloc.start()
    try:
        result = acceptance._check_criteria_agreement()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 2_000_000


def _eigvalsh_minima(coeffs):
    # the generic route: every density matrix built by the einsum over all 16 Pauli products
    return np.linalg.eigvalsh(np.einsum("nk,kab->nab", coeffs, PAULIS_2Q))[:, 0]


def _coefficients(rhos):
    # the coherence 16-vectors v_k = Tr(rho PAULIS_2Q[k]) / 4 of (n, 4, 4) Hermitian matrices
    return np.einsum("nab,kba->nk", rhos, PAULIS_2Q).real / 4.0


#: |closed form - eigvalsh| for unit-trace states: both routes round at a few eps of ||rho|| <= 1
MIN_EIGENVALUE_ROUNDING = 16.0 * np.finfo(float).eps


def _x_states(rng, n):
    # unit-trace X states: each 2x2 block [[p, w], [conj(w), q]] with |w|**2 = f*p*q, f in [0, 1];
    # a fifth of the blocks pure (f = 1) and a fifth of the weights 0, so ranks 1 to 4 all occur
    weights = rng.random((n, 4))
    weights[rng.random((n, 4)) < 0.2] = 0.0
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    weights /= weights.sum(axis=1, keepdims=True)
    fraction = np.where(rng.random((n, 2)) < 0.2, 1.0, rng.random((n, 2)))
    phase = np.exp(2j * np.pi * rng.random((n, 2)))
    rhos = np.zeros((n, 4, 4), dtype=complex)
    for block, (a, b) in enumerate(((0, 3), (1, 2))):
        p, q = weights[:, 2 * block], weights[:, 2 * block + 1]
        rhos[:, a, a], rhos[:, b, b] = p, q
        rhos[:, a, b] = np.sqrt(fraction[:, block] * p * q) * phase[:, block]
        rhos[:, b, a] = rhos[:, a, b].conj()
    return rhos


class TestMinimumEigenvalue:
    """The closed-form X-state minimum less the Weyl bound, against eigvalsh of the einsum."""

    def test_oracle_trajectories_match_eigvalsh(self):
        # they fill coefficients 0, 3, 6, 9, 12 and 15 only: X states, so the bound is exact
        for _, _, traj in acceptance._oracle_trajectories():
            assert not traj[:, acceptance._OFF_X_TERMS].any()
            gap = np.abs(acceptance._min_eigenvalue_bound(traj) - _eigvalsh_minima(traj))
            assert gap.max() <= MIN_EIGENVALUE_ROUNDING

    def test_x_states_match_eigvalsh(self):
        rhos = _x_states(np.random.default_rng(25), 3000)
        ranks = np.linalg.matrix_rank(rhos, tol=1e-12)
        assert set(ranks.tolist()) == {1, 2, 3, 4}
        coeffs = _coefficients(rhos)
        minima = _eigvalsh_minima(coeffs)
        assert np.abs(acceptance._min_eigenvalue_bound(coeffs) - minima).max() <= MIN_EIGENVALUE_ROUNDING
        assert np.abs(minima[ranks < 4]).max() <= MIN_EIGENVALUE_ROUNDING  # the pure and rank-deficient ones

    def test_is_a_lower_bound_with_other_terms(self):
        # random states of every rank, with all 16 coefficients filled: never above the minimum
        rng = np.random.default_rng(26)
        rhos = []
        for rank in (1, 2, 3, 4):
            g = rng.standard_normal((1000, 4, rank)) + 1j * rng.standard_normal((1000, 4, rank))
            rho = g @ g.conj().transpose(0, 2, 1)
            rhos.append(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])
        coeffs = _coefficients(np.concatenate(rhos))
        assert (coeffs != 0.0).all()
        bound = acceptance._min_eigenvalue_bound(coeffs)
        assert (bound <= _eigvalsh_minima(coeffs) + MIN_EIGENVALUE_ROUNDING).all()

    def test_conservation_memory(self):
        # real temporaries of at most (2000, 8) per trajectory (40 eigvalsh stacks of 256 density
        # matrices peaked at 297 KB); a larger temporary would raise verify's peak RSS
        trajectories = acceptance._oracle_trajectories()
        acceptance._check_conservation(trajectories)
        tracemalloc.start()
        try:
            result = acceptance._check_conservation(trajectories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak <= 512_000


def test_verify_calls_eigvalsh_once(monkeypatch):
    # the generic Choi operators of criteria_agreement, in one stack; conservation made 40 more calls
    # when it took its minima from density matrices, 256 at a time
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs: calls.append(np.shape(a)) or eigvalsh(a, *args, **kwargs))
    assert all(r.passed for r in run_acceptance())
    assert calls == [(400, 4, 4)]


def test_verify_kernel_calls(monkeypatch):
    # every module that binds the kernel or the detector's increase sign counts into one list: 261
    # calls per run when each check read its points one by one, 125 with the array passes, for the
    # same 492,311 lanes
    calls = []
    kernel, sign = analytic._kernel, analytic._increasing_lanes

    def counted(*args):  # the lanes each call evaluates
        c, dc = kernel(*args)
        calls.append(c.size)
        return c, dc

    def counted_sign(*args):
        rising = sign(*args)
        calls.append(rising.size)
        return rising

    for module in (analytic, markovianity, oracles):
        monkeypatch.setattr(module, "_kernel", counted)
    for module in (analytic, markovianity):
        monkeypatch.setattr(module, "_increasing_lanes", counted_sign)
    assert all(r.passed for r in run_acceptance())
    assert len(calls) <= 125
    assert sum(calls) == 492_311


def test_verify_computes_point_terms_once_per_point(monkeypatch):
    # squares, discriminants and regimes per point, read by the lanes: when each lane computed its
    # own, one run squared 527,319 values with float_power and decided the regime 2,892 times.  When
    # the batched witness and measure and the criteria check each decided their points' regimes, one
    # run made 2,107 decisions and 5,721 squares; the point record decides each point once
    squared, decided, recorded = [], [], []
    power, classify = np.float_power, analytic.classify_regime
    monkeypatch.setattr(np, "float_power", lambda x, *args: squared.append(np.size(x)) or power(x, *args))
    for module in list(sys.modules.values()):
        if module.__name__.startswith("qubitbath") and vars(module).get("classify_regime") is classify:
            counts = recorded if module is markovianity else decided
            monkeypatch.setattr(module, "classify_regime", lambda p, counts=counts: counts.append(p) or classify(p))
    assert all(r.passed for r in run_acceptance())
    assert sum(squared) <= 4_105
    assert len(decided) + len(recorded) <= 1_307
    # the records of the criteria grid (400 points), blp_closed_form's four rates and its threshold point
    assert len(recorded) == 405


def test_criteria_agreement_fails_on_a_short_witness_list(monkeypatch):
    # a witness list shorter than the grid ended the verdict loop early, and the check passed on 10 points
    witness_many = acceptance._witness_many
    monkeypatch.setattr(acceptance, "_witness_many", lambda points: witness_many(points)[:10])
    result = acceptance._check_criteria_agreement()
    assert not result.passed
    assert result.detail == "judged 10 of the 400 grid points"


def test_contour_sign_structure_fails_without_rows(monkeypatch):
    # windows that yield nothing judged no row, and the check reported all 57
    monkeypatch.setattr(acceptance, "_abs_derivative_windows", lambda *args: iter(()))
    result = acceptance._check_contour_sign_structure()
    assert not result.passed
    assert result.detail == "judged 0 of the 57 rows"
