"""Each reproducibility criterion as a pinned test, one pass/fail line each.

The checks themselves live in qubitbath.acceptance (shared with the
``qubitbath verify`` subcommand); this module runs them once at collection
scope and asserts every one of them, so `pytest tests/test_acceptance.py -s`
prints the per-criterion summary table.
"""

import numpy as np
import pytest

from qubitbath import acceptance
from qubitbath.acceptance import ALL_CHECK_NAMES, run_acceptance
from qubitbath.lindblad import ModelParams, build_generator


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


def test_negative_control_wrong_sign_in_generator():
    # a sign flip in one coupling entry must be caught and named
    def broken_builder(params: ModelParams) -> np.ndarray:
        matrix = build_generator(params).copy()
        matrix[3, 6] = -matrix[3, 6]
        return matrix

    broken = {r.name: r for r in run_acceptance(generator_builder=broken_builder)}
    assert not broken["generator_fidelity"].passed
    assert "generator" in broken["generator_fidelity"].detail
    # checks that do not involve the generator stay green
    assert broken["superoperator_table"].passed
    assert broken["threshold_reproduction"].passed


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
