"""Self-contained acceptance checks behind ``qubitbath verify`` and the test suite.

Each check pins one reproducibility claim with an explicit tolerance and a
runtime budget.  Reference data that the checks compare against (the 16x16
generator coefficient table and the 16 sandwich-superoperator matrices) is
transcribed here by hand, independent of the construction code under test.
This is the one production module that imports :mod:`qubitbath.oracles`:
the bath dissipator matrix and the generic Choi operator are second routes
inside ``verify``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import (
    BLP_REL_TAIL,
    abs_coherence_derivative,
    bath_correlation,
    blp_analytic,
    coherence_factor,
    has_information_backflow,
    increase_intervals,
)
from .lindblad import ModelParams, TimeGrid, build_generator, expm_trajectory, _expm
from .markovianity import (
    DivisibilityVerdict,
    blp_numeric,
    cp_divisibility_witness,
    threshold_scan,
)
from .operator_space import (
    PAULIS_2Q,
    PauliLabel,
    coherence4,
    initial_joint_vector,
    sandwich_superop_rep,
)
from .oracles import bath_dissipator_matrix, choi_min_eigenvalue, intermediate_map

__all__ = [
    "CheckResult",
    "reference_generator_matrix",
    "reference_sandwich_table",
    "run_acceptance",
    "ALL_CHECK_NAMES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float


def reference_generator_matrix(xi: float, kappa: float) -> np.ndarray:
    """The published 16x16 coefficient table, transcribed entry by entry.

    Basis order is row-major (system index, bath index) over (I, x, y, z).
    """
    k = float(kappa)
    h = k / 2.0
    g = 2.0 * float(xi)
    m = np.zeros((16, 16))
    m[1, 1] = -h
    m[2, 2] = -h
    m[2, 7] = -g
    m[3, 0] = -k
    m[3, 3] = -k
    m[3, 6] = g
    m[5, 5] = -h
    m[6, 3] = -g
    m[6, 6] = -h
    m[7, 2] = g
    m[7, 4] = -k
    m[7, 7] = -k
    m[8, 13] = -g
    m[9, 9] = -h
    m[9, 12] = -g
    m[10, 10] = -h
    m[11, 8] = -k
    m[11, 11] = -k
    m[12, 9] = g
    m[13, 8] = g
    m[13, 13] = -h
    m[14, 14] = -h
    m[15, 12] = -k
    m[15, 15] = -k
    return m


def reference_sandwich_table() -> dict[tuple[str, str], np.ndarray]:
    """The 16 published matrices of the maps rho -> sigma_i rho sigma_j."""
    i = 1j
    table = {
        ("I", "I"): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ("I", "X"): [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, i], [0, 0, -i, 0]],
        ("I", "Y"): [[0, 0, 1, 0], [0, 0, 0, -i], [1, 0, 0, 0], [0, i, 0, 0]],
        ("I", "Z"): [[0, 0, 0, 1], [0, 0, i, 0], [0, -i, 0, 0], [1, 0, 0, 0]],
        ("X", "I"): [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -i], [0, 0, i, 0]],
        ("X", "X"): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        ("X", "Y"): [[0, 0, 0, -i], [0, 0, 1, 0], [0, 1, 0, 0], [i, 0, 0, 0]],
        ("X", "Z"): [[0, 0, i, 0], [0, 0, 0, 1], [-i, 0, 0, 0], [0, 1, 0, 0]],
        ("Y", "I"): [[0, 0, 1, 0], [0, 0, 0, i], [1, 0, 0, 0], [0, -i, 0, 0]],
        ("Y", "X"): [[0, 0, 0, i], [0, 0, 1, 0], [0, 1, 0, 0], [-i, 0, 0, 0]],
        ("Y", "Y"): [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        ("Y", "Z"): [[0, -i, 0, 0], [i, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        ("Z", "I"): [[0, 0, 0, 1], [0, 0, -i, 0], [0, i, 0, 0], [1, 0, 0, 0]],
        ("Z", "X"): [[0, 0, -i, 0], [0, 0, 0, 1], [i, 0, 0, 0], [0, 1, 0, 0]],
        ("Z", "Y"): [[0, i, 0, 0], [-i, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        ("Z", "Z"): [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    }
    return {key: np.array(rows, dtype=complex) for key, rows in table.items()}


def _timed(budget: float):
    def wrap(fn: Callable[..., tuple[bool, str]]):
        def run(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            passed, detail = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                passed = False
                detail += f"; exceeded runtime budget of {budget:g} s"
            return CheckResult(
                name=fn.__name__.removeprefix("_check_"),
                passed=passed,
                detail=detail,
                seconds=elapsed,
                budget=budget,
            )

        run.__name__ = fn.__name__
        return run

    return wrap


@_timed(budget=1.0)
def _check_generator_fidelity(generator_builder, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        xi = float(rng.uniform(-3.0, 3.0))
        kappa = float(rng.uniform(0.0, 20.0))
        built = generator_builder(ModelParams(xi, kappa))
        expected = reference_generator_matrix(xi, kappa)
        if not np.array_equal(built, expected):
            worst = max(worst, float(np.abs(built - expected).max()))
    if worst > 0.0:
        return False, f"generator deviates from the published table by {worst:.3e}"
    return True, "5 random parameter sets match the published table exactly"


_ORACLE_PARAMS = (
    ModelParams(1.0, 16.0),
    ModelParams(1.0, 8.0),
    ModelParams(1.0, 4.0),
    ModelParams(1.0, 0.0),
    ModelParams(0.5, 3.0),
)


def _oracle_trajectories(generator_builder):
    grid = TimeGrid(0.0, 20.0, 2000)
    times = grid.times()
    out = []
    for params in _ORACLE_PARAMS:
        gen = generator_builder(params)
        traj = expm_trajectory(gen, initial_joint_vector((0.0, 0.0, 1.0)), grid)
        out.append((params, times, traj))
    return out


@_timed(budget=10.0)
def _check_analytic_numeric_oracle(trajectories, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for params, times, traj in trajectories:
        z_numeric = 4.0 * traj[:, 12]
        z_analytic = coherence_factor(params, times)
        worst = max(worst, float(np.abs(z_numeric - z_analytic).max()))
    ok = worst <= tol
    return ok, f"max |closed form - propagated| = {worst:.3e} (tol {tol:g})"


@_timed(budget=10.0)
def _check_conservation(trajectories) -> tuple[bool, str]:
    worst_trace = worst_x = 0.0
    worst_eig = math.inf
    for params, times, traj in trajectories:
        worst_trace = max(worst_trace, float(np.abs(traj[:, 0] - 0.25).max()))
        worst_x = max(worst_x, float(np.abs(4.0 * traj[:, 4] - 0.0).max()))
        rhos = np.einsum("nk,kab->nab", traj, PAULIS_2Q)
        eigs = np.linalg.eigvalsh(rhos)
        worst_eig = min(worst_eig, float(eigs.min()))
    ok = worst_trace <= 1e-12 and worst_eig >= -1e-10 and worst_x <= 1e-10
    return ok, (
        f"trace dev {worst_trace:.2e} (<=1e-12), min eig {worst_eig:.2e} "
        f"(>=-1e-10), x drift {worst_x:.2e} (<=1e-10)"
    )


@_timed(budget=5.0)
def _check_threshold_reproduction(tol: float) -> tuple[bool, str]:
    worst = 0.0
    for xi in (0.25, 0.5, 1.0, 2.0):
        found = threshold_scan(xi, 4.0 * xi, 20.0 * xi, tol=tol)
        worst = max(worst, abs(found - 8.0 * abs(xi)))
    ok = worst <= tol
    return ok, f"max |kappa* - 8|xi|| = {worst:.3e} over xi in {{0.25, 0.5, 1, 2}}"


@_timed(budget=30.0)
def _check_blp_closed_form(gap_tol: float, seed: int) -> tuple[bool, str]:
    worst_gap = 0.0
    for kappa in (2.0, 4.0, 6.0, 7.5):
        params = ModelParams(1.0, kappa)
        analytic = blp_analytic(params)
        result = blp_numeric(params, n_pairs=8, seed=seed)
        gap = abs(result.value - analytic)
        if result.tail_bound > BLP_REL_TAIL * analytic * 1.001:
            return False, f"tail bound {result.tail_bound:.3e} not satisfied at kappa={kappa}"
        worst_gap = max(worst_gap, gap)
    boundary = blp_numeric(ModelParams(1.0, 8.0), n_pairs=4, seed=seed).value
    ok = worst_gap <= gap_tol and abs(boundary) <= 1e-9
    return ok, (
        f"max |numeric - analytic| = {worst_gap:.3e} (tol {gap_tol:g}); "
        f"value at the threshold = {boundary:.2e} (tol 1e-9)"
    )


@_timed(budget=60.0)
def _check_criteria_agreement() -> tuple[bool, str]:
    xis = np.linspace(0.25, 2.0, 20)
    fractions = np.linspace(0.0, 1.9, 20)
    disagreements = []
    for xi in xis.tolist():
        for f in fractions.tolist():
            kappa = f * 8.0 * xi
            params = ModelParams(xi, kappa)
            markov_rate = not has_information_backflow(params)
            witness = cp_divisibility_witness(params)
            if witness.verdict is DivisibilityVerdict.INCONCLUSIVE:
                disagreements.append((xi, kappa, "inconclusive witness"))
                continue
            # the closed-form Choi minimum against the generic Choi operator
            generic = choi_min_eigenvalue(intermediate_map(params, *witness.worst_interval))
            if abs(generic - witness.min_choi_eigenvalue) > 1e-12:
                disagreements.append(
                    (xi, kappa, f"Choi minimum {witness.min_choi_eigenvalue:.3e}, generic {generic:.3e}")
                )
            markov_cp = witness.verdict is DivisibilityVerdict.DIVISIBLE
            if kappa == 0.0:
                markov_blp = False  # divergent measure
            else:
                horizon = None
                if not markov_rate:
                    # the first window already decides; no need for the tail
                    horizon = 1.25 * increase_intervals(params, 1)[0].t_hi
                value = blp_numeric(params, horizon=horizon, n_pairs=0).value
                markov_blp = value < 1e-6
            if not markov_rate == markov_cp == markov_blp:
                disagreements.append(
                    (xi, kappa, f"rate={markov_rate} cp={markov_cp} blp={markov_blp}")
                )
    ok = not disagreements
    detail = (
        "all three criteria agree on the 20x20 grid"
        if ok
        else f"{len(disagreements)} disagreements, first: {disagreements[0]}"
    )
    return ok, detail


@_timed(budget=1.0)
def _check_bath_correlation() -> tuple[bool, str]:
    taus = np.linspace(0.0, 10.0, 201)
    sigma_x_coeffs = coherence4(np.array([[0, 1], [1, 0]], dtype=complex)).real
    worst = 0.0
    for kappa in (0.5, 2.0, 8.0):
        gen = bath_dissipator_matrix(kappa)
        for tau in taus:
            evolved = _expm(gen * tau) @ sigma_x_coeffs
            numeric = evolved[1]  # pairing <sigma_x, .> = the sigma_x coefficient
            worst = max(worst, abs(numeric - bath_correlation(kappa, float(tau))))
    ok = worst <= 1e-10
    return ok, f"max |numeric - exp(-kappa*tau/2)| = {worst:.3e} (tol 1e-10)"


@_timed(budget=10.0)
def _check_contour_sign_structure() -> tuple[bool, str]:
    xi = 1.0
    kappas = np.linspace(0.0, 14.0, 57)
    times = np.linspace(0.0, 10.0, 1001)
    problems = []
    for kappa in kappas:
        params = ModelParams(xi, float(kappa))
        values = abs_coherence_derivative(params, times)
        if not has_information_backflow(params):
            if values.max() > 1e-12:
                problems.append(f"kappa={kappa:g}: positive value {values.max():.2e}")
            continue
        for window in increase_intervals(params, 50):
            if window.t_hi > times[-1]:
                break
            inside = (times > window.t_lo) & (times < window.t_hi)
            if not np.any(values[inside] > 0.0):
                problems.append(
                    f"kappa={kappa:g}: no positive value in window {window.n}"
                )
    ok = not problems
    detail = "sign structure matches on all 57 rows" if ok else problems[0]
    return ok, detail


@_timed(budget=1.0)
def _check_superoperator_table() -> tuple[bool, str]:
    for (a, b), expected in reference_sandwich_table().items():
        built = sandwich_superop_rep(PauliLabel[a], PauliLabel[b])
        if not np.array_equal(built, expected):
            return False, f"s_{a}{b} deviates by {np.abs(built - expected).max():.3e}"
    return True, "all 16 sandwich matrices match the published table exactly"


ALL_CHECK_NAMES = (
    "generator_fidelity",
    "analytic_numeric_oracle",
    "threshold_reproduction",
    "blp_closed_form",
    "criteria_agreement",
    "bath_correlation",
    "contour_sign_structure",
    "conservation",
    "superoperator_table",
)


def run_acceptance(
    tol: float | None = None,
    generator_builder: Callable[[ModelParams], np.ndarray] = build_generator,
    seed: int = 0,
) -> list[CheckResult]:
    """Run every acceptance check and return the results in spec order.

    ``tol`` loosens the closed-form-vs-propagation and measure-gap
    tolerances, never below their defaults; the samplings stay the same.
    """
    oracle_tol = max(1e-8, tol or 0.0)
    gap_tol = max(1e-3, tol or 0.0)

    trajectories = _oracle_trajectories(generator_builder)
    results = [
        _check_generator_fidelity(generator_builder, seed),
        _check_analytic_numeric_oracle(trajectories, oracle_tol),
        _check_threshold_reproduction(1e-6),
        _check_blp_closed_form(gap_tol, seed),
        _check_criteria_agreement(),
        _check_bath_correlation(),
        _check_contour_sign_structure(),
        _check_conservation(trajectories),
        _check_superoperator_table(),
    ]
    return results
