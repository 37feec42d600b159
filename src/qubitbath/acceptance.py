"""Self-contained acceptance checks behind ``qubitbath verify`` and the test suite.

Each check pins one reproducibility claim with an explicit tolerance and a
runtime budget.  Reference data that the checks compare against (the 16x16
generator coefficient table and the 16 sandwich-superoperator matrices) is
transcribed here by hand, independent of the construction code under test.
The generator is built from the sandwich matrices, so ``superoperator_table``
checks what the generator is built from and ``generator_fidelity`` checks
how the parts are put together; the generic decomposition of the same parts
is :func:`qubitbath.oracles.generic_generator_parts`, which the tests use.
This is the one production module that imports :mod:`qubitbath.oracles`:
the bath dissipator matrix and the generic Choi operator are second routes
inside ``verify``.  Every propagation here, the oracle trajectories and the
bath dissipator's, goes through :func:`qubitbath.lindblad.expm_trajectory`,
the route ``evolve`` uses.

The checks read their points as array passes, not one point at a time: the
criteria grid's witnesses, scans and measures go through the batched routes
of :mod:`qubitbath.markovianity`, which read one point record per batch,
``blp_closed_form`` makes one batched call for its four rates,
``contour_sign_structure`` judges the windows of whole rows that ``contour``
writes, by the one route of d|c|/dt in analytic, and ``conservation`` reads
each state's smallest eigenvalue in closed form: the eight diagonal and
anti-diagonal Pauli terms make two 2x2 blocks (an X state), and Weyl's
inequality bounds what the other eight can add.  One run calls
``np.linalg.eigvalsh`` once, for the generic Choi operators of
``criteria_agreement``, and builds no (n, 4, 4) density matrix.  One run makes
37 ``_kernel`` calls (228,721 lanes) and 88 increase-sign calls (263,590
lanes); ``np.float_power`` squares 4,105 values.  It decides 1,307 regimes:
405 in the records, once per point, and 902 in one-point calls: 405 in
``blp_tail_bound``, 457 in ``has_information_backflow`` (400 rate verdicts,
57 contour rows), 32 in ``increase_intervals`` (the underdamped contour rows)
and 4 each in ``blp_analytic`` and ``default_blp_horizon``.  The tests pin these.
The five oracle trajectories are freed after the two checks that read them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import (
    BLP_REL_TAIL,
    ORACLE_TOL,
    _abs_derivative_windows,
    bath_correlation,
    blp_analytic,
    coherence_factor,
    has_information_backflow,
    increase_intervals,
)
from .lindblad import ModelParams, TimeGrid, build_generator, expm_trajectory
from .markovianity import (
    _SLICE_POINTS,
    DivisibilityVerdict,
    _blp_many,
    _points,
    _witness_many,
    blp_numeric,
    threshold_scan,
)
from .operator_space import (
    PAULIS_2Q,
    PauliLabel,
    coherence4,
    initial_joint_vector,
    sandwich_superop_rep,
)
from .oracles import _intermediate_maps, bath_dissipator_matrix, choi_min_eigenvalue

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
def _check_generator_fidelity(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        xi = float(rng.uniform(-3.0, 3.0))
        kappa = float(rng.uniform(0.0, 20.0))
        built = build_generator(ModelParams(xi, kappa))
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


def _oracle_trajectories():
    grid = TimeGrid(20.0 / 1999, 2000)  # linspace(0, 20, 2000), bit for bit
    times = grid.times()
    out = []
    for params in _ORACLE_PARAMS:
        traj = expm_trajectory(build_generator(params), initial_joint_vector((0.0, 0.0, 1.0)), grid)
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


# The eight Pauli products that are nonzero on the diagonal and the anti-diagonal alone (II, IZ, XX,
# XY, YX, YY, ZI, ZZ) make an X state: a 2x2 block on {|00>, |11>} and one on {|01>, |10>} (Yu &
# Eberly, Quantum Inf. Comput. 7, 459 (2007)).  The other eight are nonzero off those two lines alone.
_X_SHAPE = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
_OFF_X_TERMS = np.flatnonzero(PAULIS_2Q[:, ~_X_SHAPE].any(axis=1))


def _entry_terms(a: int, b: int, part) -> tuple[np.ndarray, np.ndarray]:
    """The k of the nonzero terms of the real or imaginary ``part`` of entry (a, b) of
    kron(sigma_i, sigma_j), ascending, and their coefficients, 1 or -1."""
    coeffs = part(PAULIS_2Q[:, a, b])
    terms = np.flatnonzero(coeffs)
    return terms, coeffs[terms]


#: the terms of p = rho_aa, q = rho_bb and the real and imaginary parts of w = rho_ab in the blocks
#: {|a>, |b>} = {|00>, |11>} and {|01>, |10>}
_X_BLOCKS = [
    [_entry_terms(*entry) for entry in ((a, a, np.real), (b, b, np.real), (a, b, np.real), (a, b, np.imag))]
    for a, b in ((0, 3), (1, 2))
]


def _min_eigenvalue_bound(traj) -> np.ndarray:
    """A lower bound on the smallest eigenvalue of each density matrix sum_k traj[:, k] * PAULIS_2Q[k].

    The X part's blocks [[p, w], [conj(w), q]] have the smaller eigenvalues
    (p+q)/2 - sqrt(((p-q)/2)**2 + |w|**2).  The other eight terms form a part of Frobenius norm
    2*sqrt(sum v_k**2), at least its largest |eigenvalue|, so by Weyl's inequality the smaller block
    minimum less that norm is at most the smallest eigenvalue; exact where those terms are 0.
    Every temporary is real and at most (n, 8)."""
    lows = []
    for block in _X_BLOCKS:
        p, q, w_re, w_im = ((traj[:, terms] * coeffs).sum(axis=1) for terms, coeffs in block)
        lows.append((p + q) / 2.0 - np.sqrt(((p - q) / 2.0) ** 2 + w_re**2 + w_im**2))
    off = traj[:, _OFF_X_TERMS]
    return np.minimum(*lows) - 2.0 * np.sqrt(np.square(off, out=off).sum(axis=1))


@_timed(budget=10.0)
def _check_conservation(trajectories) -> tuple[bool, str]:
    worst_trace = worst_x = 0.0
    worst_eig = math.inf
    for params, times, traj in trajectories:
        worst_trace = max(worst_trace, float(np.abs(traj[:, 0] - 0.25).max()))
        worst_x = max(worst_x, float(np.abs(4.0 * traj[:, 4] - 0.0).max()))
        worst_eig = min(worst_eig, float(_min_eigenvalue_bound(traj).min()))
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
    kappas = (2.0, 4.0, 6.0, 7.5)
    points = _points(ModelParams(1.0, kappa) for kappa in kappas)
    # one batched call: the 8 pairs depend only on the seed and the pair count, as in one call per kappa
    for kappa, params, result in zip(kappas, points.params, _blp_many(points, [None] * len(kappas), 8, seed)):
        analytic = blp_analytic(params)
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
    points = _points(ModelParams(xi, f * 8.0 * xi) for xi in xis.tolist() for f in fractions.tolist())
    witnesses = _witness_many(points)
    keep = [k for k, w in enumerate(witnesses) if w.verdict is not DivisibilityVerdict.INCONCLUSIVE]
    conclusive = points.take(keep)
    # the first window decides; the regime, not the rate verdict under test, says so
    horizons = [1.25 * end if u else None for u, end in zip(conclusive.under.tolist(), conclusive.ends.tolist())]
    blp = iter(_blp_many(conclusive, horizons, n_pairs=0, seed=0))
    # the closed-form Choi minima against the generic Choi operators of the worst intervals'
    # maps: one kernel pass builds the maps, one eigvalsh over the stack gives the minima
    maps = _intermediate_maps(conclusive.params, [witnesses[k].worst_interval for k in keep])
    generic = iter(choi_min_eigenvalue(maps).tolist())
    disagreements, judged = [], 0
    for params, witness in zip(points.params, witnesses):
        judged += 1
        markov_rate = not has_information_backflow(params)
        if witness.verdict is DivisibilityVerdict.INCONCLUSIVE:
            disagreements.append((params.xi, params.kappa, "inconclusive witness"))
            continue
        minimum = next(generic)
        if abs(minimum - witness.min_choi_eigenvalue) > 1e-12:
            disagreements.append((params.xi, params.kappa, f"Choi minimum {witness.min_choi_eigenvalue:.3e}, generic {minimum:.3e}"))
        markov_cp = witness.verdict is DivisibilityVerdict.DIVISIBLE
        markov_blp = next(blp).value < 1e-6
        if not markov_rate == markov_cp == markov_blp:
            disagreements.append((params.xi, params.kappa, f"rate={markov_rate} cp={markov_cp} blp={markov_blp}"))
    if judged != len(points.params):  # a short witness list would end the loop early and judge too few
        return False, f"judged {judged} of the {len(points.params)} grid points"
    if disagreements:
        return False, f"{len(disagreements)} disagreements, first: {disagreements[0]}"
    return True, "all three criteria agree on the 20x20 grid"


@_timed(budget=1.0)
def _check_bath_correlation() -> tuple[bool, str]:
    grid = TimeGrid(0.05, 201)  # linspace(0, 10, 201), bit for bit
    taus = grid.times()
    sigma_x_coeffs = coherence4(np.array([[0, 1], [1, 0]], dtype=complex)).real
    worst = 0.0
    for kappa in (0.5, 2.0, 8.0):
        evolved = expm_trajectory(bath_dissipator_matrix(kappa), sigma_x_coeffs, grid)
        numeric = evolved[:, 1]  # pairing <sigma_x, .> = the sigma_x coefficient
        worst = max(worst, float(np.abs(numeric - bath_correlation(kappa, taus)).max()))
    ok = worst <= 1e-10
    return ok, f"max |numeric - exp(-kappa*tau/2)| = {worst:.3e} (tol 1e-10)"


@_timed(budget=10.0)
def _check_contour_sign_structure() -> tuple[bool, str]:
    xi, problems, judged = 1.0, [], 0
    # the windows contour writes, each of whole rows of the 1,001 times k * 0.01
    windows = _abs_derivative_windows(xi, np.linspace(0.0, 14.0, 57), TimeGrid(0.01, 1001), _SLICE_POINTS)
    for kappas, times, rows in windows:
        for kappa, values in zip(kappas.tolist(), rows):
            judged += 1
            params = ModelParams(xi, kappa)
            if not has_information_backflow(params):
                if values.max() > 1e-12:
                    problems.append(f"kappa={kappa:g}: positive value {values.max():.2e}")
                continue
            for n, (t_lo, t_hi) in enumerate(increase_intervals(params, 50).tolist(), start=1):
                if t_hi > times[-1]:
                    break
                inside = (times > t_lo) & (times < t_hi)
                if not np.any(values[inside] > 0.0):
                    problems.append(f"kappa={kappa:g}: no positive value in window {n}")
    if judged != 57:  # windows that yield too few rows judge too few
        return False, f"judged {judged} of the 57 rows"
    return not problems, problems[0] if problems else "sign structure matches on all 57 rows"


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


def run_acceptance(tol: float | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every acceptance check and return the results in spec order.

    ``tol`` loosens the closed-form-vs-propagation and measure-gap
    tolerances, never below their defaults; the samplings stay the same.
    """
    oracle_tol = max(ORACLE_TOL, tol or 0.0)
    gap_tol = max(1e-3, tol or 0.0)

    fidelity = _check_generator_fidelity(seed)
    # both checks of the five oracle trajectories run first, so the trajectories (1.3 MB) are
    # freed before the other checks allocate; the results stay in report order
    trajectories = _oracle_trajectories()
    oracle = _check_analytic_numeric_oracle(trajectories, oracle_tol)
    conservation = _check_conservation(trajectories)
    del trajectories
    return [
        fidelity,
        oracle,
        _check_threshold_reproduction(1e-6),
        _check_blp_closed_form(gap_tol, seed),
        _check_criteria_agreement(),
        _check_bath_correlation(),
        _check_contour_sign_structure(),
        conservation,
        _check_superoperator_table(),
    ]
