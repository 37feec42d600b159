"""Second, independent routes to quantities the package computes elsewhere.

Nothing on the production path calls these functions.  The test suite
compares them with the production routes, and :mod:`qubitbath.acceptance`
uses two of them inside ``qubitbath verify``.  Each one cross-checks:

* :func:`evolve_expm`: one matrix exponential per time, against the
  cumulative :func:`~qubitbath.lindblad.expm_trajectory` and against the
  closed-form coherence factor;
* :func:`evolve_ode`: adaptive Dormand-Prince 5(4) integration, against
  the matrix exponential;
* :func:`bath_propagator` and :func:`bath_dissipator_matrix`: the cooled
  bath qubit in closed form and as a generator, against each other and
  against :func:`~qubitbath.analytic.bath_correlation`;
* :func:`system_map`, :func:`intermediate_map`, :func:`choi_matrix` and
  :func:`choi_min_eigenvalue`: the generic complex Choi operator of a
  transfer matrix, against the closed-form Choi spectrum
  min(0, (1 - |r|)/2) that
  :func:`~qubitbath.markovianity.cp_divisibility_witness` uses;
* :func:`trace_distance`, :func:`density_matrix` and
  :func:`density_trace_distance`: the Bloch and the eigenvalue trace
  distance, against each other and against
  :func:`~qubitbath.markovianity.evolved_trace_distance`;
* :func:`coherence_factor_derivative`, :func:`coherence_log_derivative` and
  :func:`dephasing_rate`: dc/dt alone, and c'/c with the decay envelope
  cancelled, against the fused closed-form kernel and against the regime
  verdict of :func:`~qubitbath.analytic.has_information_backflow`;
* :func:`devectorize2q`, :func:`bloch_to_coherence4`,
  :func:`coherence4_to_bloch` and :func:`partial_trace_bath`: the inverse
  maps of the coherence representation, against
  :func:`~qubitbath.operator_space.vectorize2q` and
  :func:`~qubitbath.operator_space.initial_joint_vector`.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import (
    _BIG_S,
    _check_times,
    _sinhc_cosh_ext,
    coherence_factor,
    coherence_factor_with_derivative,
)
from .errors import NumericsError, PoleError, SingularMapError, ValidationError
from .lindblad import ModelParams, TimeGrid, _expm
from .markovianity import MAP_SINGULARITY_TOL, QubitState
from .operator_space import (
    PAULIS,
    PAULIS_2Q,
    SIGMA_MINUS,
    SIGMA_PLUS,
    coherence4,
    from_coherence4,
)

#: |c| below this is treated as a pole of the logarithmic derivative.
POLE_TOL = 1e-12


def evolve_expm(gen: np.ndarray, v0: np.ndarray, t: float) -> np.ndarray:
    """Propagate ``v0`` to time ``t`` via the matrix exponential."""
    if t < 0:
        raise ValidationError(f"propagation time must be >= 0, got {t}")
    v = _expm(gen * t) @ np.asarray(v0, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NumericsError(f"non-finite state after expm propagation to t={t}")
    return v


# Dormand-Prince 5(4) tableau (same pair scipy's RK45 uses).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dp_step(m: np.ndarray, v: np.ndarray, h: float):
    """One Dormand-Prince step: 5th-order solution and embedded error."""
    k = [m @ v]
    for row in _DP_A[1:]:
        vk = v + h * sum(a * ki for a, ki in zip(row, k))
        k.append(m @ vk)
    v5 = v + h * sum(b * ki for b, ki in zip(_DP_B5, k))
    k.append(m @ v5)  # FSAL stage, used only by the error estimate
    v4 = v + h * sum(b * ki for b, ki in zip(_DP_B4, k))
    return v5, float(np.abs(v5 - v4).max())


def _integrate_adaptive(m, v, t0, t1, atol, h):
    h_floor = 1e-13 * max(1.0, abs(t1))
    t = t0
    while t < t1:
        h = min(h, t1 - t)
        if h < h_floor:
            raise NumericsError(f"adaptive step size underflow at t={t:.6g}")
        v_new, err = _dp_step(m, v, h)
        if err <= atol:
            t += h
            v = v_new
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (atol / err) ** 0.2)
            h *= grow
        else:
            factor = 0.9 * (atol / err) ** 0.2
            if h * factor < h_floor:
                raise NumericsError(
                    f"adaptive step size underflow at t={t:.6g}: "
                    f"absolute tolerance {atol:g} is not attainable"
                )
            h *= max(0.2, factor)
    return v, h


def evolve_ode(
    gen: np.ndarray, v0: np.ndarray, grid: TimeGrid, atol: float = 1e-10
) -> np.ndarray:
    """Integrate ``dv/dt = M v`` across the grid, returning shape (num, 16).

    Dormand-Prince 5(4) with absolute tolerance ``atol``; v0 is the state
    at ``grid.start``.
    """
    if atol <= 0:
        raise ValidationError("atol must be positive")
    times = grid.times()
    out = np.empty((grid.num, 16))
    v = np.array(v0, dtype=float)
    out[0] = v
    h = grid.step
    for k in range(1, grid.num):
        v, h = _integrate_adaptive(gen, v, times[k - 1], times[k], atol, h)
        out[k] = v
    if not np.all(np.isfinite(out)):
        raise NumericsError("non-finite state along ODE trajectory")
    return out


def bath_propagator(kappa: float, tau: float, coeffs: np.ndarray) -> np.ndarray:
    """Closed action of exp(kappa * tau * D[sigma_minus]) on one bath-qubit operator.

    ``coeffs`` is the coherence 4-vector (w, x, y, z) of the operator.  The
    transverse components decay at rate kappa/2; the (w, z) pair relaxes at
    rate kappa toward the ground-state fixed point z = -w.
    """
    if kappa < 0 or tau < 0:
        raise ValidationError("kappa and tau must be >= 0")
    w, x, y, z = (float(c) for c in coeffs)
    half = math.exp(-0.5 * kappa * tau)
    full = half * half
    return np.array([w, x * half, y * half, -w + (z + w) * full])


def bath_dissipator_matrix(kappa: float) -> np.ndarray:
    """4x4 generator of the bath cooling dissipator on coherence 4-vectors.

    Built generically from the jump operator; ``expm`` of it provides an
    independent route to :func:`bath_propagator`.
    """
    if kappa < 0:
        raise ValidationError("kappa must be >= 0")
    jdj = SIGMA_PLUS @ SIGMA_MINUS
    cols = []
    for k in range(4):
        rho = PAULIS[k]
        out = SIGMA_MINUS @ rho @ SIGMA_PLUS - 0.5 * (jdj @ rho + rho @ jdj)
        cols.append(coherence4(out).real)
    return kappa * np.stack(cols, axis=1)


def system_map(params: ModelParams, t: float) -> np.ndarray:
    """Transfer matrix of the reduced evolution on coherence 4-vectors.

    Diagonal: the identity on (w, x), the coherence factor on (y, z).
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    c = coherence_factor(params, t)
    return np.diag([1.0, 1.0, c, c])


def intermediate_map(params: ModelParams, s: float, t: float) -> np.ndarray:
    """Transfer matrix of the evolution from time ``s`` to time ``t``.

    Equals diag(1, 1, c_t/c_s, c_t/c_s); undefined at zeros of the
    coherence factor, where :class:`SingularMapError` is raised.
    """
    if not 0 <= s <= t:
        raise ValidationError(f"need 0 <= s <= t, got s={s}, t={t}")
    cs = coherence_factor(params, s)
    if abs(cs) < MAP_SINGULARITY_TOL:
        raise SingularMapError(
            f"coherence factor vanishes at s={s:.6g}; the intermediate map "
            "does not exist there"
        )
    ratio = coherence_factor(params, t) / cs
    return np.diag([1.0, 1.0, ratio, ratio])


_BASIS_UNITS = [np.eye(2, dtype=complex)[i][:, None] @ np.eye(2, dtype=complex)[j][None, :]
                for i in range(2) for j in range(2)]


def choi_matrix(ptm: np.ndarray) -> np.ndarray:
    """Choi operator of the qubit map, normalized to unit trace.

    Built from the map's action on the full operator basis |i><j|:
    C = (1/2) sum_ij map(|i><j|) (x) |i><j|.  Positive semidefinite iff the
    map is completely positive.
    """
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValidationError("transfer matrix must be 4x4")
    if np.abs(ptm[0] - np.array([1.0, 0, 0, 0])).max() > 1e-9:
        raise ValidationError("transfer matrix is not trace preserving")
    c = np.zeros((4, 4), dtype=complex)
    for unit in _BASIS_UNITS:
        c += 0.5 * np.kron(from_coherence4(ptm @ coherence4(unit)), unit)
    return c


def choi_min_eigenvalue(ptm: np.ndarray) -> float:
    """Smallest eigenvalue of the map's Choi operator (>= 0 iff CP)."""
    return float(np.linalg.eigvalsh(choi_matrix(ptm))[0])


def trace_distance(a: QubitState, b: QubitState) -> float:
    """Half the Euclidean norm of the Bloch difference (qubit closed form)."""
    return 0.5 * math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def density_matrix(state: QubitState) -> np.ndarray:
    """The 2x2 density matrix (I + r . sigma)/2 of a Bloch-vector state."""
    return 0.5 * (PAULIS[0] + state.x * PAULIS[1] + state.y * PAULIS[2] + state.z * PAULIS[3])


def density_trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance from the eigenvalues of the (Hermitian) difference."""
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def coherence_factor_derivative(params: ModelParams, t):
    """Time derivative of the coherence factor."""
    return coherence_factor_with_derivative(params, t)[1]


def _nearest_zero(params: ModelParams, t: float) -> float | None:
    """Closest zero of c to ``t`` (underdamped only; None otherwise)."""
    disc = params.discriminant
    if disc >= 0:
        return None
    r = math.sqrt(-disc)
    phase = math.atan2(r, params.kappa)
    n = max(1, round((t * r / 4.0 + phase) / math.pi))
    candidates = [
        (4.0 / r) * (m * math.pi - phase) for m in (n - 1, n, n + 1) if m >= 1
    ]
    return min(candidates, key=lambda z: abs(z - t))


def coherence_log_derivative(params: ModelParams, t: float) -> float:
    """c'(t)/c(t), the logarithmic derivative of the coherence factor.

    The master-equation dephasing rate is minus one half of this.  Raises
    :class:`PoleError` when |c(t)| < POLE_TOL: the rate genuinely diverges
    at zeros of c in the underdamped regime.  The ratio itself is formed
    with the decay envelope cancelled analytically.
    """
    arr, _ = _check_times(t, params.discriminant)
    tv = float(arr)
    c = coherence_factor(params, tv)
    if abs(c) < POLE_TOL:
        raise PoleError(
            f"coherence factor below {POLE_TOL:.0e} at t={tv:.6g}; "
            "logarithmic derivative is not resolvable",
            nearest_zero=_nearest_zero(params, tv),
        )
    k, x2, disc = params.kappa, params.xi**2, params.discriminant
    s = disc * (np.array([tv]) / 4.0) ** 2
    if s[0] > _BIG_S:
        # coth(sqrt(s)) = 1 to double precision at long times
        return -16.0 * x2 / (k + math.sqrt(disc))
    sinhc, cosh = _sinhc_cosh_ext(s, disc)
    return float((-4.0 * x2 * tv * sinhc[0]) / ((k * tv / 4.0) * sinhc[0] + cosh[0]))


def dephasing_rate(params: ModelParams, t: float) -> float:
    """Coefficient of the dephasing dissipator in the time-local master equation.

    Non-negative for all t exactly when kappa >= 8|xi|; its sign is the
    divisibility criterion.
    """
    return -0.5 * coherence_log_derivative(params, t)


def devectorize2q(v: np.ndarray) -> np.ndarray:
    """Reassemble the 4x4 operator from its coherence 16-vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (16,):
        raise ValidationError(f"expected a length-16 vector, got shape {v.shape}")
    return np.tensordot(v, PAULIS_2Q, axes=(0, 0))


def bloch_to_coherence4(bloch) -> np.ndarray:
    """Coherence 4-vector of the state with the given Bloch vector."""
    x, y, z = (float(c) for c in bloch)
    return np.array([0.5, 0.5 * x, 0.5 * y, 0.5 * z])


def coherence4_to_bloch(coeffs: np.ndarray) -> np.ndarray:
    """Bloch vector of a normalized state's coherence 4-vector (w = 1/2)."""
    return 2.0 * np.asarray(coeffs, dtype=float)[1:]


def partial_trace_bath(v: np.ndarray) -> np.ndarray:
    """Coherence 4-vector of the system qubit, tracing out the bath.

    Tr_B(kron(sigma_i, sigma_j)) = 2 * sigma_i * delta_{j0}, so the system
    coefficients are twice the j = 0 column of the 16-vector.
    """
    v = np.asarray(v, dtype=float)
    return 2.0 * v[[0, 4, 8, 12]]
