"""Second, independent routes to quantities the package computes elsewhere.

Nothing on the production path calls these functions.  The test suite
compares them with the production routes, and :mod:`qubitbath.acceptance`
uses three of them inside ``qubitbath verify``.  Each one cross-checks:

* :func:`generic_generator_parts`: the generator's coupling and cooling
  parts from the defining maps, applied to every two-qubit Pauli basis
  element and re-decomposed with :func:`vectorize2q`, against
  :data:`~qubitbath.lindblad.COUPLING_PART` and
  :data:`~qubitbath.lindblad.COOLING_PART`, which are sums of Kronecker
  products of the sandwich matrices;
* :func:`evolve_expm`: one matrix exponential per time, against the
  cumulative :func:`~qubitbath.lindblad.expm_trajectory` and against the
  closed-form coherence factor;
* :func:`evolve_ode`: adaptive Dormand-Prince 5(4) integration, against
  the matrix exponential;
* :func:`bath_propagator` and :func:`bath_dissipator_matrix`: the cooled
  bath qubit in closed form and as a 4x4 generator, against each other and
  against :func:`~qubitbath.analytic.bath_correlation`; ``verify``
  propagates the generator with :func:`~qubitbath.lindblad.expm_trajectory`;
* :func:`system_map`, :func:`intermediate_map`, :func:`choi_matrix` and
  :func:`choi_min_eigenvalue`: the generic complex Choi operator of a
  transfer matrix, against the closed-form Choi spectrum
  min(0, (1 - |r|)/2) that
  :func:`~qubitbath.markovianity.cp_divisibility_witness` uses.  The
  intermediate maps of many (point, interval) pairs come as one (n, 4, 4)
  stack from one kernel pass (``_intermediate_maps``, of which
  :func:`intermediate_map` is the one-point read), and their Choi minima
  from one ``eigvalsh`` over the stack;
* :func:`trace_distance`, :func:`density_matrix` and
  :func:`density_trace_distance`: the Bloch and the eigenvalue trace
  distance of two states, against each other and against
  :func:`~qubitbath.markovianity.evolved_trace_distance`, which reads only
  their Bloch difference;
* :func:`coherence_log_derivative` and :func:`dephasing_rate`: c'/c with
  the decay envelope cancelled, against the fused closed-form kernel and
  against the regime verdict of :func:`~qubitbath.analytic.has_information_backflow`;
* :func:`vectorize2q`, :func:`devectorize2q`, :func:`from_coherence4`,
  :func:`bloch_to_coherence4`, :func:`coherence4_to_bloch` and
  :func:`partial_trace_bath`: the maps into and out of the coherence
  representation, against each other and against
  :func:`~qubitbath.operator_space.coherence4` and
  :func:`~qubitbath.operator_space.initial_joint_vector`.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import (
    _BIG_S,
    _check_times,
    _kernel,
    _sinhc_cosh_ext,
    coherence_factor,
)
from .errors import NumericsError, PoleError, SingularMapError, ValidationError
from .lindblad import ModelParams, TimeGrid, _expm
from .markovianity import MAP_SINGULARITY_TOL, QubitState
from .operator_space import PAULIS, PAULIS_2Q, SIGMA_X, coherence4

#: |c| below this is treated as a pole of the logarithmic derivative.
POLE_TOL = 1e-12

#: Hermiticity gate for vectorize2q: max tolerated imaginary coefficient.
HERMITICITY_TOL = 1e-9

#: Bath ground / excited states under the sigma_z = -1 ground convention.
BATH_GROUND = np.array([0.0, 1.0], dtype=complex)
BATH_EXCITED = np.array([1.0, 0.0], dtype=complex)

#: Cooling jump operator |0_B><1_B| on the bath qubit.
SIGMA_MINUS = np.outer(BATH_GROUND, BATH_EXCITED.conj())
SIGMA_PLUS = SIGMA_MINUS.conj().T


def generic_generator_parts() -> tuple[np.ndarray, np.ndarray]:
    """The generator's unit coupling and unit cooling parts, built generically.

    Applies -i[X (x) X, .] and D[I (x) sigma_minus] to each of the 16
    two-qubit Pauli basis elements and re-decomposes the results with
    :func:`vectorize2q`, one column per basis element.
    """
    h = np.kron(SIGMA_X, SIGMA_X)
    jump = np.kron(np.eye(2), SIGMA_MINUS)
    jdj = jump.conj().T @ jump

    def coupling(rho):
        return -1j * (h @ rho - rho @ h)

    def cooling(rho):
        return jump @ rho @ jump.conj().T - 0.5 * (jdj @ rho + rho @ jdj)

    coupling_part, cooling_part = (
        np.stack([vectorize2q(action(basis)) for basis in PAULIS_2Q], axis=1) for action in (coupling, cooling)
    )
    return coupling_part, cooling_part


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
    at t = 0.
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


def _intermediate_maps(points, intervals) -> np.ndarray:
    """The (n, 4, 4) stack of :func:`intermediate_map` of every point over its (s, t) row of ``intervals``.

    One kernel call reads c at every s and t.  The first lane that is
    unordered or singular raises the error its own call raises.
    """
    intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
    s, t = intervals.T
    unordered = ~((0 <= s) & (s <= t))
    if unordered.any():
        k = np.argmax(unordered)
        raise ValidationError(f"need 0 <= s <= t, got s={float(s[k])}, t={float(t[k])}")
    xi, kappa = (np.array([getattr(p, name) for p in points], dtype=float)[:, None] for name in ("xi", "kappa"))
    c = _kernel(xi, kappa, intervals)[0]
    singular = np.abs(c[:, 0]) < MAP_SINGULARITY_TOL
    if singular.any():
        raise SingularMapError(
            f"coherence factor vanishes at s={s[np.argmax(singular)]:.6g}; the intermediate map "
            "does not exist there"
        )
    maps = np.zeros((len(intervals), 4, 4))
    maps[:, 0, 0] = maps[:, 1, 1] = 1.0
    maps[:, 2, 2] = maps[:, 3, 3] = c[:, 1] / c[:, 0]
    return maps


def intermediate_map(params: ModelParams, s: float, t: float) -> np.ndarray:
    """Transfer matrix of the evolution from time ``s`` to time ``t``.

    Equals diag(1, 1, c_t/c_s, c_t/c_s); undefined at zeros of the
    coherence factor, where :class:`SingularMapError` is raised.  The
    one-point read of :func:`_intermediate_maps`.
    """
    return _intermediate_maps([params], [(s, t)])[0]


_BASIS_UNITS = [np.eye(2, dtype=complex)[i][:, None] @ np.eye(2, dtype=complex)[j][None, :]
                for i in range(2) for j in range(2)]


def choi_matrix(ptm: np.ndarray) -> np.ndarray:
    """Choi operator of the qubit map, normalized to unit trace.

    Built from the map's action on the full operator basis |i><j|:
    C = (1/2) sum_ij map(|i><j|) (x) |i><j|.  Positive semidefinite iff the
    map is completely positive.  A stack of n maps, shape (n, 4, 4), gives
    the stack of their Choi operators.
    """
    try:
        ptm = np.asarray(ptm, dtype=float)
    except ValueError:  # a ragged stack
        raise ValidationError("transfer matrices must all be 4x4") from None
    if ptm.ndim not in (2, 3) or ptm.shape[-2:] != (4, 4):
        raise ValidationError("transfer matrix must be 4x4, or a stack of 4x4 matrices")
    if np.any(np.abs(ptm[..., 0, :] - np.array([1.0, 0, 0, 0])) > 1e-9):
        raise ValidationError("transfer matrix is not trace preserving")
    c = np.zeros(ptm.shape, dtype=complex)
    for unit in _BASIS_UNITS:
        c += 0.5 * np.kron(from_coherence4(ptm @ coherence4(unit)), unit)
    return c


def choi_min_eigenvalue(ptm: np.ndarray):
    """Smallest eigenvalue of the map's Choi operator (>= 0 iff CP).

    A float for one map; for a stack of maps, one ``eigvalsh`` over the
    stack gives the array of their minima.
    """
    low = np.linalg.eigvalsh(choi_matrix(ptm))[..., 0]
    return float(low) if low.ndim == 0 else low


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
    sinhc, cosh = _sinhc_cosh_ext(s, np.greater(disc, 0))
    return float((-4.0 * x2 * tv * sinhc[0]) / ((k * tv / 4.0) * sinhc[0] + cosh[0]))


def dephasing_rate(params: ModelParams, t: float) -> float:
    """Coefficient of the dephasing dissipator in the time-local master equation.

    Non-negative for all t exactly when kappa >= 8|xi|; its sign is the
    divisibility criterion.
    """
    return -0.5 * coherence_log_derivative(params, t)


def from_coherence4(coeffs: np.ndarray) -> np.ndarray:
    """Assemble the 2x2 operator from (possibly complex) coefficients on the last axis."""
    return np.tensordot(np.asarray(coeffs), PAULIS, axes=(-1, 0))


def vectorize2q(rho: np.ndarray) -> np.ndarray:
    """Coherence 16-vector of a Hermitian 4x4 operator.

    Coefficients are ``v[4i+j] = Tr(rho @ kron(sigma_i, sigma_j)) / 4``.
    Raises :class:`ValidationError` when any coefficient has imaginary part
    above ``HERMITICITY_TOL`` (non-Hermitian input).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("matrix entries must be finite")
    v = np.einsum("kab,ba->k", PAULIS_2Q, rho) / 4.0
    worst = np.abs(v.imag).max()
    if worst > HERMITICITY_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: max imaginary coefficient {worst:.3e} "
            f"exceeds tolerance {HERMITICITY_TOL:.0e}"
        )
    return v.real.copy()


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
