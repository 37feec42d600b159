"""Joint system-bath generator and exact propagation.

The model: a system qubit coupled to a single bath qubit through an x-x
interaction of strength ``xi`` while the bath qubit is continuously cooled
to its ground state at rate ``kappa``.  In the coherence representation the
joint master equation is the linear ODE ``dv/dt = M v`` with a 16x16 real
generator ``M`` that depends linearly on both parameters:

    M(xi, kappa) = xi * COUPLING_PART + kappa * COOLING_PART

Both constant parts are built once, generically, by applying the defining
maps to every two-qubit Pauli basis element and re-decomposing.

Propagation is offered two independent ways: a matrix exponential
(scaling-and-squaring with a truncated series kernel) and explicit
Runge-Kutta integration (fixed-step classic RK4 and an embedded adaptive
Dormand-Prince 5(4) pair).  All functions here are pure; generators are
frozen after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ValidationError
from .operator_space import (
    PAULIS,
    PAULIS_2Q,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    coherence4,
    vectorize2q,
)

__all__ = [
    "ModelParams",
    "GeneratorMatrix",
    "TimeGrid",
    "build_generator",
    "evolve_expm",
    "expm_trajectory",
    "evolve_ode",
    "bath_propagator",
]


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength ``xi`` and cooling rate ``kappa`` (inverse time).

    ``xi`` may be negative; the dynamics depends on it only through xi**2
    and |xi|.  ``kappa`` must be non-negative.
    """

    xi: float
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and math.isfinite(self.kappa)):
            raise ValidationError("xi and kappa must be finite")
        if self.kappa < 0:
            raise ValidationError(f"cooling rate must be >= 0, got {self.kappa}")

    @property
    def discriminant(self) -> float:
        """kappa**2 - 64*xi**2; sign decides the dynamical regime."""
        return self.kappa**2 - 64.0 * self.xi**2


def _superop_matrix_2q(apply_map) -> np.ndarray:
    """16x16 real matrix of a superoperator, column by basis column."""
    cols = [vectorize2q(apply_map(PAULIS_2Q[k])) for k in range(16)]
    return np.stack(cols, axis=1)


def _coupling_action(rho: np.ndarray) -> np.ndarray:
    h = np.kron(SIGMA_X, SIGMA_X)
    return -1j * (h @ rho - rho @ h)


def _cooling_action(rho: np.ndarray) -> np.ndarray:
    jump = np.kron(np.eye(2), SIGMA_MINUS)
    jdj = jump.conj().T @ jump
    return jump @ rho @ jump.conj().T - 0.5 * (jdj @ rho + rho @ jdj)


#: Unit-coupling Hamiltonian part of the generator (multiply by xi).
COUPLING_PART = _superop_matrix_2q(_coupling_action)
COUPLING_PART.setflags(write=False)

#: Unit-rate bath dissipator part of the generator (multiply by kappa).
COOLING_PART = _superop_matrix_2q(_cooling_action)
COOLING_PART.setflags(write=False)


@dataclass(frozen=True)
class GeneratorMatrix:
    """The 16x16 generator together with the parameters it was built from."""

    matrix: np.ndarray = field(repr=False)
    params: ModelParams

    def __post_init__(self):
        self.matrix.setflags(write=False)


def build_generator(params: ModelParams) -> GeneratorMatrix:
    """Generator of the vectorized joint master equation.

    The returned matrix reproduces, entry for entry, the coefficients of
    the coupled linear system for the 16 Pauli coefficients: zeros, +-2*xi,
    -kappa/2 and -kappa.
    """
    m = params.xi * COUPLING_PART + params.kappa * COOLING_PART
    return GeneratorMatrix(matrix=m, params=params)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [start, stop] with ``num`` points."""

    start: float
    stop: float
    num: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError("grid endpoints must be finite")
        if self.start < 0:
            raise ValidationError("grid start must be >= 0")
        if self.stop <= self.start:
            raise ValidationError("grid must be strictly increasing")
        if self.num < 2:
            raise ValidationError("grid needs at least two samples")

    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.num)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.num - 1)


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with a truncated series kernel.
# ---------------------------------------------------------------------------

_EXPM_SERIES_TOL = 1e-18  # relative cutoff on the scaled series terms


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a small dense matrix.

    Scale so the infinity norm is <= 0.5, sum the Taylor series to machine
    precision, square back.  Plenty for 16x16; robustness over speed.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, np.inf)
    if not math.isfinite(norm):
        raise NumericsError("non-finite generator entries in expm")
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0**squarings)
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = (b @ term) / k
        out += term
        if np.abs(term).max() < _EXPM_SERIES_TOL * max(1.0, np.abs(out).max()):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def evolve_expm(gen: GeneratorMatrix, v0: np.ndarray, t: float) -> np.ndarray:
    """Propagate ``v0`` to time ``t`` via the matrix exponential."""
    if t < 0:
        raise ValidationError(f"propagation time must be >= 0, got {t}")
    v = _expm(gen.matrix * t) @ np.asarray(v0, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NumericsError(f"non-finite state after expm propagation to t={t}")
    return v


def expm_trajectory(gen: GeneratorMatrix, v0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States at every grid time, shape (num, 16).

    One exponential of the (uniform) grid step, applied cumulatively; exact
    because the generator commutes with itself.
    """
    step_prop = _expm(gen.matrix * grid.step)
    out = np.empty((grid.num, 16))
    v = evolve_expm(gen, v0, grid.start) if grid.start > 0 else np.array(v0, dtype=float)
    out[0] = v
    for k in range(1, grid.num):
        v = step_prop @ v
        out[k] = v
    if not np.all(np.isfinite(out)):
        raise NumericsError("non-finite state along expm trajectory")
    return out


# ---------------------------------------------------------------------------
# Runge-Kutta integration.
# ---------------------------------------------------------------------------

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


def _rk4_step(m: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    k1 = m @ v
    k2 = m @ (v + 0.5 * h * k1)
    k3 = m @ (v + 0.5 * h * k2)
    k4 = m @ (v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _default_step(params: ModelParams) -> float:
    # resolve the fastest rate with >= 10 steps per characteristic time
    return min(0.01, 0.1 / max(abs(params.xi), params.kappa, 1.0))


def _integrate_fixed(m, v, t0, t1, h):
    n = max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
    hh = (t1 - t0) / n
    for _ in range(n):
        v = _rk4_step(m, v, hh)
    return v


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
    gen: GeneratorMatrix,
    v0: np.ndarray,
    grid: TimeGrid,
    method: str = "adaptive",
    atol: float = 1e-10,
    step: float | None = None,
) -> np.ndarray:
    """Integrate ``dv/dt = M v`` across the grid, returning shape (num, 16).

    ``method="rk4"`` is the fixed-step classic scheme (``step`` overrides the
    default of min(0.01, 0.1/max(|xi|, kappa, 1))); ``method="adaptive"`` is
    Dormand-Prince 5(4) with absolute tolerance ``atol``.  v0 is the state
    at ``grid.start``.
    """
    if method not in ("adaptive", "rk4"):
        raise ValidationError(f"unknown integration method {method!r}")
    m = gen.matrix
    times = grid.times()
    out = np.empty((grid.num, 16))
    v = np.array(v0, dtype=float)
    out[0] = v
    if method == "rk4":
        h = step if step is not None else _default_step(gen.params)
        if h <= 0:
            raise ValidationError("step must be positive")
        for k in range(1, grid.num):
            v = _integrate_fixed(m, v, times[k - 1], times[k], h)
            out[k] = v
    else:
        if atol <= 0:
            raise ValidationError("atol must be positive")
        h = grid.step
        for k in range(1, grid.num):
            v, h = _integrate_adaptive(m, v, times[k - 1], times[k], atol, h)
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
