"""Joint system-bath generator and exact propagation.

The model: a system qubit coupled to a single bath qubit through an x-x
interaction of strength ``xi`` while the bath qubit is continuously cooled
to its ground state at rate ``kappa``.  In the coherence representation the
joint master equation is the linear ODE ``dv/dt = M v`` with a 16x16 real
generator ``M`` that depends linearly on both parameters:

    M(xi, kappa) = xi * COUPLING_PART + kappa * COOLING_PART

Both constant parts are built once, generically, by applying the defining
maps to every two-qubit Pauli basis element and re-decomposing.

Propagation is one matrix exponential of the grid step (scaling and
squaring with a truncated series kernel), applied step by step; the
adaptive Dormand-Prince 5(4) integrator that cross-checks it lives in
:mod:`qubitbath.oracles`.  All functions here are pure; generators are
frozen after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .operator_space import PAULIS_2Q, SIGMA_MINUS, SIGMA_X, vectorize2q

__all__ = [
    "ModelParams",
    "TimeGrid",
    "build_generator",
    "expm_trajectory",
]


#: Largest kappa and 8|xi| accepted.  The discriminant stays finite, and so
#: does xi**2 * t in the closed forms for every t up to ``analytic.MAX_TIME``.
MAX_RATE = 1e75


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength ``xi`` and cooling rate ``kappa`` (inverse time).

    ``xi`` may be negative; the dynamics depends on it only through xi**2
    and |xi|.  ``kappa`` must be non-negative, and neither kappa nor 8|xi|
    (the rates compared at the threshold) may exceed :data:`MAX_RATE`.
    """

    xi: float
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and math.isfinite(self.kappa)):
            raise ValidationError("xi and kappa must be finite")
        if self.kappa < 0:
            raise ValidationError(f"cooling rate must be >= 0, got {self.kappa}")
        if max(8.0 * abs(self.xi), self.kappa) > MAX_RATE:
            raise ValidationError(f"kappa and 8|xi| must be <= MAX_RATE = {MAX_RATE:g}")

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


def build_generator(params: ModelParams) -> np.ndarray:
    """Read-only 16x16 generator of the vectorized joint master equation.

    The matrix reproduces, entry for entry, the coefficients of the
    coupled linear system for the 16 Pauli coefficients: zeros, +-2*xi,
    -kappa/2 and -kappa.
    """
    m = params.xi * COUPLING_PART + params.kappa * COOLING_PART
    m.setflags(write=False)
    return m


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


def expm_trajectory(gen: np.ndarray, v0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States at every grid time, shape (num, 16).

    One exponential of the (uniform) grid step, applied cumulatively; exact
    because the generator commutes with itself.  v0 is the state at
    ``grid.start``.
    """
    step_prop = _expm(gen * grid.step)
    out = np.empty((grid.num, 16))
    v = np.array(v0, dtype=float)
    out[0] = v
    for k in range(1, grid.num):
        v = step_prop @ v
        out[k] = v
    if not np.all(np.isfinite(out)):
        raise NumericsError("non-finite state along expm trajectory")
    return out
