"""Joint system-bath generator and exact propagation.

The model: a system qubit coupled to a single bath qubit through an x-x
interaction of strength ``xi`` while the bath qubit is continuously cooled
to its ground state at rate ``kappa``.  In the coherence representation the
joint master equation is the linear ODE ``dv/dt = M v`` with a 16x16 real
generator ``M`` that depends linearly on both parameters:

    M(xi, kappa) = xi * COUPLING_PART + kappa * COOLING_PART

Both constant parts are built once from the published sandwich matrices
S(a, b) of the maps rho -> sigma_a rho sigma_b, as the paper writes them:
the map (A (x) B) rho (C (x) D) is kron(S(A, C), S(B, D)).  The generic
route, which applies the defining maps to every two-qubit Pauli basis
element and re-decomposes, is the oracle
:func:`qubitbath.oracles.generic_generator_parts`.

Propagation runs on a :class:`TimeGrid`, the times k*step for k below
``num``: one matrix exponential P of the step (scaling and squaring with a
truncated series kernel), whose powers P**1 ... P**63 fill 64 rows per BLAS
product from the state at t = 0.  It is the one production route: ``evolve``
carries its state and probe through it as two columns, and ``verify`` its
oracle trajectories and the cooled bath qubit's 4x4 generator.  The
adaptive Dormand-Prince 5(4) integrator and the exponential at each time
that cross-check it live in :mod:`qubitbath.oracles`.  All functions here
are pure; generators are read-only after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .operator_space import PauliLabel, sandwich_superop_rep

__all__ = [
    "ModelParams",
    "TimeGrid",
    "build_generator",
    "expm_trajectory",
]


#: Largest kappa and 8|xi| accepted.  The discriminant stays finite, and so
#: does xi**2 * t in the closed forms for every t up to ``analytic.MAX_TIME``.
MAX_RATE = 1e75

#: Smallest nonzero |xi| accepted.  At |xi| >= 1e-150, xi**2 >= 1e-300 and
#: 64*xi**2 are normal floats, and so is the critical band REGIME_TOL*64*xi**2
#: (>= 6.4e-307 against the smallest normal 2.2e-308), so the regime and the
#: closed forms keep depending on kappa/|xi| alone.  Below about 1.5e-154
#: xi**2 is subnormal and loses digits, and below about 1.5e-162 it is 0.
#: kappa has no lower bound: a tiny kappa only rounds kappa**2 toward 0,
#: which is the kappa -> 0 limit.
MIN_RATE = 1e-150


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength ``xi`` and cooling rate ``kappa`` (inverse time).

    ``xi`` may be negative; the dynamics depends on it only through xi**2
    and |xi|.  A nonzero |xi| must be at least :data:`MIN_RATE`.  ``kappa``
    must be non-negative, and neither kappa nor 8|xi| (the rates compared
    at the threshold) may exceed :data:`MAX_RATE`.
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
        if 0.0 < abs(self.xi) < MIN_RATE:
            raise ValidationError(f"a nonzero |xi| must be >= MIN_RATE = {MIN_RATE:g}, got {self.xi!r}")

    @property
    def discriminant(self) -> float:
        """kappa**2 - 64*xi**2; sign decides the dynamical regime."""
        return self.kappa**2 - 64.0 * self.xi**2


def _sandwich(a: str, b: str) -> np.ndarray:
    return sandwich_superop_rep(PauliLabel[a], PauliLabel[b])


def _bath_damping() -> np.ndarray:
    """D[sigma_minus] on the bath's coherence 4-vectors, as a sum of sandwich matrices.

    sigma_minus = (X - iY)/2 and sigma_plus sigma_minus = (I + Z)/2 turn the
    jump term into (S(X, X) + i S(X, Y) - i S(Y, X) + S(Y, Y))/4 and the
    anticommutator into (2 S(I, I) + S(Z, I) + S(I, Z))/4.  The result is
    complex, with imaginary part exactly 0.
    """
    s = _sandwich
    return (s("X", "X") + 1j * s("X", "Y") - 1j * s("Y", "X") + s("Y", "Y")) / 4 - (
        2 * s("I", "I") + s("Z", "I") + s("I", "Z")
    ) / 4


def _sandwich_parts() -> tuple[np.ndarray, np.ndarray]:
    """The complex parts -i[X (x) X, rho] and D[I (x) sigma_minus] of the generator.

    (A (x) B) rho (C (x) D) maps to kron(S(A, C), S(B, D)).
    """
    s = _sandwich
    coupling = -1j * (np.kron(s("X", "I"), s("X", "I")) - np.kron(s("I", "X"), s("I", "X")))
    cooling = np.kron(s("I", "I"), _bath_damping())
    return coupling, cooling


#: Unit-coupling Hamiltonian part (multiply by xi) and unit-rate bath
#: dissipator part (multiply by kappa) of the generator.  The sandwich sums
#: are real; ``+ 0.0`` turns their 49 -0.0 entries into +0.0.
COUPLING_PART, COOLING_PART = (part.real + 0.0 for part in _sandwich_parts())
COUPLING_PART.setflags(write=False)
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
    """The ``num`` times 0, step, 2*step, ... at which a trajectory is sampled.

    ``times()`` is ``step * np.arange(num)``: the k-th time is k*step, the
    time of the state :func:`expm_trajectory` reaches after k steps.  A
    one-point grid is the single time 0.
    """

    step: float
    num: int

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValidationError(f"grid step must be finite and positive, got {self.step}")
        if self.num < 1:
            raise ValidationError(f"grid needs at least one sample, got {self.num}")

    def times(self) -> np.ndarray:
        return self.step * np.arange(self.num)


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
    norm = np.abs(a).sum(axis=-1).max()  # np.linalg.norm(a, np.inf)
    if not math.isfinite(norm):
        raise NumericsError("non-finite generator entries in expm")
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    b = a / 2.0**squarings
    out = np.eye(len(a))
    term = out.copy()
    for k in range(1, 40):
        term = (b @ term) / k
        out += term
        if np.abs(term).max() < _EXPM_SERIES_TOL * max(1.0, np.abs(out).max()):
            break
    for _ in range(squarings):
        out = out @ out
    return out


#: Rows of a trajectory filled by one BLAS product in :func:`expm_trajectory`.
#: The powers of the step propagator behind it take about 128 KB (64 16x16
#: matrices of doubles, of which the identity is implied).  It divides
#: ``cli._CHUNK_ROWS``, so that ``evolve``'s chunks keep one trajectory's bits.
_BLOCK = 64


def expm_trajectory(gen: np.ndarray, v0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States at every grid time under the n x n generator ``gen``.

    ``v0`` holds the state at t = 0: one state of shape (n,), giving a
    (num, n) trajectory, or m states as the columns of an (n, m) array,
    giving (num, n, m); BLAS may sum a row of the (n, m) product in another
    order than the (n,) one, so a column matches its one-state call to
    rounding.  One exponential P of the grid step; the state after
    k steps is P**k v0, exact because the generator commutes with itself.
    The rows go in blocks of :data:`_BLOCK`: the block starting at state v
    is v, P v, ..., P**(B-1) v, one (B*n, n) @ v product over the stacked
    powers P**1 ... P**(B-1), each built from the one before, and the next
    block starts at P**B v.  That is about num/B BLAS calls where one matvec
    per step took num.  Rounding follows the powers, not the steps, so a
    state differs from the step-by-step product by rounding only.  Since B
    divides ``cli._CHUNK_ROWS``, a trajectory propagated in chunks of that
    many steps, each from the last state of the chunk before, has the bits of
    one call over the whole grid.
    """
    n = len(gen)
    step_prop = _expm(gen * grid.step)
    block = min(_BLOCK, grid.num)
    powers = np.empty((block - 1, n, n))  # P**1 ... P**(block-1): no more than the grid needs
    power = np.eye(n)
    for j in range(block - 1):
        power = powers[j] = step_prop @ power
    stack = powers.reshape(-1, n)
    jump = step_prop @ power  # P**block, from each block's first state to the next one's
    v = np.array(v0, dtype=float)
    if not np.all(np.isfinite(v)):  # before an inf meets a zero in the products below
        raise NumericsError("non-finite state along expm trajectory")
    out = np.empty((grid.num, *v.shape))
    for start in range(0, grid.num, block):
        if start:
            v = jump @ v
        rows = min(block, grid.num - start) - 1
        out[start] = v
        out[start + 1:start + 1 + rows] = (stack[:n * rows] @ v).reshape(rows, *v.shape)
    if not np.all(np.isfinite(out)):
        raise NumericsError("non-finite state along expm trajectory")
    return out
