"""Executable Markovianity criteria for the reduced system dynamics.

Two independent witnesses are implemented against the same dynamics:

* CP divisibility: the evolution map between two times is completely
  positive for every division of the time axis.  Checked through the
  minimum eigenvalue of the Choi operator of every sub-interval map.
* Trace-distance contractivity: distinguishability of state pairs never
  increases.  Quantified by the closed-form trace distance telescoped over
  the numerically detected windows where it grows, maximized over
  initial pairs.  The window edges are the sign changes of c*dc/dt on a
  uniform grid, all refined together by bisection with one vector kernel
  call per halving.

Both flip at the same cooling rate, kappa = 8|xi|; :func:`threshold_scan`
locates the flip by bisection on the rate-sign predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (
    Regime,
    blp_analytic,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    coherence_factor_with_derivative,
    default_blp_horizon,
    has_information_backflow,
    increase_intervals,
)
from .errors import (
    DegenerateModelError,
    SingularMapError,
    ValidationError,
)
from .lindblad import ModelParams, TimeGrid
from .operator_space import PAULIS, coherence4, from_coherence4

__all__ = [
    "QubitState",
    "StatePair",
    "system_map",
    "intermediate_map",
    "choi_matrix",
    "choi_min_eigenvalue",
    "DivisibilityVerdict",
    "DivisibilityWitness",
    "cp_divisibility_witness",
    "trace_distance",
    "density_trace_distance",
    "evolved_trace_distance",
    "BlpResult",
    "blp_numeric",
    "threshold_scan",
]

#: Sub-interval maps are skipped (not failed) when |c| at an endpoint is below this.
MAP_SINGULARITY_TOL = 1e-12

#: Default threshold on negative Choi eigenvalues for the CP witness.
CP_EIGENVALUE_TOL = 1e-10

#: Most grid points :func:`detect_increase_segments` scans (80 MB per float array).
MAX_SCAN_POINTS = 10_000_000


@dataclass(frozen=True)
class QubitState:
    """A qubit state given by its Bloch vector."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x**2 + self.y**2 + self.z**2
        if not math.isfinite(n2):
            raise ValidationError("Bloch components must be finite")
        if n2 > 1.0 + 1e-12:
            raise ValidationError(f"Bloch vector norm {math.sqrt(n2):.6f} exceeds 1")

    @property
    def bloch(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def density(self) -> np.ndarray:
        """The 2x2 density matrix (I + r . sigma)/2."""
        return 0.5 * (
            PAULIS[0] + self.x * PAULIS[1] + self.y * PAULIS[2] + self.z * PAULIS[3]
        )


@dataclass(frozen=True)
class StatePair:
    """Two initial states and their Bloch-vector differences."""

    first: QubitState
    second: QubitState

    @property
    def dx(self) -> float:
        return self.first.x - self.second.x

    @property
    def dy(self) -> float:
        return self.first.y - self.second.y

    @property
    def dz(self) -> float:
        return self.first.z - self.second.z


#: The pair that maximizes every trace-distance increase: dx = 0, antipodal
#: and pure in the y-z plane.
OPTIMAL_PAIR = StatePair(QubitState(0.0, 0.0, 1.0), QubitState(0.0, 0.0, -1.0))


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

# coherence coefficients of each basis unit |i><j|, shape (coefficient, unit)
_UNIT_COEFFS = np.stack([coherence4(unit) for unit in _BASIS_UNITS], axis=1)

# (1/2) kron(sigma_l, E_k) for every (coefficient, unit) pair
_CHOI_TENSOR = 0.5 * np.stack(
    [np.stack([np.kron(PAULIS[l], unit) for unit in _BASIS_UNITS]) for l in range(4)]
)

# response of the Choi operator to each output coefficient, summed over units (exactly real)
_CHOI_RESPONSE = np.einsum("lk,lkab->lab", _UNIT_COEFFS, _CHOI_TENSOR).real.copy()


def _apply_transfer(ptm: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Apply a (real) transfer matrix to an arbitrary complex 2x2 operator."""
    return from_coherence4(ptm @ coherence4(op))


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
    for k, unit in enumerate(_BASIS_UNITS):
        c += 0.5 * np.kron(_apply_transfer(ptm, unit), unit)
    return c


def choi_min_eigenvalue(ptm: np.ndarray) -> float:
    """Smallest eigenvalue of the map's Choi operator (>= 0 iff CP)."""
    return float(np.linalg.eigvalsh(choi_matrix(ptm))[0])


def _diag_choi_min_eigenvalues(ratios: np.ndarray) -> np.ndarray:
    """Min Choi eigenvalue for each map diag(1, 1, r, r), as a batch.

    Same construction as :func:`choi_matrix` with the basis response
    precomputed and real, so a real float64 ``eigvalsh``; the test suite
    cross-checks it against the complex scalar route.
    """
    d = np.ones((len(ratios), 4))
    d[:, 2] = ratios
    d[:, 3] = ratios
    chois = np.einsum("nl,lab->nab", d, _CHOI_RESPONSE)
    return np.linalg.eigvalsh(chois)[:, 0]


class DivisibilityVerdict(Enum):
    DIVISIBLE = "divisible"
    NON_DIVISIBLE = "non-divisible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DivisibilityWitness:
    """Outcome of the Choi-based CP-divisibility scan."""

    verdict: DivisibilityVerdict
    min_choi_eigenvalue: float
    worst_interval: tuple[float, float] | None
    n_subintervals: int
    n_skipped: int
    horizon: float

    @property
    def divisible(self) -> bool | None:
        if self.verdict is DivisibilityVerdict.INCONCLUSIVE:
            return None
        return self.verdict is DivisibilityVerdict.DIVISIBLE


def _default_witness_horizon(params: ModelParams) -> float:
    if classify_regime(params) is Regime.UNDERDAMPED:
        first = increase_intervals(params, 1)[0]
        return 1.5 * first.t_hi
    return 80.0 / max(params.kappa, 8.0 * abs(params.xi), 1.0)


def cp_divisibility_witness(
    params: ModelParams,
    horizon: float | None = None,
    grid: TimeGrid | None = None,
    tol: float = CP_EIGENVALUE_TOL,
) -> DivisibilityWitness:
    """Scan consecutive sub-interval maps for complete positivity.

    The division of [0, horizon] comes from ``grid`` when given, otherwise
    400 uniform sub-intervals.  Sub-intervals with an endpoint at a zero of
    the coherence factor are skipped and counted; divisibility across an
    isolated zero is decided by the adjacent sub-intervals.

    In the underdamped regime a horizon shorter than the first predicted
    increase window cannot decide, and the verdict is INCONCLUSIVE rather
    than divisible.
    """
    if grid is not None:
        times = grid.times()
        horizon = times[-1]
    else:
        if horizon is None:
            horizon = _default_witness_horizon(params)
        if horizon <= 0:
            raise ValidationError("horizon must be positive")
        times = np.linspace(0.0, horizon, 401)
    c = np.atleast_1d(coherence_factor(params, times))
    valid = (np.abs(c[:-1]) >= MAP_SINGULARITY_TOL) & (
        np.abs(c[1:]) >= MAP_SINGULARITY_TOL
    )
    skipped = int((~valid).sum())
    min_eig = math.inf
    worst = None
    if np.any(valid):
        ratios = c[1:][valid] / c[:-1][valid]
        eigs = _diag_choi_min_eigenvalues(ratios)
        k = int(np.argmin(eigs))
        min_eig = float(eigs[k])
        idx = np.flatnonzero(valid)[k]
        worst = (float(times[idx]), float(times[idx + 1]))
    if min_eig < -tol:
        verdict = DivisibilityVerdict.NON_DIVISIBLE
    elif (
        classify_regime(params) is Regime.UNDERDAMPED
        and horizon < increase_intervals(params, 1)[0].t_hi
    ):
        verdict = DivisibilityVerdict.INCONCLUSIVE
    else:
        verdict = DivisibilityVerdict.DIVISIBLE
    return DivisibilityWitness(
        verdict=verdict,
        min_choi_eigenvalue=min_eig,
        worst_interval=worst,
        n_subintervals=len(times) - 1,
        n_skipped=skipped,
        horizon=float(horizon),
    )


def trace_distance(a: QubitState, b: QubitState) -> float:
    """Half the Euclidean norm of the Bloch difference (qubit closed form)."""
    return 0.5 * float(np.linalg.norm(a.bloch - b.bloch))


def density_trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance from the eigenvalues of the (Hermitian) difference.

    Generic route, kept independent of :func:`trace_distance` so the two
    can cross-check each other.
    """
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def evolved_trace_distance(params: ModelParams, pair: StatePair, t):
    """Trace distance of the evolved pair at time(s) ``t``.

    Closed form: 0.5*sqrt(dx**2 + c(t)**2 * (dy**2 + dz**2)).
    """
    c = coherence_factor(params, t)
    return 0.5 * np.sqrt(pair.dx**2 + c**2 * (pair.dy**2 + pair.dz**2))


# ---------------------------------------------------------------------------
# Trace-distance increase detection and the numeric BLP measure.
# ---------------------------------------------------------------------------


def _signal(params: ModelParams, t):
    """c * dc/dt; positive exactly where the trace distance increases."""
    c, dc = coherence_factor_with_derivative(params, t)
    return c * dc


def _refine_crossings(params: ModelParams, lo, hi, rising) -> np.ndarray:
    """Bisect every bracketed sign change of the increase signal at once.

    ``rising[k]`` says whether the signal is positive at ``hi[k]``.  Each
    halving evaluates the signal once, as a vector, on the midpoints of the
    brackets still open.  A bracket stops at width 1e-10 or, beyond
    t ~ 5e5 where one ulp of t exceeds 1e-10, when its midpoint rounds onto
    an endpoint; the others keep halving.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    active = np.arange(lo.size)
    while True:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        keep = (b - a > 1e-10) & (mid != a) & (mid != b)
        if not keep.any():
            return 0.5 * (lo + hi)
        active, mid = active[keep], mid[keep]
        upper = (_signal(params, mid) > 0) == rising[active]
        hi[active[upper]] = mid[upper]
        lo[active[~upper]] = mid[~upper]


def detect_increase_segments(
    params: ModelParams, horizon: float
) -> list[tuple[float, float]]:
    """Time windows in [0, horizon] where the trace distance increases.

    Sign changes of c*dc/dt are located on a uniform grid and all refined
    together by bisection, one vector kernel call per halving; the default
    grid step resolves the oscillation period with 200 points.  A grid of
    more than :data:`MAX_SCAN_POINTS` points is refused before it is built.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    disc = params.discriminant
    step = 0.01
    if disc < 0:
        period = 8.0 * math.pi / math.sqrt(-disc)
        step = min(step, period / 200.0)
    points = math.ceil(horizon / step) + 1 if math.isfinite(horizon) else math.inf
    if points > MAX_SCAN_POINTS:
        raise ValidationError(
            f"scanning the trace distance up to t = {horizon:.6g} takes {points} grid points, "
            f"over the limit of {MAX_SCAN_POINTS}; use blp_analytic for the measure and "
            "blp_tail_bound for the tail beyond a shorter horizon"
        )
    times = np.linspace(0.0, horizon, points)
    positive = np.atleast_1d(_signal(params, times)) > 0
    idx = np.flatnonzero(positive[1:] != positive[:-1])
    rising = positive[idx + 1]
    edges = _refine_crossings(params, times[idx], times[idx + 1], rising).tolist()
    # sign changes alternate: drop a leading fall, close a trailing rise
    if edges and not rising[0]:
        edges = edges[1:]
    if len(edges) % 2:
        edges.append(float(horizon))
    return list(zip(edges[::2], edges[1::2]))


def _sample_state(rng: np.random.Generator) -> QubitState:
    # uniform over the Bloch ball, by rejection
    while True:
        v = rng.uniform(-1.0, 1.0, size=3)
        if v @ v <= 1.0:
            return QubitState(*v)


@dataclass(frozen=True)
class BlpResult:
    """Numeric trace-distance measure and the pair that achieved it."""

    value: float
    best_pair: StatePair
    optimal_value: float
    random_values: tuple[float, ...]
    segments: tuple[tuple[float, float], ...]
    n_intervals: int
    divergent: bool
    tail_bound: float
    horizon: float
    seed: int


def _pair_increase(params: ModelParams, pair: StatePair, segments) -> float:
    if not segments:
        return 0.0
    los = np.array([s[0] for s in segments])
    his = np.array([s[1] for s in segments])
    gains = evolved_trace_distance(params, pair, his) - evolved_trace_distance(
        params, pair, los
    )
    return float(gains.sum())


def blp_numeric(
    params: ModelParams,
    horizon: float | None = None,
    n_pairs: int = 16,
    seed: int = 0,
) -> BlpResult:
    """Integrated trace-distance increase, maximized over initial pairs.

    The increase over each detected window telescopes exactly, so each
    window contributes d(t_hi) - d(t_lo) of the closed-form distance; no
    quadrature error enters.  Evaluated for the analytically optimal pair
    and for ``n_pairs`` random pairs drawn uniformly from the Bloch ball
    (each pair gets its own child seed, so results do not depend on
    evaluation order).

    With kappa = 0 the measure diverges; an explicit horizon is then
    required and the result is flagged ``divergent``.
    """
    if n_pairs < 0:
        raise ValidationError("n_pairs must be >= 0")
    divergent = params.kappa == 0.0 and params.xi != 0.0
    if horizon is None:
        if divergent:
            raise DegenerateModelError(
                "the measure diverges at kappa = 0; pass a horizon explicitly"
            )
        if classify_regime(params) is Regime.UNDERDAMPED:
            horizon, _ = default_blp_horizon(params)
        else:
            horizon = _default_witness_horizon(params)
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    segments = tuple(detect_increase_segments(params, horizon))
    optimal_value = _pair_increase(params, OPTIMAL_PAIR, segments)
    random_values = []
    best_pair, best_value = OPTIMAL_PAIR, optimal_value
    for k in range(n_pairs):
        rng = np.random.default_rng([seed, k])
        pair = StatePair(_sample_state(rng), _sample_state(rng))
        val = _pair_increase(params, pair, segments)
        random_values.append(val)
        if val > best_value:
            best_pair, best_value = pair, val
    if divergent:
        tail = math.inf
    elif classify_regime(params) is Regime.UNDERDAMPED:
        tail = blp_tail_bound(params, len(segments)) if segments else blp_analytic(params)
    else:
        tail = 0.0
    return BlpResult(
        value=best_value,
        best_pair=best_pair,
        optimal_value=optimal_value,
        random_values=tuple(random_values),
        segments=segments,
        n_intervals=len(segments),
        divergent=divergent,
        tail_bound=tail,
        horizon=float(horizon),
        seed=seed,
    )


def threshold_scan(
    xi: float, kappa_lo: float, kappa_hi: float, tol: float = 1e-6
) -> float:
    """Bisect the cooling rate at which information backflow disappears.

    The predicate is the existence of a time with negative dephasing rate.
    ``kappa_lo`` must show backflow (non-Markovian) and ``kappa_hi`` must
    not; the returned rate is within ``tol`` of the transition, or one ulp
    where ``tol`` is finer: bisection stops when the midpoint rounds onto an endpoint.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if not 0 <= kappa_lo < kappa_hi:
        raise ValidationError("need 0 <= kappa_lo < kappa_hi")
    lo, hi = float(kappa_lo), float(kappa_hi)
    if not has_information_backflow(ModelParams(xi, lo)):
        raise ValidationError(
            f"kappa_lo={lo} shows no backflow; bracket does not straddle the threshold"
        )
    if has_information_backflow(ModelParams(xi, hi)):
        raise ValidationError(
            f"kappa_hi={hi} still shows backflow; bracket does not straddle the threshold"
        )
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if has_information_backflow(ModelParams(xi, mid)):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
