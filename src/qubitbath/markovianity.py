"""Executable Markovianity criteria for the reduced system dynamics.

Two independent witnesses are implemented against the same dynamics:

* CP divisibility: the evolution map between two times is completely
  positive for every division of the time axis.  Every sub-interval map
  is diag(1, 1, r, r) with r = c_t/c_s, whose Choi spectrum is
  {(1+r)/2, (1-r)/2, 0, 0} in closed form, so the map is CP exactly when
  |r| <= 1.  The generic Choi operator in :mod:`qubitbath.oracles`
  cross-checks this closed form.
* Trace-distance contractivity: distinguishability of state pairs never
  increases.  Quantified by the closed-form trace distance telescoped over
  the numerically detected windows where it grows, maximized over
  initial pairs.  The window edges are the sign changes of c*dc/dt on a
  uniform grid, all refined together by bisection with one vector kernel
  call per halving.

Both flip at the same cooling rate, kappa = 8|xi|, where
:func:`~qubitbath.analytic.classify_regime` leaves the underdamped regime;
:func:`threshold_scan` locates the flip by bisection on the sign of the
discriminant kappa**2 - 64*xi**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (
    Regime,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    coherence_factor_with_derivative,
    default_blp_horizon,
    increase_intervals,
)
from .errors import ValidationError
from .lindblad import ModelParams

__all__ = [
    "QubitState",
    "StatePair",
    "DivisibilityVerdict",
    "DivisibilityWitness",
    "cp_divisibility_witness",
    "evolved_trace_distance",
    "BlpResult",
    "blp_numeric",
    "threshold_scan",
]

#: Sub-interval maps are skipped (not failed) when |c| at an endpoint is below this.
MAP_SINGULARITY_TOL = 1e-12

#: Threshold on negative Choi eigenvalues for the CP witness.
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


def _choi_min_eigenvalue(ratio):
    """Min Choi eigenvalue of diag(1, 1, r, r): its spectrum is {(1+r)/2, (1-r)/2, 0, 0}."""
    return np.minimum(0.0, 0.5 * (1.0 - np.abs(ratio)))


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


def _default_witness_horizon(params: ModelParams) -> float:
    if classify_regime(params) is Regime.UNDERDAMPED:
        first = increase_intervals(params, 1)[0]
        return 1.5 * first.t_hi
    return 80.0 / max(params.kappa, 8.0 * abs(params.xi), 1.0)


def cp_divisibility_witness(params: ModelParams) -> DivisibilityWitness:
    """Scan consecutive sub-interval maps for complete positivity.

    [0, horizon] is divided into 400 uniform sub-intervals; underdamped,
    the horizon ends half a window spacing past the first predicted
    increase window.  Each map is diag(1, 1, r, r), and the reported Choi
    minimum is the closed form min(0, (1 - |r|)/2) of the sub-interval
    with the largest |r|, ``worst_interval``.  Sub-intervals with an
    endpoint where |c| < MAP_SINGULARITY_TOL are skipped and counted.

    The verdict is NON_DIVISIBLE when that minimum is below
    -CP_EIGENVALUE_TOL.  Otherwise it is INCONCLUSIVE in the underdamped
    regime, where a violation exists but the scan did not resolve it (near
    the threshold |c| underflows before the first window), and DIVISIBLE
    elsewhere.
    """
    horizon = _default_witness_horizon(params)
    times = np.linspace(0.0, horizon, 401)
    c = coherence_factor(params, times)
    valid = (np.abs(c[:-1]) >= MAP_SINGULARITY_TOL) & (
        np.abs(c[1:]) >= MAP_SINGULARITY_TOL
    )
    skipped = int((~valid).sum())
    min_eig = math.inf
    worst = None
    if np.any(valid):
        ratios = np.abs(c[1:][valid] / c[:-1][valid])
        k = int(np.argmax(ratios))
        min_eig = float(_choi_min_eigenvalue(ratios[k]))
        idx = np.flatnonzero(valid)[k]
        worst = (float(times[idx]), float(times[idx + 1]))
    if min_eig < -CP_EIGENVALUE_TOL:
        verdict = DivisibilityVerdict.NON_DIVISIBLE
    elif classify_regime(params) is Regime.UNDERDAMPED:
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


def _bisect(lo, hi, width: float, upper) -> np.ndarray:
    """Halve every bracket [lo[k], hi[k]] together; return their midpoints.

    ``upper(active, mid)`` gets the indices of the brackets still open and
    their midpoints, and says for each whether the midpoint becomes the
    bracket's upper end (else its lower end).  A bracket stops when its
    width is at most ``width`` or its midpoint rounds onto an endpoint
    (where one ulp exceeds ``width``); the others keep halving.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    active = np.arange(lo.size)
    while True:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        keep = (b - a > width) & (mid != a) & (mid != b)
        if not keep.any():
            return 0.5 * (lo + hi)
        active, mid = active[keep], mid[keep]
        up = upper(active, mid)
        hi[active[up]] = mid[up]
        lo[active[~up]] = mid[~up]


def _refine_crossings(params: ModelParams, lo, hi, rising) -> np.ndarray:
    """Bisect every bracketed sign change of the increase signal to 1e-10.

    ``rising[k]`` says whether the signal is positive at ``hi[k]``.  Each
    halving evaluates the signal once, as a vector, on the midpoints of the
    brackets still open.
    """
    return _bisect(lo, hi, 1e-10, lambda k, mid: (_signal(params, mid) > 0) == rising[k])


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
    span = horizon / step  # inf for an infinite horizon, or one beyond the float range
    if not span <= MAX_SCAN_POINTS - 1:  # ceil(span) + 1 points; also refuses nan
        raise ValidationError(
            f"scanning the trace distance up to t = {horizon:.6g} takes {span + 1:.3g} grid points, "
            f"over the limit of {MAX_SCAN_POINTS}; use blp_analytic for the measure and "
            "blp_tail_bound for the tail beyond a shorter horizon"
        )
    times = np.linspace(0.0, horizon, math.ceil(span) + 1)
    positive = _signal(params, times) > 0
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

    Where the measure diverges (kappa = 0) an explicit horizon is required,
    the tail bound is infinite and the result is flagged ``divergent``.
    """
    if n_pairs < 0:
        raise ValidationError("n_pairs must be >= 0")
    if horizon is None:
        if classify_regime(params) is Regime.UNDERDAMPED:
            horizon, _ = default_blp_horizon(params)
        else:
            horizon = _default_witness_horizon(params)
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
    tail = blp_tail_bound(params, len(segments))
    return BlpResult(
        value=best_value,
        best_pair=best_pair,
        optimal_value=optimal_value,
        random_values=tuple(random_values),
        segments=segments,
        n_intervals=len(segments),
        divergent=math.isinf(tail),
        tail_bound=tail,
        horizon=float(horizon),
        seed=seed,
    )


def threshold_scan(
    xi: float, kappa_lo: float, kappa_hi: float, tol: float = 1e-6
) -> float:
    """Bisect the cooling rate at which information backflow disappears.

    The predicate is the sign of the discriminant kappa**2 - 64*xi**2,
    which is the sign of the dephasing rate in the first increase window
    (see :func:`~qubitbath.analytic.has_information_backflow`), taken
    without the critical band, so the bisection converges on kappa = 8|xi|
    itself rather than on the band's lower edge.  ``kappa_lo`` must show
    backflow (negative discriminant) and ``kappa_hi`` must not; the
    returned rate is within ``tol`` of the transition, or one ulp where
    ``tol`` is finer: bisection stops when the midpoint rounds onto an endpoint.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    lo, hi = float(kappa_lo), float(kappa_hi)
    # ModelParams first: a coupling above MAX_RATE is named as such
    disc_lo, disc_hi = ModelParams(xi, lo).discriminant, ModelParams(xi, hi).discriminant
    if not lo < hi:
        raise ValidationError("need 0 <= kappa_lo < kappa_hi")
    if disc_lo >= 0:
        raise ValidationError(
            f"kappa_lo={lo} shows no backflow; bracket does not straddle the threshold"
        )
    if disc_hi < 0:
        raise ValidationError(
            f"kappa_hi={hi} still shows backflow; bracket does not straddle the threshold"
        )

    def markovian(_, mid):
        return np.array([ModelParams(xi, m).discriminant >= 0 for m in mid.tolist()])

    return float(_bisect([lo], [hi], tol, markovian)[0])
