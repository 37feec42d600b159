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
  initial pairs.  Under diag(1, 1, c, c) a pair enters only through its
  Bloch difference, and the antipodal y-z pair, with distance |c|, is
  optimal.  The window edges are the sign changes of d|c|/dt on uniform grids,
  read by the one route of that sign, ``analytic._increasing``, which leaves out
  the envelope exp(-kappa*t/4) and so does not underflow where c does.  The grids
  are scanned in windows of 8,192 points, one call each, and refined by one
  bisection over every bracket of every point, whose halvings read the sign
  alone; c is then read once at the edges by the kernel, the value route.

Both flip at the same cooling rate, kappa = 8|xi|, where
:func:`~qubitbath.analytic.classify_regime` leaves the underdamped regime;
:func:`threshold_scan` locates the flip by bisection on the sign of the
discriminant kappa**2 - 64*xi**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .analytic import (
    Regime,
    _increasing,
    _increasing_lanes,
    _kernel,
    _point_terms,
    blp_tail_bound,
    classify_regime,
    coherence_factor,
    default_blp_horizon,
)
from .errors import ValidationError
from .lindblad import ModelParams

__all__ = [
    "QubitState",
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

#: Most grid points :func:`detect_increase_segments` scans: a bound on its time, not memory.  On a 2-core
#: x86-64 Xeon a scan of that many points takes 0.19-0.27 s at xi = 1, kappa = 9 (no window) and 0.54-0.65 s
#: at xi = 1, kappa = 4, whose 55,133 windows are bisected too.
MAX_SCAN_POINTS = 10_000_000

#: Most random pairs :func:`blp_numeric` draws and holds (10,000: 0.17-0.20 s and a
#: 1 MB tracemalloc peak for the 71 windows of xi = 1, kappa = 0.5, on a 2-core x86-64 Xeon).
MAX_PAIRS = 10_000

# Most points one kernel call of the batched scans reads: the scan holds one window of them at a time.
_SLICE_POINTS = 8192


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


class _Points(NamedTuple):
    """A batch of points as the batched routes read it, each fact decided once per point: ``xi``,
    ``kappa``, ``disc`` and its branch ``pos`` (``analytic._point_terms``); ``under``, the regime of
    :func:`classify_regime`; ``ends``, the first increase window's end 4*pi/r where underdamped (nan
    elsewhere), ``increase_intervals(params, 1)[0, 1]`` bit for bit; ``horizons``, the default witness
    horizon: 1.5 * ends where underdamped, else 80/max(kappa, 8|xi|, 1).  Built by :func:`_points`;
    as a tuple, its len is that of its fields, and ``len(points.params)`` counts the points."""

    params: tuple[ModelParams, ...]
    xi: np.ndarray
    kappa: np.ndarray
    disc: np.ndarray
    pos: np.ndarray
    under: np.ndarray
    ends: np.ndarray
    horizons: np.ndarray

    def take(self, idx) -> _Points:
        """The record of the points ``idx``, in that order: every field sliced, nothing decided again."""
        idx = np.asarray(idx, dtype=int)
        return _Points(tuple(self.params[k] for k in idx.tolist()), *(a[idx] for a in self[1:]))


def _points(params) -> _Points:
    """The record of the points ``params``, read once into a tuple (a generator too), in array passes
    but for the regime, which :func:`classify_regime` decides once per point."""
    params = tuple(params)
    xi, kappa = (np.array([getattr(p, name) for p in params], dtype=float) for name in ("xi", "kappa"))
    _, disc, pos = _point_terms(xi, kappa)
    under = np.array([classify_regime(p) is Regime.UNDERDAMPED for p in params], dtype=bool)
    ends = np.full(len(params), math.nan)
    ends[under] = (4.0 * math.pi) / np.sqrt(-disc[under])
    horizons = np.where(under, 1.5 * ends, 80.0 / np.maximum(np.maximum(kappa, 8.0 * np.abs(xi)), 1.0))
    return _Points(params, xi, kappa, disc, pos, under, ends, horizons)


def _witness_many(points: _Points) -> list[DivisibilityWitness]:
    """:func:`cp_divisibility_witness` of every point of the record: per slice of their 401-time grids,
    one kernel call and one array pass over the (points, 400) sub-interval ratios; only the dataclass
    is per point.  The regimes and the default horizons are the record's.

    An invalid sub-interval reads -inf, below every |r|, so the first row maximum is the first
    largest valid ratio; a row without one keeps the infinite minimum and no worst interval."""
    out, batch = [], _SLICE_POINTS // 401
    for start in range(0, len(points.params), batch):
        stop = start + batch
        grids = np.linspace(0.0, points.horizons[start:stop], 401, axis=-1)
        c = _kernel(points.xi[start:stop, None], points.kappa[start:stop, None], grids)[0]
        resolved = np.abs(c) >= MAP_SINGULARITY_TOL
        valid = resolved[:, :-1] & resolved[:, 1:]
        ratios = np.full(valid.shape, -np.inf)
        np.divide(c[:, 1:], c[:, :-1], out=ratios, where=valid)
        np.abs(ratios, out=ratios, where=valid)
        rows, k = np.arange(len(c)), np.argmax(ratios, axis=1)
        found = valid.any(axis=1)
        min_eigs = np.where(found, _choi_min_eigenvalue(ratios[rows, k]), math.inf).tolist()
        worst = [(lo, hi) if f else None for lo, hi, f in zip(grids[rows, k].tolist(), grids[rows, k + 1].tolist(), found)]
        for horizon, under, min_eig, interval, n_skipped in zip(
            points.horizons[start:stop].tolist(), points.under[start:stop].tolist(), min_eigs, worst, (~valid).sum(axis=1).tolist()
        ):
            if min_eig < -CP_EIGENVALUE_TOL:
                verdict = DivisibilityVerdict.NON_DIVISIBLE
            elif under:
                verdict = DivisibilityVerdict.INCONCLUSIVE
            else:
                verdict = DivisibilityVerdict.DIVISIBLE
            out.append(DivisibilityWitness(verdict, min_eig, interval, valid.shape[1], n_skipped, horizon))
    return out


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
    return _witness_many(_points([params]))[0]


def _trace_distance(difference, c):
    """Trace distance of a pair with Bloch difference (dx, dy, dz) once dy and dz are scaled by ``c``."""
    dx, dy, dz = difference
    return 0.5 * np.sqrt(dx**2 + c**2 * (dy**2 + dz**2))


def evolved_trace_distance(params: ModelParams, first: QubitState, second: QubitState, t):
    """Trace distance of the evolved states ``first`` and ``second`` at time(s) ``t``.

    Closed form: 0.5*sqrt(dx**2 + c(t)**2 * (dy**2 + dz**2)) of their Bloch
    difference, the expression :func:`blp_numeric` reads at the window edges.
    """
    difference = (first.x - second.x, first.y - second.y, first.z - second.z)
    return _trace_distance(difference, coherence_factor(params, t))


# ---------------------------------------------------------------------------
# Trace-distance increase detection and the numeric BLP measure.
# ---------------------------------------------------------------------------


def _bisect(lo, hi, width, upper) -> np.ndarray:
    """Halve every bracket [lo[k], hi[k]] together; return their midpoints.

    ``upper(active, mid)`` gets the indices of the brackets still open and
    their midpoints, and says for each whether the midpoint becomes the
    bracket's upper end (else its lower end).  A bracket stops when its
    width is at most ``width`` (one for all, or one per bracket) or its
    midpoint rounds onto an endpoint (where one ulp exceeds its width);
    the others keep halving.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    width = np.broadcast_to(width, lo.shape)
    active = np.arange(lo.size)
    while True:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        keep = (b - a > width[active]) & (mid != a) & (mid != b)
        if not keep.any():
            return 0.5 * (lo + hi)
        active, mid = active[keep], mid[keep]
        up = upper(active, mid)
        hi[active[up]] = mid[up]
        lo[active[~up]] = mid[~up]


def _refine_crossings(points: _Points, owner, lo, hi, rising) -> np.ndarray:
    """Bisect the sign change bracketed by [lo[k], hi[k]] of point owner[k] of the record, every k at
    once, to its point's width min(1e-10, 1e-9/|xi|), computed per point as the equal 1e-9/max(|xi|, 10);
    ``rising[k]`` says whether the signal is positive at ``hi[k]``.  Each bracket gathers its point's
    kappa, disc and branch from the record once.  A halving evaluates only the increase sign at the
    midpoints (``analytic._increasing_lanes``): each lies inside a bracket whose ends the scan has
    checked, so its time needs no check."""
    width = (1e-9 / np.maximum(np.abs(points.xi), 10.0))[owner]
    kappa, disc, pos = points.kappa[owner], points.disc[owner], points.pos[owner]
    return _bisect(lo, hi, width, lambda k, mid: _increasing_lanes(kappa[k], disc[k], pos[k], mid) == rising[k])


def _detect_many(points: _Points, horizons) -> list[np.ndarray]:
    """:func:`detect_increase_segments` of every point of the record with its horizon; all horizons are
    checked before any grid is built, and one bisection refines the brackets of every point.  Each
    point's grid step and bisection width are computed once, in array passes over the record's xi and
    disc.  The grids are laid end to end and read in windows of at most _SLICE_POINTS lanes: a window
    ends at the last grid end that fits in it, and only a longer grid is split."""
    xis, kappas, disc = points.xi, points.kappa, points.disc
    h = np.array(horizons, dtype=float)
    oscillating = disc < 0  # 200 points per oscillation period, at most max(0.01, 0.0025/|xi|) apart
    step = np.maximum(0.01, np.divide(0.0025, np.abs(xis), out=np.zeros(len(points.params)), where=xis != 0))
    step[oscillating] = np.minimum(step[oscillating], (8.0 * math.pi) / np.sqrt(-disc[oscillating]) / 200.0)
    with np.errstate(over="ignore"):
        span = h / step  # inf for an infinite horizon, or one beyond the float range
    refused = (h <= 0) | ~(span <= MAX_SCAN_POINTS - 1)  # ceil(span) + 1 points; also refuses nan
    if refused.any():  # the first refused point, in order
        k = int(np.argmax(refused))
        if h[k] <= 0:
            raise ValidationError("horizon must be positive")
        raise ValidationError(
            f"scanning the trace distance up to t = {float(h[k]):.6g} takes {float(span[k]) + 1:.3g} grid points, "
            f"over the limit of {MAX_SCAN_POINTS}; use blp_analytic for the measure and "
            "blp_tail_bound for the tail beyond a shorter horizon"
        )
    sizes = np.ceil(span).astype(int) + 1
    ends = np.cumsum(sizes)
    starts, spacing = ends - sizes, h / (sizes - 1)  # n >= 2, and h/(n-1) is at least the grid step: never 0
    found = [(np.empty(0), np.empty(0), np.empty(0, dtype=bool), np.empty(0, dtype=int))]
    lane, first, carry = 0, 0, None  # carry: the last time and signal of a window that splits a grid
    while first < len(points.params):
        last = int(np.searchsorted(ends, lane + _SLICE_POINTS, "right"))  # grids first..last-1 end in the window
        stop = int(ends[last - 1]) if last > first else lane + _SLICE_POINTS
        grids = slice(first, max(last, first + 1))
        local = np.minimum(ends[grids], stop) - lane  # where each grid's lanes end in the window
        # one grid, or a piece of one, is read with its point's terms broadcast, as one point is
        reps = np.diff(local, prepend=0) if last - first > 1 else 1
        # every grid's np.linspace(0.0, h, n) by linspace's own formula: k * (h/(n-1)) + 0.0, then h at k = n - 1
        times = (np.arange(lane, stop, dtype=float) - np.repeat(starts[grids], reps)) * np.repeat(spacing[grids], reps) + 0.0
        times[local[: last - first] - 1] = h[first:last]
        positive = _increasing(xis[grids], kappas[grids], times, np.repeat(np.arange(len(local)), reps))
        change = positive[1:] != positive[:-1]
        change[local[:-1] - 1] = False  # from the last lane of one grid to the first of the next
        idx = np.flatnonzero(change)
        if carry is not None and carry[1] != positive[0]:  # a sign change between two windows
            found.append(([carry[0]], times[:1], positive[:1], [first]))
        found.append((times[idx], times[idx + 1], positive[idx + 1], first + np.searchsorted(local[:-1], idx, "right")))
        lane, first, carry = stop, max(first, last), None if last > first else (times[-1], positive[-1])
    lo, hi, rising, owner = (np.concatenate(column) for column in zip(*found))
    edges = _refine_crossings(points, owner, lo, hi, rising)
    bounds = np.searchsorted(owner, np.arange(len(points.params) + 1)).tolist()
    out = []
    for horizon, first, last in zip(h.tolist(), bounds, bounds[1:]):
        # sign changes alternate: drop a leading fall, close a trailing rise
        if first < last and not rising[first]:
            first += 1
        e = edges[first:last]
        if e.size % 2:
            e = np.append(e, horizon)
        out.append(e.reshape(-1, 2))
    return out


def detect_increase_segments(params: ModelParams, horizon: float) -> np.ndarray:
    """Time windows in [0, horizon] where the trace distance increases.

    An (n, 2) array of (t_lo, t_hi) rows, as :func:`increase_intervals`
    gives them in closed form.  Sign changes of d|c|/dt are located on a
    uniform grid (200 points per oscillation period, at most
    max(0.01, 0.0025/|xi|) apart), read one call per scan window of at
    most 8,192 points, and refined by bisection.  The sign read is that of
    d|c|/dt without the envelope exp(-kappa*t/4), so windows are found up
    to the horizon, also where c itself has underflowed to 0.  A grid of
    more than :data:`MAX_SCAN_POINTS` points is refused before any of it
    is built."""
    return _detect_many(_points([params]), [horizon])[0]


def _random_differences(seed: int, n: int) -> np.ndarray:
    """Bloch differences of ``n`` random pairs of states uniform over the Bloch ball.

    An (n, 3) array.  States are drawn by rejection from the cube
    [-1, 1]**3, kept in draw order and paired 2k with 2k+1.  Each batch
    draws one candidate row per state still missing; rows consume the
    generator exactly as one candidate at a time would, so a seed gives
    the same pairs at any batch size.
    """
    rng = np.random.default_rng(seed)
    states = np.empty((0, 3))
    while len(states) < 2 * n:
        v = rng.uniform(-1.0, 1.0, size=(2 * n - len(states), 3))
        states = np.concatenate([states, v[np.einsum("ij,ij->i", v, v) <= 1.0]])
    return states[0::2] - states[1::2]


@dataclass(frozen=True, eq=False)
class BlpResult:
    """Numeric trace-distance measure, the largest over the pairs scored.

    ``value`` is the optimal pair's measure, since no random pair beats it;
    ``random_values`` holds the random pairs' measures, the evidence of
    that.  ``segments`` is the read-only (n, 2) array of detected
    (t_lo, t_hi) windows, so n is the number of windows counted.
    ``tail_bound`` bounds the measure beyond them; it is infinite where
    the measure diverges (kappa = 0)."""

    value: float
    random_values: tuple[float, ...]
    segments: np.ndarray
    tail_bound: float
    horizon: float


def _blp_many(points: _Points, horizons, n_pairs: int, seed: int) -> list[BlpResult]:
    """:func:`blp_numeric` of every point of the record with its horizon: one batched detection, one
    kernel call for the window edges of all points and one draw of the pairs.  A horizon of None is
    the default of the regime the record holds.  The optimal pair and each random pair are summed
    over the windows of every point in one array pass: the points with w windows are the rows of one
    (points, w) array, and a row sum adds in the order of ``np.sum`` over one point's windows
    (pairwise from 8 windows on), so each point keeps the bits of its one-point call."""
    if not 0 <= n_pairs <= MAX_PAIRS:
        raise ValidationError(f"n_pairs must be between 0 and {MAX_PAIRS}, got {n_pairs}")
    horizons = [h if h is not None else default_blp_horizon(p)[0] if under else w
                for p, h, under, w in zip(points.params, horizons, points.under.tolist(), points.horizons.tolist())]
    all_segments = _detect_many(points, horizons)
    counts = np.array([len(segments) for segments in all_segments], dtype=int)
    # c at each window's (t_lo, t_hi), one row per window, shared by every pair
    owner = np.repeat(np.arange(len(points.params)), counts)[:, None]
    c_all = _kernel(points.xi, points.kappa, np.concatenate([np.empty((0, 2)), *all_segments]), owner)[0]
    starts = np.cumsum(counts) - counts
    rows = []  # for each count w > 0: the points with w windows and their (points, w) window indices
    for w in sorted(set(counts.tolist()) - {0}):  # np.unique of integers imports numpy.ma: 1.6 MB of peak RSS
        idx = np.flatnonzero(counts == w)
        rows.append((idx, starts[idx, None] + np.arange(w)))

    def measures(distance) -> np.ndarray:
        """Each point's sum of distance(t_hi) - distance(t_lo) over its windows; 0 without one."""
        increase, out = distance[:, 1] - distance[:, 0], np.zeros(len(points.params))
        for idx, windows in rows:
            out[idx] = increase[windows].sum(axis=1)
        return out

    optimal = measures(np.abs(c_all)).tolist()
    # one (windows, 2) temporary per pair: a (pairs x windows) array would
    # reach 16 GB at MAX_PAIRS with the windows of a MAX_SCAN_POINTS scan
    random_values = np.array([measures(_trace_distance(d, c_all)) for d in _random_differences(seed, n_pairs)])
    out = []
    for params, horizon, segments, best, randoms in zip(
        points.params, horizons, all_segments, optimal, random_values.reshape(n_pairs, len(points.params)).T.tolist()
    ):
        segments.flags.writeable = False
        randoms = tuple(randoms)
        tail_bound = blp_tail_bound(params, len(segments))
        out.append(BlpResult(max((best, *randoms)), randoms, segments, tail_bound, float(horizon)))
    return out


def blp_numeric(
    params: ModelParams,
    horizon: float | None = None,
    n_pairs: int = 16,
    seed: int = 0,
) -> BlpResult:
    """Integrated trace-distance increase, maximized over initial pairs.

    The increase over each detected window telescopes exactly, so each
    window contributes d(t_hi) - d(t_lo) of the closed-form distance; no
    quadrature error enters.  c is evaluated once, at every window edge,
    and each pair reads those values through its Bloch difference alone.
    The optimal pair, antipodal in the y-z plane, has distance |c|, so its
    measure telescopes |c|; no pair beats it, since each window's increase
    is 1-Lipschitz in |c|.  The ``n_pairs`` random pairs, uniform over the
    Bloch ball, are drawn as one (n_pairs, 3) array of differences by one
    generator seeded with ``seed``.  More than :data:`MAX_PAIRS` pairs are
    refused.

    Where the measure diverges (kappa = 0) an explicit horizon is required
    and the tail bound is infinite.
    """
    return _blp_many(_points([params]), [horizon], n_pairs, seed)[0]


def threshold_scan(
    xi: float, kappa_lo: float, kappa_hi: float, tol: float = 1e-6
) -> float:
    """Bisect the cooling rate at which information backflow disappears.

    The predicate is the sign of the discriminant kappa**2 - 64*xi**2,
    which is the sign of the dephasing rate in the first increase window
    (see :func:`~qubitbath.analytic.has_information_backflow`), taken
    without the critical band, so the bisection converges on kappa = 8|xi|
    itself rather than on the band's lower edge.  ``kappa_lo`` must show
    backflow (negative discriminant) and ``kappa_hi`` must not.  ``tol``
    bounds the error both absolutely and relative to the transition rate
    8|xi|: bisection stops at the width min(tol, tol*8|xi|), or where the
    midpoint rounds onto an endpoint (one ulp finer than that width).
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

    return float(_bisect([lo], [hi], min(tol, tol * 8.0 * abs(xi)), markovian)[0])
