"""Closed-form solution of the reduced system dynamics and derived quantities.

The traced-out system qubit evolves as x_t = x_0, y_t = c(t) y_0,
z_t = c(t) z_0 with a single scalar coherence factor c(t) whose form
depends on the sign of the discriminant kappa**2 - 64*xi**2:

  overdamped   (> 0):  exp(-kt/4) * (k*sinh(rt/4)/r + cosh(rt/4)),  r = sqrt(disc)
  underdamped  (< 0):  exp(-kt/4) * (k*sin(rt/4)/r + cos(rt/4)),    r = sqrt(-disc)
  critical     (= 0):  exp(-kt/4) * (1 + k*t/4)

All three branches are evaluated through one analytic function of
s = disc * (t/4)**2 (a sinh-cardinal extended through negative argument),
which removes the catastrophic cancellation the printed branches suffer
near the critical boundary and makes c continuous in the parameters.
One private evaluator, ``_kernel``, gives c and dc/dt in one pass over
parameter points broadcast against times, or over ragged batches whose lanes
name their point by index; :func:`coherence_factor_with_derivative` is its
one-point read, and c and dc/dt read from that.  d|c|/dt = sign(c) * dc/dt
is positive exactly where the trace distance grows.  ``_abs_derivative`` is
the one route of its value, which ``contour`` and verify read through one
window loop over kappa rows.  ``_increasing`` is the one route of its sign,
which the detector reads: c and dc/dt share the envelope exp(-kappa*t/4), so
the sign is that of -sinhc * (kappa*t/4 * sinhc + cosh), which costs no exp
and does not underflow where c does.  The two routes share the kernel's terms
before the envelope.  xi**2, kappa**2, the discriminant, the time limit and
the branch (disc > 0) are computed once per point; s, its clip, sinh and cosh
or sin and cos, the envelope, c and dc are computed per lane.

:func:`classify_regime` is the one place the regime is decided, with a
band relative to kappa**2 and 64*xi**2 alone, so every verdict depends on
kappa/|xi| only; the backflow predicate, the measure, its tail bound and
the horizons all read it.  The batched routes of markovianity read each
point's regime from their record of the batch, which decides it once.

Everything in this module is a pure function; scalar time arguments give
scalars, arrays give arrays.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DegenerateModelError, RegimeError, ValidationError
from .lindblad import ModelParams, TimeGrid

__all__ = [
    "Regime",
    "classify_regime",
    "coherence_factor",
    "coherence_factor_with_derivative",
    "abs_coherence_derivative",
    "increase_intervals",
    "blp_analytic",
    "blp_tail_bound",
    "default_blp_horizon",
    "bath_correlation",
    "has_information_backflow",
]

#: Relative width of the band classified as critical.
REGIME_TOL = 1e-8

#: Largest |closed-form c - propagated c| accepted: the analytic-numeric
#: check's default tolerance, and the bound ``qubitbath evolve`` holds to.
ORACLE_TOL = 1e-8

#: Part of the closed-form measure the default blp horizon may leave to
#: the geometric tail.
BLP_REL_TAIL = 1e-6

#: Largest time the closed forms accept; (t/4)**2 overflows above about
#: 5.4e154.  Where |disc| exceeds about 1.6e10 the bound is the lower
#: 4*sqrt(_S_MAX/|disc|), which keeps |s| = |disc|*(t/4)**2 below _S_MAX,
#: under the float maximum by more than the rounding of either.
MAX_TIME = 1e150
_S_MAX = 1e308

# Above this value of s = disc*(t/4)**2 the sinh/cosh forms overflow and the
# evaluation switches to explicitly negative exponentials.
_BIG_S = 900.0


class Regime(Enum):
    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


def classify_regime(params: ModelParams) -> Regime:
    """Compare kappa**2 against 64*xi**2 with the band REGIME_TOL*max of the two.

    The band has no absolute floor, so the regime of (xi, kappa) is that of
    (a*xi, a*kappa) for every a > 0.
    """
    k2 = params.kappa**2
    x2 = 64.0 * params.xi**2
    if abs(k2 - x2) <= REGIME_TOL * max(k2, x2):
        return Regime.CRITICAL
    return Regime.OVERDAMPED if k2 > x2 else Regime.UNDERDAMPED


def _sinhc_cosh_ext(s: np.ndarray, pos) -> tuple[np.ndarray, np.ndarray]:
    """sinh(sqrt(s))/sqrt(s) and cosh(sqrt(s)), continued through s <= 0 as
    sin(sqrt(-s))/sqrt(-s) and cos(sqrt(-s)); outside the |s| < 1e-6 series
    band every s = disc*(t/4)**2 has the sign of its point's disc, so ``pos``
    (disc > 0) picks the branch.  Where the points disagree ``pos`` is per
    lane (broadcast against ``s``); where they agree only its value is read."""
    u = np.abs(s)
    small = u < 1e-6
    series = small.any()
    r = np.sqrt(u)
    if series:
        r[small] = 1.0  # keeps the division finite; the series overwrites it
    if pos.all() or not pos.any():  # one branch for every lane, as for one point
        sinhc, cosh = (np.sinh(r) / r, np.cosh(r)) if pos.any() else (np.sin(r) / r, np.cos(r))
    else:  # each lane evaluates its own branch only; sinh is finite on the clipped overdamped ones
        sinhc, cosh, pos = np.empty_like(r), np.empty_like(r), np.broadcast_to(pos, s.shape)
        for lanes, sin, cos in ((pos, np.sinh, np.cosh), (~pos, np.sin, np.cos)):
            part = r[lanes]
            sinhc[lanes], cosh[lanes] = sin(part) / part, cos(part)
    if series:
        u = s[small]
        sinhc[small] = 1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0))
        cosh[small] = 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
    return sinhc, cosh


def _check_times(t, disc, owner=None) -> tuple[np.ndarray, bool]:
    """``t`` as a float array, checked lane by lane: finite, >= 0 and at most the time limit of
    its point, which is computed once per point of ``disc`` and read by index through ``owner``."""
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError("time must be finite")
    if (arr < 0).any():
        raise ValidationError("time must be >= 0")
    limit = np.minimum(MAX_TIME, 4.0 * np.sqrt(_S_MAX / np.maximum(np.abs(disc), 1.0)))
    if owner is not None:
        limit = limit[owner]
    over = arr > limit
    if over.any():  # name the limit of the first lane, in C order, that exceeds its own
        limit = np.broadcast_to(limit, over.shape)[over][0]
        raise ValidationError(f"time must be <= {limit:.6g}: MAX_TIME = {MAX_TIME:g}, less where disc*(t/4)**2 overflows")
    return arr, arr.ndim == 0


def _point_terms(xi, kappa) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi**2, the discriminant disc = kappa**2 - 64*xi**2 and the branch disc > 0 of the points
    (``xi``, ``kappa``), once per point; float_power is the pow of ModelParams' ``**``."""
    x2 = np.float_power(xi, 2.0)
    disc = np.float_power(kappa, 2.0) - 64.0 * x2
    return x2, disc, np.greater(disc, 0)


def _gathered(xi, kappa, t, owner=None) -> tuple[np.ndarray, ...]:
    """The checked times ``t`` as an array and the kappa, xi**2, disc and branch of their lanes
    (:func:`_point_terms`).  The points (``xi``, ``kappa``) are broadcast against ``t``; or, with
    ``owner``, they are 1-d arrays and each lane of ``t`` is a time of point ``owner`` (an index array
    broadcast against ``t``).  The time limit is computed once per point too; the branch is read by
    index only where the points disagree on it."""
    x2, disc, pos = _point_terms(xi, kappa)
    arr = np.atleast_1d(_check_times(t, disc, owner)[0])
    if owner is not None:  # each lane reads its point's terms
        kappa, x2, disc = kappa[owner], x2[owner], disc[owner]
        if pos.any() and not pos.all():
            pos = pos[owner]
    return arr, kappa, x2, disc, pos


def _lane_terms(kappa, disc, pos, t) -> tuple[np.ndarray, ...]:
    """The per-lane terms before the envelope at the times ``t`` (an array, already checked) of lanes
    with ``kappa``, ``disc`` and branch ``pos``, per lane or broadcast: where s = disc*(t/4)**2 exceeds
    _BIG_S (s is clipped to it there), sinhc(s), cosh(s) and kappa*t/4."""
    s = disc * (t / 4.0) ** 2
    big = s > _BIG_S
    if big.any():
        s[big] = _BIG_S
    sinhc, cosh = _sinhc_cosh_ext(s, pos)
    return big, sinhc, cosh, kappa * t / 4.0


def _kernel(xi, kappa, t, owner=None) -> tuple[np.ndarray, np.ndarray]:
    """c and dc/dt at the times ``t`` (an array) of the points (``xi``, ``kappa``), which the lanes
    read as :func:`_gathered` says.  The rest is per lane: s = disc*(t/4)**2, the clip at _BIG_S,
    sinh and cosh or sin and cos (:func:`_lane_terms`), the envelope, c and dc.

    Every regime goes through the sinhc/cosh kernel of s:
    c = exp(-kt/4) * (kt/4 * sinhc(s) + cosh(s)) and, in all regimes,
    dc/dt = -4*xi**2 * t * exp(-kt/4) * sinhc(s).  Where s > _BIG_S
    (overdamped, long times) sinh and cosh overflow; the kernel sees s
    clipped to _BIG_S there, and both values are replaced by their forms
    with the decaying exponentials written out, r = sqrt(disc).  All of it is
    decided lane by lane, so each lane has the bits of its one-point call."""
    arr, k, x2, disc, pos = _gathered(xi, kappa, t, owner)
    big, sinhc, cosh, kt4 = _lane_terms(k, disc, pos, arr)
    envelope = np.exp(-kt4)
    c = envelope * (kt4 * sinhc + cosh)
    dc = -4.0 * x2 * arr * envelope * sinhc
    if big.any():  # one point's parameters stay scalars; batched ones are picked lane by lane
        tb, kb, x2b, db = (np.broadcast_to(a, big.shape)[big] if np.ndim(a) else a for a in (arr, k, x2, disc))
        r = np.sqrt(db)
        # r - kappa = -64 xi**2 / (r + kappa) exactly; the difference itself cancels to a
        # relative error of about eps*kappa**2/(32 xi**2) where kappa >> 8|xi|
        grow, decay = np.exp(-64.0 * x2b / (r + kb) * tb / 4.0), np.exp(-(r + kb) * tb / 4.0)
        c[big] = 0.5 * ((1.0 + kb / r) * grow + (1.0 - kb / r) * decay)
        dc[big] = -8.0 * x2b / r * (grow - decay)
    return c, dc


def coherence_factor_with_derivative(params: ModelParams, t):
    """c(t) and dc/dt at the time(s) ``t``: the one-point read of the kernel."""
    c, dc = _kernel(params.xi, params.kappa, t)
    return (float(c[0]), float(dc[0])) if np.ndim(t) == 0 else (c, dc)


def coherence_factor(params: ModelParams, t):
    """The factor c(t) multiplying the system's y and z Bloch components."""
    return coherence_factor_with_derivative(params, t)[0]


def _abs_derivative(xi, kappa, t, owner=None) -> np.ndarray:
    """d|c|/dt = sign(c) * dc/dt over the lanes of :func:`_kernel`, which takes the same arguments."""
    c, dc = _kernel(xi, kappa, t, owner)
    return np.sign(c) * dc


def _increasing_lanes(kappa, disc, pos, t) -> np.ndarray:
    """Where d|c|/dt > 0 at the checked times ``t`` of lanes with ``kappa``, ``disc`` and branch ``pos``
    (as :func:`_lane_terms` reads them): c and dc/dt share the positive envelope exp(-kappa*t/4), and
    dc/dt has the sign of -sinhc(s), so for t > 0 and xi != 0 the sign of sign(c) * dc/dt is that of
    -sinhc * (kappa*t/4 * sinhc + cosh).  That sign costs no exp and does not underflow where c does.
    At t = 0 (s = 0, so sinhc = cosh = 1) and at xi = 0 (disc >= 0: sinhc, cosh > 0) it is False, as is
    d|c|/dt > 0; so is it on a clipped lane, overdamped, where c > 0 falls."""
    _, sinhc, cosh, kt4 = _lane_terms(kappa, disc, pos, t)
    return sinhc * (kt4 * sinhc + cosh) < 0


def _increasing(xi, kappa, t, owner=None) -> np.ndarray:
    """Where d|c|/dt is positive, the trace distance grows: :func:`_increasing_lanes` over the lanes
    of :func:`_kernel`, which takes the same arguments.  It equals ``_abs_derivative(...) > 0`` lane
    for lane wherever neither c nor dc/dt underflows to 0."""
    arr, k, _, disc, pos = _gathered(xi, kappa, t, owner)
    return _increasing_lanes(k, disc, pos, arr)


def _abs_derivative_windows(xi: float, kappas: np.ndarray, grid: TimeGrid, lanes: int):
    """d|c|/dt of the rows (xi, kappas[k]) at the times k * grid.step, one kernel call per window: the
    whole rows that fit in ``lanes`` lanes, or a piece of a longer row.  Yields each window's kappas,
    times and (rows, times) values.  ``kappas`` ascend, and every refusal is decided before the first
    window at their two ends, smaller first: for kappa >= 0 disc = kappa**2 - 64*xi**2 rises with kappa,
    so the rate bound and the tightest time limit (the largest |disc|) are both reached at an end."""
    last = grid.step * (grid.num - 1)
    for kappa in (kappas[0], kappas[-1]):
        _check_times(last, ModelParams(xi, float(kappa)).discriminant)
    rows = max(lanes // grid.num, 1)
    for first in range(0, len(kappas), rows):
        window = kappas[first:first + rows]
        for begin in range(0, grid.num, lanes):
            times = grid.step * np.arange(begin, min(begin + lanes, grid.num))
            yield window, times, _abs_derivative(xi, window[:, None], times)


def abs_coherence_derivative(params: ModelParams, t):
    """d|c|/dt, i.e. sign(c(t)) * c'(t); same sign as c'(t)/c(t).

    Finite for every valid t, and 0 where c is exactly 0: unlike the
    logarithmic derivative it has no pole at the zeros of c.
    """
    out = _abs_derivative(params.xi, params.kappa, t)
    return out[0] if np.ndim(t) == 0 else out


def increase_intervals(params: ModelParams, n_max: int) -> np.ndarray:
    """The first ``n_max`` trace-distance increase windows (underdamped only).

    A float array of shape (n_max, 2), one (t_lo, t_hi) row per window:
    the n-th window has t_hi = 4*n*pi/r and t_lo = t_hi - delta with
    delta = 4*arctan(r/kappa)/r, r = sqrt(64*xi**2 - kappa**2).
    c vanishes at t_lo and |c| touches its envelope exp(-kappa*t_hi/4) at t_hi.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if classify_regime(params) is not Regime.UNDERDAMPED:
        raise RegimeError(
            "increase intervals exist only in the underdamped regime "
            f"(kappa={params.kappa}, 8|xi|={8 * abs(params.xi)})"
        )
    r = math.sqrt(-params.discriminant)
    delta = 4.0 * math.atan2(r, params.kappa) / r
    t_hi = np.arange(1, n_max + 1) * (4.0 * math.pi / r)
    return np.column_stack((t_hi - delta, t_hi))


def blp_analytic(params: ModelParams) -> float:
    """Closed-form trace-distance non-Markovianity measure.

    +infinity at kappa = 0 (undamped backflow), zero outside the
    underdamped regime, otherwise 1/(exp(kappa*pi/sqrt(64*xi**2 - kappa**2)) - 1),
    evaluated in a form that underflows gracefully near the threshold.
    Also +infinity where that exponent underflows to 0, as at kappa = 0.
    """
    if params.kappa == 0.0:
        if params.xi == 0.0:
            raise DegenerateModelError("xi = kappa = 0 has no dynamics to measure")
        return math.inf
    if classify_regime(params) is not Regime.UNDERDAMPED:
        return 0.0
    return _underdamped_measure(params)


def _underdamped_measure(params: ModelParams) -> float:
    """The measure of an underdamped point, classified by the caller; infinite at kappa = 0."""
    x = params.kappa * math.pi / math.sqrt(-params.discriminant)
    return math.exp(-x) / -math.expm1(-x) if x else math.inf


def blp_tail_bound(params: ModelParams, n_intervals: int) -> float:
    """Upper bound on the measure omitted by truncating after ``n_intervals``.

    The per-window increases form a geometric series; the bound equals
    exp(-kappa*t_n/4) / (exp(kappa*pi/r) - 1) and is exact.  With no
    window counted it is the whole measure; at kappa = 0, or where
    kappa*pi/r underflows to 0, it is infinite.
    """
    if n_intervals < 0:
        raise ValidationError("n_intervals must be >= 0")
    if classify_regime(params) is not Regime.UNDERDAMPED:
        return 0.0
    r = math.sqrt(-params.discriminant)
    q = math.exp(-params.kappa * math.pi / r)
    return q**n_intervals * _underdamped_measure(params)


def default_blp_horizon(params: ModelParams) -> tuple[float, int]:
    """Horizon covering enough increase windows that the geometric tail is
    below BLP_REL_TAIL of the analytic measure.  Returns (horizon, n_windows).

    Requires a convergent measure: underdamped with kappa > 0.
    """
    if classify_regime(params) is not Regime.UNDERDAMPED:
        raise RegimeError("horizon selection applies to the underdamped regime only")
    if params.kappa == 0.0:
        raise DegenerateModelError(
            "the measure diverges at kappa = 0; choose a horizon explicitly"
        )
    r = math.sqrt(-params.discriminant)
    windows = math.log(1.0 / BLP_REL_TAIL) * r / (params.kappa * math.pi)
    if windows == math.inf:  # a count beyond the float range, far past what a scan of MAX_SCAN_POINTS covers
        digits = math.log10(math.log(1.0 / BLP_REL_TAIL) * r / math.pi) - math.log10(params.kappa)
        raise ValidationError(
            f"the tail falls below BLP_REL_TAIL = {BLP_REL_TAIL:g} of the measure only after about "
            f"1e{digits:.0f} increase windows, more than a float can count; use blp_analytic for the measure"
        )
    n = max(1, math.ceil(windows))
    spacing = 4.0 * math.pi / r
    return n * spacing + 0.25 * spacing, n


def bath_correlation(kappa: float, tau):
    """Two-time correlation of the bath coupling operator: exp(-kappa*tau/2).

    Time homogeneous; its decay rate kappa/2 sets the bath memory time.
    ``kappa`` is checked as :class:`ModelParams` checks it (finite, >= 0,
    at most MAX_RATE) and ``tau`` as every closed-form time (finite, >= 0,
    at most MAX_TIME), so kappa*tau stays finite.
    """
    ModelParams(0.0, kappa)
    arr, scalar = _check_times(tau, 0.0)
    out = np.exp(-0.5 * kappa * arr)
    return float(out) if scalar else out


def has_information_backflow(params: ModelParams) -> bool:
    """Whether any time has a negative dephasing rate (trace-distance backflow).

    Exactly when the regime is underdamped.  There the rate's denominator
    kappa + r*cot(r*t/4), r = sqrt(64*xi**2 - kappa**2), equals -8|xi| at
    the probe r*t/4 = pi - atan2(r, kappa)/2 inside the first increase
    window, so the rate 8*xi**2/denominator is -|xi| there at any distance
    from the threshold; points inside the critical band count as
    backflow-free.  :func:`qubitbath.oracles.dephasing_rate`
    evaluates the rate itself as the independent cross-check.
    """
    return classify_regime(params) is Regime.UNDERDAMPED
