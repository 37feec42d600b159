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
One evaluator, :func:`coherence_factor_with_derivative`, gives c and dc/dt
in a single pass; c, dc/dt, d|c|/dt and the signal c*dc/dt all read from it.

:func:`classify_regime` is the one place the regime is decided, with a
band relative to kappa**2 and 64*xi**2 alone, so every verdict depends on
kappa/|xi| only; the backflow predicate, the measure, its tail bound and
the horizons all read it.

Everything in this module is a pure function; scalar time arguments give
scalars, arrays give arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateModelError, RegimeError, ValidationError
from .lindblad import ModelParams

__all__ = [
    "Regime",
    "IncreaseInterval",
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


def _sinhc_cosh_ext(s: np.ndarray, disc: float) -> tuple[np.ndarray, np.ndarray]:
    """sinh(sqrt(s))/sqrt(s) and cosh(sqrt(s)), continued through s <= 0 as
    sin(sqrt(-s))/sqrt(-s) and cos(sqrt(-s)); outside the |s| < 1e-6 series
    band every s = disc*(t/4)**2 has the sign of ``disc``, which picks the branch."""
    u = np.abs(s)
    small = u < 1e-6
    series = small.any()
    r = np.sqrt(u)
    if series:
        r[small] = 1.0  # keeps the division finite; the series overwrites it
    if disc > 0:
        sinhc, cosh = np.sinh(r) / r, np.cosh(r)
    else:
        sinhc, cosh = np.sin(r) / r, np.cos(r)
    if series:
        u = s[small]
        sinhc[small] = 1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0))
        cosh[small] = 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
    return sinhc, cosh


def _check_times(t, disc: float) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError("time must be finite")
    if (arr < 0).any():
        raise ValidationError("time must be >= 0")
    limit = min(MAX_TIME, 4.0 * math.sqrt(_S_MAX / max(abs(disc), 1.0)))
    if (arr > limit).any():
        raise ValidationError(f"time must be <= {limit:.6g}: MAX_TIME = {MAX_TIME:g}, less where disc*(t/4)**2 overflows")
    return arr, arr.ndim == 0


def coherence_factor_with_derivative(params: ModelParams, t):
    """c(t) and dc/dt, from one pass over the time(s) ``t``.

    Every regime goes through the sinhc/cosh kernel of s = disc*(t/4)**2:
    c = exp(-kt/4) * (kt/4 * sinhc(s) + cosh(s)) and, in all regimes,
    dc/dt = -4*xi**2 * t * exp(-kt/4) * sinhc(s).  Where s > _BIG_S
    (overdamped, long times) sinh and cosh overflow; the kernel sees s
    clipped to _BIG_S there, and both values are replaced by their forms
    with the decaying exponentials written out, r = sqrt(disc).
    """
    k, x2, disc = params.kappa, params.xi**2, params.discriminant
    arr, scalar = _check_times(t, disc)
    arr = np.atleast_1d(arr)
    s = disc * (arr / 4.0) ** 2
    big = s > _BIG_S
    long_time = big.any()
    if long_time:
        s[big] = _BIG_S
    sinhc, cosh = _sinhc_cosh_ext(s, disc)
    kt4 = k * arr / 4.0
    envelope = np.exp(-kt4)
    c = envelope * (kt4 * sinhc + cosh)
    dc = -4.0 * x2 * arr * envelope * sinhc
    if long_time:
        tb, r = arr[big], math.sqrt(disc)
        grow, decay = np.exp((r - k) * tb / 4.0), np.exp(-(r + k) * tb / 4.0)
        c[big] = 0.5 * ((1.0 + k / r) * grow + (1.0 - k / r) * decay)
        dc[big] = -8.0 * x2 / r * (grow - decay)
    return (float(c[0]), float(dc[0])) if scalar else (c, dc)


def coherence_factor(params: ModelParams, t):
    """The factor c(t) multiplying the system's y and z Bloch components."""
    return coherence_factor_with_derivative(params, t)[0]


def abs_coherence_derivative(params: ModelParams, t):
    """d|c|/dt, i.e. sign(c(t)) * c'(t); same sign as c'(t)/c(t).

    Finite for every valid t, and 0 where c is exactly 0: unlike the
    logarithmic derivative it has no pole at the zeros of c.
    """
    c, dc = coherence_factor_with_derivative(params, t)
    return np.sign(c) * dc


@dataclass(frozen=True)
class IncreaseInterval:
    """n-th window (t_lo, t_hi) on which the trace distance can increase.

    t_hi = 4*n*pi/r and t_lo = t_hi - delta with
    delta = 4*arctan(r/kappa)/r, r = sqrt(64*xi**2 - kappa**2).
    c vanishes at t_lo and |c| touches its envelope exp(-kappa*t_hi/4) at t_hi.
    """

    n: int
    t_lo: float
    t_hi: float


def increase_intervals(params: ModelParams, n_max: int) -> list[IncreaseInterval]:
    """The first ``n_max`` trace-distance increase windows (underdamped only)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if classify_regime(params) is not Regime.UNDERDAMPED:
        raise RegimeError(
            "increase intervals exist only in the underdamped regime "
            f"(kappa={params.kappa}, 8|xi|={8 * abs(params.xi)})"
        )
    r = math.sqrt(-params.discriminant)
    delta = 4.0 * math.atan2(r, params.kappa) / r
    spacing = 4.0 * math.pi / r
    return [
        IncreaseInterval(n=n, t_lo=n * spacing - delta, t_hi=n * spacing)
        for n in range(1, n_max + 1)
    ]


def blp_analytic(params: ModelParams) -> float:
    """Closed-form trace-distance non-Markovianity measure.

    +infinity at kappa = 0 (undamped backflow), zero outside the
    underdamped regime, otherwise 1/(exp(kappa*pi/sqrt(64*xi**2 - kappa**2)) - 1),
    evaluated in a form that underflows gracefully near the threshold.
    """
    if params.kappa == 0.0:
        if params.xi == 0.0:
            raise DegenerateModelError("xi = kappa = 0 has no dynamics to measure")
        return math.inf
    if classify_regime(params) is not Regime.UNDERDAMPED:
        return 0.0
    r = math.sqrt(-params.discriminant)
    q = math.exp(-params.kappa * math.pi / r)
    return q / (-math.expm1(-params.kappa * math.pi / r))


def blp_tail_bound(params: ModelParams, n_intervals: int) -> float:
    """Upper bound on the measure omitted by truncating after ``n_intervals``.

    The per-window increases form a geometric series; the bound equals
    exp(-kappa*t_n/4) / (exp(kappa*pi/r) - 1) and is exact.  With no
    window counted it is the whole measure; at kappa = 0 it is infinite.
    """
    if n_intervals < 0:
        raise ValidationError("n_intervals must be >= 0")
    if classify_regime(params) is not Regime.UNDERDAMPED:
        return 0.0
    r = math.sqrt(-params.discriminant)
    q = math.exp(-params.kappa * math.pi / r)
    return q**n_intervals * blp_analytic(params)


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
    n = max(1, math.ceil(math.log(1.0 / BLP_REL_TAIL) * r / (params.kappa * math.pi)))
    spacing = 4.0 * math.pi / r
    return n * spacing + 0.25 * spacing, n


def bath_correlation(kappa: float, tau):
    """Two-time correlation of the bath coupling operator: exp(-kappa*tau/2).

    Time homogeneous; its decay rate kappa/2 sets the bath memory time.
    """
    if kappa < 0:
        raise ValidationError("kappa must be >= 0")
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValidationError("tau must be finite and >= 0")
    out = np.exp(-0.5 * kappa * arr)
    return float(out) if arr.ndim == 0 else out


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
