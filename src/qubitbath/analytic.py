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

Everything in this module is a pure function; scalar time arguments give
scalars, arrays give arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateModelError, PoleError, RegimeError, ValidationError
from .lindblad import ModelParams

__all__ = [
    "Regime",
    "IncreaseInterval",
    "classify_regime",
    "coherence_factor",
    "coherence_factor_derivative",
    "coherence_log_derivative",
    "dephasing_rate",
    "abs_coherence_derivative",
    "increase_intervals",
    "blp_analytic",
    "blp_tail_bound",
    "default_blp_horizon",
    "bath_correlation",
    "has_information_backflow",
]

#: |c| below this is treated as a pole of the logarithmic derivative.
POLE_TOL = 1e-12

#: Default relative width of the band classified as critical.
REGIME_TOL = 1e-8

# Above this value of s = disc*(t/4)**2 the sinh/cosh forms overflow and the
# evaluation switches to explicitly negative exponentials.
_BIG_S = 900.0


class Regime(Enum):
    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


def classify_regime(params: ModelParams, tol: float = REGIME_TOL) -> Regime:
    """Compare kappa**2 against 64*xi**2 with a relative tolerance band."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    k2 = params.kappa**2
    x2 = 64.0 * params.xi**2
    if abs(k2 - x2) <= tol * max(k2, x2, 1.0):
        return Regime.CRITICAL
    return Regime.OVERDAMPED if k2 > x2 else Regime.UNDERDAMPED


def _sinhc_ext(s: np.ndarray) -> np.ndarray:
    """sinh(sqrt(s))/sqrt(s), continued through s <= 0 as sin(sqrt(-s))/sqrt(-s)."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = np.abs(s) < 1e-6
    pos = (s > 0) & ~small
    neg = (s < 0) & ~small
    r = np.sqrt(s[pos])
    out[pos] = np.sinh(r) / r
    r = np.sqrt(-s[neg])
    out[neg] = np.sin(r) / r
    u = s[small]
    out[small] = 1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0))
    return out


def _cosh_ext(s: np.ndarray) -> np.ndarray:
    """cosh(sqrt(s)), continued through s <= 0 as cos(sqrt(-s))."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = np.abs(s) < 1e-6
    pos = (s > 0) & ~small
    neg = (s < 0) & ~small
    out[pos] = np.cosh(np.sqrt(s[pos]))
    out[neg] = np.cos(np.sqrt(-s[neg]))
    u = s[small]
    out[small] = 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
    return out


def _check_times(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("time must be finite")
    if np.any(arr < 0):
        raise ValidationError("time must be >= 0")
    return arr, arr.ndim == 0


def _closed_form(params: ModelParams, t, regular, long_time):
    """Evaluate one closed form of the coherence dynamics at time(s) ``t``.

    ``regular(t, s)`` serves every regime through the sinhc/cosh kernel of
    s = disc*(t/4)**2.  Where s > _BIG_S (overdamped, long times) sinh and
    cosh overflow, and ``long_time(t, r)``, with r = sqrt(disc), takes over
    with the decaying exponentials written out.
    """
    arr, scalar = _check_times(t)
    arr = np.atleast_1d(arr)
    s = params.discriminant * (arr / 4.0) ** 2
    out = np.empty_like(arr)
    big = s > _BIG_S
    reg = ~big
    out[reg] = regular(arr[reg], s[reg])
    if np.any(big):
        out[big] = long_time(arr[big], math.sqrt(params.discriminant))
    return float(out[0]) if scalar else out


def coherence_factor(params: ModelParams, t):
    """The factor c(t) multiplying the system's y and z Bloch components."""
    k = params.kappa
    return _closed_form(
        params,
        t,
        lambda t, s: np.exp(-k * t / 4.0) * ((k * t / 4.0) * _sinhc_ext(s) + _cosh_ext(s)),
        lambda t, r: 0.5 * (
            (1.0 + k / r) * np.exp((r - k) * t / 4.0)
            + (1.0 - k / r) * np.exp(-(r + k) * t / 4.0)
        ),
    )


def coherence_factor_derivative(params: ModelParams, t):
    """Time derivative of :func:`coherence_factor`.

    All regimes collapse to dc/dt = -4*xi**2 * t * exp(-kt/4) * sinhc(s).
    """
    k = params.kappa
    x2 = params.xi**2
    return _closed_form(
        params,
        t,
        lambda t, s: -4.0 * x2 * t * np.exp(-k * t / 4.0) * _sinhc_ext(s),
        lambda t, r: -8.0 * x2 / r * (np.exp((r - k) * t / 4.0) - np.exp(-(r + k) * t / 4.0)),
    )


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
    arr, _ = _check_times(t)
    tv = float(arr)
    c = coherence_factor(params, tv)
    if abs(c) < POLE_TOL:
        raise PoleError(
            f"coherence factor below {POLE_TOL:.0e} at t={tv:.6g}; "
            "logarithmic derivative is not resolvable",
            nearest_zero=_nearest_zero(params, tv),
        )
    k = params.kappa
    x2 = params.xi**2

    def regular(t, s):
        sinhc = _sinhc_ext(s)
        return (-4.0 * x2 * t * sinhc) / ((k * t / 4.0) * sinhc + _cosh_ext(s))

    # coth(sqrt(s)) = 1 to double precision at long times
    return _closed_form(params, tv, regular, lambda t, r: -16.0 * x2 / (k + r))


def dephasing_rate(params: ModelParams, t: float) -> float:
    """Coefficient of the dephasing dissipator in the time-local master equation.

    Non-negative for all t exactly when kappa >= 8|xi|; its sign is the
    divisibility criterion.
    """
    return -0.5 * coherence_log_derivative(params, t)


def abs_coherence_derivative(params: ModelParams, t):
    """d|c|/dt, i.e. sign(c(t)) * c'(t); same sign as c'(t)/c(t).

    Finite for every valid t, and 0 where c is exactly 0: unlike the
    logarithmic derivative it has no pole at the zeros of c.
    """
    return np.sign(coherence_factor(params, t)) * coherence_factor_derivative(params, t)


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

    Zero for kappa >= 8|xi|, +infinity at kappa = 0 (undamped backflow),
    otherwise 1/(exp(kappa*pi/sqrt(64*xi**2 - kappa**2)) - 1), evaluated in
    a form that underflows gracefully near the threshold.
    """
    if params.xi == 0.0 and params.kappa == 0.0:
        raise DegenerateModelError("xi = kappa = 0 has no dynamics to measure")
    if params.kappa >= 8.0 * abs(params.xi):
        return 0.0
    if params.kappa == 0.0:
        return math.inf
    r = math.sqrt(-params.discriminant)
    q = math.exp(-params.kappa * math.pi / r)
    return q / (-math.expm1(-params.kappa * math.pi / r))


def blp_tail_bound(params: ModelParams, n_intervals: int) -> float:
    """Upper bound on the measure omitted by truncating after ``n_intervals``.

    The per-window increases form a geometric series; the bound equals
    exp(-kappa*t_n/4) / (exp(kappa*pi/r) - 1) and is exact.
    """
    if n_intervals < 1:
        raise ValidationError("n_intervals must be >= 1")
    if classify_regime(params) is not Regime.UNDERDAMPED:
        return 0.0
    if params.kappa == 0.0:
        return math.inf
    r = math.sqrt(-params.discriminant)
    q = math.exp(-params.kappa * math.pi / r)
    return q**n_intervals * blp_analytic(params)


def default_blp_horizon(params: ModelParams, rel_tail: float = 1e-6) -> tuple[float, int]:
    """Horizon covering enough increase windows that the geometric tail is
    below ``rel_tail`` of the analytic measure.  Returns (horizon, n_windows).

    Requires a convergent measure: underdamped with kappa > 0.
    """
    if classify_regime(params) is not Regime.UNDERDAMPED:
        raise RegimeError("horizon selection applies to the underdamped regime only")
    if params.kappa == 0.0:
        raise DegenerateModelError(
            "the measure diverges at kappa = 0; choose a horizon explicitly"
        )
    if not 0 < rel_tail < 1:
        raise ValidationError("rel_tail must lie in (0, 1)")
    r = math.sqrt(-params.discriminant)
    n = max(1, math.ceil(math.log(1.0 / rel_tail) * r / (params.kappa * math.pi)))
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

    Evaluated through the sign of the rate's denominator
    kappa + r*cot(r*t/4) at a probe inside the first predicted backflow
    window; this form stays finite arbitrarily close to the threshold,
    where the coherence factor itself underflows.  Points inside the
    critical tolerance band count as backflow-free, consistently with
    :func:`classify_regime`.
    """
    if classify_regime(params) is not Regime.UNDERDAMPED:
        return False
    r = math.sqrt(-params.discriminant)
    theta_probe = math.pi - 0.5 * math.atan2(r, params.kappa)
    denominator = params.kappa + r / math.tan(theta_probe)
    return denominator < 0
