"""Bath spectral density, dephasing exponents, and their parameter derivatives.

The bath is an exponentially cut off power-law spectral density

    J(w) = G * w**s / w_c**(s-1) * exp(-w / w_c)

with coupling strength G, Ohmicity s (s < 1 sub-Ohmic, s = 1 Ohmic,
s > 1 super-Ohmic) and cutoff frequency w_c, all in units of the probe
splitting.  Every factor below is a closed form, the thermal exponent a
Bose series of vacuum-type terms; each has an independent quadrature route
(``quadrature_factor``) evaluating the defining integral directly, and the
tests pin the two against each other.

The closed forms take the time as a scalar or as a 1-D array: an array
returns the factor over the whole grid from one call, a scalar returns a
float.  They are written so that in-domain inputs raise no floating-point
warning; the assemblies that feed them (``fisher.factor_bundle``,
``dynamics.dephasing_factors``) run under one ``np.errstate`` and check the
result for non-finite values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureError, QuadratureResult, bath_integral

__all__ = [
    "SpectralDensity",
    "BathState",
    "DephasingFactors",
    "NumericalError",
    "MAX_OHMICITY",
    "spectral_density",
    "gamma_vac",
    "gamma_th",
    "gamma_un",
    "delta_factor",
    "phi_factor",
    "c_shift",
    "d_gamma_dx",
    "d_delta_dx",
    "d_phi_dx",
    "d_c_shift_dx",
    "quadrature_factor",
    "QUAD_KINDS",
]

#: estimand keys accepted by the derivative dispatchers
DERIVATIVE_KEYS = ("omega_c", "G", "T")

#: integral kinds exposed by the quadrature verification route
QUAD_KINDS = ("gamma_vac", "gamma_th", "delta", "phi", "c_shift")

#: default certified relative error of the thermal exponent's series
GAMMA_TH_RTOL = 1e-10

#: largest accepted Ohmicity; Gamma(s) overflows a double past s = 171.6, and
#: below this bound it stays under 1e156, leaving room for the prefactors
MAX_OHMICITY = 100.0


class NumericalError(ArithmeticError):
    """A closed form came out non-finite or broke a sign it must keep.

    The message names the point (s, w_c, T, t) where it happened.
    """


@dataclass(frozen=True)
class SpectralDensity:
    """Exponential-cutoff power-law bath spectrum (G, s, w_c)."""

    coupling: float      # G >= 0, dimensionless
    ohmicity: float      # 0 < s <= MAX_OHMICITY
    cutoff: float        # w_c > 0, units of the probe splitting

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.coupling >= 0.0 and math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if not 0.0 < self.ohmicity <= MAX_OHMICITY:
            raise ValueError(f"ohmicity must be in (0, {MAX_OHMICITY:g}], "
                             f"got {self.ohmicity}")
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be finite and > 0, got {self.cutoff}")


@dataclass(frozen=True)
class BathState:
    """Bath temperature; T = 0 selects the analytic zero-temperature limit."""

    temperature: float = 0.0

    def __post_init__(self):
        if not (self.temperature >= 0.0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be finite and >= 0, "
                             f"got {self.temperature}")

    @property
    def zero_temperature(self):
        return self.temperature == 0.0

    @property
    def beta(self):
        # 1/T overflows to inf below T ~ 5.6e-309: that bath is exactly cold
        return math.inf if self.temperature == 0.0 else 1.0 / self.temperature


@dataclass(frozen=True)
class DephasingFactors:
    """Dephasing exponents and phases of the probe at one instant or a grid."""

    gamma_vac: float
    gamma_th: float
    gamma_corr: float
    delta: float
    phi: float
    chi: float
    c_shift: float

    @property
    def gamma_un(self):
        return self.gamma_vac + self.gamma_th

    @property
    def gamma_total(self):
        return self.gamma_vac + self.gamma_th + self.gamma_corr


def spectral_density(sd, omega):
    """J(w); accepts scalars or arrays, domain error for w < 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValueError("spectral density is defined for omega >= 0 only")
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    with np.errstate(divide="ignore"):
        val = np.where(omega > 0.0,
                       G * np.power(np.maximum(omega, 1e-300), s) * wc ** (1.0 - s)
                       * np.exp(-omega / wc),
                       0.0)
    if val.ndim == 0:
        return float(val)
    return val


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

def _times(t):
    """(t as a 1-D float array, whether t was a scalar); t must be >= 0."""
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    if scalar:
        ts = ts.reshape(1)
    elif ts.ndim != 1:
        raise ValueError("time must be a scalar or a 1-D array")
    if ts.size and not ts.min() >= 0.0:  # NaN fails too
        raise ValueError("time must be >= 0")
    return ts, scalar


def _unpack(val, scalar):
    """A float for a scalar time, the array otherwise."""
    return float(val[0]) if scalar else val


def _point(sd, bath, t):
    """The (s, w_c, T, t) part of an error message."""
    T = 0.0 if bath is None else bath.temperature
    return f"s={sd.ohmicity!r}, w_c={sd.cutoff!r}, T={T!r}, t={float(t)!r}"


def _check_finite(fields, sd, bath, t):
    """NumericalError naming the first time at which a field is not finite."""
    ok = np.isfinite(fields).all(axis=0)
    if not ok.all():
        raise NumericalError(f"non-finite dephasing factor at "
                             f"{_point(sd, bath, t[np.argmin(ok)])}")


def _last_call(fn):
    """Memo of fn's last result, keyed on its arguments, of which the last is
    a time grid (keyed by its bytes): the forms that one bundle evaluates on
    one grid share one evaluation of fn."""
    memo = {}

    @functools.wraps(fn)
    def cached(*args):
        key = args[:-1] + (args[-1].tobytes(),)
        hit = memo.get(key)
        if hit is None:
            hit = fn(*args)
            memo.clear()
            memo[key] = hit
        return hit

    return cached


def _ratio(num, den):
    """num / den with 0 where den = 0; each caller multiplies those entries by 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den != 0.0)


# ---------------------------------------------------------------------------
# vacuum closed forms
# ---------------------------------------------------------------------------

def _log_atan(x):
    """(log|1 - i x|, atan x), the two angles every kernel term reads."""
    return 0.5 * np.log1p(x * x), np.arctan(x)


@_last_call
def _angles(wc, t):
    """(x, x**2, log|1 - i x|, atan x) at x = w_c t, shared by the vacuum forms."""
    x = wc * t
    y = x * x
    return x, y, 0.5 * np.log1p(y), np.arctan(x)


def _kernel(s, a, b):
    """Re and Im of K = ((1 - i x)**(1-s) - 1) / (1 - s), continuous in s.

    Takes a = log|1 - i x| = log1p(x**2)/2 and b = atan x, so a caller that
    needs them for other terms computes them once.  With
    log(1 - i x) = a - i b and z = (1-s)(a - i b) = u - i v, K is
    (a - i b) expm1(z)/z.  Splitting expm1(z) into expm1(u) cos v
    - 2 sin(v/2)**2 - i e^u sin v and dividing each piece by (1-s) through
    a/u or b/v leaves no cancellation at any s.  At z = 0 (s = 1, or x so
    small that a underflows) expm1(z)/z is 1 and K is log(1 - i x); for
    s != 1, u and v vanish only where a and b do, which zero those terms.
    """
    if s == 1.0:
        return a, -b
    u = (1.0 - s) * a
    h = 0.5 * (1.0 - s) * b
    sin_h = np.sin(h)
    sinc_h = _ratio(sin_h, h)
    re = a * _ratio(np.expm1(u), u) * (1.0 - 2.0 * sin_h * sin_h) - b * sin_h * sinc_h
    im = -b * np.exp(u) * sinc_h * np.cos(h)
    return re, im


@_last_call
def _vacuum_kernel(s, wc, t):
    """(Re K, Im K) at x = w_c t, shared by the vacuum exponent and the phase."""
    return _kernel(s, *_angles(wc, t)[2:])


def gamma_vac(sd, t):
    """Vacuum dephasing exponent G Gamma(s) Re K; >= 0, zero at t = 0."""
    t, scalar = _times(t)
    return _unpack(_gamma_vac(sd.coupling, sd, t), scalar)


def _gamma_vac(G, sd, t):
    if G == 0.0:
        return np.zeros(t.shape)
    s = sd.ohmicity
    val = G * math.gamma(s) * _vacuum_kernel(s, sd.cutoff, t)[0]
    # the defining integral has a positive integrand
    if not (val >= 0.0).all():
        i = int(np.argmin(val >= 0.0))
        raise NumericalError(f"vacuum exponent came out {val[i]!r} at "
                             f"{_point(sd, None, t[i])}")
    return val


def phi_factor(sd, t):
    """Phase kernel -G Gamma(s) Im K feeding the initial-correlation level shift."""
    t, scalar = _times(t)
    return _unpack(_phi(sd.coupling, sd, t), scalar)


def _phi(G, sd, t):
    if G == 0.0:
        return np.zeros(t.shape)
    s = sd.ohmicity
    return -G * math.gamma(s) * _vacuum_kernel(s, sd.cutoff, t)[1]


def delta_factor(sd, t):
    """Bath-induced qubit-qubit phase; <= 0 and non-increasing in t.

    Delta = -G Gamma(s) (Im K + x).  Im K and x are O(x) but their sum is
    O(x**3), so it is assembled from two parts that carry the cubic order
    themselves: -(x - atan x), which is Im K + x at z = 0, and the kernel's
    remainder -Im(K - log(1 - i x)) = b (expm1(u) sinc v + sinc v - 1).
    """
    t, scalar = _times(t)
    return _unpack(_delta(sd.coupling, sd, t), scalar)


def _delta(G, sd, t):
    if G == 0.0:
        return np.zeros(t.shape)
    return G * math.gamma(sd.ohmicity) * _delta_shape(sd.ohmicity, sd.cutoff, t)


@_last_call
def _delta_shape(s, wc, t):
    """Delta / (G Gamma(s)), shared by the phase and its coupling slope."""
    x, y, a, b = _angles(wc, t)
    # below the switch-over points (x, |v| <= 0.1) the Taylor series are
    # truncated under 2e-17 relative
    val = b - x
    small = x <= 0.1
    if small.any():
        xs, ys = x[small], y[small]
        val[small] = -xs * ys * (1 / 3 - ys * (1 / 5 - ys * (1 / 7 - ys * (1 / 9 - ys * (
            1 / 11 - ys * (1 / 13 - ys * (1 / 15 - ys / 17)))))))
    if s != 1.0:  # at s = 1 the remainder vanishes
        u = (1.0 - s) * a
        v = (1.0 - s) * b
        w = v * v
        sinc_v = _ratio(np.sin(v), v)
        sinc_v_m1 = sinc_v - 1.0
        near = w <= 0.01
        if near.any():
            wn = w[near]
            sinc_v_m1[near] = -wn / 6 * (1 - wn / 20 * (1 - wn / 42 * (1 - wn / 72 * (
                1 - wn / 110))))
            sinc_v[near] = 1.0 + sinc_v_m1[near]
        val += b * (np.expm1(u) * sinc_v + sinc_v_m1)
    return val


def c_shift(sd):
    """Static bath reorganization constant, integral of J(w)/w."""
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    return G * wc * math.gamma(s)


def gamma_un(sd, bath, t, rel_tol=GAMMA_TH_RTOL):
    """Total uncorrelated dephasing exponent (vacuum + thermal)."""
    return gamma_vac(sd, t) + gamma_th(sd, bath, t, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# quadrature kernels
# ---------------------------------------------------------------------------

def _one_minus_cos_over_w2(w, t):
    """(1 - cos(w t)) / w**2, stable at w = 0."""
    w = np.asarray(w, dtype=float)
    return 0.5 * t * t * np.square(np.sinc(w * t / (2.0 * np.pi)))


def _sin_over(w, t):
    """sin(w t) / w, stable at w = 0."""
    return t * np.sinc(w * t / np.pi)


def _sin_minus_lin_over_cube(w, t):
    """(sin(w t) - w t) / w**3, stable at w = 0."""
    x = np.asarray(w * t, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, x, 1.0)
    series = -1.0 / 6.0 + xs * xs * (1.0 / 120.0 - xs * xs / 5040.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.sin(x) - x) / np.where(small, 1.0, x) ** 3
    return t ** 3 * np.where(small, series, direct)


def _thermal_kernel(w, beta):
    """w * (coth(beta w / 2) - 1) = 2 w / (exp(beta w) - 1), overflow-safe."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    arg = beta * w
    out = np.full_like(w, 2.0 / beta)
    pos = (arg > 0.0) & (arg <= 700.0)
    out[pos] = 2.0 * w[pos] / np.expm1(arg[pos])
    out[arg > 700.0] = 0.0
    return out


def _envelope(sd, w):
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    return G * wc ** (1.0 - s) * np.exp(-np.asarray(w, dtype=float) / wc)


def _kernel_spec(kind, sd, bath, t):
    """(endpoint power, smooth part, oscillation time) of a factor integral."""
    s = sd.ohmicity
    if kind == "gamma_vac":
        return s, lambda w: _envelope(sd, w) * _one_minus_cos_over_w2(w, t), t
    if kind == "gamma_th":
        beta = bath.beta
        return (s - 1.0,
                lambda w: _envelope(sd, w) * _one_minus_cos_over_w2(w, t)
                * _thermal_kernel(w, beta),
                t)
    if kind == "phi":
        return s - 1.0, lambda w: _envelope(sd, w) * _sin_over(w, t), t
    if kind == "delta":
        return s + 1.0, lambda w: _envelope(sd, w) * _sin_minus_lin_over_cube(w, t), t
    if kind == "c_shift":
        return s - 1.0, lambda w: _envelope(sd, w), 0.0
    raise ValueError(f"unknown quadrature kind {kind!r}")


def quadrature_factor(kind, sd, bath=None, t=0.0, rel_tol=1e-8):
    """Evaluate one dephasing factor by direct adaptive quadrature.

    Independent verification route for the closed forms.  Returns a
    QuadratureResult carrying the value and the achieved error estimate;
    raises QuadratureError when the tolerance is not met.
    """
    if kind not in QUAD_KINDS:
        raise ValueError(f"unknown quadrature kind {kind!r}; expected one of {QUAD_KINDS}")
    if sd.coupling == 0.0:
        return QuadratureResult(0.0, 0.0)
    if kind != "c_shift" and t == 0.0:
        return QuadratureResult(0.0, 0.0)
    if kind == "gamma_th":
        if bath is None:
            raise ValueError("the thermal kind requires a bath state")
        if bath.zero_temperature:
            return QuadratureResult(0.0, 0.0)
    power, smooth, osc_t = _kernel_spec(kind, sd, bath, t)
    omega_max = sd.cutoff * (40.0 + 10.0 * sd.ohmicity)
    return bath_integral(power, smooth, osc_t, omega_max, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# thermal exponent: Bose series
# ---------------------------------------------------------------------------
#
# coth(beta w / 2) - 1 = 2 sum_{n >= 1} exp(-n beta w) turns the thermal
# integral into vacuum-type integrals at the shifted inverse cutoffs
# a_n = 1/w_c + n beta:
#
#     gamma_th = 2 G Gamma(s) w_c**(1-s) sum_n h(a_n),
#     h(a) = a**(1-s) Re K(s, t/a) = Re[(a - i t)**(1-s) - a**(1-s)] / (1-s).
#
# Each derivative h^(j) = (-s)(-s-1)...(-s-j+2) Re[(a - i t)**(1-s-j)
# - a**(1-s-j)] is a Laplace transform with a single-signed integrand, so
# the Euler-Maclaurin tail stopped before its B_8 correction errs by at most
# that correction.  The series includes the correction and reports it,
# relative to the sum, as the bound that rel_tol must meet.

#: first Bose term left to the Euler-Maclaurin tail; those before it are
#: summed as the rows of one array
_SERIES_TERMS = 24

#: Bose indices m = 1 .. _SERIES_TERMS - 1 of the explicit terms, a column
_TERMS = np.arange(1.0, _SERIES_TERMS)[:, None]

#: derivative orders j = 1..8 of the tail corrections, a column
_ORDERS = np.arange(1.0, 9.0)[:, None]

#: B_2k / (2k)! for the tail corrections k = 1..4, a column
_EM_COEFFS = np.array([1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0,
                       -1.0 / 1209600.0])[:, None]

#: the odd orders 2k - 1 of the corrections, a column
_EM_ODD = 2.0 * np.arange(1.0, 5.0)[:, None] - 1.0


def _re_pow_m1(p, a, b):
    """Re (1 - i x)**p - 1 from a = log|1 - i x|, b = atan x.

    Split as expm1(p a) cos(p b) - 2 sin(p b / 2)**2, so an O(x**2) value
    is not the difference of two O(1) ones.
    """
    v = p * b
    return np.expm1(p * a) * np.cos(v) - 2.0 * np.sin(0.5 * v) ** 2


def _em_tails(s, a, beta, t, n):
    """Tails from m = n on of the sums of h, h' and m h' at a_m = a + (m-n) beta.

    Returns the three tails and the last (B_8) correction of each.  The
    derivatives enter as a**j h^(j)(a) times (beta/a)**j < 24**-j, so no
    factor overflows at any temperature.
    """
    x = t / a
    alpha, theta = _log_atan(x)
    power = a ** (1.0 - s)
    re, im = _kernel(s, alpha, theta)
    h = power * re
    # -(integral of h from a on) / a**(2-s) = Re[(1 - i x)**(2-s) - 1] /
    # ((1-s)(2-s)); the numerator (1-s) Re[(1 - i x) K(s, x)] divides out
    # the pole at s = 1 and leaves (Re K + x Im K) / (2-s); past s = 1.5
    # the same numerator written as (2-s) Re K(s-1, x) divides out the pole
    # at s = 2
    if s <= 1.5:
        integral = (re + x * im) / (2.0 - s)
    else:
        integral = _kernel(s - 1.0, alpha, theta)[0] / (1.0 - s)
    # a**j h^(j)(a) = (-s)(-s-1)...(2-s-j) a**(1-s) Re[(1 - i x)**(1-s-j) - 1]
    p = 1.0 - s - _ORDERS
    coef = np.cumprod(np.concatenate(([1.0], p[:-1, 0])))[:, None]
    scaled = coef * power * _re_pow_m1(p, alpha, theta)
    r = beta / a
    weight = _EM_COEFFS * r ** _EM_ODD
    c0 = weight * scaled[0::2]                 # beta**(2k-1) h^(2k-1)
    c1 = weight * scaled[1::2] / a             # beta**(2k-1) h^(2k)
    cn = n * c1 + _EM_ODD * c0 / beta
    f = power * integral / r                   # -(integral of h) / beta
    t0 = -f + 0.5 * h - c0.sum(axis=0)
    t1 = -h / beta + 0.5 * scaled[0] / a
    tn = f / beta + n * t1 - cn.sum(axis=0)
    return (t0, t1 - c1.sum(axis=0), tn), (c0[-1], c1[-1], cn[-1])


@_last_call
def _bose_series(s, wc, beta, t):
    """((sum h(a_n), sum h'(a_n), sum n h'(a_n)) over n >= 1, bound) on a grid.

    The bound is, per time, the largest B_8 correction relative to its sum;
    inf where a sum or a correction is not finite, which happens only at
    temperatures so high that the sums overflow.
    """
    with np.errstate(all="ignore"):
        a0 = 1.0 / wc
        a = a0 + _TERMS * beta
        x = t / a
        alpha, theta = _log_atan(x)
        power = a ** (1.0 - s)
        h = power * _kernel(s, alpha, theta)[0]
        dh = power / a * _re_pow_m1(-s, alpha, theta)
        sums = (h.sum(axis=0), dh.sum(axis=0), (_TERMS * dh).sum(axis=0))
        tails, last = _em_tails(s, a0 + _SERIES_TERMS * beta, beta, t,
                                _SERIES_TERMS)
        total = tuple(v + tail for v, tail in zip(sums, tails))
        # h > 0 and h' < 0 at every t > 0, so a sum vanishes only where its
        # correction does too (t = 0, or both underflow on a cold bath)
        c = np.abs(last)
        v = np.abs(total)
        rel = _ratio(c, v)
        rel[~(np.isfinite(c) & np.isfinite(v))] = np.inf
    return total, rel.max(axis=0)


def _cold(bath):
    """True at T = 0 and wherever 1/T overflows: the exact cold limit."""
    return math.isinf(bath.beta)


def _certified_sums(sd, bath, t, rel_tol):
    """The Bose sums at (s, w_c, T) over t; QuadratureError past rel_tol."""
    s, wc = sd.ohmicity, sd.cutoff
    sums, bound = _bose_series(s, wc, bath.beta, t)
    if bound.size and not bound.max() <= rel_tol:
        worst = int(np.argmax(bound))
        what = ("overflows" if math.isinf(bound[worst])
                else f"bound exceeds rel_tol={rel_tol!r}")
        raise QuadratureError(
            f"thermal series {what} at {_point(sd, bath, t[worst])}",
            float(_prefactor(sd.coupling, s, wc) * sums[0][worst]),
            float(bound[worst]))
    return sums


def _prefactor(G, s, wc):
    """2 G Gamma(s) w_c**(1-s), the factor in front of the Bose sums."""
    return 2.0 * G * math.gamma(s) * wc ** (1.0 - s)


def _gamma_th(G, sd, bath, t, rel_tol):
    if _cold(bath) or G == 0.0:
        return np.zeros(t.shape)
    return (_prefactor(G, sd.ohmicity, sd.cutoff)
            * _certified_sums(sd, bath, t, rel_tol)[0])


def gamma_th(sd, bath, t, rel_tol=GAMMA_TH_RTOL):
    """Thermal dephasing exponent; exactly 0 at zero temperature.

    ``rel_tol`` bounds the series' relative truncation error; a grid with a
    point that misses it raises QuadratureError naming that point.
    """
    t, scalar = _times(t)
    return _unpack(_gamma_th(sd.coupling, sd, bath, t, rel_tol), scalar)


# ---------------------------------------------------------------------------
# parameter derivatives
# ---------------------------------------------------------------------------

def temperature_step(temperature):
    """Finite-difference step for temperature derivatives."""
    return max(1e-6, 1e-4 * temperature)


def _omega_c_parts(sd, t):
    """(G Gamma(s) t (1 + x**2)**(-s/2), s atan x): the vacuum cutoff slopes."""
    s = sd.ohmicity
    _, y, _, b = _angles(sd.cutoff, t)
    return sd.coupling * math.gamma(s) * t * (1.0 + y) ** (-0.5 * s), s * b


def d_gamma_vac_d_omega_c(sd, t):
    t, scalar = _times(t)
    amp, angle = _omega_c_parts(sd, t)
    return _unpack(amp * np.sin(angle), scalar)


def d_phi_d_omega_c(sd, t):
    t, scalar = _times(t)
    amp, angle = _omega_c_parts(sd, t)
    return _unpack(amp * np.cos(angle), scalar)


def d_delta_d_omega_c(sd, t):
    # the printed Ohmic form of this derivative carries the wrong sign; the
    # quadrature route fixes it (negative: |delta| grows with the cutoff)
    t, scalar = _times(t)
    G, s = sd.coupling, sd.ohmicity
    val = G * math.gamma(s) * t * _re_pow_m1(-s, *_angles(sd.cutoff, t)[2:])
    return _unpack(val, scalar)


def d_gamma_dx(sd, bath, t, x, rel_tol=GAMMA_TH_RTOL):
    """Derivative of the uncorrelated exponent gamma_vac + gamma_th.

    Closed form for every estimand; the thermal part differentiates its Bose
    series, through w_c**(1-s) and a_n for the cutoff.
    """
    t, scalar = _times(t)
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    if x == "omega_c":
        d = d_gamma_vac_d_omega_c(sd, t)
        if not (_cold(bath) or G == 0.0):
            s0, s1, _ = _certified_sums(sd, bath, t, rel_tol)
            d = d + _prefactor(G, s, wc) / wc * ((1.0 - s) * s0 - s1 / wc)
    elif x == "G":
        d = _gamma_vac(1.0, sd, t) + _gamma_th(1.0, sd, bath, t, rel_tol)
    elif x == "T":
        d = d_gamma_th_d_temperature(sd, bath, t, rel_tol=rel_tol)
    else:
        raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")
    return _unpack(d, scalar)


def d_gamma_th_d_temperature(sd, bath, t, rel_tol=GAMMA_TH_RTOL):
    """Temperature derivative of the thermal exponent, -beta**2 d/d beta.

    Exactly 0 at T = 0, where gamma_th vanishes like T**(s+1).
    """
    t, scalar = _times(t)
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    if _cold(bath) or G == 0.0:
        return _unpack(np.zeros(t.shape), scalar)
    beta = bath.beta
    sn = _certified_sums(sd, bath, t, rel_tol)[2]
    return _unpack(_prefactor(G, s, wc) * beta * (beta * -sn), scalar)


def d_delta_dx(sd, t, x):
    """Derivative of the induced-interaction phase; zero for x = T."""
    t, scalar = _times(t)
    if x == "omega_c":
        d = d_delta_d_omega_c(sd, t)
    elif x == "G":
        d = _delta(1.0, sd, t)
    elif x == "T":
        d = np.zeros(t.shape)
    else:
        raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")
    return _unpack(d, scalar)


def d_phi_dx(sd, t, x):
    """Derivative of the phase kernel; zero for x = T."""
    t, scalar = _times(t)
    if x == "omega_c":
        d = d_phi_d_omega_c(sd, t)
    elif x == "G":
        d = _phi(1.0, sd, t)
    elif x == "T":
        d = np.zeros(t.shape)
    else:
        raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")
    return _unpack(d, scalar)


def d_c_shift_dx(sd, x):
    """Derivative of the reorganization constant; zero for x = T."""
    if x == "omega_c":
        return sd.coupling * math.gamma(sd.ohmicity)
    if x == "G":
        return sd.cutoff * math.gamma(sd.ohmicity)
    if x == "T":
        return 0.0
    raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")
