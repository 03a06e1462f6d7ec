"""Bath spectral density, dephasing exponents, and their cutoff and temperature slopes.

The bath is an exponentially cut off power-law spectral density

    J(w) = G * w**s / w_c**(s-1) * exp(-w / w_c)

with coupling strength G, Ohmicity s (s < 1 sub-Ohmic, s = 1 Ohmic,
s > 1 super-Ohmic) and cutoff frequency w_c, all in units of the probe
splitting.  Every factor below is a closed form, the thermal exponent a
Bose series of vacuum-type terms that certifies its own truncation error to
the fixed GAMMA_TH_RTOL; each has an independent quadrature route
(``quadrature_factor``) evaluating the defining integral directly, and the
tests pin the two against each other.  Every factor is linear in G, so its
coupling slope is the factor itself at G = 1 and needs no form of its own;
the temperature moves only the thermal exponent.

The closed forms take the time as a scalar or as a 1-D array: an array
returns the factor over the whole grid from one call, a scalar returns a
float.  In place of a SpectralDensity and a BathState they also read
``Points``, the parameters of several tasks per time point.  They are
written so that in-domain inputs raise no floating-point warning; the one
assembly that feeds them (``dynamics._assemble``, behind
``dephasing_factors``, ``factor_bundle`` and ``optimize_variants``) runs
under one ``np.errstate`` and checks the result for non-finite values.
In place of the time it passes every form one ``_Grid``, which computes
what several forms read (the angles at w_c t, the vacuum kernel, Delta's
shape, the Bose sums) once and is dropped with the assembly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import QuadratureError, QuadratureResult, bath_integral

__all__ = [
    "SpectralDensity",
    "BathState",
    "DephasingFactors",
    "Points",
    "NumericalError",
    "MIN_OHMICITY",
    "MAX_OHMICITY",
    "spectral_density",
    "gamma_vac",
    "gamma_th",
    "delta_factor",
    "phi_factor",
    "c_shift",
    "quadrature_factor",
    "QUAD_KINDS",
]

#: integral kinds exposed by the quadrature verification route
QUAD_KINDS = ("gamma_vac", "gamma_th", "delta", "phi", "c_shift")

#: relative error that the thermal exponent's series certifies at every
#: point; the finite bound stays near 1e-13 or below except on baths near
#: T = 1e-160, whose Bose terms underflow (README, notes on numerics)
GAMMA_TH_RTOL = 1e-10

#: largest accepted Ohmicity; Gamma(s) overflows a double past s = 171.6, and
#: below this bound it stays under 1e156, leaving room for the prefactors
MAX_OHMICITY = 100.0

#: smallest accepted Ohmicity: the vacuum kernel's two O(1) terms cancel to
#: O(s), which costs gamma_vac about 1e-16 / s relative (1e-10 here), and
#: Gamma(s) overflows below s = 5.6e-309
MIN_OHMICITY = 1e-6


class NumericalError(ArithmeticError):
    """A closed form came out non-finite or broke a sign it must keep.

    The message names the point (s, w_c, T, t) where it happened.
    """


@dataclass(frozen=True)
class SpectralDensity:
    """Exponential-cutoff power-law bath spectrum (G, s, w_c)."""

    coupling: float      # G >= 0, dimensionless
    ohmicity: float      # MIN_OHMICITY <= s <= MAX_OHMICITY
    cutoff: float        # w_c > 0, units of the probe splitting

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.coupling >= 0.0 and math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if not MIN_OHMICITY <= self.ohmicity <= MAX_OHMICITY:
            raise ValueError(f"ohmicity must be in [{MIN_OHMICITY:g}, {MAX_OHMICITY:g}], "
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


class Points(NamedTuple):
    """(G, s, w_c, T, beta) per time point, read by the forms below and the
    correlation factors in place of a SpectralDensity and a BathState: a
    value that every point shares, or an array over the points of several
    (sd, bath) laid end to end, each point with the bits of its own (sd,
    bath).  Such an array is nowhere 0 (G) or infinite (beta); s never varies.
    """

    coupling: float
    ohmicity: float
    cutoff: float
    temperature: float
    beta: float

    @classmethod
    def of(cls, pairs, sizes=None):
        """Points of (sd, bath) pairs, ``sizes[k]`` points for pair k."""
        columns = zip(*((sd.coupling, sd.ohmicity, sd.cutoff, bath.temperature, bath.beta)
                        for sd, bath in pairs))
        return cls(*(c[0] if len(set(c)) == 1 else np.repeat(np.asarray(c, float), sizes)
                     for c in columns))

    @property
    def zero_temperature(self):
        return not isinstance(self.temperature, np.ndarray) and self.temperature == 0.0


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


def _point(sd, bath, t, i):
    """The (s, w_c, T, t) of point i of an error message; no T without a bath."""
    def at(x):
        return float(x[i]) if isinstance(x, np.ndarray) else x

    T = "" if bath is None else f"T={at(bath.temperature)!r}, "
    return f"s={sd.ohmicity!r}, w_c={at(sd.cutoff)!r}, {T}t={float(t[i])!r}"


def _shared(x, value):
    """x is ``value`` at every point (no Points array is 0 or infinite)."""
    return not isinstance(x, np.ndarray) and x == value


class _Grid:
    """One assembly's times at its (s, w_c, beta) and what several forms read
    there, each computed on its first read; G enters none of it.  ``_grid``
    builds one for a form called with a time or an array."""

    def __init__(self, t, s, wc, beta):
        self.t, self.s, self.wc, self.beta = t, s, wc, beta

    @functools.cached_property
    def angles(self):
        """(x, x**2, log|1 - i x|, atan x) at x = w_c t, read by the vacuum forms."""
        x = self.wc * self.t
        y = x * x
        return x, y, 0.5 * np.log1p(y), np.arctan(x)

    @functools.cached_property
    def kernel(self):
        """(Re K, Im K) at x = w_c t, read by the vacuum exponent and the phase."""
        return _kernel(self.s, *self.angles[2:])

    @functools.cached_property
    def delta_shape(self):
        """Delta / (G Gamma(s)) in the parts delta_factor names, read by the
        phase and its coupling slope."""
        (x, y, a, b), s = self.angles, self.s
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

    @functools.cached_property
    def bose(self):
        """(Bose sums, bound) of ``_bose_series``, read by the thermal forms."""
        return _bose_series(self.s, self.wc, self.beta, self.t)


def _grid(sd, bath, t):
    """(t if it is a _Grid, else its own at sd and bath; whether t is a scalar)."""
    if isinstance(t, _Grid):
        return t, False
    t, scalar = _times(t)
    return _Grid(t, sd.ohmicity, sd.cutoff, None if bath is None else bath.beta), scalar


def _ratio(num, den):
    """num / den with 0 where den = 0; each caller multiplies those entries by 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den != 0.0)


# ---------------------------------------------------------------------------
# vacuum closed forms
# ---------------------------------------------------------------------------

def _log_atan(x):
    """(log|1 - i x|, atan x), the two angles every kernel term reads."""
    return 0.5 * np.log1p(x * x), np.arctan(x)


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


def gamma_vac(sd, t):
    """Vacuum dephasing exponent G Gamma(s) Re K; >= 0, zero at t = 0."""
    g, scalar = _grid(sd, None, t)
    G, s = sd.coupling, sd.ohmicity
    if _shared(G, 0.0):
        return _unpack(np.zeros(g.t.shape), scalar)
    val = G * math.gamma(s) * g.kernel[0]
    # the defining integral has a positive integrand
    if not (val >= 0.0).all():
        i = int(np.argmin(val >= 0.0))
        raise NumericalError(f"vacuum exponent came out {val[i]!r} at "
                             f"{_point(sd, None, g.t, i)}")
    return _unpack(val, scalar)


def phi_factor(sd, t):
    """Phase kernel -G Gamma(s) Im K feeding the initial-correlation level shift."""
    g, scalar = _grid(sd, None, t)
    G, s = sd.coupling, sd.ohmicity
    if _shared(G, 0.0):
        return _unpack(np.zeros(g.t.shape), scalar)
    return _unpack(-G * math.gamma(s) * g.kernel[1], scalar)


def delta_factor(sd, t):
    """Bath-induced qubit-qubit phase; <= 0 and non-increasing in t.

    Delta = -G Gamma(s) (Im K + x).  Im K and x are O(x) but their sum is
    O(x**3), so it is assembled from two parts that carry the cubic order
    themselves: -(x - atan x), which is Im K + x at z = 0, and the kernel's
    remainder -Im(K - log(1 - i x)) = b (expm1(u) sinc v + sinc v - 1).
    """
    g, scalar = _grid(sd, None, t)
    G, s = sd.coupling, sd.ohmicity
    if _shared(G, 0.0):
        return _unpack(np.zeros(g.t.shape), scalar)
    return _unpack(G * math.gamma(s) * g.delta_shape, scalar)


def c_shift(sd):
    """Static bath reorganization constant, integral of J(w)/w."""
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    return G * wc * math.gamma(s)


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
# relative to the sum, as the bound that must meet GAMMA_TH_RTOL.

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
    power = np.power(a, 1.0 - s)
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


#: most times that one block of the Bose series takes: its (23, n)
#: temporaries grow with n, so a long grid or a lockstep would otherwise
#: hold them for every time at once
_SERIES_BLOCK = 128


def _bose_series(s, wc, beta, t):
    """_bose_block in blocks of at most _SERIES_BLOCK times, w_c and beta
    a value or one per time; every block has two or more, since numpy sums
    the series of a single time in another order."""
    n = -(-t.size // _SERIES_BLOCK)
    if n < 2:
        return _bose_block(s, wc, beta, t)

    def split(x):
        return np.array_split(x, n) if isinstance(x, np.ndarray) else [x] * n

    sums, bounds = zip(*(_bose_block(s, *args)
                         for args in zip(split(wc), split(beta), split(t))))
    return tuple(map(np.concatenate, zip(*sums))), np.concatenate(bounds)


def _bose_block(s, wc, beta, t):
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
    return _shared(bath.beta, math.inf)


def _certified_sums(sd, bath, g):
    """The Bose sums of the _Grid g; QuadratureError past GAMMA_TH_RTOL."""
    sums, bound = g.bose
    if bound.size and not bound.max() <= GAMMA_TH_RTOL:
        worst = int(np.argmax(bound))
        what = ("overflows" if math.isinf(bound[worst])
                else f"bound exceeds {GAMMA_TH_RTOL!r}")
        raise QuadratureError(
            f"thermal series {what} at {_point(sd, bath, g.t, worst)}",
            float((_prefactor(sd) * sums[0])[worst]),
            float(bound[worst]))
    return sums


def _prefactor(sd):
    """2 G Gamma(s) w_c**(1-s), the factor in front of the Bose sums."""
    s = sd.ohmicity
    return 2.0 * sd.coupling * math.gamma(s) * np.power(sd.cutoff, 1.0 - s)


def gamma_th(sd, bath, t):
    """Thermal dephasing exponent; exactly 0 at zero temperature.

    The series certifies its relative truncation error to GAMMA_TH_RTOL; a
    grid with a point where the bound is larger or infinite (the sums
    overflow) raises QuadratureError naming that point.
    """
    g, scalar = _grid(sd, bath, t)
    if _cold(bath) or _shared(sd.coupling, 0.0):
        return _unpack(np.zeros(g.t.shape), scalar)
    return _unpack(_prefactor(sd) * _certified_sums(sd, bath, g)[0], scalar)


# ---------------------------------------------------------------------------
# parameter derivatives
# ---------------------------------------------------------------------------

def _omega_c_parts(sd, g):
    """(G Gamma(s) t (1 + x**2)**(-s/2), s atan x): the vacuum cutoff slopes."""
    s = sd.ohmicity
    _, y, _, b = g.angles
    return sd.coupling * math.gamma(s) * g.t * (1.0 + y) ** (-0.5 * s), s * b


def d_gamma_vac_d_omega_c(sd, t):
    g, scalar = _grid(sd, None, t)
    amp, angle = _omega_c_parts(sd, g)
    return _unpack(amp * np.sin(angle), scalar)


def d_phi_d_omega_c(sd, t):
    g, scalar = _grid(sd, None, t)
    amp, angle = _omega_c_parts(sd, g)
    return _unpack(amp * np.cos(angle), scalar)


def d_delta_d_omega_c(sd, t):
    # the printed Ohmic form of this derivative carries the wrong sign; the
    # quadrature route fixes it (negative: |delta| grows with the cutoff)
    g, scalar = _grid(sd, None, t)
    G, s = sd.coupling, sd.ohmicity
    val = G * math.gamma(s) * g.t * _re_pow_m1(-s, *g.angles[2:])
    return _unpack(val, scalar)


def d_gamma_d_omega_c(sd, bath, t):
    """Cutoff derivative of the uncorrelated exponent gamma_vac + gamma_th.

    The thermal part differentiates its Bose series through w_c**(1-s) and
    the shifted inverse cutoffs a_n.
    """
    g, scalar = _grid(sd, bath, t)
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    d = d_gamma_vac_d_omega_c(sd, g)
    if not (_cold(bath) or _shared(G, 0.0)):
        s0, s1, _ = _certified_sums(sd, bath, g)
        d = d + _prefactor(sd) / wc * ((1.0 - s) * s0 - s1 / wc)
    return _unpack(d, scalar)


def d_gamma_th_d_temperature(sd, bath, t):
    """Temperature derivative of the thermal exponent, -beta**2 d/d beta.

    Exactly 0 at T = 0, where gamma_th vanishes like T**(s+1).
    """
    g, scalar = _grid(sd, bath, t)
    if _cold(bath) or _shared(sd.coupling, 0.0):
        return _unpack(np.zeros(g.t.shape), scalar)
    beta = bath.beta
    sn = _certified_sums(sd, bath, g)[2]
    return _unpack(_prefactor(sd) * beta * (beta * -sn), scalar)
