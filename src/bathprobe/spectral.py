"""Bath spectral density, dephasing exponents, and their parameter derivatives.

The bath is an exponentially cut off power-law spectral density

    J(w) = G * w**s / w_c**(s-1) * exp(-w / w_c)

with coupling strength G, Ohmicity s (s < 1 sub-Ohmic, s = 1 Ohmic,
s > 1 super-Ohmic) and cutoff frequency w_c, all in units of the probe
splitting.  Every factor below is a closed form, the thermal exponent a
Bose series of vacuum-type terms; each has an independent quadrature route
(``quadrature_factor``) evaluating the defining integral directly, and the
tests pin the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadratureError, QuadratureResult, bath_integral

__all__ = [
    "SpectralDensity",
    "BathState",
    "DephasingFactors",
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


@dataclass(frozen=True)
class SpectralDensity:
    """Exponential-cutoff power-law bath spectrum (G, s, w_c)."""

    coupling: float      # G >= 0, dimensionless
    ohmicity: float      # s > 0
    cutoff: float        # w_c > 0, units of the probe splitting

    def __post_init__(self):
        if self.coupling < 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.ohmicity <= 0.0:
            raise ValueError(f"ohmicity must be > 0, got {self.ohmicity}")
        if self.cutoff <= 0.0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")


@dataclass(frozen=True)
class BathState:
    """Bath temperature; T = 0 selects the analytic zero-temperature limit."""

    temperature: float = 0.0

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")

    @property
    def zero_temperature(self):
        return self.temperature == 0.0

    @property
    def beta(self):
        return math.inf if self.temperature == 0.0 else 1.0 / self.temperature


@dataclass(frozen=True)
class DephasingFactors:
    """Dephasing exponents and phases of the probe at one instant."""

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


def _kernel(s, a, b):
    """Re and Im of K = ((1 - i x)**(1-s) - 1) / (1 - s), continuous in s.

    Takes a = log|1 - i x| = log1p(x**2)/2 and b = atan x, so a caller that
    needs them for other terms computes them once.  With
    log(1 - i x) = a - i b and z = (1-s)(a - i b) = u - i v, K is
    (a - i b) expm1(z)/z.  Splitting expm1(z) into expm1(u) cos v
    - 2 sin(v/2)**2 - i e^u sin v and dividing each piece by (1-s) through
    a/u or b/v leaves no cancellation at any s.  At z = 0 (s = 1, or x so
    small that a underflows) expm1(z)/z is 1 and K is log(1 - i x).
    """
    u = (1.0 - s) * a
    if u == 0.0:
        return a, -b
    h = 0.5 * (1.0 - s) * b
    sin_h = math.sin(h)
    sinc_h = sin_h / h
    re = a * (math.expm1(u) / u) * (1.0 - 2.0 * sin_h * sin_h) - b * sin_h * sinc_h
    im = -b * math.exp(u) * sinc_h * math.cos(h)
    return re, im


def gamma_vac(sd, t):
    """Vacuum dephasing exponent G Gamma(s) Re K; >= 0, zero at t = 0."""
    return _gamma_vac(sd.coupling, sd.ohmicity, sd.cutoff, t)


def _gamma_vac(G, s, wc, t):
    if t < 0.0:
        raise ValueError("time must be >= 0")
    x = wc * t
    if x == 0.0 or G == 0.0:
        return 0.0
    val = G * math.gamma(s) * _kernel(s, 0.5 * math.log1p(x * x), math.atan(x))[0]
    # the defining integral has a positive integrand
    if not val >= 0.0:
        raise AssertionError(f"vacuum exponent came out negative: {val}")
    return val


def phi_factor(sd, t):
    """Phase kernel -G Gamma(s) Im K feeding the initial-correlation level shift."""
    return _phi(sd.coupling, sd.ohmicity, sd.cutoff, t)


def _phi(G, s, wc, t):
    if t < 0.0:
        raise ValueError("time must be >= 0")
    x = wc * t
    if x == 0.0 or G == 0.0:
        return 0.0
    return -G * math.gamma(s) * _kernel(s, 0.5 * math.log1p(x * x), math.atan(x))[1]


def delta_factor(sd, t):
    """Bath-induced qubit-qubit phase; <= 0 and non-increasing in t.

    Delta = -G Gamma(s) (Im K + x).  Im K and x are O(x) but their sum is
    O(x**3), so it is assembled from two parts that carry the cubic order
    themselves: -(x - atan x), which is Im K + x at z = 0, and the kernel's
    remainder -Im(K - log(1 - i x)) = b (expm1(u) sinc v + sinc v - 1).
    """
    return _delta(sd.coupling, sd.ohmicity, sd.cutoff, t)


def _delta(G, s, wc, t):
    if t < 0.0:
        raise ValueError("time must be >= 0")
    x = wc * t
    if x == 0.0 or G == 0.0:
        return 0.0
    # below the switch-over points (x, |v| <= 0.1) the Taylor series are
    # truncated under 2e-17 relative
    y = x * x
    b = math.atan(x)
    if x > 0.1:
        val = b - x
    else:
        val = -x * y * (1 / 3 - y * (1 / 5 - y * (1 / 7 - y * (1 / 9 - y * (
            1 / 11 - y * (1 / 13 - y * (1 / 15 - y / 17)))))))
    u = (1.0 - s) * 0.5 * math.log1p(y)
    if u != 0.0:  # at z = 0 the remainder vanishes
        v = (1.0 - s) * b
        w = v * v
        if w > 0.01:
            sinc_v = math.sin(v) / v
            sinc_v_m1 = sinc_v - 1.0
        else:
            sinc_v_m1 = -w / 6 * (1 - w / 20 * (1 - w / 42 * (1 - w / 72 * (
                1 - w / 110))))
            sinc_v = 1.0 + sinc_v_m1
        val += b * (math.expm1(u) * sinc_v + sinc_v_m1)
    return G * math.gamma(s) * val


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
#: summed one by one
_SERIES_TERMS = 24

#: B_2k / (2k)! for the tail corrections k = 1..4
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def _re_pow_m1(p, a, b):
    """Re (1 - i x)**p - 1 from a = log|1 - i x|, b = atan x.

    Split as expm1(p a) cos(p b) - 2 sin(p b / 2)**2, so an O(x**2) value
    is not the difference of two O(1) ones.
    """
    v = p * b
    return math.expm1(p * a) * math.cos(v) - 2.0 * math.sin(0.5 * v) ** 2


def _kernel_integral(s, x, a, b):
    """Re[(1 - i x)**(2-s) - 1] / ((1-s)(2-s)), continuous in s.

    a = log|1 - i x| and b = atan x as for _kernel.  The numerator is
    (1-s) Re[(1 - i x) K(s, x)], which divides out the pole at s = 1 and
    leaves (Re K + x Im K) / (2-s); past s = 1.5 the same numerator written
    as (2-s) Re K(s-1, x) divides out the pole at s = 2.
    """
    if s <= 1.5:
        re, im = _kernel(s, a, b)
        return (re + x * im) / (2.0 - s)
    return _kernel(s - 1.0, a, b)[0] / (1.0 - s)


def _em_tails(s, a, beta, t, n):
    """Tails from m = n on of the sums of h, h' and m h' at a_m = a + (m-n) beta.

    Returns the three tails and the last (B_8) correction of each.
    """
    x = t / a
    alpha = 0.5 * math.log1p(x * x)
    theta = math.atan(x)
    power = a ** (1.0 - s)
    d = [power * _kernel(s, alpha, theta)[0]]   # h^(j)(a), j = 0..8
    c = 1.0
    for j in range(1, 9):
        p = 1.0 - s - j
        power /= a
        d.append(c * power * _re_pow_m1(p, alpha, theta))
        c *= p
    # -(integral of h from a on)
    f = a ** (2.0 - s) * _kernel_integral(s, x, alpha, theta)
    t0 = -f / beta + 0.5 * d[0]
    t1 = -d[0] / beta + 0.5 * d[1]
    tn = f / (beta * beta) + n * t1
    for k, b in enumerate(_EM_COEFFS, 1):
        c0 = b * beta ** (2 * k - 1) * d[2 * k - 1]
        c1 = b * beta ** (2 * k - 1) * d[2 * k]
        cn = n * c1 + (2 * k - 1) * c0 / beta
        t0 -= c0
        t1 -= c1
        tn -= cn
    return (t0, t1, tn), (c0, c1, cn)


@lru_cache(maxsize=8)
def _bose_sums(s, wc, beta, t):
    """((sum h(a_n), sum h'(a_n), sum n h'(a_n)) over n >= 1, bound).

    The bound is the largest B_8 correction relative to its sum.  Cached,
    so the factor bundle's value and derivative share one series.
    """
    a0 = 1.0 / wc
    n = _SERIES_TERMS
    sums = [0.0, 0.0, 0.0]
    for m in range(1, n):
        a = a0 + m * beta
        x = t / a
        power = a ** (1.0 - s)
        alpha = 0.5 * math.log1p(x * x)
        theta = math.atan(x)
        sums[0] += power * _kernel(s, alpha, theta)[0]
        dh = power / a * _re_pow_m1(-s, alpha, theta)
        sums[1] += dh
        sums[2] += m * dh
    tails, last = _em_tails(s, a0 + n * beta, beta, t, n)
    total = tuple(v + tail for v, tail in zip(sums, tails))
    bound = max(abs(c) / abs(v) if v else (math.inf if c else 0.0)
                for c, v in zip(last, total))
    return total, bound


def _certified_sums(sd, bath, t, rel_tol):
    """The Bose sums at (s, w_c, T, t); QuadratureError past rel_tol."""
    s, wc = sd.ohmicity, sd.cutoff
    sums, bound = _bose_sums(s, wc, bath.beta, t)
    if not bound <= rel_tol:
        raise QuadratureError(
            f"thermal series bound exceeds rel_tol={rel_tol!r} at s={s!r}, "
            f"w_c={wc!r}, T={bath.temperature!r}, t={t!r}",
            _prefactor(sd.coupling, s, wc) * sums[0], bound)
    return sums


def _prefactor(G, s, wc):
    """2 G Gamma(s) w_c**(1-s), the factor in front of the Bose sums."""
    return 2.0 * G * math.gamma(s) * wc ** (1.0 - s)


def _gamma_th(G, sd, bath, t, rel_tol):
    if bath.zero_temperature or t == 0.0 or G == 0.0:
        return 0.0
    return (_prefactor(G, sd.ohmicity, sd.cutoff)
            * _certified_sums(sd, bath, t, rel_tol)[0])


def gamma_th(sd, bath, t, rel_tol=GAMMA_TH_RTOL):
    """Thermal dephasing exponent; exactly 0 at zero temperature.

    ``rel_tol`` bounds the series' relative truncation error; a point that
    misses it raises QuadratureError.
    """
    if t < 0.0:
        raise ValueError("time must be >= 0")
    return _gamma_th(sd.coupling, sd, bath, t, rel_tol)


# ---------------------------------------------------------------------------
# parameter derivatives
# ---------------------------------------------------------------------------

def temperature_step(temperature):
    """Finite-difference step for temperature derivatives."""
    return max(1e-6, 1e-4 * temperature)


def d_gamma_vac_d_omega_c(sd, t):
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    x = wc * t
    if x == 0.0 or G == 0.0:
        return 0.0
    return (G * math.gamma(s) * t * (1.0 + x * x) ** (-0.5 * s)
            * math.sin(s * math.atan(x)))


def d_phi_d_omega_c(sd, t):
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    x = wc * t
    if x == 0.0 or G == 0.0:
        return 0.0
    return (G * math.gamma(s) * t * (1.0 + x * x) ** (-0.5 * s)
            * math.cos(s * math.atan(x)))


def d_delta_d_omega_c(sd, t):
    # the printed Ohmic form of this derivative carries the wrong sign; the
    # quadrature route fixes it (negative: |delta| grows with the cutoff)
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    x = wc * t
    if x == 0.0 or G == 0.0:
        return 0.0
    return (G * math.gamma(s) * t
            * _re_pow_m1(-s, 0.5 * math.log1p(x * x), math.atan(x)))


def d_gamma_dx(sd, bath, t, x, rel_tol=GAMMA_TH_RTOL):
    """Derivative of the uncorrelated exponent gamma_vac + gamma_th.

    Closed form for every estimand; the thermal part differentiates its Bose
    series, through w_c**(1-s) and a_n for the cutoff.
    """
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    if x == "omega_c":
        d = d_gamma_vac_d_omega_c(sd, t)
        if not (bath.zero_temperature or t == 0.0 or G == 0.0):
            s0, s1, _ = _certified_sums(sd, bath, t, rel_tol)
            d += _prefactor(G, s, wc) / wc * ((1.0 - s) * s0 - s1 / wc)
        return d
    if x == "G":
        return _gamma_vac(1.0, s, wc, t) + _gamma_th(1.0, sd, bath, t, rel_tol)
    if x == "T":
        return d_gamma_th_d_temperature(sd, bath, t, rel_tol=rel_tol)
    raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")


def d_gamma_th_d_temperature(sd, bath, t, rel_tol=GAMMA_TH_RTOL):
    """Temperature derivative of the thermal exponent, -beta**2 d/d beta.

    Exactly 0 at T = 0, where gamma_th vanishes like T**(s+1).
    """
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    if bath.zero_temperature or t == 0.0 or G == 0.0:
        return 0.0
    beta = bath.beta
    sn = _certified_sums(sd, bath, t, rel_tol)[2]
    return -_prefactor(G, s, wc) * beta * beta * sn


def d_delta_dx(sd, t, x):
    """Derivative of the induced-interaction phase; zero for x = T."""
    if x == "omega_c":
        return d_delta_d_omega_c(sd, t)
    if x == "G":
        return _delta(1.0, sd.ohmicity, sd.cutoff, t)
    if x == "T":
        return 0.0
    raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")


def d_phi_dx(sd, t, x):
    """Derivative of the phase kernel; zero for x = T."""
    if x == "omega_c":
        return d_phi_d_omega_c(sd, t)
    if x == "G":
        return _phi(1.0, sd.ohmicity, sd.cutoff, t)
    if x == "T":
        return 0.0
    raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")


def d_c_shift_dx(sd, x):
    """Derivative of the reorganization constant; zero for x = T."""
    if x == "omega_c":
        return sd.coupling * math.gamma(sd.ohmicity)
    if x == "G":
        return sd.cutoff * math.gamma(sd.ohmicity)
    if x == "T":
        return 0.0
    raise ValueError(f"unknown estimand key {x!r}; expected one of {DERIVATIVE_KEYS}")
