"""Initial-correlation factors of the projectively prepared probe.

Preparing the probe by a projective measurement on the jointly thermalized
probe-bath state leaves the bath correlated with the probe.  The reduced
coherence then picks up an extra damping exponent and a level-shift phase.
Both are assembled from the static reorganization constant and the phase
kernel of the spectral module; the same assembly is reused by the
discrete-mode oracle with mode sums in place of the continuum integrals.

Everything is evaluated in a rescaled form that divides out the dominant
exp(beta*C)*cosh(beta*w0) weight, so arbitrarily low temperatures never
overflow and the analytic T = 0 limit is the e -> 0 member of the same
family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import spectral

__all__ = [
    "TWO_QUBIT",
    "SINGLE_QUBIT",
    "CorrelationFactors",
    "corr_factors_two_qubit",
    "corr_factors_single_qubit",
    "corr_factors_from_parts",
    "d_corr_dx",
    "d_corr_from_parts",
    "d_corr_d_temperature",
    "element_phase_factor",
]

TWO_QUBIT = "two-qubit"
SINGLE_QUBIT = "single-qubit"


@dataclass(frozen=True)
class CorrelationFactors:
    """Correlation damping exponent and unwrapped level-shift phase."""

    gamma_corr: float
    chi: float


def _scaled_parts(c_shift, phi, beta, omega_0, scheme):
    """(e, tau, u): residual weight, phase contrast, and bare phase.

    e is the preparation sum's subdominant weight relative to the leading
    exp(beta*C)*cosh(beta*w0) term (two-qubit; identically 0 for one qubit),
    tau the sinh/cosh contrast, u the winding phase.  beta = inf is the
    exact zero-temperature member: e = 0, tau = 1.
    """
    if scheme == TWO_QUBIT:
        u = 2.0 * phi
        if math.isinf(beta):
            return 0.0, 1.0, u
        y = beta * omega_0
        log_cosh = abs(y) - math.log(2.0) + math.log1p(math.exp(-2.0 * abs(y)))
        big = beta * c_shift + log_cosh
        e = math.exp(-big) if big < 700.0 else 0.0
        return e, math.tanh(y), u
    if scheme == SINGLE_QUBIT:
        u = phi
        if math.isinf(beta):
            return 0.0, 1.0, u
        return 0.0, math.tanh(0.5 * beta * omega_0), u
    raise ValueError(f"unknown scheme {scheme!r}")


def _wrap_pm_pi(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def corr_factors_from_parts(c_shift, phi, beta, omega_0, scheme):
    """Correlation factors from raw (C, phi) values.

    Shared by the continuum route and the discrete-mode oracle.  chi is
    unwrapped against the winding phase u: the preparation phasor
    (cos u + e, tau sin u) encircles the origin in step with u whenever
    e < 1, so chi = u + wrap(atan2 - u) is the exact continuous branch.
    """
    e, tau, u = _scaled_parts(c_shift, phi, beta, omega_0, scheme)
    if math.isinf(beta):
        # exact zero-temperature member: the phasor lies on the unit circle
        return CorrelationFactors(gamma_corr=0.0, chi=u)
    A = math.cos(u) + e
    B = tau * math.sin(u)
    if B == 0.0 and math.cos(u) == 1.0:
        # phasor sits on the leading weight (t = 0, G = 0, full rephasings)
        gamma_corr = 0.0
        chi = u
    else:
        gamma_corr = math.log1p(e) - 0.5 * math.log(A * A + B * B)
        wrapped = math.atan2(B, A)
        if e < 1.0:
            chi = u + _wrap_pm_pi(wrapped - u)
        else:
            chi = wrapped  # beta = 0 edge: phasor never leaves the right half plane
    return CorrelationFactors(gamma_corr=gamma_corr, chi=chi)


def corr_factors_two_qubit(sd, bath, omega_0, t):
    """Correlation factors for the traced two-qubit probe."""
    _check_args(omega_0, t)
    return corr_factors_from_parts(spectral.c_shift(sd), spectral.phi_factor(sd, t),
                                   bath.beta, omega_0, TWO_QUBIT)


def corr_factors_single_qubit(sd, bath, omega_0, t):
    """Correlation factors for the bare single-qubit probe.

    Not printed in closed form anywhere; obtained by repeating the
    projective-preparation sum with one spin (the quadratic weight cancels
    between numerator and denominator) and validated against the
    discrete-mode oracle.
    """
    _check_args(omega_0, t)
    return corr_factors_from_parts(spectral.c_shift(sd), spectral.phi_factor(sd, t),
                                   bath.beta, omega_0, SINGLE_QUBIT)


def _check_args(omega_0, t):
    if omega_0 <= 0.0:
        raise ValueError("probe splitting must be > 0")
    if t < 0.0:
        raise ValueError("time must be >= 0")


def d_corr_from_parts(c_shift, phi, d_c_shift, d_phi, beta, omega_0, scheme):
    """(d gamma_corr/dx, d chi/dx) by the chain rule through (C, phi).

    Valid for any estimand that leaves beta fixed.  At beta = inf the
    rescaled weight vanishes and the pair reduces to (0, du/dx) exactly.
    """
    e, tau, u = _scaled_parts(c_shift, phi, beta, omega_0, scheme)
    du = (2.0 if scheme == TWO_QUBIT else 1.0) * d_phi
    if math.isinf(beta):
        # the phasor turns on the unit circle; the general form below
        # leaves a rounding residue in d gamma_corr
        return 0.0, du
    de = -beta * d_c_shift * e if scheme == TWO_QUBIT else 0.0
    A = math.cos(u) + e
    B = tau * math.sin(u)
    dA = -math.sin(u) * du + de
    dB = tau * math.cos(u) * du
    norm = A * A + B * B
    d_chi = (A * dB - B * dA) / norm
    d_gamma = de / (1.0 + e) - (A * dA + B * dB) / norm
    return d_gamma, d_chi


def d_corr_d_temperature(c_shift, phi, temperature, omega_0, scheme):
    """(d gamma_corr/dT, d chi/dT) from raw (C, phi) values.

    Richardson-extrapolated central difference over the temperature (one
    step forward near T = 0); exactly (0, 0) at T = 0.
    """
    if temperature == 0.0:
        return 0.0, 0.0

    def factors(temp):
        f = corr_factors_from_parts(c_shift, phi, 1.0 / temp, omega_0, scheme)
        return f.gamma_corr, f.chi

    T = temperature
    h = spectral.temperature_step(T)
    if T - h <= 0.0:
        g0, c0 = factors(T)
        g1, c1 = factors(T + h)
        return (g1 - g0) / h, (c1 - c0) / h
    gp, cp = factors(T + h)
    gm, cm = factors(T - h)
    gp2, cp2 = factors(T + 0.5 * h)
    gm2, cm2 = factors(T - 0.5 * h)
    d_gamma = (4.0 * (gp2 - gm2) / h - (gp - gm) / (2.0 * h)) / 3.0
    d_chi = (4.0 * (cp2 - cm2) / h - (cp - cm) / (2.0 * h)) / 3.0
    return d_gamma, d_chi


def d_corr_dx(sd, bath, omega_0, t, x, scheme):
    """(d gamma_corr/dx, d chi/dx) for x in {omega_c, G, T}.

    Chain rule through (C, phi) for the spectral estimands, adaptive
    finite difference over temperature for x = T.
    """
    _check_args(omega_0, t)
    c, phi = spectral.c_shift(sd), spectral.phi_factor(sd, t)
    if x == "T":
        return d_corr_d_temperature(c, phi, bath.temperature, omega_0, scheme)
    return d_corr_from_parts(c, phi, spectral.d_c_shift_dx(sd, x),
                             spectral.d_phi_dx(sd, t, x), bath.beta, omega_0,
                             scheme)


def element_phase_factor(m, c_shift, phi, beta, omega_0):
    """Preparation phase factor X for a two-qubit matrix element.

    ``m`` is half the element's total spin flip (k + l - k' - l') / 2;
    the element's correlation factor is X(m) with X(0) = 1 and
    X(-m) = conj(X(m)).  Rescaled exactly like the correlation factors.
    """
    if m == 0:
        return complex(1.0, 0.0)
    e, tau, _ = _scaled_parts(c_shift, phi, beta, omega_0, TWO_QUBIT)
    # the dominant preparation weight sits on the spin-down sector, which
    # carries e^{+2 i m phi}
    u = 2.0 * m * phi
    A = math.cos(u) + e
    B = tau * math.sin(u)
    return complex(A, B) / (1.0 + e)
