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

import numpy as np

from .spectral import _unpack

__all__ = [
    "TWO_QUBIT",
    "SINGLE_QUBIT",
    "CorrelationFactors",
    "corr_factors_from_parts",
    "d_corr_from_parts",
    "element_phase_factor",
]

TWO_QUBIT = "two-qubit"
SINGLE_QUBIT = "single-qubit"


@dataclass(frozen=True)
class CorrelationFactors:
    """Correlation damping exponent and unwrapped level-shift phase.

    Floats for a scalar phase kernel, arrays for an array over time.
    """

    gamma_corr: float
    chi: float


def _scaled_parts(c_shift, phi, beta, omega_0, scheme):
    """(e, tau, u): residual weight, phase contrast, and bare phase.

    e is the preparation sum's subdominant weight relative to the leading
    exp(beta*C)*cosh(beta*w0) term (two-qubit; identically 0 for one qubit),
    tau the sinh/cosh contrast, u the winding phase.  beta = inf is the
    exact zero-temperature member: e = 0, tau = 1.  e and tau are floats,
    u follows phi (a float or an array over time).
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


def _as_array(phi):
    """(phi as a 1-D float array, whether it was a scalar)."""
    arr = np.asarray(phi, dtype=float)
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


def corr_factors_from_parts(c_shift, phi, beta, omega_0, scheme):
    """Correlation factors from raw (C, phi) values.

    Shared by the continuum route and the discrete-mode oracle; ``phi`` is
    a float or an array over time, and the factors follow it.  chi is
    unwrapped against the winding phase u: the preparation phasor
    (cos u + e, tau sin u) encircles the origin in step with u whenever
    e < 1, so chi = u + wrap(atan2 - u) is the exact continuous branch.
    """
    phi, scalar = _as_array(phi)
    e, tau, u = _scaled_parts(c_shift, phi, beta, omega_0, scheme)
    if math.isinf(beta):
        # exact zero-temperature member: the phasor lies on the unit circle
        gamma_corr, chi = np.zeros(u.shape), u
    else:
        cos_u = np.cos(u)
        A = cos_u + e
        B = tau * np.sin(u)
        gamma_corr = math.log1p(e) - 0.5 * np.log(A * A + B * B)
        wrapped = np.arctan2(B, A)
        if e < 1.0:
            chi = u + _wrap_pm_pi(wrapped - u)
        else:
            chi = wrapped  # beta = 0 edge: phasor never leaves the right half plane
        # phasor sits on the leading weight (t = 0, G = 0, full rephasings)
        leading = (B == 0.0) & (cos_u == 1.0)
        if leading.any():
            gamma_corr[leading] = 0.0
            chi[leading] = u[leading]
    return CorrelationFactors(gamma_corr=_unpack(gamma_corr, scalar),
                              chi=_unpack(chi, scalar))


def d_corr_from_parts(c_shift, phi, d_c_shift, d_phi, beta, d_beta, omega_0, scheme):
    """(d gamma_corr/dx, d chi/dx) by the chain rule through (C, phi, beta).

    One rule for every estimand x: ``d_beta`` = d beta/dx is -beta**2 for
    the temperature and 0 for the cutoff and the coupling, which leaves
    the arithmetic of the fixed-beta rule as it is.  ``phi`` and ``d_phi``
    are floats or arrays over time.  At beta = inf the rescaled weight
    vanishes and the pair reduces to (0, du/dx) exactly.
    """
    phi, scalar = _as_array(phi)
    e, tau, u = _scaled_parts(c_shift, phi, beta, omega_0, scheme)
    two_qubit = scheme == TWO_QUBIT
    du = (2.0 if two_qubit else 1.0) * np.asarray(d_phi, dtype=float)
    if math.isinf(beta):
        # the phasor turns on the unit circle; the general form below
        # leaves a rounding residue in d gamma_corr
        zero = np.zeros(u.shape)
        return _unpack(zero, scalar), _unpack(du + zero, scalar)
    cos_u = np.cos(u)
    sin_u = np.sin(u)
    A = cos_u + e
    B = tau * sin_u
    de = -beta * d_c_shift * e if two_qubit else 0.0
    dB = tau * cos_u * du
    if d_beta:
        # e = exp(-beta C) / cosh(beta w0) and tau = tanh(beta w), w = w0 (one
        # qubit: w0 / 2), move with beta too; sech(beta w)**2 = 4 q / (1 + q)**2
        # with q = exp(-2 beta w) keeps what 1 - tau**2 would cancel.  A weight
        # that has underflowed to 0 adds nothing, also where d_beta overflows.
        w = omega_0 if two_qubit else 0.5 * omega_0
        q = math.exp(-2.0 * beta * w)
        if e:
            de -= d_beta * (c_shift + omega_0 * tau) * e
        if q:
            dB = dB + w * 4.0 * q / (1.0 + q) ** 2 * d_beta * sin_u
    dA = -sin_u * du + de
    norm = A * A + B * B
    d_chi = (A * dB - B * dA) / norm
    d_gamma = de / (1.0 + e) - (A * dA + B * dB) / norm
    return _unpack(d_gamma, scalar), _unpack(d_chi, scalar)


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
