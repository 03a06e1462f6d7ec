"""Initial-correlation factors of the projectively prepared probe.

Preparing the probe by a projective measurement on the jointly thermalized
probe-bath state leaves the bath correlated with the probe.  The reduced
coherence then picks up an extra damping exponent and a level-shift phase.
Both are assembled from the static reorganization constant and the phase
kernel of the spectral module, through one preparation phasor; one call
returns them together with their slopes along an estimand.  The same
routine is reused by the discrete-mode oracle with mode sums in place of
the continuum integrals, and the element factors of the two-qubit state in
``verify`` read the same rescaled parts.

Everything is evaluated in a rescaled form that divides out the dominant
exp(beta*C)*cosh(beta*w0) weight, so arbitrarily low temperatures never
overflow and the analytic T = 0 limit is the e -> 0 member of the same
family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectral import _shared, _unpack

__all__ = [
    "TWO_QUBIT_TRACED",
    "SINGLE_QUBIT_PROBE",
    "CorrelationFactors",
    "corr_factors_from_parts",
]

#: probe schemes: two qubits read out on the first, or a single qubit
TWO_QUBIT_TRACED = "two-qubit-traced"
SINGLE_QUBIT_PROBE = "single-qubit"


@dataclass(frozen=True)
class CorrelationFactors:
    """Correlation damping exponent, unwrapped level-shift phase and their
    slopes along an estimand.

    Floats for a scalar phase kernel, arrays for an array over time.
    """

    gamma_corr: float
    chi: float
    d_gamma_corr: float
    d_chi: float


def _scaled_parts(c_shift, phi, beta, omega_0, scheme):
    """(e, tau, q, u): residual weight, phase contrast, its sech weight, and
    bare phase.

    e is the preparation sum's subdominant weight relative to the leading
    exp(beta*C)*cosh(beta*w0) term (two-qubit; identically 0 for one qubit),
    tau = tanh(beta w) the sinh/cosh contrast, w = w0 (one qubit: w0 / 2),
    q = exp(-2 beta w), u the winding phase.  beta = inf is the exact
    zero-temperature member: e = q = 0, tau = 1.  e, tau and q follow C and
    beta (values, or finite arrays over phi's points), u follows phi.
    """
    if scheme not in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE):
        raise ValueError(f"unknown scheme {scheme!r}")
    two_qubit = scheme == TWO_QUBIT_TRACED
    u = 2.0 * phi if two_qubit else phi
    if _shared(beta, math.inf):
        return 0.0, 1.0, 0.0, u
    y = beta * omega_0 if two_qubit else 0.5 * beta * omega_0
    q = np.exp(-2.0 * abs(y))
    e = 0.0
    if two_qubit:
        log_cosh = abs(y) - math.log(2.0) + np.log1p(q)
        e = np.exp(-(beta * c_shift + log_cosh))
    return e, np.tanh(y), q, u


def _wrap_pm_pi(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _as_array(phi):
    """(phi as a 1-D float array, whether it was a scalar)."""
    arr = np.asarray(phi, dtype=float)
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


def corr_factors_from_parts(c_shift, phi, beta, omega_0, scheme,
                            d_c_shift=0.0, d_phi=0.0, d_beta=0.0):
    """Correlation factors from raw (C, phi, beta) values, and their slopes
    along an estimand x by the chain rule through (C, phi, beta).

    Shared by the continuum route and the discrete-mode oracle; ``phi`` and
    ``d_phi`` are floats or arrays over time, and the factors follow them;
    C, beta and their slopes are values or arrays over its points, each
    with the bits of its own call (numpy ufuncs round alike alone and in an
    array).  chi is unwrapped against the winding phase u: the preparation
    phasor (A, B) = (cos u + e, tau sin u) encircles the origin in step
    with u whenever e < 1, so chi = u + wrap(atan2 - u) is the exact
    continuous branch.  One rule serves every estimand: ``d_beta`` =
    d beta/dx is -beta**2 for the temperature and 0 for the cutoff and the
    coupling, which leaves the arithmetic of the fixed-beta rule as it is;
    zero slopes of (C, phi, beta) give zero slopes.  The values never read
    the slopes.  At beta = inf the rescaled weight vanishes, the phasor
    lies on the unit circle and the factors are (0, u) and their slopes
    (0, du/dx) exactly.
    """
    phi, scalar = _as_array(phi)
    e, tau, q, u = _scaled_parts(c_shift, phi, beta, omega_0, scheme)
    two_qubit = scheme == TWO_QUBIT_TRACED
    du = (2.0 if two_qubit else 1.0) * np.asarray(d_phi, dtype=float)
    if _shared(beta, math.inf):
        # exact zero-temperature member: the phasor turns on the unit circle,
        # where the general form would leave a rounding residue in d gamma_corr
        zero = np.zeros(u.shape)
        fields = (zero, u, zero, du + zero)
    else:
        cos_u = np.cos(u)
        sin_u = np.sin(u)
        A = cos_u + e
        B = tau * sin_u
        norm = A * A + B * B
        gamma_corr = np.log1p(e) - 0.5 * np.log(norm)
        wrapped = np.arctan2(B, A)
        chi = u + _wrap_pm_pi(wrapped - u)
        # e = 1 is the beta = 0 edge: the phasor never leaves the right half plane
        np.copyto(chi, wrapped, where=e >= 1.0)
        # phasor sits on the leading weight (t = 0, G = 0, full rephasings)
        leading = (B == 0.0) & (cos_u == 1.0)
        if leading.any():
            gamma_corr[leading] = 0.0
            chi[leading] = u[leading]
        de = -beta * d_c_shift * e if two_qubit else 0.0
        dB = tau * cos_u * du
        if not _shared(d_beta, 0.0):  # x moves beta: the temperature
            # e = exp(-beta C) / cosh(beta w0) and tau = tanh(beta w) move with
            # beta too; sech(beta w)**2 = 4 q / (1 + q)**2 keeps what 1 - tau**2
            # would cancel.  Where -beta**2 overflows, the clamp and the weights
            # taken first leave a weight that has underflowed to 0 adding nothing.
            w = omega_0 if two_qubit else 0.5 * omega_0
            d_beta = np.maximum(d_beta, -sys.float_info.max)
            de = de - d_beta * ((c_shift + omega_0 * tau) * e)
            dB = dB + d_beta * (w * 4.0 * q / (1.0 + q) ** 2) * sin_u
        dA = -sin_u * du + de
        fields = (gamma_corr, chi, de / (1.0 + e) - (A * dA + B * dB) / norm,
                  (A * dB - B * dA) / norm)
    return CorrelationFactors(*(_unpack(x, scalar) for x in fields))
