"""Reduced probe states under pure dephasing.

Populations are untouched (the probe starts aligned with x), so everything
lives in the off-diagonal element: a free phase, the dephasing envelope, the
bath-induced two-qubit phase and, for correlated preparation, the extra
damping and level shift.  The two-qubit density matrix is assembled element
by element in the joint sigma_z eigenbasis; the traced single-qubit state
has the closed form used throughout the Fisher-information layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import correlations, spectral
from .correlations import SINGLE_QUBIT, TWO_QUBIT
from .spectral import DephasingFactors, _check_finite, _times

__all__ = [
    "TWO_QUBIT_TRACED",
    "SINGLE_QUBIT_PROBE",
    "FACTORIZED",
    "CORRELATED",
    "ProbeConfig",
    "QubitState",
    "TwoQubitState",
    "BASIS_LABELS",
    "dephasing_factors",
    "two_qubit_state",
    "assemble_two_qubit_matrix",
    "reduced_qubit_state",
    "reduced_state_from_factors",
    "partial_trace_second_qubit",
    "coherence_factor",
    "EigenDecomposition",
    "eigendecompose",
]

TWO_QUBIT_TRACED = "two-qubit-traced"
SINGLE_QUBIT_PROBE = "single-qubit"
FACTORIZED = "factorized"
CORRELATED = "correlated"

#: row/column ordering of the two-qubit matrix: sigma_z eigenvalues (k, l)
BASIS_LABELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class ProbeConfig:
    """Probe layout: splitting, measurement scheme, and preparation."""

    omega_0: float = 1.0
    scheme: str = TWO_QUBIT_TRACED
    initial_state: str = FACTORIZED

    def __post_init__(self):
        if self.omega_0 <= 0.0:
            raise ValueError("probe splitting must be > 0")
        if self.scheme not in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.initial_state not in (FACTORIZED, CORRELATED):
            raise ValueError(f"unknown initial state {self.initial_state!r}")

    @property
    def correlation_scheme(self):
        return TWO_QUBIT if self.scheme == TWO_QUBIT_TRACED else SINGLE_QUBIT


@dataclass(frozen=True)
class QubitState:
    """2x2 reduced probe state stored entrywise."""

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex

    @property
    def matrix(self):
        return np.array([[self.rho00, self.rho01],
                         [self.rho10, self.rho11]], dtype=complex)

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=complex)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @property
    def coherence(self):
        return self.rho01


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 joint state in the |k, l> basis ordered as BASIS_LABELS."""

    matrix: np.ndarray


def dephasing_factors(cfg, sd, bath, t, rel_tol=spectral.GAMMA_TH_RTOL):
    """All dephasing exponents/phases of the probe at time t, bundled.

    ``t`` is a time or a 1-D time grid; a grid costs one call per factor.
    A non-finite factor raises NumericalError naming its (s, w_c, T, t).
    """
    t, scalar = _times(t)
    zero = np.zeros(t.shape)
    with np.errstate(all="ignore"):
        g_vac = spectral.gamma_vac(sd, t)
        g_th = spectral.gamma_th(sd, bath, t, rel_tol=rel_tol)
        phi = spectral.phi_factor(sd, t)
        two_qubit = cfg.scheme == TWO_QUBIT_TRACED
        delta = spectral.delta_factor(sd, t) if two_qubit else zero
        shift = spectral.c_shift(sd)
        if cfg.initial_state == CORRELATED:
            corr = correlations.corr_factors_from_parts(
                shift, phi, bath.beta, cfg.omega_0, cfg.correlation_scheme)
            g_corr, chi = corr.gamma_corr, corr.chi
        else:
            g_corr, chi = zero, zero
    fields = (g_vac, g_th, g_corr, delta, phi, chi)
    _check_finite(fields, sd, bath, t)
    if scalar:
        fields = (float(v[0]) for v in fields)
    return DephasingFactors(*fields, c_shift=shift)


def assemble_two_qubit_matrix(omega_0, t, gamma_un, delta, x_factors=None):
    """Element formula for the |+,+> two-qubit state.

    ``x_factors`` maps half the total spin flip m = (k+l-k'-l')/2 to the
    preparation phase factor X(m); None means factorized (X = 1).
    """
    dim = len(BASIS_LABELS)
    rho = np.empty((dim, dim), dtype=complex)
    for i, (kp, lp) in enumerate(BASIS_LABELS):
        for j, (k, l) in enumerate(BASIS_LABELS):
            flip = k + l - kp - lp
            phase = (-0.5j * omega_0 * (kp + lp - k - l) * t
                     - 0.5j * delta * (kp * lp - k * l)
                     - 0.25 * flip * flip * gamma_un)
            x = 1.0 if x_factors is None else x_factors[flip // 2]
            rho[i, j] = 0.25 * x * np.exp(phase)
    return rho


def two_qubit_state(cfg, sd, bath, t):
    """Joint state of both probe qubits from the continuum factors."""
    if cfg.scheme != TWO_QUBIT_TRACED:
        raise ValueError("two_qubit_state requires the two-qubit scheme")
    fac = dephasing_factors(cfg, sd, bath, t)
    x_factors = None
    if cfg.initial_state == CORRELATED:
        x_factors = {m: correlations.element_phase_factor(
            m, fac.c_shift, fac.phi, bath.beta, cfg.omega_0) for m in range(-2, 3)}
    rho = assemble_two_qubit_matrix(cfg.omega_0, t, fac.gamma_un, fac.delta, x_factors)
    return TwoQubitState(matrix=rho)


def partial_trace_second_qubit(state):
    """Reduce a TwoQubitState over its second qubit."""
    m = state.matrix
    # basis order (k,l): rows 0,1 have k=+1; rows 2,3 have k=-1
    r = np.array([[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
                  [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]], dtype=complex)
    return QubitState.from_matrix(r)


def reduced_state_from_factors(omega_0, t, gamma, delta, chi):
    """Single-qubit state given total exponent, induced phase, level shift."""
    coh = 0.5 * math.cos(delta) * math.exp(-gamma) * np.exp(-1j * (omega_0 * t + chi))
    return QubitState(rho00=0.5 + 0.0j, rho01=coh, rho10=np.conj(coh), rho11=0.5 + 0.0j)


def reduced_qubit_state(cfg, sd, bath, t):
    """Reduced probe qubit for either scheme and either preparation."""
    fac = dephasing_factors(cfg, sd, bath, t)
    return reduced_state_from_factors(cfg.omega_0, t, fac.gamma_total,
                                      fac.delta, fac.chi)


def coherence_factor(cfg, sd, bath, t):
    """Signed coherence envelope; the reduced eigenvalues are (1 -+ F)/2."""
    fac = dephasing_factors(cfg, sd, bath, t)
    return math.cos(fac.delta) * math.exp(-fac.gamma_total)


@dataclass(frozen=True)
class EigenDecomposition:
    """Closed-form eigensystem of a dephasing-probe qubit state.

    populations are ordered ((1-F)/2, (1+F)/2) with F = 2|rho01|; the
    eigenstates are the equatorial pair at azimuths (xi + pi, xi).
    """

    populations: tuple
    azimuths: tuple
    degenerate: bool

    def bloch_vectors(self):
        out = []
        for az in self.azimuths:
            out.append(np.array([math.cos(az), math.sin(az), 0.0]))
        return tuple(out)


def eigendecompose(state, degeneracy_tol=0.0):
    """Eigenvalues and equatorial eigenvectors of a diagonal-1/2 state."""
    if abs(state.rho00 - 0.5) > 1e-12 or abs(state.rho11 - 0.5) > 1e-12:
        raise ValueError("eigendecompose expects a pure-dephasing state with diagonal 1/2")
    f = 2.0 * abs(state.rho01)
    xi = -np.angle(state.rho01) if f > 0.0 else 0.0
    degenerate = f <= degeneracy_tol
    return EigenDecomposition(populations=(0.5 * (1.0 - f), 0.5 * (1.0 + f)),
                              azimuths=(xi + math.pi, xi),
                              degenerate=degenerate)
