"""Independent state-matrix routes that check the closed forms.

Nothing on the production chain (``cli -> fisher -> dynamics ->
correlations -> spectral``) calls into this module; the tests and the
benchmark's output checks do.  It holds

* the spectral-definition QFI: the eigen-decomposition of the reduced state
  (the 2x2 array of ``dynamics.reduced_qubit_state``) with a numerically
  differentiated state (``qfi_spectral``, ``state_derivative``);
* the Born-rule CFI of the equatorial projective pair (``cfi_born``);
* the two-qubit element formula (``two_qubit_state``), whose partial trace
  over the second qubit must give the closed-form reduced state.  The
  discrete-mode oracle traces its exact joint states with the same
  ``_trace_second_qubit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .correlations import TWO_QUBIT_TRACED, _scaled_parts
from .dynamics import (CORRELATED, Estimand, _validate_estimand, dephasing_factors,
                       reduced_qubit_state)
from .spectral import BathState

__all__ = [
    "BASIS_LABELS",
    "SpectralQFI",
    "qfi_spectral",
    "state_derivative",
    "cfi_born",
    "MeasurementUnderflowError",
    "element_phase_factor",
    "assemble_two_qubit_matrix",
    "two_qubit_state",
    "EigenDecomposition",
    "eigendecompose",
]

#: row/column ordering of the two-qubit matrix: sigma_z eigenvalues (k, l)
BASIS_LABELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class EigenDecomposition:
    """Closed-form eigensystem of a dephasing-probe qubit state.

    populations are ordered ((1-F)/2, (1+F)/2) with F = 2|rho01|; the
    eigenstates are the equatorial pair at azimuths (xi + pi, xi).
    """

    populations: tuple
    azimuths: tuple
    degenerate: bool


def eigendecompose(state):
    """Eigenvalues and equatorial eigenvectors of a 2x2 diagonal-1/2 state;
    degenerate where the populations coincide (F = 0)."""
    if np.shape(state) != (2, 2):
        raise ValueError(f"eigendecompose expects a 2x2 state, got shape {np.shape(state)}")
    if abs(state[0, 0] - 0.5) > 1e-12 or abs(state[1, 1] - 0.5) > 1e-12:
        raise ValueError("eigendecompose expects a pure-dephasing state with diagonal 1/2")
    f = 2.0 * abs(state[0, 1])
    xi = -np.angle(state[0, 1]) if f > 0.0 else 0.0
    return EigenDecomposition(populations=(0.5 * (1.0 - f), 0.5 * (1.0 + f)),
                              azimuths=(xi + math.pi, xi), degenerate=f == 0.0)


class SpectralQFI(NamedTuple):
    value: float
    degenerate: bool


_EIGVAL_FLOOR = 1e-14


def qfi_spectral(state, d_state):
    """QFI from the eigen-decomposition and an entrywise state derivative.

    ``d_state`` is the 2x2 elementwise derivative of the reduced state with
    respect to the estimand (see ``state_derivative``).  The population and
    coherence sums are folded into the equivalent eigenbasis form
    sum_{nm} 2 |<e_n| d_rho |e_m>|^2 / (p_n + p_m); the eigenstate
    derivative overlaps come from first-order perturbation theory, whose
    eigenvalue gap cancels against the population-difference weight.  Terms
    with p_n + p_m below 1e-14 are dropped, the usual rank-deficiency
    convention.
    """
    eig = eigendecompose(state)
    p = eig.populations
    vecs = [np.array([1.0, np.exp(1j * az)]) / math.sqrt(2.0)
            for az in eig.azimuths]
    d_rho = np.asarray(d_state, dtype=complex)
    value = 0.0
    for n in range(2):
        for m in range(2):
            weight = p[n] + p[m]
            if weight <= _EIGVAL_FLOOR:
                continue
            elem = vecs[n].conj() @ d_rho @ vecs[m]
            value += 2.0 * float(abs(elem) ** 2) / weight
    return SpectralQFI(value=value, degenerate=eig.degenerate)


def _estimand_slope(f, sd, bath, estimand, step):
    """df/dx at offset 0 by a Richardson-extrapolated central difference.

    ``f`` takes the offset from the estimand's value x; the default step is
    max(1e-6, 1e-4 T) for the temperature and 1e-4 max(|x|, 1) otherwise.
    """
    estimand = Estimand(estimand)
    value = estimand.current_value(sd, bath)
    h = step
    if h is None:
        hot = estimand is Estimand.TEMPERATURE
        h = max(1e-6, 1e-4 * value) if hot else 1e-4 * max(abs(value), 1.0)
    if value - h <= 0.0:
        h = 0.5 * value  # keep both sample points in the physical domain
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _shifted(cfg, sd, bath, estimand, h):
    estimand = Estimand(estimand)
    if estimand is Estimand.CUTOFF_FREQUENCY:
        return cfg, replace(sd, cutoff=sd.cutoff + h), bath
    if estimand is Estimand.COUPLING_STRENGTH:
        return cfg, replace(sd, coupling=sd.coupling + h), bath
    return cfg, sd, BathState(bath.temperature + h)


def state_derivative(cfg, sd, bath, estimand, t, step=None):
    """Entrywise d rho / dx by Richardson-extrapolated central differences."""
    _validate_estimand(Estimand(estimand), sd, bath)

    def rho(offset):
        c, s, b = _shifted(cfg, sd, bath, estimand, offset)
        return reduced_qubit_state(c, s, b, t)

    return _estimand_slope(rho, sd, bath, estimand, step)


_PROB_FLOOR = 1e-14


class MeasurementUnderflowError(RuntimeError):
    """An outcome probability fell below the resolvable floor."""


def cfi_born(cfg, sd, bath, estimand, t, varphi, step=None):
    """CFI recomputed from the Born probabilities of the two projectors.

    Fully independent of the closed form: probabilities come from the
    reduced state, their derivatives from finite differences of it.
    """
    _validate_estimand(Estimand(estimand), sd, bath)

    def probs(offset):
        c, s, b = _shifted(cfg, sd, bath, estimand, offset)
        rho = reduced_qubit_state(c, s, b, t)
        overlap = float(np.real(np.exp(1j * varphi) * rho[0, 1]))
        return np.array([0.5 + overlap, 0.5 - overlap])

    p = probs(0.0)
    if np.any(p < _PROB_FLOOR):
        raise MeasurementUnderflowError(
            f"outcome probability below {_PROB_FLOOR} at varphi={varphi}")
    dp = _estimand_slope(probs, sd, bath, estimand, step)
    return float(np.sum(dp * dp / p))


def element_phase_factor(m, c_shift, phi, beta, omega_0):
    """Preparation phase factor X for a two-qubit matrix element.

    ``m`` is half the element's total spin flip (k + l - k' - l') / 2;
    the element's correlation factor is X(m) with X(0) = 1 and
    X(-m) = conj(X(m)).  Rescaled exactly like the correlation factors.
    """
    if m == 0:
        return complex(1.0, 0.0)
    e, tau, _, _ = _scaled_parts(c_shift, phi, beta, omega_0, TWO_QUBIT_TRACED)
    # the dominant preparation weight sits on the spin-down sector, which
    # carries e^{+2 i m phi}
    u = 2.0 * m * phi
    A = math.cos(u) + e
    B = tau * math.sin(u)
    return complex(A, B) / (1.0 + e)


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
    """4x4 joint state of both probe qubits from the continuum factors, in
    the |k, l> basis ordered as BASIS_LABELS."""
    if cfg.scheme != TWO_QUBIT_TRACED:
        raise ValueError("two_qubit_state requires the two-qubit scheme")
    fac = dephasing_factors(cfg, sd, bath, t)
    x_factors = None
    if cfg.initial_state == CORRELATED:
        x_factors = {m: element_phase_factor(
            m, fac.c_shift, fac.phi, bath.beta, cfg.omega_0) for m in range(-2, 3)}
    return assemble_two_qubit_matrix(cfg.omega_0, t, fac.gamma_un, fac.delta, x_factors)


def _trace_second_qubit(m):
    """2x2 trace over the second qubit of a 4x4 matrix ordered as BASIS_LABELS."""
    # basis order (k,l): rows 0,1 have k=+1; rows 2,3 have k=-1
    return np.array([[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
                     [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]], dtype=complex)
