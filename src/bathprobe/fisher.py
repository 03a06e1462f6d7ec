"""Quantum and classical Fisher information of the dephasing probe.

The closed form lives entirely on the factor bundle (Gamma, Delta, chi) and
its estimand derivatives.  The spectral definition (eigen-decomposition plus
numerically differentiated state) is kept as an independent route and the
two are pinned against each other in the tests.  Classical Fisher
information covers equatorial projective measurements, with the optimal
azimuth in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import correlations, dynamics, spectral
from .dynamics import CORRELATED, TWO_QUBIT_TRACED, reduced_qubit_state
from .spectral import BathState

__all__ = [
    "Estimand",
    "FactorBundle",
    "factor_bundle",
    "qfi_closed",
    "qfi_from_bundle",
    "SpectralQFI",
    "qfi_spectral",
    "state_derivative",
    "cfi",
    "cfi_from_bundle",
    "cfi_born",
    "MeasurementUnderflowError",
    "optimal_angle",
    "optimal_angle_from_bundle",
    "FisherCurve",
    "FisherOptimum",
    "qfi_curve",
    "optimize_qfi_over_time",
]


class Estimand(str, Enum):
    """Environment parameter being estimated."""

    CUTOFF_FREQUENCY = "cutoff_frequency"
    COUPLING_STRENGTH = "coupling_strength"
    TEMPERATURE = "temperature"

    def current_value(self, sd, bath):
        if self is Estimand.CUTOFF_FREQUENCY:
            return sd.cutoff
        if self is Estimand.COUPLING_STRENGTH:
            return sd.coupling
        return bath.temperature


#: (member, spectral derivative key) of each estimand; a str-valued member
#: hashes as its value, so both look up the same entry
_RESOLVED = {e: (e, key) for e, key in (
    (Estimand.CUTOFF_FREQUENCY, "omega_c"),
    (Estimand.COUPLING_STRENGTH, "G"),
    (Estimand.TEMPERATURE, "T"))}


def _resolve(estimand):
    """(Estimand, derivative key) of a member or of its value."""
    try:
        return _RESOLVED[estimand]
    except KeyError:
        raise ValueError(f"{estimand!r} is not a valid Estimand") from None


@dataclass(frozen=True)
class FactorBundle:
    """Factors entering the Fisher formulas plus their estimand derivatives."""

    gamma: float
    delta: float
    chi: float
    d_gamma: float
    d_delta: float
    d_chi: float


def _validate_estimand(estimand, sd, bath):
    # every estimand needs a strictly positive true value; at the G = 0
    # boundary the coupling-estimation problem is non-regular (the small
    # eigenvalue vanishes linearly, so the classical information diverges)
    if estimand is Estimand.TEMPERATURE and bath.zero_temperature:
        raise ValueError("temperature estimation requires T > 0")
    if estimand is Estimand.COUPLING_STRENGTH and sd.coupling == 0.0:
        raise ValueError("coupling estimation requires G > 0")


def factor_bundle(cfg, sd, bath, estimand, t, rel_tol=spectral.GAMMA_TH_RTOL):
    """Assemble (Gamma, Delta, chi) and their derivatives for one estimand."""
    estimand, x = _resolve(estimand)
    _validate_estimand(estimand, sd, bath)
    two_qubit = cfg.scheme == TWO_QUBIT_TRACED

    gamma = spectral.gamma_vac(sd, t) + spectral.gamma_th(sd, bath, t,
                                                          rel_tol=rel_tol)
    d_gamma = spectral.d_gamma_dx(sd, bath, t, x, rel_tol=rel_tol)
    if two_qubit:
        delta = spectral.delta_factor(sd, t)
        d_delta = spectral.d_delta_dx(sd, t, x)
    else:
        delta = 0.0
        d_delta = 0.0
    chi = 0.0
    d_chi = 0.0
    if cfg.initial_state == CORRELATED:
        scheme = cfg.correlation_scheme
        shift = spectral.c_shift(sd)
        phi = spectral.phi_factor(sd, t)
        corr = correlations.corr_factors_from_parts(
            shift, phi, bath.beta, cfg.omega_0, scheme)
        if x == "T":
            dg_corr, d_chi = correlations.d_corr_d_temperature(
                shift, phi, bath.temperature, cfg.omega_0, scheme)
        else:
            dg_corr, d_chi = correlations.d_corr_from_parts(
                shift, phi, spectral.d_c_shift_dx(sd, x),
                spectral.d_phi_dx(sd, t, x), bath.beta, cfg.omega_0, scheme)
        gamma += corr.gamma_corr
        d_gamma += dg_corr
        chi = corr.chi
    return FactorBundle(gamma=gamma, delta=delta, chi=chi,
                        d_gamma=d_gamma, d_delta=d_delta, d_chi=d_chi)


def _information_terms(b):
    """(n1, n2, d, w): the algebra shared by the QFI, CFI and optimal angle.

    n1 and n2 are the envelope and phase numerators, w = e^{-2 Gamma}, and
    d = (e^{2 Gamma} - cos^2 D) w = sin^2 D - cos^2 D expm1(-2 Gamma) is the
    envelope denominator scaled into [0, 1], so it neither cancels at small
    Gamma nor overflows at any decoherence depth.
    """
    sin_d = math.sin(b.delta)
    cos_d = math.cos(b.delta)
    n1 = sin_d * b.d_delta + cos_d * b.d_gamma
    n2 = cos_d * b.d_chi
    d = sin_d * sin_d - cos_d * cos_d * math.expm1(-2.0 * b.gamma)
    return n1, n2, d, math.exp(-2.0 * b.gamma)


def qfi_from_bundle(b):
    """Closed-form QFI of the reduced probe from a factor bundle."""
    n1, n2, d, w = _information_terms(b)
    first = n1 * n1 / d if d > 0.0 else 0.0
    return w * (first + n2 * n2)


def qfi_closed(cfg, sd, bath, estimand, t, rel_tol=spectral.GAMMA_TH_RTOL):
    """Closed-form QFI; 0 at t = 0 where the state carries no information."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    if t == 0.0:
        return 0.0
    return qfi_from_bundle(factor_bundle(cfg, sd, bath, estimand, t, rel_tol))


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
    eig = dynamics.eigendecompose(state)
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


def _estimand_step(estimand, sd, bath):
    ref = Estimand(estimand).current_value(sd, bath)
    if Estimand(estimand) is Estimand.TEMPERATURE:
        return spectral.temperature_step(bath.temperature)
    return 1e-4 * max(abs(ref), 1.0)


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
    h = step if step is not None else _estimand_step(estimand, sd, bath)
    value = Estimand(estimand).current_value(sd, bath)

    def rho(offset):
        c, s, b = _shifted(cfg, sd, bath, estimand, offset)
        return reduced_qubit_state(c, s, b, t).matrix

    if value - h <= 0.0:
        h = 0.5 * value  # keep both sample points in the physical domain
    d1 = (rho(h) - rho(-h)) / (2.0 * h)
    d2 = (rho(0.5 * h) - rho(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def cfi(cfg, sd, bath, estimand, t, varphi):
    """Classical Fisher information of the equatorial projective pair."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    if t == 0.0:
        return 0.0
    b = factor_bundle(cfg, sd, bath, estimand, t)
    return cfi_from_bundle(b, cfg.omega_0, t, varphi)


def cfi_from_bundle(b, omega_0, t, varphi):
    theta = b.chi + omega_0 * t - varphi
    n1, n2, d, w = _information_terms(b)
    num = (n1 * math.cos(theta) + n2 * math.sin(theta)) ** 2
    denom = d + w * (math.cos(b.delta) * math.sin(theta)) ** 2
    if denom <= 0.0:
        return 0.0
    return w * num / denom


_PROB_FLOOR = 1e-14


class MeasurementUnderflowError(RuntimeError):
    """An outcome probability fell below the resolvable floor."""


def cfi_born(cfg, sd, bath, estimand, t, varphi, step=None):
    """CFI recomputed from the Born probabilities of the two projectors.

    Fully independent of the closed form: probabilities come from the
    reduced state, their derivatives from finite differences of it.
    """
    _validate_estimand(Estimand(estimand), sd, bath)
    h = step if step is not None else _estimand_step(estimand, sd, bath)
    value = Estimand(estimand).current_value(sd, bath)

    def probs(offset):
        c, s, b = _shifted(cfg, sd, bath, estimand, offset)
        rho = reduced_qubit_state(c, s, b, t)
        overlap = float(np.real(np.exp(1j * varphi) * rho.rho01))
        return np.array([0.5 + overlap, 0.5 - overlap])

    p = probs(0.0)
    if np.any(p < _PROB_FLOOR):
        raise MeasurementUnderflowError(
            f"outcome probability below {_PROB_FLOOR} at varphi={varphi}")
    if value - h <= 0.0:
        h = 0.5 * value
    d1 = (probs(h) - probs(-h)) / (2.0 * h)
    d2 = (probs(0.5 * h) - probs(-0.5 * h)) / h
    dp = (4.0 * d2 - d1) / 3.0
    return float(np.sum(dp * dp / p))


def optimal_angle(cfg, sd, bath, estimand, t):
    """Measurement azimuth at which the CFI reaches the QFI."""
    if t <= 0.0:
        raise ValueError("optimal angle requires t > 0")
    b = factor_bundle(cfg, sd, bath, estimand, t)
    return optimal_angle_from_bundle(b, cfg.omega_0, t)


def optimal_angle_from_bundle(b, omega_0, t):
    n1, n2, d, _ = _information_terms(b)
    num = n2 * d
    if n1 != 0.0:
        shift = math.atan(num / n1)
    elif num != 0.0:
        shift = 0.5 * math.pi * math.copysign(1.0, num)
    else:
        shift = 0.0
    return omega_0 * t + b.chi - shift


@dataclass(frozen=True)
class FisherCurve:
    """Fisher information sampled over a time grid."""

    estimand: Estimand
    times: np.ndarray
    qfi: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0.0):
            raise ValueError("time grid must be strictly increasing")


@dataclass(frozen=True)
class FisherOptimum:
    """Maximum of the QFI over the interaction time."""

    t_star: float
    f_star: float
    boundary_hit: bool
    flat: bool = False


def qfi_curve(cfg, sd, bath, estimand, times):
    times = np.asarray(times, dtype=float)
    vals = np.array([qfi_closed(cfg, sd, bath, estimand, t) for t in times])
    return FisherCurve(estimand=Estimand(estimand), times=times, qfi=vals)


def optimize_qfi_over_time(cfg, sd, bath, estimand, t_max, grid_size=128,
                           rel_time_tol=1e-6, rel_tol=spectral.GAMMA_TH_RTOL):
    """Maximize the QFI over t in [1e-3 / w_c, t_max].

    Coarse log-spaced scan followed by golden-section refinement inside the
    best bracketing interval.  ``boundary_hit`` marks a maximizer at t_max
    (typical in regimes where the information keeps accumulating);
    ``flat`` marks an information-free curve (such as G = 0).
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be > 0")
    grid_size = max(int(grid_size), 64)
    t_lo = min(1e-3 / sd.cutoff, 0.5 * t_max)
    ts = np.geomspace(t_lo, t_max, grid_size)

    def f(t):
        return qfi_closed(cfg, sd, bath, estimand, t, rel_tol=rel_tol)

    vals = np.array([f(t) for t in ts])
    i = int(np.argmax(vals))
    if not np.any(vals > 0.0):
        return FisherOptimum(t_star=float(ts[0]), f_star=0.0,
                             boundary_hit=False, flat=True)
    if i == grid_size - 1:
        return FisherOptimum(t_star=float(ts[-1]), f_star=float(vals[-1]),
                             boundary_hit=True)
    lo = ts[i - 1] if i > 0 else ts[0]
    hi = ts[i + 1]
    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_gr * (b - a)
    d = a + inv_gr * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_time_tol * b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_gr * (b - a)
            fd = f(d)
    t_star = 0.5 * (a + b)
    f_star = f(t_star)
    best = max((f_star, t_star), (fc, c), (fd, d), (vals[i], ts[i]))
    return FisherOptimum(t_star=float(best[1]), f_star=float(best[0]),
                         boundary_hit=False)
