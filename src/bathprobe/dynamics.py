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
from enum import Enum

import numpy as np

from . import correlations, spectral
from .correlations import SINGLE_QUBIT_PROBE, TWO_QUBIT_TRACED
from .spectral import DephasingFactors, NumericalError, _point, _times

__all__ = [
    "TWO_QUBIT_TRACED",
    "SINGLE_QUBIT_PROBE",
    "FACTORIZED",
    "CORRELATED",
    "Estimand",
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
    "EigenDecomposition",
    "eigendecompose",
]

FACTORIZED = "factorized"
CORRELATED = "correlated"

#: row/column ordering of the two-qubit matrix: sigma_z eigenvalues (k, l)
BASIS_LABELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


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


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 joint state in the |k, l> basis ordered as BASIS_LABELS."""

    matrix: np.ndarray


def _factors(p, t, two_qubit, phases):
    """(gamma_vac, gamma_th, Delta, phi) over t at the Points p; Delta only
    for the two-qubit scheme, phi only if ``phases``, a factor left out 0."""
    zero = np.zeros(t.shape)
    return (spectral.gamma_vac(p, t), spectral.gamma_th(p, p, t),
            spectral.delta_factor(p, t) if two_qubit else zero,
            spectral.phi_factor(p, t) if phases else zero)


def _unions(grids, pair_of, n_pairs):
    """(times, sizes, inverse): the sorted union of the grids of each pair,
    laid end to end in pair order, its size per pair, and the index in it
    of every point of the grids laid end to end; one sort by (pair, time)."""
    times = np.concatenate(grids)
    pair = np.repeat(pair_of, [g.size for g in grids])
    sort = np.lexsort((times, pair))
    times, pair = times[sort], pair[sort]
    new = np.ones(times.size, bool)
    new[1:] = (times[1:] != times[:-1]) | (pair[1:] != pair[:-1])
    inverse = np.empty_like(sort)
    inverse[sort] = np.cumsum(new) - 1
    return times[new], np.bincount(pair[new], minlength=n_pairs), inverse


def _runs(members, grids):
    """(k, start, stop) of each member's times, laid end to end."""
    stops = np.cumsum([grids[k].size for k in members]).tolist()
    return zip(members, [0] + stops[:-1], stops)


def _correlation_factors(cfg, phi, d_phi, scalars, estimand):
    """(gamma_corr, chi) of a correlated probe and their estimand slopes."""
    shift, d_shift, beta, d_beta = scalars
    corr = correlations.corr_factors_from_parts(
        shift, phi, beta, cfg.omega_0, cfg.scheme)
    if estimand is None:
        zero = np.zeros(np.shape(phi))
        return corr.gamma_corr, corr.chi, zero, zero
    return (corr.gamma_corr, corr.chi, *correlations.d_corr_from_parts(
        shift, phi, d_shift, d_phi, beta, d_beta, cfg.omega_0, cfg.scheme))


def _assemble(tasks, estimand=None):
    """[(members, fields)]: the factors of tasks (cfg, sd, bath, t), by config.

    Tasks that share (sd, bath) share the sorted union of their grids, and
    each spectral form is evaluated once over the unions laid end to end,
    with (G, w_c, T) per point (``spectral.Points``; tasks at another s, at
    G = 0 or in the cold limit are assembled apart).  The forms are
    elementwise, so a task gets the values of an assembly of its own.
    Then, once per config over the times of its members laid end to end,
    the one place that decides which factors a probe has (Delta for the
    two-qubit scheme only, the correlation factors for the correlated
    preparation only, zero otherwise) and how each moves with the
    estimand.  Without an estimand
    the fields are the state's (gamma_vac, gamma_th, gamma_corr, Delta, phi,
    chi); with one, the Fisher bundle's (Gamma, Delta, chi) and their
    slopes.  A lone task at a scalar time gets floats.
    """
    grids = [_times(t)[0] for *_, t in tasks]
    classes = {}
    for i, (_, sd, bath, _) in enumerate(tasks):
        key = (sd.ohmicity, sd.coupling == 0.0, spectral._cold(bath))
        classes.setdefault(key, []).append(i)
    if len(classes) != 1:
        return [([part[k] for k in members], fields) for part in classes.values()
                for members, fields in _assemble([tasks[i] for i in part], estimand)]
    by_cfg, pairs = {}, {}
    for i, (cfg, sd, bath, _) in enumerate(tasks):
        by_cfg.setdefault(cfg, []).append(i)
        pairs.setdefault((sd, bath), len(pairs))
    by_cfg = list(by_cfg.items())
    order = [i for _, members in by_cfg for i in members]
    t, sizes, inverse = _unions([grids[i] for i in order],
                                [pairs[tasks[i][1:3]] for i in order], len(pairs))
    p = spectral.Points.of(list(pairs), sizes)
    two_qubit = any(cfg.scheme == TWO_QUBIT_TRACED for cfg, _ in by_cfg)
    correlated = any(cfg.initial_state == CORRELATED for cfg, _ in by_cfg)
    zero = d_gamma = d_delta = d_phi = np.zeros(t.shape)
    d_shift = d_beta = 0.0  # the slopes of C and beta
    out, done = [], 0
    with np.errstate(all="ignore"):
        g_vac, g_th, delta, phi = _factors(p, t, two_qubit, correlated or estimand is None)
        if estimand is Estimand.COUPLING_STRENGTH:
            # every factor is linear in G: its slope is its value at G = 1
            unit = p._replace(coupling=1.0)
            dg_vac, dg_th, d_delta, d_phi = _factors(unit, t, two_qubit, correlated)
            d_gamma = dg_vac + dg_th
            if correlated:
                d_shift = spectral.c_shift(unit)
        elif estimand is Estimand.CUTOFF_FREQUENCY:
            d_gamma = spectral.d_gamma_d_omega_c(p, p, t)
            d_shift = p.coupling * math.gamma(p.ohmicity)  # C = G w_c Gamma(s)
            if two_qubit:
                d_delta = spectral.d_delta_d_omega_c(p, t)
            if correlated:
                d_phi = spectral.d_phi_d_omega_c(p, t)
        elif estimand is not None:
            # only gamma_th and beta = 1/T move with T
            d_gamma = spectral.d_gamma_th_d_temperature(p, p, t)
            d_beta = -(p.beta * p.beta)
        forms = (zero, g_vac, g_th, delta, phi, d_gamma, d_delta, d_phi)
        scalars = (spectral.c_shift(p), d_shift, p.beta, d_beta) if correlated else ()
        for cfg, members in by_cfg:
            (zero, g_vac, g_th, delta, phi, d_gamma, d_delta, d_phi), sc = forms, scalars
            pick = inverse[done:done + sum(grids[k].size for k in members)]
            done += pick.size
            # a config whose times are the whole union in order reads the
            # forms as they are (the scans of a sweep, a sorted lone grid)
            if not (pick.size == t.size and (pick[1:] > pick[:-1]).all()):
                (zero, g_vac, g_th, delta, phi, d_gamma, d_delta, d_phi), sc = (
                    [x[pick] if isinstance(x, np.ndarray) else x for x in y]
                    for y in (forms, scalars))
            if cfg.scheme != TWO_QUBIT_TRACED:
                delta = d_delta = zero
            g_corr = chi = d_chi = zero
            if cfg.initial_state == CORRELATED:
                g_corr, chi, dg_corr, d_chi = _correlation_factors(cfg, phi, d_phi,
                                                                   sc, estimand)
                d_gamma = d_gamma + dg_corr
            fields = ((g_vac, g_th, g_corr, delta, phi, chi) if estimand is None else
                      (g_vac + g_th + g_corr, delta, chi, d_gamma, d_delta, d_chi))
            _check_finite(fields, tasks, grids, members)
            if len(tasks) == 1 and np.ndim(tasks[0][3]) == 0:
                fields = tuple(float(v[0]) for v in fields)
            out.append((members, fields))
    return out


def _check_finite(fields, tasks, grids, members):
    """NumericalError naming its task's (s, w_c, T, t) at the first point of
    the members' times, laid end to end, where a field is not finite."""
    if not np.isfinite(fields).all():
        i = int(np.argmin(np.isfinite(fields).all(axis=0)))
        k, lo, _ = next(run for run in _runs(members, grids) if i < run[2])
        _, sd, bath, _ = tasks[k]
        raise NumericalError(f"non-finite dephasing factor at "
                             f"{_point(sd, bath, grids[k], i - lo)}")


def dephasing_factors(cfg, sd, bath, t):
    """All dephasing exponents/phases of the probe at time t, bundled.

    ``t`` is a time or a 1-D time grid; a grid costs one call per factor.
    A non-finite factor raises NumericalError naming its (s, w_c, T, t).
    """
    ((_, fields),) = _assemble([(cfg, sd, bath, t)])
    return DephasingFactors(*fields, c_shift=spectral.c_shift(sd))


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
    return QubitState.from_matrix(_trace_second_qubit(state.matrix))


def _trace_second_qubit(m):
    # basis order (k,l): rows 0,1 have k=+1; rows 2,3 have k=-1
    return np.array([[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
                     [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]], dtype=complex)


def reduced_state_from_factors(omega_0, t, gamma, delta, chi):
    """Single-qubit state given total exponent, induced phase, level shift."""
    coh = 0.5 * math.cos(delta) * math.exp(-gamma) * np.exp(-1j * (omega_0 * t + chi))
    return QubitState(rho00=0.5 + 0.0j, rho01=coh, rho10=np.conj(coh), rho11=0.5 + 0.0j)


def reduced_qubit_state(cfg, sd, bath, t):
    """Reduced probe qubit for either scheme and either preparation."""
    fac = dephasing_factors(cfg, sd, bath, t)
    return reduced_state_from_factors(cfg.omega_0, t, fac.gamma_total,
                                      fac.delta, fac.chi)


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
    """Eigenvalues and equatorial eigenvectors of a diagonal-1/2 state;
    degenerate where the populations coincide (F = 0)."""
    if abs(state.rho00 - 0.5) > 1e-12 or abs(state.rho11 - 0.5) > 1e-12:
        raise ValueError("eigendecompose expects a pure-dephasing state with diagonal 1/2")
    f = 2.0 * abs(state.rho01)
    xi = -np.angle(state.rho01) if f > 0.0 else 0.0
    return EigenDecomposition(populations=(0.5 * (1.0 - f), 0.5 * (1.0 + f)),
                              azimuths=(xi + math.pi, xi), degenerate=f == 0.0)
