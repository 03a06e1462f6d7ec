"""Reduced probe states under pure dephasing.

Populations are untouched (the probe starts aligned with x), so everything
lives in the off-diagonal element: a free phase, the dephasing envelope, the
bath-induced two-qubit phase and, for correlated preparation, the extra
damping and level shift.  One assembly evaluates these factors for many
probes and times at once, and the reduced single-qubit state has the closed
form used throughout the Fisher-information layer.  The two-qubit element
formula, whose trace over the second qubit checks that closed form, lives
in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import correlations, spectral
from .correlations import SINGLE_QUBIT_PROBE, TWO_QUBIT_TRACED
from .spectral import DephasingFactors, NumericalError, _point, _times, _unpack

__all__ = [
    "TWO_QUBIT_TRACED",
    "SINGLE_QUBIT_PROBE",
    "FACTORIZED",
    "CORRELATED",
    "Estimand",
    "ProbeConfig",
    "QubitState",
    "dephasing_factors",
    "reduced_qubit_state",
    "reduced_state_from_factors",
]

FACTORIZED = "factorized"
CORRELATED = "correlated"


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


def _validate_estimand(estimand, sd, bath):
    # every estimand needs a strictly positive true value; at the G = 0
    # boundary the coupling-estimation problem is non-regular (the small
    # eigenvalue vanishes linearly, so the classical information diverges)
    if estimand is Estimand.TEMPERATURE and bath.zero_temperature:
        raise ValueError("temperature estimation requires T > 0")
    if estimand is Estimand.COUPLING_STRENGTH and sd.coupling == 0.0:
        raise ValueError("coupling estimation requires G > 0")


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


def _factors(p, grid, two_qubit, phases):
    """(gamma_vac, gamma_th, Delta, phi) over the assembly's grid at the Points
    p; Delta only for the two-qubit scheme, phi only if ``phases``, else 0."""
    zero = np.zeros(grid.t.shape)
    return (spectral.gamma_vac(p, grid), spectral.gamma_th(p, p, grid),
            spectral.delta_factor(p, grid) if two_qubit else zero,
            spectral.phi_factor(p, grid) if phases else zero)


def _unions(t, pair, n_pairs):
    """(times, sizes, inverse): the sorted union of the times of each pair,
    laid end to end in pair order, its size per pair, and the index in it
    of every point (t, pair); one sort by (pair, time)."""
    sort = np.lexsort((t, pair))
    t, pair = t[sort], pair[sort]
    new = np.ones(t.size, bool)
    new[1:] = (t[1:] != t[:-1]) | (pair[1:] != pair[:-1])
    inverse = np.empty_like(sort)
    inverse[sort] = np.cumsum(new) - 1
    return t[new], np.bincount(pair[new], minlength=n_pairs), inverse


def _assemble(tasks, owner, t, estimand=None):
    """(6, n) fields of the tasks (cfg, sd, bath) at the points (owner, t):
    column i holds those of the task tasks[owner[i]] at the time t[i].

    Tasks that share (sd, bath) share the sorted union of their times, and
    each spectral form is evaluated once over the unions laid end to end,
    with (G, w_c, T) per point (``spectral.Points``; tasks at another s, at
    G = 0 or in the cold limit are assembled apart).  The forms are
    elementwise, so a task gets the values of an assembly of its own, and
    read one ``spectral._Grid`` in place of the times, so what several of
    them read is computed once per assembly.  Then, once per config over
    the points of its tasks, the one place that decides which factors a
    probe has (Delta for the two-qubit scheme only, the correlation factors
    for the correlated preparation only, zero otherwise) and how each moves
    with the estimand.  Without an estimand the fields are the state's
    (gamma_vac, gamma_th, gamma_corr, Delta, phi, chi); with one, the Fisher
    bundle's (Gamma, Delta, chi) and their slopes.  A non-finite field raises
    NumericalError naming the (s, w_c, T, t) of its first point.
    """
    out = np.empty((6, t.size))
    classes = {}
    for i in np.flatnonzero(np.bincount(owner)).tolist():  # the tasks present
        _, sd, bath = tasks[i]
        key = (sd.ohmicity, sd.coupling == 0.0, spectral._cold(bath))
        classes.setdefault(key, []).append(i)
    if len(classes) != 1:
        for group in classes.values():
            part = np.isin(owner, group)
            out[:, part] = _assemble(tasks, owner[part], t[part], estimand)
        return out
    pairs, cfgs = {}, {}
    pair_of, cfg_of = np.zeros((2, len(tasks)), int)
    for i in next(iter(classes.values())):
        cfg, sd, bath = tasks[i]
        pair_of[i] = pairs.setdefault((sd, bath), len(pairs))
        cfg_of[i] = cfgs.setdefault(cfg, len(cfgs))
    union, sizes, inverse = _unions(t, pair_of[owner], len(pairs))
    p = spectral.Points.of(list(pairs), sizes)
    grid = spectral._Grid(union, p.ohmicity, p.cutoff, p.beta)
    two_qubit = any(cfg.scheme == TWO_QUBIT_TRACED for cfg in cfgs)
    correlated = any(cfg.initial_state == CORRELATED for cfg in cfgs)
    zero = d_gamma = d_delta = d_phi = np.zeros(union.shape)
    d_shift = d_beta = 0.0  # the slopes of C and beta
    with np.errstate(all="ignore"):
        g_vac, g_th, delta, phi = _factors(p, grid, two_qubit, correlated or estimand is None)
        if estimand is Estimand.COUPLING_STRENGTH:
            # every factor is linear in G: its slope is its value at G = 1
            unit = p._replace(coupling=1.0)
            dg_vac, dg_th, d_delta, d_phi = _factors(unit, grid, two_qubit, correlated)
            d_gamma = dg_vac + dg_th
            if correlated:
                d_shift = spectral.c_shift(unit)
        elif estimand is Estimand.CUTOFF_FREQUENCY:
            d_gamma = spectral.d_gamma_d_omega_c(p, p, grid)
            d_shift = p.coupling * math.gamma(p.ohmicity)  # C = G w_c Gamma(s)
            if two_qubit:
                d_delta = spectral.d_delta_d_omega_c(p, grid)
            if correlated:
                d_phi = spectral.d_phi_d_omega_c(p, grid)
        elif estimand is not None:
            # only gamma_th and beta = 1/T move with T
            d_gamma = spectral.d_gamma_th_d_temperature(p, p, grid)
            d_beta = -(p.beta * p.beta)
        forms = (zero, g_vac, g_th, delta, phi, d_gamma, d_delta, d_phi)
        scalars = (spectral.c_shift(p), d_shift, p.beta, d_beta) if correlated else ()
        point_cfg = cfg_of[owner]
        for k, cfg in enumerate(cfgs):
            (zero, g_vac, g_th, delta, phi, d_gamma, d_delta, d_phi), sc = forms, scalars
            points = point_cfg == k
            pick = inverse[points]
            # a config whose times are the whole union in order reads the
            # forms as they are (the scans of a sweep, a sorted lone grid)
            if not (pick.size == union.size and (pick[1:] > pick[:-1]).all()):
                (zero, g_vac, g_th, delta, phi, d_gamma, d_delta, d_phi), sc = (
                    [x[pick] if isinstance(x, np.ndarray) else x for x in y]
                    for y in (forms, scalars))
            if cfg.scheme != TWO_QUBIT_TRACED:
                delta = d_delta = zero
            g_corr = chi = d_chi = zero
            if cfg.initial_state == CORRELATED:
                shift, d_shift, beta, d_beta = sc
                corr = correlations.corr_factors_from_parts(
                    shift, phi, beta, cfg.omega_0, cfg.scheme, d_shift, d_phi, d_beta)
                g_corr, chi, d_chi = corr.gamma_corr, corr.chi, corr.d_chi
                d_gamma = d_gamma + corr.d_gamma_corr
            fields = ((g_vac, g_th, g_corr, delta, phi, chi) if estimand is None else
                      (g_vac + g_th + g_corr, delta, chi, d_gamma, d_delta, d_chi))
            for row, v in zip(out, fields):
                row[points] = v
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        _, sd, bath = tasks[owner[i]]
        raise NumericalError(f"non-finite dephasing factor at {_point(sd, bath, t, i)}")
    return out


def _lone(cfg, sd, bath, t, estimand=None):
    """The six fields of ``_assemble`` for one task at the time or 1-D time
    grid t: floats for a scalar time, arrays for a grid."""
    t, scalar = _times(t)
    fields = _assemble([(cfg, sd, bath)], np.zeros(t.size, int), t, estimand)
    return [_unpack(v, scalar) for v in fields]


def dephasing_factors(cfg, sd, bath, t):
    """All dephasing exponents/phases of the probe at time t, bundled.

    ``t`` is a time or a 1-D time grid; a grid costs one call per factor.
    A non-finite factor raises NumericalError naming its (s, w_c, T, t).
    """
    return DephasingFactors(*_lone(cfg, sd, bath, t), c_shift=spectral.c_shift(sd))


def reduced_state_from_factors(omega_0, t, gamma, delta, chi):
    """Single-qubit state given total exponent, induced phase, level shift."""
    coh = 0.5 * math.cos(delta) * math.exp(-gamma) * np.exp(-1j * (omega_0 * t + chi))
    return QubitState(rho00=0.5 + 0.0j, rho01=coh, rho10=np.conj(coh), rho11=0.5 + 0.0j)


def reduced_qubit_state(cfg, sd, bath, t):
    """Reduced probe qubit for either scheme and either preparation."""
    fac = dephasing_factors(cfg, sd, bath, t)
    return reduced_state_from_factors(cfg.omega_0, t, fac.gamma_total,
                                      fac.delta, fac.chi)
