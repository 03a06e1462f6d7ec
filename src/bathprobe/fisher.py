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
from typing import NamedTuple

import numpy as np

from . import dynamics
from .dynamics import Estimand, reduced_qubit_state
from .spectral import BathState, _ratio, _times, _unpack

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
    "FisherOptimum",
    "optimize_qfi_over_time",
    "optimize_variants",
]


@dataclass(frozen=True)
class FactorBundle:
    """Factors entering the Fisher formulas plus their estimand derivatives.

    Floats for a scalar time, arrays for a time grid.
    """

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


def factor_bundle(cfg, sd, bath, estimand, t):
    """Assemble (Gamma, Delta, chi) and their derivatives for one estimand.

    ``t`` is a time or a 1-D time grid; a grid costs one call per factor.
    A non-finite factor raises NumericalError naming its (s, w_c, T, t).
    """
    estimand = Estimand(estimand)
    _validate_estimand(estimand, sd, bath)
    ((_, fields),) = dynamics._assemble([(cfg, sd, bath, t)], estimand)
    return FactorBundle(*fields)


def _information_terms(b):
    """(n1, n2, d, w): the algebra shared by the QFI, CFI and optimal angle.

    n1 and n2 are the envelope and phase numerators, w = e^{-2 Gamma}, and
    d = (e^{2 Gamma} - cos^2 D) w = sin^2 D - cos^2 D expm1(-2 Gamma) is the
    envelope denominator scaled into [0, 1], so it neither cancels at small
    Gamma nor overflows at any decoherence depth.
    """
    sin_d = np.sin(b.delta)
    cos_d = np.cos(b.delta)
    n1 = sin_d * b.d_delta + cos_d * b.d_gamma
    n2 = cos_d * b.d_chi
    d = sin_d * sin_d - cos_d * cos_d * np.expm1(-2.0 * b.gamma)
    return n1, n2, d, np.exp(-2.0 * b.gamma)


def _positive_ratio(num, den):
    """num / den where den > 0, else 0."""
    den = np.asarray(den, dtype=float)
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)


def _value(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def qfi_from_bundle(b):
    """Closed-form QFI of the reduced probe from a factor bundle."""
    n1, n2, d, w = _information_terms(b)
    return _value(w * (_positive_ratio(n1 * n1, d) + n2 * n2))


def qfi_closed(cfg, sd, bath, estimand, t):
    """Closed-form QFI; 0 at t = 0 where the state carries no information."""
    t, scalar = _times(t)
    val = np.zeros(t.shape)
    live = t > 0.0
    if live.any():
        val[live] = qfi_from_bundle(factor_bundle(cfg, sd, bath, estimand, t[live]))
    return _unpack(val, scalar)


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
        return reduced_qubit_state(c, s, b, t).matrix

    return _estimand_slope(rho, sd, bath, estimand, step)


def cfi(cfg, sd, bath, estimand, t, varphi):
    """Classical Fisher information of the equatorial projective pair."""
    t, scalar = _times(t)
    val = np.zeros(t.shape)
    live = t > 0.0
    if live.any():
        b = factor_bundle(cfg, sd, bath, estimand, t[live])
        val[live] = cfi_from_bundle(b, cfg.omega_0, t[live],
                                    np.broadcast_to(varphi, t.shape)[live])
    return _unpack(val, scalar)


def cfi_from_bundle(b, omega_0, t, varphi):
    theta = b.chi + omega_0 * t - varphi
    n1, n2, d, w = _information_terms(b)
    num = (n1 * np.cos(theta) + n2 * np.sin(theta)) ** 2
    denom = d + w * (np.cos(b.delta) * np.sin(theta)) ** 2
    return _value(_positive_ratio(w * num, denom))


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
        overlap = float(np.real(np.exp(1j * varphi) * rho.rho01))
        return np.array([0.5 + overlap, 0.5 - overlap])

    p = probs(0.0)
    if np.any(p < _PROB_FLOOR):
        raise MeasurementUnderflowError(
            f"outcome probability below {_PROB_FLOOR} at varphi={varphi}")
    dp = _estimand_slope(probs, sd, bath, estimand, step)
    return float(np.sum(dp * dp / p))


def optimal_angle(cfg, sd, bath, estimand, t):
    """Measurement azimuth at which the CFI reaches the QFI."""
    if not (_times(t)[0] > 0.0).all():
        raise ValueError("optimal angle requires t > 0")
    b = factor_bundle(cfg, sd, bath, estimand, t)
    return optimal_angle_from_bundle(b, cfg.omega_0, t)


def optimal_angle_from_bundle(b, omega_0, t):
    n1, n2, d, _ = _information_terms(b)
    num = n2 * d
    # n1 = 0 leaves the shift at +-pi/2 by the sign of num, or 0
    shift = np.where(n1 != 0.0, np.arctan(_ratio(num, n1)),
                     0.5 * math.pi * np.sign(num))
    return _value(omega_0 * t + b.chi - shift)


@dataclass(frozen=True)
class FisherOptimum:
    """Maximum of the QFI over the interaction time."""

    t_star: float
    f_star: float
    boundary_hit: bool
    flat: bool = False


#: 1/phi, the golden-section shrink factor
_INV_GR = (math.sqrt(5.0) - 1.0) / 2.0

#: golden-section steps evaluated per array call: every point that the next
#: _TREE_DEPTH steps may need, over all their decision paths, goes into one
#: factor bundle
_TREE_DEPTH = 5

#: a bracket [a, b] is refined while b - a > _TIME_TOL * b
_TIME_TOL = 1e-6


def _needed(a, b, c, d, known):
    """The times that the next _TREE_DEPTH golden-section steps from (a, b,
    c, d), a < c < d < b, may evaluate: c and d only while ``known`` (time
    -> QFI) lacks them, deeper points even where an earlier round had them.

    A step keeps [a, d] where f(c) > f(d), else [c, b]; it follows that
    outcome where both values are known, else both.  A bracket that meets
    the tolerance adds its midpoint; paths that reach the same bracket are
    followed once.
    """
    points, level = [t for t in (c, d) if t not in known], [(a, b, c, d)]
    for _ in range(_TREE_DEPTH):
        nxt = []
        for a, b, c, d in level:
            if not (b - a) > _TIME_TOL * b:
                points.append(0.5 * (a + b))
                continue
            both = c not in known or d not in known
            if both or known[c] > known[d]:
                p = d - _INV_GR * (d - a)
                points.append(p)
                nxt.append((a, d, p, c))
            if both or not known[c] > known[d]:
                p = c + _INV_GR * (b - c)
                points.append(p)
                nxt.append((c, b, d, p))
        level = dict.fromkeys(nxt)
    points += [0.5 * (a + b) for a, b, _, _ in level if not (b - a) > _TIME_TOL * b]
    return list(dict.fromkeys(points))


def _walk(a, b, c, d, known):
    """At most _TREE_DEPTH steps from (a, b, c, d), placed as _needed places
    them and compared by ``known``, until the bracket meets the tolerance."""
    for _ in range(_TREE_DEPTH):
        if not (b - a) > _TIME_TOL * b:
            break
        if known[c] > known[d]:
            a, b, c, d = a, d, d - _INV_GR * (d - a), c
        else:
            a, b, c, d = c, b, d, c + _INV_GR * (b - c)
    return a, b, c, d


def _optimize(cutoffs, t_max, grid_size, qfi):
    """Time optimizations in lockstep, one per cutoff of ``cutoffs``, which
    sets the start of its scan; ``qfi(tasks, times)`` returns the QFIs of
    tasks (by index) over their time arrays.  One call scans every task,
    then one per round sends every open task the times _needed lists and
    moves its bracket by _walk, so its iterates are the point-by-point loop's."""
    if t_max <= 0.0:
        raise ValueError("t_max must be > 0")
    scans = {wc: np.geomspace(min(1e-3 / wc, 0.5 * t_max), t_max, max(int(grid_size), 64))
             for wc in set(cutoffs)}
    grids = [scans[wc] for wc in cutoffs]
    optima, brackets, known = [], {}, {}
    for i, (ts, vals) in enumerate(zip(grids, qfi(range(len(grids)), grids))):
        k = int(np.argmax(vals))
        if not np.any(vals > 0.0):
            optima.append(FisherOptimum(float(ts[0]), 0.0, False, flat=True))
        elif k == ts.size - 1:
            optima.append(FisherOptimum(float(ts[-1]), float(vals[-1]), True))
        else:  # the scan's best (f, t) until the refinement returns
            optima.append((vals[k], ts[k]))
            a, b = float(ts[max(k - 1, 0)]), float(ts[k + 1])
            brackets[i] = a, b, b - _INV_GR * (b - a), a + _INV_GR * (b - a)
            known[i] = {}
    while brackets:
        live = list(brackets)
        needed = [_needed(*brackets[i], known[i]) for i in live]
        for i, times, vals in zip(live, needed, qfi(live, [np.array(t) for t in needed])):
            seen = known[i]
            seen.update(zip(times, vals.tolist()))
            a, b, c, d = _walk(*brackets[i], seen)
            if (b - a) > _TIME_TOL * b:
                brackets[i] = a, b, c, d
                continue
            t = 0.5 * (a + b)
            best = max((seen[t], t), (seen[c], c), (seen[d], d), optima[i])
            optima[i] = FisherOptimum(float(best[1]), float(best[0]), False)
            del brackets[i], known[i]
    return optima


def optimize_qfi_over_time(cfg, sd, bath, estimand, t_max, grid_size=128):
    """Maximize the QFI over t in [min(1e-3 / w_c, t_max / 2), t_max].

    Coarse log-spaced scan of max(grid_size, 64) points followed by
    golden-section refinement inside the best bracketing interval; both
    evaluate whole time arrays per factor bundle.  ``boundary_hit`` marks a
    maximizer at t_max (typical in regimes where the information keeps
    accumulating); ``flat`` marks an information-free curve (such as G = 0).
    """
    return _optimize([sd.cutoff], t_max, grid_size, lambda _, times: [
        qfi_from_bundle(factor_bundle(cfg, sd, bath, estimand, times[0]))])[0]


def optimize_variants(cfgs, pairs, estimand, t_max, grid_size=128):
    """optimize_qfi_over_time for each probe of ``cfgs`` at each (sd, bath)
    of ``pairs``, all in lockstep: the scans are one factor assembly, and so
    is each later round over every bracket still open.  Same optima, as one
    list over ``cfgs`` per pair."""
    estimand = Estimand(estimand)
    for sd, bath in pairs:
        _validate_estimand(estimand, sd, bath)
    tasks = [(cfg, sd, bath) for sd, bath in pairs for cfg in cfgs]

    def qfi(live, times):
        vals = [None] * len(times)
        entries = dynamics._assemble([(*tasks[i], t) for i, t in zip(live, times)],
                                     estimand)
        while entries:  # each config's fields go once its QFI is taken
            members, fields = entries.pop()
            split = np.cumsum([times[k].size for k in members])[:-1]
            for k, v in zip(members, np.split(qfi_from_bundle(FactorBundle(*fields)), split)):
                vals[k] = v
        return vals

    optima = _optimize([sd.cutoff for _, sd, _ in tasks], t_max, grid_size, qfi)
    return [optima[k:k + len(cfgs)] for k in range(0, len(optima), len(cfgs))]
