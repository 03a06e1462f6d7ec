"""Quantum and classical Fisher information of the dephasing probe.

The closed form lives entirely on the factor bundle (Gamma, Delta, chi) and
its estimand derivatives.  Its independent routes, the spectral definition
(eigen-decomposition plus numerically differentiated state) and the
Born-rule CFI, live in ``verify``, and the tests pin the two against each
other.  Classical Fisher information covers equatorial projective
measurements, with the optimal azimuth in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import Estimand, _validate_estimand
from .spectral import NumericalError, _ratio, _times, _unpack
# no function here calls these; bench/checks.py imports them from this module
from .verify import qfi_spectral, state_derivative  # noqa: F401

__all__ = [
    "Estimand",
    "FactorBundle",
    "factor_bundle",
    "qfi_closed",
    "qfi_from_bundle",
    "cfi",
    "cfi_from_bundle",
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


def factor_bundle(cfg, sd, bath, estimand, t):
    """Assemble (Gamma, Delta, chi) and their derivatives for one estimand.

    ``t`` is a time or a 1-D time grid; a grid costs one call per factor.
    A non-finite factor raises NumericalError naming its (s, w_c, T, t).
    """
    estimand = Estimand(estimand)
    _validate_estimand(estimand, sd, bath)
    return FactorBundle(*dynamics._lone(cfg, sd, bath, t, estimand))


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
    """Maximum of the QFI over time; ``boundary_hit``: at t_max, which no interior one exceeds."""

    t_star: float
    f_star: float
    boundary_hit: bool
    flat: bool = False


#: relative slack of each comparison with the bound, which the QFI of a
#: single-qubit probe meets with equality
_SLACK = 1e-9

#: a bracket (a, m, b) is refined while b - a > _TIME_TOL * b
_TIME_TOL = 1e-6

_MAX_FILL = 2**16  # the most points that the fill of one task may take

#: a round evaluates a bracket (a, m, b) at a, m, b, at these fractions of
#: the way from a to m and from m to b, so that it shrinks at least 16-fold,
#: and at these multiples of the vertex of the parabola through its samples
#: (m itself where m is a or b), so that it closes once its maximum is within
#: _TIME_TOL / 4 of the vertex, as where the QFI rises into t_max = m = b
_STEPS = np.arange(1, 16) / 16
_PROBES = 1.0 + 0.25 * _TIME_TOL * np.array([-1.0, 0.0, 1.0])


def _samples(b):
    """(QFI, bound, Delta) of a bundle over its times, as the rows of one array:
    by Cauchy-Schwarz over the phase Delta, the QFI is at most the bound
    w (Delta'^2 + chi'^2) + Gamma'^2 w / (1 - w), w = e^{-2 Gamma}, which does
    not oscillate with Delta and is the QFI itself where Delta = 0."""
    w = np.exp(-2.0 * b.gamma)
    bound = (w * (b.d_delta * b.d_delta + b.d_chi * b.d_chi)
             + _positive_ratio(b.d_gamma * b.d_gamma * w, -np.expm1(-2.0 * b.gamma)))
    return np.array([qfi_from_bundle(b), bound, b.delta])


def _optimize(cutoffs, t_max, grid_size, evaluate):
    """Time optimizations in lockstep, one per cutoff of ``cutoffs`` (which
    sets the start of its scan); ``evaluate(owner, t)`` returns the
    ``_samples`` at the times ``t`` of the tasks ``owner``.  One call scans
    every task, one fills each scan interval across which Delta turns by
    more than pi/4 and the bound reaches the task's best sample, and each
    later one refines every open bracket: one per local maximum whose
    bound, at it or at a neighbour, reaches the best sample, until its
    bound falls below the best or it meets _TIME_TOL.  A task's optimum is
    its best sample.
    """
    if not 0.0 < t_max < math.inf:  # NaN fails both comparisons
        raise ValueError(f"t_max must be finite and > 0, got {float(t_max)}")
    scans = {wc: np.geomspace(min(1e-3 / wc, 0.5 * t_max), t_max, max(int(grid_size), 64))
             for wc in set(cutoffs)}
    grids = np.array([scans[wc] for wc in cutoffs])
    tasks, n = np.arange(len(grids)), grids.shape[1]
    f, u, phase = evaluate(np.repeat(tasks, n), grids.ravel()).reshape(3, len(grids), n)
    best = np.stack((grids[tasks, f.argmax(axis=1)], f.max(axis=1)), axis=1)
    turns = np.abs(np.diff(phase)) * (4.0 / math.pi)
    reach = np.maximum(u[:, :-1], u[:, 1:]) >= (1.0 - _SLACK) * best[:, 1:]
    count = np.where(reach & (turns > 1.0) & (best[:, 1:] > 0.0), np.floor(turns) + 1.0, 0.0)
    if count.sum(axis=1).max() > _MAX_FILL:
        raise NumericalError(f"the QFI oscillates too fast for {_MAX_FILL} points to "
                             f"resolve its maximum up to t={t_max!r}")
    count = count.astype(int).ravel()
    i = np.repeat(np.arange(count.size), count)  # the scan interval of each fill point
    fill = grids[:, :-1].ravel()[i] + np.diff(grids).ravel()[i] * (
        (np.arange(i.size) - np.repeat(np.cumsum(count) - count, count) + 1) / (count[i] + 1))
    new = evaluate(i // (n - 1), fill) if i.size else np.empty((3, 0))
    owner = np.concatenate((np.repeat(tasks, n), i // (n - 1)))
    t = np.concatenate((grids.ravel(), fill))
    order = np.lexsort((t, owner))
    owner, t = owner[order], t[order]
    f, u = np.concatenate((np.stack((f.ravel(), u.ravel())), new[:2]), axis=1)[:, order]
    step, k = np.diff(owner) != 0, np.arange(t.size)  # where one task's samples end
    first, last = np.insert(step, 0, True), np.append(step, True)
    lo, hi = np.where(first, k, k - 1), np.where(last, k, k + 1)  # the neighbours
    top = np.maximum.reduceat(f, np.flatnonzero(first))[owner]  # each task's best
    peak = ((f > 0.0) & (f >= f[lo]) & (f >= f[hi])
            & (np.maximum(np.maximum(u[lo], u), u[hi]) >= (1.0 - _SLACK) * top))
    owner, ends = owner[peak], np.stack((t[lo], t, t[hi]), axis=1)[peak]
    vals = np.stack((f[lo], f, f[hi]), axis=1)[peak]  # the QFI at the ends
    while owner.size:
        (a, m, b), (fa, fm, fb) = ends.T, vals.T
        p, q = (m - a) * (fm - fb), (m - b) * (fm - fa)
        v = m - 0.5 * _ratio((m - a) * p - (m - b) * q, p - q)
        t = np.sort(np.concatenate((
            ends, np.clip(v[:, None] * _PROBES, a[:, None], b[:, None]),
            (ends[:, :2, None] + np.diff(ends)[..., None] * _STEPS).reshape(len(owner), -1)),
            axis=1))
        f, u, _ = evaluate(np.repeat(owner, t.shape[1]), t.ravel()).reshape(3, *t.shape)
        rows, k = np.arange(len(owner)), f[:, 1:-1].argmax(axis=1) + 1
        right = (t <= t[rows, k, None]).sum(axis=1)  # past a repeat of t[k], as at m = b
        j = rows[:, None], np.stack((k - 1, k, np.minimum(right, t.shape[1] - 1)), axis=1)
        ends, vals = t[j], f[j]
        win = np.lexsort((vals[:, 1], owner))  # each task's best bracket, last
        win = win[np.append(np.diff(owner[win]) != 0, True)]
        win = win[vals[win, 1] > best[owner[win], 1]]
        best[owner[win], 0], best[owner[win], 1] = ends[win, 1], vals[win, 1]
        keep = ((ends[:, 2] - ends[:, 0] > _TIME_TOL * ends[:, 2])
                & (u[j].max(axis=1) >= (1.0 - _SLACK) * best[owner, 1]))
        owner, ends, vals = owner[keep], ends[keep], vals[keep]
    return [FisherOptimum(t, f, t == t_max) if f > 0.0 else
            FisherOptimum(t, 0.0, False, flat=True) for t, f in best.tolist()]


def optimize_qfi_over_time(cfg, sd, bath, estimand, t_max, grid_size=128):
    """Maximize the QFI over t in [min(1e-3 / w_c, t_max / 2), t_max].

    A log-spaced scan of max(grid_size, 64) points, a fill where the phase
    Delta turns faster than the scan resolves (NumericalError beyond
    _MAX_FILL points) and a zoom on every local maximum that can beat the
    best sample, each step one factor bundle over a time array.  An optimum
    at t_max is typical where the information keeps accumulating.
    """
    return _optimize([sd.cutoff], t_max, grid_size, lambda _, t: _samples(
        factor_bundle(cfg, sd, bath, estimand, t)))[0]


def optimize_variants(cfgs, pairs, estimand, t_max, grid_size=128):
    """optimize_qfi_over_time for each probe of ``cfgs`` at each (sd, bath)
    of ``pairs``, all in lockstep: the scans are one factor assembly, and so
    are the fill and each later round over every bracket still open.  Same
    optima, as one list over ``cfgs`` per pair."""
    estimand = Estimand(estimand)
    for sd, bath in pairs:
        _validate_estimand(estimand, sd, bath)
    tasks = [(cfg, sd, bath) for sd, bath in pairs for cfg in cfgs]
    optima = _optimize([sd.cutoff for _, sd, _ in tasks], t_max, grid_size, lambda owner, t: (
        _samples(FactorBundle(*dynamics._assemble(tasks, owner, t, estimand)))))
    return [optima[k:k + len(cfgs)] for k in range(0, len(optima), len(cfgs))]
