"""The quadrature route: each dephasing factor as its defining bath integral.

``quadrature_factor`` evaluates Gamma_vac, Gamma_th, Delta, phi or C by
direct adaptive quadrature of its integral over J(w), an independent check
of the closed forms in ``spectral`` that no production path calls.  It reads
the SpectralDensity and BathState by attribute and imports nothing from
``spectral``.  All bath kernels handled here have the shape

    integral_0^inf  w**p * g(w) dw

with ``g`` smooth at the origin and decaying like exp(-w/w_scale), and with
oscillations of period 2*pi/t riding on top.  The integrator splits at the
oscillation nodes w = k*pi/t, applies a Gauss-Kronrod 7/15 pair on each cell,
and bisects the worst cells until the summed error estimate meets the
tolerance.  A power-law substitution removes the w**p endpoint singularity
when p < 0 (sub-Ohmic kernels).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["QuadratureError", "QuadratureResult", "adaptive_quadrature", "bath_integral",
           "quadrature_factor", "QUAD_KINDS"]


class QuadratureError(RuntimeError):
    """Raised when the adaptive scheme cannot meet the requested tolerance.

    Carries the best value and the achieved error estimate so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message, value, achieved_error):
        super().__init__(f"{message} (value={value!r}, achieved error={achieved_error!r})")
        self.message = message
        self.value = value
        self.achieved_error = achieved_error


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


# Gauss-Kronrod 7/15 pair on [-1, 1].  Kronrod nodes/weights from the
# standard QUADPACK tables; the embedded 7-point Gauss rule sits on the
# odd-indexed nodes.
_XK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])            # 15 ascending nodes
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:-1:2] = np.concatenate([_WG_HALF, _WG_HALF[:-1][::-1]])      # Gauss weights on odd slots


_ABS_TOL = 1e-300   # absolute error floor, far below any bath integral
_MAX_NODES = 4096   # oscillation nodes past this many are thinned out


def _gk15_batch(f, lo, hi):
    """Apply the GK15 pair to each cell [lo_i, hi_i]; return (values, errors)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    vals = half * (y @ _WK)
    gauss = half * (y @ _WG)
    return vals, np.abs(vals - gauss)


def adaptive_quadrature(f, edges, rel_tol=1e-8, max_cells=16384):
    """Integrate vectorized ``f`` over the union of cells given by ``edges``.

    Bisects the worst cells until sum(error) <= max(_ABS_TOL, rel_tol*|I|).
    Returns (value, error_estimate); raises QuadratureError on cell overflow.
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0, 0.0
    vals, errs = _gk15_batch(f, lo, hi)
    while True:
        total = float(vals.sum())
        err = float(errs.sum())
        tol = max(_ABS_TOL, rel_tol * abs(total))
        if err <= tol:
            return total, err
        if lo.size >= max_cells:
            raise QuadratureError(
                f"adaptive quadrature exceeded {max_cells} cells", total, err)
        # split the worst cells in bulk; one-at-a-time is too slow in Python
        n_split = max(1, lo.size // 16)
        order = np.argsort(errs)
        worst = order[-n_split:]
        keep_idx = order[:-n_split]
        a, b = lo[worst], hi[worst]
        m = 0.5 * (a + b)
        new_lo = np.concatenate([lo[keep_idx], a, m])
        new_hi = np.concatenate([hi[keep_idx], m, b])
        new_vals, new_errs = _gk15_batch(f, np.concatenate([a, m]), np.concatenate([m, b]))
        vals = np.concatenate([vals[keep_idx], new_vals])
        errs = np.concatenate([errs[keep_idx], new_errs])
        lo, hi = new_lo, new_hi


def _oscillation_edges(t, w_lo, w_hi):
    """Cell edges splitting [w_lo, w_hi] at the oscillation nodes k*pi/t."""
    if t <= 0.0 or w_hi <= w_lo:
        return np.array([w_lo, w_hi])
    period = np.pi / t
    k_lo = int(np.floor(w_lo / period)) + 1
    k_hi = int(np.ceil(w_hi / period)) - 1
    if k_hi < k_lo:
        return np.array([w_lo, w_hi])
    nodes = np.arange(k_lo, k_hi + 1) * period
    if nodes.size > _MAX_NODES:
        nodes = nodes[:: int(np.ceil(nodes.size / _MAX_NODES))]
    return np.concatenate([[w_lo], nodes, [w_hi]])


def bath_integral(power, smooth, t, omega_max, rel_tol=1e-8, max_cells=16384):
    """Integrate w**power * smooth(w) over [0, omega_max].

    ``smooth`` must be vectorized and finite at w = 0.  For power < 0 the
    head cell is mapped through w = (q*u)**(1/q), q = power + 1, which turns
    the algebraic endpoint into a smooth integrand.  Oscillation nodes at
    k*pi/t become cell edges; t <= 0 means a non-oscillatory kernel.
    """
    if omega_max <= 0.0:
        return QuadratureResult(0.0, 0.0)
    p = float(power)
    if p <= -1.0:
        raise ValueError(f"endpoint exponent {p} is not integrable")

    head_val = 0.0
    head_err = 0.0
    b0 = min(np.pi / t, omega_max) if t > 0.0 else omega_max

    if p < 0.0:
        q = p + 1.0
        u_max = b0 ** q / q

        def head_integrand(u):
            w = np.power(q * np.maximum(u, 0.0), 1.0 / q)
            return smooth(w)

        head_val, head_err = adaptive_quadrature(
            head_integrand, [0.0, u_max], rel_tol, max_cells)
        lo = b0
    else:
        lo = 0.0

    def integrand(w):
        w = np.asarray(w)
        return np.where(w > 0.0, np.power(np.maximum(w, 1e-300), p), 0.0 if p > 0 else 1.0) * smooth(w)

    tail_val = 0.0
    tail_err = 0.0
    if omega_max > lo:
        edges = _oscillation_edges(t, lo, omega_max)
        tail_val, tail_err = adaptive_quadrature(integrand, edges, rel_tol, max_cells)
    value = head_val + tail_val
    err = head_err + tail_err
    tol = max(_ABS_TOL, rel_tol * abs(value))
    if err > tol:
        raise QuadratureError("bath integral did not reach requested tolerance",
                              value, err)
    return QuadratureResult(value, err)


# ---------------------------------------------------------------------------
# the factor integrals
# ---------------------------------------------------------------------------

def _one_minus_cos_over_w2(w, t):
    """(1 - cos(w t)) / w**2, stable at w = 0."""
    w = np.asarray(w, dtype=float)
    return 0.5 * t * t * np.square(np.sinc(w * t / (2.0 * np.pi)))


def _sin_over(w, t):
    """sin(w t) / w, stable at w = 0."""
    return t * np.sinc(w * t / np.pi)


def _sin_minus_lin_over_cube(w, t):
    """(sin(w t) - w t) / w**3, stable at w = 0."""
    x = np.asarray(w * t, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, x, 1.0)
    series = -1.0 / 6.0 + xs * xs * (1.0 / 120.0 - xs * xs / 5040.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.sin(x) - x) / np.where(small, 1.0, x) ** 3
    return t ** 3 * np.where(small, series, direct)


def _thermal_kernel(w, beta):
    """w * (coth(beta w / 2) - 1) = 2 w / (exp(beta w) - 1), overflow-safe."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    arg = beta * w
    out = np.full_like(w, 2.0 / beta)
    pos = (arg > 0.0) & (arg <= 700.0)
    out[pos] = 2.0 * w[pos] / np.expm1(arg[pos])
    out[arg > 700.0] = 0.0
    return out


def _envelope(sd, w):
    """J(w) / w**s = G w_c**(1-s) exp(-w/w_c)."""
    G, s, wc = sd.coupling, sd.ohmicity, sd.cutoff
    return G * wc ** (1.0 - s) * np.exp(-np.asarray(w, dtype=float) / wc)


#: kind -> (p, smooth part from the envelope e at (w, t, beta), whether it
#: oscillates at t): the factor is the integral of w**(s + p) times that part
_KINDS = {
    "gamma_vac": (0.0, lambda e, w, t, beta: e * _one_minus_cos_over_w2(w, t), True),
    "gamma_th": (-1.0, lambda e, w, t, beta: e * _one_minus_cos_over_w2(w, t)
                 * _thermal_kernel(w, beta), True),
    "delta": (1.0, lambda e, w, t, beta: e * _sin_minus_lin_over_cube(w, t), True),
    "phi": (-1.0, lambda e, w, t, beta: e * _sin_over(w, t), True),
    "c_shift": (-1.0, lambda e, w, t, beta: e, False),
}

#: integral kinds exposed by the quadrature route
QUAD_KINDS = tuple(_KINDS)


def quadrature_factor(kind, sd, bath=None, t=0.0, rel_tol=1e-8):
    """Evaluate one dephasing factor by direct adaptive quadrature.

    Independent verification route for the closed forms.  Returns a
    QuadratureResult carrying the value and the achieved error estimate;
    raises QuadratureError when the tolerance is not met.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown quadrature kind {kind!r}; expected one of {QUAD_KINDS}")
    p, part, oscillates = _KINDS[kind]
    if sd.coupling == 0.0 or (oscillates and t == 0.0):
        return QuadratureResult(0.0, 0.0)
    beta = None
    if kind == "gamma_th":
        if bath is None:
            raise ValueError("the thermal kind requires a bath state")
        if bath.zero_temperature:
            return QuadratureResult(0.0, 0.0)
        beta = bath.beta
    omega_max = sd.cutoff * (40.0 + 10.0 * sd.ohmicity)
    return bath_integral(sd.ohmicity + p, lambda w: part(_envelope(sd, w), w, t, beta),
                         t if oscillates else 0.0, omega_max, rel_tol=rel_tol)
