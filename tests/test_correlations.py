"""Initial-correlation factors: limits, identities, derivatives, unwrapping."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import mp

from bathprobe.correlations import (SINGLE_QUBIT_PROBE, TWO_QUBIT_TRACED,
                                    corr_factors_from_parts)
from bathprobe.dynamics import CORRELATED, ProbeConfig, dephasing_factors
from bathprobe.spectral import (BathState, SpectralDensity, c_shift,
                                d_phi_d_omega_c, phi_factor)
from bathprobe.verify import element_phase_factor

OHMIC = SpectralDensity(1.0, 1.0, 1.0)
SCHEMES = (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)
#: short test ids of SCHEMES
SCHEME_IDS = ("two-qubit", "single-qubit")


def rel_diff(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def corr(sd, bath, t, scheme=TWO_QUBIT_TRACED, omega_0=1.0):
    """(gamma_corr, chi) of the correlated probe, through the factor assembly."""
    cfg = ProbeConfig(omega_0, scheme, CORRELATED)
    fac = dephasing_factors(cfg, sd, bath, t)
    return fac.gamma_corr, fac.chi


def d_phi(sd, t, x):
    """d phi/dx: the cutoff closed form, phi itself at G = 1, 0 for T."""
    if x == "omega_c":
        return d_phi_d_omega_c(sd, t)
    if x == "G":
        return phi_factor(SpectralDensity(1.0, sd.ohmicity, sd.cutoff), t)
    return 0.0


def d_corr(sd, bath, t, x, scheme=TWO_QUBIT_TRACED, omega_0=1.0):
    """(d gamma_corr/dx, d chi/dx) by the chain rule, d beta/dT = -beta**2."""
    beta = bath.beta
    d_beta = -beta * beta if x == "T" else 0.0
    # C = G w_c Gamma(s)
    d_c = {"omega_c": sd.coupling, "G": sd.cutoff, "T": 0.0}[x] * math.gamma(sd.ohmicity)
    return slopes(corr_factors_from_parts(c_shift(sd), phi_factor(sd, t), beta, omega_0,
                                          scheme, d_c, d_phi(sd, t, x), d_beta))


def slopes(f):
    """(d gamma_corr/dx, d chi/dx) of a CorrelationFactors."""
    return f.d_gamma_corr, f.d_chi


def preparation_sum(c, phi, beta, omega_0, scheme, exp=cmath.exp):
    """Literal spin-sector sum defining the preparation factor X.

    A sector of total spin m = p (+ q for two qubits) has weight
    exp(-beta w0 m / 2 + beta m**2 C / 4) and phase exp(i m phi).  ``exp``
    picks the arithmetic: cmath.exp for doubles, mpmath's exp for the
    high-precision reference.
    """
    spins = ([p + q for p in (1, -1) for q in (1, -1)] if scheme == TWO_QUBIT_TRACED
             else [1, -1])
    num = den = 0
    for m in spins:
        w = exp(-0.5 * beta * omega_0 * m + 0.25 * beta * m * m * c)
        num += w * exp(1j * m * phi)
        den += w
    return num / den


def richardson_d_temperature(c, phi, temperature, omega_0, scheme):
    """(d gamma_corr/dT, d chi/dT) by the Richardson-extrapolated central
    difference that the chain rule replaced (one step forward near T = 0)."""
    def factors(temp):
        f = corr_factors_from_parts(c, phi, 1.0 / temp, omega_0, scheme)
        return np.array([f.gamma_corr, f.chi])

    T = temperature
    h = max(1e-6, 1e-4 * T)
    if T - h <= 0.0:
        return (factors(T + h) - factors(T)) / h
    d1 = (factors(T + h) - factors(T - h)) / (2.0 * h)
    d2 = (factors(T + 0.5 * h) - factors(T - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def test_two_qubit_time_zero():
    g, chi = corr(OHMIC, BathState(0.8), 0.0)
    assert g == pytest.approx(0.0, abs=1e-14)
    assert chi == 0.0


def test_two_qubit_zero_temperature_values():
    g, chi = corr(OHMIC, BathState(0.0), 1.0)
    assert g == 0.0
    assert chi == pytest.approx(math.pi / 2.0, rel=1e-14)  # 2 * phi(t=1)


def test_zero_coupling_is_inert():
    sd = SpectralDensity(0.0, 1.0, 1.0)
    for t in (0.0, 0.7, 4.0):
        g, chi = corr(sd, BathState(0.6), t)
        assert g == pytest.approx(0.0, abs=1e-14)
        assert chi == pytest.approx(0.0, abs=1e-14)


def test_single_qubit_examples():
    g0, chi0 = corr(OHMIC, BathState(0.9), 0.0, SINGLE_QUBIT_PROBE)
    assert (g0, chi0) == (pytest.approx(0.0, abs=1e-14), 0.0)
    gz, chiz = corr(OHMIC, BathState(0.0), 1.0, SINGLE_QUBIT_PROBE)
    assert chiz == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert gz == 0.0
    _, chi_hot = corr(OHMIC, BathState(1e8), 1.0, SINGLE_QUBIT_PROBE)
    assert abs(chi_hot) < 1e-7


def test_gamma_corr_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(60):
        sd = SpectralDensity(float(rng.uniform(0.05, 3.0)),
                             float(rng.uniform(0.2, 2.5)),
                             float(rng.uniform(0.5, 5.0)))
        bath = BathState(float(rng.uniform(0.05, 3.0)))
        t = float(rng.uniform(0.0, 10.0))
        for scheme in SCHEMES:
            assert corr(sd, bath, t, scheme)[0] >= -1e-14


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
def test_preparation_sum_identity(scheme):
    # |X| = exp(-gamma_corr) and arg X = -chi against the literal sector sum
    rng = np.random.default_rng(5)
    for _ in range(40):
        sd = SpectralDensity(float(rng.uniform(0.05, 2.0)),
                             float(rng.uniform(0.3, 2.2)),
                             float(rng.uniform(0.5, 4.0)))
        beta = float(rng.uniform(0.1, 3.0))
        omega_0 = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.01, 8.0))
        c, phi = c_shift(sd), phi_factor(sd, t)
        f = corr_factors_from_parts(c, phi, beta, omega_0, scheme)
        x = preparation_sum(c, phi, beta, omega_0, scheme)
        assert abs(abs(x) - math.exp(-f.gamma_corr)) < 1e-12
        arg_mismatch = abs((-f.chi - cmath.phase(x) + math.pi) % (2.0 * math.pi)
                           - math.pi)
        assert arg_mismatch < 1e-12


def test_element_phase_factor_matches_coherence_convention():
    sd = SpectralDensity(0.8, 1.0, 2.0)
    bath = BathState(0.7)
    t = 1.9
    c, phi = c_shift(sd), phi_factor(sd, t)
    f = corr_factors_from_parts(c, phi, bath.beta, 1.0, TWO_QUBIT_TRACED)
    x = element_phase_factor(-1, c, phi, bath.beta, 1.0)
    ref = cmath.exp(-f.gamma_corr - 1j * f.chi)
    assert abs(x - ref) < 1e-13
    assert element_phase_factor(0, c, phi, bath.beta, 1.0) == 1.0
    x2 = element_phase_factor(2, c, phi, bath.beta, 1.0)
    assert abs(x2 - element_phase_factor(-2, c, phi, bath.beta, 1.0).conjugate()) == 0.0


def test_stabilized_matches_zero_temperature_limit():
    # finite-T path vs analytic T = 0 path at large beta; the residual decays
    # like exp(-beta w0) (the sinh/cosh contrast), so the threshold must keep
    # beta*w0 large no matter how big the reorganization constant is
    for sd in (OHMIC, SpectralDensity(2.0, 0.5, 3.0), SpectralDensity(0.3, 2.0, 1.0)):
        omega_0 = 1.0
        beta = max(50.0 / max(c_shift(sd) + omega_0, 1.0), 22.0 / omega_0)
        cold = BathState(1.0 / beta)
        zero = BathState(0.0)
        for t in (0.3, 1.0, 5.0, 12.0):
            for scheme in SCHEMES:
                g_cold, chi_cold = corr(sd, cold, t, scheme, omega_0)
                g_zero, chi_zero = corr(sd, zero, t, scheme, omega_0)
                assert abs(g_cold - g_zero) < 1e-8
                assert abs(chi_cold - chi_zero) < 1e-8


def test_chi_unwrapping_is_continuous():
    # strong coupling winds 2*phi through several turns of the circle
    sd = SpectralDensity(3.0, 1.0, 2.0)
    bath = BathState(0.2)
    ts = np.arange(1e-3, 20.0, 0.005)
    _, chis = corr(sd, bath, ts)
    assert np.max(np.abs(np.diff(chis))) < 0.5 * math.pi
    assert chis.max() > 2.0 * math.pi  # actually wound past a full wrap


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("x", ["omega_c", "G"])
def test_chain_rule_derivatives_match_fd(scheme, x):
    sd = SpectralDensity(0.9, 0.7, 1.8)
    bath = BathState(1.1)
    omega_0, t = 1.0, 1.3
    dg, dc = d_corr(sd, bath, t, x, scheme, omega_0)

    def factors(value):
        if x == "omega_c":
            sdx = SpectralDensity(sd.coupling, sd.ohmicity, value)
        else:
            sdx = SpectralDensity(value, sd.ohmicity, sd.cutoff)
        return corr(sdx, bath, t, scheme, omega_0)

    x0 = sd.cutoff if x == "omega_c" else sd.coupling
    h = 1e-6 * x0
    gp, cp = factors(x0 + h)
    gm, cm = factors(x0 - h)
    assert rel_diff(dg, (gp - gm) / (2 * h), floor=1e-9) < 1e-6
    assert rel_diff(dc, (cp - cm) / (2 * h), floor=1e-9) < 1e-6


def test_temperature_derivative_matches_fd():
    sd = SpectralDensity(0.6, 1.0, 2.0)
    bath = BathState(1.0)
    dg, dc = d_corr(sd, bath, 1.0, "T")
    h = 1e-7

    def factors(T):
        return corr(sd, BathState(T), 1.0)

    gp, cp = factors(1.0 + h)
    gm, cm = factors(1.0 - h)
    assert rel_diff(dg, (gp - gm) / (2 * h), floor=1e-9) < 1e-5
    assert rel_diff(dc, (cp - cm) / (2 * h), floor=1e-9) < 1e-5


def test_zero_temperature_derivatives_reduce_to_phase_kernel():
    sd = SpectralDensity(0.8, 0.5, 2.0)
    zero = BathState(0.0)
    for t in (0.3, 1.4, 2.2, 5.1):
        for x in ("omega_c", "G"):
            dg2, dc2 = d_corr(sd, zero, t, x, TWO_QUBIT_TRACED)
            dg1, dc1 = d_corr(sd, zero, t, x, SINGLE_QUBIT_PROBE)
            assert dg2 == 0.0 and dg1 == 0.0
            assert dc2 == pytest.approx(2.0 * d_phi(sd, t, x), rel=1e-13)
            assert dc1 == pytest.approx(d_phi(sd, t, x), rel=1e-13)
    for scheme in SCHEMES:
        assert d_corr(sd, zero, 1.4, "T", scheme) == (0.0, 0.0)


def test_ohmic_level_shift_cutoff_derivative_at_zero_temperature():
    # two-qubit, Ohmic, T = 0: d chi / d omega_c = 2 G t / (1 + (wc t)^2)
    sd = SpectralDensity(0.7, 1.0, 1.5)
    t = 2.0
    _, dc = d_corr(sd, BathState(0.0), t, "omega_c")
    expected = 2.0 * sd.coupling * t / (1.0 + (sd.cutoff * t) ** 2)
    assert dc == pytest.approx(expected, rel=1e-13)


def random_point(rng):
    """(C, phi over a few times, w0) of a random bath, probe and time grid."""
    sd = SpectralDensity(float(rng.uniform(0.05, 2.0)),
                         float(rng.uniform(0.3, 2.2)),
                         float(rng.uniform(0.5, 4.0)))
    ts = np.sort(rng.uniform(0.01, 8.0, 3))
    return c_shift(sd), phi_factor(sd, ts), float(rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
def test_temperature_chain_rule_matches_mpmath(scheme):
    # reference: the literal preparation sum X at 50 digits, differentiated
    # in T by mpmath; gamma_corr = -log|X| and chi = -arg X
    rng = np.random.default_rng(43)
    worst = 0.0
    with mp.workdps(50):
        for T in np.geomspace(0.05, 20.0, 30).tolist():
            c, phis, omega_0 = random_point(rng)
            beta = 1.0 / T
            dg, dc = slopes(corr_factors_from_parts(c, phis, beta, omega_0, scheme,
                                                    d_beta=-beta * beta))
            for k, phi in enumerate(phis.tolist()):
                def x(temp):
                    return preparation_sum(mp.mpf(c), mp.mpf(phi), 1 / temp,
                                           omega_0, scheme, exp=mp.exp)

                ratio = mp.diff(x, mp.mpf(T)) / x(mp.mpf(T))
                for got, ref in ((dg[k], -ratio.real), (dc[k], -ratio.imag)):
                    ref = float(ref)
                    worst = max(worst, abs(got - ref) / max(abs(ref), 1e-6))
    assert worst <= 1e-9


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
def test_temperature_chain_rule_matches_richardson(scheme):
    rng = np.random.default_rng(44)
    for T in np.geomspace(0.05, 20.0, 40).tolist():
        c, phis, omega_0 = random_point(rng)
        beta = 1.0 / T
        got = np.array(slopes(corr_factors_from_parts(c, phis, beta, omega_0, scheme,
                                                      d_beta=-beta * beta)))
        ref = richardson_d_temperature(c, phis, T, omega_0, scheme)
        assert np.all(np.abs(got - ref) <= 1e-7 * np.maximum(1.0, np.abs(got)))


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("sd,omega_0", [(OHMIC, 1.0), (SpectralDensity(0.0, 1.0, 1.0), 0.5),
                                        (SpectralDensity(2.0, 0.5, 3.0), 1.0)])
def test_temperature_chain_rule_at_extreme_temperatures(scheme, sd, omega_0):
    # beta**2 overflows below T ~ 7e-155, where e and sech**2 underflow to 0;
    # at T = 1e8 the two-qubit weight e is 1 for G = 0, w0 = 0.5 and 1 - 1e-8
    # otherwise.  Tier-1 turns any RuntimeWarning into a failure.
    ts = np.array([0.0, 0.3, 2.0, 40.0])
    for T in (1e-300, 1e-160, 1e8):
        dg, dc = d_corr(sd, BathState(T), ts, "T", scheme, omega_0)
        assert np.all(np.isfinite(dg)) and np.all(np.isfinite(dc))
        if T < 1.0:
            assert np.all(dg == 0.0) and np.all(dc == 0.0)


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("x", ["omega_c", "G", "T"])
def test_per_point_parameters_match_the_per_temperature_calls(scheme, x):
    # C, beta and their slopes as arrays over the points of five baths laid
    # end to end, from where beta**2 overflows (1e-300, 1e-160) and e and q
    # underflow (1e-3) to where e is almost 1 (1e8): each bath's slice has
    # the bits of a call of its own, signed zeros included
    ts = np.array([0.0, 0.3, 2.0, 40.0])
    parts = []
    for k, T in enumerate((1e-300, 1e-160, 1e-3, 0.7, 1e8)):
        sd = SpectralDensity(0.4 + 0.3 * k, 0.73, 1.0 + 0.5 * k)
        beta = BathState(T).beta
        d_c = {"omega_c": sd.coupling, "G": sd.cutoff, "T": 0.0}[x] * math.gamma(sd.ohmicity)
        d_beta = -beta * beta if x == "T" else 0.0  # Python floats: -inf, no warning
        parts.append((c_shift(sd), phi_factor(sd, ts), d_c, d_phi(sd, ts, x), beta, d_beta))
    c, phi, d_c, d_ph, beta, d_beta = (
        np.concatenate([np.broadcast_to(v, ts.shape) for v in column]) for column in zip(*parts))
    together = corr_factors_from_parts(c, phi, beta, 1.3, scheme, d_c, d_ph, d_beta)
    for k, (ck, phik, d_ck, d_phk, bk, d_bk) in enumerate(parts):
        alone = corr_factors_from_parts(ck, phik, bk, 1.3, scheme, d_ck, d_phk, d_bk)
        part = slice(k * ts.size, (k + 1) * ts.size)
        for name in ("gamma_corr", "chi", "d_gamma_corr", "d_chi"):
            got, ref = getattr(together, name), getattr(alone, name)
            assert got[part].tobytes() == ref.tobytes(), (k, x, name)


@st.composite
def phasor_inputs(draw):
    """(C, phi over 1-3 times, beta, w0, scheme) and a direction (dC, dphi,
    dbeta) of them; T = 0 in one draw of four, else log-uniform on
    [1e-2, 1e2]; C >= 0.01 keeps e < 1 along the direction."""
    floats = st.floats
    c = draw(floats(0.01, 5.0))
    phi = np.array(draw(st.lists(floats(0.0, 10.0), min_size=1, max_size=3)))
    cold = draw(st.integers(0, 3)) == 3
    beta = math.inf if cold else 10.0 ** -draw(floats(-2.0, 2.0))
    omega_0 = draw(floats(0.2, 3.0))
    scheme = draw(st.sampled_from(SCHEMES))
    d_c, d_beta_rel = draw(floats(-1.0, 1.0)), draw(floats(-1.0, 1.0))
    d_phi = np.array([draw(floats(-3.0, 3.0)) for _ in phi])
    d_beta = 0.0 if beta == math.inf else beta * d_beta_rel
    return (c, phi, beta, omega_0, scheme), (d_c, d_phi, d_beta)


@given(phasor_inputs())
def test_slopes_ride_along_with_the_values(inputs):
    # one call gives the factors and their slopes: the values do not read
    # the slopes, zero slopes in give zero slopes out, and the slopes are
    # the Richardson derivative of the values along (dC, dphi, dbeta)
    (c, phi, beta, omega_0, scheme), (d_c, d_phi, d_beta) = inputs
    still = corr_factors_from_parts(c, phi, beta, omega_0, scheme)
    moving = corr_factors_from_parts(c, phi, beta, omega_0, scheme, d_c, d_phi, d_beta)
    assert still.gamma_corr.tobytes() == moving.gamma_corr.tobytes()
    assert still.chi.tobytes() == moving.chi.tobytes()
    assert np.all(still.d_gamma_corr == 0.0) and np.all(still.d_chi == 0.0)
    if beta == math.inf:
        return
    # keep |A + iB| = (1 + e) exp(-gamma_corr) away from 0, where the
    # difference quotient is ill-conditioned
    assume(np.all(still.gamma_corr < 2.0))

    def values(h):
        f = corr_factors_from_parts(c + h * d_c, phi + h * d_phi, beta + h * d_beta,
                                    omega_0, scheme)
        return np.array([f.gamma_corr, f.chi])

    h = 1e-4
    d1 = (values(h) - values(-h)) / (2.0 * h)
    d2 = (values(0.5 * h) - values(-0.5 * h)) / h
    ref = (4.0 * d2 - d1) / 3.0
    got = np.array([moving.d_gamma_corr, moving.d_chi])
    assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(got)))
