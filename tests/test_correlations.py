"""Initial-correlation factors: limits, identities, derivatives, unwrapping."""

import cmath
import math

import numpy as np
import pytest

from bathprobe.correlations import (SINGLE_QUBIT, TWO_QUBIT,
                                    corr_factors_from_parts,
                                    corr_factors_single_qubit,
                                    corr_factors_two_qubit, d_corr_dx,
                                    element_phase_factor)
from bathprobe.spectral import (BathState, SpectralDensity, c_shift,
                                phi_factor)

OHMIC = SpectralDensity(1.0, 1.0, 1.0)


def rel_diff(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def preparation_sum(c, phi, beta, omega_0, scheme):
    """Literal spin-sector sum defining the preparation factor X."""
    if scheme == TWO_QUBIT:
        pairs = [(p, q) for p in (1, -1) for q in (1, -1)]
        num = den = 0.0
        for (p, q) in pairs:
            w = math.exp(-0.5 * beta * omega_0 * (p + q)) * 0.25 \
                * math.exp(0.25 * beta * (p + q) ** 2 * c)
            num += w * cmath.exp(1j * (p + q) * phi)
            den += w
        return num / den
    num = den = 0.0
    for p in (1, -1):
        w = math.exp(-0.5 * beta * omega_0 * p) * 0.5 * math.exp(0.25 * beta * c)
        num += w * cmath.exp(1j * p * phi)
        den += w
    return num / den


def test_two_qubit_time_zero():
    bath = BathState(0.8)
    f = corr_factors_two_qubit(OHMIC, bath, 1.0, 0.0)
    assert f.gamma_corr == pytest.approx(0.0, abs=1e-14)
    assert f.chi == 0.0


def test_two_qubit_zero_temperature_values():
    f = corr_factors_two_qubit(OHMIC, BathState(0.0), 1.0, 1.0)
    assert f.gamma_corr == 0.0
    assert f.chi == pytest.approx(math.pi / 2.0, rel=1e-14)  # 2 * phi(t=1)


def test_zero_coupling_is_inert():
    sd = SpectralDensity(0.0, 1.0, 1.0)
    for t in (0.0, 0.7, 4.0):
        f = corr_factors_two_qubit(sd, BathState(0.6), 1.0, t)
        assert f.gamma_corr == pytest.approx(0.0, abs=1e-14)
        assert f.chi == pytest.approx(0.0, abs=1e-14)


def test_single_qubit_examples():
    f0 = corr_factors_single_qubit(OHMIC, BathState(0.9), 1.0, 0.0)
    assert (f0.gamma_corr, f0.chi) == (pytest.approx(0.0, abs=1e-14), 0.0)
    fz = corr_factors_single_qubit(OHMIC, BathState(0.0), 1.0, 1.0)
    assert fz.chi == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert fz.gamma_corr == 0.0
    fhot = corr_factors_single_qubit(OHMIC, BathState(1e8), 1.0, 1.0)
    assert abs(fhot.chi) < 1e-7


def test_gamma_corr_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(60):
        sd = SpectralDensity(float(rng.uniform(0.05, 3.0)),
                             float(rng.uniform(0.2, 2.5)),
                             float(rng.uniform(0.5, 5.0)))
        bath = BathState(float(rng.uniform(0.05, 3.0)))
        t = float(rng.uniform(0.0, 10.0))
        for fn in (corr_factors_two_qubit, corr_factors_single_qubit):
            assert fn(sd, bath, 1.0, t).gamma_corr >= -1e-14


@pytest.mark.parametrize("scheme", [TWO_QUBIT, SINGLE_QUBIT])
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
    f = corr_factors_from_parts(c, phi, bath.beta, 1.0, TWO_QUBIT)
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
            for fn in (corr_factors_two_qubit, corr_factors_single_qubit):
                f_cold = fn(sd, cold, omega_0, t)
                f_zero = fn(sd, zero, omega_0, t)
                assert abs(f_cold.gamma_corr - f_zero.gamma_corr) < 1e-8
                assert abs(f_cold.chi - f_zero.chi) < 1e-8


def test_chi_unwrapping_is_continuous():
    # strong coupling winds 2*phi through several turns of the circle
    sd = SpectralDensity(3.0, 1.0, 2.0)
    bath = BathState(0.2)
    ts = np.arange(1e-3, 20.0, 0.005)
    chis = np.array([corr_factors_two_qubit(sd, bath, 1.0, float(t)).chi
                     for t in ts])
    assert np.max(np.abs(np.diff(chis))) < 0.5 * math.pi
    assert chis.max() > 2.0 * math.pi  # actually wound past a full wrap


@pytest.mark.parametrize("scheme", [TWO_QUBIT, SINGLE_QUBIT])
@pytest.mark.parametrize("x", ["omega_c", "G"])
def test_chain_rule_derivatives_match_fd(scheme, x):
    sd = SpectralDensity(0.9, 0.7, 1.8)
    bath = BathState(1.1)
    omega_0, t = 1.0, 1.3
    dg, dc = d_corr_dx(sd, bath, omega_0, t, x, scheme)

    def factors(value):
        if x == "omega_c":
            sdx = SpectralDensity(sd.coupling, sd.ohmicity, value)
        else:
            sdx = SpectralDensity(value, sd.ohmicity, sd.cutoff)
        fn = corr_factors_two_qubit if scheme == TWO_QUBIT else corr_factors_single_qubit
        f = fn(sdx, bath, omega_0, t)
        return f.gamma_corr, f.chi

    x0 = sd.cutoff if x == "omega_c" else sd.coupling
    h = 1e-6 * x0
    gp, cp = factors(x0 + h)
    gm, cm = factors(x0 - h)
    assert rel_diff(dg, (gp - gm) / (2 * h), floor=1e-9) < 1e-6
    assert rel_diff(dc, (cp - cm) / (2 * h), floor=1e-9) < 1e-6


def test_temperature_derivative_matches_fd():
    sd = SpectralDensity(0.6, 1.0, 2.0)
    bath = BathState(1.0)
    dg, dc = d_corr_dx(sd, bath, 1.0, 1.0, "T", TWO_QUBIT)
    h = 1e-7

    def factors(T):
        f = corr_factors_two_qubit(sd, BathState(T), 1.0, 1.0)
        return f.gamma_corr, f.chi

    gp, cp = factors(1.0 + h)
    gm, cm = factors(1.0 - h)
    assert rel_diff(dg, (gp - gm) / (2 * h), floor=1e-9) < 1e-5
    assert rel_diff(dc, (cp - cm) / (2 * h), floor=1e-9) < 1e-5


def test_zero_temperature_derivatives_reduce_to_phase_kernel():
    sd = SpectralDensity(0.8, 0.5, 2.0)
    zero = BathState(0.0)
    from bathprobe.spectral import d_phi_dx
    for t in (0.3, 1.4, 2.2, 5.1):
        for x in ("omega_c", "G"):
            dg2, dc2 = d_corr_dx(sd, zero, 1.0, t, x, TWO_QUBIT)
            dg1, dc1 = d_corr_dx(sd, zero, 1.0, t, x, SINGLE_QUBIT)
            assert dg2 == 0.0 and dg1 == 0.0
            assert dc2 == pytest.approx(2.0 * d_phi_dx(sd, t, x), rel=1e-13)
            assert dc1 == pytest.approx(d_phi_dx(sd, t, x), rel=1e-13)
    assert d_corr_dx(sd, zero, 1.0, 1.4, "T", TWO_QUBIT) == (0.0, 0.0)


def test_ohmic_level_shift_cutoff_derivative_at_zero_temperature():
    # two-qubit, Ohmic, T = 0: d chi / d omega_c = 2 G t / (1 + (wc t)^2)
    sd = SpectralDensity(0.7, 1.0, 1.5)
    t = 2.0
    _, dc = d_corr_dx(sd, BathState(0.0), 1.0, t, "omega_c", TWO_QUBIT)
    expected = 2.0 * sd.coupling * t / (1.0 + (sd.cutoff * t) ** 2)
    assert dc == pytest.approx(expected, rel=1e-13)
