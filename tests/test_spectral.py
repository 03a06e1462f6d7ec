"""Closed forms vs quadrature, derivatives vs finite differences."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from bathprobe import spectral
from bathprobe.dynamics import (SINGLE_QUBIT_PROBE, TWO_QUBIT_TRACED, Estimand,
                                ProbeConfig)
from bathprobe.fisher import factor_bundle
from bathprobe.quadrature import (QUAD_KINDS, QuadratureError, adaptive_quadrature,
                                  bath_integral, quadrature_factor)
from bathprobe.spectral import (BathState, NumericalError, SpectralDensity, c_shift,
                                d_delta_d_omega_c, d_gamma_d_omega_c,
                                d_gamma_th_d_temperature, d_gamma_vac_d_omega_c,
                                d_phi_d_omega_c, delta_factor, gamma_th, gamma_vac,
                                phi_factor, spectral_density)

OHMIC = SpectralDensity(1.0, 1.0, 1.0)


def rel_diff(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_spectral_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpectralDensity(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SpectralDensity(1.0, 1.0, -2.0)


@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                  (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0),
                                  (1.0, 1.0, math.inf), (1.0, 172.0, 1.0),
                                  (1.0, 1e-309, 1.0), (1.0, 1e-9, 1.0)])
def test_spectral_density_rejects_nan_inf_and_huge_ohmicity(args):
    # Gamma(s) overflows a double past s = 171.6 and below s = 5.6e-309; below
    # s = 1e-6 the vacuum kernel's O(1) terms cancel to O(s)
    with pytest.raises(ValueError):
        SpectralDensity(*args)


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -1.0])
def test_bath_state_rejects_nan_and_inf(temperature):
    with pytest.raises(ValueError):
        BathState(temperature)


def test_vacuum_sign_guard_is_an_error_class(monkeypatch):
    # a real exception, so it survives python -O
    from bathprobe import spectral
    monkeypatch.setattr(spectral._Grid, "kernel",
                        property(lambda g: (-np.ones(g.t.shape), np.zeros(g.t.shape))))
    with pytest.raises(NumericalError) as err:
        gamma_vac(SpectralDensity(1.0, 0.5, 2.0), 3.0)
    assert "s=0.5, w_c=2.0, t=3.0" in str(err.value)


def test_vacuum_sign_guard_names_no_temperature(monkeypatch):
    # the vacuum exponent does not depend on T, so its guard names none,
    # rather than T = 0 on a hot bath
    from bathprobe import spectral
    from bathprobe.dynamics import CORRELATED, ProbeConfig, dephasing_factors
    monkeypatch.setattr(spectral._Grid, "kernel",
                        property(lambda g: (-np.ones(g.t.shape), np.zeros(g.t.shape))))
    cfg = ProbeConfig(1.0, initial_state=CORRELATED)
    with pytest.raises(NumericalError) as err:
        dephasing_factors(cfg, SpectralDensity(1.0, 0.5, 2.0), BathState(0.5), 3.0)
    assert str(err.value).endswith(" at s=0.5, w_c=2.0, t=3.0")


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_gamma_th_at_extreme_temperatures(s):
    sd = SpectralDensity(1.0, s, 1.0)
    # 1/T overflows to inf, or every Bose term underflows: the cold limit 0
    for T in (1e-320, 1e-300):
        assert gamma_th(sd, BathState(T), 1.0) == 0.0
        assert d_gamma_th_d_temperature(sd, BathState(T), 1.0) == 0.0
    # the temperature slope of the series overflows: refused with the point
    with pytest.raises(QuadratureError) as err:
        gamma_th(sd, BathState(1e300), 1.0)
    assert f"s={s!r}, w_c=1.0, T=1e+300, t=1.0" in str(err.value)
    assert math.isfinite(err.value.value)


def test_bath_state_flags():
    assert BathState(0.0).zero_temperature
    assert not BathState(0.5).zero_temperature
    assert BathState(0.5).beta == 2.0
    assert math.isinf(BathState(0.0).beta)
    with pytest.raises(ValueError):
        BathState(-1.0)


# ---------------------------------------------------------------------------
# spectral density and factor examples
# ---------------------------------------------------------------------------

def test_spectral_density_examples():
    assert spectral_density(OHMIC, 0.0) == 0.0
    assert spectral_density(SpectralDensity(0.0, 2.0, 5.0), 3.0) == 0.0
    assert spectral_density(OHMIC, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        spectral_density(OHMIC, -0.5)


def test_spectral_density_nonnegative():
    sd = SpectralDensity(0.7, 0.4, 2.0)
    w = np.linspace(0.0, 50.0, 300)
    assert np.all(spectral_density(sd, w) >= 0.0)


def test_gamma_vac_examples():
    assert gamma_vac(OHMIC, 0.0) == 0.0
    assert gamma_vac(SpectralDensity(2.0, 1.0, 1.0), 1.0) == pytest.approx(
        math.log(2.0), rel=1e-14)
    assert gamma_vac(SpectralDensity(1.0, 2.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-13)


def test_gamma_th_trivial_cases():
    sd = SpectralDensity(1.0, 1.0, 5.0)
    assert gamma_th(sd, BathState(0.0), 3.0) == 0.0
    assert gamma_th(sd, BathState(1.0), 0.0) == 0.0


def test_gamma_th_two_tolerance_agreement():
    # the coarse and fine evaluations must already agree at the coarse level
    sd = SpectralDensity(1.0, 1.0, 5.0)
    bath = BathState(1.0)
    coarse = quadrature_factor("gamma_th", sd, bath, 1.0, rel_tol=1e-6).value
    fine = quadrature_factor("gamma_th", sd, bath, 1.0, rel_tol=1e-10).value
    assert rel_diff(coarse, fine) < 1e-6


def test_gamma_th_against_scipy():
    sd = SpectralDensity(1.0, 1.0, 5.0)
    bath = BathState(1.0)

    def integrand(w):
        return (spectral_density(sd, w) / w ** 2 * (1.0 - np.cos(w * 1.0))
                * (2.0 / np.expm1(w)))

    ref, _ = scipy_quad(integrand, 0.0, 250.0, limit=1000, epsabs=1e-13, epsrel=1e-12)
    assert rel_diff(gamma_th(sd, bath, 1.0), ref) < 1e-9


def test_delta_examples():
    assert delta_factor(OHMIC, 0.0) == 0.0
    assert delta_factor(OHMIC, 1.0) == pytest.approx(math.pi / 4.0 - 1.0, rel=1e-14)
    half = SpectralDensity(0.5, 1.0, 1.0)
    assert delta_factor(half, 1.0) == pytest.approx(0.5 * (math.pi / 4.0 - 1.0), rel=1e-14)


def test_phi_examples():
    assert phi_factor(OHMIC, 0.0) == 0.0
    assert phi_factor(OHMIC, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert phi_factor(SpectralDensity(1.0, 2.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-13)


def test_c_shift_examples():
    assert c_shift(OHMIC) == pytest.approx(1.0, rel=1e-14)
    assert c_shift(SpectralDensity(0.0, 1.3, 4.0)) == 0.0
    assert c_shift(SpectralDensity(1.0, 2.0, 5.0)) == pytest.approx(5.0, rel=1e-14)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def test_quadrature_factor_examples():
    res = quadrature_factor("gamma_vac", SpectralDensity(2.0, 1.0, 1.0), None, 1.0,
                            rel_tol=1e-10)
    assert abs(res.value - math.log(2.0)) < 1e-9
    res = quadrature_factor("c_shift", OHMIC, None, 0.0, rel_tol=1e-8)
    assert rel_diff(res.value, 1.0) < 1e-8
    assert quadrature_factor("delta", OHMIC, None, 0.0).value == 0.0


def test_quadrature_factor_rejects_an_unknown_kind_and_a_missing_bath():
    with pytest.raises(ValueError, match="unknown quadrature kind 'gamma'") as err:
        quadrature_factor("gamma", OHMIC, BathState(0.5), 1.0)
    assert all(repr(kind) in str(err.value) for kind in QUAD_KINDS)
    with pytest.raises(ValueError, match="requires a bath"):
        quadrature_factor("gamma_th", OHMIC, None, 1.0)


# near-Ohmic values and t = 1e-6 are where a split at s = 1 or a
# difference of two O(t) terms loses digits
@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 3.0,
                               1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-9])
@pytest.mark.parametrize("kind", ["gamma_vac", "delta", "phi", "c_shift"])
def test_closed_forms_match_quadrature(kind, s):
    closed = {"gamma_vac": gamma_vac, "delta": delta_factor, "phi": phi_factor,
              "c_shift": lambda sd, t: c_shift(sd)}[kind]
    for (G, wc, t) in [(1.0, 1.0, 0.7), (0.3, 5.0, 2.0), (2.0, 2.0, 9.0),
                       (1.0, 1.0, 1e-6)]:
        sd = SpectralDensity(G, s, wc)
        q = quadrature_factor(kind, sd, None, t, rel_tol=1e-10)
        assert rel_diff(closed(sd, t), q.value, floor=0.0) < 1e-8, (kind, s, G, wc, t)


def test_quadrature_reports_achieved_error():
    res = quadrature_factor("gamma_vac", OHMIC, None, 2.0, rel_tol=1e-8)
    assert res.error_estimate <= 1e-8 * abs(res.value)


def test_quadrature_nonconvergence_carries_achieved_tolerance():
    with pytest.raises(QuadratureError) as err:
        bath_integral(0.0, lambda w: np.sin(50.0 * w) ** 2 * np.exp(-w), 50.0,
                      40.0, rel_tol=1e-12, max_cells=4)
    assert err.value.achieved_error > 0.0


def test_adaptive_quadrature_basic():
    val, est = adaptive_quadrature(lambda x: np.exp(-x), [0.0, 5.0, 40.0],
                                   rel_tol=1e-12)
    assert rel_diff(val, 1.0 - math.exp(-40.0)) < 1e-12
    assert est < 1e-10


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

FACTOR_FNS = {
    "gamma_vac": lambda sd, bath, t: gamma_vac(sd, t),
    "gamma_th": lambda sd, bath, t: gamma_th(sd, bath, t),
    "delta": lambda sd, bath, t: delta_factor(sd, t),
    "phi": lambda sd, bath, t: phi_factor(sd, t),
    "c_shift": lambda sd, bath, t: c_shift(sd),
}


@pytest.mark.parametrize("name", sorted(FACTOR_FNS))
def test_linearity_in_coupling(name):
    fn = FACTOR_FNS[name]
    bath = BathState(0.8)
    for lam in (0.25, 3.0):
        for s in (0.5, 1.0, 2.0):
            base = SpectralDensity(0.4, s, 2.0)
            scaled = SpectralDensity(0.4 * lam, s, 2.0)
            for t in (0.3, 1.7, 6.0):
                a = fn(scaled, bath, t)
                b = lam * fn(base, bath, t)
                assert rel_diff(a, b) < 1e-12, (name, lam, s, t)


def test_sign_and_monotonicity():
    ts = np.linspace(0.0, 15.0, 120)
    for s in (0.5, 1.0, 2.0):
        sd = SpectralDensity(0.8, s, 1.5)
        gv = np.array([gamma_vac(sd, t) for t in ts])
        dl = np.array([delta_factor(sd, t) for t in ts])
        assert np.all(gv >= 0.0)
        assert np.all(np.diff(gv) >= -1e-12)
        assert np.all(dl <= 1e-15)
        assert np.all(np.diff(dl) <= 1e-12)
    bath = BathState(0.7)
    sd = SpectralDensity(0.8, 0.5, 1.5)
    assert all(gamma_th(sd, bath, t) >= 0.0 for t in ts[1:][::10])


@pytest.mark.parametrize("eps", [1e-4, -1e-4])
def test_ohmic_continuity(eps):
    near = SpectralDensity(0.7, 1.0 + eps, 2.0)
    exact = SpectralDensity(0.7, 1.0, 2.0)
    for t in (0.4, 1.0, 5.0):
        assert rel_diff(gamma_vac(near, t), gamma_vac(exact, t)) < 1e-3
        assert rel_diff(phi_factor(near, t), phi_factor(exact, t)) < 1e-3
        assert rel_diff(delta_factor(near, t), delta_factor(exact, t)) < 1e-3
        assert rel_diff(c_shift(near), c_shift(exact)) < 1e-3


def _central_fd(f, x, h=1e-5):
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_closed_derivatives_match_finite_differences(s):
    # every factor is linear in G, so its coupling slope is the factor at G = 1
    G, wc = 0.8, 1.7
    bath0 = BathState(0.0)
    unit = SpectralDensity(1.0, s, wc)
    for t in (0.6, 2.3):
        sd = SpectralDensity(G, s, wc)
        fd = _central_fd(lambda w: gamma_vac(SpectralDensity(G, s, w), t), wc)
        assert rel_diff(d_gamma_d_omega_c(sd, bath0, t), fd) < 1e-6
        fd = _central_fd(lambda g: gamma_vac(SpectralDensity(g, s, wc), t), G)
        assert rel_diff(gamma_vac(unit, t), fd) < 1e-6
        fd = _central_fd(lambda w: delta_factor(SpectralDensity(G, s, w), t), wc)
        assert rel_diff(d_delta_d_omega_c(sd, t), fd) < 1e-6
        fd = _central_fd(lambda g: delta_factor(SpectralDensity(g, s, wc), t), G)
        assert rel_diff(delta_factor(unit, t), fd) < 1e-6
        fd = _central_fd(lambda w: phi_factor(SpectralDensity(G, s, w), t), wc)
        assert rel_diff(d_phi_d_omega_c(sd, t), fd) < 1e-6
        fd = _central_fd(lambda g: phi_factor(SpectralDensity(g, s, wc), t), G)
        assert rel_diff(phi_factor(unit, t), fd) < 1e-6
        # the factor assembly's cutoff slope of C = G w_c Gamma(s)
        fd = _central_fd(lambda w: c_shift(SpectralDensity(G, s, w)), wc)
        assert rel_diff(G * math.gamma(s), fd) < 1e-6


def test_derivative_examples():
    one = ProbeConfig(1.0, SINGLE_QUBIT_PROBE)
    two = ProbeConfig(1.0, TWO_QUBIT_TRACED)
    bath0, hot = BathState(0.0), BathState(0.8)
    coupling = Estimand.COUPLING_STRENGTH
    assert factor_bundle(one, OHMIC, bath0, coupling, 1.0).d_gamma == pytest.approx(
        0.5 * math.log(2.0), rel=1e-12)
    assert d_gamma_d_omega_c(OHMIC, bath0, 0.0) == 0.0
    assert factor_bundle(two, OHMIC, bath0, coupling, 1.0).d_delta == pytest.approx(
        math.pi / 4.0 - 1.0, rel=1e-12)
    assert d_phi_d_omega_c(OHMIC, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert factor_bundle(two, OHMIC, hot, Estimand.TEMPERATURE, 1.0).d_delta == 0.0


def test_thermal_derivative_wrt_cutoff_matches_fd():
    sd = SpectralDensity(0.8, 0.5, 2.0)
    bath = BathState(1.3)
    t = 1.1
    fd = _central_fd(lambda w: gamma_th(SpectralDensity(0.8, 0.5, w), bath, t), 2.0)
    closed = d_gamma_d_omega_c(sd, bath, t)
    vac = _central_fd(lambda w: gamma_vac(SpectralDensity(0.8, 0.5, w), t), 2.0)
    assert rel_diff(closed - vac, fd) < 1e-6


def test_temperature_derivative_matches_analytic_integrand():
    # independent route: differentiate coth(w/(2T)) under the integral
    sd = SpectralDensity(0.6, 1.0, 3.0)
    T, t = 0.9, 1.4

    def integrand(w):
        csch = 1.0 / np.sinh(0.5 * w / T)
        return (spectral_density(sd, w) / w ** 2 * (1.0 - np.cos(w * t))
                * (0.5 * w / T ** 2) * csch ** 2)

    ref, _ = scipy_quad(integrand, 0.0, 150.0, limit=800, epsabs=1e-13, epsrel=1e-11)
    got = d_gamma_th_d_temperature(sd, BathState(T), t)
    assert rel_diff(got, ref) < 1e-6


def test_temperature_derivative_exact_zero_at_zero_temperature():
    # gamma_th vanishes like T**(s+1), so its slope at T = 0 is 0; just above
    # it the series derivative matches a central difference of the series
    sd = SpectralDensity(1.0, 1.0, 2.0)
    assert d_gamma_th_d_temperature(sd, BathState(0.0), 1.0) == 0.0
    T = 1e-3
    fd = _central_fd(lambda temp: gamma_th(sd, BathState(temp), 1.0), T, h=1e-5)
    assert rel_diff(d_gamma_th_d_temperature(sd, BathState(T), 1.0), fd,
                    floor=0.0) < 1e-6


# s = 1 and s = 2 are the poles of the series' tail integral; t spans the
# small-time O(t**2) regime to long times where the integrand oscillates
SERIES_S = [0.1, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 2.0 - 1e-9, 2.0,
            2.0 + 1e-9, 3.0, 4.0]


@pytest.mark.parametrize("s", SERIES_S)
def test_gamma_th_series_matches_quadrature(s):
    for wc in (0.5, 5.0):
        sd = SpectralDensity(1.0, s, wc)
        for T in (0.2, 1.0, 3.0):
            bath = BathState(T)
            for t in (1e-6, 1e-3, 1.0, 40.0, 500.0):
                q = quadrature_factor("gamma_th", sd, bath, t, rel_tol=1e-10)
                assert rel_diff(gamma_th(sd, bath, t), q.value, floor=0.0) < 1e-8, (
                    s, wc, T, t)


@pytest.mark.parametrize("s", SERIES_S)
def test_thermal_derivatives_match_quadrature_differences(s):
    def quad(wc, T, t):
        return quadrature_factor("gamma_th", SpectralDensity(1.0, s, wc),
                                 BathState(T), t, rel_tol=1e-11).value

    for wc in (0.5, 5.0):
        sd = SpectralDensity(1.0, s, wc)
        for T in (0.2, 3.0):
            bath = BathState(T)
            for t in (1e-6, 1.0, 500.0):
                fd = _central_fd(lambda temp: quad(wc, temp, t), T, h=1e-3 * T)
                got = d_gamma_th_d_temperature(sd, bath, t)
                assert rel_diff(got, fd, floor=0.0) < 1e-6, ("T", s, wc, T, t)
                fd = _central_fd(lambda w: quad(w, T, t), wc, h=1e-3 * wc)
                got = d_gamma_d_omega_c(sd, bath, t) - d_gamma_vac_d_omega_c(sd, t)
                assert rel_diff(got, fd, floor=0.0) < 1e-6, ("omega_c", s, wc, T, t)


def test_series_bound_past_tolerance_raises_with_point(monkeypatch):
    sd = SpectralDensity(0.7, 0.5, 5.0)
    bath = BathState(1.0)
    value = gamma_th(sd, bath, 200.0)
    monkeypatch.setattr(spectral, "GAMMA_TH_RTOL", 1e-16)
    for call in (lambda: gamma_th(sd, bath, 200.0),
                 lambda: d_gamma_th_d_temperature(sd, bath, 200.0),
                 lambda: d_gamma_d_omega_c(sd, bath, 200.0)):
        with pytest.raises(QuadratureError) as err:
            call()
        assert err.value.value == value
        assert 1e-16 < err.value.achieved_error <= 1e-10
        assert ("thermal series bound exceeds 1e-16 at s=0.5, w_c=5.0, T=1.0, t=200.0"
                in str(err.value))


def test_series_bound_is_far_below_the_fixed_tolerance():
    # at these Ohmicities over the README's ranges every finite bound is
    # under 1e-12, so GAMMA_TH_RTOL = 1e-10 refuses only the overflowing sums
    # of a hot bath; the cold window near s = 0.09 is the test below
    t = np.geomspace(1e-9, 1e9, 37)
    finite = 0
    for s in (1e-6, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 5.0, 100.0):
        for wc in np.geomspace(1e-8, 1e8, 9).tolist():
            for T in np.geomspace(1e-300, 1e300, 13).tolist():
                bound = spectral._bose_series(s, wc, 1.0 / T, t)[1]
                ok = np.isfinite(bound)
                assert (bound[ok] <= 1e-12).all(), (s, wc, T)
                assert ok.all() or T > 1.0, (s, wc, T)
                finite += int(ok.sum())
    # the sums overflow only from T = 1e10 on (s = 100, w_c >= 1e3) or 1e150
    assert finite > 0.7 * 8 * 9 * 13 * t.size


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="on a bath this cold x = t / a_n is so small that the "
                          "Bose terms' x**2 is a subnormal number")
def test_series_keeps_its_sign_on_the_coldest_baths():
    # gamma_th is about 1e-172 here, against a vacuum exponent of 1e3, but
    # it must not change sign; at t = 1957944.87 the same window drives the
    # series bound to 4.4e-8, and gamma_th refuses that time
    sd = SpectralDensity(1.0, 0.0898567217, 8.299882419966535e-4)
    bath = BathState(1.1914779238886422e-167)
    assert gamma_th(sd, bath, 1762150.3863389278) >= 0.0


def test_gamma_un_combines_parts():
    # the uncorrelated exponent that the two-qubit state reads
    from bathprobe.dynamics import ProbeConfig, dephasing_factors
    sd = SpectralDensity(0.5, 1.0, 2.0)
    bath = BathState(0.8)
    assert dephasing_factors(ProbeConfig(), sd, bath, 1.5).gamma_un == pytest.approx(
        gamma_vac(sd, 1.5) + gamma_th(sd, bath, 1.5), rel=1e-14)


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

GRID_FORMS = {
    "gamma_vac": lambda sd, bath, t: gamma_vac(sd, t),
    "gamma_th": lambda sd, bath, t: gamma_th(sd, bath, t),
    "delta": lambda sd, bath, t: delta_factor(sd, t),
    "phi": lambda sd, bath, t: phi_factor(sd, t),
    "d_gamma_vac_d_omega_c": lambda sd, bath, t: d_gamma_vac_d_omega_c(sd, t),
    "d_phi_d_omega_c": lambda sd, bath, t: d_phi_d_omega_c(sd, t),
    "d_delta_d_omega_c": lambda sd, bath, t: d_delta_d_omega_c(sd, t),
    "d_gamma_th_d_temperature": lambda sd, bath, t: d_gamma_th_d_temperature(sd, bath, t),
    "d_gamma_d_omega_c": lambda sd, bath, t: d_gamma_d_omega_c(sd, bath, t),
}


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_grid_forms_equal_their_scalar_calls(s, temperature):
    rng = np.random.default_rng(31)
    ts = np.concatenate([[0.0], np.exp(rng.uniform(math.log(1e-6), math.log(500.0), 40))])
    sd, bath = SpectralDensity(0.9, s, 2.5), BathState(temperature)
    for name, form in GRID_FORMS.items():
        grid = form(sd, bath, ts)
        assert isinstance(grid, np.ndarray) and grid.shape == ts.shape, name
        assert form(sd, bath, np.array([])).shape == (0,), name
        for k, t in enumerate(ts.tolist()):
            one = form(sd, bath, t)
            assert isinstance(one, float), name
            assert abs(grid[k] - one) <= 1e-14 * max(abs(grid[k]), abs(one)), (name, t)


def test_time_must_be_a_non_negative_scalar_or_grid():
    for t in (-1.0, math.nan, np.array([1.0, -0.5]), np.ones((2, 2))):
        for form in GRID_FORMS.values():
            with pytest.raises(ValueError):
                form(OHMIC, BathState(0.5), t)
