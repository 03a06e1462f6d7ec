"""Fisher information: closed form vs spectral definition, optimal measurement."""

import math

import numpy as np
import pytest

from bathprobe.dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                                TWO_QUBIT_TRACED, ProbeConfig, QubitState,
                                reduced_qubit_state)
from bathprobe.fisher import (Estimand, FisherCurve, MeasurementUnderflowError,
                              cfi, cfi_born, factor_bundle, optimal_angle,
                              optimize_qfi_over_time, qfi_closed, qfi_curve,
                              qfi_from_bundle, qfi_spectral, state_derivative)
from bathprobe.spectral import BathState, SpectralDensity

OHMIC = SpectralDensity(1.0, 1.0, 1.0)
SCHEMES = (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)
INITIALS = (FACTORIZED, CORRELATED)


def rel_diff(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def sample_point(rng, estimand=None):
    sd = SpectralDensity(float(np.exp(rng.uniform(math.log(0.05), math.log(2.0)))),
                         float(rng.uniform(0.3, 2.5)),
                         float(np.exp(rng.uniform(math.log(0.5), math.log(5.0)))))
    temperature = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 2.0))
    est = estimand or list(Estimand)[rng.integers(3)]
    if est is Estimand.TEMPERATURE and temperature == 0.0:
        temperature = float(rng.uniform(0.2, 2.0))
    cfg = ProbeConfig(1.0, SCHEMES[rng.integers(2)], INITIALS[rng.integers(2)])
    t = float(np.exp(rng.uniform(math.log(0.1), math.log(8.0))))
    return cfg, sd, BathState(temperature), est, t


def test_qfi_trivial_zeros():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    assert qfi_closed(cfg, OHMIC, BathState(0.0), Estimand.CUTOFF_FREQUENCY, 0.0) == 0.0
    # decoupled bath: the state carries no trace of the cutoff or temperature
    free = SpectralDensity(0.0, 1.0, 1.0)
    bath = BathState(1.0)
    for est in (Estimand.CUTOFF_FREQUENCY, Estimand.TEMPERATURE):
        for t in (0.5, 4.0):
            for initial in INITIALS:
                c = ProbeConfig(1.0, TWO_QUBIT_TRACED, initial)
                assert qfi_closed(c, free, bath, est, t) == 0.0


def test_estimands_require_positive_true_values():
    # G = 0 makes coupling estimation non-regular (the small eigenvalue
    # vanishes linearly in G), exactly like T = 0 for temperature
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    free = SpectralDensity(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        qfi_closed(cfg, free, BathState(1.0), Estimand.COUPLING_STRENGTH, 0.5)


def test_temperature_estimand_requires_finite_temperature():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    with pytest.raises(ValueError):
        qfi_closed(cfg, OHMIC, BathState(0.0), Estimand.TEMPERATURE, 1.0)


def test_factor_bundle_takes_estimand_or_its_value():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    bath = BathState(0.7)
    for est in Estimand:
        assert (factor_bundle(cfg, OHMIC, bath, est.value, 1.3)
                == factor_bundle(cfg, OHMIC, bath, est, 1.3))
    with pytest.raises(ValueError):
        factor_bundle(cfg, OHMIC, bath, "cutoff", 1.3)


def test_qfi_closed_matches_spectral_definition():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(40):
        cfg, sd, bath, est, t = sample_point(rng)
        closed = qfi_closed(cfg, sd, bath, est, t)
        state = reduced_qubit_state(cfg, sd, bath, t)
        d_state = state_derivative(cfg, sd, bath, est, t)
        spectral = qfi_spectral(state, d_state).value
        worst = max(worst, rel_diff(closed, spectral, floor=1e-10))
    assert worst < 1e-5


def test_qfi_spectral_trivial_inputs():
    state = reduced_qubit_state(ProbeConfig(), OHMIC, BathState(0.0), 1.0)
    res = qfi_spectral(state, np.zeros((2, 2)))
    assert res.value == 0.0
    mixed = QubitState(0.5, 0.0, 0.0, 0.5)
    res = qfi_spectral(mixed, np.zeros((2, 2)))
    assert res.value == 0.0
    assert res.degenerate


def test_cfi_examples():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    bath = BathState(0.0)
    assert cfi(cfg, OHMIC, bath, Estimand.COUPLING_STRENGTH, 0.0, 0.3) == 0.0
    # factorized: angle w0*t makes the measurement optimal
    for t in (0.4, 1.7, 6.0):
        q = qfi_closed(cfg, OHMIC, bath, Estimand.COUPLING_STRENGTH, t)
        c = cfi(cfg, OHMIC, bath, Estimand.COUPLING_STRENGTH, t, cfg.omega_0 * t)
        assert rel_diff(c, q) < 1e-12


def test_cfi_never_exceeds_qfi():
    rng = np.random.default_rng(18)
    for _ in range(25):
        cfg, sd, bath, est, t = sample_point(rng)
        q = qfi_closed(cfg, sd, bath, est, t)
        b = factor_bundle(cfg, sd, bath, est, t)
        from bathprobe.fisher import cfi_from_bundle
        for phi in rng.uniform(0.0, 2.0 * math.pi, 40):
            assert cfi_from_bundle(b, cfg.omega_0, t, float(phi)) <= q * (1.0 + 1e-10)


def test_optimal_angle_attains_qfi():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(30):
        cfg, sd, bath, est, t = sample_point(rng)
        q = qfi_closed(cfg, sd, bath, est, t)
        if q < 1e-12:
            continue
        ang = optimal_angle(cfg, sd, bath, est, t)
        c = cfi(cfg, sd, bath, est, t, ang)
        assert rel_diff(c, q) < 1e-8
        checked += 1
    assert checked > 10


def test_optimal_angle_factorized_is_free_phase():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    for t in (0.3, 2.0):
        ang = optimal_angle(cfg, OHMIC, BathState(0.0), Estimand.CUTOFF_FREQUENCY, t)
        assert ang == pytest.approx(cfg.omega_0 * t, rel=1e-13)


def test_optimal_angle_zero_coupling_defined():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    free = SpectralDensity(0.0, 1.0, 1.0)
    ang = optimal_angle(cfg, free, BathState(1.0), Estimand.CUTOFF_FREQUENCY, 1.0)
    assert math.isfinite(ang)
    assert cfi(cfg, free, BathState(1.0), Estimand.CUTOFF_FREQUENCY, 1.0, ang) == 0.0


def test_zero_temperature_correlated_equality():
    # nonzero level-shift derivative exercises the full angle formula
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    sd = SpectralDensity(0.5, 0.5, 2.0)
    bath = BathState(0.0)
    for t in (0.5, 2.5):
        b = factor_bundle(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, t)
        assert b.d_chi != 0.0
        q = qfi_closed(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, t)
        ang = optimal_angle(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, t)
        c = cfi(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, t, ang)
        assert rel_diff(c, q) < 1e-8


def test_cfi_born_rule_cross_check():
    rng = np.random.default_rng(20)
    for _ in range(8):
        cfg, sd, bath, est, t = sample_point(rng)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        a = cfi(cfg, sd, bath, est, t, phi)
        b = cfi_born(cfg, sd, bath, est, t, phi)
        assert rel_diff(a, b, floor=1e-8) < 1e-4


def test_cfi_born_underflow_guard():
    # nearly pure state measured almost orthogonally to its Bloch vector
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    sd = SpectralDensity(1e-6, 1.0, 1.0)
    t = 1e-5
    with pytest.raises(MeasurementUnderflowError):
        cfi_born(cfg, sd, BathState(0.0), Estimand.CUTOFF_FREQUENCY, t,
                 cfg.omega_0 * t + math.pi)


def test_single_qubit_reduction_identity():
    # the single-qubit QFI is the general formula with the interaction phase
    # forced to zero, on identical remaining inputs
    rng = np.random.default_rng(27)
    for _ in range(15):
        _, sd, bath, est, t = sample_point(rng)
        cfg1 = ProbeConfig(1.0, SINGLE_QUBIT_PROBE, CORRELATED)
        b = factor_bundle(cfg1, sd, bath, est, t)
        assert b.delta == 0.0 and b.d_delta == 0.0
        direct = (b.d_gamma ** 2 / math.expm1(2.0 * b.gamma)
                  + b.d_chi ** 2 * math.exp(-2.0 * b.gamma)) if b.gamma > 0 else None
        if direct is not None:
            assert rel_diff(qfi_from_bundle(b), direct) < 1e-12


def test_deep_decoherence_does_not_overflow():
    # strong coupling at long hot times pushes the exponent past the range
    # of exp(2*Gamma); the formulas must degrade to 0 gracefully
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    sd = SpectralDensity(3.0, 0.3, 8.0)
    bath = BathState(4.0)
    t = 15.0
    b = factor_bundle(cfg, sd, bath, Estimand.TEMPERATURE, t)
    assert b.gamma > 350.0
    q = qfi_closed(cfg, sd, bath, Estimand.TEMPERATURE, t)
    assert q == 0.0 or 0.0 < q < 1e-200
    ang = optimal_angle(cfg, sd, bath, Estimand.TEMPERATURE, t)
    assert math.isfinite(ang)
    assert cfi(cfg, sd, bath, Estimand.TEMPERATURE, t, ang) <= q


def test_optimize_flat_when_uninformative():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    free = SpectralDensity(0.0, 1.0, 1.0)
    opt = optimize_qfi_over_time(cfg, free, BathState(1.0),
                                 Estimand.CUTOFF_FREQUENCY, 10.0)
    assert opt.f_star == 0.0
    assert opt.flat


def test_optimize_two_qubit_unbounded_growth():
    # weak-coupling Ohmic bath: the two-qubit information keeps accumulating,
    # the single-qubit optimum saturates early
    sd = SpectralDensity(0.1, 1.0, 1.0)
    bath = BathState(0.0)
    est = Estimand.CUTOFF_FREQUENCY
    cfg2 = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    opt10 = optimize_qfi_over_time(cfg2, sd, bath, est, 10.0)
    opt20 = optimize_qfi_over_time(cfg2, sd, bath, est, 20.0)
    assert opt10.boundary_hit and opt20.boundary_hit
    assert opt20.f_star > opt10.f_star
    cfg1 = ProbeConfig(1.0, SINGLE_QUBIT_PROBE, CORRELATED)
    s10 = optimize_qfi_over_time(cfg1, sd, bath, est, 10.0)
    s20 = optimize_qfi_over_time(cfg1, sd, bath, est, 20.0)
    assert not s10.boundary_hit and not s20.boundary_hit
    assert rel_diff(s10.f_star, s20.f_star) < 0.01


def test_optimize_refines_interior_maximum():
    sd = SpectralDensity(1.0, 1.0, 1.0)
    cfg = ProbeConfig(1.0, SINGLE_QUBIT_PROBE, FACTORIZED)
    opt = optimize_qfi_over_time(cfg, sd, BathState(0.0),
                                 Estimand.COUPLING_STRENGTH, 30.0, 96)
    assert not opt.boundary_hit
    # the refined point beats its coarse neighbours
    for dt in (0.97, 1.03):
        assert qfi_closed(cfg, sd, BathState(0.0), Estimand.COUPLING_STRENGTH,
                          opt.t_star * dt) <= opt.f_star * (1.0 + 1e-9)


def test_fisher_curve_validation():
    with pytest.raises(ValueError):
        FisherCurve(Estimand.CUTOFF_FREQUENCY, np.array([1.0, 0.5]),
                    np.array([0.0, 0.0]))
    curve = qfi_curve(ProbeConfig(), OHMIC, BathState(0.0),
                      Estimand.CUTOFF_FREQUENCY, np.linspace(0.1, 2.0, 8))
    assert np.all(curve.qfi >= 0.0)
