"""Fisher information: closed form vs spectral definition, optimal measurement."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bathprobe.dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                                TWO_QUBIT_TRACED, ProbeConfig, QubitState,
                                dephasing_factors, reduced_qubit_state)
from bathprobe.cli import FIG8_OHMICITIES, FIGURE_PRESETS, VARIANTS
from bathprobe.fisher import (Estimand, FisherCurve, FisherOptimum,
                              MeasurementUnderflowError, cfi, cfi_born,
                              cfi_from_bundle, factor_bundle, optimal_angle,
                              optimal_angle_from_bundle, optimize_qfi_over_time,
                              qfi_closed, qfi_curve, qfi_from_bundle,
                              qfi_spectral, state_derivative)
from bathprobe.spectral import (BathState, NumericalError, SpectralDensity,
                                d_gamma_dx)

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


def same_within(got, want, scale=0.0):
    return abs(got - want) <= 1e-14 * max(abs(got), abs(want), scale)


DERIVATIVE_KEY = {Estimand.CUTOFF_FREQUENCY: "omega_c",
                  Estimand.COUPLING_STRENGTH: "G", Estimand.TEMPERATURE: "T"}


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_grid_bundles_equal_their_scalar_calls(s, temperature):
    rng = np.random.default_rng([29, int(1e9 * s) % 1000, int(10 * temperature)])
    sd, bath = SpectralDensity(0.6, s, 1.7), BathState(temperature)
    ts = np.concatenate([[0.0], np.exp(rng.uniform(math.log(1e-4), math.log(60.0), 24))])
    for scheme in SCHEMES:
        for initial in INITIALS:
            cfg = ProbeConfig(1.3, scheme, initial)
            fac = dephasing_factors(cfg, sd, bath, ts)
            for k, t in enumerate(ts.tolist()):
                one = dephasing_factors(cfg, sd, bath, t)
                for name in ("gamma_vac", "gamma_th", "gamma_corr", "delta", "phi",
                             "chi"):
                    assert same_within(getattr(fac, name)[k],
                                       getattr(one, name)), (name, t)
            for est in Estimand:
                if est is Estimand.TEMPERATURE and bath.zero_temperature:
                    continue
                grid = factor_bundle(cfg, sd, bath, est, ts)
                for k, t in enumerate(ts.tolist()):
                    one = factor_bundle(cfg, sd, bath, est, t)
                    # d_gamma adds the correlation slope to the uncorrelated
                    # one, and the two can nearly cancel: compare it at the
                    # size of its parts
                    parts = abs(d_gamma_dx(sd, bath, t, DERIVATIVE_KEY[est]))
                    for name in ("gamma", "delta", "chi", "d_gamma", "d_delta", "d_chi"):
                        scale = parts if name == "d_gamma" else 0.0
                        assert same_within(getattr(grid, name)[k], getattr(one, name),
                                           scale), (scheme, initial, est, name, t)


def test_bundle_formulas_take_time_grids():
    rng = np.random.default_rng(28)
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    sd, bath = SpectralDensity(0.7, 0.8, 2.0), BathState(0.6)
    ts = np.sort(rng.uniform(0.05, 6.0, 17))
    for est in Estimand:
        grid = factor_bundle(cfg, sd, bath, est, ts)
        angles = optimal_angle_from_bundle(grid, cfg.omega_0, ts)
        assert isinstance(qfi_from_bundle(grid), np.ndarray)
        for k, t in enumerate(ts.tolist()):
            b = factor_bundle(cfg, sd, bath, est, t)
            assert isinstance(b.gamma, float) and isinstance(qfi_from_bundle(b), float)
            for got, want in ((qfi_from_bundle(grid)[k], qfi_from_bundle(b)),
                              (angles[k], optimal_angle_from_bundle(b, 1.0, t)),
                              (cfi_from_bundle(grid, 1.0, ts, 0.3)[k],
                               cfi_from_bundle(b, 1.0, t, 0.3))):
                assert rel_diff(got, want, floor=0.0) <= 1e-14
    # t = 0 carries no information and is never evaluated
    est, grid = Estimand.CUTOFF_FREQUENCY, np.array([0.0, 1.0])
    assert qfi_closed(cfg, sd, bath, est, grid)[0] == 0.0
    assert cfi(cfg, sd, bath, est, grid, 0.2)[0] == 0.0


def test_non_finite_bundle_names_the_point():
    # G Gamma(s) Re K overflows a double at long times
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    huge = SpectralDensity(1e308, 1.0, 1.0)
    with pytest.raises(NumericalError) as err:
        factor_bundle(cfg, huge, BathState(0.0), Estimand.CUTOFF_FREQUENCY,
                      np.array([1e-3, 1e4]))
    assert "s=1.0, w_c=1.0, T=0.0, t=10000.0" in str(err.value)


# ---------------------------------------------------------------------------
# the optimizer's tree-evaluated golden section against the point-by-point loop
# ---------------------------------------------------------------------------

def reference_optimum(cfg, sd, bath, estimand, t_max, grid_size, rel_tol,
                      rel_time_tol=1e-6):
    """The optimizer with a one-point-at-a-time golden-section loop, one
    scalar QFI per step: the reference whose iterates the tree-evaluated
    refinement keeps."""
    ts = np.geomspace(min(1e-3 / sd.cutoff, 0.5 * t_max), t_max, max(grid_size, 64))

    def f(t):
        return qfi_closed(cfg, sd, bath, estimand, t, rel_tol=rel_tol)

    vals = qfi_closed(cfg, sd, bath, estimand, ts, rel_tol=rel_tol)
    i = int(np.argmax(vals))
    if not np.any(vals > 0.0):
        return FisherOptimum(float(ts[0]), 0.0, False, flat=True)
    if i == ts.size - 1:
        return FisherOptimum(float(ts[-1]), float(vals[-1]), True)
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
    return FisherOptimum(float(best[1]), float(best[0]), False)


def figure_tasks(figure_id):
    """Every (cfg, sd, bath, scenario) optimization of a qfi-sweep figure."""
    scenario = FIGURE_PRESETS[figure_id].scenario
    scenarios = [scenario]
    if figure_id == "fig8":
        base = scenario.spectral
        scenarios = [replace(scenario,
                             spectral=SpectralDensity(base.coupling, s, base.cutoff))
                     for s in FIG8_OHMICITIES]
    for sc in scenarios:
        for value in sc.sweep_values().tolist():
            sd, bath = sc.at_sweep_value(value)
            for scheme, initial in VARIANTS:
                yield ProbeConfig(sc.probe.omega_0, scheme, initial), sd, bath, sc


@pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 9)])
def test_tree_refinement_keeps_the_golden_section_iterates(figure_id):
    # at T = 0 every step makes the same comparison as the scalar loop; on
    # the thermal figure a flat maximum may turn a near-tie the other way
    t_tol, f_tol = (1e-5, 1e-9) if figure_id == "fig8" else (0.0, 1e-13)
    refined = 0
    for cfg, sd, bath, sc in figure_tasks(figure_id):
        args = (cfg, sd, bath, sc.estimand, sc.t_max, sc.opt_grid)
        got = optimize_qfi_over_time(*args, rel_tol=sc.tolerance)
        want = reference_optimum(*args, rel_tol=sc.tolerance)
        assert got.boundary_hit == want.boundary_hit and got.flat == want.flat
        assert abs(got.t_star - want.t_star) <= t_tol * want.t_star, (cfg, sd, bath)
        assert rel_diff(got.f_star, want.f_star, floor=0.0) <= f_tol, (cfg, sd, bath)
        refined += not got.boundary_hit
    assert refined
