"""Fisher information: closed form vs spectral definition, optimal measurement."""

import math

import numpy as np
import pytest

from bathprobe import dynamics, spectral
from bathprobe.dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                                TWO_QUBIT_TRACED, ProbeConfig, QubitState,
                                dephasing_factors, reduced_qubit_state)
from bathprobe.cli import FIGURE_PRESETS, VARIANTS, run_figure
from bathprobe.correlations import corr_factors_from_parts
from bathprobe.fisher import (Estimand, FisherOptimum, cfi, cfi_from_bundle,
                              factor_bundle, optimal_angle, optimal_angle_from_bundle,
                              optimize_qfi_over_time, optimize_variants, qfi_closed,
                              qfi_from_bundle)
from bathprobe.quadrature import QuadratureError
from bathprobe.spectral import (BathState, NumericalError, SpectralDensity, c_shift,
                                delta_factor, gamma_th, gamma_vac, phi_factor)
from bathprobe.verify import (MeasurementUnderflowError, cfi_born, qfi_spectral,
                              state_derivative)

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


def same_within(got, want, scale=0.0):
    return abs(got - want) <= 1e-14 * max(abs(got), abs(want), scale)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_grid_bundles_equal_their_scalar_calls(s, temperature):
    rng = np.random.default_rng([29, int(1e9 * s) % 1000, int(10 * temperature)])
    sd, bath = SpectralDensity(0.6, s, 1.7), BathState(temperature)
    ts = np.concatenate([[0.0], np.exp(rng.uniform(math.log(1e-4), math.log(60.0), 24))])
    uncorrelated = ProbeConfig(1.3, SINGLE_QUBIT_PROBE, FACTORIZED)
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
                    parts = abs(factor_bundle(uncorrelated, sd, bath, est, t).d_gamma)
                    for name in ("gamma", "delta", "chi", "d_gamma", "d_delta", "d_chi"):
                        scale = parts if name == "d_gamma" else 0.0
                        assert same_within(getattr(grid, name)[k], getattr(one, name),
                                           scale), (scheme, initial, est, name, t)


@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_coupling_slopes_are_unit_coupling_factors(temperature):
    # every factor is linear in G: the coupling-estimand bundle reads the
    # factors at G = 1 with the same arithmetic, so the slopes are equal exactly
    sd, bath = SpectralDensity(0.6, 0.7, 1.7), BathState(temperature)
    unit = SpectralDensity(1.0, sd.ohmicity, sd.cutoff)
    ts = np.array([0.0, 0.3, 1.7, 12.0])
    d_uncorrelated = gamma_vac(unit, ts) + gamma_th(unit, bath, ts)
    for scheme in SCHEMES:
        for initial in INITIALS:
            cfg = ProbeConfig(1.3, scheme, initial)
            b = factor_bundle(cfg, sd, bath, Estimand.COUPLING_STRENGTH, ts)
            d_delta = delta_factor(unit, ts) if scheme == TWO_QUBIT_TRACED else 0.0 * ts
            assert np.array_equal(b.d_delta, d_delta), (scheme, initial)
            d_gamma, d_chi = d_uncorrelated, 0.0 * ts
            if initial == CORRELATED:
                corr = corr_factors_from_parts(
                    c_shift(sd), phi_factor(sd, ts), bath.beta, cfg.omega_0, cfg.scheme,
                    c_shift(unit), phi_factor(unit, ts))
                d_gamma, d_chi = d_gamma + corr.d_gamma_corr, corr.d_chi
            assert np.array_equal(b.d_gamma, d_gamma), (scheme, initial)
            assert np.array_equal(b.d_chi, d_chi), (scheme, initial)


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
    # in a lockstep over two (sd, bath), the error names the failing one's
    # own w_c and one of its own times, as floats
    pairs = [(SpectralDensity(0.5, 1.0, 2.0), BathState(0.0)), (huge, BathState(0.0))]
    with pytest.raises(NumericalError) as err:
        optimize_variants([cfg], pairs, Estimand.CUTOFF_FREQUENCY, 1e4, 64)
    message = str(err.value)
    assert "s=1.0, w_c=1.0, T=0.0, t=" in message and "\n" not in message
    t = float(message.rsplit("t=", 1)[1])
    assert t in np.geomspace(1e-3, 1e4, 64)


def test_a_non_finite_factor_names_its_own_task_and_time(monkeypatch):
    # a NaN at one time of the second (sd, bath) of a two-pair assembly:
    # the error names that pair's own w_c and T and that time, whichever
    # column of the output holds it and however the pairs are ordered
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    pairs = [(SpectralDensity(0.5, 1.0, 2.0), BathState(0.7)),
             (SpectralDensity(0.5, 1.0, 3.0), BathState(0.4))]
    delta, poisoned = spectral.delta_factor, []

    def poisoned_delta(p, grid):
        out = delta(p, grid)
        second = np.flatnonzero(p.cutoff == 3.0)
        k = second[second.size // 2]
        out[k] = np.nan
        poisoned.append(float(grid.t[k]))
        return out

    monkeypatch.setattr(spectral, "delta_factor", poisoned_delta)
    tasks = [(cfg, sd, bath) for sd, bath in pairs]
    # the second pair's times come first and unsorted
    owner, t = np.array([1, 1, 1, 0, 0, 0]), np.array([0.9, 0.3, 2.5, 0.4, 1.1, 3.0])
    with pytest.raises(NumericalError) as err:
        dynamics._assemble(tasks, owner, t)
    assert poisoned == [0.9]
    assert str(err.value).endswith("s=1.0, w_c=3.0, T=0.4, t=0.9")
    with pytest.raises(NumericalError) as err:
        optimize_variants([cfg], pairs, Estimand.CUTOFF_FREQUENCY, 10.0, 64)
    assert str(err.value).endswith(f"s=1.0, w_c=3.0, T=0.4, t={poisoned[-1]!r}")


def test_every_gamma_th_call_at_zero_temperature_says_so(monkeypatch):
    # bench/spans.py counts a gamma_th call whose bath has zero_temperature
    # apart from the thermal route; at T = 0 every call must carry it
    cfgs = [ProbeConfig(1.0, scheme, initial) for scheme in SCHEMES for initial in INITIALS]
    pairs = [(SpectralDensity(0.5, 1.0, 2.0), BathState(0.0)),
             (SpectralDensity(0.8, 1.0, 3.0), BathState(0.0))]
    thermal, baths = spectral.gamma_th, []

    def recorded(sd, bath, t):
        baths.append(bath)
        return thermal(sd, bath, t)

    monkeypatch.setattr(spectral, "gamma_th", recorded)
    for cfg in cfgs:
        factor_bundle(cfg, *pairs[0], Estimand.CUTOFF_FREQUENCY, np.array([0.5, 2.0]))
    lone = len(baths)
    optimize_variants(cfgs, pairs, Estimand.COUPLING_STRENGTH, 10.0, 16)
    assert 0 < lone < len(baths)
    assert all(bath.zero_temperature is True for bath in baths)


# ---------------------------------------------------------------------------
# the optimizer returns the maximum over time, not a lower peak
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 9)])
def test_each_optimum_beats_fine_scans_of_its_range(figure_id):
    # the bath-induced phase Delta ~ -C t makes the two-qubit QFI oscillate
    # with period pi / C: each two-qubit optimum is at least the best of a
    # linear scan at spacing pi / (64 C) over the last four periods before
    # t_max, where lower peaks sit next to the highest one; and every
    # optimum is at least the best of 257 points within 1 % of t_star
    cfgs = [ProbeConfig(1.0, *variant) for variant in VARIANTS]
    for _name, _command, sc in FIGURE_PRESETS[figure_id]:
        pairs = [sc.at_sweep_value(v) for v in sc.sweep_values().tolist()]
        optima = optimize_variants(cfgs, pairs, sc.estimand, sc.t_max, sc.opt_grid)
        for (sd, bath), opts in zip(pairs, optima):
            period, start = math.pi / c_shift(sd), min(1e-3 / sd.cutoff, 0.5 * sc.t_max)
            lo = max(sc.t_max - 4.0 * period, start)
            periods = np.linspace(lo, sc.t_max, math.ceil(64.0 * (sc.t_max - lo) / period) + 1)
            for cfg, opt in zip(cfgs, opts):
                near = np.linspace(max(0.99 * opt.t_star, start),
                                   min(1.01 * opt.t_star, sc.t_max), 257)
                scans = (near, periods) if cfg.scheme == TWO_QUBIT_TRACED else (near,)
                for ts in scans:
                    scan = qfi_closed(cfg, sd, bath, sc.estimand, ts).max()
                    assert opt.f_star >= (1.0 - 1e-9) * scan, (cfg, sd, opt, scan)
                assert opt.boundary_hit == (opt.t_star == sc.t_max)


def reference_optimum(cfg, sd, bath, estimand, t_max, grid_size, rel_time_tol=1e-6):
    """A one-point-at-a-time golden-section loop, one scalar QFI per step,
    that climbs the peak in the best bracket of the log scan: a reference
    optimum that the array search must reach or beat."""
    ts = np.geomspace(min(1e-3 / sd.cutoff, 0.5 * t_max), t_max, max(grid_size, 64))

    def f(t):
        return qfi_closed(cfg, sd, bath, estimand, t)

    vals = qfi_closed(cfg, sd, bath, estimand, ts)
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
    for _name, _command, sc in FIGURE_PRESETS[figure_id]:
        for value in sc.sweep_values().tolist():
            sd, bath = sc.at_sweep_value(value)
            for scheme, initial in VARIANTS:
                yield ProbeConfig(sc.probe.omega_0, scheme, initial), sd, bath, sc


@pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 9)])
def test_tree_refinement_keeps_the_golden_section_iterates(figure_id):
    # the array search keeps every optimum that golden-section refinement of
    # the best scan bracket finds: it is never lower (on the thermal figure a
    # flat maximum may turn a near-tie the other way), it reports a boundary
    # hit only where the loop stopped at t_max too, and where both climb the
    # same peak their t_star agree to the bracket width _TIME_TOL = 1e-6
    t_tol, f_tol = (1e-5, 1e-9) if figure_id == "fig8" else (1e-6, 1e-13)
    refined = 0
    for cfg, sd, bath, sc in figure_tasks(figure_id):
        args = (cfg, sd, bath, sc.estimand, sc.t_max, sc.opt_grid)
        got = optimize_qfi_over_time(*args)
        want = reference_optimum(*args)
        assert got.flat == want.flat and (want.boundary_hit or not got.boundary_hit)
        assert got.f_star >= (1.0 - f_tol) * want.f_star, (cfg, sd, bath)
        if rel_diff(got.f_star, want.f_star, floor=0.0) <= f_tol and not got.flat:
            assert abs(got.t_star - want.t_star) <= t_tol * want.t_star, (cfg, sd, bath)
            refined += not got.boundary_hit
    assert refined


def test_an_unresolvable_oscillation_is_a_numerical_error():
    # a super-Ohmic bath at T = 0: the two-qubit QFI keeps growing while it
    # oscillates with period pi / C = pi, so resolving its peaks up to
    # t_max = 1e6 takes more points than the fill may take; the scan alone
    # is evaluated before the error
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    sd, bath = SpectralDensity(1.0, 2.0, 1.0), BathState(0.0)
    assert not optimize_qfi_over_time(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, 1e5).flat
    with pytest.raises(NumericalError, match=r"oscillates too fast .* up to t=1000000.0$"):
        optimize_qfi_over_time(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, 1e6)


# ---------------------------------------------------------------------------
# the shared factor assembly and the lockstep optimizer
# ---------------------------------------------------------------------------

def field_bytes(fields):
    return tuple(np.asarray(v).tobytes() for v in fields)


def assembled(tasks, est):
    # the fields of tasks (cfg, sd, bath, t), their times laid end to end
    owner = np.repeat(np.arange(len(tasks)), [t.size for *_, t in tasks])
    times = np.concatenate([t for *_, t in tasks])
    return owner, dynamics._assemble([task[:3] for task in tasks], owner, times, est)


def fields_by_task(owner, fields, n_tasks):
    # the bytes of each task's fields over its own points
    return [field_bytes(fields[:, owner == k]) for k in range(n_tasks)]


def valid_for(est, sd, bath):
    return not ((est is Estimand.TEMPERATURE and bath.zero_temperature)
                or (est is Estimand.COUPLING_STRENGTH and sd.coupling == 0.0))


def test_shared_assembly_equals_the_per_config_assemblies():
    # every spectral form is elementwise, so evaluating it once on the
    # unions of the tasks' grids, laid end to end with (G, w_c, T) per point,
    # gives each task its own values bit for bit.  Pairs at G = 0, in the
    # cold limit or at another s are assembled apart; a -0 where a task
    # alone has 0 would show in the bytes.  Only grids of >= 2 points: numpy
    # sums the thermal series of a 1-point grid in another order, so at
    # T > 0 a lone time can differ from the same time inside a grid in the
    # last bits (about 1e-15 relative in the factors, more in a field whose
    # terms cancel).
    rng = np.random.default_rng(2024)
    cfgs = [ProbeConfig(float(rng.choice([1.0, 1.7])), scheme, initial)
            for scheme in SCHEMES for initial in INITIALS]
    for draw in range(40):
        s = float(rng.choice([rng.uniform(0.05, 4.0),
                              rng.integers(1, 4) + rng.choice([-1e-9, 0.0, 1e-9])]))
        pairs = []
        for _ in range(int(rng.integers(2, 6))):
            g = float(np.exp(rng.uniform(math.log(0.01), math.log(2.0))))
            pairs.append((SpectralDensity(g if rng.random() < 0.9 else 0.0,
                                          s if rng.random() < 0.9 else s + 0.5,
                                          float(rng.uniform(0.5, 5.0))),
                          BathState(float(rng.choice([0.0, 1e-320, *rng.uniform(0.2, 3.0, 6)])))))
        shared = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(30.0), 9)))
        tasks = []
        for sd, bath in pairs:
            for i in rng.permutation(4)[:int(rng.integers(1, 5))]:
                # shared grids, and distinct grids that overlap the shared one
                grid = shared if rng.random() < 0.4 else np.concatenate(
                    [shared[:int(rng.integers(0, 9))],
                     np.exp(rng.uniform(math.log(1e-3), math.log(30.0),
                                        int(rng.integers(2, 12))))])
                tasks.append((cfgs[i], sd, bath, grid))
        # a config whose times are those of every pair, but not in pair order
        tasks.append((cfgs[0], *pairs[-1], shared))
        tasks += [(cfgs[0], sd, bath, shared) for sd, bath in pairs[:-1]]
        assert_assembled_alike(tasks, draw)
    # one fixed draw: at T = 1e-3 (beta w0 > 700) the correlation weights e
    # and q underflow, at T = 1e-160 beta**2 overflows; both sit in one
    # lockstep with ordinary temperatures, and their phases wind through
    # every quadrant, where a zero slope takes either sign
    pairs = [(SpectralDensity(g, 0.73, wc), BathState(T)) for g, wc, T in (
        (1.2, 2.0, 1e-160), (0.4, 1.0, 0.4), (1.5, 3.0, 1e-3), (0.8, 1.5, 2.5))]
    grids = (np.array([0.0, 0.2, 1.5, 4.0, 9.0, 25.0]), np.array([0.2, 3.0, 12.0]))
    assert_assembled_alike([(cfg, sd, bath, grids[i % 2]) for sd, bath in pairs
                            for i, cfg in enumerate(cfgs)], "extremes")


def assert_assembled_alike(tasks, draw):
    for est in (None, *Estimand):
        picked = [task for task in tasks if valid_for(est, *task[1:3])]
        together = fields_by_task(*assembled(picked, est), len(picked))
        alone = [field_bytes(assembled([task], est)[1]) for task in picked]
        assert together == alone, (draw, est)


def sweep_pairs(variable, sd, bath, values):
    if variable == "cutoff":
        return [(SpectralDensity(sd.coupling, sd.ohmicity, v), bath) for v in values]
    if variable == "coupling":
        return [(SpectralDensity(v, sd.ohmicity, sd.cutoff), bath) for v in values]
    return [(sd, BathState(v)) for v in values]


def seeded_sweeps():
    # cutoff and coupling sweeps at T = 0 and T > 0 and temperature sweeps,
    # every estimand each admits, s at integers +- 1e-9 and in between
    rng = np.random.default_rng(77)
    cases = []
    for variable, lo, hi in (("cutoff", 0.5, 4.0), ("coupling", 0.05, 1.5),
                             ("temperature", 0.2, 3.0)):
        for warm in (False, True):
            if variable == "temperature" and not warm:
                continue
            for est in Estimand:
                if est is Estimand.TEMPERATURE and not warm:
                    continue
                s = float(rng.choice([rng.integers(1, 4) + rng.choice([-1e-9, 1e-9]),
                                      rng.uniform(0.2, 3.0)]))
                sd = SpectralDensity(float(rng.uniform(0.05, 1.0)), s,
                                     float(rng.uniform(0.5, 4.0)))
                bath = BathState(float(rng.uniform(0.2, 2.0)) if warm else 0.0)
                values = np.sort(rng.uniform(lo, hi, 3)).tolist()
                cases.append((f"{variable}-T{int(warm)}-{est.value}",
                              sweep_pairs(variable, sd, bath, values), est,
                              float(rng.uniform(5.0, 30.0))))
    return cases


def sweep_cases():
    # (sweeps, whether one sweep value mixes boundary hits and refined optima)
    for figure_id in [f"fig{i}" for i in range(1, 9)]:
        sweeps = [([sc.at_sweep_value(v) for v in sc.sweep_values().tolist()],
                   sc.estimand, sc.t_max, sc.opt_grid)
                  for _name, _command, sc in FIGURE_PRESETS[figure_id]]
        yield pytest.param(sweeps, figure_id == "fig7", id=figure_id)
    for case_id, pairs, est, t_max in seeded_sweeps():
        yield pytest.param([(pairs, est, t_max, 64)], False, id=case_id)
    # three assembly classes in every round: warm, cold (1/T overflows) and G = 0
    pairs = [(SpectralDensity(0.4, 0.73, 2.0), BathState(T)) for T in (1e-320, 0.5, 1.5)]
    pairs.append((SpectralDensity(0.0, 0.73, 2.0), BathState(0.5)))
    yield pytest.param([(pairs, Estimand.CUTOFF_FREQUENCY, 15.0, 64)], False,
                       id="mixed-classes")


@pytest.mark.parametrize("sweeps,mixed", sweep_cases())
def test_lockstep_optimizer_equals_one_optimization_per_variant(sweeps, mixed):
    # a whole sweep, every value and variant in one lockstep, gives the
    # optima of one optimization per value and variant
    cfgs = [ProbeConfig(1.0, *variant) for variant in VARIANTS]
    hits = set()
    for pairs, est, t_max, grid in sweeps:
        together = optimize_variants(cfgs, pairs, est, t_max, grid)
        alone = [[optimize_qfi_over_time(cfg, sd, bath, est, t_max, grid)
                  for cfg in cfgs] for sd, bath in pairs]
        assert together == alone
        hits |= {tuple(opt.boundary_hit for opt in opts) for opts in together}
    # fig7 has a sweep value that mixes boundary hits with refined optima
    assert any(len(set(h)) == 2 for h in hits) or not mixed


@pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 10)])
def test_a_figure_refines_many_steps_per_assembly(figure_id, tmp_path, monkeypatch):
    # a qfi-sweep scans in one assembly, fills where the two-qubit phase
    # turns faster than the scan resolves in a second, then refines every
    # open bracket of every optimization per assembly, shrinking each at
    # least 16-fold (4-5 assemblies per fig1-fig8 file); one optimization
    # at a time would take over ten times as many, with every optimum the
    # same
    assemble, calls = dynamics._assemble, []

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_assemble", counting)
    paths = run_figure(figure_id, tmp_path)
    assert 0 < len(calls) <= 7 * len(paths)


def test_zero_coupling_sweep_equals_the_per_value_runs():
    # a cutoff sweep at G = 0 carries no information: flat optima, each the
    # per-value optimization's, and no -0 anywhere
    cfgs = [ProbeConfig(1.0, *variant) for variant in VARIANTS]
    for bath in (BathState(0.0), BathState(0.8)):
        pairs = sweep_pairs("cutoff", SpectralDensity(0.0, 0.5, 1.0), bath, [0.5, 1.5, 3.0])
        together = optimize_variants(cfgs, pairs, Estimand.CUTOFF_FREQUENCY, 10.0, 64)
        assert together == [[optimize_qfi_over_time(cfg, sd, b, Estimand.CUTOFF_FREQUENCY,
                                                    10.0, 64) for cfg in cfgs]
                            for sd, b in pairs]
        assert all(opt.flat and math.copysign(1.0, opt.f_star) == 1.0
                   for opts in together for opt in opts)


def test_an_error_in_a_later_round_leaves_the_lockstep(monkeypatch):
    # the scans pass, the first refinement round raises: the error reaches
    # the caller, as it would from one optimization at a time
    pairs = [(SpectralDensity(0.5, 1.0, 2.0), BathState(0.7))]
    cfgs = [ProbeConfig(1.0, *variant) for variant in VARIANTS]
    assemble, calls = dynamics._assemble, []

    def failing(*args, **kwargs):
        calls.append(np.unique(args[1]).size)  # the tasks present
        if len(calls) == 2:
            raise QuadratureError("thermal series bound exceeds 1e-10", 1.0, 1.0)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_assemble", failing)
    with pytest.raises(QuadratureError):
        optimize_variants(cfgs, pairs, Estimand.CUTOFF_FREQUENCY, 20.0, 64)
    assert calls == [4, 4]
