"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line; run with -s to see
them live.  Budgets are wall-clock seconds from the criteria list.
"""

import math
import time

import numpy as np

from bathprobe import oracle
from bathprobe.cli import Scenario, run_factors, run_qfi_sweep
from bathprobe.dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                                TWO_QUBIT_TRACED, ProbeConfig, dephasing_factors,
                                reduced_qubit_state)
from bathprobe.fisher import (Estimand, cfi_from_bundle, factor_bundle,
                              optimal_angle_from_bundle, optimize_qfi_over_time,
                              qfi_closed, qfi_from_bundle)
from bathprobe.oracle import (closed_form_coherence, compare_unitaries,
                              evolve_correlated, evolve_factorized,
                              prepare_correlated, required_n_max)
from bathprobe.quadrature import quadrature_factor
from bathprobe.spectral import (BathState, SpectralDensity, c_shift,
                                delta_factor, gamma_th, gamma_vac, phi_factor)
from bathprobe.verify import (_trace_second_qubit, qfi_spectral, state_derivative,
                              two_qubit_state)

SCHEMES = (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)
INITIALS = (FACTORIZED, CORRELATED)


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s of "
          f"{budget:.0f}s budget)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} overran: {elapsed:.1f}s"


def rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(b), floor)


def test_criterion_1_closed_forms_vs_quadrature():
    start = time.monotonic()
    closed = {
        "gamma_vac": lambda sd, bath, t: gamma_vac(sd, t),
        "delta": lambda sd, bath, t: delta_factor(sd, t),
        "phi": lambda sd, bath, t: phi_factor(sd, t),
        "c_shift": lambda sd, bath, t: c_shift(sd),
        "gamma_th": lambda sd, bath, t: gamma_th(sd, bath, t),
    }
    bath = BathState(1.0)  # thermal factor needs T > 0 to be nontrivial
    ts = np.linspace(0.0, 20.0, 51)[1:]
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        for wc in (1.0, 5.0):
            for G in (0.01, 1.0):
                sd = SpectralDensity(G, s, wc)
                for t in ts:
                    t = float(t)
                    for kind, fn in closed.items():
                        q = quadrature_factor(kind, sd, bath, t, rel_tol=1e-8)
                        err = abs(fn(sd, bath, t) - q.value) / max(abs(q.value), 1e-12)
                        worst = max(worst, err)
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-6, f"max relative factor error {worst:.2e} <= 1e-6",
           elapsed, 120.0)


def _random_point(rng):
    sd = SpectralDensity(float(np.exp(rng.uniform(math.log(0.05), math.log(2.0)))),
                         float(rng.uniform(0.3, 2.5)),
                         float(np.exp(rng.uniform(math.log(0.5), math.log(5.0)))))
    temperature = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 2.0))
    est = list(Estimand)[rng.integers(3)]
    if est is Estimand.TEMPERATURE and temperature == 0.0:
        temperature = float(rng.uniform(0.2, 2.0))
    cfg = ProbeConfig(1.0, SCHEMES[rng.integers(2)], INITIALS[rng.integers(2)])
    t = float(np.exp(rng.uniform(math.log(0.1), math.log(8.0))))
    return cfg, sd, BathState(temperature), est, t


def test_criterion_2_qfi_identity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        cfg, sd, bath, est, t = _random_point(rng)
        a = qfi_closed(cfg, sd, bath, est, t)
        state = reduced_qubit_state(cfg, sd, bath, t)
        b = qfi_spectral(state, state_derivative(cfg, sd, bath, est, t)).value
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-10))
    elapsed = time.monotonic() - start
    report(2, worst <= 1e-5, f"closed vs spectral max rel diff {worst:.2e} <= 1e-5",
           elapsed, 120.0)


def test_criterion_3_optimal_measurement():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    worst_eq = 0.0
    worst_dom = -math.inf
    points = 0
    while points < 40:
        cfg, sd, bath, est, t = _random_point(rng)
        bundle = factor_bundle(cfg, sd, bath, est, t)
        q = qfi_from_bundle(bundle)
        if q <= 1e-12:
            continue
        points += 1
        ang = optimal_angle_from_bundle(bundle, cfg.omega_0, t)
        c = cfi_from_bundle(bundle, cfg.omega_0, t, ang)
        worst_eq = max(worst_eq, abs(c - q) / q)
        for phi in rng.uniform(0.0, 2.0 * math.pi, 100):
            cc = cfi_from_bundle(bundle, cfg.omega_0, t, float(phi))
            worst_dom = max(worst_dom, (cc - q) / q)
    elapsed = time.monotonic() - start
    ok = worst_eq <= 1e-8 and worst_dom <= 1e-10
    report(3, ok, f"|CFI*-QFI|/QFI {worst_eq:.2e} <= 1e-8, "
                  f"max (CFI-QFI)/QFI {worst_dom:.2e} <= 1e-10",
           elapsed, 120.0)


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    fixtures = {"one-mode": oracle.FIXTURES["one-mode"],
                "three-mode": oracle.FIXTURES["three-mode"]}
    warm = BathState(1.0)
    zero = BathState(0.0)
    details = []
    ok = True

    # (a) product-form vs dense-exponential unitaries
    worst_unitary = 0.0
    for name, db in fixtures.items():
        for t in (0.5, 1.0, 2.0):
            rep = compare_unitaries(db, t)
            worst_unitary = max(worst_unitary, rep["max_diff"])
            ok = ok and rep["certified"]
    ok = ok and worst_unitary <= 1e-8
    details.append(f"unitary {worst_unitary:.1e}")

    # (b) factorized coherence, (c) correlated coherence, (d) partition function
    worst_fact_zero = worst_fact_warm = worst_corr = worst_z = 0.0
    for name, base in fixtures.items():
        for bath in (zero, warm):
            db = base.with_n_max(required_n_max(base, bath))
            prep = prepare_correlated(db, 1.0, bath)
            for t in (0.5, 1.0, 2.0, 4.0):
                fact = evolve_factorized(db, 1.0, bath, t)
                diff = abs(fact.reduced[0, 1]
                           - closed_form_coherence(db, 1.0, bath, t))
                if bath.zero_temperature:
                    worst_fact_zero = max(worst_fact_zero, diff)
                else:
                    worst_fact_warm = max(worst_fact_warm, diff)
                corr = evolve_correlated(db, 1.0, bath, t, preparation=prep)
                diff = abs(corr.reduced[0, 1]
                           - closed_form_coherence(db, 1.0, bath, t,
                                                   correlated=True))
                worst_corr = max(worst_corr, diff)
            if not bath.zero_temperature:
                worst_z = max(worst_z, abs(prep.z_ratio - 1.0))
    ok = ok and worst_fact_zero <= 1e-8 and worst_fact_warm <= 1e-6
    ok = ok and worst_corr <= 1e-6 and worst_z <= 1e-8
    details.append(f"factorized {worst_fact_zero:.1e}/{worst_fact_warm:.1e}")
    details.append(f"correlated {worst_corr:.1e}")
    details.append(f"Z {worst_z:.1e}")
    elapsed = time.monotonic() - start
    report(4, ok, ", ".join(details), elapsed, 300.0)


def _optimized(scheme, initial, sd, bath, est, t_max, grid=128):
    cfg = ProbeConfig(1.0, scheme, initial)
    return optimize_qfi_over_time(cfg, sd, bath, est, t_max, grid)


def test_criterion_5_weak_coupling_two_qubit_advantage():
    start = time.monotonic()
    bath = BathState(0.0)
    est = Estimand.CUTOFF_FREQUENCY
    min_ratio = math.inf
    max_gap = 0.0
    for wc in np.linspace(0.5, 3.0, 6):
        sd = SpectralDensity(0.01, 0.5, float(wc))
        two_c = _optimized(TWO_QUBIT_TRACED, CORRELATED, sd, bath, est, 1000.0, 192)
        two_u = _optimized(TWO_QUBIT_TRACED, FACTORIZED, sd, bath, est, 1000.0, 192)
        one_c = _optimized(SINGLE_QUBIT_PROBE, CORRELATED, sd, bath, est, 1000.0, 192)
        one_u = _optimized(SINGLE_QUBIT_PROBE, FACTORIZED, sd, bath, est, 1000.0, 192)
        min_ratio = min(min_ratio, two_c.f_star / one_c.f_star,
                        two_u.f_star / one_u.f_star)
        max_gap = max(max_gap, abs(two_c.f_star - two_u.f_star) / two_u.f_star)
    elapsed = time.monotonic() - start
    ok = min_ratio >= 100.0 and max_gap <= 0.01
    report(5, ok, f"min two/one ratio {min_ratio:.1f} >= 100, "
                  f"corr-vs-uncorr gap {max_gap:.2%} <= 1%",
           elapsed, 300.0)


def test_criterion_6_ohmic_growth_vs_bounded():
    start = time.monotonic()
    sd = SpectralDensity(0.1, 1.0, 1.0)
    bath = BathState(0.0)
    est = Estimand.CUTOFF_FREQUENCY
    cfg2 = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    vals = [qfi_closed(cfg2, sd, bath, est, float(t))
            for t in np.linspace(5.0, 20.0, 16)]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    s10 = _optimized(SINGLE_QUBIT_PROBE, CORRELATED, sd, bath, est, 10.0, 192)
    s20 = _optimized(SINGLE_QUBIT_PROBE, CORRELATED, sd, bath, est, 20.0, 192)
    change = abs(s20.f_star - s10.f_star) / s10.f_star
    elapsed = time.monotonic() - start
    ok = increasing and change < 0.01
    report(6, ok, f"two-qubit strictly increasing on [5,20]: {increasing}, "
                  f"single-qubit t_max 10->20 change {change:.2e} < 1%",
           elapsed, 120.0)


def test_criterion_7_coupling_sweep_scheme_comparison():
    start = time.monotonic()
    bath = BathState(0.0)
    est = Estimand.COUPLING_STRENGTH
    worst_unc = 0.0
    corr_exceeds = True
    for G in np.geomspace(0.2, 2.0, 7):
        sd = SpectralDensity(float(G), 0.1, 5.0)
        two_u = _optimized(TWO_QUBIT_TRACED, FACTORIZED, sd, bath, est, 20.0, 160)
        one_u = _optimized(SINGLE_QUBIT_PROBE, FACTORIZED, sd, bath, est, 20.0, 160)
        ratio = max(two_u.f_star / one_u.f_star, one_u.f_star / two_u.f_star)
        worst_unc = max(worst_unc, ratio)
        two_c = _optimized(TWO_QUBIT_TRACED, CORRELATED, sd, bath, est, 20.0, 160)
        one_c = _optimized(SINGLE_QUBIT_PROBE, CORRELATED, sd, bath, est, 20.0, 160)
        corr_exceeds = corr_exceeds and (two_c.f_star > one_c.f_star)
    elapsed = time.monotonic() - start
    ok = worst_unc < 2.0 and corr_exceeds
    report(7, ok, f"uncorrelated scheme ratio {worst_unc:.2f} < 2, "
                  f"correlated two-qubit exceeds single-qubit: {corr_exceeds}",
           elapsed, 300.0)


def test_criterion_8_temperature_estimation_similarity():
    start = time.monotonic()
    est = Estimand.TEMPERATURE
    worst = 0.0
    for s in (2.0, 1.0, 0.5):
        sd = SpectralDensity(1.0, s, 5.0)
        for T in (0.5, 1.0, 1.5, 2.0):
            bath = BathState(T)
            two = _optimized(TWO_QUBIT_TRACED, FACTORIZED, sd, bath, est, 5.0, 72)
            one = _optimized(SINGLE_QUBIT_PROBE, FACTORIZED, sd, bath, est, 5.0, 72)
            ratio = max(two.f_star / one.f_star, one.f_star / two.f_star)
            worst = max(worst, ratio)
    elapsed = time.monotonic() - start
    report(8, worst <= 3.0, f"max scheme ratio {worst:.2f} <= 3 over "
                            "s in {2, 1, 0.5}, T in [0.5, 2]",
           elapsed, 300.0)


def test_criterion_9_invariant_suite(tmp_path):
    start = time.monotonic()
    checks = []

    # linearity in the coupling
    bath = BathState(0.9)
    worst_lin = 0.0
    for lam in (0.5, 4.0):
        for s in (0.5, 1.0, 2.0):
            base = SpectralDensity(0.3, s, 2.0)
            scaled = SpectralDensity(0.3 * lam, s, 2.0)
            for t in (0.4, 2.0, 8.0):
                for fn in (lambda sd: gamma_vac(sd, t),
                           lambda sd: gamma_th(sd, bath, t),
                           lambda sd: delta_factor(sd, t),
                           lambda sd: phi_factor(sd, t),
                           c_shift):
                    a, b = fn(scaled), lam * fn(base)
                    worst_lin = max(worst_lin, abs(a - b) / max(abs(b), 1e-12))
    checks.append(("linearity", worst_lin <= 1e-12))

    # induced phase: nonpositive and nonincreasing
    ts = np.linspace(0.0, 12.0, 200)
    mono = True
    for s in (0.5, 1.0, 2.0):
        d = np.array([delta_factor(SpectralDensity(0.7, s, 1.5), float(t))
                      for t in ts])
        mono = mono and np.all(d <= 1e-15) and np.all(np.diff(d) <= 1e-12)
    checks.append(("delta sign/monotone", mono))

    # state positivity and partial-trace consistency
    rng = np.random.default_rng(99)
    pos_ok = trace_ok = True
    for _ in range(25):
        sd = SpectralDensity(float(rng.uniform(0.05, 2.0)),
                             float(rng.uniform(0.3, 2.2)),
                             float(rng.uniform(0.5, 4.0)))
        b = BathState(float(rng.choice([0.0, rng.uniform(0.2, 2.0)])))
        t = float(rng.uniform(0.0, 8.0))
        for initial in INITIALS:
            cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, initial)
            joint = two_qubit_state(cfg, sd, b, t)
            evals = np.linalg.eigvalsh(joint)
            pos_ok = pos_ok and evals.min() > -1e-12
            diff = np.max(np.abs(_trace_second_qubit(joint)
                                 - reduced_qubit_state(cfg, sd, b, t)))
            trace_ok = trace_ok and diff < 1e-12
    checks.append(("positivity", pos_ok))
    checks.append(("partial trace", trace_ok))

    # level-shift continuity on a dense grid
    sd = SpectralDensity(3.0, 1.0, 2.0)
    cold = BathState(0.2)
    grid = np.arange(1e-3, 15.0, 0.005)
    chis = dephasing_factors(ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
                             sd, cold, grid).chi
    checks.append(("chi continuity", float(np.max(np.abs(np.diff(chis))))
                   < 0.5 * math.pi))

    # CLI determinism
    scenario = Scenario(probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
                        spectral=SpectralDensity(0.5, 1.0, 2.0),
                        bath=BathState(0.7), sweep_points=3, sweep_stop=2.0,
                        t_max=5.0, opt_grid=64, time_points=10)
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    run_factors(scenario, a1)
    run_factors(scenario, a2)
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    run_qfi_sweep(scenario, s1)
    run_qfi_sweep(scenario, s2)
    checks.append(("determinism", a1.read_bytes() == a2.read_bytes()
                   and s1.read_bytes() == s2.read_bytes()))

    elapsed = time.monotonic() - start
    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}:{'ok' if flag else 'FAIL'}" for name, flag in checks)
    report(9, ok, detail, elapsed, 120.0)
