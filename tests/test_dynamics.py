"""Probe density matrices: assembly, traces, spectra, physicality."""

import collections
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bathprobe import dynamics, spectral
from bathprobe.cli import VARIANTS
from bathprobe.dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                                TWO_QUBIT_TRACED, ProbeConfig, dephasing_factors,
                                reduced_qubit_state, reduced_state_from_factors)
from bathprobe.fisher import Estimand, factor_bundle
from bathprobe.spectral import BathState, SpectralDensity
from bathprobe.verify import (BASIS_LABELS, _trace_second_qubit, eigendecompose,
                              two_qubit_state)

OHMIC = SpectralDensity(1.0, 1.0, 1.0)


def random_setup(rng):
    sd = SpectralDensity(float(rng.uniform(0.05, 2.0)),
                         float(rng.uniform(0.3, 2.2)),
                         float(rng.uniform(0.5, 4.0)))
    temperature = float(rng.choice([0.0, rng.uniform(0.2, 2.0)]))
    bath = BathState(temperature)
    t = float(rng.uniform(0.0, 8.0))
    return sd, bath, t


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(omega_0=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(scheme="three-qubit")
    with pytest.raises(ValueError):
        ProbeConfig(initial_state="squeezed")


def test_two_qubit_state_at_time_zero():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    rho = two_qubit_state(cfg, OHMIC, BathState(0.0), 0.0)
    assert np.allclose(rho, 0.25 * np.ones((4, 4)), atol=1e-15)


def test_two_qubit_state_free_evolution():
    cfg = ProbeConfig(1.3, TWO_QUBIT_TRACED, FACTORIZED)
    sd = SpectralDensity(0.0, 1.0, 1.0)
    t = 0.9
    rho = two_qubit_state(cfg, sd, BathState(1.0), t)
    for i, (kp, lp) in enumerate(BASIS_LABELS):
        for j, (k, l) in enumerate(BASIS_LABELS):
            expected = 0.25 * np.exp(-0.5j * 1.3 * (kp + lp - k - l) * t)
            assert abs(rho[i, j] - expected) < 1e-14


@pytest.mark.parametrize("initial", [FACTORIZED, CORRELATED])
def test_partial_trace_matches_reduced_state(initial):
    rng = np.random.default_rng(21)
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, initial)
    for _ in range(20):
        sd, bath, t = random_setup(rng)
        joint = two_qubit_state(cfg, sd, bath, t)
        traced = _trace_second_qubit(joint)
        direct = reduced_qubit_state(cfg, sd, bath, t)
        assert np.max(np.abs(traced - direct)) < 1e-12


def test_two_qubit_state_physicality():
    rng = np.random.default_rng(22)
    for initial in (FACTORIZED, CORRELATED):
        cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, initial)
        for _ in range(10):
            sd, bath, t = random_setup(rng)
            rho = two_qubit_state(cfg, sd, bath, t)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
            evals = np.linalg.eigvalsh(rho)
            assert np.all(evals > -1e-12)
            assert np.all(evals < 1.0 + 1e-12)


def test_reduced_state_examples():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    st = reduced_qubit_state(cfg, OHMIC, BathState(0.0), 0.0)
    assert st[0, 1] == pytest.approx(0.5)
    # a vanishing induced-interaction cosine kills the coherence
    st = reduced_state_from_factors(1.0, 1.0, 0.3, math.pi / 2.0, 0.0)
    assert abs(st[0, 1]) < 1e-16


def test_reduced_state_positivity_and_shape():
    rng = np.random.default_rng(23)
    for scheme in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE):
        for initial in (FACTORIZED, CORRELATED):
            cfg = ProbeConfig(1.0, scheme, initial)
            for _ in range(10):
                sd, bath, t = random_setup(rng)
                st = reduced_qubit_state(cfg, sd, bath, t)
                assert st[0, 0] == 0.5 and st[1, 1] == 0.5
                assert abs(st[0, 1]) <= 0.5 + 1e-15
                assert st[1, 0] == np.conj(st[0, 1])
                evals = np.linalg.eigvalsh(st)
                assert np.all(evals > -1e-12) and np.all(evals < 1.0 + 1e-12)


def coherence_factor(cfg, sd, bath, t):
    """Signed coherence envelope; the reduced eigenvalues are (1 -+ F)/2."""
    fac = dephasing_factors(cfg, sd, bath, t)
    return math.cos(fac.delta) * math.exp(-fac.gamma_total)


def test_coherence_factor_examples():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED)
    assert coherence_factor(cfg, OHMIC, BathState(0.0), 0.0) == 1.0
    free = SpectralDensity(0.0, 1.0, 1.0)
    for t in (0.5, 3.0):
        assert coherence_factor(cfg, free, BathState(1.0), t) == 1.0
    rng = np.random.default_rng(24)
    for _ in range(20):
        sd, bath, t = random_setup(rng)
        assert abs(coherence_factor(cfg, sd, bath, t)) <= 1.0


def test_coherence_bounded_by_vacuum_envelope():
    # thermal and correlation contributions only shrink the coherence
    from bathprobe.spectral import gamma_vac
    rng = np.random.default_rng(25)
    for initial in (FACTORIZED, CORRELATED):
        cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, initial)
        for _ in range(15):
            sd, bath, t = random_setup(rng)
            st = reduced_qubit_state(cfg, sd, bath, t)
            fac = dephasing_factors(cfg, sd, bath, t)
            bound = 0.5 * math.exp(-gamma_vac(sd, t)) * abs(math.cos(fac.delta))
            assert abs(st[0, 1]) <= bound * (1.0 + 1e-12)


def test_chi_vanishes_at_infinite_temperature():
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    hot = BathState(1e8)  # beta = 1e-8
    for t in (0.5, 2.0, 7.0):
        fac = dephasing_factors(cfg, OHMIC, hot, t)
        assert abs(fac.chi) <= 1e-7


def test_eigendecompose_pure_and_degenerate():
    pure = reduced_state_from_factors(1.0, 0.0, 0.0, 0.0, 0.0)
    eig = eigendecompose(pure)
    assert eig.populations == pytest.approx((0.0, 1.0))
    assert not eig.degenerate
    mixed = 0.5 * np.eye(2, dtype=complex)
    eig = eigendecompose(mixed)
    assert eig.populations == pytest.approx((0.5, 0.5))
    assert eig.degenerate


def test_eigendecompose_matches_generic_solver():
    rng = np.random.default_rng(26)
    for _ in range(25):
        gamma = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(-3.0, 3.0))
        chi = float(rng.uniform(-3.0, 3.0))
        st = reduced_state_from_factors(1.0, float(rng.uniform(0, 5)), gamma,
                                        delta, chi)
        eig = eigendecompose(st)
        ref = np.linalg.eigvalsh(st)
        assert np.allclose(sorted(eig.populations), ref, atol=1e-12)
        for az, pop in zip(eig.azimuths, eig.populations):
            vec = np.array([1.0, np.exp(1j * az)]) / math.sqrt(2.0)
            resid = st @ vec - pop * vec
            assert np.max(np.abs(resid)) < 1e-12
        assert eig.azimuths[0] - eig.azimuths[1] == pytest.approx(math.pi, abs=1e-12)


def test_eigendecompose_rejects_general_states():
    with pytest.raises(ValueError, match="diagonal 1/2"):
        eigendecompose(np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
    # the 4x4 joint state passed by mistake is refused for its shape, not
    # for a diagonal it does not have
    joint = two_qubit_state(ProbeConfig(), OHMIC, BathState(0.5), 1.3)
    with pytest.raises(ValueError, match=r"shape \(4, 4\)"):
        eigendecompose(joint)


def log_uniform(lo, hi):
    """Floats from 10**lo to 10**hi, uniform in their logarithm."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def physical_points(draw):
    """(cfg, sd, bath, t) over the physical domain: s in (0, 5], T = 0 or
    log-uniform on [1e-3, 10], G in [1e-3, 3], w_c in [0.1, 10], t
    log-uniform on [1e-6, 1e4], and each of the four probes."""
    sd = SpectralDensity(draw(st.floats(1e-3, 3.0)),
                         draw(st.floats(spectral.MIN_OHMICITY, 5.0)),
                         draw(st.floats(0.1, 10.0)))
    bath = BathState(draw(st.one_of(st.just(0.0), log_uniform(-3.0, 1.0))))
    cfg = ProbeConfig(1.0, *draw(st.sampled_from(VARIANTS)))
    return cfg, sd, bath, draw(log_uniform(-6.0, 4.0))


@given(physical_points())
def test_reduced_state_is_physical_over_the_domain(point):
    rho = reduced_qubit_state(*point)
    assert isinstance(rho, np.ndarray) and rho.shape == (2, 2) and rho.dtype == complex
    assert np.array_equal(rho, rho.conj().T)
    assert rho[0, 0] == 0.5 and rho[1, 1] == 0.5
    assert abs(rho[0, 1]) <= 0.5
    populations = eigendecompose(rho).populations
    assert all(0.0 <= p <= 1.0 for p in populations)
    assert sum(populations) == pytest.approx(1.0, rel=0.0, abs=1e-15)


def test_factors_bundle_time_zero():
    for scheme in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE):
        for initial in (FACTORIZED, CORRELATED):
            cfg = ProbeConfig(1.0, scheme, initial)
            fac = dephasing_factors(cfg, OHMIC, BathState(0.7), 0.0)
            assert (fac.gamma_vac, fac.gamma_th, fac.gamma_corr) == (0.0, 0.0, 0.0)
            assert (fac.delta, fac.phi, fac.chi) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("temperature", [0.0, 0.7])
def test_an_empty_grid_gives_empty_fields(temperature):
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    sd, bath = SpectralDensity(0.3, 0.73, 2.0), BathState(temperature)
    fac = dephasing_factors(cfg, sd, bath, np.array([]))
    b = factor_bundle(cfg, sd, bath, Estimand.CUTOFF_FREQUENCY, np.array([]))
    for v in (fac.gamma_vac, fac.gamma_th, fac.gamma_corr, fac.delta, fac.phi, fac.chi,
              b.gamma, b.delta, b.chi, b.d_gamma, b.d_delta, b.d_chi):
        assert isinstance(v, np.ndarray) and v.dtype == float and v.shape == (0,)


def _count_shared_work(monkeypatch):
    """Counter of the grids built, of each intermediate a grid computes and
    of the blocks of the Bose series summed."""
    counts = collections.Counter()
    init = spectral._Grid.__init__

    def counted_init(grid, *args):
        counts["grids"] += 1
        init(grid, *args)

    monkeypatch.setattr(spectral._Grid, "__init__", counted_init)
    for name in ("angles", "kernel", "delta_shape", "bose"):
        def counted(grid, compute=vars(spectral._Grid)[name].func, name=name):
            counts[name] += 1
            return compute(grid)

        prop = functools.cached_property(counted)
        prop.__set_name__(spectral._Grid, name)
        monkeypatch.setattr(spectral._Grid, name, prop)
    block = spectral._bose_block

    def counted_block(*args):
        counts["blocks"] += 1
        return block(*args)

    monkeypatch.setattr(spectral, "_bose_block", counted_block)
    return counts


@pytest.mark.parametrize("estimand", [None, *Estimand])
def test_an_assembly_computes_each_shared_intermediate_once(monkeypatch, estimand):
    # the forms of one assembly share the vacuum kernel (the coupling
    # estimand's unit-G pass included) and one Bose series, summed in one
    # block per _SERIES_BLOCK times, whether w_c varies per point or not
    cfg = ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED)
    sd, bath = SpectralDensity(0.3, 0.73, 2.0), BathState(0.7)
    t = np.linspace(0.05, 12.0, 100)
    counts = _count_shared_work(monkeypatch)

    def lone(t):
        if estimand is None:
            dephasing_factors(cfg, sd, bath, t)
        else:
            factor_bundle(cfg, sd, bath, estimand, t)

    lone(t)
    assert counts == {"grids": 1, "angles": 1, "kernel": 1, "delta_shape": 1,
                      "bose": 1, "blocks": 1}
    # two cutoffs: w_c per point, 200 union times in two blocks
    counts.clear()
    other = SpectralDensity(0.3, 0.73, 3.0)
    dynamics._assemble([(cfg, sd, bath), (cfg, other, bath)], np.repeat([0, 1], t.size),
                       np.concatenate((t, t)), estimand)
    assert counts == {"grids": 1, "angles": 1, "kernel": 1, "delta_shape": 1,
                      "bose": 1, "blocks": 2}
    # one (sd, bath) over 300 times: three blocks
    counts.clear()
    lone(np.linspace(0.05, 12.0, 300))
    assert counts == {"grids": 1, "angles": 1, "kernel": 1, "delta_shape": 1,
                      "bose": 1, "blocks": 3}
