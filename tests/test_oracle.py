"""Discrete-mode oracle: operator algebra and exact-vs-closed-form dynamics."""

import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from bathprobe import oracle
from bathprobe.dynamics import assemble_two_qubit_matrix
from bathprobe.oracle import (DiscreteBath, closed_form_coherence,
                              compare_report, compare_unitaries, dense_unitary,
                              discrete_factors, evolve_correlated,
                              evolve_factorized, magnus_unitary,
                              prepare_correlated, required_n_max,
                              truncation_info)
from bathprobe.spectral import BathState

ONE_MODE = oracle.FIXTURES["one-mode"]
THREE_MODE = oracle.FIXTURES["three-mode"]
ZERO = BathState(0.0)
WARM = BathState(1.0)


def test_discrete_bath_validation():
    with pytest.raises(ValueError):
        DiscreteBath(modes=(), n_max=10)
    with pytest.raises(ValueError):
        DiscreteBath(modes=((1.0, 0.1),) * 5, n_max=10)
    with pytest.raises(ValueError):
        DiscreteBath(modes=((0.0, 0.1),), n_max=10)
    with pytest.raises(ValueError):
        DiscreteBath(modes=((1.0, 0.1),), n_max=0)


def test_discrete_factors_examples():
    fac = discrete_factors(ONE_MODE, WARM, 0.0)
    assert (fac.gamma_d, fac.delta_d, fac.phi_d) == (0.0, 0.0, 0.0)
    fac = discrete_factors(DiscreteBath(((1.0, 0.1),), 10), ZERO, math.pi)
    assert fac.delta_d == pytest.approx(-0.04 * math.pi, rel=1e-14)
    # zero-temperature coth limit equals the general formula at huge beta
    cold = BathState(1e-9)
    db = DiscreteBath(((0.7, 0.05), (1.3, 0.08)), 10)
    a = discrete_factors(db, ZERO, 1.7)
    b = discrete_factors(db, cold, 1.7)
    assert a.gamma_d == pytest.approx(b.gamma_d, rel=1e-10)


def test_magnus_free_evolution():
    db = DiscreteBath(((1.0, 0.0), (1.7, 0.0)), 5)
    u = magnus_unitary(db, 1.3, 0.8)
    ref = dense_unitary(db, 1.3, 0.8)
    assert np.max(np.abs(u - ref)) < 1e-12


def test_magnus_unitarity():
    u = magnus_unitary(ONE_MODE, 1.0, 1.0)
    eye = np.eye(u.shape[0])
    assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-10


def test_magnus_matches_dense_exponential_one_mode():
    # certified columns of the n_max = 30 fixture agree to well under 1e-8;
    # edge columns are excluded because truncation injects O(1) flux there
    rep = compare_unitaries(ONE_MODE, 1.0)
    assert rep["certified"]
    assert rep["max_diff"] < 1e-8
    assert all(r["columns"] >= 10 for r in rep["rows"])


def test_magnus_matches_dense_full_matrix_small():
    # literal full-matrix comparison on a 2-mode fixture small enough to
    # exponentiate directly, columns restricted to a conservative core
    db = DiscreteBath(((1.0, 0.05), (1.6, 0.04)), 8)
    um = magnus_unitary(db, 0.9, 1.1)
    ud = dense_unitary(db, 0.9, 1.1)
    n = db.n_max
    core = [i * n + j for i in range(3) for j in range(3)]
    cols = [s * n * n + c for s in range(4) for c in core]
    assert np.max(np.abs((um - ud)[:, cols])) < 1e-8


def _literal_hamiltonian(db, omega_0, n_qubits):
    """H = w0 Jz/2 + sum_r [w_r n_r + Jz g_r (b_r + b_r^+)] by Kronecker products."""
    sz = np.diag([1.0, -1.0])
    jz = sz if n_qubits == 1 else np.kron(sz, np.eye(2)) + np.kron(np.eye(2), sz)
    n, n_modes = db.n_max, len(db.modes)

    def on_mode(r, op):
        return reduce(np.kron, [op if k == r else np.eye(n) for k in range(n_modes)])

    h = 0.5 * omega_0 * np.kron(jz, np.eye(n ** n_modes))
    for r, (w, g) in enumerate(db.modes):
        free = oracle.mode_hamiltonian(w, g, 0, n)
        coupling = oracle.mode_hamiltonian(w, g, 1, n) - free
        h = (h + np.kron(np.eye(len(jz)), on_mode(r, free))
             + np.kron(jz, on_mode(r, coupling)))
    return h


SMALL_TWO_MODE = DiscreteBath(((1.0, 0.05), (1.6, 0.04)), 8)


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("t", [0.5, 1.1, 4.0])
def test_dense_unitary_is_the_literal_matrix_exponential(n_qubits, t):
    # independent route: scipy's expm of the Hamiltonian assembled above
    ref = expm(-1j * _literal_hamiltonian(SMALL_TWO_MODE, 0.9, n_qubits) * t)
    ud = dense_unitary(SMALL_TWO_MODE, 0.9, t, n_qubits)
    assert np.max(np.abs(ud - ref)) < 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("t", [0.5, 1.1])
def test_magnus_unitary_matches_literal_exponential_on_core(n_qubits, t):
    # the 3x3 core columns stay clear of the n_max = 8 boundary up to t = 1.1;
    # by t = 4 truncation alone moves the product form there by up to 3e-6
    ref = expm(-1j * _literal_hamiltonian(SMALL_TWO_MODE, 0.9, n_qubits) * t)
    n = SMALL_TWO_MODE.n_max
    core = [i * n + j for i in range(3) for j in range(3)]
    cols = [s * n * n + c for s in range(2 ** n_qubits) for c in core]
    um = magnus_unitary(SMALL_TWO_MODE, 0.9, t, n_qubits)
    assert np.max(np.abs((um - ref)[:, cols])) < 1e-8


def test_single_qubit_unitaries():
    rep = compare_unitaries(ONE_MODE, 1.4, n_qubits=1)
    assert rep["max_diff"] < 1e-8
    u = magnus_unitary(ONE_MODE, 1.0, 1.4, n_qubits=1)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


UNITARY_TIMES = (0.5, 1.0, 2.0)


def test_compare_unitaries_makes_one_eigh_per_mode_and_padding(monkeypatch):
    # per mode: one eigh of the n-level and one of the padded top-charge
    # block, plus the product form's displacement of every sector; three
    # eigh per (sector, mode) block made 270
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or eigh(h))
    total = 0
    for db in oracle.FIXTURES.values():
        n, n_modes = db.n_max, len(db.modes)
        for n_qubits, n_charges in ((2, 3), (1, 2)):
            for t in UNITARY_TIMES:
                calls.clear()
                compare_unitaries(db, t, n_qubits)
                assert sorted(calls) == ([n] * (n_modes * (1 + n_charges))
                                         + [n + 40] * n_modes)
                total += len(calls)
    assert total == 162


@pytest.mark.parametrize("fixture", sorted(oracle.FIXTURES))
@pytest.mark.parametrize("n_qubits", [1, 2])
def test_truncation_certificate_is_parity_symmetric(fixture, n_qubits):
    # the padded -c unitary is P U_c P, so it leaks what U_c does; the
    # charge-0 block is diagonal, so none of its columns leaks at all
    db = oracle.FIXTURES[fixture]
    for t in UNITARY_TIMES:
        rep = compare_unitaries(db, t, n_qubits)
        assert rep["certified"] and rep["max_diff"] <= 1e-8
        columns = {(r["sector"], r["mode"]): r["columns"] for r in rep["rows"]}
        assert len(columns) == len(db.modes) * (3 if n_qubits == 2 else 2)
        for (c, mode), count in columns.items():
            assert count == columns[(-c, mode)]
            if c == 0:
                assert count == db.n_max


@pytest.mark.parametrize("bath,tol", [(ZERO, 1e-8), (WARM, 1e-6)])
def test_factorized_coherence_matches_closed_form(bath, tol):
    db = ONE_MODE.with_n_max(required_n_max(ONE_MODE, bath))
    state = evolve_factorized(db, 1.0, bath, 2.0)
    closed = closed_form_coherence(db, 1.0, bath, 2.0)
    assert abs(state.reduced.rho01 - closed) < tol


def test_factorized_time_zero_and_free_limits():
    state = evolve_factorized(ONE_MODE, 1.0, ZERO, 0.0)
    assert np.max(np.abs(state.full - 0.25 * np.ones((4, 4)))) < 1e-12
    free = DiscreteBath(((1.0, 0.0),), 8)
    for t in (0.7, 3.0):
        st = evolve_factorized(free, 1.0, WARM, t)
        assert abs(abs(st.reduced.rho01) - 0.5) < 1e-12


def test_factorized_two_qubit_matrix_matches_element_formula():
    bath = WARM
    db = ONE_MODE.with_n_max(required_n_max(ONE_MODE, bath))
    t = 1.3
    exact = evolve_factorized(db, 1.0, bath, t).full
    fac = discrete_factors(db, bath, t)
    predicted = assemble_two_qubit_matrix(1.0, t, fac.gamma_d, fac.delta_d)
    assert np.max(np.abs(exact - predicted)) < 1e-6


def test_correlated_two_qubit_matrix_matches_element_formula():
    from bathprobe.correlations import element_phase_factor
    bath = BathState(0.5)
    db = DiscreteBath(((1.0, 0.2),), 80)
    t = 1.1
    exact = evolve_correlated(db, 1.0, bath, t).full
    fac = discrete_factors(db, bath, t)
    x = {m: element_phase_factor(m, fac.c_d, fac.phi_d, bath.beta, 1.0)
         for m in range(-2, 3)}
    predicted = assemble_two_qubit_matrix(1.0, t, fac.gamma_d, fac.delta_d, x)
    assert np.max(np.abs(exact - predicted)) < 1e-6


def test_prepare_correlated_decoupled_partition_function():
    db = DiscreteBath(((1.0, 0.0), (1.7, 0.0)), 25)
    prep = prepare_correlated(db, 1.0, WARM)
    assert abs(prep.z_ratio - 1.0) < 1e-10


def test_prepare_correlated_partition_function_against_dense_trace():
    # independent route: trace the literal matrix exponential of the full H
    db = DiscreteBath(((1.0, 0.2),), 40)
    beta, omega, g, omega_0 = 1.0, 1.0, 0.2, 1.0
    n = db.n_max
    b = oracle.lowering_operator(n)
    sz = np.diag([1.0, -1.0])
    eye2, eyen = np.eye(2), np.eye(n)
    jz = np.kron(np.kron(sz, eye2), eyen) + np.kron(np.kron(eye2, sz), eyen)
    h_e = np.kron(np.kron(eye2, eye2), omega * b.conj().T @ b)
    h_se = jz @ np.kron(np.kron(eye2, eye2), g * (b + b.conj().T))
    h = 0.5 * omega_0 * jz + h_e + h_se
    z_dense = float(np.trace(expm(-beta * h)).real)
    prep = prepare_correlated(db, omega_0, BathState(1.0 / beta))
    assert abs(math.exp(prep.log_z) - z_dense) / z_dense < 1e-10


def test_prepare_correlated_one_mode_closed_form():
    db = DiscreteBath(((1.0, 0.2),), 80)
    prep = prepare_correlated(db, 1.0, BathState(1.0))
    assert abs(prep.z_ratio - 1.0) < 1e-8


def test_prepare_correlated_hot_limit_is_thermal():
    # beta -> 0: the projective preparation no longer biases the bath
    db = DiscreteBath(((1.0, 0.2),), 30)
    hot = BathState(1e6)
    prep = prepare_correlated(db, 1.0, hot)
    charges = sorted(prep.env_mats)
    probs = {}
    total = None
    acc = np.zeros((db.n_max, db.n_max))
    log_norms = {c: prep.log_weights[c]
                 + math.log(np.trace(prep.env_mats[c][0]).real)
                 for c in charges}
    peak = max(log_norms.values())
    weights = {c: math.exp(v - peak) for c, v in log_norms.items()}
    norm = sum(weights.values())
    for c in charges:
        m = prep.env_mats[c][0]
        acc = acc + (weights[c] / norm) * np.asarray(m) / np.trace(m).real
    thermal = oracle._thermal_mode_matrix(1.0, db.n_max, hot.beta)
    evals = np.linalg.eigvalsh(acc - thermal)
    assert 0.5 * np.sum(np.abs(evals)) < 1e-6  # trace distance


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_correlated_coherence_matches_closed_form(n_qubits):
    db = DiscreteBath(((1.0, 0.2),), 80)
    bath = BathState(0.5)  # beta = 2
    for t in (0.5, 1.0, 2.5):
        state = evolve_correlated(db, 1.0, bath, t, n_qubits)
        closed = closed_form_coherence(db, 1.0, bath, t, n_qubits, correlated=True)
        assert abs(state.reduced.rho01 - closed) < 1e-6


def test_correlated_time_zero_is_projected_plus():
    db = DiscreteBath(((1.0, 0.2),), 60)
    for bath in (ZERO, BathState(0.5)):
        st = evolve_correlated(db, 1.0, bath, 0.0)
        assert abs(st.reduced.rho01 - 0.5) < 1e-12


def test_correlated_zero_temperature_phase():
    # T = 0: the exact correlated coherence carries twice the phase kernel
    db = DiscreteBath(((1.0, 0.2),), 60)
    t = 1.0
    st = evolve_correlated(db, 1.0, ZERO, t)
    fac = discrete_factors(db, ZERO, t)
    pred = (0.5 * np.exp(-1j * (1.0 * t + 2.0 * fac.phi_d))
            * math.exp(-fac.gamma_d) * math.cos(fac.delta_d))
    assert abs(st.reduced.rho01 - pred) < 1e-8


def test_correlated_decoupled_has_free_coherence():
    db = DiscreteBath(((1.0, 0.0),), 10)
    for t in (0.7, 2.0):
        st = evolve_correlated(db, 1.0, WARM, t)
        assert abs(st.reduced.rho01 - 0.5 * np.exp(-1j * t)) < 1e-12


def test_evolved_states_are_physical():
    db = ONE_MODE.with_n_max(required_n_max(ONE_MODE, WARM))
    for t in (0.5, 2.0):
        for state in (evolve_factorized(db, 1.0, WARM, t),
                      evolve_correlated(db, 1.0, WARM, t)):
            rho = state.full
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def _reference_trace_table(db, n_qubits, t, env_mats, log_weights):
    """Literal per-t traces Tr[U_b m U_k^+] from dense per-mode unitaries."""
    _, charges = oracle._sectors(n_qubits)
    unitaries = {c: [oracle._hermitian_exp(oracle.mode_hamiltonian(w, g, c, db.n_max), t)
                     for (w, g) in db.modes] for c in set(charges)}
    log_norms = {pc: log_weights[pc] + sum(math.log(np.trace(m).real) for m in mats)
                 for pc, mats in env_mats.items()}
    peak = max(log_norms.values())
    weights = {pc: math.exp(v - peak) for pc, v in log_norms.items()}
    total = sum(weights.values())
    table = {}
    for c_bra in set(charges):
        for c_ket in set(charges):
            acc = 0j
            for pc, mats in env_mats.items():
                ratio = 1.0 + 0j
                for u_bra, u_ket, m in zip(unitaries[c_bra], unitaries[c_ket], mats):
                    ratio *= np.trace(u_bra @ m @ u_ket.conj().T) / np.trace(m)
                acc += weights[pc] / total * ratio
            table[(c_bra, c_ket)] = acc
    return table


def _preparation(db, bath, n_qubits, correlated):
    if correlated:
        prep = prepare_correlated(db, 1.0, bath, n_qubits)
        return prep.env_mats, prep.log_weights
    return oracle._factorized_preparation(db, bath)


@pytest.mark.parametrize("fixture", ["one-mode", "g-zero", "three-mode"])
@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("temperature", [0.0, 0.5])
@pytest.mark.parametrize("correlated", [False, True])
def test_eigenbasis_traces_match_dense_unitaries(fixture, n_qubits, temperature,
                                                 correlated):
    db = oracle.FIXTURES[fixture].with_n_max(10)
    bath = BathState(temperature)
    env_mats, log_weights = _preparation(db, bath, n_qubits, correlated)
    times = [0.0, 0.5, 4.0]
    table = oracle._trace_tables(times, env_mats, log_weights,
                                 oracle._block_eigs(db, n_qubits))
    for k, t in enumerate(times):
        ref = _reference_trace_table(db, n_qubits, t, env_mats, log_weights)
        assert set(table) == set(ref)
        for pair, value in ref.items():
            assert abs(table[pair][k] - value) < 1e-12


def test_trace_tables_hold_for_a_preparation_that_is_not_a_parity_mirror():
    # the -2 matrices below are not P m_2 P; the tables hold for any
    # preparation, as a pair (c, c) traces U m U^+ / Tr m = 1 for every m
    db = THREE_MODE.with_n_max(10)
    prep = prepare_correlated(db, 1.0, WARM, 2)
    env_mats = dict(prep.env_mats)
    env_mats[-2] = env_mats[2]
    times = [0.5, 4.0]
    table = oracle._trace_tables(times, env_mats, prep.log_weights,
                                 oracle._block_eigs(db, 2))
    for k, t in enumerate(times):
        ref = _reference_trace_table(db, 2, t, env_mats, prep.log_weights)
        for pair, value in ref.items():
            assert abs(table[pair][k] - value) < 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_batched_evolution_equals_single_time_calls(n_qubits):
    # same arithmetic; only the BLAS kernel for one row or several may round
    # differently
    db = THREE_MODE.with_n_max(12)
    bath = BathState(0.5)
    times = [0.0, 0.5, 1.0, 4.0]
    eigs = oracle._block_eigs(db, n_qubits)
    for correlated in (False, True):
        env_mats, log_weights = _preparation(db, bath, n_qubits, correlated)
        batched = oracle._evolve(1.0, times, n_qubits, env_mats, log_weights,
                                 eigs)
        for t, state in zip(times, batched):
            evolve = evolve_correlated if correlated else evolve_factorized
            single = evolve(db, 1.0, bath, t, n_qubits)
            assert np.max(np.abs(state.full - single.full)) < 1e-15
            assert state.reduced.rho01 == pytest.approx(single.reduced.rho01,
                                                        abs=1e-15)


# ---------------------------------------------------------------------------
# the block symmetry: P H_c P = H_-c with the parity P = diag((-1)^n)
# ---------------------------------------------------------------------------

def _parity(n):
    return (-1.0) ** np.arange(n)


def _bits(a):
    """The bytes of ``a`` with -0.0 read as 0.0 (adding 0.0 changes nothing else)."""
    return (np.asarray(a) + 0.0).tobytes()


@pytest.mark.parametrize("n", [2, 7, 40, 333])
@pytest.mark.parametrize("charge", [1, 2])
def test_minus_charge_block_is_the_parity_mirror(n, charge):
    p = _parity(n)
    for db in oracle.FIXTURES.values():
        for (w, g) in db.modes:
            h = oracle.mode_hamiltonian(w, g, charge, n)
            mirror = oracle.mode_hamiltonian(w, g, -charge, n)
            assert _bits(mirror) == _bits(p[:, None] * h * p)


@pytest.mark.parametrize("fixture", sorted(oracle.FIXTURES))
@pytest.mark.parametrize("n_qubits", [1, 2])
def test_block_eigs_diagonalize_the_top_charge_only(fixture, n_qubits):
    db = oracle.FIXTURES[fixture]
    n, top = db.n_max, n_qubits
    eigs = oracle._block_eigs(db, n_qubits)
    assert sorted(eigs) == ([-2, 0, 2] if n_qubits == 2 else [-1, 1])
    for r, (w, g) in enumerate(db.modes):
        evals, vecs = np.linalg.eigh(oracle.mode_hamiltonian(w, g, top, n))
        assert np.array_equal(eigs[top][r][0], evals)
        assert np.array_equal(eigs[top][r][1], vecs)
        assert np.array_equal(eigs[-top][r][0], evals)
        assert np.array_equal(eigs[-top][r][1], _parity(n)[:, None] * vecs)
        if n_qubits == 2:
            assert np.array_equal(eigs[0][r][0],
                                  np.diag(oracle.mode_hamiltonian(w, g, 0, n)))
            assert np.array_equal(eigs[0][r][1], np.eye(n))
        for c, blocks in eigs.items():  # each pair diagonalizes its own block
            e, v = blocks[r]
            h = oracle.mode_hamiltonian(w, g, c, n)
            assert np.max(np.abs(v.T @ h @ v - np.diag(e))) < 1e-12


def test_compare_report_makes_one_eigh_per_mode_and_qubit_count(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or eigh(h))
    total = 0
    for fixture, db in oracle.FIXTURES.items():
        for bath in (ZERO, WARM):
            calls.clear()
            compare_report(db, bath, 1.0, [0.5, 1.0, 2.0, 4.0], fixture)
            assert calls == [db.n_max] * (2 * len(db.modes))
            total += len(calls)
    assert total == 24  # the six default reports; one eigh per block made 60


def _per_charge_eigs(db, n_qubits):
    """One ``eigh`` per (sector charge, mode) block."""
    _, charges = oracle._sectors(n_qubits)
    return {c: [np.linalg.eigh(oracle.mode_hamiltonian(w, g, c, db.n_max))
                for (w, g) in db.modes]
            for c in sorted(set(charges))}


def _per_sector_preparation(bath, eigs):
    """Each sector's correlated Boltzmann matrices from its own eigenpairs."""
    if bath.zero_temperature:
        return {min(eigs): [np.outer(v[:, 0], v[:, 0]) for (_, v) in eigs[min(eigs)]]}
    mats = {}
    for c, blocks in eigs.items():
        mats[c] = []
        for (e, v) in blocks:
            shifted = (v * np.exp(-bath.beta * (e - e[0]))) @ v.T
            mats[c].append(0.5 * (shifted + shifted.T))
    return mats


def _per_pair_trace_tables(times, env_mats, log_weights, eigs):
    """The trace tables pair by pair, diagonal pairs included, then
    preparation charge by charge, then mode by mode, with every
    W = (V_b^T m V_k) o (V_b^T V_k) formed in full."""
    times = np.asarray(times, dtype=float)
    phases = {c: [np.exp(-1j * np.outer(times, evals)) for (evals, _) in blocks]
              for c, blocks in eigs.items()}
    prep_charges = sorted(env_mats)
    log_norms = []
    for pc in prep_charges:
        log_norm = log_weights[pc]
        for m in env_mats[pc]:
            log_norm += math.log(float(np.real(np.trace(m))))
        log_norms.append(log_norm)
    log_norms = np.asarray(log_norms)
    probs = np.exp(log_norms - oracle._logsumexp(log_norms))
    distinct = sorted(eigs)
    table = {}
    for i, c_bra in enumerate(distinct):
        for c_ket in distinct[i:]:
            acc = np.zeros(times.size, dtype=complex)
            for pc, prob in zip(prep_charges, probs):
                ratio = np.ones(times.size, dtype=complex)
                for r, m in enumerate(env_mats[pc]):
                    v_bra, v_ket = eigs[c_bra][r][1], eigs[c_ket][r][1]
                    w = (v_bra.T @ m @ v_ket) * (v_bra.T @ v_ket)
                    num = np.sum((phases[c_bra][r] @ w) * phases[c_ket][r].conj(),
                                 axis=1)
                    ratio *= num / np.trace(m)
                acc += prob * ratio
            table[(c_ket, c_bra)] = acc.conj()
            table[(c_bra, c_ket)] = acc
    return table


@pytest.mark.parametrize("fixture", sorted(oracle.FIXTURES))
@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("temperature", [0.0, 0.5])
@pytest.mark.parametrize("correlated", [False, True])
def test_symmetric_trace_tables_equal_the_per_pair_loop(fixture, n_qubits,
                                                       temperature, correlated):
    # the identity-skipping products round exactly like the full ones, so the
    # off-diagonal tables are equal, not just close; a diagonal pair is 1 by
    # unitarity, which the full products meet to the last bits
    db = oracle.FIXTURES[fixture]
    bath = BathState(temperature)
    eigs, ref_eigs = oracle._block_eigs(db, n_qubits), _per_charge_eigs(db, n_qubits)
    for c in ref_eigs:
        for (e, _), (ref, _) in zip(eigs[c], ref_eigs[c]):
            assert np.array_equal(e, ref)  # so both share the log weights
    if correlated:
        prep = oracle._prepare_correlated(db, 1.0, bath, n_qubits, eigs)
        env_mats, log_weights = prep.env_mats, prep.log_weights
        ref_mats = _per_sector_preparation(bath, ref_eigs)
        assert env_mats.keys() == ref_mats.keys()
        for c in ref_mats:
            for m, ref in zip(env_mats[c], ref_mats[c], strict=True):
                assert np.array_equal(m, ref)
    else:
        env_mats, log_weights = oracle._factorized_preparation(db, bath)
        ref_mats = env_mats
    times = [0.0, 0.5, 1.0, 2.0, 4.0]
    table = oracle._trace_tables(times, env_mats, log_weights, eigs)
    ref = _per_pair_trace_tables(times, ref_mats, log_weights, ref_eigs)
    assert table.keys() == ref.keys()
    for (b, k), value in ref.items():
        if b == k:
            assert np.array_equal(table[(b, k)], np.ones(len(times))), b
            assert np.max(np.abs(value - 1.0)) <= 1e-14, b
        else:
            assert np.array_equal(table[(b, k)], value), (b, k)


@pytest.mark.parametrize("fixture", sorted(oracle.FIXTURES))
@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_evolved_states_keep_an_exact_flat_diagonal(fixture, n_qubits,
                                                    temperature):
    # the dynamics conserves every sigma_z, so the |+...+> populations stay
    # 1/dim; the tables set them exactly instead of rounding U m U^+ / Tr m
    db = oracle.FIXTURES[fixture]
    bath = BathState(temperature)
    dim = 2 ** n_qubits
    for evolve in (evolve_factorized, evolve_correlated):
        for t in (0.5, 1.0, 4.0):
            full = evolve(db, 1.0, bath, t, n_qubits).full
            assert np.array_equal(np.diag(full), np.full(dim, 1.0 / dim))
            assert np.trace(full) == 1.0


def test_truncation_certification():
    info = truncation_info(ONE_MODE, ZERO)
    assert info.ok and info.displacement_ok and info.thermal_ok
    starved = truncation_info(THREE_MODE.with_n_max(6), WARM)
    assert not starved.ok
    assert starved.suggested_n_max > 6


def test_compare_report_decoupled_is_exact():
    db = oracle.FIXTURES["g-zero"]
    report = compare_report(db, WARM, 1.0, [0.5, 1.0, 2.0], "g-zero")
    assert report["pass"]
    assert report["max_discrepancy"] < 1e-12


def test_compare_report_three_mode_zero_temperature():
    db = THREE_MODE.with_n_max(required_n_max(THREE_MODE, ZERO))
    report = compare_report(db, ZERO, 1.0, [0.5, 1.0, 2.0, 4.0], "three-mode")
    assert report["pass"]
    assert report["max_discrepancy"] < 1e-8


def test_compare_report_three_mode_warm():
    db = THREE_MODE.with_n_max(required_n_max(THREE_MODE, WARM))
    report = compare_report(db, WARM, 1.0, [0.5, 1.0, 2.0], "three-mode")
    assert report["pass"]
    assert report["max_discrepancy"] < 1e-6
    assert report["partition_function"]["pass"]


def test_compare_report_record_schema():
    report = compare_report(oracle.FIXTURES["g-zero"], WARM, 1.0, [0.5], "g-zero")
    for record in report["records"]:
        assert set(record) == {"fixture", "scheme", "initial_state", "t",
                               "abs_discrepancy", "tolerance", "pass"}


def test_compare_report_flags_starved_truncation():
    db = THREE_MODE.with_n_max(6)
    report = compare_report(db, WARM, 1.0, [0.5, 1.0, 2.0], "starved")
    assert not report["pass"]
    assert not report["truncation"]["ok"]


def test_magnus_unitary_guards_dimension():
    with pytest.raises(ValueError):
        magnus_unitary(THREE_MODE, 1.0, 1.0)
