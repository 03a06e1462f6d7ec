"""Exact discrete-mode oracle for the dephasing probe.

A handful of boson modes in a truncated Fock space make every closed form
checkable by brute force: the product-form unitary against the dense matrix
exponential, the factorized and projectively prepared dynamics against the
element formulas, and the preparation partition function against its
displaced-mode closed form.

The total Hamiltonian conserves every sigma_z, so all heavy objects factor
into (spin sector) x (mode) blocks:

    H | sector c  =  sum_r [ w_r n_r + c (g_r b_r + g_r b_r^+) ] + w0 c / 2

with c the total spin projection.  Every route (the report, the evolutions,
the unitary comparison and its truncation certificate) diagonalizes one
block per mode and qubit count, as the c = 0 block is diagonal and the -c
block is P H_c P (P = diag((-1)^n)).  Kronecker assembly of the full
matrices is exact (the blocks commute by construction); tests/test_oracle.py
checks it against a literal matrix exponential of the full Hamiltonian on
small fixtures.

Truncation is certified at runtime: coherent displacement and thermal
occupation bounds, plus an empirical per-column leakage measure used to
pick the columns on which unitary comparisons are meaningful.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import correlations
from .dynamics import (BASIS_LABELS, CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                       TWO_QUBIT_TRACED, QubitState, _trace_second_qubit)

__all__ = [
    "DiscreteBath",
    "DiscreteFactors",
    "TruncationInfo",
    "discrete_factors",
    "lowering_operator",
    "mode_hamiltonian",
    "required_n_max",
    "MAX_N_MAX",
    "MIN_TEMPERATURE",
    "truncation_info",
    "magnus_unitary",
    "dense_unitary",
    "compare_unitaries",
    "evolve_factorized",
    "prepare_correlated",
    "evolve_correlated",
    "closed_form_coherence",
    "compare_report",
    "FIXTURES",
]


@dataclass(frozen=True)
class DiscreteBath:
    """A small set of boson modes (frequency, real coupling) plus truncation."""

    modes: tuple
    n_max: int

    def __post_init__(self):
        if not 1 <= len(self.modes) <= 4:
            raise ValueError("oracle baths carry between 1 and 4 modes")
        if self.n_max < 1:
            raise ValueError("Fock truncation must be >= 1")
        for (w, g) in self.modes:
            if w <= 0.0:
                raise ValueError("mode frequencies must be > 0")

    def with_n_max(self, n_max):
        return DiscreteBath(self.modes, n_max)


@dataclass(frozen=True)
class DiscreteFactors:
    """Mode-sum analogues of the continuum dephasing factors."""

    gamma_d: float
    delta_d: float
    phi_d: float
    c_d: float


def discrete_factors(db, bath, t):
    """Direct mode sums for the dephasing exponent and phases."""
    gamma = delta = phi = c = 0.0
    for (w, g) in db.modes:
        g2 = 4.0 * g * g
        if bath.zero_temperature:
            coth = 1.0
        else:
            coth = 1.0 / math.tanh(0.5 * bath.beta * w)
        gamma += g2 / w ** 2 * (1.0 - math.cos(w * t)) * coth
        delta += g2 / w ** 2 * (math.sin(w * t) - w * t)
        phi += g2 / w ** 2 * math.sin(w * t)
        c += g2 / w
    return DiscreteFactors(gamma_d=gamma, delta_d=delta, phi_d=phi, c_d=c)


def lowering_operator(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def mode_hamiltonian(omega, g, sector, n):
    """w b+b + c g (b + b+) on an n-level mode, sector charge c."""
    b = lowering_operator(n)
    return omega * (b.conj().T @ b) + sector * g * (b + b.conj().T)


def _sectors(n_qubits):
    if n_qubits == 2:
        return BASIS_LABELS, [k + l for (k, l) in BASIS_LABELS]
    if n_qubits == 1:
        return ((1,), (-1,)), [1, -1]
    raise ValueError("oracle supports 1 or 2 qubits")


#: largest Fock truncation the validation command runs: a report costs
#: O(n_max**3) per mode, 3-4 s at 800 levels on three modes and 5 s at 1000
#: (2-vCPU VM, Python 3.11.7, numpy 2.4.6), so a run stays within seconds
MAX_N_MAX = 1000

#: coldest T > 0 the validation command runs: the rounding of log Z ~ beta E
#: fails the 1e-8 Z check from T = 1.6e-8 on three-mode; T = 0 is exact
MIN_TEMPERATURE = 1e-6


def required_n_max(db, bath):
    """Smallest truncation meeting the displacement and thermal tail rules,
    with a 30 % margin."""
    n = 2
    for (w, g) in db.modes:
        disp = (4.0 * g / w) ** 2  # peak |alpha|^2 over time
        n = max(n, int(math.ceil(8.0 * disp)) + 8)
        if not bath.zero_temperature:
            n = max(n, int(math.ceil(12.0 * math.log(10.0) / (bath.beta * w))) + 1)
    return int(math.ceil(1.3 * n))


@dataclass(frozen=True)
class TruncationInfo:
    """Runtime certification of the Fock truncation."""

    ok: bool
    displacement_ok: bool
    thermal_ok: bool
    max_displacement_sq: float
    max_thermal_tail: float
    suggested_n_max: int


def truncation_info(db, bath):
    disp = max((4.0 * g / w) ** 2 for (w, g) in db.modes)
    disp_ok = disp < db.n_max / 8.0
    if bath.zero_temperature:
        tail = 0.0
    else:
        tail = max(math.exp(-bath.beta * w * db.n_max) for (w, g) in db.modes)
    thermal_ok = tail < 1e-12
    return TruncationInfo(ok=disp_ok and thermal_ok,
                          displacement_ok=disp_ok,
                          thermal_ok=thermal_ok,
                          max_displacement_sq=disp,
                          max_thermal_tail=tail,
                          suggested_n_max=required_n_max(db, bath))


def _block_eigs(db, n_qubits):
    """Eigenpairs (E, V) of every (sector charge, mode) block of ``n_qubits``.

    Each block is real symmetric, so U_c(t) = V e^{-iEt} V^T: one
    diagonalization serves every time and every preparation.  Only the top
    charge c takes an ``eigh``: the -c block is P H_c P, with pairs
    (E_c, P V_c), and the charge-0 block is its diagonal, with V = 1.
    """
    c, n = max(_sectors(n_qubits)[1]), db.n_max
    eigs = {c: [np.linalg.eigh(mode_hamiltonian(w, g, c, n)) for (w, g) in db.modes]}
    eigs[-c] = [(e, ((-1.0) ** np.arange(n))[:, None] * v) for (e, v) in eigs[c]]
    if n_qubits == 2:  # np.diag would keep all of H_0 alive as a view
        eye = np.eye(n)
        eigs[0] = [(mode_hamiltonian(w, g, 0, n).diagonal().copy(), eye)
                   for (w, g) in db.modes]
    return eigs


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------

def _unitary(evals, vecs, t):
    """V e^{-iEt} V^+ from the eigenpairs (E, V) of a Hermitian matrix."""
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def _hermitian_exp(h, t):
    """exp(-i h t) of a Hermitian h via its diagonalization."""
    return _unitary(*np.linalg.eigh(h), t)


def _mode_unitary_magnus(omega, g, sector, n, t):
    """Product-form unitary for one mode and sector.

    exp(-i h t) rewritten as phase x free rotation x displacement; the
    phase carries the commutator term that closes the exponential series.
    The displacement exp(A), A anti-Hermitian, is exp(-i (iA) t) at t = 1;
    the free rotation exp(-i w t n) is diagonal and scales its rows.
    """
    b = lowering_operator(n)
    alpha = 2.0 * g * (1.0 - np.exp(1j * omega * t)) / omega
    delta_r = 4.0 * g * g / omega ** 2 * (math.sin(omega * t) - omega * t)
    free = np.exp(-1j * omega * t * np.arange(n))
    disp = _hermitian_exp(0.5j * sector * (alpha * b.T - np.conj(alpha) * b), 1.0)
    return np.exp(-0.25j * sector * sector * delta_r) * (free[:, None] * disp)


def _kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


_FULL_DIM_LIMIT = 4096


def _check_full_dim(db, n_qubits):
    dim = 2 ** n_qubits * db.n_max ** len(db.modes)
    if dim > _FULL_DIM_LIMIT:
        raise ValueError(
            f"full-matrix dimension {dim} exceeds {_FULL_DIM_LIMIT}; use the "
            "per-sector comparison (compare_unitaries) for large fixtures")
    return dim


def magnus_unitary(db, omega_0, t, n_qubits=2):
    """Full truncated-space unitary built from the two exponential factors.

    The first factor is the free probe+bath rotation, the second the
    displacement exponential with the commutator phase; both are taken in
    the truncated space and collected over the spin sectors.
    """
    _check_full_dim(db, n_qubits)
    _, charges = _sectors(n_qubits)
    env_dim = db.n_max ** len(db.modes)
    dim = len(charges) * env_dim
    out = np.zeros((dim, dim), dtype=complex)
    for idx, c in enumerate(charges):
        mats = [_mode_unitary_magnus(w, g, c, db.n_max, t) for (w, g) in db.modes]
        block = _kron_all(mats) * np.exp(-0.5j * omega_0 * c * t)
        sl = slice(idx * env_dim, (idx + 1) * env_dim)
        out[sl, sl] = block
    return out


def dense_unitary(db, omega_0, t, n_qubits=2):
    """Literal exp(-i H t) of the assembled Hamiltonian (small fixtures)."""
    dim = _check_full_dim(db, n_qubits)
    _, charges = _sectors(n_qubits)
    env_dim = db.n_max ** len(db.modes)
    h = np.zeros((dim, dim))
    n = db.n_max
    eye = [np.eye(n) for _ in db.modes]
    for idx, c in enumerate(charges):
        block = np.zeros((env_dim, env_dim))
        for r, (w, g) in enumerate(db.modes):
            mats = list(eye)
            mats[r] = mode_hamiltonian(w, g, c, n)
            block = block + _kron_all(mats)
        sl = slice(idx * env_dim, (idx + 1) * env_dim)
        h[sl, sl] = block + 0.5 * omega_0 * c * np.eye(env_dim)
    return _hermitian_exp(h, t)


def compare_unitaries(db, t, n_qubits=2):
    """Entrywise product-form vs dense-exponential check, per sector and mode.

    Both forms share the sector phase e^{-i w0 c t/2}, so the blocks omit it.
    Only truncation-certified columns enter the comparison: those that leak
    under 1e-10 in amplitude past the n-level boundary of a space padded by
    40 levels; the others differ by design in any finite truncation.
    Returns per-sector-mode rows plus the global maximum.
    """
    n = db.n_max
    eigs = _block_eigs(db, n_qubits)
    padded = _block_eigs(db.with_n_max(n + 40), n_qubits)
    rows = []
    worst = 0.0
    certified_any = True
    for c in sorted(eigs):
        for r, (w, g) in enumerate(db.modes):
            big = _unitary(*padded[c][r], t)
            leak = np.sum(np.abs(big[n:, :n]) ** 2, axis=0)
            cols, ref = np.flatnonzero(leak < 1e-10 ** 2), big[:n, :n]
            dense = _unitary(*eigs[c][r], t)
            mag = _mode_unitary_magnus(w, g, c, n, t)
            if cols.size == 0:
                certified_any = False
                rows.append({"sector": c, "mode": r, "columns": 0,
                             "max_diff": math.inf, "trunc_diff": math.inf})
                continue
            diff = float(np.max(np.abs((mag - dense)[:, cols])))
            trunc = float(np.max(np.abs((dense - ref)[:, cols])))
            rows.append({"sector": c, "mode": r, "columns": int(cols.size),
                         "max_diff": diff, "trunc_diff": trunc})
            worst = max(worst, diff)
    return {"rows": rows, "max_diff": worst if certified_any else math.inf,
            "certified": certified_any}


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _thermal_mode_matrix(omega, n, beta):
    if math.isinf(beta):
        rho = np.zeros((n, n))
        rho[0, 0] = 1.0
        return rho
    occ = np.exp(-beta * omega * np.arange(n))
    return np.diag(occ / occ.sum())


def _trace_tables(times, env_mats, log_weights, eigs):
    """Tr[U_b(t) rho_env U_k(t)^+] for every pair (b, k) of the charges of
    ``eigs`` and every time.

    ``env_mats`` maps a preparation sector charge to its per-mode (positive)
    matrices, ``log_weights`` to the log of its scalar prefactor.  A pair
    (c, c) is exactly 1: U_c = V_c e^{-iE_c t} V_c^T is unitary in the
    truncated space, so Tr[U_c m U_c^+] = Tr m for every m.  For b < k, per
    mode the trace is e_b(t)^T W e_k(t)^*, with phase vectors
    e_c(t) = e^{-iE_c t} and the real, time-independent
    W = (V_b^T m V_k) o (V_b^T V_k).  Modes run outermost; within one,
    V_b^T V_k is formed once per pair, V_b^T m once per (bra, preparation
    charge), and no product with V_0 = 1.  The (k, b) entry is the
    conjugate of the (b, k) one, since m is Hermitian.
    Returns {(c_bra, c_ket): complex array over ``times``}.
    """
    times = np.asarray(times, dtype=float)
    prep_charges = sorted(env_mats.keys())
    log_norms = np.asarray([_log_norm(log_weights[pc], env_mats[pc])
                            for pc in prep_charges])
    probs = np.exp(log_norms - _logsumexp(log_norms))

    distinct = sorted(eigs)
    pairs = [(b, k) for i, b in enumerate(distinct) for k in distinct[i + 1:]]
    ratios = {}
    for r in range(len(eigs[distinct[0]])):
        vecs = {c: eigs[c][r][1] for c in distinct}
        phases = {c: np.exp(-1j * np.outer(times, eigs[c][r][0])) for c in distinct}
        lefts = {}
        for (b, k) in pairs:
            overlap = vecs[k] if b == 0 else vecs[b].T if k == 0 else vecs[b].T @ vecs[k]
            for pc in prep_charges:
                m = env_mats[pc][r]
                if (b, pc) not in lefts:
                    lefts[(b, pc)] = m if b == 0 else vecs[b].T @ m
                left = lefts[(b, pc)]
                w = (left if k == 0 else left @ vecs[k]) * overlap
                num = np.sum((phases[b] @ w) * phases[k].conj(), axis=1)
                ratios[(b, k, pc)] = ratios.get((b, k, pc), 1.0) * (num / np.trace(m))
    table = {(c, c): np.ones(times.size, dtype=complex) for c in distinct}
    for (b, k) in pairs:
        acc = sum(prob * ratios[(b, k, pc)] for pc, prob in zip(prep_charges, probs))
        table[(k, b)] = acc.conj()
        table[(b, k)] = acc
    return table


def _log_norm(log_weight, mats):
    """``log_weight`` plus the log of the trace of each of ``mats``."""
    for m in mats:
        log_weight += math.log(float(np.real(np.trace(m))))
    return log_weight


def _logsumexp(values):
    values = np.asarray(values, dtype=float)
    peak = values.max()
    return float(peak + math.log(np.sum(np.exp(values - peak))))


def _evolve(omega_0, times, n_qubits, env_mats, log_weights, eigs):
    """Exact states at every t of ``times`` from one bath preparation."""
    labels, charges = _sectors(n_qubits)
    table = _trace_tables(times, env_mats, log_weights, eigs)
    dim = len(labels)
    weight = 1.0 / dim  # |+...+> has flat overlaps with every spin basis state
    states = []
    for k, t in enumerate(times):
        rho = np.empty((dim, dim), dtype=complex)
        for i, c_bra in enumerate(charges):
            for j, c_ket in enumerate(charges):
                phase = np.exp(-0.5j * omega_0 * (c_bra - c_ket) * t)
                rho[i, j] = weight * phase * table[(c_bra, c_ket)][k]
        reduced = rho if n_qubits == 1 else _trace_second_qubit(rho)
        states.append(EvolvedState(reduced=QubitState.from_matrix(reduced), full=rho))
    return states


@dataclass(frozen=True)
class EvolvedState:
    reduced: QubitState
    full: np.ndarray


def _factorized_preparation(db, bath):
    """|+...+> x thermal bath: one preparation charge with unit weight."""
    thermal = [_thermal_mode_matrix(w, db.n_max, bath.beta) for (w, g) in db.modes]
    return {0: thermal}, {0: 0.0}


def evolve_factorized(db, omega_0, bath, t, n_qubits=2):
    """Exact evolution from |+...+> x thermal bath; reduced and joint states."""
    env_mats, log_weights = _factorized_preparation(db, bath)
    return _evolve(omega_0, [t], n_qubits, env_mats, log_weights,
                   _block_eigs(db, n_qubits))[0]


@dataclass(frozen=True)
class CorrelatedPreparation:
    """Projectively prepared bath: per-sector Boltzmann factors and weights.

    ``log_z`` is the numerically computed log partition function of the
    joint thermal state; ``log_z_closed`` its displaced-mode closed form
    with the truncated free-mode partition function.
    """

    env_mats: dict
    log_weights: dict
    log_z: float
    log_z_closed: float

    @property
    def z_ratio(self):
        return math.exp(self.log_z - self.log_z_closed)


def prepare_correlated(db, omega_0, bath, n_qubits=2):
    """Projective |+...+> preparation of the jointly thermalized state.

    Finite temperature: per-sector Boltzmann matrices with shifted
    exponents so large beta cannot overflow.  Zero temperature: the exact
    ground-state projection (the most negative sector's displaced vacuum).
    """
    return _prepare_correlated(db, omega_0, bath, n_qubits,
                               _block_eigs(db, n_qubits))


def _prepare_correlated(db, omega_0, bath, n_qubits, eigs):
    mult = Counter(_sectors(n_qubits)[1])  # charge -> number of basis states
    n = db.n_max
    if bath.zero_temperature:
        c_min = min(mult)  # w0 c/2 - c^2 C/4 is minimized by the bottom sector
        ground = [np.outer(vecs[:, 0], vecs[:, 0].conj()) for (_, vecs) in eigs[c_min]]
        return CorrelatedPreparation(env_mats={c_min: ground}, log_weights={c_min: 0.0},
                                     log_z=math.inf, log_z_closed=math.inf)
    beta, parity = bath.beta, (-1.0) ** np.arange(n)
    env_mats = {}
    log_weights = {}
    log_terms = []
    for c, m in mult.items():
        mats = []
        log_w = math.log(m) - 0.5 * beta * omega_0 * c
        for r, (evals, vecs) in enumerate(eigs[c]):
            if -c in env_mats:  # (P V) f (P V)^T = P m P: only signs flip
                shifted = parity[:, None] * env_mats[-c][r] * parity
            else:
                shifted = (vecs * np.exp(-beta * (evals - evals[0]))) @ vecs.conj().T
                shifted = 0.5 * (shifted + shifted.conj().T)
            mats.append(shifted)
            log_w += -beta * evals[0]
        env_mats[c] = mats
        log_weights[c] = log_w
        log_terms.append(_log_norm(log_w, mats))
    log_z = _logsumexp(log_terms)

    # displaced-mode closed form with the truncated free partition function
    coupling_sum = sum(g * g / w for (w, g) in db.modes)
    log_ze = sum(math.log(float(np.sum(np.exp(-beta * w * np.arange(n)))))
                 for (w, g) in db.modes)
    closed_terms = [math.log(m) - 0.5 * beta * omega_0 * c
                    + beta * c * c * coupling_sum + log_ze
                    for c, m in mult.items()]
    log_z_closed = _logsumexp(closed_terms)
    return CorrelatedPreparation(env_mats=env_mats, log_weights=log_weights,
                                 log_z=log_z, log_z_closed=log_z_closed)


def evolve_correlated(db, omega_0, bath, t, n_qubits=2, preparation=None):
    """Exact evolution from the projectively prepared correlated state."""
    eigs = _block_eigs(db, n_qubits)
    prep = preparation if preparation is not None else _prepare_correlated(
        db, omega_0, bath, n_qubits, eigs)
    return _evolve(omega_0, [t], n_qubits, prep.env_mats, prep.log_weights, eigs)[0]


# ---------------------------------------------------------------------------
# closed-form references and the discrepancy report
# ---------------------------------------------------------------------------

def closed_form_coherence(db, omega_0, bath, t, n_qubits=2, correlated=False):
    """Reduced coherence predicted by the element formulas with mode sums."""
    fac = discrete_factors(db, bath, t)
    gamma = fac.gamma_d
    cos_part = math.cos(fac.delta_d) if n_qubits == 2 else 1.0
    x = 1.0 + 0.0j
    if correlated:
        scheme = TWO_QUBIT_TRACED if n_qubits == 2 else SINGLE_QUBIT_PROBE
        corr = correlations.corr_factors_from_parts(fac.c_d, fac.phi_d, bath.beta,
                                                    omega_0, scheme)
        gamma += corr.gamma_corr
        x = np.exp(-1j * corr.chi)
    return 0.5 * np.exp(-1j * omega_0 * t) * x * math.exp(-gamma) * cos_part


_REPORT_TOL = {(FACTORIZED, True): 1e-8,   # zero temperature
               (FACTORIZED, False): 1e-6,
               (CORRELATED, True): 1e-6,
               (CORRELATED, False): 1e-6}


def compare_report(db, bath, omega_0, t_grid, fixture_id):
    """Exact-vs-closed-form discrepancies for all scheme/preparation pairs.

    JSON-ready: one record per (scheme, initial state, t) with the absolute
    coherence discrepancy and its tolerance, plus Z and truncation checks.
    """
    trunc = truncation_info(db, bath)
    records = []
    overall = True
    z_ratios = {}  # the matrices of a preparation die with its qubit count
    for n_qubits, scheme in ((2, TWO_QUBIT_TRACED), (1, SINGLE_QUBIT_PROBE)):
        eigs = _block_eigs(db, n_qubits)
        prep = _prepare_correlated(db, omega_0, bath, n_qubits, eigs)
        z_ratios[n_qubits] = prep.z_ratio
        for initial, correlated in ((FACTORIZED, False), (CORRELATED, True)):
            tol = _REPORT_TOL[(initial, bath.zero_temperature)]
            env = ((prep.env_mats, prep.log_weights) if correlated
                   else _factorized_preparation(db, bath))
            states = _evolve(omega_0, t_grid, n_qubits, *env, eigs)
            for t, state in zip(t_grid, states):
                exact = state.reduced.rho01
                closed = closed_form_coherence(db, omega_0, bath, t, n_qubits,
                                               correlated)
                diff = float(abs(exact - closed))
                ok = bool(diff <= tol and trunc.ok)
                overall = overall and ok
                records.append({
                    "fixture": fixture_id,
                    "scheme": scheme,
                    "initial_state": initial,
                    "t": float(t),
                    "abs_discrepancy": diff,
                    "tolerance": tol,
                    "pass": ok,
                })
    z_check = None
    if not bath.zero_temperature:
        z_err = abs(z_ratios[2] - 1.0)
        z_pass = bool(z_err <= 1e-8 and trunc.ok)
        z_check = {"relative_error": float(z_err), "tolerance": 1e-8, "pass": z_pass}
        overall = overall and z_pass
    return {
        "fixture": fixture_id,
        "n_max": db.n_max,
        "modes": [list(m) for m in db.modes],
        "temperature": bath.temperature,
        "omega_0": omega_0,
        "truncation": {
            "ok": trunc.ok,
            "displacement_ok": trunc.displacement_ok,
            "thermal_ok": trunc.thermal_ok,
            "max_displacement_sq": trunc.max_displacement_sq,
            "max_thermal_tail": trunc.max_thermal_tail,
            "suggested_n_max": trunc.suggested_n_max,
        },
        "partition_function": z_check,
        "records": records,
        "max_discrepancy": max(r["abs_discrepancy"] for r in records),
        "pass": overall,
    }


FIXTURES = {
    "one-mode": DiscreteBath(modes=((1.0, 0.1),), n_max=30),
    "three-mode": DiscreteBath(modes=((0.5, 0.1), (1.0, 0.07), (1.7, 0.05)), n_max=40),
    "g-zero": DiscreteBath(modes=((1.0, 0.0), (1.7, 0.0)), n_max=30),
}
