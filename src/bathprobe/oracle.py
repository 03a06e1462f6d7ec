"""Exact discrete-mode oracle for the dephasing probe.

A handful of boson modes in a truncated Fock space make every closed form
checkable by brute force: the product-form unitary against the dense matrix
exponential, the factorized and projectively prepared dynamics against the
element formulas, and the preparation partition function against its
displaced-mode closed form.

The total Hamiltonian conserves every sigma_z, so all heavy objects factor
into (spin sector) x (mode) blocks:

    H | sector c  =  sum_r [ w_r n_r + c (g_r b_r + g_r b_r^+) ] + w0 c / 2

with c the total spin projection.  Per-sector, per-mode matrices are all
the oracle ever diagonalizes, which keeps three thermal modes at large
truncation cheap.  Kronecker assembly of the full matrices is exact (the
blocks commute by construction) and is cross-checked against a literal
dense exponential of the full Hamiltonian on small fixtures.

Truncation is certified at runtime: coherent displacement and thermal
occupation bounds, plus an empirical per-column leakage measure used to
pick the columns on which unitary comparisons are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import correlations
from .dynamics import BASIS_LABELS, QubitState, TwoQubitState

__all__ = [
    "DiscreteBath",
    "DiscreteFactors",
    "TruncationInfo",
    "discrete_factors",
    "lowering_operator",
    "mode_hamiltonian",
    "required_n_max",
    "MAX_N_MAX",
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
#: O(n_max**3) per (sector, mode) block, about 8 s at 800 levels on three
#: modes (2-vCPU VM, Python 3.11.7), so this keeps a run within minutes
MAX_N_MAX = 1000


def required_n_max(db, bath, margin=1.3):
    """Smallest truncation meeting the displacement and thermal tail rules."""
    n = 2
    for (w, g) in db.modes:
        disp = (4.0 * g / w) ** 2  # peak |alpha|^2 over time
        n = max(n, int(math.ceil(8.0 * disp)) + 8)
        if not bath.zero_temperature:
            n = max(n, int(math.ceil(12.0 * math.log(10.0) / (bath.beta * w))) + 1)
    return int(math.ceil(margin * n))


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


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------

def _mode_unitary_dense(omega, g, sector, n, t):
    """exp(-i h t) for one mode and sector via Hermitian diagonalization."""
    evals, vecs = np.linalg.eigh(mode_hamiltonian(omega, g, sector, n))
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def _mode_unitary_magnus(omega, g, sector, n, t):
    """Product-form unitary for one mode and sector.

    exp(-i h t) rewritten as phase x free rotation x displacement; the
    phase carries the commutator term that closes the exponential series.
    """
    b = lowering_operator(n)
    alpha = 2.0 * g * (1.0 - np.exp(1j * omega * t)) / omega
    delta_r = 4.0 * g * g / omega ** 2 * (math.sin(omega * t) - omega * t)
    free = expm(-1j * omega * t * (b.conj().T @ b))
    disp = expm(0.5 * sector * (alpha * b.conj().T - np.conj(alpha) * b))
    return np.exp(-0.25j * sector * sector * delta_r) * (free @ disp)


def _qubit_phase(omega_0, sector, t):
    return np.exp(-0.5j * omega_0 * sector * t)


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
    displacement exponential with the commutator phase; both are matrix
    exponentials in the truncated space collected over the spin sectors.
    """
    _check_full_dim(db, n_qubits)
    _, charges = _sectors(n_qubits)
    env_dim = db.n_max ** len(db.modes)
    dim = len(charges) * env_dim
    out = np.zeros((dim, dim), dtype=complex)
    for idx, c in enumerate(charges):
        mats = [_mode_unitary_magnus(w, g, c, db.n_max, t) for (w, g) in db.modes]
        block = _kron_all(mats) * _qubit_phase(omega_0, c, t)
        sl = slice(idx * env_dim, (idx + 1) * env_dim)
        out[sl, sl] = block
    return out


def dense_unitary(db, omega_0, t, n_qubits=2):
    """Literal exp(-i H t) of the assembled Hamiltonian (small fixtures)."""
    dim = _check_full_dim(db, n_qubits)
    labels, charges = _sectors(n_qubits)
    env_dim = db.n_max ** len(db.modes)
    h = np.zeros((dim, dim), dtype=complex)
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
    return expm(-1j * h * t)


def _certified_columns(omega, g, sector, n, t, leak_tol=1e-10, pad=40):
    """Columns of the n-level mode space with truncation leakage under tol.

    Certification is empirical: evolve in a padded space and measure the
    probability each column sends above the n-level boundary.
    """
    big = _mode_unitary_dense(omega, g, sector, n + pad, t)
    leak = np.sum(np.abs(big[n:, :n]) ** 2, axis=0)
    return np.flatnonzero(leak < leak_tol ** 2), big[:n, :n]


def compare_unitaries(db, omega_0, t, n_qubits=2, leak_tol=1e-10, pad=40):
    """Entrywise product-form vs dense-exponential check, per sector and mode.

    Only truncation-certified columns enter the comparison; columns whose
    evolution reaches the Fock boundary differ by design in any finite
    truncation.  Returns per-sector-mode rows plus the global maximum.
    """
    _, charges = _sectors(n_qubits)
    rows = []
    worst = 0.0
    certified_any = True
    for c in sorted(set(charges)):
        for r, (w, g) in enumerate(db.modes):
            cols, ref = _certified_columns(w, g, c, db.n_max, t, leak_tol, pad)
            dense = _mode_unitary_dense(w, g, c, db.n_max, t)
            mag = _mode_unitary_magnus(w, g, c, db.n_max, t)
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


def _block_eigs(db, n_qubits):
    """Eigenpairs (E, V) of every (sector charge, mode) block of ``n_qubits``.

    Each block is real symmetric, so U_c(t) = V e^{-iEt} V^T: one
    diagonalization serves every time and every preparation.
    """
    _, charges = _sectors(n_qubits)
    return {c: [np.linalg.eigh(mode_hamiltonian(w, g, c, db.n_max))
                for (w, g) in db.modes]
            for c in sorted(set(charges))}


def _trace_tables(times, env_mats, log_weights, eigs):
    """Tr[U_b(t) rho_env U_k(t)^+] for every pair (b, k) of the charges of
    ``eigs`` and every time.

    ``env_mats`` maps a preparation sector charge to its per-mode (positive)
    matrices, ``log_weights`` to the log of its scalar prefactor.  Per mode
    the trace is e_b(t)^T W e_k(t)^*, with phase vectors e_c(t) = e^{-iE_c t}
    and the real, time-independent W = (V_b^T m V_k) o (V_b^T V_k); each W
    meets the phases of all times in one product and is then dropped.  The
    (k, b) entry is the conjugate of the (b, k) one, since m is Hermitian.
    Returns {(c_bra, c_ket): complex array over ``times``}.
    """
    times = np.asarray(times, dtype=float)
    phases = {c: [np.exp(-1j * np.outer(times, evals)) for (evals, _) in blocks]
              for c, blocks in eigs.items()}
    prep_charges = sorted(env_mats.keys())
    log_norms = []
    for pc in prep_charges:
        log_norm = log_weights[pc]
        for m in env_mats[pc]:
            log_norm += math.log(float(np.real(np.trace(m))))
        log_norms.append(log_norm)
    log_norms = np.asarray(log_norms)
    probs = np.exp(log_norms - _logsumexp(log_norms))

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
        states.append(EvolvedState(reduced=_reduce(rho, n_qubits), full=rho))
    return states


def _reduce(rho, n_qubits):
    if n_qubits == 1:
        return QubitState.from_matrix(rho)
    r = np.array([[rho[0, 0] + rho[1, 1], rho[0, 2] + rho[1, 3]],
                  [rho[2, 0] + rho[3, 1], rho[2, 2] + rho[3, 3]]], dtype=complex)
    return QubitState.from_matrix(r)


@dataclass(frozen=True)
class EvolvedState:
    reduced: QubitState
    full: np.ndarray

    @property
    def two_qubit(self):
        if self.full.shape[0] != 4:
            raise ValueError("full state is not a two-qubit matrix")
        return TwoQubitState(matrix=self.full)


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


def _preparation_charges(n_qubits):
    # multiplicities of the total spin charge over the 2^nq basis states
    if n_qubits == 2:
        return {2: 1, 0: 2, -2: 1}
    return {1: 1, -1: 1}


def prepare_correlated(db, omega_0, bath, n_qubits=2):
    """Projective |+...+> preparation of the jointly thermalized state.

    Finite temperature: per-sector Boltzmann matrices with shifted
    exponents so large beta cannot overflow.  Zero temperature: the exact
    ground-state projection (the most negative sector's displaced vacuum).
    """
    return _prepare_correlated(db, omega_0, bath, n_qubits,
                               _block_eigs(db, n_qubits))


def _prepare_correlated(db, omega_0, bath, n_qubits, eigs):
    mult = _preparation_charges(n_qubits)
    n = db.n_max
    if bath.zero_temperature:
        c_min = min(mult)  # w0 c/2 - c^2 C/4 is minimized by the bottom sector
        ground = []
        for (_, vecs) in eigs[c_min]:
            gs = vecs[:, 0]
            ground.append(np.outer(gs, gs.conj()))
        env_mats = {c_min: ground}
        log_weights = {c_min: 0.0}
        return CorrelatedPreparation(env_mats=env_mats, log_weights=log_weights,
                                     log_z=math.inf, log_z_closed=math.inf)
    beta = bath.beta
    env_mats = {}
    log_weights = {}
    log_terms = []
    for c, m in mult.items():
        mats = []
        log_w = math.log(m) - 0.5 * beta * omega_0 * c
        for (evals, vecs) in eigs[c]:
            shifted = (vecs * np.exp(-beta * (evals - evals[0]))) @ vecs.conj().T
            shifted = 0.5 * (shifted + shifted.conj().T)
            mats.append(shifted)
            log_w += -beta * evals[0]
        env_mats[c] = mats
        log_weights[c] = log_w
        log_z_term = log_w
        for mat in mats:
            log_z_term += math.log(float(np.real(np.trace(mat))))
        log_terms.append(log_z_term)
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
        scheme = correlations.TWO_QUBIT if n_qubits == 2 else correlations.SINGLE_QUBIT
        corr = correlations.corr_factors_from_parts(fac.c_d, fac.phi_d, bath.beta,
                                                    omega_0, scheme)
        gamma += corr.gamma_corr
        x = np.exp(-1j * corr.chi)
    return 0.5 * np.exp(-1j * omega_0 * t) * x * math.exp(-gamma) * cos_part


_REPORT_TOL = {("factorized", True): 1e-8,   # zero temperature
               ("factorized", False): 1e-6,
               ("correlated", True): 1e-6,
               ("correlated", False): 1e-6}


def compare_report(db, bath, omega_0, t_grid, fixture_id="custom"):
    """Exact-vs-closed-form discrepancies for all scheme/preparation pairs.

    JSON-ready: one record per (scheme, initial state, t) with the absolute
    coherence discrepancy and its tolerance, plus Z and truncation checks.
    """
    trunc = truncation_info(db, bath)
    records = []
    overall = True
    preps = {}
    for n_qubits, scheme in ((2, "two-qubit-traced"), (1, "single-qubit")):
        eigs = _block_eigs(db, n_qubits)
        prep = preps[n_qubits] = _prepare_correlated(db, omega_0, bath, n_qubits,
                                                     eigs)
        for initial, correlated in (("factorized", False), ("correlated", True)):
            tol = _REPORT_TOL[(initial, bath.zero_temperature)]
            if correlated:
                env_mats, log_weights = prep.env_mats, prep.log_weights
            else:
                env_mats, log_weights = _factorized_preparation(db, bath)
            states = _evolve(omega_0, t_grid, n_qubits, env_mats, log_weights, eigs)
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
        z_err = abs(preps[2].z_ratio - 1.0)
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
