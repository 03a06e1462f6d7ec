"""Output checks, run after the timed passes and never timed themselves.

Each job's output files are checked against tolerances, not against hashes
of committed files, so that a change which moves digits within the
acceptance tolerances still passes:

* every CSV value is finite, every oracle report has ``"pass": true``;
* Gamma >= 0 and Delta <= 0 on every factors row;
* ``boundary_hit`` is set exactly when ``t_star == t_max``;
* a seeded sample of rows is re-derived through the package's independent
  routes at the README's acceptance tolerances: ``quadrature_factor`` for the
  dephasing factors (1e-6) and ``qfi_spectral`` with ``state_derivative``
  for the QFI (1e-5);
* on every CFI row, the CFI at the emitted optimal angle matches the QFI
  (1e-8).

Apart from reading the config back with ``Scenario`` and building the reduced
state that the spectral QFI is defined on, the checks call only the
package's independent verification routes, not the production formulas they
verify.

The scenario behind a CSV is read back from its '#' header block, which the
CLI writes with the full parameter set at 17 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np
from bathprobe.cli import Scenario
from bathprobe.dynamics import ProbeConfig, reduced_qubit_state
from bathprobe.fisher import Estimand, qfi_spectral, state_derivative
from bathprobe.quadrature import QuadratureError
from bathprobe.spectral import quadrature_factor

FACTOR_TOL = 1e-6
QFI_TOL = 1e-5
CFI_TOL = 1e-8
ROWS_PER_FILE = 2


class CheckFailed(AssertionError):
    """An output value broke one of the checks above."""


def _fail(path, message):
    raise CheckFailed(f"{path.name}: {message}")


def read_csv(path):
    """(scenario, column names, rows of cell strings) of one CSV output."""
    config, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("[") or " = " in body:
                config.append(body)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    if columns is None:
        _fail(path, "no column header")
    return Scenario.from_config_text("\n".join(config)), columns, rows


def _finite_rows(path, columns, rows):
    """Rows as dicts; numeric cells parsed and required finite."""
    out = []
    for row in rows:
        if len(row) != len(columns):
            _fail(path, f"row has {len(row)} cells, header has {len(columns)}")
        rec = {}
        for col, cell in zip(columns, row):
            try:
                value = float(cell)
            except ValueError:
                if not cell:
                    _fail(path, f"empty {col} cell")
                rec[col] = cell
                continue
            if not math.isfinite(value):
                _fail(path, f"non-finite {col} = {cell}")
            rec[col] = value
        out.append(rec)
    return out


def _rel(a, b, floor):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _converged_derivative(cfg, sd, bath, estimand, t):
    """State derivative with the Richardson step quartered until it settles.

    A fixed relative step loses accuracy once the state winds quickly with
    the parameter (the induced phase grows like G Gamma(s) w_c t), so the
    reference refines its own step instead.
    """
    x = Estimand(estimand).current_value(sd, bath)
    h = 1e-4 * max(abs(x), 1.0)
    prev = state_derivative(cfg, sd, bath, estimand, t, step=h)
    for _ in range(6):
        h *= 0.25
        cur = state_derivative(cfg, sd, bath, estimand, t, step=h)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= 1e-6 * scale:
            return cur
        prev = cur
    return prev


def _check_qfi(path, cfg, sd, bath, estimand, t, value):
    state = reduced_qubit_state(cfg, sd, bath, t)
    ref = qfi_spectral(state, _converged_derivative(cfg, sd, bath, estimand, t)).value
    err = _rel(value, ref, 1e-10)
    if err > QFI_TOL:
        _fail(path, f"QFI {value!r} at t={t!r} vs spectral route {ref!r} "
                    f"(rel {err:.2e} > {QFI_TOL})")


def _quadrature_reference(kind, scenario, t):
    """The factor by direct quadrature, to 1e-8 like acceptance criterion 1.

    ``bath_integral`` can reject a sub-Ohmic phase integral whose head and
    tail each met the tolerance when the two carry opposite signs.  The
    error it raises carries the value and the achieved error; that value is
    still a sound reference while its error stays ten times below the check.
    """
    try:
        return quadrature_factor(kind, scenario.spectral, scenario.bath, t,
                                 rel_tol=1e-8).value
    except QuadratureError as exc:
        if exc.achieved_error <= 0.1 * FACTOR_TOL * abs(exc.value):
            return exc.value
        raise


def _check_factors(path, scenario, recs, rng):
    for rec in recs:
        for col in ("gamma_vac", "gamma_th"):
            if rec[col] < 0.0:
                _fail(path, f"{col} = {rec[col]!r} < 0 at t={rec['t']!r}")
        if rec["gamma_vac"] + rec["gamma_th"] + rec["gamma_corr"] < 0.0:
            _fail(path, f"total Gamma < 0 at t={rec['t']!r}")
        if rec["delta"] > 0.0:
            _fail(path, f"delta = {rec['delta']!r} > 0 at t={rec['t']!r}")
    kinds = ["gamma_vac", "gamma_th", "phi"]
    if scenario.probe.scheme == "two-qubit-traced":
        kinds.append("delta")
    for i in rng.choice(len(recs), size=min(ROWS_PER_FILE, len(recs)), replace=False):
        rec = recs[int(i)]
        for kind in kinds:
            ref = _quadrature_reference(kind, scenario, rec["t"])
            err = abs(rec[kind] - ref) / max(abs(ref), 1e-12)
            if err > FACTOR_TOL:
                _fail(path, f"{kind} {rec[kind]!r} at t={rec['t']!r} vs "
                            f"quadrature {ref!r} (rel {err:.2e} > {FACTOR_TOL})")


def _check_optima(path, scenario, recs, rng):
    for rec in recs:
        hit = rec["boundary_hit"] == "true"
        if hit != (rec["t_star"] == scenario.t_max):
            _fail(path, f"boundary_hit={rec['boundary_hit']} with "
                        f"t_star={rec['t_star']!r}, t_max={scenario.t_max!r}")
        if rec["f_star"] < 0.0:
            _fail(path, f"negative f_star {rec['f_star']!r}")
    for i in rng.choice(len(recs), size=min(ROWS_PER_FILE, len(recs)), replace=False):
        rec = recs[int(i)]
        if "sweep_value" in rec:
            sd, bath = scenario.at_sweep_value(rec["sweep_value"])
        else:
            sd, bath = scenario.spectral, scenario.bath
        cfg = ProbeConfig(scenario.probe.omega_0, rec["scheme"], rec["initial_state"])
        _check_qfi(path, cfg, sd, bath, scenario.estimand, rec["t_star"], rec["f_star"])


def _check_cfi(path, scenario, recs, rng):
    for rec in recs:
        if rec["qfi"] < 0.0 or rec["cfi"] < 0.0:
            _fail(path, f"negative information at t={rec['t']!r}")
        # criterion 3's threshold: below it the information is numerically zero
        if rec["qfi"] > 1e-12 and _rel(rec["cfi"], rec["qfi"], 0.0) > CFI_TOL:
            _fail(path, f"CFI at the optimal angle {rec['cfi']!r} vs QFI "
                        f"{rec['qfi']!r} at t={rec['t']!r} (> {CFI_TOL})")
    for i in rng.choice(len(recs), size=min(ROWS_PER_FILE, len(recs)), replace=False):
        rec = recs[int(i)]
        _check_qfi(path, scenario.probe, scenario.spectral, scenario.bath,
                   scenario.estimand, rec["t"], rec["qfi"])


def check_outputs(out_dir, rng):
    """Check every output file of one job; returns the files checked."""
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    checked = []
    for path in files:
        if path.suffix == ".csv":
            scenario, columns, rows = read_csv(path)
            recs = _finite_rows(path, columns, rows)
            if not recs:
                _fail(path, "no rows")
            if "gamma_vac" in columns:
                _check_factors(path, scenario, recs, rng)
            elif "f_star" in columns:
                _check_optima(path, scenario, recs, rng)
            elif "optimal_angle" in columns:
                _check_cfi(path, scenario, recs, rng)
            else:
                _fail(path, f"unknown columns {columns}")
            checked.append(path)
        elif path.name.startswith("oracle_") and path.suffix == ".json":
            report = json.loads(path.read_text(), parse_constant=lambda c: _fail(
                path, f"non-finite value {c}"))
            if report.get("pass") is not True:
                _fail(path, f"oracle report failed (max discrepancy "
                            f"{report.get('max_discrepancy')!r})")
            checked.append(path)
    if not checked:
        raise CheckFailed(f"{out_dir.name}: job wrote no output")
    return checked


def scientific_files(out_dir):
    """The deterministic outputs of a job (CSV and oracle reports); any
    sidecar such as a run manifest is left out of byte comparisons."""
    return sorted(p.name for p in out_dir.iterdir()
                  if p.suffix == ".csv" or (p.name.startswith("oracle_")
                                            and p.suffix == ".json"))
