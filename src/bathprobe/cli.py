"""Scenario runner: config files, parameter sweeps, and CSV/JSON emission.

Configs are sectioned key-value files (INI grammar, see ``Scenario``); all
physical quantities are in units of the probe splitting.  Every command
writes deterministic output: a '#'-prefixed header block carrying the full
parameter set, then fixed-order rows at 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fisher, oracle
from .dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                       TWO_QUBIT_TRACED, ProbeConfig, dephasing_factors)
from .fisher import Estimand
from .quadrature import QuadratureError
from .spectral import BathState, NumericalError, SpectralDensity

__all__ = ["Scenario", "FIGURE_PRESETS", "main"]

OUTPUT_DIR_ENV = "BATHPROBE_OUT"

_FMT = "%.17g"

VARIANTS = tuple((scheme, initial)
                 for scheme in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)
                 for initial in (CORRELATED, FACTORIZED))

#: every config key as (section, key, Scenario field, sub-field or None), in
#: the order the config text and the output headers write them
_CONFIG_KEYS = (
    ("probe", "omega0", "probe", "omega_0"),
    ("probe", "scheme", "probe", "scheme"),
    ("probe", "initial-state", "probe", "initial_state"),
    ("spectral", "coupling", "spectral", "coupling"),
    ("spectral", "ohmicity", "spectral", "ohmicity"),
    ("spectral", "cutoff", "spectral", "cutoff"),
    ("bath", "temperature", "bath", "temperature"),
    ("estimand", "parameter", "estimand", None),
    ("sweep", "variable", "sweep_variable", None),
    ("sweep", "start", "sweep_start", None),
    ("sweep", "stop", "sweep_stop", None),
    ("sweep", "points", "sweep_points", None),
    ("sweep", "spacing", "sweep_spacing", None),
    ("time", "t-max", "t_max", None),
    ("time", "grid", "opt_grid", None),
    ("time", "points", "time_points", None),
    ("time", "spacing", "time_spacing", None),
)

_KEY_FIELDS = {(section, key): (name, sub) for section, key, name, sub in _CONFIG_KEYS}


@dataclass(frozen=True)
class Scenario:
    """Full description of one run; round-trips through the config format."""

    probe: ProbeConfig = field(default_factory=ProbeConfig)
    spectral: SpectralDensity = field(default_factory=lambda: SpectralDensity(1.0, 1.0, 1.0))
    bath: BathState = field(default_factory=BathState)
    estimand: Estimand = Estimand.CUTOFF_FREQUENCY
    sweep_variable: str = "cutoff"        # cutoff | coupling | temperature
    sweep_start: float = 0.5
    sweep_stop: float = 3.0
    sweep_points: int = 6
    sweep_spacing: str = "linear"         # linear | log
    t_max: float = 20.0
    opt_grid: int = 128
    time_points: int = 100
    time_spacing: str = "linear"

    def __post_init__(self):
        for section, key, name, sub in _CONFIG_KEYS:
            value = getattr(getattr(self, name), sub) if sub else getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"[{section}] {key} must be finite, got {value!r}")
        if self.sweep_start <= 0.0 or self.sweep_stop <= 0.0:
            raise ValueError("sweep range must be positive")
        if self.sweep_points < 2:
            raise ValueError("sweep needs at least 2 points")
        if self.sweep_variable not in ("cutoff", "coupling", "temperature"):
            raise ValueError(f"unknown sweep variable {self.sweep_variable!r}")
        if self.sweep_spacing not in ("linear", "log"):
            raise ValueError(f"unknown sweep spacing {self.sweep_spacing!r}")
        if self.time_spacing not in ("linear", "log"):
            raise ValueError(f"unknown time spacing {self.time_spacing!r}")
        if not self.t_max > 0.0:
            raise ValueError(f"t-max must be > 0, got {self.t_max}")
        if self.time_points < 1:
            raise ValueError(f"time grid needs at least 1 point, got {self.time_points}")

    # -- config round trip ---------------------------------------------------

    def to_config_text(self):
        sections = {}
        for section, key, name, sub in _CONFIG_KEYS:
            value = getattr(self, name)
            if sub is not None:
                value = getattr(value, sub)
            lines = sections.setdefault(section, [f"[{section}]"])
            lines.append(f"{key} = {_config_value(value)}")
        return "".join("\n".join(lines) + "\n\n" for lines in sections.values())

    @classmethod
    def from_config_text(cls, text):
        # no interpolation: '%' in a value is an ordinary character
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
        # configparser spreads these two over several lines; one line each
        except configparser.MissingSectionHeaderError as exc:
            raise ConfigError(f"line {exc.lineno}: expected a [section] header, "
                              f"got {exc.line!r}") from None
        except configparser.ParsingError as exc:
            lineno, line = exc.errors[0]  # the line comes as its repr
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {line}") from None
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None
        default = cls()
        fields, nested = {}, {}    # Scenario field -> value; -> {sub-field: value}
        # [DEFAULT] first: its keys are unknown there, and would otherwise
        # be read into every other section
        for section in (cp.default_section, *cp.sections()):
            for key, raw in cp.items(section, raw=True):
                if (section, key) not in _KEY_FIELDS:
                    raise ConfigError(f"[{section}] {key}: unknown key")
                name, sub = _KEY_FIELDS[section, key]
                current = getattr(default, name)
                if sub is not None:
                    current = getattr(current, sub)
                try:
                    value = _parse_value(raw, current)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
                if sub is None:
                    fields[name] = value
                else:
                    nested.setdefault(name, {})[sub] = value
        try:
            for name, values in nested.items():
                fields[name] = replace(getattr(default, name), **values)
            return replace(default, **fields)
        except ValueError as exc:
            # a value the scenario's own checks reject, such as coupling = -1
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_config_file(cls, path):
        return cls.from_config_text(Path(path).read_text())

    # -- derived grids ---------------------------------------------------

    def sweep_values(self):
        if self.sweep_spacing == "log":
            return np.geomspace(self.sweep_start, self.sweep_stop, self.sweep_points)
        return np.linspace(self.sweep_start, self.sweep_stop, self.sweep_points)

    def time_grid(self):
        if self.time_spacing == "log":
            return np.geomspace(self.t_max * 1e-3, self.t_max, self.time_points)
        return np.linspace(self.t_max / self.time_points, self.t_max,
                           self.time_points)

    def at_sweep_value(self, value):
        if self.sweep_variable == "cutoff":
            sd = SpectralDensity(self.spectral.coupling, self.spectral.ohmicity, value)
            return sd, self.bath
        if self.sweep_variable == "coupling":
            sd = SpectralDensity(value, self.spectral.ohmicity, self.spectral.cutoff)
            return sd, self.bath
        return self.spectral, BathState(temperature=value)


class ConfigError(ValueError):
    """Config file could not be parsed; message carries key diagnostics."""


def _config_value(value):
    if isinstance(value, Estimand):
        return value.value
    # repr() is the shortest exact round trip, so reparsing recovers
    # bit-identical floats
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(raw, default):
    """``raw`` read as the type of ``default``; ValueError if it is not one."""
    if isinstance(default, Estimand):
        return Estimand(raw)
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
    return raw


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

#: figure id -> (file name, command, scenario) of each file the preset writes;
#: each scenario pins the parameters of one published result panel
FIGURE_PRESETS = {
    # optimized cutoff-frequency QFI, weak sub-Ohmic coupling
    "fig1": (("fig1_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(0.01, 0.5, 1.0), bath=BathState(0.0),
        estimand=Estimand.CUTOFF_FREQUENCY,
        sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
        sweep_points=6, t_max=1000.0, opt_grid=192)),),
    # same sweep at strong coupling
    "fig2": (("fig2_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(1.0, 0.5, 1.0), bath=BathState(0.0),
        estimand=Estimand.CUTOFF_FREQUENCY,
        sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
        sweep_points=6, t_max=50.0, opt_grid=160)),),
    # Ohmic bath; the weak-coupling inset uses coupling 0.1
    "fig3": (("fig3_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(1.0, 1.0, 1.0), bath=BathState(0.0),
        estimand=Estimand.CUTOFF_FREQUENCY,
        sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
        sweep_points=6, t_max=50.0, opt_grid=160)),),
    # super-Ohmic bath; two-qubit information keeps accumulating
    "fig4": (("fig4_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(2.0, 2.0, 1.0), bath=BathState(0.0),
        estimand=Estimand.CUTOFF_FREQUENCY,
        sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
        sweep_points=6, t_max=200.0, opt_grid=192)),),
    # coupling-strength estimation, deep sub-Ohmic bath
    "fig5": (("fig5_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(1.0, 0.1, 5.0), bath=BathState(0.0),
        estimand=Estimand.COUPLING_STRENGTH,
        sweep_variable="coupling", sweep_start=0.2, sweep_stop=2.0,
        sweep_points=7, sweep_spacing="log", t_max=20.0, opt_grid=160)),),
    # coupling-strength estimation, Ohmic bath
    "fig6": (("fig6_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(1.0, 1.0, 5.0), bath=BathState(0.0),
        estimand=Estimand.COUPLING_STRENGTH,
        sweep_variable="coupling", sweep_start=0.2, sweep_stop=2.0,
        sweep_points=7, sweep_spacing="log", t_max=20.0, opt_grid=160)),),
    # coupling-strength estimation, super-Ohmic bath
    "fig7": (("fig7_qfi_sweep.csv", "qfi-sweep", Scenario(
        spectral=SpectralDensity(1.0, 2.0, 5.0), bath=BathState(0.0),
        estimand=Estimand.COUPLING_STRENGTH,
        sweep_variable="coupling", sweep_start=0.2, sweep_stop=2.0,
        sweep_points=7, sweep_spacing="log", t_max=200.0, opt_grid=192)),),
    # temperature estimation at Ohmicity 2, 1 and 0.5
    "fig8": tuple(
        (f"fig8_s{s:g}_qfi_sweep.csv", "qfi-sweep", Scenario(
            spectral=SpectralDensity(1.0, s, 5.0), bath=BathState(1.0),
            estimand=Estimand.TEMPERATURE,
            sweep_variable="temperature", sweep_start=0.5, sweep_stop=2.0,
            sweep_points=4, t_max=5.0, opt_grid=72))
        for s in (2.0, 1.0, 0.5)),
    # optimal-measurement CFI versus QFI, one panel per estimand
    "fig9": (
        ("fig9_main_cfi.csv", "cfi", Scenario(
            probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
            spectral=SpectralDensity(0.5, 1.0, 5.0), bath=BathState(0.0),
            estimand=Estimand.COUPLING_STRENGTH, t_max=5.0, time_points=50)),
        ("fig9_temperature_cfi.csv", "cfi", Scenario(
            probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
            spectral=SpectralDensity(1.0, 1.0, 5.0), bath=BathState(1.0),
            estimand=Estimand.TEMPERATURE, t_max=5.0, time_points=50)),
        ("fig9_cutoff_cfi.csv", "cfi", Scenario(
            probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
            spectral=SpectralDensity(0.01, 1.0, 1.0), bath=BathState(0.0),
            estimand=Estimand.CUTOFF_FREQUENCY, t_max=5.0, time_points=50))),
}


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _header_block(scenario, extra=()):
    lines = ["# bathprobe output", "#"]
    for raw in scenario.to_config_text().strip().splitlines():
        lines.append(f"# {raw}" if raw else "#")
    for item in extra:
        lines.append(f"# {item}")
    return "\n".join(lines) + "\n"


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def write_csv(path, scenario, columns, rows, extra_header=()):
    text = [_header_block(scenario, extra_header)]
    text.append(",".join(columns) + "\n")
    for row in rows:
        text.append(",".join(_format_cell(v) for v in row) + "\n")
    Path(path).write_text("".join(text))


def _resolve_out_dir(args):
    out = getattr(args, "out", None) or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_estimand(scenario, command):
    """ConfigError for a temperature or coupling estimand at a true value of
    0, where its information is undefined, unless a qfi-sweep supplies it."""
    est = scenario.estimand
    section, key, value = (("bath", "temperature", scenario.bath.temperature)
                           if est is Estimand.TEMPERATURE else
                           ("spectral", "coupling", scenario.spectral.coupling))
    sweep = command == "qfi-sweep"
    if (command != "factors" and est is not Estimand.CUTOFF_FREQUENCY and value == 0.0
            and not (sweep and scenario.sweep_variable == key)):
        raise ConfigError(f"[estimand] parameter = {est.value} needs [{section}] {key} > 0"
                          + (f" or [sweep] variable = {key}" if sweep else ""))


def _apply_overrides(scenario, args):
    changes = {}
    if getattr(args, "t_max", None) is not None:
        changes["t_max"] = args.t_max
    if getattr(args, "grid", None) is not None:
        changes["opt_grid"] = args.grid
    if not changes:
        return scenario
    try:
        return replace(scenario, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_factors(scenario, out_path):
    """Time-resolved dephasing factors and coherence envelope."""
    t = scenario.time_grid()
    fac = dephasing_factors(scenario.probe, scenario.spectral, scenario.bath, t)
    envelope = np.cos(fac.delta) * np.exp(-fac.gamma_total)
    rows = list(zip(*(col.tolist() for col in (
        t, fac.gamma_vac, fac.gamma_th, fac.gamma_corr, fac.delta, fac.phi,
        fac.chi, envelope))))
    write_csv(out_path, scenario,
              ("t", "gamma_vac", "gamma_th", "gamma_corr", "delta", "phi",
               "chi", "coherence"),
              rows)
    return rows


def run_qfi_sweep(scenario, out_path):
    """Optimized QFI across the sweep for all scheme/preparation variants."""
    cfgs = [ProbeConfig(scenario.probe.omega_0, *variant) for variant in VARIANTS]
    values = scenario.sweep_values().tolist()
    optima = fisher.optimize_variants(cfgs, [scenario.at_sweep_value(v) for v in values],
                                      scenario.estimand, scenario.t_max,
                                      scenario.opt_grid)
    rows = [(value, cfg.scheme, cfg.initial_state, opt.t_star, opt.f_star, opt.boundary_hit)
            for value, opts in zip(values, optima) for cfg, opt in zip(cfgs, opts)]
    write_csv(out_path, scenario,
              ("sweep_value", "scheme", "initial_state", "t_star", "f_star",
               "boundary_hit"),
              rows,
              extra_header=(f"sweep variable: {scenario.sweep_variable}",))
    return rows


def run_cfi(scenario, out_path):
    """Optimal-angle CFI against the QFI over the time grid."""
    cfg = scenario.probe
    t = scenario.time_grid()
    bundle = fisher.factor_bundle(cfg, scenario.spectral, scenario.bath,
                                  scenario.estimand, t)
    angle = fisher.optimal_angle_from_bundle(bundle, cfg.omega_0, t)
    qfi_val = fisher.qfi_from_bundle(bundle)
    cfi_val = fisher.cfi_from_bundle(bundle, cfg.omega_0, t, angle)
    gap = np.abs(cfi_val - qfi_val) / np.maximum(qfi_val, 1e-300)
    rows = list(zip(*(col.tolist() for col in (t, angle, cfi_val, qfi_val, gap))))
    write_csv(out_path, scenario,
              ("t", "optimal_angle", "cfi", "qfi", "relative_gap"),
              rows)
    return rows


def run_optimize(scenario, out_path):
    """Single time-optimization for each variant at the base parameters."""
    rows = []
    for (scheme, initial) in VARIANTS:
        cfg = ProbeConfig(scenario.probe.omega_0, scheme, initial)
        opt = fisher.optimize_qfi_over_time(cfg, scenario.spectral, scenario.bath,
                                            scenario.estimand, scenario.t_max,
                                            scenario.opt_grid)
        rows.append((scheme, initial, opt.t_star, opt.f_star, opt.boundary_hit))
    write_csv(out_path, scenario,
              ("scheme", "initial_state", "t_star", "f_star", "boundary_hit"),
              rows)
    return rows


def run_oracle_validation(fixture_id, out_path, n_max=None, temperature=0.0):
    """Discrete-mode validation run at omega_0 = 1; nonzero exit on any
    failed check."""
    if fixture_id not in oracle.FIXTURES:
        raise ConfigError(f"unknown fixture {fixture_id!r}; "
                          f"known: {sorted(oracle.FIXTURES)}")
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ConfigError(f"temperature must be finite and >= 0, got {temperature!r}")
    if 0.0 < temperature < oracle.MIN_TEMPERATURE:
        raise ConfigError(f"temperature {temperature!r} is below {oracle.MIN_TEMPERATURE}, "
                          "too cold for the oracle's partition-function check; use 0 "
                          "for the ground state")
    if n_max is not None and not 1 <= n_max <= oracle.MAX_N_MAX:
        raise ConfigError(f"n_max must be in [1, {oracle.MAX_N_MAX}], got {n_max}")
    db = oracle.FIXTURES[fixture_id]
    bath = BathState(temperature=temperature)
    try:
        need = oracle.required_n_max(db, bath)
    except OverflowError:  # the thermal rule passes every float
        need = math.inf
    if need > oracle.MAX_N_MAX:
        raise ConfigError(f"temperature {temperature!r} needs more than "
                          f"{oracle.MAX_N_MAX} Fock levels per mode, the largest "
                          f"truncation the oracle runs")
    if n_max is not None:
        db = db.with_n_max(n_max)
    t_grid = [0.5, 1.0, 2.0, 4.0]
    report = oracle.compare_report(db, bath, 1.0, t_grid, fixture_id)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    Path(out_path).write_text(text + "\n")
    return report


RUNNERS = {"factors": run_factors, "qfi-sweep": run_qfi_sweep, "cfi": run_cfi,
           "optimize": run_optimize}


def run_figure(figure_id, out_dir):
    """Run one figure preset end to end; returns emitted file paths."""
    if figure_id not in FIGURE_PRESETS:
        raise ConfigError(f"unknown figure {figure_id!r}; known: "
                          f"{sorted(FIGURE_PRESETS)}")
    paths = []
    for name, command, scenario in FIGURE_PRESETS[figure_id]:
        RUNNERS[command](scenario, out_dir / name)
        paths.append(out_dir / name)
    return paths


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bathprobe",
        description="Dephasing-probe estimation of bath parameters: exact "
                    "dynamics, Fisher information, and validation runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")

    def add_common(p, optimizes=False):
        p.add_argument("--config", required=True, help="scenario config file")
        add_out(p)
        p.add_argument("--t-max", type=float, dest="t_max")
        if optimizes:  # only the time optimization reads the coarse grid
            p.add_argument("--grid", type=int,
                           help="coarse optimization grid size; at least 64 points are used")

    add_common(sub.add_parser("factors", help="time-resolved dephasing factors"))
    add_common(sub.add_parser("qfi-sweep", help="optimized QFI across a sweep"), True)
    add_common(sub.add_parser("cfi", help="optimal-measurement CFI vs QFI"))
    add_common(sub.add_parser("optimize", help="single QFI time optimization"), True)

    # a preset pins its scenario, so only the output directory applies
    fig = sub.add_parser("figure", help="run a pinned figure preset")
    fig.add_argument("figure_id", choices=sorted(FIGURE_PRESETS))
    add_out(fig)

    orc = sub.add_parser("oracle-validate", help="discrete-mode validation run")
    orc.add_argument("fixture", choices=sorted(oracle.FIXTURES))
    orc.add_argument("--n-max", type=int, dest="n_max")
    orc.add_argument("--temperature", type=float, default=0.0)
    orc.add_argument("--out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        out_dir = _resolve_out_dir(args)
        if args.command == "oracle-validate":
            out_path = out_dir / f"oracle_{args.fixture}.json"
            report = run_oracle_validation(args.fixture, out_path,
                                           n_max=args.n_max,
                                           temperature=args.temperature)
            status = "pass" if report["pass"] else "FAIL"
            print(f"{status}: max discrepancy {report['max_discrepancy']:.3e} "
                  f"-> {out_path}")
            if not report["truncation"]["ok"]:
                print(f"truncation starved; retry with --n-max "
                      f"{report['truncation']['suggested_n_max']}")
            return 0 if report["pass"] else 1
        if args.command == "figure":
            paths = run_figure(args.figure_id, out_dir)
            for p in paths:
                print(f"wrote {p}")
            return 0
        scenario = _apply_overrides(Scenario.from_config_file(args.config), args)
        _check_estimand(scenario, args.command)
        out_path = out_dir / f"{args.command.replace('-', '_')}.csv"
        RUNNERS[args.command](scenario, out_path)
        print(f"wrote {out_path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
