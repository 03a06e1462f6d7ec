"""Scenario runner: config files, parameter sweeps, and CSV/JSON emission.

Configs are sectioned key-value files (INI grammar, see ``Scenario``); all
physical quantities are in units of the probe splitting.  Every command
writes deterministic output: a '#'-prefixed header block carrying the full
parameter set, then fixed-order rows at 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import io
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

__all__ = ["Scenario", "FigurePreset", "FIGURE_PRESETS", "main"]

OUTPUT_DIR_ENV = "BATHPROBE_OUT"

_FMT = "%.17g"

VARIANTS = tuple((scheme, initial)
                 for scheme in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)
                 for initial in (CORRELATED, FACTORIZED))


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
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.sweep_start <= 0.0 or self.sweep_stop <= 0.0:
            raise ValueError("sweep range must be positive")
        if self.sweep_points < 2:
            raise ValueError("sweep needs at least 2 points")
        if self.sweep_variable not in ("cutoff", "coupling", "temperature"):
            raise ValueError(f"unknown sweep variable {self.sweep_variable!r}")
        if self.sweep_spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.sweep_spacing!r}")
        if self.time_spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.time_spacing!r}")
        if not self.t_max > 0.0:
            raise ValueError(f"t-max must be > 0, got {self.t_max}")
        if self.time_points < 1:
            raise ValueError(f"time grid needs at least 1 point, got {self.time_points}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")

    # -- config round trip ---------------------------------------------------

    def to_config_text(self):
        # repr() is the shortest exact round trip, so reparsing recovers
        # bit-identical floats
        cp = configparser.ConfigParser()
        cp["probe"] = {
            "omega0": repr(self.probe.omega_0),
            "scheme": self.probe.scheme,
            "initial-state": self.probe.initial_state,
        }
        cp["spectral"] = {
            "coupling": repr(self.spectral.coupling),
            "ohmicity": repr(self.spectral.ohmicity),
            "cutoff": repr(self.spectral.cutoff),
        }
        cp["bath"] = {"temperature": repr(self.bath.temperature)}
        cp["estimand"] = {"parameter": self.estimand.value}
        cp["sweep"] = {
            "variable": self.sweep_variable,
            "start": repr(self.sweep_start),
            "stop": repr(self.sweep_stop),
            "points": str(self.sweep_points),
            "spacing": self.sweep_spacing,
        }
        cp["time"] = {
            "t-max": repr(self.t_max),
            "grid": str(self.opt_grid),
            "points": str(self.time_points),
            "spacing": self.time_spacing,
        }
        cp["run"] = {"tolerance": repr(self.tolerance)}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_config_text(cls, text):
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None
        if cp.has_option("run", "threads"):
            raise ConfigError("[run] threads: the key was removed; runs are serial")
        get = _SectionReader(cp)
        try:
            return cls._from_reader(get)
        except ConfigError:
            raise
        except ValueError as exc:
            # a value the scenario's own checks reject, such as coupling = -1
            raise ConfigError(str(exc)) from None

    @classmethod
    def _from_reader(cls, get):
        probe = ProbeConfig(
            omega_0=get.number("probe", "omega0", 1.0),
            scheme=get.choice("probe", "scheme", TWO_QUBIT_TRACED,
                              (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)),
            initial_state=get.choice("probe", "initial-state", FACTORIZED,
                                     (FACTORIZED, CORRELATED)),
        )
        sd = SpectralDensity(
            coupling=get.number("spectral", "coupling", 1.0),
            ohmicity=get.number("spectral", "ohmicity", 1.0),
            cutoff=get.number("spectral", "cutoff", 1.0),
        )
        bath = BathState(temperature=get.number("bath", "temperature", 0.0))
        estimand = Estimand(get.choice(
            "estimand", "parameter", Estimand.CUTOFF_FREQUENCY.value,
            tuple(e.value for e in Estimand)))
        return cls(
            probe=probe, spectral=sd, bath=bath, estimand=estimand,
            sweep_variable=get.choice("sweep", "variable", "cutoff",
                                      ("cutoff", "coupling", "temperature")),
            sweep_start=get.number("sweep", "start", 0.5),
            sweep_stop=get.number("sweep", "stop", 3.0),
            sweep_points=get.integer("sweep", "points", 6),
            sweep_spacing=get.choice("sweep", "spacing", "linear", ("linear", "log")),
            t_max=get.number("time", "t-max", 20.0),
            opt_grid=get.integer("time", "grid", 128),
            time_points=get.integer("time", "points", 100),
            time_spacing=get.choice("time", "spacing", "linear", ("linear", "log")),
            tolerance=get.number("run", "tolerance", 1e-8),
        )

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


class _SectionReader:
    def __init__(self, cp):
        self.cp = cp

    def _raw(self, section, key, default):
        if not self.cp.has_section(section) or not self.cp.has_option(section, key):
            return None
        return self.cp.get(section, key)

    def number(self, section, key, default):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: expected a finite number, "
                              f"got {raw!r}")
        return value

    def integer(self, section, key, default):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None

    def choice(self, section, key, default, allowed):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        raw = raw.strip()
        if raw not in allowed:
            raise ConfigError(f"[{section}] {key}: {raw!r} not in {allowed}")
        return raw


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigurePreset:
    """Pinned scenario reproducing one published result panel."""

    figure_id: str
    scenario: Scenario
    kind: str            # qfi-sweep | cfi
    note: str = ""


FIGURE_PRESETS = {
    "fig1": FigurePreset(
        "fig1",
        Scenario(
            spectral=SpectralDensity(0.01, 0.5, 1.0), bath=BathState(0.0),
            estimand=Estimand.CUTOFF_FREQUENCY,
            sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
            sweep_points=6, t_max=1000.0, opt_grid=192),
        "qfi-sweep",
        "optimized cutoff-frequency QFI, weak sub-Ohmic coupling"),
    "fig2": FigurePreset(
        "fig2",
        Scenario(
            spectral=SpectralDensity(1.0, 0.5, 1.0), bath=BathState(0.0),
            estimand=Estimand.CUTOFF_FREQUENCY,
            sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
            sweep_points=6, t_max=50.0, opt_grid=160),
        "qfi-sweep",
        "same sweep at strong coupling"),
    "fig3": FigurePreset(
        "fig3",
        Scenario(
            spectral=SpectralDensity(1.0, 1.0, 1.0), bath=BathState(0.0),
            estimand=Estimand.CUTOFF_FREQUENCY,
            sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
            sweep_points=6, t_max=50.0, opt_grid=160),
        "qfi-sweep",
        "Ohmic bath; the weak-coupling inset uses coupling 0.1"),
    "fig4": FigurePreset(
        "fig4",
        Scenario(
            spectral=SpectralDensity(2.0, 2.0, 1.0), bath=BathState(0.0),
            estimand=Estimand.CUTOFF_FREQUENCY,
            sweep_variable="cutoff", sweep_start=0.5, sweep_stop=3.0,
            sweep_points=6, t_max=200.0, opt_grid=192),
        "qfi-sweep",
        "super-Ohmic bath; two-qubit information keeps accumulating"),
    "fig5": FigurePreset(
        "fig5",
        Scenario(
            spectral=SpectralDensity(1.0, 0.1, 5.0), bath=BathState(0.0),
            estimand=Estimand.COUPLING_STRENGTH,
            sweep_variable="coupling", sweep_start=0.2, sweep_stop=2.0,
            sweep_points=7, sweep_spacing="log", t_max=20.0, opt_grid=160),
        "qfi-sweep",
        "coupling-strength estimation, deep sub-Ohmic bath"),
    "fig6": FigurePreset(
        "fig6",
        Scenario(
            spectral=SpectralDensity(1.0, 1.0, 5.0), bath=BathState(0.0),
            estimand=Estimand.COUPLING_STRENGTH,
            sweep_variable="coupling", sweep_start=0.2, sweep_stop=2.0,
            sweep_points=7, sweep_spacing="log", t_max=20.0, opt_grid=160),
        "qfi-sweep",
        "coupling-strength estimation, Ohmic bath"),
    "fig7": FigurePreset(
        "fig7",
        Scenario(
            spectral=SpectralDensity(1.0, 2.0, 5.0), bath=BathState(0.0),
            estimand=Estimand.COUPLING_STRENGTH,
            sweep_variable="coupling", sweep_start=0.2, sweep_stop=2.0,
            sweep_points=7, sweep_spacing="log", t_max=200.0, opt_grid=192),
        "qfi-sweep",
        "coupling-strength estimation, super-Ohmic bath"),
    "fig8": FigurePreset(
        "fig8",
        Scenario(
            spectral=SpectralDensity(1.0, 2.0, 5.0), bath=BathState(1.0),
            estimand=Estimand.TEMPERATURE,
            sweep_variable="temperature", sweep_start=0.5, sweep_stop=2.0,
            sweep_points=4, t_max=5.0, opt_grid=72),
        "qfi-sweep",
        "temperature estimation; run for Ohmicity 2, 1, 0.5"),
    "fig9": FigurePreset(
        "fig9",
        Scenario(
            probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
            spectral=SpectralDensity(0.5, 1.0, 5.0), bath=BathState(0.0),
            estimand=Estimand.COUPLING_STRENGTH,
            t_max=5.0, time_points=50),
        "cfi",
        "optimal-measurement CFI versus QFI; panels cover G, T, cutoff"),
}

#: per-panel overrides for the three-panel optimal-measurement figure
FIG9_PANELS = {
    "main": dict(spectral=SpectralDensity(0.5, 1.0, 5.0), bath=BathState(0.0),
                 estimand=Estimand.COUPLING_STRENGTH),
    "temperature": dict(spectral=SpectralDensity(1.0, 1.0, 5.0), bath=BathState(1.0),
                        estimand=Estimand.TEMPERATURE),
    "cutoff": dict(spectral=SpectralDensity(0.01, 1.0, 1.0), bath=BathState(0.0),
                   estimand=Estimand.CUTOFF_FREQUENCY),
}

#: Ohmicity values covered by the temperature-estimation figure
FIG8_OHMICITIES = (2.0, 1.0, 0.5)


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


def _apply_overrides(scenario, args):
    changes = {}
    if getattr(args, "t_max", None) is not None:
        changes["t_max"] = args.t_max
    if getattr(args, "grid", None) is not None:
        changes["opt_grid"] = args.grid
    if getattr(args, "tol", None) is not None:
        changes["tolerance"] = args.tol
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
    fac = dephasing_factors(scenario.probe, scenario.spectral, scenario.bath, t,
                            rel_tol=scenario.tolerance)
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
    rows = []
    for value in scenario.sweep_values().tolist():
        sd, bath = scenario.at_sweep_value(value)
        for (scheme, initial) in VARIANTS:
            cfg = ProbeConfig(scenario.probe.omega_0, scheme, initial)
            opt = fisher.optimize_qfi_over_time(cfg, sd, bath, scenario.estimand,
                                                scenario.t_max, scenario.opt_grid,
                                                rel_tol=scenario.tolerance)
            rows.append((value, scheme, initial, opt.t_star, opt.f_star,
                         opt.boundary_hit))
    write_csv(out_path, scenario,
              ("sweep_value", "scheme", "initial_state", "t_star", "f_star",
               "boundary_hit"),
              rows,
              extra_header=(f"sweep variable: {scenario.sweep_variable}",))
    return rows


def run_cfi(scenario, out_path):
    """Optimal-angle CFI against the QFI over the time grid."""
    cfg = scenario.probe
    notes = []
    if cfg.initial_state == CORRELATED and not scenario.bath.zero_temperature:
        notes.append("finite-temperature level-shift derivatives are "
                     "chain-rule/finite-difference values")
    t = scenario.time_grid()
    bundle = fisher.factor_bundle(cfg, scenario.spectral, scenario.bath,
                                  scenario.estimand, t, rel_tol=scenario.tolerance)
    if cfg.initial_state == FACTORIZED:
        angle = cfg.omega_0 * t
    else:
        angle = fisher.optimal_angle_from_bundle(bundle, cfg.omega_0, t)
    qfi_val = fisher.qfi_from_bundle(bundle)
    cfi_val = fisher.cfi_from_bundle(bundle, cfg.omega_0, t, angle)
    gap = np.abs(cfi_val - qfi_val) / np.maximum(qfi_val, 1e-300)
    rows = list(zip(*(col.tolist() for col in (t, angle, cfi_val, qfi_val, gap))))
    write_csv(out_path, scenario,
              ("t", "optimal_angle", "cfi", "qfi", "relative_gap"),
              rows, extra_header=tuple(notes))
    return rows


def run_optimize(scenario, out_path):
    """Single time-optimization for each variant at the base parameters."""
    rows = []
    for (scheme, initial) in VARIANTS:
        cfg = ProbeConfig(scenario.probe.omega_0, scheme, initial)
        opt = fisher.optimize_qfi_over_time(cfg, scenario.spectral, scenario.bath,
                                            scenario.estimand, scenario.t_max,
                                            scenario.opt_grid,
                                            rel_tol=scenario.tolerance)
        rows.append((scheme, initial, opt.t_star, opt.f_star, opt.boundary_hit))
    write_csv(out_path, scenario,
              ("scheme", "initial_state", "t_star", "f_star", "boundary_hit"),
              rows)
    return rows


def run_oracle_validation(fixture_id, out_path, n_max=None, temperature=0.0,
                          omega_0=1.0):
    """Discrete-mode validation run; nonzero exit on any failed check."""
    if fixture_id not in oracle.FIXTURES:
        raise ConfigError(f"unknown fixture {fixture_id!r}; "
                          f"known: {sorted(oracle.FIXTURES)}")
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ConfigError(f"temperature must be finite and >= 0, got {temperature!r}")
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
    report = oracle.compare_report(db, bath, omega_0, t_grid, fixture_id)
    Path(out_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def run_figure(figure_id, out_dir):
    """Run one figure preset end to end; returns emitted file paths."""
    if figure_id not in FIGURE_PRESETS:
        raise ConfigError(f"unknown figure {figure_id!r}; known: "
                          f"{sorted(FIGURE_PRESETS)}")
    preset = FIGURE_PRESETS[figure_id]
    paths = []
    if figure_id == "fig8":
        for s in FIG8_OHMICITIES:
            scenario = replace(preset.scenario,
                               spectral=SpectralDensity(
                                   preset.scenario.spectral.coupling, s,
                                   preset.scenario.spectral.cutoff))
            path = out_dir / f"{figure_id}_s{s:g}_qfi_sweep.csv"
            run_qfi_sweep(scenario, path)
            paths.append(path)
    elif figure_id == "fig9":
        for panel, overrides in FIG9_PANELS.items():
            scenario = replace(preset.scenario, **overrides)
            path = out_dir / f"{figure_id}_{panel}_cfi.csv"
            run_cfi(scenario, path)
            paths.append(path)
    else:
        scenario = preset.scenario
        path = out_dir / f"{figure_id}_qfi_sweep.csv"
        run_qfi_sweep(scenario, path)
        paths.append(path)
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

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario config file")
        add_out(p)
        p.add_argument("--t-max", type=float, dest="t_max")
        p.add_argument("--grid", type=int)
        p.add_argument("--tol", type=float)

    add_common(sub.add_parser("factors", help="time-resolved dephasing factors"))
    add_common(sub.add_parser("qfi-sweep", help="optimized QFI across a sweep"))
    add_common(sub.add_parser("cfi", help="optimal-measurement CFI vs QFI"))
    add_common(sub.add_parser("optimize", help="single QFI time optimization"))

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
        runner = {"factors": run_factors, "qfi-sweep": run_qfi_sweep,
                  "cfi": run_cfi, "optimize": run_optimize}[args.command]
        out_path = out_dir / f"{args.command.replace('-', '_')}.csv"
        runner(scenario, out_path)
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
