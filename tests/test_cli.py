"""Config round trips, deterministic output, and end-to-end commands."""

import json
import math
from dataclasses import replace

import pytest

from bathprobe.cli import (FIG8_OHMICITIES, FIG9_PANELS, FIGURE_PRESETS,
                           ConfigError, Scenario, main, run_cfi, run_factors,
                           run_optimize, run_oracle_validation, run_qfi_sweep)
from bathprobe.dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                                TWO_QUBIT_TRACED, ProbeConfig)
from bathprobe.fisher import Estimand
from bathprobe.spectral import BathState, SpectralDensity

QUICK = Scenario(
    probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, CORRELATED),
    spectral=SpectralDensity(0.5, 1.0, 2.0),
    bath=BathState(0.0),
    estimand=Estimand.CUTOFF_FREQUENCY,
    sweep_points=3, sweep_start=0.5, sweep_stop=2.0,
    t_max=5.0, opt_grid=64, time_points=12,
)


def test_config_round_trip():
    for scenario in (QUICK,
                     replace(QUICK, sweep_spacing="log", time_spacing="log"),
                     replace(QUICK, bath=BathState(0.7),
                             estimand=Estimand.TEMPERATURE,
                             sweep_variable="temperature")):
        text = scenario.to_config_text()
        assert Scenario.from_config_text(text) == scenario


def test_config_parse_diagnostics():
    bad = QUICK.to_config_text().replace("points = 3", "points = many")
    with pytest.raises(ConfigError) as err:
        Scenario.from_config_text(bad)
    assert "[sweep] points" in str(err.value)
    bad = QUICK.to_config_text().replace("= linear", "= diagonal")
    with pytest.raises(ConfigError):
        Scenario.from_config_text(bad)


def test_scenario_validation():
    with pytest.raises(ValueError):
        replace(QUICK, sweep_points=1)
    with pytest.raises(ValueError):
        replace(QUICK, sweep_start=-1.0)
    with pytest.raises(ValueError):
        replace(QUICK, sweep_variable="phase")


def test_factors_run_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_factors(QUICK, a)
    run_factors(QUICK, b)
    assert a.read_bytes() == b.read_bytes()


def test_factors_rows_are_self_consistent(tmp_path):
    path = tmp_path / "factors.csv"
    scenario = replace(QUICK, bath=BathState(0.8))
    rows = run_factors(scenario, path)
    assert len(rows) == scenario.time_points
    for (t, gv, gt, gc, delta, phi, chi, coh) in rows:
        again = math.cos(delta) * math.exp(-(gv + gt + gc))
        assert abs(coh - again) < 1e-12
    header = path.read_text().splitlines()
    assert header[0].startswith("#")
    assert any("coupling = 0.5" in line for line in header)


def test_factors_zero_coupling_rows(tmp_path):
    scenario = replace(QUICK, spectral=SpectralDensity(0.0, 1.0, 2.0))
    rows = run_factors(scenario, tmp_path / "zero.csv")
    for (t, gv, gt, gc, delta, phi, chi, coh) in rows:
        assert (gv, gt, gc, delta, phi, chi) == (0.0,) * 6
        assert coh == 1.0


def test_qfi_sweep_covers_all_variants(tmp_path):
    rows = run_qfi_sweep(QUICK, tmp_path / "sweep.csv")
    assert len(rows) == QUICK.sweep_points * 4
    variants = {(scheme, initial) for (_, scheme, initial, *_rest) in rows}
    assert variants == {(s, i) for s in (TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE)
                        for i in (CORRELATED, FACTORIZED)}
    for (_value, _scheme, _initial, t_star, f_star, boundary) in rows:
        assert f_star >= 0.0
        assert 0.0 < t_star <= QUICK.t_max * (1 + 1e-12)
        assert isinstance(boundary, bool)


def test_cfi_run_factorized_angles(tmp_path):
    scenario = replace(QUICK, probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED))
    rows = run_cfi(scenario, tmp_path / "cfi.csv")
    for (t, angle, cfi_val, qfi_val, gap) in rows:
        assert angle == scenario.probe.omega_0 * t
        assert gap <= 1e-8


def test_cfi_run_correlated_gap(tmp_path):
    rows = run_cfi(QUICK, tmp_path / "cfi.csv")
    assert all(gap <= 1e-8 for (*_, gap) in rows)


def test_cfi_zero_coupling_rows(tmp_path):
    scenario = replace(QUICK, spectral=SpectralDensity(0.0, 1.0, 2.0),
                       probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED))
    rows = run_cfi(scenario, tmp_path / "cfi0.csv")
    for (_t, _angle, cfi_val, qfi_val, _gap) in rows:
        assert cfi_val == 0.0 and qfi_val == 0.0


def test_optimize_run(tmp_path):
    rows = run_optimize(QUICK, tmp_path / "opt.csv")
    assert len(rows) == 4


def test_oracle_validation_pass_and_fail(tmp_path):
    report = run_oracle_validation("g-zero", tmp_path / "ok.json", temperature=1.0)
    assert report["pass"]
    parsed = json.loads((tmp_path / "ok.json").read_text())
    assert parsed["max_discrepancy"] < 1e-12
    starved = run_oracle_validation("three-mode", tmp_path / "bad.json",
                                    n_max=6, temperature=1.0)
    assert not starved["pass"]
    assert not starved["truncation"]["ok"]
    assert starved["truncation"]["suggested_n_max"] > 6


def test_main_oracle_exit_codes(tmp_path):
    out = str(tmp_path)
    assert main(["oracle-validate", "g-zero", "--temperature", "1.0",
                 "--out", out]) == 0
    assert main(["oracle-validate", "three-mode", "--n-max", "6",
                 "--temperature", "1.0", "--out", out]) == 1


@pytest.mark.parametrize("flags", [("--temperature", "nan"), ("--temperature", "inf"),
                                   ("--temperature", "-1"), ("--n-max", "0")])
def test_oracle_validate_rejects_bad_inputs(tmp_path, capsys, flags):
    assert main(["oracle-validate", "one-mode", *flags, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("section,key,raw", [("spectral", "coupling", "nan"),
                                             ("bath", "temperature", "inf"),
                                             ("sweep", "stop", "-inf"),
                                             ("run", "tolerance", "NaN")])
def test_config_rejects_non_finite_numbers(tmp_path, capsys, section, key, raw):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as err:
        Scenario.from_config_file(config)
    assert f"[{section}] {key}" in str(err.value)
    assert main(["optimize", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


@pytest.mark.parametrize("section,key,raw,command", [
    ("spectral", "coupling", "-1", "optimize"),
    ("spectral", "ohmicity", "500", "factors"),
    ("sweep", "points", "1", "qfi-sweep"),
    ("time", "t-max", "-5", "optimize"),
    ("time", "points", "0", "factors"),
    ("run", "tolerance", "0", "cfi")])
def test_config_out_of_range_values_are_config_errors(tmp_path, capsys, section,
                                                      key, raw, command):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError):
        Scenario.from_config_file(config)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


@pytest.mark.parametrize("flag", [("--t-max", "-5"), ("--tol", "-1")])
def test_out_of_range_overrides_are_config_errors(tmp_path, capsys, flag):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    assert main(["optimize", "--config", str(config), "--out", str(tmp_path), *flag]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


def test_threads_key_and_flag_are_gone(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text() + "threads = 2\n")
    assert "threads" not in QUICK.to_config_text()
    assert main(["qfi-sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "[run] threads" in capsys.readouterr().err
    config.write_text(QUICK.to_config_text())
    with pytest.raises(SystemExit) as err:
        main(["qfi-sweep", "--config", str(config), "--threads", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("flags", [("--temperature", "1e300"), ("--temperature", "1e308"),
                                   ("--n-max", "5000")])
def test_oracle_validate_refuses_infeasible_truncations(tmp_path, capsys, flags):
    # the thermal occupation rule needs n_max ~ 27.6 T levels per mode
    assert main(["oracle-validate", "one-mode", *flags, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "1000" in err and not list(tmp_path.iterdir())


def test_non_finite_factor_exit_code(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("[spectral]\ncoupling = 1e308\n[time]\nt-max = 1e4\npoints = 3\n")
    assert main(["factors", "--config", str(config), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical error:") and "t=3333.3333333333335" in err


@pytest.mark.parametrize("flag", [("--t-max", "5"), ("--grid", "64"), ("--tol", "1e-6")])
def test_figure_rejects_scenario_flags(tmp_path, flag):
    # a preset pins its scenario; a flag it would ignore is an argument error
    with pytest.raises(SystemExit) as err:
        main(["figure", "fig3", "--out", str(tmp_path), *flag])
    assert err.value.code == 2


def test_quadrature_failure_exit_code(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("[spectral]\ncoupling = 1\nohmicity = 0.5\ncutoff = 5\n"
                      "[bath]\ntemperature = 1\n"
                      "[time]\nt-max = 200\npoints = 3\n"
                      "[run]\ntolerance = 1e-16\n")
    assert main(["factors", "--config", str(config), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("quadrature error:") and "achieved error=" in err


def test_main_factors_and_overrides(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    rc = main(["factors", "--config", str(config), "--out", str(tmp_path),
               "--t-max", "3.0"])
    assert rc == 0
    text = (tmp_path / "factors.csv").read_text()
    assert "t-max = 3" in text


def test_main_runs_every_config_command(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    for command, name in (("qfi-sweep", "qfi_sweep.csv"), ("cfi", "cfi.csv"),
                          ("optimize", "optimize.csv")):
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / name).exists()


def test_tolerance_override_is_recorded(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    assert main(["factors", "--config", str(config), "--out", str(tmp_path),
                 "--tol", "1e-6"]) == 0
    assert "tolerance = 1e-06" in (tmp_path / "factors.csv").read_text()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    target = tmp_path / "envout"
    monkeypatch.setenv("BATHPROBE_OUT", str(target))
    assert main(["factors", "--config", str(config)]) == 0
    assert (target / "factors.csv").exists()


def test_figure_presets_pin_caption_parameters():
    assert set(FIGURE_PRESETS) == {f"fig{i}" for i in range(1, 10)}
    p1 = FIGURE_PRESETS["fig1"].scenario
    assert (p1.spectral.coupling, p1.spectral.ohmicity) == (0.01, 0.5)
    assert p1.bath.zero_temperature and p1.probe.omega_0 == 1.0
    assert FIGURE_PRESETS["fig2"].scenario.spectral.coupling == 1.0
    assert FIGURE_PRESETS["fig3"].scenario.spectral.ohmicity == 1.0
    p4 = FIGURE_PRESETS["fig4"].scenario
    assert (p4.spectral.ohmicity, p4.spectral.coupling) == (2.0, 2.0)
    p5 = FIGURE_PRESETS["fig5"].scenario
    assert (p5.spectral.ohmicity, p5.spectral.cutoff) == (0.1, 5.0)
    assert FIGURE_PRESETS["fig6"].scenario.spectral.ohmicity == 1.0
    p7 = FIGURE_PRESETS["fig7"].scenario
    assert (p7.spectral.ohmicity, p7.spectral.cutoff) == (2.0, 5.0)
    p8 = FIGURE_PRESETS["fig8"].scenario
    assert (p8.spectral.cutoff, p8.spectral.coupling) == (5.0, 1.0)
    assert p8.estimand is Estimand.TEMPERATURE
    assert FIG8_OHMICITIES == (2.0, 1.0, 0.5)
    assert set(FIG9_PANELS) == {"main", "temperature", "cutoff"}
    assert FIG9_PANELS["cutoff"]["spectral"].coupling == 0.01
    assert FIG9_PANELS["temperature"]["spectral"].coupling == 1.0


def test_fig1_factors_run_is_deterministic_with_100_rows(tmp_path):
    scenario = FIGURE_PRESETS["fig1"].scenario
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = run_factors(scenario, a)
    run_factors(scenario, b)
    assert len(rows) == 100
    assert a.read_bytes() == b.read_bytes()


def test_fig1_sweep_shows_two_qubit_advantage(tmp_path):
    # the published weak-coupling claim, exercised through the CLI path:
    # three-orders-of-magnitude gain, insensitive to initial correlations
    rows = run_qfi_sweep(FIGURE_PRESETS["fig1"].scenario, tmp_path / "f.csv")
    best = {}
    for (value, scheme, initial, _t, f_star, _b) in rows:
        best[(value, scheme, initial)] = f_star
    values = sorted({v for (v, _, _) in best})
    for v in values:
        assert best[(v, TWO_QUBIT_TRACED, CORRELATED)] >= 100.0 * best[
            (v, SINGLE_QUBIT_PROBE, CORRELATED)]
        two_c = best[(v, TWO_QUBIT_TRACED, CORRELATED)]
        two_u = best[(v, TWO_QUBIT_TRACED, FACTORIZED)]
        assert abs(two_c - two_u) <= 0.01 * two_u


def test_main_figure_runs_quick_panel(tmp_path):
    # fig9's cutoff panel is cheap; patch the preset list down to it
    rc = main(["figure", "fig9", "--out", str(tmp_path)])
    assert rc == 0
    for panel in FIG9_PANELS:
        path = tmp_path / f"fig9_{panel}_cfi.csv"
        assert path.exists()
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 1 + FIGURE_PRESETS["fig9"].scenario.time_points
