"""Config round trips, deterministic output, and end-to-end commands."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bathprobe
from bathprobe import oracle, spectral
from bathprobe.cli import (_CONFIG_KEYS, FIGURE_PRESETS, ConfigError, Scenario,
                           _header_block, main, run_cfi, run_factors, run_optimize,
                           run_oracle_validation, run_qfi_sweep)
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


@pytest.mark.parametrize("scheme", [TWO_QUBIT_TRACED, SINGLE_QUBIT_PROBE])
@pytest.mark.parametrize("estimand,s,temperature,spacing", [
    (estimand, s, temperature, spacing)
    for (s, temperature, spacing) in ((0.3, 0.05, "log"), (1.0, 0.0, "linear"),
                                      (1.7, 3.0, "linear"), (3.4, 0.7, "log"))
    for estimand in Estimand
    if temperature > 0.0 or estimand is not Estimand.TEMPERATURE])
def test_factorized_cfi_angle_is_the_free_precession(tmp_path, scheme, estimand,
                                                     s, temperature, spacing):
    # a factorized probe has chi = 0 and no phase information, so the angle
    # the bundle optimizes is omega_0 t to the last bit
    scenario = replace(QUICK, probe=ProbeConfig(1.3, scheme, FACTORIZED),
                       spectral=SpectralDensity(0.5, s, 2.0),
                       bath=BathState(temperature), estimand=estimand,
                       time_spacing=spacing)
    for (t, angle, *_) in run_cfi(scenario, tmp_path / "cfi.csv"):
        assert angle == 1.3 * t


def test_cfi_run_correlated_gap(tmp_path):
    rows = run_cfi(QUICK, tmp_path / "cfi.csv")
    assert all(gap <= 1e-8 for (*_, gap) in rows)


def test_cfi_zero_coupling_rows(tmp_path):
    scenario = replace(QUICK, spectral=SpectralDensity(0.0, 1.0, 2.0),
                       probe=ProbeConfig(1.0, TWO_QUBIT_TRACED, FACTORIZED))
    rows = run_cfi(scenario, tmp_path / "cfi0.csv")
    for (_t, _angle, cfi_val, qfi_val, _gap) in rows:
        assert cfi_val == 0.0 and qfi_val == 0.0


def test_cfi_header_is_the_scenario_block(tmp_path):
    # a correlated preparation at T > 0 carries no extra header note either
    for scenario in (QUICK, replace(QUICK, bath=BathState(0.7))):
        path = tmp_path / "cfi.csv"
        run_cfi(scenario, path)
        lines = path.read_text().splitlines(keepends=True)
        assert "".join(l for l in lines if l.startswith("#")) == _header_block(scenario)


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


# below oracle.MIN_TEMPERATURE the Boltzmann exponents overflowed into a NaN
# report (1e-308 and colder), or the rounding of log Z ~ beta E failed the
# partition-function check
@pytest.mark.parametrize("flags", [("--temperature", "nan"), ("--temperature", "inf"),
                                   ("--temperature", "-1"), ("--n-max", "0"),
                                   ("--temperature", "1e-308"), ("--temperature", "6e-309"),
                                   ("--temperature", "5e-309"), ("--temperature", "1e-320"),
                                   ("--temperature", "9.9e-07")])
def test_oracle_validate_rejects_bad_inputs(tmp_path, capsys, flags):
    assert main(["oracle-validate", "one-mode", *flags, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert flags[1] in err and not list(tmp_path.iterdir())


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fixture", ["g-zero", "one-mode", "three-mode"])
def test_oracle_validate_passes_from_its_coldest_temperature(tmp_path, fixture):
    for temperature in np.geomspace(oracle.MIN_TEMPERATURE, 0.1, 6):
        assert main(["oracle-validate", fixture, "--temperature",
                     repr(float(temperature)), "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"oracle_{fixture}.json").read_text()
        assert json.loads(text, parse_constant=_no_constant)["pass"]


@pytest.mark.parametrize("section,key,raw", [("spectral", "coupling", "nan"),
                                             ("bath", "temperature", "inf"),
                                             ("sweep", "stop", "-inf")])
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
    ("spectral", "ohmicity", "1e-309", "optimize"),
    ("spectral", "ohmicity", "1e-9", "optimize"),
    ("sweep", "points", "1", "qfi-sweep"),
    ("time", "t-max", "-5", "optimize"),
    ("time", "points", "0", "factors")])
def test_config_out_of_range_values_are_config_errors(tmp_path, capsys, section,
                                                      key, raw, command):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError):
        Scenario.from_config_file(config)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


@pytest.mark.parametrize("flag", [("--t-max", "-5"), ("--t-max", "0")])
def test_out_of_range_overrides_are_config_errors(tmp_path, capsys, flag):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    assert main(["optimize", "--config", str(config), "--out", str(tmp_path), *flag]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


def test_threads_key_and_flag_are_gone(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text() + "[run]\nthreads = 2\n")
    assert "threads" not in QUICK.to_config_text()
    assert main(["qfi-sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "[run] threads" in capsys.readouterr().err
    config.write_text(QUICK.to_config_text())
    with pytest.raises(SystemExit) as err:
        main(["qfi-sweep", "--config", str(config), "--threads", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["factors", "qfi-sweep", "cfi", "optimize"])
def test_tolerance_key_and_flag_are_gone(tmp_path, capsys, command):
    # the thermal series certifies the fixed spectral.GAMMA_TH_RTOL, so a
    # tolerance could only make a run fail; both spellings are refused
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text() + "[run]\ntolerance = 1e-08\n")
    assert "tolerance" not in QUICK.to_config_text()
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: [run] tolerance: unknown key\n"
    assert not list(out.iterdir())
    config.write_text(QUICK.to_config_text())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--out", str(out), "--tol", "1e-6"])
    assert exc.value.code == 2
    # argparse prints its usage, then one error line
    errors = [l for l in capsys.readouterr().err.splitlines() if "error" in l]
    assert errors == ["bathprobe: error: unrecognized arguments: --tol 1e-6"]
    assert not list(out.iterdir())


@pytest.mark.parametrize("line,where", [("[spectral]\ncutof = 3", "[spectral] cutof"),
                                        ("[spectral]\ncoupling = 5%", "[spectral] coupling"),
                                        ("[sweep]\nspacing = %(x)s", "sweep spacing '%(x)s'"),
                                        ("[DEFAULT]\ncoupling = 2", "[DEFAULT] coupling")])
def test_config_keys_and_values_are_taken_literally(tmp_path, capsys, line, where):
    # an unknown key is an error, not ignored; '%' is not interpolated
    config = tmp_path / "scenario.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["factors", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert where in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("text,line", [
    ("coupling = 1\n", 1),                                   # no section header
    ("[spectral\ncoupling = 1\n", 1),                        # unclosed header
    ("[spectral]\ncoupling = 1\nstray\n", 3),                # no '='
    ("[spectral]\ncoupling = 1\ncoupling = 2\n", 3),         # duplicate option
    ("[spectral]\ncoupling = 1\n\n[spectral]\ncutoff = 2\n", 4)])  # duplicate section
def test_config_syntax_errors_are_one_line(tmp_path, capsys, text, line):
    config = tmp_path / "scenario.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["factors", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert re.search(rf"\bline\s+{line}\b", err), err
    assert not list(out.iterdir())


def test_readme_config_block_is_the_default_scenario():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert Scenario.from_config_text(block) == Scenario()
    keys = {(section, key) for section, key, _, _ in _CONFIG_KEYS}
    section, written = None, set()
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and not line.startswith(";"):
            written.add((section, line.split("=")[0].strip()))
    assert written == keys


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


@pytest.mark.parametrize("command", ["qfi-sweep", "optimize", "cfi"])
@pytest.mark.parametrize("estimand,zero,keys", [
    ("temperature", "[bath]\ntemperature = 0\n", "[bath] temperature"),
    ("coupling_strength", "[spectral]\ncoupling = 0\n", "[spectral] coupling")])
def test_estimand_with_a_zero_true_value_is_a_config_error(tmp_path, capsys, command,
                                                           estimand, zero, keys):
    # the temperature and coupling information are not defined at T = 0 and
    # G = 0; the run stops before it computes or writes anything
    config = tmp_path / "scenario.cfg"
    config.write_text(zero + f"[estimand]\nparameter = {estimand}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"[estimand] parameter = {estimand}" in err and f"{keys} > 0" in err
    assert not list(out.iterdir())
    # factors reads no estimand
    assert main(["factors", "--config", str(config), "--out", str(out)]) == 0


@pytest.mark.parametrize("variable,zero,estimand", [
    ("temperature", "[bath]\ntemperature = 0\n", "temperature"),
    ("coupling", "[spectral]\ncoupling = 0\n", "coupling_strength")])
def test_sweep_over_the_estimand_starts_from_a_zero_base(tmp_path, variable, zero,
                                                         estimand):
    # every sweep value is > 0, so the base value is never read
    config = tmp_path / "scenario.cfg"
    config.write_text(zero + f"[estimand]\nparameter = {estimand}\n"
                      f"[sweep]\nvariable = {variable}\nstart = 0.5\nstop = 1.5\n"
                      "points = 2\n[time]\nt-max = 5\ngrid = 64\n")
    assert main(["qfi-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = [l.split(",") for l in (tmp_path / "qfi_sweep.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 8 and {r[0] for r in rows} == {"0.5", "1.5"}
    assert all(float(r[4]) > 0.0 for r in rows)


def test_quadrature_failure_in_the_lockstep_exit_code(tmp_path, capsys, monkeypatch):
    # the four variants of a sweep value are optimized together; a thermal
    # series whose bound exceeds the tolerance still stops the run with exit 3
    monkeypatch.setattr(spectral, "GAMMA_TH_RTOL", 1e-20)
    config = tmp_path / "scenario.cfg"
    config.write_text("[spectral]\ncoupling = 0.5\nohmicity = 0.5\ncutoff = 2\n"
                      "[bath]\ntemperature = 1\n[estimand]\nparameter = temperature\n"
                      "[sweep]\nvariable = temperature\nstart = 0.5\nstop = 1\n"
                      "points = 2\n[time]\nt-max = 5\ngrid = 64\n")
    out = tmp_path / "out"
    assert main(["qfi-sweep", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("quadrature error:") and "achieved error=" in err
    assert not list(out.iterdir())


def test_one_failing_sweep_value_is_named(tmp_path, capsys):
    # the whole sweep runs in one lockstep; only T = 1e300 overflows the
    # thermal series, and the one-line error names that value
    config = tmp_path / "scenario.cfg"
    config.write_text("[spectral]\ncoupling = 0.5\nohmicity = 1\ncutoff = 2\n"
                      "[bath]\ntemperature = 1\n[sweep]\nvariable = temperature\n"
                      "start = 1\nstop = 1e300\npoints = 3\nspacing = log\n"
                      "[time]\nt-max = 5\ngrid = 64\n")
    out = tmp_path / "out"
    assert main(["qfi-sweep", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("quadrature error:")
    assert "s=1.0, w_c=2.0, T=1e+300, t=" in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("flag", [("--t-max", "inf"), ("--t-max", "nan"), ("--t-max", "1e999")])
def test_non_finite_overrides_are_config_errors(tmp_path, capsys, flag):
    # a header such as "t-max = inf" would not read back as a config
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(config), "--out", str(out), *flag]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "must be finite" in err
    assert not list(out.iterdir())
    with pytest.raises(ValueError):
        replace(QUICK, t_max=math.inf)


@pytest.mark.parametrize("flag", [("--t-max", "5"), ("--grid", "64"), ("--config", "x.cfg")])
def test_figure_rejects_scenario_flags(tmp_path, flag):
    # a preset pins its scenario; a flag it would ignore is an argument error
    with pytest.raises(SystemExit) as err:
        main(["figure", "fig3", "--out", str(tmp_path), *flag])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["factors", "cfi"])
def test_grid_is_only_for_the_optimizing_commands(tmp_path, command):
    # factors and cfi never optimize over time, so --grid would be ignored
    # yet recorded in the output header
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(config), "--out", str(tmp_path / "out"), "--grid", "3"])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


def test_quadrature_failure_exit_code(tmp_path, capsys):
    # at T = 1e300 the Bose sums overflow: no certified value, exit 3
    config = tmp_path / "scenario.cfg"
    config.write_text("[spectral]\ncoupling = 1\nohmicity = 0.5\ncutoff = 5\n"
                      "[bath]\ntemperature = 1e300\n"
                      "[time]\nt-max = 200\npoints = 3\n")
    out = tmp_path / "out"
    assert main(["factors", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("quadrature error: thermal series overflows at ")
    assert "s=0.5, w_c=5.0, T=1e+300, t=" in err and "achieved error=inf" in err
    assert not list(out.iterdir())


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


def test_output_dir_from_environment(tmp_path, monkeypatch):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUICK.to_config_text())
    target = tmp_path / "envout"
    monkeypatch.setenv("BATHPROBE_OUT", str(target))
    assert main(["factors", "--config", str(config)]) == 0
    assert (target / "factors.csv").exists()


def preset(figure_id, index=0):
    """Scenario of the ``index``-th file that a figure preset writes."""
    return FIGURE_PRESETS[figure_id][index][2]


def test_figure_presets_pin_caption_parameters():
    assert set(FIGURE_PRESETS) == {f"fig{i}" for i in range(1, 10)}
    for figure_id in (f"fig{i}" for i in range(1, 8)):
        assert [(name, command) for name, command, _ in FIGURE_PRESETS[figure_id]] == [
            (f"{figure_id}_qfi_sweep.csv", "qfi-sweep")]
    p1 = preset("fig1")
    assert (p1.spectral.coupling, p1.spectral.ohmicity) == (0.01, 0.5)
    assert p1.bath.zero_temperature and p1.probe.omega_0 == 1.0
    assert preset("fig2").spectral.coupling == 1.0
    assert preset("fig3").spectral.ohmicity == 1.0
    p4 = preset("fig4")
    assert (p4.spectral.ohmicity, p4.spectral.coupling) == (2.0, 2.0)
    p5 = preset("fig5")
    assert (p5.spectral.ohmicity, p5.spectral.cutoff) == (0.1, 5.0)
    assert preset("fig6").spectral.ohmicity == 1.0
    p7 = preset("fig7")
    assert (p7.spectral.ohmicity, p7.spectral.cutoff) == (2.0, 5.0)
    fig8 = FIGURE_PRESETS["fig8"]
    assert [name for name, _, _ in fig8] == [
        "fig8_s2_qfi_sweep.csv", "fig8_s1_qfi_sweep.csv", "fig8_s0.5_qfi_sweep.csv"]
    assert tuple(p8.spectral.ohmicity for _, _, p8 in fig8) == (2.0, 1.0, 0.5)
    for _, command, p8 in fig8:
        assert command == "qfi-sweep"
        assert (p8.spectral.cutoff, p8.spectral.coupling) == (5.0, 1.0)
        assert p8.estimand is Estimand.TEMPERATURE
    fig9 = FIGURE_PRESETS["fig9"]
    assert [(name, command) for name, command, _ in fig9] == [
        ("fig9_main_cfi.csv", "cfi"), ("fig9_temperature_cfi.csv", "cfi"),
        ("fig9_cutoff_cfi.csv", "cfi")]
    assert [p9.estimand for _, _, p9 in fig9] == [
        Estimand.COUPLING_STRENGTH, Estimand.TEMPERATURE, Estimand.CUTOFF_FREQUENCY]
    assert preset("fig9", 2).spectral.coupling == 0.01
    assert preset("fig9", 1).spectral.coupling == 1.0


def test_fig1_factors_run_is_deterministic_with_100_rows(tmp_path):
    scenario = preset("fig1")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = run_factors(scenario, a)
    run_factors(scenario, b)
    assert len(rows) == 100
    assert a.read_bytes() == b.read_bytes()


def test_fig1_sweep_shows_two_qubit_advantage(tmp_path):
    # the published weak-coupling claim, exercised through the CLI path:
    # three-orders-of-magnitude gain, insensitive to initial correlations
    rows = run_qfi_sweep(preset("fig1"), tmp_path / "f.csv")
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
    rc = main(["figure", "fig9", "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for name, _, _ in FIGURE_PRESETS["fig9"])
    for name, _, scenario in FIGURE_PRESETS["fig9"]:
        path = tmp_path / name
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 1 + scenario.time_points


NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from bathprobe.cli import main
codes = (main(["oracle-validate", "one-mode", "--out", sys.argv[1]]),
         main(["figure", "fig9", "--out", sys.argv[1]]))
try:
    import scipy
except ImportError:
    sys.exit(max(codes))
sys.exit("scipy is importable")
"""


def test_runtime_needs_numpy_only(tmp_path):
    # scipy is a test-only reference; the package must run without it
    src = str(Path(bathprobe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
