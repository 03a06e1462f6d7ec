"""Seeded job lists for the benchmark's four workloads.

A workload is a fixed part (figure presets or oracle fixtures, the same on
every seed) plus CLI configs drawn from the seed.  The program only ever sees
the config files written here and the CLI arguments.

Seeded jobs are laid out in slots.  A slot fixes what sets the amount of
work -- the command, the estimand, the grid sizes, the probe scheme and
preparation of factors/cfi jobs and, for the thermal quadrature, the
Ohmicity class -- and places its cost-bearing values (s, T, w_c, t-max,
n_max) in its own narrow stratum of the allowed range, with a seeded offset
inside it.  Values that do not change the work (G, sweep ranges, the
optimizer's t-max -- except on thermal-sweep, where both set the work --
the scheme and preparation named in sweep-vacuum's configs, whose
qfi-sweep and optimize run all four variants anyway, and at T = 0 also s
and w_c) are drawn over their whole range.
Seeds therefore change every number the program sees while the pass time and
the median job latency stay comparable between seeds: the thermal quadrature
costs several times more at non-integer s than at integer s and grows with
w_c / T, and the oracle's cost grows like n_max**3, so free draws would let
one unlucky job dominate a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from bathprobe.oracle import FIXTURES, required_n_max
from bathprobe.spectral import BathState

VARIANTS = tuple((scheme, prep) for scheme in ("two-qubit-traced", "single-qubit")
                 for prep in ("factorized", "correlated"))

ORACLE_FIXTURES = ("one-mode", "three-mode", "g-zero")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``command`` plus ``args``; ``config`` is written
    to ``<job id>.cfg`` and passed as ``--config`` when present."""

    id: str
    command: str
    args: tuple = ()
    config: str | None = None

    def argv(self, config_dir, out_dir):
        argv = [self.command, *self.args]
        if self.config is not None:
            argv += ["--config", str(config_dir / f"{self.id}.cfg")]
        return argv + ["--out", str(out_dir)]


def _r6(x):
    return float(f"{x:.6g}")


class _Draws:
    def __init__(self, seed, stream):
        self.rng = np.random.default_rng([seed, stream])

    def spread(self, n, lo, hi, log=False):
        """Latin-hypercube sample of n values over all of [lo, hi]."""
        return self._place((self.rng.permutation(n) + self.rng.random(n)) / n,
                           lo, hi, log)

    def ladder(self, n, lo, hi, log=False):
        """Slot j gets stratum j of n equal strata of [lo, hi]: its centre
        moved by a seeded offset of at most a sixteenth of a stratum."""
        return self._place((np.arange(n) + 0.5 + 0.125 * (self.rng.random(n) - 0.5)) / n,
                           lo, hi, log)

    def near(self, centre, half_width):
        return _r6(centre + half_width * (2.0 * self.rng.random() - 1.0))

    def cycle(self, n, choices):
        """n items cycling through ``choices``, in shuffled order."""
        items = [choices[i % len(choices)] for i in range(n)]
        return [items[i] for i in self.rng.permutation(n)]

    @staticmethod
    def _place(u, lo, hi, log):
        if log:
            vals = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        else:
            vals = lo + u * (hi - lo)
        return [_r6(v) for v in vals]


def config_text(*, scheme, initial, coupling, ohmicity, cutoff, temperature,
                estimand, t_max, grid=None, points=None, spacing=None,
                sweep=None):
    """Scenario config in the CLI's INI grammar; sets no [run] keys."""
    lines = ["[probe]", "omega0 = 1.0", f"scheme = {scheme}",
             f"initial-state = {initial}", "",
             "[spectral]", f"coupling = {coupling!r}", f"ohmicity = {ohmicity!r}",
             f"cutoff = {cutoff!r}", "",
             "[bath]", f"temperature = {temperature!r}", "",
             "[estimand]", f"parameter = {estimand}", ""]
    if sweep is not None:
        variable, start, stop, n, sweep_spacing = sweep
        lines += ["[sweep]", f"variable = {variable}", f"start = {start!r}",
                  f"stop = {stop!r}", f"points = {n}",
                  f"spacing = {sweep_spacing}", ""]
    lines += ["[time]", f"t-max = {t_max!r}"]
    if grid is not None:
        lines.append(f"grid = {grid}")
    if points is not None:
        lines.append(f"points = {points}")
    if spacing is not None:
        lines.append(f"spacing = {spacing}")
    return "\n".join(lines) + "\n"


def _jobs(prefix, plans):
    return [Job(f"{prefix}{i}-{cmd}", cmd, (), text)
            for i, (cmd, text) in enumerate(plans)]


# ---------------------------------------------------------------------------
# sweep-vacuum: closed forms only, T = 0
# ---------------------------------------------------------------------------

# (command, sweep points, optimizer grid).  Six seeded jobs, each well under
# half the cost of fig3, the cheapest figure: of the 13 jobs, the median job
# is then always fig3, so the seed moves job_s_p50 only through the host.
VACUUM_SLOTS = (("qfi-sweep", 2, 64), ("optimize", None, 96),
                ("qfi-sweep", 2, 80), ("optimize", None, 128),
                ("qfi-sweep", 2, 96), ("optimize", None, 192))
VACUUM_PROBE = (("optimize", None, 64), ("qfi-sweep", 2, 64))


def _vacuum_configs(d, slots, t_max_range):
    n = len(slots)
    s = d.spread(n, 0.1, 4.0)
    g = d.spread(n, 0.01, 2.0, log=True)
    wc = d.spread(n, 0.5, 5.0)
    t_max = d.spread(n, *t_max_range, log=True)
    estimand = d.cycle(n, ("cutoff_frequency", "coupling_strength"))
    variant = d.cycle(n, VARIANTS)
    variable = d.cycle(n, ("cutoff", "coupling"))
    spacing = d.cycle(n, ("linear", "log"))
    start_c = d.spread(n, 0.5, 2.5)
    width_c = d.spread(n, 1.0, 2.5)
    start_g = d.spread(n, 0.01, 0.5, log=True)
    ratio_g = d.spread(n, 2.0, 4.0)
    plans = []
    for i, (cmd, points, grid) in enumerate(slots):
        sweep = None
        if cmd == "qfi-sweep" and variable[i] == "cutoff":
            sweep = ("cutoff", start_c[i], _r6(start_c[i] + width_c[i]), points,
                     spacing[i])
        elif cmd == "qfi-sweep":
            sweep = ("coupling", start_g[i], _r6(min(2.0, start_g[i] * ratio_g[i])),
                     points, spacing[i])
        plans.append((cmd, config_text(
            scheme=variant[i][0], initial=variant[i][1], coupling=g[i],
            ohmicity=s[i], cutoff=wc[i], temperature=0.0, estimand=estimand[i],
            t_max=t_max[i], grid=grid, sweep=sweep)))
    return plans


def _sweep_vacuum(seed):
    fixed = [Job(f"fig{k}", "figure", (f"fig{k}",)) for k in range(1, 8)]
    seeded = _jobs("vac", _vacuum_configs(_Draws(seed, 1), VACUUM_SLOTS,
                                          (5.0, 1000.0)))
    probe = _jobs("probe", _vacuum_configs(_Draws(seed, 2), VACUUM_PROBE,
                                           (5.0, 20.0)))
    return fixed + seeded, probe


# ---------------------------------------------------------------------------
# thermal-sweep: fig8 plus thermal optimizations, point by point
# ---------------------------------------------------------------------------

# (command, estimand, ohmicity, optimizer grid); integer s keeps each
# quadrature's cost steady, and fig8 already covers a non-integer
# (sub-Ohmic) bath.  The grids even out the slots' costs: a temperature
# estimand makes five gamma_th calls per bundle, the cutoff estimand one.
THERMAL_SLOTS = (("qfi-sweep", "cutoff_frequency", 1.0, 32),
                 ("optimize", "temperature", 2.0, 32),
                 ("optimize", "cutoff_frequency", 3.0, 96),
                 ("qfi-sweep", "cutoff_frequency", 2.0, 32),
                 ("optimize", "temperature", 1.0, 32),
                 ("optimize", "cutoff_frequency", 1.0, 96))


def _thermal_configs(d, slots, t_max_range, time_points=None):
    # G and t-max set how many bundles the optimizer evaluates and how many
    # points each quadrature takes, so they are laddered like T and w_c
    n = len(slots)
    temp = d.ladder(n, 0.2, 3.0)
    wc = d.ladder(n, 0.5, 5.0)[::-1]
    g = d.ladder(n, 0.05, 1.0, log=True)
    t_max = d.ladder(n, *t_max_range)[::-1]
    plans = []
    for i, (cmd, estimand, ohmicity, grid) in enumerate(slots):
        sweep = None
        if cmd == "qfi-sweep":
            sweep = ("temperature", temp[i], _r6(min(3.0, temp[i] + 1.0)), 2,
                     "linear")
        scheme, initial = VARIANTS[i % len(VARIANTS)]
        plans.append((cmd, config_text(
            scheme=scheme, initial=initial, coupling=g[i],
            ohmicity=ohmicity, cutoff=wc[i], temperature=temp[i],
            estimand=estimand, t_max=t_max[i],
            grid=grid, points=time_points, sweep=sweep)))
    return plans


def _thermal_sweep(seed):
    seeded = _jobs("th", _thermal_configs(_Draws(seed, 1), THERMAL_SLOTS,
                                          (1.0, 5.0)))
    probe = _jobs("probe", _thermal_configs(
        _Draws(seed, 2), (("factors", "temperature", 2.0, None),
                          ("optimize", "cutoff_frequency", 1.0, 64)),
        (0.5, 1.0), time_points=10))
    return [Job("fig8", "figure", ("fig8",))] + seeded, probe


# ---------------------------------------------------------------------------
# grid-thermal: fig9 plus thermal factors and CFI over fixed time grids
# ---------------------------------------------------------------------------

# (command, estimand, spacing, time points, t-max, s centre); the s centres
# stay 0.15 or more away from integers, where the quadrature's cost jumps
GRID_SLOTS = (
    ("factors", "cutoff_frequency", "linear", 400, 40.0, 0.45),
    ("factors", "cutoff_frequency", "log", 50, 500.0, 1.35),
    ("factors", "cutoff_frequency", "linear", 150, 40.0, 2.25),
    ("factors", "cutoff_frequency", "log", 100, 300.0, 2.75),
    ("cfi", "temperature", "log", 50, 60.0, 0.65),
    ("cfi", "temperature", "linear", 50, 5.0, 1.65),
    ("cfi", "cutoff_frequency", "log", 200, 20.0, 2.4),
    ("cfi", "cutoff_frequency", "linear", 80, 20.0, 2.6),
    ("cfi", "coupling_strength", "log", 120, 100.0, 0.3),
    ("cfi", "coupling_strength", "linear", 50, 15.0, 1.8),
)
GRID_PROBE = (("factors", "cutoff_frequency", "linear", 12, 5.0, 0.45),
              ("cfi", "temperature", "log", 12, 5.0, 1.65))


def _grid_configs(d, slots):
    n = len(slots)
    temp = d.ladder(n, 0.2, 3.0)[::-1]
    wc = d.ladder(n, 0.5, 5.0)
    g = d.spread(n, 0.05, 1.0, log=True)
    plans = []
    for i, (cmd, estimand, spacing, points, t_max, s) in enumerate(slots):
        scheme, initial = VARIANTS[i % len(VARIANTS)]
        plans.append((cmd, config_text(
            scheme=scheme, initial=initial, coupling=g[i],
            ohmicity=d.near(s, 0.05), cutoff=wc[i], temperature=temp[i],
            estimand=estimand, t_max=d.near(t_max, 0.05 * t_max),
            points=int(round(d.near(points, 0.05 * points))), spacing=spacing)))
    return plans


def _grid_thermal(seed):
    seeded = _jobs("grid", _grid_configs(_Draws(seed, 1), GRID_SLOTS))
    probe = _jobs("probe", _grid_configs(_Draws(seed, 2), GRID_PROBE))
    return [Job("fig9", "figure", ("fig9",))] + seeded, probe


# ---------------------------------------------------------------------------
# oracle-validate: the Fock-space oracle on the three fixtures
# ---------------------------------------------------------------------------

def _oracle_jobs(d, n_temps, max_extra, prefix):
    """Each fixture at T = 0 and at n_temps seeded temperatures in [0.3, 2].

    n_max is the oracle's certified requirement plus up to ``max_extra``;
    the hottest (largest) truncations get the smallest extras.
    """
    jobs = []
    for fixture in ORACLE_FIXTURES:
        temps = [0.0] + (d.ladder(n_temps, 0.3, 2.0) if n_temps else [])
        extra = d.ladder(len(temps), 0.0, max_extra)[::-1]
        for i, temp in enumerate(temps):
            n_max = required_n_max(FIXTURES[fixture], BathState(temp)) + round(extra[i])
            jobs.append(Job(f"{prefix}{fixture}-{i}", "oracle-validate",
                            (fixture, "--temperature", repr(temp),
                             "--n-max", str(n_max))))
    return jobs


def _oracle_validate(seed):
    return (_oracle_jobs(_Draws(seed, 1), 3, 40.0, "orc-"),
            _oracle_jobs(_Draws(seed, 2), 0, 4.0, "probe-"))


def build(workload, seed):
    """(measured jobs, self-test jobs) for ``workload`` at ``seed``."""
    return {"sweep-vacuum": _sweep_vacuum,
            "thermal-sweep": _thermal_sweep,
            "grid-thermal": _grid_thermal,
            "oracle-validate": _oracle_validate}[workload](seed)
