#!/usr/bin/env python3
"""bathprobe benchmark: one serial closed-loop client driving the CLI in-process.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-vacuum --seed 1 --seconds 10 --trace 0

The client calls ``bathprobe.cli.main([...])`` for each job of the workload in
turn, waiting for each to finish (one client, closed loop, BLAS pinned to one
thread, ``--threads`` never set).  A pass is one trip through the job list;
passes repeat until about ``--seconds`` of pass time have been spent, and at
least three times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every job
untraced, traced and untraced again, job by job, and reports the per-layer
metrics.  Both first run a traced self-test on small jobs, take
fresh-interpreter set-up samples and time a host-speed probe between passes
(between jobs when traced), check every output after the timed runs, and
write a run record to ``bench/runs/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads and metrics.
"""

import os

# pin BLAS before numpy loads; set-up children inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh-interpreter set-up samples per run, spread over the passes
SETUP_SAMPLES = 15

#: fewest passes per run: the median is then an actual pass, and later
#: passes can be compared byte for byte with the first
MIN_PASSES = 3

#: the workloads, each with the per-layer metrics that must be nonzero and
#: those that must be zero in every traced pass
EXPECT = {
    "sweep-vacuum": (
        ("cli.self_s", "fisher.bundle.calls", "fisher.optimize.calls",
         "spectral.closed.calls", "correlations.calls"),
        ("quadrature.calls", "quadrature.points", "spectral.gamma_th.calls",
         "dynamics.calls", "oracle.calls")),
    "thermal-sweep": (
        ("cli.self_s", "fisher.bundle.calls", "fisher.optimize.calls",
         "spectral.gamma_th.calls", "correlations.calls"),
        ("oracle.calls",)),
    "grid-thermal": (
        ("cli.self_s", "fisher.bundle.calls", "dynamics.calls",
         "spectral.gamma_th.calls"),
        ("oracle.calls", "fisher.optimize.calls")),
    "oracle-validate": (
        ("cli.self_s", "oracle.calls", "correlations.calls"),
        ("quadrature.calls", "spectral.gamma_th.calls", "fisher.bundle.calls",
         "fisher.optimize.calls", "dynamics.calls")),
}

perf = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def host_probe():
    """Fixed pure-Python and numpy work that touches nothing of bathprobe.

    Besides a plain loop and small matrix products it makes many numpy calls
    on short arrays, the per-call pattern of bathprobe's scalar paths, which
    tracks the host's speed on this workload more closely.
    """
    import numpy as np

    start = perf()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    x = np.linspace(0.1, 5.0, 64)
    for i in range(2_000):
        acc += float(np.sum(np.exp(-x * (1.0 + 1e-4 * i)) * np.cos(x)))
    a = np.arange(4096, dtype=float).reshape(64, 64) / 4096.0
    for _ in range(100):
        a = np.tanh(a @ a.T)
    return perf() - start


def percentile_record(values):
    """Median plus the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    rec = {"n": n, "p50": statistics.median(ordered)}
    k = n - 10
    if k >= 1:
        rec["tail_percentile"] = 100.0 * k / n
        rec["tail_value"] = ordered[k - 1]
    return rec


def src_fingerprint():
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data + b"\0")
        if path.suffix == ".py":
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        import numpy as np

        import bathprobe.cli
        import workloads

        self.np = np
        self.cli = bathprobe.cli
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.out = BENCH / "out" / workload
        self.runs = BENCH / "runs"
        shutil.rmtree(self.out, ignore_errors=True)
        self.config_dir = self.out / "configs"
        self.config_dir.mkdir(parents=True)
        self.runs.mkdir(exist_ok=True)
        self.jobs, self.probe_jobs = workloads.build(workload, seed)
        for job in self.jobs + self.probe_jobs:
            if job.config is not None:
                (self.config_dir / f"{job.id}.cfg").write_text(job.config)
        self.setup = []
        self.host = []
        self.failures = []
        self.phases = {}
        self.started = perf()

    # -- one pass ------------------------------------------------------------

    def run_job(self, idx, job, pass_dir, tracer=None):
        """Run one job; returns (seconds, error text or None)."""
        argv = job.argv(self.config_dir, pass_dir / job.id)
        if tracer is not None:
            tracer.job_id = idx
        error = None
        start = perf()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            if code != 0:
                error = f"exit code {code}"
        except (Exception, SystemExit):
            error = traceback.format_exc()
        return perf() - start, error

    def run_pass(self, jobs, pass_dir, tracer=None):
        """Run every job once; returns (pass seconds, {job id: seconds}, errors)."""
        latencies = {}
        errors = {}
        start = perf()
        for idx, job in enumerate(jobs):
            latencies[job.id], error = self.run_job(idx, job, pass_dir, tracer)
            if error is not None:
                errors[job.id] = error
        return perf() - start, latencies, errors

    # -- set-up samples ----------------------------------------------------------

    def setup_sample(self):
        k = len(self.setup)
        job = self.probe_jobs[0]
        base = self.out / "setup" / str(k)
        argvs = [job.argv(self.config_dir, base / "a"),
                 job.argv(self.config_dir, base / "b")]
        t_spawn = perf()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cold_start.py"), str(SRC), json.dumps(argvs)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"set-up sample failed:\n{proc.stderr}")
        r = json.loads(proc.stdout.splitlines()[-1])
        python_s = r["start"] - t_spawn
        import_s = r["import"] - r["start"]
        first_run, second_run = r["runs"][0] - r["import"], r["runs"][1] - r["runs"][0]
        self.setup.append({"python_s": python_s, "import_s": import_s,
                           "first_job_s": first_run - second_run,
                           "setup_s": python_s + import_s + first_run - second_run})
        shutil.rmtree(base, ignore_errors=True)

    def between_passes(self, done, expected):
        """Host probe, then set-up samples up to the share of passes done."""
        self.host.append(host_probe())
        target = 1 + round((SETUP_SAMPLES - 1) * min(done, expected) / expected)
        if done >= expected:
            target = SETUP_SAMPLES
        while len(self.setup) < target:
            self.setup_sample()

    # -- traced self-test --------------------------------------------------------

    def expect_layers(self, summary, what):
        nonzero, zero = EXPECT[self.workload]
        bad = [f"{k} = 0 (expected calls)" for k in nonzero if not summary[k]]
        bad += [f"{k} = {summary[k]} (layer should be bypassed)" for k in zero if summary[k]]
        if bad:
            raise BenchError(f"{what}: " + "; ".join(bad))

    def self_test(self):
        from spans import Tracer

        started = perf()
        tracer = Tracer()
        tracer.install()
        try:
            _, _, errors = self.run_pass(self.probe_jobs, self.out / "selftest", tracer)
        finally:
            tracer.uninstall()
        if errors:
            raise BenchError(f"self-test job failed: {errors}")
        self.expect_layers(tracer.summary(), "traced self-test")
        self.check_pass(self.probe_jobs, self.out / "selftest", errors)
        if errors:
            raise BenchError(f"self-test output failed its checks: {errors}")
        self.phases["self_test_s"] = perf() - started

    # -- checks --------------------------------------------------------------

    def check_pass(self, jobs, pass_dir, failed):
        """Check each job's outputs; tracebacks of failures go to ``failed``."""
        import checks

        rng = self.np.random.default_rng([self.seed, 99])
        for job in jobs:
            try:
                checks.check_outputs(pass_dir / job.id, rng)
            except Exception:
                failed.setdefault(job.id, traceback.format_exc())

    def compare_pass(self, jobs, ref_dir, pass_dir):
        """Job ids whose scientific outputs differ from the reference pass."""
        import checks

        differ = {}
        for job in jobs:
            a, b = ref_dir / job.id, pass_dir / job.id
            names = checks.scientific_files(a) if a.is_dir() else []
            if not b.is_dir() or checks.scientific_files(b) != names:
                differ[job.id] = "different set of output files"
                continue
            for name in names:
                if (a / name).read_bytes() != (b / name).read_bytes():
                    differ[job.id] = f"{name} differs from the first pass"
                    break
        return differ

    # -- runs ------------------------------------------------------------------

    def measure(self):
        """Untraced passes; returns the end-to-end metrics and run facts."""
        passes, latencies = [], []
        failed_runs = 0
        self.setup_sample()
        ref = self.out / "pass0"
        bad_output = {}
        # stop once another pass would end more than half a pass past --seconds
        while len(passes) < MIN_PASSES or sum(passes) + 0.5 * passes[-1] < self.seconds:
            k = len(passes)
            pass_dir = self.out / f"pass{k}"
            t, lat, errors = self.run_pass(self.jobs, pass_dir)
            passes.append(t)
            latencies.append(lat)
            for job_id, err in errors.items():
                self.failures.append({"pass": k, "job": job_id, "error": err})
            failed_runs += len(errors)
            if k > 0:
                for job_id, why in self.compare_pass(self.jobs, ref, pass_dir).items():
                    if job_id not in errors:
                        self.failures.append({"pass": k, "job": job_id, "error": why})
                        failed_runs += 1
                shutil.rmtree(pass_dir)
            mean = sum(passes) / len(passes)
            expected = max(MIN_PASSES, math.ceil(self.seconds / mean - 0.5))
            self.between_passes(len(passes), expected)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(self.setup) < SETUP_SAMPLES:
            self.setup_sample()
        first_errors = {f["job"] for f in self.failures if f["pass"] == 0}
        started = perf()
        self.check_pass([j for j in self.jobs if j.id not in first_errors], ref, bad_output)
        self.phases["check_s"] = perf() - started
        for job_id, err in bad_output.items():
            # every pass reproduced these bytes, so every run of the job is wrong
            runs = sum(1 for lat in latencies if job_id in lat)
            self.failures.append({"pass": "all", "job": job_id, "error": err})
            failed_runs += runs
        job_times = [v for lat in latencies for v in lat.values()]
        metrics = {
            "pass_s": statistics.median(passes),
            "job_s_p50": statistics.median(job_times),
            "setup_s": statistics.median(s["setup_s"] for s in self.setup),
            "peak_rss_mb": peak_rss_mb,
        }
        facts = {"passes": passes, "job_latency": percentile_record(job_times),
                 "job_latencies": latencies}
        attempted = len(job_times)
        return metrics, facts, attempted, failed_runs

    def measure_traced(self):
        """Each job untraced, traced and untraced again; returns the per-layer
        metrics."""
        from spans import Tracer

        self.setup_sample()
        ref = self.out / "pass0"
        tracer = Tracer()
        runs = (("untraced", ref, None), ("traced", self.out / "traced", tracer),
                ("untraced again", self.out / "pass1", None))
        lat = {label: {} for label, _, _ in runs}
        failures = {}                   # (run label, job id) -> error text
        for idx, job in enumerate(self.jobs):
            # the three runs of a job follow each other, so the mean of the
            # two untraced runs cancels the host's drift out of the overhead
            for label, out_dir, tr in runs:
                if tr is not None:
                    tr.install()
                try:
                    lat[label][job.id], error = self.run_job(idx, job, out_dir, tr)
                finally:
                    if tr is not None:
                        tr.uninstall()
                if error is not None:
                    failures[(label, job.id)] = error
            self.between_passes(idx + 1, len(self.jobs))
        t_plain = 0.5 * (sum(lat["untraced"].values())
                         + sum(lat["untraced again"].values()))
        t_traced = sum(lat["traced"].values())
        summary = tracer.summary()
        self.expect_layers(summary, "traced pass")
        bad_output = {}
        started = perf()
        self.check_pass([j for j in self.jobs if ("untraced", j.id) not in failures],
                        ref, bad_output)
        self.phases["check_s"] = perf() - started
        for job_id, err in bad_output.items():
            # the other runs are compared byte for byte below, so an output
            # that fails its checks is wrong in every run
            for label, _, _ in runs:
                failures.setdefault((label, job_id), err)
        for label, out_dir, _ in runs[1:]:
            for job_id, why in self.compare_pass(self.jobs, ref, out_dir).items():
                failures.setdefault((label, job_id), why)
        for (label, job_id), err in failures.items():
            self.failures.append({"pass": label, "job": job_id, "error": err})
        rows = written = 0
        import checks

        for job in self.jobs:
            d = self.out / "traced" / job.id
            for name in (checks.scientific_files(d) if d.is_dir() else []):
                path = d / name
                written += path.stat().st_size
                if path.suffix == ".csv":
                    rows += len(checks.read_csv(path)[2])
                else:
                    rows += len(json.loads(path.read_text())["records"])
        per_layer = dict(summary)
        per_layer["cli.rows"] = rows
        per_layer["cli.bytes_written"] = written
        for key in ("python_s", "import_s", "first_job_s"):
            per_layer[f"setup.{key}"] = statistics.median(s[key] for s in self.setup)
        per_layer["trace.overhead_s"] = t_traced - t_plain
        per_job = {job.id: tracer.summary(job_ids={i})
                   for i, job in enumerate(self.jobs)}
        tracer.save(self.runs / f"{self.workload}-seed{self.seed}-spans.npz")
        facts = {"passes": [sum(lat["untraced"].values()),
                            sum(lat["untraced again"].values())],
                 "traced_pass": t_traced,
                 "job_latencies": [lat[label] for label, _, _ in runs],
                 "per_job": per_job}
        return per_layer, facts, len(runs) * len(self.jobs), len(failures)

    def record(self, metrics, facts, attempted, failed):
        import numpy as np
        import scipy

        digest, lines = src_fingerprint()
        rec = {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "blas_threads": {v: os.environ[v] for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")},
                "machine": platform.machine(),
                "git_commit": git_commit(),
                "src_sha256": digest, "src_lines": lines,
            },
            "jobs": [{"id": j.id, "argv": j.argv(self.config_dir, Path("<out>")),
                      "config": j.config} for j in self.jobs],
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": self.failures,
            "phases_s": dict(self.phases, wall=perf() - self.started),
            "setup_samples": self.setup,
            "host_probe_s": {"values": self.host,
                             "median": statistics.median(self.host)},
            **facts,
        }
        path = self.runs / f"{self.workload}-seed{self.seed}-trace{self.trace}.json"
        path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
        return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(EXPECT))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_units(trace):
    """{metric name: unit} that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bathprobe" / "cli.py").is_file():
        print(f"bench: no bathprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bathprobe

    if Path(bathprobe.__file__).resolve().parent != SRC / "bathprobe":
        print(f"bench: imported bathprobe from {bathprobe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        bench = Bench(args.workload, args.seed, args.seconds, args.trace)
        bench.self_test()
        if args.trace:
            metrics, facts, attempted, failed = bench.measure_traced()
        else:
            metrics, facts, attempted, failed = bench.measure()
        units = declared_units(args.trace)
        if set(units) != set(metrics):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(units) ^ set(metrics))}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    path = bench.record(metrics, facts, attempted, failed)
    for f in bench.failures:
        print(f"FAILED pass {f['pass']} job {f['job']}: {f['error'].strip().splitlines()[-1]}")
    print(f"host probe median {statistics.median(bench.host):.4f} s; record {path.relative_to(ROOT)}")
    if args.trace:
        for job_id, s in facts["per_job"].items():
            print(f"{job_id}: {s['fisher.bundle.calls']} bundles, "
                  f"{s['spectral.gamma_th.calls']} gamma_th calls, "
                  f"{s['quadrature.calls']} quadrature calls, "
                  f"{s['quadrature.points']} points")
    out = {}
    for name, value in metrics.items():
        out[name] = {"value": value, "unit": units[name]}
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
