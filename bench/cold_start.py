"""One fresh-interpreter set-up sample.

Usage: python3 cold_start.py <src dir> '<JSON list of two CLI argv lists>'

Imports bathprobe.cli and runs the same job twice, then prints one JSON line
of time.perf_counter() readings: at interpreter start, after the import, and
after each run.  On Linux perf_counter reads CLOCK_MONOTONIC, which the parent
shares, so the parent can subtract its own reading taken just before spawning.
The second run of the job is warm, so the difference between the two runs is
the first job's one-time cost.
"""

import time

t_start = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import bathprobe.cli  # noqa: E402

t_import = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

runs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = bathprobe.cli.main(argv)
    if code != 0:
        sys.exit(f"cold-start job {argv} exited with {code}")
    runs.append(time.perf_counter())
print(json.dumps({"start": t_start, "import": t_import, "runs": runs}))
