"""One measured call of a workload, in a fresh single-threaded process.

Usage: worker.py JOB_JSON, where the job names the workload, its input
files, the output directory, the parent's CLOCK_MONOTONIC reading taken
just before this process was started, and whether to trace.  Prints one
JSON line: set-up seconds, wall seconds of the cli call, its exit code
and the process's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    from attachsim import cli, fleet

    if job["workload"] == "detect-mixed":
        argv = ["detect", "--logs", job["test"], "--baseline", job["baseline"],
                "--report", f"{job['out']}/report.csv"]
    else:
        with open(job["config"]) as f:
            config = json.load(f)
        catalog = fleet.builtin_profiles()
        for name in dict.fromkeys(e["profile"] for e in config["fleet"]):
            profile = catalog[name]
            fleet.channel_for(profile,
                              config["channels"].get(profile.channel_kind))
        argv = ["simulate", "--config", job["config"], "--out", job["out"]]
    setup_s = time.monotonic() - job["t0"]

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(job["spans"])
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "rc": rc,
                      "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
