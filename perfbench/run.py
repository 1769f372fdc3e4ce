"""attachsim benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each repetition runs one closed-loop batch job in a fresh single-threaded
worker process, which drives attachsim through `attachsim.cli.main`.
Repetitions continue until --seconds is spent (at least three untraced,
or one untraced/traced pair with --trace 1), with a reference loop timed
between them to scale out host speed drift.  The outputs are then
checked.  The last line of stdout is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 60
# Seconds the reference loop takes on an unloaded host of the kind this
# benchmark was written on; time metrics are scaled to that speed.
REFERENCE_S = 0.3

SIM_OUTPUTS = ("logs.jsonl", "records.jsonl", "summary.csv")
DETECT_OUTPUTS = ("report.csv", "report.json")

END_TO_END = (("attaches_per_s", "attaches/s"), ("lines_per_s", "lines/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

SIM = "phone-fleet, simbox-fleet"
PHONE, SIMBOX, DETECT = "phone-fleet", "simbox-fleet", "detect-mixed"
ALL = "all"
# name, unit, better, end-to-end metric it should move, workloads with work
LAYER_METRICS = (
    ("core.rng_scalar_calls", "count", "lower", "attaches_per_s", SIM),
    ("core.rng_calls_per_attach", "calls/attach", "lower", "attaches_per_s", SIM),
    ("channel.calibrate_processing.busy_s", "s", "lower",
     "setup_s, attaches_per_s", SIMBOX),
    ("channel.auth_channel_elapsed.calls", "count", "lower", "attaches_per_s",
     SIMBOX),
    ("channel.auth_channel_elapsed.self_s", "s", "lower", "attaches_per_s",
     SIMBOX),
    ("channel.auth_channel_elapsed.mean_us", "us", "lower", "attaches_per_s",
     SIMBOX),
    ("fleet.channel_for.calls", "count", "lower", "setup_s", SIMBOX),
    ("fleet.channel_for.busy_s", "s", "lower", "setup_s", SIMBOX),
    ("aka.generate_challenge.busy_s", "s", "lower", "attaches_per_s", PHONE),
    ("aka.compute_response.busy_s", "s", "lower", "attaches_per_s", PHONE),
    ("protocol.run_attach.calls", "count", "lower", "attaches_per_s", SIM),
    ("protocol.run_attach.self_s", "s", "lower", "attaches_per_s", SIM),
    ("protocol.run_attach.p50_us", "us", "lower", "attaches_per_s", SIM),
    ("protocol.run_attach.p99_us", "us", "lower", "attaches_per_s", SIM),
    ("protocol.outcome.Completed", "count", "higher", "attaches_per_s", SIM),
    ("protocol.outcome.AuthTimeout", "count", "lower", "attaches_per_s", SIM),
    ("protocol.outcome.AuthReject", "count", "lower", "attaches_per_s", SIM),
    ("protocol.outcome.CampRefused", "count", "lower", "attaches_per_s", SIM),
    ("monitor.schedule_reauth.busy_s", "s", "lower", "attaches_per_s", SIM),
    ("monitor.aggregate_auth_latency.busy_s", "s", "lower", "lines_per_s",
     DETECT),
    ("monitor.classify.calls", "count", "lower", "lines_per_s", DETECT),
    ("monitor.classify.busy_s", "s", "lower", "lines_per_s", DETECT),
    ("monitor.hit_rate", "ratio", "higher", "lines_per_s", DETECT),
    ("monitor.false_flag_rate", "ratio", "lower", "lines_per_s", DETECT),
    ("scenario.write_logs.busy_s", "s", "lower",
     "attaches_per_s, peak_rss_mb", PHONE),
    ("scenario.write_logs.bytes", "bytes", "lower",
     "attaches_per_s, peak_rss_mb", PHONE),
    ("scenario.write_records.busy_s", "s", "lower",
     "attaches_per_s, peak_rss_mb", PHONE),
    ("scenario.write_records.bytes", "bytes", "lower",
     "attaches_per_s, peak_rss_mb", PHONE),
    ("scenario.write_summary.busy_s", "s", "lower",
     "attaches_per_s, peak_rss_mb", PHONE),
    ("scenario.parse_logs.busy_s", "s", "lower", "lines_per_s, peak_rss_mb",
     DETECT),
    ("scenario.parse_logs.lines", "count", "higher", "lines_per_s", DETECT),
    ("scenario.device_samples.busy_s", "s", "lower", "lines_per_s, peak_rss_mb",
     DETECT),
    ("scenario.device_samples.useful_ratio", "ratio", "higher",
     "lines_per_s, peak_rss_mb", DETECT),
    ("scenario.write_detection_reports.busy_s", "s", "lower", "lines_per_s",
     DETECT),
    ("cli.self_s", "s", "lower", "attaches_per_s, lines_per_s", ALL),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced wall)", ALL),
)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_loop() -> float:
    """Seconds for a fixed mix of the interpreter work attachsim does:
    scalar numpy draws, lattice rounding and JSON log-line formatting as
    in simulate, then a sort, json.loads and per-device grouping as in
    detect.  It runs in this process, between repetitions, so nothing
    the program under test does can change it."""
    started = time.perf_counter()
    gen = np.random.default_rng(12345)
    lines = []
    for i in range(80_000):
        x = float(gen.normal(0.0, 1.0))
        lines.append(f'{{"time": {round(x * 1024.0) / 1024.0:.10f}, '
                     f'"device_id": "dev-{i % 97:03d}", "step": {i % 11}}}')
    lines.sort()
    devices: dict[str, list] = {}
    for line in lines:
        row = json.loads(line)
        devices.setdefault(row["device_id"], []).append((row["time"], row["step"]))
    return time.perf_counter() - started


class Run:
    """Repetitions of one workload at one seed, then the checks."""

    def __init__(self, workload: str, seed: int, size: str, trace: bool):
        self.workload, self.size, self.trace = workload, size, trace
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.dir = WORK / (tag if size == "full" else f"{tag}-{size}")
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        if workload == DETECT:
            self.inputs = workloads.write_detect_inputs(
                self.dir / "inputs", seed, size)
            self.attaches = sum(v["attaches"] for v in self.inputs.values())
            self.lines = sum(v["lines"] for v in self.inputs.values())
            self.outputs = DETECT_OUTPUTS
        else:
            self.inputs = workloads.write_sim_inputs(
                self.dir / "inputs", workload, seed, size)
            self.attaches = self.inputs["config"]["attaches"]
            self.lines = None  # counted from the first logs.jsonl written
            self.outputs = SIM_OUTPUTS
        self.reps: list[dict] = []
        self.reference_s: list[float] = []
        self.env = _worker_env()
        self.last_out: Path | None = None

    def rep(self, traced: bool) -> None:
        index = len(self.reps)
        out = self.dir / f"rep{index}"
        out.mkdir()
        job = {"workload": self.workload, "out": str(out), "trace": traced,
               "spans": str(self.dir / "spans.json")}
        job.update({k: v["path"] for k, v in self.inputs.items()})
        job["t0"] = time.monotonic()
        rep = {"traced": traced, "ok": False}
        expected_rc = (0, 2) if self.workload == DETECT else (0,)
        error = ""
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
                env=self.env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S)
            error = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
            rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
            rep["digests"] = {n: _digest(out / n) for n in self.outputs}
            rep["ok"] = proc.returncode == 0 and rep["rc"] in expected_rc
        except subprocess.TimeoutExpired:
            error = f"no result within {WORKER_TIMEOUT_S} s"
        except (IndexError, ValueError, OSError) as exc:
            error += f" ({exc!r})"
        if not rep["ok"]:
            sys.stderr.write(f"rep {index} failed, {error}\n")
        elif traced:
            rep["layers"] = tracing.summarize(job["spans"])
        if self.lines is None and rep["ok"]:
            with (out / "logs.jsonl").open("rb") as f:
                self.lines = sum(1 for _ in f)
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out
        self.reps.append(rep)

    def measure(self, seconds: float, min_rounds: int) -> None:
        """Rounds of one rep (untraced) or an untraced/traced pair, while
        the next round is expected to end within the time budget."""
        deadline = time.monotonic() + seconds
        rounds = 0
        while True:
            started = time.monotonic()
            self.reference_s.append(reference_loop())
            self.rep(traced=False)
            if self.trace:
                self.rep(traced=True)
            rounds += 1
            took = time.monotonic() - started
            if rounds >= min_rounds and time.monotonic() + took > deadline:
                self.reference_s.append(reference_loop())
                return

    def check(self) -> list[tuple[str, bool, str]]:
        good = [r for r in self.reps if r["ok"]]
        results = []
        digests = {json.dumps(r["digests"], sort_keys=True) for r in good}
        results.append(("deterministic", len(digests) == 1 and len(good) > 1,
                        f"{len(good)} reps, {len(digests)} distinct output sets"))
        self.outcomes = {}
        self.rates = {"hit_rate": 0.0, "false_flag_rate": 0.0}
        if self.workload == DETECT:
            same = all(_digest(Path(v["path"])) == v["sha256"]
                       for v in self.inputs.values())
            results.append(("inputs_unchanged", same, "sha256 of test and baseline"))
            if good:
                ok, detail, self.rates = checks.detection(
                    self.last_out, workloads.SIZES[self.size][DETECT])
                results.append(("detection_rates", ok, detail))
        elif good:
            records = checks.read_records(self.last_out / "records.jsonl")
            self.outcomes = Counter(r["outcome"] for r in records)
            results.append(("parse_back", *checks.parse_back(
                self.last_out / "logs.jsonl", records, self.attaches)))
            results.append(("auth_means", *checks.auth_means(records)))
        return results

    def end_to_end(self) -> tuple[dict, dict]:
        """(scaled, measured) metrics.  Throughput is the work of all calls
        over their summed wall time.  Times are scaled by REFERENCE_S over
        the run's mean reference-loop time: the host's speed drifts by up
        to 1.7x within minutes, and the scaled figures drift far less."""
        plain = [r for r in self.reps if r["ok"] and not r["traced"]]
        if not plain:
            zero = {name: 0.0 for name, _ in END_TO_END}
            return zero, zero
        wall = sum(r["wall_s"] for r in plain)
        measured = {
            "attaches_per_s": self.attaches * len(plain) / wall,
            "lines_per_s": self.lines * len(plain) / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
        }
        slowdown = statistics.mean(self.reference_s) / REFERENCE_S
        scaled = dict(measured)
        scaled["attaches_per_s"] *= slowdown
        scaled["lines_per_s"] *= slowdown
        scaled["setup_s"] /= slowdown
        return scaled, measured

    def per_layer(self) -> tuple[dict, list[str]]:
        traced = [r for r in self.reps if r["ok"] and r["traced"]]
        plain = [r for r in self.reps if r["ok"] and not r["traced"]]
        rows = [self._layer_metrics(r) for r in traced]
        metrics = {name: (statistics.median(row[name] for row in rows)
                          if rows else 0.0)
                   for name, *_ in LAYER_METRICS}
        if traced and plain:
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
        absent = sorted({a for r in traced for a in r["layers"]["absent"]})
        return metrics, absent

    def _layer_metrics(self, rep: dict) -> dict:
        layers = rep["layers"]
        spans, counts = layers["spans"], layers["counts"]
        empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_us": 0.0,
                 "p99_us": 0.0}

        def span(name: str) -> dict:
            return spans.get(name, empty)

        channel = span("channel.auth_channel_elapsed")
        attach = span("protocol.run_attach")
        samples = counts.get("scenario.device_samples.built", 0)
        top = span("scenario.run_detection" if self.workload == DETECT
                   else "scenario.run_scenario")
        m = {
            "core.rng_scalar_calls": counts.get("core.rng_scalar_calls", 0),
            "core.rng_calls_per_attach":
                counts.get("core.rng_attach_calls", 0) / attach["calls"]
                if attach["calls"] else 0.0,
            "channel.auth_channel_elapsed.calls": channel["calls"],
            "channel.auth_channel_elapsed.self_s": channel["self_s"],
            "channel.auth_channel_elapsed.mean_us":
                channel["busy_s"] / channel["calls"] * 1e6 if channel["calls"] else 0.0,
            "fleet.channel_for.calls": span("fleet.channel_for")["calls"],
            "protocol.run_attach.calls": attach["calls"],
            "protocol.run_attach.self_s": attach["self_s"],
            "protocol.run_attach.p50_us": attach["p50_us"],
            "protocol.run_attach.p99_us": attach["p99_us"],
            "monitor.classify.calls": span("monitor.classify")["calls"],
            "monitor.hit_rate": self.rates["hit_rate"],
            "monitor.false_flag_rate": self.rates["false_flag_rate"],
            "scenario.write_logs.bytes": counts.get("scenario.write_logs.bytes", 0),
            "scenario.write_records.bytes":
                counts.get("scenario.write_records.bytes", 0),
            "scenario.parse_logs.lines": counts.get("scenario.parse_logs.lines", 0),
            "scenario.device_samples.useful_ratio":
                counts.get("scenario.device_samples.used", 0) / samples
                if samples else 0.0,
            "cli.self_s": rep["wall_s"] - top["busy_s"],
            "trace.overhead_s": 0.0,
        }
        for outcome in ("Completed", "AuthTimeout", "AuthReject", "CampRefused"):
            m[f"protocol.outcome.{outcome}"] = self.outcomes.get(outcome, 0)
        for name, *_ in LAYER_METRICS:
            if name.endswith(".busy_s"):
                m[name] = span(name[:-len(".busy_s")])["busy_s"]
        return m


def metadata() -> dict:
    import scipy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    source_lines = sum(len(p.read_bytes().splitlines())
                       for p in (SRC / "attachsim").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_commit": commit, "source_lines": source_lines}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    run = Run(workload, seed, size, trace)
    min_rounds = 1 if trace else (3 if size == "full" else 2)
    run.measure(seconds, min_rounds)
    results = run.check()
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    failed = (sum(not r["ok"] for r in run.reps)
              + sum(not ok for _, ok, _ in results))
    if trace:
        values, absent = run.per_layer()
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        for name, unit, _, moves, on in LAYER_METRICS:
            print(f"{name:42s} {values[name]:14.6g} {unit:12s} "
                  f"-> {moves} [{on}]")
        for name in absent:
            print(f"absent: {name}")
    else:
        values, measured = run.end_to_end()
        units = dict(END_TO_END)
        print(f"reference loop: {statistics.mean(run.reference_s):.4f} s mean "
              f"(nominal {REFERENCE_S} s); metric, scaled, measured:")
        for name, unit in END_TO_END:
            print(f"{name:16s} {values[name]:14.6g} {measured[name]:14.6g} {unit}")
    plain = sum(not r["traced"] for r in run.reps)
    print(f"{workload}: {len(run.reps)} reps ({plain} untraced) at "
          f"{run.attaches} attaches, {run.lines} log lines")
    meta = metadata()
    meta.update({"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "size": size,
                 "inputs": {k: v["sha256"] for k, v in run.inputs.items()}})
    print("meta: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(run.reps) + len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    (run.dir / "result.json").write_text(json.dumps(
        {**result, "meta": meta, "reference_s": run.reference_s,
         "reps": run.reps,
         "checks": results}, indent=1, default=str) + "\n")
    return result


def smoke(seed: int) -> int:
    """Every workload, traced and untraced, at smoke size; every check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names_ok = ({m["name"] for m in spec["end_to_end"]} == dict(END_TO_END).keys()
                and [m["name"] for m in spec["per_layer"]]
                == [m[0] for m in LAYER_METRICS])
    print(f"check metric names match BENCHMARK.json: {'ok' if names_ok else 'FAILED'}")
    correct = names_ok
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed, 0, trace, size="smoke")
            print(json.dumps(result))
            correct = correct and result["correct"]
    print("smoke: " + ("ok" if correct else "FAILED"))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check at a tiny size")
    args = parser.parse_args()
    if not (SRC / "attachsim" / "__init__.py").is_file():
        print(f"error: no attachsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks read outputs through attachsim
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
