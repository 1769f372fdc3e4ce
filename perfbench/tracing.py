"""Outside-in tracing: spans around the calls into each attachsim layer.

Each function is wrapped at the module attribute its caller looks it up
by, so the program itself is unchanged.  Spans are kept in memory as
[name, start, end, parent, attach] and written out when the run ends;
every span opened inside one `run_attach` call carries that attach's id.
A wrapped name that no longer exists, or a counter that can no longer
read its call's arguments or result, is recorded as absent.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

# (module, attribute, span name, opens an attach, post-call counter)
WRAPS = (
    ("cli", "run_scenario", "scenario.run_scenario", False, None),
    ("cli", "run_detection", "scenario.run_detection", False, None),
    ("scenario", "run_attach", "protocol.run_attach", True, None),
    ("scenario", "channel_for", "fleet.channel_for", False, None),
    ("scenario", "schedule_reauth", "monitor.schedule_reauth", False, None),
    ("scenario", "aggregate_auth_latency", "monitor.aggregate_auth_latency",
     False, None),
    ("scenario", "classify", "monitor.classify", False, None),
    ("scenario", "_write_logs", "scenario.write_logs", False, "bytes"),
    ("scenario", "_write_records", "scenario.write_records", False, "bytes"),
    ("scenario", "_write_summary", "scenario.write_summary", False, None),
    ("scenario", "parse_logs", "scenario.parse_logs", False, "lines"),
    ("scenario", "_device_samples", "scenario.device_samples", False,
     "samples"),
    ("scenario", "_write_detection_reports",
     "scenario.write_detection_reports", False, None),
    ("protocol", "auth_channel_elapsed", "channel.auth_channel_elapsed",
     False, None),
    ("channel", "calibrate_processing", "channel.calibrate_processing",
     False, None),
    ("aka", "generate_challenge", "aka.generate_challenge", False, None),
    ("aka", "compute_response", "aka.compute_response", False, None),
)
RNG_METHODS = ("normal", "uniform", "random", "bytes", "integers")


def _count_after(kind: str, args: tuple, result) -> dict[str, int]:
    if kind == "bytes":
        return {"bytes": os.path.getsize(args[0])}
    if kind == "lines":
        return {"lines": sum(len(rec.messages) for recs in result.values()
                             for rec in recs)}
    # device samples: the auth-step ones are all run_detection reads
    built = used = 0
    for samples in result.values():
        built += len(samples)
        used += sum(1 for s in samples if s.step.name == "AuthenticationResponse")
    return {"built": built, "used": used}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.attach = 0
        self.attaches = 0
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _wrap(self, module, attr: str, name: str, opens_attach: bool,
              count: str | None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer_attach = self.attach
            if opens_attach:
                self.attaches += 1
                self.attach = self.attaches
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.attach]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self.attach = outer_attach
            if count:
                try:
                    extra = _count_after(count, args, result)
                except (AttributeError, TypeError, OSError):
                    # the call's arguments or result changed shape
                    self.absent.append(f"{name} {count} count")
                    extra = {}
                for key, value in extra.items():
                    counts[f"{name}.{key}"] += value
            return result

        setattr(module, attr, traced)

    def _count_rng(self, cls) -> None:
        counts = self.counts
        for method in RNG_METHODS:
            fn = getattr(cls, method, None)
            if fn is None:
                self.absent.append(f"core.RngStream.{method}")
                continue

            def counted(rng, *args, _fn=fn, **kwargs):
                counts["core.rng_scalar_calls"] += 1
                if self.attach:
                    counts["core.rng_attach_calls"] += 1
                return _fn(rng, *args, **kwargs)

            setattr(cls, method, counted)

    def install(self) -> None:
        import importlib

        modules = {}
        for name in ("cli", "scenario", "protocol", "channel", "aka", "core"):
            try:
                modules[name] = importlib.import_module(f"attachsim.{name}")
            except ImportError:
                self.absent.append(f"attachsim.{name}")
        for module, attr, name, opens_attach, count in WRAPS:
            if module in modules:
                self._wrap(modules[module], attr, name, opens_attach, count)
        core_rng = getattr(modules.get("core"), "RngStream", None)
        if core_rng is None:
            self.absent.append("core.RngStream")
        else:
            self._count_rng(core_rng)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": self.absent}, f)


def summarize(path: str) -> dict:
    """Per span name: calls, busy and self seconds, p50 and p99 in us."""
    import numpy as np

    with open(path) as f:
        data = json.load(f)
    spans = data["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "durations_us": []})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - child[i]
        row["durations_us"].append((end - start) * 1e6)
    for row in by_name.values():
        durations = row.pop("durations_us")
        row["p50_us"], row["p99_us"] = np.percentile(durations, [50, 99]).tolist()
    return {"spans": by_name, "counts": data["counts"],
            "absent": data["absent"]}
