"""Scenario configuration, batch simulation, log export, and detection runs.

Configs are versioned JSON documents validated fail-closed: any key the
schema does not know, and any value of the wrong JSON type, is an error.
All artifacts are deterministic functions of (config, seed): logs are
merged in (time, device, step) order, report rows are sorted by device,
and floats are rendered through fixed formats, so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import monitor
from .aka import SubscriberKey, algorithm_named
from .channel import CHANNEL_KINDS, COUPLED_SERIAL, SimChannel, build_channel
from .core import (
    DECIMALS,
    SHORT_DECIMALS,
    SHORT_TICKS,
    TIME_LIMIT_MS,
    ConfigError,
    EmptyWindow,
    ParseError,
    RngStream,
    read_section,
    read_value,
)
from .fleet import (
    CampDecision,
    DeviceProfile,
    RadioEnvironment,
    TransmissionModel,
    attempt_camp,
    builtin_profiles,
    channel_for,
    channel_overrides,
)
from .monitor import (
    DetectPolicy,
    ReauthPolicy,
    Verdict,
    classify,
    schedule_reauth,
)
from .protocol import (
    ATTACH_SEQUENCE,
    OUTCOMES,
    AttachRecord,
    AttachStep,
    DeviceAttaches,
    NetworkConfig,
    Outcome,
    SignalingMessage,
    run_attaches,
    step_named,
)

DAY_MS = 86_400_000.0


@dataclass(frozen=True)
class FleetEntry:
    profile: str | dict
    count: int
    wrong_key: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("fleet entry count must be at least 1")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    fleet: tuple[FleetEntry, ...]
    rsrp_dbm: float = -71.0
    attaches_per_device: int = 50
    day_span_ms: float = DAY_MS
    min_spacing_ms: float = 10_000.0
    auth_timer_ms: float = 6000.0
    calibrate: bool = True
    channels: dict = field(default_factory=dict)
    transmission: TransmissionModel = field(default_factory=TransmissionModel)
    detect: DetectPolicy = field(default_factory=DetectPolicy)

    def __post_init__(self):
        if not self.fleet:
            raise ConfigError("fleet must not be empty")
        if self.attaches_per_device < 1:
            raise ConfigError("attaches_per_device must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # the scalars run_scenario builds its parts from, checked by them
        RadioEnvironment(self.rsrp_dbm)
        NetworkConfig(auth_timer_ms=self.auth_timer_ms)
        ReauthPolicy(self.attaches_per_device, self.min_spacing_ms)
        if not self.day_span_ms < TIME_LIMIT_MS:
            raise ConfigError(f"day_span_ms must be below "
                              f"{TIME_LIMIT_MS:.0f}, the timestamp limit")
        if not (self.attaches_per_device - 1) * self.min_spacing_ms \
                < self.day_span_ms:
            raise ConfigError(
                f"cannot place {self.attaches_per_device} attaches "
                f"{self.min_spacing_ms} ms apart in a {self.day_span_ms} ms "
                f"day_span_ms")


_PROFILE_SCHEMA = {"name": str, "steps": dict, "optional_steps": list,
                   "channel_kind": str, "sensitivity_rsrp": float,
                   "calibration_target_ms": float, "auth_algorithm": dict,
                   "subscriber_key": str}
_ALGORITHM_SCHEMA = {"name": str, "latency_mean_ms": float,
                     "latency_std_ms": float}
_TRANSMISSION_SCHEMA = dict.fromkeys(
    ("median_ms", "sigma", "outlier_prob", "outlier_max_ms"), float)
_CONFIG_SCHEMA = {"version": int, "seed": int, "fleet": list,
                  "rsrp_dbm": float, "attaches_per_device": int,
                  "day_span_ms": float, "min_spacing_ms": float,
                  "auth_timer_ms": float, "calibrate": bool, "channels": dict,
                  "transmission": dict, "detect": dict}


def _parse_inline_profile(raw: dict, ctx: str) -> DeviceProfile:
    spec = read_section(raw, ctx, _PROFILE_SCHEMA, required={
        "name", "steps", "channel_kind", "sensitivity_rsrp"})
    steps = read_section(spec.pop("steps"), f"{ctx} steps",
                         dict.fromkeys(AttachStep.__members__, list))
    spec["step_latency"] = {}
    for name, pair in steps.items():
        if len(pair) != 2:
            raise ConfigError(f"{ctx} steps {name}: expected [mean, std]")
        spec["step_latency"][AttachStep[name]] = tuple(
            read_value(v, float, f"{ctx} steps {name}") for v in pair)
    spec["optional_steps"] = frozenset(
        step_named(n) for n in spec.get("optional_steps", ()))
    if "auth_algorithm" in spec:
        spec["auth_alg"] = algorithm_named(**read_section(
            spec.pop("auth_algorithm"), f"{ctx} auth_algorithm",
            _ALGORITHM_SCHEMA, required={"name"}))
    if "subscriber_key" in spec:
        spec["subscriber_key"] = SubscriberKey.from_hex(spec["subscriber_key"])
    return DeviceProfile(**spec)


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    return parse_config(_read_json(path), ctx=str(path))


def load_policy(path: str | Path | None) -> DetectPolicy:
    """The detection policy in a JSON file; the default one without a file."""
    if path is None:
        return DetectPolicy()
    return _parse_policy(_read_json(path), ctx=str(path))


def _parse_policy(raw: dict, ctx: str) -> DetectPolicy:
    return DetectPolicy(**read_section(raw, ctx, {"critical": float,
                                                  "statistic": str}))


def parse_config(raw: dict, ctx: str = "config") -> ScenarioConfig:
    spec = read_section(raw, ctx, _CONFIG_SCHEMA,
                        required={"version", "seed", "fleet"})
    version = spec.pop("version")
    if version != 1:
        raise ConfigError(f"{ctx}: unsupported config version {version!r}")

    entries = []
    for i, item in enumerate(spec["fleet"]):
        ectx = f"{ctx} fleet[{i}]"
        entry = read_section(item, ectx, {"profile": (str, dict), "count": int,
                                          "wrong_key": bool},
                             required={"profile", "count"})
        if isinstance(entry["profile"], dict):
            entry["profile"] = _parse_inline_profile(entry["profile"],
                                                     f"{ectx} profile")
        entries.append(FleetEntry(**entry))
    spec["fleet"] = tuple(entries)
    _base_profiles(spec["fleet"])  # resolved only to be checked

    channels = read_section(spec.get("channels", {}), f"{ctx} channels",
                            dict.fromkeys(CHANNEL_KINDS, dict))
    if COUPLED_SERIAL in channels:
        raise ConfigError(
            f"{ctx} channels {COUPLED_SERIAL}: takes no overrides; a coupled "
            f"profile's auth latency comes from its step table")
    for kind, section in channels.items():  # built only to be checked
        build_channel(kind, **channel_overrides(kind, section,
                                                f"{ctx} channels {kind}"))
    spec["transmission"] = TransmissionModel(**read_section(
        spec.get("transmission", {}), f"{ctx} transmission",
        _TRANSMISSION_SCHEMA))
    spec["detect"] = _parse_policy(spec.get("detect", {}), f"{ctx} detect")
    return ScenarioConfig(**spec)


@dataclass(frozen=True)
class ScenarioArtifacts:
    out_dir: Path
    logs_path: Path
    records_path: Path
    summary_path: Path
    devices: tuple[DeviceAttaches, ...]  # in fleet order

    @cached_property
    def records(self) -> dict[str, list[AttachRecord]]:
        """Per device, its attaches as message traces; built on first use."""
        return {dev.device_id: dev.records() for dev in self.devices}

    def outcome_counts(self) -> dict[Outcome, int]:
        codes = np.concatenate([dev.outcomes for dev in self.devices])
        return dict(zip(OUTCOMES, np.bincount(
            codes, minlength=len(OUTCOMES)).tolist()))


def _base_profiles(fleet: tuple[FleetEntry, ...]) -> list[DeviceProfile]:
    """The profile each fleet entry names, before any `wrong_key`.

    A name stands for one profile: the channel, the device ids and the
    summary column are the name's, so two entries naming different
    profiles alike are an error.
    """
    catalog = builtin_profiles()
    seen: dict[str, DeviceProfile] = {}
    out = []
    for entry in fleet:
        if isinstance(entry.profile, DeviceProfile):
            profile = entry.profile
        elif isinstance(entry.profile, str):
            if entry.profile not in catalog:
                raise ConfigError(f"unknown profile {entry.profile!r}; "
                                  f"builtin: {sorted(catalog)}")
            profile = catalog[entry.profile]
        else:
            profile = _parse_inline_profile(entry.profile, "inline profile")
        if seen.setdefault(profile.name, profile) != profile:
            raise ConfigError(f"fleet: two different profiles are named "
                              f"{profile.name!r}")
        out.append(profile)
    return out


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> ScenarioArtifacts:
    """Simulate the configured fleet and write logs, records, and summary."""
    profiles = _base_profiles(config.fleet)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env = RadioEnvironment(config.rsrp_dbm)
    network = NetworkConfig(auth_timer_ms=config.auth_timer_ms,
                            transmission=config.transmission)
    policy = ReauthPolicy(config.attaches_per_device, config.min_spacing_ms)
    root = RngStream(config.seed)

    channels: dict[str, SimChannel] = {}
    devices: list[DeviceAttaches] = []
    per_model_count: dict[str, int] = {}
    for entry, base_profile in zip(config.fleet, profiles):
        name = base_profile.name
        if name not in channels:
            channels[name] = channel_for(
                base_profile, config.channels.get(base_profile.channel_kind),
                calibrate=config.calibrate)
        if entry.wrong_key:
            base_profile = replace(base_profile, auth_misconfigured=True)
        camps = attempt_camp(base_profile, env) is CampDecision.Proceed
        for _ in range(entry.count):
            ordinal = per_model_count.get(name, 0)
            per_model_count[name] = ordinal + 1
            profile = base_profile.for_device(f"{name}-{ordinal:03d}")
            rng = root.substream(len(devices))
            schedule = schedule_reauth(policy, (0.0, config.day_span_ms), rng)
            devices.append(
                run_attaches(profile, channels[name], network, schedule, rng)
                if camps else DeviceAttaches.refused(profile, len(schedule)))

    logs_path = out / "logs.jsonl"
    records_path = out / "records.jsonl"
    summary_path = out / "summary.csv"
    _write_logs(logs_path, devices)
    _write_records(records_path, devices)
    _write_summary(summary_path, devices, list(per_model_count))
    return ScenarioArtifacts(out_dir=out, logs_path=logs_path,
                             records_path=records_path,
                             summary_path=summary_path, devices=tuple(devices))


_LOG_CHUNK = 4096  # lines per write


def _write_logs(path: Path, devices: list[DeviceAttaches]) -> None:
    """Every message, sorted by (time, device_id, step), written a chunk of
    lines at a time.  Each line is its time, rendered from its lattice
    ticks as `fmt_ms` would, plus a precomputed tail per (device, step),
    as SignalingMessage.to_json_line writes it."""
    width = len(AttachStep)
    tails = [""] * (width * len(devices))  # by device rank * width + step
    times, keys = [], []
    ranked = sorted(devices, key=lambda dev: dev.device_id)
    for rank, dev in enumerate(ranked):
        device_id = json.dumps(dev.device_id)
        for step in dev.steps:
            tails[rank * width + step] = (
                f', "layer": "NAS", "direction": "{step.direction}", '
                f'"device_id": {device_id}, "message": "{step.name}"}}\n')
        sent = np.arange(len(dev.steps)) < dev.counts[:, None]
        times.append(dev.times[sent])
        keys.append(np.broadcast_to(rank * width + np.array(dev.steps),
                                    sent.shape)[sent])
    time = np.concatenate(times)
    key = np.concatenate(keys)
    order = np.lexsort((key, time))
    decimals = DECIMALS
    with path.open("w") as f:
        for lo in range(0, order.size, _LOG_CHUNK):
            chunk = order[lo:lo + _LOG_CHUNK]
            # exact ticks: every time is below TIME_LIMIT_MS
            ticks = (time[chunk] * 1024.0).astype(np.int64)
            f.write("".join([
                f'{{"time": {whole}{decimals[part]}{tails[j]}'
                for whole, part, j in zip((ticks >> 10).tolist(),
                                          (ticks & 1023).tolist(),
                                          key[chunk].tolist())]))


def _write_records(path: Path, devices: list[DeviceAttaches]) -> None:
    """One JSON row per attach, devices sorted by id, as json.dumps writes
    it: floats by repr, a missing value as null.  Step latencies below
    2**19 ms are rendered from their lattice ticks (see SHORT_TICKS)."""
    def number(value: float) -> str:
        return "null" if math.isnan(value) else repr(value)

    outcomes = [f'"outcome": "{o.value}", "start_ms": ' for o in OUTCOMES]
    short = SHORT_DECIMALS
    with path.open("w") as f:
        for dev in sorted(devices, key=lambda d: d.device_id):
            head = f'{{"device_id": {json.dumps(dev.device_id)}, "attach_seq": '
            opening = f', "steps": {{"{dev.steps[0].name}": 0.0'
            keys = [f', "{step.name}": ' for step in dev.steps[1:]]
            gaps = np.diff(dev.times, axis=1)
            ticks = (gaps * 1024.0).astype(np.int64)
            if ticks.size and ticks.max() >= SHORT_TICKS:
                cells = [[key + repr(gap) for key, gap in zip(keys, row)]
                         for row in gaps.tolist()]
            else:
                cells = [[f"{key}{whole}{short[part]}" for key, whole, part
                          in zip(keys, wholes, parts)]
                         for wholes, parts in zip((ticks >> 10).tolist(),
                                                  (ticks & 1023).tolist())]
            rows = []
            for seq, (times, row, count, code, transfer, processing) in \
                    enumerate(zip(dev.times.tolist(), cells,
                                  dev.counts.tolist(), dev.outcomes.tolist(),
                                  dev.transfer_ms.tolist(),
                                  dev.processing_ms.tolist())):
                if count:
                    span = (f'{times[0]!r}, "end_ms": {times[count - 1]!r}'
                            f'{opening}{"".join(row[:count - 1])}}}')
                else:
                    span = 'null, "end_ms": null, "steps": {}'
                rows.append(
                    f'{head}{seq}, {outcomes[code]}{span}, '
                    f'"auth_transfer_ms": {number(transfer)}, '
                    f'"auth_processing_ms": {number(processing)}}}\n')
            f.write("".join(rows))


def _write_summary(path: Path, devices: list[DeviceAttaches],
                   model_order: list[str]) -> None:
    """Latency table: one row per step plus totals, one column per model.

    Each cell's values are concatenated in device, then attach order."""
    per_model: dict[str, dict[AttachStep, list[np.ndarray]]] = {
        m: {} for m in model_order}
    totals: dict[str, list[np.ndarray]] = {m: [] for m in model_order}
    for dev in devices:
        columns = per_model[dev.model]
        gaps = np.diff(dev.times, axis=1)
        for j, step in enumerate(dev.steps):
            sent = dev.counts > j
            if sent.any():
                values = columns.setdefault(step, [])
                if j:  # AttachRequest has no latency
                    values.append(gaps[sent, j - 1])
        done = dev.outcomes == OUTCOMES.index(Outcome.Completed)
        totals[dev.model].append(dev.times[done, -1] - dev.times[done, 0])

    def cell(parts: list[np.ndarray]) -> str:
        arr = np.concatenate(parts)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        return f"{float(np.mean(arr)):.1f}±{std:.1f}"

    lines = ["step,message,direction," + ",".join(model_order)]
    for step in ATTACH_SEQUENCE:
        cells = []
        for model in model_order:
            if step not in per_model[model]:
                cells.append("/")
            elif step == AttachStep.AttachRequest:
                cells.append("0.0±0.0")
            else:
                cells.append(cell(per_model[model][step]))
        lines.append(f"{step.value},{step.name},{step.direction}," + ",".join(cells))
    total_cells = [cell(totals[m]) if any(t.size for t in totals[m]) else "/"
                   for m in model_order]
    lines.append("-,Total,-," + ",".join(total_cells))
    path.write_text("\n".join(lines) + "\n")


_LOG_KEYS = {"time", "layer", "direction", "device_id", "message"}
# JSON integers decode as floats, so an over-long integer time becomes inf
# and is rejected below instead of overflowing a later float conversion.
_LOG_DECODER = json.JSONDecoder(parse_int=float)
# The exact line shape SignalingMessage.to_json_line writes: a plain JSON
# number of ASCII digits as time and a device_id without escapes, control
# characters or undecodable bytes (lone surrogates, see _attaches).  Any
# other line, valid or not, takes the json branch of _read_line.
_WRITER_LINE = re.compile(
    r'\{"time": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?), "layer": "NAS", '
    r'"direction": "([A-Za-z]+)", '
    r'"device_id": "([^"\\\x00-\x1f\ud800-\udfff]*)", '
    r'"message": "([A-Za-z]+)"\}$')
_STEP_DIRECTIONS = {step.name: (step, step.direction) for step in AttachStep}
_UNDECODED = re.compile(r"[\ud800-\udfff]")
# the outcome of a record, from the step it ends at
_OUTCOME_AFTER = {AttachStep.AttachComplete: Outcome.Completed,
                  AttachStep.AuthenticationResponse: Outcome.AuthTimeout,
                  AttachStep.AuthenticationRequest: Outcome.AuthReject}


def _read_line(line: str, lineno: int) -> tuple[float, str, AttachStep]:
    """(time, device_id, step) of a log line in any JSON form, or a
    ParseError naming the line."""
    line = line.strip()
    if not line:
        raise ParseError("blank line", lineno)
    if _UNDECODED.search(line):
        raise ParseError("not UTF-8 text", lineno)
    try:
        obj = _LOG_DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
    if not isinstance(obj, dict) or set(obj) != _LOG_KEYS:
        raise ParseError(f"expected exactly keys {sorted(_LOG_KEYS)}", lineno)
    try:
        step = step_named(str(obj["message"]))
    except ConfigError:
        raise ParseError(f"unknown message {obj['message']!r}", lineno) from None
    if obj["layer"] != "NAS":
        raise ParseError(f"unexpected layer {obj['layer']!r}", lineno)
    if obj["direction"] != step.direction:
        raise ParseError(f"{step.name} must be {step.direction}", lineno)
    time = obj["time"]
    if type(time) is not float or not time < math.inf:
        raise ParseError(f"bad time {time!r}", lineno)
    if time < 0:
        raise ParseError("negative timestamp", lineno)
    device_id = obj["device_id"]
    # a lone surrogate (from a \ud800-style escape) cannot be written out
    if type(device_id) is not str or _UNDECODED.search(device_id):
        raise ParseError(f"bad device_id {device_id!r}", lineno)
    return time, device_id, step


def _attaches(path: str | Path
              ) -> Iterator[tuple[str, list[AttachStep], list[float], Outcome]]:
    """Each attach record of a JSONL signaling log, read in one pass by
    the rules of parse_logs.

    Yields (device_id, steps, times, outcome) when a record closes: when
    the device's next record starts, or at the end of the log, devices in
    sorted order.
    """
    # device -> [steps, times, line of the last message] of its open record
    open_records: dict[str, list] = {}

    def closed(device_id: str, record: list):
        steps, times, last_line = record
        if steps[-1] not in _OUTCOME_AFTER:
            raise ParseError(f"record for {device_id} truncated at "
                             f"{steps[-1].name}", last_line)
        return device_id, steps, times, _OUTCOME_AFTER[steps[-1]]

    match = _WRITER_LINE.match
    directions = _STEP_DIRECTIONS.get
    first = AttachStep.AttachRequest
    # Undecodable bytes become lone surrogates, which only _read_line takes.
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            fast = match(line)
            if fast:
                time_text, direction, device_id, message = fast.groups()
                step, expected = directions(message, (None, None))
                time = float(time_text)
                if direction != expected or not time < math.inf:
                    time, device_id, step = _read_line(line, lineno)
            else:
                time, device_id, step = _read_line(line, lineno)

            record = open_records.get(device_id)
            if record is not None and step <= record[0][-1]:
                del open_records[device_id]
                yield closed(device_id, record)
                record = None
            if record is None:
                if step != first:
                    raise ParseError(
                        f"record for {device_id} starts at {step.name}", lineno)
                open_records[device_id] = [[step], [time], lineno]
                continue
            times = record[1]
            if time < times[-1]:
                raise ParseError(f"time went backwards for {device_id}", lineno)
            record[0].append(step)
            times.append(time)
            record[2] = lineno

    for device_id in sorted(open_records):
        yield closed(device_id, open_records[device_id])


def parse_logs(path: str | Path) -> dict[str, list[AttachRecord]]:
    """Reconstruct per-device attach records from a JSONL signaling log.

    Fail-closed: any malformed line raises ParseError with its 1-based
    line number.  Records are split when the step index stops increasing;
    every record must begin with the first step of the sequence.
    """
    done: dict[str, list[AttachRecord]] = {}
    for device_id, steps, times, outcome in _attaches(path):
        recs = done.setdefault(device_id, [])
        recs.append(AttachRecord(
            device_id=device_id, outcome=outcome, attach_seq=len(recs),
            messages=[SignalingMessage(time=time, direction=step.direction,
                                       device_id=device_id, message=step.name)
                      for step, time in zip(steps, times)]))
    return done


def _step_latencies(path: str | Path, step: AttachStep
                    ) -> dict[str, list[float]]:
    """Per device, in parse_logs order, the latency of `step` in each record
    that has it: its time minus the time of the message before it."""
    out: dict[str, list[float]] = {}
    for device_id, steps, times, _ in _attaches(path):
        values = out.setdefault(device_id, [])
        try:
            i = steps.index(step)
        except ValueError:
            continue
        if i:
            values.append(times[i] - times[i - 1])
    return out


@dataclass(frozen=True)
class DetectionResult:
    verdicts: list[Verdict]
    skipped: list[str]
    flagged: bool
    csv_path: Path
    json_path: Path


def run_detection(logs_path: str | Path, baseline_path: str | Path,
                  policy: DetectPolicy, report_path: str | Path
                  ) -> DetectionResult:
    """Score every device in the logs against the baseline population.

    Each log is read once, keeping only each device's authentication
    latencies.
    """
    auth = AttachStep.AuthenticationResponse
    device_latencies = _step_latencies(logs_path, auth)
    baseline_values = [value for values in _step_latencies(baseline_path,
                                                           auth).values()
                       for value in values]
    if not baseline_values:
        raise EmptyWindow("baseline logs contain no authentication samples")
    baseline = monitor.LatencyStats.from_samples(baseline_values)

    verdicts: list[Verdict] = []
    skipped: list[str] = []
    for device_id in sorted(device_latencies):
        values = device_latencies[device_id]
        if len(values) < 2:
            skipped.append(device_id)
            continue
        stats = monitor.LatencyStats.from_samples(values)
        verdicts.append(classify(stats, baseline, policy, device_id=device_id))

    report_path = Path(report_path)
    csv_path = report_path
    json_path = report_path.with_suffix(".json")
    _write_detection_reports(csv_path, json_path, verdicts, skipped, baseline,
                             policy)
    flagged = any(v.decision is monitor.Decision.Flagged for v in verdicts)
    return DetectionResult(verdicts=verdicts, skipped=skipped, flagged=flagged,
                           csv_path=csv_path, json_path=json_path)


def _write_detection_reports(csv_path: Path, json_path: Path,
                             verdicts: list[Verdict], skipped: list[str],
                             baseline: monitor.LatencyStats,
                             policy: DetectPolicy) -> None:
    lines = ["device_id,n,mean,std,median,t,p,decision"]
    for v in verdicts:
        stat = v.ttest.t if policy.statistic == "double" else v.ttest.t_welch
        lines.append(
            f"{v.device_id},{v.stats.n},{v.stats.mean:.3f},{v.stats.std:.3f},"
            f"{v.stats.median:.3f},{stat:.4f},{v.ttest.p_value:.3e},"
            f"{v.decision.value}")
    csv_path.write_text("\n".join(lines) + "\n")

    payload = {
        "policy": {"critical": policy.critical, "statistic": policy.statistic},
        "baseline": {"n": baseline.n, "mean": baseline.mean,
                     "std": baseline.std, "median": baseline.median,
                     "min": baseline.min, "max": baseline.max},
        "verdicts": [
            {
                "device_id": v.device_id,
                "decision": v.decision.value,
                "n": v.stats.n,
                "mean": v.stats.mean,
                "std": v.stats.std,
                "median": v.stats.median,
                "se": v.ttest.se,
                "t_double": v.ttest.t,
                "t_welch": v.ttest.t_welch,
                "t_ratio": v.ttest.t_ratio,
                "df": v.ttest.df,
                "p_value": v.ttest.p_value,
            }
            for v in verdicts
        ],
        "skipped_devices": skipped,
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")


def emit_distribution(logs_path: str | Path, step: AttachStep | str | int,
                      out_path: str | Path, bins: int = 60) -> Path:
    """Histogram of one step's latencies, as CSV points for plotting."""
    if isinstance(step, str):
        step = step_named(step)
    elif isinstance(step, int):
        step = AttachStep(step)
    values = [value for values in _step_latencies(logs_path, step).values()
              for value in values]
    if not values:
        raise EmptyWindow(f"no samples for step {step.name}")
    counts, edges = np.histogram(np.asarray(values), bins=bins)
    total = float(len(values))
    out_path = Path(out_path)
    lines = ["bin_low,bin_high,count,density"]
    for i, count in enumerate(counts):
        width = edges[i + 1] - edges[i]
        density = count / (total * width) if width > 0 else 0.0
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(count)},"
                     f"{density:.8g}")
    out_path.write_text("\n".join(lines) + "\n")
    return out_path
