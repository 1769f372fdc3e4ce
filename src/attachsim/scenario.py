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
import os
import pickle
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby, repeat
from pathlib import Path

import numpy as np

from . import monitor
from .aka import SubscriberKey, algorithm_named
from .channel import CHANNEL_KINDS, COUPLED_SERIAL, SimChannel, build_channel
from .core import (
    DECIMALS,
    TIME_LIMIT_MS,
    ConfigError,
    EmptyWindow,
    ParseError,
    RngStream,
    digit_cells,
    lattice_repr,
    read_section,
    read_value,
    text_cells,
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
    schedule_devices,
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
    run_devices,
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
    env = RadioEnvironment(config.rsrp_dbm)
    network = NetworkConfig(auth_timer_ms=config.auth_timer_ms,
                            transmission=config.transmission)
    policy = ReauthPolicy(config.attaches_per_device, config.min_spacing_ms)
    root = RngStream(config.seed)

    channels: dict[str, SimChannel] = {}
    devices: list[DeviceAttaches] = []
    per_model_count: dict[str, int] = {}
    for entry, profile in zip(config.fleet, profiles):
        name = profile.name
        if name not in channels:
            channels[name] = channel_for(
                profile, config.channels.get(profile.channel_kind),
                calibrate=config.calibrate)
        if entry.wrong_key:
            profile = replace(profile, auth_misconfigured=True)
        first = per_model_count.get(name, 0)
        per_model_count[name] = first + entry.count
        ids = [f"{name}-{i:03d}" for i in range(first, first + entry.count)]
        rngs = [root.substream(i)
                for i in range(len(devices), len(devices) + entry.count)]
        starts = schedule_devices(policy, (0.0, config.day_span_ms), rngs)
        if attempt_camp(profile, env) is CampDecision.Proceed:
            devices += run_devices(profile, channels[name], network, starts,
                                   rngs, ids)
        else:
            devices += [DeviceAttaches.refused(profile, policy.count, i)
                        for i in ids]

    out = Path(out_dir)  # made only once every device has run
    out.mkdir(parents=True, exist_ok=True)
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
# records rows per write: a chunk's byte matrix is about 0.8 MB, and it
# and the mask that drops its NULs stay small next to the fleet's arrays
_RECORD_CHUNK = 1024


def _write_logs(path: Path, devices: list[DeviceAttaches]) -> None:
    """Every message, sorted by (time, device_id, step), written a chunk of
    lines at a time.  Each line is its time, rendered from its lattice
    ticks as `fmt_ms` would, plus a precomputed tail per (device, step),
    as SignalingMessage.to_json_line writes it; a chunk is one bytes
    format call."""
    width = len(AttachStep)
    tails = np.full(width * len(devices), b"", object)  # rank * width + step
    times, keys = [], []
    ranked = sorted(devices, key=lambda dev: dev.device_id)
    for rank, dev in enumerate(ranked):
        device_id = json.dumps(dev.device_id)  # ASCII: non-ASCII is escaped
        for step in dev.steps:
            tails[rank * width + step] = (
                f', "layer": "NAS", "direction": "{step.direction}", '
                f'"device_id": {device_id}, "message": "{step.name}"}}\n'
            ).encode()
        sent = np.arange(len(dev.steps)) < dev.counts[:, None]
        times.append(dev.times[sent])
        keys.append(np.broadcast_to(rank * width + np.array(dev.steps),
                                    sent.shape)[sent])
    time = np.concatenate(times)
    key = np.concatenate(keys)
    # A device's times strictly increase (steps take at least 0.1 ms and
    # an attach starts after the previous one ends), so equal times belong
    # to different devices, and a stable sort leaves them in rank order:
    # the (time, key) order
    order = np.argsort(time, kind="stable")
    decimals = np.array([d.encode() for d in DECIMALS], dtype=object)
    with path.open("wb") as f:
        for lo in range(0, order.size, _LOG_CHUNK):
            chunk = order[lo:lo + _LOG_CHUNK]
            # exact ticks: every time is below TIME_LIMIT_MS
            ticks = (time[chunk] * 1024.0).astype(np.int64)
            args = np.empty((chunk.size, 3), dtype=object)
            args[:, 0] = ticks >> 10  # as Python ints
            args[:, 1] = decimals[ticks & 1023]
            args[:, 2] = tails[key[chunk]]
            f.write(b'{"time": %d%s%s' * chunk.size % tuple(args.ravel()))


def _write_records(path: Path, devices: list[DeviceAttaches]) -> None:
    """One JSON row per attach, devices sorted by id, as json.dumps writes
    it: floats by repr, a missing value as null.

    A chunk of rows, across devices, is rendered at once as a matrix of
    4-byte cells (see text_cells): one column range per piece of a row,
    NUL where the row has no such piece.  No piece holds a NUL byte (all
    are ASCII, and json.dumps escapes control characters in ids), so the
    matrix's bytes without their NULs are the rows.  Times and step
    latencies are lattice values, written by lattice_repr."""
    ranked = sorted(devices, key=lambda dev: dev.device_id)
    sizes = [dev.counts.size for dev in ranked]
    rows = sum(sizes)
    device = np.repeat(np.arange(len(ranked)), sizes)
    seq = np.arange(rows) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    counts, outcomes, transfer, processing = (
        np.concatenate([getattr(dev, name) for dev in ranked])
        for name in ("counts", "outcomes", "transfer_ms", "processing_ms"))
    # per attach: its step latencies by step value, in ticks (0 where it
    # sent no such step), and the ticks of its first and last message
    gaps = np.zeros((rows, len(AttachStep)), np.int64)
    sent = np.zeros(gaps.shape, bool)
    span = np.zeros((rows, 2), np.int64)
    lo = 0
    for steps, run in groupby(ranked, key=lambda dev: dev.steps):
        ticks = (np.concatenate([dev.times for dev in run]) * 1024.0
                 ).astype(np.int64)  # exact on the lattice
        hi = lo + len(ticks)
        count = counts[lo:hi]
        sent[lo:hi, list(steps)] = np.arange(len(steps)) < count[:, None]
        gaps[lo:hi, list(steps[1:])] = np.diff(ticks, axis=1)
        span[lo:hi, 0] = ticks[:, 0]
        span[lo:hi, 1] = ticks[np.arange(len(ticks)), count - 1]
        lo = hi
    gaps[~sent] = 0

    heads = text_cells(f'{{"device_id": {json.dumps(dev.device_id)}, '
                       f'"attach_seq": ' for dev in ranked)
    opens = text_cells(f', "outcome": "{o.value}", "start_ms": '
                       for o in OUTCOMES)
    # the first step is always AttachRequest, at latency 0.0
    keys = text_cells(f'"{s.name}": ' if s == 0 else f', "{s.name}": '
                      for s in AttachStep)
    null, end_key, steps_key, close = (
        text_cells([text])[0]
        for text in ("null", ', "end_ms": ', ', "steps": {', "}"))

    def number(value: float) -> str:
        return "null" if math.isnan(value) else repr(value)

    def render(chunk: slice) -> np.ndarray:
        """The bytes of a chunk of rows."""
        n = counts[chunk].size
        bounds = lattice_repr(span[chunk].ravel()).reshape(n, 2, -1)
        unsent = counts[chunk] == 0
        bounds[unsent] = 0
        bounds[unsent, :, :null.size] = null
        values = lattice_repr(gaps[chunk].ravel()).reshape(n, len(keys), -1)
        # tails[0] ends the rows without relay totals
        relay = np.flatnonzero(~(np.isnan(transfer[chunk])
                                 & np.isnan(processing[chunk])))
        tails = text_cells(
            f', "auth_transfer_ms": {number(a)}, '
            f'"auth_processing_ms": {number(b)}}}\n'
            for a, b in [(math.nan, math.nan)] + list(zip(
                transfer[chunk][relay].tolist(),
                processing[chunk][relay].tolist())))
        tail = np.zeros(n, np.intp)
        tail[relay] = np.arange(1, relay.size + 1)
        step_cells = np.concatenate([
            np.broadcast_to(keys, (n,) + keys.shape), values], axis=2)
        step_cells *= sent[chunk, :, None]  # blank the steps not sent
        matrix = np.concatenate([
            heads[device[chunk]], digit_cells(seq[chunk]),
            opens[outcomes[chunk]], bounds[:, 0],
            np.broadcast_to(end_key, (n, end_key.size)), bounds[:, 1],
            np.broadcast_to(steps_key, (n, steps_key.size)),
            step_cells.reshape(n, -1),
            np.broadcast_to(close, (n, close.size)), tails[tail]],
            axis=1).view(np.uint8)
        return matrix[matrix != 0]

    with path.open("wb") as f:
        f.writelines(render(slice(lo, lo + _RECORD_CHUNK))
                     for lo in range(0, rows, _RECORD_CHUNK))


def _write_summary(path: Path, devices: list[DeviceAttaches],
                   model_order: list[str]) -> None:
    """Latency table: one row per step plus totals, one column per model.

    A model name stands for one profile, so its devices share their steps:
    each model's attaches are stacked once, in device then attach order,
    and each cell reads its values from the stack."""
    def cell(values: np.ndarray) -> str:
        std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        return f"{float(np.mean(values)):.1f}±{std:.1f}"

    by_model: dict[str, list[DeviceAttaches]] = {m: [] for m in model_order}
    for dev in devices:
        by_model[dev.model].append(dev)
    columns, totals = [], []
    for model in model_order:
        times, counts, outcomes = (
            np.concatenate([getattr(dev, name) for dev in by_model[model]])
            for name in ("times", "counts", "outcomes"))
        gaps = np.diff(times, axis=1)
        column = {}
        for j, step in enumerate(by_model[model][0].steps):
            sent = counts > j
            if sent.any():  # AttachRequest has no latency
                column[step] = cell(gaps[sent, j - 1]) if j else "0.0±0.0"
        columns.append(column)
        done = outcomes == OUTCOMES.index(Outcome.Completed)
        totals.append(cell(times[done, -1] - times[done, 0])
                      if done.any() else "/")

    lines = ["step,message,direction," + ",".join(model_order)]
    for step in ATTACH_SEQUENCE:
        lines.append(f"{step.value},{step.name},{step.direction},"
                     + ",".join(column.get(step, "/") for column in columns))
    lines.append("-,Total,-," + ",".join(totals))
    path.write_text("\n".join(lines) + "\n")


_LOG_KEYS = {"time", "layer", "direction", "device_id", "message"}
# JSON integers decode as floats, so an over-long integer time becomes inf
# and is rejected below instead of overflowing a later float conversion.
_LOG_DECODER = json.JSONDecoder(parse_int=float)
# The exact line shape SignalingMessage.to_json_line writes: a plain JSON
# number of ASCII digits as time and a device_id without escapes, control
# characters or undecodable bytes (lone surrogates, see _LogReader.block).
# _LogReader checks each distinct tail of such a line once against it; any
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
_ENDS_RECORD = np.array([step in _OUTCOME_AFTER for step in AttachStep])
_NEVER = np.iinfo(np.int64).max  # first_close of a device whose records are open


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


# Bytes read at a time.  The reader's memory scales with it: 256 KiB keeps
# detect's peak within 2 MB of a line-at-a-time reader.
_BLOCK_BYTES = 1 << 18
# A writer line is split at its first _SEP into a head, '{"time": ' and the
# time, and a tail, looked up as _MARK + the rest of the line.
_SEP = b', "layer": '
_MARK = b"\x00"


def _head_layouts() -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per head length, (low, span, weights) of '{"time": ' and a time with
    1 to 13 integer digits, a dot and ten fraction digits: byte j of a head
    fits when byte - low[j] <= span[j] as uint8, and (bytes - 48) @ weights
    is (integer part, fraction digits read as an integer)."""
    layouts = {}
    for length in range(21, 34):
        dot = length - 11
        low = np.frombuffer(b'{"time": ' + b"0" * (length - 9), np.uint8).copy()
        span = np.zeros(length, np.uint8)
        span[9:] = 9
        low[dot], span[dot] = ord("."), 0
        if dot > 10:  # no leading zero
            low[9], span[9] = ord("1"), 8
        weights = np.zeros((length, 2))
        weights[9:dot, 0] = 10.0 ** np.arange(dot - 10, -1, -1)
        weights[dot + 1:, 1] = 10.0 ** np.arange(9, -1, -1)
        layouts[length] = low, span, weights
    return layouts


_HEAD_LAYOUTS = _head_layouts()


def _head_times(heads: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(ok, time) of line heads, each meant to be '{"time": ' and a time.

    ok where the time is f"{t:.10f}" of a time t on the 2**-10 ms lattice:
    1 to 13 integer digits, no leading zero unless the integer part is 0,
    a dot and ten fraction digits whose value is j/1024.  Such a time is
    i + j/1024, both exact doubles, so their one rounded sum is
    float(text).  Every other head is not ok, whatever it holds.
    """
    n = len(heads)
    lengths = np.fromiter(map(len, heads), np.int64, n)
    rows = np.array(heads, dtype="S33").view(np.uint8).reshape(n, 33)
    ok, time = np.zeros(n, bool), np.zeros(n)
    counts = np.bincount(np.minimum(lengths, 34), minlength=35)
    for length in np.flatnonzero(counts[21:34]).tolist():
        length += 21
        low, span, weights = _HEAD_LAYOUTS[length]
        group = np.flatnonzero(lengths == length)
        head = rows[group, :length]
        integer, fraction = ((head - 48) @ weights).T
        ticks, rest = np.divmod(fraction, 9765625.0)
        ok[group] = ((head - low) <= span).all(1) & (rest == 0.0)
        time[group] = integer + ticks / 1024.0
    return ok, time


class _LogReader:
    """The rules of parse_logs over a log fed to `block` a run of whole
    lines at a time, keeping the lines of the steps in `keep`.

    Per block, a line in writer shape costs one dict lookup of its tail,
    and its time, in the lattice form simulate writes, is converted with
    the others of the block (_head_times); every other line goes through
    _read_line.  The record rules are checked as masks over each line
    and the previous line of its device.  Across blocks only per-device
    state is carried: the step, time and line number of its last line,
    and the line its first record closed at.
    """

    def __init__(self, keep):
        self.keep = np.isin(np.arange(len(AttachStep)), list(keep))
        self.ids: list[str] = []             # by device number
        self.numbers: dict[str, int] = {}
        self.tails: dict[bytes, int] = {}    # tail -> 16 * device + step
        self.last_step = np.full(0, -1)      # -1 before the device's first line
        self.last_time = np.zeros(0)
        self.last_line = np.zeros(0, np.int64)
        self.first_close = np.zeros(0, np.int64)
        self.lines = 0
        # (device, step, time, gap) of the kept lines, a block at a time
        self.kept = [(np.zeros(0, np.int64), np.zeros(0, np.int64),
                      np.zeros(0), np.zeros(0))]

    def _device(self, device_id: str) -> int:
        number = self.numbers.setdefault(device_id, len(self.ids))
        if number == len(self.ids):
            self.ids.append(device_id)
        return number

    def _learn(self, key: bytes | None) -> int:
        """The code of a tail key not in `tails`, checked by _WRITER_LINE
        and the step/direction rule; -1 where it is not a writer tail."""
        if key is None or not key.startswith(_MARK):
            return -1
        fast = _WRITER_LINE.match('{"time": 0, "layer": '
                                  + key[1:].decode("utf-8", "surrogateescape"))
        if not fast:
            return -1
        _, direction, device_id, message = fast.groups()
        step, expected = _STEP_DIRECTIONS.get(message, (None, None))
        if direction != expected:
            return -1
        self.tails[key] = code = 16 * self._device(device_id) + step
        return code

    def _codes(self, keys: list) -> np.ndarray:
        """16 * device + step of each tail key; -1 where it is not a writer
        tail.  Each tail not in `tails` is checked once a block."""
        codes = np.fromiter(map(self.tails.get, keys, repeat(-1)), np.int64,
                            len(keys))
        learnt: dict[bytes | None, int] = {}
        for i in np.flatnonzero(codes < 0).tolist():
            key = keys[i]
            if key not in learnt:
                learnt[key] = self._learn(key)
            codes[i] = learnt[key]
        return codes

    def block(self, body: bytes) -> None:
        """Read `body`, whole lines each ended by a line feed."""
        split = _MARK not in body
        if split:  # split at _SEP and at line ends in one pass
            pieces = body.replace(_SEP, b"\n" + _MARK).split(b"\n")
            # no pairing without two pieces a line: skip their tail lookups
            split = len(pieces) == 2 * np.count_nonzero(
                np.frombuffer(body, np.uint8) == ord("\n")) + 1
        if split:
            heads, keys = pieces[:-1:2], pieces[1::2]
            codes = self._codes(keys)
            ok, time = _head_times(heads)
            # the pieces pair up as (head, tail) a line exactly when every
            # tail is a writer tail and no head starts with _MARK
            split = codes.min() >= 0 and not any(
                heads[i].startswith(_MARK) for i in np.flatnonzero(~ok).tolist())
        if not split:
            heads, keys = [], []
            for line in body.split(b"\n")[:-1]:
                head, sep, rest = line.partition(_SEP)
                heads.append(head)
                keys.append(_MARK + rest if sep else None)
            codes = self._codes(keys)
            ok, time = _head_times(heads)

        n = len(heads)
        device, step = codes >> 4, codes & 15
        error = None
        for i in np.flatnonzero(~ok | (codes < 0)).tolist():
            line = heads[i] if keys[i] is None else heads[i] + _SEP + keys[i][1:]
            try:
                time[i], device_id, step[i] = _read_line(
                    line.decode("utf-8", "surrogateescape"), self.lines + i + 1)
            except ParseError as exc:
                error, n = exc, i
                break
            device[i] = self._device(device_id)
        self._check(device[:n], step[:n], time[:n])
        if error is not None:
            raise error
        self.lines += n

    def _check(self, device: np.ndarray, step: np.ndarray,
               time: np.ndarray) -> None:
        """Check the record rules on the next lines of the log, then carry
        each device's state past them and keep the lines asked for."""
        n = device.size
        if not n:
            return
        grow = len(self.ids) - self.last_step.size
        if grow > 0:
            self.last_step = np.append(self.last_step, np.full(grow, -1))
            self.last_time = np.append(self.last_time, np.zeros(grow))
            self.last_line = np.append(self.last_line, np.zeros(grow, np.int64))
            self.first_close = np.append(self.first_close,
                                         np.full(grow, _NEVER))
        lineno = np.arange(self.lines + 1, self.lines + n + 1)
        order = np.argsort(device, kind="stable")
        same = device[order[1:]] == device[order[:-1]]
        before = np.full(n, -1)
        before[order[1:][same]] = order[:-1][same]
        inner = before >= 0
        prev_step = np.where(inner, step[before], self.last_step[device])
        prev_time = np.where(inner, time[before], self.last_time[device])
        prev_line = np.where(inner, lineno[before], self.last_line[device])

        closes = step <= prev_step
        opens = closes | (prev_step < 0)
        truncated = closes & ~_ENDS_RECORD[prev_step]
        bad = truncated | (opens & (step != 0)) | (~opens & (time < prev_time))
        if bad.any():
            i = int(bad.argmax())
            device_id = self.ids[device[i]]
            if truncated[i]:
                raise ParseError(
                    f"record for {device_id} truncated at "
                    f"{AttachStep(int(prev_step[i])).name}", int(prev_line[i]))
            if opens[i]:
                raise ParseError(f"record for {device_id} starts at "
                                 f"{AttachStep(int(step[i])).name}", int(lineno[i]))
            raise ParseError(f"time went backwards for {device_id}",
                             int(lineno[i]))

        closing = np.flatnonzero(closes)
        closing = closing[self.first_close[device[closing]] == _NEVER]
        if closing.size:
            numbers, first = np.unique(device[closing], return_index=True)
            self.first_close[numbers] = lineno[closing[first]]
        final = order[np.append(~same, True)]
        self.last_step[device[final]] = step[final]
        self.last_time[device[final]] = time[final]
        self.last_line[device[final]] = lineno[final]
        kept = self.keep[step]
        self.kept.append((device[kept], step[kept], time[kept],
                          np.where(opens, math.nan, time - prev_time)[kept]))

    def finish(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
        """(ids, device, step, time, gap) of the kept lines in log order.

        ids are in parse_logs order: by the line their first record closes
        at, then the devices whose first record closes at the end of the
        log, by id; `device` indexes them.  gap is the time since the
        device's previous line, NaN where a record starts.
        """
        seen = sorted(np.flatnonzero(self.last_line > 0).tolist(),
                      key=self.ids.__getitem__)
        for number in seen:
            if not _ENDS_RECORD[self.last_step[number]]:
                raise ParseError(
                    f"record for {self.ids[number]} truncated at "
                    f"{AttachStep(int(self.last_step[number])).name}",
                    int(self.last_line[number]))
        seen.sort(key=self.first_close.__getitem__)
        rank = np.zeros(len(self.ids), np.int64)
        rank[seen] = np.arange(len(seen))
        device, step, time, gap = map(np.concatenate, zip(*self.kept))
        return [self.ids[number] for number in seen], rank[device], step, \
            time, gap


def _read_log(path: str | Path, keep) -> tuple[list[str], np.ndarray,
                                               np.ndarray, np.ndarray,
                                               np.ndarray]:
    """_LogReader.finish of the log at `path`, keeping the steps in `keep`.

    Lines end as in text mode: at a line feed, a carriage return or both,
    and the last line needs no line end.
    """
    reader = _LogReader(keep)
    pending: list[bytes] = []  # the log after its last line end, in pieces
    held = b""
    with Path(path).open("rb") as f:
        while True:
            chunk = f.read(_BLOCK_BYTES)
            data = held + chunk
            held = b"\r" if chunk and data.endswith(b"\r") else b""
            if held:  # maybe the first half of a \r\n
                data = data[:-1]
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            # only this chunk is searched, so a long line costs its length
            cut = data.rfind(b"\n") + 1
            if cut:
                reader.block(b"".join(pending) + data[:cut])
                pending = []
            pending.append(data[cut:])
            if not chunk:
                if any(pending):
                    reader.block(b"".join(pending) + b"\n")
                return reader.finish()


def _by_device(ids: list[str], device: np.ndarray, *columns: np.ndarray):
    """Per id, each column's values for it, in their order."""
    order = np.argsort(device, kind="stable")
    cuts = np.cumsum(np.bincount(device, minlength=len(ids)))[:-1]
    return zip(ids, *(np.split(column[order], cuts) for column in columns))


def parse_logs(path: str | Path) -> dict[str, list[AttachRecord]]:
    """Reconstruct per-device attach records from a JSONL signaling log.

    Fail-closed: any malformed line raises ParseError with its 1-based
    line number.  Records are split when the step index stops increasing;
    every record must begin with the first step of the sequence.
    """
    done: dict[str, list[AttachRecord]] = {}
    for device_id, steps, times in _by_device(*_read_log(path, AttachStep)[:4]):
        starts = np.flatnonzero(steps == 0)[1:]
        done[device_id] = records = []
        for seq, (codes, stamps) in enumerate(zip(np.split(steps, starts),
                                                  np.split(times, starts))):
            trace = [ATTACH_SEQUENCE[code] for code in codes.tolist()]
            records.append(AttachRecord(
                device_id=device_id, outcome=_OUTCOME_AFTER[trace[-1]],
                attach_seq=seq, messages=[
                    SignalingMessage(time=time, direction=step.direction,
                                     device_id=device_id, message=step.name)
                    for step, time in zip(trace, stamps.tolist())]))
    return done


def _step_latencies(path: str | Path, step: AttachStep
                    ) -> dict[str, list[float]]:
    """Per device, in parse_logs order, the latency of `step` in each record
    that has it: its time minus the time of the message before it."""
    ids, device, _, _, gap = _read_log(path, (step,))
    return {device_id: values[~np.isnan(values)].tolist()
            for device_id, values in _by_device(ids, device, gap)}


@dataclass(frozen=True)
class DetectionResult:
    verdicts: list[Verdict]
    skipped: list[str]
    flagged: bool
    csv_path: Path
    json_path: Path


def _fork_join(here, there):
    """`(here(), there())`, with `there` run in a forked child meanwhile.

    The child pickles its result or exception into a pipe and always leaves
    through os._exit. It is killed and reaped before this returns or raises,
    and an exception of `here` wins. Without os.fork both run inline.
    """
    if not hasattr(os, "fork"):
        return here(), there()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = True, there()
            except BaseException as exc:
                result = False, exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe, -1)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            mine = here()
            ok, theirs = pickle.load(pipe)
    finally:  # a child that has answered has nothing left to do
        os.kill(pid, 9)  # SIGKILL; the signal module takes 1 ms to import
        os.waitpid(pid, 0)
    if not ok:
        raise theirs
    return mine, theirs


def run_detection(logs_path: str | Path, baseline_path: str | Path,
                  policy: DetectPolicy, report_path: str | Path
                  ) -> DetectionResult:
    """Score every device in the logs against the baseline population.

    Each log is read once, keeping only each device's authentication
    latencies. The baseline log is read in a forked child while this
    process reads the test log; an error in the test log wins.
    """
    auth = AttachStep.AuthenticationResponse
    device_latencies, baseline_latencies = _fork_join(
        lambda: _step_latencies(logs_path, auth),
        lambda: _step_latencies(baseline_path, auth))
    baseline_values = [value for values in baseline_latencies.values()
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
    json_path.write_text(json.dumps(payload, indent=2, allow_nan=False)
                         + "\n")


def emit_distribution(logs_path: str | Path, step: AttachStep | str | int,
                      out_path: str | Path, bins: int = 60) -> Path:
    """Histogram of one step's latencies, as CSV points for plotting."""
    if bins < 1:
        raise ConfigError(f"bins must be at least 1, got {bins}")
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
