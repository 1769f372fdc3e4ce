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
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import groupby, product
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import forkjoin, logformat, monitor
from .aka import SubscriberKey, algorithm_named
from .channel import CHANNEL_KINDS, COUPLED_SERIAL, build_channel
from .core import (
    DECIMALS,
    TIME_LIMIT_MS,
    ConfigError,
    DataFileError,
    EmptyWindow,
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
from .logformat import LINE, OUTCOME_AFTER, TAIL_PIECES
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
    profile: str | DeviceProfile  # a builtin's name, or an inline profile
    count: int
    wrong_key: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("fleet entry count must be at least 1")
        if not isinstance(self.profile, (str, DeviceProfile)):
            # an inline profile's JSON object, held as the profile it gives
            object.__setattr__(self, "profile",
                               _parse_inline_profile(self.profile, "profile"))


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
    channels: Mapping = field(default_factory=dict)
    transmission: TransmissionModel = field(default_factory=TransmissionModel)
    # what run_scenario runs, built once here, where building checks it: the
    # entries' profiles, env, network, policy, and each profile name's relay
    _parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.fleet:
            raise ConfigError("fleet must not be empty")
        if self.attaches_per_device < 1:
            raise ConfigError("attaches_per_device must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        env = RadioEnvironment(self.rsrp_dbm)
        network = NetworkConfig(self.auth_timer_ms, self.transmission)
        policy = ReauthPolicy(self.attaches_per_device, self.min_spacing_ms)
        if not self.day_span_ms < TIME_LIMIT_MS:
            raise ConfigError(f"day_span_ms must be below "
                              f"{TIME_LIMIT_MS:.0f}, the timestamp limit")
        if not (self.attaches_per_device - 1) * self.min_spacing_ms \
                < self.day_span_ms:
            raise ConfigError(
                f"cannot place {self.attaches_per_device} attaches "
                f"{self.min_spacing_ms} ms apart in a {self.day_span_ms} ms "
                f"day_span_ms")
        profiles = _base_profiles(self.fleet)
        named = {p.name: p for p in profiles}.values()
        # a plain copy: replace() passes the frozen form back in
        channels = read_section(_copied(self.channels, dict), "channels",
                                dict.fromkeys(CHANNEL_KINDS, dict))
        if COUPLED_SERIAL in channels:
            raise ConfigError(
                f"channels {COUPLED_SERIAL}: takes no overrides; a coupled "
                f"profile's auth latency comes from its step table")
        used = {p.channel_kind for p in named}
        for kind, section in channels.items():  # the relays build the rest
            if kind not in used:
                build_channel(kind, **channel_overrides(kind, section,
                                                        f"channels {kind}"))
        relays = {p.name: channel_for(p, channels.get(p.channel_kind),
                                      calibrate=self.calibrate)
                  for p in named}
        # read-only: the relays are built, so an edit would go unrun
        object.__setattr__(self, "channels", _copied(channels,
                                                     MappingProxyType))
        object.__setattr__(self, "_parts", (profiles, env, network, policy, relays))

    def __reduce__(self):
        """Rebuilt from its fields, as replace() rebuilds it: the read-only
        channels neither pickle nor deep-copy."""
        kwargs = {**vars(self), "channels": _copied(self.channels, dict)}
        del kwargs["_parts"]
        return partial(ScenarioConfig, **kwargs), ()


def _copied(value, mapping):
    """`value` with each mapping in it, nested ones too, copied as a
    `mapping` (dict, or MappingProxyType for a read-only one)."""
    if isinstance(value, Mapping):
        return mapping({key: _copied(item, mapping)
                        for key, item in value.items()})
    return value


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
                  "transmission": dict}


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
    return DetectPolicy(**read_section(_read_json(path), str(path), {
        "critical": float, "statistic": str}))


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
        try:
            entries.append(FleetEntry(**entry))
        except ConfigError as exc:
            raise ConfigError(f"{ectx} {exc}") from None
    spec["fleet"] = tuple(entries)
    spec["transmission"] = TransmissionModel(**read_section(
        spec.get("transmission", {}), f"{ctx} transmission",
        _TRANSMISSION_SCHEMA))
    try:
        return ScenarioConfig(**spec)
    except DataFileError:
        raise
    except ConfigError as exc:
        raise ConfigError(f"{ctx} {exc}") from exc


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
        profile = entry.profile
        if isinstance(profile, str):
            if profile not in catalog:
                raise ConfigError(f"unknown profile {profile!r}; "
                                  f"builtin: {sorted(catalog)}")
            profile = catalog[profile]
        if seen.setdefault(profile.name, profile) != profile:
            raise ConfigError(f"fleet: two different profiles are named "
                              f"{profile.name!r}")
        out.append(profile)
    return out


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> ScenarioArtifacts:
    """Simulate the configured fleet and write logs, records, and summary."""
    profiles, env, network, policy, relays = config._parts
    root = RngStream(config.seed)

    # every device's arrays are laid out before any draw or device id,
    # and each fleet entry's are filled by whichever process runs the entry
    arrays = _shared_arrays(
        [(entry.count, policy.count, len(profile.enabled_steps))
         for entry, profile in zip(config.fleet, profiles)])
    ids: list[list[str]] = []  # per fleet entry
    per_model_count: dict[str, int] = {}
    for entry, profile in zip(config.fleet, profiles):
        first = per_model_count.get(profile.name, 0)
        per_model_count[profile.name] = first + entry.count
        ids.append([f"{profile.name}-{i:03d}"
                    for i in range(first, first + entry.count)])
    devices = [DeviceAttaches(device_id, profile.name, profile.enabled_steps,
                              **{name: array[i] for name, array in
                                 entry_arrays.items()})
               for profile, entry_ids, entry_arrays in zip(profiles, ids,
                                                           arrays)
               for i, device_id in enumerate(entry_ids)]

    def run_entry(e: int) -> None:
        entry, profile = config.fleet[e], profiles[e]
        if entry.wrong_key:
            profile = replace(profile, auth_misconfigured=True)
        first = sum(prior.count for prior in config.fleet[:e])
        rngs = [root.substream(i) for i in range(first, first + entry.count)]
        starts = schedule_devices(policy, (0.0, config.day_span_ms), rngs)
        if attempt_camp(profile, env) is CampDecision.Proceed:
            ran = run_devices(profile, relays[profile.name], network,
                              starts, rngs, ids[e])
        else:
            ran = [DeviceAttaches.refused(profile, policy.count, i)
                   for i in ids[e]]
        for field_name, out in arrays[e].items():
            np.stack([getattr(dev, field_name) for dev in ran], out=out)

    out = Path(out_dir)  # made only once every device has run
    logs_path = out / "logs.jsonl"
    records_path = out / "records.jsonl"
    summary_path = out / "summary.csv"
    chunks = -(-sum(dev.counts.size for dev in devices) // _RECORD_CHUNK)

    def rendered(back: bool):
        """The records chunks this process claims, rendered in claim order;
        it writes the summary and the log if it claims them."""
        out.mkdir(parents=True, exist_ok=True)
        render = None
        while (unit := claim(back)) is not None:
            if unit < chunks:
                render = render or _record_renderer(devices)
                yield render(unit)
            elif unit == chunks:
                _write_summary(summary_path, devices, list(per_model_count))
            else:
                _write_logs(logs_path, devices)

    # the two processes first share the fleet entries, then the writers'
    # units in file order: the records chunks, the summary, the log; the
    # child claims from the front, this process from the back and holds
    # its chunks, in file order, until the child has succeeded
    with forkjoin.Claims(chunks + 2) as claim:
        tail, _ = forkjoin.fork_join(
            lambda: list(rendered(True))[::-1],
            lambda: _write_records(records_path, rendered(False)),
            units=[partial(run_entry, e) for e in range(len(config.fleet))])
    with records_path.open("ab") as f:
        f.writelines(tail)
    return ScenarioArtifacts(out_dir=out, logs_path=logs_path,
                             records_path=records_path,
                             summary_path=summary_path, devices=tuple(devices))


# DeviceAttaches' arrays, with their dtypes, as _shared_arrays lays out
# each fleet entry's: `times` is (devices, attaches, steps), the rest
# (devices, attaches); the byte-wide one last, so each starts aligned
_SHARED_FIELDS = (("times", "f8"), ("counts", "i8"), ("transfer_ms", "f8"),
                  ("processing_ms", "f8"), ("outcomes", "i1"))


def _shared_arrays(shapes: list[tuple[int, int, int]]
                   ) -> list[dict[str, np.ndarray]]:
    """Per fleet entry shape (devices, attaches, steps), the entry's
    _SHARED_FIELDS arrays, all zero-filled views of one anonymous shared
    mapping: what a forked child writes to them its parent reads."""
    import mmap  # only simulate maps memory; detect's import stays as is

    layout, size = [], 0
    for d, n, k in shapes:
        fields = {}
        for name, dtype in _SHARED_FIELDS:
            shape = (d, n, k) if name == "times" else (d, n)
            fields[name] = dtype, shape, size
            size += -(-math.prod(shape) * np.dtype(dtype).itemsize // 8) * 8
        layout.append(fields)
    try:
        buffer = mmap.mmap(-1, size)
    except (OverflowError, OSError) as exc:
        raise ConfigError(f"fleet: cannot map its {size} bytes ({exc})") from None

    def view(dtype, shape, offset) -> np.ndarray:
        return np.frombuffer(buffer, dtype, math.prod(shape),
                             offset).reshape(shape)

    return [{name: view(*spec) for name, spec in fields.items()}
            for fields in layout]


_LOG_CHUNK = 4096  # lines per write
# records rows per write: a chunk's byte matrix is about 0.8 MB, and it
# and the mask that drops its NULs stay small next to the fleet's arrays
_RECORD_CHUNK = 1024


def _write_logs(path: Path, devices: list[DeviceAttaches]) -> None:
    """Every message, sorted by (time, device_id, step), written a chunk of
    lines at a time.  Each line is logformat.LINE of its time, rendered
    from its lattice ticks as `fmt_ms` would, and a precomputed tail per
    (device, step); a chunk is one bytes format call.  Devices sorted by
    id are taken a run of devices with the same steps at a time."""
    ranked = sorted(devices, key=lambda dev: dev.device_id)
    runs = [list(run) for _, run in groupby(ranked, key=lambda dev: dev.steps)]
    sents = [np.arange(len(run[0].steps))
             < np.stack([dev.counts for dev in run])[..., None] for run in runs]
    time = np.empty(sum(np.count_nonzero(sent) for sent in sents))
    key = np.empty(time.size, np.int64)
    tails: list[bytes] = []  # by key: (device, step) in rank and step order
    lo = 0
    for run, sent in zip(runs, sents):
        pieces = [TAIL_PIECES[step] for step in run[0].steps]
        hi = lo + np.count_nonzero(sent)
        time[lo:hi] = np.stack([dev.times for dev in run])[sent]
        codes = len(tails) + np.arange(len(run) * len(pieces))
        key[lo:hi] = np.broadcast_to(codes.reshape(len(run), 1, -1),
                                     sent.shape)[sent]
        for dev in run:  # ids are ASCII: json.dumps escapes the rest
            quoted = json.dumps(dev.device_id).encode()
            tails += [head + quoted + end for head, end in pieces]
        lo = hi
    tails = np.array(tails, dtype=object)
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
            f.write(LINE * chunk.size % tuple(args.ravel()))


def _write_records(path: Path, chunks) -> None:
    """Write the rendered chunks of records.jsonl that `chunks` yields, in
    turn (see _record_renderer), into `path`, truncated.  The file is
    opened once the first chunk is rendered: its buffer, made before the
    renderer's arrays, cost a forked phone-fleet child 15k more page faults."""
    chunks = iter(chunks)
    first = next(chunks, b"")
    with path.open("wb") as f:
        f.write(first)
        f.writelines(chunks)


def _record_renderer(devices: list[DeviceAttaches]):
    """`render(i)`: the bytes of records.jsonl's chunk i, rows
    [i * _RECORD_CHUNK, (i + 1) * _RECORD_CHUNK).  One JSON row per
    attach, devices sorted by id, as json.dumps writes it: floats by repr,
    a missing value as null.

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

    def render(i: int) -> np.ndarray:
        chunk = slice(i * _RECORD_CHUNK, (i + 1) * _RECORD_CHUNK)
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

    return render


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

    lines = ["step,message,direction,"
             + ",".join(map(_csv_field, model_order))]
    for step in ATTACH_SEQUENCE:
        lines.append(f"{step.value},{step.name},{step.direction},"
                     + ",".join(column.get(step, "/") for column in columns))
    lines.append("-,Total,-," + ",".join(totals))
    path.write_text("\n".join(lines) + "\n")




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
    for device_id, steps, times in _by_device(
            *logformat.read_logs([path], AttachStep)[0][:4]):
        starts = np.flatnonzero(steps == 0)[1:]
        done[device_id] = records = []
        for seq, (codes, stamps) in enumerate(zip(np.split(steps, starts),
                                                  np.split(times, starts))):
            trace = [ATTACH_SEQUENCE[code] for code in codes.tolist()]
            records.append(AttachRecord(
                device_id=device_id, outcome=OUTCOME_AFTER[trace[-1]],
                attach_seq=seq, messages=[
                    SignalingMessage(time=time, direction=step.direction,
                                     device_id=device_id, message=step.name)
                    for step, time in zip(trace, stamps.tolist())]))
    return done


def _refuse_overwrite(outs, *logs) -> None:
    """ConfigError if an output path is the same file as an input log."""
    for out, log in product(outs, logs):
        if os.path.exists(out) and os.path.exists(log) \
                and os.path.samefile(out, log):
            raise ConfigError(f"{out}: would overwrite the input log {log}")


def _csv_field(text: str) -> str:
    """`text` as a csv.QUOTE_MINIMAL field, with no csv import."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


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
    latencies: this process and a forked child share the units of both
    logs (logformat.read_logs), and an error in the test log wins.  The JSON
    report goes beside the CSV one, so `report_path` must not end in .json,
    and neither report may be an input log.
    """
    report_path = Path(report_path)
    if not report_path.name:  # "", "." or "/": no file name to write
        raise ConfigError(f"report {str(report_path)!r}: not a file path")
    json_path = report_path.with_suffix(".json")
    if json_path == report_path:
        raise ConfigError(f"report {report_path}: a .json path is the "
                          f"JSON report's; give the CSV report another")
    _refuse_overwrite((report_path, json_path), logs_path, baseline_path)
    auth = AttachStep.AuthenticationResponse
    (ids, device, _, _, gap), (_, pooled, _, _, pool) = logformat.read_logs(
        [logs_path, baseline_path], (auth,))
    pool = pool[np.argsort(pooled, kind="stable")]  # by device, in log order
    pool = pool[~np.isnan(pool)]
    if not pool.size:
        raise EmptyWindow("baseline logs contain no authentication samples")
    baseline = monitor.LatencyStats.from_samples(pool)

    # each device's samples in log order, then the stats of the devices
    # with n samples from one (devices, n) array
    sampled = ~np.isnan(gap)
    device, gap = device[sampled], gap[sampled]
    samples = gap[np.argsort(device, kind="stable")]
    counts = np.bincount(device, minlength=len(ids))
    starts = np.cumsum(counts) - counts
    fields = {}
    sizes = np.flatnonzero(np.bincount(counts))  # np.unique imports numpy.ma
    for n in sizes[sizes > 1].tolist():
        chosen = np.flatnonzero(counts == n)
        fields.update(zip(chosen.tolist(), monitor.LatencyStats.row_fields(
            samples[starts[chosen, None] + np.arange(n)])))

    verdicts: list[Verdict] = []
    skipped: list[str] = []
    for number in sorted(range(len(ids)), key=ids.__getitem__):
        if number not in fields:
            skipped.append(ids[number])
            continue
        stats = monitor.LatencyStats(*fields[number])
        verdicts.append(classify(stats, baseline, policy,
                                 device_id=ids[number]))

    _write_detection_reports(report_path, json_path, verdicts, skipped,
                             baseline, policy)
    flagged = any(v.decision is monitor.Decision.Flagged for v in verdicts)
    return DetectionResult(verdicts=verdicts, skipped=skipped, flagged=flagged,
                           csv_path=report_path, json_path=json_path)


def _write_detection_reports(csv_path: Path, json_path: Path,
                             verdicts: list[Verdict], skipped: list[str],
                             baseline: monitor.LatencyStats,
                             policy: DetectPolicy) -> None:
    lines = ["device_id,n,mean,std,median,t,p,decision"]
    for v in verdicts:
        stat = v.ttest.t if policy.statistic == "double" else v.ttest.t_welch
        lines.append(
            f"{_csv_field(v.device_id)},{v.stats.n},{v.stats.mean:.3f},"
            f"{v.stats.std:.3f},{v.stats.median:.3f},{stat:.4f},"
            f"{v.ttest.p_value:.3e},{v.decision.value}")
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
    _refuse_overwrite((out_path,), logs_path)
    if isinstance(step, str):
        step = step_named(step)
    elif isinstance(step, int):
        step = AttachStep(step)
    gap = logformat.read_logs([logs_path], (step,))[0][4]
    values = gap[~np.isnan(gap)]  # in log order: no count depends on it
    if not values.size:
        raise EmptyWindow(f"no samples for step {step.name}")
    counts, edges = np.histogram(values, bins=bins)
    total = float(values.size)
    lines = ["bin_low,bin_high,count,density"]
    for i, count in enumerate(counts):
        width = edges[i + 1] - edges[i]
        density = count / (total * width) if width > 0 else 0.0
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(count)},"
                     f"{density:.8g}")
    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path
