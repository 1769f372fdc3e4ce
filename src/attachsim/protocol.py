"""The 11-message network-attachment sequence and its per-device driver.

Message timing is additive: each step's latency is sampled and quantized
to the shared time lattice, and a message is stamped at the attach start
plus the latencies up to its step.  Because every timestamp lives on the
lattice, the per-step latencies recovered downstream sum to the record
span exactly.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import aka
from .channel import COUPLED_SERIAL, SimChannel, auth_channel_batch
from .core import (
    TIME_LIMIT_MS,
    TIME_QUANTUM_MS,
    ConfigError,
    EventClock,
    RngStream,
    fmt_ms,
    quantize_ceil_ms,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .fleet import DeviceProfile

UPLINK = "Uplink"
DOWNLINK = "Downlink"

# Sampled step latencies never drop below 0.1 ms (rounded up to the lattice).
STEP_FLOOR_MS = 0.1
_STEP_FLOOR_Q = quantize_ceil_ms(STEP_FLOOR_MS)


class AttachStep(enum.IntEnum):
    """Steps of the attach sequence; even indices go uplink, odd downlink.

    Member names double as the on-the-wire message labels.
    """

    AttachRequest = 0
    IdentityRequest = 1
    IdentityResponse = 2
    AuthenticationRequest = 3
    AuthenticationResponse = 4
    SecurityModeCommand = 5
    SecurityModeComplete = 6
    EsmInfoRequest = 7
    EsmInfoResponse = 8
    AttachAccept = 9
    AttachComplete = 10

    @property
    def direction(self) -> str:
        return UPLINK if self.value % 2 == 0 else DOWNLINK


ATTACH_SEQUENCE: tuple[AttachStep, ...] = tuple(AttachStep)
OPTIONAL_STEPS: frozenset[AttachStep] = frozenset({
    AttachStep.IdentityRequest,
    AttachStep.IdentityResponse,
    AttachStep.EsmInfoRequest,
    AttachStep.EsmInfoResponse,
})


def step_named(name: str) -> AttachStep:
    try:
        return AttachStep[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown attach step {name!r}") from None


class Outcome(enum.Enum):
    Completed = "Completed"
    AuthTimeout = "AuthTimeout"
    CampRefused = "CampRefused"
    AuthReject = "AuthReject"


@dataclass(frozen=True)
class SignalingMessage:
    """One NAS-layer log line as seen at the base station."""

    time: float
    direction: str
    device_id: str
    message: str
    layer: ClassVar[str] = "NAS"

    @property
    def step(self) -> AttachStep:
        return step_named(self.message)

    def to_json_line(self) -> str:
        # key set and order mirror the capture schema exactly
        return (f'{{"time": {fmt_ms(self.time)}, "layer": {json.dumps(self.layer)}, '
                f'"direction": {json.dumps(self.direction)}, '
                f'"device_id": {json.dumps(self.device_id)}, '
                f'"message": {json.dumps(self.message)}}}')


@dataclass
class AttachRecord:
    """Ordered message trace of one attach procedure."""

    device_id: str
    messages: list[SignalingMessage]
    outcome: Outcome
    attach_seq: int = 0
    # channel diagnostics for the authentication step (remote channels only)
    auth_transfer_ms: float | None = None
    auth_processing_ms: float | None = None

    @property
    def span_ms(self) -> float:
        if not self.messages:
            return 0.0
        return self.messages[-1].time - self.messages[0].time

    @property
    def steps(self) -> list[AttachStep]:
        return [m.step for m in self.messages]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class NetworkConfig:
    """Network-side knobs for one scenario."""

    auth_timer_ms: float = 6000.0  # authentication supervision timer
    # RSRP-independent over-the-air component added to the authentication
    # step; anything with draw(gen, n) -> array of n delays fits (see
    # fleet.TransmissionModel).
    transmission: object | None = None

    def __post_init__(self):
        if self.auth_timer_ms <= 0:
            raise ConfigError("authentication timer must be positive")


_LABELS = {step: (step.direction, step.name) for step in AttachStep}
# codes of DeviceAttaches.outcomes
OUTCOMES: tuple[Outcome, ...] = tuple(Outcome)
_COMPLETED, _TIMEOUT, _REFUSED, _REJECT = (
    OUTCOMES.index(o) for o in (Outcome.Completed, Outcome.AuthTimeout,
                                Outcome.CampRefused, Outcome.AuthReject))


@dataclass(frozen=True, eq=False)
class DeviceAttaches:
    """One device's attaches as arrays, one row per attach.

    `times` holds the lattice timestamp of every enabled step, one column
    per entry of `steps`; attach i sent the first `counts[i]` of them (0:
    the device never camped).  `outcomes` indexes OUTCOMES.  The remote
    channel's transfer and processing totals of the authentication step
    are NaN where the attach has none.
    """

    device_id: str
    model: str
    steps: tuple[AttachStep, ...]
    times: np.ndarray
    counts: np.ndarray
    outcomes: np.ndarray
    transfer_ms: np.ndarray
    processing_ms: np.ndarray

    @classmethod
    def refused(cls, profile: "DeviceProfile", n: int, device_id: str
                ) -> "DeviceAttaches":
        """`n` attaches of a device that never camps."""
        nan = np.full(n, np.nan)
        return cls(device_id, profile.name, profile.enabled_steps,
                   np.zeros((n, len(profile.enabled_steps))),
                   np.zeros(n, dtype=np.int64),
                   np.full(n, _REFUSED, dtype=np.int8), nan, nan)

    def records(self) -> list[AttachRecord]:
        """The attaches as AttachRecord message traces."""
        device_id = self.device_id
        labels = [_LABELS[step] for step in self.steps]
        out = []
        for seq, (row, count, code, transfer, processing) in enumerate(zip(
                self.times.tolist(), self.counts.tolist(),
                self.outcomes.tolist(), self.transfer_ms.tolist(),
                self.processing_ms.tolist())):
            out.append(AttachRecord(
                device_id=device_id,
                messages=[SignalingMessage(time, direction, device_id, name)
                          for time, (direction, name) in zip(row[:count],
                                                             labels)],
                outcome=OUTCOMES[code], attach_seq=seq,
                auth_transfer_ms=None if math.isnan(transfer) else transfer,
                auth_processing_ms=None if math.isnan(processing)
                else processing))
        return out


def _lattice(values: np.ndarray) -> np.ndarray:
    """quantize_ms on an array (np.rint also rounds half to even)."""
    return np.rint(values * 1024.0) / 1024.0


def run_devices(profile: "DeviceProfile", channel: SimChannel | None,
                network: NetworkConfig, starts, rngs, device_ids
                ) -> list[DeviceAttaches]:
    """Drive the attach procedures of devices sharing one profile: device
    i runs one attach per start time (ms) in row i of `starts`, draws
    from rngs[i] and is named device_ids[i].  A coupled profile has no
    relay: its `channel` is None.

    Step latencies come from the device profile: one standard-normal
    matrix (attaches x steps), floored at 0.1 ms and put on the lattice.
    The authentication response additionally carries the relay's
    elapsed time (remote profiles draw it from the relay, one row per
    attach that passes AKA, instead of the profile entry), the
    algorithm's processing cost and the over-the-air component.  Every
    attach runs the AKA check on its own challenge, all of them as one
    block; a failed check ends it at the authentication request, an auth
    latency above the network timer at the response.  A device runs one
    attach at a time: one that would start at or before the previous
    one's last message starts one lattice quantum after it instead.
    Stochastic outcomes are encoded in the result, never raised; a
    timestamp at or past TIME_LIMIT_MS is a ConfigError naming the first
    such device.  Only the draws run per device, each in one order
    whatever the batch; the arithmetic runs on (devices, attaches, steps)
    arrays, and each result is a row view of them.
    """
    kind = COUPLED_SERIAL if channel is None else channel.kind
    if profile.channel_kind != kind:
        raise ConfigError(
            f"profile {profile.name!r} expects channel kind "
            f"{profile.channel_kind!r}, got {kind!r}")
    steps = profile.enabled_steps
    begin = _lattice(np.asarray(starts, dtype=float))
    d, n, k = len(rngs), begin.shape[1], len(steps)
    request = steps.index(AttachStep.AuthenticationRequest)
    auth = steps.index(AttachStep.AuthenticationResponse)
    alg = profile.auth_alg

    normals = np.empty((d, n, k))
    cost = np.empty((d, n))
    over_air = 0.0 if network.transmission is None else np.empty((d, n))
    rands = []
    for i, gen in enumerate(rng.gen for rng in rngs):
        gen.standard_normal((n, k), out=normals[i])
        gen.standard_normal(n, out=cost[i])
        if network.transmission is not None:
            over_air[i] = network.transmission.draw(gen, n)
        rands.append(gen.bytes(aka.KEY_LEN * n))
    passed = aka.authenticate(profile.subscriber_key, profile.sim_side_key(),
                              b"".join(rands), alg).reshape(d, n)

    moments = profile.step_moments
    raw = np.maximum(moments[:, 0] + moments[:, 1] * normals, STEP_FLOOR_MS)
    auth_ms = raw[..., auth]
    transfer = np.full((d, n), np.nan)
    processing = transfer.copy()
    if channel is not None:  # row-major: device i's passed attaches in turn
        transfer[passed], processing[passed] = auth_channel_batch(
            channel, [rng.gen for rng in rngs], passed.sum(axis=1).tolist())
        np.copyto(auth_ms, transfer + processing, where=passed)
    auth_ms += np.maximum(alg.latency_mean_ms + alg.latency_std_ms * cost,
                          0.0)
    auth_ms += over_air
    latency = np.maximum(_lattice(raw), _STEP_FLOOR_Q)
    latency[..., 0] = 0.0  # AttachRequest opens the attach at its start

    timed_out = passed & (latency[..., auth] > network.auth_timer_ms)
    counts = np.where(passed, np.where(timed_out, auth + 1, k), request + 1)
    outcomes = np.where(passed, np.where(timed_out, _TIMEOUT, _COMPLETED),
                        _REJECT).astype(np.int8)

    # offsets from the attach start; sums of lattice values are exact
    offsets = np.add.accumulate(latency, axis=2)
    spans = offsets.reshape(d * n, k)[np.arange(d * n),
                                      counts.ravel() - 1].reshape(d, n)
    # b'_i = max(b_i, b'_(i-1) + span_(i-1) + quantum) is S + cummax(b - S),
    # S the running sum of span + quantum; exact below the limit, and by
    # monotone rounding `last` reaches it exactly when a message does
    shift = np.zeros((d, n))
    np.add.accumulate(spans[:, :-1] + TIME_QUANTUM_MS, axis=1,
                      out=shift[:, 1:])
    begin = shift + np.maximum.accumulate(begin - shift, axis=1)
    last = begin[:, -1:] + spans[:, -1:]  # each device's latest message
    if not np.maximum.reduce(last, None, initial=-np.inf) < TIME_LIMIT_MS:
        first = np.flatnonzero(~(last < TIME_LIMIT_MS))[0]
        raise ConfigError(
            f"{device_ids[first]}: a message at {last[first, 0]} ms "
            f"reaches the {TIME_LIMIT_MS:.0f} ms timestamp limit")
    times = begin[..., None] + offsets
    return [DeviceAttaches(device_id, profile.name, steps, times[i],
                           counts[i], outcomes[i], transfer[i], processing[i])
            for i, device_id in enumerate(device_ids)]


def run_attaches(profile: "DeviceProfile", channel: SimChannel | None,
                 network: NetworkConfig, starts, rng: RngStream
                 ) -> DeviceAttaches:
    """run_devices for one device, named as its profile says."""
    name = profile.name if profile.device_id is None else profile.device_id
    return run_devices(profile, channel, network, [starts], [rng], [name])[0]


def run_attach(profile: "DeviceProfile", channel: SimChannel | None,
               network: NetworkConfig, clock: EventClock, rng: RngStream,
               attach_seq: int = 0) -> AttachRecord:
    """Drive one attach procedure from the clock's time and return its
    message trace: run_attaches for one start.  The clock ends at the
    last message."""
    record = run_attaches(profile, channel, network, [clock.now],
                          rng).records()[0]
    record.attach_seq = attach_seq
    clock.advance(record.messages[-1].time - clock.now)
    return record


def validate_sequence(record: AttachRecord, profile: "DeviceProfile") -> ValidationReport:
    """Check a record against the sequence table and the profile's mask."""
    violations: list[str] = []
    steps: list[AttachStep] = []

    for i, msg in enumerate(record.messages):
        if msg.device_id != record.device_id:
            violations.append(f"DeviceMismatch: message {i} from {msg.device_id!r}")
        try:
            step = step_named(msg.message)
        except ConfigError:
            violations.append(f"UnknownMessage: {msg.message!r}")
            continue
        if msg.direction != step.direction:
            violations.append(
                f"DirectionViolation: {step.name} marked {msg.direction}")
        steps.append(step)

    for prev, cur, pm, cm in zip(steps, steps[1:], record.messages, record.messages[1:]):
        if cur == prev:
            violations.append(f"DuplicateStep: {cur.name}")
        elif cur < prev:
            violations.append(f"OrderViolation: {cur.name} after {prev.name}")
        if cm.time < pm.time:
            violations.append(f"TimeViolation: {cur.name} at {cm.time} "
                              f"before {pm.time}")

    enabled = tuple(profile.enabled_steps)
    present = set(steps)
    for step in present & OPTIONAL_STEPS:
        if step not in profile.optional_steps:
            violations.append(f"OptionalStepViolation: {step.name} disabled "
                              f"for {profile.name}")

    if record.outcome == Outcome.Completed:
        for step in enabled:
            if step not in present:
                violations.append(f"MissingStep: {step.name}")
    elif record.outcome == Outcome.CampRefused:
        if record.messages:
            violations.append("UnexpectedMessage: refused device sent messages")
    else:
        # partial outcomes must be a prefix of the enabled sequence
        if tuple(steps) != enabled[:len(steps)]:
            violations.append("MissingStep: partial record is not a sequence prefix")

    return ValidationReport(ok=not violations, violations=violations)
