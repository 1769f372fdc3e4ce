"""The 11-message network-attachment sequence and its per-attach driver.

Message timing is additive: each step's latency is sampled, quantized to
the shared time lattice, and added to the clock before the message is
stamped.  Because every timestamp lives on the lattice, the per-step
latencies recovered downstream sum to the record span exactly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import aka
from .channel import SimChannel, auth_channel_elapsed
from .core import (
    ConfigError,
    EventClock,
    RngStream,
    clamped_normal,
    fmt_ms,
    quantize_ceil_ms,
    quantize_ms,
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
    layer: str = "NAS"

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
    # step; anything with sample(rng) -> float fits (see fleet.TransmissionModel).
    transmission: object | None = None

    def __post_init__(self):
        if self.auth_timer_ms <= 0:
            raise ConfigError("authentication timer must be positive")


def _sample_step_ms(rng: RngStream, mean: float, std: float) -> float:
    raw = clamped_normal(rng, mean, std, STEP_FLOOR_MS)
    q = quantize_ms(raw)
    return q if q >= _STEP_FLOOR_Q else _STEP_FLOOR_Q


def run_attach(profile: "DeviceProfile", channel: SimChannel,
               network: NetworkConfig, clock: EventClock, rng: RngStream,
               attach_seq: int = 0) -> AttachRecord:
    """Drive one attach procedure and return its message trace.

    Uplink latencies come from the device profile; the authentication
    response additionally carries the SIM-channel elapsed time (remote
    profiles derive it from the channel instead of the profile entry),
    the algorithm's processing cost, and the over-the-air component.
    Stochastic outcomes are encoded in the record, never raised.
    """
    if profile.channel_kind != channel.kind:
        raise ConfigError(
            f"profile {profile.name!r} expects channel kind "
            f"{profile.channel_kind!r}, got {channel.kind!r}")

    alg = profile.auth_alg
    k_net = profile.subscriber_key
    k_sim = profile.sim_side_key()

    messages: list[SignalingMessage] = []
    outcome = Outcome.Completed
    challenge: aka.AuthChallenge | None = None
    transfer_ms: float | None = None
    processing_ms: float | None = None

    def emit(step: AttachStep) -> None:
        messages.append(SignalingMessage(
            time=clock.now, direction=step.direction,
            device_id=profile.name if profile.device_id is None else profile.device_id,
            message=step.name))

    for step in profile.enabled_steps:
        if step == AttachStep.AttachRequest:
            emit(step)
            continue

        if step == AttachStep.AuthenticationResponse:
            assert challenge is not None, "sequence always contains step 3"
            answer = aka.compute_response(k_sim, challenge.rand, challenge.autn, alg)
            if isinstance(answer, aka.AuthFailure) or not aka.verify(
                    challenge.xres, answer.res):
                outcome = Outcome.AuthReject
                break
            if channel.is_remote:
                breakdown = auth_channel_elapsed(channel, rng)
                base = breakdown.total_ms
                transfer_ms = breakdown.transfer_total_ms
                processing_ms = breakdown.processing_total_ms
            else:
                mean, std = profile.step_latency[step]
                base = clamped_normal(rng, mean, std, STEP_FLOOR_MS)
            base += clamped_normal(rng, alg.latency_mean_ms, alg.latency_std_ms, 0.0)
            if network.transmission is not None:
                base += network.transmission.sample(rng)
            latency = quantize_ms(base)
            if latency < _STEP_FLOOR_Q:
                latency = _STEP_FLOOR_Q
            clock.advance(latency)
            emit(step)
            if latency > network.auth_timer_ms:
                outcome = Outcome.AuthTimeout
                break
            continue

        mean, std = profile.step_latency[step]
        clock.advance(_sample_step_ms(rng, mean, std))
        if step == AttachStep.AuthenticationRequest:
            challenge = aka.generate_challenge(k_net, rng, alg)
        emit(step)

    return AttachRecord(
        device_id=messages[0].device_id if messages else profile.name,
        messages=messages, outcome=outcome, attach_seq=attach_seq,
        auth_transfer_ms=transfer_ms, auth_processing_ms=processing_ms)


def validate_sequence(record: AttachRecord, profile: "DeviceProfile") -> ValidationReport:
    """Check a record against the sequence table and the profile's mask."""
    violations: list[str] = []
    steps: list[AttachStep] = []

    for i, msg in enumerate(record.messages):
        if msg.layer != "NAS":
            violations.append(f"LayerViolation: message {i} layer {msg.layer!r}")
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
