"""ME-to-SIM transport models for the authentication phase.

Three transports produce the elapsed time a SIM interaction adds to the
authentication step: a coupled serial link (SIM in the device), and two
decoupled IP relays through a control server, one reliable-ordered
(TCP-like) and one datagram with loss and retransmission (UDP-like).

Remote elapsed time decomposes into transfer time (round trips on the
relay path) plus processing time at the relay endpoints; both parts are
reported separately so the transfer lower bound can be checked exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ConfigError, RngStream, clamped_normal

COUPLED_SERIAL = "coupled_serial"
REMOTE_TCP = "remote_tcp"
REMOTE_UDP = "remote_udp"
CHANNEL_KINDS = (COUPLED_SERIAL, REMOTE_TCP, REMOTE_UDP)

# Processing samples never drop below this; sub-millisecond endpoint
# processing is below the log timestamp resolution being modeled.
PROCESSING_FLOOR_MS = 1.0
# The serial link floor is much lower: single transfers are ~0.1 ms.
SERIAL_FLOOR_MS = 0.01


@dataclass(frozen=True, eq=False)
class RttDistribution:
    """Per-hop round-trip time model: constant, lognormal, or empirical."""

    kind: str
    median_ms: float
    sigma: float = 0.0
    samples: np.ndarray | None = None
    checksum: str | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "lognormal", "empirical"):
            raise ConfigError(f"unknown rtt kind {self.kind!r}")
        if self.median_ms < 0 or self.sigma < 0:
            raise ConfigError("rtt median and sigma must be non-negative")
        if self.kind == "empirical":
            if self.samples is None or len(self.samples) == 0:
                raise ConfigError("empirical rtt needs at least one sample")
            if float(np.min(self.samples)) < 0:
                raise ConfigError("empirical rtt samples must be non-negative")

    @classmethod
    def constant(cls, value_ms: float) -> "RttDistribution":
        return cls(kind="constant", median_ms=float(value_ms))

    @classmethod
    def lognormal(cls, median_ms: float, sigma: float = 0.35) -> "RttDistribution":
        return cls(kind="lognormal", median_ms=float(median_ms), sigma=float(sigma))

    @classmethod
    def empirical(cls, samples, checksum: str | None = None) -> "RttDistribution":
        arr = np.asarray(list(samples), dtype=float)
        median = float(np.median(arr)) if arr.size else 0.0
        return cls(kind="empirical", median_ms=median, samples=arr, checksum=checksum)

    @classmethod
    def from_file(cls, path: str | Path) -> "RttDistribution":
        """One decimal milliseconds value per line, plain ASCII text.

        Fail-closed: a line that is not ASCII, or holds anything but
        finite numbers, raises ConfigError naming the file and the
        1-based line.
        """
        raw = Path(path).read_bytes()
        values = []
        for lineno, line in enumerate(raw.split(b"\n"), start=1):
            try:
                tokens = line.decode("ascii").split()
            except UnicodeDecodeError:
                raise ConfigError(f"{path} line {lineno}: not ASCII text") from None
            for token in tokens:
                try:
                    value = float(token)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ConfigError(f"{path} line {lineno}: expected a finite "
                                      f"number, got {token!r:.40}")
                values.append(value)
        return cls.empirical(values, checksum=hashlib.sha256(raw).hexdigest())

    def sample(self, rng: RngStream) -> float:
        if self.kind == "constant":
            return self.median_ms
        if self.kind == "lognormal":
            return self.median_ms * float(np.exp(rng.normal(0.0, self.sigma)))
        idx = rng.integers(0, len(self.samples))
        return float(self.samples[idx])


_BUILTIN_RTT: RttDistribution | None = None


def builtin_remote_rtt() -> RttDistribution:
    """Packaged 1000-sample relay-path RTT distribution (median 57.4 ms)."""
    global _BUILTIN_RTT
    if _BUILTIN_RTT is None:
        ref = resources.files("attachsim").joinpath("data/rtt_remote_ms.txt")
        with resources.as_file(ref) as path:
            _BUILTIN_RTT = RttDistribution.from_file(path)
    return _BUILTIN_RTT


@dataclass(frozen=True)
class ProcessingPhase:
    """One endpoint processing interval during authentication."""

    site: str  # SimBank, Gateway, SimCard, Me
    mean_ms: float
    std_ms: float

    def __post_init__(self):
        if self.site not in ("SimBank", "Gateway", "SimCard", "Me"):
            raise ConfigError(f"unknown processing site {self.site!r}")
        if self.mean_ms < 0 or self.std_ms < 0:
            raise ConfigError("processing phase moments must be non-negative")


@dataclass(frozen=True)
class OnlinePenalty:
    """Extra relay latency when the SIM host connects through an online
    rental service rather than directly."""

    enabled: bool = False
    mean_ms: float = 460.0
    std_ms: float = 60.0

    def __post_init__(self):
        if self.mean_ms < 0 or self.std_ms < 0:
            raise ConfigError("online penalty moments must be non-negative")

    def sample(self, rng: RngStream) -> float:
        if not self.enabled:
            return 0.0
        return clamped_normal(rng, self.mean_ms, self.std_ms, 0.0)


@dataclass(frozen=True)
class ChannelBreakdown:
    transfer_total_ms: float
    processing_total_ms: float

    @property
    def total_ms(self) -> float:
        return self.transfer_total_ms + self.processing_total_ms


@dataclass(frozen=True)
class SimChannel:
    kind: str
    rtt: RttDistribution
    sessions_auth: int
    packets_per_session: int = 4
    extra_attach_complete_packets: int = 0
    handshake_packets: int = 0          # TCP-like setup, counted once per attach
    ack_cost_ms: float = 0.0            # per-packet cost on reliable transports
    loss_prob: float = 0.0              # datagram transports only
    retransmit_timeout_ms: float = 200.0
    backoff_factor: float = 2.0
    backoff_cap: float = 8.0            # timeout multiplier never exceeds this
    serial_mean_ms: float = 0.12        # coupled single-transfer moments
    serial_std_ms: float = 0.15
    processing_phases: tuple[ProcessingPhase, ...] = ()
    online: OnlinePenalty = field(default_factory=OnlinePenalty)

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.loss_prob < 1.0:
            # at 1.0 no packet is ever delivered, so a session never ends
            raise ConfigError("loss_prob must be within [0, 1)")
        if self.sessions_auth < 0 or self.packets_per_session < 0:
            raise ConfigError("session and packet counts must be non-negative")
        if self.retransmit_timeout_ms <= 0:
            raise ConfigError("retransmit timeout must be positive")

    @property
    def is_remote(self) -> bool:
        return self.kind in (REMOTE_TCP, REMOTE_UDP)

    @property
    def auth_packet_count(self) -> int:
        return self.sessions_auth * self.packets_per_session + self.handshake_packets


def coupled_serial(serial_mean_ms: float = 0.12, serial_std_ms: float = 0.15,
                   sessions_auth: int = 4,
                   processing_phases: tuple[ProcessingPhase, ...] | None = None,
                   ) -> SimChannel:
    """Serial link to an inserted SIM: four standard transfers per auth."""
    if processing_phases is None:
        processing_phases = (
            ProcessingPhase("SimCard", 15.6, 14.5),
            ProcessingPhase("SimCard", 15.6, 14.5),
            ProcessingPhase("Me", 9.4, 10.8),
            ProcessingPhase("Me", 9.4, 10.8),
            ProcessingPhase("Me", 9.4, 10.8),
        )
    return SimChannel(
        kind=COUPLED_SERIAL,
        rtt=RttDistribution.constant(0.0),
        sessions_auth=sessions_auth,
        packets_per_session=1,
        serial_mean_ms=serial_mean_ms,
        serial_std_ms=serial_std_ms,
        processing_phases=processing_phases,
    )


def remote_tcp(rtt: RttDistribution | None = None, sessions_auth: int = 15,
               packets_per_session: int = 4, ack_cost_ms: float = 0.075,
               online: OnlinePenalty | None = None,
               processing_phases: tuple[ProcessingPhase, ...] | None = None,
               ) -> SimChannel:
    """Reliable-ordered relay: 15 four-packet sessions plus a 3-packet
    handshake gives 63 packets during authentication, 4 more at attach
    complete."""
    if processing_phases is None:
        processing_phases = (
            tuple(ProcessingPhase("SimBank", 218.0, 8.0) for _ in range(8))
            + tuple(ProcessingPhase("Gateway", 211.0, 6.0) for _ in range(6))
        )
    channel = SimChannel(
        kind=REMOTE_TCP,
        rtt=rtt if rtt is not None else builtin_remote_rtt(),
        sessions_auth=sessions_auth,
        packets_per_session=packets_per_session,
        extra_attach_complete_packets=4,
        handshake_packets=3,
        ack_cost_ms=ack_cost_ms,
        processing_phases=processing_phases,
    )
    if online is not None:
        channel = replace(channel, online=online)
    return channel


def remote_udp(rtt: RttDistribution | None = None, sessions_auth: int = 9,
               packets_per_session: int = 4, loss_prob: float = 0.02,
               retransmit_timeout_ms: float = 200.0,
               online: OnlinePenalty | None = None,
               processing_phases: tuple[ProcessingPhase, ...] | None = None,
               ) -> SimChannel:
    """Datagram relay: 36 packets during authentication, 2 at attach
    complete; lost packets are retransmitted after a timeout that backs
    off exponentially (factor 2, capped at 8x)."""
    if processing_phases is None:
        processing_phases = (
            tuple(ProcessingPhase("SimBank", 236.1, 116.3) for _ in range(6))
            + tuple(ProcessingPhase("Gateway", 139.3, 73.6) for _ in range(6))
        )
    channel = SimChannel(
        kind=REMOTE_UDP,
        rtt=rtt if rtt is not None else builtin_remote_rtt(),
        sessions_auth=sessions_auth,
        packets_per_session=packets_per_session,
        extra_attach_complete_packets=2,
        loss_prob=loss_prob,
        retransmit_timeout_ms=retransmit_timeout_ms,
        processing_phases=processing_phases,
    )
    if online is not None:
        channel = replace(channel, online=online)
    return channel


def build_channel(kind: str, **kwargs) -> SimChannel:
    if kind == COUPLED_SERIAL:
        return coupled_serial(**kwargs)
    if kind == REMOTE_TCP:
        return remote_tcp(**kwargs)
    if kind == REMOTE_UDP:
        return remote_udp(**kwargs)
    raise ConfigError(f"unknown channel kind {kind!r}")


def transfer_session(channel: SimChannel, rng: RngStream) -> float:
    """Elapsed time of one transfer session.

    Coupled: a single serial transfer.  Remote: the two round-trip
    transfers the session is built from, plus per-packet ack cost on the
    reliable transport or loss-driven retransmission waits on the
    datagram one.
    """
    if channel.kind == COUPLED_SERIAL:
        return clamped_normal(rng, channel.serial_mean_ms, channel.serial_std_ms,
                              SERIAL_FLOOR_MS)
    elapsed = channel.rtt.sample(rng) + channel.rtt.sample(rng)
    if channel.kind == REMOTE_TCP:
        return elapsed + channel.packets_per_session * channel.ack_cost_ms
    # datagram: every packet is retried until delivered
    for _ in range(channel.packets_per_session):
        attempt = 0
        while rng.random() < channel.loss_prob:
            backoff = min(channel.backoff_factor ** attempt, channel.backoff_cap)
            elapsed += channel.retransmit_timeout_ms * backoff
            attempt += 1
    return elapsed


def auth_channel_elapsed(channel: SimChannel, rng: RngStream) -> ChannelBreakdown:
    """Transfer and processing totals for the authentication phase."""
    transfer = 0.0
    if channel.handshake_packets > 0:
        # connection setup: each handshake packet is half a round trip
        transfer += 0.5 * channel.handshake_packets * channel.rtt.sample(rng)
    for _ in range(channel.sessions_auth):
        transfer += transfer_session(channel, rng)
    transfer += channel.online.sample(rng)
    processing = 0.0
    for phase in channel.processing_phases:
        processing += clamped_normal(rng, phase.mean_ms, phase.std_ms,
                                     PROCESSING_FLOOR_MS)
    return ChannelBreakdown(transfer_total_ms=transfer,
                            processing_total_ms=processing)


def min_transfer_floor(channel: SimChannel) -> float:
    """Lower bound on per-session transfer time: two round trips at the
    median RTT.  Only defined for the relay transports."""
    if not channel.is_remote:
        raise ConfigError("transfer floor is defined for remote channels only")
    return 2.0 * channel.rtt.median_ms


CALIBRATION_DRAWS = 4096
CALIBRATION_ENTROPY = 0x5EED


def calibrate_processing(channel: SimChannel, target_mean_ms: float
                         ) -> SimChannel:
    """Scale processing phases so mean elapsed time hits a measured target.

    Transfer time is fixed by the transport parameters; processing moments
    are scaled by a single factor estimated from CALIBRATION_DRAWS draws on
    an internal fixed-seed stream, so the result is deterministic and
    independent of scenario seeds.
    """
    if not channel.is_remote:
        raise ConfigError("calibration applies to remote channels only")
    rng = RngStream(CALIBRATION_ENTROPY)
    transfer_sum = 0.0
    processing_sum = 0.0
    for _ in range(CALIBRATION_DRAWS):
        bd = auth_channel_elapsed(channel, rng)
        transfer_sum += bd.transfer_total_ms
        processing_sum += bd.processing_total_ms
    mean_transfer = transfer_sum / CALIBRATION_DRAWS
    mean_processing = processing_sum / CALIBRATION_DRAWS
    if mean_processing <= 0.0:
        raise ConfigError("cannot calibrate a channel with no processing time")
    scale = (target_mean_ms - mean_transfer) / mean_processing
    if scale <= 0.0:
        raise ConfigError(
            f"target mean {target_mean_ms} ms is below the transfer-only mean "
            f"{mean_transfer:.1f} ms; lower the rtt or session count")
    phases = tuple(
        ProcessingPhase(p.site, p.mean_ms * scale, p.std_ms * scale)
        for p in channel.processing_phases)
    return replace(channel, processing_phases=phases)
