"""ME-to-SIM relay models for the authentication phase of a remote SIM.

Two relays through a control server produce the elapsed time a remote
SIM adds to the authentication step: one reliable-ordered (TCP-like) and
one datagram with loss and retransmission (UDP-like).  A coupled SIM, in
the device, has none: its profile's step table gives its auth latency.

Elapsed time decomposes into transfer time (round trips on the relay
path) plus processing time at the relay endpoints; both parts are
reported separately so the transfer lower bound can be checked exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ConfigError, DataFileError, RngStream, sorted_median

COUPLED_SERIAL = "coupled_serial"  # a profile's kind with no channel
REMOTE_TCP = "remote_tcp"
REMOTE_UDP = "remote_udp"
CHANNEL_KINDS = (COUPLED_SERIAL, REMOTE_TCP, REMOTE_UDP)

# Processing samples never drop below this; sub-millisecond endpoint
# processing is below the log timestamp resolution being modeled.
PROCESSING_FLOOR_MS = 1.0
# A datagram's a-th retry waits min(BACKOFF_FACTOR**a, BACKOFF_CAP)
# retransmit timeouts.
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 8.0


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
        try:
            finite = math.isfinite(self.mean_ms)
        except OverflowError:  # sigma ** 2, or its exp, past the float range
            finite = False
        if not finite:
            raise ConfigError("rtt mean must be a finite number of ms")

    @classmethod
    def constant(cls, value_ms: float) -> "RttDistribution":
        return cls(kind="constant", median_ms=float(value_ms))

    @classmethod
    def lognormal(cls, median_ms: float, sigma: float = 0.35) -> "RttDistribution":
        return cls(kind="lognormal", median_ms=float(median_ms), sigma=float(sigma))

    @classmethod
    def empirical(cls, samples, checksum: str | None = None) -> "RttDistribution":
        arr = np.asarray(list(samples), dtype=float)
        median = sorted_median(np.sort(arr)) if arr.size else 0.0
        return cls(kind="empirical", median_ms=median, samples=arr, checksum=checksum)

    @classmethod
    def from_file(cls, path: str | Path) -> "RttDistribution":
        """One decimal milliseconds value per line, plain ASCII text.

        Fail-closed: a line that is not ASCII, or holds anything but
        finite numbers, raises DataFileError naming the file and the
        1-based line; a file of no values raises one naming the file.
        """
        raw = Path(path).read_bytes()
        values = []
        for lineno, line in enumerate(raw.split(b"\n"), start=1):
            try:
                tokens = line.decode("ascii").split()
            except UnicodeDecodeError:
                raise DataFileError(f"{path} line {lineno}: not ASCII text") from None
            for token in tokens:
                try:
                    value = float(token)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DataFileError(f"{path} line {lineno}: expected a "
                                        f"finite number, got {token!r:.40}")
                values.append(value)
        if not values:
            raise DataFileError(f"{path}: no values; an empirical rtt needs "
                                f"at least one sample")
        return cls.empirical(values, checksum=hashlib.sha256(raw).hexdigest())

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """`n` round trips in one generator call (none for a constant)."""
        return self.values(self.sample(gen, n), n)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray | None:
        """The generator call of `draw`: `n` log-scale normals (lognormal)
        or sample indices (empirical); None for a constant."""
        if self.kind == "lognormal":
            return gen.normal(0.0, self.sigma, n)
        if self.kind == "empirical":
            return gen.integers(0, len(self.samples), n)
        return None

    def values(self, sampled: np.ndarray | None, n: int) -> np.ndarray:
        """The `n` round trips that `sample`'s result, or a concatenation
        of its results, stands for."""
        if self.kind == "lognormal":
            return self.median_ms * np.exp(sampled)
        if self.kind == "empirical":
            return self.samples[sampled]
        return np.full(n, self.median_ms)

    @property
    def mean_ms(self) -> float:
        """Exact mean of the distribution `draw` samples from."""
        if self.kind == "constant":
            return self.median_ms
        if self.kind == "lognormal":
            return self.median_ms * math.exp(0.5 * self.sigma ** 2)
        return float(np.mean(self.samples))


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

    site: str  # SimBank, Gateway
    mean_ms: float
    std_ms: float

    def __post_init__(self):
        if self.site not in ("SimBank", "Gateway"):
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

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """`n` penalties, clamped at 0, in one generator call (none when
        disabled)."""
        if not self.enabled:
            return np.zeros(n)
        return np.maximum(gen.normal(self.mean_ms, self.std_ms, n), 0.0)


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
    handshake_packets: int = 0          # TCP-like setup, counted once per attach
    ack_cost_ms: float = 0.0            # per-packet cost on reliable transports
    loss_prob: float = 0.0              # datagram transports only
    retransmit_timeout_ms: float = 200.0
    processing_phases: tuple[ProcessingPhase, ...] = ()
    online: OnlinePenalty = field(default_factory=OnlinePenalty)

    def __post_init__(self):
        if self.kind not in (REMOTE_TCP, REMOTE_UDP):
            raise ConfigError(f"{self.kind!r} is not a relay kind")
        if not 0.0 <= self.loss_prob < 1.0:
            # at 1.0 no packet is ever delivered, so a session never ends
            raise ConfigError("loss_prob must be within [0, 1)")
        if self.sessions_auth < 0 or self.packets_per_session < 0:
            raise ConfigError("session and packet counts must be non-negative")
        if self.retransmit_timeout_ms <= 0:
            raise ConfigError("retransmit timeout must be positive")
        if not 0.0 <= self.ack_cost_ms < math.inf:
            # a negative cost would cut transfers below the two-RTT floor
            raise ConfigError("ack_cost_ms must be finite and non-negative")

    @cached_property
    def _phase_moments(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([p.mean_ms for p in self.processing_phases]),
                np.array([p.std_ms for p in self.processing_phases]))


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
    return SimChannel(
        kind=REMOTE_TCP,
        rtt=rtt if rtt is not None else builtin_remote_rtt(),
        sessions_auth=sessions_auth,
        packets_per_session=packets_per_session,
        handshake_packets=3,
        ack_cost_ms=ack_cost_ms,
        processing_phases=processing_phases,
        online=online if online is not None else OnlinePenalty(),
    )


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
    return SimChannel(
        kind=REMOTE_UDP,
        rtt=rtt if rtt is not None else builtin_remote_rtt(),
        sessions_auth=sessions_auth,
        packets_per_session=packets_per_session,
        loss_prob=loss_prob,
        retransmit_timeout_ms=retransmit_timeout_ms,
        processing_phases=processing_phases,
        online=online if online is not None else OnlinePenalty(),
    )


def build_channel(kind: str, **kwargs) -> SimChannel:
    if kind == REMOTE_TCP:
        return remote_tcp(**kwargs)
    if kind == REMOTE_UDP:
        return remote_udp(**kwargs)
    raise ConfigError(f"{kind!r} is not a relay kind")


def _backoff_prefix(top: int) -> np.ndarray:
    """Total wait, in retransmit timeouts, after 0..top lost attempts."""
    waits, factor = [0.0], 1.0
    for _ in range(top):
        waits.append(waits[-1] + min(factor, BACKOFF_CAP))
        factor *= BACKOFF_FACTOR
    return np.array(waits)


def _phase_draws(channel: SimChannel, gen: np.random.Generator, m: int
                 ) -> tuple:
    """The generator calls of `m` authentication phases, in their order:
    the round trips (the connection setup's first), the datagram attempts
    per packet, the online penalty, then the (m, phases) processing
    normals.  A draw the channel does not make is None."""
    transfers = channel.rtt.sample(gen, m * _rtt_width(channel))
    packets = channel.sessions_auth * channel.packets_per_session
    attempts = gen.geometric(1.0 - channel.loss_prob, (m, packets)) if (
        channel.kind == REMOTE_UDP and channel.loss_prob > 0.0 and packets
    ) else None
    online = channel.online.draw(gen, m) if channel.online.enabled else None
    normals = gen.standard_normal((m, len(channel.processing_phases)))
    return transfers, attempts, online, normals


def _rtt_width(channel: SimChannel) -> int:
    """Round trips per authentication phase on a relay: two per session,
    and one for the connection setup when it has any packets."""
    return 2 * channel.sessions_auth + (channel.handshake_packets > 0)


# Rows of draws whose sums run at once.  A larger stack costs more than it
# saves: its arrays (over 128 KiB, glibc's default mmap threshold) are
# memory the kernel maps and faults in afresh, where a small stack's are
# heap blocks the next stack reuses.
_STACK_ROWS = 400


def auth_channel_batch(channel: SimChannel, gens, counts
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Transfer and processing totals of `counts[i]` authentication phases
    drawn from `gens[i]`, for each generator in turn, concatenated.  Each
    generator makes one call per kind of draw, whatever the batch: the
    round trips, the datagram losses, the online penalty, then the
    (count, phases) processing matrix.  The sums run on the draws of as
    many generators as fill _STACK_ROWS rows, stacked."""
    totals, stack, rows = [], [], 0
    for gen, m in zip(gens, counts):
        stack.append(_phase_draws(channel, gen, m))
        rows += m
        if rows >= _STACK_ROWS:
            totals.append(_phase_totals(channel, stack))
            stack, rows = [], 0
    if stack:
        totals.append(_phase_totals(channel, stack))
    if len(totals) == 1:
        return totals[0]
    transfer, processing = zip(*totals)
    return np.concatenate(transfer), np.concatenate(processing)


def _phase_totals(channel: SimChannel, stack: list[tuple]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Transfer and processing totals of the phases whose _phase_draws are
    `stack`, in turn; each row sums as it would alone.

    Each session is two round-trip transfers, plus per-packet ack cost on
    the reliable transport or loss-driven retransmission waits on the
    datagram one; each handshake packet is half a round trip.
    """
    transfers, attempts, online, normals = (
        None if parts[0] is None else np.concatenate(parts)
        for parts in zip(*stack))
    m = len(normals)
    width = _rtt_width(channel)
    rtts = channel.rtt.values(transfers, m * width).reshape(m, width)
    setup = 0.5 * channel.handshake_packets
    if setup:
        transfer = setup * rtts[:, 0] + rtts[:, 1:].sum(axis=1)
    else:
        transfer = rtts.sum(axis=1)
    if channel.kind == REMOTE_TCP:
        transfer = transfer + (channel.sessions_auth
                               * channel.packets_per_session
                               * channel.ack_cost_ms)
    if attempts is not None:
        # every packet is retried until delivered: lost attempts per packet
        losses = attempts - 1
        top = int(losses.max(initial=0))
        if top:
            transfer += channel.retransmit_timeout_ms * _backoff_prefix(
                top)[losses].sum(axis=1)
    if online is not None:
        transfer += online
    means, stds = channel._phase_moments
    processing = np.maximum(means + stds * normals, PROCESSING_FLOOR_MS)
    return transfer, processing.sum(axis=1)


def auth_channel_elapsed(channel: SimChannel, rng: RngStream) -> ChannelBreakdown:
    """Transfer and processing totals for one authentication phase: the
    one-row case of auth_channel_batch."""
    transfer, processing = auth_channel_batch(channel, [rng.gen], [1])
    return ChannelBreakdown(transfer_total_ms=float(transfer[0]),
                            processing_total_ms=float(processing[0]))


def min_transfer_floor(channel: SimChannel) -> float:
    """Lower bound on a session's transfer time: two median round trips."""
    return 2.0 * channel.rtt.median_ms


def _floored_normal_mean(mean: float, std: float, floor: float
                         ) -> tuple[float, float]:
    """E[max(X, floor)] for X ~ N(mean, std), and its derivative in the
    scale s of X at s = 1 (E[X; X > floor])."""
    if std == 0.0:
        return (mean, mean) if mean > floor else (floor, 0.0)
    z = (mean - floor) / std
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return floor + (mean - floor) * cdf + std * pdf, mean * cdf + std * pdf


def _expected_backoff(channel: SimChannel) -> float:
    """Expected wait per packet, in retransmit timeouts:
    sum over a of min(b**a, cap) * p**(a + 1), in closed form."""
    p, b, cap = channel.loss_prob, BACKOFF_FACTOR, BACKOFF_CAP
    if p == 0.0:
        return 0.0
    # the first `head` terms are b**a < cap; every later one is `cap`
    head = math.ceil(math.log(cap) / math.log(b))
    log_ratio = math.log(b) + math.log(p)
    rising = head if log_ratio == 0.0 else \
        math.expm1(head * log_ratio) / math.expm1(log_ratio)
    return p * rising + cap * p ** (head + 1) / (1.0 - p)


def _expected_transfer_ms(channel: SimChannel) -> float:
    """Exact mean transfer time of the authentication phase, online
    penalty included, as auth_channel_elapsed samples it."""
    rtt = channel.rtt.mean_ms
    session = 2.0 * rtt
    if channel.kind == REMOTE_TCP:
        session += channel.packets_per_session * channel.ack_cost_ms
    elif channel.kind == REMOTE_UDP:
        session += (channel.packets_per_session * channel.retransmit_timeout_ms
                    * _expected_backoff(channel))
    online = channel.online
    penalty = _floored_normal_mean(online.mean_ms, online.std_ms, 0.0)[0] \
        if online.enabled else 0.0
    return (0.5 * channel.handshake_packets * rtt
            + channel.sessions_auth * session + penalty)


def _expected_processing(phases, scale: float) -> tuple[float, float]:
    """Mean processing total with every phase scaled by `scale`, and its
    derivative in `scale`."""
    value = slope = 0.0
    for p in phases:
        v, d = _floored_normal_mean(scale * p.mean_ms, scale * p.std_ms,
                                    PROCESSING_FLOOR_MS)
        value += v
        slope += d / scale
    return value, slope


def calibrate_processing(channel: SimChannel, target_mean_ms: float
                         ) -> SimChannel:
    """Scale processing phases so mean elapsed time hits a measured target.

    Transfer time is fixed by the transport parameters.  The mean of the
    sampler is known exactly (round trips, retransmission waits and
    floored normal phases), so the one processing scale factor is the
    root of a convex, increasing equation, found by Newton's method.
    """
    phases = channel.processing_phases
    unfloored = sum(_floored_normal_mean(p.mean_ms, p.std_ms, 0.0)[0]
                    for p in phases)
    if unfloored <= 0.0:
        raise ConfigError("cannot calibrate a channel with no processing time")
    transfer = _expected_transfer_ms(channel)
    wanted = target_mean_ms - transfer
    if wanted <= len(phases) * PROCESSING_FLOOR_MS:
        raise ConfigError(
            f"target mean {target_mean_ms} ms is below the transfer-only mean "
            f"{transfer:.1f} ms plus the processing floor; lower the rtt or "
            f"session count")
    # s * E[max(X, 0)] <= E[max(sX, floor)]: Newton starts at or above the root
    scale = wanted / unfloored
    for _ in range(100):
        value, slope = _expected_processing(phases, scale)
        if value <= wanted:
            break
        # Newton from above: convexity keeps every step above the root
        lower = scale - (value - wanted) / slope
        if not lower < scale:
            break
        scale = lower
    phases = tuple(ProcessingPhase(p.site, p.mean_ms * scale, p.std_ms * scale)
                   for p in phases)
    return replace(channel, processing_phases=phases)
