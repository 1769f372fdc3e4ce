"""Device-model catalog, radio camping rule, and over-the-air latency.

Thirteen builtin profiles cover nine phones and four SIM-gateway setups
(local SIM vs relayed SIM, two vendor families).  Each profile carries
per-step latency moments, the optional-step mask, a receiver sensitivity
threshold, and the SIM-channel kind backing its authentication step.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import channel as chan
from .aka import XOR_TEST, AuthAlgorithm, SubscriberKey
from .core import ConfigError, RngStream, read_section
from .protocol import ATTACH_SEQUENCE, OPTIONAL_STEPS, AttachStep

_SENSITIVITY_RANGE = (-130.0, -60.0)
_RSRP_RANGE = (-130.0, -40.0)


class CampDecision(enum.Enum):
    Proceed = "Proceed"
    CampRefused = "CampRefused"


@dataclass(frozen=True)
class RadioEnvironment:
    """Downlink signal quality at the device location."""

    rsrp_dbm: float

    def __post_init__(self):
        lo, hi = _RSRP_RANGE
        if not lo <= self.rsrp_dbm <= hi:
            raise ConfigError(f"rsrp {self.rsrp_dbm} dBm outside [{lo}, {hi}]")


@dataclass(frozen=True)
class TransmissionModel:
    """Over-the-air component of the authentication step.

    Deliberately independent of RSRP: signal quality gates whether a
    device camps at all, not how fast the radio leg runs once attached.
    A small outlier component produces the occasional ~100-200 ms spike.
    """

    median_ms: float = 2.0
    sigma: float = 0.4
    outlier_prob: float = 0.01
    outlier_max_ms: float = 200.0

    def __post_init__(self):
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ConfigError("outlier probability must be within [0, 1]")
        if min(self.median_ms, self.sigma, self.outlier_max_ms) < 0:
            raise ConfigError("transmission moments must be non-negative")

    def sample(self, rng: RngStream) -> float:
        return float(self.draw(rng.gen, 1)[0])

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """`n` delays from one generator call per part."""
        value = self.median_ms * np.exp(gen.normal(0.0, self.sigma, n))
        spiked = gen.random(n) < self.outlier_prob
        value[spiked] += gen.uniform(0.0, self.outlier_max_ms,
                                     np.count_nonzero(spiked))
        return value


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    step_latency: dict[AttachStep, tuple[float, float]]
    optional_steps: frozenset[AttachStep]
    channel_kind: str
    sensitivity_rsrp: float
    auth_alg: AuthAlgorithm = XOR_TEST
    subscriber_key: SubscriberKey | None = None
    # remote profiles: target mean for the derived authentication latency
    calibration_target_ms: float | None = None
    # catalog bookkeeping: the published per-profile total, for cross-checks
    expected_total_ms: float | None = None
    auth_misconfigured: bool = False
    device_id: str | None = None

    def __post_init__(self):
        lo, hi = _SENSITIVITY_RANGE
        if not lo <= self.sensitivity_rsrp <= hi:
            raise ConfigError(
                f"{self.name}: sensitivity {self.sensitivity_rsrp} outside [{lo}, {hi}]")
        if not self.optional_steps <= OPTIONAL_STEPS:
            raise ConfigError(f"{self.name}: mask contains non-optional steps")
        if self.channel_kind not in chan.CHANNEL_KINDS:
            raise ConfigError(f"{self.name}: unknown channel kind "
                              f"{self.channel_kind!r}")
        missing = [s.name for s in self.enabled_steps if s not in self.step_latency]
        if missing:
            raise ConfigError(f"{self.name}: no latency entry for {missing}")
        if any(std < 0 for _, std in (*self.step_latency.values(),
                                      (0.0, self.auth_alg.latency_std_ms))):
            raise ConfigError(f"{self.name}: a latency std is negative")
        if self.subscriber_key is None:
            # stable per-profile default key
            digest = hashlib.sha256(self.name.encode()).digest()
            object.__setattr__(self, "subscriber_key", SubscriberKey(digest[:16]))

    @cached_property
    def enabled_steps(self) -> tuple[AttachStep, ...]:
        return tuple(s for s in ATTACH_SEQUENCE
                     if s not in OPTIONAL_STEPS or s in self.optional_steps)

    @cached_property
    def step_moments(self) -> np.ndarray:
        """(mean, std) of each enabled step's latency, one row per step."""
        return np.array([self.step_latency[s] for s in self.enabled_steps])

    def sim_side_key(self) -> SubscriberKey:
        if not self.auth_misconfigured:
            return self.subscriber_key
        flipped = bytes([self.subscriber_key.k[0] ^ 0xFF]) + self.subscriber_key.k[1:]
        return SubscriberKey(flipped)


def attempt_camp(profile: DeviceProfile, env: RadioEnvironment) -> CampDecision:
    """A device camps iff signal power reaches its sensitivity threshold."""
    if env.rsrp_dbm < profile.sensitivity_rsrp:
        return CampDecision.CampRefused
    return CampDecision.Proceed


# Builtin catalog.  Cells are (mean ms, std ms) per step index; omitted
# indices are steps the device never runs.  The published totals ride
# along for transcription cross-checks.  Sensitivity: the three models
# that still attached under heavy attenuation get -120 dBm, the rest -85.
_ALL_OPT = frozenset(OPTIONAL_STEPS)
_NO_ESM = frozenset({AttachStep.IdentityRequest, AttachStep.IdentityResponse})
_NO_OPT: frozenset[AttachStep] = frozenset()

_CATALOG: dict[str, dict] = {
    "FairPhone5G": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.0, 0.0), 3: (1.0, 0.0),
               4: (57.6, 11.4), 5: (1.0, 0.0), 6: (20.5, 3.2), 7: (1.0, 0.0),
               8: (19.0, 0.0), 9: (50.4, 4.8), 10: (32.4, 1.9)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=215.0),
    "GalaxyA90": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (27.0, 6.0), 3: (1.0, 0.0),
               4: (74.1, 22.1), 5: (1.0, 0.0), 6: (19.3, 1.6), 7: (1.0, 0.0),
               8: (19.7, 2.6), 9: (48.7, 2.5), 10: (32.8, 3.4)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=225.6),
    "GalaxyNote4": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (38.3, 2.3), 3: (1.0, 0.3),
               4: (84.5, 36.5), 5: (1.0, 0.0), 6: (37.0, 6.3), 7: (0.9, 0.2),
               8: (37.3, 5.5), 9: (66.2, 6.8), 10: (49.7, 7.1)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-120.0,
        total=316.8),
    "GalaxyS3": dict(
        steps={0: (0.0, 0.0), 1: (0.9, 0.3), 2: (31.0, 10.4), 3: (1.0, 0.0),
               4: (67.9, 12.2), 5: (1.0, 0.1), 6: (33.0, 9.5),
               9: (56.9, 8.7), 10: (60.1, 1.1)},
        optional=_NO_ESM, channel=chan.COUPLED_SERIAL, sensitivity=-120.0,
        total=251.9),
    "GalaxyZFold25G": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.0, 0.0), 3: (1.0, 0.0),
               4: (70.2, 18.2), 5: (1.0, 0.1), 6: (21.8, 14.3), 7: (1.0, 0.0),
               8: (22.8, 21.4), 9: (50.0, 4.4), 10: (34.3, 6.0)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-120.0,
        total=234.2),
    "OnePlusNord": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.8, 2.4), 3: (1.0, 0.0),
               4: (69.8, 10.0), 5: (1.0, 0.0), 6: (31.3, 12.5), 7: (1.0, 0.0),
               8: (26.2, 9.3), 9: (66.5, 14.3), 10: (35.5, 8.2)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=265.1),
    "SonyXPERIA": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (25.0, 6.4), 3: (1.0, 0.0),
               4: (69.1, 5.9), 5: (1.0, 0.0), 6: (19.6, 2.6), 7: (1.0, 0.0),
               8: (19.6, 2.3), 9: (50.9, 5.9), 10: (54.5, 6.4)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=242.8),
    "Xiaomi10Lite5G": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.0, 0.0), 3: (1.0, 0.0),
               4: (69.9, 8.2), 5: (1.0, 0.0), 6: (21.9, 4.6), 7: (1.0, 0.0),
               8: (22.6, 5.6), 9: (48.8, 3.9), 10: (38.8, 3.9)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=237.1),
    "Xiaomi9Pro5G": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.0, 0.0), 3: (1.0, 0.0),
               4: (67.9, 16.2), 5: (1.0, 0.0), 6: (21.8, 10.5), 7: (0.9, 0.1),
               8: (20.7, 4.2), 9: (49.3, 4.3), 10: (33.5, 4.1)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=228.2),
    "SMBHyb_loc": dict(
        steps={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.8, 3.5), 3: (1.0, 0.0),
               4: (71.7, 10.8), 5: (1.0, 0.0), 6: (22.4, 5.9), 7: (1.0, 0.0),
               8: (22.9, 5.8), 9: (46.9, 10.3), 10: (57.3, 10.1)},
        optional=_ALL_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=257.1),
    "SMBHyb_rem": dict(
        steps={0: (0.0, 0.0), 1: (0.9, 0.2), 2: (31.0, 4.3), 3: (0.9, 0.3),
               4: (2122.7, 309.9), 5: (0.9, 0.3), 6: (20.1, 3.7), 7: (1.0, 0.0),
               8: (20.6, 3.9), 9: (43.7, 9.3), 10: (53.2, 9.5)},
        optional=_ALL_OPT, channel=chan.REMOTE_TCP, sensitivity=-85.0,
        total=2295.5, target=2122.7),
    "SMBPor_loc": dict(
        steps={0: (0.0, 0.0), 3: (0.9, 0.1), 4: (71.2, 10.7), 5: (1.0, 0.0),
               6: (19.7, 2.7), 9: (50.7, 6.8), 10: (78.5, 6.8)},
        optional=_NO_OPT, channel=chan.COUPLED_SERIAL, sensitivity=-85.0,
        total=253.9),
    "SMBPor_rem": dict(
        steps={0: (0.0, 0.0), 3: (1.0, 0.0), 4: (1640.2, 286.7), 5: (1.0, 0.0),
               6: (21.1, 5.8), 9: (57.9, 26.1), 10: (52.2, 4.7)},
        optional=_NO_OPT, channel=chan.REMOTE_UDP, sensitivity=-85.0,
        total=1773.5, target=1640.2),
}

PHONE_MODELS: tuple[str, ...] = (
    "FairPhone5G", "GalaxyA90", "GalaxyNote4", "GalaxyS3", "GalaxyZFold25G",
    "OnePlusNord", "SonyXPERIA", "Xiaomi10Lite5G", "Xiaomi9Pro5G")
SIMBOX_MODELS: tuple[str, ...] = (
    "SMBHyb_loc", "SMBHyb_rem", "SMBPor_loc", "SMBPor_rem")


def builtin_profiles() -> dict[str, DeviceProfile]:
    """All builtin device models, keyed by catalog name."""
    out: dict[str, DeviceProfile] = {}
    for name, row in _CATALOG.items():
        out[name] = DeviceProfile(
            name=name,
            step_latency={AttachStep(i): (m, s) for i, (m, s) in row["steps"].items()},
            optional_steps=row["optional"],
            channel_kind=row["channel"],
            sensitivity_rsrp=row["sensitivity"],
            calibration_target_ms=row.get("target"),
            expected_total_ms=row["total"],
        )
    return out


_RTT_SCHEMA = {"kind": str, "value": float, "median": float, "sigma": float,
               "path": str}


def _parse_rtt(raw: dict, ctx: str) -> chan.RttDistribution:
    spec = read_section(raw, ctx, _RTT_SCHEMA, required={"kind"})
    kind = spec["kind"]
    try:
        if kind == "constant":
            return chan.RttDistribution.constant(spec["value"])
        if kind == "lognormal":
            return chan.RttDistribution.lognormal(spec["median"],
                                                  spec.get("sigma", 0.35))
        if kind == "empirical":
            return chan.RttDistribution.from_file(spec["path"])
    except KeyError as exc:
        raise ConfigError(f"{ctx}: missing key {exc} for kind {kind!r}") from None
    raise ConfigError(f"{ctx}: unknown rtt kind {kind!r}")


_CHANNEL_SCHEMA = {
    # a coupled profile samples its auth step from its step table
    chan.COUPLED_SERIAL: {},
    chan.REMOTE_TCP: {"rtt": dict, "online": dict, "sessions_auth": int,
                      "packets_per_session": int, "ack_cost_ms": float},
    chan.REMOTE_UDP: {"rtt": dict, "online": dict, "sessions_auth": int,
                      "packets_per_session": int, "loss_prob": float,
                      "retransmit_timeout_ms": float},
}
_ONLINE_SCHEMA = {"enabled": bool, "mean_ms": float, "std_ms": float}


def channel_overrides(kind: str, raw: dict, ctx: str) -> dict:
    """Constructor kwargs for a `kind` channel from its `channels` section."""
    kwargs = read_section(raw, ctx, _CHANNEL_SCHEMA[kind])
    if "rtt" in kwargs:
        kwargs["rtt"] = _parse_rtt(kwargs["rtt"], f"{ctx} rtt")
    if "online" in kwargs:
        # a present section switches the penalty on unless it says otherwise
        kwargs["online"] = chan.OnlinePenalty(**{"enabled": True, **read_section(
            kwargs["online"], f"{ctx} online", _ONLINE_SCHEMA)})
    return kwargs


def channel_for(profile: DeviceProfile, overrides: dict | None = None,
                calibrate: bool = True) -> chan.SimChannel | None:
    """Build (and optionally calibrate) the relay a remote profile expects;
    None for a coupled profile, whose step table gives its auth latency.

    `overrides` is the profile's `channels.<kind>` config section.
    Calibration scales the relay's processing phases so that the
    simulated mean authentication latency lands on the profile's target.
    """
    kind = profile.channel_kind
    kwargs = channel_overrides(kind, overrides or {}, f"channels {kind}")
    if kind == chan.COUPLED_SERIAL:
        return None
    built = chan.build_channel(kind, **kwargs)
    if calibrate and profile.calibration_target_ms is not None:
        built = chan.calibrate_processing(built, profile.calibration_target_ms)
    return built
