"""Deterministic LTE attach-signaling simulator with latency-based
detection of remotely associated SIMs."""

from .channel import SimChannel
from .core import ConfigError, DegenerateInput, EmptyWindow, ParseError
from .fleet import (
    DeviceProfile,
    TransmissionModel,
    builtin_profiles,
    channel_for,
)
from .monitor import Decision, DetectPolicy, LatencyStats, classify, welch_t
from .protocol import AttachStep, Outcome
from .scenario import (
    FleetEntry,
    ScenarioArtifacts,
    ScenarioConfig,
    emit_distribution,
    parse_config,
    run_detection,
    run_scenario,
)

__version__ = "0.1.0"

# exactly the names README's "Library use" documents at the package root
__all__ = [
    "AttachStep",
    "ConfigError",
    "Decision",
    "DegenerateInput",
    "DetectPolicy",
    "DeviceProfile",
    "EmptyWindow",
    "FleetEntry",
    "LatencyStats",
    "Outcome",
    "ParseError",
    "ScenarioArtifacts",
    "ScenarioConfig",
    "SimChannel",
    "TransmissionModel",
    "builtin_profiles",
    "channel_for",
    "classify",
    "emit_distribution",
    "parse_config",
    "run_detection",
    "run_scenario",
    "welch_t",
]
