"""Command line entry points.

Exit codes: 0 for a clean run, 2 when detection flagged at least one
device, 1 for any configuration, parse, or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .core import (
    ConfigError,
    DegenerateInput,
    EmptyWindow,
    MalformedRecord,
    ParseError,
)
from .fleet import builtin_profiles
from .monitor import Decision
from .protocol import Outcome
from .scenario import (
    emit_distribution,
    load_config,
    load_policy,
    run_detection,
    run_scenario,
)

_USER_ERRORS = (ConfigError, ParseError, MalformedRecord, EmptyWindow,
                DegenerateInput, OSError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attachsim",
        description="LTE attach signaling simulator and latency-based "
                    "remote-SIM detector.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write artifacts")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the seed in the config")
    sim.add_argument("--out", required=True, help="output directory")

    det = sub.add_parser("detect", help="score devices in a log against a baseline")
    det.add_argument("--logs", required=True, help="JSONL log under test")
    det.add_argument("--baseline", required=True, help="JSONL baseline log")
    det.add_argument("--policy", default=None, help="policy JSON file")
    det.add_argument("--report", required=True, help="report CSV path")

    dist = sub.add_parser("distribution",
                          help="histogram one step's latencies from a log")
    dist.add_argument("--logs", required=True, help="JSONL log")
    dist.add_argument("--step", required=True,
                      help="step name, e.g. AuthenticationResponse")
    dist.add_argument("--out", required=True, help="output CSV path")
    dist.add_argument("--bins", type=int, default=60, help="histogram bins")

    sub.add_parser("profiles", help="list built-in device profiles")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    artifacts = run_scenario(config, args.out)
    outcomes = artifacts.outcome_counts()
    print(f"simulated {len(artifacts.devices)} devices, "
          f"{sum(outcomes.values())} attach attempts")
    print("outcomes: " + ", ".join(
        f"{outcome.value} {outcomes[outcome]}" for outcome in (
            Outcome.Completed, Outcome.AuthTimeout, Outcome.AuthReject,
            Outcome.CampRefused)))
    print(f"logs:    {artifacts.logs_path}")
    print(f"records: {artifacts.records_path}")
    print(f"summary: {artifacts.summary_path}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    policy = load_policy(args.policy)
    result = run_detection(args.logs, args.baseline, policy, args.report)
    for verdict in result.verdicts:
        print(f"{verdict.device_id}: {verdict.decision.value}")
    for device_id in result.skipped:
        print(f"{device_id}: skipped (too few samples)")
    flagged = sum(1 for v in result.verdicts
                  if v.decision is Decision.Flagged)
    print(f"report: {result.csv_path}")
    print(f"{flagged} of {len(result.verdicts)} devices flagged")
    return 2 if result.flagged else 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    out = emit_distribution(args.logs, args.step, args.out, bins=args.bins)
    print(f"distribution: {out}")
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    profiles = builtin_profiles()
    width = max(len(name) for name in profiles)
    print(f"{'name':<{width}}  {'channel':<14}  {'rsrp_min':>8}  steps")
    for name, profile in profiles.items():
        print(f"{name:<{width}}  {profile.channel_kind:<14}  "
              f"{profile.sensitivity_rsrp:>8.0f}  {len(profile.enabled_steps)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "detect": _cmd_detect,
        "distribution": _cmd_distribution,
        "profiles": _cmd_profiles,
    }[args.command]
    try:
        return handler(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
