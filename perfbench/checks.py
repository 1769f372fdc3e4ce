"""Correctness checks on a workload's outputs; each returns (ok, detail)."""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

from workloads import AUTH_MEAN_MS

AUTH_TOLERANCE = 0.15        # ACCEPT-01: table fidelity
MIN_HIT_RATE = 0.99          # ACCEPT-08: remote-SIM flag rate
MAX_FALSE_FLAG_RATE = 0.05   # ACCEPT-08: phone false-flag rate


def read_records(path: Path) -> list[dict]:
    with path.open() as f:
        return [json.loads(line) for line in f]


def parse_back(logs: Path, records: list[dict], attaches: int
               ) -> tuple[bool, str]:
    """logs.jsonl parses back to the non-CampRefused records, device by
    device, with the same count and outcomes."""
    from attachsim.scenario import parse_logs

    if len(records) != attaches:
        return False, f"{len(records)} records for {attaches} attaches"
    expected = defaultdict(list)
    for r in records:
        if r["outcome"] != "CampRefused":
            expected[r["device_id"]].append(r["outcome"])
    parsed = {device: [rec.outcome.value for rec in recs]
              for device, recs in parse_logs(logs).items()}
    if parsed != dict(expected):
        bad = sorted(d for d in set(parsed) | set(expected)
                     if parsed.get(d) != expected.get(d))
        return False, f"{len(bad)} devices differ, first {bad[0]}"
    return True, f"{sum(map(len, parsed.values()))} records match"


def auth_means(records: list[dict]) -> tuple[bool, str]:
    """Every model's mean auth latency lies within 15% of the table."""
    values = defaultdict(list)
    for r in records:
        latency = r["steps"].get("AuthenticationResponse")
        if latency is not None:
            values[r["device_id"].rsplit("-", 1)[0]].append(latency)
    worst, where = 0.0, ""
    for model, vals in sorted(values.items()):
        rel = abs(sum(vals) / len(vals) - AUTH_MEAN_MS[model]) / AUTH_MEAN_MS[model]
        if rel >= worst:
            worst, where = rel, model
    ok = bool(values) and worst <= AUTH_TOLERANCE
    return ok, f"{len(values)} models, worst {where} off by {worst:.1%}"


def detection(report_dir: Path, sizes: dict) -> tuple[bool, str, dict]:
    """ACCEPT-08 rates on the report, and every test device accounted for:
    a verdict for each phone and remote device, the wrong-key ones skipped."""
    with (report_dir / "report.csv").open() as f:
        rows = list(csv.DictReader(f))
    skipped = json.loads((report_dir / "report.json").read_text())[
        "skipped_devices"]
    remote = [r["decision"] for r in rows if "_rem-" in r["device_id"]]
    phones = [r["decision"] for r in rows if r["device_id"].startswith("FairPhone5G-")]
    rates = {"hit_rate": remote.count("Flagged") / max(len(remote), 1),
             "false_flag_rate": phones.count("Flagged") / max(len(phones), 1)}
    ok = (len(phones) == sizes["phones"] and len(remote) == 2 * sizes["remote"]
          and len(rows) == len(remote) + len(phones)
          and len(skipped) == sizes["wrong_key"]
          and rates["hit_rate"] >= MIN_HIT_RATE
          and rates["false_flag_rate"] <= MAX_FALSE_FLAG_RATE)
    detail = (f"hit {remote.count('Flagged')}/{len(remote)}, false flags "
              f"{phones.count('Flagged')}/{len(phones)}, {len(skipped)} skipped")
    return ok, detail, rates
