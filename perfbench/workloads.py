"""Workload inputs, made from the workload seed by the benchmark itself.

Nothing here imports attachsim: the reference latencies and the detect
logs come from the published attach table, so the code under test
cannot change the inputs it is scored on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Published per-model mean latency of the AuthenticationResponse step (ms).
AUTH_MEAN_MS = {
    "FairPhone5G": 57.6, "GalaxyA90": 74.1, "GalaxyNote4": 84.5,
    "GalaxyS3": 67.9, "GalaxyZFold25G": 70.2, "OnePlusNord": 69.8,
    "SonyXPERIA": 69.1, "Xiaomi10Lite5G": 69.9, "Xiaomi9Pro5G": 67.9,
    "SMBHyb_loc": 71.7, "SMBHyb_rem": 2122.7, "SMBPor_loc": 71.2,
    "SMBPor_rem": 1640.2,
}
PHONE_MODELS = tuple(list(AUTH_MEAN_MS)[:9])

# Step moments (mean ms, std ms) of the three models detect-mixed writes,
# keyed by step index; a missing index is a step the model never sends.
STEP_MOMENTS = {
    "FairPhone5G": {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (31.0, 0.0),
                    3: (1.0, 0.0), 4: (57.6, 11.4), 5: (1.0, 0.0),
                    6: (20.5, 3.2), 7: (1.0, 0.0), 8: (19.0, 0.0),
                    9: (50.4, 4.8), 10: (32.4, 1.9)},
    "SMBHyb_rem": {0: (0.0, 0.0), 1: (0.9, 0.2), 2: (31.0, 4.3),
                   3: (0.9, 0.3), 4: (2122.7, 309.9), 5: (0.9, 0.3),
                   6: (20.1, 3.7), 7: (1.0, 0.0), 8: (20.6, 3.9),
                   9: (43.7, 9.3), 10: (53.2, 9.5)},
    "SMBPor_rem": {0: (0.0, 0.0), 3: (1.0, 0.0), 4: (1640.2, 286.7),
                   5: (1.0, 0.0), 6: (21.1, 5.8), 9: (57.9, 26.1),
                   10: (52.2, 4.7)},
}
STEP_NAMES = ("AttachRequest", "IdentityRequest", "IdentityResponse",
              "AuthenticationRequest", "AuthenticationResponse",
              "SecurityModeCommand", "SecurityModeComplete", "EsmInfoRequest",
              "EsmInfoResponse", "AttachAccept", "AttachComplete")
AUTH_REQUEST, AUTH_RESPONSE = 3, 4

DAY_MS = 86_400_000.0
SPACING_MS = 10_000.0
ATTACHES = 50
TIMEOUT_PROB = 0.02          # remote attaches whose auth outlives the timer

# Device counts per size.  "full" is what a measured run uses; "smoke"
# exercises the same code paths and checks in a few seconds.
SIZES = {
    "full": {
        "phone-fleet": {"per_model": 60},
        "simbox-fleet": {"SMBHyb_rem": 100, "SMBPor_rem": 100,
                         "SMBHyb_loc": 20, "SMBPor_loc": 20, "wrong_key": 2},
        "detect-mixed": {"phones": 360, "remote": 30, "wrong_key": 3,
                         "baseline": 360},
    },
    "smoke": {
        "phone-fleet": {"per_model": 2},
        "simbox-fleet": {"SMBHyb_rem": 3, "SMBPor_rem": 3,
                         "SMBHyb_loc": 2, "SMBPor_loc": 2, "wrong_key": 1},
        "detect-mixed": {"phones": 60, "remote": 4, "wrong_key": 1,
                         "baseline": 60},
    },
}
WORKLOADS = tuple(SIZES["full"])


def sim_config(workload: str, seed: int, size: str) -> dict:
    """Scenario config of a simulate workload; the fleet is fixed per size,
    the simulation seed follows the workload seed."""
    n = SIZES[size][workload]
    if workload == "phone-fleet":
        fleet = [{"profile": m, "count": n["per_model"]} for m in PHONE_MODELS]
        channels = {}
    else:
        fleet = [{"profile": m, "count": n[m]}
                 for m in ("SMBHyb_rem", "SMBPor_rem", "SMBHyb_loc",
                           "SMBPor_loc")]
        # wrong-key devices run the AuthReject path on both SIM placements
        fleet += [{"profile": m, "count": n["wrong_key"], "wrong_key": True}
                  for m in ("SMBHyb_rem", "SMBPor_loc")]
        channels = {"remote_udp": {"loss_prob": 0.05}}
    return {"version": 1, "seed": seed, "attaches_per_device": ATTACHES,
            "channels": channels, "fleet": fleet}


def fleet_attaches(config: dict) -> int:
    return config["attaches_per_device"] * sum(e["count"] for e in config["fleet"])


def _lattice(values: np.ndarray) -> np.ndarray:
    return np.round(values * 1024.0) / 1024.0


def _device_lines(gen: np.random.Generator, model: str, device_id: str,
                  shape: str) -> list[tuple[float, str, int]]:
    """(time, device_id, step) of one device's attaches.

    shape is "ok" (every attach completes; remote ones sometimes time
    out) or "reject" (every attach stops at the authentication request,
    as with a wrong subscriber key).
    """
    moments = STEP_MOMENTS[model]
    steps = sorted(moments)[1:]
    free = DAY_MS - (ATTACHES - 1) * SPACING_MS
    starts = _lattice(np.sort(gen.uniform(0.0, free, ATTACHES))
                      + SPACING_MS * np.arange(ATTACHES))
    mean = np.array([moments[s][0] for s in steps])
    std = np.array([moments[s][1] for s in steps])
    lat = np.maximum(gen.normal(mean, std, (ATTACHES, len(steps))), 0.1)
    auth = steps.index(AUTH_RESPONSE)
    # over-the-air part of the auth step: lognormal plus rare spikes
    lat[:, auth] += 2.0 * np.exp(gen.normal(0.0, 0.4, ATTACHES))
    spikes = gen.random(ATTACHES) < 0.01
    lat[:, auth] += spikes * gen.uniform(0.0, 200.0, ATTACHES)
    remote = model.endswith("_rem")
    timed_out = remote & (gen.random(ATTACHES) < TIMEOUT_PROB)
    lat[timed_out, auth] = gen.uniform(6000.5, 9000.0, int(timed_out.sum()))
    floor = np.ceil(0.1 * 1024.0) / 1024.0
    times = starts[:, None] + np.cumsum(np.maximum(_lattice(lat), floor), axis=1)

    out = []
    for i in range(ATTACHES):
        out.append((float(starts[i]), device_id, 0))
        for j, step in enumerate(steps):
            if shape == "reject" and step > AUTH_REQUEST:
                break
            out.append((float(times[i, j]), device_id, step))
            if timed_out[i] and step == AUTH_RESPONSE:
                break
    return out


def _write_log(path: Path, devices: list[tuple[str, str, str]],
               gen: np.random.Generator) -> None:
    """Write devices (model, device_id, shape) as one time-sorted NAS log."""
    rows = []
    for model, device_id, shape in devices:
        rows.extend(_device_lines(gen, model, device_id, shape))
    rows.sort()
    with path.open("w") as f:
        for time, device_id, step in rows:
            direction = "Uplink" if step % 2 == 0 else "Downlink"
            f.write(f'{{"time": {time:.10f}, "layer": "NAS", '
                    f'"direction": "{direction}", "device_id": "{device_id}", '
                    f'"message": "{STEP_NAMES[step]}"}}\n')


def write_detect_inputs(out: Path, seed: int, size: str) -> dict:
    """Write test.jsonl and baseline.jsonl; return their line counts and
    sha256 digests."""
    n = SIZES[size]["detect-mixed"]
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xDE7,)))
    test = [("FairPhone5G", f"FairPhone5G-{i:03d}", "ok")
            for i in range(n["phones"])]
    test += [("FairPhone5G", f"FairPhone5G-{n['phones'] + i:03d}", "reject")
             for i in range(n["wrong_key"])]
    for model in ("SMBHyb_rem", "SMBPor_rem"):
        test += [(model, f"{model}-{i:03d}", "ok") for i in range(n["remote"])]
    baseline = [("FairPhone5G", f"FairPhone5G-{i:03d}", "ok")
                for i in range(n["baseline"])]
    info = {}
    for name, devices in (("test", test), ("baseline", baseline)):
        path = out / f"{name}.jsonl"
        _write_log(path, devices, gen)
        raw = path.read_bytes()
        info[name] = {"path": str(path), "lines": raw.count(b"\n"),
                      "attaches": raw.count(b'"AttachRequest"'),
                      "sha256": hashlib.sha256(raw).hexdigest()}
    return info


def write_sim_inputs(out: Path, workload: str, seed: int, size: str) -> dict:
    config = sim_config(workload, seed, size)
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return {"config": {"path": str(path), "attaches": fleet_attaches(config),
                       "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}}
