"""Acceptance gate: one test per shipping criterion.

Each test prints one ACCEPT-nn line with its headline numbers when it
passes; a failing criterion fails its test.  Seeds are pinned, so every
number here is reproducible bit for bit.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from attachsim import (
    Decision,
    DetectPolicy,
    LatencyStats,
    Outcome,
    ScenarioConfig,
    FleetEntry,
    TransmissionModel,
    classify,
    run_detection,
    run_scenario,
    welch_t,
)
from attachsim.aka import (
    AuthResponse,
    SubscriberKey,
    compute_response,
    generate_challenge,
    verify,
)
from attachsim.channel import (
    auth_channel_batch,
    build_channel,
    min_transfer_floor,
)
from attachsim.core import RngStream
from attachsim.fleet import (
    PHONE_MODELS,
    CampDecision,
    RadioEnvironment,
    attempt_camp,
    builtin_profiles,
    channel_for,
)
from attachsim.monitor import compute_step_latencies
from attachsim.protocol import (
    AttachStep,
    NetworkConfig,
    SignalingMessage,
    run_devices,
    validate_sequence,
)

STEP4 = AttachStep.AuthenticationResponse
TABLE_SEED = 3       # full-fleet run behind criteria 1 and 2
MASTER_SEED = 0xACCE  # direct-sampling criteria


@pytest.fixture(scope="module")
def profiles():
    return builtin_profiles()


@pytest.fixture(scope="module")
def channels(profiles):
    return {name: channel_for(p) for name, p in profiles.items()}


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory, profiles):
    """Every builtin model, one device each, 50 attaches: the published
    latency table re-measured end to end through the scenario pipeline."""
    cfg = ScenarioConfig(
        seed=TABLE_SEED,
        fleet=tuple(FleetEntry(name, 1) for name in profiles),
        attaches_per_device=50)
    started = time.monotonic()
    art = run_scenario(cfg, tmp_path_factory.mktemp("fleet"))
    return art, time.monotonic() - started


def _attach(profiles, channels, name, network, start_ms, rng, seq=0):
    """One attach of `name`'s profile from `start_ms`, drawn from `rng`."""
    record = run_devices(profiles[name], channels[name], network,
                         [[start_ms]], [rng], [name])[0].records()[0]
    record.attach_seq = seq
    return record


def _auth_samples(profiles, channels, name, rng, attaches=50):
    network = NetworkConfig(transmission=TransmissionModel())
    out = []
    for seq in range(attaches):
        rec = _attach(profiles, channels, name, network, seq * 10_000.0, rng,
                      seq)
        out.extend(s.latency for s in compute_step_latencies(rec)
                   if s.step is STEP4)
    return out


def _model_step_means(art, name):
    per_step: dict[AttachStep, list[float]] = {}
    totals = []
    for rec in art.records[f"{name}-000"]:
        for s in compute_step_latencies(rec):
            per_step.setdefault(s.step, []).append(s.latency)
        totals.append(rec.span_ms)
    means = {step: sum(v) / len(v) for step, v in per_step.items()}
    return means, sum(totals) / len(totals)


def test_accept_01_attach_table_fidelity(fleet_run, profiles):
    art, elapsed = fleet_run
    assert elapsed < 30.0, f"fleet run took {elapsed:.1f}s"
    worst = 0.0
    cells = 0
    for name, profile in profiles.items():
        recs = art.records[f"{name}-000"]
        assert len(recs) == 50
        assert all(r.outcome is Outcome.Completed for r in recs), name
        means, obs_total = _model_step_means(art, name)
        for step in profile.enabled_steps:
            ref = profile.step_latency[step][0]
            if ref <= 0.0:
                continue
            rel = abs(means[step] - ref) / ref
            worst = max(worst, rel)
            cells += 1
            assert rel <= 0.15, (name, step.name, means[step], ref)
        rel = abs(obs_total - profile.expected_total_ms) / profile.expected_total_ms
        worst = max(worst, rel)
        cells += 1
        assert rel <= 0.15, (name, "total", obs_total, profile.expected_total_ms)
    print(f"\nACCEPT-01 PASS: {cells} table cells within 15% "
          f"(worst {worst:.1%}), 13 models x 50 attaches in {elapsed:.1f}s")


def test_accept_02_decoupling_ratios(fleet_run):
    art, _ = fleet_run

    def mean4(model):
        means, _ = _model_step_means(art, model)
        return means[STEP4]

    hyb = mean4("SMBHyb_rem") / mean4("SMBHyb_loc")
    por = mean4("SMBPor_rem") / mean4("SMBPor_loc")
    assert 20.0 <= hyb <= 40.0, hyb
    assert 15.0 <= por <= 35.0, por
    print(f"\nACCEPT-02 PASS: auth slowdown remote/local SIM: "
          f"hybrid {hyb:.1f}x (in [20, 40]), portable {por:.1f}x (in [15, 35])")


def test_accept_03_two_rtt_floor():
    assert 2.0 * 57.4 == 114.8  # the bound is exact in binary floats
    tcp, udp = build_channel("remote_tcp"), build_channel("remote_udp")
    assert min_transfer_floor(tcp) == 114.8
    assert min_transfer_floor(udp) == 114.8
    lows = []
    for channel in (tcp, udp):
        rng = RngStream(MASTER_SEED).substream(3)
        totals = auth_channel_batch(channel, [rng.gen] * 2000,
                                    [1] * 2000)[0].tolist()
        assert all(t >= 114.8 for t in totals)
        lows.append(min(totals))
    print(f"\nACCEPT-03 PASS: transfer floor 114.8 ms exact; observed minima "
          f"tcp {lows[0]:.1f} ms, udp {lows[1]:.1f} ms over 2000 draws each")


def test_accept_04_population_separation(profiles):
    rng = RngStream(MASTER_SEED).substream(5000)
    tx = TransmissionModel()
    baseline = []
    for i in range(500):
        mean, std = profiles[PHONE_MODELS[i % 9]].step_latency[STEP4]
        baseline.append(max(float(rng.gen.normal(mean, std)), 0.1)
                        + float(tx.draw(rng.gen, 1)[0]))
    # best-case decoupled attacker: local-SIM gateway processing plus the
    # irreducible two round trips on the remote leg
    optimized = []
    mean, std = profiles["SMBHyb_loc"].step_latency[STEP4]
    for i in range(500):
        optimized.append(114.8 + max(float(rng.gen.normal(mean, std)), 0.1)
                         + float(tx.draw(rng.gen, 1)[0]))
    result = welch_t(LatencyStats.from_samples(baseline),
                     LatencyStats.from_samples(optimized))
    assert result.t > 1.65
    assert result.t_ratio >= 10.0
    assert result.p_value <= 1e-50
    print(f"\nACCEPT-04 PASS: 500 v 500 pools separate at t={result.t:.0f} "
          f"(ratio {result.t_ratio:.0f}, p={result.p_value:.3g})")


def test_accept_05_t_statistic_oracle():
    gen = np.random.default_rng(20_260_816)
    worst = 0.0
    for _ in range(100):
        na, nb = int(gen.integers(2, 500)), int(gen.integers(2, 500))
        ma, mb = gen.uniform(0, 100), gen.uniform(0, 100)
        sa, sb = gen.uniform(0.1, 50), gen.uniform(0.1, 50)
        result = welch_t(
            LatencyStats(na, ma, sa, ma, ma - 4 * sa, ma + 4 * sa),
            LatencyStats(nb, mb, sb, mb, mb - 4 * sb, mb + 4 * sb))
        # independent arithmetic, straight from the definitions
        se = math.sqrt(sa * sa / na + sb * sb / nb)
        t_ref = abs(mb - ma) / math.sqrt(se * se * (1.0 / nb + 1.0 / na))
        welch_ref = abs(mb - ma) / se
        assert abs(result.t - t_ref) <= 1e-9 * t_ref
        assert abs(result.t_welch - welch_ref) <= 1e-9 * welch_ref
        identity = result.t_welch / math.sqrt(1.0 / na + 1.0 / nb)
        rel = abs(result.t - identity) / identity if identity else 0.0
        worst = max(worst, rel)
        assert rel <= 1e-12
    print(f"\nACCEPT-05 PASS: 100 random tuples match the hand oracle within "
          f"1e-9; normalization identity within {worst:.2e}")


def test_accept_06_conservation_and_validator(profiles, channels):
    network = NetworkConfig(transmission=TransmissionModel())
    root = RngStream(MASTER_SEED).substream(6000)
    plan = [(name, 1000) for name in PHONE_MODELS]
    plan += [("SMBHyb_rem", 500), ("SMBPor_rem", 500)]
    records = []
    for name, count in plan:
        for i in range(count):
            rec = _attach(profiles, channels, name, network,
                          float(len(records)), root)
            records.append((name, rec))
    assert len(records) == 10_000

    for name, rec in records:
        deltas = [b.time - a.time
                  for a, b in zip(rec.messages, rec.messages[1:])]
        assert sum(deltas) == rec.span_ms, name  # exact, no tolerance
        assert validate_sequence(rec, profiles[name]).ok, name

    mutated = 0
    rejected = 0
    for k, (name, rec) in enumerate(records[:400]):
        bad = replace(rec, messages=list(rec.messages))
        kind = k % 4
        if kind == 0:
            bad.messages[2], bad.messages[3] = bad.messages[3], bad.messages[2]
        elif kind == 1:
            msg = bad.messages[3]
            flipped = "Uplink" if msg.direction == "Downlink" else "Downlink"
            bad.messages[3] = replace(msg, direction=flipped)
        elif kind == 2:
            if name.startswith("SMBPor"):
                extra = SignalingMessage(
                    time=bad.messages[-1].time, direction="Downlink",
                    device_id=bad.device_id, message="EsmInfoRequest")
                bad.messages.insert(len(bad.messages) - 1, extra)
            else:
                bad.messages.insert(4, bad.messages[3])
        else:
            del bad.messages[4]
        mutated += 1
        rejected += not validate_sequence(bad, profiles[name]).ok
    assert rejected == mutated
    print(f"\nACCEPT-06 PASS: 10000 records conserve span exactly and "
          f"validate; {rejected}/{mutated} mutated records rejected")


def test_accept_07_rsrp_independence(profiles, channels):
    note4 = profiles["GalaxyNote4"]
    points = [-65.0, -74.0, -83.0, -92.0, -101.0, -110.0, -119.0]
    root = RngStream(MASTER_SEED)
    ys = []
    for i, rsrp in enumerate(points):
        env = RadioEnvironment(rsrp)
        assert attempt_camp(note4, env) is CampDecision.Proceed
        vals = _auth_samples(profiles, channels, "GalaxyNote4",
                             root.substream(4000 + i))
        ys.append(sum(vals) / len(vals))
    assert attempt_camp(note4, RadioEnvironment(-121.0)) is \
        CampDecision.CampRefused
    xbar = sum(points) / len(points)
    ybar = sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(points, ys))
             / sum((x - xbar) ** 2 for x in points))
    assert abs(slope) < 0.5, (slope, ys)
    print(f"\nACCEPT-07 PASS: auth latency vs RSRP slope {slope:+.3f} ms/dBm "
          f"across {points[0]:.0f}..{points[-1]:.0f} dBm (|slope| < 0.5)")


def test_accept_08_detection_rates(profiles, channels):
    policy = DetectPolicy()
    root = RngStream(MASTER_SEED)
    baselines = {}
    pooled_vals = []
    for mi, name in enumerate(PHONE_MODELS):
        vals = []
        for d in range(10):
            vals.extend(_auth_samples(profiles, channels, name,
                                      root.substream(1000 + mi * 16 + d)))
        baselines[name] = LatencyStats.from_samples(vals)
        pooled_vals.extend(vals)
    pooled = LatencyStats.from_samples(pooled_vals)

    false_flags = 0
    for s in range(200):
        name = PHONE_MODELS[s % 9]
        stats = LatencyStats.from_samples(
            _auth_samples(profiles, channels, name, root.substream(2000 + s)))
        verdict = classify(stats, baselines[name], policy)
        false_flags += verdict.decision is Decision.Flagged
    assert false_flags / 200 <= 0.05, false_flags

    flagged = 0
    for s in range(200):
        name = ("SMBHyb_rem", "SMBPor_rem")[s % 2]
        stats = LatencyStats.from_samples(
            _auth_samples(profiles, channels, name, root.substream(3000 + s)))
        verdict = classify(stats, pooled, policy)
        flagged += verdict.decision is Decision.Flagged
    assert flagged / 200 >= 0.99, flagged
    print(f"\nACCEPT-08 PASS: 200-window false-flag rate "
          f"{false_flags / 2:.1f}% (<= 5%), remote-SIM flag rate "
          f"{flagged / 2:.1f}% (>= 99%) at critical 1.65")


def test_accept_09_reproducible_artifacts(tmp_path):
    cfg = ScenarioConfig(
        seed=90,
        fleet=(FleetEntry("FairPhone5G", 1), FleetEntry("GalaxyNote4", 1),
               FleetEntry("SMBHyb_rem", 1)),
        attaches_per_device=10)
    base_cfg = ScenarioConfig(seed=91, fleet=(FleetEntry("FairPhone5G", 2),),
                              attaches_per_device=25)
    base = run_scenario(base_cfg, tmp_path / "base")
    digests = []
    for tag in ("a", "b"):
        art = run_scenario(cfg, tmp_path / tag)
        report = tmp_path / tag / "report.csv"
        run_detection(art.logs_path, base.logs_path, DetectPolicy(), report)
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (art.logs_path, art.records_path, art.summary_path,
                      report, report.with_suffix(".json"))})
    assert digests[0] == digests[1]
    assert len(digests[0]) == 5
    print("\nACCEPT-09 PASS: logs, records, summary, and both detection "
          "reports byte-identical across reruns (5 checksums)")


def test_accept_10_auth_roundtrips_and_tampers():
    rng = RngStream(MASTER_SEED).substream(10)
    for _ in range(1000):
        key = SubscriberKey(rng.gen.bytes(16))
        ch = generate_challenge(key, rng)
        answer = compute_response(key, ch.rand, ch.autn)
        assert isinstance(answer, AuthResponse)
        assert verify(ch.xres, answer.res)

    rejected = 0
    for i in range(1000):
        key = SubscriberKey(rng.gen.bytes(16))
        ch = generate_challenge(key, rng)
        mode = i % 3
        pos = int(rng.gen.integers(0, 16))
        delta = int(rng.gen.integers(1, 256))
        rand, autn, use_key = ch.rand, ch.autn, key
        if mode == 0:
            rand = bytes([*rand[:pos], rand[pos] ^ delta, *rand[pos + 1:]])
        elif mode == 1:
            autn = bytes([*autn[:pos], autn[pos] ^ delta, *autn[pos + 1:]])
        else:
            raw = key.k
            use_key = SubscriberKey(
                bytes([*raw[:pos], raw[pos] ^ delta, *raw[pos + 1:]]))
        answer = compute_response(use_key, rand, autn)
        ok = isinstance(answer, AuthResponse) and verify(ch.xres, answer.res)
        rejected += not ok
    assert rejected == 1000
    print("\nACCEPT-10 PASS: 1000/1000 clean handshakes verified, "
          "1000/1000 tampered handshakes rejected")
