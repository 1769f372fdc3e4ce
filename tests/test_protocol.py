import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from attachsim import (
    AttachStep,
    ConfigError,
    DeviceProfile,
    Outcome,
    TransmissionModel,
    channel_for,
)
from attachsim import aka
from attachsim import channel as chan_mod
from attachsim.channel import auth_channel_batch
from attachsim.core import TIME_LIMIT_MS, TIME_QUANTUM_MS, RngStream
from attachsim.monitor import ReauthPolicy, schedule_devices
from attachsim.protocol import (
    _COMPLETED,
    _REJECT,
    _TIMEOUT,
    ATTACH_SEQUENCE,
    OPTIONAL_STEPS,
    OUTCOMES,
    _STEP_FLOOR_Q,
    DeviceAttaches,
    NetworkConfig,
    SignalingMessage,
    _lattice,
    run_devices,
    step_named,
    validate_sequence,
)

EXPECTED_SEQUENCE = [
    ("AttachRequest", "Uplink"),
    ("IdentityRequest", "Downlink"),
    ("IdentityResponse", "Uplink"),
    ("AuthenticationRequest", "Downlink"),
    ("AuthenticationResponse", "Uplink"),
    ("SecurityModeCommand", "Downlink"),
    ("SecurityModeComplete", "Uplink"),
    ("EsmInfoRequest", "Downlink"),
    ("EsmInfoResponse", "Uplink"),
    ("AttachAccept", "Downlink"),
    ("AttachComplete", "Uplink"),
]


def _flat_profile(mean: float, std: float, **overrides) -> DeviceProfile:
    kwargs = dict(
        name="flat",
        step_latency={s: (mean, std) for s in ATTACH_SEQUENCE},
        optional_steps=frozenset(OPTIONAL_STEPS),
        channel_kind="coupled_serial",
        sensitivity_rsrp=-85.0,
    )
    kwargs.update(overrides)
    return DeviceProfile(**kwargs)


def test_sequence_table():
    assert len(ATTACH_SEQUENCE) == 11
    for i, (name, direction) in enumerate(EXPECTED_SEQUENCE):
        step = ATTACH_SEQUENCE[i]
        assert step.value == i
        assert step.name == name
        assert step.direction == direction


def test_step_named():
    assert step_named("AttachComplete") is AttachStep.AttachComplete
    with pytest.raises(ConfigError):
        step_named("DetachRequest")


def test_auth_timer_defaults_and_override():
    assert NetworkConfig().auth_timer_ms == 6000.0
    assert NetworkConfig(auth_timer_ms=1500.0).auth_timer_ms == 1500.0
    with pytest.raises(ConfigError):
        NetworkConfig(auth_timer_ms=0.0)
    with pytest.raises(ConfigError):
        NetworkConfig(auth_timer_ms=-5.0)


def test_attach_happy_path(attach_once):
    record = attach_once("FairPhone5G", seed=4, start_ms=250.0)
    assert record.outcome is Outcome.Completed
    assert record.device_id == "FairPhone5G-000"
    assert [m.message for m in record.messages] == [n for n, _ in EXPECTED_SEQUENCE]
    assert [m.direction for m in record.messages] == [d for _, d in EXPECTED_SEQUENCE]
    assert record.messages[0].time == 250.0
    times = [m.time for m in record.messages]
    assert times == sorted(times)
    assert all(m.layer == "NAS" for m in record.messages)
    assert all(m.device_id == "FairPhone5G-000" for m in record.messages)


def test_attach_latencies_on_time_lattice(attach_once):
    record = attach_once("GalaxyA90", seed=9, start_ms=1000.0)
    deltas = [b.time - a.time for a, b in zip(record.messages, record.messages[1:])]
    for delta in deltas:
        assert delta >= _STEP_FLOOR_Q
        assert delta == round(delta / TIME_QUANTUM_MS) * TIME_QUANTUM_MS
    # dyadic timestamps make plain float addition exact
    assert sum(deltas) == record.span_ms
    assert math.fsum(deltas) == record.span_ms


def test_attach_deterministic(attach_once):
    a = attach_once("SMBHyb_rem", seed=21)
    b = attach_once("SMBHyb_rem", seed=21)
    c = attach_once("SMBHyb_rem", seed=22)
    assert [m.to_json_line() for m in a.messages] == [m.to_json_line() for m in b.messages]
    assert [m.to_json_line() for m in a.messages] != [m.to_json_line() for m in c.messages]


def test_zero_profile_hits_step_floor_exactly(plain_channel):
    profile = _flat_profile(0.0, 0.0)
    record = run_devices(profile, plain_channel, NetworkConfig(), [[0.0]],
                         [RngStream(1)], ["flat"])[0].records()[0]
    deltas = [b.time - a.time for a, b in zip(record.messages, record.messages[1:])]
    assert deltas == [_STEP_FLOOR_Q] * 10
    assert record.span_ms == 10 * _STEP_FLOOR_Q


def test_optional_step_masks(attach_once):
    s3 = attach_once("GalaxyS3", seed=2)
    names = [m.message for m in s3.messages]
    assert len(names) == 9
    assert "EsmInfoRequest" not in names and "EsmInfoResponse" not in names
    assert "IdentityRequest" in names

    por = attach_once("SMBPor_loc", seed=2)
    assert [m.message for m in por.messages] == [
        "AttachRequest", "AuthenticationRequest", "AuthenticationResponse",
        "SecurityModeCommand", "SecurityModeComplete", "AttachAccept",
        "AttachComplete"]


def test_auth_timeout_cuts_sequence(plain_channel):
    profile = _flat_profile(1.0, 0.0)
    slow = dict(profile.step_latency)
    slow[AttachStep.AuthenticationResponse] = (50_000.0, 0.0)
    profile = replace(profile, step_latency=slow)
    record = run_devices(profile, plain_channel, NetworkConfig(), [[0.0]],
                         [RngStream(1)], ["flat"])[0].records()[0]
    assert record.outcome is Outcome.AuthTimeout
    assert record.messages[-1].message == "AuthenticationResponse"
    assert len(record.messages) == 5
    # a longer supervision timer lets the same device finish
    record = run_devices(profile, plain_channel,
                         NetworkConfig(auth_timer_ms=100_000.0), [[0.0]],
                         [RngStream(1)], ["flat"])[0].records()[0]
    assert record.outcome is Outcome.Completed


def test_auth_reject_on_mismatched_sim_key(plain_channel):
    profile = _flat_profile(1.0, 0.0, auth_misconfigured=True)
    record = run_devices(profile, plain_channel, NetworkConfig(), [[0.0]],
                         [RngStream(1)], ["flat"])[0].records()[0]
    assert record.outcome is Outcome.AuthReject
    assert record.messages[-1].message == "AuthenticationRequest"
    assert len(record.messages) == 4


def test_channel_kind_mismatch_rejected(profiles, channels):
    # no relay for a remote SIM, a relay for a phone, the other relay
    for name, channel, got in (
            ("SMBHyb_rem", None, "coupled_serial"),
            ("FairPhone5G", channels["SMBHyb_rem"], "remote_tcp"),
            ("SMBPor_rem", channels["SMBHyb_rem"], "remote_tcp")):
        with pytest.raises(ConfigError, match=f"expects channel kind "
                           f"'{profiles[name].channel_kind}', got '{got}'$"):
            run_devices(profiles[name], channel, NetworkConfig(), [[0.0]],
                        [RngStream(1)], [name])


def test_validator_accepts_all_builtin_runs(profiles, channels, attach_once):
    for name in profiles:
        record = attach_once(name, seed=5)
        report = validate_sequence(record, profiles[name])
        assert report.ok, (name, report.violations)


def test_validator_accepts_partial_outcomes(plain_channel):
    profile = _flat_profile(1.0, 0.0, auth_misconfigured=True)
    record = run_devices(profile, plain_channel, NetworkConfig(), [[0.0]],
                         [RngStream(1)], ["flat"])[0].records()[0]
    assert validate_sequence(record, profile).ok


def _completed(attach_once, profiles, name="FairPhone5G"):
    return attach_once(name, seed=6), profiles[name]


def test_validator_rejects_order_swap(attach_once, profiles):
    record, profile = _completed(attach_once, profiles)
    record.messages[4], record.messages[5] = record.messages[5], record.messages[4]
    report = validate_sequence(record, profile)
    assert not report.ok
    assert any("OrderViolation" in v or "TimeViolation" in v
               for v in report.violations)


def test_validator_rejects_direction_flip(attach_once, profiles):
    record, profile = _completed(attach_once, profiles)
    msg = record.messages[3]
    record.messages[3] = replace(msg, direction="Uplink")
    report = validate_sequence(record, profile)
    assert not report.ok
    assert any("DirectionViolation" in v for v in report.violations)


def test_validator_rejects_disabled_optional_step(attach_once, profiles):
    record, profile = _completed(attach_once, profiles, "SMBPor_loc")
    t = record.messages[3].time
    record.messages.insert(3, SignalingMessage(
        time=t, direction="Downlink", device_id=record.device_id,
        message="EsmInfoRequest"))
    report = validate_sequence(record, profile)
    assert not report.ok
    assert any("OptionalStepViolation" in v or "OrderViolation" in v
               or "UnexpectedMessage" in v for v in report.violations)


def test_validator_rejects_missing_mandatory_step(attach_once, profiles):
    record, profile = _completed(attach_once, profiles)
    del record.messages[4]
    report = validate_sequence(record, profile)
    assert not report.ok
    assert any("MissingStep" in v for v in report.violations)


def test_validator_rejects_duplicate_step(attach_once, profiles):
    record, profile = _completed(attach_once, profiles)
    record.messages.insert(6, record.messages[5])
    report = validate_sequence(record, profile)
    assert not report.ok
    assert any("DuplicateStep" in v or "OrderViolation" in v
               for v in report.violations)


def test_validator_rejects_foreign_device_and_layer(attach_once, profiles):
    record, profile = _completed(attach_once, profiles)
    record.messages[2] = replace(record.messages[2], device_id="intruder-007")
    report = validate_sequence(record, profile)
    assert not report.ok
    joined = "\n".join(report.violations)
    assert "DeviceMismatch" in joined


def test_validator_rejects_time_regression(attach_once, profiles):
    record, profile = _completed(attach_once, profiles)
    record.messages[7] = replace(record.messages[7],
                                 time=record.messages[6].time - 5.0)
    report = validate_sequence(record, profile)
    assert not report.ok
    assert any("TimeViolation" in v for v in report.violations)


def test_json_line_schema(attach_once):
    record = attach_once("FairPhone5G", seed=8, start_ms=12.5)
    line = record.messages[0].to_json_line()
    assert line.startswith('{"time": ')
    assert '"layer": "NAS"' in line
    assert line.index('"time"') < line.index('"layer"') < line.index(
        '"direction"') < line.index('"device_id"') < line.index('"message"')


@given(st.integers(0, 10_000), st.sampled_from(
    ["FairPhone5G", "GalaxyS3", "SMBPor_loc", "SMBHyb_rem", "SMBPor_rem"]))
def test_property_span_conservation(attach_once, seed, name):
    record = attach_once(name, seed=seed)
    deltas = [b.time - a.time for a, b in zip(record.messages, record.messages[1:])]
    assert sum(deltas) == record.span_ms


def test_run_attaches_outcome_per_attach(plain_channel):
    slow = dict(_flat_profile(1.0, 0.0).step_latency)
    slow[AttachStep.AuthenticationResponse] = (100.0, 50.0)
    profile = _flat_profile(1.0, 0.0, step_latency=slow)
    network = NetworkConfig(auth_timer_ms=100.0)
    starts = [1000.0 * i for i in range(200)]
    [dev] = run_devices(profile, plain_channel, network, [starts],
                        [RngStream(3)], ["flat"])
    auth = dev.steps.index(AttachStep.AuthenticationResponse)
    latency = dev.times[:, auth] - dev.times[:, auth - 1]
    timed_out = latency > 100.0
    assert 50 < timed_out.sum() < 150
    assert [OUTCOMES[c] for c in dev.outcomes] == [
        Outcome.AuthTimeout if t else Outcome.Completed for t in timed_out]
    assert (dev.counts == [auth + 1 if t else 11 for t in timed_out]).all()
    assert (dev.times[:, 0] == starts).all()
    assert dev.times.shape == (200, 11)

    [rejected] = run_devices(replace(profile, auth_misconfigured=True),
                             plain_channel, network, [starts], [RngStream(3)],
                             ["flat"])
    assert {OUTCOMES[c] for c in rejected.outcomes} == {Outcome.AuthReject}
    assert (rejected.counts == auth).all()  # up to AuthenticationRequest


def test_run_attaches_serialises_overlap(plain_channel):
    profile = _flat_profile(10.0, 0.0)
    [dev] = run_devices(profile, plain_channel, NetworkConfig(),
                        [[0.0, 5.0, 500.0]], [RngStream(1)], ["flat"])
    ends = dev.times[:, -1]
    assert ends[0] == 100.0
    # the second attach would start mid-way through the first
    assert dev.times[1, 0] == 100.0 + TIME_QUANTUM_MS
    assert dev.times[2, 0] == 500.0


def test_run_attaches_rejects_channel_kind_mismatch(profiles, channels):
    with pytest.raises(ConfigError):
        run_devices(profiles["SMBHyb_rem"], channels["FairPhone5G"],
                    NetworkConfig(), [[0.0]], [RngStream(1)], ["SMBHyb_rem"])


def _reference_device(profile, channel, network, starts, rng, device_id):
    """One device's attaches the way the kernel ran them one device at a
    time, with a Python loop for the overlap serialisation: the oracle of
    the batch kernel."""
    gen = rng.gen
    steps = profile.enabled_steps
    n, k = len(starts), len(steps)
    request = steps.index(AttachStep.AuthenticationRequest)
    auth = steps.index(AttachStep.AuthenticationResponse)
    alg = profile.auth_alg
    moments = np.array([profile.step_latency[step] for step in steps])
    raw = np.maximum(moments[:, 0] + moments[:, 1]
                     * gen.standard_normal((n, k)), 0.1)
    cost = np.maximum(alg.latency_mean_ms + alg.latency_std_ms
                      * gen.standard_normal(n), 0.0)
    over_air = (0.0 if network.transmission is None
                else network.transmission.draw(gen, n))
    passed = aka.authenticate(profile.subscriber_key, profile.sim_side_key(),
                              gen.bytes(aka.KEY_LEN * n), alg)
    transfer = np.full(n, np.nan)
    processing = np.full(n, np.nan)
    if channel is not None:
        transfer[passed], processing[passed] = auth_channel_batch(
            channel, [gen], [int(np.count_nonzero(passed))])
        raw[passed, auth] = transfer[passed] + processing[passed]
    raw[:, auth] += cost
    raw[:, auth] += over_air
    latency = np.maximum(_lattice(raw), _STEP_FLOOR_Q)
    latency[:, 0] = 0.0
    timed_out = passed & (latency[:, auth] > network.auth_timer_ms)
    counts = np.where(passed, np.where(timed_out, auth + 1, k), request + 1)
    outcomes = np.where(passed, np.where(timed_out, _TIMEOUT, _COMPLETED),
                        _REJECT).astype(np.int8)
    offsets = np.cumsum(latency, axis=1)
    begin = _lattice(np.asarray(starts, dtype=float)).tolist()
    last = -math.inf
    for i, span in enumerate(offsets[np.arange(n), counts - 1].tolist()):
        if begin[i] <= last:
            begin[i] = last + TIME_QUANTUM_MS
        last = begin[i] + span
    if not last < TIME_LIMIT_MS:
        raise ConfigError("timestamp limit")
    return DeviceAttaches(device_id, profile.name, steps,
                          np.asarray(begin)[:, None] + offsets, counts,
                          outcomes, transfer, processing)


def _reference_schedule(policy, day, rng):
    """schedule_devices for one device as a loop over the triggers: the
    oracle of its running-maximum form."""
    start, end = float(day[0]), float(day[1])
    free = end - start - (policy.count - 1) * policy.min_spacing_ms
    offsets = np.sort(rng.gen.uniform(0.0, free, policy.count)).tolist()
    times = []
    for i, off in enumerate(offsets):
        t = round((start + off + i * policy.min_spacing_ms) * 1024.0) / 1024.0
        if times and t <= times[-1]:
            t = times[-1] + TIME_QUANTUM_MS
        times.append(t)
    return times


_ARRAYS = ("times", "counts", "outcomes", "transfer_ms", "processing_ms")


def _assert_same_attaches(got, want):
    assert (got.device_id, got.model, got.steps) == \
        (want.device_id, want.model, want.steps)
    for name in _ARRAYS:
        # same shape and dtype, NaN in the same places, all else equal
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name, strict=True)


def _batch_equals_singles(profile, channel, network, policy, day, devices=5,
                          seed=11):
    """run_devices on `devices` devices equals as many one-device calls,
    and the reference kernel, on the same substreams; returns the batch."""
    ids = [f"{profile.name}-{i:03d}" for i in range(devices)]
    rngs = [RngStream(seed).substream(i) for i in range(devices)]
    batch = run_devices(profile, channel, network,
                        schedule_devices(policy, day, rngs), rngs, ids)
    for i, dev in enumerate(batch):
        rng = RngStream(seed).substream(i)
        starts = schedule_devices(policy, day, [rng])
        _assert_same_attaches(dev, run_devices(profile, channel, network,
                                               starts, [rng], [ids[i]])[0])
        rng = RngStream(seed).substream(i)
        starts = _reference_schedule(policy, day, rng)
        _assert_same_attaches(dev, _reference_device(
            profile, channel, network, starts, rng, ids[i]))
    return batch


_DAY = (0.0, 86_400_000.0)
_POLICY = ReauthPolicy(20, 10_000.0)


def test_batch_equals_singles_coupled(profiles, channels):
    network = NetworkConfig(transmission=TransmissionModel())
    batch = _batch_equals_singles(profiles["FairPhone5G"],
                                  channels["FairPhone5G"], network, _POLICY,
                                  _DAY)
    assert all(np.isnan(dev.transfer_ms).all() for dev in batch)


@pytest.mark.parametrize("name, kind, overrides, timer_ms", [
    ("SMBHyb_rem", "remote_tcp", {}, 2200.0),
    ("SMBPor_rem", "remote_udp", {"loss_prob": 0.05}, 1900.0),
    # each relay on the other transport, uncalibrated: SMBPor_rem's
    # target is below a TCP relay's transfers alone
    ("SMBPor_rem", "remote_tcp", {}, 5000.0),
    ("SMBHyb_rem", "remote_udp", {"loss_prob": 0.05}, 4000.0),
    # at half the datagrams lost, the devices' longest retransmit runs,
    # and so their backoff tables, differ
    ("SMBHyb_rem", "remote_udp", {"loss_prob": 0.5}, 21000.0),
])
def test_batch_equals_singles_relay(profiles, monkeypatch, name, kind,
                                    overrides, timer_ms):
    profile = replace(profiles[name], channel_kind=kind)
    channel = channel_for(profile, overrides,
                          calibrate=kind == profiles[name].channel_kind)
    assert channel.kind == kind
    # the most lost attempts of one datagram, per device, as drawn
    most_lost = []
    phase_draws = chan_mod._phase_draws

    def spied(channel, gen, m):
        draws = phase_draws(channel, gen, m)
        if draws[1] is not None:
            most_lost.append(int(draws[1].max(initial=1)) - 1)
        return draws

    monkeypatch.setattr(chan_mod, "_phase_draws", spied)
    # the timer cuts some relayed auths short
    network = NetworkConfig(auth_timer_ms=timer_ms,
                            transmission=TransmissionModel())
    batch = _batch_equals_singles(profile, channel, network, _POLICY, _DAY)
    codes = set(np.concatenate([dev.outcomes for dev in batch]).tolist())
    assert codes == {_COMPLETED, _TIMEOUT}
    assert not any(np.isnan(dev.transfer_ms).any() for dev in batch)
    if overrides.get("loss_prob", 0.0) >= 0.5:
        assert len(set(most_lost[:len(batch)])) > 1, most_lost


def test_batch_equals_singles_relay_device_that_never_passes(
        profiles, channels, monkeypatch):
    # an AKA that fails three challenges in four: with three attaches
    # each, some devices pass none, and draw no relay phase at all
    authenticate = aka.authenticate

    def mostly_failing(key, sim_key, rands, alg):
        first_bytes = np.frombuffer(rands, np.uint8)[::aka.KEY_LEN]
        return authenticate(key, sim_key, rands, alg) & (first_bytes < 64)

    monkeypatch.setattr(aka, "authenticate", mostly_failing)
    batch = _batch_equals_singles(profiles["SMBHyb_rem"],
                                  channels["SMBHyb_rem"], NetworkConfig(),
                                  ReauthPolicy(3, 10_000.0), _DAY)
    passes = [int((dev.outcomes != _REJECT).sum()) for dev in batch]
    assert 0 in passes and max(passes) > 0, passes


def test_batch_equals_singles_wrong_key(profiles, channels):
    profile = replace(profiles["SMBHyb_rem"], auth_misconfigured=True)
    batch = _batch_equals_singles(profile, channels["SMBHyb_rem"],
                                  NetworkConfig(), _POLICY, _DAY)
    for dev in batch:
        assert (dev.outcomes == _REJECT).all()
        assert np.isnan(dev.transfer_ms).all()
        assert np.isnan(dev.processing_ms).all()


def test_batch_equals_singles_serialised_overlaps():
    # attaches of about 100 ms, 30 of them triggered within 200 ms
    profile = _flat_profile(10.0, 2.0, name="Inline")
    batch = _batch_equals_singles(profile, None, NetworkConfig(),
                                  ReauthPolicy(30, 0.0), (0.0, 200.0))
    for dev in batch:
        begins, ends = dev.times[:, 0], dev.times[:, -1]
        assert (begins[1:] == ends[:-1] + TIME_QUANTUM_MS).sum() > 20


def test_run_devices_names_first_device_past_the_limit():
    # a 2**43 - 40e6 ms step: devices whose attach starts after about
    # 40e6 ms cross the limit, the others do not
    slow = dict(_flat_profile(1.0, 0.0).step_latency)
    slow[AttachStep.AttachAccept] = (TIME_LIMIT_MS - 40e6, 0.0)
    profile = _flat_profile(1.0, 0.0, step_latency=slow, name="Slow")
    policy, day = ReauthPolicy(1), (0.0, 80e6)
    rngs = [RngStream(5).substream(i) for i in range(8)]
    starts = schedule_devices(policy, day, rngs)
    crossing = [i for i, row in enumerate(starts)
                if row[0] + TIME_LIMIT_MS - 40e6 >= TIME_LIMIT_MS - 1000.0]
    assert crossing and crossing[0] > 0 and len(crossing) < 8
    ids = [f"Slow-{i:03d}" for i in range(8)]
    with pytest.raises(ConfigError,
                       match=f"^Slow-{crossing[0]:03d}: .* timestamp limit"):
        run_devices(profile, None, NetworkConfig(), starts,
                    [RngStream(5).substream(i) for i in range(8)], ids)
    # the devices before it run
    run_devices(profile, None, NetworkConfig(),
                starts[:crossing[0]], rngs[:crossing[0]], ids[:crossing[0]])


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 200),
       start=st.sampled_from([0.0, 0.3, 17.0, 86_400_000.0, 2.0**42]),
       span=st.sampled_from([1e-3, 0.05, 1.0, 7.5, 1000.0, 86_400_000.0]),
       spacing=st.floats(0.0, 1.0))
def test_schedule_reauth_matches_loop(seed, count, start, span, spacing):
    # spacing is a share of the largest spacing that fits; small ranges
    # put many triggers on one lattice point
    spacing = 0.0 if count == 1 else spacing * span / count
    policy = ReauthPolicy(count, spacing)
    day = (start, start + span)
    times = schedule_devices(policy, day, [RngStream(seed)])[0].tolist()
    assert times == _reference_schedule(policy, day, RngStream(seed))
    assert all(a < b for a, b in zip(times, times[1:]))


def test_schedule_reauth_collisions_match_loop():
    # 200 triggers in 1 ms (1,024 lattice points) collide now and then; in
    # 0.1 ms (103 points) most of them are moved past the range
    policy = ReauthPolicy(200, 0.0)
    for day in ((5.0, 6.0), (5.0, 5.1)):
        for seed in range(5):
            rngs = [RngStream(seed).substream(i) for i in range(3)]
            rows = schedule_devices(policy, day, rngs)
            for i, row in enumerate(rows):
                want = _reference_schedule(policy, day,
                                           RngStream(seed).substream(i))
                assert row.tolist() == want
    assert want[-1] >= 5.0 + 199 * TIME_QUANTUM_MS
