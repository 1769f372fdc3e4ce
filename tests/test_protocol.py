import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attachsim import (
    ATTACH_SEQUENCE,
    AttachStep,
    ConfigError,
    DeviceProfile,
    EventClock,
    NetworkConfig,
    Outcome,
    RngStream,
    SignalingMessage,
    TransmissionModel,
    coupled_serial,
    run_attach,
    run_attaches,
    step_named,
    validate_sequence,
)
from attachsim.core import TIME_QUANTUM_MS
from attachsim.protocol import OPTIONAL_STEPS, OUTCOMES, _STEP_FLOOR_Q

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
    record = run_attach(profile, plain_channel, NetworkConfig(),
                        EventClock(0.0), RngStream(1))
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
    record = run_attach(profile, plain_channel, NetworkConfig(),
                        EventClock(0.0), RngStream(1))
    assert record.outcome is Outcome.AuthTimeout
    assert record.messages[-1].message == "AuthenticationResponse"
    assert len(record.messages) == 5
    # a longer supervision timer lets the same device finish
    record = run_attach(profile, plain_channel,
                        NetworkConfig(auth_timer_ms=100_000.0),
                        EventClock(0.0), RngStream(1))
    assert record.outcome is Outcome.Completed


def test_auth_reject_on_mismatched_sim_key(plain_channel):
    profile = _flat_profile(1.0, 0.0, auth_misconfigured=True)
    record = run_attach(profile, plain_channel, NetworkConfig(),
                        EventClock(0.0), RngStream(1))
    assert record.outcome is Outcome.AuthReject
    assert record.messages[-1].message == "AuthenticationRequest"
    assert len(record.messages) == 4


def test_channel_kind_mismatch_rejected(profiles, channels):
    with pytest.raises(ConfigError):
        run_attach(profiles["SMBHyb_rem"], channels["FairPhone5G"],
                   NetworkConfig(), EventClock(0.0), RngStream(1))


def test_validator_accepts_all_builtin_runs(profiles, channels, attach_once):
    for name in profiles:
        record = attach_once(name, seed=5)
        report = validate_sequence(record, profiles[name])
        assert report.ok, (name, report.violations)


def test_validator_accepts_partial_outcomes(plain_channel):
    profile = _flat_profile(1.0, 0.0, auth_misconfigured=True)
    record = run_attach(profile, plain_channel, NetworkConfig(),
                        EventClock(0.0), RngStream(1))
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
    record.messages[5] = replace(record.messages[5], layer="RRC")
    report = validate_sequence(record, profile)
    assert not report.ok
    joined = "\n".join(report.violations)
    assert "DeviceMismatch" in joined
    assert "LayerViolation" in joined


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


def test_event_clock_rejects_rewind():
    clock = EventClock(10.0)
    clock.advance(5.0)
    assert clock.now == 15.0
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_run_attach_is_first_attach_of_run_attaches(profiles, channels):
    network = NetworkConfig(transmission=TransmissionModel())
    for name, builtin in profiles.items():
        for wrong_key in (False, True):
            profile = replace(builtin, auth_misconfigured=wrong_key
                              ).for_device(f"{name}-000")
            clock = EventClock(1234.5)
            single = run_attach(profile, channels[name], network, clock,
                                RngStream(7), attach_seq=3)
            first = run_attaches(profile, channels[name], network, [1234.5],
                                 RngStream(7)).records()[0]
            assert single.attach_seq == 3 and first.attach_seq == 0
            assert single.messages == first.messages, name
            assert single.outcome is first.outcome
            assert single.outcome is (Outcome.AuthReject if wrong_key
                                      else Outcome.Completed)
            assert (single.auth_transfer_ms, single.auth_processing_ms) == \
                (first.auth_transfer_ms, first.auth_processing_ms)
            assert (single.auth_transfer_ms is None) is (
                wrong_key or not channels[name].is_remote)
            assert clock.now == single.messages[-1].time


def test_run_attaches_outcome_per_attach(plain_channel):
    slow = dict(_flat_profile(1.0, 0.0).step_latency)
    slow[AttachStep.AuthenticationResponse] = (100.0, 50.0)
    profile = _flat_profile(1.0, 0.0, step_latency=slow)
    network = NetworkConfig(auth_timer_ms=100.0)
    starts = [1000.0 * i for i in range(200)]
    dev = run_attaches(profile, plain_channel, network, starts, RngStream(3))
    auth = dev.steps.index(AttachStep.AuthenticationResponse)
    latency = dev.times[:, auth] - dev.times[:, auth - 1]
    timed_out = latency > 100.0
    assert 50 < timed_out.sum() < 150
    assert [OUTCOMES[c] for c in dev.outcomes] == [
        Outcome.AuthTimeout if t else Outcome.Completed for t in timed_out]
    assert (dev.counts == [auth + 1 if t else 11 for t in timed_out]).all()
    assert (dev.times[:, 0] == starts).all()
    assert dev.times.shape == (200, 11)

    rejected = run_attaches(replace(profile, auth_misconfigured=True),
                            plain_channel, network, starts, RngStream(3))
    assert {OUTCOMES[c] for c in rejected.outcomes} == {Outcome.AuthReject}
    assert (rejected.counts == auth).all()  # up to AuthenticationRequest


def test_run_attaches_serialises_overlap(plain_channel):
    profile = _flat_profile(10.0, 0.0)
    dev = run_attaches(profile, plain_channel, NetworkConfig(),
                       [0.0, 5.0, 500.0], RngStream(1))
    ends = dev.times[:, -1]
    assert ends[0] == 100.0
    # the second attach would start mid-way through the first
    assert dev.times[1, 0] == 100.0 + TIME_QUANTUM_MS
    assert dev.times[2, 0] == 500.0


def test_run_attaches_rejects_channel_kind_mismatch(profiles, channels):
    with pytest.raises(ConfigError):
        run_attaches(profiles["SMBHyb_rem"], channels["FairPhone5G"],
                     NetworkConfig(), [0.0], RngStream(1))
