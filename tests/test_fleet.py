import pytest
from hypothesis import given
from hypothesis import strategies as st

from attachsim import (
    AttachStep,
    ConfigError,
    DeviceProfile,
    FleetEntry,
    ScenarioConfig,
    TransmissionModel,
    builtin_profiles,
    channel_for,
    run_scenario,
)
from attachsim.channel import auth_channel_batch
from attachsim.core import RngStream
from attachsim.fleet import (
    PHONE_MODELS,
    SIMBOX_MODELS,
    CampDecision,
    RadioEnvironment,
    attempt_camp,
)


def test_catalog_inventory(profiles):
    assert len(profiles) == 13
    assert set(PHONE_MODELS) | set(SIMBOX_MODELS) == set(profiles)
    assert len(PHONE_MODELS) == 9 and len(SIMBOX_MODELS) == 4


def test_catalog_totals_consistent(profiles):
    """Published per-model totals match the per-step sums.

    SMBPor_loc is the known exception: its published total exceeds the
    sum of its enabled steps by 31.9 ms (the identity steps it masks).
    """
    for name, profile in profiles.items():
        step_sum = sum(profile.step_latency[s][0] for s in profile.enabled_steps)
        if name == "SMBPor_loc":
            assert profile.expected_total_ms - step_sum == pytest.approx(31.9)
        else:
            assert abs(step_sum - profile.expected_total_ms) <= 0.6, name


def test_catalog_spot_cells(profiles):
    assert profiles["FairPhone5G"].step_latency[
        AttachStep.AuthenticationResponse] == (57.6, 11.4)
    assert profiles["SMBHyb_rem"].step_latency[
        AttachStep.AuthenticationResponse] == (2122.7, 309.9)
    assert profiles["SMBHyb_rem"].calibration_target_ms == 2122.7
    assert profiles["SMBPor_rem"].calibration_target_ms == 1640.2
    assert profiles["SMBHyb_rem"].channel_kind == "remote_tcp"
    assert profiles["SMBPor_rem"].channel_kind == "remote_udp"
    assert profiles["SMBHyb_loc"].channel_kind == "coupled_serial"
    for name in PHONE_MODELS:
        assert profiles[name].channel_kind == "coupled_serial"


def test_catalog_sensitivities(profiles):
    tough = {"GalaxyNote4", "GalaxyS3", "GalaxyZFold25G"}
    for name, profile in profiles.items():
        expected = -120.0 if name in tough else -85.0
        assert profile.sensitivity_rsrp == expected, name


def test_catalog_optional_masks(profiles):
    full = {AttachStep.IdentityRequest, AttachStep.IdentityResponse,
            AttachStep.EsmInfoRequest, AttachStep.EsmInfoResponse}
    s3 = set(profiles["GalaxyS3"].optional_steps)
    assert s3 == {AttachStep.IdentityRequest, AttachStep.IdentityResponse}
    assert set(profiles["SMBPor_loc"].optional_steps) == set()
    assert set(profiles["SMBPor_rem"].optional_steps) == set()
    for name in set(PHONE_MODELS) - {"GalaxyS3"}:
        assert set(profiles[name].optional_steps) == full, name
    assert len(profiles["SMBPor_rem"].enabled_steps) == 7
    assert len(profiles["GalaxyS3"].enabled_steps) == 9


def test_builtin_profiles_returns_fresh_copies():
    first = builtin_profiles()
    first.pop("FairPhone5G")
    assert "FairPhone5G" in builtin_profiles()


def test_default_keys_stable_and_distinct(profiles):
    again = builtin_profiles()
    keys = set()
    for name, profile in profiles.items():
        assert profile.subscriber_key == again[name].subscriber_key
        keys.add(profile.subscriber_key.k)
    assert len(keys) == len(profiles)


def test_sim_side_key_misconfiguration(profiles):
    profile = profiles["FairPhone5G"]
    assert profile.sim_side_key() == profile.subscriber_key
    from dataclasses import replace
    broken = replace(profile, auth_misconfigured=True)
    wrong = broken.sim_side_key()
    assert wrong != profile.subscriber_key
    assert wrong.k[0] == profile.subscriber_key.k[0] ^ 0xFF
    assert wrong.k[1:] == profile.subscriber_key.k[1:]


def test_attempt_camp_threshold(profiles):
    note4 = profiles["GalaxyNote4"]  # sensitivity -120
    phone = profiles["FairPhone5G"]  # sensitivity -85
    assert attempt_camp(note4, RadioEnvironment(-119.0)) is CampDecision.Proceed
    assert attempt_camp(note4, RadioEnvironment(-120.0)) is CampDecision.Proceed
    assert attempt_camp(note4, RadioEnvironment(-121.0)) is CampDecision.CampRefused
    assert attempt_camp(phone, RadioEnvironment(-85.0)) is CampDecision.Proceed
    assert attempt_camp(phone, RadioEnvironment(-86.0)) is CampDecision.CampRefused


@given(st.floats(-130, -40), st.floats(-130, -40))
def test_property_camping_monotone_in_signal(rsrp_a, rsrp_b):
    profile = builtin_profiles()["SonyXPERIA"]
    lo, hi = sorted((rsrp_a, rsrp_b))
    if attempt_camp(profile, RadioEnvironment(lo)) is CampDecision.Proceed:
        assert attempt_camp(profile, RadioEnvironment(hi)) is CampDecision.Proceed


def test_radio_environment_range():
    with pytest.raises(ConfigError):
        RadioEnvironment(-139.0)
    with pytest.raises(ConfigError):
        RadioEnvironment(-30.0)


def test_transmission_independent_of_signal_quality(tmp_path):
    # the radio leg is sampled from the network's model alone: the same
    # seed gives the same auth-step latency at any camping signal level
    model = TransmissionModel()
    rng1, rng2 = RngStream(42), RngStream(42)
    seq1 = [float(model.draw(rng1.gen, 1)[0]) for _ in range(2000)]
    seq2 = [float(model.draw(rng2.gen, 1)[0]) for _ in range(2000)]
    assert seq1 == seq2
    assert model.draw(RngStream(42).gen, 1)[0] == seq1[0]
    logs = []
    for rsrp in (-65.0, -115.0):
        cfg = ScenarioConfig(seed=42, fleet=(FleetEntry("GalaxyNote4", 1),),
                             attaches_per_device=5, rsrp_dbm=rsrp)
        logs.append(run_scenario(cfg, tmp_path / str(rsrp)).logs_path
                    .read_bytes())
    assert logs[0] == logs[1]


def test_transmission_distribution_shape():
    rng = RngStream(7)
    model = TransmissionModel()
    samples = [float(model.draw(rng.gen, 1)[0]) for _ in range(10_000)]
    # lognormal(median 2, sigma 0.4) mean 2.166 plus outlier mean 1.0
    mean = sum(samples) / len(samples)
    assert abs(mean / 3.166 - 1.0) < 0.10
    assert sum(1 for s in samples if s > 20.0) / len(samples) < 0.02
    assert max(samples) > 20.0  # outliers do occur at 1%

    quiet = TransmissionModel(outlier_prob=0.0)
    rng = RngStream(8)
    assert all(quiet.draw(rng.gen, 1)[0] < 20.0 for _ in range(10_000))


def test_transmission_model_validation():
    with pytest.raises(ConfigError):
        TransmissionModel(outlier_prob=1.5)
    with pytest.raises(ConfigError):
        TransmissionModel(median_ms=-1.0)
    with pytest.raises(ConfigError):
        TransmissionModel(sigma=-0.4)


def test_channel_for_kinds(profiles):
    assert channel_for(profiles["FairPhone5G"]) is None
    assert channel_for(profiles["SMBHyb_rem"]).kind == "remote_tcp"
    assert channel_for(profiles["SMBPor_rem"]).kind == "remote_udp"


def test_channel_for_coupled_profiles_is_none(profiles):
    # a coupled SIM's auth latency comes from its step table, not a relay
    coupled = [p for p in profiles.values()
               if p.channel_kind == "coupled_serial"]
    assert {"FairPhone5G", "SMBHyb_loc", "SMBPor_loc"} <= {
        p.name for p in coupled}
    for profile in coupled:
        assert channel_for(profile) is None
        assert channel_for(profile, {}, calibrate=False) is None
        with pytest.raises(ConfigError):  # its overrides are still checked
            channel_for(profile, {"sessions_auth": 4})


def test_channel_for_calibrates_remote(profiles):
    channel = channel_for(profiles["SMBPor_rem"])
    mean = sum(auth_channel_batch(channel, [RngStream(3).gen] * 2000,
                                  [1] * 2000)).mean()
    assert abs(mean / 1640.2 - 1.0) < 0.015
    raw = channel_for(profiles["SMBPor_rem"], calibrate=False)
    assert raw.processing_phases != channel.processing_phases


def test_channel_for_overrides(profiles):
    channel = channel_for(
        profiles["SMBHyb_rem"],
        overrides={"rtt": {"kind": "constant", "value": 10.0}},
        calibrate=False)
    assert channel.rtt.median_ms == 10.0
    with pytest.raises(ConfigError):
        channel_for(profiles["SMBHyb_rem"], overrides={"loss_prob": 0.5})
    with pytest.raises(ConfigError):
        channel_for(profiles["FairPhone5G"], overrides={"nonsense": 1})


def test_profile_validation():
    with pytest.raises(ConfigError):
        DeviceProfile(name="x", step_latency={}, optional_steps=frozenset(),
                      channel_kind="coupled_serial", sensitivity_rsrp=-150.0)
    with pytest.raises(ConfigError):
        DeviceProfile(name="x",
                      step_latency={s: (1.0, 0.0) for s in AttachStep},
                      optional_steps=frozenset({AttachStep.AttachRequest}),
                      channel_kind="coupled_serial", sensitivity_rsrp=-85.0)
    with pytest.raises(ConfigError):
        DeviceProfile(name="x", step_latency={AttachStep.AttachRequest: (0, 0)},
                      optional_steps=frozenset(),
                      channel_kind="coupled_serial", sensitivity_rsrp=-85.0)
    with pytest.raises(ConfigError):
        DeviceProfile(name="x",
                      step_latency={s: (1.0, 0.0) for s in AttachStep},
                      optional_steps=frozenset(),
                      channel_kind="smoke_signals", sensitivity_rsrp=-85.0)
    with pytest.raises(ConfigError):
        DeviceProfile(name="x",
                      step_latency={s: (1.0, -1.0) for s in AttachStep},
                      optional_steps=frozenset(),
                      channel_kind="coupled_serial", sensitivity_rsrp=-85.0)
