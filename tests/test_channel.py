import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attachsim import ConfigError
from attachsim import channel as chan_mod
from attachsim.channel import (
    OnlinePenalty,
    ProcessingPhase,
    RttDistribution,
    auth_channel_batch,
    build_channel,
    builtin_remote_rtt,
    calibrate_processing,
    min_transfer_floor,
)
from attachsim.core import RngStream

BUILTIN_RTT_SHA256 = (
    "67d279e343f2cf411400a2cab06beb9437945bdac3e107fbd8960ca11f91aea1")


def _sessions(channel, n, seed=0):
    """`n` single transfer sessions: the authentication phases of a
    one-session channel with no handshake and no processing."""
    one = replace(channel, sessions_auth=1, handshake_packets=0,
                  processing_phases=())
    transfer, processing = auth_channel_batch(one, [RngStream(seed).gen], [n])
    assert not processing.any()
    return transfer.tolist()


def test_rtt_constant():
    rtt = RttDistribution.constant(3.5)
    assert rtt.draw(RngStream(0).gen, 5).tolist() == [3.5] * 5
    assert rtt.median_ms == 3.5


def test_rtt_lognormal_median():
    rtt = RttDistribution.lognormal(57.4)
    samples = sorted(rtt.draw(RngStream(1).gen, 4001))
    assert rtt.median_ms == 57.4
    assert abs(samples[2000] / 57.4 - 1.0) < 0.05
    assert all(s > 0 for s in samples)


def test_rtt_empirical_draws_members():
    rtt = RttDistribution.empirical([10.0, 20.0, 40.0])
    seen = set(rtt.draw(RngStream(2).gen, 200).tolist())
    assert seen == {10.0, 20.0, 40.0}
    assert rtt.median_ms == 20.0


def test_builtin_rtt_fixture_frozen():
    rtt = builtin_remote_rtt()
    assert rtt.checksum == BUILTIN_RTT_SHA256
    assert len(rtt.samples) == 1000
    assert rtt.median_ms == 57.4
    assert statistics.median(rtt.samples) == 57.4
    assert min(rtt.samples) > 20.0
    assert abs(statistics.mean(rtt.samples) - 62.1) < 0.5


def test_tcp_session_is_two_rtts_plus_acks():
    channel = build_channel("remote_tcp", rtt=RttDistribution.constant(2.2))
    [value] = _sessions(channel, 1)
    assert value == pytest.approx(2 * 2.2 + 4 * 0.075, rel=1e-12)


def test_tcp_auth_transfer_lan_oracle():
    # constant 2.2 ms rtt: handshake 1.5 rtt + 15 sessions of (2 rtt + 0.3)
    channel = build_channel("remote_tcp", rtt=RttDistribution.constant(2.2))
    transfer, _ = auth_channel_batch(channel, [RngStream(0).gen], [1])
    assert transfer[0] == pytest.approx(73.8, rel=1e-12)


def test_udp_session_lossless_is_exactly_two_rtts():
    channel = build_channel("remote_udp", rtt=RttDistribution.constant(5.0),
                            loss_prob=0.0)
    assert _sessions(channel, 50) == [10.0] * 50
    transfer, _ = auth_channel_batch(channel, [RngStream(0).gen], [1])
    assert transfer[0] == 90.0


def test_udp_retransmission_cost_oracle():
    # loss 0.02, timeout 200, backoff x2 capped at 8: expected extra per
    # session of four packets is 16.6667 ms (geometric series)
    channel = build_channel("remote_udp", rtt=RttDistribution.constant(0.0))
    mean = statistics.mean(_sessions(channel, 20_000, seed=4))
    assert abs(mean / 16.66664 - 1.0) < 0.10


def test_udp_loss_rate_monotone_in_mean():
    means = []
    for loss in (0.0, 0.05, 0.2):
        channel = build_channel("remote_udp", rtt=RttDistribution.constant(1.0),
                                loss_prob=loss)
        means.append(statistics.mean(_sessions(channel, 3000, seed=5)))
    assert means[0] < means[1] < means[2]
    assert means[0] == 2.0


def test_a_relay_reads_every_setting_whatever_its_kind():
    """The kinds differ only in their defaults: a lossy reliable relay
    waits on retransmissions, and a datagram relay pays an ack cost."""
    gens, counts = [RngStream(5).gen], [200]
    tcp = build_channel("remote_tcp")
    lossless = auth_channel_batch(tcp, gens, counts)[0]
    lossy = auth_channel_batch(replace(tcp, loss_prob=0.3),
                               [RngStream(5).gen], counts)[0]
    assert lossy.mean() > lossless.mean() + 1000.0
    udp = build_channel("remote_udp")
    free = auth_channel_batch(udp, [RngStream(5).gen], counts)[0]
    acked = auth_channel_batch(replace(udp, ack_cost_ms=1.0),
                               [RngStream(5).gen], counts)[0]
    extra = udp.sessions_auth * udp.packets_per_session * 1.0
    np.testing.assert_array_equal(acked, free + extra, strict=True)


def test_min_transfer_floor_examples():
    assert min_transfer_floor(build_channel("remote_tcp")) == 114.8
    assert min_transfer_floor(build_channel("remote_udp")) == 114.8
    assert 2.0 * 57.4 == 114.8  # exact in binary floats
    assert min_transfer_floor(
        build_channel("remote_tcp", rtt=RttDistribution.constant(0.0))) == 0.0
    rtt = RttDistribution.empirical([10.0, 20.0, 40.0])
    assert min_transfer_floor(build_channel("remote_udp", rtt=rtt)) == 40.0


def test_auth_transfer_never_below_floor():
    for channel in (build_channel("remote_tcp"), build_channel("remote_udp")):
        floor = min_transfer_floor(channel)
        transfer, _ = auth_channel_batch(channel, [RngStream(6).gen] * 500,
                                         [1] * 500)
        assert (transfer >= floor).all()


def test_processing_totals_uncalibrated():
    # tcp: 8 x N(218, 8) + 6 x N(211, 6), clamp at 1 ms is negligible
    tcp_mean = auth_channel_batch(build_channel("remote_tcp"),
                                  [RngStream(7).gen] * 1500, [1] * 1500)[1].mean()
    assert abs(tcp_mean / 3010.0 - 1.0) < 0.015
    # udp: 6 x N(236.1, 116.3) + 6 x N(139.3, 73.6), clamp shifts the
    # analytic mean to 2263.1
    udp_mean = auth_channel_batch(build_channel("remote_udp"),
                                  [RngStream(8).gen] * 1500, [1] * 1500)[1].mean()
    assert abs(udp_mean / 2263.1 - 1.0) < 0.02


def test_packet_counts_frozen():
    for channel, packets in ((build_channel("remote_tcp"), 63),
                             (build_channel("remote_udp"), 36)):
        assert channel.sessions_auth * channel.packets_per_session \
            + channel.handshake_packets == packets


def test_online_penalty():
    assert OnlinePenalty(enabled=False).draw(RngStream(0).gen, 3).tolist() \
        == [0.0] * 3
    mean = OnlinePenalty(enabled=True).draw(RngStream(10).gen, 2000).mean()
    assert abs(mean / 460.0 - 1.0) < 0.05
    custom = OnlinePenalty(enabled=True, mean_ms=100.0, std_ms=0.0)
    assert custom.draw(RngStream(0).gen, 3).tolist() == [100.0] * 3
    with pytest.raises(ConfigError):
        OnlinePenalty(enabled=True, std_ms=-1.0)


def test_online_penalty_raises_channel_mean():
    base = build_channel("remote_tcp", rtt=RttDistribution.constant(2.0))
    slow = build_channel("remote_tcp", rtt=RttDistribution.constant(2.0),
                         online=OnlinePenalty(enabled=True))
    base_mean = auth_channel_batch(base, [RngStream(11).gen] * 800,
                                   [1] * 800)[0].mean()
    slow_mean = auth_channel_batch(slow, [RngStream(11).gen] * 800,
                                   [1] * 800)[0].mean()
    assert abs((slow_mean - base_mean) / 460.0 - 1.0) < 0.10


def test_calibration_hits_target():
    for channel, target in ((build_channel("remote_tcp"), 2122.7),
                            (build_channel("remote_udp"), 1640.2)):
        tuned = calibrate_processing(channel, target)
        mean = sum(auth_channel_batch(tuned, [RngStream(12).gen] * 3000,
                                      [1] * 3000)).mean()
        assert abs(mean / target - 1.0) < 0.01


def _exact_mean(channel):
    return (chan_mod._expected_transfer_ms(channel)
            + chan_mod._expected_processing(channel.processing_phases, 1.0)[0])


def test_exact_calibration_oracle():
    # constant rtt, no loss, deterministic phases: the mean is linear in the
    # scale, transfer is 1.5 rtt + 15 sessions of (2 rtt + 0.3) = 73.8 ms
    phases = (tuple(ProcessingPhase("SimBank", 218.0, 0.0) for _ in range(8))
              + tuple(ProcessingPhase("Gateway", 211.0, 0.0) for _ in range(6)))
    channel = build_channel("remote_tcp", rtt=RttDistribution.constant(2.2),
                            processing_phases=phases)
    tuned = calibrate_processing(channel, 2122.7)
    scale = tuned.processing_phases[0].mean_ms / 218.0
    assert scale == pytest.approx((2122.7 - 73.8) / 3010.0, rel=1e-12)
    assert all(p.mean_ms / q.mean_ms == pytest.approx(scale, rel=1e-15)
               for p, q in zip(tuned.processing_phases, phases))
    transfer, processing = auth_channel_batch(tuned, [RngStream(0).gen], [1])
    assert transfer[0] + processing[0] == pytest.approx(2122.7, rel=1e-12)


def test_calibrated_mean_is_exact_and_sampled():
    channel = build_channel("remote_udp",
                            rtt=RttDistribution.lognormal(40.0, sigma=0.5),
                            loss_prob=0.05,
                            online=OnlinePenalty(enabled=True, mean_ms=100.0,
                                                 std_ms=80.0))
    target = 2500.0
    for base, goal in ((channel, target), (build_channel("remote_tcp"), 2122.7),
                       (build_channel("remote_udp"), 1640.2),
                       (build_channel("remote_udp", loss_prob=0.05), 1640.2)):
        assert _exact_mean(calibrate_processing(base, goal)) == \
            pytest.approx(goal, rel=1e-9)
    tuned = calibrate_processing(channel, target)
    draws = sum(auth_channel_batch(tuned, [RngStream(20).gen] * 40_000,
                                   [1] * 40_000))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


_BATCH_CHANNELS = (
    build_channel("remote_tcp"),
    build_channel("remote_udp", loss_prob=0.05),
    build_channel("remote_udp", rtt=RttDistribution.lognormal(40.0, sigma=0.5),
                  loss_prob=0.3,
                  online=OnlinePenalty(enabled=True, mean_ms=100.0,
                                       std_ms=80.0)),
    build_channel("remote_tcp",
                  rtt=RttDistribution.empirical([10.0, 20.0, 40.0])),
)


def _reference_auth_channel_draws(channel, gen, m):
    """One generator's `m` phases as they ran before the sums were
    stacked: each sum beside its draws.  The oracle of
    auth_channel_batch."""
    sessions = channel.sessions_auth
    setup = 0.5 * channel.handshake_packets
    width = 2 * sessions + (setup > 0)
    rtts = channel.rtt.draw(gen, m * width).reshape(m, width)
    transfer = (setup * rtts[:, 0] + rtts[:, 1:].sum(axis=1) if setup
                else rtts.sum(axis=1))
    packets = sessions * channel.packets_per_session
    transfer = transfer + packets * channel.ack_cost_ms
    if channel.loss_prob > 0.0 and packets:
        losses = gen.geometric(1.0 - channel.loss_prob, (m, packets)) - 1
        top = int(losses.max(initial=0))
        if top:
            transfer += channel.retransmit_timeout_ms * \
                chan_mod._backoff_prefix(top)[losses].sum(axis=1)
    transfer += channel.online.draw(gen, m)
    means, stds = channel._phase_moments
    draws = means + stds * gen.standard_normal((m, len(means)))
    return transfer, np.maximum(draws, chan_mod.PROCESSING_FLOOR_MS).sum(axis=1)


@pytest.mark.parametrize("channel", _BATCH_CHANNELS + (
    build_channel("remote_udp", loss_prob=0.0, processing_phases=()),
    build_channel("remote_udp", rtt=RttDistribution.constant(30.0),
                  loss_prob=0.9),))
def test_auth_channel_batch_equals_one_generator_at_a_time(channel):
    # the 450 rows fill more than one stack of sums; 0 draws nothing
    counts = [5, 0, 7, 450, 1, 30]
    got = chan_mod.auth_channel_batch(
        channel, [RngStream(3).substream(i).gen for i in range(len(counts))],
        counts)
    want = [_reference_auth_channel_draws(channel, RngStream(3).substream(i).gen,
                                          m) for i, m in enumerate(counts)]
    for got_totals, want_totals in zip(got, zip(*want)):
        np.testing.assert_array_equal(got_totals, np.concatenate(want_totals),
                                      strict=True)
    assert sum(counts) > chan_mod._STACK_ROWS
    transfer, processing = auth_channel_batch(channel, [RngStream(0).gen], [0])
    assert transfer.shape == processing.shape == (0,)


@pytest.mark.parametrize("channel, target", [
    (build_channel("remote_tcp"), 2122.7),
    (build_channel("remote_udp", loss_prob=0.05), 1640.2),
    (build_channel("remote_udp", rtt=RttDistribution.lognormal(40.0, sigma=0.5),
                   online=OnlinePenalty(enabled=True, mean_ms=100.0,
                                        std_ms=80.0)), 2500.0),
    # a reliable relay waits on its losses as a datagram one does
    (replace(build_channel("remote_tcp"), loss_prob=0.3), 12_000.0),
], ids=["tcp", "udp_loss_0.05", "lognormal_online", "tcp_loss_0.3"])
def test_batch_mean_is_calibrated_mean(channel, target):
    tuned = calibrate_processing(channel, target)
    transfer, processing = auth_channel_batch(
        tuned, [RngStream(21).gen], [40_000])
    draws = transfer + processing
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - _exact_mean(tuned)) < 3 * se
    assert transfer.min() >= min_transfer_floor(tuned)
    assert processing.min() >= len(tuned.processing_phases) \
        * chan_mod.PROCESSING_FLOOR_MS


def test_expected_backoff_matches_series():
    b, cap = 2.0, 8.0
    for p in (0.0, 0.02, 0.3, 0.5, 0.9):  # at 0.5, b * p is 1
        channel = build_channel("remote_udp", rtt=RttDistribution.constant(0.0),
                                loss_prob=p)
        series, factor = 0.0, 1.0
        for a in range(2000):
            series += min(factor, cap) * p ** (a + 1)
            factor = min(factor * b, cap)
        assert chan_mod._expected_backoff(channel) == pytest.approx(
            series, rel=1e-12, abs=1e-300)
        prefix = chan_mod._backoff_prefix(12)
        assert list(prefix) == pytest.approx(
            [sum(min(b ** k, cap) for k in range(a)) for a in range(13)],
            rel=1e-15)


def test_same_seed_same_breakdown():
    online = OnlinePenalty(enabled=True)
    for channel in (build_channel("remote_tcp"),
                    build_channel("remote_udp", loss_prob=0.3, online=online),
                    build_channel("remote_tcp",
                                  rtt=RttDistribution.lognormal(50.0))):
        a = [np.concatenate(auth_channel_batch(
            channel, [RngStream(7, (2,)).gen], [1])).tolist() for _ in range(3)]
        b = [np.concatenate(auth_channel_batch(
            channel, [RngStream(7, (2,)).gen], [1])).tolist() for _ in range(3)]
        assert a == b
        assert np.concatenate(auth_channel_batch(
            channel, [RngStream(8, (2,)).gen], [1])).tolist() != a[0]


def test_calibration_imports_no_optimizer():
    # importing scipy.optimize adds over 20 MB of resident memory to a run
    code = ("import sys, attachsim\n"
            "profiles = attachsim.builtin_profiles()\n"
            "for name in ('SMBHyb_rem', 'SMBPor_rem'):\n"
            "    attachsim.channel_for(profiles[name])\n"
            "assert 'scipy.optimize' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(chan_mod.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_cli_commands_import_no_scipy(tmp_path):
    # importing scipy roughly doubles the start-up time of every command
    code = ("import json, sys\n"
            "from attachsim.cli import main\n"
            "out = sys.argv[1]\n"
            "for name, seed in (('test', 1), ('base', 2)):\n"
            "    with open(f'{out}/{name}.json', 'w') as f:\n"
            "        json.dump({'version': 1, 'seed': seed,\n"
            "                   'attaches_per_device': 4,\n"
            "                   'fleet': [{'profile': 'FairPhone5G',\n"
            "                              'count': 2}]}, f)\n"
            "    assert main(['simulate', '--config', f'{out}/{name}.json',\n"
            "                 '--out', f'{out}/{name}']) == 0\n"
            "assert main(['detect', '--logs', f'{out}/test/logs.jsonl',\n"
            "             '--baseline', f'{out}/base/logs.jsonl',\n"
            "             '--report', f'{out}/report.csv']) in (0, 2)\n"
            "assert main(['distribution', '--logs', f'{out}/test/logs.jsonl',\n"
            "             '--step', 'AuthenticationResponse',\n"
            "             '--out', f'{out}/dist.csv']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            # detect's fork-join uses os.fork, not these (12-40 ms of import)
            "pools = {'multiprocessing', 'concurrent.futures', 'subprocess'}\n"
            "assert not pools & set(sys.modules), pools & set(sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(chan_mod.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                   env=env)


def test_calibration_deterministic():
    a = calibrate_processing(build_channel("remote_tcp"), 2122.7)
    b = calibrate_processing(build_channel("remote_tcp"), 2122.7)
    assert a.processing_phases == b.processing_phases


def test_calibration_infeasible_target():
    with pytest.raises(ConfigError):
        calibrate_processing(build_channel("remote_tcp"), 100.0)
    bare = build_channel("remote_udp", rtt=RttDistribution.constant(1.0),
                         processing_phases=())
    with pytest.raises(ConfigError):
        calibrate_processing(bare, 500.0)


def test_degenerate_channel_is_all_zero():
    channel = build_channel("remote_udp", rtt=RttDistribution.constant(0.0),
                            loss_prob=0.0, processing_phases=())
    transfer, processing = auth_channel_batch(channel, [RngStream(0).gen], [1])
    assert (transfer[0], processing[0]) == (0.0, 0.0)


def test_build_channel_dispatch():
    assert build_channel("remote_tcp").kind == "remote_tcp"
    assert build_channel("remote_udp", loss_prob=0.1).loss_prob == 0.1
    with pytest.raises(ConfigError):
        build_channel("carrier_pigeon")


def test_channel_validation():
    with pytest.raises(ConfigError):
        build_channel("remote_udp", loss_prob=1.5)
    with pytest.raises(ConfigError):
        build_channel("remote_udp", loss_prob=-0.1)
    with pytest.raises(ConfigError):
        # no packet would ever be delivered
        build_channel("remote_udp", loss_prob=1.0)
    with pytest.raises(ConfigError):
        build_channel("remote_tcp", sessions_auth=-1)
    with pytest.raises(ConfigError):
        ProcessingPhase("SimBank", -1.0, 0.0)
    with pytest.raises(ConfigError):
        RttDistribution.constant(-1.0)
    with pytest.raises(ConfigError):
        RttDistribution.lognormal(50.0, sigma=-0.35)
    # a negative ack cost would break the two-RTT transfer floor
    for bad in (-30.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ConfigError):
            build_channel("remote_tcp", ack_cost_ms=bad)
    assert build_channel("remote_tcp", ack_cost_ms=0.0).ack_cost_ms == 0.0


def test_rtt_from_file_matches_builtin(tmp_path):
    from importlib import resources
    text = (resources.files(chan_mod.__package__) / "data" / "rtt_remote_ms.txt"
            ).read_text()
    path = tmp_path / "rtt.txt"
    path.write_text(text)
    loaded = RttDistribution.from_file(path)
    assert loaded.checksum == BUILTIN_RTT_SHA256
    assert loaded.median_ms == 57.4


def test_channel_is_frozen():
    channel = build_channel("remote_tcp")
    with pytest.raises(Exception):
        channel.loss_prob = 0.5
