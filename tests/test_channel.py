import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attachsim import (
    ConfigError,
    OnlinePenalty,
    RngStream,
    RttDistribution,
    SimChannel,
    auth_channel_elapsed,
    build_channel,
    builtin_remote_rtt,
    calibrate_processing,
    coupled_serial,
    min_transfer_floor,
    remote_tcp,
    remote_udp,
)
from attachsim import channel as chan_mod
from attachsim.channel import ProcessingPhase, auth_channel_draws

BUILTIN_RTT_SHA256 = (
    "67d279e343f2cf411400a2cab06beb9437945bdac3e107fbd8960ca11f91aea1")


def _mean(fn, n, seed=0):
    rng = RngStream(seed)
    return sum(fn(rng) for _ in range(n)) / n


def _sessions(channel, n, seed=0):
    """`n` single transfer sessions: the authentication phases of a
    one-session channel with no handshake and no processing."""
    one = replace(channel, sessions_auth=1, handshake_packets=0,
                  processing_phases=())
    transfer, processing = auth_channel_draws(one, RngStream(seed).gen, n)
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


def test_coupled_transfer_clamped_serial():
    samples = _sessions(coupled_serial(), 4000, seed=3)
    assert min(samples) >= 0.01
    # clamped N(0.12, 0.15) at 0.01: analytic mean 0.140248
    assert abs(statistics.mean(samples) / 0.140248 - 1.0) < 0.05


def test_tcp_session_is_two_rtts_plus_acks():
    channel = remote_tcp(rtt=RttDistribution.constant(2.2))
    [value] = _sessions(channel, 1)
    assert value == pytest.approx(2 * 2.2 + 4 * 0.075, rel=1e-12)


def test_tcp_auth_transfer_lan_oracle():
    # constant 2.2 ms rtt: handshake 1.5 rtt + 15 sessions of (2 rtt + 0.3)
    channel = remote_tcp(rtt=RttDistribution.constant(2.2))
    bd = auth_channel_elapsed(channel, RngStream(0))
    assert bd.transfer_total_ms == pytest.approx(73.8, rel=1e-12)
    assert bd.total_ms == bd.transfer_total_ms + bd.processing_total_ms


def test_udp_session_lossless_is_exactly_two_rtts():
    channel = remote_udp(rtt=RttDistribution.constant(5.0), loss_prob=0.0)
    assert _sessions(channel, 50) == [10.0] * 50
    bd = auth_channel_elapsed(channel, RngStream(0))
    assert bd.transfer_total_ms == 90.0


def test_udp_retransmission_cost_oracle():
    # loss 0.02, timeout 200, backoff x2 capped at 8: expected extra per
    # session of four packets is 16.6667 ms (geometric series)
    channel = remote_udp(rtt=RttDistribution.constant(0.0))
    mean = statistics.mean(_sessions(channel, 20_000, seed=4))
    assert abs(mean / 16.66664 - 1.0) < 0.10


def test_udp_loss_rate_monotone_in_mean():
    means = []
    for loss in (0.0, 0.05, 0.2):
        channel = remote_udp(rtt=RttDistribution.constant(1.0), loss_prob=loss)
        means.append(statistics.mean(_sessions(channel, 3000, seed=5)))
    assert means[0] < means[1] < means[2]
    assert means[0] == 2.0


def test_min_transfer_floor_examples():
    assert min_transfer_floor(remote_tcp()) == 114.8
    assert min_transfer_floor(remote_udp()) == 114.8
    assert 2.0 * 57.4 == 114.8  # exact in binary floats
    assert min_transfer_floor(
        remote_tcp(rtt=RttDistribution.constant(0.0))) == 0.0
    rtt = RttDistribution.empirical([10.0, 20.0, 40.0])
    assert min_transfer_floor(remote_udp(rtt=rtt)) == 40.0
    with pytest.raises(ConfigError):
        min_transfer_floor(coupled_serial())


def test_auth_transfer_never_below_floor():
    for channel in (remote_tcp(), remote_udp()):
        floor = min_transfer_floor(channel)
        rng = RngStream(6)
        for _ in range(500):
            assert auth_channel_elapsed(channel, rng).transfer_total_ms >= floor


def test_processing_totals_uncalibrated():
    # tcp: 8 x N(218, 8) + 6 x N(211, 6), clamp at 1 ms is negligible
    tcp_mean = _mean(
        lambda r: auth_channel_elapsed(remote_tcp(), r).processing_total_ms,
        1500, seed=7)
    assert abs(tcp_mean / 3010.0 - 1.0) < 0.015
    # udp: 6 x N(236.1, 116.3) + 6 x N(139.3, 73.6), clamp shifts the
    # analytic mean to 2263.1
    udp_mean = _mean(
        lambda r: auth_channel_elapsed(remote_udp(), r).processing_total_ms,
        1500, seed=8)
    assert abs(udp_mean / 2263.1 - 1.0) < 0.02


def test_coupled_auth_elapsed():
    channel = coupled_serial()
    rng = RngStream(9)
    transfer, processing = [], []
    for _ in range(1500):
        bd = auth_channel_elapsed(channel, rng)
        transfer.append(bd.transfer_total_ms)
        processing.append(bd.processing_total_ms)
    # four serial transfers; phases 2 x SimCard(15.6, 14.5) + 3 x Me(9.4, 10.8)
    # clamped at 1 ms give analytic mean 65.834
    assert abs(statistics.mean(transfer) / (4 * 0.140248) - 1.0) < 0.10
    assert abs(statistics.mean(processing) / 65.834 - 1.0) < 0.05


def test_packet_counts_frozen():
    for channel, packets in ((remote_tcp(), 63), (remote_udp(), 36)):
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
    base = remote_tcp(rtt=RttDistribution.constant(2.0))
    slow = remote_tcp(rtt=RttDistribution.constant(2.0),
                      online=OnlinePenalty(enabled=True))
    base_mean = _mean(lambda r: auth_channel_elapsed(base, r).transfer_total_ms,
                      800, seed=11)
    slow_mean = _mean(lambda r: auth_channel_elapsed(slow, r).transfer_total_ms,
                      800, seed=11)
    assert abs((slow_mean - base_mean) / 460.0 - 1.0) < 0.10


def test_calibration_hits_target():
    for channel, target in ((remote_tcp(), 2122.7), (remote_udp(), 1640.2)):
        tuned = calibrate_processing(channel, target)
        mean = _mean(lambda r: auth_channel_elapsed(tuned, r).total_ms,
                     3000, seed=12)
        assert abs(mean / target - 1.0) < 0.01


def _exact_mean(channel):
    return (chan_mod._expected_transfer_ms(channel)
            + chan_mod._expected_processing(channel.processing_phases, 1.0)[0])


def test_exact_calibration_oracle():
    # constant rtt, no loss, deterministic phases: the mean is linear in the
    # scale, transfer is 1.5 rtt + 15 sessions of (2 rtt + 0.3) = 73.8 ms
    phases = (tuple(ProcessingPhase("SimBank", 218.0, 0.0) for _ in range(8))
              + tuple(ProcessingPhase("Gateway", 211.0, 0.0) for _ in range(6)))
    channel = remote_tcp(rtt=RttDistribution.constant(2.2),
                         processing_phases=phases)
    tuned = calibrate_processing(channel, 2122.7)
    scale = tuned.processing_phases[0].mean_ms / 218.0
    assert scale == pytest.approx((2122.7 - 73.8) / 3010.0, rel=1e-12)
    assert all(p.mean_ms / q.mean_ms == pytest.approx(scale, rel=1e-15)
               for p, q in zip(tuned.processing_phases, phases))
    bd = auth_channel_elapsed(tuned, RngStream(0))
    assert bd.total_ms == pytest.approx(2122.7, rel=1e-12)


def test_calibrated_mean_is_exact_and_sampled():
    channel = remote_udp(rtt=RttDistribution.lognormal(40.0, sigma=0.5),
                         loss_prob=0.05,
                         online=OnlinePenalty(enabled=True, mean_ms=100.0,
                                              std_ms=80.0))
    target = 2500.0
    for base, goal in ((channel, target), (remote_tcp(), 2122.7),
                       (remote_udp(), 1640.2),
                       (remote_udp(loss_prob=0.05), 1640.2)):
        assert _exact_mean(calibrate_processing(base, goal)) == \
            pytest.approx(goal, rel=1e-9)
    tuned = calibrate_processing(channel, target)
    rng = RngStream(20)
    draws = np.array([auth_channel_elapsed(tuned, rng).total_ms
                      for _ in range(40_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


_BATCH_CHANNELS = (
    remote_tcp(),
    remote_udp(loss_prob=0.05),
    remote_udp(rtt=RttDistribution.lognormal(40.0, sigma=0.5), loss_prob=0.3,
               online=OnlinePenalty(enabled=True, mean_ms=100.0, std_ms=80.0)),
    remote_tcp(rtt=RttDistribution.empirical([10.0, 20.0, 40.0])),
    coupled_serial(),
)


def _reference_auth_channel_draws(channel, gen, m):
    """auth_channel_draws as it ran before the sums were stacked: each
    sum beside its draws, one generator at a time.  The oracle of
    auth_channel_batch."""
    sessions = channel.sessions_auth
    if channel.kind == chan_mod.COUPLED_SERIAL:
        draws = gen.normal(channel.serial_mean_ms, channel.serial_std_ms,
                           (m, sessions))
        transfer = np.maximum(draws, chan_mod.SERIAL_FLOOR_MS).sum(axis=1)
    else:
        setup = 0.5 * channel.handshake_packets
        width = 2 * sessions + (setup > 0)
        rtts = channel.rtt.draw(gen, m * width).reshape(m, width)
        transfer = (setup * rtts[:, 0] + rtts[:, 1:].sum(axis=1) if setup
                    else rtts.sum(axis=1))
        packets = sessions * channel.packets_per_session
        if channel.kind == chan_mod.REMOTE_TCP:
            transfer = transfer + packets * channel.ack_cost_ms
        elif channel.loss_prob > 0.0 and packets:
            losses = gen.geometric(1.0 - channel.loss_prob, (m, packets)) - 1
            top = int(losses.max(initial=0))
            if top:
                transfer += channel.retransmit_timeout_ms * \
                    chan_mod._backoff_prefix(channel, top)[losses].sum(axis=1)
    transfer += channel.online.draw(gen, m)
    means, stds = channel._phase_moments
    draws = means + stds * gen.standard_normal((m, len(means)))
    return transfer, np.maximum(draws, chan_mod.PROCESSING_FLOOR_MS).sum(axis=1)


@pytest.mark.parametrize("channel", _BATCH_CHANNELS + (
    remote_udp(rtt=RttDistribution.constant(30.0), loss_prob=0.9),))
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


def test_auth_channel_elapsed_is_one_row_batch():
    for channel in _BATCH_CHANNELS:
        for seed in range(5):
            bd = auth_channel_elapsed(channel, RngStream(seed))
            transfer, processing = chan_mod.auth_channel_draws(
                channel, RngStream(seed).gen, 1)
            assert (bd.transfer_total_ms, bd.processing_total_ms) == \
                (transfer[0], processing[0])
        transfer, processing = chan_mod.auth_channel_draws(
            channel, RngStream(0).gen, 0)
        assert transfer.shape == processing.shape == (0,)


@pytest.mark.parametrize("channel, target", [
    (remote_tcp(), 2122.7),
    (remote_udp(loss_prob=0.05), 1640.2),
    (remote_udp(rtt=RttDistribution.lognormal(40.0, sigma=0.5),
                online=OnlinePenalty(enabled=True, mean_ms=100.0,
                                     std_ms=80.0)), 2500.0),
], ids=["tcp", "udp_loss_0.05", "lognormal_online"])
def test_batch_mean_is_calibrated_mean(channel, target):
    tuned = calibrate_processing(channel, target)
    transfer, processing = chan_mod.auth_channel_draws(
        tuned, RngStream(21).gen, 40_000)
    draws = transfer + processing
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - _exact_mean(tuned)) < 3 * se
    assert transfer.min() >= min_transfer_floor(tuned)
    assert processing.min() >= len(tuned.processing_phases) \
        * chan_mod.PROCESSING_FLOOR_MS


def test_expected_backoff_matches_series():
    for b, cap in ((2.0, 8.0), (1.0, 8.0), (1.0, 1.0), (3.0, 1.0),
                   (1.5, 100.0), (2.0, 5.0)):
        for p in (0.0, 0.02, 0.3, 0.9):
            channel = remote_udp(rtt=RttDistribution.constant(0.0),
                                 loss_prob=p)
            channel = replace(channel, backoff_factor=b, backoff_cap=cap)
            series, factor = 0.0, 1.0
            for a in range(2000):
                series += min(factor, cap) * p ** (a + 1)
                factor = min(factor * b, cap)
            assert chan_mod._expected_backoff(channel) == pytest.approx(
                series, rel=1e-12, abs=1e-300)
            prefix = chan_mod._backoff_prefix(channel, 12)
            assert list(prefix) == pytest.approx(
                [sum(min(b ** k, cap) for k in range(a)) for a in range(13)],
                rel=1e-15)


def test_same_seed_same_breakdown():
    online = OnlinePenalty(enabled=True)
    for channel in (remote_tcp(), remote_udp(loss_prob=0.3, online=online),
                    remote_tcp(rtt=RttDistribution.lognormal(50.0)),
                    coupled_serial()):
        a = [auth_channel_elapsed(channel, RngStream(7, (2,)))
             for _ in range(3)]
        b = [auth_channel_elapsed(channel, RngStream(7, (2,)))
             for _ in range(3)]
        assert a == b
        assert auth_channel_elapsed(channel, RngStream(8, (2,))) != a[0]


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
    a = calibrate_processing(remote_tcp(), 2122.7)
    b = calibrate_processing(remote_tcp(), 2122.7)
    assert a.processing_phases == b.processing_phases


def test_calibration_infeasible_target():
    with pytest.raises(ConfigError):
        calibrate_processing(remote_tcp(), 100.0)
    with pytest.raises(ConfigError):
        calibrate_processing(coupled_serial(), 100.0)
    bare = remote_udp(rtt=RttDistribution.constant(1.0), processing_phases=())
    with pytest.raises(ConfigError):
        calibrate_processing(bare, 500.0)


def test_degenerate_channel_is_all_zero():
    channel = remote_udp(rtt=RttDistribution.constant(0.0), loss_prob=0.0,
                         processing_phases=())
    bd = auth_channel_elapsed(channel, RngStream(0))
    assert (bd.transfer_total_ms, bd.processing_total_ms) == (0.0, 0.0)


def test_build_channel_dispatch():
    assert build_channel("coupled_serial").kind == "coupled_serial"
    assert build_channel("remote_tcp").kind == "remote_tcp"
    assert build_channel("remote_udp", loss_prob=0.1).loss_prob == 0.1
    with pytest.raises(ConfigError):
        build_channel("carrier_pigeon")


def test_channel_validation():
    with pytest.raises(ConfigError):
        remote_udp(loss_prob=1.5)
    with pytest.raises(ConfigError):
        remote_udp(loss_prob=-0.1)
    with pytest.raises(ConfigError):
        remote_udp(loss_prob=1.0)  # no packet would ever be delivered
    with pytest.raises(ConfigError):
        remote_tcp(sessions_auth=-1)
    with pytest.raises(ConfigError):
        ProcessingPhase("SimBank", -1.0, 0.0)
    with pytest.raises(ConfigError):
        RttDistribution.constant(-1.0)
    with pytest.raises(ConfigError):
        RttDistribution.lognormal(50.0, sigma=-0.35)
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ConfigError):
            replace(remote_udp(), backoff_factor=bad)
        with pytest.raises(ConfigError):
            replace(remote_udp(), backoff_cap=bad)
    # a negative ack cost would break the two-RTT transfer floor
    for bad in (-30.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ConfigError):
            remote_tcp(ack_cost_ms=bad)
    assert remote_tcp(ack_cost_ms=0.0).ack_cost_ms == 0.0


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
    channel = remote_tcp()
    with pytest.raises(Exception):
        channel.loss_prob = 0.5
