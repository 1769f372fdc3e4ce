import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from attachsim import (
    AttachRecord,
    AttachStep,
    ConfigError,
    DegenerateInput,
    Decision,
    DetectPolicy,
    EmptyWindow,
    LatencyStats,
    MalformedRecord,
    Outcome,
    ReauthPolicy,
    RngStream,
    SignalingMessage,
    classify,
    compute_step_latencies,
    welch_t,
)
from attachsim.core import TIME_QUANTUM_MS
from attachsim.monitor import _student_sf, schedule_devices


def _record(times_steps, device="dev-000", outcome=Outcome.Completed):
    msgs = [
        SignalingMessage(time=t, direction=AttachStep(i).direction,
                         device_id=device, message=AttachStep(i).name)
        for t, i in times_steps
    ]
    return AttachRecord(device_id=device, messages=msgs, outcome=outcome)


def _stats(n, mean, std):
    return LatencyStats(n=n, mean=mean, std=std, median=mean,
                        min=mean - 3 * std, max=mean + 3 * std)


def test_step_latencies_basic():
    record = _record([(100.0, 0), (101.0, 1), (132.0, 2)])
    samples = compute_step_latencies(record)
    assert [s.latency for s in samples] == [1.0, 31.0]
    assert [s.step for s in samples] == [AttachStep.IdentityRequest,
                                         AttachStep.IdentityResponse]
    assert all(s.device_id == "dev-000" for s in samples)
    assert [s.wall_time for s in samples] == [101.0, 132.0]


def test_step_latencies_zero_gap_allowed():
    record = _record([(5.0, 0), (5.0, 1)])
    assert [s.latency for s in compute_step_latencies(record)] == [0.0]


def test_step_latencies_trivial_records():
    assert compute_step_latencies(_record([(9.0, 0)])) == []
    assert compute_step_latencies(_record([])) == []


def test_step_latencies_reject_malformed():
    with pytest.raises(MalformedRecord):
        compute_step_latencies(_record([(0.0, 1), (1.0, 1)]))
    with pytest.raises(MalformedRecord):
        compute_step_latencies(_record([(0.0, 3), (1.0, 1)]))
    with pytest.raises(MalformedRecord):
        compute_step_latencies(_record([(10.0, 0), (9.0, 1)]))


def test_latency_stats_validation():
    stats = LatencyStats.from_samples([70.0, 70.0, 70.0])
    assert (stats.n, stats.mean, stats.std, stats.median) == (3, 70.0, 0.0, 70.0)
    stats = LatencyStats.from_samples([60.0, 70.0, 80.0])
    assert stats.std == pytest.approx(10.0)  # hand value: stdev({60,70,80})
    assert (stats.min, stats.max) == (60.0, 80.0)
    assert LatencyStats.from_samples([4.0]).std == 0.0
    with pytest.raises(EmptyWindow):
        LatencyStats.from_samples([])
    with pytest.raises(DegenerateInput):
        LatencyStats(n=0, mean=0, std=0, median=0, min=0, max=0)
    with pytest.raises(DegenerateInput):
        LatencyStats(n=2, mean=1, std=1, median=5, min=0, max=2)
    with pytest.raises(DegenerateInput):  # the sum overflows to inf
        LatencyStats.from_samples([1.5e308] * 3)


@given(st.data())
def test_row_fields_match_from_samples_bit_for_bit(data):
    """The stats of each row of a (k, n) array of lattice samples are those
    of from_samples over the row alone, for n past numpy's 128-element
    pairwise summation block, odd and even."""
    n = data.draw(st.integers(2, 300))
    k = data.draw(st.integers(1, 4))
    ticks = data.draw(st.lists(st.integers(0, 2 ** 30), min_size=n * k,
                               max_size=n * k))
    rows = (np.array(ticks, np.int64) / 1024.0).reshape(k, n)
    for row, fields in zip(rows, LatencyStats.row_fields(rows)):
        assert LatencyStats(*fields) == LatencyStats.from_samples(
            row.tolist())
        assert np.array(fields[1:]).tobytes() == np.array(
            [float(np.mean(row)), float(np.std(row, ddof=1)),
             float(np.median(row)), row.min(), row.max()]).tobytes()


def test_latency_stats_order_statistics_match_numpy():
    rng = np.random.default_rng(7)
    for n in list(range(1, 12)) + [50, 51, 400]:
        for values in (rng.lognormal(4.0, 1.0, n),
                       np.round(rng.normal(60.0, 5.0, n) * 4) / 4):  # ties
            stats = LatencyStats.from_samples(values.tolist())
            assert (stats.median, stats.min, stats.max) == (
                float(np.median(values)), float(np.min(values)),
                float(np.max(values)))
            assert stats.mean == float(np.mean(values))


def test_welch_t_frozen_example():
    # A(mean 10, std 1, n 50) vs B(mean 12, std 1, n 50), by hand:
    # se = sqrt(1/50 + 1/50) = 0.2, t_welch = 2 / 0.2 = 10,
    # t = 2 / sqrt(0.04 * (2/50)) = 50, df = 98
    result = welch_t(_stats(50, 10.0, 1.0), _stats(50, 12.0, 1.0))
    assert result.se == pytest.approx(0.2, rel=1e-12)
    assert result.t_welch == pytest.approx(10.0, rel=1e-12)
    assert result.t == pytest.approx(50.0, rel=1e-12)
    assert result.df == pytest.approx(98.0, rel=1e-9)
    assert result.p_value == pytest.approx(6.051268763311115e-17, rel=1e-6)
    assert result.t_ratio == pytest.approx(50.0 / 1.65, rel=1e-12)


def test_welch_t_symmetry():
    a, b = _stats(40, 10.0, 2.0), _stats(60, 14.0, 3.0)
    r1, r2 = welch_t(a, b), welch_t(b, a)
    assert r1.t == pytest.approx(r2.t, rel=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)


def test_welch_t_monotone_in_gap():
    base = _stats(50, 10.0, 1.0)
    ts = [welch_t(base, _stats(50, 10.0 + gap, 1.0)).t
          for gap in (0.5, 1.0, 2.0, 4.0)]
    assert ts == sorted(ts)


def test_welch_t_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        welch_t(_stats(1, 10.0, 1.0), _stats(50, 12.0, 1.0))
    equal = welch_t(_stats(10, 5.0, 0.0), _stats(10, 5.0, 0.0))
    assert (equal.t, equal.t_welch, equal.p_value) == (0.0, 0.0, 0.5)
    with pytest.raises(DegenerateInput):
        welch_t(_stats(10, 5.0, 0.0), _stats(10, 6.0, 0.0))


def test_welch_t_overflowing_df_is_degenerate():
    # finite stats whose Welch-Satterthwaite terms leave the float range:
    # (va/na + vb/nb)**2 overflows, or (va/na)**2 underflows to 0 on both
    # sides while se stays above 0
    huge = LatencyStats.from_samples([10.0, 1e100, 2e100])
    with pytest.raises(DegenerateInput, match="degrees of freedom"):
        welch_t(LatencyStats.from_samples([50.0, 60.0, 70.0]), huge)
    with pytest.raises(DegenerateInput, match="degrees of freedom"):
        welch_t(_stats(3, 1.0, 1e-160), _stats(3, 1.0, 1e-160))
    with pytest.raises(DegenerateInput, match="variance"):
        welch_t(_stats(3, 1.0, 1e200), _stats(3, 2.0, 1.0))


@given(st.integers(2, 400), st.integers(2, 400),
       st.floats(0.0, 100.0), st.floats(0.1, 40.0),
       st.floats(0.0, 100.0), st.floats(0.1, 40.0))
def test_property_double_normalized_identity(na, nb, ma, sa, mb, sb):
    result = welch_t(_stats(na, ma, sa), _stats(nb, mb, sb))
    assert result.t == pytest.approx(
        result.t_welch / math.sqrt(1.0 / na + 1.0 / nb), rel=1e-12)


@given(st.floats(0.5, 50.0))
def test_property_t_scale_invariant(scale):
    r1 = welch_t(_stats(30, 10.0, 2.0), _stats(40, 15.0, 3.0))
    r2 = welch_t(_stats(30, 10.0 * scale, 2.0 * scale),
                 _stats(40, 15.0 * scale, 3.0 * scale))
    assert r2.t == pytest.approx(r1.t, rel=1e-9)
    assert r2.p_value == pytest.approx(r1.p_value, rel=1e-6)


def _welch_at(t, df):
    """welch_t on two equal-size, unit-variance groups whose Welch
    statistic is t at even degrees of freedom df = 2n - 2."""
    n = int(df) // 2 + 1
    result = welch_t(_stats(n, 0.0, 1.0), _stats(n, t * math.sqrt(2.0 / n), 1.0))
    assert result.df == pytest.approx(df, rel=1e-12)
    assert result.t_welch == pytest.approx(t, rel=1e-12)
    return result


def test_student_tail_matches_scipy_grid():
    for df in (4.0, 10.0, 30.0, 98.0, 150.0, 198.0):
        for t in (0.5, 1.65, 2.5, 5.0, 10.0):
            result = _welch_at(t, df)
            ref = scipy.stats.t.sf(result.t_welch, result.df)
            assert result.p_value == pytest.approx(ref, rel=1e-10), (t, df)


def test_welch_p_value_exact_above_df_200():
    # the tail stays the exact Student one past df 200, where a normal
    # approximation would be off by several percent deep in the tail
    for df in (202.0, 250.0, 1000.0, 1e6):
        for t in (0.5, 1.65, 3.0, 6.0):
            result = _welch_at(t, df)
            ref = scipy.stats.t.sf(result.t_welch, result.df)
            assert result.p_value == pytest.approx(ref, rel=1e-10), (t, df)


@pytest.mark.parametrize("df_max", [1e6, 1e15])
def test_student_sf_matches_scipy_on_random_grid(df_max):
    # Welch df reaches n_a + n_b - 2, so the grid runs past df 1e6 too
    rng = np.random.default_rng(20261018)
    t = rng.uniform(0.0, 40.0, 10_000)
    df = np.exp(rng.uniform(0.0, math.log(df_max), 10_000))
    ref = scipy.special.stdtr(df, -t)
    got = np.array([_student_sf(float(a), float(b)) for a, b in zip(t, df)])
    shown = ref > 1e-300
    assert shown.sum() > 9_000
    np.testing.assert_allclose(got[shown], ref[shown], rtol=1e-10, atol=0)
    assert np.all(got[~shown] < 1e-290)


def test_student_sf_shape():
    ts = np.linspace(0.0, 40.0, 401)
    for df in np.exp(np.linspace(0.0, math.log(1e9), 40)):
        tail = [_student_sf(float(t), float(df)) for t in ts]
        assert tail[0] == 0.5
        assert all(0.0 <= p <= 0.5 for p in tail), df
        assert all(b <= a for a, b in zip(tail, tail[1:])), df


def test_student_tail_table_pins():
    # one-sided critical values from the standard t table
    assert abs(_welch_at(1.660, 100.0).p_value - 0.05) < 1e-3
    assert abs(_welch_at(1.812, 10.0).p_value - 0.05) < 1e-3
    assert abs(_welch_at(2.457, 30.0).p_value - 0.01) < 1e-3


def test_classify_flags_high_latency():
    baseline = _stats(500, 60.0, 12.0)
    verdict = classify(_stats(50, 2120.0, 300.0), baseline, DetectPolicy(),
                       device_id="box-000")
    assert verdict.decision is Decision.Flagged
    assert verdict.device_id == "box-000"
    assert verdict.ttest.t_welch > 40


def test_classify_clears_baseline_like_device():
    baseline = _stats(500, 60.0, 12.0)
    verdict = classify(_stats(50, 61.0, 12.0), baseline, DetectPolicy())
    assert verdict.decision is Decision.Clear


def test_classify_median_guard():
    # high mean but lower median than baseline: stays clear
    baseline = LatencyStats(n=500, mean=60.0, std=12.0, median=60.0,
                            min=30.0, max=90.0)
    skewed = LatencyStats(n=50, mean=90.0, std=10.0, median=55.0,
                          min=40.0, max=400.0)
    verdict = classify(skewed, baseline, DetectPolicy())
    assert verdict.decision is Decision.Clear
    fast = LatencyStats(n=50, mean=20.0, std=5.0, median=20.0,
                        min=10.0, max=30.0)
    assert classify(fast, baseline, DetectPolicy()).decision is Decision.Clear


def test_classify_statistic_selection():
    # gap of half a pooled error: welch t = 0.5, double-normalized t = 2.5
    baseline = _stats(50, 10.0, 1.0)
    device = _stats(50, 10.1, 1.0)
    assert classify(device, baseline,
                    DetectPolicy(statistic="welch")).decision is Decision.Clear
    assert classify(device, baseline,
                    DetectPolicy(statistic="double")).decision is Decision.Flagged


def test_detect_policy_validation():
    assert DetectPolicy().critical == 1.65
    assert DetectPolicy().statistic == "welch"
    with pytest.raises(ConfigError):
        DetectPolicy(critical=0.0)
    with pytest.raises(ConfigError):
        DetectPolicy(statistic="bayes")


def test_schedule_reauth_spacing():
    policy = ReauthPolicy(count=24, min_spacing_ms=60_000.0)
    times = schedule_devices(policy, (0.0, 86_400_000.0),
                             [RngStream(17)])[0].tolist()
    assert len(times) == 24
    assert times == sorted(times)
    assert times[0] >= 0.0 and times[-1] < 86_400_000.0
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 60_000.0 - TIME_QUANTUM_MS for g in gaps)
    again = schedule_devices(policy, (0.0, 86_400_000.0),
                             [RngStream(17)])[0].tolist()
    assert times == again


def test_schedule_reauth_quantized():
    times = schedule_devices(ReauthPolicy(count=5), (0.0, 1000.0),
                             [RngStream(3)])[0]
    for t in times:
        assert t == round(t / TIME_QUANTUM_MS) * TIME_QUANTUM_MS


def test_schedule_reauth_capacity():
    with pytest.raises(ConfigError):
        schedule_devices(ReauthPolicy(count=10, min_spacing_ms=10_000.0),
                         (0.0, 90_000.0), [RngStream(1)])
    times = schedule_devices(ReauthPolicy(count=10, min_spacing_ms=10_000.0),
                             (0.0, 90_001.0), [RngStream(1)])[0]
    assert len(times) == 10
    single = schedule_devices(ReauthPolicy(count=1), (10.0, 20.0),
                              [RngStream(2)])[0]
    assert len(single) == 1 and 10.0 <= single[0] < 20.0


def test_reauth_policy_validation():
    with pytest.raises(ConfigError):
        ReauthPolicy(count=0)
    with pytest.raises(ConfigError):
        ReauthPolicy(count=5, min_spacing_ms=-1.0)
