"""Edge-side detector: per-step latency extraction, summary statistics,
and the two-sample separation test behind the fraud verdicts.

The test statistic is computed in two forms.  The operative form is the
standard Welch t (absolute mean difference over the pooled standard
error).  The report also carries the double-normalized variant

    t = |mean_b - mean_a| / sqrt(SE^2 * (1/n_b + 1/n_a))

which divides by the per-group counts a second time; it equals the Welch
t divided by sqrt(1/n_a + 1/n_b) and is kept as the headline `t` field
for continuity with the deployed monitoring reports.  Verdicts default to
the Welch form so the false-flag rate matches the one-sided 95% design;
the policy can select the double-normalized form instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DegenerateInput,
    EmptyWindow,
    MalformedRecord,
    require_finite,
)
from .protocol import AttachRecord, AttachStep, step_named


@dataclass(frozen=True)
class LatencySample:
    device_id: str
    step: AttachStep
    latency: float
    attach_seq: int
    wall_time: float


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one latency population (sample std, n-1 denominator)."""

    n: int
    mean: float
    std: float
    median: float
    min: float
    max: float

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateInput("stats need at least one sample")
        if not self.min <= self.median <= self.max:
            raise DegenerateInput("median must sit between min and max")
        if not math.isfinite(self.mean) or not math.isfinite(self.std):
            raise DegenerateInput("latency mean or std overflows a float")

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "LatencyStats":
        arr = np.asarray(values if isinstance(values, np.ndarray)
                         else list(values), dtype=float)
        if arr.size == 0:
            raise EmptyWindow("no samples")
        return cls(*cls.row_fields(arr.reshape(1, -1))[0])

    @staticmethod
    @np.errstate(over="ignore", invalid="ignore")  # __post_init__ checks
    def row_fields(rows: np.ndarray) -> list[tuple]:
        """The fields of the stats of each row of a (k, n) array, n >= 1,
        as from_samples of the row gives them, bit for bit: numpy's mean,
        std and sort along a row are its own over the row alone."""
        n = rows.shape[1]
        std = np.std(rows, axis=1, ddof=1) if n > 1 else np.zeros(len(rows))
        ordered = np.sort(rows, axis=1)
        mid = ordered[:, n // 2]
        median = mid if n % 2 else (ordered[:, n // 2 - 1] + mid) / 2
        return list(zip([n] * len(rows), np.mean(rows, axis=1).tolist(),
                        std.tolist(), median.tolist(), ordered[:, 0].tolist(),
                        ordered[:, -1].tolist()))


@dataclass(frozen=True)
class TTestResult:
    se: float
    t: float          # double-normalized form (see module docstring)
    t_ratio: float
    p_value: float
    t_welch: float    # standard Welch statistic
    df: float         # Welch-Satterthwaite degrees of freedom


class Decision(enum.Enum):
    Clear = "Clear"
    Flagged = "Flagged"


@dataclass(frozen=True)
class DetectPolicy:
    critical: float = 1.65
    statistic: str = "welch"  # "double" selects the double-normalized form

    def __post_init__(self):
        if not 0.0 < self.critical < math.inf:
            raise ConfigError("critical threshold must be positive and finite")
        if self.statistic not in ("welch", "double"):
            raise ConfigError("statistic must be 'welch' or 'double'")


@dataclass(frozen=True)
class Verdict:
    device_id: str
    decision: Decision
    ttest: TTestResult
    stats: LatencyStats


def compute_step_latencies(record: AttachRecord) -> list[LatencySample]:
    """Per-step latencies as deltas between consecutive messages.

    The first message has no predecessor and yields no sample, so the
    samples of a record sum exactly to its span.
    """
    samples: list[LatencySample] = []
    prev_time: float | None = None
    prev_step: AttachStep | None = None
    for msg in record.messages:
        try:
            step = step_named(msg.message)
        except ConfigError as exc:
            raise MalformedRecord(str(exc)) from None
        if prev_step is not None:
            if step <= prev_step:
                raise MalformedRecord(
                    f"{record.device_id}: step {step.name} after {prev_step.name}")
            if msg.time < prev_time:
                raise MalformedRecord(
                    f"{record.device_id}: time went backwards at {step.name}")
            samples.append(LatencySample(
                device_id=record.device_id, step=step,
                latency=msg.time - prev_time, attach_seq=record.attach_seq,
                wall_time=msg.time))
        prev_time, prev_step = msg.time, step
    return samples


_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), within 2e-14
    for z >= 10."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680
                                                        - w / 1188)))) / z


def _lgamma_gap(a: float) -> float:
    """lgamma(a) - lgamma(a + 1/2).

    Past a = 10 the gap comes from the Stirling series: the two lgamma
    values are near a log a and would cancel to about 1e-9 at a = 5e5.
    """
    if a < 10.0:
        return math.lgamma(a) - math.lgamma(a + 0.5)
    return (0.5 - a * math.log1p(0.5 / a) - 0.5 * math.log(a)
            + _stirling_tail(a) - _stirling_tail(a + 0.5))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction f in I_x(a, b) = x^a y^b / (B(a, b) f),
    with y = 1 - x.

    This is the BFRAC form of DiDonato and Morris (1992), evaluated by
    modified Lentz. Each partial denominator reads y itself, so nothing
    cancels as x nears 1 at large a, where the textbook fraction in x
    alone loses about a * 1e-16 of relative accuracy.
    """
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, 501):
        k = a + 2 * m - 1
        num = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (k * k)
        den = (m + m * (b - m) * x / k
               + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (k + 2))
        d = 1.0 / (den + num * d or 1e-300)
        c = den + num / c or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return f
    raise ArithmeticError(f"incomplete beta fraction did not converge "
                          f"at a={a}, b={b}, x={x}")


def _student_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t with df degrees of freedom, t >= 0.

    The tail is 0.5 I_x(df/2, 1/2) at x = df / (df + t^2). Where
    t^2 (df + 2) < 3 df the fraction runs on the swapped form
    1 - I_{1-x}(1/2, df/2), which converges faster there. x and 1 - x
    are each taken from t^2 and df, never one from the other. Measured
    against 50-digit mpmath and scipy.special.stdtr: within relative
    5e-13 for df from 1 to 1e15 and t from 0 to 40, in at most 55 terms.
    """
    t2 = t * t
    if math.isnan(t2 + df):
        return math.nan  # sample moments that overflowed
    if t2 == 0.0:
        return 0.5
    if t2 == math.inf:
        return 0.0
    a = 0.5 * df
    x, y = df / (df + t2), t2 / (df + t2)
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y)
                     - _lgamma_gap(a) - _HALF_LOG_PI)
    if t2 * (df + 2.0) < 3.0 * df:
        return 0.5 - 0.5 * front / _beta_fraction(0.5, a, y, x)
    return 0.5 * front / _beta_fraction(a, 0.5, x, y)


def welch_t(group_a: LatencyStats, group_b: LatencyStats,
            critical: float = 1.65) -> TTestResult:
    """Two-sample separation test on summary statistics.

    se        = sqrt(var_a/n_a + var_b/n_b)
    t_welch   = |mean_b - mean_a| / se
    t         = |mean_b - mean_a| / sqrt(se^2 * (1/n_b + 1/n_a))
    p_value   = one-sided tail of t_welch at Welch-Satterthwaite df,
                from the Student t tail `_student_sf`
    """
    if group_a.n < 2 or group_b.n < 2:
        raise DegenerateInput("both groups need n >= 2")
    na, nb = group_a.n, group_b.n
    # finite stats can still overflow a square here: float ** raises
    try:
        va, vb = group_a.std ** 2, group_b.std ** 2
    except OverflowError:
        raise DegenerateInput("a latency variance overflows a float") from None
    se = math.sqrt(va / na + vb / nb)
    diff = abs(group_b.mean - group_a.mean)
    if se == 0.0:
        if diff != 0.0:
            raise DegenerateInput("zero pooled error with differing means")
        return TTestResult(se=0.0, t=0.0, t_ratio=0.0,
                           p_value=0.5, t_welch=0.0, df=float(na + nb - 2))
    t_welch_val = diff / se
    t_val = diff / math.sqrt(se * se * (1.0 / nb + 1.0 / na))
    try:
        df_num = (va / na + vb / nb) ** 2
        df_den = (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
        df = df_num / df_den
    except (OverflowError, ZeroDivisionError):  # ZeroDivision: both underflow
        df = math.nan
    if not math.isfinite(df):
        raise DegenerateInput("the Welch-Satterthwaite degrees of freedom "
                              "are not finite")
    return TTestResult(se=se, t=t_val, t_ratio=t_val / critical,
                       p_value=_student_sf(t_welch_val, df),
                       t_welch=t_welch_val, df=df)


def classify(device_stats: LatencyStats, baseline: LatencyStats,
             policy: DetectPolicy, device_id: str = "") -> Verdict:
    """Flag a device whose window sits significantly above the baseline.

    The median co-condition keeps anomalously fast devices clear: only
    unusually high latencies are of interest.
    """
    result = welch_t(baseline, device_stats, critical=policy.critical)
    statistic = result.t if policy.statistic == "double" else result.t_welch
    flagged = statistic > policy.critical and device_stats.median > baseline.median
    return Verdict(device_id=device_id,
                   decision=Decision.Flagged if flagged else Decision.Clear,
                   ttest=result, stats=device_stats)


@dataclass(frozen=True)
class ReauthPolicy:
    count: int
    min_spacing_ms: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("reauth count must be at least 1")
        if self.min_spacing_ms < 0:
            raise ConfigError("minimum spacing must be non-negative")
        require_finite("reauth policy", min_spacing_ms=self.min_spacing_ms)


def schedule_devices(policy: ReauthPolicy, day: tuple[float, float],
                     rngs) -> np.ndarray:
    """Randomly timed authentication triggers over a day range, one row
    per device of `rngs`.

    Times are uniform over the range subject to the minimum spacing,
    strictly increasing, and quantized like all other timestamps.
    """
    start, end = float(day[0]), float(day[1])
    span = end - start
    reserved = (policy.count - 1) * policy.min_spacing_ms
    if span <= 0 or reserved >= span:
        raise ConfigError(
            f"cannot place {policy.count} triggers with spacing "
            f"{policy.min_spacing_ms} ms in a {span} ms range")
    free = span - reserved
    offsets = np.sort([rng.gen.uniform(0.0, free, policy.count)
                       for rng in rngs], axis=1)
    # in ticks, t_i = max(q_i, t_(i-1) + 1), which unrolls to
    # cummax(q - i) + i; ticks are integers below 2**53, so exact
    i = np.arange(policy.count)
    ticks = np.round((start + offsets + i * policy.min_spacing_ms) * 1024.0)
    return (np.maximum.accumulate(ticks - i, axis=1) + i) / 1024.0

