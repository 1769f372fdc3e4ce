"""Shared primitives: error types, seeded RNG streams, quantized time."""

from __future__ import annotations

import math
import sys

import numpy as np
# numpy 2 loads numpy.random on first use (about 10 ms); load it with the
# module that wraps it, as numpy 1 did, so that the first generator of a
# simulate run does not pay for the import
import numpy.random


class ConfigError(ValueError):
    """Rejected configuration value or file."""


class ParseError(ValueError):
    """Malformed log input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedRecord(ValueError):
    """Attach record violates its ordering guarantees."""


class EmptyWindow(ValueError):
    """No samples fell inside the requested window."""


class DegenerateInput(ValueError):
    """Statistic undefined for the given inputs."""


_JSON_TYPES = {float: "a finite number", int: "an integer", bool: "a boolean",
               str: "a string", list: "an array", dict: "an object",
               (str, dict): "a name or an object"}


def read_value(value, kind, ctx: str):
    """`value` as the JSON type `kind` (a key of _JSON_TYPES), uncoerced.

    `float` takes a finite number, never a string, NaN or Infinity; `int`
    takes an integral number (2.0 but not 1.7); only `bool` takes true or
    false.
    """
    if isinstance(value, bool) is (kind is bool):
        if kind is float and isinstance(value, (int, float)) \
                and abs(value) <= sys.float_info.max:
            return float(value)
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is not float and isinstance(value, kind):
            return value
    raise ConfigError(f"{ctx}: expected {_JSON_TYPES[kind]}, got {value!r:.40}")


def read_section(raw, ctx: str, schema: dict, required=()) -> dict:
    """Checked copy of one JSON object of a config document.

    Fail-closed: anything but an object, a key outside `schema`, a missing
    `required` key, or a value that is not its schema type (see
    read_value) raises ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx}: expected an object, got {raw!r:.40}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(raw)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")
    return {key: read_value(value, schema[key], f"{ctx} {key}")
            for key, value in raw.items()}


# Timestamps and per-step latencies live on a 2**-10 ms lattice.  Lattice
# values are scaled integers far below 2**53, so float addition and
# subtraction on them is exact: per-step latencies telescope to the record
# span with zero rounding error.  They also have at most ten fractional
# decimal digits, so a %.10f rendering round-trips bit-for-bit through logs.
TIME_QUANTUM_MS = 1.0 / 1024.0
# Every timestamp stays below this: 1024 t is then an integer below 2**53,
# the range where lattice arithmetic and rendering are exact.
TIME_LIMIT_MS = 2.0 ** 43


def quantize_ms(value: float) -> float:
    """Nearest lattice point to a millisecond value."""
    return round(value * 1024.0) / 1024.0


def quantize_ceil_ms(value: float) -> float:
    """Smallest lattice point >= value; used for latency floors."""
    return math.ceil(value * 1024.0) / 1024.0


def fmt_ms(value: float) -> str:
    """Exact decimal rendering of a lattice timestamp."""
    return f"{value:.10f}"


def sorted_median(ordered: np.ndarray) -> float:
    """np.median of a sorted, non-empty 1-D array, bit for bit, without
    the numpy.ma import (about 12 ms) that np.median's first call makes."""
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


# Lattice values rendered from their tick count k = 1024 t, an integer
# below 2**53: t is k >> 10 plus (k & 1023)/1024, and j/1024 is
# j * 9765625 / 10**10, exactly ten decimals.  So for 0 <= k < 2**53,
# f"{k >> 10}{DECIMALS[k & 1023]}" == fmt_ms(k / 1024).
DECIMALS = tuple(f".{j * 9765625:010d}" for j in range(1024))
# The same decimals as repr writes them: trailing zeros dropped, one digit
# kept.  f"{k >> 10}{SHORT_DECIMALS[k & 1023]}" == repr(k / 1024) for
# 0 <= k < SHORT_TICKS (2**19 ms): two decimals of at most ten digits
# differ by 1e-10 or more, over half a float's spacing there, so no
# shorter decimal rounds to k / 1024.
SHORT_DECIMALS = tuple(d.rstrip("0") if j else ".0"
                       for j, d in enumerate(DECIMALS))
SHORT_TICKS = 2 ** 29


class RngStream:
    """Deterministic random stream addressed by (seed, *path).

    Substreams are derived through SeedSequence spawn keys, so any
    (seed, path) pair reconstructs the same generator regardless of how
    many sibling streams were created before it.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.default_rng(ss)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"

    def substream(self, *path: int) -> "RngStream":
        return RngStream(self.seed, self.path + path)

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def normal(self, mean: float, std: float) -> float:
        return float(self._gen.normal(mean, std))

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))


def clamped_normal(rng: RngStream, mean: float, std: float, floor: float) -> float:
    """Normal sample clamped from below.

    Clamping (rather than redrawing) keeps the long-run mean close to the
    nominal one even when the floor cuts well into the left tail.
    """
    draw = rng.normal(mean, std)
    return draw if draw > floor else floor


class EventClock:
    """Monotonic simulation clock on the quantized millisecond lattice."""

    def __init__(self, start_ms: float = 0.0):
        self._now = quantize_ms(float(start_ms))

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move forward by a non-negative, already-quantized delta."""
        if delta_ms < 0:
            raise ValueError(f"clock cannot move backwards (delta {delta_ms})")
        self._now += delta_ms
        return self._now
