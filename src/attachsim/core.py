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


class DataFileError(ConfigError):
    """Malformed data file that a config names; the message names it."""


class ParseError(ValueError):
    """Malformed log input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        # both arguments go to args, so the error survives pickling
        super().__init__(message, line)
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


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
            return float(value) + 0.0  # -0.0 reads as 0.0
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


def text_cells(texts) -> np.ndarray:
    """ASCII texts, none with a NUL byte, as rows of 4-byte cells: a
    (len(texts), c) uint32 matrix, NUL-padded, whose row i with its NUL
    bytes dropped is texts[i]."""
    raw = np.array([text.encode() for text in texts], dtype=bytes)
    out = np.zeros((raw.size, -(-raw.itemsize // 4) * 4), np.uint8)
    out[:, :raw.itemsize] = raw.view(np.uint8).reshape(raw.size, raw.itemsize)
    return out.view(np.uint32)


_GROUP = np.arange(10_000)[:, None]
_PLACES = 10 ** np.arange(3, -1, -1)
_DIGITS = (_GROUP // _PLACES % 10 + ord("0")).astype(np.uint8)


def _group_cells(keep: np.ndarray) -> np.ndarray:
    """4-digit groups g as cells, indexed flag * 10_000 + g: with the flag
    set all four digits, without it those that keep[g] marks."""
    return np.stack([np.where(keep, _DIGITS, 0), _DIGITS]).view(
        np.uint32).ravel()


# leading zeros NUL, and a zero group all NUL; the last group of a number
# keeps the units digit, so 0 is "0"
_LEADING = _group_cells(_GROUP >= _PLACES)
_LAST = _group_cells((_GROUP >= _PLACES) | (_PLACES == 1))
# trailing zeros NUL, and a zero group all NUL
_TRAILING = _group_cells(_GROUP % (10 * _PLACES) != 0)
# "." and the two digits of d, indexed flag * 100 + d: without the flag
# a second digit 0 is NUL (".5" and ".0", not ".50" and ".00")
_POINT = np.array([[ord("."), 48 + d // 10, 48 + d % 10 if flag or d % 10
                    else 0, 0] for flag in (0, 1) for d in range(100)],
                  np.uint8).view(np.uint32).ravel()


def digit_cells(values: np.ndarray) -> np.ndarray:
    """The decimal digits of non-negative int64 values as rows of 4-byte
    cells (see text_cells), leading zeros NUL; 0 is "0"."""
    groups = max(1, -(-len(str(int(values.max(initial=0)))) // 4))
    out = np.empty((values.size, groups), np.uint32)
    scale = 1
    for i in reversed(range(groups)):
        index = values // scale % 10_000 + (values >= scale * 10_000) * 10_000
        out[:, i] = (_LAST if scale == 1 else _LEADING)[index]
        scale *= 10_000
    return out


_TICK_DECIMALS = 9765625  # 1/1024 ms is 9765625 units of 1e-10 ms
_POW10 = 10 ** np.arange(11, dtype=np.int64)
# From here on a tick count times _TICK_DECIMALS leaves int64, and
# lattice_repr calls repr
REPR_TICKS = (2 ** 63 - 1) // _TICK_DECIMALS


def _decimal_cells(fraction: np.ndarray) -> np.ndarray:
    """"." and the ten decimals of fractions in units of 1e-10, trailing
    zeros NUL but one kept, as 3 cells."""
    low = fraction % 10_000
    mid = fraction // 10_000 % 10_000
    return np.column_stack([
        _POINT[fraction // 100_000_000 + (fraction % 100_000_000 != 0) * 100],
        _TRAILING[mid + (low != 0) * 10_000], _TRAILING[low]])


_SHORT_CELLS = text_cells(SHORT_DECIMALS)


def lattice_repr(ticks: np.ndarray) -> np.ndarray:
    """repr(k / 1024) for every tick count k >= 0 of a 1-D int64 array, as
    rows of 4-byte cells (see text_cells).

    x = k / 1024 is D = k * 9765625 units of 1e-10 ms, exactly.  repr
    writes the decimal with the fewest digits that rounds back to x, the
    nearest one if several do.  With m decimals the nearest candidate is D
    rounded half to even to a multiple of 10**(10 - m); it rounds back to
    x if its distance is below half of x's float spacing (both sides of x
    are that wide unless x is a power of two).  So the first m whose
    candidate is that close gives repr's digits; both sides of the test
    are exact floats.  Below SHORT_TICKS that is the exact decimal (see
    SHORT_DECIMALS).  repr itself writes a power of two above it, a
    candidate at exactly half the spacing, and k >= REPR_TICKS.
    """
    whole = ticks >> 10
    decimals = np.take(_SHORT_CELLS, ticks & 1023, axis=0)
    long = ticks >= SHORT_TICKS
    odd = (ticks >= REPR_TICKS) | (long & (ticks & (ticks - 1) == 0))
    whole[odd] = 0
    search = np.flatnonzero(long & ~odd)
    if search.size:
        big = ticks[search] * _TICK_DECIMALS
        spacing = np.spacing(ticks[search] / 1024.0) * 1e10
        # a distance d (an integer) is close enough when d <= half
        half = (spacing // 2).astype(np.int64)
        # m decimals are enough once 10**(10 - m) <= spacing, and a
        # candidate with fewer decimals is never closer: so step down from
        # there while the next candidate is still close enough
        places = 11 - np.searchsorted(_POW10, spacing, side="right")
        todo = np.arange(search.size)
        while todo.size:
            todo = todo[places[todo] > 0]
            step = _POW10[11 - places[todo]]
            rest = big[todo] % step
            todo = todo[(rest <= half[todo]) | (rest >= step - half[todo])]
            places[todo] -= 1
        step = _POW10[10 - places]
        kept, rest = np.divmod(big, step)
        odd[search[2 * np.minimum(rest, step - rest) == spacing]] = True
        kept += (2 * rest > step) | ((2 * rest == step) & (kept & 1 == 1))
        whole[search], kept = np.divmod(kept, _POW10[places])
        decimals[search] = _decimal_cells(kept * step)
    out = np.concatenate([digit_cells(whole), decimals], axis=1)
    fallback = np.flatnonzero(odd)
    if fallback.size:
        text = text_cells(repr(k / 1024) for k in ticks[fallback].tolist())
        if text.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.shape[1] - out.shape[1])))
        out[fallback] = 0
        out[fallback, :text.shape[1]] = text
    return out


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
