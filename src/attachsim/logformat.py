"""The log format joining `simulate` to `detect`: line pieces and reader."""

from __future__ import annotations

import json
import math
import os
import re
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import forkjoin
from .core import ConfigError, ParseError
from .protocol import AttachStep, Outcome, step_named

_LOG_KEYS = {"time", "layer", "direction", "device_id", "message"}
# JSON integers decode as floats, so an over-long integer time becomes inf
# and is rejected below instead of overflowing a later float conversion.
_LOG_DECODER = json.JSONDecoder(parse_int=float)
# A writer line is split at its first _SEP into a head, '{"time": ' and the
# time, and a tail, looked up as _MARK + the rest of the line.
_SEP = b', "layer": '
_MARK = b"\x00"
# the writer's line: LINE % (whole ms, its core.DECIMALS, tail), where a
# tail is the step's TAIL_PIECES around json.dumps of the device id
LINE = b'{"time": %d%s%s'
TAIL_PIECES = {step: (_SEP + f'"NAS", "direction": "{step.direction}", '
                              f'"device_id": '.encode(),
                      f', "message": "{step.name}"}}\n'.encode())
               for step in AttachStep}
# The exact line shape SignalingMessage.to_json_line writes: a plain JSON
# number of ASCII digits as time and a device_id without escapes, control
# characters or undecodable bytes (lone surrogates, see _LogReader.block).
# _LogReader checks the first such tail of each device against it and
# builds the device's other tails (_KEY_PIECES); any other line, valid or
# not, takes the json branch of _read_line.
_WRITER_LINE = re.compile(
    r'\{"time": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?), "layer": "NAS", '
    r'"direction": "([A-Za-z]+)", '
    r'"device_id": "([^"\\\x00-\x1f\ud800-\udfff]*)", '
    r'"message": "([A-Za-z]+)"\}$')
_STEP_DIRECTIONS = {step.name: (step, step.direction) for step in AttachStep}
# in step order, the pieces of a writer tail key around the quoted device id
_KEY_PIECES = [(_MARK + head[len(_SEP):], end[:-1])
               for head, end in TAIL_PIECES.values()]
_UNDECODED = re.compile(r"[\ud800-\udfff]")
# the outcome of a record, from the step it ends at
OUTCOME_AFTER = {AttachStep.AttachComplete: Outcome.Completed,
                 AttachStep.AuthenticationResponse: Outcome.AuthTimeout,
                 AttachStep.AuthenticationRequest: Outcome.AuthReject}
_ENDS_RECORD = np.array([step in OUTCOME_AFTER for step in AttachStep])
_NEVER = np.iinfo(np.int64).max  # first_close of a device whose records are open


def _read_line(line: str, lineno: int) -> tuple[float, str, AttachStep]:
    """(time, device_id, step) of a log line in any JSON form, or a
    ParseError naming the line."""
    line = line.strip()
    if not line:
        raise ParseError("blank line", lineno)
    if _UNDECODED.search(line):
        raise ParseError("not UTF-8 text", lineno)
    try:
        obj = _LOG_DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
    if not isinstance(obj, dict) or set(obj) != _LOG_KEYS:
        raise ParseError(f"expected exactly keys {sorted(_LOG_KEYS)}", lineno)
    try:
        step = step_named(str(obj["message"]))
    except ConfigError:
        raise ParseError(f"unknown message {obj['message']!r}", lineno) from None
    if obj["layer"] != "NAS":
        raise ParseError(f"unexpected layer {obj['layer']!r}", lineno)
    if obj["direction"] != step.direction:
        raise ParseError(f"{step.name} must be {step.direction}", lineno)
    time = obj["time"]
    if type(time) is not float or not time < math.inf:
        raise ParseError(f"bad time {time!r}", lineno)
    if time < 0:
        raise ParseError("negative timestamp", lineno)
    device_id = obj["device_id"]
    # a lone surrogate (from a \ud800-style escape) cannot be written out
    if type(device_id) is not str or _UNDECODED.search(device_id):
        raise ParseError(f"bad device_id {device_id!r}", lineno)
    return time, device_id, step


# Bytes read at a time.  The reader's memory scales with it: 256 KiB keeps
# detect's peak within 2 MB of a line-at-a-time reader.
_BLOCK_BYTES = 1 << 18
# Bytes of log whose lines make one read unit (log_units): read_logs' two
# processes each claim the next unit, so neither idles while the other
# reads.  In paired detect-mixed runs 2 MiB beat 4 MiB in 7 of 10 and
# tied 8 MiB, whose fewer units balance worse on smaller logs.
_UNIT_BYTES = 1 << 21


def _head_layouts() -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per head length, (low, span, weights) of '{"time": ' and a time with
    1 to 13 integer digits, a dot and ten fraction digits: byte j of a head
    fits when byte - low[j] <= span[j] as uint8, and (bytes - 48) @ weights
    is (integer part, fraction digits read as an integer)."""
    layouts = {}
    for length in range(21, 34):
        dot = length - 11
        low = np.frombuffer(b'{"time": ' + b"0" * (length - 9), np.uint8).copy()
        span = np.zeros(length, np.uint8)
        span[9:] = 9
        low[dot], span[dot] = ord("."), 0
        if dot > 10:  # no leading zero
            low[9], span[9] = ord("1"), 8
        weights = np.zeros((length, 2))
        weights[9:dot, 0] = 10.0 ** np.arange(dot - 10, -1, -1)
        weights[dot + 1:, 1] = 10.0 ** np.arange(9, -1, -1)
        layouts[length] = low, span, weights
    return layouts


_HEAD_LAYOUTS = _head_layouts()


def _head_times(heads: list[bytes], digits: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(ok, time) of line heads, each meant to be '{"time": ' and a time.

    ok where the time is f"{t:.10f}" of a time t on the 2**-10 ms lattice:
    1 to 13 integer digits, no leading zero unless the integer part is 0,
    a dot and ten fraction digits whose value is j/1024.  Such a time is
    i + j/1024, both exact doubles, so their one rounded sum is
    float(text).  Every other head is not ok, whatever it holds.
    `digits`, a float64 buffer of at least 33 * len(heads) elements,
    holds each length group's bytes - 48; without it one is made.
    """
    n = len(heads)
    if digits is None:
        digits = np.empty(33 * n)
    lengths = np.fromiter(map(len, heads), np.int64, n)
    rows = np.array(heads, dtype="S33").view(np.uint8).reshape(n, 33)
    ok, time = np.zeros(n, bool), np.zeros(n)
    counts = np.bincount(np.minimum(lengths, 34), minlength=35)
    for length in np.flatnonzero(counts[21:34]).tolist():
        length += 21
        low, span, weights = _HEAD_LAYOUTS[length]
        group = np.flatnonzero(lengths == length)
        head = rows[group, :length]
        values = digits[:head.size].reshape(head.shape)
        np.subtract(head, 48.0, out=values, dtype=np.float64)
        integer, fraction = (values @ weights).T
        ticks, rest = np.divmod(fraction, 9765625.0)
        ok[group] = ((head - low) <= span).all(1) & (rest == 0.0)
        time[group] = integer + ticks / 1024.0
    return ok, time


def _one_pass(body: bytes) -> list[bytes] | None:
    """The pieces of `body` cut at every line end and at every _SEP, which
    becomes a line end and _MARK; None where _MARK is in `body` or the
    pieces do not come two a line, so no tail is looked up in vain.

    Each _SEP replaced shrinks the block by 9 bytes, so the lengths give
    the separator count, and len(pieces) == 2 * seps + 1 is the rule
    len(pieces) == 2 * body.count(b"\n") + 1 without a pass to count.
    """
    if _MARK in body:
        return None
    joined = body.replace(_SEP, b"\n" + _MARK)
    pieces = joined.split(b"\n")
    seps = (len(body) - len(joined)) // 9
    return pieces if len(pieces) == 2 * seps + 1 else None


def _rules(step: np.ndarray, time: np.ndarray, prev_step: np.ndarray,
           prev_time: np.ndarray) -> tuple[np.ndarray, ...]:
    """(closes, opens, truncated, broken) of lines whose device's previous
    line has `prev_step` (-1 where there is none) and `prev_time`."""
    closes = step <= prev_step
    opens = closes | (prev_step < 0)
    truncated = closes & ~_ENDS_RECORD[prev_step]
    broken = truncated | (opens & (step != 0)) | (~opens & (time < prev_time))
    return closes, opens, truncated, broken


def _broken(device_id: str, step: int, prev_step: int, truncated: bool,
            line: int, prev_line: int) -> ParseError:
    """The ParseError of a line that _rules finds broken."""
    if truncated:
        return ParseError(f"record for {device_id} truncated at "
                          f"{AttachStep(prev_step).name}", prev_line)
    if prev_step < 0 or step <= prev_step:
        return ParseError(f"record for {device_id} starts at "
                          f"{AttachStep(step).name}", line)
    return ParseError(f"time went backwards for {device_id}", line)


class _Devices:
    """Device ids by number, and per device the state the record rules
    carry past its lines: the step, time and line number of its last line,
    and the line its first record closed at; with the lines read and the
    lines kept."""

    def __init__(self, ids: list[str]):
        self.ids = ids  # by device number
        self._start()

    def _start(self) -> None:
        n = len(self.ids)
        self.last_step = np.full(n, -1)      # -1 before the device's first line
        self.last_time = np.zeros(n)
        self.last_line = np.zeros(n, np.int64)
        self.first_close = np.full(n, _NEVER)
        self.lines = 0
        # (device, step, time, gap) of the kept lines, a run of lines at a time
        self.kept = [(np.zeros(0, np.int64), np.zeros(0, np.int64),
                      np.zeros(0), np.zeros(0))]

    def _grow(self) -> None:
        """Give the devices numbered since the state's arrays were made
        the state of a device not yet seen."""
        grow = len(self.ids) - self.last_step.size
        if grow > 0:
            self.last_step = np.append(self.last_step, np.full(grow, -1))
            self.last_time = np.append(self.last_time, np.zeros(grow))
            self.last_line = np.append(self.last_line, np.zeros(grow, np.int64))
            self.first_close = np.append(self.first_close,
                                         np.full(grow, _NEVER))


class _Unit(NamedTuple):
    """What a unit's lines leave for _Merge, in its reader's device numbers
    and with lines numbered from the unit's first.

    `lines` were read before `error`, the first Exception the unit met
    (None if it met none).  `first` is (device, step, time, line, slot)
    of each device's first line in the unit, whose record rules are left
    unchecked: slot is its index in `kept`, or -1.  `last` is (device,
    step, time, line, first close) of each device the unit saw, as its
    last line left them; the first close is the line its first record
    closed at after its first line, or _NEVER.  `kept` is (device, step,
    time, gap) of the kept lines, gap NaN at a first line.
    """
    lines: int
    error: Exception | None
    first: tuple[np.ndarray, ...]
    last: tuple[np.ndarray, ...]
    kept: tuple[np.ndarray, ...]


class _LogReader(_Devices):
    """The rules of parse_logs over a unit of a log at a time (`unit`),
    fed to `block` a run of whole lines at a time, keeping the lines of
    the steps in `keep`.

    Per block, a line in writer shape costs one dict lookup of its tail,
    and its time, in the lattice form simulate writes, is converted with
    the others of the block (_head_times); every other line goes through
    _read_line.  The record rules are checked as masks over each line and
    the previous line of its device, except at a device's first line in
    the unit: its previous line may lie in an earlier unit, so _Merge
    checks it.  The device numbers and tails serve every unit the reader
    reads, of any log; the per-device state starts afresh with each unit.
    """

    def __init__(self, keep):
        super().__init__([])
        self.numbers: dict[str, int] = {}
        self.keep = np.isin(np.arange(len(AttachStep)), list(keep))
        self.tails: dict[bytes, int] = {}    # tail -> 16 * device + step
        self.digits = np.zeros(0)            # _head_times' buffer, grown

    def _device(self, device_id: str) -> int:
        number = self.numbers.setdefault(device_id, len(self.ids))
        if number == len(self.ids):
            self.ids.append(device_id)
        return number

    def _learn(self, key: bytes | None) -> int:
        """The code of a tail key not in `tails`, checked by _WRITER_LINE
        and the step/direction rule; -1 where it is not a writer tail.  A
        writer tail puts the tails of its device's every step in `tails`."""
        if key is None or not key.startswith(_MARK):
            return -1
        fast = _WRITER_LINE.match('{"time": 0, "layer": '
                                  + key[1:].decode("utf-8", "surrogateescape"))
        if not fast:
            return -1
        _, direction, device_id, message = fast.groups()
        step, expected = _STEP_DIRECTIONS.get(message, (None, None))
        if direction != expected:
            return -1
        # the device's tails of every step, in the one form _WRITER_LINE
        # takes for its id: the other steps' are learnt without a match
        quoted = b'"' + device_id.encode() + b'"'
        device = 16 * self._device(device_id)
        for code, (head, end) in enumerate(_KEY_PIECES, device):
            self.tails[head + quoted + end] = code
        return device + step

    def _codes(self, keys: list) -> np.ndarray:
        """16 * device + step of each tail key; -1 where it is not a writer
        tail.  Each tail not in `tails` is checked once a block."""
        codes = np.fromiter(map(self.tails.get, keys, repeat(-1)), np.int64,
                            len(keys))
        learnt: dict[bytes | None, int] = {}
        for i in np.flatnonzero(codes < 0).tolist():
            key = keys[i]
            if key not in learnt:
                # learnt since the lookup, with another tail of its device
                code = self.tails.get(key)
                learnt[key] = self._learn(key) if code is None else code
            codes[i] = learnt[key]
        return codes

    def _times(self, heads: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """_head_times of `heads` in the reader's digit buffer."""
        if self.digits.size < 33 * len(heads):
            self.digits = np.empty(33 * len(heads))
        return _head_times(heads, self.digits)

    def unit(self, path: str | Path, start: int, stop: int | None) -> _Unit:
        """The lines of the log at `path` that start in bytes [start, stop)
        (to its end where stop is None; see log_units), read as a _Unit
        that keeps the first Exception met instead of raising it."""
        self._start()
        self.error = None
        self.count = 0  # kept lines
        self.first = [(np.zeros(0, np.int64), np.zeros(0, np.int64),
                       np.zeros(0), np.zeros(0, np.int64),
                       np.zeros(0, np.int64))]
        try:
            self._read(path, start, stop)
        except Exception as exc:
            self.error = exc
        seen = np.flatnonzero(self.last_line > 0)
        return _Unit(self.lines, self.error,
                     tuple(map(np.concatenate, zip(*self.first))),
                     (seen, self.last_step[seen], self.last_time[seen],
                      self.last_line[seen], self.first_close[seen]),
                     tuple(map(np.concatenate, zip(*self.kept))))

    def _read(self, path: str | Path, start: int, stop: int | None) -> None:
        """Feed `block` the unit's lines until they end or one is broken.

        The unit runs from the byte after the first line feed at or after
        `start` (from byte 0 where start is 0) through the first line feed
        at or after `stop`, so units meet at line feeds: a \\r\\n stays
        whole, a line goes with the unit it starts in however long it is,
        and a log whose lines end in a lone \\r is its first unit.  Lines
        end as in text mode: at a line feed, a carriage return or both,
        and the last line of the log needs no line end.
        """
        with Path(path).open("rb") as f:
            if start:
                f.seek(start)
                skipped = f.readline(-1 if stop is None else stop - start)
                if not skipped.endswith(b"\n"):
                    return  # no line starts in [start, stop)
                start += len(skipped)
            left = math.inf
            if stop is not None:
                f.seek(stop)
                while line := f.readline(_BLOCK_BYTES):
                    stop += len(line)
                    if line.endswith(b"\n"):
                        break
                left = stop - start
                f.seek(start)
            pending: list[bytes] = []  # the unit after its last line end
            # one buffer a unit, read into and searched in place; byte 0
            # holds a \r held back from the last read as maybe half a \r\n
            buffer = bytearray(_BLOCK_BYTES + 1)
            view = memoryview(buffer)
            held = 0
            while self.error is None:
                got = f.readinto(view[held:held + min(_BLOCK_BYTES, left)])
                left -= got
                size = held + got
                held = int(got > 0 and buffer[size - 1] == ord("\r"))
                size -= held
                if buffer.find(b"\r", 0, size) >= 0:  # line ends as line feeds
                    text = bytes(view[:size]).replace(b"\r\n", b"\n").replace(
                        b"\r", b"\n")
                    size = len(text)
                    view[:size] = text
                    # freed before the join: held over it, the copy took a
                    # read of a 30 MB \r\n log from 0.6k to 2.7k page faults
                    del text
                # only this read is searched, so a long line costs its length
                cut = buffer.rfind(b"\n", 0, size) + 1
                if cut:  # one copy: the block is joined from a view of `buffer`
                    self.block(b"".join([*pending, view[:cut]]))
                    pending = []
                pending.append(bytes(view[cut:size]))
                if held:
                    buffer[0] = ord("\r")
                if not got:
                    if any(pending):
                        self.block(b"".join(pending) + b"\n")
                    return

    def block(self, body: bytes) -> None:
        """Read `body`, whole lines each ended by a line feed."""
        pieces = _one_pass(body)
        split = pieces is not None
        if split:
            heads, keys = pieces[:-1:2], pieces[1::2]
            codes = self._codes(keys)
            ok, time = self._times(heads)
            # the pieces pair up as (head, tail) a line exactly when every
            # tail is a writer tail and no head starts with _MARK
            split = codes.min() >= 0 and not any(
                heads[i].startswith(_MARK) for i in np.flatnonzero(~ok).tolist())
        if not split:
            heads, keys = [], []
            for line in body.split(b"\n")[:-1]:
                head, sep, rest = line.partition(_SEP)
                heads.append(head)
                keys.append(_MARK + rest if sep else None)
            codes = self._codes(keys)
            ok, time = self._times(heads)

        n = len(heads)
        device, step = codes >> 4, codes & 15
        error = None
        for i in np.flatnonzero(~ok | (codes < 0)).tolist():
            line = heads[i] if keys[i] is None else heads[i] + _SEP + keys[i][1:]
            try:
                time[i], device_id, step[i] = _read_line(
                    line.decode("utf-8", "surrogateescape"), self.lines + i + 1)
            except ParseError as exc:
                error, n = exc, i
                break
            device[i] = self._device(device_id)
        self._check(device[:n], step[:n], time[:n])
        self.error = self.error or error
        self.lines += n

    def _check(self, device: np.ndarray, step: np.ndarray,
               time: np.ndarray) -> None:
        """Check the record rules on the next lines of the unit, but at
        each device's first line in it, then carry each device's state past
        them and keep the lines asked for.  At the first broken line, only
        the lines before it are taken, and its error is kept."""
        n = device.size
        if not n:
            return
        self._grow()
        lineno = np.arange(self.lines + 1, self.lines + n + 1)
        # numpy sorts 16-bit keys by radix, several times faster
        order = np.argsort(device.astype(np.uint16) if len(self.ids) <= 1 << 16
                           else device, kind="stable")
        same = device[order[1:]] == device[order[:-1]]
        before = np.full(n, -1)
        before[order[1:][same]] = order[:-1][same]
        inner = before >= 0
        prev_step = np.where(inner, step[before], self.last_step[device])
        prev_time = np.where(inner, time[before], self.last_time[device])
        prev_line = np.where(inner, lineno[before], self.last_line[device])
        first = prev_line == 0
        closes, opens, truncated, broken = _rules(step, time, prev_step,
                                                  prev_time)
        broken &= ~first
        if broken.any():
            i = int(broken.argmax())
            self._check(device[:i], step[:i], time[:i])
            self.error = _broken(self.ids[device[i]], int(step[i]),
                                 int(prev_step[i]), bool(truncated[i]),
                                 int(lineno[i]), int(prev_line[i]))
            return

        closing = np.flatnonzero(closes)
        np.minimum.at(self.first_close, device[closing], lineno[closing])
        final = order[np.append(~same, True)]
        self.last_step[device[final]] = step[final]
        self.last_time[device[final]] = time[final]
        self.last_line[device[final]] = lineno[final]
        kept = np.flatnonzero(self.keep[step])
        gap = time[kept] - prev_time[kept]
        gap[opens[kept]] = math.nan
        self.kept.append((device[kept], step[kept], time[kept], gap))
        if first.any():
            first = np.flatnonzero(first)
            slot = np.where(self.keep[step[first]],
                            np.searchsorted(kept, first) + self.count, -1)
            self.first.append((device[first], step[first], time[first],
                               lineno[first], slot))
        self.count += kept.size


class _Merge(_Devices):
    """A log's units merged in file order, in the device numbers of the
    reader whose `ids` it shares: the state parse_logs's rules leave after
    each, and the kept lines."""

    def add(self, unit: _Unit, number: np.ndarray | None = None) -> None:
        """Take the log's next unit, read by the reader whose ids this
        merge shares, or by one whose device numbers `number` maps to
        them.

        Each device's first line in the unit is checked against the state
        the earlier units left; the first broken one, or else the unit's
        error, is raised, so errors come in file order.  Otherwise those
        lines get their gaps and first closes, and the unit's kept lines
        and state are adopted.
        """
        self._grow()
        device, step, time, line, slot = unit.first
        seen, last_step, last_time, last_line, first_close = unit.last
        kept_device, kept_step, kept_time, gap = unit.kept
        if number is not None:
            device, seen, kept_device = (number[device], number[seen],
                                         number[kept_device])
        line = line + self.lines
        prev_step = self.last_step[device]
        prev_time = self.last_time[device]
        closes, opens, truncated, broken = _rules(step, time, prev_step,
                                                  prev_time)
        if broken.any():
            i = int(broken.argmax())
            raise _broken(self.ids[device[i]], int(step[i]), int(prev_step[i]),
                          bool(truncated[i]), int(line[i]),
                          int(self.last_line[device[i]]))
        if isinstance(unit.error, ParseError):
            raise ParseError(unit.error.args[0], unit.error.line + self.lines)
        if unit.error is not None:
            raise unit.error

        closing = closes & (self.first_close[device] == _NEVER)
        self.first_close[device[closing]] = line[closing]
        later = (self.first_close[seen] == _NEVER) & (first_close != _NEVER)
        self.first_close[seen[later]] = first_close[later] + self.lines
        self.last_step[seen] = last_step
        self.last_time[seen] = last_time
        self.last_line[seen] = last_line + self.lines
        at = slot >= 0
        gap[slot[at]] = np.where(opens, math.nan, time - prev_time)[at]
        self.kept.append((kept_device, kept_step, kept_time, gap))
        self.lines += unit.lines

    def finish(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
        """(ids, device, step, time, gap) of the kept lines in log order.

        ids are in parse_logs order: by the line their first record closes
        at, then the devices whose first record closes at the end of the
        log, by id; `device` indexes them.  gap is the time since the
        device's previous line, NaN where a record starts.
        """
        seen = sorted(np.flatnonzero(self.last_line > 0).tolist(),
                      key=self.ids.__getitem__)
        for number in seen:
            if not _ENDS_RECORD[self.last_step[number]]:
                raise ParseError(
                    f"record for {self.ids[number]} truncated at "
                    f"{AttachStep(int(self.last_step[number])).name}",
                    int(self.last_line[number]))
        seen.sort(key=self.first_close.__getitem__)
        rank = np.zeros(len(self.ids), np.int64)
        rank[seen] = np.arange(len(seen))
        device, step, time, gap = map(np.concatenate, zip(*self.kept))
        return [self.ids[number] for number in seen], rank[device], step, \
            time, gap


def log_units(path: str | Path) -> list[tuple[int, int | None]]:
    """The byte ranges [start, stop) of the log at `path` whose lines make
    its read units (see _LogReader._read): _UNIT_BYTES each, the last one
    open-ended.  A log no longer than one unit is one unit, and so is one
    whose size cannot be read: reading that unit raises the error."""
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    starts = range(0, size, _UNIT_BYTES) or [0]
    return [(start, start + _UNIT_BYTES if start + _UNIT_BYTES < size else None)
            for start in starts]


def read_log(path: str | Path, keep) -> tuple[list[str], np.ndarray,
                                              np.ndarray, np.ndarray,
                                              np.ndarray]:
    """_Merge.finish of the log at `path`, read a unit at a time, keeping
    the steps in `keep`."""
    reader = _LogReader(keep)
    merged = _Merge(reader.ids)
    for start, stop in log_units(path):
        merged.add(reader.unit(path, start, stop))
    return merged.finish()


def read_logs(paths: list[str | Path], keep) -> list[tuple]:
    """read_log of each of `paths`, read by this process and a forked
    child (forkjoin.fork_join): each claims the next unit not yet read,
    those of the first log first, and numbers devices and learns tails
    once over all of them.  This process then merges the units in file
    order, log by log, so the error raised is the first in file order of
    the first log that has one, as when the logs are read in turn."""
    spans = [log_units(path) for path in paths]
    units = [(path, span) for path, log in zip(paths, spans) for span in log]
    reader = _LogReader(keep)
    done: dict[int, _Unit] = {}

    def read(i: int) -> None:
        path, (start, stop) = units[i]
        done[i] = reader.unit(path, start, stop)

    def held() -> tuple[list[str], dict[int, _Unit]]:
        return reader.ids, done

    (_, mine), (their_ids, theirs) = forkjoin.fork_join(
        held, held, units=[partial(read, i) for i in range(len(units))])
    number = np.array([reader._device(i) for i in their_ids], np.int64)
    out, first = [], 0
    for log in spans:
        merged = _Merge(reader.ids)
        for i in range(first, first + len(log)):
            if i in mine:
                merged.add(mine[i])
            else:
                merged.add(theirs[i], number)
        first += len(log)
        out.append(merged.finish())
    return out
