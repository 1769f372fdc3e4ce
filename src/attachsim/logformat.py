"""The log format joining `simulate` to `detect`: line pieces and reader."""

from __future__ import annotations

import json
import math
import re
from itertools import repeat
from pathlib import Path

import numpy as np

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
# _LogReader checks each distinct tail of such a line once against it; any
# other line, valid or not, takes the json branch of _read_line.
_WRITER_LINE = re.compile(
    r'\{"time": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?), "layer": "NAS", '
    r'"direction": "([A-Za-z]+)", '
    r'"device_id": "([^"\\\x00-\x1f\ud800-\udfff]*)", '
    r'"message": "([A-Za-z]+)"\}$')
_STEP_DIRECTIONS = {step.name: (step, step.direction) for step in AttachStep}
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


def _head_times(heads: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(ok, time) of line heads, each meant to be '{"time": ' and a time.

    ok where the time is f"{t:.10f}" of a time t on the 2**-10 ms lattice:
    1 to 13 integer digits, no leading zero unless the integer part is 0,
    a dot and ten fraction digits whose value is j/1024.  Such a time is
    i + j/1024, both exact doubles, so their one rounded sum is
    float(text).  Every other head is not ok, whatever it holds.
    """
    n = len(heads)
    lengths = np.fromiter(map(len, heads), np.int64, n)
    rows = np.array(heads, dtype="S33").view(np.uint8).reshape(n, 33)
    ok, time = np.zeros(n, bool), np.zeros(n)
    counts = np.bincount(np.minimum(lengths, 34), minlength=35)
    for length in np.flatnonzero(counts[21:34]).tolist():
        length += 21
        low, span, weights = _HEAD_LAYOUTS[length]
        group = np.flatnonzero(lengths == length)
        head = rows[group, :length]
        integer, fraction = ((head - 48) @ weights).T
        ticks, rest = np.divmod(fraction, 9765625.0)
        ok[group] = ((head - low) <= span).all(1) & (rest == 0.0)
        time[group] = integer + ticks / 1024.0
    return ok, time


class _LogReader:
    """The rules of parse_logs over a log fed to `block` a run of whole
    lines at a time, keeping the lines of the steps in `keep`.

    Per block, a line in writer shape costs one dict lookup of its tail,
    and its time, in the lattice form simulate writes, is converted with
    the others of the block (_head_times); every other line goes through
    _read_line.  The record rules are checked as masks over each line
    and the previous line of its device.  Across blocks only per-device
    state is carried: the step, time and line number of its last line,
    and the line its first record closed at.
    """

    def __init__(self, keep):
        self.keep = np.isin(np.arange(len(AttachStep)), list(keep))
        self.ids: list[str] = []             # by device number
        self.numbers: dict[str, int] = {}
        self.tails: dict[bytes, int] = {}    # tail -> 16 * device + step
        self.last_step = np.full(0, -1)      # -1 before the device's first line
        self.last_time = np.zeros(0)
        self.last_line = np.zeros(0, np.int64)
        self.first_close = np.zeros(0, np.int64)
        self.lines = 0
        # (device, step, time, gap) of the kept lines, a block at a time
        self.kept = [(np.zeros(0, np.int64), np.zeros(0, np.int64),
                      np.zeros(0), np.zeros(0))]

    def _device(self, device_id: str) -> int:
        number = self.numbers.setdefault(device_id, len(self.ids))
        if number == len(self.ids):
            self.ids.append(device_id)
        return number

    def _learn(self, key: bytes | None) -> int:
        """The code of a tail key not in `tails`, checked by _WRITER_LINE
        and the step/direction rule; -1 where it is not a writer tail."""
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
        self.tails[key] = code = 16 * self._device(device_id) + step
        return code

    def _codes(self, keys: list) -> np.ndarray:
        """16 * device + step of each tail key; -1 where it is not a writer
        tail.  Each tail not in `tails` is checked once a block."""
        codes = np.fromiter(map(self.tails.get, keys, repeat(-1)), np.int64,
                            len(keys))
        learnt: dict[bytes | None, int] = {}
        for i in np.flatnonzero(codes < 0).tolist():
            key = keys[i]
            if key not in learnt:
                learnt[key] = self._learn(key)
            codes[i] = learnt[key]
        return codes

    def block(self, body: bytes) -> None:
        """Read `body`, whole lines each ended by a line feed."""
        split = _MARK not in body
        if split:  # split at _SEP and at line ends in one pass
            pieces = body.replace(_SEP, b"\n" + _MARK).split(b"\n")
            # no pairing without two pieces a line: skip their tail lookups
            split = len(pieces) == 2 * body.count(b"\n") + 1
        if split:
            heads, keys = pieces[:-1:2], pieces[1::2]
            codes = self._codes(keys)
            ok, time = _head_times(heads)
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
            ok, time = _head_times(heads)

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
        if error is not None:
            raise error
        self.lines += n

    def _check(self, device: np.ndarray, step: np.ndarray,
               time: np.ndarray) -> None:
        """Check the record rules on the next lines of the log, then carry
        each device's state past them and keep the lines asked for."""
        n = device.size
        if not n:
            return
        grow = len(self.ids) - self.last_step.size
        if grow > 0:
            self.last_step = np.append(self.last_step, np.full(grow, -1))
            self.last_time = np.append(self.last_time, np.zeros(grow))
            self.last_line = np.append(self.last_line, np.zeros(grow, np.int64))
            self.first_close = np.append(self.first_close,
                                         np.full(grow, _NEVER))
        lineno = np.arange(self.lines + 1, self.lines + n + 1)
        order = np.argsort(device, kind="stable")
        same = device[order[1:]] == device[order[:-1]]
        before = np.full(n, -1)
        before[order[1:][same]] = order[:-1][same]
        inner = before >= 0
        prev_step = np.where(inner, step[before], self.last_step[device])
        prev_time = np.where(inner, time[before], self.last_time[device])
        prev_line = np.where(inner, lineno[before], self.last_line[device])

        closes = step <= prev_step
        opens = closes | (prev_step < 0)
        truncated = closes & ~_ENDS_RECORD[prev_step]
        bad = truncated | (opens & (step != 0)) | (~opens & (time < prev_time))
        if bad.any():
            i = int(bad.argmax())
            device_id = self.ids[device[i]]
            if truncated[i]:
                raise ParseError(
                    f"record for {device_id} truncated at "
                    f"{AttachStep(int(prev_step[i])).name}", int(prev_line[i]))
            if opens[i]:
                raise ParseError(f"record for {device_id} starts at "
                                 f"{AttachStep(int(step[i])).name}", int(lineno[i]))
            raise ParseError(f"time went backwards for {device_id}",
                             int(lineno[i]))

        closing = np.flatnonzero(closes)
        closing = closing[self.first_close[device[closing]] == _NEVER]
        if closing.size:
            numbers, first = np.unique(device[closing], return_index=True)
            self.first_close[numbers] = lineno[closing[first]]
        final = order[np.append(~same, True)]
        self.last_step[device[final]] = step[final]
        self.last_time[device[final]] = time[final]
        self.last_line[device[final]] = lineno[final]
        kept = self.keep[step]
        self.kept.append((device[kept], step[kept], time[kept],
                          np.where(opens, math.nan, time - prev_time)[kept]))

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


def read_log(path: str | Path, keep) -> tuple[list[str], np.ndarray,
                                              np.ndarray, np.ndarray,
                                              np.ndarray]:
    """_LogReader.finish of the log at `path`, keeping the steps in `keep`.

    Lines end as in text mode: at a line feed, a carriage return or both,
    and the last line needs no line end.
    """
    reader = _LogReader(keep)
    pending: list[bytes] = []  # the log after its last line end, in pieces
    held = b""
    with Path(path).open("rb") as f:
        while True:
            chunk = f.read(_BLOCK_BYTES)
            data = held + chunk
            held = b"\r" if chunk and data.endswith(b"\r") else b""
            if held:  # maybe the first half of a \r\n
                data = data[:-1]
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            # only this chunk is searched, so a long line costs its length
            cut = data.rfind(b"\n") + 1
            if cut:  # one copy: the block is joined from a view of `data`
                reader.block(b"".join([*pending, memoryview(data)[:cut]]))
                pending = []
            pending.append(data[cut:])
            if not chunk:
                if any(pending):
                    reader.block(b"".join(pending) + b"\n")
                return reader.finish()
