"""The block reader behind parse_logs, run_detection and emit_distribution:
a reference per-line reader and an oracle built from the public per-record
pieces, and properties over equivalent and mutated forms of simulated
logs, read in blocks small enough that records, tails and errors straddle
block boundaries."""

import contextlib
import io
import json
import math
import re
import tempfile
from collections.abc import Iterator
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attachsim import (
    AttachRecord,
    AttachStep,
    DegenerateInput,
    DetectPolicy,
    EmptyWindow,
    LatencyStats,
    Outcome,
    ParseError,
    SignalingMessage,
    classify,
    compute_step_latencies,
    logformat,
    parse_config,
    parse_logs,
    run_detection,
    run_scenario,
)
from attachsim.cli import main
from attachsim.logformat import (
    OUTCOME_AFTER,
    _STEP_DIRECTIONS,
    _WRITER_LINE,
    _head_times,
    _read_line,
)
from attachsim.scenario import _step_latencies, _write_detection_reports

AUTH = AttachStep.AuthenticationResponse


# The per-line reader that parse_logs, run_detection and emit_distribution
# used before the block reader, kept verbatim as the reference for it.
def _reference_attaches(path: str | Path
                        ) -> Iterator[tuple[str, list[AttachStep], list[float],
                                            Outcome]]:
    """Each attach record of a JSONL signaling log, read in one pass by
    the rules of parse_logs.

    Yields (device_id, steps, times, outcome) when a record closes: when
    the device's next record starts, or at the end of the log, devices in
    sorted order.
    """
    # device -> [steps, times, line of the last message] of its open record
    open_records: dict[str, list] = {}

    def closed(device_id: str, record: list):
        steps, times, last_line = record
        if steps[-1] not in OUTCOME_AFTER:
            raise ParseError(f"record for {device_id} truncated at "
                             f"{steps[-1].name}", last_line)
        return device_id, steps, times, OUTCOME_AFTER[steps[-1]]

    match = _WRITER_LINE.match
    directions = _STEP_DIRECTIONS.get
    first = AttachStep.AttachRequest
    # Undecodable bytes become lone surrogates, which only _read_line takes.
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            fast = match(line)
            if fast:
                time_text, direction, device_id, message = fast.groups()
                step, expected = directions(message, (None, None))
                time = float(time_text)
                if direction != expected or not time < math.inf:
                    time, device_id, step = _read_line(line, lineno)
            else:
                time, device_id, step = _read_line(line, lineno)

            record = open_records.get(device_id)
            if record is not None and step <= record[0][-1]:
                del open_records[device_id]
                yield closed(device_id, record)
                record = None
            if record is None:
                if step != first:
                    raise ParseError(
                        f"record for {device_id} starts at {step.name}", lineno)
                open_records[device_id] = [[step], [time], lineno]
                continue
            times = record[1]
            if time < times[-1]:
                raise ParseError(f"time went backwards for {device_id}", lineno)
            record[0].append(step)
            times.append(time)
            record[2] = lineno

    for device_id in sorted(open_records):
        yield closed(device_id, open_records[device_id])


def _reference_parse_logs(path) -> dict[str, list[AttachRecord]]:
    done: dict[str, list[AttachRecord]] = {}
    for device_id, steps, times, outcome in _reference_attaches(path):
        recs = done.setdefault(device_id, [])
        recs.append(AttachRecord(
            device_id=device_id, outcome=outcome, attach_seq=len(recs),
            messages=[SignalingMessage(time=time, direction=step.direction,
                                       device_id=device_id, message=step.name)
                      for step, time in zip(steps, times)]))
    return done


def _reference_step_latencies(path, step) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for device_id, steps, times, _ in _reference_attaches(path):
        values = out.setdefault(device_id, [])
        try:
            i = steps.index(step)
        except ValueError:
            continue
        if i:
            values.append(times[i] - times[i - 1])
    return out


def _simulate(out: Path, seed: int, fleet: list, attaches: int) -> Path:
    # a 2.1 s auth timer times out about half of the SMBHyb_rem attaches
    cfg = parse_config({"version": 1, "seed": seed, "fleet": fleet,
                        "attaches_per_device": attaches,
                        "auth_timer_ms": 2100.0})
    return run_scenario(cfg, out).logs_path


def _mixed_log(out: Path, seed: int, attaches: int) -> Path:
    """Phones, timing-out and wrong-key devices, plus a one-attach device
    appended as a second capture."""
    main = _simulate(out / "main", seed, [
        {"profile": "FairPhone5G", "count": 3},
        {"profile": "SMBHyb_rem", "count": 2},
        {"profile": "SMBPor_rem", "count": 1},
        {"profile": "FairPhone5G", "count": 1, "wrong_key": True}], attaches)
    single = _simulate(out / "single", seed + 1,
                       [{"profile": "GalaxyA90", "count": 1}], 1)
    path = out / "mixed.jsonl"
    path.write_text(main.read_text() + single.read_text())
    return path


def _oracle_detection(logs: Path, baseline: Path, policy: DetectPolicy,
                      report: Path):
    """run_detection composed from the reference reader,
    compute_step_latencies, LatencyStats and classify."""
    def samples(path):
        return {device_id: [s for rec in recs
                            for s in compute_step_latencies(rec)]
                for device_id, recs in _reference_parse_logs(path).items()}

    baseline_stats = LatencyStats.from_samples(
        [s.latency for device in samples(baseline).values() for s in device
         if s.step == AUTH])
    test = samples(logs)
    verdicts, skipped = [], []
    for device_id in sorted(test):
        values = [s.latency for s in test[device_id] if s.step == AUTH]
        if len(values) < 2:
            skipped.append(device_id)
            continue
        verdicts.append(classify(LatencyStats.from_samples(values),
                                 baseline_stats, policy, device_id=device_id))
    _write_detection_reports(report, report.with_suffix(".json"), verdicts,
                             skipped, baseline_stats, policy)
    return verdicts, skipped


@pytest.mark.parametrize("statistic", ["welch", "double"])
def test_detection_matches_per_record_oracle(tmp_path, statistic):
    logs = _mixed_log(tmp_path / "test", seed=51, attaches=8)
    baseline = _mixed_log(tmp_path / "base", seed=61, attaches=6)
    outcomes = {rec.outcome.value for recs in parse_logs(logs).values()
                for rec in recs}
    assert outcomes == {"Completed", "AuthTimeout", "AuthReject"}
    policy = DetectPolicy(statistic=statistic)

    result = run_detection(logs, baseline, policy, tmp_path / "report.csv")
    verdicts, skipped = _oracle_detection(logs, baseline, policy,
                                          tmp_path / "oracle.csv")
    assert result.verdicts == verdicts
    assert result.skipped == skipped
    assert skipped == ["FairPhone5G-003", "GalaxyA90-000"]
    assert (tmp_path / "report.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == \
        (tmp_path / "oracle.json").read_bytes()


@pytest.fixture(scope="module")
def sample_log(tmp_path_factory):
    """A small mixed log, its lines, and its records and self-detection
    report as read in writer form."""
    out = tmp_path_factory.mktemp("stream")
    path = _mixed_log(out, seed=71, attaches=3)
    result = run_detection(path, path, DetectPolicy(), out / "report.csv")
    reports = (result.csv_path.read_bytes(), result.json_path.read_bytes())
    return path.read_text().splitlines(), parse_logs(path), reports


def _reordered(line: str) -> str:
    return json.dumps(dict(reversed(json.loads(line).items())))


def _escaped(line: str) -> str:
    # one device_id character as a \uXXXX escape
    return re.sub(r'("device_id": ")(.)',
                  lambda m: m[1] + "\\u%04x" % ord(m[2]), line, count=1)


def _exponent(line: str) -> str:
    def to_exponent(m):
        _, digits, exponent = Decimal(m[2]).as_tuple()
        return m[1] + "".join(map(str, digits)) + f"e{exponent}"
    return re.sub(r'("time": )([0-9.eE+-]+)', to_exponent, line, count=1)


def _spaced(line: str) -> str:
    return " \t" + line.replace('{"time":', '{ "time" :', 1) + " \t"


# applied in this order: _reordered writes the line out afresh
_REWRITES = (_reordered, _escaped, _exponent, _spaced)


@given(st.data())
def test_equivalent_line_forms_read_the_same(sample_log, data):
    lines, records, reports = sample_log
    rewrites = data.draw(st.dictionaries(
        st.integers(0, len(lines) - 1),
        st.lists(st.sampled_from(_REWRITES), min_size=1, max_size=4,
                 unique=True).map(lambda fs: sorted(fs, key=_REWRITES.index)),
        min_size=1, max_size=6))
    changed = list(lines)
    for index, functions in rewrites.items():
        for rewrite in functions:
            changed[index] = rewrite(changed[index])
        assert _WRITER_LINE.match(changed[index]) is None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rewritten.jsonl"
        path.write_text("\n".join(changed) + "\n")
        assert parse_logs(path) == records
        result = run_detection(path, path, DetectPolicy(),
                               Path(tmp) / "report.csv")
        assert (result.csv_path.read_bytes(),
                result.json_path.read_bytes()) == reports


_KEYS = ("time", "layer", "direction", "device_id", "message")
# a field and the JSON text that replaces its value; None drops the field
_MUTATIONS = (
    ("time", '"5"'), ("time", "true"), ("time", "null"), ("time", "-1.5"),
    ("time", "NaN"), ("time", "-Infinity"), ("time", "1e400"),
    ("time", "1" * 400), ("time", "01.5"), ("time", None),
    ("layer", '"RRC"'), ("layer", "null"), ("layer", None),
    ("direction", '"Sideways"'), ("direction", "flip"),
    ("device_id", "null"), ("device_id", "7"), ("device_id", '["x"]'),
    ("device_id", '"a\x01b"'), ("device_id", '"a\\qb"'),
    ("device_id", None),
    ("message", '"DetachRequest"'), ("message", "4"), ("message", None),
)


def _line_with(fields: dict, order) -> str:
    return "{" + ", ".join(f'"{key}": {fields[key]}' for key in order
                           if fields[key] is not None) + "}"


@given(st.data())
def test_mutated_line_is_rejected_alike_in_any_form(sample_log, data):
    lines, _, _ = sample_log
    index = data.draw(st.integers(0, len(lines) - 1))
    field, value = data.draw(st.sampled_from(_MUTATIONS))
    # the raw JSON text of each field as the writer printed it
    fields = dict(zip(_KEYS, re.fullmatch(
        r'\{"time": (.*), "layer": (.*), "direction": (.*), '
        r'"device_id": (.*), "message": (.*)\}', lines[index]).groups()))
    if value == "flip":
        value = '"Uplink"' if fields["direction"] == '"Downlink"' \
            else '"Downlink"'
    fields[field] = value

    errors = []
    for order in (_KEYS, _KEYS[::-1]):
        changed = list(lines)
        changed[index] = _line_with(fields, order)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.jsonl"
            path.write_text("\n".join(changed) + "\n")
            with pytest.raises(ParseError) as err:
                parse_logs(path)
        assert err.value.line == index + 1
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def _read(read, path):
    """What `read` gives for the log at `path`, in order, or its error."""
    try:
        return list(read(path).items())
    except ParseError as err:
        return str(err), err.line


_READERS = (
    (parse_logs, _reference_parse_logs),
    (lambda path: _step_latencies(path, AUTH),
     lambda path: _reference_step_latencies(path, AUTH)),
    (lambda path: _step_latencies(path, AttachStep.AttachRequest),
     lambda path: _reference_step_latencies(path, AttachStep.AttachRequest)),
)


def _reads_as_reference(data: bytes, block: int):
    """Read `data` in blocks of `block` bytes and check it against the
    reference reader; the reference's reading of parse_logs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        with mock.patch.object(logformat, "_BLOCK_BYTES", block):
            for read, reference in _READERS:
                expected = _read(reference, path)
                assert _read(read, path) == expected
        return _read(_reference_parse_logs, path)


_BLOCKS = st.integers(64, 4096)


def _sample_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


@given(_BLOCKS)
def test_block_reader_matches_reference(sample_log, block):
    lines, records, _ = sample_log
    assert _reads_as_reference(_sample_bytes(lines), block) == \
        list(records.items())


@pytest.mark.parametrize("mutation", _MUTATIONS, ids=repr)
@settings(max_examples=8)
@given(data=st.data())
def test_block_reader_matches_reference_on_mutations(sample_log, mutation,
                                                     data):
    lines, _, _ = sample_log
    index = data.draw(st.integers(0, len(lines) - 1))
    field, value = mutation
    fields = dict(zip(_KEYS, re.fullmatch(
        r'\{"time": (.*), "layer": (.*), "direction": (.*), '
        r'"device_id": (.*), "message": (.*)\}', lines[index]).groups()))
    if value == "flip":
        value = '"Uplink"' if fields["direction"] == '"Downlink"' \
            else '"Downlink"'
    fields[field] = value
    changed = list(lines)
    changed[index] = _line_with(fields, _KEYS)
    result = _reads_as_reference(_sample_bytes(changed), data.draw(_BLOCKS))
    assert result[1] == index + 1


@st.composite
def _byte_mutations(draw, data: bytes) -> bytes:
    """`data` with a line dropped, duplicated or swapped with the next, a
    byte deleted, or one of NUL, 0xff, CR or LF inserted."""
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(("drop", "duplicate", "swap", "delete",
                                 "insert")))
    if kind in ("drop", "duplicate", "swap"):
        i = draw(st.integers(0, len(lines) - 2))
        picked = {"drop": [], "duplicate": [lines[i]] * 2,
                  "swap": [lines[i + 1], lines[i]]}[kind]
        return b"".join(lines[:i] + picked + lines[i + 2 - (kind != "swap"):])
    at = draw(st.integers(0, len(data) - 1))
    if kind == "delete":
        return data[:at] + data[at + 1:]
    return data[:at] + draw(st.sampled_from((b"\x00", b"\xff", b"\r", b"\n"))) \
        + data[at:]


@given(st.data())
def test_block_reader_matches_reference_on_byte_mutations(sample_log, data):
    lines, _, _ = sample_log
    mutated = data.draw(_byte_mutations(_sample_bytes(lines)))
    _reads_as_reference(mutated, data.draw(_BLOCKS))


@pytest.mark.parametrize("ending", ["\r\n", "\r", "\n\r\n"])
@pytest.mark.parametrize("block", [64, 97, 4096, 1 << 18])
def test_line_endings_read_as_line_feeds(sample_log, ending, block):
    lines, records, _ = sample_log
    if ending == "\n\r\n":  # mixed: every other line ends in \r\n
        text = "".join(line + ("\r\n" if i % 2 else "\n")
                       for i, line in enumerate(lines))
    else:
        text = ending.join(lines) + ending
    for data in (text.encode(), text.rstrip("\r\n").encode()):
        assert _reads_as_reference(data, block) == list(records.items())


@given(st.data())
def test_lines_with_no_or_two_separators_read_the_same(sample_log, data):
    """A block whose lines hold as many `, "layer": ` as lines, but not one
    each: layer first on some lines, given twice on others."""
    lines, records, _ = sample_log
    picks = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2,
                               max_size=6, unique=True))
    changed = list(lines)
    for n, i in enumerate(picks):
        fields = json.loads(lines[i])
        if n % 2:
            changed[i] = changed[i].replace(', "layer": "NAS"',
                                            ', "layer": "NAS"' * 2)
        else:
            changed[i] = json.dumps({"layer": fields.pop("layer"), **fields})
    assert _reads_as_reference(_sample_bytes(changed), data.draw(
        st.sampled_from([4096, 1 << 18]))) == list(records.items())


def test_line_with_three_separators_fails_as_before(sample_log):
    """Split at every `, "layer": `, such a line's first and third pieces
    are writer tails: the pieces of its block no longer pair up a line."""
    lines, _, _ = sample_log
    head, tail = lines[3].split(', "layer": ')
    changed = list(lines)
    changed[3] = f'{head}, "layer": {tail}, "layer": 1, "layer": {tail}'
    assert _reads_as_reference(_sample_bytes(changed), 1 << 18) == \
        ("line 4: invalid JSON (Extra data)", 4)


@pytest.mark.parametrize("block", [64, 1 << 18])
def test_blank_line_and_bom_fail_as_before(sample_log, block):
    lines, _, _ = sample_log
    data = _sample_bytes(lines)
    assert _reads_as_reference(b"\xef\xbb\xbf" + data, block) == \
        ("line 1: invalid JSON (Expecting value)", 1)
    blank = _sample_bytes(lines[:5] + [""] + lines[5:])
    assert _reads_as_reference(blank, block) == ("line 6: blank line", 6)
    assert _reads_as_reference(data + b"\n", block) == \
        (f"line {len(lines) + 1}: blank line", len(lines) + 1)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b""])
def test_long_line_fails_as_before(sample_log, ending):
    """A log exported as one JSON array: a 4 MiB line read in 1 KiB blocks
    fails at line 1 as before, with or without lines after it."""
    lines, _, _ = sample_log
    array = ("[" + ", ".join(lines * (4 * 2 ** 20 // len("".join(lines))))
             + "]").encode()
    keys = f"line 1: expected exactly keys {sorted(logformat._LOG_KEYS)}"
    assert _reads_as_reference(array + ending, 1024) == (keys, 1)
    after = _reads_as_reference(array + ending + _sample_bytes(lines), 1024)
    assert after == ((keys, 1) if ending else
                     ("line 1: invalid JSON (Extra data)", 1))


def test_unpaired_pieces_skip_tail_lookups(sample_log):
    """A line holding 1,000 `, "layer": ` (a log exported as one
    JSON array) goes straight to the per-line split: at most one tail
    lookup a line, and the reference reader's error."""
    lines, _, _ = sample_log
    array = "[" + ", ".join((lines * 1000)[:1000]) + "]\n"
    learn = logformat._LogReader._learn
    with mock.patch.object(logformat._LogReader, "_learn", autospec=True,
                           side_effect=learn) as spy:
        assert _reads_as_reference(array.encode(), 1 << 18) == (
            f"line 1: expected exactly keys {sorted(logformat._LOG_KEYS)}", 1)
    # the log is one line, read by each reader in _READERS
    assert 1 <= spy.call_count <= len(_READERS)


_TIME_TEXTS = st.one_of(
    st.integers(0, 2 ** 53 - 1).map(lambda k: f"{k / 1024:.10f}"),
    st.from_regex(r"(?:0|[1-9][0-9]{0,20})(?:\.[0-9]{1,24})?", fullmatch=True),
    st.text("0123456789.eE+-_ x", max_size=36),
    st.sampled_from(["1" * 400, "01.5", "1.", ".5", "0.0000000000",
                     "01.5000000000", "00.0000000000", "0001.0009765625",
                     "8796093022207.9990234375", "99999999999999.5000000000",
                     "1.50000000000", "1.500000000", "1..5000000000",
                     "1e3", "inf", "NaN"]))


@given(st.lists(_TIME_TEXTS, min_size=1, max_size=30))
def test_head_times_are_float_of_text(texts):
    ok, times = _head_times([b'{"time": ' + text.encode() for text in texts])
    for text, accepted, time in zip(texts, ok.tolist(), times.tolist()):
        lattice = re.fullmatch(r"(?:0|[1-9][0-9]{0,12})\.[0-9]{10}", text) \
            and (float(text) * 1024).is_integer()
        assert accepted == bool(lattice)
        if accepted:
            assert time == float(text)


@given(st.lists(st.from_regex(r"(?:0|[1-9][0-9]{0,16})(?:\.[0-9]{1,24})?",
                              fullmatch=True), min_size=11, max_size=11),
       _BLOCKS)
def test_writer_lines_keep_any_time_text(texts, block):
    """Times outside the block conversion are read by float, as before."""
    texts.sort(key=Decimal)
    data = "".join(
        f'{{"time": {text}, "layer": "NAS", "direction": "{step.direction}", '
        f'"device_id": "dev", "message": "{step.name}"}}\n'
        for text, step in zip(texts, AttachStep)).encode()
    result = _reads_as_reference(data, block)
    if not isinstance(result[0], str):
        [(_, [record])] = result
        assert [m.time for m in record.messages] == list(map(float, texts))


@pytest.fixture(scope="module")
def log_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    return (_mixed_log(out / "test", seed=81, attaches=3).read_bytes(),
            _mixed_log(out / "base", seed=91, attaches=3).read_bytes())


@given(st.data())
def test_detect_on_mutated_logs_exits_with_documented_errors(log_pair, data):
    logs = list(log_pair)
    which = data.draw(st.integers(0, 1))
    logs[which] = data.draw(_byte_mutations(logs[which]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("test.jsonl", "base.jsonl")]
        for path, raw in zip(paths, logs):
            path.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["detect", "--logs", str(paths[0]),
                       "--baseline", str(paths[1]),
                       "--report", str(Path(tmp) / "cli.csv")])
        assert rc in (0, 1, 2)
        if rc == 1:
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
        try:
            run_detection(paths[0], paths[1], DetectPolicy(),
                          Path(tmp) / "report.csv")
        except (ParseError, DegenerateInput, EmptyWindow):
            assert rc == 1
