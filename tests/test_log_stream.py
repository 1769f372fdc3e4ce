"""The one-pass log reader behind parse_logs, run_detection and
emit_distribution: an oracle built from the public per-record pieces, and
properties over equivalent and mutated forms of simulated log lines."""

import json
import re
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attachsim import (
    AttachStep,
    DetectPolicy,
    EmptyWindow,
    LatencyStats,
    ParseError,
    aggregate_auth_latency,
    classify,
    compute_step_latencies,
    parse_config,
    parse_logs,
    run_detection,
    run_scenario,
)
from attachsim.scenario import _WRITER_LINE, _write_detection_reports

AUTH = AttachStep.AuthenticationResponse


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
    """run_detection composed from parse_logs, compute_step_latencies,
    aggregate_auth_latency and classify."""
    def samples(path):
        return {device_id: [s for rec in recs
                            for s in compute_step_latencies(rec)]
                for device_id, recs in parse_logs(path).items()}

    baseline_stats = LatencyStats.from_samples(
        [s.latency for device in samples(baseline).values() for s in device
         if s.step == AUTH])
    test = samples(logs)
    verdicts, skipped = [], []
    for device_id in sorted(test):
        try:
            stats = aggregate_auth_latency(test[device_id], device_id)
        except EmptyWindow:
            skipped.append(device_id)
            continue
        if stats.n < 2:
            skipped.append(device_id)
            continue
        verdicts.append(classify(stats, baseline_stats, policy,
                                 device_id=device_id))
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
