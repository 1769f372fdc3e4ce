import hashlib
import json
import math
import os
import pickle
import re
import sys
import tempfile
import time
import types
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import attachsim
from attachsim import (
    ConfigError,
    DetectPolicy,
    EmptyWindow,
    FleetEntry,
    NetworkConfig,
    Outcome,
    ParseError,
    ReauthPolicy,
    RngStream,
    ScenarioConfig,
    channel_for,
    emit_distribution,
    parse_config,
    parse_logs,
    run_attaches,
    run_detection,
    run_scenario,
    schedule_reauth,
)
from attachsim import forkjoin, scenario
from attachsim.cli import main
from attachsim.core import (
    DECIMALS,
    REPR_TICKS,
    SHORT_DECIMALS,
    SHORT_TICKS,
    TIME_LIMIT_MS,
    DegenerateInput,
    MalformedRecord,
    fmt_ms,
    lattice_repr,
)
from attachsim.fleet import builtin_profiles
from attachsim.monitor import compute_step_latencies
from attachsim.protocol import ATTACH_SEQUENCE, AttachStep, DeviceAttaches

MINIMAL = {
    "version": 1,
    "seed": 3,
    "fleet": [{"profile": "FairPhone5G", "count": 1}],
}


def _config(**overrides) -> ScenarioConfig:
    raw = dict(MINIMAL)
    raw.update(overrides)
    return parse_config(raw)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_package_root_names_match_all():
    """`__all__` is sorted, free of duplicates, and names exactly the
    public names other than modules that the package root binds."""
    names = attachsim.__all__
    assert names == sorted(set(names))
    bound = {name for name, value in vars(attachsim).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(names) == bound


def test_parse_config_defaults():
    cfg = _config()
    assert cfg.seed == 3
    assert cfg.attaches_per_device == 50
    assert cfg.day_span_ms == 86_400_000.0
    assert cfg.min_spacing_ms == 10_000.0
    assert cfg.rsrp_dbm == -71.0
    assert cfg.calibrate is True
    assert cfg.detect == DetectPolicy()


def test_parse_config_fail_closed():
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "verison": 1})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "version": 2})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "fleet": MINIMAL["fleet"]})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "fleet": [{"profile": "FairPhone5G",
                                            "count": 1, "color": "red"}]})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "channels": {"smoke_signals": {}}})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "detect": {"statistic": "bayes"}})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL,
                      "fleet": [{"profile": "FairPhone5G", "count": 0}]})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL,
                      "fleet": [{"profile": "NoSuchPhone", "count": 1}]})


def test_parse_config_inline_profile():
    steps = {s: [1.0, 0.0] for s in (
        "AttachRequest", "AuthenticationRequest", "AuthenticationResponse",
        "SecurityModeCommand", "SecurityModeComplete", "AttachAccept",
        "AttachComplete")}
    cfg = _config(fleet=[{"profile": {
        "name": "BareBones", "steps": steps, "channel_kind": "coupled_serial",
        "sensitivity_rsrp": -85.0}, "count": 2, "wrong_key": True}])
    entry = cfg.fleet[0]
    assert entry.count == 2 and entry.wrong_key
    assert entry.profile.name == "BareBones"
    with pytest.raises(ConfigError):
        _config(fleet=[{"profile": {"name": "x", "steps": steps,
                                    "channel_kind": "coupled_serial",
                                    "sensitivity_rsrp": -85.0,
                                    "favourite_colour": "blue"},
                        "count": 1}])


def test_run_scenario_counts_and_ids(tmp_path):
    cfg = ScenarioConfig(seed=5, fleet=(FleetEntry("GalaxyA90", 2),
                                        FleetEntry("GalaxyS3", 1)),
                         attaches_per_device=4)
    art = run_scenario(cfg, tmp_path / "out")
    assert sorted(art.records) == ["GalaxyA90-000", "GalaxyA90-001",
                                   "GalaxyS3-000"]
    assert all(len(r) == 4 for r in art.records.values())
    assert all(rec.outcome is Outcome.Completed
               for recs in art.records.values() for rec in recs)
    lines = art.records_path.read_text().splitlines()
    assert len(lines) == 12
    row = json.loads(lines[0])
    assert set(row) == {"device_id", "attach_seq", "outcome", "start_ms",
                        "end_ms", "steps", "auth_transfer_ms",
                        "auth_processing_ms"}


def test_run_scenario_refused_at_cell_edge(tmp_path):
    cfg = ScenarioConfig(seed=5, fleet=(FleetEntry("FairPhone5G", 1),
                                        FleetEntry("GalaxyNote4", 1)),
                         attaches_per_device=3, rsrp_dbm=-100.0)
    art = run_scenario(cfg, tmp_path / "out")
    assert all(r.outcome is Outcome.CampRefused
               for r in art.records["FairPhone5G-000"])
    assert all(r.outcome is Outcome.Completed
               for r in art.records["GalaxyNote4-000"])
    # refused attaches emit nothing
    for line in art.logs_path.read_text().splitlines():
        assert json.loads(line)["device_id"] == "GalaxyNote4-000"


def test_logs_schema_and_ordering(tmp_path):
    cfg = ScenarioConfig(seed=8, fleet=(FleetEntry("FairPhone5G", 2),),
                         attaches_per_device=3)
    art = run_scenario(cfg, tmp_path / "out")
    lines = art.logs_path.read_text().splitlines()
    assert lines
    pattern = re.compile(
        r'^\{"time": \d+\.\d{10}, "layer": "NAS", "direction": '
        r'"(Uplink|Downlink)", "device_id": "[^"]+", "message": "[A-Za-z]+"\}$')
    times = []
    for line in lines:
        assert pattern.match(line), line
        obj = json.loads(line)
        assert list(obj) == ["time", "layer", "direction", "device_id",
                             "message"]
        times.append(obj["time"])
    assert times == sorted(times)


def test_rerun_is_byte_identical(tmp_path):
    cfg = ScenarioConfig(seed=9, fleet=(FleetEntry("Xiaomi9Pro5G", 1),
                                        FleetEntry("SMBPor_rem", 1)),
                         attaches_per_device=5)
    a = run_scenario(cfg, tmp_path / "a")
    b = run_scenario(cfg, tmp_path / "b")
    for pa, pb in ((a.logs_path, b.logs_path),
                   (a.records_path, b.records_path),
                   (a.summary_path, b.summary_path)):
        assert _digest(pa) == _digest(pb)
    c = run_scenario(ScenarioConfig(seed=10, fleet=cfg.fleet,
                                    attaches_per_device=5), tmp_path / "c")
    assert _digest(a.logs_path) != _digest(c.logs_path)


def test_parse_logs_roundtrip(tmp_path):
    cfg = ScenarioConfig(seed=11, fleet=(FleetEntry("GalaxyS3", 1),
                                         FleetEntry("SMBHyb_rem", 1)),
                         attaches_per_device=4)
    art = run_scenario(cfg, tmp_path / "out")
    parsed = parse_logs(art.logs_path)
    assert sorted(parsed) == sorted(art.records)
    for device_id, recs in art.records.items():
        got = parsed[device_id]
        assert [r.outcome for r in got] == [r.outcome for r in recs]
        assert [[m.to_json_line() for m in r.messages] for r in got] == \
               [[m.to_json_line() for m in r.messages] for r in recs]


def test_overlapping_attaches_round_trip(tmp_path):
    # 100 ms spacing is far shorter than a relayed attach (about 2.3 s), so
    # scheduled attaches overlap; each must start after the previous one
    cfg = ScenarioConfig(seed=3, fleet=(FleetEntry("SMBHyb_rem", 1),
                                        FleetEntry("FairPhone5G", 1)),
                         attaches_per_device=200, day_span_ms=200_000.0,
                         min_spacing_ms=100.0)
    art = run_scenario(cfg, tmp_path / "out")
    parsed = parse_logs(art.logs_path)
    for device_id, recs in art.records.items():
        sent = [r for r in recs if r.messages]
        assert len(sent) == 200
        for prev, cur in zip(sent, sent[1:]):
            assert cur.messages[0].time > prev.messages[-1].time
        got = parsed[device_id]
        assert [r.outcome for r in got] == [r.outcome for r in sent]
        assert [[m.to_json_line() for m in r.messages] for r in got] == \
               [[m.to_json_line() for m in r.messages] for r in sent]


def _sample_log(tmp_path, n_attaches=2):
    cfg = ScenarioConfig(seed=13, fleet=(FleetEntry("FairPhone5G", 1),),
                         attaches_per_device=n_attaches)
    return run_scenario(cfg, tmp_path / "log").logs_path


def test_parse_logs_error_line_numbers(tmp_path):
    path = _sample_log(tmp_path)
    lines = path.read_text().splitlines()

    bad = list(lines)
    bad[6] = bad[6][:-1]  # truncate the JSON object on line 7
    target = tmp_path / "bad.jsonl"
    target.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError) as err:
        parse_logs(target)
    assert err.value.line == 7
    assert "line 7" in str(err.value)

    bad = list(lines)
    obj = json.loads(bad[2])
    obj["message"] = "DetachRequest"
    bad[2] = json.dumps(obj)
    target.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError) as err:
        parse_logs(target)
    assert err.value.line == 3

    bad = list(lines)
    obj = json.loads(bad[4])
    obj["direction"] = "Downlink"  # AuthenticationResponse is uplink
    bad[4] = json.dumps(obj)
    target.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError) as err:
        parse_logs(target)
    assert err.value.line == 5

    bad = list(lines)
    obj = json.loads(bad[0])
    del obj["layer"]
    bad[0] = json.dumps(obj)
    target.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError) as err:
        parse_logs(target)
    assert err.value.line == 1

    target.write_text(lines[0] + "\n\n" + lines[1] + "\n")
    with pytest.raises(ParseError) as err:
        parse_logs(target)
    assert err.value.line == 2

    # time must be a finite JSON number and device_id a string
    for field, text in (("time", '"5"'), ("time", "true"), ("time", '"NaN"'),
                        ("time", '"inf"'), ("time", "NaN"),
                        ("time", "Infinity"), ("time", "1" * 400),
                        ("device_id", "null"), ("device_id", "7")):
        bad = list(lines)
        obj = json.loads(bad[3])
        obj[field] = "@"
        bad[3] = json.dumps(obj).replace('"@"', text)
        target.write_text("\n".join(bad) + "\n")
        with pytest.raises(ParseError) as err:
            parse_logs(target)
        assert err.value.line == 4, (field, text)


def test_parse_logs_rejects_headless_record(tmp_path):
    path = _sample_log(tmp_path)
    lines = path.read_text().splitlines()
    # drop the opening AttachRequest: capture now starts mid-attach
    (tmp_path / "cut.jsonl").write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(ParseError):
        parse_logs(tmp_path / "cut.jsonl")


def test_parse_logs_rejects_truncated_tail(tmp_path):
    path = _sample_log(tmp_path, n_attaches=1)
    lines = path.read_text().splitlines()
    (tmp_path / "tail.jsonl").write_text("\n".join(lines[:6]) + "\n")
    with pytest.raises(ParseError):
        parse_logs(tmp_path / "tail.jsonl")


def _detect_pair(tmp_path):
    """A small mixed test log and a phone baseline log."""
    base = run_scenario(
        ScenarioConfig(seed=21, fleet=(FleetEntry("FairPhone5G", 3),),
                       attaches_per_device=20), tmp_path / "base")
    mix = run_scenario(
        ScenarioConfig(seed=22, fleet=(FleetEntry("FairPhone5G", 2),
                                       FleetEntry("SMBHyb_rem", 1)),
                       attaches_per_device=10), tmp_path / "mix")
    return mix.logs_path, base.logs_path


def test_detection_reports(tmp_path):
    logs, base = _detect_pair(tmp_path)
    result = run_detection(logs, base, DetectPolicy(), tmp_path / "report.csv")
    assert result.flagged
    decisions = {v.device_id: v.decision.value for v in result.verdicts}
    assert decisions["SMBHyb_rem-000"] == "Flagged"
    assert decisions["FairPhone5G-000"] == "Clear"
    assert decisions["FairPhone5G-001"] == "Clear"

    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "device_id,n,mean,std,median,t,p,decision"
    assert len(lines) == 4
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["policy"] == {"critical": 1.65, "statistic": "welch"}
    assert payload["baseline"]["n"] == 60
    assert [v["device_id"] for v in payload["verdicts"]] == sorted(decisions)
    for v in payload["verdicts"]:
        assert v["t_double"] == pytest.approx(
            v["t_welch"] / (1.0 / v["n"] + 1.0 / 60) ** 0.5, rel=1e-9)


def test_cli_detect_json_report_path_is_an_error(tmp_path, capsys):
    """The JSON report goes beside the CSV one with the suffix .json, so a
    --report ending in .json would be overwritten: an error before either
    log is read, and no report is written."""
    logs, base = _detect_pair(tmp_path)
    for inputs in ((logs, base), (tmp_path / "none", tmp_path / "none")):
        capsys.readouterr()
        assert main(["detect", "--logs", str(inputs[0]),
                     "--baseline", str(inputs[1]),
                     "--report", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: report ") and err.count("\n") == 1
        assert "r.json" in err
        assert not list(tmp_path.glob("r.*"))


def test_detection_skips_thin_devices(tmp_path):
    base = run_scenario(
        ScenarioConfig(seed=23, fleet=(FleetEntry("FairPhone5G", 2),),
                       attaches_per_device=15), tmp_path / "base")
    thin = run_scenario(
        ScenarioConfig(seed=24, fleet=(FleetEntry("GalaxyA90", 1),),
                       attaches_per_device=1), tmp_path / "thin")
    result = run_detection(thin.logs_path, base.logs_path, DetectPolicy(),
                           tmp_path / "r.csv")
    assert result.verdicts == []
    assert result.skipped == ["GalaxyA90-000"]
    assert not result.flagged


def test_detection_needs_baseline_samples(tmp_path):
    log = _sample_log(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(EmptyWindow):
        run_detection(log, empty, DetectPolicy(), tmp_path / "r.csv")


def _corrupt(path, line):
    """A copy of the log at `path` whose `line` (1-based) is not JSON."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"{not json}\n"
    out = path.with_name(f"bad-{line}.jsonl")
    out.write_bytes(b"".join(lines))
    return out


def test_detection_inline_matches_forked(tmp_path, monkeypatch):
    logs, base = _detect_pair(tmp_path)
    run_detection(logs, base, DetectPolicy(), tmp_path / "forked.csv")
    monkeypatch.delattr(os, "fork")
    run_detection(logs, base, DetectPolicy(), tmp_path / "inline.csv")
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"forked{suffix}").read_bytes() \
            == (tmp_path / f"inline{suffix}").read_bytes()


@pytest.mark.parametrize("fork", [True, False])
def test_detection_bad_baseline_raises_its_parse_error(tmp_path, monkeypatch,
                                                       fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    logs, base = _detect_pair(tmp_path)
    with pytest.raises(ParseError) as err:
        run_detection(logs, _corrupt(base, 7), DetectPolicy(),
                      tmp_path / "r.csv")
    assert type(err.value) is ParseError
    assert err.value.line == 7
    assert str(err.value).startswith("line 7: invalid JSON")


@pytest.mark.parametrize("fork", [True, False])
def test_detection_bad_test_and_baseline_raise_the_test_error(
        tmp_path, monkeypatch, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    logs, base = _detect_pair(tmp_path)
    with pytest.raises(ParseError) as err:
        run_detection(_corrupt(logs, 12), _corrupt(base, 3), DetectPolicy(),
                      tmp_path / "r.csv")
    assert err.value.line == 12
    assert not (tmp_path / "r.csv").exists()


def test_fork_join_kills_the_child_when_this_half_raises():
    def interrupted():
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forkjoin.fork_join(interrupted, lambda: time.sleep(60))
    assert time.monotonic() - started < 30


def test_fork_join_returns_both_halves_and_child_exits():
    here, there = forkjoin.fork_join(os.getpid, os.getpid)
    assert here == os.getpid() != there
    with pytest.raises(SystemExit) as err:  # a BaseException of the child
        forkjoin.fork_join(int, lambda: sys.exit(3))
    assert err.value.code == 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
def test_fork_join_child_that_never_answers_is_a_child_process_error():
    with pytest.raises(ChildProcessError,
                       match=r"wait status 768 \(exit code 3\)"):
        forkjoin.fork_join(lambda: 1, lambda: os._exit(3))


class _TwoArgError(Exception):
    def __init__(self, what, where):  # unpickling calls it with one argument
        super().__init__(f"{what} at {where}")


def test_fork_join_sends_a_stand_in_for_an_error_that_does_not_unpickle():
    class LocalError(Exception):  # a local class does not pickle at all
        pass

    for error, text in ((_TwoArgError("bad", 7), "_TwoArgError"
                         " in a forked child: bad at 7"),
                        (LocalError("odd"), "LocalError in a forked child: odd")):
        def fail(error=error):
            raise error

        with pytest.raises(RuntimeError) as err:
            forkjoin.fork_join(int, fail)
        assert type(err.value) is RuntimeError and str(err.value) == text


@pytest.mark.parametrize("error", [
    ParseError("bad time 'x'", 3), ConfigError("c"), MalformedRecord("m"),
    EmptyWindow("e"), DegenerateInput("d")])
def test_core_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert getattr(back, "line", None) == getattr(error, "line", None)


@pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
def test_cli_detect_overflowing_latencies_are_an_error(tmp_path, capsys):
    # the README baseline against 3 attaches whose auth step sits at
    # 1.5e308 ms (their latency sum overflows np.mean), or at about 10,
    # 1e100 and 2e100 ms (mean and std are finite, but the
    # Welch-Satterthwaite df overflows a float)
    base = run_scenario(
        ScenarioConfig(seed=8, fleet=(FleetEntry("FairPhone5G", 8),),
                       attaches_per_device=50), tmp_path / "base")
    auth = AttachStep.AuthenticationResponse
    for auth_times in ([1.5e308] * 3, [13.0, 1e100, 2e100]):
        lines = [json.dumps({"time": auth_times[attach] if step >= auth
                             else 1000.0 * attach + step,
                             "layer": "NAS", "direction": step.direction,
                             "device_id": "SMBHyb_rem-000",
                             "message": step.name})
                 for attach in range(3) for step in AttachStep]
        logs = tmp_path / "logs.jsonl"
        logs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["detect", "--logs", str(logs),
                     "--baseline", str(base.logs_path),
                     "--report", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()
        assert not (tmp_path / "r.json").exists()


def test_distribution_masses(tmp_path):
    coupled = run_scenario(
        ScenarioConfig(seed=31, fleet=(FleetEntry("FairPhone5G", 1),),
                       attaches_per_device=30), tmp_path / "c")
    remote = run_scenario(
        ScenarioConfig(seed=32, fleet=(FleetEntry("SMBHyb_rem", 1),),
                       attaches_per_device=30), tmp_path / "r")

    out = emit_distribution(coupled.logs_path, "AuthenticationResponse",
                            tmp_path / "c.csv", bins=40)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 40
    assert float(rows[-1][1]) < 500.0
    total = sum(int(r[2]) for r in rows)
    assert total == 30
    # density is serialized at 8 significant digits
    mass = sum((float(r[1]) - float(r[0])) * float(r[3]) for r in rows)
    assert mass == pytest.approx(1.0, rel=1e-6)

    out = emit_distribution(remote.logs_path, "AuthenticationResponse",
                            tmp_path / "r.csv")
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert float(rows[0][0]) > 1000.0

    with pytest.raises(EmptyWindow):
        emit_distribution(remote.logs_path, "AttachRequest", tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        emit_distribution(remote.logs_path, "NoSuchStep", tmp_path / "x.csv")


def test_cli_end_to_end(tmp_path, capsys):
    cfg = dict(MINIMAL, fleet=[{"profile": "FairPhone5G", "count": 2}],
               attaches_per_device=8)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(out)]) == 0

    mix = dict(MINIMAL, fleet=[{"profile": "FairPhone5G", "count": 1},
                               {"profile": "SMBPor_rem", "count": 1}],
               attaches_per_device=8)
    mix_path = tmp_path / "mix.json"
    mix_path.write_text(json.dumps(mix))
    mix_out = tmp_path / "mix_out"
    assert main(["simulate", "--config", str(mix_path), "--seed", "77",
                 "--out", str(mix_out)]) == 0

    assert main(["detect", "--logs", str(mix_out / "logs.jsonl"),
                 "--baseline", str(out / "logs.jsonl"),
                 "--report", str(tmp_path / "rep.csv")]) == 2
    assert main(["detect", "--logs", str(out / "logs.jsonl"),
                 "--baseline", str(out / "logs.jsonl"),
                 "--report", str(tmp_path / "rep2.csv")]) == 0

    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({"critical": 3.0, "statistic": "welch"}))
    assert main(["detect", "--logs", str(mix_out / "logs.jsonl"),
                 "--baseline", str(out / "logs.jsonl"),
                 "--policy", str(policy_path),
                 "--report", str(tmp_path / "rep3.csv")]) == 2

    assert main(["distribution", "--logs", str(out / "logs.jsonl"),
                 "--step", "AuthenticationResponse",
                 "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["profiles", "--list"]) == 0
    capsys.readouterr()

    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")

    bad_policy = tmp_path / "bad_policy.json"
    bad_policy.write_text(json.dumps({"critical": 1.65, "mode": "x"}))
    assert main(["detect", "--logs", str(out / "logs.jsonl"),
                 "--baseline", str(out / "logs.jsonl"),
                 "--policy", str(bad_policy),
                 "--report", str(tmp_path / "rep4.csv")]) == 1


_INLINE = {"name": "Flat", "channel_kind": "coupled_serial",
           "sensitivity_rsrp": -85.0,
           "steps": {s: [1.0, 0.0] for s in (
               "AttachRequest", "AuthenticationRequest",
               "AuthenticationResponse", "SecurityModeCommand",
               "SecurityModeComplete", "AttachAccept", "AttachComplete")}}


def _with(path, value):
    """MINIMAL with the key at `path` (a tuple of keys) set to value."""
    raw = json.loads(json.dumps(MINIMAL))
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return raw


_BAD_CONFIGS = {
    "fleet": _with(("fleet",), 5),
    "transmission": _with(("transmission",), 5),
    "channels": _with(("channels",), 5),
    "steps": _with(("fleet",), [{"profile": dict(_INLINE, steps=[]),
                                 "count": 1}]),
    "subscriber_key": _with(("fleet",), [{
        "profile": dict(_INLINE, subscriber_key=123), "count": 1}]),
    "seed_string": _with(("seed",), "abc"),
    "seed_float": _with(("seed",), 1.7),
    "seed_negative": _with(("seed",), -1),
    "count_null": _with(("fleet",), [{"profile": "FairPhone5G", "count": None}]),
    "count_float": _with(("fleet",), [{"profile": "FairPhone5G", "count": 2.9}]),
    "rsrp_dbm": _with(("rsrp_dbm",), "x"),
    "negative_sigma": _with(("transmission", "sigma"), -0.4),
    "negative_step_std": _with(("fleet",), [{"profile": dict(
        _INLINE, steps=dict(_INLINE["steps"], AttachAccept=[1.0, -1.0])),
        "count": 1}]),
    "negative_algorithm_std": _with(("fleet",), [{"profile": dict(
        _INLINE, auth_algorithm={"name": "XorTest", "latency_std_ms": -1.0}),
        "count": 1}]),
    "calibrate": _with(("calibrate",), "false"),
    "rtt": _with(("channels", "remote_tcp", "rtt"), "fast"),
    "online": _with(("channels", "remote_udp", "online"), [1]),
    "sessions_auth": _with(("channels", "remote_tcp", "sessions_auth"), "15"),
    "unused_channel_key": _with(("channels", "remote_udp", "bogus"), 1),
    "loss_prob_one": _with(("channels", "remote_udp", "loss_prob"), 1.0),
    "ack_cost_negative": _with(("channels", "remote_tcp", "ack_cost_ms"),
                               -30.0),
    "critical_string": _with(("detect", "critical"), "inf"),
    "critical_nan": _with(("detect", "critical"), math.nan),
    "critical_bool": _with(("detect", "critical"), True),
    # scalars that only run_scenario used to check, after making the
    # output directory
    "rsrp_zero": _with(("rsrp_dbm",), 0),
    "auth_timer_negative": _with(("auth_timer_ms",), -1),
    "spacing_negative": _with(("min_spacing_ms",), -1),
    "day_span_negative": _with(("day_span_ms",), -5),
    "spacing_exceeds_day": _with(("day_span_ms",), 490_000.0),
    # timestamps past 2**43 ms would leave the exact 1/1024 ms lattice
    "day_span_huge": _with(("day_span_ms",), 1e16),
    # a lognormal RTT whose mean leaves the floats (at 1e200, sigma ** 2
    # does), on a fleet that uses the channel and on one that does not
    **{f"rtt_mean_overflow_{sigma:g}_{use}": dict(_with(
        ("channels", "remote_tcp", "rtt"),
        {"kind": "lognormal", "median": 50.0, "sigma": sigma}), fleet=fleet)
       for sigma in (1000.0, 1e200)
       for use, fleet in (("used", [{"profile": "SMBHyb_rem", "count": 1}]),
                          ("unused", MINIMAL["fleet"]))},
}
_BAD_POLICIES = {
    "policy_critical_string": {"critical": "inf"},
    "policy_critical_nan": {"critical": math.nan},
    "policy_critical_infinity": {"critical": math.inf},
    "policy_critical_bool": {"critical": True},
    "policy_not_object": [1.65],
}
_BAD_BINS = {"bins_zero": "0", "bins_negative": "-3"}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS) + sorted(_BAD_POLICIES)
                         + sorted(_BAD_BINS))
def test_cli_rejects_bad_values_without_traceback(tmp_path, capsys, case):
    path = tmp_path / "input.json"
    if case in _BAD_CONFIGS:
        path.write_text(json.dumps(_BAD_CONFIGS[case]))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
    elif case in _BAD_BINS:
        argv = ["distribution", "--logs", str(_sample_log(tmp_path)),
                "--step", "AuthenticationResponse",
                "--out", str(tmp_path / "o"), "--bins", _BAD_BINS[case]]
    else:
        path.write_text(json.dumps(_BAD_POLICIES[case]))
        log = _sample_log(tmp_path)
        argv = ["detect", "--logs", str(log), "--baseline", str(log),
                "--policy", str(path), "--report", str(tmp_path / "r.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_day_span_limit_is_checked_at_parse_time():
    with pytest.raises(ConfigError, match="timestamp limit"):
        _config(day_span_ms=2.0 ** 43)
    assert _config(day_span_ms=2.0 ** 43 - 1).day_span_ms == 2.0 ** 43 - 1
    assert _config(attaches_per_device=2, min_spacing_ms=9.0,
                   day_span_ms=10.0).day_span_ms == 10.0


def test_timestamps_past_limit_are_an_error(tmp_path):
    # an inline step mean of 1e13 ms pushes messages past 2**43 ms
    huge = dict(_INLINE, steps=dict(_INLINE["steps"],
                                    AttachAccept=[1e13, 0.0]))
    raw = dict(MINIMAL, fleet=[{"profile": huge, "count": 1}])
    with pytest.raises(ConfigError, match="timestamp limit"):
        run_scenario(parse_config(raw), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_timestamp_limit_makes_no_output(tmp_path, capsys):
    huge = dict(_INLINE, steps=dict(_INLINE["steps"],
                                    AttachAccept=[1e13, 0.0]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, fleet=[{"profile": huge,
                                                     "count": 1}])))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "timestamp limit" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# A step of 2**43 - 40e6 ms: a device crosses the timestamp limit when its
# one attach starts after about 40e6 ms, so some devices do and some not.
_SLOW = dict(_INLINE, name="Slow", steps=dict(
    _INLINE["steps"], AttachAccept=[TIME_LIMIT_MS - 40e6, 0.0]))


def _crossing(cfg, entry: int) -> list[int]:
    """The devices of a fleet entry, by their place in it, whose messages
    reach the timestamp limit: each run alone on its fleet index's
    stream."""
    profile = cfg.fleet[entry].profile
    network = NetworkConfig(auth_timer_ms=cfg.auth_timer_ms,
                            transmission=cfg.transmission)
    first = sum(e.count for e in cfg.fleet[:entry])
    crossing = []
    for i in range(cfg.fleet[entry].count):
        rng = RngStream(cfg.seed).substream(first + i)
        starts = schedule_reauth(ReauthPolicy(1), (0.0, cfg.day_span_ms), rng)
        try:
            run_attaches(profile, channel_for(profile), network, starts, rng)
        except ConfigError:
            crossing.append(i)
    return crossing


def test_timestamp_limit_names_first_device_in_fleet_order(tmp_path,
                                                           monkeypatch):
    raw = dict(MINIMAL, attaches_per_device=1, day_span_ms=80e6,
               fleet=[{"profile": "FairPhone5G", "count": 2},
                      {"profile": _SLOW, "count": 8}])
    cfg = parse_config(raw)
    crossing = _crossing(cfg, 1)
    assert crossing and crossing[0] > 0 and len(crossing) < 8
    for run in ("forked", "inline"):
        if run == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        with pytest.raises(ConfigError, match=f"^Slow-{crossing[0]:03d}: a "
                                              f"message at .* timestamp limit"):
            run_scenario(cfg, tmp_path / run)
        assert not (tmp_path / run).exists()


@pytest.mark.parametrize("later_first", ["parent", "child", "inline"])
def test_timestamp_limit_names_the_earlier_entry_run_later(
        tmp_path, monkeypatch, later_first):
    """Two entries cross the limit, and one process claims the later one
    first, while the other still has the earlier one to run: the error
    names the earlier entry's device, as when the entries run in order."""
    raw = dict(MINIMAL, attaches_per_device=1, day_span_ms=80e6,
               fleet=[{"profile": "FairPhone5G", "count": 2},
                      {"profile": _SLOW, "count": 8},
                      {"profile": _SLOW, "count": 8}])
    cfg = parse_config(raw)
    earlier, later = _crossing(cfg, 1), _crossing(cfg, 2)
    assert earlier and later
    if later_first == "inline":
        monkeypatch.delattr(os, "fork", raising=False)
    elif later_first == "parent":  # the child runs entries 0 and 1
        _plan_claims(monkeypatch, lambda unit: unit < 2)
    else:
        _plan_claims(monkeypatch, lambda unit: unit == 2)
    with pytest.raises(ConfigError, match=f"^Slow-{earlier[0]:03d}: "):
        run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_detect_degenerate_input_is_an_error(tmp_path, capsys):
    # constant auth latency on both sides: zero pooled error, different means
    runs = {}
    for name, auth_ms in (("base", 50.0), ("test", 80.0)):
        profile = dict(_INLINE, name=f"Flat{name}", steps=dict(
            _INLINE["steps"], AuthenticationResponse=[auth_ms, 0.0]))
        cfg = dict(MINIMAL, attaches_per_device=5,
                   transmission={"sigma": 0, "outlier_prob": 0},
                   fleet=[{"profile": profile, "count": 2}])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs[name] = tmp_path / name
        assert main(["simulate", "--config", str(path),
                     "--out", str(runs[name])]) == 0
    capsys.readouterr()
    assert main(["detect", "--logs", str(runs["test"] / "logs.jsonl"),
                 "--baseline", str(runs["base"] / "logs.jsonl"),
                 "--report", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_undecodable_logs_without_traceback(tmp_path, capsys):
    good = _sample_log(tmp_path)
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_bytes(b"\xff\xfe")
    lines = good.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"FairPhone5G-000", b"FairPhone5G-\xff00")
    midway = tmp_path / "midway.jsonl"
    midway.write_bytes(b"".join(lines))
    escaped = tmp_path / "escaped.jsonl"  # valid JSON, not encodable
    escaped.write_bytes(b"".join(lines[:3]).replace(b"-000", b"\\udcff"))
    for path, line, error in ((garbage, 1, "not UTF-8 text"),
                              (midway, 3, "not UTF-8 text"),
                              (escaped, 1, "bad device_id 'FairPhone5G\\udcff'")):
        for argv in (["detect", "--logs", str(path), "--baseline", str(good),
                      "--report", str(tmp_path / "r.csv")],
                     ["distribution", "--logs", str(path), "--step",
                      "AuthenticationResponse", "--out", str(tmp_path / "d.csv")]):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: line {line}: {error}\n"


@pytest.mark.parametrize("bad", [b"abc", b"nan", b"-inf", b"5\xb5"])
def test_cli_rejects_bad_rtt_file_without_traceback(tmp_path, capsys, bad):
    rtt = tmp_path / "rtt.txt"
    rtt.write_bytes(b"50.0\n" + bad + b"\n60.0\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_with(
        ("channels", "remote_tcp", "rtt"),
        {"kind": "empirical", "path": str(rtt)})))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {rtt} line 2: ")


def test_cli_rejects_coupled_channel_section(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_with(
        ("channels", "coupled_serial"),
        {"serial_mean_ms": 500.0, "sessions_auth": 40})))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path} channels coupled_serial: takes no "
                   f"overrides; a coupled profile's auth latency comes from "
                   f"its step table\n")
    assert not (tmp_path / "o").exists()


def test_readme_config_examples_are_valid(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) >= 5
    for block in blocks:
        raw = json.loads(block if block.startswith("{") else "{" + block + "}")
        if "profile" in raw:  # a fleet entry
            raw = dict(MINIMAL, fleet=[raw])
        elif "version" not in raw:  # a section of the top level
            raw = dict(MINIMAL, **raw)
        cfg = parse_config(raw)
        if cfg.channels:  # the relays must still calibrate and run
            remote = (FleetEntry("SMBHyb_rem", 1), FleetEntry("SMBPor_rem", 1))
            run_scenario(replace(cfg, fleet=remote, attaches_per_device=2),
                         tmp_path / "channels")


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL, attaches_per_device=5)))
    main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(cfg_path), "--seed", "99",
          "--out", str(tmp_path / "b")])
    assert _digest(tmp_path / "a" / "logs.jsonl") != \
        _digest(tmp_path / "b" / "logs.jsonl")


def test_summary_table_shape(tmp_path):
    cfg = ScenarioConfig(seed=41, fleet=(FleetEntry("FairPhone5G", 1),
                                         FleetEntry("SMBPor_rem", 1)),
                         attaches_per_device=6)
    art = run_scenario(cfg, tmp_path / "out")
    lines = art.summary_path.read_text().splitlines()
    assert lines[0] == "step,message,direction,FairPhone5G,SMBPor_rem"
    assert len(lines) == 13  # header, 11 steps, total
    body = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert body["AttachRequest"][3] == "0.0±0.0"
    assert body["IdentityRequest"][4] == "/"  # masked for SMBPor_rem
    assert re.match(r"^\d+\.\d±\d+\.\d$", body["AuthenticationResponse"][3])
    assert body["Total"][0] == "-"


# A fleet that reaches every outcome over both relays: relayed attaches
# (about 2.3 s) overlap at 100 ms spacing, the 2.2 s timer cuts some
# TCP-relay auths short, a wrong key rejects, and a device whose
# sensitivity is above the cell's signal never camps.
_EVERY_OUTCOME = {
    "version": 1, "seed": 17, "attaches_per_device": 12,
    "day_span_ms": 30_000.0, "min_spacing_ms": 100.0, "auth_timer_ms": 2200.0,
    "fleet": [{"profile": "SMBHyb_rem", "count": 2},
              {"profile": "SMBPor_rem", "count": 1},
              {"profile": "FairPhone5G", "count": 2},
              {"profile": "SMBHyb_rem", "count": 1, "wrong_key": True},
              {"profile": dict(_INLINE, name="Deaf", sensitivity_rsrp=-70.0),
               "count": 1}],
}


def _reference_artifacts(records, model_order):
    """logs.jsonl, records.jsonl and summary.csv rendered message by
    message from AttachRecords, the way the writers did before they read
    arrays."""
    messages = [m for recs in records.values() for rec in recs
                for m in rec.messages]
    messages.sort(key=lambda m: (m.time, m.device_id, m.step.value))
    logs = "".join(m.to_json_line() + "\n" for m in messages)

    rows = []
    for device_id in sorted(records):
        for rec in records[device_id]:
            steps, prev = {}, None
            for msg in rec.messages:
                steps[msg.message] = 0.0 if prev is None else msg.time - prev
                prev = msg.time
            rows.append(json.dumps({
                "device_id": rec.device_id, "attach_seq": rec.attach_seq,
                "outcome": rec.outcome.value,
                "start_ms": rec.messages[0].time if rec.messages else None,
                "end_ms": rec.messages[-1].time if rec.messages else None,
                "steps": steps, "auth_transfer_ms": rec.auth_transfer_ms,
                "auth_processing_ms": rec.auth_processing_ms}) + "\n")

    per_model = {m: {} for m in model_order}
    totals = {m: [] for m in model_order}
    enabled = {m: set() for m in model_order}
    for device_id, recs in records.items():
        model = device_id.rsplit("-", 1)[0]
        for rec in recs:
            if not rec.messages:
                continue
            enabled[model].update(rec.steps)
            for sample in compute_step_latencies(rec):
                per_model[model].setdefault(sample.step, []).append(
                    sample.latency)
            if rec.outcome is Outcome.Completed:
                totals[model].append(rec.span_ms)

    def cell(values):
        arr = np.asarray(values)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        return f"{float(np.mean(arr)):.1f}±{std:.1f}"

    lines = ["step,message,direction," + ",".join(model_order)]
    for step in ATTACH_SEQUENCE:
        cells = ["/" if step not in enabled[m] else "0.0±0.0"
                 if step == AttachStep.AttachRequest
                 else cell(per_model[m][step]) for m in model_order]
        lines.append(f"{step.value},{step.name},{step.direction},"
                     + ",".join(cells))
    lines.append("-,Total,-," + ",".join(cell(totals[m]) if totals[m] else "/"
                                         for m in model_order))
    return logs, "".join(rows), "\n".join(lines) + "\n"


def test_writers_match_record_oracle(tmp_path):
    art = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / "out")
    outcomes = art.outcome_counts()
    assert all(outcomes[o] for o in Outcome), outcomes
    assert "records" not in vars(art)  # built on first use only
    seen = {(rec.device_id.rsplit("-", 1)[0], rec.outcome)
            for recs in art.records.values() for rec in recs}
    assert {("SMBHyb_rem", Outcome.AuthTimeout), ("SMBPor_rem", Outcome.Completed),
            ("SMBHyb_rem", Outcome.AuthReject),
            ("Deaf", Outcome.CampRefused)} <= seen
    sent = [r for recs in art.records.values() for r in recs if r.messages]
    assert any(b.messages[0].time - a.messages[-1].time == 1 / 1024
               for a, b in zip(sent, sent[1:])), "no attach was serialised"
    assert {o: sum(r.outcome is o for recs in art.records.values()
                   for r in recs) for o in Outcome} == outcomes

    logs, records, summary = _reference_artifacts(
        art.records, ["SMBHyb_rem", "SMBPor_rem", "FairPhone5G", "Deaf"])
    assert art.logs_path.read_text() == logs
    assert art.records_path.read_text() == records
    assert art.summary_path.read_text() == summary


def test_cli_simulate_prints_outcomes_without_building_records(
        tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("records built")

    monkeypatch.setattr(DeviceAttaches, "records", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_EVERY_OUTCOME))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "simulated 7 devices, 84 attach attempts"
    rows = [json.loads(line) for line in
            (tmp_path / "o" / "records.jsonl").read_text().splitlines()]
    counts = {o.value: sum(r["outcome"] == o.value for r in rows)
              for o in Outcome}
    assert out[1] == (
        f"outcomes: Completed {counts['Completed']}, AuthTimeout "
        f"{counts['AuthTimeout']}, AuthReject {counts['AuthReject']}, "
        f"CampRefused {counts['CampRefused']}")


def _inline_relay(target_ms: float) -> dict:
    relay = builtin_profiles()["SMBHyb_rem"]
    return {"name": "SMBHyb_rem", "channel_kind": "remote_tcp",
            "sensitivity_rsrp": -85.0, "calibration_target_ms": target_ms,
            "optional_steps": [s.name for s in relay.optional_steps],
            "steps": {s.name: list(v) for s, v in relay.step_latency.items()}}


def test_profile_name_collision_is_an_error(tmp_path, capsys):
    # the inline relay would calibrate to 400 ms (and fail: the transfers
    # alone take longer); under the builtin's name it used to borrow the
    # builtin's channel and column silently
    raw = dict(MINIMAL, fleet=[{"profile": "SMBHyb_rem", "count": 1},
                               {"profile": _inline_relay(400.0), "count": 1}])
    with pytest.raises(ConfigError, match="two different profiles are named "
                                          "'SMBHyb_rem'"):
        parse_config(raw)
    cfg = ScenarioConfig(seed=3, fleet=(FleetEntry("SMBHyb_rem", 1),
                                        FleetEntry(_inline_relay(400.0), 1)))
    with pytest.raises(ConfigError, match="two different profiles"):
        run_scenario(cfg, tmp_path / "lib")
    assert not (tmp_path / "lib").exists()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    # the same profile listed twice stays legal, with or without wrong_key
    for again in ({"profile": "SMBHyb_rem", "count": 1, "wrong_key": True},
                  {"profile": "SMBHyb_rem", "count": 2}):
        cfg = parse_config(dict(MINIMAL, attaches_per_device=2, fleet=[
            {"profile": "SMBHyb_rem", "count": 1}, again]))
        art = run_scenario(cfg, tmp_path / "ok")
        assert len(art.devices) == 1 + again["count"]
    inline = dict(_INLINE, name="Twin")
    cfg = parse_config(dict(MINIMAL, attaches_per_device=2, fleet=[
        {"profile": inline, "count": 1}, {"profile": inline, "count": 1}]))
    assert [d.device_id for d in run_scenario(cfg, tmp_path / "twin").devices] \
        == ["Twin-000", "Twin-001"]


_ROUND_TRIP_MODELS = ("FairPhone5G", "GalaxyS3", "SMBPor_loc", "SMBHyb_rem",
                      "SMBPor_rem", "GalaxyNote4")


@st.composite
def _small_configs(draw):
    fleet = [FleetEntry(draw(st.sampled_from(_ROUND_TRIP_MODELS)),
                        draw(st.integers(1, 2)), wrong_key=draw(st.booleans()))
             for _ in range(draw(st.integers(1, 3)))]
    return ScenarioConfig(
        seed=draw(st.integers(0, 2 ** 16)), fleet=tuple(fleet),
        attaches_per_device=draw(st.integers(1, 6)),
        day_span_ms=draw(st.sampled_from([10_000.0, 86_400_000.0])),
        # 1 ms spacing in a 10 s day overlaps any relayed attach
        min_spacing_ms=draw(st.sampled_from([1.0, 100.0, 1_000.0])),
        # 50 ms times out even a phone's auth, 1.8 s most relayed ones
        auth_timer_ms=draw(st.sampled_from([6000.0, 1800.0, 50.0])),
        # below -85 dBm only GalaxyNote4 and GalaxyS3 camp
        rsrp_dbm=draw(st.sampled_from([-71.0, -100.0])))


@given(_small_configs())
def test_property_logs_round_trip_to_records(cfg):
    with tempfile.TemporaryDirectory() as out:
        art = run_scenario(cfg, out)
        parsed = parse_logs(art.logs_path)
    expected = {}
    for device_id, recs in art.records.items():
        sent = [r for r in recs if r.outcome is not Outcome.CampRefused]
        assert all(r.messages for r in sent)
        if sent:
            expected[device_id] = sent

    def shape(recs):
        return [(r.outcome, [(m.message, m.time) for m in r.messages])
                for r in recs]

    assert sorted(parsed) == sorted(expected)
    for device_id, recs in expected.items():
        assert shape(parsed[device_id]) == shape(recs), device_id


@given(st.integers(0, 2 ** 53 - 1), st.integers(0, SHORT_TICKS - 1))
def test_property_lattice_formatters(k, short):
    # the tick tables the log and records writers render times with
    assert f"{k >> 10}{DECIMALS[k & 1023]}" == f"{k / 1024:.10f}" \
        == fmt_ms(k / 1024)
    assert f"{short >> 10}{SHORT_DECIMALS[short & 1023]}" \
        == repr(short / 1024) == json.dumps(short / 1024)


@given(st.one_of(
    st.integers(0, 2 ** 53 - 1),
    st.integers(REPR_TICKS - 4, REPR_TICKS + 4),
    # odd ticks from 2**32 on tie between two 9-decimal candidates
    st.integers(2 ** 31, 2 ** 40).map(lambda k: 2 * k + 1),
    st.integers(0, 52).map(lambda j: 2 ** j)))
def test_property_lattice_repr(k):
    cells = lattice_repr(np.array([k], np.int64))
    assert cells.dtype == np.uint32
    assert cells.tobytes().replace(b"\0", b"").decode() == repr(k / 1024)


def test_lattice_repr_cases():
    ticks = [0, 1, 1023, 1024, SHORT_TICKS - 1, SHORT_TICKS, SHORT_TICKS + 1,
             REPR_TICKS - 1, REPR_TICKS, REPR_TICKS + 1, 2 ** 53 - 1]
    ticks += [2 ** j for j in range(53)]
    ticks += [2 ** j + 1 for j in range(32, 52)]  # odd: a 9th-decimal tie
    ticks += [1024 * 10 ** j for j in range(10)]  # whole milliseconds
    cells = lattice_repr(np.array(ticks, np.int64))
    assert [row.tobytes().replace(b"\0", b"").decode() for row in cells] \
        == [repr(k / 1024) for k in ticks]
    assert lattice_repr(np.zeros(0, np.int64)).shape[0] == 0


def test_records_writer_keeps_repr_for_long_steps(tmp_path):
    # step latencies of 2**19 ms and more take repr, not the tick table
    slow = dict(_INLINE, name="Slow", steps=dict(
        _INLINE["steps"], AttachAccept=[1e7, 1e6]))
    raw = dict(MINIMAL, attaches_per_device=4, day_span_ms=1e8,
               fleet=[{"profile": slow, "count": 2},
                      {"profile": "FairPhone5G", "count": 1}])
    art = run_scenario(parse_config(raw), tmp_path / "out")
    gaps = [rec.messages[-2].time - rec.messages[-3].time
            for recs in art.records.values() for rec in recs
            if rec.device_id.startswith("Slow")]
    # repr drops digits of some of these, so the exact decimal would differ
    assert any(repr(g) != fmt_ms(g).rstrip("0") for g in gaps)
    logs, records, summary = _reference_artifacts(
        art.records, ["Slow", "FairPhone5G"])
    assert art.logs_path.read_text() == logs
    assert art.records_path.read_text() == records
    assert art.summary_path.read_text() == summary


def test_records_writer_past_2_30_ms(tmp_path):
    # start and end times past 2**30 ms: their tick count times 9765625
    # no longer fits an int64, so the lattice repr falls back to repr
    raw = dict(MINIMAL, attaches_per_device=6, day_span_ms=2.0 ** 40,
               fleet=[{"profile": "SMBHyb_rem", "count": 1},
                      {"profile": "FairPhone5G", "count": 2}])
    art = run_scenario(parse_config(raw), tmp_path / "out")
    starts = [rec.messages[0].time for recs in art.records.values()
              for rec in recs if rec.messages]
    assert max(starts) > 2.0 ** 30
    logs, records, summary = _reference_artifacts(
        art.records, ["SMBHyb_rem", "FairPhone5G"])
    assert art.logs_path.read_text() == logs
    assert art.records_path.read_text() == records
    assert art.summary_path.read_text() == summary


# sha256 of the _EVERY_OUTCOME artifacts.  The determinism contract says
# that the same config and seed give these bytes on every platform and
# numpy version; a change that means to alter an artifact updates them.
_EVERY_OUTCOME_SHA256 = {
    "logs.jsonl":
        "83f7be5267200688f25394a6dd4af9a64e31841bd4414693bdd0062aff5e6898",
    "records.jsonl":
        "8257847550397b91af19767b77ce80089729a9c82c01a32d0b53bd55851d1e85",
    "summary.csv":
        "d378abae566d36eeb442402729b2f5ebe41aa3005968506966ac79237ac22a43",
}


def test_every_outcome_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    """Forked, then inline as where there is no os.fork: the two write
    records.jsonl in different orders."""
    for run in ("forked", "inline"):
        if run == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        art = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / run)
        assert {name: _digest(art.out_dir / name)
                for name in _EVERY_OUTCOME_SHA256} == _EVERY_OUTCOME_SHA256, run


def test_simulate_inline_matches_forked(tmp_path, monkeypatch):
    forked = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    inline = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / "inline")
    for name in _EVERY_OUTCOME_SHA256:
        assert (forked.out_dir / name).read_bytes() \
            == (inline.out_dir / name).read_bytes()


def _simulate_into(tmp_path, capsys, *blocked):
    """Exit code and stderr of `simulate` into an output directory where
    each of `blocked` is a directory, not a file."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_EVERY_OUTCOME))
    for name in blocked:
        (tmp_path / "out" / name).mkdir(parents=True)
    capsys.readouterr()
    rc = main(["simulate", "--config", str(path),
               "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("blocked", [("records.jsonl",),
                                     ("logs.jsonl", "records.jsonl")])
def test_cli_simulate_unwritable_output_is_an_error(tmp_path, capsys,
                                                    monkeypatch, fork, blocked):
    """One error line, naming the log when both writers fail."""
    if not fork:
        monkeypatch.delattr(os, "fork")
    rc, err = _simulate_into(tmp_path, capsys, *blocked)
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert blocked[0] in err and not any(name in err for name in blocked[1:])


def test_simulate_closes_its_pipes_when_fork_fails(tmp_path, monkeypatch):
    """The writers' claims and fork_join's pipes are closed, as the
    no_descriptor_left fixture checks, and no output is made."""
    def failing():
        raise OSError("no process left")

    monkeypatch.setattr(os, "fork", failing, raising=False)
    with pytest.raises(OSError, match="no process left"):
        run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
def test_cli_simulate_child_that_dies_is_an_error(tmp_path, capsys,
                                                  monkeypatch):
    # the child writes records and summary, so it is the one that dies
    _plan_claims(monkeypatch, lambda unit: False)
    monkeypatch.setattr(scenario, "_write_summary",
                        lambda *args: os._exit(3))
    rc, err = _simulate_into(tmp_path, capsys)
    assert rc == 1
    assert err == ("error: a forked child ended without answering: "
                   "wait status 768 (exit code 3)\n")


# _EVERY_OUTCOME's 84 records.jsonl rows in chunks of 8: 11 chunks, the
# last one short; with the summary and the log, 13 writer units
_SMALL_CHUNK, _CHUNKS = 8, 11


def _parent_share(monkeypatch) -> list[int]:
    """The records chunks this process renders, in order; a forked child's
    are rendered in the child, and never seen here."""
    rendered = []
    renderer = scenario._record_renderer

    def spied(devices):
        render = renderer(devices)

        def counted(i):
            rendered.append(i)
            return render(i)

        return counted

    monkeypatch.setattr(scenario, "_record_renderer", spied)
    return rendered


def test_inline_simulate_builds_the_records_renderer_once(tmp_path,
                                                          monkeypatch):
    """Without os.fork the parent's loop claims every records chunk; the
    child's loop then claims none, and builds no renderer."""
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(scenario, "_RECORD_CHUNK", _SMALL_CHUNK)
    renderer, built = scenario._record_renderer, []

    def counted(devices):
        built.append(len(devices))
        return renderer(devices)

    monkeypatch.setattr(scenario, "_record_renderer", counted)
    art = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / "out")
    assert built == [len(art.devices)]
    assert {name: _digest(art.out_dir / name)
            for name in _EVERY_OUTCOME_SHA256} == _EVERY_OUTCOME_SHA256


# Where the front claims of n writer units meet the back claims, by that
# point for _EVERY_OUTCOME's 13: none, one, half the records chunks, all
# but one, all, then the summary too, then the log too
_MEETS = {0: lambda n: 0, 1: lambda n: 1, 5: lambda n: (n - 2) // 2,
          10: lambda n: n - 3, 11: lambda n: n - 2, 12: lambda n: n - 1,
          13: lambda n: n}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
@pytest.mark.parametrize("first", sorted(_MEETS))
def test_records_handoff_at_any_chunk_writes_the_same_bytes(
        tmp_path, monkeypatch, first):
    """The child writes records.jsonl up to the meeting point; the parent
    renders the rest from the back, holds it and appends it.  Every
    meeting point gives the pinned bytes, forked and inline."""
    monkeypatch.setattr(scenario, "_RECORD_CHUNK", _SMALL_CHUNK)
    _plan_claims(monkeypatch, lambda unit: unit % 2, _MEETS[first])
    rendered = _parent_share(monkeypatch)
    pinned = _pinned_quickstart()
    for mode in ("forked", "inline"):
        if mode == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        art = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / mode)
        if mode == "forked":
            assert rendered == list(range(_CHUNKS - 1, first - 1, -1))
        assert {name: _digest(art.out_dir / name)
                for name in _EVERY_OUTCOME_SHA256} == _EVERY_OUTCOME_SHA256
        digests = _quickstart_digests(tmp_path / f"{mode}-quickstart")
        assert {name: digests[name] for name in pinned} == pinned, mode


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
def test_rerun_where_the_parent_takes_every_records_chunk(tmp_path,
                                                          monkeypatch):
    """The child truncates records.jsonl before its first claim, though
    it gets none: the parent's chunks are appended to no stale bytes."""
    out = tmp_path / "out"
    run_scenario(parse_config(_EVERY_OUTCOME), out)
    (out / "records.jsonl").write_bytes(b"stale\n" * 10_000)
    _plan_claims(monkeypatch, lambda unit: True, _MEETS[0])
    rendered = _parent_share(monkeypatch)
    art = run_scenario(parse_config(_EVERY_OUTCOME), out)
    assert rendered == [0]  # _EVERY_OUTCOME's one 1,024-row chunk
    assert {name: _digest(art.out_dir / name)
            for name in _EVERY_OUTCOME_SHA256} == _EVERY_OUTCOME_SHA256


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
def test_cli_simulate_child_that_dies_after_its_records_is_an_error(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "_RECORD_CHUNK", _SMALL_CHUNK)
    whole = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / "whole")
    _plan_claims(monkeypatch, lambda unit: True, lambda n: 3)
    rendered = _parent_share(monkeypatch)
    write_records, parent = scenario._write_records, os.getpid()

    def dying(*args):
        write_records(*args)
        if os.getpid() != parent:
            os._exit(3)

    monkeypatch.setattr(scenario, "_write_records", dying)
    rc, err = _simulate_into(tmp_path, capsys)
    assert rc == 1
    assert err == ("error: a forked child ended without answering: "
                   "wait status 768 (exit code 3)\n")
    # the parent rendered its share but appended none of it
    assert rendered == list(range(_CHUNKS - 1, 2, -1))
    rows = whole.records_path.read_bytes().splitlines(keepends=True)
    assert (tmp_path / "out" / "records.jsonl").read_bytes() \
        == b"".join(rows[:3 * _SMALL_CHUNK])


# The README quick-start's configs.
_QUICKSTART = {
    "scenario.json": {"version": 1, "seed": 7, "attaches_per_device": 50,
                      "fleet": [{"profile": "FairPhone5G", "count": 5},
                                {"profile": "SMBHyb_rem", "count": 1}]},
    "baseline.json": {"version": 1, "seed": 8, "attaches_per_device": 50,
                      "fleet": [{"profile": "FairPhone5G", "count": 8}]},
}


def _quickstart_digests(here: Path) -> dict[str, str]:
    """Run the README quick-start through the CLI in `here`; the sha256 of
    each file it writes, by path relative to `here`."""
    here.mkdir()
    for name, cfg in _QUICKSTART.items():
        (here / name).write_text(json.dumps(cfg))
    run, baseline = here / "run", here / "baseline"
    assert main(["simulate", "--config", str(here / "scenario.json"),
                 "--out", str(run)]) == 0
    assert main(["simulate", "--config", str(here / "baseline.json"),
                 "--out", str(baseline)]) == 0
    # the remote SIM is flagged
    assert main(["detect", "--logs", str(run / "logs.jsonl"), "--baseline",
                 str(baseline / "logs.jsonl"),
                 "--report", str(run / "report.csv")]) == 2
    assert main(["distribution", "--logs", str(run / "logs.jsonl"),
                 "--step", "AuthenticationResponse",
                 "--out", str(run / "auth_hist.csv"), "--bins", "40"]) == 0
    return {str(path.relative_to(here)): _digest(path)
            for path in here.rglob("*") if path.is_file()}


def _pinned_quickstart() -> dict[str, str]:
    """tests/quickstart.sha256 (sha256sum format, paths relative to the
    directory the quick-start runs in); CI checks an installed package
    against the same file."""
    pinned = dict(reversed(line.split("  ")) for line in (
        Path(__file__).parent / "quickstart.sha256").read_text().splitlines())
    assert len(pinned) == 9
    return pinned


def test_quickstart_outputs_match_pinned_digests(tmp_path, capsys,
                                                monkeypatch):
    """The README quick-start, run through the CLI, writes the bytes that
    tests/quickstart.sha256 pins.  It runs forked, then inline as where
    there is no os.fork."""
    pinned = _pinned_quickstart()
    for mode in ("forked", "inline"):
        if mode == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        digests = _quickstart_digests(tmp_path / mode)
        assert {name: digests[name] for name in pinned} == pinned, mode


def _plan_claims(monkeypatch, child_takes, meet=lambda n: n - 1
                 ) -> list[int]:
    """Plan the claims of each simulate run, and return the list of the
    fleet entries its parent claims.  Of the entries, the forked child
    claims, in order, those `child_takes(unit)` picks, and its parent the
    others.  Of the n writer units, the front claims get the first
    `meet(n)` and the back claims the rest, from the back, forked or
    inline; by default the log alone is the parent's."""
    parent_took = []

    class Planned:
        def __init__(self, n):
            self.parent = os.getpid()
            # run_scenario makes the writers' claims, fork_join the entries'
            self.entries = sys._getframe(1).f_code.co_name == "fork_join"
            if self.entries:  # both processes claim from the front
                self.plans = [iter([unit for unit in range(n)
                                    if bool(child_takes(unit)) != here])
                              for here in (False, True)]
            else:
                self.plans = [iter(range(meet(n))),
                              iter(range(n - 1, meet(n) - 1, -1))]

        def __call__(self, back=False):
            here = os.getpid() == self.parent
            unit = next(self.plans[here if self.entries else back], None)
            if self.entries and here and unit is not None:
                parent_took.append(unit)
            return unit

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(forkjoin, "Claims", Planned)
    return parent_took


_CHILD_TAKES = {"every-entry": lambda unit: True,
                "no-entry": lambda unit: False,
                "every-other-entry": lambda unit: unit % 2}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
@pytest.mark.parametrize("plan", _CHILD_TAKES)
def test_simulate_bytes_do_not_depend_on_which_process_runs_an_entry(
        tmp_path, monkeypatch, plan):
    """Forked, with the child running the entries the plan gives it, and
    then inline, where the entries run in fleet order."""
    parent_took = _plan_claims(monkeypatch, _CHILD_TAKES[plan])
    pinned = _pinned_quickstart()
    for mode in ("forked", "inline"):
        if mode == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        art = run_scenario(parse_config(_EVERY_OUTCOME), tmp_path / mode)
        assert {name: _digest(art.out_dir / name)
                for name in _EVERY_OUTCOME_SHA256} == _EVERY_OUTCOME_SHA256
        digests = _quickstart_digests(tmp_path / f"{mode}-quickstart")
        assert {name: digests[name] for name in pinned} == pinned, mode
        if mode == "forked":  # _EVERY_OUTCOME's 5 entries, then 2 and 1
            assert parent_took == [
                unit for n in (5, 2, 1) for unit in range(n)
                if not _CHILD_TAKES[plan](unit)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")
def test_cli_simulate_child_that_dies_in_its_entries_is_an_error(
        tmp_path, capsys, monkeypatch):
    _plan_claims(monkeypatch, lambda unit: True)  # only the child runs any
    run_devices, calls = scenario.run_devices, []

    def dying(*args):
        calls.append(args)
        if len(calls) == 2:  # in the middle of the child's entries
            os._exit(3)
        return run_devices(*args)

    monkeypatch.setattr(scenario, "run_devices", dying)
    rc, err = _simulate_into(tmp_path, capsys)
    assert rc == 1
    assert err == ("error: a forked child ended without answering: "
                   "wait status 768 (exit code 3)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the units are shared")
def test_claims_hand_out_every_unit_once_past_a_pipe_buffer():
    """More units than a 64 KiB pipe holds as 4-byte numbers (16,384),
    claimed by two processes at once."""
    n = 20_000
    with forkjoin.Claims(n) as claim:
        mine, theirs = forkjoin.fork_join(lambda: list(iter(claim, None)),
                                          lambda: list(iter(claim, None)))
        assert claim() is None
    assert sorted(mine + theirs) == list(range(n))
    assert mine == sorted(mine) and theirs == sorted(theirs)


@pytest.mark.parametrize("fork", [True, False])
def test_claims_from_both_ends_hand_out_every_unit_once(monkeypatch, fork):
    """The child claims from the front while the parent claims from the
    back, past a pipe buffer's worth of units; inline the parent's half
    runs first and takes them all."""
    if not fork:
        monkeypatch.delattr(os, "fork", raising=False)
    n = 20_000
    with forkjoin.Claims(n) as claim:
        mine, theirs = forkjoin.fork_join(
            lambda: list(iter(partial(claim, back=True), None)),
            lambda: list(iter(claim, None)))
        assert claim() is None and claim(back=True) is None
    assert theirs == list(range(len(theirs)))
    assert mine == list(range(n - 1, len(theirs) - 1, -1))
