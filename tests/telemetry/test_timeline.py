"""Tests for the timeline artifact model and its strict loaders."""

import json

import pytest

from repro.results import write_artifact
from repro.telemetry import (
    TIMELINE_SCHEMA_VERSION,
    NetSample,
    OperatorSample,
    RegionSample,
    TelemetrySnapshot,
    Timeline,
)


def _snapshot(t: float, outputs: int = 10) -> TelemetrySnapshot:
    return TelemetrySnapshot(
        time=t,
        events_processed=int(t * 100),
        regions={"region0": RegionSample(
            throughput_tps=1.5, latency_p50_s=0.4, latency_p95_s=0.9,
            latency_mean_s=0.5, sink_outputs=outputs, source_inputs=outputs * 2,
            checkpoints_started=1, checkpoints_committed=1,
            recoveries=0, crashes=0,
        )},
        operators={"region0.S": OperatorSample(
            tuples=outputs * 3, rate_tps=3.0, queue_depth=2)},
        net=NetSample(wifi_bytes_per_s=1024.0, cellular_bytes_per_s=0.0,
                      ft_bytes_per_s=256.0),
    )


def _timeline(n: int = 3) -> Timeline:
    return Timeline(
        scenario="test", app="bcp", scheme="ms-8", seed=3, interval_s=10.0,
        snapshots=tuple(_snapshot(10.0 * (i + 1), outputs=10 * (i + 1))
                        for i in range(n)),
    )


def test_round_trip():
    tl = _timeline()
    assert Timeline.from_dict(tl.to_dict()) == tl


def test_len_iter_final():
    tl = _timeline(4)
    assert len(tl) == 4
    assert [s.time for s in tl] == [10.0, 20.0, 30.0, 40.0]
    assert tl.final is tl.snapshots[-1]
    assert Timeline("s", "a", "x", 0, 1.0).final is None


def test_names():
    tl = _timeline()
    assert tl.region_names() == ["region0"]
    assert tl.operator_names() == ["region0.S"]
    assert Timeline("s", "a", "x", 0, 1.0).region_names() == []


def test_series_region_operator_and_net():
    tl = _timeline(3)
    assert tl.series("sink_outputs", region="region0") == [
        (10.0, 10), (20.0, 20), (30.0, 30)]
    assert tl.series("queue_depth", operator="region0.S") == [
        (10.0, 2), (20.0, 2), (30.0, 2)]
    assert tl.series("wifi_bytes_per_s")[0] == (10.0, 1024.0)
    assert tl.series("events_processed")[0] == (10.0, 1000)


def test_series_errors():
    tl = _timeline()
    with pytest.raises(ValueError, match="not both"):
        tl.series("x", region="region0", operator="region0.S")
    with pytest.raises(ValueError, match="unknown region"):
        tl.series("sink_outputs", region="nope")
    with pytest.raises(ValueError, match="unknown operator"):
        tl.series("tuples", operator="nope")


def test_from_dict_rejects_unknown_keys():
    d = _timeline().to_dict()
    d["surprise"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        Timeline.from_dict(d)


def test_from_dict_rejects_missing_keys():
    d = _timeline().to_dict()
    del d["interval_s"]
    with pytest.raises(ValueError, match="missing keys"):
        Timeline.from_dict(d)


def test_from_dict_rejects_wrong_version():
    d = _timeline().to_dict()
    d["schema_version"] = TIMELINE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        Timeline.from_dict(d)


def test_from_dict_rejects_wrong_kind():
    d = _timeline().to_dict()
    d["kind"] = "sweep-artifact"
    with pytest.raises(ValueError, match="not a timeline"):
        Timeline.from_dict(d)


def test_snapshot_strictness_reaches_nested_samples():
    d = _timeline().to_dict()
    d["snapshots"][0]["regions"]["region0"]["bogus"] = 1
    with pytest.raises(ValueError, match="region 'region0'"):
        Timeline.from_dict(d)


def test_load_round_trips_bytes(tmp_path):
    tl = _timeline()
    path = tmp_path / "case.timeline.json"
    write_artifact(str(path), tl.to_dict())
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(tl.to_dict(), sort_keys=True, indent=2) + "\n"
    loaded = Timeline.load(str(path))
    assert loaded == tl
    # Re-writing the loaded value reproduces the exact bytes (the
    # resume-cache byte-identity contract rides on this).
    again = tmp_path / "again.timeline.json"
    write_artifact(str(again), loaded.to_dict())
    assert again.read_text(encoding="utf-8") == text
