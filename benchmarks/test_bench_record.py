"""``record_bench`` writes the tracked ``BENCH_*.json`` files only on
request (``REPRO_BENCH_RECORD=1``), so a test run leaves the tree clean."""

import json


def test_no_write_without_the_variable(bench_json, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    target = tmp_path / "BENCH_probe.json"
    bench_json("probe", {"seconds": 1.0}, path=target)
    assert not target.exists()
    monkeypatch.setenv("REPRO_BENCH_RECORD", "0")
    bench_json("probe", {"seconds": 1.0}, path=target)
    assert not target.exists()


def test_writes_and_merges_when_recording(bench_json, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    target = tmp_path / "BENCH_probe.json"
    bench_json("first", {"seconds": 1.0}, path=target)
    bench_json("second", {"seconds": 2.0}, path=target)
    assert json.loads(target.read_text()) == {
        "first": {"seconds": 1.0},
        "second": {"seconds": 2.0},
    }
