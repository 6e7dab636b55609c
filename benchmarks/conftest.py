"""Shared fixtures for the benchmark harness.

Heavy analyses are computed once per session through the corpus batch
driver (:mod:`repro.corpus.batch`), whose source-hash cache also shares
results with any other in-process sweep; the benchmark timers re-run only
the code under measurement.
"""

import pytest

from repro.corpus.batch import analyze_corpus
from repro.corpus.loader import load_corpus


@pytest.fixture(scope="session")
def official_corpus():
    return load_corpus("official")


@pytest.fixture(scope="session")
def thirdparty_corpus():
    return load_corpus("thirdparty")


@pytest.fixture(scope="session")
def maliot_corpus():
    return load_corpus("maliot")


@pytest.fixture(scope="session")
def official_analyses():
    return analyze_corpus("official")


@pytest.fixture(scope="session")
def thirdparty_analyses():
    return analyze_corpus("thirdparty")


@pytest.fixture(scope="session")
def maliot_analyses():
    return analyze_corpus("maliot")


# ----------------------------------------------------------------------
# Machine-readable benchmark results: BENCH_<name>.json files at the repo
# root collect wall-clock + throughput numbers so the perf trajectory is
# tracked across changes (BENCH_bdd_kernel.json for the kernel
# benchmarks, BENCH_fleet.json for the fleet-screening gate).  They are
# tracked files, so a gate rewrites them only when asked to with
# REPRO_BENCH_RECORD=1; a plain test run leaves the tree clean.
# ----------------------------------------------------------------------
import json
import os
import threading
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON_PATH = _REPO_ROOT / "BENCH_bdd_kernel.json"
#: Set to ``1`` to write the numbers into the ``BENCH_*.json`` files.
RECORD_ENV = "REPRO_BENCH_RECORD"
_bench_lock = threading.Lock()


def record_bench(section: str, payload: dict, path: Path | None = None) -> None:
    """Merge one benchmark's numbers into a ``BENCH_*.json`` file.

    A no-op unless ``$REPRO_BENCH_RECORD`` is ``1``.  ``path`` defaults
    to :data:`BENCH_JSON_PATH` (the BDD-kernel file).  Sections are
    replaced wholesale (last run wins); unrelated sections written by
    other benchmark modules are preserved.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return
    target = BENCH_JSON_PATH if path is None else path
    with _bench_lock:
        data: dict = {}
        if target.is_file():
            try:
                data = json.loads(target.read_text(encoding="utf-8"))
            except ValueError:
                data = {}
        data[section] = payload
        target.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


@pytest.fixture(scope="session")
def bench_json():
    """The section writer for ``BENCH_bdd_kernel.json``."""
    return record_bench


@pytest.fixture(scope="session")
def fleet_bench_json():
    """The section writer for ``BENCH_fleet.json``."""

    def _record(section: str, payload: dict) -> None:
        record_bench(section, payload, path=_REPO_ROOT / "BENCH_fleet.json")

    return _record


@pytest.fixture(scope="session")
def service_bench_json():
    """The section writer for ``BENCH_service.json``."""

    def _record(section: str, payload: dict) -> None:
        record_bench(section, payload, path=_REPO_ROOT / "BENCH_service.json")

    return _record
