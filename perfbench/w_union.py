"""``union_all``: one environment check of all 82 corpus apps.

Set-up analyses every corpus app through a fresh memory-only
``Pipeline``; each timed operation then checks the 82-member union on
another fresh ``Pipeline`` with default knobs (symbolic, partitioned
relation, fast BDD kernel).  The corpus is fixed, so the seed is
recorded but changes nothing.
"""

from __future__ import annotations

import time

import layers
import oracles
from common import median, metric, peak_rss_mb
from repro.corpus.loader import app_ids, load_source
from repro.pipeline.runner import Pipeline
from tracing import Recorder

WHY = {
    "union_all": "the heaviest check in the repo: encoder, symbolic checker "
    "and BDD kernel on ~2^115 states; bypasses explicit, fleet and service",
}

SETUPS = 3
#: Run budget per check: a run makes ``seconds / CHECK_S`` checks (at
#: least two), a fixed amount of work for a given budget.  A check takes
#: 11-18 s on a 2-core VM, so a 30 s run makes three, about 40 s of
#: measurement: the host's speed drifts in phases of tens of seconds.
CHECK_S = 10.0


def corpus_ids() -> list[str]:
    return [a for ds in ("official", "thirdparty", "maliot") for a in app_ids(ds)]


def set_up() -> list:
    pipeline = Pipeline()
    return [pipeline.app_analysis(load_source(i), name=i) for i in corpus_ids()]


def check(members):
    start = time.perf_counter()
    environment = Pipeline().environment_analysis(members)
    return environment, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        members = set_up()
        setups.append(time.perf_counter() - start)

    failures: list[str] = []
    walls: list[float] = []
    resolved = set()
    kernel = None
    recorder = None
    windows = []
    checks = 2 if trace else max(2, round(seconds / CHECK_S))
    for index in range(checks):
        traced = trace and index == 1
        if traced:
            recorder = Recorder(f"{workload}-{seed}")
            layers.install_pipeline(recorder)
        start = time.perf_counter()
        try:
            environment, wall = check(members)
        finally:
            if traced:
                recorder.restore()
        walls.append(wall)
        if traced:
            windows.append((start, start + wall))
            kernel = environment.kernel_stats
        resolved.add((environment.backend, environment.encoding, environment.kernel))
        reason = oracles.check_union_all(environment.violated_ids())
        if reason:
            failures.append(reason)

    outcome = {
        "setup_s": median(setups),
        "attempted": len(walls),
        "failures": failures,
        "params": {"apps": len(members), "resolved": sorted(resolved)},
        "samples": {"check_s": walls, "setup_body_s": setups},
        "notes": [f"op = one 82-app union check; {len(walls)} checks"],
    }
    if trace:
        values, notes = layers.derive(
            recorder.spans,
            windows,
            kernel=kernel,
            overhead_s=walls[-1] - median(walls[:-1]),
        )
        outcome["trace_metrics"] = layers.as_metrics(values)
        outcome["notes"] += notes
        outcome["spans"] = recorder.dump()
        return outcome
    outcome["end_to_end"] = {
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "op_mean_ms": metric(1000 * sum(walls) / len(walls), "ms"),
        "ops_per_s": metric(len(walls) / sum(walls), "1/s"),
    }
    outcome["named"] = {"check_s": metric(median(walls), "s")}
    return outcome
