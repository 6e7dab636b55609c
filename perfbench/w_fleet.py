"""``fleet_screen``: a cold fleet screen, then a warm re-screen of it.

Each operation is a pair of screens, each in a fresh process.  The cold
screen runs ``run_fleet`` over an empty disk cache directory, so every
canonical household is checked and written to the store.  The warm
re-screen then runs the same profile over the directory the cold screen
populated, so every household is canonicalized and answered by a
``FleetCache`` read.  Fresh processes keep the program's in-process
caches out of the warm figure.  Cold and warm times are reported apart;
the gated operation time is the pair.

The template pool is pinned (profile seed 0): cold-screen cost is set by
the pool's content and moves by about ±25 % between profile seeds, which
would swamp any regression bound.  The run seed picks the households
re-checked on the explicit backend after the timed window.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers
import oracles
from common import HERE, OUT, median, metric, own_rss_mb
from tracing import spans_from_dicts

WHY = {
    "fleet_screen": "store-side fleet screening: a cold screen from an empty "
    "store (dedup, checks, store writes), then a warm re-screen over it in a "
    "fresh process (canonicalization, store reads)",
}

PROFILE = {"seed": 0, "templates": 40}
HOUSEHOLDS = 20_000
#: Run budget per cold + warm pair: a run makes ``seconds / PAIR_S``
#: pairs (at least two), a fixed amount of work for a given budget.  A
#: pair takes 11-18 s on a 2-core VM, so a 30 s run makes two.
PAIR_S = 15.0
EXPLICIT_SAMPLE = 2
EXPLICIT_BUDGET = 2_000
COMPARED = (
    "households", "byte_distinct", "canonical_distinct", "violating_households",
    "violating_distinct", "failed_households", "by_property", "by_combo",
)


def screen(cache: Path, out: Path, trace: bool = False) -> dict:
    """One screen in a fresh child process; returns its report."""
    spec = json.dumps({"profile": PROFILE, "households": HOUSEHOLDS})
    command = [sys.executable, str(HERE / "fleet_child.py"),
               "--cache", str(cache), "--out", str(out), spec]
    if trace:
        command.insert(-1, "--trace")
    launched = time.time()
    subprocess.run(command, check=True, timeout=170)
    report = json.loads(out.read_text())
    report["start_s"] = report["ready_wall"] - launched
    return report


def screen_failures(label: str, report: dict, cold: dict | None) -> list[str]:
    telemetry = report["telemetry"]
    failures = []
    if telemetry["failed_households"]:
        failures.append(f"{label}: {telemetry['failed_households']} households failed")
    if cold is None:
        if telemetry["fresh_checks"] != telemetry["canonical_distinct"]:
            failures.append(f"{label}: cold screen served keys from the store")
        return failures
    if telemetry["fresh_checks"] or telemetry["disk_hits"] != telemetry["canonical_distinct"]:
        failures.append(
            f"{label}: warm screen ran {telemetry['fresh_checks']} checks, "
            f"{telemetry['disk_hits']} store hits"
        )
    for name in COMPARED:
        if telemetry[name] != cold["telemetry"][name]:
            failures.append(f"{label}: telemetry {name} differs from the cold screen")
    if report["verdicts"] != cold["verdicts"]:
        failures.append(f"{label}: per-key verdicts differ from the cold screen")
    return failures


def explicit_recheck(seed: int, verdicts: dict) -> tuple[int, list[str]]:
    """Re-check a seeded sample of the households the screen answered
    symbolically on the explicit backend; each must flag exactly what
    the screen flagged."""
    from repro.corpus.loader import scoped_registration
    from repro.fleet.driver import FleetOptions, check_household
    from repro.fleet.profiles import FleetProfile, TemplatePool

    pool = TemplatePool(FleetProfile(**PROFILE))
    options = FleetOptions(backend="explicit", max_union_states=EXPLICIT_BUDGET)
    order = list(range(PROFILE["templates"]))
    random.Random(f"perfbench-explicit:{seed}").shuffle(order)
    checked, failures = 0, []
    with scoped_registration():
        for template in order:
            if checked == EXPLICIT_SAMPLE:
                break
            key = pool.canonical_key(template, 0)
            screened = verdicts.get(key)
            if (
                screened is None  # never sampled into the screened fleet
                or screened["backend"] != "symbolic"
                or screened["states"] > EXPLICIT_BUDGET
            ):
                continue
            verdict = check_household(pool.blueprint(template), key, options)
            checked += 1
            if verdict.failed:
                failures.append(f"explicit re-check of template {template}: {verdict.error}")
                continue
            reason = oracles.check_same(
                f"explicit re-check of template {template}",
                screened["violated"], verdict.violated_ids(),
            )
            if reason:
                failures.append(reason)
    if checked < EXPLICIT_SAMPLE:
        failures.append(f"explicit re-check covered only {checked} households")
    return checked, failures


def merged_spans(reports: list[dict]) -> list[dict]:
    """The spans of several child processes as one list: span ids are
    per process, so each report's ids are shifted past the previous."""
    rows, offset = [], 0
    for report in reports:
        for row in report["spans"]:
            parent = row["parent"]
            rows.append(row | {
                "sid": row["sid"] + offset,
                "parent": None if parent is None else parent + offset,
            })
        offset = max((row["sid"] for row in rows), default=offset)
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"tmp-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, workdir: Path) -> dict:
    failures: list[str] = []
    colds: list[dict] = []
    warms: list[dict] = []
    pairs = 2 if trace else max(2, round(seconds / PAIR_S))
    for index in range(pairs):
        tracing = trace and index == 1
        store = workdir / f"store{index}"
        cold = screen(store, workdir / f"cold{index}.json", tracing)
        failures += screen_failures(f"cold screen {index}", cold, None)
        if colds and cold["verdicts"] != colds[0]["verdicts"]:
            failures.append(f"cold screen {index}: verdicts differ from cold screen 0")
        warm = screen(store, workdir / f"warm{index}.json", tracing)
        failures += screen_failures(f"warm screen {index}", warm, cold)
        shutil.rmtree(store, ignore_errors=True)
        colds.append(cold)
        warms.append(warm)

    checked, explicit_failures = explicit_recheck(seed, colds[0]["verdicts"])
    failures += explicit_failures
    cold_walls = [report["screen_s"] for report in colds]
    warm_walls = [report["screen_s"] for report in warms]
    walls = [cold + warm for cold, warm in zip(cold_walls, warm_walls)]
    reports = colds + warms
    starts = [report["start_s"] for report in reports]
    telemetry = colds[0]["telemetry"]
    outcome = {
        "setup_s": median(starts),
        "attempted": len(reports) + checked,
        "failures": failures,
        "params": {
            "profile": PROFILE,
            "households": HOUSEHOLDS,
            "canonical_distinct": telemetry["canonical_distinct"],
            "byte_distinct": telemetry["byte_distinct"],
        },
        "samples": {
            "pair_s": walls, "cold_s": cold_walls, "warm_s": warm_walls,
            "child_start_s": starts,
        },
        "notes": [
            f"op = one cold screen then one warm re-screen; {len(walls)} pairs",
            f"{checked} households re-checked on the explicit backend",
        ],
    }
    if trace:
        traced = [colds[1], warms[1]]
        values, span_notes = layers.derive(
            spans_from_dicts(merged_spans(traced)),
            [tuple(report["window"]) for report in traced],
            kernel=colds[1]["kernel"],
            fleet=colds[1]["telemetry"],
            overhead_s=walls[-1] - median(walls[:-1]),
        )
        outcome["trace_metrics"] = layers.as_metrics(values)
        outcome["notes"] += span_notes
        outcome["spans"] = merged_spans(traced)
        return outcome
    outcome["end_to_end"] = {
        "peak_rss_mb": metric(
            max([own_rss_mb()] + [report["maxrss_mb"] for report in reports]), "MB"
        ),
        "op_mean_ms": metric(1000 * sum(walls) / len(walls), "ms"),
        "ops_per_s": metric(len(walls) / sum(walls), "1/s"),
    }
    outcome["named"] = {
        "cold_s": metric(median(cold_walls), "s"),
        "warm_s": metric(median(warm_walls), "s"),
    }
    return outcome
