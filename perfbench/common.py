"""Shared helpers: statistics, the environment stamp, peak memory and
the result line every workload prints."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Results, spans and temporary run state; ignored by git.
OUT = HERE / "out"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile that leaves at least ``beyond`` samples
    above it: ``(percentile, value, sample count)``.

    Ranks are nearest-rank: with ``n`` sorted samples the value at rank
    ``k`` (1-based) is the ``100 * k / n`` percentile, and ``n - k``
    samples lie beyond it.  The highest such rank is ``n - beyond``.
    With ``beyond`` samples or fewer no percentile qualifies, and the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - beyond
    if rank < 1:
        return 100.0, ordered[-1], n
    return 100.0 * rank / n, ordered[rank - 1], n


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own_rss_mb(), kids)


def host_probe_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    host ran around a measurement, so drift between runs can be told
    apart from a change in the program.  Never folded into a metric."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(1000 * (time.perf_counter() - start))
    return median(times)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported tree; do not report an enclosing repo
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp() -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(result: dict, record: dict) -> None:
    """Print every metric by name and unit, write the full record under
    :data:`OUT`, and print the one-line JSON result last."""
    for name, entry in sorted(record["all_metrics"].items()):
        print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']}")
    for note in record.get("notes", []):
        print(f"  note: {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    tag = "trace" if record["trace"] else "run"
    path = OUT / f"{record['workload']}-seed{record['seed']}-{tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  full record: {path.relative_to(ROOT)}")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
