"""One fleet screen in a fresh process.

    python3 perfbench/fleet_child.py --cache DIR --out FILE [--trace] PROFILE_JSON

Runs ``run_fleet`` (``jobs=1``) over the disk cache ``DIR`` and writes
to ``FILE`` what the parent needs: when the process was ready, the
screen's wall time, its telemetry, one verdict per canonical key, the
BDD kernel aggregate and, with ``--trace``, the spans.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from repro.fleet.driver import FleetOptions, run_fleet  # noqa: E402
from repro.fleet.profiles import FleetProfile  # noqa: E402
from repro.mc.kernel import aggregate_kernel_stats  # noqa: E402
from tracing import Recorder  # noqa: E402


def verdict_summary(verdict) -> dict:
    return {
        "violated": sorted(verdict.violated_ids()),
        "backend": verdict.backend,
        "states": verdict.state_estimate,
        "error": verdict.error,
    }


def main() -> None:
    ready = time.time()
    import_s = time.perf_counter() - _STARTED
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("profile")
    args = parser.parse_args()
    spec = json.loads(args.profile)
    profile = FleetProfile(**spec["profile"])
    options = FleetOptions(jobs=1, cache_dir=args.cache)

    recorder = None
    if args.trace:
        recorder = Recorder(f"fleet-{Path(args.cache).name}")
        layers.install_pipeline(recorder)
        layers.install_fleet(recorder)
    start = time.perf_counter()
    if recorder is not None:
        span = recorder.open("fleet.run_fleet")
    result = run_fleet(profile, spec["households"], options)
    if recorder is not None:
        recorder.close(span)
        recorder.restore()
    end = time.perf_counter()

    telemetry = result.telemetry
    kernel = aggregate_kernel_stats().get("fast", {})
    payload = {
        "ready_wall": ready,
        "import_s": import_s,
        "screen_s": end - start,
        "window": [start, end],
        "telemetry": {
            name: getattr(telemetry, name)
            for name in (
                "households", "byte_distinct", "canonical_distinct",
                "fresh_checks", "disk_hits", "violating_households",
                "violating_distinct", "failed_households", "failed_checks",
                "by_property", "by_combo",
            )
        }
        | {"hit_rate": telemetry.hit_rate},
        "verdicts": {
            key: verdict_summary(verdict)
            for key, verdict in sorted(result.verdicts.items())
        },
        "kernel": kernel,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.dump() if recorder is not None else [],
    }
    Path(args.out).write_text(json.dumps(payload))


if __name__ == "__main__":
    main()
