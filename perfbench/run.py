"""Soteria benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload union_all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload with span-recording wrappers around each layer's public
callables and reports the per-layer metrics.  Every run checks every
verdict against a known answer; the last line of standard output is the
JSON result, and the full record (environment stamp, parameters, all
metrics, spans) is written under ``perfbench/out/``.  The exit code is
1 when any verdict is wrong, 2 when the program is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, emit, environment_stamp, host_probe_ms, median, metric  # noqa: E402

WORKLOADS = ("union_all", "fleet_screen", "service_mix")
MODULES = {"union_all": "w_union", "fleet_screen": "w_fleet", "service_mix": "w_service"}
#: Fresh interpreters started to time process start plus imports.
IMPORT_ROUNDS = 5


def import_times(module: str, rounds: int = IMPORT_ROUNDS) -> list[float]:
    """Wall time of a fresh interpreter that imports the workload
    module, ``rounds`` times: the process-start part of ``setup_s``."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import {module}"
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "union_all":
        import w_union as workload
    elif args.workload == "service_mix":
        import w_service as workload
    else:
        import w_fleet as workload
    import_s = time.perf_counter() - STARTED
    imports = import_times(MODULES[args.workload])

    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  why: {workload.WHY[args.workload]}")
    stamp = environment_stamp()
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in stamp.items()))
    probe_before = host_probe_ms()
    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    probe = [probe_before, host_probe_ms()]
    print(f"  host probe: {probe[0]:.1f} ms before, {probe[1]:.1f} ms after")
    setup = outcome.pop("setup_s")
    failures = outcome["failures"]
    # One operation can fail several checks; count it once.
    failed = min(len(failures), outcome["attempted"])
    metrics = outcome["trace_metrics"] if args.trace else {
        "setup_s": metric(median(imports) + setup, "s"),
        **outcome["end_to_end"],
    }
    all_metrics = dict(metrics)
    if not args.trace:
        all_metrics.update(outcome["named"])
        all_metrics["error_rate"] = metric(
            failed / outcome["attempted"], "ratio"
        )
    result = {
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "why": workload.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "params": outcome["params"],
        "environment": stamp,
        "import_s": import_s,
        "fresh_import_s": imports,
        "host_probe_ms": probe,
        "all_metrics": all_metrics,
        "failures": failures[:50],
        "notes": outcome.get("notes", []),
        "samples": outcome.get("samples", {}),
        "spans": outcome.get("spans", []),
        "result": result,
    }
    for reason in failures[:10]:
        print(f"  WRONG: {reason}")
    emit(result, record)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
