"""Cross-kernel benchmark: the array-backed fast core vs the reference
manager on the heaviest symbolic workload in the repo.

The workload is the all-corpus union check (82 apps, ~2^115 domain
product, partitioned relation) — the same run ``soteria sweep
all --all-corpus --backend symbolic`` performs.  Both kernels check the
*same* cached union skeleton, so the measured difference is pure BDD
engine time: the fast kernel's flat (level, low, high) arrays,
packed-int tables, and persistent per-quantifier-mask computed caches
against the reference manager's dict-of-``_Node`` design.

The acceptance gate is a ≥3x speedup (reference baseline ~35-40 s, the
fast kernel ~12 s here); both wall clocks and both peak node counts are
recorded in ``BENCH_bdd_kernel.json`` for the cross-PR trajectory.
"""

import os
import time

from repro.corpus.batch import analyze_corpus
from repro.corpus.loader import app_ids
from repro.soteria import analyze_environment

#: Minimum fast-over-reference speedup on the all-corpus check.  The
#: measured ratio is ~3.3x; the floor can be lowered via the environment
#: for pathologically noisy CI hardware.
KERNEL_SPEEDUP_FLOOR = float(os.environ.get("REPRO_KERNEL_SPEEDUP_FLOOR", "3"))


def _all_corpus_members():
    analyses = analyze_corpus("all")
    ids = [a for ds in ("official", "thirdparty", "maliot") for a in app_ids(ds)]
    return [analyses[app_id] for app_id in ids]


def _timed_check(members, kernel):
    start = time.perf_counter()
    environment = analyze_environment(
        list(members),
        backend="symbolic",
        kernel=kernel,
    )
    elapsed = time.perf_counter() - start
    assert environment.kernel == kernel
    assert environment.kernel_stats is not None
    return environment, elapsed


def test_fast_kernel_speedup_over_reference(bench_json):
    members = _all_corpus_members()

    reference, reference_s = _timed_check(members, "reference")
    fast, fast_s = _timed_check(members, "fast")

    # Equivalence first: a fast kernel that disagrees has no speedup to
    # brag about.  (The full per-formula differential lives in
    # tests/test_backends_differential.py; this is the last-line check
    # on the exact workload being timed.)
    assert fast.violated_ids() == reference.violated_ids()
    assert fast.checked_properties == reference.checked_properties

    speedup = reference_s / fast_s
    bench_json(
        "all_corpus_symbolic_check",
        {
            "workload": "82-app union, partitioned encoding, full check",
            "reference": {
                "seconds": round(reference_s, 3),
                "peak_nodes": reference.kernel_stats["peak_nodes"],
            },
            "fast": {
                "seconds": round(fast_s, 3),
                "peak_nodes": fast.kernel_stats["peak_nodes"],
            },
            "speedup": round(speedup, 2),
            "floor": KERNEL_SPEEDUP_FLOOR,
        },
    )
    print(
        f"\nall-corpus check: reference {reference_s:.1f}s "
        f"(peak {reference.kernel_stats['peak_nodes']} nodes), fast "
        f"{fast_s:.1f}s (peak {fast.kernel_stats['peak_nodes']} nodes) "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"fast kernel only {speedup:.2f}x over reference "
        f"(floor {KERNEL_SPEEDUP_FLOOR:.1f}x): reference {reference_s:.1f}s, "
        f"fast {fast_s:.1f}s"
    )


def test_kernel_stats_shapes_match(bench_json):
    """Both kernels report the same stats() schema on a small workload —
    the observability surface the CLI and /v1/stats render."""
    members = _all_corpus_members()[:6]
    snapshots = {}
    for kernel in ("reference", "fast"):
        environment, _elapsed = _timed_check(members, kernel)
        stats = environment.kernel_stats
        assert stats["kernel"] == kernel
        assert stats["peak_nodes"] >= stats["live_nodes"] >= 0
        assert stats["unique_entries"] >= 0
        assert stats["gc_runs"] >= 0 and stats["reorders"] >= 0
        snapshots[kernel] = stats
    assert snapshots["reference"].keys() == snapshots["fast"].keys()
    bench_json(
        "six_app_union_stats",
        {kernel: dict(stats) for kernel, stats in snapshots.items()},
    )
