"""Batch analysis driver for the evaluation corpus (Sec. 6 sweeps).

``load_corpus`` + :func:`repro.analyze_app` over all 82 apps is the inner
loop of every paper benchmark, the CLI ``corpus`` command, and the example
scripts.  This module turns that loop into a single call:

* **Cache** — one completed :class:`~repro.soteria.AppAnalysis` per app,
  stored as the ``analysis`` stage of the process-shared artifact store
  (:func:`repro.pipeline.runner.pipeline_for`) and keyed on the app id
  plus the SHA-256 of the app's source text.  The store's memory layer
  serves repeated sweeps in one process (test fixtures, benchmark
  rounds, interactive use) without re-analysis; with ``cache_dir`` (or
  ``$REPRO_CACHE_DIR``) its disk layer serves fresh processes too, and
  the pipeline version in every key keeps results from surviving a
  semantic change to the analysis.

  The loader memoizes sources per process, so the hash key matters when
  those caches are refreshed: after editing an app and clearing
  ``loader._sources``/``loader.load_app``, only that app's entry misses —
  every unchanged analysis is reused.
* **Workers** — cache misses are analyzed in parallel with
  :mod:`concurrent.futures` worker processes.  The pool is best-effort:
  environments without working multiprocessing (restricted sandboxes) fall
  back to in-process serial analysis transparently.

Misses run through the same pipeline: with a ``cache_dir`` configured,
each app's per-stage artifacts (parse/ir/model/kripke/check) persist next
to the whole analysis, so later environment sweeps and service
submissions replay the per-app stages from the same store.

Entries are never mutated by the driver, so shared use across fixtures
is safe as long as callers treat the results as read-only (which every
benchmark does).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
from collections.abc import Iterable

from repro.corpus.loader import app_ids, load_app, load_source
from repro.pipeline.runner import pipeline_for, shared_stores
from repro.pipeline.store import artifact_key, resolve_cache_dir
from repro.soteria import AppAnalysis

#: All dataset names, in the paper's presentation order.
DATASETS = ("official", "thirdparty", "maliot")

#: Artifact-store stage of finished per-app analyses.
STAGE = "analysis"

#: Environment override for the worker count (0 or 1 forces serial).
_JOBS_ENV = "REPRO_BATCH_JOBS"


def _source_digest(app_id: str) -> str:
    return hashlib.sha256(load_source(app_id).encode("utf-8")).hexdigest()


def _analyze_one(app_id: str, cache_dir: str | os.PathLike | None = None) -> AppAnalysis:
    """The single compute entry behind every batch miss: the staged
    pipeline for one corpus app, over the shared store of ``cache_dir``."""
    return pipeline_for(cache_dir).app_analysis(load_app(app_id))


def _analyze_worker(
    app_id: str, cache_dir: str | None = None
) -> tuple[str, AppAnalysis]:
    """Worker-process entry: load (package data) and analyze one app."""
    return app_id, _analyze_one(app_id, cache_dir)


def _resolve_jobs(jobs: int | None, pending: int, min_parallel: int = 4) -> int:
    """Worker count for ``pending`` tasks (explicit arg > env > CPU count).

    ``min_parallel`` is the pool-worthiness cutoff: below it the work runs
    serially.  The default of 4 is calibrated for cheap per-app analyses
    (spawning interpreters for a couple of cache misses costs more than
    the analyses); callers with expensive tasks — union-model checking in
    the sweep engine — pass 2 so even a pair of tasks parallelizes.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if jobs is None:
        env = os.environ.get(_JOBS_ENV)
        if env is None:
            jobs = os.cpu_count() or 1
        else:
            try:
                jobs = int(env.strip())
            except ValueError:
                raise ValueError(
                    f"{_JOBS_ENV} must be an integer worker count, "
                    f"got {env!r}"
                ) from None
            if jobs < 0:
                raise ValueError(
                    f"{_JOBS_ENV} must be non-negative, got {env!r}"
                )
    if pending < min_parallel:
        return 1
    return max(1, min(jobs, pending))


def run_in_pool(worker, payloads, worker_count: int) -> dict:
    """Run ``worker(*payload)`` over worker processes, best-effort.

    ``worker`` must be a module-level callable (picklable) returning a
    ``(key, value)`` pair; the result maps key -> value.  Failed payloads
    (worker exceptions, unpicklable results) are simply absent, for the
    caller's serial retry where the error can surface; completed siblings
    are kept.  Environments without usable multiprocessing (restricted
    sandboxes, missing semaphores) return an empty mapping so callers
    fall back to fully serial execution.
    """
    done: dict = {}
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=worker_count
        ) as pool:
            futures = [pool.submit(worker, *payload) for payload in payloads]
            for future in concurrent.futures.as_completed(futures):
                try:
                    key, value = future.result()
                except Exception:
                    continue  # retried serially so the error surfaces
                done[key] = value
    except Exception:
        pass
    return done


def analyze_batch(
    ids: Iterable[str],
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> dict[str, AppAnalysis]:
    """Analyze a list of corpus app ids, reusing cached results.

    ``jobs`` caps the worker processes (None = auto from ``REPRO_BATCH_JOBS``
    or the CPU count; 0/1 = serial).  ``cache_dir`` (default:
    ``$REPRO_CACHE_DIR`` if set) layers a disk-backed cache under the
    in-memory one: analyses found on disk skip re-analysis, fresh analyses
    are persisted for the next process.  Results come back in input order.
    """
    disk_path = resolve_cache_dir(cache_dir)
    store = pipeline_for(disk_path).store

    ordered = list(dict.fromkeys(ids))
    keys = {
        app_id: artifact_key(STAGE, [app_id, _source_digest(app_id)])
        for app_id in ordered
    }
    results: dict[str, AppAnalysis] = {}
    pending: list[str] = []
    for app_id in ordered:
        cached = store.get(STAGE, keys[app_id], AppAnalysis)
        if cached is None:
            pending.append(app_id)
        else:
            results[app_id] = cached

    worker_count = _resolve_jobs(jobs, len(pending))

    def commit(app_id: str, analysis: AppAnalysis) -> None:
        results[app_id] = analysis
        store.put(STAGE, keys[app_id], analysis)

    if pending and worker_count > 1:
        # Commit pool results immediately: if a later serial retry raises
        # (the per-app error a worker swallowed), the completed siblings
        # stay cached and a rerun only redoes the failing app.
        worker_cache = None if disk_path is None else str(disk_path)
        pool_results = run_in_pool(
            _analyze_worker,
            [(app_id, worker_cache) for app_id in pending],
            worker_count,
        )
        for app_id, analysis in pool_results.items():
            commit(app_id, analysis)
    for app_id in pending:
        if app_id not in results:
            commit(app_id, _analyze_one(app_id, disk_path))
    return {app_id: results[app_id] for app_id in ordered}


def analyze_corpus(
    dataset: str = "all",
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> dict[str, AppAnalysis]:
    """Analyze every app of one dataset (or ``"all"`` 82 apps) in one call."""
    if dataset == "all":
        ids = [app_id for name in DATASETS for app_id in app_ids(name)]
    else:
        ids = app_ids(dataset)
    return analyze_batch(ids, jobs=jobs, cache_dir=cache_dir)


def cache_info() -> dict[str, int]:
    """``analysis``-stage statistics summed over the process-shared stores.

    ``entries`` counts analyses held in memory, ``memory_hits``/
    ``disk_hits`` count lookups served by each layer, ``misses`` counts
    analyses actually (re)computed.  Counters reset with
    :func:`clear_cache`.
    """
    info = dict.fromkeys(("entries", "memory_hits", "disk_hits", "misses"), 0)
    for store in shared_stores():
        info["entries"] += store.memory_entries(STAGE)
        counts = store.counters().get(STAGE, {})
        for event in ("memory_hits", "disk_hits", "misses"):
            info[event] += counts.get(event, 0)
    info["hits"] = info["memory_hits"] + info["disk_hits"]
    return info


def clear_cache() -> None:
    """Empty the memory layer and reset the counters of every
    process-shared store — what a fresh process would see.

    Disk-cache directories belong to their callers and are kept.
    """
    for store in shared_stores():
        store.clear_memory()
