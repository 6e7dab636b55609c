"""Multi-app sweep engine: union-model analysis over app groups (Sec. 6.1).

The paper's multi-app evaluation (Table 4, Appendix C environments) runs
Algorithm 2 over hand-picked groups of co-installed apps.  This module
turns that into a corpus-scale workload:

* :func:`pairs` / :func:`groups_sharing_devices` enumerate *candidate
  co-installations* from the corpus itself — apps interact when they share
  a device (equal permission handles, the reproduction's device-identity
  convention) or the location-mode broadcast channel.  Passing a paper
  group's app ids as the universe recovers that group as one connected
  component; passing a whole dataset opens arbitrary-group and
  arbitrary-pair sweeps the paper never ran.
* :func:`sweep_environments` fans union-model construction + checking out
  over worker processes, reusing per-app analyses through the batch
  driver's ``analysis`` tier so no app source is ever parsed twice.
  With a ``cache_dir`` it also probes the store's ``sweep`` tier (keyed
  on the sorted member source digests + the :class:`CheckConfig` key):
  a warm sweep serves finished environment analyses and skips union
  checking entirely.

State explosion is no longer a reason to skip anything: the default
``auto`` backend checks groups under the state budget explicitly and
hands bigger clusters — the 13-app MalIoT cluster at 82 944 states
included — to the symbolic (BDD) backend, which never materializes the
product (:mod:`repro.model.encoder`).  A failed :class:`SweepOutcome`
(``environment is None``) now means the group's analysis genuinely
errored, not "too big to try".
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.corpus.batch import (
    DATASETS,
    _resolve_jobs,
    _source_digest,
    analyze_batch,
    run_in_pool,
)
from repro.corpus.loader import app_ids, load_app, load_source
from repro.ir import build_ir
from repro.model.extractor import StateExplosionError
from repro.pipeline.runner import pipeline_for
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import artifact_key, resolve_cache_dir
from repro.platform.events import EventKind
from repro.soteria import AppAnalysis, EnvironmentAnalysis

#: Name of the abstract broadcast channel shared by every app that reads
#: or writes the location mode (``setLocationMode`` / mode subscriptions).
MODE_CHANNEL = "location.mode"

#: Default union-state budget per candidate environment.  This is no
#: longer a skip threshold: under the default ``auto`` backend it is the
#: explicit/symbolic crossover — every curated paper group fits under it
#: with an order of magnitude to spare (the largest, Table 4's G.3,
#: unions to 1 536 states) and stays on the explicit checker, while
#: bigger corpus-enumerated clusters are checked symbolically.
DEFAULT_MAX_UNION_STATES = 10_000

#: The sweep's default check: ``auto`` over :data:`DEFAULT_MAX_UNION_STATES`.
DEFAULT_CONFIG = CheckConfig(max_union_states=DEFAULT_MAX_UNION_STATES)


# ======================================================================
# Candidate-environment enumeration
# ======================================================================
def _universe(universe: str | Iterable[str]) -> list[str]:
    """Normalize a dataset name (or ``"all"``) or explicit ids to a list."""
    if isinstance(universe, str):
        if universe == "all":
            return [app_id for name in DATASETS for app_id in app_ids(name)]
        return app_ids(universe)
    return list(dict.fromkeys(universe))


_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


@functools.lru_cache(maxsize=None)
def _app_channels(app_id: str) -> tuple[tuple[str, ...], bool, bool]:
    """(device handles, reads mode?, writes mode?) for one corpus app.

    Mode subscriptions come from the IR; mode *writes* and guard reads
    have no IR-level record, so they are detected textually in the
    comment-stripped source — a sound over-approximation for candidate
    enumeration (dead code can still flag an app, comments cannot).
    """
    source = _COMMENT.sub("", load_source(app_id))
    ir = build_ir(load_app(app_id))
    handles = tuple(sorted({perm.handle for perm in ir.devices()}))
    reads_mode = any(
        sub.event.kind is EventKind.MODE for sub in ir.subscriptions
    ) or "location.mode" in source
    writes_mode = "setLocationMode" in source or "sendLocationEvent" in source
    return handles, reads_mode, writes_mode


def interaction_channels(
    universe: str | Iterable[str],
) -> dict[str, tuple[str, ...]]:
    """Shared channels within a universe of corpus apps.

    Maps channel name -> the apps on it (universe order).  A channel is a
    device handle held by at least two apps, or :data:`MODE_CHANNEL` when
    some app writes the location mode and another reads or writes it
    (a broadcast with one participant interacts with nobody).
    """
    ids = _universe(universe)
    by_handle: dict[str, list[str]] = {}
    mode_apps: list[str] = []
    mode_writers = 0
    for app_id in ids:
        handles, reads_mode, writes_mode = _app_channels(app_id)
        for handle in handles:
            by_handle.setdefault(handle, []).append(app_id)
        if reads_mode or writes_mode:
            mode_apps.append(app_id)
            mode_writers += writes_mode
    channels = {
        handle: tuple(apps)
        for handle, apps in sorted(by_handle.items())
        if len(apps) > 1
    }
    if mode_writers and len(mode_apps) > 1:
        channels[MODE_CHANNEL] = tuple(mode_apps)
    return channels


def pairs(
    universe: str | Iterable[str],
) -> Iterable[tuple[str, str, tuple[str, ...]]]:
    """Candidate co-installation pairs: apps sharing at least one channel.

    Yields ``(app_a, app_b, shared_channels)`` with apps in universe order
    — the arbitrary-pair sweep workload (``sweep_environments`` over
    ``[(a, b) for a, b, _ in pairs(...)]``).
    """
    ids = _universe(universe)
    position = {app_id: index for index, app_id in enumerate(ids)}
    shared: dict[tuple[str, str], list[str]] = {}
    for channel, apps in interaction_channels(ids).items():
        for i, first in enumerate(apps):
            for second in apps[i + 1 :]:
                if channel == MODE_CHANNEL and not (
                    _app_channels(first)[2] or _app_channels(second)[2]
                ):
                    # Two mode *readers* alone cannot interact — the
                    # broadcast needs a writer inside the pair.
                    continue
                key = tuple(sorted((first, second), key=position.__getitem__))
                shared.setdefault(key, []).append(channel)
    for (first, second), channels in sorted(
        shared.items(), key=lambda item: (position[item[0][0]], position[item[0][1]])
    ):
        yield first, second, tuple(channels)


def groups_sharing_devices(
    universe: str | Iterable[str], min_size: int = 2
) -> list[tuple[str, ...]]:
    """Maximal candidate co-installations: connected components of the
    channel-sharing graph over ``universe``.

    Passing a curated group's ids (a Table 4 group, a MalIoT environment)
    recovers exactly that group as a single component — the paper's
    multi-app scenarios are the special case of a universe that is already
    one interaction cluster.  Passing a dataset name enumerates every
    maximal cluster of that dataset, most of which the paper never
    analyzed.  Components smaller than ``min_size`` (isolated apps) are
    dropped; apps within a component and components themselves keep
    universe order.
    """
    ids = _universe(universe)
    parent: dict[str, str] = {app_id: app_id for app_id in ids}

    def find(app_id: str) -> str:
        while parent[app_id] != app_id:
            parent[app_id] = parent[parent[app_id]]
            app_id = parent[app_id]
        return app_id

    for apps in interaction_channels(ids).values():
        root = find(apps[0])
        for other in apps[1:]:
            parent[find(other)] = root

    components: dict[str, list[str]] = {}
    for app_id in ids:
        components.setdefault(find(app_id), []).append(app_id)
    return [
        tuple(members)
        for members in components.values()
        if len(members) >= min_size
    ]


# ======================================================================
# The sweep itself
# ======================================================================
@dataclass(frozen=True)
class SweepOutcome:
    """Result of analyzing one candidate environment.

    ``environment is None`` means the group's analysis *failed* outright
    (``error`` carries the reason) — with the symbolic backend in the
    loop, "too big for the budget" is no longer one of those reasons
    unless the caller forces ``backend="explicit"``.  ``cached`` marks
    results served from the store's ``sweep`` tier.
    """

    group: tuple[str, ...]
    environment: EnvironmentAnalysis | None
    error: str | None = None
    cached: bool = False

    @property
    def failed(self) -> bool:
        return self.environment is None

    @property
    def backend(self) -> str | None:
        """Checker backend that produced the result (None when failed)."""
        if self.environment is None:
            return None
        return self.environment.backend

    def violated_ids(self) -> set[str]:
        if self.environment is None:
            return set()
        return self.environment.violated_ids()


def environment_only_ids(environment: EnvironmentAnalysis) -> set[str]:
    """Property ids only the union model reveals (the Table 4 numbers):
    multi-app violations plus ids no member app violates individually."""
    individual: set[str] = set()
    for analysis in environment.analyses:
        individual |= analysis.violated_ids()
    return {
        violation.property_id
        for violation in environment.violations
        if len(violation.apps) > 1 or violation.property_id not in individual
    }


def union_outcome(
    group: tuple[str, ...],
    analyses: list[AppAnalysis],
    config: CheckConfig,
    cache_dir: str | None = None,
) -> SweepOutcome:
    """Build + check one union model from precomputed per-app analyses.

    Runs through the staged pipeline over ``cache_dir`` when given: the
    union/check artifacts persist per stage, so a re-sweep with different
    knobs (a new catalog, a forced kernel) replays the member models
    and the union skeleton from the store.

    Public because it is the shared per-environment check unit: the
    sweep workers below and the fleet screening driver
    (:mod:`repro.fleet.driver`) both funnel through it, so a household
    check and a sweep check can never drift apart semantically.
    """
    try:
        environment = pipeline_for(cache_dir).environment_analysis(
            list(analyses), config=config
        )
    except StateExplosionError as exc:
        # Only reachable with backend="explicit": auto hands oversized
        # unions to the symbolic checker, which has no state budget.
        return SweepOutcome(group=group, environment=None, error=str(exc))
    return SweepOutcome(group=group, environment=environment)


def _sweep_worker(
    group: tuple[str, ...],
    analyses: list[AppAnalysis],
    config: CheckConfig,
    cache_dir: str | None = None,
) -> tuple[tuple[str, ...], SweepOutcome]:
    return group, union_outcome(group, analyses, config, cache_dir)


def sweep_environments(
    groups: Iterable[Sequence[str]],
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    config: CheckConfig = DEFAULT_CONFIG,
) -> list[SweepOutcome]:
    """Union-model analysis over many app groups, in input order.

    Per-app analyses are computed once through :func:`analyze_batch`
    (worker processes for cache misses; ``cache_dir`` layers the
    disk-backed cache, so a warm sweep re-parses nothing).  Union
    construction + checking then fans out over worker processes — each
    group ships its precomputed analyses to a worker, no re-parsing there
    either.

    ``config`` picks the union checker per group (see
    :func:`repro.soteria.analyze_environment`): the default ``auto``
    backend checks groups within ``config.max_union_states`` explicitly
    and larger ones symbolically, so *every* group is checked —
    oversized clusters are no longer skipped.  Forcing
    ``backend="explicit"`` restores the old budget behavior: groups
    beyond it come back as failed outcomes carrying the explosion error.
    The symbolic backend's partitioned relation is what lets the
    all-corpus 82-app union check end to end.

    With a ``cache_dir``, finished environment analyses are also stored
    sweep-level, keyed on the sorted member source digests + pipeline
    version + ``config.key()``: a warm sweep run serves every unchanged
    group from disk and skips union checking entirely, and a sweep with
    a forced knob or another budget is never served a result a
    differently-configured sweep produced.

    One outcome per input group, in input order — duplicate groups are
    analyzed once and each occurrence gets the shared result.
    """
    requested = [tuple(group) for group in groups]
    ordered = list(dict.fromkeys(requested))

    # Sweep-tier probe: groups served from the store never touch the
    # batch driver or a worker.
    outcomes: dict[tuple[str, ...], SweepOutcome] = {}
    disk_path = resolve_cache_dir(cache_dir)
    store = None if disk_path is None else pipeline_for(disk_path).store
    keys: dict[tuple[str, ...], str] = {}
    if store is not None:
        for group in ordered:
            digests = sorted(_source_digest(app_id) for app_id in group)
            keys[group] = artifact_key("sweep", digests, {"config": config.key()})
            cached = store.get("sweep", keys[group], EnvironmentAnalysis)
            if cached is not None:
                outcomes[group] = SweepOutcome(
                    group=group, environment=cached, cached=True
                )

    pending_groups = [group for group in ordered if group not in outcomes]
    member_ids = list(dict.fromkeys(a for group in pending_groups for a in group))
    analyses = analyze_batch(member_ids, jobs=jobs, cache_dir=cache_dir)

    # A group over an explicit budget fails inside union_outcome (the
    # pipeline raises before enumerating anything), like any other error.
    worker_cache = None if disk_path is None else str(disk_path)
    payloads = [
        (group, [analyses[app_id] for app_id in group], config, worker_cache)
        for group in pending_groups
    ]

    # min_parallel=2: a sweep payload is a whole union-model check, so
    # even two groups are worth a pool (unlike batch's cheap per-app jobs).
    worker_count = _resolve_jobs(jobs, len(payloads), min_parallel=2)
    if worker_count > 1:
        outcomes.update(run_in_pool(_sweep_worker, payloads, worker_count))
    for group, group_analyses, _config, group_cache in payloads:
        if group not in outcomes:
            outcomes[group] = union_outcome(
                group, group_analyses, config, group_cache
            )

    if store is not None:
        for group in pending_groups:
            environment = outcomes[group].environment
            if environment is not None:
                store.put("sweep", keys[group], environment)
    return [outcomes[group] for group in requested]


def sweep_dataset(
    dataset: str = "all",
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    pairwise: bool = False,
    config: CheckConfig = DEFAULT_CONFIG,
    all_corpus: bool = False,
) -> list[SweepOutcome]:
    """Sweep one dataset's candidate environments (or all of them).

    ``pairwise`` analyzes every device-sharing pair instead of the maximal
    sharing groups — many more, much smaller, union models.

    ``all_corpus`` is the paper's whole-deployment scenario taken to the
    limit: *one* environment containing every app of ``dataset`` (all 82
    corpus apps for ``"all"``), regardless of device sharing.  Its domain
    product is astronomically beyond any explicit budget (~2^115 states
    for the full corpus), so it rides the symbolic backend's partitioned
    relation end to end — no skip, no state-budget bailout.
    """
    if all_corpus:
        groups: list[Sequence[str]] = [tuple(_universe(dataset))]
    elif pairwise:
        groups = [
            (first, second) for first, second, _channels in pairs(dataset)
        ]
    else:
        groups = groups_sharing_devices(dataset)
    return sweep_environments(groups, jobs=jobs, cache_dir=cache_dir, config=config)
