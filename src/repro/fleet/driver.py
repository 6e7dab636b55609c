"""The fleet screening driver: sample, canonicalize, dedup, check.

The run is a three-layer funnel, and each layer is where the throughput
comes from:

1. **Sampling** (:mod:`repro.fleet.profiles`) streams households without
   ever materializing the fleet: per sampled household the driver
   touches only a cached canonical key and a counter.
2. **Canonical dedup** (:mod:`repro.fleet.canon`) maps the byte-diverse
   stream onto few canonical households; only the first sighting of a
   key — after a probe of the store's ``fleet`` tier
   (:class:`repro.corpus.diskcache.FleetCache`) — costs a model check.
3. **Sharded checking**: the distinct representatives fan out through
   :func:`repro.corpus.batch.run_in_pool`, the best-effort process pool
   the corpus batch, sweep and fuzz drivers share; each worker reuses
   warm per-app pipeline stages through the process-shared
   :func:`~repro.pipeline.runner.pipeline_for`, and any household the
   pool does not return is checked serially in the parent.

The check itself is the sweep engine's union outcome
(:func:`repro.corpus.sweep.union_outcome`) under a *low*
explicit/symbolic crossover (:data:`FLEET_MAX_UNION_STATES`): fleet
unions of 3–15 apps routinely estimate in the thousands of states,
where symbolic checking is ~100x cheaper than explicit enumeration —
the budget is a throughput knob, not a soundness one (both paths check
every property).

Memory is bounded by the *pool*, never the fleet: the driver holds one
verdict + one counter per canonical household and one source per
(template, variant) — screening 1M households peaks at the same few
hundred MB as screening 10k.

Synthetic members are registered through the corpus loader under
content-derived ids and the whole run is wrapped in
:func:`~repro.corpus.loader.scoped_registration`, so a fleet screen
leaves the process-wide registry exactly as it found it (pool workers
are separate processes: their registrations never reach the parent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.corpus.batch import _resolve_jobs, run_in_pool
from repro.corpus.diskcache import FleetCache
from repro.corpus.loader import load_app, register_app, scoped_registration
from repro.corpus.sweep import union_outcome
from repro.fleet.blocklist import build_blocklist, combo_label
from repro.fleet.profiles import (
    FleetProfile,
    Household,
    TemplatePool,
    sample_stream,
)
from repro.fleet.telemetry import FleetTelemetry, HouseholdVerdict, ViolationRecord
from repro.pipeline.runner import Pipeline, pipeline_for
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import resolve_cache_dir

#: The fleet explicit/symbolic crossover.  Far below the sweep default
#: (10 000): at fleet scale the explicit checker's product enumeration
#: is the bottleneck, and the symbolic checker handles the same 3–15-app
#: unions in milliseconds.
FLEET_MAX_UNION_STATES = 512


@dataclass(frozen=True)
class FleetOptions(CheckConfig):
    """One screening run: the household check's :class:`CheckConfig`
    (with the fleet's low explicit budget) plus execution knobs.
    Picklable, so it ships to the pool workers as is."""

    max_union_states: int | None = FLEET_MAX_UNION_STATES
    jobs: int = 1
    cache_dir: str | None = None


@dataclass
class FleetResult:
    """Everything a screening run produced."""

    telemetry: FleetTelemetry
    #: canonical key -> verdict, one per canonical household.
    verdicts: dict[str, HouseholdVerdict] = field(default_factory=dict)
    #: canonical key -> sampled household count.
    key_counts: dict[str, int] = field(default_factory=dict)
    blocklist: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        """Sweep-consistent process status: 1 when any household
        violates, else 3 when any check failed (an incomplete screen is
        not a clean one), else 0."""
        if self.telemetry.violating_households:
            return 1
        return 3 if self.telemetry.failed_households else 0


def check_household(
    household: Household,
    canonical_key: str,
    options: FleetOptions,
    pipeline: Pipeline | None = None,
) -> HouseholdVerdict:
    """Union-check one representative household.

    Members are registered through the corpus loader (content-derived
    ids, so re-binding is always identical) and parsed via
    :func:`~repro.corpus.loader.load_app` — corpus members and repeated
    synthetics share one parse per process.  Scoping the registration is
    the *caller's* job: :func:`run_fleet` wraps its whole run, so
    per-household eviction never thrashes the parse caches.
    """
    if pipeline is None:
        pipeline = pipeline_for(options.cache_dir)
    members = household.member_ids()
    try:
        apps = []
        for member in household.members:
            register_app(member.app_id, member.source)
            apps.append(load_app(member.app_id))
        analyses = [pipeline.app_analysis(app) for app in apps]
        outcome = union_outcome(members, analyses, options, options.cache_dir)
    except Exception as exc:  # a broken household must not kill the fleet
        return HouseholdVerdict(
            canonical_key=canonical_key,
            members=members,
            error=f"{type(exc).__name__}: {exc}",
        )
    if outcome.failed:
        return HouseholdVerdict(
            canonical_key=canonical_key, members=members, error=outcome.error
        )
    environment = outcome.environment
    violations = tuple(
        ViolationRecord(
            property_id=violation.property_id,
            apps=tuple(violation.apps),
            devices=tuple(violation.devices),
            description=violation.description,
        )
        for violation in environment.violations
    )
    return HouseholdVerdict(
        canonical_key=canonical_key,
        members=members,
        violations=violations,
        backend=environment.backend,
        state_estimate=environment.state_estimate,
    )


def _household_worker(
    canonical_key: str, household: Household, options: FleetOptions
) -> tuple[str, HouseholdVerdict]:
    """Pool entry: check one representative household."""
    return canonical_key, check_household(household, canonical_key, options)


# ======================================================================
# The screening run
# ======================================================================
def run_fleet(
    profile: FleetProfile,
    count: int,
    options: FleetOptions | None = None,
) -> FleetResult:
    """Screen ``count`` sampled households; returns telemetry, one
    verdict per canonical household, and the blocklist feed."""
    options = options or FleetOptions()
    started = time.perf_counter()
    telemetry = FleetTelemetry()
    # Resolve $REPRO_CACHE_DIR once: shapes, checks and verdicts (here
    # and in the pool workers) all live in the one store over it.
    disk_root = resolve_cache_dir(options.cache_dir)
    if disk_root is not None:
        options = replace(options, cache_dir=str(disk_root))
    pipeline = pipeline_for(options.cache_dir)
    fleet_cache = None
    if disk_root is not None:
        fleet_cache = FleetCache(pipeline.store, options)

    with scoped_registration():
        # Member shapes share the checks' store: with a cache dir, a
        # warm re-screen reads every shape back instead of parsing.
        pool = TemplatePool(profile, pipeline.store)
        key_counts: dict[str, int] = {}
        byte_variants: set[tuple[int, int]] = set()
        verdicts: dict[str, HouseholdVerdict] = {}
        pending: dict[str, int] = {}  # canonical key -> representative template

        # Layer 1+2: stream the fleet, counting per canonical key; only
        # first sightings (after a disk probe) become check tasks.
        for _index, template, variant in sample_stream(profile, count):
            telemetry.households += 1
            byte_variants.add((template, variant))
            key = pool.canonical_key(template, variant)
            seen = key_counts.get(key)
            key_counts[key] = (seen or 0) + 1
            if seen is not None:
                continue
            if fleet_cache is not None:
                cached = fleet_cache.get(key)
                if cached is not None:
                    verdicts[key] = cached
                    telemetry.disk_hits += 1
                    continue
            pending[key] = template

        telemetry.byte_distinct = len(byte_variants)
        telemetry.canonical_distinct = len(key_counts)
        telemetry.fresh_checks = len(pending)

        # Layer 3: check each pending key's canonical representative
        # (variant 0 — isomorphic to whatever variant was sampled first,
        # so the blocklist reports combinations in canonical ids) through
        # the shared best-effort pool; every key it did not return is
        # checked serially below.
        fresh: dict[str, HouseholdVerdict] = {}
        worker_count = _resolve_jobs(options.jobs, len(pending), min_parallel=2)
        if worker_count > 1:
            payloads = [
                (key, pool.blueprint(template), options)
                for key, template in pending.items()
            ]
            fresh = run_in_pool(_household_worker, payloads, worker_count)
        for key, template in pending.items():
            verdict = fresh.get(key)
            if verdict is None:
                verdict = check_household(
                    pool.blueprint(template), key, options, pipeline
                )
            verdicts[key] = verdict
            if fleet_cache is not None and not verdict.failed:
                fleet_cache.put(key, verdict)

    # Aggregate telemetry + blocklist over the whole fleet.
    for key, sampled in key_counts.items():
        verdict = verdicts.get(key)
        if verdict is None:
            continue
        if verdict.failed:
            telemetry.failed_households += sampled
            telemetry.failed_checks += 1
            continue
        if verdict.violations:
            telemetry.violating_households += sampled
            telemetry.violating_distinct += 1
            label = combo_label(verdict.members)
            telemetry.by_combo[label] = telemetry.by_combo.get(label, 0) + sampled
            for property_id in sorted(verdict.violated_ids()):
                telemetry.by_property[property_id] = (
                    telemetry.by_property.get(property_id, 0) + sampled
                )
    telemetry.elapsed = time.perf_counter() - started
    blocklist = build_blocklist(
        verdicts.values(), key_counts, telemetry, profile_seed=profile.seed
    )
    return FleetResult(
        telemetry=telemetry,
        verdicts=verdicts,
        key_counts=key_counts,
        blocklist=blocklist,
    )
