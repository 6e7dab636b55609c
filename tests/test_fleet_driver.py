"""Fleet screening driver: sampling, dedup, telemetry, and exit codes."""

from dataclasses import replace

import pytest

from repro.corpus.diskcache import FleetCache
from repro.corpus.loader import registered_ids
from repro.fleet import driver
from repro.fleet.driver import (
    FLEET_MAX_UNION_STATES,
    FleetOptions,
    FleetResult,
    run_fleet,
)
from repro.fleet.profiles import FleetProfile, TemplatePool, sample_stream
from repro.fleet.telemetry import FleetTelemetry, HouseholdVerdict
from repro.pipeline import runner
from repro.pipeline.runner import Pipeline
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import CACHE_DIR_ENV, ArtifactStore
from repro.platform.smartapp import SmartApp

#: Small profile: a handful of canonical forms, so a serial run stays
#: in the hundreds of milliseconds.
SMALL = FleetProfile(seed=7, templates=4, variants=2)
COUNT = 300


@pytest.fixture(scope="module")
def small_run():
    return run_fleet(SMALL, COUNT, FleetOptions(jobs=1))


class TestSampling:
    def test_stream_is_deterministic(self):
        first = list(sample_stream(SMALL, 50))
        second = list(sample_stream(SMALL, 50))
        assert first == second

    def test_stream_respects_pool_bounds(self):
        for _index, template, variant in sample_stream(SMALL, 200):
            assert 0 <= template < SMALL.templates
            assert 0 <= variant < SMALL.variants

    def test_different_seed_different_stream(self):
        other = FleetProfile(seed=8, templates=4, variants=2)
        assert list(sample_stream(SMALL, 50)) != list(sample_stream(other, 50))


class TestTelemetry:
    def test_counts_are_consistent(self, small_run):
        telemetry = small_run.telemetry
        assert telemetry.households == COUNT
        assert telemetry.canonical_distinct <= telemetry.byte_distinct
        assert telemetry.byte_distinct <= SMALL.templates * SMALL.variants
        assert telemetry.fresh_checks <= telemetry.canonical_distinct
        assert sum(small_run.key_counts.values()) == COUNT
        assert len(small_run.verdicts) == telemetry.canonical_distinct
        assert 0.0 <= telemetry.hit_rate <= 1.0
        # Violating + failed + clean partitions the fleet.
        clean = (
            telemetry.households
            - telemetry.violating_households
            - telemetry.failed_households
        )
        assert clean >= 0

    def test_rename_variants_collapse(self, small_run):
        # Every variant of a template is isomorphic by construction, so
        # the canonical tier is at most one entry per *template*.
        assert small_run.telemetry.canonical_distinct <= SMALL.templates

    def test_property_counters_cover_violating_households(self, small_run):
        telemetry = small_run.telemetry
        if telemetry.violating_households:
            assert telemetry.by_property
            assert max(telemetry.by_property.values()) <= (
                telemetry.violating_households
            )
            assert sum(telemetry.by_combo.values()) == (
                telemetry.violating_households
            )

    def test_blocklist_covers_violating_forms(self, small_run):
        entries = small_run.blocklist["entries"]
        assert len(entries) == small_run.telemetry.violating_distinct
        assert sum(e["households"] for e in entries) == (
            small_run.telemetry.violating_households
        )
        for entry in entries:
            assert entry["properties"]
            assert entry["combination"] == sorted(entry["combination"])

    def test_registry_restored_after_run(self, small_run):
        # The loader-scoping regression: a fleet screen registers one
        # synthetic app per pool member, and every registration must be
        # rolled back when the run finishes.
        assert [i for i in registered_ids() if i.startswith("Flt")] == []


class TestDiskTier:
    def test_warm_run_checks_nothing(self, tmp_path):
        options = FleetOptions(jobs=1, cache_dir=str(tmp_path))
        cold = run_fleet(SMALL, COUNT, options)
        assert cold.telemetry.fresh_checks > 0
        assert cold.telemetry.disk_hits == 0
        warm = run_fleet(SMALL, COUNT, options)
        assert warm.telemetry.fresh_checks == 0
        assert warm.telemetry.disk_hits == warm.telemetry.canonical_distinct
        assert warm.telemetry.hit_rate == 1.0
        # Same fleet, same verdicts — the cache changes cost, not truth.
        assert (
            warm.telemetry.violating_households
            == cold.telemetry.violating_households
        )
        assert set(warm.verdicts) == set(cold.verdicts)

    def test_cache_dir_env_reaches_every_tier(self, tmp_path, monkeypatch):
        # Regression: with $REPRO_CACHE_DIR and no cache_dir, only the
        # verdicts persisted; shapes and checks went to the memory-only
        # pipeline, so a fresh process re-parsed every member.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cold = run_fleet(SMALL, COUNT, FleetOptions(jobs=1))
        assert ArtifactStore(tmp_path).entries("shape")
        assert ArtifactStore(tmp_path).entries("check")
        fresh = Pipeline(ArtifactStore(tmp_path))
        monkeypatch.setitem(runner._pipelines, str(tmp_path), fresh)
        warm = run_fleet(SMALL, COUNT, FleetOptions(jobs=1))
        assert warm.key_counts == cold.key_counts
        assert warm.telemetry.fresh_checks == 0
        shapes = fresh.store.counters()["shape"]
        assert shapes["misses"] == 0
        assert shapes["disk_hits"] > 0

    def test_shapes_parse_once_cold_and_never_warm(self, tmp_path, monkeypatch):
        parsed: list[str] = []
        original = SmartApp.from_source.__func__

        def counting(cls, source, name=None):
            if name == "canon":  # the canonicalizer's parses only
                parsed.append(source)
            return original(cls, source, name)

        monkeypatch.setattr(SmartApp, "from_source", classmethod(counting))
        options = FleetOptions(jobs=1, cache_dir=str(tmp_path))
        cold = run_fleet(SMALL, COUNT, options)

        # Exactly one parse per distinct member source: every sampled
        # skin plus the originals its renames were derived from.
        pool = TemplatePool(SMALL)
        sampled = {(t, v) for _i, t, v in sample_stream(SMALL, COUNT)}
        sampled |= {(t, 0) for t, _v in sampled}
        distinct = {
            member.source
            for template, variant in sampled
            for member in pool.household(template, variant).members
        }
        assert sorted(parsed) == sorted(distinct)

        # A warm re-screen through a fresh pipeline (a new process, as
        # far as the store's memory layer knows) reads every shape back.
        parsed.clear()
        fresh = Pipeline(ArtifactStore(tmp_path))
        monkeypatch.setitem(runner._pipelines, str(tmp_path), fresh)
        warm = run_fleet(SMALL, COUNT, options)
        assert parsed == []
        assert warm.key_counts == cold.key_counts
        assert warm.telemetry.fresh_checks == 0
        shape_hits = fresh.store.counters()["shape"]
        assert shape_hits["disk_hits"] == len(distinct)
        assert shape_hits["misses"] == 0

    def test_knobs_partition_the_tier(self, tmp_path):
        verdict = HouseholdVerdict(canonical_key="k" * 64, members=("A", "B"))
        FleetCache(ArtifactStore(tmp_path), FleetOptions()).put("k" * 64, verdict)
        assert len(ArtifactStore(tmp_path).entries("fleet")) == 1

        def probe(**knobs):
            config = FleetOptions(**knobs)
            return FleetCache(ArtifactStore(tmp_path), config).get("k" * 64)

        assert probe() is not None
        # Execution knobs are not check knobs: the key is the
        # CheckConfig part of the options alone.
        assert probe(jobs=2, cache_dir=str(tmp_path)) is not None
        plain = CheckConfig(max_union_states=FLEET_MAX_UNION_STATES)
        assert FleetCache(ArtifactStore(tmp_path), plain).get("k" * 64) is not None
        # A forced-knob run never sees the auto entry.
        assert probe(backend="symbolic") is None
        assert probe(max_union_states=10_000) is None


def _timeless(telemetry: FleetTelemetry) -> FleetTelemetry:
    return replace(telemetry, elapsed=0.0)


def _fields(verdicts: dict[str, HouseholdVerdict]) -> dict:
    """Every per-key field, violation records as a set: S.2's
    cross-handler records come out in string-hash order, which a pool
    worker need not share with the parent."""
    return {
        key: replace(verdict, violations=frozenset(verdict.violations))
        for key, verdict in verdicts.items()
    }


class TestPooledExecution:
    def test_pooled_matches_serial(self, small_run):
        pooled = run_fleet(SMALL, COUNT, FleetOptions(jobs=2))
        # Every per-key field (violations, backend, state estimate,
        # error) and every counter but the wall clock.
        assert _fields(pooled.verdicts) == _fields(small_run.verdicts)
        assert _timeless(pooled.telemetry) == _timeless(small_run.telemetry)
        assert pooled.blocklist["entries"] == small_run.blocklist["entries"]
        # Pool workers are separate processes: nothing they register
        # reaches the parent's registry.
        assert [i for i in registered_ids() if i.startswith("Flt")] == []

    @pytest.mark.parametrize("returned", ["none", "half"])
    def test_serial_pass_checks_what_the_pool_dropped(
        self, small_run, tmp_path, monkeypatch, returned
    ):
        calls = []

        def lossy_pool(worker, payloads, worker_count):
            calls.append(len(payloads))
            if returned == "none":
                return {}
            return dict(worker(*payload) for payload in payloads[::2])

        monkeypatch.setattr(driver, "run_in_pool", lossy_pool)
        options = FleetOptions(jobs=2, cache_dir=str(tmp_path))
        cold = run_fleet(SMALL, COUNT, options)
        assert calls == [cold.telemetry.fresh_checks]
        assert _fields(cold.verdicts) == _fields(small_run.verdicts)
        assert cold.telemetry.failed_checks == 0
        assert [i for i in registered_ids() if i.startswith("Flt")] == []

        serial = FleetOptions(jobs=1, cache_dir=str(tmp_path))
        warm = run_fleet(SMALL, COUNT, serial)
        assert warm.telemetry.fresh_checks == 0
        assert warm.telemetry.disk_hits == warm.telemetry.canonical_distinct
        assert _fields(warm.verdicts) == _fields(small_run.verdicts)


class TestExitCodes:
    def _result(self, violating: int, failed: int) -> FleetResult:
        telemetry = FleetTelemetry(
            households=10,
            violating_households=violating,
            failed_households=failed,
        )
        return FleetResult(telemetry=telemetry)

    def test_violations_win(self):
        assert self._result(violating=3, failed=2).exit_code == 1

    def test_failures_without_violations(self):
        assert self._result(violating=0, failed=2).exit_code == 3

    def test_clean(self):
        assert self._result(violating=0, failed=0).exit_code == 0

    def test_real_run_reports_violations(self, small_run):
        # The generator's benign fragments still race in unions (S.2 /
        # S.4), so any real profile screens dirty — exit 1.
        assert small_run.exit_code == 1


class TestProfileKnobs:
    def test_default_crossover_is_fleet_tuned(self):
        assert FleetOptions().max_union_states == FLEET_MAX_UNION_STATES

    def test_pool_is_deterministic(self):
        first = TemplatePool(SMALL)
        second = TemplatePool(SMALL)
        for template in range(SMALL.templates):
            assert [m.source for m in first.blueprint(template).members] == [
                m.source for m in second.blueprint(template).members
            ]
            for variant in range(SMALL.variants):
                assert first.canonical_key(template, variant) == (
                    second.canonical_key(template, variant)
                )

    def test_household_sizes_in_bounds(self):
        pool = TemplatePool(SMALL)
        for template in range(SMALL.templates):
            size = len(pool.blueprint(template).members)
            assert SMALL.min_size <= size <= SMALL.max_size
