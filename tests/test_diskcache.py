"""Whole-result cache tiers of the artifact store: round trips,
invalidation, batch layering, and their store counters."""

import pickle

import pytest

from repro import analyze_app, analyze_environment
from repro.corpus import batch
from repro.corpus import sweep as sweep_mod
from repro.corpus.sweep import sweep_environments
from repro.fleet.driver import FleetOptions, run_fleet
from repro.fleet.profiles import FleetProfile
from repro.pipeline import store as store_mod
from repro.pipeline.runner import pipeline_for
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import (
    CACHE_DIR_ENV,
    PIPELINE_VERSION,
    ArtifactStore,
    artifact_key,
    resolve_cache_dir,
)
from repro.corpus.loader import load_app
from repro.soteria import AppAnalysis, EnvironmentAnalysis


@pytest.fixture()
def clean_batch_cache():
    batch.clear_cache()
    yield
    batch.clear_cache()


@pytest.fixture()
def o1_analysis():
    return analyze_app(load_app("O1"))


def _analysis_key(app_id: str) -> str:
    return artifact_key("analysis", [app_id, batch._source_digest(app_id)])


STALE = "0-stale"


class TestRoundTrip:
    """The ``analysis`` stage as the batch tier keys it: an entry
    written by one store is read back by a fresh one (a fresh process)."""

    def test_put_then_get(self, tmp_path, o1_analysis):
        ArtifactStore(tmp_path).put("analysis", "key", o1_analysis)
        loaded = ArtifactStore(tmp_path).get("analysis", "key", AppAnalysis)
        assert loaded is not None and loaded is not o1_analysis
        assert loaded.app.name == "O1"
        assert loaded.violated_ids() == o1_analysis.violated_ids()
        assert loaded.model.size() == o1_analysis.model.size()

    def test_miss_on_unknown_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("analysis", _analysis_key("O1"), AppAnalysis) is None

    def test_miss_on_other_digest(self, tmp_path, o1_analysis):
        store = ArtifactStore(tmp_path)
        store.put("analysis", artifact_key("analysis", ["O1", "digest-a"]), o1_analysis)
        other = artifact_key("analysis", ["O1", "digest-b"])
        assert store.get("analysis", other, AppAnalysis) is None
        assert ArtifactStore(tmp_path).get("analysis", other, AppAnalysis) is None

    def test_stats_track_hits_misses_writes(self, tmp_path, o1_analysis):
        store = ArtifactStore(tmp_path)
        key = _analysis_key("O1")
        store.get("analysis", key, AppAnalysis)
        store.put("analysis", key, o1_analysis)
        store.get("analysis", key, AppAnalysis)
        fresh = ArtifactStore(tmp_path)
        fresh.get("analysis", key, AppAnalysis)
        assert store.counters()["analysis"] == {
            "memory_hits": 1, "disk_hits": 0, "misses": 1, "writes": 1,
        }
        assert fresh.counters()["analysis"] == {
            "memory_hits": 0, "disk_hits": 1, "misses": 0, "writes": 0,
        }
        assert len(store.entries("analysis")) == 1


class TestInvalidation:
    def test_stale_pipeline_version_misses(self, tmp_path, o1_analysis):
        old = ArtifactStore(tmp_path, version=STALE)
        stale_key = artifact_key(
            "analysis", ["O1", batch._source_digest("O1")], version=STALE
        )
        old.put("analysis", stale_key, o1_analysis)
        current = ArtifactStore(tmp_path)
        assert current.get("analysis", _analysis_key("O1"), AppAnalysis) is None
        # Even the stale key itself is unreachable from the current version.
        assert current.get("analysis", stale_key, AppAnalysis) is None
        assert current.entries("analysis") == []

    def test_entries_scoped_to_current_version(self, tmp_path, o1_analysis):
        ArtifactStore(tmp_path, version=STALE).put("analysis", "key", o1_analysis)
        current = ArtifactStore(tmp_path)
        current.put("analysis", "key", o1_analysis)
        assert len(current.entries("analysis")) == 1
        assert f"v{PIPELINE_VERSION}" in str(current.entries("analysis")[0])

    def test_prune_removes_stale_versions_only(self, tmp_path, o1_analysis):
        ArtifactStore(tmp_path, version=STALE).put("analysis", "key", o1_analysis)
        ArtifactStore(tmp_path).put("analysis", "key", o1_analysis)
        assert ArtifactStore(tmp_path).prune() == 1
        assert not (tmp_path / f"v{STALE}").exists()
        assert ArtifactStore(tmp_path).get("analysis", "key", AppAnalysis) is not None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("analysis", "key")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert store.get("analysis", "key", AppAnalysis) is None
        assert not path.exists()

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("analysis", "key")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "an analysis"}))
        assert store.get("analysis", "key", AppAnalysis) is None
        assert store.counters()["analysis"]["misses"] == 1


class TestSweepCacheInvalidation:
    """Sweep entries are keyed on the sorted member source digests, the
    checker knobs and the pipeline version; a stale union verdict served
    after any of them changed would silently mask regressions."""

    DIGESTS = ["digest-a", "digest-b"]

    @pytest.fixture()
    def environment(self, o1_analysis):
        return analyze_environment([o1_analysis])

    def _key(self, digests, version=PIPELINE_VERSION, **knobs):
        knob = {"config": CheckConfig(**knobs).key()}
        return artifact_key("sweep", sorted(digests), knob, version=version)

    def test_round_trip_on_same_digests(self, tmp_path, environment):
        ArtifactStore(tmp_path).put("sweep", self._key(self.DIGESTS), environment)
        store = ArtifactStore(tmp_path)
        loaded = store.get("sweep", self._key(self.DIGESTS), EnvironmentAnalysis)
        assert loaded is not None
        assert loaded.violated_ids() == environment.violated_ids()
        assert store.counters()["sweep"]["disk_hits"] == 1

    def test_pipeline_version_bump_invalidates(self, tmp_path, environment):
        old = ArtifactStore(tmp_path, version=STALE)
        old.put("sweep", self._key(self.DIGESTS, version=STALE), environment)
        current = ArtifactStore(tmp_path)
        assert current.get(
            "sweep", self._key(self.DIGESTS), EnvironmentAnalysis
        ) is None
        assert current.counters()["sweep"] == {
            "memory_hits": 0, "disk_hits": 0, "misses": 1, "writes": 0,
        }
        # The stale entry still exists under its own version directory:
        # invalidation is by unreachability, not deletion.
        assert old.entries("sweep")

    def test_member_digest_change_invalidates(self, tmp_path, environment):
        store = ArtifactStore(tmp_path)
        store.put("sweep", self._key(self.DIGESTS), environment)
        fresh = ArtifactStore(tmp_path)
        for key in (
            self._key(["digest-a", "digest-EDITED"]),
            self._key(["digest-a"]),  # membership change too
            self._key(self.DIGESTS, backend="explicit"),  # forced knob
        ):
            assert fresh.get("sweep", key, EnvironmentAnalysis) is None
        assert fresh.counters()["sweep"]["misses"] == 3
        # The untouched group is still served, in any member order.
        assert fresh.get(
            "sweep", self._key(reversed(self.DIGESTS)), EnvironmentAnalysis
        ) is not None

    def test_prune_clears_stale_sweep_versions(self, tmp_path, environment):
        ArtifactStore(tmp_path, version=STALE).put(
            "sweep", self._key(self.DIGESTS, version=STALE), environment
        )
        ArtifactStore(tmp_path).put("sweep", self._key(self.DIGESTS), environment)
        assert ArtifactStore(tmp_path).prune() >= 1
        assert not (tmp_path / f"v{STALE}").exists()
        assert ArtifactStore(tmp_path).get(
            "sweep", self._key(self.DIGESTS), EnvironmentAnalysis
        ) is not None


class TestAnalysisTier:
    def test_round_trip_through_a_fresh_store(self, tmp_path, clean_batch_cache):
        analysis = batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)["O1"]
        loaded = ArtifactStore(tmp_path).get(
            "analysis", _analysis_key("O1"), AppAnalysis
        )
        assert loaded is not None and loaded is not analysis
        assert loaded.app.name == "O1"
        assert loaded.violated_ids() == analysis.violated_ids()
        assert loaded.model.size() == analysis.model.size()

    def test_source_change_misses(self, tmp_path, clean_batch_cache, monkeypatch):
        batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        real = batch._source_digest
        monkeypatch.setattr(batch, "_source_digest", lambda a: real(a) + "-edited")
        batch.clear_cache()
        batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        assert batch.cache_info()["misses"] == 1
        assert len(ArtifactStore(tmp_path).entries("analysis")) == 2

    def test_stale_pipeline_version_never_served_and_pruned(
        self, tmp_path, clean_batch_cache
    ):
        o1 = batch.analyze_batch(["O1"], jobs=1)["O1"]  # memory only
        stale = ArtifactStore(tmp_path, version="0-stale")
        stale.put("analysis", _analysis_key("O1"), o1)
        batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        assert batch.cache_info()["disk_hits"] == 0
        entries = ArtifactStore(tmp_path).entries("analysis")
        assert len(entries) == 1
        assert f"v{PIPELINE_VERSION}" in str(entries[0])
        assert ArtifactStore(tmp_path).prune() == 1
        assert not (tmp_path / "v0-stale").exists()
        assert ArtifactStore(tmp_path).entries("analysis") == entries

    def test_corrupt_entry_is_recomputed(self, tmp_path, clean_batch_cache):
        batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        [entry] = ArtifactStore(tmp_path).entries("analysis")
        entry.write_bytes(b"not a pickle")
        batch.clear_cache()
        results = batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        assert results["O1"].app.name == "O1"
        assert batch.cache_info()["misses"] == 1
        assert ArtifactStore(tmp_path).get(
            "analysis", _analysis_key("O1"), AppAnalysis
        ) is not None


class TestSweepTier:
    """Sweep entries must die with the pipeline version and with any
    member source change: a stale union verdict served after either
    would silently mask regressions."""

    GROUP = ("App1", "App15")

    def test_member_source_change_invalidates(
        self, tmp_path, clean_batch_cache, monkeypatch
    ):
        sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)
        assert sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)[0].cached
        real = sweep_mod._source_digest

        def edited(app_id):
            return real(app_id) + ("-edited" if app_id == "App15" else "")

        monkeypatch.setattr(sweep_mod, "_source_digest", edited)
        outcome = sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)[0]
        assert not outcome.cached
        assert len(ArtifactStore(tmp_path).entries("sweep")) == 2

    def test_stale_pipeline_version_never_served_and_pruned(
        self, tmp_path, clean_batch_cache
    ):
        [outcome] = sweep_environments([self.GROUP], jobs=1)  # memory only
        digests = sorted(batch._source_digest(app_id) for app_id in self.GROUP)
        knobs = {"backend": "auto", "kernel": "auto"}
        ArtifactStore(tmp_path, version="0-stale").put(
            "sweep", artifact_key("sweep", digests, knobs), outcome.environment
        )
        cold = sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)
        assert not cold[0].cached
        assert ArtifactStore(tmp_path).prune() == 1
        assert not (tmp_path / "v0-stale").exists()
        batch.clear_cache()
        assert sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)[0].cached


class TestTiersInStoreCounters:
    def test_warm_sweep_and_fleet_hit_their_store_tiers(
        self, tmp_path, clean_batch_cache
    ):
        """The whole-result tiers count in the one store: a warm sweep
        and a warm fleet screen in a fresh process read every result
        from the ``sweep``/``fleet`` stages and miss nothing below."""
        groups = [("App1", "App15"), ("App16", "App17")]
        profile = FleetProfile(seed=7, templates=4, variants=2)
        options = FleetOptions(jobs=1, cache_dir=str(tmp_path))
        sweep_environments(groups, jobs=1, cache_dir=tmp_path)
        run_fleet(profile, 300, options)

        batch.clear_cache()  # a fresh process: empty memory, zero counters
        warm_sweep = sweep_environments(groups, jobs=1, cache_dir=tmp_path)
        warm_fleet = run_fleet(profile, 300, options)
        counters = pipeline_for(tmp_path).store.counters()
        assert all(outcome.cached for outcome in warm_sweep)
        assert counters["sweep"]["disk_hits"] == len(groups)
        assert warm_fleet.telemetry.fresh_checks == 0
        assert (
            counters["fleet"]["disk_hits"]
            == warm_fleet.telemetry.canonical_distinct
        )
        for stage in ("union", "check"):
            assert counters.get(stage, {}).get("misses", 0) == 0, stage


class TestResolveCacheDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_none_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(None) is None
        monkeypatch.setenv(CACHE_DIR_ENV, "   ")
        assert resolve_cache_dir(None) is None


class TestBatchLayering:
    def test_cold_run_populates_disk(self, tmp_path, clean_batch_cache):
        batch.analyze_batch(["O1", "O2"], jobs=1, cache_dir=tmp_path)
        assert len(ArtifactStore(tmp_path).entries("analysis")) == 2
        info = batch.cache_info()
        assert info["misses"] == 2
        assert info["disk_hits"] == 0

    def test_fresh_process_simulation_hits_disk(
        self, tmp_path, clean_batch_cache, monkeypatch
    ):
        batch.analyze_batch(["O1", "O2"], jobs=1, cache_dir=tmp_path)
        # A fresh process has an empty in-memory cache; analysis must not
        # run again — everything comes off disk.
        batch.clear_cache()

        def boom(*_args, **_kwargs):
            raise AssertionError("analysis re-ran despite a warm disk cache")

        monkeypatch.setattr(batch, "_analyze_one", boom)
        results = batch.analyze_batch(["O1", "O2"], jobs=1, cache_dir=tmp_path)
        assert set(results) == {"O1", "O2"}
        info = batch.cache_info()
        assert info["disk_hits"] == 2
        assert info["misses"] == 0

    def test_memory_layer_preferred_over_disk(self, tmp_path, clean_batch_cache):
        first = batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)["O1"]
        second = batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)["O1"]
        assert first is second  # unpickling would return a new object
        assert batch.cache_info()["memory_hits"] == 1

    def test_cache_dir_env_variable_used(
        self, tmp_path, clean_batch_cache, monkeypatch
    ):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        batch.analyze_batch(["O1"], jobs=1)
        assert len(ArtifactStore(tmp_path).entries("analysis")) == 1

    def test_no_cache_dir_writes_nothing(
        self, tmp_path, clean_batch_cache, monkeypatch
    ):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        batch.analyze_batch(["O1"], jobs=1)
        assert ArtifactStore(tmp_path).entries("analysis") == []

    def test_unwritable_cache_degrades_not_crashes(
        self, tmp_path, clean_batch_cache, monkeypatch
    ):
        # A read-only or full cache volume must not fail the analysis
        # that produced the result — persisting is best-effort.
        def refuse(*_args, **_kwargs):
            raise PermissionError("read-only cache volume")

        monkeypatch.setattr(store_mod, "_write_pickle", refuse)
        results = batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        assert set(results) == {"O1"}
        assert ArtifactStore(tmp_path).entries("analysis") == []

    def test_clear_cache_resets_counters(self, tmp_path, clean_batch_cache):
        batch.analyze_batch(["O1"], jobs=1, cache_dir=tmp_path)
        batch.clear_cache()
        info = batch.cache_info()
        assert info == {
            "entries": 0,
            "hits": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
        }


class TestResolveJobs:
    def test_non_numeric_env_raises_naming_variable(self, monkeypatch):
        monkeypatch.setenv(batch._JOBS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_BATCH_JOBS"):
            batch._resolve_jobs(None, pending=10)

    def test_negative_env_raises_naming_variable(self, monkeypatch):
        monkeypatch.setenv(batch._JOBS_ENV, "-2")
        with pytest.raises(ValueError, match="REPRO_BATCH_JOBS"):
            batch._resolve_jobs(None, pending=10)

    def test_valid_env_respected(self, monkeypatch):
        monkeypatch.setenv(batch._JOBS_ENV, " 3 ")
        assert batch._resolve_jobs(None, pending=10) == 3

    def test_zero_env_means_serial(self, monkeypatch):
        monkeypatch.setenv(batch._JOBS_ENV, "0")
        assert batch._resolve_jobs(None, pending=10) == 1

    def test_explicit_jobs_skip_env(self, monkeypatch):
        monkeypatch.setenv(batch._JOBS_ENV, "garbage")
        assert batch._resolve_jobs(2, pending=10) == 2

    def test_negative_explicit_jobs_raise_like_env(self):
        with pytest.raises(ValueError, match="non-negative"):
            batch._resolve_jobs(-3, pending=10)

    def test_small_pending_forces_serial(self, monkeypatch):
        monkeypatch.delenv(batch._JOBS_ENV, raising=False)
        assert batch._resolve_jobs(8, pending=2) == 1

    def test_min_parallel_override_for_expensive_tasks(self, monkeypatch):
        # The sweep engine pools even two union checks.
        monkeypatch.delenv(batch._JOBS_ENV, raising=False)
        assert batch._resolve_jobs(8, pending=2, min_parallel=2) == 2
