"""Staged pipeline artifacts: keying, the two-layer store, and reuse.

The refactor's contract is *stage-level* reuse: an environment analysis
re-runs zero per-app stages for members that were already analyzed, a
re-check with a different property catalog replays the cached model
artifacts, and a fresh process replays every stage from the disk layer
without a single miss.  Each of those is pinned here by killing the
stage functions and watching the store counters.
"""

import dataclasses

import pytest

from repro.corpus.loader import load_app
from repro.pipeline import stages
from repro.pipeline.runner import Pipeline, default_pipeline, pipeline_for
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import (
    PIPELINE_VERSION,
    ArtifactStore,
    artifact_key,
)
from repro.properties.appspecific import APP_SPECIFIC_PROPERTIES
from repro.properties.catalog import PropertyCatalog


def _boom_per_app_stages(monkeypatch):
    """Kill every per-app stage function: cached artifacts or bust."""
    for name in ("run_parse", "run_ir", "run_model", "run_app_check"):
        def boom(*_args, _name=name, **_kwargs):
            raise AssertionError(f"per-app stage {_name} re-ran")

        monkeypatch.setattr(stages, name, boom)


class TestArtifactKey:
    def test_deterministic_and_knob_sensitive(self):
        base = artifact_key("model", ["k1"], {"form": "materialized"})
        assert base == artifact_key("model", ["k1"], {"form": "materialized"})
        assert base != artifact_key("model", ["k1"], {"form": "skeleton"})
        assert base != artifact_key("model", ["k2"], {"form": "materialized"})
        assert base != artifact_key("check", ["k1"], {"form": "materialized"})

    def test_input_order_is_meaning_bearing(self):
        # Union members are positional: (A, B) is not (B, A).
        assert artifact_key("union", ["a", "b"]) != artifact_key("union", ["b", "a"])

    def test_knob_order_is_not(self):
        assert artifact_key("check", ["k"], {"a": 1, "b": 2}) == artifact_key(
            "check", ["k"], {"b": 2, "a": 1}
        )

    def test_version_partitions_the_keyspace(self):
        assert artifact_key("parse", ["d"], version="4") != artifact_key(
            "parse", ["d"], version="5"
        )

    def test_check_config_key_covers_every_field(self):
        # Every cache tier digests CheckConfig.key(): a field it left out
        # would let differently configured checks share artifacts.  A new
        # field fails here until it gets a changed value below.
        base = CheckConfig()
        changed = {
            "backend": "symbolic",
            "kernel": "reference",
            "max_union_states": 100,
        }
        for field in dataclasses.fields(CheckConfig):
            other = dataclasses.replace(base, **{field.name: changed[field.name]})
            assert other.key() != base.key(), field.name


class TestArtifactStore:
    def test_memory_round_trip_and_counters(self):
        store = ArtifactStore()  # memory-only
        assert store.get("model", "k") is None
        store.put("model", "k", {"x": 1})
        assert store.get("model", "k") == {"x": 1}
        counts = store.counters()["model"]
        assert counts["misses"] == 1
        assert counts["memory_hits"] == 1
        assert counts["writes"] == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        ArtifactStore(tmp_path).put("ir", "k", [1, 2, 3])
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("ir", "k") == [1, 2, 3]
        assert fresh.counters()["ir"]["disk_hits"] == 1
        assert fresh.path_for("ir", "k").exists()
        assert fresh.path_for("ir", "k").parent.name == "ir"
        assert fresh.version_dir.name == f"v{PIPELINE_VERSION}"

    def test_memory_only_artifacts_never_touch_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("check", "k", "volatile", memory_only=True)
        assert store.get("check", "k") == "volatile"
        assert not store.contains_disk("check", "k")
        assert ArtifactStore(tmp_path).get("check", "k") is None

    def test_corrupt_entry_is_a_deleted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("model", "k", "good")
        path = store.path_for("model", "k")
        path.write_bytes(b"not a pickle")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("model", "k") is None
        assert not path.exists()  # cleaned up for the next write

    def test_mistyped_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("model", "k", "a string")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("model", "k", expected=dict) is None

    def test_memory_layer_is_a_bounded_lru(self):
        store = ArtifactStore(max_memory_entries=2)
        store.put("parse", "a", 1)
        store.put("parse", "b", 2)
        assert store.get("parse", "a") == 1  # touch: a is now most recent
        store.put("parse", "c", 3)           # evicts b
        assert store.get("parse", "b") is None
        assert store.get("parse", "a") == 1
        assert store.get("parse", "c") == 3

    def test_clear_disk_and_prune(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("model", "k", 1)
        stale = ArtifactStore(tmp_path, version="0")
        stale.put("model", "k", 1)
        assert store.prune() == 1          # reclaims v0, keeps current
        assert store.get("model", "k") == 1
        assert store.clear_disk() == 1
        assert ArtifactStore(tmp_path).get("model", "k") is None

    def test_cache_info_shape(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("model", "k", {"x": 1})
        store.get("model", "k")
        store.get("model", "missing")
        info = store.cache_info()
        assert info["root"] == str(tmp_path)
        assert info["version"] == PIPELINE_VERSION
        stats = info["stages"]["model"]
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1


class TestStageReuse:
    def test_environment_reruns_zero_per_app_stages(self, monkeypatch):
        # The acceptance criterion of the refactor: after analyzing an
        # app, an environment analysis containing it replays the member's
        # parse/ir/model/check artifacts — only union-level stages run.
        pipeline = Pipeline()
        members = [load_app("App1"), load_app("App15")]
        for app in members:
            pipeline.app_analysis(app)
        _boom_per_app_stages(monkeypatch)
        env = pipeline.environment_analysis(list(members))
        assert "S.1" in env.violated_ids()  # Appendix C ground truth

    def test_recheck_with_new_catalog_reuses_model_stage(self, monkeypatch):
        # Changing the property catalog changes only the check key: the
        # expensive parse/ir/model/kripke artifacts replay from the store.
        pipeline = Pipeline()
        app = load_app("App1")
        baseline = pipeline.app_analysis(app)
        assert "P.2" in baseline.violated_ids()
        for name in ("run_parse", "run_ir", "run_model", "run_kripke"):
            def boom(*_args, _name=name, **_kwargs):
                raise AssertionError(f"model-side stage {_name} re-ran")

            monkeypatch.setattr(stages, name, boom)
        trimmed = PropertyCatalog(
            specs=[s for s in APP_SPECIFIC_PROPERTIES if s.id != "P.2"]
        )
        rerun = pipeline.app_analysis(app, catalog=trimmed)
        assert "P.2" not in rerun.checked_properties
        assert "P.2" not in rerun.violated_ids()

    def test_fresh_process_replays_everything_from_disk(self, tmp_path):
        Pipeline(ArtifactStore(tmp_path)).app_analysis(load_app("O1"))

        warm_store = ArtifactStore(tmp_path)  # simulates a new process
        warm = Pipeline(warm_store).app_analysis(load_app("O1"))
        assert warm.violated_ids() == set()  # O1 is clean (Table 2)
        counters = warm_store.counters()
        assert sum(c["misses"] for c in counters.values()) == 0
        assert sum(c["disk_hits"] for c in counters.values()) >= 3  # ir/model/…

    def test_identical_rerun_is_all_memory_hits(self):
        store = ArtifactStore()
        pipeline = Pipeline(store)
        app = load_app("TP3")
        first = pipeline.app_analysis(app)
        before = store.counters()
        second = pipeline.app_analysis(app)
        after = store.counters()
        assert second.violated_ids() == first.violated_ids() == {"S.4"}
        for stage, counts in after.items():
            assert counts["misses"] == before.get(stage, counts)["misses"], stage

    def test_backend_knob_misses_only_the_model_side(self):
        # Forcing the symbolic backend on an already-analyzed app reuses
        # parse and ir; only the (skeleton) model and its check are new.
        store = ArtifactStore()
        pipeline = Pipeline(store)
        app = load_app("App1")
        explicit = pipeline.app_analysis(app)
        before = store.counters()
        symbolic = pipeline.app_analysis(app, config=CheckConfig("symbolic"))
        after = store.counters()
        assert symbolic.backend == "symbolic"
        assert symbolic.violated_ids() == explicit.violated_ids()
        assert after["ir"]["misses"] == before["ir"]["misses"]
        assert after["model"]["misses"] == before["model"]["misses"] + 1
        assert after["check"]["misses"] == before["check"]["misses"] + 1

    def test_explicit_budget_raises_even_on_warm_union_cache(self):
        # The union for these members is cached by the first call; a
        # later explicit run under a tighter budget must still raise the
        # cold path's StateExplosionError, never serve the cached union.
        from repro.model.extractor import StateExplosionError

        pipeline = Pipeline()
        members = [load_app("App1"), load_app("App15")]
        env = pipeline.environment_analysis(list(members))
        assert env.backend == "explicit"
        with pytest.raises(StateExplosionError):
            pipeline.environment_analysis(
                list(members), config=CheckConfig("explicit", max_union_states=1)
            )

    def test_member_db_provenance_keys_union_artifacts(self, tmp_path):
        # An analysis records the capability-db token it ran under, so a
        # member precomputed with a custom database never aliases the
        # default database's model/union keys — and union artifacts
        # derived from it stay out of the disk layer.
        import copy

        from repro.platform.capabilities import default_database

        store = ArtifactStore(tmp_path)
        pipeline = Pipeline(store)
        custom = copy.deepcopy(default_database())
        member = pipeline.app_analysis(load_app("App1"), db=custom)
        default_member = pipeline.app_analysis(load_app("App1"))
        assert member.db_token != "default"
        assert default_member.db_token == "default"
        assert pipeline._model_key_for(member) != pipeline._model_key_for(
            default_member
        )
        pipeline.environment_analysis([member, load_app("App15")])
        assert store.entries("union") == []

    def test_custom_db_stays_out_of_the_disk_layer(self, tmp_path):
        # Keys derived from a process-local capability database mean
        # nothing to another process: they must never be persisted.
        import copy

        from repro.platform.capabilities import default_database

        store = ArtifactStore(tmp_path)
        custom = copy.deepcopy(default_database())
        Pipeline(store).app_analysis(load_app("O1"), db=custom)
        assert store.entries("ir") == []
        assert store.entries("model") == []
        assert store.entries("check") == []


class TestSharedPipelines:
    def test_default_pipeline_is_memory_only_and_shared(self):
        assert default_pipeline() is default_pipeline()
        assert default_pipeline().store.root is None

    def test_pipeline_per_cache_root(self, tmp_path):
        a = pipeline_for(tmp_path / "a")
        b = pipeline_for(tmp_path / "b")
        assert a is not b
        assert a is pipeline_for(tmp_path / "a")
        assert a.store.root == tmp_path / "a"

    def test_facade_reuse_without_reanalysis(self, monkeypatch):
        # repro.analyze_app / analyze_environment are thin wrappers over
        # the shared memory-only pipeline: analyses made through one are
        # visible to the other.
        from repro.soteria import analyze_app, analyze_environment

        members = [load_app("App1"), load_app("App15")]
        for app in members:
            analyze_app(app)
        _boom_per_app_stages(monkeypatch)
        env = analyze_environment(list(members))
        assert "S.1" in env.violated_ids()
