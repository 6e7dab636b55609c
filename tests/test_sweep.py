"""Multi-app sweep engine: candidate enumeration and union sweeps."""

import pytest

from repro.corpus import groundtruth
from repro.corpus.batch import analyze_batch
from repro.corpus.sweep import (
    MODE_CHANNEL,
    SweepOutcome,
    environment_only_ids,
    groups_sharing_devices,
    interaction_channels,
    pairs,
    sweep_dataset,
    sweep_environments,
)
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import ArtifactStore


class TestInteractionChannels:
    def test_shared_handle_is_a_channel(self):
        channels = interaction_channels(["App1", "App15"])
        assert channels["hall_light"] == ("App1", "App15")
        assert channels["motion_sensor"] == ("App1", "App15")

    def test_unshared_handles_are_not_channels(self):
        channels = interaction_channels(["App1", "App2"])
        assert "hall_light" not in channels

    def test_mode_channel_requires_a_writer(self):
        # O30 and O31 both *read* the mode; without a writer in the
        # universe the broadcast connects nobody.
        assert MODE_CHANNEL not in interaction_channels(["O30", "O31"])
        channels = interaction_channels(["O7", "O30", "O31"])
        assert channels[MODE_CHANNEL] == ("O7", "O30", "O31")

    def test_dataset_name_accepted(self):
        channels = interaction_channels("maliot")
        assert channels["hall_light"] == ("App1", "App15")

    def test_mode_usage_in_comments_ignored(self, monkeypatch):
        import repro.corpus.sweep as sweep_mod
        from repro.platform.smartapp import SmartApp

        source = (
            'definition(name: "X")\n'
            'preferences { section("s") { input "sw", "capability.switch" } }\n'
            "// TODO: call setLocationMode when location.mode support lands\n"
            "/* sendLocationEvent would also work */\n"
            'def installed() { subscribe(sw, "switch.on", h) }\n'
            "def h(evt) { sw.off() }\n"
        )
        monkeypatch.setattr(sweep_mod, "load_source", lambda _aid: source)
        monkeypatch.setattr(
            sweep_mod, "load_app", lambda aid: SmartApp.from_source(source, name=aid)
        )
        sweep_mod._app_channels.cache_clear()
        try:
            _handles, reads_mode, writes_mode = sweep_mod._app_channels("Fake1")
            assert not reads_mode
            assert not writes_mode
        finally:
            sweep_mod._app_channels.cache_clear()


class TestPairs:
    def test_maliot_pairs_include_appendix_c_environments(self):
        found = {(a, b) for a, b, _channels in pairs("maliot")}
        assert ("App1", "App15") in found
        assert ("App16", "App17") in found
        assert ("App12", "App13") in found

    def test_pair_channels_reported(self):
        by_pair = {(a, b): ch for a, b, ch in pairs(["App1", "App15"])}
        assert set(by_pair[("App1", "App15")]) == {"hall_light", "motion_sensor"}

    def test_non_sharing_apps_not_paired(self):
        assert list(pairs(["App1", "App2"])) == []

    def test_mode_reader_pairs_need_a_writer(self):
        # O30 and O31 only *read* the mode: the broadcast connects them to
        # the writer O7, never to each other.
        found = {(a, b) for a, b, _ch in pairs(["O7", "O30", "O31"])}
        assert found == {("O7", "O30"), ("O7", "O31")}


class TestGroupsSharingDevices:
    @pytest.mark.parametrize(
        "group", groundtruth.TABLE4_GROUPS, ids=lambda g: g.group_id
    )
    def test_table4_groups_recovered(self, group):
        # Each curated paper group is one interaction cluster: passed as a
        # universe it comes back exactly, as a single component.
        assert groups_sharing_devices(group.apps) == [tuple(group.apps)]

    @pytest.mark.parametrize(
        "env_ids", [ids for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS]
    )
    def test_maliot_environments_recovered(self, env_ids):
        assert groups_sharing_devices(env_ids) == [tuple(env_ids)]

    def test_dataset_enumeration_contains_appendix_c_pair(self):
        assert ("App1", "App15") in groups_sharing_devices("maliot")

    def test_isolated_apps_dropped(self):
        # App3 shares nothing with App1/App15.
        assert groups_sharing_devices(["App1", "App15", "App3"]) == [
            ("App1", "App15")
        ]
        assert groups_sharing_devices(["App1", "App3"]) == []


class TestSweepEnvironments:
    def test_maliot_environments_reveal_paper_properties(self):
        groups = [ids for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS]
        outcomes = sweep_environments(groups, jobs=1)
        assert [o.group for o in outcomes] == [tuple(g) for g in groups]
        for outcome, (_ids, prop) in zip(outcomes, groundtruth.MALIOT_ENVIRONMENTS):
            assert not outcome.failed
            assert prop in outcome.violated_ids(), outcome.group

    def test_table4_sweep_reproduces_paper_totals(self):
        outcomes = sweep_environments(
            [group.apps for group in groundtruth.TABLE4_GROUPS], jobs=1
        )
        confirmed = 0
        for outcome, group in zip(outcomes, groundtruth.TABLE4_GROUPS):
            got = environment_only_ids(outcome.environment)
            assert set(group.violated) <= got, group.group_id
            confirmed += len(got & set(group.violated))
        assert confirmed == groundtruth.TABLE4_PROPERTY_COUNT  # the 11

    def test_sweep_reuses_analyses_without_reparsing(self, monkeypatch):
        from repro.platform.smartapp import SmartApp

        group = tuple(groundtruth.MALIOT_ENVIRONMENTS[1][0])  # App1+App15
        analyze_batch(list(group), jobs=1)  # warm the in-memory cache

        def boom(*_args, **_kwargs):
            raise AssertionError("sweep re-parsed an app source")

        monkeypatch.setattr(SmartApp, "from_source", boom)
        outcomes = sweep_environments([group], jobs=1)
        assert not outcomes[0].failed

    def test_explicit_oversized_group_failed_not_raised(self):
        # Forcing the explicit backend restores the old budget behavior:
        # the group comes back failed (with the error), never raised.
        group = tuple(groundtruth.TABLE4_GROUPS[2].apps)  # G.3: 1536 states
        outcomes = sweep_environments(
            [group], jobs=1, config=CheckConfig("explicit", max_union_states=100)
        )
        assert outcomes[0].failed
        assert outcomes[0].backend is None
        assert "exceed" in outcomes[0].error
        assert outcomes[0].violated_ids() == set()

    def test_auto_backend_checks_oversized_group_symbolically(self):
        # The same group under the same tiny budget is *checked* by the
        # default auto backend — symbolically, with the same violations.
        group = tuple(groundtruth.TABLE4_GROUPS[2].apps)  # G.3: 1536 states
        outcomes = sweep_environments(
            [group], jobs=1, config=CheckConfig(max_union_states=100)
        )
        assert not outcomes[0].failed
        assert outcomes[0].backend == "symbolic"
        assert set(groundtruth.TABLE4_GROUPS[2].violated) <= outcomes[0].violated_ids()

    def test_duplicate_groups_get_one_result_per_input(self):
        # Analyzed once, but the output stays zip-safe with the input.
        group = ("App1", "App15")
        outcomes = sweep_environments([group, group], jobs=1)
        assert len(outcomes) == 2
        assert outcomes[0] is outcomes[1]

    def test_disk_cache_threaded_through(self, tmp_path):
        from repro.corpus import batch

        batch.clear_cache()
        try:
            sweep_environments([("App1", "App15")], jobs=1, cache_dir=tmp_path)
            assert len(ArtifactStore(tmp_path).entries("analysis")) == 2
        finally:
            batch.clear_cache()


class TestSweepCaching:
    def test_budget_partitions_the_sweep_tier(self, tmp_path):
        # Regression: the sweep key left out max_union_states, so a
        # tighter budget was served the default budget's explicit run.
        group = tuple(groundtruth.TABLE4_GROUPS[2].apps)  # G.3: 1536 states
        default = sweep_environments([group], jobs=1, cache_dir=tmp_path)
        assert default[0].backend == "explicit"
        tight = sweep_environments(
            [group], jobs=1, cache_dir=tmp_path,
            config=CheckConfig(max_union_states=100),
        )
        assert not tight[0].cached
        assert tight[0].backend == "symbolic"
        assert tight[0].violated_ids() == default[0].violated_ids()

    def test_warm_sweep_served_from_sweep_cache(self, tmp_path, monkeypatch):
        from repro.corpus import batch, sweep as sweep_mod

        group = ("App1", "App15")
        batch.clear_cache()
        try:
            cold = sweep_environments([group], jobs=1, cache_dir=tmp_path)
            assert not cold[0].cached
            assert len(ArtifactStore(tmp_path).entries("sweep")) == 1

            # A warm run must not build/check any union model — kill the
            # checker to prove the result comes from the sweep cache.
            batch.clear_cache()

            def boom(*_args, **_kwargs):
                raise AssertionError("warm sweep re-checked a union model")

            monkeypatch.setattr(sweep_mod, "union_outcome", boom)
            warm = sweep_environments([group], jobs=1, cache_dir=tmp_path)
            assert warm[0].cached
            assert warm[0].violated_ids() == cold[0].violated_ids()
            assert warm[0].backend == cold[0].backend
        finally:
            batch.clear_cache()

    def test_sweep_cache_key_ignores_member_order(self, tmp_path):
        from repro.corpus import batch

        batch.clear_cache()
        try:
            sweep_environments([("App1", "App15")], jobs=1, cache_dir=tmp_path)
            flipped = sweep_environments(
                [("App15", "App1")], jobs=1, cache_dir=tmp_path
            )
            assert flipped[0].cached
        finally:
            batch.clear_cache()

    def test_failed_outcomes_not_cached(self, tmp_path):
        from repro.corpus import batch

        group = tuple(groundtruth.TABLE4_GROUPS[2].apps)
        batch.clear_cache()
        try:
            outcomes = sweep_environments(
                [group], jobs=1, cache_dir=tmp_path,
                config=CheckConfig("explicit", max_union_states=100),
            )
            assert outcomes[0].failed
            assert ArtifactStore(tmp_path).entries("sweep") == []
        finally:
            batch.clear_cache()


class TestSweepDataset:
    def test_maliot_group_sweep_checks_every_group(self):
        outcomes = sweep_dataset("maliot", jobs=1)
        by_group = {o.group: o for o in outcomes}
        appendix_pair = by_group[("App1", "App15")]
        assert "S.1" in appendix_pair.violated_ids()
        assert appendix_pair.backend == "explicit"  # 4 states: stays explicit
        # The big interaction cluster used to blow the budget and come
        # back skipped; the auto backend now checks it symbolically, and
        # it reveals the co-installation properties (P.3: the
        # App12-App14 smoke/lock chain; P.14: App16+App17's
        # mode-triggered critical-switch kills).
        assert not any(o.failed for o in outcomes)
        cluster = next(o for o in outcomes if len(o.group) > 2)
        assert cluster.backend == "symbolic"
        assert cluster.environment.state_estimate > 10_000
        assert {"P.3", "P.14"} <= cluster.violated_ids()

    def test_maliot_pairwise_sweep(self):
        outcomes = sweep_dataset("maliot", jobs=1, pairwise=True)
        by_group = {o.group: o for o in outcomes}
        assert "P.14" in by_group[("App16", "App17")].violated_ids()
        assert "S.1" in by_group[("App1", "App15")].violated_ids()


class TestSweepOutcome:
    def test_failed_outcome_shape(self):
        outcome = SweepOutcome(group=("A", "B"), environment=None, error="boom")
        assert outcome.failed
        assert outcome.violated_ids() == set()
