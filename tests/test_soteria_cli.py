"""Orchestrator and command-line interface."""

import pytest

from repro import analyze_app, analyze_environment
from repro.cli import main

GOOD = '''
definition(name: "Good")
preferences { section("s") {
    input "ws", "capability.waterSensor"
    input "vd", "capability.valve"
} }
def installed() { subscribe(ws, "water.wet", h) }
def h(evt) { vd.close() }
'''

BAD = GOOD.replace("close()", "open()").replace('"Good"', '"Bad"')


class TestOrchestrator:
    def test_analysis_artifacts(self):
        analysis = analyze_app(GOOD)
        assert analysis.ir.devices()
        assert analysis.model.size() == 4
        assert analysis.kripke.states
        assert analysis.timings.keys() >= {"ir", "model", "kripke", "properties"}

    def test_violated_ids_empty_for_clean_app(self):
        assert analyze_app(GOOD).violated_ids() == set()

    def test_check_results_recorded(self):
        analysis = analyze_app(GOOD)
        assert "P.30" in analysis.check_results
        assert all(r.holds for r in analysis.check_results["P.30"])

    def test_environment_combines_apps(self):
        env = analyze_environment([GOOD, BAD])
        assert env.union_model.apps == ["Good", "Bad"]
        assert {"P.30", "P.11"} <= env.violated_ids()

    def test_environment_accepts_preanalyzed(self):
        env = analyze_environment([analyze_app(GOOD), analyze_app(BAD)])
        assert len(env.analyses) == 2

    def test_multi_app_violations_filter(self):
        env = analyze_environment([GOOD, BAD])
        for violation in env.multi_app_violations():
            assert len(violation.apps) > 1


class TestCli:
    def test_analyze_clean_app_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "good.groovy"
        path.write_text(GOOD)
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "all checked properties HOLD" in captured.out

    def test_analyze_bad_app_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.groovy"
        path.write_text(BAD)
        code = main(["analyze", str(path)])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_dot_and_smv_outputs(self, tmp_path, capsys):
        app = tmp_path / "good.groovy"
        app.write_text(GOOD)
        dot = tmp_path / "model.dot"
        smv = tmp_path / "model.smv"
        main(["analyze", str(app), "--dot", str(dot), "--smv", str(smv)])
        assert dot.read_text().startswith("digraph")
        assert smv.read_text().startswith("MODULE main")

    def test_env_command(self, tmp_path, capsys):
        a = tmp_path / "a.groovy"
        b = tmp_path / "b.groovy"
        a.write_text(GOOD)
        b.write_text(BAD)
        code = main(["env", str(a), str(b)])
        assert code == 1
        assert "multi-app analysis" in capsys.readouterr().out

    def test_list_properties(self, capsys):
        code = main(["list-properties"])
        out = capsys.readouterr().out
        assert code == 0
        assert "S.1" in out and "P.30" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestJobsFlag:
    @pytest.mark.parametrize(
        "command",
        [
            ["corpus", "maliot"],
            ["sweep", "maliot"],
            ["fuzz", "--count", "1"],
            ["fleet", "--households", "10", "--templates", "1"],
        ],
        ids=lambda command: command[0],
    )
    def test_negative_jobs_is_a_usage_error(self, command, capsys):
        # Exit 1 means "violations found"; a bad flag must not look like
        # a finding (or run serially as if it were valid).
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", "-1"])
        assert exc.value.code == 2
        assert "--jobs: must be non-negative" in capsys.readouterr().err


class TestCorpusCli:
    def test_violating_dataset_exits_one(self, capsys):
        # MalIoT apps violate individually (Appendix C): like `analyze`
        # and `env`, `corpus` must signal findings in its exit status.
        code = main(["corpus", "maliot", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATIONS" in out

    def test_clean_dataset_exits_zero(self, capsys):
        # All 35 official apps verify clean individually (Table 2).
        code = main(["corpus", "official", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 app(s) with violations" in out

    def test_cache_dir_flag_persists_analyses(self, tmp_path, capsys):
        from repro.pipeline.store import ArtifactStore

        code = main(
            ["corpus", "maliot", "--jobs", "1", "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert len(ArtifactStore(tmp_path).entries("analysis")) == 17


class TestCacheCli:
    def test_no_cache_dir_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["cache"])
        assert code == 2
        assert "cache directory" in capsys.readouterr().err

    def test_reports_per_stage_entries_and_bytes(self, tmp_path, capsys):
        from repro.corpus.loader import load_app
        from repro.pipeline.runner import Pipeline
        from repro.pipeline.store import ArtifactStore

        Pipeline(ArtifactStore(tmp_path)).app_analysis(load_app("O1"))
        code = main(["cache", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "staged artifact cache" in out
        for stage in ("ir", "model", "kripke", "check"):
            assert f"\n  {stage}" in out
        assert "total" in out

    def test_lists_the_fleet_tiers(self, tmp_path, capsys):
        from repro.fleet.driver import FleetOptions, run_fleet
        from repro.fleet.profiles import FleetProfile

        profile = FleetProfile(seed=7, templates=2, variants=2)
        run_fleet(profile, 20, FleetOptions(jobs=1, cache_dir=str(tmp_path)))
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # Display follows STAGE_ORDER: member shapes, then verdicts.
        assert out.index("\n  shape") < out.index("\n  fleet")

    def test_cache_dir_env_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert str(tmp_path) in out
        assert "(empty)" in out

    def test_clear_empties_the_store(self, tmp_path, capsys):
        from repro.corpus.loader import load_app
        from repro.pipeline.runner import Pipeline
        from repro.pipeline.store import ArtifactStore

        Pipeline(ArtifactStore(tmp_path)).app_analysis(load_app("O1"))
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        capsys.readouterr()
        main(["cache", "--cache-dir", str(tmp_path)])
        assert "(empty)" in capsys.readouterr().out


class TestServeCli:
    def test_serve_flags_reach_the_service(self, monkeypatch):
        import repro.cli as cli_mod

        captured = {}

        def fake_serve(**kwargs):
            captured.update(kwargs)

        monkeypatch.setattr("repro.service.app.serve", fake_serve)
        code = cli_mod.main(
            ["serve", "--host", "0.0.0.0", "--port", "0", "--jobs", "3",
             "--cache-dir", "/tmp/c", "--state-dir", "/tmp/s",
             "--pool", "thread", "--max-pending", "8",
             "--tenant-quota", "4", "--job-ttl", "3600"]
        )
        assert code == 0
        assert captured == {
            "host": "0.0.0.0", "port": 0, "jobs": 3,
            "cache_dir": "/tmp/c", "state_dir": "/tmp/s", "pool": "thread",
            "max_pending": 8, "tenant_quota": 4, "job_ttl": 3600.0,
        }

    def test_serve_defaults_to_the_process_pool(self, monkeypatch):
        import repro.cli as cli_mod

        captured = {}

        def fake_serve(**kwargs):
            captured.update(kwargs)

        monkeypatch.setattr("repro.service.app.serve", fake_serve)
        assert cli_mod.main(["serve", "--port", "0"]) == 0
        assert captured["pool"] == "process"
        assert captured["job_ttl"] is None


class TestSweepCli:
    def test_sweep_maliot_finds_environment_violations(self, tmp_path, capsys):
        code = main(
            ["sweep", "maliot", "--jobs", "1", "--cache-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "App1+App15" in out
        assert "environment-only: S.1" in out
        # The 13-app interaction cluster (82 944 states) used to be
        # skipped for size; the auto backend now checks it symbolically.
        assert "skipped" not in out
        assert "0 failed" in out
        assert "[symbolic/partitioned/fast]" in out  # the 13-app cluster
        assert "environment-only: P.14, P.3" in out

    def test_sweep_warm_cache_run_matches(self, tmp_path, capsys):
        main(["sweep", "maliot", "--jobs", "1", "--cache-dir", str(tmp_path)])
        first = capsys.readouterr().out
        from repro.corpus import batch

        batch.clear_cache()  # simulate a fresh process: disk must carry it
        try:
            code = main(
                ["sweep", "maliot", "--jobs", "1", "--cache-dir", str(tmp_path)]
            )
        finally:
            batch.clear_cache()
        second = capsys.readouterr().out
        assert code == 1
        assert second == first

    def test_sweep_pairs_mode(self, capsys):
        code = main(["sweep", "maliot", "--jobs", "1", "--pairs"])
        out = capsys.readouterr().out
        assert code == 1
        assert "App16+App17" in out

    def test_sweep_all_failed_signals_incomplete(self, capsys):
        # Nothing violated because nothing was successfully *checked*:
        # that must not look like a clean exit to a CI gate.  Forcing the
        # explicit backend under an impossible budget fails every group.
        code = main(
            ["sweep", "maliot", "--jobs", "1", "--max-states", "1",
             "--backend", "explicit"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "FAILED" in out
        assert "0 environment(s) with violations, 2 failed" in out

    def test_sweep_symbolic_backend_flag(self, capsys):
        code = main(
            ["sweep", "maliot", "--jobs", "1", "--pairs",
             "--backend", "symbolic"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "[symbolic/partitioned/fast]" in out
        assert "App16+App17" in out


class TestFleetCli:
    def test_fleet_screen_reports_and_writes_feeds(self, tmp_path, capsys):
        telemetry_path = tmp_path / "telemetry.json"
        blocklist_path = tmp_path / "blocklist.json"
        code = main(
            ["fleet", "--households", "200", "--templates", "3",
             "--variants", "2", "--seed", "5", "--jobs", "1",
             "--telemetry-out", str(telemetry_path),
             "--blocklist-out", str(blocklist_path)]
        )
        out = capsys.readouterr().out
        # The generator's benign fragments still race in unions, so a
        # real profile always screens dirty.
        assert code == 1
        assert "200 household(s) screened" in out
        assert "cache hit rate" in out
        assert "blocklist:" in out
        import json

        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["households"] == 200
        assert 0.0 <= telemetry["hit_rate"] <= 1.0
        feed = json.loads(blocklist_path.read_text())
        assert feed["schema"] == 1
        assert feed["entries"]

    def _patched_exit(self, monkeypatch, violating: int, failed: int) -> int:
        import repro.fleet.driver as driver_mod
        from repro.fleet.driver import FleetResult
        from repro.fleet.telemetry import FleetTelemetry

        def fake_run_fleet(profile, count, options=None):
            telemetry = FleetTelemetry(
                households=count,
                violating_households=violating,
                failed_households=failed,
            )
            return FleetResult(
                telemetry=telemetry,
                blocklist={"schema": 1, "entries": []},
            )

        monkeypatch.setattr(driver_mod, "run_fleet", fake_run_fleet)
        return main(["fleet", "--households", "10"])

    def test_clean_fleet_exits_zero(self, monkeypatch, capsys):
        assert self._patched_exit(monkeypatch, violating=0, failed=0) == 0
        assert "0 violating" not in capsys.readouterr().err

    def test_failed_only_fleet_exits_three(self, monkeypatch, capsys):
        # An incomplete screen must not look clean to a CI gate —
        # same convention as ``soteria sweep``.
        assert self._patched_exit(monkeypatch, violating=0, failed=4) == 3
        capsys.readouterr()

    def test_violations_trump_failures(self, monkeypatch, capsys):
        assert self._patched_exit(monkeypatch, violating=2, failed=4) == 1
        capsys.readouterr()
