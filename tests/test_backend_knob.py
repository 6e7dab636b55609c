"""The backend knob end to end: single apps past the extractor budget,
forced backends on environments and sweeps, and the all-corpus sweep mode.

The symbolic backend's reason to exist is scale: models whose domain
product can never be enumerated.  These tests pin the entry points that
hand such models to the symbolic machinery — ``analyze_app`` (wide single
apps), ``analyze_environment``/``sweep_environments`` (forced backends),
and ``sweep_dataset(all_corpus=True)`` (the 82-app union via the
dataset-level CLI).
"""

import pytest

from repro.cli import main
from repro.corpus.batch import analyze_batch
from repro.corpus.sweep import sweep_dataset, sweep_environments
from repro.model.extractor import StateExplosionError
from repro.pipeline.stages import CheckConfig
from repro.soteria import analyze_app, analyze_environment


def _wide_app(switches: int) -> str:
    """An app over ``switches`` + 2 devices: domain product 2^(n+2)."""
    inputs = "\n".join(
        f'input "sw{i}", "capability.switch"' for i in range(switches)
    )
    offs = "\n".join(f"sw{i}.off()" for i in range(switches))
    return f'''
definition(name: "Wide{switches}")
preferences {{ section("s") {{
{inputs}
    input "ws", "capability.waterSensor"
    input "vd", "capability.valve"
}} }}
def installed() {{ subscribe(ws, "water.wet", h) }}
def h(evt) {{
vd.open()
{offs}
}}
'''


class TestSingleAppSymbolic:
    def test_explicit_backend_still_raises_past_the_budget(self):
        with pytest.raises(StateExplosionError):
            analyze_app(_wide_app(18), backend="explicit")

    def test_auto_falls_back_to_symbolic_past_the_budget(self):
        # 2^20 = 1 048 576 domain-product states: over the 250k extractor
        # budget, unenumerable — and checked anyway.
        analysis = analyze_app(_wide_app(18))
        assert analysis.backend == "symbolic"
        assert analysis.kripke is None
        assert analysis.model.states == []          # never materialized
        assert analysis.state_estimate == 1 << 20
        assert analysis.checked_properties           # CTL ran
        # The water->valve-open hazard is found at any width.
        small = analyze_app(_wide_app(2), backend="explicit")
        assert analysis.violated_ids() == small.violated_ids()

    def test_symbolic_backend_matches_explicit_on_small_apps(self):
        source = _wide_app(3)
        explicit = analyze_app(source, backend="explicit")
        symbolic = analyze_app(source, backend="symbolic")
        assert symbolic.backend == "symbolic"
        assert symbolic.kripke is None
        assert explicit.violated_ids() == symbolic.violated_ids()
        assert explicit.checked_properties == symbolic.checked_properties
        for pid, explicit_results in explicit.check_results.items():
            symbolic_results = symbolic.check_results[pid]
            assert [r.holds for r in explicit_results] == [
                r.holds for r in symbolic_results
            ], pid

    def test_symbolic_skip_of_determinism_check_is_surfaced(self):
        # The explicit path runs DET over the materialized transitions;
        # the symbolic path cannot — that skip must be recorded on the
        # analysis and printed in the report, not silently dropped.
        from repro.reporting.report import render_report

        symbolic = analyze_app(_wide_app(18))
        assert symbolic.backend == "symbolic"
        assert symbolic.skipped_properties == ["DET"]
        assert (
            "skipped checks (symbolic backend): DET"
            in render_report(symbolic)
        )
        explicit = analyze_app(_wide_app(2), backend="explicit")
        assert explicit.skipped_properties == []
        assert "skipped checks" not in render_report(explicit)

    @pytest.mark.parametrize(
        ("knob", "value", "error", "message", "cli_message"),
        [
            ("backend", "quantum", ValueError, "unknown backend 'quantum'; "
             "expected one of auto, explicit, symbolic", "invalid choice"),
            ("backend", "bmc", ValueError, "unknown backend 'bmc'; expected "
             "one of auto, explicit, symbolic", "invalid choice"),
            ("backend", "portfolio", ValueError, "unknown backend "
             "'portfolio'; expected one of auto, explicit, symbolic",
             "invalid choice"),
            ("kernel", "zdd", ValueError, "unknown kernel 'zdd': expected "
             "one of auto, reference, fast", "invalid choice"),
            # The retired relation-encoding knob is no knob at all.
            ("encoding", "partitioned", TypeError, "{fn}() got an "
             "unexpected keyword argument 'encoding'",
             "unrecognized arguments: --encoding partitioned"),
        ],
        ids=["backend", "backend-bmc", "backend-portfolio", "kernel",
             "encoding-removed"],
    )
    def test_unknown_knob_rejected(
        self, knob, value, error, message, cli_message, capsys
    ):
        # CheckConfig validates on construction, so the facade and every
        # driver built on it reject a misspelled knob the same way.
        with pytest.raises(error) as config_error:
            CheckConfig(**{knob: value})
        with pytest.raises(error) as facade_error:
            analyze_app(_wide_app(2), **{knob: value})
        assert str(config_error.value) == message.format(fn="CheckConfig.__init__")
        assert str(facade_error.value) == message.format(fn="analyze_app")
        # The CLI rejects it as a usage error (exit 2).
        with pytest.raises(SystemExit) as cli_exit:
            main(["env", "a.groovy", "b.groovy", f"--{knob}", value])
        assert cli_exit.value.code == 2
        assert cli_message in capsys.readouterr().err

    def test_report_names_the_backend_and_exports_are_guarded(
        self, tmp_path, capsys
    ):
        # The symbolic fallback has no materialized transitions: the
        # report must say so (not "states: 0"), and --dot/--smv must
        # refuse to write empty artifacts.
        app = tmp_path / "wide.groovy"
        app.write_text(_wide_app(18))
        dot, smv = tmp_path / "w.dot", tmp_path / "w.smv"
        code = main(
            ["analyze", str(app), "--dot", str(dot), "--smv", str(smv)]
        )
        out = capsys.readouterr().out
        assert code == 1                       # the hazard is still found
        assert "symbolic backend" in out
        assert "states: 1048576" in out        # estimate, not a bogus 0
        assert out.count("NOT written") == 2
        assert not dot.exists() and not smv.exists()


class TestEnvironmentBackendKnob:
    GROUP = ("App12", "App13", "App14")  # MalIoT smoke/lock chain

    def _members(self):
        analyses = analyze_batch(list(self.GROUP), jobs=1)
        return [analyses[a] for a in self.GROUP]

    def test_encoding_is_derived_from_the_backend(self):
        members = self._members()
        explicit = analyze_environment(list(members), backend="explicit")
        assert explicit.encoding is None            # no relation encoded
        run = analyze_environment(list(members), backend="symbolic")
        assert run.encoding == "partitioned"
        assert run.violated_ids() == explicit.violated_ids()

    def test_sweep_cache_keyed_on_backend(self, tmp_path):
        # A forced-backend validation run must never be served a result
        # the auto path produced (it would silently skip the checker
        # under test and mislabel the output).
        first = sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)
        assert not first[0].cached
        assert first[0].environment.backend == "explicit"
        warm = sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)
        assert warm[0].cached
        symbolic = CheckConfig("symbolic")
        forced = sweep_environments(
            [self.GROUP], jobs=1, cache_dir=tmp_path, config=symbolic
        )
        assert not forced[0].cached
        assert forced[0].environment.backend == "symbolic"
        assert forced[0].violated_ids() == warm[0].violated_ids()
        # ... and the forced run caches under its own key.
        forced_warm = sweep_environments(
            [self.GROUP], jobs=1, cache_dir=tmp_path, config=symbolic
        )
        assert forced_warm[0].cached

    def test_member_analyses_inherit_forced_knobs(self):
        # Regression: analyze_environment(sources, backend=...)
        # used to analyze raw-source members with the *default* knobs —
        # a forced-symbolic environment run silently built each member's
        # explicit model anyway.
        from repro.corpus.loader import load_source

        sources = [load_source(app_id) for app_id in self.GROUP]
        env = analyze_environment(sources, backend="symbolic")
        assert env.backend == "symbolic"
        for member in env.analyses:
            assert member.backend == "symbolic"
            assert member.kripke is None
            assert member.model.states == []  # skeleton, never materialized
            # ... and the silently-unrunnable determinism check is now
            # surfaced instead of dropped.
            assert member.skipped_properties == ["DET"]

    def test_sweep_threads_backend_to_every_group(self):
        outcomes = sweep_environments(
            [self.GROUP], jobs=1, config=CheckConfig("symbolic")
        )
        (outcome,) = outcomes
        assert outcome.environment.backend == "symbolic"
        assert outcome.environment.encoding == "partitioned"
        reference = sweep_environments([self.GROUP], jobs=1)
        assert outcome.violated_ids() == reference[0].violated_ids()


class TestAllCorpusSweep:
    def test_all_corpus_is_one_union_of_the_whole_dataset(self):
        outcomes = sweep_dataset(
            "maliot", jobs=1, all_corpus=True, config=CheckConfig("symbolic")
        )
        (outcome,) = outcomes
        assert len(outcome.group) == 17             # every MalIoT app
        assert not outcome.failed                   # no skip, no bailout
        environment = outcome.environment
        assert environment.backend == "symbolic"
        assert environment.union_model.states == [] # never materialized
        # The curated in-cluster ground truth survives at dataset scale.
        assert {"P.3", "P.14"} <= environment.violated_ids()

    def test_cli_all_corpus_flag(self, capsys):
        code = main(
            ["sweep", "maliot", "--all-corpus", "--jobs", "1",
             "--backend", "symbolic"]
        )
        out = capsys.readouterr().out
        assert code == 1                            # violations found
        assert "all-corpus union" in out
        assert "(17 apps)" in out
        assert "[symbolic/partitioned/fast]" in out
        assert "0 failed" in out

