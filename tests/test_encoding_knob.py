"""The encoding/backend knobs end to end: single apps past the extractor
budget, the all-corpus sweep mode, and the fuzz driver's encoding axis.

The partitioned encoding's reason to exist is scale: models whose domain
product can never be enumerated.  These tests pin the three entry points
that hand such models to the symbolic machinery — ``analyze_app`` (wide
single apps), ``sweep_dataset(all_corpus=True)`` (the 82-app union via
the dataset-level CLI), and ``repro.corpus.fuzz`` (the differential
campaign cross-checking encodings).
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
        ("knob", "value", "message"),
        [
            ("backend", "quantum", "unknown backend 'quantum'; expected one "
             "of auto, explicit, symbolic"),
            ("backend", "bmc", "unknown backend 'bmc'; expected one "
             "of auto, explicit, symbolic"),
            ("backend", "portfolio", "unknown backend 'portfolio'; expected "
             "one of auto, explicit, symbolic"),
            ("encoding", "fused", "unknown encoding 'fused'; expected one "
             "of auto, monolithic, partitioned"),
            ("kernel", "zdd", "unknown kernel 'zdd': expected one of auto, "
             "reference, fast"),
        ],
        ids=["backend", "backend-bmc", "backend-portfolio", "encoding", "kernel"],
    )
    def test_unknown_knob_rejected(self, knob, value, message, capsys):
        # CheckConfig validates on construction, so the facade and every
        # driver built on it reject a misspelled knob the same way.
        with pytest.raises(ValueError) as config_error:
            CheckConfig(**{knob: value})
        with pytest.raises(ValueError) as facade_error:
            analyze_app(_wide_app(2), **{knob: value})
        assert str(config_error.value) == str(facade_error.value) == message
        # The CLI flag's choices reject it as a usage error (exit 2).
        with pytest.raises(SystemExit) as cli_exit:
            main(["env", "a.groovy", "b.groovy", f"--{knob}", value])
        assert cli_exit.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

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


class TestEnvironmentEncodingKnob:
    GROUP = ("App12", "App13", "App14")  # MalIoT smoke/lock chain

    def _members(self):
        analyses = analyze_batch(list(self.GROUP), jobs=1)
        return [analyses[a] for a in self.GROUP]

    def test_encoding_recorded_and_forced(self):
        members = self._members()
        explicit = analyze_environment(list(members), backend="explicit")
        assert explicit.encoding is None            # no relation encoded
        for encoding in ("monolithic", "partitioned"):
            run = analyze_environment(
                list(members), backend="symbolic", encoding=encoding
            )
            assert run.encoding == encoding
            assert run.violated_ids() == explicit.violated_ids()

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError):
            analyze_environment(
                self._members(), backend="symbolic", encoding="fused"
            )

    def test_bogus_encoding_rejected_even_when_explicit_resolves(self):
        # A typo must fail fast, not silently succeed because this
        # particular group happened to stay under the explicit budget.
        with pytest.raises(ValueError):
            analyze_environment(self._members(), encoding="partitoned")
        with pytest.raises(ValueError):
            analyze_app(_wide_app(2), encoding="partitoned")

    def test_sweep_cache_keyed_on_backend_and_encoding(self, tmp_path):
        # A forced-encoding validation run must never be served a result
        # the auto path produced (it would silently skip the encoder
        # under test and mislabel the output).
        first = sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)
        assert not first[0].cached
        warm = sweep_environments([self.GROUP], jobs=1, cache_dir=tmp_path)
        assert warm[0].cached
        partitioned = CheckConfig("symbolic", encoding="partitioned")
        forced = sweep_environments(
            [self.GROUP], jobs=1, cache_dir=tmp_path, config=partitioned
        )
        assert not forced[0].cached
        assert forced[0].environment.encoding == "partitioned"
        assert forced[0].violated_ids() == warm[0].violated_ids()
        # ... and the forced run caches under its own key.
        forced_warm = sweep_environments(
            [self.GROUP], jobs=1, cache_dir=tmp_path, config=partitioned
        )
        assert forced_warm[0].cached

    def test_member_analyses_inherit_forced_knobs(self):
        # Regression: analyze_environment(sources, backend=..., encoding=...)
        # used to analyze raw-source members with the *default* knobs —
        # a forced-symbolic environment run silently built each member's
        # explicit model anyway.
        from repro.corpus.loader import load_source

        sources = [load_source(app_id) for app_id in self.GROUP]
        env = analyze_environment(
            sources, backend="symbolic", encoding="partitioned"
        )
        assert env.backend == "symbolic"
        for member in env.analyses:
            assert member.backend == "symbolic"
            assert member.kripke is None
            assert member.model.states == []  # skeleton, never materialized
            # ... and the silently-unrunnable determinism check is now
            # surfaced instead of dropped.
            assert member.skipped_properties == ["DET"]

    def test_sweep_threads_encoding_to_every_group(self):
        outcomes = sweep_environments(
            [self.GROUP], jobs=1,
            config=CheckConfig("symbolic", encoding="partitioned"),
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
             "--backend", "symbolic", "--encoding", "partitioned"]
        )
        out = capsys.readouterr().out
        assert code == 1                            # violations found
        assert "all-corpus union" in out
        assert "(17 apps)" in out
        assert "[symbolic/partitioned/fast]" in out
        assert "0 failed" in out


class TestFuzzEncodingAxis:
    def test_campaign_cross_checks_both_encodings(self):
        from repro.corpus.fuzz import FuzzConfig, run_fuzz

        report = run_fuzz(
            seed=11, count=3, jobs=1, config=FuzzConfig(encoding="both")
        )
        assert report.config.encoding == "both"
        assert report.ok, [r.detail for r in report.failures()]

    def test_reproducer_records_the_encoding(self, tmp_path):
        import json

        from repro.corpus.fuzz import CaseResult, FuzzConfig, write_reproducer

        result = CaseResult(
            index=0, kind="app", app_ids=("GenX",), sources=("src",),
            injected=(), detected=(), status="mismatch", detail="d",
        )
        directory = write_reproducer(
            result, FuzzConfig(encoding="both"), tmp_path
        )
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["config"]["encoding"] == "both"
