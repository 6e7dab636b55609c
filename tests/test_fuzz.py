"""Differential fuzz driver: determinism, oracles, reproducers, CLI."""

import json

import pytest

from repro.cli import main
from repro.corpus.fuzz import (
    CaseResult,
    FuzzConfig,
    replay,
    run_fuzz,
    write_reproducer,
)
from repro.gen import generate_app

#: One small campaign reused across tests (results are deterministic, so
#: a module-scoped run keeps tier-1 cheap).
SEED, COUNT = 0, 5


@pytest.fixture(scope="module")
def campaign():
    return run_fuzz(seed=SEED, count=COUNT, jobs=1)


class TestCampaign:
    def test_every_case_passes_both_oracles(self, campaign):
        assert [r.status for r in campaign.results] == ["ok"] * COUNT
        assert campaign.ok

    def test_detection_rate_meets_the_bar(self, campaign):
        assert campaign.injected_total() > 0
        assert campaign.detection_rate() >= 0.95

    def test_results_in_case_order(self, campaign):
        assert [r.index for r in campaign.results] == list(range(COUNT))

    def test_rerun_is_identical(self, campaign):
        again = run_fuzz(seed=SEED, count=COUNT, jobs=1)
        for first, second in zip(campaign.results, again.results):
            assert first.sources == second.sources  # byte-identical
            assert first.app_ids == second.app_ids
            assert (first.status, first.injected, first.detected) == (
                second.status,
                second.injected,
                second.detected,
            )

    def test_jobs_do_not_change_verdicts(self, campaign):
        parallel = run_fuzz(seed=SEED, count=COUNT, jobs=2)
        assert [r.sources for r in parallel.results] == [
            r.sources for r in campaign.results
        ]
        assert [r.status for r in parallel.results] == [
            r.status for r in campaign.results
        ]

    def test_mixed_campaign_builds_cross_dataset_clusters(self):
        report = run_fuzz(
            seed=1,
            count=8,
            jobs=1,
            config=FuzzConfig(mix_dataset="official"),
        )
        assert report.ok
        mixed = [r for r in report.results if r.kind == "mixed"]
        assert mixed, [r.kind for r in report.results]
        for result in mixed:
            # One corpus member (by id) plus one synthetic member.
            assert len(result.app_ids) == len(result.sources) + 1
            assert result.app_ids[0].startswith(("O", "TP", "App"))


class TestReproducers:
    def _failing_result(self):
        app = generate_app(0, 1, inject=True)
        return CaseResult(
            index=3,
            kind="app",
            app_ids=(app.app_id,),
            sources=(app.source,),
            injected=("P.99",),  # a property nothing flags
            detected=(),
            status="missed",
            detail="injected violations undetected: P.99",
            shrunk=(app.source,),
        )

    def test_write_reproducer_layout(self, tmp_path):
        directory = write_reproducer(self._failing_result(), FuzzConfig(), tmp_path)
        assert (directory / "app0.groovy").is_file()
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["status"] == "missed"
        assert meta["injected"] == ["P.99"]
        assert meta["seed"] == 0

    def test_replay_reproduces_missed_injection(self, tmp_path):
        directory = write_reproducer(self._failing_result(), FuzzConfig(), tmp_path)
        reproduced, message = replay(directory)
        assert reproduced
        assert "P.99" in message

    def test_replay_on_agreeing_input_does_not_reproduce(self, tmp_path):
        result = self._failing_result()
        result.status = "mismatch"
        result.detail = "fabricated"
        directory = write_reproducer(result, FuzzConfig(), tmp_path)
        reproduced, message = replay(directory)
        assert not reproduced
        assert "did not reproduce" in message
        # Older reproducers may also record "backend" or "encoding"
        # knobs; replay runs the same explicit/symbolic differential
        # over them.
        meta_path = directory / "meta.json"
        for knob, value in (
            ("backend", "both"), ("encoding", "monolithic"), ("encoding", "both"),
        ):
            meta = json.loads(meta_path.read_text())
            meta["config"][knob] = value
            meta_path.write_text(json.dumps(meta))
            assert replay(directory) == (reproduced, message), (knob, value)

    def test_replay_empty_directory(self, tmp_path):
        reproduced, message = replay(tmp_path)
        assert not reproduced
        assert "no app" in message

    def test_shrunk_cluster_reproducer_records_no_phantom_corpus_members(
        self, tmp_path
    ):
        # A cluster whose shrinker dropped a member: corpus_members must
        # come from the case's real corpus ids (here none), not be
        # inferred from the app_ids/shrunk length difference.
        first = generate_app(0, 1, inject=True)
        second = generate_app(0, 3, inject=False)
        result = CaseResult(
            index=9, kind="cluster",
            app_ids=(first.app_id, second.app_id),
            sources=(first.source, second.source),
            injected=(), detected=(), status="mismatch",
            detail="fabricated", shrunk=(first.source,),
        )
        directory = write_reproducer(result, FuzzConfig(), tmp_path)
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["corpus_members"] == []
        # Replay must run (the backends agree, so it reports no repro),
        # not crash trying to load a generated id as a corpus app.
        reproduced, message = replay(directory)
        assert not reproduced
        assert "did not reproduce" in message

    def test_meta_records_campaign_config(self, tmp_path):
        result = self._failing_result()
        config = FuzzConfig(mix_dataset="official")
        directory = write_reproducer(result, config, tmp_path)
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["config"]["mix_dataset"] == "official"
        assert meta["config"]["cluster_rate"] == config.cluster_rate

    def test_replay_with_unknown_corpus_member_is_graceful(self, tmp_path):
        directory = write_reproducer(self._failing_result(), FuzzConfig(), tmp_path)
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["corpus_members"] = ["NotARealApp1"]
        meta_path.write_text(json.dumps(meta))
        reproduced, message = replay(directory)
        assert not reproduced
        assert "unknown corpus member" in message


class TestErrorShrinking:
    def test_error_cases_shrink_with_same_error_predicate(self):
        from repro.corpus.fuzz import _same_error

        good = generate_app(0, 3, inject=False)
        predicate = _same_error("ZeroDivisionError", [])
        # Nothing raises on a valid app: the predicate rejects it, so the
        # shrinker keeps the original bytes.
        assert not predicate([good.source])


class TestCli:
    def test_fuzz_exit_zero_and_summary(self, capsys, tmp_path):
        code = main(
            [
                "fuzz",
                "--seed", "0",
                "--count", "3",
                "--jobs", "1",
                "--out", str(tmp_path / "repro"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "== fuzz: seed 0, 3 case(s)" in captured.out
        assert "OK" in captured.out
        # Clean campaign: no reproducers written.
        assert not (tmp_path / "repro").exists()

    def test_fuzz_replay_flag(self, capsys, tmp_path):
        app = generate_app(0, 1, inject=True)
        case = CaseResult(
            index=0, kind="app", app_ids=(app.app_id,),
            sources=(app.source,), injected=("P.99",), detected=(),
            status="missed", detail="", shrunk=(app.source,),
        )
        directory = write_reproducer(case, FuzzConfig(), tmp_path)
        code = main(["fuzz", "--replay", str(directory)])
        captured = capsys.readouterr()
        assert code == 1
        assert "reproduced" in captured.out
