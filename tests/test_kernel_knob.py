"""The BDD-kernel knob end to end: recording, forcing, cache isolation.

The kernel is an analysis knob like the backend: it selects which
BDD manager the symbolic checker runs on (the array-backed fast core by
default, the reference dict-of-nodes manager as the differential
oracle).  These tests pin that the knob is recorded on every result,
that forcing it is honored at each entry point (pipeline, sweep,
service), and — the part that silently rots — that *no cache layer ever
serves a cross-kernel artifact*: check-stage artifacts, sweep entries,
and service job records are all keyed on the kernel.
"""

import gc
import weakref

import pytest

from repro.corpus.batch import analyze_batch
from repro.corpus.sweep import sweep_environments
from repro.pipeline.runner import Pipeline
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import ArtifactStore
from repro.soteria import analyze_app, analyze_environment

GROUP = ("App12", "App13", "App14")  # MalIoT smoke/lock chain


def _members():
    analyses = analyze_batch(list(GROUP), jobs=1)
    return [analyses[a] for a in GROUP]


class TestKernelRecordedAndForced:
    def test_explicit_runs_have_no_kernel(self):
        explicit = analyze_environment(_members(), backend="explicit")
        assert explicit.kernel is None
        assert explicit.kernel_stats is None

    def test_auto_resolves_to_fast_and_is_recorded(self):
        run = analyze_environment(_members(), backend="symbolic")
        assert run.kernel == "fast"
        assert run.kernel_stats is not None
        assert run.kernel_stats["kernel"] == "fast"
        assert run.kernel_stats["peak_nodes"] > 0

    def test_forced_kernels_agree_with_each_other(self):
        runs = {
            kernel: analyze_environment(
                _members(), backend="symbolic", kernel=kernel
            )
            for kernel in ("reference", "fast")
        }
        assert runs["reference"].kernel == "reference"
        assert runs["fast"].kernel == "fast"
        assert (
            runs["reference"].violated_ids() == runs["fast"].violated_ids()
        )

    def test_unknown_kernel_rejected_fast(self):
        with pytest.raises(ValueError):
            analyze_environment(_members(), kernel="cudd2")
        with pytest.raises(ValueError):
            analyze_app("definition(name: \"X\")", kernel="zdd")


class TestCheckStageKeyedOnKernel:
    def test_kernel_knob_misses_only_the_check_stage(self):
        # Switching kernels on an already-analyzed symbolic app must
        # re-run the check (different kernel = different artifact key)
        # while replaying parse/ir/model — and must NEVER serve the
        # other kernel's cached check artifact.
        store = ArtifactStore()
        pipeline = Pipeline(store)
        members = [m.app for m in _members()]
        fast = pipeline.environment_analysis(
            list(members), config=CheckConfig("symbolic")
        )
        before = store.counters()
        reference = pipeline.environment_analysis(
            list(members), config=CheckConfig("symbolic", kernel="reference")
        )
        after = store.counters()
        assert fast.kernel == "fast"
        assert reference.kernel == "reference"
        assert reference.violated_ids() == fast.violated_ids()
        assert after["union"]["misses"] == before["union"]["misses"]
        # One new check artifact for the union plus one per member (the
        # forced symbolic backend cascades to member analyses, which are
        # kernel-keyed too).
        assert (
            after["check"]["misses"]
            == before["check"]["misses"] + 1 + len(members)
        )

    def test_same_kernel_rerun_is_served_from_cache(self):
        store = ArtifactStore()
        pipeline = Pipeline(store)
        members = [m.app for m in _members()]
        config = CheckConfig("symbolic", kernel="reference")
        pipeline.environment_analysis(list(members), config=config)
        before = store.counters()
        again = pipeline.environment_analysis(list(members), config=config)
        after = store.counters()
        assert again.kernel == "reference"
        assert after["check"]["misses"] == before["check"]["misses"]

    def test_explicit_checks_share_one_key_across_kernel_knobs(self):
        # The kernel only matters where a BDD manager actually runs: an
        # explicit check requested with a different kernel knob is the
        # same artifact (the resolved explicit config drops the knob).
        store = ArtifactStore()
        pipeline = Pipeline(store)
        members = [m.app for m in _members()]
        pipeline.environment_analysis(list(members), config=CheckConfig("explicit"))
        before = store.counters()
        pipeline.environment_analysis(
            list(members), config=CheckConfig("explicit", kernel="reference")
        )
        after = store.counters()
        assert after["check"]["misses"] == before["check"]["misses"]


class TestKernelLifetime:
    def test_finished_check_frees_its_kernel(self, monkeypatch):
        # Regression: the fast kernel's recursive apply closures held
        # their own cells, so every finished check left a reference
        # cycle keeping its kernel (hundreds of MB on the 82-app union)
        # alive until a full collection.  With the collector off, the
        # kernel must die with the last reference to the result.
        from repro.mc.fastbdd import FastKernel

        kernels = []
        original = FastKernel.__init__

        def tracked(self, *args, **kwargs):
            original(self, *args, **kwargs)
            kernels.append(weakref.ref(self))

        monkeypatch.setattr(FastKernel, "__init__", tracked)
        members = [m.app for m in _members()]
        gc.disable()
        try:
            env = Pipeline().environment_analysis(
                members, config=CheckConfig("symbolic")
            )
            assert env.kernel == "fast" and kernels
            del env
            assert [ref() is None for ref in kernels] == [True] * len(kernels)
        finally:
            gc.enable()


class TestSweepCacheKeyedOnKernel:
    def test_forced_kernel_run_never_served_the_auto_result(self, tmp_path):
        symbolic = CheckConfig("symbolic")
        reference = CheckConfig("symbolic", kernel="reference")
        first = sweep_environments(
            [GROUP], jobs=1, cache_dir=tmp_path, config=symbolic
        )
        assert not first[0].cached
        assert first[0].environment.kernel == "fast"   # auto -> fast
        warm = sweep_environments(
            [GROUP], jobs=1, cache_dir=tmp_path, config=symbolic
        )
        assert warm[0].cached
        forced = sweep_environments(
            [GROUP], jobs=1, cache_dir=tmp_path, config=reference
        )
        assert not forced[0].cached
        assert forced[0].environment.kernel == "reference"
        assert forced[0].violated_ids() == warm[0].violated_ids()
        forced_warm = sweep_environments(
            [GROUP], jobs=1, cache_dir=tmp_path, config=reference
        )
        assert forced_warm[0].cached


class TestServiceKernelKnob:
    GOOD = '''
definition(name: "Tiny")
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.on", h) }
def h(evt) { }
'''

    def test_submission_key_distinguishes_kernels(self):
        from repro.service.jobs import submission_key

        entries = [("Tiny", "digest0")]
        auto = submission_key(entries)
        reference = submission_key(entries, CheckConfig(kernel="reference"))
        fast = submission_key(entries, CheckConfig(kernel="fast"))
        assert len({auto, reference, fast}) == 3

    def test_submission_carries_and_resolves_the_kernel(self):
        from repro.service.app import SoteriaService, _parse_submission

        entries, config = _parse_submission(
            {"source": self.GOOD, "backend": "symbolic", "kernel": "reference"}
        )
        assert config == CheckConfig("symbolic", kernel="reference")
        service = SoteriaService(jobs=1)
        try:
            record, created = service.submit(entries, config)
            assert created
            assert record.config.kernel == "reference"
            final = service.wait(record.id, timeout=120)
            assert final.status == "done"
            assert final.resolved_kernel == "reference"
            assert final.kernel_stats["kernel"] == "reference"
            # Same sources, different kernel: a NEW job, never the
            # other kernel's record.
            other, other_created = service.submit(
                entries, CheckConfig("symbolic", kernel="fast")
            )
            assert other_created
            assert other.id != record.id
            # /v1/stats surfaces the per-kernel aggregates.
            stats = service.stats()
            assert "reference" in stats["kernels"]
            assert stats["kernels"]["reference"]["runs"] >= 1
        finally:
            service.shutdown()

    def test_bogus_submission_kernel_rejected(self):
        from repro.service.app import SubmissionError, _parse_submission

        with pytest.raises(SubmissionError):
            _parse_submission({"source": self.GOOD, "kernel": "zdd"})


class TestFuzzKernelAxis:
    def test_campaign_cross_checks_both_kernels(self):
        from repro.corpus.fuzz import FuzzConfig, run_fuzz

        report = run_fuzz(
            seed=17, count=3, jobs=1, config=FuzzConfig(kernel="both")
        )
        assert report.config.kernel == "both"
        assert report.ok, [r.detail for r in report.failures()]

    def test_reproducer_records_the_kernel(self, tmp_path):
        import json

        from repro.corpus.fuzz import CaseResult, FuzzConfig, write_reproducer

        result = CaseResult(
            index=0, kind="app", app_ids=("GenX",), sources=("src",),
            injected=(), detected=(), status="mismatch", detail="d",
        )
        directory = write_reproducer(
            result, FuzzConfig(kernel="both"), tmp_path
        )
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["config"]["kernel"] == "both"
