"""The benchmark's own tests: oracles, the tail helper, span arithmetic
and wrapper restoration.  Run with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import oracles  # noqa: E402
from common import tail  # noqa: E402
from tracing import Recorder, Span, covered, outermost_total, self_time  # noqa: E402


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def test_union_oracle_accepts_the_pinned_set():
    assert oracles.check_union_all(set(oracles.UNION_ALL_VIOLATED)) is None


def test_union_oracle_fails_on_a_wrong_expectation():
    violated = set(oracles.UNION_ALL_VIOLATED)
    wrong = violated - {"P.1"} | {"P.99"}
    assert oracles.check_union_all(violated, expected=wrong) is not None
    assert oracles.check_union_all(violated - {"S.4"}) is not None


def test_corpus_oracle_fails_on_a_wrong_verdict():
    flagged = [{"property_id": "P.13", "via_reflection": False}]
    assert oracles.check_corpus_app("TP1", flagged) is None
    assert oracles.check_corpus_app("TP2", flagged) is not None
    assert oracles.check_corpus_app("O1", flagged) is not None
    assert oracles.check_corpus_app("O1", []) is None


def test_maliot_oracle_cases():
    reflected = [{"property_id": "P.1", "via_reflection": True}]
    assert oracles.check_corpus_app("App5", reflected) is None
    direct = [{"property_id": "P.1", "via_reflection": False}]
    assert oracles.check_corpus_app("App5", direct) is not None
    assert oracles.check_corpus_app("App1", []) is not None
    assert oracles.check_corpus_app("App9", direct) is not None
    assert not oracles.corpus_app_has_oracle("App12")


def test_required_and_same():
    assert oracles.check_required("g", {"S.1"}, {"S.1", "S.2"}) is None
    assert oracles.check_required("g", {"S.3"}, {"S.1"}) is not None
    assert oracles.check_same("r", ["P.1"], {"P.1"}) is None
    assert oracles.check_same("r", ["P.1"], set()) is not None


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    pct, value, count = tail(values)
    assert (pct, value, count) == (90.0, 90, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_smallest_qualifying_sample():
    pct, value, count = tail(list(range(11)))
    assert count == 11 and value == 0
    assert abs(pct - 100 / 11) < 1e-9


def test_tail_without_enough_samples_reports_the_max():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert tail(list(range(10))) == (100.0, 9, 10)
    assert tail([]) == (0.0, 0.0, 0)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(sid, name, start, end, parent=None):
    return Span(sid=sid, name=name, start=start, end=end, parent=parent, run="t")


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_nested_sat_under_check():
    spans = [
        _span(1, "symbolic.check", 0.0, 10.0),
        _span(2, "symbolic.sat", 1.0, 4.0, parent=1),
        _span(3, "symbolic.sat", 2.0, 3.0, parent=2),  # recursive sat
        _span(4, "symbolic.sat", 5.0, 7.0, parent=1),
    ]
    assert self_time(spans[0], [spans[1], spans[3]]) == 5.0
    assert self_time(spans[1], [spans[2]]) == 2.0
    assert outermost_total(spans, "symbolic.sat") == 5.0
    values, _notes = layers.derive(spans, [(0.0, 12.0)])
    assert values["symbolic.checks"] == 1
    assert values["symbolic.check_s"] == 10.0
    assert values["symbolic.sat_s"] == 5.0
    assert values["symbolic.witness_s"] == 5.0
    assert values["root.uncovered_s"] == 2.0


def test_merged_spans_keep_parents_per_process():
    import w_fleet

    cold = {"spans": [
        {"sid": 1, "name": "fleet.run_fleet", "start": 0.0, "end": 4.0, "parent": None, "run": "c", "attrs": {}},
        {"sid": 2, "name": "fleet.check_household", "start": 1.0, "end": 3.0, "parent": 1, "run": "c", "attrs": {}},
    ]}
    warm = {"spans": [
        {"sid": 1, "name": "fleet.run_fleet", "start": 5.0, "end": 6.0, "parent": None, "run": "w", "attrs": {}},
        {"sid": 2, "name": "fleet.probe", "start": 5.5, "end": 5.6, "parent": 1, "run": "w", "attrs": {}},
    ]}
    rows = w_fleet.merged_spans([cold, warm])
    assert [row["sid"] for row in rows] == [1, 2, 3, 4]
    assert [row["parent"] for row in rows] == [None, 1, None, 3]
    values, _notes = layers.derive(
        [Span(**row) for row in rows], [(0.0, 4.0), (5.0, 6.0)]
    )
    assert values["fleet.check_s"] == 2.0
    assert abs(values["fleet.stream_s"] - 2.9) < 1e-9
    assert values["root.uncovered_s"] == 0.0


def test_recorder_links_parents():
    recorder = Recorder("t")

    class Checker:
        def sat(self, depth):
            return depth if depth == 0 else self.sat(depth - 1)

        def check(self):
            return self.sat(2)

    recorder.wrap(Checker, "check", "symbolic.check")
    recorder.wrap(Checker, "sat", "symbolic.sat")
    try:
        assert Checker().check() == 0
    finally:
        recorder.restore()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (check,) = by_name["symbolic.check"]
    assert check.parent is None
    sats = sorted(by_name["symbolic.sat"], key=lambda s: s.start)
    assert [s.parent for s in sats] == [check.sid, sats[0].sid, sats[1].sid]
    values, _notes = layers.derive(recorder.spans, [])
    assert set(values) == {name for name, _unit in layers.PER_LAYER}


# ----------------------------------------------------------------------
# Wrapper restoration
# ----------------------------------------------------------------------
def test_wrappers_restore_every_kind_of_callable():
    class Target:
        def method(self):
            return "m"

        @classmethod
        def klass(cls):
            return cls.__name__

        @staticmethod
        def static():
            return "s"

    module = type(sys)("fake_module")
    module.function = lambda: "f"
    originals = {name: Target.__dict__[name] for name in ("method", "klass", "static")}
    function = module.function

    recorder = Recorder("t")
    for name in originals:
        recorder.wrap(Target, name, name)
    recorder.wrap(module, "function", "function")
    assert Target().method() == "m" and Target.klass() == "Target"
    assert Target.static() == "s" and module.function() == "f"
    assert len(recorder.spans) == 4
    recorder.restore()
    for name, raw in originals.items():
        assert Target.__dict__[name] is raw
    assert module.function is function


def test_program_wrappers_are_restored():
    from repro.corpus.diskcache import FleetCache
    from repro.fleet import driver
    from repro.fleet.profiles import TemplatePool
    from repro.mc.explicit import ExplicitChecker
    from repro.mc.symbolic import SymbolicModelChecker
    from repro.model.encoder import SymbolicUnionModel
    from repro.pipeline import stages
    from repro.pipeline.store import ArtifactStore
    from repro.platform.smartapp import SmartApp
    from repro.service.app import SoteriaService
    from repro.service.jobs import JobStore

    owners = [
        stages, driver, ArtifactStore, SymbolicUnionModel, SymbolicModelChecker,
        ExplicitChecker, TemplatePool, SmartApp, FleetCache, SoteriaService, JobStore,
    ]
    before = [dict(vars(owner)) for owner in owners]
    recorder = Recorder("t")
    layers.install_pipeline(recorder)
    layers.install_fleet(recorder)
    layers.install_service(recorder)
    assert stages.run_parse is not before[0]["run_parse"]
    recorder.restore()
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        for name, value in snapshot.items():
            assert now[name] is value, (owner, name)


def test_service_stream_is_seeded():
    import w_service

    first = w_service.build_stream(3, 60)
    assert first == w_service.build_stream(3, 60)
    assert first != w_service.build_stream(4, 60)
    kinds = {item["kind"] for item in first}
    assert {"gen", "corpus", "cross", "attach"} <= kinds
