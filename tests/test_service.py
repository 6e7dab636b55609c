"""Analysis-as-a-service: jobs, policy, and the HTTP API end to end.

The e2e tests run a real :class:`~repro.service.app` server on an
ephemeral port and drive it with :mod:`urllib` — the same path the CI
smoke test and a real reviewer queue would use: a violating corpus app
comes back ``needs-review`` with decoded witnesses, a clean one
``approved``, and an identical resubmission is served from the job store
without re-running a single pipeline stage.
"""

import concurrent.futures
import http.client
import json
import pickle
import threading
import urllib.error
import urllib.request

import pytest

from repro.corpus.loader import load_source
from repro.pipeline.stages import CheckConfig, source_digest
from repro.service.app import (
    MAX_BODY_BYTES,
    SoteriaService,
    _analyze_in_worker,
    build_server,
)
from repro.service.jobs import JobRecord, JobStore, job_id_for, submission_key
from repro.service.policy import APPROVED, NEEDS_REVIEW, decide
from repro.properties.catalog import Violation

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


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    # pool="thread": the in-process pool keeps the e2e tests fast and
    # lets them read the parent's stage counters; the process-pool
    # default is exercised by TestProcessPool and the hardening suite.
    srv = build_server(
        host="127.0.0.1", port=0, state_dir=tmp_path / "state", pool="thread"
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.service.shutdown()
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    try:
        with urllib.request.urlopen(_url(server, path), timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(server, path, body):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _stage_misses(stats):
    return sum(s["misses"] for s in stats["pipeline"]["stages"].values())


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
class TestPolicy:
    def test_clean_submission_approved(self):
        decision = decide([])
        assert decision.verdict == APPROVED
        assert not decision.flagged

    def test_any_violation_needs_review_never_rejected(self):
        violation = Violation(
            property_id="P.30", apps=("X",), description="d", formula="f"
        )
        decision = decide([violation])
        assert decision.verdict == NEEDS_REVIEW
        assert decision.flagged
        assert "P.30" in decision.reason

    def test_reflective_findings_noted_as_possible_false_positives(self):
        violation = Violation(
            property_id="P.2", apps=("X",), description="d", formula="f",
            via_reflection=True,
        )
        assert "false positive" in decide([violation]).reason


# ----------------------------------------------------------------------
# Job store
# ----------------------------------------------------------------------
class TestJobStore:
    @staticmethod
    def _record(source="src", name="A", backend="auto"):
        config = CheckConfig(backend)
        key = submission_key([(name, source)], config)
        return JobRecord(
            id=job_id_for(key), key=key, kind="app",
            apps=[name], digests=[source], config=config,
        )

    def test_idempotent_submit(self):
        store = JobStore()
        first, created = store.submit(self._record())
        assert created
        again, created = store.submit(self._record())
        assert not created
        assert again is first

    def test_knob_change_is_a_different_job(self):
        store = JobStore()
        store.submit(self._record())
        _record, created = store.submit(self._record(backend="symbolic"))
        assert created

    def test_update_rejects_unknown_fields(self):
        store = JobStore()
        record, _ = store.submit(self._record())
        with pytest.raises(AttributeError):
            store.update(record.id, no_such_field=1)

    def test_durable_across_restart_with_crash_recovery(self, tmp_path):
        store = JobStore(tmp_path)
        done, _ = store.submit(self._record(name="Done"))
        store.update(done.id, status="done", verdict=APPROVED)
        crashed, _ = store.submit(self._record(name="Crashed"))
        store.update(crashed.id, status="running")
        # Persisted at submit time, never picked up by a worker: must
        # not reload as an unrunnable 'queued' record.
        stuck, _ = store.submit(self._record(name="Stuck"))

        reborn = JobStore(tmp_path)  # a service restart
        assert reborn.get(done.id).verdict == APPROVED
        assert reborn.get(crashed.id).status == "failed"
        assert "restarted" in reborn.get(crashed.id).error
        assert reborn.get(stuck.id).status == "failed"
        assert "restarted" in reborn.get(stuck.id).error
        # ... and still dedupes against pre-restart submissions.
        _record, created = reborn.submit(self._record(name="Done"))
        assert not created

    def test_listing_is_newest_first_and_paginated(self):
        store = JobStore()
        for index in range(5):
            store.submit(self._record(name=f"A{index}"))
        page = store.list(page=1, per_page=2)
        assert page["total"] == 5
        assert [job["apps"] for job in page["jobs"]] == [["A4"], ["A3"]]
        last = store.list(page=3, per_page=2)
        assert [job["apps"] for job in last["jobs"]] == [["A0"]]


# ----------------------------------------------------------------------
# Service core: failed-job retry + worker pools
# ----------------------------------------------------------------------
def _total_misses(service):
    return sum(c["misses"] for c in service.pipeline.store.counters().values())


class TestServiceCore:
    def test_failed_job_retries_on_identical_resubmission(self, tmp_path):
        service = SoteriaService(state_dir=tmp_path / "state")
        try:
            entries = [("Broken", "this is not groovy {")]
            record, created = service.submit(entries)
            assert created
            record = service.wait(record.id, timeout=120)
            assert record.status == "failed"
            misses_before = _total_misses(service)

            again, created = service.submit(entries)
            assert not created            # same job record ...
            assert again.id == record.id
            final = service.wait(record.id, timeout=120)
            assert final.status == "failed"  # still broken — but it re-ran:
            assert _total_misses(service) > misses_before
        finally:
            service.shutdown()

    def test_done_job_is_never_retried(self, tmp_path):
        service = SoteriaService(state_dir=tmp_path / "state")
        try:
            record, _created = service.submit([("Good", GOOD)])
            assert service.wait(record.id, timeout=120).status == "done"
            misses_before = _total_misses(service)
            again, created = service.submit([("Good", GOOD)])
            assert not created
            final = service.wait(again.id, timeout=120)
            assert final.verdict == APPROVED
            assert _total_misses(service) == misses_before
        finally:
            service.shutdown()

    def test_queued_job_from_a_previous_life_recovers_and_reruns(self, tmp_path):
        state = tmp_path / "state"
        digest = source_digest("Good", GOOD)
        key = submission_key([("Good", digest)])
        # A crashed service persisted this at submit time and died
        # before any worker picked it up.
        JobStore(state).submit(
            JobRecord(
                id=job_id_for(key), key=key, kind="app",
                apps=["Good"], digests=[digest],
            )
        )
        service = SoteriaService(state_dir=state)
        try:
            assert service.jobs.get(job_id_for(key)).status == "failed"
            record, created = service.submit([("Good", GOOD)])
            assert not created    # dedupes against the recovered record
            final = service.wait(record.id, timeout=120)
            assert final.status == "done"
            assert final.verdict == APPROVED
        finally:
            service.shutdown()


class TestProcessPool:
    def test_worker_payload_and_result_are_picklable(self, tmp_path):
        config = CheckConfig(kernel="reference", max_union_states=64)
        args = ([("Bad", BAD)], "app", config, str(tmp_path / "cache"))
        # What the pool ships, CheckConfig included, survives the trip.
        assert pickle.loads(pickle.dumps(args)) == args
        pickle.dumps((_analyze_in_worker, args))
        fields = _analyze_in_worker(*args)
        pickle.dumps(fields)                      # what the worker returns
        assert fields["status"] == "done"
        assert fields["verdict"] == NEEDS_REVIEW
        assert fields["violations"]

    def test_environment_jobs_through_the_worker_body(self):
        fields = _analyze_in_worker(
            [("Good", GOOD), ("Bad", BAD)], "environment", CheckConfig(), None
        )
        assert fields["verdict"] == NEEDS_REVIEW
        assert {v["property_id"] for v in fields["violations"]} >= {"P.30", "P.11"}

    def test_process_pool_service_end_to_end(self, tmp_path):
        # Falls back to threads where multiprocessing is unavailable —
        # either way the verdicts and failure recording must hold.
        service = SoteriaService(
            cache_dir=tmp_path / "cache", state_dir=tmp_path / "state",
            pool="process",
        )
        try:
            assert service.pool_kind in ("process", "thread")
            record, _ = service.submit([("Bad", BAD)])
            final = service.wait(record.id, timeout=300)
            assert final.status == "done", final.error
            assert final.verdict == NEEDS_REVIEW
            assert final.violations  # decoded payloads crossed the boundary

            broken, _ = service.submit([("Broken", "not groovy {")])
            final = service.wait(broken.id, timeout=300)
            assert final.status == "failed"  # recorded by the parent
            assert "ParseError" in final.error  # the real cause, not a
            #                                     pool-infrastructure error

            # A failed job must not poison the pool: the next one runs.
            after, _ = service.submit([("Good", GOOD)])
            final = service.wait(after.id, timeout=300)
            assert final.status == "done", final.error
            assert final.verdict == APPROVED
        finally:
            service.shutdown()

    def test_worker_pool_failure_is_recorded_not_swallowed(self, tmp_path):
        # A pool whose futures fail before the worker body runs (e.g. a
        # pickling error in the executor feeder): the job must come back
        # 'failed', never hang 'queued'/'running' forever.
        class ExplodingPool:
            def submit(self, *_args, **_kwargs):
                future = concurrent.futures.Future()
                future.set_exception(RuntimeError("feeder blew up"))
                return future

            def shutdown(self, **_kwargs):
                pass

        service = SoteriaService(state_dir=tmp_path / "state")
        service._process_pool = ExplodingPool()
        try:
            record, _ = service.submit([("Good", GOOD)])
            final = service.wait(record.id, timeout=60)
            assert final.status == "failed"
            assert "feeder blew up" in final.error
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------
class TestServiceHttp:
    def test_health(self, server):
        status, body = _get(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_violating_app_flagged_with_decoded_witnesses(self, server):
        status, job = _post(
            server,
            "/v1/submissions?wait=120",
            {"source": load_source("App1"), "name": "App1"},
        )
        assert status == 201
        assert job["created"] is True
        assert job["status"] == "done", job.get("error")
        assert job["verdict"] == NEEDS_REVIEW
        assert job["flagged"] is True
        assert job["violations"] >= 1  # summary carries the count

        status, body = _get(server, f"/v1/jobs/{job['id']}/violations")
        assert status == 200
        by_id = {v["property_id"]: v for v in body["violations"]}
        assert "P.2" in by_id
        # The witness trace is decoded into the payload, not a handle.
        assert by_id["P.2"]["counterexample"]

    def test_clean_app_auto_approved(self, server):
        status, job = _post(
            server,
            "/v1/submissions?wait=120",
            {"source": load_source("O1"), "name": "O1"},
        )
        assert status == 201
        assert job["status"] == "done", job.get("error")
        assert job["verdict"] == APPROVED
        assert job["flagged"] is False
        assert job["violations"] == 0

    def test_identical_resubmission_reruns_nothing(self, server):
        body = {"source": load_source("App1"), "name": "App1"}
        status, first = _post(server, "/v1/submissions?wait=120", body)
        assert status == 201
        assert first["status"] == "done"
        _status, stats_before = _get(server, "/v1/stats")

        status, again = _post(server, "/v1/submissions?wait=120", body)
        assert status == 200          # existing job, not a new one
        assert again["created"] is False
        assert again["id"] == first["id"]
        assert again["verdict"] == first["verdict"]

        _status, stats_after = _get(server, "/v1/stats")
        # The whole point: the verdict came from the job store — zero new
        # stage misses, i.e. no pipeline stage re-ran.
        assert _stage_misses(stats_after) == _stage_misses(stats_before)
        assert stats_after["jobs"]["total"] == stats_before["jobs"]["total"]

    def test_environment_submission_and_witness_pagination(self, server):
        status, job = _post(
            server,
            "/v1/submissions?wait=120",
            {"sources": [
                {"name": "Good", "source": GOOD},
                {"name": "Bad", "source": BAD},
            ]},
        )
        assert status == 201
        assert job["kind"] == "environment"
        assert job["status"] == "done", job.get("error")
        assert job["verdict"] == NEEDS_REVIEW
        total = job["violations"]
        assert total >= 2  # P.30 and P.11 at least

        seen = []
        for page in range(1, total + 1):
            _s, body = _get(
                server,
                f"/v1/jobs/{job['id']}/violations?page={page}&per_page=1",
            )
            assert body["total"] == total
            assert len(body["violations"]) == 1
            seen.append(body["violations"][0]["property_id"])
        assert {"P.30", "P.11"} <= set(seen)
        _s, past_end = _get(
            server,
            f"/v1/jobs/{job['id']}/violations?page={total + 1}&per_page=1",
        )
        assert past_end["violations"] == []

    def test_concurrent_submissions_through_the_worker_pool(self, server):
        bodies = [
            {"source": load_source("O1"), "name": "O1"},
            {"source": load_source("TP3"), "name": "TP3"},
            {"source": GOOD, "name": "Good"},
            {"source": BAD, "name": "Bad"},
        ]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    lambda body: _post(server, "/v1/submissions?wait=120", body),
                    bodies,
                )
            )
        verdicts = {job["apps"][0]: job["verdict"] for _s, job in results}
        assert all(job["status"] == "done" for _s, job in results)
        assert verdicts["O1"] == APPROVED
        assert verdicts["Good"] == APPROVED
        assert verdicts["TP3"] == NEEDS_REVIEW  # S.4 (Appendix C)
        assert verdicts["Bad"] == NEEDS_REVIEW

        _s, listing = _get(server, "/v1/jobs?per_page=10")
        assert listing["total"] == 4

    def test_job_listing_and_lookup(self, server):
        _post(server, "/v1/submissions?wait=120", {"source": GOOD, "name": "G"})
        _s, listing = _get(server, "/v1/jobs")
        assert listing["total"] == 1
        job_id = listing["jobs"][0]["id"]
        status, job = _get(server, f"/v1/jobs/{job_id}")
        assert status == 200
        assert job["id"] == job_id

    def test_error_paths(self, server):
        status, body = _get(server, "/v1/jobs/job-nope")
        assert status == 404
        status, body = _post(server, "/v1/submissions", {"nonsense": 1})
        assert status == 400
        assert "source" in body["error"]
        for backend in ("quantum", "portfolio"):
            status, body = _post(
                server, "/v1/submissions", {"source": GOOD, "backend": backend}
            )
            assert status == 400
        status, body = _post(server, "/v1/submissions", {"sources": []})
        assert status == 400
        status, _body = _get(server, "/v1/unknown")
        assert status == 404

    def test_oversized_submission_rejected_without_reading(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/submissions")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            # No body sent: the server must answer from the header alone
            # instead of buffering an attacker-sized payload.
            response = conn.getresponse()
            assert response.status == 413
            assert b"exceeds" in response.read()
        finally:
            conn.close()
        assert _get(server, "/v1/health")[0] == 200

    def test_malformed_content_length_is_a_400(self, server):
        host, port = server.server_address[:2]
        for bogus in ("nope", "-5"):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.putrequest("POST", "/v1/submissions")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", bogus)
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 400, bogus
                assert b"Content-Length" in response.read()
            finally:
                conn.close()
        assert _get(server, "/v1/health")[0] == 200

    def test_unparseable_source_fails_the_job_not_the_server(self, server):
        status, job = _post(
            server,
            "/v1/submissions?wait=120",
            {"source": "this is not groovy {", "name": "Broken"},
        )
        assert status == 201
        assert job["status"] == "failed"
        assert job["error"]
        # The server is still healthy afterwards.
        assert _get(server, "/v1/health")[0] == 200

    def test_stats_shape(self, server):
        _post(server, "/v1/submissions?wait=120", {"source": GOOD, "name": "G"})
        _s, stats = _get(server, "/v1/stats")
        assert stats["jobs"]["done"] == 1
        assert "stages" in stats["pipeline"]
        assert _stage_misses(stats) > 0  # the cold run actually ran stages


# ----------------------------------------------------------------------
# Fleet screening views
# ----------------------------------------------------------------------
class TestFleetViews:
    def test_views_404_before_any_screen(self, server):
        assert _get(server, "/v1/fleet")[0] == 404
        assert _get(server, "/v1/blocklist")[0] == 404

    def test_post_validates_body(self, server):
        assert _post(server, "/v1/fleet", {"households": "many"})[0] == 400
        assert _post(server, "/v1/fleet", {"households": 10**9})[0] == 400
        assert _post(server, "/v1/fleet", {"corpus_weight": 1.5})[0] == 400
        assert _post(server, "/v1/fleet", {"backend": "quantum"})[0] == 400
        assert _post(server, "/v1/fleet", {"backend": "portfolio"})[0] == 400
        # Bad requests publish nothing.
        assert _get(server, "/v1/fleet")[0] == 404
        # The retired relation-encoding knob is ignored like any unknown key.
        body = {"households": 20, "templates": 2, "variants": 1,
                "encoding": "monolithic"}
        assert _post(server, "/v1/fleet", body)[0] == 200

    def test_screen_publishes_telemetry_and_blocklist(self, server):
        status, payload = _post(
            server,
            "/v1/fleet",
            {"households": 300, "templates": 3, "variants": 2, "seed": 5},
        )
        assert status == 200
        assert payload["telemetry"]["households"] == 300
        assert payload["exit_code"] in (0, 1, 3)

        status, fleet = _get(server, "/v1/fleet")
        assert status == 200
        assert fleet["telemetry"]["households"] == 300
        assert 0.0 <= fleet["telemetry"]["hit_rate"] <= 1.0

        status, blocklist = _get(server, "/v1/blocklist")
        assert status == 200
        assert blocklist["schema"] == 1
        assert blocklist["generator"] == "soteria fleet"
        assert blocklist["households_screened"] == 300
        # The service is still healthy and job routes unaffected.
        assert _get(server, "/v1/health")[0] == 200
