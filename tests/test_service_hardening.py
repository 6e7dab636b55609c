"""Service hardening: leaks, event-driven waits, backpressure, tenants,
slow-loris, fleet single-flight, and job TTL/GC.

The regression anchors for PR 10's production bugs:

- ``SoteriaService._futures`` used to retain one settled Future per job
  forever (``_run_job`` pruned only ``_sources``) — the registries must
  be EMPTY after every job settles.
- ``?wait=`` used to park a handler thread on ``future.result()`` per
  waiter — waits are now event-driven and bounded by a waiter-slot
  pool, so a 64-concurrent-waiter burst on a 2-worker service must
  never park a thread per waiter.
- ``rfile.read(Content-Length)`` had no socket timeout — a client that
  under-sends its declared body parked a handler thread forever.
- Nothing bounded admission — saturation now answers 429 with a
  ``Retry-After`` hint, per service and per tenant.
"""

import http.client
import inspect
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from types import SimpleNamespace

import pytest

import repro.service.app as app_mod
from repro.service.app import (
    FleetBusyError,
    QueueFullError,
    SoteriaService,
    SubmissionError,
    build_server,
    validate_tenant,
)
from repro.service.jobs import JobRecord, JobStore, job_id_for, submission_key
from repro.service.policy import APPROVED

GOOD = '''
definition(name: "Good")
preferences { section("s") {
    input "ws", "capability.waterSensor"
    input "vd", "capability.valve"
} }
def installed() { subscribe(ws, "water.wet", h) }
def h(evt) { vd.close() }
'''


def _done_fields() -> dict:
    """A minimal settled-job field dict (what _run_analysis returns)."""
    return {
        "status": "done",
        "verdict": APPROVED,
        "flagged": False,
        "reason": None,
        "violations": [],
        "checked_properties": [],
        "skipped_properties": [],
        "resolved_backend": "explicit",
        "resolved_kernel": "-",
        "kernel_stats": None,
        "state_estimate": 1,
    }


@pytest.fixture()
def gated_analysis(monkeypatch):
    """Replace the analysis body with one that blocks on a gate event.

    Jobs finish (instantly) only once the gate is set — the test's way
    to hold a known number of jobs in flight deterministically.
    """
    gate = threading.Event()

    def fake_run_analysis(_pipeline, named, _kind, *_knobs):
        if not gate.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        return _done_fields()

    monkeypatch.setattr(app_mod, "_run_analysis", fake_run_analysis)
    return gate


@pytest.fixture()
def instant_analysis(monkeypatch):
    """Replace the analysis body with an instant no-op success."""
    monkeypatch.setattr(
        app_mod, "_run_analysis", lambda *_args: _done_fields()
    )


def _submit_n(service, count, tenant="default", prefix="App"):
    """Submit ``count`` distinct one-source jobs; the records."""
    records = []
    for index in range(count):
        record, created = service.submit(
            [(f"{prefix}{index}", f"// {prefix} {index}\n" + GOOD)],
            tenant=tenant,
        )
        assert created
        records.append(record)
    return records


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _request(server, path, body=None, headers=None, timeout=60):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        _url(server, path),
        data=data,
        headers={"Content-Type": "application/json"} | (headers or {}),
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


# ----------------------------------------------------------------------
# The _futures leak (tentpole bug 1)
# ----------------------------------------------------------------------
class TestSettleTimePruning:
    def test_registries_empty_after_all_jobs_settle(self, instant_analysis):
        service = SoteriaService(jobs=2)
        try:
            records = _submit_n(service, 8)
            for record in records:
                final = service.wait(record.id, timeout=30)
                assert final.status == "done"
            # THE leak regression: a settled job must leave nothing
            # behind — no Future, no Event, no sources, no quota count.
            assert service._futures == {}
            assert service._events == {}
            assert service._sources == {}
            assert service._tenant_inflight == {}
        finally:
            service.shutdown()

    def test_failed_jobs_are_pruned_too(self, monkeypatch):
        def exploding(*_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(app_mod, "_run_analysis", exploding)
        service = SoteriaService(jobs=1)
        try:
            record, _ = service.submit([("A", GOOD)])
            final = service.wait(record.id, timeout=30)
            assert final.status == "failed"
            assert service._futures == {}
            assert service._events == {}
        finally:
            service.shutdown()

    def test_wait_on_settled_job_returns_record_without_futures(
        self, instant_analysis
    ):
        service = SoteriaService(jobs=1)
        try:
            record, _ = service.submit([("A", GOOD)])
            assert service.wait(record.id, timeout=30).status == "done"
            assert service._futures == {}
            # A second wait answers from the store alone.
            again = service.wait(record.id, timeout=30)
            assert again is not None
            assert again.status == "done"
            assert again.verdict == APPROVED
            assert service.wait("job-nope") is None
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Event-driven waits + bounded waiter slots (tentpole bug 2)
# ----------------------------------------------------------------------
class TestEventDrivenWait:
    def test_wait_timeout_returns_unsettled_record(self, gated_analysis):
        service = SoteriaService(jobs=1)
        try:
            record, _ = service.submit([("A", GOOD)])
            snapshot = service.wait(record.id, timeout=0.05)
            assert snapshot.status in ("queued", "running")
            gated_analysis.set()
            assert service.wait(record.id, timeout=30).status == "done"
        finally:
            service.shutdown()

    def test_waiter_wakes_on_settle(self, gated_analysis):
        service = SoteriaService(jobs=1)
        try:
            record, _ = service.submit([("A", GOOD)])
            result = {}

            def waiter():
                result["record"] = service.wait(record.id, timeout=30)

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.1)
            assert thread.is_alive()  # parked on the event
            gated_analysis.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert result["record"].status == "done"
        finally:
            service.shutdown()

    def test_excess_waiters_degrade_instead_of_parking(self, gated_analysis):
        service = SoteriaService(jobs=1, max_waiters=1)
        try:
            record, _ = service.submit([("A", GOOD)])
            parked = threading.Thread(
                target=service.wait, args=(record.id,), kwargs={"timeout": 30}
            )
            parked.start()
            deadline = time.time() + 5
            while service._wait_stats["active"] < 1:
                assert time.time() < deadline, "first waiter never parked"
                time.sleep(0.01)
            # Slots exhausted: this wait must answer IMMEDIATELY with a
            # snapshot instead of parking a second thread.
            start = time.time()
            snapshot = service.wait(record.id, timeout=30)
            assert time.time() - start < 1.0
            assert snapshot.status in ("queued", "running")
            assert service._wait_stats["degraded"] >= 1
            assert service._wait_stats["peak"] <= 1
            gated_analysis.set()
            parked.join(timeout=10)
        finally:
            service.shutdown()

    def test_shutdown_wakes_parked_waiters(self, gated_analysis):
        service = SoteriaService(jobs=1)
        record, _ = service.submit([("A", GOOD)])
        released = threading.Event()

        def waiter():
            service.wait(record.id, timeout=30)
            released.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        service.shutdown()
        assert released.wait(timeout=10), "shutdown stranded a waiter"
        thread.join(timeout=5)
        gated_analysis.set()  # let the runner thread exit cleanly


# ----------------------------------------------------------------------
# Bounded admission: 429 + Retry-After (tentpole bug 4)
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_saturation_raises_queue_full(self, gated_analysis):
        service = SoteriaService(jobs=1, max_pending=2)
        try:
            _submit_n(service, 2)
            with pytest.raises(QueueFullError) as info:
                service.submit([("Overflow", "// overflow\n" + GOOD)])
            assert info.value.scope == "service"
            assert info.value.retry_after >= 1
            # Draining reopens admission.
            gated_analysis.set()
            for record in list(service._events):
                service.wait(record, timeout=30)
            record, created = service.submit(
                [("Overflow", "// overflow\n" + GOOD)]
            )
            assert created
            assert service.wait(record.id, timeout=30).status == "done"
        finally:
            service.shutdown()

    def test_resubmission_of_settled_job_served_even_when_full(
        self, instant_analysis
    ):
        service = SoteriaService(jobs=1, max_pending=1)
        try:
            done, _ = service.submit([("Done", GOOD)])
            assert service.wait(done.id, timeout=30).status == "done"
            # Now saturate with a job that the (instant) analysis will
            # finish — hold admission full artificially instead.
            with service._lock:
                service._events["job-held"] = threading.Event()
            with pytest.raises(QueueFullError):
                service.submit([("New", "// new\n" + GOOD)])
            # ... but the settled job's resubmission schedules nothing,
            # so it must be served.
            again, created = service.submit([("Done", GOOD)])
            assert not created
            assert again.status == "done"
            with service._lock:
                service._events.pop("job-held")
        finally:
            service.shutdown()

    def test_http_429_with_retry_after_header(self, gated_analysis, tmp_path):
        server = build_server(
            host="127.0.0.1", port=0, pool="thread", jobs=1, max_pending=1,
            state_dir=tmp_path / "state",
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _headers, first = _request(
                server, "/v1/submissions", {"source": GOOD, "name": "A"}
            )
            assert status == 201
            status, headers, body = _request(
                server, "/v1/submissions",
                {"source": "// b\n" + GOOD, "name": "B"},
            )
            assert status == 429
            assert headers.get("Retry-After", "").isdigit()
            assert body["scope"] == "service"
            assert body["retry_after"] >= 1
            # The rejection is visible on /v1/stats.
            _s, _h, stats = _request(server, "/v1/stats")
            assert stats["service"]["rejected"]["service"] >= 1
            assert stats["service"]["pending"] == 1
            gated_analysis.set()
        finally:
            server.service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Per-tenant namespacing + quotas
# ----------------------------------------------------------------------
class TestTenants:
    def test_tenant_validation(self):
        assert validate_tenant("acme-store.eu_1") == "acme-store.eu_1"
        for bad in ("", " ", "a b", "a/b", "-lead", "x" * 65, "\n"):
            with pytest.raises(SubmissionError):
                validate_tenant(bad)

    def test_tenant_namespaces_the_job_space(self, instant_analysis):
        service = SoteriaService(jobs=2)
        try:
            alpha, created_a = service.submit([("A", GOOD)], tenant="alpha")
            beta, created_b = service.submit([("A", GOOD)], tenant="beta")
            assert created_a and created_b
            assert alpha.id != beta.id          # same sources, two jobs
            assert alpha.tenant == "alpha"
            assert beta.tenant == "beta"
            # ... and each tenant's resubmission dedupes within itself.
            again, created = service.submit([("A", GOOD)], tenant="alpha")
            assert not created
            assert again.id == alpha.id
        finally:
            service.shutdown()

    def test_tenant_quota_is_per_tenant(self, gated_analysis):
        service = SoteriaService(jobs=1, max_pending=10, tenant_quota=1)
        try:
            service.submit([("A0", GOOD)], tenant="alpha")
            with pytest.raises(QueueFullError) as info:
                service.submit(
                    [("A1", "// a1\n" + GOOD)], tenant="alpha"
                )
            assert info.value.scope == "tenant:alpha"
            # A greedy tenant saturates itself, not the service.
            record, created = service.submit(
                [("B0", "// b0\n" + GOOD)], tenant="beta"
            )
            assert created
            gated_analysis.set()
        finally:
            service.shutdown()

    def test_stats_break_down_jobs_per_tenant(self, instant_analysis):
        service = SoteriaService(jobs=2)
        try:
            for record in (
                _submit_n(service, 2, tenant="alpha", prefix="A")
                + _submit_n(service, 1, tenant="beta", prefix="B")
            ):
                service.wait(record.id, timeout=30)
            tenants = service.stats()["jobs"]["tenants"]
            assert tenants["alpha"]["done"] == 2
            assert tenants["alpha"]["total"] == 2
            assert tenants["beta"]["done"] == 1
        finally:
            service.shutdown()

    def test_http_tenant_header(self, instant_analysis, tmp_path):
        server = build_server(
            host="127.0.0.1", port=0, pool="thread", jobs=1,
            state_dir=tmp_path / "state",
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _h, job = _request(
                server, "/v1/submissions?wait=30",
                {"source": GOOD, "name": "A"},
                headers={"X-Soteria-Tenant": "acme"},
            )
            assert status == 201
            assert job["tenant"] == "acme"
            # A malformed tenant header is a 400, not a crash.
            status, _h, body = _request(
                server, "/v1/submissions", {"source": GOOD, "name": "A"},
                headers={"X-Soteria-Tenant": "not a tenant!"},
            )
            assert status == 400
            assert "tenant" in body["error"]
            _s, _h, stats = _request(server, "/v1/stats")
            assert stats["jobs"]["tenants"]["acme"]["done"] == 1
        finally:
            server.service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Slow-loris body reads (tentpole bug 3)
# ----------------------------------------------------------------------
class TestSlowLoris:
    def test_stalled_body_read_is_dropped_not_parked(self, tmp_path):
        server = build_server(
            host="127.0.0.1", port=0, pool="thread", jobs=1,
            state_dir=tmp_path / "state", handler_timeout=1.0,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            baseline = threading.active_count()
            sock = socket.create_connection((host, port), timeout=20)
            try:
                sock.sendall(
                    b"POST /v1/submissions HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n"
                    b"\r\n"
                    b'{"partial'  # 9 of the declared 1000 bytes, then stall
                )
                start = time.time()
                response = sock.recv(65536)  # 408 (or bare close) — but soon
                elapsed = time.time() - start
                assert elapsed < 15, "stalled read parked the handler"
                assert response == b"" or b"408" in response.split(b"\r\n")[0]
            finally:
                sock.close()
            # The handler thread is free again and the server healthy.
            deadline = time.time() + 10
            while threading.active_count() > baseline and time.time() < deadline:
                time.sleep(0.05)
            assert threading.active_count() <= baseline
            status, _h, body = _request(server, "/v1/health")
            assert status == 200 and body["status"] == "ok"
        finally:
            server.service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Concurrent fleet screens: single-flight (satellite)
# ----------------------------------------------------------------------
class TestFleetSingleFlight:
    @staticmethod
    def _fake_fleet(gate, calls):
        def fake_run_fleet(_profile, households, _options):
            calls.append(households)
            assert gate.wait(timeout=30)
            return SimpleNamespace(
                telemetry=SimpleNamespace(
                    to_json=lambda: {"households": households, "hit_rate": 1.0}
                ),
                blocklist={"schema": 1, "entries": []},
                exit_code=0,
            )

        return fake_run_fleet

    def test_second_concurrent_screen_gets_409(self, monkeypatch):
        import repro.fleet.driver as driver_mod

        gate = threading.Event()
        calls = []
        monkeypatch.setattr(
            driver_mod, "run_fleet", self._fake_fleet(gate, calls)
        )
        service = SoteriaService(jobs=1)
        try:
            results = {}

            def first():
                results["first"] = service.fleet_screen({"households": 111})

            thread = threading.Thread(target=first)
            thread.start()
            deadline = time.time() + 5
            while not calls:
                assert time.time() < deadline, "first screen never started"
                time.sleep(0.01)
            # The gate is held: a concurrent screen must be refused,
            # never interleaved.
            with pytest.raises(FleetBusyError) as info:
                service.fleet_screen({"households": 222})
            assert info.value.retry_after > 0
            gate.set()
            thread.join(timeout=10)
            assert results["first"]["telemetry"]["households"] == 111
            # Only the first screen ever ran; its result is published.
            assert calls == [111]
            assert service.fleet_latest()["telemetry"]["households"] == 111
            # The gate is released: a new screen runs fine.
            assert service.fleet_screen({"households": 333})[
                "telemetry"
            ]["households"] == 333
        finally:
            service.shutdown()

    def test_http_409_with_retry_after(self, monkeypatch, tmp_path):
        import repro.fleet.driver as driver_mod

        gate = threading.Event()
        calls = []
        monkeypatch.setattr(
            driver_mod, "run_fleet", self._fake_fleet(gate, calls)
        )
        server = build_server(
            host="127.0.0.1", port=0, pool="thread", jobs=1,
            state_dir=tmp_path / "state",
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            outcome = {}

            def first():
                outcome["result"] = _request(
                    server, "/v1/fleet", {"households": 10}, timeout=60
                )

            poster = threading.Thread(target=first)
            poster.start()
            deadline = time.time() + 5
            while not calls:
                assert time.time() < deadline
                time.sleep(0.01)
            status, headers, body = _request(
                server, "/v1/fleet", {"households": 20}
            )
            assert status == 409
            assert headers.get("Retry-After", "").isdigit()
            assert "already running" in body["error"]
            gate.set()
            poster.join(timeout=10)
            assert outcome["result"][0] == 200
        finally:
            server.service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Job TTL/GC × restart recovery (satellite)
# ----------------------------------------------------------------------
class TestJobTtlGc:
    @staticmethod
    def _record(name, **fields):
        key = submission_key([(name, f"digest-{name}")])
        record = JobRecord(
            id=job_id_for(key), key=key, kind="app",
            apps=[name], digests=[f"digest-{name}"],
        )
        for attr, value in fields.items():
            setattr(record, attr, value)
        return record

    def test_sweep_reaps_settled_records_memory_and_disk(self, tmp_path):
        store = JobStore(tmp_path, ttl=100.0)
        done, _ = store.submit(self._record("Old"))
        store.update(done.id, status="done", verdict=APPROVED)
        fresh, _ = store.submit(self._record("Fresh"))
        store.update(fresh.id, status="done", verdict=APPROVED)
        running, _ = store.submit(self._record("Running"))
        store.update(running.id, status="running")

        jobs_dir = tmp_path / "jobs"
        assert len(list(jobs_dir.glob("*.json"))) == 3
        # Age only "Old" past the TTL, then sweep "now".
        store.get(done.id).updated_at = time.time() - 1000
        expired = store.sweep()
        assert expired == [done.id]
        assert store.get(done.id) is None
        assert store.find(done.key) is None
        assert store.get(fresh.id) is not None
        # In-flight records NEVER expire, no matter how old.
        store.get(running.id).updated_at = time.time() - 10_000
        assert store.sweep() == []
        assert store.get(running.id).status == "running"
        # The durable mirror shrank on disk.
        assert len(list(jobs_dir.glob("*.json"))) == 2
        assert store.expired_total == 1
        counts = store.counts()
        assert counts["total"] == 2
        assert counts["expired"] == 1

    def test_startup_prunes_expired_mirror_files(self, tmp_path):
        store = JobStore(tmp_path)  # no TTL: writer keeps everything
        done, _ = store.submit(self._record("Done"))
        store.update(done.id, status="done", verdict=APPROVED)
        time.sleep(0.05)

        reborn = JobStore(tmp_path, ttl=0.01)  # restart with a tiny TTL
        assert reborn.get(done.id) is None
        assert reborn.expired_total == 1
        assert list((tmp_path / "jobs").glob("*.json")) == []
        # A resubmission after GC is a FRESH job.
        _record, created = reborn.submit(self._record("Done"))
        assert created

    def test_startup_prunes_expired_mirrors_it_cannot_load(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        legacy = asdict(self._record("Legacy", status="done", updated_at=0))
        knobs = legacy.pop("config")  # the top-level knob shape
        legacy.update(backend=knobs["backend"], encoding="auto",
                      kernel=knobs["kernel"])
        retired = asdict(self._record("Retired", status="done", updated_at=0))
        retired["config"]["backend"] = "portfolio"  # not a backend
        encoded = asdict(self._record("Encoded", status="done", updated_at=0))
        encoded["config"]["encoding"] = "monolithic"  # not a config field
        encoded["resolved_encoding"] = "monolithic"
        for name, data in (
            ("legacy", legacy), ("retired", retired), ("encoded", encoded),
        ):
            (jobs_dir / f"{name}.json").write_text(json.dumps(data))
        # Torn files have no readable updated_at: they age by mtime.
        stale = jobs_dir / "stale.json"
        stale.write_text('{"id": "job-torn", "upd')
        os.utime(stale, (0, 0))
        fresh = jobs_dir / "fresh.json"
        fresh.write_text('{"id": "job-torn", "upd')

        reborn = JobStore(tmp_path, ttl=60)
        # Every expired file is reaped whether or not it loads; the
        # unexpired torn one is skipped, and startup survives them all.
        assert list(jobs_dir.glob("*.json")) == [fresh]
        assert reborn.expired_total == 4
        assert reborn.counts()["total"] == 0

    def test_service_resubmission_after_gc_reruns_cleanly(
        self, instant_analysis, tmp_path
    ):
        service = SoteriaService(state_dir=tmp_path / "state", job_ttl=0.2)
        try:
            record, created = service.submit([("A", GOOD)])
            assert created
            assert service.wait(record.id, timeout=30).status == "done"
            assert service.stats()["jobs"]["total"] == 1
            time.sleep(0.3)
            # The lazy sweep on the submission path reaped the settled
            # record, so the identical resubmission is NEW work again —
            # and runs cleanly end to end.
            again, created = service.submit([("A", GOOD)])
            assert created
            assert again.id == record.id  # same key -> same (fresh) id
            assert service.wait(again.id, timeout=30).status == "done"
            stats = service.stats()
            assert stats["jobs"]["total"] == 1    # old record is gone
            assert stats["jobs"]["expired"] >= 1
            assert stats["service"]["job_ttl"] == 0.2
        finally:
            service.shutdown()

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            JobStore(tmp_path, ttl=0)
        with pytest.raises(ValueError):
            SoteriaService(job_ttl=-5)


# ----------------------------------------------------------------------
# The acceptance burst: 64 concurrent waiters on a 2-worker service
# ----------------------------------------------------------------------
class TestWaiterBurstAcceptance:
    def test_64_waiter_burst_bounded_and_clean(
        self, gated_analysis, tmp_path
    ):
        WAITERS = 64
        SLOTS = 16
        server = build_server(
            host="127.0.0.1", port=0, pool="thread", jobs=2,
            max_pending=WAITERS, tenant_quota=WAITERS, max_waiters=SLOTS,
            state_dir=tmp_path / "state",
        )
        service = server.service
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        statuses = []
        results = [None] * WAITERS

        def client(index):
            tenant = "alpha" if index % 2 == 0 else "beta"
            status, _headers, job = _request(
                server, "/v1/submissions?wait=30",
                {"source": f"// burst {index}\n" + GOOD, "name": f"B{index}"},
                headers={"X-Soteria-Tenant": tenant},
                timeout=120,
            )
            statuses.append(status)
            # Degraded waiters got a snapshot — poll to settlement like
            # a polite client would.
            deadline = time.time() + 60
            while job["status"] not in ("done", "failed"):
                assert time.time() < deadline, job
                time.sleep(0.1)
                _s, _h, job = _request(server, f"/v1/jobs/{job['id']}")
            results[index] = job

        try:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(WAITERS)
            ]
            for worker in threads:
                worker.start()
            # Let the burst land: every job admitted and in flight.
            deadline = time.time() + 30
            while len(service._events) < WAITERS:
                assert time.time() < deadline, (
                    f"only {len(service._events)} of {WAITERS} in flight"
                )
                time.sleep(0.05)
            # Saturated: one more submission is answered 429.
            status, headers, body = _request(
                server, "/v1/submissions",
                {"source": "// extra\n" + GOOD, "name": "Extra"},
            )
            assert status == 429
            assert headers.get("Retry-After", "").isdigit()
            # Open the gate; everything drains.
            gated_analysis.set()
            for worker in threads:
                worker.join(timeout=120)
                assert not worker.is_alive()

            # Zero 5xx across the whole burst; every job done.
            assert all(status == 201 for status in statuses), statuses
            assert all(job["status"] == "done" for job in results)
            # Handler threads were bounded: never one parked per waiter.
            stats = service._wait_stats
            assert stats["peak"] <= SLOTS, stats
            assert stats["degraded"] > 0, stats   # the excess degraded
            # ... and the registries are EMPTY after settlement.
            assert service._futures == {}
            assert service._events == {}
            assert service._sources == {}
            # Per-tenant counts are visible in /v1/stats.
            _s, _h, final = _request(server, "/v1/stats")
            tenants = final["jobs"]["tenants"]
            assert tenants["alpha"]["done"] == WAITERS // 2
            assert tenants["beta"]["done"] == WAITERS // 2
            assert final["service"]["waiters"]["peak"] <= SLOTS
            assert final["service"]["rejected"]["service"] >= 1
        finally:
            service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# A dead process-pool worker
# ----------------------------------------------------------------------
class TestBrokenProcessPool:
    def test_dead_worker_does_not_fail_later_jobs(self):
        # A killed worker breaks a ProcessPoolExecutor for good: every
        # later submit raises BrokenProcessPool.  The service must swap
        # in a fresh pool instead of failing every job after the death.
        service = SoteriaService(pool="process", jobs=1)
        try:
            if service.pool_kind != "process":
                pytest.skip("multiprocessing is unavailable here")
            first, _ = service.submit([("Good", GOOD)])
            assert service.wait(first.id, timeout=60).status == "done"
            broken = service._process_pool
            for pid in list(broken._processes):
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not broken._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert broken._broken, "the pool never noticed its dead worker"

            for name in ("Next", "Later"):
                record, created = service.submit(
                    [(name, GOOD.replace('"Good"', f'"{name}"'))]
                )
                assert created
                final = service.wait(record.id, timeout=60)
                assert final.status == "done", final.error
            assert service._process_pool is not broken
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Defaults
# ----------------------------------------------------------------------
class TestDefaults:
    def test_build_server_and_serve_default_to_the_process_pool(self):
        build_sig = inspect.signature(build_server)
        assert build_sig.parameters["pool"].default == "process"
        serve_sig = inspect.signature(app_mod.serve)
        assert serve_sig.parameters["pool"].default == "process"

    def test_oversized_wait_is_clamped(self, instant_analysis, tmp_path):
        server = build_server(
            host="127.0.0.1", port=0, pool="thread", jobs=1,
            state_dir=tmp_path / "state",
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _h, job = _request(
                server, "/v1/submissions?wait=999999",
                {"source": GOOD, "name": "A"},
            )
            assert status == 201
            assert job["status"] == "done"
        finally:
            server.service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
