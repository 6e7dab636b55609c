"""``service_mix``: closed-loop HTTP submissions against the service.

An in-process server (``build_server(pool="process", jobs=1)``, disk
artifact store, JSON job mirror) is driven by two client threads.  Each
client posts the next item of a seeded submission stream with
``?wait=`` and sends nothing else until the reply arrives.  The stream
is built before timing:

* ~60 % new single apps: generated apps (``repro.gen.generate_app``)
  and corpus apps under a fresh submission name;
* ~25 % an earlier submission repeated under the other tenant: a new
  job whose stage artifacts the store already holds;
* ~10 % an exact resubmission, which attaches to the existing job;
* ~5 % environment jobs: Table 4 groups and MalIoT environments.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import shutil
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import layers
import oracles
from common import OUT, median, metric, peak_rss_mb, tail
from repro.corpus.loader import app_ids, load_source
from repro.gen.generator import GenConfig, generate_app
from repro.mc.kernel import aggregate_kernel_stats, reset_kernel_stats
from repro.service.app import build_server
from tracing import Recorder

WHY = {
    "service_mix": "market review over HTTP: callers wait for verdicts, so "
    "admission, queueing, the worker pool, the store and the job store all "
    "sit on the latency path",
}

TENANTS = ("alpha", "beta")
#: Generated apps stay small, so one slow outlier cannot dominate a run.
GEN_CONFIG = GenConfig(state_budget=64)
#: Submissions per second of run budget: a run posts a fixed number of
#: submissions (about ``seconds`` long at the nominal rate), so memory
#: and work do not depend on how fast the machine happened to be.
ITEMS_PER_SECOND = 55
#: One block of the stream: the mix is exact per block of 20 items and
#: only the order inside a block is shuffled, so the proportions do not
#: move between seeds.
BLOCK = ("gen",) * 8 + ("corpus",) * 4 + ("cross",) * 5 + ("attach",) * 2 + ("env",)
#: Repeats refer back at least this many items, so the job they repeat
#: has almost always been answered already (clients also wait for it).
REPEAT_GAP = 8
REPEAT_WINDOW = 64
SETUPS = 3
WAIT_S = 60


def build_stream(seed: int, count: int) -> list[dict]:
    """The seeded submission stream (``count`` items)."""
    rng = random.Random(f"perfbench-service:{seed}")
    corpus = [i for ds in ("official", "thirdparty", "maliot") for i in app_ids(ds)]
    corpus = [i for i in corpus if oracles.corpus_app_has_oracle(i)]
    envs = oracles.environment_expectations()
    # Corpus apps and environments are taken round-robin from a seeded
    # starting point, so every seed submits nearly the same population.
    corpus_at = rng.randrange(len(corpus))
    env_at = rng.randrange(len(envs))
    items: list[dict] = []
    originals: list[int] = []  # items that submit a body for the first time
    creators: list[int] = []  # items that create a job: originals and crosses
    crossed: set[int] = set()
    kinds: list[str] = []
    for index in range(count):
        if not kinds:
            kinds = list(BLOCK)
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind in ("cross", "attach"):
            if kind == "cross":
                pool = [j for j in originals[-REPEAT_WINDOW:]
                        if j <= index - REPEAT_GAP and j not in crossed]
            else:
                pool = [j for j in creators[-REPEAT_WINDOW:] if j <= index - REPEAT_GAP]
            if pool:
                ref = items[rng.choice(pool)]
                tenant = ref["tenant"]
                if kind == "cross":
                    tenant = TENANTS[1 - TENANTS.index(tenant)]
                    crossed.add(ref["index"])
                    creators.append(index)
                items.append({"kind": kind, "ref": ref["index"], "body": ref["body"],
                              "tenant": tenant, "index": index})
                continue
            kind = "gen"  # nothing to repeat yet
        tenant = rng.choice(TENANTS)
        if kind == "env":
            label, members, required = envs[env_at % len(envs)]
            env_at += 1
            body = {"sources": [{"name": f"{m}-s{seed}-{index}", "source": load_source(m)}
                                for m in members]}
            item = {"kind": "env", "label": label, "required": sorted(required)}
        elif kind == "gen":
            app = generate_app(seed, index, config=GEN_CONFIG)
            body = {"name": f"gen-s{seed}-{index}", "source": app.source}
            item = {"kind": "gen", "injected": list(app.injected)}
        else:
            app_id = corpus[corpus_at % len(corpus)]
            corpus_at += 1
            body = {"name": f"{app_id}-s{seed}-{index}", "source": load_source(app_id)}
            item = {"kind": "corpus", "app": app_id}
        item.update({"body": body, "tenant": tenant, "index": index})
        items.append(item)
        originals.append(index)
        creators.append(index)
    return items


def start_server(root: Path):
    server = build_server(
        port=0,
        cache_dir=root / "cache",
        state_dir=root / "state",
        jobs=1,
        pool="process",
        max_pending=64,
        tenant_quota=16,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread) -> None:
    server.shutdown()
    thread.join(timeout=30)
    server.service.shutdown()
    server.server_close()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def post(base: str, item: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{base}/v1/submissions?wait={WAIT_S}",
        data=json.dumps(item["body"]).encode(),
        headers={"Content-Type": "application/json",
                 "X-Soteria-Tenant": item["tenant"]},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=WAIT_S + 30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, {"error": exc.read().decode(errors="replace")}


class Driver:
    """Two closed-loop clients sharing one stream cursor."""

    def __init__(self, base: str, items: list[dict]):
        self.base = base
        self.items = items
        self.cursor = 0
        self.lock = threading.Lock()
        self.done = {item["index"]: threading.Event() for item in items}
        self.replies: dict[int, dict] = {}

    def _next(self, stop: int) -> dict | None:
        with self.lock:
            if self.cursor >= stop:
                return None
            item = self.items[self.cursor]
            self.cursor += 1
            return item

    def _client(self, stop: int) -> None:
        while (item := self._next(stop)) is not None:
            if "ref" in item:
                self.done[item["ref"]].wait(WAIT_S)
            start = time.perf_counter()
            try:
                status, reply = post(self.base, item)
            except OSError as exc:
                status, reply = 0, {"error": f"{type(exc).__name__}: {exc}"}
            end = time.perf_counter()
            self.replies[item["index"]] = {
                "status": status, "reply": reply, "latency": end - start,
            }
            self.done[item["index"]].set()

    def drive(self, count: int, clients: int = 2) -> tuple[list[int], float, float]:
        """Post the next ``count`` items; returns their indices and the
        window's start and end."""
        first = self.cursor
        stop = min(len(self.items), first + count)
        start = time.perf_counter()
        threads = [threading.Thread(target=self._client, args=(stop,))
                   for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        return list(range(first, self.cursor)), start, end


def verify(items: list[dict], replies: dict, jobs) -> list[str]:
    """Oracle over every answered submission (runs after timing)."""
    failures = []
    by_index = {item["index"]: item for item in items}
    for index, answer in sorted(replies.items()):
        item = by_index[index]
        reply = answer["reply"]
        label = f"item {index} ({item['kind']})"
        expected_status = 200 if item["kind"] == "attach" else 201
        if answer["status"] != expected_status:
            error = str(reply.get("error") or reply.get("status"))[:120]
            failures.append(f"{label}: HTTP {answer['status']} {error}")
            continue
        record = jobs.get(reply["id"])
        if record is None or record.status != "done":
            failures.append(f"{label}: job not done ({reply.get('status')})")
            continue
        violated = {v["property_id"] for v in record.violations}
        if item["kind"] == "gen":
            reason = oracles.check_required(label, item["injected"], violated)
        elif item["kind"] == "corpus":
            reason = oracles.check_corpus_app(item["app"], record.violations)
        elif item["kind"] == "env":
            reason = oracles.check_required(
                f"{label} {item['label']}", item["required"], violated
            )
        else:
            original = replies.get(item["ref"])
            if original is None or original["status"] not in (200, 201):
                reason = f"{label}: original item {item['ref']} was not answered"
            else:
                first = jobs.get(original["reply"]["id"])
                reason = oracles.check_same(
                    label, {v["property_id"] for v in first.violations}, violated
                )
                if item["kind"] == "attach" and reply["id"] != first.id:
                    reason = f"{label}: attached to {reply['id']}, not {first.id}"
        if reason:
            failures.append(reason)
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"tmp-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups = []
    server = thread = None
    try:
        for attempt in range(SETUPS):
            if server is not None:
                stop_server(server, thread)
            start = time.perf_counter()
            items = build_stream(seed, max(100, round(ITEMS_PER_SECOND * seconds)))
            server, thread = start_server(workdir / f"setup{attempt}")
            setups.append(time.perf_counter() - start)
        host, port = server.server_address[:2]
        driver = Driver(f"http://{host}:{port}", items)
        recorder = None
        if trace:
            untraced, _start, _end = driver.drive(len(items) // 2)
            reset_kernel_stats()
            recorder = Recorder(f"{workload}-{seed}")
            layers.install_service(recorder)
            try:
                answered, start, end = driver.drive(len(items))
            finally:
                recorder.restore()
        else:
            answered, start, end = driver.drive(len(items))
        kernel = aggregate_kernel_stats().get("fast", {})
        failures = verify(items, driver.replies, server.service.jobs)
    finally:
        if server is not None:
            stop_server(server, thread)
        shutil.rmtree(workdir, ignore_errors=True)

    unanswered = [i for i in range(driver.cursor) if i not in driver.replies]
    failures += [f"item {i}: no reply" for i in unanswered]
    answered = [i for i in answered if i in driver.replies]
    latencies = [1000 * driver.replies[i]["latency"] for i in answered]
    by_kind: dict[str, list[float]] = {}
    for i, latency in zip(answered, latencies):
        by_kind.setdefault(items[i]["kind"], []).append(latency)
    pct, tail_ms, count = tail(latencies)
    notes = [
        f"op = one submission, settled; {len(latencies)} answered by 2 closed-loop clients",
        f"job_tail_ms is p{pct:.1f} of {count} submissions",
    ] + [
        f"{kind}: {len(values)} submissions, p50 {median(values):.2f} ms"
        for kind, values in sorted(by_kind.items())
    ]
    outcome = {
        "setup_s": median(setups),
        "attempted": max(1, driver.cursor),
        "failures": failures,
        "params": {
            "clients": 2, "workers": 1, "pool": "process",
            "stream_items": len(items), "gen_state_budget": GEN_CONFIG.state_budget,
            "mix": {kind: len(v) for kind, v in by_kind.items()},
        },
        "notes": notes,
        "samples": {"setup_body_s": setups},
    }
    if trace:
        client_rows = [
            {"job": driver.replies[i]["reply"].get("id"),
             "created": driver.replies[i]["reply"].get("created", False),
             "latency": driver.replies[i]["latency"]}
            for i in answered
        ]
        before = [1000 * driver.replies[i]["latency"] for i in untraced
                  if i in driver.replies]
        values, span_notes = layers.derive(
            recorder.spans,
            [(start, end)],
            kernel=kernel,
            clients=client_rows,
            overhead_s=(median(latencies) - median(before)) / 1000,
        )
        outcome["trace_metrics"] = layers.as_metrics(values)
        outcome["notes"] += span_notes + [
            "stage, store and checker spans run in the process-pool worker, "
            "out of reach of the wrappers: they show only in service.run_ms"
        ]
        outcome["spans"] = recorder.dump()
        return outcome
    p50 = median(latencies)
    outcome["end_to_end"] = {
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "op_mean_ms": metric(sum(latencies) / len(latencies), "ms"),
        "ops_per_s": metric(len(latencies) / (end - start), "1/s"),
    }
    outcome["named"] = {
        "job_p50_ms": metric(p50, "ms"),
        "job_tail_ms": metric(tail_ms, "ms"),
        "jobs_per_s": metric(len(latencies) / (end - start), "1/s"),
    }
    return outcome
