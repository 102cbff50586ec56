"""Server core tests: the asyncio core behind ``repro serve``.

The contract under test: :class:`~repro.service.aio.AsyncServiceServer`
speaks the ``/v1`` wire protocol to the sync :class:`ServiceClient`
over keep-alive connections and adds:

* strict request framing — a malformed, negative or oversized
  ``Content-Length`` and any ``Transfer-Encoding`` body answer a typed
  400 envelope with ``Connection: close``, never a crashed handler;
* per-client token-bucket quotas → HTTP 429 with a ``Retry-After``
  hint, scoped to the offending client while other clients proceed;
* graceful drain: in-flight work finishes, profile state flushes, new
  work answers 503 with a retry hint, reads keep serving;
* server-push shard streaming with heartbeats on silent stretches,
  bit-identical to the in-process fused catalog under jittered
  latencies (hypothesis-pinned).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import MALFORMED_GRAPHS

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.io import dfg_digest
from repro.exceptions import (
    EnumerationLimitError,
    JobValidationError,
    PolicyError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.exec.process import merge_classified_parts
from repro.service import (
    AsyncServiceServer,
    JobRequest,
    JobResult,
    ServiceClient,
    ShardCoordinator,
    ShardTask,
)
from repro.service.http import CLIENT_HEADER
from repro.service.serialize import catalog_to_dict
from repro.service.shard import RemoteShard
from repro.workloads import three_point_dft_paper
from repro.workloads.synthetic import layered_dag

CFG = SelectionConfig(span_limit=1)


def _job(**overrides) -> JobRequest:
    params = {"capacity": 5, "pdef": 4, "workload": "3dft"}
    params.update(overrides)
    return JobRequest(**params)


def catalog_bits(catalog) -> str:
    return json.dumps(catalog_to_dict(catalog))


@pytest.fixture()
def server():
    server = AsyncServiceServer(port=0)
    server.start_background()
    yield server
    server.shutdown()


# --------------------------------------------------------------------------- #
# the wire protocol over keep-alive connections
# --------------------------------------------------------------------------- #
class TestAsyncCoreRoundTrip:
    def test_sync_client_round_trip(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            assert client.health()["status"] == "ok"
            assert "3dft" in client.workloads()
            cold = client.submit(_job())
            assert client.last_cache == "none"
            cold.schedule.verify()
            warm = client.submit(_job())
            assert client.last_cache == "result"
            assert warm == cold
            assert client.stats()["stats"]["result_hits"] == 1

    def test_keep_alive_reuses_one_connection(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            client.submit(_job())
            client.health()
            client.stats()
            # Three requests from one thread share one pooled connection.
            assert len(client._conns) == 1

    def test_validation_error_reraises_typed(self, server):
        # An unknown workload passes client-side construction but the
        # server rejects it — the envelope must re-raise typed with the
        # HTTP status attached.
        with ServiceClient(server.url, timeout=30) as client:
            with pytest.raises(JobValidationError) as exc:
                client.submit(_job(workload="no-such-workload"))
            assert exc.value.http_status == 400

    def test_close_is_idempotent_and_terminal(self, server):
        client = ServiceClient(server.url, timeout=30)
        client.health()
        client.close()
        client.close()
        with pytest.raises(ServiceError, match="closed"):
            client.health()


# --------------------------------------------------------------------------- #
# warm hits: answered on the loop from the result's stored bytes
# --------------------------------------------------------------------------- #
def _post(server, request: JobRequest) -> "tuple[int, str | None, bytes]":
    """``POST /v1/jobs`` on a fresh connection: status, cache level, raw body."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request(
            "POST",
            "/v1/jobs",
            body=request.to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, resp.getheader("X-Repro-Cache"), resp.read()
    finally:
        conn.close()


def _counters(server) -> dict:
    stats = server.service.describe()["stats"]
    del stats["stage_seconds"]  # wall clock, never equal across servers
    return stats


class TestWarmHits:
    def test_warm_bytes_equal_cold_bytes(self, server):
        cold = _post(server, _job())
        warm = _post(server, _job())
        again = _post(server, _job())
        assert cold[:2] == (200, "none")
        assert warm[:2] == again[:2] == (200, "result")
        assert warm[2] == cold[2] == again[2]
        stored = server.service.submit(_job())
        assert warm[2] == json.dumps(stored.to_dict()).encode("utf-8")

    def test_cold_results_keep_no_memoized_body(self, server):
        assert _post(server, _job())[1] == "none"
        assert _post(server, _job(pdef=3))[1] == "catalog"
        assert server.service.submit(_job())._wire is None
        assert server.service.submit(_job(pdef=3))._wire is None
        assert _post(server, _job())[1] == "result"
        assert server.service.submit(_job())._wire is not None

    def test_stats_match_inline_and_pooled_hits(self):
        servers = [AsyncServiceServer(port=0) for _ in range(2)]
        for s in servers:
            s.start_background()
        pooled = servers[1]
        pooled.service.cached_outcome = lambda request: None
        try:
            replies = [
                [_post(s, _job(pdef=pdef)) for pdef in (4, 4, 3, 4, 3)]
                for s in servers
            ]
            # Same levels and answers; bodies differ only in the cold
            # submits' wall-clock timings.
            answers = [
                [
                    (status, level, JobResult.from_json(body).answer_dict())
                    for status, level, body in side
                ]
                for side in replies
            ]
            assert answers[0] == answers[1]
            assert [level for _, level, _ in replies[0]] == [
                "none",
                "result",
                "catalog",
                "result",
                "result",
            ]
            assert _counters(servers[0]) == _counters(pooled)
            assert _counters(pooled)["result_hits"] == 3
        finally:
            for s in servers:
                s.shutdown()

    def test_unknown_policy_on_warm_hit_is_typed(self, server):
        assert _post(server, _job())[1] == "none"
        warm = _post(server, _job(policy="no-such-policy"))
        cold = _post(server, _job(pdef=3, policy="no-such-policy"))
        assert warm[0] == cold[0] == 422
        for _, _, body in (warm, cold):
            detail = json.loads(body)["error"]
            assert detail["type"] == "PolicyError"
            assert "unknown policy" in detail["message"]
        with ServiceClient(server.url, timeout=30) as client:
            with pytest.raises(PolicyError):
                client.submit(_job(policy="no-such-policy"))
        assert _counters(server)["result_hits"] == 0

    def test_max_pending_429_on_warm_hit(self):
        server = AsyncServiceServer(port=0, max_pending=1)
        server.start_background()
        try:
            assert _post(server, _job())[1] == "none"
            with server.service._admitted():  # hold the only slot
                status, _, body = _post(server, _job())
                assert status == 429
                assert json.loads(body)["error"]["type"] == "ServiceOverloadedError"
            assert _post(server, _job())[1] == "result"
            assert server.service.stats.rejected == 1
        finally:
            server.shutdown()

    def test_warm_submit_waits_for_a_held_lock(self, server):
        cold = _post(server, _job())
        replies: list = []
        lock = server.service._lock
        lock.acquire()
        try:
            sender = threading.Thread(
                target=lambda: replies.append(_post(server, _job()))
            )
            sender.start()
            sender.join(timeout=0.5)
            # Not answered inline: it waits on the pool for the lock.
            assert sender.is_alive() and replies == []
        finally:
            lock.release()
        sender.join(timeout=30)
        assert not sender.is_alive()
        assert replies == [(200, "result", cold[2])]
        # Once the lock is free again, hits are answered inline.
        assert _post(server, _job()) == replies[0]

    def test_concurrent_mixed_traffic_keeps_bytes_and_counters(self, server):
        # Warm hits on the loop race pool submits (cold jobs, and hits
        # pushed to the pool while a build holds the lock): every body
        # must stay the stored one and no counter update may be lost.
        jobs = [_job(pdef=pdef) for pdef in (2, 3, 4)]
        expected = {job.pdef: _post(server, job)[2] for job in jobs}
        graphs: dict = {}  # digest → never-submitted inline graph
        for seed in range(100):
            dfg = layered_dag(seed, layers=3, width=4)
            graphs.setdefault(dfg_digest(dfg), dfg)
        assert len(graphs) >= 24
        fresh = iter(graphs.values())
        fresh_lock = threading.Lock()
        errors: list[BaseException] = []

        def caller(index: int) -> None:
            try:
                for step in range(12):
                    if (index + step) % 4 == 0:
                        with fresh_lock:
                            dfg = next(fresh)
                        status, level, _ = _post(
                            server, JobRequest(capacity=4, pdef=3, dfg=dfg)
                        )
                        # "edit" when a partition's subgraph repeats.
                        assert status == 200 and level in ("none", "edit")
                    else:
                        job = jobs[(index + step) % 3]
                        assert _post(server, job) == (
                            200,
                            "result",
                            expected[job.pdef],
                        )
            except BaseException as exc:  # pragma: no cover - fail below
                errors.append(exc)

        before = _counters(server)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        after = _counters(server)
        cold = sum(1 for i in range(8) for s in range(12) if (i + s) % 4 == 0)
        assert after["submitted"] - before["submitted"] == 96
        assert after["result_hits"] - before["result_hits"] == 96 - cold
        assert after["result_misses"] - before["result_misses"] == cold

    def test_disk_only_entry_answered_through_the_pool(self, tmp_path):
        from repro.service import SchedulerService

        with SchedulerService(cache_dir=tmp_path) as writer:
            expected = writer.submit(_job()).wire_body()
        server = AsyncServiceServer(port=0, cache_dir=tmp_path)
        server.start_background()
        try:
            _post(server, _job(pdef=3))  # resolves the 3dft graph
            # Memory misses, so the lookup on the loop answers nothing
            # and the pool reads the disk store.
            assert server.service.cached_outcome(_job()) is None
            pooled = _post(server, _job())
            inline = _post(server, _job())
            assert pooled == inline == (200, "result", expected)
        finally:
            server.shutdown()


# --------------------------------------------------------------------------- #
# request framing: every unframeable request is a typed 400 + close
# --------------------------------------------------------------------------- #
class TestRequestFraming:
    @staticmethod
    def _exchange(server, raw: bytes) -> bytes:
        """Send ``raw`` on a fresh connection; everything read until EOF."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(raw)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)

    @staticmethod
    def _assert_single_400_close(reply: bytes, match: str) -> None:
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith("HTTP/1.1 400 "), reply
        assert "Connection: close" in lines[1:]
        # Exactly one response: nothing after the body was parsed as a
        # follow-up request, and the server closed the connection.
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        detail = json.loads(body)["error"]
        assert detail["type"] == "JobValidationError"
        assert match in detail["message"]

    #: The chunk payload hides a second request: it must never be parsed
    #: out of the keep-alive stream as one.
    _SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize(
        "framing, match",
        [
            (b"Content-Length: -1\r\n\r\n", "negative"),
            (
                b"Transfer-Encoding: chunked\r\n\r\n"
                + f"{len(_SMUGGLED):x}\r\n".encode("ascii")
                + _SMUGGLED
                + b"\r\n0\r\n\r\n",
                "Transfer-Encoding",
            ),
        ],
        ids=["negative-content-length", "chunked-body"],
    )
    def test_unframeable_request_is_typed_400_and_close(
        self, server, framing, match
    ):
        reply = self._exchange(
            server, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n" + framing
        )
        self._assert_single_400_close(reply, match)
        with ServiceClient(server.url, timeout=30) as client:
            assert client.health()["status"] == "ok"


class TestMalformedInlineGraphs:
    @pytest.fixture(scope="class")
    def graph_server(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        yield server
        server.shutdown()

    @pytest.mark.parametrize(
        "payload, error",
        list(MALFORMED_GRAPHS.values()),
        ids=list(MALFORMED_GRAPHS),
    )
    def test_submit_answers_typed_400(self, graph_server, payload, error):
        body = json.dumps({"capacity": 5, "pdef": 4, "dfg": payload})
        conn = http.client.HTTPConnection("127.0.0.1", graph_server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            status, reply = resp.status, json.loads(resp.read())
        finally:
            conn.close()
        assert status == 400
        assert reply["error"]["type"] == "JobValidationError"
        assert reply["error"]["field"] == "dfg"
        with ServiceClient(graph_server.url, timeout=30) as client:
            assert client.health()["status"] == "ok"


# --------------------------------------------------------------------------- #
# per-client quotas
# --------------------------------------------------------------------------- #
class TestQuota:
    @pytest.fixture()
    def quota_server(self):
        # Tiny refill rate so a burst exhausts and stays exhausted for
        # the duration of the test.
        server = AsyncServiceServer(port=0, quota_rps=0.1, quota_burst=2)
        server.start_background()
        yield server
        server.shutdown()

    def test_quota_429_with_retry_after_sync(self, quota_server):
        with ServiceClient(
            quota_server.url, timeout=30, client_id="greedy"
        ) as client:
            client.submit(_job())
            client.submit(_job())
            with pytest.raises(ServiceOverloadedError) as exc:
                client.submit(_job())
            assert exc.value.http_status == 429
            assert exc.value.retry_after is not None
            assert exc.value.retry_after > 0

    def test_retry_after_is_an_http_header_too(self, quota_server):
        body = _job().to_json().encode("utf-8")
        conn = http.client.HTTPConnection(
            "127.0.0.1", quota_server.port, timeout=30
        )
        try:
            status = 200
            headers = {}
            for _ in range(3):
                conn.request(
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={
                        "Content-Type": "application/json",
                        CLIENT_HEADER: "header-check",
                    },
                )
                resp = conn.getresponse()
                status = resp.status
                headers = dict(resp.getheaders())
                resp.read()
            assert status == 429
            assert float(headers["Retry-After"]) > 0
        finally:
            conn.close()

    def test_other_clients_unaffected(self, quota_server):
        with ServiceClient(
            quota_server.url, timeout=30, client_id="noisy"
        ) as noisy:
            noisy.submit(_job())
            noisy.submit(_job())
            with pytest.raises(ServiceOverloadedError):
                noisy.submit(_job())
            # A different client id has its own bucket and proceeds —
            # concurrently with the noisy client still being refused.
            errors: list[BaseException] = []

            def polite_worker():
                try:
                    with ServiceClient(
                        quota_server.url, timeout=30, client_id="polite"
                    ) as polite:
                        polite.submit(_job())
                        polite.submit(_job(pdef=3))
                except BaseException as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            worker = threading.Thread(target=polite_worker)
            worker.start()
            with pytest.raises(ServiceOverloadedError):
                noisy.submit(_job())
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert errors == []

    def test_reads_are_not_quota_gated(self, quota_server):
        with ServiceClient(
            quota_server.url, timeout=30, client_id="reader"
        ) as client:
            for _ in range(10):
                assert client.health()["status"] == "ok"
                client.stats()


# --------------------------------------------------------------------------- #
# graceful drain
# --------------------------------------------------------------------------- #
class TestDrain:
    def test_drain_flushes_then_refuses_work(self, server):
        with ServiceClient(server.url, timeout=30) as client:
            client.submit(_job())
            info = client.drain()
            assert info["draining"] is True
            assert isinstance(info["flushed"], int)
            with pytest.raises(ServiceUnavailableError) as exc:
                client.submit(_job(pdef=3))
            assert exc.value.http_status == 503
            assert exc.value.retry_after is not None
            # Reads keep serving while draining — that is the point.
            health = client.health()
            assert health["draining"] is True
            assert health["status"] == "draining"
            client.stats()

    def test_inflight_work_finishes_during_drain(self, server):
        started = threading.Event()
        release = threading.Event()
        original = server.service.submit_outcome

        def gated(request):
            started.set()
            assert release.wait(timeout=30)
            return original(request)

        server.service.submit_outcome = gated
        try:
            results: list = []
            errors: list[BaseException] = []

            def inflight():
                try:
                    with ServiceClient(server.url, timeout=60) as client:
                        results.append(client.submit(_job()))
                except BaseException as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            worker = threading.Thread(target=inflight)
            worker.start()
            assert started.wait(timeout=30)
            # Drain lands while the first request is mid-flight.
            server.drain()
            with pytest.raises(ServiceUnavailableError):
                with ServiceClient(server.url, timeout=30) as late:
                    late.submit(_job(pdef=3))
            release.set()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert errors == []
            # The admitted request completed normally despite the drain.
            assert len(results) == 1
            results[0].schedule.verify()
        finally:
            release.set()
            server.service.submit_outcome = original


# --------------------------------------------------------------------------- #
# streamed shard protocol
# --------------------------------------------------------------------------- #
def _shard_tasks(dfg, capacity: int, pieces: int) -> list[ShardTask]:
    from repro.exec.process import plan_seed_partitions

    parts = plan_seed_partitions(dfg, pieces)
    return [
        ShardTask(
            size=capacity,
            span_limit=CFG.span_limit,
            max_count=None,
            seeds=tuple(part),
            dfg=dfg,
        )
        for part in parts
    ]


class TestStreamedShard:
    @staticmethod
    def _assert_stream_matches_fused(url, dfg, tasks, capacity):
        """Stream ``tasks``; merged rows equal the in-process fused catalog."""
        with ServiceClient(url, timeout=30) as client:
            streamed: dict[int, list] = {}
            for slot, payload, _cache in client.classify_shard_stream(tasks):
                assert isinstance(payload, list)
                assert slot not in streamed
                streamed[slot] = payload
        assert sorted(streamed) == list(range(len(tasks)))
        merged = merge_classified_parts(
            dfg,
            [streamed[slot] for slot in range(len(tasks))],
            capacity=capacity,
            span_limit=CFG.span_limit,
            max_count=None,
        )
        reference = PatternSelector(capacity, config=CFG).build_catalog(dfg)
        assert catalog_bits(merged) == catalog_bits(reference)

    def test_stream_matches_batched_sync(self, server):
        """A streamed claimed batch merges to the fused catalog (3DFT)."""
        dfg = three_point_dft_paper()
        tasks = _shard_tasks(dfg, 4, 3)
        self._assert_stream_matches_fused(server.url, dfg, tasks, 4)

    def test_stream_matches_batched_async(self, server):
        """The same on a layered random graph."""
        dfg = layered_dag(7, layers=3, width=3)
        tasks = _shard_tasks(dfg, 4, 3)
        self._assert_stream_matches_fused(server.url, dfg, tasks, 4)

    def test_slot_error_is_slot_local(self, server):
        dfg = layered_dag(5, layers=3, width=4)
        tasks = _shard_tasks(dfg, 4, 3)
        # A global antichain ceiling of 1 fails that slot exactly like a
        # fused DFS would — the other slots still stream their rows.
        bad = ShardTask(
            size=tasks[1].size,
            span_limit=tasks[1].span_limit,
            max_count=1,
            seeds=tasks[1].seeds,
            dfg=dfg,
        )
        tasks[1] = bad
        with ServiceClient(server.url, timeout=30) as client:
            by_slot = {
                slot: payload
                for slot, payload, _cache in client.classify_shard_stream(tasks)
            }
        assert isinstance(by_slot[1], EnumerationLimitError)
        assert isinstance(by_slot[0], list) and isinstance(by_slot[2], list)

    def test_heartbeats_on_silent_stretches(self):
        server = AsyncServiceServer(port=0, heartbeat_interval=0.05)
        original = server.service.classify_shard_outcome

        def slow(task):
            time.sleep(0.4)
            return original(task)

        server.service.classify_shard_outcome = slow
        server.start_background()
        try:
            dfg = three_point_dft_paper()
            tasks = _shard_tasks(dfg, 4, 1)
            body = json.dumps(
                {"tasks": [task.to_dict() for task in tasks]}
            ).encode("utf-8")
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/v1/catalog:shard:stream",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                frames = []
                while True:
                    line = resp.readline()
                    if not line:
                        break
                    frames.append(json.loads(line))
                    if frames[-1].get("done"):
                        break
            finally:
                conn.close()
            heartbeats = [f for f in frames if "heartbeat" in f]
            assert heartbeats, frames
            assert all(f["heartbeat"] >= 0 for f in heartbeats)
            assert frames[-1] == {"done": True}
            slots = [f for f in frames if "slot" in f]
            assert len(slots) == 1 and "buckets" in slots[0]
        finally:
            server.service.classify_shard_outcome = original
            server.shutdown()


# --------------------------------------------------------------------------- #
# streamed shard fan-out: bit-identity under jitter (hypothesis-pinned)
# --------------------------------------------------------------------------- #
class TestStreamedCoordinator:
    @pytest.fixture()
    def jittered(self):
        control = {"rng": random.Random(0), "max_delay": 0.0}
        servers = []
        for _ in range(2):
            server = AsyncServiceServer(port=0, workers=2)
            original = server.service.classify_shard_outcome

            def slow(task, _original=original):
                time.sleep(control["rng"].uniform(0.0, control["max_delay"]))
                return _original(task)

            server.service.classify_shard_outcome = slow
            server.start_background()
            servers.append(server)
        yield servers, control
        for server in servers:
            server.shutdown()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    def test_jittered_stream_bit_identical(self, jittered, seed):
        servers, control = jittered
        control["rng"] = random.Random(seed)
        control["max_delay"] = 0.004
        # A fresh graph per example so the shard-partial cache cannot
        # short-circuit classification on later examples.
        dfg = layered_dag(seed % 1000, layers=3, width=3)
        reference = catalog_bits(
            PatternSelector(4, config=CFG).build_catalog(dfg)
        )
        with ShardCoordinator([s.url for s in servers]) as coord:
            built = coord.build_catalog(dfg, 4, config=CFG)
        assert catalog_bits(built) == reference

    def test_remote_shards_classify_over_the_stream_route(self, jittered):
        servers, _control = jittered
        dfg = three_point_dft_paper()
        reference = catalog_bits(
            PatternSelector(5, config=CFG).build_catalog(dfg)
        )
        with ShardCoordinator([s.url for s in servers]) as coord:
            built = coord.build_catalog(dfg, 5, config=CFG, workload="3dft")
            assert all(isinstance(s, RemoteShard) for s in coord.shards)
            dispatched = coord.stats.dispatched
        assert catalog_bits(built) == reference
        # Every dispatched partition was classified by a streaming server.
        served = sum(s.service.stats.shard_tasks for s in servers)
        assert served == dispatched >= 1
