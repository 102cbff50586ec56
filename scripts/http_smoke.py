#!/usr/bin/env python
"""End-to-end HTTP smoke test of the scheduling service (CI gate).

Starts a real ``AsyncServiceServer`` on an ephemeral port, drives it
through the thin :class:`~repro.service.ServiceClient` exactly like a
remote caller would, and checks the service contract:

1. ``/healthz`` answers;
2. a cold job submit returns a valid, verifiable schedule;
3. re-submitting the same job is served from the result cache
   (``X-Repro-Cache: result``) with reply bytes identical to the cold
   reply's (raw bodies compared, read with plain urllib), and the
   client's warm submit rides its persistent keep-alive connection;
4. a batch ``pdef`` sweep dedups and shares one catalog;
5. a malformed request comes back as a typed HTTP 400, not a stack trace;
6. the server can act as a remote shard: a catalog built through
   streamed ``POST /v1/catalog:shard:stream`` partitions merges
   bit-identical to the in-process fused catalog;
7. shard partials are content-addressed: repeating a shard task is
   answered by a stream frame with ``"cache": "shard"`` and identical
   buckets, and a fresh coordinator over the warm server rebuilds the
   catalog bit-identically with zero server-side DFS;
8. graph edits are incremental: recoloring one node of a submitted job
   through ``POST /v1/jobs:edit`` is answered ``X-Repro-Cache: edit``
   (only dirty partitions re-enumerated) and the answer is bit-identical
   to a fresh server cold-rebuilding the edited graph;
9. per-client quotas answer a typed 429 with ``Retry-After`` once one
   client's burst is spent, while other clients proceed; a graceful
   drain then answers 503 for new work while reads keep serving;
10. the fleet survives losing a shard: with three real ``repro serve``
   subprocesses, SIGKILLing one mid-job must open its circuit breaker,
   fail its partitions over to the survivors, and still merge a catalog
   bit-identical to the fused single-instance build.

Usage::

    PYTHONPATH=src python scripts/http_smoke.py
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request

from repro.service import AsyncServiceServer, JobRequest, JobResult, ServiceClient

#: Per-client quota of the main server: a burst no ordinary client of
#: this script comes near, refilled too slowly to matter, so step 9 can
#: spend one client's bucket deterministically.
QUOTA_BURST = 32


def post_job(url: str, request: JobRequest) -> "tuple[str, bytes]":
    """``POST /v1/jobs`` through plain urllib: (cache level, raw body)."""
    with urllib.request.urlopen(
        urllib.request.Request(
            url + "/v1/jobs",
            data=request.to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        ),
        timeout=30,
    ) as reply:
        return reply.headers["X-Repro-Cache"], reply.read()


def main() -> int:
    server = AsyncServiceServer(port=0, quota_rps=0.1, quota_burst=QUOTA_BURST)
    server.start_background()
    client = ServiceClient(server.url, timeout=30, client_id="smoke")
    try:
        health = client.health()
        assert health["status"] == "ok", health
        print(f"healthz ok ({health['backend']}) at {server.url}")

        # Cold and warm replies straight off the wire: the warm body is
        # the stored encoding of the cold result, so the bytes must match.
        request = JobRequest(capacity=5, pdef=4, workload="3dft")
        cold_level, cold_body = post_job(server.url, request)
        assert cold_level == "none", cold_level
        cold = JobResult.from_json(cold_body.decode("utf-8"))
        cold.schedule.verify()
        print(f"cold submit ok: {cold.length} cycles, cache={cold_level}")

        for _ in range(2):  # first hit memoizes, second replays the memo
            warm_level, warm_body = post_job(server.url, request)
            assert warm_level == "result", warm_level
            assert warm_body == cold_body, "warm reply bytes differ from cold"
        warm = client.submit(request)
        assert client.last_cache == "result", client.last_cache
        assert warm == cold, "warm HTTP result is not bit-identical"
        # The health check and the client's submit rode one pooled
        # keep-alive connection.
        assert len(client._conns) == 1, len(client._conns)
        print("warm submit ok: reply bytes identical to the cold reply, "
              "served from the result cache over one persistent connection")

        sweep = client.submit_many(
            [
                JobRequest(capacity=5, pdef=p, workload="5dft")
                for p in (2, 3, 3)
            ]
        )
        assert len(sweep) == 3 and sweep[1] == sweep[2]
        stats = client.stats()["stats"]
        assert stats["deduped"] >= 1, stats
        print(f"batch sweep ok: {[r.length for r in sweep]} cycles, "
              f"{stats['deduped']} deduped")

        # Malformed request straight onto the wire: must come back as a
        # typed 400 payload, which the client re-raises as the same
        # exception a local submit would have produced.
        try:
            urllib.request.urlopen(
                urllib.request.Request(
                    server.url + "/v1/jobs",
                    data=b'{"capacity": 0, "pdef": 1, "workload": "3dft"}',
                    headers={"Content-Type": "application/json"},
                    method="POST",
                ),
                timeout=30,
            )
        except urllib.error.HTTPError as exc:
            assert exc.code == 400, exc.code
            detail = json.loads(exc.read())["error"]
            assert detail["type"] == "JobValidationError", detail
            assert detail["field"] == "capacity", detail
            print(f"validation ok: typed 400 envelope ({detail['message']})")
        else:
            raise AssertionError("malformed request was accepted")

        # Remote shard: the server streams classified seed partitions and
        # the merged catalog is bit-identical to a local fused build.
        from repro.core.config import SelectionConfig
        from repro.core.selection import PatternSelector
        from repro.service import ShardCoordinator
        from repro.service.serialize import catalog_to_dict
        from repro.workloads import three_point_dft_paper

        cfg = SelectionConfig(span_limit=1)
        dfg = three_point_dft_paper()
        reference = PatternSelector(5, config=cfg).build_catalog(dfg)
        with ShardCoordinator([server.url]) as coord:
            sharded = coord.build_catalog(dfg, 5, config=cfg, workload="3dft")
        assert json.dumps(catalog_to_dict(sharded)) == json.dumps(
            catalog_to_dict(reference)
        ), "remote shard catalog is not bit-identical"
        print("remote shard ok: streamed catalog bit-identical to fused")

        # Warm shard partials: repeating a shard task must be answered
        # from the server's content-addressed partial cache (the stream
        # frame's cache field is "shard") with byte-identical buckets.
        from repro.service import ShardTask

        task = ShardTask(
            size=2, span_limit=1, max_count=None, seeds=(0, 1, 2),
            workload="3dft",
        )
        ((_, first_buckets, cold_level),) = client.classify_shard_stream([task])
        ((_, warm_buckets, warm_level),) = client.classify_shard_stream([task])
        assert warm_level == "shard", (cold_level, warm_level)
        assert warm_buckets == first_buckets, "cached partial differs"
        stats = client.stats()["stats"]
        assert stats["shard_hits"] >= 1, stats

        # A fresh coordinator over the warm server: bit-identical catalog,
        # every dispatched partition a remote partial hit, zero new DFS.
        misses_before = stats["shard_misses"]
        with ShardCoordinator([server.url]) as coord:
            rebuilt = coord.build_catalog(dfg, 5, config=cfg, workload="3dft")
            coord_stats = coord.stats
        assert json.dumps(catalog_to_dict(rebuilt)) == json.dumps(
            catalog_to_dict(reference)
        ), "warm shard catalog is not bit-identical"
        assert coord_stats.dispatched > 0, coord_stats.to_dict()
        assert (
            coord_stats.remote_partial_hits == coord_stats.dispatched
        ), coord_stats.to_dict()
        assert client.stats()["stats"]["shard_misses"] == misses_before, (
            "warm shard rebuild ran a server-side DFS"
        )
        print(
            f"warm shard ok: {coord_stats.dispatched} partitions served "
            f'from the partial cache ("cache": "shard"), zero DFS'
        )

        # Edit path: recolor one node of an already-submitted job.  The
        # warm server answers X-Repro-Cache: edit (only dirty partitions
        # re-enumerated) and the result must be bit-identical to a fresh
        # server cold-rebuilding the locally-edited graph.
        from repro.dfg.edit import DfgEdit, apply_edits
        from repro.service import EditRequest
        from repro.workloads import radix2_fft

        fft8 = radix2_fft(8)
        edit_cfg = SelectionConfig(span_limit=1)
        base_job = JobRequest(capacity=4, pdef=4, dfg=fft8, config=edit_cfg)
        client.submit(base_job)
        labels, colors = fft8.color_labels()
        names = list(fft8.nodes)
        first: dict[str, int] = {}
        for i in range(fft8.n_nodes):
            first.setdefault(colors[labels[i]], i)
        edit_op = next(
            DfgEdit.recolor(names[i], cand)
            for i in range(fft8.n_nodes)
            if first[colors[labels[i]]] != i
            for cand in colors
            if cand != colors[labels[i]] and first[cand] < i
        )
        edited_result = client.submit_edit(
            EditRequest(job=base_job, edits=(edit_op,))
        )
        assert client.last_cache == "edit", client.last_cache
        edited_result.schedule.verify()

        fresh = AsyncServiceServer(port=0)
        fresh.start_background()
        try:
            fresh_client = ServiceClient(fresh.url, timeout=30)
            edited_dfg = apply_edits(fft8, [edit_op])
            cold_edited = fresh_client.submit(
                JobRequest(capacity=4, pdef=4, dfg=edited_dfg, config=edit_cfg)
            )
            assert fresh_client.last_cache == "none", fresh_client.last_cache
        finally:
            fresh.shutdown()
        assert (
            edited_result.answer_dict() == cold_edited.answer_dict()
        ), "incremental edit result differs from a cold rebuild"
        print(
            f"edit ok: recolor {edit_op.node}->{edit_op.color} served "
            f"X-Repro-Cache: edit, bit-identical to a cold rebuild"
        )

        quota_and_drain(server, client, request)
    finally:
        client.close()
        server.shutdown()
    fault_leg()
    print("http smoke OK")
    return 0


def quota_and_drain(
    server: AsyncServiceServer, client: ServiceClient, request: JobRequest
) -> None:
    """Spend one client's quota (typed 429), then drain the server."""
    from repro.exceptions import ServiceOverloadedError, ServiceUnavailableError

    # Burst exhausted → typed 429 with a retry hint; another client id
    # still gets through.
    overloaded = None
    with ServiceClient(server.url, timeout=30, client_id="greedy") as greedy:
        for _ in range(2 * QUOTA_BURST):
            try:
                greedy.submit(request)
            except ServiceOverloadedError as exc:
                overloaded = exc
                break
    assert overloaded is not None, "quota never tripped"
    assert overloaded.http_status == 429
    assert overloaded.retry_after and overloaded.retry_after > 0
    client.submit(JobRequest(capacity=5, pdef=3, workload="3dft"))
    print(f"quota ok: 429 after the burst (Retry-After "
          f"{overloaded.retry_after}s), other clients unaffected")

    # Drain: flush + refuse new work with 503, reads keep serving.
    info = client.drain()
    assert info["draining"] is True, info
    try:
        with ServiceClient(server.url, timeout=30) as late:
            late.submit(request)
    except ServiceUnavailableError as exc:
        assert exc.http_status == 503
    else:
        raise AssertionError("drained server accepted work")
    assert client.health()["status"] == "draining"
    print(f"drain ok: flushed {info['flushed']}, new work answers 503, "
          f"reads still served")


def fault_leg() -> None:
    """Kill a shard mid-job: the fleet must degrade, not fail.

    Three real ``repro serve`` subprocesses behind one coordinator; the
    first is SIGKILLed as soon as the job is genuinely in flight.  The
    coordinator must retry, open the dead shard's breaker, fail its
    partitions over to the two survivors, and the merged catalog must
    still be bit-identical to the fused single-instance build.
    """
    import os
    import re
    import signal
    import subprocess
    import threading
    import time
    from pathlib import Path

    from repro.core.config import SelectionConfig
    from repro.core.selection import PatternSelector
    from repro.service import RetryPolicy, ShardCoordinator
    from repro.service.serialize import catalog_to_dict
    from repro.workloads import radix2_fft

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs, urls = [], []
    try:
        for _ in range(3):
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            procs.append(proc)
            line = proc.stdout.readline()
            m = re.search(r"http://[\d.]+:\d+", line or "")
            assert m, f"shard server failed to start (got {line!r})"
            urls.append(m.group(0))
            # Drain per-request logs so the pipe never fills and blocks.
            threading.Thread(target=proc.stdout.read, daemon=True).start()

        cfg = SelectionConfig(span_limit=1)
        dfg = radix2_fft(8)
        reference = PatternSelector(5, config=cfg).build_catalog(dfg)
        # threshold=1 ejects the victim on its first whole-call failure;
        # the long cooldown keeps the breaker visibly open afterwards.
        retry = RetryPolicy(
            connect_timeout=2.0,
            read_timeout=60.0,
            retries=1,
            backoff_base=0.01,
            backoff_cap=0.05,
            breaker_threshold=1,
            breaker_cooldown=300.0,
        )
        outcome: dict = {}
        with ShardCoordinator(urls, retry=retry) as coord:

            def build() -> None:
                try:
                    outcome["catalog"] = coord.build_catalog(
                        dfg, 5, config=cfg, workload="fft8"
                    )
                except BaseException as exc:  # surfaced on the main thread
                    outcome["error"] = exc

            worker = threading.Thread(target=build)
            worker.start()
            # Strike once the job is provably in flight (a first claim
            # has completed somewhere) but long before it drains.
            deadline = time.time() + 30.0
            while (
                time.time() < deadline
                and sum(coord.stats.tasks_per_shard) == 0
                and worker.is_alive()
            ):
                time.sleep(0.005)
            procs[0].send_signal(signal.SIGKILL)
            killed_at = time.time()
            worker.join(timeout=180.0)
            assert not worker.is_alive(), "sharded build hung after the kill"
            stats = coord.stats
            health = coord.describe()["health"]
        if "error" in outcome:
            raise outcome["error"]
        assert json.dumps(catalog_to_dict(outcome["catalog"])) == json.dumps(
            catalog_to_dict(reference)
        ), "degraded catalog is not bit-identical to the fused build"
        assert stats.retries + stats.failovers > 0, stats.to_dict()
        assert health[0]["state"] == "open", health[0]
        assert health[0]["opens"] >= 1, health[0]
        # The survivors carried the job — no in-process last resort.
        assert stats.local_fallbacks == 0, stats.to_dict()
        assert stats.tasks_per_shard[1] + stats.tasks_per_shard[2] > 0, (
            stats.to_dict()
        )
        print(
            f"fault ok: shard killed mid-job ({time.time() - killed_at:.1f}s "
            f"to recover), {stats.retries} retries, {stats.failovers} "
            f"failovers, breaker open, catalog bit-identical"
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
