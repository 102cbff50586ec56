"""The four workloads: what each primes, sends, verifies and replays.

Every workload drives live ``repro serve`` processes from this one
load-generator process, through the public ``ServiceClient`` or through
a ``ShardCoordinator`` over the fleet.  All loops are closed: each caller
waits for its reply before sending again.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.service import (
    EditRequest,
    JobRequest,
    SchedulerService,
    ServiceClient,
    ShardCoordinator,
)
from repro.workloads import WORKLOADS as GRAPHS

from . import streams
from .loadgen import Caller, Send, Window
from .oracle import Oracle
from .replay import Replayer
from .servers import Fleet
from .tracing import Tracer

CLIENT_TIMEOUT_S = 120.0


def http_sender(client: ServiceClient) -> Send:
    def send(kind: str, request: Any) -> tuple[Any, str | None]:
        if kind == "edit":
            result = client.submit_edit(request)
        else:
            result = client.submit(request)
        return result, client.last_cache

    return send


def coordinator_sender(coordinator: ShardCoordinator) -> Send:
    def send(kind: str, request: Any) -> tuple[Any, str | None]:
        outcome = coordinator.submit_outcome(request)
        return outcome.result, outcome.cache

    return send


def sample_indices(seed: int, tag: str, k: int, population: int) -> set[int]:
    """A seeded sample of request indices kept for the oracle check."""
    return set(random.Random(f"keep:{tag}:{seed}").sample(range(population), k))


def precomputed(stream: Iterator, n: int) -> Iterator:
    """The first ``n`` items generated now (before the window), then lazily."""
    head = list(itertools.islice(stream, n))
    return itertools.chain(head, stream)


def labelled(kind: str, stream: Iterator) -> Iterator[tuple[str, Any]]:
    return ((kind, request) for request in stream)


# --------------------------------------------------------------------------- #
# per-layer metrics read from outside the server
# --------------------------------------------------------------------------- #
def delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def service_layer_metrics(after: dict, before: dict) -> dict[str, float]:
    """Hit ratios and mean stage times over the window, from service stats."""
    hits = delta(after, before, "result_hits")
    misses = delta(after, before, "result_misses")
    p_hits = delta(after, before, "partition_hits")
    p_misses = delta(after, before, "partition_misses")
    out = {
        "service.service.result_hit_ratio": ratio(hits, hits + misses),
        "service.service.partition_hit_ratio": ratio(p_hits, p_hits + p_misses),
    }
    for stage in ("catalog", "selection", "schedule", "metrics"):
        seconds = delta(after["stage_seconds"], before["stage_seconds"], stage)
        count = delta(after["stage_counts"], before["stage_counts"], stage)
        out[f"service.service.stage_{stage}_ms"] = ratio(seconds * 1e3, count)
    return out


def merge_stats(snapshots: list[dict]) -> dict:
    """Sum the ``stats`` blocks of several servers."""
    total: dict = {"stage_seconds": {}, "stage_counts": {}}
    for snap in snapshots:
        for key, value in snap.items():
            if isinstance(value, dict):
                sub = total.setdefault(key, {})
                for name, v in value.items():
                    sub[name] = sub.get(name, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


# --------------------------------------------------------------------------- #
@dataclass
class Verified:
    """The post-window requests: how many, wrong cache levels, cycles."""

    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, label: str, level: str | None, want: str) -> None:
        self.attempted += 1
        if level != want:
            self.failed += 1
            self.notes.append(f"{label}: cache level {level!r}, expected {want!r}")


class Workload:
    """Base: one server, HTTP callers, per-layer stats from ``GET /stats``."""

    name = ""
    servers = 1
    #: The request class whose latency ``p50_ms``/``p90_ms`` report.
    primary = "read"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.fleet: Fleet | None = None
        self.clients: list[ServiceClient] = []

    def attach(self, fleet: Fleet) -> None:
        self.fleet = fleet

    def client(self, url: str | None = None) -> ServiceClient:
        client = ServiceClient(url or self.fleet.urls[0], timeout=CLIENT_TIMEOUT_S)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for client in self.clients:
            client.close()

    # hooks ------------------------------------------------------------ #
    def prime(self) -> None:
        """Fill caches and finish lazy set-up before the window."""

    def callers(self) -> list[Caller]:
        raise NotImplementedError

    def stats(self) -> dict:
        snapshots = [self.client(url).stats()["stats"] for url in self.fleet.urls]
        return merge_stats(snapshots)

    def layer_metrics(self, before: dict, after: dict) -> dict[str, float]:
        return service_layer_metrics(after, before)

    def verify(self, window: Window, oracle: Oracle) -> Verified:
        raise NotImplementedError

    def replay_prepare(self) -> None:
        """Untimed set-up before each replay pass (fresh caches, inputs)."""

    def replay(self, tracer: Tracer) -> None:
        raise NotImplementedError

    # shared pieces ---------------------------------------------------- #
    def check_kept(self, window: Window, oracle: Oracle) -> None:
        for i, (kind, request, result) in enumerate(window.kept):
            oracle.add(f"{kind} sample {i}", request, result)

    def verify_reads(self, corpus: list[JobRequest], oracle: Oracle) -> Verified:
        """Re-read every distinct corpus job: level ``result``, oracle answers."""
        out = Verified()
        client = self.client()
        for i, job in enumerate(corpus):
            result = client.submit(job)
            out.expect(f"corpus {i}", client.last_cache, "result")
            oracle.add(f"corpus {i} ({job.workload})", job, result)
            out.cycles += result.length
        return out

    def verify_builds(
        self,
        requests: list[JobRequest],
        send: Send,
        want: str,
        oracle: Oracle,
        out: Verified,
    ) -> None:
        """The fixed verification graphs: level ``want``, oracle answers."""
        for i, request in enumerate(requests):
            result, level = send("build", request)
            out.expect(f"verify build {i}", level, want)
            oracle.add(f"verify build {i}", request, result)
            out.cycles += result.length


class WarmHits(Workload):
    """2 clients, seeded skewed draws over a primed corpus: all result hits."""

    name = "warm-hits"
    primary = "read"
    replay_reads = 100  # per caller

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.corpus = streams.warm_corpus() + [streams.FFT64_JOB]
        self.counts = streams.warm_counts(len(self.corpus) - 1, rare=1)
        self._primed: SchedulerService | None = None

    def prime(self) -> None:
        client = self.client()
        for job in self.corpus:
            client.submit(job)

    def _reads(self, caller: int) -> Iterator[tuple[str, JobRequest]]:
        draws = streams.warm_stream(self.seed, caller, self.counts)
        return labelled("read", (self.corpus[j] for j in draws))

    def callers(self) -> list[Caller]:
        expected = {"read": "result"}
        return [
            Caller(http_sender(self.client()), self._reads(c), expected)
            for c in range(2)
        ]

    def verify(self, window: Window, oracle: Oracle) -> Verified:
        return self.verify_reads(self.corpus, oracle)

    def replay_prepare(self) -> None:
        if self._primed is None:
            self._primed = SchedulerService()
            for job in self.corpus:
                self._primed.submit(job)

    def replay(self, tracer: Tracer) -> None:
        replayer = Replayer(tracer)
        for c in range(2):
            reads = itertools.islice(self._reads(c), self.replay_reads)
            for k, (_, job) in enumerate(reads):
                replayer.read(f"read-{c}-{k}", job, self._primed)

    def close(self) -> None:
        super().close()
        if self._primed is not None:
            self._primed.close()


class ColdBuilds(Workload):
    """1 client, never-repeating inline graphs: every cache level misses."""

    name = "cold-builds"
    primary = "build"
    replay_builds = 40

    def prime(self) -> None:
        client = self.client()
        warmup = streams.cold_stream(self.seed, tag="cold-warmup")
        for request in itertools.islice(warmup, 3):
            client.submit(request)

    def callers(self) -> list[Caller]:
        builds = labelled("build", streams.cold_stream(self.seed))
        return [
            Caller(
                http_sender(self.client()),
                precomputed(builds, int(self.seconds * 60)),
                {"build": "none"},
                keep=sample_indices(self.seed, self.name, 4, 64),
            )
        ]

    def verify(self, window: Window, oracle: Oracle) -> Verified:
        out = Verified()
        send = http_sender(self.client())
        self.verify_builds(streams.verify_cold(8), send, "none", oracle, out)
        self.check_kept(window, oracle)
        return out

    def replay_prepare(self) -> None:
        stream = streams.cold_stream(self.seed)
        self._inputs = list(itertools.islice(stream, self.replay_builds))

    def replay(self, tracer: Tracer) -> None:
        replayer = Replayer(tracer)
        for k, request in enumerate(self._inputs):
            replayer.build(f"build-{k}", request)


class ReadWrite(Workload):
    """One warm reader beside one writer (3 edits of FFT-16, then a cold graph).

    Reads here are bimodal: clear, or blocked behind a whole write.  Their
    median sits between the two modes and is unstable, so the gated
    latency (``primary``) is the writer's edits.  Head-of-line blocking
    shows in ``throughput_rps``, which the reader dominates, and in the
    printed ``read_p50_ms``/``read_p90_ms``.
    """

    name = "read-write"
    primary = "edit"
    replay_reads = 100
    replay_writes = 16

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.corpus = streams.warm_corpus()
        self.counts = streams.warm_counts(len(self.corpus))
        self._service: SchedulerService | None = None

    def prime(self) -> None:
        client = self.client()
        for job in self.corpus:
            client.submit(job)
        warmup = streams.cold_stream(self.seed, tag="rw-warmup")
        for request in itertools.islice(warmup, 2):
            client.submit(request)

    def _reads(self) -> Iterator[tuple[str, JobRequest]]:
        draws = streams.warm_stream(self.seed, 0, self.counts)
        return labelled("read", (self.corpus[j] for j in draws))

    def _writes(self) -> Iterator[tuple[str, Any]]:
        for request in streams.write_stream(self.seed):
            yield ("edit" if isinstance(request, EditRequest) else "build"), request

    def callers(self) -> list[Caller]:
        # Every fourth write is a cold graph: keep one edit and one build.
        rng = random.Random(f"keep:{self.name}:{self.seed}")
        keep = {rng.randrange(0, 12, 4), rng.randrange(3, 15, 4)}
        reader = Caller(http_sender(self.client()), self._reads(), {"read": "result"})
        writer = Caller(
            http_sender(self.client()),
            precomputed(self._writes(), int(self.seconds * 12)),
            {"edit": "edit", "build": "none"},
            keep=keep,
        )
        return [reader, writer]

    def verify(self, window: Window, oracle: Oracle) -> Verified:
        out = self.verify_reads(self.corpus, oracle)
        send = http_sender(self.client())
        self.verify_builds(streams.verify_cold(4), send, "none", oracle, out)
        self.check_kept(window, oracle)
        return out

    def replay_prepare(self) -> None:
        """A fresh primed service and partition cache, so no edit repeats."""
        self.close_replay()
        self._service = SchedulerService()
        for job in self.corpus:
            self._service.submit(job)
        self._base = GRAPHS[streams.EDIT_BASE.workload]()
        self._replayer = Replayer(Tracer(enabled=False))
        self._replayer.stages("prime", streams.EDIT_BASE, self._base)
        self._inputs = (
            list(itertools.islice(self._reads(), self.replay_reads)),
            list(itertools.islice(self._writes(), self.replay_writes)),
        )

    def replay(self, tracer: Tracer) -> None:
        replayer, service = self._replayer, self._service
        replayer.tracer = tracer
        reads, writes = self._inputs
        for k, (_, job) in enumerate(reads):
            replayer.read(f"read-{k}", job, service)
        for k, (kind, request) in enumerate(writes):
            if kind == "edit":
                replayer.edit(f"edit-{k}", request, service, self._base)
            else:
                replayer.build(f"build-{k}", request)

    def close_replay(self) -> None:
        if self._service is not None:
            self._service.close()
            self._service = None

    def close(self) -> None:
        self.close_replay()
        super().close()


class ShardedCold(Workload):
    """A ShardCoordinator over 2 spawned shards; 1 caller, larger cold graphs.

    The coordinator's completion service runs in this process, so its
    replies come from the catalog the fleet built: cache level ``catalog``.
    """

    name = "sharded-cold"
    servers = 2
    primary = "build"
    replay_builds = 16

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.coordinator: ShardCoordinator | None = None

    def attach(self, fleet: Fleet) -> None:
        super().attach(fleet)
        self.coordinator = ShardCoordinator(fleet.urls)

    def prime(self) -> None:
        warmup = streams.shard_stream(self.seed, tag="shard-warmup")
        for request in itertools.islice(warmup, 2):
            self.coordinator.submit(request)

    def callers(self) -> list[Caller]:
        builds = labelled("build", streams.shard_stream(self.seed))
        return [
            Caller(
                coordinator_sender(self.coordinator),
                precomputed(builds, int(self.seconds * 20)),
                {"build": "catalog"},
                keep=sample_indices(self.seed, self.name, 3, 32),
            )
        ]

    def stats(self) -> dict:
        return {
            "service": self.coordinator.service.stats.to_dict(),
            "coordinator": self.coordinator.stats.to_dict(),
        }

    def layer_metrics(self, before: dict, after: dict) -> dict[str, float]:
        out = service_layer_metrics(after["service"], before["service"])
        c0, c1 = before["coordinator"], after["coordinator"]
        out["service.shard.tasks_per_claim"] = ratio(
            delta(c1, c0, "dispatched"), delta(c1, c0, "claim_rounds")
        )
        for key in ("retries", "failovers", "remote_partial_hits"):
            out[f"service.shard.{key}"] = delta(c1, c0, key)
        return out

    def verify(self, window: Window, oracle: Oracle) -> Verified:
        out = Verified()
        send = coordinator_sender(self.coordinator)
        self.verify_builds(streams.verify_shard(4), send, "catalog", oracle, out)
        self.check_kept(window, oracle)
        return out

    def replay_prepare(self) -> None:
        """Drop the shards' partials so the replay's builds are cold again."""
        for url in self.fleet.urls:
            self.client(url).clear_caches()
        stream = streams.shard_stream(self.seed)
        self._inputs = list(itertools.islice(stream, self.replay_builds))

    def replay(self, tracer: Tracer) -> None:
        replayer = Replayer(tracer)
        with ShardCoordinator(self.fleet.urls) as coordinator:
            for k, request in enumerate(self._inputs):
                replayer.build(f"build-{k}", request, coordinator=coordinator)

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
        super().close()


WORKLOADS: dict[str, Callable[[int, float], Workload]] = {
    w.name: w for w in (WarmHits, ColdBuilds, ReadWrite, ShardedCold)
}
