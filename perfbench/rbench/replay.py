"""In-process replay of a request stream with a span around each layer call.

The replay walks the same steps a request takes through the live stack
(client encode, server decode, the service call, result encode, client
decode) and then re-runs the service's build stages one public function
at a time, so every layer's share of a request is measured from the
benchmark's side.  ``service.service.submit`` times the program's own
``submit_outcome`` for the request; the ``replay.stages`` subtree is the
layer-by-layer account of the same work, and :func:`tracing.coverage`
compares the two.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.metrics import schedule_stats
from repro.core.selection import PatternSelector
from repro.dfg.antichains import AntichainEnumerator
from repro.dfg.edit import apply_edits
from repro.dfg.graph import DFG
from repro.dfg.io import dfg_digest
from repro.dfg.validate import validate_dfg
from repro.exec import get_backend
from repro.exec.process import (
    classify_partition_rows,
    merge_classified_parts,
    plan_seed_partitions,
)
from repro.scheduling.scheduler import MultiPatternScheduler
from repro.service import EditRequest, JobRequest, JobResult, SchedulerService
from repro.service.service import EDIT_PARTITIONS, shard_partial_key

from .tracing import Tracer


def expect_level(outcome: Any, want: str) -> None:
    """The replayed call must take the path its spans claim to measure."""
    if outcome.cache != want:
        raise RuntimeError(f"replay answered at {outcome.cache!r}, not {want!r}")


class Replayer:
    """Replays requests through the layers, recording spans on ``tracer``.

    ``partials`` mirrors a long-lived service's content-addressed
    partition cache (partition key -> classified rows), so an edit
    re-classifies exactly the partitions the service would.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.backend = get_backend("fused")
        self.partials: dict[tuple, list] = {}

    # ------------------------------------------------------------------ #
    def _result(self, rid: str, result: JobResult) -> None:
        span = self.tracer.span
        with span("service.jobs.result_encode", rid):
            body = result.to_json()
        self.tracer.count("service.jobs.result_kb", rid, len(body) / 1024.0)
        with span("service.jobs.result_decode", rid):
            JobResult.from_json(body)

    def read(self, rid: str, request: JobRequest, service: SchedulerService) -> None:
        """A warm submit answered by ``service``'s result cache."""
        span = self.tracer.span
        with span("request", rid):
            with span("service.jobs.request_encode", rid):
                text = request.to_json()
            with span("service.jobs.request_decode", rid):
                decoded = JobRequest.from_json(text)
            with span("service.service.lookup", rid):
                outcome = service.submit_outcome(decoded)
            self._result(rid, outcome.result)
        expect_level(outcome, "result")

    def build(self, rid: str, request: JobRequest, coordinator: Any = None) -> None:
        """A cold submit on a fresh service, then its stages one by one.

        With a ``coordinator``, the request's catalog is first built on
        the live fleet (``service.shard.build``); the local submit and
        stage replay that follow use fresh copies of the graph.
        """
        span = self.tracer.span
        service = SchedulerService()
        try:
            with span("request", rid):
                with span("service.jobs.request_encode", rid):
                    text = request.to_json()
                with span("service.jobs.request_decode", rid):
                    decoded = JobRequest.from_json(text)
                if coordinator is not None:
                    with span("service.shard.build", rid):
                        coordinator.build_catalog(
                            decoded.dfg, decoded.capacity, config=decoded.config
                        )
                    decoded = JobRequest.from_json(text)
                with span("service.service.submit", rid):
                    outcome = service.submit_outcome(decoded)
                self._result(rid, outcome.result)
                fresh = JobRequest.from_json(text)
                # An empty partition cache, like the fresh service above.
                self.stages(rid, fresh, fresh.dfg, partials={})
        finally:
            service.close()
        expect_level(outcome, "none")

    def edit(
        self, rid: str, request: EditRequest, service: SchedulerService, base: DFG
    ) -> None:
        """An edit on ``service`` (which holds the base's partials)."""
        span = self.tracer.span
        with span("request", rid):
            with span("service.jobs.request_encode", rid):
                text = request.to_json()
            with span("service.jobs.request_decode", rid):
                decoded = EditRequest.from_json(text)
            with span("service.service.submit", rid):
                outcome = service.submit_edit_outcome(decoded)
            self._result(rid, outcome.result)
            fresh = EditRequest.from_json(text)
            self.stages(rid, fresh.job, None, base=base, edits=fresh.edits)
        expect_level(outcome, "edit")

    # ------------------------------------------------------------------ #
    def stages(
        self,
        rid: str,
        request: JobRequest,
        dfg: DFG | None,
        *,
        base: DFG | None = None,
        edits: tuple = (),
        partials: dict[tuple, list] | None = None,
    ) -> None:
        """The service's build stages, one span per public call."""
        span = self.tracer.span
        cache = self.partials if partials is None else partials
        config = request.config
        max_count = config.max_antichains
        state: dict[str, Any] = {"dirty": 0}

        def classify(size: int, span_limit: int | None):
            with span("exec.plan", rid):
                plan = plan_seed_partitions(dfg, EDIT_PARTITIONS)
            parts = []
            for seeds in plan:
                with span("dfg.io.partition_digest", rid):
                    key = shard_partial_key(dfg, seeds, size, span_limit, max_count)
                rows = cache.get(key)
                if rows is None:
                    state["dirty"] += 1
                    with span("exec.classify", rid):
                        if "enum" not in state:
                            state["enum"] = AntichainEnumerator(dfg)
                            state["labels"] = dfg.color_labels()[0]
                        rows = classify_partition_rows(
                            state["enum"],
                            state["labels"],
                            seeds,
                            size,
                            span_limit,
                            max_count,
                        )
                    cache[key] = rows
                parts.append(rows)
            with span("exec.merge", rid):
                return merge_classified_parts(
                    dfg,
                    parts,
                    capacity=size,
                    span_limit=span_limit,
                    max_count=max_count,
                )

        with span("replay.stages", rid):
            if edits:
                with span("dfg.edit.apply", rid):
                    dfg = apply_edits(base, edits)
            with span("dfg.validate", rid):
                validate_dfg(dfg)
            with span("dfg.io.digest", rid):
                dfg_digest(dfg)
            selector = PatternSelector(request.capacity, config=config)
            with span("core.selection.build_catalog", rid):
                catalog = selector.build_catalog_with(dfg, classify)
            with span("core.selection.select", rid):
                selection = selector.select(
                    dfg, request.pdef, catalog=catalog, backend=self.backend
                )
            scheduler = MultiPatternScheduler(
                selection.library, priority=request.priority
            )
            with span("scheduling.schedule", rid):
                schedule = scheduler.schedule(dfg, backend=self.backend)
            with span("analysis.metrics", rid):
                schedule_stats(schedule)
        if edits:
            self.tracer.count("dfg.edit.dirty_partitions", rid, state["dirty"])
