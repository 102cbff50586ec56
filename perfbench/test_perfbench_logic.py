"""Tests of the benchmark's own logic (no servers are started).

Run with ``PYTHONPATH=src python -m pytest perfbench/test_perfbench_logic.py``.
"""

from __future__ import annotations

import itertools

import pytest

import run
from rbench import stats, streams
from rbench.tracing import (
    Span,
    Tracer,
    count_medians,
    coverage,
    layer_medians,
    per_request,
    self_times,
)
from rbench.workloads import WORKLOADS

from repro.dfg.edit import apply_edits
from repro.dfg.io import dfg_digest


def test_command_line_lists_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


# --------------------------------------------------------------------------- #
# percentiles: reported only with ten samples beyond them
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, q, ok",
    [
        (19, 0.5, False),
        (20, 0.5, True),
        (99, 0.9, False),
        (100, 0.9, True),
        (999, 0.99, False),
        (1000, 0.99, True),
        (0, 0.5, False),
    ],
)
def test_ten_beyond_rule(n, q, ok):
    assert stats.qualifies(n, q) is ok


def test_percentile_is_a_nearest_rank_sample():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 0.5) == 50.0
    assert stats.percentile(values, 0.9) == 90.0
    assert stats.percentile(values, 1.0) == 100.0
    assert stats.beyond(100, 0.9) == 10


def test_latency_summary_flags_unreportable_percentiles():
    summary = stats.latency_summary([1.0] * 150)
    assert summary["n"] == 150
    assert summary["p50_ok"] and summary["p90_ok"]
    assert not summary["p99_ok"]
    assert summary["tail_q"] == 0.9


def test_iqr_share():
    assert stats.iqr_share([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert stats.iqr_share([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# --------------------------------------------------------------------------- #
# seeded generators
# --------------------------------------------------------------------------- #
def _texts(stream, n):
    return [r.to_json() for r in itertools.islice(stream, n)]


def test_warm_mix_is_fixed_and_order_is_seeded():
    corpus = streams.warm_corpus()
    counts = streams.warm_counts(len(corpus), rare=1)
    assert sum(counts) == streams.WARM_BLOCK
    assert min(counts) >= 1 and counts[-1] == 1
    first = list(itertools.islice(streams.warm_stream(7, 0, counts), 600))
    again = list(itertools.islice(streams.warm_stream(7, 0, counts), 600))
    other = list(itertools.islice(streams.warm_stream(8, 0, counts), 600))
    assert first == again
    assert first != other
    block = streams.WARM_BLOCK
    assert sorted(first[:block]) == sorted(other[:block])


@pytest.mark.parametrize("make", [streams.cold_stream, streams.shard_stream])
def test_graph_streams_are_deterministic_per_seed(make):
    assert _texts(make(3), 4) == _texts(make(3), 4)
    assert _texts(make(3), 4) != _texts(make(4), 4)


def test_write_stream_is_deterministic_per_seed():
    assert _texts(streams.write_stream(5), 8) == _texts(streams.write_stream(5), 8)
    assert _texts(streams.write_stream(5), 4) != _texts(streams.write_stream(6), 4)


def test_cold_graphs_never_repeat_and_miss_the_verification_set():
    stream = streams.cold_stream(1)
    digests = [dfg_digest(r.dfg) for r in itertools.islice(stream, 60)]
    verify = {dfg_digest(r.dfg) for r in streams.verify_cold(8)}
    assert len(set(digests)) == len(digests)
    assert not verify & set(digests)
    assert _texts(streams.verify_cold(2), 2) == _texts(streams.verify_cold(2), 2)


def test_edits_are_distinct_and_leave_a_clean_partition():
    stream = streams.EditStream(11)
    base_digest = dfg_digest(stream.base)
    seen = set()
    for request in itertools.islice(stream, 20):
        (edit,) = request.edits
        edited = apply_edits(stream.base, request.edits)
        digest = dfg_digest(edited)
        assert digest != base_digest
        assert digest not in seen
        seen.add(digest)
        assert streams.clean_partitions(stream.base_keys, edited) >= 1
        assert request.job == streams.EDIT_BASE
        assert edit.op in ("recolor", "add_edge")


# --------------------------------------------------------------------------- #
# self time and coverage arithmetic
# --------------------------------------------------------------------------- #
SPANS = [
    Span("request", 0.0, 10.0, None, "r1"),
    Span("service.service.submit", 0.0, 4.0, 0, "r1"),
    Span("replay.stages", 4.5, 9.5, 0, "r1"),
    Span("exec.classify", 5.0, 7.0, 2, "r1"),
    Span("exec.classify", 7.0, 8.0, 2, "r1"),
    Span("exec.merge", 8.0, 8.5, 2, "r1"),
    Span("inner", 5.5, 6.0, 3, "r1"),
]


def test_self_time_subtracts_children():
    own = self_times(SPANS)
    assert own[0] == pytest.approx(10.0 - 4.0 - 5.0)
    assert own[2] == pytest.approx(5.0 - 3.5)
    assert own[3] == pytest.approx(1.5)
    assert own[6] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a", 0.0, 10.0, None, "r"),
        Span("b", 1.0, 5.0, 0, "r"),
        Span("c", 3.0, 6.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_per_request_sums_repeated_spans():
    grouped = per_request(SPANS)
    assert grouped["exec.classify"]["r1"] == pytest.approx(2500.0)  # ms
    assert layer_medians(SPANS)["exec.merge"] == pytest.approx(500.0)
    assert layer_medians(SPANS, {"other"}) == {}


def test_coverage_is_stage_self_time_over_submit():
    # stages' descendants: classify 1.5 + 1.0, merge 0.5, inner 0.5 = 3.5
    ratio = coverage(SPANS, "service.service.submit", "replay.stages")
    assert ratio == pytest.approx(3.5 / 4.0)
    assert coverage(SPANS, "missing", "replay.stages") is None


def test_tracer_records_parents_and_disabled_records_nothing():
    tracer = Tracer()
    with tracer.span("outer", "r"):
        with tracer.span("inner", "r"):
            pass
    tracer.count("kb", "r", 2.0)
    tracer.count("kb", "s", 4.0)
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[0].end >= tracer.spans[1].end
    assert count_medians(tracer.counts) == {"kb": 3.0}
    off = Tracer(enabled=False)
    with off.span("outer", "r"):
        off.count("kb", "r", 1.0)
    assert off.spans == [] and off.counts == []
