"""Seeded request streams for the benchmark workloads.

Every generator takes the workload seed and is deterministic: the same
seed yields the same requests in the same order, and the server only
ever sees what these functions produce.  Request mixes are stratified:
the seed shuffles fixed blocks (job draws, graph shapes, capacities), so
two seeds differ in order and graph structure but not in the share of
each kind of work, which keeps run-to-run spread low.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.core.config import SelectionConfig
from repro.dfg.edit import DfgEdit, apply_edits
from repro.dfg.graph import DFG
from repro.dfg.io import subgraph_digest
from repro.dfg.levels import asap
from repro.exec.process import plan_seed_partitions
from repro.service import EditRequest, JobRequest
from repro.service.service import EDIT_PARTITIONS
from repro.workloads import WORKLOADS, layered_dag, random_dag

#: Fixed seed of every workload's verification set, so the set (and the
#: schedule lengths summed over it) is the same whatever ``--seed`` is.
VERIFY_SEED = 20_060_425

SMALL_CFG = SelectionConfig(span_limit=1, max_pattern_size=3)
WIDE_CFG = SelectionConfig(span_limit=1, max_pattern_size=3, widen_to_capacity=True)
FFT64_CFG = SelectionConfig(span_limit=1, max_pattern_size=2, widen_to_capacity=True)

SMALL_GRAPHS = (
    "3dft",
    "5dft",
    "fir8",
    "iir2",
    "dot8",
    "matvec4",
    "dct4",
    "small-example",
)

#: The large warm read: a ~656 KB result body.
FFT64_JOB = JobRequest(capacity=5, pdef=4, workload="fft64", config=FFT64_CFG)

#: Base job every read-write edit is applied to.
EDIT_BASE = JobRequest(capacity=5, pdef=4, workload="fft16", config=SMALL_CFG)

#: Draws per block of the warm stream; FFT-64 takes one slot of each block.
WARM_BLOCK = 250

#: (generator, shape) cells of the cold and sharded graph streams.
COLD_CELLS = [("layered", (h, w)) for h in range(8, 15) for w in range(6, 11)]
COLD_CELLS += [("random", n) for n in range(40, 81, 5)]
SHARD_CELLS = [("layered", (h, w)) for h in range(12, 17) for w in range(8, 13)]


def warm_corpus() -> list[JobRequest]:
    """Registry jobs across capacity x pdef x config; FFT-64 excluded.

    FFT-16 keeps one capacity, so the whole corpus needs one FFT-16
    catalog (the serial oracle builds it in about 5 s).
    """
    jobs = [
        JobRequest(capacity=capacity, pdef=pdef, workload=name, config=config)
        for name in SMALL_GRAPHS
        for capacity in (4, 5)
        for pdef in (3, 4)
        for config in (SMALL_CFG, WIDE_CFG)
    ]
    jobs += [
        JobRequest(capacity=5, pdef=pdef, workload="fft16", config=config)
        for pdef in (3, 4)
        for config in (SMALL_CFG, WIDE_CFG)
    ]
    return jobs


def warm_counts(n_jobs: int, rare: int = 0) -> list[int]:
    """Draws per job in one ``WARM_BLOCK``: fixed Zipf-like skew.

    The first ``n_jobs`` entries follow a Zipf(0.9) law over a fixed
    (seed-independent) ranking, with at least one draw each; the last
    ``rare`` jobs get exactly one draw per block.
    """
    ranks = list(range(n_jobs))
    random.Random("warm-ranks").shuffle(ranks)
    weights = [1.0 / (1 + rank) ** 0.9 for rank in ranks]
    spare = WARM_BLOCK - rare - n_jobs
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(s) for s in shares]
    by_remainder = sorted(range(n_jobs), key=lambda j: int(shares[j]) - shares[j])
    for j in by_remainder[: WARM_BLOCK - rare - sum(counts)]:
        counts[j] += 1
    return counts + [1] * rare


def warm_stream(seed: int, caller: int, counts: list[int]) -> Iterator[int]:
    """Corpus indices for one caller: every block a seeded shuffle of ``counts``."""
    rng = random.Random(f"warm:{seed}:{caller}")
    block = [j for j, c in enumerate(counts) for _ in range(c)]
    while True:
        order = block[:]
        rng.shuffle(order)
        yield from order


def _graph_jobs(tag: str, seed: int, cells: list[tuple]) -> Iterator[JobRequest]:
    """Fresh inline graphs; each block covers every (cell, capacity) once."""
    rng = random.Random(f"{tag}:{seed}")
    while True:
        block = [(kind, shape, cap) for kind, shape in cells for cap in (4, 5)]
        rng.shuffle(block)
        for kind, shape, cap in block:
            graph_seed = rng.getrandbits(48)
            if kind == "layered":
                dfg = layered_dag(graph_seed, *shape)
            else:
                dfg = random_dag(graph_seed, shape)
            pdef = rng.randint(3, 5)
            yield JobRequest(capacity=cap, pdef=pdef, dfg=dfg, config=SMALL_CFG)


def cold_stream(seed: int, tag: str = "cold") -> Iterator[JobRequest]:
    """Never-repeating inline graphs: layered 8-14 x 6-10 and random n 40-80."""
    return _graph_jobs(tag, seed, COLD_CELLS)


def shard_stream(seed: int, tag: str = "shard") -> Iterator[JobRequest]:
    """Never-repeating larger layered graphs (12-16 x 8-12) for the fleet."""
    return _graph_jobs(tag, seed, SHARD_CELLS)


def partition_keys(dfg: DFG) -> set[tuple]:
    """(seed range, subgraph digest) of every seed partition the service plans."""
    return {
        (tuple(seeds), subgraph_digest(dfg, seeds))
        for seeds in plan_seed_partitions(dfg, EDIT_PARTITIONS)
    }


def clean_partitions(base_keys: set[tuple], edited: DFG) -> int:
    """How many of ``edited``'s seed partitions the base graph's cache answers."""
    return len(partition_keys(edited) & base_keys)


class EditStream:
    """Distinct single edits (recolor / add-edge) of the FFT-16 base.

    Only edits that leave at least one seed partition clean are drawn:
    those are the ones the service must answer at cache level ``edit``.
    Distinct single edits give distinct graphs (a recolor changes a color,
    an added edge is new), and no edit is drawn twice, so no graph repeats
    within a run.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"edit:{seed}")
        self.base = WORKLOADS[EDIT_BASE.workload]()
        self.base_keys = partition_keys(self.base)
        self.nodes = self.base.nodes
        self.colors = sorted({self.base.node(n).attrs["color"] for n in self.nodes})
        self.levels = asap(self.base)
        self.edges = set(self.base.edges())
        self.seen: set[DfgEdit] = set()

    def _candidate(self) -> DfgEdit:
        rng = self.rng
        if rng.random() < 0.5:
            node = rng.choice(self.nodes)
            current = self.base.node(node).attrs["color"]
            color = rng.choice([c for c in self.colors if c != current])
            return DfgEdit.recolor(node, color)
        while True:
            u, v = rng.sample(self.nodes, 2)
            # asap(u) < asap(v) rules out a path v -> u, so the graph
            # stays acyclic.
            if self.levels[u] < self.levels[v] and (u, v) not in self.edges:
                return DfgEdit.add_edge(u, v)

    def __iter__(self) -> Iterator[EditRequest]:
        return self

    def __next__(self) -> EditRequest:
        while True:
            edit = self._candidate()
            if edit in self.seen:
                continue
            self.seen.add(edit)
            edited = apply_edits(self.base, [edit])
            if clean_partitions(self.base_keys, edited):
                return EditRequest(job=EDIT_BASE, edits=(edit,))


def write_stream(seed: int) -> Iterator[EditRequest | JobRequest]:
    """The read-write writer: three edits, then one fresh cold graph."""
    edits = EditStream(seed)
    cold = cold_stream(seed, tag="rw-cold")
    while True:
        yield next(edits)
        yield next(edits)
        yield next(edits)
        yield next(cold)


def verify_cold(n: int) -> list[JobRequest]:
    """The fixed cold verification set (independent of ``--seed``)."""
    stream = cold_stream(VERIFY_SEED, tag="verify-cold")
    return [next(stream) for _ in range(n)]


def verify_shard(n: int) -> list[JobRequest]:
    """The fixed sharded verification set (independent of ``--seed``)."""
    stream = shard_stream(VERIFY_SEED, tag="verify-shard")
    return [next(stream) for _ in range(n)]
