"""Closed-loop callers: each waits for its reply before sending again."""

from __future__ import annotations

import threading
import time
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

#: ``send(kind, request) -> (JobResult, cache level)``
Send = Callable[[str, Any], tuple[Any, str | None]]


@dataclass
class Sample:
    kind: str
    ms: float
    level: str | None
    ok: bool


@dataclass
class CallerLog:
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Request index -> (kind, request, result) for the oracle sample.
    kept: dict[int, tuple[str, Any, Any]] = field(default_factory=dict)
    end: float = 0.0


class Caller(threading.Thread):
    """One closed-loop caller over a request iterator of ``(kind, request)``.

    A reply counts as wrong when its cache level differs from
    ``expected[kind]``; an exception counts as failed.  Replies whose
    index is in ``keep`` are retained for the correctness check after the
    window.
    """

    def __init__(
        self,
        send: Send,
        requests: Iterator[tuple[str, Any]],
        expected: dict[str, str],
        keep: set[int] = frozenset(),
    ) -> None:
        super().__init__(daemon=True)
        self.send = send
        self.requests = requests
        self.expected = expected
        self.keep = keep
        self.log = CallerLog()
        self.start_gate: threading.Event | None = None
        self.deadline = 0.0

    def run(self) -> None:
        assert self.start_gate is not None
        self.start_gate.wait()
        log = self.log
        index = 0
        while time.perf_counter() < self.deadline:
            kind, request = next(self.requests)
            start = time.perf_counter()
            try:
                result, level = self.send(kind, request)
            except Exception as exc:  # a refused or failed request
                ms = (time.perf_counter() - start) * 1e3
                log.samples.append(Sample(kind, ms, None, False))
                log.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                if len(log.errors) == 1:
                    log.errors.append(traceback.format_exc(limit=3))
            else:
                ms = (time.perf_counter() - start) * 1e3
                ok = level == self.expected[kind]
                log.samples.append(Sample(kind, ms, level, ok))
                if not ok:
                    log.errors.append(f"{kind}: cache level {level!r}")
                if index in self.keep:
                    log.kept[index] = (kind, request, result)
            index += 1
        log.end = time.perf_counter()


@dataclass
class Window:
    samples: list[Sample]
    errors: list[str]
    kept: list[tuple[str, Any, Any]]
    elapsed_s: float
    cpu_s: float


def run_window(callers: list[Caller], seconds: float) -> Window:
    """Start every caller at once, stop issuing at the deadline, join all.

    ``elapsed_s`` runs until the last in-flight reply arrived; ``cpu_s``
    is this (load-generator) process's CPU time over the same interval.
    """
    gate = threading.Event()
    for caller in callers:
        caller.start_gate = gate
        caller.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for caller in callers:
        caller.deadline = t0 + seconds
    gate.set()
    for caller in callers:
        caller.join(timeout=seconds + 170)
        if caller.is_alive():
            raise RuntimeError("a caller is still waiting for a reply")
    end = max(c.log.end for c in callers)
    return Window(
        samples=[s for c in callers for s in c.log.samples],
        errors=[e for c in callers for e in c.log.errors],
        kept=[k for c in callers for k in c.log.kept.values()],
        elapsed_s=end - t0,
        cpu_s=time.process_time() - cpu0,
    )
