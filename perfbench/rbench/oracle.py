"""Correctness check against the ``serial`` backend, after the window.

The serial backend is the repository's reference implementation: every
backend, cache level and shard layout must give bit-identical answers.
Each served answer is compared with the oracle's as canonical JSON of
``JobResult.answer_dict()``.  Serial builds are slow (about 5 s for the
FFT-16 and FFT-64 catalogs), so the expected answers are computed in two
worker processes, one task per graph so that a pdef/config sweep of one
graph shares its catalog.

The workers are plain child interpreters (``python -m rbench.oracle``)
that read one task per line on standard input and answer one line each;
they are closed and reaped before :meth:`Oracle.run` returns.  (A
``multiprocessing`` pool would leave its resource-tracker process behind.)
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

from repro.dfg.io import dfg_digest
from repro.service import EditRequest, JobRequest, SchedulerService
from repro.workloads import WORKLOADS

WORKERS = 2

#: ``perfbench/`` and ``src/``: the workers' import path.
_HERE = Path(__file__).resolve()
_PATHS = (_HERE.parents[1], _HERE.parents[2] / "src")


def answer_json(result: Any) -> str:
    """Canonical text of a result's answer (descriptive echo fields dropped)."""
    return json.dumps(result.answer_dict())


def serial_answers(items: list[tuple[str, str]]) -> list[str]:
    """Worker task: serial-backend answers for ``(kind, request JSON)`` items."""
    service = SchedulerService(backend="serial")
    try:
        out = []
        for kind, text in items:
            if kind == "edit":
                result = service.submit_edit(EditRequest.from_json(text))
            else:
                result = service.submit(JobRequest.from_json(text))
            out.append(answer_json(result))
        return out
    finally:
        service.close()


@functools.cache
def _registry_size(name: str) -> int:
    return WORKLOADS[name]().n_nodes


def _graph_of(request: Any) -> tuple[Any, int]:
    """Grouping key (same graph => shared catalog) and graph size."""
    if isinstance(request, EditRequest):
        return ("edit", request.to_json()), _registry_size(request.job.workload)
    if request.workload is not None:
        return request.workload, _registry_size(request.workload)
    return dfg_digest(request.dfg), request.dfg.n_nodes


class Oracle:
    """Collects served answers, then checks them all in one pass."""

    def __init__(self) -> None:
        #: (label, kind, request JSON, served answer JSON)
        self.items: list[tuple[str, str, str, str]] = []
        self.requests: list[Any] = []
        self.mismatches: list[str] = []

    @property
    def checked(self) -> int:
        return len(self.items)

    def add(self, label: str, request: Any, result: Any) -> None:
        kind = "edit" if isinstance(request, EditRequest) else "job"
        self.items.append((label, kind, request.to_json(), answer_json(result)))
        self.requests.append(request)

    def run(self) -> list[str]:
        """Compute the expected answers; return the labels that differ."""
        groups: dict[Any, list[int]] = {}
        sizes: dict[Any, int] = {}
        for i, request in enumerate(self.requests):
            key, size = _graph_of(request)
            groups.setdefault(key, []).append(i)
            sizes[key] = size
        # Largest graphs first; each worker takes the next task when it is
        # free, so the two finish close together.
        order = iter(sorted(groups, key=lambda k: -sizes[k]))
        tasks = {k: [self.items[i][1:3] for i in idx] for k, idx in groups.items()}
        answers: dict[Any, list[str]] = {}
        lock = threading.Lock()
        errors: list[BaseException] = []

        def drive(worker: subprocess.Popen) -> None:
            try:
                while True:
                    with lock:
                        key = next(order, None)
                    if key is None:
                        return
                    worker.stdin.write(json.dumps(tasks[key]) + "\n")
                    worker.stdin.flush()
                    line = worker.stdout.readline()
                    if not line:
                        raise RuntimeError(f"oracle worker exited ({worker.poll()})")
                    answers[key] = json.loads(line)
            except BaseException as exc:
                errors.append(exc)

        workers = [_spawn_worker() for _ in range(WORKERS)]
        threads = [threading.Thread(target=drive, args=(w,)) for w in workers]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for worker in workers:
                _stop_worker(worker)
        if errors:
            raise errors[0]
        for key, idx in groups.items():
            for i, expected in zip(idx, answers[key]):
                if expected != self.items[i][3]:
                    self.mismatches.append(self.items[i][0])
        return self.mismatches


def _spawn_worker() -> subprocess.Popen:
    env = dict(os.environ)
    paths = [str(p) for p in _PATHS]
    env["PYTHONPATH"] = os.pathsep.join([*paths, env.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-m", "rbench.oracle"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )


def _stop_worker(worker: subprocess.Popen) -> None:
    """Close its input (it exits at end of file); kill it if it lingers."""
    try:
        worker.stdin.close()
    except OSError:
        pass
    try:
        worker.wait(timeout=30)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
    worker.stdout.close()


def main() -> None:
    """Worker loop: one JSON task per input line, one JSON answer line out."""
    for line in sys.stdin:
        print(json.dumps(serial_answers(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
