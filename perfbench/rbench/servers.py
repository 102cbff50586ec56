"""Start, watch and stop ``repro serve`` processes."""

from __future__ import annotations

import collections
import os
import queue
import re
import subprocess
import sys
import threading
import time

from repro.service import ServiceClient

#: The server command line: CLI defaults (async core, ``fused`` backend,
#: no cache directory, no policy) on an OS-assigned port.
SERVE_ARGS = ("-m", "repro.cli", "serve", "--port", "0")

START_TIMEOUT_S = 60.0


class ServerProcess:
    """One spawned server; its output is drained so the pipe never fills."""

    def __init__(self, src_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, *SERVE_ARGS],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.tail: collections.deque[str] = collections.deque(maxlen=20)
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url: str | None = None

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.tail.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    def wait_url(self, deadline: float) -> str:
        """Block until the listening banner names the server's URL."""
        while self.url is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not print its URL in time") from None
            if line is None:
                raise RuntimeError(f"server exited: {' | '.join(self.tail)}")
            match = re.search(r"http://[\d.]+:\d+", line)
            if match:
                self.url = match.group(0)
        return self.url

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers; reap it."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._reader.join(timeout=15)
        self.proc.stdout.close()


def wait_healthy(url: str, deadline: float) -> None:
    """Poll ``/healthz`` until it answers 200."""
    with ServiceClient(url, timeout=5.0) as client:
        while True:
            try:
                client.health()
                return
            except Exception:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)


class Fleet:
    """``n`` servers started together.

    ``setup_s`` is the wall time from spawning the first process to the
    first 200 on ``/healthz`` from every one of them.
    """

    def __init__(self, n: int, src_dir: str) -> None:
        self.servers: list[ServerProcess] = []
        start = time.perf_counter()
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            for _ in range(n):
                self.servers.append(ServerProcess(src_dir))
            for server in self.servers:
                wait_healthy(server.wait_url(deadline), deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    @property
    def urls(self) -> list[str]:
        return [s.url for s in self.servers]

    def peak_rss_mb(self) -> float:
        return sum(s.peak_rss_mb() for s in self.servers)

    def stop(self) -> None:
        for server in self.servers:
            server.stop()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
