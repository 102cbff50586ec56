"""Benchmark of the ``repro`` scheduling service, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 20 --trace 0

It spawns ``repro serve`` processes from ``src/``, drives them for
``--seconds`` seconds from this process, checks every answer class
against the in-process ``serial`` oracle after the window, and prints a
summary followed by one JSON line (the last line of standard output).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` additionally
replays the same request streams in process with a span around each
layer call and reports the per-layer metrics.  Run records and spans go
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("warm-hits", "cold-builds", "read-write", "sharded-cold")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rbench import bench

    signal.signal(signal.SIGTERM, _terminate)
    result = bench.run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
