"""Run the benchmark over several seeds; print each metric's median and spread.

Run from the repository root::

    python3 perfbench/spread.py --workload cold-builds --seeds 1-10 --seconds 20

Spread is the interquartile distance as a share of the median: the
statistic the bounds in ``BENCHMARK.json`` are checked against.  Use it
to compare two commits run with identical seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from rbench.stats import iqr_share

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` to a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seeds_of)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload]
            + ["--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True,
            text=True,
        )
        if out.returncode:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = iqr_share(series) if len(series) > 1 else 0.0
        shown = " ".join(f"{v:.4g}" for v in series)
        print(f"{name:<40} median {statistics.median(series):<12.6g}")
        print(f"{'':<40} spread {spread:<8.3f} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
