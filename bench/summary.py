"""Run every workload once and print its end-to-end metrics side by side.

    python3 bench/summary.py

Each workload runs in its own process through run.py at the default seed for
BENCHMARK.json's run_seconds; the table lists every end-to-end metric by name
and unit, and failure_share (failed checks over checks attempted).  Exits 1
if any workload fails a check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, unit_of

sys.path.insert(0, str(ROOT / "src"))
from smallball.families import DEFAULT_SEED  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:13s} {name:14s} {metric['value']:12.4f} {metric['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{workload:13s} {'failure_share':14s} {share:12.4f} {unit_of('failure_share')} "
              f"({result['failed']} of {result['attempted']} checks)")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
