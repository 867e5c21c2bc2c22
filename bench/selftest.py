"""Self-test of the benchmark: traced runs repeat exactly across processes.

    python3 bench/selftest.py

Runs ``run.py --trace 1`` twice per workload at the default seed, each in a
fresh process, and requires both runs to pass their checks, every
machine-independent count to be identical and, on battery-refit, the rendered
report's sha256 to be identical.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, WORKLOADS
from tracer import COUNT_METRICS

sys.path.insert(0, str(ROOT / "src"))
from smallball.families import DEFAULT_SEED  # noqa: E402

HERE = Path(__file__).resolve().parent


def traced_run(workload: str) -> dict:
    """The counts of one traced run and the report sha256 it observed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed {result['failed']} checks")
    details = json.loads((OUT_DIR / f"{workload}-seed{DEFAULT_SEED}-trace1.json").read_text())
    out = {name: result["metrics"][name]["value"] for name in COUNT_METRICS}
    out["report_sha256"] = details["observations"].get("report_sha256")
    return out


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"{workload}: {'repeats' if not diff else f'differs {diff}'}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
