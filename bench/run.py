"""Benchmark runner for smallball.

    python3 bench/run.py --workload battery-refit|large-n --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src`` directory.  One process runs one workload with BLAS held at one thread.

--trace 0 runs passes over the workload for about S seconds (at least two)
and reports the end-to-end metrics: wall_s and cpu_s of one pass (each
query's median over the passes, summed), setup_s (import smallball, load the
fitted constants and generate the inputs; the median of this process and two
fresh probe processes) and peak_rss_mb of this process.

--trace 1 alternates untraced passes with passes that wrap every layer's
public functions in spans (see tracer.py), again for about S seconds (at least
one pair), and reports per-layer self times and counts, the share of the pass
no span covers and the tracing overhead.

Every output is checked against an oracle (see workloads.py).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A details file with the environment record, every check and observation goes
to .bench_out/ in the checkout.  Its observations include the time of a fixed
pure-Python loop before every pass, a record of how fast the host ran then.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("battery-refit", "large-n")
MIN_PASSES = 2
SETUP_PROBES = 2
CALIBRATION_ITERATIONS = 1_000_000
# stop starting passes once this much of the 180 s run limit is gone
PASS_DEADLINE_S = 120.0
PROBE_TIMEOUT_S = 60.0


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup(workload: str, seed: int):
    """Import the library from this checkout and build the workload's inputs."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "smallball" / "__init__.py").is_file():
        raise SetupError(f"no smallball package under {src}")
    sys.path.insert(0, str(src))
    import smallball

    if Path(smallball.__file__).resolve().parent != (src / "smallball").resolve():
        raise SetupError(f"imported smallball from {smallball.__file__}, not from {src}")
    import workloads

    work = workloads.make(workload, seed, ROOT)
    return time.perf_counter() - t0, work


def probe_setup(args) -> float:
    """setup_s of a fresh process, so import time is measured cold each time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise SetupError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Tally:
    """Checks attempted and failed, with the failures' details."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.labels: dict[str, bool] = {}

    def add(self, label: str, ok: bool, detail: str):
        self.attempted += 1
        self.labels[label] = self.labels.get(label, True) and ok
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def error(self, where: str):
        self.add(where, False, traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)


def run_pass(work, tally: Tally, tracer=None) -> dict:
    """Time every query's operation; check its output outside the timed (and
    traced) span.  Returns {query: (wall seconds, CPU seconds)}."""
    times = {}
    for q in work.queries:
        if tracer is not None:
            tracer.active = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = q.op()
        except Exception:
            tally.error(f"{q.name} (operation)")
            continue
        finally:
            times[q.name] = (time.perf_counter() - t0, time.process_time() - c0)
            if tracer is not None:
                tracer.active = False
        try:
            for label, ok, detail in q.check(out):
                tally.add(label, ok, detail)
        except Exception:
            tally.error(f"{q.name} (check)")
    return times


def pass_wall(times: dict) -> float:
    return sum(wall for wall, _ in times.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    if name.endswith("mcells_per_s"):
        return "Mcells/s"
    if name.endswith("msteps_per_s"):
        return "Msteps/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("evals_per_integral"):
        return "evals/integral"
    if name.endswith("_share"):
        return "share"
    if name.endswith("tensor_mb"):
        return "MiB-computed"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def calibration_loop_s() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def repeat_passes(args, one_pass, min_passes: int, observations: dict) -> None:
    """Call one_pass at least min_passes times, and again while another call is
    expected to end less than half a call past --seconds, so that runs end at
    --seconds on average; never start one past PASS_DEADLINE_S."""
    loops = observations.setdefault("calibration_loop_s", [])
    start = time.perf_counter()
    done = 0
    while True:
        loops.append(calibration_loop_s())
        one_pass()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_passes and (elapsed + 0.5 * elapsed / done > args.seconds
                                   or elapsed > PASS_DEADLINE_S):
            return


def measure(args, work, tally: Tally, setup_s: float) -> dict:
    """A pass's wall_s and cpu_s are the sums over queries of each query's
    median across the passes, which keeps a burst of host contention in one
    pass from moving the figure."""
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = []
    repeat_passes(args, lambda: passes.append(run_pass(work, tally)), MIN_PASSES,
                  work.observations)
    names = passes[0].keys()
    work.observations["passes"] = len(passes)
    work.observations["setup_samples_s"] = setups
    work.observations["pass_wall_s"] = [pass_wall(p) for p in passes]
    return {
        "wall_s": sum(statistics.median(p[q][0] for p in passes) for q in names),
        "cpu_s": sum(statistics.median(p[q][1] for p in passes) for q in names),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(args, work, tally: Tally) -> dict:
    """Untraced and traced passes alternate, so the overhead compares passes
    made under the same host conditions."""
    import tracer as tracing

    tracer = tracing.Tracer()
    untraced, per_pass = [], []

    def pair():
        untraced.append(pass_wall(run_pass(work, tally)))
        tracer.reset()
        tracer.install()
        try:
            wall = pass_wall(run_pass(work, tally, tracer))
        finally:
            tracer.uninstall()
        per_pass.append(tracing.layer_metrics(tracer, wall))

    repeat_passes(args, pair, 1, work.observations)
    work.observations["traced_pairs"] = len(per_pass)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz",
                per_pass[-1]["trace.wall_s"])

    for i, m in enumerate(per_pass):
        layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        uncovered = m["trace.uncovered_share"] * m["trace.wall_s"]
        gap = abs(layers + uncovered - m["trace.wall_s"])
        tally.add("trace_layers_account_for_wall", gap <= 1e-6 * m["trace.wall_s"],
                  f"traced pass {i}: layer self times + uncovered - wall = {gap:.3e} s")

    last = per_pass[-1]
    metrics = {name: (statistics.median(m[name] for m in per_pass)
                      if unit_of(name) != "count" else last[name])
               for name in last}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def environment(args) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
        elif kind != "Instruction":
            caches["L1d"] = size
    why = None
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None)
    except (OSError, ValueError, KeyError):
        pass
    return {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu_model, "nproc": len(os.sched_getaffinity(0)), "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy), "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup_s, work = setup(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        if args.trace:
            work.observations["setup_s"] = setup_s
            metrics = measure_traced(args, work, tally)
        else:
            metrics = measure(args, work, tally, setup_s)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = environment(args)
    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    print("env " + json.dumps(env, sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for key, val in work.observations.items():
        print(f"observation {key} = {val!r}")
    for name, val in metrics.items():
        print(f"{name:40s} {val!r:>24} {unit_of(name)}")
    print(f"{'failure_share':40s} {failed / attempted!r:>24} share "
          f"({failed} of {attempted} checks)")

    OUT_DIR.mkdir(exist_ok=True)
    details = {"env": env, "metrics": metrics, "checks": tally.labels,
               "failures": tally.failures, "observations": work.observations,
               "failure_share": failed / attempted}
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit_of(name)}
                    for name, val in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
