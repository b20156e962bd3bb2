"""Benchmark for kemplab: one workload per process, one workload at a time.

    python3 bench/run.py --workload lemma_rounds --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, one after another

For each workload this launcher times SETUP_PROBES set-up-only processes
and then the measuring process (worker.py), all single-threaded and run
one after another.  ``setup_s`` is the median, over those processes, of
the time from starting the process to its ``READY`` line: interpreter
start, imports, model construction and warm-up.

It prints one JSON line per workload; the last line is the result of the
last workload, with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lemma_rounds", "large_models", "recovery")
SETUP_PROBES = 4
# numpy's BLAS and OpenMP pools stay at one thread: every op runs on one core.
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib") or metric.endswith("_mb"):
        return "MiB"
    return "count"


def spawn(args):
    """Run worker.py with args; return (seconds to READY, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, **SINGLE_THREAD)
    start = time.perf_counter()
    ready = None
    last = None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    if code != 0 or ready is None:
        raise SystemExit(f"worker {' '.join(args)} exited with code {code}")
    return ready, last


def run_workload(name, seed, seconds, trace):
    base = ["--workload", name, "--seed", str(seed)]
    setups = [] if trace else [spawn(base + ["--setup-only"])[0] for _ in range(SETUP_PROBES)]
    ready, last = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)])
    result = json.loads(last)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups + [ready])
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kemplab" / "__init__.py").is_file():
        print(f"error: no kemplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            print(json.dumps({"workload": name, **result}), flush=True)
        else:
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
