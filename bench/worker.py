"""One workload in one single-threaded process (started by run.py).

The process imports kemplab from the checkout's ``src``, builds the
workload's models, prints ``READY`` (run.py times set-up up to that
line) and then runs a closed loop: one caller, and the next op starts
only after the previous one has returned and been checked.  Inputs of
round r come from ``numpy.random.default_rng([seed, r])`` and are made
outside the timer, just before the round.  Only the kemplab call is
timed.  Whole rounds run until the timed seconds reach ``--seconds``.

With ``--trace 1`` the process runs ``trace_rounds`` rounds, each once
untraced and then once more with the wrappers of ``spans`` installed; it
reports per-layer metrics per op, the tracing overhead per op (traced
minus untraced time of the same rounds) and writes the spans to
``bench/out``.  The round count is fixed, so the counts repeat exactly
between traced runs with the same seed.

The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the ceil(p * n / 100)-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    return ordered[max(1, -(-p * len(ordered) // 100)) - 1]


def import_kemplab():
    sys.path.insert(0, str(SRC))
    import kemplab
    if Path(kemplab.__file__).resolve().parent != SRC / "kemplab":
        raise SystemExit(f"kemplab was imported from {kemplab.__file__}, not from {SRC}")
    return kemplab


class Loop:
    """Runs rounds of one workload and keeps the op accounting."""

    def __init__(self, workload, seed, km):
        self.workload = workload
        self.seed = seed
        self.km = km
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.latencies = []          # seconds, ops that returned
        self.errors = {}             # failed op name -> exception name
        self.check_failures = []

    def run_round(self, index, recorder=None):
        clock = time.perf_counter
        rng = np.random.default_rng([self.seed, index])
        for op in self.workload.round(rng):
            self.attempted += 1
            if recorder is not None:
                recorder.active = True
            start = clock()
            try:
                out = op.run()
            except self.km.KemplabError as exc:
                self.timed_s += clock() - start
                self.failed += 1
                self.errors[op.name] = type(exc).__name__
                continue
            finally:
                if recorder is not None:
                    recorder.active = False
            elapsed = clock() - start
            self.timed_s += elapsed
            self.latencies.append(elapsed)
            try:
                op.check(out)
            except CheckError as exc:
                self.check_failures.append(f"{op.name}: {exc}")
            del out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    km = import_kemplab()
    workload = WORKLOADS[args.workload](km)
    if hasattr(workload, "warm_up"):
        workload.warm_up(np.random.default_rng([args.seed, 2 ** 32 - 1]))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(workload, args.seed, km)
    if args.trace:
        import spans
        recorder = spans.Recorder()
        untraced_s = traced_s = 0.0
        traced_ops = 0
        for r in range(workload.trace_rounds):
            before = loop.timed_s
            loop.run_round(r)
            untraced_s += loop.timed_s - before
            uninstall = spans.install(recorder, km)
            before, ops_before = loop.timed_s, loop.attempted
            loop.run_round(r, recorder)
            uninstall()
            traced_s += loop.timed_s - before
            traced_ops += loop.attempted - ops_before
        metrics = recorder.metrics(traced_ops)
        metrics["trace.overhead_s"] = (traced_s - untraced_s) / traced_ops
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        r = 0
        while r == 0 or loop.timed_s < args.seconds:
            loop.run_round(r)
            r += 1
        metrics = {
            "op_p90_ms": percentile(loop.latencies, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        reference = {"rounds": r, "ops": len(loop.latencies),
                     "ops_per_s": (len(loop.latencies) - len(loop.check_failures)) / loop.timed_s,
                     "op_p10_ms": percentile(loop.latencies, 10) * 1e3,
                     "op_p50_ms": percentile(loop.latencies, 50) * 1e3,
                     "op_max_ms": max(loop.latencies) * 1e3}
        print("reference " + json.dumps(reference), file=sys.stderr)
    for msg in loop.check_failures[:20]:
        print("check failed: " + msg, file=sys.stderr)
    if loop.errors:
        print("failed ops: " + json.dumps(loop.errors), file=sys.stderr)
    print(json.dumps({"correct": not loop.check_failures, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
