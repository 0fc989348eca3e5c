"""christol benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 25 --trace 0

The workloads (see README.md in this directory) call christol in-process
through its public entry points.  One operation runs at a time, and the
next starts only after the previous one has finished and its output has
been checked against an oracle that shares no code with christol.

--trace 0 starts worker processes (worker.py) one after another, each
running whole cycles of operations for a third of --seconds or what is
left of it, until the summed execution time reaches --seconds.  Every
slot (one operation shape) then has several executions; each is scaled
to the reference host speed by the host probes around it (worker.scale),
and the metrics are taken over the median execution of each slot.  The
unscaled figures are in meta as "raw".
--trace 1 starts one worker that runs a fixed number of cycles untraced
and then the same operations with every public christol function
wrapped in a span, and reports the per-layer metrics and the tracing
overhead.  Construct runs also list the outcome of its known-defect
operations.  The last line of stdout is the result as JSON.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

from worker import REFERENCE_PROBE_S
from workloads import WORKLOADS

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKERS_PER_RUN = 3  # each timed worker measures seconds / WORKERS_PER_RUN
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def spawn(args, mode, stream, share=0.0):
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--stream", str(stream), "--mode", mode, "--share", repr(share)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker {stream} ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker {stream} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def merged_slots(workers, key):
    """Every execution time of each slot, over all workers."""
    slots = [[] for _ in workers[0][key]]
    for w in workers:
        for merged, times in zip(slots, w[key]):
            merged.extend(times)
    return slots


def latency_metrics(workers, key, budget, percentile):
    """op_p50_ms, op_tail_ms and ops_per_s over one latency per slot: the
    median of the slot's executions, or the budget if any of them failed.
    Also the number of slot latencies beyond the tail percentile."""
    failed = {k for w in workers for k in w["failed_slots"]}
    slots = merged_slots(workers, key)
    latencies = [budget if k in failed else statistics.median(times) for k, times in enumerate(slots)]
    tail_s, beyond = tail(latencies, percentile)
    values = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
    }
    return values, beyond


def git_commit(root):
    """HEAD's commit from the .git directory, without starting git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_version():
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "not installed"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="summed operation latency to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "christol", "__init__.py")):
        print(f"error: no christol sources under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        return report(args, root)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass  # absent, or another run is still using it


def report(args, root):
    cls = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "budget_s": cls.budget_s,
    }
    workers = []
    if args.trace:
        traced = spawn(args, "trace", 0)
        workers.append(traced)
        metrics = traced["metrics"]
        overhead = traced["traced_busy_s"] / traced["untraced_busy_s"] - 1
        ops = len(traced["latencies"]) // 2
        attempted = 2 * ops
        meta.update(
            ops=ops,
            trace_overhead=overhead,
            **{k: traced[k] for k in ("untraced_busy_s", "traced_busy_s", "untraced_p50_ms", "traced_p50_ms")},
            spans=traced["spans"],
            spans_file=traced["spans_file"],
        )
        print(
            f"{args.workload}: traced {ops} operations; summed latency "
            f"{traced['untraced_busy_s']:.3f} s untraced, {traced['traced_busy_s']:.3f} s traced "
            f"(tracing overhead {overhead:+.1%}); p50 {traced['untraced_p50_ms']:.3f} ms untraced, "
            f"{traced['traced_p50_ms']:.3f} ms traced"
        )
    else:
        busy = 0.0
        while busy < args.seconds:
            share = min(args.seconds / WORKERS_PER_RUN, args.seconds - busy)
            worker = spawn(args, "timed", len(workers), share)
            workers.append(worker)
            busy += worker["busy_s"]
        values, beyond = latency_metrics(workers, "slots", cls.budget_s, cls.tail_percentile)
        raw, _ = latency_metrics(workers, "raw_slots", cls.budget_s, cls.tail_percentile)
        raw["setup_s"] = statistics.median(w["raw_setup_s"] for w in workers)
        setup_s = statistics.median(w["setup_s"] for w in workers)
        executions = sum(w["executions"] for w in workers)
        failed = sum(len(w["failures"]) for w in workers)
        warm = sum(w["warm_ops"] for w in workers)
        probe_ms = statistics.median(x for w in workers for x in w["probes"]) * 1e3
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": values["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": values["op_tail_ms"], "unit": "ms"},
            "ops_per_s": {"value": values["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers), "unit": "MB"},
        }
        samples = sorted(len(slot) for slot in merged_slots(workers, "slots"))
        attempted = executions + warm
        meta.update(
            ops=len(samples),
            executions=executions,
            samples_per_op=[samples[0], samples[-1]],
            workers=len(workers),
            cycles=sum(w["cycles"] for w in workers),
            busy_s=busy,
            tail_percentile=cls.tail_percentile,
            tail_beyond=beyond,
            warm_ops=warm,
            fail_ratio=failed / (executions + warm),
            setup_s_all=[w["setup_s"] for w in workers],
            host_probe_ms=probe_ms,
            reference_probe_ms=REFERENCE_PROBE_S * 1e3,
            raw=raw,
        )
        print(
            f"{args.workload}: setup_s {setup_s:.4f} s | "
            f"op_p50_ms {metrics['op_p50_ms']['value']:.3f} ms | "
            f"op_tail_ms {values['op_tail_ms']:.3f} ms (p{cls.tail_percentile} of {len(samples)}, {beyond} beyond) | "
            f"ops_per_s {metrics['ops_per_s']['value']:.3f} 1/s | "
            f"fail_ratio {failed / (executions + warm):.4f} ({failed}/{executions + warm}) | "
            f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB | "
            f"{samples[0]}-{samples[-1]} samples per operation | "
            f"host probe {probe_ms:.3f} ms (reference {REFERENCE_PROBE_S * 1e3:g} ms) | "
            f"raw: setup_s {raw['setup_s']:.4f} s, op_p50_ms {raw['op_p50_ms']:.3f} ms, "
            f"op_tail_ms {raw['op_tail_ms']:.3f} ms, ops_per_s {raw['ops_per_s']:.3f} 1/s"
        )

    failures = [f for w in workers for f in w["failures"]]
    for label, kind, reason in failures:
        print(f"failed ({kind}): {label}: {reason}")
    problems = sorted({w["setup_problem"] for w in workers if "setup_problem" in w})
    for problem in problems:
        print(f"set-up machine rejected by its oracle: {problem}")
    if problems:
        meta["setup_problems"] = problems
    if hasattr(cls, "known_defects"):
        meta["known_defects"] = spawn(args, "defects", len(workers))["known_defects"]
        for entry in meta["known_defects"]:
            print(f"known defect: {entry['op']}: {entry['outcome']}")

    correct = not problems and not any(kind == "wrong" for _, kind, _ in failures)
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
