"""One worker process of the christol benchmark.

run.py starts several of these one after another, so that every slot
of a workload's cycle runs in several interpreter processes and at
several moments of the run: the same operations run 10-20% faster or
slower in one process than in another (hash seeds, address layout), and
the shared host's speed swings by up to a factor of two from one second
to the next.

A worker imports christol (timed, with the workload's set-up, as its
setup_s, scaled like the operations), then in one of three modes

  timed    runs one operation untimed to warm up, then as many whole
           cycles as brings their summed execution time nearest to
           --share, with a host probe before and after each operation,
           and reports every execution time by slot, raw and scaled;
  trace    runs a fixed number of cycles untraced, then the same
           operations traced;
  defects  runs the workload's known-defect operations;

and prints one JSON line.  Usage (from the root of a checkout):

    python3 bench/worker.py --workload query --seed 1 --stream 0 --mode timed --share 4
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from random import Random
from time import perf_counter

from tracing import Tracer
from workloads import SLOTS, WORKLOADS

REPEAT_BELOW_S = 0.005
REPEATS = 5
PROBE_LOOPS = 10_000
# host_probe() on the reference host; times are reported at its speed
REFERENCE_PROBE_S = 0.0005
SETUP_PROBES = 5


def host_probe():
    """Seconds taken by a fixed pure-Python loop that uses nothing from
    christol: how fast the shared host runs at this moment."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i % 7
    return perf_counter() - start


def scale(seconds, probes):
    """A time taken on the shared host, at the speed of the reference
    host: multiplied by REFERENCE_PROBE_S over the mean of the host probes
    taken just before and just after it.

    The shared host's speed swings by up to a factor of two over seconds
    and drifts between runs, and every part of an operation slows with
    it; the probe, which shares no code with christol, slows in step.  A
    change to the program moves the scaled time as it moves the raw one,
    and the host's swings largely cancel."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


class Overrun(BaseException):
    """An operation outlived its budget.  Deliberately outside the
    Exception hierarchy: cli_main turns OSError (TimeoutError included),
    ValueError and ChristolError into exit code 1, which would make an
    overrun read as an ordinary failure."""


def _on_alarm(signum, frame):
    raise Overrun()


def run_once(op, budget):
    """(seconds, output, failure) of one execution under the budget."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            output = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        return budget, None, ("overrun", f"over the {budget:g} s budget")
    except Exception as exc:  # any raise is a failed operation
        return budget, None, ("error", f"raised {type(exc).__name__}: {exc}")
    return perf_counter() - start, output, None


def run_op(op, budget, repeat=True):
    """(times, failure) of one operation: the seconds of each execution,
    and None or (kind, reason).  A failed operation counts once, at the
    budget latency.

    An operation shorter than REPEAT_BELOW_S runs REPEATS times back to
    back, and every execution is a sample: single millisecond-scale runs
    jitter by tens of percent on a shared two-core machine.  Traced runs
    pass repeat=False so that their counts do not depend on timing."""
    latency, output, failure = run_once(op, budget)
    if failure is None:
        try:
            failure = op.check(output)
        except Exception as exc:  # a check that cannot read the output rejects it
            failure = ("wrong", f"check raised {type(exc).__name__}: {exc}")
    if failure:
        return [budget], failure
    times = [latency]
    if repeat and latency < REPEAT_BELOW_S:
        for _ in range(REPEATS - 1):
            again, _output, failure = run_once(op, budget)
            if failure:
                return [budget], failure
            times.append(again)
    return times, None


class Phase:
    """Execution times and failures of a sequence of operations."""

    def __init__(self):
        self.times = []  # per operation, the seconds of each execution
        self.scaled = []  # per operation, scale() of each execution, if probed
        self.slots = []  # per operation, its slot
        self.failures = []  # [label, kind, reason]
        self.failed = []  # positions in times of the failed operations
        self.probes = []  # host_probe() before and after each operation, if asked

    def run(self, ops, budget, tracer=None, repeat=True, probe=False):
        for op in ops:
            if tracer is not None:
                tracer.begin_op(len(self.times))
            before = host_probe() if probe else None
            times, failure = run_op(op, budget, repeat)
            if probe:
                speed = [before, host_probe()]
                self.probes.extend(speed)
                self.scaled.append([scale(t, speed) for t in times])
            if failure:
                self.failures.append([op.label, *failure])
                self.failed.append(len(self.times))
            self.times.append(times)
            self.slots.append(op.slot)

    @property
    def latencies(self):
        """One latency per operation: its first execution."""
        return [times[0] for times in self.times]

    @property
    def busy_s(self):
        return sum(map(sum, self.times))


def traced_cycles(workload, spans_path):
    """workload.trace_cycles cycles untraced, then the same operations
    traced.  The cycle count is fixed, so counts repeat exactly."""
    budget = workload.budget_s
    ops = [op for _ in range(workload.trace_cycles) for op in workload.cycle()]
    untraced = Phase()
    untraced.run(ops, budget, repeat=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Phase()
        traced.run(ops, budget, tracer, repeat=False)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return {
        "latencies": untraced.latencies + traced.latencies,
        "failures": untraced.failures + traced.failures,
        "metrics": tracer.layer_metrics(),
        "untraced_busy_s": untraced.busy_s,
        "traced_busy_s": traced.busy_s,
        "untraced_p50_ms": statistics.median(untraced.latencies) * 1e3,
        "traced_p50_ms": statistics.median(traced.latencies) * 1e3,
        "spans": len(tracer.span_start),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="One christol benchmark worker process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, required=True, help="index of this worker within the run")
    parser.add_argument("--mode", required=True, choices=("timed", "trace", "defects"))
    parser.add_argument("--share", type=float, default=0.0, help="summed execution time to measure (timed mode)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=os.path.join(root, ".bench_work"))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        result = measure(args, root, work_dir)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, root, work_dir):
    cls = WORKLOADS[args.workload]
    before = statistics.median(host_probe() for _ in range(SETUP_PROBES))
    start = perf_counter()
    import christol
    import christol.cli

    # every worker of a run sets up the same machines; the operations
    # differ from worker to worker
    workload = cls(christol, Random(args.seed), Random(f"{args.seed}-{args.stream}"), work_dir)
    setup = perf_counter() - start
    after = statistics.median(host_probe() for _ in range(SETUP_PROBES))
    result = {"setup_s": scale(setup, [before, after]), "raw_setup_s": setup}
    problem = workload.verify_setup()
    if problem:
        result["setup_problem"] = problem

    if args.mode == "timed":
        warm = Phase()
        warm.run(workload.cycle()[:1], cls.budget_s, repeat=False)
        timed = Phase()
        cycles = 0
        # whole cycles, as many as brings the summed execution time
        # nearest --share
        while True:
            timed.run(workload.cycle(), cls.budget_s, probe=True)
            cycles += 1
            if timed.busy_s * (1 + 0.5 / cycles) >= args.share:
                break
        slots = [[] for _ in range(SLOTS[args.workload])]
        raw_slots = [[] for _ in slots]
        for slot, scaled, times in zip(timed.slots, timed.scaled, timed.times):
            slots[slot].extend(scaled)
            raw_slots[slot].extend(times)
        result.update(
            slots=slots,  # per slot, every execution of it, scaled
            raw_slots=raw_slots,
            failed_slots=sorted({timed.slots[i] for i in timed.failed}),
            busy_s=timed.busy_s,
            cycles=cycles,
            executions=sum(map(len, timed.times)),
            failures=warm.failures + timed.failures,
            warm_ops=len(warm.times),
            probes=timed.probes,
        )
    elif args.mode == "trace":
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
        result.update(traced_cycles(workload, spans_path))
        result["spans_file"] = os.path.relpath(spans_path, root)
    else:
        probe = Phase()
        ops = workload.known_defects()
        probe.run(ops, cls.budget_s, repeat=False)
        outcome = {label: f"{kind}: {reason}" for label, kind, reason in probe.failures}
        result["known_defects"] = [{"op": op.label, "outcome": outcome.get(op.label, "passes")} for op in ops]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    sys.exit(main())
