"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs untraced in this process for S
seconds, as a closed loop with one client, and the end-to-end metrics are
printed.  Set-up (interpreter start-up, import and input generation) is
timed separately, in fresh child processes, after the timed loop.

The time metrics are read over a fixed window, the workload's first
``window_ops`` operations, in which every slot (one piece of repeated
work) runs a fixed number of times.  In the window a fixed calibration
kernel runs before the first operation and then about once a second,
between operations (see ``calibration``); each operation's time is scaled
to the reference speed by the kernel samples just before and after it,
and each slot is timed at the median of its scaled repeats.
``items_per_s`` is the items of all slots over the sum of their times,
``op_s.p50`` and ``op_s.tail`` are quantiles over the slots, and
``cpu_s_per_op`` is their mean CPU time, scaled alike.  ``setup_s`` is
scaled the same way.  ``peak_rss_mb`` is read at the end of the window.
The window is fixed so that the parent and a faster change are compared
on the same quantiles, the same number of repeats and the same cache
growth.  A run lasts at least S seconds and at least the window; every
operation in it is checked.

With ``--trace 1`` four child processes each run the same fixed prefix of
the workload's operations, untraced, traced, traced and untraced, the
traced ones with the per-layer timing wrappers of ``tracing`` installed;
their outputs must be identical, and the per-layer metrics and the tracing
overhead are printed.  The prefix is fixed so that the per-layer counts
repeat exactly from run to run.

Every output is checked.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import calibration
import tracing
import workloads

SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 1.0   # wall seconds of operations between kernel samples
CHILD_TIMEOUT_S = 150
WORK_ROOT = workloads.ROOT / ".perfbench-work"

# name, unit, better
END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("cpu_s_per_op", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@contextlib.contextmanager
def workdir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Loop(NamedTuple):
    slots: list         # slot of each operation
    durations: list     # wall seconds of each operation
    cpu: list           # CPU seconds of this process and its children in each operation
    items: list         # items produced by each operation
    digests: list       # output digest of each operation
    failed: int
    peak_rss_mb: float  # read after the workload's ``window_ops`` operations
    speed: list         # per operation of the window, its factor to the reference speed


def closed_loop(workload, seconds: float = None, count: int = None,
                sampler: calibration.Sampler = None) -> Loop:
    """Run operations one after another until ``count`` operations are
    done, or until ``seconds`` have passed and the workload's window is
    full; only ``op.run`` is timed.  With a ``sampler`` the calibration
    kernel runs between the window's operations: before the first, after
    each ``CALIBRATE_EVERY_S`` of work, and after the last."""
    slots, durations, cpu, items, digests = [], [], [], [], []
    samples, before = [], []    # kernel samples; per operation, the index of the one before it
    failed = 0
    rss = None
    forks = workload.threads > 1
    start = time.perf_counter()
    for op in workload.ops():
        if sampler and len(durations) < workload.window_ops and (
                not samples or time.perf_counter() - sampled >= CALIBRATE_EVERY_S):
            samples.append(sampler.sample())
            sampled = time.perf_counter()
        before.append(len(samples) - 1)
        children0 = children_cpu_s() if forks else 0.0
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw = op.run()
            durations.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - cpu0 + (children_cpu_s() - children0 if forks else 0.0))
            outcome = op.finish(raw)
        except Exception as exc:  # a crashing operation is a failed one
            if len(durations) == len(digests):
                durations.append(time.perf_counter() - t0)
                cpu.append(time.process_time() - cpu0)
            print(f"{op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            outcome = workloads.Outcome("error", False, 0)
        else:
            if not outcome.ok:
                print(f"{op.key}: wrong output", file=sys.stderr)
        slots.append(op.slot)
        digests.append(outcome.digest)
        items.append(outcome.items)
        failed += not outcome.ok
        if len(durations) == workload.window_ops:
            rss = peak_rss_mb()
            if sampler:
                samples.append(sampler.sample())
        if count is not None and len(durations) >= count:
            break
        if (seconds is not None and len(durations) >= workload.window_ops
                and time.perf_counter() - start >= seconds):
            break
    speed = [calibration.factor(samples[i], samples[i + 1])
             for i in before[:workload.window_ops]] if sampler else []
    return Loop(slots, durations, cpu, items, digests, failed,
                peak_rss_mb() if rss is None else rss, speed)


def per_slot(slots: list, values: list) -> dict:
    """Per slot, the median of its repeats."""
    repeats = {}
    for slot, value in zip(slots, values):
        repeats.setdefault(slot, []).append(value)
    return {slot: statistics.median(vs) for slot, vs in repeats.items()}


def tail(durations: list) -> tuple:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it.  Below 20 samples no percentile above the median has 10
    beyond it, and the slowest operation is reported as p100."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def child_command(args, role: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--child", role]


def run_child(args, role: str) -> dict:
    """Run a child to completion and return its last stdout line as JSON."""
    proc = subprocess.run(child_command(args, role), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(args) -> tuple:
    """(scaled, measured): median wall time of a fresh interpreter starting,
    importing the package and generating the workload's inputs, scaled
    by kernel samples taken before and after each child, and as measured."""
    sampler = calibration.Sampler()
    samples, times = [sampler.sample()], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(child_command(args, "setup"), stdout=subprocess.DEVNULL)
        # a wait with a timeout polls every 50 ms, which would round the
        # time; a timer kills a hung child instead
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        code = proc.wait()
        times.append(time.perf_counter() - t0)
        timer.cancel()
        if code != 0:
            raise SystemExit(f"perfbench: setup child exited with {code}")
        samples.append(sampler.sample())
    scaled = [t * calibration.factor(a, b) for t, a, b in zip(times, samples, samples[1:])]
    return statistics.median(scaled), statistics.median(times)


def end_to_end(args, cm) -> dict:
    with workdir(args.workload) as path:
        workload = workloads.WORKLOADS[args.workload](cm, args.seed, path)
        with calibration.Sampler(workload.threads) as sampler:
            loop = closed_loop(workload, seconds=args.seconds, sampler=sampler)
    w = workload.window_ops
    slots = loop.slots[:w]
    durations = per_slot(slots, [t * f for t, f in zip(loop.durations, loop.speed)])
    cpu = per_slot(slots, [t * f for t, f in zip(loop.cpu, loop.speed)])
    measured = per_slot(slots, loop.durations[:w])
    items = dict(zip(slots, loop.items[:w]))
    tail_s, tail_pct = tail(list(durations.values()))
    setup_s, setup_measured = time_setup(args)
    n = len(loop.durations)
    values = {
        "items_per_s": sum(items.values()) / sum(durations.values()),
        "op_s.p50": statistics.median(durations.values()),
        "op_s.tail": tail_s,
        "cpu_s_per_op": statistics.fmean(cpu.values()),
        "peak_rss_mb": loop.peak_rss_mb,
        "setup_s": setup_s,
    }
    print(f"{args.workload}: seed {args.seed}, closed loop, 1 client, {n} operations "
          f"timed for {sum(loop.durations):.1f} s, failed_frac {loop.failed / n:g}")
    print(f"  time metrics: each of {len(durations)} slots at the median of its repeats "
          f"among the first {w} operations, scaled to the reference speed; items_per_s "
          f"counts {workload.items}; op_s.tail is p{tail_pct:.2f} of the slots")
    print(f"  machine speed: {statistics.median(loop.speed):.3f} of the reference in the window "
          f"(median of {len(loop.speed)} operations); as measured, items_per_s "
          f"{sum(items.values()) / sum(measured.values()):.6g} 1/s, "
          f"op_s.p50 {statistics.median(measured.values()):.6g} s, setup_s {setup_measured:.6g} s")
    return {"correct": loop.failed == 0, "attempted": n, "failed": loop.failed,
            "metrics": described(values, END_TO_END)}


def per_layer(args) -> dict:
    """Replay the prefix untraced, traced, traced, untraced; the order
    cancels a steady drift of the machine's speed, and each side's faster
    replay enters the overhead."""
    replays = [(role, run_child(args, role)) for role in ("untraced", "traced", "traced", "untraced")]
    plain = replays[0][1]["digests"]
    mismatched = sum(sum(a != b for a, b in zip(plain, child["digests"]))
                     + abs(len(plain) - len(child["digests"])) for _role, child in replays)
    failed = max([mismatched] + [child["failed"] for _role, child in replays])
    fastest = {role: min(child["wall_s"] for r, child in replays if r == role)
               for role in ("untraced", "traced")}
    traced = replays[1][1]
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = fastest["traced"] / fastest["untraced"] - 1
    print(f"{args.workload}: seed {args.seed}, traced replay of {len(plain)} operations, "
          f"outputs identical to untraced: {failed == 0}")
    if traced["absent"]:
        print(f"  absent (no longer in the package): {', '.join(traced['absent'])}")
    return {"correct": failed == 0, "attempted": len(plain), "failed": failed,
            "metrics": described(values, tracing.PER_LAYER)}


def described(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in spec if name in values}


def child_main(args, cm) -> None:
    with workdir(f"{args.workload}-{args.child}") as path:
        workload = workloads.WORKLOADS[args.workload](cm, args.seed, path)
        if args.child == "setup":
            return
        tracer = tracing.Tracer()
        replaced = tracer.install(cm) if args.child == "traced" else []
        try:
            loop = closed_loop(workload, count=workload.trace_ops)
        finally:
            tracer.uninstall(replaced)
    print(json.dumps({
        "digests": loop.digests,
        "failed": loop.failed,
        "wall_s": sum(loop.durations),
        "layers": tracer.metrics(workload.threads),
        "absent": tracer.absent,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    cm = workloads.load_chainmail()
    if args.child:
        child_main(args, cm)
        return 0
    result = per_layer(args) if args.trace else end_to_end(args, cm)
    for name, metric in result["metrics"].items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
