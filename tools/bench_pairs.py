"""Compare two checkouts on benchmark workloads in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        [--workload W2 ...] --seeds S1 S2 ... [--seconds 10] \
        [--parent-revision REV] [--describe TEXT]

For each workload and each seed, one pair of runs is made, one run in each
checkout, the parent first in even pairs and the change first in odd ones,
so that a steady drift of the machine's speed does not favour either side.
A workload of ``perfbench/workloads.py`` runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
with the ``perfbench/`` of its own checkout, which this script never writes.
A console case of ``CASES`` runs ``python3 -m chainmail enumerate ...`` with
``PYTHONPATH`` set to the checkout's ``src``; it ignores the seed values (so
``--seeds`` sets only its number of pairs) and ``--seconds``.  Its run is
recorded in the shape of ``run.py``'s last line: correct when the command
exits 0 and prints the case's published count, one failed operation when it
exits otherwise, and two metrics, lower being better: ``elapsed_s``, the
``elapsed:`` it prints on stderr (the enumeration alone; the wall time when
that line is missing), and ``wall_s``, the wall time of the process.

One entry in the shape of ``BENCH_enumerate.json`` is printed on stdout:
per workload and side, the median, the inclusive quartiles, the minimum
and the maximum of every end-to-end metric, the number of pairs in which
the change's run was better, whether that is a claimable gain
(``claim_met``, see :func:`summarize`), and whether every run was correct
with no failed operation.  A perfbench workload's metric names, units and
directions come from the change checkout's ``BENCHMARK.json``, and its
class count is the ``count`` its ``perfbench/workloads.py`` asserts; a
console case's is its published count.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")

# name -> (the arguments of `chainmail enumerate`, the count it must print:
# the paper's table for chainmails, OEIS A000112 for posets)
CASES = {
    "count-chainmails-9-t1": (["--kind", "chainmails", "--n", "9", "--deep", "--threads", "1"], 14073),
    "count-chainmails-10-t2": (["--kind", "chainmails", "--n", "10", "--deep", "--threads", "2"], 134802),
    "count-posets-9-t2": (["--kind", "posets", "--n", "9", "--threads", "2"], 183231),
}
CASE_METRICS = [("elapsed_s", "s", "lower"), ("wall_s", "s", "lower")]


def significant(x: float) -> float:
    """x to five significant digits, as the committed records keep it."""
    return float(f"{x:.5g}")


def spread(values: list) -> dict:
    """Median, inclusive quartiles, minimum and maximum of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {name: significant(v) for name, v in
            (("median", median), ("q1", q1), ("q3", q3), ("min", min(values)), ("max", max(values)))}


def summarize(pairs: list, seeds: list, counts: dict, metrics: list) -> dict:
    """One workload's record from ``pairs``, a list of ``{"parent": run,
    "change": run}``, each run the JSON object that ``perfbench/run.py``
    prints last.  ``metrics`` lists ``(name, unit, better)``, with
    ``better`` either "higher" or "lower"; a metric that some run lacks is
    left out.  ``counts`` maps each side to its class count.

    A metric's ``claim_met`` is the rule for claiming a gain: the change
    was better in at least nine tenths of the pairs, a tie counting for
    neither side, and its median is better than the parent's by more than
    the parent's interquartile range, both read off the recorded spreads."""
    runs = {side: [pair[side] for pair in pairs] for side in SIDES}
    record = {
        "pairs": len(pairs),
        "seeds": list(seeds),
        "count": dict(counts),
        "every_output_correct": all(run["correct"] is True for side in SIDES for run in runs[side]),
        "failed_ops": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "metrics": {},
    }
    for name, unit, better in metrics:
        if not all(name in run["metrics"] for side in SIDES for run in runs[side]):
            continue
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        stats = {side: spread(values[side]) for side in SIDES}
        parent = stats["parent"]
        gap = sign * (stats["change"]["median"] - parent["median"])
        record["metrics"][name] = {"unit": unit, **stats, "change_better_in_pairs": wins,
                                   "claim_met": 10 * wins >= 9 * len(pairs) and gap > parent["q3"] - parent["q1"]}
    return record


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced benchmark run in ``checkout``, or
    the record of one run of a console case in that shape."""
    if workload not in CASES:
        out = subprocess.run(
            [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])
    args, expected = CASES[workload]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "chainmail", "enumerate", *args], cwd=checkout,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")}, capture_output=True, text=True)
    wall = time.perf_counter() - start
    elapsed = [line.split()[1].rstrip("s") for line in proc.stderr.splitlines() if line.startswith("elapsed: ")]
    return {"correct": proc.returncode == 0 and json.loads(proc.stdout)["count"] == expected,
            "failed": int(proc.returncode != 0),
            "metrics": {"elapsed_s": {"value": float(elapsed[0]) if elapsed else wall, "unit": "s"},
                        "wall_s": {"value": wall, "unit": "s"}}}


def published_count(checkout: Path, workload: str, side: str):
    """The class count that ``checkout``'s workload asserts, or None; a
    console case's published count."""
    if workload in CASES:
        return CASES[workload][1]
    spec = importlib.util.spec_from_file_location(f"workloads_{side}", checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module.WORKLOADS[workload], "count", None)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="perfbench workload or case; repeat")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="per perfbench run")
    parser.add_argument("--parent-revision", default="", help="recorded as parent_revision")
    parser.add_argument("--describe", default="", help="recorded as the entry's change")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench_metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    workloads = {}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            pair = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: correct {pair[side]['correct']}, "
                      f"failed {pair[side]['failed']}", file=sys.stderr)
            pairs.append(pair)
        counts = {side: published_count(checkouts[side], workload, side) for side in SIDES}
        metrics = CASE_METRICS if workload in CASES else bench_metrics
        workloads[workload] = summarize(pairs, args.seeds, counts, metrics)
    print(json.dumps({
        "change": args.describe,
        "parent_revision": args.parent_revision,
        "revision": "the commit that adds this entry",
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": workloads,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
