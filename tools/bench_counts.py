"""Time count-only enumeration runs of two checkouts, alternating.

    python3 tools/bench_counts.py --parent DIR --change DIR [--runs 3] \
        [--parent-revision REV] [--describe TEXT]

Each case is one console command, ``python3 -m chainmail enumerate ...``
with no catalog, run with ``PYTHONPATH`` set to the checkout's ``src``:

    chainmails n = 9 on 1 worker, chainmails n = 10 on 2, posets n = 9 on 2.

Each case runs ``--runs`` times in each checkout, the parent first in even
rounds and the change first in odd ones.  A run's times are the
``elapsed:`` the command prints on stderr (the enumeration alone) and the
wall time of the whole process.  A run is correct when it exits 0 and
prints the case's published count (OEIS A000112 for posets, the paper's
table for chainmails), so the counts of both sides are asserted equal.

One entry in the shape of ``BENCH_enumerate.json`` is printed on stdout:
per case and side, the median, minimum and maximum of both times, the
parent's median over the change's for each, and whether every run was
correct with no failed run.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")

# name -> (the arguments of `chainmail enumerate`, the count it must print)
CASES = {
    "count-chainmails-9-t1": (["--kind", "chainmails", "--n", "9", "--deep", "--threads", "1"], 14073),
    "count-chainmails-10-t2": (["--kind", "chainmails", "--n", "10", "--deep", "--threads", "2"], 134802),
    "count-posets-9-t2": (["--kind", "posets", "--n", "9", "--threads", "2"], 183231),
}


def significant(x: float) -> float:
    """x to five significant digits, as the committed records keep it."""
    return float(f"{x:.5g}")


def count_of(run: dict):
    """The count a run printed, or None when it failed."""
    return json.loads(run["stdout"])["count"] if run["code"] == 0 else None


def summarize(runs: dict, args: list, expected: int) -> dict:
    """One case's record from ``runs``, which maps each side to its runs,
    each a dict with ``code``, ``stdout``, ``elapsed_s`` and ``wall_s``;
    ``expected`` is the count every run must print."""
    record = {
        "command": " ".join(["chainmail", "enumerate", *args]),
        "runs": len(runs["parent"]),
        "count": {side: count_of(runs[side][0]) for side in SIDES},
        "every_output_correct": all(count_of(run) == expected for side in SIDES for run in runs[side]),
        "failed_ops": {side: sum(run["code"] != 0 for run in runs[side]) for side in SIDES},
    }
    for time_name in ("elapsed_s", "wall_s"):
        values = {side: [run[time_name] for run in runs[side]] for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        record[time_name] = {
            **{side: {"median": significant(medians[side]), "min": significant(min(values[side])),
                      "max": significant(max(values[side]))} for side in SIDES},
            "parent_over_change": significant(medians["parent"] / medians["change"]),
        }
    return record


def run_once(checkout: Path, args: list) -> dict:
    """Exit code, stdout and times of one count-only command in ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "chainmail", "enumerate", *args],
                          cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    elapsed = [line.split()[1].rstrip("s") for line in proc.stderr.splitlines() if line.startswith("elapsed: ")]
    return {"code": proc.returncode, "stdout": proc.stdout,
            "elapsed_s": float(elapsed[0]) if elapsed else wall, "wall_s": wall}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=3, help="runs per case and side")
    parser.add_argument("--parent-revision", default="", help="recorded as parent_revision")
    parser.add_argument("--describe", default="", help="recorded as the entry's change")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = {}
    for name, (case, expected) in CASES.items():
        runs = {side: [] for side in SIDES}
        for i in range(args.runs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(checkouts[side], case)
                runs[side].append(run)
                print(f"{name} run {i} {side}: exit {run['code']}, {run['elapsed_s']:.3f} s", file=sys.stderr)
        workloads[name] = summarize(runs, case, expected)
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
