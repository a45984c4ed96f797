"""The summary that tools/bench_counts.py makes of count-only runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_counts.py"


@pytest.fixture(scope="module")
def bench_counts():
    spec = importlib.util.spec_from_file_location("bench_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(elapsed: float, wall: float, count: int = 14073, code: int = 0) -> dict:
    """A run as ``run_once`` returns it."""
    stdout = f'{{"kind":"chainmails","n":9,"count":{count}}}\n' if code == 0 else ""
    return {"code": code, "stdout": stdout, "elapsed_s": elapsed, "wall_s": wall}


ARGS = ["--kind", "chainmails", "--n", "9", "--deep", "--threads", "1"]


def test_summary_of_fixed_runs(bench_counts):
    runs = {"parent": [run(0.46, 0.55), run(0.47, 0.56), run(0.45, 0.54)],
            "change": [run(0.2, 0.29), run(0.24, 0.33), run(0.19, 0.281234567)]}
    assert bench_counts.summarize(runs, ARGS, 14073) == {
        "command": "chainmail enumerate --kind chainmails --n 9 --deep --threads 1",
        "runs": 3,
        "count": {"parent": 14073, "change": 14073},
        "every_output_correct": True,
        "failed_ops": {"parent": 0, "change": 0},
        "elapsed_s": {
            "parent": {"median": 0.46, "min": 0.45, "max": 0.47},
            "change": {"median": 0.2, "min": 0.19, "max": 0.24},
            "parent_over_change": 2.3,
        },
        "wall_s": {
            # five significant digits, as the committed records keep them
            "parent": {"median": 0.55, "min": 0.54, "max": 0.56},
            "change": {"median": 0.29, "min": 0.28123, "max": 0.33},
            "parent_over_change": 1.8966,
        },
    }


def test_a_failed_or_wrong_run_shows(bench_counts):
    runs = {"parent": [run(1.0, 1.0), run(1.0, 1.0, count=14072)],
            "change": [run(1.0, 1.0), run(1.0, 1.0, code=1)]}
    record = bench_counts.summarize(runs, ARGS, 14073)
    assert record["every_output_correct"] is False
    assert record["failed_ops"] == {"parent": 0, "change": 1}
    assert record["count"] == {"parent": 14073, "change": 14073}


def test_the_cases_are_the_recorded_count_only_commands(bench_counts):
    assert {name: (" ".join(args), count) for name, (args, count) in bench_counts.CASES.items()} == {
        "count-chainmails-9-t1": ("--kind chainmails --n 9 --deep --threads 1", 14073),
        "count-chainmails-10-t2": ("--kind chainmails --n 10 --deep --threads 2", 134802),
        "count-posets-9-t2": ("--kind posets --n 9 --threads 2", 183231),
    }


def test_no_runs_are_refused(bench_counts):
    with pytest.raises(SystemExit):
        bench_counts.parse_args(["--parent", "a", "--change", "b", "--runs", "0"])
