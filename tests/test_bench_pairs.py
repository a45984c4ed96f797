"""The summary that tools/bench_pairs.py makes of alternating benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(items: float, rss: float, failed: int = 0, correct: bool = True) -> dict:
    """A run as perfbench/run.py prints it last, with two metrics."""
    return {"correct": correct, "attempted": 8, "failed": failed,
            "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


METRICS = [("items_per_s", "1/s", "higher"), ("peak_rss_mb", "MB", "lower"), ("setup_s", "s", "lower")]


def test_summary_of_fixed_runs(bench_pairs):
    pairs = [
        {"parent": run(100.0, 65.0), "change": run(110.0, 64.0)},
        {"parent": run(104.0, 65.5), "change": run(103.0, 63.0)},
        {"parent": run(98.0, 64.0), "change": run(120.0, 64.0)},
        {"parent": run(101.0, 66.0), "change": run(111.123456, 63.5)},
    ]
    record = bench_pairs.summarize(pairs, [1, 2, 3, 4], {"parent": 7, "change": 7}, METRICS)
    assert record == {
        "pairs": 4,
        "seeds": [1, 2, 3, 4],
        "count": {"parent": 7, "change": 7},
        "every_output_correct": True,
        "failed_ops": {"parent": 0, "change": 0},
        "metrics": {
            # inclusive quartiles: 98, 100, 101, 104 give 99.5, 100.5, 101.75
            "items_per_s": {
                "unit": "1/s",
                "parent": {"median": 100.5, "q1": 99.5, "q3": 101.75, "min": 98.0, "max": 104.0},
                "change": {"median": 110.56, "q1": 108.25, "q3": 113.34, "min": 103.0, "max": 120.0},
                "change_better_in_pairs": 3,
                "claim_met": False,
            },
            # lower is better, and a tie is no win
            "peak_rss_mb": {
                "unit": "MB",
                "parent": {"median": 65.25, "q1": 64.75, "q3": 65.625, "min": 64.0, "max": 66.0},
                "change": {"median": 63.75, "q1": 63.375, "q3": 64.0, "min": 63.0, "max": 64.0},
                "change_better_in_pairs": 3,
                "claim_met": False,
            },
            # setup_s is in no run, so it is left out
        },
    }


def test_a_claim_needs_the_pairs_and_a_gap_wider_than_the_spread(bench_pairs):
    # the parent's items_per_s 100, 110, 120, 130 have median 115 and
    # quartiles 107.5 and 122.5, so the change must beat 115 by more than 15
    parent = [100.0, 110.0, 120.0, 130.0]
    cases = [
        ([101.0, 111.0, 121.0, 131.0], 4, False),   # every pair won, gap 1: the spread alone fails it
        ([130.0, 140.0, 150.0, 160.0], 4, True),    # gap 30
        ([130.0, 140.0, 150.0, 90.0], 3, False),    # gap 20, but 3 of 4 pairs
    ]
    for change, wins, claim in cases:
        pairs = [{"parent": run(p, 1.0), "change": run(c, 1.0)} for p, c in zip(parent, change)]
        record = bench_pairs.summarize(pairs, [1, 2, 3, 4], {"parent": 1, "change": 1}, METRICS)
        items = record["metrics"]["items_per_s"]
        assert (items["change_better_in_pairs"], items["claim_met"]) == (wins, claim)
        # equal runs: no pair won, no claim
        assert record["metrics"]["peak_rss_mb"]["claim_met"] is False


def test_a_failed_or_incorrect_run_shows(bench_pairs):
    pairs = [{"parent": run(1.0, 1.0), "change": run(2.0, 1.0, failed=2)},
             {"parent": run(1.0, 1.0, correct=False), "change": run(2.0, 1.0)}]
    record = bench_pairs.summarize(pairs, [5, 6], {"parent": 1, "change": 1}, METRICS)
    assert record["every_output_correct"] is False
    assert record["failed_ops"] == {"parent": 0, "change": 2}
    assert record["metrics"]["items_per_s"]["change_better_in_pairs"] == 2
    assert record["metrics"]["peak_rss_mb"]["change_better_in_pairs"] == 0


def test_one_seed_is_refused(bench_pairs):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "a", "--change", "b", "--workload", "w", "--seeds", "1"])
