"""The committed benchmark records: every recorded speed-up compared runs
that produced the same, correct outputs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_entry_compares_equal_correct_outputs(path):
    entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
    assert entries
    for entry in entries:
        for name, workload in entry["workloads"].items():
            where = f"{entry['change']}: {name}"
            assert workload["count"]["parent"] == workload["count"]["change"], where
            assert workload["every_output_correct"] is True, where
            assert workload["failed_ops"] == {"parent": 0, "change": 0}, where
