"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They take about a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess

import pytest

import calibration
import run
import tracing
import workloads

CM = workloads.load_chainmail()
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    with run.workdir("test") as path:
        yield path


def test_benchmark_json_names_the_metrics_run_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == \
        [(name, unit, better) for name, unit, better in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(name, unit, better) for name, unit, better in tracing.PER_LAYER]
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_wide_inputs_are_deterministic_and_distinct():
    popcount = workloads._popcount
    pool = workloads.wide_pool()
    assert len(pool) == workloads.POOL_PER_WIDTH * len(workloads.WIDTHS)
    count = 3 * len(pool)
    batch = workloads.wide_batch(7, count)
    assert batch == workloads.wide_batch(7, count)
    assert batch != workloads.wide_batch(8, count)
    assert len({workloads.order_key(sets) for sets, _ in batch}) == count
    for i, (sets, connected) in enumerate(batch):
        base_sets, base_connected = pool[i % len(pool)]
        assert max(sets).bit_length() == workloads.WIDTHS[i % len(workloads.WIDTHS)]
        assert sorted(map(popcount, sets)) == sorted(map(popcount, base_sets))
        assert len(connected) == len(base_connected)
        assert len(sets) <= workloads.MAX_ELEMENTS
        assert {0} | {c for c, s in enumerate(sets) if popcount(s) == 1} <= set(connected)


def test_two_passes_of_default_seed_wide_inputs_exit_0_without_cache_hits(workdir):
    workload = workloads.ClassifyWide(CM, workloads.DEFAULT_SEED, workdir)
    count = 2 * workloads.POOL_PER_WIDTH * len(workloads.WIDTHS)
    ops = [op for op in itertools.islice(workload.ops(), len(workload.fixtures) + count)
           if op.key.startswith("wide:")]
    assert len(ops) == count
    cached = CM.connectivity.absolutely_connected_elements
    before = cached.cache_info()
    for op in ops:
        code, _out, err = raw = op.run()
        assert (code, err) == (0, ""), op.key
        assert op.finish(raw).ok, op.key
    after = cached.cache_info()
    assert after.hits == before.hits
    assert after.misses - before.misses == len(ops)


def test_sweep_verdict_digest_does_not_depend_on_the_seed(workdir):
    expected = workloads.load_expected()["sweep-small"]["verdicts_sha256"]
    for seed in (1, 2):
        workload = workloads.SweepSmall(CM, seed, workdir)
        loop = run.closed_loop(workload, count=workload.trace_ops)
        assert loop.failed == 0
        bits = "".join(d[1] for d in loop.digests[:len(workload.posets)])
        verdicts = [int(d) for d in loop.digests[len(workload.posets):]]
        assert workloads.sweep_digest(bits, verdicts) == expected


def bindings():
    return {(id(owner), attr): value
            for target in tracing.TARGETS
            for owner, attr, value in tracing.Tracer._bindings(CM, target)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_outputs(name, workdir):
    count = {"enum-chainmails": 1, "enum-posets-t2": 1}.get(name)
    plain = workloads.WORKLOADS[name](CM, 3, workdir)
    untraced = run.closed_loop(plain, count=count or plain.trace_ops)
    original = bindings()
    tracer = tracing.Tracer()
    replaced = tracer.install(CM)
    try:
        assert all(value is not original[key] for key, value in bindings().items())
        traced = run.closed_loop(workloads.WORKLOADS[name](CM, 3, workdir),
                                 count=count or plain.trace_ops)
    finally:
        tracer.uninstall(replaced)
    assert bindings() == original
    assert untraced.failed == traced.failed == 0
    assert untraced.digests == traced.digests
    assert tracer.absent == []
    metrics = tracer.metrics(plain.threads)
    assert set(metrics) | {"trace.overhead_frac"} == {m for m, _u, _b in tracing.PER_LAYER}
    if name == "classify-wide":
        assert metrics["canon.canonicalize.calls"] == 0
        assert metrics["enumeration.self_s"] == 0
    if name == "enum-posets-t2":
        assert metrics["poset.reduced_mail_scan.filter.calls"] == 0
        assert metrics["enumeration.children_cpu_s"] > 0
    if name == "enum-chainmails":
        assert metrics["canon.canonicalize.calls"] == 7748
        assert metrics["canon.calls_at_n.8"] > 0


def test_a_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        tracing.Target("poset", "no_such_function", "poset.no_such_function"),))
    tracer = tracing.Tracer()
    tracer.uninstall(tracer.install(CM))
    assert tracer.absent == ["poset.no_such_function"]


def test_per_slot_takes_the_median_of_each_slots_repeats():
    assert run.per_slot(["a", "b", "a", "b", "a"], [3.0, 5.0, 1.0, 6.0, 2.0]) == {"a": 2.0, "b": 5.5}


def test_calibration_kernel_does_fixed_work_and_scales_to_the_reference():
    assert calibration.unit() == calibration.CHECKSUM
    assert calibration.factor(calibration.REFERENCE_S, calibration.REFERENCE_S) == 1.0
    assert calibration.factor(0.5 * calibration.REFERENCE_S, 1.5 * calibration.REFERENCE_S) == 1.0
    assert calibration.factor(2 * calibration.REFERENCE_S, 2 * calibration.REFERENCE_S) == 0.5


def test_a_two_process_sampler_joins_its_helper():
    with calibration.Sampler(2) as sampler:
        (proc, _conn), = sampler.helpers
        assert sampler.sample() > 0
    assert not proc.is_alive()
    assert proc.exitcode == 0


def test_every_window_operation_is_bracketed_by_kernel_samples(workdir, monkeypatch):
    samples = iter([0.1, 0.2, 0.4, 0.8])
    sampler = calibration.Sampler()
    monkeypatch.setattr(sampler, "sample", lambda: next(samples))
    monkeypatch.setattr(run, "CALIBRATE_EVERY_S", 0.0)
    workload = workloads.SweepSmall(CM, 1, workdir)
    workload.window_ops = 3
    loop = run.closed_loop(workload, count=5, sampler=sampler)
    assert loop.failed == 0
    ref = calibration.REFERENCE_S
    assert loop.speed == pytest.approx([ref / 0.15, ref / 0.3, ref / 0.6])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(19)]) == (18.0, 100.0)


def test_fails_without_the_package_sources(workdir):
    shutil.copytree(workloads.HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "sweep-small", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
