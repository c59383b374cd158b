"""Smoke test of the radar benchmark itself.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench)

Runs one job per workload, untraced and traced, and checks that every
metric BENCHMARK.json names is emitted with its unit; that a job checked
against a deliberately wrong reference counts as failed; and that the
benchmark refuses to run without the singradar source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# the cheapest job of each workload
ONE_JOB = {"sweep": "radius_s.sqrt", "pinned_ext": "radius_s.sqrt",
           "coefficients": "series_s.n128"}


def _one_job(workload: str):
    wl = jobs.build(workload, 1, run.SRC)
    return next(j for j in wl.jobs if j.kind == ONE_JOB[workload])


def _emitted(results, metrics) -> dict:
    line = json.loads(run.result_line(results, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == len(results)
    return {k: v["unit"] for k, v in line["metrics"].items()}


def test_every_metric_is_emitted_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert set(predictions) == set(layers)
    for workload in jobs.WORKLOADS:
        job = _one_job(workload)
        plain, samples = run.measure([job], 1, 0.0)
        assert len(samples) == 2 and plain[0][0].scaled > 0
        metrics = run.end_to_end_metrics(plain, 0.5, 40.0)
        assert _emitted(plain[0], metrics) == e2e, workload
        assert all(v > 0 for v, _ in metrics.values()), workload

        tracer = tracing.Tracer()
        plain, traced = run.measure_traced([job], 1, 0.0, tracer)
        assert len(traced) == 1 and len(tracer) > 0
        metrics = tracing.layer_metrics(tracer, 1, 0.1)
        assert _emitted(traced[0], metrics) == layers, workload


def test_wrong_reference_counts_as_failed():
    good = _one_job("sweep")
    wrong = jobs.Job(good.kind, good.run,
                     jobs.radius_check("Converged", 0, z_ref=2.0))
    results = [run.run_job(good, 0), run.run_job(wrong, 1)]
    for r in results:
        r.scaled = r.seconds
    assert [r.ok for r in results] == [True, False]
    assert "|z - 2" in results[1].reason
    assert run.fail_frac(results) == 0.5
    metrics = run.end_to_end_metrics([results], 0.5, 40.0)
    assert metrics["ok_frac"][0] == 0.5
    assert not json.loads(run.result_line(results, metrics))["correct"]


def test_raising_job_counts_as_failed():
    def boom():
        raise ValueError("planted failure")
    result = run.run_job(jobs.Job("broken", boom, None))
    assert not result.ok and "planted failure" in result.reason


def test_refuses_to_run_without_source():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            BENCHMARK["command"] + ["--workload", "sweep", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_layer_is_a_named_error():
    saved = tracing.LAYERS
    tracing.LAYERS = saved + (("radar", "no_such_function"),)
    try:
        tracing.Tracer()
    except tracing.LayerMissing as exc:
        assert "no_such_function" in str(exc)
    else:
        raise AssertionError("a missing layer function went unnoticed")
    finally:
        tracing.LAYERS = saved


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
