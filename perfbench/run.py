"""Radar benchmark: run one workload in a closed loop and report metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

One client, one process, one thread: each job starts only when the previous
one has finished. The workload's fixed job list (perfbench/jobs.py) is run
in passes ("cycles"), each in an order drawn from --seed, until --seconds
have elapsed. Every job's output is checked. Set-up (import, fixtures,
start points, seeded inputs) is timed SETUP_RUNS times, each but the last
in a fresh interpreter, and setup_s is the median.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
nothing wrapped. Each time is scaled to a reference host speed, measured
by a probe loop right before and after it (perfbench/speed.py); the report
also gives the unscaled times.

--trace 1 alternates an untraced and a traced pass over the same order and
reports the per-layer metrics of the traced passes (perfbench/tracer.py)
plus the tracing overhead; no traced number feeds an end-to-end metric.

The report goes to standard output, ending in one JSON line; the full record
with provenance, and in trace mode the spans, go to perfbench/out/. The
singradar source is the checkout's src/ directory; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import jobs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is repeated in this many fresh interpreters (this one included)
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                      "NUMEXPR_NUM_THREADS")


def pin_threads():
    """One BLAS/OpenMP thread, for this process and every child."""
    for var in PINNED_THREAD_VARS:
        os.environ[var] = "1"


def _timed_setup(workload: str, seed: int):
    """(seconds, seconds at reference speed, workload) of one set-up."""
    before = speed.sample()
    begin = time.perf_counter()
    wl = jobs.build(workload, seed, SRC)
    seconds = time.perf_counter() - begin
    return seconds, speed.scale(seconds, before, speed.sample()), wl


def _setup_in_child(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up failed in a fresh process:\n"
                           + proc.stderr.strip())
    seconds, scaled = proc.stdout.split()[-2:]
    return float(seconds), float(scaled)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

@dataclass
class Result:
    job: int  # index in the workload's job list
    kind: str
    seconds: float
    ok: bool
    digits: float | None
    reason: str
    scaled: float | None = None  # seconds at reference host speed


def run_job(job, index=0, tracer=None, job_id=0) -> Result:
    """Run and check job number `index` of the list; a raise in either is a
    failed job. Only the run is timed."""
    begin = time.perf_counter()
    try:
        if tracer is None:
            outcome = job.run()
        else:
            with tracer.job(job_id, job.kind):
                outcome = job.run()
    except Exception:
        return Result(index, job.kind, time.perf_counter() - begin, False,
                      None, traceback.format_exc(limit=3).strip())
    seconds = time.perf_counter() - begin
    try:
        verdict = job.check(outcome)
    except Exception:
        return Result(index, job.kind, seconds, False, None, "check raised: "
                      + traceback.format_exc(limit=3).strip())
    return Result(index, job.kind, seconds, verdict.ok, verdict.digits,
                  verdict.reason)


def measure(jobs, seed: int, seconds: float):
    """Untraced passes until `seconds` have elapsed, stopping between jobs
    once the first pass is whole, so the last pass may be partial.

    A host speed sample sits between consecutive jobs and scales both.
    Returns (passes, speed samples)."""
    rng = random.Random(seed)
    passes, samples = [], [speed.sample()]
    begin = time.perf_counter()
    while True:
        done = []
        for i in rng.sample(range(len(jobs)), len(jobs)):
            if passes and time.perf_counter() - begin >= seconds:
                return (passes + [done] if done else passes), samples
            result = run_job(jobs[i], i)
            samples.append(speed.sample())
            result.scaled = speed.scale(result.seconds, samples[-2],
                                        samples[-1])
            done.append(result)
        passes.append(done)


def measure_traced(jobs, seed: int, seconds: float, tracer):
    """Pairs of an untraced and a traced pass over the same order, until
    `seconds` have elapsed. Passes stay whole so that per-pass counts are
    exact. Returns (untraced passes, traced passes)."""
    rng = random.Random(seed)
    plain, traced = [], []
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < seconds:
        order = rng.sample(range(len(jobs)), len(jobs))
        plain.append([run_job(jobs[i], i) for i in order])
        first_id = len(order) * len(traced)
        with tracer.active():
            traced.append([run_job(jobs[i], i, tracer, first_id + n)
                           for n, i in enumerate(order)])
    return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def kind_medians(results) -> dict:
    """Per job kind: sample count, median wall time and, when the jobs were
    scaled, median time at reference speed."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r)
    out = {}
    for kind, rs in sorted(by_kind.items()):
        out[kind] = {"samples": len(rs),
                     "median_s": statistics.median(r.seconds for r in rs)}
        if rs[0].scaled is not None:
            out[kind]["median_ref_s"] = statistics.median(r.scaled
                                                          for r in rs)
    return out


def fail_frac(results) -> float:
    """Failed jobs over jobs attempted."""
    return sum(not r.ok for r in results) / len(results)


def jobs_per_s(passes, scaled: bool = True) -> float:
    """Correct jobs per second of job time at reference speed, or of the
    unscaled wall time, over whole passes only, so that the mix of a
    partial last pass cannot bias it."""
    whole = [r for p in passes if len(p) == len(passes[0]) for r in p]
    return (sum(r.ok for r in whole)
            / sum(r.scaled if scaled else r.seconds for r in whole))


def end_to_end_metrics(passes, setup_s: float, peak_rss_mb: float) -> dict:
    """The BENCHMARK.json end-to-end metrics from untraced passes.

    Times are at reference host speed (see speed.py). ok_frac stands in for
    fail_frac (= 1 - ok_frac), which is 0 on a healthy run and so cannot
    carry a relative bound."""
    results = [r for p in passes for r in p]
    digits = [r.digits for r in results if r.ok and r.digits is not None]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s(passes), "1/s"),
        "ok_frac": (1.0 - fail_frac(results), "fraction"),
        "digits_min": (min(digits) if digits else 0.0, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "singradar").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in PINNED_THREAD_VARS},
    }


def result_line(results, metrics: dict) -> str:
    """The JSON object that ends the report."""
    failed = sum(not r.ok for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def _load_predictions() -> dict:
    with open(HERE / "predictions.json", encoding="utf-8") as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    pin_threads()
    if args.workload not in jobs.WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(jobs.WORKLOADS)))
        return 2
    if args.setup_only:
        try:
            seconds, scaled, _ = _timed_setup(args.workload, args.seed)
        except jobs.SetupError as exc:
            sys.stderr.write("set-up failed: %s\n" % exc)
            return 2
        print(repr(seconds), repr(scaled))
        return 0

    try:
        # set-up time is an end-to-end metric, so traced runs skip the repeats
        setups = [_setup_in_child(args.workload, args.seed)
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        seconds, scaled, wl = _timed_setup(args.workload, args.seed)
    except (RuntimeError, jobs.SetupError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("set-up failed: %s\n" % exc)
        return 2
    setups.append((seconds, scaled))

    tracer, samples = None, []
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        plain, traced = measure_traced(wl.jobs, args.seed, args.seconds,
                                       tracer)
        traced_s = sum(r.seconds for p in traced for r in p)
        plain_s = sum(r.seconds for p in plain for r in p)
        metrics = tracing.layer_metrics(tracer, len(traced),
                                        traced_s / plain_s - 1.0)
    else:
        (plain, samples), traced = measure(wl.jobs, args.seed,
                                           args.seconds), []
        metrics = end_to_end_metrics(
            plain, statistics.median(s for _, s in setups), _peak_rss_mb())
    results = [r for p in plain + traced for r in p]
    failures = [r for r in results if not r.ok]

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "inputs": {k: [v.real, v.imag] for k, v in wl.inputs.items()},
        "setup_runs_s": [s for s, _ in setups],
        "setup_runs_ref_s": [s for _, s in setups],
        "speed_samples_s": samples,
        "unscaled": {"setup_s": statistics.median(s for s, _ in setups),
                     "jobs_per_s": jobs_per_s(plain, scaled=False)},
        "passes": len(plain),
        "traced_passes": len(traced),
        "job_kinds": kind_medians(r for p in plain for r in p),
        "job_seconds": [[[r.kind, r.seconds, r.scaled] for r in p]
                        for p in plain],
        "attempted": len(results),
        "failed": len(failures),
        "fail_frac": fail_frac(results),
        "failures": [{"kind": r.kind, "reason": r.reason} for r in failures],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)
    if tracer is not None:
        tracer.write(OUT / (stem + "-spans.csv.gz"))

    prov = record["provenance"]
    print("workload %s  seed %d  trace %d  python %s  numpy %s  nproc %d"
          % (args.workload, args.seed, args.trace, prov["python"],
             prov["numpy"], prov["nproc"]))
    print("commit %s  src sha256 %s" % (prov["commit"],
                                        prov["src_sha256"][:16]))
    print("passes %d (traced %d), jobs attempted %d, failed %d, "
          "fail_frac %.4g" % (len(plain), len(traced), len(results),
                              len(failures), record["fail_frac"]))
    if samples:
        print("host speed sample median %.6g s (reference %g s); unscaled: "
              "setup_s %.6g s, jobs_per_s %.6g 1/s"
              % ((statistics.median(samples), speed.REFERENCE_S)
                 + tuple(record["unscaled"].values())))
    for r in failures:
        print("FAILED %s: %s" % (r.kind, r.reason.replace("\n", " | ")))
    for kind in jobs.KINDS:
        info = record["job_kinds"].get(kind)
        if info is None:
            print("%-40s not run on this workload" % kind)
            continue
        ref = info.get("median_ref_s")
        print("%-40s %.6g s%s  median of %d" % (
            kind, info["median_s"] if ref is None else ref,
            "" if ref is None else " (unscaled %.6g s)" % info["median_s"],
            info["samples"]))
    predictions = _load_predictions() if args.trace else {}
    for name, (value, unit) in metrics.items():
        note = predictions.get(name, "")
        print("%-40s %.6g %s%s" % (name, value, unit,
                                 "  -- " + note if note else ""))
    if tracer is not None:
        print("self-time share of job time:")
        for name, share in tracing.self_time_shares(tracer)[:12]:
            print("  %-36s %5.1f%%" % (name, 100.0 * share))
    print(result_line(results, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
