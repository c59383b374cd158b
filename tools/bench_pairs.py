"""Summarise paired perfbench runs of a parent and a change into one JSON file.

    python3 tools/bench_pairs.py --parent P/perfbench/out --change C/perfbench/out \
        --seeds 1 2 3 --trace-seed 901 --out BENCH_<n>.json

P and C are two checkouts whose benchmark ran with the same settings; each
untraced record <workload>-seed<s>-trace0.json on one side is paired with
the record of the same workload and seed on the other. For every workload
and end-to-end metric of BENCHMARK.json the file gives each side's values in
seed order, median and [q1, q3], the change/parent ratio of the medians, and
how many pairs the change won (ties count for neither side), and a verdict:
"gain" when the change won at least 9 in 10 pairs and its median is better
than the parent's by more than the parent's q3 - q1, "worse" when its
median is past the metric's bound, relative to the parent's median, in the
bad direction, "unresolved" when the parent's q3 - q1 alone is wider than
that bound (the pairs cannot rule a regression out) unless every change run
beats every parent run, and "within" otherwise. Per job kind
it gives each side's median job time and the kind's share of a pass. The
traced records of --trace-seed contribute their per-layer counts, and
count_changes lists [parent, change] for every work counter (calls,
iterations, failures, samples, points, checkpoints, retries, ext_ops) that
differs, so a speed-up can show whether it did the same work. Each side's
provenance (commit, source digest, python, numpy, nproc) is kept, and
src_lines gives [parent, change] line counts of src/singradar/*.py in the
checkouts that hold the two perfbench/out directories (None for a side
without them).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-pass counters of work done, as opposed to time spent
_WORK_SUFFIXES = (".calls", ".iterations", ".failed", ".samples", ".points",
                  ".checkpoints", ".retries")


def _record(out: Path, workload: str, seed: int, trace: int) -> dict:
    path = out / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values),
            "q1_q3": [q1, q3]}


def _verdict(row: dict, higher: bool) -> str:
    """gain, worse, unresolved or within for one metric's row (module
    docstring)."""
    sign = 1.0 if higher else -1.0
    parent = row["parent"]["median"]
    gap = (row["change"]["median"] - parent) * sign
    q1, q3 = row["parent"]["q1_q3"]
    if row["change_wins"] >= 0.9 * row["pairs"] and gap > q3 - q1:
        return "gain"
    if gap < -row["bound"] * abs(parent):
        return "worse"
    clear = (min(sign * v for v in row["change"]["values"])
             > max(sign * v for v in row["parent"]["values"]))
    if q3 - q1 > row["bound"] * abs(parent) and not clear:
        return "unresolved"
    return "within"


def _provenance(records: list) -> dict:
    """The provenance the records of one side share, seed aside."""
    shared = [{k: v for k, v in r["provenance"].items() if k != "seed"}
              for r in records]
    if any(p != shared[0] for p in shared):
        raise ValueError("records of one side differ in provenance")
    return shared[0]


def _job_kinds(recs: dict) -> dict:
    """Per job kind: each side's median over seeds of the record's median
    job time (at reference speed when the jobs were scaled), the kind's
    share of the summed kind times on that side, and the change/parent
    ratio; empty for records without job kinds."""
    sides = {}
    for side, rs in recs.items():
        times = {}
        for r in rs:
            for kind, k in r.get("job_kinds", {}).items():
                times.setdefault(kind, []).append(
                    k.get("median_ref_s", k["median_s"]))
        sides[side] = {kind: statistics.median(v) for kind, v in times.items()}
    out = {}
    for kind in sorted(sides["parent"]):
        row = {}
        for side, times in sides.items():
            row[side] = {"median_s": times[kind],
                         "share": times[kind] / sum(times.values())}
        row["ratio"] = row["change"]["median_s"] / row["parent"]["median_s"]
        out[kind] = row
    return out


def _src_lines(out: Path) -> int | None:
    """Lines of src/singradar/*.py in the checkout whose perfbench/out is
    out, or None when it has none."""
    files = (out.resolve().parent.parent / "src" / "singradar").glob("*.py")
    counts = [f.read_bytes().count(b"\n") for f in files]
    return sum(counts) if counts else None


def _count_changes(parent: dict, change: dict) -> dict:
    """[parent, change] per-pass value of every work counter that differs
    between the sides; None stands for a counter one side lacks."""
    names = sorted(name for name in set(parent) | set(change)
                   if name.endswith(_WORK_SUFFIXES)
                   or name == "scalars.ext_ops")
    return {name: [parent.get(name), change.get(name)] for name in names
            if parent.get(name) != change.get(name)}


def summarise(parent: Path, change: Path, seeds: list,
              trace_seed: int | None) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    workloads = [w["name"] for w in bench["workloads"]]
    out = {"seeds": seeds, "trace_seed": trace_seed,
           "src_lines": [_src_lines(parent), _src_lines(change)],
           "workloads": {}}
    for wl in workloads:
        recs = {side: [_record(d, wl, s, 0) for s in seeds]
                for side, d in (("parent", parent), ("change", change))}
        metrics = {}
        for m in bench["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            sides = {side: [r["metrics"][name]["value"] for r in rs]
                     for side, rs in recs.items()}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(sides["parent"], sides["change"]))
            row = {side: _summary(v) for side, v in sides.items()}
            base = row["parent"]["median"]
            row.update(unit=m["unit"], better=m["better"], bound=m["bound"],
                       change_wins=wins, pairs=len(seeds),
                       ratio=row["change"]["median"] / base if base else None)
            row["verdict"] = _verdict(row, higher)
            metrics[name] = row
        entry = {"metrics": metrics, "job_kinds": _job_kinds(recs),
                 "failed": {side: sum(r["failed"] for r in rs)
                            for side, rs in recs.items()},
                 "provenance": {side: _provenance(rs)
                                for side, rs in recs.items()}}
        if trace_seed is not None:
            trace = {
                side: {"provenance": rec["provenance"],
                       "per_pass": {k: v["value"]
                                    for k, v in rec["metrics"].items()}}
                for side, rec in (("parent", _record(parent, wl, trace_seed, 1)),
                                  ("change", _record(change, wl, trace_seed, 1)))}
            trace["count_changes"] = _count_changes(
                trace["parent"]["per_pass"], trace["change"]["per_pass"])
            entry["trace"] = trace
        out["workloads"][wl] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds for quartiles")
    summary = summarise(args.parent, args.change, args.seeds, args.trace_seed)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(summary, fp, indent=1)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
