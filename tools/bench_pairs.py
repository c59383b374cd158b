"""Summarise paired perfbench runs of a parent and a change into one JSON file.

    python3 tools/bench_pairs.py --parent P/perfbench/out --change C/perfbench/out \
        --seeds 1 2 3 --trace-seed 901 --out BENCH_<n>.json

P and C are two checkouts whose benchmark ran with the same settings; each
untraced record <workload>-seed<s>-trace0.json on one side is paired with
the record of the same workload and seed on the other. For every workload
and end-to-end metric of BENCHMARK.json the file gives each side's values in
seed order, median and [q1, q3], the change/parent ratio of the medians, and
how many pairs the change won (ties count for neither side). The traced
records of --trace-seed contribute their per-layer counts, and each side's
provenance (commit, source digest, python, numpy, nproc) is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _record(out: Path, workload: str, seed: int, trace: int) -> dict:
    path = out / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values),
            "q1_q3": [q1, q3]}


def _provenance(records: list) -> dict:
    """The provenance the records of one side share, seed aside."""
    shared = [{k: v for k, v in r["provenance"].items() if k != "seed"}
              for r in records]
    if any(p != shared[0] for p in shared):
        raise ValueError("records of one side differ in provenance")
    return shared[0]


def summarise(parent: Path, change: Path, seeds: list,
              trace_seed: int | None) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    workloads = [w["name"] for w in bench["workloads"]]
    out = {"seeds": seeds, "trace_seed": trace_seed, "workloads": {}}
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
            metrics[name] = row
        entry = {"metrics": metrics,
                 "failed": {side: sum(r["failed"] for r in rs)
                            for side, rs in recs.items()},
                 "provenance": {side: _provenance(rs)
                                for side, rs in recs.items()}}
        if trace_seed is not None:
            entry["trace"] = {
                side: {"provenance": rec["provenance"],
                       "per_pass": {k: v["value"]
                                    for k, v in rec["metrics"].items()}}
                for side, rec in (("parent", _record(parent, wl, trace_seed, 1)),
                                  ("change", _record(change, wl, trace_seed, 1)))}
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
