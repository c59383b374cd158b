"""tools/bench_pairs.py on synthetic perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = [11, 12, 13, 14, 15]
PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
# against PARENT pair by pair: higher, tie, lower, higher, tie
CHANGE = [2.0, 2.0, 1.0, 5.0, 5.0]


def write_side(out: Path, values: list, commit: str, seeds=SEEDS):
    out.mkdir()
    for wl in BENCH["workloads"]:
        for seed, value, trace in ([(s, v, 0) for s, v in zip(seeds, values)]
                                   + [(901, 7.0, 1)]):
            record = {
                "provenance": {"commit": commit, "python": "3.11",
                               "seed": seed},
                "failed": 0,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                            for m in BENCH["end_to_end"]},
            }
            name = "%s-seed%d-trace%d.json" % (wl["name"], seed, trace)
            (out / name).write_text(json.dumps(record), encoding="utf-8")


def test_summarise_medians_quartiles_wins_and_ratio(tmp_path):
    write_side(tmp_path / "p", PARENT, "aaa")
    write_side(tmp_path / "c", CHANGE, "bbb")
    out = bench_pairs.summarise(tmp_path / "p", tmp_path / "c", SEEDS, 901)
    assert out["seeds"] == SEEDS and out["trace_seed"] == 901
    for wl in BENCH["workloads"]:
        entry = out["workloads"][wl["name"]]
        assert entry["provenance"] == {"parent": {"commit": "aaa",
                                                  "python": "3.11"},
                                       "change": {"commit": "bbb",
                                                  "python": "3.11"}}
        assert entry["failed"] == {"parent": 0, "change": 0}
        assert entry["trace"]["change"]["per_pass"] == {
            m["name"]: 7.0 for m in BENCH["end_to_end"]}
        for m in BENCH["end_to_end"]:
            row = entry["metrics"][m["name"]]
            assert row["parent"] == {"values": PARENT, "median": 3.0,
                                     "q1_q3": [2.0, 4.0]}
            assert row["change"] == {"values": CHANGE, "median": 2.0,
                                     "q1_q3": [2.0, 5.0]}
            # ties count for neither side
            assert row["change_wins"] == (2 if m["better"] == "higher"
                                          else 1)
            assert row["pairs"] == 5
            assert row["ratio"] == pytest.approx(2.0 / 3.0)
            assert row["bound"] == m["bound"]


TEN = list(range(21, 31))
PARENT_TEN = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, q3-q1 0.45


@pytest.mark.parametrize("parent,change,verdicts", [
    # ahead by 1.0 in 9 of 10 pairs: the median gap 0.9 beats the spread;
    # +8.6% is within setup_s's 25% bound and past peak_rss_mb's 2%
    (PARENT_TEN, [p + 1.0 for p in PARENT_TEN[:9]] + [PARENT_TEN[9] - 0.1],
     {"jobs_per_s": "gain", "setup_s": "within", "peak_rss_mb": "worse"}),
    # the same gap, but ahead in only 8 of 10 pairs
    (PARENT_TEN,
     [p + 1.0 for p in PARENT_TEN[:8]] + [p - 0.1 for p in PARENT_TEN[8:]],
     {"jobs_per_s": "within", "setup_s": "within", "peak_rss_mb": "worse"}),
    # ahead in every pair by 0.3, less than the parent's spread
    (PARENT_TEN, [p + 0.3 for p in PARENT_TEN],
     {"jobs_per_s": "within", "setup_s": "within", "peak_rss_mb": "worse"}),
    # 30% lower: past jobs_per_s's 20% bound, a gain where lower is better
    (PARENT_TEN, [0.7 * p for p in PARENT_TEN],
     {"jobs_per_s": "worse", "setup_s": "gain", "peak_rss_mb": "gain"}),
    # no move at all: the parent's spread 0.45 is inside jobs_per_s's and
    # setup_s's bounds but wider than peak_rss_mb's 2% (0.209)
    (PARENT_TEN, list(PARENT_TEN),
     {"jobs_per_s": "within", "setup_s": "within",
      "peak_rss_mb": "unresolved"}),
    # a spread of 1.0, still past peak_rss_mb's bound, but every change run
    # is below every parent run: not a gain (0.6 < 1.0), yet resolved
    ([10.0] * 5 + [11.0] * 5, [9.9] * 10,
     {"jobs_per_s": "within", "setup_s": "within", "peak_rss_mb": "within"}),
], ids=["gain", "eight-wins", "small-gap", "worse", "noisy-parent",
        "clear-of-noise"])
def test_summarise_verdict_per_metric(tmp_path, parent, change, verdicts):
    write_side(tmp_path / "p", parent, "aaa", TEN)
    write_side(tmp_path / "c", change, "bbb", TEN)
    out = bench_pairs.summarise(tmp_path / "p", tmp_path / "c", TEN, None)
    for wl in BENCH["workloads"]:
        metrics = out["workloads"][wl["name"]]["metrics"]
        assert {m: metrics[m]["verdict"] for m in verdicts} == verdicts


def test_summarise_rejects_mixed_provenance(tmp_path):
    write_side(tmp_path / "p", PARENT, "aaa")
    write_side(tmp_path / "c", CHANGE, "bbb")
    path = tmp_path / "c" / ("%s-seed13-trace0.json"
                             % BENCH["workloads"][0]["name"])
    record = json.loads(path.read_text(encoding="utf-8"))
    record["provenance"]["commit"] = "ccc"
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError):
        bench_pairs.summarise(tmp_path / "p", tmp_path / "c", SEEDS, None)


def test_one_seed_is_an_argument_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change",
                          str(tmp_path), "--seeds", "1",
                          "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "at least two seeds" in capsys.readouterr().err


def test_summarise_job_kinds_medians_shares_and_ratio(tmp_path):
    write_side(tmp_path / "p", PARENT, "aaa")
    write_side(tmp_path / "c", CHANGE, "bbb")
    wl = BENCH["workloads"][0]["name"]
    for side, scale in (("p", 1.0), ("c", 0.5)):
        for i, seed in enumerate(SEEDS):
            path = tmp_path / side / ("%s-seed%d-trace0.json" % (wl, seed))
            record = json.loads(path.read_text(encoding="utf-8"))
            # kind "a" is timed at reference speed, kind "b" is not scaled
            record["job_kinds"] = {
                "a": {"samples": 3, "median_s": 99.0,
                      "median_ref_s": scale * (1.0 + i)},
                "b": {"samples": 3, "median_s": 3.0}}
            path.write_text(json.dumps(record), encoding="utf-8")
    out = bench_pairs.summarise(tmp_path / "p", tmp_path / "c", SEEDS, None)
    kinds = out["workloads"][wl]["job_kinds"]
    assert kinds["a"] == {"parent": {"median_s": 3.0, "share": 0.5},
                          "change": {"median_s": 1.5, "share": 1.5 / 4.5},
                          "ratio": 0.5}
    assert kinds["b"]["ratio"] == 1.0
    assert kinds["b"]["parent"] == {"median_s": 3.0, "share": 0.5}
    # records without job kinds, as the other workloads here, give none
    assert out["workloads"][BENCH["workloads"][1]["name"]]["job_kinds"] == {}


def test_summarise_lists_the_work_counters_that_changed(tmp_path):
    write_side(tmp_path / "p", PARENT, "aaa")
    write_side(tmp_path / "c", CHANGE, "bbb")
    wl = BENCH["workloads"][0]["name"]
    counters = {
        "p": {"tracker.newton_correct.calls": 10,
              "polysys.evaluate.calls": 100, "scalars.ext_ops": 5,
              "radar.detect_last_pole.checkpoints": 12,
              "fourier.sample_circle.incl_s": 1.0},
        "c": {"tracker.newton_correct.calls": 10,
              "polysys.evaluate.calls": 60, "scalars.ext_ops": 4,
              "fourier.sample_circle.incl_s": 0.5},
    }
    for side, values in counters.items():
        path = tmp_path / side / ("%s-seed901-trace1.json" % wl)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["metrics"].update({k: {"value": v, "unit": "count"}
                                  for k, v in values.items()})
        path.write_text(json.dumps(record), encoding="utf-8")
    out = bench_pairs.summarise(tmp_path / "p", tmp_path / "c", SEEDS, 901)
    # equal counters and timings are left out; a missing counter is None
    assert out["workloads"][wl]["trace"]["count_changes"] == {
        "polysys.evaluate.calls": [100, 60],
        "radar.detect_last_pole.checkpoints": [12, None],
        "scalars.ext_ops": [5, 4]}
    assert out["workloads"][BENCH["workloads"][1]["name"]]["trace"][
        "count_changes"] == {}


def test_summarise_counts_each_checkouts_source_lines(tmp_path):
    # each side's out directory is <checkout>/perfbench/out; the count is
    # of <checkout>/src/singradar/*.py, other files and directories aside
    sources = {"p": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
               "c": {"a.py": "x = 1\n"}}
    outs = {}
    for side, files in sources.items():
        package = tmp_path / side / "src" / "singradar"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text, encoding="utf-8")
        (package / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
        (tmp_path / side / "perfbench").mkdir()
        outs[side] = tmp_path / side / "perfbench" / "out"
    write_side(outs["p"], PARENT, "aaa")
    write_side(outs["c"], CHANGE, "bbb")
    out = bench_pairs.summarise(outs["p"], outs["c"], SEEDS, None)
    assert out["src_lines"] == [3, 1]
    # out directories outside a checkout have no count
    write_side(tmp_path / "bare", PARENT, "aaa")
    out = bench_pairs.summarise(tmp_path / "bare", outs["c"], SEEDS, None)
    assert out["src_lines"] == [None, 1]
