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


def write_side(out: Path, values: list, commit: str):
    out.mkdir()
    for wl in BENCH["workloads"]:
        for seed, value, trace in ([(s, v, 0) for s, v in zip(SEEDS, values)]
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
