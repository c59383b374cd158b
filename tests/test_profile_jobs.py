"""tools/profile_jobs.py on one pass of the pinned_ext and coefficients
workloads and on one CLI command, with rows for singradar's functions and
generated programs."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "profile_jobs", ROOT / "tools" / "profile_jobs.py")
profile_jobs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_jobs)


def test_shares_name_every_hot_spot_with_its_calls():
    rows = profile_jobs.shares("pinned_ext", 1)
    assert [name for name, _, _ in rows] == [
        "%s.%s" % spot for spot in profile_jobs.HOT_SPOTS]
    by_name = {name: (calls, share) for name, calls, share in rows}
    # three pinned radius jobs: one circle each, one transform per circle,
    # and no pole sweep
    assert by_name["fourier.sample_circle"][0] == 3
    assert by_name["fourier.inverse_dft"][0] == 3
    assert by_name["radar.detect_last_pole"] == (0, 0.0)
    assert all(0.0 <= share <= 1.0 for _, _, share in rows)
    # cumulative shares nest: each _corrected runs its homotopy's corrector
    # program once, and _solve_linear runs only in the lift
    correct = by_name["<homotopy programs>.correct"]
    assert correct[0] == by_name["tracker._corrected"][0] > 0
    assert 0.0 < correct[1] < by_name["tracker._corrected"][1]
    assert 0.0 < by_name["tracker._solve_linear"][1] < by_name[
        "tracker._refine"][1]
    # the elimination's rows sum over n and count the corrector's solves
    assert by_name["<solve n>.solve"][0] > by_name["tracker._solve_linear"][0]


def test_coefficients_round_counts_one_rescale_per_planted_series():
    rows = profile_jobs.shares("coefficients", 1)
    by_name = {name: (calls, share) for name, calls, share in rows}
    # four planted series (n = 128 and 1024, both lanes): one transform and
    # one rescale each; table4 walks one 17-sample circle, transformed
    # directly, and nothing sweeps or tracks to a pole
    assert by_name["radar.scale_to_unit"][0] == 4
    assert by_name["fourier.inverse_dft"][0] == 4
    assert by_name["fourier.sample_circle"][0] == 1
    assert by_name["radar.detect_last_pole"] == (0, 0.0)
    assert 0.0 < by_name["radar.scale_to_unit"][1] < 1.0


SQRT_EXTENDED = ["track", "--fixture", "sqrt", "--precision", "extended"]


def test_command_shares_count_one_lift_for_the_start_and_one_for_the_rows():
    rows, best = profile_jobs.command_shares(SQRT_EXTENDED, 2)
    by_name = {name: (calls, share) for name, calls, share in rows}
    # per round: the start point's lift and one lift of all the rows
    assert by_name["tracker._refine"][0] == 4
    assert by_name["tracker.track_to"][0] == 2
    assert by_name["fourier.sample_circle"] == (0, 0.0)
    assert 0.0 < by_name["tracker._refine"][1] < by_name[
        "tracker.track_to"][1] <= 1.0
    assert 0.0 < best < 60.0


def test_command_that_exits_two_stops_the_tool():
    with pytest.raises(RuntimeError, match="exits 2"):
        profile_jobs.command_shares(["track", "--fixture", "sqrt",
                                     "--target", "nan"], 1)


def test_main_prints_the_table_and_the_minimum_wall_time(capsys):
    assert profile_jobs.main(["--command", " ".join(SQRT_EXTENDED),
                              "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # a row is the name (generated code's has a space), calls and share
    assert [line.rsplit(None, 3)[0] for line in lines[:-1]] == [
        "%s.%s" % spot for spot in profile_jobs.HOT_SPOTS]
    assert lines[-1].startswith("minimum wall time over 1 rounds: ")
    with pytest.raises(SystemExit):
        profile_jobs.main(["--workload", "sweep", "--command", "track"])


def test_main_prints_the_first_run_time(capsys):
    # the command's first run, timed before the profiled rounds, closes the
    # last line after the minimum
    assert profile_jobs.main(["--command", "radius --fixture sqrt --n 8",
                              "--rounds", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    first = re.fullmatch(r"minimum wall time over 1 rounds: [0-9.]+ ms; "
                         r"first run: ([0-9.]+) ms", last)
    assert first and float(first[1]) > 0.0


def test_generated_rows_sum_over_shapes_and_sizes():
    # two homotopy shapes, with one and two unknowns: one row each for
    # their corrector programs and for their eliminations
    from singradar.polysys import fixture
    from singradar.tracker import default_config, newton_correct

    def run():
        for name in ("sqrt", "ojika1"):
            h = fixture(name)
            newton_correct(h, 0.1, [1.1] * h.dim, default_config())

    by_name = {name: calls for name, calls, _ in profile_jobs._shares(run)}
    assert by_name["<homotopy programs>.correct"] == 2
    assert by_name["tracker.newton_correct"] == 2
    assert by_name["<solve n>.solve"] >= 2
