"""tools/profile_jobs.py on one pass of the pinned_ext workload."""

import importlib.util
from pathlib import Path

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
    # cumulative shares nest: the solve runs inside the corrector and the
    # lift, and all its calls take less than the corrector
    assert 0.0 < by_name["tracker._solve_linear"][1] < by_name[
        "tracker.newton_correct"][1]
