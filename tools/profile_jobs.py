"""Profile a perfbench workload; print the cumulative shares of its hot spots.

    python3 tools/profile_jobs.py --workload sweep --rounds 5

Builds the workload's job list from perfbench/jobs.py against this
checkout's src/, runs it --rounds times in job-list order under cProfile,
checks every outcome, and prints for each function below its call count and
its cumulative time as a share of all job time (a function that calls
another includes it, so the shares do not add up to 100%). These are the
shares the ROADMAP Baseline quotes; rerun the tool on the parent and the
change in one session to compare them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import jobs  # noqa: E402  (perfbench/jobs.py, found through the path above)

# (module, function) of every reported hot spot, outermost first
HOT_SPOTS = (
    ("radar", "detect_last_pole"),
    ("fourier", "sample_circle"),
    ("fourier", "_advance_arc"),
    ("tracker", "_refine"),
    ("tracker", "newton_correct"),
    ("polysys", "evaluate"),
    ("polysys", "jacobian"),
    ("tracker", "_solve_linear"),
    ("tracker", "track_to"),
    ("fourier", "inverse_dft"),
)


def _run(workload, rounds: int):
    for _ in range(rounds):
        for job in workload.jobs:
            verdict = job.check(job.run())
            if not verdict.ok:
                raise RuntimeError("%s failed its check: %s"
                                   % (job.kind, verdict.reason))


def shares(name: str, rounds: int) -> list:
    """[(module.function, calls, share of job time)] for HOT_SPOTS."""
    # these two workloads draw no seeded inputs, so any seed builds them
    workload = jobs.build(name, 1, ROOT / "src")
    profile = cProfile.Profile()
    profile.runcall(_run, workload, rounds)
    stats = pstats.Stats(profile).stats
    by_name = {}
    for (path, _, func), (_, calls, _, cumulative, _) in stats.items():
        by_name[Path(path).parent.name, Path(path).stem, func] = (
            calls, cumulative)
    total = by_name[Path(__file__).parent.name, Path(__file__).stem,
                    "_run"][1]
    out = []
    for module, func in HOT_SPOTS:
        calls, cumulative = by_name.get(("singradar", module, func), (0, 0.0))
        out.append(("%s.%s" % (module, func), calls, cumulative / total))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("sweep", "pinned_ext"),
                   required=True)
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    for name, calls, share in shares(args.workload, args.rounds):
        print("%-26s %8d calls %6.1f%%" % (name, calls, 100.0 * share))
    return 0


if __name__ == "__main__":
    sys.exit(main())
