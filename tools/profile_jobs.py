"""Profile a perfbench workload or a CLI command; print hot-spot shares.

    python3 tools/profile_jobs.py --workload sweep --rounds 5
    python3 tools/profile_jobs.py --command "track --fixture ojika1 \
        --precision extended" --rounds 3

--workload builds the workload's job list from perfbench/jobs.py against
this checkout's src/, runs it --rounds times in job-list order under
cProfile and checks every outcome. --command first times one run of the
singradar arguments in process (output discarded) without the profiler:
the first run in the tool's fresh interpreter, which pays for what a CLI
process builds on first use (twiddle tables, generated programs). It then
runs them --rounds times under cProfile; a command that exits 2, an
argument error, stops the tool. It then runs them --rounds times more
without the profiler and prints the minimum wall time and the first run's.

Either way the tool prints for each function below its call count and its
cumulative time as a share of all run time (a function that calls another
includes it, so the shares do not add up to 100%). The programs that
singradar generates are named by their code's file name: each homotopy's
double corrector `<homotopy programs>.correct`, summed over homotopy shapes,
and the elimination `<solve n>.solve`, summed over n. These are the shares
the ROADMAP Baseline quotes; to compare two trees, run the tool on both
back to back on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import re
import shlex
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import jobs  # noqa: E402  (perfbench/jobs.py, found through the path above)

# (module or generated file name, function) of every reported hot spot,
# outermost first; newton_correct counts only public calls, _corrected every
# double correction, the walk's and the track's hops included
HOT_SPOTS = (
    ("radar", "detect_last_pole"),
    ("fourier", "sample_circle"),
    ("fourier", "_advance_arc"),
    ("tracker", "_refine"),
    ("tracker", "newton_correct"),
    ("tracker", "_corrected"),
    ("<homotopy programs>", "correct"),
    ("polysys", "evaluate"),
    ("polysys", "jacobian"),
    ("tracker", "_solve_linear"),
    ("<solve n>", "solve"),
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


def _run_command(main, argv, rounds: int):
    for _ in range(rounds):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            if main(list(argv)) == 2:
                raise RuntimeError("%s exits 2: %s"
                                   % (shlex.join(argv), err.getvalue()))


def _shares(run, *args) -> list:
    """[(module.function, calls, share of run's time)] for HOT_SPOTS, with
    run(*args) under cProfile. Entries are read per code object, and those
    of one name summed: generated code of one file name, "<solve 2>" read
    as "<solve n>", is one row."""
    profile = cProfile.Profile()
    profile.runcall(run, *args)
    by_name = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in
            continue
        if code is run.__code__:
            total = entry.totaltime
        path = Path(code.co_filename)
        if path.parent.name == "singradar" or path.name.startswith("<"):
            name = "%s.%s" % (re.sub(r"\d+", "n", path.stem), code.co_name)
            calls, cumulative = by_name.get(name, (0, 0.0))
            by_name[name] = (calls + entry.callcount,
                             cumulative + entry.totaltime)
    out = []
    for spot in HOT_SPOTS:
        calls, cumulative = by_name.get("%s.%s" % spot, (0, 0.0))
        out.append(("%s.%s" % spot, calls, cumulative / total))
    return out


def shares(name: str, rounds: int) -> list:
    """_shares of a workload's job list, run rounds times."""
    # these two workloads draw no seeded inputs, so any seed builds them
    return _shares(_run, jobs.build(name, 1, ROOT / "src"), rounds)


def _wall_time(main, argv) -> float:
    """Seconds one run of the CLI arguments argv takes, unprofiled."""
    begin = time.perf_counter()
    _run_command(main, argv, 1)
    return time.perf_counter() - begin


def command_shares(argv, rounds: int) -> tuple:
    """_shares of the CLI arguments argv, run rounds times, and the
    minimum wall time in seconds of rounds more runs without the
    profiler."""
    main = jobs.import_singradar(ROOT / "src").cli.main
    rows = _shares(_run_command, main, argv, rounds)
    return rows, min(_wall_time(main, argv) for _ in range(rounds))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=("sweep", "pinned_ext"))
    source.add_argument("--command", help="singradar arguments, quoted: "
                        '"track --fixture sqrt --precision extended"')
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    if args.command is None:
        rows = shares(args.workload, args.rounds)
    else:
        command = shlex.split(args.command)
        # cold: nothing in this fresh interpreter has run singradar yet
        cli = jobs.import_singradar(ROOT / "src").cli
        first = _wall_time(cli.main, command)
        rows, best = command_shares(command, args.rounds)
    for name, calls, share in rows:
        print("%-28s %8d calls %6.1f%%" % (name, calls, 100.0 * share))
    if args.command is not None:
        print("minimum wall time over %d rounds: %.2f ms; first run: %.2f ms"
              % (args.rounds, 1e3 * best, 1e3 * first))
    return 0


if __name__ == "__main__":
    sys.exit(main())
