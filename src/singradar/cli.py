"""Command-line driver: reference tables, radius reports, path dumps.

Subcommands: table (regenerate the reference tables as CSV), radius (the
record of one locate_singularity run as JSON), track (CSV dump of one
tracked path), solve-binomial (all solutions of a binomial system).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

from .errors import (
    EvaluationSingular,
    InvalidArgument,
    NoConvergence,
    SingradarError,
    SingularJacobian,
    StepUnderflow,
)
from .fourier import direct_inverse_dft, sample_circle
from .monomial import IntMatrix, _monomial_map, solve_binomial
from .polysys import (_FIXTURES, binomial_parts, evalpoly, evaluate,
                      fixture, homotopy_from_json)
from .radar import CONVERGED, locate_singularity, richardson
from .scalars import DOUBLE, EXTENDED, float_magnitude, promote
from .tracker import (
    PathState,
    default_config,
    inverse_conditions,
    newton_correct,
    track_to,
)

_MASK64 = (1 << 64) - 1


def gamma_from_seed(seed: int) -> complex:
    """Unit-modulus constant from a 64-bit xorshift state."""
    u = (seed & _MASK64) or 0x9E3779B97F4A7C15
    for _ in range(3):
        u = (u ^ (u << 13)) & _MASK64
        u = u ^ (u >> 7)
        u = (u ^ (u << 17)) & _MASK64
    theta = 2.0 * math.pi * (u / float(1 << 64))
    return cmath.exp(1j * theta)


def _exact_series_coeff(k: int) -> Fraction:
    # Taylor coefficient of sqrt(1 - t) about 0
    c = Fraction(1)
    for i in range(k):
        c = c * Fraction(2 * i - 1, 2 * (i + 1))
    return c


def _ratio_value(n: int) -> float:
    return (2.0 * n + 2.0) / (2.0 * n - 1.0)


def _pair(v) -> list:
    z = complex(v)
    return [z.real, z.imag]


def _coordinate_header(dim: int) -> list:
    return ["%s_x%d" % (part, i + 1)
            for i in range(dim) for part in ("re", "im")]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# homotopy loading
# ---------------------------------------------------------------------------

def _load_homotopy(name, file, start, gamma=None):
    """The fixture called name, or the homotopy in file, and its start
    point: start if given, else all ones."""
    if name is not None:
        h = fixture(name, gamma)
    else:
        with open(file, "r", encoding="utf-8") as fp:
            h = homotopy_from_json(json.load(fp), gamma)
    if start is None:
        return h, [1.0] * h.dim
    if len(start) != h.dim:
        raise InvalidArgument("start point has wrong dimension")
    if not all(cmath.isfinite(v) for v in start):
        raise InvalidArgument("start point must be finite")
    return h, list(start)


def _start_state(h, x0, precision: str, tcfg) -> PathState:
    """x0 corrected at t = 0; a start on a pole of the homotopy, or where it
    overflows, is an argument error (double-double powers overflow to inf
    or NaN without raising, so the residual is checked too)."""
    if precision == EXTENDED:
        x0 = [promote(v, EXTENDED) for v in x0]
    try:
        if all(math.isfinite(float_magnitude(v))
               for v in evaluate(h, x0, 0.0)):
            return newton_correct(h, 0.0, x0, tcfg)
    except EvaluationSingular as exc:
        raise InvalidArgument(f"start point at a pole of the homotopy: {exc}")
    except OverflowError:
        pass
    raise InvalidArgument(
        "start point too large: the homotopy overflows there")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _series_table(step: float, count: int, orders, scale) -> str:
    """Taylor coefficients of the sqrt path about t = 0, each times
    scale(k), from count circle samples at radius step, against the exact
    values."""
    h = fixture("sqrt")
    base = PathState.from_point(h, 0.0, [1.0])
    samples = sample_circle(h, base, step, count, default_config())
    coeffs = direct_inverse_dft(samples.values[0])
    rows = []
    for k in orders:
        exact = float(_exact_series_coeff(k) * scale(k))
        value = complex(coeffs[k]) / step ** k * scale(k)
        rows.append((k, exact, value.real, abs(value - exact) / abs(exact)))
    return _csv_text(("n", "exact", "approx", "error"), rows)


def cmd_table(which: str) -> str:
    if which == "table1":
        rows = []
        prev_err = None
        for k in range(1, 10):
            n = 2 ** k
            f = _ratio_value(n)
            err = abs(f - 1.0)
            ratio = None if prev_err is None else prev_err / err
            rows.append((n, f, err, ratio))
            prev_err = err
        return _csv_text(("n", "ratio", "error", "error_ratio"), rows)
    if which == "table2":
        tab = richardson([_ratio_value(2 ** k) for k in range(1, 10)])
        rows = []
        for i in range(1, tab.levels + 1):
            for j in range(1, i + 1):
                v = tab.entry(i, j)
                rows.append((i, j, v, 0.0, abs(v - 1.0)))
        return _csv_text(("i", "j", "re", "im", "error"), rows)
    if which == "table3":
        return _series_table(0.5, 17, range(17), math.factorial)
    if which == "table4":
        return _series_table(0.85, 65, (0, 1, 2, 4, 8, 32, 64), lambda k: 1)
    raise InvalidArgument("unknown table " + which)


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def cmd_radius(args):
    n = args.n
    if not 4 <= n <= 1024 or n & (n - 1):
        raise InvalidArgument("n must be a power of two in [4, 1024]")
    t_begin = time.perf_counter()
    tcfg = default_config(args.precision)
    gamma = args.gamma if args.seed is None else gamma_from_seed(args.seed)
    h, x0 = _load_homotopy(args.fixture, args.file, args.start, gamma)
    # in double, promoted exactly: the run's one lift is the final circle
    start = _start_state(h, x0, DOUBLE, default_config())
    if args.precision == EXTENDED:
        start.x = [promote(v, EXTENDED) for v in start.x]
    run = locate_singularity(h, start, n, tcfg, t0=args.t0, step=args.step)
    report = {
        "command": "radius",
        "fixture": args.fixture,
        "file": args.file,
        "n": n,
        "precision": args.precision,
        "gamma": _pair(h.gamma),
        "seed": args.seed,
        "t0": run.t0,
        "r": 1.0 - run.t0,
        "rho": None if run.rho is None else _pair(run.rho),
        "t_star": run.t_star,
        "coordinate": run.coordinate,
        "raw_ratio": _pair(run.raw_ratio),
        "diagonal": [_pair(v) for v in run.diagonal],
        "z": _pair(run.z),
        "n_used": run.n_used,
        "status": run.status,
        "timings": dict(run.timings, total=time.perf_counter() - t_begin),
    }
    code = 0 if run.status == CONVERGED else 1
    if code != 0:
        sys.stderr.write("radius did not converge: status %s\n" % run.status)
    return json.dumps(report, indent=2) + "\n", code


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def cmd_track(args):
    tcfg = default_config(args.precision)
    h, x0 = _load_homotopy(args.fixture, args.file, args.start)
    start = _start_state(h, x0, args.precision, tcfg)
    trace = [start]
    code = 0
    try:
        track_to(h, start, args.target, tcfg, trace=trace)
    except (StepUnderflow, NoConvergence, SingularJacobian) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        code = 1
    header = ["t", *_coordinate_header(h.dim), "residual", "inv_condition"]
    rows = []
    for state, inv_condition in zip(trace, inverse_conditions(h, trace)):
        row = [complex(state.t).real]
        for v in state.x:
            row.extend(_pair(v))
        row.extend([state.residual, inv_condition])
        rows.append(row)
    return _csv_text(header, rows), code


# ---------------------------------------------------------------------------
# solve-binomial
# ---------------------------------------------------------------------------

def _parse_rhs_entry(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def cmd_solve_binomial(args):
    if args.fixture is not None:
        h = fixture(args.fixture)
        cols, rhs = binomial_parts(h)
        a = IntMatrix([list(row) for row in zip(*cols)])
        t = 0.0 if args.t0 is None else args.t0
        if not math.isfinite(t):
            raise InvalidArgument("t0 must be finite")
        c = [evalpoly(p, t) for p in rhs]
    else:
        with open(args.file, "r", encoding="utf-8") as fp:
            data = json.load(fp)
        try:
            a = IntMatrix([list(row) for row in data["A"]])
            c = [_parse_rhs_entry(v) for v in data["c"]]
        except (TypeError, IndexError) as exc:
            raise InvalidArgument(
                f"malformed binomial system: {exc!r}") from exc
    solutions = solve_binomial(a, c)
    worst = 0.0
    for x in solutions:
        for y, cj in zip(_monomial_map([complex(v) for v in x], a), c):
            residual = abs(y - cj)
            if residual > worst or math.isnan(residual):
                worst = residual
    if args.fmt == "csv":
        rows = [[part for v in x for part in _pair(v)] for x in solutions]
        return _csv_text(_coordinate_header(a.n), rows), 0
    report = {
        "command": "solve-binomial",
        "count": len(solutions),
        "max_residual": worst,
        "solutions": [[_pair(v) for v in x] for x in solutions],
    }
    return json.dumps(report, indent=2) + "\n", 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_start(text: str) -> tuple:
    return tuple(complex(part) for part in text.split(","))


def _add_source_flags(sub, with_start=False):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", choices=sorted(_FIXTURES))
    group.add_argument("--file")
    if with_start:
        sub.add_argument("--start", type=_parse_start,
                         help="comma-separated start coordinates")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singradar",
        description="Nearest-singularity radar for polynomial homotopies.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("table", help="regenerate a reference table as CSV")
    p.add_argument("which", choices=["table1", "table2", "table3", "table4"])
    p.add_argument("--out")

    p = subs.add_parser("radius", help="run the radar pipeline")
    _add_source_flags(p, with_start=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--precision", choices=[DOUBLE, EXTENDED], default=DOUBLE)
    p.add_argument("--t0", type=float)
    p.add_argument("--step", type=float)
    gamma = p.add_mutually_exclusive_group()
    gamma.add_argument("--gamma", type=complex)
    gamma.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = subs.add_parser("track", help="dump one tracked path as CSV")
    _add_source_flags(p, with_start=True)
    p.add_argument("--target", type=float, default=1.0)
    p.add_argument("--precision", choices=[DOUBLE, EXTENDED], default=DOUBLE)
    p.add_argument("--out")

    p = subs.add_parser("solve-binomial",
                        help="solve a binomial system exactly")
    _add_source_flags(p)
    p.add_argument("--t0", type=float)
    p.add_argument("--format", dest="fmt", choices=["json", "csv"],
                   default="json")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "table":
            text, code = cmd_table(args.which), 0
        elif args.command == "radius":
            text, code = cmd_radius(args)
        elif args.command == "track":
            text, code = cmd_track(args)
        else:
            text, code = cmd_solve_binomial(args)
    except (InvalidArgument, OSError, KeyError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SingradarError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return code
