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
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidArgument,
    NoConvergence,
    SingradarError,
    SingularJacobian,
    StepUnderflow,
)
from .fourier import direct_inverse_dft, sample_circle
from .monomial import IntMatrix, solve_binomial
from .polysys import binomial_parts, evalpoly, fixture, homotopy_from_json
from .radar import CONVERGED, locate_singularity, richardson
from .scalars import DOUBLE, EXTENDED, promote
from .tracker import (
    PathState,
    default_config,
    estimate_inverse_condition,
    newton_correct,
    track_to,
)

_START_POINTS = {
    "sqrt": (1.0,),
    "cusp": (1.0,),
    "monomial4": (1.0, 1.0, 1.0, 1.0),
    "ojika1": (1.0, 1.0),
}

_MASK64 = (1 << 64) - 1


@dataclass
class RunConfig:
    command: str
    fixture: str | None = None
    file: str | None = None
    n: int = 64
    precision: str = DOUBLE
    step: float | None = None
    t0: float | None = None
    gamma: complex | None = None
    seed: int | None = None
    fmt: str = "json"
    out: str | None = None
    target: float = 1.0
    which: str | None = None
    start: tuple | None = None

    def __post_init__(self):
        if self.n < 4 or self.n > 1024 or (self.n & (self.n - 1)) != 0:
            raise InvalidArgument("n must be a power of two in [4, 1024]")


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

def _load_homotopy(cfg: RunConfig):
    gamma = cfg.gamma if cfg.seed is None else gamma_from_seed(cfg.seed)
    if cfg.fixture is not None:
        h = fixture(cfg.fixture, gamma)
        x0 = list(_START_POINTS[cfg.fixture])
    else:
        with open(cfg.file, "r", encoding="utf-8") as fp:
            h = homotopy_from_json(json.load(fp), gamma)
        x0 = [1.0] * h.dim
    if cfg.start is not None:
        if len(cfg.start) != h.dim:
            raise InvalidArgument("start point has wrong dimension")
        x0 = list(cfg.start)
    return h, x0


def _start_state(h, x0, cfg: RunConfig, tcfg) -> PathState:
    if cfg.precision == EXTENDED:
        x0 = [promote(v, EXTENDED) for v in x0]
    return newton_correct(h, 0.0, x0, tcfg)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _series_table(step: float, count: int, orders, scale) -> str:
    """Taylor coefficients of the sqrt path about t = 0, each times
    scale(k), from count circle samples at radius step, against the exact
    values."""
    h = fixture("sqrt")
    base = PathState.from_point(h, 0.0, list(_START_POINTS["sqrt"]))
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

def cmd_radius(cfg: RunConfig):
    t_begin = time.perf_counter()
    tcfg = default_config(cfg.precision)
    h, x0 = _load_homotopy(cfg)
    start = _start_state(h, x0, cfg, tcfg)
    run = locate_singularity(h, start, cfg.n, tcfg, t0=cfg.t0, step=cfg.step)
    report = {
        "command": "radius",
        "fixture": cfg.fixture,
        "file": cfg.file,
        "n": cfg.n,
        "precision": cfg.precision,
        "gamma": _pair(h.gamma),
        "seed": cfg.seed,
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

def cmd_track(cfg: RunConfig):
    tcfg = default_config(cfg.precision)
    h, x0 = _load_homotopy(cfg)
    start = _start_state(h, x0, cfg, tcfg)
    trace = [start]
    code = 0
    try:
        track_to(h, start, cfg.target, tcfg, trace=trace)
    except (StepUnderflow, NoConvergence, SingularJacobian) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        code = 1
    header = ["t"]
    for i in range(h.dim):
        header.append("re_x%d" % (i + 1))
        header.append("im_x%d" % (i + 1))
    header.extend(["residual", "inv_condition"])
    rows = []
    for state in trace:
        row = [complex(state.t).real]
        for v in state.x:
            row.extend(_pair(v))
        row.extend([state.residual, estimate_inverse_condition(h, state)])
        rows.append(row)
    return _csv_text(header, rows), code


# ---------------------------------------------------------------------------
# solve-binomial
# ---------------------------------------------------------------------------

def _parse_rhs_entry(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def cmd_solve_binomial(cfg: RunConfig):
    if cfg.fixture is not None:
        h = fixture(cfg.fixture)
        cols, rhs = binomial_parts(h)
        a = IntMatrix([list(row) for row in zip(*cols)])
        t = 0.0 if cfg.t0 is None else cfg.t0
        if not math.isfinite(t):
            raise InvalidArgument("t0 must be finite")
        c = [evalpoly(p, t) for p in rhs]
    else:
        with open(cfg.file, "r", encoding="utf-8") as fp:
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
        for j in range(a.n):
            acc = complex(1.0)
            for i in range(a.n):
                e = a.entries[i][j]
                if e:
                    acc *= complex(x[i]) ** e
            residual = abs(acc - c[j])
            if residual > worst or math.isnan(residual):
                worst = residual
    if cfg.fmt == "csv":
        header = []
        for i in range(a.n):
            header.append("re_x%d" % (i + 1))
            header.append("im_x%d" % (i + 1))
        rows = []
        for x in solutions:
            row = []
            for v in x:
                row.extend(_pair(v))
            rows.append(row)
        return _csv_text(header, rows), 0
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
    group.add_argument("--fixture", choices=sorted(_START_POINTS))
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
    p.add_argument("--gamma", type=complex)
    p.add_argument("--seed", type=int)
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


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        fixture=getattr(args, "fixture", None),
        file=getattr(args, "file", None),
        n=getattr(args, "n", 64),
        precision=getattr(args, "precision", DOUBLE),
        step=getattr(args, "step", None),
        t0=getattr(args, "t0", None),
        gamma=getattr(args, "gamma", None),
        seed=getattr(args, "seed", None),
        fmt=getattr(args, "fmt", "json"),
        out=getattr(args, "out", None),
        target=getattr(args, "target", 1.0),
        which=getattr(args, "which", None),
        start=getattr(args, "start", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "table":
            text, code = cmd_table(cfg.which), 0
        elif cfg.command == "radius":
            text, code = cmd_radius(cfg)
        elif cfg.command == "track":
            text, code = cmd_track(cfg)
        else:
            text, code = cmd_solve_binomial(cfg)
    except (InvalidArgument, OSError, KeyError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SingradarError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return code
