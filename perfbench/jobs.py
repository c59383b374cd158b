"""Workloads of the radar benchmark: fixed job lists, seeded inputs, checks.

Every job enters the library the way a user does: through `cli.main`
in-process, or through the functions `singradar/__init__.py` exports. Each
job returns an outcome, and the job's check compares that outcome with a
reference the benchmark computes itself. A check returns a `Verdict`; a job
whose run or check raises is a failed job, never a skipped one.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import decimal
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "pinned_ext", "coefficients")
# per-job-kind wall times, reported as medians on the workloads that run them
KINDS = ("radius_s.sqrt", "radius_s.ojika1", "radius_s.monomial4",
         "radius_s.cusp", "series_s.n128", "series_s.n1024", "table4_s",
         "solve_binomial_s")

# criterion 7: a converged radius lies within this distance of t = 1
Z_TOL = 1e-4
# pinned base points of the extended lane (criterion 7 uses the ojika1 one)
PINNED_T0 = {"sqrt": 0.0, "ojika1": 0.955647336181678, "monomial4": 0.0}
SWEEP_FIXTURES = ("sqrt", "ojika1", "monomial4", "cusp")

# Planted series: f(t) = (1 - t/a)^(-1/2) with |a| = 1, sampled on a circle
# of radius rho. rho trades aliasing, which shrinks like rho^n, against
# rounding noise in the rescaled coefficients, which grows like eps/rho^k:
# at these radii every seed converges in both lanes, with |z - a| near
# 5e-9 (n = 128) and 1e-11 (n = 1024) on a 2-core x86-64 host.
PLANTED_RHO = {128: 0.85, 1024: 0.985}
PLANTED_TOL = {128: 5e-8, 1024: 1e-9}

# criterion 3: wide-circle coefficient errors, each within 10x of the
# printed value, with two absolute caps
TABLE4_PRINTED = {0: 1.40e-08, 1: 2.73e-08, 2: 1.07e-07, 4: 3.27e-07,
                  8: 8.97e-07, 32: 4.86e-06, 64: 8.88e-06}
TABLE4_CAPS = {1: 3e-7, 64: 9e-5}

BINOMIAL_SOLUTIONS = 42
BINOMIAL_RESIDUAL = 1e-10

# digits are capped at the double-double unit roundoff so an exact answer
# does not report infinity
_MAX_DIGITS = 32.0


class SetupError(RuntimeError):
    """The checkout does not hold a usable singradar source tree."""


@dataclass
class Verdict:
    ok: bool
    digits: float | None = None
    reason: str = ""


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    jobs: list
    inputs: dict  # seeded inputs by name, for the run record


def _digits(rel_err: float) -> float:
    if rel_err <= 0.0:
        return _MAX_DIGITS
    return min(_MAX_DIGITS, -math.log10(rel_err))


def import_singradar(src: Path):
    """Import singradar from this checkout's source tree, nowhere else."""
    src = src.resolve()
    if not (src / "singradar" / "__init__.py").is_file():
        raise SetupError("no singradar package under %s" % src)
    sys.path.insert(0, str(src))
    sr = importlib.import_module("singradar")
    importlib.import_module("singradar.cli")
    if src not in Path(sr.__file__).resolve().parents:
        raise SetupError("singradar was imported from %s" % sr.__file__)
    return sr


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def _cli_job(sr, kind: str, argv: list, check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sr.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return Job(kind, run, check)


def radius_check(status: str, code: int, z_ref: complex = 1.0):
    """A radius report with this status and exit code; a converged one must
    lie within Z_TOL of z_ref, a non-converged one must report z = 0."""
    def check(outcome) -> Verdict:
        got_code, out, _ = outcome
        rep = json.loads(out)
        if got_code != code or rep["status"] != status:
            return Verdict(False, None, "exit %d status %s, want exit %d "
                           "status %s" % (got_code, rep["status"], code,
                                          status))
        z = complex(*rep["z"])
        if status != "Converged":
            ok = z == 0j
            return Verdict(ok, None, "" if ok else "z = %r, want 0" % z)
        err = abs(z - z_ref)
        if err > Z_TOL:
            return Verdict(False, None, "|z - %r| = %.3g > %g"
                           % (z_ref, err, Z_TOL))
        return Verdict(True, _digits(err / abs(z_ref)))
    return check


def _sqrt_coeff(k: int) -> Fraction:
    # Taylor coefficient of sqrt(1 - t) about t = 0
    c = Fraction(1)
    for i in range(k):
        c = c * Fraction(2 * i - 1, 2 * (i + 1))
    return c


def table4_check(outcome) -> Verdict:
    code, out, _ = outcome
    rows = list(csv.reader(io.StringIO(out)))[1:]
    if code != 0 or [int(r[0]) for r in rows] != sorted(TABLE4_PRINTED):
        return Verdict(False, None, "exit %d rows %s"
                       % (code, [r[0] for r in rows]))
    digits = _MAX_DIGITS
    for row in rows:
        k = int(row[0])
        exact = float(_sqrt_coeff(k))
        err = abs(float(row[2]) - exact) / abs(exact)
        limit = min(10.0 * TABLE4_PRINTED[k], TABLE4_CAPS.get(k, math.inf))
        if err > limit:
            return Verdict(False, None, "row %d error %.3g > %.3g"
                           % (k, err, limit))
        digits = min(digits, _digits(err))
    return Verdict(True, digits)


def _binomial_check(sr):
    cols, rhs = sr.binomial_parts(sr.fixture("monomial4"))
    c = [complex(p[0]) for p in rhs]  # right-hand sides at t = 0

    def check(outcome) -> Verdict:
        code, out, _ = outcome
        rep = json.loads(out)
        sols = [[complex(*v) for v in x] for x in rep["solutions"]]
        if code != 0 or len(sols) != BINOMIAL_SOLUTIONS:
            return Verdict(False, None, "exit %d with %d solutions"
                           % (code, len(sols)))
        worst = 0.0
        for x in sols:
            for col, cj in zip(cols, c):
                acc = complex(1.0)
                for xi, e in zip(x, col):
                    acc *= xi ** e
                worst = max(worst, abs(acc - cj))
        if worst > BINOMIAL_RESIDUAL:
            return Verdict(False, None, "residual %.3g" % worst)
        if not any(all(abs(v - 1.0) <= BINOMIAL_RESIDUAL for v in x)
                   for x in sols):
            return Verdict(False, None, "the all-ones solution is missing")
        return Verdict(True)
    return check


# ---------------------------------------------------------------------------
# planted series
# ---------------------------------------------------------------------------

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097")


def _split(d: Decimal):
    # (hi, lo) pair of doubles; float() rounds correctly, so |lo| <= ulp(hi)/2
    hi = float(d)
    return hi, float(d - Decimal(hi))


def _exp_i(theta: Decimal):
    """(cos theta, sin theta) by the Taylor series of exp(i theta)."""
    c, s = Decimal(0), Decimal(0)
    term, k = Decimal(1), 0
    while abs(term) > Decimal("1e-45"):
        if k % 4 == 0:
            c += term
        elif k % 4 == 1:
            s += term
        elif k % 4 == 2:
            c -= term
        else:
            s -= term
        k += 1
        term = term * theta / k
    return c, s


def _planted_point(a: complex, rho: float, j: int, n: int):
    """f(rho w^j) to 50 digits, as (re, im) Decimals, for |rho / a| < 1."""
    theta = 2 * _PI * (j if 2 * j <= n else j - n) / n
    wc, ws = _exp_i(theta)
    ar, ai = Decimal(a.real), Decimal(a.imag)
    den = ar * ar + ai * ai
    # u = 1 - rho w / a, whose real part is positive
    tr = Decimal(rho) * wc
    ti = Decimal(rho) * ws
    ur = 1 - (tr * ar + ti * ai) / den
    ui = -(ti * ar - tr * ai) / den
    m = (ur * ur + ui * ui).sqrt()
    qr = ((m + ur) / 2).sqrt()
    qi = ui / (2 * qr)
    mag = qr * qr + qi * qi
    return qr / mag, -qi / mag


def planted_samples(sr, a: complex, n: int, extended: bool) -> list:
    """f(rho w^j) for f(t) = (1 - t/a)^(-1/2), w = exp(2 pi i / n).

    The extended lane gets samples correct to double-double, computed in
    decimal arithmetic so that no library code produces its own input."""
    rho = PLANTED_RHO[n]
    if not extended:
        return [1.0 / cmath.sqrt(1.0 - rho * cmath.exp(2j * math.pi * j / n)
                                 / a) for j in range(n)]
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for j in range(n):
            re, im = _planted_point(a, rho, j, n)
            out.append(sr.ExtComplex(sr.ExtReal(*_split(re)),
                                     sr.ExtReal(*_split(im))))
    return out


def _planted_job(sr, a: complex, n: int, extended: bool) -> Job:
    samples = planted_samples(sr, a, n, extended)
    rho = PLANTED_RHO[n]
    # scale_to_unit by 1/rho turns the coefficients of f(rho s) into those
    # of f(t), whose radius |a| = 1 is what fabry_estimate expects
    inv_rho = sr.ExtReal(1.0) / sr.ExtReal(rho) if extended else 1.0 / rho

    def run():
        series = sr.TruncatedSeries(sr.inverse_dft(samples), order=n - 1)
        return sr.fabry_estimate(sr.scale_to_unit(series, inv_rho))

    def check(est) -> Verdict:
        if est.status != sr.CONVERGED:
            return Verdict(False, None, "status %s" % est.status)
        err = abs(complex(est.z) - a)
        if err > PLANTED_TOL[n]:
            return Verdict(False, None, "|z - a| = %.3g > %g"
                           % (err, PLANTED_TOL[n]))
        return Verdict(True, _digits(err / abs(a)))

    return Job("series_s.n%d" % n, run, check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _check_start_points(sr, names, precision: str):
    """Build each fixture and correct its start point at t = 0 in the given
    lane, so that a broken fixture fails set-up instead of every job."""
    cfg = sr.default_config(precision)
    for name in names:
        h = sr.fixture(name)
        x0 = [sr.promote(1.0, precision)] * h.dim
        state = sr.newton_correct(h, 0.0, x0, cfg)
        if not state.residual <= cfg.newton_tol:
            raise SetupError("start point of %s does not converge" % name)


def build(name: str, seed: int, src: Path) -> Workload:
    """Import singradar and build the workload's fixtures, start points,
    seeded inputs and job list. Everything here counts as set-up time."""
    if name not in WORKLOADS:
        raise SetupError("unknown workload %r" % name)
    sr = import_singradar(src)
    rng = random.Random(seed)
    inputs = {}
    if name == "sweep":
        _check_start_points(sr, SWEEP_FIXTURES, sr.DOUBLE)
        jobs = [_cli_job(sr, "radius_s." + f, ["radius", "--fixture", f],
                         radius_check("CoefficientsVanish", 1) if f == "cusp"
                         else radius_check("Converged", 0))
                for f in SWEEP_FIXTURES]
    elif name == "pinned_ext":
        _check_start_points(sr, PINNED_T0, sr.EXTENDED)
        jobs = [_cli_job(sr, "radius_s." + f,
                         ["radius", "--fixture", f, "--precision", "extended",
                          "--t0", repr(t0)],
                         radius_check("Converged", 0))
                for f, t0 in PINNED_T0.items()]
        jobs.append(_cli_job(sr, "solve_binomial_s",
                             ["solve-binomial", "--fixture", "monomial4"],
                             _binomial_check(sr)))
    else:
        jobs = []
        for n in sorted(PLANTED_RHO):
            for extended in (False, True):
                a = cmath.exp(2j * math.pi * rng.random())
                lane = "extended" if extended else "double"
                inputs["a.n%d.%s" % (n, lane)] = a
                jobs.append(_planted_job(sr, a, n, extended))
        jobs.append(_cli_job(sr, "table4_s", ["table", "table4"],
                             table4_check))
    return Workload(jobs, inputs)
