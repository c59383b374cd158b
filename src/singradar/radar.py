"""Nearest-singularity radar: ratio estimates, extrapolation, reconditioning.

The ratio of consecutive Taylor coefficients of a solution path tends to the
singular parameter value nearest the expansion point. Extrapolating the
ratios at n = 2, 4, ..., 2^N kills the O(1/n) error terms one power at a
time, and rescaling plus recentering (reconditioning) keeps the target
singularity dominant so the limit is clean. The substitution t = t0 + r s
is evaluated in the lane of s, never expanded into new coefficients. A run
reads its lane once, from the start's t and coordinates; both lanes run the
same pole sweep and track to t0 from the demoted start, all in double, and
a run lifts only the final circle (sample_circle), in either lane.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .errors import (
    BranchJump,
    InconclusiveRadar,
    InvalidArgument,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)
from .fourier import _RADIUS_FRACTION, _check_step, taylor_coefficients
from .polysys import Homotopy
from .scalars import EXTENDED, float_magnitude, lane, promote, scalar_eps
from .series import TruncatedSeries
from .tracker import (PathState, TrackerConfig, _entry, demoted, track_to,
                      walk_config)

CONVERGED = "Converged"
INCONCLUSIVE = "Inconclusive"
COEFFICIENTS_VANISH = "CoefficientsVanish"

_VANISH_FACTOR = 1e3
# one checkpoint estimate counts as pointing at the endpoint singularity when
# it lands within this fraction of the remaining distance to t = 1
_CLEAN_FRACTION = 0.02
# an estimate only counts as an interior pole when its imaginary part clears
# this fraction of the remaining distance (real-axis estimates are endpoint
# previews distorted by the t = 1 singularity, not poles)
_OFF_AXIS_FRACTION = 0.05
_SWEEP_SAMPLES = 32
_SWEEP_RETRIES = 3
_SWEEP_FLOOR = 1e-3
_CLEAN_STREAK = 2
_DELTA_FRACTION = 0.1
# an interior pole must be decisively nearer than the endpoint; estimates at
# comparable distance are endpoint readings distorted by interference
_POLE_MARGIN = 0.8


@dataclass
class RichardsonTable:
    levels: int
    table: list
    diagonal: list

    def entry(self, i: int, j: int):
        """R_{i,j} with the customary 1-based indices."""
        return self.table[i - 1][j - 1]


@dataclass
class RadiusEstimate:
    z: object
    raw_ratio: object
    n_used: int
    status: str
    diagonal: list


@dataclass
class RadarRun:
    """One locate_singularity run: the base point, what the ratios gave, and
    the estimate z in original t units and in the lane's scalar type.

    rho and t_star come from the pole sweep and are None when t0 was given;
    diagonal is the Richardson diagonal in reconditioned s units ([] when
    the coefficients vanish); timings holds the detect / track / series
    stage times in seconds."""

    t0: float
    rho: complex | None
    t_star: float | None
    coordinate: int
    z: object
    raw_ratio: object
    diagonal: list
    n_used: int
    status: str
    timings: dict


def richardson(values) -> RichardsonTable:
    """Triangular extrapolation of f(2), f(4), ..., f(2^N)."""
    n_levels = len(values)
    if n_levels < 1:
        raise InvalidArgument("need at least one input level")
    table = []
    for i in range(1, n_levels + 1):
        row = [values[i - 1]]
        for j in range(2, i + 1):
            weight = float(2 ** (i - j + 1))
            prev = row[j - 2]
            anchor = table[j - 2][j - 2]
            row.append((weight * prev - anchor) / (weight - 1.0))
        table.append(row)
    diagonal = [table[j][j] for j in range(n_levels)]
    return RichardsonTable(levels=n_levels, table=table, diagonal=diagonal)


def fabry_estimate(series: TruncatedSeries) -> RadiusEstimate:
    """Nearest-singularity estimate from the coefficient ratios."""
    order = series.order
    if order < 4:
        raise InvalidArgument("need truncation order at least 4")
    coeffs = series.coeffs
    n_levels = int(math.floor(math.log2(order - 1)))
    eps = scalar_eps(lane(*coeffs))
    scale = max(float_magnitude(c) for c in coeffs)
    floor = _VANISH_FACTOR * eps * scale
    ratios = []
    for k in range(1, n_levels + 1):
        n = 2 ** k
        denom = coeffs[n + 1]
        if float_magnitude(denom) < floor:
            return RadiusEstimate(z=complex(0.0), raw_ratio=complex(0.0),
                                  n_used=n, status=COEFFICIENTS_VANISH,
                                  diagonal=[])
        ratios.append(coeffs[n] / denom)
    diag = richardson(ratios).diagonal
    status = INCONCLUSIVE
    if len(diag) >= 2:
        # converged: the last diagonal step is 0 or, given 3 or more
        # entries, smaller than the step before it
        last = float_magnitude(diag[-1] - diag[-2])
        if last == 0.0 or (len(diag) >= 3 and
                           last < float_magnitude(diag[-2] - diag[-3])):
            status = CONVERGED
    return RadiusEstimate(z=diag[-1], raw_ratio=ratios[-1],
                          n_used=2 ** n_levels, status=status, diagonal=diag)


def scale_to_unit(series: TruncatedSeries, z) -> TruncatedSeries:
    """Coefficients of the series in t = |z| s, unit convergence radius."""
    radius = abs(z)
    if float(radius) == 0.0:
        raise InvalidArgument("cannot rescale by a zero radius")
    out = [series.coeffs[0]]
    power = radius
    for c in series.coeffs[1:]:
        out.append(c * power)
        power = power * radius
    return TruncatedSeries(out, order=series.order)


# ---------------------------------------------------------------------------
# reconditioning
# ---------------------------------------------------------------------------

def recondition(h: Homotopy, t0: float) -> Homotopy:
    """The homotopy in s with t = t0 + r s, r = 1 - t0: h with that chart.
    Every q keeps its coefficients in t and is evaluated at t0 + r s
    (polysys.term_values), so no rounding enters the coefficients. On an
    already reconditioned h, t0 is in h's parameter and the charts compose."""
    if not 0.0 <= t0 < 1.0:
        raise InvalidArgument("t0 must lie in [0, 1)")
    if t0 == 0.0:
        return h
    return replace(h, t0=h.t0 + (1.0 - h.t0) * t0)


# ---------------------------------------------------------------------------
# last-pole detection
# ---------------------------------------------------------------------------

def _dominant_coordinate(series_list) -> int:
    return max(range(len(series_list)),
               key=lambda i: float_magnitude(series_list[i].coeffs[-1]))


def _checkpoint_estimate(h: Homotopy, state: PathState, radius: float,
                         cfg: TrackerConfig):
    """Fabry estimate at one checkpoint, shrinking the circle on failure.

    The series is rescaled by the sampling radius before the ratio test so
    the vanish floor compares well-scaled coefficients; z comes back in
    absolute t units, the other fields in the rescaled ones.
    """
    for _ in range(_SWEEP_RETRIES):
        try:
            series = taylor_coefficients(h, state, radius, _SWEEP_SAMPLES,
                                         cfg, lift=False)
        except (BranchJump, NoConvergence, SingularJacobian, StepUnderflow):
            radius *= 0.5
            continue
        scaled = [scale_to_unit(s, radius) for s in series]
        est = fabry_estimate(scaled[_dominant_coordinate(scaled)])
        return replace(est, z=complex(state.t) + radius * complex(est.z))
    return None


def detect_last_pole(h: Homotopy, start: PathState,
                     cfg: TrackerConfig | None = None):
    """Sweep t toward 1, watching for the interior pole nearest the end.

    Returns (rho, t_star, t0): the dominating complex pole (None when the
    endpoint is the only singularity in sight), the parameter where the pole
    and the endpoint are equidistant, and the recommended base point.
    Both lanes sweep alike, in double from the demoted start (walk_config);
    a cfg below the start's lane floor is an InvalidArgument.
    """
    _entry(h, cfg, start.t, start.x)
    cfg = walk_config(cfg)
    state = demoted(start)
    candidates = []
    first_clean = prev_z = None
    clean_streak = vanish_streak = 0
    read_any = False
    t_c = float(complex(state.t).real)
    while 1.0 - t_c > _SWEEP_FLOOR:
        try:
            state = track_to(h, state, t_c, cfg)
        except (NoConvergence, StepUnderflow, SingularJacobian):
            break
        gap = 1.0 - t_c
        radius = _RADIUS_FRACTION * gap
        if prev_z is not None:
            radius = min(radius, _RADIUS_FRACTION * abs(prev_z - t_c))
        est = _checkpoint_estimate(h, state, radius, cfg)
        status = None if est is None else est.status
        read_any = read_any or status in (CONVERGED, COEFFICIENTS_VANISH)
        # a heuristic stop: after _CLEAN_STREAK vanishing tails in a row the
        # path is taken for a polynomial and the sweep ends. It can miss a
        # pole: fabry_estimate reports a vanishing tail as soon as one ratio
        # denominator is below its floor, and a later checkpoint's disc
        # reaches nearer to t = 1 than the discs before it
        vanish_streak = (vanish_streak + 1
                         if status == COEFFICIENTS_VANISH else 0)
        if vanish_streak >= _CLEAN_STREAK:
            break
        if status == CONVERGED:
            z_abs = complex(est.z)
            prev_z = z_abs
            if abs(z_abs - 1.0) <= _CLEAN_FRACTION * gap:
                clean_streak += 1
                if first_clean is None:
                    first_clean = t_c
                if clean_streak >= _CLEAN_STREAK:
                    break
            else:
                clean_streak = 0
                if (abs(z_abs.imag) > _OFF_AXIS_FRACTION * gap
                        and z_abs.real < 1.0
                        and abs(z_abs - t_c) < _POLE_MARGIN * gap):
                    candidates.append(z_abs)
        else:
            clean_streak = 0
        t_c = t_c + 0.5 * (1.0 - t_c)
    if not read_any:
        raise InconclusiveRadar("no checkpoint produced a usable estimate")
    if candidates:
        rho = max(candidates, key=lambda z: z.real)
        t_star = (1.0 - abs(rho) ** 2) / (2.0 * (1.0 - rho.real))
        t_star = min(max(t_star, 0.0), 1.0 - _SWEEP_FLOOR)
    else:
        rho = None
        t_star = first_clean if first_clean is not None else 0.0
    t0 = t_star + _DELTA_FRACTION * (1.0 - t_star)
    return rho, t_star, t0


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def locate_singularity(h: Homotopy, start: PathState, order: int,
                       cfg: TrackerConfig | None = None,
                       t0: float | None = None,
                       coordinate: int | None = None,
                       step: float | None = None) -> RadarRun:
    """End-to-end radar; the estimate comes back in original t units.

    The path is sampled at P points, P the smallest power of two with
    P >= order + 2, and the last ratio used is n_used = P / 2. A
    power-of-two order thus gives n_used == order; any other order rounds
    down or up to a power of two (order 126 gives 64, order 127 gives 128).
    Pass t0 in [0, 1) to skip pole detection and recondition at a known
    base point, and step to override the sampling radius in s units.
    The lane is read once, from the start's t and coordinates, and a cfg
    below its floor is an InvalidArgument (tracker._entry): an extended
    start only carries it to taylor_coefficients. The sweep and the track
    run from the demoted start, and the base point is the track's double
    end point, promoted exactly in the extended lane.
    """
    if order < 4:
        raise InvalidArgument("need order at least 4")
    if t0 is not None and not 0.0 <= t0 < 1.0:
        raise InvalidArgument("t0 must lie in [0, 1)")
    if step is not None:
        _check_step(step)
    t_begin = time.perf_counter()
    extended = _entry(h, cfg, start.t, start.x)[0]
    start = demoted(start)
    rho = t_star = None
    if t0 is None:
        rho, t_star, t0 = detect_last_pole(h, start, walk_config(cfg))
    t_detect = time.perf_counter()
    end = track_to(h, start, t0, walk_config(cfg))
    if extended:  # the lane rides on x, unlifted
        end.x = [promote(v, EXTENDED) for v in end.x]
    hs = recondition(h, t0)
    base = replace(end, t=0.0)  # hs at s = 0 is h at t0: the residual holds
    t_track = time.perf_counter()
    n_samples = 1 << (order + 1).bit_length()  # least 2^k >= order + 2
    series = taylor_coefficients(hs, base, step, n_samples, cfg)
    if coordinate is None:
        coordinate = _dominant_coordinate(series)
    est = fabry_estimate(series[coordinate])
    z_out = est.z
    if est.status != COEFFICIENTS_VANISH:
        z_out = t0 + (1.0 - t0) * est.z
    timings = {"detect": t_detect - t_begin, "track": t_track - t_detect,
               "series": time.perf_counter() - t_track}
    return RadarRun(t0=t0, rho=rho, t_star=t_star, coordinate=coordinate,
                    z=z_out, raw_ratio=est.raw_ratio, diagonal=est.diagonal,
                    n_used=est.n_used, status=est.status, timings=timings)
