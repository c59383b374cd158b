"""Taylor coefficients of a solution path by circle sampling and inverse DFT.

Samples walk the circle sequentially, each corrected from its neighbor, so
the whole batch stays on one branch; a wrap-around re-correction guards the
monodromy. Accumulation runs in the extended lane regardless of the caller's
lane: the samples are cheap to polish there and the exactly representable
roots of unity keep the transform's rounding out of the coefficient error.

The transforms run double-double arithmetic element-wise on four float64
arrays (re.hi, re.lo, im.hi, im.lo): an iterative radix-2 kernel (bit-reversal
permutation, then log2(n) vectorised butterfly stages) for power-of-two
lengths, and a direct kernel that loops over samples and vectorises over
coefficients for any length. Twiddles come from ``scalars.roots_of_unity``,
one table per size, built on first use from ``root_of_unity``. Every element
goes through the same operations in the same order as the ExtComplex
operators would, so results match them bit for bit. Values are converted
only at the edges: lists of complex / ExtComplex in, the same types out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchJump, InvalidArgument, NoConvergence
from .polysys import Homotopy
from .scalars import (
    EXTENDED,
    ExtComplex,
    ExtReal,
    cdd_add,
    cdd_mul,
    cdd_sub,
    dd_div_float,
    is_extended,
    promote,
    root_of_unity,
    roots_of_unity,
)
from .series import TruncatedSeries
from .tracker import (PathState, TrackerConfig, default_config,
                      newton_correct, track_to)

# imported after the package's own modules (scalars imports numpy): numpy
# imported before them leaves the process's resident set about 0.6 MB larger
import numpy as np

_WRAP_TOL = 1e-6
_WALK_GUARD = 0.5
_MAX_SUBSTEPS = 64


@dataclass
class CircleSamples:
    t0: object
    h: float
    n: int
    values: list

    def __post_init__(self):
        if self.n < 1 or (self.n & (self.n - 1)) != 0:
            raise InvalidArgument("sample count must be a power of two")
        for coord in self.values:
            if len(coord) != self.n:
                raise InvalidArgument("every coordinate needs n samples")


def _as_ext(value) -> ExtComplex:
    v = promote(value, EXTENDED)
    if isinstance(v, ExtReal):
        v = ExtComplex(v, ExtReal.from_value(0.0))
    return v


def _to_arrays(values) -> tuple:
    work = [_as_ext(v) for v in values]
    return (np.array([v.re.hi for v in work]),
            np.array([v.re.lo for v in work]),
            np.array([v.im.hi for v in work]),
            np.array([v.im.lo for v in work]))


def _from_arrays(parts, extended: bool) -> list:
    re_hi, re_lo, im_hi, im_lo = parts
    if extended:
        return [ExtComplex(ExtReal(a, b), ExtReal(c, d))
                for a, b, c, d in zip(re_hi.tolist(), re_lo.tolist(),
                                      im_hi.tolist(), im_lo.tolist())]
    return [complex(a, b) for a, b in zip((re_hi + re_lo).tolist(),
                                          (im_hi + im_lo).tolist())]


def _divide(parts, n: int) -> tuple:
    return (dd_div_float(parts[0], parts[1], float(n))
            + dd_div_float(parts[2], parts[3], float(n)))


def _bit_reversal(n: int):
    order = np.zeros(1, dtype=np.intp)
    while len(order) < n:
        order = np.concatenate((2 * order, 2 * order + 1))
    return order


def _radix2(parts) -> tuple:
    """sum_j x_j w^{-jk}, w = exp(2*pi*i/n): decimation in time, the
    butterfly even + w^k * odd, even - w^k * odd of each stage done at once
    over all blocks."""
    n = len(parts[0])
    table = roots_of_unity(n)
    order = _bit_reversal(n)
    x = tuple(p[order] for p in parts)
    half = 1
    while half < n:
        size = 2 * half
        idx = (-(n // size) * np.arange(half)) % n
        twiddle = tuple(t[idx] for t in table)
        blocks = tuple(p.reshape(-1, size) for p in x)
        even = tuple(b[:, :half] for b in blocks)
        term = cdd_mul(twiddle, tuple(b[:, half:] for b in blocks))
        x = tuple(np.concatenate((top, bottom), axis=1).ravel()
                  for top, bottom in zip(cdd_add(even, term),
                                         cdd_sub(even, term)))
        half = size
    return x


def _check_power_of_two(n: int):
    if n < 1 or (n & (n - 1)) != 0:
        raise InvalidArgument("length must be a power of two")


def inverse_dft(values) -> list:
    """Coefficients g with values_j = sum_k g_k w^{jk}, w = exp(2*pi*i/n)."""
    _check_power_of_two(len(values))
    extended = any(is_extended(v) for v in values)
    out = _divide(_radix2(_to_arrays(values)), len(values))
    return _from_arrays(out, extended)


def direct_inverse_dft(values) -> list:
    """O(n^2) inverse transform for arbitrary length (table generation).

    Each coefficient sums its terms in sample order j = 0..m-1."""
    m = len(values)
    if m < 1:
        raise InvalidArgument("empty sample vector")
    table = roots_of_unity(m)
    x = _to_arrays(values)
    k = np.arange(m)
    acc = (np.zeros(m),) * 4
    for j in range(m):
        idx = (-j * k) % m
        acc = cdd_add(acc, cdd_mul(tuple(p[j] for p in x),
                                   tuple(t[idx] for t in table)))
    return _from_arrays(_divide(acc, m), any(is_extended(v) for v in values))


def default_step(t0) -> float:
    """0.85 of the distance to t = 1; smaller radii drown the high
    coefficients in rescaled rounding noise, larger ones sit too close
    to the singularity."""
    return 0.85 * abs(1.0 - complex(t0))


class _RetryHop(Exception):
    pass


def _correct_sample(h, t_ext, seed, cfg, polish_cfg, lane_extended):
    if lane_extended:
        return newton_correct(h, t_ext, [_as_ext(v) for v in seed],
                              polish_cfg).x
    state = newton_correct(h, complex(t_ext), seed, cfg)
    return newton_correct(h, t_ext, [_as_ext(v) for v in state.x],
                          polish_cfg).x


def _advance_arc(h, t0_ext, step_ext, n, k, seed, cfg, polish_cfg,
                 lane_extended):
    """Sample at angle k/n starting from the accepted sample at (k-1)/n.

    A hop that moves the point by more than half its own scale cannot be
    trusted as a Newton seed (the corrector may land on another branch or
    run out of iterations), so the arc is re-walked with doubled substep
    counts until every hop is tame."""
    m = 1
    while True:
        walk = seed
        try:
            for j in range(1, m + 1):
                t_sub = t0_ext + step_ext * root_of_unity(n * m,
                                                          (k - 1) * m + j)
                value = _correct_sample(h, t_sub, walk, cfg, polish_cfg,
                                        lane_extended)
                moved = max(abs(complex(a) - complex(b))
                            for a, b in zip(walk, value))
                spread = max(max(abs(complex(a)), abs(complex(b)))
                             for a, b in zip(walk, value))
                if moved > _WALK_GUARD * spread:
                    raise _RetryHop()
                walk = value if lane_extended else [complex(v) for v in value]
            return value
        except (_RetryHop, NoConvergence):
            m *= 2
            if m > _MAX_SUBSTEPS:
                raise BranchJump(
                    "sampling hops kept jumping at the finest subdivision")


def sample_circle(h: Homotopy, base: PathState, step: float, n: int,
                  cfg: TrackerConfig | None = None) -> CircleSamples:
    """Newton-corrected samples x(t0 + step*w^k), k = 0..n-1."""
    _check_power_of_two(n)
    if cfg is None:
        cfg = default_config()
    if not 0.0 < step < math.inf:
        raise InvalidArgument("step must be positive and finite")
    lane_extended = any(is_extended(v) for v in base.x) or is_extended(base.t)
    polish_cfg = default_config(EXTENDED)
    t0_ext = _as_ext(base.t)
    step_ext = ExtReal.from_value(float(step))
    per_sample = []
    seed = list(base.x)
    t0_c = complex(base.t)
    if t0_c.imag == 0.0:
        # reach the first sample by continuation; one Newton leap from the
        # center is not reliable for systems with high-degree monomials
        approach = track_to(h, base, t0_c.real + float(step), cfg)
        seed = list(approach.x)
        if not lane_extended:
            seed = [complex(v) for v in seed]
    for k in range(n + 1):
        if k == 0:
            t_ext = t0_ext + step_ext * root_of_unity(n, 0)
            value = _correct_sample(h, t_ext, seed, cfg, polish_cfg,
                                    lane_extended)
        else:
            value = _advance_arc(h, t0_ext, step_ext, n, k, seed, cfg,
                                 polish_cfg, lane_extended)
        if k == n:
            drift = max(abs(complex(a - b))
                        for a, b in zip(value, per_sample[0]))
            if drift > _WRAP_TOL:
                raise BranchJump("circle walk returned on a different branch")
            break
        per_sample.append(value)
        seed = [complex(v) for v in value] if not lane_extended else value
    values = [[per_sample[k][i] for k in range(n)] for i in range(h.dim)]
    return CircleSamples(t0=base.t, h=float(step), n=n, values=values)


def taylor_coefficients(h: Homotopy, base: PathState, step: float | None,
                        n: int, cfg: TrackerConfig | None = None) -> list:
    """One TruncatedSeries per coordinate, truncation order n - 1."""
    if step is None:
        step = default_step(base.t)
    samples = sample_circle(h, base, step, n, cfg)
    lane_extended = any(is_extended(v) for v in base.x) or is_extended(base.t)
    step_ext = ExtReal.from_value(float(step))
    out = []
    for coord in samples.values:
        raw = inverse_dft(coord)
        coeffs = []
        power = ExtReal.from_value(1.0)
        for k, c in enumerate(raw):
            if k:
                power = power * step_ext
            scaled = ExtComplex(c.re / power, c.im / power)
            coeffs.append(scaled if lane_extended else complex(scaled))
        out.append(TruncatedSeries(coeffs, order=n - 1))
    return out
