"""Taylor coefficients of a solution path by circle sampling and inverse DFT.

``sample_circle`` is the one circle walk: the pipeline samples through it
at power-of-two counts, and the reference tables at 17 and 65 samples. It
takes any count n >= 1; only ``inverse_dft`` needs a power of two. Samples
walk the circle sequentially, each corrected from its neighbor, so the
whole batch stays on one branch; a hop that moves too far re-walks its arc
in finer substeps, and a wrap-around re-correction guards the monodromy.
The samples end in double-double whatever the caller's lane, so
the exactly representable roots of unity keep the transform's rounding out
of the coefficient error:

* the extended lane corrects every hop in double-double;
* the double lane walks in double, then lifts all n samples at once by
  mixed-precision iterative refinement (Moler, JACM 14, 1967): the residual
  is evaluated in double-double on one ExtComplex per coordinate whose
  parts are (n,) arrays, and the correction is solved in double, sample by
  sample, with the Jacobian at the hi parts.

The transforms run double-double arithmetic element-wise on four float64
arrays (re.hi, re.lo, im.hi, im.lo): an iterative radix-2 kernel (bit-reversal
permutation, then log2(n) vectorised butterfly stages) for power-of-two
lengths, and a direct kernel that loops over samples and vectorises over
coefficients for any length. Twiddles come from ``scalars.roots_of_unity``,
one table per size, built on first use from ``root_of_unity``. The kernels
are the ``scalars`` ones the ExtComplex operators call, so every element
matches what the operators would give, bit for bit. Values are converted
only at the edges: lists of complex / ExtComplex in, the same types out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchJump, InvalidArgument, NoConvergence
from .polysys import Homotopy, Powers, evaluate, jacobian, term_values
from .scalars import (
    DOUBLE,
    EXTENDED,
    ExtComplex,
    ExtReal,
    _complex,
    _quad,
    cdd_add,
    cdd_mul,
    cdd_sub,
    dd_div,
    float_magnitude,
    is_extended,
    promote,
    root_of_unity,
    roots_of_unity,
    scalar_eps,
)
from .series import TruncatedSeries
from .tracker import (PathState, TrackerConfig, _solve_linear, default_config,
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
        _check_count(self.n)
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
    return (dd_div(parts[0], parts[1], float(n), 0.0)
            + dd_div(parts[2], parts[3], float(n), 0.0))


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


def _check_count(n: int):
    if n < 1:
        raise InvalidArgument("need at least one sample")


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
    """O(m^2) inverse transform for arbitrary length (table generation).

    All m^2 terms x_j w^{-jk} are formed in one product over (m, m)
    arrays; each coefficient then sums its terms in sample order
    j = 0..m-1."""
    m = len(values)
    if m < 1:
        raise InvalidArgument("empty sample vector")
    table = roots_of_unity(m)
    k = np.arange(m)
    idx = (-np.outer(k, k)) % m
    terms = cdd_mul(tuple(p[:, None] for p in _to_arrays(values)),
                    tuple(t[idx] for t in table))
    acc = (np.zeros(m),) * 4
    for j in range(m):
        acc = cdd_add(acc, tuple(p[j] for p in terms))
    return _from_arrays(_divide(acc, m), any(is_extended(v) for v in values))


def default_step(t0) -> float:
    """0.85 of the distance to t = 1; smaller radii drown the high
    coefficients in rescaled rounding noise, larger ones sit too close
    to the singularity."""
    return 0.85 * abs(1.0 - complex(t0))


class _RetryHop(Exception):
    pass


def _advance_arc(correct, t0_ext, step_ext, n, k, seed):
    """Sample at angle k/n starting from the accepted sample at (k-1)/n;
    correct(t, seed) is the lane's Newton correction.

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
                value = correct(t_sub, walk)
                moved = max(abs(complex(a) - complex(b))
                            for a, b in zip(walk, value))
                spread = max(max(abs(complex(a)), abs(complex(b)))
                             for a, b in zip(walk, value))
                if moved > _WALK_GUARD * spread:
                    raise _RetryHop()
                walk = value
            return value
        except (_RetryHop, NoConvergence):
            m *= 2
            if m > _MAX_SUBSTEPS:
                raise BranchJump(
                    "sampling hops kept jumping at the finest subdivision")


def _norms(values, n: int):
    """newton_correct's residual norm, max_i |values_i|, per sample."""
    out = np.zeros(n)
    for v in values:
        out = np.maximum(out, float_magnitude(v))
    return out


def _refine(h: Homotopy, t: ExtComplex, walked) -> list:
    """Lift the walked double samples, an (n, dim) complex array, to
    double-double at the batched angles t: one array-valued ExtComplex per
    coordinate.

    Mixed-precision iterative refinement: the residual is evaluated in
    double-double, the correction solved in double with the Jacobian at
    the hi parts, and added in double-double. The stopping rule is
    newton_correct's, applied to every sample: each residual must reach
    the extended tolerance, and one more step is kept where it lowers it.
    """
    cfg = default_config(EXTENDED)
    eps = scalar_eps(DOUBLE)
    n = len(walked)
    zero = np.zeros(n)
    x = [_complex((c.real, zero, c.imag, zero)) for c in walked.T]
    t_hi = t.re.hi + 1j * t.im.hi
    q = term_values(h, t)
    q_hi = term_values(h, t_hi)

    def step(x, resid, active):
        jac = np.empty((n, h.dim, h.dim), dtype=complex)
        rows = jacobian(h, [v.re.hi + 1j * v.im.hi for v in x], t_hi, q_hi)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                jac[:, i, j] = entry
        rhs = np.empty((n, h.dim), dtype=complex)
        for i, r in enumerate(resid):
            rhs[:, i] = r.re.hi + 1j * r.im.hi
        delta = np.zeros((n, h.dim), dtype=complex)
        for k in np.flatnonzero(active):
            delta[k] = _solve_linear(jac[k].tolist(), rhs[k].tolist(), eps)
        return [v - _complex((d.real, 0.0, d.imag, 0.0))
                for v, d in zip(x, delta.T)]

    for it in range(cfg.max_newton_iters + 1):
        resid = evaluate(h, x, t, q, Powers(x))
        norms = _norms(resid, n)
        active = ~(norms <= cfg.newton_tol)
        if not active.any():
            break
        if it == cfg.max_newton_iters:
            raise NoConvergence("refinement budget exhausted")
        x = step(x, resid, active)
    polished = step(x, resid, norms != 0.0)
    keep = _norms(evaluate(h, polished, t, q), n) < norms
    return [_complex(tuple(np.where(keep, a, b)
                           for a, b in zip(_quad(p), _quad(v))))
            for p, v in zip(polished, x)]


def sample_circle(h: Homotopy, base: PathState, step: float, n: int,
                  cfg: TrackerConfig | None = None) -> CircleSamples:
    """Newton-corrected samples x(t0 + step*w^k), k = 0..n-1, for any
    count n >= 1: the pipeline's power-of-two circles and the reference
    tables' 17 and 65 samples all walk here.

    The extended lane corrects every hop in double-double. The double lane
    walks in double and then refines all n samples at once (_refine)."""
    _check_count(n)
    if cfg is None:
        cfg = default_config()
    if not 0.0 < step < math.inf:
        raise InvalidArgument("step must be positive and finite")
    lane_extended = any(is_extended(v) for v in base.x) or is_extended(base.t)
    t0_ext = _as_ext(base.t)
    step_ext = ExtReal.from_value(float(step))
    if lane_extended:
        ext_cfg = default_config(EXTENDED)

        def correct(t, seed):
            return newton_correct(h, t, [_as_ext(v) for v in seed],
                                  ext_cfg).x
    else:
        def correct(t, seed):
            return newton_correct(h, complex(t), seed, cfg).x
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
            value = correct(t0_ext + step_ext * root_of_unity(n, 0), seed)
        else:
            value = _advance_arc(correct, t0_ext, step_ext, n, k, seed)
        if k == n:
            drift = max(abs(complex(a - b))
                        for a, b in zip(value, per_sample[0]))
            if drift > _WRAP_TOL:
                raise BranchJump("circle walk returned on a different branch")
            break
        per_sample.append(value)
        seed = value
    if lane_extended:
        values = [[per_sample[k][i] for k in range(n)] for i in range(h.dim)]
    else:
        t = t0_ext + step_ext * _complex(roots_of_unity(n))
        values = [_from_arrays(_quad(v), True)
                  for v in _refine(h, t, np.array(per_sample, dtype=complex))]
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
