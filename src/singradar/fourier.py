"""Taylor coefficients of a solution path by circle sampling and inverse DFT.

``sample_circle`` is the one circle walk: the pipeline samples through it
at power-of-two counts, and the reference tables at 17 and 65 samples. It
takes any count n >= 1; only ``inverse_dft`` needs a power of two. Samples
walk the circle sequentially, each corrected from its neighbor, so the
whole batch stays on one branch; a hop that moves too far re-walks its arc
in finer substeps, and a wrap-around re-correction, relative to the size of
the first sample, guards the monodromy. The angles t0 + step*w^k are
formed once per circle, as one double-double product over the twiddle
table, and an unsubdivided hop is corrected at its angle rounded to
double: the same bits as the scalar product t0 + step*w^k rounded (a
subdivided hop and the first sample still form theirs one at a time).
A real path is mirrored (Schwarz reflection, x(conj t) = conj x(t)): with
real coefficients (``Homotopy.real_coefficients``), a real centre and base
point and n > 2, samples 0..n//2 are walked and lifted and sample k > n//2
is the conjugate of sample n - k; the wrap check compares the hop at
n//2 + 1 with the conjugate of sample n - n//2 - 1.
Both lanes walk in double, every hop one ``tracker._corrected`` call; the
final circle then lifts its walked samples at once to double-double
(``tracker._refine``). The walk and the lift stop on
residuals relative to each equation's term sizes (TrackerConfig), so a
scaled equation or coordinate walks the same way. Lifted samples are
double-double in either lane, so the exactly representable roots of unity
keep the transform's rounding out of the coefficient error; the pole
sweep's checkpoints read the walked double samples unlifted (``lift=False``).

The transforms run double-double arithmetic element-wise on four float64
arrays (re.hi, re.lo, im.hi, im.lo): an iterative radix-2 kernel (bit-reversal
permutation, then log2(n) vectorised butterfly stages) for power-of-two
lengths, and a direct kernel that loops over samples and vectorises over
coefficients for any length. Twiddles come from ``scalars.roots_of_unity``,
one table per size, built on first use; a subdivided hop reads its single
root from the table of its finer circle (``root_of_unity``). The radix-2
permutation and stage twiddles, in double-double and rounded to complex128,
are likewise built once per size (``_radix2_plan``). The kernels
are the ``scalars`` ones the ExtComplex operators call, so every element
matches what the operators would give, bit for bit. A circle's samples
stay (dim, n) arrays from the walk to the coefficients, transformed in one
pass; a list of complex / ExtComplex values is converted at the edges.

The powers r^k of a radius in double-double come from one shared routine,
``_step_powers``, each power the previous one times r: taylor_coefficients
divides the transform's coefficients by the step's powers, and
``radar.scale_to_unit`` multiplies an extended series by those of |z|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .errors import (BranchJump, InvalidArgument, NoConvergence,
                     SingularJacobian)
from .polysys import Homotopy
from .scalars import (
    EXTENDED,
    ExtReal,
    _complex,
    _dd_quotient,
    _quad,
    cdd_add,
    cdd_mul,
    cdd_sub,
    dd_div,
    dd_mul,
    lane,
    promote,
    root_of_unity,
    roots_of_unity,
)
from .series import TruncatedSeries
from .tracker import (PathState, TrackerConfig, _corrected, _entry, _jumped,
                      _refine, default_config, track_to, walk_config)

# imported after the package's own modules (scalars imports numpy): numpy
# imported before them leaves the process's resident set about 0.6 MB larger
import numpy as np

_WRAP_TOL = 1e-6  # of max |x| over the first sample
_MAX_SUBSTEPS = 64
# the sampling radius as a fraction of the distance to the nearest
# singularity in sight (default_step, radar.detect_last_pole)
_RADIUS_FRACTION = 0.85


@dataclass
class CircleSamples:
    """The samples as (dim, n) float64 parts re.hi, re.lo, im.hi, im.lo, the
    lo parts zero unless lifted; ``values`` lists each coordinate's samples
    as ExtComplex if lifted, else as complex hi + lo (-0.0 reads as 0.0)."""

    t0: object
    h: float
    n: int
    parts: tuple
    lifted: bool

    def __post_init__(self):
        _check_count(self.n)

    def __len__(self) -> int:
        return self.n

    @property
    def values(self) -> list:
        return [_from_arrays(p, self.lifted) for p in zip(*self.parts)]


def _to_arrays(values) -> tuple:
    return tuple(np.array(p) for p in zip(*map(_quad, values)))


def _from_arrays(parts, extended: bool) -> list:
    if extended:
        return [_complex(q) for q in zip(*(p.tolist() for p in parts))]
    return [complex(a, b) for a, b in zip((parts[0] + parts[1]).tolist(),
                                          (parts[2] + parts[3]).tolist())]


def _divide(parts, n: int) -> tuple:
    return (dd_div(parts[0], parts[1], float(n), 0.0)
            + dd_div(parts[2], parts[3], float(n), 0.0))


@functools.lru_cache(maxsize=16)  # as many sizes as roots_of_unity keeps
def _radix2_plan(n: int) -> tuple:
    """The bit-reversal permutation of n and each stage's (half, twiddles
    w^{-j*n/(2*half)}, j < half): the twiddles as roots_of_unity(n)'s four
    parts and, fifth, their hi parts as complex128; all read-only."""
    order = np.zeros(1, dtype=np.intp)
    while len(order) < n:
        order = np.concatenate((2 * order, 2 * order + 1))
    stages = []
    for half in (2 ** s for s in range(n.bit_length() - 1)):
        twiddle = tuple(t[(-(n // (2 * half)) * np.arange(half)) % n]
                        for t in roots_of_unity(n))
        stages.append((half, twiddle + (twiddle[0] + 1j * twiddle[2],)))
    for a in (order, *(p for _, twiddle in stages for p in twiddle)):
        a.flags.writeable = False
    return order, tuple(stages)


def _radix2(parts) -> tuple:
    """sum_j x_j w^{-jk}, w = exp(2*pi*i/n), along the last axis:
    decimation in time, the butterfly even + w^k * odd, even - w^k * odd of
    each stage done at once over all blocks and leading indices."""
    *lead, n = parts[0].shape
    order, stages = _radix2_plan(n)
    x = tuple(p[..., order] for p in parts)
    for half, twiddle in stages:
        size = 2 * half
        blocks = tuple(p.reshape(*lead, -1, size) for p in x)
        even = tuple(b[..., :half] for b in blocks)
        term = cdd_mul(twiddle[:4], tuple(b[..., half:] for b in blocks))
        x = tuple(np.concatenate((top, bottom), axis=-1).reshape(*lead, n)
                  for top, bottom in zip(cdd_add(even, term),
                                         cdd_sub(even, term)))
    return x


def _radix2_double(x):
    """_radix2 of a complex128 array in complex128: the same permutation
    and butterflies, with the twiddles rounded to double."""
    *lead, n = x.shape
    order, stages = _radix2_plan(n)
    x = x[..., order]
    for half, twiddle in stages:
        blocks = x.reshape(*lead, -1, 2 * half)
        even = blocks[..., :half]
        term = twiddle[4] * blocks[..., half:]
        x = np.concatenate((even + term, even - term),
                           axis=-1).reshape(*lead, n)
    return x


def _check_count(n: int):
    if n < 1:
        raise InvalidArgument("need at least one sample")


def _check_length(n: int):
    if n < 1 or n & (n - 1):
        raise InvalidArgument("length must be a power of two")


def _check_step(step, name: str = "step"):
    if not 0.0 < step < math.inf:
        raise InvalidArgument(f"{name} must be positive and finite")


def inverse_dft(values):
    """Coefficients g with values_j = sum_k g_k w^{jk}, w = exp(2*pi*i/n),
    of a list of complex / ExtComplex values, as that type; of CircleSamples,
    as their parts: in double-double if lifted, else in complex128
    (_radix2_double), lo parts zero."""
    n = len(values)
    _check_length(n)
    if isinstance(values, CircleSamples):
        if values.lifted:
            return _divide(_radix2(values.parts), n)
        x = np.empty(values.parts[0].shape, dtype=complex)
        x.real, x.imag = values.parts[0], values.parts[2]
        out = _radix2_double(x)
        zero = np.zeros(out.shape)
        return out.real / n, zero, out.imag / n, zero
    out = _divide(_radix2(_to_arrays(values)), n)
    return _from_arrays(out, lane(*values) == EXTENDED)


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
    return _from_arrays(_divide(acc, m), lane(*values) == EXTENDED)


def default_step(t0) -> float:
    """_RADIUS_FRACTION (0.85) of the distance to t = 1; smaller radii
    drown the high coefficients in rescaled rounding noise, larger ones sit
    too close to the singularity."""
    return _RADIUS_FRACTION * abs(1.0 - complex(t0))


def _advance_arc(h, tol, t0_ext, step_ext, n, k, seed, t_hop):
    """Sample at angle k/n starting from the accepted sample at (k-1)/n,
    by _corrected to tol; t_hop is that sample's t, in double.

    A hop that moves the point by more than half its own scale cannot be
    trusted as a Newton seed (the corrector may land on another branch or
    run out of iterations), so the arc is re-walked with doubled substep
    counts until every hop is tame; so is a hop whose Newton correction
    meets a singular Jacobian on the way."""
    m = 1
    while True:
        walk = seed
        try:
            for j in range(1, m + 1):
                t_sub = t_hop if m == 1 else complex(
                    t0_ext + step_ext * root_of_unity(n * m, (k - 1) * m + j))
                value = _corrected(h, t_sub, walk, tol).x
                if _jumped(walk, value):
                    raise NoConvergence("hop moved too far to trust")
                walk = value
            return value
        except (NoConvergence, SingularJacobian):
            m *= 2
            if m > _MAX_SUBSTEPS:
                raise BranchJump(
                    "sampling hops kept jumping at the finest subdivision")


def sample_circle(h: Homotopy, base: PathState, step: float, n: int,
                  cfg: TrackerConfig | None = None,
                  lift: bool = True) -> CircleSamples:
    """Newton-corrected samples x(t0 + step*w^k), k = 0..n-1, for any count
    n >= 1: the pipeline's power-of-two circles and the reference tables'
    17 and 65 samples all walk here.

    Both lanes walk in double from the base point rounded to double, at
    walk_config(cfg), read once (tracker._entry: a cfg below the base's lane
    floor is an InvalidArgument); with lift, the walked samples are then
    lifted at once to double-double (_refine, at the extended default
    tolerance), else the parts hold the walk's doubles.

    A real circle (module docstring) walks k = 1..n//2 + 1 and lifts
    samples 0..n//2; sample n/2 of an even n keeps its real part, and the
    hop at n//2 + 1 must lie within _WRAP_TOL of the conjugate of sample
    n - n//2 - 1, as a full walk's last hop must of sample 0."""
    _check_count(n)
    _check_step(step)
    *_, seed, tol = _entry(h, cfg, base.t, base.x)
    cfg = walk_config(cfg)
    t0_ext = promote(base.t, EXTENDED)
    step_ext = ExtReal.from_value(float(step))
    t0_c = complex(base.t)
    mirror = (h.real_coefficients and t0_c.imag == 0.0 and n > 2
              and not any(complex(v).imag for v in seed))
    if t0_c.imag == 0.0:
        # reach the first sample by continuation; one Newton leap from the
        # center is not reliable for systems with high-degree monomials
        seed = track_to(h, replace(base, t=t0_c.real, x=seed),
                        t0_c.real + float(step), cfg).x
    seed = [complex(v) for v in seed]
    count = n // 2 + 1 if mirror else n  # samples walked and lifted
    t = t0_ext + step_ext * _complex(roots_of_unity(n))
    hops = _from_arrays(_quad(t), False)
    walk = [_corrected(h, complex(t0_ext + step_ext), seed, tol).x]
    for k in range(1, count + 1):
        walk.append(_advance_arc(h, tol, t0_ext, step_ext, n, k, walk[-1],
                                 hops[k % n]))
    back = [v.conjugate() for v in walk[n - count]] if mirror else walk[0]
    drift = max(abs(a - b) for a, b in zip(walk.pop(), back))
    if drift > _WRAP_TOL * max(abs(v) for v in walk[0]):
        raise BranchJump("circle walk returned on a different branch")
    walked = np.array(walk, dtype=complex)
    if lift:
        t = _complex(tuple(p[:count] for p in _quad(t)))
        parts = _to_arrays(_refine(h, t, walked, default_config(EXTENDED))[0])
    else:
        zero = np.zeros((h.dim, count))
        parts = walked.real.T, zero, walked.imag.T, zero
    if mirror:  # sample k > n//2 is the conjugate of sample n - k
        tail = slice(n - count, 0, -1)
        parts = tuple(np.concatenate((p, sign * p[:, tail]), axis=1)
                      for sign, p in zip((1.0, 1.0, -1.0, -1.0), parts))
        if n % 2 == 0:  # sample n/2 is at the real t0 - step
            parts[2][:, n // 2] = parts[3][:, n // 2] = 0.0
    return CircleSamples(t0=base.t, h=float(step), n=n, parts=parts,
                         lifted=lift)


def _step_powers(hi: float, lo: float, n: int, name: str = "step",
                 unit: str = "samples") -> tuple:
    """r^k in double-double for r = hi + lo, k = 0..n-1 (n >= 1), as hi and
    lo arrays: r^0 = 1, r^1 = r and each next power the previous one times
    r through dd_mul, as ExtReal multiplication rounds it. A power that
    underflows to zero is an argument error (_too_small) in the caller's
    name and unit: taylor_coefficients' step and samples (lo = 0), or
    radar.scale_to_unit's radius and coefficients."""
    p_hi = np.empty(n)
    p_lo = np.empty(n)
    p_hi[0], p_lo[0] = 1.0, 0.0
    power = (hi, lo)
    for k in range(1, n):
        p_hi[k], p_lo[k] = power
        power = dd_mul(*power, hi, lo)
    if not p_hi.all():
        _too_small(name, hi + lo, n, unit,
                   int(np.flatnonzero(p_hi == 0.0)[0]))
    return p_hi, p_lo


def _too_small(name: str, value: float, n: int, unit: str, k: int):
    """Raise the underflow error: value's power k, the first to round to
    zero, leaves it too small for n samples or coefficients."""
    raise InvalidArgument(f"{name} {value!r} is too small for {n} {unit}: "
                          f"{name}**{k} underflows to zero")


def taylor_coefficients(h: Homotopy, base: PathState, step: float | None,
                        n: int, cfg: TrackerConfig | None = None,
                        lift: bool = True) -> list:
    """One TruncatedSeries per coordinate, truncation order n - 1, in base's
    lane (lift as in sample_circle); a count n that is not a power of two,
    or a step whose power step^(n-1) underflows to zero, is an
    InvalidArgument, raised before the walk. An extended base only carries
    the lane: the samples never read its lo parts, and the pipeline's base
    is an exact promoted double point."""
    if step is None:
        step = default_step(base.t)
    _check_length(n)
    _check_step(step)
    p_hi, p_lo = _step_powers(float(step), 0.0, n)
    re_hi, re_lo, im_hi, im_lo = inverse_dft(
        sample_circle(h, base, step, n, cfg, lift))
    scaled = (_dd_quotient(re_hi, re_lo, p_hi, p_lo)
              + _dd_quotient(im_hi, im_lo, p_hi, p_lo))
    lane_extended = lane(base.t, *base.x) == EXTENDED
    return [TruncatedSeries(_from_arrays(coord, lane_extended), order=n - 1)
            for coord in zip(*scaled)]
