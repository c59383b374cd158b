"""Newton correction and predictor-corrector tracking along real t.

The predictor is zeroth order on purpose: steps adapt by halving on Newton
failure or on a move over half of max(1, |x_i|) (``_jumped``; the unit lets a
path cross x = 0, the circle walk's hops drop it) and by doubling after three
straight successes: enough for the benchmark systems. Failure to advance above
_MIN_STEP is the signal the caller cares about (a singularity is adjacent) and
surfaces as StepUnderflow. The one run setting is the lane's Newton tolerance
(TrackerConfig); the iteration and step budgets below are fixed.

A Newton correction runs at fixed t, so it evaluates the q(t) of every
homotopy term once and shares the powers of each iterate between its
residual and its Jacobian.

Newton runs in double; ``_refine`` alone makes double-double points, by
mixed-precision refinement of k double points at once (Moler, JACM 14,
1967). An extended ``newton_correct`` is a double one lifted as one sample;
a circle lifts all its samples together. Both lanes walk in double:
``demoted`` rounds extended coordinates, ``walk_config`` picks the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidArgument,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)
from .polysys import Homotopy, evaluate, jacobian, term_values
from .scalars import (DOUBLE, EXTENDED, ExtComplex, _complex, _quad,
                      float_magnitude, is_extended, lane, promote, scalar_eps)

# fixed budgets: Newton iterations per correction; the tracker's first
# (and, doubled, largest) step, its smallest step and its step count
_MAX_NEWTON_ITERS = 8
_INITIAL_STEP = 0.05
_MIN_STEP = 1e-8
_MAX_STEPS = 10000
_WALK_GUARD = 0.5  # the largest trusted move, relative (_jumped)


@dataclass
class PathState:
    t: object
    x: list
    residual: float
    newton_iterations: int

    @classmethod
    def from_point(cls, h: Homotopy, t, x, newton_iterations: int = 0):
        """Build a state with the residual recomputed."""
        res = float(_norms(evaluate(h, list(x), t)))
        return cls(t=t, x=list(x), residual=res,
                   newton_iterations=newton_iterations)


@dataclass
class TrackerConfig:
    """Equation i has converged when |h_i| <= newton_tol * sum over its
    terms of |q(t)*P(x)|: relative, so no decision depends on scaling."""

    newton_tol: float = 1e-12

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise InvalidArgument("newton_tol must be positive")


def default_config(precision: str = DOUBLE) -> TrackerConfig:
    if precision == EXTENDED:
        return TrackerConfig(newton_tol=1e-26)
    return TrackerConfig(newton_tol=1e-12)


def walk_config(cfg: TrackerConfig | None) -> TrackerConfig:
    """cfg, or the double default if it is None or below the double floor."""
    if cfg is None or cfg.newton_tol < scalar_eps(DOUBLE):
        return default_config()
    return cfg


def _double(v):
    """v rounded to complex if extended; a native v, real or not, as is."""
    return complex(v) if is_extended(v) else v


def demoted(state: PathState) -> PathState:
    """Extended coordinates rounded to complex; real seeds stay real."""
    return replace(state, x=[_double(v) for v in state.x])


def _norms(values):
    """The residual norm max_i |values_i|, per point on array values."""
    return np.maximum.reduce([float_magnitude(v) for v in values],
                             initial=0.0)


def _jumped(before, after, floor: float = 0.0) -> bool:
    """Moved over _WALK_GUARD times max(floor, |x_i| of both points)."""
    moved = max(float_magnitude(a - b) for a, b in zip(before, after))
    sizes = map(float_magnitude, [*before, *after])
    return moved > _WALK_GUARD * max(floor, *sizes)


def _solve_linear(jac, rhs, eps: float):
    """Partial-pivot elimination on native numbers; one unknown with a
    regular pivot takes the same single division directly. The pivot is the
    first row of largest magnitude."""
    n = len(rhs)
    if n == 1 and 0.0 < abs(jac[0][0]) < np.inf:
        return [rhs[0] / jac[0][0]]
    m = [[*row, b] for row, b in zip(jac, rhs)]
    floor = 1e3 * eps * max((abs(v) for row in jac for v in row),
                            default=0.0)
    for col in range(n):
        piv, largest = col, abs(m[col][col])
        for r in range(col + 1, n):
            size = abs(m[r][col])
            if size > largest:
                piv, largest = r, size
        if largest <= floor:
            raise SingularJacobian("jacobian pivot below the precision floor")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        top = m[col]
        for r in range(col + 1, n):
            row = m[r]
            factor = row[col] / top[col]
            for j in range(col, n + 1):
                row[j] = row[j] - factor * top[j]
    out = [None] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = row[n]
        for j in range(i + 1, n):
            acc = acc - row[j] * out[j]
        out[i] = acc / row[i]
    return out


def _cmul(ar, ai, br, bi):
    """CPython's complex a * b on float64 arrays (numpy's complex product
    may fuse a multiply-add and round differently)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """CPython's complex a / b on float64 arrays, b nonzero: Smith's
    quotient, dividing by denom (numpy's multiplies by a reciprocal)."""
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi, br) / np.where(wide, br, bi)
    denom = np.where(wide, br, bi) + np.where(wide, bi, br) * ratio
    return (np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom)


def _solve_batch(jac, rhs, eps: float):
    """_solve_linear on k double systems at once, jac (k, n, n) and rhs
    (k, n) complex: the same operations in the same order per system, in
    real float64 arithmetic, so every system gets _solve_linear's bits.
    Returns the solutions' real and imaginary parts, each (k, n)."""
    k, n = rhs.shape
    re = np.concatenate((jac.real, rhs.real[:, :, None]), axis=2)
    im = np.concatenate((jac.imag, rhs.imag[:, :, None]), axis=2)
    floor = 1e3 * eps * np.hypot(jac.real, jac.imag).reshape(k, n * n).max(
        axis=1, initial=0.0)
    rows = np.arange(k)
    for col in range(n):
        mag = np.hypot(re[:, col:, col], im[:, col:, col])
        piv = np.argmax(mag, axis=1)
        if np.any(mag[rows, piv] <= floor):
            raise SingularJacobian("jacobian pivot below the precision floor")
        piv += col
        for a in (re, im):
            a[rows, col], a[rows, piv] = a[rows, piv], a[rows, col]
        # every row below the pivot row at once, from column col on
        p_re, p_im = re[:, col:col + 1, col:], im[:, col:col + 1, col:]
        fr, fi = _cdiv(re[:, col + 1:, col:col + 1],
                       im[:, col + 1:, col:col + 1],
                       p_re[:, :, :1], p_im[:, :, :1])
        pr, pi = _cmul(fr, fi, p_re, p_im)
        re[:, col + 1:, col:] -= pr
        im[:, col + 1:, col:] -= pi
    out_re = np.empty((k, n))
    out_im = np.empty((k, n))
    for i in range(n - 1, -1, -1):
        acc_re, acc_im = re[:, i, n], im[:, i, n]
        for j in range(i + 1, n):
            pr, pi = _cmul(re[:, i, j], im[:, i, j],
                           out_re[:, j], out_im[:, j])
            acc_re, acc_im = acc_re - pr, acc_im - pi
        out_re[:, i], out_im[:, i] = _cdiv(acc_re, acc_im, re[:, i, i],
                                           im[:, i, i])
    return out_re, out_im


def _refine(h: Homotopy, t: ExtComplex, walked, cfg: TrackerConfig):
    """Lift k double points, a (k, dim) complex array, to double-double at
    t, one ExtComplex (array parts give each point its own t). Returns one
    array-valued ExtComplex per coordinate and the residual norm per point.

    The residual, q(t) included, is evaluated in double-double at the
    exact t, the correction solved in double with the Jacobian at the hi
    parts (_solve_batch, each point with _solve_linear's bits) and added in
    double-double. The stopping rule is newton_correct's for every point:
    each equation within cfg's relative tolerance, then one more step, kept
    where it lowers the residual (none when every residual is zero).
    """
    tol, eps = cfg.newton_tol, scalar_eps(DOUBLE)
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
        d_re = np.zeros((n, h.dim))
        d_im = np.zeros((n, h.dim))
        d_re[active], d_im[active] = _solve_batch(jac[active], rhs[active],
                                                  eps)
        return [v - _complex((a, 0.0, b, 0.0))
                for v, a, b in zip(x, d_re.T, d_im.T)]

    for it in range(_MAX_NEWTON_ITERS + 1):
        scales = []
        resid = evaluate(h, x, t, q, {}, scales)
        active = ~np.logical_and.reduce([float_magnitude(r) <= tol * s
                                         for r, s in zip(resid, scales)])
        if not active.any():
            break
        if it == _MAX_NEWTON_ITERS:
            raise NoConvergence("refinement budget exhausted")
        x = step(x, resid, active)
    norms = _norms(resid)
    if not norms.any():
        return x, norms
    polished = step(x, resid, norms != 0.0)
    after = _norms(evaluate(h, polished, t, q))
    keep = after < norms
    return ([_complex(tuple(np.where(keep, a, b)
                            for a, b in zip(_quad(p), _quad(v))))
             for p, v in zip(polished, x)], np.where(keep, after, norms))


def newton_correct(h: Homotopy, t, x0, cfg: TrackerConfig,
                   history: list | None = None) -> PathState:
    """Correct x0 to h(x, t) = 0 at fixed t, to cfg's relative tolerance.

    One extra step is taken after the tolerance is met so the result sits at
    the limiting accuracy of the lane, not just inside the tolerance; the
    reported iteration count excludes that polish step. When a list is passed
    as history, every pre-polish iterate is appended to it.

    t is fixed, so every term's q(t) is evaluated once per call, and the
    powers of each iterate are shared by its residual and its Jacobian.
    Newton runs in double, at walk_config(cfg) when t or x0 is extended;
    the double point is then lifted to cfg's tolerance as one sample of
    _refine at the exact t. Iterations and history are the double loop's.
    """
    precision = lane(t, *x0)
    if cfg.newton_tol < scalar_eps(precision):
        raise InvalidArgument("newton_tol below the active precision floor")
    tol = walk_config(cfg).newton_tol
    eps = scalar_eps(DOUBLE)
    t_walk = _double(t)
    x = [_double(v) for v in x0]
    q = term_values(h, t_walk)
    iterations = None
    for it in range(_MAX_NEWTON_ITERS + 1):
        powers = {}
        scales = []
        resid = evaluate(h, x, t_walk, q, powers, scales, abs)
        if all([abs(r) <= tol * s for r, s in zip(resid, scales)]):
            iterations = it
            break
        if it == _MAX_NEWTON_ITERS:
            raise NoConvergence("newton iteration budget exhausted")
        delta = _solve_linear(jacobian(h, x, t_walk, q, powers), resid, eps)
        x = [xi - di for xi, di in zip(x, delta)]
        if history is not None:
            history.append(list(x))
    residual = max(map(abs, resid), default=0.0)
    if residual != 0.0:
        delta = _solve_linear(jacobian(h, x, t_walk, q, powers), resid, eps)
        polished = [xi - di for xi, di in zip(x, delta)]
        after = max(map(abs, evaluate(h, polished, t_walk, q)), default=0.0)
        if after < residual:
            x, residual = polished, after
    if precision == EXTENDED:
        lifted, norms = _refine(h, promote(t, EXTENDED),
                                np.array([x], dtype=complex), cfg)
        x = [_complex([float(p[0]) for p in _quad(v)]) for v in lifted]
        residual = float(norms[0])
    return PathState(t=t, x=x, residual=residual, newton_iterations=iterations)


def track_to(h: Homotopy, start: PathState, t_target: float,
             cfg: TrackerConfig, trace: list | None = None) -> PathState:
    """Continue the path from start to t_target along the real axis."""
    t_cur = start.t
    x = list(start.x)
    if float(abs(t_target - complex(t_cur).real)) == 0.0:
        return PathState.from_point(h, t_cur, x,
                                    newton_iterations=start.newton_iterations)
    step = _INITIAL_STEP
    successes = 0
    taken = 0
    state = start
    while True:
        remaining = t_target - complex(t_cur).real
        if remaining == 0.0:
            return state
        taken += 1
        if taken > _MAX_STEPS:
            raise NoConvergence("step budget exhausted before t_target")
        direction = 1.0 if remaining > 0 else -1.0
        if abs(remaining) <= step:
            t_next = t_cur + remaining
        else:
            t_next = t_cur + direction * step
        try:
            state = newton_correct(h, t_next, x, cfg)
            if _jumped(x, state.x, 1.0):
                raise NoConvergence("step moved too far to trust")
        except (NoConvergence, SingularJacobian):
            successes = 0
            step *= 0.5
            if step < _MIN_STEP:
                raise StepUnderflow("step fell below min_step; "
                                    "singularity adjacent") from None
            continue
        t_cur = state.t
        x = list(state.x)
        if trace is not None:
            trace.append(state)
        successes += 1
        if successes >= 3:
            step = min(2.0 * step, 2.0 * _INITIAL_STEP)
            successes = 0


def estimate_inverse_condition(h: Homotopy, s: PathState) -> float:
    """sigma_min / sigma_max of the Jacobian at the state."""
    jac = jacobian(h, list(s.x), s.t)
    demoted = np.array([[complex(v) for v in row] for row in jac],
                       dtype=complex)
    sigma = np.linalg.svd(demoted, compute_uv=False)
    if sigma[0] == 0.0:
        return 0.0
    return float(sigma[-1] / sigma[0])
