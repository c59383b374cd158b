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

One loop corrects in both lanes (``newton_correct`` on ``evaluate``,
``jacobian`` and ``_solve_linear``). Only its magnitude is lane-dependent:
``abs`` on native values, ``float_magnitude`` on extended ones, picked once
per correction; the two agree on native numbers, so the choice moves no bit.
Both lanes walk in double: ``demoted`` rounds a start's extended coordinates
and ``walk_config`` picks the double tolerance.
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
from .scalars import (DOUBLE, EXTENDED, float_magnitude, is_extended, lane,
                      scalar_eps)

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
        res = _residual_norm(evaluate(h, list(x), t))
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


def demoted(state: PathState) -> PathState:
    """Extended coordinates rounded to complex; real seeds stay real."""
    return replace(state, x=[complex(v) if is_extended(v) else v
                             for v in state.x])


def _residual_norm(values) -> float:
    return max((float_magnitude(v) for v in values), default=0.0)


def _within(resid, scales, tol: float) -> list:
    """Per equation, |h_i| <= tol * scale_i (element-wise on arrays)."""
    return [float_magnitude(r) <= tol * s for r, s in zip(resid, scales)]


def _jumped(before, after, floor: float = 0.0) -> bool:
    """Moved over _WALK_GUARD times max(floor, |x_i| of both points)."""
    moved = max(float_magnitude(a - b) for a, b in zip(before, after))
    sizes = map(float_magnitude, [*before, *after])
    return moved > _WALK_GUARD * max(floor, *sizes)


def _solve_linear(jac, rhs, eps: float, mag=float_magnitude):
    """Partial-pivot elimination, generic over the scalar lane; one unknown
    with a regular pivot takes the same single division directly. mag is
    |.| (abs when every entry is native); the pivot is the first row of
    largest magnitude."""
    n = len(rhs)
    if n == 1 and 0.0 < mag(jac[0][0]) < np.inf:
        return [rhs[0] / jac[0][0]]
    m = [[*row, b] for row, b in zip(jac, rhs)]
    floor = 1e3 * eps * max((mag(v) for row in jac for v in row),
                            default=0.0)
    for col in range(n):
        piv, largest = col, mag(m[col][col])
        for r in range(col + 1, n):
            size = mag(m[r][col])
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


def newton_correct(h: Homotopy, t, x0, cfg: TrackerConfig,
                   history: list | None = None) -> PathState:
    """Correct x0 to h(x, t) = 0 at fixed t, to cfg's relative tolerance.

    One extra step is taken after the tolerance is met so the result sits at
    the limiting accuracy of the lane, not just inside the tolerance; the
    reported iteration count excludes that polish step. When a list is passed
    as history, every pre-polish iterate is appended to it.

    t is fixed, so every term's q(t) is evaluated once per call, and the
    powers of each iterate are shared by its residual and its Jacobian.
    Magnitudes are abs in the double lane and float_magnitude in the
    extended one (module docstring).
    """
    x = list(x0)
    precision = lane(t, *x)
    eps = scalar_eps(precision)
    tol = cfg.newton_tol
    if tol < eps:
        raise InvalidArgument("newton_tol below the active precision floor")
    mag = abs if precision == DOUBLE else float_magnitude
    q = term_values(h, t)
    iterations = None
    for it in range(_MAX_NEWTON_ITERS + 1):
        powers = {}
        scales = []
        resid = evaluate(h, x, t, q, powers, scales, mag)
        if all([mag(r) <= tol * s for r, s in zip(resid, scales)]):
            iterations = it
            break
        if it == _MAX_NEWTON_ITERS:
            raise NoConvergence("newton iteration budget exhausted")
        delta = _solve_linear(jacobian(h, x, t, q, powers), resid, eps, mag)
        x = [xi - di for xi, di in zip(x, delta)]
        if history is not None:
            history.append(list(x))
    residual = max(map(mag, resid), default=0.0)
    if residual != 0.0:
        delta = _solve_linear(jacobian(h, x, t, q, powers), resid, eps, mag)
        polished = [xi - di for xi, di in zip(x, delta)]
        after = max(map(mag, evaluate(h, polished, t, q)), default=0.0)
        if after < residual:
            x, residual = polished, after
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
