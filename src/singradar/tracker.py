"""Newton correction and predictor-corrector tracking along real t.

The predictor is zeroth order on purpose: steps adapt by halving on Newton
failure or on a move over half of max(1, |x_i|) (``_jumped``; the unit lets a
path cross x = 0, the circle walk's hops drop it) and by doubling after three
straight successes: enough for the benchmark systems. Failure to advance above
_MIN_STEP is the signal the caller cares about (a singularity is adjacent) and
surfaces as StepUnderflow. The one run setting is the lane's Newton tolerance
(TrackerConfig); the iteration and step budgets below are fixed.

A Newton correction runs at fixed t, so it evaluates the q(t) of every
homotopy term once. Its double loop is the homotopy's generated corrector
program (``polysys._programs``); the elimination is ``polysys._solver``'s.

Newton runs in double; ``_refine`` alone makes double-double points, by
mixed-precision refinement of k double points at once (Moler, JACM 14,
1967): one for an extended ``newton_correct``, all rows of an extended
track, all samples of a circle. Residuals are evaluated for all k points
at once, and each point's correction is solved by ``_solve_linear``, the
one elimination: a lifted point gets the bits of its own one-point lift.
Both lanes walk and track in double, so the lane moves no step:
``demoted`` rounds extended coordinates, ``walk_config`` the tolerance.
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
from .polysys import Homotopy, _solver, evaluate, jacobian, term_values
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
    first row of largest magnitude. Runs _solver's program for len(rhs)."""
    return _solver(len(rhs))(jac, rhs, eps)


def _refine(h: Homotopy, t: ExtComplex, walked, cfg: TrackerConfig):
    """Lift k double points, a (k, dim) complex array, to double-double at
    t, one ExtComplex (array parts give each point its own t). Returns one
    array-valued ExtComplex per coordinate and the residual norm per point.

    The residual, q(t) included, is evaluated in double-double at the
    exact t for all points at once; each point's correction is solved in
    double by _solve_linear, with the Jacobian at its hi parts, and added
    in double-double. The stopping rule is newton_correct's for every point:
    each equation within cfg's relative tolerance, then one more step, kept
    where it lowers the residual (none when every residual is zero); a size
    that is not finite raises NoConvergence for the batch.
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
        delta = np.zeros((h.dim, n), dtype=complex)
        for p in np.flatnonzero(active):
            delta[:, p] = _solve_linear(jac[p].tolist(), rhs[p].tolist(), eps)
        return [v - _complex((d.real, 0.0, d.imag, 0.0))
                for v, d in zip(x, delta)]

    for it in range(_MAX_NEWTON_ITERS + 1):
        scales = []
        resid = evaluate(h, x, t, q, scales)
        if not np.isfinite(scales).all():
            raise NoConvergence("newton iterate overflows the homotopy")
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


def _lifts(cfg: TrackerConfig, t, x) -> bool:
    """Whether t or x is extended; cfg must not be below that lane's floor."""
    precision = lane(t, *x)
    if cfg.newton_tol < scalar_eps(precision):
        raise InvalidArgument("newton_tol below the active precision floor")
    return precision == EXTENDED


def _lifted(h: Homotopy, states: list, cfg: TrackerConfig) -> list:
    """The states' double points lifted in one _refine, each at its exact t."""
    t = _complex(np.array([_quad(promote(s.t, EXTENDED)) for s in states]).T)
    walked = np.array([s.x for s in states], dtype=complex)
    lifted, norms = _refine(h, t, walked, cfg)
    return [replace(s, residual=float(norms[p]), x=[
        _complex([float(part[p]) for part in _quad(v)]) for v in lifted])
        for p, s in enumerate(states)]


def newton_correct(h: Homotopy, t, x0, cfg: TrackerConfig,
                   history: list | None = None) -> PathState:
    """Correct x0 to h(x, t) = 0 at fixed t, to cfg's relative tolerance.

    One extra step is taken after the tolerance is met so the result sits at
    the limiting accuracy of the lane, not just inside the tolerance; the
    reported iteration count excludes that polish step. When a list is passed
    as history, every pre-polish iterate is appended to it.

    t is fixed, so every term's q(t) is evaluated once per call, and the
    loop is one call of h's corrector program. Newton runs in double, at
    walk_config(cfg) when t or x0 is extended; the double point is then
    lifted to cfg's tolerance at the exact t by _lifted, as a track's rows
    are. Iterations and history are the double loop's. An iterate at which
    the homotopy overflows, or an equation's size sum_terms |q(t)*P(x)| is
    not finite, raises NoConvergence.
    """
    lift = _lifts(cfg, t, x0)
    if len(x0) != h.dim:
        raise InvalidArgument("point dimension mismatch")
    t_walk = _double(t)
    q = term_values(h, t_walk)
    try:
        x, residual, iterations = h._correct(
            [_double(v) for v in x0], q, walk_config(cfg).newton_tol,
            scalar_eps(DOUBLE), _MAX_NEWTON_ITERS, history)
    except OverflowError:  # an iterate too large for the homotopy
        raise NoConvergence("newton iterate overflows the homotopy") from None
    state = PathState(t, x, residual, newton_iterations=iterations)
    return _lifted(h, [state], cfg)[0] if lift else state


def track_to(h: Homotopy, start: PathState, t_target: float,
             cfg: TrackerConfig, trace: list | None = None) -> PathState:
    """Continue the path from start to t_target along the real axis, in
    double from the demoted start in both lanes. From an extended start the
    accepted rows, also those before a StepUnderflow or NoConvergence, are
    then lifted at once (_lifted); a row that does not lift ends the trace
    before it, and its error ends the call."""
    if not np.isfinite(t_target):
        raise InvalidArgument("t_target must be finite")
    if float(abs(t_target - complex(start.t).real)) == 0.0:
        return PathState.from_point(h, start.t, list(start.x),
                                    newton_iterations=start.newton_iterations)
    lift = _lifts(cfg, start.t, start.x)
    t_cur, x = _double(start.t), [_double(v) for v in start.x]
    step, successes, taken, rows, failure = _INITIAL_STEP, 0, 0, [], None
    try:
        while (remaining := t_target - complex(t_cur).real) != 0.0:
            taken += 1
            if taken > _MAX_STEPS:
                raise NoConvergence("step budget exhausted before t_target")
            t_next = t_cur + (remaining if abs(remaining) <= step
                              else step if remaining > 0 else -step)
            try:
                state = newton_correct(h, t_next, x, walk_config(cfg))
                if _jumped(x, state.x, 1.0):
                    raise NoConvergence("step moved too far to trust")
            except (NoConvergence, SingularJacobian):
                successes = 0
                step *= 0.5
                if step < _MIN_STEP:
                    raise StepUnderflow("step fell below min_step; "
                                        "singularity adjacent") from None
                continue
            t_cur, x = state.t, state.x
            rows.append(state)
            successes += 1
            if successes >= 3:
                step = min(2.0 * step, 2.0 * _INITIAL_STEP)
                successes = 0
    except (StepUnderflow, NoConvergence) as exc:
        failure = exc
    while lift and rows:
        try:
            rows = _lifted(h, rows, cfg)
            break
        except (NoConvergence, SingularJacobian) as exc:
            rows, failure = rows[:-1], exc
    if trace is not None:
        trace.extend(rows)
    if failure is not None:
        raise failure
    return rows[-1]


def estimate_inverse_condition(h: Homotopy, s: PathState) -> float:
    """sigma_min / sigma_max of the Jacobian at the state."""
    return inverse_conditions(h, [s])[0]


def inverse_conditions(h: Homotopy, states: list) -> list:
    """estimate_inverse_condition of every state, from one stacked SVD.
    Extended states share one Jacobian evaluation over array-part values,
    each with the q(t) of term_values at its t (q times an exponent, which
    a state's own evaluation rounds for a double q, is exact here)."""
    jac = np.zeros((len(states), h.dim, h.dim), dtype=complex)
    if lane(*(v for s in states for v in s.x)) == EXTENDED:
        x = [_complex(np.array([_quad(v) for v in column]).T)
             for column in zip(*(s.x for s in states))]
        qs = [term_values(h, s.t) for s in states]
        q = [[_complex(np.array([_quad(row[i][k]) for row in qs]).T)
              for k in range(len(eq))] for i, eq in enumerate(h.equations)]
        for i, row in enumerate(jacobian(h, x, None, q)):
            for j, v in enumerate(row):
                if is_extended(v):
                    jac[:, i, j].real = v.re.hi + v.re.lo
                    jac[:, i, j].imag = v.im.hi + v.im.lo
    else:
        for p, s in enumerate(states):
            jac[p] = jacobian(h, list(s.x), s.t)
    sigma = np.linalg.svd(jac, compute_uv=False)
    return [0.0 if v[0] == 0.0 else float(v[-1] / v[0]) for v in sigma]
