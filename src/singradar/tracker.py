"""Newton correction and predictor-corrector tracking along real t.

The predictor is zeroth order on purpose: steps adapt by halving on Newton
failure and doubling after three straight successes, which is all the
benchmark systems need. Failure to advance above min_step is the signal the
caller cares about (a singularity is adjacent) and surfaces as StepUnderflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgument,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)
from .polysys import Homotopy, evaluate, jacobian
from .scalars import DOUBLE, EXTENDED, float_magnitude, is_extended, scalar_eps


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
    newton_tol: float = 1e-12
    max_newton_iters: int = 8
    initial_step: float = 0.05
    min_step: float = 1e-8
    max_steps: int = 10000

    def __post_init__(self):
        if not (self.newton_tol > 0 and self.initial_step > 0
                and self.min_step > 0 and self.max_newton_iters > 0
                and self.max_steps > 0):
            raise InvalidArgument("tracker settings must be positive")


def default_config(precision: str = DOUBLE) -> TrackerConfig:
    if precision == EXTENDED:
        return TrackerConfig(newton_tol=1e-26)
    return TrackerConfig(newton_tol=1e-12)


def _residual_norm(values) -> float:
    return max((float_magnitude(v) for v in values), default=0.0)


def _lane(x, t) -> str:
    if is_extended(t) or any(is_extended(v) for v in x):
        return EXTENDED
    return DOUBLE


def _inverse_condition(jac) -> float:
    n = len(jac)
    demoted = np.array([[complex(jac[i][j]) for j in range(n)]
                        for i in range(n)], dtype=complex)
    sigma = np.linalg.svd(demoted, compute_uv=False)
    if sigma[0] == 0.0:
        return 0.0
    return float(sigma[-1] / sigma[0])


def _solve_linear(jac, rhs, eps: float):
    """Partial-pivot elimination, generic over the scalar lane."""
    n = len(rhs)
    m = [list(jac[i]) + [rhs[i]] for i in range(n)]
    norm = max((float_magnitude(m[i][j]) for i in range(n) for j in range(n)),
               default=0.0)
    floor = 1e3 * eps * norm
    for col in range(n):
        piv = max(range(col, n), key=lambda r: float_magnitude(m[r][col]))
        if float_magnitude(m[piv][col]) <= floor:
            raise SingularJacobian("jacobian pivot below the precision floor")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for j in range(col, n + 1):
                m[r][j] = m[r][j] - factor * m[col][j]
    out = [None] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc = acc - m[i][j] * out[j]
        out[i] = acc / m[i][i]
    return out


def newton_correct(h: Homotopy, t, x0, cfg: TrackerConfig,
                   history: list | None = None) -> PathState:
    """Correct x0 to a solution of h(x, t) = 0 at fixed t.

    One extra step is taken after the tolerance is met so the result sits at
    the limiting accuracy of the lane, not just inside the tolerance; the
    reported iteration count excludes that polish step. When a list is passed
    as history, every pre-polish iterate is appended to it.
    """
    x = list(x0)
    eps = scalar_eps(_lane(x, t))
    if cfg.newton_tol < eps:
        raise InvalidArgument("newton_tol below the active precision floor")
    iterations = None
    for it in range(cfg.max_newton_iters + 1):
        resid = evaluate(h, x, t)
        if _residual_norm(resid) <= cfg.newton_tol:
            iterations = it
            break
        if it == cfg.max_newton_iters:
            raise NoConvergence("newton iteration budget exhausted")
        delta = _solve_linear(jacobian(h, x, t), resid, eps)
        x = [xi - di for xi, di in zip(x, delta)]
        if history is not None:
            history.append(list(x))
    residual = _residual_norm(resid)
    if residual != 0.0:
        delta = _solve_linear(jacobian(h, x, t), resid, eps)
        polished = [xi - di for xi, di in zip(x, delta)]
        after = _residual_norm(evaluate(h, polished, t))
        if after < residual:
            x, residual = polished, after
    return PathState(t=t, x=x, residual=residual,
                     newton_iterations=iterations)


def track_to(h: Homotopy, start: PathState, t_target: float,
             cfg: TrackerConfig, trace: list | None = None) -> PathState:
    """Continue the path from start to t_target along the real axis."""
    t_cur = start.t
    x = list(start.x)
    if float(abs(t_target - complex(t_cur).real)) == 0.0:
        return PathState.from_point(h, t_cur, x,
                                    newton_iterations=start.newton_iterations)
    step = cfg.initial_step
    successes = 0
    taken = 0
    state = start
    while True:
        remaining = t_target - complex(t_cur).real
        if remaining == 0.0:
            return state
        taken += 1
        if taken > cfg.max_steps:
            raise NoConvergence("step budget exhausted before t_target")
        direction = 1.0 if remaining > 0 else -1.0
        if abs(remaining) <= step:
            t_next = t_cur + remaining
        else:
            t_next = t_cur + direction * step
        try:
            state = newton_correct(h, t_next, x, cfg)
        except (NoConvergence, SingularJacobian):
            successes = 0
            step *= 0.5
            if step < cfg.min_step:
                raise StepUnderflow("step fell below min_step; "
                                    "singularity adjacent") from None
            continue
        t_cur = state.t
        x = list(state.x)
        if trace is not None:
            trace.append(state)
        successes += 1
        if successes >= 3:
            step = min(2.0 * step, 2.0 * cfg.initial_step)
            successes = 0


def estimate_inverse_condition(h: Homotopy, s: PathState) -> float:
    """sigma_min / sigma_max of the Jacobian at the state."""
    return _inverse_condition(jacobian(h, list(s.x), s.t))
