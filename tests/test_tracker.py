"""Newton correction and path tracking on the benchmark fixtures."""

import math

import pytest

from singradar.errors import (
    InvalidArgument,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)
from singradar.polysys import (
    Homotopy,
    Monomial,
    PolySystem,
    TMonomial,
    fixture,
    make_gamma_homotopy,
)
from singradar.scalars import EXTENDED, ExtReal, promote
from singradar.tracker import (
    PathState,
    TrackerConfig,
    default_config,
    estimate_inverse_condition,
    newton_correct,
    track_to,
)

OJIKA1_T0 = 0.955647336181678
OJIKA1_X = (1.17998166418735 + 0.0181391513338172j,
            1.60871001974391 - 0.0423866308603763j)


def branch_point_homotopy():
    # x^2 + t - 0.5 = 0: the two real roots collide at t = 0.5 and leave the
    # real axis, so real Newton iterates can never follow the path beyond it
    teqs = [[TMonomial((1.0,), (2,)), TMonomial((-0.5, 1.0), (0,))]]
    return Homotopy(dim=1, gamma=1.0, equations=teqs)


def explicit_system_homotopy(equations, dim):
    teqs = [[TMonomial((complex(m.coefficient),), tuple(m.exponents))
             for m in eq] for eq in equations]
    return Homotopy(dim=dim, gamma=1.0, equations=teqs)


# ---------------------------------------------------------------------------
# newton_correct
# ---------------------------------------------------------------------------

def test_newton_sqrt_root():
    s = newton_correct(fixture("sqrt"), 0.0, [1.1], default_config())
    assert abs(s.x[0] - 1.0) <= 1e-14
    assert s.residual <= 1e-12
    assert s.newton_iterations >= 1


def test_newton_fixed_point_zero_iterations():
    f = PolySystem(1, [[Monomial(1.0, (2,)), Monomial(-1.0, (0,))]])
    h = make_gamma_homotopy(f, f, 1.0)
    s = newton_correct(h, 0.37, [1.0], default_config())
    assert s.newton_iterations == 0
    assert s.residual == 0.0
    assert s.x[0] == 1.0


def test_newton_runs_out_of_iterations():
    with pytest.raises(NoConvergence):
        newton_correct(fixture("sqrt"), 0.0, [100.0], default_config())


def test_newton_singular_jacobian():
    # x = 0 is a critical point of x^2 - 1 + t but not a root
    with pytest.raises(SingularJacobian):
        newton_correct(fixture("sqrt"), 0.0, [0.0], default_config())


def test_newton_tolerance_floor_guard():
    with pytest.raises(InvalidArgument):
        newton_correct(fixture("sqrt"), 0.0, [1.1], default_config(EXTENDED))


def test_newton_quadratic_tail():
    h = fixture("ojika1")
    cfg = default_config()
    base = track_to(h, PathState.from_point(h, 0.0, [1.0, 1.0]), 0.3, cfg)
    xstar = base.x
    hist = []
    newton_correct(h, 0.3, [xstar[0] + 1e-3, xstar[1] - 1e-3j], cfg,
                   history=hist)
    errs = [1e-3] + [max(abs(a - b) for a, b in zip(p, xstar)) for p in hist]
    assert len(errs) >= 3
    for k in range(len(errs) - 1):
        if errs[k + 1] > 1e-14:
            assert errs[k + 1] <= 100.0 * errs[k] ** 2


def test_newton_extended_lane():
    h = fixture("sqrt")
    s = newton_correct(h, promote(0.5, EXTENDED), [promote(1.0, EXTENDED)],
                       default_config(EXTENDED))
    assert s.residual <= 1e-26
    target = ExtReal.from_value(0.5).sqrt()
    assert abs(float((s.x[0].re - target).hi)) <= 1e-29
    assert abs(float(s.x[0].im)) <= 1e-29


# ---------------------------------------------------------------------------
# track_to
# ---------------------------------------------------------------------------

def test_track_sqrt_midpoint():
    h = fixture("sqrt")
    out = track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.5,
                   default_config())
    assert abs(out.x[0] - math.sqrt(0.5)) <= 1e-12


def test_track_cusp():
    h = fixture("cusp")
    out = track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.9,
                   default_config())
    assert abs(out.x[0] - 0.01) <= 1e-10


def test_track_ojika1_stays_regular():
    h = fixture("ojika1")
    out = track_to(h, PathState.from_point(h, 0.0, [1.0, 1.0]), 0.9,
                   default_config())
    assert out.residual <= 1e-12
    assert estimate_inverse_condition(h, out) > 1e-6


def test_track_ojika1_pinned_coordinates():
    h = fixture("ojika1")
    out = track_to(h, PathState.from_point(h, 0.0, [1.0, 1.0]), OJIKA1_T0,
                   default_config())
    assert abs(out.x[0] - OJIKA1_X[0]) <= 1e-12
    assert abs(out.x[1] - OJIKA1_X[1]) <= 1e-12


def test_track_near_singular_endpoint():
    h = fixture("sqrt")
    out = track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.99,
                   default_config())
    assert abs(out.x[0] - 0.1) <= 1e-10


def test_track_step_size_invariance():
    for name, t_end in (("sqrt", 0.5), ("cusp", 0.5), ("ojika1", 0.5)):
        h = fixture(name)
        dim = h.dim
        start = PathState.from_point(h, 0.0, [1.0] * dim)
        a = track_to(h, start, t_end, TrackerConfig(initial_step=0.05))
        b = track_to(h, start, t_end, TrackerConfig(initial_step=0.025))
        assert max(abs(p - q) for p, q in zip(a.x, b.x)) < 1e-10


def test_track_backwards():
    h = fixture("sqrt")
    mid = track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.5,
                   default_config())
    back = track_to(h, mid, 0.2, default_config())
    assert abs(back.x[0] - math.sqrt(0.8)) <= 1e-12


def test_track_branch_point_underflow():
    h = branch_point_homotopy()
    start = PathState.from_point(h, 0.0, [math.sqrt(0.5)])
    with pytest.raises(StepUnderflow):
        track_to(h, start, 1.0, default_config())
    partial = track_to(h, start, 0.4, default_config())
    assert abs(partial.x[0] - math.sqrt(0.1)) <= 1e-12


def test_track_step_budget():
    h = fixture("sqrt")
    with pytest.raises(NoConvergence):
        track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.9,
                 TrackerConfig(max_steps=3))


def test_track_trace_rows():
    h = fixture("sqrt")
    rows = []
    out = track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.5,
                   default_config(), trace=rows)
    assert rows
    ts = [complex(r.t).real for r in rows]
    assert ts == sorted(ts)
    assert ts[-1] == 0.5
    assert rows[-1].x == out.x
    assert all(r.residual <= 1e-12 for r in rows)


# ---------------------------------------------------------------------------
# conditioning and state plumbing
# ---------------------------------------------------------------------------

def test_inverse_condition_identity_jacobian():
    h = explicit_system_homotopy([[Monomial(1.0, (1, 0))],
                                  [Monomial(1.0, (0, 1))]], 2)
    s = PathState.from_point(h, 0.0, [0.0, 0.0])
    assert estimate_inverse_condition(h, s) == 1.0


def test_inverse_condition_diagonal_system():
    h = explicit_system_homotopy([[Monomial(1.0, (1, 0))],
                                  [Monomial(1e-6, (0, 1))]], 2)
    s = PathState.from_point(h, 0.0, [0.0, 0.0])
    est = estimate_inverse_condition(h, s)
    assert 0.5e-6 <= est <= 2e-6


def test_inverse_condition_ojika1():
    h = fixture("ojika1")
    out = track_to(h, PathState.from_point(h, 0.0, [1.0, 1.0]), OJIKA1_T0,
                   default_config())
    est = estimate_inverse_condition(h, out)
    assert 8.9e-4 <= est <= 8.9e-2


def test_state_recomputes_residual():
    h = fixture("sqrt")
    s = PathState.from_point(h, 0.0, [2.0])
    assert abs(s.residual - 3.0) <= 1e-15
    # newton_correct reports the residual of the point it returns, whether
    # or not the polish step was kept
    for name, t, x0, lane in (("sqrt", 0.5, [0.7], None),
                              ("sqrt", 0.0, [1.0], None),
                              ("ojika1", 0.5, [1.1, 1.3], None),
                              ("ojika1", 0.9, [1.2, 1.5], None),
                              ("sqrt", 0.5, [0.7], EXTENDED)):
        h = fixture(name)
        cfg = default_config() if lane is None else default_config(lane)
        if lane is not None:
            x0 = [promote(v, lane) for v in x0]
        out = newton_correct(h, t, x0, cfg)
        assert out.residual == PathState.from_point(h, t, out.x).residual


def test_config_rejects_nonpositive_values():
    with pytest.raises(InvalidArgument):
        TrackerConfig(newton_tol=0.0)
    with pytest.raises(InvalidArgument):
        TrackerConfig(min_step=-1.0)
