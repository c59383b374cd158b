"""Newton correction and path tracking on the benchmark fixtures."""

import math

import numpy as np
import pytest

from singradar import tracker
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
from singradar.scalars import DOUBLE, EXTENDED, ExtReal, promote, scalar_eps
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
# batched elimination
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_solve_batch_bit_identical_to_solve_linear(dim):
    # seeded complex systems with entries over twelve decades; every
    # solution is compared byte for byte (signs of zero too) with the
    # scalar elimination of the same system
    rng = np.random.default_rng(dim)
    k = 200
    shape = (k, dim, dim)
    jac = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
           * 10.0 ** rng.uniform(-6.0, 6.0, shape))
    jac[::3, :, 0] *= 1j  # purely imaginary or real leading columns
    if dim > 1:
        jac[::5, 0, 0] = 0.0  # a zero leading pivot forces a swap
    rhs = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    rhs[::7, 0] = -0.0
    eps = scalar_eps(DOUBLE)
    re, im = tracker._solve_batch(jac, rhs, eps)
    for s in range(k):
        want = tracker._solve_linear(jac[s].tolist(), rhs[s].tolist(), eps)
        assert np.array([w.real for w in want]).tobytes() == re[s].tobytes()
        assert np.array([w.imag for w in want]).tobytes() == im[s].tobytes()
    if dim > 1:
        # partial pivoting swapped rows in part of the batch
        swapped = np.argmax(np.abs(jac[:, :, 0]), axis=1) != 0
        assert 0 < swapped.sum() < k


def test_solve_batch_raises_on_a_pivot_below_the_floor():
    jac = np.array([[[2.0, 1.0], [1.0, 3.0]],
                    [[1.0, 2.0], [2.0, 4.0 + 1e-15]]], dtype=complex)
    rhs = np.ones((2, 2), dtype=complex)
    eps = scalar_eps(DOUBLE)
    with pytest.raises(SingularJacobian):
        tracker._solve_linear(jac[1].tolist(), rhs[1].tolist(), eps)
    with pytest.raises(SingularJacobian):
        tracker._solve_batch(jac, rhs, eps)
    re, im = tracker._solve_batch(jac[:1], rhs[:1], eps)
    assert re.tolist() == [[0.4, 0.2]] and im.tolist() == [[0.0, 0.0]]


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


def test_newton_tolerance_is_relative():
    # c * (x^2 - (1 - t)): the residual scales with c, so an absolute stop
    # accepted the seed at c = 1e-14 and ran out of iterations at c = 1e8
    for c in (1e-14, 1.0, 1e8):
        h = Homotopy(dim=1, gamma=1.0, equations=[
            [TMonomial((c,), (2,)), TMonomial((-c, c), (0,))]])
        s = newton_correct(h, 0.5, [0.7], default_config())
        assert s.newton_iterations >= 1
        assert abs(s.x[0] - math.sqrt(0.5)) <= 2e-16


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


def test_track_step_size_invariance(monkeypatch):
    for name, t_end in (("sqrt", 0.5), ("cusp", 0.5), ("ojika1", 0.5)):
        h = fixture(name)
        dim = h.dim
        start = PathState.from_point(h, 0.0, [1.0] * dim)
        trace_a, trace_b = [], []
        monkeypatch.setattr(tracker, "_INITIAL_STEP", 0.05)
        a = track_to(h, start, t_end, default_config(), trace=trace_a)
        monkeypatch.setattr(tracker, "_INITIAL_STEP", 0.025)
        b = track_to(h, start, t_end, default_config(), trace=trace_b)
        assert max(abs(p - q) for p, q in zip(a.x, b.x)) < 1e-10
        assert (trace_a[0].t, trace_b[0].t) == (0.05, 0.025)


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


def test_track_step_budget(monkeypatch):
    h = fixture("sqrt")
    monkeypatch.setattr(tracker, "_MAX_STEPS", 3)
    with pytest.raises(NoConvergence):
        track_to(h, PathState.from_point(h, 0.0, [1.0]), 0.9,
                 default_config())


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
