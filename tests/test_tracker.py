"""Newton correction and path tracking on the benchmark fixtures."""

import cmath
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singradar import fourier, polysys, tracker
from singradar.errors import (
    EvaluationSingular,
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
    homotopy_from_json,
    make_gamma_homotopy,
    term_values,
)
from singradar.radar import locate_singularity, recondition
from singradar.scalars import (DOUBLE, EXTENDED, ExtReal, _complex, _quad,
                               float_magnitude, is_extended, lane, promote,
                               scalar_eps)
from singradar.tracker import (
    PathState,
    TrackerConfig,
    default_config,
    estimate_inverse_condition,
    newton_correct,
    track_to,
)

from mp_oracle import exact_point, lift_tolerance, relative_error

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
# the lift: one elimination per point
# ---------------------------------------------------------------------------

def _final_circle(monkeypatch, h, start, **kwargs):
    """The homotopy, t and walked samples that the radius pipeline's final
    circle, the run's one lift, hands to _refine."""
    seen = []
    refine = fourier._refine

    def spy(hs, t, walked, cfg):
        seen.append((hs, t, walked))
        return refine(hs, t, walked, cfg)

    monkeypatch.setattr(fourier, "_refine", spy)
    locate_singularity(h, start, 64, **kwargs)
    [circle] = seen
    return circle


def _point_bits(lifted, p):
    """Point p's lifted parts and residual norm, as bytes."""
    x, norms = lifted
    return ([part[p].tobytes() for v in x for part in _quad(v)],
            norms[p:p + 1].tobytes())


@pytest.mark.parametrize("name, count", [
    ("sqrt", 65), ("ojika1", 128), ("monomial4", 65), ("cusp", 65),
    ("negative-exponents", 128)])
def test_refine_gives_every_point_the_bits_of_its_own_lift(monkeypatch, name,
                                                           count):
    # the residuals of a circle are evaluated together, but each point's
    # correction is its own _solve_linear: a k-point lift and k one-point
    # lifts agree bit for bit and run the same solves (a converged point
    # is not solved again). The real circles lift half their samples.
    if name == "negative-exponents":
        h, kwargs = homotopy_from_json(NEGATIVE_EXPONENTS), {
            "t0": 0.3, "step": 0.05}
    else:
        h, kwargs = fixture(name), {}
    start = newton_correct(h, 0.0, [1.0] * h.dim, default_config())
    hs, t, walked = _final_circle(monkeypatch, h, start, **kwargs)
    assert walked.shape == (count, h.dim)
    cfg = default_config(EXTENDED)
    solves = []
    solve = tracker._solve_linear

    def counted_solve(jac, rhs, eps):
        solves.append(len(rhs))
        return solve(jac, rhs, eps)

    monkeypatch.setattr(tracker, "_solve_linear", counted_solve)
    lifted = tracker._refine(hs, t, walked, cfg)
    batch_solves = len(solves)
    assert set(solves) == {h.dim}
    for p in range(count):
        t_p = _complex(tuple(part[p:p + 1] for part in _quad(t)))
        one = tracker._refine(hs, t_p, walked[p:p + 1], cfg)
        assert _point_bits(one, 0) == _point_bits(lifted, p)
    assert len(solves) == 2 * batch_solves


def test_refine_raises_on_one_singular_point():
    # sqrt's Jacobian 2x vanishes at x = 0: one such point stops the lift
    # of the batch with the elimination's own error; without it the
    # others lift
    h = fixture("sqrt")
    t = promote(0.5, EXTENDED)
    walked = np.array([[0.7 + 0.01j], [0j], [0.71 - 0.02j]])
    cfg = default_config(EXTENDED)
    with pytest.raises(SingularJacobian,
                       match="^jacobian pivot below the precision floor$"):
        tracker._refine(h, t, walked, cfg)
    [x], norms = tracker._refine(h, t, walked[[0, 2]], cfg)
    assert x.re.hi.tolist() == [math.sqrt(0.5)] * 2
    assert (norms <= 1e-30).all()


# ---------------------------------------------------------------------------
# the generated solve against the frozen elimination loop
# ---------------------------------------------------------------------------
# general real and complex entries, then a few replaced by special values:
# signed zeros and infinities (a lone zero or an infinite pivot sits
# exactly at the floor 1e3 * eps * max|a|), values just above and below the
# floor of entries of size 8, and nan; and now and then a column of equal
# magnitudes, so the pivot search meets ties
_GENERAL = st.floats(-8.0, 8.0)
_ENTRY = st.one_of(_GENERAL, st.builds(complex, _GENERAL, _GENERAL))
_SPECIAL = st.sampled_from([0.0, -0.0, complex(-0.0, 0.0), 1.0, 5.0, 3 + 4j,
                            2.220446049250313e-12, 1e-13, complex(0.0, -1e-14),
                            math.inf, -math.inf, complex(math.inf, 1.0),
                            math.nan, complex(1.0, math.nan)])
_TIED = st.sampled_from([1.0, -1.0, 1j, -1j, complex(-0.0, 1.0)])


def _solve_outcome(solve, jac, rhs):
    """The bits of every unknown, or the exception's type and message."""
    try:
        return [_bits(v) for v in solve(jac, rhs, scalar_eps(DOUBLE))]
    except Exception as exc:  # the loop's own exception is the outcome
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_generated_solve_gives_the_bits_of_the_frozen_loop(data):
    n = data.draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    jac = data.draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    rhs = data.draw(st.lists(_ENTRY, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        j = data.draw(index)
        for row in jac:
            row[j] = data.draw(_TIED)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(index), data.draw(st.integers(0, n))
        value = data.draw(_SPECIAL)
        if j == n:
            rhs[i] = value
        else:
            jac[i][j] = value
    assert _solve_outcome(tracker._solve_linear, jac, rhs) == \
        _solve_outcome(_ref_solve_linear, jac, rhs)


# ---------------------------------------------------------------------------
# newton_correct against a frozen reference loop
# ---------------------------------------------------------------------------
# A frozen copy of the lane-generic corrector as it was before one loop
# served both lanes: float_magnitude for every magnitude, powers made by a
# dict subclass on first use, a monomial's value by its own call and the
# pivot chosen by max(key=...), reading the evaluation plan Homotopy built
# before its straight-line programs (_ref_plan). newton_correct must give
# its bits in both lanes: every iterate, the residual, the iteration count
# and any exception.

def _ref_ipow(base, e):
    if e == 0:
        return 1.0
    if e < 0 and np.any(float_magnitude(base) == 0.0):
        raise EvaluationSingular("negative exponent at zero coordinate")
    return base ** e


class _RefPowers(dict):
    def __init__(self, x):
        super().__init__()
        self.x = x

    def __missing__(self, key):
        i, e = key
        value = self[key] = _ref_ipow(self.x[i], e)
        return value


def _ref_nonzero(exponents):
    return tuple((i, e) for i, e in enumerate(exponents) if e != 0)


def _ref_plan(h):
    """Per equation and term: each monomial as (coefficient, its nonzero
    (i, e) pairs in order of i), and each nonzero partial d/dx_j of each
    monomial as (j, e, coefficient, pairs of the exponents with e - 1 at
    j), in the order the Jacobian sums them."""
    values = tuple(tuple(tuple((m.coefficient, _ref_nonzero(m.exponents))
                               for m in term.poly) for term in eq)
                   for eq in h.equations)
    partials = tuple(tuple(tuple(
        (j, e, m.coefficient,
         _ref_nonzero(m.exponents[:j] + (e - 1,) + m.exponents[j + 1:]))
        for m in term.poly for j, e in enumerate(m.exponents) if e != 0)
        for term in eq) for eq in h.equations)
    return values, partials


def _ref_mono_value(coefficient, pairs, powers):
    acc = coefficient
    for key in pairs:
        acc = acc * powers[key]
    return acc


def _ref_evaluate(h, x, q, powers, scales=None):
    out = []
    for eq, q_eq in zip(_ref_plan(h)[0], q):
        acc = size = 0.0
        for monos, c in zip(eq, q_eq):
            p = None
            for coefficient, pairs in monos:
                v = _ref_mono_value(coefficient, pairs, powers)
                p = v if p is None else p + v
            value = c * p
            acc = acc + value
            if scales is not None:
                size = size + float_magnitude(value)
        out.append(acc)
        if scales is not None:
            scales.append(size)
    return out


def _ref_jacobian(h, q, powers):
    rows = []
    for eq, q_eq in zip(_ref_plan(h)[1], q):
        row = [0.0] * h.dim
        for partials, c in zip(eq, q_eq):
            for j, e, coefficient, pairs in partials:
                row[j] = row[j] + c * e * _ref_mono_value(coefficient, pairs,
                                                          powers)
        rows.append(row)
    return rows


def _ref_solve_linear(jac, rhs, eps):
    n = len(rhs)
    if n == 1 and 0.0 < float_magnitude(jac[0][0]) < np.inf:
        return [rhs[0] / jac[0][0]]
    m = [list(jac[i]) + [rhs[i]] for i in range(n)]
    floor = 1e3 * eps * max((float_magnitude(v) for row in jac for v in row),
                            default=0.0)
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


def _ref_norm(values):
    return max((float_magnitude(v) for v in values), default=0.0)


def _ref_newton_correct(h, t, x0, cfg, history=None):
    x = list(x0)
    eps = scalar_eps(lane(t, *x))
    if cfg.newton_tol < eps:
        raise InvalidArgument("newton_tol below the active precision floor")
    q = term_values(h, t)
    iterations = None
    for it in range(tracker._MAX_NEWTON_ITERS + 1):
        powers = _RefPowers(x)
        scales = []
        resid = _ref_evaluate(h, x, q, powers, scales)
        if all(float_magnitude(r) <= cfg.newton_tol * s
               for r, s in zip(resid, scales)):
            iterations = it
            break
        if it == tracker._MAX_NEWTON_ITERS:
            raise NoConvergence("newton iteration budget exhausted")
        delta = _ref_solve_linear(_ref_jacobian(h, q, powers), resid, eps)
        x = [xi - di for xi, di in zip(x, delta)]
        if history is not None:
            history.append(list(x))
    residual = _ref_norm(resid)
    if residual != 0.0:
        delta = _ref_solve_linear(_ref_jacobian(h, q, powers), resid, eps)
        polished = [xi - di for xi, di in zip(x, delta)]
        after = _ref_norm(_ref_evaluate(h, polished, q, _RefPowers(polished)))
        if after < residual:
            x, residual = polished, after
    return PathState(t=t, x=x, residual=residual,
                     newton_iterations=iterations)


# x/y = 1 - (0.3 + 0.1i) t and
# (1 + (0.2 + 0.1i) t) (x^3 y + 0.5 x^-3 y) = 1.5 - (0.7 - 0.2i) t:
# negative exponents, a two-monomial term and a q(t) other than 1 times
# exponents whose products round, read from JSON
NEGATIVE_EXPONENTS = {
    "form": "explicit_t", "dim": 2,
    "equations": [
        [{"t_coeffs": [[1.0, 0.0]], "exp": [1, -1]},
         {"t_coeffs": [[-1.0, 0.0], [0.3, 0.1]], "exp": [0, 0]}],
        [{"t_coeffs": [[1.0, 0.0], [0.2, 0.1]],
          "poly": [{"re": 1.0, "im": 0.0, "exp": [3, 1]},
                   {"re": 0.5, "im": 0.0, "exp": [-3, 1]}]},
         {"t_coeffs": [[-1.5, 0.0], [0.7, -0.2]], "exp": [0, 0]}]]}


def _bits(v):
    """v's type and the bytes of its real and imaginary parts."""
    return type(v).__name__, struct.pack("<2d", v.real, v.imag)


def _correction(correct, h, t, x0):
    """What one corrector gives at (t, x0), at the double default
    tolerance: the bits of x, of the residual and of every iterate, and the
    iteration count; or the type and message of the exception it raised."""
    history = []
    try:
        s = correct(h, t, list(x0), default_config(), history)
    except Exception as exc:
        return type(exc), str(exc)
    return ([_bits(v) for v in s.x], _bits(s.residual), s.newton_iterations,
            [[_bits(v) for v in x] for x in history])


def _promoted(t, x0):
    return promote(t, EXTENDED), [promote(v, EXTENDED) for v in x0]


def _double_cases():
    """Seeded (name, h, t, x0) around points of each path: complex seeds at
    complex and real t, real seeds at real t, in the original chart and in
    the reconditioned one."""
    rng = np.random.default_rng(2026)
    cfg = default_config()
    named = [(name, fixture(name))
             for name in ("sqrt", "ojika1", "monomial4", "cusp")]
    named.append(("negative-exponents",
                  homotopy_from_json(NEGATIVE_EXPONENTS)))
    cases = []
    for name, h in named:
        state = newton_correct(h, 0.0, [1.0] * h.dim, cfg)
        for t0 in (0.0, 0.3, 0.6):
            state = track_to(h, state, t0, cfg)
            charts = [(name, h, t0)]
            if t0:
                charts.append((name + "-recondition", recondition(h, t0),
                               0.0))
            for label, hc, center in charts:
                cases.append((label, hc, center, state.x))
                for _ in range(4):
                    r = 10.0 ** rng.uniform(-8.0, -1.0)
                    scale = 10.0 ** rng.uniform(-10.0, -1.0)
                    noise = rng.standard_normal((2, h.dim))
                    x0 = [complex(v) + scale * complex(a, b)
                          for v, a, b in zip(state.x, *noise)]
                    t = center + r * cmath.exp(2j * math.pi * rng.random())
                    cases.append((label, hc, t, x0))
                    cases.append((label, hc, center + r, x0))
                    real = [complex(v).real + scale * a
                            for v, a in zip(state.x, noise[0])]
                    cases.append((label + "-real", hc, center + r, real))
    return cases


def _lift_error(h, t, x0, want):
    """The extended correction of the promoted case against want, the double
    reference loop's outcome: the exception type want names, raised alike,
    or the lifted point's relative distance from the root at the exact t,
    over its lift_tolerance (the root is solved from want's double point,
    so a lift onto another root shows too)."""
    t, x0 = _promoted(t, x0)
    try:
        s = newton_correct(h, t, x0, default_config(EXTENDED))
    except Exception as exc:
        return type(exc)
    if isinstance(want[0], type):
        return "converged where the double loop raised"
    x = [complex(*struct.unpack("<2d", b)) for _, b in want[0]]
    assert all(is_extended(v) for v in s.x)
    return relative_error(s.x, exact_point(h, t, x)) / lift_tolerance(h, t)


def test_double_corrector_is_bit_identical_to_the_generic_loop():
    # the double cases as they are, bit for bit; then promoted to the
    # extended lane, whose correction is the double one lifted at the exact
    # t: it fails as the double loop does or meets the 50-digit oracle
    cases = _double_cases()
    iterations = set()
    kept = raised = 0
    mismatches = []
    far = []
    for name, h, t, x0 in cases:
        want = _correction(_ref_newton_correct, h, t, x0)
        if _correction(newton_correct, h, t, x0) != want:
            mismatches.append((name, t))
        lifted = _lift_error(h, t, x0, want)
        if isinstance(want[0], type):
            raised += 1
            if lifted is not want[0]:
                far.append((name, t, lifted))
        else:
            iterations.add(want[2])
            kept += want[0] != want[3][-1] if want[3] else 0
            if not lifted <= 1.0:
                far.append((name, t, lifted))
    # the cases reach zero to several iterations and both polish decisions;
    # few fail (real seeds cannot follow the complex negative-exponent path)
    assert {0, 1, 2, 3} <= iterations
    assert kept > 0 and raised <= len(cases) // 10
    assert mismatches == [] and far == []


@pytest.mark.parametrize("name, t, x0, error, precision", [
    ("sqrt", 0.5, [1e6 + 0j], NoConvergence, DOUBLE),
    ("sqrt", 0.5, [0.0], SingularJacobian, DOUBLE),
    ("monomial4", 0.3, [0j, 0j, 0j, 0j], SingularJacobian, DOUBLE),
    ("negative-exponents", 0.3, [1.0 + 0j, 0j], EvaluationSingular, DOUBLE),
    ("negative-exponents", 0.3, [0.0, 1.0], EvaluationSingular, DOUBLE),
    # with x_2 = x_3 = x_4 = 1 the first two equations of monomial4 have
    # the same d/dx_1, so the pivot search meets a tie; the first row of
    # largest magnitude is taken
    ("monomial4", 0.1, [0.97, 1.0, 1.0, 1.0], None, DOUBLE),
    ("monomial4", 0.1 + 0.02j, [0.97 + 0.01j, 1 + 0j, 1 + 0j, 1 + 0j], None,
     DOUBLE),
    ("sqrt", 0.5, [0.0], SingularJacobian, EXTENDED),
    ("monomial4", 0.3, [0j, 0j, 0j, 0j], SingularJacobian, EXTENDED),
    ("monomial4", 0.1, [0.97, 1.0, 1.0, 1.0], None, EXTENDED),
    ("monomial4", 0.1 + 0.02j, [0.97 + 0.01j, 1 + 0j, 1 + 0j, 1 + 0j], None,
     EXTENDED),
    # near this path point two double-double pivot candidates of the
    # retired double-double loop differed but their magnitudes, rounded to
    # double, tied; the lift now starts from the double loop's point
    ("monomial4", 0.6000000172627065,
     [0.6464050753738696 - 6.734335709971288e-10j,
      0.7368062999017724 - 5.125202059561096e-10j,
      4.605039373490911 + 4.5447520562523383e-10j,
      0.4000000004137627 + 1.890713221807288e-10j], None, EXTENDED),
], ids=["budget", "zero-jacobian-1", "zero-jacobian-4", "zero-coordinate",
        "zero-coordinate-real", "tied-pivots-real", "tied-pivots",
        "zero-jacobian-1-extended", "zero-jacobian-4-extended",
        "tied-pivots-real-extended", "tied-pivots-extended",
        "rounded-tie-extended"])
def test_double_corrector_fails_and_pivots_as_the_generic_loop(
        name, t, x0, error, precision):
    # an extended case is the double one lifted: it fails alike, or meets
    # the 50-digit oracle at the exact t
    h = (homotopy_from_json(NEGATIVE_EXPONENTS)
         if name == "negative-exponents" else fixture(name))
    want = _correction(_ref_newton_correct, h, t, x0)
    if error is None:
        assert want[2] is not None
    else:
        assert want[0] is error
    if precision == EXTENDED:
        lifted = _lift_error(h, t, x0, want)
        assert lifted is error if error else lifted <= 1.0
    else:
        assert _correction(newton_correct, h, t, x0) == want


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


# x^400 - 1 + 1e300 t: from x = 1 at t = 0.5 the first Newton step lands
# near -1.25e297, where x ** 400 overflows
OVERFLOWING = {
    "form": "explicit_t", "dim": 1,
    "equations": [[{"t_coeffs": [[1.0, 0.0]], "exp": [400]},
                   {"t_coeffs": [[-1.0, 0.0], [1e300, 0.0]], "exp": [0]}]]}


def test_newton_overflow_is_no_convergence():
    h = homotopy_from_json(OVERFLOWING)
    with pytest.raises(NoConvergence, match="overflows the homotopy"):
        newton_correct(h, 0.5, [1.0], default_config())


def test_newton_polish_overflow_is_no_convergence(monkeypatch):
    # the corrector program forms the negative powers through
    # polysys._power, bound when the homotopy is built: a wrapper that
    # overflows at any point other than the seed and the iterates reaches
    # the polish step's residual alone
    h = homotopy_from_json(NEGATIVE_EXPONENTS)
    x0 = [0.9 + 0.1j, 1.1 - 0.05j]
    history = []
    state = newton_correct(h, 0.3, x0, default_config(), history)
    assert state.residual > 0.0 and history
    visited = {v for x in (x0, *history) for v in x}
    power = polysys._power
    seen = []

    def overflowing(base, e):
        if base not in visited:
            seen.append(base)
            raise OverflowError("polish")
        return power(base, e)

    monkeypatch.setattr(polysys, "_power", overflowing)
    h = homotopy_from_json(NEGATIVE_EXPONENTS)
    with pytest.raises(NoConvergence, match="overflows the homotopy"):
        newton_correct(h, 0.3, x0, default_config())
    assert len(seen) == 1


# x^2 - 1.797e308: at x0 = sqrt(0.97 * 1.797e308) both terms are finite but
# their magnitudes sum past the double range, so every residual is within
# tol times an infinite size
HUGE_CONSTANT = {
    "form": "explicit_t", "dim": 1,
    "equations": [[{"t_coeffs": [[1.0, 0.0]], "exp": [2]},
                   {"t_coeffs": [[-1.797e308, 0.0]], "exp": [0]}]]}
HUGE_SEED = math.sqrt(0.97 * 1.797e308)


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
def test_newton_overflowing_yardstick_is_no_convergence(precision):
    h = homotopy_from_json(HUGE_CONSTANT)
    with pytest.raises(NoConvergence,
                       match="^newton iterate overflows the homotopy$"):
        newton_correct(h, promote(0.5, precision),
                       [promote(HUGE_SEED, precision)],
                       default_config(precision))


def test_refine_overflowing_yardstick_is_no_convergence():
    # the lift stops on the same rule: a batch with one such point raises
    h = homotopy_from_json(HUGE_CONSTANT)
    walked = np.array([[1e150 + 0j], [HUGE_SEED + 0j]])
    with pytest.raises(NoConvergence,
                       match="^newton iterate overflows the homotopy$"), \
            np.errstate(over="ignore", invalid="ignore"):
        tracker._refine(h, promote(0.5, EXTENDED), walked,
                        default_config(EXTENDED))


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


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_track_rejects_a_target_that_is_not_finite(target):
    h = fixture("sqrt")
    with pytest.raises(InvalidArgument, match="t_target must be finite"):
        track_to(h, PathState.from_point(h, 0.0, [1.0]), target,
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


@functools.lru_cache(maxsize=None)
def path_reference(name, start, t):
    """The fixture's path from start at t = 0 to t by 1,000 equal double
    newton_correct steps, each too short to leave the path."""
    h = fixture(name)
    cfg = default_config()
    x = list(start)
    for k in range(1, 1001):
        x = newton_correct(h, t * k / 1000, x, cfg).x
    return x


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
@pytest.mark.parametrize("name,start,targets", [
    *[("ojika1", s, (0.9, OJIKA1_T0))
      for s in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))],
    ("monomial4", (1.0,) * 4, (0.9, 0.99)),
    ("cusp", (1.0,), (0.9, 0.99)),
], ids=["1,1", "1,-1", "-1,1", "-1,-1", "monomial4", "cusp"])
def test_track_ojika1_keeps_the_path_on_every_route(name, start, targets,
                                                    precision):
    # one call or through either checkpoint sequence, the track must end on
    # the start's own path. Without the step guard, ojika1's (1, -1) jumped
    # to the (1, 1) path and (-1, 1) to the (-1, -1) one; monomial4 and cusp
    # go from their all-ones start. An extended end point is lifted at the
    # exact t, so it is held to the 50-digit root solved from the reference
    h = fixture(name)
    cfg = default_config(precision)
    first = newton_correct(h, 0.0, [promote(v, precision) for v in start],
                           cfg)
    for target in targets:
        ref = path_reference(name, start, target)
        if precision == EXTENDED:
            exact, bound = exact_point(h, target, ref), lift_tolerance(
                h, target)
        for route in ((), (0.3, 0.6, 0.9), (0.5, 0.75, 0.875, 0.9375)):
            state = first
            for t in [c for c in route if c < target] + [target]:
                state = track_to(h, state, t, cfg)
            if precision == EXTENDED:
                error = relative_error(state.x, exact)
                assert error <= bound, (target, route, error)
            else:
                moved = max(abs(a - b) for a, b in zip(state.x, ref))
                assert moved <= 1e-10 * max(map(abs, ref)), (target, route)


def test_track_retries_a_step_that_jumps():
    # every accepted step moves x by at most half of max(1, |x_i|) over its
    # two points (unguarded, a step from (-1, 1) lands on the (-1, -1) path)
    h = fixture("ojika1")
    start = PathState.from_point(h, 0.0, [-1.0, 1.0])
    rows = [start]
    out = track_to(h, start, 0.9, default_config(), trace=rows)
    ref = path_reference("ojika1", (-1.0, 1.0), 0.9)
    assert max(abs(a - b) for a, b in zip(out.x, ref)) <= (
        1e-10 * max(map(abs, ref)))
    for a, b in zip(rows, rows[1:]):
        moved = max(abs(p - q) for p, q in zip(a.x, b.x))
        assert moved <= 0.5 * max(1.0, *map(abs, [*a.x, *b.x]))


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
@pytest.mark.parametrize("q0, q1, x0", [(-0.5, 1.0, 0.5), (0.0, -1.0, 0.0)],
                         ids=["through-0", "from-0"])
def test_track_runs_through_the_origin(q0, q1, x0, precision):
    # x + q0 + q1*t = 0 is regular everywhere; its path x = -q0 - q1*t
    # crosses x = 0 at t = 0.5 or starts there, and the step guard must
    # not read a move near zero as a jump
    h = Homotopy(dim=1, gamma=1.0, equations=[[
        TMonomial((1.0,), (1,)), TMonomial((q0, q1), (0,))]])
    start = PathState.from_point(h, 0.0, [promote(x0, precision)])
    out = track_to(h, start, 1.0, default_config(precision))
    assert complex(out.t) == 1.0
    assert abs(complex(out.x[0]) + q0 + q1) <= 1e-15


def _row_bits(state):
    """A row's t, the bytes of its coordinates' parts and its residual."""
    return (state.t, [struct.pack("<4d", *map(float, _quad(v)))
                      for v in state.x], state.residual)


@pytest.mark.parametrize("name, dropped", [
    ("sqrt", 0), ("cusp", 1), ("ojika1", 2), ("monomial4", 0)])
def test_extended_track_is_the_double_track_lifted(monkeypatch, name,
                                                   dropped):
    # the lane does not move the track: from the same demoted start the
    # extended rows are the double rows, each with the bits of its own
    # one-point lift, in one _refine. Rows at |1 - t| <= 2.2e-16 do not
    # lift (two on ojika1, one on cusp); each costs one more _refine, and
    # the trace ends before the first of them
    h = fixture(name)
    cfg = default_config(EXTENDED)
    start = newton_correct(h, 0.0, [promote(1.0, EXTENDED)] * h.dim, cfg)
    double_rows, rows, lifts = [], [], []
    double_error = error = None
    try:
        track_to(h, tracker.demoted(start), 1.0, default_config(),
                 trace=double_rows)
    except StepUnderflow as exc:
        double_error = type(exc)
    refine = tracker._refine

    def counted_refine(hs, t, walked, cfg):
        lifts.append(len(walked))
        return refine(hs, t, walked, cfg)

    monkeypatch.setattr(tracker, "_refine", counted_refine)
    try:
        track_to(h, start, 1.0, cfg, trace=rows)
    except (StepUnderflow, NoConvergence) as exc:
        error = type(exc)
    # a row that does not lift ends the call with the lift's error
    assert error is (NoConvergence if dropped else double_error)
    assert len(double_rows) - len(rows) == dropped
    assert lifts == list(range(len(double_rows), len(rows) - 1, -1))
    monkeypatch.setattr(tracker, "_refine", refine)
    for row, double in zip(rows, double_rows):
        assert _row_bits(row) == _row_bits(
            tracker._lifted(h, [double], cfg)[0])


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
