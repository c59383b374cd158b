"""Properties of random one-form homotopies: JSON round trip, reconditioning
and the Jacobian, over dims 1-3, exponents 0-3 and complex q of degree <= 3;
and the bits of the evaluation programs against the frozen loops of
test_polysys, and of the double corrector against test_tracker's frozen
Newton loop, over dims 1-4 and exponents -2..3.

Sizes are compared against the sum of the term magnitudes, since terms may
cancel and leave |h| itself no scale."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singradar.errors import EvaluationSingular, NoConvergence
from singradar.polysys import (
    Homotopy,
    Monomial,
    Term,
    TMonomial,
    evalpoly,
    evaluate,
    homotopy_from_json,
    homotopy_to_json,
    jacobian,
    term_values,
)
from singradar.radar import recondition
from singradar.scalars import EXTENDED, ExtComplex, ExtReal, promote
from singradar.tracker import newton_correct

from test_polysys import (_ref_chart, _ref_evalpoly, batch, outcome,
                          ref_evaluate, ref_jacobian, typed_bits)
from test_tracker import (_RefPowers, _correction, _ref_evaluate,
                          _ref_jacobian, _ref_newton_correct)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

_part = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coefficient = st.builds(complex, _part, _part)
unit_point = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
_zero = st.sampled_from([0.0, -0.0])
signed_coefficient = st.builds(complex, st.one_of(_zero, _part),
                               st.one_of(_zero, _part))
signed_real = st.one_of(_zero, st.floats(-1.5, 1.5))
signed_point = st.builds(complex, signed_real, signed_real)


@st.composite
def homotopies(draw, wide=False):
    """wide draws what a program generator must get right: dims 1-4,
    exponents -2..3, exponent vectors repeated within an equation, constant
    monomials and coefficients with a zero part of either sign."""
    dim = draw(st.integers(1, 4 if wide else 3))
    exponents = st.tuples(*[st.integers(-2 if wide else 0, 3)] * dim)
    c = signed_coefficient if wide else coefficient
    q = st.lists(c, min_size=1, max_size=4)
    equations = []
    for _ in range(dim):
        vectors = exponents
        if wide:
            pool = draw(st.lists(exponents, min_size=1, max_size=3))
            vectors = st.sampled_from([(0,) * dim, *pool])
        term = st.one_of(
            st.builds(TMonomial, q, vectors),
            st.builds(Term, q, st.lists(st.builds(Monomial, c, vectors),
                                        min_size=1, max_size=3)))
        eq = draw(st.lists(term, min_size=1, max_size=3))
        if not any(any(tm.t_coeffs) and any(m.coefficient for m in tm.poly)
                   for tm in eq):
            # Homotopy rejects an identically zero equation
            eq.append(TMonomial((1.0,), (0,) * dim))
        equations.append(eq)
    return Homotopy(dim=dim, gamma=draw(c), equations=equations)


def points(dim):
    return st.lists(unit_point, min_size=dim, max_size=dim)


def term_scale(h, x, t):
    """Sum over all terms of |q|(|t|) * |P|(|x|), with |x_i| floored at 1."""
    total = 0.0
    for eq in h.equations:
        for term in eq:
            q = sum(abs(c) * abs(t) ** k for k, c in enumerate(term.t_coeffs))
            p = 0.0
            for m in term.poly:
                size = abs(m.coefficient)
                for xi, e in zip(x, m.exponents):
                    size *= max(1.0, abs(xi)) ** e
                p += size
            total += q * p
    return max(total, 1.0)


def bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@PROPERTY
@given(st.data())
def test_json_round_trip_evaluates_bit_identically(data):
    h = data.draw(homotopies())
    back = homotopy_from_json(json.loads(json.dumps(homotopy_to_json(h))))
    assert back.dim == h.dim and back.gamma == h.gamma
    x = data.draw(points(h.dim))
    t = data.draw(st.one_of(st.floats(0.0, 1.0), unit_point))
    assert bits(evaluate(back, x, t)) == bits(evaluate(h, x, t))
    assert ([bits(row) for row in jacobian(back, x, t)]
            == [bits(row) for row in jacobian(h, x, t)])


@PROPERTY
@given(st.data())
def test_recondition_is_the_affine_substitution(data):
    h = data.draw(homotopies())
    t0 = data.draw(st.floats(0.0, 0.99))
    s = data.draw(st.builds(complex, st.floats(-1.0, 1.0),
                            st.floats(-1.0, 1.0)))
    x = data.draw(points(h.dim))
    t = t0 + (1.0 - t0) * s
    hs = recondition(h, t0)
    scale = term_scale(h, x, t)
    for got, want in zip(evaluate(hs, x, s), evaluate(h, x, t)):
        assert abs(got - want) <= 1e-13 * scale


@PROPERTY
@given(st.data())
def test_jacobian_matches_central_differences(data):
    h = data.draw(homotopies())
    x = data.draw(points(h.dim))
    t = data.draw(st.one_of(st.floats(0.0, 1.0), unit_point))
    step = 1e-6
    scale = 27.0 * term_scale(h, x, t)
    jac = jacobian(h, x, t)
    for j in range(h.dim):
        up, down = list(x), list(x)
        up[j] += step
        down[j] -= step
        for i, (a, b) in enumerate(zip(evaluate(h, up, t),
                                       evaluate(h, down, t))):
            assert abs(jac[i][j] - (a - b) / (2 * step)) <= 1e-7 * scale


@PROPERTY
@given(st.data())
def test_evaluate_scales_sum_the_term_magnitudes(data):
    h = data.draw(homotopies())
    x = data.draw(points(h.dim))
    t = data.draw(st.one_of(st.floats(0.0, 1.0), unit_point))
    scales = []
    assert bits(evaluate(h, x, t, scales=scales)) == bits(evaluate(h, x, t))
    ext_scales = []
    evaluate(h, [promote(v, EXTENDED) for v in x], promote(t, EXTENDED),
             scales=ext_scales)
    tol = 1e-13 * term_scale(h, x, t)
    for eq, got, got_ext in zip(h.equations, scales, ext_scales):
        want = 0.0
        for term in eq:
            p = 0.0
            for m in term.poly:
                value = m.coefficient
                for xi, e in zip(x, m.exponents):
                    value *= xi ** e
                p += value
            want += abs(evalpoly(term.t_coeffs, t) * p)
        assert abs(got - want) <= tol
        assert abs(got_ext - want) <= tol


# ---------------------------------------------------------------------------
# the evaluation programs against the frozen loops
# ---------------------------------------------------------------------------

def _ext(z):
    return ExtComplex(ExtReal(z.real, z.real * 1e-17),
                      ExtReal(z.imag, -z.imag * 3e-17))


@st.composite
def lane_points(draw, lane, dim):
    """(x, t) in a lane: real doubles, complex doubles (at a real or
    complex t) or double-doubles (at an ExtComplex or ExtReal t); zero
    parts of either sign are frequent."""
    if lane == "double":
        return draw(st.lists(signed_real, min_size=dim, max_size=dim)), \
            draw(signed_real)
    x = draw(st.lists(signed_point, min_size=dim, max_size=dim))
    t = draw(st.one_of(signed_point, signed_real))
    if lane == "complex":
        return x, t
    return ([_ext(z) for z in x],
            ExtReal(t, t * 1e-17) if isinstance(t, float) else _ext(t))


def _reconditioned(data, h):
    t0 = data.draw(st.sampled_from([0.0, 0.3, 0.955647336181678]))
    return recondition(h, t0)


@pytest.mark.parametrize("lane", ["double", "complex", "extended"])
@PROPERTY
@given(data=st.data())
def test_programs_give_the_bits_of_the_frozen_loops(lane, data):
    # the same bits and result types, or the same exception
    h = _reconditioned(data, data.draw(homotopies(wide=True)))
    x, t = data.draw(lane_points(lane, h.dim))
    assert outcome(evaluate, h, x, t) == outcome(ref_evaluate, h, x, t)
    assert outcome(jacobian, h, x, t) == outcome(ref_jacobian, h, x, t)


def _batch_bits(v):
    if isinstance(v, list):
        return [_batch_bits(u) for u in v]
    if isinstance(v, ExtComplex):
        return ("ExtComplex",) + tuple(
            tuple(float(a).hex() for a in np.ravel(part))
            for part in (v.re.hi, v.re.lo, v.im.hi, v.im.lo))
    return typed_bits(v)


def _batch_outcome(fn, *args):
    try:
        return _batch_bits(fn(*args))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


@PROPERTY
@given(st.data())
def test_programs_on_an_array_batch_give_the_bits_of_the_frozen_loops(data):
    # one ExtComplex batch with array parts, as tracker._refine holds its
    # samples, against test_tracker's frozen loops on the same batch (they
    # guard a zero base with np.any, as a batch needs); unit_point leaves
    # fewer zero coordinates than signed_point, so fewer batches raise
    h = _reconditioned(data, data.draw(homotopies(wide=True)))
    k = 3
    x = [batch([_ext(data.draw(unit_point)) for _ in range(k)])
         for _ in range(h.dim)]
    t = batch([_ext(data.draw(signed_point)) for _ in range(k)])
    q = [[_ref_evalpoly(term.t_coeffs, _ref_chart(h, t)) for term in eq]
         for eq in h.equations]
    assert _batch_outcome(evaluate, h, x, t) == _batch_outcome(
        lambda: _ref_evaluate(h, x, q, _RefPowers(x)))
    assert _batch_outcome(jacobian, h, x, t) == _batch_outcome(
        lambda: _ref_jacobian(h, q, _RefPowers(x)))


# ---------------------------------------------------------------------------
# the double corrector against the frozen Newton loop
# ---------------------------------------------------------------------------

_OVERFLOW = (NoConvergence, "newton iterate overflows the homotopy")


def _ref_correction(h, t, x0):
    """_correction of test_tracker's frozen loop, under the corrector's two
    overflow rules, which that loop predates: an OverflowError, and an
    iterate whose equation sizes are not all finite, are NoConvergence."""
    visited = []

    def ref(h, t, x0, cfg, history):
        visited.append(history)
        return _ref_newton_correct(h, t, x0, cfg, history)

    want = _correction(ref, h, t, x0)
    if want[0] is OverflowError:
        return _OVERFLOW
    q = term_values(h, t)
    for x in (x0, *visited[0]):
        scales = []
        try:
            _ref_evaluate(h, x, q, _RefPowers(x), scales)
        except Exception:  # the loop itself stopped here
            break
        if not all(map(math.isfinite, scales)):
            return _OVERFLOW
    return want


def _planted(data, h, x, t):
    """h with one constant term per equation that makes x its root at t,
    and a seed near x in x's lane; h and x as they are where h is singular
    or fails at x."""
    try:
        values = evaluate(h, x, t)
    except (EvaluationSingular, ArithmeticError):
        return h, x
    h = Homotopy(dim=h.dim, gamma=h.gamma, t0=h.t0, equations=[
        [*eq, TMonomial((-v,), (0,) * h.dim)]
        for eq, v in zip(h.equations, values)])
    scale = data.draw(st.sampled_from([1e-12, 1e-6, 1e-3, 1e-1]))
    noise = data.draw(st.lists(st.builds(complex, _part, _part),
                               min_size=h.dim, max_size=h.dim))
    return h, [v + scale * (e if isinstance(v, complex) else e.real)
               for v, e in zip(x, noise)]


@pytest.mark.parametrize("lane", ["double", "complex"])
@PROPERTY
@given(data=st.data())
def test_corrector_gives_the_bits_of_the_frozen_newton_loop(lane, data):
    # every iterate, the residual, the iteration count and any exception;
    # half of the seeds sit near a planted root and mostly converge, the
    # others run out of iterations or meet a singular point alike
    h = _reconditioned(data, data.draw(homotopies(wide=True)))
    x, t = data.draw(lane_points(lane, h.dim))
    if data.draw(st.booleans()):
        h, x = _planted(data, h, x, t)
    assert _correction(newton_correct, h, t, x) == _ref_correction(h, t, x)
