"""Properties of random one-form homotopies: JSON round trip, reconditioning
and the Jacobian, over dims 1-3, exponents 0-3 and complex q of degree <= 3.

Sizes are compared against the sum of the term magnitudes, since terms may
cancel and leave |h| itself no scale."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from singradar.polysys import (
    Homotopy,
    Monomial,
    Term,
    TMonomial,
    evaluate,
    homotopy_from_json,
    homotopy_to_json,
    jacobian,
)
from singradar.radar import recondition

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

_part = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coefficient = st.builds(complex, _part, _part)
unit_point = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@st.composite
def homotopies(draw):
    dim = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    q = st.lists(coefficient, min_size=1, max_size=4)
    term = st.one_of(
        st.builds(TMonomial, q, exponents),
        st.builds(Term, q, st.lists(st.builds(Monomial, coefficient,
                                              exponents),
                                    min_size=1, max_size=3)))
    equations = [draw(st.lists(term, min_size=1, max_size=3))
                 for _ in range(dim)]
    return Homotopy(dim=dim, gamma=draw(coefficient), equations=equations)


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
