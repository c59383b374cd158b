"""Truncated series ops against schoolbook and closed-form oracles."""

import random
from fractions import Fraction

import pytest

from singradar.errors import InvalidArgument
from singradar.series import (
    TruncatedSeries,
    ratio_sequence,
    series_mul,
    sqrt_one_minus_t_reference,
)
from singradar.scalars import EXTENDED, ExtReal


def geometric(n):
    return TruncatedSeries([1.0] * (n + 1), n)


def test_one_plus_t_times_one_minus_t():
    a = TruncatedSeries([1.0, 1.0, 0.0], 2)
    b = TruncatedSeries([1.0, -1.0, 0.0], 2)
    p = series_mul(a, b)
    assert p.coeffs == [1.0, 0.0, -1.0]


def test_geometric_telescopes():
    n = 9
    g = geometric(n)
    one_minus_t = TruncatedSeries([1.0, -1.0] + [0.0] * (n - 1), n)
    p = series_mul(g, one_minus_t)
    assert p.coeffs[0] == 1.0
    assert all(c == 0.0 for c in p.coeffs[1:n])


def test_mul_matches_schoolbook_convolution_exactly():
    rng = random.Random(11)
    for _ in range(50):
        # integer coefficients make every summation order exact
        a = [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(9)]
        b = [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(9)]
        expect = [
            sum(a[k] * b[m - k] for k in range(m, -1, -1))
            for m in range(9)
        ]
        got = series_mul(TruncatedSeries(a, 8), TruncatedSeries(b, 8))
        assert got.coeffs == expect


def test_mul_commutes_and_associates_on_exact_inputs():
    rng = random.Random(12)
    a = TruncatedSeries([float(rng.randint(-9, 9)) for _ in range(7)], 6)
    b = TruncatedSeries([float(rng.randint(-9, 9)) for _ in range(7)], 6)
    c = TruncatedSeries([float(rng.randint(-9, 9)) for _ in range(7)], 6)
    assert series_mul(a, b).coeffs == series_mul(b, a).coeffs
    assert series_mul(series_mul(a, b), c).coeffs == series_mul(a, series_mul(b, c)).coeffs


def test_order_mismatch_rejected():
    with pytest.raises(InvalidArgument):
        series_mul(geometric(3), geometric(4))


# ---------------------------------------------------------------------------
# sqrt(1 - t) reference series
# ---------------------------------------------------------------------------

def exact_sqrt_coeff(n: int) -> Fraction:
    c = Fraction(1)
    for k in range(n):
        c = c * Fraction(2 * k - 1, 2 * (k + 1))
    return c


def test_reference_low_coefficients():
    s = sqrt_one_minus_t_reference(8)
    assert s.coeffs[0] == 1.0
    assert s.coeffs[2] == -0.125
    assert abs(s.coeffs[8] - (-0.013092041016)) <= 5e-13


def test_reference_matches_rational_recurrence():
    s = sqrt_one_minus_t_reference(64)
    for n in (1, 2, 7, 16, 33, 64):
        exact = exact_sqrt_coeff(n)
        assert abs(s.coeffs[n] - float(exact)) <= 1e-14 * abs(float(exact))


def test_reference_extended_lane():
    s = sqrt_one_minus_t_reference(32, precision=EXTENDED)
    assert isinstance(s.coeffs[5], ExtReal)
    exact = exact_sqrt_coeff(32)
    got = Fraction(s.coeffs[32].hi) + Fraction(s.coeffs[32].lo)
    assert abs(got - exact) <= abs(exact) * Fraction(1, 10**30)


def test_reference_squared_is_one_minus_t():
    s = sqrt_one_minus_t_reference(64)
    sq = series_mul(s, s)
    assert abs(sq.coeffs[0] - 1.0) <= 1e-15
    assert abs(sq.coeffs[1] + 1.0) <= 1e-15
    assert all(abs(c) < 1e-15 for c in sq.coeffs[2:])


# ---------------------------------------------------------------------------
# ratio sequence
# ---------------------------------------------------------------------------

def test_sqrt_ratios_match_closed_form():
    s = sqrt_one_minus_t_reference(16)
    r = ratio_sequence(s)
    for n in range(1, 16):
        assert abs(r[n] - 2.0 * (n + 1) / (2 * n - 1)) <= 1e-13
    assert abs(r[4] - 1.42857142857143) <= 5e-15


def test_geometric_ratios_are_exactly_one():
    r = ratio_sequence(geometric(12))
    assert r == [1.0] * 12


def test_cusp_series_flags_undefined():
    # (t - 1)^2 padded to degree 6
    s = TruncatedSeries([1.0, -2.0, 1.0, 0.0, 0.0, 0.0, 0.0], 6)
    r = ratio_sequence(s)
    assert r[0] == -0.5 and r[1] == -2.0
    assert all(entry is None for entry in r[2:])
