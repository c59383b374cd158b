"""Extended scalar arithmetic checked against a 64-digit mpmath oracle."""

import math
import random

import mpmath as mp
import pytest

from singradar.errors import DivisionByZero, InvalidArgument
from singradar.scalars import (
    DOUBLE,
    EXTENDED,
    ExtComplex,
    ExtReal,
    root_of_unity,
    scalar_eps,
    two_prod,
    two_sum,
)

mp.mp.dps = 64


def to_mp(x: ExtReal) -> mp.mpf:
    return mp.mpf(x.hi) + mp.mpf(x.lo)


def to_mpc(z: ExtComplex) -> mp.mpc:
    return mp.mpc(to_mp(z.re), to_mp(z.im))


def rand_ext(rng: random.Random, span: int = 8) -> ExtReal:
    hi = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-span, span)
    return ExtReal(hi) + hi * rng.uniform(-1.0, 1.0) * 1e-17


# ---------------------------------------------------------------------------
# error-free transformations
# ---------------------------------------------------------------------------

def test_two_sum_exact():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.uniform(-1e8, 1e8)
        b = rng.uniform(-1e-8, 1e-8)
        s, e = two_sum(a, b)
        assert s == a + b
        # the pair reproduces the exact sum as rationals
        from fractions import Fraction
        assert Fraction(a) + Fraction(b) == Fraction(s) + Fraction(e)


def test_two_prod_exact():
    rng = random.Random(8)
    from fractions import Fraction
    for _ in range(500):
        a = rng.uniform(-1e5, 1e5)
        b = rng.uniform(-1e5, 1e5)
        p, e = two_prod(a, b)
        assert p == a * b
        assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


def test_roundoff_recovery():
    tiny = 2.0 ** -53
    s = ExtReal(1.0) + ExtReal(tiny)
    d = s - ExtReal(1.0)
    assert d.hi == tiny and d.lo == 0.0


# ---------------------------------------------------------------------------
# extended real operators
# ---------------------------------------------------------------------------

def test_integer_add():
    r = ExtReal(1.0) + ExtReal(1.0)
    assert r.hi == 2.0 and r.lo == 0.0


def test_div_then_mul_recovers_one():
    third = ExtReal(1.0) / ExtReal(3.0)
    back = third * ExtReal(3.0)
    assert abs(to_mp(back) - 1) <= mp.mpf("1e-30")


def test_add_commutes_exactly():
    rng = random.Random(21)
    for _ in range(2000):
        a, b = rand_ext(rng), rand_ext(rng)
        x = a + b
        y = b + a
        assert x.hi == y.hi and x.lo == y.lo


def test_native_agreement_on_promoted_floats():
    rng = random.Random(22)
    for _ in range(2000):
        a = rng.uniform(-1e6, 1e6)
        b = rng.uniform(-1e6, 1e6)
        assert (ExtReal(a) + ExtReal(b)).hi == a + b
        assert (ExtReal(a) - ExtReal(b)).hi == a - b
        assert (ExtReal(a) * ExtReal(b)).hi == a * b


def test_oracle_relative_error_100k_samples():
    rng = random.Random(20240815)
    bound = mp.mpf("1e-30")
    for _ in range(25000):
        a, b = rand_ext(rng), rand_ext(rng)
        ma, mb = to_mp(a), to_mp(b)
        for value, exact in (
            (a + b, ma + mb),
            (a - b, ma - mb),
            (a * b, ma * mb),
            (a / b, ma / mb),
        ):
            got = to_mp(value)
            if exact != 0:
                assert abs((got - exact) / exact) <= bound


def test_division_by_exact_zero():
    with pytest.raises(DivisionByZero):
        ExtReal(1.0) / ExtReal(0.0)
    with pytest.raises(DivisionByZero):
        ExtComplex(1.0) / ExtComplex(0.0, 0.0)


# ---------------------------------------------------------------------------
# extended complex operators
# ---------------------------------------------------------------------------

def test_i_squared():
    i = ExtComplex(0.0, 1.0)
    r = i * i
    assert float(r.re) == -1.0 and float(r.im) == 0.0


def test_three_four_five_modulus():
    z = ExtComplex(3.0, 4.0)
    m = abs(z)
    assert m.hi == 5.0 and m.lo == 0.0


def test_reciprocal_roundtrip():
    rng = random.Random(31)
    bound = mp.mpf("1e-30")
    for _ in range(2000):
        z = ExtComplex(rand_ext(rng, 4), rand_ext(rng, 4))
        r = z * (ExtComplex(1.0) / z)
        assert abs(to_mpc(r) - 1) <= bound


def test_smith_division_resists_component_overflow():
    big = 8.0e307
    z = ExtComplex(1.0, 0.0) / ExtComplex(big, big)
    assert math.isfinite(float(z.re)) and math.isfinite(float(z.im))
    assert abs(complex(z) * complex(big, big) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

def test_quarter_turns_exact():
    w = root_of_unity(4, 1)
    assert float(w.re) == 0.0 and float(w.im) == 1.0
    m = root_of_unity(8, 4)
    assert float(m.re) == -1.0 and float(m.im) == 0.0


def test_zero_n_rejected():
    with pytest.raises(InvalidArgument):
        root_of_unity(0, 1)


def test_eighth_roots_product():
    prod = ExtComplex(1.0)
    for k in range(8):
        prod = prod * root_of_unity(8, k)
    # sum of exponents is 28, and 28 mod 8 = 4, so the product is -1
    assert abs(to_mpc(prod) + 1) <= mp.mpf("1e-30")


def test_power_n_returns_to_one():
    worst = 0.0
    for n in list(range(1, 65)) + [100, 128, 183, 256, 333, 512, 777, 1000, 1023, 1024]:
        p = root_of_unity(n, 1) ** n
        worst = max(worst, abs(float(p.re) - 1.0), abs(float(p.im)))
    assert worst <= 4 * math.ulp(1.0)
    assert worst <= 1e-30


def test_conjugate_pair_products():
    worst = 0.0
    for n in list(range(1, 49)) + [64, 100, 128, 255, 256, 333, 512, 777, 1000, 1023, 1024]:
        stride = 1 if n <= 48 else max(1, n // 23)
        for k in range(0, n, stride):
            q = root_of_unity(n, k) * root_of_unity(n, n - k)
            worst = max(worst, abs(float(q.re) - 1.0), abs(float(q.im)))
    assert worst <= 8 * math.ulp(1.0)
    assert worst <= 8 * scalar_eps(EXTENDED)


# ---------------------------------------------------------------------------
# lane plumbing
# ---------------------------------------------------------------------------

def test_eps_ordering():
    assert scalar_eps(EXTENDED) < scalar_eps(DOUBLE) ** 1.5


def test_conj_involution():
    z = ExtComplex(1.25, -2.5)
    assert complex(z.conjugate().conjugate()) == complex(z)


def test_mixed_lane_promotion():
    z = 2 + ExtComplex(1.0, 1.0) * 0.5
    assert complex(z) == complex(2.5, 0.5)
    r = 1.5 * ExtReal(2.0) - 1
    assert float(r) == 2.0
