"""Extended scalar arithmetic checked against a 64-digit mpmath oracle."""

import math
import operator
import random
import struct

import mpmath as mp
import numpy as np
import pytest

from singradar.errors import DivisionByZero, InvalidArgument
from singradar.scalars import (
    DOUBLE,
    EXTENDED,
    ExtComplex,
    ExtReal,
    _complex,
    lane,
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


def test_batched_division_takes_the_scalar_quotient():
    # an array-part division selects each element's Smith branch and
    # prescale, so every quotient has the bits of the scalar one; the
    # magnitudes cross the prescale threshold 2^500 on either side up to
    # the overflow edge, and divisors with a zero part take either branch
    rng = random.Random(53)
    nums, dens = [], []
    for _ in range(400):
        nums.append(ExtComplex(rand_ext(rng), rand_ext(rng)))
        span = rng.choice([8, 160, 250, 300, 308])
        re, im = rand_ext(rng, span), rand_ext(rng, span)
        dens.append(ExtComplex(*rng.choice([(re, im), (re, re), (re, 0.0),
                                            (0.0, im)])))

    def parts(values):
        return _complex(tuple(np.array(p) for p in zip(
            *((v.re.hi, v.re.lo, v.im.hi, v.im.lo) for v in values))))

    got = parts(nums) / parts(dens)
    for j, (a, b) in enumerate(zip(nums, dens)):
        want = a / b
        assert [float(p[j]).hex() for p in (got.re.hi, got.re.lo, got.im.hi,
                                            got.im.lo)] == [
            p.hex() for p in (want.re.hi, want.re.lo, want.im.hi, want.im.lo)]


def test_batched_negative_power_mpmath_oracle():
    # an ExtComplex with array parts raises to a negative power through
    # cdd_div's element-wise quotient; each value keeps double-double
    # accuracy, and an exact zero is still a division by zero
    rng = random.Random(47)
    values = [ExtComplex(rand_ext(rng, 4), rand_ext(rng, 4))
              for _ in range(500)]
    batch = _complex(tuple(np.array(p) for p in zip(
        *((v.re.hi, v.re.lo, v.im.hi, v.im.lo) for v in values))))
    for k in (-1, -2, -3, -7):
        got = batch ** k
        for j, v in enumerate(values):
            z = ExtComplex(ExtReal(got.re.hi[j], got.re.lo[j]),
                           ExtReal(got.im.hi[j], got.im.lo[j]))
            exact = to_mpc(v) ** k
            assert abs(to_mpc(z) - exact) <= mp.mpf("1e-31") * abs(exact)
    zero = _complex((np.array([1.0, 0.0]), np.zeros(2),
                     np.array([0.5, 0.0]), np.zeros(2)))
    with pytest.raises(DivisionByZero):
        zero ** -1


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


def test_lane_is_extended_if_any_value_is():
    assert lane() == DOUBLE
    assert lane(1.0, 2j, 3) == DOUBLE
    assert lane(1.0, ExtReal(2.0)) == EXTENDED
    assert lane(ExtComplex(1.0, 0.0), 2j) == EXTENDED


# ---------------------------------------------------------------------------
# bit identity with the object operators the kernels replaced
# ---------------------------------------------------------------------------
# RefReal / RefComplex are a frozen copy of the ExtReal / ExtComplex operator
# bodies as they were before the operators moved onto the float-level dd_* /
# cdd_* kernels, with their own error-free transformations. Every operator
# of the library must return the same bits (signed zeros, infinities and NaN
# payloads included) or raise the same exception.

def _ref_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _ref_quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _ref_split(a):
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _ref_two_prod(a, b):
    p = a * b
    ahi, alo = _ref_split(a)
    bhi, blo = _ref_split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


class RefReal:
    __slots__ = ("hi", "lo")

    def __init__(self, hi=0.0, lo=0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @staticmethod
    def _coerce(other):
        if isinstance(other, RefReal):
            return other
        if isinstance(other, (int, float)):
            return RefReal(float(other), 0.0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, RefComplex)):
                return RefComplex(self, RefReal()) + other
            return NotImplemented
        s1, s2 = _ref_two_sum(self.hi, o.hi)
        t1, t2 = _ref_two_sum(self.lo, o.lo)
        s2 += t1
        s1, s2 = _ref_quick_two_sum(s1, s2)
        s2 += t2
        s1, s2 = _ref_quick_two_sum(s1, s2)
        return RefReal(s1, s2)

    __radd__ = __add__

    def __neg__(self):
        return RefReal(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, RefComplex)):
                return RefComplex(self, RefReal()) - other
            return NotImplemented
        return self.__add__(RefReal(-o.hi, -o.lo))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, RefComplex)):
                return other - RefComplex(self, RefReal())
            return NotImplemented
        return o.__add__(RefReal(-self.hi, -self.lo))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, RefComplex)):
                return RefComplex(self, RefReal()) * other
            return NotImplemented
        p1, p2 = _ref_two_prod(self.hi, o.hi)
        p2 += self.hi * o.lo + self.lo * o.hi
        p1, p2 = _ref_quick_two_sum(p1, p2)
        return RefReal(p1, p2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, RefComplex)):
                return RefComplex(self, RefReal()) / other
            return NotImplemented
        return _ref_div(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, RefComplex)):
                return other / RefComplex(self, RefReal())
            return NotImplemented
        return _ref_div(o, self)

    def __pow__(self, k):
        return _ref_ipow(self, k, RefReal(1.0))

    def __abs__(self):
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    def sqrt(self):
        if self.hi == 0.0 and self.lo == 0.0:
            return RefReal()
        if self.hi < 0.0:
            raise InvalidArgument("sqrt of negative extended real")
        x = 1.0 / math.sqrt(self.hi)
        ax = self.hi * x
        p, e = _ref_two_prod(ax, ax)
        d = self - RefReal(p, e)
        s, lo = _ref_quick_two_sum(ax, d.hi * x * 0.5)
        return RefReal(s, lo)


def _ref_mul_float(a, b):
    p1, p2 = _ref_two_prod(a.hi, b)
    p2 += a.lo * b
    return RefReal(*_ref_quick_two_sum(p1, p2))


def _ref_div(a, b):
    if b.hi == 0.0 and b.lo == 0.0:
        raise DivisionByZero("extended real division by exact zero")
    q1 = a.hi / b.hi
    r = a - _ref_mul_float(b, q1)
    q2 = r.hi / b.hi
    r = r - _ref_mul_float(b, q2)
    q3 = r.hi / b.hi
    s, e = _ref_quick_two_sum(q1, q2)
    s1, s2 = _ref_two_sum(s, q3)
    s2 += e
    return RefReal(*_ref_quick_two_sum(s1, s2))


class RefComplex:
    __slots__ = ("re", "im")

    def __init__(self, re=0.0, im=0.0):
        self.re = re if isinstance(re, RefReal) else RefReal(re)
        self.im = im if isinstance(im, RefReal) else RefReal(im)

    @staticmethod
    def _coerce(other):
        if isinstance(other, RefComplex):
            return other
        if isinstance(other, complex):
            return RefComplex(RefReal(other.real), RefReal(other.imag))
        if isinstance(other, (int, float)):
            return RefComplex(RefReal(float(other)), RefReal())
        if isinstance(other, RefReal):
            return RefComplex(other, RefReal())
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RefComplex(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefComplex(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefComplex(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _ref_cdiv(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _ref_cdiv(o, self)

    def __pow__(self, k):
        return _ref_ipow(self, k, RefComplex(1.0))

    def __abs__(self):
        return (self.re * self.re + self.im * self.im).sqrt()


def _ref_ldexp(x, e):
    return RefReal(math.ldexp(x.hi, e), math.ldexp(x.lo, e))


def _ref_cdiv(a, b):
    if b.re.hi == 0.0 and b.re.lo == 0.0 and b.im.hi == 0.0 and b.im.lo == 0.0:
        raise DivisionByZero("extended complex division by exact zero")
    m = max(abs(b.re.hi), abs(b.im.hi))
    _, ex = math.frexp(m)
    if ex > 500 or ex < -500:
        b = RefComplex(_ref_ldexp(b.re, -ex), _ref_ldexp(b.im, -ex))
        q = _ref_cdiv(a, b)
        return RefComplex(_ref_ldexp(q.re, -ex), _ref_ldexp(q.im, -ex))
    if abs(b.re.hi) >= abs(b.im.hi):
        r = _ref_div(b.im, b.re)
        den = b.re + b.im * r
        return RefComplex(_ref_div(a.re + a.im * r, den),
                          _ref_div(a.im - a.re * r, den))
    r = _ref_div(b.re, b.im)
    den = b.im + b.re * r
    return RefComplex(_ref_div(a.re * r + a.im, den),
                      _ref_div(a.im * r - a.re, den))


def _ref_ipow(base, k, one):
    if k < 0:
        return one / _ref_ipow(base, -k, one)
    result = one
    b = base
    n = k
    while n:
        if n & 1:
            result = result * b
        b = b * b
        n >>= 1
    return result


def _float_bits(x):
    return struct.pack("<d", x).hex()


def _ext_bits(v):
    """Type tag and the bit pattern of every double, for both families."""
    if isinstance(v, (ExtReal, RefReal)):
        return ("real", _float_bits(v.hi), _float_bits(v.lo))
    if isinstance(v, (ExtComplex, RefComplex)):
        return ("complex",) + _ext_bits(v.re)[1:] + _ext_bits(v.im)[1:]
    return (type(v).__name__, repr(v))


def _outcome(fn, *args):
    try:
        return _ext_bits(fn(*args))
    except Exception as exc:  # the exception type and message must agree
        return ("raised", type(exc).__name__, str(exc))


_SPECIAL_DOUBLES = (0.0, -0.0, 1.0, -1.0, 3.0, 2.0 ** -53, math.inf, -math.inf,
                    math.nan, 2.0 ** 520, -2.0 ** 510, 2.0 ** -520, 5e-324,
                    1.0e308)


def _operand_pool():
    """(library value, reference value) pairs of every operand kind."""
    rng = random.Random(20261018)
    reals = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 0.0),
             (-1.0, -0.0), (3.0, 1.2e-16), (2.0 ** 520, 2.0 ** 460),
             (2.0 ** -520, -2.0 ** -580), (math.inf, 0.0), (math.nan, 0.0),
             (1.0e308, 1.0e291)]
    for _ in range(10):
        hi = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
        reals.append((hi, hi * rng.uniform(-1.0, 1.0) * 1e-17))
    pool = [(ExtReal(hi, lo), RefReal(hi, lo)) for hi, lo in reals]
    parts = reals[:9] + reals[12:] + [(1.0e300, -3.0e283)]
    for i in range(len(parts)):
        re, im = parts[i], parts[(3 * i + 2) % len(parts)]
        pool.append((ExtComplex(ExtReal(*re), ExtReal(*im)),
                     RefComplex(RefReal(*re), RefReal(*im))))
    pool.append((ExtComplex(2.0 ** 600, -2.0 ** 590),
                 RefComplex(2.0 ** 600, -2.0 ** 590)))
    pool.append((ExtComplex(2.0 ** -560, 2.0 ** -570),
                 RefComplex(2.0 ** -560, 2.0 ** -570)))
    natives = list(_SPECIAL_DOUBLES) + [0, 2, -7, True]
    natives += [complex(a, b) for a, b in ((0.0, 0.0), (-0.0, -0.0),
                                           (1.5, -0.0), (0.0, 1.0),
                                           (-2.5, 4.0), (math.inf, 1.0),
                                           (2.0 ** 520, 1.0))]
    natives += [rng.uniform(-10.0, 10.0) for _ in range(4)]
    return pool + [(v, v) for v in natives]


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_binary_operators_bit_identical_to_object_reference():
    pool = _operand_pool()
    checked = 0
    for a, ra in pool:
        for b, rb in pool:
            if not isinstance(a, (ExtReal, ExtComplex)) and \
                    not isinstance(b, (ExtReal, ExtComplex)):
                continue
            for op in _BINARY:
                want = _outcome(op, ra, rb)
                got = _outcome(op, a, b)
                assert got == want, (op.__name__, a, b)
                checked += 1
    # the reflected forms ran with a native left operand
    assert checked > 4 * 2 * 20 * 20


def test_explicit_reflected_operators_bit_identical():
    pool = [p for p in _operand_pool() if isinstance(p[0], (ExtReal, ExtComplex))]
    for a, ra in pool:
        for b, rb in pool:
            for name in ("__radd__", "__rsub__", "__rmul__", "__rtruediv__"):
                want = _outcome(getattr(ra, name), rb)
                got = _outcome(getattr(a, name), b)
                assert got == want, (name, a, b)


def test_unary_operators_and_powers_bit_identical():
    for a, ra in _operand_pool():
        if not isinstance(a, (ExtReal, ExtComplex)):
            continue
        assert _outcome(operator.neg, a) == _outcome(operator.neg, ra), a
        assert _outcome(abs, a) == _outcome(abs, ra), a
        for k in (-3, -2, -1, 0, 1, 2, 3, 5, 8, 13):
            assert _outcome(pow, a, k) == _outcome(pow, ra, k), (a, k)
        if isinstance(a, ExtReal):
            assert _outcome(ExtReal.sqrt, a) == _outcome(RefReal.sqrt, ra), a


def test_kernel_guard_covers_the_special_branches():
    # the pool reaches the Smith prescale (|b| above 2^500 and below 2^-500)
    # and both divisions by exact zero, so the identity tests above see them
    big = ExtComplex(2.0 ** 600, -2.0 ** 590)
    assert math.frexp(abs(big.re.hi))[1] > 500
    want = _ext_bits(RefComplex(1.0, 2.0) / RefComplex(2.0 ** 600, -2.0 ** 590))
    assert _ext_bits(ExtComplex(1.0, 2.0) / big) == want
    assert _outcome(operator.truediv, ExtComplex(1.0), ExtComplex(-0.0, 0.0)) \
        == ("raised", "DivisionByZero", "extended complex division by exact zero")
    assert _outcome(operator.truediv, 1.0, ExtReal(-0.0, 0.0)) \
        == ("raised", "DivisionByZero", "extended real division by exact zero")
