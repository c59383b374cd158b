"""Precision-generic real and complex scalars.

Two lanes share one set of algorithms downstream: native ``float`` /
``complex``, and an extended ~32-digit lane built from pairs of doubles
(``ExtReal`` / ``ExtComplex``).  The extended types overload the arithmetic
operators and promote native operands, so series and Newton kernels are
written once and run in either lane.  The DFT kernels run the same
double-double arithmetic element-wise on float64 arrays (``dd_*`` /
``cdd_*``), with twiddles from a per-size table of ``root_of_unity``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivisionByZero, InvalidArgument

DOUBLE = "double"
EXTENDED = "extended"

_EPS_DOUBLE = 2.220446049250313e-16
_EPS_EXTENDED = 4.930380657631324e-32  # 2^-104

# Dekker splitter for 53-bit doubles: 2^27 + 1.
_SPLITTER = 134217729.0


# ---------------------------------------------------------------------------
# error-free transformations
# ---------------------------------------------------------------------------

def two_sum(a: float, b: float):
    """Return (s, e) with s = fl(a+b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    """two_sum specialization valid when |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def split(a: float):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float):
    """Return (p, e) with p = fl(a*b) and a * b = p + e exactly."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# ---------------------------------------------------------------------------
# double-double real arithmetic
# ---------------------------------------------------------------------------

class ExtReal:
    """Unevaluated sum hi + lo of two doubles, |lo| <= ulp(hi)/2."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @classmethod
    def from_value(cls, v) -> "ExtReal":
        if isinstance(v, ExtReal):
            return v
        if isinstance(v, (int, float)):
            return cls(float(v), 0.0)
        raise InvalidArgument(f"cannot promote {type(v).__name__} to ExtReal")

    # -- promotion helper ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtReal):
            return other
        if isinstance(other, (int, float)):
            return ExtReal(float(other), 0.0)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, ExtComplex)):
                return ExtComplex(self, ExtReal()) + other
            return NotImplemented
        s1, s2 = two_sum(self.hi, o.hi)
        t1, t2 = two_sum(self.lo, o.lo)
        s2 += t1
        s1, s2 = quick_two_sum(s1, s2)
        s2 += t2
        s1, s2 = quick_two_sum(s1, s2)
        return ExtReal(s1, s2)

    __radd__ = __add__

    def __neg__(self):
        return ExtReal(-self.hi, -self.lo)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, ExtComplex)):
                return ExtComplex(self, ExtReal()) - other
            return NotImplemented
        return self.__add__(ExtReal(-o.hi, -o.lo))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, ExtComplex)):
                return other - ExtComplex(self, ExtReal())
            return NotImplemented
        return o.__add__(ExtReal(-self.hi, -self.lo))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, ExtComplex)):
                return ExtComplex(self, ExtReal()) * other
            return NotImplemented
        p1, p2 = two_prod(self.hi, o.hi)
        p2 += self.hi * o.lo + self.lo * o.hi
        p1, p2 = quick_two_sum(p1, p2)
        return ExtReal(p1, p2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, ExtComplex)):
                return ExtComplex(self, ExtReal()) / other
            return NotImplemented
        return _dd_div(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (complex, ExtComplex)):
                return other / ExtComplex(self, ExtReal())
            return NotImplemented
        return _dd_div(o, self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _ipow_generic(self, k, ExtReal(1.0))

    def __abs__(self):
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    def sqrt(self) -> "ExtReal":
        return _dd_sqrt(self)

    # -- comparisons (hi is the rounded value, so (hi, lo) orders correctly) --

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        if self.hi != o.hi:
            return -1 if self.hi < o.hi else 1
        if self.lo != o.lo:
            return -1 if self.lo < o.lo else 1
        return 0

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __ne__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c != 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash((self.hi, self.lo))

    # -- conversions ----------------------------------------------------------

    def __float__(self):
        return self.hi + self.lo

    def __complex__(self):
        return complex(self.hi + self.lo, 0.0)

    def __repr__(self):
        return f"ExtReal({self.hi!r}, {self.lo!r})"


def _dd_add_float(a: ExtReal, b: float) -> ExtReal:
    s1, s2 = two_sum(a.hi, b)
    s2 += a.lo
    s1, s2 = quick_two_sum(s1, s2)
    return ExtReal(s1, s2)


def _dd_mul_float(a: ExtReal, b: float) -> ExtReal:
    p1, p2 = two_prod(a.hi, b)
    p2 += a.lo * b
    p1, p2 = quick_two_sum(p1, p2)
    return ExtReal(p1, p2)


def _dd_div(a: ExtReal, b: ExtReal) -> ExtReal:
    if b.hi == 0.0 and b.lo == 0.0:
        raise DivisionByZero("extended real division by exact zero")
    q1 = a.hi / b.hi
    r = a - _dd_mul_float(b, q1)
    q2 = r.hi / b.hi
    r = r - _dd_mul_float(b, q2)
    q3 = r.hi / b.hi
    s, e = quick_two_sum(q1, q2)
    return _dd_add_float(ExtReal(s, e), q3)


def _dd_sqrt(a: ExtReal) -> ExtReal:
    if a.hi == 0.0 and a.lo == 0.0:
        return ExtReal()
    if a.hi < 0.0:
        raise InvalidArgument("sqrt of negative extended real")
    x = 1.0 / math.sqrt(a.hi)
    ax = a.hi * x
    p, e = two_prod(ax, ax)
    d = a - ExtReal(p, e)
    err = d.hi * x * 0.5
    s, lo = quick_two_sum(ax, err)
    return ExtReal(s, lo)


# ---------------------------------------------------------------------------
# double-double trigonometry (enough for roots of unity)
# ---------------------------------------------------------------------------

_TWO_PI = ExtReal(6.283185307179586, 2.4492935982947064e-16)
_PI_HALF = ExtReal(1.5707963267948966, 6.123233995736766e-17)


def _dd_sin_taylor(x: ExtReal) -> ExtReal:
    # |x| <= pi/4; terms fall below the lane noise floor after ~14 rounds
    sq = x * x
    term = x
    total = x
    k = 1
    while abs(term.hi) > 1e-35:
        term = term * sq
        term = _dd_div(term, ExtReal(-float((2 * k) * (2 * k + 1))))
        total = total + term
        k += 1
    return total


def _dd_cos_taylor(x: ExtReal) -> ExtReal:
    sq = x * x
    term = ExtReal(1.0)
    total = ExtReal(1.0)
    k = 1
    while abs(term.hi) > 1e-35:
        term = term * sq
        term = _dd_div(term, ExtReal(-float((2 * k - 1) * (2 * k))))
        total = total + term
        k += 1
    return total


def _dd_sincos(angle: ExtReal):
    """sin/cos of angle in [0, 2*pi) via quadrant reduction."""
    q = int(round(float(_dd_div(angle, _PI_HALF))))
    r = angle - _PI_HALF * ExtReal(float(q))
    s = _dd_sin_taylor(r)
    c = _dd_cos_taylor(r)
    q &= 3
    if q == 0:
        return s, c
    if q == 1:
        return c, -s
    if q == 2:
        return -s, -c
    return -c, s


# ---------------------------------------------------------------------------
# double-double complex arithmetic
# ---------------------------------------------------------------------------

class ExtComplex:
    """Complex number with ExtReal components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0.0, im=0.0):
        self.re = re if isinstance(re, ExtReal) else ExtReal.from_value(re)
        self.im = im if isinstance(im, ExtReal) else ExtReal.from_value(im)

    @classmethod
    def from_value(cls, v) -> "ExtComplex":
        if isinstance(v, ExtComplex):
            return v
        if isinstance(v, complex):
            return cls(ExtReal(v.real), ExtReal(v.imag))
        if isinstance(v, (int, float, ExtReal)):
            return cls(ExtReal.from_value(v), ExtReal())
        raise InvalidArgument(f"cannot promote {type(v).__name__} to ExtComplex")

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtComplex):
            return other
        if isinstance(other, (int, float, complex, ExtReal)):
            return ExtComplex.from_value(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExtComplex(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtComplex(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtComplex(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _cdd_div(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _cdd_div(o, self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _ipow_generic(self, k, ExtComplex(1.0))

    def __abs__(self) -> ExtReal:
        return _dd_sqrt(self.re * self.re + self.im * self.im)

    def conjugate(self) -> "ExtComplex":
        return ExtComplex(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExtComplex({self.re!r}, {self.im!r})"


def _ldexp_ext(x: ExtReal, e: int) -> ExtReal:
    return ExtReal(math.ldexp(x.hi, e), math.ldexp(x.lo, e))


def _cdd_div(a: ExtComplex, b: ExtComplex) -> ExtComplex:
    # Smith's scaling: divide through by the larger component of b
    if b.re.hi == 0.0 and b.re.lo == 0.0 and b.im.hi == 0.0 and b.im.lo == 0.0:
        raise DivisionByZero("extended complex division by exact zero")
    # exact power-of-two prescale keeps the denominator away from the range edge
    m = max(abs(b.re.hi), abs(b.im.hi))
    _, ex = math.frexp(m)
    if ex > 500 or ex < -500:
        b = ExtComplex(_ldexp_ext(b.re, -ex), _ldexp_ext(b.im, -ex))
        q = _cdd_div(a, b)
        return ExtComplex(_ldexp_ext(q.re, -ex), _ldexp_ext(q.im, -ex))
    if abs(b.re.hi) >= abs(b.im.hi):
        r = _dd_div(b.im, b.re)
        den = b.re + b.im * r
        return ExtComplex(_dd_div(a.re + a.im * r, den),
                          _dd_div(a.im - a.re * r, den))
    r = _dd_div(b.re, b.im)
    den = b.im + b.re * r
    return ExtComplex(_dd_div(a.re * r + a.im, den),
                      _dd_div(a.im * r - a.re, den))


def _ipow_generic(base, k: int, one):
    if k < 0:
        return one / _ipow_generic(base, -k, one)
    result = one
    b = base
    n = k
    while n:
        if n & 1:
            result = result * b
        b = b * b
        n >>= 1
    return result


def root_of_unity(n: int, k: int) -> ExtComplex:
    """exp(2*pi*i*k/n) to extended accuracy; k is reduced mod n first."""
    if n < 1:
        raise InvalidArgument("root_of_unity needs n >= 1")
    k = k % n
    if (4 * k) % n == 0:
        quarter = (4 * k) // n
        if quarter == 0:
            return ExtComplex(1.0, 0.0)
        if quarter == 1:
            return ExtComplex(0.0, 1.0)
        if quarter == 2:
            return ExtComplex(-1.0, 0.0)
        return ExtComplex(0.0, -1.0)
    angle = _TWO_PI * _dd_div(ExtReal(float(k)), ExtReal(float(n)))
    s, c = _dd_sincos(angle)
    return ExtComplex(c, s)


# 16 sizes cover every transform length one run uses; the bound keeps a
# long-lived caller that tries many lengths from growing without limit
@functools.lru_cache(maxsize=16)
def roots_of_unity(n: int) -> tuple:
    """Twiddle table of root_of_unity(n, k), k = 0..n-1, as read-only
    float64 arrays (re.hi, re.lo, im.hi, im.lo); built on first use."""
    table = np.empty((4, n))
    for k in range(n):
        w = root_of_unity(n, k)
        table[:, k] = (w.re.hi, w.re.lo, w.im.hi, w.im.lo)
    table.flags.writeable = False
    return tuple(table)


# ---------------------------------------------------------------------------
# element-wise double-double on float64 arrays
# ---------------------------------------------------------------------------
# A complex array is the 4-tuple (re.hi, re.lo, im.hi, im.lo).  Each function
# repeats the matching ExtReal/ExtComplex operator step for step, so every
# element carries the same bits the operator would give.

def dd_add(a_hi, a_lo, b_hi, b_lo):
    """ExtReal.__add__ element-wise."""
    s1, s2 = two_sum(a_hi, b_hi)
    t1, t2 = two_sum(a_lo, b_lo)
    s1, s2 = quick_two_sum(s1, s2 + t1)
    return quick_two_sum(s1, s2 + t2)


def dd_mul(a_hi, a_lo, b_hi, b_lo):
    """ExtReal.__mul__ element-wise."""
    p1, p2 = two_prod(a_hi, b_hi)
    return quick_two_sum(p1, p2 + (a_hi * b_lo + a_lo * b_hi))


def dd_div_float(a_hi, a_lo, b: float):
    """ExtReal.__truediv__ by a nonzero float, element-wise."""
    q1 = a_hi / b
    r_hi, r_lo = _sub_float_product(a_hi, a_lo, b, q1)
    q2 = r_hi / b
    r_hi, r_lo = _sub_float_product(r_hi, r_lo, b, q2)
    q3 = r_hi / b
    s, e = quick_two_sum(q1, q2)
    s1, s2 = two_sum(s, q3)
    return quick_two_sum(s1, s2 + e)


def _sub_float_product(a_hi, a_lo, b: float, q):
    """a - _dd_mul_float(ExtReal(b), q); the 0.0 is ExtReal(b).lo."""
    p1, p2 = two_prod(b, q)
    p1, p2 = quick_two_sum(p1, p2 + 0.0 * q)
    return dd_add(a_hi, a_lo, -p1, -p2)


def cdd_add(a, b):
    """ExtComplex.__add__ element-wise."""
    return dd_add(a[0], a[1], b[0], b[1]) + dd_add(a[2], a[3], b[2], b[3])


def cdd_sub(a, b):
    """ExtComplex.__sub__ element-wise."""
    return cdd_add(a, tuple(-p for p in b))


def cdd_mul(a, b):
    """ExtComplex.__mul__ element-wise."""
    ii_hi, ii_lo = dd_mul(a[2], a[3], b[2], b[3])
    re = dd_add(*dd_mul(a[0], a[1], b[0], b[1]), -ii_hi, -ii_lo)
    im = dd_add(*dd_mul(a[0], a[1], b[2], b[3]),
                *dd_mul(a[2], a[3], b[0], b[1]))
    return re + im


# ---------------------------------------------------------------------------
# lane helpers shared by downstream modules
# ---------------------------------------------------------------------------

def scalar_eps(precision: str) -> float:
    if precision == DOUBLE:
        return _EPS_DOUBLE
    if precision == EXTENDED:
        return _EPS_EXTENDED
    raise InvalidArgument(f"unknown precision {precision!r}")


def promote(value, precision: str):
    """Convert any supported number to the lane's complex scalar type."""
    if precision == DOUBLE:
        return complex(value)
    if precision == EXTENDED:
        return ExtComplex.from_value(value)
    raise InvalidArgument(f"unknown precision {precision!r}")


def is_extended(value) -> bool:
    return isinstance(value, (ExtReal, ExtComplex))


def float_magnitude(z) -> float:
    """|z| rounded to a native float (threshold and pivot comparisons)."""
    if isinstance(z, ExtComplex):
        return abs(complex(z))
    if isinstance(z, ExtReal):
        return abs(float(z))
    return abs(z)


def real_part(z):
    if isinstance(z, ExtComplex):
        return z.re
    if isinstance(z, ExtReal):
        return z
    return complex(z).real


def imag_part(z):
    if isinstance(z, ExtComplex):
        return z.im
    if isinstance(z, ExtReal):
        return 0.0
    return complex(z).imag
