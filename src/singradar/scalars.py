"""Precision-generic real and complex scalars.

Two lanes share one set of algorithms downstream: native ``float`` /
``complex``, and an extended ~32-digit lane built from pairs of doubles
(``ExtReal`` / ``ExtComplex``).  The extended types overload the arithmetic
operators and promote native operands, so series and Newton kernels are
written once and run in either lane.

Each double-double formula exists once, as a kernel on plain floats
(``dd_*`` on (hi, lo) pairs, ``cdd_*`` on (re.hi, re.lo, im.hi, im.lo)
4-tuples).  The ``ExtReal``/``ExtComplex`` operators unpack their operands
and call these kernels; the DFT transforms call the same kernels
element-wise on float64 arrays, with twiddles from a per-size table of
``root_of_unity``.  An ExtComplex whose four parts are equal-shape float64
arrays holds one value per element; the operators act on it element by
element with the same bits as on each value alone, except that a negative
power takes its reciprocal from ``cdd_recip``. The circle samples are
refined in that form.
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


def two_prod(a: float, b: float):
    """Return (p, e) with p = fl(a*b) and a * b = p + e exactly.

    Both factors are split into 26-bit halves with Dekker's splitter."""
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# ---------------------------------------------------------------------------
# double-double kernels on floats or float64 arrays
# ---------------------------------------------------------------------------

def dd_add(a_hi, a_lo, b_hi, b_lo):
    """(a_hi + a_lo) + (b_hi + b_lo)."""
    s1, s2 = two_sum(a_hi, b_hi)
    t1, t2 = two_sum(a_lo, b_lo)
    s1, s2 = quick_two_sum(s1, s2 + t1)
    return quick_two_sum(s1, s2 + t2)


def dd_mul(a_hi, a_lo, b_hi, b_lo):
    """(a_hi + a_lo) * (b_hi + b_lo)."""
    p1, p2 = two_prod(a_hi, b_hi)
    return quick_two_sum(p1, p2 + (a_hi * b_lo + a_lo * b_hi))


def dd_div(a_hi, a_lo, b_hi: float, b_lo: float):
    """(a_hi + a_lo) / (b_hi + b_lo) for a scalar divisor: three quotient
    digits, each from the remainder left by the previous ones."""
    if b_hi == 0.0 and b_lo == 0.0:
        raise DivisionByZero("extended real division by exact zero")
    return _dd_quotient(a_hi, a_lo, b_hi, b_lo)


def _dd_quotient(a_hi, a_lo, b_hi, b_lo):
    """dd_div without its zero check, so the divisor may be an array too;
    the caller rules out a zero divisor."""
    q1 = a_hi / b_hi
    r_hi, r_lo = _sub_product(a_hi, a_lo, b_hi, b_lo, q1)
    q2 = r_hi / b_hi
    r_hi, r_lo = _sub_product(r_hi, r_lo, b_hi, b_lo, q2)
    q3 = r_hi / b_hi
    s, e = quick_two_sum(q1, q2)
    s1, s2 = two_sum(s, q3)
    return quick_two_sum(s1, s2 + e)


def _sub_product(a_hi, a_lo, b_hi, b_lo, q):
    """a - b * q for a double-double b and a double q."""
    p1, p2 = two_prod(b_hi, q)
    p1, p2 = quick_two_sum(p1, p2 + b_lo * q)
    return dd_add(a_hi, a_lo, -p1, -p2)


def dd_sqrt(a_hi: float, a_lo: float):
    """Square root of a scalar: one Newton step on 1/sqrt(a_hi)."""
    if a_hi == 0.0 and a_lo == 0.0:
        return 0.0, 0.0
    if a_hi < 0.0:
        raise InvalidArgument("sqrt of negative extended real")
    x = 1.0 / math.sqrt(a_hi)
    ax = a_hi * x
    p, e = two_prod(ax, ax)
    d_hi, _ = dd_add(a_hi, a_lo, -p, -e)
    return quick_two_sum(ax, d_hi * x * 0.5)


def cdd_add(a, b):
    """a + b."""
    return dd_add(a[0], a[1], b[0], b[1]) + dd_add(a[2], a[3], b[2], b[3])


def cdd_sub(a, b):
    """a - b."""
    return (dd_add(a[0], a[1], -b[0], -b[1])
            + dd_add(a[2], a[3], -b[2], -b[3]))


def cdd_mul(a, b):
    """a * b: (ar br - ai bi) + (ar bi + ai br) i."""
    ii_hi, ii_lo = dd_mul(a[2], a[3], b[2], b[3])
    re = dd_add(*dd_mul(a[0], a[1], b[0], b[1]), -ii_hi, -ii_lo)
    im = dd_add(*dd_mul(a[0], a[1], b[2], b[3]),
                *dd_mul(a[2], a[3], b[0], b[1]))
    return re + im


def cdd_div(a, b):
    """a / b for scalars, with Smith's scaling: divide through by the larger
    component of b."""
    if b[0] == 0.0 and b[1] == 0.0 and b[2] == 0.0 and b[3] == 0.0:
        raise DivisionByZero("extended complex division by exact zero")
    # exact power-of-two prescale keeps the denominator away from the range edge
    _, ex = math.frexp(max(abs(b[0]), abs(b[2])))
    if ex > 500 or ex < -500:
        q = cdd_div(a, tuple(math.ldexp(p, -ex) for p in b))
        return tuple(math.ldexp(p, -ex) for p in q)
    if abs(b[0]) >= abs(b[2]):
        r = dd_div(b[2], b[3], b[0], b[1])
        den = dd_add(b[0], b[1], *dd_mul(b[2], b[3], *r))
        re_hi, re_lo = dd_add(a[0], a[1], *dd_mul(a[2], a[3], *r))
        im_hi, im_lo = dd_mul(a[0], a[1], *r)
        im_hi, im_lo = dd_add(a[2], a[3], -im_hi, -im_lo)
    else:
        r = dd_div(b[0], b[1], b[2], b[3])
        den = dd_add(b[2], b[3], *dd_mul(b[0], b[1], *r))
        re_hi, re_lo = dd_add(*dd_mul(a[0], a[1], *r), a[2], a[3])
        im_hi, im_lo = dd_add(*dd_mul(a[2], a[3], *r), -a[0], -a[1])
    return dd_div(re_hi, re_lo, *den) + dd_div(im_hi, im_lo, *den)


def cdd_recip(b):
    """1 / b element-wise for float64-array parts: the double reciprocal r
    of the hi parts, refined by one Newton step r + r (1 - b r), which
    squares its relative error."""
    z = b[0] + 1j * b[2]
    if not z.all():
        raise DivisionByZero("extended complex division by exact zero")
    r = 1.0 / z
    r = (r.real, 0.0, r.imag, 0.0)
    return cdd_add(r, cdd_mul(r, cdd_sub((1.0, 0.0, 0.0, 0.0), cdd_mul(b, r))))


def _power(mul, one, base, k: int):
    """base**k for k >= 0 by binary powering over the kernel mul."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _dd_mul_pairs(a, b):
    return dd_mul(a[0], a[1], b[0], b[1])


# ---------------------------------------------------------------------------
# double-double real and complex scalars
# ---------------------------------------------------------------------------

_new = object.__new__


def _real(hi: float, lo: float) -> "ExtReal":
    """ExtReal from two floats, without the constructor's conversions."""
    r = _new(ExtReal)
    r.hi = hi
    r.lo = lo
    return r


def _complex(q) -> "ExtComplex":
    """ExtComplex from a kernel 4-tuple."""
    z = _new(ExtComplex)
    z.re = _real(q[0], q[1])
    z.im = _real(q[2], q[3])
    return z


def _pair(v):
    """(hi, lo) of a real operand, or None for any other type."""
    if isinstance(v, ExtReal):
        return v.hi, v.lo
    if isinstance(v, (int, float)):
        return float(v), 0.0
    return None


def _quad(v):
    """(re.hi, re.lo, im.hi, im.lo) of any numeric operand, or None."""
    if isinstance(v, ExtComplex):
        re, im = v.re, v.im
        return re.hi, re.lo, im.hi, im.lo
    if isinstance(v, complex):
        return float(v.real), 0.0, float(v.imag), 0.0
    p = _pair(v)
    return None if p is None else p + (0.0, 0.0)


class ExtReal:
    """Unevaluated sum hi + lo of two doubles, |lo| <= ulp(hi)/2.

    A real operand (int, float, ExtReal) gives an ExtReal; a complex one
    (complex, ExtComplex) promotes self to ExtComplex."""

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

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        b = _pair(other)
        if b is not None:
            return _real(*dd_add(self.hi, self.lo, *b))
        if isinstance(other, (complex, ExtComplex)):
            return _complex(cdd_add(_quad(self), _quad(other)))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _real(-self.hi, -self.lo)

    def __sub__(self, other):
        b = _pair(other)
        if b is not None:
            return _real(*dd_add(self.hi, self.lo, -b[0], -b[1]))
        if isinstance(other, (complex, ExtComplex)):
            return _complex(cdd_sub(_quad(self), _quad(other)))
        return NotImplemented

    def __rsub__(self, other):
        a = _pair(other)
        if a is not None:
            return _real(*dd_add(*a, -self.hi, -self.lo))
        if isinstance(other, (complex, ExtComplex)):
            return _complex(cdd_sub(_quad(other), _quad(self)))
        return NotImplemented

    def __mul__(self, other):
        b = _pair(other)
        if b is not None:
            return _real(*dd_mul(self.hi, self.lo, *b))
        if isinstance(other, (complex, ExtComplex)):
            return _complex(cdd_mul(_quad(self), _quad(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _pair(other)
        if b is not None:
            return _real(*dd_div(self.hi, self.lo, *b))
        if isinstance(other, (complex, ExtComplex)):
            return _complex(cdd_div(_quad(self), _quad(other)))
        return NotImplemented

    def __rtruediv__(self, other):
        a = _pair(other)
        if a is not None:
            return _real(*dd_div(*a, self.hi, self.lo))
        if isinstance(other, (complex, ExtComplex)):
            return _complex(cdd_div(_quad(other), _quad(self)))
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        p = _power(_dd_mul_pairs, (1.0, 0.0), (self.hi, self.lo), abs(k))
        return _real(*(dd_div(1.0, 0.0, *p) if k < 0 else p))

    def __abs__(self):
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    def sqrt(self) -> "ExtReal":
        return _real(*dd_sqrt(self.hi, self.lo))

    def __eq__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return self.hi == o[0] and self.lo == o[1]

    def __hash__(self):
        return hash((self.hi, self.lo))

    # -- conversions ----------------------------------------------------------

    def __float__(self):
        return self.hi + self.lo

    def __complex__(self):
        return complex(self.hi + self.lo, 0.0)

    def __repr__(self):
        return f"ExtReal({self.hi!r}, {self.lo!r})"


class ExtComplex:
    """Complex number with ExtReal components; any numeric operand is
    promoted with zero imaginary part."""

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

    def __add__(self, other):
        b = _quad(other)
        if b is None:
            return NotImplemented
        return _complex(cdd_add(_quad(self), b))

    __radd__ = __add__

    def __neg__(self):
        re, im = self.re, self.im
        return _complex((-re.hi, -re.lo, -im.hi, -im.lo))

    def __sub__(self, other):
        b = _quad(other)
        if b is None:
            return NotImplemented
        return _complex(cdd_sub(_quad(self), b))

    def __rsub__(self, other):
        a = _quad(other)
        if a is None:
            return NotImplemented
        return _complex(cdd_sub(a, _quad(self)))

    def __mul__(self, other):
        b = _quad(other)
        if b is None:
            return NotImplemented
        return _complex(cdd_mul(_quad(self), b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _quad(other)
        if b is None:
            return NotImplemented
        return _complex(cdd_div(_quad(self), b))

    def __rtruediv__(self, other):
        a = _quad(other)
        if a is None:
            return NotImplemented
        return _complex(cdd_div(a, _quad(self)))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        one = (1.0, 0.0, 0.0, 0.0)
        p = _power(cdd_mul, one, _quad(self), abs(k))
        if k < 0:
            p = cdd_recip(p) if isinstance(p[0], np.ndarray) else cdd_div(one, p)
        return _complex(p)

    def __abs__(self) -> ExtReal:
        re, im = self.re, self.im
        return _real(*dd_sqrt(*dd_add(*dd_mul(re.hi, re.lo, re.hi, re.lo),
                                      *dd_mul(im.hi, im.lo, im.hi, im.lo))))

    def conjugate(self) -> "ExtComplex":
        return ExtComplex(self.re, -self.im)

    def __eq__(self, other):
        b = _quad(other)
        if b is None:
            return NotImplemented
        re, im = self.re, self.im
        return (re.hi == b[0] and re.lo == b[1]
                and im.hi == b[2] and im.lo == b[3])

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExtComplex({self.re!r}, {self.im!r})"


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
        term = term * sq / -float((2 * k) * (2 * k + 1))
        total = total + term
        k += 1
    return total


def _dd_cos_taylor(x: ExtReal) -> ExtReal:
    sq = x * x
    term = ExtReal(1.0)
    total = ExtReal(1.0)
    k = 1
    while abs(term.hi) > 1e-35:
        term = term * sq / -float((2 * k - 1) * (2 * k))
        total = total + term
        k += 1
    return total


def _dd_sincos(angle: ExtReal):
    """sin/cos of angle in [0, 2*pi) via quadrant reduction."""
    q = int(round(float(angle / _PI_HALF)))
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


def _root_of_unity(n: int, k: int) -> ExtComplex:
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
    angle = _TWO_PI * (ExtReal(float(k)) / ExtReal(float(n)))
    s, c = _dd_sincos(angle)
    return ExtComplex(c, s)


# The circle walk asks for the same angles on every circle it samples;
# callers share the cached objects, which are never mutated. The bound keeps
# a long-lived caller that tries many sizes from growing without limit.
root_of_unity = functools.lru_cache(maxsize=4096)(_root_of_unity)


# 16 sizes cover every transform length one run uses; the bound keeps a
# long-lived caller that tries many lengths from growing without limit
@functools.lru_cache(maxsize=16)
def roots_of_unity(n: int) -> tuple:
    """Twiddle table of root_of_unity(n, k), k = 0..n-1, as read-only
    float64 arrays (re.hi, re.lo, im.hi, im.lo); built on first use, past
    the cache of single roots, which the table would flood."""
    table = np.empty((4, n))
    for k in range(n):
        table[:, k] = _quad(_root_of_unity(n, k))
    table.flags.writeable = False
    return tuple(table)


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


def lane(*values) -> str:
    """EXTENDED if any value is extended, else DOUBLE."""
    return EXTENDED if any(map(is_extended, values)) else DOUBLE


def float_magnitude(z) -> float:
    """|z| rounded to a native float (threshold and pivot comparisons); a
    float64 array of them for an ExtComplex with array parts."""
    if type(z) is complex or type(z) is float:
        return abs(z)
    if isinstance(z, ExtComplex):
        re, im = z.re, z.im
        a, b = re.hi + re.lo, im.hi + im.lo
        if isinstance(a, float):
            return abs(complex(a, b))
        return np.hypot(a, b)
    if isinstance(z, ExtReal):
        return abs(float(z))
    return abs(z)
