"""Precision-generic real and complex scalars.

Two lanes share one set of algorithms downstream: native ``float`` /
``complex``, and an extended ~32-digit lane built from pairs of doubles
(``ExtReal`` / ``ExtComplex``), which serves the Fabry ratios and the
Richardson table, the circle's angles, an extended point's residual and
the values the API returns.

Each double-double formula exists once, as a kernel on plain floats or
float64 arrays (``dd_*`` on (hi, lo) pairs, ``cdd_*`` on (re.hi, re.lo,
im.hi, im.lo) quads), and so does each rule of the scalar types:

- promotion (``_promoted``) reads a real operand (int, float, ExtReal) as
  a pair (``_pair``) and any numeric one as a quad (``_quad``);
- the binary operators (``_operator``) put two real operands through the
  pair kernel, giving an ExtReal, and any complex one through the quad
  kernel, giving an ExtComplex;
- equality and hashing (``_equal``, ``_hash``) compare quads, so an
  extended value equals, and hashes as, a float or complex of its value.

The roots of unity, the only trigonometry, come from ``roots_of_unity(n)``:
its angles, quadrant reduction and sin / cos Taylor loop run on the kernels
over all n entries at once, each entry with the bits of its own scalar
operations; ``root_of_unity(n, k)`` reads entry k mod n of that table.

An ExtComplex whose four parts are equal-shape float64 arrays holds one
value per element; the operators act on it element by element with the
same bits as on each value alone (the circle samples are refined so).
``cdd_div`` keeps a scalar body beside its array body: a Python float
raises where an array gives inf or NaN, so the scalar branches decide the
error (a NaN divisor is DivisionByZero), which one element-wise body
would not keep.
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


def dd_sub(a_hi, a_lo, b_hi, b_lo):
    """(a_hi + a_lo) - (b_hi + b_lo)."""
    return dd_add(a_hi, a_lo, -b_hi, -b_lo)


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
    return dd_sub(a[0], a[1], b[0], b[1]) + dd_sub(a[2], a[3], b[2], b[3])


def cdd_mul(a, b):
    """a * b: (ar br - ai bi) + (ar bi + ai br) i."""
    ii_hi, ii_lo = dd_mul(a[2], a[3], b[2], b[3])
    re = dd_add(*dd_mul(a[0], a[1], b[0], b[1]), -ii_hi, -ii_lo)
    im = dd_add(*dd_mul(a[0], a[1], b[2], b[3]),
                *dd_mul(a[2], a[3], b[0], b[1]))
    return re + im


def cdd_div(a, b):
    """a / b with Smith's scaling: divide through by the larger component of
    b. Array parts take _cdd_div_arrays, each element the scalar's bits."""
    if isinstance(b[0], np.ndarray):
        return _cdd_div_arrays(a, b)
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


def _cdd_div_arrays(a, b):
    """cdd_div on float64-array parts of b: each element takes the scalar's
    zero check, prescale and branch (selected operands): the scalar's bits."""
    if not np.logical_or.reduce(b).all():
        raise DivisionByZero("extended complex division by exact zero")
    _, ex = np.frexp(np.where(abs(b[2]) > abs(b[0]), abs(b[2]), abs(b[0])))
    ex = np.where((ex > 500) | (ex < -500), ex, 0)
    b = tuple(np.ldexp(p, -ex) for p in b)
    wide = abs(b[0]) >= abs(b[2])

    def pick(x, y):
        return tuple(np.where(wide, p, q) for p, q in zip(x, y))

    r = _dd_quotient(*pick(b[2:], b[:2]), *pick(b[:2], b[2:]))
    den = dd_add(*pick(b[:2], b[2:]), *dd_mul(*pick(b[2:], b[:2]), *r))
    m_re = dd_mul(*pick(a[2:], a[:2]), *r)
    m_im = dd_mul(*pick(a[:2], a[2:]), *r)
    re = dd_add(*pick(a[:2], m_re), *pick(m_re, a[2:]))
    im = dd_add(*pick(a[2:], m_im), *(-p for p in pick(m_im, a[:2])))
    q = _dd_quotient(*re, *den) + _dd_quotient(*im, *den)
    return tuple(np.ldexp(p, -ex) for p in q)


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


def _promoted(parts, v, name: str):
    """The promotion rule: parts(v), parts being _pair or _quad; an operand
    it cannot read is an InvalidArgument naming the target type."""
    p = parts(v)
    if p is None:
        raise InvalidArgument(f"cannot promote {type(v).__name__} to {name}")
    return p


def _operator(cdd, dd=None, reflected: bool = False):
    """The binary-operator rule, as a method: a complex operand (complex,
    ExtComplex) takes the quad kernel cdd and gives an ExtComplex, two real
    operands (int, float, ExtReal) take the pair kernel dd, which only
    ExtReal's methods have, and give an ExtReal, and any other operand gives
    NotImplemented; reflected swaps the operands.

    A method made here, not a named one calling a shared helper, keeps
    each operation one frame above its kernel (the helper's extra call
    would slow every operation still made one value at a time, such as
    the extended lane's Fabry ratios and richardson's table); the kernel
    keeps its own profile row and traceback line."""

    def op(self, other):
        if dd is not None:
            b = _pair(other)
            if b is not None:
                return _real(*(dd(*b, self.hi, self.lo) if reflected
                               else dd(self.hi, self.lo, *b)))
        b = _quad(other)
        if b is None:
            return NotImplemented
        a = _quad(self)
        return _complex(cdd(b, a) if reflected else cdd(a, b))

    return op


def _equal(self, other):
    """The equality rule: the quads of both operands agree part by part."""
    b = _quad(other)
    if b is None:
        return NotImplemented
    a = _quad(self)
    return a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and a[3] == b[3]


def _hash(self):
    """The hash rule, consistent with _equal and with float and complex: a
    value whose lo parts are zero hashes as complex(re.hi, im.hi)."""
    q = _quad(self)
    return hash(complex(q[0], q[2]) if q[1] == 0.0 and q[3] == 0.0 else q)


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
        return _real(*_promoted(_pair, v, "ExtReal"))

    # -- arithmetic (+ and * commute: their reflected forms are the same) ----

    __add__ = __radd__ = _operator(cdd_add, dd_add)
    __sub__ = _operator(cdd_sub, dd_sub)
    __rsub__ = _operator(cdd_sub, dd_sub, reflected=True)
    __mul__ = __rmul__ = _operator(cdd_mul, dd_mul)
    __truediv__ = _operator(cdd_div, dd_div)
    __rtruediv__ = _operator(cdd_div, dd_div, reflected=True)
    __eq__ = _equal
    __hash__ = _hash

    def __neg__(self):
        return _real(-self.hi, -self.lo)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        p = _power(_dd_mul_pairs, (1.0, 0.0), (self.hi, self.lo), abs(k))
        return _real(*(dd_div(1.0, 0.0, *p) if k < 0 else p))

    def __abs__(self):
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    def sqrt(self) -> "ExtReal":
        return _real(*dd_sqrt(self.hi, self.lo))

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
        self.re = ExtReal.from_value(re)
        self.im = ExtReal.from_value(im)

    @classmethod
    def from_value(cls, v) -> "ExtComplex":
        return _complex(_promoted(_quad, v, "ExtComplex"))

    __add__ = __radd__ = _operator(cdd_add)
    __sub__ = _operator(cdd_sub)
    __rsub__ = _operator(cdd_sub, reflected=True)
    __mul__ = __rmul__ = _operator(cdd_mul)
    __truediv__ = _operator(cdd_div)
    __rtruediv__ = _operator(cdd_div, reflected=True)
    __eq__ = _equal
    __hash__ = _hash

    def __neg__(self):
        re, im = self.re, self.im
        return _complex((-re.hi, -re.lo, -im.hi, -im.lo))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        one = (1.0, 0.0, 0.0, 0.0)
        p = _power(cdd_mul, one, _quad(self), abs(k))
        if k < 0:
            p = cdd_div(one, p)
        return _complex(p)

    def __abs__(self) -> ExtReal:
        re, im = self.re, self.im
        return _real(*dd_sqrt(*dd_add(*dd_mul(re.hi, re.lo, re.hi, re.lo),
                                      *dd_mul(im.hi, im.lo, im.hi, im.lo))))

    def conjugate(self) -> "ExtComplex":
        return ExtComplex(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExtComplex({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
_PI_HALF = (1.5707963267948966, 6.123233995736766e-17)
# x + _ROUND - _ROUND rounds 0 <= x < 2^51 to an integer, half to even
_ROUND = 6755399441055744.0  # 1.5 * 2^52


def _dd_taylor(x, term, j: int):
    """The Taylor loop of sin x (term = x, j = 1) and cos x (term = 1,
    j = 0) over (hi, lo) arrays: each next term is the last times
    -x^2 / ((j + 1)(j + 2)), j stepping by 2; each element stops at its own
    first term with |hi| <= 1e-35, for |x| <= pi/4 after ~14 rounds."""
    sq = dd_mul(*x, *x)
    total = term
    live = abs(term[0]) > 1e-35
    while live.any():
        term = dd_div(*dd_mul(*term, *sq), -float((j + 1) * (j + 2)), 0.0)
        total = tuple(np.where(live, a, b)
                      for a, b in zip(dd_add(*total, *term), total))
        live &= abs(term[0]) > 1e-35
        j += 2
    return total


# 16 sizes cover the transform lengths and subdivided circles of one run;
# the bound keeps a long-lived caller that tries many from growing unbounded
@functools.lru_cache(maxsize=16)
def roots_of_unity(n: int) -> tuple:
    """exp(2*pi*i*k/n) to extended accuracy, k = 0..n-1, as read-only
    float64 arrays (re.hi, re.lo, im.hi, im.lo); exact where 4k/n is an
    integer, else cos + i sin of the angle 2*pi * (k/n) less q quarter
    turns (q: the angle over pi/2, rounded half to even), times i^q."""
    if n < 1:
        raise InvalidArgument("root_of_unity needs n >= 1")
    angle = dd_mul(*_TWO_PI, *dd_div(np.arange(float(n)), 0.0, float(n), 0.0))
    ratio = dd_div(*angle, *_PI_HALF)
    q = ratio[0] + ratio[1] + _ROUND - _ROUND
    r = dd_sub(*angle, *dd_mul(*_PI_HALF, q, 0.0))
    re, im = _dd_taylor(r, (np.ones(n), np.zeros(n)), 0), _dd_taylor(r, r, 1)
    for turn in range(1, 5):  # times i per quarter turn; i^4 = 1 for q = 4
        at = q >= turn
        re, im = ([np.where(at, -b, a) for a, b in zip(re, im)],
                  [np.where(at, a, b) for a, b in zip(re, im)])
    table = np.array(re + im)
    for j in range(4):
        if j * n % 4 == 0:  # k = j*n/4: exactly i^j
            table[:, j * n // 4] = (1, 0, -1, 0)[j], 0, (0, 1, 0, -1)[j], 0
    table.flags.writeable = False
    return tuple(table)


def root_of_unity(n: int, k: int) -> ExtComplex:
    """exp(2*pi*i*k/n) to extended accuracy: entry k mod n of
    roots_of_unity(n)."""
    table = roots_of_unity(n)
    k %= n
    return _complex([p.item(k) for p in table])


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
