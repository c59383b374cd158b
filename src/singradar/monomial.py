"""Integer-matrix normal forms and exact binomial-system solving.

Hermite: A*U = H with U unimodular, H lower triangular, positive diagonal.
Smith:   U*A*V = S with S diagonal and S[i][i] | S[i+1][i+1].
Both power solve_binomial, which enumerates all |det A| solutions of x^A = c.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import (
    InvalidArgument,
    NotApplicable,
    OverflowRisk,
    SingularExponentMatrix,
)
from .scalars import DOUBLE, scalar_eps
from .tracker import _solve_linear

_EPS = scalar_eps(DOUBLE)
# Entries beyond this bound abort rather than risk ambiguity downstream
# (moot for Python integers, kept as an explicit contract).
_ENTRY_BOUND = 1 << 62


@dataclass
class IntMatrix:
    entries: list

    def __post_init__(self):
        n = len(self.entries)
        try:
            self.entries = [[operator.index(v) for v in row]
                            for row in self.entries]
        except TypeError:
            raise InvalidArgument("matrix entries must be integers") from None
        for row in self.entries:
            if len(row) != n:
                raise InvalidArgument("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.entries])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        n = self.n
        a, b = self.entries, other.entries
        return IntMatrix([[sum(a[i][k] * b[k][j] for k in range(n))
                           for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries


def identity(n: int) -> IntMatrix:
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = a.n
    m = [row[:] for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass
class NormalFormResult:
    u: IntMatrix
    normal: IntMatrix
    v: IntMatrix | None = None


def _check_entries(*mats):
    for m in mats:
        for row in m:
            for val in row:
                if abs(val) > _ENTRY_BOUND:
                    raise OverflowRisk("entry grew beyond the guarded range")


def _ext_gcd(p: int, q: int):
    """g, x, y with x*p + y*q = g = gcd(p, q) >= 0."""
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _gcd_move(p: int, q: int):
    """(alpha, beta, gamma, delta) of the unimodular move (p, q) ->
    (alpha*p + beta*q, gamma*p + delta*q) that zeroes q: plain elimination
    when p divides q, which keeps p, else the Bezout move to (gcd, 0)."""
    if p != 0 and q % p == 0:
        return 1, 0, -(q // p), 1
    g, x, y = _ext_gcd(p, q)
    return x, y, -(q // g), p // g


def _combine_cols(mats, j, k, alpha, beta, gamma, delta):
    """(col_j, col_k) <- (alpha*col_j + beta*col_k, gamma*col_j + delta*col_k)
    in every matrix of mats."""
    for mat in mats:
        for row in mat:
            cj, ck = row[j], row[k]
            row[j] = alpha * cj + beta * ck
            row[k] = gamma * cj + delta * ck


# ---------------------------------------------------------------------------
# Hermite normal form (column operations: A * U = H)
# ---------------------------------------------------------------------------

def hermite_normal_form(a: IntMatrix) -> NormalFormResult:
    if det(a) == 0:
        raise SingularExponentMatrix("exponent matrix is singular")
    n = a.n
    h = a.copy().entries
    u = identity(n).entries
    for i in range(n):
        # gcd column moves clear row i to the right of the pivot
        for j in range(i + 1, n):
            if h[i][j]:
                _combine_cols((h, u), i, j, *_gcd_move(h[i][i], h[i][j]))
        if h[i][i] < 0:
            for mat in (h, u):
                for row in mat:
                    row[i] = -row[i]
        # reduce earlier columns so 0 <= h[i][j] < h[i][i] for j < i
        for j in range(i):
            _combine_cols((h, u), j, i, 1, -(h[i][j] // h[i][i]), 0, 1)
        _check_entries(h, u)
    return NormalFormResult(u=IntMatrix(u), normal=IntMatrix(h))


# ---------------------------------------------------------------------------
# Smith normal form (row and column operations: U * A * V = S)
# ---------------------------------------------------------------------------

def smith_normal_form(a: IntMatrix) -> NormalFormResult:
    if det(a) == 0:
        raise SingularExponentMatrix("exponent matrix is singular")
    n = a.n
    s = a.copy().entries
    u = identity(n).entries
    v = identity(n).entries

    def row_combine(i, k, alpha, beta, gamma, delta):
        for mat in (s, u):
            ri, rk = mat[i][:], mat[k][:]
            mat[i] = [alpha * x + beta * y for x, y in zip(ri, rk)]
            mat[k] = [gamma * x + delta * y for x, y in zip(ri, rk)]

    for i in range(n):
        while True:
            if s[i][i] == 0:
                r, c = next((r, c) for r in range(i, n) for c in range(i, n)
                            if s[r][c])
                if r != i:
                    row_combine(i, r, 0, 1, 1, 0)
                if c != i:
                    _combine_cols((s, v), i, c, 0, 1, 1, 0)
            # clear column i below the pivot, then row i to its right; plain
            # elimination keeps the pivot, a gcd move strictly shrinks it
            for r in range(i + 1, n):
                if s[r][i]:
                    row_combine(i, r, *_gcd_move(s[i][i], s[r][i]))
            for c in range(i + 1, n):
                if s[i][c]:
                    _combine_cols((s, v), i, c, *_gcd_move(s[i][i], s[i][c]))
            if any(s[r][i] for r in range(i + 1, n)) or \
               any(s[i][c] for c in range(i + 1, n)):
                _check_entries(s, u, v)
                continue
            # enforce divisibility: fold in any trailing entry the pivot misses
            bad = next((r for r in range(i + 1, n)
                        if any(s[r][c] % s[i][i] for c in range(i + 1, n))),
                       None)
            if bad is None:
                break
            row_combine(i, bad, 1, 1, 0, 1)
            _check_entries(s, u, v)
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            u[i] = [-x for x in u[i]]
    return NormalFormResult(u=IntMatrix(u), normal=IntMatrix(s), v=IntMatrix(v))


# ---------------------------------------------------------------------------
# binomial solving through the Smith form
# ---------------------------------------------------------------------------

def _monomial_map(point, mat: IntMatrix):
    """y_j = prod_i point_i ** mat[i][j] (column convention)."""
    n = mat.n
    out = []
    for j in range(n):
        acc = complex(1.0)
        for i in range(n):
            e = mat.entries[i][j]
            if e:
                acc *= point[i] ** e
        out.append(acc)
    return out


def _in_range(values) -> bool:
    """Every entry finite and nonzero."""
    return all(cmath.isfinite(v) and v != 0 for v in values)


def _newton_polish(a: IntMatrix, c, point):
    """Newton steps on x^A = c; large transforms amplify root rounding."""
    x = list(point)
    norm_c = math.sqrt(sum(abs(v) ** 2 for v in c))
    for _ in range(3):
        vals = _monomial_map(x, a)
        if not _in_range(vals):
            raise OverflowError("x^A leaves the double range")
        resid = [v - w for v, w in zip(vals, c)]
        if math.sqrt(sum(abs(r) ** 2 for r in resid)) <= 4e-15 * norm_c:
            break
        # in the unknowns u_i = delta_i / x_i the Jacobian is A^T
        u = _solve_linear(list(zip(*a.entries)),
                          [r / v for r, v in zip(resid, vals)], _EPS)
        x = [xi - xi * ui for xi, ui in zip(x, u)]
    return tuple(x)


def solve_binomial(a: IntMatrix, c) -> list:
    """All |det A| solutions of x^A = c, via y^S = c^V and x = y^U."""
    if det(a) == 0:
        raise SingularExponentMatrix("exponent matrix is singular")
    c = [complex(v) for v in c]
    if len(c) != a.n:
        raise InvalidArgument("right-hand side length mismatch")
    if not all(cmath.isfinite(v) for v in c):
        raise InvalidArgument("right-hand side must be finite")
    # the polish measures residuals against |c|, formed from squares
    if not math.isfinite(sum(v.real * v.real + v.imag * v.imag for v in c)):
        raise InvalidArgument("right-hand side too large: |c|^2 overflows")
    if any(v == 0 for v in c):
        raise NotApplicable("zero right-hand side component")
    nf = smith_normal_form(a)
    # the unimodular factors can carry large exponents, so c^V and the
    # solutions may leave the double range although c is well inside it
    try:
        rhs = _monomial_map(c, nf.v)
        if not _in_range(rhs):
            raise OverflowError("c^V leaves the double range")
        diag = [nf.normal.entries[i][i] for i in range(a.n)]
        axes = []
        for d_i, w in zip(diag, rhs):
            # principal root first, then increasing argument
            r = abs(w) ** (1.0 / d_i)
            theta = cmath.phase(w)
            axes.append([r * cmath.exp(1j * (theta + 2 * math.pi * k) / d_i)
                         for k in range(d_i)])
        solutions = [_newton_polish(a, c, _monomial_map(combo, nf.u))
                     for combo in itertools.product(*axes)]
        if all(_in_range(x) for x in solutions):
            return solutions
    except (OverflowError, ZeroDivisionError):
        pass
    raise InvalidArgument("the Smith transform of c leaves the double range")
