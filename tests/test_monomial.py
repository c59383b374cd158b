"""Integer normal forms and exact binomial solving."""

import cmath
import math
import random

import numpy as np
import pytest

from singradar.errors import (
    InvalidArgument,
    NotApplicable,
    OverflowRisk,
    SingularExponentMatrix,
)
from singradar.monomial import (
    IntMatrix,
    det,
    hermite_normal_form,
    identity,
    smith_normal_form,
    solve_binomial,
)
from singradar.polysys import MONOMIAL4_MATRIX


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def power_eval(entries, x, j):
    acc = complex(1.0)
    for i in range(len(entries)):
        e = entries[i][j]
        if e:
            acc *= x[i] ** e
    return acc


def check_hermite(a, nf):
    n = a.n
    h = nf.normal.entries
    assert (a @ nf.u) == nf.normal
    assert abs(det(nf.u)) == 1
    assert all(h[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    assert all(h[i][i] > 0 for i in range(n))
    assert all(0 <= h[i][j] < h[i][i] for i in range(n) for j in range(i))


def check_smith(a, sf):
    n = a.n
    s = sf.normal.entries
    assert (sf.u @ a @ sf.v) == sf.normal
    assert abs(det(sf.u)) == 1
    assert abs(det(sf.v)) == 1
    assert all(s[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    diag = [s[i][i] for i in range(n)]
    assert all(x > 0 for x in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(n - 1))
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(det(a))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_det_known_values():
    assert det(identity(4)) == 1
    assert det(IntMatrix([[3]])) == 3
    assert det(IntMatrix([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert det(IntMatrix([list(r) for r in MONOMIAL4_MATRIX])) == -42


def test_det_matches_cofactor_expansion():
    random.seed(11)
    for _ in range(200):
        n = random.randint(1, 4)
        rows = [[random.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(rows)) == cofactor_det(rows)


def test_det_row_swap_flips_sign():
    a = [[0, 2, 1], [5, 1, 0], [3, 3, 7]]
    b = [a[1], a[0], a[2]]
    assert det(IntMatrix(a)) == -det(IntMatrix(b))


def test_non_square_rejected():
    with pytest.raises(InvalidArgument):
        IntMatrix([[1, 2], [3, 4], [5, 6]])


# ---------------------------------------------------------------------------
# Hermite form
# ---------------------------------------------------------------------------

def test_hermite_identity():
    nf = hermite_normal_form(identity(3))
    assert nf.normal == identity(3)
    assert nf.u == identity(3)


def test_hermite_already_triangular():
    a = IntMatrix([[2, 0], [0, 3]])
    nf = hermite_normal_form(a)
    assert nf.normal == a
    assert nf.u == identity(2)


def test_hermite_exponent_matrix():
    a = IntMatrix([list(r) for r in MONOMIAL4_MATRIX])
    nf = hermite_normal_form(a)
    check_hermite(a, nf)
    assert nf.normal.entries == [[7, 0, 0, 0], [0, 1, 0, 0],
                                 [2, 2, 3, 0], [0, 0, 1, 2]]
    prod = 1
    for i in range(4):
        prod *= nf.normal.entries[i][i]
    assert prod == 42


def test_hermite_singular_rejected():
    with pytest.raises(SingularExponentMatrix):
        hermite_normal_form(IntMatrix([[1, 2], [2, 4]]))


def test_hermite_overflow_guard():
    big = 1 << 63
    with pytest.raises(OverflowRisk):
        hermite_normal_form(IntMatrix([[big, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# Smith form
# ---------------------------------------------------------------------------

def test_smith_identity():
    sf = smith_normal_form(identity(3))
    assert sf.normal == identity(3)


def test_smith_diagonal_with_divisibility():
    a = IntMatrix([[2, 0], [0, 4]])
    sf = smith_normal_form(a)
    assert sf.normal.entries == [[2, 0], [0, 4]]
    assert (sf.u @ a @ sf.v) == sf.normal


def test_smith_exponent_matrix():
    a = IntMatrix([list(r) for r in MONOMIAL4_MATRIX])
    sf = smith_normal_form(a)
    check_smith(a, sf)
    assert [sf.normal.entries[i][i] for i in range(4)] == [1, 1, 1, 42]


def test_smith_singular_rejected():
    with pytest.raises(SingularExponentMatrix):
        smith_normal_form(IntMatrix([[0, 0], [0, 0]]))


def test_smith_divisor_entry_terminates():
    # entries dividing the pivot once ping-ponged the sweep forever
    a = IntMatrix([[1, 8, 1], [-2, -8, 0], [-3, 2, -4]])
    sf = smith_normal_form(a)
    check_smith(a, sf)
    assert [sf.normal.entries[i][i] for i in range(3)] == [1, 1, 60]


def test_normal_forms_random_family():
    random.seed(20260815)
    cases = 0
    for _ in range(1400):
        n = random.randint(1, 5)
        a = IntMatrix([[random.randint(-9, 9) for _ in range(n)]
                       for _ in range(n)])
        if det(a) == 0:
            continue
        cases += 1
        if cases > 1000:
            break
        check_hermite(a, hermite_normal_form(a))
        check_smith(a, smith_normal_form(a))
    assert cases > 1000


# ---------------------------------------------------------------------------
# binomial solving
# ---------------------------------------------------------------------------

def test_solve_square_root_pair():
    sols = solve_binomial(IntMatrix([[2]]), (1,))
    assert len(sols) == 2
    assert abs(sols[0][0] - 1) == 0
    assert abs(sols[1][0] + 1) <= 1e-15


def test_solve_identity_exponents():
    sols = solve_binomial(IntMatrix([[1, 0], [0, 1]]), (5, 7j))
    assert len(sols) == 1
    assert abs(sols[0][0] - 5) <= 1e-14
    assert abs(sols[0][1] - 7j) <= 1e-13


def test_solve_zero_rhs_rejected():
    with pytest.raises(NotApplicable):
        solve_binomial(IntMatrix([[2]]), (0,))


def test_solve_non_finite_rhs_rejected():
    for bad in (math.nan, math.inf, complex(1.0, math.inf),
                complex(math.nan, 0.0)):
        with pytest.raises(InvalidArgument):
            solve_binomial(IntMatrix([[2]]), (bad,))


def test_solve_rhs_with_overflowing_square_rejected():
    # finite, but |c|^2 overflows: rejected before the polish squares it
    for a, c in (([[2]], (complex(1e308, 1e308),)),
                 ([[1]], (complex(1.7e308, 1.7e308),)),
                 ([[1, 0], [0, 1]], (1e200, 1e200))):
        with pytest.raises(InvalidArgument):
            solve_binomial(IntMatrix(a), c)
    # the largest right-hand side whose square stays finite still solves
    roots = solve_binomial(IntMatrix([[2]]), (1e154,))
    assert len(roots) == 2
    for (x,) in roots:
        assert abs(x * x - 1e154) <= 1e-15 * 1e154


def test_int_matrix_accepts_only_integers():
    assert IntMatrix([[True, np.int64(2)], [0, -3]]).entries == [[1, 2], [0, -3]]
    for bad in (2.5, 2.0, "2", None):
        with pytest.raises(InvalidArgument):
            IntMatrix([[1, bad], [0, 1]])


def test_solve_singular_rejected():
    with pytest.raises(SingularExponentMatrix):
        solve_binomial(IntMatrix([[1, 1], [1, 1]]), (1, 1))


def test_solve_rhs_length_mismatch():
    with pytest.raises(InvalidArgument):
        solve_binomial(IntMatrix([[2]]), (1, 1))


def test_solve_42_solutions_with_unit_point():
    a = IntMatrix([list(r) for r in MONOMIAL4_MATRIX])
    sols = solve_binomial(a, (1, 1, 1, 1))
    assert len(sols) == 42
    assert min(max(abs(x - 1) for x in s) for s in sols) == 0
    for s in sols:
        for j in range(4):
            assert abs(power_eval(a.entries, s, j) - 1) <= 1e-12
    for k, s1 in enumerate(sols):
        for s2 in sols[k + 1:]:
            assert max(abs(p - q) for p, q in zip(s1, s2)) > 1e-8


def test_solve_random_family():
    random.seed(20260815)
    cases = solved = 0
    for _ in range(1400):
        n = random.randint(1, 5)
        a = IntMatrix([[random.randint(-9, 9) for _ in range(n)]
                       for _ in range(n)])
        d = det(a)
        if d == 0:
            continue
        cases += 1
        if cases > 1000:
            break
        if abs(d) > 120:
            continue
        solved += 1
        c = [cmath.exp(2j * math.pi * random.random()) for _ in range(n)]
        norm_c = math.sqrt(sum(abs(v) ** 2 for v in c))
        sols = solve_binomial(a, c)
        assert len(sols) == abs(d)
        for k, s1 in enumerate(sols):
            for s2 in sols[k + 1:]:
                assert max(abs(p - q) for p, q in zip(s1, s2)) > 1e-8
        for s in sols:
            for j in range(n):
                err = abs(power_eval(a.entries, s, j) - c[j])
                assert err <= 1e-12 * norm_c
    assert solved > 400
