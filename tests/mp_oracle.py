"""A 50-digit mpmath Newton oracle for points of a homotopy path.

``exact_point(h, t, x)`` solves h(x, t) = 0 at the exact t, from a seed x
near the root. q(t) is evaluated in mpmath from every term's stored
coefficients, so it carries none of the rounding of a double or
double-double Horner sum, and a chart t = t0 + r*s maps s with the double
r = 1 - t0 that ``polysys.term_values`` uses. It is the reference for
the double-double points ``tracker._refine`` produces, to the tolerance
``lift_tolerance`` states.
"""

import mpmath

from singradar.scalars import ExtComplex, ExtReal


def mp_value(v):
    """v, extended or native, as an mpmath complex, both parts exact."""
    if isinstance(v, ExtComplex):
        return mpmath.mpc(mpmath.mpf(v.re.hi) + mpmath.mpf(v.re.lo),
                          mpmath.mpf(v.im.hi) + mpmath.mpf(v.im.lo))
    if isinstance(v, ExtReal):
        return mpmath.mpc(mpmath.mpf(v.hi) + mpmath.mpf(v.lo))
    return mpmath.mpc(v)


def mp_residual(h, x, t):
    """The original homotopy h(x, t) and its Jacobian in mpmath, from the
    stored t_coeffs and monomials; the chart is not used."""
    f = [mpmath.mpc(0)] * h.dim
    jac = mpmath.zeros(h.dim, h.dim)
    for i, eq in enumerate(h.equations):
        for term in eq:
            q = mpmath.polyval([mpmath.mpc(c) for c in term.t_coeffs[::-1]], t)
            for mono in term.poly:
                c = q * mpmath.mpc(mono.coefficient)
                f[i] += c * mpmath.fprod(v ** e for v, e in
                                         zip(x, mono.exponents))
                for j, e in enumerate(mono.exponents):
                    if e:
                        jac[i, j] += c * e * mpmath.fprod(
                            v ** (d - (k == j)) for k, (v, d) in
                            enumerate(zip(x, mono.exponents)))
    return f, jac


def mp_solve(h, x, t):
    """Newton on the original h at t from x, to 50 digits."""
    x = mpmath.matrix(x)
    for _ in range(8):
        f, jac = mp_residual(h, list(x), t)
        delta = mpmath.lu_solve(jac, mpmath.matrix(f))
        x -= delta
        if mpmath.norm(delta) <= mpmath.mpf(10) ** -45 * mpmath.norm(x):
            return list(x)
    raise AssertionError("mpmath Newton did not converge")


def _original_t(h, t):
    s = mp_value(t)
    if h.t0 == 0.0:
        return s
    return mpmath.mpf(h.t0) + mpmath.mpf(1.0 - h.t0) * s


def exact_point(h, t, x):
    """The root of h(., t) near the seed x at 50 digits, t in h's chart,
    taken exactly (float, complex or extended)."""
    with mpmath.workdps(50):
        return mp_solve(h, [mp_value(v) for v in x], _original_t(h, t))


def lift_tolerance(h, t) -> float:
    """The relative distance a lifted point may keep from exact_point:
    1e-28, or where it is larger the error bound of q's Horner sum in
    double-double, 1e-31 (gamma_8 of Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 5.1, for degree 4) times the sum's
    condition sum_k |c_k| |t|^k / |q(t)|, largest over the terms (a term
    whose every summand is zero is exact). An expanded q such as cusp's
    (t - 1)^4 near t = 1 needs the second."""
    cond = 0.0
    with mpmath.workdps(50):
        t = _original_t(h, t)
        for eq in h.equations:
            for term in eq:
                size = sum(abs(c) * abs(t) ** k
                           for k, c in enumerate(term.t_coeffs))
                if size:
                    q = mpmath.polyval(list(term.t_coeffs[::-1]), t)
                    cond = max(cond, float(size / abs(q)))
    return max(1e-28, 1e-31 * cond)


def relative_error(got, want) -> float:
    """max_i |got_i - want_i| over max_i |want_i|, at 50 digits."""
    with mpmath.workdps(50):
        moved = max(abs(mp_value(a) - b) for a, b in zip(got, want))
        return float(moved / max(abs(b) for b in want))
