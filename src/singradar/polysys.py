"""Sparse polynomial homotopies in one form.

A homotopy h(x, t) is a square system whose every equation is a sum of
terms q(t)*P(x): q is a coefficient polynomial in t (ascending powers) and
P a sparse polynomial in x, whose exponents may be negative. The inputs
lower into terms as follows:

* a monomial whose coefficient is a polynomial in t (``explicit_t``, and
  the binomial equations x^a = c(t) of ``monomial``) is the one-monomial
  term q(t)*x^a (``TMonomial``);
* the gamma-convex blend gamma*(1-t)*g(x) + t*f(x) (``gamma_convex``) is
  the two terms (gamma - gamma*t)*g_i(x) and t*f_i(x) per equation.

A homotopy's chart t = t0 + (1 - t0)*s (the identity t0 = 0 unless
``radar.recondition`` set it) leaves every q in the original t:
``term_values``, the one place q is evaluated, substitutes t0 + (1 - t0)*s
in the lane of s (double in Newton and the walk, double-double arrays in
``tracker._refine``) and skips the identity.

``evaluate`` and ``jacobian`` call two straight-line programs that each
Homotopy generates of itself on construction (``_programs``). They repeat a
loop over equations, terms and monomials in its order, so every value keeps
its bits, a zero's sign included: each power x_i^e is formed once per call
(``x[i] ** e``, or ``_power``, which rejects a zero base, for e < 0), and
coefficients are names bound in the programs' namespace, not printed in
their source. The residual program also returns each equation's size
sum_terms |q(t)*P(x)| under ``float_magnitude``. Using only ``*``, ``+``
and ``**``, one program serves scalar doubles and double-doubles and
``tracker._refine``'s array-part ExtComplex values. The q(t) of every term
(``term_values``) can be computed once per t and passed in.

The third program, ``correct``, is ``tracker.newton_correct``'s double
Newton loop over the same blocks (sizes under ``abs``) and ``_solver``, so
each iterate keeps its bits. Homotopies of one shape share the code.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass

from .errors import (EvaluationSingular, InvalidArgument, NoConvergence,
                     SingularJacobian)
from .scalars import float_magnitude

# after the package's own modules, as in fourier
import numpy as np

# the tag homotopy_to_json writes; "gamma_convex" and "monomial" are read too
EXPLICIT_T = "explicit_t"

# Reproducible default for the gamma trick; unit modulus to 15 digits.
DEFAULT_GAMMA = complex(-0.917153159675641, -0.398534919043474)


@dataclass
class Monomial:
    coefficient: object
    exponents: tuple

    def __post_init__(self):
        try:
            self.exponents = tuple(operator.index(e) for e in self.exponents)
        except TypeError:
            raise InvalidArgument("exponents must be integers") from None


@dataclass
class PolySystem:
    dim: int
    equations: list

    def __post_init__(self):
        for eq in self.equations:
            for mono in eq:
                if len(mono.exponents) != self.dim:
                    raise InvalidArgument("exponent vector length != dim")


@dataclass
class Term:
    """q(t)*P(x): t_coeffs ascending in t, poly a tuple of Monomials in x."""

    t_coeffs: tuple
    poly: tuple

    def __post_init__(self):
        self.t_coeffs = tuple(self.t_coeffs)
        self.poly = tuple(self.poly)
        if not self.t_coeffs or not self.poly:
            raise InvalidArgument("a term needs t_coeffs and monomials")


def TMonomial(t_coeffs, exponents) -> Term:
    """The one-monomial term q(t)*x^exponents."""
    return Term(t_coeffs, (Monomial(1.0, exponents),))


@dataclass
class Homotopy:
    dim: int
    gamma: complex
    equations: list
    t0: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgument("a homotopy needs at least one unknown")
        if len(self.equations) != self.dim:
            raise InvalidArgument("a homotopy needs one equation per unknown")
        if not all(self.equations):
            raise InvalidArgument("every equation needs at least one term")
        if not all(any(any(term.t_coeffs) and any(m.coefficient for m in
                       term.poly) for term in eq) for eq in self.equations):
            raise InvalidArgument("an equation is identically zero")
        self._residual, self._jacobian, self._correct = _programs(
            self.equations)
        # read by fourier.sample_circle's mirror rule (Schwarz reflection)
        self.real_coefficients = complex(self.t0).imag == 0.0 and all(
            complex(c).imag == 0.0 for eq in self.equations for term in eq
            for c in (*term.t_coeffs, *(m.coefficient for m in term.poly)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _power(base, e: int):
    """base ** e for a negative e; a zero base is singular."""
    if np.any(float_magnitude(base) == 0.0):
        raise EvaluationSingular("negative exponent at zero coordinate")
    return base ** e


def _product(coefficient: str, exponents, powers: dict, lines: list) -> str:
    """coefficient times the powers x_i ** e of the nonzero exponents; the
    first use of a power in a program appends the line forming it."""
    factors = [coefficient]
    for i, e in enumerate(exponents):
        if e != 0:
            if (i, e) not in powers:
                powers[i, e] = "w%d" % len(powers)
                form = "x[%d] ** %d" if e > 0 else "_power(x[%d], %d)"
                lines.append(powers[i, e] + " = " + form % (i, e))
            factors.append(powers[i, e])
    return " * ".join(factors)


@functools.cache
def _solver(n: int):
    """The elimination for n unknowns as a straight-line program over locals
    m<i>_<j> (b<i> the right-hand side), in the loop's order of operations;
    entries left of a pivot, never read again, are not updated."""
    m = [["m%d_%d" % (i, j) for j in range(n)] + ["b%d" % i] for i in range(n)]
    code = ["[%s] = jac" % ", ".join("[%s]" % ", ".join(r[:n]) for r in m),
            "[%s] = rhs" % ", ".join(r[n] for r in m),
            "floor = 1e3 * eps * max((%s), default=0.0)" % "".join(
                "abs(%s), " % v for r in m for v in r[:n])]
    if n == 1:
        code.insert(2, "if 0.0 < abs(m0_0) < inf: return [b0 / m0_0]")
    for col in range(n):
        code.append("piv, largest = %d, abs(%s)" % (col, m[col][col]))
        code += ["if (size := abs(%s)) > largest: piv, largest = %d, size"
                 % (m[r][col], r) for r in range(col + 1, n)]
        code.append("if largest <= floor: raise SingularJacobian("
                    "'jacobian pivot below the precision floor')")
        code += ["%s piv == %d: %s = %s" % ("elif" if r > col + 1 else "if", r,
                 ", ".join(m[col][col:] + m[r][col:]),
                 ", ".join(m[r][col:] + m[col][col:]))
                 for r in range(col + 1, n)]
        for r in range(col + 1, n):
            code.append("factor = %s / %s" % (m[r][col], m[col][col]))
            code += ["%s = %s - factor * %s" % (m[r][j], m[r][j], m[col][j])
                     for j in range(col + 1, n + 1)]
    code += ["o%d = (%s%s) / %s" % (i, m[i][n], "".join(
        " - %s * o%d" % (m[i][j], j) for j in range(i + 1, n)), m[i][i])
        for i in reversed(range(n))]
    code.append("return [%s]" % ", ".join("o%d" % i for i in range(n)))
    namespace = {"inf": np.inf, "SingularJacobian": SingularJacobian}
    exec(compile("def solve(jac, rhs, eps):\n    " + "\n    ".join(code),
                 "<solve %d>" % n, "exec"), namespace)
    return namespace["solve"]


def _programs(equations) -> tuple:
    """The straight-line programs residual(x, q) -> (values, sizes) and
    jacobian(x, q) -> rows of a square system, and the double corrector
    correct(x, q, tol, eps, budget, history) (module docstring)."""
    n = len(equations)
    namespace = {"_power": _power, "float_magnitude": float_magnitude,
                 "_solve": _solver(n), "inf": np.inf,
                 "NoConvergence": NoConvergence}
    unpack, residual, jac, residual_powers, jac_powers, rows = (
        [], [], [], {}, {}, [])
    for i, eq in enumerate(equations):
        q_names = ["q%d_%d" % (i, k) for k in range(len(eq))]
        unpack.append("[%s] = q[%d]" % (", ".join(q_names), i))
        residual.append("a%d = s%d = 0.0" % (i, i))
        row = ["0.0"] * n
        for term, q in zip(eq, q_names):
            for m, mono in enumerate(term.poly):
                if len(mono.exponents) != n:
                    raise InvalidArgument("exponent vector length != dim")
                c = "c%d" % len(namespace)
                namespace[c] = mono.coefficient
                residual.append("p = " + ("p + " if m else "") + _product(
                    c, mono.exponents, residual_powers, residual))
                for j, e in enumerate(mono.exponents):
                    if e != 0:
                        d = (*mono.exponents[:j], e - 1,
                             *mono.exponents[j + 1:])
                        v = _product(c, d, jac_powers, jac)
                        jac.append("j%d_%d = %s + %s * %d * (%s)"
                                   % (i, j, row[j], q, e, v))
                        row[j] = "j%d_%d" % (i, j)
            residual += ["value = %s * p" % q, "a%d = a%d + value" % (i, i),
                         "s%d = s%d + {mag}(value)" % (i, i)]
        rows.append("[%s]" % ", ".join(row))
    a, s, r, o = ([name + str(i) for i in range(n)] for name in "asro")
    source = _SOURCE % {
        "unpack": _block(unpack, 1), "jacobian": _block(jac, 1),
        "residual": _block(residual, 1, "float_magnitude"),
        "rows": "[%s]" % ", ".join(rows), "a": ", ".join(a),
        "s": ", ".join(s), "r": ", ".join(r), "o": ", ".join(o),
        "abs": ", ".join("abs(%s)" % v for v in a),
        "largest": "max(%s)" % ", ".join(r) if n > 1 else r[0],
        "finite": " and ".join(v + " < inf" for v in s),
        "within": " & ".join("(%s <= tol * %s)" % v for v in zip(r, s)),
        "loop_residual": _block(residual, 2, "abs"),
        "loop_jacobian": _block(jac, 2),
        "update": ", ".join("x[%d] - o%d" % (i, i) for i in range(n))}
    exec(_compiled(source), namespace)
    return namespace["residual"], namespace["jacobian"], namespace["correct"]


def _block(lines: list, depth: int, mag: str = "") -> str:
    """Each line on a new line, depth levels in; mag is the sizes' |.|."""
    return "".join("\n" + "    " * depth + line.format(mag=mag)
                   for line in lines)


# correct: every size finite, then every equation within tol (& compares
# all), then one polish step; max(r0, ...) is max(map(abs, values)).
_SOURCE = """\
def residual(x, q):%(unpack)s%(residual)s
    return [%(a)s], [%(s)s]
def jacobian(x, q):%(unpack)s%(jacobian)s
    return %(rows)s
def correct(x, q, tol, eps, budget, history):%(unpack)s
    it, polish = 0, False
    while True:%(loop_residual)s
        %(r)s = %(abs)s
        if polish:
            after = %(largest)s
            return (x, after, it) if after < residual else (y, residual, it)
        if not (%(finite)s):
            raise NoConvergence("newton iterate overflows the homotopy")
        if %(within)s:
            residual = %(largest)s
            if residual == 0.0:
                return x, residual, it
            polish, y = True, x
        elif it == budget:
            raise NoConvergence("newton iteration budget exhausted")\
%(loop_jacobian)s
        [%(o)s] = _solve(%(rows)s, [%(a)s], eps)
        x = [%(update)s]
        if not polish:
            if history is not None:
                history.append(list(x))
            it += 1
"""


@functools.lru_cache(maxsize=64)
def _compiled(source: str):
    """The programs' code object, compiled once per source text: homotopies
    that differ only in their coefficients (a chart, a gamma) share it."""
    return compile(source, "<homotopy programs>", "exec")


def evalpoly(coeffs, t):
    """Horner's rule; coeffs in ascending powers of t."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc


def term_values(h: Homotopy, s):
    """q(t) of every term at t = t0 + (1 - t0)*s, equation by equation."""
    t = s if h.t0 == 0.0 else h.t0 + (1.0 - h.t0) * s
    return [[evalpoly(term.t_coeffs, t) for term in eq] for eq in h.equations]


def evaluate(h: Homotopy, x, t, q=None, scales: list | None = None):
    """Residual vector h(x, t); q is term_values(h, t), passed by a caller
    that evaluates at one t more than once. When a list is passed as scales,
    each equation's size sum_terms |q(t)*P(x)| is appended to it: the
    yardstick of a relative residual test."""
    if len(x) != h.dim:
        raise InvalidArgument("point dimension mismatch")
    if q is None:
        q = term_values(h, t)
    values, sizes = h._residual(x, q)
    if scales is not None:
        scales += sizes
    return values


def jacobian(h: Homotopy, x, t, q=None):
    """Matrix of partials d h_i / d x_j at (x, t); q as in evaluate."""
    if len(x) != h.dim:
        raise InvalidArgument("point dimension mismatch")
    if q is None:
        q = term_values(h, t)
    return h._jacobian(x, q)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def make_gamma_homotopy(f: PolySystem, g: PolySystem, gamma) -> Homotopy:
    """gamma*(1-t)*g(x) + t*f(x), from start system g to target f."""
    if f.dim != g.dim or len(f.equations) != len(g.equations):
        raise InvalidArgument("target and start dimensions differ")
    if not abs(float_magnitude(gamma) - 1.0) <= 1e-14:  # NaN fails too
        raise InvalidArgument("gamma must have unit modulus")
    gamma = complex(gamma)
    return Homotopy(dim=f.dim, gamma=gamma, equations=[
        [Term((gamma, -gamma), g_eq), Term((0.0, 1.0), f_eq)]
        for f_eq, g_eq in zip(f.equations, g.equations)])


def _no_gamma_override():
    return InvalidArgument("gamma override requires a gamma-convex homotopy")


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

MONOMIAL4_MATRIX = (
    (7, 7, 0, 0),
    (7, 3, 5, 7),
    (7, 2, 1, 2),
    (7, 0, 1, 2),
)


def _sqrt_fixture(gamma=1.0) -> Homotopy:
    f = PolySystem(1, [[Monomial(1.0, (2,))]])
    g = PolySystem(1, [[Monomial(1.0, (2,)), Monomial(-1.0, (0,))]])
    return make_gamma_homotopy(f, g, gamma)


def _cusp_fixture() -> Homotopy:
    # x^2 - (t - 1)^4
    eq = [TMonomial((1.0,), (2,)),
          TMonomial((-1.0, 4.0, -6.0, 4.0, -1.0), (0,))]
    return Homotopy(dim=1, gamma=1.0, equations=[eq])


def _monomial4_fixture() -> Homotopy:
    equations = [[TMonomial((1.0,), col), TMonomial((-1.0, 1.0), (0, 0, 0, 0))]
                 for col in zip(*MONOMIAL4_MATRIX)]
    return Homotopy(dim=4, gamma=1.0, equations=equations)


def _ojika1_fixture() -> Homotopy:
    # quadratic relaxation gamma*(1-t)^2*g(x) + t^2*f(x) of the target
    # f = (x^2 + y - 3, x + y^2/8 - 3/2) from the start g = (x^2 - 1, y^2 - 1)
    f = (((1.0, (2, 0)), (1.0, (0, 1)), (-3.0, (0, 0))),
         ((1.0, (1, 0)), (0.125, (0, 2)), (-1.5, (0, 0))))
    g = (((1.0, (2, 0)), (-1.0, (0, 0))),
         ((1.0, (0, 2)), (-1.0, (0, 0))))
    gamma = DEFAULT_GAMMA
    equations = []
    for f_eq, g_eq in zip(f, g):
        eq = []
        for a, exps in g_eq:
            c = gamma * a
            eq.append(TMonomial((c, -2 * c, c), exps))
        for a, exps in f_eq:
            eq.append(TMonomial((0.0, 0.0, a), exps))
        equations.append(eq)
    return Homotopy(dim=2, gamma=gamma, equations=equations)


_FIXTURES = {
    "sqrt": _sqrt_fixture,
    "cusp": _cusp_fixture,
    "monomial4": _monomial4_fixture,
    "ojika1": _ojika1_fixture,
}


def fixture(name: str, gamma=None) -> Homotopy:
    """The named fixture; gamma replaces the blend constant of the
    gamma-convex one (sqrt) and is an error for the others."""
    if name not in _FIXTURES:
        raise InvalidArgument(f"unknown fixture {name!r}")
    if gamma is None:
        return _FIXTURES[name]()
    if name != "sqrt":
        raise _no_gamma_override()
    return _sqrt_fixture(gamma)


def _unit_exponents(term: Term):
    """a when the term is q(t)*x^a with unit coefficient, else None."""
    if len(term.poly) == 1 and term.poly[0].coefficient == 1.0:
        return term.poly[0].exponents
    return None


def _require_identity_chart(h: Homotopy):
    if h.t0 != 0.0:
        raise InvalidArgument("the t_coeffs of a reconditioned homotopy are "
                              "not in its parameter s")


def binomial_parts(h: Homotopy):
    """Exponent columns a_i and right-hand sides c_i(t) of the binomial
    equations x^{a_i} = c_i(t), given as x^{a_i} - c_i(t) = 0."""
    _require_identity_chart(h)
    cols = []
    rhs = []
    for eq in h.equations:
        exps = [_unit_exponents(term) for term in eq]
        if len(eq) != 2 or None in exps or any(exps[0]) == any(exps[1]):
            raise InvalidArgument("binomial equation must pair x^a with a "
                                  "constant")
        i = 0 if any(exps[0]) else 1
        if eq[i].t_coeffs != (1.0,):
            raise InvalidArgument("binomial equation must have x^a unscaled")
        cols.append(exps[i])
        rhs.append(tuple(-c for c in eq[1 - i].t_coeffs))
    return cols, rhs


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _re_im(c) -> dict:
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def _term_to_json(term: Term) -> dict:
    out = {"t_coeffs": [[complex(c).real, complex(c).imag]
                        for c in term.t_coeffs]}
    exps = _unit_exponents(term)
    if exps is not None:
        out["exp"] = list(exps)
    else:
        out["poly"] = [dict(_re_im(m.coefficient), exp=list(m.exponents))
                       for m in term.poly]
    return out


def homotopy_to_json(h: Homotopy) -> dict:
    """The explicit_t shape: every term is {"t_coeffs", "exp"} for q(t)*x^a,
    or {"t_coeffs", "poly"} for q(t)*P(x)."""
    _require_identity_chart(h)
    return {"form": EXPLICIT_T, "dim": h.dim,
            "gamma": _re_im(h.gamma),
            "equations": [[_term_to_json(term) for term in eq]
                          for eq in h.equations]}


def _coefficient_from_json(re, im) -> complex:
    c = complex(re, im)
    if not cmath.isfinite(c):
        raise InvalidArgument("homotopy coefficients must be finite")
    return c


def _exponents_from_json(exps) -> tuple:
    if not all(type(e) is int for e in exps):
        raise InvalidArgument("exponents must be integers")
    return tuple(exps)


def _mono_from_json(d: dict) -> Monomial:
    return Monomial(_coefficient_from_json(d["re"], d.get("im", 0.0)),
                    _exponents_from_json(d["exp"]))


def _term_from_json(d: dict) -> Term:
    t_coeffs = [_coefficient_from_json(re, im) for re, im in d["t_coeffs"]]
    if "poly" in d:
        return Term(t_coeffs, [_mono_from_json(m) for m in d["poly"]])
    return TMonomial(t_coeffs, _exponents_from_json(d["exp"]))


def _system_from_json(d: dict) -> PolySystem:
    return PolySystem(int(d["dim"]), [[_mono_from_json(m) for m in eq]
                                      for eq in d["equations"]])


def _homotopy_from_json(d: dict, gamma) -> Homotopy:
    form = d["form"]
    if gamma is None:
        gamma = (_coefficient_from_json(d["gamma"]["re"], d["gamma"]["im"])
                 if "gamma" in d else 1.0)
    elif form != "gamma_convex":
        raise _no_gamma_override()
    if form == "gamma_convex":
        return make_gamma_homotopy(_system_from_json(d["target"]),
                                   _system_from_json(d["start"]), gamma)
    if form not in ("monomial", EXPLICIT_T):
        raise InvalidArgument(f"unknown homotopy form {form!r}")
    return Homotopy(dim=int(d["dim"]), gamma=gamma,
                    equations=[[_term_from_json(term) for term in eq]
                               for eq in d["equations"]])


def homotopy_from_json(d: dict, gamma=None) -> Homotopy:
    """Read the explicit_t, monomial or gamma_convex shape; gamma replaces
    the blend constant of a gamma_convex one and is an error for the others.

    Any malformed input raises InvalidArgument."""
    try:
        return _homotopy_from_json(d, gamma)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"malformed homotopy: {exc!r}") from exc
