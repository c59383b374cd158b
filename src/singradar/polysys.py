"""Sparse multivariate polynomial systems and homotopies.

Three homotopy forms share one evaluation interface:

* ``gamma_convex``: gamma*(1-t)*g(x) + t*f(x),
* ``explicit_t``:   monomials whose coefficients are polynomials in t,
* ``monomial``:     binomial equations x^a = c(t), exponents may be negative.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

from .errors import EvaluationSingular, InvalidArgument
from .scalars import float_magnitude, root_of_unity

GAMMA_CONVEX = "gamma_convex"
MONOMIAL = "monomial"
EXPLICIT_T = "explicit_t"

# Reproducible default for the gamma trick; unit modulus to 15 digits.
DEFAULT_GAMMA = complex(-0.917153159675641, -0.398534919043474)


@dataclass
class Monomial:
    coefficient: object
    exponents: tuple

    def __post_init__(self):
        self.exponents = tuple(int(e) for e in self.exponents)


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
class TMonomial:
    """Monomial with a coefficient polynomial in t (ascending powers)."""

    t_coeffs: tuple
    exponents: tuple

    def __post_init__(self):
        self.t_coeffs = tuple(self.t_coeffs)
        self.exponents = tuple(int(e) for e in self.exponents)


@dataclass
class Homotopy:
    form: str
    dim: int
    target: PolySystem | None
    start: PolySystem | None
    gamma: complex
    t_equations: list | None = None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def ipow(base, e: int):
    if e == 0:
        return 1.0
    if e < 0 and float_magnitude(base) == 0.0:
        raise EvaluationSingular("negative exponent at zero coordinate")
    return base ** e


def _mono_value(exponents, x):
    acc = 1.0
    for xi, e in zip(x, exponents):
        if e != 0:
            acc = acc * ipow(xi, e)
    return acc


def evalpoly(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def evaluate_system(f: PolySystem, x):
    if len(x) != f.dim:
        raise InvalidArgument("point dimension mismatch")
    out = []
    for eq in f.equations:
        acc = 0.0
        for mono in eq:
            acc = acc + mono.coefficient * _mono_value(mono.exponents, x)
        out.append(acc)
    return out


def system_jacobian(f: PolySystem, x):
    if len(x) != f.dim:
        raise InvalidArgument("point dimension mismatch")
    n = f.dim
    rows = []
    for eq in f.equations:
        row = [0.0] * n
        for mono in eq:
            for j, e in enumerate(mono.exponents):
                if e == 0:
                    continue
                dexp = list(mono.exponents)
                dexp[j] = e - 1
                row[j] = row[j] + mono.coefficient * e * _mono_value(dexp, x)
        rows.append(row)
    return rows


def _t_equations_value(equations, x, t):
    out = []
    for eq in equations:
        acc = 0.0
        for mono in eq:
            acc = acc + evalpoly(mono.t_coeffs, t) * _mono_value(mono.exponents, x)
        out.append(acc)
    return out


def _t_equations_jacobian(equations, x, t, dim):
    rows = []
    for eq in equations:
        row = [0.0] * dim
        for mono in eq:
            c = evalpoly(mono.t_coeffs, t)
            for j, e in enumerate(mono.exponents):
                if e == 0:
                    continue
                dexp = list(mono.exponents)
                dexp[j] = e - 1
                row[j] = row[j] + c * e * _mono_value(dexp, x)
        rows.append(row)
    return rows


def evaluate(h: Homotopy, x, t):
    """Residual vector h(x, t)."""
    if len(x) != h.dim:
        raise InvalidArgument("point dimension mismatch")
    if h.form == GAMMA_CONVEX:
        gv = evaluate_system(h.start, x)
        fv = evaluate_system(h.target, x)
        w = h.gamma * (1 - t)
        return [w * gi + t * fi for gi, fi in zip(gv, fv)]
    return _t_equations_value(h.t_equations, x, t)


def jacobian(h: Homotopy, x, t):
    """Matrix of partials d h_i / d x_j at (x, t)."""
    if len(x) != h.dim:
        raise InvalidArgument("point dimension mismatch")
    if h.form == GAMMA_CONVEX:
        jg = system_jacobian(h.start, x)
        jf = system_jacobian(h.target, x)
        w = h.gamma * (1 - t)
        return [[w * jg[i][j] + t * jf[i][j] for j in range(h.dim)]
                for i in range(h.dim)]
    return _t_equations_jacobian(h.t_equations, x, t, h.dim)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def make_gamma_homotopy(f: PolySystem, g: PolySystem, gamma) -> Homotopy:
    if f.dim != g.dim or len(f.equations) != len(g.equations):
        raise InvalidArgument("target and start dimensions differ")
    if abs(float_magnitude(gamma) - 1.0) > 1e-14:
        raise InvalidArgument("gamma must have unit modulus")
    return Homotopy(form=GAMMA_CONVEX, dim=f.dim, target=f, start=g,
                    gamma=complex(gamma))


def equation_degree(eq) -> int:
    return max(sum(mono.exponents) for mono in eq)


def total_degree_start(f: PolySystem):
    """Start system g_i = x_i^{d_i} - 1 with all its roots-of-unity solutions."""
    degrees = []
    for eq in f.equations:
        d = equation_degree(eq)
        if d < 1:
            raise InvalidArgument("zero-degree equation has no start equation")
        degrees.append(d)
    n = f.dim
    equations = []
    for i, d in enumerate(degrees):
        exps = [0] * n
        exps[i] = d
        equations.append([Monomial(1.0, tuple(exps)),
                          Monomial(-1.0, (0,) * n)])
    g = PolySystem(dim=n, equations=equations)
    axes = [[complex(root_of_unity(d, k)) for k in range(d)] for d in degrees]
    points = [tuple(p) for p in itertools.product(*axes)]
    return g, points


def cyclic_system(n: int) -> PolySystem:
    """Cyclic n-roots benchmark system."""
    if n < 2:
        raise InvalidArgument("cyclic system needs n >= 2")
    equations = []
    for length in range(1, n):
        eq = []
        for j in range(n):
            exps = [0] * n
            for k in range(j, j + length):
                exps[k % n] += 1
            eq.append(Monomial(1.0, tuple(exps)))
        equations.append(eq)
    equations.append([Monomial(1.0, (1,) * n), Monomial(-1.0, (0,) * n)])
    return PolySystem(dim=n, equations=equations)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

MONOMIAL4_MATRIX = (
    (7, 7, 0, 0),
    (7, 3, 5, 7),
    (7, 2, 1, 2),
    (7, 0, 1, 2),
)


def _sqrt_fixture() -> Homotopy:
    f = PolySystem(1, [[Monomial(1.0, (2,))]])
    g = PolySystem(1, [[Monomial(1.0, (2,)), Monomial(-1.0, (0,))]])
    return make_gamma_homotopy(f, g, 1.0)


def _cusp_fixture() -> Homotopy:
    # x^2 - (t - 1)^4
    eq = [TMonomial((1.0,), (2,)),
          TMonomial((-1.0, 4.0, -6.0, 4.0, -1.0), (0,))]
    f = PolySystem(1, [[Monomial(1.0, (2,))]])
    g = PolySystem(1, [[Monomial(1.0, (2,)), Monomial(-1.0, (0,))]])
    return Homotopy(form=EXPLICIT_T, dim=1, target=f, start=g, gamma=1.0,
                    t_equations=[eq])


def _monomial4_fixture() -> Homotopy:
    a_cols = tuple(zip(*MONOMIAL4_MATRIX))
    equations = []
    for col in a_cols:
        equations.append([TMonomial((1.0,), col),
                          TMonomial((-1.0, 1.0), (0, 0, 0, 0))])
    return Homotopy(form=MONOMIAL, dim=4, target=None, start=None, gamma=1.0,
                    t_equations=equations)


def _ojika1_fixture() -> Homotopy:
    f = PolySystem(2, [
        [Monomial(1.0, (2, 0)), Monomial(1.0, (0, 1)), Monomial(-3.0, (0, 0))],
        [Monomial(1.0, (1, 0)), Monomial(0.125, (0, 2)), Monomial(-1.5, (0, 0))],
    ])
    g = PolySystem(2, [
        [Monomial(1.0, (2, 0)), Monomial(-1.0, (0, 0))],
        [Monomial(1.0, (0, 2)), Monomial(-1.0, (0, 0))],
    ])
    gamma = DEFAULT_GAMMA
    # quadratic relaxation weights: gamma*(1-t)^2 on g, t^2 on f
    equations = []
    for feq, geq in zip(f.equations, g.equations):
        eq = []
        for mono in geq:
            c = gamma * mono.coefficient
            eq.append(TMonomial((c, -2 * c, c), mono.exponents))
        for mono in feq:
            eq.append(TMonomial((0.0, 0.0, mono.coefficient), mono.exponents))
        equations.append(eq)
    return Homotopy(form=EXPLICIT_T, dim=2, target=f, start=g, gamma=gamma,
                    t_equations=equations)


_FIXTURES = {
    "sqrt": _sqrt_fixture,
    "cusp": _cusp_fixture,
    "monomial4": _monomial4_fixture,
    "ojika1": _ojika1_fixture,
}


def fixture(name: str) -> Homotopy:
    if name not in _FIXTURES:
        raise InvalidArgument(f"unknown fixture {name!r}")
    return _FIXTURES[name]()


def binomial_parts(h: Homotopy):
    """Split a monomial-form homotopy into exponent columns and rhs polys."""
    if h.form != MONOMIAL:
        raise InvalidArgument("not a monomial homotopy")
    cols = []
    rhs = []
    for eq in h.t_equations:
        if len(eq) != 2:
            raise InvalidArgument("binomial equation must have two monomials")
        lead = next((m for m in eq if any(m.exponents)), None)
        const = next((m for m in eq if not any(m.exponents)), None)
        if lead is None or const is None:
            raise InvalidArgument("binomial equation must pair x^a with a constant")
        cols.append(lead.exponents)
        rhs.append(tuple(-c for c in const.t_coeffs))
    return cols, rhs


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _mono_to_json(mono: Monomial) -> dict:
    c = complex(mono.coefficient)
    return {"re": c.real, "im": c.imag, "exp": list(mono.exponents)}


def _coefficient_from_json(re, im) -> complex:
    c = complex(re, im)
    if not cmath.isfinite(c):
        raise InvalidArgument("homotopy coefficients must be finite")
    return c


def _mono_from_json(d: dict, dim: int) -> Monomial:
    exps = tuple(d["exp"])
    if len(exps) != dim:
        raise InvalidArgument("exponent vector length != dim")
    return Monomial(_coefficient_from_json(d["re"], d.get("im", 0.0)), exps)


def _tmono_from_json(d: dict) -> TMonomial:
    if not d["t_coeffs"]:
        raise InvalidArgument("t_coeffs must not be empty")
    return TMonomial(tuple(_coefficient_from_json(re, im)
                           for re, im in d["t_coeffs"]), tuple(d["exp"]))


def system_to_json(f: PolySystem) -> dict:
    return {"dim": f.dim,
            "equations": [[_mono_to_json(m) for m in eq] for eq in f.equations]}


def system_from_json(d: dict) -> PolySystem:
    dim = int(d["dim"])
    eqs = [[_mono_from_json(m, dim) for m in eq] for eq in d["equations"]]
    return PolySystem(dim=dim, equations=eqs)


def homotopy_to_json(h: Homotopy) -> dict:
    out = {"form": h.form, "dim": h.dim,
           "gamma": {"re": complex(h.gamma).real, "im": complex(h.gamma).imag}}
    if h.target is not None:
        out["target"] = system_to_json(h.target)
    if h.start is not None:
        out["start"] = system_to_json(h.start)
    if h.t_equations is not None:
        out["equations"] = [
            [{"t_coeffs": [[complex(c).real, complex(c).imag]
                           for c in m.t_coeffs],
              "exp": list(m.exponents)} for m in eq]
            for eq in h.t_equations
        ]
    return out


def homotopy_from_json(d: dict) -> Homotopy:
    form = d["form"]
    dim = int(d["dim"])
    gamma = (_coefficient_from_json(d["gamma"]["re"], d["gamma"]["im"])
             if "gamma" in d else 1.0)
    target = system_from_json(d["target"]) if "target" in d else None
    start = system_from_json(d["start"]) if "start" in d else None
    t_equations = None
    if "equations" in d:
        t_equations = [[_tmono_from_json(m) for m in eq]
                       for eq in d["equations"]]
    if form == GAMMA_CONVEX:
        if target is None or start is None:
            raise InvalidArgument("gamma_convex homotopy needs target and start")
        return make_gamma_homotopy(target, start, gamma)
    if form not in (MONOMIAL, EXPLICIT_T):
        raise InvalidArgument(f"unknown homotopy form {form!r}")
    if t_equations is None:
        raise InvalidArgument(f"{form} homotopy needs equations with t_coeffs")
    return Homotopy(form=form, dim=dim, target=target, start=start,
                    gamma=gamma, t_equations=t_equations)
