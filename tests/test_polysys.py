"""Polynomial homotopies in one form, fixtures, JSON format."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from singradar.errors import EvaluationSingular, InvalidArgument
from singradar.polysys import (
    MONOMIAL4_MATRIX,
    DEFAULT_GAMMA,
    Homotopy,
    Monomial,
    PolySystem,
    Term,
    TMonomial,
    binomial_parts,
    evaluate,
    fixture,
    homotopy_from_json,
    homotopy_to_json,
    jacobian,
    make_gamma_homotopy,
    term_values,
)
from singradar.radar import recondition
from singradar.scalars import ExtComplex, ExtReal, _complex, float_magnitude

from test_tracker import NEGATIVE_EXPONENTS

PARENT_JSON = Path(__file__).with_name("golden") / "json"

# target and start system of the ojika1 relaxation
OJIKA1_TARGET = PolySystem(2, [
    [Monomial(1.0, (2, 0)), Monomial(1.0, (0, 1)), Monomial(-3.0, (0, 0))],
    [Monomial(1.0, (1, 0)), Monomial(0.125, (0, 2)), Monomial(-1.5, (0, 0))],
])
OJIKA1_START = PolySystem(2, [
    [Monomial(1.0, (2, 0)), Monomial(-1.0, (0, 0))],
    [Monomial(1.0, (0, 2)), Monomial(-1.0, (0, 0))],
])
SQUARE = PolySystem(1, [[Monomial(1.0, (2,))]])


def rand_point(rng, n):
    return [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]


def system_value(f, x):
    out = []
    for eq in f.equations:
        acc = 0.0
        for mono in eq:
            term = mono.coefficient
            for xi, e in zip(x, mono.exponents):
                term = term * xi ** e
            acc = acc + term
        out.append(acc)
    return out


def bits(v):
    if isinstance(v, ExtComplex):
        return (v.re.hi.hex(), v.re.lo.hex(), v.im.hi.hex(), v.im.lo.hex())
    v = complex(v)
    return (v.real.hex(), v.imag.hex())


# ---------------------------------------------------------------------------
# evaluation and jacobian
# ---------------------------------------------------------------------------

def test_ojika1_known_roots():
    h = fixture("ojika1")
    # the displayed system's regular root is (-3, -6); (1, 2) is the triple root
    assert evaluate(h, [-3.0, -6.0], 1.0) == [0.0, 0.0]
    assert evaluate(h, [1.0, 2.0], 1.0) == [0.0, 0.0]


def test_ojika1_triple_root_jacobian():
    h = fixture("ojika1")
    j = system_jacobian_at_t1(h, [1.0, 2.0])
    assert j == [[2.0, 1.0], [1.0, 0.5]]
    assert j[0][0] * j[1][1] - j[0][1] * j[1][0] == 0.0


def system_jacobian_at_t1(h, x):
    return [[complex(v).real for v in row] for row in jacobian(h, x, 1.0)]


def test_sqrt_fixture_double_point():
    h = fixture("sqrt")
    assert evaluate(h, [0.0], 1.0) == [0.0]
    assert evaluate(h, [1.0], 0.0) == [0.0]
    assert jacobian(h, [1.0], 0.0) == [[2.0]]


def test_cusp_fixture():
    h = fixture("cusp")
    assert evaluate(h, [1.0], 0.0) == [0.0]
    t = 0.625
    x = (t - 1.0) ** 2
    assert abs(evaluate(h, [x], t)[0]) < 1e-16


def test_monomial_accepts_only_integer_exponents():
    assert Monomial(1.0, (np.int64(2), True, -1)).exponents == (2, 1, -1)
    for bad in ((1.5,), (2.0,), ("2",), (None,)):
        with pytest.raises(InvalidArgument):
            Monomial(1.0, bad)
        with pytest.raises(InvalidArgument):
            TMonomial((1.0,), bad)


def test_dimension_mismatch():
    h = fixture("ojika1")
    with pytest.raises(InvalidArgument):
        evaluate(h, [1.0], 0.5)
    with pytest.raises(InvalidArgument):
        jacobian(h, [1.0, 2.0, 3.0], 0.5)


def test_negative_exponent_at_zero():
    eq = [TMonomial((1.0,), (-1,)), TMonomial((-2.0,), (0,))]
    h = Homotopy(dim=1, gamma=1.0, equations=[eq])
    assert abs(evaluate(h, [0.5], 0.0)[0]) == 0.0
    with pytest.raises(EvaluationSingular):
        evaluate(h, [0.0], 0.0)


def fd_jacobian(h, x, t, step=1e-7):
    n = len(x)
    out = [[0.0] * n for _ in range(n)]
    for j in range(n):
        xp = list(x)
        xm = list(x)
        xp[j] = xp[j] + step
        xm[j] = xm[j] - step
        fp = evaluate(h, xp, t)
        fm = evaluate(h, xm, t)
        for i in range(n):
            out[i][j] = (fp[i] - fm[i]) / (2 * step)
    return out


@pytest.mark.parametrize("name", ["sqrt", "cusp", "monomial4", "ojika1"])
def test_jacobian_matches_finite_differences(name):
    h = fixture(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        x = [complex(rng.uniform(0.4, 1.6), rng.uniform(-0.5, 0.5))
             for _ in range(h.dim)]
        t = rng.uniform(0.0, 0.9)
        ja = jacobian(h, x, t)
        jf = fd_jacobian(h, x, t)
        for i in range(h.dim):
            for j in range(h.dim):
                scale = max(1.0, abs(ja[i][j]))
                assert abs(ja[i][j] - jf[i][j]) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# gamma homotopies
# ---------------------------------------------------------------------------

def test_make_gamma_homotopy_endpoints():
    gh = make_gamma_homotopy(OJIKA1_TARGET, OJIKA1_START, DEFAULT_GAMMA)
    rng = random.Random(5)
    for _ in range(100):
        x = rand_point(rng, 2)
        at0 = evaluate(gh, x, 0.0)
        gg = [DEFAULT_GAMMA * v for v in system_value(OJIKA1_START, x)]
        assert all(abs(a - b) <= 1e-14 * max(1.0, abs(b))
                   for a, b in zip(at0, gg))
        at1 = evaluate(gh, x, 1.0)
        ff = system_value(OJIKA1_TARGET, x)
        assert all(abs(a - b) <= 2e-16 * max(1.0, abs(b))
                   for a, b in zip(at1, ff))


def test_gamma_homotopy_is_two_terms_per_equation():
    gh = make_gamma_homotopy(OJIKA1_TARGET, OJIKA1_START, DEFAULT_GAMMA)
    for eq, f_eq, g_eq in zip(gh.equations, OJIKA1_TARGET.equations,
                              OJIKA1_START.equations):
        assert eq == [Term((DEFAULT_GAMMA, -DEFAULT_GAMMA), g_eq),
                      Term((0.0, 1.0), f_eq)]


def test_gamma_identity_when_target_equals_start():
    gh = make_gamma_homotopy(SQUARE, SQUARE, 1.0)
    for t in (0.0, 0.3, 0.99):
        assert evaluate(gh, [1.2], t) == system_value(SQUARE, [1.2])


def test_non_unit_gamma_rejected():
    with pytest.raises(InvalidArgument):
        make_gamma_homotopy(OJIKA1_TARGET, OJIKA1_START, 0.9 + 0.1j)


@pytest.mark.parametrize("gamma", [float("nan"), complex("nan"),
                                   complex(float("nan"), 1.0)])
def test_nan_gamma_rejected(gamma):
    with pytest.raises(InvalidArgument, match="unit modulus"):
        make_gamma_homotopy(OJIKA1_TARGET, OJIKA1_START, gamma)


def test_dim_mismatch_rejected():
    with pytest.raises(InvalidArgument):
        make_gamma_homotopy(OJIKA1_TARGET, SQUARE, 1.0)


def test_fixture_gamma_override():
    x = [0.7 + 0.2j]
    assert (evaluate(fixture("sqrt", 1.0), x, 0.4)
            == evaluate(fixture("sqrt"), x, 0.4))
    g = complex(0.6, 0.8)
    assert fixture("sqrt", g).equations == make_gamma_homotopy(
        SQUARE, PolySystem(1, [[Monomial(1.0, (2,)), Monomial(-1.0, (0,))]]),
        g).equations
    for name in ("cusp", "monomial4", "ojika1"):
        with pytest.raises(InvalidArgument, match="gamma-convex"):
            fixture(name, g)


def test_real_coefficients_are_recorded_on_construction():
    for name in ("sqrt", "cusp", "monomial4"):
        assert fixture(name).real_coefficients
        assert recondition(fixture(name), 0.3).real_coefficients
    assert not fixture("ojika1").real_coefficients
    assert not fixture("sqrt", complex(0.6, 0.8)).real_coefficients
    # a complex coefficient of a monomial counts as much as one in t
    assert not Homotopy(dim=1, gamma=1.0, equations=[[Term(
        (1.0,), (Monomial(1.0, (2,)), Monomial(-1j, (0,))))]]
    ).real_coefficients


def test_homotopies_of_one_shape_share_compiled_programs():
    # a chart or a gamma changes coefficients, not the programs' source
    h = fixture("ojika1")
    for other in (recondition(h, 0.3), fixture("ojika1")):
        assert other._residual.__code__ is h._residual.__code__
        assert other._jacobian.__code__ is h._jacobian.__code__
        assert other._correct.__code__ is h._correct.__code__
    g = fixture("sqrt", complex(0.6, 0.8))
    assert g._residual.__code__ is fixture("sqrt")._residual.__code__
    assert g._correct.__code__ is fixture("sqrt")._correct.__code__
    x = [0.7 + 0.2j]
    assert evaluate(g, x, 0.4) != evaluate(fixture("sqrt"), x, 0.4)


def test_malformed_homotopy_rejected():
    with pytest.raises(InvalidArgument):
        Homotopy(dim=2, gamma=1.0, equations=[[TMonomial((1.0,), (1,))]] * 2)
    with pytest.raises(InvalidArgument):
        Homotopy(dim=2, gamma=1.0, equations=[[TMonomial((1.0,), (1, 0))]])
    with pytest.raises(InvalidArgument):
        Term((), (Monomial(1.0, (1,)),))
    with pytest.raises(InvalidArgument):
        Term((1.0,), ())


@pytest.mark.parametrize("d, message", [
    ({"form": "explicit_t", "dim": 0, "equations": []},
     "at least one unknown"),
    ({"form": "explicit_t", "dim": -1, "equations": []},
     "at least one unknown"),
    ({"form": "explicit_t", "dim": 1, "equations": [[]]},
     "at least one term"),
    ({"form": "explicit_t", "dim": 2, "equations": [
        [{"t_coeffs": [[1.0, 0.0]], "exp": [1, 0]}], []]},
     "at least one term"),
], ids=["dim-0", "dim-negative", "no-terms", "second-has-no-terms"])
def test_degenerate_homotopy_shape_rejected(d, message):
    # no unknowns, or an equation without terms (identically zero): there
    # is no path to track
    with pytest.raises(InvalidArgument, match=message):
        homotopy_from_json(d)


ZERO_EQUATIONS = {
    # q(t) = 0 times x
    "t-coeffs": {"form": "explicit_t", "dim": 1, "equations": [
        [{"t_coeffs": [[0.0, 0.0]], "exp": [1]}]]},
    # q(t) = 1 times the zero polynomial 0*x
    "poly": {"form": "explicit_t", "dim": 1, "equations": [
        [{"t_coeffs": [[1.0, 0.0]], "poly": [{"re": 0.0, "exp": [1]}]}]]},
    # the second equation: both its terms vanish, one of each kind
    "second-both-kinds": {"form": "explicit_t", "dim": 2, "equations": [
        [{"t_coeffs": [[1.0, 0.0]], "exp": [1, 0]}],
        [{"t_coeffs": [[0.0, 0.0], [0.0, 0.0]], "exp": [0, 1]},
         {"t_coeffs": [[1.0, 0.0]],
          "poly": [{"re": 0.0, "im": 0.0, "exp": [0, 0]}]}]]},
}


@pytest.mark.parametrize("shape", sorted(ZERO_EQUATIONS))
def test_identically_zero_equation_rejected(shape):
    # an equation whose every term has q = 0 or P = 0 fixes no path
    with pytest.raises(InvalidArgument, match="identically zero"):
        homotopy_from_json(ZERO_EQUATIONS[shape])


def test_equation_with_one_nonzero_term_accepted():
    # a vanishing term beside a nonzero one is kept; terms that cancel
    # each other (x - x) are not looked for
    h = homotopy_from_json({"form": "explicit_t", "dim": 1, "equations": [
        [{"t_coeffs": [[0.0, 0.0]], "exp": [2]},
         {"t_coeffs": [[1.0, 0.0]], "exp": [1]},
         {"t_coeffs": [[-1.0, 0.0]], "exp": [1]}]]})
    assert len(h.equations[0]) == 3


def test_extended_lane_evaluation_matches_double():
    h = fixture("ojika1")
    x = [ExtComplex(1.1, 0.3), ExtComplex(0.7, -0.2)]
    t = ExtReal(0.625)
    ext = [complex(v) for v in evaluate(h, x, t)]
    dbl = evaluate(h, [1.1 + 0.3j, 0.7 - 0.2j], 0.625)
    assert all(abs(a - b) <= 1e-15 for a, b in zip(ext, dbl))


# ---------------------------------------------------------------------------
# fixtures and JSON
# ---------------------------------------------------------------------------

def test_monomial4_matrix_and_rhs():
    h = fixture("monomial4")
    cols, rhs = binomial_parts(h)
    assert tuple(zip(*cols)) == MONOMIAL4_MATRIX
    assert all(r == (1.0, -1.0) for r in rhs)
    assert evaluate(h, [1.0, 1.0, 1.0, 1.0], 0.0) == [0.0] * 4


def test_unknown_fixture_rejected():
    with pytest.raises(InvalidArgument):
        fixture("square")


@pytest.mark.parametrize("name", ["sqrt", "cusp", "monomial4", "ojika1"])
def test_homotopy_json_roundtrip(name):
    h = fixture(name)
    back = homotopy_from_json(json.loads(json.dumps(homotopy_to_json(h))))
    rng = random.Random(23)
    for _ in range(20):
        x = rand_point(rng, h.dim)
        t = rng.uniform(0.0, 1.0)
        assert evaluate(back, x, t) == evaluate(h, x, t)


def test_binomial_parts_checks_shape():
    cols, rhs = binomial_parts(fixture("cusp"))
    assert cols == [(2,)]
    assert rhs == [(1.0, -4.0, 6.0, -4.0, 1.0)]
    for name in ("sqrt", "ojika1"):
        with pytest.raises(InvalidArgument):
            binomial_parts(fixture(name))
    scaled = Homotopy(dim=1, gamma=1.0, equations=[
        [TMonomial((1.0, 1.0), (2,)), TMonomial((-1.0,), (0,))]])
    with pytest.raises(InvalidArgument):
        binomial_parts(scaled)
    two_powers = Homotopy(dim=1, gamma=1.0, equations=[
        [TMonomial((1.0,), (2,)), TMonomial((-1.0,), (1,))]])
    with pytest.raises(InvalidArgument):
        binomial_parts(two_powers)


def test_binomial_parts_rejects_a_reconditioned_homotopy():
    # its t_coeffs are in t, not in s: read as they stand they would give
    # the unshifted right-hand sides (1, -1) instead of (0.5, -0.5)
    with pytest.raises(InvalidArgument, match="reconditioned"):
        binomial_parts(recondition(fixture("monomial4"), 0.5))


@pytest.mark.parametrize("name", ["sqrt", "monomial4", "ojika1"])
def test_parent_json_still_loads(name):
    # files written by the three-form format: gamma_convex with target and
    # start (sqrt), monomial (monomial4), explicit_t (ojika1)
    h = homotopy_from_json(json.loads((PARENT_JSON / (name + ".json"))
                                      .read_text()))
    want = fixture(name)
    assert h.dim == want.dim and h.gamma == want.gamma
    rng = random.Random(31)
    for _ in range(20):
        x = rand_point(rng, h.dim)
        xe = [ExtComplex(ExtReal(v.real), ExtReal(v.imag)) for v in x]
        for t in (rng.uniform(0.0, 1.0),
                  complex(rng.uniform(-1, 1), rng.uniform(-1, 1))):
            for point in (x, xe):
                for fn in (evaluate, jacobian):
                    got, ref = fn(h, point, t), fn(want, point, t)
                    if fn is jacobian:
                        got = [v for row in got for v in row]
                        ref = [v for row in ref for v in row]
                    assert [bits(v) for v in got] == [bits(v) for v in ref]


def test_json_writes_explicit_t_terms():
    d = homotopy_to_json(fixture("sqrt"))
    assert d["form"] == "explicit_t" and set(d) == {"form", "dim", "gamma",
                                                    "equations"}
    g_term, f_term = d["equations"][0]
    assert g_term == {"t_coeffs": [[1.0, 0.0], [-1.0, 0.0]],
                      "poly": [{"re": 1.0, "im": 0.0, "exp": [2]},
                               {"re": -1.0, "im": 0.0, "exp": [0]}]}
    assert f_term == {"t_coeffs": [[0.0, 0.0], [1.0, 0.0]], "exp": [2]}


def test_json_rejects_a_reconditioned_homotopy():
    # the explicit_t shape has no chart; the written t_coeffs would read as
    # coefficients in s
    with pytest.raises(InvalidArgument, match="reconditioned"):
        homotopy_to_json(recondition(fixture("sqrt"), 0.5))


def test_json_gamma_override_needs_gamma_convex_tag():
    d = json.loads((PARENT_JSON / "sqrt.json").read_text())
    g = complex(0.6, 0.8)
    assert homotopy_from_json(d, g).equations == fixture("sqrt", g).equations
    for name in ("monomial4", "ojika1"):
        d = json.loads((PARENT_JSON / (name + ".json")).read_text())
        with pytest.raises(InvalidArgument, match="gamma-convex"):
            homotopy_from_json(d, g)
    with pytest.raises(InvalidArgument, match="gamma-convex"):
        homotopy_from_json(homotopy_to_json(fixture("sqrt")), g)


def _explicit(term, dim=1):
    return {"form": "explicit_t", "dim": dim, "equations": [[term]] * dim}


@pytest.mark.parametrize("doc", [
    [],
    {"form": "nope", "dim": 1, "equations": [[]]},
    {"form": "explicit_t", "dim": 1},
    {"form": "explicit_t", "dim": 1, "equations": 3},
    {"form": "explicit_t", "dim": 2,
     "equations": [[{"t_coeffs": [[1.0, 0.0]], "exp": [1, 0]}]]},
    _explicit(7),
    _explicit({"t_coeffs": [[1.0, 0.0]]}),
    _explicit({"t_coeffs": [[1.0]], "exp": [1]}),
    _explicit({"t_coeffs": [], "exp": [1]}),
    _explicit({"t_coeffs": [[float("inf"), 0.0]], "exp": [1]}),
    _explicit({"t_coeffs": [[1.0, 0.0]], "exp": [1.5]}),
    _explicit({"t_coeffs": [[1.0, 0.0]], "exp": ["2"]}),
    _explicit({"t_coeffs": [[1.0, 0.0]], "exp": [1, 1]}),
    _explicit({"t_coeffs": [[1.0, 0.0]], "poly": []}),
    _explicit({"t_coeffs": [[1.0, 0.0]], "poly": [{"re": 1.0, "exp": 2}]}),
    {"form": "gamma_convex", "dim": 1,
     "target": {"dim": 1, "equations": [[{"re": 1.0, "exp": [2]}]]}},
    {"form": "monomial", "dim": 1, "gamma": {"re": "x", "im": 0.0},
     "equations": [[{"t_coeffs": [[1.0, 0.0]], "exp": [1]}]]},
])
def test_malformed_json_is_invalid_argument(doc):
    with pytest.raises(InvalidArgument):
        homotopy_from_json(doc)


# ---------------------------------------------------------------------------
# bit identity with the evaluation before powers and q(t) were shared
# ---------------------------------------------------------------------------
# A frozen copy of evaluate / jacobian as they were when every monomial
# recomputed its powers and every term its q(t): the shared-work versions
# must give the same bits and the same result types, or raise the same error.

def _ref_ipow(base, e):
    if e == 0:
        return 1.0
    if e < 0 and float_magnitude(base) == 0.0:
        raise EvaluationSingular("negative exponent at zero coordinate")
    return base ** e


def _ref_mono_value(coefficient, exponents, x):
    acc = coefficient
    for xi, e in zip(x, exponents):
        if e != 0:
            acc = acc * _ref_ipow(xi, e)
    return acc


def _ref_evalpoly(coeffs, t):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc


def _ref_chart(h, s):
    # the original t of a reconditioned homotopy's parameter s
    return s if h.t0 == 0.0 else h.t0 + (1.0 - h.t0) * s


def ref_evaluate(h, x, s):
    t = _ref_chart(h, s)
    out = []
    for eq in h.equations:
        acc = 0.0
        for term in eq:
            p = None
            for mono in term.poly:
                v = _ref_mono_value(mono.coefficient, mono.exponents, x)
                p = v if p is None else p + v
            acc = acc + _ref_evalpoly(term.t_coeffs, t) * p
        out.append(acc)
    return out


def ref_jacobian(h, x, s):
    t = _ref_chart(h, s)
    rows = []
    for eq in h.equations:
        row = [0.0] * h.dim
        for term in eq:
            c = _ref_evalpoly(term.t_coeffs, t)
            for mono in term.poly:
                for j, e in enumerate(mono.exponents):
                    if e == 0:
                        continue
                    dexp = list(mono.exponents)
                    dexp[j] = e - 1
                    row[j] = row[j] + c * e * _ref_mono_value(
                        mono.coefficient, dexp, x)
        rows.append(row)
    return rows


def typed_bits(v):
    if isinstance(v, list):
        return [typed_bits(u) for u in v]
    if isinstance(v, ExtComplex):
        return ("ExtComplex",) + bits(v)
    if isinstance(v, ExtReal):
        return ("ExtReal", v.hi.hex(), v.lo.hex())
    if isinstance(v, float):
        return ("float", v.hex())
    return (type(v).__name__,) + bits(v)


def outcome(fn, *args):
    try:
        return typed_bits(fn(*args))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def _negative_exponent_homotopy():
    # multi-monomial terms with negative and mixed exponents
    f = PolySystem(2, [
        [Monomial(1.5 - 0.5j, (2, -1)), Monomial(-2.0, (0, 3)),
         Monomial(0.25, (0, 0))],
        [Monomial(1.0, (-2, 1)), Monomial(3.0 + 1.0j, (1, 1))]])
    g = PolySystem(2, [[Monomial(1.0, (1, 0)), Monomial(-1.0, (0, 0))],
                       [Monomial(1.0, (0, -1)), Monomial(-1.0, (0, 0))]])
    return make_gamma_homotopy(f, g, DEFAULT_GAMMA)


def _identity_homotopies():
    out = []
    for name in ("sqrt", "cusp", "monomial4", "ojika1"):
        h = fixture(name)
        out.append((name, h))
        for t0 in (0.1, 0.3, 0.955647336181678):
            out.append(("%s@%r" % (name, t0), recondition(h, t0)))
    out.append(("negative", _negative_exponent_homotopy()))
    return out


def _lane_points(rng, dim):
    """(lane, x, t) triples: real doubles, complex doubles, double-double
    with ExtComplex and ExtReal t, plus points with zero coordinates."""
    out = []
    for _ in range(6):
        xr = [rng.uniform(-2.0, 2.0) for _ in range(dim)]
        xc = rand_point(rng, dim)
        tr = rng.uniform(-0.2, 1.1)
        tc = complex(tr, rng.uniform(-0.5, 0.5))
        xe = [ExtComplex(ExtReal(z.real, z.real * 1e-17),
                         ExtReal(z.imag, -z.imag * 3e-17)) for z in xc]
        te = ExtComplex(ExtReal(tc.real, 1e-18), ExtReal(tc.imag, -2e-18))
        out += [("double", xr, tr), ("complex", xc, tc), ("complex", xc, tr),
                ("extended", xe, te), ("extended", xe, ExtReal(tr, 1e-18))]
    zero = [0.0] + [rng.uniform(0.5, 1.5) for _ in range(dim - 1)]
    out += [("double", zero, 0.5), ("complex", [complex(v) for v in zero], 0.5j),
            ("extended", [ExtComplex(v) for v in zero], ExtComplex(0.5))]
    return out


def test_evaluate_and_jacobian_bit_identical_to_unshared_reference():
    rng = random.Random(20261018)
    lanes = set()
    for name, h in _identity_homotopies():
        for lane, x, t in _lane_points(rng, h.dim):
            lanes.add(lane)
            want_f = outcome(ref_evaluate, h, x, t)
            want_j = outcome(ref_jacobian, h, x, t)
            assert outcome(evaluate, h, x, t) == want_f, (name, lane)
            assert outcome(jacobian, h, x, t) == want_j, (name, lane)
            # shared as newton_correct shares it: one q for the t
            q = term_values(h, t)
            assert outcome(evaluate, h, x, t, q) == want_f, (name, lane)
            assert outcome(jacobian, h, x, t, q) == want_j, (name, lane)
    assert lanes == {"double", "complex", "extended"}


def batch(values):
    """One ExtComplex whose parts are arrays, as the double-lane circle
    refinement holds its samples."""
    return _complex(tuple(np.array(p) for p in zip(
        *((v.re.hi, v.re.lo, v.im.hi, v.im.lo) for v in values))))


def sample(v, k):
    return ExtComplex(ExtReal(v.re.hi[k], v.re.lo[k]),
                      ExtReal(v.im.hi[k], v.im.lo[k]))


def rand_ext(rng):
    z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    return ExtComplex(ExtReal(z.real, z.real * rng.uniform(-1, 1) * 1e-16),
                      ExtReal(z.imag, z.imag * rng.uniform(-1, 1) * 1e-16))


def test_evaluate_batched_bit_identical_per_sample():
    rng = random.Random(6064)
    n = 24
    # negative exponents divide: a batch must take the scalar's quotient
    for name in ("sqrt", "cusp", "monomial4", "ojika1", "negative-exponents"):
        for t0 in (0.0, 0.1, 0.955647336181678):
            h = recondition(homotopy_from_json(NEGATIVE_EXPONENTS)
                            if name == "negative-exponents" else fixture(name),
                            t0)
            xs = [[rand_ext(rng) for _ in range(n)] for _ in range(h.dim)]
            ts = [rand_ext(rng) for _ in range(n)]
            got = evaluate(h, [batch(c) for c in xs], batch(ts))
            for k in range(n):
                want = evaluate(h, [c[k] for c in xs], ts[k])
                assert [bits(sample(v, k)) for v in got] == \
                    [bits(v) for v in want], (name, t0, k)


def test_negative_exponent_at_zero_in_a_batch():
    eq = [TMonomial((1.0, -1.0), (-2,)), TMonomial((-1.0,), (0,))]
    h = Homotopy(dim=1, gamma=1.0, equations=[eq])
    t = batch([ExtComplex(0.25), ExtComplex(0.5)])
    fine = evaluate(h, [batch([ExtComplex(0.5), ExtComplex(2.0)])], t)[0]
    assert [complex(sample(fine, k)) for k in range(2)] == [2.0, -0.875]
    with pytest.raises(EvaluationSingular):
        evaluate(h, [batch([ExtComplex(0.5), ExtComplex(0.0)])], t)
    with pytest.raises(EvaluationSingular):
        jacobian(h, [np.array([0.5, 0.0], dtype=complex)],
                 np.array([0.25, 0.5], dtype=complex))
