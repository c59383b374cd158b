"""Ratio estimates, Richardson extrapolation, reconditioning, pole sweep."""

import functools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singradar import fourier, radar, tracker
from singradar.cli import gamma_from_seed
from singradar.errors import BranchJump, InconclusiveRadar, InvalidArgument
from singradar.fourier import taylor_coefficients
from singradar.polysys import Homotopy, TMonomial, evaluate, fixture
from singradar.radar import (
    COEFFICIENTS_VANISH,
    CONVERGED,
    INCONCLUSIVE,
    detect_last_pole,
    fabry_estimate,
    locate_singularity,
    recondition,
    richardson,
    scale_to_unit,
)
from singradar.scalars import (
    DOUBLE,
    EXTENDED,
    ExtComplex,
    ExtReal,
    float_magnitude,
    is_extended,
    promote,
)
from singradar.series import TruncatedSeries
from singradar.tracker import (
    PathState,
    default_config,
    demoted,
    newton_correct,
    track_to,
)

from mp_oracle import exact_point, lift_tolerance, relative_error


def exact_sqrt_coeff(k):
    c = Fraction(1)
    for i in range(k):
        c = c * Fraction(2 * i - 1, 2 * (i + 1))
    return c


def sqrt_shifted_series(a, order):
    """Taylor coefficients of sqrt(a - t) about 0, radius a."""
    return TruncatedSeries(
        [math.sqrt(a) * float(exact_sqrt_coeff(k)) / a ** k
         for k in range(order + 1)], order=order)


def ratio_model(n):
    # consecutive-coefficient ratio of sqrt(1 - t), exact rational value
    return (2.0 * n + 2.0) / (2.0 * n - 1.0)


def model_levels(count):
    return [ratio_model(2 ** k) for k in range(1, count + 1)]


def explicit_homotopy(dim, teqs):
    return Homotopy(dim=dim, gamma=complex(1.0), equations=teqs)


def fmt_error(x):
    mant, exp = ("%.1E" % x).split("E")
    return mant + "E" + exp[0] + str(int(exp[1:]))


OJIKA1_BASE = 0.955647336181678
OJIKA1_RAW = 1.0265192231142901 + 2.9197227799819557e-05j

# |R_{i,j} - 1| for the ratio sequence of sqrt(1 - t), rows n = 2 .. 512
DIAGONAL_ERROR_GRID = (
    ("1.0E+0",),
    ("4.3E-1", "1.4E-1"),
    ("2.0E-1", "6.7E-2", "9.5E-3"),
    ("9.7E-2", "3.2E-2", "4.6E-3", "3.1E-4"),
    ("4.8E-2", "1.6E-2", "2.3E-3", "1.5E-4", "4.9E-6"),
    ("2.4E-2", "7.9E-3", "1.1E-3", "7.5E-5", "2.4E-6", "3.8E-8"),
    ("1.2E-2", "3.9E-3", "5.6E-4", "3.7E-5", "1.2E-6", "1.9E-8", "1.5E-10"),
    ("5.9E-3", "2.0E-3", "2.8E-4", "1.9E-5", "6.0E-7", "9.5E-9", "7.5E-11",
     "2.9E-13"),
    ("2.9E-3", "9.8E-4", "1.4E-4", "9.3E-6", "3.0E-7", "4.8E-9", "3.8E-11",
     "1.5E-13", "4.4E-16"),
)


# ---------------------------------------------------------------------------
# richardson
# ---------------------------------------------------------------------------

def test_richardson_six_levels_hits_eight_digits():
    tab = richardson(model_levels(6))
    assert tab.levels == 6
    assert tab.entry(1, 1) == ratio_model(2)
    assert tab.entry(6, 6) == tab.diagonal[-1]
    assert abs(tab.diagonal[-1] - 1.0) <= 4e-8


def test_richardson_nine_levels_hits_machine_precision():
    tab = richardson(model_levels(9))
    assert abs(tab.diagonal[-1] - 1.0) <= 1e-15


def test_richardson_error_grid():
    """Every table entry reproduces the reference error digits."""
    tab = richardson(model_levels(9))
    for i, row in enumerate(DIAGONAL_ERROR_GRID):
        got = tuple(fmt_error(abs(tab.table[i][j] - 1.0))
                    for j in range(len(row)))
        assert got == row


def test_richardson_constant_is_fixed_point():
    for value in (3.25, complex(-1.5, 0.75)):
        tab = richardson([value] * 5)
        assert all(entry == value for row in tab.table for entry in row)


def test_richardson_first_column_preserves_input():
    rng = random.Random(17)
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
    tab = richardson(vals)
    assert [row[0] for row in tab.table] == vals


def test_richardson_recurrence_identity():
    # each cell is the exact weighted combination of its two parents
    rng = random.Random(3)
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
    tab = richardson(vals)
    for i in range(2, 8):
        for j in range(2, i + 1):
            w = float(2 ** (i - j + 1))
            expect = (w * tab.entry(i, j - 1) - tab.entry(j - 1, j - 1)) \
                / (w - 1.0)
            assert tab.entry(i, j) == expect


def test_richardson_rejects_empty_input():
    with pytest.raises(InvalidArgument):
        richardson([])


def test_raw_error_ratio_approaches_two():
    ratio = (ratio_model(128) - 1.0) / (ratio_model(256) - 1.0)
    assert abs(ratio - 2.0039) <= 1e-3


def test_diagonal_gain_per_level():
    """Each extrapolation level buys at least one more decimal digit.

    The first step gains only a factor 7 on this sequence; from the second
    level on the gain per level exceeds 10.
    """
    diag = richardson(model_levels(8)).diagonal
    gains = [abs(diag[j - 1] - 1.0) / abs(diag[j] - 1.0) for j in range(1, 8)]
    assert 6.5 < gains[0] < 7.5
    for g in gains[1:6]:
        assert g >= 10.0


def test_richardson_extended_lane():
    vals = [promote(v, EXTENDED) for v in model_levels(6)]
    tab = richardson(vals)
    assert is_extended(tab.diagonal[-1])
    assert float_magnitude(tab.diagonal[-1] - 1.0) <= 4e-8


# ---------------------------------------------------------------------------
# fabry_estimate
# ---------------------------------------------------------------------------

def test_fabry_reference_series_order_65():
    s = sqrt_shifted_series(1.0, 65)
    est = fabry_estimate(s)
    assert est.status == CONVERGED
    assert est.n_used == 64
    assert abs(complex(est.z) - 1.0) <= 4e-8
    assert abs(complex(est.raw_ratio) - 130.0 / 127.0) <= 1e-12
    c = s.coeffs
    ratios = [c[2 ** k] / c[2 ** k + 1] for k in range(1, 7)]
    assert est.diagonal == richardson(ratios).diagonal
    assert est.z == est.diagonal[-1]


def test_fabry_grid_capped_by_order():
    # order 64 leaves no c_65, so the largest usable ratio sits at n = 32
    est = fabry_estimate(sqrt_shifted_series(1.0, 64))
    assert est.status == CONVERGED
    assert est.n_used == 32
    assert abs(complex(est.z) - 1.0) <= 1e-5


def test_fabry_polynomial_tail_vanishes():
    coeffs = [1.0, -2.0, 1.0] + [0.0] * 30
    est = fabry_estimate(TruncatedSeries(coeffs, order=32))
    assert est.status == COEFFICIENTS_VANISH
    assert complex(est.z) == 0j
    assert complex(est.raw_ratio) == 0j
    assert est.n_used == 2
    assert est.diagonal == []


def test_fabry_geometric_series_is_exact():
    est = fabry_estimate(TruncatedSeries([1.0] * 20, order=19))
    assert est.status == CONVERGED
    assert complex(est.z) == 1 + 0j
    assert est.n_used == 16


def test_series_needs_order_plus_one_coefficients():
    for coeffs in ([1.0] * 4, [1.0] * 6, []):
        with pytest.raises(InvalidArgument):
            TruncatedSeries(coeffs, order=4)
    assert TruncatedSeries([1.0] * 5, order=4).coeffs == [1.0] * 5


def test_fabry_rejects_short_series():
    with pytest.raises(InvalidArgument):
        fabry_estimate(TruncatedSeries([1.0, 1.0, 1.0, 1.0], order=3))


def test_fabry_noise_is_inconclusive():
    rng = random.Random(0)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(34)]
    est = fabry_estimate(TruncatedSeries(coeffs, order=33))
    assert est.status == INCONCLUSIVE


def test_fabry_extended_lane():
    s = TruncatedSeries([promote(float(exact_sqrt_coeff(k)), EXTENDED)
                         for k in range(66)], order=65)
    est = fabry_estimate(s)
    assert est.status == CONVERGED
    assert is_extended(est.z)
    assert est.n_used == 64
    assert float_magnitude(est.z - 1.0) <= 4e-8


# ---------------------------------------------------------------------------
# scale_to_unit
# ---------------------------------------------------------------------------

def test_scale_by_power_of_two_is_exact():
    s = sqrt_shifted_series(2.0, 33)
    scaled = scale_to_unit(s, 2.0)
    unit = [math.sqrt(2.0) * float(exact_sqrt_coeff(k)) for k in range(34)]
    assert list(scaled.coeffs) == unit
    assert scaled.order == 33


def test_scale_by_unit_radius_is_identity():
    s = sqrt_shifted_series(1.0, 20)
    assert list(scale_to_unit(s, 1.0).coeffs) == list(s.coeffs)


def test_scale_half_radius_raw_ratio():
    s = sqrt_shifted_series(0.5, 5)
    est = fabry_estimate(s)
    assert est.n_used == 4
    assert abs(complex(est.raw_ratio) - 5.0 / 7.0) <= 1e-15
    rescaled = fabry_estimate(scale_to_unit(s, 0.5))
    assert abs(complex(rescaled.raw_ratio) - 10.0 / 7.0) <= 1e-14


def test_scale_rejects_zero_radius():
    with pytest.raises(InvalidArgument):
        scale_to_unit(sqrt_shifted_series(1.0, 8), 0.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_scale_estimate_consistency(a):
    """Rescaling the series rescales the estimate by exactly |z|."""
    s = sqrt_shifted_series(a, 17)
    direct = fabry_estimate(s)
    scaled = fabry_estimate(scale_to_unit(s, a))
    assert direct.status == CONVERGED
    assert scaled.status == CONVERGED
    rel = abs(complex(scaled.z) * a - complex(direct.z)) / abs(complex(direct.z))
    assert rel <= 1e-10
    assert abs(complex(direct.z) - a) <= 1e-3 * a


def test_scale_complex_radius_consistency():
    s = sqrt_shifted_series(1.0, 17)
    z_ref = complex(fabry_estimate(s).z)
    est = fabry_estimate(scale_to_unit(s, 3 + 4j))
    assert est.status == CONVERGED
    assert abs(complex(est.z) * 5.0 - z_ref) <= 1e-10 * abs(z_ref)


def test_scale_extended_lane_preserved():
    s = TruncatedSeries([promote(float(exact_sqrt_coeff(k)), EXTENDED)
                         for k in range(12)], order=11)
    scaled = scale_to_unit(s, 2.0)
    assert scaled.order == 11
    assert all(is_extended(c) for c in scaled.coeffs)


def _frozen_scale_to_unit(series, z):
    """scale_to_unit's scalar loop as it was before the array pass, verbatim
    but for the zero check, and the last power it multiplied by."""
    radius = abs(z)
    out = [series.coeffs[0]]
    power = last = radius
    for c in series.coeffs[1:]:
        out.append(c * power)
        last, power = power, power * radius
    return out, last


def _bits(v):
    """The type and every part's repr: the sign of zero and NaN included."""
    if isinstance(v, ExtComplex):
        parts = (v.re.hi, v.re.lo, v.im.hi, v.im.lo)
    elif isinstance(v, ExtReal):
        parts = (v.hi, v.lo)
    elif isinstance(v, complex):
        parts = (v.real, v.imag)
    else:
        parts = (v,)
    return type(v).__name__, tuple(map(repr, parts))


# parts that round to zero, sit below the normal range, or overflow once
# multiplied by a radius above 1
_SPECIAL_PARTS = (0.0, -0.0, 5e-324, -2.5e-320, 1e-310, 1.7e308, -1e308,
                  math.inf, math.nan)
_SERIES_KINDS = {
    "ExtComplex": lambda p: ExtComplex(ExtReal(p[0], p[1]),
                                       ExtReal(p[2], p[3])),
    "ExtReal": lambda p: ExtReal(p[0], p[1]),
    "complex": lambda p: complex(p[0], p[2]),
    "float": lambda p: p[0],
}
_Z_KINDS = {
    "float": lambda r, rng: -r if rng.random() < 0.5 else r,
    "complex": lambda r, rng: r * complex(math.cos(1.0), math.sin(1.0)),
    # lo at most half an ulp of hi, or (outside ExtReal's invariant) more
    "ExtReal": lambda r, rng: ExtReal(r, r * rng.choice(
        [rng.uniform(-1e-17, 1e-17), 0.25])),
    "ExtComplex": lambda r, rng: ExtComplex(ExtReal(0.6 * r, 1e-18 * r),
                                            ExtReal(-0.8 * r)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z_kind", sorted(_Z_KINDS))
@pytest.mark.parametrize("kind", sorted(_SERIES_KINDS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_scale_to_unit_gives_the_bits_of_the_frozen_loop(kind, z_kind, data):
    # every lane: the extended array pass (ExtComplex series, extended
    # |z|) and the scalar loop (any other series or |z|); a |z| whose last
    # power underflows is an argument error where the loop gave zeros
    n = data.draw(st.sampled_from([1, 2, 32, 128, 1024]), "n")
    radius = data.draw(st.one_of(
        st.floats(0.1, 3.0),
        st.sampled_from([2.0, 1.0 / 0.985, 1e-12, 1e-5, 1e10, 2e300])),
        "radius")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), "seed"))
    special = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, 3),
        st.sampled_from(_SPECIAL_PARTS)), min_size=1, max_size=12),
        "special")
    parts = [[rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3)
              for _ in range(4)] for _ in range(n)]
    for p in parts:
        p[1] *= 2.0 ** -54  # lo parts below half an ulp of a typical hi
        p[3] *= 2.0 ** -54
    for k, j, v in special:
        parts[k][j] = v
    series = TruncatedSeries([_SERIES_KINDS[kind](p) for p in parts],
                             order=n - 1)
    z = _Z_KINDS[z_kind](radius, rng)
    want, last = _frozen_scale_to_unit(series, z)
    if not 0.0 < float(abs(z)) < math.inf:  # |ExtComplex| overflows to NaN
        with pytest.raises(InvalidArgument, match="positive and finite"):
            scale_to_unit(series, z)
        return
    if float(last) == 0.0:
        with pytest.raises(InvalidArgument, match="underflows to zero"):
            scale_to_unit(series, z)
        return
    got = scale_to_unit(series, z)
    assert got.order == n - 1
    assert [_bits(v) for v in got.coeffs] == [_bits(v) for v in want]


_BAD_RADII = {
    "nan": math.nan,
    "inf": -math.inf,
    "complex-nan": complex(math.nan, math.nan),
    "complex-inf": complex(1.0, math.inf),
    "ExtReal-nan": ExtReal(math.nan),
    "ExtReal-inf": ExtReal(math.inf),
    "ExtComplex-inf": ExtComplex(1.0, math.inf),
    "ExtReal-zero": ExtReal(-0.0),
}


def _lane_series(precision, order):
    return TruncatedSeries([promote(float(exact_sqrt_coeff(k)), precision)
                            for k in range(order + 1)], order=order)


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
@pytest.mark.parametrize("z", list(_BAD_RADII.values()), ids=list(_BAD_RADII))
def test_scale_rejects_a_radius_that_is_not_positive_and_finite(z, precision):
    # the loop returned NaN or infinite coefficients, which fabry_estimate
    # read as Inconclusive at z = nan+nanj (a zero radius raised before too)
    with pytest.raises(InvalidArgument,
                       match="^radius must be positive and finite$"):
        scale_to_unit(_lane_series(precision, 8), z)


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
def test_scale_rejects_a_radius_whose_power_underflows(precision):
    # 1e-12^27 rounds to zero: the loop's coefficients from c_27 on were
    # zeros, which fabry_estimate read as a false CoefficientsVanish
    z = 1e-12 if precision == DOUBLE else ExtReal(1e-12)
    with pytest.raises(InvalidArgument, match=(
            r"^radius 1e-12 is too small for 33 coefficients: "
            r"radius\*\*27 underflows to zero$")):
        scale_to_unit(_lane_series(precision, 32), z)
    # 1e-12^26 does not: 27 coefficients scale
    assert scale_to_unit(_lane_series(precision, 26), z).coeffs[26] != 0.0


# ---------------------------------------------------------------------------
# recondition
# ---------------------------------------------------------------------------

def test_recondition_at_zero_is_identity():
    h = fixture("sqrt")
    assert recondition(h, 0.0) is h


def test_recondition_remainder_is_exact():
    # the affine map keeps r = 1 - t0 exactly representable for this base
    assert 1.0 - OJIKA1_BASE == 0.044352663818322036


@pytest.mark.parametrize("name", ["sqrt", "cusp", "ojika1", "monomial4"])
@pytest.mark.parametrize("t0", [0.3, OJIKA1_BASE])
def test_recondition_matches_shifted_homotopy(name, t0):
    h = fixture(name)
    hs = recondition(h, t0)
    assert hs.dim == h.dim
    rng = random.Random(hash((name, t0)) % 100000)
    for _ in range(5):
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(h.dim)]
        for s in (0.0, 0.5, 1.0):
            t = t0 + (1.0 - t0) * s
            got = evaluate(hs, x, s)
            want = evaluate(h, x, t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


@pytest.mark.parametrize("name", ["cusp", "ojika1"])
def test_recondition_twice_composes_the_charts(name):
    # b is in the parameter of recondition(h, a), so s maps to
    # t = a + (1 - a)(b + (1 - b) s) of the original h
    h = fixture(name)
    a, b = 0.3, 0.6
    hs = recondition(recondition(h, a), b)
    rng = random.Random(7)
    for _ in range(5):
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(h.dim)]
        for s in (0.0, 0.5, 1.0):
            t = a + (1.0 - a) * (b + (1.0 - b) * s)
            got = evaluate(hs, x, s)
            want = evaluate(h, x, t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def test_recondition_sqrt_path_closed_form():
    """Recentering at 1/2 turns the path into sqrt(0.5) * sqrt(1 - s)."""
    hs = recondition(fixture("sqrt"), 0.5)
    for s in (0.0, 0.37, 0.8):
        x = math.sqrt(0.5 - 0.5 * s)
        assert abs(evaluate(hs, [complex(x)], s)[0]) <= 1e-14
    coeffs = [math.sqrt(0.5) * float(exact_sqrt_coeff(k)) for k in range(6)]
    est = fabry_estimate(TruncatedSeries(coeffs, order=5))
    assert abs(complex(est.raw_ratio) - 10.0 / 7.0) <= 1e-13


@pytest.mark.parametrize("t0", [1.0, 1.5, -0.1])
def test_recondition_rejects_out_of_range(t0):
    with pytest.raises(InvalidArgument):
        recondition(fixture("sqrt"), t0)


# ---------------------------------------------------------------------------
# detect_last_pole
# ---------------------------------------------------------------------------

def test_detect_endpoint_only_fixtures():
    for name, x0 in (("sqrt", [1.0]), ("monomial4", [1.0, 1.0, 1.0, 1.0])):
        h = fixture(name)
        base = PathState.from_point(h, 0.0, x0)
        rho, t_star, t0 = detect_last_pole(h, base)
        assert rho is None
        assert t_star == 0.0
        assert t0 == pytest.approx(0.1, abs=1e-12)


def test_detect_vanishing_coefficients_fall_back():
    h = fixture("cusp")
    base = PathState.from_point(h, 0.0, [1.0])
    rho, t_star, t0 = detect_last_pole(h, base)
    assert rho is None
    assert t_star == 0.0
    assert t0 == pytest.approx(0.1, abs=1e-12)


def test_detect_base_point_near_reference_run():
    h = fixture("ojika1")
    base = PathState.from_point(h, 0.0, [1.0, 1.0])
    rho, t_star, t0 = detect_last_pole(h, base)
    assert rho is None
    assert t_star == pytest.approx(0.9375, abs=1e-12)
    assert abs(t0 - OJIKA1_BASE) <= 0.05


def test_detect_planted_interior_pole():
    """A lone complex pole is recovered along with the handover point."""
    pole = 0.5 + 0.5j
    h = explicit_homotopy(1, [[TMonomial((-pole, 1.0), (1,)),
                               TMonomial((-1.0,), (0,))]])
    base = PathState.from_point(h, 0.0, [-1.0 / pole])
    assert base.residual == 0.0
    rho, t_star, t0 = detect_last_pole(h, base)
    assert rho is not None
    assert abs(rho - pole) <= 1e-9
    assert t_star == pytest.approx(0.5, abs=1e-9)
    assert t0 == pytest.approx(0.55, abs=1e-9)


def test_detect_seed7_pole_needs_the_half_radius_retry():
    # the sqrt fixture x^2 (gamma (1 - t) + t) - gamma (1 - t) has its pole
    # at p = gamma / (gamma - 1); for seed 7 it lies inside the radius-0.85
    # circle at t = 0, which raises BranchJump, so only the halved circle
    # reads the pole
    gamma = gamma_from_seed(7)
    h = fixture("sqrt", gamma)
    start = newton_correct(h, 0.0, [1.0], default_config())
    p = gamma / (gamma - 1.0)
    assert abs(p) < 0.85
    with pytest.raises(BranchJump):
        taylor_coefficients(h, start, 0.85, 32)
    rho, t_star, t0 = detect_last_pole(h, start)
    assert rho is not None and abs(rho - p) < 0.03
    # t_star: the point of [0, 1] as far from p as from the endpoint t = 1
    assert abs(t_star - (1.0 - abs(p) ** 2) / (2.0 * (1.0 - p.real))) < 0.01


@pytest.mark.parametrize("name,seed,x0", [
    ("sqrt", None, (1.0,)),
    ("ojika1", None, (1.0, 1.0)),
    ("monomial4", None, (1.0,) * 4),
    ("cusp", None, (1.0,)),
    ("sqrt", 7, (1.0,)),
    ("ojika1", None, (-1.0, 1.0)),
    ("ojika1", None, (1.0, -1.0)),
], ids=["sqrt", "ojika1", "monomial4", "cusp", "sqrt-seed7", "ojika1--1,1",
        "ojika1-1,-1"])
def test_detect_lanes_sweep_alike(name, seed, x0):
    # the sweep demotes its start and tracks, walks and reads every
    # checkpoint in double, so both lanes answer alike to the bit (the
    # extended lane once differed in the last digits on seed 7 and -1,1)
    h = fixture(name, None if seed is None else gamma_from_seed(seed))
    answers = []
    for precision in (DOUBLE, EXTENDED):
        cfg = default_config(precision)
        x = list(x0) if precision == DOUBLE else [promote(v, EXTENDED)
                                                 for v in x0]
        start = newton_correct(h, 0.0, x, cfg)
        answers.append(detect_last_pole(h, start, cfg))
    assert answers[0] == answers[1]


def test_detect_stops_after_a_streak_of_vanishing_tails(monkeypatch):
    # cusp's path (1 - t)^2 is a polynomial, so the checkpoints at t = 0 and
    # 0.5 both read a vanishing tail and the sweep ends there, instead of
    # walking on until 1 - t < _SWEEP_FLOOR
    seen = []
    checkpoint = radar._checkpoint_estimate

    def counted(h, state, radius, cfg):
        seen.append(state.t)
        return checkpoint(h, state, radius, cfg)

    monkeypatch.setattr(radar, "_checkpoint_estimate", counted)
    h = fixture("cusp")
    result = detect_last_pole(h, PathState.from_point(h, 0.0, [1.0]))
    assert seen == [0.0, 0.5]
    assert result == (None, 0.0, 0.1)


def test_detect_raises_when_sweep_is_vacuous():
    cfg = default_config()
    h = fixture("sqrt")
    s = newton_correct(h, 0.0, [1.0], cfg)
    far = track_to(h, s, 0.9995, cfg)
    with pytest.raises(InconclusiveRadar):
        detect_last_pole(h, far, cfg)


def test_detect_conjugate_pair_defers_to_endpoint():
    # poles at 0.5 +/- 0.3i never dominate any checkpoint decisively
    h = explicit_homotopy(1, [[TMonomial((0.34, -1.0, 1.0), (1,)),
                               TMonomial((-1.0,), (0,))]])
    base = PathState.from_point(h, 0.0, [1.0 / 0.34])
    rho, t_star, t0 = detect_last_pole(h, base)
    assert rho is None
    assert t_star == 0.0
    assert t0 == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# locate_singularity
# ---------------------------------------------------------------------------

def test_locate_reference_branch_point():
    h = fixture("sqrt")
    s = newton_correct(h, 0.0, [1.0], default_config())
    est = locate_singularity(h, s, 64, t0=0.0)
    assert est.status == CONVERGED
    assert est.n_used == 64
    assert abs(complex(est.z) - 1.0) <= 4e-8


def test_locate_pinned_base_reproduces_reference_digits():
    h = fixture("ojika1")
    s = newton_correct(h, 0.0, [1.0, 1.0], default_config())
    est = locate_singularity(h, s, 64, t0=OJIKA1_BASE, coordinate=0)
    assert est.status == CONVERGED
    assert est.n_used == 64
    assert abs(complex(est.raw_ratio) - OJIKA1_RAW) <= 1e-9
    assert abs(complex(est.raw_ratio) - 1.02652) <= 1e-3
    assert abs(complex(est.z) - 1.0) <= 1e-4


def test_locate_pinned_base_default_coordinate():
    h = fixture("ojika1")
    s = newton_correct(h, 0.0, [1.0, 1.0], default_config())
    est = locate_singularity(h, s, 64, t0=OJIKA1_BASE)
    assert est.status == CONVERGED
    assert abs(complex(est.raw_ratio) - OJIKA1_RAW) <= 1e-3
    assert abs(complex(est.z) - 1.0) <= 1e-4


def test_locate_auto_base_point():
    h = fixture("ojika1")
    s = newton_correct(h, 0.0, [1.0, 1.0], default_config())
    est = locate_singularity(h, s, 64)
    assert est.status == CONVERGED
    assert abs(complex(est.z) - 1.0) <= 1e-4


def test_locate_extended_lane_monomial_system():
    cfg = default_config(EXTENDED)
    h = fixture("monomial4")
    x0 = [promote(1.0, EXTENDED)] * 4
    s = PathState.from_point(h, 0.0, x0)
    est = locate_singularity(h, s, 64, cfg, t0=0.0, coordinate=1)
    assert est.status == CONVERGED
    assert est.n_used == 64
    assert is_extended(est.z)
    assert float_magnitude(est.z - 1.0) <= 1e-8


def test_locate_extended_resumes_on_the_swept_path(monkeypatch):
    # from (1, -1) an unguarded one-call double track of ojika1 to t0
    # jumped to the (1, 1) path. The base point must stay on the path the
    # sweep read (the point every checkpoint sequence reaches)
    bases = []
    series = radar.taylor_coefficients

    def captured(hs, base, *args, **kwargs):
        bases.append(base)
        return series(hs, base, *args, **kwargs)

    monkeypatch.setattr(radar, "taylor_coefficients", captured)
    h = fixture("ojika1")
    cfg = default_config(EXTENDED)
    start = newton_correct(h, 0.0, [promote(1.0, EXTENDED),
                                    promote(-1.0, EXTENDED)], cfg)
    run = locate_singularity(h, start, 64, cfg)
    assert run.t0 == 0.9812641550034968
    x = [complex(v) for v in bases[-1].x]
    assert abs(x[0] - (0.9647511538092635 - 0.13284929108341886j)) < 1e-12
    assert abs(x[1] - (2.086912331027336 + 0.25623467930136784j)) < 1e-12
    assert run.status == "Converged"
    assert float_magnitude(run.z - 1.0) < 1e-6


def test_locate_reads_the_lane_from_t_as_well(monkeypatch):
    # an extended t alone makes an extended run, as extended coordinates
    # do; the start is demoted, t included, so the sweep and the track run
    # in double: t0, rho and t_star keep the double start's bits, the run
    # lifts one circle, the final one, and z is the extended-x run's
    lifts = []
    refine = tracker._refine

    def counted(*args):
        lifts.append(args)
        return refine(*args)

    monkeypatch.setattr(tracker, "_refine", counted)
    monkeypatch.setattr(fourier, "_refine", counted)
    h = fixture("ojika1")
    start = newton_correct(h, 0.0, [1.0, -1.0], default_config())
    double = locate_singularity(h, start, 64, default_config())
    cfg = default_config(EXTENDED)
    x_only = locate_singularity(
        h, replace(start, x=[promote(v, EXTENDED) for v in start.x]), 64, cfg)
    lifts.clear()
    run = locate_singularity(h, replace(start, t=promote(0.0, EXTENDED)),
                             64, cfg)
    assert len(lifts) == 1
    assert repr((run.t0, run.rho, run.t_star)) == repr(
        (double.t0, double.rho, double.t_star))
    assert run.t0 == 0.9812641550034968
    assert is_extended(run.z)
    assert repr(run.z) == repr(x_only.z)


@pytest.mark.parametrize("name,t", [("sqrt", 0.3), ("ojika1", 0.3),
                                    ("monomial4", 0.3), ("cusp", 0.3),
                                    ("ojika1", OJIKA1_BASE)])
def test_double_track_lifted_once_matches_the_extended_track(
        monkeypatch, name, t):
    # locate_singularity tracks the start to t0 in double and hands
    # taylor_coefficients the end point, promoted exactly for an extended
    # start, so the lane rides on it unlifted. Lifted once at the exact t,
    # that point meets the 50-digit root there, as the extended track_to's
    # end point does
    bases = []
    series = radar.taylor_coefficients

    def captured(hs, base, *args, **kwargs):
        bases.append(base)
        return series(hs, base, *args, **kwargs)

    monkeypatch.setattr(radar, "taylor_coefficients", captured)
    h = fixture(name)
    cfg = default_config(EXTENDED)
    start = newton_correct(h, 0.0, [promote(1.0, EXTENDED)] * h.dim, cfg)
    double = track_to(h, demoted(start), t, default_config())
    promoted = [promote(v, EXTENDED) for v in double.x]
    locate_singularity(h, start, 16, cfg, t0=t)
    locate_singularity(h, demoted(start), 16, default_config(), t0=t)
    assert [base.x for base in bases] == [promoted, double.x]
    exact = exact_point(h, t, double.x)
    lifted = newton_correct(h, t, promoted, cfg)
    for point in (lifted, track_to(h, start, t, cfg)):
        assert point.t == t
        assert all(is_extended(v) for v in point.x)
        assert relative_error(point.x, exact) <= lift_tolerance(h, t)


def test_locate_double_lane_dominant_coordinate():
    h = fixture("monomial4")
    s = PathState.from_point(h, 0.0, [1.0, 1.0, 1.0, 1.0])
    est = locate_singularity(h, s, 64, t0=0.0)
    assert est.status == CONVERGED
    assert abs(complex(est.z) - 1.0) <= 2e-6


def test_locate_vanishing_tail_reports_zero():
    h = fixture("cusp")
    s = newton_correct(h, 0.0, [1.0], default_config())
    est = locate_singularity(h, s, 64)
    assert est.status == COEFFICIENTS_VANISH
    assert complex(est.z) == 0j
    assert est.n_used == 2


def test_locate_rejects_small_order():
    h = fixture("sqrt")
    s = newton_correct(h, 0.0, [1.0], default_config())
    with pytest.raises(InvalidArgument):
        locate_singularity(h, s, 3)


@pytest.mark.parametrize("order,n_used", [(9, 8), (16, 16), (126, 64),
                                          (127, 128)])
def test_locate_rounds_order_to_a_power_of_two(order, n_used):
    # P samples, P the smallest power of two >= order + 2; ratios to P / 2
    h = fixture("sqrt")
    s = newton_correct(h, 0.0, [1.0], default_config())
    assert locate_singularity(h, s, order, t0=0.0).n_used == n_used


def test_locate_rejects_bad_base_and_step_before_tracking(monkeypatch):
    h = fixture("sqrt")
    s = newton_correct(h, 0.0, [1.0], default_config())
    # one continuation step at most: any tracking would raise NoConvergence
    monkeypatch.setattr(tracker, "_MAX_STEPS", 1)
    for bad in ({"t0": 1.5}, {"t0": 1.0}, {"t0": -0.1}, {"t0": math.nan},
                {"step": math.inf}, {"step": math.nan}, {"step": 0.0},
                {"t0": 0.5, "step": math.inf}):
        with pytest.raises(InvalidArgument):
            locate_singularity(h, s, 64, default_config(), **bad)


@functools.lru_cache(maxsize=None)
def scaled_sqrt_run(c, s, precision, t0):
    """locate_singularity on c * (s^2 x^2 - (1 - t)), whose path is
    sqrt(1 - t) / s, from the start 1 / s corrected at t = 0."""
    h = Homotopy(dim=1, gamma=1.0, equations=[
        [TMonomial((c * s * s,), (2,)), TMonomial((-c, c), (0,))]])
    cfg = default_config(precision)
    start = newton_correct(h, 0.0, [promote(1.0 / s, precision)], cfg)
    return locate_singularity(h, start, 64, cfg, t0=t0)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(c_exp=st.floats(-8.0, 8.0), s_exp=st.floats(-6.0, 6.0))
@example(c_exp=4.0, s_exp=0.0)
@example(c_exp=8.0, s_exp=0.0)
@example(c_exp=-8.0, s_exp=-6.0)
@example(c_exp=8.0, s_exp=6.0)
def test_radar_is_invariant_to_equation_and_coordinate_scale(c_exp, s_exp):
    # Newton, the walk's guards and the refinement all stop on sizes
    # relative to the terms or the samples, so scaling the equation by c
    # and the coordinate by 1/s changes neither the status nor z
    c, s = 10.0 ** c_exp, 10.0 ** s_exp
    for precision in (DOUBLE, EXTENDED):
        for t0 in (0.0, None):
            want = scaled_sqrt_run(1.0, 1.0, precision, t0)
            got = scaled_sqrt_run(c, s, precision, t0)
            assert got.status == want.status == CONVERGED
            z = complex(want.z)
            assert abs(complex(got.z) - z) <= 1e-12 * abs(z)
