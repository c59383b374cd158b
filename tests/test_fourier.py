"""Circle sampling and inverse-DFT coefficient extraction."""

import cmath
import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from singradar import fourier, tracker
from singradar.cli import gamma_from_seed
from singradar.errors import BranchJump, InvalidArgument
from singradar.fourier import (
    CircleSamples,
    default_step,
    direct_inverse_dft,
    inverse_dft,
    sample_circle,
    taylor_coefficients,
)
from singradar.polysys import Homotopy, TMonomial, fixture
from singradar.radar import recondition
from singradar.scalars import (
    DOUBLE,
    EXTENDED,
    ExtComplex,
    ExtReal,
    dd_mul,
    is_extended,
    promote,
    root_of_unity,
    scalar_eps,
)
from singradar.tracker import PathState, _corrected, default_config, track_to

from mp_oracle import mp_solve, mp_value


def exact_sqrt_coeff(k):
    c = Fraction(1)
    for i in range(k):
        c = c * Fraction(2 * i - 1, 2 * (i + 1))
    return c


def direct_idft_oracle(values):
    n = len(values)
    out = []
    for k in range(n):
        terms = [values[j] * cmath.exp(-2j * math.pi * j * k / n)
                 for j in range(n)]
        re = math.fsum(t.real for t in terms)
        im = math.fsum(t.imag for t in terms)
        out.append(complex(re / n, im / n))
    return out


def random_vector(n, seed):
    rng = random.Random(seed)
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def random_ext_vector(n, seed):
    """Extended values whose lo parts are nonzero and normalised."""
    rng = random.Random(seed)

    def part():
        hi = rng.uniform(-1, 1)
        return ExtReal(hi, rng.uniform(-0.5, 0.5) * math.ulp(hi))

    return [ExtComplex(part(), part()) for _ in range(n)]


# Reference kernels: the object-per-scalar transforms the array kernels
# replaced.  Caching the twiddles changes no bits, only the test's run time.
_twiddle = functools.lru_cache(maxsize=None)(root_of_unity)


def reference_fft(vals, sign):
    n = len(vals)
    if n == 1:
        return [vals[0]]
    even = reference_fft(vals[0::2], sign)
    odd = reference_fft(vals[1::2], sign)
    out = [None] * n
    half = n // 2
    for k in range(half):
        term = _twiddle(n, sign * k) * odd[k]
        out[k] = even[k] + term
        out[k + half] = even[k] - term
    return out


def reference_inverse_dft(values):
    n = float(len(values))
    out = reference_fft([promote(v, EXTENDED) for v in values], -1)
    return [ExtComplex(v.re / n, v.im / n) for v in out]


def reference_forward_dft(values):
    return reference_fft([promote(v, EXTENDED) for v in values], +1)


def reference_direct_inverse_dft(values):
    m = len(values)
    work = [promote(v, EXTENDED) for v in values]
    out = []
    for k in range(m):
        acc = ExtComplex(ExtReal.from_value(0.0), ExtReal.from_value(0.0))
        for j in range(m):
            acc = acc + work[j] * _twiddle(m, -j * k)
        out.append(ExtComplex(acc.re / float(m), acc.im / float(m)))
    return out


def bits(v):
    """Every double of a lane value, signed zeros told apart."""
    if isinstance(v, ExtComplex):
        parts = (v.re.hi, v.re.lo, v.im.hi, v.im.lo)
    else:
        parts = (v.real, v.imag)
    return tuple(float.hex(p) for p in parts)


def assert_bit_identical(got, want_ext, extended):
    want = want_ext if extended else [complex(v) for v in want_ext]
    assert all(is_extended(v) == extended for v in got)
    assert [bits(v) for v in got] == [bits(v) for v in want]


def sqrt_base():
    h = fixture("sqrt")
    return h, PathState.from_point(h, 0.0, [1.0])


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_idft_constant_vector():
    g = inverse_dft([complex(3, -1)] * 8)
    assert g[0] == complex(3, -1)
    assert max(abs(v) for v in g[1:]) == 0.0


def test_idft_pure_harmonic():
    values = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
    g = inverse_dft(values)
    assert abs(g[1] - 1.0) <= 1e-15
    assert max(abs(v) for k, v in enumerate(g) if k != 1) <= 1e-15


def test_idft_matches_direct_summation():
    for n, seed in ((8, 5), (64, 6)):
        v = random_vector(n, seed)
        got = inverse_dft(v)
        want = direct_idft_oracle(v)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13


def test_forward_inverse_round_trip():
    v = random_vector(1024, 7)
    back = reference_forward_dft(inverse_dft(v))
    scale = max(abs(x) for x in v)
    assert max(abs(complex(a) - b) for a, b in zip(back, v)) <= 1e-13 * scale


def test_transform_rejects_bad_lengths():
    for bad in ([], [1.0] * 3, [1.0] * 12):
        with pytest.raises(InvalidArgument):
            inverse_dft(bad)


def test_direct_transform_any_length():
    rng = random.Random(9)
    g = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(17)]
    values = []
    for j in range(17):
        terms = [g[k] * cmath.exp(2j * math.pi * j * k / 17) for k in range(17)]
        values.append(complex(math.fsum(t.real for t in terms),
                              math.fsum(t.imag for t in terms)))
    got = direct_inverse_dft(values)
    assert max(abs(a - b) for a, b in zip(got, g)) <= 1e-13


def test_direct_transform_agrees_with_fft():
    v = random_vector(32, 11)
    a = inverse_dft(v)
    b = direct_inverse_dft(v)
    assert max(abs(p - q) for p, q in zip(a, b)) <= 1e-14


@pytest.mark.parametrize("n", [2 ** p for p in range(9)])
def test_radix2_bit_identical_to_object_kernel(n):
    for seed, extended in ((100 + n, False), (200 + n, True)):
        v = random_ext_vector(n, seed) if extended else random_vector(n, seed)
        assert_bit_identical(inverse_dft(v), reference_inverse_dft(v),
                             extended)


@pytest.mark.parametrize("m", [1, 3, 17, 65])
def test_direct_bit_identical_to_object_kernel(m):
    for seed, extended in ((300 + m, False), (400 + m, True)):
        v = random_ext_vector(m, seed) if extended else random_vector(m, seed)
        assert_bit_identical(direct_inverse_dft(v),
                             reference_direct_inverse_dft(v), extended)


def test_root_of_unity_mpmath_oracle():
    with mpmath.workdps(50):
        for n, k in ((3, 1), (5, 2), (7, 3), (12, 5), (17, 4), (64, 9),
                     (100, 37), (1024, 1), (1024, 511), (2048, 1),
                     (2048, 1365), (2048, -3)):
            exact = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            assert abs(mp_value(root_of_unity(n, k)) - exact) <= 1e-30


def test_inverse_dft_mpmath_oracle():
    n = 64
    v = random_ext_vector(n, 17)
    got = inverse_dft(v)
    with mpmath.workdps(50):
        x = [mp_value(a) for a in v]
        g = [mpmath.fsum(x[j] * mpmath.expjpi(mpmath.mpf(-2 * j * k) / n)
                         for j in range(n)) / n for k in range(n)]
        scale = max(abs(c) for c in g)
        err = max(abs(mp_value(a) - b) for a, b in zip(got, g))
        assert err <= 1e-30 * scale


# ---------------------------------------------------------------------------
# circle sampling
# ---------------------------------------------------------------------------

def test_sample_first_point_closed_form():
    h, base = sqrt_base()
    s = sample_circle(h, base, 0.85, 8, default_config())
    assert abs(complex(s.values[0][0]) - math.sqrt(0.15)) <= 1e-14
    assert s.n == 8 and s.h == 0.85


def test_sample_conjugate_symmetry():
    h, base = sqrt_base()
    s = sample_circle(h, base, 0.5, 16, default_config())
    vals = [complex(v) for v in s.values[0]]
    for k in range(1, 16):
        assert abs(vals[k].conjugate() - vals[16 - k]) <= 1e-12


def test_sample_rejects_nonpositive_step():
    h, base = sqrt_base()
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(InvalidArgument):
            sample_circle(h, base, bad, 8, default_config())


def test_sample_count_must_be_positive():
    # any count n >= 1 walks; only inverse_dft needs a power of two
    h, base = sqrt_base()
    with pytest.raises(InvalidArgument):
        sample_circle(h, base, 0.5, 0, default_config())
    with pytest.raises(InvalidArgument):
        CircleSamples(t0=0.0, h=0.5, n=0, parts=(np.empty((1, 0)),) * 4,
                      lifted=False)


def test_monodromy_guard():
    h = fixture("sqrt")
    enclosing = PathState.from_point(h, 1 + 0.3j, [cmath.sqrt(-0.3j)])
    with pytest.raises(BranchJump):
        sample_circle(h, enclosing, 0.35, 64, default_config())
    clear = PathState.from_point(h, 1 + 0.5j, [cmath.sqrt(-0.5j)])
    s = sample_circle(h, clear, 0.35, 64, default_config())
    assert len(s.values[0]) == 64


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e7])
def test_wrap_guard_is_relative_to_the_samples(scale, precision):
    # scale^2 x^2 - (1 + 2i t): the radius-0.8 circle about t0 = 0 encloses
    # the branch point t = 0.5i, so the walk returns at -x; at scale 1e7,
    # |x| ~ 1e-7 hid that from a drift tolerance of 1e-6 in absolute terms
    h = Homotopy(dim=1, gamma=1.0, equations=[
        [TMonomial((scale * scale,), (2,)), TMonomial((-1.0, -2j), (0,))]])
    base = PathState.from_point(h, promote(0.0, precision),
                                [promote(1.0 / scale, precision)])
    with pytest.raises(BranchJump, match="different branch"):
        sample_circle(h, base, 0.8, 32, default_config(precision))


@pytest.mark.parametrize("t", [0.99609375, 0.998046875])
def test_cusp_circle_near_the_endpoint(t):
    # x = (1 - t)^2 is 1.5e-5 and 3.8e-6 here; a Newton stop on the
    # absolute residual accepted hops with large relative error, and the
    # walk raised BranchJump
    h = fixture("cusp")
    base = track_to(h, PathState.from_point(h, 0.0, [1.0]), t,
                    default_config())
    step = 0.85 * (1.0 - t)
    s = sample_circle(h, base, step, 32, default_config())
    for k, x in enumerate(s.values[0]):
        gap = (1.0 - t) - step * cmath.exp(2j * math.pi * k / 32)
        assert abs(complex(x) - gap ** 2) <= 1e-12 * abs(gap) ** 2


def real_fixture_base(name):
    h = fixture(name)
    return h, PathState.from_point(h, 0.0, [1.0] * h.dim)


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("lift", [True, False])
@pytest.mark.parametrize("n", [16, 17, 32, 128])
@pytest.mark.parametrize("name", ["sqrt", "monomial4", "cusp"])
def test_real_circle_is_mirrored_bit_for_bit(name, n, lift):
    # a real homotopy about a real centre and base point has
    # x(conj t) = conj x(t): the samples past the half are the conjugates
    # of the walked ones, to the last bit of every part
    h, base = real_fixture_base(name)
    parts = sample_circle(h, base, 0.5, n, default_config(), lift).parts
    for k in range(1, n):
        assert same_bits(parts[0][:, k], parts[0][:, n - k])
        assert same_bits(parts[1][:, k], parts[1][:, n - k])
        if 2 * k != n:
            assert same_bits(parts[2][:, k], -parts[2][:, n - k])
            assert same_bits(parts[3][:, k], -parts[3][:, n - k])
    if n % 2 == 0:
        # the sample at the real t0 - step keeps its real part only
        assert not parts[2][:, n // 2].any() and not parts[3][:, n // 2].any()


def count_hops(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[5])
        return advance(*args)

    advance = fourier._advance_arc
    monkeypatch.setattr(fourier, "_advance_arc", counted)
    return calls


# x^2 + 1 - t = 0 has real coefficients; its path through x = i is not real
IMAGINARY_PATH = Homotopy(dim=1, gamma=1.0, equations=[
    [TMonomial((1.0,), (2,)), TMonomial((1.0, -1.0), (0,))]])


@pytest.mark.parametrize("case", ["ojika1", "sqrt-gamma", "complex-start"])
@pytest.mark.parametrize("n", [16, 17])
def test_circles_that_are_not_real_walk_every_hop(case, n, monkeypatch):
    if case == "ojika1":
        h = fixture("ojika1")
        base = track_to(h, PathState.from_point(h, 0.0, [1.0, 1.0]), 0.3,
                        default_config())
    elif case == "sqrt-gamma":
        h = fixture("sqrt", gamma=gamma_from_seed(7))  # radius --seed 7
        base = PathState.from_point(h, 0.0, [1.0])
    else:
        h = IMAGINARY_PATH
        base = PathState.from_point(h, 0.0, [1j])
    calls = count_hops(monkeypatch)
    sample_circle(h, base, 0.37, n, default_config())
    assert calls == list(range(1, n + 1))


@pytest.mark.parametrize("n", [3, 16, 17])
def test_real_circle_walks_half_and_one_hop(n, monkeypatch):
    h, base = real_fixture_base("sqrt")
    calls = count_hops(monkeypatch)
    sample_circle(h, base, 0.37, n, default_config())
    assert calls == list(range(1, n // 2 + 2))


# x^2 - (t + 0.3) = 0: a real homotopy with a branch point at t = -0.3
BEHIND_THE_CENTRE = Homotopy(dim=1, gamma=1.0, equations=[
    [TMonomial((1.0,), (2,)), TMonomial((-0.3, -1.0), (0,))]])


@pytest.mark.parametrize("lift", [True, False])
@pytest.mark.parametrize("n", [32, 33, 128])
def test_mirrored_walk_catches_a_branch_point_on_the_real_axis(n, lift):
    # the radius-0.5 circle about t0 = 0 encloses t = -0.3; the half walk
    # crosses the cut there, so the hop past the half lands on -conj of the
    # sample it mirrors
    h = BEHIND_THE_CENTRE
    base = PathState.from_point(h, 0.0, [math.sqrt(0.3)])
    with pytest.raises(BranchJump, match="different branch"):
        sample_circle(h, base, 0.5, n, default_config(), lift)
    s = sample_circle(h, base, 0.2, n, default_config(), lift)
    for k, x in enumerate(s.values[0]):
        want = cmath.sqrt(0.3 + 0.2 * cmath.exp(2j * math.pi * k / n))
        assert abs(complex(x) - want) <= 1e-14


def sqrt_path_error(samples, n, step):
    """max_k |x_k - sqrt(1 - t_k)| at 50 digits, t_k the double-double
    angle t0 + step*w^k the samples were taken at (t0 = 0)."""
    step_ext = ExtReal.from_value(step)
    worst = 0
    with mpmath.workdps(50):
        for k, x in enumerate(samples):
            t = mp_value(ExtComplex(0.0) + step_ext * root_of_unity(n, k))
            worst = max(worst, abs(mp_value(x) - mpmath.sqrt(1 - t)))
    return worst


_ORACLE_CIRCLES = ((128, 0.5), (17, 0.5), (65, 0.85))


@pytest.mark.parametrize("n, step, precision", [
    pytest.param(n, step, precision, id="%d-%s%s" % (
        n, step, "-extended" if precision == EXTENDED else ""))
    for precision in (DOUBLE, EXTENDED) for n, step in _ORACLE_CIRCLES])
def test_double_lane_samples_mpmath_oracle(n, step, precision):
    # both lanes walk in double, then lift every sample to double-double in
    # one batched refinement; 17 and 65 are the counts of the reference
    # tables
    h, base = sqrt_base()
    if precision == EXTENDED:
        base = PathState.from_point(h, promote(0.0, EXTENDED),
                                    [promote(1.0, EXTENDED)])
    s = sample_circle(h, base, step, n, default_config(precision))
    assert all(isinstance(x, ExtComplex) for x in s.values[0])
    assert sqrt_path_error(s.values[0], n, step) <= 1e-31


def test_double_lane_negative_exponent_mpmath_oracle():
    # (1 - t) x^-2 - 1 has the path of sqrt(1 - t); its batched residual
    # takes array reciprocals
    h = Homotopy(dim=1, gamma=1.0, equations=[
        [TMonomial((1.0, -1.0), (-2,)), TMonomial((-1.0,), (0,))]])
    base = PathState.from_point(h, 0.0, [1.0])
    s = sample_circle(h, base, 0.5, 128, default_config())
    assert sqrt_path_error(s.values[0], 128, 0.5) <= 1e-31


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
@pytest.mark.parametrize("name, t0", [("ojika1", 0.955647336181678),
                                      ("sqrt", 0.1), ("monomial4", 0.1)])
def test_reconditioned_samples_mpmath_oracle(name, t0, precision):
    # samples of recondition(h, t0) at s_k = 0.85 w^k, at radius's sample
    # count for order 64, against a 50-digit solve of the original h at
    # t0 + r s_k: an error in the substitution shows here (an expansion of
    # q about t0 in double left 2e-14)
    h = fixture(name)
    cfg = default_config(precision)
    x0 = [promote(1.0, precision)] * h.dim
    state = track_to(h, PathState.from_point(h, 0.0, x0), t0, cfg)
    hs = recondition(h, t0)
    base = PathState.from_point(hs, 0.0, state.x)
    n, step = 128, 0.85
    samples = sample_circle(hs, base, step, n, cfg).values
    with mpmath.workdps(50):
        for k in (0, 27, 64, 101):
            s = mpmath.mpf(step) * mpmath.expjpi(mpmath.mpf(2 * k) / n)
            t = mpmath.mpf(t0) + mpmath.mpf(1.0 - t0) * s
            got = [mp_value(coord[k]) for coord in samples]
            want = mp_solve(h, got, t)
            err = max(abs(a - b) for a, b in zip(got, want))
            assert err <= 1e-24 * max(abs(b) for b in want), (k, err)


@pytest.mark.parametrize("n", [32, 64])
def test_singular_jacobian_hop_is_rewalked(n):
    # on monomial4 reconditioned at t0 = 0.1, one hop of the radius-0.85
    # walk meets a singular Jacobian at n = 32 and 64; its arc is re-walked
    # in substeps, as a hop that does not converge is, and the samples land
    # on the branch the 128-sample walk reads
    h = fixture("monomial4")
    cfg = default_config()
    state = track_to(h, PathState.from_point(h, 0.0, [1.0] * 4), 0.1, cfg)
    hs = recondition(h, 0.1)
    base = PathState.from_point(hs, 0.0, state.x)
    got = sample_circle(hs, base, 0.85, n, cfg).values
    fine = sample_circle(hs, base, 0.85, 128, cfg).values
    for coord, ref in zip(got, fine):
        for k, v in enumerate(coord):
            want = ref[k * (128 // n)]
            assert abs(complex(v - want)) <= 1e-25 * abs(complex(want))


# ---------------------------------------------------------------------------
# taylor coefficients
# ---------------------------------------------------------------------------

def test_taylor_c0_is_base_point():
    # step well inside each branch's convergence radius and n large enough
    # that aliasing O((step/r)^n) sits below the newton tolerance; the
    # ojika1 branch from (1,1) has a singular parameter only ~0.47 from 0
    cases = (("sqrt", 0.4, 32), ("cusp", 0.4, 32), ("ojika1", 0.2, 64))
    for name, step, n in cases:
        h = fixture(name)
        base = PathState.from_point(h, 0.0, [1.0] * h.dim)
        series = taylor_coefficients(h, base, step, n, default_config())
        assert len(series) == h.dim
        for i, s in enumerate(series):
            assert abs(s.coeffs[0] - base.x[i]) <= 1e-12


def test_taylor_sqrt_high_order_double():
    h, base = sqrt_base()
    s = taylor_coefficients(h, base, 0.85, 128, default_config())[0]
    assert s.order == 127
    e1 = abs(s.coeffs[1] - float(exact_sqrt_coeff(1)))
    e64 = abs(s.coeffs[64] - float(exact_sqrt_coeff(64)))
    assert e1 <= 3e-7
    assert e64 <= 9e-5
    # extended-lane accumulation leaves truncation as the only error source
    assert e1 <= 1e-11
    assert e64 <= 1e-11


def test_taylor_sqrt_extended_precision():
    h = fixture("sqrt")
    base = PathState.from_point(h, promote(0.0, EXTENDED),
                                [promote(1.0, EXTENDED)])
    s = taylor_coefficients(h, base, 0.5, 128, default_config(EXTENDED))[0]
    assert all(is_extended(c) for c in s.coeffs)
    e64 = abs(complex(s.coeffs[64]) - float(exact_sqrt_coeff(64)))
    assert e64 <= 1e-9
    assert e64 <= 1e-12


def test_taylor_sqrt_extended_mpmath_oracle():
    # x(t) = sqrt(1 - t): the extended lane must carry its coefficients
    # scaled by step^k to double-double accuracy, which a polish that
    # stopped at double accuracy would not
    h = fixture("sqrt")
    base = PathState.from_point(h, promote(0.0, EXTENDED),
                                [promote(1.0, EXTENDED)])
    s = taylor_coefficients(h, base, 0.5, 128, default_config(EXTENDED))[0]
    worst = 0
    with mpmath.workdps(50):
        for k, c in enumerate(s.coeffs):
            exact = exact_sqrt_coeff(k)
            err = abs(mp_value(c) - mpmath.mpf(exact.numerator) / exact.denominator)
            worst = max(worst, err * mpmath.mpf(0.5) ** k)
    assert worst <= 1e-30


def test_eighth_derivative_recovery():
    h, base = sqrt_base()
    s = taylor_coefficients(h, base, 0.5, 16, default_config())[0]
    got = s.coeffs[8].real * math.factorial(8)
    want = float(exact_sqrt_coeff(8)) * math.factorial(8)
    assert abs((got - want) / want) <= 1e-5


def test_doubling_n_keeps_low_coefficients():
    h, base = sqrt_base()
    lo = taylor_coefficients(h, base, 0.5, 16, default_config())[0].coeffs
    hi = taylor_coefficients(h, base, 0.5, 32, default_config())[0].coeffs
    for k in range(8):
        exact = float(exact_sqrt_coeff(k))
        assert abs(hi[k] - exact) <= 10.0 * abs(lo[k] - exact) + 1e-15


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
@pytest.mark.parametrize("name, step, n", [("ojika1", 0.85, 64),
                                           ("monomial4", 0.3, 32),
                                           ("sqrt", 0.004, 128)])
def test_taylor_scaling_matches_extreal_division(name, step, n, precision):
    # the coefficients are the transform's divided by step^k; the array
    # pass must give what dividing each one by an ExtReal power gives, in
    # hi and lo (0.004^127 is 2.9e-305, near the bottom of the range)
    h = fixture(name)
    base = PathState.from_point(h, 0.0, [promote(1.0, precision)] * h.dim)
    got = taylor_coefficients(h, base, step, n)
    samples = sample_circle(h, base, step, n)
    step_ext = ExtReal(step)
    for series, coord in zip(got, samples.values):
        power = ExtReal(1.0)
        for k, c in enumerate(inverse_dft(coord)):
            if k:
                power = power * step_ext
            want = ExtComplex(c.re / power, c.im / power)
            v = series.coeffs[k]
            if precision == EXTENDED:
                assert (v.re.hi, v.re.lo, v.im.hi, v.im.lo) == (
                    want.re.hi, want.re.lo, want.im.hi, want.im.lo)
            else:
                assert type(v) is complex and v == complex(want)


# the t0 of each fixture's default `radius` golden
GOLDEN_T0 = {"sqrt": 0.1, "ojika1": 0.94375, "monomial4": 0.1, "cusp": 0.1}


def per_coordinate_taylor(samples, extended):
    """The former route from the circle to the coefficients: each
    coordinate's samples as a list of complex or ExtComplex objects through
    inverse_dft if lifted, else through the complex128 transform, then
    every coefficient divided by an ExtReal power of the step, rounded to
    complex in the double lane."""
    step = ExtReal(samples.h)
    n = len(samples)
    out = []
    for coord in samples.values:
        power = ExtReal(1.0)
        coeffs = []
        if not samples.lifted:
            coord = [complex(g.real / n, g.imag / n) for g in
                     fourier._radix2_double(np.array(coord)).tolist()]
        for k, c in enumerate(inverse_dft(coord) if samples.lifted
                              else coord):
            if k:
                power = power * step
            c = promote(c, EXTENDED)
            v = ExtComplex(c.re / power, c.im / power)
            coeffs.append(v if extended else complex(v))
        out.append(coeffs)
    return out


@pytest.mark.parametrize("at_golden_t0", [False, True])
@pytest.mark.parametrize("name", ["sqrt", "ojika1", "monomial4", "cusp"])
def test_one_pass_transform_matches_the_per_coordinate_route(name,
                                                             at_golden_t0,
                                                             monkeypatch):
    # taylor_coefficients transforms all coordinates of a circle at once
    # from the sample arrays; every coefficient must carry the bits of the
    # per-coordinate route, in both lanes, lifted or not, at n = 32 and 128.
    # The base is formed as locate_singularity forms it.
    circles = []

    def record(*args):
        circles.append(sample_circle(*args))
        return circles[-1]

    monkeypatch.setattr(fourier, "sample_circle", record)
    h = fixture(name)
    t0 = GOLDEN_T0[name] if at_golden_t0 else 0.0
    x = track_to(h, PathState.from_point(h, 0.0, [1.0] * h.dim), t0,
                 default_config()).x
    hs = recondition(h, t0)
    for n in (32, 128):
        for lift in (True, False):
            for precision in (DOUBLE, EXTENDED):
                base = PathState.from_point(
                    hs, 0.0, [promote(v, precision) for v in x])
                got = taylor_coefficients(hs, base, None, n, lift=lift)
                want = per_coordinate_taylor(circles[-1],
                                             precision == EXTENDED)
                assert [[bits(c) for c in s.coeffs] for s in got] == [
                    [bits(c) for c in coord] for coord in want], (
                        n, lift, precision)


def test_step_powers_keep_the_bits_of_the_frozen_loop():
    # the one power routine at lo = 0, as taylor_coefficients calls it,
    # against its former loop from 1.0, with the same underflow message
    rng = random.Random(27)
    for _ in range(120):
        step = 10.0 ** rng.uniform(-2.5, 2.5)
        n = rng.choice([1, 2, 32, 128, 1024])
        want_hi, want_lo = np.empty(n), np.empty(n)
        power = (1.0, 0.0)
        for k in range(n):
            want_hi[k], want_lo[k] = power
            power = dd_mul(*power, step, 0.0)
        if not want_hi.all():
            k = int(np.flatnonzero(want_hi == 0.0)[0])
            with pytest.raises(InvalidArgument, match=(
                    f"^step {step!r} is too small for {n} samples: "
                    f"step\\*\\*{k} underflows to zero$")):
                fourier._step_powers(step, 0.0, n)
            continue
        got_hi, got_lo = fourier._step_powers(step, 0.0, n)
        assert got_hi.tobytes() == want_hi.tobytes()
        assert got_lo.tobytes() == want_lo.tobytes()


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
def test_step_too_small_for_the_sample_count_is_an_argument_error(precision):
    # 0.002^127 underflows to zero, so the coefficients cannot be divided
    # by the powers of the step; 0.004^127 above does not
    h = fixture("sqrt")
    base = PathState.from_point(h, 0.5, [promote(0.5 ** 0.5, precision)])
    with pytest.raises(InvalidArgument, match=r"^step 0\.002 is too small "
                       r"for 128 samples: step\*\*\d+ underflows to zero$"):
        taylor_coefficients(h, base, 0.002, 128)


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
def test_step_is_checked_before_the_circle_is_walked(precision, monkeypatch):
    # a step too small for the sample count, or not positive, is rejected
    # before any Newton correction: the walk would be wasted work
    seen = []

    def record(h, t, x, tol, history=None):
        seen.append(t)
        return _corrected(h, t, x, tol, history)

    monkeypatch.setattr(fourier, "_corrected", record)
    monkeypatch.setattr(tracker, "_corrected", record)
    h = fixture("sqrt")
    base = PathState.from_point(h, 0.5, [promote(0.5 ** 0.5, precision)])
    with pytest.raises(InvalidArgument, match=r"^step 0\.002 is too small "
                       r"for 128 samples: step\*\*\d+ underflows to zero$"):
        taylor_coefficients(h, base, 0.002, 128)
    with pytest.raises(InvalidArgument,
                       match="^step must be positive and finite$"):
        taylor_coefficients(h, base, 0.0, 128)
    assert seen == []
    # the patched corrector sees the walk of a step that is accepted
    taylor_coefficients(h, base, 0.3, 8)
    assert len(seen) >= 8


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
def test_count_is_checked_before_the_circle_is_walked(precision, monkeypatch):
    # inverse_dft needs a power of two: a count that is not one is rejected
    # before any Newton correction, by the transform's own length check
    seen = []

    def record(h, t, x, tol, history=None):
        seen.append(t)
        return _corrected(h, t, x, tol, history)

    monkeypatch.setattr(fourier, "_corrected", record)
    monkeypatch.setattr(tracker, "_corrected", record)
    h = fixture("sqrt")
    base = PathState.from_point(h, 0.5, [promote(0.5 ** 0.5, precision)])
    for n in (24, 0):
        with pytest.raises(InvalidArgument,
                           match="^length must be a power of two$"):
            taylor_coefficients(h, base, None, n)
    assert seen == []


def test_unsubdivided_hops_take_the_scalar_route_parameters(monkeypatch):
    # the walk reads each hop's t from the batched twiddle product; every
    # one must carry the bits of t0 + step * w^k formed one at a time
    seen = []

    def record(h, t, x, tol, history=None):
        seen.append(t)
        return _corrected(h, t, x, tol, history)

    monkeypatch.setattr(fourier, "_corrected", record)
    h = fixture("ojika1")
    base = track_to(h, PathState.from_point(h, 0.0, [1.0, 1.0]), 0.3,
                    default_config())
    n, step = 16, 0.37
    sample_circle(h, base, step, n)
    t0, step_ext = promote(0.3, EXTENDED), ExtReal(step)
    want = [complex(t0 + step_ext * root_of_unity(n, k))
            for k in range(1, n + 1)]
    # seen[0] is the first sample, at t0 + step
    assert [(t.real.hex(), t.imag.hex()) for t in seen[1:]] == [
        (t.real.hex(), t.imag.hex()) for t in want]


def test_real_path_coefficients_stay_real():
    h, base = sqrt_base()
    s = taylor_coefficients(h, base, 0.85, 64, default_config())[0]
    scale = max(abs(c) for c in s.coeffs)
    assert max(abs(c.imag) for c in s.coeffs) <= 1e-10 * scale


@pytest.mark.parametrize("step", [0.4, 0.45, 0.5])
def test_extended_sqrt_middle_coefficient_is_exactly_real(step):
    # the mirrored samples are exact conjugates, so the real path's c64
    # comes out real; with every sample walked it read -4.4e-9, 3.7e-13
    # and -2.8e-17 at these steps
    h = fixture("sqrt")
    base = PathState.from_point(h, promote(0.0, EXTENDED),
                                [promote(1.0, EXTENDED)])
    series = taylor_coefficients(h, base, step, 128,
                                 default_config(EXTENDED))[0]
    assert complex(series.coeffs[64]).imag == 0.0


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
def test_unlifted_transform_is_the_rounded_double_double_one(n):
    # an unlifted circle is transformed in complex128; its coefficients
    # stay within eps * log2(n) * max|x| of the double-double transform of
    # the same samples, rounded (measured: at most 0.27 of that), for
    # random and decaying samples at any scale
    rng = np.random.default_rng(n)
    for decay in (1.0, 0.9):
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        x *= np.array([[1.0], [1e-200], [1e200]]) * decay ** np.arange(n)
        zero = np.zeros(x.shape)
        got, want = (inverse_dft(CircleSamples(
            t0=0.0, h=0.5, n=n, parts=(x.real, zero, x.imag, zero),
            lifted=lifted)) for lifted in (False, True))
        assert not got[1].any() and not got[3].any()
        error = np.hypot(got[0] - (want[0] + want[1]),
                         got[2] - (want[2] + want[3]))
        bound = scalar_eps(DOUBLE) * math.log2(n) * abs(x).max(axis=1)
        assert (error.max(axis=1) <= bound).all()


def test_radix2_plan_is_read_only_and_shared():
    order, stages = fourier._radix2_plan(32)
    assert fourier._radix2_plan(32) is fourier._radix2_plan(32)
    assert [half for half, _ in stages] == [1, 2, 4, 8, 16]
    for a in (order, *(p for _, twiddle in stages for p in twiddle)):
        assert not a.flags.writeable


def test_default_step_is_085_of_gap():
    assert default_step(0.0) == 0.85
    assert abs(default_step(0.5) - 0.425) <= 1e-16
    h, base = sqrt_base()
    auto = taylor_coefficients(h, base, None, 16, default_config())[0]
    manual = taylor_coefficients(h, base, 0.85, 16, default_config())[0]
    assert auto.coeffs == manual.coeffs
