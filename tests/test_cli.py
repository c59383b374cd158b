"""End-to-end checks of the command-line driver, run in process."""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from singradar import cli, fourier, radar, tracker
from singradar.cli import gamma_from_seed, main
from singradar.polysys import Homotopy, TMonomial, fixture, homotopy_to_json
from singradar.radar import locate_singularity, richardson
from singradar.scalars import DOUBLE, is_extended, lane
from singradar.tracker import default_config, newton_correct

from test_polysys import ZERO_EQUATIONS
from test_tracker import OVERFLOWING

OJIKA1_BASE = 0.955647336181678


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def report_body(text):
    rep = json.loads(text)
    rep.pop("timings")
    return rep


def exact_coeff(k):
    c = Fraction(1)
    for i in range(k):
        c = c * Fraction(2 * i - 1, 2 * (i + 1))
    return c


def branch_point_homotopy():
    # x^2 - (t - 0.5) = 0; start roots +-i*sqrt(0.5), real branch point
    eq = [TMonomial((1.0,), (2,)), TMonomial((0.5, -1.0), (0,))]
    return Homotopy(dim=1, gamma=1.0, equations=[eq])


# ---------------------------------------------------------------------------
# seeded gamma constants
# ---------------------------------------------------------------------------

def test_gamma_seed_deterministic():
    assert gamma_from_seed(7) == gamma_from_seed(7)
    assert gamma_from_seed(123456789) == gamma_from_seed(123456789)


def test_gamma_seed_unit_modulus():
    for seed in (0, 1, 7, 8, 2 ** 63, 2 ** 64 - 1):
        assert abs(abs(gamma_from_seed(seed)) - 1.0) <= 1e-12


def test_gamma_seed_distinct():
    values = {gamma_from_seed(seed) for seed in range(1, 33)}
    assert len(values) == 32


def test_gamma_seed_zero_uses_fallback_state():
    assert gamma_from_seed(0) == gamma_from_seed(0x9E3779B97F4A7C15)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table1_ratio_column():
    code, out, err = run_cli(["table", "table1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "ratio", "error", "error_ratio"]
    assert len(rows) == 9
    for k, row in enumerate(rows, start=1):
        n = int(row[0])
        assert n == 2 ** k
        assert float(row[1]) == (2.0 * n + 2.0) / (2.0 * n - 1.0)
        assert float(row[2]) == abs(float(row[1]) - 1.0)
    assert rows[0][3] == ""
    ratios = [float(row[3]) for row in rows[1:]]
    assert abs(ratios[-2] - 2.0039) <= 1e-3
    for a, b in zip(ratios, ratios[1:]):
        assert 2.0 < b < a


def test_table2_matches_extrapolation_grid():
    code, out, err = run_cli(["table", "table2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["i", "j", "re", "im", "error"]
    assert len(rows) == 45
    model = [(2.0 * 2 ** k + 2.0) / (2.0 * 2 ** k - 1.0) for k in range(1, 10)]
    tab = richardson(model)
    seen = []
    for row in rows:
        i, j = int(row[0]), int(row[1])
        seen.append((i, j))
        assert float(row[2]) == tab.entry(i, j)
        assert float(row[3]) == 0.0
        assert float(row[4]) == abs(tab.entry(i, j) - 1.0)
    assert seen == [(i, j) for i in range(1, 10) for j in range(1, i + 1)]
    assert float(rows[-1][4]) <= 1e-15


def test_table3_derivative_errors():
    code, out, err = run_cli(["table", "table3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "exact", "approx", "error"]
    assert [int(row[0]) for row in rows] == list(range(17))
    for k, row in enumerate(rows):
        assert float(row[1]) == float(exact_coeff(k) * math.factorial(k))
    errors = [float(row[3]) for row in rows]
    assert errors[0] <= 5e-8
    assert errors[8] <= 1e-5
    assert max(errors) <= 5e-6 or errors[8] <= 1e-5
    assert errors[16] <= 5e-6


def test_table4_series_errors():
    code, out, err = run_cli(["table", "table4"])
    assert code == 0
    header, rows = parse_csv(out)
    assert [int(row[0]) for row in rows] == [0, 1, 2, 4, 8, 32, 64]
    for row in rows:
        assert float(row[1]) == float(exact_coeff(int(row[0])))
    errors = {int(row[0]): float(row[3]) for row in rows}
    assert errors[1] <= 3e-7
    assert errors[64] <= 9e-5
    assert 5e-6 <= errors[64] <= 2e-5
    for a, b in zip((0, 1, 2, 4, 8, 32), (1, 2, 4, 8, 32, 64)):
        assert errors[a] < errors[b]


def test_table_rerun_is_byte_identical():
    out_a = run_cli(["table", "table3"])[1]
    out_b = run_cli(["table", "table3"])[1]
    assert out_a == out_b


def test_table_out_writes_file(tmp_path):
    path = tmp_path / "t1.csv"
    code, out, err = run_cli(["table", "table1", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text() == run_cli(["table", "table1"])[1]


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def test_radius_sqrt_defaults():
    code, out, err = run_cli(["radius", "--fixture", "sqrt"])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "Converged"
    assert rep["fixture"] == "sqrt"
    assert rep["n"] == 64
    assert rep["n_used"] == 64
    assert rep["coordinate"] == 0
    assert abs(complex(*rep["z"]) - 1.0) <= 4e-8
    assert rep["r"] == 1.0 - rep["t0"]
    assert 0.0 < rep["t0"] < 0.5
    assert len(rep["diagonal"]) >= 5
    assert abs(complex(*rep["diagonal"][-1]) - 1.0) <= 1e-6


def serialised_run(name):
    """The radius report body built straight from locate_singularity."""
    h = fixture(name)
    cfg = default_config()
    start = newton_correct(h, 0.0, [1.0] * h.dim, cfg)
    run = locate_singularity(h, start, 64, cfg)

    def pair(v):
        return [complex(v).real, complex(v).imag]

    return {
        "command": "radius", "fixture": name, "file": None, "n": 64,
        "precision": "double", "gamma": pair(h.gamma), "seed": None,
        "t0": run.t0, "r": 1.0 - run.t0,
        "rho": None if run.rho is None else pair(run.rho),
        "t_star": run.t_star, "coordinate": run.coordinate,
        "raw_ratio": pair(run.raw_ratio),
        "diagonal": [pair(v) for v in run.diagonal],
        "z": pair(run.z), "n_used": run.n_used, "status": run.status,
    }


def test_radius_agrees_with_library_pipeline():
    code, out, err = run_cli(["radius", "--fixture", "sqrt"])
    rep = report_body(out)
    assert code == 0
    assert rep == serialised_run("sqrt")
    code, out, err = run_cli(["radius", "--fixture", "cusp"])
    rep = report_body(out)
    assert rep == serialised_run("cusp")
    assert rep["diagonal"] == [] and rep["z"] == [0.0, 0.0]


def test_radius_pinned_base_ojika1():
    code, out, err = run_cli(["radius", "--fixture", "ojika1",
                              "--t0", repr(OJIKA1_BASE)])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "Converged"
    assert rep["rho"] is None and rep["t_star"] is None
    assert rep["t0"] == OJIKA1_BASE
    assert abs(complex(*rep["raw_ratio"]) - 1.02652) <= 1e-3
    assert abs(complex(*rep["z"]) - 1.0) <= 1e-4


def test_radius_auto_base_ojika1():
    code, out, err = run_cli(["radius", "--fixture", "ojika1"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["t0"] - OJIKA1_BASE) <= 0.05
    assert abs(rep["t_star"] - 0.9375) <= 0.01
    assert abs(complex(*rep["z"]) - 1.0) <= 1e-4


def test_radius_cusp_reports_vanishing_tail():
    code, out, err = run_cli(["radius", "--fixture", "cusp"])
    assert code == 1
    assert "did not converge" in err
    rep = json.loads(out)
    assert rep["status"] == "CoefficientsVanish"
    assert rep["z"] == [0.0, 0.0]
    assert rep["diagonal"] == []


@pytest.mark.parametrize("n", [16, 64, 128])
def test_radius_cusp_extended_reports_vanishing_tail(n):
    # (1 - t)^2 is a polynomial path; an expansion of q about t0 in double
    # once left rounding far above the double-double vanish floor, and
    # these runs reported a wrong Converged
    code, out, err = run_cli(["radius", "--fixture", "cusp", "--precision",
                              "extended", "--n", str(n)])
    assert code == 1
    assert "did not converge" in err
    rep = json.loads(out)
    assert rep["status"] == "CoefficientsVanish"
    assert rep["z"] == [0.0, 0.0]
    assert rep["diagonal"] == []


def test_radius_small_step_floods_noise_floor():
    code, out, err = run_cli(["radius", "--fixture", "sqrt",
                              "--t0", "0.0", "--step", "0.3"])
    assert code == 1
    assert json.loads(out)["status"] == "CoefficientsVanish"
    code, out, err = run_cli(["radius", "--fixture", "sqrt",
                              "--t0", "0.0", "--step", "0.55"])
    assert code == 0
    assert abs(complex(*json.loads(out)["z"]) - 1.0) <= 1e-7


def test_radius_extended_lane():
    code, out, err = run_cli(["radius", "--fixture", "sqrt", "--t0", "0.0",
                              "--precision", "extended"])
    assert code == 0
    rep = json.loads(out)
    assert rep["precision"] == "extended"
    z = complex(*rep["z"])
    assert abs(z - 1.0) <= 1e-7
    assert abs(z.imag) <= 1e-20


def test_radius_seeded_gamma_is_deterministic():
    code_a, out_a, _ = run_cli(["radius", "--fixture", "sqrt", "--seed", "7"])
    code_b, out_b, _ = run_cli(["radius", "--fixture", "sqrt", "--seed", "7"])
    assert code_a == code_b
    assert report_body(out_a) == report_body(out_b)
    g = complex(*json.loads(out_a)["gamma"])
    assert abs(abs(g) - 1.0) <= 1e-12


def test_radius_seed_changes_gamma():
    rep_a = json.loads(run_cli(["radius", "--fixture", "sqrt",
                                "--seed", "7"])[1])
    code, out, err = run_cli(["radius", "--fixture", "sqrt", "--seed", "8"])
    rep_b = json.loads(out)
    assert rep_a["gamma"] != rep_b["gamma"]
    # seed 8 keeps the interpolation pole g/(g-1) outside the unit disk
    assert code == 0
    assert abs(complex(*rep_b["z"]) - 1.0) <= 1e-5


def test_radius_gamma_and_seed_exclude_each_other():
    # a seed's gamma would replace the given one without a word
    code, out, err = run_cli(["radius", "--fixture", "sqrt",
                              "--gamma", "1j", "--seed", "7"])
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_radius_unit_gamma_matches_default():
    plain = report_body(run_cli(["radius", "--fixture", "sqrt"])[1])
    forced = report_body(run_cli(["radius", "--fixture", "sqrt",
                                  "--gamma", "1"])[1])
    assert plain == forced


def test_radius_gamma_override_needs_convex_form():
    code, out, err = run_cli(["radius", "--fixture", "ojika1", "--seed", "7"])
    assert code == 2
    assert "gamma-convex" in err


def test_radius_rejects_bad_sample_count(tmp_path):
    for n in ("48", "2", "2048"):
        code, out, err = run_cli(["radius", "--fixture", "sqrt", "--n", n])
        assert code == 2
        assert "power of two" in err
    # checked before the homotopy loads
    code, out, err = run_cli(["radius", "--file", str(tmp_path / "no.json"),
                              "--n", "48"])
    assert code == 2
    assert "power of two" in err


def test_radius_start_reaches_the_run():
    # the default start converges, so the failure shows --start is used
    code, out, err = run_cli(["radius", "--fixture", "sqrt", "--start", "0"])
    assert code == 1
    assert "SingularJacobian" in err
    assert out == ""


@pytest.mark.parametrize("pinned,t0,z", [
    ([], 0.9812641550034968, 1.0000004676050833 - 4.6e-8j),
    (["--t0", repr(OJIKA1_BASE)], OJIKA1_BASE, 0.9999538304713781 - 3.01e-5j),
], ids=["sweep", "t0"])
def test_radius_lanes_follow_the_same_path(pinned, t0, z):
    # both lanes follow the (1, -1) path of ojika1, so they read the same
    # t0 and pole and agree on z. The double lane once jumped to the (1, 1)
    # path: t0 0.94375 after its sweep, z 0.99999907 + 1.4e-6i at the t0
    reps = []
    for precision in ("double", "extended"):
        code, out, _ = run_cli(["radius", "--fixture", "ojika1",
                                "--start=1,-1", "--precision", precision,
                                *pinned])
        assert code == 0
        reps.append(json.loads(out))
    double, extended = reps
    assert double["t0"] == extended["t0"] == t0
    assert double["rho"] == extended["rho"]
    assert abs(complex(*double["z"]) - complex(*extended["z"])) <= 1e-6
    assert abs(complex(*double["z"]) - z) <= 1e-6


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_radius_lifts_only_the_final_circle(monkeypatch, precision):
    # the sweep reads its checkpoints from the walked double samples, and
    # the start and the base point are corrected and tracked in double, so
    # a run lifts one circle, the final one, counted at both names of the
    # one lift; no Newton correction sees an extended value, and every
    # checkpoint series is native complex in both lanes
    lifts = []
    for module in (tracker, fourier):
        def counted(*args, refine=module._refine):
            lifts.append(args)
            return refine(*args)
        monkeypatch.setattr(module, "_refine", counted)

    corrected = []
    for module in (tracker, fourier, cli):
        def corrector(h, t, x0, *args, correct=module.newton_correct):
            corrected.append(lane(t, *x0))
            return correct(h, t, x0, *args)
        monkeypatch.setattr(module, "newton_correct", corrector)

    series = []
    coefficients = radar.taylor_coefficients

    def captured(*args, **kwargs):
        series.append(coefficients(*args, **kwargs))
        return series[-1]

    monkeypatch.setattr(radar, "taylor_coefficients", captured)
    code, _, _ = run_cli(["radius", "--fixture", "ojika1",
                          "--precision", precision])
    assert code == 0
    assert len(lifts) == 1
    assert corrected and set(corrected) == {DOUBLE}
    *checkpoints, final = series
    assert checkpoints
    assert all(type(c) is complex
               for s in checkpoints for part in s for c in part.coeffs)
    assert all(is_extended(c) == (precision == "extended")
               for part in final for c in part.coeffs)


@pytest.mark.parametrize("gamma", ["nan", "nan+1j"])
def test_radius_nan_gamma_exits_two(gamma):
    code, out, err = run_cli(["radius", "--fixture", "sqrt", "--gamma", gamma])
    assert code == 2
    assert err == "error: gamma must have unit modulus\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["radius", "--fixture", "sqrt", "--start", "inf"],
    ["radius", "--fixture", "ojika1", "--start", "1e200,1"],
    ["track", "--fixture", "sqrt", "--start", "nan"],
], ids=["radius-sqrt-inf", "radius-ojika1-1e200", "track-sqrt-nan"])
def test_unusable_start_exits_two(argv):
    # a non-finite start, or one where the homotopy overflows, is an
    # argument error: no traceback, no numerical failure of the tracker
    code, out, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: start point")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["radius", "--fixture", "ojika1", "--start", "1e200,1"],
    ["track", "--fixture", "ojika1", "--start", "1e200,1"],
    ["track", "--fixture", "sqrt", "--start", "1e300"],
], ids=["radius-ojika1-1e200", "track-ojika1-1e200", "track-sqrt-1e300"])
def test_overflowing_extended_start_exits_two(argv):
    # double-double powers overflow to inf or NaN without raising, so the
    # extended lane rejects such a start by its residual, as the double
    # lane does by its OverflowError
    code, out, err = run_cli(argv + ["--precision", "extended"])
    assert code == 2
    assert err == ("error: start point too large: the homotopy overflows "
                   "there\n")
    assert out == ""


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_track_target_that_is_not_finite_exits_two(target):
    # no step budget spent, no rows printed: an argument error
    code, out, err = run_cli(["track", "--fixture", "sqrt",
                              "--target=" + target])
    assert code == 2
    assert err == "error: t_target must be finite\n"
    assert out == ""


@pytest.mark.parametrize("command, status", [
    ("radius", "InconclusiveRadar"), ("track", "StepUnderflow")])
def test_newton_overflow_is_a_numerical_failure(tmp_path, command, status):
    # x ** 400 overflows at a Newton iterate: the corrector fails as
    # NoConvergence, so the run ends as an exit 1, not a traceback
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(OVERFLOWING))
    code, out, err = run_cli([command, "--file", str(path)])
    assert code == 1
    assert err.startswith(status + ": ")
    assert err.count("\n") == 1


def test_tiny_start_is_not_an_overflowing_start():
    # from x = 1e-200 the first Newton step of x^2 - 1 overflows: a
    # numerical failure of the corrector, not a start too large
    code, out, err = run_cli(["radius", "--fixture", "sqrt",
                              "--start", "1e-200"])
    assert code == 1
    assert err == "NoConvergence: newton iterate overflows the homotopy\n"
    assert out == ""


@pytest.mark.parametrize("command", ["radius", "track"])
@pytest.mark.parametrize("d, message", [
    ({"form": "explicit_t", "dim": 0, "equations": []},
     "a homotopy needs at least one unknown"),
    ({"form": "explicit_t", "dim": 1, "equations": [[]]},
     "every equation needs at least one term"),
], ids=["dim-0", "no-terms"])
def test_degenerate_homotopy_file_exits_two(tmp_path, command, d, message):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(d))
    code, out, err = run_cli([command, "--file", str(path)])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("command", ["radius", "track"])
@pytest.mark.parametrize("shape", sorted(ZERO_EQUATIONS))
def test_identically_zero_equation_file_exits_two(tmp_path, command, shape):
    # it fixes no path: track printed a constant one (exit 0) and radius
    # ended in CoefficientsVanish (exit 1)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_EQUATIONS[shape]))
    code, out, err = run_cli([command, "--file", str(path)])
    assert (code, out, err) == (2, "", "error: an equation is identically "
                                       "zero\n")


def test_step_too_small_for_the_sample_count_exits_two():
    # --n 512 samples 1024 points, and 0.3^619 underflows to zero
    code, out, err = run_cli(["radius", "--fixture", "sqrt", "--n", "512",
                              "--step", "0.3", "--t0", "0.5"])
    assert code == 2
    assert err == ("error: step 0.3 is too small for 1024 samples: "
                   "step**619 underflows to zero\n")
    assert out == ""


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def test_track_sqrt_path_values():
    code, out, err = run_cli(["track", "--fixture", "sqrt",
                              "--target", "0.9"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "re_x1", "im_x1", "residual", "inv_condition"]
    assert rows[0] == ["0.0", "1.0", "0.0", "0.0", "1.0"]
    assert float(rows[-1][0]) == 0.9
    for row in rows:
        t, re, im = float(row[0]), float(row[1]), float(row[2])
        assert abs(complex(re, im) - math.sqrt(1.0 - t)) <= 1e-10
        assert float(row[3]) <= 1e-10
    assert len(rows) >= 8


def test_track_cusp_path_values():
    code, out, err = run_cli(["track", "--fixture", "cusp",
                              "--target", "0.9"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        t, re, im = float(row[0]), float(row[1]), float(row[2])
        assert abs(complex(re, im) - (1.0 - t) ** 2) <= 1e-10


def test_track_cusp_extended_rows_sit_on_the_path():
    # every row is a double step lifted at its exact t, so it is
    # double-double accurate even where q = (t - 1)^4 cancels in double;
    # each lifted at a float t, in double, rows were up to 41% off. The
    # start and 18 of the double track's 19 rows: the last, at
    # 1 - t = 2.2e-16, does not lift
    code, out, _ = run_cli(["track", "--fixture", "cusp",
                            "--precision", "extended"])
    _, rows = parse_csv(out)
    assert code == 1 and len(rows) == 19
    for row in rows:
        t, x = Fraction(float(row[0])), Fraction(float(row[1]))
        exact = (1 - t) ** 2
        assert abs(x - exact) <= Fraction(1e-14) * exact, row
        assert row[2] == "0.0"


def test_track_ojika1_reaches_target():
    code, out, err = run_cli(["track", "--fixture", "ojika1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:5] == ["t", "re_x1", "im_x1", "re_x2", "im_x2"]
    assert len(rows) >= 10
    last = rows[-1]
    assert float(last[0]) == 1.0
    assert abs(complex(float(last[1]), float(last[2])) - 1.0) <= 1e-3
    assert abs(complex(float(last[3]), float(last[4])) - 2.0) <= 1e-3
    # triple root at the endpoint: the Jacobian is nearly singular there
    assert float(last[6]) <= 1e-6


def test_track_file_with_imaginary_start_underflows(tmp_path):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(homotopy_to_json(branch_point_homotopy())))
    code, out, err = run_cli(["track", "--file", str(path),
                              "--start", "0.7071067811865476j"])
    assert code == 1
    assert "StepUnderflow" in err
    _, rows = parse_csv(out)
    assert len(rows) >= 10
    last_t = float(rows[-1][0])
    assert 0.499 < last_t < 0.5
    assert abs(complex(float(rows[-1][1]), float(rows[-1][2]))) <= 1e-3


def test_track_file_without_start_stays_real(tmp_path):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(homotopy_to_json(branch_point_homotopy())))
    code, out, err = run_cli(["track", "--file", str(path)])
    assert code == 1
    assert "NoConvergence" in err
    assert out == ""


def test_track_start_dimension_checked():
    code, out, err = run_cli(["track", "--fixture", "ojika1",
                              "--start", "1"])
    assert code == 2
    assert "dimension" in err


def test_track_rerun_is_byte_identical():
    argv = ["track", "--fixture", "sqrt", "--target", "0.9"]
    assert run_cli(argv)[1] == run_cli(argv)[1]


# ---------------------------------------------------------------------------
# solve-binomial
# ---------------------------------------------------------------------------

def test_solve_binomial_monomial4():
    code, out, err = run_cli(["solve-binomial", "--fixture", "monomial4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 42
    assert len(rep["solutions"]) == 42
    assert rep["max_residual"] <= 1e-10
    units = [s for s in rep["solutions"]
             if all(abs(complex(re, im) - 1.0) <= 1e-10 for re, im in s)]
    assert len(units) == 1


def test_solve_binomial_csv_shape():
    code, out, err = run_cli(["solve-binomial", "--fixture", "monomial4",
                              "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["re_x1", "im_x1", "re_x2", "im_x2",
                      "re_x3", "im_x3", "re_x4", "im_x4"]
    assert len(rows) == 42
    assert len({tuple(row) for row in rows}) == 42


def test_solve_binomial_from_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"A": [[2]], "c": [4]}))
    code, out, err = run_cli(["solve-binomial", "--file", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 2
    assert rep["max_residual"] <= 1e-12
    roots = sorted(complex(*s[0]).real for s in rep["solutions"])
    assert abs(roots[0] + 2.0) <= 1e-12
    assert abs(roots[1] - 2.0) <= 1e-12


def test_solve_binomial_complex_rhs(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"A": [[1]], "c": [[0.0, 1.0]]}))
    code, out, err = run_cli(["solve-binomial", "--file", str(path)])
    rep = json.loads(out)
    assert rep["count"] == 1
    assert abs(complex(*rep["solutions"][0][0]) - 1j) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_binomial_nan_residual_is_not_zero(tmp_path):
    # a finite but subnormal right-hand side under a negative exponent
    # gives a NaN solution; it is rejected instead of being reported with
    # a residual of zero, and without a warning on the way out
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps({"A": [[-2]], "c": [[1e-320, 1e-320]]}))
    code, out, err = run_cli(["solve-binomial", "--file", str(path)])
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


# ---------------------------------------------------------------------------
# exit codes and output plumbing
# ---------------------------------------------------------------------------

# a rejected input must not reach arithmetic that warns on its way out
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_invocations_exit_two(tmp_path):
    assert run_cli([])[0] == 2
    assert run_cli(["table", "table9"])[0] == 2
    assert run_cli(["radius", "--fixture", "nope"])[0] == 2
    assert run_cli(["radius"])[0] == 2
    code, out, err = run_cli(["radius", "--fixture", "ojika1",
                              "--start", "1"])
    assert code == 2
    assert "dimension" in err
    code, out, err = run_cli(["radius", "--file", str(tmp_path / "no.json")])
    assert code == 2
    assert "error:" in err
    # malformed homotopies are rejected at load time, not mid-run
    nan_coeff = homotopy_to_json(branch_point_homotopy())
    nan_coeff["equations"][0][0]["t_coeffs"][0][0] = float("nan")
    no_coeffs = homotopy_to_json(branch_point_homotopy())
    no_coeffs["equations"][0][1]["t_coeffs"] = []
    no_term = homotopy_to_json(branch_point_homotopy())
    no_term["equations"][0][0] = 2.0
    for name, bad in (("nan.json", nan_coeff), ("empty.json", no_coeffs),
                      ("term.json", no_term)):
        path = tmp_path / name
        path.write_text(json.dumps(bad))
        code, out, err = run_cli(["radius", "--file", str(path)])
        assert code == 2
        assert err.startswith("error:")
    # a base point outside [0, 1) or an infinite radius is an argument
    # error, not a numerical failure of the tracker
    for extra in (["--t0", "1.5"], ["--t0", "nan"],
                  ["--t0", "0.0", "--step", "inf"]):
        code, out, err = run_cli(["radius", "--fixture", "sqrt", "--n", "8"]
                                 + extra)
        assert code == 2
        assert err.startswith("error:")
    # a non-finite base point would make every binomial solution NaN
    for t0 in ("nan", "inf"):
        code, out, err = run_cli(["solve-binomial", "--fixture", "monomial4",
                                  "--t0", t0])
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
    # so would a non-finite right-hand side; a fractional exponent would be
    # truncated to another system; a malformed shape or a right-hand side
    # whose squared norm overflows is rejected before any arithmetic; with
    # the monomial4 exponents the Smith transform takes these c out of the
    # double range (an overflow, a division by zero, a NaN residual), as
    # does a subnormal c under a negative exponent (a NaN solution, see
    # test_solve_binomial_nan_residual_is_not_zero)
    smith = [[7, 7, 0, 0], [7, 3, 5, 7], [7, 2, 1, 2], [7, 0, 1, 2]]
    for name, bad in (("nan_rhs.json", {"A": [[2]], "c": [float("nan")]}),
                      ("inf_rhs.json", {"A": [[2]], "c": [[1.0, math.inf]]}),
                      ("frac_a.json", {"A": [[2.5]], "c": [1.0]}),
                      ("flat_a.json", {"A": [2], "c": [1.0]}),
                      ("short_c.json", {"A": [[2]], "c": [[1.0]]}),
                      ("huge_c.json", {"A": [[2]], "c": [[1e308, 1e308]]}),
                      ("huger_c.json",
                       {"A": [[1]], "c": [[1.7e308, 1.7e308]]}),
                      ("smith_1e-5.json", {"A": smith, "c": [1e-5] * 4}),
                      ("smith_1e5.json", {"A": smith, "c": [1e5] * 4}),
                      ("smith_1e10.json", {"A": smith, "c": [1e10] * 4}),
                      ("smith_1e60.json", {"A": smith, "c": [1e60] * 4})):
        path = tmp_path / name
        path.write_text(json.dumps(bad))
        code, out, err = run_cli(["solve-binomial", "--file", str(path)])
        assert code == 2, name
        assert err.startswith("error:"), name
        assert out == "", name


def test_radius_out_writes_report(tmp_path):
    path = tmp_path / "radius.json"
    code, out, err = run_cli(["radius", "--fixture", "sqrt",
                              "--out", str(path)])
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["status"] == "Converged"
