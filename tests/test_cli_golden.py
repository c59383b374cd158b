"""CLI outputs pinned byte for byte against recorded goldens.

Every command of the matrix below must reproduce its recorded stdout,
stderr and exit code exactly, with two exceptions: the `timings` object of
a `radius` report is dropped before comparing, and the `inv_condition`
column of a `track` CSV, which comes from a LAPACK SVD, is compared to
1e-12 relative.

Regenerate the goldens only for a change that means to alter an output:

    PYTHONPATH=src python3 tests/test_cli_golden.py --record
"""

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from singradar.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

OJIKA1_BASE = "0.955647336181678"

COMMANDS = (
    ["radius", "--fixture", "sqrt"],
    ["radius", "--fixture", "ojika1"],
    ["radius", "--fixture", "monomial4"],
    ["radius", "--fixture", "cusp"],
    ["radius", "--fixture", "sqrt", "--precision", "extended", "--t0", "0.0"],
    ["radius", "--fixture", "ojika1", "--precision", "extended",
     "--t0", OJIKA1_BASE],
    ["radius", "--fixture", "monomial4", "--precision", "extended",
     "--t0", "0.0"],
    ["radius", "--fixture", "sqrt", "--t0", "0.0", "--step", "0.55"],
    ["radius", "--fixture", "sqrt", "--seed", "7"],
    ["track", "--fixture", "sqrt"],
    ["track", "--fixture", "cusp"],
    ["track", "--fixture", "ojika1"],
    ["table", "table1"],
    ["table", "table2"],
    ["table", "table3"],
    ["table", "table4"],
    ["solve-binomial", "--fixture", "monomial4"],
)

_TIMINGS = re.compile(r'"timings": \{[^}]*\}')


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": _TIMINGS.sub('"timings": {}', out.getvalue()),
            "stderr": err.getvalue()}


def _load():
    return {" ".join(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


def _same_track_csv(got: str, want: str) -> bool:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return False
    for g, w in zip(got_rows[1:], want_rows[1:]):
        g_head, _, g_cond = g.rpartition(",")
        w_head, _, w_cond = w.rpartition(",")
        if g_head != w_head:
            return False
        a, b = float(g_cond), float(w_cond)
        if abs(a - b) > 1e-12 * abs(b):
            return False
    return True


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _load()[" ".join(argv)]
    got = run(argv)
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    if argv[0] == "track":
        assert _same_track_csv(got["stdout"], want["stdout"])
    else:
        assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1)
                      + "\n")
