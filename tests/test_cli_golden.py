"""CLI outputs pinned byte for byte against recorded goldens.

Every command of the matrix below must reproduce its recorded stdout,
stderr and exit code exactly, with two exceptions: the `timings` object of
a `radius` report is dropped before comparing, and the `inv_condition`
column of a `track` CSV, which comes from a LAPACK SVD, is compared to
1e-12 relative.

When a JSON stdout differs, the failure message lists every changed leaf
as `path: old -> new (|delta|)`, so a re-record can cite its changed values
from the test output.

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
    ["track", "--fixture", "sqrt", "--precision", "extended"],
    ["track", "--fixture", "ojika1", "--precision", "extended"],
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


def _leaves(value, path="$"):
    """(path, leaf) pairs of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, f"{path}.{key}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def changed_leaves(want: str, got: str) -> str:
    """One line per leaf that differs between two JSON texts, numbers as
    `path: old -> new (|delta|)`; empty when either text is not JSON."""
    try:
        old = dict(_leaves(json.loads(want)))
        new = dict(_leaves(json.loads(got)))
    except ValueError:
        return ""
    lines = []
    for path in list(old) + [p for p in new if p not in old]:
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if a == b and type(a) is type(b):
            continue
        line = f"{path}: {a!r} -> {b!r}"
        if _is_number(a) and _is_number(b):
            line += f" ({abs(b - a):.3g})"
        lines.append(line)
    return "\n".join(lines)


def test_changed_leaves_lists_each_changed_value():
    want = '{"z": [1.0, 2.0], "status": "Converged", "n_used": 64}'
    got = '{"z": [1.0, 2.5], "status": "Inconclusive", "n_used": 64}'
    assert changed_leaves(want, got).splitlines() == [
        "$.z[1]: 2.0 -> 2.5 (0.5)",
        "$.status: 'Converged' -> 'Inconclusive'"]
    assert changed_leaves('{"a": 1}', '{"a": 1, "b": [3]}') == \
        "$.b[0]: '<absent>' -> 3"
    assert changed_leaves("n,ratio\n2,2.0\n", "n,ratio\n2,2.5\n") == ""


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _load()[" ".join(argv)]
    got = run(argv)
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    if argv[0] == "track":
        assert _same_track_csv(got["stdout"], want["stdout"])
    else:
        assert got["stdout"] == want["stdout"], \
            changed_leaves(want["stdout"], got["stdout"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1)
                      + "\n")
