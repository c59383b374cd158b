"""Hermite and Smith transforms pinned exactly against recorded goldens.

`check_hermite` and `check_smith` test the defining properties only, but a
matrix has many valid unimodular transforms, and `solve-binomial`'s
solution order and rounding depend on which U and V the normal forms pick.
This test pins them: (U, H) and (U, S, V) for the `monomial4` exponent
matrix and for seeded random nonsingular matrices must equal the recorded
ones entry for entry.

Regenerate the golden only for a change that means to alter a transform:

    PYTHONPATH=src python3 tests/test_normal_form_golden.py --record
"""

import json
import random
import sys
from pathlib import Path

from singradar.monomial import (
    IntMatrix,
    det,
    hermite_normal_form,
    smith_normal_form,
)
from singradar.polysys import MONOMIAL4_MATRIX

GOLDEN = Path(__file__).with_name("golden") / "normal_forms.json"

_SEED = 20261019
_RANDOM_CASES = 12


def matrices():
    """The monomial4 matrix, then seeded random nonsingular matrices with
    n <= 5 and entries in [-9, 9]."""
    out = [[list(row) for row in MONOMIAL4_MATRIX]]
    rng = random.Random(_SEED)
    while len(out) < 1 + _RANDOM_CASES:
        n = rng.randint(2, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(IntMatrix(a)) != 0:
            out.append(a)
    return out


def transforms(a):
    hnf = hermite_normal_form(IntMatrix(a))
    snf = smith_normal_form(IntMatrix(a))
    return {"a": a,
            "hermite": {"u": hnf.u.entries, "h": hnf.normal.entries},
            "smith": {"u": snf.u.entries, "s": snf.normal.entries,
                      "v": snf.v.entries}}


def test_normal_forms_match_recorded_transforms():
    want = json.loads(GOLDEN.read_text())
    got = [transforms(a) for a in matrices()]
    assert [g["a"] for g in got] == [w["a"] for w in want]
    for g, w in zip(got, want):
        assert g == w, "transforms of %r changed" % (w["a"],)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    records = [transforms(a) for a in matrices()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records)
                      + "\n]\n")
    print("recorded %d matrices to %s" % (len(records), GOLDEN))
