"""Classical-layer outputs against digests recorded before the integer kernels.

tests/data/classical_golden.json holds one SHA-256 per polynomial: its
structured form plus the exact value and witness of local_bound and of every
hybrid split.  tests/make_classical_golden.py regenerates it.
"""

from __future__ import annotations

import json
import sys

import pytest

import make_classical_golden
from make_classical_golden import GOLDEN_PATH, case_digest, cases

from bellpoly import polynomial as P
from bellpoly.polynomial import DyadicCoefficient, Polynomial

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(f"{kind}:{n}" for kind, n in cases())


@pytest.mark.parametrize("kind, n", cases())
def test_digest_matches(kind, n):
    assert case_digest(kind, n) == GOLDEN[f"{kind}:{n}"]


def test_compare_exit_status(tmp_path, monkeypatch, capsys):
    """--compare exits 0 on mk(3)'s stored digest, and 1 once a coefficient moves by one ulp."""
    mk3 = P.mk(3)
    term, coef = next(iter(mk3.terms.items()))
    # coef is +-1/2, so coef * 2^-52 is one ulp of it
    ulp = Polynomial(3, {term: DyadicCoefficient(coef.numerator, coef.log2_denominator + 52)})
    with monkeypatch.context() as patch:
        patch.setattr(make_classical_golden, "polynomial", lambda *_: P.combine(mk3, ulp, 1, 1))
        moved = case_digest("mk", 3)
    monkeypatch.setattr(make_classical_golden, "cases", lambda: [("mk", 3)])
    monkeypatch.setattr(make_classical_golden, "GOLDEN_PATH", tmp_path / "golden.json")
    monkeypatch.setattr(sys, "argv", ["make_classical_golden.py", "--compare"])
    for digest, status, summary in ((GOLDEN["mk:3"], 0, "0 of 1"), (moved, 1, "1 of 1")):
        (tmp_path / "golden.json").write_text(json.dumps({"mk:3": digest}))
        assert make_classical_golden.main() == status
        assert capsys.readouterr().out.endswith(f"{summary} cases differ\n")
