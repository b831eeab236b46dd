"""Quantum searches at n = 3..6 against records taken before the Lanczos solver.

tests/data/quantum_golden.json holds, per polynomial, the value, frame and
states of quantum_max, seesaw (pure and mixed) and block_product_max.  All of
them run on dense eigh, so values must agree to 1e-12 and every frame and
state entry likewise.  tests/make_quantum_golden.py regenerates it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from make_quantum_golden import GOLDEN_PATH, case_record, cases

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(f"{kind}:{n}" for kind, n in cases())


@pytest.mark.parametrize("kind, n", cases())
def test_record_matches(kind, n):
    stored = GOLDEN[f"{kind}:{n}"]
    fresh = case_record(kind, n)
    assert sorted(fresh) == sorted(stored)
    for search, want in stored.items():
        got = fresh[search]
        assert got["value"] == pytest.approx(want["value"], abs=1e-12), search
        np.testing.assert_allclose(got["frame"], want["frame"], rtol=0, atol=1e-12, err_msg=search)
        assert len(got["states"]) == len(want["states"]), search
        for a, b in zip(got["states"], want["states"]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=search)
