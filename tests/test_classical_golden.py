"""Classical-layer outputs against digests recorded before the integer kernels.

tests/data/classical_golden.json holds one SHA-256 per polynomial: its
structured form plus the exact value and witness of local_bound and of every
hybrid split.  tests/make_classical_golden.py regenerates it.
"""

from __future__ import annotations

import json

import pytest

from make_classical_golden import GOLDEN_PATH, case_digest, cases

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(f"{kind}:{n}" for kind, n in cases())


@pytest.mark.parametrize("kind, n", cases())
def test_digest_matches(kind, n):
    assert case_digest(kind, n) == GOLDEN[f"{kind}:{n}"]
