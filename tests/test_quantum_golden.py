"""Quantum searches at n = 3..6 against stored records.

tests/data/quantum_golden.json holds, per polynomial, the value, frame and
states of quantum_max, seesaw (pure and mixed) and block_product_max.  All of
them run on dense eigh, so values must agree to 1e-12 and every frame and
state entry likewise.  Each record also verifies itself on the dense oracle:
its stored value is the expectation of its stored frame on its state.
tests/make_quantum_golden.py regenerates it.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import make_quantum_golden
from make_quantum_golden import GOLDEN_PATH, case_record, cases, noisy_ghz, polynomial

from bellpoly import quantum as Q

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _frame(settings) -> Q.MeasurementFrame:
    return Q.MeasurementFrame(
        tuple((Q.UnitVector(*v), Q.UnitVector(*w)) for v, w in settings)
    )


def _amplitudes(stored) -> np.ndarray:
    return np.array([complex(re, im) for re, im in stored])


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(f"{kind}:{n}" for kind, n in cases())


@pytest.mark.parametrize("kind, n", cases())
def test_record_verifies_itself(kind, n):
    """Every stored value is Re Tr(rho B) of its stored frame on its state, to 1e-12."""
    p = polynomial(kind, n)
    stored = GOLDEN[f"{kind}:{n}"]
    top = stored["quantum_max"]
    psi = _amplitudes(top["states"][0])
    # block_product_max splits off the first ceil(n/2) parties, so the kron is in qubit order
    blocks = [_amplitudes(s) for s in stored["block_product_max"]["states"]]
    states = {
        "quantum_max": Q.PureState(n, psi),
        "seesaw_pure": Q.ghz(n),
        "seesaw_mixed": noisy_ghz(n),
        "block_product_max": Q.PureState(n, np.kron(*blocks)),
    }
    assert sorted(states) == sorted(stored)
    for search, state in states.items():
        op = Q.bell_operator(p, _frame(stored[search]["frame"]))
        value = stored[search]["value"]
        assert Q.expectation(op, state) == pytest.approx(value, abs=1e-12), search
    op = Q.bell_operator(p, _frame(top["frame"]))
    assert np.linalg.norm(op.entries @ psi - top["value"] * psi) <= 1e-9


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


def test_compare_exit_status(tmp_path, monkeypatch, capsys):
    """--compare exits 0 on an exact copy of a record, and 1 once one float moves by one ulp."""
    record = json.loads(json.dumps(case_record("mk", 3)))
    monkeypatch.setattr(make_quantum_golden, "cases", lambda: [("mk", 3)])
    monkeypatch.setattr(make_quantum_golden, "GOLDEN_PATH", tmp_path / "golden.json")
    monkeypatch.setattr(sys, "argv", ["make_quantum_golden.py", "--compare"])
    (tmp_path / "golden.json").write_text(json.dumps({"mk:3": record}))
    assert make_quantum_golden.main() == 0
    assert capsys.readouterr().out.startswith("mk:3 quantum_max: value +0 frame 0 ")
    value = record["quantum_max"]["value"]
    record["quantum_max"]["value"] = float(np.nextafter(value, np.inf))
    (tmp_path / "golden.json").write_text(json.dumps({"mk:3": record}))
    assert make_quantum_golden.main() == 1
    shift = value - record["quantum_max"]["value"]
    assert capsys.readouterr().out.startswith(f"mk:3 quantum_max: value {shift:+.3g} frame 0 ")
