"""Regenerate tests/data/quantum_golden.json, the dense-eigensolver regression fixture.

Every quantum search at n = 3..6 works on matrices of dimension at most 64,
which the top-eigenpair solver hands to dense `eigh`.  This fixture records
what those searches return, so a change to the solver for larger matrices can
be shown to leave every small result as it was.  One record per case holds
the value and frame of each search, plus its states:

* quantum_max: the returned top eigenvector;
* seesaw with ghz(n) (pure) and with a noisy GHZ density matrix (mixed):
  value and frame only, the state being the input;
* block_product_max across the first ceil(n/2) parties: both block states.

The cases are mk and svetlichny at n = 3..6 and a seeded dense random dyadic
polynomial at n = 3..5 (at n = 6 its quantum_max alone takes about 2 s), each
search with two restarts at seed n.  Floats are stored with their full repr,
complex amplitudes as [re, im] pairs.

Run from a checkout whose outputs are trusted:

    PYTHONPATH=src python3 tests/make_quantum_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from bellpoly import polynomial as P
from bellpoly import quantum as Q
from bellpoly.polynomial import DyadicCoefficient, Polynomial, Term

GOLDEN_PATH = Path(__file__).parent / "data" / "quantum_golden.json"
RESTARTS = 2
VISIBILITY = 0.8


def _dense(n: int) -> Polynomial:
    rng = np.random.default_rng(1000 + n)
    return Polynomial(
        n,
        {
            Term(n, m): DyadicCoefficient(int(rng.integers(-7, 8)) or 1, int(rng.integers(0, 4)))
            for m in range(1 << n)
        },
    )


def cases() -> list[tuple[str, int]]:
    return [(kind, n) for kind in ("mk", "svetlichny") for n in range(3, 7)] + [
        ("dense", n) for n in range(3, 6)
    ]


def polynomial(kind: str, n: int) -> Polynomial:
    return _dense(n) if kind == "dense" else getattr(P, kind)(n)


def noisy_ghz(n: int) -> Q.DensityMatrix:
    amps = Q.ghz(n).amplitudes
    rho = VISIBILITY * np.outer(amps, amps.conj()) + (1 - VISIBILITY) * np.eye(1 << n) / (1 << n)
    return Q.DensityMatrix(n, rho)


def _amplitudes(state: Q.PureState) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def _search(result, states=()) -> dict:
    return {
        "value": result.value,
        "frame": result.frame.as_dict()["settings"],
        "states": [_amplitudes(s) for s in states],
    }


def case_record(kind: str, n: int) -> dict:
    p = polynomial(kind, n)
    kw = {"restarts": RESTARTS, "seed": n}
    top = Q.quantum_max(p, **kw)
    block = Q.block_product_max(p, tuple(range((n + 1) // 2)), **kw)
    return {
        "quantum_max": _search(top, (top.state,)),
        "seesaw_pure": _search(Q.seesaw(p, Q.ghz(n), **kw)),
        "seesaw_mixed": _search(Q.seesaw(p, noisy_ghz(n), **kw)),
        "block_product_max": _search(block, block.block_states),
    }


def main() -> None:
    records = {f"{kind}:{n}": case_record(kind, n) for kind, n in cases()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(records, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
