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

With --compare it writes nothing and prints, per record and search, how far
this checkout's results lie from the stored ones: the value shift, the
largest frame component shift, and |<old|new>| for each state (1 when a state
moved only by a global phase).  It exits 1 when any record is not exactly the
stored one, down to the last bit of every float, and 0 otherwise.
"""

from __future__ import annotations

import argparse
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


def _ket(stored: list[list[float]]) -> np.ndarray:
    return np.array([complex(re, im) for re, im in stored])


def compare(stored: dict, records: dict) -> list[str]:
    """One line per record and search: value shift, largest frame shift, |<old|new>| per state."""
    lines = []
    for key, record in records.items():
        for search, new in record.items():
            old = stored[key][search]
            frame = np.max(np.abs(np.array(new["frame"]) - np.array(old["frame"])))
            overlaps = " ".join(
                f"{abs(np.vdot(_ket(a), _ket(b))):.17g}"
                for a, b in zip(old["states"], new["states"])
            )
            lines.append(
                f"{key} {search}: value {new['value'] - old['value']:+.3g} "
                f"frame {frame:.3g} |<old|new>| [{overlaps}]"
            )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare", action="store_true", help="print shifts against the stored file, write nothing"
    )
    args = parser.parse_args()
    records = {f"{kind}:{n}": case_record(kind, n) for kind, n in cases()}
    if args.compare:
        stored = json.loads(GOLDEN_PATH.read_text())
        print("\n".join(compare(stored, records)))
        return 1 if json.loads(json.dumps(records)) != stored else 0
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(records, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
