"""Regenerate tests/data/classical_golden.json, the classical-layer regression fixture.

One SHA-256 per case covers the polynomial's structured form and the exact
value and witness of `local_bound` and of every split of `hybrid_bound_all`.
The cases are mk and svetlichny at n = 2..9 and svetlichny_minus at odd n,
which are symmetric under every party permutation, plus inputs whose splits
do not all share one block matrix per size:

* dense: every term present, seeded random dyadic coefficients (no two
  splits share a block matrix);
* swap12: symmetric only under exchanging parties 1 and 2, so some splits
  share a block matrix and others do not;
* wide: svetlichny(n) with -2^-70 added on the all-primed term, which keeps
  the party symmetry and puts the scan on the Python-int (object) path.

Run from a checkout whose outputs are trusted:

    PYTHONPATH=src python3 tests/make_classical_golden.py

With --compare it writes nothing and prints every case whose digest differs
from the stored one (or is missing from it), then how many differ; it exits 1
when any case differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly.polynomial import DyadicCoefficient, Polynomial, Term

GOLDEN_PATH = Path(__file__).parent / "data" / "classical_golden.json"


def _dense(n: int) -> Polynomial:
    rng = np.random.default_rng(n)
    return Polynomial(
        n,
        {
            Term(n, m): DyadicCoefficient(int(rng.integers(-7, 8)) or 1, int(rng.integers(0, 4)))
            for m in range(1 << n)
        },
    )


def _swap12(n: int) -> Polynomial:
    """A dense random polynomial plus its image under exchanging parties 1 and 2."""
    p = _dense(n)

    def swapped(mask: int) -> int:
        return mask ^ 0b11 if (mask ^ (mask >> 1)) & 1 else mask

    image = Polynomial(n, {Term(n, swapped(t.prime_mask)): c for t, c in p.terms.items()})
    return P.combine(p, image, 1, 1)


def _wide(n: int) -> Polynomial:
    corner = Polynomial(n, {Term(n, (1 << n) - 1): DyadicCoefficient(-1, 70)})
    return P.combine(P.svetlichny(n), corner, 1, 1)


EXTRA_KINDS = {"dense": _dense, "swap12": _swap12, "wide": _wide}


def cases() -> list[tuple[str, int]]:
    found = []
    for n in range(2, 10):
        found += [("mk", n), ("svetlichny", n)]
        if n % 2:
            found.append(("svetlichny_minus", n))
    return found + [("dense", 7), ("dense", 8), ("swap12", 6), ("wide", 5)]


def polynomial(kind: str, n: int) -> Polynomial:
    return EXTRA_KINDS[kind](n) if kind in EXTRA_KINDS else getattr(P, kind)(n)


def _bound(result: M.BoundResult) -> list:
    return [str(result.value_exact), result.witness.as_dict()]


def case_digest(kind: str, n: int) -> str:
    p = polynomial(kind, n)
    scan = M.hybrid_bound_all(p)
    record = {
        "polynomial": P.to_dict(p),
        "local": _bound(M.local_bound(p)),
        "hybrid": [_bound(result) for _, result in scan],
        "hybrid_overall": _bound(scan.overall),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def compare(stored: dict, digests: dict) -> list[str]:
    """One line per case whose digest is not the stored one."""
    return [
        f"{key}: stored {stored.get(key)} now {digest}"
        for key, digest in digests.items()
        if stored.get(key) != digest
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare", action="store_true", help="print cases whose digest differs, write nothing"
    )
    args = parser.parse_args()
    digests = {f"{kind}:{n}": case_digest(kind, n) for kind, n in cases()}
    if args.compare:
        moved = compare(json.loads(GOLDEN_PATH.read_text()), digests)
        print("\n".join(moved + [f"{len(moved)} of {len(digests)} cases differ"]))
        return 1 if moved else 0
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
