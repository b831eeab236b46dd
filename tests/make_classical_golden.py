"""Regenerate tests/data/classical_golden.json, the classical-layer regression fixture.

One SHA-256 per case covers the polynomial's structured form and the exact
value and witness of `local_bound` and of every split of `hybrid_bound_all`,
for mk and svetlichny at n = 2..9 and svetlichny_minus at odd n.  Run from a
checkout whose outputs are trusted:

    PYTHONPATH=src python3 tests/make_classical_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from bellpoly import models as M
from bellpoly import polynomial as P

GOLDEN_PATH = Path(__file__).parent / "data" / "classical_golden.json"


def cases() -> list[tuple[str, int]]:
    found = []
    for n in range(2, 10):
        found += [("mk", n), ("svetlichny", n)]
        if n % 2:
            found.append(("svetlichny_minus", n))
    return found


def _bound(result: M.BoundResult) -> list:
    return [str(result.value_exact), result.witness.as_dict()]


def case_digest(kind: str, n: int) -> str:
    p = getattr(P, kind)(n)
    scan = M.hybrid_bound_all(p)
    record = {
        "polynomial": P.to_dict(p),
        "local": _bound(M.local_bound(p)),
        "hybrid": [_bound(result) for _, result in scan],
        "hybrid_overall": _bound(scan.overall),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main() -> None:
    digests = {f"{kind}:{n}": case_digest(kind, n) for kind, n in cases()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
