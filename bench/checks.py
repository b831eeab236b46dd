"""Correctness gates for benchmark operations.

Each gate returns a list of failure reasons; an empty list means the output
is right.  The gates follow the package's own oracles and closed forms:

* classical bounds: every witness is re-summed in `DyadicCoefficient`
  arithmetic and must equal `value_exact`; the bound must equal the tabulated
  closed form bit-exactly where one exists; the hybrid bound of every
  bipartition whose strategy-pair table fits BRUTE_MAX_LOG2_PAIRS must equal
  `brute_hybrid_bound` (every bipartition for n <= 5);
* quantum values: re-evaluated through `expectation(bell_operator(p, frame),
  state)` within 1e-9, never above the known maximum by more than 1e-9, and,
  for full searches, not below it by more than 1e-6 (`QUANTUM_CHECK_TOL`);
* verdicts: equal to the verdict of the closed-form thresholds.
"""

from __future__ import annotations

import numpy as np

from bellpoly import classify as C
from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly import quantum as Q

REEVAL_TOL = 1e-9
ABOVE_TOL = 1e-9
BELOW_TOL = C.QUANTUM_CHECK_TOL
VERDICT_TOL = C.VERDICT_TOL
# brute_hybrid_bound tabulates 2^(2^|A|) x 2^(2^|B|) strategy pairs.  Up to
# 2^20 pairs, every split at n <= 5 and 2|4, 3|3 at n = 6 fit; 1|5 (2^34) and
# 3|4 (2^24) do not.
BRUTE_MAX_LOG2_PAIRS = 20


def exact_sum(p, sign_of_mask) -> P.DyadicCoefficient:
    """Sum of coefficient * sign over p's terms, in exact dyadic arithmetic."""
    total = P.DyadicCoefficient(0)
    for term, coef in p.terms.items():
        total = total + (coef if sign_of_mask(term.prime_mask) > 0 else -coef)
    return total


def _local_sign(strategy):
    settings = strategy.settings

    def sign(mask):
        out = 1
        for j, pair in enumerate(settings):
            out *= pair[(mask >> j) & 1]
        return out

    return sign


def _hybrid_sign(witness):
    return lambda mask: witness.block_a.product_for(mask) * witness.block_b.product_for(mask)


def check_bound(result, exact: P.DyadicCoefficient, what: str) -> list[str]:
    errors = []
    if result.value_exact != exact:
        errors.append(f"{what}: witness re-sums to {exact}, value_exact is {result.value_exact}")
    if float(result.value_exact) != result.value:
        errors.append(f"{what}: value {result.value!r} != value_exact {result.value_exact}")
    return errors


def check_tabulated(value: float, table, what: str) -> list[str]:
    if table is None or value == float(table):
        return []
    return [f"{what}: {value!r} differs bit-exactly from the tabulated {table.render()}"]


def local_table(kind: str, n: int):
    """Tabulated local bound of a named family; None where nothing is stored."""
    if kind in ("mk", "mk-prime"):
        return C.mk_bound(n, C.ModelKind.local())
    if kind == "svetlichny":
        return C.svetlichny_bounds(n).bounds[C.ModelKind.local()]
    return None


def hybrid_table(kind: str, n: int, block_size: int):
    """Tabulated hybrid bound for a split with block A of `block_size` parties.

    The MK table applies to mk-prime as well: swapping every party's two
    settings maps local and hybrid strategies onto themselves.
    """
    if kind in ("mk", "mk-prime") and n in (3, 4):
        return C.mk_bound(n, C.ModelKind.hybrid_separable(block_size))
    if kind == "svetlichny":
        return C.svetlichny_bounds(n).bounds[C.ModelKind.hybrid_separable(block_size)]
    return None


def algebraic_table(kind: str, n: int):
    if kind in ("mk", "mk-prime"):
        return C.mk_bound(n, C.ModelKind.algebraic())
    if kind == "svetlichny":
        return C.svetlichny_bounds(n).bounds[C.ModelKind.algebraic()]
    return None


def check_local(p, result, kind: str | None) -> list[str]:
    errors = check_bound(result, exact_sum(p, _local_sign(result.witness)), "local")
    return errors + check_tabulated(result.value, local_table(kind, p.n), "local bound")


def check_hybrid_scan(p, pairs, overall, kind: str | None) -> list[str]:
    """`pairs` lists (Bipartition, BoundResult) for every canonical bipartition."""
    errors = []
    if len(pairs) != len(M.bipartitions(p.n)):
        errors.append(f"hybrid scan covers {len(pairs)} bipartitions")
    tables = {k: hybrid_table(kind, p.n, k) for k in range(1, p.n // 2 + 1)}
    for partition, result in pairs:
        what = f"hybrid {partition.to_text()}"
        errors += check_bound(result, exact_sum(p, _hybrid_sign(result.witness)), what)
        errors += check_tabulated(result.value, tables[len(partition.block_a_parties)], what)
        settings = [2 ** len(partition.block_a_parties), 2 ** len(partition.block_b_parties)]
        if sum(settings) <= BRUTE_MAX_LOG2_PAIRS:
            brute = M.brute_hybrid_bound(p, partition, max_settings=max(settings))
            if brute.value != result.value:
                errors.append(f"{what}: {result.value!r} != brute-force oracle {brute.value!r}")
    best = max((result.value for _, result in pairs), default=None)
    if overall.value != best:
        errors.append(f"hybrid overall {overall.value!r} is not the largest split value {best!r}")
    return errors


def mk_quantum_max(n: int) -> float:
    return 2.0 ** ((n - 1) / 2)


def known_quantum_max(kind: str, n: int) -> float:
    if kind in ("mk", "mk-prime"):
        return mk_quantum_max(n)
    if kind == "svetlichny":
        return float(C.svetlichny_bounds(n).bounds[C.ModelKind.quantum_depth(n)])
    raise ValueError(f"no known quantum maximum for {kind}")


def check_quantum(p, frame, state, value: float, known: float, *, full_search: bool) -> list[str]:
    errors = []
    again = Q.expectation(Q.bell_operator(p, frame), state)
    if abs(again - value) > REEVAL_TOL:
        errors.append(f"value {value!r} re-evaluates to {again!r}")
    if value > known + ABOVE_TOL:
        errors.append(f"value {value!r} exceeds the known maximum {known!r}")
    if full_search and value < known - BELOW_TOL:
        errors.append(f"full search stopped at {value!r}, below the known maximum {known!r}")
    return errors


def product_state(phi_a, a, phi_b, b):
    """Amplitudes of phi_a (on parties a) times phi_b (on parties b); party 1 most significant."""
    tensor = np.multiply.outer(phi_a.reshape((2,) * len(a)), phi_b.reshape((2,) * len(b)))
    return Q.PureState(len(a) + len(b), np.transpose(tensor, np.argsort(a + b)).reshape(-1))


def closed_form_depth(value: float, n: int):
    """Depth certified by an MK value: m + 1 for the largest m < n with value > 2^((m-1)/2)."""
    crossed = [m for m in range(1, n) if value > 2.0 ** ((m - 1) / 2) + VERDICT_TOL]
    return crossed[-1] + 1 if crossed else None


def closed_form_nonseparable(value: float, n: int) -> bool:
    exponent = (n - 2 if n % 2 == 0 else n - 3) / 2
    return value > 2.0 ** exponent + VERDICT_TOL


def check_verdict(kind: str, n: int, value: float, verdict: dict) -> list[str]:
    """`verdict` is `Verdict.as_dict()`."""
    if kind in ("mk", "mk-prime"):
        want = closed_form_depth(value, n)
        if verdict["depth"] != want:
            return [f"depth verdict {verdict['depth']} for {value!r}; closed form gives {want}"]
        return []
    want = closed_form_nonseparable(value, n)
    if bool(verdict["genuine_nonseparable"]) != want:
        return [f"non-separability verdict {verdict['genuine_nonseparable']} for {value!r}"]
    return []
