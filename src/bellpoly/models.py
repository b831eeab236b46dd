"""Exact maxima of correlation polynomials under deterministic hidden-variable models.

Two model families are searched:

* local scripts, where every party fixes both of its outcomes in advance
  (4**n scripts, all enumerated);
* hybrid two-block scripts, where the parties split into blocks A and B with
  arbitrary correlations inside a block and none across.  Only the product of
  outcomes inside a block ever enters a correlation coefficient, so a block
  is fully described by one sign per joint setting choice of its members.

Probabilistic mixtures never help: the objective is linear, so deterministic
scripts are the extreme points and the maximum over them is the model bound.

All bound values are sums of dyadic rationals and are therefore computed
bit-exactly even though the enumeration is vectorized in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import DataFormatError, InvalidArgumentError, ResourceLimitError
from .polynomial import DyadicCoefficient, Polynomial

__all__ = [
    "LocalStrategy",
    "Bipartition",
    "BlockStrategy",
    "BoundResult",
    "HybridWitness",
    "HybridScan",
    "evaluate_local",
    "local_bound",
    "bipartitions",
    "hybrid_bound",
    "hybrid_bound_all",
    "brute_hybrid_bound",
    "evaluate_hybrid",
]

DEFAULT_LOCAL_CAP = 10
DEFAULT_HYBRID_BLOCK_CAP = 4  # max size of the enumerated block A
DEFAULT_BRUTE_SETTINGS_CAP = 8  # max 2**|block| per side for the oracle

# Choice index c encodes a party's script (a, a'):
# c = 0 -> (+1, +1), 1 -> (+1, -1), 2 -> (-1, +1), 3 -> (-1, -1).
# Lower c is the lexicographically smaller encoding (+1 sorts before -1).
_CHOICES = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _require_pm1(value: int, what: str) -> int:
    if value not in (1, -1):
        raise InvalidArgumentError(f"{what} must be +1 or -1, got {value!r}")
    return value


@dataclass(frozen=True)
class LocalStrategy:
    """One deterministic script: per party, the pair of predetermined outcomes (a, a')."""

    settings: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.settings:
            raise InvalidArgumentError("a local strategy needs at least one party")
        for pair in self.settings:
            if len(pair) != 2:
                raise InvalidArgumentError("each party needs exactly two outcomes (a, a')")
            _require_pm1(pair[0], "outcome")
            _require_pm1(pair[1], "outcome")

    @property
    def n(self) -> int:
        return len(self.settings)

    def value(self, party: int, primed: bool) -> int:
        return self.settings[party][1 if primed else 0]

    def as_dict(self) -> dict:
        return {"type": "local", "settings": [list(pair) for pair in self.settings]}


def _popcount(x: int) -> int:
    return bin(x).count("1")


@dataclass(frozen=True)
class Bipartition:
    """A split of the n parties into two nonempty complementary blocks.

    Stored canonically: block A is the smaller block, with ties broken so that
    party 1 lies in A.  Constructing from the complementary mask yields the
    same object.
    """

    n: int
    block_a_mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise InvalidArgumentError(f"bipartitions need n >= 2 parties, got {self.n!r}")
        full = (1 << self.n) - 1
        mask = self.block_a_mask
        if not isinstance(mask, int) or not 0 < mask < full:
            raise InvalidArgumentError(
                f"block A must be a nonempty proper subset, got mask {mask!r}"
            )
        size_a = _popcount(mask)
        size_b = self.n - size_a
        if size_a > size_b or (size_a == size_b and not mask & 1):
            mask ^= full
        object.__setattr__(self, "block_a_mask", mask)

    @property
    def block_a_parties(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if (self.block_a_mask >> j) & 1)

    @property
    def block_b_parties(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if not (self.block_a_mask >> j) & 1)

    def to_text(self) -> str:
        a = ",".join(str(j + 1) for j in self.block_a_parties)
        b = ",".join(str(j + 1) for j in self.block_b_parties)
        return f"A={a}|B={b}"

    @classmethod
    def from_text(cls, text: str) -> "Bipartition":
        try:
            a_part, b_part = text.strip().split("|")
            if not a_part.startswith("A=") or not b_part.startswith("B="):
                raise ValueError("expected A=...|B=...")
            a = {int(x) for x in a_part[2:].split(",") if x}
            b = {int(x) for x in b_part[2:].split(",") if x}
        except ValueError as exc:
            raise DataFormatError(f"cannot parse bipartition {text!r}: {exc}") from exc
        if not a or not b:
            raise DataFormatError(f"both blocks must be nonempty in {text!r}")
        if a & b:
            raise DataFormatError(f"blocks overlap in {text!r}")
        n = len(a) + len(b)
        if a | b != set(range(1, n + 1)):
            raise DataFormatError(
                f"blocks must cover parties 1..{n} exactly once in {text!r}"
            )
        mask = 0
        for j in a:
            mask |= 1 << (j - 1)
        return cls(n, mask)


@dataclass(frozen=True)
class BlockStrategy:
    """Products of outcomes inside one block, one sign per joint setting choice.

    products[i] is the block's outcome product when the block members use the
    settings encoded by i: bit r of i is the primed flag of the r-th block
    party in ascending order.
    """

    parties: tuple[int, ...]
    products: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parties:
            raise InvalidArgumentError("a block strategy needs at least one party")
        if tuple(sorted(set(self.parties))) != self.parties:
            raise InvalidArgumentError("block parties must be distinct and ascending")
        expected = 1 << len(self.parties)
        if len(self.products) != expected:
            raise InvalidArgumentError(
                f"block of {len(self.parties)} parties needs {expected} products, "
                f"got {len(self.products)}"
            )
        for v in self.products:
            _require_pm1(v, "block product")

    def product_for(self, prime_mask: int) -> int:
        return self.products[_extract_bits(prime_mask, self.parties)]

    def as_dict(self) -> dict:
        return {
            "parties": [j + 1 for j in self.parties],
            "products": list(self.products),
        }


@dataclass(frozen=True)
class HybridWitness:
    partition: Bipartition
    block_a: BlockStrategy
    block_b: BlockStrategy

    def as_dict(self) -> dict:
        return {
            "type": "hybrid",
            "partition": self.partition.to_text(),
            "block_a": self.block_a.as_dict(),
            "block_b": self.block_b.as_dict(),
        }


@dataclass(frozen=True)
class BoundResult:
    """A model bound together with a strategy that attains it."""

    model: str
    value: float
    value_exact: DyadicCoefficient | None
    witness: LocalStrategy | HybridWitness | None

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "value": self.value,
            "value_exact": str(self.value_exact) if self.value_exact is not None else None,
            "witness": self.witness.as_dict() if self.witness is not None else None,
        }


def _extract_bits(mask: int, parties: tuple[int, ...]) -> int:
    idx = 0
    for pos, party in enumerate(parties):
        if (mask >> party) & 1:
            idx |= 1 << pos
    return idx


# ---------------------------------------------------------------------------
# Local model
# ---------------------------------------------------------------------------


def evaluate_local(p: Polynomial, s: LocalStrategy) -> float:
    """Value of p under one deterministic script."""
    if s.n != p.n:
        raise InvalidArgumentError(f"strategy has {s.n} parties, polynomial has {p.n}")
    total = 0.0
    for term, coef in p.terms.items():
        prod = 1
        for j in range(p.n):
            prod *= s.value(j, term.primed(j))
        total += float(coef) * prod
    return total


def _coefficient_tensor(p: Polynomial) -> np.ndarray:
    """Shape (2,) * n; axis j is party j's setting (0 plain, 1 primed)."""
    masks = np.array([term.prime_mask for term in p.terms], dtype=np.int64)
    # party 0's bit is the most significant bit of the C-order flat index
    flat = sum(((masks >> j) & 1) << (p.n - 1 - j) for j in range(p.n))
    w = np.zeros(1 << p.n)
    w[flat] = [float(coef) for coef in p.terms.values()]
    return w.reshape((2,) * p.n)


def local_bound(p: Polynomial, *, cap: int = DEFAULT_LOCAL_CAP) -> BoundResult:
    """Maximum of evaluate_local over all 4**n scripts, with a maximizing witness.

    The full enumeration is carried out as a tensor contraction: contracting
    the coefficient tensor with every party's four possible (a, a') pairs
    yields the value of all 4**n scripts at once.  Ties go to the
    lexicographically smallest script encoding (+1 before -1, party 1 first).
    """
    if p.n > cap:
        raise ResourceLimitError(
            f"local enumeration over 4^{p.n} scripts exceeds the cap n <= {cap} "
            f"(--local-cap)"
        )
    values = _coefficient_tensor(p)
    for _ in range(p.n):
        values = np.tensordot(values, _CHOICES, axes=([0], [1]))
    flat = values.reshape(-1)
    best = int(np.argmax(flat))
    value = float(flat[best])
    digits = []
    for j in range(p.n):
        digits.append((best >> (2 * (p.n - 1 - j))) & 3)
    settings = tuple(
        (1 if c < 2 else -1, 1 if c % 2 == 0 else -1) for c in digits
    )
    return BoundResult(
        model="local",
        value=value,
        value_exact=DyadicCoefficient.from_float(value),
        witness=LocalStrategy(settings),
    )


# ---------------------------------------------------------------------------
# Hybrid two-block models
# ---------------------------------------------------------------------------


def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All canonical bipartitions of n parties; there are 2**(n-1) - 1 of them."""
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"bipartitions need n >= 2 parties, got {n!r}")
    full = (1 << n) - 1
    found = []
    for mask in range(1, full):
        size = _popcount(mask)
        if 2 * size < n or (2 * size == n and mask & 1):
            found.append(Bipartition(n, mask))
    found.sort(key=lambda bp: (_popcount(bp.block_a_mask), bp.block_a_mask))
    return tuple(found)


def _block_coefficient_matrix(
    p: Polynomial, a: tuple[int, ...], b: tuple[int, ...]
) -> np.ndarray:
    """Coefficients indexed by (A's settings, B's settings); a[0] is the lowest bit."""
    axes = a[::-1] + b[::-1]
    return np.transpose(_coefficient_tensor(p), axes).reshape(1 << len(a), 1 << len(b))


def _sign_rows(num_tuples: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the full +/-1 strategy table for a block.

    Row i assigns bit k of i (big-endian) to setting tuple k, with bit 0
    meaning +1; integer order on i is then lexicographic order on strategies.
    """
    rows = np.arange(start, stop, dtype=np.int64)
    shifts = num_tuples - 1 - np.arange(num_tuples, dtype=np.int64)
    bits = (rows[:, None] >> shifts[None, :]) & 1
    return 1.0 - 2.0 * bits


def _check_partition(p: Polynomial, partition: Bipartition) -> None:
    if p.n != partition.n:
        raise InvalidArgumentError(
            f"bipartition is over {partition.n} parties, polynomial over {p.n}"
        )


def hybrid_bound(
    p: Polynomial,
    partition: Bipartition,
    *,
    max_block_size: int = DEFAULT_HYBRID_BLOCK_CAP,
) -> BoundResult:
    """Exact hybrid-model maximum for one bipartition.

    Only the smaller block A is enumerated (2**(2**|A|) product strategies).
    For a fixed A strategy the objective is linear in block B's free product
    signs, so B's optimum is the sum of absolute effective coefficients and
    its witness is recovered by sign matching (zeros resolve to +1).
    """
    _check_partition(p, partition)
    a = partition.block_a_parties
    b = partition.block_b_parties
    if len(a) > max_block_size:
        raise ResourceLimitError(
            f"block A has {len(a)} parties; enumeration is capped at "
            f"{max_block_size} (--hybrid-block-cap)"
        )
    coef = _block_coefficient_matrix(p, a, b)
    num_tuples = 1 << len(a)
    total = 1 << num_tuples
    chunk = 1 << 14
    best_value = -np.inf
    best_row: np.ndarray | None = None
    best_effective: np.ndarray | None = None
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        signs = _sign_rows(num_tuples, start, stop)
        effective = signs @ coef
        objective = np.abs(effective).sum(axis=1)
        i = int(np.argmax(objective))
        if objective[i] > best_value:
            best_value = float(objective[i])
            best_row = signs[i]
            best_effective = effective[i]
    assert best_row is not None and best_effective is not None
    witness = HybridWitness(
        partition=partition,
        block_a=BlockStrategy(a, tuple(int(x) for x in best_row)),
        block_b=BlockStrategy(
            b, tuple(1 if v >= 0.0 else -1 for v in best_effective)
        ),
    )
    return BoundResult(
        model="hybrid",
        value=best_value,
        value_exact=DyadicCoefficient.from_float(best_value),
        witness=witness,
    )


def brute_hybrid_bound(
    p: Polynomial,
    partition: Bipartition,
    *,
    max_settings: int = DEFAULT_BRUTE_SETTINGS_CAP,
) -> BoundResult:
    """Independent oracle: enumerate both blocks' strategy tables in full."""
    _check_partition(p, partition)
    a = partition.block_a_parties
    b = partition.block_b_parties
    tuples_a = 1 << len(a)
    tuples_b = 1 << len(b)
    if tuples_a > max_settings or tuples_b > max_settings:
        raise ResourceLimitError(
            f"oracle enumeration needs 2^|block| <= {max_settings} on both sides; "
            f"got {tuples_a} and {tuples_b}"
        )
    coef = _block_coefficient_matrix(p, a, b)
    signs_a = _sign_rows(tuples_a, 0, 1 << tuples_a)
    signs_b = _sign_rows(tuples_b, 0, 1 << tuples_b)
    table = signs_a @ coef @ signs_b.T
    flat = int(np.argmax(table))
    ia, ib = divmod(flat, table.shape[1])
    value = float(table[ia, ib])
    witness = HybridWitness(
        partition=partition,
        block_a=BlockStrategy(a, tuple(int(x) for x in signs_a[ia])),
        block_b=BlockStrategy(b, tuple(int(x) for x in signs_b[ib])),
    )
    return BoundResult(
        model="hybrid",
        value=value,
        value_exact=DyadicCoefficient.from_float(value),
        witness=witness,
    )


def evaluate_hybrid(
    p: Polynomial, partition: Bipartition, block_a: BlockStrategy, block_b: BlockStrategy
) -> float:
    """Value of p under one explicit pair of block strategies."""
    _check_partition(p, partition)
    if block_a.parties != partition.block_a_parties:
        raise InvalidArgumentError("block A strategy does not match the bipartition")
    if block_b.parties != partition.block_b_parties:
        raise InvalidArgumentError("block B strategy does not match the bipartition")
    total = 0.0
    for term, coef in p.terms.items():
        total += (
            float(coef)
            * block_a.product_for(term.prime_mask)
            * block_b.product_for(term.prime_mask)
        )
    return total


@dataclass(frozen=True)
class HybridScan:
    """Per-bipartition hybrid bounds plus the overall separable-model ceiling."""

    results: tuple[tuple[Bipartition, BoundResult], ...]
    overall: BoundResult

    def as_mapping(self) -> Mapping[Bipartition, BoundResult]:
        return dict(self.results)

    def __iter__(self) -> Iterator[tuple[Bipartition, BoundResult]]:
        return iter(self.results)


def hybrid_bound_all(
    p: Polynomial, *, max_block_size: int = DEFAULT_HYBRID_BLOCK_CAP
) -> HybridScan:
    """hybrid_bound over every canonical bipartition, and their maximum."""
    if p.n // 2 > max_block_size:  # fail before computing any partition
        raise ResourceLimitError(
            f"a balanced split of {p.n} parties has a block of {p.n // 2}; "
            f"enumeration is capped at {max_block_size} (--hybrid-block-cap)"
        )
    results = []
    overall: BoundResult | None = None
    for partition in bipartitions(p.n):
        result = hybrid_bound(p, partition, max_block_size=max_block_size)
        results.append((partition, result))
        if overall is None or result.value > overall.value:
            overall = result
    assert overall is not None
    return HybridScan(results=tuple(results), overall=overall)
