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

Both enumerations run on the coefficients scaled to integers at the common
denominator 2**K (K the largest log2 denominator), so every objective value
is an exact integer sum and a bound is that integer over 2**K.  The arrays
are int64 while the coefficients' absolute sum stays below 2**62, which no
signed partial sum can then exceed, and Python ints (object dtype) beyond.
Every returned witness is re-summed by a second integer contraction, the
same one through which evaluate_local and evaluate_hybrid compute a value,
so a witness evaluates to exactly its bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    DataFormatError,
    InvalidArgumentError,
    NumericalIntegrityError,
    ResourceLimitError,
)
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
_CHOICES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int64)
# log2 of the entries in one chunk of the hybrid scan: 256 KiB of int64 stays
# in a core's cache (about 4x faster per mk(9) 4|5 split than chunks of 2**19)
_CHUNK_LOG2 = 15


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
    """Value of p under one deterministic script, rounded once from the exact sum."""
    if s.n != p.n:
        raise InvalidArgumentError(f"strategy has {s.n} parties, polynomial has {p.n}")
    tensor, k = _scaled_tensor(p)
    return float(DyadicCoefficient(_local_sum(tensor, s.settings), k))


def _flat_index(p: Polynomial) -> np.ndarray:
    """Each term's C-order index into the (2,) * n tensor: party 0's bit is the most significant."""
    masks = np.array([term.prime_mask for term in p.terms], dtype=np.int64)
    return sum(((masks >> j) & 1) << (p.n - 1 - j) for j in range(p.n))


def _coefficient_tensor(p: Polynomial) -> np.ndarray:
    """Shape (2,) * n; axis j is party j's setting (0 plain, 1 primed)."""
    w = np.zeros(1 << p.n)
    w[_flat_index(p)] = [float(coef) for coef in p.terms.values()]
    return w.reshape((2,) * p.n)


def _scaled_tensor(p: Polynomial) -> tuple[np.ndarray, int]:
    """(T, K): the coefficient tensor times 2**K as exact integers, K the largest log2 denominator.

    T is int64 when the scaled coefficients' absolute sum is below 2**62, so
    no sum of them with signs can wrap, and an object array of Python ints
    otherwise.
    """
    k = max((coef.log2_denominator for coef in p.terms.values()), default=0)
    scaled = [coef.numerator << (k - coef.log2_denominator) for coef in p.terms.values()]
    dtype = np.int64 if sum(map(abs, scaled)) < 1 << 62 else object
    w = np.zeros(1 << p.n, dtype=dtype)
    w[_flat_index(p)] = scaled
    return w.reshape((2,) * p.n), k


def _local_sum(tensor: np.ndarray, settings) -> int:
    """The scaled polynomial's integer value under one script, per party its (a, a')."""
    total = tensor.reshape(-1)
    for pair in np.asarray(settings, dtype=np.int64):
        total = pair @ total.reshape(2, -1)
    return int(total[0])


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
    tensor, k = _scaled_tensor(p)
    # each step contracts the leading party's setting axis and appends its
    # four scripts as the last axis
    flat = tensor.reshape(-1)
    for _ in range(p.n):
        flat = (flat.reshape(2, -1).T @ _CHOICES.T).reshape(-1)
    best = int(np.argmax(flat))
    digits = [(best >> (2 * (p.n - 1 - j))) & 3 for j in range(p.n)]
    witness = LocalStrategy(tuple((int(a), int(b)) for a, b in _CHOICES[digits]))
    resummed = _local_sum(tensor, witness.settings)
    if resummed != flat[best]:
        raise NumericalIntegrityError(
            f"local bound: the enumeration found {flat[best]} but its witness "
            f"re-sums to {resummed}"
        )
    value_exact = DyadicCoefficient(resummed, k)
    return BoundResult(
        model="local", value=float(value_exact), value_exact=value_exact, witness=witness
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
    tensor: np.ndarray, a: tuple[int, ...], b: tuple[int, ...]
) -> np.ndarray:
    """A coefficient tensor as a matrix indexed by (A's settings, B's settings); a[0] is the lowest bit."""
    axes = a[::-1] + b[::-1]
    return np.transpose(tensor, axes).reshape(1 << len(a), 1 << len(b))


def _sign_rows(num_tuples: int) -> np.ndarray:
    """The full +/-1 strategy table of a block, one row per strategy.

    Row i assigns bit k of i (big-endian) to setting tuple k, with bit 0
    meaning +1; integer order on i is then lexicographic order on strategies.
    """
    rows = np.arange(1 << num_tuples, dtype=np.int64)
    return 1 - 2 * ((rows[:, None] >> np.arange(num_tuples - 1, -1, -1)) & 1)


def _doubling_table(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """All sums first +/- rows[0] +/- rows[1] ..., in _sign_rows order (+ before -, rows[0] slowest)."""
    table = first[None, :]
    for row in rows[::-1]:  # the row added last becomes the most significant sign
        table = np.concatenate((table + row, table - row))
    return table


def _halved_chunks(coef: np.ndarray):
    """The block-B effective rows of every A strategy with tuple 0 at +1, in order.

    One chunk when the whole table has at most 2**_CHUNK_LOG2 entries.
    Otherwise a suffix table of that size covers the last tuples, and each
    chunk is one row of the prefix table (the leading tuples) plus it.
    """
    free = coef.shape[0] - 1
    suffix_log2 = max(_CHUNK_LOG2 - (coef.shape[1].bit_length() - 1), 0)
    split = max(free - suffix_log2, 0)
    if not split:
        yield _doubling_table(coef[0], coef[1:])
        return
    suffix = _doubling_table(np.zeros_like(coef[0]), coef[1 + split :])
    for row in _doubling_table(coef[0], coef[1 : 1 + split]):
        yield row + suffix


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

    Only the smaller block A is enumerated.  For a fixed A strategy the
    objective is linear in block B's free product signs, so B's optimum is the
    sum of absolute effective coefficients and its witness is recovered by
    sign matching (zeros resolve to +1).  A strategies s and -s give the same
    objective, so only the 2**(2**|A| - 1) strategies with +1 on A's first
    setting tuple are scanned.  Ties go to the first maximiser in
    lexicographic order (+1 before -1, tuple 0 first), which always has +1
    there; the witness is the one the full scan would return.
    """
    _check_partition(p, partition)
    size_a = len(partition.block_a_parties)
    if size_a > max_block_size:
        raise ResourceLimitError(
            f"block A has {size_a} parties; enumeration is capped at "
            f"{max_block_size} (--hybrid-block-cap)"
        )
    return _hybrid_bound(_scaled_tensor(p), partition)


def _hybrid_sum(tensor: np.ndarray, block_a: BlockStrategy, block_b: BlockStrategy) -> int:
    """The scaled polynomial's integer value under one pair of block strategies."""
    coef = _block_coefficient_matrix(tensor, block_a.parties, block_b.parties)
    return int(np.array(block_a.products) @ coef @ np.array(block_b.products))


def _hybrid_bound(scaled: tuple[np.ndarray, int], partition: Bipartition) -> BoundResult:
    """hybrid_bound on the polynomial's _scaled_tensor, which hybrid_bound_all builds once."""
    a = partition.block_a_parties
    b = partition.block_b_parties
    tensor, k = scaled
    coef = _block_coefficient_matrix(tensor, a, b)
    best = None
    start = 0
    for effective in _halved_chunks(coef):
        objective = np.abs(effective).sum(axis=1)
        i = int(np.argmax(objective))
        if best is None or objective[i] > best:
            best, best_index, best_effective = int(objective[i]), start + i, effective[i]
        start += len(effective)
    num_tuples = coef.shape[0]
    row_a = 1 - 2 * ((best_index >> np.arange(num_tuples - 1, -1, -1)) & 1)
    col_b = np.where(best_effective >= 0, 1, -1)
    witness = HybridWitness(
        partition=partition,
        block_a=BlockStrategy(a, tuple(row_a.tolist())),
        block_b=BlockStrategy(b, tuple(col_b.tolist())),
    )
    resummed = _hybrid_sum(tensor, witness.block_a, witness.block_b)
    if resummed != best:
        raise NumericalIntegrityError(
            f"hybrid bound {partition.to_text()}: the scan found {best} but its "
            f"witness re-sums to {resummed}"
        )
    value_exact = DyadicCoefficient(best, k)
    return BoundResult(
        model="hybrid", value=float(value_exact), value_exact=value_exact, witness=witness
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
    tensor, k = _scaled_tensor(p)
    coef = _block_coefficient_matrix(tensor, a, b)
    signs_a = _sign_rows(tuples_a)
    signs_b = _sign_rows(tuples_b)
    table = signs_a @ coef @ signs_b.T
    flat = int(np.argmax(table))
    ia, ib = divmod(flat, table.shape[1])
    value_exact = DyadicCoefficient(int(table[ia, ib]), k)
    witness = HybridWitness(
        partition=partition,
        block_a=BlockStrategy(a, tuple(signs_a[ia].tolist())),
        block_b=BlockStrategy(b, tuple(signs_b[ib].tolist())),
    )
    return BoundResult(
        model="hybrid", value=float(value_exact), value_exact=value_exact, witness=witness
    )


def evaluate_hybrid(
    p: Polynomial, partition: Bipartition, block_a: BlockStrategy, block_b: BlockStrategy
) -> float:
    """Value of p under one pair of block strategies, rounded once from the exact sum."""
    _check_partition(p, partition)
    if block_a.parties != partition.block_a_parties:
        raise InvalidArgumentError("block A strategy does not match the bipartition")
    if block_b.parties != partition.block_b_parties:
        raise InvalidArgumentError("block B strategy does not match the bipartition")
    tensor, k = _scaled_tensor(p)
    return float(DyadicCoefficient(_hybrid_sum(tensor, block_a, block_b), k))


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
    scaled = _scaled_tensor(p)
    results = []
    overall: BoundResult | None = None
    for partition in bipartitions(p.n):
        result = _hybrid_bound(scaled, partition)
        results.append((partition, result))
        if overall is None or result.value_exact > overall.value_exact:
            overall = result
    assert overall is not None
    return HybridScan(results=tuple(results), overall=overall)
