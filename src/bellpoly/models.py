"""Exact maxima of correlation polynomials under deterministic hidden-variable models.

* Local scripts: every party fixes both outcomes (a, a') in advance.  With
  r_j = 1 where a_j != a'_j, a script's value is (a_1 ... a_n) w(r), w the
  Walsh-Hadamard transform of the coefficient tensor, so the local bound is
  max_r |w(r)| (Werner & Wolf, PRA 64, 032112, 2001; Zukowski & Brukner,
  PRL 88, 210401, 2002).  This holds for full-correlation polynomials with
  two +/-1 settings per party, which is every polynomial here.  The witness
  is the script a scan of all 4**n would find first (see local_bound).
* Hybrid two-block scripts: the parties split into blocks A and B with
  arbitrary correlations inside a block and none across.  Only the product
  of outcomes inside a block enters a correlation coefficient, so a block is
  one sign per joint setting choice of its members.  _block_scan enumerates
  block A with the sign of its first setting tuple fixed at +1 (flipping both
  blocks keeps every value); block B adds the 1-norm of its effective
  coefficients, its signs matching theirs, zeros resolving to +1.  Ties go to
  the first maximiser in lexicographic order (+1 before -1, block A first).

Probabilistic mixtures never help: the objective is linear, so deterministic
scripts are the extreme points and the maximum over them is the model bound.

Both work on polynomial._scaled_tensor: the coefficients times 2**K (K the
largest log2 denominator) as integers, in the narrowest of int16, int32 and
int64 that holds their absolute sum, Python ints beyond.  Every transform
entry and scan sum is a signed sum of those entries, so both are exact in
that dtype, and a bound is an integer over 2**K.  _checked_bound re-sums
every witness by one integer contraction, _block_sum, which evaluate_local
and evaluate_hybrid also reach through _block_value, so a witness evaluates
to exactly its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    DataFormatError,
    InvalidArgumentError,
    NumericalIntegrityError,
    ResourceLimitError,
)
from .polynomial import (
    DyadicCoefficient,
    Polynomial,
    _check_integer,
    _check_party_count,
    _check_same_count,
    _is_party_index,
    _scaled_tensor,
)

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

DEFAULT_HYBRID_BLOCK_CAP = 4  # max size of the enumerated block A
DEFAULT_BRUTE_SETTINGS_CAP = 8  # max 2**|block| per side for the oracle

# log2 of the entries in one chunk of the block scan: 64 KiB of int16 (256 KiB
# of int64) stays in a core's cache; 2**14 to 2**16 time alike, 2**13 and
# 2**17 are slower
_CHUNK_LOG2 = 15


def _require_pm1(value: int, what: str) -> int:
    if value not in (1, -1):
        raise InvalidArgumentError(f"{what} must be +1 or -1, got {value!r}")
    return value


def _as_tuple(value, what: str) -> tuple:
    """`value` as a tuple; anything but a tuple, a list or an array of one axis or more is refused."""
    if isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim:
        return tuple(value)
    raise InvalidArgumentError(f"{what}, got {value!r}")


@dataclass(frozen=True)
class LocalStrategy:
    """One deterministic script: per party, the pair of predetermined outcomes (a, a')."""

    settings: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        settings = _as_tuple(self.settings, "a local strategy needs a sequence of pairs (a, a')")
        if not settings:
            raise InvalidArgumentError("a local strategy needs at least one party")
        settings = tuple(_as_tuple(pair, "each party needs a pair (a, a')") for pair in settings)
        for pair in settings:
            if len(pair) != 2:
                raise InvalidArgumentError("each party needs exactly two outcomes (a, a')")
            _require_pm1(pair[0], "outcome")
            _require_pm1(pair[1], "outcome")
        object.__setattr__(self, "settings", settings)

    @property
    def n(self) -> int:
        return len(self.settings)

    def as_dict(self) -> dict:
        return {"type": "local", "settings": [list(pair) for pair in self.settings]}


@dataclass(frozen=True)
class Bipartition:
    """A split of the n parties into two nonempty complementary blocks.

    Stored canonically: block A is the smaller block, with ties broken so that
    party 1 lies in A.  Constructing from the complementary mask yields the
    same object.
    """

    n: int
    block_a_mask: int
    # both blocks' parties in ascending order, derived from the mask once
    block_a_parties: tuple[int, ...] = field(init=False, repr=False, compare=False)
    block_b_parties: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_party_count(self.n, 2)
        full = (1 << self.n) - 1
        mask = self.block_a_mask
        if not isinstance(mask, int) or isinstance(mask, bool) or not 0 < mask < full:
            raise InvalidArgumentError(
                f"block A must be a nonempty proper subset, got mask {mask!r}"
            )
        size_a = mask.bit_count()
        size_b = self.n - size_a
        if size_a > size_b or (size_a == size_b and not mask & 1):
            mask ^= full
        object.__setattr__(self, "block_a_mask", mask)
        parties = range(self.n)
        object.__setattr__(self, "block_a_parties", tuple([j for j in parties if mask >> j & 1]))
        object.__setattr__(self, "block_b_parties", tuple([j for j in parties if not mask >> j & 1]))

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
            listed = [[int(x) for x in part[2:].split(",") if x] for part in (a_part, b_part)]
        except ValueError as exc:
            raise DataFormatError(f"cannot parse bipartition {text!r}: {exc}") from exc
        a, b = (set(block) for block in listed)
        if not a or not b:
            raise DataFormatError(f"both blocks must be nonempty in {text!r}")
        if len(a) + len(b) != sum(map(len, listed)):
            raise DataFormatError(f"a block lists a party twice in {text!r}")
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
        parties = _as_tuple(self.parties, "block parties must be a sequence")
        products = _as_tuple(self.products, "block products must be a sequence")
        if not parties:
            raise InvalidArgumentError("a block strategy needs at least one party")
        for party in parties:  # a block does not know n, so no index has an upper end
            if not _is_party_index(party, math.inf):
                raise InvalidArgumentError(f"party index {party!r} is not a non-negative integer")
        if tuple(sorted(set(parties))) != parties:
            raise InvalidArgumentError("block parties must be distinct and ascending")
        expected = 1 << len(parties)
        if len(products) != expected:
            raise InvalidArgumentError(
                f"block of {len(parties)} parties needs {expected} products, got {len(products)}"
            )
        # count compares by ==, so True, 1.0 and np.int64(1) pass as before
        if products.count(1) + products.count(-1) != len(products):
            for v in products:
                _require_pm1(v, "block product")
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "products", products)

    def product_for(self, prime_mask: int) -> int:
        return self.products[_extract_bits(prime_mask, self.parties)]

    def as_dict(self) -> dict:
        return {
            "parties": [j + 1 for j in self.parties],
            "products": list(self.products),
        }


@dataclass(frozen=True)
class HybridWitness:
    """A bipartition and one strategy per block, each on exactly its block's parties."""

    partition: Bipartition
    block_a: BlockStrategy
    block_b: BlockStrategy

    def __post_init__(self) -> None:
        if self.block_a.parties != self.partition.block_a_parties:
            raise InvalidArgumentError("block A strategy does not match the bipartition")
        if self.block_b.parties != self.partition.block_b_parties:
            raise InvalidArgumentError("block B strategy does not match the bipartition")

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


def _bound(model: str, total: int, k: int, witness: LocalStrategy | HybridWitness) -> BoundResult:
    """The `model` bound total / 2**k, attained by `witness`."""
    value_exact = DyadicCoefficient(total, k)
    return BoundResult(model, float(value_exact), value_exact, witness)


def _extract_bits(mask: int, parties: tuple[int, ...]) -> int:
    idx = 0
    for pos, party in enumerate(parties):
        if (mask >> party) & 1:
            idx |= 1 << pos
    return idx


# ---------------------------------------------------------------------------
# Block arrangement, two-block scan and witness re-sum
# ---------------------------------------------------------------------------


def _arrange(tensor: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The tensor with one axis per block, in order; a block's first party is its lowest bit."""
    axes = [j for block in blocks for j in block[::-1]]
    return tensor.transpose(axes).reshape([1 << len(block) for block in blocks])


def _doubling_table(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """All sums first +/- rows[0] +/- rows[1] ..., in _sign_rows order (+ before -, rows[0] slowest)."""
    table = first[None, :]
    for row in rows[::-1]:  # the row added last becomes the most significant sign
        table = np.concatenate((table + row, table - row))
    return table


def _halved_chunks(coef: np.ndarray):
    """Block B's effective columns for each block A strategy with tuple 0 at +1, in order.

    Each chunk is indexed (block B's tuple, strategy).  A suffix table of
    at most 2**_CHUNK_LOG2 entries covers the last tuples, built once and
    stored in that layout, and each chunk is one row of the prefix table (the
    leading tuples) added to every column of it; with no leading tuples the
    one chunk is the whole table.
    """
    free = coef.shape[0] - 1
    suffix_log2 = max(_CHUNK_LOG2 - (coef.shape[1].bit_length() - 1), 0)
    split = max(free - suffix_log2, 0)
    suffix = np.ascontiguousarray(_doubling_table(np.zeros_like(coef[0]), coef[1 + split :]).T)
    for row in _doubling_table(coef[0], coef[1 : 1 + split]):
        yield row[:, None] + suffix


def _block_scan(coef: np.ndarray) -> tuple[int, list[tuple[int, ...]]]:
    """(best objective, both blocks' sign tables) over the strategies of the block matrix coef.

    The winning index holds block A's signs, one bit per setting tuple, its
    leading (+1) bit a zero; block B's signs match its effective coefficients.
    """
    best = None
    start = 0
    for effective in _halved_chunks(coef):
        # coef's dtype holds every sum; numpy's default would widen small integers
        objective = np.abs(effective).sum(axis=0, dtype=coef.dtype)
        i = int(np.argmax(objective))
        if best is None or objective[i] > best:
            best, best_index, best_effective = int(objective[i]), start + i, effective[:, i].copy()
        start += effective.shape[1]
    signs_a = tuple(1 - 2 * (best_index >> bit & 1) for bit in range(coef.shape[0] - 1, -1, -1))
    return best, [signs_a, tuple(1 if x >= 0 else -1 for x in best_effective.tolist())]


def _block_sum(arranged: np.ndarray, products) -> int:
    """The scaled polynomial's integer value under one sign table per block of `arranged`."""
    total = arranged
    for signs in reversed(products):  # each product contracts the last axis left
        total = total @ np.asarray(signs, dtype=np.int64)
    return int(total)


def _block_value(p: Polynomial, blocks: tuple[tuple[int, ...], ...], products) -> float:
    """p's value under one sign table per block, rounded once from the exact sum."""
    tensor, k = _scaled_tensor(p)
    return float(DyadicCoefficient(_block_sum(_arrange(tensor, blocks), products), k))


def _checked_bound(arranged: np.ndarray, best: int, products, k: int, witness) -> BoundResult:
    """The bound best / 2**k, once `witness`'s sign tables re-sum to best on `arranged`."""
    model = "hybrid" if isinstance(witness, HybridWitness) else "local"
    resummed = _block_sum(arranged, products)
    if resummed != best:
        what = f" {witness.partition.to_text()}" if model == "hybrid" else ""
        raise NumericalIntegrityError(
            f"{model} bound{what}: the scan found {best} but its witness re-sums to {resummed}"
        )
    return _bound(model, best, k, witness)


# ---------------------------------------------------------------------------
# Local model
# ---------------------------------------------------------------------------


def evaluate_local(p: Polynomial, s: LocalStrategy) -> float:
    """Value of p under one deterministic script, rounded once from the exact sum."""
    _check_same_count("strategy", s.n, "polynomial", p.n)
    return _block_value(p, tuple((j,) for j in range(p.n)), s.settings)


def local_bound(p: Polynomial) -> BoundResult:
    """Maximum of evaluate_local over all 4**n scripts, with a maximizing witness.

    The bound is max_r |w(r)| over the Walsh-Hadamard transform w of the
    scaled tensor, index r with party 1 the most significant bit (see the
    module docstring).  The witness is the script that a lexicographic scan
    of all 4**n scripts finds first (+1 before -1, party 1 first, a before
    a'): with s the sign of w(r) (+1 for zero), parties 1..n-1 play
    (+1, (-1)**r_j) and party n plays (s, s (-1)**r_n), and among the
    maximisers r the smallest key (r >> 1, s < 0, (s < 0) ^ (r & 1)) wins.
    """
    tensor, k = _scaled_tensor(p)
    walsh = tensor.ravel()
    for _ in range(p.n):  # transform the most significant party bit and make it the least
        plain, primed = walsh.reshape(2, -1)
        walsh = np.stack((plain + primed, plain - primed), axis=-1).ravel()
    size = np.abs(walsh)
    best = size.max()
    tied = np.flatnonzero(size == best)
    negative = walsh[tied] < 0
    r = int(tied[np.argmin((tied >> 1) * 4 + negative * 2 + (negative ^ (tied & 1)))])
    sign = -1 if walsh[r] < 0 else 1
    settings = [(1, 1 - 2 * (r >> (p.n - 1 - j) & 1)) for j in range(p.n - 1)]
    settings.append((sign, sign * (1 - 2 * (r & 1))))
    # axis j is party j's setting, so the tensor is its own all-singletons arrangement
    return _checked_bound(tensor, int(best), settings, k, LocalStrategy(tuple(settings)))


# ---------------------------------------------------------------------------
# Hybrid two-block models
# ---------------------------------------------------------------------------


def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All canonical bipartitions of n parties; there are 2**(n-1) - 1 of them."""
    _check_party_count(n, 2)
    # every split has exactly one block without party n; the constructor canonicalises it
    found = [Bipartition(n, mask) for mask in range(1, 1 << (n - 1))]
    found.sort(key=lambda bp: (bp.block_a_mask.bit_count(), bp.block_a_mask))
    return tuple(found)


def _sign_rows(num_tuples: int) -> np.ndarray:
    """The full +/-1 strategy table of a block, one row per strategy.

    Row i assigns bit k of i (big-endian) to setting tuple k, with bit 0
    meaning +1; integer order on i is then lexicographic order on strategies.
    """
    rows = np.arange(1 << num_tuples, dtype=np.int64)
    return 1 - 2 * ((rows[:, None] >> np.arange(num_tuples - 1, -1, -1)) & 1)


def hybrid_bound(
    p: Polynomial,
    partition: Bipartition,
    *,
    max_block_size: int = DEFAULT_HYBRID_BLOCK_CAP,
) -> BoundResult:
    """Exact hybrid-model maximum for one bipartition.

    The block scan with blocks (A, B): only the 2**(2**|A| - 1) strategies of
    the smaller block A with +1 on its first setting tuple are enumerated, and
    block B's signs match its effective coefficients.
    """
    _check_integer("max_block_size", max_block_size, 1)
    _check_same_count("bipartition", partition.n, "polynomial", p.n)
    size_a = len(partition.block_a_parties)
    if size_a > max_block_size:
        raise ResourceLimitError(
            f"block A has {size_a} parties; enumeration is capped at "
            f"{max_block_size} (--hybrid-block-cap)"
        )
    return _hybrid_bound(_scaled_tensor(p), partition, {})


def _hybrid_bound(
    scaled: tuple[np.ndarray, int], partition: Bipartition, scans: dict
) -> BoundResult:
    """hybrid_bound on the polynomial's _scaled_tensor, which hybrid_bound_all builds once.

    scans holds the _block_scan of every block matrix seen so far, keyed by
    shape and exact entries, with its products as int64 arrays; each split
    wraps the products for its own parties and re-sums the arrays on its own
    block matrix.
    """
    a = partition.block_a_parties
    b = partition.block_b_parties
    tensor, k = scaled
    coef = _arrange(tensor, (a, b))
    if coef.dtype == object:
        key = (coef.shape, tuple(coef.ravel().tolist()))
    else:
        key = (coef.shape, coef.dtype, coef.tobytes())
    if key not in scans:
        best, products = _block_scan(coef)
        scans[key] = best, products, [np.asarray(signs, dtype=np.int64) for signs in products]
    best, products, signs = scans[key]
    witness = HybridWitness(partition, BlockStrategy(a, products[0]), BlockStrategy(b, products[1]))
    return _checked_bound(coef, best, signs, k, witness)


def brute_hybrid_bound(
    p: Polynomial,
    partition: Bipartition,
    *,
    max_settings: int = DEFAULT_BRUTE_SETTINGS_CAP,
) -> BoundResult:
    """Independent oracle: enumerate both blocks' strategy tables in full."""
    _check_same_count("bipartition", partition.n, "polynomial", p.n)
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
    coef = _arrange(tensor, (a, b))
    signs_a = _sign_rows(tuples_a)
    signs_b = _sign_rows(tuples_b)
    table = signs_a @ coef @ signs_b.T
    flat = int(np.argmax(table))
    ia, ib = divmod(flat, table.shape[1])
    witness = HybridWitness(
        partition=partition,
        block_a=BlockStrategy(a, tuple(signs_a[ia].tolist())),
        block_b=BlockStrategy(b, tuple(signs_b[ib].tolist())),
    )
    return _bound("hybrid", int(table[ia, ib]), k, witness)


def evaluate_hybrid(
    p: Polynomial, partition: Bipartition, block_a: BlockStrategy, block_b: BlockStrategy
) -> float:
    """Value of p under one pair of block strategies, rounded once from the exact sum."""
    _check_same_count("bipartition", partition.n, "polynomial", p.n)
    HybridWitness(partition, block_a, block_b)  # the blocks must match the bipartition
    return _block_value(p, (block_a.parties, block_b.parties), (block_a.products, block_b.products))


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
    """hybrid_bound over every canonical bipartition, and their maximum.

    Splits with equal integer block matrices share one scan.  Every named
    family is invariant under party permutations, so it has one matrix per
    block size: 4 scans for the 127 or 255 splits at n = 8, 9.  Each split
    re-sums the shared witness on its own block matrix.
    """
    _check_integer("max_block_size", max_block_size, 1)
    if p.n // 2 > max_block_size:  # fail before computing any partition
        raise ResourceLimitError(
            f"a balanced split of {p.n} parties has a block of {p.n // 2}; "
            f"enumeration is capped at {max_block_size} (--hybrid-block-cap)"
        )
    scaled = _scaled_tensor(p)
    scans: dict = {}
    results = []
    overall: BoundResult | None = None
    for partition in bipartitions(p.n):
        result = _hybrid_bound(scaled, partition, scans)
        results.append((partition, result))
        if overall is None or result.value_exact > overall.value_exact:
            overall = result
    assert overall is not None
    return HybridScan(results=tuple(results), overall=overall)
