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
  one sign per joint setting choice of its members.  _block_scans enumerates
  block A with the sign of its first setting tuple fixed at +1 (flipping both
  blocks keeps every value); block B adds the 1-norm of its effective
  coefficients, its signs matching theirs, zeros resolving to +1.  Ties go to
  the first maximiser in lexicographic order (+1 before -1, block A first).
  It scans a stack of block matrices of one shape in one chunked pass, so
  the fixed numpy cost of a chunk is paid once per stack, not per matrix;
  each matrix keeps a running best (the first maximum of a chunk, replaced
  only by a strictly larger one), so memory stays at one chunk of at most
  2**_CHUNK_LOG2 entries plus the tables it is added from, never a whole
  objective array.  hybrid_bound_all stacks the distinct matrices of every
  split size; hybrid_bound passes a stack of one.

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

import functools
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

# log2 of the entries in one chunk of the batched block scan, over the whole
# stack: 256 KiB of int16 (1 MiB of int64) stays in a core's 2 MiB L2.  On a
# 2-core Xeon, hybrid_bound_all of the two dense n = 8 polynomials, mk(9),
# svetlichny(8) and svetlichny(9) took 33.7 ms (median of 15) at 2**17,
# against 35.0 ms at 2**16 and 35.8 ms at 2**18; the 35 4|4 matrices of a
# dense n = 8 polynomial favour larger chunks, single matrices smaller ones
_CHUNK_LOG2 = 17


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
    table = np.empty((1 << len(rows), first.size), dtype=first.dtype)
    table[0] = first.ravel()
    size = 1
    # the row added last becomes the most significant sign
    for row in rows.reshape(len(rows), first.size)[::-1]:
        np.subtract(table[:size], row, out=table[size : 2 * size])
        np.add(table[:size], row, out=table[:size])
        size *= 2
    return table.reshape(-1, *first.shape)


def _block_scans(coefs: np.ndarray) -> list[tuple[int, tuple, tuple]]:
    """Per matrix of the stack coefs: (best objective, sign tables as tuples, the same as int64 rows).

    coefs has shape (matrices, 2**|A|, 2**|B|) and a dtype that holds every
    sum.  Block A's strategies with tuple 0 at +1 are enumerated in index
    order, one bit per setting tuple, the leading (+1) bit a zero; block B's
    signs match the winner's effective coefficients, signs_a @ coef, zeros
    resolving to +1.  The stack is scanned in slices of as many matrices as
    let a chunk cover half of block A's free tuples within 2**_CHUNK_LOG2
    entries, so that no table of a slice is larger than its chunk.
    """
    count, rows, cols = coefs.shape
    per_slice = max(1 << _CHUNK_LOG2 >> (cols.bit_length() - 1 + rows // 2), 1)
    slices = (coefs[at : at + per_slice] for at in range(0, count, per_slice))
    return [scan for part in slices for scan in _slice_scans(part)]


def _slice_scans(coefs: np.ndarray) -> list[tuple[int, tuple, tuple]]:
    """_block_scans of one slice, in one pass of chunks of at most 2**_CHUNK_LOG2 entries.

    A suffix table holds tuple 0 plus every sum over the last free tuples,
    laid out (B tuple, matrix, strategy); each chunk adds one row of the
    leading tuples' table to it, or is the suffix table itself when there
    are none.  Each matrix keeps a running best: the first maximum of a
    chunk, replaced only by a strictly larger one, so the winner is the
    lexicographically first maximiser and memory stays at one chunk.
    """
    count, rows, cols = coefs.shape
    free = rows - 1
    suffix_log2 = min(max(_CHUNK_LOG2 - (count * cols - 1).bit_length(), 0), free)
    split = free - suffix_log2
    by_row = coefs.transpose(1, 2, 0)  # (A tuple, B tuple, matrix)
    suffix = _doubling_table(by_row[0], by_row[1 + split :])
    suffix = np.ascontiguousarray(suffix.transpose(1, 2, 0))
    if split:
        chunk = np.empty_like(suffix)
        leading = _doubling_table(np.zeros_like(by_row[0]), by_row[1 : 1 + split])
        chunks = (np.add(row[:, :, None], suffix, out=chunk) for row in leading)
    else:
        chunks = (suffix,)
    for start, effective in enumerate(chunks):
        # coefs' dtype holds every sum; numpy's default would widen small integers
        objective = np.add.reduce(np.abs(effective, out=effective), axis=0, dtype=coefs.dtype)
        index = objective.argmax(axis=1)
        value = np.maximum.reduce(objective, axis=1)
        if not start:
            best, best_index = value, index
        else:
            better = value > best
            best = np.where(better, value, best)
            best_index = np.where(better, index + (start << suffix_log2), best_index)
    signs_a = 1 - 2 * (best_index[:, None] >> np.arange(free, -1, -1) & 1)
    effective = np.matmul(signs_a[:, None, :], coefs)[:, 0]
    signs_b = np.where(effective >= 0, 1, -1)
    return [
        (total, (tuple(a.tolist()), tuple(b.tolist())), (a, b))
        for total, a, b in zip(best.tolist(), signs_a, signs_b)
    ]


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
    return _bipartitions(n)


@functools.cache
def _bipartitions(n: int) -> tuple[Bipartition, ...]:
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
    tensor, k = _scaled_tensor(p)
    coef = _arrange(tensor, (partition.block_a_parties, partition.block_b_parties))
    return _split_bound(partition, coef, k, _block_scans(coef[None])[0])


def _split_bound(partition: Bipartition, coef: np.ndarray, k: int, scan) -> BoundResult:
    """One split's bound from a _block_scans result: its own witness, re-summed on its own matrix."""
    best, products, signs = scan
    witness = HybridWitness(
        partition,
        BlockStrategy(partition.block_a_parties, products[0]),
        BlockStrategy(partition.block_b_parties, products[1]),
    )
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

    Every split's block matrix is arranged first.  Splits with equal integer
    matrices (same shape, dtype and entries) share one scan, and the distinct
    matrices of one shape are scanned together by one _block_scans call: the
    35 4|4 matrices of a dense n = 8 polynomial in one pass instead of 35.
    Every named family is invariant under party permutations, so it has one
    matrix per block size: 4 scanned matrices for the 127 or 255 splits at
    n = 8, 9.  Each split then builds its own witness and re-sums it on its
    own block matrix.
    """
    _check_integer("max_block_size", max_block_size, 1)
    if p.n // 2 > max_block_size:  # fail before computing any partition
        raise ResourceLimitError(
            f"a balanced split of {p.n} parties has a block of {p.n // 2}; "
            f"enumeration is capped at {max_block_size} (--hybrid-block-cap)"
        )
    tensor, k = _scaled_tensor(p)
    splits = []
    groups: dict = {}  # (shape, dtype) -> {block matrix key: the first matrix with it}
    for partition in bipartitions(p.n):
        coef = _arrange(tensor, (partition.block_a_parties, partition.block_b_parties))
        if coef.dtype == object:
            key = (coef.shape, tuple(coef.ravel().tolist()))
        else:
            key = (coef.shape, coef.dtype, coef.tobytes())
        groups.setdefault((coef.shape, coef.dtype), {}).setdefault(key, coef)
        splits.append((partition, coef, key))
    scans = {}
    for matrices in groups.values():
        scans.update(zip(matrices, _block_scans(np.stack(list(matrices.values())))))
    results = []
    overall: BoundResult | None = None
    for partition, coef, key in splits:
        result = _split_bound(partition, coef, k, scans[key])
        results.append((partition, result))
        if overall is None or result.value_exact > overall.value_exact:
            overall = result
    assert overall is not None
    return HybridScan(results=tuple(results), overall=overall)
