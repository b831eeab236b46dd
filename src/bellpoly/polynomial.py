"""Exact algebra of correlation polynomials for n two-setting parties.

A Term encodes one correlation coefficient E(A1 ... An) as an n-bit mask whose
bit j marks party j using its alternate (primed) setting.  Coefficients are
dyadic rationals kept exact throughout; floating point enters only when a
polynomial is evaluated against numeric correlation data.

Party indices are 0-based inside the library and 1-based in every text form
(A1, A2', ...).  In the text form, `_label` alone writes and checks a term's
party list and `DyadicCoefficient` alone writes and reads its coefficient.

This module alone reads a polynomial's array store: the prime masks in
ascending order, each coefficient's integer numerator over one shared power
of two (int64 where every numerator fits, Python ints beyond), and that
power's exponent.  Every constructor hands `_build` arrays to check and keep,
and the coefficient tensors of the other modules are built here, each by one
scatter: `_coefficient_tensor` (float64) for quantum and `_scaled_tensor` for
models, which owns the rule for its integer dtype: the narrowest that no
signed sum of the coefficients overflows.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Union

import numpy as np

from .errors import DataFormatError, IncompleteDataError, InvalidArgumentError

__all__ = [
    "Term",
    "DyadicCoefficient",
    "Polynomial",
    "CorrelationVector",
    "mk",
    "prime_flip",
    "svetlichny",
    "svetlichny_minus",
    "combine",
    "tensor_product",
    "algebraic_limit",
    "evaluate",
    "support_size",
    "to_text",
    "from_text",
    "to_dict",
    "from_dict",
    "parse_correlation_text",
    "read_text_file",
]


def _check_integer(what: str, value: int, least: int) -> None:
    """The one owner of the integer rule: `what` is an int, not a bool, of at least `least`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise InvalidArgumentError(f"{what} must be an integer >= {least}, got {value!r}")


def _check_tolerance(tol: float) -> None:
    """The one owner of the tolerance rule: `tol` is a real, not a bool, of at least 0 (not nan)."""
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool) or not tol >= 0:
        raise InvalidArgumentError(f"tol must be a non-negative real, got {tol!r}")


def _check_party_count(n: int, least: int = 1) -> None:
    """The floor rule: a party count is an integer of at least `least`."""
    _check_integer("party count", n, least)


def _is_party_index(party: int, n: int) -> bool:
    """The one statement of the index rule: `party` is an int, not a bool, in 0..n-1."""
    return isinstance(party, int) and not isinstance(party, bool) and 0 <= party < n


def _check_party_index(party: int, n: int) -> None:
    if not _is_party_index(party, n):
        raise InvalidArgumentError(f"party index {party!r} out of range for n={n}")


def _check_same_count(what: str, count: int, other: str, n: int) -> None:
    """The one owner of the agreement rule: `what`, of `count` parties, must match `other`, of n."""
    if count != n:
        parties = "party" if count == 1 else "parties"
        raise InvalidArgumentError(f"{what} has {count} {parties}, {other} has {n}")


@dataclass(frozen=True, order=True)
class Term:
    """One correlation coefficient: which parties use their primed setting."""

    n: int
    prime_mask: int

    def __post_init__(self) -> None:
        _check_party_count(self.n)
        mask = self.prime_mask
        if not isinstance(mask, int) or isinstance(mask, bool) or not 0 <= mask < (1 << self.n):
            raise InvalidArgumentError(f"prime_mask must lie in [0, 2^{self.n}), got {mask!r}")

    def primed(self, party: int) -> bool:
        """Whether `party` (0-based) uses its primed setting in this term."""
        _check_party_index(party, self.n)
        return bool((self.prime_mask >> party) & 1)

    def label(self) -> str:
        """1-based text form, e.g. "A1 A2' A3"."""
        return _label(self.n, self.prime_mask)


def _label(n: int, mask: int, start: int = 0) -> str:
    """The 1-based text form of parties start..n-1 (0-based) of prime mask `mask`, read off its bits."""
    return " ".join([f"A{j + 1}'" if mask >> j & 1 else f"A{j + 1}" for j in range(start, n)])


@dataclass(frozen=True, eq=False)
class DyadicCoefficient:
    """Signed dyadic rational numerator / 2**log2_denominator, kept canonical.

    Canonical means the denominator exponent is minimal: the numerator is odd
    whenever log2_denominator > 0, and zero is stored as 0 / 2**0.  Integers
    therefore live at log2_denominator == 0.
    """

    numerator: int
    log2_denominator: int = 0

    def __post_init__(self) -> None:
        num, k = self.numerator, self.log2_denominator
        if isinstance(num, bool) or isinstance(k, bool) or not (
            isinstance(num, int) and isinstance(k, int)
        ):
            raise InvalidArgumentError("dyadic parts must be integers")
        if k < 0:
            raise InvalidArgumentError("log2_denominator must be non-negative")
        if num == 0:
            k = 0
        elif k and not num & 1:
            # strip the trailing zero bits of num, at most k of them
            shift = min(k, (num & -num).bit_length() - 1)
            num >>= shift
            k -= shift
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "log2_denominator", k)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "DyadicCoefficient":
        """Exact conversion; every finite binary float is a dyadic rational."""
        try:
            num, den = float(x).as_integer_ratio()
        except (OverflowError, ValueError) as exc:
            raise InvalidArgumentError(f"cannot convert {x!r} to a dyadic rational") from exc
        return cls(num, den.bit_length() - 1)

    _TEXT_RE = re.compile(r"^([+-]?\d+)/2\^(\d+)$")

    @classmethod
    def parse(cls, text: str) -> "DyadicCoefficient":
        m = cls._TEXT_RE.match(text.strip())
        if m is None:
            raise DataFormatError(f"cannot parse dyadic value {text!r} (expected p/2^k)")
        return cls(int(m.group(1)), int(m.group(2)))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: "DyadicLike") -> "DyadicCoefficient":
        if isinstance(value, DyadicCoefficient):
            return value
        if isinstance(value, int):
            return DyadicCoefficient(value)
        if isinstance(value, float):
            return DyadicCoefficient.from_float(value)
        raise InvalidArgumentError(f"cannot interpret {value!r} as a dyadic rational")

    def __add__(self, other: "DyadicLike") -> "DyadicCoefficient":
        o = self._coerce(other)
        k = max(self.log2_denominator, o.log2_denominator)
        num = (self.numerator << (k - self.log2_denominator)) + (
            o.numerator << (k - o.log2_denominator)
        )
        return DyadicCoefficient(num, k)

    __radd__ = __add__

    def __neg__(self) -> "DyadicCoefficient":
        return DyadicCoefficient(-self.numerator, self.log2_denominator)

    def __sub__(self, other: "DyadicLike") -> "DyadicCoefficient":
        return self + (-self._coerce(other))

    def __mul__(self, other: "DyadicLike") -> "DyadicCoefficient":
        o = self._coerce(other)
        return DyadicCoefficient(
            self.numerator * o.numerator, self.log2_denominator + o.log2_denominator
        )

    __rmul__ = __mul__

    def __abs__(self) -> "DyadicCoefficient":
        return DyadicCoefficient(abs(self.numerator), self.log2_denominator)

    def __float__(self) -> float:
        return self.numerator / (1 << self.log2_denominator)

    def __bool__(self) -> bool:
        return self.numerator != 0

    # Comparisons align denominators as addition does, so they stay exact
    # where float(self) would underflow or overflow.
    def _sign_against(self, other: "DyadicLike") -> int | float:
        """A number with the sign of self - other; nan, failing every comparison, for a nan."""
        if isinstance(other, float) and not math.isfinite(other):
            return -other  # every dyadic is finite
        o = self._coerce(other)
        k = max(self.log2_denominator, o.log2_denominator)
        return (self.numerator << (k - self.log2_denominator)) - (
            o.numerator << (k - o.log2_denominator)
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DyadicCoefficient):
            return (self.numerator, self.log2_denominator) == (
                other.numerator,
                other.log2_denominator,
            )
        if isinstance(other, (int, float)):
            return self._sign_against(other) == 0
        return NotImplemented

    def __lt__(self, other: "DyadicLike") -> bool:
        return self._sign_against(other) < 0

    def __le__(self, other: "DyadicLike") -> bool:
        return self._sign_against(other) <= 0

    def __gt__(self, other: "DyadicLike") -> bool:
        return self._sign_against(other) > 0

    def __ge__(self, other: "DyadicLike") -> bool:
        return self._sign_against(other) >= 0

    def __hash__(self) -> int:
        # equal to the hash of an equal int, float or Fraction; imported here
        # because fractions loads decimal, which nothing else in the library needs
        from fractions import Fraction

        return hash(Fraction(self.numerator, 1 << self.log2_denominator))

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.log2_denominator}"


DyadicLike = Union[DyadicCoefficient, int, float]

ZERO = DyadicCoefficient(0)


class _TermView(Mapping):
    """Read-only {Term: coefficient} view over a polynomial's array store.

    The store: `_masks` ascending, `_numerators` (each coefficient times
    2**_k) and `_k`.  Lookups, `len` and equality read it.  The coefficients,
    one object per distinct value, are made when first asked for, and the
    Term keys when the view is first iterated (`iter`, `keys()`, `items()`);
    both are kept.
    """

    __slots__ = ("_n", "_masks", "_numerators", "_k", "_coefficients", "_by_term")

    def __init__(self, n: int, masks: np.ndarray, numerators: np.ndarray, k: int) -> None:
        self._n = n
        self._masks = masks
        self._numerators = numerators
        self._k = k
        self._coefficients: tuple[DyadicCoefficient, ...] | None = None
        self._by_term: dict[Term, DyadicCoefficient] | None = None

    def _terms(self) -> dict[Term, DyadicCoefficient]:
        if self._by_term is None:
            keys = (Term(self._n, m) for m in self._masks.tolist())
            self._by_term = dict(zip(keys, self.values()))
        return self._by_term

    def __getitem__(self, term: Term) -> DyadicCoefficient:
        if isinstance(term, Term) and term.n == self._n:
            i = int(np.searchsorted(self._masks, term.prime_mask))
            if i < len(self._masks) and self._masks[i] == term.prime_mask:
                return self.values()[i]
        raise KeyError(term)

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms())

    def keys(self):
        return self._terms().keys()

    def items(self):
        return self._terms().items()

    def values(self) -> tuple[DyadicCoefficient, ...]:
        """Each term's coefficient, masks ascending."""
        if self._coefficients is None:
            numerators = self._numerators.tolist()
            shared = {v: DyadicCoefficient(v, self._k) for v in set(numerators)}
            self._coefficients = tuple(map(shared.__getitem__, numerators))
        return self._coefficients

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _TermView):
            # empty views are equal whatever their party counts, as empty dicts are
            return (
                (self._n == other._n or not self)
                and self._k == other._k
                and np.array_equal(self._masks, other._masks)
                and np.array_equal(self._numerators, other._numerators)
            )
        return self._terms() == other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms()!r})"


@dataclass(frozen=True)
class Polynomial:
    """A signed dyadic combination of Terms, all sharing the same party count.

    Zero coefficients are never stored; the empty polynomial is legal.  The
    coefficients are stored once, as integer numerators over one shared power
    of two, in arrays keyed by prime mask in ascending order.  `terms` is a
    read-only Mapping[Term, DyadicCoefficient] view of that store: lookups
    need no Term objects, and its coefficients and Term keys are made once,
    when first asked for, and then kept with the polynomial.
    """

    n: int
    terms: Mapping[Term, DyadicCoefficient]

    def __post_init__(self) -> None:
        terms = self.terms
        if isinstance(terms, _TermView) and terms._n == self.n:
            return  # checked by _build
        _check_party_count(self.n)
        by_mask: dict[int, DyadicCoefficient] = {}
        for term, coef in terms.items():
            if not isinstance(term, Term):
                raise InvalidArgumentError(f"polynomial keys must be Term, got {term!r}")
            _check_same_count(f"term {term.label()}", term.n, "polynomial", self.n)
            by_mask[term.prime_mask] = coef
        object.__setattr__(self, "terms", _from_coefficients(self.n, by_mask).terms)

    def coefficient(self, term: Term) -> DyadicCoefficient:
        return self.terms.get(term, ZERO)


_INT64_END = 1 << 63


def _mask_dtype(n: int) -> type:
    """int64 holds the prime masks of fewer than 63 parties; Python ints hold any."""
    return np.int64 if n < 63 else object


def _max_abs(numerators: np.ndarray) -> int:
    return int(np.abs(numerators).max(initial=0))


def _build(n: int, masks, numerators, k: int) -> Polynomial:
    """The polynomial with coefficient numerators[i] / 2**k on prime mask masks[i]; every entry path ends here.

    Masks must be strictly ascending.  Arrays are kept, not copied; lists
    become arrays of Python ints.  The numerators' common trailing zero bits,
    at most k of them, are stripped, and they are kept as int64 where every
    one fits, as Python ints beyond.
    """
    _check_party_count(n)
    masks, numerators = (
        v if isinstance(v, np.ndarray) else np.array(v, dtype=object) for v in (masks, numerators)
    )
    bad = (numerators == 0) | (masks < 0) | (masks >= 1 << n)
    if bad.any():
        i = int(np.argmax(bad))
        if numerators[i] == 0:
            raise InvalidArgumentError("zero coefficients must not be stored")
        raise InvalidArgumentError(f"prime_mask must lie in [0, 2^{n}), got {masks.tolist()[i]!r}")
    masks = masks.astype(_mask_dtype(n), copy=False)
    if np.any(masks[1:] <= masks[:-1]):
        raise InvalidArgumentError("prime masks must be strictly ascending")
    low = int(np.bitwise_or.reduce(numerators)) if len(numerators) else 0
    shift = min(k, (low & -low).bit_length() - 1) if low else k
    if shift:
        numerators = numerators >> shift
    if numerators.dtype == object and _max_abs(numerators) < _INT64_END:
        numerators = numerators.astype(np.int64)
    masks.flags.writeable = numerators.flags.writeable = False
    return Polynomial(n, _TermView(n, masks, numerators, k - shift))


def _from_coefficients(n: int, by_mask: Mapping[int, DyadicCoefficient]) -> Polynomial:
    """The polynomial with coefficient by_mask[m] on prime mask m, masks in any order."""
    if not all(isinstance(c, DyadicCoefficient) for c in by_mask.values()):
        raise InvalidArgumentError("coefficients must be DyadicCoefficient")
    k = max((c.log2_denominator for c in by_mask.values()), default=0)
    masks = sorted(by_mask)
    coefs = map(by_mask.__getitem__, masks)
    return _build(n, masks, [c.numerator << (k - c.log2_denominator) for c in coefs], k)


def _store(p: Polynomial) -> tuple[np.ndarray, np.ndarray, int]:
    """(masks, numerators, K): p's coefficient numerators[i] / 2**K on prime mask masks[i]; read-only."""
    view = p.terms
    return view._masks, view._numerators, view._k


def _mask_items(p: Polynomial) -> Iterator[tuple[int, DyadicCoefficient]]:
    """(prime mask, coefficient) of every term of p, masks ascending."""
    return zip(_store(p)[0].tolist(), p.terms.values())


def _abs_sum(numerators: np.ndarray) -> int:
    """The exact sum of |numerators| as a Python int."""
    magnitudes = np.abs(numerators)
    if magnitudes.dtype == object:
        return int(magnitudes.sum())
    # each half's sum stays below 2**63 for up to 2**31 terms
    return (int((magnitudes >> 31).sum()) << 31) + int((magnitudes & 0x7FFFFFFF).sum())


def _tensor(p: Polynomial, values, dtype) -> np.ndarray:
    """Shape (2,) * n, values[i] at p's i-th prime mask; axis j is party j's setting (0 plain, 1 primed)."""
    w = np.zeros(1 << p.n, dtype=dtype)
    w[_store(p)[0]] = values
    # bit j of a mask is party j, so indexed by mask the axes run from party n-1 down
    return np.ascontiguousarray(w.reshape((2,) * p.n).transpose(range(p.n - 1, -1, -1)))


def _coefficient_tensor(p: Polynomial) -> np.ndarray:
    """Shape (2,) * n; axis j is party j's setting (0 plain, 1 primed)."""
    _, numerators, k = _store(p)
    if numerators.dtype == object or k > 1021:
        values = [v / (1 << k) for v in numerators.tolist()]
    else:  # one rounding, to float64, as the division above: 2**-k keeps the result normal
        values = np.ldexp(numerators, -k)
    return _tensor(p, values, np.float64)


def _scaled_tensor(p: Polynomial) -> tuple[np.ndarray, int]:
    """(T, K): the coefficient tensor times 2**K as exact integers, K the largest log2 denominator.

    T has the narrowest dtype that holds the scaled coefficients' absolute
    sum, so that no sum of them with signs can wrap: int16 below 2**15,
    int32 below 2**31, int64 below 2**62, and an object array of Python ints
    beyond.
    """
    _, numerators, k = _store(p)
    total = _abs_sum(numerators)
    widths = ((np.int16, 1 << 15), (np.int32, 1 << 31), (np.int64, 1 << 62))
    dtype = next((t for t, end in widths if total < end), object)
    return _tensor(p, numerators, dtype), k


@dataclass(frozen=True)
class CorrelationVector:
    """Measured or modelled correlation coefficients, one real in [-1, 1] per Term."""

    n: int
    values: Mapping[Term, float]

    def __post_init__(self) -> None:
        _check_party_count(self.n)
        for term in self.values:
            if not isinstance(term, Term):
                raise InvalidArgumentError(f"correlation keys must be Term, got {term!r}")
        clean: dict[Term, float] = {}
        for term in sorted(self.values, key=lambda t: t.prime_mask):
            try:
                v = float(self.values[term])
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(
                    f"correlation value for {term.label()} must be a real number, "
                    f"got {self.values[term]!r}"
                ) from exc
            _check_same_count(f"term {term.label()}", term.n, "correlation vector", self.n)
            if not -1.0 <= v <= 1.0:
                raise InvalidArgumentError(
                    f"correlation value for {term.label()} is {v}, outside [-1, 1]"
                )
            clean[term] = v
        object.__setattr__(self, "values", MappingProxyType(clean))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _mk_numerators(n: int) -> np.ndarray:
    """mk(n)'s coefficients times 2**(n-1), indexed by prime mask (int64).

    Magnitudes stay <= 2**(n-1), so int64 is exact.  M' of the odd forms is
    the reversed array for the same reason as in mk's step.
    """
    c = np.array([1, 0], dtype=np.int64)
    for _ in range(n - 1):
        c = np.concatenate((c + c[::-1], c - c[::-1]))
    return c


def _from_numerators(n: int, numerators: np.ndarray, log2_denominator: int) -> Polynomial:
    """The polynomial with coefficient numerators[mask] / 2**log2_denominator."""
    masks = np.flatnonzero(numerators)
    return _build(n, masks, numerators[masks], log2_denominator)


@lru_cache(maxsize=None)
def mk(n: int) -> Polynomial:
    """The n-party MK polynomial, built bottom-up from M1 = a1.

    Each extension step sends M to (1/2) M (a + a') + (1/2) M' (a - a') where
    a, a' are the new party's settings and M' swaps primed and unprimed
    settings everywhere.  For m parties M' maps a prime mask to its
    complement in [0, 2**m), which reverses the mask-indexed array, so on the
    integer numerators c (denominator 2**(m-1)) the step is
    concat(c + c[::-1], c - c[::-1]), starting from [1, 0] at m = 1.
    """
    _check_party_count(n)
    return _from_numerators(n, _mk_numerators(n), n - 1)


def prime_flip(p: Polynomial) -> Polynomial:
    """Swap every party's primed and unprimed setting (an involution)."""
    masks, numerators, k = _store(p)
    # complementing every mask reverses their order
    return _build(p.n, (masks ^ ((1 << p.n) - 1))[::-1], numerators[::-1], k)


def svetlichny(n: int) -> Polynomial:
    """The n-party Svetlichny polynomial: mk(n) for even n, else (mk + mk')/2."""
    _check_party_count(n, 2)
    if n % 2 == 0:
        return mk(n)
    num = _mk_numerators(n)
    return _from_numerators(n, num + num[::-1], n)


def svetlichny_minus(n: int) -> Polynomial:
    """The companion form (mk - mk')/2, defined for odd n >= 3 only."""
    _check_party_count(n, 3)
    if n % 2 == 0:
        raise InvalidArgumentError(f"svetlichny_minus is defined for odd n only, got {n}")
    num = _mk_numerators(n)
    return _from_numerators(n, num - num[::-1], n)


def combine(
    p: Polynomial, q: Polynomial, alpha: DyadicLike, beta: DyadicLike
) -> Polynomial:
    """alpha*p + beta*q with exact cancellation of like terms."""
    _check_same_count("second polynomial", q.n, "first polynomial", p.n)
    stores = _store(p), _store(q)
    weights = DyadicCoefficient._coerce(alpha), DyadicCoefficient._coerce(beta)
    k = max(ks + w.log2_denominator for (_, _, ks), w in zip(stores, weights))
    # each store's numerators times its weight's numerator and a power of two,
    # at the common denominator 2**k; int64 unless a factor or the sum could overflow
    scales = [w.numerator << (k - ks - w.log2_denominator) for (_, _, ks), w in zip(stores, weights)]
    bound = sum(max(abs(s), 1) * max(_max_abs(nums), 1) for (_, nums, _), s in zip(stores, scales))
    # the union of both mask sets (np.union1d would import numpy.ma)
    masks = np.sort(np.concatenate((stores[0][0], stores[1][0])))
    masks = masks[np.diff(masks, prepend=-1) != 0]
    out = np.zeros(len(masks), dtype=np.int64 if bound < _INT64_END else object)
    for (part_masks, nums, _), s in zip(stores, scales):
        out[np.searchsorted(masks, part_masks)] += nums.astype(out.dtype, copy=False) * s
    kept = np.flatnonzero(out)
    return _build(p.n, masks[kept], out[kept], k)


def tensor_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Concatenate party lists: q's parties are relabeled to follow p's."""
    (mp, cp, kp), (mq, cq, kq) = _store(p), _store(q)
    n = p.n + q.n
    dtype = np.int64 if max(_max_abs(cp), 1) * max(_max_abs(cq), 1) < _INT64_END else object
    # q's masks fill the high bits, so q-major order keeps the masks ascending
    mask_dtype = _mask_dtype(n)
    masks = (mq.astype(mask_dtype)[:, None] << p.n | mp.astype(mask_dtype)).ravel()
    numerators = (cq.astype(dtype)[:, None] * cp.astype(dtype)).ravel()
    return _build(n, masks, numerators, kp + kq)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def algebraic_limit(p: Polynomial) -> DyadicCoefficient:
    """Unconstrained maximum: the exact sum of absolute coefficient values."""
    _, numerators, k = _store(p)
    return DyadicCoefficient(_abs_sum(numerators), k)


def support_size(p: Polynomial) -> int:
    """Number of terms with nonzero coefficient."""
    return len(p.terms)


def evaluate(p: Polynomial, c: CorrelationVector | Mapping[Term, float]) -> float:
    """Sum of coefficient * correlation over p's support.

    A plain mapping is checked as the CorrelationVector of p's party count.
    """
    if not isinstance(c, CorrelationVector):
        c = CorrelationVector(p.n, c)
    _check_same_count("correlation vector", c.n, "polynomial", p.n)
    by_mask = {t.prime_mask: v for t, v in c.values.items()}
    coefs = dict(_mask_items(p))
    missing = [m for m in coefs if m not in by_mask]
    if missing:
        labels = ", ".join(_label(p.n, m) for m in missing)
        raise IncompleteDataError(
            f"correlation data is missing {len(missing)} term(s): {labels}",
            missing=tuple(Term(p.n, m) for m in missing),
        )
    return sum(float(coef) * by_mask[m] for m, coef in coefs.items())


# ---------------------------------------------------------------------------
# Canonical text and structured forms
# ---------------------------------------------------------------------------

def to_text(p: Polynomial) -> str:
    """One term per line, masks ascending: `+1/2^1 * A1 A2'` etc.

    `_label` writes each party list and `DyadicCoefficient.__str__` each
    coefficient, with a `+` before a positive one.  A label joins those of
    its mask's low and high halves, and each half's label and each distinct
    numerator is formatted once, so the cost is bounded by the number of
    terms as well as by 2**(n/2).
    """
    masks, numerators, k = _store(p)
    masks, numerators = masks.tolist(), numerators.tolist()
    half = (p.n + 1) // 2
    low_bits = (1 << half) - 1
    lows, highs = {m & low_bits for m in masks}, {m >> half for m in masks}
    low = {m: _label(half, m) for m in lows}
    # n = 1 has no high half, so no space to join one with
    high = {h: f" {_label(p.n, h << half, half)}" if half < p.n else "" for h in highs}
    coefficients = {v: f"{'+' if v > 0 else ''}{DyadicCoefficient(v, k)}" for v in set(numerators)}
    return "\n".join(
        f"{coefficients[v]} * {low[m & low_bits]}{high[m >> half]}" for m, v in zip(masks, numerators)
    )


def from_text(text: str, n: int | None = None) -> Polynomial:
    """Parse the canonical text form; blank lines and `#` comments are skipped.

    A line is `<coefficient> * <parties>`.  `DyadicCoefficient.parse` reads
    the coefficient, which must carry its sign.  The prime mask is read off
    which party tokens end in `'`, and the party list is accepted only when it
    is that mask's `_label`: A1 to An in order, each once.
    """
    masks: dict[int, DyadicCoefficient] = {}
    seen_n = n
    for lineno, line in _numbered_lines(text):
        coefficient, _, parties = line.partition("*")
        tokens = parties.split()
        try:
            coef = DyadicCoefficient.parse(coefficient)
        except DataFormatError:
            coef = None
        if coef is None or not tokens or not coefficient.startswith(("+", "-")):
            raise DataFormatError(f"not a polynomial term: {line!r}", line=lineno)
        if not coef:
            raise DataFormatError("zero coefficients are not allowed", line=lineno)
        line_n = len(tokens)
        mask = sum([1 << j for j, token in enumerate(tokens) if token[-1] == "'"])
        label = _label(line_n, mask)
        if " ".join(tokens) != label:
            raise DataFormatError(
                f"parties must read {label!r}, got {parties.strip()!r}", line=lineno
            )
        if seen_n is None:
            seen_n = line_n
        elif line_n != seen_n:
            raise DataFormatError(
                f"term has {line_n} parties, earlier terms had {seen_n}", line=lineno
            )
        if mask in masks:
            raise DataFormatError(f"duplicate term {label}", line=lineno)
        masks[mask] = coef
    if seen_n is None:
        raise DataFormatError("empty polynomial text and no explicit party count")
    return _from_coefficients(seen_n, masks)


# ---------------------------------------------------------------------------
# Text input shared by every line-based format
# ---------------------------------------------------------------------------


def _numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) of every line not blank or a `#` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _counted_lines(
    text: str, what: str, label: str = ""
) -> tuple[int, Iterator[tuple[int, str]]]:
    """The party count of an `n=<count>` header, and the numbered lines after it.

    `what` names the input in errors ("frame file"); `label` prefixes the
    header and count complaints ("frame ").
    """
    lines = _numbered_lines(text)
    lineno, line = next(lines, (None, None))
    if line is None:
        raise DataFormatError(f"empty {what}")
    if not line.startswith("n="):
        raise DataFormatError(f"{what} must start with an n=<count> header", line=lineno)
    try:
        n = int(line[2:])
    except ValueError as exc:
        raise DataFormatError(f"bad {label}header {line!r}", line=lineno) from exc
    if n < 1:
        raise DataFormatError(f"{label}party count must be >= 1", line=lineno)
    return n, lines


def parse_correlation_text(text: str) -> CorrelationVector:
    """Correlation data: header `n=<count>`, then `<settings> <value>` lines.

    Settings are an n-character string over {0,1}, leftmost character for
    party 1, with 1 marking the primed setting.  Duplicate settings are an
    error; values must lie in [-1, 1].
    """
    n, lines = _counted_lines(text, "correlation file")
    values: dict[Term, float] = {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError(f"expected `<settings> <value>`, got {line!r}", line=lineno)
        settings, value_text = parts
        if len(settings) != n or any(ch not in "01" for ch in settings):
            raise DataFormatError(
                f"settings must be {n} characters over 0/1, got {settings!r}", line=lineno
            )
        term = Term(n, int(settings[::-1], 2))
        if term in values:
            raise DataFormatError(f"duplicate settings {settings!r}", line=lineno)
        try:
            value = float(value_text)
        except ValueError as exc:
            raise DataFormatError(f"bad value {value_text!r}", line=lineno) from exc
        if not -1.0 <= value <= 1.0:
            raise DataFormatError(
                f"correlation value {value} outside [-1, 1]", line=lineno
            )
        values[term] = value
    return CorrelationVector(n, values)


def read_text_file(path: str, what: str) -> str:
    """The whole of a UTF-8 text file; an unreadable one is a DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path!r}: {exc}") from exc


def to_dict(p: Polynomial) -> dict:
    """Structured form: party count plus a list of (mask, numerator, exponent)."""
    return {
        "n": p.n,
        "terms": [
            {
                "prime_mask": mask,
                "numerator": c.numerator,
                "log2_denominator": c.log2_denominator,
            }
            for mask, c in _mask_items(p)
        ],
    }


def from_dict(data: Mapping) -> Polynomial:
    """Inverse of to_dict; each entry's three fields must be ints, never bools or floats."""
    try:
        n = data["n"]
        entries = [
            {name: entry[name] for name in ("prime_mask", "numerator", "log2_denominator")}
            for entry in data["terms"]
        ]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed structured polynomial: {exc}") from exc
    for entry in entries:
        for name, value in entry.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise DataFormatError(
                    f"malformed structured polynomial: {name} must be an integer, got {value!r}"
                )
    masks = {
        entry["prime_mask"]: DyadicCoefficient(entry["numerator"], entry["log2_denominator"])
        for entry in entries
    }
    if len(masks) != len(entries):
        raise DataFormatError("duplicate prime_mask in structured polynomial")
    return _from_coefficients(n, {m: c for m, c in masks.items() if c})
