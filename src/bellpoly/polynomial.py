"""Exact algebra of correlation polynomials for n two-setting parties.

A Term encodes one correlation coefficient E(A1 ... An) as an n-bit mask whose
bit j marks party j using its alternate (primed) setting.  Coefficients are
dyadic rationals kept exact throughout; floating point enters only when a
polynomial is evaluated against numeric correlation data.

Party indices are 0-based inside the library and 1-based in every text form
(A1, A2', ...).
"""

from __future__ import annotations

import math
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
]


@dataclass(frozen=True, order=True)
class Term:
    """One correlation coefficient: which parties use their primed setting."""

    n: int
    prime_mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidArgumentError(f"party count must be a positive integer, got {self.n!r}")
        if not isinstance(self.prime_mask, int) or not 0 <= self.prime_mask < (1 << self.n):
            raise InvalidArgumentError(
                f"prime_mask must lie in [0, 2^{self.n}), got {self.prime_mask!r}"
            )

    def primed(self, party: int) -> bool:
        """Whether `party` (0-based) uses its primed setting in this term."""
        if not 0 <= party < self.n:
            raise InvalidArgumentError(f"party index {party} out of range for n={self.n}")
        return bool((self.prime_mask >> party) & 1)

    def label(self) -> str:
        """1-based text form, e.g. "A1 A2' A3"."""
        return " ".join(
            f"A{j + 1}'" if self.primed(j) else f"A{j + 1}" for j in range(self.n)
        )


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
        if not isinstance(num, int) or not isinstance(k, int):
            raise InvalidArgumentError("dyadic parts must be integers")
        if k < 0:
            raise InvalidArgumentError("log2_denominator must be non-negative")
        if num == 0:
            k = 0
        else:
            while k > 0 and num % 2 == 0:
                num //= 2
                k -= 1
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


@dataclass(frozen=True)
class Polynomial:
    """A signed dyadic combination of Terms, all sharing the same party count.

    Zero coefficients are never stored; the empty polynomial is legal.
    """

    n: int
    terms: Mapping[Term, DyadicCoefficient]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidArgumentError(f"party count must be a positive integer, got {self.n!r}")
        clean: dict[Term, DyadicCoefficient] = {}
        for term in sorted(self.terms, key=lambda t: t.prime_mask):
            coef = self.terms[term]
            if term.n != self.n:
                raise InvalidArgumentError(
                    f"term {term.label()} has n={term.n}, polynomial has n={self.n}"
                )
            if not isinstance(coef, DyadicCoefficient):
                raise InvalidArgumentError("coefficients must be DyadicCoefficient")
            if coef.numerator == 0:
                raise InvalidArgumentError("zero coefficients must not be stored")
            clean[term] = coef
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def coefficient(self, term: Term) -> DyadicCoefficient:
        return self.terms.get(term, ZERO)


def _build(n: int, masks: Mapping[int, DyadicCoefficient]) -> Polynomial:
    return Polynomial(n, {Term(n, m): c for m, c in masks.items() if c.numerator != 0})


def _mask_items(p: Polynomial):
    return ((t.prime_mask, c) for t, c in p.terms.items())


@dataclass(frozen=True)
class CorrelationVector:
    """Measured or modelled correlation coefficients, one real in [-1, 1] per Term."""

    n: int
    values: Mapping[Term, float]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidArgumentError(f"party count must be a positive integer, got {self.n!r}")
        clean: dict[Term, float] = {}
        for term in sorted(self.values, key=lambda t: t.prime_mask):
            v = float(self.values[term])
            if term.n != self.n:
                raise InvalidArgumentError(
                    f"term {term.label()} has n={term.n}, vector has n={self.n}"
                )
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
    values = numerators[masks].tolist()
    # one immutable coefficient object per distinct value
    coefs = {v: DyadicCoefficient(v, log2_denominator) for v in set(values)}
    return _build(n, {m: coefs[v] for m, v in zip(masks.tolist(), values)})


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
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"mk requires a party count >= 1, got {n!r}")
    return _from_numerators(n, _mk_numerators(n), n - 1)


def prime_flip(p: Polynomial) -> Polynomial:
    """Swap every party's primed and unprimed setting (an involution)."""
    full = (1 << p.n) - 1
    return _build(p.n, {mask ^ full: c for mask, c in _mask_items(p)})


def svetlichny(n: int) -> Polynomial:
    """The n-party Svetlichny polynomial: mk(n) for even n, else (mk + mk')/2."""
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"svetlichny requires a party count >= 2, got {n!r}")
    if n % 2 == 0:
        return mk(n)
    num = _mk_numerators(n)
    return _from_numerators(n, num + num[::-1], n)


def svetlichny_minus(n: int) -> Polynomial:
    """The companion form (mk - mk')/2, defined for odd n >= 3 only."""
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise InvalidArgumentError(
            f"svetlichny_minus requires an odd party count >= 3, got {n!r}"
        )
    num = _mk_numerators(n)
    return _from_numerators(n, num - num[::-1], n)


def combine(
    p: Polynomial, q: Polynomial, alpha: DyadicLike, beta: DyadicLike
) -> Polynomial:
    """alpha*p + beta*q with exact cancellation of like terms."""
    if p.n != q.n:
        raise InvalidArgumentError(f"cannot combine polynomials with n={p.n} and n={q.n}")
    a = DyadicCoefficient._coerce(alpha)
    b = DyadicCoefficient._coerce(beta)
    out: dict[int, DyadicCoefficient] = {}
    for poly, w in ((p, a), (q, b)):
        if w.numerator == 0:
            continue
        for mask, c in _mask_items(poly):
            acc = out.get(mask, ZERO) + w * c
            if acc.numerator == 0:
                out.pop(mask, None)
            else:
                out[mask] = acc
    return _build(p.n, out)


def tensor_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Concatenate party lists: q's parties are relabeled to follow p's."""
    out: dict[int, DyadicCoefficient] = {}
    for mp, cp in _mask_items(p):
        for mq, cq in _mask_items(q):
            out[mp | (mq << p.n)] = cp * cq
    return _build(p.n + q.n, out)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def algebraic_limit(p: Polynomial) -> DyadicCoefficient:
    """Unconstrained maximum: the exact sum of absolute coefficient values."""
    total = ZERO
    for c in p.terms.values():
        total = total + abs(c)
    return total


def support_size(p: Polynomial) -> int:
    """Number of terms with nonzero coefficient."""
    return len(p.terms)


def evaluate(p: Polynomial, c: CorrelationVector | Mapping[Term, float]) -> float:
    """Sum of coefficient * correlation over p's support."""
    if isinstance(c, CorrelationVector) and c.n != p.n:
        raise InvalidArgumentError(
            f"correlation vector is for {c.n} parties, polynomial for {p.n}"
        )
    values = c.values if isinstance(c, CorrelationVector) else c
    missing = [t for t in p.terms if t not in values]
    if missing:
        labels = ", ".join(t.label() for t in missing)
        raise IncompleteDataError(
            f"correlation data is missing {len(missing)} term(s): {labels}",
            missing=tuple(missing),
        )
    return sum(float(coef) * float(values[t]) for t, coef in p.terms.items())


# ---------------------------------------------------------------------------
# Canonical text and structured forms
# ---------------------------------------------------------------------------

_TERM_LINE_RE = re.compile(r"^([+-])(\d+)/2\^(\d+)\s*\*\s*(.+)$")
_PARTY_RE = re.compile(r"^A(\d+)(')?$")


def to_text(p: Polynomial) -> str:
    """One term per line, masks ascending: `+1/2^1 * A1 A2'` etc."""
    lines = []
    for term, coef in p.terms.items():
        sign = "+" if coef.numerator > 0 else "-"
        lines.append(
            f"{sign}{abs(coef.numerator)}/2^{coef.log2_denominator} * {term.label()}"
        )
    return "\n".join(lines)


def from_text(text: str, n: int | None = None) -> Polynomial:
    """Parse the canonical text form; blank lines and `#` comments are skipped."""
    masks: dict[int, DyadicCoefficient] = {}
    seen_n = n
    for lineno, line in _numbered_lines(text):
        m = _TERM_LINE_RE.match(line)
        if m is None:
            raise DataFormatError(f"not a polynomial term: {line!r}", line=lineno)
        sign, num, k, parties = m.groups()
        numerator = int(num) if sign == "+" else -int(num)
        if numerator == 0:
            raise DataFormatError("zero coefficients are not allowed", line=lineno)
        mask = 0
        expected = 1
        for token in parties.split():
            pm = _PARTY_RE.match(token)
            if pm is None:
                raise DataFormatError(f"bad party token {token!r}", line=lineno)
            idx = int(pm.group(1))
            if idx != expected:
                raise DataFormatError(
                    f"parties must appear once each in ascending order; got A{idx} "
                    f"where A{expected} was expected",
                    line=lineno,
                )
            if pm.group(2):
                mask |= 1 << (idx - 1)
            expected += 1
        line_n = expected - 1
        if line_n == 0:
            raise DataFormatError("term lists no parties", line=lineno)
        if seen_n is None:
            seen_n = line_n
        elif line_n != seen_n:
            raise DataFormatError(
                f"term has {line_n} parties, earlier terms had {seen_n}", line=lineno
            )
        if mask in masks:
            raise DataFormatError(f"duplicate term {token_label(seen_n, mask)}", line=lineno)
        masks[mask] = DyadicCoefficient(numerator, int(k))
    if seen_n is None:
        raise DataFormatError("empty polynomial text and no explicit party count")
    return _build(seen_n, masks)


def token_label(n: int, mask: int) -> str:
    return Term(n, mask).label()


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


def _read_file(path: str, what: str) -> str:
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
                "prime_mask": t.prime_mask,
                "numerator": c.numerator,
                "log2_denominator": c.log2_denominator,
            }
            for t, c in p.terms.items()
        ],
    }


def from_dict(data: Mapping) -> Polynomial:
    try:
        n = data["n"]
        masks = {
            int(entry["prime_mask"]): DyadicCoefficient(
                int(entry["numerator"]), int(entry["log2_denominator"])
            )
            for entry in data["terms"]
        }
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed structured polynomial: {exc}") from exc
    if len(masks) != len(data["terms"]):
        raise DataFormatError("duplicate prime_mask in structured polynomial")
    return _build(n, masks)
