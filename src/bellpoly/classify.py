"""Turn computed or measured polynomial values into verdicts and bound tables.

Every tabulated bound in this module is an exact power of sqrt(2), carried
symbolically as 2**(p/2) with integer p and rendered as a decimal only at
output boundaries.  The closed forms are stated once, in _bound_table, which
builds each table once per process; mk_bound, svetlichny_bounds,
depth_thresholds, both verdicts and table1 read them from there.  Verdicts
use strict inequalities with a 1e-9 guard so a value within floating-point
noise of a threshold never over-claims.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from . import models, polynomial, quantum
from .errors import (
    InconsistentInputError,
    InvalidArgumentError,
    NotTabulatedError,
    NumericalIntegrityError,
)

__all__ = [
    "Root2Power",
    "ModelKind",
    "BoundTable",
    "Verdict",
    "Table1Report",
    "mk_bound",
    "svetlichny_bounds",
    "entanglement_depth_verdict",
    "nonseparability_verdict",
    "table1",
]

VERDICT_TOL = 1e-9
VALUE_SANITY_TOL = 1e-6
QUANTUM_CHECK_TOL = 1e-6


@dataclass(frozen=True, order=True)
class Root2Power:
    """The exact value 2**(half_exponent / 2): 1, sqrt(2), 2, 2*sqrt(2), ..."""

    half_exponent: int

    def __post_init__(self) -> None:
        h = self.half_exponent
        if not isinstance(h, int) or isinstance(h, bool) or h < 0:
            raise InvalidArgumentError(f"half exponent must be a non-negative integer, got {h!r}")

    def __float__(self) -> float:
        return 2.0 ** (self.half_exponent / 2)

    def __mul__(self, other: "Root2Power") -> "Root2Power":
        return Root2Power(self.half_exponent + other.half_exponent)

    def render(self) -> str:
        h = self.half_exponent
        if h % 2 == 0:
            return str(1 << (h // 2))
        if h == 1:
            return "sqrt(2)"
        return f"{1 << ((h - 1) // 2)}*sqrt(2)"

    def __str__(self) -> str:
        return self.render()


_KINDS = ("local", "hybrid", "quantum-depth", "algebraic")


@dataclass(frozen=True)
class ModelKind:
    """One of the model classes a bound can refer to.

    `param` is the block size k for hybrid models and the entanglement depth m
    for quantum models; its range depends on n and is validated where used.
    """

    kind: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown model kind {self.kind!r}")
        needs_param = self.kind in ("hybrid", "quantum-depth")
        param = self.param
        if needs_param and (not isinstance(param, int) or isinstance(param, bool) or param < 1):
            raise InvalidArgumentError(f"{self.kind} needs a positive integer parameter")
        if not needs_param and param is not None:
            raise InvalidArgumentError(f"{self.kind} takes no parameter")

    @classmethod
    def local(cls) -> "ModelKind":
        return cls("local")

    @classmethod
    def hybrid_separable(cls, k: int) -> "ModelKind":
        return cls("hybrid", k)

    @classmethod
    def quantum_depth(cls, m: int) -> "ModelKind":
        return cls("quantum-depth", m)

    @classmethod
    def algebraic(cls) -> "ModelKind":
        return cls("algebraic")

    def render(self) -> str:
        if self.kind == "hybrid":
            return f"hybrid(k={self.param})"
        if self.kind == "quantum-depth":
            return f"quantum-depth(m={self.param})"
        return self.kind


@dataclass(frozen=True)
class BoundTable:
    """Bounds of one polynomial family at one n, keyed by model class."""

    family: str
    n: int
    bounds: Mapping[ModelKind, Root2Power]

    def __post_init__(self) -> None:
        if self.family not in ("mk", "svetlichny"):
            raise InvalidArgumentError(f"unknown polynomial family {self.family!r}")
        polynomial._check_party_count(self.n, 2)
        table = dict(self.bounds)
        local = table.get(ModelKind.local())
        algebraic = table.get(ModelKind.algebraic())
        hybrids = [v for k, v in table.items() if k.kind == "hybrid"]
        if local is not None:
            for h in hybrids:
                if float(local) > float(h):
                    raise InvalidArgumentError("local bound exceeds a hybrid bound")
        if algebraic is not None:
            for h in hybrids:
                if float(h) > float(algebraic):
                    raise InvalidArgumentError("hybrid bound exceeds the algebraic limit")
        depths = sorted(
            ((k.param, v) for k, v in table.items() if k.kind == "quantum-depth"),
            key=lambda kv: kv[0],
        )
        for (_, lo), (_, hi) in zip(depths, depths[1:]):
            if float(lo) > float(hi):
                raise InvalidArgumentError("quantum-depth bounds must be nondecreasing in m")
        object.__setattr__(self, "bounds", MappingProxyType(table))

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "bounds": [
                {"model": k.render(), "value": float(v), "exact": v.render()}
                for k, v in self.bounds.items()
            ],
        }


@dataclass(frozen=True)
class Verdict:
    """What a single polynomial value establishes about the underlying state."""

    value: float
    threshold: Root2Power | None
    conclusion: str
    margin: float | None
    depth: int | None = None
    genuine_nonseparable: bool | None = None

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "threshold": None if self.threshold is None else {
                "value": float(self.threshold),
                "exact": self.threshold.render(),
            },
            "conclusion": self.conclusion,
            "margin": self.margin,
            "depth": self.depth,
            "genuine_nonseparable": self.genuine_nonseparable,
        }


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 misses the cached 2 and fails the floor
def _bound_table(family: str, n: int) -> BoundTable:
    """Every closed-form bound of one family at n parties; the only place one is stated.

    Built once per (family, n) in a process and shared: a BoundTable is
    immutable and holds O(n) entries.  Local 1 and the algebraic limit
    2**floor(n/2) for both families.  MK: hybrid 2**floor((n-1)/2) at every
    block size k, as computed by models.hybrid_bound_all (at every split, for
    mk and its prime flip) and stored for n <= 9 only; depth m 2**((m-1)/2),
    stored for m <= 2 and m >= n - 2 only, since for 3 <= m <= n - 3 two
    clusters of at least 3 parties beat it (at n = 6 two 3-party states reach
    2*sqrt(2)).
    Svetlichny: hybrid 2**floor((n-2)/2) at every k <= n/2, and sqrt(2)
    times that at full depth n.
    """
    polynomial._check_party_count(n, 2)
    bounds = {ModelKind.local(): Root2Power(0)}
    if family == "mk":
        if n <= 9:
            for k in range(1, n):
                bounds[ModelKind.hybrid_separable(k)] = Root2Power(2 * ((n - 1) // 2))
        for m in range(1, n + 1):
            if m <= 2 or m >= n - 2:
                bounds[ModelKind.quantum_depth(m)] = Root2Power(m - 1)
    else:
        hybrid = Root2Power(2 * ((n - 2) // 2))
        for k in range(1, n // 2 + 1):
            bounds[ModelKind.hybrid_separable(k)] = hybrid
        bounds[ModelKind.quantum_depth(n)] = hybrid * Root2Power(1)
    bounds[ModelKind.algebraic()] = Root2Power(2 * (n // 2))
    return BoundTable(family=family, n=n, bounds=bounds)


def depth_thresholds(n: int) -> dict[int, Root2Power]:
    """Stored MK bounds at depth m < n, keyed by the depth m + 1 that crossing one certifies."""
    return {
        model.param + 1: bound
        for model, bound in _bound_table("mk", n).bounds.items()
        if model.kind == "quantum-depth" and model.param < n
    }


def mk_bound(n: int, model: ModelKind) -> Root2Power:
    """Closed-form bound of the n-party MK polynomial under one model class.

    The bounds are those of _bound_table.  A block size or depth out of range
    raises InvalidArgumentError; an in-range model with no stored bound (a
    hybrid bound past n = 9, a depth 3 <= m <= n - 3) raises
    NotTabulatedError.
    """
    bounds = _bound_table("mk", n).bounds
    if model.kind == "quantum-depth" and not 1 <= model.param <= n:
        raise InvalidArgumentError(f"entanglement depth m={model.param} out of range 1..{n}")
    if model.kind == "hybrid" and not 1 <= model.param <= n - 1:
        raise InvalidArgumentError(f"block size k={model.param} out of range 1..{n - 1}")
    bound = bounds.get(model)
    if bound is None:
        raise NotTabulatedError(
            f"no MK bound is stored at n={n} for {model.render()}; "
            f"compute it with models.hybrid_bound_all or quantum.block_product_max"
        )
    return bound


def svetlichny_bounds(n: int) -> BoundTable:
    """The full bound table of the n-party Svetlichny polynomial; its algebraic limit is MK's."""
    polynomial._check_party_count(n, 3)
    return _bound_table("svetlichny", n)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _check_value(value: float, table: BoundTable, what: str) -> None:
    """Reject a value no correlation data of the table's n parties can produce."""
    limit = float(table.bounds[ModelKind.algebraic()])
    if not math.isfinite(value) or value < 0:
        raise InvalidArgumentError(f"{what} must be a finite non-negative real, got {value!r}")
    if value > limit + VALUE_SANITY_TOL:
        raise InconsistentInputError(
            f"{what} {value} exceeds the algebraic limit {limit}; "
            f"no correlation data can produce it"
        )


def entanglement_depth_verdict(value: float, n: int, *, tol: float = VERDICT_TOL) -> Verdict:
    """Lower bound on entanglement depth from an MK polynomial value.

    Crossing the stored MK bound at depth m certifies at least
    (m+1)-particle entanglement; the strongest threshold of depth_thresholds
    strictly crossed (with a `tol` guard) wins.  Depth claims are capped at
    n, so depth_thresholds holds m up to n-1 only.
    """
    polynomial._check_tolerance(tol)
    _check_value(value, _bound_table("mk", n), "MK polynomial value")
    thresholds = depth_thresholds(n)
    crossed = [depth for depth in thresholds if value > float(thresholds[depth]) + tol]
    if not crossed:
        return Verdict(
            value=value,
            threshold=None,
            conclusion="no conclusion",
            margin=None,
        )
    depth = crossed[-1]
    threshold = thresholds[depth]
    return Verdict(
        value=value,
        threshold=threshold,
        conclusion=f"at least {depth}-particle entanglement",
        margin=value - float(threshold),
        depth=depth,
    )


def nonseparability_verdict(value: float, n: int, *, tol: float = VERDICT_TOL) -> Verdict:
    """Genuine n-party non-separability from a Svetlichny polynomial value."""
    polynomial._check_tolerance(tol)
    table = _bound_table("svetlichny", n)
    _check_value(value, table, "Svetlichny polynomial value")
    threshold = table.bounds[ModelKind.hybrid_separable(1)]
    genuine = value > float(threshold) + tol
    return Verdict(
        value=value,
        threshold=threshold,
        conclusion=f"genuine {n}-party non-separability" + ("" if genuine else " not established"),
        margin=value - float(threshold),
        genuine_nonseparable=genuine,
    )


# ---------------------------------------------------------------------------
# The three-party reference table
# ---------------------------------------------------------------------------

_TABLE1 = (  # (column, header, model)
    ("local", "local", ModelKind.local()),
    ("quantum_depth_2", "qm(depth 2)", ModelKind.quantum_depth(2)),
    ("hybrid_split", "2|1 split", ModelKind.hybrid_separable(1)),
    ("quantum_depth_3", "qm(depth 3)", ModelKind.quantum_depth(3)),
    ("algebraic", "algebraic", ModelKind.algebraic()),
)
TABLE1_COLUMNS = tuple(column for column, _, _ in _TABLE1)
# The Svetlichny table stores no depth below n.  A depth-2 state of three
# parties is a product across some 2|1 split, so S3's depth-2 cell is its
# hybrid bound.  M3 stores every column.
_TABLE1_STORED: dict[str, dict[str, Root2Power]] = {
    row: {
        column: bounds.get(model, bounds[ModelKind.hybrid_separable(1)])
        for column, _, model in _TABLE1
    }
    for row, bounds in (
        ("M3", _bound_table("mk", 3).bounds),
        ("S3", _bound_table("svetlichny", 3).bounds),
    )
}


@dataclass(frozen=True)
class Table1Cell:
    row: str
    column: str
    stored: Root2Power
    recomputed: float
    tolerance: float  # 0.0 means the comparison was bit-exact

    def as_dict(self) -> dict:
        return {
            "row": self.row,
            "column": self.column,
            "stored": float(self.stored),
            "stored_exact": self.stored.render(),
            "recomputed": self.recomputed,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class Table1Report:
    cells: tuple[Table1Cell, ...]

    def rows(self) -> dict[str, dict[str, Table1Cell]]:
        out: dict[str, dict[str, Table1Cell]] = {}
        for cell in self.cells:
            out.setdefault(cell.row, {})[cell.column] = cell
        return out

    def render_text(self) -> str:
        rows = self.rows()
        header = ["", *(head for _, head, _ in _TABLE1)]
        body = [
            [row, *(rows[row][c].stored.render() for c in TABLE1_COLUMNS)]
            for row in ("M3", "S3", "product")
        ]
        widths = [
            max(len(line[i]) for line in [header, *body]) for i in range(len(header))
        ]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
            for line in [header, *body]
        ]
        tolerance = max(cell.tolerance for cell in self.cells)
        lines.append(
            f"all 15 cells verified (classical bit-exact, quantum within {tolerance})"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "columns": list(TABLE1_COLUMNS),
            "cells": [cell.as_dict() for cell in self.cells],
            "verified": True,
        }


def table1(
    *,
    restarts: int = quantum.DEFAULT_RESTARTS,
    seed: int,
    tolerance: float = QUANTUM_CHECK_TOL,
    spectral_cap: int = quantum.DEFAULT_SPECTRAL_CAP,
    seesaw_tol: float = quantum.DEFAULT_SEESAW_TOL,
    max_sweeps: int = quantum.DEFAULT_MAX_SWEEPS,
) -> Table1Report:
    """Recompute the three-party reference table and check every cell.

    Classical cells come from the exact model bounds (the local bound from
    the Walsh-Hadamard transform, the hybrid bound from the two-block scan)
    and must match the stored closed forms bit-exactly; quantum cells come
    from see-saw ascent (full or block-product constrained) and must match
    within `tolerance`.  The product row checks the recomputed M3 x S3
    against the stored M3 x S3.  All 15 cells are checked in one pass, row by
    row, and the first mismatch raises NumericalIntegrityError naming its
    cell; this is the package's flagship self-test.  `spectral_cap` and
    `seesaw_tol` are the searches' `cap` and `tol`.  No classical bound takes
    a cap: the local bound has none, and every three-party split has a
    one-party block.
    """
    search = dict(restarts=restarts, cap=spectral_cap, tol=seesaw_tol, max_sweeps=max_sweeps)
    recomputed: dict[str, dict[str, float]] = {}
    rows = (("M3", polynomial.mk(3)), ("S3", polynomial.svetlichny(3)))
    for offset, (row, poly) in enumerate(rows):
        recomputed[row] = {
            "local": models.local_bound(poly).value,
            "quantum_depth_2": max(
                quantum.block_product_max(
                    poly, partition.block_a_parties, seed=seed + 2 + 3 * offset + shift, **search
                ).value
                for shift, partition in enumerate(models.bipartitions(3))
            ),
            "hybrid_split": models.hybrid_bound_all(poly).overall.value,
            "quantum_depth_3": quantum.quantum_max(poly, seed=seed + offset, **search).value,
            "algebraic": float(polynomial.algebraic_limit(poly)),
        }
    stored, recomputed = _with_product(_TABLE1_STORED), _with_product(recomputed)
    cells: list[Table1Cell] = []
    for row in ("M3", "S3", "product"):
        for column, _, model in _TABLE1:
            cell_tol = tolerance if model.kind == "quantum-depth" else 0.0
            cell = Table1Cell(row, column, stored[row][column], recomputed[row][column], cell_tol)
            _check_cell(cell)
            cells.append(cell)
    return Table1Report(cells=tuple(cells))


def _with_product(rows: dict) -> dict:
    """`rows` with the product row added: M3 times S3, column by column."""
    product = {c: rows["M3"][c] * rows["S3"][c] for c in TABLE1_COLUMNS}
    return {**rows, "product": product}


def _check_cell(cell: Table1Cell) -> None:
    """One comparison for every cell: tolerance 0.0 means bit-exact, and NaN never passes."""
    if not abs(cell.recomputed - float(cell.stored)) <= cell.tolerance:
        how = "(bit-exact check)" if cell.tolerance == 0.0 else f"by more than {cell.tolerance}"
        raise NumericalIntegrityError(
            f"table cell {cell.row}:{cell.column}: recomputed {cell.recomputed!r} differs "
            f"from stored {cell.stored.render()} {how}"
        )
