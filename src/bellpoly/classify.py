"""Turn computed or measured polynomial values into verdicts and bound tables.

Every tabulated bound in this module is an exact power of sqrt(2), carried
symbolically as 2**(p/2) with integer p and rendered as a decimal only at
output boundaries.  Verdicts use strict inequalities with a 1e-9 guard so a
value within floating-point noise of a threshold never over-claims.
"""

from __future__ import annotations

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
        if not isinstance(self.half_exponent, int) or self.half_exponent < 0:
            raise InvalidArgumentError(
                f"half exponent must be a non-negative integer, got {self.half_exponent!r}"
            )

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
        if needs_param and (not isinstance(self.param, int) or self.param < 1):
            raise InvalidArgumentError(f"{self.kind} needs a positive integer parameter")
        if not needs_param and self.param is not None:
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


def _mk_algebraic(n: int) -> Root2Power:
    return Root2Power(n if n % 2 == 0 else n - 1)


def _svetlichny_hybrid(n: int) -> Root2Power:
    return Root2Power(n - 2 if n % 2 == 0 else n - 3)


def mk_bound(n: int, model: ModelKind) -> Root2Power:
    """Closed-form bound of the n-party MK polynomial under one model class.

    Hybrid bounds are tabulated only where they have been established by
    direct computation (n = 3, 4); other n raise NotTabulatedError and should
    go through models.hybrid_bound_all.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"mk_bound needs n >= 2, got {n!r}")
    if model.kind == "local":
        return Root2Power(0)
    if model.kind == "quantum-depth":
        m = model.param
        if not 1 <= m <= n:
            raise InvalidArgumentError(f"entanglement depth m={m} out of range 1..{n}")
        return Root2Power(m - 1)
    if model.kind == "algebraic":
        return _mk_algebraic(n)
    # hybrid
    if not 1 <= model.param <= n - 1:
        raise InvalidArgumentError(f"block size k={model.param} out of range 1..{n - 1}")
    if n in (3, 4):
        return Root2Power(2)
    raise NotTabulatedError(
        f"no closed-form hybrid bound is stored for the MK polynomial at n={n}; "
        f"compute it with models.hybrid_bound_all"
    )


def svetlichny_bounds(n: int) -> BoundTable:
    """The full bound table of the n-party Svetlichny polynomial."""
    if not isinstance(n, int) or n < 3:
        raise InvalidArgumentError(f"svetlichny_bounds needs n >= 3, got {n!r}")
    hybrid = _svetlichny_hybrid(n)
    algebraic = polynomial.algebraic_limit(polynomial.svetlichny(n))
    alg_num = algebraic.numerator
    if algebraic.log2_denominator != 0 or alg_num & (alg_num - 1):
        raise NumericalIntegrityError(
            f"algebraic limit of the n={n} Svetlichny polynomial is not a power of two"
        )
    table: dict[ModelKind, Root2Power] = {ModelKind.local(): Root2Power(0)}
    for k in range(1, n // 2 + 1):
        table[ModelKind.hybrid_separable(k)] = hybrid
    table[ModelKind.quantum_depth(n)] = Root2Power(hybrid.half_exponent + 1)
    table[ModelKind.algebraic()] = Root2Power(2 * (alg_num.bit_length() - 1))
    return BoundTable(family="svetlichny", n=n, bounds=table)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _check_value(value: float, limit: float, what: str) -> None:
    if not math.isfinite(value) or value < 0:
        raise InvalidArgumentError(f"{what} must be a finite non-negative real, got {value!r}")
    if value > limit + VALUE_SANITY_TOL:
        raise InconsistentInputError(
            f"{what} {value} exceeds the algebraic limit {limit}; "
            f"no correlation data can produce it"
        )


def entanglement_depth_verdict(value: float, n: int, *, tol: float = VERDICT_TOL) -> Verdict:
    """Lower bound on entanglement depth from an MK polynomial value.

    Crossing 2**((m-1)/2) certifies at least (m+1)-particle entanglement; the
    strongest threshold strictly crossed (with a `tol` guard) wins.  Depth
    claims are capped at n, so thresholds are scanned for m up to n-1.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"verdicts need n >= 2, got {n!r}")
    _check_value(value, float(_mk_algebraic(n)), "MK polynomial value")
    crossed: int | None = None
    for m in range(1, n):
        if value > float(Root2Power(m - 1)) + tol:
            crossed = m
    if crossed is None:
        return Verdict(
            value=value,
            threshold=None,
            conclusion="no conclusion",
            margin=None,
        )
    threshold = Root2Power(crossed - 1)
    return Verdict(
        value=value,
        threshold=threshold,
        conclusion=f"at least {crossed + 1}-particle entanglement",
        margin=value - float(threshold),
        depth=crossed + 1,
    )


def nonseparability_verdict(value: float, n: int, *, tol: float = VERDICT_TOL) -> Verdict:
    """Genuine n-party non-separability from a Svetlichny polynomial value."""
    if not isinstance(n, int) or n < 2:
        raise InvalidArgumentError(f"verdicts need n >= 2, got {n!r}")
    alg = polynomial.algebraic_limit(polynomial.svetlichny(n))
    _check_value(value, float(alg), "Svetlichny polynomial value")
    threshold = _svetlichny_hybrid(n)
    margin = value - float(threshold)
    if value > float(threshold) + tol:
        return Verdict(
            value=value,
            threshold=threshold,
            conclusion=f"genuine {n}-party non-separability",
            margin=margin,
            genuine_nonseparable=True,
        )
    return Verdict(
        value=value,
        threshold=threshold,
        conclusion=f"genuine {n}-party non-separability not established",
        margin=margin,
        genuine_nonseparable=False,
    )


# ---------------------------------------------------------------------------
# The three-party reference table
# ---------------------------------------------------------------------------

TABLE1_COLUMNS = ("local", "quantum_depth_2", "hybrid_split", "quantum_depth_3", "algebraic")
_TABLE1_HEAD = {
    "local": "local",
    "quantum_depth_2": "qm(depth 2)",
    "hybrid_split": "2|1 split",
    "quantum_depth_3": "qm(depth 3)",
    "algebraic": "algebraic",
}

_TABLE1_STORED: dict[str, dict[str, Root2Power]] = {
    "M3": {
        "local": Root2Power(0),
        "quantum_depth_2": Root2Power(1),
        "hybrid_split": Root2Power(2),
        "quantum_depth_3": Root2Power(2),
        "algebraic": Root2Power(2),
    },
    "S3": {
        "local": Root2Power(0),
        "quantum_depth_2": Root2Power(0),
        "hybrid_split": Root2Power(0),
        "quantum_depth_3": Root2Power(1),
        "algebraic": Root2Power(2),
    },
}

_QUANTUM_COLUMNS = ("quantum_depth_2", "quantum_depth_3")


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
        header = ["", *(_TABLE1_HEAD[c] for c in TABLE1_COLUMNS)]
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
    local_cap: int = models.DEFAULT_LOCAL_CAP,
    spectral_cap: int = quantum.DEFAULT_SPECTRAL_CAP,
    seesaw_tol: float = quantum.DEFAULT_SEESAW_TOL,
    max_sweeps: int = quantum.DEFAULT_MAX_SWEEPS,
    _corrupt_cell: str | None = None,
) -> Table1Report:
    """Recompute the three-party reference table and check every cell.

    Classical cells come from exhaustive enumeration and must match the stored
    closed forms bit-exactly; quantum cells come from see-saw ascent (full or
    block-product constrained) and must match within `tolerance`.  Any mismatch
    raises NumericalIntegrityError naming the offending cell; this is the
    package's flagship self-test.  `local_cap` is the local enumeration's
    `cap`; `spectral_cap`, `seesaw_tol` and `max_sweeps` are the searches'
    `cap`, `tol` and `max_rounds`.  No hybrid block cap applies: every
    three-party split has a one-party block.

    `_corrupt_cell` ("ROW:COLUMN") deliberately corrupts one stored value so
    the failure path itself can be exercised.
    """
    m3 = polynomial.mk(3)
    s3 = polynomial.svetlichny(3)
    search = dict(restarts=restarts, cap=spectral_cap, tol=seesaw_tol, max_rounds=max_sweeps)
    recomputed: dict[str, dict[str, float]] = {"M3": {}, "S3": {}}
    for row, poly in (("M3", m3), ("S3", s3)):
        recomputed[row]["local"] = models.local_bound(poly, cap=local_cap).value
        recomputed[row]["hybrid_split"] = models.hybrid_bound_all(poly).overall.value
        recomputed[row]["algebraic"] = float(polynomial.algebraic_limit(poly))
    offsets = {"M3": 0, "S3": 1}
    for row, poly in (("M3", m3), ("S3", s3)):
        recomputed[row]["quantum_depth_3"] = quantum.quantum_max(
            poly, seed=seed + offsets[row], **search
        ).value
        recomputed[row]["quantum_depth_2"] = max(
            quantum.block_product_max(
                poly,
                partition.block_a_parties,
                seed=seed + 2 + 3 * offsets[row] + shift,
                **search,
            ).value
            for shift, partition in enumerate(models.bipartitions(3))
        )

    cells: list[Table1Cell] = []
    for row in ("M3", "S3"):
        for column in TABLE1_COLUMNS:
            stored = _TABLE1_STORED[row][column]
            if _corrupt_cell == f"{row}:{column}":
                stored = Root2Power(stored.half_exponent + 2)
            value = recomputed[row][column]
            cell_tol = tolerance if column in _QUANTUM_COLUMNS else 0.0
            _check_cell(row, column, stored, value, cell_tol)
            cells.append(Table1Cell(row, column, stored, value, cell_tol))
    for column in TABLE1_COLUMNS:
        stored = _TABLE1_STORED["M3"][column] * _TABLE1_STORED["S3"][column]
        if _corrupt_cell == f"product:{column}":
            stored = Root2Power(stored.half_exponent + 2)
        value = recomputed["M3"][column] * recomputed["S3"][column]
        cell_tol = tolerance if column in _QUANTUM_COLUMNS else 0.0
        _check_cell("product", column, stored, value, cell_tol)
        cells.append(Table1Cell("product", column, stored, value, cell_tol))
    return Table1Report(cells=tuple(cells))


def _check_cell(row: str, column: str, stored: Root2Power, value: float, tolerance: float) -> None:
    if tolerance == 0.0:
        if value != float(stored):
            raise NumericalIntegrityError(
                f"table cell {row}:{column}: recomputed {value!r} != stored "
                f"{stored.render()} (bit-exact check)"
            )
    elif abs(value - float(stored)) > tolerance:
        raise NumericalIntegrityError(
            f"table cell {row}:{column}: recomputed {value!r} differs from stored "
            f"{stored.render()} by more than {tolerance}"
        )
