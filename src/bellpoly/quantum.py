"""Quantum-side evaluation: Bell operators, GHZ states, spectra, see-saw ascent.

Measurements are spin observables v . sigma along unit Bloch vectors, so every
party's two settings are a pair of unit vectors.  Substituting observables for
the outcome symbols of a correlation polynomial yields a Hermitian Bell
operator on n qubits; its expectation values and top eigenvalue give the
quantum side of every bound in this package.

All operators come from one fold: the polynomial's coefficient tensor (one
axis per party, indexed by that party's setting) is contracted one party at a
time with the party's stacked pair of observables.  Folding every party gives
the Bell matrix; folding all parties but one leaves that party's two settings
open, which yields both of its effective fields in one contraction.  No
intermediate is larger than the Bell matrix itself.

States enter as density matrices (a pure state as |psi><psi|), and every
expectation is Re Tr(rho B).  The expectation is linear in each setting's
Bloch vector, g_0 . v_0 + g_1 . v_1 for any one party, which makes coordinate
ascent exact: replacing a vector by its normalized effective field is the
optimal update for that coordinate, and the new value follows from the fields
alone.  Each see-saw sweep recomputes Re Tr(rho B) once from a fresh fold and
raises NumericalIntegrityError if the tracked value drifted from it.

The three searches share one ascent from a random frame.  A round is a state
step, mapping the Bell matrix B to a state rho (the given state in `seesaw`,
the top eigenvector in `quantum_max`, the best product across the bipartition
in `block_product_max`), then one sweep.  A restart stops when a round gains
less than `tol` over the value before it, the first round being measured
against Re Tr(rho_0 B_0) on the start frame.  Of the seeded restarts the best
is kept: a later one replaces it only if better by more than 1e-12, so ties go
to the earliest start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from .errors import (
    DataFormatError,
    InvalidArgumentError,
    NumericalIntegrityError,
    ResourceLimitError,
)
from . import polynomial
from .models import _coefficient_tensor
from .polynomial import Polynomial

__all__ = [
    "UnitVector",
    "MeasurementFrame",
    "PureState",
    "DensityMatrix",
    "BellOperator",
    "SeesawResult",
    "QuantumMaxResult",
    "BlockProductResult",
    "observable",
    "bell_operator",
    "ghz",
    "basis_state",
    "expectation",
    "max_eigenvalue",
    "effective_bloch",
    "seesaw",
    "quantum_max",
    "block_product_max",
    "random_frame",
    "random_state",
    "frame_to_text",
    "frame_from_text",
    "parse_state",
    "DEFAULT_SPECTRAL_CAP",
]

DEFAULT_SPECTRAL_CAP = 10
DEFAULT_RESTARTS = 16
DEFAULT_SEESAW_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 1000

_UNIT_TOL = 1e-12
_HERMITIAN_TOL = 1e-10
_IMAG_DISCARD = 1e-10
_IMAG_ERROR = 1e-8
_SWEEP_DRIFT_TOL = 1e-9
_TIE_MARGIN = 1e-12

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class UnitVector:
    """A Bloch direction; must be normalized to within 1e-12."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(norm - 1.0) > _UNIT_TOL:
            raise InvalidArgumentError(
                f"({self.x}, {self.y}, {self.z}) has norm {norm!r}, not a unit vector"
            )

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm < 1e-14:
            raise InvalidArgumentError("cannot normalize a (near-)zero vector")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_array(cls, v: np.ndarray) -> "UnitVector":
        return cls.normalized(float(v[0]), float(v[1]), float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class MeasurementFrame:
    """Per party, the pair (plain, primed) of measurement directions."""

    pairs: tuple[tuple[UnitVector, UnitVector], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InvalidArgumentError("a frame needs at least one party")
        for pair in self.pairs:
            if len(pair) != 2 or not all(isinstance(v, UnitVector) for v in pair):
                raise InvalidArgumentError("each party needs a (plain, primed) vector pair")

    @property
    def n(self) -> int:
        return len(self.pairs)

    def setting(self, party: int, primed: bool) -> UnitVector:
        return self.pairs[party][1 if primed else 0]

    def replace(self, party: int, primed: bool, v: UnitVector) -> "MeasurementFrame":
        pairs = [list(pair) for pair in self.pairs]
        pairs[party][1 if primed else 0] = v
        return MeasurementFrame(tuple(map(tuple, pairs)))

    def as_dict(self) -> dict:
        settings = [[[v.x, v.y, v.z], [w.x, w.y, w.z]] for v, w in self.pairs]
        return {"n": self.n, "settings": settings}


@dataclass(frozen=True)
class PureState:
    """An n-qubit state vector, unit norm to within 1e-12."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidArgumentError(f"qubit count must be a positive integer, got {self.n!r}")
        if amps.shape != (1 << self.n,):
            raise InvalidArgumentError(
                f"state for n={self.n} needs {1 << self.n} amplitudes, got {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise InvalidArgumentError(f"state norm is {norm!r}, not 1 within {_UNIT_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit density matrix: Hermitian, unit trace, positive semidefinite."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.entries, dtype=complex)
        dim = 1 << self.n
        if rho.shape != (dim, dim):
            raise InvalidArgumentError(
                f"density matrix for n={self.n} must be {dim}x{dim}, got {rho.shape}"
            )
        if np.max(np.abs(rho - rho.conj().T)) > _HERMITIAN_TOL:
            raise InvalidArgumentError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(rho) - 1.0) > _HERMITIAN_TOL:
            raise InvalidArgumentError("density matrix trace is not 1 within 1e-10")
        if float(np.linalg.eigvalsh(rho)[0]) < -_HERMITIAN_TOL:
            raise InvalidArgumentError("density matrix has an eigenvalue below -1e-10")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)


State = Union[PureState, DensityMatrix]
_R = TypeVar("_R", "SeesawResult", "QuantumMaxResult", "BlockProductResult")


@dataclass(frozen=True)
class BellOperator:
    """The Hermitian matrix of a polynomial under a measurement frame."""

    n: int
    entries: np.ndarray
    source: tuple[Polynomial, MeasurementFrame]

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        dim = 1 << self.n
        if mat.shape != (dim, dim):
            raise InvalidArgumentError(f"operator must be {dim}x{dim}, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITIAN_TOL:
            raise NumericalIntegrityError("Bell operator is not Hermitian within 1e-10")
        limit = float(polynomial.algebraic_limit(self.source[0]))
        eigs = np.linalg.eigvalsh(mat)
        norm = float(max(abs(eigs[0]), abs(eigs[-1]))) if eigs.size else 0.0
        if norm > limit + 1e-9:
            raise NumericalIntegrityError(
                f"operator norm {norm} exceeds the algebraic limit {limit}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


# ---------------------------------------------------------------------------
# Elementary constructions
# ---------------------------------------------------------------------------


def observable(v: UnitVector) -> np.ndarray:
    """The 2x2 spin observable along v; traceless with eigenvalues +/-1."""
    return v.x * _SIGMA[0] + v.y * _SIGMA[1] + v.z * _SIGMA[2]


def _pair_ops(f: MeasurementFrame) -> np.ndarray:
    """Shape (n, 2, 2, 2): per party, the stacked (plain, primed) observables."""
    return _ops_from_vectors(np.array([[v.as_array(), w.as_array()] for v, w in f.pairs]))


def _fold(p: Polynomial, ops: np.ndarray, parties: Sequence[int]) -> np.ndarray:
    """The polynomial's operator over `parties` (ascending), other settings left open.

    The coefficient tensor (axis j = party j's setting) is contracted one party
    at a time with that party's stacked observables.  The result has shape
    (2,) * len(others) + (2**k, 2**k), where the leading axes are the settings
    of the parties not folded and the first folded party is the most
    significant qubit.  Folding k parties holds 2**(n + k) entries, so no
    intermediate exceeds the 4**n of the full Bell matrix.
    """
    others = [j for j in range(p.n) if j not in parties]
    lead = 1 << len(others)
    t = np.transpose(_coefficient_tensor(p), others + list(parties)).reshape(lead, -1, 1, 1)
    for j in parties:
        dim = t.shape[-1]
        t = t.reshape(lead, 2, -1, dim, dim)
        t = np.einsum("lsrac,sbd->lrabcd", t, ops[j]).reshape(lead, -1, 2 * dim, 2 * dim)
    return t.reshape((2,) * len(others) + t.shape[-2:])


def _bell_matrix(p: Polynomial, ops: np.ndarray) -> np.ndarray:
    return _fold(p, ops, range(p.n))


def bell_operator(p: Polynomial, f: MeasurementFrame) -> BellOperator:
    """Substitute each setting symbol with its observable and sum the products."""
    if p.n != f.n:
        raise InvalidArgumentError(f"polynomial has {p.n} parties, frame has {f.n}")
    return BellOperator(n=p.n, entries=_bell_matrix(p, _pair_ops(f)), source=(p, f))


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits."""
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"ghz requires a qubit count >= 1, got {n!r}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amps)


def basis_state(n: int, index: int) -> PureState:
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"basis_state requires a qubit count >= 1, got {n!r}")
    if not 0 <= index < (1 << n):
        raise InvalidArgumentError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > _IMAG_ERROR:
        raise NumericalIntegrityError(
            f"{what} has imaginary residue {value.imag}, above {_IMAG_ERROR}"
        )
    return float(value.real)


def _projector(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _density(state: State) -> np.ndarray:
    return _projector(state.amplitudes) if isinstance(state, PureState) else state.entries


def _trace_product(rho: np.ndarray, matrix: np.ndarray) -> float:
    """Re Tr(rho B), after checking the imaginary residue."""
    return _real_part(complex(np.einsum("ij,ji->", rho, matrix)), "expectation value")


def expectation(op: BellOperator, state: State) -> float:
    """Tr(rho O); a pure state enters as rho = |psi><psi|."""
    if op.n != state.n:
        raise InvalidArgumentError(f"operator has {op.n} qubits, state has {state.n}")
    return _trace_product(_density(state), op.entries)


def _top_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """The top eigenvalue and its eigenvector, phase fixed by the largest entry."""
    eigenvalues, vectors = np.linalg.eigh(matrix)
    vec = vectors[:, -1]
    pivot = vec[int(np.argmax(np.abs(vec)))]
    return float(eigenvalues[-1]), vec * (pivot / abs(pivot)).conjugate()


def max_eigenvalue(op: BellOperator) -> tuple[float, PureState]:
    """Largest eigenvalue and a normalized eigenvector (phase-canonicalized)."""
    try:
        value, vec = _top_eigenpair(op.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalIntegrityError(f"eigensolver failed: {exc}") from exc
    residual = float(np.linalg.norm(op.entries @ vec - value * vec))
    if residual > 1e-9:
        raise NumericalIntegrityError(
            f"eigenpair residual {residual} exceeds 1e-9 (dim {vec.size})"
        )
    return value, PureState(op.n, vec)


# ---------------------------------------------------------------------------
# Effective fields
# ---------------------------------------------------------------------------


def _fields(p: Polynomial, ops: np.ndarray, rho: np.ndarray, party: int) -> np.ndarray:
    """Effective Bloch vectors of both settings of `party`, shape (2, 3).

    Every term holds exactly one setting of each party, so the expectation is
    g_0 . v_0 + g_1 . v_1, and neither field depends on either of the party's
    own settings.  With F_s the fold over the other parties at setting s,
    g_s[w] = Tr(rho (sigma_w (x) F_s)), sigma_w acting on `party`.
    """
    n = p.n
    rest = _fold(p, ops, [j for j in range(n) if j != party])
    high, low = 1 << party, 1 << (n - 1 - party)
    # rho[(a x b), (c y d)] -> [(x y), (c d a b)], x and y the row and column of `party`
    r = rho.reshape(high, 2, low, high, 2, low).transpose(1, 4, 3, 5, 0, 2).reshape(4, -1)
    # k[x, y, s] = sum rho[a x b, c y d] F_s[c d, a b]
    k = (r @ rest.reshape(2, -1).T).reshape(2, 2, 2)
    g = np.einsum("xys,wyx->sw", k, _SIGMA)
    return np.array(
        [[_real_part(complex(c), "effective Bloch component") for c in row] for row in g]
    )


def effective_bloch(
    p: Polynomial, f: MeasurementFrame, state: State, party: int, primed: bool
) -> np.ndarray:
    """Gradient of the expectation with respect to one setting's Bloch vector."""
    if p.n != f.n:
        raise InvalidArgumentError(f"polynomial has {p.n} parties, frame has {f.n}")
    if p.n != state.n:
        raise InvalidArgumentError(f"polynomial has {p.n} parties, state has {state.n}")
    if not 0 <= party < p.n:
        raise InvalidArgumentError(f"party index {party} out of range for n={p.n}")
    return _fields(p, _pair_ops(f), _density(state), party)[1 if primed else 0]


# ---------------------------------------------------------------------------
# Randomized starting points
# ---------------------------------------------------------------------------


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def random_frame(n: int, rng: np.random.Generator) -> MeasurementFrame:
    """A frame of independent uniformly random directions."""
    return _vectors_to_frame(_raw_random_vectors(n, rng))


def random_state(n: int, rng: np.random.Generator) -> PureState:
    """A Haar-random pure state on n qubits."""
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, amps / np.linalg.norm(amps))


def _raw_random_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.array([[_random_unit(rng), _random_unit(rng)] for _ in range(n)])


def _vectors_to_frame(vectors: np.ndarray) -> MeasurementFrame:
    return MeasurementFrame(tuple(tuple(map(UnitVector.from_array, pair)) for pair in vectors))


def _ops_from_vectors(vectors: np.ndarray) -> np.ndarray:
    return np.tensordot(vectors, _SIGMA, axes=(-1, 0))


# ---------------------------------------------------------------------------
# See-saw ascent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeesawResult:
    frame: MeasurementFrame
    value: float
    history: tuple[float, ...]


@dataclass(frozen=True)
class QuantumMaxResult:
    value: float
    frame: MeasurementFrame
    state: PureState


@dataclass(frozen=True)
class BlockProductResult:
    value: float
    frame: MeasurementFrame
    block_states: tuple[PureState, PureState]


def _settings_sweep(
    p: Polynomial,
    vectors: np.ndarray,
    ops: np.ndarray,
    rho: np.ndarray,
    history: list[float] | None,
) -> tuple[float, np.ndarray]:
    """One exact coordinate-ascent pass over all 2n settings, updating in place.

    Returns the value after the pass and the Bell matrix of the updated
    frame.  The value is tracked through the fields, g_0 . v_0 + g_1 . v_1,
    and checked once against Re Tr(rho B) of a fresh fold.
    """
    value = math.nan
    for j in range(p.n):
        g = _fields(p, ops, rho, j)
        for s in (0, 1):
            norm = float(np.linalg.norm(g[s]))
            if norm > 1e-14:
                vectors[j, s] = g[s] / norm
            # degenerate coordinate: keep the previous setting
            value = float(g[0] @ vectors[j, 0] + g[1] @ vectors[j, 1])
            if history is not None:
                history.append(value)
        ops[j] = _ops_from_vectors(vectors[j])
    matrix = _bell_matrix(p, ops)
    fresh = _trace_product(rho, matrix)
    if abs(fresh - value) > _SWEEP_DRIFT_TOL:
        raise NumericalIntegrityError(
            f"swept value {value!r} differs from the recomputed expectation {fresh!r} "
            f"by more than {_SWEEP_DRIFT_TOL}"
        )
    return value, matrix


def _ascend(
    p: Polynomial,
    vectors: np.ndarray,
    state_step: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_sweeps: int,
    history: list[float] | None = None,
) -> tuple[float, np.ndarray]:
    """Rounds of state step and sweep from `vectors`, updated in place.

    Returns the last swept value and the final frame's Bell matrix; `history`
    gets the start value Re Tr(rho_0 B_0), then 2n entries per sweep.
    """
    ops = _ops_from_vectors(vectors)
    matrix = _bell_matrix(p, ops)
    rho = state_step(matrix)
    value = _trace_product(rho, matrix)
    if history is not None:
        history.append(value)
    for sweep in range(max_sweeps):
        if sweep:
            del rho  # hold one state at a time
            rho = state_step(matrix)
        before = value
        value, matrix = _settings_sweep(p, vectors, ops, rho, history)
        if value - before < tol:
            break
    return value, matrix


def _best_restart(restarts: int, seed: int, attempt: Callable[[np.random.Generator], _R]) -> _R:
    """The best-valued of `attempt`'s results over `restarts` seeded generators."""
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    children = np.random.SeedSequence(seed).spawn(restarts)
    results = (attempt(np.random.default_rng(child)) for child in children)
    best = next(results)
    for result in results:
        if result.value > best.value + _TIE_MARGIN:
            best = result
    return best


def _check_cap(p: Polynomial, cap: int) -> None:
    if p.n > cap:
        raise ResourceLimitError(
            f"spectral computation for n={p.n} exceeds the cap n <= {cap} "
            f"(--spectral-cap)"
        )


def seesaw(
    p: Polynomial,
    state: State,
    restarts: int = DEFAULT_RESTARTS,
    *,
    seed: int,
    tol: float = DEFAULT_SEESAW_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SeesawResult:
    """Coordinate ascent over measurement directions for a fixed state.

    Each update replaces one setting's vector by its normalized effective
    field, the exact optimum for that coordinate, so the objective never
    decreases within a restart.  A restart stops when a round gains less than
    `tol` over the value before it, or after `max_sweeps` rounds.  The best
    frame over `restarts` seeded random starting frames is returned, together
    with the per-update value history of the winning restart.
    """
    if p.n != state.n:
        raise InvalidArgumentError(f"polynomial has {p.n} parties, state has {state.n}")
    rho = _density(state)

    def attempt(rng: np.random.Generator) -> SeesawResult:
        vectors = _raw_random_vectors(p.n, rng)
        history: list[float] = []
        value, _ = _ascend(p, vectors, lambda matrix: rho, tol, max_sweeps, history)
        return SeesawResult(_vectors_to_frame(vectors), value, tuple(history))

    return _best_restart(restarts, seed, attempt)


def quantum_max(
    p: Polynomial,
    restarts: int = DEFAULT_RESTARTS,
    *,
    seed: int,
    cap: int = DEFAULT_SPECTRAL_CAP,
    tol: float = DEFAULT_SEESAW_TOL,
    max_rounds: int = DEFAULT_MAX_SWEEPS,
) -> QuantumMaxResult:
    """Joint maximum over states and settings.

    Alternates a state step (top eigenvector of the current Bell operator)
    with one see-saw sweep of the settings.  A restart stops when a round
    gains less than `tol` over the value before it, or after `max_rounds`
    rounds.  A final state step makes the returned state an exact top
    eigenvector of the returned frame's operator.
    """
    _check_cap(p, cap)

    def attempt(rng: np.random.Generator) -> QuantumMaxResult:
        vectors = _raw_random_vectors(p.n, rng)
        _, matrix = _ascend(p, vectors, lambda m: _projector(_top_eigenpair(m)[1]), tol, max_rounds)
        value, psi = _top_eigenpair(matrix)
        return QuantumMaxResult(value, _vectors_to_frame(vectors), PureState(p.n, psi))

    return _best_restart(restarts, seed, attempt)


def block_product_max(
    p: Polynomial,
    block: Sequence[int],
    restarts: int = DEFAULT_RESTARTS,
    *,
    seed: int,
    cap: int = DEFAULT_SPECTRAL_CAP,
    tol: float = DEFAULT_SEESAW_TOL,
    max_rounds: int = DEFAULT_MAX_SWEEPS,
) -> BlockProductResult:
    """Maximum over states constrained to a product across one bipartition.

    `block` lists the 0-based parties of block A; block B is the complement.
    A state step takes block A's top eigenvector of the operator left by
    block B's state, then block B's given the new A, so the ascent stays
    inside the product-state family.  A restart stops when a round gains less
    than `tol` over the value before it, or after `max_rounds` rounds.
    """
    _check_cap(p, cap)
    a = tuple(sorted(block))
    if not a or any(not 0 <= j < p.n for j in a) or len(set(a)) != len(a):
        raise InvalidArgumentError(f"invalid block parties {block!r} for n={p.n}")
    b = tuple(j for j in range(p.n) if j not in a)
    if not b:
        raise InvalidArgumentError("block must be a proper subset of the parties")
    order = a + b  # block order: A's qubits, then B's
    axes = order + tuple(p.n + j for j in order)
    shape = (1 << len(a), 1 << len(b)) * 2

    def attempt(rng: np.random.Generator) -> BlockProductResult:
        vectors = _raw_random_vectors(p.n, rng)
        phi_a = random_state(len(a), rng).amplitudes
        phi_b = random_state(len(b), rng).amplitudes

        def product_step(matrix: np.ndarray) -> np.ndarray:
            nonlocal phi_a, phi_b
            m = matrix.reshape((2,) * (2 * p.n)).transpose(axes).reshape(shape)
            _, phi_a = _top_eigenpair(np.einsum("b,ibjd,d->ij", phi_b.conj(), m, phi_b))
            _, phi_b = _top_eigenpair(np.einsum("a,aicj,c->ij", phi_a.conj(), m, phi_a))
            psi = np.kron(phi_a, phi_b).reshape((2,) * p.n).transpose(np.argsort(order))
            return _projector(psi.reshape(-1))

        value, _ = _ascend(p, vectors, product_step, tol, max_rounds)
        blocks = (PureState(len(a), phi_a), PureState(len(b), phi_b))
        return BlockProductResult(value, _vectors_to_frame(vectors), blocks)

    return _best_restart(restarts, seed, attempt)


# ---------------------------------------------------------------------------
# Text interfaces
# ---------------------------------------------------------------------------


def frame_to_text(f: MeasurementFrame) -> str:
    """Header `n=<count>`, then per party two lines of three reals (plain, primed)."""
    lines = [f"n={f.n}"]
    for v, w in f.pairs:
        lines.append(f"{v.x!r} {v.y!r} {v.z!r}")
        lines.append(f"{w.x!r} {w.y!r} {w.z!r}")
    return "\n".join(lines)


def frame_from_text(text: str) -> MeasurementFrame:
    n, lines = polynomial._counted_lines(text, "frame file", "frame ")
    rows: list[tuple[list[float], int]] = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise DataFormatError(f"expected three reals, got {line!r}", line=lineno)
        try:
            rows.append(([float(x) for x in parts], lineno))
        except ValueError as exc:
            raise DataFormatError(f"bad vector component in {line!r}", line=lineno) from exc
    if len(rows) != 2 * n:
        raise DataFormatError(f"frame for n={n} needs {2 * n} vector lines, got {len(rows)}")
    vectors = []
    for vec, lineno in rows:
        try:
            vectors.append(UnitVector(*vec))
        except InvalidArgumentError as exc:
            raise DataFormatError(str(exc), line=lineno) from exc
    return MeasurementFrame(tuple(zip(vectors[::2], vectors[1::2])))


def parse_state(spec: str) -> PureState:
    """State specifications: `ghz:n`, `basis:n:index`, or `file:<path>`.

    A state file lists the 2**n amplitudes, one `re im` pair per line, in
    basis order.
    """
    parts = spec.split(":", 1)
    if parts[0] == "ghz":
        try:
            return ghz(int(parts[1]))
        except (IndexError, ValueError) as exc:
            raise DataFormatError(f"bad state spec {spec!r} (want ghz:n)") from exc
    if parts[0] == "basis":
        try:
            _, n_text, idx_text = spec.split(":")
            return basis_state(int(n_text), int(idx_text))
        except (ValueError, InvalidArgumentError) as exc:
            raise DataFormatError(f"bad state spec {spec!r} (want basis:n:index)") from exc
    if parts[0] == "file":
        if len(parts) != 2 or not parts[1]:
            raise DataFormatError(f"bad state spec {spec!r} (want file:<path>)")
        return _state_from_text(polynomial._read_file(parts[1], "state file"))
    raise DataFormatError(f"unknown state spec {spec!r} (want ghz:, basis:, or file:)")


def _state_from_text(text: str) -> PureState:
    amps = []
    for lineno, line in polynomial._numbered_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError(f"expected `re im`, got {line!r}", line=lineno)
        try:
            amps.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise DataFormatError(f"bad amplitude in {line!r}", line=lineno) from exc
    count = len(amps)
    if count < 2 or count & (count - 1):
        raise DataFormatError(f"state file must list a power-of-two amplitude count, got {count}")
    try:
        return PureState(count.bit_length() - 1, np.array(amps))
    except InvalidArgumentError as exc:
        raise DataFormatError(str(exc)) from exc
