"""Quantum-side evaluation: Bell operators, GHZ states, spectra, see-saw ascent.

Measurements are spin observables v . sigma along unit Bloch vectors, so every
party's two settings are a pair of unit vectors.  Substituting observables for
the outcome symbols of a correlation polynomial yields a Hermitian Bell
operator on n qubits; its expectation values and top eigenvalue give the
quantum side of every bound in this package.

Bell matrices come from one fold: the polynomial's coefficient tensor (one
axis per party, indexed by that party's setting) is contracted one party at a
time with the party's stacked pair of observables, and no intermediate is
larger than the Bell matrix itself.  Each step's einsum writes the new party's
axes outermost, which gives its inner loop the longest axis, and a transpose
then puts them in place: the layout decides where each sum is stored, not the
order of its terms, so each entry is bit for bit what an einsum writing in
place gives.  Effective fields need no operator.  Every term holds exactly one
setting of each party, so an expectation depends on the state only through its
full correlation tensor
T[a_1..a_n] = Tr(rho sigma_a_1 (x) ... (x) sigma_a_n), 3**n reals (Werner and
Wolf, PRA 64, 032112, 2001).  A sweep builds T once from its state, and a
party's two fields contract T with the other parties' Bloch vectors and then
with the coefficients.

`bell_operator`, `effective_bloch` and the three searches, which build 4**n
Bell or density matrices, take `cap` (default DEFAULT_SPECTRAL_CAP = 10) and
raise ResourceLimitError for a polynomial of more than `cap` parties before
they build anything.

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

Every top eigenpair (the state steps of `quantum_max` and `block_product_max`,
the final `quantum_max` pair, `max_eigenvalue`) comes from one solver: dense
`eigh` below dimension 128, Lanczos with full re-orthogonalisation from there
on (n >= 7).  Lanczos starts from a fixed generic vector that depends only on
the dimension, never from a previous state, so the same matrix gives the same
bytes at every call site; it stops when the top Ritz pair's residual estimate
is at most 1e-13 max(1, |theta|) or the Krylov space is exhausted.  On both
paths the first entry within 1e-9 of the largest modulus is made real and
positive, so entries that tie up to rounding leave the phase alone, and a
residual ||B psi - lambda psi|| above 1e-9 raises NumericalIntegrityError.
Where the top eigenspace is degenerate, as at MK optima, Lanczos may return
another vector of it than dense `eigh` would: values agree, but witness
states at n >= 7 are one vector of that eigenspace, not a canonical one.
"""

from __future__ import annotations

import functools
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
from .polynomial import Polynomial, _coefficient_tensor

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
_IMAG_ERROR = 1e-8
_SWEEP_DRIFT_TOL = 1e-9
_TIE_MARGIN = 1e-12
_EIGEN_RESIDUAL_TOL = 1e-9
_RITZ_TOL = 1e-13
_LANCZOS_ROWS = 32  # initial basis rows; MK and Svetlichny at n = 7..9 take 20 to 36 steps
_DENSE_BELOW = 128  # measured crossover: eigh wins at dimension 64, Lanczos at 128
_DENSE_NORM_BELOW = 256  # measured: eigvalsh wins at dimension 128, two Lanczos runs at 256
_PIVOT_TIE = 1e-9

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
# _PAULI_PAIRS[a, 2 r + c] = sigma_a[c, r], so rho's (row, column) pair r c of one
# qubit contracts to Tr(rho_qubit sigma_a)
_PAULI_PAIRS = _SIGMA.transpose(0, 2, 1).reshape(3, 4)


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
        if not abs(norm - 1.0) <= _UNIT_TOL:
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
        polynomial._check_party_count(self.n)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (1 << self.n,):
            raise InvalidArgumentError(
                f"state for n={self.n} needs {1 << self.n} amplitudes, got {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _UNIT_TOL:
            raise InvalidArgumentError(f"state norm is {norm!r}, not 1 within {_UNIT_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit density matrix: Hermitian, unit trace, positive semidefinite."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        polynomial._check_party_count(self.n)
        rho = np.array(self.entries, dtype=complex)
        dim = 1 << self.n
        if rho.shape != (dim, dim):
            raise InvalidArgumentError(
                f"density matrix for n={self.n} must be {dim}x{dim}, got {rho.shape}"
            )
        if not np.max(np.abs(rho - rho.conj().T)) <= _HERMITIAN_TOL:
            raise InvalidArgumentError("density matrix is not Hermitian within 1e-10")
        if not abs(np.trace(rho) - 1.0) <= _HERMITIAN_TOL:
            raise InvalidArgumentError("density matrix trace is not 1 within 1e-10")
        if not float(np.linalg.eigvalsh(rho)[0]) >= -_HERMITIAN_TOL:
            raise InvalidArgumentError("density matrix has an eigenvalue below -1e-10")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)


State = Union[PureState, DensityMatrix]
_R = TypeVar("_R", "SeesawResult", "QuantumMaxResult", "BlockProductResult")


@dataclass(frozen=True)
class BellOperator:
    """The Hermitian matrix of a polynomial under a measurement frame.

    Construction checks Hermiticity and that the operator norm is at most the
    polynomial's algebraic limit: by `eigvalsh` below dimension 256, and from
    there as the larger top eigenvalue of B and of -B.
    """

    n: int
    entries: np.ndarray
    source: tuple[Polynomial, MeasurementFrame]

    def __post_init__(self) -> None:
        polynomial._check_party_count(self.n)
        mat = np.array(self.entries, dtype=complex)
        dim = 1 << self.n
        if mat.shape != (dim, dim):
            raise InvalidArgumentError(f"operator must be {dim}x{dim}, got {mat.shape}")
        if not np.max(np.abs(mat - mat.conj().T)) <= _HERMITIAN_TOL:
            raise NumericalIntegrityError("Bell operator is not Hermitian within 1e-10")
        limit = float(polynomial.algebraic_limit(self.source[0]))
        if dim < _DENSE_NORM_BELOW:
            eigs = np.linalg.eigvalsh(mat)
            norm = float(max(abs(eigs[0]), abs(eigs[-1])))
        else:  # Ritz values bound the extreme eigenvalues from inside
            norm = max(_top_eigenpair(mat)[0], _top_eigenpair(-mat)[0])
        if not norm <= limit + 1e-9:
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


def _frame_vectors(f: MeasurementFrame) -> np.ndarray:
    """Shape (n, 2, 3): per party, the (plain, primed) Bloch vectors."""
    return np.array([[v.as_array(), w.as_array()] for v, w in f.pairs])


def _bell_matrix(w: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The polynomial's operator: every party folded in, party 0 the most significant qubit.

    The coefficient tensor `w` (axis j = party j's setting) is contracted one
    party at a time with that party's stacked observables.  Folding k parties
    holds 2**(n + k) entries, so no intermediate exceeds the 4**n of the Bell
    matrix itself.

    A step maps t[s, r, a, c] (r the unfolded parties' settings, a and c the
    folded parties' row and column) and the observables o[s, b, d] to
    sum_s t[s, r, a, c] o[s, b, d] at (r, a, b, c, d).  Written in that order,
    einsum's inner loop would run over d, two entries long; einsum writes it
    as (b, d, r, a, c), with c innermost, and the transpose copies it into
    place.  einsum adds the two products in the order of s whatever the
    output layout, so the entries are bit for bit those of the direct order.
    A BLAS product, another party order or a broadcast multiply-add is faster
    still but rounds differently and moves entries by about 1e-16.
    """
    t = w.reshape(-1, 1, 1)
    for j in range(w.ndim):
        dim = t.shape[-1]
        t = t.reshape(2, -1, dim, dim)
        t = np.einsum("srac,sbd->bdrac", t, ops[j]).transpose(2, 3, 0, 4, 1)
        t = t.reshape(-1, 2 * dim, 2 * dim)
    return t.reshape(t.shape[-2:])


def bell_operator(
    p: Polynomial, f: MeasurementFrame, *, cap: int = DEFAULT_SPECTRAL_CAP
) -> BellOperator:
    """Substitute each setting symbol with its observable and sum the products."""
    _check_cap(p, cap)
    polynomial._check_same_count("polynomial", p.n, "frame", f.n)
    matrix = _bell_matrix(_coefficient_tensor(p), _ops_from_vectors(_frame_vectors(f)))
    return BellOperator(n=p.n, entries=matrix, source=(p, f))


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits."""
    polynomial._check_party_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amps)


def basis_state(n: int, index: int) -> PureState:
    polynomial._check_party_count(n)
    if not isinstance(index, int) or isinstance(index, bool):
        raise InvalidArgumentError(f"basis index must be an integer, got {index!r}")
    if not 0 <= index < (1 << n):
        raise InvalidArgumentError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


def _projector(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _density(state: State) -> np.ndarray:
    return _projector(state.amplitudes) if isinstance(state, PureState) else state.entries


def _trace_product(rho: np.ndarray, matrix: np.ndarray) -> float:
    """Re Tr(rho B), after checking the imaginary residue."""
    value = complex(np.einsum("ij,ji->", rho, matrix))
    if abs(value.imag) > _IMAG_ERROR:
        raise NumericalIntegrityError(
            f"expectation value has imaginary residue {value.imag}, above {_IMAG_ERROR}"
        )
    return float(value.real)


def expectation(op: BellOperator, state: State) -> float:
    """Tr(rho O); a pure state enters as rho = |psi><psi|."""
    polynomial._check_same_count("state", state.n, "operator", op.n)
    return _trace_product(_density(state), op.entries)


@functools.cache
def _lanczos_start(dim: int) -> np.ndarray:
    """The fixed, generic unit start vector for dimension `dim`."""
    rng = np.random.default_rng(dim)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z /= np.linalg.norm(z)
    z.flags.writeable = False
    return z


def _lanczos_top(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Top Ritz pair of a Hermitian matrix by Lanczos with full re-orthogonalisation.

    Grows the Krylov basis of `_lanczos_start` one vector per step and stops
    when the Ritz residual estimate beta_k |y_k| of the top Ritz pair is at
    most 1e-13 max(1, |theta|), or when the Krylov space is exhausted.  The
    k x k tridiagonal eigenproblem costs more than a step from k = 16 on, so
    from there the estimate is taken every fourth step, and whenever beta_k
    alone meets the bound.  The basis, its conjugate and the tridiagonal
    matrix live in preallocated rows that double when full; every product
    reads the first k rows, the operands a stacked basis would give.
    """
    dim = matrix.shape[0]
    q = _lanczos_start(dim)
    rows = min(dim, _LANCZOS_ROWS)
    basis, conj = np.empty((rows, dim), dtype=complex), np.empty((rows, dim), dtype=complex)
    tri = np.zeros((rows, rows))
    k = 0
    while True:
        basis[k], conj[k] = q, q.conj()
        v = matrix @ q
        tri[k, k] = np.vdot(q, v).real
        k += 1
        for _ in range(2):  # Gram-Schmidt against the whole basis, twice
            v -= basis[:k].T @ (conj[:k] @ v)
        beta = float(np.linalg.norm(v))
        if k < 16 or k % 4 == 0 or k == dim or beta <= _RITZ_TOL:
            thetas, ys = np.linalg.eigh(tri[:k, :k])
            theta, y = float(thetas[-1]), ys[:, -1]
            if k == dim or beta * abs(y[-1]) <= _RITZ_TOL * max(1.0, abs(theta)):
                return theta, y @ basis[:k]
        if k == rows:  # full: double the rows, keeping every entry written so far
            rows = min(dim, 2 * rows)
            basis = np.concatenate([basis, np.empty((rows - k, dim), dtype=complex)])
            conj = np.concatenate([conj, np.empty((rows - k, dim), dtype=complex)])
            tri = np.pad(tri, (0, rows - k))
        tri[k - 1, k] = tri[k, k - 1] = beta
        q = v / beta


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """`vec` rotated so that its pivot entry is real and positive.

    The pivot is the first entry whose modulus is within 1e-9 of the largest,
    so entries that tie up to rounding cannot move it.
    """
    mods = np.abs(vec)
    pivot = vec[int(np.argmax(mods >= mods.max() - _PIVOT_TIE))]
    return vec * (pivot / abs(pivot)).conjugate()


def _top_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """The top eigenvalue and its eigenvector, phase fixed by `_fix_phase`.

    Dense `eigh` below dimension `_DENSE_BELOW`, Lanczos from there on.  The
    pair is checked on both paths: ||B psi - lambda psi|| above 1e-9 raises
    NumericalIntegrityError.
    """
    if matrix.shape[0] < _DENSE_BELOW:
        eigenvalues, vectors = np.linalg.eigh(matrix)
        value, vec = float(eigenvalues[-1]), vectors[:, -1]
    else:
        value, vec = _lanczos_top(matrix)
    vec = _fix_phase(vec)
    residual = float(np.linalg.norm(matrix @ vec - value * vec))
    if not residual <= _EIGEN_RESIDUAL_TOL:
        raise NumericalIntegrityError(
            f"eigenpair residual {residual} exceeds {_EIGEN_RESIDUAL_TOL} (dim {vec.size})"
        )
    return value, vec


def max_eigenvalue(op: BellOperator) -> tuple[float, PureState]:
    """Largest eigenvalue and a normalized eigenvector (phase-canonicalized)."""
    try:
        value, vec = _top_eigenpair(op.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalIntegrityError(f"eigensolver failed: {exc}") from exc
    return value, PureState(op.n, vec)


# ---------------------------------------------------------------------------
# Effective fields
# ---------------------------------------------------------------------------


def _correlations(rho: np.ndarray) -> np.ndarray:
    """The full correlation tensor T[a_1..a_n] = Tr(rho sigma_a_1 (x) ... (x) sigma_a_n).

    Shape (3,) * n, real.  The row and column bit of each qubit are
    interleaved, and each such pair is contracted with the Paulis, one qubit at
    a time.  An imaginary residue above 1e-8 in any entry raises
    NumericalIntegrityError: rho was not Hermitian.
    """
    n = rho.shape[0].bit_length() - 1
    pairs = [axis for k in range(n) for axis in (k, n + k)]
    t = rho.reshape((2,) * (2 * n)).transpose(pairs).reshape(-1)
    for _ in range(n):  # the leading qubit's pair becomes its trailing Pauli axis
        t = t.reshape(4, -1).T @ _PAULI_PAIRS.T
    residue = float(np.max(np.abs(t.imag)))
    if residue > _IMAG_ERROR:
        raise NumericalIntegrityError(
            f"correlation tensor has imaginary residue {residue}, above {_IMAG_ERROR}"
        )
    return np.ascontiguousarray(t.real).reshape((3,) * n)


def _fields(w: np.ndarray, vectors: np.ndarray, t: np.ndarray, party: int) -> np.ndarray:
    """Effective Bloch vectors of both settings of `party`, shape (2, 3).

    Every term holds exactly one setting of each party, so the expectation is
    g_0 . v_0 + g_1 . v_1, and neither field depends on either of the party's
    own settings.  In terms of the correlation tensor T of the state,
    g_s[a] = sum over the others' settings s' and Pauli indices a' of
    w[s, s'] T[a, a'] prod_k v_k[s'_k, a'_k]: T is contracted with every other
    party's Bloch vectors, then with the coefficients.  One call costs O(3**n),
    against the 4**n entries of the state.
    """
    # the others' Pauli axes in ascending order, then the party's; each
    # contraction moves the leading axis to the back as that party's setting
    others = [k for k in range(w.ndim) if k != party]
    m = t.transpose(*others, party).reshape(-1)
    for k in others:
        m = m.reshape(3, -1).T @ vectors[k].T
    return w.transpose(party, *others).reshape(2, -1) @ m.reshape(3, -1).T


def effective_bloch(
    p: Polynomial,
    f: MeasurementFrame,
    state: State,
    party: int,
    primed: bool,
    *,
    cap: int = DEFAULT_SPECTRAL_CAP,
) -> np.ndarray:
    """Gradient of the expectation with respect to one setting's Bloch vector."""
    _check_cap(p, cap)
    polynomial._check_same_count("polynomial", p.n, "frame", f.n)
    polynomial._check_same_count("state", state.n, "polynomial", p.n)
    polynomial._check_party_index(party, p.n)
    t = _correlations(_density(state))
    fields = _fields(_coefficient_tensor(p), _frame_vectors(f), t, party)
    return fields[1 if primed else 0]


# ---------------------------------------------------------------------------
# Randomized starting points
# ---------------------------------------------------------------------------


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(float(v.dot(v)))  # np.linalg.norm's bytes
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
    """Each Bloch vector's observable, by the one product np.tensordot forms (same bytes)."""
    ops = np.dot(vectors.reshape(-1, 3), _SIGMA.reshape(3, 4))
    return ops.reshape(*vectors.shape[:-1], 2, 2)


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
    w: np.ndarray,
    vectors: np.ndarray,
    rho: np.ndarray,
    history: list[float],
) -> tuple[float, np.ndarray]:
    """One exact coordinate-ascent pass over all 2n settings, updating in place.

    Appends the value after each update to `history`; returns the value
    after the pass and the Bell matrix of the updated frame.  The fields come
    from rho's correlation tensor, built once; the value is tracked through
    them, g_0 . v_0 + g_1 . v_1, and checked once against Re Tr(rho B) of a
    fresh fold, which shares no step with them.
    """
    t = _correlations(rho)
    value = math.nan
    for j in range(w.ndim):
        g = _fields(w, vectors, t, j)
        for s, field in enumerate(g):
            norm = math.sqrt(float(field.dot(field)))  # np.linalg.norm's bytes
            if norm > 1e-14:
                vectors[j, s] = field / norm
            # degenerate coordinate: keep the previous setting
            value = float(g[0] @ vectors[j, 0] + g[1] @ vectors[j, 1])
            history.append(value)
    matrix = _bell_matrix(w, _ops_from_vectors(vectors))
    fresh = _trace_product(rho, matrix)
    if abs(fresh - value) > _SWEEP_DRIFT_TOL:
        raise NumericalIntegrityError(
            f"swept value {value!r} differs from the recomputed expectation {fresh!r} "
            f"by more than {_SWEEP_DRIFT_TOL}"
        )
    return value, matrix


def _ascend(
    w: np.ndarray,
    vectors: np.ndarray,
    state_step: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_sweeps: int,
) -> tuple[list[float], np.ndarray]:
    """Rounds of state step and sweep from `vectors`, updated in place.

    Returns the value history (the start value Re Tr(rho_0 B_0), then 2n
    entries per sweep, the last one the value reached) and the final Bell matrix.
    """
    polynomial._check_integer("max_sweeps", max_sweeps, 1)
    polynomial._check_tolerance(tol)
    matrix = _bell_matrix(w, _ops_from_vectors(vectors))
    rho = state_step(matrix)
    history = [_trace_product(rho, matrix)]
    for sweep in range(max_sweeps):
        if sweep:
            del rho  # hold one state and one operator at a time
            rho = state_step(matrix)
        del matrix
        before = history[-1]
        value, matrix = _settings_sweep(w, vectors, rho, history)
        if value - before < tol:
            break
    return history, matrix


def _best_restart(restarts: int, seed: int, attempt: Callable[[np.random.Generator], _R]) -> _R:
    """The best-valued of `attempt`'s results over `restarts` seeded generators."""
    polynomial._check_integer("restarts", restarts, 1)
    polynomial._check_integer("seed", seed, 0)
    children = np.random.SeedSequence(seed).spawn(restarts)
    results = (attempt(np.random.default_rng(child)) for child in children)
    best = next(results)
    for result in results:
        if result.value > best.value + _TIE_MARGIN:
            best = result
    return best


def _check_cap(p: Polynomial, cap: int) -> None:
    polynomial._check_integer("cap", cap, 1)
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
    cap: int = DEFAULT_SPECTRAL_CAP,
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
    _check_cap(p, cap)
    polynomial._check_same_count("state", state.n, "polynomial", p.n)
    rho, w = _density(state), _coefficient_tensor(p)

    def attempt(rng: np.random.Generator) -> SeesawResult:
        vectors = _raw_random_vectors(p.n, rng)
        history, _ = _ascend(w, vectors, lambda matrix: rho, tol, max_sweeps)
        return SeesawResult(_vectors_to_frame(vectors), history[-1], tuple(history))

    return _best_restart(restarts, seed, attempt)


def quantum_max(
    p: Polynomial,
    restarts: int = DEFAULT_RESTARTS,
    *,
    seed: int,
    cap: int = DEFAULT_SPECTRAL_CAP,
    tol: float = DEFAULT_SEESAW_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> QuantumMaxResult:
    """Joint maximum over states and settings.

    Alternates a state step (top eigenvector of the current Bell operator)
    with one see-saw sweep of the settings.  A restart stops when a round
    gains less than `tol` over the value before it, or after `max_sweeps`
    rounds.  A final state step makes the returned state a top eigenvector of
    the returned frame's operator, with residual ||B psi - value psi|| at most
    1e-9.  From n = 7 on, every state step is Lanczos from a fixed start vector
    (see the module docstring): results are byte-reproducible, and where the
    top eigenspace is degenerate the witness state may be another vector of it
    than dense `eigh` would give, at the same value.
    """
    _check_cap(p, cap)
    w = _coefficient_tensor(p)

    def attempt(rng: np.random.Generator) -> QuantumMaxResult:
        vectors = _raw_random_vectors(p.n, rng)
        _, matrix = _ascend(w, vectors, lambda m: _projector(_top_eigenpair(m)[1]), tol, max_sweeps)
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
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> BlockProductResult:
    """Maximum over states constrained to a product across one bipartition.

    `block` lists the 0-based parties of block A; block B is the complement.
    A state step takes block A's top eigenvector of the operator left by
    block B's state, then block B's given the new A, so the ascent stays
    inside the product-state family.  A restart stops when a round gains less
    than `tol` over the value before it, or after `max_sweeps` rounds.
    """
    _check_cap(p, cap)
    try:
        a = tuple(sorted(block))
    except TypeError:  # not iterable, or entries that do not compare
        a = ()
    if not a or not all(polynomial._is_party_index(j, p.n) for j in a) or len(set(a)) != len(a):
        raise InvalidArgumentError(f"invalid block parties {block!r} for n={p.n}")
    b = tuple(j for j in range(p.n) if j not in a)
    if not b:
        raise InvalidArgumentError("block must be a proper subset of the parties")
    order = a + b  # block order: A's qubits, then B's
    axes = order + tuple(p.n + j for j in order)
    shape = (1 << len(a), 1 << len(b)) * 2
    w = _coefficient_tensor(p)

    def attempt(rng: np.random.Generator) -> BlockProductResult:
        vectors = _raw_random_vectors(p.n, rng)
        phi_a = random_state(len(a), rng).amplitudes
        phi_b = random_state(len(b), rng).amplitudes

        def product_step(matrix: np.ndarray) -> np.ndarray:
            nonlocal phi_a, phi_b
            m = matrix.reshape((2,) * (2 * p.n)).transpose(axes).reshape(shape)
            _, phi_a = _top_eigenpair(np.einsum("b,ibjd,d->ij", phi_b.conj(), m, phi_b))
            _, phi_b = _top_eigenpair(np.einsum("a,aicj,c->ij", phi_a.conj(), m, phi_a))
            psi = np.outer(phi_a, phi_b).reshape((2,) * p.n).transpose(np.argsort(order))
            return _projector(psi.reshape(-1))

        history, _ = _ascend(w, vectors, product_step, tol, max_sweeps)
        blocks = (PureState(len(a), phi_a), PureState(len(b), phi_b))
        return BlockProductResult(history[-1], _vectors_to_frame(vectors), blocks)

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


def parse_state(spec: str, n: int) -> PureState:
    """The n-qubit state a spec names: `ghz:k`, `basis:k:index`, or `file:<path>`.

    A state file lists the 2**k amplitudes, one `re im` pair per line, in
    basis order.  A spec for k != n qubits raises InvalidArgumentError: a
    `ghz:` or `basis:` one before any amplitude is built, a `file:` one once
    the file has been read.
    """
    kind, _, rest = spec.partition(":")
    if kind in ("ghz", "basis"):
        want = "ghz:n" if kind == "ghz" else "basis:n:index"
        bad = f"bad state spec {spec!r} (want {want})"
        try:
            args = [int(field) for field in rest.split(":")]
        except ValueError as exc:
            raise DataFormatError(bad) from exc
        if len(args) != (1 if kind == "ghz" else 2) or args[0] < 1:
            raise DataFormatError(bad)
        polynomial._check_same_count("state", args[0], "polynomial", n)
        try:
            return ghz(*args) if kind == "ghz" else basis_state(*args)
        except InvalidArgumentError as exc:
            raise DataFormatError(bad) from exc
    if kind == "file":
        if not rest:
            raise DataFormatError(f"bad state spec {spec!r} (want file:<path>)")
        state = _state_from_text(polynomial.read_text_file(rest, "state file"))
        polynomial._check_same_count("state", state.n, "polynomial", n)
        return state
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
