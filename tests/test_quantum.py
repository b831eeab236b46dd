"""Bell operators, spectra, and see-saw ascent."""

from __future__ import annotations

import itertools
import math
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly import quantum as Q
from bellpoly.errors import (
    DataFormatError,
    InvalidArgumentError,
    NumericalIntegrityError,
    ResourceLimitError,
)
from bellpoly.polynomial import DyadicCoefficient, Polynomial, Term
from bellpoly.quantum import DensityMatrix, MeasurementFrame, PureState, UnitVector

from conftest import SQRT2, chsh_frame, mermin3_frame, svetlichny3_frame

CAP_MESSAGE = "spectral computation for n=4 exceeds the cap n <= 3 (--spectral-cap)"


def random_dyadic_polynomial(n: int, rng: np.random.Generator) -> Polynomial:
    masks = rng.choice(1 << n, size=int(rng.integers(1, 1 << n)), replace=False)
    return Polynomial(
        n,
        {
            Term(n, int(m)): DyadicCoefficient(int(rng.integers(-7, 8)) or 1, 3)
            for m in masks
        },
    )


def dense_sum(p: Polynomial, frame: MeasurementFrame, replace=None) -> np.ndarray:
    """The per-term Kronecker sum, straight from the definition.

    With `replace=(party, setting, op)`, only terms using that setting are
    kept, with `op` in place of that party's observable.
    """
    ops = [[Q.observable(v), Q.observable(w)] for v, w in frame.pairs]
    total = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    for term, coef in p.terms.items():
        factors = [ops[j][1 if term.primed(j) else 0] for j in range(p.n)]
        if replace is not None:
            party, setting, op = replace
            if term.primed(party) != setting:
                continue
            factors[party] = op
        total += float(coef) * reduce(np.kron, factors)
    return total


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    weights = rng.dirichlet(np.ones(3))
    kets = [Q.random_state(n, rng).amplitudes for _ in weights]
    return DensityMatrix(n, sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets)))


def fold_fields(w: np.ndarray, ops: np.ndarray, rho: np.ndarray, party: int) -> np.ndarray:
    """Both fields of `party` from the fold over every other party, shape (2, 3).

    The formula the correlation-tensor path replaced: with F_s the other
    parties' operator at the party's setting s, g_s[a] = Tr(rho (sigma_a (x) F_s)),
    sigma_a acting on `party`.
    """
    n = w.ndim
    t = np.moveaxis(w, party, 0).reshape(2, -1, 1, 1)
    for j in (j for j in range(n) if j != party):
        dim = t.shape[-1]
        t = t.reshape(2, 2, -1, dim, dim)
        t = np.einsum("lsrac,sbd->lrabcd", t, ops[j]).reshape(2, -1, 2 * dim, 2 * dim)
    high, low = 1 << party, 1 << (n - 1 - party)
    # rho[(a x b), (c y d)] -> [(x y), (c d a b)], x and y the row and column of `party`
    r = rho.reshape(high, 2, low, high, 2, low).transpose(1, 4, 3, 5, 0, 2).reshape(4, -1)
    k = (r @ t.reshape(2, -1).T).reshape(2, 2, 2)
    return np.einsum("xys,ayx->sa", k, Q._SIGMA).real


class TestObservable:
    def test_sigma_z(self):
        obs = Q.observable(UnitVector(0.0, 0.0, 1.0))
        assert np.allclose(obs, np.diag([1.0, -1.0]))

    def test_sigma_x(self):
        obs = Q.observable(UnitVector(1.0, 0.0, 0.0))
        assert np.allclose(obs, np.array([[0, 1], [1, 0]]))

    def test_squares_to_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            obs = Q.observable(UnitVector(*v))
            assert np.max(np.abs(obs @ obs - np.eye(2))) < 1e-12
            assert abs(np.trace(obs)) < 1e-12

    def test_non_unit_rejected(self):
        for x, y in ((1.0, 1.0), (math.nan, 0.0), (math.inf, 0.0)):
            with pytest.raises(InvalidArgumentError):
                UnitVector(x, y, 0.0)


class TestBellOperator:
    def test_single_party_is_the_observable(self):
        v = UnitVector(0.0, 0.0, 1.0)
        frame = MeasurementFrame(((v, UnitVector(1.0, 0.0, 0.0)),))
        op = Q.bell_operator(P.mk(1), frame)
        assert np.allclose(op.entries, Q.observable(v))

    def test_chsh_matrix_against_hand_built(self):
        # independent construction straight from the definition
        op = Q.bell_operator(P.mk(2), chsh_frame())
        sz = np.diag([1.0, -1.0]).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        s = math.sqrt(0.5)
        b = s * (sz + sx)
        bp = s * (sz - sx)
        expected = 0.5 * (
            np.kron(sz, b) + np.kron(sx, b) + np.kron(sz, bp) - np.kron(sx, bp)
        )
        assert np.max(np.abs(op.entries - expected)) < 1e-14

    def test_chsh_top_eigenvalue_is_sqrt2(self):
        value, _ = Q.max_eigenvalue(Q.bell_operator(P.mk(2), chsh_frame()))
        assert value == pytest.approx(SQRT2, abs=1e-12)

    def test_empty_polynomial_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        frame = Q.random_frame(2, rng)
        op = Q.bell_operator(Polynomial(2, {}), frame)
        assert np.all(op.entries == 0)
        value, _ = Q.max_eigenvalue(op)
        assert value == 0.0

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Q.bell_operator(P.mk(3), chsh_frame())

    def test_spectral_cap(self):
        frame = Q.random_frame(4, np.random.default_rng(0))
        with pytest.raises(ResourceLimitError) as err:
            Q.bell_operator(P.mk(4), frame, cap=3)
        assert str(err.value) == CAP_MESSAGE
        assert Q.bell_operator(P.mk(4), frame, cap=4).n == 4

    def test_nan_entries_rejected(self):
        frame = Q.random_frame(1, np.random.default_rng(0))
        with pytest.raises(NumericalIntegrityError, match="not Hermitian"):
            Q.BellOperator(1, np.array([[math.nan, 0.0], [0.0, 1.0]]), (P.mk(1), frame))

    def test_hermitian_and_norm_bounded(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            poly = P.mk(n)
            limit = float(P.algebraic_limit(poly))
            for _ in range(10):
                op = Q.bell_operator(poly, Q.random_frame(n, rng))
                assert np.max(np.abs(op.entries - op.entries.conj().T)) < 1e-10
                top = float(np.max(np.abs(np.linalg.eigvalsh(op.entries))))
                assert top <= limit + 1e-9


class TestStates:
    def test_ghz_amplitudes(self):
        state = Q.ghz(3)
        assert state.amplitudes[0] == pytest.approx(1 / SQRT2)
        assert state.amplitudes[7] == pytest.approx(1 / SQRT2)
        assert np.count_nonzero(state.amplitudes) == 2

    def test_ghz_two(self):
        assert np.allclose(Q.ghz(2).amplitudes, [1 / SQRT2, 0, 0, 1 / SQRT2])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ghz_normalized(self, n):
        assert np.linalg.norm(Q.ghz(n).amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_ghz_invalid(self):
        with pytest.raises(InvalidArgumentError):
            Q.ghz(0)

    def test_basis_state(self):
        state = Q.basis_state(2, 1)
        assert state.amplitudes[1] == 1.0

    def test_pure_state_norm_enforced(self):
        for first in (1.0, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                PureState(1, np.array([first, 1.0]))

    def test_density_matrix_validation(self):
        rho = np.eye(2) / 2
        DensityMatrix(1, rho)
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.eye(2))  # trace 2
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.array([[1.0, 1.0], [-1.0, 0.0]]))  # not hermitian
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.array([[0.5, math.nan], [math.nan, 0.5]]))


Z = UnitVector(0.0, 0.0, 1.0)
BAD = InvalidArgumentError
PARTY_COUNT = "party count must be an integer >= 1, got {!r}"


# each search on mk(3), one restart from seed 1 unless `settings` says otherwise
SEARCHES = {
    "quantum_max": lambda settings: Q.quantum_max(P.mk(3), **{"restarts": 1, "seed": 1, **settings}),
    "seesaw": lambda settings: Q.seesaw(P.mk(3), Q.ghz(3), **{"restarts": 1, "seed": 1, **settings}),
    "block_product_max": lambda settings: Q.block_product_max(
        P.mk(3), (0,), **{"restarts": 1, "seed": 1, **settings}
    ),
}


class TestBadInput:
    """Every check that public quantum input reaches: error class and message."""

    @pytest.mark.parametrize(
        ("make", "error", "message"),
        [
            *(
                pytest.param(make, BAD, PARTY_COUNT.format(n), id=name)
                for name, make, n in (
                    ("density-negative", lambda: DensityMatrix(-1, [[1]]), -1),
                    ("density-float", lambda: DensityMatrix(2.0, np.eye(4) / 4), 2.0),
                    ("density-zero", lambda: DensityMatrix(0, [[1]]), 0),
                    ("pure-bool", lambda: PureState(True, [1, 0]), True),
                    ("pure-zero", lambda: PureState(0, [1]), 0),
                    ("ghz-bool", lambda: Q.ghz(True), True),
                    ("ghz-zero", lambda: Q.ghz(0), 0),
                    ("basis-bool", lambda: Q.basis_state(True, 0), True),
                    (
                        "operator-bool",
                        lambda: Q.BellOperator(True, np.eye(2), (P.mk(1), MeasurementFrame(((Z, Z),)))),
                        True,
                    ),
                )
            ),
            (lambda: UnitVector.normalized(0.0, 0.0, 0.0), BAD, "cannot normalize a (near-)zero vector"),
            (lambda: MeasurementFrame(()), BAD, "a frame needs at least one party"),
            (lambda: MeasurementFrame(((Z,),)), BAD, "each party needs a (plain, primed) vector pair"),
            (lambda: PureState(2, [1, 0]), BAD, "state for n=2 needs 4 amplitudes, got (2,)"),
            (
                lambda: DensityMatrix(2, np.eye(2) / 2),
                BAD,
                "density matrix for n=2 must be 4x4, got (2, 2)",
            ),
            (
                lambda: Q.BellOperator(1, np.eye(4), (P.mk(1), MeasurementFrame(((Z, Z),)))),
                BAD,
                "operator must be 2x2, got (4, 4)",
            ),
            (lambda: Q.basis_state(2, 4), BAD, "basis index 4 out of range for n=2"),
            *(
                pytest.param(
                    lambda index=index: Q.basis_state(2, index),
                    BAD,
                    f"basis index must be an integer, got {index!r}",
                    id=f"basis-index-{index!r}",
                )
                for index in (True, 1.0, "1", None)
            ),
            (
                lambda: Q.effective_bloch(P.mk(3), chsh_frame(), Q.ghz(3), 0, False),
                BAD,
                "polynomial has 3 parties, frame has 2",
            ),
            (
                lambda: Q.effective_bloch(P.mk(2), chsh_frame(), Q.ghz(2), 2, False),
                BAD,
                "party index 2 out of range for n=2",
            ),
            *(
                pytest.param(
                    lambda party=party: Q.effective_bloch(P.mk(2), chsh_frame(), Q.ghz(2), party, False),
                    BAD,
                    f"party index {party!r} out of range for n=2",
                    id=f"party-{party!r}",
                )
                for party in (True, 1.0)
            ),
            *(
                pytest.param(
                    lambda block=block: Q.block_product_max(P.mk(3), block, restarts=1, seed=0),
                    BAD,
                    f"invalid block parties {block!r} for n=3",
                    id=f"block-{block!r}",
                )
                for block in ((0, 3), (-1,), (0, 0), (), [0, 0.5], [True], 5)
            ),
            *(
                pytest.param(
                    lambda search=search, settings=settings: search(settings),
                    BAD,
                    message,
                    id=f"{name}-{settings}",
                )
                for name, search in SEARCHES.items()
                for settings, message in (
                    ({"restarts": 0}, "restarts must be an integer >= 1, got 0"),
                    ({"restarts": 2.5}, "restarts must be an integer >= 1, got 2.5"),
                    ({"restarts": True}, "restarts must be an integer >= 1, got True"),
                    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
                    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
                    ({"max_sweeps": 0}, "max_sweeps must be an integer >= 1, got 0"),
                    ({"max_sweeps": 2.0}, "max_sweeps must be an integer >= 1, got 2.0"),
                    ({"tol": math.nan}, "tol must be a non-negative real, got nan"),
                    ({"tol": -1}, "tol must be a non-negative real, got -1"),
                    ({"tol": "1e-3"}, "tol must be a non-negative real, got '1e-3'"),
                    ({"cap": True}, "cap must be an integer >= 1, got True"),
                    ({"cap": 2.5}, "cap must be an integer >= 1, got 2.5"),
                    ({"cap": 0}, "cap must be an integer >= 1, got 0"),
                )
            ),
            *(
                pytest.param(
                    make, BAD, f"cap must be an integer >= 1, got {cap!r}", id=f"{name}-cap-{cap!r}"
                )
                for cap in (True, 3.0)
                for name, make in (
                    ("operator", lambda cap=cap: Q.bell_operator(P.mk(2), chsh_frame(), cap=cap)),
                    (
                        "bloch",
                        lambda cap=cap: Q.effective_bloch(
                            P.mk(2), chsh_frame(), Q.ghz(2), 0, False, cap=cap
                        ),
                    ),
                )
            ),
        ],
    )
    def test_bad_input_errors(self, make, error, message):
        with pytest.raises(error) as err:
            make()
        assert type(err.value) is error and str(err.value) == message

    def test_eigensolver_failure_is_an_integrity_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("did not converge")

        op = Q.bell_operator(P.mk(2), chsh_frame())
        monkeypatch.setattr(Q, "_top_eigenpair", fail)
        with pytest.raises(NumericalIntegrityError) as err:
            Q.max_eigenvalue(op)
        assert str(err.value) == "eigensolver failed: did not converge"

    def test_imaginary_expectation_is_an_integrity_error(self):
        rho = np.array([[0.5, 0.0], [1e-6, 0.5]], dtype=complex)
        with pytest.raises(NumericalIntegrityError, match=r"expectation value has imaginary residue"):
            Q._trace_product(rho, 1j * np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpectation:
    def test_chsh_on_ghz2(self):
        op = Q.bell_operator(P.mk(2), chsh_frame())
        assert Q.expectation(op, Q.ghz(2)) == pytest.approx(SQRT2, abs=1e-12)

    def test_maximally_mixed_vanishes(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            rho = DensityMatrix(n, np.eye(1 << n) / (1 << n))
            op = Q.bell_operator(P.mk(n), Q.random_frame(n, rng))
            assert Q.expectation(op, rho) == pytest.approx(0.0, abs=1e-12)

    def test_aligned_product_state(self):
        # both parties reuse one direction; the polynomial collapses to a1 a2
        z = UnitVector(0.0, 0.0, 1.0)
        frame = MeasurementFrame(((z, z), (z, z)))
        op = Q.bell_operator(P.mk(2), frame)
        assert Q.expectation(op, Q.basis_state(2, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_density_matrix_matches_pure(self):
        state = Q.ghz(2)
        rho = DensityMatrix(2, np.outer(state.amplitudes, state.amplitudes.conj()))
        op = Q.bell_operator(P.mk(2), chsh_frame())
        assert Q.expectation(op, rho) == pytest.approx(Q.expectation(op, state), abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Q.expectation(Q.bell_operator(P.mk(2), chsh_frame()), Q.ghz(3))


class TestMaxEigenvalue:
    def test_optimal_svetlichny3_frame(self):
        op = Q.bell_operator(P.svetlichny(3), svetlichny3_frame())
        value, eigenstate = Q.max_eigenvalue(op)
        assert value == pytest.approx(SQRT2, abs=1e-12)
        # the GHZ state attains the top eigenvalue with these settings
        assert Q.expectation(op, Q.ghz(3)) == pytest.approx(value, abs=1e-8)
        assert Q.expectation(op, eigenstate) == pytest.approx(value, abs=1e-12)

    def test_mermin3_frame_reaches_two(self):
        op = Q.bell_operator(P.mk(3), mermin3_frame())
        value, _ = Q.max_eigenvalue(op)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert Q.expectation(op, Q.ghz(3)) == pytest.approx(2.0, abs=1e-12)

    def test_phase_canonical_and_deterministic(self):
        op = Q.bell_operator(P.mk(2), chsh_frame())
        _, v1 = Q.max_eigenvalue(op)
        _, v2 = Q.max_eigenvalue(op)
        assert np.array_equal(v1.amplitudes, v2.amplitudes)
        pivot = np.argmax(np.abs(v1.amplitudes))
        assert v1.amplitudes[pivot].imag == pytest.approx(0.0, abs=1e-15)
        assert v1.amplitudes[pivot].real > 0


def degenerate_top(dim: int, multiplicity: int, gap: float, seed: int) -> np.ndarray:
    """A random Hermitian matrix whose top eigenvalue 1 has `multiplicity`, `gap` above the next."""
    rng = np.random.default_rng(seed)
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    below = rng.uniform(-1.0, 1.0 - gap, dim - multiplicity - 1)
    eigs = np.concatenate([np.ones(multiplicity), [1.0 - gap], below])
    matrix = (unitary * eigs) @ unitary.conj().T
    return (matrix + matrix.conj().T) / 2


def assert_top_pair_matches_eigh(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """_top_eigenpair against dense eigh: value, residual, pivot phase, repeatability."""
    value, vec = Q._top_eigenpair(matrix)
    eigs = np.linalg.eigvalsh(matrix)
    assert abs(value - eigs[-1]) <= 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
    assert np.linalg.norm(matrix @ vec - value * vec) <= Q._EIGEN_RESIDUAL_TOL
    # the pivot is the first entry within 1e-9 of the largest modulus
    mods = np.abs(vec)
    pivot = vec[np.argmax(mods >= mods.max() - 1e-9)]
    assert abs(pivot.imag) <= 1e-15 and pivot.real > 0
    again, vec_again = Q._top_eigenpair(matrix)
    assert again == value and vec_again.tobytes() == vec.tobytes()
    return value, vec


def stacked_lanczos(matrix: np.ndarray) -> tuple[float, np.ndarray, int]:
    """The byte reference for `Q._lanczos_top`: the basis restacked and conjugated every step.

    Also returns the number of basis vectors the run took.
    """
    dim = matrix.shape[0]
    q = Q._lanczos_start(dim)
    basis = np.empty((0, dim), dtype=complex)
    alphas, betas = [], []
    while True:
        basis = np.vstack([basis, q])
        v = matrix @ q
        alphas.append(float(np.vdot(q, v).real))
        for _ in range(2):
            v -= basis.T @ (basis.conj() @ v)
        beta, k = float(np.linalg.norm(v)), len(basis)
        if k < 16 or k % 4 == 0 or k == dim or beta <= Q._RITZ_TOL:
            thetas, ys = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta, y = float(thetas[-1]), ys[:, -1]
            if k == dim or beta * abs(y[-1]) <= Q._RITZ_TOL * max(1.0, abs(theta)):
                return theta, y @ basis, k
        betas.append(beta)
        q = v / beta


def assert_lanczos_matches_stacked(matrix: np.ndarray) -> int:
    """`Q._lanczos_top` against `stacked_lanczos`, to the byte; returns the step count."""
    value, vec = Q._lanczos_top(matrix)
    want, want_vec, steps = stacked_lanczos(matrix)
    assert value == want and vec.tobytes() == want_vec.tobytes()
    return steps


class TestLanczos:
    """The top eigenpair at dimension >= 128, where Lanczos replaces dense eigh."""

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from(["mk", "svetlichny", "random"]),
        st.sampled_from([7, 8]),
        st.integers(0, 2**32 - 1),
    )
    def test_bell_matrices_against_eigh(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        p = random_dyadic_polynomial(n, rng) if kind == "random" else getattr(P, kind)(n)
        op = Q.bell_operator(p, Q.random_frame(n, rng))
        value, vec = assert_top_pair_matches_eigh(op.entries)
        assert_lanczos_matches_stacked(op.entries)
        top, state = Q.max_eigenvalue(op)
        assert top == value and state.amplitudes.tobytes() == vec.tobytes()

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from([128, 256]),
        st.integers(2, 4),
        st.floats(1e-3, 1e-2),
        st.integers(0, 2**32 - 1),
    )
    def test_degenerate_top_with_a_small_gap(self, dim, multiplicity, gap, seed):
        matrix = degenerate_top(dim, multiplicity, gap, seed)
        value, _ = assert_top_pair_matches_eigh(matrix)
        assert_lanczos_matches_stacked(matrix)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_zero_operator_stops_at_the_start_vector(self):
        op = Q.bell_operator(Polynomial(7, {}), Q.random_frame(7, np.random.default_rng(2)))
        value, vec = assert_top_pair_matches_eigh(op.entries)
        assert value == 0.0
        assert abs(np.vdot(Q._lanczos_start(128), vec)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [6, 7], ids=["dense", "lanczos"])
    def test_tampered_pair_is_an_integrity_error(self, n, monkeypatch):
        op = Q.bell_operator(P.mk(n), Q.random_frame(n, np.random.default_rng(3)))
        eigh = np.linalg.eigh

        def shifted(matrix):
            values, vectors = eigh(matrix)
            return values + 1e-6, vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        message = rf"eigenpair residual \S+ exceeds 1e-09 \(dim {1 << n}\)"
        with pytest.raises(NumericalIntegrityError, match=message):
            Q.max_eigenvalue(op)
        with pytest.raises(NumericalIntegrityError, match=message):
            Q.quantum_max(P.mk(n), restarts=1, seed=0)

    @pytest.mark.parametrize("larger", [2, 5])
    def test_pivot_ignores_moduli_tied_up_to_rounding(self, larger):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 0.2
        vec[2] = 0.6 * np.exp(0.3j)
        vec[5] = 0.6 * np.exp(-1.1j)
        vec[larger] *= 1 + 1e-15  # two largest moduli 1e-15 apart, either way round
        assert abs(abs(vec[2]) - abs(vec[5])) <= 2e-15
        fixed = Q._fix_phase(vec)
        assert abs(fixed[2].imag) <= 1e-15 and fixed[2].real > 0
        assert np.angle(fixed[5]) == pytest.approx(-1.4, abs=1e-12)
        assert np.abs(fixed) == pytest.approx(np.abs(vec), abs=1e-15)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_quantum_max_is_repeatable_to_the_byte(self, seed):
        a = Q.quantum_max(P.mk(8), restarts=1, seed=seed)
        b = Q.quantum_max(P.mk(8), restarts=1, seed=seed)
        assert a.value == b.value and a.frame == b.frame
        assert a.state.amplitudes.tobytes() == b.state.amplitudes.tobytes()


class TestNormCheck:
    """From dimension 256 the operator norm is checked by Lanczos on B and -B."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["top", "bottom"])
    def test_operator_above_the_limit_raises_at_n8(self, sign, monkeypatch):
        p, rng = P.mk(8), np.random.default_rng(4)
        frame = Q.random_frame(8, rng)
        op = Q.bell_operator(p, frame)
        e = Q.random_state(8, rng).amplitudes
        tampered = op.entries + sign * 3 * float(P.algebraic_limit(p)) * np.outer(e, e.conj())

        def no_eigvalsh(matrix):
            raise AssertionError("the norm at dimension 256 must not need eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        Q.BellOperator(8, op.entries, (p, frame))
        with pytest.raises(NumericalIntegrityError, match="exceeds the algebraic limit"):
            Q.BellOperator(8, tampered, (p, frame))


class TestCorrelations:
    """The state's full correlation tensor and the effective fields read from it."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
    def test_against_pauli_strings(self, n, seed, mixed):
        rng = np.random.default_rng(seed)
        state = random_density(n, rng) if mixed else Q.random_state(n, rng)
        rho = Q._density(state)
        t = Q._correlations(rho)
        assert t.shape == (3,) * n and t.dtype == np.float64
        for a in itertools.product(range(3), repeat=n):
            string = reduce(np.kron, [Q._SIGMA[k] for k in a])
            assert t[a] == pytest.approx(np.trace(rho @ string).real, abs=1e-12)

    def test_non_hermitian_rho_is_an_integrity_error(self):
        rho = Q._density(Q.random_state(3, np.random.default_rng(6))).copy()
        rho[0, -1] += 1e-6
        message = r"correlation tensor has imaginary residue \S+, above 1e-08"
        with pytest.raises(NumericalIntegrityError, match=message):
            Q._correlations(rho)
        w = P._coefficient_tensor(P.mk(3))
        vectors = Q._raw_random_vectors(3, np.random.default_rng(7))
        with pytest.raises(NumericalIntegrityError, match=message):
            Q._settings_sweep(w, vectors, rho, [])

    @pytest.mark.parametrize(
        "kind, n, mixed",
        [("mk", 7, False), ("random", 7, True), ("svetlichny", 8, False), ("random", 8, True)],
    )
    def test_sweep_fields_match_the_fold(self, kind, n, mixed, monkeypatch):
        rng = np.random.default_rng(n)
        p = random_dyadic_polynomial(n, rng) if kind == "random" else getattr(P, kind)(n)
        rho = Q._density(random_density(n, rng) if mixed else Q.random_state(n, rng))
        w, vectors = P._coefficient_tensor(p), Q._raw_random_vectors(n, rng)
        fields, errors = Q._fields, []

        def checked(w, vectors, t, party):
            g = fields(w, vectors, t, party)
            want = fold_fields(w, Q._ops_from_vectors(vectors), rho, party)
            errors.append(float(np.max(np.abs(g - want))) / max(1.0, float(np.max(np.abs(want)))))
            return g

        monkeypatch.setattr(Q, "_fields", checked)
        Q._settings_sweep(w, vectors, rho, [])
        assert len(errors) == n and max(errors) < 1e-12


def moveaxis_fields(w: np.ndarray, vectors: np.ndarray, t: np.ndarray, party: int) -> np.ndarray:
    """The byte reference for `Q._fields`, in np.moveaxis form."""
    m = np.moveaxis(t, party, -1).reshape(-1)
    for k in range(w.ndim):
        if k != party:
            m = m.reshape(3, -1).T @ vectors[k].T
    return np.moveaxis(w, party, 0).reshape(2, -1) @ m.reshape(3, -1).T


def tensordot_ops(vectors: np.ndarray) -> np.ndarray:
    """The byte reference for `Q._ops_from_vectors`, in np.tensordot form."""
    return np.tensordot(vectors, Q._SIGMA, axes=(-1, 0))


class TestSweepHelperForms:
    """The sweep's array steps give the bytes of numpy's moveaxis, tensordot and norm."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_fields_and_ops(self, n, seed):
        rng = np.random.default_rng(seed)
        w, t = rng.normal(size=(2,) * n), rng.normal(size=(3,) * n)
        vectors = rng.normal(size=(n, 2, 3))
        for party in range(n):
            got = Q._fields(w, vectors, t, party)
            assert got.tobytes() == moveaxis_fields(w, vectors, t, party).tobytes()
        assert Q._ops_from_vectors(vectors).tobytes() == tensordot_ops(vectors).tobytes()
        assert Q._ops_from_vectors(vectors[0]).tobytes() == tensordot_ops(vectors[0]).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_random_vectors(self, n, seed):
        rng = np.random.default_rng(seed)
        want = []
        while len(want) < 2 * n:
            v = rng.normal(size=3)
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                want.append(v / norm)
        got = Q._raw_random_vectors(n, np.random.default_rng(seed))
        assert got.tobytes() == np.array(want).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_sweep(self, n, seed, mixed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(2,) * n)
        rho = Q._density(random_density(n, rng) if mixed else Q.random_state(n, rng))
        vectors = Q._raw_random_vectors(n, rng)
        want_vectors, want_history = vectors.copy(), []
        t = Q._correlations(rho)
        for j in range(n):
            g = moveaxis_fields(w, want_vectors, t, j)
            for s in (0, 1):
                norm = float(np.linalg.norm(g[s]))
                if norm > 1e-14:
                    want_vectors[j, s] = g[s] / norm
                want_history.append(float(g[0] @ want_vectors[j, 0] + g[1] @ want_vectors[j, 1]))
        history = []
        value, matrix = Q._settings_sweep(w, vectors, rho, history)
        assert vectors.tobytes() == want_vectors.tobytes()
        assert np.array(history).tobytes() == np.array(want_history).tobytes()
        assert value == want_history[-1]
        assert matrix.tobytes() == Q._bell_matrix(w, tensordot_ops(want_vectors)).tobytes()


def rabcd_fold(w: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The byte reference for `Q._bell_matrix`: each fold step written in (r, a, b, c, d) order."""
    t = w.reshape(-1, 1, 1)
    for j in range(w.ndim):
        dim = t.shape[-1]
        t = t.reshape(2, -1, dim, dim)
        t = np.einsum("srac,sbd->rabcd", t, ops[j]).reshape(-1, 2 * dim, 2 * dim)
    return t.reshape(t.shape[-2:])


AXES = np.concatenate([np.eye(3), -np.eye(3)])


class TestKernelForms:
    """The fold, Lanczos past its first rows and the Lanczos start give their references' bytes."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["random", "mk", "svetlichny"]),
        st.integers(1, 9),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_fold(self, kind, n, on_axes, seed):
        """Zero coefficients and axis-aligned settings would show any signed-zero drift."""
        assume(kind != "svetlichny" or n >= 2)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(2,) * n) if kind == "random" else P._coefficient_tensor(getattr(P, kind)(n))
        if on_axes:
            vectors = AXES[rng.integers(0, 6, size=(n, 2))]
        else:
            vectors = Q._raw_random_vectors(n, rng)
        ops = Q._ops_from_vectors(vectors)
        assert Q._bell_matrix(w, ops).tobytes() == rabcd_fold(w, ops).tobytes()

    @pytest.mark.parametrize("dim, seed", [(128, 1), (256, 2)])
    def test_lanczos_past_the_initial_rows(self, dim, seed):
        """A degenerate top with a small gap takes more steps than the preallocated rows."""
        assert assert_lanczos_matches_stacked(degenerate_top(dim, 3, 1e-3, seed)) > Q._LANCZOS_ROWS

    @pytest.mark.parametrize("dim", [128, 256])
    def test_start_vector_is_built_once_and_read_only(self, dim):
        start = Q._lanczos_start(dim)
        assert Q._lanczos_start(dim) is start and not start.flags.writeable
        with pytest.raises(ValueError):
            start[0] = 0.0
        rng = np.random.default_rng(dim)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert start.tobytes() == (z / np.linalg.norm(z)).tobytes()


class TestEffectiveBloch:
    def test_single_party_on_zero_ket(self):
        v = UnitVector(0.0, 0.0, 1.0)
        frame = MeasurementFrame(((v, v),))
        g = Q.effective_bloch(P.mk(1), frame, Q.basis_state(1, 0), 0, False)
        assert np.allclose(g, [0.0, 0.0, 1.0], atol=1e-14)

    def test_spectral_cap(self, monkeypatch):
        """The cap is checked before the state's party count and before any density matrix."""
        frame = Q.random_frame(4, np.random.default_rng(0))
        monkeypatch.setattr(Q, "_density", lambda state: pytest.fail("density matrix built"))
        with pytest.raises(ResourceLimitError) as err:
            Q.effective_bloch(P.mk(4), frame, Q.ghz(2), 0, False, cap=3)
        assert str(err.value) == CAP_MESSAGE
        monkeypatch.undo()
        assert Q.effective_bloch(P.mk(4), frame, Q.ghz(4), 0, False, cap=4).shape == (3,)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstructs_expectation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        poly = random_dyadic_polynomial(n, rng)
        frame = Q.random_frame(n, rng)
        state = Q.random_state(n, rng)
        op = Q.bell_operator(poly, frame)
        total = Q.expectation(op, state)
        party = int(rng.integers(0, n))
        primed = bool(rng.integers(0, 2))
        g = Q.effective_bloch(poly, frame, state, party, primed)
        v = frame.setting(party, primed).as_array()
        # rest = value with this setting's terms removed
        kept = Polynomial(
            n,
            {
                t: c
                for t, c in poly.terms.items()
                if t.primed(party) != primed
            },
        )
        rest = Q.expectation(Q.bell_operator(kept, frame), state)
        assert g @ v + rest == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 4))
        poly = random_dyadic_polynomial(n, rng)
        frame = Q.random_frame(n, rng)
        state = Q.random_state(n, rng)
        party = int(rng.integers(0, n))
        primed = bool(rng.integers(0, 2))
        g = Q.effective_bloch(poly, frame, state, party, primed)
        v = frame.setting(party, primed).as_array()
        tangent = np.cross(v, Q.random_state(1, rng).amplitudes.real @ np.eye(2, 3))
        if np.linalg.norm(tangent) < 1e-6:
            tangent = np.cross(v, [1.0, 0.0, 0.0])
        tangent /= np.linalg.norm(tangent)
        h = 1e-5

        def value_at(eps: float) -> float:
            w = v + eps * tangent
            moved = frame.replace(party, primed, UnitVector.normalized(*w))
            return Q.expectation(Q.bell_operator(poly, moved), state)

        derivative = (value_at(h) - value_at(-h)) / (2 * h)
        assert derivative == pytest.approx(float(g @ tangent), abs=1e-6)

    def test_density_matrix_path_agrees(self):
        rng = np.random.default_rng(42)
        poly = P.svetlichny(3)
        frame = Q.random_frame(3, rng)
        state = Q.random_state(3, rng)
        rho = DensityMatrix(3, np.outer(state.amplitudes, state.amplitudes.conj()))
        for primed in (False, True):
            g_pure = Q.effective_bloch(poly, frame, state, 1, primed)
            g_rho = Q.effective_bloch(poly, frame, rho, 1, primed)
            assert np.allclose(g_pure, g_rho, atol=1e-10)


class TestFoldOracle:
    """The fold against the dense per-term Kronecker sum, to 1e-12."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_bell_matrix_and_expectations(self, n, seed):
        rng = np.random.default_rng(seed)
        poly = random_dyadic_polynomial(n, rng)
        frame = Q.random_frame(n, rng)
        dense = dense_sum(poly, frame)
        op = Q.bell_operator(poly, frame)
        assert np.max(np.abs(op.entries - dense)) < 1e-12
        psi = Q.random_state(n, rng)
        pure = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
        assert Q.expectation(op, psi) == pytest.approx(pure, abs=1e-12)
        rho = random_density(n, rng)
        mixed = np.trace(rho.entries @ dense).real
        assert Q.expectation(op, rho) == pytest.approx(mixed, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_fields_of_every_setting(self, n, seed, mixed):
        rng = np.random.default_rng(seed)
        poly = random_dyadic_polynomial(n, rng)
        frame = Q.random_frame(n, rng)
        state = random_density(n, rng) if mixed else Q.random_state(n, rng)
        rho = state.entries if mixed else np.outer(state.amplitudes, state.amplitudes.conj())
        for party in range(n):
            for primed in (False, True):
                g = Q.effective_bloch(poly, frame, state, party, primed)
                oracle = [
                    np.trace(rho @ dense_sum(poly, frame, (party, primed, sigma))).real
                    for sigma in Q._SIGMA
                ]
                assert np.max(np.abs(g - oracle)) < 1e-12


class TestSeesaw:
    def test_mk2_on_ghz2(self):
        result = Q.seesaw(P.mk(2), Q.ghz(2), restarts=8, seed=1)
        assert result.value == pytest.approx(SQRT2, abs=1e-6)

    def test_mk3_on_ghz3(self):
        result = Q.seesaw(P.mk(3), Q.ghz(3), restarts=8, seed=1)
        assert result.value == pytest.approx(2.0, abs=1e-6)

    def test_svetlichny3_on_ghz3(self):
        result = Q.seesaw(P.svetlichny(3), Q.ghz(3), restarts=8, seed=1)
        assert result.value == pytest.approx(SQRT2, abs=1e-6)

    def test_spectral_cap(self):
        """The cap is checked before the state's party count."""
        with pytest.raises(ResourceLimitError) as err:
            Q.seesaw(P.mk(4), Q.ghz(2), restarts=1, seed=0, cap=3)
        assert str(err.value) == CAP_MESSAGE
        assert Q.seesaw(P.mk(4), Q.ghz(4), restarts=1, seed=0, cap=4).frame.n == 4

    def test_history_is_monotone(self):
        result = Q.seesaw(P.svetlichny(3), Q.ghz(3), restarts=4, seed=9)
        history = np.array(result.history)
        assert np.all(np.diff(history) >= -1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = Q.seesaw(P.mk(3), Q.ghz(3), restarts=4, seed=5)
        b = Q.seesaw(P.mk(3), Q.ghz(3), restarts=4, seed=5)
        assert a.value == b.value
        assert a.frame == b.frame

    def test_degenerate_gradient_keeps_setting(self):
        # on the maximally mixed state every effective field vanishes, so no
        # coordinate update ever moves a setting away from its start
        rho = DensityMatrix(1, np.eye(2) / 2)
        poly = P.mk(1)
        short = Q.seesaw(poly, rho, restarts=1, seed=3, max_sweeps=1)
        long = Q.seesaw(poly, rho, restarts=1, seed=3, max_sweeps=5)
        assert short.value == pytest.approx(0.0, abs=1e-12)
        assert short.frame == long.frame

    def test_density_matrix_state(self):
        state = Q.ghz(2)
        rho = DensityMatrix(2, np.outer(state.amplitudes, state.amplitudes.conj()))
        result = Q.seesaw(P.mk(2), rho, restarts=4, seed=2)
        assert result.value == pytest.approx(SQRT2, abs=1e-6)

    def test_block_ghz_product_respects_depth_two_ceiling(self):
        # two 2-qubit blocks: a 2-particle-entangled 4-qubit state
        amps = np.kron(Q.ghz(2).amplitudes, Q.ghz(2).amplitudes)
        state = PureState(4, amps)
        result = Q.seesaw(P.mk(4), state, restarts=8, seed=4)
        assert result.value <= SQRT2 + 1e-9
        assert result.value == pytest.approx(SQRT2, abs=1e-6)

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Q.seesaw(P.mk(2), Q.ghz(3), restarts=1, seed=0)

    def test_pure_state_and_its_density_matrix_agree(self):
        psi = Q.random_state(4, np.random.default_rng(31))
        rho = DensityMatrix(4, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        pure = Q.seesaw(P.mk(4), psi, restarts=3, seed=8)
        mixed = Q.seesaw(P.mk(4), rho, restarts=3, seed=8)
        assert pure.value == pytest.approx(mixed.value, abs=1e-12)
        for (v, w), (v2, w2) in zip(pure.frame.pairs, mixed.frame.pairs):
            assert np.allclose(v.as_array(), v2.as_array(), rtol=0, atol=1e-12)
            assert np.allclose(w.as_array(), w2.as_array(), rtol=0, atol=1e-12)

    def test_last_history_entry_is_the_value_of_the_frame(self):
        rng = np.random.default_rng(32)
        poly = random_dyadic_polynomial(4, rng)
        for state in (Q.random_state(4, rng), random_density(4, rng)):
            result = Q.seesaw(poly, state, restarts=2, seed=3)
            assert len(result.history) % (2 * poly.n) == 1
            exact = Q.expectation(Q.bell_operator(poly, result.frame), state)
            assert result.history[-1] == pytest.approx(exact, abs=1e-12)
            assert result.value == result.history[-1]

    def test_drift_from_the_recomputed_value_is_an_integrity_error(self, monkeypatch):
        fold_all = Q._bell_matrix

        def tampered(w, ops):
            return fold_all(w, ops) + 1e-6 * np.eye(1 << w.ndim)

        monkeypatch.setattr(Q, "_bell_matrix", tampered)
        with pytest.raises(NumericalIntegrityError):
            Q.seesaw(P.mk(3), Q.ghz(3), restarts=1, seed=0)


class TestQuantumMax:
    @pytest.mark.parametrize(
        "n,target", [(2, SQRT2), (3, 2.0), (4, 2 * SQRT2)]
    )
    def test_mk_maxima(self, n, target):
        result = Q.quantum_max(P.mk(n), restarts=8, seed=1)
        assert result.value == pytest.approx(target, abs=1e-6)

    def test_svetlichny4(self):
        result = Q.quantum_max(P.svetlichny(4), restarts=8, seed=1)
        assert result.value == pytest.approx(2 * SQRT2, abs=1e-6)

    def test_state_matches_top_eigenvalue(self):
        result = Q.quantum_max(P.mk(3), restarts=4, seed=6)
        op = Q.bell_operator(P.mk(3), result.frame)
        top, _ = Q.max_eigenvalue(op)
        assert Q.expectation(op, result.state) == pytest.approx(top, abs=1e-8)

    def test_spectral_cap(self):
        with pytest.raises(ResourceLimitError) as err:
            Q.quantum_max(P.mk(4), restarts=1, seed=0, cap=3)
        assert str(err.value) == CAP_MESSAGE

    def test_mk10_at_the_default_cap(self):
        result = Q.quantum_max(P.mk(10), restarts=1, seed=1)
        assert result.value == pytest.approx(2.0**4.5, abs=1e-9)


class TestBlockProductMax:
    def test_mk3_depth_two_value(self):
        values = [
            Q.block_product_max(P.mk(3), b.block_a_parties, restarts=8, seed=13).value
            for b in M.bipartitions(3)
        ]
        assert max(values) == pytest.approx(SQRT2, abs=1e-6)
        assert all(v <= SQRT2 + 1e-9 for v in values)

    def test_svetlichny3_depth_two_value(self):
        values = [
            Q.block_product_max(P.svetlichny(3), b.block_a_parties, restarts=8, seed=13).value
            for b in M.bipartitions(3)
        ]
        assert max(values) == pytest.approx(1.0, abs=1e-6)
        assert all(v <= 1.0 + 1e-9 for v in values)

    def test_invalid_block(self):
        with pytest.raises(InvalidArgumentError):
            Q.block_product_max(P.mk(3), (0, 1, 2), restarts=1, seed=0)

    @pytest.mark.parametrize("n,block", [(4, (0, 2)), (5, (1, 3)), (3, (1,))])
    def test_non_contiguous_block_value_is_the_product_state_value(self, n, block):
        p = P.mk(n)
        result = Q.block_product_max(p, block, restarts=2, seed=4)
        rest = tuple(j for j in range(n) if j not in block)
        phi_a, phi_b = (s.amplitudes for s in result.block_states)
        # axes in block order (A's parties, then B's), moved back to party order
        psi = np.multiply.outer(phi_a, phi_b).reshape((2,) * n)
        psi = psi.transpose(np.argsort(block + rest)).reshape(-1)
        value = Q.expectation(Q.bell_operator(p, result.frame), PureState(n, psi))
        assert result.value == pytest.approx(value, abs=1e-12)

    def test_spectral_cap(self):
        with pytest.raises(ResourceLimitError) as err:
            Q.block_product_max(P.mk(4), (0,), restarts=1, seed=0, cap=3)
        assert str(err.value) == CAP_MESSAGE


class TestSearchSkeleton:
    @pytest.mark.parametrize(
        "values,kept", [((1.0, 1.0 + 4e-16, 0.5), 0), ((1.0, 1.0 + 1e-9), 1)]
    )
    def test_a_later_restart_must_win_by_more_than_the_tie_margin(self, values, kept):
        results = iter(SimpleNamespace(index=i, value=v) for i, v in enumerate(values))
        best = Q._best_restart(len(values), 0, lambda rng: next(results))
        assert best.index == kept

    def test_each_restart_gets_its_own_seeded_generator(self):
        draws = []

        def attempt(rng):
            draws.append(rng.random())
            return SimpleNamespace(value=0.0)

        Q._best_restart(3, 7, attempt)
        again = [np.random.default_rng(c).random() for c in np.random.SeedSequence(7).spawn(3)]
        assert draws == again and len(set(draws)) == 3

    @pytest.mark.parametrize(
        "search",
        [
            lambda **kw: Q.seesaw(P.mk(2), Q.ghz(2), **kw),
            lambda **kw: Q.quantum_max(P.mk(2), **kw),
            lambda **kw: Q.block_product_max(P.mk(2), (0,), **kw),
        ],
        ids=["seesaw", "quantum_max", "block_product_max"],
    )
    def test_zero_restarts_rejected(self, search):
        with pytest.raises(InvalidArgumentError):
            search(restarts=0, seed=1)


class TestCeilings:
    def test_two_party_expectation_ceiling(self):
        rng = np.random.default_rng(77)
        poly = P.mk(2)
        for _ in range(100):
            op = Q.bell_operator(poly, Q.random_frame(2, rng))
            value = Q.expectation(op, Q.random_state(2, rng))
            assert value <= SQRT2 + 1e-9

    def test_svetlichny3_eigenvalue_ceiling(self):
        rng = np.random.default_rng(78)
        poly = P.svetlichny(3)
        for _ in range(100):
            value, _ = Q.max_eigenvalue(Q.bell_operator(poly, Q.random_frame(3, rng)))
            assert value <= SQRT2 + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mk_spectral_ceiling(self, n):
        rng = np.random.default_rng(79)
        poly = P.mk(n)
        ceiling = 2.0 ** ((n - 1) / 2)
        for _ in range(30):
            value, _ = Q.max_eigenvalue(Q.bell_operator(poly, Q.random_frame(n, rng)))
            assert value <= ceiling + 1e-9

    @pytest.mark.parametrize("n", [3, 5])
    def test_svetlichny_spectral_ceiling_odd(self, n):
        rng = np.random.default_rng(80)
        poly = P.svetlichny(n)
        ceiling = 2.0 ** ((n - 2) / 2)
        for _ in range(30):
            value, _ = Q.max_eigenvalue(Q.bell_operator(poly, Q.random_frame(n, rng)))
            assert value <= ceiling + 1e-9


class TestTextInterfaces:
    def test_frame_round_trip(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 4):
            frame = Q.random_frame(n, rng)
            assert Q.frame_from_text(Q.frame_to_text(frame)) == frame

    def test_frame_parse_errors(self):
        with pytest.raises(DataFormatError):
            Q.frame_from_text("0 0 1\n")  # missing header
        with pytest.raises(DataFormatError):
            Q.frame_from_text("n=1\n0 0 1\n")  # missing primed line
        with pytest.raises(DataFormatError) as err:
            Q.frame_from_text("n=1\n0 0 2\n0 0 1\n")  # non-unit vector
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "empty frame file", None),
            ("# c\n\n0 0 1\n", "line 3: frame file must start with an n=<count> header", 3),
            ("n=x\n", "line 1: bad frame header 'n=x'", 1),
            ("\nn=0\n", "line 2: frame party count must be >= 1", 2),
            ("n=1\n0 0 1\n# c\n0 0\n", "line 4: expected three reals, got '0 0'", 4),
            ("n=1\n0 0 x\n0 0 1\n", "line 2: bad vector component in '0 0 x'", 2),
        ],
    )
    def test_frame_error_messages(self, text, message, line):
        with pytest.raises(DataFormatError) as err:
            Q.frame_from_text(text)
        assert (str(err.value), err.value.line) == (message, line)

    def test_state_specs(self):
        assert np.array_equal(Q.parse_state("ghz:3", 3).amplitudes, Q.ghz(3).amplitudes)
        assert Q.parse_state("basis:2:1", 2).amplitudes[1] == 1.0
        with pytest.raises(DataFormatError):
            Q.parse_state("ghz:zero", 3)
        with pytest.raises(DataFormatError):
            Q.parse_state("unknown:3", 3)

    def test_state_file(self, tmp_path):
        path = tmp_path / "state.txt"
        amps = Q.ghz(2).amplitudes
        path.write_text("\n".join(f"{float(a.real)!r} {float(a.imag)!r}" for a in amps))
        state = Q.parse_state(f"file:{path}", 2)
        assert np.allclose(state.amplitudes, amps)

    def test_state_file_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.0\n0.5 0.0\n")  # not normalized
        with pytest.raises(DataFormatError):
            Q.parse_state(f"file:{path}", 1)
        path.write_text("1.0 0.0\n0.0 0.0\n0.0 0.0\n")  # not a power of two
        with pytest.raises(DataFormatError):
            Q.parse_state(f"file:{path}", 2)
        with pytest.raises(DataFormatError):
            Q.parse_state("file:/does/not/exist", 2)

    @pytest.mark.parametrize("spec", ["ghz:30", "basis:30:0", "file:STATE"])
    def test_state_count_checked_before_the_state_is_built(self, spec, tmp_path, monkeypatch):
        """A count the caller does not expect is refused; 2^30 amplitudes are 16 GiB."""

        def refuse(*args):
            raise AssertionError(f"built a state for {args}")

        monkeypatch.setattr(Q, "ghz", refuse)
        monkeypatch.setattr(Q, "basis_state", refuse)
        path = tmp_path / "state.txt"
        path.write_text("1.0 0.0\n" + "0.0 0.0\n" * 31)  # 32 amplitudes: 5 qubits
        with pytest.raises(InvalidArgumentError) as err:
            Q.parse_state(spec.replace("STATE", str(path)), 3)
        qubits = 5 if spec.startswith("file:") else 30
        assert str(err.value) == f"state has {qubits} parties, polynomial has 3"

    def test_state_file_error_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# amplitudes\n1.0 0.0\n\nx 0.0\n")
        with pytest.raises(DataFormatError) as err:
            Q.parse_state(f"file:{path}", 2)
        assert (str(err.value), err.value.line) == ("line 4: bad amplitude in 'x 0.0'", 4)
        with pytest.raises(DataFormatError) as err:
            Q.parse_state("file:/does/not/exist", 2)
        assert str(err.value).startswith("cannot read state file '/does/not/exist': ")
