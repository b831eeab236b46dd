"""Bell operators, spectra, and see-saw ascent."""

from __future__ import annotations

import math
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        with pytest.raises(InvalidArgumentError):
            UnitVector(1.0, 1.0, 0.0)


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
        with pytest.raises(InvalidArgumentError):
            PureState(1, np.array([1.0, 1.0]))

    def test_density_matrix_validation(self):
        rho = np.eye(2) / 2
        DensityMatrix(1, rho)
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.eye(2))  # trace 2
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.array([[1.0, 1.0], [-1.0, 0.0]]))  # not hermitian
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


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


class TestEffectiveBloch:
    def test_single_party_on_zero_ket(self):
        v = UnitVector(0.0, 0.0, 1.0)
        frame = MeasurementFrame(((v, v),))
        g = Q.effective_bloch(P.mk(1), frame, Q.basis_state(1, 0), 0, False)
        assert np.allclose(g, [0.0, 0.0, 1.0], atol=1e-14)

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

        def tampered(p, ops):
            return fold_all(p, ops) + 1e-6 * np.eye(1 << p.n)

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
        with pytest.raises(ResourceLimitError):
            Q.quantum_max(P.mk(4), restarts=1, seed=0, cap=3)

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
        with pytest.raises(ResourceLimitError):
            Q.block_product_max(P.mk(4), (0,), restarts=1, seed=0, cap=3)


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
        ],
    )
    def test_frame_error_messages(self, text, message, line):
        with pytest.raises(DataFormatError) as err:
            Q.frame_from_text(text)
        assert (str(err.value), err.value.line) == (message, line)

    def test_state_specs(self):
        assert np.array_equal(Q.parse_state("ghz:3").amplitudes, Q.ghz(3).amplitudes)
        assert Q.parse_state("basis:2:1").amplitudes[1] == 1.0
        with pytest.raises(DataFormatError):
            Q.parse_state("ghz:zero")
        with pytest.raises(DataFormatError):
            Q.parse_state("unknown:3")

    def test_state_file(self, tmp_path):
        path = tmp_path / "state.txt"
        amps = Q.ghz(2).amplitudes
        path.write_text("\n".join(f"{float(a.real)!r} {float(a.imag)!r}" for a in amps))
        state = Q.parse_state(f"file:{path}")
        assert np.allclose(state.amplitudes, amps)

    def test_state_file_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.0\n0.5 0.0\n")  # not normalized
        with pytest.raises(DataFormatError):
            Q.parse_state(f"file:{path}")
        path.write_text("1.0 0.0\n0.0 0.0\n0.0 0.0\n")  # not a power of two
        with pytest.raises(DataFormatError):
            Q.parse_state(f"file:{path}")
        with pytest.raises(DataFormatError):
            Q.parse_state("file:/does/not/exist")

    def test_state_file_error_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# amplitudes\n1.0 0.0\n\nx 0.0\n")
        with pytest.raises(DataFormatError) as err:
            Q.parse_state(f"file:{path}")
        assert (str(err.value), err.value.line) == ("line 4: bad amplitude in 'x 0.0'", 4)
        with pytest.raises(DataFormatError) as err:
            Q.parse_state("file:/does/not/exist")
        assert str(err.value).startswith("cannot read state file '/does/not/exist': ")
