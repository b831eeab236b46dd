"""Deterministic hidden-variable strategy search: local and hybrid bounds."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly.errors import (
    DataFormatError,
    InvalidArgumentError,
    NumericalIntegrityError,
    ResourceLimitError,
)
from bellpoly.models import Bipartition, BlockStrategy, LocalStrategy
from bellpoly.polynomial import DyadicCoefficient, Polynomial, Term


def single_term(n: int, mask: int) -> Polynomial:
    return Polynomial(n, {Term(n, mask): DyadicCoefficient(1)})


def exact_value(p: Polynomial, sign_of_mask) -> DyadicCoefficient:
    """Sum of coefficient * sign over p's terms in dyadic arithmetic."""
    total = DyadicCoefficient(0)
    for term, coef in p.terms.items():
        total = total + coef * sign_of_mask(term.prime_mask)
    return total


def local_sign(strategy: LocalStrategy):
    def sign(mask):
        out = 1
        for j, pair in enumerate(strategy.settings):
            out *= pair[(mask >> j) & 1]
        return out

    return sign


def hybrid_sign(witness: M.HybridWitness):
    return lambda mask: witness.block_a.product_for(mask) * witness.block_b.product_for(mask)


def random_dyadic(n: int, rng: np.random.Generator) -> Polynomial:
    """A random support with small numerators, so ties and zero effective entries are common."""
    masks = rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)
    return Polynomial(
        n,
        {
            Term(n, int(m)): DyadicCoefficient(
                int(rng.integers(-3, 4)) or 1, int(rng.integers(0, 4))
            )
            for m in masks
        },
    )


ALL_PLUS_3 = LocalStrategy(((1, 1), (1, 1), (1, 1)))


class TestEvaluateLocal:
    def test_mk2_all_plus(self):
        s = LocalStrategy(((1, 1), (1, 1)))
        assert M.evaluate_local(P.mk(2), s) == 1.0

    def test_mk3_all_plus(self):
        assert M.evaluate_local(P.mk(3), ALL_PLUS_3) == 1.0

    def test_party_flip_negates(self):
        # every MK term involves party 1 exactly once
        s = LocalStrategy(((-1, -1), (1, 1), (1, 1)))
        assert M.evaluate_local(P.mk(3), s) == -1.0

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            M.evaluate_local(P.mk(2), ALL_PLUS_3)

    def test_strategy_validation(self):
        with pytest.raises(InvalidArgumentError):
            LocalStrategy(((1, 0),))


class TestExactEvaluation:
    """evaluate_local and evaluate_hybrid round the exact sum once."""

    # Float term-by-term summation reads 1.0; the exact value is 1 + 2^-52.
    WIDE = P.from_text("+1/2^0 * A1 A2\n+1/2^53 * A1' A2\n+1/2^53 * A1 A2'\n")

    def test_local_witness_evaluates_to_its_bound(self):
        result = M.local_bound(self.WIDE)
        assert result.value == 1.0 + 2.0**-52
        assert M.evaluate_local(self.WIDE, result.witness) == result.value

    def test_hybrid_witness_evaluates_to_its_bound(self):
        overall = M.hybrid_bound_all(self.WIDE).overall
        w = overall.witness
        assert overall.value == 1.0 + 2.0**-52
        assert M.evaluate_hybrid(self.WIDE, w.partition, w.block_a, w.block_b) == overall.value

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_matches_dyadic_oracle(self, n, seed):
        """Against the dyadic term sum, on int64 and Python-int (denominators to 2^80) tensors."""
        rng = np.random.default_rng(seed)
        masks = rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)
        poly = Polynomial(n, {
            Term(n, int(m)): DyadicCoefficient(
                int(rng.integers(-9, 10)) or 1, int(rng.integers(0, 81))
            )
            for m in masks
        })
        script = LocalStrategy(tuple(
            (int(a), int(b)) for a, b in rng.choice([-1, 1], size=(n, 2))
        ))
        assert M.evaluate_local(poly, script) == float(exact_value(poly, local_sign(script)))
        if n < 2:
            return
        partition = M.bipartitions(n)[int(rng.integers(len(M.bipartitions(n))))]
        a, b = partition.block_a_parties, partition.block_b_parties
        w = M.HybridWitness(
            partition,
            BlockStrategy(a, tuple(int(x) for x in rng.choice([-1, 1], size=1 << len(a)))),
            BlockStrategy(b, tuple(int(x) for x in rng.choice([-1, 1], size=1 << len(b)))),
        )
        assert M.evaluate_hybrid(poly, partition, w.block_a, w.block_b) == float(
            exact_value(poly, hybrid_sign(w))
        )


class TestLocalBound:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mk_bound_is_one(self, n):
        result = M.local_bound(P.mk(n))
        assert result.value == 1.0
        assert result.value_exact == DyadicCoefficient(1)

    def test_svetlichny3(self):
        assert M.local_bound(P.svetlichny(3)).value == 1.0

    def test_single_term(self):
        result = M.local_bound(single_term(2, 0))
        assert result.value == 1.0
        # lexicographic tie-break: the all-plus script wins
        assert result.witness == LocalStrategy(((1, 1), (1, 1)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_witness_reproduces_value(self, n):
        for poly in (P.mk(n), P.svetlichny(n)):
            result = M.local_bound(poly)
            assert M.evaluate_local(poly, result.witness) == result.value

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            M.local_bound(P.mk(5), cap=4)

    def test_empty_polynomial(self):
        assert M.local_bound(Polynomial(2, {})).value == 0.0

    @pytest.mark.parametrize("poly", [P.mk(1), P.mk(5), P.svetlichny(8), Polynomial(3, {})])
    def test_coefficient_tensor_axes_are_party_settings(self, poly):
        w = M._coefficient_tensor(poly)
        assert w.shape == (2,) * poly.n
        for term, coef in poly.terms.items():
            assert w[tuple(int(term.primed(j)) for j in range(poly.n))] == float(coef)
        assert np.count_nonzero(w) == len(poly.terms)


def block_matrix_by_terms(p: Polynomial, a: tuple[int, ...], b: tuple[int, ...]) -> np.ndarray:
    """Row from A's primed bits, column from B's, the block's first party lowest."""
    c = np.zeros((1 << len(a), 1 << len(b)))
    for term, coef in p.terms.items():
        row = sum(int(term.primed(j)) << pos for pos, j in enumerate(a))
        col = sum(int(term.primed(j)) << pos for pos, j in enumerate(b))
        c[row, col] += float(coef)
    return c


class TestBlockCoefficientMatrix:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 7),
        st.sampled_from(["random", "mk", "svetlichny"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_term_loop_on_every_split(self, n, kind, seed):
        if kind == "random":
            rng = np.random.default_rng(seed)
            masks = rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)
            coefs = [DyadicCoefficient(int(rng.integers(-7, 8)) or 1, 3) for _ in masks]
            p = Polynomial(n, {Term(n, int(m)): c for m, c in zip(masks, coefs)})
        else:
            p = getattr(P, kind)(n)
        tensor, k = M._scaled_tensor(p)
        for size in range(1, n):
            for a in itertools.combinations(range(n), size):
                b = tuple(j for j in range(n) if j not in a)
                expected = block_matrix_by_terms(p, a, b) * 2**k
                assert np.array_equal(M._block_coefficient_matrix(tensor, a, b), expected), (a, b)


def ones_with_tiny_corner(n: int, log2: int) -> Polynomial:
    """Every term +1 except all-primed at -2^-log2.

    The term products of any local or two-block strategy cannot have exactly
    one -1, so every bound is 2^n - 1 - 2^-log2, which no float holds.
    """
    full = (1 << n) - 1
    terms = {Term(n, m): DyadicCoefficient(1) for m in range(full)}
    terms[Term(n, full)] = DyadicCoefficient(-1, log2)
    return Polynomial(n, terms)


class TestExactBounds:
    def test_chsh_text_form(self):
        text = "+1/2^0 * A1 A2\n+1/2^0 * A1 A2'\n+1/2^0 * A1' A2\n-1/2^60 * A1' A2'"
        result = M.local_bound(P.from_text(text))
        assert str(result.value_exact) == "3458764513820540927/2^60"
        assert result.value == 3.0

    # (3, 61): each scaled coefficient fits int64 but their sum 7 * 2^61 does not
    @pytest.mark.parametrize("n, log2, dtype", [(2, 60, np.int64), (2, 70, object), (3, 61, object)])
    def test_wide_range_coefficients_stay_exact(self, n, log2, dtype):
        p = ones_with_tiny_corner(n, log2)
        assert M._scaled_tensor(p)[0].dtype == dtype
        expected = DyadicCoefficient((((1 << n) - 1) << log2) - 1, log2)
        local = M.local_bound(p)
        assert local.value_exact == expected
        assert exact_value(p, local_sign(local.witness)) == expected
        assert local.value == float(expected)
        for partition in M.bipartitions(n):
            for result in (M.hybrid_bound(p, partition), M.brute_hybrid_bound(p, partition)):
                assert result.value_exact == expected
                assert exact_value(p, hybrid_sign(result.witness)) == expected
                assert result.value == float(expected)
        assert M.hybrid_bound_all(p).overall.value_exact == expected

    def test_object_dtype_gives_the_int64_results(self, monkeypatch):
        rng = np.random.default_rng(7)
        polys = [random_dyadic(int(rng.integers(2, 6)), rng) for _ in range(8)]
        polys.append(P.svetlichny(6))

        def bounds():
            return [
                (M.local_bound(p).as_dict(), [r.as_dict() for _, r in M.hybrid_bound_all(p)])
                for p in polys
            ]

        expected = bounds()
        real = M._scaled_tensor

        def as_objects(p):
            tensor, k = real(p)
            return tensor.astype(object), k

        monkeypatch.setattr(M, "_scaled_tensor", as_objects)
        assert bounds() == expected

    def test_corrupted_doubling_table_raises(self, monkeypatch):
        real = M._doubling_table
        monkeypatch.setattr(M, "_doubling_table", lambda first, rows: real(first, rows) + 1)
        with pytest.raises(NumericalIntegrityError):
            M.hybrid_bound(P.mk(3), M.bipartitions(3)[0])
        with pytest.raises(NumericalIntegrityError):
            M.hybrid_bound_all(P.svetlichny(4))

    def test_corrupted_doubling_table_exits_5(self, monkeypatch, cli_runner):
        real = M._doubling_table
        monkeypatch.setattr(M, "_doubling_table", lambda first, rows: real(first, rows) + 1)
        result = cli_runner("bounds", "mk", "3", "--models", "hybrid")
        assert result.code == 5

    def test_chunked_scan_matches_single_chunk(self, monkeypatch):
        p = P.svetlichny(6)
        whole = [r.as_dict() for _, r in M.hybrid_bound_all(p)]
        monkeypatch.setattr(M, "_CHUNK_LOG2", 4)
        assert [r.as_dict() for _, r in M.hybrid_bound_all(p)] == whole


class TestHybridWitnessIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_fast_scan_returns_the_oracle_witness(self, n, seed):
        p = random_dyadic(n, np.random.default_rng(seed))
        for partition in M.bipartitions(n):
            fast = M.hybrid_bound(p, partition)
            brute = M.brute_hybrid_bound(p, partition, max_settings=16)
            assert fast.value_exact == brute.value_exact
            assert fast.witness.as_dict() == brute.witness.as_dict()


class TestBipartitions:
    def test_counts(self):
        assert len(M.bipartitions(2)) == 1
        assert len(M.bipartitions(3)) == 3
        assert len(M.bipartitions(4)) == 7
        assert len(M.bipartitions(6)) == 31

    def test_three_party_listing(self):
        assert [b.to_text() for b in M.bipartitions(3)] == [
            "A=1|B=2,3",
            "A=2|B=1,3",
            "A=3|B=1,2",
        ]

    def test_canonical_invariants(self):
        for n in (2, 3, 4, 5, 6):
            for b in M.bipartitions(n):
                size_a = len(b.block_a_parties)
                size_b = len(b.block_b_parties)
                assert 0 < size_a <= size_b
                if size_a == size_b:
                    assert 0 in b.block_a_parties

    def test_constructor_canonicalizes_complement(self):
        # {2,3} of three parties canonicalizes to A={1}
        b = Bipartition(3, 0b110)
        assert b.block_a_parties == (0,)

    def test_text_round_trip(self):
        for n in (2, 3, 4, 5):
            for b in M.bipartitions(n):
                assert Bipartition.from_text(b.to_text()) == b

    def test_from_text_normalizes(self):
        assert Bipartition.from_text("A=2,4|B=1,3") == Bipartition.from_text("A=1,3|B=2,4")

    @pytest.mark.parametrize(
        "text", ["A=1|B=1,2", "A=|B=1,2", "A=1,4|B=2", "nonsense", "A=1|B=3"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(DataFormatError):
            Bipartition.from_text(text)

    def test_invalid_masks(self):
        with pytest.raises(InvalidArgumentError):
            Bipartition(3, 0)
        with pytest.raises(InvalidArgumentError):
            Bipartition(3, 7)
        with pytest.raises(InvalidArgumentError):
            M.bipartitions(1)


class TestHybridBound:
    def test_mk3_reaches_two_on_every_split(self):
        for b in M.bipartitions(3):
            assert M.hybrid_bound(P.mk(3), b).value == 2.0

    def test_svetlichny3_stays_at_one(self):
        for b in M.bipartitions(3):
            assert M.hybrid_bound(P.svetlichny(3), b).value == 1.0

    def test_mk4_two_on_all_seven(self):
        for b in M.bipartitions(4):
            assert M.hybrid_bound(P.mk(4), b).value == 2.0

    def test_witness_reproduces_value(self):
        for poly in (P.mk(3), P.svetlichny(3), P.mk(4), P.svetlichny(5)):
            for b in M.bipartitions(poly.n):
                result = M.hybrid_bound(poly, b)
                w = result.witness
                assert (
                    M.evaluate_hybrid(poly, w.partition, w.block_a, w.block_b)
                    == result.value
                )

    def test_partition_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            M.hybrid_bound(P.mk(3), Bipartition(4, 1))

    def test_block_cap(self):
        big = M.bipartitions(10)[-1]  # a 5|5 split
        with pytest.raises(ResourceLimitError):
            M.hybrid_bound(P.mk(10), big, max_block_size=4)

    def test_single_term_bound(self):
        for b in M.bipartitions(3):
            assert M.brute_hybrid_bound(single_term(3, 0), b).value == 1.0


class TestHybridBoundAll:
    def test_svetlichny4(self):
        scan = M.hybrid_bound_all(P.svetlichny(4))
        values = [r.value for _, r in scan]
        assert values == [2.0] * 7
        assert scan.overall.value == 2.0

    def test_svetlichny5(self):
        scan = M.hybrid_bound_all(P.svetlichny(5))
        assert {r.value for _, r in scan} == {2.0}

    def test_svetlichny3(self):
        scan = M.hybrid_bound_all(P.svetlichny(3))
        assert {r.value for _, r in scan} == {1.0}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_uniform_for_svetlichny(self, n):
        scan = M.hybrid_bound_all(P.svetlichny(n))
        assert len({r.value for _, r in scan}) == 1

    def test_mapping_view(self):
        scan = M.hybrid_bound_all(P.mk(3))
        mapping = scan.as_mapping()
        assert set(mapping) == set(M.bipartitions(3))

    def test_fails_fast_above_cap(self):
        with pytest.raises(ResourceLimitError):
            M.hybrid_bound_all(P.mk(10))


class TestBruteOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_fast_path(self, n):
        polys = [P.mk(n), P.svetlichny(n)]
        if n % 2 == 1:
            polys.append(P.svetlichny_minus(n))
        for poly in polys:
            for b in M.bipartitions(n):
                fast = M.hybrid_bound(poly, b)
                brute = M.brute_hybrid_bound(poly, b)
                assert fast.value == brute.value

    def test_matches_on_random_polynomials(self):
        import numpy as np

        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            masks = rng.choice(1 << n, size=rng.integers(1, 1 << n), replace=False)
            poly = Polynomial(
                n,
                {
                    Term(n, int(m)): DyadicCoefficient(int(rng.integers(-7, 8)) or 1, 2)
                    for m in masks
                },
            )
            for b in M.bipartitions(n):
                assert M.hybrid_bound(poly, b).value == M.brute_hybrid_bound(poly, b).value

    def test_settings_cap(self):
        b = Bipartition.from_text("A=1|B=2,3,4,5")
        with pytest.raises(ResourceLimitError):
            M.brute_hybrid_bound(P.mk(5), b)

    def test_brute_witness_reproduces_value(self):
        for b in M.bipartitions(3):
            result = M.brute_hybrid_bound(P.svetlichny(3), b)
            w = result.witness
            assert M.evaluate_hybrid(P.svetlichny(3), b, w.block_a, w.block_b) == result.value


class TestOrderingInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dominance_chain(self, n):
        for poly in (P.mk(n), P.svetlichny(n)):
            local = M.local_bound(poly).value
            limit = float(P.algebraic_limit(poly))
            for b in M.bipartitions(n):
                hybrid = M.hybrid_bound(poly, b).value
                assert local <= hybrid <= limit

    def test_sign_symmetry_of_witness(self):
        # flipping one party's script negates the value when every term uses it
        poly = P.mk(3)
        result = M.local_bound(poly)
        flipped_settings = list(result.witness.settings)
        a, ap = flipped_settings[0]
        flipped_settings[0] = (-a, -ap)
        assert M.evaluate_local(poly, LocalStrategy(tuple(flipped_settings))) == -result.value


class TestBlockStrategy:
    def test_product_lookup(self):
        # block {party2, party3} of three parties; index bit 0 follows party 2
        s = BlockStrategy((1, 2), (1, -1, 1, -1))
        assert s.product_for(0b010) == -1  # party 2 primed
        assert s.product_for(0b100) == 1  # party 3 primed -> index 2
        assert s.product_for(0b110) == -1  # both primed -> index 3

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            BlockStrategy((0,), (1,))
        with pytest.raises(InvalidArgumentError):
            BlockStrategy((1, 0), (1, 1, 1, 1))

    def test_serialization_is_one_based(self):
        s = BlockStrategy((0, 2), (1, 1, -1, -1))
        assert s.as_dict()["parties"] == [1, 3]


class TestSerialization:
    def test_bound_result_dict(self):
        result = M.local_bound(P.mk(2))
        data = result.as_dict()
        assert data["model"] == "local"
        assert data["value"] == 1.0
        assert data["value_exact"] == "1/2^0"
        assert data["witness"]["type"] == "local"

    def test_hybrid_witness_dict(self):
        result = M.hybrid_bound(P.mk(3), M.bipartitions(3)[0])
        data = result.as_dict()
        assert data["witness"]["partition"] == "A=1|B=2,3"
        assert len(data["witness"]["block_a"]["products"]) == 2
        assert len(data["witness"]["block_b"]["products"]) == 4
