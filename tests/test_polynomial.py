"""Exact construction and algebra of the correlation polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bellpoly import polynomial as P
from bellpoly.errors import DataFormatError, IncompleteDataError, InvalidArgumentError
from bellpoly.polynomial import DyadicCoefficient, Polynomial, Term

HALF = DyadicCoefficient(1, 1)
QUARTER = DyadicCoefficient(1, 2)


def poly_of(n: int, masks: dict[int, DyadicCoefficient]) -> Polynomial:
    return Polynomial(n, {Term(n, m): c for m, c in masks.items()})


@st.composite
def polynomials(draw, max_n: int = 4):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=8))
    coeffs = draw(
        st.lists(
            st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, 4)),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    return poly_of(n, {m: DyadicCoefficient(*c) for m, c in zip(masks, coeffs)})


# ---------------------------------------------------------------------------
# Dyadic coefficients
# ---------------------------------------------------------------------------


class TestDyadic:
    def test_canonicalization(self):
        assert DyadicCoefficient(2, 1) == DyadicCoefficient(1, 0)
        assert DyadicCoefficient(4, 1) == DyadicCoefficient(2, 0)
        assert DyadicCoefficient(0, 5) == DyadicCoefficient(0, 0)
        assert DyadicCoefficient(6, 2).numerator == 3
        assert DyadicCoefficient(6, 2).log2_denominator == 1

    def test_arithmetic(self):
        assert HALF + HALF == 1
        assert HALF - HALF == 0
        assert HALF * HALF == QUARTER
        assert -HALF == DyadicCoefficient(-1, 1)
        assert abs(DyadicCoefficient(-3, 2)) == DyadicCoefficient(3, 2)
        assert float(DyadicCoefficient(3, 2)) == 0.75

    def test_comparisons(self):
        assert QUARTER < HALF < 1 < DyadicCoefficient(3, 1)
        assert DyadicCoefficient(2) == 2
        assert DyadicCoefficient(2) == 2.0

    def test_comparisons_exact_beyond_the_float_range(self):
        tiny = P.from_text("+1/2^1100 * A1").terms[Term(1, 0)]
        assert float(tiny) == 0.0
        assert tiny > 0 and tiny >= 0.0 and not tiny <= 0 and tiny != 0
        assert tiny < DyadicCoefficient(1, 1099) and -tiny < 0
        huge = DyadicCoefficient(10**400)
        assert huge > 1 and huge >= 1.5 and not huge < 1 and huge != 1
        assert huge < float("inf") and huge > -float("inf") and huge != float("inf")

    def test_hash_consistent_with_equal_numbers(self):
        assert hash(DyadicCoefficient(3, 2)) == hash(0.75)
        assert hash(DyadicCoefficient(7)) == hash(7)
        assert hash(DyadicCoefficient(1, 1100)) == hash(Fraction(1, 2**1100))
        assert {0.5: "half"}[HALF] == "half"

    @given(
        st.integers(-(10**30), 10**30),
        st.integers(0, 1200),
        st.one_of(st.integers(-(10**30), 10**30), st.floats()),
    )
    def test_ordering_and_hash_match_fractions(self, num, k, other):
        d, f = DyadicCoefficient(num, k), Fraction(num, 2**k)
        assert (d < other, d <= other, d == other, d >= other, d > other) == (
            f < other, f <= other, f == other, f >= other, f > other
        )
        assert hash(d) == hash(f)

    def test_text_round_trip(self):
        for c in (HALF, QUARTER, DyadicCoefficient(-5, 3), DyadicCoefficient(7)):
            assert DyadicCoefficient.parse(str(c)) == c

    def test_from_float_exact(self):
        assert DyadicCoefficient.from_float(0.75) == DyadicCoefficient(3, 2)
        assert DyadicCoefficient.from_float(-2.0) == -2

    def test_negative_denominator_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DyadicCoefficient(1, -1)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestMk:
    def test_single_party(self):
        assert P.mk(1) == poly_of(1, {0: DyadicCoefficient(1)})

    def test_two_parties(self):
        # (a1 a2 + a1' a2 + a1 a2' - a1' a2') / 2
        assert P.mk(2) == poly_of(2, {0: HALF, 1: HALF, 2: HALF, 3: -HALF})

    def test_three_parties(self):
        # (a1 a2 a3' + a1 a2' a3 + a1' a2 a3 - a1' a2' a3') / 2
        assert P.mk(3) == poly_of(3, {4: HALF, 2: HALF, 1: HALF, 7: -HALF})

    def test_invalid_n(self):
        with pytest.raises(InvalidArgumentError):
            P.mk(0)


class TestPrimeFlip:
    def test_single_party(self):
        assert P.prime_flip(P.mk(1)) == poly_of(1, {1: DyadicCoefficient(1)})

    def test_two_parties_by_hand(self):
        # complement of every mask in mk(2)
        assert P.prime_flip(P.mk(2)) == poly_of(2, {3: HALF, 2: HALF, 1: HALF, 0: -HALF})

    @given(polynomials())
    def test_involution(self, p):
        assert P.prime_flip(P.prime_flip(p)) == p

    @given(polynomials())
    def test_preserves_limit_and_support(self, p):
        flipped = P.prime_flip(p)
        assert P.algebraic_limit(flipped) == P.algebraic_limit(p)
        assert P.support_size(flipped) == P.support_size(p)


class TestSvetlichny:
    def test_three_parties_expansion(self):
        # (M3 + M3')/2: quarters everywhere, minus on all-plain and all-primed
        expected = poly_of(
            3, {m: (-QUARTER if m in (0, 7) else QUARTER) for m in range(8)}
        )
        assert P.svetlichny(3) == expected

    def test_even_equals_mk(self):
        assert P.svetlichny(4) == P.mk(4)
        assert P.svetlichny(6) == P.mk(6)

    def test_support_size(self):
        assert P.support_size(P.svetlichny(3)) == 8

    def test_odd_coefficient_magnitude(self):
        for n in (3, 5):
            expected = DyadicCoefficient(1, (n + 1) // 2)
            assert all(abs(c) == expected for c in P.svetlichny(n).terms.values())
            assert P.support_size(P.svetlichny(n)) == 1 << n

    def test_invalid_n(self):
        with pytest.raises(InvalidArgumentError):
            P.svetlichny(1)


class TestSvetlichnyMinus:
    def test_three_parties_expansion(self):
        expected = poly_of(
            3, {m: (QUARTER if m in (0, 1, 2, 4) else -QUARTER) for m in range(8)}
        )
        assert P.svetlichny_minus(3) == expected

    def test_same_algebraic_limit_as_plus_form(self):
        assert P.algebraic_limit(P.svetlichny_minus(3)) == P.algebraic_limit(P.svetlichny(3))

    def test_prime_flip_negates(self):
        minus = P.svetlichny_minus(3)
        assert P.prime_flip(minus) == P.combine(minus, minus, -1, 0)

    @pytest.mark.parametrize("n", [2, 4, 1])
    def test_invalid_n(self, n):
        with pytest.raises(InvalidArgumentError):
            P.svetlichny_minus(n)


class TestCombine:
    def test_svetlichny_identity(self):
        m3 = P.mk(3)
        assert P.combine(m3, P.prime_flip(m3), HALF, HALF) == P.svetlichny(3)

    def test_cancellation_to_empty(self):
        p = P.mk(3)
        empty = P.combine(p, p, HALF, -HALF)
        assert P.support_size(empty) == 0
        assert P.algebraic_limit(empty) == 0

    def test_mk2_plus_flip(self):
        # M2 + M2' keeps only the two mixed-setting terms
        total = P.combine(P.mk(2), P.prime_flip(P.mk(2)), 1, 1)
        assert total == poly_of(2, {1: DyadicCoefficient(1), 2: DyadicCoefficient(1)})

    def test_mismatched_n(self):
        with pytest.raises(InvalidArgumentError):
            P.combine(P.mk(2), P.mk(3), 1, 1)


class TestTensorProduct:
    def test_single_terms(self):
        one = poly_of(1, {0: DyadicCoefficient(1)})
        assert P.tensor_product(one, one) == poly_of(2, {0: DyadicCoefficient(1)})

    def test_product_is_not_the_recursion(self):
        assert P.tensor_product(P.mk(1), P.mk(1)) != P.mk(2)

    def test_splitting_identity_four_two(self):
        m2 = P.mk(2)
        m2f = P.prime_flip(m2)
        rebuilt = P.combine(
            P.tensor_product(m2, P.combine(m2, m2f, 1, 1)),
            P.tensor_product(m2f, P.combine(m2, m2f, 1, -1)),
            HALF,
            HALF,
        )
        assert rebuilt == P.mk(4)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_splitting_identity_all_splits(self, n):
        for k in range(1, n):
            left = P.mk(n - k)
            leftf = P.prime_flip(left)
            right = P.mk(k)
            rightf = P.prime_flip(right)
            rebuilt = P.combine(
                P.tensor_product(left, P.combine(right, rightf, 1, 1)),
                P.tensor_product(leftf, P.combine(right, rightf, 1, -1)),
                HALF,
                HALF,
            )
            assert rebuilt == P.mk(n), f"split {n - k}+{k} disagrees"


# ---------------------------------------------------------------------------
# Queries and laws
# ---------------------------------------------------------------------------


class TestAlgebraicLimit:
    def test_known_values(self):
        assert P.algebraic_limit(P.mk(1)) == 1
        assert P.algebraic_limit(P.mk(2)) == 2
        assert P.algebraic_limit(P.mk(3)) == 2
        assert P.algebraic_limit(P.mk(4)) == 4

    @pytest.mark.parametrize("n", range(2, 11))
    def test_power_law(self, n):
        expected = 1 << (n // 2)
        assert P.algebraic_limit(P.mk(n)) == expected


class TestSupport:
    def test_known_sizes(self):
        assert P.support_size(P.mk(2)) == 4
        assert P.support_size(P.mk(3)) == 4
        assert P.support_size(P.mk(4)) == 16

    @pytest.mark.parametrize("n", range(2, 11))
    def test_support_law(self, n):
        expected = 1 << n if n % 2 == 0 else 1 << (n - 1)
        assert P.support_size(P.mk(n)) == expected

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_supports_disjoint_exhaustive(self, n):
        masks = {t.prime_mask for t in P.mk(n).terms}
        flipped = {t.prime_mask for t in P.prime_flip(P.mk(n)).terms}
        assert not masks & flipped
        assert masks | flipped == set(range(1 << n))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_split_halves(self, n):
        m = P.mk(n)
        mf = P.prime_flip(m)
        plus = P.combine(m, mf, 1, 1)
        minus = P.combine(m, mf, 1, -1)
        masks_plus = {t.prime_mask for t in plus.terms}
        masks_minus = {t.prime_mask for t in minus.terms}
        assert not masks_plus & masks_minus
        assert masks_plus | masks_minus == set(range(1 << n))
        assert P.algebraic_limit(plus) == P.algebraic_limit(m)
        assert P.algebraic_limit(minus) == P.algebraic_limit(m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_uniform_coefficient_magnitude(self, n):
        magnitudes = {abs(c) for c in P.mk(n).terms.values()}
        assert len(magnitudes) == 1


class TestEvaluate:
    def test_all_ones(self):
        ones = {t: 1.0 for t in P.mk(2).terms}
        assert P.evaluate(P.mk(2), ones) == 1.0

    def test_zero_vector(self):
        zeros = {t: 0.0 for t in P.mk(3).terms}
        assert P.evaluate(P.mk(3), zeros) == 0.0

    def test_sign_matched_reaches_limit(self):
        m3 = P.mk(3)
        aligned = {t: (1.0 if c.numerator > 0 else -1.0) for t, c in m3.terms.items()}
        assert P.evaluate(m3, aligned) == 2.0

    def test_missing_term_named(self):
        m2 = P.mk(2)
        partial = {t: 1.0 for t in list(m2.terms)[:-1]}
        with pytest.raises(IncompleteDataError) as err:
            P.evaluate(m2, partial)
        assert "A1' A2'" in str(err.value)
        assert len(err.value.missing) == 1

    def test_correlation_vector_input(self):
        cv = P.CorrelationVector(2, {t: 0.5 for t in P.mk(2).terms})
        assert P.evaluate(P.mk(2), cv) == pytest.approx(0.5)

    @given(polynomials(max_n=3), st.integers(0, 2**31 - 1))
    def test_linearity_in_polynomial(self, p, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        values = {Term(p.n, m): float(rng.uniform(-1, 1)) for m in range(1 << p.n)}
        doubled = P.combine(p, p, 1, 1)
        assert P.evaluate(doubled, values) == pytest.approx(2 * P.evaluate(p, values))

    @given(polynomials(max_n=3), st.integers(0, 2**31 - 1))
    def test_linearity_in_correlations(self, p, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        masks = range(1 << p.n)
        first = {Term(p.n, m): float(rng.uniform(-0.5, 0.5)) for m in masks}
        second = {Term(p.n, m): float(rng.uniform(-0.5, 0.5)) for m in masks}
        summed = {t: first[t] + second[t] for t in first}
        assert P.evaluate(p, summed) == pytest.approx(
            P.evaluate(p, first) + P.evaluate(p, second)
        )

    def test_out_of_range_correlation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            P.CorrelationVector(1, {Term(1, 0): 1.5})


# ---------------------------------------------------------------------------
# Text and structured forms
# ---------------------------------------------------------------------------


class TestTextForm:
    def test_mk1_line(self):
        assert P.to_text(P.mk(1)) == "+1/2^0 * A1"

    def test_masks_ascending(self):
        lines = P.to_text(P.mk(2)).splitlines()
        assert lines == [
            "+1/2^1 * A1 A2",
            "+1/2^1 * A1' A2",
            "+1/2^1 * A1 A2'",
            "-1/2^1 * A1' A2'",
        ]

    @given(polynomials())
    def test_round_trip(self, p):
        if P.support_size(p) == 0:
            return
        assert P.from_text(P.to_text(p)) == p

    def test_round_trip_named(self):
        for p in (P.mk(4), P.svetlichny(5), P.svetlichny_minus(3)):
            assert P.from_text(P.to_text(p)) == p

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n+1/2^0 * A1\n"
        assert P.from_text(text) == P.mk(1)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(DataFormatError) as err:
            P.from_text("+1/2^0 * A1\ngarbage\n")
        assert "line 2" in str(err.value)

    def test_duplicate_term_rejected(self):
        with pytest.raises(DataFormatError):
            P.from_text("+1/2^0 * A1\n+1/2^1 * A1\n")

    def test_inconsistent_party_count_rejected(self):
        with pytest.raises(DataFormatError):
            P.from_text("+1/2^0 * A1\n+1/2^0 * A1 A2\n")

    def test_empty_needs_explicit_n(self):
        with pytest.raises(DataFormatError):
            P.from_text("# nothing\n")


class TestStructuredForm:
    @given(polynomials())
    def test_round_trip(self, p):
        assert P.from_dict(P.to_dict(p)) == p

    def test_shape(self):
        data = P.to_dict(P.mk(2))
        assert data["n"] == 2
        assert {entry["prime_mask"] for entry in data["terms"]} == {0, 1, 2, 3}
        assert all(entry["log2_denominator"] == 1 for entry in data["terms"])


class TestTypes:
    def test_term_validation(self):
        with pytest.raises(InvalidArgumentError):
            Term(2, 4)
        with pytest.raises(InvalidArgumentError):
            Term(0, 0)

    def test_term_labels(self):
        assert Term(3, 0b101).label() == "A1' A2 A3'"

    def test_polynomial_rejects_foreign_terms(self):
        with pytest.raises(InvalidArgumentError):
            Polynomial(2, {Term(3, 0): DyadicCoefficient(1)})

    def test_polynomial_rejects_zero_coefficients(self):
        with pytest.raises(InvalidArgumentError):
            Polynomial(1, {Term(1, 0): DyadicCoefficient(0)})

    def test_empty_polynomial_is_legal(self):
        empty = Polynomial(3, {})
        assert P.algebraic_limit(empty) == 0
        assert P.support_size(empty) == 0
