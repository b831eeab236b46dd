"""Exact construction and algebra of the correlation polynomials."""

from __future__ import annotations

import ast
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellpoly import classify as C
from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly import quantum as Q
from bellpoly.errors import DataFormatError, IncompleteDataError, InvalidArgumentError
from bellpoly.polynomial import DyadicCoefficient, Polynomial, Term

from conftest import chsh_frame

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

    @given(st.integers(-(10**6), 10**6), st.integers(0, 1500), st.integers(0, 1500))
    def test_canonical_form_matches_halving(self, base, zeros, k):
        num = base << zeros
        # reference: halve while the exponent allows and the numerator is even
        expected_num, expected_k = num, 0 if num == 0 else k
        while expected_num and expected_k > 0 and expected_num % 2 == 0:
            expected_num //= 2
            expected_k -= 1
        d = DyadicCoefficient(num, k)
        assert (d.numerator, d.log2_denominator) == (expected_num, expected_k)


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

    def test_recurrence_matches_the_dyadic_algebra(self):
        # M_m = (1/2) M_{m-1} (a + a') + (1/2) M'_{m-1} (a - a'), and the odd
        # Svetlichny forms (M +- M')/2, through combine/tensor_product/prime_flip
        plus = poly_of(1, {0: DyadicCoefficient(1), 1: DyadicCoefficient(1)})
        minus = poly_of(1, {0: DyadicCoefficient(1), 1: DyadicCoefficient(-1)})
        m = P.mk(1)
        for n in range(2, 12):
            m = P.combine(
                P.tensor_product(m, plus), P.tensor_product(P.prime_flip(m), minus), HALF, HALF
            )
            assert P.mk(n) == m, n
            if n % 2:
                flipped = P.prime_flip(m)
                assert P.svetlichny(n) == P.combine(m, flipped, HALF, HALF), n
                assert P.svetlichny_minus(n) == P.combine(m, flipped, HALF, -HALF), n


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

    @pytest.mark.parametrize(
        ("n", "message"),
        [
            pytest.param(2, "party count must be an integer >= 3, got 2", id="2"),
            pytest.param(4, "svetlichny_minus is defined for odd n only, got 4", id="4"),
            pytest.param(1, "party count must be an integer >= 3, got 1", id="1"),
        ],
    )
    def test_invalid_n(self, n, message):
        with pytest.raises(InvalidArgumentError) as err:
            P.svetlichny_minus(n)
        assert str(err.value) == message


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

    FULL2 = {Term(2, m): 0.5 for m in range(4)}

    @pytest.mark.parametrize(
        ("values", "message"),
        [
            pytest.param(
                {**FULL2, Term(2, 0): float("nan")},
                "correlation value for A1 A2 is nan, outside [-1, 1]",
                id="nan",
            ),
            pytest.param(
                {**FULL2, Term(2, 0): 7.0},
                "correlation value for A1 A2 is 7.0, outside [-1, 1]",
                id="7.0",
            ),
            pytest.param(
                {**FULL2, "x": 0.5}, "correlation keys must be Term, got 'x'", id="str-key"
            ),
            pytest.param(
                {**FULL2, Term(3, 0): 0.5},
                "term A1 A2 A3 has 3 parties, correlation vector has 2",
                id="term-of-another-n",
            ),
            pytest.param(
                {Term(3, m): 0.5 for m in range(8)},
                "term A1 A2 A3 has 3 parties, correlation vector has 2",
                id="mapping-of-another-n",
            ),
        ],
    )
    def test_plain_mapping_checked_as_correlation_vector(self, values, message):
        with pytest.raises(InvalidArgumentError) as err:
            P.evaluate(P.mk(2), values)
        assert type(err.value) is InvalidArgumentError and str(err.value) == message

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

    def test_numeric_string_correlation_still_accepted(self):
        assert P.CorrelationVector(2, {Term(2, 0): "0.5"}).values == {Term(2, 0): 0.5}


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

    def test_sparse_many_party_text(self):
        """The text of 4 terms over 80 parties formats 4 labels, not 2 * 2^40 half labels."""
        p = P.from_dict({"n": 40, "terms": [
            {"prime_mask": 5, "numerator": -1, "log2_denominator": 0},
            {"prime_mask": 2**39 + 1, "numerator": 3, "log2_denominator": 2},
        ]})
        q = P.tensor_product(p, p)
        start = time.perf_counter()
        text = P.to_text(q)
        elapsed = time.perf_counter() - start
        lines = text.splitlines()
        assert len(lines) == 4 and elapsed < 0.1
        primed = (0, 2, 40, 42)
        assert lines[0] == "+1/2^0 * " + " ".join(
            f"A{j + 1}'" if j in primed else f"A{j + 1}" for j in range(80)
        )
        assert [line.split(" * ")[0] for line in lines] == ["+1/2^0", "-3/2^2", "-3/2^2", "+9/2^4"]
        assert P.from_text(text) == q

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


# ---------------------------------------------------------------------------
# Mask-keyed storage and the Term view
# ---------------------------------------------------------------------------


@pytest.fixture
def terms_made(monkeypatch):
    """Every Term constructed while the test runs, in order."""
    made = []
    check = Term.__post_init__

    def counting(term):
        check(term)
        made.append(term)

    monkeypatch.setattr(Term, "__post_init__", counting)
    return made


@st.composite
def mask_dicts(draw):
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=1 << n))
    coefs = draw(
        st.lists(
            st.builds(DyadicCoefficient, st.integers(-99, 99).filter(bool), st.integers(0, 6)),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    return n, dict(zip(masks, coefs))


ONE = DyadicCoefficient(1)
BAD = InvalidArgumentError


class TestTermView:
    def test_library_paths_make_no_terms(self, terms_made):
        P.mk.cache_clear()
        polys = [P.mk(12), P.svetlichny(11), P.svetlichny_minus(11)]
        M.local_bound(P.mk(10))
        M.hybrid_bound_all(P.svetlichny(8))
        for p in polys:
            P.algebraic_limit(p)
            P.to_dict(p)
            P.to_text(p)
            P._coefficient_tensor(p)
            P.combine(p, P.prime_flip(p), HALF, HALF)
        P.tensor_product(P.mk(3), P.svetlichny(4))
        P.mk.cache_clear()
        assert terms_made == []

    def test_lookups_make_no_terms(self, terms_made):
        p = P.svetlichny(5)
        probe = Term(5, 3)
        del terms_made[:]
        eighth = DyadicCoefficient(1, 3)
        assert p.terms[probe] == p.terms.get(probe) == p.coefficient(probe) == eighth
        assert probe in p.terms and len(p.terms) == 32 and p.terms
        assert p == P.svetlichny(5) and p.terms == P.svetlichny(5).terms
        assert terms_made == []

    def test_keys_and_repr_read_the_terms(self):
        p = P.mk(1)
        assert list(p.terms.keys()) == [Term(1, 0)]
        assert repr(p.terms) == f"_TermView({{{Term(1, 0)!r}: {DyadicCoefficient(1)!r}}})"
        assert (HALF == "1/2^1", HALF != "1/2^1") == (False, True)

    def test_iterating_twice_makes_each_term_once(self, terms_made):
        p = P.svetlichny(5)
        first = list(p.terms)
        second = list(p.terms.items())
        assert len(terms_made) == len(p.terms) == 32
        assert first == [t for t, _ in second] == terms_made
        assert [t.prime_mask for t in first] == list(range(32))

    @given(mask_dicts())
    def test_every_construction_path_agrees(self, case):
        n, masks = case
        by_terms = Polynomial(n, {Term(n, m): c for m, c in masks.items()})
        expected = [(Term(n, m), masks[m]) for m in sorted(masks)]
        k = max((c.log2_denominator for c in masks.values()), default=0)
        numerators = [c.numerator << (k - c.log2_denominator) for _, c in expected]
        for p in (
            by_terms,
            P._build(n, sorted(masks), numerators, k),
            P.from_dict(P.to_dict(by_terms)),
            P.from_text(P.to_text(by_terms), n),
        ):
            assert p == by_terms
            assert list(p.terms.items()) == expected
            assert all(type(c) is DyadicCoefficient for c in p.terms.values())

    @pytest.mark.parametrize(
        ("make", "error", "message"),
        [
            (lambda: P._build(2, [4], [1], 0), BAD, "prime_mask must lie in [0, 2^2), got 4"),
            pytest.param(
                lambda: P._build(2, [1], [0], 0),
                BAD,
                "zero coefficients must not be stored",
                id="build-zero",
            ),
            *(
                pytest.param(
                    lambda masks=masks: P._build(2, masks, [1, 1], 0),
                    BAD,
                    "prime masks must be strictly ascending",
                    id=f"build-masks-{masks}",
                )
                for masks in ([2, 1], [1, 1])
            ),
            (lambda: Polynomial(2, {"x": ONE}), BAD, "polynomial keys must be Term, got 'x'"),
            (
                lambda: P.CorrelationVector(2, {"x": 0.5}),
                BAD,
                "correlation keys must be Term, got 'x'",
            ),
            *(
                pytest.param(
                    lambda value=value: P.CorrelationVector(2, {Term(2, 0): value}),
                    BAD,
                    f"correlation value for A1 A2 must be a real number, got {value!r}",
                    id=f"correlation-value-{value!r}",
                )
                for value in ("abc", None, 1j)
            ),
            (
                lambda: P.from_dict({"n": 2, "terms": [
                    {"prime_mask": -1, "numerator": 1, "log2_denominator": 0}
                ]}),
                BAD,
                "prime_mask must lie in [0, 2^2), got -1",
            ),
            (
                lambda: Polynomial(2, {Term(3, 5): ONE}),
                BAD,
                "term A1' A2 A3' has 3 parties, polynomial has 2",
            ),
            (
                lambda: Polynomial(1, {Term(1, 0): DyadicCoefficient(0)}),
                BAD,
                "zero coefficients must not be stored",
            ),
            (
                lambda: P.from_text("+0/2^0 * A1"),
                DataFormatError,
                "line 1: zero coefficients are not allowed",
            ),
            (lambda: Polynomial(1, {Term(1, 0): 0.5}), BAD, "coefficients must be DyadicCoefficient"),
            (lambda: Polynomial(1, {Term(1, 0): 1}), BAD, "coefficients must be DyadicCoefficient"),
            (
                lambda: P.from_text("+1/3 * A1"),
                DataFormatError,
                "line 1: not a polynomial term: '+1/3 * A1'",
            ),
            (lambda: Polynomial(0, {}), BAD, "party count must be an integer >= 1, got 0"),
            (lambda: P._build(0, [0], [1], 0), BAD, "party count must be an integer >= 1, got 0"),
            pytest.param(
                lambda: Term(2, True), BAD, "prime_mask must lie in [0, 2^2), got True", id="bool-mask-term"
            ),
            (lambda: Term(2, 1).primed(2), BAD, "party index 2 out of range for n=2"),
            *(
                pytest.param(
                    lambda party=party: Term(3, 1).primed(party),
                    BAD,
                    f"party index {party!r} out of range for n=3",
                    id=f"primed-{party!r}",
                )
                for party in (True, 1.0, -1)
            ),
            (lambda: DyadicCoefficient(1.5), BAD, "dyadic parts must be integers"),
            (lambda: DyadicCoefficient(1, 0.0), BAD, "dyadic parts must be integers"),
            (lambda: DyadicCoefficient(True), BAD, "dyadic parts must be integers"),
            (lambda: DyadicCoefficient(1, True), BAD, "dyadic parts must be integers"),
            (
                lambda: DyadicCoefficient.parse("x"),
                DataFormatError,
                "cannot parse dyadic value 'x' (expected p/2^k)",
            ),
            *(
                pytest.param(
                    lambda x=x: DyadicCoefficient.from_float(x),
                    BAD,
                    f"cannot convert {x!r} to a dyadic rational",
                    id=f"from-float-{x!r}",
                )
                for x in (float("inf"), float("nan"))
            ),
            (lambda: HALF + "x", BAD, "cannot interpret 'x' as a dyadic rational"),
            (
                lambda: P.CorrelationVector(2, {Term(3, 0): 0.5}),
                BAD,
                "term A1 A2 A3 has 3 parties, correlation vector has 2",
            ),
            *(
                pytest.param(
                    lambda text=text: P.from_text(text),
                    DataFormatError,
                    f"line 1: {message}",
                    id=f"from-text-{text!r}",
                )
                for text, message in (
                    ("+1/2^0 * A2 A1", "parties must read 'A1 A2', got 'A2 A1'"),
                    ("+1/2^0 * A01", "parties must read 'A1', got 'A01'"),
                    ("+1/2^0 * A1 A1", "parties must read 'A1 A2', got 'A1 A1'"),
                    ("+1/2^0 * A1 A2''", 'parties must read "A1 A2\'", got "A1 A2\'\'"'),
                    ("+1/2^0 * A1 B2", "parties must read 'A1 A2', got 'A1 B2'"),
                    ("1/2^0 * A1", "not a polynomial term: '1/2^0 * A1'"),
                    ("+1/2^0 *", "not a polynomial term: '+1/2^0 *'"),
                    ("+1/2^0 A1", "not a polynomial term: '+1/2^0 A1'"),
                    ("+1/2^-1 * A1", "not a polynomial term: '+1/2^-1 * A1'"),
                )
            ),
            *(
                pytest.param(make, BAD, "party count must be an integer >= 1, got True", id=name)
                for name, make in (
                    ("bool-n-from-dict", lambda: P.from_dict({"n": True, "terms": [
                        {"prime_mask": 0, "numerator": 1, "log2_denominator": 0}
                    ]})),
                    ("bool-n-term", lambda: Term(True, 1)),
                    ("bool-n-polynomial", lambda: Polynomial(True, {})),
                )
            ),
            (
                lambda: P.from_dict({"n": -1, "terms": []}),
                BAD,
                "party count must be an integer >= 1, got -1",
            ),
            (
                lambda: P.from_dict({"n": 2, "terms": [
                    {"prime_mask": 1, "numerator": 1, "log2_denominator": -1}
                ]}),
                BAD,
                "log2_denominator must be non-negative",
            ),
            *(
                pytest.param(
                    lambda entry=entry: P.from_dict({"n": 2, "terms": [
                        {"prime_mask": 1, "numerator": 1, "log2_denominator": 0, **entry}
                    ]}),
                    DataFormatError,
                    f"malformed structured polynomial: {name} must be an integer, got {value!r}",
                    id=f"from-dict-{name}-{value!r}",
                )
                for entry in (
                    {"prime_mask": 1.5},
                    {"numerator": 1.5},
                    {"log2_denominator": 0.0},
                    {"prime_mask": "x"},
                    {"numerator": "1"},
                    {"prime_mask": True},
                    {"log2_denominator": None},
                )
                for name, value in entry.items()
            ),
            *(
                pytest.param(
                    lambda data=data: P.from_dict(data),
                    DataFormatError,
                    f"malformed structured polynomial: {detail}",
                    id=f"from-dict-{detail}",
                )
                for data, detail in (
                    ({"terms": []}, "'n'"),
                    ({"n": 1, "terms": [{"prime_mask": 0}]}, "'numerator'"),
                    ({"n": 1, "terms": 5}, "'int' object is not iterable"),
                )
            ),
            (
                lambda: P.from_dict({"n": 1, "terms": [
                    {"prime_mask": 0, "numerator": 1, "log2_denominator": 0},
                    {"prime_mask": 0, "numerator": 2, "log2_denominator": 1},
                ]}),
                DataFormatError,
                "duplicate prime_mask in structured polynomial",
            ),
        ],
    )
    def test_bad_input_errors(self, make, error, message):
        with pytest.raises(error) as err:
            make()
        assert type(err.value) is error and str(err.value) == message

    def test_zero_coefficients_dropped_by_structured_input(self):
        data = {"n": 1, "terms": [{"prime_mask": 1, "numerator": 0, "log2_denominator": 3}]}
        assert P.from_dict(data) == Polynomial(1, {})

    @pytest.mark.parametrize("absent", [Term(2, 1), Term(3, 0), "A1 A2'", 1])
    def test_absent_keys(self, absent):
        p = P.mk(3)
        with pytest.raises(KeyError):
            p.terms[absent]
        assert p.terms.get(absent, "default") == "default"
        assert absent not in p.terms
        if isinstance(absent, Term):
            assert p.coefficient(absent) is P.ZERO

    def test_view_equality_follows_the_term_keys(self):
        one, two = Polynomial(1, {Term(1, 0): ONE}), Polynomial(2, {Term(2, 0): ONE})
        assert one.terms != two.terms and one != two
        assert one.terms == {Term(1, 0): ONE} != two.terms
        assert Polynomial(1, {}).terms == Polynomial(2, {}).terms == {}

    def test_view_is_read_only(self):
        p = P.mk(2)
        with pytest.raises(TypeError):
            p.terms[Term(2, 0)] = ONE  # type: ignore[index]
        assert not hasattr(p.terms, "pop")


# ---------------------------------------------------------------------------
# The array store against the {prime mask: coefficient} dict it replaced
# ---------------------------------------------------------------------------


def oracle_combine(p: dict, q: dict, a: DyadicCoefficient, b: DyadicCoefficient) -> dict:
    out: dict[int, DyadicCoefficient] = {}
    for poly, w in ((p, a), (q, b)):
        if w.numerator == 0:
            continue
        for mask, c in poly.items():
            acc = out.get(mask, P.ZERO) + w * c
            if acc.numerator == 0:
                out.pop(mask, None)
            else:
                out[mask] = acc
    return out


def oracle_tensor_product(p: dict, p_n: int, q: dict) -> dict:
    return {mp | (mq << p_n): cp * cq for mp, cp in p.items() for mq, cq in q.items()}


def oracle_prime_flip(p: dict, n: int) -> dict:
    return {mask ^ ((1 << n) - 1): c for mask, c in p.items()}


def oracle_dict(n: int, p: dict) -> dict:
    return {
        "n": n,
        "terms": [
            {"prime_mask": m, "numerator": c.numerator, "log2_denominator": c.log2_denominator}
            for m, c in sorted(p.items())
        ],
    }


def oracle_text(n: int, p: dict) -> str:
    return "\n".join(
        f"{'+' if c.numerator > 0 else '-'}{abs(c.numerator)}/2^{c.log2_denominator} * {Term(n, m).label()}"
        for m, c in sorted(p.items())
    )


def oracle_tensors(n: int, p: dict) -> tuple[np.ndarray, list, int]:
    """The float tensor, the scaled integers as a nested list, and K, one term at a time."""
    k = max((c.log2_denominator for c in p.values()), default=0)
    floats, scaled = np.zeros((2,) * n), np.zeros((2,) * n, dtype=object)
    for mask, c in p.items():
        index = tuple((mask >> j) & 1 for j in range(n))
        floats[index] = float(c)
        scaled[index] = c.numerator << (k - c.log2_denominator)
    return floats, scaled.tolist(), k


# numerators at, near and past int64's range, and small ones
WIDE = st.one_of(
    st.integers(-99, 99),
    st.integers(-(2**66), 2**66),
    st.sampled_from([2**62, 2**63 - 1, 2**63, 2**64 + 1]).flatmap(lambda v: st.sampled_from([v, -v])),
)


@st.composite
def wide_dicts(draw, n: int) -> dict:
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=1 << n))
    return {
        m: DyadicCoefficient(draw(WIDE.filter(bool)), draw(st.integers(0, 70))) for m in masks
    }


@st.composite
def oracle_cases(draw):
    n, r_n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    weights = st.builds(DyadicCoefficient, WIDE, st.integers(0, 70))
    return n, draw(wide_dicts(n)), draw(wide_dicts(n)), r_n, draw(wide_dicts(r_n)), draw(weights), draw(weights)


class TestArrayStore:
    @settings(deadline=None)
    @given(oracle_cases())
    def test_matches_the_dict_oracle(self, case):
        n, p_dict, q_dict, r_n, r_dict, alpha, beta = case
        p = P.from_dict(oracle_dict(n, p_dict))
        q = P.from_text(oracle_text(n, q_dict), n)
        r = Polynomial(r_n, {Term(r_n, m): c for m, c in r_dict.items()})
        assert P.to_dict(p) == oracle_dict(n, p_dict) and P.to_text(q) == oracle_text(n, q_dict)
        for got, n_out, expected in (
            (P.combine(p, q, alpha, beta), n, oracle_combine(p_dict, q_dict, alpha, beta)),
            (P.combine(p, p, alpha, -alpha), n, {}),
            (P.prime_flip(p), n, oracle_prime_flip(p_dict, n)),
            (P.tensor_product(p, r), n + r_n, oracle_tensor_product(p_dict, n, r_dict)),
            (P.tensor_product(r, q), r_n + n, oracle_tensor_product(r_dict, r_n, q_dict)),
        ):
            assert P.to_dict(got) == oracle_dict(n_out, expected)
            assert got == P.from_dict(oracle_dict(n_out, expected))
            assert P.algebraic_limit(got) == sum((abs(c) for c in expected.values()), P.ZERO)
            floats, scaled, k = oracle_tensors(n_out, expected)
            assert P._coefficient_tensor(got).tolist() == floats.tolist()
            tensor, tensor_k = P._scaled_tensor(got)
            assert (tensor.tolist(), tensor_k) == (scaled, k)
            # int64 where every numerator at the common denominator fits, Python ints past it
            numerators = P._store(got)[1]
            wide = any(abs(v) >= 2**63 for v in numerators.tolist())
            assert numerators.dtype == (object if wide else np.int64)

    def test_masks_past_62_parties_are_python_ints(self):
        p_dict = {2**39 + 1: DyadicCoefficient(3, 2), 5: DyadicCoefficient(-1)}
        p = P.from_dict(oracle_dict(40, p_dict))
        wide, wide_dict = P.tensor_product(p, p), oracle_tensor_product(p_dict, 40, p_dict)
        flipped = oracle_prime_flip(wide_dict, 80)
        assert P._store(wide)[0].dtype == object
        for got, expected in (
            (wide, wide_dict),
            (P.prime_flip(wide), flipped),
            (P.combine(wide, P.prime_flip(wide), 1, HALF), oracle_combine(wide_dict, flipped, 1, HALF)),
        ):
            assert P.to_dict(got) == oracle_dict(80, expected)
        assert wide.terms[Term(80, 5 | 5 << 40)] == 1


class TestTwentyParties:
    @pytest.fixture(autouse=True)
    def fresh_mk_cache(self):
        P.mk.cache_clear()
        yield
        P.mk.cache_clear()

    @pytest.mark.parametrize(
        "make, n, support, limit",
        [
            (P.mk, 20, 2**20, lambda: C.mk_bound(20, C.ModelKind.algebraic())),
            (P.svetlichny, 19, 2**19, lambda: C.svetlichny_bounds(19).bounds[C.ModelKind.algebraic()]),
            (P.svetlichny, 20, 2**20, lambda: C.svetlichny_bounds(20).bounds[C.ModelKind.algebraic()]),
            (P.svetlichny_minus, 19, 2**19, lambda: C.svetlichny_bounds(19).bounds[C.ModelKind.algebraic()]),
        ],
        ids=["mk-20", "svetlichny-19", "svetlichny-20", "svetlichny_minus-19"],
    )
    def test_support_limit_and_tensor(self, make, n, support, limit):
        p = make(n)
        assert P.support_size(p) == support
        half_exponent = limit().half_exponent
        assert half_exponent % 2 == 0
        assert P.algebraic_limit(p) == 1 << (half_exponent // 2)
        tensor, k = P._scaled_tensor(p)
        assert int(np.abs(tensor).sum(dtype=np.int64)) == 1 << (half_exponent // 2 + k)


class TestLayering:
    """polynomial alone reads its coefficient store; quantum needs nothing from models.

    cli states no verdict or model rule of its own, so it reads no private name
    of classify or models.
    """

    SOURCES = Path(P.__file__).parent

    def test_quantum_imports_nothing_from_models(self):
        tree = ast.parse((self.SOURCES / "quantum.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names if not node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {name for name in imported if name.split(".")[-1] == "models"}

    @pytest.mark.parametrize("name", ["_store", "_numerators", "_tensor"])
    def test_store_readers_stay_in_polynomial(self, name):
        users = [
            path.name
            for path in sorted(self.SOURCES.glob("*.py"))
            if re.search(rf"\b{name}\b", path.read_text())
        ]
        assert users == ["polynomial.py"]

    def test_cli_reads_no_private_name_of_any_module(self):
        tree = ast.parse((self.SOURCES / "cli.py").read_text())
        read = {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
        imported = {
            f"{(node.module or '').split('.')[-1]}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        modules = "|".join(path.stem for path in self.SOURCES.glob("*.py"))
        assert "classify.depth_thresholds" in read
        assert not {name for name in read | imported if re.match(rf"({modules})\._", name)}


SPLIT3 = M.Bipartition(3, 0b001)  # A={1}, B={2,3}
FLOOR_ENTRIES = [
    ("mk", 1, P.mk),
    ("svetlichny", 2, P.svetlichny),
    ("svetlichny_minus", 3, P.svetlichny_minus),
    ("Bipartition", 2, lambda n: M.Bipartition(n, 1)),
    ("bipartitions", 2, M.bipartitions),
    ("mk_bound", 2, lambda n: C.mk_bound(n, C.ModelKind.local())),
    ("svetlichny_bounds", 3, C.svetlichny_bounds),
    ("entanglement_depth_verdict", 2, lambda n: C.entanglement_depth_verdict(1.0, n)),
    ("nonseparability_verdict", 2, lambda n: C.nonseparability_verdict(1.0, n)),
    ("Term", 1, lambda n: Term(n, 0)),
    ("Polynomial", 1, lambda n: Polynomial(n, {})),
    # the floor is checked before the term keys' counts
    ("Polynomial-with-term", 1, lambda n: Polynomial(n, {Term(1, 0): ONE})),
    ("CorrelationVector", 1, lambda n: P.CorrelationVector(n, {})),
    ("PureState", 1, lambda n: Q.PureState(n, [1])),
    ("DensityMatrix", 1, lambda n: Q.DensityMatrix(n, [[1]])),
    ("BellOperator", 1, lambda n: Q.BellOperator(n, [[1]], (P.mk(1), chsh_frame()))),
    ("ghz", 1, Q.ghz),
    ("basis_state", 1, lambda n: Q.basis_state(n, 0)),
    ("BoundTable", 2, lambda n: C.BoundTable("mk", n, {})),
]

STATE3_POLY2 = "state has 3 parties, polynomial has 2"
POLY3_FRAME2 = "polynomial has 3 parties, frame has 2"
SPLIT3_POLY2 = "bipartition has 3 parties, polynomial has 2"
AGREEMENT_CASES = [
    ("parse_state-ghz", lambda: Q.parse_state("ghz:4", 3), "state has 4 parties, polynomial has 3"),
    (
        "parse_state-basis",
        lambda: Q.parse_state("basis:2:1", 3),
        "state has 2 parties, polynomial has 3",
    ),
    ("seesaw", lambda: Q.seesaw(P.mk(2), Q.ghz(3), restarts=1, seed=0), STATE3_POLY2),
    (
        "effective_bloch-state",
        lambda: Q.effective_bloch(P.mk(2), chsh_frame(), Q.ghz(3), 0, False),
        STATE3_POLY2,
    ),
    (
        "effective_bloch-frame",
        lambda: Q.effective_bloch(P.mk(3), chsh_frame(), Q.ghz(3), 0, False),
        POLY3_FRAME2,
    ),
    ("bell_operator", lambda: Q.bell_operator(P.mk(3), chsh_frame()), POLY3_FRAME2),
    (
        "expectation",
        lambda: Q.expectation(Q.bell_operator(P.mk(2), chsh_frame()), Q.ghz(3)),
        "state has 3 parties, operator has 2",
    ),
    (
        "evaluate_local",
        lambda: M.evaluate_local(P.mk(3), M.LocalStrategy(((1, 1), (1, 1)))),
        "strategy has 2 parties, polynomial has 3",
    ),
    ("hybrid_bound", lambda: M.hybrid_bound(P.mk(2), SPLIT3), SPLIT3_POLY2),
    ("brute_hybrid_bound", lambda: M.brute_hybrid_bound(P.mk(2), SPLIT3), SPLIT3_POLY2),
    (
        "evaluate_hybrid",
        lambda: M.evaluate_hybrid(
            P.mk(2), SPLIT3, M.BlockStrategy((0,), (1, 1)), M.BlockStrategy((1, 2), (1,) * 4)
        ),
        SPLIT3_POLY2,
    ),
    (
        "evaluate",
        lambda: P.evaluate(P.mk(3), P.CorrelationVector(2, {})),
        "correlation vector has 2 parties, polynomial has 3",
    ),
    (
        "combine",
        lambda: P.combine(P.mk(2), P.mk(3), 1, 1),
        "second polynomial has 3 parties, first polynomial has 2",
    ),
    (
        "Polynomial-term",
        lambda: Polynomial(2, {Term(3, 5): ONE}),
        "term A1' A2 A3' has 3 parties, polynomial has 2",
    ),
    (
        "Polynomial-one-party-term",
        lambda: Polynomial(2, {Term(1, 0): ONE}),
        "term A1 has 1 party, polynomial has 2",
    ),
    (
        "CorrelationVector-term",
        lambda: P.CorrelationVector(2, {Term(3, 0): 0.5}),
        "term A1 A2 A3 has 3 parties, correlation vector has 2",
    ),
]


class TestPartyCountRules:
    """Both party-count rules have one owner in polynomial, so every caller gives one message.

    The floor: a party count is an int, never a bool, of at least the entry's
    least count.  The agreement: two objects that meet have the same count.
    """

    @pytest.mark.parametrize(
        ("make", "least", "n"),
        [
            pytest.param(make, least, n, id=f"{name}-{n!r}")
            for name, least, make in FLOOR_ENTRIES
            for n in (least - 1, True, 2.0)
        ],
    )
    def test_floor(self, make, least, n):
        with pytest.raises(InvalidArgumentError) as err:
            make(n)
        assert type(err.value) is InvalidArgumentError
        assert str(err.value) == f"party count must be an integer >= {least}, got {n!r}"

    @pytest.mark.parametrize(
        ("make", "message"),
        [pytest.param(make, message, id=name) for name, make, message in AGREEMENT_CASES],
    )
    def test_agreement(self, make, message):
        with pytest.raises(InvalidArgumentError) as err:
            make()
        assert type(err.value) is InvalidArgumentError and str(err.value) == message
