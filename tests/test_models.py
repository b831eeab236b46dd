"""Deterministic hidden-variable strategy search: local and hybrid bounds."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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

from make_classical_golden import polynomial as golden_polynomial


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


def polynomial_in_form(n: int, form: str, rng: np.random.Generator) -> Polynomial:
    """random_dyadic; a few +/-1 terms (ties everywhere); no terms; or random with an object-dtype tensor."""
    if form == "ties":
        masks = rng.choice(1 << n, size=int(rng.integers(1, min(3, 1 << n) + 1)), replace=False)
        return Polynomial(n, {Term(n, int(m)): DyadicCoefficient(int(rng.choice([-1, 1]))) for m in masks})
    if form == "zero":
        return Polynomial(n, {})
    p = random_dyadic(n, rng)
    return with_tiny_corner(p) if form == "wide" else p


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

    @pytest.mark.parametrize("n", [16, 20])
    def test_mk_bound_is_one_without_a_cap(self, n):
        """The transform reads 2**n entries, so n = 16 and 20 stay quick."""
        assert M.local_bound(P.mk(n)).value_exact == 1

    def test_empty_polynomial(self):
        assert M.local_bound(Polynomial(2, {})).value == 0.0

    def test_witness_is_resummed(self, monkeypatch):
        real = M._block_sum
        monkeypatch.setattr(M, "_block_sum", lambda arranged, products: real(arranged, products) + 1)
        with pytest.raises(NumericalIntegrityError) as err:
            M.local_bound(P.mk(3))
        assert str(err.value) == "local bound: the scan found 2 but its witness re-sums to 3"

    @pytest.mark.parametrize(
        "poly, value, settings",
        [(P.mk(1), DyadicCoefficient(1), [[1, 1]]), (Polynomial(1, {}), DyadicCoefficient(0), [[1, 1]])],
    )
    def test_one_party(self, poly, value, settings):
        """A lone party plays (s, s (-1)**r) for the best r, zeros to +1."""
        result = M.local_bound(poly)
        assert result.value_exact == value
        assert result.witness.as_dict() == {"type": "local", "settings": settings}

    @pytest.mark.parametrize("poly", [P.mk(1), P.mk(5), P.svetlichny(8), Polynomial(3, {})])
    def test_coefficient_tensor_axes_are_party_settings(self, poly):
        w = P._coefficient_tensor(poly)
        assert w.shape == (2,) * poly.n
        for term, coef in poly.terms.items():
            assert w[tuple(int(term.primed(j)) for j in range(poly.n))] == float(coef)
        assert np.count_nonzero(w) == len(poly.terms)


# Choice index c encodes a party's script (a, a'): c = 0 -> (+1, +1),
# 1 -> (+1, -1), 2 -> (-1, +1), 3 -> (-1, -1); lower c sorts first.
CHOICES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int64)


def reference_local_bound(p: Polynomial) -> tuple[DyadicCoefficient, LocalStrategy]:
    """Every one of the 4**n scripts' values by one tensor contraction, and the first maximiser (party 1 most significant)."""
    tensor, k = P._scaled_tensor(p)
    # each step contracts the leading party's setting axis and appends its
    # four scripts as the last axis
    flat = tensor.reshape(-1)
    for _ in range(p.n):
        flat = (flat.reshape(2, -1).T @ CHOICES.T).reshape(-1)
    best = int(np.argmax(flat))
    digits = [(best >> (2 * (p.n - 1 - j))) & 3 for j in range(p.n)]
    witness = LocalStrategy(tuple((int(a), int(b)) for a, b in CHOICES[digits]))
    return DyadicCoefficient(int(flat[best]), k), witness


class TestLocalOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from(["random", "ties", "zero", "wide"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_contraction(self, n, form, seed):
        """The Walsh-Hadamard maximum returns the value and the script of the 4**n enumeration."""
        p = polynomial_in_form(n, form, np.random.default_rng(seed))
        if form == "wide":
            assert P._scaled_tensor(p)[0].dtype == object
        self.check(p)

    @pytest.mark.parametrize(
        "p",
        [P.mk(n) for n in range(1, 11)] + [P.svetlichny(n) for n in range(2, 11)],
        ids=[f"mk{n}" for n in range(1, 11)] + [f"svetlichny{n}" for n in range(2, 11)],
    )
    def test_named_families(self, p):
        """Up to n = 10, where every one of mk(10)'s 1024 transform entries ties in size."""
        self.check(p)

    @staticmethod
    def check(p: Polynomial) -> None:
        value, witness = reference_local_bound(p)
        result = M.local_bound(p)
        assert result.value_exact == value
        assert result.witness.as_dict() == witness.as_dict()


@pytest.mark.parametrize("width", range(5))
def test_signs_number_the_sign_tables_in_lexicographic_order(width):
    explicit = [list(signs) for signs in itertools.product((1, -1), repeat=width)]
    assert M._signs(np.arange(1 << width), width).tolist() == explicit
    assert [M._signs(index, width).tolist() for index in range(1 << width)] == explicit


def brute_block_scan(arranged: np.ndarray) -> tuple[int, list[tuple[int, ...]]]:
    """Every pair of the two blocks' full sign tables in lexicographic order, block A most significant; the first maximiser."""
    tables = [M._signs(np.arange(1 << count), count) for count in arranged.shape]
    best = None
    for rows in itertools.product(*tables):
        total = arranged.astype(object)
        for signs in rows:
            total = np.tensordot(signs.astype(object), total, axes=(0, 0))
        if best is None or total > best:
            best, products = int(total), [tuple(signs.tolist()) for signs in rows]
    return best, products


# each threshold of _scaled_tensor's dtype rule, and the first sum past it
THRESHOLDS = [
    (2**15 - 1, np.int16),
    (2**15, np.int32),
    (2**31 - 1, np.int32),
    (2**31, np.int64),
    (2**62 - 1, np.int64),
    (2**62, object),
]


def with_abs_sum(shape, total: int, rng: np.random.Generator) -> np.ndarray:
    """Random signed integers (object dtype) with absolute sum `total`; some rows and columns are zero."""
    live = rng.random(shape) < 0.7
    live[rng.random(shape[0]) < 0.3] = False  # a zero row ties each strategy with its flip there
    live[:, rng.random(shape[1]) < 0.3] = False
    live.flat[int(rng.integers(live.size))] = True
    magnitudes = np.zeros(shape, dtype=object)
    cells = np.flatnonzero(live)
    # a random split of `total` over the live cells; the rounding remainder goes to one of them
    weights = rng.random(len(cells))
    shares = [int(total * w // weights.sum()) for w in weights]
    shares[int(rng.integers(len(shares)))] += total - sum(shares)
    magnitudes.flat[cells] = shares
    return magnitudes * rng.choice([-1, 1], size=shape).astype(object)


def scan_one(arranged: np.ndarray) -> tuple[int, list[tuple[int, ...]]]:
    """_block_scans of a stack of one, as (best, both blocks' sign tables)."""
    best, products, signs = M._block_scans(arranged[None])[0]
    assert [tuple(row.tolist()) for row in signs] == list(products)
    return best, list(products)


class TestBlockScan:
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.sampled_from([2, 15]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_enumeration(self, widths, chunk_log2, as_objects, seed):
        """Two blocks, either of them possibly empty, and chunks smaller than block A's table."""
        rng = np.random.default_rng(seed)
        shape = tuple(1 << w for w in widths)
        arranged = rng.integers(-2, 3, size=shape).astype(object if as_objects else np.int16)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(M, "_CHUNK_LOG2", chunk_log2)
            best, products = scan_one(arranged)
        assert (best, products) == brute_block_scan(arranged)
        assert M._block_sum(arranged, products) == best

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 6),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.sampled_from([2, None]),
        st.sampled_from(["ties", "threshold"]),
        st.sampled_from(range(len(THRESHOLDS))),
        st.integers(0, 2**32 - 1),
    )
    def test_every_matrix_of_a_stack_matches_the_full_enumeration(
        self, count, widths, chunk_log2, form, threshold, seed
    ):
        """Stacks of 1-6 matrices, block A or B possibly one tuple, in every dtype of _scaled_tensor.

        "ties" draws entries from -1..1, so most strategies tie within a
        chunk and, at 2**2 entries a chunk, across chunks; "threshold" gives
        each matrix the absolute sum at a dtype edge.
        """
        rng = np.random.default_rng(seed)
        shape = tuple(1 << w for w in widths)
        total, dtype = THRESHOLDS[threshold]
        if form == "ties":
            exact = [rng.integers(-1, 2, size=shape).astype(object) for _ in range(count)]
        else:
            exact = [with_abs_sum(shape, total, rng) for _ in range(count)]
        stack = np.stack(exact).astype(dtype)
        with pytest.MonkeyPatch.context() as patch:
            if chunk_log2 is not None:
                patch.setattr(M, "_CHUNK_LOG2", chunk_log2)
            scans = M._block_scans(stack)
        assert len(scans) == count
        for matrix, (best, products, signs) in zip(exact, scans):
            assert (best, list(products)) == brute_block_scan(matrix)
            assert [tuple(row.tolist()) for row in signs] == list(products)

    @pytest.mark.parametrize("chunk_log2", [2, 17])
    def test_each_matrix_of_a_stack_keeps_its_own_winner(self, chunk_log2, monkeypatch):
        """Eight matrices whose unique winners all differ, in values and in both blocks' signs."""
        stack = []
        for i, (s1, s2, s3) in enumerate(itertools.product((1, -1), repeat=3)):
            # block A's only maximiser is (+1, s1, s2, s3); block B's column 1 is -(i + 1) times column 0
            column = np.array([8, 4 * s1, 2 * s2, s3]) * (i + 1)
            stack.append(np.stack([column, -(i + 1) * column], axis=1))
        stack = np.array(stack, dtype=np.int16)
        monkeypatch.setattr(M, "_CHUNK_LOG2", chunk_log2)
        scans = M._block_scans(stack)
        for i, (matrix, (best, products, _)) in enumerate(zip(stack, scans)):
            assert (best, list(products)) == brute_block_scan(matrix)
            assert best == 15 * (i + 1) * (i + 2)
        assert len({products for _, products, _ in scans}) == len(stack)

    @pytest.mark.parametrize("chunk_log2", [2, 3])
    @pytest.mark.parametrize("cols_log2", [0, 1, 2])
    def test_nested_leading_tables_match_the_full_enumeration(self, cols_log2, chunk_log2, monkeypatch):
        """Block A of 3 parties: its 7 free tuples span a suffix and 3 to 7 nested leading tables."""
        rng = np.random.default_rng(8 * cols_log2 + chunk_log2)
        stack = rng.integers(-1, 2, size=(2, 8, 1 << cols_log2)).astype(np.int16)
        monkeypatch.setattr(M, "_CHUNK_LOG2", chunk_log2)
        for matrix, (best, products, _) in zip(stack, M._block_scans(stack)):
            assert (best, list(products)) == brute_block_scan(matrix)

    @pytest.mark.parametrize("chunk_log2", [2, 4, 6])
    @pytest.mark.parametrize("count, widths", [(1, (2, 4)), (3, (2, 5)), (1, (3, 6)), (2, (4, 8))])
    def test_no_table_outgrows_a_chunk(self, count, widths, chunk_log2, monkeypatch):
        """Every table holds one chunk at most (sqrt 2 of them after rounding) or two rows of the stack.

        |B| >= 2|A| makes the leading tuples' sums larger than a chunk; the
        scan's results equal those at the default chunk size.
        """
        rng = np.random.default_rng(count)
        stack = rng.integers(-3, 4, size=(count, *(1 << w for w in widths))).astype(np.int16)
        expected = M._block_scans(stack)
        sizes = []
        real = M._doubling_table

        def spy(first, rows):
            table = real(first, rows)
            sizes.append(table.size)
            return table

        monkeypatch.setattr(M, "_doubling_table", spy)
        monkeypatch.setattr(M, "_CHUNK_LOG2", chunk_log2)
        scans = M._block_scans(stack)
        width = count << widths[1]
        assert max(sizes) <= max(2 ** (chunk_log2 + 0.5), 2 * width)
        assert [(best, products) for best, products, _ in scans] == [
            (best, products) for best, products, _ in expected
        ]


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
                assert np.array_equal(M._arrange(tensor, (a, b)), expected), (a, b)


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
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.sampled_from(["random", "ties", "wide"]), st.integers(0, 2**32 - 1))
    def test_fast_scan_returns_the_oracle_witness(self, n, form, seed):
        """The two-block case of the block scan against the full enumeration of both blocks."""
        p = polynomial_in_form(n, form, np.random.default_rng(seed))
        for partition in M.bipartitions(n):
            fast = M.hybrid_bound(p, partition)
            brute = M.brute_hybrid_bound(p, partition, max_settings=16)
            assert fast.value_exact == brute.value_exact
            assert fast.witness.as_dict() == brute.witness.as_dict()


class TestBipartitions:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_mask_canonicalises_into_the_listing(self, n):
        canonical = {Bipartition(n, m) for m in range(1, (1 << n) - 1)}
        order = sorted(canonical, key=lambda bp: (bp.block_a_mask.bit_count(), bp.block_a_mask))
        assert M.bipartitions(n) == tuple(order)

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
        "text",
        ["A=1|B=1,2", "A=|B=1,2", "A=1,4|B=2", "nonsense", "A=1|B=3", "A=1,1|B=2", "X=1|B=2"],
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

    def test_a_repeat_call_returns_the_same_tuple(self):
        assert M.bipartitions(6) is M.bipartitions(6)

    @pytest.mark.parametrize("n", [0, 1, True, 2.5, "3"])
    def test_a_bad_count_raises_every_time(self, n):
        """The listing is cached behind the party-count check, so no good call lets a bad one through."""
        for _ in range(2):
            with pytest.raises(InvalidArgumentError):
                M.bipartitions(n)
        M.bipartitions(3)
        M.bipartitions(2)
        with pytest.raises(InvalidArgumentError):
            M.bipartitions(n)


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


def symmetrised(p: Polynomial) -> Polynomial:
    """Each term's coefficient replaced by the sum over its popcount class: every party permutation fixes it."""
    sums: dict[int, DyadicCoefficient] = {}
    for term, coef in p.terms.items():
        weight = bin(term.prime_mask).count("1")
        sums[weight] = sums.get(weight, DyadicCoefficient(0)) + coef
    terms = {
        Term(p.n, m): sums[bin(m).count("1")]
        for m in range(1 << p.n)
        if sums.get(bin(m).count("1"))
    }
    return Polynomial(p.n, terms)


def with_tiny_corner(p: Polynomial) -> Polynomial:
    """p plus -2^-70 on the all-primed term, which no party permutation moves; the tensor is then object dtype."""
    corner = Polynomial(p.n, {Term(p.n, (1 << p.n) - 1): DyadicCoefficient(-1, 70)})
    return P.combine(p, corner, 1, 1)


def count_scans(monkeypatch) -> list:
    """Record one entry per scanned block matrix (its shape), over every _block_scans call."""
    calls = []
    real = M._block_scans

    def spy(coefs):
        calls.extend([coefs.shape[1:]] * len(coefs))
        return real(coefs)

    monkeypatch.setattr(M, "_block_scans", spy)
    return calls


class TestSharedScans:
    """hybrid_bound_all scans each distinct block matrix once; hybrid_bound never shares."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 7),
        st.sampled_from(["random", "symmetric", "wide"]),
        st.integers(0, 2**32 - 1),
    )
    def test_every_split_matches_its_own_scan(self, n, form, seed):
        p = random_dyadic(n, np.random.default_rng(seed))
        if form != "random":
            p = symmetrised(p)
            assume(p.terms)
        if form == "wide":
            p = with_tiny_corner(p)
            assert M._scaled_tensor(p)[0].dtype == object
        self.check(p)

    @pytest.mark.parametrize("kind", ["mk", "svetlichny"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_split_of_a_named_family_matches_its_own_scan(self, kind, n):
        self.check(getattr(P, kind)(n))

    @staticmethod
    def check(p: Polynomial) -> None:
        scan = M.hybrid_bound_all(p)
        for partition, result in scan:
            assert result.as_dict() == M.hybrid_bound(p, partition).as_dict()
        best = max(result.value_exact for _, result in scan)
        first_best = next(result for _, result in scan if result.value_exact == best)
        assert scan.overall.as_dict() == first_best.as_dict()

    # dense: none of the 127 splits shares a matrix; swap12: 31 splits, 26 matrices
    @pytest.mark.parametrize(
        "kind, n, scans",
        [("mk", 9, 4), ("svetlichny", 8, 4), ("dense", 8, 127), ("swap12", 6, 26)],
    )
    def test_scan_count(self, kind, n, scans, monkeypatch):
        p = golden_polynomial(kind, n)
        calls = count_scans(monkeypatch)
        M.hybrid_bound_all(p)
        assert len(calls) == scans

    def test_reused_scan_is_still_resummed(self, monkeypatch):
        """The last 2|2 split of mk(4) reuses the first one's scan; its own re-sum still runs."""
        splits = M.bipartitions(4)
        reused = splits[-1]
        calls = count_scans(monkeypatch)
        M.hybrid_bound_all(P.mk(4))
        assert len(calls) == 2
        real = M._block_sum
        resums = []

        def tampered(arranged, products):
            resums.append(arranged.shape)  # one re-sum per split, in bipartitions order
            return real(arranged, products) + (len(resums) == len(splits))

        monkeypatch.setattr(M, "_block_sum", tampered)
        with pytest.raises(NumericalIntegrityError, match=re.escape(reused.to_text())):
            M.hybrid_bound_all(P.mk(4))


def reference_halved_chunks(coef: np.ndarray):
    """The row-major scan's chunks, one row per A strategy, kept as an oracle for the column-wise one."""
    free = coef.shape[0] - 1
    suffix_log2 = max(M._CHUNK_LOG2 - (coef.shape[1].bit_length() - 1), 0)
    split = max(free - suffix_log2, 0)
    suffix = M._doubling_table(np.zeros_like(coef[0]), coef[1 + split :])
    for row in M._doubling_table(coef[0], coef[1 : 1 + split]):
        yield row + suffix


def reference_scan(coef: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(best objective, its A strategy's index, its effective row), summed by numpy's default rule."""
    best = None
    start = 0
    for effective in reference_halved_chunks(coef):
        objective = np.abs(effective).sum(axis=1)
        i = int(np.argmax(objective))
        if best is None or objective[i] > best:
            best, best_index, best_effective = int(objective[i]), start + i, effective[i]
        start += len(effective)
    return best, best_index, best_effective


def decoded(index: int, row: np.ndarray, tuples_a: int) -> list[tuple[int, ...]]:
    """A reference_scan result as the two blocks' sign tables: A's from the index bits, B's by sign matching."""
    row_a = [1 - 2 * ((index >> bit) & 1) for bit in range(tuples_a - 1, -1, -1)]
    return [tuple(row_a), tuple(1 if x >= 0 else -1 for x in row.tolist())]


class TestColumnScan:
    """_block_scans works column-wise in the tensor's own dtype and agrees with the row-major oracle."""

    @pytest.mark.parametrize("total, dtype", THRESHOLDS)
    def test_scaled_tensor_picks_the_narrowest_exact_dtype(self, total, dtype):
        # |c| sums to `total` at the common denominator 2**3
        p = P.from_text(f"+{total - 3}/2^3 * A1 A2\n-3/2^3 * A1' A2'")
        tensor, k = P._scaled_tensor(p)
        assert (tensor.dtype, k) == (np.dtype(dtype), 3)
        assert tensor.ravel().tolist() == [total - 3, 0, 0, -3]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 5),
        st.sampled_from(THRESHOLDS[:4]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_row_major_scan(self, rows_log2, cols_log2, threshold, as_objects, seed):
        total, dtype = threshold
        exact = with_abs_sum((1 << rows_log2, 1 << cols_log2), total, np.random.default_rng(seed))
        coef = exact if as_objects else exact.astype(dtype)
        real = M._doubling_table
        tables = []

        def spy(first, rows):
            table = real(first, rows)
            tables.append(table.dtype)
            return table

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(M, "_doubling_table", spy)
            best, products = scan_one(coef)
        expected, expected_index, row = reference_scan(exact.astype(np.int64))
        assert (best, products) == (expected, decoded(expected_index, row, coef.shape[0]))
        # every table, and so every chunk added from them, is in the tensor's own dtype
        assert set(tables) == {coef.dtype}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_int16_tensor_matches_the_oracle_on_every_split(self, n, at_threshold, seed):
        rng = np.random.default_rng(seed)
        if at_threshold:
            p = P._from_numerators(n, with_abs_sum((1, 1 << n), 2**15 - 1, rng)[0], 0)
        else:
            p = random_dyadic(n, rng)
        assert P._scaled_tensor(p)[0].dtype == np.int16
        for partition, result in M.hybrid_bound_all(p):
            brute = M.brute_hybrid_bound(p, partition, max_settings=16)
            assert result.as_dict() == brute.as_dict()


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

    def test_products_compare_by_value(self):
        assert BlockStrategy((0,), (True, -1.0)).products == (1, -1)
        assert BlockStrategy((0,), (np.int64(1), np.int64(-1))).products == (1, -1)
        for bad in (0, 2.0, float("nan"), [1], "1"):
            with pytest.raises(InvalidArgumentError) as err:
                BlockStrategy((0,), (1, bad))
            assert str(err.value) == f"block product must be +1 or -1, got {bad!r}"

    def test_serialization_is_one_based(self):
        s = BlockStrategy((0, 2), (1, 1, -1, -1))
        assert s.as_dict()["parties"] == [1, 3]


SPLIT = Bipartition(3, 0b001)  # A={1}, B={2,3}


class TestBadInput:
    """Every check that public model input reaches: error class and message."""

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (lambda: LocalStrategy(()), "a local strategy needs at least one party"),
            (lambda: LocalStrategy(((1, 1, 1),)), "each party needs exactly two outcomes (a, a')"),
            (lambda: LocalStrategy((5,)), "each party needs a pair (a, a'), got 5"),
            (
                lambda: LocalStrategy(((1, 1), 5)),
                "each party needs a pair (a, a'), got 5",
            ),
            (lambda: LocalStrategy(5), "a local strategy needs a sequence of pairs (a, a'), got 5"),
            (
                lambda: LocalStrategy(((1, 1), {1, -1})),
                "each party needs a pair (a, a'), got {1, -1}",
            ),
            (lambda: BlockStrategy((), ()), "a block strategy needs at least one party"),
            (lambda: BlockStrategy((0,), 5), "block products must be a sequence, got 5"),
            (lambda: BlockStrategy(5, (1, 1)), "block parties must be a sequence, got 5"),
            (
                lambda: M.HybridWitness(
                    SPLIT, BlockStrategy((1,), (1, 1)), BlockStrategy((0, 2), (1,) * 4)
                ),
                "block A strategy does not match the bipartition",
            ),
            (
                lambda: M.HybridWitness(
                    SPLIT, BlockStrategy((0,), (1, 1)), BlockStrategy((1,), (1, 1))
                ),
                "block B strategy does not match the bipartition",
            ),
            (
                lambda: Bipartition(3, True),
                "block A must be a nonempty proper subset, got mask True",
            ),
            (
                lambda: M.evaluate_hybrid(
                    P.mk(3), SPLIT, BlockStrategy((1,), (1, 1)), BlockStrategy((0, 2), (1,) * 4)
                ),
                "block A strategy does not match the bipartition",
            ),
            (
                lambda: M.evaluate_hybrid(
                    P.mk(3), SPLIT, BlockStrategy((0,), (1, 1)), BlockStrategy((1,), (1, 1))
                ),
                "block B strategy does not match the bipartition",
            ),
            *(
                pytest.param(
                    lambda party=party: BlockStrategy(party, (1, 1)),
                    f"party index {party[0]!r} is not a non-negative integer",
                    id=f"block-party-{party[0]!r}",
                )
                for party in ((0.5,), (-1,), (True,), ("1",), ([0],))
            ),
            (
                lambda: BlockStrategy(("a", 1), (1,) * 4),
                "party index 'a' is not a non-negative integer",
            ),
            *(
                pytest.param(make, f"{what} must be an integer >= 1, got {cap!r}", id=f"{name}-{cap!r}")
                for cap in (True, 2.5, 0)
                for name, what, make in (
                    (
                        "hybrid",
                        "max_block_size",
                        lambda cap=cap: M.hybrid_bound(P.mk(3), SPLIT, max_block_size=cap),
                    ),
                    (
                        "hybrid-all",
                        "max_block_size",
                        lambda cap=cap: M.hybrid_bound_all(P.mk(3), max_block_size=cap),
                    ),
                )
            ),
        ],
    )
    def test_bad_input_errors(self, make, message):
        with pytest.raises(InvalidArgumentError) as err:
            make()
        assert type(err.value) is InvalidArgumentError and str(err.value) == message

    def test_sequences_are_stored_as_tuples(self):
        """Lists are kept as tuples, so every strategy hashes and compares by value."""
        local = LocalStrategy(([1, 1], [-1, 1]))
        assert local.settings == ((1, 1), (-1, 1)) and hash(local) == hash(LocalStrategy(((1, 1), (-1, 1))))
        block = BlockStrategy([0, 2], [1, -1, 1, -1])
        assert (block.parties, block.products) == ((0, 2), (1, -1, 1, -1))
        assert hash(block) == hash(BlockStrategy((0, 2), (1, -1, 1, -1)))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bipartition_parties_follow_the_mask(self, n):
        for bp in M.bipartitions(n):
            a = tuple(j for j in range(n) if bp.block_a_mask >> j & 1)
            assert (bp.block_a_parties, bp.block_b_parties) == (a, tuple(sorted(set(range(n)) - set(a))))
            assert repr(bp) == f"Bipartition(n={n}, block_a_mask={bp.block_a_mask})"
            assert bp == Bipartition(n, bp.block_a_mask ^ ((1 << n) - 1))


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
