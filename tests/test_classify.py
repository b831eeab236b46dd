"""Bound tables, verdicts, and the three-party reference table."""

from __future__ import annotations

import math
import types

import pytest

from bellpoly import classify as C
from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly import quantum as Q
from bellpoly.classify import ModelKind, Root2Power
from bellpoly.errors import (
    InconsistentInputError,
    InvalidArgumentError,
    NotTabulatedError,
    NumericalIntegrityError,
)

from conftest import SQRT2


class TestRoot2Power:
    def test_values(self):
        assert float(Root2Power(0)) == 1.0
        assert float(Root2Power(1)) == pytest.approx(SQRT2)
        assert float(Root2Power(2)) == 2.0
        assert float(Root2Power(3)) == pytest.approx(2 * SQRT2)
        assert float(Root2Power(4)) == 4.0

    def test_render(self):
        assert Root2Power(0).render() == "1"
        assert Root2Power(1).render() == "sqrt(2)"
        assert Root2Power(2).render() == "2"
        assert Root2Power(3).render() == "2*sqrt(2)"
        assert Root2Power(4).render() == "4"
        assert str(Root2Power(3)) == "2*sqrt(2)"

    def test_product(self):
        assert Root2Power(1) * Root2Power(2) == Root2Power(3)

    def test_ordering(self):
        assert Root2Power(0) < Root2Power(1) < Root2Power(2)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Root2Power(-1)


class TestModelKind:
    def test_constructors(self):
        assert ModelKind.local().kind == "local"
        assert ModelKind.hybrid_separable(2).param == 2
        assert ModelKind.quantum_depth(3).render() == "quantum-depth(m=3)"

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ModelKind("nonsense")
        with pytest.raises(InvalidArgumentError):
            ModelKind("hybrid")  # needs a parameter
        with pytest.raises(InvalidArgumentError):
            ModelKind("local", 1)  # takes none


class TestMkBound:
    def test_hybrid_not_tabulated_beyond_nine(self):
        with pytest.raises(NotTabulatedError) as err:
            C.mk_bound(10, ModelKind.hybrid_separable(2))
        assert "hybrid_bound_all" in str(err.value)

    def test_depth_between_two_three_party_clusters_not_tabulated(self):
        with pytest.raises(NotTabulatedError):
            C.mk_bound(6, ModelKind.quantum_depth(3))

    def test_parameter_ranges(self):
        with pytest.raises(InvalidArgumentError):
            C.mk_bound(3, ModelKind.quantum_depth(4))
        with pytest.raises(InvalidArgumentError):
            C.mk_bound(3, ModelKind.hybrid_separable(3))


def as_root2_power(exact: P.DyadicCoefficient) -> Root2Power:
    """An exact power of two as a Root2Power; fails on anything else."""
    num = exact.numerator
    assert exact.log2_denominator == 0 and num > 0 and num & (num - 1) == 0, exact
    return Root2Power(2 * (num.bit_length() - 1))


def mk_table(n: int) -> dict[ModelKind, Root2Power]:
    """Every bound mk_bound stores at n, keyed like svetlichny_bounds(n).bounds."""
    models = [ModelKind.local(), ModelKind.algebraic()]
    models += [ModelKind.hybrid_separable(k) for k in range(1, n)]
    models += [ModelKind.quantum_depth(m) for m in range(1, n + 1)]
    table = {}
    for model in models:
        try:
            table[model] = C.mk_bound(n, model)
        except NotTabulatedError:
            pass
    return table


def check_table(p: P.Polynomial, table: dict[ModelKind, Root2Power]) -> None:
    """Check every entry of `table` that is feasible to compute for p.

    Local bounds to n = 10, hybrid bounds to n = 9 (every split, by the size
    of its smaller block), algebraic limits everywhere, the full-depth quantum
    value by quantum_max to n = 9 within 1e-6, and, to n = 6, every depth m
    with n/2 <= m < n by block_product_max on contiguous splits: the split
    m | n - m reaches the bound within 1e-6, and no split whose blocks both
    have at most m parties exceeds it by more than 1e-9.
    """
    n = p.n
    assert as_root2_power(P.algebraic_limit(p)) == table[ModelKind.algebraic()]
    if n <= 10:
        assert as_root2_power(M.local_bound(p).value_exact) == table[ModelKind.local()]
    if n <= 9:
        computed: dict[int, set[Root2Power]] = {}
        for partition, result in M.hybrid_bound_all(p):
            size = len(partition.block_a_parties)
            computed.setdefault(size, set()).add(as_root2_power(result.value_exact))
        hybrids = {model.param: bound for model, bound in table.items() if model.kind == "hybrid"}
        assert {min(k, n - k) for k in hybrids} == set(computed)
        for k, bound in hybrids.items():
            assert computed[min(k, n - k)] == {bound}, (n, k)
    if n > 9:
        return
    full = Q.quantum_max(p, restarts=2, seed=1).value
    assert full == pytest.approx(float(table[ModelKind.quantum_depth(n)]), abs=1e-6)
    if n > 6:
        return
    splits = {}  # block A = the first k parties, k >= n - k
    for model, bound in table.items():
        m = model.param
        if model.kind != "quantum-depth" or not n <= 2 * m < 2 * n:
            continue
        for k in range((n + 1) // 2, m + 1):
            if k not in splits:
                splits[k] = Q.block_product_max(p, tuple(range(k)), restarts=2, seed=1).value
            assert splits[k] <= float(bound) + 1e-9, (n, m, k)
        assert splits[m] == pytest.approx(float(bound), abs=1e-6), (n, m)


def test_every_closed_form_matches_computation():
    """mk_bound for mk and its prime flip, and every column of svetlichny_bounds, for n = 2..14."""
    for n in range(2, 15):
        for p in (P.mk(n), P.prime_flip(P.mk(n))):
            check_table(p, mk_table(n))
        if n >= 3:
            check_table(P.svetlichny(n), dict(C.svetlichny_bounds(n).bounds))


def two_to(exponent: float) -> Root2Power:
    """2**exponent for a whole or half-integer exponent."""
    return Root2Power(int(2 * exponent))


@pytest.mark.parametrize("n", range(2, 31))
def test_closed_forms_written_out(n):
    """The paper's bounds written out, against every reader of the stored table.

    Both families: local 1, algebraic 2^floor(n/2).  MK: hybrid
    2^floor((n-1)/2) at every k, stored for n <= 9; depth m 2^((m-1)/2), stored
    for m <= 2 and m >= n - 2.  Svetlichny: hybrid 2^floor((n-2)/2) at every
    k <= n/2, and sqrt(2) times that at depth n.  At n = 3 they fill table1's
    stored rows.
    """
    local, algebraic = two_to(0), two_to(n // 2)
    mk_hybrid = two_to((n - 1) // 2) if n <= 9 else None
    mk_depth = {m: two_to((m - 1) / 2) for m in range(1, n + 1) if m <= 2 or m >= n - 2}
    s_hybrid = two_to((n - 2) // 2)
    s_quantum = two_to((n - 2) // 2 + 1 / 2)

    expected = {ModelKind.local(): local, ModelKind.algebraic(): algebraic}
    expected |= {ModelKind.hybrid_separable(k): mk_hybrid for k in range(1, n)}
    expected |= {ModelKind.quantum_depth(m): mk_depth.get(m) for m in range(1, n + 1)}
    for model, bound in expected.items():
        if bound is None:
            with pytest.raises(NotTabulatedError) as err:
                C.mk_bound(n, model)
            assert str(err.value) == (
                f"no MK bound is stored at n={n} for {model.render()}; "
                f"compute it with models.hybrid_bound_all or quantum.block_product_max"
            )
        else:
            assert C.mk_bound(n, model) == bound, (n, model)

    if n >= 3:
        assert list(C.svetlichny_bounds(n).bounds.items()) == [
            (ModelKind.local(), local),
            *((ModelKind.hybrid_separable(k), s_hybrid) for k in range(1, n // 2 + 1)),
            (ModelKind.quantum_depth(n), s_quantum),
            (ModelKind.algebraic(), algebraic),
        ]

    thresholds = {m + 1: bound for m, bound in mk_depth.items() if m < n}
    assert list(C.depth_thresholds(n).items()) == list(thresholds.items())
    for depth, bound in thresholds.items():
        verdict = C.entanglement_depth_verdict(float(bound) + 1e-6, n)
        assert (verdict.depth, verdict.threshold) == (depth, bound)
    assert C.nonseparability_verdict(float(algebraic), n).threshold == s_hybrid
    with pytest.raises(InconsistentInputError):
        C.nonseparability_verdict(float(algebraic) + 1e-5, n)

    if n == 3:  # the paper's three-party table; S3's depth-2 cell is its hybrid bound
        m3 = (local, mk_depth[2], mk_hybrid, mk_depth[3], algebraic)
        s3 = (local, s_hybrid, s_hybrid, s_quantum, algebraic)
        assert C._TABLE1_STORED == {
            "M3": dict(zip(C.TABLE1_COLUMNS, m3)),
            "S3": dict(zip(C.TABLE1_COLUMNS, s3)),
        }


class TestSvetlichnyBounds:
    def test_invalid_n(self):
        with pytest.raises(InvalidArgumentError):
            C.svetlichny_bounds(2)


class TestDepthVerdict:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_depth_thresholds_are_the_tabulated_bounds(self, n):
        expected = {}
        for m in range(1, n):
            try:
                expected[m + 1] = C.mk_bound(n, ModelKind.quantum_depth(m))
            except NotTabulatedError:
                pass
        assert C.depth_thresholds(n) == expected
        assert list(C.depth_thresholds(n)) == sorted(expected)

    def test_above_sqrt2_gives_three_particle(self):
        v = C.entanglement_depth_verdict(1.8, 3)
        assert v.depth == 3
        assert v.conclusion == "at least 3-particle entanglement"
        assert v.threshold == Root2Power(1)
        assert v.margin == pytest.approx(1.8 - SQRT2)

    def test_at_local_bound_gives_nothing(self):
        v = C.entanglement_depth_verdict(1.0, 3)
        assert v.depth is None
        assert v.conclusion == "no conclusion"

    def test_between_one_and_sqrt2(self):
        v = C.entanglement_depth_verdict(1.2, 3)
        assert v.depth == 2
        assert v.threshold == Root2Power(0)
        assert v.margin == pytest.approx(0.2)

    def test_monotone_in_value(self):
        depths = []
        for value in (0.5, 1.0, 1.2, 1.5, 1.9, 2.0):
            v = C.entanglement_depth_verdict(value, 3)
            depths.append(0 if v.depth is None else v.depth)
        assert depths == sorted(depths)

    def test_depth_capped_at_n(self):
        # beyond the full quantum maximum but below the algebraic limit
        v = C.entanglement_depth_verdict(3.9, 4)
        assert v.depth == 4

    def test_two_three_party_clusters_certify_at_most_depth_three(self):
        # a product of two 3-party states reaches 2*sqrt(2) at n = 6
        result = Q.block_product_max(P.mk(6), (0, 1, 2), restarts=1, seed=0)
        assert result.value == pytest.approx(2 * SQRT2, abs=1e-6)
        assert C.entanglement_depth_verdict(result.value, 6).depth <= 3

    def test_tolerance_guard(self):
        # a hair above the threshold stays at the weaker conclusion
        v = C.entanglement_depth_verdict(1.0 + 5e-10, 3)
        assert v.depth is None

    def test_inconsistent_value(self):
        with pytest.raises(InconsistentInputError):
            C.entanglement_depth_verdict(2.1, 3)

    def test_negative_value(self):
        with pytest.raises(InvalidArgumentError):
            C.entanglement_depth_verdict(-0.5, 3)


class TestNonseparabilityVerdict:
    def test_sqrt2_is_genuine_for_three(self):
        v = C.nonseparability_verdict(SQRT2, 3)
        assert v.genuine_nonseparable is True
        assert v.margin == pytest.approx(SQRT2 - 1.0)
        assert v.conclusion == "genuine 3-party non-separability"

    def test_at_the_hybrid_bound(self):
        v = C.nonseparability_verdict(1.0, 3)
        assert v.genuine_nonseparable is False
        assert "not established" in v.conclusion

    def test_four_party_example(self):
        v = C.nonseparability_verdict(2.5, 4)
        assert v.genuine_nonseparable is True
        assert v.threshold == Root2Power(2)
        assert v.margin == pytest.approx(0.5)

    def test_inconsistent_value(self):
        with pytest.raises(InconsistentInputError):
            C.nonseparability_verdict(2.2, 3)


FLOOR_AFTER_CACHE = [  # (name, least n, call at n)
    ("mk_bound", 2, lambda n: C.mk_bound(n, ModelKind.local())),
    ("depth_verdict", 2, lambda n: C.entanglement_depth_verdict(1.0, n)),
    ("nonseparability_verdict", 2, lambda n: C.nonseparability_verdict(1.0, n)),
    ("svetlichny_bounds", 3, C.svetlichny_bounds),
    ("depth_thresholds", 2, C.depth_thresholds),
]


class TestCachedTables:
    """_bound_table builds each (family, n) once per process, and the cache skips no check."""

    @pytest.mark.parametrize(
        ("call", "least", "bad"),
        [
            pytest.param(call, least, bad, id=f"{name}-{bad!r}")
            for name, least, call in FLOOR_AFTER_CACHE
            for bad in (float(least), True)
        ],
    )
    def test_floor_after_a_cached_int_call(self, call, least, bad):
        call(least)
        call(least)
        with pytest.raises(InvalidArgumentError) as err:
            call(bad)
        assert str(err.value) == f"party count must be an integer >= {least}, got {bad!r}"

    def test_second_verdict_builds_no_table(self, monkeypatch):
        first = (C.entanglement_depth_verdict(1.9, 5), C.nonseparability_verdict(2.9, 5))
        monkeypatch.setattr(C, "BoundTable", lambda *args, **kwargs: pytest.fail("table built"))
        second = (C.entanglement_depth_verdict(1.9, 5), C.nonseparability_verdict(2.9, 5))
        assert [v.as_dict() for v in second] == [v.as_dict() for v in first]

    def test_one_table_per_family_and_n(self):
        assert C._bound_table("mk", 4) is C._bound_table("mk", 4)
        assert C.svetlichny_bounds(4) is C._bound_table("svetlichny", 4)
        assert C._bound_table("mk", 4) is not C._bound_table("svetlichny", 4)


class TestBoundTable:
    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            C.BoundTable(
                family="mk",
                n=3,
                bounds={
                    ModelKind.local(): Root2Power(2),
                    ModelKind.hybrid_separable(1): Root2Power(0),
                },
            )

    def test_depth_monotonicity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            C.BoundTable(
                family="mk",
                n=3,
                bounds={
                    ModelKind.quantum_depth(1): Root2Power(2),
                    ModelKind.quantum_depth(2): Root2Power(0),
                },
            )

    def test_serialization(self):
        data = C.svetlichny_bounds(3).as_dict()
        assert data["family"] == "svetlichny"
        assert any(entry["exact"] == "sqrt(2)" for entry in data["bounds"])


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (
            lambda: C.BoundTable(family="chsh", n=3, bounds={}),
            "unknown polynomial family 'chsh'",
        ),
        (
            lambda: C.BoundTable(
                family="mk",
                n=3,
                bounds={
                    ModelKind.hybrid_separable(1): Root2Power(3),
                    ModelKind.algebraic(): Root2Power(2),
                },
            ),
            "hybrid bound exceeds the algebraic limit",
        ),
        (lambda: Root2Power(True), "half exponent must be a non-negative integer, got True"),
        (lambda: ModelKind("hybrid", True), "hybrid needs a positive integer parameter"),
        (
            lambda: C.mk_bound(3, ModelKind("quantum-depth", True)),
            "quantum-depth needs a positive integer parameter",
        ),
        *(
            pytest.param(
                lambda verdict=verdict, tol=tol: verdict(0.5, 3, tol=tol),
                f"tol must be a non-negative real, got {tol!r}",
                id=f"{verdict.__name__}-{tol!r}",
            )
            for verdict in (C.entanglement_depth_verdict, C.nonseparability_verdict)
            for tol in (-5, math.nan, True, "1e-9")
        ),
    ],
)
def test_bad_input_errors(make, message):
    with pytest.raises(InvalidArgumentError) as err:
        make()
    assert type(err.value) is InvalidArgumentError and str(err.value) == message


class TestTable1:
    def test_rows(self):
        report = C.table1(restarts=8, seed=0x5EED)
        rows = report.rows()
        stored = {
            "M3": ["1", "sqrt(2)", "2", "2", "2"],
            "S3": ["1", "1", "1", "sqrt(2)", "2"],
            "product": ["1", "sqrt(2)", "2", "2*sqrt(2)", "4"],
        }
        for row, expected in stored.items():
            got = [rows[row][c].stored.render() for c in C.TABLE1_COLUMNS]
            assert got == expected

    def test_classical_cells_bit_exact(self):
        report = C.table1(restarts=8, seed=0x5EED)
        for cell in report.cells:
            if cell.tolerance == 0.0:
                assert cell.recomputed == float(cell.stored)
            else:
                assert abs(cell.recomputed - float(cell.stored)) <= cell.tolerance

    def test_corrupt_cell_detected(self, monkeypatch):
        monkeypatch.setitem(C._TABLE1_STORED["M3"], "local", Root2Power(2))
        with pytest.raises(NumericalIntegrityError) as err:
            C.table1(restarts=4, seed=0x5EED)
        assert "M3:local" in str(err.value)

    def test_corrupt_quantum_cell_detected(self, monkeypatch):
        monkeypatch.setitem(C._TABLE1_STORED["S3"], "quantum_depth_3", Root2Power(3))
        with pytest.raises(NumericalIntegrityError) as err:
            C.table1(restarts=4, seed=0x5EED)
        assert "S3:quantum_depth_3" in str(err.value)

    def test_nan_quantum_cell_detected(self, monkeypatch):
        nan = types.SimpleNamespace(value=float("nan"))
        monkeypatch.setattr(Q, "quantum_max", lambda *args, **kwargs: nan)
        with pytest.raises(NumericalIntegrityError) as err:
            C.table1(restarts=1, seed=0x5EED)
        assert "M3:quantum_depth_3" in str(err.value)

    def test_render_text_shape(self):
        report = C.table1(restarts=8, seed=0x5EED)
        lines = report.render_text().splitlines()
        assert len(lines) == 5  # header, three rows, verification line
        assert lines[1].startswith("M3")
        assert "verified" in lines[-1]
