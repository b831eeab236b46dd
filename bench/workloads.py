"""The three benchmark workloads: inputs made from a seed, and a fixed operation list.

Every operation builds its polynomial from scratch (with `mk`'s cache
cleared), calls the library, and returns what the library returned; its gate
then checks that output.  The same seed gives the same inputs, so every pass of
a run repeats identical calls.

* `quantum_search`: see-saw searches at n = 7 and 8, where the time is in the
  2^n-dimensional per-term loops of `quantum` and the classical modules idle.
* `exact_bounds`: polynomial construction up to n = 16 and the local and
  hybrid enumerations, where `models` and dyadic arithmetic do the work and
  `quantum` is never called.
* `session_small_n`: many small problems at n = 3..5, mostly through
  `bellpoly.cli.main` with structured output, where fixed per-call costs
  dominate and the density-matrix path runs.

`size="smoke"` shrinks every problem so the benchmark's own tests run fast.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bellpoly import classify as C
from bellpoly import cli as CLI
from bellpoly import models as M
from bellpoly import polynomial as P
from bellpoly import quantum as Q

import checks

WORKLOADS = ("quantum_search", "exact_bounds", "session_small_n")


@dataclass
class Op:
    """One timed call. `check(output, expected)` returns failure reasons."""

    id: str
    run: Callable[[], object]
    check: Callable[[object, object], list[str]]
    digest: Callable[[object], str]
    expected: object = None
    probe: Callable[[object], None] | None = None
    counts: Callable[[object], dict] | None = None


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _fresh(kind: str, n: int):
    """Build a polynomial from scratch: `svetlichny` and `svetlichny_minus` go through mk's cache."""
    P.mk.cache_clear()
    if kind == "mk":
        return P.mk(n)
    if kind == "svetlichny":
        return P.svetlichny(n)
    if kind == "svetlichny_minus":
        return P.svetlichny_minus(n)
    raise ValueError(kind)


def _poly_digest(p) -> str:
    return _sha(p.n, sorted((t.prime_mask, c.numerator, c.log2_denominator) for t, c in p.terms.items()))


def _quantum_digest(out) -> str:
    _, result = out
    state = getattr(result, "state", None)
    blocks = getattr(result, "block_states", ())
    return _sha(
        result.value.hex(),
        result.frame.as_dict(),
        *(s.amplitudes.tobytes() for s in ((state,) if state is not None else blocks)),
    )


def _probe(state_of):
    """Single calls on a task's returned frame and state (traced runs only)."""

    def probe(out):
        p, result = out
        state = state_of(result)
        op = Q.bell_operator(p, result.frame)
        Q.max_eigenvalue(op)
        Q.effective_bloch(p, result.frame, state, 0, False)
        Q.expectation(op, state)

    return probe


# ---------------------------------------------------------------------------
# quantum_search
# ---------------------------------------------------------------------------


def _quantum_max_op(kind, n, restarts, seed) -> Op:
    return Op(
        id=f"quantum_max:{kind}:{n}",
        run=lambda: (lambda p: (p, Q.quantum_max(p, restarts=restarts, seed=seed)))(_fresh(kind, n)),
        check=lambda out, known: checks.check_quantum(
            out[0], out[1].frame, out[1].state, out[1].value, known, full_search=True
        ),
        digest=_quantum_digest,
        expected=checks.known_quantum_max(kind, n),
        probe=_probe(lambda r: r.state),
    )


def _seesaw_ghz_op(kind, n, restarts, seed) -> Op:
    ghz = Q.ghz(n)
    return Op(
        id=f"seesaw:{kind}:{n}:ghz",
        run=lambda: (lambda p: (p, Q.seesaw(p, ghz, restarts=restarts, seed=seed)))(_fresh(kind, n)),
        check=lambda out, known: checks.check_quantum(
            out[0], out[1].frame, ghz, out[1].value, known, full_search=True
        ),
        digest=_quantum_digest,
        expected=checks.known_quantum_max(kind, n),
        probe=_probe(lambda r: ghz),
    )


def _block_op(kind, n, block, restarts, seed) -> Op:
    rest = tuple(j for j in range(n) if j not in block)

    def product(result):
        phi_a, phi_b = (s.amplitudes for s in result.block_states)
        return checks.product_state(phi_a, block, phi_b, rest)

    def check(out, known):
        # The product-state maximum is not tabulated: the all-states maximum bounds it.
        p, result = out
        return checks.check_quantum(p, result.frame, product(result), result.value, known, full_search=False)

    return Op(
        id=f"block_product_max:{kind}:{n}:{len(block)}|{len(rest)}",
        run=lambda: (lambda p: (p, Q.block_product_max(p, block, restarts=restarts, seed=seed)))(
            _fresh(kind, n)
        ),
        check=check,
        digest=_quantum_digest,
        expected=checks.known_quantum_max(kind, n),
        probe=_probe(product),
    )


def quantum_search(rng: np.random.Generator, smoke: bool, workdir: Path) -> list[Op]:
    seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
    big, mid, block_n = (4, 3, 4) if smoke else (8, 7, 6)
    return [
        _quantum_max_op("mk", big, 1, seeds[0]),
        _quantum_max_op("svetlichny", mid, 1, seeds[1]),
        # The GHZ see-saw runs at odd n: at even n a single start stalls at 1.0
        # now and then (1 in 24 at n = 8), and the three restarts that n = 8
        # needs cost 10 s, leaving too few passes in a run for a steady median.
        _seesaw_ghz_op("mk", mid if not smoke else 3, 2, seeds[2]),
        _block_op("mk", block_n, tuple(range(block_n // 2)), 1, seeds[3]),
    ]


# ---------------------------------------------------------------------------
# exact_bounds
# ---------------------------------------------------------------------------


def _build_op(kind, n) -> Op:
    def check(p, kind):
        errors = []
        # Every form has all 2^n terms except MK at odd n, which has half of them.
        support = 2 ** (n - 1) if kind == "mk" and n % 2 else 2**n
        if len(p.terms) != support:
            errors.append(f"{kind}({n}) has {len(p.terms)} terms, not {support}")
        table = checks.algebraic_table(kind, n)
        errors += checks.check_tabulated(float(P.algebraic_limit(p)), table, f"{kind}({n}) algebraic limit")
        if kind == "svetlichny_minus":
            total = P.combine(p, P.svetlichny(n), 1, 1)
            if _poly_digest(total) != _poly_digest(P.mk(n)):
                errors.append(f"svetlichny({n}) + svetlichny_minus({n}) != mk({n})")
        return errors

    return Op(id=f"build:{kind}:{n}", run=lambda: _fresh(kind, n), check=check, digest=_poly_digest, expected=kind)


def _bound_digest(out) -> str:
    _, result = out
    if isinstance(result, M.HybridScan):
        return _sha([(part.to_text(), r.value.hex(), r.witness.as_dict()) for part, r in result])
    return _sha(result.value.hex(), result.witness.as_dict())


def _local_op(kind, n) -> Op:
    return Op(
        id=f"local_bound:{kind}:{n}",
        run=lambda: (lambda p: (p, M.local_bound(p)))(_fresh(kind, n)),
        check=lambda out, kind: checks.check_local(out[0], out[1], kind),
        digest=_bound_digest,
        expected=kind,
    )


def _hybrid_op(label, make, kind) -> Op:
    return Op(
        id=f"hybrid_bound_all:{label}",
        run=lambda: (lambda p: (p, M.hybrid_bound_all(p)))(make()),
        check=lambda out, kind: checks.check_hybrid_scan(out[0], list(out[1]), out[1].overall, kind),
        digest=_bound_digest,
        expected=kind,
    )


def random_dense(n: int, rng: np.random.Generator) -> P.Polynomial:
    """All 2^n terms, each coefficient +-odd/2^k with k in 1..6."""
    terms = {}
    for mask in range(2**n):
        k = int(rng.integers(1, 7))
        numerator = int(rng.integers(0, 2 ** (k - 1))) * 2 + 1
        terms[P.Term(n, mask)] = P.DyadicCoefficient(numerator * int(rng.choice([-1, 1])), k)
    return P.Polynomial(n, terms)


def exact_bounds(rng: np.random.Generator, smoke: bool, workdir: Path) -> list[Op]:
    if smoke:
        builds, local_n, hybrid, dense_n = [("mk", 6), ("svetlichny", 5), ("svetlichny_minus", 5)], 4, [
            ("svetlichny", 4), ("mk", 5)], 4
    else:
        builds, local_n, hybrid, dense_n = [("mk", 16), ("svetlichny", 15), ("svetlichny_minus", 15)], 10, [
            ("svetlichny", 8), ("mk", 9), ("svetlichny", 9)], 8
    dense = [random_dense(dense_n, rng) for _ in range(2)]
    ops = [_build_op(kind, n) for kind, n in builds]
    ops += [_local_op(kind, local_n) for kind in ("mk", "svetlichny")]
    ops += [_hybrid_op(f"{kind}:{n}", lambda kind=kind, n=n: _fresh(kind, n), kind) for kind, n in hybrid]
    ops += [_hybrid_op(f"dense:{dense_n}:{i}", lambda p=p: p, None) for i, p in enumerate(dense)]
    return ops


# ---------------------------------------------------------------------------
# session_small_n
# ---------------------------------------------------------------------------


def _cli_once(argv):
    P.mk.cache_clear()  # as in a fresh `bellpoly` process
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = CLI.main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv, gate, expected=None) -> Op:
    """Runs one structured command twice; any byte difference is a failure."""

    def check(out, expected):
        (code, text, err), (code2, text2, _) = out
        if code != 0 or code2 != 0:
            return [f"exit codes {code}/{code2}: {err.strip()}"]
        if text != text2:
            return ["structured output differs between two identical runs"]
        return gate(json.loads(text), expected)

    return Op(
        id="cli:" + " ".join(argv[4:]),
        run=lambda: (_cli_once(argv), _cli_once(argv)),
        check=check,
        digest=lambda out: _sha(out[0][0], out[0][1], out[1][0], out[1][1]),
        expected=expected,
        counts=lambda out: {"output_bytes": sum(len(o[1].encode()) for o in out)},
    )


def _gate_table1(doc, expected):
    errors = [] if doc.get("verified") is True else ["table1 not verified"]
    for cell in doc["cells"]:
        if abs(cell["recomputed"] - cell["stored"]) > cell["tolerance"]:
            errors.append(f"table1 cell {cell['row']}:{cell['column']} off by more than {cell['tolerance']}")
    return errors


def _bound_result(entry):
    witness = entry["witness"]
    if witness["type"] == "local":
        strategy = M.LocalStrategy(tuple(tuple(pair) for pair in witness["settings"]))
    else:
        blocks = [
            M.BlockStrategy(tuple(j - 1 for j in w["parties"]), tuple(w["products"]))
            for w in (witness["block_a"], witness["block_b"])
        ]
        strategy = M.HybridWitness(M.Bipartition.from_text(witness["partition"]), *blocks)
    return M.BoundResult(entry["model"], entry["value"], P.DyadicCoefficient.parse(entry["value_exact"]), strategy)


def _gate_bounds(kind, n):
    def gate(doc, expected):
        p = CLI.build_polynomial(kind, n)
        results = doc["results"]
        errors = checks.check_local(p, _bound_result(results["local"]), kind)
        hybrid = results["hybrid"]
        pairs = [(M.Bipartition.from_text(e["partition"]), _bound_result(e)) for e in hybrid["per_partition"]]
        errors += checks.check_hybrid_scan(p, pairs, _bound_result(hybrid["max"]), kind)
        algebraic = results["algebraic"]
        if P.DyadicCoefficient.parse(algebraic["value_exact"]) != P.algebraic_limit(p):
            errors.append("algebraic limit differs from the exact coefficient sum")
        errors += checks.check_tabulated(algebraic["value"], checks.algebraic_table(kind, n), "algebraic")
        return errors

    return gate


def _gate_qmax(kind, n, fixed_state):
    def gate(doc, known):
        p = CLI.build_polynomial(kind, n)
        frame = Q.MeasurementFrame(
            tuple((Q.UnitVector(*v), Q.UnitVector(*w)) for v, w in doc["frame"]["settings"])
        )
        if fixed_state:
            state = Q.ghz(n)
        else:
            state = Q.PureState(n, np.array([complex(re, im) for re, im in doc["state"]["amplitudes"]]))
        return checks.check_quantum(p, frame, state, doc["value"], known, full_search=True)

    return gate


def _gate_classify(kind, n, recompute):
    def gate(doc, expected):
        errors = []
        if recompute is not None:
            again = recompute()
            if abs(again - doc["value"]) > checks.REEVAL_TOL:
                errors.append(f"classified value {doc['value']!r} re-evaluates to {again!r}")
        return errors + checks.check_verdict(kind, n, doc["value"], doc["verdict"])

    return gate


def _correlation_text(p, rng) -> str:
    """Every setting combination; support terms get sign(coef) * U(0.2, 1)."""
    lines = [f"n={p.n}"]
    for mask in range(2**p.n):
        coef = p.terms.get(P.Term(p.n, mask))
        magnitude = float(rng.uniform(0.2, 1.0))
        value = magnitude * (1 if coef is None or coef.numerator > 0 else -1)
        settings = "".join("1" if (mask >> j) & 1 else "0" for j in range(p.n))
        lines.append(f"{settings} {value!r}")
    return "\n".join(lines) + "\n"


def _ghz_value(p, angles) -> float:
    """Value on GHZ of a frame of equatorial settings at `angles[j][primed]`.

    The GHZ correlation of settings at azimuths phi_j is cos(sum phi_j).
    """
    return sum(
        float(coef) * np.cos(sum(angles[j][(term.prime_mask >> j) & 1] for j in range(p.n)))
        for term, coef in p.terms.items()
    )


def _equatorial_angles(p, rng):
    """Random equatorial settings whose GHZ value is non-negative, as verdicts require."""
    angles = rng.uniform(0.0, 2 * np.pi, size=(p.n, 2))
    if _ghz_value(p, angles) < 0:
        angles[0] += np.pi  # flips every term's sign
    return angles


def _frame_text(angles) -> str:
    frame = Q.MeasurementFrame(
        tuple(tuple(Q.UnitVector(float(np.cos(a)), float(np.sin(a)), 0.0) for a in pair) for pair in angles)
    )
    return Q.frame_to_text(frame) + "\n"


def _noisy_ghz(n, visibility) -> Q.DensityMatrix:
    amps = Q.ghz(n).amplitudes
    rho = visibility * np.outer(amps, amps.conj()) + (1 - visibility) * np.eye(2**n) / 2**n
    return Q.DensityMatrix(n, rho)


def _mixed_op(n, visibility, restarts, seed) -> Op:
    rho = _noisy_ghz(n, visibility)

    def run():
        p = _fresh("mk", n)
        result = Q.seesaw(p, rho, restarts=restarts, seed=seed)
        return p, result, C.entanglement_depth_verdict(result.value, n)

    def check(out, known):
        p, result, verdict = out
        errors = checks.check_quantum(p, result.frame, rho, result.value, known, full_search=True)
        return errors + checks.check_verdict("mk", n, result.value, verdict.as_dict())

    return Op(
        id=f"seesaw_mixed:mk:{n}:v={visibility:.4f}",
        run=run,
        check=check,
        digest=lambda out: _sha(out[1].value.hex(), out[1].frame.as_dict(), out[2].as_dict()),
        expected=visibility * checks.mk_quantum_max(n),
        probe=lambda out: _probe(lambda r: rho)(out[:2]),
    )


def session_small_n(rng: np.random.Generator, smoke: bool, workdir: Path) -> list[Op]:
    sizes = (3,) if smoke else (3, 4, 5)
    base = ["--format", "structured", "--seed", str(int(rng.integers(0, 2**31)))]
    ops = [_cli_op(base + ["--restarts", "2" if smoke else "4", "table1"], _gate_table1)]
    for kind in ("mk", "mk-prime", "svetlichny", "svetlichny-minus"):
        for n in sizes:
            if kind != "svetlichny-minus" or n % 2:
                ops.append(_cli_op(base + ["bounds", kind, str(n)], _gate_bounds(kind, n)))
    for kind in ("mk", "svetlichny"):
        for n in sizes:
            known = checks.known_quantum_max(kind, n)
            ops.append(_cli_op(base + ["--restarts", "2", "qmax", kind, str(n)], _gate_qmax(kind, n, False), known))
            # A single GHZ see-saw start at n = 4 stalls at 1.0 about one time in ten.
            restarts = "4" if n == 4 else "2"
            ops.append(
                _cli_op(
                    base + ["--restarts", restarts, "qmax", kind, str(n), "--state", f"ghz:{n}"],
                    _gate_qmax(kind, n, True),
                    known,
                )
            )
    for kind in ("mk", "svetlichny"):
        for n in sizes:
            p = CLI.build_polynomial(kind, n)
            limit = float(P.algebraic_limit(p))
            value = float(rng.uniform(0.0, 0.98 * limit))
            ops.append(_cli_op(base + ["classify", "--poly", kind, str(n), "--value", repr(value)],
                               _gate_classify(kind, n, None)))

            corr_path = workdir / f"{kind}{n}.corr"
            corr_path.write_text(_correlation_text(p, rng))
            correlations = CLI.parse_correlation_text(corr_path.read_text())
            ops.append(_cli_op(
                base + ["classify", "--poly", kind, str(n), "--correlations", str(corr_path)],
                _gate_classify(kind, n, lambda p=p, c=correlations: sum(
                    float(coef) * c.values[term] for term, coef in p.terms.items())),
            ))

            angles = _equatorial_angles(p, rng)
            frame_path = workdir / f"{kind}{n}.frame"
            frame_path.write_text(_frame_text(angles))
            ops.append(_cli_op(
                base + ["classify", "--poly", kind, str(n), "--state", f"ghz:{n}", "--frame", str(frame_path)],
                _gate_classify(kind, n, lambda p=p, a=angles: _ghz_value(p, a)),
            ))
    grid = [(3, 0.9, 2)] if smoke else [(3, 0.6, 2), (3, 0.9, 2), (4, 0.75, 4), (5, 0.9, 2)]
    for n, visibility, restarts in grid:
        # Jitter stays far from the depth thresholds 2^((m - n) / 2).
        v = visibility + float(rng.uniform(-0.02, 0.02))
        ops.append(_mixed_op(n, v, restarts, int(rng.integers(0, 2**31))))
    return ops


def build(workload: str, seed: int, smoke: bool, workdir: Path) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]), smoke, workdir)
