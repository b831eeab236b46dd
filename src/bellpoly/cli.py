"""Command-line surface: poly, bounds, qmax, classify, table1.

Exit codes: 0 success, 2 usage, 3 resource limit, 4 data/parse problem,
5 numerical-integrity failure.  Structured output is a single JSON document
per invocation with a schema_version field; identical command and seed give
byte-identical structured output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

from . import classify, models, polynomial, quantum
from .errors import (
    DataFormatError,
    IncompleteDataError,
    InconsistentInputError,
    InvalidArgumentError,
    NotTabulatedError,
    NumericalIntegrityError,
    ResourceLimitError,
)
from .polynomial import Polynomial, parse_correlation_text

DEFAULT_SEED = 0x5EED
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DATA = 4
EXIT_INTEGRITY = 5

_EXIT_CODES = {
    InvalidArgumentError: EXIT_USAGE,
    NotTabulatedError: EXIT_USAGE,
    ResourceLimitError: EXIT_RESOURCE,
    DataFormatError: EXIT_DATA,
    IncompleteDataError: EXIT_DATA,
    InconsistentInputError: EXIT_DATA,
    NumericalIntegrityError: EXIT_INTEGRITY,
}

_KINDS = {
    "mk": polynomial.mk,
    "mk-prime": lambda n: polynomial.prime_flip(polynomial.mk(n)),
    "svetlichny": polynomial.svetlichny,
    "svetlichny-minus": polynomial.svetlichny_minus,
}
_FORMATS = ("text", "structured")


def _setting(default, help: str, **flag):
    """A RunConfig field: its default, and the help and extra argparse options of its flag."""
    return field(default=default, metadata={"help": help, **flag})


@dataclass(frozen=True)
class RunConfig:
    """Every tunable default in one place; print with --show-config.

    Each field is one global flag, `--` plus the field name with dashes
    (`--format` for output_format), and declares its default and help text
    here only.
    """

    seed: int = _setting(DEFAULT_SEED, "seed for all randomized searches (default 0x5EED)")
    restarts: int = _setting(
        quantum.DEFAULT_RESTARTS, "random restarts for see-saw searches (default %(default)s)"
    )
    output_format: str = _setting(
        "text", "output format (structured = one JSON document)",
        flag="--format", choices=_FORMATS,
    )
    hybrid_block_cap: int = _setting(
        models.DEFAULT_HYBRID_BLOCK_CAP, "max size of the enumerated hybrid block"
    )
    spectral_cap: int = _setting(
        quantum.DEFAULT_SPECTRAL_CAP, "max qubit count for dense spectral computations"
    )
    seesaw_tol: float = _setting(quantum.DEFAULT_SEESAW_TOL, "see-saw convergence threshold")
    seesaw_max_sweeps: int = _setting(quantum.DEFAULT_MAX_SWEEPS, "see-saw sweep limit")
    verify_tol: float = _setting(
        classify.QUANTUM_CHECK_TOL, "tolerance for quantum cells in table checks"
    )
    verdict_tol: float = _setting(classify.VERDICT_TOL, "strict-inequality guard for verdicts")

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {self.seed}")
        for name in ("restarts", "hybrid_block_cap", "spectral_cap", "seesaw_max_sweeps"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be positive")
        for name in ("seesaw_tol", "verify_tol", "verdict_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise InvalidArgumentError(f"{name} must lie in (0, 1e-2), got {value}")
        if self.output_format not in _FORMATS:
            raise InvalidArgumentError(f"unknown output format {self.output_format!r}")


def build_polynomial(kind: str, n: int) -> Polynomial:
    if kind not in _KINDS:
        raise InvalidArgumentError(f"unknown polynomial kind {kind!r}")
    return _KINDS[kind](n)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_poly(args: argparse.Namespace, config: RunConfig) -> tuple[dict, str]:
    poly = build_polynomial(args.kind, args.n)
    limit = polynomial.algebraic_limit(poly)
    doc = {
        "command": "poly",
        "kind": args.kind,
        "n": args.n,
        "polynomial": polynomial.to_dict(poly),
        "support_size": polynomial.support_size(poly),
        "algebraic_limit": {"value": float(limit), "exact": str(limit)},
    }
    text_lines = [polynomial.to_text(poly)] if poly.terms else []
    text_lines.append(f"# support size: {polynomial.support_size(poly)}")
    text_lines.append(f"# algebraic limit: {float(limit):g} ({limit})")
    return doc, "\n".join(text_lines)


def _local_witness_text(witness: models.LocalStrategy) -> str:
    return " ".join(
        f"A{j + 1}=({pair[0]:+d},{pair[1]:+d})" for j, pair in enumerate(witness.settings)
    )


def cmd_bounds(args: argparse.Namespace, config: RunConfig) -> tuple[dict, str]:
    poly = build_polynomial(args.kind, args.n)
    wanted = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = set(wanted) - {"local", "hybrid", "algebraic"}
    if unknown:
        raise InvalidArgumentError(
            f"unknown model(s) {sorted(unknown)}; choose from local, hybrid, algebraic"
        )
    if args.partition is not None and "hybrid" not in wanted:
        raise InvalidArgumentError("--partition only applies to the hybrid model")
    doc: dict = {"command": "bounds", "kind": args.kind, "n": args.n, "results": {}}
    lines = [f"polynomial: {args.kind} n={args.n}"]
    if "local" in wanted:
        result = models.local_bound(poly)
        doc["results"]["local"] = result.as_dict()
        lines.append(f"local bound: {result.value:g} ({result.value_exact})")
        lines.append(f"  witness: {_local_witness_text(result.witness)}")
    if "hybrid" in wanted:
        if args.partition is not None:
            partition = models.Bipartition.from_text(args.partition)
            result = models.hybrid_bound(
                poly, partition, max_block_size=config.hybrid_block_cap
            )
            scan, overall = [(partition, result)], result
            lines.append(
                f"hybrid bound ({partition.to_text()}): {result.value:g} "
                f"({result.value_exact})"
            )
        else:
            full = models.hybrid_bound_all(poly, max_block_size=config.hybrid_block_cap)
            scan, overall = full.results, full.overall
            lines.append("hybrid bounds:")
            lines.extend(
                f"  {partition.to_text()}: {result.value:g} ({result.value_exact})"
                for partition, result in scan
            )
            lines.append(f"  max: {overall.value:g} ({overall.witness.partition.to_text()})")
        doc["results"]["hybrid"] = {
            "per_partition": [
                {"partition": partition.to_text(), **result.as_dict()}
                for partition, result in scan
            ],
            "max": overall.as_dict(),
        }
    if "algebraic" in wanted:
        limit = polynomial.algebraic_limit(poly)
        doc["results"]["algebraic"] = models.BoundResult(
            "algebraic", float(limit), limit, None
        ).as_dict()
        lines.append(f"algebraic limit: {float(limit):g} ({limit})")
    return doc, "\n".join(lines)


def _state_doc(state: quantum.PureState) -> dict:
    return {
        "n": state.n,
        "amplitudes": [[float(amp.real), float(amp.imag)] for amp in state.amplitudes],
    }


def cmd_qmax(args: argparse.Namespace, config: RunConfig) -> tuple[dict, str]:
    poly = build_polynomial(args.kind, args.n)
    doc: dict = {
        "command": "qmax",
        "kind": args.kind,
        "n": args.n,
        "seed": config.seed,
        "restarts": config.restarts,
    }
    search = dict(
        restarts=config.restarts,
        seed=config.seed,
        cap=config.spectral_cap,
        tol=config.seesaw_tol,
        max_sweeps=config.seesaw_max_sweeps,
    )
    if args.state is not None:
        result = quantum.seesaw(poly, quantum.parse_state(args.state, poly.n), **search)
        frame, value, state_doc = result.frame, result.value, None
    else:
        result = quantum.quantum_max(poly, **search)
        frame, value, state_doc = result.frame, result.value, _state_doc(result.state)
    doc["value"] = value
    doc["frame"] = frame.as_dict()
    doc["state"] = state_doc
    lines = [f"quantum max: {value!r}", "frame:", quantum.frame_to_text(frame)]
    if state_doc is not None:
        lines.append("state amplitudes (re im):")
        lines.extend(
            f"{float(amp.real)!r} {float(amp.imag)!r}" for amp in result.state.amplitudes
        )
    return doc, "\n".join(lines)


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> tuple[dict, str]:
    kind, n_text = args.poly
    try:
        n = int(n_text)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad party count {n_text!r}") from exc
    poly = build_polynomial(kind, n)
    sources = [
        args.value is not None,
        args.correlations is not None,
        args.state is not None or args.frame is not None,
    ]
    if sum(sources) != 1:
        raise InvalidArgumentError(
            "provide exactly one input source: --value, --correlations, "
            "or --state with --frame"
        )
    if args.value is not None:
        value = args.value
        source = {"type": "value"}
    elif args.correlations is not None:
        correlations = parse_correlation_text(
            polynomial.read_text_file(args.correlations, "correlation file")
        )
        value = polynomial.evaluate(poly, correlations)
        source = {"type": "correlations", "path": args.correlations}
    else:
        if args.state is None or args.frame is None:
            raise InvalidArgumentError("--state and --frame must be given together")
        frame = quantum.frame_from_text(polynomial.read_text_file(args.frame, "frame file"))
        state = quantum.parse_state(args.state, poly.n)
        value = quantum.expectation(
            quantum.bell_operator(poly, frame, cap=config.spectral_cap), state
        )
        source = {"type": "state", "state": args.state, "frame": args.frame}
    if kind in ("mk", "mk-prime"):
        verdict = classify.entanglement_depth_verdict(value, n, tol=config.verdict_tol)
        key, bounds = "depth", classify.depth_thresholds(n)
    else:
        verdict = classify.nonseparability_verdict(value, n, tol=config.verdict_tol)
        key, bounds = "genuine", {n: verdict.threshold}
    thresholds = [
        {key: level, "value": float(bound), "exact": bound.render()}
        for level, bound in bounds.items()
    ]
    doc = {
        "command": "classify",
        "kind": kind,
        "n": n,
        "source": source,
        "value": value,
        "thresholds": thresholds,
        "verdict": verdict.as_dict(),
    }
    lines = [
        f"polynomial: {kind} n={n}",
        f"value: {value!r}",
    ]
    if verdict.threshold is not None:
        lines.append(
            f"threshold crossed: {verdict.threshold.render()} "
            f"(= {float(verdict.threshold)!r})"
        )
        lines.append(f"margin: {verdict.margin!r}")
    lines.append(f"conclusion: {verdict.conclusion}")
    return doc, "\n".join(lines)


def cmd_table1(args: argparse.Namespace, config: RunConfig) -> tuple[dict, str]:
    report = classify.table1(
        restarts=config.restarts,
        seed=config.seed,
        tolerance=config.verify_tol,
        spectral_cap=config.spectral_cap,
        seesaw_tol=config.seesaw_tol,
        max_sweeps=config.seesaw_max_sweeps,
    )
    doc = {
        "command": "table1",
        "seed": config.seed,
        "restarts": config.restarts,
        **report.as_dict(),
    }
    return doc, report.render_text()


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _flag(setting) -> str:
    """The command-line flag of one RunConfig field."""
    return setting.metadata.get("flag", "--" + setting.name.replace("_", "-"))


@functools.cache
def _global_flags() -> dict[str, bool]:
    """Every flag before the command, mapped to whether it takes a value."""
    flags = {_flag(setting): True for setting in fields(RunConfig)}
    return {**flags, "--show-config": False, "--help": False}


def _check_flags_before_command(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Name an unknown flag before the command whose separate value argparse would take for it.

    argparse reports such a value as an invalid command; it names the flag
    only when the value is joined by "=" or the flag follows the command.
    A prefix of a known flag counts as known, as argparse resolves it.
    """
    flags = _global_flags()
    at = 0
    while at < len(argv) and argv[at].startswith("--") and argv[at] != "--":
        name, joined, _ = argv[at].partition("=")
        known = [flag for flag in flags if flag.startswith(name)] if name not in flags else [name]
        if not known:
            value = argv[at + 1] if at + 1 < len(argv) else None
            stray = value is not None and value not in _COMMANDS and not value.startswith("-")
            if stray and not joined:
                parser.error(f"unrecognized arguments: {argv[at]} {value}")
            return
        at += 2 if not joined and any(flags[flag] for flag in known) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellpoly",
        description=(
            "Correlation polynomials for n two-setting parties: construction, "
            "separable-model bounds, quantum maxima, and classification."
        ),
    )
    for setting in fields(RunConfig):
        parser.add_argument(
            _flag(setting),
            dest=setting.name,
            type=type(setting.default),
            default=setting.default,
            help=setting.metadata["help"],
            choices=setting.metadata.get("choices"),
        )
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")

    sub = parser.add_subparsers(dest="command")

    poly_p = sub.add_parser("poly", help="print one polynomial in canonical form")
    poly_p.add_argument("kind", choices=_KINDS)
    poly_p.add_argument("n", type=int)

    bounds_p = sub.add_parser("bounds", help="exact model bounds with witnesses")
    bounds_p.add_argument("kind", choices=_KINDS)
    bounds_p.add_argument("n", type=int)
    bounds_p.add_argument("--models", default="local,hybrid,algebraic",
                          help="comma list from local,hybrid,algebraic")
    bounds_p.add_argument("--partition", default=None,
                          help="restrict hybrid to one bipartition, e.g. A=3|B=1,2")

    qmax_p = sub.add_parser("qmax", help="quantum maximum by see-saw ascent")
    qmax_p.add_argument("kind", choices=_KINDS)
    qmax_p.add_argument("n", type=int)
    qmax_p.add_argument("--state", default=None,
                        help="fix the state: ghz:n, basis:n:index, or file:<path>")

    classify_p = sub.add_parser("classify", help="verdict from a value, data file, or state")
    classify_p.add_argument("--poly", nargs=2, metavar=("KIND", "N"), required=True)
    classify_p.add_argument("--value", type=float, default=None)
    classify_p.add_argument("--correlations", default=None,
                            help="correlation data file (header n=..., then settings/value lines)")
    classify_p.add_argument("--state", default=None,
                            help="state spec: ghz:n, basis:n:index, or file:<path>")
    classify_p.add_argument("--frame", default=None, help="measurement frame file")

    sub.add_parser("table1", help="recompute and verify the three-party bound table")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: nothing mutates it, and each parse_args fills a fresh namespace."""
    return build_parser()


_COMMANDS = {
    "poly": cmd_poly,
    "bounds": cmd_bounds,
    "qmax": cmd_qmax,
    "classify": cmd_classify,
    "table1": cmd_table1,
}


def _emit(doc: dict, text: str, config: RunConfig) -> None:
    if config.output_format == "structured":
        payload = {"schema_version": SCHEMA_VERSION, **doc}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    _check_flags_before_command(parser, argv)
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        if args.show_config:
            settings = asdict(config)
            text = "\n".join(f"{key} = {value}" for key, value in settings.items())
            _emit({"config": settings}, text, config)
            return EXIT_OK
        if args.command is None:
            parser.error("a command is required (poly, bounds, qmax, classify, table1)")
        doc, text = _COMMANDS[args.command](args, config)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    _emit(doc, text, config)
    return EXIT_OK


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
