"""Spans around calls into bellpoly's public functions, and the per-layer metrics.

Tracing lives entirely in the benchmark: `Tracer.install` replaces every
public function of the five layer modules with a wrapper that records a span.
Calls between modules go through module attributes (`quantum.seesaw`,
`models.local_bound`, ...), so a `cli.main` span gets `classify`, `models`,
`quantum` and `polynomial` children without any change to the package.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
from pathlib import Path

LAYERS = ("polynomial", "models", "quantum", "classify", "cli")

# Phases of a traced pass: the timed operations, the correctness gates on
# their outputs, and single probe calls on each quantum task's frame and state.
OP, GATE, PROBE = "op", "gate", "probe"

_CONSTRUCTORS = ("mk", "svetlichny", "svetlichny_minus", "prime_flip", "combine", "tensor_product")
_VERDICTS = ("classify.entanglement_depth_verdict", "classify.nonseparability_verdict")
_PROBES = ("bell_operator", "max_eigenvalue", "effective_bloch", "expectation")
_CLI_COMMANDS = ("table1", "bounds", "qmax", "classify")


def _restarts(args, result):
    return {"restarts": args["restarts"]}


def _seesaw(args, result):
    from bellpoly.quantum import DensityMatrix

    return {
        "restarts": args["restarts"],
        "updates": len(result.history) - 1,
        "mixed": isinstance(args["state"], DensityMatrix),
    }


# Counts recorded at the span boundary, from the call's bound arguments and result.
_COUNTERS = {
    **{f"polynomial.{name}": (lambda args, result: {"terms": len(result.terms)}) for name in _CONSTRUCTORS},
    "models.local_bound": lambda args, result: {"scripts": 4 ** args["p"].n},
    "models.hybrid_bound": lambda args, result: {
        "strategies": 2 ** 2 ** len(args["partition"].block_a_parties)
    },
    "quantum.seesaw": _seesaw,
    "quantum.quantum_max": _restarts,
    "quantum.block_product_max": _restarts,
    "quantum.bell_operator": lambda args, result: {
        "kron_entries": len(args["p"].terms) * 4 ** args["p"].n
    },
    "cli.main": lambda args, result: {
        "command": next((a for a in args["argv"] if a in _CLI_COMMANDS), None)
    },
}


class Tracer:
    """Records nested spans; each carries the operation id and pass it ran under."""

    def __init__(self, extra: tuple[tuple[object, str, str], ...] = ()) -> None:
        """`extra` lists further (module, attribute, span name) functions to wrap."""
        self.extra = extra
        self.spans: list[dict] = []
        self.op: str | None = None
        self.pass_index: int | None = None
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "pass": self.pass_index,
            "phase": self.phase,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record["counts"].update(counter(bound.arguments, result))
                return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        """Wrap every public function defined in the five layer modules, and `extra`."""
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"bellpoly.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", obj))
        for module, attr, name in self.extra:
            obj = getattr(module, attr)
            self._patched.append((module, attr, obj))
            setattr(module, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}, indent=1) + "\n")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _outermost(spans: list[dict], index: int, names) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] in names:
            return False
        parent = spans[parent]["parent"]
    return True


def _pass_metrics(spans: list[dict], indices: list[int]) -> dict[str, float]:
    """Totals over one traced pass; `indices` are that pass's spans."""
    chosen = set(indices)
    child_time = {i: 0.0 for i in indices}
    for i in indices:
        parent = spans[i]["parent"]
        if parent in chosen:
            child_time[parent] += spans[i]["end"] - spans[i]["start"]

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in (*LAYERS, "bench")}
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for i in indices:
        span = spans[i]
        duration = span["end"] - span["start"]
        name = span["name"]
        if name == "quantum.bell_operator":  # a computed count: gate and probe builds too
            add(counts, "kron_entries", span["counts"]["kron_entries"])
        if span["phase"] == GATE and name == "models.witness_check":
            add(totals, name, duration)
        if span["phase"] != OP:
            continue
        add(out, f"{name.split('.')[0]}.self_s", duration - child_time[i])
        if _outermost(spans, i, {name}):
            add(totals, name, duration)
            if name == "quantum.seesaw":
                add(totals, "seesaw_mixed" if span["counts"]["mixed"] else "seesaw_pure", duration)
            if name == "cli.main":
                add(totals, f"cli.{span['counts'].get('command')}", duration)
        for key, value in span["counts"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                add(counts, f"{name}:{key}", value)
        if name.startswith("polynomial.") and name.split(".")[1] in _CONSTRUCTORS:
            if _outermost(spans, i, {f"polynomial.{b}" for b in _CONSTRUCTORS}):
                add(totals, "build", duration)

    hybrid_s = totals.get("models.hybrid_bound", 0.0)
    strategies = counts.get("models.hybrid_bound:strategies", 0.0)
    out.update(
        {
            "polynomial.build_s": totals.get("build", 0.0),
            "polynomial.terms_built": sum(
                counts.get(f"polynomial.{b}:terms", 0.0) for b in _CONSTRUCTORS
            ),
            "models.local_bound_s": totals.get("models.local_bound", 0.0),
            "models.local_scripts": counts.get("models.local_bound:scripts", 0.0),
            "models.hybrid_bound_all_s": totals.get("models.hybrid_bound_all", 0.0),
            "models.hybrid_strategies": strategies,
            "models.hybrid_strategies_per_s": strategies / hybrid_s if hybrid_s > 0 else 0.0,
            "models.witness_check_s": totals.get("models.witness_check", 0.0),
            "quantum.quantum_max_s": totals.get("quantum.quantum_max", 0.0),
            "quantum.seesaw_pure_s": totals.get("seesaw_pure", 0.0),
            "quantum.seesaw_mixed_s": totals.get("seesaw_mixed", 0.0),
            "quantum.block_product_max_s": totals.get("quantum.block_product_max", 0.0),
            "quantum.restarts": sum(
                counts.get(f"quantum.{f}:restarts", 0.0)
                for f in ("seesaw", "quantum_max", "block_product_max")
            ),
            "quantum.seesaw_updates": counts.get("quantum.seesaw:updates", 0.0),
            "quantum.kron_entries_computed": counts.get("kron_entries", 0.0),
            "classify.table1_s": totals.get("classify.table1", 0.0),
            "cli.output_bytes": counts.get("bench.op:output_bytes", 0.0),
            **{f"cli.main_s.{c}": totals.get(f"cli.{c}", 0.0) for c in _CLI_COMMANDS},
        }
    )
    return out


def layer_metrics(spans: list[dict], traced_pass_s: list[float], untraced_pass_s: list[float]) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, per-call medians for probes."""
    by_pass: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span["pass"] is not None:
            by_pass.setdefault(span["pass"], []).append(i)
    per_pass = [_pass_metrics(spans, indices) for _, indices in sorted(by_pass.items())]
    metrics = {key: _median(m[key] for m in per_pass) for key in (per_pass[0] if per_pass else {})}

    for probe in _PROBES:
        metrics[f"quantum.{probe}_s"] = _median(
            s["end"] - s["start"]
            for s in spans
            if s["phase"] == PROBE and s["name"] == f"quantum.{probe}"
        )
    metrics["classify.verdict_s"] = _median(
        s["end"] - s["start"] for s in spans if s["phase"] == OP and s["name"] in _VERDICTS
    )
    traced = _median(traced_pass_s)
    library = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    metrics["trace.layer_share"] = library / traced if traced > 0 else 0.0
    metrics["trace.overhead_frac"] = traced / _median(untraced_pass_s) - 1.0
    return metrics


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in (*LAYERS, "bench")},
    "polynomial.build_s": ("s", "lower"),
    "polynomial.terms_built": ("count", "lower"),
    "models.local_bound_s": ("s", "lower"),
    "models.local_scripts": ("count", "lower"),
    "models.hybrid_bound_all_s": ("s", "lower"),
    "models.hybrid_strategies": ("count", "lower"),
    "models.hybrid_strategies_per_s": ("1/s", "higher"),
    "models.witness_check_s": ("s", "lower"),
    "quantum.quantum_max_s": ("s", "lower"),
    "quantum.seesaw_pure_s": ("s", "lower"),
    "quantum.seesaw_mixed_s": ("s", "lower"),
    "quantum.block_product_max_s": ("s", "lower"),
    "quantum.restarts": ("count", "lower"),
    "quantum.seesaw_updates": ("count", "lower"),
    **{f"quantum.{probe}_s": ("s", "lower") for probe in _PROBES},
    "quantum.kron_entries_computed": ("count", "lower"),
    "classify.table1_s": ("s", "lower"),
    "classify.verdict_s": ("s", "lower"),
    **{f"cli.main_s.{c}": ("s", "lower") for c in _CLI_COMMANDS},
    "cli.output_bytes": ("count", "lower"),
    "trace.layer_share": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}
