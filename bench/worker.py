"""One workload in one fresh process: set up, warm up, timed passes, gates.

Started by run.py, never directly: the launcher fixes the BLAS thread count
in the environment before this process imports numpy.  Prints one JSON
object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 2  # untraced runs
MIN_TRACED_PASSES = 2  # each of traced and untraced passes in a traced run


def _load_package():
    if not (ROOT / "src" / "bellpoly" / "__init__.py").is_file():
        raise SystemExit(f"bellpoly sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import bellpoly  # noqa: F401


class Runner:
    """Runs passes over an operation list; counts every failure, never raises one."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.digests: dict[str, list[str]] = {op.id: [] for op in ops}
        self.op_s: dict[str, list[float]] = {op.id: [] for op in ops}
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def _set(self, op_id, pass_index, phase):
        if self.tracer is not None:
            self.tracer.op, self.tracer.pass_index, self.tracer.phase = op_id, pass_index, phase

    def run_pass(self, pass_index: int, *, traced: bool, counted: bool = True) -> float:
        """One pass over the operation list; returns the summed operation time.

        A traced pass wraps the package's public functions for its duration
        only, so untraced passes run the original code.
        """
        tracer, self.tracer = self.tracer, (self.tracer if traced else None)
        if self.tracer is not None:
            self.tracer.install()
        try:
            return self._pass(pass_index, counted)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            self.tracer = tracer

    def _run(self, op):
        if self.tracer is None:
            return op.run()
        with self.tracer.span("bench.op") as record:
            out = op.run()
            if op.counts is not None:
                record["counts"].update(op.counts(out))
            return out

    def _pass(self, pass_index, counted):
        elapsed = 0.0
        outputs = []
        for op in self.ops:
            self._set(op.id, pass_index, "op")
            start = time.perf_counter()
            try:
                out, error = self._run(op), None
            except Exception as exc:  # a failing operation is counted, not raised
                out, error = None, f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - start
            elapsed += duration
            if counted:
                self.op_s[op.id].append(duration)
            outputs.append((op, out, error))
        for op, out, error in outputs:
            reasons = [error] if error else self._gate(op, out, pass_index)
            if counted:
                self.attempted += 1
                if reasons:
                    self.failed += 1
                    self.failures.append({"op": op.id, "pass": pass_index, "reasons": reasons[:5]})
        self._set(None, None, None)
        return elapsed

    def _gate(self, op, out, pass_index) -> list[str]:
        try:
            digest = op.digest(out)
        except Exception as exc:
            return [f"digest failed: {type(exc).__name__}: {exc}"]
        if digest not in self.digests[op.id]:
            self.digests[op.id].append(digest)
        self._set(op.id, pass_index, "gate")
        try:
            if self.tracer is None:
                return op.check(out, op.expected)
            with self.tracer.span("bench.gate"):
                reasons = op.check(out, op.expected)
            if op.probe is not None:
                self._set(op.id, pass_index, "probe")
                with self.tracer.span("bench.probe"):
                    op.probe(out)
            return reasons
        except Exception as exc:
            return [f"gate raised {type(exc).__name__}: {exc}", traceback.format_exc(limit=3)]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "settings": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _load_package()
    import checks
    import tracing
    import workloads

    # A fixed relative directory: the CLI documents name their input files, and
    # their digests should not depend on where the checkout lives.
    workdir = Path(os.path.relpath(OUT_DIR / "inputs" / f"{args.workload}-s{args.seed}{'-smoke' * args.smoke}"))
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.smoke, workdir)
    inputs_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"inputs_ready": inputs_ready}))
        return 0

    # The gates' exact re-summing of classical witnesses is timed as models.witness_check.
    tracer = tracing.Tracer(((checks, "exact_sum", "models.witness_check"),)) if args.trace else None
    runner = Runner(ops, tracer)
    warmup_s = runner.run_pass(-1, traced=False, counted=False)

    untraced, traced = [], []
    loop_start = time.perf_counter()
    minimum = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    while True:
        if args.trace:
            untraced.append(runner.run_pass(2 * len(traced), traced=False))
            traced.append(runner.run_pass(2 * len(traced) + 1, traced=True))
            done, typical = len(traced), untraced[-1] + traced[-1]
        else:
            untraced.append(runner.run_pass(len(untraced), traced=False))
            done, typical = len(untraced), sorted(untraced)[len(untraced) // 2]
        if done >= minimum and time.perf_counter() - loop_start + typical > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "inputs_ready": inputs_ready,
        "warmup_s": warmup_s,
        "pass_s": untraced,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:20],
        "digests": runner.digests,
        "op_s": runner.op_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        result["traced_pass_s"] = traced
        result["layers"] = tracing.layer_metrics(tracer.spans, traced, untraced)
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
