"""bellpoly benchmark launcher.

    python3 bench/run.py --workload quantum_search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS fixed to THREADS and glibc's malloc thresholds fixed (MALLOC).  `--trace 0` prints the end-to-end metrics;
`--trace 1` prints the per-layer metrics of a traced run.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the full record (environment, pass times, tail
percentile, failure reasons and output digests), which is also written to
.bench_out/.  See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("quantum_search", "exact_bounds", "session_small_n")
THREADS = 1  # BLAS threads; at most nproc, and the single-thread costs in ROADMAP.md
# glibc's adaptive trimming hands the large numpy temporaries of repeated
# passes back to the kernel and faults them in again: about 775k minor page
# faults and 1.5 s of system time per exact_bounds pass, a cost that follows
# the host's memory load rather than the code.  Fixed thresholds keep the heap.
MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
SETUP_SAMPLES = 3  # fresh-process set-ups per untraced run; setup_s takes their median
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "ratio",
}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha() -> str:
    """SHA-256 over src/**/*.py, which identifies the code measured even without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer no
    percentile has ten beyond it; the maximum is returned, as percentile 100.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(THREADS), OMP_NUM_THREADS=str(THREADS), **MALLOC)
    command = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        command.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe, spawned = _worker(args, ["--setup-only"], deadline)
            setups.append(probe["inputs_ready"] - spawned)
    record, spawned = _worker(args, [], deadline)
    setups.append(record["inputs_ready"] - spawned)

    attempted, failed = record["attempted"], record["failed"]
    record["environment"].update(
        {"seed": args.seed, "git_sha": git_sha(), "src_sha256": source_sha(), "blas_threads": THREADS}
    )
    value, percentile, beyond = tail(record["pass_s"])
    record.update(
        {
            "setup_samples_s": setups,
            "wall_tail_percentile": percentile,
            "wall_tail_samples_beyond": beyond,
            "passes": len(record["pass_s"]),
            "ops_failed_frac": failed / attempted,
        }
    )
    if args.trace:
        metrics = record["layers"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(record["pass_s"]),
            "wall_tail_s": value,
            # Import and input generation, median over fresh processes, plus the warm-up pass.
            "setup_s": statistics.median(setups) + record["warmup_s"],
            "peak_rss_mib": record["peak_rss_mib"],
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "record": record,
    }


def _emit(result: dict, args) -> None:
    record = result.pop("record")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{record['workload']}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps({**result, "record": record}, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"# {record['workload']:16s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"# record written to {path.relative_to(ROOT)}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small problems, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "bellpoly" / "__init__.py").is_file():
        print(f"error: bellpoly sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            results.append(run_workload(args))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        _emit(results[-1], args)
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
