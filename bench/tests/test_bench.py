"""The benchmark's own tests, at smoke size.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_run(workload: str, trace: int) -> tuple[dict, dict]:
    """The result line and the full record line of one smoke-size run."""
    proc = launch("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(record)


@functools.cache
def smoke(workload: str, trace: int) -> dict:
    return smoke_run(workload, trace)[0]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_writes_well_formed_spans(workload):
    smoke(workload, 1)
    spans = json.loads((ROOT / ".bench_out" / f"trace-{workload}-s5.json").read_text())["spans"]
    assert spans
    for i, span in enumerate(spans):
        assert set(span) == {"name", "start", "end", "parent", "op", "pass", "phase", "counts"}
        assert span["name"].split(".")[0] in (*tracing.LAYERS, "bench")
        assert span["start"] <= span["end"]
        assert span["phase"] in (tracing.OP, tracing.GATE, tracing.PROBE)
        assert isinstance(span["op"], str) and isinstance(span["pass"], int)
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert span["parent"] < i
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert (parent["op"], parent["pass"]) == (span["op"], span["pass"])
        else:
            assert span["name"] in ("bench.op", "bench.gate", "bench.probe")


def test_same_seed_gives_the_same_digests_in_every_pass_and_run():
    digests = [smoke_run("session_small_n", 0)[1]["digests"] for _ in range(2)]
    assert digests[0] == digests[1]
    assert all(len(d) == 1 for d in digests[0].values())
    assert not any(op.startswith("/") or " /" in op for op in digests[0])


def _smoke_ops(workload, tmp_path):
    return workloads.build(workload, 5, True, tmp_path)


def test_wrong_expected_value_is_counted_not_raised(tmp_path):
    ops = _smoke_ops("quantum_search", tmp_path)
    ops[0].expected += 1.0  # the known maximum, now out of reach
    runner = worker.Runner(ops)
    runner.run_pass(0, traced=False)
    assert (runner.attempted, runner.failed) == (len(ops), 1)
    assert runner.failures[0]["op"] == ops[0].id
    assert "below the known maximum" in runner.failures[0]["reasons"][0]


def test_raising_operation_is_counted_not_raised(tmp_path):
    ops = _smoke_ops("exact_bounds", tmp_path)
    ops[1].run = lambda: 1 / 0
    runner = worker.Runner(ops)
    runner.run_pass(0, traced=False)
    runner.run_pass(1, traced=False)
    assert (runner.attempted, runner.failed) == (2 * len(ops), 2)
    assert runner.failures[0]["reasons"] == ["ZeroDivisionError: division by zero"]


def test_cli_output_difference_is_a_failure_on_every_pass(tmp_path):
    ops = _smoke_ops("session_small_n", tmp_path)
    op = next(o for o in ops if "bounds" in o.id)
    first, _ = op.run()
    changed = (first[0], first[1] + " ", first[2])
    outputs = iter([(first, first), (first, changed), (first, first), (first, (1, first[1], ""))])
    op.run = lambda: next(outputs)
    runner = worker.Runner([op])
    for pass_index in range(4):
        runner.run_pass(pass_index, traced=False)
    assert (runner.attempted, runner.failed) == (4, 2)
    assert [f["pass"] for f in runner.failures] == [1, 3]
    assert "differs between two identical runs" in runner.failures[0]["reasons"][0]
    assert "exit codes 0/1" in runner.failures[1]["reasons"][0]
    assert len(runner.digests[op.id]) == 3


def test_oracle_covers_every_split_up_to_five_parties(monkeypatch):
    from bellpoly import models as M
    from bellpoly import polynomial as P

    import checks

    seen = []
    brute = M.brute_hybrid_bound
    monkeypatch.setattr(M, "brute_hybrid_bound", lambda p, part, **kw: seen.append(part) or brute(p, part, **kw))
    p = P.mk(5)
    scan = M.hybrid_bound_all(p)
    assert checks.check_hybrid_scan(p, list(scan), scan.overall, "mk") == []
    assert sorted(x.to_text() for x in seen) == sorted(x.to_text() for x in M.bipartitions(5))


def test_same_seed_same_inputs(tmp_path):
    contents = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        _smoke_ops("session_small_n", tmp_path / name)
        contents.append({p.name: p.read_text() for p in (tmp_path / name).iterdir()})
    assert contents[0] and contents[0] == contents[1]
    polys = [workloads.random_dense(4, workloads.np.random.default_rng(7)) for _ in range(2)]
    assert polys[0].terms == polys[1].terms


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0, 10)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = launch("--workload", "exact_bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
