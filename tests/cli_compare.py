"""Record, or compare against a record, the exact outputs of a fixed list of CLI invocations.

Each case runs `bellpoly.cli.main` in this process and records its argv, exit
status, stdout and stderr.  The list covers valid invocations of every
command, in text and structured form, and inputs with one fault each, most of
them on the `qmax --state` and `classify --state/--frame` paths.  Another
group has two faults each: which one is reported depends on the order of the
checks.  A last group runs in pairs whose second call would show any state
the first one left behind in the process.  Input files are written to a
temporary directory, which argv and the recorded outputs name `{tmp}`.  An
exception that escapes `main` is recorded as exit status null, with its type
and message as stderr.

Record the outputs of a trusted tree, then compare another tree with them:

    python3 tests/cli_compare.py --src TRUSTED/src --write outputs.json
    python3 tests/cli_compare.py --compare outputs.json

`--src` defaults to this checkout's `src/`.  With --compare it writes nothing
and prints every case whose exit status, stdout or stderr differs from the
stored one (or is missing from it), then how many differ; it exits 1 when
any case differs and 0 otherwise.  Not part of the test suite: a full run
takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

MERMIN3_FRAME = "n=3\n1 0 0\n0 1 0\n1 0 0\n0 1 0\n0 -1 0\n1 0 0\n"
S = "0.7071067811865476"
CHSH_FRAME = f"n=2\n0 0 1\n1 0 0\n{S} 0 {S}\n-{S} 0 {S}\n"
GHZ2 = f"{S} 0\n0 0\n0 0\n{S} 0\n"

FILES = {
    "frame3.txt": MERMIN3_FRAME,
    "frame2.txt": CHSH_FRAME,
    "frame_short.txt": "n=3\n1 0 0\n0 1 0\n1 0\n0 1 0\n0 -1 0\n1 0 0\n",
    "frame_nan.txt": "n=2\nnan 0 0\n1 0 0\n0 0 1\n1 0 0\n",
    "frame_nonunit.txt": "n=2\n0 0 2\n1 0 0\n0 0 1\n1 0 0\n",
    "frame_header.txt": "n=x\n",
    "ghz2.txt": GHZ2,
    "ghz3.txt": f"{S} 0\n" + "0 0\n" * 6 + f"{S} 0\n",
    "nan1.txt": "nan 0\n0 0\n",
    "nan2.txt": "nan 0\n0 0\n0 0\n0 0\n",
    "unnormed.txt": "1 0\n1 0\n",
    "state_bad.txt": "1 0\nx 0\n",
    "corr3.txt": "n=3\n100 1\n010 1\n001 1\n111 -1\n000 -0.5\n011 0.5\n101 0.5\n110 0.5\n",
    "corr2.txt": "n=2\n00 1\n01 1\n10 1\n11 -1\n",
    "corr_partial.txt": "n=3\n000 1\n",
    "corr_range.txt": "n=3\n000 2\n",
}

QMAX = ["--restarts", "2", "qmax"]
CLASSIFY_STATE = ["classify", "--poly", "mk", "3", "--state"]

VALID = [
    ["poly", "mk", "3"],
    ["--format", "structured", "poly", "svetlichny", "4"],
    ["bounds", "svetlichny", "3"],
    ["--format", "structured", "bounds", "mk", "3", "--partition", "A=3|B=1,2"],
    # local bounds where every Walsh entry ties (mk 10), past n = 10, and for one party
    ["--format", "structured", "bounds", "mk", "10", "--models", "local"],
    ["--format", "structured", "bounds", "svetlichny", "10", "--models", "local"],
    ["bounds", "mk", "11", "--models", "local"],
    ["--format", "structured", "bounds", "mk", "16", "--models", "local"],
    # a 4|12 split, whose leading tuples' sums come from nested tables
    ["--format", "structured", "bounds", "mk", "16", "--models", "hybrid", "--partition",
     "A=1,2,3,4|B=5,6,7,8,9,10,11,12,13,14,15,16"],
    ["bounds", "mk", "1", "--models", "local"],
    [*QMAX, "mk", "3"],
    ["--format", "structured", *QMAX, "svetlichny", "3"],
    ["--seesaw-tol", "1e-6", "--seesaw-max-sweeps", "3", "--spectral-cap", "3", *QMAX, "mk", "3"],
    [*QMAX, "svetlichny", "3", "--state", "ghz:3"],
    ["--format", "structured", *QMAX, "mk", "3", "--state", "ghz:3"],
    [*QMAX, "mk", "3", "--state", "basis:3:5"],
    [*QMAX, "mk", "2", "--state", "file:{tmp}/ghz2.txt"],
    ["--spectral-cap", "3", *QMAX, "mk", "3", "--state", "file:{tmp}/ghz3.txt"],
    [*CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame3.txt"],
    ["--format", "structured", *CLASSIFY_STATE, "file:{tmp}/ghz3.txt", "--frame",
     "{tmp}/frame3.txt"],
    ["--spectral-cap", "3", *CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame3.txt"],
    ["classify", "--poly", "mk", "2", "--state", "ghz:2", "--frame", "{tmp}/frame2.txt"],
    ["classify", "--poly", "svetlichny", "3", "--correlations", "{tmp}/corr3.txt"],
    ["--format", "structured", "classify", "--poly", "mk", "3", "--correlations",
     "{tmp}/corr3.txt"],
    ["classify", "--poly", "mk", "3", "--value", "1.8"],
    ["--format", "structured", "classify", "--poly", "svetlichny", "3", "--value", "1.2"],
    # beyond n = 3 the bound tables differ: mk 6 has no depth-4 threshold
    ["--format", "structured", "classify", "--poly", "mk", "6", "--value", "2.9"],
    ["classify", "--poly", "mk", "9", "--value", "10.0"],
    ["classify", "--poly", "mk-prime", "4", "--value", "2.0"],
    ["--format", "structured", "classify", "--poly", "svetlichny", "2", "--value", "1.2"],
    ["classify", "--poly", "svetlichny", "5", "--value", "2.9"],
    ["classify", "--poly", "svetlichny-minus", "5", "--value", "3.0"],
    ["--format", "structured", "--restarts", "1", "table1"],
    ["--show-config"],
    # from n = 7 every top eigenpair comes from Lanczos
    ["--restarts", "1", "qmax", "mk", "7"],
    ["--format", "structured", "--restarts", "1", "qmax", "mk", "8"],
    ["--format", "structured", "--restarts", "1", "qmax", "svetlichny", "8", "--state", "ghz:8"],
]

SINGLE_FAULT = [
    # spectral cap exceeded
    ["--spectral-cap", "2", *QMAX, "mk", "3"],
    ["--spectral-cap", "2", *QMAX, "mk", "3", "--state", "ghz:3"],
    ["--spectral-cap", "2", *CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame3.txt"],
    ["--spectral-cap", "2", "--restarts", "1", "table1"],
    # bad state spec or state file
    [*QMAX, "mk", "3", "--state", "bogus:3"],
    [*QMAX, "mk", "3", "--state", "ghz:x"],
    [*QMAX, "mk", "3", "--state", "ghz:0"],
    [*QMAX, "mk", "3", "--state", "basis:3"],
    [*QMAX, "mk", "3", "--state", "basis:3:8"],
    [*QMAX, "mk", "3", "--state", "basis:3:99"],
    [*QMAX, "mk", "3", "--state", "file:"],
    [*QMAX, "mk", "3", "--state", "file:{tmp}/missing.txt"],
    [*QMAX, "mk", "1", "--state", "file:{tmp}/unnormed.txt"],
    [*QMAX, "mk", "1", "--state", "file:{tmp}/state_bad.txt"],
    [*QMAX, "mk", "1", "--state", "file:{tmp}/nan1.txt"],
    ["--format", "structured", *QMAX, "mk", "1", "--state", "file:{tmp}/nan1.txt"],
    [*CLASSIFY_STATE, "bogus:3", "--frame", "{tmp}/frame3.txt"],
    [*CLASSIFY_STATE, "file:{tmp}/missing.txt", "--frame", "{tmp}/frame3.txt"],
    ["classify", "--poly", "mk", "2", "--state", "file:{tmp}/nan2.txt", "--frame",
     "{tmp}/frame2.txt"],
    # state for another qubit count
    [*QMAX, "mk", "3", "--state", "ghz:4"],
    [*QMAX, "mk", "3", "--state", "basis:30:0"],
    [*QMAX, "mk", "3", "--state", "file:{tmp}/ghz2.txt"],
    [*CLASSIFY_STATE, "ghz:30", "--frame", "{tmp}/frame3.txt"],
    [*CLASSIFY_STATE, "basis:2:1", "--frame", "{tmp}/frame3.txt"],
    [*CLASSIFY_STATE, "file:{tmp}/ghz2.txt", "--frame", "{tmp}/frame3.txt"],
    # frame for another party count, unreadable, or malformed
    [*CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame2.txt"],
    [*CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/missing.txt"],
    [*CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame_short.txt"],
    [*CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame_header.txt"],
    ["classify", "--poly", "mk", "2", "--state", "ghz:2", "--frame", "{tmp}/frame_nan.txt"],
    ["classify", "--poly", "mk", "2", "--state", "ghz:2", "--frame", "{tmp}/frame_nonunit.txt"],
    # classify sources
    ["classify", "--poly", "mk", "3", "--state", "ghz:3"],
    ["classify", "--poly", "mk", "3", "--frame", "{tmp}/frame3.txt"],
    ["classify", "--poly", "mk", "3", "--value", "1.0", "--state", "ghz:3", "--frame",
     "{tmp}/frame3.txt"],
    ["classify", "--poly", "mk", "3", "--correlations", "{tmp}/missing.txt"],
    ["classify", "--poly", "mk", "3", "--correlations", "{tmp}/corr2.txt"],
    ["classify", "--poly", "mk", "3", "--correlations", "{tmp}/corr_partial.txt"],
    ["classify", "--poly", "mk", "3", "--correlations", "{tmp}/corr_range.txt"],
    ["classify", "--poly", "mk", "x", "--value", "1.0"],
    ["classify", "--poly", "nonsense", "3", "--value", "1.0"],
    ["classify", "--poly", "mk", "3", "--value", "9.0"],
    ["classify", "--poly", "mk", "3", "--value", "nan"],
    # party count below a family's floor, or a partition of another count
    ["poly", "mk", "0"],
    ["poly", "svetlichny", "1"],
    ["poly", "svetlichny-minus", "4"],
    ["bounds", "mk", "1"],
    ["classify", "--poly", "mk", "1", "--value", "0.5"],
    ["bounds", "mk", "3", "--partition", "A=1|B=2,3,4"],
    # usage
    ["poly", "nonsense", "3"],
    ["--restarts", "0", "qmax", "mk", "3"],
    ["--seed", "-1", "qmax", "mk", "2"],
    ["bounds", "mk", "3", "--models", "local", "--partition", "A=1|B=2,3"],
    ["--local-cap", "10", "bounds", "mk", "3"],
    ["-x", "10", "bounds", "mk", "3"],
]

DOUBLE_FAULT = [
    ["--spectral-cap", "2", *QMAX, "mk", "3", "--state", "ghz:30"],
    ["--spectral-cap", "2", *QMAX, "mk", "3", "--state", "bogus:3"],
    ["--spectral-cap", "2", *QMAX, "mk", "3", "--state", "file:{tmp}/missing.txt"],
    ["--spectral-cap", "2", *CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/missing.txt"],
    ["--spectral-cap", "2", *CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame_short.txt"],
    ["--spectral-cap", "2", *CLASSIFY_STATE, "ghz:4", "--frame", "{tmp}/frame3.txt"],
    ["--spectral-cap", "2", *CLASSIFY_STATE, "bogus:3", "--frame", "{tmp}/frame3.txt"],
    ["--spectral-cap", "2", *CLASSIFY_STATE, "ghz:3", "--frame", "{tmp}/frame2.txt"],
    [*CLASSIFY_STATE, "ghz:4", "--frame", "{tmp}/frame2.txt"],
    [*CLASSIFY_STATE, "bogus:3", "--frame", "{tmp}/frame2.txt"],
    [*CLASSIFY_STATE, "ghz:4", "--frame", "{tmp}/missing.txt"],
]

# Run back to back, each pair's second call must not see the first one's
# flags or its failed parse: a flag-changing --show-config then a bare one,
# and a usage error then the same command given correctly.
ORDERED = [
    ["--seed", "7", "--restarts", "3", "--format", "structured", "--seesaw-tol", "1e-6",
     "--show-config"],
    ["--show-config"],
    ["--restarts", "x", "qmax", "mk", "3"],
    ["--restarts", "2", "qmax", "mk", "3"],
    ["--format", "structured", "classify", "--poly", "mk", "--value", "1.8"],
    ["--format", "structured", "classify", "--poly", "mk", "3", "--value", "1.8"],
    # the second verdict reads the bound table the first one may have kept
    ["classify", "--poly", "mk", "6", "--value", "2.9"],
    ["classify", "--poly", "mk", "6", "--value", "4.5"],
    # a one-sweep search, then a see-saw at the default sweep limit
    ["--seesaw-max-sweeps", "1", *QMAX, "mk", "3"],
    ["--format", "structured", *QMAX, "svetlichny", "3", "--state", "ghz:3"],
]

CASES = VALID + SINGLE_FAULT + DOUBLE_FAULT + ORDERED


def run_case(main, argv: list[str], tmp: str) -> dict:
    """One invocation's exit status and outputs, with the temporary directory named `{tmp}`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
        except Exception as exc:  # an escaped exception is an output too
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(tmp, "{tmp}"),
        "stderr": err.getvalue().replace(tmp, "{tmp}"),
    }


def record(src: Path) -> list[dict]:
    sys.path.insert(0, str(src.resolve()))
    main = importlib.import_module("bellpoly.cli").main
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        return [run_case(main, argv, tmp) for argv in CASES]


def compare(stored: list[dict], outputs: list[dict]) -> list[str]:
    """One block per case whose exit status or outputs differ from the stored ones."""
    by_argv = {json.dumps(case["argv"]): case for case in stored}
    moved = []
    for case in outputs:
        old = by_argv.get(json.dumps(case["argv"]))
        if old is None:
            moved.append(f"{' '.join(case['argv'])}\n  not in the stored record")
            continue
        fields = [
            f"  {key}: stored {old[key]!r}\n  {' ' * len(key)}  now    {case[key]!r}"
            for key in ("exit", "stdout", "stderr")
            if old[key] != case[key]
        ]
        if fields:
            moved.append("\n".join([" ".join(case["argv"]), *fields]))
    return moved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src/ tree whose bellpoly runs (default: this checkout's)")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", type=Path, help="record the outputs to this JSON file")
    action.add_argument("--compare", type=Path,
                        help="print cases whose outputs differ from this record, write nothing")
    args = parser.parse_args()
    outputs = record(args.src)
    if args.compare:
        moved = compare(json.loads(args.compare.read_text()), outputs)
        print("\n".join(moved + [f"{len(moved)} of {len(outputs)} cases differ"]))
        return 1 if moved else 0
    args.write.write_text(json.dumps(outputs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
