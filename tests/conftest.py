from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from bellpoly import cli
from bellpoly.quantum import MeasurementFrame, UnitVector

SQRT2 = math.sqrt(2.0)
HALF_SQRT2 = math.sqrt(0.5)


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def json(self) -> dict:
        return json.loads(self.out)


def run_cli(*args: str) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m bellpoly` in a fresh interpreter that imports the package under test."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "bellpoly", *args], capture_output=True, text=True, env=env
    )


@pytest.fixture
def cli_runner():
    return run_cli


def chsh_frame() -> MeasurementFrame:
    """Settings saturating the two-party quantum bound: z/x against the diagonals."""
    return MeasurementFrame(
        (
            (UnitVector(0.0, 0.0, 1.0), UnitVector(1.0, 0.0, 0.0)),
            (UnitVector(HALF_SQRT2, 0.0, HALF_SQRT2), UnitVector(-HALF_SQRT2, 0.0, HALF_SQRT2)),
        )
    )


def mermin3_frame() -> MeasurementFrame:
    """xy-plane settings giving value 2 for the three-party MK polynomial on GHZ.

    With all vectors in the equator, the GHZ correlation is cos of the summed
    azimuths; angles (0, pi/2) for parties 1-2 and (-pi/2, 0) for party 3 put
    +1 on the three positive terms and -1 on the negative one.
    """
    x = UnitVector(1.0, 0.0, 0.0)
    y = UnitVector(0.0, 1.0, 0.0)
    minus_y = UnitVector(0.0, -1.0, 0.0)
    return MeasurementFrame(((x, y), (x, y), (minus_y, x)))


def svetlichny3_frame() -> MeasurementFrame:
    """xy-plane settings giving value sqrt(2) for the three-party Svetlichny
    polynomial on GHZ: angles (0, pi/2), (0, pi/2), (5pi/4, -pi/4)."""
    x = UnitVector(1.0, 0.0, 0.0)
    y = UnitVector(0.0, 1.0, 0.0)
    v3 = UnitVector(-HALF_SQRT2, -HALF_SQRT2, 0.0)
    v3p = UnitVector(HALF_SQRT2, -HALF_SQRT2, 0.0)
    return MeasurementFrame(((x, y), (x, y), (v3, v3p)))


def svetlichny3_correlations() -> dict[int, float]:
    """The exact GHZ correlations of svetlichny3_frame, keyed by prime mask.

    Every coefficient-aligned term sits at +sqrt(2)/2 except the all-plain and
    all-primed settings at -sqrt(2)/2; the polynomial value is sqrt(2).
    """
    return {mask: (-HALF_SQRT2 if mask in (0, 7) else HALF_SQRT2) for mask in range(8)}
