"""Command-line surface: outputs, file formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bellpoly import classify as C
from bellpoly import cli
from bellpoly import polynomial as P
from bellpoly import quantum as Q
from bellpoly.cli import parse_correlation_text
from bellpoly.errors import DataFormatError, InvalidArgumentError
from bellpoly.polynomial import Term

from conftest import (
    SQRT2,
    chsh_frame,
    mermin3_frame,
    run_cli,
    run_module,
    svetlichny3_correlations,
)


def write_svetlichny3_file(path) -> None:
    lines = ["n=3"]
    for mask, value in sorted(svetlichny3_correlations().items()):
        settings = "".join("1" if (mask >> i) & 1 else "0" for i in range(3))
        lines.append(f"{settings} {value!r}")
    path.write_text("\n".join(lines) + "\n")


class TestPoly:
    def test_mk3_text(self):
        res = run_cli("poly", "mk", "3")
        assert res.code == 0
        lines = res.out.strip().splitlines()
        assert lines[0] == "+1/2^1 * A1' A2 A3"
        assert lines[3] == "-1/2^1 * A1' A2' A3'"
        assert "# support size: 4" in lines
        assert any("algebraic limit: 2" in line for line in lines)

    def test_mk1(self):
        res = run_cli("poly", "mk", "1")
        assert res.out.splitlines()[0] == "+1/2^0 * A1"

    def test_svetlichny4_matches_mk4(self):
        a = run_cli("poly", "svetlichny", "4")
        b = run_cli("poly", "mk", "4")
        assert a.out == b.out

    def test_structured(self):
        res = run_cli("--format", "structured", "poly", "mk", "2")
        doc = res.json()
        assert doc["schema_version"] == 1
        assert doc["support_size"] == 4
        assert doc["algebraic_limit"] == {"value": 2.0, "exact": "2/2^0"}

    def test_invalid_kind_is_usage_error(self):
        res = run_cli("poly", "chsh", "2")
        assert res.code == 2

    def test_invalid_n_is_usage_error(self):
        res = run_cli("poly", "mk", "0")
        assert res.code == 2
        assert "error" in res.err


class TestBounds:
    def test_svetlichny3(self):
        res = run_cli("bounds", "svetlichny", "3")
        assert res.code == 0
        assert "local bound: 1" in res.out
        assert res.out.count("1 (1/2^0)") >= 4  # local plus three partitions
        assert "algebraic limit: 2" in res.out

    def test_mk4_hybrid_all_two(self):
        res = run_cli("--format", "structured", "bounds", "mk", "4", "--models", "hybrid")
        doc = res.json()
        per = doc["results"]["hybrid"]["per_partition"]
        assert len(per) == 7
        assert all(entry["value"] == 2.0 for entry in per)
        assert doc["results"]["hybrid"]["max"]["value"] == 2.0

    def test_single_partition(self):
        res = run_cli(
            "--format", "structured", "bounds", "mk", "3", "--partition", "A=3|B=1,2"
        )
        doc = res.json()
        per = doc["results"]["hybrid"]["per_partition"]
        assert per[0]["partition"] == "A=3|B=1,2"
        assert per[0]["value"] == 2.0

    def test_party_listed_twice_is_data_error(self):
        res = run_cli("bounds", "mk", "2", "--partition", "A=1,1|B=2")
        assert (res.code, res.out) == (4, "")
        assert "A=1,1|B=2" in res.err

    def test_partition_party_count_checked_by_the_library(self):
        res = run_cli("bounds", "mk", "2", "--partition", "A=1|B=2,3")
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: bipartition has 3 parties, polynomial has 2\n"

    def test_unknown_model_rejected(self):
        res = run_cli("bounds", "mk", "3", "--models", "local,quantum")
        assert res.code == 2

    def test_partition_requires_hybrid_model(self):
        res = run_cli(
            "bounds", "mk", "3", "--models", "local", "--partition", "A=3|B=1,2"
        )
        assert res.code == 2

    def test_local_cap_flag_is_a_usage_error(self):
        res = run_cli("--local-cap", "10", "bounds", "mk", "3")
        assert (res.code, res.out) == (2, "")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--local-cap", "10", "bounds", "mk", "3"], "--local-cap 10"),
            (["--local-cap=10", "bounds", "mk", "3"], "--local-cap=10"),
            (["--seed", "3", "--bogus", "10", "bounds", "mk", "3"], "--bogus 10"),
            (["bounds", "mk", "3", "--local-cap", "10"], "--local-cap 10"),
            (["-x", "10", "bounds", "mk", "3"], "-x 10"),
        ],
    )
    def test_an_unknown_flag_is_named_wherever_it_stands(self, argv, named):
        res = run_cli(*argv)
        assert (res.code, res.out) == (2, "")
        assert res.err.rstrip().endswith(f"error: unrecognized arguments: {named}")

    def test_a_negative_number_before_the_command_is_a_command(self):
        res = run_cli("-5", "bounds", "mk", "3")
        assert (res.code, res.out) == (2, "")
        assert "argument command: invalid choice: '-5'" in res.err

    def test_a_known_flag_prefix_still_resolves_before_the_command(self):
        assert run_cli("--spec", "2", "bounds", "mk", "3").code == 0
        res = run_cli("--seed", "-1", "bogus")
        assert res.code == 2
        assert "invalid choice: 'bogus'" in res.err

    def test_local_bound_has_no_cap(self):
        res = run_cli("bounds", "mk", "11", "--models", "local")
        assert res.code == 0
        assert "local bound: 1" in res.out


class TestQmax:
    def test_mk2_value(self):
        res = run_cli("--restarts", "4", "--format", "structured", "qmax", "mk", "2")
        doc = res.json()
        assert doc["value"] == pytest.approx(SQRT2, abs=1e-6)
        assert doc["state"] is not None
        assert doc["frame"]["n"] == 2

    def test_svetlichny3_with_fixed_state(self):
        res = run_cli(
            "--restarts", "4", "--format", "structured",
            "qmax", "svetlichny", "3", "--state", "ghz:3",
        )
        doc = res.json()
        assert doc["value"] == pytest.approx(SQRT2, abs=1e-6)
        assert doc["state"] is None  # state was an input, not an output

    def test_deterministic_byte_identical(self):
        args = ("--seed", "9", "--restarts", "4", "--format", "structured", "qmax", "mk", "3")
        assert run_cli(*args).out == run_cli(*args).out

    def test_seed_changes_search_path(self):
        a = run_cli("--seed", "1", "--restarts", "2", "--format", "structured", "qmax", "mk", "2")
        b = run_cli("--seed", "2", "--restarts", "2", "--format", "structured", "qmax", "mk", "2")
        assert a.json()["frame"] != b.json()["frame"]

    def test_mk4_value(self):
        res = run_cli("--restarts", "4", "--format", "structured", "qmax", "mk", "4")
        assert res.json()["value"] == pytest.approx(2 * SQRT2, abs=1e-6)

    def test_spectral_cap(self):
        res = run_cli("--spectral-cap", "3", "qmax", "mk", "4")
        assert res.code == 3
        assert "--spectral-cap" in res.err

    def test_bad_state_spec_is_data_error(self):
        res = run_cli("qmax", "mk", "2", "--state", "file:/missing.txt")
        assert res.code == 4


class TestClassify:
    def test_value_svetlichny(self):
        res = run_cli("classify", "--poly", "svetlichny", "3", "--value", "1.2")
        assert res.code == 0
        assert "genuine 3-party non-separability" in res.out
        assert "margin: 0.19999999999999996" in res.out

    def test_value_mk_no_conclusion(self):
        res = run_cli("classify", "--poly", "mk", "3", "--value", "1.0")
        assert res.code == 0
        assert "no conclusion" in res.out

    def test_value_mk_depth(self):
        res = run_cli("--format", "structured", "classify", "--poly", "mk", "3", "--value", "1.8")
        doc = res.json()
        assert doc["verdict"]["depth"] == 3
        assert doc["verdict"]["conclusion"] == "at least 3-particle entanglement"

    def test_mk_thresholds_skip_depths_that_two_clusters_beat(self):
        # at n = 6 two 3-party states reach 2*sqrt(2), above the m = 3 threshold 2
        res = run_cli("--format", "structured", "classify", "--poly", "mk", "6", "--value", "2.5")
        doc = res.json()
        assert [t["depth"] for t in doc["thresholds"]] == [2, 3, 5, 6]
        assert doc["verdict"]["depth"] == 3

    def test_svetlichny_threshold_is_the_genuine_bound(self):
        res = run_cli(
            "--format", "structured", "classify", "--poly", "svetlichny", "3", "--value", "1.2"
        )
        assert res.json()["thresholds"] == [{"genuine": 3, "value": 1.0, "exact": "1"}]

    def test_correlations_file(self, tmp_path):
        path = tmp_path / "ghz3.corr"
        write_svetlichny3_file(path)
        res = run_cli(
            "--format", "structured",
            "classify", "--poly", "svetlichny", "3", "--correlations", str(path),
        )
        doc = res.json()
        assert doc["value"] == pytest.approx(SQRT2, abs=1e-6)
        assert doc["verdict"]["genuine_nonseparable"] is True

    def test_missing_terms_listed(self, tmp_path):
        path = tmp_path / "partial.corr"
        path.write_text("n=3\n000 1.0\n")
        res = run_cli("classify", "--poly", "svetlichny", "3", "--correlations", str(path))
        assert res.code == 4
        assert "missing" in res.err
        assert "A1'" in res.err

    def test_malformed_file_names_line(self, tmp_path):
        path = tmp_path / "bad.corr"
        path.write_text("n=3\n000 1.0\nxyz 0.5\n")
        res = run_cli("classify", "--poly", "svetlichny", "3", "--correlations", str(path))
        assert res.code == 4
        assert "line 3" in res.err

    def test_party_count_mismatch_is_an_argument_error(self, tmp_path):
        """Exit 2, as for a state or frame of the wrong party count."""
        path = tmp_path / "chsh.corr"
        path.write_text("n=2\n00 1\n01 1\n10 1\n11 -1\n")
        res = run_cli("classify", "--poly", "mk", "3", "--correlations", str(path))
        assert (res.code, res.err) == (
            2, "error: correlation vector has 2 parties, polynomial has 3\n"
        )

    def test_state_and_frame(self, tmp_path):
        frame_path = tmp_path / "frame.txt"
        frame_path.write_text(Q.frame_to_text(mermin3_frame()))
        res = run_cli(
            "--format", "structured",
            "classify", "--poly", "mk", "3",
            "--state", "ghz:3", "--frame", str(frame_path),
        )
        doc = res.json()
        assert doc["value"] == pytest.approx(2.0, abs=1e-9)
        assert doc["verdict"]["depth"] == 3

    def test_exactly_one_source_required(self, tmp_path):
        res = run_cli("classify", "--poly", "mk", "3")
        assert res.code == 2
        path = tmp_path / "x.corr"
        path.write_text("n=3\n")
        res = run_cli(
            "classify", "--poly", "mk", "3", "--value", "1", "--correlations", str(path)
        )
        assert res.code == 2

    def test_state_without_frame_rejected(self):
        res = run_cli("classify", "--poly", "mk", "3", "--state", "ghz:3")
        assert res.code == 2

    def test_inconsistent_value_is_data_error(self):
        res = run_cli("classify", "--poly", "mk", "3", "--value", "2.5")
        assert res.code == 4


class TestTable1:
    def test_runs_clean(self):
        res = run_cli("--restarts", "8", "table1")
        assert res.code == 0
        lines = res.out.splitlines()
        assert lines[1].split() == ["M3", "1", "sqrt(2)", "2", "2", "2"]
        assert lines[2].split() == ["S3", "1", "1", "1", "sqrt(2)", "2"]
        assert lines[3].split() == ["product", "1", "sqrt(2)", "2", "2*sqrt(2)", "4"]

    def test_structured(self):
        res = run_cli("--restarts", "8", "--format", "structured", "table1")
        doc = res.json()
        assert doc["verified"] is True
        assert len(doc["cells"]) == 15

    def test_verify_tol_sets_quantum_cell_tolerance(self):
        res = run_cli("--restarts", "8", "--verify-tol", "1e-3", "--format", "structured", "table1")
        cells = res.json()["cells"]
        for cell in cells:
            quantum = cell["column"].startswith("quantum")
            assert cell["tolerance"] == (0.001 if quantum else 0.0)
        assert sum(cell["column"].startswith("quantum") for cell in cells) == 6

    def test_injected_mismatch_fails_with_cell(self, monkeypatch):
        monkeypatch.setitem(C._TABLE1_STORED["S3"], "local", C.Root2Power(2))
        res = run_cli("--restarts", "4", "table1")
        assert res.code == 5
        assert "S3:local" in res.err


class TestGlobalFlags:
    def test_show_config_lists_defaults(self):
        res = run_cli("--show-config")
        assert res.code == 0
        assert "seed = 24301" in res.out
        assert "restarts = 16" in res.out
        assert "local_cap" not in res.out

    def test_show_config_structured(self):
        res = run_cli("--format", "structured", "--show-config")
        doc = res.json()
        assert doc["config"]["seed"] == 0x5EED

    def test_one_parser_serves_every_call_of_a_process(self, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        help_before = run_cli("--help").out
        assert run_cli("poly", "chsh", "2").code == 2
        doc = run_cli("--seed", "7", "--restarts", "3", "--format", "structured",
                      "qmax", "mk", "3").json()
        assert (doc["seed"], doc["restarts"]) == (7, 3)
        shown = run_cli("--show-config")
        # no parsed value of an earlier call carries over
        defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}
        assert shown.out.splitlines() == [f"{key} = {value}" for key, value in defaults.items()]
        assert run_cli("--help").out == help_before
        assert len(built) == 1

    def test_no_command_is_usage_error(self):
        res = run_cli()
        assert res.code == 2

    def test_bad_tolerance_rejected(self):
        res = run_cli("--verdict-tol", "0.5", "poly", "mk", "2")
        assert res.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--restarts", "0", "qmax", "mk", "2"], "restarts must be positive"),
            (["--restarts", "0", "table1"], "restarts must be positive"),
            (["classify", "--poly", "mk", "x", "--value", "1"], "bad party count 'x'"),
            (["classify", "--poly", "nonsense", "3", "--value", "1"], "unknown polynomial kind 'nonsense'"),
        ],
        ids=["zero-restarts-qmax", "zero-restarts-table1", "classify-party-count",
             "classify-kind"],
    )
    def test_argument_errors(self, argv, message):
        res = run_cli(*argv)
        assert (res.code, res.out, res.err) == (2, "", f"error: {message}\n")

    def test_negative_seed_is_usage_error(self):
        res = run_cli("--seed", "-1", "--restarts", "1", "qmax", "mk", "2")
        assert (res.code, res.err) == (2, "error: seed must be non-negative, got -1\n")

    def test_unknown_output_format_rejected(self):
        with pytest.raises(InvalidArgumentError) as err:
            cli.RunConfig(output_format="xml")
        assert str(err.value) == "unknown output format 'xml'"


class TestSettingsReachEveryCommand:
    """A cap or tolerance governs every command that runs what it limits."""

    @pytest.mark.parametrize(
        "command",
        [
            ["qmax", "mk", "3"],
            ["qmax", "mk", "3", "--state", "ghz:3"],
            ["classify", "--poly", "mk", "3", "--state", "ghz:3", "--frame", "FRAME"],
            ["--restarts", "1", "table1"],
        ],
    )
    def test_spectral_cap_stops_every_dense_path(self, command, tmp_path):
        """Each path stops with the message plain `qmax` prints."""
        frame_path = tmp_path / "frame.txt"
        frame_path.write_text(Q.frame_to_text(mermin3_frame()))
        argv = [str(frame_path) if arg == "FRAME" else arg for arg in command]
        res = run_cli("--spectral-cap", "2", *argv)
        assert (res.code, res.err) == (
            3, "error: spectral computation for n=3 exceeds the cap n <= 2 (--spectral-cap)\n"
        )

    def test_table1_forwards_search_settings(self, monkeypatch):
        calls = []
        for name in ("quantum_max", "block_product_max"):
            def spy(*args, _real=getattr(Q, name), _name=name, **kwargs):
                calls.append((_name, kwargs))
                return _real(*args, **kwargs)

            monkeypatch.setattr(Q, name, spy)
        run_cli(
            "--restarts", "1", "--seesaw-tol", "1e-5", "--seesaw-max-sweeps", "7",
            "--spectral-cap", "5", "table1",
        )
        # per row (M3, S3): one full search and one per 3-party bipartition
        assert sorted(name for name, _ in calls) == ["block_product_max"] * 6 + ["quantum_max"] * 2
        for _, kwargs in calls:
            assert (kwargs["restarts"], kwargs["tol"], kwargs["max_sweeps"], kwargs["cap"]) == (
                1, 1e-5, 7, 5
            )

    def test_every_setting_listed_once(self):
        names = [f.name for f in dataclasses.fields(cli.RunConfig)]
        shown = run_cli("--show-config").out.splitlines()
        assert [line.split(" = ")[0] for line in shown] == names
        structured = run_cli("--format", "structured", "--show-config").json()["config"]
        assert sorted(structured) == sorted(names)
        help_out = run_cli("--help").out
        options = [
            line.split()[0] for line in help_out.split("options:")[1].splitlines()
            if line.startswith("  -")
        ]
        for name in names:
            flag = "--format" if name == "output_format" else "--" + name.replace("_", "-")
            assert options.count(flag) == 1, flag

    def test_readme_flag_table_lists_exactly_the_config_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        documented = {
            flag
            for line in section.splitlines() if line.startswith("| `--")
            for flag in re.findall(r"`(--[a-z-]+)`", line.split("|")[1])
        }
        names = {f.name for f in dataclasses.fields(cli.RunConfig)}
        derived = {
            flag
            for action in cli.build_parser()._actions if action.dest in names
            for flag in action.option_strings
        }
        assert documented == derived

    @pytest.mark.parametrize("spec", ["ghz:30", "basis:30:0"])
    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["qmax", "mk", "3", "--state", "SPEC"], id="qmax"),
            pytest.param(
                ["classify", "--poly", "mk", "3", "--state", "SPEC", "--frame", "FRAME"],
                id="classify",
            ),
        ],
    )
    def test_state_count_checked_before_the_state_is_built(
        self, command, spec, tmp_path, monkeypatch
    ):
        """--spectral-cap bounds the polynomial's n, not the spec's; 2^30 amplitudes are 16 GiB."""

        def refuse(*args):
            raise AssertionError(f"built a state for {args}")

        monkeypatch.setattr(Q, "ghz", refuse)
        monkeypatch.setattr(Q, "basis_state", refuse)
        frame_path = tmp_path / "frame.txt"
        frame_path.write_text(Q.frame_to_text(mermin3_frame()))
        argv = [{"SPEC": spec, "FRAME": str(frame_path)}.get(arg, arg) for arg in command]
        res = run_cli(*argv)
        assert (res.code, res.err) == (2, "error: state has 30 parties, polynomial has 3\n")


class TestStateAndFrameFaults:
    """Every single-fault `qmax --state` and `classify --state/--frame` input: exit and message."""

    CAP = "spectral computation for n=3 exceeds the cap n <= 2 (--spectral-cap)"
    MISSING = (
        "cannot read {what} file '{tmp}/missing.txt': "
        "[Errno 2] No such file or directory: '{tmp}/missing.txt'"
    )
    QMAX = ["qmax", "mk", "3", "--state"]
    CLASSIFY = ["classify", "--poly", "mk", "3", "--state"]
    FRAME3 = ["--frame", "{tmp}/frame3.txt"]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--spectral-cap", "2", *QMAX, "ghz:3"], 3, CAP),
            (["--spectral-cap", "2", *CLASSIFY, "ghz:3", *FRAME3], 3, CAP),
            ([*QMAX, "ghz:x"], 4, "bad state spec 'ghz:x' (want ghz:n)"),
            ([*QMAX, "ghz:0"], 4, "bad state spec 'ghz:0' (want ghz:n)"),
            ([*QMAX, "basis:3:99"], 4, "bad state spec 'basis:3:99' (want basis:n:index)"),
            ([*QMAX, "file:"], 4, "bad state spec 'file:' (want file:<path>)"),
            ([*QMAX, "file:{tmp}/three_fields.txt"], 4, "line 2: expected `re im`, got '0 0 0'"),
            (
                [*CLASSIFY, "bogus:3", *FRAME3], 4,
                "unknown state spec 'bogus:3' (want ghz:, basis:, or file:)",
            ),
            ([*QMAX, "file:{tmp}/missing.txt"], 4, MISSING.replace("{what}", "state")),
            ([*CLASSIFY, "file:{tmp}/missing.txt", *FRAME3], 4, MISSING.replace("{what}", "state")),
            ([*QMAX, "ghz:4"], 2, "state has 4 parties, polynomial has 3"),
            ([*QMAX, "file:{tmp}/ghz2.txt"], 2, "state has 2 parties, polynomial has 3"),
            ([*CLASSIFY, "basis:2:1", *FRAME3], 2, "state has 2 parties, polynomial has 3"),
            (
                [*CLASSIFY, "file:{tmp}/ghz2.txt", *FRAME3], 2,
                "state has 2 parties, polynomial has 3",
            ),
            (
                [*CLASSIFY, "ghz:3", "--frame", "{tmp}/frame2.txt"], 2,
                "polynomial has 3 parties, frame has 2",
            ),
            (
                [*CLASSIFY, "ghz:3", "--frame", "{tmp}/missing.txt"], 4,
                MISSING.replace("{what}", "frame"),
            ),
            (
                [*CLASSIFY, "ghz:3", "--frame", "{tmp}/frame_short.txt"], 4,
                "line 4: expected three reals, got '1 0'",
            ),
            (
                [*CLASSIFY, "ghz:3", "--frame", "{tmp}/frame_nan.txt"], 4,
                "line 2: (nan, 0.0, 0.0) has norm nan, not a unit vector",
            ),
            ([*QMAX, "file:{tmp}/nan3.txt"], 4, "state norm is nan, not 1 within 1e-12"),
            (
                [*CLASSIFY, "file:{tmp}/nan3.txt", *FRAME3], 4,
                "state norm is nan, not 1 within 1e-12",
            ),
        ],
        ids=[
            "cap-qmax", "cap-classify", "spec-qmax", "spec-qmax-ghz-0", "spec-qmax-basis-index",
            "spec-qmax-no-path", "state-file-line", "spec-classify", "state-file-qmax",
            "state-file-classify", "state-count-qmax-ghz", "state-count-qmax-file",
            "state-count-classify-basis", "state-count-classify-file", "frame-count", "frame-file",
            "frame-line", "frame-nan", "state-nan-qmax", "state-nan-classify",
        ],
    )
    def test_exit_code_and_message(self, argv, code, message, tmp_path):
        files = {
            "frame3.txt": Q.frame_to_text(mermin3_frame()),
            "frame2.txt": Q.frame_to_text(chsh_frame()),
            "frame_short.txt": "n=3\n1 0 0\n0 1 0\n1 0\n0 1 0\n0 -1 0\n1 0 0\n",
            "frame_nan.txt": "n=3\nnan 0 0\n" + "1 0 0\n" * 5,
            "ghz2.txt": "0.7071067811865476 0\n0 0\n0 0\n0.7071067811865476 0\n",
            "nan3.txt": "nan 0\n" + "0 0\n" * 7,
            "three_fields.txt": "1 0\n0 0 0\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        res = run_cli(*(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        assert (res.code, res.err) == (code, f"error: {message.replace('{tmp}', str(tmp_path))}\n")


class TestSubprocess:
    """The installed entry point, end to end in a fresh interpreter."""

    def test_module_invocation_and_determinism(self):
        cmd = ("--format", "structured", "--restarts", "2", "qmax", "mk", "2")
        first = run_module(*cmd)
        second = run_module(*cmd)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["value"] == pytest.approx(SQRT2, abs=1e-6)

    def test_help_exits_zero(self):
        res = run_module("--help")
        assert res.returncode == 0
        assert "table1" in res.stdout

    def test_usage_error_exit_code(self):
        res = run_module("poly", "nonsense", "3")
        assert res.returncode == 2


class TestCorrelationParsing:
    def test_round_trip_values(self):
        text = "n=2\n00 1.0\n10 -0.25\n01 0.5\n11 0.0\n"
        cv = parse_correlation_text(text)
        assert cv.n == 2
        assert cv.values[Term(2, 0)] == 1.0
        assert cv.values[Term(2, 1)] == -0.25  # leftmost char is party 1

    def test_duplicate_rejected(self):
        with pytest.raises(DataFormatError):
            parse_correlation_text("n=1\n0 1.0\n0 0.5\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(DataFormatError):
            parse_correlation_text("n=1\n0 1.5\n")

    def test_header_required(self):
        with pytest.raises(DataFormatError):
            parse_correlation_text("00 1.0\n")

    def test_wrong_width_rejected(self):
        with pytest.raises(DataFormatError):
            parse_correlation_text("n=2\n000 1.0\n")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "empty correlation file", None),
            ("# c\n00 1.0\n", "line 2: correlation file must start with an n=<count> header", 2),
            ("n=x\n", "line 1: bad header 'n=x'", 1),
            ("\nn=0\n", "line 2: party count must be >= 1", 2),
            ("n=1\n\n# c\n0 1.0\n0 0.5\n", "line 5: duplicate settings '0'", 5),
            ("n=1\n0\n", "line 2: expected `<settings> <value>`, got '0'", 2),
            ("n=1\n0 x\n", "line 2: bad value 'x'", 2),
        ],
    )
    def test_error_messages_and_lines(self, text, message, line):
        with pytest.raises(DataFormatError) as err:
            parse_correlation_text(text)
        assert (str(err.value), err.value.line) == (message, line)


class TestRoundTrip:
    def test_poly_output_reingests_identically(self):
        rng = np.random.default_rng(123)
        for kind, n in (("mk", 3), ("mk", 4), ("svetlichny", 3), ("svetlichny-minus", 5)):
            res = run_cli("poly", kind, str(n))
            reparsed = P.from_text(res.out)
            built = {
                "mk": P.mk,
                "svetlichny": P.svetlichny,
                "svetlichny-minus": P.svetlichny_minus,
            }[kind](n)
            assert reparsed == built
            for _ in range(100):
                values = {
                    Term(n, m): float(rng.uniform(-1, 1)) for m in range(1 << n)
                }
                assert P.evaluate(reparsed, values) == P.evaluate(built, values)
