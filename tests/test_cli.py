import contextlib
import csv
import errno
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epinet
from conftest import grid_300_text, make_cases_300, perfbench_module, traced_peak
from epinet import analysis, ingest, netbuild, transform
from epinet.cli import OUTPUT_FILES, SETTINGS, RunConfig, build_parser, load_cases, main
from epinet.errors import InsufficientDataError, ParameterError
from epinet.ingest import CaseSeries, Panel, RegionKey
from epinet.netbuild import fmt9
from epinet.synthetic import make_planted_cases
from oracles import to_wide_csv


def planted_text():
    cases, _ = make_planted_cases()
    return to_wide_csv(Panel.from_series(cases))


def awkward_text():
    """The planted fixture with region names that CSV and XML must quote."""
    cases, _ = make_planted_cases()
    names = ["A&B", "<x>", 'Say "hi"', "Korea, South", "Ελλάδα", "a&amp;b", "100% %s %d"]
    for i, name in enumerate(names):
        cases[i].key = RegionKey(country=name, province="Réunion" if i % 2 else None)
    return to_wide_csv(Panel.from_series(cases))


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cases.csv"
    path.write_text(planted_text(), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def awkward_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "awkward.csv"
    path.write_text(awkward_text(), encoding="utf-8")
    return path


def cases_300_text():
    return to_wide_csv(make_cases_300())


@pytest.fixture(scope="module")
def cases_300_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cases_300.csv"
    path.write_text(cases_300_text(), encoding="utf-8")
    return path


@pytest.fixture
def grid_300_csv(benchmark_input):
    return benchmark_input("grid-300")[0]


def reference_exponents_csv(cases, alpha):
    """The earlier cell-by-cell ``exponents.csv`` writer, kept as the reference."""
    exps = transform.to_exponent_series(cases, alpha=alpha)
    diffs = transform.daily_diffs(cases.values)
    avgs = transform.moving_average_7(diffs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["region", "date", "diff", "avg7", "exponent", "defined"])
    days = [d.isoformat() for d in exps.dates]
    rows = zip(exps.keys, diffs[:, transform.WARMUP_DAYS - 1 :], avgs[:, 1:], exps.values)
    for key, d_row, a_row, e_row in rows:
        for day, diff, avg, v in zip(days, d_row, a_row, e_row):
            ok = not np.isnan(v)
            writer.writerow(
                [key.display, day, fmt9(diff), fmt9(avg), fmt9(v if ok else 0.0), int(ok)]
            )
    return buf.getvalue()


def read_bytes_map(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


PIPELINE_FILES = {
    "edges.csv",
    "network.graphml",
    "partition.csv",
    "summary.json",
    "medians.csv",
    "peaks.csv",
    "trajectory.csv",
    "smoothed.csv",
}


class TestPipeline:
    def test_planted_fixture(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        assert rc == 0
        assert PIPELINE_FILES <= {p.name for p in out.iterdir()}
        with (out / "partition.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        by_group = {}
        for row in rows:
            by_group.setdefault(row["region"].split()[0], set()).add(row["community"])
        # each planted group maps to exactly one community and vice versa
        assert all(len(v) == 1 for v in by_group.values())
        assert len({v.pop() for v in by_group.values()}) == 3

    def test_summary_records_effective_config(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        cfg = summary["config"]
        assert cfg["alpha"] == 7.0
        assert cfg["rho"] == 0.0
        assert cfg["measure"] == "pearson"
        assert cfg["min_cases"] == 100000
        assert cfg["seed"] == 0
        assert cfg["start"] == "2020-01-22"
        assert cfg["end"] == "2022-05-29"
        assert summary["partition"]["community_sizes"] == [10, 10, 10]

    def test_missing_input_exit_2_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["pipeline", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert "error" in captured.err
        payload = json.loads(captured.out)
        assert payload["error"] == "FileNotFoundError"

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not,the,right,header\n")
        rc = main(["pipeline", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "fault",
        [
            "date_gap",
            "not_utf8",
            "directory",
            "alpha_nan",
            "rho_nan",
            "config_seed",
            "config_measure",
            "config_date",
            "config_unknown_key",
            "config_not_utf8",
            "bare_cr",
            "huge_count",
            "count_past_bound",
            "huge_min_cases",
            "out_under_file",
            "start_after_end",
        ],
    )
    def test_input_fault_exit_2(self, fixture_csv, tmp_path, capsys, fault):
        bad = tmp_path / "bad.csv"
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        config_lines = {
            "config_seed": "seed = abc",
            "config_measure": "measure = foo",
            "config_date": "start = 2020-13-45",
            "config_unknown_key": "alpah = 5",
        }
        flags = []
        if fault == "date_gap":
            bad.write_text(fixture_csv.read_text().replace(",1/3/21,", ",1/4/21,", 1))
        elif fault == "not_utf8":
            bad.write_bytes(fixture_csv.read_bytes().replace(b"Group1", b"Gr\xffup1", 1))
        elif fault == "bare_cr":
            bad.write_bytes(fixture_csv.read_bytes().replace(b"Group1", b"Gr\rup1", 1))
        elif fault in ("huge_count", "count_past_bound"):
            lines = fixture_csv.read_text().splitlines(keepends=True)
            fields = lines[1].split(",")
            fields[4] = "9" * 400 if fault == "huge_count" else str(2**53 + 1)
            bad.write_text("".join([lines[0], ",".join(fields)] + lines[2:]))
        elif fault == "huge_min_cases":
            bad, flags = fixture_csv, ["--min-cases", "9" * 400]
        elif fault == "out_under_file":
            bad = fixture_csv
            blocker = tmp_path / "file"
            blocker.write_text("")
            out = blocker / "sub"
        elif fault == "directory":
            bad.mkdir()
        elif fault == "start_after_end":
            bad, flags = fixture_csv, ["--start", "2022-01-01", "--end", "2021-01-01"]
        elif fault in ("alpha_nan", "rho_nan"):
            bad, flags = fixture_csv, [f"--{fault.split('_')[0]}", "nan"]
        elif fault == "config_not_utf8":
            cfg.write_bytes(b"seed = \xff\n")
            bad, flags = fixture_csv, ["--config", str(cfg)]
        else:
            cfg.write_text(config_lines[fault] + "\n")
            bad, flags = fixture_csv, ["--config", str(cfg)]
        rc = main(["pipeline", "--input", str(bad), "--out", str(out)] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.out.splitlines()) == 1
        assert "error" in json.loads(captured.out)
        assert not out.exists()
        if fault == "config_unknown_key":
            # a misspelt setting is refused, not ignored in favour of the default
            message = json.loads(captured.out)["message"]
            assert message.startswith(f"{cfg}:1: unknown setting 'alpah'")
        if fault == "count_past_bound":
            # 2**53 + 1 has no float of its own; it is refused, not rounded
            assert json.loads(captured.out) == {
                "error": "CsvParseError",
                "message": "case count '9007199254740993' out of range (row 2, column 5)",
            }
        if fault == "bare_cr":
            message = json.loads(captured.out)["message"]
            assert message.startswith("line 2 ")
            assert "remove the carriage return from the field" in message
            assert "universal-newline" not in message
        if fault == "start_after_end":
            assert json.loads(captured.out) == {
                "error": "DateRangeError",
                "message": "start 2022-01-01 after end 2021-01-01",
            }

    def test_window_outside_the_data_exit_3(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--start", "2023-01-01", "--end", "2023-02-01"]
        rc = main(["pipeline", "--input", str(fixture_csv), "--out", str(out)] + argv)
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["error"] == "InsufficientDataError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "pipeline --input {csv} --out {out} --seed abc",
            "pipeline --input {csv} --out {out} --measure foo",
            "grid --input {csv} --out {out} --bogus 1",
            "network --input {csv} --out {out} --rho",
            # a setting that the command does not read is no flag of it
            "grid --input {csv} --out {out} --alpha=5",
            "network --input {csv} --out {out} --seed 3",
            "transform --input {csv} --out {out} --rho=0.1",
            "--input {csv} --out {out}",
            "",
        ],
    )
    def test_usage_error_exit_2(self, fixture_csv, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv.format(csv=fixture_csv, out=out).split())
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.out.splitlines()) == 1
        assert json.loads(captured.out)["error"] == "ParameterError"
        assert not out.exists()

    def test_negative_value_needs_equals_form(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["network", "--input", str(fixture_csv), "--out", str(out)]
        rc = main(argv + ["--rho", "-1e-3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "write a negative value as --flag=value" in json.loads(captured.out)["message"]
        assert not out.exists()
        assert main(argv + ["--rho=-1e-3"]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["rho"] == -1e-3

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--help"])
        assert exc.value.code == 0
        assert "--min-cases" in capsys.readouterr().out

    def test_rerun_byte_identical(self, fixture_csv, tmp_path):
        out = tmp_path / "a"
        main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        first = read_bytes_map(out)
        main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        assert read_bytes_map(out) == first

    @pytest.mark.parametrize("earlier", [False, True])
    @pytest.mark.parametrize("exc", [InsufficientDataError("stopped"), KeyboardInterrupt()])
    def test_failed_write_leaves_out_as_it_was(self, fixture_csv, tmp_path, capsys, earlier, exc):
        out = tmp_path / "out"
        if earlier:
            assert main(["network", "--input", str(fixture_csv), "--out", str(out)]) == 0
        before = read_bytes_map(out) if earlier else None

        def half_written(traj, fh):  # the last data file pipeline writes
            fh.write("date,x,y\n" * 100)
            raise exc

        argv = ["pipeline", "--input", str(fixture_csv), "--out", str(out)]
        with mock.patch.object(analysis, "write_smoothed_csv", half_written):
            if isinstance(exc, KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == 3
        assert (read_bytes_map(out) if out.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["out"] if earlier else [])

    def test_out_is_replaced_as_a_whole(self, fixture_csv, tmp_path):
        """Each command's files replace the last one's: no stale file survives,
        and every file a command writes is one that a rerun may replace."""
        out = tmp_path / "out"
        written = {}
        for command in ("transform", "network", "grid", "pipeline", "transform"):
            assert main([command, "--input", str(fixture_csv), "--out", str(out)]) == 0
            written[command] = {p.name for p in out.iterdir()}
        assert written["network"] == {"edges.csv", "network.graphml", "summary.json"}
        assert written["pipeline"] == PIPELINE_FILES
        assert written["transform"] == {"selected.csv", "exponents.csv", "summary.json"}
        assert set().union(*written.values()) == OUTPUT_FILES
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_out_holding_other_files_is_refused(self, fixture_csv, tmp_path, capsys):
        argv = ["network", "--input", str(fixture_csv), "--out"]
        data = tmp_path / "data"
        data.mkdir()
        (data / "summary.json").write_text("{}")
        (data / "notes.txt").write_text("keep")
        blocker = tmp_path / "file"
        blocker.write_text("keep")
        for out in (data, blocker):
            assert main(argv + [str(out)]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "ParameterError"
        assert (data / "notes.txt").read_text() == blocker.read_text() == "keep"
        assert sorted(p.name for p in data.iterdir()) == ["notes.txt", "summary.json"]
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(argv + [str(empty)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "empty", "file"]


# the settings each command reads beyond input, out, start, end and min_cases
COMMAND_SETTINGS = {
    "pipeline": {"alpha", "rho", "measure", "seed"},
    "grid": {"seed"},
    "network": {"alpha", "rho", "measure"},
    "transform": {"alpha"},
}


class TestConfigFile:
    def test_flags_config_keys_and_summary_share_one_table(self, fixture_csv, tmp_path):
        """Each command's flags and its summary's config are the settings it
        reads; another setting's flag is a usage error."""
        for command, own in COMMAND_SETTINGS.items():
            takes = {"input", "out", "start", "end", "min_cases"} | own
            out = tmp_path / command
            assert main([command, "--input", str(fixture_csv), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert set(summary["config"]) == takes, command
            # the parser keeps every flag's text as given: SETTINGS converts it
            flags = [f"--{key.replace('_', '-')}=x" for key in takes]
            args = build_parser().parse_args([command] + flags)
            assert all(getattr(args, key) == "x" for key in takes)
            for key in set(SETTINGS) - takes:
                with pytest.raises(ParameterError, match="unrecognized arguments"):
                    build_parser().parse_args([command, f"--{key.replace('_', '-')}=x"])

    def test_a_command_reads_only_the_settings_it_takes(self, fixture_csv, tmp_path, monkeypatch):
        """A config file may hold another command's settings, and EPINET_SEED
        is read only by the commands that take a seed."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {fixture_csv}\nalpha = nan\nrho = 0.1\n")
        out = tmp_path / "out"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert "alpha" not in config and "rho" not in config
        monkeypatch.setenv("EPINET_SEED", "abc")
        assert main(["network", "--input", str(fixture_csv), "--out", str(out)]) == 0
        assert main(["grid", "--input", str(fixture_csv), "--out", str(out)]) == 2

    def test_config_file_values(self, fixture_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {fixture_csv}\n"
            f"out = {tmp_path / 'out'}\n"
            "alpha = 5  # clipped tighter\n"
            "measure = cosine\n"
            "seed = 3\n"
        )
        rc = main(["pipeline", "--config", str(cfg)])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["alpha"] == 5.0
        assert summary["config"]["measure"] == "cosine"
        assert summary["config"]["seed"] == 3

    def test_config_file_with_a_byte_order_mark(self, fixture_csv, tmp_path):
        """A config that starts with a byte order mark, as Windows Notepad
        writes it, runs as the same text without one does."""
        out, outputs = tmp_path / "out", {}
        for encoding in ("utf-8", "utf-8-sig"):
            cfg = tmp_path / f"{encoding}.cfg"
            cfg.write_text(f"input = {fixture_csv}\nalpha = 5\n", encoding=encoding)
            assert main(["network", "--config", str(cfg), "--out", str(out)]) == 0
            outputs[encoding] = read_bytes_map(out)
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs["utf-8-sig"] == outputs["utf-8"]

    def test_flags_override_file(self, fixture_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {fixture_csv}\nalpha = 5\n")
        out = tmp_path / "out"
        rc = main(["pipeline", "--config", str(cfg), "--alpha", "9", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["alpha"] == 9.0

    def test_env_seed_fallback(self, fixture_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("EPINET_SEED", "77")
        out = tmp_path / "out"
        main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 77

    def test_no_input_anywhere_exit_2(self, tmp_path):
        rc = main(["pipeline", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestGrid:
    def test_membership_matrix(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["grid", "--input", str(fixture_csv), "--out", str(out)])
        assert rc == 0
        with (out / "membership_matrix.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 19  # region + 18 settings
        assert "rho0_a7_pearson" == rows[0][3]  # reference is the third column
        assert len(rows) == 31
        for row in rows[1:]:
            assert len(set(row[1:])) == 1  # consistent labels across settings
        errors = json.loads((out / "grid_errors.json").read_text())
        assert errors == {}

    def test_rerun_byte_identical(self, fixture_csv, tmp_path):
        out = tmp_path / "a"
        main(["grid", "--input", str(fixture_csv), "--out", str(out)])
        first = read_bytes_map(out)
        main(["grid", "--input", str(fixture_csv), "--out", str(out)])
        assert read_bytes_map(out) == first

    def test_edgeless_reference_exit_3(self, tmp_path, capsys):
        start = date(2021, 1, 1)
        days = 30
        dates = [start + timedelta(days=i) for i in range(days)]
        up = [int(1000 * 2 ** (0.1 * t)) + 100_000 for t in range(days)]
        flat = [100_000] * days
        cases = [
            CaseSeries(key=RegionKey(country="A"), dates=dates, cumulative=up),
            CaseSeries(key=RegionKey(country="B"), dates=dates, cumulative=flat),
        ]
        path = tmp_path / "flat.csv"
        path.write_text(to_wide_csv(Panel.from_series(cases)))
        out = tmp_path / "o"
        rc = main(["grid", "--input", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert not out.exists()  # nothing is written when the reference fails
        assert len(captured.out.splitlines()) == 1
        payload = json.loads(captured.out)
        assert payload["error"] == "InsufficientStructureError"
        assert "reference grid cell failed" in payload["message"]


# grid's outputs on each fixture, pinned: tests/golden/<fixture>/<file>
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = {"fixture_csv": planted_text, "awkward_csv": awkward_text,
                 "cases_300_csv": cases_300_text, "grid_300_csv": grid_300_text}
GOLDEN_FILES = ("membership_matrix.csv", "grid_cells.json")


def regenerate_grid_golden():
    """Rewrite the pinned files from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        for fixture, text in GOLDEN_INPUTS.items():
            path, out = Path(tmp) / "cases.csv", Path(tmp) / fixture
            path.write_text(text(), encoding="utf-8")
            assert main(["grid", "--input", str(path), "--out", str(out)]) == 0
            (GOLDEN / fixture).mkdir(parents=True, exist_ok=True)
            for name in GOLDEN_FILES:
                (GOLDEN / fixture / name).write_bytes((out / name).read_bytes())


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("fixture", sorted(GOLDEN_INPUTS))
def test_grid_outputs_equal_the_pinned_files(fixture, processes, request, tmp_path, monkeypatch):
    """The membership matrix byte for byte; in grid_cells.json the sizes and
    fingerprints exactly, and each modularity to a relative 1e-9, since BLAS
    builds differ in the last bits.  The grid runs in 1 and in 2 processes.
    After a change meant to alter them, regenerate the files with

        PYTHONPATH=src:tests python -c "import test_cli; test_cli.regenerate_grid_golden()"
    """
    monkeypatch.setattr(analysis, "_grid_processes", lambda: processes)
    out = tmp_path / "out"
    assert main(["grid", "--input", str(request.getfixturevalue(fixture)), "--out", str(out)]) == 0
    golden = GOLDEN / fixture
    name = "membership_matrix.csv"
    assert (out / name).read_bytes() == (golden / name).read_bytes()
    got = json.loads((out / "grid_cells.json").read_bytes())
    want = json.loads((golden / "grid_cells.json").read_bytes())
    assert got.keys() == want.keys()
    for label in want:
        got_q, want_q = got[label].pop("modularity"), want[label].pop("modularity")
        assert got_q == pytest.approx(want_q, rel=1e-9, abs=0), label
    assert got == want


@pytest.mark.parametrize("command, code", [("pipeline", 2), ("network", 2), ("grid", 3)])
def test_matrix_past_the_size_limit_exits_with_one_error_line(
    fixture_csv, tmp_path, capsys, monkeypatch, command, code
):
    """A selection whose similarity matrix would take more than
    MAX_MATRIX_BYTES stops before the matrix is allocated; in grid it fails
    the reference cell."""
    monkeypatch.setattr(netbuild, "MAX_MATRIX_BYTES", 29 * 29 * 8)
    out = tmp_path / "out"
    assert main([command, "--input", str(fixture_csv), "--out", str(out)]) == code
    payload = json.loads(capsys.readouterr().out)  # one line, or this raises
    message = (
        "30 regions need a 7200-byte similarity matrix, above the limit of 6728 bytes; "
        "raise --min-cases to select fewer regions"
    )
    if command == "grid":
        message = f"reference grid cell failed: ParameterError: {message}"
    assert payload == {
        "error": "ParameterError" if code == 2 else "InsufficientStructureError",
        "message": message,
    }
    assert not out.exists()


def test_medians_are_of_each_communitys_regions_after_an_isolated_one(tmp_path):
    """A flat region leads the panel and has no edge, so network node i is
    panel row i + 1; each median is still that of its community's regions."""
    planted = Panel.from_series(make_planted_cases()[0])
    flat = np.full((1, planted.days), 200_000.0)
    cases = Panel(keys=[RegionKey(country="Flat"), *planted.keys], start=planted.start,
                  values=np.vstack([flat, planted.values]))
    path, out = tmp_path / "cases.csv", tmp_path / "out"
    path.write_text(to_wide_csv(cases), encoding="utf-8")
    assert main(["pipeline", "--input", str(path), "--out", str(out)]) == 0
    with (out / "partition.csv").open() as fh:
        community = {row["region"]: int(row["community"]) for row in csv.DictReader(fh)}
    assert "Flat" not in community and len(community) == len(planted)
    exps = transform.to_exponent_series(cases, alpha=7.0)
    with (out / "medians.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    for label in range(3):
        members = [community.get(key.display) == label for key in exps.keys]
        want = np.median(exps.values[members], axis=0)
        assert [row[1 + label] for row in rows] == [fmt9(v) for v in want]


def test_fingerprints_record_each_partitions_settings(fixture_csv, tmp_path):
    out = tmp_path / "out"
    flags = ["--rho=0.1", "--alpha", "5", "--measure", "cosine", "--seed", "3"]
    assert main(["pipeline", "--input", str(fixture_csv), "--out", str(out), *flags]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["partition"]["settings_fingerprint"] == {
        "rho": 0.1, "alpha": 5.0, "measure": "cosine", "seed": 3, "resolution": 1.0,
    }

    assert main(["grid", "--input", str(fixture_csv), "--out", str(out), "--seed", "3"]) == 0
    cells = json.loads((out / "grid_cells.json").read_text())
    rhos = {"0": 0.0, "0p05": 0.05, "0p1": 0.1}
    alphas = {"5": 5.0, "7": 7.0, "9": 9.0}
    want = {
        f"rho{r}_a{a}_{m}": {"rho": rho, "alpha": alpha, "measure": m, "seed": 3, "resolution": 1.0}
        for r, rho in rhos.items() for a, alpha in alphas.items() for m in ("pearson", "cosine")
    }
    assert {label: cell["settings_fingerprint"] for label, cell in cells.items()} == want


def test_settings_that_are_not_finite_are_written_as_their_flag_text(fixture_csv, tmp_path):
    out = tmp_path / "out"
    argv = ["pipeline", "--input", str(fixture_csv), "--out", str(out), "--alpha", "inf",
            "--rho=-inf"]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
    assert (summary["config"]["alpha"], summary["config"]["rho"]) == ("inf", "-inf")
    fingerprint = summary["partition"]["settings_fingerprint"]
    assert (fingerprint["alpha"], fingerprint["rho"]) == ("inf", "-inf")


class TestStageCommands:
    def test_network_outputs(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["network", "--input", str(fixture_csv), "--out", str(out)])
        assert rc == 0
        assert (out / "edges.csv").exists()
        assert (out / "network.graphml").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nodes"] == 30

    def test_transform_outputs(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["transform", "--input", str(fixture_csv), "--out", str(out)])
        assert rc == 0
        with (out / "exponents.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["region"].startswith("Group")
        assert {"region", "date", "diff", "avg7", "exponent", "defined"} <= set(rows[0])
        with (out / "selected.csv").open() as fh:
            long_rows = list(csv.DictReader(fh))
        assert {"region", "date", "cumulative"} == set(long_rows[0])

    def test_exponents_equal_reference_bytes(self, awkward_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["transform", "--input", str(awkward_csv), "--out", str(out)]) == 0
        cases = load_cases(RunConfig(input=awkward_csv))
        expected = reference_exponents_csv(cases, transform.DEFAULT_ALPHA)
        assert (out / "exponents.csv").read_bytes() == expected.encode()

    def test_transform_files_equal_the_numpy_recomputation(self, grid_300_csv, tmp_path):
        """Both files on the grid-300 input (late onsets, freezes, negative
        corrections, clipped exponents) against perfbench/checks.py, which
        recomputes the exponents with numpy alone."""
        checks = perfbench_module("checks")
        out = tmp_path / "out"
        assert main(["transform", "--input", str(grid_300_csv), "--out", str(out)]) == 0
        names, _, cumulative = checks.read_cases(grid_300_csv)

        def read(name, column):
            """The file's ``column`` as a regions x days array; each region's
            name must lead its rows, in input order."""
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            days = len(rows) // len(names)
            assert [r[0] for r in rows] == [n for n in names for _ in range(days)], name
            return np.array([r[column] for r in rows], dtype=float).reshape(len(names), days)

        want = checks.exponents(cumulative)  # at alpha 7, the CLI default
        got = read("exponents.csv", 4)
        assert got.shape == want.shape
        assert checks._close(got, want).all()
        assert np.array_equal(read("selected.csv", 2), cumulative)

    def test_transform_holds_at_most_three_case_panels(self, grid_300_csv, tmp_path):
        """The exponents are the one panel-sized array that the command adds
        to the cases: each region's diffs and averages are made again as its
        lines are written, and its counts turn to integers one row at a time."""
        panel_bytes = load_cases(RunConfig(input=grid_300_csv)).values.nbytes
        argv = ["transform", "--input", str(grid_300_csv), "--out", str(tmp_path / "out")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 3 * panel_bytes, peak / panel_bytes

    def test_min_cases_filter(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "transform", "--input", str(fixture_csv), "--out", str(out),
            "--min-cases", str(10**15),
        ])
        assert rc == 3  # nothing survives selection -> insufficient data


# (fixture, the planted draw's first day): both draws start at day 0 of
# make_planted_cases' latents
PLANTED_DRAWS = [("fixture_csv", date(2021, 1, 1)), ("cases_300_csv", date(2020, 1, 22))]


@pytest.mark.parametrize("fixture, planted_start", PLANTED_DRAWS, ids=["planted", "cases_300"])
def test_peaks_follow_the_planted_waves(request, tmp_path, fixture, planted_start):
    """Each of the three largest communities, taken as the planted group most
    of its regions come from, has one peak per downward zero crossing of that
    group's latent exponent 0.4 sin(2 pi t / p + phi), p = 28 + 13 g and
    phi = 1.7 g, inside the exponent window; each comes 2 to 4 days after its
    crossing, the lag of the trailing 7-day average.  Each median's Pearson
    correlation with the latent 3 days earlier is at least 0.95, and no lag
    of 0 to 6 days correlates better.  The trajectory's points are the three
    medians."""
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(request.getfixturevalue(fixture)),
                 "--out", str(out)]) == 0
    with (out / "partition.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    with (out / "peaks.csv").open() as fh:
        peaks = [(int(row["community"]), date.fromisoformat(row["date"]))
                 for row in csv.DictReader(fh)]
    medians = (out / "medians.csv").read_text().splitlines()
    window = [date.fromisoformat(line.split(",")[0]) for line in medians[1:]]
    curves = np.array([line.split(",")[1:] for line in medians[1:]], dtype=float).T
    t = np.array([(day - planted_start).days for day in window], dtype=float)
    lags = []
    for community in (1, 2, 3):
        # region names are "Group<g + 1> Region<r>"
        groups = [int(row["region"].split()[0].removeprefix("Group")) - 1
                  for row in rows if int(row["community"]) == community - 1]
        g = max(set(groups), key=groups.count)

        def planted(lag):  # the group's latent ``lag`` days before each day
            return 0.4 * np.sin(2.0 * np.pi * (t - lag) / (28.0 + 13.0 * g) + 1.7 * g)

        fit = [np.corrcoef(curves[community - 1], planted(lag))[0, 1] for lag in range(7)]
        assert fit[3] >= 0.95 and max(fit) == fit[3], (community, fit)
        latent = planted(0)
        crossings = [window[i + 1] for i in np.flatnonzero((latent[:-1] > 0) & (latent[1:] <= 0))]
        found = [day for c, day in peaks if c == community]
        assert len(found) == len(crossings) > 0, (community, found, crossings)
        lags.append({(day - c).days for day, c in zip(found, crossings)})
    assert all(lag <= {2, 3, 4} for lag in lags), lags
    trajectory = (out / "trajectory.csv").read_text().splitlines()
    assert trajectory[0] == "date,x,y,z" and trajectory[1:] == medians[1:]


# --- exit-code contract: exit 0, 2 or 3 for any input; on failure, one JSON
# line and no output directory

PLANTED_CSV = to_wide_csv(
    Panel.from_series(make_planted_cases(per_group=4, days=40)[0])
).encode()
MUTATION_BYTES = [b"0", b"7", b"9" * 400, b",", b'"', b"\r", b"\xff", b"\x00"]
# values each setting accepts, and values most settings reject
GOOD_VALUES = {
    "start": ["2020-01-01", "2021-01-10"],
    "end": ["2021-01-03", "2021-02-05", "2030-01-01"],
    "min_cases": ["0", "-1", str(2**53)],
    "alpha": ["0.5", "7", "inf"],
    "rho": ["-inf", "-1", "0.3", "0.99", "inf"],
    "measure": ["pearson", "cosine"],
    "seed": ["0", "-3", "9" * 30],
}
ODD_VALUES = ["nan", "abc", "", "1e400", "9" * 400, "2021-02-30", "2020-13-45", "0.3"]


@st.composite
def mutated_csv(draw):
    data = bytearray(PLANTED_CSV)
    edits = st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, len(data) - 1),
        st.sampled_from(MUTATION_BYTES),
    )
    for edit, at, piece in draw(st.lists(edits, max_size=2)):
        if edit == "replace":
            data[at : at + 1] = piece
        elif edit == "insert":
            data[at:at] = piece
        else:
            del data[at : at + 1]
    return bytes(data)


@st.composite
def drawn_settings(draw):
    """{setting: (where, text)}, where is "flag" or "file"."""
    keys = draw(st.lists(st.sampled_from(sorted(GOOD_VALUES)), unique=True, max_size=3))
    return {
        key: (
            draw(st.sampled_from(["flag", "file"])),
            draw(st.sampled_from(GOOD_VALUES[key]) | st.sampled_from(ODD_VALUES)),
        )
        for key in keys
    }


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=600, deadline=None, derandomize=True)
# settings that are not finite numbers, which summary.json must still write as JSON
@example(command="pipeline", data=PLANTED_CSV, drawn={"alpha": ("flag", "inf")}, env_seed=None)
@example(command="network", data=PLANTED_CSV, drawn={"rho": ("file", "-inf")}, env_seed=None)
@example(command="grid", data=PLANTED_CSV, drawn={"alpha": ("flag", "inf")}, env_seed=None)
@example(command="grid", data=PLANTED_CSV, drawn={"alpha": ("file", "nan")}, env_seed=None)
@given(
    command=st.sampled_from(["pipeline", "grid", "network", "transform"]),
    data=mutated_csv(),
    drawn=drawn_settings(),
    env_seed=st.sampled_from([None, None, None, "5", "abc"]),
)
def test_exit_code_contract(command, data, drawn, env_seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cases.csv").write_bytes(data)
        out = tmp / "out"
        argv = [command, "--input", str(tmp / "cases.csv"), "--out", str(out)]
        for key, (where, text) in drawn.items():
            if where == "flag":
                argv.append(f"--{key.replace('_', '-')}={text}")
        config = [f"{key} = {text}" for key, (where, text) in drawn.items() if where == "file"]
        if config:
            (tmp / "run.cfg").write_text("\n".join(config) + "\n")
            argv += ["--config", str(tmp / "run.cfg")]
        env = {} if env_seed is None else {"EPINET_SEED": env_seed}
        stdout = io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(argv)
            except SystemExit as exc:
                pytest.fail(f"SystemExit({exc.code}) escaped main for {argv}")
        assert rc in (0, 2, 3), argv
        if rc == 0:
            assert stdout.getvalue() == ""
            assert (out / "summary.json").is_file()
            for path in out.glob("*.json"):  # JSON has no NaN or infinity
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
        else:
            lines = stdout.getvalue().splitlines()
            assert len(lines) == 1, argv
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not out.exists(), argv


@pytest.mark.parametrize("command, code", [("network", 2), ("pipeline", 2), ("grid", 0)])
def test_a_name_that_xml_forbids_stops_the_graphml_commands(
    fixture_csv, tmp_path, capsys, command, code
):
    """A region name with U+0001 cannot go into network.graphml: the commands
    that write it exit 2, name the region and leave --out as it was."""
    path, out = tmp_path / "cases.csv", tmp_path / "out"
    path.write_text(planted_text().replace("Group1 Region01", "A\x01B", 1), encoding="utf-8")
    assert main([command, "--input", str(fixture_csv), "--out", str(out)]) == 0
    before = read_bytes_map(out)
    capsys.readouterr()
    assert main([command, "--input", str(path), "--out", str(out)]) == code
    if code == 0:
        return
    payload = json.loads(capsys.readouterr().out)  # one line, or this raises
    assert payload["error"] == "ParameterError"
    assert "'A\\x01B'" in payload["message"], payload
    assert read_bytes_map(out) == before


def test_counts_at_the_bound_keep_every_exponent_finite(tmp_path):
    """The 12-region planted CSV plus a region whose counts alternate between
    -MAX_COUNT and MAX_COUNT (2**53): the counts are held exactly, and the
    exponents made from them are finite, so every command exits 0 with
    numpy's floating-point warnings as errors, and every exponent is defined."""
    counts = [ingest.MAX_COUNT * (-1) ** (t + 1) for t in range(40)]  # ends on +
    path = tmp_path / "bound.csv"
    path.write_bytes(PLANTED_CSV + f",Bound,,,{','.join(map(str, counts))}\n".encode())
    commands = ("pipeline", "grid", "network", "transform")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        codes = [main([c, "--input", str(path), "--out", str(tmp_path / c)]) for c in commands]
    assert codes == [0, 0, 0, 0]
    with (tmp_path / "transform" / "exponents.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {row["defined"] for row in rows} == {"1"}
    assert {row["exponent"] for row in rows if row["region"] == "Bound"} == {"-7", "7"}
    with (tmp_path / "transform" / "selected.csv").open() as fh:
        bound = [int(row["cumulative"]) for row in csv.DictReader(fh) if row["region"] == "Bound"]
    assert bound == [(-1) ** (t + 1) * 2**53 for t in range(40)]


def test_commands_skip_unneeded_imports(fixture_csv, tmp_path):
    """xml.sax (which loads urllib, http.client and ssl) and numpy.ma cost
    start-up time and serve no output, and a header in the feed's M/D/YY
    needs no _strptime; neither pipeline nor grid loads them."""
    out = str(tmp_path / "out")
    code = (
        "import json, sys\n"
        "from epinet.cli import main\n"
        f"codes = [main([c, '--input', {str(fixture_csv)!r}, '--out', {out!r} + c])"
        " for c in ('pipeline', 'grid')]\n"
        "heavy = ('xml.sax', 'urllib.request', 'numpy.ma', '_strptime')\n"
        "print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))\n"
    )
    codes, loaded = run_python(code, os.environ)
    assert codes == [0, 0]
    assert loaded == []


def run_python(code, env, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's epinet
    and return the JSON value of its last line of output."""
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**env, "PYTHONPATH": path},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "header, code",
    [("Province/State,Country/Region,Lat,Long,1/22/20,1/23/20", 3), ("not,the,header", 2)],
)
def test_error_line_to_a_closed_pipe_keeps_the_exit_code(tmp_path, header, code):
    """When the reader of standard output has gone, the JSON error line is
    lost, but the exit code stays and no traceback is printed."""
    data = tmp_path / "cases.csv"
    data.write_text(header + "\n")
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = ["-m", "epinet.cli", "grid", "--input", str(data), "--out", str(tmp_path / "out")]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            env={**os.environ, "PYTHONPATH": path},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr.startswith("epinet: error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize(
    "command, header, code",
    [
        ("pipeline", None, 0),
        ("grid", None, 0),
        ("grid", "not,the,header", 2),
        ("pipeline", "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20", 3),
    ],
)
def test_the_module_ends_as_main_returns(fixture_csv, tmp_path, capsys, command, header, code):
    """``python -m epinet.cli`` leaves through ``os._exit`` once it has
    flushed: its exit code, standard output, standard error and files are
    those of ``main`` in process."""
    data = fixture_csv
    if header is not None:
        data = tmp_path / "cases.csv"
        data.write_text(header + "\n")
    out = tmp_path / "out"
    argv = [command, "--input", str(data), "--out", str(out)]
    assert main(argv) == code
    printed = capsys.readouterr()
    files = read_bytes_map(out) if out.exists() else None
    shutil.rmtree(out, ignore_errors=True)
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "epinet.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (printed.out, printed.err)
    assert (read_bytes_map(out) if out.exists() else None) == files
    if code:
        assert len(proc.stdout.splitlines()) == len(proc.stderr.splitlines()) == 1
    else:
        grid_files = {"grid_errors.json", "grid_cells.json", "membership_matrix.csv",
                      "summary.json"}
        assert files.keys() == (PIPELINE_FILES if command == "pipeline" else grid_files)


# Far above what the import and the run up to the matrix take, far below the
# 1.07 GiB similarity matrix of 12,000 regions
ADDRESS_SPACE_ALLOWANCE = 512 * 2**20
OUT_OF_MEMORY = """import resource, sys
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
from epinet.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status for its size")
@pytest.mark.parametrize("command", ["pipeline", "grid"])
def test_running_out_of_memory_exits_2_with_one_error_line(tmp_path, command):
    """A process whose address space ends 512 MB above its size before it
    imports epinet cannot allocate the similarity matrix of 12,000 regions,
    which MAX_MATRIX_BYTES allows: numpy raises MemoryError before any BLAS
    call, and the command exits 2 with one JSON line and one line on standard
    error.  One such matrix fits MAX_MATRIX_BYTES, so the grid forks no child,
    and OpenBLAS runs one thread: the test starts no other process or thread."""
    rng = np.random.default_rng(0)
    days = 20
    counts = 100_000 + np.cumsum(rng.integers(0, 1000, size=(12_000, days)), axis=1)
    header = ",".join(["Province/State,Country/Region,Lat,Long"]
                      + [f"1/{d}/21" for d in range(1, days + 1)])
    rows = [f",R{r},0,0," + ",".join(map(str, row)) for r, row in enumerate(counts.tolist())]
    data, out = tmp_path / "cases.csv", tmp_path / "out"
    data.write_text("\n".join([header, *rows]) + "\n")
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY, str(ADDRESS_SPACE_ALLOWANCE),
         command, "--input", str(data), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout)  # one line, or this raises
    assert payload["error"] == "MemoryError", payload
    assert proc.stderr.startswith("epinet: error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_a_grid_share_short_of_memory_again_here_exits_2(fixture_csv, tmp_path, capsys,
                                                         monkeypatch):
    """A child that runs out of memory exits 1, and this process reruns its
    share; when that runs out of memory too, the command exits 2 with one JSON
    line and leaves no --out."""
    parent, run_group, here = os.getpid(), analysis._run_group, []

    def short_of_memory(exps, group, seed):
        if group[0].settings.alpha == 5.0:  # the second share's
            here.append(os.getpid() == parent)
            raise MemoryError
        run_group(exps, group, seed)

    monkeypatch.setattr(analysis, "_grid_processes", lambda: 2)
    monkeypatch.setattr(analysis, "_run_group", short_of_memory)
    out = tmp_path / "out"
    assert main(["grid", "--input", str(fixture_csv), "--out", str(out)]) == 2
    assert here == [True]  # the rerun here; the child's attempt is not seen here
    assert json.loads(capsys.readouterr().out) == {"error": "MemoryError",
                                                   "message": "out of memory"}
    assert not out.exists()


@pytest.mark.parametrize("workload", ["pipeline-300", "grid-300", "pipeline-999", "grid-999"])
def test_benchmark_outputs_equal_the_numpy_recomputation(benchmark_input, workload, tmp_path):
    """Each command of the benchmark on its input at 300 and at 999 regions
    against perfbench/checks.py, which recomputes every output with numpy
    and compares the partitions with the planted groups."""
    path, groups = benchmark_input(workload)
    command, out = workload.split("-")[0], tmp_path / "out"
    assert main([command, "--input", str(path), "--out", str(out)]) == 0
    perfbench_module("checks").Expected(path, groups).check(command, out)


def children_of(pid):
    """The pids of the children of process ``pid``, read from /proc."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(child) for child in fh.read().split()]
    except FileNotFoundError:  # already gone
        return []


def test_a_killed_grid_leaves_no_child_behind(benchmark_input, tmp_path):
    """The grid pinned to two CPUs forks one child.  Once that child exists,
    the parent is killed.  The child's share of the 999-region grid input
    pickles to about 97 KB, more than a pipe's 64 KiB buffer, but the child
    holds no read end of its pipe: its write fails with EPIPE and it exits,
    so the caller's pipes, which it shares, reach EOF."""
    if sys.platform != "linux":
        pytest.skip("the grid forks only on Linux")
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("fewer than 2 usable CPUs: the grid forks no child")
    data = benchmark_input("grid-999")[0]
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "epinet.cli", "grid", "--input", str(data),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    child = []
    try:
        deadline = time.monotonic() + 60
        while not child and proc.poll() is None and time.monotonic() < deadline:
            child = children_of(proc.pid)
            time.sleep(0.002)
        assert len(child) == 1, (child, proc.poll())
        proc.kill()
        proc.communicate(timeout=30)  # EOF on both pipes: the child has exited
    finally:
        for pid in child:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.communicate()


@pytest.mark.skipif(sys.platform != "linux", reason="polls a running command's directory")
def test_sigterm_while_writing_leaves_no_directory(benchmark_input, tmp_path):
    """SIGTERM sent to pipeline on the 999-region input once it has begun to
    write its files: the command removes its temporary directory, then ends
    by SIGTERM, so the caller sees the signal and no --out."""
    data = benchmark_input("pipeline-999")[0]
    out = tmp_path / "out"
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "epinet.cli", "pipeline", "--input", str(data), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        # a file in the work directory: the writing, and its clean-up, has begun
        while (not any(tmp_path.glob(".out-*/new/*")) and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.002)
        assert proc.poll() is None, "pipeline ended before it was sent SIGTERM"
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == -signal.SIGTERM, err
    assert err == b""
    assert not any(tmp_path.glob(".out-*")) and not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="sets a resource limit in the child")
def test_a_full_disk_exits_2_and_leaves_no_directory(cases_300_csv, tmp_path):
    """Under a 64 KiB file size limit, writing pipeline's edges.csv fails with
    EFBIG, since Python ignores SIGXFSZ: the command exits 2 with one JSON
    line, and leaves neither --out nor its temporary directory."""
    import resource

    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    src = str(Path(epinet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    work = tmp_path / "work"
    work.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "epinet.cli", "pipeline", "--input", str(cases_300_csv),
         "--out", str(work / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024, hard)),
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stdout.splitlines()) == 1
    payload = json.loads(proc.stdout)
    assert payload["error"] == "OSError", payload
    assert payload["message"].startswith(f"[Errno {errno.EFBIG}]"), payload
    assert list(work.iterdir()) == []


def run_commands(commands, csv_path, workdir, env, args=()):
    """Run each command on ``csv_path`` with ``args`` in one fresh interpreter
    under ``env``, with ``--out`` the command's name relative to ``workdir``
    (summary.json records it); return the interpreter's locale encoding and
    each command's exit code and output files."""
    code = (
        "import json, locale\n"
        "from epinet.cli import main\n"
        f"codes = [main([c, '--input', {str(csv_path)!r}, '--out', c, *{list(args)!r}])"
        f" for c in {list(commands)!r}]\n"
        "print(json.dumps([locale.getpreferredencoding(False), codes]))\n"
    )
    workdir.mkdir()
    encoding, codes = run_python(code, env, cwd=workdir)
    return encoding, {c: (code, read_bytes_map(workdir / c)) for c, code in zip(commands, codes)}


def test_files_are_utf8_under_an_ascii_locale(awkward_csv, tmp_path):
    """Non-ASCII region names are written, and a config file is read, as UTF-8
    whatever the locale, as the input CSV is read."""
    commands = ("pipeline", "grid", "network", "transform")
    config = tmp_path / "names.cfg"
    config.write_text("# Zürich, Ελλάδα\nmin_cases = 100000\n", encoding="utf-8")
    args = ("--config", str(config))
    ascii_env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    encoding, got = run_commands(commands, awkward_csv, tmp_path / "c", ascii_env, args)
    if "utf" in encoding.lower():
        pytest.skip(f"the C locale's encoding is {encoding} here")
    utf8_env = {**os.environ, "PYTHONUTF8": "1"}
    _, expected = run_commands(commands, awkward_csv, tmp_path / "utf8", utf8_env, args)
    assert {c: code for c, (code, _) in got.items()} == dict.fromkeys(commands, 0)
    assert got == expected


def test_import_defaults_openblas_to_one_thread():
    """OpenBLAS's idle worker busy-waits on a second core after each Gram
    product, so importing epinet starts no worker unless the caller asks."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    code = (
        "import json, os, epinet\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert run_python(code, unset) == [1, "1"]
    assert run_python(code, {**unset, "OPENBLAS_NUM_THREADS": "2"})[1] == "2"


def test_outputs_equal_across_blas_thread_counts(fixture_csv, tmp_path):
    commands = ("pipeline", "grid")
    runs = [
        run_commands(commands, fixture_csv, tmp_path / n, {**os.environ, "OPENBLAS_NUM_THREADS": n})
        for n in ("1", "2")
    ]
    assert runs[0][1] == runs[1][1]
    assert [code for code, _ in runs[0][1].values()] == [0, 0]
