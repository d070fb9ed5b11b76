import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epinet
from epinet import analysis, ingest, netbuild, transform
from epinet.cli import OUTPUT_FILES, SETTINGS, RunConfig, build_parser, load_cases, main
from epinet.errors import InsufficientDataError
from epinet.ingest import CaseSeries, Panel, RegionKey, to_wide_csv
from epinet.netbuild import fmt9
from epinet.synthetic import make_planted_cases


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


class TestConfigFile:
    def test_flags_config_keys_and_summary_share_one_table(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        main(["network", "--input", str(fixture_csv), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["config"]) == set(SETTINGS)
        # the parser keeps every flag's text as given: SETTINGS converts it
        flags = [f"--{key.replace('_', '-')}=x" for key in SETTINGS]
        args = build_parser().parse_args(["network"] + flags)
        assert all(getattr(args, key) == "x" for key in SETTINGS)

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
GOLDEN_INPUTS = {"fixture_csv": planted_text, "awkward_csv": awkward_text}
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

    def test_min_cases_filter(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "transform", "--input", str(fixture_csv), "--out", str(out),
            "--min-cases", str(10**15),
        ])
        assert rc == 3  # nothing survives selection -> insufficient data


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


@settings(max_examples=600, deadline=None, derandomize=True)
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
        else:
            lines = stdout.getvalue().splitlines()
            assert len(lines) == 1, argv
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not out.exists(), argv


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
    start-up time and serve no output; neither pipeline nor grid loads them."""
    out = str(tmp_path / "out")
    code = (
        "import json, sys\n"
        "from epinet.cli import main\n"
        f"codes = [main([c, '--input', {str(fixture_csv)!r}, '--out', {out!r} + c])"
        " for c in ('pipeline', 'grid')]\n"
        "heavy = ('xml.sax', 'urllib.request', 'numpy.ma')\n"
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
