import csv
import json
from datetime import date, timedelta

import pytest

from epinet.cli import main
from epinet.ingest import CaseSeries, Panel, RegionKey, to_wide_csv
from epinet.synthetic import make_planted_cases


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    cases, _ = make_planted_cases()
    path = tmp_path_factory.mktemp("data") / "cases.csv"
    path.write_text(to_wide_csv(Panel.from_series(cases)))
    return path


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

    @pytest.mark.parametrize("fault", ["date_gap", "not_utf8", "directory", "alpha_nan"])
    def test_input_fault_exit_2(self, fixture_csv, tmp_path, capsys, fault):
        bad = tmp_path / "bad.csv"
        flags = []
        if fault == "date_gap":
            bad.write_text(fixture_csv.read_text().replace(",1/3/21,", ",1/4/21,", 1))
        elif fault == "not_utf8":
            bad.write_bytes(fixture_csv.read_bytes().replace(b"Group1", b"Gr\xffup1", 1))
        elif fault == "directory":
            bad.mkdir()
        else:
            bad, flags = fixture_csv, ["--alpha", "nan"]
        out = tmp_path / "out"
        rc = main(["pipeline", "--input", str(bad), "--out", str(out)] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.out.splitlines()) == 1
        assert "error" in json.loads(captured.out)
        assert not out.exists()

    def test_rerun_byte_identical(self, fixture_csv, tmp_path):
        out = tmp_path / "a"
        main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        first = read_bytes_map(out)
        main(["pipeline", "--input", str(fixture_csv), "--out", str(out)])
        assert read_bytes_map(out) == first


class TestConfigFile:
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

    def test_edgeless_reference_exit_3(self, tmp_path):
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
        rc = main(["grid", "--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        errors = json.loads((tmp_path / "o" / "grid_errors.json").read_text())
        assert len(errors) == 18


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

    def test_min_cases_filter(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "transform", "--input", str(fixture_csv), "--out", str(out),
            "--min-cases", str(10**15),
        ])
        assert rc == 3  # nothing survives selection -> insufficient data
