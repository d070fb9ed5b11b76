import csv
import io
import math
import os
import threading
import time
import tracemalloc
import warnings
from datetime import date, timedelta
from itertools import product
from unittest import mock

import numpy as np
import pytest

from epinet import analysis, netbuild
from epinet.analysis import (
    ALPHA_VALUES,
    GRID,
    MEASURES,
    REFERENCE,
    RHO_VALUES,
    BuildSettings,
    GridCell,
    MembershipMatrix,
    align_labels,
    bspline_smooth,
    build_trajectory,
    detect_peaks,
    median_curve,
    order_rows,
    run_grid,
    write_medians_csv,
    write_membership_csv,
    write_peaks_csv,
    write_smoothed_csv,
    write_trajectory_csv,
)
from epinet.cli import RunConfig, load_cases
from epinet.community import Partition, compare_partitions, louvain
from epinet.errors import InsufficientDataError, InsufficientStructureError, ParameterError
from epinet.ingest import Panel, RegionKey
from epinet.netbuild import SimilarityMeasure, fmt9
import oracles
from test_netbuild import AWKWARD_KEYS


def exp_panel(rows, start=date(2021, 1, 1)):
    """Exponent panel from {name: values}."""
    return Panel(
        keys=[RegionKey(country=name) for name in rows],
        start=start,
        values=np.array(list(rows.values()), dtype=float),
    )


def dated(values, start=date(2021, 1, 1)):
    return ([start + timedelta(days=i) for i in range(len(values))],
            np.asarray(values, dtype=float))


class TestMedianCurve:
    def test_single_member(self):
        exps = exp_panel({"A": [1.0, -2.0, 0.5], "B": [9.0, 9.0, 9.0]})
        med = median_curve(exps, np.array([0]))
        assert med.tolist() == [1.0, -2.0, 0.5]  # one value per day of the panel

    def test_odd_count(self):
        exps = exp_panel({n: [v] for n, v in zip("ABC", (-1.0, 0.0, 5.0))})
        med = median_curve(exps, np.arange(len(exps)))
        assert med.tolist() == [0.0]

    def test_even_count_mean_of_central(self):
        exps = exp_panel({n: [v] for n, v in zip("ABCD", (-1.0, 0.0, 2.0, 7.0))})
        med = median_curve(exps, np.arange(len(exps)))
        assert med.tolist() == [1.0]

    def test_empty_members(self):
        with pytest.raises(ParameterError):
            median_curve(exp_panel({"A": [1.0]}), np.array([], dtype=np.intp))

    def test_bounded_by_member_extremes(self):
        rng = np.random.default_rng(4)
        exps = exp_panel({f"R{i}": rng.normal(size=30) for i in range(7)})
        med = median_curve(exps, np.arange(len(exps)))
        assert np.all(med >= exps.values.min(axis=0) - 1e-12)
        assert np.all(med <= exps.values.max(axis=0) + 1e-12)


def nanmedian_panels(seed, count, members_range=(1, 10), days_range=(1, 12)):
    """Random exponent panels with ties, +-0.0, +-inf, the largest float and
    all-zero days, each with a random member set of odd or even size."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.finfo(float).max])
    for _ in range(count):
        n = int(rng.integers(*members_range))
        days = int(rng.integers(*days_range))
        vals = rng.normal(size=(n, days)).round(1)
        mask = rng.random(vals.shape) < 0.4
        vals[mask] = rng.choice(specials, size=int(mask.sum()))
        zeros = rng.random(days) < 0.2
        vals[:, zeros] = rng.choice([0.0, -0.0], size=(n, int(zeros.sum())))
        keys = [RegionKey(country=f"R{i}") for i in range(n)]
        rows = rng.random(n) < 0.8
        rows[int(rng.integers(n))] = True
        yield Panel(keys=keys, start=date(2021, 1, 1), values=vals), rows


class TestMedianEqualsNanmedian:
    """``median_curve`` sorts instead of calling ``np.nanmedian``, whose small
    path imports ``numpy.ma``; its bytes must not change."""

    @staticmethod
    def check(panel, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.nanmedian(panel.values[rows], axis=0)
        assert median_curve(panel, np.flatnonzero(rows)).tobytes() == expected.tobytes()

    def test_small_panels_bit_equal(self):
        for panel, rows in nanmedian_panels(seed=6, count=1500):
            self.check(panel, rows)

    def test_large_panels_bit_equal(self):
        # 600 members and more take nanmedian's other path
        for panel, rows in nanmedian_panels(7, 4, members_range=(700, 900), days_range=(3, 6)):
            self.check(panel, rows)


def reference_detect_peaks(dates, values):
    """The earlier day-by-day loop, kept as the reference."""
    values = np.asarray(values, dtype=float)
    out = []
    for t in range(1, len(values)):
        a, b = values[t - 1], values[t]
        if np.isnan(a) or np.isnan(b):
            continue
        if a > 0 and b <= 0:
            out.append(dates[t])
    return out


def peak_curves(seed):
    """Seeded curves of lengths 0-2 and longer, mixing signs, +-0 and NaN runs."""
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 40, 852):
        values = rng.choice([-1.0, 0.0, -0.0, np.nan], size=n, p=[0.35, 0.1, 0.1, 0.45])
        values *= -1.0 + 2.0 * (rng.random(n) < 0.5)  # flips signs, -0.0 included
        values[np.isfinite(values)] *= rng.random(np.isfinite(values).sum()) + 0.5
        for _ in range(n // 10):  # NaN runs
            start = rng.integers(n)
            values[start : start + rng.integers(1, 8)] = np.nan
        yield dated(values)


class TestDetectPeaks:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_day_by_day_loop(self, seed):
        for dates, values in peak_curves(seed):
            assert detect_peaks(dates, values) == reference_detect_peaks(dates, values)

    def test_single_sign_change(self):
        dates, values = dated([0.5, 0.2, -0.1, -0.3])
        assert detect_peaks(dates, values) == [dates[2]]

    def test_all_positive(self):
        dates, values = dated([0.5, 0.2, 0.1])
        assert detect_peaks(dates, values) == []

    def test_two_peaks(self):
        dates, values = dated([0.1, -0.1, 0.1, -0.1])
        assert detect_peaks(dates, values) == [dates[1], dates[3]]

    def test_touching_zero_counts(self):
        dates, values = dated([0.1, 0.0, 0.1])
        assert detect_peaks(dates, values) == [dates[1]]

    def test_undefined_gap_ignored(self):
        dates, values = dated([0.1, np.nan, -0.1])
        assert detect_peaks(dates, values) == []


@pytest.fixture
def one_process(monkeypatch):
    """run_grid runs every group in this process, where spies and tracemalloc
    see them."""
    monkeypatch.setattr(analysis, "_grid_processes", lambda: 1)


def grid_input(name, request):
    """The cases of a grid test input, by name."""
    if name == "anti_correlated":
        return anti_correlated_pair()
    if name in ("cases_300", "grid_300"):
        return request.getfixturevalue(name)
    planted = request.getfixturevalue("planted")[0]
    if name == "short":  # too few days for one exponent
        return Panel(keys=planted.keys, start=planted.start, values=planted.values[:, :8])
    return planted


def nodes_of(cell):
    """The region keys of a cell's nodes, or None."""
    return None if cell.rows is None else [cell.keys[r] for r in cell.rows.tolist()]


def assert_same_cells(got, want, keys):
    """Equal settings, errors, nodes (rows of the key list ``keys``), labels
    and modularity, bit for bit."""
    assert [c.settings for c in got] == [c.settings for c in want] == list(GRID)
    for cell, ref in zip(got, want):
        assert cell.error == ref.error
        assert (cell.rows is None) == (ref.rows is None)
        if cell.rows is not None:
            assert cell.keys is keys and ref.keys is keys
            assert np.array_equal(cell.rows, ref.rows)
        assert (cell.partition is None) == (ref.partition is None)
        if cell.partition is not None:
            assert np.array_equal(cell.partition.labels, ref.partition.labels)
            assert float(cell.partition.modularity).hex() == float(ref.partition.modularity).hex()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunGrid:
    def test_default_grid_has_18_cells(self):
        assert len(GRID) == 18

    def test_reference_is_third_cell(self):
        assert GRID[2] == REFERENCE == BuildSettings(0.0, 7.0, SimilarityMeasure.PEARSON)

    def test_the_grid_300_input_clips_at_every_alpha(self, grid_300):
        unclipped = analysis.to_exponent_series(grid_300, alpha=math.inf).values
        for alpha in ALPHA_VALUES:
            assert np.count_nonzero(np.abs(unclipped) > alpha) > 0, alpha

    @pytest.mark.usefixtures("one_process")
    def test_one_network_per_alpha_and_measure(self, grid_300):
        """run_grid clips and builds once per (alpha, measure), at the
        smallest rho, in product(ALPHA_VALUES, MEASURES) order with alpha
        non-increasing, from one exponent panel that it clips in place."""
        calls, panels = [], set()
        build = analysis.build_network

        def build_spy(exps, rho, measure):
            panels.add(id(exps.values))
            # the input's exponents pass every alpha, so the largest of the
            # panel is the alpha it was clipped to
            calls.append(("clip", float(np.abs(exps.values).max())))
            calls.append(("build", rho, measure))
            return build(exps, rho=rho, measure=measure)

        with mock.patch.object(analysis, "build_network", build_spy):
            cells = run_grid(grid_300)
        assert all(c.error is None for c in cells)
        assert calls == [
            step for alpha, measure in product(sorted(ALPHA_VALUES, reverse=True), MEASURES)
            for step in (("clip", alpha), ("build", min(RHO_VALUES), measure))
        ]
        assert len(panels) == 1

    def test_planted_recovery_all_cells(self, planted):
        cases, labels = planted
        cells = run_grid(cases)
        assert len(cells) == 18
        for cell in cells:
            assert cell.error is None, cell.error
            truth = Partition(labels=np.array([labels[key] for key in nodes_of(cell)]),
                              modularity=0.0)
            agreement = compare_partitions(cell.partition, truth)
            assert agreement == 1.0, cell.settings.label()

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("workload", ["pipeline-300", "grid-999"])
    def test_grid_holds_one_network_at_a_time(self, benchmark_input, workload):
        """Beside its input, run_grid holds one exponent panel, which it
        clips in place, and one network at a time, and its cells keep nodes
        and partitions only.  At 999 regions a network outgrows the panel."""
        cases = load_cases(RunConfig(input=benchmark_input(workload)[0]))
        tracemalloc.start()
        try:
            cells = run_grid(cases)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        panel_bytes = cases.values.nbytes
        peak_limit, held_limit = {"pipeline-300": (3, 0.25), "grid-999": (8, 0.5)}[workload]
        assert all(c.error is None for c in cells)
        assert peak <= peak_limit * panel_bytes, peak / panel_bytes
        assert held <= held_limit * panel_bytes, held / panel_bytes

    def test_cell_error_recorded_not_raised(self):
        cells = run_grid(anti_correlated_pair())
        assert all(c.error is not None for c in cells)

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("fixture", ["planted", "anti_correlated", "short", "grid_300"])
    def test_shared_grid_equals_cell_by_cell(self, request, fixture):
        seed = 4
        cases = grid_input(fixture, request)
        networks = []  # every network passed to louvain, in call order

        def spy(net, seed):
            networks.append(net)
            return louvain(net, seed=seed)

        with mock.patch.object(analysis, "louvain", spy), mock.patch.object(oracles, "louvain", spy):
            shared = run_grid(cases, seed)
            assert len(networks) == sum(c.rows is not None for c in shared)
            # a cell's nodes are those of the network its partition came from;
            # the networks of one (alpha, measure) may share their rows
            shared_networks = {(id(net.rows), net.rho): net for net in networks}
            assert [c.settings for c in shared] == list(GRID)
            for cell, settings in zip(shared, GRID):
                networks.clear()
                alone = oracles.run_cell(cases, settings, seed=seed)
                assert cell.error == alone.error
                assert nodes_of(cell) == nodes_of(alone)
                net = shared_networks.get((id(cell.rows), settings.rho))
                assert (net is None) == (not networks)
                if net is not None:
                    assert cell.rows is net.rows
                    assert net.nodes == networks[0].nodes
                    for field in ("src", "dst", "weight"):
                        assert np.array_equal(getattr(net, field), getattr(networks[0], field))
                if alone.partition is None:
                    assert cell.partition is None
                else:
                    assert np.array_equal(cell.partition.labels, alone.partition.labels)
                    assert cell.partition.modularity == alone.partition.modularity
        if fixture in ("planted", "grid_300"):
            assert all(c.error is None for c in shared)
        else:
            assert all(c.error is not None for c in shared)

    @pytest.mark.parametrize(
        "fixture", ["planted", "anti_correlated", "short", "cases_300", "grid_300"])
    def test_same_cells_for_every_process_count(self, monkeypatch, request, fixture):
        cases = grid_input(fixture, request)
        runs = {}
        for p in (1, 2, 3, 6):  # forced, so a 1-CPU machine forks too
            monkeypatch.setattr(analysis, "_grid_processes", lambda p=p: p)
            runs[p] = run_grid(cases, seed=4)
            assert_no_child_left()
        for cells in runs.values():
            assert_same_cells(cells, runs[1], cases.keys)

    def test_processes_are_capped_by_the_matrices_that_fit(self, monkeypatch, planted):
        cases = planted[0]
        monkeypatch.setattr(analysis, "_grid_processes", lambda: 1)
        want = run_grid(cases, seed=4)
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return fork()

        # room for two n x n matrices, where six processes would build six
        monkeypatch.setattr(netbuild, "MAX_MATRIX_BYTES", 2 * len(cases) ** 2 * 8)
        monkeypatch.setattr(analysis, "_grid_processes", lambda: 6)
        monkeypatch.setattr(os, "fork", counted_fork)
        assert_same_cells(run_grid(cases, seed=4), want, cases.keys)
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_second_thread_keeps_the_grid_in_this_process(self, monkeypatch, planted):
        cases = planted[0]
        with mock.patch.object(analysis, "_grid_processes", lambda: 1):
            want = run_grid(cases, seed=4)
        forks = []

        def no_fork():
            forks.append(None)
            raise OSError("fork refused")  # the share then runs here

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", no_fork)
        # conftest loads epinet before numpy, so OpenBLAS starts no thread here
        assert analysis._grid_processes() == 4
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert analysis._grid_processes() == 1
            got = run_grid(cases, seed=4)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert_same_cells(got, want, cases.keys)

    def test_a_child_runs_its_share_and_none_outlives_the_grid(self, monkeypatch, planted):
        parent, run_group, here = os.getpid(), analysis._run_group, []

        def spy(unclipped, group, seed):
            if os.getpid() == parent:
                here.append((group[0].settings.alpha, group[0].settings.measure))
            run_group(unclipped, group, seed)

        monkeypatch.setattr(analysis, "_run_group", spy)
        monkeypatch.setattr(analysis, "_grid_processes", lambda: 2)
        assert all(c.error is None for c in run_grid(planted[0]))
        # this process ran the first three groups, and the child the others
        assert here == list(product(sorted(ALPHA_VALUES, reverse=True), MEASURES))[:3]
        assert_no_child_left()

    def test_an_exception_here_kills_the_children(self, monkeypatch, planted):
        parent, run_group = os.getpid(), analysis._run_group

        def fail_here(*args):
            if os.getpid() == parent:
                raise RuntimeError("the share run here failed")
            run_group(*args)

        monkeypatch.setattr(analysis, "_grid_processes", lambda: 3)
        monkeypatch.setattr(analysis, "_run_group", fail_here)
        with pytest.raises(RuntimeError, match="the share run here failed"):
            run_grid(planted[0])
        assert_no_child_left()

    def test_an_exception_here_kills_a_child_still_running(self, monkeypatch, planted):
        """The child's share would take 6 s, but run_grid kills the child
        rather than wait for it, so the exception here comes at once, well
        within the 5 s bound that a grid waiting out its child would exceed."""
        parent = os.getpid()

        def fail_here_sleep_there(*args):
            if os.getpid() == parent:
                raise RuntimeError("the share run here failed")
            time.sleep(6)
            os._exit(0)  # the child's whole share

        monkeypatch.setattr(analysis, "_grid_processes", lambda: 2)
        monkeypatch.setattr(analysis, "_run_group", fail_here_sleep_there)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="the share run here failed"):
            run_grid(planted[0])
        assert time.monotonic() - start < 5
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["child_exits_7", "fork_fails"])
    def test_a_share_whose_child_fails_runs_here(self, monkeypatch, grid_300, failure):
        """In 3 and in 6 processes; this process reruns each failed share
        after its own, on its one exponent panel, clipped in place."""
        cases = grid_300
        monkeypatch.setattr(analysis, "_grid_processes", lambda: 1)
        want = run_grid(cases, seed=4)
        parent, run_group, fork, forks = os.getpid(), analysis._run_group, os.fork, []

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(7)
            run_group(*args)

        def fork_then_fail():  # the first fork succeeds, the second fails
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError("no process to spare")
            return fork()

        if failure == "child_exits_7":
            monkeypatch.setattr(analysis, "_run_group", die_in_child)
        else:
            monkeypatch.setattr(os, "fork", fork_then_fail)
        for p in (3, 6):
            forks.clear()
            monkeypatch.setattr(analysis, "_grid_processes", lambda p=p: p)
            assert_same_cells(run_grid(cases, seed=4), want, cases.keys)
            assert_no_child_left()


def anti_correlated_pair():
    """Two regions whose exponents are exactly anti-correlated: no edges."""
    up = [int(1000 * 2 ** (0.1 * t)) for t in range(30)]
    return Panel(keys=[RegionKey(country="A"), RegionKey(country="B")],
                 start=date(2021, 1, 1), values=np.array([up, [1000] * 30], dtype=float))


# the panel of the hand-built cells: its rows are not in name order
CELL_KEYS = [RegionKey(country=n) for n in "z y x zeta mid i h g f e d c b alpha a".split()]


def _cell(settings, nodes, labels):
    """A cell of the regions named ``nodes``, with ``labels``, over CELL_KEYS."""
    rows = [next(r for r, k in enumerate(CELL_KEYS) if k.display == n) for n in nodes]
    order = np.argsort(rows)
    part = Partition(labels=np.array(labels, dtype=np.intp)[order], modularity=0.0)
    return GridCell(settings=settings, keys=CELL_KEYS, rows=np.array(rows)[order], partition=part)


def table(matrix):
    """The matrix's region keys and its rows of labels, None where absent."""
    keys = [matrix.keys[r] for r in matrix.rows.tolist()]
    return keys, [[lab or None for lab in row] for row in matrix.labels.tolist()]


def by_name(matrix):
    return {key.display: row for key, row in zip(*table(matrix))}


REF = REFERENCE
OTHER = BuildSettings(rho=0.05, alpha=7.0, measure=SimilarityMeasure.PEARSON)


class TestAlignLabels:
    def test_reference_identity(self):
        cell = _cell(REF, ["a", "b", "c", "d"], [0, 0, 0, 1])
        matrix = align_labels([cell])
        labels = {name: row[0] for name, row in by_name(matrix).items()}
        assert labels == {"a": 1, "b": 1, "c": 1, "d": 2}

    def test_permuted_labels_align(self):
        ref = _cell(REF, ["a", "b", "c", "d"], [0, 0, 0, 1])
        other = _cell(OTHER, ["a", "b", "c", "d"], [1, 1, 1, 0])
        matrix = align_labels([ref, other])
        for row in table(matrix)[1]:
            assert row[0] == row[1]

    def test_split_community_larger_shard_keeps_label(self):
        # reference: {a,b,c}, {d,e,f}, {g,h,i}; other splits community 3
        nodes = list("abcdefghi")
        ref = _cell(REF, nodes, [i // 3 for i in range(9)])
        other = _cell(OTHER, nodes, [0, 0, 0, 1, 1, 1, 2, 2, 3])
        matrix = align_labels([ref, other])
        rows = by_name(matrix)
        assert rows["g"][1] == 3 and rows["h"][1] == 3
        assert rows["i"][1] == 4  # smaller shard gets a fresh label

    def test_absent_region_blank(self):
        ref = _cell(REF, ["a", "b"], [0, 0])
        other = _cell(OTHER, ["a"], [0])
        matrix = align_labels([ref, other])
        assert by_name(matrix)["b"][1] is None

    def test_missing_reference_raises(self):
        cell = _cell(OTHER, ["a", "b"], [0, 0])
        with pytest.raises(InsufficientStructureError, match="^reference grid cell failed: None$"):
            align_labels([cell])

    def test_errored_reference_raises(self):
        bad = GridCell(settings=REF, error="boom")
        with pytest.raises(InsufficientStructureError, match="^reference grid cell failed: boom$"):
            align_labels([bad, _cell(OTHER, ["a", "b"], [0, 0])])


def reference_align(results, reference):
    """``align_labels`` on sets of region keys."""
    def key_sets(cell):
        out = [set() for _ in range(cell.partition.num_communities)]
        for key, lab in zip(nodes_of(cell), cell.partition.labels.tolist()):
            out[lab].add(key)
        return out

    ref_comms = key_sets(next(c for c in results if c.settings == reference))
    k = len(ref_comms)
    present = {key for c in results if c.rows is not None for key in nodes_of(c)}
    rows = [key for key in CELL_KEYS if key in present]  # in panel order
    row_index = {key: r for r, key in enumerate(rows)}
    cells = [[None] * len(results) for _ in rows]
    for col, cell in enumerate(results):
        if cell.partition is None:
            continue
        run_comms = key_sets(cell)
        pairs = sorted(
            ((len(r & c) / len(r | c), ri, ci) for ri, r in enumerate(ref_comms)
             for ci, c in enumerate(run_comms) if r | c),
            key=lambda p: (-p[0], p[1], p[2]),
        )
        mapping, used = {}, set()
        for jac, ri, ci in pairs:
            if jac > 0 and ci not in mapping and ri not in used:
                mapping[ci] = ri + 1
                used.add(ri)
        for ci in range(len(run_comms)):
            mapping.setdefault(ci, k + 1 + sum(v > k for v in mapping.values()))
        for key, lab in zip(nodes_of(cell), cell.partition.labels.tolist()):
            cells[row_index[key]][col] = mapping[lab]
    return rows, cells


def reference_order(matrix):
    """``order_rows`` by a Python sort key per row."""
    keys, cells = table(matrix)

    def row_key(r):
        labels = [lab for lab in cells[r] if lab is not None]
        counts = {lab: labels.count(lab) for lab in labels}
        majority = min(counts, key=lambda lab: (-counts[lab], lab)) if labels else math.inf
        tup = tuple(math.inf if lab is None else lab for lab in cells[r])
        return (majority, tup, keys[r].display)

    order = sorted(range(len(keys)), key=row_key)
    return [keys[r] for r in order], [cells[r] for r in order]


def test_align_and_order_equal_set_and_sort_key_references():
    # regions missing from some runs, failed runs, unused labels, and rows
    # whose labels tie, so their names decide
    rng = np.random.default_rng(4)
    names = ["a", "b", "c", "d", "e", "f", "g", "h"]
    settings = [REF, OTHER] + [BuildSettings(rho=r, alpha=7.0, measure=SimilarityMeasure.COSINE)
                               for r in (0.0, 0.05, 0.1)]
    for _ in range(200):
        results = []
        for s in settings:
            nodes = [n for n in names if rng.random() < 0.8] or ["a"]
            k = int(rng.integers(1, 5))
            cell = _cell(s, nodes, [int(rng.integers(0, k)) for _ in nodes])
            if s != REF and rng.random() < 0.1:
                cell.partition = None
            results.append(cell)
        matrix = align_labels(results)
        assert table(matrix) == reference_align(results, REF)
        ordered = order_rows(matrix)
        assert table(ordered) == reference_order(matrix)


class TestOrderRows:
    def test_alphabetical_on_uniform_labels(self):
        cell = _cell(REF, ["zeta", "alpha", "mid"], [0, 0, 0])
        matrix = order_rows(align_labels([cell]))
        assert [key.display for key in table(matrix)[0]] == ["alpha", "mid", "zeta"]

    def test_majority_label_primary_key(self):
        cell = _cell(REF, ["x", "y", "z"], [1, 0, 2])
        matrix = order_rows(align_labels([cell]))
        labels = [row[0] for row in table(matrix)[1]]
        assert labels == sorted(labels)

    def test_equal_names_keep_panel_order(self):
        keys = [RegionKey(country="A: B"), RegionKey(country="A", province="B")]
        matrix = MembershipMatrix(keys=keys, rows=np.array([1, 0]), columns=[REF.label()],
                                  labels=np.array([[1], [1]]))
        assert order_rows(matrix).rows.tolist() == [0, 1]

    def test_deterministic(self):
        cells = [
            _cell(REF, list("abcdef"), [0, 0, 1, 1, 2, 2]),
            _cell(OTHER, list("abcdef"), [0, 1, 1, 0, 2, 2]),
        ]
        out1 = order_rows(align_labels(cells))
        out2 = order_rows(align_labels(cells))
        assert table(out1) == table(out2)


class TestTrajectory:
    def test_all_zero_medians_pinned_at_origin(self):
        dates, m = dated([0.0] * 10)
        traj = build_trajectory(dates, m, m, m)
        assert np.all(traj.points == 0.0)
        assert np.allclose(traj.smoothed, 0.0)

    def test_single_common_date(self):
        dates, m = dated([1.5])
        with pytest.raises(InsufficientDataError):
            # one point is not enough to smooth
            build_trajectory(dates, m, m, m)


class TestBSpline:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(12, 3))
        out = bspline_smooth(pts)
        assert np.array_equal(out[0], pts[0])
        assert np.array_equal(out[-1], pts[-1])

    def test_two_points_straight_segment(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        out = bspline_smooth(pts)
        assert np.array_equal(out[0], pts[0])
        assert np.array_equal(out[-1], pts[1])
        for p in out:
            t = p[0]
            assert np.allclose(p, t * pts[1], atol=1e-12)

    def test_collinear_controls_stay_collinear(self):
        direction = np.array([1.0, -2.0, 0.5])
        pts = np.outer(np.linspace(0, 3, 7), direction)
        out = bspline_smooth(pts)
        # every sample is a multiple of the direction vector
        for p in out:
            cross = np.cross(p, direction)
            assert np.linalg.norm(cross) < 1e-9

    def test_convex_hull_containment_square(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        out = bspline_smooth(pts)
        assert np.all(out[:, 0] >= -1e-9) and np.all(out[:, 0] <= 1 + 1e-9)
        assert np.all(out[:, 1] >= -1e-9) and np.all(out[:, 1] <= 1 + 1e-9)
        assert np.all(np.abs(out[:, 2]) <= 1e-9)

    def test_convex_hull_containment_random(self):
        # hull membership via linear programming would be overkill: bound by
        # coordinate-wise min/max of the controls, which contains the hull
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(9, 3))
        out = bspline_smooth(pts)
        assert np.all(out >= pts.min(axis=0) - 1e-9)
        assert np.all(out <= pts.max(axis=0) + 1e-9)

    def test_sample_count(self):
        pts = np.linspace(0, 1, 8)[:, None] * np.ones(3)
        out = bspline_smooth(pts)
        assert len(out) == (8 - 3) * 10 + 1

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            bspline_smooth(np.zeros((1, 3)))

    @pytest.mark.parametrize("n", list(range(2, 12)) + [100, 851])
    @pytest.mark.parametrize("samples", [1, 3, 10])
    def test_equals_per_sample_de_boor(self, n, samples, monkeypatch):
        # 1 sample per span puts every sample on a knot
        monkeypatch.setattr(analysis, "SAMPLES_PER_SEGMENT", samples)
        pts = np.random.default_rng(n).normal(size=(n, 3))
        assert np.array_equal(bspline_smooth(pts), reference_bspline(pts, samples))


def reference_bspline(ctrl, samples_per_segment):
    """The earlier per-sample de Boor loop, kept as the bit-for-bit reference."""
    n = len(ctrl)
    degree = min(3, n - 1)
    n_spans = n - degree
    knots = np.concatenate(
        [np.zeros(degree + 1), np.arange(1, n_spans), np.full(degree + 1, n_spans)]
    ).astype(float)
    total = n_spans * samples_per_segment
    out = np.empty((total + 1, ctrl.shape[1]))
    for s in range(total + 1):
        x = n_spans * s / total
        span = int(np.searchsorted(knots, x, side="right") - 1)
        span = min(max(span, degree), n - 1)
        d = [ctrl[j + span - degree].copy() for j in range(degree + 1)]
        for r in range(1, degree + 1):
            for j in range(degree, r - 1, -1):
                lo = knots[j + span - degree]
                hi = knots[j + 1 + span - r]
                alpha = 0.0 if hi == lo else (x - lo) / (hi - lo)
                d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
        out[s] = d[degree]
    return out


def test_membership_csv_layout():
    cells = [
        _cell(REF, ["a", "b"], [0, 1]),
        _cell(OTHER, ["a"], [0]),
    ]
    matrix = order_rows(align_labels(cells))
    buf = io.StringIO()
    write_membership_csv(matrix, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"region,{REF.label()},{OTHER.label()}"
    assert lines[1] == "a,1,1"
    assert lines[2] == "b,2,"


def reference_write_membership_csv(matrix, stream):
    """The earlier csv.writer writers, kept as the byte-for-byte references."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["region"] + list(matrix.columns))
    for key, row in zip(*table(matrix)):
        writer.writerow([key.display] + ["" if lab is None else lab for lab in row])


def reference_write_peaks_csv(peaks_by_community, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["community", "date"])
    for community in sorted(peaks_by_community):
        for d in peaks_by_community[community]:
            writer.writerow([community, d.isoformat()])


@pytest.mark.parametrize("seed", range(3))
def test_membership_csv_equals_reference_bytes(seed):
    rng = np.random.default_rng(seed)
    columns = [s.label() for s in GRID]
    cells = [
        [None if rng.random() < 0.2 else int(rng.integers(1, 6)) for _ in columns]
        for _ in AWKWARD_KEYS
    ]
    labels = np.array([[lab or 0 for lab in row] for row in cells])
    matrix = MembershipMatrix(keys=list(AWKWARD_KEYS), rows=np.arange(len(AWKWARD_KEYS)),
                              columns=columns, labels=labels)
    got, expected = io.StringIO(), io.StringIO()
    write_membership_csv(matrix, got)
    reference_write_membership_csv(matrix, expected)
    assert got.getvalue() == expected.getvalue()


@pytest.mark.parametrize(
    "peaks",
    [
        {},
        {1: [], 2: [], 3: []},
        {3: [date(2021, 5, 1)], 1: [date(2020, 3, 1), date(2021, 1, 9)], 2: []},
    ],
)
def test_peaks_csv_equals_reference_bytes(peaks):
    got, expected = io.StringIO(), io.StringIO()
    write_peaks_csv(peaks, got)
    reference_write_peaks_csv(peaks, expected)
    assert got.getvalue() == expected.getvalue()
    if not any(peaks.values()):
        assert got.getvalue() == "community,date\n"


def reference_write_medians_csv(dates, medians, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["date"] + [f"c{i + 1}" for i in range(len(medians))])
    for t, d in enumerate(dates):
        writer.writerow([d.isoformat()] + [fmt9(m[t]) for m in medians])


def reference_write_trajectory_csv(traj, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["date", "x", "y", "z"])
    for d, (x, y, z) in zip(traj.dates, traj.points):
        writer.writerow([d.isoformat(), fmt9(x), fmt9(y), fmt9(z)])


def reference_write_smoothed_csv(traj, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    for x, y, z in traj.smoothed:
        writer.writerow([fmt9(x), fmt9(y), fmt9(z)])


@pytest.mark.parametrize("seed", range(3))
def test_curve_writers_equal_reference_bytes(seed):
    rng = np.random.default_rng(seed)
    days = 60
    dates = dated(np.zeros(days))[0]
    medians = rng.normal(scale=3.0, size=(3, days))
    medians[0, :6] = [0.1234567895, -0.0, 0.0, 1.0, -1e-300, 123456789.5]
    traj = build_trajectory(dates, *medians)

    def both(write, reference, *args):
        got, expected = io.StringIO(), io.StringIO()
        write(*args, got)
        reference(*args, expected)
        assert got.getvalue() == expected.getvalue()

    both(write_medians_csv, reference_write_medians_csv, dates, list(medians))
    both(write_trajectory_csv, reference_write_trajectory_csv, traj)
    both(write_smoothed_csv, reference_write_smoothed_csv, traj)
