import io
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import make_net
from epinet.analysis import (
    GridCell,
    GridSettings,
    align_labels,
    bspline_smooth,
    build_trajectory,
    detect_peaks,
    median_curve,
    order_rows,
    reference_settings,
    run_grid,
    write_membership_csv,
)
from epinet.community import Partition, compare_partitions
from epinet.errors import AlignmentError, InsufficientDataError, ParameterError
from epinet.ingest import CaseSeries, Panel, RegionKey
from epinet.netbuild import BuildSettings, SimilarityMeasure


def exp_panel(rows, start=date(2021, 1, 1)):
    """Exponent panel from {name: values}; NaN marks an undefined day."""
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
        med = median_curve(exps, {exps.keys[0]})
        assert med.tolist() == [1.0, -2.0, 0.5]  # one value per day of the panel

    def test_odd_count(self):
        exps = exp_panel({n: [v] for n, v in zip("ABC", (-1.0, 0.0, 5.0))})
        med = median_curve(exps, set(exps.keys))
        assert med.tolist() == [0.0]

    def test_even_count_mean_of_central(self):
        exps = exp_panel({n: [v] for n, v in zip("ABCD", (-1.0, 0.0, 2.0, 7.0))})
        med = median_curve(exps, set(exps.keys))
        assert med.tolist() == [1.0]

    def test_undefined_day_skipped(self):
        exps = exp_panel({"A": [1.0, np.nan], "B": [3.0, np.nan]})
        med = median_curve(exps, set(exps.keys))
        assert med[0] == 2.0
        assert np.isnan(med[1])

    def test_empty_members(self):
        with pytest.raises(ParameterError):
            median_curve(exp_panel({"A": [1.0]}), set())

    def test_bounded_by_member_extremes(self):
        rng = np.random.default_rng(4)
        exps = exp_panel({f"R{i}": rng.normal(size=30) for i in range(7)})
        med = median_curve(exps, set(exps.keys))
        assert np.all(med >= exps.values.min(axis=0) - 1e-12)
        assert np.all(med <= exps.values.max(axis=0) + 1e-12)


class TestDetectPeaks:
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


class TestRunGrid:
    def test_default_grid_has_18_cells(self):
        assert len(GridSettings().cells()) == 18

    def test_reference_is_third_cell(self):
        cells = GridSettings().cells()
        assert cells[2] == reference_settings()

    def test_degenerate_grid_equals_direct_run(self, planted):
        cases, _ = planted
        grid = GridSettings(rho_values=(0.0,), alpha_values=(7.0,),
                            measures=(SimilarityMeasure.PEARSON,))
        cells = run_grid(cases, grid)
        assert len(cells) == 1
        from epinet.analysis import run_cell

        direct = run_cell(cases, reference_settings(), seed=0)
        assert cells[0].partition.assignment == direct.partition.assignment

    def test_planted_recovery_all_cells(self, planted):
        cases, labels = planted
        cells = run_grid(cases, GridSettings())
        assert len(cells) == 18
        for cell in cells:
            assert cell.error is None, cell.error
            truth = Partition(
                assignment={
                    i: labels[cell.network.nodes[i]] for i in range(cell.network.n)
                },
                modularity=0.0,
            )
            agreement, _ = compare_partitions(cell.partition, truth)
            assert agreement == 1.0, cell.settings.label()

    def test_cell_error_recorded_not_raised(self):
        # two regions whose exponents are exactly anti-correlated: no edges
        start = date(2021, 1, 1)
        days = 30
        up = [int(1000 * 2 ** (0.1 * t)) for t in range(days)]
        flat = [1000] * days
        dates = [start + timedelta(days=i) for i in range(days)]
        cases = [
            CaseSeries(key=RegionKey(country="A"), dates=dates, cumulative=up),
            CaseSeries(key=RegionKey(country="B"), dates=dates, cumulative=flat),
        ]
        cells = run_grid(Panel.from_series(cases), GridSettings())
        assert all(c.error is not None for c in cells)


def _cell(settings, nodes, assignment):
    net = make_net(len(nodes), [])
    net.nodes = [RegionKey(country=n) for n in nodes]
    part = Partition(assignment=assignment, modularity=0.0)
    return GridCell(settings=settings, network=net, partition=part)


REF = reference_settings()
OTHER = BuildSettings(rho=0.05, alpha=7.0, measure=SimilarityMeasure.PEARSON)


class TestAlignLabels:
    def test_reference_identity(self):
        cell = _cell(REF, ["a", "b", "c", "d"], {0: 0, 1: 0, 2: 0, 3: 1})
        matrix = align_labels([cell], REF)
        labels = {r.display: row[0] for r, row in zip(matrix.rows, matrix.cells)}
        assert labels == {"a": 1, "b": 1, "c": 1, "d": 2}

    def test_permuted_labels_align(self):
        ref = _cell(REF, ["a", "b", "c", "d"], {0: 0, 1: 0, 2: 0, 3: 1})
        other = _cell(OTHER, ["a", "b", "c", "d"], {0: 1, 1: 1, 2: 1, 3: 0})
        matrix = align_labels([ref, other], REF)
        for row in matrix.cells:
            assert row[0] == row[1]

    def test_split_community_larger_shard_keeps_label(self):
        # reference: {a,b,c}, {d,e,f}, {g,h,i}; other splits community 3
        nodes = list("abcdefghi")
        ref = _cell(REF, nodes, {i: i // 3 for i in range(9)})
        other = _cell(
            OTHER, nodes, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3}
        )
        matrix = align_labels([ref, other], REF)
        by_name = {r.display: row for r, row in zip(matrix.rows, matrix.cells)}
        assert by_name["g"][1] == 3 and by_name["h"][1] == 3
        assert by_name["i"][1] == 4  # smaller shard gets a fresh label

    def test_absent_region_blank(self):
        ref = _cell(REF, ["a", "b"], {0: 0, 1: 0})
        other = _cell(OTHER, ["a"], {0: 0})
        matrix = align_labels([ref, other], REF)
        by_name = {r.display: row for r, row in zip(matrix.rows, matrix.cells)}
        assert by_name["b"][1] is None

    def test_missing_reference_raises(self):
        cell = _cell(OTHER, ["a", "b"], {0: 0, 1: 0})
        with pytest.raises(AlignmentError):
            align_labels([cell], REF)

    def test_errored_reference_raises(self):
        bad = GridCell(settings=REF, error="boom")
        with pytest.raises(AlignmentError):
            align_labels([bad], REF)


class TestOrderRows:
    def test_alphabetical_on_uniform_labels(self):
        cell = _cell(REF, ["zeta", "alpha", "mid"], {0: 0, 1: 0, 2: 0})
        matrix = order_rows(align_labels([cell], REF))
        assert [r.display for r in matrix.rows] == ["alpha", "mid", "zeta"]

    def test_majority_label_primary_key(self):
        cell = _cell(REF, ["x", "y", "z"], {0: 1, 1: 0, 2: 2})
        matrix = order_rows(align_labels([cell], REF))
        labels = [row[0] for row in matrix.cells]
        assert labels == sorted(labels)

    def test_deterministic(self):
        cells = [
            _cell(REF, list("abcdef"), {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}),
            _cell(OTHER, list("abcdef"), {0: 0, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2}),
        ]
        out1 = order_rows(align_labels(cells, REF))
        out2 = order_rows(align_labels(cells, REF))
        assert out1 == out2


class TestTrajectory:
    def test_all_zero_medians_pinned_at_origin(self):
        dates, m = dated([0.0] * 10)
        traj = build_trajectory(dates, m, m, m)
        assert np.all(traj.points == 0.0)
        assert np.allclose(traj.smoothed, 0.0)

    def test_undefined_date_dropped(self):
        dates, m1 = dated([1.0, 2.0, 3.0])
        traj = build_trajectory(dates, m1, [1.0, np.nan, 3.0], m1)
        assert len(traj.points) == 2
        assert traj.dates == [dates[0], dates[2]]

    def test_single_common_date(self):
        dates, m = dated([1.5])
        with pytest.raises(InsufficientDataError):
            # one point is not enough to smooth
            build_trajectory(dates, m, m, m)

    def test_no_common_date(self):
        dates, m1 = dated([np.nan, 1.0])
        with pytest.raises(InsufficientDataError):
            build_trajectory(dates, m1, [1.0, np.nan], [1.0, 1.0])


class TestBSpline:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(12, 3))
        out = bspline_smooth(pts)
        assert np.array_equal(out[0], pts[0])
        assert np.array_equal(out[-1], pts[-1])

    def test_two_points_straight_segment(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        out = bspline_smooth(pts, samples_per_segment=4)
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
        out = bspline_smooth(pts, samples_per_segment=25)
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
        out = bspline_smooth(pts, samples_per_segment=10)
        assert len(out) == (8 - 3) * 10 + 1

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            bspline_smooth(np.zeros((1, 3)))


def test_membership_csv_layout():
    cells = [
        _cell(REF, ["a", "b"], {0: 0, 1: 1}),
        _cell(OTHER, ["a"], {0: 0}),
    ]
    matrix = order_rows(align_labels(cells, REF))
    buf = io.StringIO()
    write_membership_csv(matrix, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"region,{REF.label()},{OTHER.label()}"
    assert lines[1] == "a,1,1"
    assert lines[2] == "b,2,"
