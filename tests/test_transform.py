import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from conftest import traced_peak
from epinet.cli import RunConfig, load_cases
from epinet.errors import InsufficientDataError, ParameterError
from epinet.ingest import CaseSeries, Panel, RegionKey
from epinet.transform import WARMUP_DAYS, daily_diffs, moving_average_7, to_exponent_series
from oracles import change_exponents


def series_of(counts, name="X", start=date(2021, 1, 1)):
    dates = [start + timedelta(days=i) for i in range(len(counts))]
    return CaseSeries(key=RegionKey(country=name), dates=dates, cumulative=list(counts))


def panel_of(counts, name="X", start=date(2021, 1, 1)):
    return Panel.from_series([series_of(counts, name, start)])


def whole_panel_exponents(panel, alpha):
    """The public steps composed over the whole panel: the reference of
    to_exponent_series, which runs them a block of rows at a time."""
    return change_exponents(moving_average_7(daily_diffs(panel.values)), alpha)


class TestDailyDiffs:
    def test_basic(self):
        assert daily_diffs([0, 3, 10]).tolist() == [3, 7]

    def test_constant(self):
        assert daily_diffs([5, 5, 5]).tolist() == [0, 0]

    def test_negative_correction_passes_through(self):
        assert daily_diffs([10, 8]).tolist() == [-2]

    def test_dates_shift_by_one(self):
        # along each row, one fewer day: the diff of day t + 1 over day t
        d = daily_diffs([[0, 1, 3], [5, 5, 9]])
        assert d.tolist() == [[1, 2], [0, 4]]

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            daily_diffs([[1], [2]])


class TestMovingAverage:
    def test_constant(self):
        assert moving_average_7([3.0] * 9).tolist() == [3.0, 3.0, 3.0]

    def test_single_window(self):
        assert moving_average_7([7, 0, 0, 0, 0, 0, 0]).tolist() == [1.0]

    def test_two_windows_hand_sum(self):
        avg = moving_average_7([1, 2, 3, 4, 5, 6, 7, 14])
        assert avg == pytest.approx([4.0, 41.0 / 7.0], abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            moving_average_7([1] * 6)

    def test_rows_match_per_row_convolution(self):
        # integer daily counts, as parsed from the CSV: equal bit for bit
        rng = np.random.default_rng(2)
        diffs = rng.integers(-1000, 10**7, size=(5, 60)).astype(float)
        avg = moving_average_7(diffs)
        for row, got in zip(diffs, avg):
            assert np.array_equal(got, np.convolve(row, np.ones(7), mode="valid") / 7.0)

    @given(st.lists(st.floats(0.1, 1e6), min_size=7, max_size=40),
           st.floats(0.001, 1000.0))
    def test_commutes_with_positive_scaling(self, values, k):
        a = moving_average_7(values)
        b = moving_average_7([k * v for v in values])
        assert np.allclose(b, k * a, rtol=1e-12)


def sliding_window_mean(values):
    """The 7-day mean as a sum over each strided window, kept as the reference."""
    return sliding_window_view(values, 7, axis=-1).sum(axis=-1) / 7.0


def same_bits(a, b):
    """``a`` and ``b`` are equal bit for bit, any NaN equal to any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


TRICKY = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 2.0**53, 1e16, 0.1]


@settings(max_examples=400, deadline=None)
@given(arrays(
    np.float64,
    st.one_of(st.tuples(st.integers(7, 16)), st.tuples(st.integers(1, 3), st.integers(7, 16))),
    elements=st.one_of(
        st.sampled_from(TRICKY),
        st.sampled_from(TRICKY).map(lambda x: -x),
        st.integers(-(2**54), 2**54).map(float),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
))
@example(np.full(7, -0.0))  # a window of -0.0 sums to +0.0
@example(np.array([[1e16, 0.1, -1e16, 0.1, 0.1, 0.1, 0.1, 0.1], [-0.0] * 8]))
def test_moving_average_equals_the_window_sum_bit_for_bit(values):
    with np.errstate(all="ignore"):  # inf - inf, and sums past the largest float
        assert same_bits(moving_average_7(values), sliding_window_mean(values))


class TestChangeExponents:
    def test_log_ratio(self):
        v = change_exponents(np.array([100.0, 200.0]))
        assert v[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_clipping_bound(self):
        v = change_exponents(np.array([1.0, math.exp(10)]), alpha=7)
        assert v[0] == 7.0
        v = change_exponents(np.array([1.0, math.exp(10)]), alpha=math.inf)
        assert v[0] == pytest.approx(10.0, abs=1e-12)  # inf: no clipping

    def test_floor_then_clip(self):
        # ln(5 / 1e-9) ~ 22.33, clipped to 7
        v = change_exponents(np.array([0.0, 5.0]))
        assert v[0] == 7.0

    def test_negative_average_floored(self):
        v = change_exponents(np.array([-3.0, -3.0]))
        assert v[0] == 0.0  # both floored to eps, ratio 1

    def test_bad_alpha(self):
        for alpha in (0, -1.0, math.nan):
            with pytest.raises(ParameterError):
                change_exponents(np.array([1.0, 2.0]), alpha=alpha)

    def test_nan_breaks_definedness(self):
        v = change_exponents(np.array([1.0, np.nan, 2.0]))
        assert np.isnan(v).tolist() == [True, True]


class TestComposition:
    def test_nine_day_series_yields_one_exponent(self):
        e = to_exponent_series(panel_of(range(9)))
        assert e.values.shape == (1, 1)
        assert e.dates == [series_of(range(9)).dates[8]]

    def test_doubling_series_constant_ln2(self):
        counts = [2**t for t in range(21)]
        e = to_exponent_series(panel_of(counts))
        assert e.days == 21 - WARMUP_DAYS
        assert np.allclose(e.values, math.log(2), atol=1e-12)

    def test_constant_series_all_zero(self):
        e = to_exponent_series(panel_of([42] * 20))
        assert np.all(e.values == 0.0)  # NaN (undefined) fails this too

    def test_too_short(self):
        with pytest.raises(InsufficientDataError, match="9 days"):
            to_exponent_series(panel_of(range(8)))

    def test_warmup_length(self):
        for n in (9, 15, 40):
            e = to_exponent_series(panel_of(np.arange(n) ** 2))
            assert e.days == n - WARMUP_DAYS

    @pytest.mark.parametrize("alpha", [5.0, 7.0, 9.0])
    def test_clipping_soundness(self, alpha):
        rng = np.random.default_rng(0)
        counts = np.cumsum(rng.integers(0, 10_000_000, size=60)).tolist()
        e = to_exponent_series(panel_of(counts), alpha=alpha)
        assert np.all(np.abs(e.values) <= alpha)

    @pytest.mark.parametrize("workload", ["pipeline-300", "pipeline-999"])
    def test_holds_at_most_one_and_a_half_panels(self, benchmark_input, workload):
        """The result is the one array of the panel's size: the diffs and
        averages are made a block of rows at a time."""
        cases = load_cases(RunConfig(input=benchmark_input(workload)[0]))
        exps, peak = traced_peak(to_exponent_series, cases)
        panel_bytes = cases.values.nbytes
        assert exps.values.shape == (len(cases), 859 - WARMUP_DAYS)
        assert peak <= 1.5 * panel_bytes, peak / panel_bytes

    @pytest.mark.parametrize("regions", [1, 37, 38, 39, 77, 100])
    def test_row_blocks_equal_the_whole_panel(self, regions):
        """Blocks of 38 rows at 859 days, the last one short; a zero stretch
        and a negative correction send log-ratios past every alpha."""
        rng = np.random.default_rng(regions)
        daily = rng.integers(0, 10**6, size=(regions, 859))
        daily[0, 100:120] = 0
        daily[-1, 300] = -(10**7)
        panel = Panel(keys=[RegionKey(country=f"R{i}") for i in range(regions)],
                      start=date(2020, 1, 22), values=np.cumsum(daily, axis=1).astype(float))
        for alpha in (5.0, math.inf):
            staged = whole_panel_exponents(panel, alpha)
            got = to_exponent_series(panel, alpha=alpha)
            assert (got.keys, got.start) == (panel.keys, panel.dates[WARMUP_DAYS])
            assert got.values.tobytes() == staged.tobytes()

    @given(st.integers(2, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, k):
        # scaling daily new cases by k scales cumulative counts by k
        rng = np.random.default_rng(1)
        daily = rng.integers(10, 1000, size=30)
        base = to_exponent_series(panel_of(np.cumsum(daily).tolist()))
        scaled = to_exponent_series(panel_of(np.cumsum(daily * k).tolist()))
        assert np.allclose(base.values, scaled.values, atol=1e-9)


class TestClipExponents:
    def test_equals_transform_at_alpha(self):
        # zero stretches and negative corrections send log-ratios past +-20
        rng = np.random.default_rng(3)
        daily = rng.integers(0, 1000, size=(4, 60))
        daily[0, 10:20] = 0
        daily[1, 30] = -5000
        panel = Panel(keys=[RegionKey(country=c) for c in "ABCD"], start=date(2021, 1, 1),
                      values=np.cumsum(daily, axis=1).astype(float))
        unclipped = to_exponent_series(panel, alpha=math.inf).values
        for alpha in (1e-3, 5.0, 7.0, 9.0, math.inf):
            want = to_exponent_series(panel, alpha=alpha)
            # as the grid clips its exponents, in place
            got = np.clip(unclipped, -alpha, alpha, out=unclipped.copy())
            assert got.tobytes() == want.values.tobytes()
            # the public steps composed over the whole panel
            staged = whole_panel_exponents(panel, alpha)
            assert (want.keys, want.start) == (panel.keys, panel.dates[WARMUP_DAYS])
            assert staged.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_bad_alpha_as_transform(self, alpha):
        """The public steps reject an alpha as the composition that every
        command runs does."""
        panel = panel_of(np.arange(20) ** 2)
        with pytest.raises(ParameterError) as want:
            to_exponent_series(panel, alpha=alpha)
        with pytest.raises(ParameterError) as got:
            whole_panel_exponents(panel, alpha)
        assert str(got.value) == str(want.value)
