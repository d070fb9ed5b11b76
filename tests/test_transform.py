import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet.errors import InsufficientDataError, ParameterError
from epinet.ingest import CaseSeries, Panel, RegionKey
from epinet.transform import (
    WARMUP_DAYS,
    change_exponents,
    daily_diffs,
    moving_average_7,
    to_exponent_series,
)


def series_of(counts, name="X", start=date(2021, 1, 1)):
    dates = [start + timedelta(days=i) for i in range(len(counts))]
    return CaseSeries(key=RegionKey(country=name), dates=dates, cumulative=list(counts))


def panel_of(counts, name="X", start=date(2021, 1, 1)):
    return Panel.from_series([series_of(counts, name, start)])


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
        v = change_exponents(np.array([0.0, 5.0]), floor_eps=1e-9)
        assert v[0] == 7.0

    def test_negative_average_floored(self):
        v = change_exponents(np.array([-3.0, -3.0]))
        assert v[0] == 0.0  # both floored to eps, ratio 1

    def test_bad_alpha(self):
        for alpha in (0, -1.0, math.nan):
            with pytest.raises(ParameterError):
                change_exponents(np.array([1.0, 2.0]), alpha=alpha)

    def test_bad_floor(self):
        with pytest.raises(ParameterError):
            change_exponents(np.array([1.0, 2.0]), floor_eps=-1)

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

    def test_ragged_rows_undefined_outside_range(self):
        counts = np.cumsum(np.arange(1, 31) ** 2).tolist()
        late = series_of(counts[:27], name="Late", start=date(2021, 1, 4))
        panel = Panel.from_series([series_of(counts), late])
        e = to_exponent_series(panel)
        assert np.isnan(e.values[1, :3]).all()
        alone = to_exponent_series(Panel.from_series([late]))
        assert np.array_equal(e.values[1, 3:], alone.values[0])

    @pytest.mark.parametrize("alpha", [5.0, 7.0, 9.0])
    def test_clipping_soundness(self, alpha):
        rng = np.random.default_rng(0)
        counts = np.cumsum(rng.integers(0, 10_000_000, size=60)).tolist()
        e = to_exponent_series(panel_of(counts), alpha=alpha)
        assert np.all(np.abs(e.values) <= alpha)

    @given(st.integers(2, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, k):
        # scaling daily new cases by k scales cumulative counts by k
        rng = np.random.default_rng(1)
        daily = rng.integers(10, 1000, size=30)
        base = to_exponent_series(panel_of(np.cumsum(daily).tolist()))
        scaled = to_exponent_series(panel_of(np.cumsum(daily * k).tolist()))
        assert np.allclose(base.values, scaled.values, atol=1e-9)
