import io
from datetime import date, timedelta

import numpy as np
import pytest

from epinet.errors import (
    CsvFormatError,
    CsvParseError,
    DateRangeError,
    DuplicateKeyError,
)
from epinet.ingest import (
    CaseSeries,
    Panel,
    RegionKey,
    parse_cases_csv,
    restrict_date_range,
    select_regions,
    to_wide_csv,
    write_long_csv,
)

HEADER = "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,1/24/20"


def test_parse_basic_row():
    csv = HEADER + "\n,Albania,41.15,20.17,0,0,1\n"
    series = parse_cases_csv(csv)
    assert len(series) == 1
    s = series[0]
    assert s.key.display == "Albania"
    assert s.cumulative == [0, 0, 1]
    assert s.dates == [date(2020, 1, 22), date(2020, 1, 23), date(2020, 1, 24)]


def test_parse_province_display():
    csv = HEADER + '\n"New South Wales",Australia,-33.87,151.2,1,2,3\n'
    series = parse_cases_csv(csv)
    assert series[0].key.display == "Australia: New South Wales"


def test_parse_header_only():
    assert parse_cases_csv(HEADER + "\n") == []


def test_parse_iso_header_dates():
    csv = "Province/State,Country/Region,Lat,Long,2021-03-01,2021-03-02\n,X,0,0,5,6\n"
    series = parse_cases_csv(csv)
    assert series[0].dates[0] == date(2021, 3, 1)


def test_parse_accepts_bytes_with_bom():
    csv = ("﻿" + HEADER + "\n,Albania,0,0,1,2,3\n").encode("utf-8")
    assert parse_cases_csv(csv)[0].key.country == "Albania"


def test_parse_bad_header_column():
    with pytest.raises(CsvFormatError, match="Country/Region"):
        parse_cases_csv("Province/State,Country,Lat,Long,1/22/20\n")


def test_parse_bad_header_date():
    with pytest.raises(CsvFormatError, match="not-a-date"):
        parse_cases_csv("Province/State,Country/Region,Lat,Long,not-a-date\n")


def test_parse_header_date_gap_names_column():
    with pytest.raises(CsvFormatError, match="column 7"):
        parse_cases_csv("Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,1/25/20\n")


def test_parse_non_numeric_cell_coordinates():
    csv = HEADER + "\n,Albania,0,0,1,oops,3\n"
    with pytest.raises(CsvParseError) as err:
        parse_cases_csv(csv)
    assert err.value.row == 2
    assert err.value.column == 6


def test_parse_duplicate_key():
    csv = HEADER + "\n,Albania,0,0,1,2,3\n,Albania,1,1,4,5,6\n"
    with pytest.raises(DuplicateKeyError, match="Albania"):
        parse_cases_csv(csv)


def test_parse_negative_corrections_kept():
    csv = HEADER + "\n,X,0,0,10,8,12\n"
    assert parse_cases_csv(csv)[0].cumulative == [10, 8, 12]


def _mkseries(name, counts, start=date(2022, 5, 1)):
    dates = [start + timedelta(days=i) for i in range(len(counts))]
    return CaseSeries(key=RegionKey(country=name), dates=dates, cumulative=counts)


def _mkpanel(*series):
    return Panel.from_series(list(series))


def _same(a, b):
    return a.keys == b.keys and a.start == b.start and np.array_equal(a.values, b.values)


def test_panel_from_ragged_series():
    a = _mkseries("A", [1, 2, 3])
    b = _mkseries("B", [5, 6], start=date(2022, 5, 3))
    panel = _mkpanel(a, b)
    assert len(panel) == 2
    assert panel.dates == a.dates + [date(2022, 5, 4)]
    assert np.array_equal(panel.values, [[1, 2, 3, np.nan], [np.nan, np.nan, 5, 6]],
                          equal_nan=True)


def test_panel_rejects_gap_in_dates():
    s = _mkseries("A", [1, 2, 3])
    s.dates = [s.dates[0], s.dates[1], s.dates[2] + timedelta(days=1)]
    with pytest.raises(ValueError, match="consecutive"):
        _mkpanel(s)


def test_select_regions_threshold_boundary():
    big = _mkseries("Big", [0, 50_000, 100_000])
    small = _mkseries("Small", [0, 50_000, 99_999])
    kept = select_regions(_mkpanel(big, small), min_cumulative=100_000, as_of=date(2022, 5, 3))
    assert [k.display for k in kept.keys] == ["Big"]
    assert kept.values.tolist() == [[0, 50_000, 100_000]]


def test_select_regions_zero_threshold_keeps_all():
    panel = _mkpanel(_mkseries("A", [0, 1, 2]), _mkseries("B", [0, 0, 0]))
    assert _same(select_regions(panel, min_cumulative=0, as_of=date(2022, 5, 3)), panel)


def test_select_regions_clamps_future_as_of():
    panel = _mkpanel(_mkseries("A", [0, 1, 200_000]))
    with pytest.warns(UserWarning, match="clamping"):
        kept = select_regions(panel, min_cumulative=100_000, as_of=date(2023, 1, 1))
    assert _same(kept, panel)


def test_select_regions_idempotent():
    panel = _mkpanel(_mkseries("A", [0, 1, 150_000]), _mkseries("B", [0, 1, 2]))
    once = select_regions(panel, 100_000, date(2022, 5, 3))
    twice = select_regions(once, 100_000, date(2022, 5, 3))
    assert _same(once, twice)


def test_restrict_identity():
    panel = _mkpanel(_mkseries("A", list(range(10))))
    assert _same(restrict_date_range(panel, panel.start, panel.end), panel)


def test_restrict_inclusive_subrange():
    s = _mkseries("A", list(range(10)))
    sub = restrict_date_range(_mkpanel(s), s.dates[2], s.dates[4])
    assert sub.values.tolist() == [[2, 3, 4]]
    assert sub.dates == s.dates[2:5]


def test_restrict_start_after_end():
    s = _mkseries("A", list(range(10)))
    with pytest.raises(DateRangeError):
        restrict_date_range(_mkpanel(s), s.dates[4], s.dates[2])


def test_restrict_outside_available_lists_bounds():
    s = _mkseries("A", list(range(5)))
    with pytest.raises(DateRangeError, match="2022-05-01"):
        restrict_date_range(_mkpanel(s), date(2022, 4, 1), s.dates[-1])


def test_wide_round_trip():
    csv = HEADER + '\n,Albania,41.15,20.17,0,0,1\n"New South Wales",Australia,0,0,1,2,3\n'
    series = parse_cases_csv(csv)
    again = parse_cases_csv(to_wide_csv(Panel.from_series(series)))
    assert [s.key for s in again] == [s.key for s in series]
    assert [s.dates for s in again] == [s.dates for s in series]
    assert [s.cumulative for s in again] == [s.cumulative for s in series]


def test_shared_date_axis():
    csv = HEADER + "\n,A,0,0,1,2,3\n,B,0,0,4,5,6\n"
    series = parse_cases_csv(csv)
    assert series[0].dates == series[1].dates


def test_long_csv_output():
    s = _mkseries("A", [1, 2])
    buf = io.StringIO()
    write_long_csv(_mkpanel(s), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "region,date,cumulative"
    assert lines[1] == "A,2022-05-01,1"
    assert lines[2] == "A,2022-05-02,2"
