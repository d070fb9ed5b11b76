import csv
import io
import sys
import tracemalloc
import warnings
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epinet import ingest
from epinet.errors import (
    CsvFormatError,
    CsvParseError,
    DuplicateKeyError,
    InsufficientDataError,
)
from epinet.ingest import (
    Panel,
    RegionKey,
    parse_cases_csv,
    restrict_date_range,
    select_regions,
    write_long_csv,
    write_rows,
)
from epinet.netbuild import fmt9
from oracles import to_wide_csv

HEADER = "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,1/24/20"


def test_parse_basic_row():
    csv = HEADER + "\n,Albania,41.15,20.17,0,0,1\n"
    panel = parse_cases_csv(csv.encode())
    assert len(panel) == 1
    assert panel.keys[0].display == "Albania"
    assert panel.values.tolist() == [[0, 0, 1]]
    assert panel.dates == [date(2020, 1, 22), date(2020, 1, 23), date(2020, 1, 24)]


def test_parse_province_display():
    csv = HEADER + '\n"New South Wales",Australia,-33.87,151.2,1,2,3\n'
    assert parse_cases_csv(csv.encode()).keys[0].display == "Australia: New South Wales"


def test_parse_header_only():
    panel = parse_cases_csv((HEADER + "\n").encode())
    assert len(panel) == 0
    assert panel.values.shape == (0, 3)


@pytest.mark.parametrize("tail", ["", "\n", "\n\n\r\n", "\n   \n,,,,,,\n"])
def test_no_data_rows_parse_without_a_warning(tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        panel = parse_cases_csv((HEADER + tail).encode())
    assert panel.values.shape == (0, 3)


def test_parse_holds_little_more_than_the_text_and_the_counts(benchmark_input):
    """Lines are decoded and read one at a time, and the counts are converted
    to float64 in place: a parse of a feed-shaped CSV holds the counts once
    and no copy of the text."""
    data = benchmark_input("pipeline-300")[0].read_bytes()
    tracemalloc.start()
    try:
        panel = parse_cases_csv(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.values.shape == (300, 859)
    assert peak <= 1.5 * len(data), peak / len(data)


def test_parse_iso_header_dates():
    csv = "Province/State,Country/Region,Lat,Long,2021-03-01,2021-03-02\n,X,0,0,5,6\n"
    assert parse_cases_csv(csv.encode()).start == date(2021, 3, 1)


def test_parse_accepts_bytes_with_bom():
    csv = ("﻿" + HEADER + "\n,Albania,0,0,1,2,3\n").encode("utf-8")
    assert parse_cases_csv(csv).keys[0].country == "Albania"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_undecodable_byte_named_by_its_file_offset(bom):
    """Also when a bad cell follows it: faults are reported in file order."""
    data = bom + HEADER.encode() + b"\n,Alb\xffnia,0,0,1,2,3\n"
    offset = data.index(b"\xff")
    for data in (data, data + b",X,0,0,1,oops,3\n"):
        with pytest.raises(CsvFormatError, match=f"invalid start byte at byte {offset}$"):
            parse_cases_csv(data)
        assert _outcome(data) == _per_cell_outcome(data)


@pytest.mark.parametrize(
    "lines, error, message",
    [
        ([HEADER, ",X,0,0,1,oops,3"], CsvParseError, "non-numeric case count 'oops' (row 2, "),
        ([HEADER, ",X,0,0,1,2,3", ",X,0,0,4,5,6"], DuplicateKeyError, "duplicate region key"),
        ([HEADER.replace("Lat", "Latitude"), ",X,0,0,1,2,3"], CsvFormatError, "header column 3"),
    ],
    ids=["bad_cell", "duplicate_key", "bad_header"],
)
def test_a_fault_before_an_undecodable_byte_is_reported(lines, error, message):
    data = "\n".join(lines).encode() + b"\n,Alb\xffnia,0,0,1,2,3\n"
    with pytest.raises(error) as err:
        parse_cases_csv(data)
    assert str(err.value).startswith(message)
    assert _outcome(data) == _per_cell_outcome(data)


def test_parse_bad_header_column():
    with pytest.raises(CsvFormatError, match="Country/Region"):
        parse_cases_csv(b"Province/State,Country,Lat,Long,1/22/20\n")


def test_parse_bad_header_date():
    with pytest.raises(CsvFormatError, match="not-a-date"):
        parse_cases_csv(b"Province/State,Country/Region,Lat,Long,not-a-date\n")


def test_parse_header_date_gap_names_column():
    with pytest.raises(CsvFormatError, match="column 7"):
        parse_cases_csv(b"Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,1/25/20\n")


def parsed_header(cells):
    """The dates ``parse_cases_csv`` reads from the date ``cells``, or its error."""
    text = ",".join(["Province/State,Country/Region,Lat,Long", *cells])
    text += "\n,X,0,0," + ",".join(["1"] * len(cells)) + "\n"
    try:
        return parse_cases_csv(text.encode()).dates
    except CsvFormatError as exc:
        return str(exc)


def reference_header(cells):
    """Every cell parsed by ``strptime``, then checked for consecutive days."""
    dates = []
    for column, text in enumerate(cells, start=5):
        text = text.strip()
        for fmt in ("%m/%d/%y", "%Y-%m-%d"):
            try:
                dates.append(datetime.strptime(text, fmt).date())
                break
            except ValueError:
                pass
        else:
            return f"unparseable date {text!r} in header column {column}"
    for column, (a, b) in enumerate(zip(dates, dates[1:]), start=6):
        if b - a != timedelta(days=1):
            return f"header column {column} is {b}, expected the day after {a}"
    return dates


def _feed(first, days):
    return [f"{d.month}/{d.day}/{d:%y}" for d in (first + timedelta(t) for t in range(days))]


def _iso(first, days):
    return [(first + timedelta(t)).isoformat() for t in range(days)]


@pytest.mark.parametrize(
    "cells",
    [
        _feed(date(2020, 1, 22), 859),
        _iso(date(2020, 12, 20), 20),
        ["1/22/20"],
        ["01/22/20", "01/23/20", "1/24/20"],  # zero-padded
        [" 2/28/20 ", "2/29/20", "3/1/20"],  # padded with spaces
        ["12/30/20", "12/31/20", "2021-01-01", "1/2/21"],  # feed and ISO mixed
        ["1/22/20", "1/23/20", "1/25/20", "1/26/20"],  # gap
        ["1/22/20", "1/23/20", "1/22/20"],  # repeated day
        ["1/22/20", "1/24/20", "not-a-date"],  # a gap, then garbage
        ["garbage", "1/23/20"],
        ["1/22/20", "1/23/20", "13/1/20"],
        ["12/30/68", "12/31/68", "1/1/69"],  # %y turns 69 into 1969
        ["12/30/69", "12/31/69", "1/1/70"],
        ["1/1/68", "1/2/68"],
        ["1/02/20", "1/3/20"],  # zero-padded day
        ["1/2/020", "1/3/20"],  # a three-digit year
        ["1/22/2020", "1/23/2020"],  # a four-digit year
        ["2/30/20", "2/31/20"],  # no such day
        ["2/29/21", "3/1/21"],
        ["1/22/\u0662\u0660", "1/23/20"],  # Arabic-Indic digits, which strptime reads
        ["\u0661/22/20", "1/23/20"],
        ["9" * 30 + "/1/21", "1/2/21"],  # past any C integer
        ["9999-12-30", "9999-12-31", "1/1/00"],  # no day after date.max
        ["2021-03-01", "3/2/21", "2021-03-03"],
    ],
)
def test_header_dates_equal_parsing_every_cell(cells):
    assert parsed_header(cells) == reference_header(cells)


@pytest.mark.parametrize("cells", [_feed(date(2020, 1, 22), 859), _iso(date(2020, 12, 20), 20)])
def test_consecutive_header_parses_first_cell_only(cells):
    with mock.patch.object(ingest, "_parse_header_date", wraps=ingest._parse_header_date) as parse:
        assert parsed_header(cells) == reference_header(cells)
    assert parse.call_count == 1


def test_parse_non_numeric_cell_coordinates():
    csv = HEADER + "\n,Albania,0,0,1,oops,3\n"
    with pytest.raises(CsvParseError) as err:
        parse_cases_csv(csv.encode())
    assert err.value.row == 2
    assert err.value.column == 6


def test_parse_duplicate_key():
    csv = HEADER + "\n,Albania,0,0,1,2,3\n,Albania,1,1,4,5,6\n"
    with pytest.raises(DuplicateKeyError, match="Albania"):
        parse_cases_csv(csv.encode())


def test_parse_negative_corrections_kept():
    csv = HEADER + "\n,X,0,0,10,8,12\n"
    assert parse_cases_csv(csv.encode()).values.tolist() == [[10, 8, 12]]


def _mkpanel(**counts):
    """One row of counts per region name, from 2022-05-01."""
    return Panel(keys=[RegionKey(country=name) for name in counts], start=date(2022, 5, 1),
                 values=np.array(list(counts.values()), dtype=float))


def _same(a, b):
    return a.keys == b.keys and a.start == b.start and np.array_equal(a.values, b.values)


def test_panel_rejects_nan():
    values = np.array([[1.0, 2.0], [3.0, np.nan]])
    with pytest.raises(ValueError, match="NaN"):
        Panel(keys=[RegionKey("A"), RegionKey("B")], start=date(2022, 5, 1), values=values)


def test_select_regions_threshold_boundary():
    panel = _mkpanel(Big=[0, 50_000, 100_000], Small=[0, 50_000, 99_999])
    kept = select_regions(panel, min_cumulative=100_000)
    assert [k.display for k in kept.keys] == ["Big"]
    assert kept.values.tolist() == [[0, 50_000, 100_000]]


def test_select_regions_zero_threshold_keeps_all():
    panel = _mkpanel(A=[0, 1, 2], B=[0, 0, 0])
    assert _same(select_regions(panel, min_cumulative=0), panel)


def test_select_regions_reads_the_last_day():
    # a correction can take a region back below the threshold
    panel = _mkpanel(Corrected=[0, 200_000, 50_000], Late=[0, 1, 200_000])
    kept = select_regions(panel, min_cumulative=100_000)
    assert [k.display for k in kept.keys] == ["Late"]


def test_select_regions_idempotent():
    panel = _mkpanel(A=[0, 1, 150_000], B=[0, 1, 2])
    once = select_regions(panel, 100_000)
    twice = select_regions(once, 100_000)
    assert _same(once, twice)


def test_restrict_identity():
    panel = _mkpanel(A=range(10))
    assert _same(restrict_date_range(panel, panel.start, panel.dates[-1]), panel)


def test_restrict_inclusive_subrange():
    panel = _mkpanel(A=range(10))
    sub = restrict_date_range(panel, panel.dates[2], panel.dates[4])
    assert sub.values.tolist() == [[2, 3, 4]]
    assert sub.dates == panel.dates[2:5]


@pytest.mark.parametrize("start, end, kept", [
    (date(2022, 4, 1), date(2022, 5, 3), [0, 1, 2]),  # starts before the data
    (date(2022, 5, 8), date(2023, 1, 1), [7, 8, 9]),  # ends after it
    (date(2022, 4, 30), date(2022, 5, 1), [0]),
    (date(2022, 5, 10), date(2022, 5, 11), [9]),
    (date(2020, 1, 1), date(2030, 1, 1), list(range(10))),
])
def test_restrict_clamps_the_window_to_the_data(start, end, kept):
    panel = _mkpanel(A=range(10))
    sub = restrict_date_range(panel, start, end)
    assert sub.values.tolist() == [kept]
    assert sub.dates == [panel.dates[i] for i in kept]


def test_restrict_start_after_end():
    panel = _mkpanel(A=range(10))
    with pytest.raises(InsufficientDataError, match="2022-05-05..2022-05-03"):
        restrict_date_range(panel, panel.dates[4], panel.dates[2])


def test_restrict_outside_available_lists_bounds():
    # the data run from 2022-05-01 to 2022-05-05
    panel = _mkpanel(A=range(5))
    for start, end in [(date(2022, 4, 1), date(2022, 4, 30)), (date(2022, 5, 6), date(2022, 6, 1))]:
        with pytest.raises(InsufficientDataError) as raised:
            restrict_date_range(panel, start, end)
        assert str(raised.value) == f"no region overlaps the requested range {start}..{end}"


def test_wide_round_trip():
    csv = HEADER + '\n,Albania,41.15,20.17,0,0,1\n"New South Wales",Australia,0,0,1,2,3\n'
    panel = parse_cases_csv(csv.encode())
    assert _same(parse_cases_csv(to_wide_csv(panel).encode()), panel)


def test_shared_date_axis():
    csv = HEADER + "\n,A,0,0,1,2,3\n,B,0,0,4,5,6\n"
    panel = parse_cases_csv(csv.encode())
    assert panel.start == date(2020, 1, 22)
    assert panel.values.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_long_csv_output():
    buf = io.StringIO()
    write_long_csv(_mkpanel(A=[1, 2]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "region,date,cumulative"
    assert lines[1] == "A,2022-05-01,1"
    assert lines[2] == "A,2022-05-02,2"


def reference_write_long_csv(panel, stream):
    """The earlier row-by-row writer, kept as the byte-for-byte reference."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["region", "date", "cumulative"])
    days = [d.isoformat() for d in panel.dates]
    for key, row in zip(panel.keys, panel.values.tolist()):
        for day, n in zip(days, row):
            writer.writerow([key.display, day, int(n)])


def test_long_csv_equals_reference_bytes():
    rng = np.random.default_rng(3)
    names = ["A&B", 'Say "hi"', "Korea, South", "Ελλάδα", "Plain", "100% %s %d"]
    keys = [RegionKey(country=name, province="Réunion" if i % 2 else None)
            for i, name in enumerate(names)]
    values = rng.integers(-10, 10**12, size=(len(names), 20)).astype(float)
    values[0, :2] = [2**53, -(2**53)]  # the bound, held exactly
    panel = Panel(keys=keys, start=date(2022, 5, 1), values=values)
    got, expected = io.StringIO(), io.StringIO()
    write_long_csv(panel, got)
    reference_write_long_csv(panel, expected)
    assert got.getvalue() == expected.getvalue()


# the smallest and largest subnormals, the smallest normal float and the largest float
EXTREMES = [5e-324, -5e-324, sys.float_info.min * (1 - 2**-52), sys.float_info.min]
EXTREMES += [sys.float_info.max, -sys.float_info.max]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(), min_size=1, max_size=10))
@example(values=[float("nan"), float("inf"), -float("inf"), 0.0, -0.0])
@example(values=EXTREMES)
@example(values=[0.1234567895, 0.12345678949999999, 123456789.5, 1e16, 1e-5, 1e-4])
def test_write_rows_writes_a_float_as_fmt9(values):
    expected = "".join(f"[{fmt9(x)}]\n" for x in values)
    for column in (values, np.array(values)):
        got = io.StringIO()
        write_rows(got, "[%.9g]\n", column)
        assert got.getvalue() == expected


class _Writes(list):
    """A text stream that keeps each write."""

    write = list.append


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_write_rows_equals_one_row_at_a_time(rows):
    rng = np.random.default_rng(rows)
    names = [f"r{i} 100% %s" for i in range(rows)]
    counts = rng.integers(-(2**53), 2**53, size=rows)
    floats = rng.normal(size=rows)
    writes = _Writes()
    write_rows(writes, "%s,%d,%.9g\n", names, counts, floats)
    expected = [f"{name},{n},{fmt9(x)}\n" for name, n, x in zip(names, counts.tolist(), floats)]
    assert "".join(writes) == "".join(expected)
    # one write per block of rows
    assert len(writes) == -(-rows // ingest.ROWS_PER_BLOCK)
    assert all(w.count("\n") <= ingest.ROWS_PER_BLOCK for w in writes)


# --- the one-call reader of feed-shaped count text against the per-cell loop

# counts within the bound of +-2**53, and past it (both readers reject those)
CELLS = [
    "0", "7", "-3", "-0", "007", str(2**53), str(-(2**53)),
    "123456789012345678", str(2**53 + 1), str(-(2**53) - 1),
]
# counts int() takes that the feed never has, counts neither takes, counts past int64
ODD_CELLS = [
    '"5"', "+5", "1_000", " 7 ", "\u0663", "", "-", "1-2", "5#", "1e3", "nan",
    "\ufeff5", str(2**63), "9" * 19, "9" * 20, "-" + "9" * 19, "9" * 400,
]
NAMES = [
    "Albania", "Korea, South", 'Say "hi", then go', "New\nYork", "Ελλάδα", "", " pad ", "Gr\rup",
]
PROVINCES = ["", "New South Wales", "Bonaire, Sint Eustatius and Saba"]
RAW_PIECES = ["\r", '"', ",", "\n", "\ufeff"]


@st.composite
def feed_like_csv(draw):
    """A wide case CSV of 3 days: mostly feed-shaped rows, with odd cells,
    short and long rows, repeated keys, blank and all-comma lines, CRLF or LF
    per line, an optional BOM and an optional raw character inserted
    anywhere after the header."""
    days = 3
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 5))):
        meta = [
            draw(st.sampled_from(PROVINCES)),
            draw(st.sampled_from(NAMES)),
            draw(st.sampled_from(["", "41.15", "-33.87"])),
            draw(st.sampled_from(["", "20.17"])),
        ]
        cells = draw(st.lists(st.sampled_from(CELLS), min_size=days, max_size=days))
        edit = draw(st.sampled_from(["none"] * 9 + ["odd", "short", "long", "repeat", "blank"]))
        if edit == "odd":
            cells[draw(st.integers(0, days - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "short":
            cells.pop()
        elif edit == "long":
            cells.append("1")
        elif edit == "repeat" and len(lines) > 1:
            lines.append(lines[-1])
            continue
        elif edit == "blank":
            lines.append(draw(st.sampled_from(["", "   ", ",,,,,,,", ",,,"])))
            continue
        buf = io.StringIO()
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        csv.writer(buf, lineterminator="\r\n", quoting=quoting).writerow(meta)
        lines.append(buf.getvalue()[:-2] + "," + ",".join(cells))  # names with \r quoted
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # no newline, or a bare \r, at the end
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(len(HEADER), len(text)))
        text = text[:at] + draw(st.sampled_from(RAW_PIECES)) + text[at:]
    if draw(st.booleans()):
        return text.encode("utf-8")
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


def _outcome(data):
    """What parse_cases_csv makes of ``data``: keys, dates and the counts'
    bytes, or the exception's type and message."""
    try:
        panel = parse_cases_csv(data)
    except Exception as exc:
        return type(exc), str(exc)
    return panel.keys, panel.dates, panel.values.shape, panel.values.tobytes()


def _per_cell_outcome(data):
    with mock.patch.object(ingest, "_exact_rows", return_value=None):
        return _outcome(data)


@settings(max_examples=700, deadline=None, derandomize=True)
@given(data=feed_like_csv())
def test_one_call_reader_equals_per_cell_loop(data):
    assert _outcome(data) == _per_cell_outcome(data)


def test_one_call_reader_takes_feed_shaped_rows():
    """Quoted names and provinces, Lat/Long, CRLF, blank lines, negative
    corrections and 2**53 all stay on the one-call path."""
    text = (
        HEADER + "\r\n"
        + ',"Korea, South",35.9,127.7,1,2,3\r\n'
        + "\r\n"
        + '"New South Wales",Australia,-33.87,151.2,10,8,12\r\n'
        + f'"Say ""hi""",X,,,-0,007,{2**53}\r\n'
    )
    with mock.patch.object(ingest, "_checked_rows", side_effect=AssertionError("per-cell")):
        got = _outcome(text.encode("utf-8"))
    assert got == _per_cell_outcome(text.encode("utf-8"))
    names = ["Korea, South", "Australia: New South Wales", 'X: Say "hi"']
    assert [k.display for k in got[0]] == names


@pytest.mark.parametrize(
    "row",
    [
        "1,2,3,4",  # four fields that could pass for metadata, with the counts' commas
        ",X,0,1,2,3,4",  # one metadata field missing
        ",X,0,0,0,1,2,3,4",  # one count too many
        '"a,b,c,d,1,2,3,4\n",Y,0,0,4,5,6,7',  # a quoted name spanning lines
        ',X,0,0,"1",2,3,4',  # a quoted count
        ",X,0,0\r,1,2,3,4",  # a bare carriage return ending the metadata
        ",X,0,0,+5,1_000, 7 ,\u0663",  # counts int() takes and the feed never has
        ",X,0,0,1,2,3,4#5",  # loadtxt would read a comment
        ",X,0,0,1,2,3,1e3",  # numpy < 2 would read an integer through a float
        f",X,0,0,1,2,3,{2**63 - 1}",  # 19 digits, past the 18 that always fit int64
        f",X,0,0,1,2,3,{10**19}",  # past int64
        ",X,0,0,1,2,3,\ud800",  # not encodable
        ',X,0,"0,1,2,3,4',  # a quote left open at the end of the input
    ],
)
def test_rows_outside_the_feed_shape_take_the_per_cell_loop(row):
    text = f"{HEADER},1/25/20\n{row}\n"
    assert ingest._exact_rows(text.split("\n")[1:], 4) is None
    data = text.encode("utf-8", "surrogatepass")  # a lone surrogate is not UTF-8
    assert _outcome(data) == _per_cell_outcome(data)


def test_one_day_rows_with_an_empty_count():
    text = "Province/State,Country/Region,Lat,Long,1/22/20\n,X,0,0,\n,Y,0,0,5\n"
    assert ingest._exact_rows(text.split("\n")[1:], 1) is None
    assert _outcome(text.encode()) == _per_cell_outcome(text.encode())


def test_counts_outside_the_feed_shape_still_parse():
    text = f"{HEADER}\n,X,0,0,+5,1_000, 7 \n,Y,0,0,\u0663,{2**53},+{2**53}\n"
    assert parse_cases_csv(text.encode()).values.tolist() == [[5, 1000, 7], [3, 2**53, 2**53]]


@pytest.mark.parametrize("cell", [str(2**53 + 1), str(-(2**53) - 1), f" {10**20} "])
def test_counts_past_the_bound_name_their_cell(cell):
    """Past 2**53 a float no longer holds every integer, so both readers
    reject the count rather than round it."""
    with pytest.raises(CsvParseError, match="out of range") as err:
        parse_cases_csv(f"{HEADER}\n,X,0,0,1,2,3\n,Y,0,0,4,{cell},6\n".encode())
    assert (err.value.row, err.value.column) == (3, 6)
