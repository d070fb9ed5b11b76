"""Parse wide-format cumulative case CSVs and apply the region selection filter.

The expected input layout is the familiar wide table:

    Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,...

with one row per region and one date column per day.  Regions are keyed by
country plus optional province ("Country" or "Country: Province"); provinces
are never aggregated into their country.  Parsing yields one ``CaseSeries``
per row; ``Panel.from_series`` puts them on one date axis, and the window and
selection filters work on that panel.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from .errors import (
    CsvFormatError,
    CsvParseError,
    DateRangeError,
    DuplicateKeyError,
)

DEFAULT_MIN_CUMULATIVE = 100_000
DEFAULT_START = date(2020, 1, 22)
DEFAULT_END = date(2022, 5, 29)

EXPECTED_META_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")


@dataclass(frozen=True, order=True)
class RegionKey:
    country: str
    province: str | None = None

    @property
    def display(self) -> str:
        if self.province:
            return f"{self.country}: {self.province}"
        return self.country

    def __str__(self) -> str:
        return self.display


@dataclass
class CaseSeries:
    """One region's dated cumulative positive-case counts (daily cadence)."""

    key: RegionKey
    dates: list[date]
    cumulative: list[int]


@dataclass(eq=False)
class Panel:
    """Regions x days table on one date axis starting at ``start``.

    ``values[r, t]`` belongs to region ``keys[r]`` on day ``start + t``; NaN
    marks a day on which that region has no value.
    """

    keys: list[RegionKey]
    start: date
    values: np.ndarray  # (regions, days) float

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def days(self) -> int:
        return self.values.shape[1]

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.days - 1)

    @property
    def dates(self) -> list[date]:
        return [self.start + timedelta(days=t) for t in range(self.days)]

    @classmethod
    def from_series(cls, series: list[CaseSeries]) -> Panel:
        """Put the series on the axis spanning all of them; a region is NaN
        outside its own date range.  Each series' dates must be consecutive."""
        start = min(s.dates[0] for s in series)
        end = max(s.dates[-1] for s in series)
        axis = [start + timedelta(days=t) for t in range((end - start).days + 1)]
        values = np.full((len(series), len(axis)), np.nan)
        for row, s in zip(values, series):
            off = (s.dates[0] - start).days
            if s.dates != axis[off : off + len(s.dates)]:
                raise ValueError(f"{s.key.display}: dates must be consecutive days")
            row[off : off + len(s.dates)] = s.cumulative
        return cls(keys=[s.key for s in series], start=start, values=values)


def _parse_header_date(text: str, column: int) -> date:
    text = text.strip()
    for fmt in ("%m/%d/%y", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise CsvFormatError(f"unparseable date {text!r} in header column {column}")


def parse_cases_csv(data: bytes | str) -> list[CaseSeries]:
    """Parse a wide-format cumulative case CSV into one CaseSeries per row.

    Header dates may be M/D/YY (the upstream feed) or ISO YYYY-MM-DD
    (synthetic fixtures) and must be consecutive days.  Lat/Long are ignored.
    Raises CsvFormatError for undecodable bytes or a bad header, CsvParseError
    (with coordinates) for a bad cell, and DuplicateKeyError when two rows key
    the same region.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"input is not UTF-8 text: {exc.reason} at byte {exc.start}")
    reader = csv.reader(io.StringIO(data))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty input: no header row")

    if len(header) < 5:
        raise CsvFormatError(
            f"header has {len(header)} columns, need the 4 metadata columns plus dates"
        )
    for i, expected in enumerate(EXPECTED_META_COLUMNS):
        if header[i].strip() != expected:
            raise CsvFormatError(
                f"header column {i + 1} is {header[i]!r}, expected {expected!r}"
            )
    dates = [_parse_header_date(cell, i + 5) for i, cell in enumerate(header[4:])]
    for column, (a, b) in enumerate(zip(dates, dates[1:]), start=6):
        if b - a != timedelta(days=1):
            raise CsvFormatError(f"header column {column} is {b}, expected the day after {a}")

    out: list[CaseSeries] = []
    seen: set[RegionKey] = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise CsvFormatError(
                f"row {row_no} has {len(row)} fields, header has {len(header)}"
            )
        province = row[0].strip() or None
        country = row[1].strip()
        key = RegionKey(country=country, province=province)
        if key in seen:
            raise DuplicateKeyError(f"duplicate region key {key.display!r} at row {row_no}")
        seen.add(key)
        counts = []
        for col, cell in enumerate(row[4:], start=5):
            try:
                counts.append(int(cell.strip()))
            except ValueError:
                raise CsvParseError(
                    f"non-numeric case count {cell!r}", row=row_no, column=col
                )
        out.append(CaseSeries(key=key, dates=list(dates), cumulative=counts))
    return out


def select_regions(
    panel: Panel,
    min_cumulative: int = DEFAULT_MIN_CUMULATIVE,
    as_of: date = DEFAULT_END,
) -> Panel:
    """Keep the rows with at least ``min_cumulative`` cases as of ``as_of``.

    If ``as_of`` is past the panel's last date it is clamped to that date
    (with a warning), so shorter fixtures still work.  A region without a
    value on that day is dropped.
    """
    col = (as_of - panel.start).days
    if col >= panel.days:
        warnings.warn(f"as_of {as_of} past last date {panel.end}, clamping", stacklevel=2)
        col = panel.days - 1
    if col < 0:
        keep = np.zeros(len(panel), dtype=bool)
    else:
        keep = panel.values[:, col] >= min_cumulative
    return Panel(
        keys=[k for k, ok in zip(panel.keys, keep) if ok],
        start=panel.start,
        values=panel.values[keep],
    )


def restrict_date_range(
    panel: Panel,
    start: date = DEFAULT_START,
    end: date = DEFAULT_END,
) -> Panel:
    """Return the inclusive [start, end] columns of the panel."""
    if start > end:
        raise DateRangeError(f"start {start} after end {end}")
    if start < panel.start or end > panel.end:
        raise DateRangeError(
            f"requested {start}..{end} outside available {panel.start}..{panel.end}"
        )
    i = (start - panel.start).days
    j = (end - panel.start).days + 1
    return Panel(keys=panel.keys, start=start, values=panel.values[:, i:j])


def write_long_csv(panel: Panel, stream) -> None:
    """Write the normalized long-format CSV ``region,date,cumulative``; days
    without a value are left out."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["region", "date", "cumulative"])
    days = [d.isoformat() for d in panel.dates]
    for key, row in zip(panel.keys, panel.values.tolist()):
        for day, n in zip(days, row):
            if n == n:  # NaN is the only value unequal to itself
                writer.writerow([key.display, day, int(n)])


def to_wide_csv(panel: Panel) -> str:
    """Serialize back to the wide layout; every day of every row needs a value."""
    if np.isnan(panel.values).any():
        raise ValueError("wide serialization needs a value on every day of every row")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        list(EXPECTED_META_COLUMNS) + [d.strftime("%-m/%-d/%y") for d in panel.dates]
    )
    for key, row in zip(panel.keys, panel.values.astype(np.int64).tolist()):
        writer.writerow([key.province or "", key.country, "", ""] + row)
    return buf.getvalue()
