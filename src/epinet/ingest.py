"""Parse wide-format cumulative case CSVs and apply the region selection filter.

The expected input layout is the familiar wide table:

    Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,...

with one row per region and one date column per day.  Regions are keyed by
country plus optional province ("Country" or "Country: Province"); provinces
are never aggregated into their country.  Parsing yields one ``Panel``, a
regions x days table on the header's date axis, and the window and selection
filters work on that panel.  Counts are bounded at +-2**53, so every one is
held exactly as a float and every exponent derived from them is finite.

Lines are decoded from UTF-8 as they are read, with no separate check of the
whole input first.  Count cells in the feed's own shape (plain ASCII
``-?[0-9]+``) are read in one ``np.loadtxt`` call; any other input, an
undecodable line included, goes through a per-cell ``int()`` loop, which
accepts what ``int`` accepts, names the row and column of a bad cell and
reports the first fault in file order.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import chain

import numpy as np

from .errors import (
    CsvFormatError,
    CsvParseError,
    DuplicateKeyError,
    InsufficientDataError,
)

DEFAULT_MIN_CUMULATIVE = 100_000
DEFAULT_START = date(2020, 1, 22)
DEFAULT_END = date(2022, 5, 29)
MAX_COUNT = 2**53  # the panel holds counts as floats, exact up to here
# rows per % call in write_rows: bounds the text held at once
ROWS_PER_BLOCK = 4096

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


@dataclass(eq=False)
class Panel:
    """Regions x days table on one date axis starting at ``start``.

    ``values[r, t]`` belongs to region ``keys[r]`` on day ``start + t``; every
    region has a value on every day, and a NaN value raises ValueError.
    """

    keys: list[RegionKey]
    start: date
    values: np.ndarray  # (regions, days) float

    def __post_init__(self) -> None:
        if np.isnan(self.values).any():
            raise ValueError("a panel needs a value for every region on every day, not NaN")

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def days(self) -> int:
        return self.values.shape[1]

    @property
    def dates(self) -> list[date]:
        return [self.start + timedelta(days=t) for t in range(self.days)]


def _parse_header_date(text: str, column: int) -> date:
    text = text.strip()
    # the feed's unpadded M/D/YY, read as strptime's %m/%d/%y reads it; any
    # other text goes to strptime
    parts = text.split("/")
    if len(parts) == 3 and all(p.isascii() and p.isdigit() for p in parts):
        month, day, yy = map(int, parts)
        try:
            # %y reads 69..99 as 19xx and 00..68 as 20xx
            found = date(yy + (1900 if yy >= 69 else 2000), month, day)
        except (ValueError, OverflowError):
            pass
        else:
            if text == f"{found.month}/{found.day}/{found.year % 100:02d}":
                return found
    for fmt in ("%m/%d/%y", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise CsvFormatError(f"unparseable date {text!r} in header column {column}")


def _header_dates(cells: list[str]) -> list[date]:
    """The dates of the header's date ``cells``, which must be consecutive days.

    When each cell after the first holds the text of the day after its
    predecessor, in the first cell's style (the feed's unpadded M/D/YY or
    ISO), only the first cell is parsed; otherwise every cell is parsed, and
    the first bad or non-consecutive one raises.
    """
    texts = [cell.strip() for cell in cells]
    first = _parse_header_date(texts[0], 5)
    if len(texts) - 1 <= (date.max - first).days:
        dates = [date.fromordinal(first.toordinal() + t) for t in range(len(texts))]
        iso = "-" in texts[0]
        # %y reads 69..99 as 19xx and 00..68 as 20xx
        if iso or (1969 <= first.year and dates[-1].year <= 2068):
            expected = [
                d.isoformat() if iso else f"{d.month}/{d.day}/{d.year % 100:02d}"
                for d in dates[1:]
            ]
            if texts[1:] == expected:
                return dates
    dates = [_parse_header_date(text, i + 5) for i, text in enumerate(texts)]
    for column, (a, b) in enumerate(zip(dates, dates[1:]), start=6):
        if b - a != timedelta(days=1):
            raise CsvFormatError(f"header column {column} is {b}, expected the day after {a}")
    return dates


def _text_lines(data: bytes, start: int):
    """The lines of ``data[start:]`` as text, each with its newline and no
    empty last line, decoded one at a time, so no copy of the whole input is
    made.  UTF-8 never encodes a character with a newline byte, so
    each line decodes on its own; the first that does not raises
    CsvFormatError, naming the file offset of its first bad byte."""
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        try:
            yield data[start:end].decode()
        except UnicodeDecodeError as exc:
            raise CsvFormatError(
                f"input is not UTF-8 text: {exc.reason} at byte {start + exc.start}"
            ) from None
        start = end


def _records(reader):
    """The records of a csv ``reader``; malformed CSV raises CsvFormatError."""
    try:
        yield from reader
    except csv.Error as exc:
        reason = str(exc)
        if reason.startswith("new-line character seen in unquoted field"):
            # csv's own advice (universal-newline mode) is for file objects
            reason = (
                "a field holds a bare carriage return; remove the carriage return from the field"
            )
        raise CsvFormatError(f"line {reader.line_num} is not valid CSV: {reason}") from None


# Count text after translation: a digit or "-" becomes "0", a field separator
# stays, and any other byte becomes "x".
_COUNT_SHAPE = bytes(
    b if b == ord(",") else ord("0") if b in b"-0123456789" else ord("x") for b in range(256)
)
# A count of at most 18 characters fits int64, so loadtxt never overflows
# (numpy < 2 reads an overflowing integer through a float, with only a warning).
_LONGEST_FIELD = 18


def _exact_rows(lines, days: int) -> tuple[list[RegionKey], np.ndarray] | None:
    """Keys and counts of the data ``lines`` (any iterable, each line with or
    without its newline) when there is at least one and every non-empty line
    is four CSV metadata fields and then ``days`` fields of ASCII
    ``-?[0-9]+`` text within +-MAX_COUNT, with no duplicate key; otherwise,
    a line that is not UTF-8 included, None, and the per-cell loop decides.

    The counts are read by one ``np.loadtxt`` call, which takes each line's
    count text as soon as that line passes the shape check, so no count text
    is kept once read.  The metadata fields go through ``csv`` as they would
    within the whole line: counts hold no quote, so the record must end, and
    a bare carriage return must not end it.
    """
    metas: list[str] = []

    def count_texts():
        # a line outside the shape raises ValueError, which loadtxt passes on
        for line in lines:
            line = line.removesuffix("\n").removesuffix("\r")
            if not line:
                continue
            # the metadata end at the comma before the last days - 1 commas
            k = line.count(",") - (days - 1)
            if k < 4 or "\r" in line:
                raise ValueError("not four metadata fields and the counts")
            tail = line.split(",", k)[-1]
            if not tail or not tail.isascii():  # loadtxt would skip an empty tail
                raise ValueError("no count text, or not ASCII")
            shape = tail.encode().translate(_COUNT_SHAPE)
            if b"x" in shape or b"0" * (_LONGEST_FIELD + 1) in shape:
                raise ValueError("a count outside the feed's shape")
            metas.append(line[: len(line) - len(tail) - 1])
            yield tail

    try:
        texts = count_texts()
        first = next(texts, None)
        if first is None:  # loadtxt warns on an empty input
            return None
        values = np.loadtxt(chain([first], texts), dtype=np.int64, delimiter=",", ndmin=2)
        records = list(csv.reader(metas, strict=True))
    except (ValueError, csv.Error, CsvFormatError):
        return None
    if len(records) != len(metas) or values.max() > MAX_COUNT or values.min() < -MAX_COUNT:
        return None
    keys: list[RegionKey] = []
    for record in records:
        if len(record) != 4:
            return None
        keys.append(RegionKey(country=record[1].strip(), province=record[0].strip() or None))
    if len(set(keys)) != len(keys):
        return None
    # to float64 in the same buffer, one row at a time: a 1-D copy between
    # equal addresses reads each count before it writes it, with no temporary
    for row in values:
        row.view(np.float64)[:] = row
    return keys, values.view(np.float64)


def _checked_rows(records, width: int) -> tuple[list[RegionKey], np.ndarray]:
    """Keys and counts of the data ``records``, converted cell by cell with
    ``int()``; the first fault raises, naming its row (and column)."""
    keys: list[RegionKey] = []
    rows: list[list[int]] = []
    seen: set[RegionKey] = set()
    for row_no, row in enumerate(records, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise CsvFormatError(f"row {row_no} has {len(row)} fields, header has {width}")
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
        if max(counts) > MAX_COUNT or min(counts) < -MAX_COUNT:
            col = next(c for c, n in enumerate(counts, start=5) if abs(n) > MAX_COUNT)
            raise CsvParseError(
                f"case count {row[col - 1]!r} out of range", row=row_no, column=col
            )
        keys.append(key)
        rows.append(counts)
    return keys, np.array(rows, dtype=np.float64).reshape(len(rows), width - 4)


def parse_cases_csv(data: bytes) -> Panel:
    """Parse the bytes of a wide-format cumulative case CSV, UTF-8 with or
    without a BOM, into a panel, one row per data row.

    Header dates may be M/D/YY (the upstream feed) or ISO YYYY-MM-DD
    (synthetic fixtures) and must be consecutive days.  Lat/Long are ignored.
    Raises CsvFormatError for undecodable bytes, malformed CSV or a bad
    header, CsvParseError (with coordinates) for a bad cell or a count past
    +-MAX_COUNT, and DuplicateKeyError when two rows key the same region:
    the first fault in file order.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    reader = csv.reader(_text_lines(data, start))
    records = _records(reader)
    try:
        header = next(records)
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
    dates = _header_dates(header[4:])

    # the data lines start after the header's reader.line_num lines
    for _ in range(reader.line_num):
        start = data.find(b"\n", start) + 1 or len(data)
    rows = _exact_rows(_text_lines(data, start), len(dates))
    if rows is None:
        rows = _checked_rows(records, len(header))
    keys, values = rows
    return Panel(keys=keys, start=dates[0], values=values)


def select_regions(panel: Panel, min_cumulative: int = DEFAULT_MIN_CUMULATIVE) -> Panel:
    """Keep the rows with at least ``min_cumulative`` cases on the panel's last day."""
    keep = panel.values[:, -1] >= min_cumulative
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
    """Return the inclusive [start, end] columns of the panel, with the window
    clamped to the panel's dates; a window that keeps no day raises
    ``InsufficientDataError``."""
    i = max((start - panel.start).days, 0)
    j = min((end - panel.start).days + 1, panel.days)
    if i >= j:
        raise InsufficientDataError(f"no region overlaps the requested range {start}..{end}")
    start = panel.start + timedelta(days=i)
    return Panel(keys=panel.keys, start=start, values=panel.values[:, i:j])


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # drop the empty last field and the line end


def write_rows(stream, line: str, *columns) -> None:
    """Write ``line % row`` for each row of the equal-length ``columns``
    (sequences or 1-D arrays), one ``%`` call per block of ROWS_PER_BLOCK rows.

    ``%.9g`` writes a float as ``netbuild.fmt9`` does.  Text such as a region
    name goes in through a column, never into ``line``.
    """
    for start in range(0, len(columns[0]), ROWS_PER_BLOCK):
        block = [column[start : start + ROWS_PER_BLOCK] for column in columns]
        block = [part.tolist() if isinstance(part, np.ndarray) else part for part in block]
        cells = tuple(chain.from_iterable(zip(*block)))
        stream.write((line * len(block[0])) % cells)


def write_long_csv(panel: Panel, stream) -> None:
    """Write the normalized long-format CSV ``region,date,cumulative``,
    turning each row's counts into integers as it writes that row."""
    stream.write("region,date,cumulative\n")
    days = [d.isoformat() for d in panel.dates]
    for key, row in zip(panel.keys, panel.values):
        names = [csv_field(key.display)] * len(days)
        write_rows(stream, "%s,%s,%d\n", names, days, row.astype(np.int64))
