"""Cumulative counts -> daily diffs -> 7-day average -> clipped change exponents.

The change exponent for day t is ln(a_t / a_{t-1}) where a is the trailing
7-day average of daily new cases, clipped to [-alpha, alpha].  Non-positive
averages (zero stretches, negative reporting corrections) are floored at
FLOOR_EPS before the log so every day stays defined; the clip bounds the
damage.  Every step works along the last (day) axis, so it takes one region's
row or a whole panel; a NaN in an input array propagates.

Warm-up bookkeeping: the first diff consumes 1 source day, the 7-day window
6 more, and the log-ratio 1 more, so the first exponent lands on source
index 8 and a series of length L yields L - 8 exponents.

``to_exponent_series`` is the one composition that every command runs;
``write_exponents_csv`` writes its exponents beside each region's diffs and
averages, made again one row at a time.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .ingest import Panel, csv_field, write_rows

DEFAULT_ALPHA = 7.0
FLOOR_EPS = 1e-9

WARMUP_DAYS = 8  # 1 (diff) + 6 (window) + 1 (log ratio)
# to_exponent_series works on blocks of rows of about this many bytes (38
# rows at 859 days), so its temporaries stay far below a panel's size
BLOCK_BYTES = 2**18


def daily_diffs(cumulative) -> np.ndarray:
    """First differences of the cumulative counts along the last axis.

    Negative values (reporting corrections) pass through unchanged.
    """
    counts = np.asarray(cumulative, dtype=float)
    if counts.shape[-1] < 2:
        raise InsufficientDataError("need >= 2 days for daily diffs")
    return np.diff(counts, axis=-1)


def moving_average_7(values) -> np.ndarray:
    """Trailing 7-day mean along the last axis: the current day and the six
    preceding days."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 7:
        raise InsufficientDataError(
            f"need >= 7 days for a 7-day average, got {values.shape[-1]}"
        )
    # add the seven days in order, starting from +0.0 as np.sum does (so a
    # window of -0.0 sums to +0.0); divide once: keeps constant inputs
    # exactly constant
    n = values.shape[-1] - 6
    total = 0.0 + values[..., :n]
    for k in range(1, 7):
        total += values[..., k : k + n]
    total /= 7.0
    return total


def to_exponent_series(panel: Panel, alpha: float = DEFAULT_ALPHA) -> Panel:
    """Full composition: diffs -> 7-day average -> clipped exponents, as a
    panel that starts WARMUP_DAYS after the input.  ``alpha`` may be
    infinite (no clipping).

    The one array it allocates at the panel's size is its result: it fills
    that a block of rows at a time, whose diffs and averages take about
    BLOCK_BYTES each, and takes each block's log-ratios in place there.
    """
    if panel.days < WARMUP_DAYS + 1:
        raise InsufficientDataError(f"need >= {WARMUP_DAYS + 1} days, got {panel.days}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    n, days = panel.values.shape
    exps = np.empty((n, days - WARMUP_DAYS))
    step = max(1, BLOCK_BYTES // (8 * days))
    for lo in range(0, n, step):
        floored = moving_average_7(daily_diffs(panel.values[lo : lo + step]))
        np.maximum(floored, FLOOR_EPS, out=floored)
        ratio = np.divide(floored[:, 1:], floored[:, :-1], out=exps[lo : lo + step])
        np.clip(np.log(ratio, out=ratio), -alpha, alpha, out=ratio)
    return Panel(keys=panel.keys, start=panel.start + timedelta(days=WARMUP_DAYS), values=exps)


def write_exponents_csv(cases: Panel, exps: Panel, stream) -> None:
    """Write ``region,date,diff,avg7,exponent,defined``, one line per region
    and exponent day, where ``exps`` is ``to_exponent_series(cases, alpha)``.

    Each region's diffs and 7-day averages are made again from its row of
    ``cases``: both work element by element along the day axis, so a row's
    equal the whole panel's bit for bit, and no panel of them is held.
    """
    stream.write("region,date,diff,avg7,exponent,defined\n")
    days = [d.isoformat() for d in exps.dates]
    for key, counts, e_row in zip(exps.keys, cases.values, exps.values):
        diffs = daily_diffs(counts)
        avgs = moving_average_7(diffs)
        # exponent day t is diff day t + WARMUP_DAYS - 1 and average day t + 1;
        # every exponent is defined, and the column stays for the file format
        names = [csv_field(key.display)] * len(days)
        write_rows(stream, "%s,%s,%.9g,%.9g,%.9g,1\n", names, days,
                   diffs[WARMUP_DAYS - 1 :], avgs[1:], e_row)
