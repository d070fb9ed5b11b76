"""Cumulative counts -> daily diffs -> 7-day average -> clipped change exponents.

The change exponent for day t is ln(a_t / a_{t-1}) where a is the trailing
7-day average of daily new cases, clipped to [-alpha, alpha].  Non-positive
averages (zero stretches, negative reporting corrections) are floored at a
small epsilon before the log so every day stays defined; the clip bounds the
damage.  Every step works along the last (day) axis, so it takes one region's
row or a whole panel; NaN marks a missing day and propagates.

Warm-up bookkeeping: the first diff consumes 1 source day, the 7-day window
6 more, and the log-ratio 1 more, so the first exponent lands on source
index 8 and a series of length L yields L - 8 exponents.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ParameterError
from .ingest import Panel

DEFAULT_ALPHA = 7.0
DEFAULT_FLOOR_EPS = 1e-9

WARMUP_DAYS = 8  # 1 (diff) + 6 (window) + 1 (log ratio)


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
    # sum first, divide once: keeps constant inputs exactly constant
    return sliding_window_view(values, 7, axis=-1).sum(axis=-1) / 7.0


def change_exponents(
    avgs,
    alpha: float = DEFAULT_ALPHA,
    floor_eps: float = DEFAULT_FLOOR_EPS,
) -> np.ndarray:
    """Clipped log-ratios of consecutive 7-day averages along the last axis.

    NaN inputs mark missing days; a log-ratio is NaN (undefined) unless both
    neighbors are present.  ``alpha`` may be infinite (no clipping).
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not floor_eps > 0:
        raise ParameterError(f"floor_eps must be positive, got {floor_eps}")
    floored = np.maximum(np.asarray(avgs, dtype=float), floor_eps)
    return np.clip(np.log(floored[..., 1:] / floored[..., :-1]), -alpha, alpha)


def to_exponent_series(
    panel: Panel,
    alpha: float = DEFAULT_ALPHA,
    floor_eps: float = DEFAULT_FLOOR_EPS,
) -> Panel:
    """Full composition: diffs -> 7-day average -> clipped exponents, as a
    panel that starts WARMUP_DAYS after the input."""
    if panel.days < WARMUP_DAYS + 1:
        raise InsufficientDataError(
            f"need >= {WARMUP_DAYS + 1} days, got {panel.days}"
        )
    avgs = moving_average_7(daily_diffs(panel.values))
    return Panel(
        keys=panel.keys,
        start=panel.start + timedelta(days=WARMUP_DAYS),
        values=change_exponents(avgs, alpha=alpha, floor_eps=floor_eps),
    )
