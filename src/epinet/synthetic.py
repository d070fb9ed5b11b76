"""Synthetic planted-partition case data for benchmarks and tests.

Each group shares a latent daily-change-exponent waveform; each region adds
independent noise.  Case counts are reconstructed by exponentiating the
cumulative sum of the target exponents, so running the forward pipeline
recovers (a smoothed version of) the planted signals and the group structure
dominates the correlation network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import ParameterError
from .ingest import MAX_COUNT, RegionKey

DEFAULT_DAYS = 220
DEFAULT_START = date(2021, 1, 1)


@dataclass
class CaseSeries:
    """One planted region's dated cumulative counts (daily cadence)."""

    key: RegionKey
    dates: list[date]
    cumulative: list[int]


def make_planted_cases(
    n_groups: int = 3,
    per_group: int = 10,
    days: int = DEFAULT_DAYS,
    seed: int = 12345,
    noise_sd: float = 0.05,
    start: date = DEFAULT_START,
) -> tuple[list[CaseSeries], dict[RegionKey, int]]:
    """Build synthetic cumulative case series with a planted group structure.

    Returns (series, labels) where labels maps each region key to its group.
    The latent signals are sinusoids with group-specific periods and phases
    (amplitude 0.4, so clipping at alpha >= 5 never bites); noise_sd = 0.05
    keeps the signal-to-noise ratio above 5.  A draw with a daily count
    above MAX_COUNT / days raises ParameterError before any count is cast.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(days, dtype=float)
    periods = [28.0 + 13.0 * g for g in range(n_groups)]
    phases = [1.7 * g for g in range(n_groups)]
    latents = [
        0.4 * np.sin(2.0 * math.pi * t / p + ph) for p, ph in zip(periods, phases)
    ]

    dates = [start + timedelta(days=i) for i in range(days)]
    series: list[CaseSeries] = []
    labels: dict[RegionKey, int] = {}
    log_base = math.log(1e6)
    for g in range(n_groups):
        for r in range(per_group):
            exps = latents[g] + rng.normal(0.0, noise_sd, size=days)
            exps[0] = 0.0
            log_new = log_base + np.cumsum(exps)
            if log_new.max() > math.log(MAX_COUNT / days):  # before exp can overflow
                raise ParameterError(
                    f"noise_sd={noise_sd} drew a daily count above {MAX_COUNT // days}, "
                    f"so {days} days of counts could pass {MAX_COUNT}"
                )
            new_cases = np.rint(np.exp(log_new)).astype(np.int64)
            cumulative = np.cumsum(new_cases)
            key = RegionKey(country=f"Group{g + 1} Region{r + 1:02d}")
            series.append(
                CaseSeries(key=key, dates=list(dates), cumulative=cumulative.tolist())
            )
            labels[key] = g
    return series, labels
