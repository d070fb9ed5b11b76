"""Output checks computed apart from the program.

Nothing here calls epinet: the expected exponents, correlations, modularity
and medians are recomputed with numpy from the input CSV, and the partitions
are compared with the planted groups of the generator.
"""

from __future__ import annotations

import csv
import json
from datetime import date
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ALPHA = 7.0  # the CLI default, used by every workload
FLOOR = 1e-9
GRID_CELLS = 18
# Outputs carry 9 significant digits, so a written value sits within half a
# unit of the 9th digit of the exact one; the absolute term covers values
# near zero, where the recomputation's own rounding dominates.
REL_TOL = 1e-8
ABS_TOL = 1e-12


class CheckError(Exception):
    """An output of the program disagrees with the recomputed value."""


def read_cases(path: Path) -> tuple[list[str], list[date], np.ndarray]:
    """Parse the wide input CSV: region names, dates and cumulative counts."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        names, rows = [], []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            names.append(cells[1])
            rows.append([int(c) for c in cells[4:]])
    dates = []
    for cell in header[4:]:
        month, day, year = (int(x) for x in cell.split("/"))
        dates.append(date(2000 + year, month, day))
    return names, dates, np.array(rows, dtype=np.int64)


def exponents(cumulative: np.ndarray, alpha: float = ALPHA) -> np.ndarray:
    """Clipped change exponents, one row per region, one column per day from
    the 9th input day on."""
    diffs = np.diff(cumulative.astype(float), axis=1)
    avg7 = sliding_window_view(diffs, 7, axis=1).sum(axis=2) / 7.0
    floored = np.maximum(avg7, FLOOR)
    return np.clip(np.log(floored[:, 1:] / floored[:, :-1]), -alpha, alpha)


def _close(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= REL_TOL * np.abs(want) + ABS_TOL


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _require_planted(labels: dict[str, str], groups: dict[str, int], what: str) -> None:
    """``labels`` gives every region and the labels match the groups one to one."""
    _require(set(labels) == set(groups),
             f"{what}: {len(labels)} regions labelled, {len(groups)} expected")
    pairs = {(labels[r], groups[r]) for r in groups}
    n_groups = len(set(groups.values()))
    _require(len(pairs) == n_groups and len({lab for lab, _ in pairs}) == n_groups,
             f"{what}: labels do not match the planted groups")


class Expected:
    """What one input should produce, computed once per run."""

    def __init__(self, csv_path: Path, groups: np.ndarray):
        self.names, self.dates, self.cumulative = read_cases(csv_path)
        self.groups = dict(zip(self.names, groups.tolist()))
        self.exponents = exponents(self.cumulative)
        self.exponent_dates = self.dates[8:]

    def check(self, command: str, out: Path) -> None:
        {"pipeline": self.check_pipeline, "grid": self.check_grid}[command](out)

    def check_pipeline(self, out: Path) -> None:
        index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        corr = np.corrcoef(self.exponents)

        weights = np.full((n, n), np.nan)
        _, rows = _read_csv(out / "edges.csv")
        for a, b, w in rows:
            weights[index[a], index[b]] = weights[index[b], index[a]] = float(w)
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        listed = upper & ~np.isnan(weights)
        # rho = 0: a pair within the band at rho may fall either side
        band = np.abs(corr) <= 1e-9
        _require(not np.any(upper & (corr > 0) & ~band & ~listed),
                 "edges.csv misses a pair correlated above rho")
        _require(not np.any(listed & (corr <= 0) & ~band),
                 "edges.csv lists a pair correlated at or below rho")
        _require(bool(np.all(_close(weights[listed], corr[listed]))),
                 "edges.csv weights differ from np.corrcoef")

        _, rows = _read_csv(out / "partition.csv")
        community = {region: int(label) for region, label in rows}
        _require_planted(community, self.groups, "partition.csv")

        # modularity of the written partition on the written weights
        w = np.nan_to_num(weights)
        labels = np.array([community[name] for name in self.names])
        two_m = w.sum()
        q = 0.0
        for c in np.unique(labels):
            member = labels == c
            q += w[np.ix_(member, member)].sum() / two_m - (w[member].sum() / two_m) ** 2
        summary = json.loads((out / "summary.json").read_text())
        _require(abs(summary["partition"]["modularity"] - q) <= 1e-7,
                 f"summary.json modularity {summary['partition']['modularity']} != {q}")

        header, rows = _read_csv(out / "medians.csv")
        _require(header == ["date", "c1", "c2", "c3"], f"medians.csv header {header}")
        _require([r[0] for r in rows] == [d.isoformat() for d in self.exponent_dates],
                 "medians.csv dates differ from the exponent dates")
        got = np.array([[float(x) for x in r[1:]] for r in rows])
        want = np.stack(
            [np.nanmedian(self.exponents[labels == c], axis=0) for c in range(3)], axis=1
        )
        _require(bool(np.all(_close(got, want))), "medians.csv differs from the member medians")

        _, rows = _read_csv(out / "trajectory.csv")
        points = np.array([[float(x) for x in r[1:]] for r in rows])
        _, rows = _read_csv(out / "smoothed.csv")
        smoothed = np.array([[float(x) for x in r] for r in rows])
        _require(bool(np.all(_close(points, got))), "trajectory.csv differs from medians.csv")
        # a clamped B-spline starts and ends on its end control points and
        # stays inside the control points' convex hull, hence their box
        _require(bool(np.all(_close(smoothed[[0, -1]], points[[0, -1]]))),
                 "smoothed.csv does not start and end on the trajectory's end points")
        slack = REL_TOL * np.abs(points).max() + ABS_TOL
        _require(bool(np.all(smoothed >= points.min(axis=0) - slack)
                      and np.all(smoothed <= points.max(axis=0) + slack)),
                 "smoothed.csv leaves the trajectory's bounding box")

    def check_grid(self, out: Path) -> None:
        errors = json.loads((out / "grid_errors.json").read_text())
        _require(errors == {}, f"grid_errors.json is not empty: {errors}")
        header, rows = _read_csv(out / "membership_matrix.csv")
        _require(len(header) == 1 + GRID_CELLS, f"membership_matrix.csv has {len(header)} columns")
        for col, label in enumerate(header[1:], start=1):
            _require_planted({r[0]: r[col] for r in rows}, self.groups, label)
