"""Robustness grid, label alignment, community median curves, peak detection
and the B-spline phase-space trajectory.

Curves throughout this module are float arrays over one list of dates, with
NaN marking undefined days.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from datetime import date
from itertools import product

import numpy as np

from .errors import (
    AlignmentError,
    EpinetError,
    InsufficientDataError,
    ParameterError,
)
from .ingest import Panel, RegionKey
from .netbuild import (
    BuildSettings,
    CorrelationNetwork,
    SimilarityMeasure,
    build_network,
    fmt9,
)
from .community import Partition, louvain
from .transform import to_exponent_series

DEFAULT_RHO_VALUES = (0.0, 0.05, 0.1)
DEFAULT_ALPHA_VALUES = (5.0, 7.0, 9.0)
DEFAULT_MEASURES = (SimilarityMeasure.PEARSON, SimilarityMeasure.COSINE)


@dataclass
class GridSettings:
    rho_values: tuple = DEFAULT_RHO_VALUES
    alpha_values: tuple = DEFAULT_ALPHA_VALUES
    measures: tuple = DEFAULT_MEASURES
    seed: int = 0

    def cells(self) -> list[BuildSettings]:
        # rho outermost, measure innermost: the (rho=0, alpha=7, pearson)
        # reference lands in the third default position
        return [
            BuildSettings(rho=r, alpha=a, measure=SimilarityMeasure(m))
            for r, a, m in product(self.rho_values, self.alpha_values, self.measures)
        ]


@dataclass
class GridCell:
    settings: BuildSettings
    network: CorrelationNetwork | None = None
    partition: Partition | None = None
    error: str | None = None


@dataclass
class MembershipMatrix:
    """Regions x settings table of aligned community labels (1-based);
    None marks a region absent from that run's network."""

    rows: list[RegionKey]
    columns: list[str]
    cells: list[list[int | None]]


@dataclass
class PhaseTrajectory:
    dates: list[date]
    points: np.ndarray  # (n, 3) raw community-median coordinates
    smoothed: np.ndarray  # (m, 3) sampled B-spline curve


def median_curve(exps: Panel, members: set[RegionKey]) -> np.ndarray:
    """Per-day median of the defined member exponents, on the panel's axis.

    NaN where no member is defined that day.  Even member counts take the
    mean of the two central values.
    """
    if not members:
        raise ParameterError("member set is empty")
    rows = np.array([k in members for k in exps.keys], dtype=bool)
    if not rows.any():
        raise ParameterError("no series matches the member set")
    with warnings.catch_warnings():
        # all-NaN days are a legitimate "undefined" result, not a warning
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmedian(exps.values[rows], axis=0)


def detect_peaks(dates: list[date], values: np.ndarray) -> list[date]:
    """Dates where the curve turns from positive to non-positive
    (growth switching to decline), over consecutive defined days."""
    values = np.asarray(values, dtype=float)
    out = []
    for t in range(1, len(values)):
        a, b = values[t - 1], values[t]
        if np.isnan(a) or np.isnan(b):
            continue
        if a > 0 and b <= 0:
            out.append(dates[t])
    return out


def run_cell(
    cases: Panel,
    settings: BuildSettings,
    seed: int = 0,
) -> GridCell:
    """One pipeline run: transform -> network -> community detection."""
    cell = GridCell(settings=settings)
    try:
        exps = to_exponent_series(cases, alpha=settings.alpha)
        cell.network = build_network(
            exps, rho=settings.rho, measure=settings.measure, alpha=settings.alpha
        )
        cell.partition = louvain(cell.network, seed=seed)
    except EpinetError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_grid(cases: Panel, grid: GridSettings) -> list[GridCell]:
    """Run every setting combination in grid order; per-cell failures are
    recorded, not raised."""
    return [run_cell(cases, s, seed=grid.seed) for s in grid.cells()]


def reference_settings(grid: GridSettings | None = None) -> BuildSettings:
    return BuildSettings(rho=0.0, alpha=7.0, measure=SimilarityMeasure.PEARSON)


def _community_key_sets(cell: GridCell) -> list[set[RegionKey]]:
    out = [set() for _ in range(cell.partition.num_communities)]
    for idx, lab in cell.partition.assignment.items():
        out[lab].add(cell.network.nodes[idx])
    return out


def align_labels(
    results: list[GridCell],
    reference: BuildSettings,
) -> MembershipMatrix:
    """Map every run's communities onto the reference run's labels 1..k.

    Greedy maximal-Jaccard matching; each reference label is used at most
    once per run, leftover communities get fresh labels k+1, k+2, ...
    """
    ref_cell = next((c for c in results if c.settings == reference), None)
    if ref_cell is None:
        raise AlignmentError(f"reference settings {reference} not present in results")
    if ref_cell.error is not None or ref_cell.partition is None:
        raise AlignmentError(f"reference cell failed: {ref_cell.error}")

    ref_comms = _community_key_sets(ref_cell)  # label i -> aligned label i+1
    k = len(ref_comms)

    all_regions = sorted(
        {key for c in results if c.network is not None for key in c.network.nodes},
        key=lambda key: key.display,
    )
    row_index = {key: r for r, key in enumerate(all_regions)}
    columns = [c.settings.label() for c in results]
    cells: list[list[int | None]] = [[None] * len(results) for _ in all_regions]

    for col, cell in enumerate(results):
        if cell.partition is None:
            continue
        run_comms = _community_key_sets(cell)
        pairs = []
        for ri, rset in enumerate(ref_comms):
            for ci, cset in enumerate(run_comms):
                inter = len(rset & cset)
                union = len(rset | cset)
                if union:
                    pairs.append((inter / union, ri, ci))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
        mapping: dict[int, int] = {}
        used_ref: set[int] = set()
        for jac, ri, ci in pairs:
            if jac <= 0 or ci in mapping or ri in used_ref:
                continue
            mapping[ci] = ri + 1
            used_ref.add(ri)
        fresh = k + 1
        for ci in range(len(run_comms)):
            if ci not in mapping:
                mapping[ci] = fresh
                fresh += 1
        for idx, lab in cell.partition.assignment.items():
            cells[row_index[cell.network.nodes[idx]]][col] = mapping[lab]

    return MembershipMatrix(rows=all_regions, columns=columns, cells=cells)


def order_rows(matrix: MembershipMatrix) -> MembershipMatrix:
    """Deterministic row order: majority aligned label, then the full label
    tuple, then region display name."""

    def row_key(r: int):
        labels = [lab for lab in matrix.cells[r] if lab is not None]
        if labels:
            counts: dict[int, int] = {}
            for lab in labels:
                counts[lab] = counts.get(lab, 0) + 1
            majority = min(sorted(counts), key=lambda lab: (-counts[lab], lab))
        else:
            majority = float("inf")
        tup = tuple(lab if lab is not None else float("inf") for lab in matrix.cells[r])
        return (majority, tup, matrix.rows[r].display)

    order = sorted(range(len(matrix.rows)), key=row_key)
    return MembershipMatrix(
        rows=[matrix.rows[r] for r in order],
        columns=list(matrix.columns),
        cells=[matrix.cells[r] for r in order],
    )


def build_trajectory(
    dates: list[date], median1, median2, median3, samples_per_segment: int = 10
) -> PhaseTrajectory:
    """Raw 3D points on the dates where all three community medians (curves
    over ``dates``) are defined, plus the smoothed B-spline sample curve."""
    points = np.column_stack([median1, median2, median3]).astype(float)
    common = ~np.isnan(points).any(axis=1)
    if not common.any():
        raise InsufficientDataError("no date has all three community medians defined")
    points = points[common]
    smoothed = bspline_smooth(points, samples_per_segment=samples_per_segment)
    return PhaseTrajectory(
        dates=[d for d, ok in zip(dates, common) if ok], points=points, smoothed=smoothed
    )


def _deboor(span: int, x: float, knots: np.ndarray, ctrl: np.ndarray, degree: int):
    d = [ctrl[j + span - degree].copy() for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            lo = knots[j + span - degree]
            hi = knots[j + 1 + span - r]
            alpha = 0.0 if hi == lo else (x - lo) / (hi - lo)
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[degree]


def bspline_smooth(points, samples_per_segment: int = 10) -> np.ndarray:
    """Clamped uniform cubic B-spline through the control polygon.

    The input points are the control points (the curve approximates the
    interior ones); the first and last output samples equal the first and
    last inputs exactly.  Degree drops to n-1 when fewer than 4 points.
    """
    ctrl = np.asarray(points, dtype=float)
    n = len(ctrl)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 points to smooth, got {n}")
    if samples_per_segment < 1:
        raise ParameterError("samples_per_segment must be positive")
    degree = min(3, n - 1)
    n_spans = n - degree
    knots = np.concatenate(
        [np.zeros(degree + 1), np.arange(1, n_spans), np.full(degree + 1, n_spans)]
    ).astype(float)
    total = n_spans * samples_per_segment
    out = np.empty((total + 1, ctrl.shape[1]))
    for s in range(total + 1):
        x = n_spans * s / total
        # knot span index: largest j with knots[j] <= x, capped at n-1
        span = int(np.searchsorted(knots, x, side="right") - 1)
        span = min(max(span, degree), n - 1)
        out[s] = _deboor(span, x, knots, ctrl, degree)
    return out


# ---------------------------------------------------------------------------
# CSV writers


def write_membership_csv(matrix: MembershipMatrix, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["region"] + list(matrix.columns))
    for key, row in zip(matrix.rows, matrix.cells):
        writer.writerow([key.display] + ["" if lab is None else lab for lab in row])


def write_medians_csv(dates: list[date], medians: list, stream) -> None:
    """``date,c1,c2,c3`` -- one row per date; medians are curves over ``dates``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["date"] + [f"c{i + 1}" for i in range(len(medians))])
    for t, d in enumerate(dates):
        writer.writerow(
            [d.isoformat()] + ["" if np.isnan(m[t]) else fmt9(m[t]) for m in medians]
        )


def write_trajectory_csv(traj: PhaseTrajectory, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["date", "x", "y", "z"])
    for d, (x, y, z) in zip(traj.dates, traj.points):
        writer.writerow([d.isoformat(), fmt9(x), fmt9(y), fmt9(z)])


def write_smoothed_csv(traj: PhaseTrajectory, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    for x, y, z in traj.smoothed:
        writer.writerow([fmt9(x), fmt9(y), fmt9(z)])


def write_peaks_csv(peaks_by_community: dict[int, list[date]], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["community", "date"])
    for community in sorted(peaks_by_community):
        for d in peaks_by_community[community]:
            writer.writerow([community, d.isoformat()])
