"""Robustness grid, label alignment, community median curves, peak detection
and the B-spline phase-space trajectory.

Curves throughout this module are float arrays over one list of dates.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass, field
from datetime import date
from itertools import product

import numpy as np

from .errors import (
    EpinetError,
    InsufficientDataError,
    InsufficientStructureError,
    ParameterError,
)
from .ingest import Panel, RegionKey, csv_field, write_rows
from .netbuild import CorrelationNetwork, SimilarityMeasure, build_network
from .community import Partition, louvain
from .transform import clip_exponents, to_exponent_series

RHO_VALUES = (0.0, 0.05, 0.1)
ALPHA_VALUES = (5.0, 7.0, 9.0)
MEASURES = (SimilarityMeasure.PEARSON, SimilarityMeasure.COSINE)
SAMPLES_PER_SEGMENT = 10  # B-spline samples per knot span


@dataclass(frozen=True)
class BuildSettings:
    """One (rho, alpha, measure): a grid cell's, or a pipeline run's."""

    rho: float
    alpha: float
    measure: SimilarityMeasure

    def label(self) -> str:
        return f"rho{_num(self.rho)}_a{_num(self.alpha)}_{self.measure.value}"


def _num(x: float) -> str:
    return format(x, "g").replace(".", "p").replace("-", "m")


# The robustness grid, rho outermost and measure innermost, and the cell whose
# labels every cell is aligned to: (rho 0, alpha 7, pearson), the third.
GRID = tuple(BuildSettings(r, a, m) for r, a, m in product(RHO_VALUES, ALPHA_VALUES, MEASURES))
REFERENCE = GRID[2]


@dataclass
class GridCell:
    """One grid run: the nodes of its network once built, and the partition
    of those nodes once found, or the error that stopped it."""

    settings: BuildSettings
    nodes: list[RegionKey] | None = None
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
    """Per-day median of the member exponents, on the panel's axis.

    Even member counts take the mean of the two central values.  Bit-equal
    to ``np.nanmedian`` over the member rows, signed zeros included.
    """
    if not members:
        raise ParameterError("member set is empty")
    rows = np.array([k in members for k in exps.keys], dtype=bool)
    if not rows.any():
        raise ParameterError("no series matches the member set")
    ranked = np.sort(exps.values[rows], axis=0)
    lo = ranked[(len(ranked) - 1) // 2]
    hi = ranked[len(ranked) // 2]
    # nanmedian's mean starts from +0.0, which turns a median of -0.0s into +0.0
    with np.errstate(invalid="ignore", over="ignore"):  # -inf + inf, max + max
        return (0.0 + lo + hi) / 2.0


def detect_peaks(dates: list[date], values: np.ndarray) -> list[date]:
    """Dates where the curve turns from positive to non-positive
    (growth switching to decline), over consecutive defined days."""
    values = np.asarray(values, dtype=float)
    # NaN compares false both ways, so a day next to an undefined one is no peak.
    turns = (values[:-1] > 0) & (values[1:] <= 0)
    return [dates[t] for t in np.flatnonzero(turns) + 1]


def _error(exc: EpinetError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _partition(cell: GridCell, net: CorrelationNetwork, seed: int) -> None:
    """Record the network's nodes in ``cell``, then its Louvain partition."""
    cell.nodes = net.nodes
    cell.partition = louvain(net, seed=seed)


def run_cell(
    cases: Panel,
    settings: BuildSettings,
    seed: int = 0,
) -> GridCell:
    """One pipeline run: transform -> network -> community detection."""
    cell = GridCell(settings=settings)
    try:
        exps = to_exponent_series(cases, alpha=settings.alpha)
        net = build_network(exps, rho=settings.rho, measure=settings.measure)
        _partition(cell, net, seed)
    except EpinetError as exc:
        cell.error = _error(exc)
    return cell


def run_grid(cases: Panel, seed: int = 0) -> list[GridCell]:
    """Run every cell of GRID at ``seed``; per-cell failures are recorded,
    not raised, and the cells come back in GRID order.

    Each cell equals ``run_cell`` on its settings, error strings included,
    but the transform runs once, unclipped, and the network is built once
    per (alpha, measure), at the smallest rho of the grid, from the clip of
    that transform to alpha; every rho cell takes the edges of that network
    above its own rho.  The cells run grouped by (alpha, measure), so one
    such network is alive at a time in each process (``_run_shares``).
    Once the transform has run, this function holds no reference to ``cases``.
    """
    cells = [GridCell(settings=s) for s in GRID]
    try:
        unclipped = to_exponent_series(cases, alpha=math.inf)
    except EpinetError as exc:
        for cell in cells:
            cell.error = _error(exc)
        return cells
    del cases  # frees the panel here if the caller holds no reference to it
    groups = [[c for c in cells if (c.settings.alpha, c.settings.measure) == key]
              for key in product(ALPHA_VALUES, MEASURES)]
    _run_shares(unclipped, groups, seed)
    return cells


def _grid_processes() -> int:
    """One per CPU this process may use, at most one per group; 1 off Linux."""
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    return min(len(ALPHA_VALUES) * len(MEASURES), cpus)


def _run_shares(unclipped: Panel, groups: list[list[GridCell]], seed: int) -> None:
    """Run ``groups`` in ``_grid_processes()`` contiguous shares: the first
    here, each other in a forked child that pipes back each cell's error,
    partition and node rows in ``unclipped``, or here if that child fails.
    On any exception the children left are killed: none outlives this call."""
    p = _grid_processes()
    shares = [groups[s * len(groups) // p:(s + 1) * len(groups) // p] for s in range(p)]
    children = []  # (pid, None once reaped or if the fork failed; read end of its pipe; share)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory
                pid = None
            if pid == 0:  # exits 0 once its cells are sent, 1 on any exception
                try:
                    for group in share:
                        _run_group(unclipped, group, seed)
                    row_of = {id(key): r for r, key in enumerate(unclipped.keys)}
                    sent = [(c.error, c.partition, c.nodes and [row_of[id(k)] for k in c.nodes])
                            for c in sum(share, [])]
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(sent, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)  # never returns, nor flushes the parent's stdio buffers
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        for group in shares[0]:
            _run_group(unclipped, group, seed)
        for k, (pid, pipe, share) in enumerate(children):
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1] if pid else 1
            children[k] = (None, pipe, share)  # reaped
            if status != 0:  # a child that exits 0 has sent all of its cells
                for group in share:
                    _run_group(unclipped, group, seed)
                continue
            for cell, (error, partition, rows) in zip(sum(share, []), pickle.loads(payload)):
                cell.error, cell.partition = error, partition
                cell.nodes = None if rows is None else [unclipped.keys[r] for r in rows]
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            if pid:
                os.kill(pid, 9)  # SIGKILL; the CLI does not load the signal module
                os.waitpid(pid, 0)


def _run_group(unclipped: Panel, group: list[GridCell], seed: int) -> None:
    """Fill the cells of one (alpha, measure) from one network built at the
    smallest rho; the clipped panel is freed before Louvain runs, and the
    network when this returns."""
    alpha, measure = group[0].settings.alpha, group[0].settings.measure
    try:
        base = build_network(clip_exponents(unclipped, alpha), rho=min(RHO_VALUES), measure=measure)
    except EpinetError as exc:
        for cell in group:
            cell.error = _error(exc)
        return
    for cell in group:
        try:
            _partition(cell, base.above(cell.settings.rho), seed)
        except EpinetError as exc:
            cell.error = _error(exc)


def _rows_and_labels(cell: GridCell, row_of: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The matrix row and the community label of each node of the cell's
    partition; ``row_of`` maps the ``id`` of a region key to its row."""
    assignment = cell.partition.assignment
    rows = [row_of[id(cell.nodes[i])] for i in assignment]
    return np.array(rows, dtype=np.intp), np.fromiter(assignment.values(), np.intp, len(rows))


def align_labels(results: list[GridCell]) -> MembershipMatrix:
    """Map every run's communities onto the labels 1..k of the REFERENCE
    cell's run; without a partition of that cell, raise
    InsufficientStructureError.

    Greedy maximal-Jaccard matching; each reference label is used at most
    once per run, leftover communities get fresh labels k+1, k+2, ...
    """
    ref_cell = next((c for c in results if c.settings == REFERENCE), GridCell(REFERENCE))
    if ref_cell.partition is None:
        raise InsufficientStructureError(f"reference grid cell failed: {ref_cell.error}")

    # Cells of one grid share their key objects: hash each object once, then
    # work on matrix rows.
    key_of = {id(key): key for c in results if c.nodes is not None for key in c.nodes}
    all_regions = sorted(dict.fromkeys(key_of.values()), key=lambda key: key.display)
    row_index = {key: r for r, key in enumerate(all_regions)}
    row_of = {i: row_index[key] for i, key in key_of.items()}
    columns = [c.settings.label() for c in results]
    cells: list[list[int | None]] = [[None] * len(results) for _ in all_regions]

    k = ref_cell.partition.num_communities  # reference label i -> aligned label i+1
    ref_label = np.full(len(all_regions), -1, dtype=np.intp)
    rows, labels = _rows_and_labels(ref_cell, row_of)
    ref_label[rows] = labels
    ref_sizes = np.bincount(labels, minlength=k)

    for col, cell in enumerate(results):
        if cell.partition is None:
            continue
        rows, labels = _rows_and_labels(cell, row_of)
        kc = cell.partition.num_communities
        sizes = np.bincount(labels, minlength=kc)
        both = ref_label[rows] >= 0
        inter = np.bincount(
            ref_label[rows[both]] * kc + labels[both], minlength=k * kc
        ).reshape(k, kc)
        pairs = []
        for ri in range(k):
            for ci in range(kc):
                common = int(inter[ri, ci])
                union = int(ref_sizes[ri]) + int(sizes[ci]) - common
                if union:
                    pairs.append((common / union, ri, ci))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
        mapping: dict[int, int] = {}
        used_ref: set[int] = set()
        for jac, ri, ci in pairs:
            if jac <= 0 or ci in mapping or ri in used_ref:
                continue
            mapping[ci] = ri + 1
            used_ref.add(ri)
        fresh = k + 1
        for ci in range(kc):
            if ci not in mapping:
                mapping[ci] = fresh
                fresh += 1
        for row, lab in zip(rows.tolist(), labels.tolist()):
            cells[row][col] = mapping[lab]

    return MembershipMatrix(rows=all_regions, columns=columns, cells=cells)


def order_rows(matrix: MembershipMatrix) -> MembershipMatrix:
    """Deterministic row order: majority aligned label, then the full label
    tuple, then region display name.  The majority is the most frequent label
    of a row, the smallest on a tie; a missing label sorts after every label."""
    n = len(matrix.rows)
    labels = np.array(
        [[math.inf if lab is None else lab for lab in row] for row in matrix.cells], dtype=float
    ).reshape(n, len(matrix.columns))
    present = labels != math.inf
    values, codes = np.unique(labels[present], return_inverse=True)
    rows = np.nonzero(present)[0]
    counts = np.bincount(rows * len(values) + codes, minlength=n * len(values))
    counts = counts.reshape(n, len(values))
    majority = np.full(n, math.inf)
    labelled = present.any(axis=1)
    if labelled.any():
        majority[labelled] = values[counts[labelled].argmax(axis=1)]
    by_name = sorted(range(n), key=lambda r: matrix.rows[r].display)
    name_rank = np.empty(n, dtype=np.intp)
    name_rank[by_name] = np.arange(n)
    order = np.lexsort([name_rank, *labels.T[::-1], majority]).tolist()
    return MembershipMatrix(
        rows=[matrix.rows[r] for r in order],
        columns=list(matrix.columns),
        cells=[matrix.cells[r] for r in order],
    )


def build_trajectory(dates: list[date], median1, median2, median3) -> PhaseTrajectory:
    """Raw 3D points of the three community medians (curves over ``dates``),
    plus the smoothed B-spline sample curve."""
    points = np.column_stack([median1, median2, median3]).astype(float)
    return PhaseTrajectory(dates=list(dates), points=points, smoothed=bspline_smooth(points))


def bspline_smooth(points) -> np.ndarray:
    """Clamped uniform cubic B-spline through the control polygon, sampled
    SAMPLES_PER_SEGMENT times per knot span.

    The input points are the control points (the curve approximates the
    interior ones); the first and last output samples equal the first and
    last inputs exactly.  Degree drops to n-1 when fewer than 4 points.
    """
    ctrl = np.asarray(points, dtype=float)
    n = len(ctrl)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 points to smooth, got {n}")
    degree = min(3, n - 1)
    n_spans = n - degree
    knots = np.concatenate(
        [np.zeros(degree + 1), np.arange(1, n_spans), np.full(degree + 1, n_spans)]
    ).astype(float)
    total = n_spans * SAMPLES_PER_SEGMENT
    x = n_spans * np.arange(total + 1) / total
    # knot span index: largest j with knots[j] <= x, within [degree, n-1]
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, degree, n - 1)
    # de Boor's recursion, on every sample at once: d[:, j] is the j-th point
    d = ctrl[span[:, None] - degree + np.arange(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            lo = knots[j + span - degree]
            hi = knots[j + 1 + span - r]
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.where(hi == lo, 0.0, (x - lo) / (hi - lo))[:, None]
            d[:, j] = (1.0 - alpha) * d[:, j - 1] + alpha * d[:, j]
    return d[:, degree]


# ---------------------------------------------------------------------------
# CSV writers


def write_membership_csv(matrix: MembershipMatrix, stream) -> None:
    stream.write(",".join(map(csv_field, ["region", *matrix.columns])) + "\n")
    names = [csv_field(key.display) for key in matrix.rows]
    labels = [["" if lab is None else lab for lab in column] for column in zip(*matrix.cells)]
    write_rows(stream, "%s" + ",%s" * len(matrix.columns) + "\n", names, *labels)


def write_medians_csv(dates: list[date], medians: list, stream) -> None:
    """``date,c1,c2,c3`` -- one row per date; medians are curves over ``dates``."""
    stream.write("date" + "".join(f",c{i + 1}" for i in range(len(medians))) + "\n")
    line = "%s" + ",%.9g" * len(medians) + "\n"
    write_rows(stream, line, [d.isoformat() for d in dates], *medians)


def write_trajectory_csv(traj: PhaseTrajectory, stream) -> None:
    stream.write("date,x,y,z\n")
    write_rows(stream, "%s,%.9g,%.9g,%.9g\n", [d.isoformat() for d in traj.dates], *traj.points.T)


def write_smoothed_csv(traj: PhaseTrajectory, stream) -> None:
    stream.write("x,y,z\n")
    write_rows(stream, "%.9g,%.9g,%.9g\n", *traj.smoothed.T)


def write_peaks_csv(peaks_by_community: dict[int, list[date]], stream) -> None:
    stream.write("community,date\n")
    labels = sorted(peaks_by_community)
    communities = [c for c in labels for _ in peaks_by_community[c]]
    dates = [d.isoformat() for c in labels for d in peaks_by_community[c]]
    write_rows(stream, "%d,%s\n", communities, dates)
