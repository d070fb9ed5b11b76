"""Robustness grid, label alignment, community median curves, peak detection
and the B-spline phase-space trajectory.

Curves throughout this module are float arrays over one list of dates.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass
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
from . import netbuild
from .netbuild import SimilarityMeasure, build_network
from .community import Partition, louvain
from .transform import to_exponent_series

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
    """One grid run: the panel key list and the node rows of its network once
    built, and the partition of those nodes once found, or the error that
    stopped it."""

    settings: BuildSettings
    keys: list[RegionKey] | None = None
    rows: np.ndarray | None = None  # intp panel rows, ascending
    partition: Partition | None = None
    error: str | None = None


@dataclass
class MembershipMatrix:
    """Regions x settings table of aligned community labels (1-based); 0
    marks a region absent from that run's network.  Row ``i`` of ``labels``
    is region ``keys[rows[i]]``."""

    keys: list[RegionKey]
    rows: np.ndarray  # intp panel rows
    columns: list[str]
    labels: np.ndarray  # intp, (len(rows), len(columns))


@dataclass
class PhaseTrajectory:
    dates: list[date]
    points: np.ndarray  # (n, 3) raw community-median coordinates
    smoothed: np.ndarray  # (m, 3) sampled B-spline curve


def median_curve(exps: Panel, rows: np.ndarray) -> np.ndarray:
    """Per-day median of the exponents in the panel ``rows``, on the panel's
    axis.

    Even row counts take the mean of the two central values.  Bit-equal
    to ``np.nanmedian`` over the rows, signed zeros included.
    """
    if not len(rows):
        raise ParameterError("no rows to take the median of")
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


def run_grid(cases: Panel, seed: int = 0) -> list[GridCell]:
    """Run every cell of GRID at ``seed``; per-cell failures are recorded,
    not raised, and the cells come back in GRID order.

    Each cell equals one run of transform, network and Louvain on its own
    settings, error strings included, but the transform runs once,
    unclipped, and the network is built once per (alpha, measure), at the
    smallest rho of the grid, from that transform clipped to alpha; every
    rho cell takes the edges of that network above its own rho.  The cells run grouped by (alpha, measure),
    so one such network is alive at a time in each process (``_run_shares``),
    and in non-increasing alpha, so each process clips its one exponent
    panel in place: a clip to alpha of a clip to a larger alpha is the clip
    to alpha.  Once the transform has run, this function holds no reference
    to ``cases``.
    """
    cells = [GridCell(settings=s) for s in GRID]
    try:
        exps = to_exponent_series(cases, alpha=math.inf)
    except EpinetError as exc:
        for cell in cells:
            cell.error = _error(exc)
        return cells
    del cases  # frees the panel here if the caller holds no reference to it
    groups = [[c for c in cells if (c.settings.alpha, c.settings.measure) == key]
              for key in product(sorted(ALPHA_VALUES, reverse=True), MEASURES)]
    _run_shares(exps, groups, seed)
    return cells


def _grid_processes() -> int:
    """One per CPU this process may use, at most one per group; 1 off Linux,
    and 1 in a process with a second thread, since a forked child copies only
    the calling thread and would find a lock the other held still held."""
    if sys.platform != "linux" or len(os.listdir("/proc/self/task")) > 1:
        return 1
    return min(len(ALPHA_VALUES) * len(MEASURES), len(os.sched_getaffinity(0)))


def _run_shares(exps: Panel, groups: list[list[GridCell]], seed: int) -> None:
    """Run ``groups`` in ``_grid_processes()`` contiguous shares, at most as
    many as n x n similarity matrices fit in MAX_MATRIX_BYTES: the first
    here, each other in a forked child that pipes back each cell's error,
    partition and node rows, or here, after the first, if that child fails.
    So each process runs its groups in their order, which ``_run_group``'s
    in-place clip of ``exps`` needs.
    On any exception the children left are killed: none outlives this call.
    A child holds no read end of any pipe, so once this process is gone, even
    killed, its write fails with EPIPE and it exits rather than block."""
    # each process builds its own n x n matrix
    matrices = netbuild.MAX_MATRIX_BYTES // max(1, len(exps) ** 2 * 8)
    p = min(_grid_processes(), max(1, matrices))
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
                    os.close(read_fd)
                    for _, pipe, _ in children:
                        pipe.close()
                    for group in share:
                        _run_group(exps, group, seed)
                    sent = [(c.error, c.partition, c.rows) for c in sum(share, [])]
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(sent, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)  # never returns, nor flushes the parent's stdio buffers
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        for group in shares[0]:
            _run_group(exps, group, seed)
        for k, (pid, pipe, share) in enumerate(children):
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1] if pid else 1
            children[k] = (None, pipe, share)  # reaped
            if status != 0:  # a child that exits 0 has sent all of its cells
                for group in share:
                    _run_group(exps, group, seed)
                continue
            for cell, (error, partition, rows) in zip(sum(share, []), pickle.loads(payload)):
                cell.error, cell.partition, cell.rows = error, partition, rows
                cell.keys = None if rows is None else exps.keys
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            if pid:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)


def _run_group(exps: Panel, group: list[GridCell], seed: int) -> None:
    """Clip ``exps`` to the group's alpha in place, then fill the cells of
    one (alpha, measure) from one network built at the smallest rho; the
    network is freed when this returns.  ``exps`` must be unclipped or
    clipped to an alpha no smaller than the group's."""
    alpha, measure = group[0].settings.alpha, group[0].settings.measure
    np.clip(exps.values, -alpha, alpha, out=exps.values)
    try:
        base = build_network(exps, rho=min(RHO_VALUES), measure=measure)
    except EpinetError as exc:
        for cell in group:
            cell.error = _error(exc)
        return
    for cell in group:
        try:
            net = base.above(cell.settings.rho)
            cell.keys, cell.rows = net.keys, net.rows
            cell.partition = louvain(net, seed=seed)
        except EpinetError as exc:
            cell.error = _error(exc)


def align_labels(results: list[GridCell]) -> MembershipMatrix:
    """Map every run's communities onto the labels 1..k of the REFERENCE
    cell's run; without a partition of that cell, raise
    InsufficientStructureError.  The runs are rows of one panel, whose key
    list every cell with a partition holds; the matrix has a row for each
    region in some run's network, in panel order.

    Greedy maximal-Jaccard matching; each reference label is used at most
    once per run, leftover communities get fresh labels k+1, k+2, ...
    """
    ref_cell = next((c for c in results if c.settings == REFERENCE), GridCell(REFERENCE))
    if ref_cell.partition is None:
        raise InsufficientStructureError(f"reference grid cell failed: {ref_cell.error}")
    keys = ref_cell.keys
    labels = np.zeros((len(keys), len(results)), dtype=np.intp)

    k = ref_cell.partition.num_communities  # reference label i -> aligned label i+1
    ref_label = np.full(len(keys), -1, dtype=np.intp)
    ref_label[ref_cell.rows] = ref_cell.partition.labels
    ref_sizes = np.bincount(ref_cell.partition.labels, minlength=k)

    for col, cell in enumerate(results):
        if cell.partition is None:
            continue
        rows, cell_labels = cell.rows, cell.partition.labels
        kc = cell.partition.num_communities
        sizes = np.bincount(cell_labels, minlength=kc)
        both = ref_label[rows] >= 0
        inter = np.bincount(
            ref_label[rows[both]] * kc + cell_labels[both], minlength=k * kc
        ).reshape(k, kc)
        pairs = []
        for ri in range(k):
            for ci in range(kc):
                common = int(inter[ri, ci])
                union = int(ref_sizes[ri]) + int(sizes[ci]) - common
                if union:
                    pairs.append((common / union, ri, ci))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
        mapping = np.zeros(kc, dtype=np.intp)  # 0 until mapped
        used_ref: set[int] = set()
        for jac, ri, ci in pairs:
            if jac <= 0 or mapping[ci] or ri in used_ref:
                continue
            mapping[ci] = ri + 1
            used_ref.add(ri)
        fresh = mapping == 0
        mapping[fresh] = np.arange(k + 1, k + 1 + np.count_nonzero(fresh))
        labels[rows, col] = mapping[cell_labels]

    present = np.flatnonzero(labels.any(axis=1))
    columns = [c.settings.label() for c in results]
    return MembershipMatrix(keys=keys, rows=present, columns=columns, labels=labels[present])


def order_rows(matrix: MembershipMatrix) -> MembershipMatrix:
    """Deterministic row order: majority aligned label, then the full label
    tuple, then region display name, then panel row.  The majority is the
    most frequent label of a row, the smallest on a tie; a missing label
    sorts after every label."""
    labels = matrix.labels
    n = len(labels)
    absent = int(labels.max(initial=0)) + 1  # the sort key of a missing label
    counts = np.bincount((np.arange(n)[:, None] * absent + labels).ravel(),
                         minlength=n * absent).reshape(n, absent)
    counts[:, 0] = 0
    majority = counts.argmax(axis=1)  # the smallest on a tie; 0 for no label
    majority[majority == 0] = absent
    rows = matrix.rows.tolist()
    name_rank = np.empty(n, dtype=np.intp)
    name_rank[sorted(range(n), key=lambda i: (matrix.keys[rows[i]].display, rows[i]))] = range(n)
    order = np.lexsort([name_rank, *np.where(labels > 0, labels, absent).T[::-1], majority])
    return MembershipMatrix(
        keys=matrix.keys, rows=matrix.rows[order], columns=list(matrix.columns),
        labels=labels[order],
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
    names = [csv_field(matrix.keys[r].display) for r in matrix.rows.tolist()]
    text = matrix.labels.astype(str)
    text[matrix.labels == 0] = ""
    write_rows(stream, "%s" + ",%s" * len(matrix.columns) + "\n", names, *text.T)


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
