"""Test oracles: independent or exhaustive versions of what the package does
fast, and the wide-CSV writer that turns panels into CLI inputs.

- ``brute_force_best``: the exact modularity maximum by enumerating every set
  partition, up to BRUTE_FORCE_MAX_NODES nodes, on the dense ``adjacency``;
- ``change_exponents``: the transform's last step over a whole array, which
  ``to_exponent_series`` runs a block of rows at a time;
- ``run_cell``: one grid cell run alone, which each cell of ``run_grid`` equals;
- ``to_wide_csv``: a panel as the wide CSV that ``parse_cases_csv`` reads.

Run as a script, it writes the planted fixture (``make_planted_cases()``) as a
wide CSV to standard output.
"""

from __future__ import annotations

import csv
import io

# epinet before numpy: it pins OpenBLAS to one thread before numpy loads
from epinet.analysis import GridCell
from epinet.community import Partition, louvain
from epinet.errors import EpinetError, InsufficientStructureError, ParameterError
from epinet.ingest import EXPECTED_META_COLUMNS, Panel
from epinet.netbuild import build_network
from epinet.synthetic import make_planted_cases
from epinet.transform import DEFAULT_ALPHA, FLOOR_EPS, to_exponent_series

import numpy as np

BRUTE_FORCE_MAX_NODES = 12


class PartitionSizeError(EpinetError):
    """Graph too large for exhaustive partition enumeration."""


def adjacency(net) -> np.ndarray:
    """The dense symmetric weight matrix of a ``CorrelationNetwork``."""
    a = np.zeros((net.n, net.n))
    a[net.src, net.dst] = net.weight
    a[net.dst, net.src] = net.weight
    return a


def _restricted_growth_strings(n: int):
    """All set partitions of range(n) as canonical label vectors, lex order."""
    labels = [0] * n

    def rec(i, maxlab):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(maxlab + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxlab, lab))

    if n == 0:
        return
    yield from rec(1, 0)


def brute_force_best(net) -> Partition:
    """Exact modularity maximum by enumerating every set partition.

    Limited to BRUTE_FORCE_MAX_NODES nodes.  Ties go to the lexicographically
    smallest canonical label vector.
    """
    if not len(net.weight):
        raise InsufficientStructureError("network has no edges")
    if net.n > BRUTE_FORCE_MAX_NODES:
        raise PartitionSizeError(
            f"{net.n} nodes exceeds the enumeration limit of {BRUTE_FORCE_MAX_NODES}"
        )
    adj = adjacency(net)
    deg = adj.sum(axis=1)
    two_m = adj.sum()
    null = np.outer(deg, deg) / two_m
    b = adj - null
    best_q = -np.inf
    best = None
    for labels in _restricted_growth_strings(net.n):
        lab = np.asarray(labels)
        same = lab[:, None] == lab[None, :]
        q = float(b[same].sum()) / two_m
        if q > best_q:
            best_q = q
            best = labels
    return Partition(labels=np.array(best, dtype=np.intp), modularity=best_q)


def change_exponents(avgs, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Clipped log-ratios of consecutive 7-day averages along the last axis,
    each average floored at FLOOR_EPS first.

    NaN inputs mark missing days; a log-ratio is NaN (undefined) unless both
    neighbors are present.  ``alpha`` may be infinite (no clipping).
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    floored = np.maximum(np.asarray(avgs, dtype=float), FLOOR_EPS)
    return np.clip(np.log(floored[..., 1:] / floored[..., :-1]), -alpha, alpha)


def run_cell(cases: Panel, settings, seed: int = 0) -> GridCell:
    """One grid cell run alone: transform -> network -> Louvain at
    ``settings``, or the error that stopped it."""
    cell = GridCell(settings=settings)
    try:
        exps = to_exponent_series(cases, alpha=settings.alpha)
        net = build_network(exps, rho=settings.rho, measure=settings.measure)
        cell.keys, cell.rows = net.keys, net.rows
        cell.partition = louvain(net, seed=seed)
    except EpinetError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def to_wide_csv(panel: Panel) -> str:
    """The panel in the wide layout: M/D/YY date columns, integer counts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        list(EXPECTED_META_COLUMNS) + [d.strftime("%-m/%-d/%y") for d in panel.dates]
    )
    for key, row in zip(panel.keys, panel.values.astype(np.int64).tolist()):
        writer.writerow([key.province or "", key.country, "", ""] + row)
    return buf.getvalue()


if __name__ == "__main__":
    series, _ = make_planted_cases()
    counts = np.array([s.cumulative for s in series], dtype=np.float64)
    panel = Panel(keys=[s.key for s in series], start=series[0].dates[0], values=counts)
    print(to_wide_csv(panel), end="")
