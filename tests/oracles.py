"""Test oracles: independent or exhaustive versions of what the package does
fast, and the builders of the tests' panels and CLI inputs.

- ``brute_force_best``: the exact modularity maximum by enumerating every set
  partition, up to BRUTE_FORCE_MAX_NODES nodes, on the dense ``adjacency``;
- ``certified_optimum``: the same maximum at any size, as the optimum of an
  integer program that HiGHS solves and certifies;
- ``change_exponents``: the transform's last step over a whole array, which
  ``to_exponent_series`` runs a block of rows at a time;
- ``run_cell``: one grid cell run alone, which each cell of ``run_grid`` equals;
- ``to_wide_csv``: a panel as the wide CSV that ``parse_cases_csv`` reads;
- ``planted_panel``: ``make_planted_cases``' draw as one panel, with its labels.

Run as a script, it writes the planted fixture (``make_planted_cases()``) as a
wide CSV to standard output.
"""

from __future__ import annotations

import csv
import io
import itertools

# epinet before numpy: it pins OpenBLAS to one thread before numpy loads
from epinet.analysis import GridCell
from epinet.community import Partition, louvain
from epinet.errors import EpinetError, InsufficientStructureError, ParameterError
from epinet.ingest import EXPECTED_META_COLUMNS, Panel
from epinet.netbuild import build_network
from epinet.synthetic import make_planted_cases
from epinet.transform import DEFAULT_ALPHA, FLOOR_EPS, to_exponent_series

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

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


def _modularity_matrix(net) -> tuple[np.ndarray, float]:
    """``B = A - k k^T / 2m`` and ``2m`` of a network with edges; Q of a
    partition is the sum of ``B`` over its same-community pairs over ``2m``."""
    if not len(net.weight):
        raise InsufficientStructureError("network has no edges")
    adj = adjacency(net)
    deg = adj.sum(axis=1)
    two_m = adj.sum()
    return adj - np.outer(deg, deg) / two_m, two_m


def _q(b: np.ndarray, two_m: float, labels) -> float:
    lab = np.asarray(labels)
    return float(b[lab[:, None] == lab[None, :]].sum()) / two_m


def brute_force_best(net) -> Partition:
    """Exact modularity maximum by enumerating every set partition.

    Limited to BRUTE_FORCE_MAX_NODES nodes.  Ties go to the lexicographically
    smallest canonical label vector.
    """
    b, two_m = _modularity_matrix(net)
    if net.n > BRUTE_FORCE_MAX_NODES:
        raise PartitionSizeError(
            f"{net.n} nodes exceeds the enumeration limit of {BRUTE_FORCE_MAX_NODES}"
        )
    best_q = -np.inf
    best = None
    for labels in _restricted_growth_strings(net.n):
        q = _q(b, two_m, labels)
        if q > best_q:
            best_q = q
            best = labels
    return Partition(labels=np.array(best, dtype=np.intp), modularity=best_q)


def certified_optimum(net) -> Partition:
    """Exact modularity maximum as the clique-partitioning integer program
    (Grötschel & Wakabayashi 1989, *Math. Programming* 45:59; Brandes et al.
    2008, *IEEE TKDE* 20:172), solved by HiGHS with no relative gap allowed.

    A binary ``x_ij`` per node pair ``i < j`` says that ``i`` and ``j`` share a
    community; the program maximizes the sum of ``B_ij x_ij``, and three
    triangle inequalities per node triple make sharing transitive.  The
    partition read from the solution has its Q computed as
    ``brute_force_best`` computes it; labels number the communities in order
    of their first node.
    """
    b, two_m = _modularity_matrix(net)
    n = net.n
    iu, ju = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    i, j, k = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    # x_ij + x_jk - x_ik <= 1 and its two rotations, one row each
    cols = np.repeat(np.column_stack([pair[i, j], pair[j, k], pair[i, k]]), 3, axis=0)
    signs = np.tile([[1, 1, -1], [1, -1, 1], [-1, 1, 1]], (len(i), 1))
    rows = np.repeat(np.arange(3 * len(i)), 3)
    triangles = coo_array((signs.ravel(), (rows, cols.ravel())), shape=(3 * len(i), len(iu)))
    res = milp(-b[iu, ju], integrality=np.ones(len(iu)), bounds=Bounds(0, 1),
               constraints=[LinearConstraint(triangles, -np.inf, 1)] if len(i) else [],
               options={"mip_rel_gap": 0})
    if res.status != 0:
        raise RuntimeError(f"milp: {res.message}")
    together = np.eye(n, dtype=bool)
    together[iu, ju] = together[ju, iu] = res.x > 0.5
    first = together.argmax(axis=1)  # each node's first fellow member
    _, labels = np.unique(first, return_inverse=True)
    if not np.array_equal(together, labels[:, None] == labels[None, :]):
        raise RuntimeError("milp: the solution is not a partition")
    return Partition(labels=labels.astype(np.intp), modularity=_q(b, two_m, labels))


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


def planted_panel(**kwargs) -> tuple[Panel, dict]:
    """``make_planted_cases(**kwargs)`` stacked as one panel, with its labels."""
    series, labels = make_planted_cases(**kwargs)
    counts = np.array([s.cumulative for s in series], dtype=np.float64)
    return Panel(keys=[s.key for s in series], start=series[0].dates[0], values=counts), labels


if __name__ == "__main__":
    print(to_wide_csv(planted_panel()[0]), end="")
