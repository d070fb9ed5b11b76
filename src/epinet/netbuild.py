"""Similarity between the rows of an exponent panel and thresholded network
assembly.

Edges connect region pairs whose similarity is strictly greater than the
threshold rho, with the similarity value as the edge weight.  Regions left
without any edge are dropped from the node list entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from xml.sax.saxutils import escape

import numpy as np

from .errors import InsufficientDataError
from .ingest import Panel, RegionKey

MIN_OVERLAP = 2  # fewer common defined points than this -> undefined similarity


class SimilarityMeasure(str, Enum):
    PEARSON = "pearson"
    COSINE = "cosine"


@dataclass(frozen=True)
class BuildSettings:
    rho: float
    alpha: float
    measure: SimilarityMeasure

    def label(self) -> str:
        return f"rho{_num(self.rho)}_a{_num(self.alpha)}_{self.measure.value}"


def _num(x: float) -> str:
    return format(x, "g").replace(".", "p").replace("-", "m")


@dataclass
class CorrelationNetwork:
    """Weighted undirected graph over region keys; weights are similarities."""

    nodes: list[RegionKey]
    edges: list[tuple[int, int, float]]  # (a, b, weight) with a < b
    build_settings: BuildSettings

    @property
    def n(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a


def pearson(x, y) -> float | None:
    """Product-moment coefficient, or None when undefined (zero variance or
    fewer than 2 points)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    if len(x) < MIN_OVERLAP:
        return None
    # mean of a constant array can be off by an ulp; test constancy directly
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(np.dot(dx, dy)) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def cosine(x, y) -> float | None:
    """Uncentered cosine similarity, or None on a zero-norm vector."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    if len(x) < MIN_OVERLAP:
        return None
    nx = float(np.dot(x, x))
    ny = float(np.dot(y, y))
    if nx == 0.0 or ny == 0.0:
        return None
    c = float(np.dot(x, y)) / math.sqrt(nx * ny)
    return min(1.0, max(-1.0, c))


_SIMILARITY = {SimilarityMeasure.PEARSON: pearson, SimilarityMeasure.COSINE: cosine}


def _matrix_similarity(vals: np.ndarray, measure: SimilarityMeasure) -> np.ndarray:
    """All-pairs similarity of NaN-free rows as one matrix product; NaN
    where ``pearson``/``cosine`` return None for the pair."""
    n, days = vals.shape
    if days < MIN_OVERLAP:
        return np.full((n, n), np.nan)
    z = vals
    undefined = np.zeros(n, dtype=bool)
    if measure is SimilarityMeasure.PEARSON:
        # mean of a constant row can be off by an ulp; test constancy directly
        undefined = np.all(vals == vals[:, :1], axis=1)
        z = vals - vals.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    undefined |= norms == 0.0
    z = z / np.where(undefined, 1.0, norms)[:, None]
    sims = np.clip(z @ z.T, -1.0, 1.0)
    sims[undefined, :] = np.nan
    sims[:, undefined] = np.nan
    return sims


def _pairwise_similarity(vals: np.ndarray, measure: SimilarityMeasure) -> np.ndarray:
    """All-pairs similarity over pairwise-complete days (both rows not NaN)."""
    sim_fn = _SIMILARITY[measure]
    present = ~np.isnan(vals)
    sims = np.full((len(vals), len(vals)), np.nan)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            both = present[i] & present[j]
            s = sim_fn(vals[i][both], vals[j][both])
            if s is not None:
                sims[i, j] = s
    return sims


def build_network(
    exps: Panel,
    rho: float = 0.0,
    measure: SimilarityMeasure = SimilarityMeasure.PEARSON,
    alpha: float | None = None,
) -> CorrelationNetwork:
    """Assemble the thresholded similarity network over the panel's rows.

    Similarities are computed over pairwise-complete observations: the days
    on which neither row is NaN.  An edge exists iff the value is defined and
    strictly greater than rho.  Regions with no surviving edge are omitted
    from the node list; node order is row order restricted to survivors.
    ``alpha`` is recorded in the build settings only.
    """
    measure = SimilarityMeasure(measure)
    if len(exps) < 2:
        raise InsufficientDataError(f"need >= 2 series to build a network, got {len(exps)}")

    if np.isnan(exps.values).any():
        sims = _pairwise_similarity(exps.values, measure)
    else:
        sims = _matrix_similarity(exps.values, measure)
    rows, cols = np.triu_indices(len(exps), k=1)
    upper = sims[rows, cols]
    keep = upper > rho  # NaN (undefined) is never kept
    raw_edges = list(zip(rows[keep].tolist(), cols[keep].tolist(), upper[keep].tolist()))

    connected = sorted({i for i, _, _ in raw_edges} | {j for _, j, _ in raw_edges})
    remap = {old: new for new, old in enumerate(connected)}
    nodes = [exps.keys[i] for i in connected]
    edges = [(remap[i], remap[j], w) for i, j, w in raw_edges]
    settings = BuildSettings(
        rho=rho,
        alpha=alpha if alpha is not None else float("nan"),
        measure=measure,
    )
    return CorrelationNetwork(nodes=nodes, edges=edges, build_settings=settings)


def fmt9(x: float) -> str:
    """Serialize a float with 9 significant digits (round-half-even)."""
    return format(float(x), ".9g")


def write_edge_csv(net: CorrelationNetwork, stream) -> None:
    """Edge-list CSV ``source,target,weight`` using display strings."""
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["source", "target", "weight"])
    for a, b, w in net.edges:
        writer.writerow([net.nodes[a].display, net.nodes[b].display, fmt9(w)])


def write_graphml(net: CorrelationNetwork, stream) -> None:
    """GraphML export with weight as an edge attribute; byte-stable."""
    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>\n'
        '  <graph id="G" edgedefault="undirected">\n'
    )
    for i, key in enumerate(net.nodes):
        stream.write(f'    <node id="n{i}"><data key="label">{escape(key.display)}</data></node>\n')
    for a, b, w in net.edges:
        stream.write(
            f'    <edge source="n{a}" target="n{b}">'
            f'<data key="weight">{fmt9(w)}</data></edge>\n'
        )
    stream.write("  </graph>\n</graphml>\n")
