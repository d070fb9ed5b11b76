"""Similarity between the rows of an exponent panel and thresholded network
assembly.

Edges connect region pairs whose similarity is strictly greater than the
threshold rho, with the similarity value as the edge weight.  Regions left
without any edge are dropped from the node list entirely.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .ingest import Panel, RegionKey

MIN_OVERLAP = 2  # fewer days than this -> undefined similarity


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
    """Weighted undirected graph over region keys; weights are similarities.

    Edge ``e`` joins nodes ``src[e] < dst[e]`` with weight ``weight[e]``;
    networks from ``build_network`` list their edges in row-major order.
    The fields are not changed after construction: ``node_names`` and
    ``weight_text`` keep what the writers read.
    """

    nodes: list[RegionKey]
    src: np.ndarray  # int
    dst: np.ndarray  # int
    weight: np.ndarray  # float
    build_settings: BuildSettings

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """The edges as ``(a, b, weight)`` tuples."""
        return list(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    @cached_property
    def node_names(self) -> list[str]:
        """Each node's display string, built once for every writer."""
        return [key.display for key in self.nodes]

    @cached_property
    def weight_text(self) -> list[str]:
        """Each edge weight as ``fmt9`` text, formatted once for every writer."""
        return fmt9_all(self.weight)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.src, self.dst] = self.weight
        a[self.dst, self.src] = self.weight
        return a

    def above(self, rho: float) -> CorrelationNetwork:
        """The sub-network of edges with weight strictly above ``rho``, without
        the nodes it leaves isolated.  Equal to ``build_network`` at ``rho``
        on the panel this network was built from."""
        _check_rho(rho)
        if rho < self.build_settings.rho:
            raise ParameterError(
                f"rho {rho} is below this network's threshold {self.build_settings.rho}"
            )
        keep = self.weight > rho
        return _without_isolated(
            self.nodes,
            self.src[keep],
            self.dst[keep],
            self.weight[keep],
            replace(self.build_settings, rho=rho),
        )


def _check_rho(rho: float) -> None:
    if math.isnan(rho):
        raise ParameterError(f"rho must be a number, got {rho}")


def _without_isolated(nodes, src, dst, weight, settings) -> CorrelationNetwork:
    """Network over the nodes that keep an edge, renumbered in their order."""
    used = np.zeros(len(nodes), dtype=bool)
    used[src] = True
    used[dst] = True
    new_index = np.cumsum(used) - 1
    return CorrelationNetwork(
        nodes=[nodes[i] for i in np.flatnonzero(used).tolist()],
        src=new_index[src],
        dst=new_index[dst],
        weight=weight,
        build_settings=settings,
    )


def _matrix_similarity(vals: np.ndarray, measure: SimilarityMeasure) -> np.ndarray:
    """All-pairs similarity of the rows as one matrix product; NaN where it
    is undefined: for every pair when there are fewer than MIN_OVERLAP days,
    and for a row of zero norm, or (pearson) a constant row."""
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


def build_network(
    exps: Panel,
    rho: float = 0.0,
    measure: SimilarityMeasure = SimilarityMeasure.PEARSON,
    alpha: float | None = None,
) -> CorrelationNetwork:
    """Assemble the thresholded similarity network over the panel's rows.

    An edge exists iff the similarity of the two rows is defined and strictly
    greater than rho.  Regions with no surviving edge are omitted from the
    node list; node order is row order restricted to survivors.
    ``alpha`` is recorded in the build settings only.  A NaN rho raises
    ``ParameterError``.
    """
    measure = SimilarityMeasure(measure)
    if len(exps) < 2:
        raise InsufficientDataError(f"need >= 2 series to build a network, got {len(exps)}")
    _check_rho(rho)

    sims = _matrix_similarity(exps.values, measure)
    rows, cols = np.triu_indices(len(exps), k=1)
    upper = sims[rows, cols]
    keep = upper > rho  # NaN (undefined) is never kept
    settings = BuildSettings(
        rho=rho,
        alpha=alpha if alpha is not None else float("nan"),
        measure=measure,
    )
    return _without_isolated(exps.keys, rows[keep], cols[keep], upper[keep], settings)


def fmt9(x: float) -> str:
    """Serialize a float with 9 significant digits (round-half-even)."""
    return format(float(x), ".9g")


def fmt9_all(values) -> list[str]:
    """``fmt9`` of each value of a 1-D float array, in order."""
    return [format(x, ".9g") for x in np.asarray(values, dtype=float).tolist()]


def _escape(text: str) -> str:
    """XML character data: ``&`` first, so the entities it makes stay intact."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # drop the empty last field and the line end


def _write_lines(stream, lines) -> None:
    """Write text lines joined in blocks: one call per block, not per line,
    without holding the whole file in memory."""
    lines = iter(lines)
    while block := "".join(islice(lines, 4096)):
        stream.write(block)


def _edge_text(net: CorrelationNetwork):
    """``(a, b, weight text)`` for every edge, in order."""
    return zip(net.src.tolist(), net.dst.tolist(), net.weight_text)


def write_edge_csv(net: CorrelationNetwork, stream) -> None:
    """Edge-list CSV ``source,target,weight`` using display strings."""
    names = [_csv_field(name) for name in net.node_names]
    stream.write("source,target,weight\n")
    _write_lines(stream, (f"{names[a]},{names[b]},{w}\n" for a, b, w in _edge_text(net)))


def write_graphml(net: CorrelationNetwork, stream) -> None:
    """GraphML export with weight as an edge attribute; byte-stable."""
    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>\n'
        '  <graph id="G" edgedefault="undirected">\n'
    )
    _write_lines(
        stream,
        (
            f'    <node id="n{i}"><data key="label">{_escape(name)}</data></node>\n'
            for i, name in enumerate(net.node_names)
        ),
    )
    _write_lines(
        stream,
        (
            f'    <edge source="n{a}" target="n{b}"><data key="weight">{w}</data></edge>\n'
            for a, b, w in _edge_text(net)
        ),
    )
    stream.write("  </graph>\n</graphml>\n")
