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

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .ingest import Panel, RegionKey, csv_field, write_rows

MIN_OVERLAP = 2  # fewer days than this -> undefined similarity
# The largest all-pairs similarity matrix build_network allocates: 2 GiB of
# float64, or 16,384 regions.  A larger one raises ParameterError rather than
# risk a MemoryError, which the CLI's exit codes do not cover.
MAX_MATRIX_BYTES = 2**31


class SimilarityMeasure(str, Enum):
    PEARSON = "pearson"
    COSINE = "cosine"


@dataclass
class CorrelationNetwork:
    """Weighted undirected graph over rows of a panel; weights are similarities.

    Node ``i`` is region ``keys[rows[i]]``: ``keys`` is the panel's key list,
    held by reference, and ``rows`` a read-only intp array of ascending panel
    rows.  Edge ``e`` joins nodes ``src[e] < dst[e]`` with weight
    ``weight[e]``; networks from ``build_network`` list their edges in
    row-major order.  Their edge arrays are read-only, and ``above`` shares
    them when it keeps every edge.
    """

    keys: list[RegionKey]
    rows: np.ndarray  # intp
    src: np.ndarray  # int32
    dst: np.ndarray  # int32
    weight: np.ndarray  # float
    rho: float  # the threshold: every weight is above it

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def nodes(self) -> list[RegionKey]:
        """The region key of each node."""
        return [self.keys[r] for r in self.rows.tolist()]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """The edges as ``(a, b, weight)`` tuples."""
        return list(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    def above(self, rho: float) -> CorrelationNetwork:
        """The sub-network of edges with weight strictly above ``rho``, without
        the nodes it leaves isolated.  Equal to ``build_network`` at ``rho``
        on the panel this network was built from; when it keeps every edge,
        it shares this network's edge arrays."""
        _check_rho(rho)
        if rho < self.rho:
            raise ParameterError(f"rho {rho} is below this network's threshold {self.rho}")
        edges = (self.src, self.dst, self.weight)
        keep = self.weight > rho
        if not keep.all():
            edges = tuple(a[keep] for a in edges)
        return _without_isolated(self.keys, self.rows, *edges, rho)


def _check_rho(rho: float) -> None:
    if math.isnan(rho):
        raise ParameterError(f"rho must be a number, got {rho}")


def _without_isolated(keys, rows, src, dst, weight, rho: float) -> CorrelationNetwork:
    """Network over the nodes that keep an edge, renumbered in their order;
    ``rows`` are the panel rows of the nodes ``src`` and ``dst`` index.

    Node indices are held as int32.  The arrays are made read-only so that
    networks can share them: an array that needs no renumbering or cast is
    used as given.
    """
    used = np.zeros(len(rows), dtype=bool)
    used[src] = True
    used[dst] = True
    if not used.all():
        new_index = np.cumsum(used, dtype=np.int32) - 1
        src, dst, rows = new_index[src], new_index[dst], rows[used]
    src, dst = src.astype(np.int32, copy=False), dst.astype(np.int32, copy=False)
    for a in (rows, src, dst, weight):
        a.flags.writeable = False
    return CorrelationNetwork(keys=keys, rows=rows, src=src, dst=dst, weight=weight, rho=rho)


def _matrix_similarity(vals: np.ndarray, measure: SimilarityMeasure) -> np.ndarray:
    """All-pairs similarity of the rows as one matrix product; NaN where it
    is undefined: for every pair when there are fewer than MIN_OVERLAP days,
    and for a row of zero norm, or (pearson) a constant row.  Holds one
    panel-sized copy of ``vals`` besides the result."""
    n, days = vals.shape
    if days < MIN_OVERLAP:
        return np.full((n, n), np.nan)
    if measure is SimilarityMeasure.PEARSON:
        # mean of a constant row can be off by an ulp; test constancy directly
        undefined = np.all(vals == vals[:, :1], axis=1)
        z = vals - vals.mean(axis=1, keepdims=True)
    else:
        undefined = np.zeros(n, dtype=bool)
        z = vals.copy()
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    undefined |= norms == 0.0
    norms[undefined] = 1.0
    z /= norms[:, None]
    sims = z @ z.T
    del z
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[undefined, :] = np.nan
    sims[:, undefined] = np.nan
    return sims


def build_network(
    exps: Panel,
    rho: float = 0.0,
    measure: SimilarityMeasure = SimilarityMeasure.PEARSON,
) -> CorrelationNetwork:
    """Assemble the thresholded similarity network over the panel's rows.

    An edge exists iff the similarity of the two rows is defined and strictly
    greater than rho.  Regions with no surviving edge are omitted from the
    network's ``rows``, which keep the panel's order.  A NaN rho
    raises ``ParameterError``, and so does a panel whose similarity matrix
    would take more than MAX_MATRIX_BYTES.
    """
    measure = SimilarityMeasure(measure)
    n = len(exps)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 series to build a network, got {n}")
    _check_rho(rho)
    if n * n * 8 > MAX_MATRIX_BYTES:
        raise ParameterError(
            f"{n} regions need a {n * n * 8}-byte similarity matrix, above the limit of "
            f"{MAX_MATRIX_BYTES} bytes; raise --min-cases to select fewer regions"
        )

    sims = _matrix_similarity(exps.values, measure)
    # the kept pairs above the diagonal, row-major; NaN (undefined) is never kept
    src, dst = np.nonzero(np.triu(sims > rho, 1))
    weight = sims[src, dst]
    del sims
    return _without_isolated(exps.keys, np.arange(n), src, dst, weight, rho)


def fmt9(x: float) -> str:
    """Serialize a float with 9 significant digits (round-half-even)."""
    return format(float(x), ".9g")


# The characters that XML 1.0 allows in no document, escaped or not; tab, LF
# and CR are allowed
XML_FORBIDDEN = frozenset(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


def _escape(text: str) -> str:
    """XML character data: ``&`` first, so the entities it makes stay intact.
    A character XML cannot hold raises ParameterError."""
    if not XML_FORBIDDEN.isdisjoint(text):
        bad = min(XML_FORBIDDEN.intersection(text))
        raise ParameterError(
            f"region {text!r} has the character U+{ord(bad):04X} in its name, which "
            "XML 1.0 forbids, so network.graphml cannot hold it"
        )
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_edge_csv(net: CorrelationNetwork, stream) -> None:
    """Edge-list CSV ``source,target,weight`` using display strings."""
    names = np.array([csv_field(key.display) for key in net.nodes], dtype=object)
    stream.write("source,target,weight\n")
    write_rows(stream, "%s,%s,%.9g\n", names[net.src], names[net.dst], net.weight)


def write_graphml(net: CorrelationNetwork, stream) -> None:
    """GraphML export with weight as an edge attribute; byte-stable.  A region
    name that XML cannot hold raises ParameterError before anything is
    written."""
    labels = [_escape(key.display) for key in net.nodes]
    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>\n'
        '  <graph id="G" edgedefault="undirected">\n'
    )
    node = '    <node id="n%d"><data key="label">%s</data></node>\n'
    write_rows(stream, node, range(net.n), labels)
    edge = '    <edge source="n%d" target="n%d"><data key="weight">%.9g</data></edge>\n'
    write_rows(stream, edge, net.src, net.dst, net.weight)
    stream.write("  </graph>\n</graphml>\n")
