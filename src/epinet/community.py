"""Weighted modularity maximization by deterministic Louvain.

Modularity is the standard weighted form (resolution 1)
Q = (1/2m) * sum_ij (A_ij - k_i k_j / 2m) * delta(c_i, c_j)
with A the weighted adjacency, k_i the weighted degree and m the total edge
weight.  The Louvain run is fully deterministic: nodes are visited in a
seeded shuffle of the canonically sorted node list, and tie-breaking rules
are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, InsufficientStructureError
from .ingest import csv_field, write_rows
from .netbuild import CorrelationNetwork


@dataclass
class Partition:
    """One community label per network node (dense labels 0..k-1) and the
    partition's modularity score."""

    labels: np.ndarray  # intp, indexed by node
    modularity: float

    @property
    def num_communities(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _first_seen(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Each node's community numbered 0..k-1 in the order of its first node, and k."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    number = np.empty(len(first), dtype=np.intp)
    number[np.argsort(first)] = np.arange(len(first))
    return number[inverse], len(first)


def _two_m(net: CorrelationNetwork) -> float:
    """Twice the total edge weight, added one edge at a time in edge order (as
    ``sum`` adds floats before Python 3.12, which compensates)."""
    two_m = 2.0 * float(np.cumsum(net.weight)[-1]) if len(net.weight) else 0.0
    if two_m <= 0:
        raise InsufficientStructureError("network has no positive edge weight")
    return two_m


def _modularity(net, community: np.ndarray, k: int, deg: np.ndarray, two_m: float) -> float:
    """Q of ``community`` (labels 0..k-1, in order of first appearance); ``deg``
    adds each node's edge weights in edge order."""
    same = community[net.src] == community[net.dst]
    # one addition at a time, in edge order (np.sum adds pairwise and rounds differently)
    internal = float(np.cumsum(2.0 * net.weight[same])[-1]) if same.any() else 0.0
    tot = np.bincount(community, weights=deg, minlength=k)
    q = internal / two_m
    # one addition at a time, in label order (sum() of floats compensates from Python 3.12)
    squares = 0.0
    for s in tot:
        squares += (s / two_m) ** 2
    return q - squares


def _csr(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray):
    """``(indptr, indices, data)`` of the undirected edges: edge ``e`` enters
    row ``src[e]``, then row ``dst[e]``, so each row lists its edges in edge
    order.  ``indices`` are intp."""
    # a stable sort on the narrowest keys is numpy's radix sort
    ends = np.empty(2 * len(src), dtype=np.min_scalar_type(n))
    ends[0::2], ends[1::2] = src, dst
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n) + np.bincount(dst, minlength=n), out=indptr[1:])
    # an entry's neighbour is its edge's other end
    ends[0::2], ends[1::2] = dst, src
    # Louvain gathers and bincounts with these: several times slower on int32
    indices = ends[order].astype(np.intp)
    del ends
    order >>= 1  # entry -> edge
    return indptr, indices, weight[order]


def _local_moving(indptr, indices, data, deg, order, two_m: float):
    """Phase 1: greedy node moves.  Returns (community of each node, moved?).

    A visit takes its node out of its community's total while it scores the
    candidates, the communities of its neighbours and its own; one that stays
    puts back the total it read, so it changes nothing.  Every sweep visits
    every node of ``order``, one at a time, and the sweeps end after one in
    which no node moved.  With every weight > 0, a visit that ``_settled``
    decides scores no further.
    """
    n = len(deg)
    rows = [(indices[a:b], data[a:b]) for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    comm = np.arange(n)
    tot = deg.copy()
    degrees = deg.tolist()
    # with every weight > 0, i's candidates are the communities it has weight
    # to, and each score, as rounded, rises with its weight and falls with its total
    positive = len(data) == 0 or bool(data.min() > 0)
    low = float(tot.min())  # at most every entry of tot
    any_move = False
    while True:
        moved_in_sweep = False
        for i in order:
            ki = degrees[i]
            cur = comm[i]
            nbr_comm = comm[rows[i][0]]
            w_to = np.bincount(nbr_comm, weights=rows[i][1], minlength=n)  # i excluded
            own = tot.item(cur)
            tot[cur] = own - ki  # take i out while scoring candidates
            best = _settled(w_to, cur, tot, ki, low, two_m) if positive else None
            if best is None:
                # not w_to / (two_m / 2), inexact when two_m is subnormal
                score = (2.0 * w_to) / two_m - 2.0 * ki * tot / (two_m * two_m)
                stay = score.item(cur)
                # a neighbour's community is a candidate, whatever its weights sum to
                score[np.bincount(nbr_comm, minlength=n) == 0] = -np.inf
                best = int(score.argmax())  # smallest label among the best
                if score.item(best) <= stay:
                    best = cur  # stay on ties: bias toward stability
            if best == cur:
                tot[cur] = own
                continue
            tot[best] += ki
            low = min(low, tot.item(cur), tot.item(best))
            comm[i] = best
            moved_in_sweep = any_move = True
        if not moved_in_sweep:
            break
    return comm, any_move


def _settled(w_to, cur, tot, ki: float, low: float, two_m: float):
    """The community that scoring every candidate would pick for a visit, or
    None, with ``w_to`` as it was, when two scores and a bound leave it open.

    Needs every weight > 0, so that the candidates are ``cur`` and the
    communities with weight, ``ki`` >= 0 and ``low`` at most every total but
    ``cur``'s.  The heaviest community and ``cur`` are scored operation by
    operation as ``_local_moving`` scores.  Each rounded
    operation is monotone, so no other candidate scores above the largest
    weight left at the total ``low``; when that bound is below the better of
    the two, no other candidate can win or tie.
    """
    c1 = int(w_to.argmax())  # smallest label among the heaviest
    w1, w_own = w_to.item(c1), w_to.item(cur)
    if w1 == 0 and c1 != cur:  # c1 is no candidate
        return None
    a, tt = 2.0 * ki, two_m * two_m
    s1 = (2.0 * w1) / two_m - (a * tot.item(c1)) / tt
    s_own = (2.0 * w_own) / two_m - (a * tot.item(cur)) / tt
    w_to[c1] = w_to[cur] = 0.0
    # argmax then item: several times faster than max on a few hundred entries
    bound = (2.0 * w_to.item(w_to.argmax())) / two_m - (a * low) / tt
    if bound < s1 or bound < s_own:
        return c1 if s1 > s_own else cur  # stay on ties
    w_to[c1], w_to[cur] = w1, w_own
    return None


def _aggregate(src, dst, weight, selfw, new: np.ndarray, k: int):
    """Phase 2: contract communities into super-nodes with self-loop weights.

    ``new`` maps each node to its super-node 0..k-1.  Returns the edges
    between super-nodes, one per pair in ascending order, each weight added in
    edge order, and each super-node's self-loop weight: its members'
    self-loops in node order, then twice each edge inside it in edge order.
    """
    a, b = new[src], new[dst]
    inside = a == b
    new_selfw = np.bincount(new, weights=selfw, minlength=k)
    np.add.at(new_selfw, a[inside], 2.0 * weight[inside])  # unbuffered: edge by edge, in order
    codes = np.minimum(a, b) * k + np.maximum(a, b)
    del a, b
    apart = ~inside
    # a narrow dtype sorts several times faster
    pairs, pair = np.unique(codes[apart].astype(np.min_scalar_type(k * k)), return_inverse=True)
    lo, hi = np.divmod(pairs, k)
    return lo, hi, np.bincount(pair, weights=weight[apart]), new_selfw


def louvain(net: CorrelationNetwork, seed: int = 0) -> Partition:
    """Greedy multi-level modularity maximization.

    Deterministic for a fixed seed: node visit order is a seeded shuffle of
    the nodes sorted by display name, gain ties keep the current community
    (otherwise smallest label wins), and the final dense labels are ordered
    by descending community size with the smallest member index breaking
    ties.
    """
    if not len(net.weight):
        raise InsufficientStructureError("network has no edges")
    two_m = _two_m(net)
    src, dst, weight = net.src, net.dst, net.weight
    selfw = np.zeros(net.n)

    rng = random.Random(seed)
    # canonical identity of each current super-node, for order stability
    # under input permutation: level 0 uses display names, deeper levels the
    # smallest member name.
    canon = [key.display for key in net.nodes]
    node_of = np.arange(net.n)  # original node -> current super-node
    node_deg = None

    while True:
        n = len(canon)
        indptr, indices, data = _csr(n, src, dst, weight)
        row = np.repeat(np.arange(n), np.diff(indptr))
        deg = np.bincount(row, weights=data, minlength=n) + selfw
        del row
        if node_deg is None:
            node_deg = deg  # each node's edge weights, added in edge order
        order = sorted(range(n), key=canon.__getitem__)
        rng.shuffle(order)
        comm, improved = _local_moving(indptr, indices, data, deg, order, two_m)
        del indptr, indices, data
        if not improved:
            break
        labels, new = np.unique(comm, return_inverse=True)
        src, dst, weight, selfw = _aggregate(src, dst, weight, selfw, new, len(labels))
        node_of = new[node_of]
        new_canon = [None] * len(labels)
        for sup, name in zip(new.tolist(), canon):
            if new_canon[sup] is None or name < new_canon[sup]:
                new_canon[sup] = name
        canon = new_canon

    community, k = _first_seen(node_of)
    q = _modularity(net, community, k, node_deg, two_m)
    # dense labels by descending size, ties by smallest member node index:
    # ``community`` numbers the communities in that order, which a stable sort keeps
    rank = np.empty(k, dtype=np.intp)
    rank[np.argsort(-np.bincount(community), kind="stable")] = np.arange(k)
    return Partition(labels=rank[community], modularity=q)


def compare_partitions(p: Partition, q: Partition) -> float:
    """Pairwise agreement (Rand index) of two partitions of the same nodes."""
    n = len(p.labels)
    if n == 0 or len(q.labels) != n:
        raise ComparisonError(f"partitions of {n} and {len(q.labels)} nodes")
    kp, kq = p.num_communities, q.num_communities
    cont = np.bincount(p.labels * kq + q.labels, minlength=kp * kq).reshape(kp, kq)

    def pairs(counts):
        return int((counts * (counts - 1) // 2).sum())

    total = n * (n - 1) // 2
    same_both = pairs(cont)
    diff_both = total - pairs(cont.sum(axis=1)) - pairs(cont.sum(axis=0)) + same_both
    return 1.0 if total == 0 else (same_both + diff_both) / total


def write_partition_csv(net: CorrelationNetwork, part: Partition, stream) -> None:
    """CSV ``region,community`` with dense labels."""
    stream.write("region,community\n")
    names = [csv_field(key.display) for key in net.nodes]
    write_rows(stream, "%s,%d\n", names, part.labels)

