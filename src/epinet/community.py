"""Weighted modularity maximization: deterministic Louvain plus an exact
brute-force oracle for small graphs.

Modularity is the standard weighted form
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

from .errors import (
    CoverageError,
    ComparisonError,
    InsufficientStructureError,
    PartitionSizeError,
)
from .ingest import csv_field, write_rows
from .netbuild import CorrelationNetwork

BRUTE_FORCE_MAX_NODES = 12


@dataclass
class Partition:
    """Community assignment (dense labels 0..k-1) with its modularity score."""

    assignment: dict[int, int]
    modularity: float

    @property
    def num_communities(self) -> int:
        return max(self.assignment.values()) + 1 if self.assignment else 0

    def communities(self) -> list[set[int]]:
        out = [set() for _ in range(self.num_communities)]
        for node, label in self.assignment.items():
            out[label].add(node)
        return out


def modularity_of(
    net: CorrelationNetwork,
    assignment: dict[int, int],
    resolution: float = 1.0,
) -> float:
    """Recompute Q of an assignment from scratch (self-loop-free convention)."""
    dense: dict[int, int] = {}  # label -> index, in order of first appearance
    community = np.empty(net.n, dtype=np.intp)
    for i in range(net.n):
        if i not in assignment:
            raise CoverageError(f"node {i} ({net.nodes[i].display}) missing from assignment")
        community[i] = dense.setdefault(assignment[i], len(dense))
    # degrees accumulate edge by edge, one end after the other
    ends = np.column_stack([net.src, net.dst]).ravel()
    deg = np.bincount(ends, weights=np.repeat(net.weight, 2), minlength=net.n)
    return _modularity(net, community, len(dense), deg, _two_m(net), resolution)


def _two_m(net: CorrelationNetwork) -> float:
    """Twice the total edge weight, added one edge at a time in edge order (as
    ``sum`` adds floats before Python 3.12, which compensates)."""
    two_m = 2.0 * float(np.cumsum(net.weight)[-1]) if len(net.weight) else 0.0
    if two_m <= 0:
        raise InsufficientStructureError("network has no positive edge weight")
    return two_m


def _modularity(net, community: np.ndarray, k: int, deg: np.ndarray, two_m: float,
                resolution: float) -> float:
    """Q of ``community`` (labels 0..k-1, in order of first appearance); ``deg``
    adds each node's edge weights in edge order."""
    same = community[net.src] == community[net.dst]
    # one addition at a time, in edge order (np.sum adds pairwise and rounds differently)
    internal = float(np.cumsum(2.0 * net.weight[same])[-1]) if same.any() else 0.0
    tot = np.bincount(community, weights=deg, minlength=k)
    q = internal / two_m
    q -= resolution * sum((s / two_m) ** 2 for s in tot)
    return q


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


# Visits that the first step of ``_unmoved`` scores; each later step doubles,
# up to _CONFIRM_CELLS cells (visits x communities).
_FIRST_STEP = 64
_CONFIRM_CELLS = 1 << 16


def _local_moving(indptr, indices, data, deg, order, two_m: float, resolution: float):
    """Phase 1: greedy node moves.  Returns (community of each node, moved?).

    The first sweep visits one node at a time.  Every later sweep first
    confirms its leading visits that keep their community (``_unmoved``), then
    visits one node at a time from the first that moves.
    """
    n = len(deg)
    rows = [(indices[a:b], data[a:b]) for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    visits = np.array(order)
    comm = np.arange(n)
    tot = deg.copy()
    degrees = deg.tolist()
    # with every weight > 0, i's candidates are the communities it has weight to
    positive = len(data) == 0 or bool(data.min() > 0)
    score, cost, other = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    any_move = False
    start = 0
    while True:
        moved_in_sweep = False
        for i in order[start:]:
            ki = degrees[i]
            cur = comm[i]
            nbr_comm = comm[rows[i][0]]
            # weight from i to each community (i excluded); candidates are the
            # communities of i's neighbours, whatever their weights sum to
            w_to = np.bincount(nbr_comm, weights=rows[i][1], minlength=n)
            np.equal(w_to if positive else np.bincount(nbr_comm, minlength=n), 0, out=other)
            other[cur] = False
            # take i out while scoring candidates
            tot[cur] -= ki
            # as _unmoved scores; not w_to / (two_m / 2), inexact when two_m is subnormal
            np.divide(np.multiply(2.0, w_to, out=score), two_m, out=score)
            np.divide(np.multiply(resolution * 2.0 * ki, tot, out=cost), two_m * two_m, out=cost)
            np.subtract(score, cost, out=score)
            score[other] = -np.inf
            best = int(score.argmax())  # smallest label among the best
            if score[cur] == score[best]:
                best = cur  # stay on ties: bias toward stability
            tot[best] += ki
            if best != cur:
                comm[i] = best
                moved_in_sweep = True
                any_move = True
        if not moved_in_sweep:
            break
        start = _unmoved(indptr, indices, data, visits, comm, tot, deg, two_m, resolution)
        if start == n:
            break
    return comm, any_move


def _rows_of(indptr, indices, data, nodes: np.ndarray):
    """The rows of ``nodes``, one after another: the length of each, and each
    entry's neighbour and weight."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    ptr = np.zeros(len(nodes) + 1, dtype=np.intp)
    np.cumsum(lengths, out=ptr[1:])
    take = np.repeat(starts - ptr[:-1], lengths)
    take += np.arange(ptr[-1])
    return lengths, indices[take], data[take]


def _unmoved(indptr, indices, data, order: np.ndarray, comm, tot, deg, two_m: float,
             resolution: float) -> int:
    """Number of leading visits of a sweep in ``order`` that keep their
    community, with ``tot`` advanced past them exactly as visiting them one at
    a time would.

    Scores the visits at once on the guess that none moves, in steps of
    _FIRST_STEP visits that double up to _CONFIRM_CELLS cells, so a visit that
    moves early is found after few visits are scored.  Each step gathers its
    own rows.  Only the communities in use can be candidates; they are
    relabelled 0..k-1 in label order, which keeps the smallest-label tie rule.
    Scores are computed as ``_local_moving`` does, operation by operation, so
    a visit keeps its community here exactly when it would there.
    """
    positive = len(data) == 0 or bool(data.min() > 0)
    labels, lab = np.unique(comm, return_inverse=True)
    k = len(labels)
    running = tot[labels].tolist()
    most = max(1, _CONFIRM_CELLS // k)
    step = min(_FIRST_STEP, most)
    p = 0
    while p < len(order):
        q = min(p + step, len(order))
        m = q - p
        nodes = order[p:q]
        lengths, nbr, weight = _rows_of(indptr, indices, data, nodes)
        # each visit's weight to each community, added in row order
        code = lab[nbr]
        del nbr
        code += np.repeat(np.arange(0, m * k, k), lengths)
        w_to = np.bincount(code, weights=weight, minlength=m * k).reshape(m, k)
        candidate = (w_to if positive else np.bincount(code, minlength=m * k).reshape(m, k)) != 0
        del code, weight
        own, ki = lab[nodes], deg[nodes]
        # a visit that stays leaves its community's total at (tot - ki) + ki
        start_tot = np.array(running)
        after = np.empty(m)
        for t, (c, x) in enumerate(zip(own.tolist(), ki.tolist())):
            running[c] = after[t] = (running[c] - x) + x
        # totals before each visit: for each community, the value after its
        # last earlier visit in this step, else the value at the step's start
        last = np.zeros((m, k), dtype=np.intp)
        last[np.arange(1, m), own[:-1]] = np.arange(1, m)
        np.maximum.accumulate(last, axis=0, out=last)
        before = np.where(last == 0, start_tot, after[last - 1])
        at = (np.arange(m), own)
        seen = before.copy()
        seen[at] -= ki
        score = (2.0 * w_to) / two_m - resolution * 2.0 * ki[:, None] * seen / (two_m * two_m)
        candidate[at] = True
        score[~candidate] = -np.inf
        moves = np.flatnonzero(score.max(axis=1) != score[at])
        if len(moves):
            tot[labels] = before[moves[0]]
            return p + int(moves[0])
        p, step = q, min(2 * step, most)
    tot[labels] = running
    return len(order)


def _aggregate(indptr, indices, data, selfw, new: np.ndarray, k: int):
    """Phase 2: contract communities into super-nodes with self-loop weights.

    ``new`` maps each node to its super-node 0..k-1.  Every sum adds its terms
    in the order the nodes, and within a node its entries, come; a super-node
    lists first its higher neighbours in the order they were first reached,
    then its lower ones in ascending order.  Each entry-sized array is freed
    once used, so that no more than two live beside the rows.
    """
    ci, cj = np.repeat(new, np.diff(indptr)), new[indices]
    up, apart = ci < cj, ci != cj
    cj = cj[up]
    codes = ci[up]
    codes *= k
    codes += cj
    del cj
    codes = codes.astype(np.min_scalar_type(k * k))
    # each entry's bin is its super-node's when internal, else bin k, which
    # collects the rest; each node's own self-loop weight comes just before
    # its entries
    ci[apart] = k
    del apart
    target = np.insert(ci, indptr[:-1], new)
    del ci
    weight = np.insert(data, indptr[:-1], selfw)
    new_selfw = np.bincount(target, weights=weight, minlength=k + 1)[:k]
    del target, weight

    pairs, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    w = np.bincount(inverse, weights=data[up])
    a, b = np.divmod(pairs.astype(np.intp), k)
    rows, cols, w = np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w])
    # by row; within a row higher neighbours by first contribution, then lower
    # ones by index
    lower = np.repeat([False, True], len(pairs))
    order = np.lexsort((np.concatenate([first, a]), lower, rows))
    indptr = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])
    return indptr, cols[order], w[order], new_selfw


def louvain(
    net: CorrelationNetwork,
    seed: int = 0,
    resolution: float = 1.0,
) -> Partition:
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
    indptr, indices, data = _csr(net.n, net.src, net.dst, net.weight)
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
        row = np.repeat(np.arange(n), np.diff(indptr))
        deg = np.bincount(row, weights=data, minlength=n) + selfw
        del row
        if node_deg is None:
            node_deg = deg  # each node's edge weights, added in edge order
        order = sorted(range(n), key=canon.__getitem__)
        rng.shuffle(order)
        comm, improved = _local_moving(indptr, indices, data, deg, order, two_m, resolution)
        if not improved:
            break
        labels, new = np.unique(comm, return_inverse=True)
        indptr, indices, data, selfw = _aggregate(indptr, indices, data, selfw, new, len(labels))
        node_of = new[node_of]
        new_canon = [None] * len(labels)
        for sup, name in zip(new.tolist(), canon):
            if new_canon[sup] is None or name < new_canon[sup]:
                new_canon[sup] = name
        canon = new_canon

    # dense labels by descending size, ties by smallest member node index
    members: dict[int, list[int]] = {}
    for node, sup in enumerate(node_of.tolist()):
        members.setdefault(sup, []).append(node)
    ranked = sorted(members.values(), key=lambda nodes: (-len(nodes), nodes[0]))
    assignment = {}
    for label, nodes in enumerate(ranked):
        for node in nodes:
            assignment[node] = label
    # modularity_of's labels: communities in order of their first node
    first_seen = np.empty(net.n, dtype=np.intp)
    for label, nodes in enumerate(members.values()):
        first_seen[nodes] = label
    q = _modularity(net, first_seen, len(members), node_deg, two_m, resolution)
    return Partition(assignment=assignment, modularity=q)


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


def brute_force_best(net: CorrelationNetwork) -> Partition:
    """Exact modularity maximum by enumerating every set partition.

    Intended as a test oracle; limited to 12 nodes.  Ties go to the
    lexicographically smallest canonical label vector.
    """
    if not len(net.weight):
        raise InsufficientStructureError("network has no edges")
    if net.n > BRUTE_FORCE_MAX_NODES:
        raise PartitionSizeError(
            f"{net.n} nodes exceeds the enumeration limit of {BRUTE_FORCE_MAX_NODES}"
        )
    adj = net.adjacency()
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
    assignment = {i: lab for i, lab in enumerate(best)}
    return Partition(assignment=assignment, modularity=best_q)


def compare_partitions(p: Partition, q: Partition):
    """Pairwise agreement (Rand index) plus a best-Jaccard community map.

    Computed over the intersection of the two node sets.  Returns
    (agreement, {p_label: (q_label, jaccard)}).
    """
    common = sorted(set(p.assignment) & set(q.assignment))
    if not common:
        raise ComparisonError("partitions share no nodes")
    n = len(common)
    # contingency counts
    cont: dict[tuple[int, int], int] = {}
    p_sizes: dict[int, int] = {}
    q_sizes: dict[int, int] = {}
    for node in common:
        a, b = p.assignment[node], q.assignment[node]
        cont[(a, b)] = cont.get((a, b), 0) + 1
        p_sizes[a] = p_sizes.get(a, 0) + 1
        q_sizes[b] = q_sizes.get(b, 0) + 1

    def choose2(x):
        return x * (x - 1) // 2

    total = choose2(n)
    same_both = sum(choose2(c) for c in cont.values())
    same_p = sum(choose2(c) for c in p_sizes.values())
    same_q = sum(choose2(c) for c in q_sizes.values())
    diff_both = total - same_p - same_q + same_both
    agreement = 1.0 if total == 0 else (same_both + diff_both) / total

    jaccard_map = {}
    for a, size_a in p_sizes.items():
        best_lab, best_j = None, -1.0
        for b, size_b in sorted(q_sizes.items()):
            inter = cont.get((a, b), 0)
            j = inter / (size_a + size_b - inter)
            if j > best_j:
                best_lab, best_j = b, j
        jaccard_map[a] = (best_lab, best_j)
    return agreement, jaccard_map


def write_partition_csv(net: CorrelationNetwork, part: Partition, stream) -> None:
    """CSV ``region,community`` with dense labels."""
    stream.write("region,community\n")
    names = [csv_field(key.display) for key in net.nodes]
    write_rows(stream, "%s,%d\n", names, [part.assignment[i] for i in range(net.n)])

