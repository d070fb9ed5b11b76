import csv
import dataclasses
import io
import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    bridge_of_triangles,
    clique_edges,
    make_net,
    small_graph_suite,
    traced_peak,
)
from epinet import analysis, community
from epinet.analysis import REFERENCE
from epinet.cli import RunConfig, load_cases, partition_summary
from epinet.community import Partition, compare_partitions, louvain, write_partition_csv
from epinet.errors import ComparisonError, InsufficientStructureError
from epinet.netbuild import build_network
from epinet.transform import to_exponent_series
from oracles import PartitionSizeError, adjacency, brute_force_best, certified_optimum
from test_netbuild import awkward_network


class TestModularityOf:
    """The Q oracle, ``reference_modularity``, against hand values and the
    dense formula; ``louvain``'s Q is checked against it."""

    def test_single_community_is_zero(self):
        net = make_net(5, clique_edges(range(5), 0.7))
        q = reference_modularity(net, [0] * 5)
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_bridge_of_triangles_hand_value(self):
        net = bridge_of_triangles()
        q = reference_modularity(net, [0, 0, 0, 1, 1, 1])
        assert q == pytest.approx(5 / 14, abs=1e-12)

    def test_all_singletons(self):
        net = make_net(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        q = reference_modularity(net, range(4))
        # no internal edges: Q = -sum (k_i/2m)^2
        deg = [1, 2, 2, 1]
        expected = -sum((k / 6) ** 2 for k in deg)
        assert q == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        suite = small_graph_suite()
        rng = np.random.default_rng(0)
        for net in suite.values():
            labels = rng.integers(0, 3, size=net.n)
            q = reference_modularity(net, labels)
            assert -0.5 - 1e-12 <= q <= 1.0

    def test_matches_dense_formula_with_negative_weights(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(60):
            net = random_net(rng, int(rng.integers(2, 25)), low=-0.6)
            adj = adjacency(net)
            two_m = adj.sum()
            if len(net.weight) == 0 or two_m <= 0:
                continue
            k = adj.sum(axis=1)
            labels = rng.integers(0, 4, size=net.n)
            same = labels[:, None] == labels[None, :]
            want = float((adj - np.outer(k, k) / two_m)[same].sum()) / two_m
            assert reference_modularity(net, labels) == pytest.approx(want, abs=1e-12)
            part = louvain(net)
            assert part.modularity == reference_modularity(net, part.labels)
            checked += 1
        assert checked > 40


# the Louvain seeds that the comparisons with the references run at
SEEDS = (0, 3, 7)


def random_net(rng, n, low=0.0, p=0.5, unit=False):
    """Random graph on n nodes with weights uniform in [low, 1), or all 1."""
    pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p]
    weights = np.ones(len(pairs)) if unit else rng.uniform(low, 1.0, len(pairs))
    return make_net(n, [(a, b, w) for (a, b), w in zip(pairs, weights)])


def ring(k):
    """A ring of ``len(k)`` nodes, each joined to the next by weight 0.1 k_i."""
    n = len(k)
    return make_net(n, [(min(i, (i + 1) % n), max(i, (i + 1) % n), 0.1 * k[i]) for i in range(n)])


def added_in_order(values):
    """One addition at a time (``sum`` of floats compensates from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_modularity(net, labels):
    """Edge-by-edge Q of one label per node, any integers, summing in the
    order that ``louvain`` keeps: degrees, 2m and the internal weight edge by
    edge, the community totals in order of their first node."""
    two_m = 2.0 * added_in_order(w for _, _, w in net.edges)
    deg = np.zeros(net.n)
    internal = 0.0
    for a, b, w in net.edges:
        deg[a] += w
        deg[b] += w
        if labels[a] == labels[b]:
            internal += 2.0 * w
    tot = {}
    for i in range(net.n):
        tot[labels[i]] = tot.get(labels[i], 0.0) + deg[i]
    q = internal / two_m
    q -= added_in_order((s / two_m) ** 2 for s in tot.values())
    return q


def test_modularity_adds_the_community_totals_in_order():
    """Q adds the squared community totals one at a time, in label order, on
    every Python; a compensated sum, as ``sum`` of floats is from Python 3.12,
    rounds these totals differently."""
    deg = np.array([1.0, 1e-8, 1e-8])  # each node its own community; 2m = 1
    squares = [s ** 2 for s in deg]
    assert math.fsum(squares) != added_in_order(squares)
    q = community._modularity(make_net(3, []), np.arange(3), 3, deg, 1.0)
    assert q == -added_in_order(squares)


def reference_louvain(net, seed=0):
    """Louvain on adjacency dicts, with the visit order, scores, tie rules,
    sum orders and final labelling that ``louvain`` keeps on CSR arrays.

    Each level is an edge list and its nodes' self-loop weights; a node's
    dict lists its neighbours in edge order.  A contracted level lists the
    pairs of super-nodes in ascending order, so every node there lists its
    neighbours in ascending order."""
    two_m = 2.0 * added_in_order(w for _, _, w in net.edges)
    edges = net.edges
    selfw = [0.0] * net.n
    rng = random.Random(seed)
    canon = [key.display for key in net.nodes]
    node_of = list(range(net.n))
    while True:
        n = len(canon)
        nbrs = [dict() for _ in range(n)]
        for a, b, w in edges:
            nbrs[a][b] = nbrs[a].get(b, 0.0) + w
            nbrs[b][a] = nbrs[b].get(a, 0.0) + w
        deg = [added_in_order(nb.values()) + s for nb, s in zip(nbrs, selfw)]
        order = sorted(range(n), key=lambda i: canon[i])
        rng.shuffle(order)
        comm, tot, improved, moved = list(range(n)), list(deg), False, True
        while moved:
            moved = False
            for i in order:
                ki, cur = deg[i], comm[i]
                w_to = {}
                for j, w in nbrs[i].items():
                    w_to[comm[j]] = w_to.get(comm[j], 0.0) + w
                own = tot[cur]
                tot[cur] = own - ki
                scores = {
                    c: (2.0 * w_to.get(c, 0.0)) / two_m
                    - 2.0 * ki * tot[c] / (two_m * two_m)
                    for c in set(w_to) | {cur}
                }
                top = max(scores.values())
                best = cur if scores[cur] == top else min(c for c, v in scores.items() if v == top)
                if best == cur:
                    tot[cur] = own  # a stay restores the total it read
                else:
                    tot[best] += ki
                    comm[i] = best
                    moved = improved = True
        if not improved:
            break
        remap = {lab: idx for idx, lab in enumerate(sorted(set(comm)))}
        k = len(remap)
        # a super-node's self-loop: its members' self-loops in node order,
        # then twice each edge inside it in edge order
        new_self = [0.0] * k
        for i in range(n):
            new_self[remap[comm[i]]] += selfw[i]
        between = {}
        for a, b, w in edges:
            ca, cb = remap[comm[a]], remap[comm[b]]
            if ca == cb:
                new_self[ca] += 2.0 * w
            else:
                pair = (min(ca, cb), max(ca, cb))
                between[pair] = between.get(pair, 0.0) + w
        new_canon = [None] * k
        for i, name in enumerate(canon):
            sup = remap[comm[i]]
            if new_canon[sup] is None or name < new_canon[sup]:
                new_canon[sup] = name
        edges = [(a, b, w) for (a, b), w in sorted(between.items())]
        selfw, canon = new_self, new_canon
        node_of = [remap[comm[c]] for c in node_of]
    return reference_ranking(node_of)


def reference_ranking(node_of):
    """Each node's label from its super-node, through a dict of members:
    communities by descending size, ties by smallest member node index."""
    members = {}
    for node, sup in enumerate(node_of):
        members.setdefault(sup, []).append(node)
    ranked = sorted(members.values(), key=lambda nodes: (-len(nodes), nodes[0]))
    assignment = {}
    for label, nodes in enumerate(ranked):
        for node in nodes:
            assignment[node] = label
    return [assignment[node] for node in range(len(node_of))]


def tie_by_sum_order():
    """An 8-node graph on which, at seeds 0 and 1, a tie is settled by the
    order in which the contracted pair weights are added: summed in edge order
    over ascending pairs, Louvain ends in [0,0,1,2,1,0,2,0]; summed by row,
    each row's higher neighbours first, in [0,1,2,0,2,0,0,1], at the same Q
    0.199129."""
    return make_net(8, [(0, 1, 0.2), (0, 3, 0.6), (0, 4, 0.3), (0, 5, 0.8), (0, 7, 0.8),
                        (1, 5, 0.1), (1, 7, 0.9), (2, 4, 0.9), (3, 5, 0.6), (3, 6, 0.8),
                        (5, 6, 0.4), (5, 7, 0.6), (6, 7, 0.8)])


def spy_settled(monkeypatch):
    """Count the visits that ``_settled`` decides and those it leaves to
    scoring every candidate."""
    paths = Counter()
    settled = community._settled

    def spy(*args):
        best = settled(*args)
        paths["scored" if best is None else "settled"] += 1
        return best

    monkeypatch.setattr(community, "_settled", spy)
    return paths


def scored_choice(w_to, cur, tot, ki, two_m):
    """The visit's choice from the score of every candidate (``cur`` and each
    community with weight), ``tot`` without the visit's node: the best, on a
    tie ``cur``, else the smallest label."""
    scores = {
        c: (2.0 * w_to[c]) / two_m - 2.0 * ki * tot[c] / (two_m * two_m)
        for c in set(np.flatnonzero(w_to).tolist()) | {cur}
    }
    top = max(scores.values())
    return cur if scores[cur] == top else min(c for c, v in scores.items() if v == top)


def multilevel_nets():
    """Graphs whose levels hold an edgeless super-node, neighbour communities
    whose weights add up to exactly 0, and negative weights."""
    # a ring of 12 triangles merges at level 1, where the lone triangle beside
    # it is a super-node without edges
    ring = []
    for c in range(12):
        ring += clique_edges(range(3 * c, 3 * c + 3))
        ring.append((3 * c + 2, (3 * c + 3) % 36, 1.0))
    nets = [make_net(39, [(min(a, b), max(a, b), w) for a, b, w in ring]
                     + clique_edges([36, 37, 38]))]
    rng = np.random.default_rng(1)
    for _ in range(8):
        # weights of +-0.5 and +-1 can add up to exactly 0
        n = int(rng.integers(6, 16))
        pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        weights = rng.choice([-1.0, -0.5, 0.5, 1.0], len(pairs))
        nets.append(make_net(n, [(a, b, w) for (a, b), w in zip(pairs, weights)]))
    for _ in range(6):
        nets.append(random_net(rng, int(rng.integers(5, 40)), low=-0.2, p=0.3))
    return [net for net in nets if len(net.weight) and net.weight.sum() > 0]


class TestBruteForce:
    def test_no_edges_raises(self):
        net = make_net(1, [])
        with pytest.raises(InsufficientStructureError):
            brute_force_best(net)

    def test_too_many_nodes(self):
        net = make_net(13, [(i, i + 1, 1.0) for i in range(12)])
        with pytest.raises(PartitionSizeError):
            brute_force_best(net)

    def test_two_nodes_one_edge(self):
        net = make_net(2, [(0, 1, 0.5)])
        part = brute_force_best(net)
        assert part.labels.tolist() == [0, 0]
        assert part.modularity == pytest.approx(0.0, abs=1e-12)

    def test_bridge_of_triangles(self):
        part = brute_force_best(bridge_of_triangles())
        assert part.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert part.modularity == pytest.approx(5 / 14, abs=1e-12)

    def test_matches_stored_modularity(self):
        net = bridge_of_triangles()
        part = brute_force_best(net)
        assert reference_modularity(net, part.labels) == pytest.approx(
            part.modularity, abs=1e-12
        )


class TestCertifiedOptimum:
    """``certified_optimum``, the integer program, against enumeration, and as
    the maximum that Louvain's Q never passes."""

    def test_equals_brute_force(self):
        rng = np.random.default_rng(12)
        nets = list(small_graph_suite().values())
        for idx, n in enumerate(list(range(3, 11)) * 2):
            kind = idx % 3
            nets.append(random_net(rng, n, low=-0.4 if kind == 0 else 0.0, unit=kind == 1))
        checked = 0
        for net in nets:
            if len(net.weight) == 0 or net.weight.sum() <= 0:
                continue
            opt = certified_optimum(net)
            assert opt.modularity == pytest.approx(brute_force_best(net).modularity, abs=1e-12)
            assert opt.modularity == pytest.approx(reference_modularity(net, opt.labels), abs=1e-12)
            checked += 1
        assert checked >= len(small_graph_suite()) + 12

    def test_louvain_never_exceeds_it(self):
        rng = np.random.default_rng(14)
        nets = []
        for idx in range(24):
            n = int(rng.integers(14, 21))
            kind = idx % 4
            if kind == 0:
                nets.append(random_net(rng, n, p=0.2))
            elif kind == 1:
                nets.append(random_net(rng, n, p=0.2, unit=True))
            elif kind == 2:
                net = random_net(rng, n, p=0.2)
                nets.append(dataclasses.replace(net, weight=np.ceil(10 * net.weight) / 10))
            else:
                nets.append(random_net(rng, n, low=-0.4, p=0.25))
        below = Counter()
        for net in nets:
            if len(net.weight) == 0 or net.weight.sum() <= 0:
                continue
            opt = certified_optimum(net).modularity
            for seed in (0, 1, 5):
                q = louvain(net, seed=seed).modularity
                # the two Qs add their terms in other orders: equal maxima may
                # differ in the last bits
                assert q <= opt + 1e-12, (net.n, seed, q, opt)
                below[q < opt - 1e-12] += 1
        assert below[True] and below[False], below
        # where the contracted sum order changes a decision, both partitions
        # score 0.199129 of the optimum 0.199129
        net = tie_by_sum_order()
        assert round(certified_optimum(net).modularity, 6) == 0.199129
        assert [round(louvain(net, seed=s).modularity, 6) for s in (0, 1)] == [0.199129] * 2


class TestLouvain:
    def test_edgeless_raises(self):
        with pytest.raises(InsufficientStructureError):
            louvain(make_net(3, []))

    def test_bridge_of_triangles(self):
        part = louvain(bridge_of_triangles())
        assert part.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert part.modularity == pytest.approx(5 / 14, abs=1e-12)

    def test_complete_graph_single_community(self):
        net = make_net(6, clique_edges(range(6)))
        part = louvain(net)
        assert part.num_communities == 1
        assert part.modularity == pytest.approx(brute_force_best(net).modularity, abs=1e-12)

    def test_oracle_equivalence_on_suite(self):
        for name, net in small_graph_suite().items():
            lv = louvain(net, seed=0)
            bf = brute_force_best(net)
            assert lv.modularity == pytest.approx(bf.modularity, abs=1e-12), name

    def test_determinism(self):
        net = bridge_of_triangles()
        a = louvain(net, seed=17)
        b = louvain(net, seed=17)
        assert np.array_equal(a.labels, b.labels)
        assert a.modularity == b.modularity

    def test_stored_modularity_matches_recompute(self):
        for net in small_graph_suite().values():
            part = louvain(net, seed=0)
            assert reference_modularity(net, part.labels) == pytest.approx(
                part.modularity, abs=1e-12
            )

    def test_final_q_at_least_trivial(self):
        for net in small_graph_suite().values():
            assert louvain(net, seed=0).modularity >= -1e-12

    def test_dense_labels_ordered_by_size(self):
        net = make_net(
            7, clique_edges([0, 1, 2, 3], 1.0) + clique_edges([4, 5, 6], 1.0) + [(3, 4, 0.05)]
        )
        part = louvain(net)
        sizes = np.bincount(part.labels).tolist()
        assert sizes == sorted(sizes, reverse=True)
        assert set(part.labels.tolist()) == set(range(part.num_communities))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        net = small_graph_suite()["weighted_blocks"]
        base = louvain(net, seed=3)
        for _ in range(5):
            perm = rng.permutation(net.n)
            inv = {int(old): int(new) for new, old in enumerate(perm)}
            pnodes = [net.nodes[int(old)] for old in perm]
            pedges = [
                (min(inv[a], inv[b]), max(inv[a], inv[b]), w) for a, b, w in net.edges
            ]
            pnet = make_net(net.n, pedges)
            pnet.keys = pnodes
            part = louvain(pnet, seed=3)
            assert part.modularity == pytest.approx(base.modularity, abs=1e-12)
            # same partition up to relabeling: compare by region key groupings
            def groups(n_, p_):
                out = {}
                for i, lab in enumerate(p_.labels.tolist()):
                    out.setdefault(lab, set()).add(n_.nodes[i].display)
                return sorted(map(frozenset, out.values()), key=sorted)

            assert groups(net, base) == groups(pnet, part)

    def test_same_decisions_as_dict_reference(self, monkeypatch):
        paths = spy_settled(monkeypatch)
        rng = np.random.default_rng(5)
        nets = list(small_graph_suite().values()) + [
            # a neighbour community whose weights sum to exactly 0 is still a
            # candidate (it is the best move here: its total degree is negative)
            make_net(7, [(0, 2, -1.0), (0, 5, 1.0), (0, 6, 0.5), (2, 4, -0.5), (2, 6, 0.5),
                         (3, 4, -0.5), (3, 6, -1.0), (4, 6, 1.0), (5, 6, 0.5)]),
            tie_by_sum_order(),
            # at seed 3, a stay that wrote back (total - ki) + ki would round a
            # total and end at Q 0.617347, not 0.619898
            ring([1, 1, 2, 3, 1, 1, 2, 2, 1, 1, 2, 2, 1, 2, 2, 1, 2, 1]),
        ]
        for idx in range(18):
            n = int(rng.integers(5, 40))
            if idx % 3 == 0:
                nets.append(random_net(rng, n, low=-0.4))  # negative weights
            elif idx % 3 == 1:
                nets.append(random_net(rng, n, unit=True))  # exact ties
            else:
                nets.append(random_net(rng, n, p=0.2))
        for net in nets + multilevel_nets():
            if len(net.weight) == 0 or net.weight.sum() <= 0:
                continue
            for seed in SEEDS:
                part = louvain(net, seed=seed)
                assert part.labels.tolist() == reference_louvain(net, seed)
                assert part.modularity == reference_modularity(net, part.labels)
        # a ring on which, at seed 1, a stay that wrote back (total - ki) + ki
        # rather than the total it read would round a total and end at Q 0.666282
        net = ring([1, 2, 3, 1, 1, 3, 2, 1, 1, 1, 1, 3, 2, 3, 3, 3, 1, 1, 2, 2, 1, 3, 2, 2, 2, 3, 1])
        part = louvain(net, seed=1)
        assert part.labels.tolist() == reference_louvain(net, 1)
        assert round(part.modularity, 6) == 0.668589
        assert paths["settled"] and paths["scored"], paths

    def test_grid_300_networks_take_both_paths(self, monkeypatch, grid_300):
        """Most visits of the 18 grid networks are settled by ``_settled``; the
        grid goldens pin their partitions."""
        paths = spy_settled(monkeypatch)
        monkeypatch.setattr(analysis, "_grid_processes", lambda: 1)
        cells = analysis.run_grid(grid_300)
        assert [c.error for c in cells] == [None] * 18
        assert paths["settled"] > 10 * paths["scored"] > 0, paths

    def test_settled_equals_scoring_every_candidate(self):
        """On states with exact ties, at the bound too: ``_settled`` decides as
        scoring every candidate does, or returns None and leaves ``w_to`` as
        it was."""
        rng = np.random.default_rng(3)
        met = Counter()
        for _ in range(3000):
            n = int(rng.integers(2, 7))
            # dyadic weights and totals, so that many scores tie exactly
            w_to = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], n)
            tot = rng.choice([0.5, 1.0, 2.0, 3.0, 5.0], n)
            cur, ki = int(rng.integers(n)), float(rng.choice([0.0, 1.0, 2.0, 4.0]))
            tot[cur] -= ki  # the visit takes its node out
            low = float(np.delete(tot, cur).min()) if n > 1 else 0.0
            two_m = 16.0
            want = scored_choice(w_to, cur, tot, ki, two_m)
            before = w_to.copy()
            got = community._settled(w_to, cur, tot, ki, low, two_m)
            if got is None:
                assert np.array_equal(w_to, before)
            else:
                assert got == want
            met["scored" if got is None else "moves" if got != cur else "stays"] += 1
        assert all(met[case] for case in ("scored", "moves", "stays")), met

    def test_the_bound_is_at_most_every_other_total(self, monkeypatch):
        """At every visit that ``_settled`` sees, ``low`` is at most every total
        but the visiting node's own, through moves and stays, and at some
        visits it equals the least of them."""
        settled = community._settled
        met = Counter()

        def checked(w_to, cur, tot, ki, low, two_m):
            others = np.delete(tot, cur)
            assert not len(others) or low <= others.min()
            met["visits"] += 1
            met["tight"] += bool(len(others) and low == others.min())
            return settled(w_to, cur, tot, ki, low, two_m)

        monkeypatch.setattr(community, "_settled", checked)
        for net in list(small_graph_suite().values()) + multilevel_nets():
            if net.weight.min() <= 0:
                continue
            for seed in SEEDS:
                part = louvain(net, seed=seed)
                assert part.labels.tolist() == reference_louvain(net, seed)
        assert met["visits"] > met["tight"] > 0, met

    @pytest.mark.parametrize("graphs", ["community", "planted", "cases_300"])
    def test_labels_equal_the_ranking_reference(self, monkeypatch, request, graphs):
        """The labels rank the super-nodes that the nodes end in as the dict
        loop does, and Q adds the communities in order of their first node."""
        if graphs == "community":
            nets = list(small_graph_suite().values()) + multilevel_nets()
        elif graphs == "planted":
            nets = [build_network(to_exponent_series(request.getfixturevalue("planted")[0]),
                                  rho=0.0)]
        else:
            nets = [build_network(request.getfixturevalue("exponents_300"), rho=0.0)]
        node_of = []
        first_seen = community._first_seen

        def spy(labels):  # louvain's one call, on each node's super-node
            node_of.append(labels.tolist())
            return first_seen(labels)

        monkeypatch.setattr(community, "_first_seen", spy)
        for net in nets:
            for seed in SEEDS:
                node_of.clear()
                part = louvain(net, seed=seed)
                assert part.labels.dtype == np.intp and len(node_of) == 1
                assert part.labels.tolist() == reference_ranking(node_of[0])
                assert part.modularity == reference_modularity(net, part.labels)

    @pytest.mark.parametrize("workload", ["pipeline-300", "pipeline-999"])
    def test_louvain_holds_at_most_four_times_its_edge_arrays(self, benchmark_input, workload):
        # the name's bound of four stands, held here to 3.25: the peaks read 3.03 and 3.01
        cases = load_cases(RunConfig(input=benchmark_input(workload)[0]))
        net = build_network(to_exponent_series(cases), rho=0.0)
        edge_bytes = net.src.nbytes + net.dst.nbytes + net.weight.nbytes
        part, peak = traced_peak(louvain, net)
        assert part.num_communities == 3
        assert peak <= 3.25 * edge_bytes, peak / edge_bytes

    def test_int32_endpoints_give_intp_rows_and_the_same_partition(self, planted):
        panel, _ = planted
        net = build_network(to_exponent_series(panel), rho=0.0)
        assert net.src.dtype == net.dst.dtype == np.int32
        indptr, indices, data = community._csr(net.n, net.src, net.dst, net.weight)
        assert indptr.dtype == indices.dtype == np.intp
        # each edge enters both rows, so a row lists its edges in edge order
        rows = np.column_stack([net.src, net.dst]).ravel()
        order = np.argsort(rows, kind="stable")
        assert np.array_equal(indptr[1:], np.cumsum(np.bincount(rows, minlength=net.n)))
        assert np.array_equal(indices, np.column_stack([net.dst, net.src]).ravel()[order])
        assert np.array_equal(data, np.repeat(net.weight, 2)[order])
        wide = dataclasses.replace(net, src=net.src.astype(np.intp), dst=net.dst.astype(np.intp))
        for seed in (0, 5):
            got, want = louvain(net, seed=seed), louvain(wide, seed=seed)
            assert np.array_equal(got.labels, want.labels)
            assert got.modularity == want.modularity

    def test_no_positive_weight_raises(self):
        with pytest.raises(InsufficientStructureError):
            louvain(make_net(3, [(0, 1, 0.5), (1, 2, -0.5)]))


class TestComparePartitions:
    def test_identity(self):
        part = louvain(bridge_of_triangles())
        assert compare_partitions(part, part) == 1.0

    def test_singletons_vs_lump(self):
        p = Partition(labels=np.array([0, 1, 2]), modularity=0.0)
        q = Partition(labels=np.array([0, 0, 0]), modularity=0.0)
        assert compare_partitions(p, q) == 0.0

    def test_partitions_of_other_nodes_raise(self):
        for n_p, n_q in [(12, 11), (0, 0)]:
            p = Partition(labels=np.zeros(n_p, dtype=np.intp), modularity=0.0)
            q = Partition(labels=np.zeros(n_q, dtype=np.intp), modularity=0.0)
            with pytest.raises(ComparisonError):
                compare_partitions(p, q)

    def test_pair_count_oracle(self):
        # brute-force pair enumeration as the independent check; labels may
        # leave gaps, as 0 and 3 alone do
        rng = np.random.default_rng(2)
        label_sets = [(range(3), range(4)), ([0, 3], range(3)), ([2, 5, 6], [1, 4]), ([0], [0, 2])]
        for (used_p, used_q), n in itertools.product(label_sets, (1, 2, 5, 12, 40)):
            p = Partition(labels=rng.choice(used_p, n), modularity=0.0)
            q = Partition(labels=rng.choice(used_q, n), modularity=0.0)
            same = total = 0
            for i, j in itertools.combinations(range(n), 2):
                total += 1
                same += (p.labels[i] == p.labels[j]) == (q.labels[i] == q.labels[j])
            want = 1.0 if total == 0 else pytest.approx(same / total, abs=1e-12)
            assert compare_partitions(p, q) == want


def test_partition_csv_and_summary():
    net = bridge_of_triangles()
    part = louvain(net)
    buf = io.StringIO()
    write_partition_csv(net, part, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "region,community"
    assert len(lines) == 7
    payload = json.loads(json.dumps(partition_summary(part, REFERENCE, 0)))
    assert payload["community_sizes"] == [3, 3]
    assert payload["modularity"] == pytest.approx(5 / 14, rel=1e-8)


def reference_write_partition_csv(net, part, stream):
    """The earlier csv.writer writer, kept as the byte-for-byte reference."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["region", "community"])
    writer.writerows(zip((key.display for key in net.nodes), part.labels.tolist()))


@pytest.mark.parametrize("seed", range(3))
def test_partition_csv_equals_reference_bytes(seed):
    net = awkward_network(seed)
    labels = np.random.default_rng(seed).integers(0, 4, size=net.n)
    part = Partition(labels=labels, modularity=0.0)
    got, expected = io.StringIO(), io.StringIO()
    write_partition_csv(net, part, got)
    reference_write_partition_csv(net, part, expected)
    assert got.getvalue() == expected.getvalue()
