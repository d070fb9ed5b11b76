import itertools

import pytest

from epinet.ingest import Panel, RegionKey
from epinet.netbuild import BuildSettings, CorrelationNetwork, SimilarityMeasure
from epinet.synthetic import make_planted_cases


def make_net(n, edges, rho=0.0, alpha=7.0, measure=SimilarityMeasure.PEARSON):
    """Small hand-built network with nodes N00..N<n-1>."""
    return CorrelationNetwork(
        nodes=[RegionKey(country=f"N{i:02d}") for i in range(n)],
        edges=[(a, b, float(w)) for a, b, w in edges],
        build_settings=BuildSettings(rho=rho, alpha=alpha, measure=measure),
    )


def clique_edges(nodes, w=1.0):
    return [(a, b, w) for a, b in itertools.combinations(nodes, 2)]


def bridge_of_triangles():
    """Two unit-weight triangles joined by one bridge edge; optimum Q = 5/14."""
    return make_net(
        6, clique_edges([0, 1, 2]) + clique_edges([3, 4, 5]) + [(2, 3, 1.0)]
    )


# Connected graphs (<= 8 nodes) on which the greedy optimizer provably
# reaches the brute-force optimum.  Symmetric path/cycle sizes where greedy
# local moving stalls in a local optimum (P6, C8) are deliberately absent.
def small_graph_suite():
    suite = {}
    for n in range(3, 9):
        suite[f"K{n}"] = make_net(n, clique_edges(range(n)))
    suite["bridge_triangles"] = bridge_of_triangles()
    suite["barbell_K4"] = make_net(
        8, clique_edges([0, 1, 2, 3]) + clique_edges([4, 5, 6, 7]) + [(3, 4, 1.0)]
    )
    for n in (4, 5, 7, 8):
        suite[f"P{n}"] = make_net(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    for n in (5, 6, 7):
        suite[f"C{n}"] = make_net(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    suite["star6"] = make_net(6, [(0, i, 1.0) for i in range(1, 6)])
    suite["pair"] = make_net(2, [(0, 1, 0.8)])
    suite["weighted_blocks"] = make_net(
        8,
        clique_edges([0, 1, 2, 3], 0.9)
        + clique_edges([4, 5, 6, 7], 0.8)
        + [(0, 4, 0.1), (1, 5, 0.1)],
    )
    suite["shared_vertex_triangles"] = make_net(
        5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)]
    )
    random_graphs = [
        (6, [(0, 3, 0.857), (0, 4, 0.666), (1, 2, 0.269), (1, 4, 0.641),
             (1, 5, 0.652), (3, 4, 0.668), (3, 5, 0.377)]),
        (6, [(0, 4, 0.344), (1, 2, 0.44), (1, 4, 0.559), (2, 3, 0.61),
             (2, 4, 0.474), (4, 5, 0.646)]),
        (6, [(0, 3, 0.266), (0, 4, 0.727), (0, 5, 0.865), (1, 2, 0.426),
             (1, 3, 0.628), (1, 5, 0.3)]),
        (8, [(0, 3, 0.707), (0, 4, 0.254), (0, 5, 0.33), (0, 6, 0.242),
             (0, 7, 0.321), (1, 2, 0.491), (1, 3, 0.899), (1, 5, 0.402),
             (1, 6, 0.491), (1, 7, 0.879), (2, 6, 0.282), (2, 7, 0.412),
             (3, 5, 0.218), (4, 5, 0.635), (4, 6, 0.622), (6, 7, 0.493)]),
        (6, [(0, 1, 0.282), (0, 3, 0.586), (1, 2, 0.927), (1, 3, 0.715),
             (1, 5, 0.511), (2, 4, 0.911), (3, 5, 0.957)]),
        (8, [(0, 1, 0.635), (0, 3, 0.792), (1, 4, 0.321), (2, 5, 0.313),
             (2, 7, 0.249), (4, 6, 0.353), (4, 7, 0.278), (5, 7, 0.915),
             (6, 7, 0.46)]),
        (8, [(0, 2, 0.422), (0, 6, 0.619), (1, 5, 0.558), (2, 3, 0.737),
             (2, 5, 0.442), (2, 6, 0.822), (3, 6, 0.31), (4, 6, 0.908),
             (4, 7, 0.734), (5, 6, 0.765)]),
        (5, [(0, 2, 0.951), (1, 2, 0.885), (1, 3, 0.89), (2, 3, 0.642),
             (3, 4, 0.303)]),
    ]
    for idx, (n, edges) in enumerate(random_graphs):
        suite[f"rand{idx}"] = make_net(n, edges)
    return suite


@pytest.fixture(scope="session")
def planted():
    """30 synthetic regions in 3 groups of 10 with a planted partition."""
    cases, labels = make_planted_cases()
    return Panel.from_series(cases), labels
