import importlib
import itertools
import sys
import tracemalloc
from pathlib import Path

# epinet before numpy: it pins OpenBLAS to one thread before numpy loads, so
# this process has one thread, as an epinet command has, and the grid may fork
import epinet  # noqa: F401
import numpy as np
import pytest

from epinet.ingest import RegionKey, parse_cases_csv
from epinet.netbuild import CorrelationNetwork
from epinet.transform import to_exponent_series
from oracles import planted_panel


def make_net(n, edges, rho=0.0):
    """Small hand-built network with nodes N00..N<n-1> and ``(a, b, w)`` edges."""
    src, dst, weight = (np.array(col) for col in zip(*edges)) if edges else ([], [], [])
    return CorrelationNetwork(
        keys=[RegionKey(country=f"N{i:02d}") for i in range(n)],
        rows=np.arange(n),
        src=np.asarray(src, dtype=np.intp),
        dst=np.asarray(dst, dtype=np.intp),
        weight=np.asarray(weight, dtype=float),
        rho=rho,
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
    return planted_panel()


def perfbench_module(name):
    """The module ``name`` of ``perfbench/``, imported with that directory on
    the path, since its modules import their siblings."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(perfbench)


def benchmark_csv(workload):
    """The CSV text and planted groups of a benchmark input at seed 1, as
    ``perfbench/inputs.py`` makes them; ``pipeline-999`` and ``grid-999`` are
    its shapes at 333 regions per group."""
    inputs = perfbench_module("inputs")
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(inputs.SHAPES, "pipeline-999", (333, False))
        patch.setitem(inputs.SHAPES, "grid-999", (333, True))
        made = inputs.make_inputs(workload, seed=1)
    return made.wide_csv(), made.groups


@pytest.fixture(scope="session")
def benchmark_input(tmp_path_factory):
    """``benchmark_input(workload)``: the path of ``benchmark_csv(workload)``'s
    text, written once per session, and its planted groups."""
    written = {}

    def write(workload):
        if workload not in written:
            text, groups = benchmark_csv(workload)
            path = tmp_path_factory.mktemp("inputs") / f"{workload}.csv"
            path.write_text(text)
            written[workload] = path, groups
        return written[workload]

    return write


@pytest.fixture(scope="session")
def cases_300(benchmark_input):
    """The cases of the benchmark's ``pipeline-300`` input at seed 1: 300
    regions in 3 groups over 859 days."""
    return parse_cases_csv(benchmark_input("pipeline-300")[0].read_bytes())


@pytest.fixture(scope="session")
def grid_300(benchmark_input):
    """The cases of the benchmark's ``grid-300`` input at seed 1: as
    ``cases_300``, with a reporting artefact in about half of the regions
    that clipping bites on at every alpha of the grid."""
    return parse_cases_csv(benchmark_input("grid-300")[0].read_bytes())


@pytest.fixture(scope="session")
def exponents_300(cases_300):
    """The exponents of ``cases_300`` at the CLI's default alpha of 7."""
    return to_exponent_series(cases_300, alpha=7.0)


def traced_peak(call, *args):
    """``call(*args)`` and the most bytes that it held allocated at once, by
    tracemalloc's count: its temporaries and its result, not its arguments."""
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
