import io
import math
from datetime import date

import numpy as np
import pytest

from epinet.errors import InsufficientDataError
from epinet.ingest import Panel, RegionKey
from epinet.netbuild import (
    MIN_OVERLAP,
    SimilarityMeasure,
    build_network,
    cosine,
    fmt9,
    pearson,
    write_edge_csv,
    write_graphml,
)


def exp_panel(rows, start=date(2021, 1, 1)):
    """Exponent panel from {name: values}; NaN marks an undefined day."""
    return Panel(
        keys=[RegionKey(country=name) for name in rows],
        start=start,
        values=np.array(list(rows.values()), dtype=float),
    )


def ref_pearson(x, y):
    n = len(x)
    if len(set(x)) == 1 or len(set(y)) == 1:
        return None  # zero variance, exactly
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    if dx == 0 or dy == 0:
        return None
    return num / math.sqrt(dx * dy)


def ref_cosine(x, y):
    nx = math.sqrt(sum(a * a for a in x))
    ny = math.sqrt(sum(b * b for b in y))
    if nx == 0 or ny == 0:
        return None
    return sum(a * b for a, b in zip(x, y)) / (nx * ny)


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == 1.0

    def test_anti_correlation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            3 / math.sqrt(2 * 14 / 3), abs=1e-12
        )

    def test_zero_variance_undefined(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None

    def test_too_short_undefined(self):
        assert pearson([1.0], [2.0]) is None

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        for a, b in [(2.0, 5.0), (0.001, -3.0), (1e6, 0.0)]:
            assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-12)


class TestCosine:
    def test_identity(self):
        assert cosine([1, 2], [1, 2]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        assert cosine([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_undefined(self):
        assert cosine([0, 0], [1, 2]) is None


@pytest.mark.parametrize("fn,ref", [(pearson, ref_pearson), (cosine, ref_cosine)])
def test_similarity_matches_independent_oracle(fn, ref):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        x = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        y = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        if rng.random() < 0.05:
            x = np.full(n, rng.normal())  # force the degenerate branch
        got = fn(x, y)
        want = ref(list(x), list(y))
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)

    # build_network on NaN-free panels takes all pairs at once
    measure = SimilarityMeasure(fn.__name__)
    for days in [1, 2] + rng.integers(3, 60, size=30).tolist():
        rows = rng.normal(scale=rng.uniform(0.1, 10), size=(int(rng.integers(2, 9)), days))
        rows[0] = rng.normal()  # constant row
        if rng.random() < 0.5:
            rows[1] = 0.0
        panel = exp_panel({f"R{i}": row for i, row in enumerate(rows)})
        want = {}
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if days >= MIN_OVERLAP:
                    want[(i, j)] = ref(list(rows[i]), list(rows[j]))
        for rho in (-1.0, 0.0, 0.3):
            net = build_network(panel, rho=rho, measure=measure)
            row_of = [panel.keys.index(key) for key in net.nodes]
            got = {(row_of[a], row_of[b]): w for a, b, w in net.edges}
            for pair, r in want.items():
                if r is not None and abs(r - rho) <= 1e-12:
                    got.pop(pair, None)  # too close to rho to call
                elif r is not None and r > rho:
                    assert got.pop(pair) == pytest.approx(r, abs=1e-12)
            assert got == {}


def test_symmetry_full_precision():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    assert pearson(x, y) == pearson(y, x)
    assert cosine(x, y) == cosine(y, x)


class TestBuildNetwork:
    def test_identical_series_triangle(self):
        exps = exp_panel({n: [1, 2, 3, 1, 5] for n in "ABC"})
        net = build_network(exps, rho=0.0)
        assert net.n == 3
        assert sorted((a, b) for a, b, _ in net.edges) == [(0, 1), (0, 2), (1, 2)]
        assert all(w == pytest.approx(1.0, abs=1e-12) for _, _, w in net.edges)

    def test_exact_zero_correlation_excluded(self):
        exps = exp_panel({"A": [1, 2, 3], "B": [1, -1, 1]})
        assert pearson([1, 2, 3], [1, -1, 1]) == 0.0
        net = build_network(exps, rho=0.0)
        assert net.edges == []
        assert net.nodes == []  # isolated regions dropped

    def test_isolated_region_dropped(self):
        exps = exp_panel({
            "A": [1, 2, 3, 4],
            "B": [1, 2, 3, 5],
            "C": [4, 3, 2, 1],  # anti-correlated with both
        })
        net = build_network(exps, rho=0.0)
        assert [k.display for k in net.nodes] == ["A", "B"]
        assert all(k.display != "C" for k in net.nodes)

    def test_pairwise_complete_observations(self):
        # B undefined on the first two days; similarity uses the overlap only
        exps = exp_panel({"A": [5, -5, 1, 2, 3], "B": [np.nan, np.nan, 1, 2, 3]})
        net = build_network(exps, rho=0.0)
        assert len(net.edges) == 1
        assert net.edges[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_min_overlap(self):
        exps = exp_panel({"A": [1, np.nan], "B": [1, 2]})
        net = build_network(exps, rho=-1.0)
        assert net.edges == []

    def test_fewer_than_two_series(self):
        with pytest.raises(InsufficientDataError):
            build_network(exp_panel({"A": [1, 2, 3]}))

    def test_edge_count_monotone_in_rho(self):
        rng = np.random.default_rng(11)
        exps = exp_panel({f"R{i}": rng.normal(size=40) for i in range(8)})
        counts = [
            len(build_network(exps, rho=r).edges) for r in (-1.0, 0.0, 0.3, 0.7, 0.95)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_cosine_measure(self):
        exps = exp_panel({"A": [1, 2], "B": [2, 1]})
        net = build_network(exps, rho=0.0, measure=SimilarityMeasure.COSINE)
        assert net.edges[0][2] == pytest.approx(0.8, abs=1e-12)

    def test_deterministic_serialization(self):
        rng = np.random.default_rng(13)
        exps = exp_panel({f"R{i}": rng.normal(size=30) for i in range(6)})
        outputs = []
        for _ in range(2):
            net = build_network(exps, rho=0.0)
            buf = io.StringIO()
            write_edge_csv(net, buf)
            gbuf = io.StringIO()
            write_graphml(net, gbuf)
            outputs.append((buf.getvalue(), gbuf.getvalue()))
        assert outputs[0] == outputs[1]


def test_fmt9_nine_significant_digits():
    assert fmt9(0.123456789123) == "0.123456789"
    assert fmt9(1.0) == "1"
    assert fmt9(-0.5) == "-0.5"


def test_edge_csv_format():
    exps = exp_panel({"A": [1, 2, 3, 4], "B": [1, 2, 3, 5]})
    net = build_network(exps, rho=0.0)
    buf = io.StringIO()
    write_edge_csv(net, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "source,target,weight"
    assert lines[1].startswith("A,B,0.9")


def test_graphml_well_formed():
    import xml.etree.ElementTree as ET

    exps = exp_panel({"A": [1, 2, 3, 4], "B": [1, 2, 3, 5]})
    net = build_network(exps, rho=0.0)
    buf = io.StringIO()
    write_graphml(net, buf)
    root = ET.fromstring(buf.getvalue())
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    edges = root.findall(f".//{ns}edge")
    assert len(edges) == 1
    weight = float(edges[0].find(f"{ns}data").text)
    assert weight == pytest.approx(net.edges[0][2], rel=1e-8)
