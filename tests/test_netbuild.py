import csv
import io
import math
import re
import warnings
from datetime import date

import numpy as np
import pytest

from conftest import traced_peak
from epinet.errors import InsufficientDataError, ParameterError
from epinet.ingest import Panel, RegionKey
from epinet.netbuild import (
    MIN_OVERLAP,
    XML_FORBIDDEN,
    CorrelationNetwork,
    SimilarityMeasure,
    build_network,
    fmt9,
    write_edge_csv,
    write_graphml,
)


def exp_panel(rows, start=date(2021, 1, 1)):
    """Exponent panel from {name: values}."""
    return Panel(
        keys=[RegionKey(country=name) for name in rows],
        start=start,
        values=np.array(list(rows.values()), dtype=float),
    )


def strict_build(panel, **kwargs):
    """``build_network`` with numpy's floating-point warnings as errors: a
    guard that lets an undefined row reach a division fails here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return build_network(panel, **kwargs)


def similarity(x, y, measure):
    """The weight ``build_network`` gives the pair ``x``, ``y``, or None when
    their similarity is undefined (no edge even at rho = -inf)."""
    net = strict_build(exp_panel({"x": x, "y": y}), rho=-math.inf, measure=measure)
    return float(net.weight[0]) if len(net.weight) else None


def pearson(x, y):
    return similarity(x, y, SimilarityMeasure.PEARSON)


def cosine(x, y):
    return similarity(x, y, SimilarityMeasure.COSINE)


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
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

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
        assert cosine([1, 2], [1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        assert cosine([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_undefined(self):
        assert cosine([0, 0], [1, 2]) is None


@pytest.mark.parametrize("measure,ref", [("pearson", ref_pearson), ("cosine", ref_cosine)])
def test_similarity_matches_independent_oracle(measure, ref):
    measure = SimilarityMeasure(measure)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        x = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        y = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        if rng.random() < 0.05:
            x = np.full(n, rng.normal())  # force the degenerate branch
        got = similarity(x, y, measure)
        want = ref(list(x), list(y))
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)

    # panels of several rows, each pair against the oracle
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
            net = strict_build(panel, rho=rho, measure=measure)
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
    @pytest.mark.parametrize("measure", list(SimilarityMeasure))
    def test_build_holds_at_most_one_and_a_half_panels(self, exponents_300, measure):
        net, peak = traced_peak(build_network, exponents_300, 0.0, measure)
        panel_bytes = exponents_300.values.nbytes
        assert net.n == len(exponents_300)
        assert peak <= 1.5 * panel_bytes, peak / panel_bytes

    def test_identical_series_triangle(self):
        exps = exp_panel({n: [1, 2, 3, 1, 5] for n in "ABC"})
        net = build_network(exps, rho=0.0)
        assert net.n == 3
        assert sorted((a, b) for a, b, _ in net.edges) == [(0, 1), (0, 2), (1, 2)]
        assert all(w == pytest.approx(1.0, abs=1e-12) for _, _, w in net.edges)

    def test_exact_zero_correlation_excluded(self):
        exps = exp_panel({"A": [1, 2, 3], "B": [1, -1, 1]})
        net = build_network(exps, rho=0.0)
        assert net.edges == []
        assert net.nodes == []  # isolated regions dropped
        # centred and orthogonal: both measures give exactly 0, which is not above 0
        exps = exp_panel({"A": [1, 0, -1, 0], "B": [0, 1, 0, -1]})
        for measure in SimilarityMeasure:
            assert build_network(exps, rho=-math.inf, measure=measure).edges == [(0, 1, 0.0)]
            assert build_network(exps, rho=0.0, measure=measure).edges == []

    def test_isolated_region_dropped(self):
        exps = exp_panel({
            "A": [1, 2, 3, 4],
            "B": [1, 2, 3, 5],
            "C": [4, 3, 2, 1],  # anti-correlated with both
        })
        net = build_network(exps, rho=0.0)
        assert [k.display for k in net.nodes] == ["A", "B"]
        assert all(k.display != "C" for k in net.nodes)

    def test_min_overlap(self):
        exps = exp_panel({"A": [1], "B": [2]})
        for measure in SimilarityMeasure:
            assert build_network(exps, rho=-1.0, measure=measure).edges == []

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

    @pytest.mark.parametrize("measure", list(SimilarityMeasure))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_above_equals_build_at_rho(self, measure, degenerate):
        rng = np.random.default_rng(17)
        latent = rng.normal(size=(3, 40))
        rows = latent[rng.integers(0, 3, size=12)] + rng.normal(scale=1.5, size=(12, 40))
        if degenerate:
            rows[0] = 0.0  # undefined similarity under both measures
        exps = exp_panel({f"R{i}": row for i, row in enumerate(rows)})
        base = build_network(exps, rho=-0.3, measure=measure)
        for r in (-0.3, -0.1, 0.0, 0.2, 0.5, 0.8, 1.0):
            want = build_network(exps, rho=r, measure=measure)
            got = base.above(r)
            assert got.nodes == want.nodes
            assert got.rho == want.rho
            assert np.array_equal(got.src, want.src)
            assert np.array_equal(got.dst, want.dst)
            assert np.array_equal(got.weight, want.weight)
        assert 0 < len(base.above(0.5).weight) < len(base.weight)
        assert base.above(1.0).nodes == []

    def test_above_that_keeps_every_edge_shares_the_arrays(self):
        rng = np.random.default_rng(5)
        exps = exp_panel({f"R{i}": rng.normal(size=30) for i in range(10)})
        base = build_network(exps, rho=-0.5)
        same = base.above(base.rho)
        assert same.nodes == base.nodes and same.rho == base.rho
        fewer = base.above(0.2)
        assert 0 < len(fewer.weight) < len(base.weight)
        for name in ("src", "dst", "weight"):
            assert np.shares_memory(getattr(same, name), getattr(base, name))
            assert not np.shares_memory(getattr(fewer, name), getattr(base, name))

    def test_edge_arrays_are_read_only_with_int32_ends(self):
        rng = np.random.default_rng(6)
        exps = exp_panel({f"R{i}": rng.normal(size=30) for i in range(10)})
        base = build_network(exps, rho=-0.5)
        for net in (base, base.above(-0.5), base.above(0.2)):
            assert net.src.dtype == net.dst.dtype == np.int32
            for edges in (net.src, net.dst, net.weight):
                with pytest.raises(ValueError, match="read-only"):
                    edges[0] = edges[-1]

    def test_nan_rho_rejected(self):
        exps = exp_panel({"A": [1, 2, 3, 4], "B": [1, 2, 3, 5]})
        with pytest.raises(ParameterError):
            build_network(exps, rho=float("nan"))
        net = build_network(exps, rho=0.0)
        with pytest.raises(ParameterError):
            net.above(float("nan"))
        with pytest.raises(ParameterError):
            net.above(-0.5)  # below the threshold the network was built at
        assert len(build_network(exps, rho=float("inf")).weight) == 0

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


def reference_write_edge_csv(net, stream):
    """The earlier edge-by-edge writer, kept as the byte-for-byte reference."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["source", "target", "weight"])
    for a, b, w in net.edges:
        writer.writerow([net.nodes[a].display, net.nodes[b].display, fmt9(w)])


def reference_write_graphml(net, stream):
    """The earlier GraphML writer, escaping with xml.sax; the reference."""
    from xml.sax.saxutils import escape

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


AWKWARD_KEYS = [
    RegionKey(country="A&B"),
    RegionKey(country="<x>", province="P & <q>"),
    RegionKey(country='Say "hi"'),
    RegionKey(country="Korea, South"),
    RegionKey(country="France", province="Réunion"),
    RegionKey(country="Ελλάδα"),
    RegionKey(country="a&amp;b >&<"),
    RegionKey(country="Plain"),
    RegionKey(country=""),
    RegionKey(country="Line\nbreak", province="car\rriage"),
    RegionKey(country=" padded ", province="semi;colon'"),
    RegionKey(country="100% %s %d", province="%(x)s"),
]

# negative, exactly 1, and values whose 9th significant digit rounds
AWKWARD_WEIGHTS = [
    -0.5, 1.0, -1.0, 0.1234567895, 0.12345678949999999, 0.9999999996, -0.99999999951,
    1 / 3, 1e-10, -2.5e-300, 0.5, 123.4567885, 0.0, -0.0,
]


def awkward_network(seed, n=len(AWKWARD_KEYS)):
    """Complete network over the awkward keys, then plain ones up to ``n`` nodes."""
    rng = np.random.default_rng(seed)
    nodes = AWKWARD_KEYS + [RegionKey(country=f"R{i}") for i in range(len(AWKWARD_KEYS), n)]
    src, dst = np.triu_indices(n, k=1)
    weight = rng.uniform(-1.0, 1.0, size=len(src))
    weight[: len(AWKWARD_WEIGHTS)] = AWKWARD_WEIGHTS
    rng.shuffle(weight)
    return CorrelationNetwork(
        keys=nodes,
        rows=np.arange(n),
        src=src,
        dst=dst,
        weight=weight,
        rho=-1.0,
    )


@pytest.mark.parametrize(
    "seed, n",
    [pytest.param(seed, len(AWKWARD_KEYS), id=str(seed)) for seed in range(5)]
    # 100 nodes give 4,950 edges: more than one block of write_rows
    + [pytest.param(5, 100, id="4950-edges")],
)
@pytest.mark.parametrize(
    "writer, reference",
    [(write_edge_csv, reference_write_edge_csv), (write_graphml, reference_write_graphml)],
)
def test_writers_equal_reference_bytes(seed, n, writer, reference):
    net = awkward_network(seed, n)
    got, expected = io.StringIO(), io.StringIO()
    writer(net, got)
    reference(net, expected)
    assert got.getvalue().encode() == expected.getvalue().encode()


def test_graphml_escapes_ampersand_first():
    import xml.etree.ElementTree as ET

    buf = io.StringIO()
    write_graphml(awkward_network(0), buf)
    assert "a&amp;amp;b &gt;&amp;&lt;" in buf.getvalue()
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    data = list(ET.fromstring(buf.getvalue()).iter(f"{ns}data"))[: len(AWKWARD_KEYS)]
    # an XML parser reads an empty element as None and a carriage return as "\n"
    assert [d.text or "" for d in data] == [
        key.display.replace("\r", "\n") for key in AWKWARD_KEYS
    ]


def with_name(net, name):
    """``net`` with its fourth node renamed ``name``."""
    net.keys = [*net.keys[:3], RegionKey(country=name), *net.keys[4:]]
    return net


def test_graphml_refuses_a_name_that_xml_forbids():
    assert len(XML_FORBIDDEN) == 31
    for char in sorted(XML_FORBIDDEN):
        buf = io.StringIO()
        with pytest.raises(ParameterError, match=re.escape(f"region {f'A{char}B'!r} ")):
            write_graphml(with_name(awkward_network(0), f"A{char}B"), buf)
        assert buf.getvalue() == ""


def test_graphml_holds_a_name_that_xml_allows():
    import xml.etree.ElementTree as ET

    ns = "{http://graphml.graphdrawing.org/xmlns}"
    for char in ["\t", "\n", "\r", " ", "\x7f", "\x85", "\ud7ff", "\ue000", "\ufffd",
                 "\U00010000", "\U0010ffff"]:
        buf = io.StringIO()
        write_graphml(with_name(awkward_network(0), f"A{char}B"), buf)
        label = list(ET.fromstring(buf.getvalue().encode()).iter(f"{ns}data"))[3].text
        # an XML parser reads a carriage return as a line feed
        assert label == f"A{char}B".replace("\r", "\n"), repr(char)
