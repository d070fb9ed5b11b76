"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 needs the archived real-world dataset; point EPINET_JHU_CSV at
the wide-format cumulative case CSV to enable it, otherwise it is skipped.
"""

import functools
import math
import os
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import small_graph_suite
from epinet.analysis import (
    GridSettings,
    align_labels,
    bspline_smooth,
    order_rows,
    reference_settings,
    run_grid,
)
from epinet.community import Partition, brute_force_best, compare_partitions, louvain
from epinet.ingest import (
    CaseSeries,
    Panel,
    RegionKey,
    parse_cases_csv,
    restrict_date_range,
    select_regions,
)
from epinet.netbuild import build_network, cosine, pearson
from epinet.synthetic import make_planted_cases
from epinet.transform import to_exponent_series


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"\nACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return deco


def panel_of(counts, name="X"):
    dates = [date(2021, 1, 1) + timedelta(days=i) for i in range(len(counts))]
    return Panel.from_series(
        [CaseSeries(key=RegionKey(country=name), dates=dates, cumulative=list(counts))]
    )


@criterion(1, "transform correctness")
def test_criterion_1_transform():
    doubling = to_exponent_series(panel_of([2**t for t in range(21)]))
    assert np.all(np.abs(doubling.values - math.log(2)) <= 1e-12)

    constant = to_exponent_series(panel_of([1000] * 21))
    assert np.all(constant.values == 0.0)

    rng = np.random.default_rng(0)
    noisy = panel_of(np.cumsum(rng.integers(0, 10**7, size=80)).tolist())
    for alpha in (5.0, 7.0, 9.0):
        e = to_exponent_series(noisy, alpha=alpha)
        assert np.all(np.abs(e.values) <= alpha)


@criterion(2, "similarity oracle equivalence")
def test_criterion_2_similarity():
    def ref_pearson(x, y):
        if len(set(x)) == 1 or len(set(y)) == 1:
            return None
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        dx = sum((a - mx) ** 2 for a in x)
        dy = sum((b - my) ** 2 for b in y)
        return None if dx == 0 or dy == 0 else num / math.sqrt(dx * dy)

    def ref_cosine(x, y):
        nx = math.sqrt(sum(a * a for a in x))
        ny = math.sqrt(sum(b * b for b in y))
        return None if nx == 0 or ny == 0 else sum(a * b for a, b in zip(x, y)) / (nx * ny)

    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        x = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        y = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        roll = rng.random()
        if roll < 0.04:
            x = np.full(n, float(rng.normal()))  # zero variance
        elif roll < 0.08:
            y = np.zeros(n)  # zero norm
        for mine, ref in ((pearson, ref_pearson), (cosine, ref_cosine)):
            got, want = mine(x, y), ref(list(x), list(y))
            if want is None:
                assert got is None
            else:
                assert abs(got - want) <= 1e-12


@criterion(3, "modularity oracle equivalence")
def test_criterion_3_modularity_oracle():
    t0 = time.monotonic()
    suite = small_graph_suite()
    bridge = suite["bridge_triangles"]
    assert abs(brute_force_best(bridge).modularity - 5 / 14) <= 1e-12
    for name, net in suite.items():
        assert net.n <= 8
        lv = louvain(net, seed=0)
        bf = brute_force_best(net)
        assert abs(lv.modularity - bf.modularity) <= 1e-12, name
    assert time.monotonic() - t0 < 10


@criterion(4, "planted-partition recovery")
def test_criterion_4_planted_recovery(planted):
    t0 = time.monotonic()
    cases, labels = planted
    cells = run_grid(cases, GridSettings())
    assert len(cells) == 18
    for cell in cells:
        assert cell.error is None, cell.error
        truth = Partition(
            assignment={i: labels[cell.network.nodes[i]] for i in range(cell.network.n)},
            modularity=0.0,
        )
        agreement, _ = compare_partitions(cell.partition, truth)
        assert agreement == 1.0, cell.settings.label()
    assert time.monotonic() - t0 < 30


COMMUNITY_1 = """Albania, Australia: Victoria, Australia: Western Australia, Austria,
Belgium, Brunei, Bulgaria, Canada: Alberta, Canada: British Columbia, China: Hong Kong,
Croatia, Czechia, Denmark, Estonia, Finland, France, Germany, Greece, Iran, Ireland,
Italy, Latvia, Lebanon, Lithuania, Malaysia, Netherlands, New Zealand, North Macedonia,
Norway, Poland, Portugal, Qatar, Romania, Serbia, Singapore, Slovakia, Slovenia,
South Korea, Spain, Sweden, Switzerland, Thailand, Trinidad and Tobago, United Kingdom,
US, Vietnam"""
COMMUNITY_2 = """Afghanistan, Algeria, Armenia, Azerbaijan, Bahrain, Bangladesh,
Bolivia, Bosnia and Herzegovina, Brazil, Chile, Colombia, Cuba, Dominican Republic,
Ecuador, Ghana, Guatemala, India, Indonesia, Iraq, Israel, Japan, Kazakhstan, Kosovo,
Kuwait, Mexico, Morocco, Nepal, Pakistan, Panama, Peru, Philippines, Russia,
Saudi Arabia, South Africa, Taiwan, Turkey, Ukraine, United Arab Emirates, Uzbekistan,
Venezuela, West Bank and Gaza"""
COMMUNITY_3 = """Argentina, Australia: Australian Capital Territory,
Australia: New South Wales, Australia: Queensland, Australia: South Australia,
Australia: Tasmania, Belarus, Botswana, Cameroon, Canada: Manitoba, Canada: Ontario,
Canada: Quebec, Canada: Saskatchewan, Costa Rica, Cyprus, El Salvador, Ethiopia,
France: Guadeloupe, France: Reunion, Honduras, Iceland, Jamaica, Jordan, Kenya, Laos,
Libya, Maldives, Mauritius, Moldova, Montenegro, Mozambique, Namibia, Nigeria,
Paraguay, Rwanda, Tunisia, Uganda, Uruguay, Zambia, Zimbabwe"""

DROPPED_REGIONS = {
    "Cambodia", "Egypt", "France: Martinique", "Georgia", "Kyrgyzstan",
    "Luxembourg", "Oman",
}


def _member_set(blob):
    return {name.strip() for name in blob.replace("\n", " ").split(",")}


@criterion(5, "real-dataset structural reproduction")
def test_criterion_5_real_dataset():
    path = os.environ.get("EPINET_JHU_CSV")
    if not path or not Path(path).exists():
        pytest.skip("archived real dataset not available (set EPINET_JHU_CSV)")
    t0 = time.monotonic()
    panel = Panel.from_series(parse_cases_csv(Path(path).read_bytes()))
    start = max(date(2020, 1, 22), panel.start)
    end = min(date(2022, 5, 29), panel.end)
    selected = select_regions(restrict_date_range(panel, start, end), 100_000, end)
    assert len(selected) == 139

    exps = to_exponent_series(selected)
    net = build_network(exps, rho=0.0)
    present = {k.display for k in net.nodes}
    assert present.isdisjoint(DROPPED_REGIONS)

    part = louvain(net, seed=0)
    comms = part.communities()
    top3 = comms[:3]
    assert sum(len(c) for c in top3) >= 0.85 * net.n

    paper_members = [_member_set(COMMUNITY_1), _member_set(COMMUNITY_2),
                     _member_set(COMMUNITY_3)]
    detected = [{net.nodes[i].display for i in c} for c in top3]
    for paper_set in paper_members:
        best = max(
            len(paper_set & d) / len(paper_set | d) for d in detected
        )
        assert best >= 0.6
    assert time.monotonic() - t0 < 120


@criterion(6, "robustness-grid consistency")
def test_criterion_6_grid_consistency(planted, tmp_path):
    cases, _ = planted
    import subprocess
    import sys

    from epinet.ingest import to_wide_csv

    fixture = tmp_path / "cases.csv"
    fixture.write_text(to_wide_csv(cases))

    cells = run_grid(cases, GridSettings())
    matrix = order_rows(align_labels(cells, reference_settings()))
    for row in matrix.cells:
        assert len(set(row)) == 1  # identical aligned label in all 18 columns

    # the child imports the same epinet sources as this test, installed or not
    import epinet

    src = str(Path(epinet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run_cli(out):
        cmd = [sys.executable, "-m", "epinet.cli", "grid", "--input", str(fixture),
               "--out", str(out)]
        subprocess.run(cmd, check=True, capture_output=True, env=env)
        return (out / "membership_matrix.csv").read_bytes()

    assert run_cli(tmp_path / "r1") == run_cli(tmp_path / "r2")


def hull_distance(point, controls):
    """Infinity-norm distance from the point to the controls' convex hull.

    LP: minimize s subject to |C^T lambda - x| <= s, sum lambda = 1,
    lambda >= 0.  Independent of the spline evaluation being checked.
    """
    from scipy.optimize import linprog

    controls = np.asarray(controls, dtype=float)
    n, dim = controls.shape
    # variables: lambda_0..lambda_{n-1}, s
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    a_ub = np.zeros((2 * dim, n + 1))
    a_ub[:dim, :n] = controls.T
    a_ub[dim:, :n] = -controls.T
    a_ub[:, -1] = -1.0
    b_ub = np.concatenate([point, -np.asarray(point, dtype=float)])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(0, None)], method="highs")
    assert res.status == 0
    return res.fun


@criterion(7, "B-spline properties")
def test_criterion_7_bspline():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 7, 15):
        pts = rng.normal(size=(n, 3))
        out = bspline_smooth(pts)
        assert np.array_equal(out[0], pts[0])
        assert np.array_equal(out[-1], pts[-1])
        for sample in out:
            assert hull_distance(sample, pts) <= 1e-9, (n, sample)

    direction = np.array([2.0, 1.0, -1.0])
    pts = np.outer(np.linspace(-1, 2, 9), direction) + np.array([0.5, 0.0, 1.0])
    out = bspline_smooth(pts)
    rel = out - pts[0]
    for p in rel:
        assert np.linalg.norm(np.cross(p, direction)) <= 1e-9
