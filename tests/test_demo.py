import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "demos" / "planted_partition_demo.py"


def test_planted_partition_demo_recovers_groups(capsys):
    spec = importlib.util.spec_from_file_location("planted_partition_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert "pairwise agreement with the planted grouping: 1.000" in out
    assert "robustness grid: 18 cells, 30/30 regions consistent" in out
