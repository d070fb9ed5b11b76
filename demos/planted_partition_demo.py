"""End-to-end walkthrough on synthetic planted-partition data.

Generates 30 regions in 3 groups, runs the full pipeline, checks that the
planted grouping is recovered, and prints the robustness grid summary.

Run:  python3 demos/planted_partition_demo.py
"""

from epinet.analysis import align_labels, order_rows, run_grid
from epinet.community import Partition, compare_partitions, louvain
from epinet.ingest import Panel
from epinet.netbuild import build_network
from epinet.synthetic import make_planted_cases
from epinet.transform import to_exponent_series

# after epinet, which pins OpenBLAS to one thread before numpy first loads
import numpy as np


def main():
    series, planted_labels = make_planted_cases()
    counts = np.array([s.cumulative for s in series], dtype=np.float64)
    cases = Panel(keys=[s.key for s in series], start=series[0].dates[0], values=counts)
    print(f"generated {len(cases)} synthetic regions in 3 groups")

    exps = to_exponent_series(cases)
    net = build_network(exps, rho=0.0)
    print(f"network: {net.n} nodes, {len(net.weight)} edges")

    part = louvain(net, seed=0)
    print(f"louvain: {part.num_communities} communities, Q = {part.modularity:.4f}")

    truth = Partition(labels=np.array([planted_labels[key] for key in net.nodes]), modularity=0.0)
    agreement = compare_partitions(part, truth)
    print(f"pairwise agreement with the planted grouping: {agreement:.3f}")

    cells = run_grid(cases)
    matrix = order_rows(align_labels(cells))
    consistent = sum(1 for row in matrix.labels.tolist() if len(set(row)) == 1)
    print(f"robustness grid: {len(cells)} cells, "
          f"{consistent}/{len(matrix.rows)} regions consistent across all settings")


if __name__ == "__main__":
    main()
