"""Correlation-network community analysis of epidemic case-count time series."""

import os

# Before any submodule imports numpy: a second OpenBLAS thread saves netbuild's Gram
# product under 1 ms at 300 regions, but its idle spin made `grid` there use 1.14 s CPU in 0.78 s.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .ingest import (
    Panel,
    RegionKey,
    parse_cases_csv,
    restrict_date_range,
    select_regions,
)
from .transform import to_exponent_series
from .netbuild import CorrelationNetwork, SimilarityMeasure, build_network
from .community import Partition, compare_partitions, louvain
from .analysis import (
    BuildSettings,
    MembershipMatrix,
    PhaseTrajectory,
    align_labels,
    bspline_smooth,
    build_trajectory,
    detect_peaks,
    median_curve,
    order_rows,
    run_grid,
)

__version__ = "0.1.0"
