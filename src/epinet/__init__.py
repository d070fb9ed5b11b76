"""Correlation-network community analysis of epidemic case-count time series."""

from .ingest import (
    CaseSeries,
    Panel,
    RegionKey,
    parse_cases_csv,
    restrict_date_range,
    select_regions,
)
from .transform import to_exponent_series
from .netbuild import (
    BuildSettings,
    CorrelationNetwork,
    SimilarityMeasure,
    build_network,
    cosine,
    pearson,
)
from .community import Partition, brute_force_best, compare_partitions, louvain, modularity_of
from .analysis import (
    GridSettings,
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
