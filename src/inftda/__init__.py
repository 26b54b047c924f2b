"""Differentially private release of hierarchical origin/destination flow tables.

The library builds a non-negative hierarchical tree over an O/D trip table,
releases it top-down under zero-concentrated DP with integer-valued noise and
per-parent Chebyshev-optimal integer projection, and ships the baselines,
synthetic benchmarks, and evaluation harness used to exercise it.
"""

from .baselines import UNIVERSE_CAP, stability_histogram, tda_l2, vanilla_gauss
from .dataio import (
    load_dataset,
    read_hierarchy_csv,
    read_release_csv,
    read_trips_csv,
    save_dataset,
    write_hierarchy_csv,
    write_release_csv,
    write_trips_csv,
)
from .dpcore import (
    PrivacyBudget,
    SensitivityModel,
    eps_from_rho,
    per_level_sigma2,
    rho_from_eps_delta,
    sample_discrete_gaussian,
    sample_discrete_laplace,
    stability_threshold,
)
from .errors import ConfigError, DataError
from .evaluate import (
    MECHANISMS,
    EvalReport,
    LevelStats,
    false_discovery_rate,
    max_abs_error_per_level,
    run_experiment,
    run_mechanism,
    write_report,
)
from .hierarchy import (
    ROOT_AREA,
    HierTree,
    PartitionHierarchy,
    TripTable,
    aggregate_leaf_map,
    build_tree,
    ingest_trips,
    parse_hierarchy,
    validate_consistency,
)
from .intopt import ORDERS, OptResult, intopt_fast
from .synth import SPARSITY_NAMES, SynthSpec, gen_dataset, gen_flows, gen_partition
from .topdown import DPRelease, ReleaseConfig, release, theoretical_error_envelope

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DPRelease",
    "EvalReport",
    "HierTree",
    "LevelStats",
    "MECHANISMS",
    "ORDERS",
    "OptResult",
    "PartitionHierarchy",
    "PrivacyBudget",
    "ReleaseConfig",
    "ROOT_AREA",
    "SensitivityModel",
    "SPARSITY_NAMES",
    "SynthSpec",
    "TripTable",
    "UNIVERSE_CAP",
    "aggregate_leaf_map",
    "build_tree",
    "eps_from_rho",
    "false_discovery_rate",
    "gen_dataset",
    "gen_flows",
    "gen_partition",
    "ingest_trips",
    "intopt_fast",
    "load_dataset",
    "max_abs_error_per_level",
    "parse_hierarchy",
    "per_level_sigma2",
    "read_hierarchy_csv",
    "read_release_csv",
    "read_trips_csv",
    "release",
    "rho_from_eps_delta",
    "run_experiment",
    "run_mechanism",
    "sample_discrete_gaussian",
    "sample_discrete_laplace",
    "save_dataset",
    "stability_histogram",
    "stability_threshold",
    "tda_l2",
    "theoretical_error_envelope",
    "validate_consistency",
    "vanilla_gauss",
    "write_hierarchy_csv",
    "write_release_csv",
    "write_report",
    "write_trips_csv",
    "__version__",
]
