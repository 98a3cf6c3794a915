"""Geometric multipath error propagation for direct position estimation.

Multipath shifts a receiver's correlation ridges; in a grid search over
candidate positions (velocities) the biased solutions land on intersections
of straight center lines, one per path, each tangent to a bias circle whose
radius is the elevation-projected range (range-rate) bias.  This package
models the correlation surfaces, computes the tangent-line geometry and its
error bounds, and bundles deterministic sweep / Monte Carlo drivers plus a
CLI that reproduces the reference tables and figure data.
"""

from .caf import (
    DEFAULT_GRIDS,
    NOMINAL_RANGE,
    RIDGE_OFFSET_SIGN,
    SPEED_OF_LIGHT,
    GeometryMismatchError,
    Grid2D,
    GridSpec,
    PathKind,
    SatelliteChannel,
    Scenario,
    SignalConfig,
    SignalPath,
    Space,
    channel_caf,
    corr_code,
    corr_doppler,
    make_channel,
    mismatch,
    scenario_caf,
    superpose_and_argmax,
)
from .geom import (
    EcefVector,
    EnuVector,
    GeometryError,
    InvalidOriginError,
    LookAngles,
    ZenithError,
    ecef_to_enu,
    enu_from_angles,
    enu_to_ecef,
    look_angles,
    slant_range,
)
from .mc import (
    ExperimentReport,
    make_reference_scenario,
    pair_error_curve,
    run_case_study,
    run_elevation_sweep,
    run_oracle_compare,
    run_random_azimuth_mc,
)
from .scmb import (
    BiasResult,
    CenterLine,
    CriticalPoint,
    ErrorBound,
    ParallelLinesError,
    UndefinedCriticalPointError,
    case_bound,
    center_line,
    center_lines,
    count_intersections,
    critical_points,
    enumerate_intersections,
    fold_azimuth_separation,
    intersect_lines,
    pair_bias,
    pair_bias_velocity,
    project_to_range,
    project_to_range_rate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "EcefVector",
    "EnuVector",
    "GeometryError",
    "InvalidOriginError",
    "ZenithError",
    "LookAngles",
    "ecef_to_enu",
    "enu_to_ecef",
    "enu_from_angles",
    "look_angles",
    "slant_range",
    # signal model
    "SPEED_OF_LIGHT",
    "RIDGE_OFFSET_SIGN",
    "NOMINAL_RANGE",
    "DEFAULT_GRIDS",
    "GeometryMismatchError",
    "Space",
    "PathKind",
    "SignalConfig",
    "SignalPath",
    "SatelliteChannel",
    "make_channel",
    "GridSpec",
    "Grid2D",
    "Scenario",
    "corr_code",
    "corr_doppler",
    "mismatch",
    "channel_caf",
    "scenario_caf",
    "superpose_and_argmax",
    # bias geometry
    "BiasResult",
    "CenterLine",
    "CriticalPoint",
    "ErrorBound",
    "ParallelLinesError",
    "UndefinedCriticalPointError",
    "project_to_range",
    "project_to_range_rate",
    "center_line",
    "center_lines",
    "fold_azimuth_separation",
    "intersect_lines",
    "pair_bias",
    "pair_bias_velocity",
    "critical_points",
    "case_bound",
    "enumerate_intersections",
    "count_intersections",
    # experiment drivers
    "ExperimentReport",
    "make_reference_scenario",
    "pair_error_curve",
    "run_elevation_sweep",
    "run_random_azimuth_mc",
    "run_case_study",
    "run_oracle_compare",
]
