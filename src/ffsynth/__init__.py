"""Time-scaled two-level control synthesis with inter-trajectory travel.

The package turns a solved reference sweep into faster or slower drive
schedules that reach the same final state, verifies each schedule by
independent re-integration, and maps feasible waveforms onto a tunable
transmon's flux axis.
"""

from .analysis import (
    FidelityReport,
    TrajectoryShiftSeries,
    VerificationError,
    trajectory_shift_analysis,
    verify_control,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .device import (
    FluxRangeError,
    TransmonSpec,
    coupling_strength,
    default_transmon_spec,
    ecc_for_coupling,
    flux_schedule_for,
    rwa_emulation_map,
    squid_ej,
    to_physical_time,
    transmon_frequency,
)
from .drives import (
    CosineSweepSpec,
    build_cosine_sweep,
    default_step_count,
    solve_reference,
)
from .dynamics import (
    DriveSchedule,
    IntegrationError,
    ReferenceTrajectory,
    TimeGrid,
    TwoLevelState,
    fidelity,
    integrate_schrodinger,
    overlap,
)
from .ffst import (
    FfstPhaseModel,
    MagnificationProfile,
    SynthesisError,
    alpha_scaled_control,
    naive_control,
    synthesize_control,
)
from .itt import (
    BridgeSettings,
    ConstructionError,
    IttCostReport,
    OptimizerError,
    TravelPlan,
    VirtualTrajectory,
    build_virtual_trajectory,
    default_bridge_params,
    default_bridge_settings,
    optimize_virtual_trajectory,
    plan_through_gaps,
    plan_travel,
    plan_with_crossings,
)
from .sta import (
    StaPhaseModel,
    adiabatic_target,
    synthesize_sta_control,
)
from .zerocurves import (
    Gap,
    ScanError,
    SpeedControlledTrajectory,
    branch_lifts,
    branch_touch_times,
    detect_gaps,
    link_branches,
    wrap_phase,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeSettings",
    "ConfigError",
    "ConstructionError",
    "CosineSweepSpec",
    "DriveSchedule",
    "FfstPhaseModel",
    "FidelityReport",
    "FluxRangeError",
    "Gap",
    "IntegrationError",
    "IttCostReport",
    "MagnificationProfile",
    "OptimizerError",
    "ReferenceTrajectory",
    "RunConfig",
    "ScanError",
    "SpeedControlledTrajectory",
    "StaPhaseModel",
    "SynthesisError",
    "TimeGrid",
    "TrajectoryShiftSeries",
    "TransmonSpec",
    "TravelPlan",
    "TwoLevelState",
    "VerificationError",
    "VirtualTrajectory",
    "adiabatic_target",
    "alpha_scaled_control",
    "branch_lifts",
    "branch_touch_times",
    "build_cosine_sweep",
    "build_virtual_trajectory",
    "coupling_strength",
    "default_bridge_params",
    "default_bridge_settings",
    "default_step_count",
    "default_transmon_spec",
    "detect_gaps",
    "ecc_for_coupling",
    "fidelity",
    "flux_schedule_for",
    "integrate_schrodinger",
    "link_branches",
    "load_config",
    "naive_control",
    "optimize_virtual_trajectory",
    "overlap",
    "parse_config",
    "plan_through_gaps",
    "plan_travel",
    "plan_with_crossings",
    "rwa_emulation_map",
    "solve_reference",
    "squid_ej",
    "synthesize_control",
    "synthesize_sta_control",
    "to_physical_time",
    "trajectory_shift_analysis",
    "transmon_frequency",
    "verify_control",
    "wrap_phase",
]
