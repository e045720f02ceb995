"""axicav: optical-cavity beam-bifurcation simulator and sensitivity toolkit.

A laser beam bouncing in a two-mirror cavity picks up a tiny angular kick
on every pass through a transverse field gradient, splitting into a
weighted ensemble of sub-beams.  This package propagates that ensemble
as arrays under paraxial affine updates, renders detector-plane density
changes, fits their growth with traversal count, and converts the result
into shot-noise-limited coupling reach, alongside the analytic profile
mathematics and a planar-lattice toy model used as cross-checks.
"""

from .axion import (
    MixingParameters,
    SplitCalibration,
    mass_scan,
    max_measurable_mass,
    mixing_angle,
    mixing_angle_from_q,
    q_a,
    q_gamma,
    q_m,
    suppression_factor,
    theta_split_from_coupling,
)
from .cavity import (
    BeamEnsemble,
    CavityConfig,
    ConfigError,
    DetectorSnapshot,
    RunResult,
    coalesce,
    run,
)
from .density import (
    GaussianProfile,
    GuardError,
    bin_ensemble,
    deficit,
    histogram_edges,
    integrate_window,
    profile_difference,
    single_pass_estimate,
)
from .lattice import compare_growth
from .rays import (
    ParaxialError,
    RayState,
    TransferMatrix,
    angular_enhance,
    compose,
    focusing_matrix,
    propagation_matrix,
    split,
)
from .scenario import Scenario, ScenarioError, load_preset, load_scenario, preset_names
from .sensitivity import (
    GrowthFit,
    GrowthSeries,
    fit_linear,
    fit_power,
    reach,
    scenario_report,
)

__version__ = "0.1.0"
