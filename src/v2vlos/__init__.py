"""Time- and space-consistent V2V line-of-sight blockage modeling.

A three-state (LOS, NLOSv, NLOSb) discrete-time Markov chain whose state
and transition probabilities depend on Tx-Rx distance, environment and
vehicle density. The package generates seeded state and path-loss traces,
re-estimates probabilities from labeled traces, fits the published curve
families, and ships the six builtin scenario parameter sets.
"""

__version__ = "0.1.0"

from .assembly import repair_vector, state_probabilities, stationary_distribution, transition_matrix
from .curves import (
    CurveSpec,
    ExpDecay,
    LogBell,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
    eval_curve,
)
from .errors import (
    BatchError,
    ConvergenceError,
    DegenerateError,
    DistanceClampWarning,
    DomainError,
    ParseError,
    RangeError,
    SingularError,
    V2vLosError,
)
from .estimation import (
    EmpiricalStats,
    FitResult,
    accumulate,
    bin_centers,
    empirical_state_probs,
    empirical_transition_probs,
    fit_expdecay,
    fit_logbell,
    fit_offset_minus_logbell,
    fit_poly2,
    fit_same_family,
    pearson,
)
from .markov import DistanceTrace, Sampler, StateTrace, chain
from .params import (
    ScenarioModel,
    StateProbModel,
    builtin_model,
    effective_distance,
    load_scenario,
    save_scenario,
    scenario_json,
)
from .pathloss import (
    LogDistance,
    PathLossParams,
    free_space_pl,
    render_path_loss,
    state_path_loss,
)
from .rng import RngSeed, SplitMix64, derive_subseed, mix64
from .states import CANONICAL_STATES, Density, Environment, LosState
from .traces import (
    DwellStats,
    MobilityProfile,
    dwell_statistics,
    fresnel_clearance_radius,
    read_distance_trace,
    read_labeled_traces,
    synth_distance_trace,
    synth_distance_traces,
    write_state_traces,
)
from .umi import UmiParams, baseline, umi_los_probability
