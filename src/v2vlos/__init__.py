"""Time- and space-consistent V2V line-of-sight blockage modeling.

A three-state (LOS, NLOSv, NLOSb) discrete-time Markov chain whose state
and transition probabilities depend on Tx-Rx distance, environment and
vehicle density. The package generates seeded state and path-loss traces,
re-estimates probabilities from labeled traces, fits the published curve
families, and ships the six builtin scenario parameter sets.
"""

import importlib

__version__ = "0.1.0"

# The public names by defining module. They load on first use (PEP 562), so ``import v2vlos``
# imports no numpy and ``python -m v2vlos.cli`` can cap the BLAS thread pool before numpy loads.
_EXPORTS = {
    "assembly": "repair_vector state_probabilities stationary_distribution transition_matrix",
    "curves": "CurveSpec ExpDecay LogBell OffsetMinusLogBell Piecewise Poly2 eval_curve",
    "errors": "BatchError ConvergenceError DegenerateError DistanceClampWarning DomainError ParseError V2vLosError",
    "estimation": "FitResult accumulate bin_centers fit_expdecay fit_logbell fit_offset_minus_logbell fit_poly2 "
                  "fit_same_family frequencies pearson",
    "markov": "DistanceTrace Sampler StateTrace chain",
    "params": "ScenarioModel StateProbModel builtin_model effective_distance load_scenario save_scenario "
              "scenario_json",
    "pathloss": "LogDistance PathLossParams free_space_pl render_path_loss state_path_loss",
    "rng": "RngSeed SplitMix64 derive_subseed mix64",
    "states": "CANONICAL_STATES Density Environment LosState",
    "traces": "DwellCount MobilityProfile fresnel_clearance_radius read_distance_trace read_labeled_traces "
              "synth_distance_trace synth_distance_traces write_state_traces",
    "umi": "UmiParams baseline umi_los_probability",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: ``v2vlos.markov`` works after ``import v2vlos`` alone
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
