"""edgeperf: performance modeling and deployment planning for reasoning-LLM
inference on edge GPUs."""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it. A submodule is
# imported on the first use of one of its names (PEP 562), so a process pays
# only for the modules it computes with; fitting, for one, imports numpy.
_EXPORTS = {
    "energy": (
        "CostBreakdown", "CostParams", "UsageSample", "cost_per_million_tokens",
        "decode_energy", "decode_power", "prefill_energy_per_token", "prefill_power",
        "total_energy",
    ),
    "fitting": (
        "FitResult", "fit_decode_latency", "fit_exp_decay", "fit_log_curve",
        "fit_piecewise", "fit_prefill_latency",
    ),
    "latency": (
        "LatencyBreakdown", "LatencyBudget", "decode_latency", "max_output_tokens",
        "padded_length", "prefill_latency", "tbt", "total_latency",
    ),
    "planner": (
        "ConfigPoint", "PhaseRatios", "best_under_cost", "best_under_latency",
        "default_config_table", "load_config_table", "majority_vote", "pareto_frontier",
        "phase_ratios",
    ),
    "profiles": (
        "MeasurementRecord", "ModelProfile", "Phase", "Precision", "ProfileRegistry",
        "Technique", "default_registry", "load_measurements", "load_profiles", "mape",
        "serialize_profiles",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
