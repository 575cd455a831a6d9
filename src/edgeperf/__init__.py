"""edgeperf: performance modeling and deployment planning for reasoning-LLM
inference on edge GPUs."""

import importlib

from .energy import (
    CostBreakdown,
    CostParams,
    UsageSample,
    cost_per_million_tokens,
    decode_energy,
    decode_power,
    prefill_energy_per_token,
    prefill_power,
    total_energy,
)
from .latency import (
    LatencyBreakdown,
    LatencyBudget,
    decode_latency,
    max_output_tokens,
    padded_length,
    prefill_latency,
    tbt,
    total_latency,
)
from .planner import (
    ConfigPoint,
    PhaseRatios,
    Technique,
    best_under_cost,
    best_under_latency,
    default_config_table,
    load_config_table,
    majority_vote,
    pareto_frontier,
    phase_ratios,
)
from .profiles import (
    MeasurementRecord,
    ModelProfile,
    Phase,
    Precision,
    ProfileRegistry,
    default_registry,
    load_measurements,
    load_profiles,
    serialize_profiles,
    validate_profile,
)

__version__ = "0.1.0"

# fitting imports numpy, which costs more than the rest of the package, so it
# is imported on the first use of one of its names (PEP 562), not here.
_FITTING_NAMES = frozenset(
    {
        "FitResult",
        "fit_decode_latency",
        "fit_exp_decay",
        "fit_log_curve",
        "fit_piecewise",
        "fit_prefill_latency",
        "mape",
    }
)


def __getattr__(name):
    if name == "fitting" or name in _FITTING_NAMES:
        fitting = importlib.import_module(".fitting", __name__)
        return fitting if name == "fitting" else getattr(fitting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
