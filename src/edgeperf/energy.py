"""Piecewise power models, energy integrals, and cost-per-token arithmetic."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    DomainError,
    ImplausibleWattsWarning,
    MissingCoefficient,
    UnitUndeclared,
)
from .latency import decode_latency, tbt
from .profiles import (
    EnergyUnit,
    ModelProfile,
    PiecewiseEnergyModel,
    PiecewisePowerModel,
)

# Jetson Orin power envelope; decode_power warns above this.
DEFAULT_PLATFORM_CAP_WATTS = 60.0


@dataclass(frozen=True)
class CostParams:
    """Operating prices: electricity in $/kWh, hardware amortization in $/hour."""

    electricity: float = 0.15
    hardware_rate: float = 0.045

    def __post_init__(self):
        if not (0 <= self.electricity < math.inf and 0 <= self.hardware_rate < math.inf):
            raise DomainError("cost parameters must be finite and >= 0")


@dataclass(frozen=True)
class UsageSample:
    """An observed workload: token count, wall time in seconds, energy in kWh."""

    tokens: int
    duration: float
    energy: float

    def __post_init__(self):
        if not 1 <= self.tokens < math.inf:
            raise DomainError(f"tokens must be finite and >= 1, got {self.tokens}")
        if not 0 < self.duration < math.inf:
            raise DomainError(f"duration must be finite and > 0, got {self.duration}")
        if not 0 <= self.energy < math.inf:
            raise DomainError(f"energy must be finite and >= 0, got {self.energy}")


@dataclass(frozen=True)
class CostBreakdown:
    """Dollars per million tokens, split into energy and hardware components."""

    energy_cost: float
    hardware_cost: float

    @property
    def total(self) -> float:
        return self.energy_cost + self.hardware_cost


def _log(x: float, log10: bool) -> float:
    return math.log10(x) if log10 else math.log(x)


def piecewise_power_value(
    model: PiecewisePowerModel, x: float, inclusive: bool = True
) -> float:
    """Evaluate a constant/log power model at x tokens.

    ``inclusive`` controls whether x equal to the threshold falls on the
    constant branch (prefill convention) or the log branch (decode convention).
    """
    on_floor = x <= model.threshold if inclusive else x < model.threshold
    if on_floor:
        return model.floor_watts
    return model.log_alpha * _log(x, model.log10) + model.log_beta


def piecewise_energy_value(model: PiecewiseEnergyModel, x: float) -> float:
    """Evaluate an exp-decay/log energy-per-token model at x tokens."""
    if x <= model.threshold:
        return model.exp_A * math.exp(-model.exp_lambda * x) + model.exp_C
    return model.log_alpha * _log(x, model.log10) + model.log_beta


def prefill_power(profile: ModelProfile, input_len: int) -> float:
    """Average prefill power in watts at the given input length."""
    if profile.prefill_power is None:
        raise MissingCoefficient(profile.id, "prefill_power")
    if input_len < 1:
        raise DomainError(f"input_len must be >= 1, got {input_len}")
    return piecewise_power_value(profile.prefill_power, input_len)


def prefill_energy_per_token(profile: ModelProfile, input_len: int) -> float:
    """Fitted-unit energy per prompt token at the given input length."""
    if profile.prefill_energy is None:
        raise MissingCoefficient(profile.id, "prefill_energy")
    if input_len < 1:
        raise DomainError(f"input_len must be >= 1, got {input_len}")
    return piecewise_energy_value(profile.prefill_energy, input_len)


def decode_power(profile: ModelProfile, output_pos: int) -> float:
    """Average decode power in watts at the given output position.

    Warns through :class:`ImplausibleWattsWarning` when the model evaluates
    above the platform envelope (the published large-model log fits do, at
    long outputs).
    """
    if profile.decode_power is None:
        raise MissingCoefficient(profile.id, "decode_power")
    if output_pos < 1:
        raise DomainError(f"output_pos must be >= 1, got {output_pos}")
    watts = piecewise_power_value(profile.decode_power, output_pos, inclusive=False)
    if watts > DEFAULT_PLATFORM_CAP_WATTS:
        warnings.warn(
            f"{profile.id}: modeled decode power {watts:.1f} W at position "
            f"{output_pos} exceeds the {DEFAULT_PLATFORM_CAP_WATTS:.0f} W platform cap",
            ImplausibleWattsWarning,
            stacklevel=2,
        )
    return watts


def decode_energy(profile: ModelProfile, input_len: int, output_len: int) -> float:
    """Decode-phase energy in joules.

    Discretized per output token: the power at each output position times that
    token's TBT. Collapses exactly to floor_watts * decode_latency when every
    position sits in the constant branch.
    """
    if profile.decode_power is None:
        raise MissingCoefficient(profile.id, "decode_power")
    if output_len < 0:
        raise DomainError(f"output_len must be >= 0, got {output_len}")
    if output_len == 0:
        return 0.0
    model = profile.decode_power
    if output_len < model.threshold:
        # All positions in the constant regime: power factors out of the sum.
        return model.floor_watts * decode_latency(profile, input_len, output_len)

    coeffs = profile.decode_latency
    if coeffs is None:
        raise MissingCoefficient(profile.id, "decode_latency")
    import numpy as np  # here, so that importing this module does not load numpy

    positions = np.arange(1, output_len + 1, dtype=np.float64)
    contexts = input_len + positions - 1.0
    tbts = coeffs.m * contexts + coeffs.n
    if np.any(tbts <= 0):
        # Route through tbt() for the canonical error.
        bad = int(contexts[np.argmax(tbts <= 0)])
        tbt(profile, bad)
    log = np.log10 if model.log10 else np.log
    watts = np.where(
        positions < model.threshold,
        model.floor_watts,
        model.log_alpha * log(positions) + model.log_beta,
    )
    return float(np.sum(watts * tbts))


def total_energy(profile: ModelProfile, input_len: int, output_len: int) -> float:
    """Prefill energy (joules) plus decode energy (joules).

    The prefill term multiplies the per-token model by the input length, which
    requires the prefill energy fit to declare joules-per-token as its unit.
    """
    if profile.prefill_energy is None:
        raise MissingCoefficient(profile.id, "prefill_energy")
    if profile.prefill_energy.unit is not EnergyUnit.JOULES_PER_TOKEN:
        raise UnitUndeclared(
            f"profile {profile.id!r} does not declare joules-per-token for its "
            "prefill energy fit"
        )
    prefill_joules = prefill_energy_per_token(profile, input_len) * input_len
    return prefill_joules + decode_energy(profile, input_len, output_len)


def cost_per_million_tokens(usage: UsageSample, params: CostParams) -> CostBreakdown:
    """Split the per-million-token cost into electricity and amortized hardware."""
    millions = usage.tokens / 1e6
    energy_cost = usage.energy * params.electricity / millions
    hardware_cost = (usage.duration / 3600.0) * params.hardware_rate / millions
    return CostBreakdown(energy_cost=energy_cost, hardware_cost=hardware_cost)
