"""Piecewise power models, energy integrals, and cost-per-token arithmetic.

The piecewise evaluators, ``piecewise_power_value`` and
``piecewise_energy_value``, are defined in ``profiles`` and imported here.
"""

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
from .latency import _decode_domain, decode_latency
from .profiles import _MAX_TOKENS, EnergyUnit, ModelProfile
from .profiles import piecewise_energy_value, piecewise_power_value

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
        if not 1 <= self.tokens <= _MAX_TOKENS:
            raise DomainError("tokens must be in [1, 2**53]", got=self.tokens)
        if not 0 < self.duration < math.inf:
            raise DomainError("duration must be finite and > 0", got=self.duration)
        if not 0 <= self.energy < math.inf:
            raise DomainError("energy must be finite and >= 0", got=self.energy)


@dataclass(frozen=True)
class CostBreakdown:
    """Dollars per million tokens, split into energy and hardware components."""

    energy_cost: float
    hardware_cost: float

    @property
    def total(self) -> float:
        return self.energy_cost + self.hardware_cost


def prefill_power(profile: ModelProfile, input_len: int) -> float:
    """Average prefill power in watts at the given input length."""
    if profile.prefill_power is None:
        raise MissingCoefficient(profile.id, "prefill_power")
    if not 1 <= input_len <= _MAX_TOKENS:
        raise DomainError("input_len must be in [1, 2**53]", got=input_len)
    return piecewise_power_value(profile.prefill_power, input_len)


def prefill_energy_per_token(profile: ModelProfile, input_len: int) -> float:
    """Fitted-unit energy per prompt token at the given input length."""
    if profile.prefill_energy is None:
        raise MissingCoefficient(profile.id, "prefill_energy")
    if not 1 <= input_len <= _MAX_TOKENS:
        raise DomainError("input_len must be in [1, 2**53]", got=input_len)
    return piecewise_energy_value(profile.prefill_energy, input_len)


def decode_power(profile: ModelProfile, output_pos: int) -> float:
    """Average decode power in watts at the given output position.

    Warns through :class:`ImplausibleWattsWarning` when the model evaluates
    above the platform envelope (the published large-model log fits do, at
    long outputs).
    """
    if profile.decode_power is None:
        raise MissingCoefficient(profile.id, "decode_power")
    if not 1 <= output_pos <= _MAX_TOKENS:
        raise DomainError("output_pos must be in [1, 2**53]", got=output_pos)
    watts = piecewise_power_value(profile.decode_power, output_pos, inclusive=False)
    if watts > DEFAULT_PLATFORM_CAP_WATTS:
        warnings.warn(
            f"{profile.id}: modeled decode power {watts:.1f} W at position "
            f"{output_pos} exceeds the {DEFAULT_PLATFORM_CAP_WATTS:.0f} W platform cap",
            ImplausibleWattsWarning,
            stacklevel=2,
        )
    return watts


# ln A, Glaisher's constant, and ln H(n) - ln A for n < 32 (see _ln_hyperfactorial).
_LN_GLAISHER = 0.24875447703378426
_P_LN_P = [k * math.log(k) for k in range(1, 32)]
_LN_HYPERFACTORIAL = [math.fsum(_P_LN_P[:n]) - _LN_GLAISHER for n in range(32)]


def _ln_hyperfactorial(n: int) -> float:
    """ln H(n) - ln A, where H(n) = 1^1 * 2^2 * ... * n^n and A is Glaisher's constant.

    Small n come from a math.fsum table, where the asymptotic series is poor;
    past it the series' truncation error is far below an ulp. ln A cancels in
    every difference of two values.
    """
    if n < len(_LN_HYPERFACTORIAL):
        return _LN_HYPERFACTORIAL[n]
    n2 = n * n
    inv2 = 1.0 / n2
    return (
        (n2 / 2 + n / 2 + 1 / 12) * math.log(n)
        - n2 / 4
        + inv2 * (1 / 720 - inv2 * (1 / 5040 - inv2 / 10080))
    )


def decode_energy(profile: ModelProfile, input_len: int, output_len: int) -> float:
    """Decode-phase energy in joules.

    Discretized per output token: the power P(p) at each output position p
    times that token's TBT, m*(I+p-1) + n. Collapses exactly to
    floor_watts * decode_latency when every position sits in the constant
    branch. Otherwise, with c0 = m*(I-1) + n and a = max(ceil(threshold), 1),
    the sum takes O(1) time in closed form:

        floor_watts * ((a-1)*c0 + m*(a-1)*a/2)
        + alpha * (c0 * sum ln p + m * sum p ln p)
        + beta * (c0 * (O-a+1) + m * sum p),

    the sums running over p in [a, O]: sum ln p = lgamma(O+1) - lgamma(a),
    and sum p ln p is a difference of log-hyperfactorials.

    Accuracy: within 1e-12 relative of math.fsum of the per-token products,
    as the tests check on every shipped profile and on generated valid ones
    with floor_watts >= 0.1 (a few 1e-15 on the shipped profiles). The
    rounding error is a few ulps of the whole-range sums lgamma(O+1) and
    ln H(O), so it grows relative to the result where floor_watts is tiny
    and the power is near zero just past the threshold.

    Raises NonpositiveTBT, through tbt(), at the first context of
    [I, I+O-1] whose TBT is <= 0. The arguments are checked where the
    decode latency is, so any O, 0 included, raises what decode_latency does.
    """
    if profile.decode_power is None:
        raise MissingCoefficient(profile.id, "decode_power")
    model = profile.decode_power
    if output_len < model.threshold:
        # All positions in the constant regime: power factors out of the sum.
        return model.floor_watts * decode_latency(profile, input_len, output_len)

    coeffs = _decode_domain(profile, input_len, output_len)
    m = coeffs.m
    c0 = m * (input_len - 1) + coeffs.n
    a = max(math.ceil(model.threshold), 1)
    o = output_len
    sum_ln = math.lgamma(o + 1) - math.lgamma(a)
    sum_p_ln = _ln_hyperfactorial(o) - _ln_hyperfactorial(a - 1)
    sum_p = (o * (o + 1) - (a - 1) * a) // 2
    floor = model.floor_watts * ((a - 1) * c0 + m * ((a - 1) * a // 2))
    return (
        floor
        + model.log_alpha * (c0 * sum_ln + m * sum_p_ln)
        + model.log_beta * (c0 * (o - a + 1) + m * sum_p)
    )


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
