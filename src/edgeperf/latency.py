"""Closed-form latency models and their inversion.

Prefill latency is quadratic in the padded input length; decode latency is the
telescoped sum of a linear time-between-tokens model. All values are seconds
as 64-bit floats; no unit conversion happens in this layer. ``padded_length``
and ``prefill_latency`` are defined in ``profiles`` and imported here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, InfeasibleBudget, MissingCoefficient, NonpositiveTBT
from .profiles import _MAX_TOKENS, DecodeLatencyCoeffs, ModelProfile
from .profiles import padded_length, prefill_latency


@dataclass(frozen=True)
class LatencyBudget:
    """An end-to-end latency target in seconds."""

    limit: float

    def __post_init__(self):
        if not self.limit > 0:
            raise DomainError("budget limit must be > 0", got=self.limit)


@dataclass(frozen=True)
class LatencyBreakdown:
    prefill: float
    decode: float

    @property
    def total(self) -> float:
        return self.prefill + self.decode


def _decode_coeffs(profile: ModelProfile) -> DecodeLatencyCoeffs:
    if profile.decode_latency is None:
        raise MissingCoefficient(profile.id, "decode_latency")
    return profile.decode_latency


def tbt(profile: ModelProfile, context_len: int) -> float:
    """Time between tokens at the given context length, in seconds. A context
    I + p - 1 sums two counts, so it may reach 2**54."""
    if not 1 <= context_len <= 2 * _MAX_TOKENS:
        raise DomainError("context_len must be in [1, 2**54]", got=context_len)
    coeffs = _decode_coeffs(profile)
    value = coeffs.m * context_len + coeffs.n
    if value <= 0:
        raise NonpositiveTBT(
            f"TBT model of {profile.id!r} is nonpositive at context {context_len}"
        )
    return value


def _first(holds, lo: int, hi: int) -> int:
    """Least k in (lo, hi] where ``holds``, false at lo and true from there to hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _tbt_zero(m: float, n: float, lo: int, hi: int) -> int | None:
    """First context c in [lo, hi] where tbt() refuses, m*c + n <= 0, or None.
    Two evaluations confirm ceil(-n/m), which rounding moves only past ~2**50."""
    if m * (hi if m < 0.0 else lo) + n > 0.0:  # the TBT is least at one end
        return None
    if m >= 0.0 or m * lo + n <= 0.0:
        return lo
    c = math.ceil(-n / m)  # finite: here n > 0 and m*hi + n <= 0
    if m * c + n <= 0.0 < m * (c - 1) + n:
        return c
    return _first(lambda x: m * x + n <= 0.0, lo, hi)


def _decode_domain(profile: ModelProfile, input_len: int, output_len: int) -> DecodeLatencyCoeffs:
    """The decode coefficients, once I is in [1, 2**53], O in [0, 2**53] and
    the TBT of every context in [I, I+O-1] is positive; else tbt() raises at
    the first, which may lie past 2**53."""
    coeffs = _decode_coeffs(profile)
    if not 1 <= input_len <= _MAX_TOKENS:
        raise DomainError("input_len must be in [1, 2**53]", got=input_len)
    if not 0 <= output_len <= _MAX_TOKENS:
        raise DomainError("output_len must be in [0, 2**53]", got=output_len)
    m, n = coeffs.m, coeffs.n
    least = input_len if m >= 0 else input_len + output_len - 1  # where TBT is least
    if output_len and m * least + n <= 0:
        tbt(profile, _tbt_zero(m, n, input_len, input_len + output_len - 1))
    return coeffs


def decode_latency(profile: ModelProfile, input_len: int, output_len: int) -> float:
    """Seconds to generate ``output_len`` tokens after an ``input_len`` prompt.

    Closed form n*O + m*(I*O + O*(O-1)/2), identical to summing the TBT over
    output positions with contexts I .. I+O-1. Raises NonpositiveTBT, with
    tbt()'s message, at the first of those contexts whose TBT is <= 0.
    """
    coeffs = _decode_domain(profile, input_len, output_len)
    o = output_len
    return coeffs.n * o + coeffs.m * (input_len * o + o * (o - 1) / 2)


def total_latency(profile: ModelProfile, input_len: int, output_len: int) -> LatencyBreakdown:
    """Prefill plus decode; ``total`` re-sums the components exactly."""
    return LatencyBreakdown(
        prefill=prefill_latency(profile, input_len),
        decode=decode_latency(profile, input_len, output_len),
    )


def max_output_tokens(profile: ModelProfile, input_len: int, budget: LatencyBudget) -> int:
    """Largest O >= 0 whose total latency fits inside the budget, for an
    input_len in the count domain [1, 2**53].

    Each candidate is tested on the sum that total_latency(...).total returns,
    prefill + decode(O) <= budget, so the answer agrees with total_latency:
    total(O) fits and total(O+1) does not. The root of the decode quadratic on
    budget - prefill is tried first, else [0, hi] is bisected in <= 53 steps;
    hi is the TBT cap or 2**53. A budget that covers total(hi) raises
    NonpositiveTBT at the cap and DomainError at 2**53, as does one past the
    float range, inf included."""
    limit = budget.limit
    if limit > sys.float_info.max:
        raise DomainError("budget limit must be finite to bound the output length")
    coeffs = _decode_coeffs(profile)
    prefill = prefill_latency(profile, input_len)
    if limit < prefill:
        raise InfeasibleBudget(f"budget {limit} s is below the prefill cost {prefill} s")
    m, n = coeffs.m, coeffs.n

    zero = None
    if m < 0.0 or m * input_len + n <= 0.0:  # else the TBT stays positive from I on
        zero = _tbt_zero(m, n, input_len, input_len + _MAX_TOKENS)
    hi = _MAX_TOKENS if zero is None else zero - input_len
    if zero is not None and prefill + decode_latency(profile, input_len, hi) <= limit:
        raise NonpositiveTBT(
            f"budget exceeds the TBT-positive range of {profile.id!r} "
            f"(cap {hi} output tokens at input_len {input_len})"
        )

    # decode(O) = (m/2) O^2 + (n + m I - m/2) O = limit - prefill seeds O
    remaining = limit - prefill
    half_m = m / 2.0
    lin = n + m * input_len - half_m
    if m == 0.0:
        root = remaining // n
    else:
        disc = lin * lin + 4.0 * half_m * remaining
        root = (-lin + math.sqrt(disc)) / m if disc >= 0.0 else 0.0
    k = int(root) if 0.0 < root < hi else 0  # past hi, only the bisection answers
    if k == 0 or prefill + decode_latency(profile, input_len, k) <= limit:
        if prefill + decode_latency(profile, input_len, k + 1) > limit:
            return k
    if zero is None and prefill + decode_latency(profile, input_len, hi) <= limit:
        raise DomainError(f"budget {limit} s fits at least 2**53 output tokens")
    return _first(lambda k: prefill + decode_latency(profile, input_len, k) > limit, 0, hi) - 1
