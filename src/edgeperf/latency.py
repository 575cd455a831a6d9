"""Closed-form latency models and their inversion.

Prefill latency is quadratic in the padded input length; decode latency is the
telescoped sum of a linear time-between-tokens model. All values are seconds
as 64-bit floats; no unit conversion happens in this layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleBudget, MissingCoefficient, NonpositiveTBT
from .profiles import PAD_MULTIPLE, DecodeLatencyCoeffs, ModelProfile


@dataclass(frozen=True)
class LatencyBudget:
    """An end-to-end latency target in seconds."""

    limit: float

    def __post_init__(self):
        if not self.limit > 0:
            raise DomainError(f"budget limit must be > 0, got {self.limit}")


@dataclass(frozen=True)
class LatencyBreakdown:
    prefill: float
    decode: float

    @property
    def total(self) -> float:
        return self.prefill + self.decode


def padded_length(input_len: int) -> int:
    """Round the input length up to the hardware tile multiple (128)."""
    if input_len < 1:
        raise DomainError(f"input_len must be >= 1, got {input_len}")
    return ((input_len + PAD_MULTIPLE - 1) // PAD_MULTIPLE) * PAD_MULTIPLE


def _prefill_coeffs(profile: ModelProfile):
    if profile.prefill_latency is None:
        raise MissingCoefficient(profile.id, "prefill_latency")
    return profile.prefill_latency


def _decode_coeffs(profile: ModelProfile) -> DecodeLatencyCoeffs:
    if profile.decode_latency is None:
        raise MissingCoefficient(profile.id, "decode_latency")
    return profile.decode_latency


def prefill_latency(profile: ModelProfile, input_len: int) -> float:
    """Seconds to process the prompt: a*I_pad^2 + b*I_pad + c."""
    coeffs = _prefill_coeffs(profile)
    ipad = padded_length(input_len)
    return coeffs.a * ipad * ipad + coeffs.b * ipad + coeffs.c


def tbt(profile: ModelProfile, context_len: int) -> float:
    """Time between tokens at the given context length, in seconds."""
    if context_len < 1:
        raise DomainError(f"context_len must be >= 1, got {context_len}")
    coeffs = _decode_coeffs(profile)
    value = coeffs.m * context_len + coeffs.n
    if value <= 0:
        raise NonpositiveTBT(
            f"TBT model of {profile.id!r} is nonpositive at context {context_len}"
        )
    return value


def _decode_domain(profile: ModelProfile, input_len: int, output_len: int) -> DecodeLatencyCoeffs:
    """The decode coefficients, once I >= 1, O >= 0 and the TBT of every
    context in [I, I+O-1] is positive.

    TBT is linear in the context, so its least value there is at I when
    m >= 0 and at I+O-1 when m < 0: one endpoint decides. A nonpositive TBT
    is raised through tbt() at the first context where it occurs, which a
    bisection finds when m < 0.
    """
    coeffs = _decode_coeffs(profile)
    if input_len < 1:
        raise DomainError(f"input_len must be >= 1, got {input_len}")
    if output_len < 0:
        raise DomainError(f"output_len must be >= 0, got {output_len}")
    m, n = coeffs.m, coeffs.n
    least = input_len if m >= 0 else input_len + output_len - 1  # where TBT is least
    if output_len and m * least + n <= 0:
        lo, hi = input_len - 1, least
        while hi - lo > 1:  # the first nonpositive context is in (lo, hi]
            mid = (lo + hi) // 2
            if m * mid + n <= 0:
                hi = mid
            else:
                lo = mid
        tbt(profile, hi)
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


def _tbt_positive_output_cap(coeffs: DecodeLatencyCoeffs, input_len: int) -> int:
    """Largest O such that every generated token still has positive TBT.

    Only binding for m < 0, where the linear TBT form eventually crosses zero.
    """
    if coeffs.m >= 0:
        return -1  # unbounded
    # Need m*(I + O - 1) + n > 0 for the last position.
    limit = -coeffs.n / coeffs.m - input_len + 1
    cap = math.ceil(limit) - 1
    return max(cap, 0)


def max_output_tokens(profile: ModelProfile, input_len: int, budget: LatencyBudget) -> int:
    """Largest O >= 0 whose total latency fits inside the budget.

    Solves the decode quadratic analytically, then nudges by +-1 with forward
    evaluation so the boundary is exact in float arithmetic. An infinite
    budget bounds no output length and raises DomainError.
    """
    if budget.limit == math.inf:
        raise DomainError("budget limit must be finite to bound the output length")
    coeffs = _decode_coeffs(profile)
    prefill = prefill_latency(profile, input_len)
    if budget.limit < prefill:
        raise InfeasibleBudget(
            f"budget {budget.limit} s is below the prefill cost {prefill} s"
        )
    remaining = budget.limit - prefill
    m, n = coeffs.m, coeffs.n

    cap = _tbt_positive_output_cap(coeffs, input_len)
    if cap >= 0 and decode_latency(profile, input_len, cap) <= remaining:
        raise NonpositiveTBT(
            f"budget exceeds the TBT-positive range of {profile.id!r} "
            f"(cap {cap} output tokens at input_len {input_len})"
        )

    # decode(O) = (m/2) O^2 + (n + m I - m/2) O
    half_m = m / 2.0
    lin = n + m * input_len - half_m
    if m == 0.0:
        guess = int(remaining // n)
    else:
        disc = lin * lin + 4.0 * half_m * remaining
        if disc < 0.0:
            guess = 0
        else:
            guess = max(int((-lin + math.sqrt(disc)) / m), 0)

    # The cap goes first: decode_latency refuses an output that passes it.
    while (cap < 0 or guess + 1 <= cap) and decode_latency(
        profile, input_len, guess + 1
    ) <= remaining:
        guess += 1
    while guess > 0 and decode_latency(profile, input_len, guess) > remaining:
        guess -= 1
    return guess
