import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeperf import default_registry, latency
from edgeperf.errors import (
    DomainError,
    InfeasibleBudget,
    InvariantViolation,
    MissingCoefficient,
    NonpositiveTBT,
)
from edgeperf.latency import (
    LatencyBudget,
    decode_latency,
    max_output_tokens,
    padded_length,
    prefill_latency,
    tbt,
    total_latency,
)
from edgeperf.profiles import DecodeLatencyCoeffs, ModelProfile, PrefillLatencyCoeffs


def make_profile(m, n, a=1e-7, b=2e-6, c=0.05):
    return ModelProfile(
        id="synthetic",
        param_count=1.0,
        prefill_latency=PrefillLatencyCoeffs(a=a, b=b, c=c),
        decode_latency=DecodeLatencyCoeffs(m=m, n=n),
    )


class TestPaddedLength:
    @pytest.mark.parametrize("raw,padded", [(1, 128), (128, 128), (129, 256), (4096, 4096)])
    def test_values(self, raw, padded):
        assert padded_length(raw) == padded

    def test_idempotent_and_bounded(self):
        for i in range(1, 1025, 7):
            p = padded_length(i)
            assert p >= i
            assert p % 128 == 0
            assert padded_length(p) == p

    def test_domain_error(self):
        with pytest.raises(DomainError):
            padded_length(0)


class TestPrefillLatency:
    def test_worked_values(self, p15, p14, p8):
        assert prefill_latency(p15, 128) == pytest.approx(0.04885, rel=1e-3)
        assert prefill_latency(p14, 512) == pytest.approx(0.7828, rel=1e-3)
        assert prefill_latency(p8, 256) == pytest.approx(0.2218, rel=1e-3)

    def test_constant_within_segment(self, p15):
        assert prefill_latency(p15, 129) == prefill_latency(p15, 256)
        assert prefill_latency(p15, 1) == prefill_latency(p15, 128)

    def test_increasing_across_segments(self, p14):
        values = [prefill_latency(p14, 128 * k) for k in range(1, 33)]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_missing_coefficients(self, registry):
        with pytest.raises(MissingCoefficient):
            prefill_latency(registry.get("dsr1-qwen-1.5b-w4"), 128)


class TestTbt:
    def test_worked_values(self, p15, p8):
        assert tbt(p15, 512) == pytest.approx(0.0239232, rel=1e-9)
        assert tbt(p8, 1) == pytest.approx(0.1000007, rel=1e-6)

    def test_drift_8b(self, p8):
        drift = tbt(p8, 4096) / tbt(p8, 1) - 1.0
        assert drift == pytest.approx(0.028, abs=0.005)

    def test_nonpositive(self):
        # TBT = 2**-6 - 2**-20 * context is exactly 0 at 16384 and 2**-7 at 8192.
        profile = make_profile(m=-(2**-20), n=2**-6)
        assert tbt(profile, 8192) == 2**-7
        assert tbt(profile, 16383) > 0
        with pytest.raises(NonpositiveTBT, match="at context 16384$"):
            tbt(profile, 16384)
        # A zero inside [1, 8192] is refused when the profile is built.
        rule = r"TBT nonpositive within context range \[1, 8192\]"
        with pytest.raises(InvariantViolation, match=rf"^decode_latency\.m: {rule}$"):
            make_profile(m=-1e-3, n=0.01)

    def test_context_domain(self, p15):
        with pytest.raises(DomainError):
            tbt(p15, 0)


class TestDecodeLatency:
    def test_worked_values(self, p8, p14):
        assert decode_latency(p8, 512, 128) == pytest.approx(12.851, rel=1e-3)
        assert decode_latency(p14, 512, 256) == pytest.approx(48.057, rel=1e-3)

    def test_zero_output(self, p8):
        assert decode_latency(p8, 512, 0) == 0.0

    def test_matches_tbt_sum(self, p14):
        i, o = 300, 97
        direct = decode_latency(p14, i, o)
        summed = sum(tbt(p14, i + k) for k in range(o))
        assert abs(direct - summed) <= 1e-9

    def test_telescoping(self, p15, p8, p14):
        rng = random.Random(7)
        for profile in (p15, p8, p14):
            for _ in range(50):
                i = rng.randint(1, 2048)
                o1 = rng.randint(0, 512)
                o2 = rng.randint(0, 512)
                whole = decode_latency(profile, i, o1 + o2)
                split = decode_latency(profile, i, o1) + decode_latency(profile, i + o1, o2)
                assert abs(whole - split) <= 1e-9

    def test_strictly_increasing(self, p8):
        values = [decode_latency(p8, 512, o) for o in range(0, 200)]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_domain_errors(self, p8):
        with pytest.raises(DomainError):
            decode_latency(p8, 0, 10)
        with pytest.raises(DomainError):
            decode_latency(p8, 10, -1)

    @settings(max_examples=200, deadline=None)
    @given(m=st.floats(-1e-2, 1e-2), n=st.floats(-0.5, 0.5))
    def test_tbt_nonpositive_in_range_refused_when_built(self, m, n):
        # TBT is linear, so it is positive over [1, 8192] iff it is at 0 and 8192.
        if n > 0 and n + m * 8192 > 0:
            assert make_profile(m=m, n=n).decode_latency == DecodeLatencyCoeffs(m=m, n=n)
        else:
            with pytest.raises(InvariantViolation, match=r"^decode_latency\.[mn]: "):
                make_profile(m=m, n=n)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.floats(1e-6, 0.5),
        # Where m*c + n crosses zero: past 8192, nowhere (m = -0.0), or at a
        # negative context (m > 0).
        zero=st.floats(8193.0, 8800.0) | st.just(math.inf) | st.floats(-1e4, -1.0),
        input_len=st.integers(7800, 8800),
        output_len=st.integers(0, 1000),
    )
    def test_refuses_at_first_nonpositive_context(self, n, zero, input_len, output_len):
        m = -n / zero
        profile = make_profile(m=m, n=n)
        contexts = range(input_len, input_len + output_len)
        bad = next((c for c in contexts if m * c + n <= 0), None)
        if bad is None:
            assert decode_latency(profile, input_len, output_len) == pytest.approx(
                sum(tbt(profile, c) for c in contexts), rel=1e-9, abs=1e-12
            )
        else:
            with pytest.raises(NonpositiveTBT, match=f"at context {bad}$"):
                decode_latency(profile, input_len, output_len)

    @settings(max_examples=200, deadline=None)
    @given(
        zero=st.floats(1e12, 2**53 - 2**16),
        n=st.floats(0.01, 1.0),
        input_len=st.integers(1, 8192),
    )
    def test_far_zero_matches_tbt(self, zero, n, input_len):
        # Zeros at contexts 1e12..2**53, where ceil(-n/m) is often off by
        # rounding; the refused context must be tbt()'s first refusal.
        profile = make_profile(m=-n / zero, n=n)
        with pytest.raises(NonpositiveTBT) as info:
            decode_latency(profile, input_len, 2**53)
        bad = int(re.search(r"at context (\d+)$", str(info.value)).group(1))
        with pytest.raises(NonpositiveTBT):
            tbt(profile, bad)
        assert bad == input_len or tbt(profile, bad - 1) > 0

    def test_nonpositive_context_past_2_53_keeps_its_error(self):
        # Both counts are in [.., 2**53]; the context I + p - 1 they sum is not.
        profile = make_profile(m=-1e-17, n=0.1)
        with pytest.raises(NonpositiveTBT, match="at context 9999999999999999$"):
            decode_latency(profile, 2**52, 2**53)


class TestTotalLatency:
    def test_worked_value(self, p14):
        breakdown = total_latency(p14, 512, 128)
        assert breakdown.prefill == pytest.approx(0.783, rel=1e-3)
        assert breakdown.decode == pytest.approx(24.019, rel=1e-3)
        assert breakdown.total == pytest.approx(24.802, rel=1e-3)

    def test_total_resums_exactly(self, p8):
        breakdown = total_latency(p8, 700, 333)
        assert breakdown.total == breakdown.prefill + breakdown.decode

    def test_zero_decode(self, p15):
        breakdown = total_latency(p15, 128, 0)
        assert breakdown.decode == 0.0
        assert breakdown.total == breakdown.prefill

    @pytest.mark.parametrize(
        "model, input_len, output_len, form",
        [
            ("dsr1-qwen-14b", 10**400, 1, "prefill"),
            ("dsr1-qwen-14b", 512, 10**400, "decode"),  # n*O
            ("dsr1-qwen-14b", 512, 10**200, "decode"),  # O*(O-1)/2
            ("dsr1-qwen-1.5b", 512, 10**400, "decode"),  # m*(I+O-1) in the TBT check
        ],
    )
    def test_integers_past_the_float_range(self, registry, model, input_len, output_len, form):
        # Refused where the count enters, before the closed form of that phase.
        rule = {"prefill": r"input_len must be in \[1", "decode": r"output_len must be in \[0"}[form]
        with pytest.raises(DomainError, match=rf"^{rule}, 2\*\*53\], got 10+$"):
            total_latency(registry.get(model), input_len, output_len)


BIG_NEGATIVE = -(10**5000)  # str() refuses an int of more than 4300 digits


@pytest.mark.parametrize(
    "call",
    [
        lambda p: padded_length(BIG_NEGATIVE),
        lambda p: prefill_latency(p, BIG_NEGATIVE),
        lambda p: tbt(p, BIG_NEGATIVE),
        lambda p: decode_latency(p, BIG_NEGATIVE, 1),
        lambda p: decode_latency(p, 512, BIG_NEGATIVE),
        lambda p: total_latency(p, BIG_NEGATIVE, 1),
        lambda p: max_output_tokens(p, BIG_NEGATIVE, LatencyBudget(10.0)),
        lambda p: LatencyBudget(BIG_NEGATIVE),
    ],
    ids=[
        "padded_length",
        "prefill_latency",
        "tbt",
        "decode_latency-input",
        "decode_latency-output",
        "total_latency",
        "max_output_tokens",
        "LatencyBudget",
    ],
)
def test_integers_past_the_str_limit_are_domain_errors(p14, call):
    with pytest.raises(DomainError, match="got a negative integer of 16610 bits$"):
        call(p14)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: tbt(p, 10**400), f"context_len must be in [1, 2**54], got {10**400}"),
        (
            lambda p: max_output_tokens(p, 512, LatencyBudget(10**400)),
            "budget limit must be finite to bound the output length",
        ),
    ],
    ids=["tbt", "max_output_tokens"],
)
def test_integers_past_the_float_range_are_domain_errors(p15, p14, call, message):
    for profile in (p15, p14):
        with pytest.raises(DomainError) as err:
            call(profile)
        assert str(err.value) == message


class TestMaxOutputTokens:
    def test_worked_case_14b(self, p14):
        assert max_output_tokens(p14, 512, LatencyBudget(30.0)) == 155
        assert total_latency(p14, 512, 155).total <= 30.0
        assert total_latency(p14, 512, 156).total > 30.0

    def test_infeasible(self, p14):
        with pytest.raises(InfeasibleBudget):
            max_output_tokens(p14, 512, LatencyBudget(0.5))

    def test_budget_equal_to_prefill(self, p14):
        budget = LatencyBudget(latency.prefill_latency(p14, 512))
        assert max_output_tokens(p14, 512, budget) == 0

    def test_sandwich_randomized(self, p15, p8, p14):
        rng = random.Random(11)
        for profile in (p15, p8, p14):
            for _ in range(40):
                i = rng.randint(1, 4096)
                prefill = latency.prefill_latency(profile, i)
                limit = prefill + rng.uniform(0.0, 200.0)
                o = max_output_tokens(profile, i, LatencyBudget(limit))
                assert total_latency(profile, i, o).total <= limit
                assert total_latency(profile, i, o + 1).total > limit

    def test_zero_slope(self):
        profile = make_profile(m=0.0, n=0.1)
        budget = LatencyBudget(prefill_latency(profile, 64) + 1.05)
        assert max_output_tokens(profile, 64, budget) == 10

    def test_nonpositive_tbt_cap(self, p15):
        # The 1.5B slope is negative; far beyond the fitted region the linear
        # TBT crosses zero, so an absurd budget must refuse instead of looping.
        with pytest.raises(NonpositiveTBT):
            max_output_tokens(p15, 512, LatencyBudget(1e9))

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            LatencyBudget(0.0)
        with pytest.raises(DomainError):
            LatencyBudget(-1.0)

    def test_infinite_budget_refused(self, p14):
        # An unbounded budget stays valid for selection, but bounds no length.
        budget = LatencyBudget(float("inf"))
        with pytest.raises(DomainError, match="finite"):
            max_output_tokens(p14, 512, budget)

    @pytest.mark.parametrize(
        "model, input_len, limit, tokens",
        [
            ("dsr1-qwen-14b", 3716, 793.8039132299999, 3997),
            ("dsr1-llama-8b", 3733, 101.667501796, 880),
            ("dsr1-qwen-1.5b", 3191, 32.2652158, 1307),
        ],
    )
    def test_boundary_budgets_agree_with_total_latency(
        self, registry, model, input_len, limit, tokens
    ):
        # Here decode(O) <= limit - prefill and prefill + decode(O) <= limit
        # disagree in floats; the answer follows the sum total_latency returns.
        profile = registry.get(model)
        assert max_output_tokens(profile, input_len, LatencyBudget(limit)) == tokens
        assert total_latency(profile, input_len, tokens).total <= limit
        assert total_latency(profile, input_len, tokens + 1).total > limit


SHIPPED = [p for p in default_registry() if p.prefill_latency and p.decode_latency]


class TestInversionContract:
    def test_agrees_with_total_latency_next_to_every_total(self):
        # Budgets at a total and at its two float neighbours, where a test on
        # decode(O) <= budget - prefill alone is off by one token now and then.
        rng = random.Random(5)
        for _ in range(10_000):
            profile = rng.choice(SHIPPED)
            input_len = rng.randint(1, 4096)
            total = total_latency(profile, input_len, rng.randint(0, 8192 - input_len)).total
            for limit in (math.nextafter(total, 0.0), total, math.nextafter(total, math.inf)):
                try:
                    k = max_output_tokens(profile, input_len, LatencyBudget(limit))
                except InfeasibleBudget:
                    assert limit < prefill_latency(profile, input_len)
                    continue
                assert total_latency(profile, input_len, k).total <= limit
                assert total_latency(profile, input_len, k + 1).total > limit

    @settings(max_examples=400, deadline=None)
    @given(
        profile=st.one_of(
            st.sampled_from(SHIPPED),
            # TBT crosses zero past 8192, from just past it to where m is
            # subnormal, or never (m = -0.0).
            st.builds(
                lambda n, zero: make_profile(m=-n / zero, n=n),
                n=st.floats(1e-6, 1.0),
                zero=st.one_of(
                    st.floats(8193.0, 2**15), st.floats(2**15, 1e308), st.just(math.inf)
                ),
            ),
        ),
        input_len=st.integers(1, 2**15),
        exponent=st.floats(-3.0, 300.0),
    )
    def test_answer_or_refusal_within_60_evaluations(self, profile, input_len, exponent):
        limit = 10.0**exponent
        prefill = prefill_latency(profile, input_len)
        calls = []

        def counted(*args):
            calls.append(args)
            return decode_latency(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(latency, "decode_latency", counted)
            try:
                k = max_output_tokens(profile, input_len, LatencyBudget(limit))
            except InfeasibleBudget:
                assert limit < prefill
                k = None
            except (NonpositiveTBT, DomainError):
                k = None
        assert len(calls) <= 60
        if k is not None:
            assert total_latency(profile, input_len, k).total <= limit
            assert total_latency(profile, input_len, k + 1).total > limit
