import dataclasses
import math
import re
import warnings

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from edgeperf import default_registry, energy
from edgeperf.energy import (
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
from edgeperf.errors import (
    DomainError,
    ImplausibleWattsWarning,
    InvariantViolation,
    MissingCoefficient,
    NonpositiveTBT,
    UnitUndeclared,
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
from edgeperf.profiles import (
    DecodeLatencyCoeffs,
    ModelProfile,
    PiecewisePowerModel,
    PrefillLatencyCoeffs,
)

DECODE_PROFILES = [
    p for p in default_registry() if p.decode_power is not None and p.decode_latency is not None
]


def per_token_sum(profile, input_len, output_len):
    """The definition of decode energy: power times TBT, summed per output token."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImplausibleWattsWarning)
        return math.fsum(
            decode_power(profile, p) * tbt(profile, input_len + p - 1)
            for p in range(1, output_len + 1)
        )


def synthetic(m, n, threshold=4.0, log_alpha=1.0, log_beta=5.0, floor_watts=5.9):
    return ModelProfile(
        id="synthetic",
        param_count=1.0,
        prefill_latency=PrefillLatencyCoeffs(a=1e-7, b=2e-6, c=0.05),
        decode_latency=DecodeLatencyCoeffs(m=m, n=n),
        decode_power=PiecewisePowerModel(
            floor_watts=floor_watts,
            threshold=threshold,
            log_alpha=log_alpha,
            log_beta=log_beta,
        ),
    )


@st.composite
def valid_decode_profiles(draw):
    """Valid generated profiles: fractional thresholds and thresholds <= 1,
    TBT slopes of each sign, power up to near zero at the threshold."""
    n = draw(st.floats(0.005, 0.5))
    m = draw(st.sampled_from([-1.0, 0.0, 1.0])) * n / 8192 * draw(st.floats(0.0, 0.9))
    threshold = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0),
            st.floats(1.0, 300.0),
            st.integers(1, 300).map(float),
        )
    )
    log_alpha = draw(st.floats(-5.0, 20.0))
    # Power at the first log-branch position, from near zero up.
    first = max(math.ceil(threshold), 1)
    watts = draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 60.0)))
    log_beta = watts - log_alpha * math.log(first)
    try:
        return synthetic(m, n, threshold, log_alpha, log_beta, floor_watts=draw(st.floats(0.1, 60.0)))
    except InvariantViolation:  # the decode power dips to <= 0 at a later grid point
        reject()


class TestPrefillPower:
    def test_constant_branch(self, p15):
        assert prefill_power(p15, 512) == pytest.approx(5.636)
        assert prefill_power(p15, 4096) == pytest.approx(5.636)

    def test_missing_for_8b(self, p8):
        with pytest.raises(MissingCoefficient):
            prefill_power(p8, 512)

    def test_domain(self, p15):
        with pytest.raises(DomainError):
            prefill_power(p15, 0)


@pytest.mark.parametrize(
    "call, missing",
    [
        (lambda p: prefill_power(p, 512), "prefill_power"),
        (lambda p: prefill_energy_per_token(p, 512), "prefill_energy"),
        (lambda p: total_energy(p, 512, 10), "prefill_energy"),
        (lambda p: decode_power(p, 10), "decode_power"),
        (lambda p: decode_energy(p, 512, 10), "decode_power"),
    ],
    ids=["prefill_power", "prefill_energy_per_token", "total_energy", "decode_power", "decode_energy"],
)
def test_a_missing_set_is_named(call, missing):
    bare = ModelProfile(id="bare", param_count=1.0)
    with pytest.raises(MissingCoefficient, match=f"^profile 'bare' has no {missing} coefficients$") as info:
        call(bare)
    assert (info.value.model_id, info.value.coefficient_set) == ("bare", missing)


class TestPrefillEnergyPerToken:
    def test_decay_branch(self, p15):
        assert prefill_energy_per_token(p15, 128) == pytest.approx(0.002148, rel=1e-3)

    def test_long_input_limit(self, p15):
        assert prefill_energy_per_token(p15, 100000) == pytest.approx(0.000923, rel=1e-6)

    def test_log_branch_8b(self, p8):
        assert prefill_energy_per_token(p8, 2048) == pytest.approx(0.020521, rel=1e-3)

    def test_branch_switch_at_threshold(self, p8):
        # Threshold itself evaluates on the decay branch; past it, the log fit.
        v = p8.prefill_energy.threshold
        at = prefill_energy_per_token(p8, int(v))
        decay = p8.prefill_energy.exp_A * math.exp(-p8.prefill_energy.exp_lambda * v)
        assert at == pytest.approx(decay + p8.prefill_energy.exp_C)

    def test_integers_past_the_float_range(self, p15):
        # The decay branch multiplied the rate by the input length.
        with pytest.raises(DomainError, match=r"^input_len must be in \[1, 2\*\*53\], got 10+$"):
            prefill_energy_per_token(p15, 10**400)


class TestDecodePower:
    def test_floor(self, p15):
        assert decode_power(p15, 32) == pytest.approx(5.9)
        assert decode_power(p15, 63) == pytest.approx(5.9)

    def test_log_branch(self, p15):
        assert decode_power(p15, 512) == pytest.approx(7.933, rel=1e-3)
        # Position 64 is already on the log branch.
        expected = 0.756538 * math.log(64) + 3.213711
        assert decode_power(p15, 64) == pytest.approx(expected)

    def test_nondecreasing(self, p15):
        values = [decode_power(p15, o) for o in range(64, 4097, 64)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))

    def test_implausible_watts_warning(self, p14):
        with pytest.warns(ImplausibleWattsWarning):
            watts = decode_power(p14, 512)
        assert watts > 60.0

    def test_no_warning_in_plausible_range(self, p15):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decode_power(p15, 4096)


class TestDecodeEnergy:
    def test_constant_regime_worked_value(self, p15):
        assert decode_energy(p15, 512, 32) == pytest.approx(4.5163, rel=1e-3)

    def test_constant_regime_is_power_times_latency(self, p15):
        for o in (1, 16, 63):
            product = 5.9 * decode_latency(p15, 512, o)
            assert abs(decode_energy(p15, 512, o) - product) <= 1e-9

    def test_zero_output(self, p15):
        assert decode_energy(p15, 512, 0) == 0.0

    def test_matches_definitional_sum(self, p15):
        i, o = 512, 200
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ImplausibleWattsWarning)
            summed = sum(
                decode_power(p15, k + 1) * tbt(p15, i + k) for k in range(o)
            )
        assert decode_energy(p15, i, o) == pytest.approx(summed, rel=1e-12)

    def test_monotone_in_output(self, p15):
        assert decode_energy(p15, 512, 64) > decode_energy(p15, 512, 32)

    def test_missing_power_model(self, registry):
        bare = registry.get("dsr1-qwen-14b-w4")
        stripped = type(bare)(id="x", param_count=1.0)
        with pytest.raises(MissingCoefficient):
            decode_energy(stripped, 128, 10)

    @settings(max_examples=150, deadline=None)
    @given(
        profile=st.sampled_from(DECODE_PROFILES),
        input_len=st.integers(1, 4096),
        output_len=st.integers(0, 8192),
    )
    def test_closed_form_matches_per_token_sum(self, profile, input_len, output_len):
        output_len = min(output_len, 8192 - input_len)
        want = per_token_sum(profile, input_len, output_len)
        assert abs(decode_energy(profile, input_len, output_len) - want) <= 1e-12 * abs(want)

    @settings(max_examples=150, deadline=None)
    @given(
        profile=valid_decode_profiles(),
        output_len=st.integers(0, 2048),
        input_len=st.integers(1, 8192),
    )
    def test_closed_form_on_generated_profiles(self, profile, output_len, input_len):
        # Contexts stay inside [1, 8192], where a valid profile's TBT is positive.
        input_len = min(input_len, 8193 - output_len)
        want = per_token_sum(profile, input_len, output_len)
        assert abs(decode_energy(profile, input_len, output_len) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("output_len", [3, 20], ids=["floor", "log"])
    def test_first_nonpositive_tbt_context(self, output_len):
        # TBT = 2**-6 - 2**-20 * context is exactly 0 at context 16384, past
        # the [1, 8192] over which a profile's TBT must be positive.
        profile = synthetic(m=-(2**-20), n=2**-6, threshold=4.0)
        message = "TBT model of 'synthetic' is nonpositive at context 16384"
        for call in (decode_energy, decode_latency, total_latency):
            with pytest.raises(NonpositiveTBT, match=f"^{message}$"):
                call(profile, 16382, output_len)
        with pytest.raises(NonpositiveTBT, match="at context 16424$"):
            decode_energy(profile, 16424, output_len)
        assert decode_energy(profile, 16375, 9) > 0.0  # contexts 16375 .. 16383
        # A zero inside [1, 8192], as at context 10 here, is refused when built.
        with pytest.raises(InvariantViolation, match=r"^decode_latency\.m: TBT nonpositive"):
            synthetic(m=-1e-3, n=0.01, threshold=4.0)

    @pytest.mark.parametrize("output_len", [0, 10, 300], ids=["zero", "floor", "log"])
    @pytest.mark.parametrize("input_len", [0, -5])
    def test_input_len_domain(self, p14, input_len, output_len):
        message = re.escape(f"input_len must be in [1, 2**53], got {input_len}")
        with pytest.raises(DomainError, match=f"^{message}$"):
            decode_energy(p14, input_len, output_len)

    def test_zero_output_needs_decode_latency(self, registry):
        # dsr1-qwen-14b-w4 has decode power but no decode latency.
        with pytest.raises(MissingCoefficient, match="no decode_latency coefficients$"):
            decode_energy(registry.get("dsr1-qwen-14b-w4"), 512, 0)

    @pytest.mark.parametrize("output_len", [10**200, 10**400])
    def test_integers_past_the_float_range(self, p14, output_len):
        with pytest.raises(DomainError, match=r"^output_len must be in \[0, 2\*\*53\], got 10+$"):
            decode_energy(p14, 512, output_len)


class TestTotalEnergy:
    def test_prefill_only_worked_value(self, p15):
        joules = total_energy(p15, 128, 0)
        assert joules == pytest.approx(0.275, rel=2e-3)
        # Cross-model consistency: P * L lands within a few percent.
        pl = prefill_power(p15, 128) * prefill_latency(p15, 128)
        assert pl == pytest.approx(0.2753, rel=1e-3)

    def test_decomposition_exact(self, p15):
        joules = total_energy(p15, 128, 40)
        prefill_part = prefill_energy_per_token(p15, 128) * 128
        assert joules == prefill_part + decode_energy(p15, 128, 40)

    def test_unit_undeclared(self, p15):
        import dataclasses

        from edgeperf.profiles import EnergyUnit

        undeclared = dataclasses.replace(
            p15,
            prefill_energy=dataclasses.replace(
                p15.prefill_energy, unit=EnergyUnit.FITTED
            ),
        )
        with pytest.raises(UnitUndeclared):
            total_energy(undeclared, 128, 10)

    @pytest.mark.parametrize(
        "model",
        [
            "dsr1-qwen-14b",  # log branch: the per-token energy times input_len
            "dsr1-qwen-1.5b",  # decay branch: the rate times input_len
        ],
    )
    def test_integers_past_the_float_range(self, registry, model):
        with pytest.raises(DomainError, match=r"^input_len must be in \[1, 2\*\*53\], got 10+$"):
            total_energy(registry.get(model), 10**400, 1)


class TestCost:
    def test_single_batch_figures(self):
        usage = UsageSample(tokens=195624, duration=4358, energy=0.0317)
        breakdown = cost_per_million_tokens(usage, CostParams())
        assert breakdown.energy_cost == pytest.approx(0.0243, abs=2e-3)
        assert breakdown.hardware_cost == pytest.approx(0.2785, abs=2e-3)
        assert breakdown.total == pytest.approx(0.3028, abs=2e-3)

    def test_batched_figures(self):
        usage = UsageSample(tokens=195624, duration=398, energy=0.003)
        breakdown = cost_per_million_tokens(usage, CostParams())
        assert breakdown.energy_cost == pytest.approx(0.0023, abs=2e-3)
        assert breakdown.hardware_cost == pytest.approx(0.0254, abs=2e-3)
        assert breakdown.total == pytest.approx(0.0277, abs=2e-3)

    def test_zero_prices(self):
        usage = UsageSample(tokens=1000, duration=10, energy=0.5)
        breakdown = cost_per_million_tokens(usage, CostParams(0.0, 0.0))
        assert breakdown.total == 0.0

    def test_linearity_in_electricity(self):
        usage = UsageSample(tokens=1000, duration=10, energy=0.5)
        single = cost_per_million_tokens(usage, CostParams(electricity=0.1))
        double = cost_per_million_tokens(usage, CostParams(electricity=0.2))
        assert double.energy_cost == 2 * single.energy_cost
        assert double.hardware_cost == single.hardware_cost

    def test_total_is_exact_sum(self):
        breakdown = CostBreakdown(energy_cost=0.1, hardware_cost=0.2)
        assert breakdown.total == 0.1 + 0.2

    def test_usage_validation(self):
        with pytest.raises(DomainError):
            UsageSample(tokens=0, duration=1.0, energy=0.0)
        with pytest.raises(DomainError):
            UsageSample(tokens=1, duration=0.0, energy=0.0)
        with pytest.raises(DomainError):
            UsageSample(tokens=1, duration=1.0, energy=-0.1)
        with pytest.raises(DomainError):
            CostParams(electricity=-0.1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["tokens", "duration", "energy"])
    def test_usage_refuses_non_finite(self, field, bad):
        fields = {"tokens": 1000, "duration": 10.0, "energy": 0.5, field: bad}
        rule = r"tokens must be in \[1, 2\*\*53\]" if field == "tokens" else f"{field} must be finite"
        with pytest.raises(DomainError, match=rule):
            UsageSample(**fields)

    @pytest.mark.parametrize("tokens", [0, 2**53 + 1, 10**400])
    def test_usage_tokens_lie_in_the_count_domain(self, tokens):
        # 10**400 passed the former `< math.inf` test and overflowed in tokens / 1e6.
        with pytest.raises(DomainError, match=r"^tokens must be in \[1, 2\*\*53\], got "):
            UsageSample(tokens=tokens, duration=10.0, energy=0.5)
        assert UsageSample(tokens=2**53, duration=10.0, energy=0.5).tokens == 2**53

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["electricity", "hardware_rate"])
    def test_prices_refuse_non_finite(self, field, bad):
        with pytest.raises(DomainError, match="must be finite"):
            CostParams(**{field: bad})


BIG_NEGATIVE = -(10**5000)  # str() refuses an int of more than 4300 digits


@pytest.mark.parametrize(
    "call",
    [
        lambda p: prefill_power(p, BIG_NEGATIVE),
        lambda p: prefill_energy_per_token(p, BIG_NEGATIVE),
        lambda p: decode_power(p, BIG_NEGATIVE),
        lambda p: decode_energy(p, BIG_NEGATIVE, 1),
        lambda p: decode_energy(p, 512, BIG_NEGATIVE),
        lambda p: total_energy(p, BIG_NEGATIVE, 1),
        lambda p: UsageSample(tokens=BIG_NEGATIVE, duration=1.0, energy=0.5),
    ],
    ids=[
        "prefill_power",
        "prefill_energy_per_token",
        "decode_power",
        "decode_energy-input",
        "decode_energy-output",
        "total_energy",
        "UsageSample",
    ],
)
def test_integers_past_the_str_limit_are_domain_errors(p15, call):
    with pytest.raises(DomainError, match="got a negative integer of 16610 bits$"):
        call(p15)


INPUT = "input_len must be in [1, 2**53]"
OUTPUT = "output_len must be in [0, 2**53]"

# Every public call that takes a token count: the rule it states and the
# largest count it accepts. A context sums two counts, so tbt() takes 2**54.
COUNT_CALLS = [
    pytest.param(lambda p, x: padded_length(x), INPUT, 2**53, id="padded_length"),
    pytest.param(prefill_latency, INPUT, 2**53, id="prefill_latency"),
    pytest.param(tbt, "context_len must be in [1, 2**54]", 2**54, id="tbt"),
    pytest.param(lambda p, x: decode_latency(p, x, 1), INPUT, 2**53, id="decode_latency-input"),
    pytest.param(lambda p, x: decode_latency(p, 1, x), OUTPUT, 2**53, id="decode_latency-output"),
    pytest.param(lambda p, x: total_latency(p, x, 1).total, INPUT, 2**53, id="total_latency-input"),
    pytest.param(lambda p, x: total_latency(p, 1, x).total, OUTPUT, 2**53, id="total_latency-output"),
    pytest.param(
        lambda p, x: max_output_tokens(p, x, LatencyBudget(1e26)), INPUT, 2**53, id="max_output_tokens"
    ),
    pytest.param(prefill_power, INPUT, 2**53, id="prefill_power"),
    pytest.param(prefill_energy_per_token, INPUT, 2**53, id="prefill_energy_per_token"),
    pytest.param(decode_power, "output_pos must be in [1, 2**53]", 2**53, id="decode_power"),
    pytest.param(lambda p, x: decode_energy(p, x, 1), INPUT, 2**53, id="decode_energy-input"),
    pytest.param(lambda p, x: decode_energy(p, 1, x), OUTPUT, 2**53, id="decode_energy-output"),
    pytest.param(lambda p, x: total_energy(p, x, 1), INPUT, 2**53, id="total_energy-input"),
    pytest.param(lambda p, x: total_energy(p, 1, x), OUTPUT, 2**53, id="total_energy-output"),
]


@pytest.fixture(scope="module")
def every_set(p15, p14):
    """The 14B profile with the 1.5B prefill power fit: one profile serves every call."""
    return dataclasses.replace(p14, prefill_power=p15.prefill_power)


@pytest.mark.parametrize("call, rule, bound", COUNT_CALLS)
def test_count_domain_ends_at_its_bound(every_set, call, rule, bound):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImplausibleWattsWarning)
        assert math.isfinite(call(every_set, bound))
    with pytest.raises(DomainError) as err:
        call(every_set, bound + 1)
    assert str(err.value) == f"{rule}, got {bound + 1}"


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**400, str(10**400)),  # past the float range
        (10**5000, "an integer of 16610 bits"),  # past the str() limit
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
    ],
    ids=["past-the-float-range", "past-the-str-limit", "nan", "inf", "-inf"],
)
@pytest.mark.parametrize("call, rule, bound", COUNT_CALLS)
def test_counts_outside_the_domain_are_domain_errors(every_set, call, rule, bound, value, shown):
    with pytest.raises(DomainError) as err:
        call(every_set, value)
    assert str(err.value) == f"{rule}, got {shown}"
