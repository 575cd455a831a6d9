import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeperf import profiles
from edgeperf.errors import (
    DuplicateId,
    EdgeperfError,
    InvariantViolation,
    ParseError,
    UnknownModel,
)
from edgeperf.planner import load_config_table
from edgeperf.profiles import (
    DecodeLatencyCoeffs,
    EnergyUnit,
    MeasurementRecord,
    ModelProfile,
    Phase,
    PiecewiseEnergyModel,
    PiecewisePowerModel,
    Precision,
    PrefillLatencyCoeffs,
    ProfileRegistry,
    load_measurements,
    load_profiles,
    serialize_profiles,
    validate_profile,
)


def minimal_profile_json(model_id="toy"):
    return {
        "id": model_id,
        "param_b": 1.5,
        "precision": "fp16",
        "prefill_latency": {"a": 1.56e-7, "b": 2.31e-6, "c": 0.046},
        "decode_latency": {"m": -1.50e-7, "n": 0.024},
    }


def full_profile_json(model_id="toy"):
    entry = minimal_profile_json(model_id)
    entry["prefill_power"] = {"floor_watts": 5.0, "threshold": 256, "log_alpha": 0.9, "log_beta": 0.6}
    entry["prefill_energy"] = {
        "threshold": 384,
        "exp_A": 0.29,
        "exp_lambda": 0.03,
        "exp_C": 0.009,
        "log_alpha": 0.016,
        "log_beta": -0.07,
    }
    return entry


# Every key of full_profile_json(), plus the ones it leaves at their defaults.
SETTABLE_KEYS = [(None, "param_b"), (None, "precision"), ("prefill_power", "log10")] + [
    (section, key)
    for section, body in full_profile_json().items()
    if isinstance(body, dict)
    for key in body
] + [("prefill_energy", "unit"), ("prefill_energy", "log10")]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=20,
)

MEASUREMENT_HEADER = "phase,input_len,output_len,latency_s,power_w,energy_j\n"


class TestLoadProfiles:
    def test_builtin_registry_ids(self, registry):
        assert registry.ids() == [
            "dsr1-llama-8b",
            "dsr1-llama-8b-w4",
            "dsr1-qwen-1.5b",
            "dsr1-qwen-1.5b-w4",
            "dsr1-qwen-14b",
            "dsr1-qwen-14b-w4",
        ]

    def test_builtin_coefficients(self, registry):
        p15 = registry.get("dsr1-qwen-1.5b")
        assert p15.prefill_latency.a == pytest.approx(1.56e-7)
        p8 = registry.get("dsr1-llama-8b")
        assert p8.decode_latency.m == pytest.approx(6.92e-7)
        # n carries the corrected value consistent with the measured TBT.
        assert p8.decode_latency.n == pytest.approx(0.10)

    def test_empty_source_gives_empty_registry(self):
        registry = load_profiles(io.StringIO(""))
        assert len(registry) == 0

    def test_duplicate_id_rejected(self):
        doc = {"profiles": [minimal_profile_json("x"), minimal_profile_json("x")]}
        with pytest.raises(DuplicateId):
            load_profiles(io.StringIO(json.dumps(doc)))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_profiles(io.StringIO("{not json"))

    def test_deeply_nested_json(self, tmp_path, cli_refuses):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ParseError, match="nested too deeply"):
            load_profiles(path)
        cli_refuses("list-models", "--profiles", str(path))

    def test_missing_profiles_key(self):
        with pytest.raises(ParseError):
            load_profiles(io.StringIO(json.dumps({"models": []})))

    def test_invariant_violation_on_bad_coefficient(self):
        entry = minimal_profile_json()
        entry["prefill_latency"]["a"] = 0.0
        with pytest.raises(InvariantViolation):
            load_profiles(io.StringIO(json.dumps({"profiles": [entry]})))

    def test_threshold_spellings(self):
        entry = minimal_profile_json()
        entry["prefill_power"] = {"floor_watts": 5.0, "threshold": None}
        reg = load_profiles(io.StringIO(json.dumps({"profiles": [entry]})))
        assert math.isinf(reg.get("toy").prefill_power.threshold)
        entry["prefill_power"] = {"floor_watts": 5.0, "threshold": "inf"}
        reg = load_profiles(io.StringIO(json.dumps({"profiles": [entry]})))
        assert math.isinf(reg.get("toy").prefill_power.threshold)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("prefill_power", "log_alpha", "abc"),
            ("prefill_power", "log10", "false"),
            ("prefill_latency", "b", math.nan),
            ("decode_latency", "m", math.inf),
            ("prefill_power", "floor_watts", math.inf),
            ("prefill_energy", "exp_C", -math.inf),
            ("prefill_power", "threshold", math.nan),
            ("prefill_energy", "exp_A", [1]),
            ("prefill_energy", "exp_A", True),
            pytest.param(None, "param_b", 10**400, id="param_b-huge-int"),
        ],
    )
    def test_bad_value_refused(self, section, key, value, tmp_path, cli_refuses):
        # json.dumps writes NaN and Infinity, which json.loads accepts.
        entry = full_profile_json()
        (entry[section] if section else entry)[key] = value
        text = json.dumps({"profiles": [entry]})
        with pytest.raises(ParseError):
            load_profiles(io.StringIO(text))
        path = tmp_path / "bad.json"
        path.write_text(text)
        cli_refuses("predict", "--profiles", str(path), "--model", "toy", "--input", "512", "--output", "128")

    @settings(max_examples=100, deadline=None)
    @given(place=st.sampled_from(SETTABLE_KEYS), value=JSON_VALUES)
    def test_any_json_value_loads_finite_or_raises(self, place, value):
        section, key = place
        entry = full_profile_json()
        (entry[section] if section else entry)[key] = value
        try:
            registry = load_profiles(io.StringIO(json.dumps({"profiles": [entry]})))
        except EdgeperfError:
            return
        profile = registry.get("toy")
        for record in [profile] + [getattr(profile, name) for name in profile.capabilities()]:
            for name, got in vars(record).items():
                if isinstance(got, float):
                    assert math.isfinite(got) or (name == "threshold" and got == math.inf)
                assert name != "log10" or type(got) is bool

    def test_strict_values_load(self):
        entry = full_profile_json()
        entry["prefill_power"]["log10"] = True
        entry["prefill_energy"]["threshold"] = "inf"
        entry["prefill_energy"]["unit"] = "joules_per_token"
        profile = load_profiles(io.StringIO(json.dumps({"profiles": [entry]}))).get("toy")
        assert profile.prefill_power.log10 is True
        assert profile.prefill_energy.threshold == math.inf
        assert profile.prefill_energy.unit is EnergyUnit.JOULES_PER_TOKEN

    def test_unknown_precision_rejected(self):
        entry = minimal_profile_json()
        entry["precision"] = "int3"
        with pytest.raises(ParseError):
            load_profiles(io.StringIO(json.dumps({"profiles": [entry]})))


class TestRegistry:
    def test_get_unknown_model(self, registry):
        with pytest.raises(UnknownModel):
            registry.get("nonexistent")

    def test_every_listed_id_retrievable(self, registry):
        for model_id in registry.ids():
            assert registry.get(model_id).id == model_id

    def test_contains_and_len(self, registry):
        assert "dsr1-qwen-14b" in registry
        assert "missing" not in registry
        assert len(registry) == 6

    def test_duplicate_at_construction(self):
        profile = ModelProfile(id="a", param_count=1.0)
        with pytest.raises(DuplicateId):
            ProfileRegistry([profile, profile])


POSITIVE = st.floats(min_value=1e-12, max_value=1e6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
THRESHOLD = st.just(math.inf) | st.floats(min_value=0.0, max_value=1e6)
POWER = st.builds(
    PiecewisePowerModel,
    floor_watts=POSITIVE,
    threshold=THRESHOLD,
    log_alpha=FINITE,
    log_beta=FINITE,
    log10=st.booleans(),
)
ENERGY = st.builds(
    PiecewiseEnergyModel,
    threshold=THRESHOLD,
    unit=st.sampled_from(EnergyUnit),
    exp_A=FINITE,
    exp_lambda=POSITIVE,
    exp_C=POSITIVE,
    log_alpha=FINITE,
    log_beta=FINITE,
    log10=st.booleans(),
)


class TestSerialization:
    def test_round_trip_stability(self, registry):
        text = serialize_profiles(registry)
        reloaded = load_profiles(io.StringIO(text))
        assert reloaded == registry
        assert serialize_profiles(reloaded) == text

    def test_partial_profiles_survive(self, registry):
        w4 = registry.get("dsr1-llama-8b-w4")
        assert w4.prefill_latency is None
        assert w4.precision is Precision.W4A16
        text = serialize_profiles(registry)
        assert load_profiles(io.StringIO(text)).get("dsr1-llama-8b-w4").prefill_latency is None

    def test_builtin_serialization_bytes(self, registry):
        # Pinned before the field-driven schema replaced the hand-written writers.
        text = serialize_profiles(registry)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a7930ae51611fbed4ebc4970cfdca09de413f5d3281016c5563ee8401b9ce606"
        )

    @settings(max_examples=100, deadline=None)
    @given(profile=st.builds(
        ModelProfile,
        id=st.text(min_size=1, max_size=20),
        param_count=POSITIVE,
        precision=st.sampled_from(Precision),
        prefill_latency=st.none() | st.builds(PrefillLatencyCoeffs, a=POSITIVE, b=FINITE, c=POSITIVE),
        decode_latency=st.none() | st.builds(DecodeLatencyCoeffs, m=POSITIVE, n=POSITIVE),
        prefill_power=st.none() | POWER,
        prefill_energy=st.none() | ENERGY,
        decode_power=st.none() | POWER,
        decode_energy=st.none() | ENERGY,
    ))
    def test_generated_round_trip(self, profile):
        registry = ProfileRegistry([profile])
        text = serialize_profiles(registry)
        reloaded = load_profiles(io.StringIO(text))
        assert reloaded == registry
        assert serialize_profiles(reloaded) == text

    def test_capabilities(self, registry):
        assert "prefill_power" not in registry.get("dsr1-llama-8b").capabilities()
        assert "prefill_power" in registry.get("dsr1-qwen-1.5b").capabilities()
        assert "decode_latency" not in registry.get("dsr1-qwen-14b-w4").capabilities()


DIPPING_PREFILL_LATENCY = PrefillLatencyCoeffs(a=1e-6, b=-9e-4, c=0.18)
DIPPING_PREFILL_POWER = PiecewisePowerModel(
    floor_watts=5.0, threshold=256, log_alpha=-1.0, log_beta=math.log(300)
)
DIPPING_PREFILL_ENERGY = PiecewiseEnergyModel(
    threshold=384, exp_A=0.29, exp_lambda=0.03, exp_C=0.009, log_alpha=0.016, log_beta=-0.2
)


class TestValidateProfile:
    def test_builtin_profiles_clean(self, registry):
        for profile in registry:
            assert validate_profile(profile) == []

    def test_nonpositive_tbt_flagged(self):
        profile = ModelProfile(
            id="bad",
            param_count=1.0,
            decode_latency=DecodeLatencyCoeffs(m=0.0, n=-0.01),
        )
        issues = validate_profile(profile)
        assert any("n must be > 0" in issue.rule for issue in issues)

    def test_zero_quadratic_coefficient_flagged(self):
        profile = ModelProfile(
            id="bad",
            param_count=1.0,
            prefill_latency=PrefillLatencyCoeffs(a=0.0, b=1e-6, c=0.05),
        )
        issues = validate_profile(profile)
        assert any("a must be > 0" in issue.rule for issue in issues)

    def test_negative_latency_over_grid_flagged(self):
        # Invariants pass at the type level but the curve dips negative in-domain.
        profile = ModelProfile(
            id="dips",
            param_count=1.0,
            prefill_latency=PrefillLatencyCoeffs(a=1e-9, b=-1e-3, c=0.0),
        )
        issues = validate_profile(profile)
        assert any(issue.field == "prefill_latency" for issue in issues)

    def test_decode_power_at_threshold_uses_the_log_branch(self):
        # decode_power puts position == threshold on the log branch, which
        # reads -0.001 W at 64 here; the floor branch would read 5 W.
        profile = ModelProfile(
            id="dips-at-threshold",
            param_count=1.0,
            decode_power=PiecewisePowerModel(
                floor_watts=5.0, threshold=64, log_alpha=1.0, log_beta=-math.log(64) - 0.001
            ),
        )
        issues = validate_profile(profile)
        assert [(i.field, i.rule) for i in issues] == [
            ("decode_power", "nonpositive watts at output_pos=64")
        ]

    @pytest.mark.parametrize(
        "name, coefficients, rule",
        [
            # a*(I_pad-300)*(I_pad-600): positive at 128 and 256, negative at 384.
            ("prefill_latency", DIPPING_PREFILL_LATENCY, "nonpositive latency at input_len=384"),
            # Input 256 is on the floor branch; -ln(384) + ln(300) < 0.
            ("prefill_power", DIPPING_PREFILL_POWER, "nonpositive watts at input_len=384"),
            # Input 384 is on the decay branch; 0.016*ln(512) - 0.2 < 0.
            ("prefill_energy", DIPPING_PREFILL_ENERGY, "nonpositive energy at input_len=512"),
        ],
    )
    def test_first_nonpositive_grid_point_pinned(self, name, coefficients, rule):
        profile = ModelProfile(id="dips", param_count=1.0, **{name: coefficients})
        assert [(i.field, i.rule) for i in validate_profile(profile)] == [(name, rule)]

    def test_grid_checks_report_in_field_order(self):
        profile = ModelProfile(
            id="dips",
            param_count=1.0,
            prefill_latency=DIPPING_PREFILL_LATENCY,
            prefill_power=DIPPING_PREFILL_POWER,
            prefill_energy=DIPPING_PREFILL_ENERGY,
            decode_power=PiecewisePowerModel(
                floor_watts=5.0, threshold=64, log_alpha=-1.0, log_beta=math.log(100)
            ),
        )
        issues = validate_profile(profile)
        assert [str(i) for i in issues] == [
            "prefill_latency: nonpositive latency at input_len=384",
            "prefill_power: nonpositive watts at input_len=384",
            "decode_power: nonpositive watts at output_pos=127",
            "prefill_energy: nonpositive energy at input_len=512",
        ]


class TestLoadMeasurements:
    def test_shipped_decode_file(self):
        path = profiles.builtin_profiles_path().parent / "measurements" / "dsr1-llama-8b-gpu.csv"
        records = load_measurements(path)
        assert len(records) == 7
        decode = [r for r in records if r.phase is Phase.DECODE]
        assert [r.output_len for r in decode] == [128, 256, 1024]
        assert decode[0].latency == pytest.approx(12.9)
        assert decode[0].power is None

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_measurements(io.StringIO("phase,input_len\nprefill,128\n"))

    def test_bad_value_reports_line(self):
        text = "phase,input_len,output_len,latency_s,power_w,energy_j\nprefill,abc,0,1.0,,\n"
        with pytest.raises(ParseError) as err:
            load_measurements(io.StringIO(text))
        assert err.value.line == 2

    def test_invariant_violation_on_zero_latency(self):
        text = "phase,input_len,output_len,latency_s,power_w,energy_j\nprefill,128,0,0.0,,\n"
        with pytest.raises(InvariantViolation):
            load_measurements(io.StringIO(text))

    def test_invariant_violation_names_its_line(self):
        text = MEASUREMENT_HEADER + "prefill,128,0,0.2,,\nprefill,128,0,0.0,,\n"
        with pytest.raises(InvariantViolation) as err:
            load_measurements(io.StringIO(text))
        assert err.value.line == 3
        assert (err.value.field, err.value.rule) == ("measurement.latency", "latency must be > 0")
        assert str(err.value) == "measurement.latency: latency must be > 0 (line 3)"

    def test_header_only_is_empty(self):
        assert (
            load_measurements(io.StringIO("phase,input_len,output_len,latency_s,power_w,energy_j\n"))
            == []
        )

    def test_path_with_commas(self, tmp_path):
        path = tmp_path / "d,with,comma" / "m.csv"
        path.parent.mkdir()
        path.write_text(MEASUREMENT_HEADER + "prefill,128,0,0.2,,\n")
        for source in (path, str(path)):
            assert [r.latency for r in load_measurements(source)] == [0.2]

    def test_record_issues(self):
        record = MeasurementRecord(
            phase=Phase.PREFILL, input_len=0, output_len=-1, latency=0.0
        )
        fields = {issue.field for issue in record.issues()}
        assert fields == {
            "measurement.input_len",
            "measurement.output_len",
            "measurement.latency",
        }
        assert all(type(issue) is InvariantViolation for issue in record.issues())
        assert all(issue.line is None for issue in record.issues())


@pytest.mark.parametrize(
    "loader, flags",
    [
        (load_profiles, ["list-models", "--profiles"]),
        (load_measurements, ["validate", "--model", "dsr1-qwen-14b", "--data"]),
        (load_config_table, ["plan", "--max-cost", "1", "--table"]),
    ],
)
def test_unreadable_source(loader, flags, tmp_path, cli_refuses):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\u00e9\n".encode("latin-1"))
    for source in (tmp_path, latin1):
        with pytest.raises(ParseError, match="cannot read"):
            loader(source)
        cli_refuses(*flags, str(source))
