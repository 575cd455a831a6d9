import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import pickle
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from edgeperf import cli, profiles
from edgeperf.errors import (
    DuplicateId,
    EdgeperfError,
    InvariantViolation,
    ParseError,
    UnknownModel,
)
from edgeperf.planner import ConfigPoint, load_config_table
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
SETTABLE_KEYS = [(None, "param_b"), (None, "precision")] + [
    (section, key)
    for section, body in full_profile_json().items()
    if isinstance(body, dict)
    for key in body
] + [("prefill_energy", "unit")]

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

    def test_missing_path(self, tmp_path, cli_refuses):
        path = tmp_path / "absent.json"
        with pytest.raises(ParseError, match=f"^no such file: {re.escape(str(path))}$"):
            load_profiles(path)
        cli_refuses("list-models", "--profiles", str(path))

    def test_non_object_entry(self, tmp_path, cli_refuses):
        text = json.dumps({"profiles": [["toy", 1.0]]})
        with pytest.raises(ParseError, match=r"^profiles\[0\] must be an object$"):
            load_profiles(io.StringIO(text))
        path = tmp_path / "list.json"
        path.write_text(text)
        cli_refuses("list-models", "--profiles", str(path))

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

    def test_strict_values_load(self):
        entry = full_profile_json()
        entry["prefill_energy"]["threshold"] = "inf"
        entry["prefill_energy"]["unit"] = "joules_per_token"
        profile = load_profiles(io.StringIO(json.dumps({"profiles": [entry]}))).get("toy")
        assert profile.prefill_energy.threshold == math.inf
        assert profile.prefill_energy.unit is EnergyUnit.JOULES_PER_TOKEN

    def test_unknown_precision_rejected(self):
        entry = minimal_profile_json()
        entry["precision"] = "int3"
        with pytest.raises(ParseError):
            load_profiles(io.StringIO(json.dumps({"profiles": [entry]})))

    @pytest.mark.parametrize(
        "section, typo, message",
        [
            (None, "prefil_latency", "profiles[0]: unknown key 'prefil_latency'"),
            ("decode_power", "log_10", "profiles[0].decode_power: unknown key 'log_10'"),
        ],
    )
    def test_unknown_key_refused(self, section, typo, message, tmp_path, capsys):
        # A misspelt key would otherwise load as an absent set or a default value.
        entry = full_profile_json()
        entry["decode_power"] = {"floor_watts": 5.9, "threshold": 64, "log_alpha": 0.76, "log_beta": 3.2}
        target = entry[section] if section else entry
        target[typo] = {"a": 1.0} if section is None else True
        target["zz_later"] = 1  # the first unknown key in document order is named
        text = json.dumps({"profiles": [entry]})
        with pytest.raises(ParseError) as info:
            load_profiles(io.StringIO(text))
        assert str(info.value) == message
        path = tmp_path / "typo.json"
        path.write_text(text)
        code = cli.run(["predict", "--profiles", str(path), "--model", "toy", "--input", "512", "--output", "8"])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", [True, False])
    def test_log10_key_refused(self, value, tmp_path, capsys):
        # Every log branch is natural; a log10 fit converts to log_alpha / ln 10.
        entry = full_profile_json()
        entry["prefill_power"]["log10"] = value
        text = json.dumps({"profiles": [entry]})
        message = "profiles[0].prefill_power: unknown key 'log10'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_profiles(io.StringIO(text))
        path = tmp_path / "log10.json"
        path.write_text(text)
        code = cli.run(["predict", "--profiles", str(path), "--model", "toy", "--input", "512", "--output", "8"])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


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
    @given(sets=st.fixed_dictionaries({
        "id": st.text(min_size=1, max_size=20),
        "param_count": POSITIVE,
        "precision": st.sampled_from(Precision),
        "prefill_latency": st.none() | st.builds(PrefillLatencyCoeffs, a=POSITIVE, b=FINITE, c=POSITIVE),
        "decode_latency": st.none() | st.builds(DecodeLatencyCoeffs, m=POSITIVE, n=POSITIVE),
        "prefill_power": st.none() | POWER,
        "prefill_energy": st.none() | ENERGY,
        "decode_power": st.none() | POWER,
        "decode_energy": st.none() | ENERGY,
    }))
    def test_generated_round_trip(self, sets):
        try:
            profile = ModelProfile(**sets)
        except InvariantViolation:  # a drawn curve is <= 0 at a grid point
            reject()
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
    """A profile validates itself when it is built and raises its first finding."""

    def test_builtin_profiles_clean(self, registry):
        for profile in registry:  # building a copy runs every check again
            assert dataclasses.replace(profile) == profile

    def test_nonpositive_tbt_flagged(self):
        with pytest.raises(InvariantViolation, match=r"^decode_latency\.n: n must be > 0$"):
            ModelProfile(
                id="bad",
                param_count=1.0,
                decode_latency=DecodeLatencyCoeffs(m=0.0, n=-0.01),
            )

    def test_zero_quadratic_coefficient_flagged(self):
        with pytest.raises(InvariantViolation, match=r"^prefill_latency\.a: a must be > 0$"):
            ModelProfile(
                id="bad",
                param_count=1.0,
                prefill_latency=PrefillLatencyCoeffs(a=0.0, b=1e-6, c=0.05),
            )

    def test_negative_latency_over_grid_flagged(self):
        # The set's own rules pass, but the curve dips negative in-domain.
        with pytest.raises(InvariantViolation) as info:
            ModelProfile(
                id="dips",
                param_count=1.0,
                prefill_latency=PrefillLatencyCoeffs(a=1e-9, b=-1e-3, c=0.0),
            )
        assert info.value.field == "prefill_latency"

    def test_decode_power_at_threshold_uses_the_log_branch(self):
        # decode_power puts position == threshold on the log branch, which
        # reads -0.001 W at 64 here; the floor branch would read 5 W.
        with pytest.raises(InvariantViolation) as info:
            ModelProfile(
                id="dips-at-threshold",
                param_count=1.0,
                decode_power=PiecewisePowerModel(
                    floor_watts=5.0, threshold=64, log_alpha=1.0, log_beta=-math.log(64) - 0.001
                ),
            )
        assert (info.value.field, info.value.rule) == (
            "decode_power", "nonpositive watts at output_pos=64"
        )

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
        with pytest.raises(InvariantViolation) as info:
            ModelProfile(id="dips", param_count=1.0, **{name: coefficients})
        assert (info.value.field, info.value.rule) == (name, rule)

    def test_grid_checks_report_in_field_order(self):
        # Each profile drops the set that the one before it was refused for.
        sets = {
            "prefill_latency": DIPPING_PREFILL_LATENCY,
            "prefill_power": DIPPING_PREFILL_POWER,
            "prefill_energy": DIPPING_PREFILL_ENERGY,
            "decode_power": PiecewisePowerModel(
                floor_watts=5.0, threshold=64, log_alpha=-1.0, log_beta=math.log(100)
            ),
        }
        refusals = []
        while sets:
            with pytest.raises(InvariantViolation) as info:
                ModelProfile(id="dips", param_count=1.0, **sets)
            refusals.append(str(info.value))
            del sets[info.value.field]
        assert refusals == [
            "prefill_latency: nonpositive latency at input_len=384",
            "prefill_power: nonpositive watts at input_len=384",
            "decode_power: nonpositive watts at output_pos=127",
            "prefill_energy: nonpositive energy at input_len=512",
        ]

    @pytest.mark.parametrize(
        "name, coefficients, field, rule",
        [
            (None, {"id": ""}, "profile.id", "id must be non-empty"),
            (None, {"param_count": 0.0}, "profile.param_count", "param_count must be > 0"),
            ("prefill_latency", PrefillLatencyCoeffs(a=0.0, b=0.0, c=0.1), "prefill_latency.a", "a must be > 0"),
            ("prefill_latency", PrefillLatencyCoeffs(a=1e-7, b=0.0, c=-0.1), "prefill_latency.c", "c must be >= 0"),
            ("decode_latency", DecodeLatencyCoeffs(m=0.0, n=0.0), "decode_latency.n", "n must be > 0"),
            (
                "decode_latency",
                DecodeLatencyCoeffs(m=-1e-3, n=0.1),
                "decode_latency.m",
                "TBT nonpositive within context range [1, 8192]",
            ),
        ]
        + [
            (name, PiecewisePowerModel(**values), f"{name}.{key}", rule)
            for name in ("prefill_power", "decode_power")
            for values, key, rule in [
                ({"floor_watts": 0.0, "threshold": math.inf}, "floor_watts", "floor_watts must be > 0"),
                ({"floor_watts": 5.0, "threshold": -1.0}, "threshold", "threshold must be >= 0"),
                ({"floor_watts": 5.0, "threshold": 64.0, "log_beta": 1.0}, "log_alpha", profiles._LOG_BRANCH_REQUIRED),
            ]
        ]
        + [
            (name, PiecewiseEnergyModel(**values), f"{name}.{key}", rule)
            for name in ("prefill_energy", "decode_energy")
            for values, key, rule in [
                ({"threshold": -1.0}, "threshold", "threshold must be >= 0"),
                (
                    {"threshold": 64.0, "exp_A": 0.1, "exp_lambda": 0.01},
                    "exp_A",
                    "decay branch parameters required for threshold > 0",
                ),
                (
                    {"threshold": math.inf, "exp_A": 0.1, "exp_lambda": -0.01, "exp_C": 0.01},
                    "exp_lambda",
                    "exp_lambda must be >= 0",
                ),
                (
                    {"threshold": math.inf, "exp_A": 0.1, "exp_lambda": 0.01, "exp_C": -0.01},
                    "exp_C",
                    "exp_C must be >= 0",
                ),
                ({"threshold": 0.0, "log_alpha": 0.01}, "log_alpha", profiles._LOG_BRANCH_REQUIRED),
            ]
        ],
    )
    def test_every_rule_names_its_profile_field(self, name, coefficients, field, rule):
        # A piecewise set's violation is named by the profile field that holds
        # it, so a bad decode_power reads apart from a bad prefill_power.
        values = {"id": "bad", "param_count": 1.0}
        values.update(coefficients if name is None else {name: coefficients})
        with pytest.raises(InvariantViolation) as info:
            ModelProfile(**values)
        assert (info.value.field, info.value.rule) == (field, rule)

    @pytest.mark.parametrize(
        "values, field, rule",
        [
            # Built, this set once raised a bare TypeError in the grid.
            (
                {"decode_power": PiecewisePowerModel(floor_watts=5.0, threshold=math.nan)},
                "decode_power.threshold",
                "threshold must be finite or +inf",
            ),
            # Built, this set once gave a nan decode latency and a budget of
            # 2**53 - 1 tokens at 10 s.
            ({"decode_latency": DecodeLatencyCoeffs(m=math.nan, n=0.1)}, "decode_latency.m", "m must be finite"),
            ({"prefill_latency": PrefillLatencyCoeffs(1e-7, math.nan, 0.1)}, "prefill_latency.b", "b must be finite"),
            ({"prefill_latency": PrefillLatencyCoeffs(math.inf, 0.0, 0.1)}, "prefill_latency.a", "a must be finite"),
            (
                {"prefill_energy": PiecewiseEnergyModel(math.inf, exp_A=math.nan, exp_lambda=0.01, exp_C=0.01)},
                "prefill_energy.exp_A",
                "exp_A must be finite",
            ),
            ({"param_count": math.inf}, "profile.param_count", "param_count must be finite"),
            ({"param_count": 10**400}, "profile.param_count", "param_count must be finite"),
            # A set's own rule comes before any set's finiteness, ...
            (
                {
                    "decode_latency": DecodeLatencyCoeffs(m=math.nan, n=0.1),
                    "decode_power": PiecewisePowerModel(floor_watts=0.0, threshold=math.inf),
                },
                "decode_power.floor_watts",
                "floor_watts must be > 0",
            ),
            # ... and finiteness before the grid, where b = -inf is < 0 at input_len 1.
            ({"prefill_latency": PrefillLatencyCoeffs(1e-7, -math.inf, 0.1)}, "prefill_latency.b", "b must be finite"),
        ],
        ids=[
            "nan-threshold",
            "nan-m",
            "nan-b",
            "inf-a",
            "nan-exp_A",
            "inf-param_count",
            "param_count-past-the-float-range",
            "rule-before-finiteness",
            "finiteness-before-grid",
        ],
    )
    def test_a_non_finite_coefficient_is_refused(self, values, field, rule):
        with pytest.raises(InvariantViolation) as info:
            ModelProfile(**{"id": "bad", "param_count": 1.0, **values})
        assert (info.value.field, info.value.rule) == (field, rule)


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

    @pytest.mark.parametrize(
        "bad, field, rule",
        [
            ({"input_len": 0}, "measurement.input_len", "input_len must be >= 1"),
            ({"output_len": -1}, "measurement.output_len", "output_len must be >= 0"),
            ({"input_len": 2**53 + 1}, "measurement.input_len", "input_len must be <= 2**53"),
            ({"output_len": 10**400}, "measurement.output_len", "output_len must be <= 2**53"),
            ({"latency": 0.0}, "measurement.latency", "latency must be > 0"),
            ({"power": 0.0}, "measurement.power", "power must be > 0 when present"),
            ({"energy": -1.0}, "measurement.energy", "energy must be > 0 when present"),
            # Two broken rules: the first in field order is raised.
            (
                {"output_len": -1, "latency": math.nan},
                "measurement.output_len",
                "output_len must be >= 0",
            ),
        ],
        ids=[
            "input_len",
            "output_len",
            "input_len-past-2**53",
            "output_len-past-2**53",
            "latency",
            "power",
            "energy",
            "two-rules",
        ],
    )
    def test_record_raises_its_first_violation_when_built(self, bad, field, rule):
        values = {"phase": Phase.PREFILL, "input_len": 128, "latency": 0.2, **bad}
        with pytest.raises(InvariantViolation) as err:
            MeasurementRecord(**values)
        assert type(err.value) is InvariantViolation
        assert (err.value.field, err.value.rule, err.value.line) == (field, rule, None)


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


# ---------------------------------------------------------------------------
# read_rows: the chunked column-at-a-time parser against the row loop
# ---------------------------------------------------------------------------

@functools.cache
def cell_parser(kind):
    """How the reference parses one CSV cell: a finite float, an int, a str or an Enum member."""
    if kind is float:
        return finite_cell
    if kind in (int, str):
        return kind
    members = {member.value: member for member in kind}

    def parse(cell):
        try:
            return members[cell]
        except KeyError:
            raise ValueError(f"{cell!r} is not a valid {kind.__name__}") from None

    return parse


def finite_cell(cell):
    """A CSV cell as a float; ValueError unless finite."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def reference_rows(source, cls, what):
    """read_rows as one loop over the rows: the reference that the bulk pass must match."""
    schema = profiles._schema(cls)
    header = [f.key for f in schema]
    reader = csv.reader(io.StringIO(source.read(), newline=""))
    first = next(reader, None)
    if first is None:
        raise ParseError(f"empty {what} (header required)")
    if [h.strip() for h in first] != header:
        raise ParseError(f"bad header {first!r}, expected {','.join(header)}", line=1)
    columns = [(f.name, cell_parser(f.kind), f.default is profiles._REQUIRED) for f in schema]
    records = []
    end = reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num  # the physical line that the row starts on
        cells = list(map(str.strip, row))
        if not any(cells):
            continue
        if len(cells) != len(columns):
            raise ParseError(f"expected {len(columns)} cells, got {len(cells)}", line=lineno)
        values = {}
        try:
            for (name, parse, required), cell in zip(columns, cells):
                if cell or required:
                    values[name] = parse(cell)
            record = cls(**values)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        except InvariantViolation as exc:
            raise InvariantViolation(exc.field, exc.rule, line=lineno) from None
        records.append(record)
    return records


CONFIG_TABLE_HEADER = "model_id,technique,token_budget,accuracy_pct,avg_tokens,latency_s,cost_per_mtok,scaling_factor\n"

# Per record class: its loader, class, table name, header, good cells per
# column, and the edits that make a row bad, as (column, cell) pairs.
TABLES = {
    "config": (
        load_config_table,
        ConfigPoint,
        "config table",
        CONFIG_TABLE_HEADER,
        [
            ["m", "dsr1-qwen-1.5b", "a b"],
            ["base", "hard_limit", "direct", "budget_aware"],
            ["", "128", "2048"],
            ["50", "38.3", "0", "100", "1e1"],
            ["100", "0", "2.5e3"],
            ["", "1.5", "0.001"],
            ["", "0.1", "0"],
            ["", "1", "4"],
        ],
        {
            "empty-required": [(0, ""), (1, ""), (3, ""), (4, "")],  # an empty model_id is legal
            "bad-number": [(2, "1.5"), (3, "fast"), (5, "1,5"), (7, "x")],
            "non-finite": [(3, "nan"), (4, "inf"), (5, "-inf"), (6, "1e400")],
            "unknown-enum": [(1, "warp"), (1, "Base")],
            "violation": [(3, "120"), (4, "-1"), (5, "0"), (6, "-0.5"), (7, "0")],
        },
    ),
    "measurement": (
        load_measurements,
        MeasurementRecord,
        "measurement file",
        MEASUREMENT_HEADER,
        [
            ["prefill", "decode"],
            ["1", "128", "9007199254740992"],
            ["", "0", "64"],
            ["0.2", "1e-3", "12.9"],
            ["", "5.9", "7"],
            ["", "0.01"],
        ],
        {
            "empty-required": [(0, ""), (1, ""), (3, "")],
            "bad-number": [(1, "12.0"), (2, "abc"), (3, "0x1"), (4, "w")],
            "non-finite": [(3, "inf"), (4, "nan"), (5, "-inf"), (3, "1e999")],
            "unknown-enum": [(0, "train"), (0, "PREFILL")],
            "violation": [(1, "0"), (1, "9007199254740993"), (2, "-1"), (3, "0"), (4, "-1"), (5, "0")],
        },
    ),
}
FAULTS = ["empty-required", "bad-number", "non-finite", "unknown-enum", "violation"]
LAYOUTS = ["blank", "spaces", "empty-cells", "short", "long", "padded", "empty-optional"]


@st.composite
def csv_tables(draw):
    """(name, text) of a table of 0-600 rows with a few edits at drawn rows."""
    name = draw(st.sampled_from(sorted(TABLES)))
    _, _, _, header, good, faults = TABLES[name]
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 511, 512, 513, 600]) | st.integers(0, 600))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[rng.choice(cells) for cells in good] for _ in range(n)]
    kinds = FAULTS + LAYOUTS + ["violation", "violation-then-bad"]  # violations twice as often
    edits = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    lines = [",".join(row) for row in rows]
    for edit in edits:
        if not rows:
            break
        boundaries = [i for i in (0, 255, 256, 257, 512, len(rows) - 1) if i < len(rows)]
        at = draw(st.sampled_from(boundaries) | st.integers(0, len(rows) - 1))
        row = list(rows[at])
        if edit == "violation-then-bad":
            # A record that refuses itself, then a bad cell later in its chunk.
            later = min(len(rows) - 1, at + rng.randint(1, 40))
            bad = list(rows[later])
            column, cell = rng.choice(faults["bad-number"])
            bad[column] = cell
            lines[later] = ",".join(bad)
            edit = "violation"
        if edit in faults:
            column, cell = rng.choice(faults[edit])
            row[column] = cell
            lines[at] = ",".join(row)
        elif edit == "blank":
            lines[at] = ""
        elif edit == "spaces":
            lines[at] = " \t "
        elif edit == "empty-cells":
            lines[at] = " ," * (len(good) - 1) + " "
        elif edit == "short":
            lines[at] = ",".join(row[:-1])
        elif edit == "long":
            lines[at] = ",".join(row + ["1"])
        elif edit == "padded":
            lines[at] = ",".join(f" {cell}\t" for cell in row)
        else:  # empty-optional: every cell of a field with a default
            lines[at] = ",".join("" if good_cells[0] == "" else cell for cell, good_cells in zip(row, good))
    return name, header + "".join(line + "\n" for line in lines)


@dataclasses.dataclass(frozen=True, kw_only=True)
class UnslottedQuery:
    """A record that read_rows cannot store into: it has no slot descriptors."""

    model: str
    n: int = 1

    def __post_init__(self):
        pass


@dataclasses.dataclass(frozen=True, kw_only=True, slots=True)
class UncheckedQuery:
    """A record that read_rows cannot check: it has no __post_init__."""

    model: str
    n: int = 1


def outcome(load, text):
    """The records' reprs, or the refusal's type, message and line."""
    try:
        records = load(io.StringIO(text))
    except EdgeperfError as exc:
        return type(exc), str(exc), exc.line
    return repr(records), records


class TestReadRows:
    @settings(max_examples=100, deadline=None)
    @given(csv_tables())
    def test_same_records_or_refusal_as_the_row_loop(self, table):
        name, text = table
        load, cls, what, *_ = TABLES[name]
        assert outcome(load, text) == outcome(lambda source: reference_rows(source, cls, what), text)

    def test_violation_before_a_bad_cell_in_the_same_chunk(self):
        rows = ["m,base,,50,100,1.0,0.1,1"] * 300
        rows[10] = "m,base,,120,100,1.0,0.1,1"  # a record that refuses itself, line 12
        rows[20] = "m,base,,fast,100,1.0,0.1,1"  # a cell that float refuses, line 22
        text = CONFIG_TABLE_HEADER + "\n".join(rows) + "\n"
        with pytest.raises(InvariantViolation) as err:
            load_config_table(io.StringIO(text))
        assert str(err.value) == "config.accuracy: accuracy must be in [0, 100] (line 12)"

    def test_bulk_records_are_ordinary_records(self, monkeypatch):
        def no_row_loop(*args):
            raise AssertionError("a chunk went through the row loop")

        monkeypatch.setattr(profiles, "_refused_chunk", no_row_loop)
        # 300 rows: one chunk the bulk pass builds in full, and one partial chunk.
        text = CONFIG_TABLE_HEADER + "".join(
            f" m{i % 7} ,{'base' if i % 3 else 'hard_limit'},{'' if i % 2 else 256},"
            f"{i % 101},{i * 1.5},{'' if i % 5 == 0 else 0.5 + i},{'' if i % 4 == 0 else i / 8},{1 + i % 3}\n"
            for i in range(300)
        )
        measurements = MEASUREMENT_HEADER + "".join(
            f"{'decode' if i % 2 else 'prefill'},{1 + i},{i % 2 * i},{0.1 + i},{'' if i % 3 else 5.5},\n"
            for i in range(300)
        )
        records = load_config_table(io.StringIO(text)) + load_measurements(io.StringIO(measurements))
        assert len(records) == 600
        for cls in (ConfigPoint, MeasurementRecord):
            assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
        for record in records:
            cls = type(record)
            built = cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(cls)})
            assert record == built and hash(record) == hash(built) and repr(record) == repr(built)
            # A slotted record has no __dict__ for vars() to read; compare slot by slot.
            assert not hasattr(record, "__dict__")
            slots = [(name, getattr(record, name)) for name in cls.__slots__]
            assert slots == [(name, getattr(built, name)) for name in cls.__slots__]
            assert dataclasses.replace(record) == dataclasses.replace(built)
            for f in dataclasses.fields(cls):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, None)
            assert pickle.loads(pickle.dumps(record)) == record

    def test_slotted_records_refuse_vars_and_unknown_names(self):
        # A slotted record has no __dict__, and its frozen __setattr__ hands a
        # name that is no field to super() of the class as it was before
        # slots=True remade it, which the record is not an instance of.
        records = load_config_table(io.StringIO(CONFIG_TABLE_HEADER + "m,base,,50,100,1.0,0.1,1\n"))
        records += load_measurements(io.StringIO(MEASUREMENT_HEADER + "prefill,128,0,0.2,,\n"))
        for record in records:
            with pytest.raises(TypeError):
                vars(record)
            with pytest.raises(TypeError):  # not FrozenInstanceError, an AttributeError
                record.not_a_field = 1

    FIELD_LIMIT = "x" * 131_073  # one past csv's default field size limit

    @pytest.mark.parametrize(
        "loader, flags, header, row, refused_row",
        [
            (
                load_config_table,
                ["plan", "--max-cost", "1", "--table"],
                CONFIG_TABLE_HEADER,
                "m,base,,50,100,1.0,0.1,1",
                "m,base,,50,100,1.0,-0.1,1",
            ),
            (
                load_measurements,
                ["fit", "--kind", "prefill-latency", "--data"],
                MEASUREMENT_HEADER,
                "prefill,128,0,0.2,,",
                "prefill,128,0,-0.2,,",
            ),
        ],
        ids=["plan", "fit"],
    )
    def test_csv_refusal_is_a_parse_error_with_its_line(
        self, loader, flags, header, row, refused_row, tmp_path, cli_refuses
    ):
        long_row = self.FIELD_LIMIT + "," + row.split(",", 1)[1]
        path = tmp_path / "table.csv"
        for rows, error in [
            ([row] * 299 + [long_row], "line 301: field larger than field limit (131072)"),
            ([long_row], "line 2: field larger than field limit (131072)"),
        ]:
            path.write_text(header + "\n".join(rows) + "\n")
            with pytest.raises(ParseError) as err:
                loader(path)
            assert (str(err.value), err.value.line) == (error, int(error.split()[1][:-1]))
            cli_refuses(*flags, str(path))
        # An over-long header cell is refused on line 1.
        path.write_text(self.FIELD_LIMIT + header)
        with pytest.raises(ParseError, match="^line 1: field larger"):
            loader(path)
        # A record that refuses itself before the over-long row, in the same chunk, is named first.
        path.write_text(header + "\n".join([row, refused_row, long_row]) + "\n")
        with pytest.raises(InvariantViolation) as err:
            loader(path)
        assert err.value.line == 3

    def test_blank_rows_take_one_more_bulk_pass(self, monkeypatch):
        rows = [f"m{i % 7},base,,{i % 101},{i * 1.5},1.0,0.1,{1 + i % 3}\n" for i in range(300)]
        blanked = rows[:10] + ["\n"] + rows[10:100] + [" \t \n"] + rows[100:200] + [" ,,,, ,,,\n"] + rows[200:]
        calls = []
        records = profiles._records

        def counted(cls, columns, rows):
            calls.append(len(rows))
            return records(cls, columns, rows)

        monkeypatch.setattr(profiles, "_records", counted)
        loaded = load_config_table(io.StringIO(CONFIG_TABLE_HEADER + "".join(blanked)))
        # The first chunk is refused for its three blank rows and built without them.
        assert calls == [256, 253, 47]
        assert loaded == load_config_table(io.StringIO(CONFIG_TABLE_HEADER + "".join(rows)))

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ("m,base,,150,100,1.0,0.1,1", "config.accuracy: accuracy must be in [0, 100] (line 4)"),
            ("m,base,,fast,100,1.0,0.1,1", "line 4: could not convert string to float: 'fast'"),
        ],
        ids=["violation", "bad-cell"],
    )
    def test_a_row_is_named_by_the_line_it_starts_on(self, bad_row, error, tmp_path, capsys):
        # The quoted cell spans lines 2 and 3, so the next row starts on line 4.
        path = tmp_path / "table.csv"
        path.write_text(CONFIG_TABLE_HEADER + '"m\nx",base,,50,100,1.0,0.1,1\n' + bad_row + "\n")
        with pytest.raises(EdgeperfError) as err:
            load_config_table(path)
        assert (str(err.value), err.value.line) == (error, 4)
        assert cli.run(["plan", "--max-cost", "1", "--table", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_csv_refusal_after_a_multi_line_cell_names_its_own_line(self, tmp_path, capsys):
        # Lines 2-3 hold one row, lines 4-301 one row each, so the over-long row starts on line 302.
        row = "m,base,,50,100,1.0,0.1,1"
        rows = ['"m\nx"' + row[1:]] + [row] * 298 + [self.FIELD_LIMIT + row[1:]]
        path = tmp_path / "table.csv"
        path.write_text(CONFIG_TABLE_HEADER + "\n".join(rows) + "\n")
        error = "line 302: field larger than field limit (131072)"
        with pytest.raises(ParseError) as err:
            load_config_table(path)
        assert (str(err.value), err.value.line) == (error, 302)
        assert cli.run(["plan", "--max-cost", "1", "--table", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "cell, model_id",
        [('"m\nx"', "m\nx"), ('"m\r\nx"', "m\r\nx")]
        + [(f"m{c}x", f"m{c}x") for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
    )
    def test_rows_split_only_where_csv_does(self, cell, model_id):
        # A quoted cell keeps its line break; csv breaks no row at the other
        # characters that str.splitlines breaks lines at.
        text = CONFIG_TABLE_HEADER + cell + ",base,,50,100,1.0,0.1,1\nm,base,,50,100,1.0,0.1,1\n"
        assert [p.model_id for p in load_config_table(io.StringIO(text))] == [model_id, "m"]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_a_path_and_a_stream_load_the_same_records(self, ending, tmp_path):
        # A CSV path is read with newline="", as the csv module asks, so a
        # quoted cell keeps its \r\n on either line ending.
        rows = [CONFIG_TABLE_HEADER.rstrip("\n"), '"m\r\nx",base,,50,100,1.0,0.1,1', "m,base,,50,100,1.0,0.1,1"]
        path = tmp_path / "table.csv"
        path.write_bytes((ending.join(rows) + ending).encode())
        with open(path, encoding="utf-8", newline="") as fh:
            stream = io.StringIO(fh.read())
        from_path, from_stream = load_config_table(path), load_config_table(stream)
        assert from_path == from_stream
        assert [p.model_id for p in from_path] == ["m\r\nx", "m"]

    @pytest.mark.parametrize("cell, model_id", [('"m\nx"', "m\nx"), ("m\u2028x", "m\u2028x")])
    def test_plan_prints_the_cell_as_written(self, cell, model_id, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(CONFIG_TABLE_HEADER + cell + ",base,,50,100,1.0,0.1,1\n", encoding="utf-8")
        assert cli.run(["plan", "--max-cost", "1", "--json", "--table", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["model_id"] == model_id

    @pytest.mark.parametrize(
        "kind, cells",
        [
            (float, ["1", "2.5", "inf", "nan"]),
            (float, ["1", "x", "nan"]),
            (int, ["1", "1.5", "x"]),
            (Phase, ["prefill", "train", "x"]),
        ],
    )
    def test_a_refused_column_names_its_first_bad_cell(self, kind, cells):
        # The message of the first cell that the reference cell parser refuses.
        parse = cell_parser(kind)
        with pytest.raises(ValueError) as expected:
            for cell in cells:
                parse(cell)
        with pytest.raises(ValueError) as err:
            profiles._column_parser(kind)(cells)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize(
        "table, flags",
        [
            ("config", ["plan", "--max-cost", "1", "--table"]),
            ("measurement", ["fit", "--kind", "prefill-latency", "--data"]),
        ],
        ids=["config", "measurement"],
    )
    def test_an_empty_table_is_refused(self, table, flags, tmp_path, capsys):
        load, _, what, *_ = TABLES[table]
        message = f"empty {what} (header required)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load(io.StringIO(""))
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = cli.run([*flags, str(path)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("cls", [UnslottedQuery, UncheckedQuery], ids=["no-slots", "no-post-init"])
    def test_a_record_class_outside_the_contract_is_refused(self, cls):
        rule = "a frozen dataclass with slots=True that checks itself in __post_init__"
        with pytest.raises(TypeError, match=f"^read_rows needs {re.escape(rule)}; {cls.__name__} is not$"):
            profiles.read_rows(io.StringIO("model,n\nx,2\n"), cls, "query table")
