import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import edgeperf
from edgeperf import cli
from edgeperf.energy import decode_power
from edgeperf.errors import InvariantViolation
from edgeperf.fitting import fit_prefill_latency
from edgeperf.latency import decode_latency, prefill_latency
from edgeperf.profiles import (
    ModelProfile,
    builtin_profiles_path,
    load_measurements,
    load_profiles,
    mape,
    serialize_profiles,
)

SRC = str(Path(edgeperf.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The CLI in a new interpreter, as a user runs it: an uncaught exception
    would print its traceback, and warnings go through no test filter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "edgeperf.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


TOY_PROFILES = json.dumps(
    {
        "profiles": [
            {
                "id": "toy",
                "param_b": 1.0,
                "prefill_latency": {"a": 1e-7, "b": 2e-6, "c": 0.05},
                "decode_latency": {"m": 1e-6, "n": 0.05},
            }
        ]
    }
)


@pytest.fixture
def toy_profiles_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(TOY_PROFILES)
    return str(path)


class TestPredict:
    def test_worked_example(self, capsys):
        code, out, err = run(
            capsys, "predict", "--model", "dsr1-qwen-14b", "--input", "512", "--output", "128"
        )
        assert code == 0
        assert out == "prefill=0.782797 decode=24.0192 total=24.802\n"
        assert err == ""

    def test_unknown_model_exit_2(self, capsys):
        code, out, err = run(
            capsys, "predict", "--model", "nonexistent", "--input", "1", "--output", "1"
        )
        assert code == 2
        assert out == ""
        assert "nonexistent" in err

    def test_json_round_trips(self, capsys, registry):
        code, out, _ = run(
            capsys,
            "predict",
            "--json",
            "--model",
            "dsr1-qwen-14b",
            "--input",
            "512",
            "--output",
            "128",
        )
        assert code == 0
        doc = json.loads(out)
        p14 = registry.get("dsr1-qwen-14b")
        assert doc["prefill"] == prefill_latency(p14, 512)
        assert doc["decode"] == decode_latency(p14, 512, 128)
        # JSON carries full precision; the text mode rounds the same numbers.
        assert f"{doc['total']:.6g}" == "24.802"

    @pytest.mark.parametrize(
        "input_len, output_len, context",
        [("1000000", "8192", 1000000), ("150000", "20000", 160000)],
    )
    def test_nonpositive_tbt_exit_1(self, capsys, input_len, output_len, context):
        # The 1.5B TBT slope is negative and crosses zero at context 160000.
        argv = ["predict", "--model", "dsr1-qwen-1.5b", "--input", input_len, "--output", output_len]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: TBT model of 'dsr1-qwen-1.5b' is nonpositive at context {context}\n"

    def test_deterministic(self, capsys):
        argv = ["predict", "--model", "dsr1-llama-8b", "--input", "300", "--output", "64"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestInvert:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--model", "dsr1-qwen-14b", "--input", "512", "--budget", "30"
        )
        assert code == 0
        assert out == "max_output_tokens=155\n"

    def test_infeasible_exit_1(self, capsys):
        code, out, err = run(
            capsys, "invert", "--model", "dsr1-qwen-14b", "--input", "512", "--budget", "0.5"
        )
        assert code == 1
        assert out == ""
        assert "prefill" in err

    def test_infinite_budget_exit_1(self, capsys):
        code, out, err = run(
            capsys, "invert", "--model", "dsr1-qwen-14b", "--input", "512", "--budget", "inf"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_nonpositive_tbt_cap_message(self, capsys):
        code, out, err = run(
            capsys, "invert", "--model", "dsr1-qwen-1.5b", "--input", "512", "--budget", "1e9"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: budget exceeds the TBT-positive range of 'dsr1-qwen-1.5b' "
            "(cap 159488 output tokens at input_len 512)\n"
        )

    @pytest.mark.parametrize(
        "model, input_len, budget, code, out",
        [
            # These two stepped by one token from a guess near 1e150 and never ended.
            pytest.param("dsr1-llama-8b", "8192", "1e300", 1, "", id="former-hang-8b"),
            pytest.param("dsr1-qwen-14b", str(2**40), "1e300", 1, "", id="former-hang-14b"),
            pytest.param(
                "dsr1-qwen-14b", "512", "1e25", 0, "max_output_tokens=4207031618950714\n",
                id="below-2**53",
            ),
            # The answer, 13303802104588788, would pass 2**53.
            pytest.param("dsr1-qwen-14b", "512", "1e26", 1, "", id="past-2**53"),
        ],
    )
    def test_huge_budgets_end_in_a_fresh_process(self, model, input_len, budget, code, out):
        proc = run_fresh("invert", "--model", model, "--input", input_len, "--budget", budget)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        if code:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


BIG = str(10**400)  # past the float range
LARGE = str(10**200)  # a float, whose square is not

HUGE_A_PROFILES = TOY_PROFILES.replace('"a": 1e-07', '"a": 1e+302')


class TestOutOfRangeArguments:
    """Counts past 2**53, and results that would not be finite: exit 1, one line."""

    @pytest.mark.parametrize(
        "argv, form",
        [
            (["predict", "--model", "dsr1-qwen-14b", "--input", "512", "--output", BIG], "decode"),
            (["predict", "--model", "dsr1-qwen-14b", "--input", "512", "--output", LARGE], "decode"),
            (["predict", "--model", "dsr1-qwen-1.5b", "--input", "512", "--output", BIG], "decode"),
            (["predict", "--model", "dsr1-qwen-14b", "--input", BIG, "--output", "1"], "prefill"),
            (["invert", "--model", "dsr1-qwen-14b", "--input", BIG, "--budget", "10"], "prefill"),
            (["invert", "--model", "dsr1-qwen-1.5b", "--input", BIG, "--budget", "1e300"], "prefill"),
        ],
    )
    def test_integer_past_the_float_range(self, capsys, argv, form):
        # Refused where the count enters, before the closed form of that phase.
        rule = {"prefill": "input_len must be in [1", "decode": "output_len must be in [0"}[form]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {rule}, 2**53], got 10") and err.count("\n") == 1, err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv",
        [
            # a * I_pad**2 overflows to inf for a = 1e302 at an input of 8192.
            ["predict", "--model", "toy", "--input", "8192", "--output", "1"],
            ["cost", "--tokens", "1", "--duration", "1e308", "--energy-kwh", "1e308", "--electricity", "10"],
        ],
        ids=["predict", "cost"],
    )
    def test_infinite_result(self, capsys, tmp_path, argv, json_flag):
        profiles = tmp_path / "huge-a.json"  # cost reads no profile
        profiles.write_text(HUGE_A_PROFILES)
        code, out, err = run(capsys, *argv, "--profiles", str(profiles), *json_flag)
        assert (code, out) == (1, "")
        assert err == "error: the result is not finite; an argument is out of range\n"

    def test_json_rendering_refuses_nan(self):
        with pytest.raises(ValueError):
            cli._render({"total": float("inf")}, as_json=True)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "teleport")
        assert code == 2
        assert err != ""

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "predict", "--model", "x", "--frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "predict", "--model", "dsr1-qwen-14b")
        assert code == 2


class TestProfileResolution:
    def test_profiles_flag(self, capsys, toy_profiles_file):
        code, out, _ = run(capsys, "list-models", "--profiles", toy_profiles_file)
        assert code == 0
        assert out == "toy\n"

    def test_env_var(self, capsys, monkeypatch, toy_profiles_file):
        monkeypatch.setenv("EDGEPERF_PROFILES", toy_profiles_file)
        code, out, _ = run(capsys, "list-models")
        assert code == 0
        assert out == "toy\n"

    def test_flag_beats_env(self, capsys, monkeypatch, tmp_path, toy_profiles_file):
        other = tmp_path / "other.json"
        other.write_text(TOY_PROFILES.replace("toy", "other-model"))
        monkeypatch.setenv("EDGEPERF_PROFILES", str(other))
        code, out, _ = run(capsys, "list-models", "--profiles", toy_profiles_file)
        assert code == 0
        assert out == "toy\n"

    def test_builtin_default(self, capsys, monkeypatch):
        monkeypatch.delenv("EDGEPERF_PROFILES", raising=False)
        code, out, _ = run(capsys, "list-models")
        assert code == 0
        assert out.splitlines()[0] == "dsr1-llama-8b"
        assert len(out.splitlines()) == 6


def dipping_profile():
    # Its sets keep their own rules, but prefill latency is < 0 at input_len 1.
    return {
        "id": "dips",
        "param_b": 1.0,
        "prefill_latency": {"a": 1e-7, "b": -1e-3, "c": 0.01},
        "decode_latency": {"m": 1e-6, "n": 0.1},
    }


class TestProfileRefusal:
    """A profile file is refused at load with the first fault a profile has,
    in this order: a ParseError anywhere in it, its id and param_b, each
    present set's rules in field order, then the positivity grid."""

    def predict(self, capsys, tmp_path, entry):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"profiles": [entry]}))
        return run(capsys, "predict", "--profiles", str(path), "--model", entry["id"],
                   "--input", "512", "--output", "10")

    def test_negative_prefill_latency_refused_at_load(self, capsys, tmp_path):
        # This file once loaded and printed prefill=-0.475786 with exit 0.
        assert self.predict(capsys, tmp_path, dipping_profile()) == (
            2, "", "error: prefill_latency: nonpositive latency at input_len=1\n"
        )

    @pytest.mark.parametrize(
        "fault, message",
        [
            # A ParseError in a later field, with a set's violation before it.
            (
                {"prefill_latency": {"a": 0.0, "b": 2e-6, "c": 0.05},
                 "decode_power": {"floor_watts": "abc", "threshold": None}},
                "profiles[0].decode_power.floor_watts must be a finite number",
            ),
            # The profile's own id, with a set's violation.
            (
                {"id": "", "prefill_latency": {"a": 0.0, "b": 2e-6, "c": 0.05}},
                "profile.id: id must be non-empty",
            ),
            # A set's violation in a later field, with an earlier grid finding.
            ({"decode_latency": {"m": 0.0, "n": -0.01}}, "decode_latency.n: n must be > 0"),
        ],
        ids=["parse-before-set", "id-before-set", "set-before-grid"],
    )
    def test_first_of_two_faults(self, capsys, tmp_path, fault, message):
        entry = {**dipping_profile(), **fault}
        assert self.predict(capsys, tmp_path, entry) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "name, body, message",
        [
            ("decode_power", {"floor_watts": 0.0}, "decode_power.floor_watts: floor_watts must be > 0"),
            (
                "decode_energy",
                {"exp_A": 0.1, "exp_lambda": 0.01, "exp_C": -0.01},
                "decode_energy.exp_C: exp_C must be >= 0",
            ),
        ],
    )
    def test_a_decode_set_is_named_by_its_field(self, capsys, tmp_path, name, body, message):
        # A valid prefill set of the same type sits beside it, so only the
        # profile field tells the two apart.
        entry = json.loads(TOY_PROFILES)["profiles"][0]
        entry["prefill_power"] = {"floor_watts": 5.0, "threshold": None}
        entry["prefill_energy"] = {"threshold": None, "exp_A": 0.1, "exp_lambda": 0.01, "exp_C": 0.01}
        entry[name] = {**entry[name.replace("decode", "prefill")], **body}
        assert self.predict(capsys, tmp_path, entry) == (2, "", f"error: {message}\n")


class TestValidate:
    def data_path(self, name):
        from edgeperf.profiles import builtin_profiles_path

        return str(builtin_profiles_path().parent / "measurements" / name)

    def test_shipped_decode_data(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            "--model",
            "dsr1-qwen-14b",
            "--data",
            self.data_path("dsr1-qwen-14b-gpu.csv"),
        )
        assert code == 0
        fields = dict(pair.split("=") for pair in out.split())
        assert float(fields["decode_mape"]) <= 3.0
        # Two decimal places in text mode.
        assert len(fields["decode_mape"].split(".")[1]) == 2

    def test_perfect_predictions(self, capsys, tmp_path, registry):
        p14 = registry.get("dsr1-qwen-14b")
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        for i in (128, 512):
            lines.append(f"prefill,{i},0,{prefill_latency(p14, i)!r},,")
        path = tmp_path / "exact.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "validate", "--model", "dsr1-qwen-14b", "--data", str(path))
        assert code == 0
        assert out == "prefill_mape=0.00\n"

    def test_path_with_commas(self, capsys, tmp_path):
        path = tmp_path / "d,with,comma" / "m.csv"
        path.parent.mkdir()
        path.write_text("phase,input_len,output_len,latency_s,power_w,energy_j\nprefill,128,0,0.2,,\n")
        code, out, err = run(capsys, "validate", "--model", "dsr1-qwen-14b", "--data", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("prefill_mape=")

    def test_max_mape_gate(self, capsys):
        code, out, err = run(
            capsys,
            "validate",
            "--model",
            "dsr1-qwen-14b",
            "--data",
            self.data_path("dsr1-qwen-14b-gpu.csv"),
            "--max-mape",
            "0.5",
        )
        assert code == 1
        assert "gate" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_nan_max_mape_exit_1(self, capsys, json_flag):
        # No MAPE exceeds nan, so a nan gate could never fail.
        code, out, err = run(
            capsys,
            "validate",
            *json_flag,
            "--model",
            "dsr1-qwen-14b",
            "--data",
            self.data_path("dsr1-qwen-14b-gpu.csv"),
            "--max-mape",
            "nan",
        )
        assert (code, out) == (1, "")
        assert err == "error: --max-mape must be >= 0, got nan\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_non_finite_mape_exit_1(self, capsys, tmp_path, json_flag):
        # 0.78 s predicted against 1e-320 s measured overflows the MAPE to inf.
        path = tmp_path / "tiny.csv"
        path.write_text("phase,input_len,output_len,latency_s,power_w,energy_j\nprefill,128,0,1e-320,,\n")
        code, out, err = run(
            capsys, "validate", *json_flag, "--model", "dsr1-qwen-14b", "--data", str(path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_json_holds_the_unrounded_mapes(self, capsys, registry):
        # Only text mode rounds to two decimal places.
        data = self.data_path("dsr1-qwen-14b-gpu.csv")
        code, out, err = run(capsys, "validate", "--json", "--model", "dsr1-qwen-14b", "--data", data)
        assert (code, err) == (0, "")
        p14, records = registry.get("dsr1-qwen-14b"), load_measurements(data)
        prefill = [r for r in records if r.phase.value == "prefill"]
        decode = [r for r in records if r.phase.value == "decode"]
        assert json.loads(out) == {
            "prefill_mape": mape([prefill_latency(p14, r.input_len) for r in prefill], [r.latency for r in prefill]),
            "decode_mape": mape(
                [decode_latency(p14, r.input_len, r.output_len) for r in decode], [r.latency for r in decode]
            ),
        }
        assert list(json.loads(out)) == ["prefill_mape", "decode_mape"]

    def test_header_only_data_exit_2(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("phase,input_len,output_len,latency_s,power_w,energy_j\n")
        assert run(capsys, "validate", "--model", "dsr1-qwen-14b", "--data", str(path)) == (
            2, "", "error: no prefill or decode rows in data file\n"
        )

    def test_malformed_data_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase,input_len\nprefill,128\n")
        code, _, err = run(capsys, "validate", "--model", "dsr1-qwen-14b", "--data", str(path))
        assert code == 2
        assert err != ""

    def test_infinite_latency_exit_2(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("phase,input_len,output_len,latency_s,power_w,energy_j\nprefill,128,0,inf,,\n")
        code, out, err = run(capsys, "validate", "--model", "dsr1-qwen-1.5b", "--data", str(path))
        assert (code, out) == (2, "")
        assert "non-finite" in err


class TestCost:
    def test_paper_figures(self, capsys):
        code, out, _ = run(
            capsys,
            "cost",
            "--tokens",
            "195624",
            "--duration",
            "4358",
            "--energy-kwh",
            "0.0317",
        )
        assert code == 0
        fields = dict(pair.split("=") for pair in out.split())
        assert float(fields["energy_cost"]) == pytest.approx(0.0243, abs=2e-3)
        assert float(fields["hardware_cost"]) == pytest.approx(0.2785, abs=2e-3)
        assert float(fields["total"]) == pytest.approx(0.3028, abs=2e-3)

    def test_default_prices(self, capsys):
        argv = ["cost", "--tokens", "195624", "--duration", "4358", "--energy-kwh", "0.0317"]
        default = run(capsys, *argv)
        assert run(capsys, *argv, "--electricity", "0.15", "--hardware-rate", "0.045") == default
        assert run(capsys, *argv, "--electricity", "0.15") == default
        assert run(capsys, *argv, "--hardware-rate", "0.045") == default
        assert run(capsys, *argv, "--hardware-rate", "0.09") != default

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--duration", "inf"),
            ("--energy-kwh", "nan"),
            ("--electricity", "inf"),
            ("--hardware-rate", "nan"),
        ],
    )
    def test_non_finite_exit_1(self, capsys, flag, value):
        argv = {"--tokens": "1000", "--duration": "10", "--energy-kwh": "0.5", flag: value}
        code, out, err = run(capsys, "cost", *(x for pair in argv.items() for x in pair))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("tokens", [str(2**53 + 1), "1" + "0" * 400], ids=["2**53+1", "401-digits"])
    def test_tokens_past_2_53_exit_1(self, capsys, tokens):
        code, out, err = run(capsys, "cost", "--tokens", tokens, "--duration", "10", "--energy-kwh", "0.5")
        assert (code, out) == (1, "")
        assert err.startswith("error: tokens must be in [1, 2**53], got ") and err.count("\n") == 1, err


class TestPlan:
    def test_max_cost(self, capsys):
        code, out, _ = run(capsys, "plan", "--max-cost", "0.01")
        assert code == 0
        fields = dict(pair.split("=") for pair in out.split())
        assert fields["model_id"] == "dsr1-qwen-1.5b"
        assert fields["technique"] == "hard_limit"
        assert fields["token_budget"] == "256"

    def test_max_latency_infeasible_exit_1(self, capsys):
        code, out, err = run(capsys, "plan", "--max-latency", "0.5")
        assert code == 1
        assert out == ""
        assert err != ""

    def test_pareto_sorted(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--technique", "base", "--pareto", "accuracy,latency"
        )
        assert code == 0
        latencies = [
            float(dict(pair.split("=") for pair in line.split())["latency"])
            for line in out.splitlines()
        ]
        assert latencies == sorted(latencies)

    @pytest.mark.parametrize("flag", ["--max-latency", "--max-cost"])
    def test_nan_threshold_exit_1(self, capsys, flag):
        code, out, err = run(capsys, "plan", flag, "nan")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(", got nan\n")

    def test_no_query_exit_1(self, capsys):
        code, _, err = run(capsys, "plan")
        assert code == 1
        assert err != ""

    def test_unknown_technique_exit_2_without_traceback(self):
        proc = run_fresh("plan", "--technique", "foo", "--pareto", "accuracy,latency")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "invalid choice: 'foo'" in proc.stderr
        assert "Traceback" not in proc.stderr


DATA = Path(__file__).parent / "data"
SHIPPED_DATA = builtin_profiles_path().parent / "measurements"
# stdout of `plan --pareto`, recorded before the frontier was computed by a sweep.
PARETO_GOLDEN = json.loads((DATA / "pareto_cli_golden.json").read_text())


class TestParetoBytes:
    @pytest.mark.parametrize("case", sorted(PARETO_GOLDEN))
    def test_stdout_pinned(self, capsys, case):
        table, objectives, mode = case.split()
        argv = ["plan", "--pareto", objectives]
        if table == "ties200":
            argv += ["--table", str(DATA / "pareto_ties_200.csv")]
        if mode == "json":
            argv.append("--json")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == PARETO_GOLDEN[case]


RECORD_JSON_GOLDEN = {
    "predict": """{
  "prefill": 0.7827971200000001,
  "decode": 24.01924032,
  "total": 24.802037440000003
}
""",
    "cost": """{
  "energy_cost": 0.024306833517359832,
  "hardware_cost": 0.2784678771520877,
  "total": 0.30277471066944756
}
""",
    "fit": """{
  "fit": {
    "decode_latency": {
      "m": 1.4483253328352358e-06,
      "n": 0.18455339594155828
    }
  },
  "residual_sse": 0.0011686629977340065,
  "points_used": 3
}
""",
}


@pytest.mark.parametrize(
    "command, argv",
    [
        ("predict", ["--model", "dsr1-qwen-14b", "--input", "512", "--output", "128"]),
        ("cost", ["--tokens", "195624", "--duration", "4358", "--energy-kwh", "0.0317"]),
        (
            "fit",
            ["--kind", "decode-latency", "--data", str(SHIPPED_DATA / "dsr1-qwen-14b-gpu.csv")],
        ),
    ],
)
def test_json_record_stdout_pinned(capsys, command, argv):
    """Each result record's --json bytes, key order included."""
    code, out, err = run(capsys, command, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == RECORD_JSON_GOLDEN[command]


# dsr1-qwen-14b's prefill energy per token, an exponential decay to x = 384
# and then its log tail, at 40 log-uniform input lengths with 3% lognormal
# noise (random.Random(22)). Its decay fits' --json bytes were recorded
# while every golden-section probe ran as its own one-row fit.
DECAY_CSV = DATA / "decay_log_tail.csv"
DECAY_JSON_GOLDEN = {
    "exp-decay": """{
  "fit": {
    "exp_decay": {
      "exp_A": 0.2773362606942629,
      "exp_lambda": 0.036957027529562356,
      "exp_C": 0.03120258672678651
    }
  },
  "residual_sse": 0.010396926504800563,
  "points_used": 40
}
""",
    "piecewise-energy": """{
  "fit": {
    "energy": {
      "threshold": 361.0,
      "unit": "fitted",
      "exp_A": 0.2914004906130839,
      "exp_lambda": 0.029889967394559038,
      "exp_C": 0.008521571999784608,
      "log_alpha": 0.016448650387163703,
      "log_beta": -0.0797138820003179
    }
  },
  "residual_sse": 0.00045090830899871455,
  "points_used": 40
}
""",
}


@pytest.mark.parametrize("kind", sorted(DECAY_JSON_GOLDEN))
def test_decay_fit_json_stdout_pinned(capsys, kind):
    """The decay fits' --json bytes on a measurement file, to the last digit."""
    code, out, err = run(
        capsys, "fit", "--json", "--kind", kind, "--phase", "prefill", "--y-field", "energy",
        "--data", str(DECAY_CSV),
    )
    assert (code, err) == (0, "")
    assert out == DECAY_JSON_GOLDEN[kind]


class TestVote:
    def test_majority(self, capsys):
        code, out, _ = run(capsys, "vote", "B", "A", "B")
        assert code == 0
        assert out == "winner=B\n"


class TestOut:
    def test_out_writes_file_only(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(
            capsys,
            "predict",
            "--model",
            "dsr1-qwen-14b",
            "--input",
            "512",
            "--output",
            "128",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "prefill=0.782797 decode=24.0192 total=24.802\n"

    @pytest.mark.parametrize(
        "where, reason",
        [("missing/x.txt", "No such file or directory"), ("", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_path_exit_2(self, capsys, tmp_path, where, reason):
        target = tmp_path / where
        code, out, err = run(capsys, "vote", "B", "A", "B", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: {reason}\n"


class TestFit:
    def test_decode_fit_from_csv(self, capsys, tmp_path):
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        m, n = 1e-6, 0.05
        for o in (16, 64, 128, 512):
            lat = n * o + m * (512 * o + o * (o - 1) / 2)
            lines.append(f"decode,512,{o},{lat!r},,")
        path = tmp_path / "decode.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "fit", "--kind", "decode-latency", "--data", str(path))
        assert code == 0
        fields = dict(pair.split("=") for pair in out.split())
        assert fields["kind"] == "decode_latency"
        assert float(fields["m"]) == pytest.approx(1e-6, rel=1e-4)
        assert float(fields["n"]) == pytest.approx(0.05, rel=1e-4)

    def test_fit_that_no_profile_accepts(self, capsys, tmp_path):
        # The fitters return what least squares gives, c < 0 here; only a
        # profile built from the fit refuses it.
        path = tmp_path / "prefill.csv"
        path.write_text(
            "phase,input_len,output_len,latency_s,power_w,energy_j\n"
            "prefill,128,0,0.010,,\nprefill,256,0,0.030,,\n"
            "prefill,512,0,0.075,,\nprefill,1024,0,0.200,,\n"
        )
        coeffs = fit_prefill_latency(load_measurements(path)).coefficients
        assert coeffs.c == pytest.approx(-0.00583333, rel=1e-5)
        assert run(capsys, "fit", "--kind", "prefill-latency", "--data", str(path)) == (
            0,
            "kind=prefill_latency a=8.28569e-08 b=0.000116116 c=-0.00583333"
            " residual_sse=7.25806e-07 points_used=4\n",
            "",
        )
        with pytest.raises(InvariantViolation, match=r"^prefill_latency\.c: c must be >= 0$"):
            ModelProfile(id="fitted", param_count=1.0, prefill_latency=coeffs)

    def test_json_fragment(self, capsys, tmp_path):
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        for i in (128, 256, 512, 1024):
            lines.append(f"prefill,{i},0,{1e-7 * i * i + 2e-6 * i + 0.05!r},,")
        path = tmp_path / "prefill.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "fit", "--json", "--kind", "prefill-latency", "--data", str(path)
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["fit"]["prefill_latency"]) == {"a", "b", "c"}
        assert doc["points_used"] == 4

    def test_log_curve_min_x(self, capsys, tmp_path):
        # Below x = 256 the curve is flat; --min-x 256 leaves only its log
        # part, which the fit then matches.
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        lines += [f"prefill,{i},0,0.1,5.0," for i in (64, 128)]
        lines += [f"prefill,{i},0,0.1,{0.5 * math.log(i) + 2.0!r}," for i in (256, 512, 1024, 2048)]
        path = tmp_path / "power.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["fit", "--json", "--kind", "log-curve", "--phase", "prefill", "--y-field", "power", "--data", str(path)]
        code, out, err = run(capsys, *argv, "--min-x", "256")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["points_used"] == 4
        assert doc["fit"]["log_curve"] == pytest.approx({"log_alpha": 0.5, "log_beta": 2.0}, rel=1e-12)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["points_used"] == 6

    def test_log_curve_min_x_past_every_point_exit_1(self, capsys, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text(
            "phase,input_len,output_len,latency_s,power_w,energy_j\nprefill,64,0,0.1,5.0,\nprefill,128,0,0.1,5.5,\n"
        )
        code, out, err = run(
            capsys, "fit", "--kind", "log-curve", "--phase", "prefill", "--y-field", "power",
            "--data", str(path), "--min-x", "1e6",
        )
        assert (code, out) == (1, "")
        assert err == "error: need >= 2 distinct x >= 1000000.0, found 0\n"

    ENERGY_ROWS = [(16, 0.05), (32, 0.03), (64, 0.01), (128, 0.005), (256, 0.002)]

    def energy_fit(self, capsys, tmp_path, rows):
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        lines += [f"prefill,{i},0,0.1,,{e}" for i, e in rows]
        path = tmp_path / "energy.csv"
        path.write_text("\n".join(lines) + "\n")
        return run(
            capsys, "fit", "--kind", "exp-decay", "--phase", "prefill", "--y-field", "energy",
            "--data", str(path),
        )

    def test_infinite_energy_exit_2(self, capsys, tmp_path):
        rows = list(self.ENERGY_ROWS)
        rows[1] = (32, "inf")
        code, out, err = self.energy_fit(capsys, tmp_path, rows)
        assert (code, out) == (2, "")
        assert "line 3" in err

    def test_overflowing_energy_exit_1_without_warning(self, capsys, tmp_path):
        rows = list(self.ENERGY_ROWS)
        rows[1] = (32, "1e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self.energy_fit(capsys, tmp_path, rows)
        assert (code, out) == (1, "")
        assert "not finite" in err

    def test_power_past_1e100_exit_1(self, capsys, tmp_path):
        # The cell parses, but the fitters' domain ends at |y| = 1e100.
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        watts = [5.6, 5.6, 1e101, 5.6, 6.3, 6.9, 7.5, 8.1]
        lines += [f"decode,512,{o},1.0,{w}," for o, w in zip((8, 16, 32, 64, 128, 256, 512, 1024), watts)]
        path = tmp_path / "power.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "fit", "--kind", "piecewise-power", "--phase", "decode", "--data", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "1e100" in err

    def test_decode_power_threshold_is_the_first_log_branch_position(self, capsys, tmp_path):
        # The shipped 1.5B decode-power shape: a 5.9 W floor, then the log branch from 64.
        def watts(p):
            return 5.9 if p < 64 else 0.756538 * math.log(p) + 3.213711

        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        lines += [f"decode,512,{p},1.0,{watts(p)!r}," for p in range(1, 300)]
        path = tmp_path / "power.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["fit", "--kind", "piecewise-power", "--phase", "decode", "--data", str(path)]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fit"]["power"]["threshold"] == 64
        assert doc["points_used"] == 299
        # The printed coefficients, used as decode_power, give the printed SSE.
        registry = load_profiles(io.StringIO(json.dumps(
            {"profiles": [{"id": "fit", "param_b": 1.0, "decode_power": doc["fit"]["power"]}]}
        )))
        profile = registry.get("fit")
        sse = math.fsum((decode_power(profile, p) - watts(p)) ** 2 for p in range(1, 300))
        assert sse == pytest.approx(doc["residual_sse"], abs=1e-20)
        # The prefill phase keeps the last x of the floor branch.
        lines = ["phase,input_len,output_len,latency_s,power_w,energy_j"]
        lines += [f"prefill,{p},0,1.0,{watts(p)!r}," for p in range(1, 300)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "fit", "--kind", "piecewise-power", "--phase", "prefill",
                           "--data", str(path), "--json")
        assert code == 0
        assert json.loads(out)["fit"]["power"]["threshold"] == 63
        assert json.loads(out)["residual_sse"] == doc["residual_sse"]

    def test_warning_is_one_line_in_a_fresh_process(self):
        proc = run_fresh(
            "fit", "--kind", "exp-decay", "--phase", "prefill", "--y-field", "latency",
            "--data", str(SHIPPED_DATA / "dsr1-qwen-14b-gpu.csv"),
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            "kind=exp_decay exp_A=0 exp_lambda=0 exp_C=0.744 residual_sse=0.933134 points_used=4\n"
        )
        assert proc.stderr == "warning: no exponential decay detected; returning the constant fit\n"

    @pytest.mark.parametrize("column", ["input_len", "output_len"])
    def test_count_past_2_53_is_one_line(self, capsys, tmp_path, column):
        # A bad measurement row is bad input (exit 2), as a row with input_len 0 is;
        # 10**400 used to reach the float conversion in fit_decode_latency.
        cells = {"input_len": "512", "output_len": "16", column: "1" + "0" * 400}
        path = tmp_path / "decode.csv"
        path.write_text(
            "phase,input_len,output_len,latency_s,power_w,energy_j\n"
            f"decode,{cells['input_len']},{cells['output_len']},0.8,,\n"
            "decode,512,64,2.5,,\n"
        )
        code, out, err = run(capsys, "fit", "--kind", "decode-latency", "--data", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: measurement.{column}: {column} must be <= 2**53 (line 2)\n"

    def test_decay_on_one_input_length_exit_1(self, capsys, tmp_path):
        code, out, err = self.energy_fit(capsys, tmp_path, [(64, 0.3), (64, 0.2), (64, 0.25), (64, 0.22)])
        assert (code, out) == (1, "")
        assert "distinct" in err


class TestRegistryRoundTripViaCli(object):
    def test_serialized_registry_is_loadable(self, capsys, tmp_path, registry):
        path = tmp_path / "dump.json"
        path.write_text(serialize_profiles(registry))
        code, out, _ = run(capsys, "list-models", "--profiles", str(path))
        assert code == 0
        assert out.splitlines() == registry.ids()
