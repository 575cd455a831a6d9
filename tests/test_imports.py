"""What importing edgeperf loads, and the names the package exports.

numpy is loaded only by the fitters (and so by ``fit`` and ``validate``).
The cold-path checks run in a fresh interpreter, because this process has
numpy loaded already.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import edgeperf
from edgeperf import energy, fitting, latency, planner, profiles
from edgeperf.profiles import builtin_profiles_path

SRC = str(Path(edgeperf.__file__).resolve().parents[1])
MEASUREMENTS = builtin_profiles_path().parent / "measurements"

# Every CLI call that computes without numpy, with its exit code.
NUMPY_FREE_CALLS = [
    (["predict", "--model", "dsr1-qwen-14b", "--input", "512", "--output", "128"], 0),
    (["predict", "--model", "nonexistent", "--input", "1", "--output", "1"], 2),
    (["invert", "--model", "dsr1-qwen-1.5b", "--input", "256", "--budget", "10"], 0),
    (["cost", "--tokens", "195624", "--duration", "4358", "--energy-kwh", "0.0317"], 0),
    (["vote", "B", "A", "B"], 0),
    (["list-models"], 0),
    (["plan", "--pareto", "accuracy,latency,cost"], 0),
    (["plan", "--max-cost", "0.01"], 0),
    (["plan", "--max-latency", "60"], 0),
]

# Whether numpy is loaded after `import edgeperf`, after decode_energy on each
# branch, after total_energy and after each CLI call of argv[1], with the
# call's exit code.
CHILD = """
import contextlib, io, json, sys

import edgeperf
from edgeperf import cli

report = [["import edgeperf", None, "numpy" in sys.modules]]
profile = edgeperf.default_registry().get("dsr1-qwen-14b")
edgeperf.decode_energy(profile, 512, 63)  # every position below the threshold of 64
report.append(["decode_energy floor branch", None, "numpy" in sys.modules])
edgeperf.decode_energy(profile, 512, 300)
report.append(["decode_energy log branch", None, "numpy" in sys.modules])
edgeperf.total_energy(profile, 512, 300)
report.append(["total_energy", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    report.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def _fresh_process_report(calls):
    env = {k: v for k, v in os.environ.items() if k != "EDGEPERF_PROFILES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(calls)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "numpy_call",
    [
        ["fit", "--kind", "prefill-latency", "--data", str(MEASUREMENTS / "dsr1-qwen-14b-gpu.csv")],
        ["validate", "--model", "dsr1-qwen-14b", "--data", str(MEASUREMENTS / "dsr1-qwen-14b-gpu.csv")],
    ],
    ids=["fit", "validate"],
)
def test_numpy_only_where_it_computes(numpy_call):
    calls = [argv for argv, _ in NUMPY_FREE_CALLS] + [numpy_call]
    report = _fresh_process_report(calls)
    library = ["import edgeperf", "decode_energy floor branch", "decode_energy log branch", "total_energy"]
    expected = [[name, None, False] for name in library]
    expected += [[" ".join(argv), code, False] for argv, code in NUMPY_FREE_CALLS]
    expected.append([" ".join(numpy_call), 0, True])
    assert report == expected


def test_decode_energy_log_branch_value(p14):
    # Correctly rounded: the exact rational sum of the per-token products, each
    # log rounded as math.log rounds it, rounded once to a float.
    power, coeffs = p14.decode_power, p14.decode_latency
    exact = Fraction(0)
    for p in range(1, 301):
        if p < power.threshold:
            watts = Fraction(power.floor_watts)
        else:
            watts = Fraction(power.log_alpha) * Fraction(math.log(p)) + Fraction(power.log_beta)
        exact += watts * (Fraction(coeffs.m) * (512 + p - 1) + Fraction(coeffs.n))
    assert energy.decode_energy(p14, 512, 300).hex() == float(exact).hex()


# The names `edgeperf` exported before fitting became a lazy import.
EXPORTS = {
    energy: [
        "CostBreakdown", "CostParams", "UsageSample", "cost_per_million_tokens",
        "decode_energy", "decode_power", "prefill_energy_per_token", "prefill_power",
        "total_energy",
    ],
    fitting: [
        "FitResult", "fit_decode_latency", "fit_exp_decay", "fit_log_curve",
        "fit_piecewise", "fit_prefill_latency", "mape",
    ],
    latency: [
        "LatencyBreakdown", "LatencyBudget", "decode_latency", "max_output_tokens",
        "padded_length", "prefill_latency", "tbt", "total_latency",
    ],
    planner: [
        "ConfigPoint", "PhaseRatios", "Technique", "best_under_cost", "best_under_latency",
        "default_config_table", "load_config_table", "majority_vote", "pareto_frontier",
        "phase_ratios",
    ],
    profiles: [
        "MeasurementRecord", "ModelProfile", "Phase", "Precision", "ProfileRegistry",
        "default_registry", "load_measurements", "load_profiles", "serialize_profiles",
        "validate_profile",
    ],
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in EXPORTS.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_export_is_the_submodule_attribute(module, name):
    assert getattr(edgeperf, name) is getattr(module, name)


@pytest.mark.parametrize("name", ["energy", "errors", "fitting", "latency", "planner", "profiles"])
def test_submodule_attribute(name):
    assert getattr(edgeperf, name) is sys.modules[f"edgeperf.{name}"]


def test_from_import_and_unknown_name():
    from edgeperf import FitResult, mape

    assert (FitResult, mape) == (fitting.FitResult, fitting.mape)
    assert edgeperf.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'fit_nothing'"):
        edgeperf.fit_nothing
