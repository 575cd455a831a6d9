"""What importing edgeperf and each CLI call load, and the names the package exports.

numpy is loaded only by the fitters, and so only by ``fit``. The load
checks run in fresh interpreters, because this process has loaded every
module already.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

import pytest

import edgeperf
from edgeperf import energy, fitting, latency, planner, profiles
from edgeperf.profiles import builtin_profiles_path

SRC = str(Path(edgeperf.__file__).resolve().parents[1])
MEASUREMENTS = builtin_profiles_path().parent / "measurements"
DATA_14B = str(MEASUREMENTS / "dsr1-qwen-14b-gpu.csv")

# The edgeperf modules that every CLI call loads: the CLI and what it imports at its top.
CLI_CORE = ["cli", "errors", "latency", "profiles"]

# Every CLI call that computes without numpy, with its exit code and the
# edgeperf modules it loads besides CLI_CORE.
NUMPY_FREE_CALLS = {
    "predict": (["predict", "--model", "dsr1-qwen-14b", "--input", "512", "--output", "128"], 0, []),
    "predict-unknown": (["predict", "--model", "nonexistent", "--input", "1", "--output", "1"], 2, []),
    "invert": (["invert", "--model", "dsr1-qwen-1.5b", "--input", "256", "--budget", "10"], 0, []),
    "cost": (
        ["cost", "--tokens", "195624", "--duration", "4358", "--energy-kwh", "0.0317"], 0, ["energy"]
    ),
    "vote": (["vote", "B", "A", "B"], 0, ["planner"]),
    "list-models": (["list-models"], 0, []),
    "plan-pareto": (["plan", "--pareto", "accuracy,latency,cost"], 0, ["planner"]),
    "plan-max-cost": (["plan", "--max-cost", "0.01"], 0, ["planner"]),
    "plan-max-latency": (["plan", "--max-latency", "60"], 0, ["planner"]),
    "validate": (["validate", "--model", "dsr1-qwen-14b", "--data", DATA_14B], 0, []),
}
FIT_CALL = (["fit", "--kind", "prefill-latency", "--data", DATA_14B], 0, ["fitting"])

# Prints, as JSON, [step, exit code, numpy loaded, edgeperf modules loaded]
# after `import edgeperf` and after each later step. With no argument the
# steps are library calls; otherwise one CLI call with the argv in argv[1].
CHILD = """
import contextlib, io, json, sys

def report(step, code=None):
    modules = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("edgeperf."))
    steps.append([step, code, "numpy" in sys.modules, modules])

steps = []
import edgeperf
report("import edgeperf")
if len(sys.argv) == 1:
    profile = edgeperf.default_registry().get("dsr1-qwen-14b")
    report("default_registry")
    edgeperf.decode_energy(profile, 512, 63)  # every position below the threshold of 64
    report("decode_energy floor branch")
    edgeperf.decode_energy(profile, 512, 300)
    report("decode_energy log branch")
    edgeperf.total_energy(profile, 512, 300)
    report("total_energy")
else:
    from edgeperf import cli
    argv = json.loads(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    report(" ".join(argv), code)
print(json.dumps(steps))
"""


def _fresh_process_report(*argv, child=CHILD):
    env = {k: v for k, v in os.environ.items() if k != "EDGEPERF_PROFILES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_library_loads_only_what_it_computes_with():
    assert _fresh_process_report() == [
        ["import edgeperf", None, False, []],
        ["default_registry", None, False, ["errors", "profiles"]],
        ["decode_energy floor branch", None, False, ["energy", "errors", "latency", "profiles"]],
        ["decode_energy log branch", None, False, ["energy", "errors", "latency", "profiles"]],
        ["total_energy", None, False, ["energy", "errors", "latency", "profiles"]],
    ]


@pytest.mark.parametrize("call", [*NUMPY_FREE_CALLS, "fit"])
def test_numpy_only_where_it_computes(call):
    argv, code, modules = FIT_CALL if call == "fit" else NUMPY_FREE_CALLS[call]
    assert _fresh_process_report(json.dumps(argv)) == [
        ["import edgeperf", None, False, []],
        [" ".join(argv), code, call == "fit", sorted(CLI_CORE + modules)],
    ]


# profiles is the lowest module: it holds what validation computes with, mape
# included, and imports no edgeperf module but errors.
PROFILES_CHILD = """
import json, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("edgeperf."))

import edgeperf.profiles
steps = [loaded()]
edgeperf.mape
steps.append(loaded())
print(json.dumps(steps))
"""


def test_profiles_and_mape_load_only_errors_and_profiles():
    assert _fresh_process_report(child=PROFILES_CHILD) == [["errors", "profiles"]] * 2


def test_moved_functions_keep_their_old_paths():
    assert fitting.mape is profiles.mape is edgeperf.mape
    assert latency.prefill_latency is profiles.prefill_latency
    assert latency.padded_length is profiles.padded_length
    assert energy.piecewise_power_value is profiles.piecewise_power_value
    assert energy.piecewise_energy_value is profiles.piecewise_energy_value


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


# The names `edgeperf` exports, by a submodule whose attribute each one is.
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


def test_all_lists_every_export():
    assert sorted(edgeperf.__all__) == sorted(name for names in EXPORTS.values() for name in names)


def test_from_import_and_unknown_name():
    from edgeperf import FitResult, mape

    assert (FitResult, mape) == (fitting.FitResult, fitting.mape)
    assert edgeperf.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'fit_nothing'"):
        edgeperf.fit_nothing


def test_console_scripts_name_callables():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name, None)), target


def test_package_data_globs_cover_every_data_file():
    # Tests import from src/, so a data file that no glob names passes here and
    # is missing from an installed wheel.
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["edgeperf"]
    package = Path(SRC) / "edgeperf"
    files = [p.relative_to(package) for p in (package / "data").rglob("*") if p.is_file()]
    assert files
    for rel in files:
        assert any(
            rel.parent == Path(glob).parent and fnmatchcase(rel.name, Path(glob).name)
            for glob in globs
        ), rel
