"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They show that the generators repeat for a seed and that every correctness
check rejects a deliberately perturbed result, so that a zero failed share
means something.
"""

import contextlib
import dataclasses
import io
import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402
import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def shipped():
    return wl.Shipped()


@pytest.fixture(scope="module")
def ep():
    return bench_run.import_edgeperf()


def _key(op):
    if isinstance(op, wl.FitOp):
        return (op.kind, op.model, op.text)
    if isinstance(op, wl.FrontierOp):
        return (op.text, op.objectives, op.max_latency, op.max_cost)
    return op


def _first(stream, n):
    return [_key(op) for op in itertools.islice(stream, n)]


@pytest.mark.parametrize("make", ["budget", "fit", "frontier", "cli"])
def test_generator_repeats_for_a_seed(shipped, make):
    def stream(seed):
        if make == "budget":
            return wl.budget_sweep_ops(seed, shipped)
        if make == "fit":
            return wl.fit_batch_ops(seed, shipped)
        if make == "frontier":
            return wl.frontier_ops(seed, shipped)
        return wl.cli_ops(seed, shipped, wl.cli_files(seed, shipped), "work")

    n = 60 if make != "frontier" else 8
    assert _first(stream(7), n) == _first(stream(7), n)
    assert _first(stream(7), n) != _first(stream(8), n)
    if make == "cli":
        assert wl.cli_files(7, shipped) == wl.cli_files(7, shipped)


def test_prefix_sum_energy_matches_the_per_token_sum(shipped):
    rng = random.Random(3)
    for model in shipped.timed:
        prof = shipped.profiles[model]
        energy = ref.DecodeEnergyRef(prof, wl.MAX_CONTEXT)
        for _ in range(20):
            i = rng.randint(1, 4096)
            o = rng.randint(0, wl.MAX_CONTEXT - i)
            assert ref.close(energy(i, o), ref.decode_energy_direct(prof, i, o), 1e-13)


def _budget_case(shipped, ep):
    checker = ref.BudgetChecker(shipped.profiles, wl.MAX_CONTEXT)
    registry = ep.edgeperf.default_registry()
    for op in wl.budget_sweep_ops(11, shipped):
        res = ops.run_budget_op(op, ep, registry)
        if res[0] != "error" and res[0] > 64:
            return checker, op, res


def test_budget_check_rejects_an_inversion_one_token_off(shipped, ep):
    checker, op, res = _budget_case(shipped, ep)
    assert checker.check(op, res) is None
    assert checker.check(op, (res[0] + 1,) + res[1:]) is not None
    assert checker.check(op, (res[0] - 1,) + res[1:]) is not None


def test_budget_check_rejects_wrong_energy_and_refusals(shipped, ep):
    checker, op, res = _budget_case(shipped, ep)
    assert checker.check(op, res[:2] + (res[2] * (1 + 1e-9),) + res[3:]) is not None
    assert checker.check(op, ("error", "InfeasibleBudget")) is not None
    infeasible = (op[0], op[1], 0.5 * ref.prefill_latency_ref(shipped.profiles[op[0]], op[1])) + op[3:]
    assert checker.check(infeasible, ("error", "InfeasibleBudget")) is None
    assert checker.check(infeasible, res) is not None


def _frontier_case(shipped, ep):
    for op in wl.frontier_ops(5, shipped):
        res = ops.run_frontier_op(op, ep)
        if len({p.latency for p in res[1]}) >= 3:
            return op, res


def test_frontier_check_rejects_a_missing_point(shipped, ep):
    op, (n, frontier, fastest, cheapest) = _frontier_case(shipped, ep)
    assert ref.check_frontier(op, (n, frontier, fastest, cheapest)) is None
    assert ref.check_frontier(op, (n, frontier[:-1], fastest, cheapest)) is not None
    assert ref.check_frontier(op, (n, frontier[1:], fastest, cheapest)) is not None


def test_frontier_check_rejects_a_wrong_order(shipped, ep):
    op, (n, frontier, fastest, cheapest) = _frontier_case(shipped, ep)
    swapped = [frontier[1], frontier[0]] + frontier[2:]
    assert ref.check_frontier(op, (n, swapped, fastest, cheapest)) is not None
    assert ref.check_frontier(op, (n, frontier[::-1], fastest, cheapest)) is not None


def test_frontier_reference_keeps_exact_ties_and_drops_repeats():
    row = ("a", "base", None, 50.0, 10.0, 2.0, 0.1, 1)
    tie = ("b", "base", None, 50.0, 11.0, 2.0, 0.1, 1)
    worse = ("c", "base", None, 40.0, 10.0, 3.0, 0.2, 1)
    assert ref.frontier_ref([row, tie, row, worse], ["accuracy", "latency", "cost"]) == [row, tie]


@pytest.mark.parametrize("kind", [k for k, _ in wl.FIT_QUOTAS])
def test_fit_check_rejects_an_inflated_sse(shipped, ep, kind):
    op = next(op for op in wl.fit_batch_ops(4, shipped) if op.kind == kind)
    n, fit, score = ops.run_fit_op(op, ep)
    assert ref.check_fit(op, (n, fit, score), shipped.profiles) is None
    inflated = dataclasses.replace(fit, residual_sse=fit.residual_sse * 1.001)
    assert ref.check_fit(op, (n, inflated, score), shipped.profiles) is not None


def test_fit_check_accepts_an_exact_fit(shipped, ep):
    prof = shipped.profiles["dsr1-qwen-1.5b"]
    rows = [("prefill", i, 0, ref.prefill_latency_ref(prof, i) * (1 + 0.01 * k), None, None)
            for k, i in enumerate((128, 512, 1024))] + [("prefill", 100, 0, 0.05, None, None)]
    op = wl.FitOp("prefill-latency", "dsr1-qwen-1.5b", rows, "prefill_latency", "prefill", "latency")
    n, fit, score = ops.run_fit_op(op, ep)
    assert fit.points_used == 3
    assert ref.check_fit(op, (n, fit, score), shipped.profiles) is None


def test_fit_check_rejects_coefficients_worse_than_the_truth(shipped, ep):
    op = next(op for op in wl.fit_batch_ops(4, shipped) if op.kind == "prefill-latency")
    n, fit, score = ops.run_fit_op(op, ep)
    worse = dataclasses.replace(fit.coefficients, c=fit.coefficients.c * 1.5)
    fn = ref._model_fn(op.kind, worse)
    sse = sum((fn(x) - y) ** 2 for x, y in ref.fit_points(op))
    bad = dataclasses.replace(fit, coefficients=worse, residual_sse=sse)
    assert "worse than the generating" in ref.check_fit(op, (n, bad, score), shipped.profiles)


def _cli_cases(shipped, tmp_path):
    from edgeperf import cli

    files = wl.cli_files(1, shipped)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cli_ref = ref.CliReference(shipped.profiles, shipped.table, files, str(tmp_path))
    seen = {}
    for kind, argv in wl.cli_ops(1, shipped, files, str(tmp_path)):
        seen.setdefault(kind, argv)
        if len(seen) == len(wl.CLI_QUOTAS):
            break
    for kind, argv in sorted(seen.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        yield kind, cli_ref.expected(argv), code, out.getvalue(), err.getvalue()


def test_cli_check_rejects_one_changed_digit_and_a_wrong_exit_code(shipped, tmp_path):
    digits = 0
    for kind, expected, code, out, err in _cli_cases(shipped, tmp_path):
        assert ref.check_cli(expected, code, out, err) is None, kind
        assert ref.check_cli(expected, code + 1, out, err) is not None, kind
        pos = next((j for j in range(len(out) - 1, -1, -1) if out[j].isdigit()), None)
        if pos is not None:
            changed = out[:pos] + str((int(out[pos]) + 1) % 10) + out[pos + 1:]
            assert ref.check_cli(expected, code, changed, err) is not None, kind
            digits += 1
    assert digits >= 8


def test_cli_check_rejects_a_traceback():
    assert ref.check_cli(("x\n", 0), 0, "x\n", "Traceback (most recent call last):\n") is not None


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "budget-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_probe_clock_covers_every_import(shipped):
    """Before its clock starts the probe loads no module a fresh interpreter lacks."""
    code = "import sys; before = set(sys.modules); import ops; print(sorted(set(sys.modules) - before - {'ops'}))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr
    for workload in ("budget-sweep", "fit-batch", "frontier"):
        args, text = bench_run.probe_input(workload, bench_run.warmup_op(workload, shipped))
        proc = bench_run.python(str(HERE / "setup_probe.py"), workload, *args, input=text)
        assert proc.returncode == 0, proc.stderr
        setup_s, numpy_loaded = proc.stdout.split()
        assert float(setup_s) > 0 and numpy_loaded in ("0", "1")


def test_run_limit_grows_with_the_measured_time():
    assert bench_run.run_limit_s(30) < 180
    assert bench_run.run_limit_s(200) > 1.25 * 200


def test_latency_quantiles_are_window_means_with_the_partial_window_merged():
    phase = bench_run.PhaseResult()
    for t in range(250):
        phase.add(t, 1.0, "op", None)
    phase.finish()
    assert phase.windows == 2  # 0..99, then 100..249
    p50, p90 = phase.latency_ms()
    assert p50 == (49.5 + 174.5) / 2 / 1e6
    assert p90 == (89 + 234) / 2 / 1e6
