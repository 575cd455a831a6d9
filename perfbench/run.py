#!/usr/bin/env python3
"""The edgeperf benchmark.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload budget-sweep --seed 1 --seconds 30 --trace 0

Every workload, with a table of each metric, its unit and sample count:

    python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]

With ``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
measures half the time untraced and half traced and prints the per-layer
metrics. End-to-end times are given at a reference host speed: each op and
set-up time is scaled by the time a fixed calibration workload takes on the
reference host over its mean time in the last samples taken before it. The
last line of stdout is
always the JSON result object; the line before it, ``perfbench-info {...}``,
holds sample counts, the unscaled values, the calibration, the failure share,
the op mix and the environment. Workloads, shares and metrics are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from array import array
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "budget-sweep", "fit-batch", "frontier")
SETUPS = 9  # fresh set-ups per run, spread over the measured time; setup_s is their median
OP_TIMEOUT_S = 30.0
FAILURES_SHOWN = 5
WINDOW_OPS = 100  # latency quantiles are taken per window of this many ops ...
MIN_OPS = WINDOW_OPS  # ... so that each window's p90 has ten samples beyond it
CALIBRATION_EVERY_NS = 100_000_000  # one calibration sample per 100 ms of measuring
LOCAL_CALIBRATIONS = 10  # an op is scaled by the mean of the last this many samples
REFERENCE_CALIBRATION_NS = 1_500_000  # calibration_ns on the reference host
CALIBRATION_CSV = "".join(f"m{i},t{i % 7},{i * 0.37:.3f},{i * 1.9:.2f},{i % 13}\n" for i in range(600))

import ops
import tracing
import workloads as wl
from reference import BudgetChecker, CliReference, check_cli, check_fit, check_frontier


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EDGEPERF_PROFILES", None)
    return env


def python(*args, **kwargs):
    """Run a fresh interpreter from the repository root and return its CompletedProcess."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=OP_TIMEOUT_S, **kwargs,
    )


def run_limit_s(seconds):
    """Limit of a whole run: the measured time, its min-ops extension, and room
    for set-up, the import passes and writing out spans. A hung op cannot
    outlive it."""
    return math.ceil(1.25 * seconds) + 120


def import_edgeperf():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ops.EdgeperfModules()


def modules_of(ep):
    return {n: getattr(ep, n) for n in ("energy", "fitting", "latency", "planner", "profiles")}


def calibration_ns():
    """Time of a fixed calibration workload: one sample of how fast the host runs now.

    An arithmetic loop, which sits in the first-level caches, plus parsing a
    fixed CSV text into tuples, which allocates; on its own the loop misses
    much of a slowdown that allocation-heavy ops feel. It runs no edgeperf
    code, so a change to the program cannot move it; what moves it is the
    shared host speeding up and slowing down.
    """
    t0 = time.perf_counter_ns()
    total = 0
    for i in range(10_000):
        total += i * i
    rows = [(r[0], r[1], float(r[2]), float(r[3]), int(r[4])) for r in csv.reader(io.StringIO(CALIBRATION_CSV))]
    total += len(rows)
    return time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def warmup_op(workload, shipped):
    """A fixed small op, the same for every seed, so setup_s does not vary with it.

    Small, so that set-up time is the import and first-use work rather than
    one op's size.
    """
    if workload == "budget-sweep":
        return ("dsr1-qwen-14b", 512, 60.0, 200, True, False)
    if workload == "fit-batch":
        ops = wl.fit_batch_ops("warm-up", shipped)
        return next(op for op in ops if op.kind == "piecewise-energy" and len(op.rows) <= 16)
    return next(op for op in wl.frontier_ops("warm-up", shipped) if len(op.rows) <= 50)


def probe_input(workload, op):
    """The warm-up op as setup_probe.py reads it: fields as arguments, CSV text on stdin."""
    if workload == "budget-sweep":
        model, input_len, budget, output_len, want_total, want_power = op
        return [model, str(input_len), repr(budget), str(output_len), str(int(want_total)), str(int(want_power))], ""
    if workload == "fit-batch":
        return [op.kind, op.phase, op.field], op.text
    return [",".join(op.objectives), repr(op.max_latency), repr(op.max_cost)], op.text


def setup_runner(workload, shipped):
    """A callable that times one fresh set-up: (seconds, whether it loaded numpy).

    For cli-cold a set-up is one warm-up invocation, timed from spawn to exit;
    otherwise setup_probe.py times itself.
    """
    if workload != "cli-cold":
        args, text = probe_input(workload, warmup_op(workload, shipped))

    def run():
        t0 = time.perf_counter()
        if workload == "cli-cold":
            proc = python("-m", "edgeperf.cli", *wl.CLI_WARMUP)
        else:
            proc = python(str(HERE / "setup_probe.py"), workload, *args, input=text)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        if workload == "cli-cold":
            return wall, None
        setup_s, numpy_loaded = proc.stdout.split()
        return float(setup_s), numpy_loaded == "1"

    return run


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Bench:
    """How one workload generates, runs, checks and classifies its ops.

    ``batch`` ops are generated first and then run back to back, each timed
    on its own, before any of them is checked; microsecond ops thus run the
    way a sweep loop runs them, not with the checker's work in between.
    """

    def __init__(self, stream, run, check, kind, traced_run=None, after=None, batch=1):
        self.stream, self.run, self.check, self.kind = stream, run, check, kind
        self.setup = None  # a setup_runner, set by run_workload
        self.traced_run = traced_run or run
        self.after = after
        self.batch = batch


def make_bench(workload, seed, ep, shipped, workdir, tracer_box):
    if workload == "budget-sweep":
        registry = ep.edgeperf.default_registry()
        checker = BudgetChecker(shipped.profiles, wl.MAX_CONTEXT)

        def kind(op, res):
            if res[0] == "error":
                return "refusal"
            return "floor" if min(op[3], res[0]) < 64 else "log"

        return Bench(lambda: wl.budget_sweep_ops(seed, shipped),
                     lambda op: ops.run_budget_op(op, ep, registry), checker.check, kind, batch=256)
    if workload == "fit-batch":
        return Bench(lambda: wl.fit_batch_ops(seed, shipped), lambda op: ops.run_fit_op(op, ep),
                     lambda op, res: check_fit(op, res, shipped.profiles), lambda op, res: op.kind, batch=4)
    if workload == "frontier":
        return Bench(lambda: wl.frontier_ops(seed, shipped), lambda op: ops.run_frontier_op(op, ep),
                     check_frontier, lambda op, res: f"{len(op.objectives)}-objective", batch=4)
    return cli_bench(seed, shipped, workdir, tracer_box)


def cli_bench(seed, shipped, workdir, tracer_box):
    rel = os.path.relpath(workdir, ROOT)
    files = wl.cli_files(seed, shipped)
    for name, text in files.items():
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    ref = CliReference(shipped.profiles, shipped.table, files, rel)
    spans = Path(workdir) / "spans.json"

    def run(op):
        proc = python("-m", "edgeperf.cli", *op[1])
        return proc.returncode, proc.stdout, proc.stderr

    def traced_run(op):
        proc = python(str(HERE / "cli_child.py"), str(spans), *op[1])
        return proc.returncode, proc.stdout, proc.stderr

    def after(op, res, wall_ns, op_id):
        """Fold one traced child's spans in; what cli.run does not cover is import."""
        if not spans.is_file():
            return "the traced CLI process wrote no spans"
        data = json.loads(spans.read_text(encoding="utf-8"))
        spans.unlink()
        tracer_box.tracer.absorb(data["spans"], op_id)
        cols = data["spans"]
        run_ns = sum(e - s for s, e, p in zip(cols["start"], cols["end"], cols["parent"]) if p < 0)
        tracer_box.import_ns += wall_ns - run_ns
        tracer_box.numpy_flags.append(data["numpy"])
        return None

    def check(op, res):
        return check_cli(ref.expected(op[1]), *res)

    return Bench(lambda: wl.cli_ops(seed, shipped, files, rel), run, check,
                 lambda op, res: op[0], traced_run, after)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class PhaseResult:
    """Op counts, per-window latency quantiles, and calibration samples.

    Latency quantiles are taken over consecutive windows of WINDOW_OPS ops
    and averaged over the windows; a last, partial window joins the one
    before it. On a shared host the same op runs at one of two speeds for
    stretches of seconds, so a run's op times mix two clusters, and a
    quantile over the whole run jumps from one cluster to the other as the
    mix shifts. The mean of window quantiles moves in proportion to the mix
    instead. The harness keeps only the current and the previous window, so
    its memory does not grow with the op count and peak_rss_mb does not
    penalise a faster program.
    """

    HEAD = 1 << 16

    def __init__(self):
        self.head = array("d", bytes(8 * self.HEAD))  # the first ops' scaled times, ns, in order
        self.window = array("d")  # scaled op times of the current window, ns
        self.last = array("d")  # scaled op times of the previous full window
        self.windows = 0
        self.p50_sum = self.p90_sum = 0.0  # ns, over closed windows
        self.attempted = 0
        self.busy_ns = 0  # unscaled
        self.scaled_busy_ns = 0.0
        self.kinds: dict[str, int] = {}
        self.failed = 0
        self.failures: list[str] = []  # the first few reasons
        self.calibration = array("q")  # calibration_ns samples taken while measuring
        self.setups: list[float] = []  # scaled set-up times, s
        self.unscaled_setups: list[float] = []
        self.setup_numpy: list[bool] = []  # whether each set-up process loaded numpy

    def add(self, dt_ns, scale, kind, error):
        scaled = dt_ns * scale
        if self.attempted < self.HEAD:
            self.head[self.attempted] = scaled
        self.attempted += 1
        self.busy_ns += dt_ns
        self.scaled_busy_ns += scaled
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if error:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(error)
        self.window.append(scaled)
        if len(self.window) == WINDOW_OPS:
            self._close(self.window, 1)
            self.last, self.window = self.window, array("d")

    def add_setup(self, setup_s, scale, numpy_loaded):
        self.setups.append(setup_s * scale)
        self.unscaled_setups.append(setup_s)
        self.setup_numpy.append(numpy_loaded)

    def _close(self, times, sign):
        """Add (sign 1) or take back (sign -1) one window's quantiles."""
        ordered = sorted(times)
        self.windows += sign
        self.p50_sum += sign * statistics.median(ordered)
        self.p90_sum += sign * quantile_ns(ordered, 0.9)[0]

    def finish(self):
        """Close the partial window, merged into the previous one if there is one."""
        if self.window:
            if self.last:
                self._close(self.last, -1)
            merged = self.last + self.window
            self._close(merged, 1)
            self.last, self.window = merged, array("d")

    def latency_ms(self):
        """Mean over windows of the windows' scaled p50 and p90, in ms."""
        return self.p50_sum / self.windows / 1e6, self.p90_sum / self.windows / 1e6

    def ops_per_s(self):
        return self.attempted / (self.scaled_busy_ns / 1e9)

    def unscaled_ops_per_s(self):
        return self.attempted / (self.busy_ns / 1e9)


def measure(bench, seconds, traced=False, tracer_box=None, min_ops=0, setups=0):
    """Closed loop for ``seconds`` of wall time; ops are timed one by one.

    While fewer than ``min_ops`` ops are done the loop may run up to a
    quarter longer. Between ops, and outside their timed intervals, come a
    host-speed calibration sample every CALIBRATION_EVERY_NS and ``setups``
    fresh set-ups, evenly spread over the time. Each op and set-up time is
    scaled by the mean of the last LOCAL_CALIBRATIONS samples before it: the
    host's speed changes within a run, for stretches of seconds. Generation,
    checking and span bookkeeping also happen outside each op's timed
    interval.
    """
    run = bench.traced_run if traced else bench.run
    out = PhaseResult()
    stream = bench.stream()
    start = time.perf_counter()
    clock = time.perf_counter_ns
    recent = deque(maxlen=LOCAL_CALIBRATIONS)

    def calibrate():
        recent.append(calibration_ns())
        out.calibration.append(recent[-1])
        return clock() + CALIBRATION_EVERY_NS, REFERENCE_CALIBRATION_NS / statistics.fmean(recent)

    next_calibration, scale = calibrate()
    while (elapsed := time.perf_counter() - start) < seconds or (
        out.attempted < min_ops and elapsed < 1.25 * seconds
    ):
        done = []
        for op in [next(stream) for _ in range(bench.batch)]:
            op_id = out.attempted + len(done)
            if traced and tracer_box.tracer is not None:
                tracer_box.tracer.op_id = op_id
            t0 = clock()
            try:
                res, error = run(op), None
            except Exception as exc:  # an op must not stop the run; it counts as failed
                res, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            done.append((op, res, t1 - t0, scale, error, op_id))
            if t1 >= next_calibration:
                next_calibration, scale = calibrate()
            if len(out.setups) < setups and time.perf_counter() - start >= len(out.setups) * seconds / setups:
                setup_s, numpy_loaded = bench.setup()
                out.add_setup(setup_s, scale, numpy_loaded)
        for op, res, dt, op_scale, error, op_id in done:
            if error is None and traced and bench.after is not None:
                error = bench.after(op, res, dt, op_id)
            if error is None:
                error = bench.check(op, res)
            if error is None and dt > OP_TIMEOUT_S * 1e9:
                error = "op exceeded the per-op timeout"
            out.add(dt, op_scale, "failed" if error else bench.kind(op, res), error)
    while len(out.setups) < setups:  # left over when a slow op ran past the schedule
        setup_s, numpy_loaded = bench.setup()
        out.add_setup(setup_s, scale, numpy_loaded)
    out.finish()
    return out


def quantile_ns(sorted_ns, q):
    """Nearest-rank quantile, and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1], len(sorted_ns) - rank


def end_to_end(phase, peak_rss_mb):
    """The metrics at reference host speed, their sample counts, and unscaled setup_s and ops_per_s."""
    p50, p90 = phase.latency_ms()
    metrics = {
        "setup_s": {"value": statistics.median(phase.setups), "unit": "s"},
        "ops_per_s": {"value": phase.ops_per_s(), "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    raw = {"setup_s": statistics.median(phase.unscaled_setups), "ops_per_s": phase.unscaled_ops_per_s()}
    samples = {
        "setup_s": len(phase.setups), "ops_per_s": phase.attempted, "latency_p50_ms": phase.attempted,
        "latency_p90_ms": phase.attempted, "latency_windows": phase.windows,
        "latency_p90_beyond": quantile_ns(range(min(phase.attempted, WINDOW_OPS)), 0.9)[1], "peak_rss_mb": 1,
    }
    return metrics, samples, raw


def imports_layer(workload, bench, setup_numpy, box):
    """Interpreter floor, -X importtime breakdown and numpy-loaded share."""
    floor = []
    for _ in range(5):
        t0 = time.perf_counter()
        python("-c", "pass")
        floor.append((time.perf_counter() - t0) * 1e3)
    if workload == "cli-cold":
        # One pass per subcommand, on the first op of each in the stream.
        firsts = {}
        for kind, argv in bench.stream():
            firsts.setdefault(argv[0], argv)
            if len(firsts) == 8:
                break
        passes = [["-m", "edgeperf.cli", *argv] for argv in firsts.values()]
        loaded = box.numpy_flags
    else:
        passes = [["-c", "import edgeperf"]] * 3
        loaded = setup_numpy
    numpy_ms, edgeperf_ms = [], []
    for argv in passes:
        tree = tracing.parse_importtime(python("-X", "importtime", *argv).stderr)
        if "numpy" in tree:
            numpy_ms.append(tree["numpy"] / 1e3)
        edgeperf_ms.append(tree.get("edgeperf", 0) / 1e3)
    return {
        "interpreter_ms": statistics.median(floor),
        "numpy_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
        "edgeperf_ms": statistics.median(edgeperf_ms),
        "numpy_loaded_share": sum(loaded) / len(loaded) if loaded else 0.0,
    }


def git_commit():
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy

    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": git_commit(), "seed": seed,
    }


def pin_to_one_cpu():
    """Keep the harness and every process it starts on one CPU.

    The CPUs of a shared host change speed independently of each other, so
    the calibration must run on the CPU that runs the ops, CLI processes and
    set-ups included.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibration_info(samples):
    ms = sorted(v / 1e6 for v in samples)
    return {"samples": len(ms), "mean_ms": statistics.fmean(ms), "p10_ms": ms[len(ms) // 10],
            "p90_ms": ms[(9 * len(ms)) // 10]}


def run_workload(workload, seed, seconds, trace):
    pin_to_one_cpu()
    shipped = wl.Shipped()
    ep = import_edgeperf()
    box = types.SimpleNamespace(tracer=None, import_ns=0, numpy_flags=[])
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        bench = make_bench(workload, seed, ep, shipped, workdir, box)
        bench.setup = setup_runner(workload, shipped)
        if workload != "cli-cold":
            bench.run(warmup_op(workload, shipped))  # untimed, as in the set-up probes
        if not trace:
            phase = measure(bench, seconds, min_ops=MIN_OPS, setups=SETUPS)
            if workload == "cli-cold":
                peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, samples, raw = end_to_end(phase, peak_kb / 1024)
            phases = [phase]
            extra = {"unscaled": raw, "calibration": calibration_info(phase.calibration)}
        else:
            plain = measure(bench, seconds / 2, setups=3)
            box.tracer = tracing.Tracer(ep.EdgeperfError)
            if workload != "cli-cold":
                box.tracer.install(modules_of(ep), tracing.LIBRARY)
            try:
                traced = measure(bench, seconds / 2, traced=True, tracer_box=box)
            finally:
                box.tracer.uninstall()
            imports = imports_layer(workload, bench, plain.setup_numpy, box)
            layer_extra = {"import": box.import_ns} if workload == "cli-cold" else {}
            summary, layers = tracing.summarize(box.tracer, traced.busy_ns, layer_extra)
            # Both phases replay the same op stream; compare them on their common
            # ops, each at reference host speed.
            k = min(plain.attempted, traced.attempted, PhaseResult.HEAD)
            overhead = 1.0 - sum(plain.head[:k]) / sum(traced.head[:k])
            metrics = tracing.per_layer_metrics(summary, layers, traced.busy_ns, imports, overhead)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            box.tracer.write_csv(out_dir / f"spans-{workload}.csv")
            samples = {"untraced_ops": plain.attempted, "traced_ops": traced.attempted,
                       "spans": len(box.tracer.name)}
            extra = {**tracing.top_self(summary, layers),
                     "layer_self_ms": {k: v / 1e6 for k, v in layers.items()}}
            phases = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    mix = {}
    for p in phases:
        for k, n in p.kinds.items():
            mix[k] = mix.get(k, 0) + n
    info = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "samples": samples, "failed_share": failed / attempted,
        "op_mix": {k: v / attempted for k, v in sorted(mix.items())},
        "env": environment(seed), **extra,
    }
    failures = [f for p in phases for f in p.failures]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, info, failures


def report(result, info, failures):
    print(f"perfbench {info['workload']} seed={info['env']['seed']} seconds={info['seconds']} trace={info['trace']}")
    samples = info["samples"]
    for name, m in result["metrics"].items():
        n = f"  ({samples[name]} samples)" if name in samples else ""
        if name == "latency_p90_ms":
            n = (f"  ({samples[name]} samples in {samples['latency_windows']} windows, "
                 f"at least {samples['latency_p90_beyond']} beyond each window's p90)")
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{n}")
    print(f"  {'failed_share':44s} {info['failed_share']:14.6g} ({result['failed']} of {result['attempted']} ops)")
    if "unscaled" in info:
        cal = info["calibration"]
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items())
        print(f"  unscaled: {unscaled}")
        print(f"  calibration: mean {cal['mean_ms']:.4g} ms over {cal['samples']} samples, "
              f"reference {REFERENCE_CALIBRATION_NS / 1e6:g} ms")
    if "top_self_layer" in info:
        print(f"  top self time: layer {info['top_self_layer']}, function {info['top_self_function']}")
    for reason in failures:
        print(f"  failure: {reason}", file=sys.stderr)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# --all
# ---------------------------------------------------------------------------

def run_all(seed, seconds, trace):
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=run_limit_s(seconds) + 30,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        info = json.loads(next(l for l in lines if l.startswith("perfbench-info "))[len("perfbench-info "):])
        results[workload] = {"result": json.loads(lines[-1]), "info": info}
    env = next(iter(results.values()))["info"]["env"]
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  commit {env['commit']}  seed {seed}  seconds {seconds}")
    print(f"{'workload':14s} {'metric':44s} {'value':>14s} {'unit':6s} samples")
    for workload, r in results.items():
        samples = r["info"]["samples"]
        for name, m in r["result"]["metrics"].items():
            n = samples.get(name, samples.get("traced_ops", ""))
            extra = ""
            if name.startswith("latency_p"):
                extra = f" in {samples['latency_windows']} windows, >= {samples['latency_p90_beyond']} beyond each p90"
            print(f"{workload:14s} {name:44s} {m['value']:14.6g} {m['unit']:6s} {n}{extra}")
        print(f"{workload:14s} {'failed_share':44s} {r['info']['failed_share']:14.6g} {'share':6s} {r['result']['attempted']}")
        if trace:
            print(f"{workload:14s} {'top self-time layer, function':44s} {r['info']['top_self_layer']}, {r['info']['top_self_function']}")
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


def _stop_run(signum, frame):
    # SystemExit passes the per-op ``except Exception`` and ends the run with
    # status 1 and no result; subprocess.run kills and reaps a running child.
    raise SystemExit("perfbench: run exceeded its time limit")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    args = parser.parse_args(argv)
    if not (SRC / "edgeperf" / "__init__.py").is_file():
        print(f"perfbench: no edgeperf sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload is required without --all")
    signal.signal(signal.SIGALRM, _stop_run)
    signal.alarm(run_limit_s(args.seconds))
    result, info, failures = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)
    report(result, info, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
