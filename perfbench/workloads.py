"""Seeded op generators for the four benchmark workloads.

Generators read only the shipped data (``profiles.json``, the config table and
the measurement CSVs) and a ``random.Random(seed)``; the same seed yields the
same op sequence. The ops run through the executors in ``ops.py``.

Every workload is a closed loop with one client: the next op is generated only
after the previous one finished. Op kinds come in shuffled blocks with fixed
quotas, and fit and frontier sizes follow a per-kind low-discrepancy sequence
(``_Sizes``), so that the mix of a run hardly depends on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from reference import (
    CONFIG_HEADER,
    MEASUREMENT_HEADER,
    decode_latency_ref,
    parse_config_row,
    power_ref,
    energy_model_ref,
    prefill_latency_ref,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "edgeperf" / "data"
MAX_CONTEXT = 8192
UNKNOWN_MODEL = "dsr1-qwen-7b"


class Shipped:
    """The raw shipped data, parsed with the standard library only."""

    def __init__(self, data_dir: Path = DATA):
        doc = json.loads((data_dir / "profiles.json").read_text(encoding="utf-8"))
        self.profiles = {p["id"]: p for p in doc["profiles"]}
        self.table_text = (data_dir / "mmlu_redux_configs.csv").read_text(encoding="utf-8")
        self.table = [parse_config_row(r) for r in list(csv.reader(self.table_text.splitlines()))[1:] if r]
        self.measurements = {
            p.name: p.read_text(encoding="utf-8")
            for p in sorted((data_dir / "measurements").glob("*.csv"))
        }
        # Models with latency coefficients; the -w4 ones have none.
        self.timed = sorted(i for i, p in self.profiles.items() if "decode_latency" in p)
        self.untimed = sorted(i for i, p in self.profiles.items() if "decode_latency" not in p)
        latencies = [r[5] for r in self.table if r[5] is not None]
        self.lat_lo, self.lat_hi = min(latencies), max(latencies)
        # Per-model latency budgets span that model's rows of the table.
        self.budgets = {}
        for model in self.profiles:
            own = [r[5] for r in self.table if r[0] == model and r[5] is not None]
            self.budgets[model] = (min(own), max(own)) if len(own) >= 2 else (self.lat_lo, self.lat_hi)
        costs = [r[6] for r in self.table if r[6] is not None and r[6] > 0]
        self.cost_lo, self.cost_hi = min(costs), max(costs)
        self.avg_tokens = [r[4] for r in self.table]


def config_csv(rows) -> str:
    out = [",".join(CONFIG_HEADER)]
    for r in rows:
        out.append(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in r))
    return "\n".join(out) + "\n"


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _logint(rng, lo, hi):
    return min(hi, max(lo, int(round(_loguniform(rng, lo, hi)))))


def _noise(rng, sigma=0.03):
    return math.exp(rng.gauss(0.0, sigma))


def _kinds(rng, quotas):
    """Endless shuffled blocks holding each kind ``count`` times."""
    block = [kind for kind, count in quotas for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


class _Sizes:
    """Per-kind size draws in [0, 1): a golden-ratio sequence from a seeded start.

    Any stretch of consecutive draws covers [0, 1) evenly, whatever its
    length, so the latency quantiles of a run hardly depend on the seed even
    where op time grows steeply with size (frontier: n^2 over n = 29..2000).
    """

    STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng, kinds):
        self.next = {kind: rng.random() for kind in kinds}

    def draw(self, kind):
        u = self.next[kind]
        self.next[kind] = (u + self.STEP) % 1.0
        return u


def heavy_output_len(rng, shipped, input_len):
    """Heavy-tailed output length around the table's per-question averages."""
    base = rng.choice(shipped.avg_tokens)
    o = int(round(base * math.exp(rng.gauss(0.0, 1.0))))
    return min(max(o, 1), MAX_CONTEXT - input_len)


# ---------------------------------------------------------------------------
# budget-sweep
# ---------------------------------------------------------------------------

def budget_sweep_ops(seed, shipped):
    """Budget queries ``(model, I, B, O, want_total_energy, want_prefill_power)``."""
    rng = random.Random(seed)
    while True:
        u = rng.random()
        model = rng.choice(shipped.untimed if u < 0.04 else shipped.timed)
        prof = shipped.profiles[model]
        input_len = _logint(rng, 16, 4096)
        output_len = heavy_output_len(rng, shipped, input_len)
        lo, hi = shipped.budgets[model]
        if u < 0.04:
            budget = _loguniform(rng, lo, hi)
        elif u < 0.08:
            budget = prefill_latency_ref(prof, input_len) * rng.uniform(0.3, 0.95)
        else:
            budget = _loguniform(rng, max(lo, 1.05 * prefill_latency_ref(prof, input_len)), hi)
        joules = prof.get("prefill_energy", {}).get("unit") == "joules_per_token"
        yield (model, input_len, budget, output_len, joules, "prefill_power" in prof)


# ---------------------------------------------------------------------------
# fit-batch
# ---------------------------------------------------------------------------

FIT_QUOTAS = [
    ("prefill-latency", 5),
    ("decode-latency", 5),
    ("log-curve", 5),
    ("exp-decay", 7),
    ("piecewise-power", 8),
    ("piecewise-energy", 10),
]
FIT_MIN_POINTS, FIT_MAX_POINTS = 8, 60
LATENCY_SOURCE = "dsr1-qwen-1.5b"  # gives every curve row a positive latency_s


class FitOp:
    """One fit job: CSV text, the fit kind, and the truth it was drawn from."""

    __slots__ = ("kind", "model", "text", "rows", "section", "phase", "field")

    def __init__(self, kind, model, rows, section, phase, field):
        self.kind, self.model, self.rows = kind, model, rows
        self.section, self.phase, self.field = section, phase, field
        self.text = measurement_csv(rows)


def measurement_csv(rows) -> str:
    out = [",".join(MEASUREMENT_HEADER)]
    for phase, i, o, latency, power, energy in rows:
        cells = [phase, str(i), str(o), repr(latency)]
        cells += ["" if v is None else repr(v) for v in (power, energy)]
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _curve_rows(rng, shipped, phase, field, xs, truth):
    src = shipped.profiles[LATENCY_SOURCE]
    rows = []
    for x in xs:
        y = truth(x) * _noise(rng)
        if phase == "prefill":
            latency = prefill_latency_ref(src, x) * _noise(rng)
            i, o = x, 0
        else:
            i = _logint(rng, 16, 1024)
            latency = (prefill_latency_ref(src, i) + decode_latency_ref(src, i, x)) * _noise(rng)
            o = x
        power, energy = (y, None) if field == "power" else (None, y)
        rows.append((phase, i, o, latency, power, energy))
    return rows


def _split_xs(rng, n, lo, threshold, hi, min_left):
    """Points on both sides of a breakpoint: left in [lo, threshold], right above."""
    n_left = min(max(min_left, round(n * rng.uniform(0.3, 0.6))), n - 4)
    while True:
        left = [_logint(rng, lo, threshold) for _ in range(n_left)]
        right = [_logint(rng, threshold + 1, hi) for _ in range(n - n_left)]
        if len(set(right)) >= 2:
            return left + right


def _fit_op(rng, shipped, kind, n):
    profiles = shipped.profiles
    if kind in ("prefill-latency", "decode-latency"):
        model = rng.choice(shipped.timed)
        prof = profiles[model]
        if kind == "prefill-latency":
            # About a fifth of the rows are off the 64 grid, which the fit skips;
            # the rest span at least three padded lengths.
            while True:
                lens = [64 * rng.randint(1, 64) for _ in range(n)]
                lens = [i if rng.random() < 0.8 else i - rng.randint(1, 63) for i in lens]
                if len({-(-i // 128) for i in lens if i % 64 == 0}) >= 3:
                    break
            rows = [("prefill", i, 0, prefill_latency_ref(prof, i) * _noise(rng), None, None) for i in lens]
            return FitOp(kind, model, rows, "prefill_latency", "prefill", "latency")
        rows = []
        for _ in range(n):
            i = _logint(rng, 16, 4096)
            o = _logint(rng, 1, MAX_CONTEXT - i)
            rows.append(("decode", i, o, decode_latency_ref(prof, i, o) * _noise(rng), None, None))
        return FitOp(kind, model, rows, "decode_latency", "decode", "latency")

    if kind == "log-curve":
        # Log-only decode energy curves that stay positive over the x range.
        eligible = [
            m for m, p in sorted(profiles.items())
            if all(energy_model_ref(p["decode_energy"], x) > 0 for x in (8, MAX_CONTEXT))
        ]
        model = rng.choice(eligible)
        sec = profiles[model]["decode_energy"]
        while True:
            xs = [_logint(rng, 8, MAX_CONTEXT - 1024) for _ in range(n)]
            if len(set(xs)) >= 2:
                break
        rows = _curve_rows(rng, shipped, "decode", "energy", xs, lambda x: energy_model_ref(sec, x))
        return FitOp(kind, model, rows, "decode_energy", "decode", "energy")

    if kind == "exp-decay":
        model = rng.choice(sorted(profiles))
        sec = profiles[model]["prefill_energy"]
        top = int(sec["threshold"]) if sec.get("threshold") is not None else 512
        xs = [_logint(rng, 1, top) for _ in range(n)]
        rows = _curve_rows(rng, shipped, "prefill", "energy", xs, lambda x: energy_model_ref(sec, x))
        return FitOp(kind, model, rows, "prefill_energy", "prefill", "energy")

    if kind == "piecewise-power":
        model = rng.choice(sorted(profiles))
        sec = profiles[model]["decode_power"]
        threshold = int(sec["threshold"])
        xs = _split_xs(rng, n, 1, threshold - 1, MAX_CONTEXT, 4)
        rows = _curve_rows(rng, shipped, "decode", "power", xs, lambda x: power_ref(sec, x, inclusive=False))
        return FitOp(kind, model, rows, "decode_power", "decode", "power")

    model = rng.choice([m for m, p in sorted(profiles.items()) if p["prefill_energy"].get("threshold")])
    sec = profiles[model]["prefill_energy"]
    xs = _split_xs(rng, n, 1, int(sec["threshold"]), MAX_CONTEXT, 5)
    rows = _curve_rows(rng, shipped, "prefill", "energy", xs, lambda x: energy_model_ref(sec, x))
    return FitOp(kind, model, rows, "prefill_energy", "prefill", "energy")


def fit_batch_ops(seed, shipped):
    rng = random.Random(seed)
    sizes = _Sizes(rng, dict(FIT_QUOTAS))
    span = FIT_MAX_POINTS - FIT_MIN_POINTS + 1
    for kind in _kinds(rng, FIT_QUOTAS):
        n = FIT_MIN_POINTS + int(span * sizes.draw(kind))
        yield _fit_op(rng, shipped, kind, n)


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

FRONTIER_QUOTAS = [("three", 13), ("two", 7)]
FRONTIER_MIN_ROWS, FRONTIER_MAX_ROWS = 29, 2000
OBJECTIVE_PAIRS = (("accuracy", "latency"), ("accuracy", "cost"), ("latency", "cost"))


class FrontierOp:
    __slots__ = ("rows", "text", "objectives", "max_latency", "max_cost")

    def __init__(self, rows, objectives, max_latency, max_cost):
        self.rows, self.objectives = rows, objectives
        self.max_latency, self.max_cost = max_latency, max_cost
        self.text = config_csv(rows)


def config_rows(rng, shipped, n):
    """Perturbed copies of the shipped table, with seeded exact duplicates.

    About 5% of rows repeat an earlier row outright (the frontier keeps one),
    and about 5% repeat an earlier row's objective values under another model
    or technique (exact ties, which never dominate each other).
    """
    rows = []
    for _ in range(n):
        u = rng.random()
        if rows and u < 0.05:
            rows.append(rng.choice(rows))
            continue
        if rows and u < 0.10:
            other = rng.choice(shipped.table)
            row = rng.choice(rows)
            rows.append((other[0], other[1], other[2]) + row[3:])
            continue
        model, tech, budget, acc, tokens, latency, cost, _ = rng.choice(shipped.table)
        acc = min(100.0, round(acc * rng.uniform(0.85, 1.15), 1))
        tokens = round(tokens * rng.uniform(0.8, 1.2), 1)
        if latency is not None and rng.random() > 0.03:
            latency = max(0.001, float(f"{latency * math.exp(rng.gauss(0, 0.25)):.4g}"))
        else:
            latency = None
        if cost is not None and rng.random() > 0.03:
            cost = float(f"{cost * math.exp(rng.gauss(0, 0.25)):.3g}")
        else:
            cost = None
        scale = rng.choice((2, 4, 8)) if rng.random() < 0.1 else 1
        rows.append((model, tech, budget, acc, tokens, latency, cost, scale))
    return rows


def frontier_ops(seed, shipped):
    rng = random.Random(seed)
    sizes = _Sizes(rng, dict(FRONTIER_QUOTAS))
    lo, hi = math.log(FRONTIER_MIN_ROWS), math.log(FRONTIER_MAX_ROWS)
    for kind in _kinds(rng, FRONTIER_QUOTAS):
        n = int(round(math.exp(lo + (hi - lo) * sizes.draw(kind))))
        objectives = ("accuracy", "latency", "cost") if kind == "three" else rng.choice(OBJECTIVE_PAIRS)
        yield FrontierOp(
            config_rows(rng, shipped, n),
            objectives,
            _loguniform(rng, shipped.lat_lo, shipped.lat_hi),
            _loguniform(rng, shipped.cost_lo, shipped.cost_hi),
        )


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_QUOTAS = [
    ("predict", 6),
    ("predict-unknown", 1),
    ("invert", 6),
    ("invert-infeasible", 1),
    ("cost", 6),
    ("vote", 6),
    ("list-models", 3),
    ("plan-max-cost", 3),
    ("plan-max-latency", 3),
    ("plan-pareto", 3),
    ("validate", 6),
    ("fit", 6),
]
CLI_TABLES = 3  # generated config tables written at set-up, 29-100 rows each
CLI_WARMUP = ["predict", "--model", "dsr1-qwen-14b", "--input", "512", "--output", "128"]


def cli_files(seed, shipped):
    """The files cli-cold ops read, by name: config tables and measurement CSVs."""
    rng = random.Random(f"cli-files-{seed}")
    files = {f"table-{t}.csv": config_csv(config_rows(rng, shipped, rng.randint(29, 100))) for t in range(CLI_TABLES)}
    files.update(shipped.measurements)
    return files


def cli_ops(seed, shipped, files, workdir):
    """CLI argument vectors; file arguments are paths under ``workdir``."""
    rng = random.Random(seed)
    tables = sorted(n for n in files if n.startswith("table-"))
    data = sorted(n for n in files if not n.startswith("table-"))
    with_decode = [n for n in data if "\ndecode," in files[n]]
    for kind in _kinds(rng, CLI_QUOTAS):
        yield kind, _cli_argv(rng, shipped, kind, tables, data, with_decode, workdir)


def _cli_argv(rng, shipped, kind, tables, data, with_decode, workdir):
    if kind in ("predict", "predict-unknown"):
        model = UNKNOWN_MODEL if kind == "predict-unknown" else rng.choice(shipped.timed)
        i = _logint(rng, 16, 4096)
        return ["predict", "--model", model, "--input", str(i), "--output", str(heavy_output_len(rng, shipped, i))]
    if kind in ("invert", "invert-infeasible"):
        model = rng.choice(shipped.timed)
        prof = shipped.profiles[model]
        i = _logint(rng, 16, 4096)
        pre = prefill_latency_ref(prof, i)
        lo, hi = shipped.budgets[model]
        if kind == "invert":
            budget = _loguniform(rng, max(lo, 1.05 * pre), hi)
        else:
            budget = pre * rng.uniform(0.3, 0.95)
        return ["invert", "--model", model, "--input", str(i), "--budget", repr(budget)]
    if kind == "cost":
        argv = [
            "cost",
            "--tokens", str(_logint(rng, 1000, 1_000_000)),
            "--duration", repr(_loguniform(rng, 1.0, 1e4)),
            "--energy-kwh", repr(_loguniform(rng, 1e-4, 1.0)),
        ]
        if rng.random() < 0.5:
            argv += ["--electricity", repr(rng.uniform(0.05, 0.4)), "--hardware-rate", repr(rng.uniform(0.01, 0.1))]
        return argv
    if kind == "vote":
        return ["vote"] + [rng.choice("ABCDE") for _ in range(rng.randint(1, 9))]
    if kind == "list-models":
        return ["list-models"]
    if kind.startswith("plan"):
        argv = ["plan"]
        table = rng.choice([None] + tables)
        if table is not None:
            argv += ["--table", f"{workdir}/{table}"]
        if kind == "plan-max-cost":
            return argv + ["--max-cost", repr(_loguniform(rng, shipped.cost_lo, shipped.cost_hi))]
        if kind == "plan-max-latency":
            return argv + ["--max-latency", repr(_loguniform(rng, shipped.lat_lo, shipped.lat_hi))]
        objectives = ("accuracy", "latency", "cost") if rng.random() < 0.65 else rng.choice(OBJECTIVE_PAIRS)
        return argv + ["--pareto", ",".join(objectives)]
    if kind == "validate":
        return ["validate", "--model", rng.choice(shipped.timed), "--data", f"{workdir}/{rng.choice(data)}"]
    fit_kind = rng.choice(("prefill-latency", "decode-latency"))
    name = rng.choice(data if fit_kind == "prefill-latency" else with_decode)
    return ["fit", "--kind", fit_kind, "--data", f"{workdir}/{name}"]
