"""Independent references and output checks for the benchmark workloads.

Nothing here calls edgeperf. Closed forms are recomputed from the raw
``profiles.json`` numbers, decode energy is the definitional per-token sum,
frontiers are brute force over the documented dominance, tie and ordering
rules, CLI fits are solved in exact rational arithmetic, and fits are judged
by their SSE against the coefficients that generated the data.

Each ``check_*`` function returns ``None`` for a correct result and a short
reason otherwise. Apart from numpy in :func:`frontier_ref`, which is imported
on first use, this module is standard library only.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from fractions import Fraction

CONFIG_HEADER = [
    "model_id", "technique", "token_budget", "accuracy_pct",
    "avg_tokens", "latency_s", "cost_per_mtok", "scaling_factor",
]
MEASUREMENT_HEADER = ["phase", "input_len", "output_len", "latency_s", "power_w", "energy_j"]
PAD = 128
REL = 1e-12  # relative tolerance for values the reference recomputes


def close(got, want, rel=REL) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= rel * max(abs(got), abs(want))


# ---------------------------------------------------------------------------
# Closed forms from the raw profile JSON
# ---------------------------------------------------------------------------

def _threshold(sec) -> float:
    t = sec.get("threshold")
    return math.inf if t is None or t == "inf" else float(t)


def _log(sec, x):
    return math.log10(x) if sec.get("log10") else math.log(x)


def prefill_latency_ref(prof, input_len):
    c = prof["prefill_latency"]
    ipad = -(-input_len // PAD) * PAD
    return float(c["a"]) * ipad * ipad + float(c["b"]) * ipad + float(c["c"])


def decode_latency_ref(prof, input_len, output_len):
    c = prof["decode_latency"]
    o = output_len
    return float(c["n"]) * o + float(c["m"]) * (input_len * o + o * (o - 1) / 2)


def total_latency_ref(prof, input_len, output_len):
    return prefill_latency_ref(prof, input_len) + decode_latency_ref(prof, input_len, output_len)


def power_ref(sec, x, inclusive=True):
    """Piecewise power; decode uses the exclusive threshold convention."""
    t = _threshold(sec)
    if (x <= t) if inclusive else (x < t):
        return float(sec["floor_watts"])
    return float(sec["log_alpha"]) * _log(sec, x) + float(sec["log_beta"])


def energy_model_ref(sec, x):
    """Piecewise energy: exponential decay up to the threshold, log beyond."""
    if x <= _threshold(sec):
        return float(sec["exp_A"]) * math.exp(-float(sec["exp_lambda"]) * x) + float(sec["exp_C"])
    return float(sec["log_alpha"]) * _log(sec, x) + float(sec["log_beta"])


def invert_ref(prof, input_len, budget):
    """Largest k with total(k) <= budget, by doubling then integer bisection."""
    lo, hi = 0, 1
    while total_latency_ref(prof, input_len, hi) <= budget:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total_latency_ref(prof, input_len, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


class DecodeEnergyRef:
    """Per-token decode energy sum_{p=1..O} P(p) * TBT(I + p - 1).

    With TBT linear in the context, the sum splits into (m*I + n) * S0(O) +
    m * S1(O), where S0 and S1 are prefix sums of P(p) and P(p) * (p - 1).
    They are accumulated once per profile with Neumaier compensation, so a
    query costs O(1) and stays within a few ulps of the exact sum.
    """

    def __init__(self, prof, max_len):
        self.m = float(prof["decode_latency"]["m"])
        self.n = float(prof["decode_latency"]["n"])
        sec = prof["decode_power"]
        self.s0 = [0.0] * (max_len + 1)
        self.s1 = [0.0] * (max_len + 1)
        s0 = c0 = s1 = c1 = 0.0
        for p in range(1, max_len + 1):
            w = power_ref(sec, p, inclusive=False)
            s0, c0 = _neumaier(s0, c0, w)
            s1, c1 = _neumaier(s1, c1, w * (p - 1))
            self.s0[p] = s0 + c0
            self.s1[p] = s1 + c1

    def __call__(self, input_len, output_len):
        return (self.m * input_len + self.n) * self.s0[output_len] + self.m * self.s1[output_len]


def _neumaier(total, comp, x):
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def decode_energy_direct(prof, input_len, output_len):
    """The per-token sum written out; the self-tests hold DecodeEnergyRef to it."""
    m, n = float(prof["decode_latency"]["m"]), float(prof["decode_latency"]["n"])
    sec = prof["decode_power"]
    return math.fsum(
        power_ref(sec, p, inclusive=False) * (m * (input_len + p - 1) + n)
        for p in range(1, output_len + 1)
    )


# ---------------------------------------------------------------------------
# budget-sweep
# ---------------------------------------------------------------------------

class BudgetChecker:
    def __init__(self, profiles, max_len):
        self.profiles = profiles
        self.energy = {
            i: DecodeEnergyRef(p, max_len)
            for i, p in profiles.items()
            if "decode_latency" in p and "decode_power" in p
        }

    def expected_error(self, op):
        model, input_len, budget = op[:3]
        prof = self.profiles[model]
        if "decode_latency" not in prof or "prefill_latency" not in prof:
            return "MissingCoefficient"
        if budget < prefill_latency_ref(prof, input_len):
            return "InfeasibleBudget"
        return None

    def check(self, op, result):
        model, input_len, budget, output_len, want_total, want_power = op
        prof = self.profiles[model]
        expected = self.expected_error(op)
        if expected or result[0] == "error":
            got = result[1] if result[0] == "error" else "a result"
            return None if got == expected else f"expected {expected or 'a result'}, got {got}"
        k, total, decode_j, total_j, watts = result
        if not isinstance(k, int) or k < 0:
            return f"token budget {k!r} is not a count"
        if not total_latency_ref(prof, input_len, k) <= budget:
            return f"total({k}) exceeds the budget"
        if not budget < total_latency_ref(prof, input_len, k + 1):
            return f"total({k + 1}) still fits the budget"
        o = min(output_len, k)
        if not close(total, total_latency_ref(prof, input_len, o)):
            return "total latency differs from the closed form"
        energy = self.energy[model](input_len, o)
        if not close(decode_j, energy):
            return "decode energy differs from the per-token sum"
        if want_total:
            prefill_j = energy_model_ref(prof["prefill_energy"], input_len) * input_len
            if not close(total_j, prefill_j + energy):
                return "total energy differs from prefill plus decode joules"
        elif total_j is not None:
            return "total energy computed for a profile without joules"
        want_watts = power_ref(prof["prefill_power"], input_len) if want_power else None
        if not close(watts, want_watts):
            return "prefill power differs from the piecewise model"
        return None


# ---------------------------------------------------------------------------
# fit-batch
# ---------------------------------------------------------------------------

def _ipad(i):
    return -(-i // PAD) * PAD


def fit_points(op):
    """(x, y) points the fit should use, as (features..., y) tuples."""
    rows = op.rows
    if op.kind == "prefill-latency":
        return [(_ipad(i), lat) for ph, i, o, lat, _, _ in rows if ph == "prefill" and i % 64 == 0]
    if op.kind == "decode-latency":
        return [(i, o, lat) for ph, i, o, lat, _, _ in rows if ph == "decode" and o > 0]
    pts = []
    for ph, i, o, lat, power, energy in rows:
        y = power if op.field == "power" else energy
        if ph == op.phase and y is not None:
            pts.append((float(i if ph == "prefill" else o), float(y)))
    if op.kind == "log-curve":
        pts = [p for p in pts if p[0] >= 1.0]
    return pts


def _model_fn(kind, c):
    """Evaluate fitted coefficients; piecewise fits put x <= threshold left."""
    if kind == "prefill-latency":
        return lambda x: c.a * x * x + c.b * x + c.c
    if kind == "decode-latency":
        return lambda i, o: c.n * o + c.m * (i * o + o * (o - 1) / 2)
    if kind == "log-curve":
        return lambda x: c.log_alpha * math.log(x) + c.log_beta
    if kind == "exp-decay":
        return lambda x: c.exp_A * math.exp(-c.exp_lambda * x) + c.exp_C
    if kind == "piecewise-power":
        return lambda x: c.floor_watts if x <= c.threshold else c.log_alpha * math.log(x) + c.log_beta
    return lambda x: (
        c.exp_A * math.exp(-c.exp_lambda * x) + c.exp_C
        if x <= c.threshold
        else c.log_alpha * math.log(x) + c.log_beta
    )


def _truth_fn(op, profiles):
    prof = profiles[op.model]
    if op.kind == "prefill-latency":
        c = prof["prefill_latency"]
        return lambda x: float(c["a"]) * x * x + float(c["b"]) * x + float(c["c"])
    if op.kind == "decode-latency":
        return lambda i, o: decode_latency_ref(prof, i, o)
    sec = prof[op.section]
    if op.kind == "piecewise-power":
        return lambda x: power_ref(sec, x, inclusive=False)
    return lambda x: energy_model_ref(sec, x)


def _sse(fn, pts):
    return math.fsum((fn(*p[:-1]) - p[-1]) ** 2 for p in pts)


def check_fit(op, result, profiles):
    n_records, fit, score = result
    if n_records != len(op.rows):
        return f"parsed {n_records} rows of {len(op.rows)}"
    pts = fit_points(op)
    if fit.points_used != len(pts):
        return f"fit used {fit.points_used} points, expected {len(pts)}"
    sse = fit.residual_sse
    recomputed = _sse(_model_fn(op.kind, fit.coefficients), pts)
    # An exact fit leaves only rounding, so the tolerance has a floor at the data's scale.
    roundoff = 1e-20 * math.fsum(p[-1] ** 2 for p in pts)
    if not abs(sse - recomputed) <= 1e-9 * max(sse, recomputed) + roundoff:
        return "reported SSE differs from the SSE of the fitted coefficients"
    truth = _sse(_truth_fn(op, profiles), pts)
    if not sse <= truth * (1 + 1e-9):
        return f"fitted SSE {sse:.6g} worse than the generating coefficients' {truth:.6g}"
    if op.kind in ("prefill-latency", "decode-latency"):
        fn = _model_fn(op.kind, fit.coefficients)
        errors = [abs(fn(*p[:-1]) - p[-1]) / abs(p[-1]) for p in pts]
        if not close(score, 100.0 * math.fsum(errors) / len(errors)):
            return "MAPE differs from the mean absolute percentage error"
    elif score is not None:
        return "MAPE computed for a non-latency fit"
    return None


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

OBJECTIVES = ("accuracy", "latency", "cost")
_FIELD = {"accuracy": 3, "latency": 5, "cost": 6}


def point_tuple(p):
    if p is None:
        return None
    return (p.model_id, p.technique.value, p.token_budget, p.accuracy,
            p.avg_tokens, p.latency, p.cost, p.scaling_factor)


def frontier_ref(rows, objectives):
    """Brute-force frontier over config-row tuples.

    Rules: rows missing an objective are skipped; accuracy is maximised and
    the rest minimised; a row is dominated by any row at least as good in
    every objective and better in one, so exact ties never dominate; rows
    repeating (model, technique, objective values, token budget, scaling
    factor) are kept once, first occurrence first; the result is sorted
    stably by latency (absent last), then accuracy descending, then model id.
    """
    import numpy as np

    objs = [o for o in OBJECTIVES if o in set(objectives)]
    scored = []
    for r in rows:
        vec = tuple(-r[3] if o == "accuracy" else r[_FIELD[o]] for o in objs)
        if None not in vec:
            scored.append((r, vec))
    if not scored:
        return []
    values = np.array([v for _, v in scored], dtype=np.float64)
    dominated = np.zeros(len(scored), dtype=bool)
    for s in range(0, len(scored), 128):
        cand = values[s:s + 128, None, :]
        weakly = (values[None, :, :] <= cand).all(axis=2)
        strictly = (values[None, :, :] < cand).any(axis=2)
        dominated[s:s + 128] = (weakly & strictly).any(axis=1)
    out, seen = [], set()
    for (r, vec), dom in zip(scored, dominated):
        key = (r[0], r[1], vec, r[2], r[7])
        if dom or key in seen:
            continue
        seen.add(key)
        out.append(r)
    out.sort(key=lambda r: (math.inf if r[5] is None else r[5], -r[3], r[0]))
    return out


def best_ref(rows, field, limit):
    """Highest accuracy within the limit; ties: latency, cost, model id, first."""
    idx = _FIELD[field]
    feasible = [r for r in rows if r[idx] is not None and r[idx] <= limit]
    if not feasible:
        return None
    inf = math.inf
    return min(feasible, key=lambda r: (-r[3], inf if r[5] is None else r[5], inf if r[6] is None else r[6], r[0]))


def check_frontier(op, result):
    n, frontier, fastest, cheapest = result
    if n != len(op.rows):
        return f"parsed {n} rows of {len(op.rows)}"
    if [point_tuple(p) for p in frontier] != frontier_ref(op.rows, op.objectives):
        return "frontier differs from the brute-force frontier"
    if point_tuple(fastest) != best_ref(op.rows, "latency", op.max_latency):
        return "best_under_latency differs"
    if point_tuple(cheapest) != best_ref(op.rows, "cost", op.max_cost):
        return "best_under_cost differs"
    return None


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    """The CLI's text format: 6 significant digits for floats."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _line(pairs) -> str:
    return " ".join(f"{k}={fmt(v)}" for k, v in pairs if v is not None)


def _point_line(r) -> str:
    keys = ("model_id", "technique", "token_budget", "accuracy", "avg_tokens", "latency", "cost", "scaling_factor")
    return _line(zip(keys, r))


def _args(argv):
    """--flag value pairs of an argument vector (the CLI takes no repeated flags here)."""
    return {argv[j]: argv[j + 1] for j in range(1, len(argv) - 1) if argv[j].startswith("--")}


def _exact_lstsq(design, y):
    """Least squares by exact normal equations; returns (coef, sse) as Fractions."""
    k = len(design[0])
    gram = [[sum(r[a] * r[b] for r in design) for b in range(k)] for a in range(k)]
    rhs = [sum(r[a] * v for r, v in zip(design, y)) for a in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if gram[r][col] != 0)
        gram[col], gram[piv] = gram[piv], gram[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(k):
            if r != col and gram[r][col] != 0:
                f = gram[r][col] / gram[col][col]
                gram[r] = [a - f * b for a, b in zip(gram[r], gram[col])]
                rhs[r] -= f * rhs[col]
    coef = [rhs[i] / gram[i][i] for i in range(k)]
    sse = sum((sum(c * x for c, x in zip(coef, r)) - v) ** 2 for r, v in zip(design, y))
    return coef, sse


def parse_config_row(row):
    """A config-table CSV row as the tuple the references compare against."""
    return (
        row[0].strip(),
        row[1].strip(),
        int(row[2]) if row[2].strip() else None,
        float(row[3]),
        float(row[4]),
        float(row[5]) if row[5].strip() else None,
        float(row[6]) if row[6].strip() else None,
        int(row[7]) if row[7].strip() else 1,
    )


def _measurement_rows(text):
    rows = []
    for r in list(csv.reader(text.splitlines()))[1:]:
        if r and any(c.strip() for c in r):
            rows.append((r[0].strip(), int(r[1]), int(r[2]) if r[2].strip() else 0, r[3].strip()))
    return rows


class CliReference:
    """Expected (stdout, exit code) of a CLI argument vector."""

    def __init__(self, profiles, default_table, files, workdir):
        self.profiles = profiles
        self.default_table = default_table
        self.files = {f"{workdir}/{name}": text for name, text in files.items()}

    def expected(self, argv):
        cmd, args = argv[0], _args(argv)
        if cmd in ("predict", "invert", "validate") and args["--model"] not in self.profiles:
            return "", 2
        if cmd == "predict":
            prof, i, o = self.profiles[args["--model"]], int(args["--input"]), int(args["--output"])
            pre, dec = prefill_latency_ref(prof, i), decode_latency_ref(prof, i, o)
            return _line([("prefill", pre), ("decode", dec), ("total", pre + dec)]) + "\n", 0
        if cmd == "invert":
            prof, i, budget = self.profiles[args["--model"]], int(args["--input"]), float(args["--budget"])
            if budget < prefill_latency_ref(prof, i):
                return "", 1
            return f"max_output_tokens={invert_ref(prof, i, budget)}\n", 0
        if cmd == "cost":
            millions = int(args["--tokens"]) / 1e6
            energy_cost = float(args["--energy-kwh"]) * float(args.get("--electricity", 0.15)) / millions
            hardware_cost = (float(args["--duration"]) / 3600.0) * float(args.get("--hardware-rate", 0.045)) / millions
            pairs = [("energy_cost", energy_cost), ("hardware_cost", hardware_cost), ("total", energy_cost + hardware_cost)]
            return _line(pairs) + "\n", 0
        if cmd == "vote":
            answers = argv[1:]
            counts = Counter(answers)
            return f"winner={min(counts, key=lambda a: (-counts[a], answers.index(a)))}\n", 0
        if cmd == "list-models":
            return "".join(f"{i}\n" for i in sorted(self.profiles)), 0
        if cmd == "plan":
            return self._plan(args)
        if cmd == "validate":
            return self._validate(args)
        if cmd == "fit":
            return self._fit(args)
        raise ValueError(f"no reference for {cmd!r}")

    def _plan(self, args):
        if "--table" in args:
            lines = list(csv.reader(self.files[args["--table"]].splitlines()))[1:]
            rows = [parse_config_row(r) for r in lines if r]
        else:
            rows = self.default_table
        if "--pareto" in args:
            frontier = frontier_ref(rows, args["--pareto"].split(","))
            return "\n".join(_point_line(r) for r in frontier) + "\n", 0
        if "--max-latency" in args:
            best = best_ref(rows, "latency", float(args["--max-latency"]))
        else:
            best = best_ref(rows, "cost", float(args["--max-cost"]))
        return ("", 1) if best is None else (_point_line(best) + "\n", 0)

    def _validate(self, args):
        prof = self.profiles[args["--model"]]
        pairs = []
        for phase in ("prefill", "decode"):
            errors = []
            for ph, i, o, lat in _measurement_rows(self.files[args["--data"]]):
                if ph != phase:
                    continue
                pred = prefill_latency_ref(prof, i) if phase == "prefill" else decode_latency_ref(prof, i, o)
                errors.append(abs(pred - float(lat)) / abs(float(lat)))
            if errors:
                total = 0.0
                for e in errors:
                    total += e
                pairs.append((f"{phase}_mape", f"{100.0 * (total / len(errors)):.2f}"))
        return _line(pairs) + "\n", 0

    def _fit(self, args):
        rows = _measurement_rows(self.files[args["--data"]])
        if args["--kind"] == "prefill-latency":
            used = [(_ipad(i), lat) for ph, i, o, lat in rows if ph == "prefill" and i % 64 == 0]
            if len({x for x, _ in used}) < 3:
                return "", 1
            design = [[Fraction(x * x), Fraction(x), Fraction(1)] for x, _ in used]
            names, section = ("a", "b", "c"), "prefill_latency"
        else:
            used = [(i, o, lat) for ph, i, o, lat in rows if ph == "decode" and o > 0]
            feats = {(o, i * o + Fraction(o * (o - 1), 2)) for i, o, _ in used}
            if len(feats) < 2:
                return "", 1
            design = [[i * o + Fraction(o * (o - 1), 2), Fraction(o)] for i, o, _ in used]
            names, section = ("m", "n"), "decode_latency"
        coef, sse = _exact_lstsq(design, [Fraction(float(u[-1])) for u in used])
        pairs = [("kind", section)] + [(n, float(c)) for n, c in zip(names, coef)]
        pairs += [("residual_sse", float(sse)), ("points_used", len(used))]
        return _line(pairs) + "\n", 0


def check_cli(expected, code, stdout, stderr):
    want_out, want_code = expected
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if stdout != want_out:
        return f"stdout {stdout[:80]!r} differs from {want_out[:80]!r}"
    return None
