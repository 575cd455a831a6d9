"""Op executors: run one generated op through edgeperf's public API.

This module imports nothing that a fresh interpreter has not loaded already
(``io`` is loaded at start-up), so ``setup_probe.py`` can import it before
its clock starts without hiding any of edgeperf's own import work.
"""

import io


class EdgeperfModules:
    """The edgeperf modules an op uses, as attributes."""

    def __init__(self):
        import edgeperf
        from edgeperf import energy, fitting, latency, planner, profiles
        from edgeperf.errors import EdgeperfError

        self.edgeperf, self.energy, self.fitting = edgeperf, energy, fitting
        self.latency, self.planner, self.profiles = latency, planner, profiles
        self.EdgeperfError = EdgeperfError


def run_budget_op(op, ep, registry):
    model, input_len, budget, output_len, want_total, want_power = op
    lat, en = ep.latency, ep.energy
    profile = registry.get(model)
    try:
        k = lat.max_output_tokens(profile, input_len, lat.LatencyBudget(budget))
        o = min(output_len, k)
        total = lat.total_latency(profile, input_len, o).total
        decode_j = en.decode_energy(profile, input_len, o)
        total_j = en.total_energy(profile, input_len, o) if want_total else None
        watts = en.prefill_power(profile, input_len) if want_power else None
    except ep.EdgeperfError as exc:
        return ("error", type(exc).__name__)
    return (k, total, decode_j, total_j, watts)


def curve_points(records, phase, field):
    """(x, y) pairs of one phase, as the CLI's fit command builds them."""
    points = []
    for r in records:
        if r.phase.value != phase:
            continue
        y = getattr(r, field)
        if y is not None:
            points.append((float(r.input_len if phase == "prefill" else r.output_len), float(y)))
    return points


def fit_predictions(kind, coeffs, records):
    """Latency predictions of fitted coefficients, for the MAPE call."""
    preds, actuals = [], []
    for r in records:
        if kind == "prefill-latency" and r.phase.value == "prefill" and r.input_len % 64 == 0:
            ipad = -(-r.input_len // 128) * 128
            preds.append(coeffs.a * ipad * ipad + coeffs.b * ipad + coeffs.c)
        elif kind == "decode-latency" and r.phase.value == "decode" and r.output_len > 0:
            i, o = r.input_len, r.output_len
            preds.append(coeffs.n * o + coeffs.m * (i * o + o * (o - 1) / 2))
        else:
            continue
        actuals.append(r.latency)
    return preds, actuals


def run_fit_op(op, ep):
    fitting = ep.fitting
    records = ep.profiles.load_measurements(io.StringIO(op.text))
    kind = op.kind
    if kind == "prefill-latency":
        result = fitting.fit_prefill_latency(records)
    elif kind == "decode-latency":
        result = fitting.fit_decode_latency(records)
    else:
        points = curve_points(records, op.phase, op.field)
        if kind == "log-curve":
            result = fitting.fit_log_curve(points)
        elif kind == "exp-decay":
            result = fitting.fit_exp_decay(points)
        else:
            result = fitting.fit_piecewise(points, kind=kind.split("-")[1])
    score = None
    if kind in ("prefill-latency", "decode-latency"):
        score = fitting.mape(*fit_predictions(kind, result.coefficients, records))
    return (len(records), result, score)


def run_frontier_op(op, ep):
    planner = ep.planner
    points = planner.load_config_table(io.StringIO(op.text))
    frontier = planner.pareto_frontier(points, op.objectives)
    fastest = planner.best_under_latency(points, ep.latency.LatencyBudget(op.max_latency))
    cheapest = planner.best_under_cost(points, op.max_cost)
    return (len(points), frontier, fastest, cheapest)
