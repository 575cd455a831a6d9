"""Command-line surface. The only module that performs I/O.

Results go to stdout (or ``--out``), diagnostics to stderr. Exit codes:
0 success, 1 domain error (infeasible or absent result, failed gate),
2 usage or parse error. Modules that only some handlers use are imported
inside them, so a call loads no more of edgeperf, or numpy, than it needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from typing import Optional

from . import latency, profiles
from .errors import (
    DomainError,
    DuplicateId,
    EdgeperfError,
    InvariantViolation,
    ParseError,
    UnknownModel,
)

PROFILES_ENV_VAR = "EDGEPERF_PROFILES"


class _OutputFailure(EdgeperfError):
    """Internal: the result could not be written to ``--out`` (exit 2)."""


_USAGE_ERRORS = (UnknownModel, ParseError, DuplicateId, InvariantViolation, _OutputFailure)


def _resolve_registry(args) -> profiles.ProfileRegistry:
    if args.profiles:
        return profiles.load_profiles(args.profiles)
    env_path = os.environ.get(PROFILES_ENV_VAR)
    if env_path:
        return profiles.load_profiles(env_path)
    return profiles.default_registry()


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _render(result, as_json: bool) -> str:
    if as_json:
        return json.dumps(result, indent=2, sort_keys=False, allow_nan=False)
    if isinstance(result, dict):
        return " ".join(f"{k}={_fmt(v)}" for k, v in result.items() if v is not None)
    return "\n".join(
        _render(item, False) if isinstance(item, dict) else str(item) for item in result
    )


def _all_finite(value) -> bool:
    """False if the result holds an infinite or nan float, at any depth."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return True
    return all(_all_finite(v) for v in value)


def _emit(result, args) -> None:
    if not _all_finite(result):
        raise DomainError("the result is not finite; an argument is out of range")
    text = _render(result, args.json)
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _OutputFailure(f"cannot write {args.out}: {exc.strerror or exc}") from None


def _point_dict(point) -> dict:
    # vars() of a dataclass lists its fields in declaration order.
    return {**vars(point), "technique": point.technique.value}


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_list_models(args):
    _emit(_resolve_registry(args).ids(), args)
    return 0


def _cmd_predict(args):
    registry = _resolve_registry(args)
    profile = registry.get(args.model)
    breakdown = latency.total_latency(profile, args.input, args.output)
    _emit({**vars(breakdown), "total": breakdown.total}, args)
    return 0


def _cmd_invert(args):
    registry = _resolve_registry(args)
    profile = registry.get(args.model)
    tokens = latency.max_output_tokens(
        profile, args.input, latency.LatencyBudget(args.budget)
    )
    _emit({"max_output_tokens": tokens}, args)
    return 0


def _cmd_cost(args):
    from . import energy

    usage = energy.UsageSample(
        tokens=args.tokens, duration=args.duration, energy=args.energy_kwh
    )
    # A price left out takes its CostParams default.
    prices = {"electricity": args.electricity, "hardware_rate": args.hardware_rate}
    params = energy.CostParams(**{k: v for k, v in prices.items() if v is not None})
    breakdown = energy.cost_per_million_tokens(usage, params)
    _emit({**vars(breakdown), "total": breakdown.total}, args)
    return 0


def _cmd_vote(args):
    from . import planner

    winner = planner.majority_vote(args.answers)
    _emit({"winner": winner}, args)
    return 0


def _cmd_validate(args):
    from . import planner

    registry = _resolve_registry(args)
    profile = registry.get(args.model)
    records = profiles.load_measurements(args.data)

    result: dict = {}
    prefill_rows = [r for r in records if r.phase is profiles.Phase.PREFILL]
    decode_rows = [r for r in records if r.phase is profiles.Phase.DECODE]
    if prefill_rows:
        preds = [latency.prefill_latency(profile, r.input_len) for r in prefill_rows]
        result["prefill_mape"] = planner.mape(preds, [r.latency for r in prefill_rows])
    if decode_rows:
        preds = [
            latency.decode_latency(profile, r.input_len, r.output_len)
            for r in decode_rows
        ]
        result["decode_mape"] = planner.mape(preds, [r.latency for r in decode_rows])
    if not result:
        raise ParseError("no prefill or decode rows in data file")

    if args.max_mape is not None and not args.max_mape >= 0:
        raise DomainError("--max-mape must be >= 0", got=args.max_mape)
    if args.json:
        _emit(result, args)
    else:
        # MAPE values go out at two decimal places in text mode.
        _emit({k: f"{v:.2f}" for k, v in result.items()}, args)
    if args.max_mape is not None and any(v > args.max_mape for v in result.values()):
        print(
            f"MAPE gate failed: exceeds {args.max_mape}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _curve_points(records, phase, y_field):
    phase = profiles.Phase(phase)
    points = []
    for r in records:
        if r.phase is not phase:
            continue
        x = r.input_len if phase is profiles.Phase.PREFILL else r.output_len
        y = getattr(r, y_field)  # --y-field choices are MeasurementRecord fields
        if y is not None:
            points.append((float(x), float(y)))
    return points


def _cmd_fit(args):
    from . import fitting  # imports numpy, which no other subcommand needs

    records = profiles.load_measurements(args.data)
    if args.kind == "prefill-latency":
        result = fitting.fit_prefill_latency(records)
    elif args.kind == "decode-latency":
        result = fitting.fit_decode_latency(records)
    else:
        points = _curve_points(records, args.phase, args.y_field)
        if args.kind == "log-curve":
            result = fitting.fit_log_curve(points, min_x=args.min_x)
        elif args.kind == "exp-decay":
            result = fitting.fit_exp_decay(points)
        elif args.kind == "piecewise-power":
            result = fitting.fit_piecewise(points, kind="power")
        else:
            result = fitting.fit_piecewise(points, kind="energy")

    fragment = fitting.coefficients_to_json(result.coefficients)
    tail = {"residual_sse": result.residual_sse, "points_used": result.points_used}
    if args.json:
        _emit({"fit": fragment, **tail}, args)
    else:
        (section, coeffs), = fragment.items()
        _emit({"kind": section, **coeffs, **tail}, args)
    return 0


def _cmd_plan(args):
    from . import planner

    if args.table:
        points = planner.load_config_table(args.table)
    else:
        points = planner.default_config_table()
    if args.technique:
        wanted = {profiles.Technique(t) for t in args.technique}
        points = [p for p in points if p.technique in wanted]

    if args.pareto:
        objectives = [o.strip() for o in args.pareto.split(",") if o.strip()]
        frontier = planner.pareto_frontier(points, objectives)
        _emit([_point_dict(p) for p in frontier], args)
        return 0

    if args.max_latency is not None:
        best = planner.best_under_latency(points, latency.LatencyBudget(args.max_latency))
    elif args.max_cost is not None:
        best = planner.best_under_cost(points, args.max_cost)
    else:
        raise DomainError("one of --pareto, --max-latency, --max-cost is required")
    if best is None:
        raise DomainError("no configuration satisfies the constraint")
    _emit(_point_dict(best), args)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profiles",
        metavar="PATH",
        help=f"profile file (default: ${PROFILES_ENV_VAR}, then the built-in table)",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of key=value text")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="edgeperf",
        description="Latency/energy/cost modeling and planning for edge LLM inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", parents=[common], help="predict prefill/decode/total latency")
    p.add_argument("--model", required=True)
    p.add_argument("--input", type=int, required=True, help="input length in tokens")
    p.add_argument("--output", type=int, required=True, help="output length in tokens")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("invert", parents=[common], help="max output tokens under a latency budget")
    p.add_argument("--model", required=True)
    p.add_argument("--input", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="latency budget in seconds")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("fit", parents=[common], help="fit model coefficients from measurements")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "prefill-latency",
            "decode-latency",
            "log-curve",
            "exp-decay",
            "piecewise-power",
            "piecewise-energy",
        ],
    )
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--phase", choices=["prefill", "decode"], default="prefill")
    p.add_argument("--y-field", choices=["power", "energy", "latency"], default="power")
    p.add_argument("--min-x", type=float, default=1.0, help="minimum x for log-curve fits")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("cost", parents=[common], help="cost per million tokens")
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--energy-kwh", type=float, required=True)
    p.add_argument("--electricity", type=float, help="$/kWh")
    p.add_argument("--hardware-rate", type=float, help="$/hour")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("plan", parents=[common], help="query a configuration table")
    p.add_argument("--table", help="config CSV (default: built-in result table)")
    p.add_argument(
        "--technique",
        action="append",
        choices=[t.value for t in profiles.Technique],
        help="filter by technique (repeatable)",
    )
    p.add_argument("--pareto", metavar="OBJ,OBJ[,OBJ]", help="objectives from accuracy,latency,cost")
    p.add_argument("--max-latency", type=float, help="best accuracy within a latency budget (s)")
    p.add_argument("--max-cost", type=float, help="best accuracy within a cost budget ($/Mtok)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("validate", parents=[common], help="MAPE of predictions vs a data file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument(
        "--max-mape",
        type=float,
        help="exit 1 when any reported MAPE exceeds this percentage",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("vote", parents=[common], help="majority vote over answer labels")
    p.add_argument("answers", nargs="+")
    p.set_defaults(func=_cmd_vote)

    p = sub.add_parser("list-models", parents=[common], help="list profile ids")
    p.set_defaults(func=_cmd_list_models)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        # A warning is one line, as an error is.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except _USAGE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except EdgeperfError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(run())
