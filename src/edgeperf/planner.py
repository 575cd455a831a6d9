"""Deployment planning over ingested configuration tables.

Loads accuracy/latency/cost rows, computes Pareto frontiers, answers
constrained-selection queries, aggregates parallel samples by majority vote
and summarizes prefill/decode phase ratios.
"""

import warnings
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, neg
from pathlib import Path
from typing import Hashable, Iterable, Optional, Sequence

from .errors import DomainError, EmptyInput, InvariantViolation, ZeroDecodeWarning, ZeroPrefill
from .latency import LatencyBudget
from .profiles import MeasurementRecord, Phase, Source, Technique, read_rows


# Objective names accepted by pareto_frontier. Accuracy is maximized; the
# others are minimized.
OBJECTIVES = ("accuracy", "latency", "cost")


@dataclass(frozen=True, kw_only=True, slots=True)
class ConfigPoint:
    """One deployment configuration row; the fields are the config table's columns, in order."""

    model_id: str
    technique: Technique
    token_budget: Optional[int] = None
    accuracy: float = field(metadata={"key": "accuracy_pct"})  # percent in [0, 100]
    avg_tokens: float  # decoded tokens per question
    # seconds per question
    latency: Optional[float] = field(default=None, metadata={"key": "latency_s"})
    # dollars per million tokens
    cost: Optional[float] = field(default=None, metadata={"key": "cost_per_mtok"})
    scaling_factor: int = 1

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 100.0:
            raise InvariantViolation("config.accuracy", "accuracy must be in [0, 100]")
        if self.avg_tokens < 0:
            raise InvariantViolation("config.avg_tokens", "avg_tokens must be >= 0")
        if self.latency is not None and not self.latency > 0:
            raise InvariantViolation("config.latency", "latency must be > 0 when present")
        if self.cost is not None and not self.cost >= 0:
            raise InvariantViolation("config.cost", "cost must be >= 0 when present")
        if self.scaling_factor < 1:
            raise InvariantViolation("config.scaling_factor", "scaling_factor must be >= 1")


@dataclass(frozen=True)
class PhaseRatios:
    """Decode-to-prefill aggregates: tokens per token, seconds per second."""

    token_ratio: float
    latency_ratio: float


def load_config_table(source: Source) -> list[ConfigPoint]:
    """Parse the configuration-table CSV, a path or an open text stream.

    Empty cells mean absent fields.
    """
    return read_rows(source, ConfigPoint, "config table")


def _nondominated(vectors: Iterable[tuple]) -> set:
    """The vectors that no other vector dominates (smaller is better).

    A dominator is weakly smaller in every component and differs from the
    vector, so it sorts lexicographically before it. One sweep over the
    sorted vectors therefore only needs to ask whether an earlier one is
    weakly smaller in the last two components. The earlier ones are
    summarized by their (v1, v2) staircase: v1 ascending, v2 strictly
    descending, kept with ``bisect``. Two-component vectors are padded with
    a constant 0.0, which leaves a one-entry staircase.
    """
    kept = set()
    xs: list = []  # staircase v1, ascending
    neg_ys: list = []  # staircase -v2, ascending
    for v in sorted(vectors):
        _, x, y = v if len(v) == 3 else (*v, 0.0)
        at = bisect_right(xs, x)
        if at and -neg_ys[at - 1] <= y:
            continue  # dominated, or an exact copy of a vector already kept
        kept.add(v)
        lo = bisect_left(xs, x)
        hi = bisect_right(neg_ys, -y, lo)
        xs[lo:hi] = [x]
        neg_ys[lo:hi] = [-y]
    return kept


def pareto_frontier(points: Sequence[ConfigPoint], objectives: Iterable[str]) -> list[ConfigPoint]:
    """Non-dominated points under the given objective senses.

    Accuracy is maximized; latency and cost are minimized. A point is
    dominated when another is at least as good in every requested objective
    and strictly better in at least one; exact ties never dominate. Points
    missing a requested field are excluded. Rows that share ``(model_id,
    technique, objective values, token_budget, scaling_factor)`` appear once,
    as the first in input order. The frontier is stably sorted by (latency
    ascending with absent last, accuracy descending, model_id).

    Dominance is decided by one sort-and-sweep (Kung, Luccio and Preparata,
    1975) in O(n log n) comparisons rather than by testing all pairs.
    """
    requested = set(objectives)
    unknown = requested - set(OBJECTIVES)
    if unknown:
        raise DomainError(f"unknown objective {sorted(unknown)[0]!r}")
    objs = sorted(requested, key=OBJECTIVES.index)
    if len(objs) < 2:
        raise DomainError("need at least 2 objectives")
    if not points:
        raise DomainError("need at least 1 point")
    # One column per objective, oriented so that smaller is better.
    columns = [map(attrgetter(obj), points) for obj in objs]
    if objs[0] == "accuracy":  # maximized; OBJECTIVES puts it first
        columns[0] = map(neg, columns[0])
    scored = [(p, v) for p, v in zip(points, zip(*columns)) if None not in v]

    kept = _nondominated(v for _, v in scored)
    frontier = []
    seen = set()
    for p, v in scored:
        if v in kept:
            key = (p.model_id, p.technique, v, p.token_budget, p.scaling_factor)
            if key not in seen:
                frontier.append(p)
                seen.add(key)
    frontier.sort(
        key=lambda p: (
            p.latency if p.latency is not None else float("inf"),
            -p.accuracy,
            p.model_id,
        )
    )
    return frontier


def _selection_key(point: ConfigPoint) -> tuple:
    # Max accuracy; ties: lower latency, then lower cost, then model_id.
    return (
        -point.accuracy,
        point.latency if point.latency is not None else float("inf"),
        point.cost if point.cost is not None else float("inf"),
        point.model_id,
    )


def best_under_latency(
    points: Sequence[ConfigPoint], budget: LatencyBudget
) -> Optional[ConfigPoint]:
    """Highest-accuracy configuration whose latency fits the budget, if any."""
    feasible = [p for p in points if p.latency is not None and p.latency <= budget.limit]
    return min(feasible, key=_selection_key, default=None)


def best_under_cost(points: Sequence[ConfigPoint], budget: float) -> Optional[ConfigPoint]:
    """Highest-accuracy configuration whose cost fits the budget, if any."""
    if not budget >= 0:
        raise DomainError("cost budget must be >= 0", got=budget)
    feasible = [p for p in points if p.cost is not None and p.cost <= budget]
    return min(feasible, key=_selection_key, default=None)


def majority_vote(answers: Sequence[Hashable]) -> Hashable:
    """Most frequent answer; ties break toward the earliest first occurrence."""
    if not answers:
        raise EmptyInput("majority_vote needs at least one answer")
    # most_common(1) is a max over first-occurrence order, which keeps the earliest tie.
    return Counter(answers).most_common(1)[0][0]


def phase_ratios(records: Iterable[MeasurementRecord]) -> PhaseRatios:
    """Aggregate decode-to-prefill token and latency ratios.

    Prefill rows contribute their input tokens and latency; decode rows their
    output tokens and latency. All-zero decode aggregates return 0/0 with a
    warning rather than failing.
    """
    records = list(records)
    if not records:
        raise EmptyInput("phase_ratios needs at least one record")
    prefill_tokens = sum(r.input_len for r in records if r.phase is Phase.PREFILL)
    prefill_latency = sum(r.latency for r in records if r.phase is Phase.PREFILL)
    decode_tokens = sum(r.output_len for r in records if r.phase is Phase.DECODE)
    decode_latency = sum(r.latency for r in records if r.phase is Phase.DECODE)
    if prefill_tokens <= 0 or prefill_latency <= 0:
        raise ZeroPrefill("prefill aggregates must be positive")
    if decode_tokens == 0 and decode_latency == 0:
        warnings.warn(
            "no decode activity in records; ratios are 0/0",
            ZeroDecodeWarning,
            stacklevel=2,
        )
        return PhaseRatios(token_ratio=0.0, latency_ratio=0.0)
    return PhaseRatios(
        token_ratio=decode_tokens / prefill_tokens,
        latency_ratio=decode_latency / prefill_latency,
    )


def builtin_config_table_path() -> Path:
    return Path(__file__).parent / "data" / "mmlu_redux_configs.csv"


def default_config_table() -> list[ConfigPoint]:
    """The packaged MMLU-Redux result table."""
    return load_config_table(builtin_config_table_path())
