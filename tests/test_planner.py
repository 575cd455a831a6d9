import dataclasses
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeperf import cli, planner
from edgeperf.errors import (
    DomainError,
    EmptyInput,
    InvariantViolation,
    ParseError,
    ZeroDecodeWarning,
    ZeroPrefill,
)
from edgeperf.latency import LatencyBudget
from edgeperf.planner import (
    ConfigPoint,
    Technique,
    best_under_cost,
    best_under_latency,
    default_config_table,
    load_config_table,
    majority_vote,
    pareto_frontier,
    phase_ratios,
)
from edgeperf.profiles import MeasurementRecord, Phase

HEADER = "model_id,technique,token_budget,accuracy_pct,avg_tokens,latency_s,cost_per_mtok,scaling_factor\n"


def _objective_values(point, objs):
    """A point's objective values, oriented so smaller is better; None when a field is absent."""
    out = []
    for obj in objs:
        value = getattr(point, obj)
        if value is None:
            return None
        out.append(-value if obj == "accuracy" else value)
    return tuple(out)


def _pareto_reference(points, objectives):
    """The all-pairs frontier that pareto_frontier's sweep must reproduce."""
    objs = sorted(set(objectives), key=planner.OBJECTIVES.index)
    scored = [(p, v) for p in points for v in [_objective_values(p, objs)] if v is not None]

    def dominated(cv):
        for _, other in scored:
            if other == cv:
                continue
            if all(o <= c for o, c in zip(other, cv)) and any(o < c for o, c in zip(other, cv)):
                return True
        return False

    frontier = []
    seen = set()
    for p, v in scored:
        key = (p.model_id, p.technique, v, p.token_budget, p.scaling_factor)
        if key in seen:
            continue
        if not dominated(v):
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


# Every objective set, each in two given orders.
OBJECTIVE_LISTS = [
    ["accuracy", "latency"],
    ["latency", "accuracy"],
    ["accuracy", "cost"],
    ["cost", "accuracy"],
    ["latency", "cost"],
    ["cost", "latency"],
    ["accuracy", "latency", "cost"],
    ["cost", "latency", "accuracy"],
]


def assert_same_frontier(points, objectives):
    got = pareto_frontier(points, objectives)
    want = _pareto_reference(points, objectives)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


@st.composite
def tie_heavy_tables(draw):
    """Up to 60 points over a few value levels, with duplicates and absent fields."""
    levels = lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
    accuracies = draw(levels([0.0, 12.5, 50.0, 80.6, 100.0]))
    latencies = draw(levels([0.5, 1.0, 7.5, 259.02])) + [None]
    costs = draw(levels([0.0, 0.007, 0.1, 2.0])) + [None]
    points = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["new", "new", "new", "same", "copy", "retag"]))
        if points and kind == "same":
            points.append(draw(st.sampled_from(points)))
        elif points and kind == "copy":
            points.append(dataclasses.replace(draw(st.sampled_from(points))))
        elif points and kind == "retag":
            other = draw(st.sampled_from(points))
            if draw(st.booleans()):
                points.append(dataclasses.replace(other, model_id=draw(st.sampled_from("abc"))))
            else:
                points.append(dataclasses.replace(other, technique=draw(st.sampled_from(Technique))))
        else:
            points.append(
                ConfigPoint(
                    model_id=draw(st.sampled_from("abc")),
                    technique=draw(st.sampled_from(Technique)),
                    token_budget=draw(st.sampled_from([None, 256])),
                    accuracy=draw(st.sampled_from(accuracies)),
                    avg_tokens=100.0,
                    latency=draw(st.sampled_from(latencies)),
                    cost=draw(st.sampled_from(costs)),
                    scaling_factor=draw(st.sampled_from([1, 2])),
                )
            )
    return points


def seeded_table(seed, n):
    """n points trading accuracy for latency and cost, with rounded values.

    About 10% of the points repeat an earlier row, some under another model.
    """
    rng = random.Random(seed)
    rounded = lambda x: float(f"{x * rng.lognormvariate(0.0, 0.3):.2g}")
    points = []
    for _ in range(n):
        if points and rng.random() < 0.1:
            other = rng.choice(points)
            points.append(dataclasses.replace(other, model_id=rng.choice(["a", other.model_id])))
            continue
        quality = rng.uniform(0.0, 100.0)
        points.append(
            ConfigPoint(
                model_id=rng.choice("abcd"),
                technique=rng.choice(list(Technique)),
                accuracy=float(round(quality)),
                avg_tokens=100.0,
                latency=None if rng.random() < 0.05 else rounded(math.exp(quality / 25)),
                cost=None if rng.random() < 0.05 else rounded(0.001 * math.exp(quality / 30)),
            )
        )
    return points


def point(model_id, accuracy, lat, cost=None, technique=Technique.BASE, **kw):
    return ConfigPoint(
        model_id=model_id,
        technique=technique,
        accuracy=accuracy,
        avg_tokens=100.0,
        latency=lat,
        cost=cost,
        **kw,
    )


@pytest.fixture(scope="module")
def table():
    return default_config_table()


class TestLoadConfigTable:
    def test_shipped_table(self, table):
        # The two transcribed result tables: 7 base/quantized rows, 3 direct
        # rows, 19 budgeted-decoding rows.
        assert len(table) == 29
        row = next(
            p for p in table if p.model_id == "dsr1-qwen-14b" and p.technique is Technique.BASE
        )
        assert row.accuracy == 80.6
        assert row.latency == 259.02
        assert row.cost == 0.215

    def test_quantized_14b_missing_fields(self, table):
        row = next(p for p in table if p.model_id == "dsr1-qwen-14b-w4")
        assert row.latency is None
        assert row.cost is None

    def test_header_only(self):
        assert load_config_table(io.StringIO(HEADER)) == []

    def test_accuracy_out_of_range(self):
        with pytest.raises(InvariantViolation):
            load_config_table(io.StringIO(HEADER + "m,base,,120,100,1.0,0.1,1\n"))

    def test_invariant_violation_names_its_line(self, tmp_path, capsys):
        text = HEADER + "m,base,,50,100,1.0,0.1,1\nm,base,,120,100,1.0,0.1,1\n"
        with pytest.raises(InvariantViolation) as err:
            load_config_table(io.StringIO(text))
        assert err.value.line == 3
        assert (err.value.field, err.value.rule) == (
            "config.accuracy", "accuracy must be in [0, 100]"
        )
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = cli.run(["plan", "--pareto", "accuracy,latency", "--table", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: config.accuracy: accuracy must be in [0, 100] (line 3)\n"

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_config_table(io.StringIO("model,acc\nx,1\n"))

    def test_bad_cell_reports_row(self):
        with pytest.raises(ParseError) as err:
            load_config_table(io.StringIO(HEADER + "m,base,,fast,100,1.0,0.1,1\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "row",
        ["m,base,,50,100,1.0,nan,1", "m,base,,50,100,inf,0.1,1", "m,base,,50,inf,1.0,0.1,1"],
    )
    def test_non_finite_cell(self, row, tmp_path, cli_refuses):
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_config_table(io.StringIO(HEADER + row + "\n"))
        path = tmp_path / "table.csv"
        path.write_text(HEADER + row + "\n")
        cli_refuses("plan", "--max-cost", "1", "--table", str(path))

    def test_unknown_technique(self):
        with pytest.raises(ParseError):
            load_config_table(io.StringIO(HEADER + "m,warp,,50,100,1.0,0.1,1\n"))


class TestParetoFrontier:
    def base_points(self):
        return [
            point("dsr1-qwen-1.5b", 38.3, 18.92),
            point("dsr1-llama-8b", 61.7, 87.16),
            point("dsr1-qwen-14b", 80.6, 259.02),
            point("l1-max", 43.8, 7.50),
        ]

    def test_worked_example(self):
        frontier = pareto_frontier(self.base_points(), ["accuracy", "latency"])
        assert [p.model_id for p in frontier] == ["l1-max", "dsr1-llama-8b", "dsr1-qwen-14b"]

    def test_single_point(self):
        only = [point("a", 50.0, 1.0)]
        assert pareto_frontier(only, ["accuracy", "latency"]) == only

    def test_permutation_and_duplication_invariance(self):
        pts = self.base_points()
        rng = random.Random(5)
        reference = pareto_frontier(pts, ["accuracy", "latency"])
        for _ in range(10):
            shuffled = pts + pts
            rng.shuffle(shuffled)
            assert pareto_frontier(shuffled, ["accuracy", "latency"]) == reference

    def test_missing_field_rows_excluded(self):
        pts = self.base_points() + [point("no-lat", 99.0, None)]
        frontier = pareto_frontier(pts, ["accuracy", "latency"])
        assert all(p.model_id != "no-lat" for p in frontier)

    def test_exact_ties_both_kept(self):
        pts = [point("a", 50.0, 1.0), point("b", 50.0, 1.0)]
        frontier = pareto_frontier(pts, ["accuracy", "latency"])
        assert {p.model_id for p in frontier} == {"a", "b"}

    def test_nondomination_property(self, table):
        frontier = pareto_frontier(table, ["accuracy", "latency", "cost"])
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominated = (
                    b.accuracy >= a.accuracy
                    and b.latency <= a.latency
                    and b.cost <= a.cost
                    and (b.accuracy > a.accuracy or b.latency < a.latency or b.cost < a.cost)
                )
                assert not dominated

    def test_sorted_by_latency(self, table):
        frontier = pareto_frontier(table, ["accuracy", "latency"])
        latencies = [p.latency for p in frontier]
        assert latencies == sorted(latencies)

    def test_too_few_objectives(self):
        with pytest.raises(DomainError):
            pareto_frontier(self.base_points(), ["accuracy"])

    def test_no_points(self):
        with pytest.raises(DomainError):
            pareto_frontier([], ["accuracy", "latency"])

    def test_unknown_objective(self):
        with pytest.raises(DomainError):
            pareto_frontier(self.base_points(), ["accuracy", "throughput"])

    def test_zero_accuracy_ties_negative_zero(self):
        pts = [point("a", 0.0, 1.0), point("b", 0.0, 1.0), point("c", 0.0, 2.0)]
        frontier = pareto_frontier(pts, ["accuracy", "latency"])
        assert [p.model_id for p in frontier] == ["a", "b"]

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_tables())
    def test_matches_reference(self, points):
        for objectives in OBJECTIVE_LISTS:
            assert_same_frontier(points, objectives)

    @pytest.mark.parametrize("objectives", OBJECTIVE_LISTS[::2])
    def test_matches_reference_n2000(self, objectives):
        assert_same_frontier(seeded_table(17, 2000), objectives)

    def test_matches_reference_shipped(self, table):
        for objectives in OBJECTIVE_LISTS:
            assert_same_frontier(table, objectives)


class TestSelection:
    def test_latency_budget_5s(self, table):
        best = best_under_latency(table, LatencyBudget(5.0))
        assert best.model_id == "qwen2.5-7b-it"
        assert best.accuracy == 60.9

    def test_latency_budget_infeasible(self, table):
        assert best_under_latency(table, LatencyBudget(0.5)) is None

    def test_latency_budget_unbounded(self, table):
        best = best_under_latency(table, LatencyBudget(float("inf")))
        assert best.model_id == "dsr1-qwen-14b"
        assert best.accuracy == 80.6

    def test_latency_monotonicity(self, table):
        budgets = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 300.0]
        accs = []
        for b in budgets:
            best = best_under_latency(table, LatencyBudget(b))
            accs.append(best.accuracy if best else -1.0)
        assert accs == sorted(accs)

    def test_cost_budget_001(self, table):
        best = best_under_cost(table, 0.01)
        assert best.model_id == "dsr1-qwen-1.5b"
        assert best.technique is Technique.HARD_LIMIT
        assert best.token_budget == 256
        assert best.cost == 0.007

    def test_cost_budget_005(self, table):
        best = best_under_cost(table, 0.05)
        assert best.model_id == "qwen2.5-7b-it"

    def test_cost_budget_zero(self, table):
        assert best_under_cost(table, 0.0) is None

    def test_cost_budget_negative(self, table):
        with pytest.raises(DomainError):
            best_under_cost(table, -0.01)

    @pytest.mark.parametrize("budget", [math.nan, -(10**5000)], ids=["nan", "past-str-limit"])
    def test_cost_budget_refused(self, table, budget):
        # No cost is <= nan, so a nan budget would report that nothing fits.
        with pytest.raises(DomainError, match="cost budget must be >= 0"):
            best_under_cost(table, budget)

    def test_tie_break_chain(self):
        pts = [
            point("b", 50.0, 2.0, cost=0.1),
            point("a", 50.0, 1.0, cost=0.2),
            point("c", 50.0, 1.0, cost=0.1),
        ]
        best = best_under_latency(pts, LatencyBudget(10.0))
        assert best.model_id == "c"  # same accuracy/latency, cheaper than "a"


class TestMajorityVote:
    def test_strict_majority(self):
        assert majority_vote(["B", "A", "B"]) == "B"

    def test_tie_breaks_to_first_seen(self):
        assert majority_vote(["A", "B"]) == "A"
        assert majority_vote(["B", "A", "A", "B"]) == "B"

    def test_unanimity(self):
        assert majority_vote(["D"] * 7) == "D"

    def test_membership(self):
        rng = random.Random(9)
        for _ in range(50):
            answers = [rng.choice("ABCD") for _ in range(rng.randint(1, 9))]
            assert majority_vote(answers) in answers

    def test_empty(self):
        with pytest.raises(EmptyInput):
            majority_vote([])


class TestPhaseRatios:
    def test_worked_example(self):
        records = [
            MeasurementRecord(phase=Phase.PREFILL, input_len=100, output_len=0, latency=0.1),
            MeasurementRecord(phase=Phase.DECODE, input_len=100, output_len=730, latency=52.1),
        ]
        ratios = phase_ratios(records)
        assert ratios.token_ratio == pytest.approx(7.3)
        assert ratios.latency_ratio == pytest.approx(521.0)

    def test_equal_aggregates(self):
        records = [
            MeasurementRecord(phase=Phase.PREFILL, input_len=200, output_len=0, latency=2.0),
            MeasurementRecord(phase=Phase.DECODE, input_len=200, output_len=200, latency=2.0),
        ]
        ratios = phase_ratios(records)
        assert ratios.token_ratio == 1.0
        assert ratios.latency_ratio == 1.0

    def test_zero_decode_warns(self):
        records = [
            MeasurementRecord(phase=Phase.PREFILL, input_len=100, output_len=0, latency=0.1)
        ]
        with pytest.warns(ZeroDecodeWarning):
            ratios = phase_ratios(records)
        assert ratios.token_ratio == 0.0
        assert ratios.latency_ratio == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            phase_ratios([])

    def test_zero_prefill(self):
        records = [
            MeasurementRecord(phase=Phase.DECODE, input_len=10, output_len=5, latency=1.0)
        ]
        with pytest.raises(ZeroPrefill):
            phase_ratios(records)


class TestConfigPointInvariants:
    def test_bad_accuracy(self):
        with pytest.raises(InvariantViolation):
            point("m", 120.0, 1.0)

    def test_bad_latency(self):
        with pytest.raises(InvariantViolation):
            point("m", 50.0, 0.0)

    def test_nan_cost(self):
        with pytest.raises(InvariantViolation):
            point("m", 50.0, 1.0, cost=float("nan"))

    def test_bad_scaling_factor(self):
        with pytest.raises(InvariantViolation):
            point("m", 50.0, 1.0, scaling_factor=0)
