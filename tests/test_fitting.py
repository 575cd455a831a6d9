import io
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeperf import fitting
from edgeperf.errors import (
    DegenerateDesign,
    DomainError,
    EdgeperfError,
    InsufficientData,
    LengthMismatch,
    NoDecayDetectedWarning,
    ParseError,
    ZeroActual,
)
from edgeperf.fitting import (
    ExpDecay,
    LogCurve,
    coefficients_to_json,
    fit_decode_latency,
    fit_exp_decay,
    fit_log_curve,
    fit_piecewise,
    fit_prefill_latency,
    mape,
)
from edgeperf.latency import padded_length
from edgeperf.profiles import (
    DecodeLatencyCoeffs,
    EnergyUnit,
    MeasurementRecord,
    Phase,
    PiecewiseEnergyModel,
    PiecewisePowerModel,
    PrefillLatencyCoeffs,
    load_measurements,
)
from edgeperf.profiles import builtin_profiles_path


def prefill_rows(a, b, c, lengths):
    rows = []
    for i in lengths:
        ipad = padded_length(i)
        rows.append(
            MeasurementRecord(
                phase=Phase.PREFILL,
                input_len=i,
                output_len=0,
                latency=a * ipad * ipad + b * ipad + c,
            )
        )
    return rows


def decode_rows(m, n, pairs):
    return [
        MeasurementRecord(
            phase=Phase.DECODE,
            input_len=i,
            output_len=o,
            latency=n * o + m * (i * o + o * (o - 1) / 2),
        )
        for i, o in pairs
    ]


class TestFitTwo:
    """The closed-form two-parameter fit against a generic least-squares solve."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.floats(-100.0, 100.0, allow_nan=False),
                st.floats(-100.0, 100.0, allow_nan=False),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_matches_lstsq(self, pairs):
        u = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        assume(np.ptp(u) >= 1.0)  # keeps [u, 1] well conditioned
        (want_p, want_q), *_ = np.linalg.lstsq(np.column_stack([u, np.ones_like(u)]), y, rcond=None)
        want_sse = float(np.sum((want_p * u + want_q - y) ** 2))
        p, q, sse = fitting._fit_two(u, y)
        # 1e-9 relative, with a floor at the data's scale for values near zero.
        scale = 1.0 + float(np.max(np.abs(y)))
        assert p == pytest.approx(want_p, rel=1e-9, abs=1e-9 * scale)
        assert q == pytest.approx(want_q, rel=1e-9, abs=1e-9 * scale)
        assert sse == pytest.approx(want_sse, rel=1e-9, abs=1e-9 * scale**2 * len(y))
        # One row of a stacked call is the same fit.
        rows = fitting._fit_two(np.vstack([u, u[::-1]]), y)
        assert [r[0] for r in rows] == pytest.approx([p, q, sse], rel=1e-12, abs=1e-12 * scale**2)

    def test_constant_u_is_the_constant_fit(self):
        y = np.array([1.0, 2.0, 4.0])
        p, q, sse = fitting._fit_two(np.full(3, 7.0), y)
        assert (p, q) == (0.0, pytest.approx(7.0 / 3.0))
        assert sse == pytest.approx(np.sum((y - 7.0 / 3.0) ** 2))


class TestFitPrefillLatency:
    def test_noiseless_round_trip(self):
        rows = prefill_rows(1e-7, 2e-6, 0.05, range(64, 4097, 64))
        result = fit_prefill_latency(rows)
        c = result.coefficients
        assert c.a == pytest.approx(1e-7, rel=1e-9)
        assert c.b == pytest.approx(2e-6, rel=1e-9)
        assert c.c == pytest.approx(0.05, rel=1e-9)
        assert result.residual_sse == pytest.approx(0.0, abs=1e-15)

    def test_non_multiples_of_64_excluded(self):
        rows = prefill_rows(1e-7, 2e-6, 0.05, [128, 256, 512, 1024])
        # A wildly wrong off-grid row must not perturb the fit.
        rows.append(
            MeasurementRecord(phase=Phase.PREFILL, input_len=100, output_len=0, latency=99.0)
        )
        c = fit_prefill_latency(rows).coefficients
        assert c.a == pytest.approx(1e-7, rel=1e-9)

    def test_insufficient_distinct_padded_lengths(self):
        # 64 and 128 share a padded length, so only two remain.
        rows = prefill_rows(1e-7, 2e-6, 0.05, [64, 128, 256])
        with pytest.raises(InsufficientData):
            fit_prefill_latency(rows)

    def test_fit_then_repredict_14b(self):
        path = builtin_profiles_path().parent / "measurements" / "dsr1-qwen-14b-gpu.csv"
        records = [
            r
            for r in load_measurements(path)
            if r.phase is Phase.PREFILL and r.input_len <= 512
        ]
        result = fit_prefill_latency(records)
        c = result.coefficients
        for r in records:
            ipad = padded_length(r.input_len)
            predicted = c.a * ipad * ipad + c.b * ipad + c.c
            assert predicted == pytest.approx(r.latency, rel=0.05)

    def test_input_not_mutated(self):
        rows = prefill_rows(1e-7, 2e-6, 0.05, [128, 256, 512])
        snapshot = list(rows)
        fit_prefill_latency(rows)
        assert rows == snapshot


class TestFitDecodeLatency:
    def test_noiseless_round_trip(self):
        pairs = [(512, o) for o in (16, 64, 128, 512, 1024)]
        result = fit_decode_latency(decode_rows(1e-6, 0.05, pairs))
        assert result.coefficients.m == pytest.approx(1e-6, rel=1e-9)
        assert result.coefficients.n == pytest.approx(0.05, rel=1e-9)

    def test_14b_appendix_rows_recover_n(self):
        path = builtin_profiles_path().parent / "measurements" / "dsr1-qwen-14b-gpu.csv"
        records = load_measurements(path)
        result = fit_decode_latency(records)
        assert result.coefficients.n == pytest.approx(0.187, rel=0.03)

    def test_single_row(self):
        with pytest.raises(InsufficientData):
            fit_decode_latency(decode_rows(1e-6, 0.05, [(512, 128)]))

    def test_collinear_features(self):
        # (I=5, O=2) and (I=4, O=4) give proportional feature vectors.
        with pytest.raises(DegenerateDesign):
            fit_decode_latency(decode_rows(1e-6, 0.05, [(5, 2), (4, 4)]))


class TestFitLogCurve:
    def test_noiseless_round_trip(self):
        points = [(x, 0.7565 * math.log(x) + 3.2137) for x in (64, 128, 256, 512, 1024)]
        c = fit_log_curve(points).coefficients
        assert c.log_alpha == pytest.approx(0.7565, rel=1e-9)
        assert c.log_beta == pytest.approx(3.2137, rel=1e-9)

    def test_min_x_filters(self):
        points = [(1, 99.0)] + [(x, 2.0 * math.log(x) + 1.0) for x in (64, 256, 1024)]
        result = fit_log_curve(points, min_x=64)
        assert result.points_used == 3
        assert result.coefficients.log_alpha == pytest.approx(2.0, rel=1e-9)

    def test_all_equal_x(self):
        with pytest.raises(InsufficientData):
            fit_log_curve([(64, 1.0), (64, 2.0)])

    def test_constant_y(self):
        c = fit_log_curve([(x, 4.2) for x in (8, 64, 512)]).coefficients
        assert c.log_alpha == pytest.approx(0.0, abs=1e-12)
        assert c.log_beta == pytest.approx(4.2)


class TestFitExpDecay:
    def test_noiseless_round_trip(self):
        true = (0.07308, 0.03195, 0.000923)
        xs = [16, 32, 64, 96, 128, 192, 256, 512]
        points = [(x, true[0] * math.exp(-true[1] * x) + true[2]) for x in xs]
        c = fit_exp_decay(points).coefficients
        assert c.exp_A == pytest.approx(true[0], rel=1e-3)
        assert c.exp_lambda == pytest.approx(true[1], rel=1e-3)
        assert c.exp_C == pytest.approx(true[2], rel=1e-3)

    def test_constant_data_collapses(self):
        points = [(x, 3.0) for x in (1, 2, 4, 8, 16)]
        with pytest.warns(NoDecayDetectedWarning):
            result = fit_exp_decay(points)
        assert result.coefficients == ExpDecay(exp_A=0.0, exp_lambda=0.0, exp_C=3.0)

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit_exp_decay([(1, 1.0), (2, 0.9), (3, 0.8)])

    def test_nonpositive_y(self):
        with pytest.raises(InsufficientData):
            fit_exp_decay([(1, 1.0), (2, 0.5), (3, -0.1), (4, 0.2)])

    @pytest.mark.parametrize("xs", [(64, 64, 64, 64), (64, 64, 128, 128, 128)])
    def test_fewer_than_three_distinct_x(self, xs):
        with pytest.raises(InsufficientData, match="3 distinct x"):
            fit_exp_decay([(x, 0.2 + 0.01 * k) for k, x in enumerate(xs)])

    def test_collapse_warning_points_at_the_caller(self):
        with pytest.warns(NoDecayDetectedWarning) as record:
            fit_exp_decay([(x, 3.0) for x in (1, 2, 4, 8, 16)])
        assert record[0].filename == __file__


def noisy_1p5b_prefill_energy():
    """The shipped 1.5B prefill energy decay with 3% lognormal noise, seeded."""
    rng = random.Random(20251)
    xs = [16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512, 640, 768,
          1024, 1536, 2048, 3072, 4096]
    return [
        (float(x), (0.07308 * math.exp(-0.03195 * x) + 0.000923) * math.exp(rng.gauss(0.0, 0.03)))
        for x in xs
    ]


def noisy_power_floor_then_log():
    """A 5.6 W floor up to x=384, then 0.9*ln(x) + 0.1, with 2% lognormal noise, seeded."""
    rng = random.Random(20252)
    xs = [16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096]
    return [
        (float(x), (5.6 if x <= 384 else 0.9 * math.log(x) + 0.1) * math.exp(rng.gauss(0.0, 0.02)))
        for x in xs
    ]


def rising_energy_then_log():
    """Energy per token that rises slowly to x=256, then follows a log curve, seeded.

    No rising left side is a decay, so every decay fit over the first 4-10
    points, and over all 13, collapses to the constant fit.
    """
    rng = random.Random(20253)
    xs = [16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096]

    def truth(x):
        return 0.02 + 1e-5 * x if x <= 256 else 0.004 * math.log(x)

    return [(float(x), truth(x) * math.exp(rng.gauss(0.0, 0.01))) for x in xs]


class TestGolden:
    """Values recorded from the generic-solver fitters; rate and breakpoint must not move."""

    def test_exp_decay(self):
        result = fit_exp_decay(noisy_1p5b_prefill_energy())
        c = result.coefficients
        assert c.exp_lambda == 0.031857145275742904
        assert c.exp_A == pytest.approx(0.07299381916368015, rel=1e-12)
        assert c.exp_C == pytest.approx(0.0009276471419541755, rel=1e-12)
        assert result.residual_sse == pytest.approx(8.557967041004964e-07, rel=1e-12)

    def test_piecewise_energy(self):
        result = fit_piecewise(noisy_1p5b_prefill_energy(), kind="energy")
        model = result.coefficients
        assert model.threshold == 192.0
        assert model.exp_lambda == 0.031712445487089874
        assert model.exp_A == pytest.approx(0.07291677610985434, rel=1e-12)
        assert model.exp_C == pytest.approx(0.0008526525854607032, rel=1e-12)
        assert result.residual_sse == pytest.approx(8.361663929424707e-07, rel=1e-12)

    # The two below were recorded while fit_piecewise still called fit_exp_decay.
    def test_piecewise_power(self):
        result = fit_piecewise(noisy_power_floor_then_log(), kind="power")
        model = result.coefficients
        assert model.threshold == 256.0
        assert model.floor_watts == pytest.approx(5.611771890028953, rel=1e-12)
        assert model.log_alpha == pytest.approx(0.8328007629758506, rel=1e-12)
        assert model.log_beta == pytest.approx(0.5453579524803605, rel=1e-12)
        assert result.residual_sse == pytest.approx(0.07167248022508597, rel=1e-12)
        assert result.points_used == 15

    def test_piecewise_energy_collapsed_decay(self):
        result = fit_piecewise(rising_energy_then_log(), kind="energy")
        model = result.coefficients
        assert model.threshold == 128.0
        assert (model.exp_A, model.exp_lambda) == (0.0, 0.0)
        assert model.exp_C == pytest.approx(0.02079275385462077, rel=1e-12)
        assert model.log_alpha == pytest.approx(0.0038857966380479426, rel=1e-12)
        assert model.log_beta == pytest.approx(0.0008429802401580082, rel=1e-12)
        assert result.residual_sse == pytest.approx(2.0400797255730273e-06, rel=1e-12)
        assert result.points_used == 13


GOLDEN_FITS = Path(__file__).parent / "data" / "fit_golden.json"
GOLDEN_SEEDS = range(40)


def decay_then_log_curve(seed):
    """A noisy decay-then-log energy curve of 8-60 points, seeded; x may repeat."""
    rng = random.Random(7000 + seed)
    n = rng.randint(8, 60)
    xs = sorted(rng.choice(range(8, 4097, 8)) for _ in range(n))
    amp, lam, floor = rng.uniform(0.01, 0.5), 10.0 ** rng.uniform(-3.0, -1.0), rng.uniform(1e-4, 1e-2)
    bp = xs[rng.randint(3, n - 4)]
    alpha = rng.uniform(1e-3, 2e-2)
    beta = amp * math.exp(-lam * bp) + floor - alpha * math.log(bp)
    sigma = rng.uniform(0.005, 0.05)

    def truth(x):
        return amp * math.exp(-lam * x) + floor if x <= bp else alpha * math.log(x) + beta

    return [(float(x), truth(x) * math.exp(rng.gauss(0.0, sigma))) for x in xs]


def golden_fits(points, action="always"):
    """float.hex of every float field and the SSE of both decay fits, or what they raised.

    ``action`` is the warnings filter: under "error" a collapse warning is what
    the fit raised, and any other warning escapes.
    """
    out = {}
    for name, fit in (
        ("exp_decay", fit_exp_decay),
        ("piecewise_energy", lambda p: fit_piecewise(p, kind="energy")),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            try:
                result = fit(points)
            except (EdgeperfError, NoDecayDetectedWarning) as exc:
                fields = {"raises": type(exc).__name__}
            else:
                fields = {k: v.hex() for k, v in vars(result.coefficients).items() if isinstance(v, float)}
                fields["sse"] = result.residual_sse.hex()
        fields["warnings"] = sorted({w.category.__name__ for w in caught})
        out[name] = fields
    return out


class TestGoldenFile:
    """Bits of both decay fits on seeded curves, recorded before the probe was specialised."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_FITS.read_text())

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_bit_identical(self, golden, seed):
        assert golden_fits(decay_then_log_curve(seed)) == golden[str(seed)]


def _exp_decay_reference(x, y):
    """``fitting._exp_decay`` with one full ``_fit_two`` per probe, the form it must match bit for bit."""
    distinct = len(set(x.tolist()))
    if distinct < 3:
        raise InsufficientData(f"need >= 3 distinct x, found {distinct}")
    if np.any(y <= 0):
        raise InsufficientData("all y values must be positive")

    def sse_at(lam):
        return fitting._fit_two(np.exp(-lam * x), y)[2]

    grid = np.geomspace(1e-5, 1.0, 80)
    best = int(np.argmin(fitting._fit_two(np.exp(-np.outer(grid, x)), y)[2]))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = sse_at(c)
    fd = sse_at(d)
    while (b - a) > 1e-6 * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = sse_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = sse_at(d)
    lam = (a + b) / 2.0
    amp, floor, sse = fitting._fit_two(np.exp(-lam * x), y)
    if amp <= 0:
        amp, lam = 0.0, 0.0
        _, floor, sse = fitting._fit_two(np.zeros_like(y), y)
    return fitting._finite(amp, lam, floor, sse)


def outcome(call, *args):
    """("ok", float.hex of each value) or (error type, message) of one call, numpy warnings off."""
    try:
        with np.errstate(all="ignore"):
            values = call(*args)
    except EdgeperfError as exc:
        return type(exc).__name__, str(exc)
    return "ok", [v.hex() for v in values]


class TestExpDecayReference:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(3, 60).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 5000.0)),
                    st.floats(1e-6, 1e3),
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_bit_identical(self, points):
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        assert outcome(fitting._exp_decay, x, y) == outcome(_exp_decay_reference, x, y)

    def test_too_few_distinct_x_raises_the_same(self):
        x, y = np.array([1.0, 1.0, 2.0, 2.0]), np.array([0.5, 0.4, 0.3, 0.2])
        assert outcome(fitting._exp_decay, x, y) == outcome(_exp_decay_reference, x, y)
        assert outcome(fitting._exp_decay, x, y)[0] == "InsufficientData"


EXTREME_POINTS = {
    "huge x": [(1e300, 1.0), (2e300, 0.5), (3e300, 0.2), (4e300, 0.1), (5e300, 0.05), (6e300, 0.01)],
    "x at the float limit": [(1e308, 0.3), (1.5e308, 0.2), (1.7e308, 0.1), (1.79e308, 0.05)],
    "negative x": [(-1e4, 1.0), (-5e3, 2.0), (-1e3, 2.5), (0.0, 3.0), (10.0, 4.0), (20.0, 4.5)],
    "y near 1e-300": [(x, 1e-300 * math.exp(-0.03 * x) + 1e-302) for x in (16, 32, 64, 128, 256, 512)],
    "y near 1e300": [(x, 1e300 * math.exp(-0.03 * x) + 1e298) for x in (16, 32, 64, 128, 256, 512)],
    "y from 1e-300 to 1e300": [(16, 1e300), (32, 1e100), (64, 1.0), (128, 1e-100), (256, 1e-300), (512, 1e-300)],
    "constant y": [(x, 3.0) for x in (16, 32, 64, 128, 256, 512, 1024)],
    "subnormal y": [(x, 5e-324 * k) for k, x in enumerate((16, 32, 64, 128, 256, 512), 1)],
}


class TestExtremeInputs:
    """The Python-float probe stays total: the reference's outcome, and never a stray error or warning."""

    @pytest.mark.parametrize("case", sorted(EXTREME_POINTS))
    def test_same_outcome_as_reference(self, case, monkeypatch):
        got = golden_fits(EXTREME_POINTS[case], action="error")
        monkeypatch.setattr(fitting, "_exp_decay", _exp_decay_reference)
        assert got == golden_fits(EXTREME_POINTS[case], action="error")
        for fields in got.values():
            raised = fields.pop("raises", None)
            assert raised in (None, "NoDecayDetectedWarning", "DegenerateDesign", "InsufficientData")
            assert fields.pop("warnings") == []
            assert all(math.isfinite(float.fromhex(v)) for k, v in fields.items() if k != "threshold")


class TestFitPiecewise:
    def test_power_break_recovered(self):
        xs = [64, 128, 256, 400, 800, 1024, 2048, 3072, 4096]
        points = [
            (x, 5.6 if x <= 800 else 0.9 * math.log(x) + 0.1) for x in xs
        ]
        result = fit_piecewise(points, kind="power")
        model = result.coefficients
        assert isinstance(model, PiecewisePowerModel)
        assert model.threshold == 800
        assert model.floor_watts == pytest.approx(5.6, rel=1e-9)
        assert model.log_alpha == pytest.approx(0.9, rel=1e-6)

    def test_constant_data_degenerates(self):
        points = [(x, 5.6) for x in (64, 128, 256, 512, 1024, 2048)]
        model = fit_piecewise(points, kind="power").coefficients
        assert model.floor_watts == pytest.approx(5.6)
        assert math.isinf(model.threshold)

    def test_energy_break_recovered(self):
        xs = [16, 32, 64, 128, 256, 384, 512, 1024, 2048, 4096]
        def left(x):
            return 0.29 * math.exp(-0.03 * x) + 0.009
        def right(x):
            return 0.016 * math.log(x) - 0.07
        points = [(x, left(x) if x <= 384 else right(x)) for x in xs]
        model = fit_piecewise(points, kind="energy").coefficients
        assert isinstance(model, PiecewiseEnergyModel)
        assert model.threshold == 384
        assert model.log_alpha == pytest.approx(0.016, rel=1e-6)
        assert model.exp_lambda == pytest.approx(0.03, rel=1e-3)

    def test_energy_log_branch_below_zero(self):
        # The log side goes negative past x=384 (-0.0102 at 512), so only the
        # single decay branch cannot fit; breakpoint 384 still does.
        xs = [16, 32, 64, 128, 256, 384, 512, 1024, 2048, 4096]
        points = [
            (x, 0.29 * math.exp(-0.03 * x) + 0.009 if x <= 384 else 0.016 * math.log(x) - 0.11)
            for x in xs
        ]
        model = fit_piecewise(points, kind="energy").coefficients
        assert model.threshold == 384
        assert model.log_beta == pytest.approx(-0.11, rel=1e-6)
        assert model.exp_lambda == pytest.approx(0.03, rel=1e-3)

    def test_energy_nothing_fits(self):
        points = [(x, -0.01) for x in (16, 32, 64, 128, 256, 512, 1024)]
        with pytest.raises(InsufficientData, match="positive"):
            fit_piecewise(points, kind="energy")

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit_piecewise([(x, 1.0) for x in range(5)], kind="power")

    def test_equal_sse_prefers_the_smaller_breakpoint(self):
        # The floor ends at x=4 and the log curve passes through 5.0 at x=5, so
        # breakpoints 4 and 5 both fit exactly (SSE about 0).
        alpha = 0.9
        beta = 5.0 - alpha * math.log(5)
        points = [(x, 5.0) for x in range(1, 5)] + [
            (x, alpha * math.log(x) + beta) for x in range(5, 10)
        ]
        result = fit_piecewise(points, kind="power")
        assert result.coefficients.threshold == 4
        assert result.residual_sse < 1e-20

    def test_log_branch_skips_nonpositive_x(self):
        # Breakpoints -2 and -1 would put x <= 0 into the log branch.
        points = [(x, 5.0) for x in (-3, -2, -1, 0)] + [(x, 0.9 * math.log(x) + 5.0) for x in (1, 2, 4, 8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_piecewise(points, kind="power").coefficients
        assert model.threshold == 0
        assert model.log_alpha == pytest.approx(0.9, rel=1e-9)

    def test_energy_collapse_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_piecewise(rising_energy_then_log(), kind="energy").coefficients
        assert model.exp_A == 0.0

    def test_energy_left_side_needs_three_distinct_x(self):
        # Breakpoint 64 leaves four points on two distinct x; it is skipped,
        # not fitted as an arbitrary decay.
        points = [(16, 0.1), (16, 0.1), (16, 0.1), (64, 0.02)] + [
            (x, 0.016 * math.log(x) - 0.05) for x in (256, 512, 1024, 2048)
        ]
        model = fit_piecewise(points, kind="energy").coefficients
        assert model.threshold != 64


    def test_bad_kind(self):
        with pytest.raises(ValueError):
            fit_piecewise([(x, 1.0) for x in range(1, 7)], kind="latency")


class TestNonFinite:
    """Non-finite measurements are refused at parse time; fitters never return nan or inf."""

    HEADER = "phase,input_len,output_len,latency_s,power_w,energy_j\n"

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
    @pytest.mark.parametrize("column", [3, 4, 5])
    def test_parse_error(self, cell, column):
        row = ["prefill", "128", "0", "0.2", "5.0", "0.01"]
        row[column] = cell
        with pytest.raises(ParseError, match="line 2"):
            load_measurements(io.StringIO(self.HEADER + ",".join(row) + "\n"))

    def test_nan_y_raises_degenerate(self):
        xs = [16, 32, 64, 128, 256, 512]
        points = [(x, 0.07 * math.exp(-0.03 * x) + 0.001) for x in xs]
        points[2] = (64, math.nan)
        for fit in (fit_exp_decay, fit_log_curve, lambda p: fit_piecewise(p, kind="power")):
            with pytest.raises(DegenerateDesign):
                fit(points)

    def test_overflow_raises_degenerate_without_warnings(self):
        points = [(16, 0.05), (32, 1e308), (64, 0.01), (128, 0.005), (256, 0.002)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesign):
                fit_exp_decay(points)
            with pytest.raises(DegenerateDesign):
                fit_prefill_latency(prefill_rows(1e300, 1e300, 1e300, [128, 256, 512]))
            # Rising data collapses to a constant fit whose SSE overflows: no
            # "returning the constant fit" warning for a fit that is refused.
            with pytest.raises(DegenerateDesign):
                fit_exp_decay([(x, x * 1e154) for x in (1, 2, 3, 4, 5)])


def test_every_fitter_returns_plain_floats():
    rows = prefill_rows(1e-7, 2e-6, 0.05, [128, 256, 512])
    rows += decode_rows(1e-6, 0.05, [(512, o) for o in (16, 64, 128)])
    xs = [16, 32, 64, 128, 256, 384, 512, 1024, 2048, 4096]
    energy = [(x, 0.29 * math.exp(-0.03 * x) + 0.009 if x <= 384 else 0.016 * math.log(x) - 0.07) for x in xs]
    power = [(x, 5.6 if x <= 384 else 0.9 * math.log(x) + 0.1) for x in xs]
    results = [
        fit_prefill_latency(rows),
        fit_decode_latency(rows),
        fit_log_curve(energy[6:]),
        fit_exp_decay(energy[:6]),
        fit_piecewise(energy, kind="energy"),
        fit_piecewise(power, kind="power"),
    ]
    for result in results:
        values = [v for v in vars(result.coefficients).values() if isinstance(v, float)]
        values.append(result.residual_sse)
        assert {type(v) for v in values} == {float}, result
        assert len(values) >= 3


class TestMape:
    def test_identical(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_element(self):
        assert mape([1.1], [1.0]) == pytest.approx(10.0)

    def test_scale_invariance(self):
        rng = random.Random(3)
        preds = [rng.uniform(1, 10) for _ in range(20)]
        actuals = [rng.uniform(1, 10) for _ in range(20)]
        base = mape(preds, actuals)
        for k in (0.5, 3.0, 1e6):
            scaled = mape([k * p for p in preds], [k * a for a in actuals])
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mape([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            mape([], [])

    def test_zero_actual(self):
        with pytest.raises(ZeroActual):
            mape([1.0], [0.0])

    @pytest.mark.parametrize("actual", [1e-320, math.inf, math.nan])
    def test_non_finite_refused(self, actual):
        # 0.3 / 1e-320 overflows to inf; inf / inf and nan give nan.
        with pytest.raises(DomainError, match="not finite"):
            mape([0.3], [actual])


class TestCoefficientsToJson:
    def test_fragments(self):
        frag = coefficients_to_json(LogCurve(log_alpha=1.0, log_beta=2.0))
        assert frag == {"log_curve": {"log_alpha": 1.0, "log_beta": 2.0}}
        frag = coefficients_to_json(
            PiecewisePowerModel(floor_watts=5.9, threshold=64, log_alpha=0.7, log_beta=3.2)
        )
        assert frag["power"]["threshold"] == 64
        frag = coefficients_to_json(ExpDecay(exp_A=0.1, exp_lambda=0.03, exp_C=0.001))
        assert frag["exp_decay"]["exp_lambda"] == 0.03

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            coefficients_to_json(object())

    @pytest.mark.parametrize(
        "coefficients, section, keys",
        [
            (PrefillLatencyCoeffs(a=1.0, b=2.0, c=3.0), "prefill_latency", "a b c"),
            (DecodeLatencyCoeffs(m=1.0, n=2.0), "decode_latency", "m n"),
            (
                PiecewisePowerModel(
                    floor_watts=5.0, threshold=64.0, log_alpha=1.0, log_beta=2.0, log10=True
                ),
                "power",
                "floor_watts threshold log_alpha log_beta log10",
            ),
            (
                PiecewiseEnergyModel(
                    threshold=64.0,
                    exp_A=1.0,
                    exp_lambda=0.1,
                    exp_C=0.01,
                    log_alpha=1.0,
                    log_beta=2.0,
                    unit=EnergyUnit.JOULES_PER_TOKEN,
                    log10=True,
                ),
                "energy",
                "threshold unit exp_A exp_lambda exp_C log_alpha log_beta log10",
            ),
            (LogCurve(log_alpha=1.0, log_beta=2.0), "log_curve", "log_alpha log_beta"),
            (ExpDecay(exp_A=1.0, exp_lambda=2.0, exp_C=3.0), "exp_decay", "exp_A exp_lambda exp_C"),
        ],
    )
    def test_key_order(self, coefficients, section, keys):
        # Pinned before the field-driven schema replaced the hand-written writers.
        frag = coefficients_to_json(coefficients)
        assert list(frag) == [section]
        assert list(frag[section]) == keys.split()

    def test_infinite_threshold_is_null_and_defaults_are_left_out(self):
        frag = coefficients_to_json(PiecewisePowerModel(floor_watts=5.0, threshold=math.inf))
        assert json.dumps(frag) == '{"power": {"floor_watts": 5.0, "threshold": null}}'
        frag = coefficients_to_json(
            PiecewiseEnergyModel(threshold=math.inf, exp_A=1.0, exp_lambda=0.1, exp_C=0.01)
        )
        assert list(frag["energy"]) == ["threshold", "unit", "exp_A", "exp_lambda", "exp_C"]
        assert frag["energy"]["unit"] == "fitted"
