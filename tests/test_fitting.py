import io
import json
import math
import random
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgeperf import fitting, profiles
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
from edgeperf.energy import piecewise_energy_value, piecewise_power_value
from edgeperf.latency import padded_length
from edgeperf.profiles import (
    DecodeLatencyCoeffs,
    EnergyUnit,
    MeasurementRecord,
    Phase,
    PiecewiseEnergyModel,
    PiecewisePowerModel,
    PrefillLatencyCoeffs,
    default_registry,
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

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(2, 60).flatmap(
            lambda n: st.tuples(
                st.one_of(
                    st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
                    st.floats(-1e3, 1e3).map(lambda c: [c] * n),
                    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).flatmap(
                        lambda two: st.lists(st.sampled_from(two), min_size=n, max_size=n)
                    ),
                ),
                st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
            )
        ),
        st.integers(-300, 100),
    )
    def test_one_row_fit_is_the_same_to_the_bit(self, rows, exponent):
        # General, constant and two-valued u; y scaled from 1e-300 to 1e100.
        u, y = np.array(rows[0]), np.array(rows[1]) * 10.0**exponent
        with np.errstate(all="ignore"):
            want = fitting._fit_two(u, y)
            got = fitting._fit_line(u, y, *fitting._centre(y))
        assert {type(v) for v in got} == {float}
        assert [v.hex() for v in got] == [float(v).hex() for v in want]


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

    def test_ill_conditioned_rows_take_the_svd_fallback(self, monkeypatch):
        # Five padded lengths near 1.28M: the column-scaled design has a
        # condition number of 2.5e8, past the normal equations' limit.
        a, b, c = 1.23e-6, 5.3e-4, 0.189
        rows = prefill_rows(a, b, c, range(1_280_000, 1_280_513, 128))
        solves = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            solves.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        result = fit_prefill_latency(rows)
        assert len(solves) == 1
        ipads = [padded_length(r.input_len) for r in rows]
        truth_sse = sum((a * i * i + b * i + c - r.latency) ** 2 for i, r in zip(ipads, rows))
        roundoff = 100 * len(rows) * (np.finfo(float).eps * max(r.latency for r in rows)) ** 2
        assert result.residual_sse <= truth_sse + roundoff

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


JUMP_GOLDEN_FITS = Path(__file__).parent / "data" / "piecewise_jump_golden.json"


def _logint(rng, lo, hi):
    return min(hi, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def jump_curve(seed, sigma=0.03):
    """A curve drawn as the benchmark's piecewise fit ops draw theirs, seeded.

    The truth is a shipped profile's prefill energy (even seeds) or decode
    power (odd seeds), with the jump its two branches make at the threshold;
    8-60 points, x log-uniform on each side (small x repeat), lognormal
    noise of ``sigma`` (3%), unsorted.
    """
    rng = random.Random(9100 + seed)
    n = rng.randint(8, 60)
    profiles = list(default_registry())
    if seed % 2 == 0:
        model = rng.choice([p.prefill_energy for p in profiles if math.isfinite(p.prefill_energy.threshold)])
        last_left, min_left = int(model.threshold), 5

        def truth(x):
            return piecewise_energy_value(model, x)
    else:
        model = rng.choice(profiles).decode_power
        last_left, min_left = int(model.threshold) - 1, 4

        def truth(x):
            return piecewise_power_value(model, x, inclusive=False)
    n_left = min(max(min_left, round(n * rng.uniform(0.3, 0.6))), n - 4)
    while True:
        left = [_logint(rng, 1, last_left) for _ in range(n_left)]
        right = [_logint(rng, last_left + 1, 8192) for _ in range(n - n_left)]
        if len(set(right)) >= 2:
            break
    return [(float(x), truth(x) * math.exp(rng.gauss(0.0, sigma))) for x in left + right]


def cliff_curve(seed, n, sigma=0.03):
    """An energy curve whose log side crosses zero, seeded: n points, x log-uniform on [1, 8192].

    The 1.5B prefill energy decay up to x=300, then 0.01233*ln x - 0.09, which
    is negative up to x=1480, as the shipped 1.5B decode energy's log fit,
    -0.060*ln x + 0.091, is past x=5; lognormal noise of ``sigma``, unsorted.
    """
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        x = math.exp(rng.uniform(0.0, math.log(8192)))
        y = 0.07308 * math.exp(-0.03195 * x) + 0.000923 if x <= 300 else 0.01233 * math.log(x) - 0.09
        points.append((x, y * math.exp(rng.gauss(0.0, sigma))))
    return points


def piecewise_outcome(fit, points, kind):
    """("ok", float.hex of every float field and the SSE) or (error type, message)."""
    try:
        result = fit(points, kind)
    except EdgeperfError as exc:
        return type(exc).__name__, str(exc)
    values = [v for v in vars(result.coefficients).values() if isinstance(v, float)]
    return "ok", [v.hex() for v in values + [result.residual_sse]]


def piecewise_bits(points):
    """The outcome of both piecewise fits, as the golden file holds it."""
    return {kind: list(piecewise_outcome(fit_piecewise, points, kind)) for kind in ("energy", "power")}


class TestJumpGoldenFile:
    """Bits of both piecewise fits on jump curves, recorded before the breakpoint scan was pruned."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(JUMP_GOLDEN_FITS.read_text())

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_bit_identical(self, golden, seed):
        assert piecewise_bits(jump_curve(seed)) == golden[str(seed)]


def _exp_decay_reference(x, y):
    """``fitting._exp_decay`` with one full ``_fit_two`` per probe, the form it must match bit for bit."""
    if np.any(y <= 0):
        raise InsufficientData("all y values must be positive")
    if len(set(x.tolist())) == 1:
        _, floor, sse = fitting._fit_two(np.zeros_like(y), y)
        return fitting._finite(0.0, 0.0, floor, sse)

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

    def test_one_or_two_distinct_x_fit_the_same(self):
        # Only fit_exp_decay asks for three distinct x; the decay branch of
        # fit_piecewise fits fewer.
        y = np.array([0.5, 0.4, 0.3, 0.2])
        two = outcome(fitting._exp_decay, np.array([1.0, 1.0, 2.0, 2.0]), y)
        assert two == outcome(_exp_decay_reference, np.array([1.0, 1.0, 2.0, 2.0]), y)
        assert two[0] == "ok"
        one = outcome(fitting._exp_decay, np.full(4, 0.1), y)
        assert one == outcome(_exp_decay_reference, np.full(4, 0.1), y)
        assert one[1][:3] == [0.0.hex(), 0.0.hex(), (y.sum() / 4).hex()]


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


@st.composite
def decay_curve(draw):
    """x and y as ``TestExpDecayReference`` draws them, some x past 1e300, or
    (one curve in five) every x past 1e300, where exp(-rate*x) underflows to 0
    and the fit takes its sxx == 0 branch."""
    n = draw(st.integers(3, 60))
    huge = st.floats(1e300, 1.7e308)
    x = huge if draw(st.integers(0, 4)) == 0 else st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 5000.0), huge)
    points = draw(st.lists(st.tuples(x, st.floats(1e-6, 1e3)), min_size=n, max_size=n))
    return np.array([p[0] for p in points]), np.array([p[1] for p in points])


def seeded_decay_curve(seed, n=40):
    """The 14B prefill energy decay at n log-uniform x in [1, 512], 3% lognormal noise."""
    rng = random.Random(seed)
    x = [float(round(math.exp(rng.uniform(0.0, math.log(512))))) for _ in range(n)]
    y = [(0.29327 * math.exp(-0.03058 * v) + 0.009234) * rng.lognormvariate(0.0, 0.03) for v in x]
    return np.array(x), np.array(y)


class TestProbeBatches:
    """``_exp_decay`` computes its golden-section probes in batches along a predicted path."""

    @settings(deadline=None, max_examples=200)
    @given(
        decay_curve(),
        st.lists(st.one_of(st.sampled_from([1e-5, 1.0]), st.floats(1e-5, 1.0)), min_size=1, max_size=20),
    )
    @example((np.array([1e300, 2e300, 3e300, 4e300]), np.array([1.0, 0.5, 0.2, 0.1])), [1e-5, 1.0])
    def test_each_row_is_the_one_row_fit_to_the_bit(self, curve, rates):
        x, y = curve
        y_mean, yc = fitting._centre(y)
        with np.errstate(all="ignore"):
            got = fitting._probe_sses(-x, y, y_mean, yc, rates)
            want = [fitting._fit_line(np.exp(-r * x), y, y_mean, yc)[2] for r in rates]
        assert {type(v) for v in got} == {float}
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.fixture
    def batches(self, monkeypatch):
        """The number of rates of every ``_probe_sses`` call, in call order."""
        calls = []
        probe = fitting._probe_sses

        def counted(neg_x, y, y_mean, yc, rates):
            calls.append(len(rates))
            return probe(neg_x, y, y_mean, yc, rates)

        monkeypatch.setattr(fitting, "_probe_sses", counted)
        return calls

    def test_batches_on_a_seeded_curve(self, batches):
        x, y = seeded_decay_curve(40)
        assert outcome(fitting._exp_decay, x, y) == outcome(_exp_decay_reference, x, y)
        # The search probes 29 rates, which the reference fits one at a time.
        # The first batch is c, d and 12 predicted rates; each later one is a
        # missing rate and up to 12 predicted, fewer where the predicted
        # search ends.
        assert batches == [14, 13, 12]

    @settings(deadline=None, max_examples=40)
    @given(decay_curve(), st.sampled_from([math.nan, 0.0, math.inf]))
    def test_a_wrong_guess_moves_no_bit(self, curve, value):
        # A guess that is always nan, 0 or inf predicts the wrong path at
        # every step past the first; the search still compares only computed SSEs.
        x, y = curve
        with mock.patch.object(fitting, "_parabola", lambda *points: lambda rate: value):
            assert outcome(fitting._exp_decay, x, y) == outcome(_exp_decay_reference, x, y)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.floats(1e-5, 1.0), min_size=4, max_size=4, unique=True),
        st.lists(st.floats(), min_size=3, max_size=3),
    )
    def test_the_guess_never_raises(self, rates, sses):
        # Distinct rates keep every divisor nonzero, and an inf or nan SSE
        # only gives an inf or nan guess.
        guess = fitting._parabola(rates[0], sses[0], rates[1], sses[1], rates[2], sses[2])
        assert isinstance(guess(rates[3]), float)


# Prefill energy per token drawn from a shipped profile with 3% lognormal
# noise, as perfbench's fit-batch workload draws it (seeds 3, 17 and 19).
SEEDED_ENERGY_CURVES = {
    "seed3": ("dsr1-llama-8b-w4", [
        (2, 0.0859326063246858), (2, 0.08278193944085001), (2, 0.08480908364497125),
        (2, 0.08437683981161773), (63, 0.0036834697089473695), (2566, 0.012607281618211567),
        (2151, 0.010822090373389154), (2269, 0.010969298473323603), (4547, 0.016065422364751232),
        (5821, 0.01764799291843789), (4477, 0.0149583298445794), (3979, 0.014363086085000311),
        (1762, 0.00933727112105885),
    ]),
    "seed17": ("dsr1-llama-8b-w4", [
        (254, 0.0035450842188986683), (2, 0.08342030775954414), (2, 0.08403025454028318),
        (2, 0.08359879445095733), (7349, 0.01940721552928953), (3283, 0.013809639584565235),
        (8056, 0.018574391606594878), (3591, 0.013527343219773042),
    ]),
    "seed19": ("dsr1-llama-8b", [
        (2, 0.15430261644522586), (2, 0.15109204189901332), (534, 0.005840983485443498),
        (2, 0.16207896586256065), (4514, 0.03026529104752688), (6327, 0.038067013426727365),
        (1191, 0.013700091896957561), (4403, 0.03072812633235286),
    ]),
}


@np.errstate(all="ignore")
def _piecewise_reference(points, kind):
    """``fit_piecewise`` with every breakpoint's fits run, the scan its pruning must match bit for bit.

    It takes the fitters' domain from ``fitting._curve`` and applies the tie
    rule itself, over every total: the least wins, or among the totals within
    1e-15 of it, the first in x order.
    """
    pts = sorted(points)
    xs, ys = fitting._curve(pts, kind)
    log_xs = np.log(xs)

    def left_fit(n):
        if kind == "power":
            _, floor, sse = fitting._finite(*fitting._fit_two(np.zeros(n), ys[:n]))
            return sse, {"floor_watts": floor}
        amp, lam, floor, sse = fitting._exp_decay(xs[:n], ys[:n])
        return sse, {"exp_A": amp, "exp_lambda": lam, "exp_C": floor}

    fits = []  # in x order
    for n in range(4 if kind == "energy" else 3, len(xs) - 2):
        bp = float(xs[n - 1])
        if bp == xs[n] or xs[n] == xs[-1] or xs[n] <= 0:
            continue
        try:
            sse_l, left = left_fit(n)
        except InsufficientData:
            continue
        alpha, beta, sse_r = fitting._finite(*fitting._fit_two(log_xs[n:], ys[n:]))
        fits.append((sse_l + sse_r, bp, left, {"log_alpha": alpha, "log_beta": beta}))
    best = None
    if fits:
        least = min(fit[0] for fit in fits)
        best = next(fit for fit in fits if not least < fit[0] - 1e-15)
    try:
        single = left_fit(len(xs))
    except InsufficientData:
        if best is None:
            raise
        single = None
    if single is not None and (best is None or single[0] <= best[0] + 1e-15):
        best = (single[0], math.inf, single[1], {})
    sse, threshold, left, right = best
    (sse,) = fitting._finite(sse)
    model = PiecewisePowerModel if kind == "power" else PiecewiseEnergyModel
    return fitting.FitResult(model(threshold=threshold, **left, **right), sse, len(pts))


@st.composite
def piecewise_points(draw, kind):
    """6-30 points inside the fitters' domain for ``kind``: decay-like or
    arbitrary y at scales from 1e-300 to 4e99 (|y| <= 2.1 * 4e99 < 1e100),
    left sides with tied, huge or only two distinct x (negative x too for
    power), an occasional y <= 0."""
    n_left, n_right = draw(st.integers(2, 14)), draw(st.integers(4, 16))
    left_xs = draw(
        st.one_of(
            st.lists(st.sampled_from([2.0, 7.0]), min_size=n_left, max_size=n_left),
            st.lists(st.integers(0 if kind == "energy" else -40, 40).map(float), min_size=n_left, max_size=n_left),
            st.lists(st.floats(0.0, 500.0), min_size=n_left, max_size=n_left),
            st.lists(st.floats(0.0, 1e300), min_size=n_left, max_size=n_left),
        )
    )
    right_xs = draw(
        st.lists(
            st.one_of(st.integers(500, 510).map(float), st.floats(500.0, 5000.0)),
            min_size=n_right,
            max_size=n_right,
        )
    )
    scale = draw(st.sampled_from([1.0, 1.0, 1e-300, 4e99]))
    decay = draw(st.booleans())
    points = []
    for x in left_xs + right_xs:
        y = draw(st.floats(0.5, 2.0)) * (math.exp(-min(abs(x), 500.0) / 60.0) + 0.05 if decay else 1.0)
        if draw(st.integers(0, 19)) == 0:
            y = -y
        points.append((x, y * scale))
    return points


# Sorted, the run at x=500 holds y = -1 six times and then 2. Merged into the
# bounds one point at a time, reversed or negated, that run over-merges and
# the bound rises above the power curve's best fit.
RUN_ORDER_TRAP = (
    [(2.0, -1.0)] * 10
    + [(7.0, -1.0), (501.0, 1.0), (500.0, -1.0), (500.0, -1.0), (500.0, 2.0)]
    + [(500.0, -1.0)] * 4
)


def large_curve(kind, n, seed=1, sigma=0.01):
    """n points at x = 1..n: a 5.9 floor (power), or a decay to it (energy), up to x = n/5, then 0.75 ln x + 3.2.

    Gaussian noise of ``sigma``, seeded; sorted by x.
    """
    rng = random.Random(seed)
    points = []
    for x in range(1, n + 1):
        left = 5.9 if kind == "power" else 5.9 + 0.5 * math.exp(-20 * x / n)
        points.append((float(x), (left if x <= n // 5 else 0.75 * math.log(x) + 3.2) + rng.gauss(0.0, sigma)))
    return points


def _stress_huge_mean():
    # Noise of 1e-9 on a mean of 1e6: the centred sums are a few ulps of the
    # mean, and the uncentred sums 1e30 times larger.
    rng = random.Random(1)
    return [(float(x), 1e6 + (0.0 if x <= 40 else 1e-7 * math.log(x)) + rng.gauss(0.0, 1e-9)) for x in range(1, 201)]


def _stress_equal_runs():
    # Runs of 30 equal x on both sides, with noise and without.
    rng = random.Random(2)
    points = []
    for x in (1.0, 2.0, 3.0, 500.0, 900.0, 901.0, 4000.0):
        for _ in range(30):
            y = (0.1 if x < 100 else 0.01 * math.log(x)) * math.exp(rng.gauss(0.0, 0.01 if x != 900.0 else 0.0))
            points.append((x, y))
    return points


def _stress_wide_log():
    # The log side spans x from 1e-300 to 1e300, so ln x spans -691 to 691,
    # with a few neighbouring floats whose logs are equal or one ulp apart.
    rng = random.Random(3)
    xs = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(150)]
    xs += [1e300, math.nextafter(1e300, math.inf), 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
    left = [(-float(i), 2.0 * math.exp(rng.gauss(0.0, 0.01))) for i in range(40)]
    return left + [(x, 0.002 * math.log(x) + 3.0 + rng.gauss(0.0, 0.01)) for x in xs]


def _stress_near_1e100():
    # y within a factor 1.0001 of the 1e100 bound, the floor and decay left
    # of x = 300 and a log right of it.
    rng = random.Random(4)
    points = []
    for _ in range(200):
        x = round(math.exp(rng.uniform(0.0, math.log(8192))))
        shape = math.exp(-x / 100.0) + 0.05 if x <= 300 else 0.01 * math.log(x)
        points.append((float(x), 1e100 * min(1.0, 0.9 * shape / 1.05 * math.exp(rng.gauss(0.0, 1e-4)))))
    return points


MARGIN_STRESS = {
    "huge mean": _stress_huge_mean,
    "equal runs": _stress_equal_runs,
    "wide log": _stress_wide_log,
    "near 1e100": _stress_near_1e100,
}


@np.errstate(all="ignore")
def check_bounds(points, candidates_only=False):
    """Assert that each bound of ``fit_piecewise`` is at most the SSE of the fit it bounds; the number checked.

    The floor and decay bounds over every prefix and the log bound over
    every suffix of the sorted points, or only at the candidate breakpoints.
    """
    pts = sorted(points)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    size, checked = len(pts), 0
    log_xs = np.log(xs)
    right = fitting._moment_bounds(ys[::-1], log_xs[::-1])[::-1]
    assert len(right) == size + 1
    for kind in ("energy", "power"):
        if kind == "power":
            left = fitting._moment_bounds(ys)
        else:
            left = fitting._nonincreasing_bounds(xs.tolist(), ys.tolist())
        assert len(left) == size + 1
        for n in range(1, size + 1):
            candidate = n >= (4 if kind == "energy" else 3) and (
                n == size or not (xs[n - 1] == xs[n] or xs[n] == xs[-1] or xs[n] <= 0 or n > size - 3)
            )
            if candidates_only and not candidate:
                continue
            if left[n] < math.inf:
                if kind == "power":
                    sse = fitting._fit_two(np.zeros(n), ys[:n])[2]
                else:
                    sse = fitting._exp_decay(xs[:n], ys[:n])[3]
                assert left[n] <= sse
                checked += 1
            else:  # the decay fit of a prefix with a y <= 0 raises
                assert kind == "energy" and min(ys[:n]) <= 0
            if n < size and kind == "power" and xs[n] > 0:
                assert right[n] <= fitting._fit_two(log_xs[n:], ys[n:])[2]
                checked += 1
    return checked


class TestPiecewisePruning:
    """The pruned breakpoint scan against the full one it replaced."""

    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from(["energy", "power"]).flatmap(lambda kind: st.tuples(piecewise_points(kind), st.just(kind))))
    def test_same_outcome_as_the_full_scan(self, case):
        points, kind = case
        assert piecewise_outcome(fit_piecewise, points, kind) == piecewise_outcome(
            _piecewise_reference, points, kind
        )

    @pytest.fixture
    def decay_fits(self, monkeypatch):
        """The number of points of every ``_exp_decay`` call, in call order."""
        calls = []
        decay = fitting._exp_decay

        def counted(x, y):
            calls.append(len(x))
            return decay(x, y)

        monkeypatch.setattr(fitting, "_exp_decay", counted)
        return calls

    def test_the_bound_skips_decay_fits(self, decay_fits):
        points = jump_curve(8)
        want = _piecewise_reference(points, "energy")
        full, decay_fits[:] = list(decay_fits), []
        assert fit_piecewise(points, "energy") == want
        # 43 candidates and the single-branch fit over all 50 points, of
        # which the best-first scan runs 1 left fit (the x-order scan ran
        # 14), the winner's, and not the single-branch one.
        assert (len(points), len(full), len(decay_fits)) == (50, 44, 1)
        assert 50 in full and 50 not in decay_fits

    @pytest.mark.parametrize("kind", ["energy", "power"])
    def test_a_run_of_equal_x_is_pooled_whatever_its_order(self, kind):
        assert piecewise_outcome(fit_piecewise, RUN_ORDER_TRAP, kind) == piecewise_outcome(
            _piecewise_reference, RUN_ORDER_TRAP, kind
        )

    @settings(deadline=None, max_examples=40)
    @given(st.integers(40, 2**32), st.sampled_from([0.03, 0.0]))
    @pytest.mark.parametrize("kind", ["energy", "power"])
    def test_jump_curves_match_the_full_scan(self, kind, seed, sigma):
        # Curves like the benchmark's: x >= 1, every |y| <= 1e100 and, nearly
        # always, every y > 0, so that every candidate has a bound and the
        # best-first scan runs.
        points = jump_curve(seed, sigma)
        assert piecewise_outcome(fit_piecewise, points, kind) == piecewise_outcome(
            _piecewise_reference, points, kind
        )

    def test_decay_fits_over_the_jump_golden_curves(self, decay_fits):
        for seed in GOLDEN_SEEDS:
            fit_piecewise(jump_curve(seed), "energy")
        # The full scan runs 1169 decay fits over these 40 curves and the
        # x-order branch and bound 518.
        assert len(decay_fits) == 126

    @pytest.fixture
    def branch_fits(self, monkeypatch):
        """The number of points of every floor and log fit, in call order.

        These are the one-row fits that ``fit_piecewise`` runs itself; those
        that ``_exp_decay`` runs are not counted.
        """
        calls = []
        line, decay = fitting._fit_line, fitting._exp_decay

        def counted(u, y, y_mean, yc):
            calls.append(len(y))
            return line(u, y, y_mean, yc)

        def uncounted(x, y):
            before = len(calls)
            try:
                return decay(x, y)
            finally:
                del calls[before:]

        monkeypatch.setattr(fitting, "_fit_line", counted)
        monkeypatch.setattr(fitting, "_exp_decay", uncounted)
        return calls

    @pytest.mark.parametrize("kind, fits", [("energy", 126), ("power", 80)])
    def test_branch_fits_over_the_jump_golden_curves(self, branch_fits, kind, fits):
        for seed in GOLDEN_SEEDS:
            fit_piecewise(jump_curve(seed), kind)
        # The full scan runs 1124 log fits for energy and 2344 floor and log
        # fits for power over these 40 curves; with monotone (PAVA) bounds on
        # the floor and log branches the scan ran 436 and 377.
        assert len(branch_fits) == fits

    @pytest.mark.parametrize("kind, fits, decays", [("energy", 1, 1), ("power", 2, 0)])
    def test_branch_fits_on_a_16000_point_curve(self, decay_fits, branch_fits, kind, fits, decays):
        # Monotone bounds on the floor and log branches ran 3061 log fits
        # (energy) and 3200 floor and log fits (power) here.
        got = fit_piecewise(large_curve(kind, 16_000), kind)
        assert (len(branch_fits), len(decay_fits)) == (fits, decays)
        assert got.coefficients.threshold == 3200.0

    def test_a_near_tie_goes_to_the_smaller_breakpoint(self, decay_fits):
        # Noise-free and continuous at 2448: the breakpoints 1744 and 2448 both
        # fit exactly, so their totals tie within 1e-15. The least total is
        # 2448's, but the tie goes to the smaller breakpoint, 1744.
        xs = [392, 488, 1032, 1744, 2448, 2632, 3240, 3496]

        def left(x):
            return 0.16 * math.exp(-0.05 * x) + 0.003

        beta = left(2448) - 0.015 * math.log(2448)
        points = [(float(x), left(x) if x <= 2448 else 0.015 * math.log(x) + beta) for x in xs]
        got = fit_piecewise(points, "energy")
        assert len(decay_fits) == len(set(decay_fits))  # each left fit runs once
        assert got == _piecewise_reference(points, "energy")
        assert got.coefficients.threshold == 1744.0

    @pytest.mark.parametrize("where", ["negative x", "y <= 0 past a candidate"])
    def test_an_unbounded_candidate_takes_the_x_order_scan(self, decay_fits, where):
        # Neither case takes an x-order scan any more. A negative x is outside
        # the energy fit's domain. A candidate past the first y <= 0 has a
        # +inf left bound and is left out of the sorted pass.
        points = sorted(jump_curve(8))
        if where == "negative x":
            points[0] = (-1.0, points[0][1])
            with pytest.raises(DegenerateDesign, match="x >= 0"):
                fit_piecewise(points, "energy")
            with pytest.raises(DegenerateDesign, match="x >= 0"):
                _piecewise_reference(points, "energy")
            assert decay_fits == []
            return
        points[40] = (points[40][0], -points[40][1])
        want = _piecewise_reference(points, "energy")
        reference, decay_fits[:] = list(decay_fits), []
        assert fit_piecewise(points, "energy") == want
        assert want.coefficients.threshold == 336.0
        # The reference runs 44 decay fits; the best-first scan runs the winner's.
        assert (len(reference), len(decay_fits)) == (44, 1)

    def test_a_nan_x_takes_the_x_order_scan(self):
        # A nan x once sent the scan to the x-order loop; it is now outside the
        # domain. A floor to x=16, then a log curve below it, with a nan x that
        # stays between 14 and 15 when sorted.
        points = [(float(x), 5.0) for x in range(1, 17)] + [(float(x), 0.9 * math.log(x) - 0.5) for x in range(17, 21)]
        points.insert(14, (math.nan, 5.0))
        want = piecewise_outcome(_piecewise_reference, points, "power")
        assert want[0] == "DegenerateDesign" and "not finite" in want[1]
        assert piecewise_outcome(fit_piecewise, points, "power") == want

    @pytest.mark.parametrize("kind", ["energy", "power"])
    def test_a_curve_at_the_1e101_scale_is_refused(self, decay_fits, kind):
        # piecewise_points no longer draws a y scale past 1e100; an energy x
        # < 0, which it no longer draws either, has its own tests above and
        # in TestDomain.
        xs = [3.0, 0.0, 2.0, 7.0, 7.0, 12.0, 500.0, 503.0, 900.0, 2500.0]
        points = [(x, (math.exp(-min(x, 500.0) / 60.0) + 0.05) * 1e101) for x in xs]
        want = piecewise_outcome(_piecewise_reference, points, kind)
        assert want[0] == "DegenerateDesign" and "1e100" in want[1]
        assert piecewise_outcome(fit_piecewise, points, kind) == want
        assert decay_fits == []

    def test_a_huge_y_is_refused_before_any_fit(self, decay_fits):
        # Every y but the last is positive and <= 1e100; the last, -1e300,
        # would make every log fit's SSE overflow.
        points = sorted(jump_curve(8))
        points[-1] = (points[-1][0], -1e300)
        want = piecewise_outcome(_piecewise_reference, points, "energy")
        decay_fits[:] = []
        assert want[0] == "DegenerateDesign"
        assert piecewise_outcome(fit_piecewise, points, "energy") == want
        assert decay_fits == []  # raised before any decay fit ran

    def test_the_bound_is_not_above_any_decay_fit(self):
        # Every finite left and right bound, at every candidate, against the
        # floor, decay and log fits it bounds, and the left bound against the
        # single-branch fit.
        checked = 0
        curves = [jump_curve(seed) for seed in GOLDEN_SEEDS] + [cliff_curve(seed, 60) for seed in range(10)]
        for points in curves + [RUN_ORDER_TRAP]:
            checked += check_bounds(points, candidates_only=True)
        assert checked > 4000
        # Decay prefixes are +inf from the first y <= 0 on, where a decay fit raises.
        bounds = fitting._nonincreasing_bounds([1.0, 2.0, 3.0], [3.0, -1.0, 2.0])
        assert len(bounds) == 4 and bounds[2:] == [math.inf, math.inf]

    @pytest.mark.parametrize("stress", sorted(MARGIN_STRESS))
    def test_the_margins_hold_on_stress_curves(self, stress):
        # Every entry of every bound, candidate or not, against the fit it
        # bounds, and the pruned scan against the full one.
        points = MARGIN_STRESS[stress]()
        assert check_bounds(points) > 100
        for kind in ("energy", "power"):
            assert piecewise_outcome(fit_piecewise, points, kind) == piecewise_outcome(
                _piecewise_reference, points, kind
            )

    def test_large_curves_match_the_full_scan(self):
        # About 2000 points each, seeded, until a few seconds are spent; the
        # energy reference runs one decay fit per candidate, so its curves
        # are shorter.
        start, seed, done = time.perf_counter(), 0, set()
        while time.perf_counter() - start < 4.0 or len(done) < 2:
            kind = ("power", "energy")[seed % 2]
            rng = random.Random(seed)
            n = rng.randint(1800, 2200) if kind == "power" else rng.randint(300, 500)
            points = large_curve(kind, n, seed, sigma=rng.choice([0.01, 0.3, 0.0]))
            rng.shuffle(points)
            assert piecewise_outcome(fit_piecewise, points, kind) == piecewise_outcome(
                _piecewise_reference, points, kind
            )
            done.add(kind)
            seed += 1

    def test_a_cliff_curve_runs_one_decay_fit(self, decay_fits):
        # The log side crosses zero, as the shipped 1.5B decode energy does:
        # every candidate past the first y <= 0 has a +inf bound. The x-order
        # scan that such a curve used to take ran 995 decay fits here.
        fit_piecewise(cliff_curve(1, 1000), "energy")
        assert len(decay_fits) == 1
        points = cliff_curve(1, 200)
        assert min(y for _, y in points) <= 0
        assert piecewise_outcome(fit_piecewise, points, "energy") == piecewise_outcome(
            _piecewise_reference, points, "energy"
        )

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32), st.integers(8, 60), st.sampled_from([0.03, 0.0]))
    @pytest.mark.parametrize("kind", ["energy", "power"])
    def test_cliff_curves_match_the_full_scan(self, kind, seed, n, sigma):
        # In the domain, with a log side that crosses zero: the energy scan
        # meets candidates whose left bound is +inf, the power scan y <= 0.
        points = cliff_curve(seed, n, sigma)
        assert piecewise_outcome(fit_piecewise, points, kind) == piecewise_outcome(
            _piecewise_reference, points, kind
        )

    def test_exp_is_monotone(self):
        # The decay bound holds because exp(-lambda*x) never rises along
        # sorted x; ln x never falls either.
        t = np.sort(np.random.default_rng(5).uniform(-746.0, 0.0, 100_000))
        assert np.all(np.exp(t) <= np.exp(np.nextafter(t, 0.0)))
        assert np.all(np.diff(np.exp(t)) >= 0)
        x = np.sort(10.0 ** np.random.default_rng(6).uniform(-300.0, 300.0, 100_000))
        assert np.all(np.log(x) <= np.log(np.nextafter(x, np.inf)))
        assert np.all(np.diff(np.log(x)) >= 0)


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

    def test_energy_left_side_with_two_distinct_x(self):
        # Breakpoint 64 leaves four points on two distinct x. A decay passes
        # through both, so that breakpoint fits every point.
        points = [(16, 0.1), (16, 0.1), (16, 0.1), (64, 0.02)] + [
            (x, 0.016 * math.log(x) - 0.05) for x in (256, 512, 1024, 2048)
        ]
        result = fit_piecewise(points, kind="energy")
        assert result.coefficients.threshold == 64
        assert result.residual_sse < 1e-20

    @pytest.mark.parametrize("model, points", SEEDED_ENERGY_CURVES.values(), ids=list(SEEDED_ENERGY_CURVES))
    def test_energy_fit_beats_the_generating_model(self, model, points):
        # The left side has one or two distinct x; skipping those breakpoints
        # left a fit worse than the coefficients the points were drawn from.
        truth = default_registry().get(model).prefill_energy
        truth_sse = math.fsum((piecewise_energy_value(truth, x) - y) ** 2 for x, y in points)
        assert fit_piecewise(points, kind="energy").residual_sse <= truth_sse

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


class TestDomain:
    """The curve fitters refuse a point outside their domain, and the parent code did not."""

    def test_a_nan_x_never_becomes_the_threshold(self):
        # The nan sorts to index 2, where it used to pass as a breakpoint with SSE 0.
        points = [(1.0, 5.0), (2.0, 5.0), (math.nan, 5.0)] + [(float(x), 0.9 * math.log(x) + 3) for x in range(20, 27)]
        with pytest.raises(DegenerateDesign, match="not finite"):
            fit_piecewise(points, kind="power")

    def test_a_y_past_1e100_is_refused(self):
        # This power curve used to fit, with its breakpoint at 7.
        points = [(float(x), 5.0) for x in range(1, 8)] + [(float(x), 0.9 * math.log(x) + 3) for x in range(20, 27)]
        points[7] = (20.0, 5e100)
        for fit in (fit_exp_decay, fit_log_curve, lambda p: fit_piecewise(p, kind="power")):
            with pytest.raises(DegenerateDesign, match="1e100"):
                fit(points)
        points[7] = (20.0, 1e100)
        assert fit_piecewise(points, kind="power").coefficients.threshold == 7.0

    def test_an_energy_x_below_zero_is_refused(self):
        points = [(float(x), 0.29 * math.exp(-0.03 * x) + 0.009) for x in (16, 32, 64, 128, 256)]
        points += [(float(x), 0.016 * math.log(x) - 0.07) for x in (512, 1024, 2048, 4096)]
        points[0] = (-16.0, points[0][1])
        with pytest.raises(DegenerateDesign, match=r"x >= 0, found -16\.0"):
            fit_piecewise(points, kind="energy")
        fit_piecewise(points, kind="power")  # a floor fits any x

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_log_curve_point_below_min_x_is_still_checked(self, bad):
        points = [(float(x), 0.5 * math.log(x)) for x in (2, 4, 8)] + [(0.5, bad)]
        with pytest.raises(DegenerateDesign, match="not finite"):
            fit_log_curve(points)
        assert fit_log_curve(points[:3]).points_used == 3


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

    def test_same_bits_as_the_numpy_mean(self):
        rng = random.Random(11)
        preds = [rng.uniform(0.5, 2.0) for _ in range(300)]
        actuals = [rng.uniform(0.5, 2.0) for _ in range(300)]
        errors = [abs(p - a) / abs(a) for p, a in zip(preds, actuals)]
        assert mape(preds, actuals).hex() == (100.0 * float(np.mean(errors))).hex()

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(st.sampled_from([7, 8, 9, 127, 128, 129, 136, 256]), st.integers(1, 3000)),
        st.integers(-1074, 1024),
        st.integers(0, 80),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_pairwise_mean_matches_numpy(self, n, low, width, signed, seed):
        # Magnitudes 2**low to 2**(low + width): subnormal at the bottom of
        # the range, overflowing to inf at the top.
        rng = random.Random(seed)
        top = min(low + width, 1024)
        values = [
            (rng.choice((-1.0, 1.0)) if signed else 1.0) * math.ldexp(rng.random(), rng.randint(low, top))
            for _ in range(n)
        ]
        with np.errstate(all="ignore"):
            expected = float(np.mean(values))
        assert (profiles._pairwise_sum(values) / n).hex() == expected.hex()


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
                PiecewisePowerModel(floor_watts=5.0, threshold=64.0, log_alpha=1.0, log_beta=2.0),
                "power",
                "floor_watts threshold log_alpha log_beta",
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
                ),
                "energy",
                "threshold unit exp_A exp_lambda exp_C log_alpha log_beta",
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
