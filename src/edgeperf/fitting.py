"""Coefficient estimation from measurement records, plus MAPE scoring.

All fits are least squares. The two latency fits (the prefill quadratic and
the decode (m, n) pair) solve column-scaled normal equations and fall back to
an SVD solve when the design is badly conditioned. Every other fit reduces to
y ~ p*u + q for a known u, solved in closed form by ``_fit_two``: the log
curve with u = ln x, the piecewise floor with a constant u, and the
exponential decay with u = exp(-lambda*x) at each candidate rate (variable
projection, Golub and Pereyra 1973). ``_exp_decay`` scans the rate on
``_rate_grid()``, a read-only geometric grid built once, on first use, in
one vectorised ``_fit_two`` pass, and refines it by golden section. Each
golden-section probe does ``_fit_two``'s operations for one row in the same
order, so its SSE is the same to the bit, but it keeps the scalars as Python
floats and shares y's mean and centred copy with every probe of the call,
which halves its cost. ``_exp_decay`` works on arrays, and both
``fit_exp_decay`` and the decay branch of ``fit_piecewise`` call it. No
public fitter calls another.

Every coefficient and SSE is returned as a finite plain ``float``; a fit that
would be non-finite raises ``DegenerateDesign`` instead.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DegenerateDesign,
    DomainError,
    InsufficientData,
    LengthMismatch,
    NoDecayDetectedWarning,
    ZeroActual,
)
from .latency import padded_length
from .profiles import (
    DecodeLatencyCoeffs,
    MeasurementRecord,
    Phase,
    PiecewiseEnergyModel,
    PiecewisePowerModel,
    PrefillLatencyCoeffs,
    to_json,
)

Coefficients = Union[
    PrefillLatencyCoeffs,
    DecodeLatencyCoeffs,
    PiecewisePowerModel,
    PiecewiseEnergyModel,
    "LogCurve",
    "ExpDecay",
]

# Design-matrix condition estimate above which the normal equations are
# abandoned for an orthogonal (SVD) solve.
_COND_LIMIT = 1e8


@functools.cache
def _rate_grid() -> np.ndarray:
    """The decay rates that ``_exp_decay`` scans before its golden-section search.

    Built on first use rather than at import, so a process that imports this
    module without fitting does not pay for it in start-up time or memory,
    and read-only, since every later call shares it.
    """
    grid = np.geomspace(1e-5, 1.0, 80)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class LogCurve:
    """y = log_alpha * ln(x) + log_beta."""

    log_alpha: float
    log_beta: float


@dataclass(frozen=True)
class ExpDecay:
    """y = exp_A * exp(-exp_lambda * x) + exp_C."""

    exp_A: float
    exp_lambda: float
    exp_C: float


@dataclass(frozen=True)
class FitResult:
    coefficients: Coefficients
    residual_sse: float
    points_used: int


def _finite(*values) -> list[float]:
    """The values as plain floats; DegenerateDesign if any is nan or infinite.

    The public fitters run with numpy's floating-point warnings off
    (``np.errstate``), so an overflow surfaces here and not as a warning.
    """
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
        raise DegenerateDesign("the fit is not finite; the measurements are out of range")
    return out


def _solve_least_squares(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Column-scaled normal equations with an SVD fallback for bad conditioning."""
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0] = 1.0
    scaled = design / scale
    if np.linalg.cond(scaled) > _COND_LIMIT:
        coef, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    else:
        gram = scaled.T @ scaled
        coef = np.linalg.solve(gram, scaled.T @ y)
    coef = coef / scale
    residuals = design @ coef - y
    return coef, float(residuals @ residuals)


def _fit_two(u: np.ndarray, y: np.ndarray):
    """Least squares for y ~ p*u + q in closed form, one fit per row of ``u``.

    Centred sums keep the slope accurate, and the SSE is summed from the
    explicit residuals. A constant row has du = 0, so sxy = 0 and p = 0/1:
    the constant fit q = mean(y). Returns (p, q, sse), shaped like u[..., 0].
    The rate grid, the log fits and the constant floor call it; the
    golden-section probe in ``_exp_decay`` repeats its one-row case.
    """
    n = u.shape[-1]
    u_mean = u.sum(axis=-1, keepdims=True) / n  # what mean() computes, without its overhead
    du = u - u_mean
    y_mean = y.sum() / n
    sxx = (du * du).sum(axis=-1)
    p = (du @ (y - y_mean)) / (sxx + (sxx == 0))
    q = y_mean - p * u_mean[..., 0]
    residuals = y - (p[..., None] * u + q[..., None])
    return p, q, (residuals * residuals).sum(axis=-1)


@np.errstate(all="ignore")
def fit_prefill_latency(records: Iterable[MeasurementRecord]) -> FitResult:
    """Fit the quadratic prefill model on padded lengths.

    Only prefill rows whose input length is a multiple of 64 participate, and
    each input length is replaced by its padded length before the regression.
    """
    rows = [
        r
        for r in records
        if r.phase is Phase.PREFILL and r.input_len % 64 == 0
    ]
    ipad = np.array([padded_length(r.input_len) for r in rows], dtype=np.float64)
    if len(set(ipad.tolist())) < 3:
        raise InsufficientData(
            f"need >= 3 distinct padded lengths, found {len(set(ipad.tolist()))}"
        )
    y = np.array([r.latency for r in rows], dtype=np.float64)
    design = np.column_stack([ipad**2, ipad, np.ones_like(ipad)])
    coef, sse = _solve_least_squares(design, y)
    a, b, c, sse = _finite(*coef, sse)
    return FitResult(
        coefficients=PrefillLatencyCoeffs(a=a, b=b, c=c),
        residual_sse=sse,
        points_used=len(rows),
    )


@np.errstate(all="ignore")
def fit_decode_latency(records: Iterable[MeasurementRecord]) -> FitResult:
    """Fit (m, n) by least squares on [O, I*O + O*(O-1)/2] with no intercept."""
    rows = [r for r in records if r.phase is Phase.DECODE and r.output_len > 0]
    feats = [
        (float(r.output_len), r.input_len * r.output_len + r.output_len * (r.output_len - 1) / 2)
        for r in rows
    ]
    if len(set(feats)) < 2:
        raise InsufficientData(f"need >= 2 distinct decode feature rows, found {len(set(feats))}")
    design = np.array([[f[1], f[0]] for f in feats], dtype=np.float64)
    if np.linalg.matrix_rank(design) < 2:
        raise DegenerateDesign("decode features are collinear")
    y = np.array([r.latency for r in rows], dtype=np.float64)
    coef, sse = _solve_least_squares(design, y)
    m, n, sse = _finite(*coef, sse)
    return FitResult(
        coefficients=DecodeLatencyCoeffs(m=m, n=n),
        residual_sse=sse,
        points_used=len(rows),
    )


@np.errstate(all="ignore")
def fit_log_curve(points: Sequence[tuple[float, float]], min_x: float = 1.0) -> FitResult:
    """Fit y = alpha*ln(x) + beta over points with x >= min_x."""
    kept = [(x, y) for x, y in points if x >= min_x]
    if len({x for x, _ in kept}) < 2:
        raise InsufficientData(
            f"need >= 2 distinct x >= {min_x}, found {len({x for x, _ in kept})}"
        )
    x = np.array([p[0] for p in kept], dtype=np.float64)
    y = np.array([p[1] for p in kept], dtype=np.float64)
    alpha, beta, sse = _finite(*_fit_two(np.log(x), y))
    return FitResult(
        coefficients=LogCurve(log_alpha=alpha, log_beta=beta),
        residual_sse=sse,
        points_used=len(kept),
    )


def _exp_decay(x: np.ndarray, y: np.ndarray) -> list[float]:
    """(A, lambda, C, SSE) of y = A*exp(-lambda*x) + C, fitted over arrays.

    Needs at least three distinct x and every y positive. For a fixed rate,
    (A, C) is a two-parameter linear fit in closed form; the rate is scanned
    on ``_rate_grid()`` in one pass, then refined by golden section around
    the best grid cell. A nonpositive best amplitude gives the constant fit,
    with A = lambda = 0.
    """
    distinct = len(set(x.tolist()))
    if distinct < 3:
        raise InsufficientData(f"need >= 3 distinct x, found {distinct}")
    if np.any(y <= 0):
        raise InsufficientData("all y values must be positive")

    # One golden-section probe: _fit_two's operations for one row, in the
    # same order on the same arrays, with the scalars as Python floats and
    # y's mean and centred copy shared by every probe. Python float
    # arithmetic ignores np.errstate but never raises here: it overflows to
    # inf, carries nan, and the (sxx == 0) term keeps the divisor nonzero.
    n = len(y)
    y_mean = float(np.add.reduce(y)) / n
    yc = y - y_mean

    def fit_at(lam: float) -> tuple[float, float, float]:
        u = np.exp(-lam * x)
        u_mean = float(np.add.reduce(u)) / n
        du = u - u_mean
        sxx = float(np.add.reduce(du * du))
        p = float(du @ yc) / (sxx + (sxx == 0))
        q = y_mean - p * u_mean
        residuals = y - (p * u + q)
        return p, q, float(np.add.reduce(residuals * residuals))

    grid = _rate_grid()
    best = int(np.argmin(_fit_two(np.exp(-np.outer(grid, x)), y)[2]))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, len(grid) - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = fit_at(c)[2]
    fd = fit_at(d)[2]
    while (b - a) > 1e-6 * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fit_at(c)[2]
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fit_at(d)[2]
    lam = (a + b) / 2.0
    amp, floor, sse = fit_at(lam)
    if amp <= 0:
        amp, lam = 0.0, 0.0
        _, floor, sse = _fit_two(np.zeros_like(y), y)
    return _finite(amp, lam, floor, sse)


@np.errstate(all="ignore")
def fit_exp_decay(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit y = A*exp(-lambda*x) + C (``_exp_decay``) over at least four points.

    Warns when the fit collapses to the constant fit.
    """
    if len(points) < 4:
        raise InsufficientData(f"need >= 4 points, found {len(points)}")
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    amp, lam, floor, sse = _exp_decay(x, y)
    if amp == 0.0:  # only the collapse gives a zero amplitude
        warnings.warn(
            "no exponential decay detected; returning the constant fit",
            NoDecayDetectedWarning,
            stacklevel=3,  # past the np.errstate wrapper, to the caller
        )
    return FitResult(
        coefficients=ExpDecay(exp_A=amp, exp_lambda=lam, exp_C=floor),
        residual_sse=sse,
        points_used=len(points),
    )


@np.errstate(all="ignore")
def fit_piecewise(points: Sequence[tuple[float, float]], kind: str) -> FitResult:
    """Fit a two-regime model, selecting the breakpoint by combined SSE.

    ``kind`` is "power" (constant floor, then log) or "energy" (exponential
    decay, then log). Breakpoint candidates are the observed x values with at
    least three points on each side (four on the left for the decay branch),
    two distinct positive x on the right, and a left side the decay branch
    can fit; equal SSE prefers the smaller breakpoint. When the left branch
    alone fits every point no worse, it is returned with an infinite
    threshold and no log branch.
    """
    if kind not in ("power", "energy"):
        raise ValueError(f"kind must be 'power' or 'energy', got {kind!r}")
    if len(points) < 6:
        raise InsufficientData(f"need >= 6 points, found {len(points)}")
    pts = sorted(points)
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    log_xs = np.log(xs)
    min_left = 4 if kind == "energy" else 3

    def left_fit(n: int) -> tuple[float, dict]:
        """The left branch over the n smallest x: its SSE and model fields."""
        if kind == "power":
            _, floor, sse = _finite(*_fit_two(np.zeros(n), ys[:n]))
            return sse, {"floor_watts": floor}
        amp, lam, floor, sse = _exp_decay(xs[:n], ys[:n])
        return sse, {"exp_A": amp, "exp_lambda": lam, "exp_C": floor}

    best = None  # (sse, threshold, left fields, right fields)
    # n points on the left, x <= bp, and at least three on the right.
    for n in range(min_left, len(xs) - 2):
        bp = float(xs[n - 1])
        # bp must end its run of equal x; the right needs two distinct x > 0.
        if bp == xs[n] or xs[n] == xs[-1] or xs[n] <= 0:
            continue
        try:
            sse_l, left = left_fit(n)
        except InsufficientData:
            continue
        alpha, beta, sse_r = _finite(*_fit_two(log_xs[n:], ys[n:]))
        sse = sse_l + sse_r
        if best is None or sse < best[0] - 1e-15:
            best = (sse, bp, left, {"log_alpha": alpha, "log_beta": beta})

    # Single-branch alternative over the whole domain; it may not fit
    # (a decay needs every y > 0) when a breakpoint does.
    try:
        single = left_fit(len(xs))
    except InsufficientData:
        if best is None:
            raise
        single = None
    if single is not None and (best is None or single[0] <= best[0] + 1e-15):
        best = (single[0], math.inf, single[1], {})

    sse, threshold, left, right = best
    (sse,) = _finite(sse)
    model = PiecewisePowerModel if kind == "power" else PiecewiseEnergyModel
    return FitResult(
        coefficients=model(threshold=threshold, **left, **right),
        residual_sse=sse,
        points_used=len(pts),
    )


def mape(predictions: Sequence[float], actuals: Sequence[float]) -> float:
    """Mean absolute percentage error, as a percent."""
    if len(predictions) != len(actuals):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(actuals)} actuals"
        )
    if len(actuals) == 0:
        raise LengthMismatch("empty inputs")
    if any(a == 0 for a in actuals):
        raise ZeroActual("an actual value is zero; percentage error undefined")
    result = 100.0 * float(
        np.mean([abs(p - a) / abs(a) for p, a in zip(predictions, actuals)])
    )
    if not math.isfinite(result):
        raise DomainError(f"MAPE is {result}: a percentage error is not finite")
    return result


_SECTIONS = {
    PrefillLatencyCoeffs: "prefill_latency",
    DecodeLatencyCoeffs: "decode_latency",
    PiecewisePowerModel: "power",
    PiecewiseEnergyModel: "energy",
    LogCurve: "log_curve",
    ExpDecay: "exp_decay",
}


def coefficients_to_json(coefficients: Coefficients) -> dict:
    """Render fitted coefficients as a profile-file JSON fragment."""
    section = _SECTIONS.get(type(coefficients))
    if section is None:
        raise TypeError(f"unsupported coefficient type {type(coefficients)!r}")
    return {section: to_json(coefficients)}
