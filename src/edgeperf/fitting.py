"""Coefficient estimation from measurement records.

All fits are least squares. The two latency fits (the prefill quadratic and
the decode (m, n) pair) solve column-scaled normal equations and fall back to
an SVD solve when the design is badly conditioned. Every other fit reduces to
y ~ p*u + q for a known u, solved in closed form: the log curve with
u = ln x, the piecewise floor with a constant u, and the exponential decay
with u = exp(-lambda*x) at each candidate rate (variable projection, Golub
and Pereyra 1973). ``_fit_two`` fits every row of a 2-D u at once; it scans
the decay rate on ``_rate_grid()``, a read-only geometric grid built once, on
first use. ``_fit_line`` fits one row: it does ``_fit_two``'s operations in
the same order, so its result is the same to the bit, but keeps the scalars
as Python floats and takes y's mean and centred copy (``_centre``) from its
caller, which halves its cost. Every other one-row fit goes through
``_fit_line``: the log curve, the piecewise floor and log branches, the
constant fits and the decay fit at its final rate. ``_exp_decay`` works on
arrays, and both ``fit_exp_decay`` and the decay branch of
``fit_piecewise`` call it. No public fitter calls another.

The golden-section search that refines the decay rate (``_golden_section``)
probes about 29 rates in turn, and on 20-60 points numpy's per-call
overhead dominates each one-row fit. So ``_exp_decay`` computes the probes
in batches: ``_probe_sses`` fits many rates in one set of numpy calls, each
row's SSE the same to the bit as ``_fit_line``'s, and the search takes each
probe's SSE from a dict of computed ones. On a miss, the batch holds that
rate and the next 12 rates the search would probe if every unknown SSE lay
on a parabola through three known ones, the model of Brent's parabolic
step (Brent 1973), used here only to guess the path. The search compares
computed SSEs only, so the guess decides what is batched and nothing else:
lambda, A, C and the SSE are those of the search that fits one probe at a
time, bit for bit. On the benchmark's fit curves a decay fit runs about 3.2
batches of at most 14 rows.

The curve fitters share one input domain (``_curve``): every x and y is
finite, every |y| <= 1e100, and an energy curve has every x >= 0. Any other
point raises ``DegenerateDesign``.

``fit_piecewise`` visits the candidate breakpoints best first, from a heap
keyed by a lower bound on each candidate's total SSE, and runs a branch fit
only when its candidate reaches the front. Each branch fit is monotone in x:
a decay fit is non-increasing, a floor is constant and a log fit follows the
sign of its slope. So its SSE is at least that of the best monotone fit of
the same points, which one pool-adjacent-violators pass gives for every
prefix (``_nonincreasing_bounds``, shrunk by a margin for rounding); run on
the reversed points it bounds every suffix. A decay prefix that holds a
y <= 0 cannot be fitted, and its bound is +inf. The least total wins, and
among totals within 1e-15 of it the smallest breakpoint, whatever the
order they were found in. Inside the domain no skipped fit could have
raised, so the result is bit-identical to the full scan. Over the 40 jump
curves in the tests, under both kinds, it runs 126 of the full scan's 1169
decay fits and 813 of its 3468 floor and log fits.

Every coefficient and SSE is returned as a finite plain ``float``; a fit that
would be non-finite raises ``DegenerateDesign`` instead.
"""

import functools
import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateDesign, InsufficientData, NoDecayDetectedWarning
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


def __getattr__(name):
    # fitting.mape is planner.mape, imported on first use (PEP 562): no fitter
    # needs planner, so `fit` does not load it.
    if name == "mape":
        from .planner import mape

        return mape
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    The rate grid calls it; ``_fit_line`` repeats its one-row case.
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


def _centre(y: np.ndarray) -> tuple[float, np.ndarray]:
    """y's mean and y less it, as ``_fit_two`` computes them, for ``_fit_line``."""
    y_mean = float(np.add.reduce(y)) / len(y)
    return y_mean, y - y_mean


def _fit_line(u: np.ndarray, y: np.ndarray, y_mean: float, yc: np.ndarray) -> tuple[float, float, float]:
    """``_fit_two(u, y)`` for one row u, as Python floats, given ``_centre(y)``.

    It does ``_fit_two``'s operations in the same order on the same arrays,
    so (p, q, sse) are the same to the bit. Python float arithmetic ignores
    np.errstate but never raises here: it overflows to inf, carries nan, and
    the (sxx == 0) term keeps the divisor nonzero.
    """
    n = len(y)
    u_mean = float(np.add.reduce(u)) / n
    du = u - u_mean
    sxx = float(np.add.reduce(du * du))
    p = float(du @ yc) / (sxx + (sxx == 0))
    q = y_mean - p * u_mean
    residuals = y - (p * u + q)
    return p, q, float(np.add.reduce(residuals * residuals))


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


def _curve(points: Sequence[tuple[float, float]], kind: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The x and y of ``points`` as float64 arrays, inside the curve fitters' domain.

    Every x and y must be finite and every |y| <= 1e100, and an energy curve
    (``kind="energy"``) needs every x >= 0; any other point raises
    ``DegenerateDesign``. Inside it no floor, log or decay fit over a
    positive prefix overflows, so no branch fit that ``fit_piecewise``
    skips could have raised.
    """
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if not (np.isfinite(x).all() and (np.abs(y) <= 1e100).all()):
        raise DegenerateDesign("a point is not finite or has |y| > 1e100; the measurements are out of range")
    if kind == "energy" and (x < 0).any():
        raise DegenerateDesign(f"an energy curve needs every x >= 0, found {float(x.min())!r}")
    return x, y


@np.errstate(all="ignore")
def fit_log_curve(points: Sequence[tuple[float, float]], min_x: float = 1.0) -> FitResult:
    """Fit y = alpha*ln(x) + beta over points with x >= min_x.

    Every point, kept or not, must be finite with |y| <= 1e100; otherwise
    ``DegenerateDesign``.
    """
    x, y = _curve(points)
    kept = x >= min_x
    x, y = x[kept], y[kept]
    distinct = len(set(x.tolist()))
    if distinct < 2:
        raise InsufficientData(f"need >= 2 distinct x >= {min_x}, found {distinct}")
    alpha, beta, sse = _finite(*_fit_line(np.log(x), y, *_centre(y)))
    return FitResult(
        coefficients=LogCurve(log_alpha=alpha, log_beta=beta),
        residual_sse=sse,
        points_used=len(x),
    )


def _probe_sses(neg_x: np.ndarray, y: np.ndarray, y_mean: float, yc: np.ndarray, rates: list[float]) -> list[float]:
    """``_fit_line(np.exp(-rate * x), y, y_mean, yc)[2]`` for each rate, in one set of numpy calls.

    Row i is that one-row SSE to the bit: (-x)*r is exactly (-r)*x, each
    row's sums are the same pairwise reduction along its own contiguous
    axis, and the stacked ``matmul`` dots each row through the same
    ``DOUBLE_dot`` as the one-row ``du @ yc``. A 2-D ``du @ yc`` would be
    a BLAS matrix-vector product, whose bits differ. Takes -x, given once
    per ``_exp_decay`` call.
    """
    n = len(y)
    u = np.multiply.outer(rates, neg_x)
    np.exp(u, out=u)
    u_mean = np.add.reduce(u, axis=1, keepdims=True) / n
    du = u - u_mean
    sxx = np.add.reduce(du * du, axis=1)
    p = np.matmul(du[:, None, :], yc[:, None])[:, 0, 0] / (sxx + (sxx == 0))
    q = y_mean - p * u_mean[:, 0]
    residuals = y - (p[:, None] * u + q[:, None])
    return np.add.reduce(residuals * residuals, axis=1).tolist()


def _golden_section(a: float, b: float, sse: Callable[[float], float]) -> float:
    """The rate at the middle of the last bracket of a golden-section search for the least sse(rate) in [a, b]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = sse(c)
    fd = sse(d)
    while (b - a) > 1e-6 * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = sse(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = sse(d)
    return (a + b) / 2.0


def _parabola(r0: float, f0: float, r1: float, f1: float, r2: float, f2: float) -> Callable[[float], float]:
    """The parabola through three (rate, SSE) points, in Newton's divided-difference form.

    The expanded form A*r**2 + B*r + C cancels badly at rates near 1e-3.
    The rates are distinct, so no divisor is 0; an inf or nan SSE gives an
    inf or nan guess, and Python float arithmetic raises on neither.
    """
    f01 = (f1 - f0) / (r1 - r0)
    f012 = ((f2 - f1) / (r2 - r1) - f01) / (r2 - r0)
    return lambda r: f0 + (r - r0) * (f01 + (r - r1) * f012)


class _PathFull(Exception):
    """Ends a predicted search once it has named a batch of rates."""


def _probe_path(
    a: float, b: float, known: dict[float, float], guess: Callable[[float], float], size: int
) -> list[float]:
    """The first ``size`` rates that the search on [a, b] probes and ``known`` lacks, in order.

    Each SSE comes from ``known``, or else from ``guess``, so the path past
    the first such rate is a prediction.
    """
    path: dict[float, float] = {}

    def sse(rate: float) -> float:
        if rate in known:
            return known[rate]
        if rate not in path:
            if len(path) == size:
                raise _PathFull
            path[rate] = guess(rate)
        return path[rate]

    try:
        _golden_section(a, b, sse)
    except _PathFull:
        pass
    return list(path)


def _exp_decay(x: np.ndarray, y: np.ndarray) -> list[float]:
    """(A, lambda, C, SSE) of y = A*exp(-lambda*x) + C, fitted over arrays.

    Needs every y positive. For a fixed rate, (A, C) is a two-parameter
    linear fit in closed form; the rate is scanned on ``_rate_grid()`` in one
    pass, then refined by golden section around the best grid cell. With two
    distinct x every rate fits both group means exactly, and the search picks
    one. One distinct x, or a nonpositive best amplitude, gives the constant
    fit, with A = lambda = 0.

    The search takes each probe's SSE from ``known``. On a miss, one
    ``_probe_sses`` batch computes that rate and the next 12 rates the
    search is predicted to probe; the first batch holds c and d, which the
    search probes before it compares, and 12 more. Each unknown SSE is
    guessed by a parabola: in the first batch through the grid SSEs around
    the best cell, later through the three known rates nearest the missing
    one. The search compares only computed SSEs, which are the one-row
    fits' to the bit, so a wrong guess costs one more batch and never moves
    a bit.
    """
    if np.any(y <= 0):
        raise InsufficientData("all y values must be positive")
    y_mean, yc = _centre(y)  # shared by every probe
    if len(set(x.tolist())) == 1:
        # u = exp(-lambda*x) is then constant, but its rounded mean need not
        # equal it, which would leave a spurious slope in every probe.
        _, floor, sse = _fit_line(np.zeros_like(y), y, y_mean, yc)
        return _finite(0.0, 0.0, floor, sse)

    grid = _rate_grid()
    grid_sse = _fit_two(np.exp(-np.outer(grid, x)), y)[2]
    best = int(np.argmin(grid_sse))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, len(grid) - 1)])
    mid = min(max(best, 1), len(grid) - 2)
    first_guess = _parabola(*(float(v) for i in (mid - 1, mid, mid + 1) for v in (grid[i], grid_sse[i])))
    neg_x = -x
    known: dict[float, float] = {}

    def probe(rate: float) -> float:
        if rate not in known:
            guess = first_guess
            if len(known) >= 3:
                near = sorted(known, key=lambda r: abs(r - rate))[:3]
                guess = _parabola(*(v for r in near for v in (r, known[r])))
            path = _probe_path(a, b, known, guess, 13 if known else 14)
            known.update(zip(path, _probe_sses(neg_x, y, y_mean, yc, path)))
        return known[rate]

    lam = _golden_section(a, b, probe)
    amp, floor, sse = _fit_line(np.exp(-lam * x), y, y_mean, yc)
    if amp <= 0:
        amp, lam = 0.0, 0.0
        _, floor, sse = _fit_line(np.zeros_like(y), y, y_mean, yc)
    return _finite(amp, lam, floor, sse)


@np.errstate(all="ignore")
def fit_exp_decay(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit y = A*exp(-lambda*x) + C (``_exp_decay``) over >= 4 points and >= 3 distinct x.

    Every point must be finite with |y| <= 1e100; otherwise
    ``DegenerateDesign``. Warns when the fit collapses to the constant fit.
    """
    if len(points) < 4:
        raise InsufficientData(f"need >= 4 points, found {len(points)}")
    distinct = len({float(p[0]) for p in points})
    if distinct < 3:
        raise InsufficientData(f"need >= 3 distinct x, found {distinct}")
    x, y = _curve(points)
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


def _nonincreasing_bounds(xs: list[float], ys: list[float]) -> list[float]:
    """Lower bounds on the SSE of any fit of y that is non-increasing in list order, per prefix.

    The fit must also be equal on equal x, so each run of equal x is pooled
    into one block, whatever the order or sign of its y, before the
    pool-adjacent-violators algorithm (Barlow et al. 1972) merges the blocks
    of the best such fit, as (sum, count, mean), while they violate the order.
    Each merge adds its non-negative SSE increment c1*c2/(c1+c2) *
    (mean1 - mean2)**2, which avoids the cancellation of sum(y**2) -
    sum(block sum**2 / count). Entry n bounds the first n points; an entry
    inside a run is 0. Each entry at the end of a run is shrunk by
    n*(1e-9*SSE + 1e-13*n*sum(y**2)) + 1e-300, which covers the rounding of
    the block means and of the sums here and in the fit.
    """
    bounds, blocks = [0.0], []  # blocks of (sum, count, mean)
    sse = sum_y2 = 0.0
    total = count = 0  # the run being pooled
    size = len(xs)
    for n, (x, y) in enumerate(zip(xs, ys), 1):
        if count:
            gap = total / count - y
            sse += count / (count + 1) * (gap * gap)
        total += y
        count += 1
        sum_y2 += y * y
        if n < size and xs[n] == x:
            bounds.append(0.0)
            continue
        mean = total / count
        while blocks and blocks[-1][2] < mean:
            prev_total, prev_count, prev_mean = blocks.pop()
            gap = prev_mean - mean
            sse += prev_count * count / (prev_count + count) * (gap * gap)
            total += prev_total
            count += prev_count
            mean = total / count
        blocks.append((total, count, mean))
        total = count = 0
        bounds.append(sse - n * (1e-9 * sse + 1e-13 * n * sum_y2) - 1e-300)
    return bounds


def _left_bounds(xs: list[float], ys: list[float], kind: str) -> list[float]:
    """Entry n is at most the SSE of the left branch's fit over the first n points, sorted.

    A decay fit is non-increasing in x. It raises over any prefix that holds
    a y <= 0, so its entries are +inf from the first such y on. A floor is
    constant, so both the non-increasing bound and the non-decreasing one
    (the non-increasing bound of -y) hold, and the larger is taken.
    """
    if kind == "energy":
        k = next((i for i, y in enumerate(ys) if not y > 0), len(ys))
        return _nonincreasing_bounds(xs[:k], ys[:k]) + [math.inf] * (len(ys) - k)
    return list(map(max, _nonincreasing_bounds(xs, ys), _nonincreasing_bounds(xs, [-y for y in ys])))


def _right_bounds(xs: list[float], ys: list[float]) -> list[float]:
    """Entry n is at most the SSE of the log fit over all but the first n points, sorted.

    Rounding is monotone, so a log fit's values are monotone in x, in the
    direction of its slope's sign. On the reversed points, the
    non-increasing bound of y covers a rising fit and that of -y a falling
    one, so the smaller of the two holds.
    """
    back_x, back_y = xs[::-1], ys[::-1]
    rising = _nonincreasing_bounds(back_x, back_y)
    falling = _nonincreasing_bounds(back_x, [-y for y in back_y])
    return list(map(min, rising[::-1], falling[::-1]))


@np.errstate(all="ignore")
def fit_piecewise(points: Sequence[tuple[float, float]], kind: str) -> FitResult:
    """Fit a two-regime model, selecting the breakpoint by combined SSE.

    ``kind`` is "power" (constant floor, then log) or "energy" (exponential
    decay, then log). Every point must be finite with |y| <= 1e100, and for
    energy have x >= 0; otherwise ``DegenerateDesign``. Breakpoint
    candidates are the observed x values with at least three points on each
    side (four on the left for the decay branch), two distinct positive x on
    the right, and a left side the decay branch can fit (every y > 0). The
    least total SSE wins; among totals within 1e-15 of it, the smallest
    breakpoint. When the left branch alone fits every point no worse than
    that winner, within 1e-15, it is returned with an infinite threshold and
    no log branch.

    The scan is branch and bound (Land and Doig 1960), best first. Every
    branch fit is monotone in x and equal on equal x: a decay fit is
    non-increasing, a floor is constant, and a log fit rises or falls with
    the sign of its slope, and rounding keeps that. So its SSE is at least
    that of the best such fit of its points (Barlow et al. 1972), which
    ``_left_bounds`` and ``_right_bounds`` give, less a margin for rounding,
    for every prefix and suffix; a decay prefix that holds a y <= 0 is
    bounded by +inf. The candidates go on a heap keyed by their left bound
    plus their right bound. Popping a candidate the first time runs its log
    fit and pushes it back, keyed by its left bound plus its log SSE;
    popping it again runs its left fit and records its total. Rounded
    addition is monotone, so every total is at least its key, and the scan
    stops once the least total U passes ``U < key - 1e-15`` for the least
    key left: every total within 1e-15 of U has then been found. Inside the
    domain no fit that is skipped could have raised, so the result is the
    full scan's, bit for bit.
    """
    if kind not in ("power", "energy"):
        raise ValueError(f"kind must be 'power' or 'energy', got {kind!r}")
    if len(points) < 6:
        raise InsufficientData(f"need >= 6 points, found {len(points)}")
    xs, ys = _curve(sorted(points), kind)
    xl, yl = xs.tolist(), ys.tolist()
    log_xs = np.log(xs)
    size = len(xl)

    def left_fit(n: int) -> tuple[float, dict]:
        """The left branch over the n smallest x: its SSE and model fields."""
        if kind == "power":
            y = ys[:n]
            _, floor, sse = _finite(*_fit_line(np.zeros(n), y, *_centre(y)))
            return sse, {"floor_watts": floor}
        amp, lam, floor, sse = _exp_decay(xs[:n], ys[:n])
        return sse, {"exp_A": amp, "exp_lambda": lam, "exp_C": floor}

    left_lb, right_lb = _left_bounds(xl, yl, kind), _right_bounds(xl, yl)
    # n points on the left, x <= bp = xl[n - 1], and at least three on the
    # right. bp must end its run of equal x; the right needs two distinct x > 0.
    heap = [
        (left_lb[n] + right_lb[n], n, None)
        for n in range(4 if kind == "energy" else 3, size - 2)
        if xl[n - 1] != xl[n] and xl[n] != xl[-1] and xl[n] > 0 and left_lb[n] < math.inf
    ]
    heapq.heapify(heap)
    fits, least = [], math.inf  # (total, threshold, left fields, right fields)
    while heap and not least < heap[0][0] - 1e-15:
        _, n, right = heapq.heappop(heap)
        if right is None:
            y = ys[n:]
            alpha, beta, sse_r = _finite(*_fit_line(log_xs[n:], y, *_centre(y)))
            heapq.heappush(heap, (left_lb[n] + sse_r, n, (sse_r, {"log_alpha": alpha, "log_beta": beta})))
        else:
            sse_l, left = left_fit(n)
            fits.append((sse_l + right[0], xl[n - 1], left, right[1]))
            least = min(least, fits[-1][0])
    best = min((fit for fit in fits if not least < fit[0] - 1e-15), key=lambda fit: fit[1], default=None)

    # The single-branch fit over every point; a decay fit raises here, where
    # no breakpoint fits, when some y <= 0 (left_lb[size] is then +inf).
    if best is None or left_lb[size] <= best[0] + 1e-15:
        sse, left = left_fit(size)
        if best is None or sse <= best[0] + 1e-15:
            best = (sse, math.inf, left, {})

    sse, threshold, left, right = best
    model = PiecewisePowerModel if kind == "power" else PiecewiseEnergyModel
    return FitResult(
        coefficients=model(threshold=threshold, **left, **right),
        residual_sse=sse,
        points_used=size,
    )


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
