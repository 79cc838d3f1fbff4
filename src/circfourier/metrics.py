"""Reference samplers and divergence estimators.

Rejection and numeric inverse-CDF sampling give unbiased draws of the
model for use as oracles; total-variation, Wasserstein-1 and KL estimators
plus the closed-form grid-approximation bounds quantify sample quality.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .ancestor import AncestorPmf, build_alias
from .batch import SampleBatch, begin_draw
from .kernels import BSplineKernel, _draw
from .model import _BLOCK, EvalCounter, FourierDensity, _check_grid_size

KL_FLOOR = 1e-12
_TV_REFINE_TOL = 1e-8
_TV_MAX_DOUBLINGS = 3
# Intervals of the tv_quadrature (starting) and w1_quadrature grids.
_QUAD_GRID = 20000


class NumericalError(RuntimeError):
    """A result broke a numerical guarantee: a non-finite value, or a
    density above its certified bound."""


@dataclass
class DivergenceReport:
    estimate: float
    std_error: float


def rejection_sample(
    model: FourierDensity,
    size: int,
    rng,
    counter: EvalCounter | None = None,
) -> SampleBatch:
    """Exact i.i.d. samples via rejection under a piecewise-constant hat.

    The hat is model._hat(): on each of the L cells of the model's
    amplitude table, a certified bound H_j >= p on the closed cell
    [x_j - 1/L, x_j + 1/L], x_j = -1 + 2j/L.  A proposal is a DAAS draw
    from the hat with the box kernel: cell j from the alias table of H,
    x = wrap(-1 + (2/L)(j + v)) with v uniform on [-1/2, 1/2), accepted
    when u H_j <= p(x).  L is a power of two, so 2/L is exact and, with
    rounding monotone, x before the wrap lies in its closed cell (cell 0
    straddles +-1).  A call costs S * hat_mass proposals on average, where
    hat_mass = sum_j H_j 2/L, recorded with hat_cells = L in the manifest.
    A proposal with p(x) > H_j raises NumericalError.

    Each pass draws min(_BLOCK, S - accepted) proposals: from `rng`, their
    cells and offsets, then their uniforms u.  A pass never holds more
    proposals than samples still needed, so the S-th acceptance is the last
    proposal of the last pass, and the count is that of a sampler that
    draws one proposal at a time and stops there (Devroye 1986, II.3).
    pdf bills each proposal where it evaluates it; the count goes into the
    manifest.  Memory beyond the output is one pass's arrays, flat in
    `size`.
    """
    seed, rng, counter = begin_draw(size, rng, counter)
    hat = model._hat()
    cells = hat.size
    mass = float(np.cumsum(hat)[-1]) * 2.0 / cells
    table, box = build_alias(AncestorPmf(hat)), BSplineKernel(0)
    samples = np.empty(size)
    collected = proposals = 0
    while collected < size:
        step = min(_BLOCK, size - collected)
        j, x = _draw(table, box, step, rng)
        h = hat[j]
        u = rng.random(step) * h
        p = model.pdf(x, counter)
        if np.any(p > h):
            raise NumericalError("rejection hat below the density")
        accepted = x[u <= p]
        samples[collected : collected + accepted.size] = accepted
        collected += accepted.size
        proposals += step
    return SampleBatch(
        samples=samples,
        seed=seed,
        counter=counter,
        meta={"proposals": proposals, "hat_mass": mass, "hat_cells": cells},
    )


def inverse_transform_sample(
    model: FourierDensity,
    size: int,
    rng,
    tol: float = 1e-10,
    counter: EvalCounter | None = None,
) -> SampleBatch:
    """Numeric inverse-CDF samples by bisection on the monotone CDF.

    Converges in ceil(log2(2/tol)) iterations per batch, for 0 < tol < 2.
    cdf bills one pdf evaluation per point, size * ceil(log2(2/tol)) in
    all.
    """
    seed, rng, counter = begin_draw(size, rng, counter)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if tol >= 2:
        # no bisection step would be taken: every sample the midpoint 0
        raise ValueError("tol must be below 2, the width of the domain")
    target = rng.random(size)
    # x is the midpoint of a bracket of half-width 2 * step, which each
    # iteration halves, keeping the half that holds the target
    x, step = np.zeros(size), 0.5
    # log2(2/tol) as 1 - log2(tol): 2/tol overflows for subnormal tol
    for _ in range(math.ceil(1.0 - math.log2(tol))):
        below = model.cdf(x, counter) < target
        x += np.where(below, step, -step)
        step *= 0.5
    return SampleBatch(
        samples=x,
        seed=seed,
        counter=counter,
        meta={"tol": tol},
    )


def tv_quadrature(p_eval, q_eval) -> DivergenceReport:
    """Trapezoid quadrature of (1/2) |p - q| over [-1, 1).

    The grid doubles, at most _TV_MAX_DOUBLINGS times, until successive
    estimates agree within _TV_REFINE_TOL.
    """
    m = _QUAD_GRID
    prev = None
    for _ in range(_TV_MAX_DOUBLINGS + 1):
        xs = np.linspace(-1.0, 1.0, m + 1)
        val = 0.5 * np.trapezoid(np.abs(p_eval(xs) - q_eval(xs)), xs)
        if prev is not None and abs(val - prev) < _TV_REFINE_TOL:
            break
        prev = val
        m *= 2
    return DivergenceReport(float(val), 0.0)


def _cumtrapz(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty(f.size)
    out[0] = 0.0
    np.cumsum(0.5 * dx * (f[1:] + f[:-1]), out=out[1:])
    return out


def w1_quadrature(p_eval, q_eval) -> DivergenceReport:
    """Quadrature of |P - Q| (absolute CDF difference) over [-1, 1)."""
    xs = np.linspace(-1.0, 1.0, _QUAD_GRID + 1)
    dx = xs[1] - xs[0]
    p_cdf = _cumtrapz(np.asarray(p_eval(xs), dtype=float), dx)
    q_cdf = _cumtrapz(np.asarray(q_eval(xs), dtype=float), dx)
    val = np.trapezoid(np.abs(p_cdf - q_cdf), xs)
    return DivergenceReport(float(val), 0.0)


def tv_bound(n_terms: int, K: int) -> float:
    """Guaranteed TV(p, q) bound for the triangle-kernel grid approximation,
    for integers N >= 0 and K >= 2N+1, the grid pdf_grid builds."""
    n = operator.index(n_terms)
    if n < 0:
        raise ValueError("n_terms must be >= 0")
    K = _check_grid_size(n, K)
    return math.pi**2 * n * (n + 1) * (2 * n + 1) / (12.0 * K * K)


def w1_bound(n_terms: int, K: int) -> float:
    """Guaranteed W1(p, q) bound; exactly twice the TV bound."""
    return 2.0 * tv_bound(n_terms, K)


def kl_monte_carlo(p_samples: SampleBatch, p_eval, q_eval) -> DivergenceReport:
    """Monte Carlo estimate of KL(p || q) from exact samples of p.

    q is floored at 1e-12 inside the log to keep the estimate finite.  The
    log ratios are formed in one fresh array, never in what p_eval or
    q_eval returns, and the mean and the standard deviation (ddof=1) are
    reduced in that array with the operations, in the order, of np.mean
    and np.std, so that they equal those bit for bit.
    """
    x = p_samples.samples
    if x.size == 0:
        raise ValueError("empty sample batch")
    vals = np.maximum(np.asarray(q_eval(x)), KL_FLOOR)
    np.divide(np.asarray(p_eval(x)), vals, out=vals)
    np.log(vals, out=vals)
    mean = vals.sum() / x.size
    se = 0.0
    if x.size > 1:
        vals -= mean
        np.square(vals, out=vals)
        se = float(np.sqrt(vals.sum() / (x.size - 1)) / math.sqrt(x.size))
    return DivergenceReport(float(mean), se)


def empirical_w1(xs, ys) -> DivergenceReport:
    """W1 between empirical distributions on the interval [-1, 1).

    Sorted order statistics are matched one to one; the larger set is
    subsampled at evenly spaced ranks if sizes differ.  Transport is linear
    on the interval, not circular.
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    ys = np.sort(np.asarray(ys, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("empty sample set")
    if xs.size != ys.size:
        m = min(xs.size, ys.size)
        xs = _rank_subsample(xs, m)
        ys = _rank_subsample(ys, m)
    val = float(np.mean(np.abs(xs - ys)))
    return DivergenceReport(val, 0.0)


def _rank_subsample(sorted_vals: np.ndarray, m: int) -> np.ndarray:
    if sorted_vals.size == m:
        return sorted_vals
    idx = np.floor((np.arange(m) + 0.5) * sorted_vals.size / m).astype(int)
    return sorted_vals[idx]
