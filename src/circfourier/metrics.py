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

from .batch import SampleBatch, begin_draw
from .model import EvalCounter, FourierDensity, _check_grid_size

KL_FLOOR = 1e-12
_TV_REFINE_TOL = 1e-8
_TV_MAX_DOUBLINGS = 3
# Intervals of the tv_quadrature (starting) and w1_quadrature grids.
_QUAD_GRID = 20000
# Most proposals held at once by rejection_sample.
_REJECTION_CHUNK = 1 << 18


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
    """Exact i.i.d. samples via rejection from a uniform envelope.

    The envelope constant M = 1 + 2 sum |c_n|/c_0 (recorded as
    meta["envelope"]) guarantees M/2 >= p(x) analytically (looser
    acceptance is fine for an oracle); a call costs S*M proposals on
    average.

    Bills one pdf evaluation per proposal, and the bill stops at the
    proposal that yields the final acceptance; the proposal count goes into
    the manifest.  The bill is kept here, not by pdf, because a pass
    evaluates its whole chunk, past that last proposal.  Each pass draws
    C = 1.1 (S - accepted) M proposals (at least 1024, at most
    _REJECTION_CHUNK, so memory beyond the output is flat in `size`):
    C uniforms x, then C uniforms u, from `rng`.
    """
    seed, rng, counter = begin_draw(size, rng, counter)
    m_const = model.envelope_constant()
    samples = np.empty(size)
    collected = 0
    n_proposals = 0
    while collected < size:
        step = min(_REJECTION_CHUNK,
                   max(1024, int((size - collected) * m_const * 1.1)))
        x = rng.uniform(-1.0, 1.0, step)
        u = rng.random(step)
        ratio = model.pdf(x)
        ratio /= 0.5 * m_const
        acc_idx = np.flatnonzero(u <= ratio)
        if collected + acc_idx.size >= size:
            # stop at the proposal that yields the final acceptance, so the
            # bill matches drawing proposals one at a time
            acc_idx = acc_idx[: size - collected]
            consumed = int(acc_idx[-1]) + 1
        else:
            consumed = step
        samples[collected : collected + acc_idx.size] = x[acc_idx]
        n_proposals += consumed
        counter.pdf_evals += consumed
        collected += acc_idx.size
    return SampleBatch(
        samples=samples,
        seed=seed,
        counter=counter,
        meta={"proposals": n_proposals, "envelope": m_const},
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

    q is floored at 1e-12 inside the log to keep the estimate finite.
    """
    x = p_samples.samples
    if x.size == 0:
        raise ValueError("empty sample batch")
    vals = np.log(np.asarray(p_eval(x)) / np.maximum(np.asarray(q_eval(x)), KL_FLOOR))
    se = float(np.std(vals, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return DivergenceReport(float(np.mean(vals)), se)


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
