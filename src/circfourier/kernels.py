"""B-spline interpolating noise kernels and grid-based ancestral sampling.

A degree-D kernel is the density of a sum of D+1 independent uniforms on
[-1/2, 1/2) (a centered Irwin-Hall density): degree 0 is the box, degree 1
the triangle, degree 2 the piecewise quadratic.  Adding kernel noise to a
grid-index draw from the ancestor PMF produces samples whose exact density
is the kernel-smoothed mixture q(x), with copies wrapped around the circle.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .ancestor import AncestorPmf, build_alias, build_ancestor, sample_ancestors
from .batch import SampleBatch, begin_draw
from .model import _BLOCK, EvalCounter, FourierDensity, wrap

SUPPORTED_DEGREES = (0, 1, 2)


@dataclass(frozen=True)
class BSplineKernel:
    """Centered B-spline density of the given degree.

    Support is [-(D+1)/2, (D+1)/2]; integrates to 1; symmetric about 0.
    Degrees above 2 exist in principle but are rejected here as unverified.
    """

    degree: int

    def __post_init__(self):
        # TypeError unless an integer, as the draws need; 1.0 would pass
        # the membership test below
        operator.index(self.degree)
        if self.degree not in SUPPORTED_DEGREES:
            raise ValueError(
                f"unsupported kernel degree {self.degree}; "
                f"supported: {SUPPORTED_DEGREES}"
            )

    @property
    def support_halfwidth(self) -> float:
        return (self.degree + 1) / 2.0

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        if self.degree == 0:
            vals = np.where((u >= -0.5) & (u < 0.5), 1.0, 0.0)
        else:
            # past the support every piece is 0 at its edge; clipping
            # there keeps the pieces finite at any |u|
            a = np.minimum(np.abs(u), self.support_halfwidth)
            vals = np.zeros(a.shape)
            for band in reversed(range(self.degree // 2 + 1)):
                edge = self.support_halfwidth - (self.degree // 2 - band)
                vals = np.where(a <= edge, self.piece(band, a), vals)
        return vals if np.ndim(vals) else float(vals)

    def piece(self, band: int, a, out=None):
        """The polynomial the density equals in one band of |u| = a,
        written into out (which may be a itself) when given.  Band 0 is
        [0, 1/2] for even degree and [0, 1] for odd; each further band is
        one unit wide, and the last ends at the support's edge.  Pieces
        of neighbouring bands agree exactly at the edge between them."""
        out = np.empty(np.shape(a)) if out is None else out
        if self.degree == 0:
            out.fill(1.0)
        elif self.degree == 1:
            np.subtract(1.0, a, out=out)
        elif band == 0:
            np.multiply(a, a, out=out)
            np.subtract(0.75, out, out=out)
        else:
            np.subtract(1.5, a, out=out)
            np.square(out, out=out)
            out *= 0.5
        return out

    def sample(self, size: int, rng) -> np.ndarray:
        """Sum of degree+1 uniforms on [-1/2, 1/2); mean zero."""
        rng = np.random.default_rng(rng)
        u = rng.random((self.degree + 1, size))
        return u.sum(axis=0) - self.support_halfwidth


def compound_pdf(pmf: AncestorPmf, kernel: BSplineKernel, x):
    """Exact sampling density q(x) = sum_k (K/2) w((K/2)(x - x_k)) p[k].

    Kernel copies wrap around the circle (shifts at x_k +/- 2); only the
    D+1 kernels overlapping x are touched, in increasing k, the first at
    k0 = floor(t - (D-1)/2) with t = (K/2)(x + 1), and each only through
    the one piece of w it can reach there.  O(S (D+1)) for S points, in
    blocks of _BLOCK with work arrays made once per call.  The weights
    come from one table of p wrapped by a few cells at each end, which
    covers every k for x in [-1, 1).  A block with some x outside [-1, 1)
    is first wrapped onto it (wrap, exact, as pointwise model evaluation
    does), so q is exactly periodic, and a non-finite x gives NaN.
    """
    x = np.asarray(x, dtype=float)
    q = np.empty(x.shape)
    flat_x, flat_q = x.reshape(-1), q.reshape(-1)
    k_grid, degree = pmf.size, kernel.degree
    half_k, lead = 0.5 * k_grid, degree // 2 + 1
    # table[lead + k] = p[k mod K] for -lead <= k <= K + D
    table = np.pad(pmf.probs, (lead, degree + 1), mode="wrap")
    n = min(flat_x.size, _BLOCK)
    t, k, u, w = (np.empty(n) for _ in range(4))
    idx, up = np.empty(n, np.intp), np.empty(n, bool)
    for lo in range(0, flat_x.size, _BLOCK):
        xb, qb = flat_x[lo : lo + _BLOCK], flat_q[lo : lo + _BLOCK]
        off_domain = not (-1.0 <= xb.min() and xb.max() < 1.0)
        if off_domain:  # or NaN: computed at x = -1, then set to NaN
            xb = wrap(xb)
            bad = np.isnan(xb)
            xb[bad] = -1.0
        m = xb.size
        tb, kb, ub, wb, ib, hb = t[:m], k[:m], u[:m], w[:m], idx[:m], up[:m]
        np.add(xb, 1.0, out=tb)
        tb *= half_k
        np.floor(tb, out=kb)
        if degree % 2 == 0:
            # k0 from the exact fraction t - floor(t), so that rounding in
            # t - (D-1)/2 cannot skip an overlapping kernel
            np.subtract(tb, kb, out=ub)
            np.greater_equal(ub, 0.5, out=hb)
            kb += hb
            kb -= degree // 2
        np.add(kb, lead, out=ib, casting="unsafe")
        for off in range(degree + 1):
            if off:
                kb += 1
            np.subtract(tb, kb, out=ub)
            np.abs(ub, out=ub)
            # |u| lies in this band, or on its edge, where both pieces agree
            kernel.piece(abs(2 * off - degree) // 2, ub, out=ub)
            np.take(table[off:], ib, out=wb)
            if off:
                ub *= wb
                qb += ub
            else:
                np.multiply(ub, wb, out=qb)
        qb *= half_k
        if off_domain:
            qb[bad] = np.nan
    return q if np.ndim(q) else float(q)


def grid_ancestral_sample(
    model: FourierDensity,
    K: int,
    kernel: BSplineKernel,
    size: int,
    rng,
    counter: EvalCounter | None = None,
) -> SampleBatch:
    """Draw `size` approximate samples of the model density.

    Builds the ancestor PMF and alias table once (exactly K model
    evaluations), keeping only the table, then per sample draws a grid
    index and a centered kernel offset, placing the kernel at the grid
    point and wrapping into [-1, 1).
    The evaluation bill is K, independent of `size`.
    """
    seed, rng, counter = begin_draw(size, rng, counter)
    table = build_alias(build_ancestor(model, K, counter))
    idx = sample_ancestors(table, size, rng)
    u = kernel.sample(size, rng)
    x = wrap(-1.0 + (2.0 / K) * (idx + u))
    return SampleBatch(
        samples=x,
        seed=seed,
        counter=counter,
        meta={"K": int(K), "D": kernel.degree},
    )
