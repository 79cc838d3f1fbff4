"""B-spline interpolating noise kernels and grid-based ancestral sampling.

A degree-D kernel is the density of a sum of D+1 independent uniforms on
[-1/2, 1/2) (a centered Irwin-Hall density): degree 0 is the box, degree 1
the triangle, degree 2 the piecewise quadratic.  Adding kernel noise to a
grid-index draw from the ancestor PMF produces samples whose exact density
is the kernel-smoothed mixture q(x), with copies wrapped around the circle.
"""
from __future__ import annotations

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
        elif self.degree == 1:
            vals = np.maximum(0.0, 1.0 - np.abs(u))
        else:
            a = np.abs(u)
            vals = np.where(
                a <= 0.5,
                0.75 - u * u,
                np.where(a <= 1.5, 0.5 * (1.5 - a) ** 2, 0.0),
            )
        return vals if np.ndim(vals) else float(vals)

    def sample(self, size: int, rng) -> np.ndarray:
        """Sum of degree+1 uniforms on [-1/2, 1/2); mean zero."""
        rng = np.random.default_rng(rng)
        u = rng.random((self.degree + 1, size))
        return u.sum(axis=0) - self.support_halfwidth


def compound_pdf(pmf: AncestorPmf, kernel: BSplineKernel, x):
    """Exact sampling density q(x) = sum_k (K/2) w((K/2)(x - x_k)) p[k].

    Kernel copies wrap around the circle (shifts at x_k +/- 2); only the
    D+1 kernels overlapping x are touched, in increasing k, the first at
    k0 = floor(t - (D-1)/2) with t = (K/2)(x + 1).  Points go in blocks of
    _BLOCK, so the temporaries stay cache-sized at any number of points.
    """
    x = np.asarray(x, dtype=float)
    q = np.empty(x.shape)
    flat_x, flat_q = x.reshape(-1), q.reshape(-1)
    for lo in range(0, flat_x.size, _BLOCK):
        flat_q[lo : lo + _BLOCK] = _compound_block(
            pmf, kernel, flat_x[lo : lo + _BLOCK])
    return q if np.ndim(q) else float(q)


def _compound_block(pmf: AncestorPmf, kernel: BSplineKernel,
                    x: np.ndarray) -> np.ndarray:
    k_grid = pmf.size
    t = 0.5 * k_grid * (x + 1.0)
    base = np.floor(t)
    # k0 from the exact fraction t - floor(t), so that rounding in
    # t - (D-1)/2 cannot skip an overlapping kernel.
    k0 = base.astype(int) - kernel.degree // 2
    if kernel.degree % 2 == 0:
        k0 += t - base >= 0.5
    q = np.zeros(t.shape)
    for off in range(kernel.degree + 1):
        k = k0 + off
        q += kernel.pdf(t - k) * pmf.probs[k % k_grid]
    q *= 0.5 * k_grid
    return q


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
