"""Property tests of the blocked Horner evaluation core in model.py.

The power-recurrence series evaluation that the core replaced is kept here
as the reference.  Tolerances scale with double precision and with the
size of the series' terms.
"""
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from circfourier import (BSplineKernel, FourierDensity, build_ancestor,
                         compound_pdf, random_density)
from circfourier.model import PDF_FLOOR


def series_reference(x, weights, base, real=np.float64):
    """base + sum_n Re{weights[n-1] e^{i pi n x}} by the power recurrence
    the Horner core replaced, carried in the precision of `real`."""
    z = np.exp(1j * (np.pi * np.asarray(x, dtype=float)).astype(real))
    acc = np.zeros(z.shape, dtype=z.dtype)
    zp = np.ones(z.shape, dtype=z.dtype)
    for w in weights:
        zp = zp * z
        acc += w * zp
    return (base + np.real(acc)).astype(float)


@st.composite
def models(draw):
    """(model, x): i.i.d. complex normal amplitudes, N <= 200, optionally
    with a root of A on the unit circle so that p has an exact zero; x holds
    drawn points, uniform points, and the zero and its neighbours."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    xs = [rng.uniform(-1.0, 1.0, 200)]
    if n >= 1 and draw(st.booleans()):
        # A(w) (1 - w / w0) vanishes at w0 = e^{-i pi x0}
        x0 = draw(st.floats(-1.0, 1.0, exclude_max=True))
        a = np.convolve(a[:-1], [1.0, -np.exp(1j * np.pi * x0)])
        xs.append(x0 + np.array([0.0, -1e-9, 1e-9, -1e-6, 1e-6, -1e-3, 1e-3]))
    xs.append(np.array(draw(st.lists(
        st.floats(-1.0, 1.0, exclude_max=True), min_size=1, max_size=50))))
    return FourierDensity(a), np.concatenate(xs)


@settings(max_examples=150, deadline=None)
@given(models())
def test_pdf_agrees_with_power_recurrence(case):
    m, x = case
    ref = series_reference(x, m._ratios, 0.5)
    assert np.all(np.abs(m.pdf(x) - ref) <= 1e-12 * (1 + np.abs(ref)))


@settings(max_examples=150, deadline=None)
@given(models())
def test_score_agrees_with_power_recurrence(case):
    # Near zeros of p the double-precision recurrence is itself off by
    # about 1e-9 (1 + |s|) (1.2e-9 at p = 1.8e-6, N = 157, against 40-digit
    # values; the Horner core 7e-12), so the reference runs the same
    # recurrence in long double.
    m, x = case
    n = np.arange(1, m.n_terms + 1)
    p_ref = series_reference(x, m._ratios, 0.5, np.longdouble)
    dp_ref = series_reference(x, m._ratios * (1j * np.pi * n), 0.0, np.longdouble)
    s_ref = dp_ref / np.maximum(p_ref, PDF_FLOOR)
    p, s = m.pdf_and_score(x)
    keep = p_ref >= 1e-6
    assert np.all(np.abs(s - s_ref)[keep] <= 1e-9 * (1 + np.abs(s_ref[keep])))
    assert np.all(np.abs(p - np.maximum(p_ref, PDF_FLOOR))
                  <= 1e-12 * (1 + np.abs(p_ref)))


@settings(max_examples=150, deadline=None)
@given(models())
def test_cdf_and_deriv_agree_with_power_recurrence(case):
    m, x = case
    n = np.arange(1, m.n_terms + 1)
    weights = m._ratios / (1j * np.pi * n)
    const = float(np.sum(np.real(weights * (-1.0) ** n)))
    ref = np.clip((x + 1.0) / 2.0 + series_reference(x, weights, 0.0) - const,
                  0.0, 1.0)
    assert np.all(np.abs(m.cdf(x) - ref) <= 1e-12 * (1 + np.abs(ref)))
    b1 = m._ratios * (1j * np.pi * n)
    ref = series_reference(x, b1, 0.0)
    assert np.all(np.abs(m.deriv(x) - ref) <= 1e-12 * (1 + np.abs(ref)))
    # Terms of p'' reach (pi N)^2 |c_n / c_0|: both evaluations carry
    # rounding error proportional to sum_n |b_n|, not to |p''(x)|, so the
    # scale here is that sum.
    b2 = m._ratios * (1j * np.pi * n) ** 2
    ref = series_reference(x, b2, 0.0)
    scale = 1 + np.sum(np.abs(b2))
    assert np.all(np.abs(m.deriv(x, order=2) - ref) <= 1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 5000))
def test_density_non_negative_and_grid_sums_to_half_k(case, k_extra):
    m, x = case
    assert np.all(m.pdf(x) >= 0.0)
    k = 2 * m.n_terms + 1 + k_extra
    assert np.all(m.pdf_grid(k) >= 0.0)
    assert abs(m.pdf_grid(k).sum() - k / 2) <= 1e-12 * (k / 2)


def test_evaluation_memory_flat_in_points():
    """Traced peak of one call stays within its outputs plus a few blocks."""
    m = random_density(50, 0)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 2**20)
    for name in ("pdf", "pdf_and_score", "cdf"):
        tracemalloc.start()
        try:
            getattr(m, name)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * x.nbytes + 2**20, (name, peak / x.nbytes)
        if name == "cdf":
            # one output array plus a block of (x + 1)/2 and Horner's arrays
            assert peak <= x.nbytes + 2**20, peak - x.nbytes


def test_compound_pdf_memory_flat_in_points():
    """Traced peak of compound_pdf stays within its output, its wrapped
    table of K + D//2 + D + 2 weights and 1 MiB of work arrays."""
    m = random_density(50, 0)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 2**20)
    for k in (2048, 2**16):
        pmf = build_ancestor(m, k)
        for degree in (0, 1, 2):
            kernel = BSplineKernel(degree)
            table = 8 * (k + degree // 2 + degree + 2)
            tracemalloc.start()
            try:
                compound_pdf(pmf, kernel, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= x.nbytes + table + 2**20, (k, degree, peak - x.nbytes)
