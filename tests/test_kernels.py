import numpy as np
import pytest
from scipy import stats

from circfourier import (
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    build_ancestor,
    compound_pdf,
    grid_ancestral_sample,
    random_density,
)


def five_offset_compound_pdf(pmf, kernel, x):
    """The former compound_pdf, which adds the kernels at five offsets
    around floor(t) whether or not they overlap x; kept as the reference."""
    x = np.asarray(x, dtype=float)
    k_grid = pmf.size
    t = 0.5 * k_grid * (x + 1.0)
    k0 = np.floor(t).astype(int)
    q = np.zeros(t.shape)
    for off in range(-2, 3):
        k = k0 + off
        q += kernel.pdf(t - k) * pmf.probs[k % k_grid]
    q *= 0.5 * k_grid
    return q if np.ndim(q) else float(q)


class TestKernelPdf:
    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            BSplineKernel(3)
        with pytest.raises(ValueError):
            BSplineKernel(-1)

    def test_box(self):
        k = BSplineKernel(0)
        assert k.pdf(0.0) == 1.0
        assert k.pdf(-0.5) == 1.0  # support is half-open on the right
        assert k.pdf(0.5) == 0.0
        assert k.pdf(0.7) == 0.0

    def test_triangle(self):
        k = BSplineKernel(1)
        assert k.pdf(0.0) == 1.0
        assert k.pdf(0.5) == 0.5
        assert k.pdf(-0.5) == 0.5
        assert k.pdf(1.2) == 0.0

    def test_quadratic(self):
        k = BSplineKernel(2)
        assert k.pdf(0.0) == pytest.approx(0.75)
        assert k.pdf(0.5) == pytest.approx(0.5)
        assert k.pdf(1.5) == pytest.approx(0.0)
        assert k.pdf(1.0) == pytest.approx(0.125)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_normalized_and_symmetric(self, degree):
        k = BSplineKernel(degree)
        us = np.linspace(-2, 2, 160001)
        assert np.trapezoid(k.pdf(us), us) == pytest.approx(1.0, abs=1e-6)
        interior = np.linspace(0.013, 1.987, 199)  # avoid the half-open edge
        assert np.allclose(k.pdf(interior), k.pdf(-interior), atol=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_support(self, degree):
        k = BSplineKernel(degree)
        half = (degree + 1) / 2
        assert k.support_halfwidth == half
        assert k.pdf(half + 1e-9) == 0.0
        assert k.pdf(-half - 1e-9) == 0.0


class TestKernelSampling:
    def test_box_support(self):
        draws = BSplineKernel(0).sample(10**5, 1)
        assert draws.min() >= -0.5
        assert draws.max() < 0.5

    def test_triangle_mean(self):
        n = 10**6
        draws = BSplineKernel(1).sample(n, 2)
        sigma = np.sqrt(1.0 / 6.0)  # variance of a sum of two uniforms
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(n)

    def test_quadratic_histogram_matches_pdf(self):
        n = 10**6
        k = BSplineKernel(2)
        draws = k.sample(n, 3)
        edges = np.linspace(-1.5, 1.5, 31)
        counts, _ = np.histogram(draws, edges)
        fine = np.linspace(-1.5, 1.5, 30 * 64 + 1)
        cdf_fine = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(fine) * (k.pdf(fine)[1:] + k.pdf(fine)[:-1]))]
        )
        expected = n * np.diff(np.interp(edges, fine, cdf_fine))
        result = stats.chisquare(counts, expected * counts.sum() / expected.sum())
        assert result.pvalue > 0.001

    def test_deterministic(self):
        a = BSplineKernel(1).sample(100, 42)
        b = BSplineKernel(1).sample(100, 42)
        assert np.array_equal(a, b)


class TestCompoundPdf:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_uniform_preserved(self, degree):
        pmf = build_ancestor(FourierDensity([1.0]), 9)
        xs = np.linspace(-1, 0.999, 101)
        q = compound_pdf(pmf, BSplineKernel(degree), xs)
        assert np.allclose(q, 0.5, atol=1e-12)

    @pytest.mark.parametrize("seed,k", [(0, 21), (1, 40), (2, 64)])
    def test_triangle_interpolates_at_knots(self, seed, k):
        m = random_density(10, seed)
        pmf = build_ancestor(m, k)
        q = compound_pdf(pmf, BSplineKernel(1), pmf.grid())
        assert np.allclose(q, m.pdf_grid(k), atol=1e-12, rtol=0)

    def test_triangle_midpoint_by_hand(self):
        pmf = build_ancestor(FourierDensity([1.0, 1.0]), 4)
        # midpoint of p(-1)=0 and p(-0.5)=0.5
        assert compound_pdf(pmf, BSplineKernel(1), -0.75) == pytest.approx(
            0.25, abs=1e-11
        )

    def test_triangle_piecewise_linear(self):
        m = random_density(8, 5)
        k = 33
        pmf = build_ancestor(m, k)
        grid = pmf.grid()
        p_knots = m.pdf_grid(k)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, 10):
            j = int(np.floor((x + 1) * k / 2))
            x0 = grid[j]
            x1 = x0 + 2.0 / k
            p0 = p_knots[j]
            p1 = p_knots[(j + 1) % k]
            lin = p0 + (p1 - p0) * (x - x0) / (x1 - x0)
            assert compound_pdf(pmf, BSplineKernel(1), x) == pytest.approx(
                lin, abs=1e-12
            )

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("k_mult", ["nyq", 4])
    def test_normalizes(self, degree, k_mult):
        n_terms = 12
        m = random_density(n_terms, 7)
        k = 2 * n_terms + 1 if k_mult == "nyq" else 4 * n_terms
        pmf = build_ancestor(m, k)
        # midpoint rule on cells aligned with the kernel pieces: exact for
        # the piecewise-constant and piecewise-linear kernels
        m_sub = 32
        cells = k * m_sub
        mids = -1.0 + (np.arange(cells) + 0.5) * 2.0 / cells
        q = compound_pdf(pmf, BSplineKernel(degree), mids)
        assert np.sum(q) * 2.0 / cells == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_equals_five_offset_sum(self, degree):
        # the same nonzero terms in the same order: bit-identical
        rng = np.random.default_rng(11)
        kernel = BSplineKernel(degree)
        for case in range(20):
            n = int(rng.integers(0, 60))
            k = int(rng.integers(2 * n + 1, 4 * n + 40))
            pmf = build_ancestor(random_density(n, case), k)
            grid = pmf.grid()
            mids = grid + 1.0 / k
            xs = np.concatenate([
                grid, mids, np.nextafter(grid, 2.0), np.nextafter(mids, -2.0),
                rng.uniform(-1.0, 1.0, 20000), [-1.0, np.nextafter(1.0, 0.0)],
            ])
            # more points than one block, flat and as a 2-D array
            for x in (xs, xs[: 3 * (xs.size // 3)].reshape(3, -1)):
                assert np.array_equal(compound_pdf(pmf, kernel, x),
                                      five_offset_compound_pdf(pmf, kernel, x))
            for x in (-1.0, float(mids[0]), np.nextafter(1.0, 0.0)):
                assert compound_pdf(pmf, kernel, x) == \
                    five_offset_compound_pdf(pmf, kernel, x)

    def test_wraps_at_boundary(self):
        # mass from the cell at k=0 must appear just below x=1
        m = FourierDensity([1.0, 0.5])
        pmf = build_ancestor(m, 9)
        ker = BSplineKernel(1)
        eps = 1e-4
        assert compound_pdf(pmf, ker, -1.0 + eps) == pytest.approx(
            compound_pdf(pmf, ker, 1.0 - eps), abs=1e-3
        )


class TestGridAncestralSample:
    def test_uniform_target_ks(self):
        m = FourierDensity([1.0])
        batch = grid_ancestral_sample(m, 5, BSplineKernel(1), 10**4, 0)
        result = stats.kstest(batch.samples, lambda x: (x + 1) / 2)
        assert result.pvalue > 0.001

    def test_eval_bill_is_k_only(self):
        m = random_density(10, 3)
        c = EvalCounter()
        grid_ancestral_sample(m, 50, BSplineKernel(1), 10**5, 1, c)
        assert c.pdf_evals == 50
        assert c.score_evals == 0
        assert c.total_evals == 50

    def test_samples_in_domain(self):
        m = random_density(6, 9)
        batch = grid_ancestral_sample(m, 13, BSplineKernel(2), 10**5, 7)
        assert batch.samples.min() >= -1.0
        assert batch.samples.max() < 1.0

    def test_deterministic_per_seed(self):
        m = random_density(6, 9)
        a = grid_ancestral_sample(m, 40, BSplineKernel(1), 1000, 5)
        b = grid_ancestral_sample(m, 40, BSplineKernel(1), 1000, 5)
        assert np.array_equal(a.samples, b.samples)
        assert a.seed == 5

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_histogram_matches_compound_density(self, degree):
        m = random_density(10, 11)
        k = 50
        batch = grid_ancestral_sample(m, k, BSplineKernel(degree), 10**5, 13)
        pmf = build_ancestor(m, k)
        edges = np.linspace(-1, 1, k + 1)
        counts, _ = np.histogram(batch.samples, edges)
        fine = np.linspace(-1, 1, k * 64 + 1)
        q_fine = compound_pdf(pmf, BSplineKernel(degree), fine)
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(fine) * (q_fine[1:] + q_fine[:-1]))]
        )
        expected = batch.size * np.diff(np.interp(edges, fine, cdf))
        result = stats.chisquare(counts, expected * counts.sum() / expected.sum())
        assert result.pvalue > 0.001

    def test_invalid_args(self):
        m = random_density(5, 0)
        with pytest.raises(ValueError):
            grid_ancestral_sample(m, 10, BSplineKernel(1), 100, 0)
        with pytest.raises(ValueError):
            grid_ancestral_sample(m, 11, BSplineKernel(1), 0, 0)

    def test_boundary_cells_land_in_domain(self):
        # a density concentrated at the domain edge exercises the wrap
        m = FourierDensity([1.0, -1.0])  # peak at x = -1 and x -> 1
        batch = grid_ancestral_sample(m, 3, BSplineKernel(2), 10**5, 21)
        assert batch.samples.min() >= -1.0
        assert batch.samples.max() < 1.0
