import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from circfourier import (
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    build_alias,
    build_ancestor,
    compound_pdf,
    grid_ancestral_sample,
    random_density,
    wrap,
)
from circfourier.cli import main
from circfourier.kernels import _draw
from circfourier.model import _BLOCK


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


@st.composite
def compound_cases(draw):
    """(pmf, x, scalars): N < 60 and 2N+1 <= K < 4N+40, with K = 2N+1
    itself drawn often; x holds the grid, the cell midpoints, the float
    neighbours of both, 20000 uniform points and both ends of [-1, 1),
    then points off it: exactly 1.0, just below -1 (where the first
    overlapping cell is negative), grid points moved by whole periods and
    |x| up to 1e6."""
    n = draw(st.integers(0, 59))
    k = draw(st.one_of(st.just(2 * n + 1), st.integers(2 * n + 1, 4 * n + 39)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = build_ancestor(random_density(n, rng), k)
    grid = -1 + 2 * np.arange(k) / k
    mids = grid + 1.0 / k
    periods = 2.0 * rng.integers(-1000, 1000, grid.size)
    drawn = draw(st.lists(st.floats(-1e6, 1e6), max_size=20))
    xs = np.concatenate([
        grid, mids, np.nextafter(grid, 2.0), np.nextafter(mids, -2.0),
        rng.uniform(-1.0, 1.0, 20000), [-1.0, np.nextafter(1.0, 0.0)],
        [1.0, np.nextafter(-1.0, -2.0)], -1.0 - rng.uniform(0.0, 4.0 / k, 50),
        grid + periods, mids - periods, rng.uniform(-1e6, 1e6, 200), drawn,
    ])
    scalars = [-1.0, float(mids[0]), np.nextafter(1.0, 0.0), 1.0, *drawn[:3]]
    return pmf, xs, scalars


class TestKernelPdf:
    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            BSplineKernel(3)
        with pytest.raises(ValueError):
            BSplineKernel(-1)

    def test_degree_must_be_an_integer(self):
        # 1.0 == 1, but the draws cannot index by a float
        with pytest.raises(TypeError):
            BSplineKernel(1.0)
        kernel = BSplineKernel(np.int64(1))
        assert np.array_equal(kernel.sample(100, 3), BSplineKernel(1).sample(100, 3))

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

    @pytest.mark.parametrize("degree", [1, 2])
    def test_pieces_agree_at_band_edges(self, degree):
        # compound_pdf evaluates each kernel copy by the piece of the band
        # its |u| should lie in; at a band edge either piece must do
        k = BSplineKernel(degree)
        edges = np.arange(degree // 2 + 1) + k.support_halfwidth - degree // 2
        for band, edge in enumerate(edges):
            outer = k.piece(band + 1, edge) if band < edges.size - 1 else 0.0
            assert k.piece(band, edge) == outer == k.pdf(edge)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_support(self, degree):
        k = BSplineKernel(degree)
        half = (degree + 1) / 2
        assert k.support_halfwidth == half
        assert k.pdf(half + 1e-9) == 0.0
        assert k.pdf(-half - 1e-9) == 0.0


    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_zero_far_outside_the_support(self, degree):
        # no piece is evaluated at a |u| so large that it overflows
        k = BSplineKernel(degree)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = k.pdf(np.array([1e300, -1e300, np.finfo(float).max]))
            scalars = [k.pdf(1e300), k.pdf(-1e300)]
        assert np.array_equal(vals, np.zeros(3)) and scalars == [0.0, 0.0]


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
        q = compound_pdf(pmf, BSplineKernel(1), -1 + 2 * np.arange(k) / k)
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
        grid = -1 + 2 * np.arange(k) / k
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
    @settings(max_examples=60, deadline=None)
    @given(case=compound_cases())
    def test_equals_five_offset_sum(self, degree, case):
        # the same nonzero terms in the same order: bit-identical, once x
        # is on the circle, where compound_pdf wraps it first
        pmf, xs, scalars = case
        kernel = BSplineKernel(degree)
        # more points than one block, flat and as a 2-D array
        for x in (xs, xs[: 3 * (xs.size // 3)].reshape(3, -1)):
            assert np.array_equal(compound_pdf(pmf, kernel, x),
                                  five_offset_compound_pdf(pmf, kernel, wrap(x)))
        for x in scalars:
            assert compound_pdf(pmf, kernel, x) == \
                five_offset_compound_pdf(pmf, kernel, wrap(x))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_non_finite_gives_nan_without_warning(self, degree):
        pmf = build_ancestor(random_density(5, 1), 16)
        x = np.array([0.25, np.nan, np.inf, -np.inf, 3.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = compound_pdf(pmf, BSplineKernel(degree), x)
            for v in (np.nan, np.inf, -np.inf):
                assert np.isnan(compound_pdf(pmf, BSplineKernel(degree), v))
        assert np.all(np.isfinite(q[[0, 4]])) and np.all(np.isnan(q[1:4]))
        # a finite point in a block with a non-finite one keeps its value
        assert np.array_equal(q[[0, 4]],
                              compound_pdf(pmf, BSplineKernel(degree), x[[0, 4]]))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_far_points_reduced_by_the_period(self, degree):
        # far off the circle x is wrapped onto it first, exactly, as
        # pointwise model evaluation does, and q keeps its period there
        pmf = build_ancestor(random_density(5, 1), 2048)
        kernel = BSplineKernel(degree)
        x = np.array([1e13, -1e13 + 0.5, 2.0**60, 1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = compound_pdf(pmf, kernel, x)
        assert np.array_equal(q, compound_pdf(pmf, kernel, np.fmod(x, 2.0)))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_huge_points_reduced_before_scaling(self, degree):
        # (K/2)(x + 1) would overflow; x is reduced by its period first
        pmf = build_ancestor(random_density(5, 1), 2048)
        kernel = BSplineKernel(degree)
        x = np.array([1.7e308, -1.7e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = compound_pdf(pmf, kernel, x)
            scalar = compound_pdf(pmf, kernel, 1.7e308)
        expected = compound_pdf(pmf, kernel, np.fmod(x, 2.0))
        assert np.all(np.isfinite(q)) and np.array_equal(q, expected)
        assert scalar == expected[0]

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

    @pytest.mark.parametrize("size", [1, 1000, _BLOCK])
    def test_one_block_is_one_draw(self, size):
        # a batch of at most _BLOCK samples draws as before the blocking
        m, kernel = random_density(8, 4), BSplineKernel(1)
        table = build_alias(build_ancestor(m, 64))
        batch = grid_ancestral_sample(m, 64, kernel, size, 17)
        _, x = _draw(table, kernel, size, np.random.default_rng(17))
        assert batch.samples.tobytes() == x.tobytes()

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_blocks_draw_in_turn_from_one_stream(self, degree):
        m, kernel = random_density(8, 4), BSplineKernel(degree)
        table = build_alias(build_ancestor(m, 64))
        batch = grid_ancestral_sample(m, 64, kernel, 2 * _BLOCK + 1, 17)
        rng = np.random.default_rng(17)
        x = np.concatenate([_draw(table, kernel, n, rng)[1]
                            for n in (_BLOCK, _BLOCK, 1)])
        assert batch.samples.tobytes() == x.tobytes()

    def test_rejection_csv_pinned(self, tmp_path):
        # rejection draws its proposals through _draw, which the blocked
        # grid draw left as it was: its CSV keeps its bytes
        out = tmp_path / "rej.csv"
        assert main(["sample", "--method", "rejection", "--n", "20",
                     "--s", "40000", "--seed", "3", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "41c3b0e788ed6b2e6d6493cd1c20905a2aa9b63b0594bcd660d2cca571242fea")
