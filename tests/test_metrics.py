import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from circfourier import (
    AncestorPmf,
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    build_alias,
    build_ancestor,
    compound_pdf,
    empirical_w1,
    inverse_transform_sample,
    kl_monte_carlo,
    random_density,
    rejection_sample,
    tv_bound,
    tv_quadrature,
    w1_bound,
    w1_quadrature,
    wrap,
)
from circfourier import kernels, metrics
from circfourier.metrics import NumericalError


class TestRejectionSampling:
    def test_uniform_model_never_rejects(self):
        # the hat is the target up to rounding: every proposal is accepted
        m = FourierDensity([1.0])
        batch = rejection_sample(m, 5000, 0)
        assert batch.meta["hat_mass"] == pytest.approx(1.0, abs=1e-9)
        assert batch.size == 5000
        assert batch.meta["proposals"] == 5000

    def test_cosine_model_envelope(self):
        m = FourierDensity([1.0, 1.0])
        batch = rejection_sample(m, 10**5, 2)
        # acceptance probability is 1/hat_mass for a normalized target
        n_prop = batch.meta["proposals"]
        p_hat = 10**5 / n_prop
        assert p_hat == pytest.approx(1.0 / batch.meta["hat_mass"], abs=0.02)

    def test_bills_one_eval_per_proposal(self):
        # from a first pass of S proposals, and from passes of 2^14
        m = FourierDensity([1.0, 1.0])
        for size in (10**4, 10**5):
            c = EvalCounter()
            batch = rejection_sample(m, size, 3, c)
            assert c.pdf_evals == batch.meta["proposals"]

    def test_ks_against_cdf(self):
        m = random_density(10, 4)
        batch = rejection_sample(m, 10**5, 5)
        result = stats.kstest(batch.samples, m.cdf)
        assert result.pvalue > 0.001

    def test_deterministic(self):
        m = random_density(5, 6)
        a = rejection_sample(m, 1000, 7)
        b = rejection_sample(m, 1000, 7)
        assert np.array_equal(a.samples, b.samples)

    def test_envelope_recorded(self):
        # the hat used: its L cells, those of the amplitude table, and its
        # mass sum_j H_j 2/L
        for m in (FourierDensity([1.0]), FourierDensity([1.0, 1.0])):
            meta = rejection_sample(m, 10, 0).meta
            hat = m._hat()
            assert meta["hat_cells"] == hat.size == m._table().shape[1]
            assert meta["hat_mass"] == np.cumsum(hat)[-1] * 2.0 / hat.size
            assert 1.0 <= meta["hat_mass"] < 1.001

    def test_hat_below_density_raises(self, monkeypatch):
        hat = FourierDensity._hat
        monkeypatch.setattr(FourierDensity, "_hat", lambda m: 0.9 * hat(m))
        with pytest.raises(NumericalError, match="hat below the density"):
            rejection_sample(random_density(10, 1), 1000, 2)

    def test_ks_with_mass_at_the_seam(self):
        # A(w) = (1 - w)^6: p is proportional to sin(pi x/2)^12 and peaks
        # at +-1, where cell 0 straddles the seam
        m = FourierDensity([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])
        size = 10**5
        batch = rejection_sample(m, size, 8)
        x, edge = batch.samples, 1.0 - 1.0 / batch.meta["hat_cells"]
        assert np.all((x >= -1.0) & (x < 1.0))
        # cell 0 holds its share of the samples, from both sides of the seam
        share = 1.0 - m.cdf(edge) + m.cdf(-edge)
        in_cell = np.count_nonzero(np.abs(x) > edge)
        assert abs(in_cell - size * share) <= 5 * math.sqrt(size * share)
        assert np.any(x > edge) and np.any(x < -edge)
        result = stats.kstest(x, m.cdf)
        assert result.pvalue > 0.001

    def test_memory_flat_in_size(self):
        """Traced peak of one call stays within its output plus a fixed
        number of proposal passes, at any S."""
        m = random_density(200, 0)
        for size in (100_000, 400_000):
            tracemalloc.start()
            try:
                batch = rejection_sample(m, size, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            nbytes = batch.samples.nbytes
            assert peak <= 2 * nbytes + 12 * 2**20, (size, peak / 2**20)

    @pytest.mark.parametrize("size", [1, 1000, 3 * 2**14 + 7])
    def test_last_sample_is_last_proposal(self, size, monkeypatch):
        """No pass draws past the S-th acceptance: the last sample is the
        last proposal drawn, and every proposal drawn is billed."""
        draw, drawn = metrics._draw, []

        def recording(*args):
            j, x = draw(*args)
            drawn.append(x)
            return j, x

        monkeypatch.setattr(metrics, "_draw", recording)
        c = EvalCounter()
        batch = rejection_sample(random_density(20, 11), size, 12, c)
        assert batch.samples[-1] == drawn[-1][-1]
        proposals = sum(x.size for x in drawn)
        assert c.pdf_evals == batch.meta["proposals"] == proposals

    @pytest.mark.parametrize("cells", [2, 4096, 8192])
    def test_proposal_in_its_closed_cell(self, cells, monkeypatch):
        """At the first and last cells and both extreme box offsets, x lies
        in its closed cell [x_j - 1/L, x_j + 1/L] before the wrap, where the
        hat bounds p, and in [-1, 1) after it."""
        idx = np.repeat([0, cells - 1], 2)
        offsets = np.tile([-0.5, 0.5 - 2.0**-53], 2)

        class Box:
            def sample(self, size, rng):
                return offsets

        monkeypatch.setattr(kernels, "sample_ancestors", lambda *args: idx)
        table = build_alias(AncestorPmf(np.ones(cells)))
        _, x = kernels._draw(table, Box(), idx.size, 0)
        assert np.all((x >= -1.0) & (x < 1.0))
        monkeypatch.setattr(kernels, "wrap", lambda x: x)
        _, x = kernels._draw(table, Box(), idx.size, 0)
        x_j = -1.0 + 2.0 * idx / cells
        assert np.all((x_j - 1.0 / cells <= x) & (x <= x_j + 1.0 / cells))

    def test_proposal_density_is_daas_on_the_hat(self):
        # the box-kernel compound density of the hat is (L/2) H_j across
        # each cell j, so a proposal lands in cell j with weight H_j
        m = random_density(50, 9)
        hat = m._hat()
        cells = hat.size
        offsets = np.array([-0.5, -0.3, 0.0, 0.3, 0.5 - 2.0**-20])
        x = wrap(-1.0 + (2.0 / cells) * (np.arange(cells)[:, None] + offsets))
        q = compound_pdf(AncestorPmf(hat), BSplineKernel(0), x)
        assert np.all(q == (cells / 2) * hat[:, None])

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("n,size", [(0, 5000), (1, 2 * 10**4), (5, 3), (50, 1),
                                        (1, 10**5), (50, 4 * 10**4)])
    def test_matches_whole_rounds(self, bits, n, size):
        """Samples, bill and the generator's final state equal those of
        drawing each pass of proposals whole, from the generator's raw
        draws, in one pass or (S above 2^14) in several."""
        m = random_density(n, 100 + n)
        rng, ref_rng = np.random.Generator(bits(n)), np.random.Generator(bits(n))
        c = EvalCounter()
        batch = rejection_sample(m, size, rng, c)
        ref, ref_proposals = _whole_rounds(m, size, ref_rng)
        assert np.array_equal(batch.samples, ref)
        assert batch.meta["proposals"] == c.pdf_evals == ref_proposals
        assert np.array_equal(rng.random(4), ref_rng.random(4))


def _whole_rounds(model, size, rng):
    """Rejection under the hat, each pass of min(2^14, S - accepted)
    proposals drawn at once: the cells from the hat's alias table (a
    uniform cell, then a uniform that keeps it or takes its alias), box
    offsets, then u; x = x_j + (2/L) times the offset, wrapped, accepted
    when u H_j <= p(x)."""
    hat = model._hat()
    cells = hat.size
    table = build_alias(AncestorPmf(hat))
    out, collected, proposals = [], 0, 0
    while collected < size:
        n = min(2**14, size - collected)
        i = rng.integers(cells, size=n)
        j = np.where(rng.random(n) < table.prob[i], i, table.alias[i])
        x = wrap(-1.0 + (2.0 / cells) * (j + (rng.random(n) - 0.5)))
        u = rng.random(n)
        out.append(x[u * hat[j] <= model.pdf(x)])
        collected += out[-1].size
        proposals += n
    return np.concatenate(out), proposals


@st.composite
def amplitudes(draw):
    """N + 1 <= 201 i.i.d. complex normal amplitudes; half of the time
    with a zero of A on the unit circle, where p vanishes."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    if n >= 1 and draw(st.booleans()):
        x0 = draw(st.floats(-1.0, 1.0, exclude_max=True))
        a = np.convolve(a[:-1], [1.0, -np.exp(1j * np.pi * x0)])
    return a


@settings(max_examples=40, deadline=None)
@given(amplitudes())
@example([1.0, -1.0])
@example([2.0 - 1.0j])
def test_hat_bounds_pdf_on_every_cell(amps):
    """Every H_j is at or above pdf at 65 points across its closed cell
    [x_j - 1/L, x_j + 1/L], both edges included, and the hat's mass is at
    most 1.06."""
    m = FourierDensity(amps)
    hat = m._hat()
    cells = hat.size
    assert cells == m._table().shape[1]
    x = (-1.0 - 1.0 / cells) + (2.0 / cells) * (
        np.arange(cells)[:, None] + np.arange(65) / 64)
    assert np.all(m.pdf(x) <= hat[:, None])
    assert np.cumsum(hat)[-1] * 2.0 / cells <= 1.06


class TestInverseTransformSampling:
    def test_uniform_quantile(self):
        m = FourierDensity([1.0])
        batch = inverse_transform_sample(m, 10**4, 0, tol=1e-10)
        # CDF of samples should be the uniforms that generated them
        result = stats.kstest(batch.samples, lambda x: (x + 1) / 2)
        assert result.pvalue > 0.001

    def test_symmetric_median(self):
        # cdf(0) = 1/2 for the raised-cosine model, so U=0.5 inverts to 0
        m = FourierDensity([1.0, 1.0])
        assert m.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert abs(_invert(m, 0.5, 1e-10)) < 1e-9

    def test_uniform_quartile(self):
        m = FourierDensity([1.0])
        assert _invert(m, 0.25, 1e-10) == pytest.approx(-0.5, abs=1e-9)

    def test_ks_against_cdf(self):
        m = random_density(8, 1)
        batch = inverse_transform_sample(m, 10**5, 2, tol=1e-10)
        result = stats.kstest(batch.samples, m.cdf)
        assert result.pvalue > 0.001

    def test_samples_in_domain(self):
        m = random_density(6, 3)
        batch = inverse_transform_sample(m, 1000, 4, tol=1e-8)
        assert np.all(np.abs(batch.samples) <= 1.0)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            inverse_transform_sample(FourierDensity([1.0]), 10, 0, tol=0.0)
        with pytest.raises(ValueError):
            inverse_transform_sample(FourierDensity([1.0]), 10, 0, tol=math.inf)

    @pytest.mark.parametrize("tol", [2.0, 10.0])
    def test_tol_of_two_or_more_rejected(self, tol):
        with pytest.raises(ValueError, match="below 2"):
            inverse_transform_sample(FourierDensity([1.0]), 5, 1, tol=tol)

    def test_tol_just_below_two_takes_one_step(self):
        c = EvalCounter()
        batch = inverse_transform_sample(FourierDensity([1.0]), 100, 1,
                                         tol=1.99, counter=c)
        assert c.pdf_evals == 100
        assert set(batch.samples.tolist()) == {-0.5, 0.5}

    def test_subnormal_tol(self):
        # 2/tol overflows; the bisection still runs ceil(log2(2/tol)) steps
        c = EvalCounter()
        inverse_transform_sample(FourierDensity([1.0]), 3, 0, tol=5e-324, counter=c)
        assert c.pdf_evals == 3 * 1075


def _invert(model, u, tol):
    lo, hi = -1.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTvQuadrature:
    def test_identical_densities(self):
        m = random_density(5, 0)
        rep = tv_quadrature(m.pdf, m.pdf)
        assert rep.estimate == 0.0

    def test_uniform_vs_its_compound(self):
        m = FourierDensity([1.0])
        pmf = build_ancestor(m, 7)
        ker = BSplineKernel(1)
        rep = tv_quadrature(m.pdf, lambda x: compound_pdf(pmf, ker, x))
        assert rep.estimate == pytest.approx(0.0, abs=1e-10)

    def test_cosine_below_bound(self):
        m = FourierDensity([1.0, 1.0])
        pmf = build_ancestor(m, 8)
        ker = BSplineKernel(1)
        rep = tv_quadrature(m.pdf, lambda x: compound_pdf(pmf, ker, x))
        assert rep.estimate <= tv_bound(1, 8)
        assert tv_bound(1, 8) == pytest.approx(np.pi**2 * 6 / (12 * 64))


class TestBounds:
    def test_uniform_is_exact(self):
        assert tv_bound(0, 4) == 0.0
        assert w1_bound(0, 4) == 0.0

    def test_closed_form_value(self):
        assert tv_bound(1, 10) == pytest.approx(np.pi**2 / 200)

    def test_w1_is_twice_tv(self):
        assert w1_bound(7, 31) == pytest.approx(2 * tv_bound(7, 31))

    def test_quartic_scaling_in_k(self):
        assert tv_bound(3, 14) == pytest.approx(4 * tv_bound(3, 28))

    def test_k_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            tv_bound(10, 20)

    @pytest.mark.parametrize("k, error", [(3.5, TypeError), (3.0, TypeError),
                                          (2, ValueError)])
    def test_k_rule_shared_with_pdf_grid(self, k, error):
        # at N = 1, K must be an integer >= 2N+1 = 3 for the bound as for
        # the grid it bounds, with the same message
        messages = []
        for check in (lambda: tv_bound(1, k),
                      lambda: random_density(1, 0).pdf_grid(k)):
            with pytest.raises(error) as info:
                check()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert tv_bound(1, np.int64(3)) == tv_bound(1, 3)

    def test_n_must_be_an_integer(self):
        # as K must: 2.0 == 2, but no density has a fractional degree
        with pytest.raises(TypeError):
            tv_bound(2.0, 5)
        assert tv_bound(np.int64(2), 5) == tv_bound(2, 5)

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_compliance_random_models(self, seed):
        rng = np.random.default_rng(seed)
        n_terms = int(rng.choice([1, 5, 20]))
        m = random_density(n_terms, rng)
        k = int(rng.choice([2 * n_terms + 1, 4 * n_terms, 8 * n_terms]))
        if k < 2 * n_terms + 1:
            k = 2 * n_terms + 1
        pmf = build_ancestor(m, k)
        q = lambda x: compound_pdf(pmf, BSplineKernel(1), x)
        assert tv_quadrature(m.pdf, q).estimate <= tv_bound(n_terms, k)
        assert w1_quadrature(m.pdf, q).estimate <= w1_bound(n_terms, k)


class TestKlMonteCarlo:
    def test_same_density_near_zero(self):
        m = random_density(6, 0)
        batch = rejection_sample(m, 20000, 1)
        rep = kl_monte_carlo(batch, m.pdf, m.pdf)
        assert rep.estimate == 0.0

    def test_uniform_exactly_zero(self):
        m = FourierDensity([1.0])
        batch = rejection_sample(m, 1000, 2)
        rep = kl_monte_carlo(batch, m.pdf, lambda x: np.full(np.size(x), 0.5))
        assert rep.estimate == 0.0
        assert rep.std_error == 0.0

    def test_decreasing_in_k(self):
        m = FourierDensity([1.0, 1.0])
        batch = rejection_sample(m, 10**5, 3)
        ker = BSplineKernel(1)
        estimates = []
        for k in (4, 8, 16, 32):
            pmf = build_ancestor(m, k)
            rep = kl_monte_carlo(
                batch, m.pdf, lambda x: compound_pdf(pmf, ker, x)
            )
            estimates.append(rep.estimate)
        assert all(b < a for a, b in zip(estimates, estimates[1:]))

    def test_consistent_with_quadrature(self):
        m = random_density(8, 4)
        pmf = build_ancestor(m, 20)
        ker = BSplineKernel(1)
        batch = rejection_sample(m, 10**5, 5)
        rep = kl_monte_carlo(batch, m.pdf, lambda x: compound_pdf(pmf, ker, x))
        xs = np.linspace(-1, 1, 200001)
        p = m.pdf(xs)
        q = np.maximum(compound_pdf(pmf, ker, xs), 1e-12)
        kl_quad = np.trapezoid(p * np.log(p / q), xs)
        assert abs(rep.estimate - kl_quad) < 3 * rep.std_error


class TestEmpiricalW1:
    def test_identical_sets(self):
        xs = np.array([-0.5, 0.1, 0.7])
        rep = empirical_w1(xs, xs.copy())
        assert rep.estimate == 0.0

    def test_single_pair(self):
        assert empirical_w1([0.0], [0.5]).estimate == 0.5

    def test_sorted_matching(self):
        rep = empirical_w1([-0.5, 0.5], [0.0, -1.0])
        # sorted: {-1, 0} vs {-0.5, 0.5} -> (0.5 + 0.5) / 2
        assert rep.estimate == pytest.approx(0.5)

    def test_unequal_sizes_subsampled(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, 10**5)
        ys = rng.uniform(-1, 1, 10**4)
        rep = empirical_w1(xs, ys)
        assert rep.estimate < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_w1([], [0.1])

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1, 1, 1000)
        ys = rng.beta(2, 3, 1000) * 2 - 1
        rep = empirical_w1(xs, ys)
        assert rep.estimate == pytest.approx(
            stats.wasserstein_distance(xs, ys), abs=1e-12
        )


class TestConvergenceRate:
    @pytest.mark.parametrize("n_terms", [5])
    def test_tv_slope_near_minus_two(self, n_terms):
        m = random_density(n_terms, 9)
        ker = BSplineKernel(1)
        ks = np.array([4, 8, 16, 32]) * n_terms
        tvs = []
        for k in ks:
            pmf = build_ancestor(m, int(k))
            rep = tv_quadrature(m.pdf, lambda x: compound_pdf(pmf, ker, x))
            tvs.append(rep.estimate)
        slope = np.polyfit(np.log(ks), np.log(tvs), 1)[0]
        assert -2.5 <= slope <= -1.5
