import itertools

import numpy as np
import pytest

from circfourier import (
    AncestorPmf,
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    build_alias,
    build_ancestor,
    grid_ancestral_sample,
    random_density,
    reconstruct_pmf,
    sample_ancestors,
)
from circfourier.ancestor import alias_select


class TestBuildAncestor:
    def test_uniform_model(self):
        pmf = build_ancestor(FourierDensity([1.0]), 5)
        assert np.allclose(pmf.probs, 0.2)

    def test_cosine_model(self):
        pmf = build_ancestor(FourierDensity([1.0, 1.0]), 4)
        assert np.allclose(pmf.probs, [0.0, 0.25, 0.5, 0.25], atol=1e-12)

    @pytest.mark.parametrize("seed,n_terms,k", [(0, 7, 15), (1, 7, 64), (2, 30, 61), (3, 30, 500)])
    def test_sums_to_one(self, seed, n_terms, k):
        pmf = build_ancestor(random_density(n_terms, seed), k)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_k_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_ancestor(random_density(10, 0), 20)

    def test_bills_k_evals(self):
        c = EvalCounter()
        build_ancestor(random_density(4, 1), 37, c)
        assert c.pdf_evals == 37

    @pytest.mark.parametrize("k", [50.5, 64.0])
    def test_non_integral_k_rejected(self, k):
        # int(50.5) would build a 50-cell PMF that sums to 0.99 and place
        # the samples on a 50.5 spacing
        m = random_density(4, 1)
        for build in (lambda: build_ancestor(m, k),
                      lambda: grid_ancestral_sample(m, k, BSplineKernel(1),
                                                    10, 0)):
            with pytest.raises(TypeError):
                build()

    def test_numpy_integer_k_accepted(self):
        m = random_density(4, 1)
        k = np.int64(64)
        assert np.array_equal(build_ancestor(m, k).probs,
                              build_ancestor(m, 64).probs)


class TestAliasTable:
    def reconstruction_error(self, probs):
        table = build_alias(AncestorPmf(np.array(probs)))
        return np.max(np.abs(reconstruct_pmf(table) - probs))

    def test_uniform_pair(self):
        table = build_alias(AncestorPmf(np.array([0.5, 0.5])))
        assert np.allclose(reconstruct_pmf(table), [0.5, 0.5], atol=1e-12)

    def test_skewed_pair(self):
        assert self.reconstruction_error([0.75, 0.25]) < 1e-12

    def test_zero_cell(self):
        table = build_alias(AncestorPmf(np.array([0.0, 0.5, 0.5])))
        rec = reconstruct_pmf(table)
        assert rec[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(rec, [0.0, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_pmf_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(int(rng.integers(2, 200)))
        probs /= probs.sum()
        assert self.reconstruction_error(probs) < 1e-12

    @pytest.mark.parametrize("probs", [[0.0, 0.0, 0.0], [0.5, np.nan, 0.5]],
                             ids=["zeros", "nan"])
    def test_unnormalizable_pmf_rejected(self, probs):
        with pytest.raises(ValueError, match="cannot normalize"):
            build_alias(AncestorPmf(np.array(probs)))

    def test_model_pmf_reconstruction(self):
        # an ancestor PMF, and the rejection hats of two models, which
        # sum to hat_mass L / 2 rather than 1
        pmf = build_ancestor(random_density(12, 5), 100).probs
        for probs in (pmf, random_density(12, 5)._hat(),
                      random_density(50, 6)._hat()):
            table = build_alias(AncestorPmf(probs))
            err = reconstruct_pmf(table) - probs / probs.sum()
            assert np.max(np.abs(err)) < 1e-12


class TestSampling:
    def test_degenerate(self):
        table = build_alias(AncestorPmf(np.array([1.0])))
        rng = np.random.default_rng(0)
        assert np.all(sample_ancestors(table, 20, rng) == 0)

    def test_zero_cell_never_drawn(self):
        table = build_alias(AncestorPmf(np.array([0.0, 1.0])))
        draws = sample_ancestors(table, 10000, 3)
        assert np.all(draws == 1)

    def test_binomial_frequencies(self):
        table = build_alias(AncestorPmf(np.array([0.25, 0.75])))
        n = 10**6
        draws = sample_ancestors(table, n, 11)
        count1 = int(np.sum(draws == 1))
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(count1 - 0.75 * n) < 3 * sigma

    def test_deterministic_per_seed(self):
        table = build_alias(build_ancestor(random_density(6, 2), 40))
        a = sample_ancestors(table, 1000, 123)
        b = sample_ancestors(table, 1000, 123)
        assert np.array_equal(a, b)

    def test_sampling_bills_nothing(self):
        c = EvalCounter()
        table = build_alias(build_ancestor(random_density(6, 2), 40, c))
        before = c.total_evals
        sample_ancestors(table, 5000, 1)
        assert c.total_evals == before

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_exhaustive_lattice_exactness(self, k):
        # Every 1/16-multiple PMF of size k, driven by an exhaustive scan of
        # the sampler's two uniform inputs, must reproduce the PMF closely.
        rng = np.random.default_rng(k)
        for _ in range(5):
            weights = rng.multinomial(16, np.full(k, 1.0 / k))
            probs = weights / 16.0
            table = build_alias(AncestorPmf(probs))
            us = np.arange(1024) / 1024.0
            counts = np.zeros(k)
            for idx in range(k):
                chosen = alias_select(table, np.full(us.size, idx), us)
                counts += np.bincount(chosen, minlength=k)
            freq = counts / (k * 1024.0)
            assert np.max(np.abs(freq - probs)) < 2e-3
