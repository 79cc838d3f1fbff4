import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from circfourier import (
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    LangevinConfig,
    empirical_w1,
    grid_ancestral_sample,
    mala_refine,
    random_density,
    rejection_sample,
    ula_refine,
    wrap,
)
from circfourier.batch import SampleBatch


class TestWrap:
    def test_identity_in_range(self):
        assert wrap(0.3) == 0.3

    def test_one_period_shift(self):
        assert wrap(1.5) == -0.5

    def test_floor_mod_negative(self):
        assert wrap(-3.0) == -1.0

    def test_idempotent(self):
        xs = np.linspace(-1, 0.999, 57)
        assert np.allclose(wrap(wrap(xs)), wrap(xs))

    def test_stays_in_domain(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-50, 50, 10000)
        w = wrap(xs)
        assert w.min() >= -1.0
        assert w.max() < 1.0


class TestLangevinConfig:
    def test_constant_schedule(self):
        cfg = LangevinConfig(step_size=2e-5, steps=3)
        assert cfg.step_at(0) == cfg.step_at(2) == 2e-5

    def test_decay_schedule(self):
        cfg = LangevinConfig(step_size=1e-4, schedule="decay", steps=3)
        assert cfg.step_at(0) == 1e-4
        assert cfg.step_at(3) == pytest.approx(2.5e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LangevinConfig(step_size=0.0)
        with pytest.raises(ValueError):
            LangevinConfig(step_size=math.inf)
        with pytest.raises(ValueError):
            LangevinConfig(schedule="linear")
        with pytest.raises(ValueError):
            LangevinConfig(steps=-1)


def _batch(samples):
    return SampleBatch(samples=np.asarray(samples, dtype=float))


class TestUla:
    def test_zero_steps_identity(self):
        m = random_density(5, 0)
        batch = grid_ancestral_sample(m, 20, BSplineKernel(1), 500, 1)
        out = ula_refine(m, batch, LangevinConfig(steps=0), 2)
        assert np.array_equal(out.samples, batch.samples)

    def test_uniform_model_stays_uniform(self):
        m = FourierDensity([1.0])
        batch = grid_ancestral_sample(m, 5, BSplineKernel(1), 10**4, 3)
        out = ula_refine(m, batch, LangevinConfig(step_size=1e-5, steps=20), 4)
        result = stats.kstest(out.samples, lambda x: (x + 1) / 2)
        assert result.pvalue > 0.001

    def test_eval_ledger(self):
        m = random_density(10, 1)
        c = EvalCounter()
        batch = grid_ancestral_sample(m, 50, BSplineKernel(1), 1000, 5, c)
        ula_refine(m, batch, LangevinConfig(steps=20), 6, c)
        assert c.score_evals == 20 * 1000
        assert c.total_evals == 2 * 20 * 1000 + 50

    def test_output_in_domain(self):
        m = random_density(8, 2)
        batch = grid_ancestral_sample(m, 33, BSplineKernel(1), 5000, 7)
        out = ula_refine(m, batch, LangevinConfig(step_size=1e-4, steps=10), 8)
        assert out.samples.min() >= -1.0
        assert out.samples.max() < 1.0

    def test_deterministic(self):
        m = random_density(8, 2)
        batch = grid_ancestral_sample(m, 33, BSplineKernel(1), 500, 7)
        a = ula_refine(m, batch, LangevinConfig(steps=5), 9)
        b = ula_refine(m, batch, LangevinConfig(steps=5), 9)
        assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("refine", [ula_refine, mala_refine])
class TestChainState:
    def test_input_ledger_untouched(self, refine):
        m = random_density(5, 0)
        base = grid_ancestral_sample(m, 20, BSplineKernel(1), 100, 1)
        out = refine(m, base, LangevinConfig(steps=3), 2)
        assert base.counter == EvalCounter(pdf_evals=20)
        assert out.counter is not base.counter
        assert out.counter.total_evals > base.counter.total_evals

    def test_decay_schedule_continues_across_calls(self, refine):
        m = random_density(6, 3)
        base = grid_ancestral_sample(m, 30, BSplineKernel(1), 500, 4)
        cfg = LangevinConfig(step_size=1e-3, schedule="decay", steps=5)
        whole = refine(m, base, cfg, 5)
        rng = np.random.default_rng(5)
        split = refine(m, base, replace(cfg, steps=1), rng)
        split = refine(m, split, replace(cfg, steps=4), rng)
        assert np.array_equal(whole.samples, split.samples)
        assert whole.meta["T"] == split.meta["T"] == 5


class TestMala:
    def test_zero_steps_identity(self):
        m = random_density(5, 0)
        batch = _batch([0.1, -0.4])
        out = mala_refine(m, batch, LangevinConfig(steps=0), 1)
        assert np.array_equal(out.samples, batch.samples)
        assert out.meta["acceptance_rate"] == 1.0

    def test_uniform_model_accepts_everything(self):
        m = FourierDensity([1.0])
        batch = grid_ancestral_sample(m, 5, BSplineKernel(1), 2000, 2)
        out = mala_refine(m, batch, LangevinConfig(step_size=1e-4, steps=10), 3)
        assert out.meta["acceptance_rate"] == 1.0

    def test_eval_ledger(self):
        m = random_density(10, 1)
        c = EvalCounter()
        batch = grid_ancestral_sample(m, 50, BSplineKernel(1), 1000, 5, c)
        mala_refine(m, batch, LangevinConfig(step_size=8e-5, steps=20), 6, c)
        assert c.score_evals == 2 * 20 * 1000
        assert c.total_evals == 4 * 20 * 1000 + 50

    def test_acceptance_rate_in_unit_interval(self):
        m = random_density(15, 4)
        batch = grid_ancestral_sample(m, 70, BSplineKernel(1), 2000, 5)
        out = mala_refine(m, batch, LangevinConfig(step_size=8e-5, steps=25), 6)
        assert 0.0 < out.meta["acceptance_rate"] <= 1.0

    def test_stationarity_from_exact_start(self):
        # starting from exact draws, a short MALA run should not move the
        # empirical W1 to a fresh exact batch beyond resampling noise
        m = random_density(10, 8)
        start = rejection_sample(m, 20000, 10)
        fresh = rejection_sample(m, 20000, 11)
        refined = mala_refine(
            m, start, LangevinConfig(step_size=8e-5, steps=100), 12
        )
        w1_before = empirical_w1(start.samples, fresh.samples).estimate
        w1_after = empirical_w1(refined.samples, fresh.samples).estimate
        # bootstrap the before/after difference over subsamples
        rng = np.random.default_rng(13)
        diffs = []
        for _ in range(200):
            idx = rng.integers(0, 20000, 20000)
            d = (
                empirical_w1(refined.samples[idx], fresh.samples).estimate
                - empirical_w1(start.samples[idx], fresh.samples).estimate
            )
            diffs.append(d)
        lo, hi = np.quantile(diffs, [0.005, 0.995])
        assert lo <= 0.0 <= hi or abs(w1_after - w1_before) < 5e-4

    def test_refinement_improves_w1(self):
        # coarse grid (Nyquist-rate) so the unrefined bias dominates noise
        m = random_density(20, 14)
        ref = rejection_sample(m, 50000, 15).samples
        base = grid_ancestral_sample(m, 41, BSplineKernel(1), 50000, 16)
        refined = mala_refine(
            m, base, LangevinConfig(step_size=8e-5, steps=200), 17
        )
        w1_t0 = empirical_w1(base.samples, ref).estimate
        w1_t200 = empirical_w1(refined.samples, ref).estimate
        assert w1_t200 < w1_t0
