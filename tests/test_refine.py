import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
from circfourier.refine import SCHEDULES


def former_wrap(x):
    """wrap as it was before it worked in one output array: the reference,
    but for 1 - 2^-53, where x + 1 rounds to 2 and it gave -1.0; that x is
    in [-1, 1), so it stays as it is."""
    x = np.asarray(x, dtype=float)
    vals = x - 2.0 * np.floor((x + 1.0) / 2.0)
    vals = np.where(vals >= 1.0, vals - 2.0, vals)
    vals = np.where(vals < -1.0, vals + 2.0, vals)
    vals = np.where(x == np.nextafter(1.0, 0.0), x, vals)
    return vals if np.ndim(vals) else float(vals)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


_EDGES = [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.nextafter(-1.0, 0.0),
          np.nextafter(-1.0, -2.0), 1.0, -1.0, 3.0 - 2.0**-51, 2.0**60,
          -(2.0**60), 0.0, -0.0]


class TestWrap:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(_EDGES),
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(_EDGES)), max_size=40),
    ), st.sampled_from(["python", "0-d", "array"]))
    @example(float(np.nextafter(1.0, 0.0)), "python")
    @example(2.0**60, "0-d")
    def test_in_domain_idempotent_and_as_before(self, x, form):
        if form == "0-d" and not isinstance(x, list):
            x = np.array(x)
        elif form == "array" or isinstance(x, list):
            x = np.array(x, dtype=float).reshape(-1)
        w = wrap(x)
        assert type(w) is type(former_wrap(x))
        assert _bits(w) == _bits(former_wrap(x))
        assert np.all((np.asarray(w) >= -1.0) & (np.asarray(w) < 1.0))
        assert _bits(wrap(w)) == _bits(w)

    def test_non_finite_as_before(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.5])
        with np.errstate(invalid="ignore"):
            assert _bits(wrap(x)) == _bits(former_wrap(x))

    def test_infinite_gives_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [wrap(np.inf), wrap(-np.inf), *wrap(np.array([np.inf, -np.inf]))]
        assert np.all(np.isnan(vals))

    def test_identity_in_range(self):
        assert wrap(0.3) == 0.3
        assert wrap(np.nextafter(1.0, 0.0)) == np.nextafter(1.0, 0.0)

    def test_pdf_at_largest_double_below_one_independent_of_block(self):
        # a block with a point off [-1, 1) is wrapped whole; 1 - 2^-53 must
        # come through as itself, not as -1
        m = random_density(20, 1)
        x = 1.0 - 2.0**-53
        assert m.pdf([x])[0] == m.pdf([x, 5.0])[0]

    def test_nan_does_not_hide_a_one(self):
        # 5 - 4 is 1, which goes to -1 whatever else the array holds
        vals = wrap(np.array([np.nan, 5.0, -3.0]))
        assert np.isnan(vals[0]) and vals[1:].tolist() == [-1.0, -1.0]

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

    def test_largest_step(self):
        # the step bound is 1, inclusive
        assert LangevinConfig(step_size=1.0).step_at(0) == 1.0
        with pytest.raises(ValueError):
            LangevinConfig(step_size=np.nextafter(1.0, 2.0))

    def test_invalid(self):
        with pytest.raises(ValueError):
            LangevinConfig(step_size=0.0)
        with pytest.raises(ValueError):
            LangevinConfig(step_size=math.inf)
        with pytest.raises(ValueError):
            LangevinConfig(schedule="linear")
        with pytest.raises(ValueError):
            LangevinConfig(steps=-1)

    @pytest.mark.parametrize("refine", [ula_refine, mala_refine])
    def test_steps_must_be_an_integer(self, refine):
        # 2.0 would pass the sign check, and the chain cannot count by it
        with pytest.raises(TypeError):
            LangevinConfig(steps=2.0)
        m = random_density(5, 0)
        base = grid_ancestral_sample(m, 20, BSplineKernel(1), 100, 1)
        out = refine(m, base, LangevinConfig(steps=np.int64(2)), 2)
        assert np.array_equal(out.samples,
                              refine(m, base, LangevinConfig(steps=2), 2).samples)
        assert out.meta["T"] == 2


def former_ula_refine(model, batch, cfg, rng, counter):
    """ula_refine's step loop before it reused its buffers: the reference."""
    rng = np.random.default_rng(rng)
    t0 = int(batch.meta.get("T", 0))
    x = batch.samples.copy()
    for t in range(t0, t0 + cfg.steps):
        eps = cfg.step_at(t)
        s = model.score(x, counter)
        z = rng.standard_normal(x.size)
        x = former_wrap(x + eps * s + np.sqrt(2.0 * eps) * z)
    return x, {"T": t0 + cfg.steps}


def former_mala_refine(model, batch, cfg, rng, counter):
    """mala_refine's step loop before it reused its buffers: the reference."""
    rng = np.random.default_rng(rng)
    t0 = int(batch.meta.get("T", 0))
    x = batch.samples.copy()
    n_accept = 0
    for t in range(t0, t0 + cfg.steps):
        eps = cfg.step_at(t)
        p_cur, s_cur = model.pdf_and_score(x, counter)
        drift = eps * s_cur
        z = rng.standard_normal(x.size)
        prop = former_wrap(x + drift + np.sqrt(2.0 * eps) * z)
        p_prop, s_prop = model.pdf_and_score(prop, counter)
        delta = former_wrap(prop - x)
        log_fwd = -((delta - drift) ** 2) / (4.0 * eps)
        log_rev = -((-delta - eps * s_prop) ** 2) / (4.0 * eps)
        log_alpha = np.log(p_prop) - np.log(p_cur) + log_rev - log_fwd
        accept = np.log(rng.random(x.size)) < log_alpha
        x = np.where(accept, prop, x)
        n_accept += int(accept.sum())
    rate = n_accept / (x.size * cfg.steps) if cfg.steps else 1.0
    return x, {"T": t0 + cfg.steps, "acceptance_rate": rate}


@pytest.mark.parametrize("refine,former", [(ula_refine, former_ula_refine),
                                           (mala_refine, former_mala_refine)])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("eps", [1e-5, 8e-5, 1e-3])
@pytest.mark.parametrize("n", [5, 20, 50])
def test_matches_former_step_loop(refine, former, schedule, eps, n):
    # S = 30001 is not a multiple of the evaluation block; the batch starts
    # at T = 3 so that the decay schedule continues mid-way
    m = random_density(n, n)
    base = grid_ancestral_sample(m, 4 * n + 1, BSplineKernel(1), 30001, 1,
                                 EvalCounter())
    base.meta["T"] = 3
    cfg = LangevinConfig(step_size=eps, schedule=schedule, steps=7)
    c_new, c_ref = replace(base.counter), replace(base.counter)
    out = refine(m, base, cfg, 2, c_new)
    x_ref, meta_ref = former(m, base, cfg, 2, c_ref)
    assert np.array_equal(out.samples, x_ref)
    assert c_new == c_ref == out.counter
    for key, val in meta_ref.items():
        assert out.meta[key] == val


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

    def test_acceptance_spread_is_over_steps(self):
        m = random_density(15, 4)
        batch = grid_ancestral_sample(m, 70, BSplineKernel(1), 2000, 5)
        cfg = LangevinConfig(step_size=1e-3, schedule="decay", steps=6)
        out = mala_refine(m, batch, cfg, 6)
        rng, rates, split = np.random.default_rng(6), [], batch
        for _ in range(cfg.steps):
            split = mala_refine(m, split, replace(cfg, steps=1), rng)
            rates.append(split.meta["acceptance_rate"])
        assert np.array_equal(out.samples, split.samples)
        assert out.meta["acceptance_min"] == min(rates) < max(rates)
        assert out.meta["acceptance_max"] == max(rates)
        assert 0.0 <= min(rates) <= out.meta["acceptance_rate"] <= max(rates) <= 1.0

    def test_acceptance_spread_without_steps(self):
        out = mala_refine(random_density(5, 0), _batch([0.1, -0.4]),
                          LangevinConfig(steps=0), 1)
        assert out.meta["acceptance_min"] == out.meta["acceptance_max"] == 1.0

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
