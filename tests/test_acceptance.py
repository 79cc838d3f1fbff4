"""End-to-end acceptance suite.

Each test verifies one headline guarantee of the package and prints a
single PASS/FAIL line (visible even under pytest capture).  Criteria with
a statistical component use pinned seeds; tolerances are stated inline.
"""
import time

import numpy as np
import pytest
from scipy import stats

from circfourier import (
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    LangevinConfig,
    build_ancestor,
    compound_pdf,
    grid_ancestral_sample,
    inverse_transform_sample,
    mala_refine,
    random_density,
    rejection_sample,
    tv_bound,
    tv_quadrature,
    ula_refine,
    w1_bound,
    w1_quadrature,
)
from circfourier.cli import ExperimentConfig, run_convergence, run_refinement
from circfourier.metrics import KL_FLOOR


def report(capsys, number, name, ok):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {number:02d}] {name}: {status}")
    assert ok, f"criterion {number:02d} ({name}) failed"


def test_criterion_01_divergence_bounds(capsys):
    # TV and W1 of the triangle-kernel grid approximation never exceed the
    # closed-form bounds, over 50 random models and three grid densities
    t0 = time.monotonic()
    ns = [1, 5, 20, 50]
    violations = 0
    for i in range(50):
        n = ns[i % len(ns)]
        m = random_density(n, 10_000 + i)
        for k in (2 * n + 1, 4 * n, 8 * n):
            if k < 2 * n + 1:
                continue
            pmf = build_ancestor(m, k)
            q = lambda x: compound_pdf(pmf, BSplineKernel(1), x)
            if tv_quadrature(m.pdf, q).estimate > tv_bound(n, k):
                violations += 1
            if w1_quadrature(m.pdf, q).estimate > w1_bound(n, k):
                violations += 1
    elapsed = time.monotonic() - t0
    report(capsys, 1, "divergence bound compliance", violations == 0 and elapsed < 120)


def test_criterion_02_quadratic_rate(capsys):
    # TV decays as K^-2: log-log slope within [-2.5, -1.5]
    t0 = time.monotonic()
    ok = True
    for n, seed in ((5, 20_001), (20, 20_002)):
        m = random_density(n, seed)
        ks = np.array([4 * n, 8 * n, 16 * n, 32 * n])
        tvs = []
        for k in ks:
            pmf = build_ancestor(m, int(k))
            q = lambda x: compound_pdf(pmf, BSplineKernel(1), x)
            tvs.append(tv_quadrature(m.pdf, q).estimate)
        slope = np.polyfit(np.log(ks), np.log(tvs), 1)[0]
        ok = ok and -2.5 <= slope <= -1.5
    elapsed = time.monotonic() - t0
    report(capsys, 2, "quadratic convergence rate", ok and elapsed < 60)


def test_criterion_03_grid_sum_identity(capsys):
    # sum of the density over any admissible uniform grid equals K/2
    t0 = time.monotonic()
    rng = np.random.default_rng(30_000)
    ok = True
    for _ in range(200):
        n = int(rng.integers(0, 60))
        m = random_density(n, rng)
        k = int(rng.integers(2 * n + 1, 4 * n + 32))
        total = m.pdf_grid(k).sum()
        ok = ok and abs(total - k / 2) <= 1e-9 * (k / 2)
    elapsed = time.monotonic() - t0
    report(capsys, 3, "grid sum equals K/2", ok and elapsed < 5)


def test_criterion_04_triangle_interpolation(capsys):
    # degree-1 compound density interpolates the model at the knots and is
    # the two-point linear interpolant between them
    t0 = time.monotonic()
    rng = np.random.default_rng(40_000)
    ok = True
    for seed in range(10):
        n = int(rng.integers(1, 30))
        m = random_density(n, rng)
        k = int(rng.integers(2 * n + 1, 6 * n + 16))
        pmf = build_ancestor(m, k)
        ker = BSplineKernel(1)
        knots = -1 + 2 * np.arange(k) / k
        ok = ok and np.max(np.abs(compound_pdf(pmf, ker, knots) - m.pdf(knots))) <= 1e-12
        p_knots = m.pdf(knots)
        xs = rng.uniform(-1.0, 1.0, 10)
        t = 0.5 * k * (xs + 1.0)
        lo = np.floor(t).astype(int)
        frac = t - lo
        lin = (1 - frac) * p_knots[lo % k] + frac * p_knots[(lo + 1) % k]
        ok = ok and np.max(np.abs(compound_pdf(pmf, ker, xs) - lin)) <= 1e-12
    elapsed = time.monotonic() - t0
    report(capsys, 4, "triangle kernel linear interpolation", ok and elapsed < 5)


def test_criterion_05_positivity_and_bounds(capsys):
    # construction guarantees: non-negative density, |c_n| <= c_0, and the
    # derivative never exceeds the closed-form band-limit bound
    t0 = time.monotonic()
    rng = np.random.default_rng(50_000)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        m = random_density(n, rng)
        k = 10_000
        vals = m.pdf_grid(k)
        ok = ok and vals.min() >= -1e-9
        c = m.coefficients
        ok = ok and np.all(np.abs(c[1:]) <= np.abs(c[0]) * (1 + 1e-12))
        b1 = np.pi * n * (n + 1) / 2
        p, s = m.pdf_and_score(-1 + 2 * np.arange(k) / k)
        p1 = s * p
        ok = ok and np.max(np.abs(p1)) <= b1 * (1 + 1e-12)
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report(capsys, 5, "positivity and coefficient bounds", ok and elapsed < 60)


def test_criterion_06_cost_ledger(capsys):
    # evaluation totals for S=1e6 samples at K=50 with T=20 refinement
    # steps: grid sampling costs K regardless of S; ULA adds 2 evals per
    # sample-step, MALA 4
    s, k, t_steps = 10**6, 50, 20
    m = random_density(10, 60_000)
    ker = BSplineKernel(1)

    c_tri = EvalCounter()
    base = grid_ancestral_sample(m, k, ker, s, 1, c_tri)
    tri_total = c_tri.total_evals

    c_ula = EvalCounter()
    c_ula.pdf_evals = k
    ula_refine(m, base, LangevinConfig(step_size=1e-5, steps=t_steps), 2, c_ula)

    c_mala = EvalCounter()
    c_mala.pdf_evals = k
    mala_refine(m, base, LangevinConfig(step_size=8e-5, steps=t_steps), 3, c_mala)

    ok = (
        tri_total == 50
        and c_ula.total_evals == 4 * 10**7 + 50
        and c_mala.total_evals == 8 * 10**7 + 50
    )
    report(capsys, 6, "evaluation cost ledger", ok)


def test_criterion_07_kl_vs_grid_density(capsys):
    # KL of the grid approximation falls as K doubles (Monte Carlo rows),
    # the triangle kernel beats box and quadratic at every K for every
    # trial's model (exact KL by quadrature), and every Monte Carlo row lies
    # within 5 standard errors of the exact KL.  At K=2048 the
    # triangle/quadratic gap is below the Monte Carlo noise of S=1e5, so
    # the ordering is checked on the exact values.
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        seed=1000, n=50, s=10**5, trials=10,
        k_sweep=(128, 256, 512, 1024, 2048), degrees=(0, 1, 2),
    )
    rows = run_convergence(cfg)
    kl = {(k, tr, d): v for k, tr, d, v, _ in rows}
    ks = cfg.k_sweep

    pairs = decreasing = 0
    for tr in range(cfg.trials):
        for a, b in zip(ks, ks[1:]):
            pairs += 1
            decreasing += kl[(b, tr, 1)] < kl[(a, tr, 1)]
    trend_ok = decreasing / pairs >= 0.9

    order_ok = rows_ok = True
    trngs = np.random.default_rng(cfg.seed).spawn(cfg.trials)
    for tr, trng in enumerate(trngs):
        # run_convergence draws trial tr's model first from its stream tr
        model = random_density(cfg.n, trng)
        for k in ks:
            pmf = build_ancestor(model, k)
            exact = {}
            for d in cfg.degrees:
                exact[d], var = _exact_kl(model, pmf, BSplineKernel(d))
                tol = 5.0 * np.sqrt(var / cfg.s)
                rows_ok = rows_ok and abs(kl[(k, tr, d)] - exact[d]) <= tol
            order_ok = order_ok and exact[1] < exact[0] and exact[1] < exact[2]

    elapsed = time.monotonic() - t0
    report(capsys, 7, "kernel ordering and KL decay",
           trend_ok and order_ok and rows_ok and elapsed < 300)


def _exact_kl(model, pmf, kernel):
    """KL(p || q) and Var_p[log p/q] by the midpoint rule, q floored as in
    kl_monte_carlo.  Every kernel knot (whole and half grid cells) falls on
    a boundary of the midpoint cells, so q is a polynomial inside each."""
    points = 1 << 16
    assert points % (2 * pmf.size) == 0
    x = (np.arange(points) + 0.5) * (2.0 / points) - 1.0
    p = model.pdf(x)
    log_ratio = np.log(p / np.maximum(compound_pdf(pmf, kernel, x), KL_FLOOR))
    w = p * (2.0 / points)
    kl = float(np.sum(w * log_ratio))
    return kl, float(np.sum(w * (log_ratio - kl) ** 2))


def test_criterion_08_langevin_refinement(capsys):
    # Langevin refinement strictly reduces W1 to an exact reference by
    # T=500 steps (median over 5 seeds), and the unrefined W1 sits within
    # a factor of 3 of 1.7e-3 scaled by sqrt(1e6 / S) for sample count
    t0 = time.monotonic()
    w1 = {"daas": [], "ula": [], "mala": []}
    for seed in range(5):
        cfg = ExperimentConfig(
            seed=seed, n=20, k=80, s=10**5, t_sweep=(0, 500),
            eps_ula=1e-5, eps_mala=8e-5,
        )
        for t_steps, method, val in run_refinement(cfg):
            if (t_steps, method) in ((0, "daas"), (500, "ula"), (500, "mala")):
                w1[method].append(val)
    med0 = np.median(w1["daas"])
    improved = np.median(w1["ula"]) < med0 and np.median(w1["mala"]) < med0
    ref = 1.7e-3 * np.sqrt(10**6 / 10**5)
    magnitude_ok = ref / 3 <= med0 <= ref * 3
    elapsed = time.monotonic() - t0
    report(capsys, 8, "Langevin refinement trend", improved and magnitude_ok and elapsed < 600)


def test_criterion_09_sampler_exactness(capsys):
    # rejection and inverse-transform draws match the analytic CDF (KS at
    # the 0.001 level); grid-ancestral draws match the compound density
    # (chi-square on cell-aligned bins)
    t0 = time.monotonic()
    m = random_density(12, 90_000)
    s = 10**5

    rej = rejection_sample(m, s, 1)
    inv = inverse_transform_sample(m, s, 2, tol=1e-10)
    ks_ok = (
        stats.kstest(rej.samples, m.cdf).pvalue > 0.001
        and stats.kstest(inv.samples, m.cdf).pvalue > 0.001
    )

    k = 64
    pmf = build_ancestor(m, k)
    ker = BSplineKernel(1)
    batch = grid_ancestral_sample(m, k, ker, s, 3)
    # bin probabilities by fine midpoint quadrature inside each grid cell
    edges = np.linspace(-1.0, 1.0, k + 1)
    sub = 64
    mids = (np.arange(k * sub) + 0.5) * (2.0 / (k * sub)) - 1.0
    dens = compound_pdf(pmf, ker, mids).reshape(k, sub)
    probs = dens.mean(axis=1) * (2.0 / k)
    counts, _ = np.histogram(batch.samples, bins=edges)
    chi = stats.chisquare(counts, s * probs / probs.sum())
    elapsed = time.monotonic() - t0
    report(capsys, 9, "sampler exactness oracles", ks_ok and chi.pvalue > 0.001 and elapsed < 120)


def test_criterion_10_fft_grid_equivalence(capsys):
    # FFT-based grid evaluation agrees with pointwise series evaluation
    t0 = time.monotonic()
    ok = True
    for n, seed in ((1, 100), (10, 101), (100, 102)):
        m = random_density(n, seed)
        for k in (2 * n + 1, 257, 1024):
            if k < 2 * n + 1:
                continue
            grid = -1.0 + 2.0 * np.arange(k) / k
            diff = np.max(np.abs(m.pdf_grid(k) - m.pdf(grid)))
            ok = ok and diff <= 1e-9
    elapsed = time.monotonic() - t0
    report(capsys, 10, "FFT and pointwise evaluation agree", ok and elapsed < 10)
