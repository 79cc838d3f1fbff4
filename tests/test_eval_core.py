"""Property tests of the evaluation core in model.py: Taylor tables about
L anchors, built by the grid transform, and Horner's rule in the offset.

The density and the CDF are held to the power-recurrence series
evaluation that an earlier core replaced.  The score is held to the
amplitude form in long double at the same angle fl(pi x), which stays
accurate where p is small.  Tolerances scale with double
precision and with the size of the series' terms.
"""
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from circfourier import (BSplineKernel, EvalCounter, FourierDensity,
                         build_ancestor, compound_pdf, grid_ancestral_sample,
                         random_density)
from circfourier.model import (PDF_FLOOR, _KEEP, _TABLE_BYTES, _TAYLOR_TOL,
                               _grid, _squared_modulus, _table_shape, _taylor,
                               _taylor_table, wrap)


def series_reference(x, weights, base):
    """base + sum_n Re{weights[n-1] e^{i pi n x}} by the power recurrence
    the Horner core replaced."""
    z = np.exp(1j * np.pi * np.asarray(x, dtype=float))
    acc = np.zeros(z.shape, dtype=z.dtype)
    zp = np.ones(z.shape, dtype=z.dtype)
    for w in weights:
        zp = zp * z
        acc += w * zp
    return (base + np.real(acc)).astype(float)


def amplitude_reference(m, x):
    """(p, p') at the angle fl(pi x), in long double, from the amplitudes:
    with A = sum_k a_k u^k at u = e^{-i theta} and A' its theta-derivative,
    p = |A|^2/(2 c_0) and p' = pi Re{conj(A) A'}/c_0.  Near a small p this
    form does not cancel terms that add up to sum |c_n|/c_0, as the power
    recurrence on the c_n does."""
    theta = (np.pi * np.asarray(x, dtype=float)).astype(np.longdouble)
    u = np.cos(theta) - 1j * np.sin(theta)
    a = m.amplitudes.astype(np.clongdouble)
    A, dA = (np.zeros(u.shape, np.clongdouble) for _ in range(2))
    for k in range(a.size - 1, -1, -1):  # Horner's rule in u
        A = A * u + a[k]
        dA = dA * u + a[k] * (-1j * np.longdouble(k))
    c0 = np.sum(a.real**2 + a.imag**2)
    p = (A.real**2 + A.imag**2) / (2 * c0)
    dp = np.pi * np.real(np.conj(A) * dA) / c0
    return p, dp


def amplitude_path(m, x):
    """(p, score) at at most _BLOCK points x from the amplitude table alone,
    in the order of operations of the path that pdf_and_score falls back
    to: p = max(|A|^2/(2 c_0), PDF_FLOOR) and
    score = pi Re{conj(A) dA/dd} / c_0 / p."""
    (_, A, dA), = _taylor(m._table("amplitudes"), x, slope=True)
    slope = (A.real * dA.real + A.imag * dA.imag) * np.pi / m._c0
    p = np.maximum((A.real**2 + A.imag**2) / (2.0 * m._c0), PDF_FLOOR)
    return p, slope / p


def model_case(n, seed, x0=None, points=(0.0,), pull=0.0):
    """(model, x): N+1 i.i.d. complex normal amplitudes from `seed`; with
    x0, A(w) times (1 - w/w0), whose zero w0 = (1 + pull) e^{-i pi x0} lies
    on the unit circle at pull 0, so that p vanishes at x0, and off it
    otherwise.  x holds 200 uniform points, x0 and its neighbours, and
    `points`."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    xs = [rng.uniform(-1.0, 1.0, 200)]
    if x0 is not None:
        a = np.convolve(a[:-1], [1.0, -np.exp(1j * np.pi * x0) / (1.0 + pull)])
        xs.append(x0 + np.array([0.0, -1e-9, 1e-9, -1e-6, 1e-6, -1e-3, 1e-3]))
    xs.append(np.array(points, dtype=float))
    return FourierDensity(a), np.concatenate(xs)


@st.composite
def models(draw):
    """model_case with N <= 200, optionally with a zero of A on the unit
    circle, or pulled 1e-4 to 3e-3 off it, so that p nearly vanishes."""
    n = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    x0, pull = None, 0.0
    if n >= 1 and draw(st.booleans()):
        x0 = draw(st.floats(-1.0, 1.0, exclude_max=True))
        pull = draw(st.just(0.0) | st.floats(1e-4, 3e-3))
    points = draw(st.lists(
        st.floats(-1.0, 1.0, exclude_max=True), min_size=1, max_size=50))
    return model_case(n, seed, x0, points, pull)


@settings(max_examples=150, deadline=None)
@given(models())
def test_pdf_agrees_with_power_recurrence(case):
    m, x = case
    ref = series_reference(x, m._ratios, 0.5)
    assert np.all(np.abs(m.pdf(x) - ref) <= 1e-12 * (1 + np.abs(ref)))


@settings(max_examples=150, deadline=None)
@given(models())
# p = 1.16e-5 at x = 0.99061, where a power-recurrence reference on the
# c_n, even in long double, missed the score by 1.8 times the tolerance
@example(model_case(184, 184, x0=-1.0))
def test_score_agrees_with_power_recurrence(case):
    m, x = case
    p_ref, dp_ref = (v.astype(float) for v in amplitude_reference(m, x))
    s_ref = dp_ref / np.maximum(p_ref, PDF_FLOOR)
    p, s = m.pdf_and_score(x)
    keep = p_ref >= 1e-6
    assert np.all(np.abs(s - s_ref)[keep] <= 1e-9 * (1 + np.abs(s_ref[keep])))
    assert np.all(np.abs(p - np.maximum(p_ref, PDF_FLOOR))
                  <= 1e-12 * (1 + np.abs(p_ref)))


@settings(max_examples=150, deadline=None)
@given(models())
def test_density_table_within_its_bound(case):
    # the bound E behind the density table's cutoff holds at every point,
    # those below the cutoff included: the table's P errs from p, and its
    # slope W from dp/dd, by at most E
    m, x = case
    p_ref, dp_ref = (v.astype(float) for v in amplitude_reference(m, x))
    bound = m._cutoff / _KEEP
    for sl, P, W in _taylor(m._table("density"), x, slope=True):
        assert np.all(np.abs(P - p_ref[sl]) <= bound)
        assert np.all(np.abs(np.pi * W - dp_ref[sl]) <= np.pi * bound)


@st.composite
def near_zeros(draw):
    """model_case with a zero of A on the unit circle or pulled 1e-7 to
    3e-3 off it, and 800 points about the zero, from 1e-9 to 0.5 away."""
    n = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    x0 = draw(st.floats(-1.0, 1.0, exclude_max=True))
    pull = draw(st.just(0.0) | st.floats(1e-7, 3e-3))
    away = np.geomspace(1e-9, 0.5, 400)
    m, _ = model_case(n, seed, x0, pull=pull)
    return m, wrap(np.concatenate([x0 - away, x0 + away]))


@settings(max_examples=100, deadline=None)
@given(near_zeros())
@example(model_case(20, 3, x0=0.3)[:1] + (0.3 + np.geomspace(1e-9, 0.5, 400),))
@example(model_case(200, 9, x0=-0.7, pull=1e-7)[:1]
         + (-0.7 - np.geomspace(1e-9, 0.5, 400),))
def test_density_and_score_near_zeros(case):
    # Where the density table's p is below its cutoff tau, pdf and
    # pdf_and_score take the point again on the amplitude table.  So p
    # keeps 1e-9 of itself at every point where p >= 1e-10, those in
    # [1e-10, tau] and just above tau among them.  A point that falls back
    # gets the amplitude path's p and score, bit for bit, and a point kept
    # on the density table its score within 1e-9 (1 + |s|) wherever
    # p >= 1e-6, the tolerance of test_score_agrees_with_power_recurrence.
    # Below 1e-10 the amplitude path's own rounding nears 1e-9 of p: 7e-10
    # at PDF_FLOOR, in 1500 models with N >= 100.
    m, x = case
    p_ref, dp_ref = (v.astype(float) for v in amplitude_reference(m, x))
    keep = p_ref >= 1e-10
    x, p_ref, dp_ref = x[keep], p_ref[keep], dp_ref[keep]
    p, (q, s) = m.pdf(x), m.pdf_and_score(x)
    assert np.array_equal(p, q)
    assert np.all(np.abs(p - p_ref) <= 1e-9 * p_ref)
    (_, P, _), = _taylor(m._table("density"), x)
    low = P < m._cutoff
    if low.any():
        p_amp, s_amp = amplitude_path(m, x[low])
        assert np.array_equal(p[low], p_amp) and np.array_equal(s[low], s_amp)
    s_ref = dp_ref / p_ref
    kept = ~low & (p_ref >= 1e-6)
    assert np.all(np.abs(s - s_ref)[kept] <= 1e-9 * (1 + np.abs(s_ref[kept])))


def test_clamps_and_fallbacks_counted():
    # at a zero of A on the circle p is clamped to PDF_FLOOR, after the
    # point fell back from the density table; the ledger counts both, and
    # a point well above the cutoff as neither
    m, _ = model_case(20, 3, x0=0.3)
    x = np.array([0.3, 0.3 + 1e-4, 0.5])
    assert m.pdf(0.5) > m._cutoff
    counter = EvalCounter()
    p, _ = m.pdf_and_score(x, counter)
    assert p[0] == PDF_FLOOR and p[1] > PDF_FLOOR
    assert (counter.clamps, counter.fallbacks) == (1, 2)
    m.pdf(x, counter)
    assert (counter.clamps, counter.fallbacks) == (1, 4)
    assert counter.total_evals == 3 + 2 * 3


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


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 5000))
def test_density_non_negative_and_grid_sums_to_half_k(case, k_extra):
    m, x = case
    assert np.all(m.pdf(x) >= 0.0)
    k = 2 * m.n_terms + 1 + k_extra
    assert np.all(m.pdf_grid(k) >= 0.0)
    assert abs(m.pdf_grid(k).sum() - k / 2) <= 1e-12 * (k / 2)


def test_evaluation_memory_flat_in_points():
    """Traced peak of one call stays within its outputs plus a few blocks,
    also where every point falls back to the amplitude table: 2^20 points
    clustered at a zero of A on the circle, taken a block at a time."""
    m = random_density(50, 0)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 2**20)
    zero, _ = model_case(50, 0, x0=0.25)
    near = 0.25 + np.random.default_rng(2).uniform(-1e-5, 1e-5, 2**20)
    cases = [(m, x, name) for name in ("pdf", "pdf_and_score", "cdf")]
    cases += [(zero, near, name) for name in ("pdf", "pdf_and_score")]
    for model, points, name in cases:
        counter = EvalCounter()
        tracemalloc.start()
        try:
            getattr(model, name)(points, counter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * points.nbytes + 2**20, (name, peak / points.nbytes)
        if name == "cdf":
            # one output array plus a block of (x + 1)/2 and Horner's arrays
            assert peak <= x.nbytes + 2**20, peak - x.nbytes
        if model is zero:
            assert counter.fallbacks == points.size


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


def test_evaluations_nan_at_non_finite_points():
    # with no warning: wrapping onto the circle is invalid at +-inf, but
    # NaN is what the evaluations promise there
    m = random_density(7, 3)
    x = np.array([0.25, np.nan, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, s = m.pdf_and_score(x)
        evaluations = [m.pdf(x), p, s, m.score(x), m.cdf(x)]
        scalars = [f(v) for f in (m.pdf, m.score, m.cdf)
                   for v in (np.nan, np.inf, -np.inf)]
    for vals in evaluations:
        assert np.isfinite(vals[0]) and np.all(np.isnan(vals[1:]))
    assert np.all(np.isnan(scalars))


@st.composite
def periodic_cases(draw):
    """(model, K, x, shift): x on the dyadic grid of spacing 2^-g in
    [-1, 1), and even shifts 2m with |2m| <= 2^(52-g), so that x + 2m is
    exact; half of the shifts have |2m| <= 2^20, where x + 2m was once
    evaluated unreduced.  K is a grid size for the model, 2N+1 often."""
    n = draw(st.integers(0, 60))
    k = draw(st.one_of(st.just(2 * n + 1), st.integers(2 * n + 1, 4 * n + 39)))
    g = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-(2**g), 2**g, 4000) * 2.0**-g
    wide = 2 ** (51 - g)
    m = np.concatenate([rng.integers(-wide, wide + 1, 2000),
                        rng.integers(-min(wide, 2**19), min(wide, 2**19) + 1,
                                     2000)])
    return random_density(n, rng), k, x, 2.0 * m


@settings(max_examples=40, deadline=None)
@given(periodic_cases())
def test_evaluations_exactly_periodic(case):
    # every evaluation wraps x onto [-1, 1) first, exactly, so a shift by
    # whole periods changes no bit
    m, k, x, shift = case
    far = x + shift
    assert np.array_equal(far - shift, x)  # x + 2m is exact
    p, s = m.pdf_and_score(x)
    p_far, s_far = m.pdf_and_score(far)
    assert np.array_equal(m.pdf(far), m.pdf(x))
    assert np.array_equal(p_far, p) and np.array_equal(s_far, s)
    pmf = build_ancestor(m, k)
    for degree in (0, 1, 2):
        kernel = BSplineKernel(degree)
        assert np.array_equal(compound_pdf(pmf, kernel, far),
                              compound_pdf(pmf, kernel, x))


def test_far_points_reduced_by_the_period():
    # off the circle the argument is wrapped onto it first, exactly
    m = random_density(7, 3)
    x = np.array([0.25, -0.75, 0.5])
    far = x + np.array([2.0**40, -(2.0**50), 2.0**21])
    assert np.array_equal(m.pdf(far), m.pdf(x))
    assert np.all(np.isfinite(m.pdf(np.array([1e300, -1e300]))))


def test_table_shape_meets_the_remainder_bound_and_the_cap():
    for n in range(201):
        size, order = _table_shape(n)
        ratio = np.pi * n / size
        assert size >= 2 and size & (size - 1) == 0, (n, size)
        assert size >= np.pi * n, (n, size)
        assert ratio ** (order + 1) / math.factorial(order + 1) <= _TAYLOR_TOL
        # the least order that meets the bound at this L
        assert order == 0 or ratio**order / math.factorial(order) > _TAYLOR_TOL
        assert 16 * (order + 1) * size <= _TABLE_BYTES, (n, size, order)
    for n in (0, 7, 200):
        m = random_density(n, 1)
        size, order = _table_shape(n)
        m.pdf(0.5)
        m.cdf(0.5)
        tables = [m._table(s) for s in ("amplitudes", "density", "cdf")]
        assert all(rows.shape == (order + 1, size) for rows in tables)
        assert tables[0].nbytes <= _TABLE_BYTES
        assert tables[1].dtype == tables[2].dtype == np.float64


def test_tables_at_anchors_are_the_grid_up_to_the_angle():
    # At an anchor x_j the offset is only the rounding of the angle,
    # fl(pi x_j) - pi x_j, so a table's series is its first row, which is
    # the _grid of its series at L points, to within |slope| times that
    # rounding.  At x = 0 the angle is exact, and the two agree bit for
    # bit: the amplitudes' row squared is pdf_grid(L), and the density
    # table's is the real part of the _grid of its series.
    for n in (0, 1, 20, 50, 200):
        m = random_density(n, 5)
        size, _ = _table_shape(n)
        anchors = -1.0 + 2.0 * np.arange(size) / size
        for series in ("amplitudes", "density"):
            grid = np.empty(size, complex)
            for dest, B in _grid(m._series(series), size, grid):
                dest[...] = B
            (_, value, slope), = _taylor(m._table(series), anchors, slope=True)
            if series == "density":
                grid = grid.real
            else:  # p and dp/dd from A and dA/dd
                slope = np.real(np.conj(value) * slope) / m._c0
                _squared_modulus(value, 2.0 * m._c0, value.real)
                value, grid = value.real, m.pdf_grid(size)
            assert value[size // 2] == grid[size // 2], (n, series)
            bound = np.abs(np.pi * slope) * np.abs(anchors) * 2.0**-52
            assert np.all(np.abs(value - grid)
                          <= bound + 2.0**-50 * (1.0 + np.abs(grid))), n


def test_one_term_series_and_slope_between_anchors():
    # u^N at the points halfway between anchors, where the offset and so
    # the dropped Taylor terms are largest, against long double values at
    # the same angle fl(pi x): the value within 2^-49 and the slope
    # -i N u^N within 2^-48 N.  With the last table row left out, the
    # slope is off by 9e-12 at N = 1 and by 2e-13 at N = 20.
    for n in range(201):
        size, _ = _table_shape(n)
        s = np.zeros(n + 1, complex)
        s[n] = 1.0
        rows = _taylor_table(s, real=False)
        x = -1.0 + (2.0 * np.arange(size) + 1.0) / size
        theta = n * (np.pi * x).astype(np.longdouble)
        ref = np.cos(theta) - 1j * np.sin(theta)
        for sl, value, slope in _taylor(rows, x, slope=True):
            assert np.all(np.abs(value - ref[sl]) <= 2.0**-49), n
            assert np.all(np.abs(slope + 1j * n * ref[sl]) <= 2.0**-48 * n), n


def test_grid_path_builds_no_table():
    m = random_density(20, 4)
    grid_ancestral_sample(m, 64, BSplineKernel(1), 1000, 0)
    m.pdf_grid(64)
    assert m._tables == {}
    # pointwise calls build each table once, on first use, and keep it
    m.pdf(0.25)
    density = m._table("density")
    m.pdf_and_score(np.array([0.5, -0.5]))
    assert m._table("density") is density and list(m._tables) == ["density"]
    m.cdf(0.25)
    cdf_table = m._table("cdf")
    m.cdf(np.array([0.5, -0.5]))
    # the amplitudes' table waits for a point below the density's cutoff
    assert sorted(m._tables) == ["cdf", "density"]
    x0 = -0.3
    m, _ = model_case(20, 4, x0=x0)
    density = m._table("density")
    m.pdf_and_score(np.array([x0, 0.5]))
    amplitudes = m._table("amplitudes")
    m.pdf(np.array([x0, -0.5]))
    m.cdf(0.25)
    assert sorted(m._tables) == ["amplitudes", "cdf", "density"]
    assert m._table("amplitudes") is amplitudes
    assert m._table("density") is density
    assert amplitudes.dtype == complex
    assert density.dtype == m._table("cdf").dtype == float


def test_tables_built_once_under_racing_threads():
    # threads that race to build a model's tables all evaluate with the one
    # stored table of each series, and get the values of a lone caller;
    # the model has a zero on the circle, so that pdf and pdf_and_score
    # read the amplitudes' table too
    x = np.linspace(-1.0, 1.0, 5001)
    lone, _ = model_case(30, 8, x0=0.1)
    expected = (lone.pdf(x), lone.cdf(x), lone.pdf_and_score(x)[1])
    m, _ = model_case(30, 8, x0=0.1)
    results, errors = [None] * 8, []

    def work(i):
        try:
            results[i] = (m.pdf(x), m.cdf(x), m.pdf_and_score(x)[1])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for got in results:
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert len(m._tables) == 3
