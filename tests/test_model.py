import math

import numpy as np
import pytest

from circfourier import (
    EvalCounter,
    FourierDensity,
    autocorrelate,
    load_density,
    random_density,
    save_density,
)
from circfourier.model import PDF_FLOOR


class TestConstruction:
    def test_single_amplitude(self):
        m = FourierDensity([1.0])
        assert np.allclose(m.coefficients, [1.0])

    def test_two_real_amplitudes(self):
        m = FourierDensity([1.0, 1.0])
        assert np.allclose(m.coefficients, [2.0, 1.0])

    def test_complex_amplitudes(self):
        m = FourierDensity([1.0, 1.0j])
        assert np.allclose(m.coefficients, [2.0, -1.0j])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            FourierDensity([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FourierDensity([])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            FourierDensity([1.0], scale=0.0)

    @pytest.mark.parametrize("amps,scale,offset", [
        ([1.0, np.nan], 1.0, 0.0),
        ([1.0, complex(0, np.inf)], 1.0, 0.0),
        ([1.0], np.inf, 0.0),
        ([1.0], np.nan, 0.0),
        ([1.0], 1.0, -np.inf),
        ([1.0], 1.0, np.nan),
    ])
    def test_non_finite_rejected(self, amps, scale, offset):
        with pytest.raises(ValueError):
            FourierDensity(amps, scale=scale, offset=offset)

    def test_overflowing_normalization_rejected(self):
        # finite amplitudes, but c_0 = sum |a_k|^2 = 2e400 is not a double
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="c_0"):
            FourierDensity([1e200, 1e200])

    def test_coefficients_reproducible_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        m = FourierDensity(a)
        again = autocorrelate(m.amplitudes)
        assert np.array_equal(m.coefficients, again)

    def test_autocorrelate_matches_loop(self):
        # the per-lag loop autocorrelate replaced, kept as the reference
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 401))
            a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            ref = np.array(
                [np.sum(a[: n + 1 - j] * np.conj(a[j:])) for j in range(n + 1)]
            )
            c = autocorrelate(a)
            c0 = np.sum(a.real**2 + a.imag**2)
            assert c[0] == c0
            assert np.max(np.abs(c - ref)) <= 1e-15 * c0

    def test_c0_real_positive(self):
        m = random_density(20, 5)
        c0 = m.coefficients[0]
        assert c0.imag == 0.0
        assert c0.real > 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_coefficient_bound(self, seed):
        m = random_density(30, seed)
        c0 = np.real(m.coefficients[0])
        assert np.all(np.abs(m.coefficients[1:]) <= c0 * (1 + 1e-12))


class TestPdf:
    def test_uniform(self):
        m = FourierDensity([1.0])
        for x in (-1.0, -0.3, 0.0, 0.99):
            assert m.pdf(x) == pytest.approx(0.5)

    def test_cosine_peak_and_zero(self):
        m = FourierDensity([1.0, 1.0])
        assert m.pdf(0.0) == pytest.approx(1.0)
        assert m.pdf(-1.0) == pytest.approx(0.0, abs=1e-11)

    def test_counter_increment(self):
        m = FourierDensity([1.0, 1.0])
        c = EvalCounter()
        m.pdf(0.2, c)
        m.pdf(np.linspace(-1, 1, 7), c)
        assert c.pdf_evals == 8

    def test_clamp_floor(self):
        # pdf is unclamped: at the density's zero it reads about 0, below
        # the floor that only pdf_and_score applies
        m = FourierDensity([1.0, 1.0])
        assert 0.0 <= m.pdf(-1.0) < PDF_FLOOR
        assert m.pdf_and_score(-1.0)[0] == PDF_FLOOR

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        xs = rng.uniform(-1, 1, 100)
        m1 = FourierDensity(a)
        m2 = FourierDensity(alpha * a)
        assert np.allclose(m1.pdf(xs), m2.pdf(xs), atol=1e-12, rtol=0)

    def test_normalization_quadrature(self):
        m = random_density(25, 11)
        xs = np.linspace(-1.0, 1.0, 10001)
        integral = np.trapezoid(m.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_positivity_unclamped(self, seed):
        rng = np.random.default_rng(seed)
        m = random_density(int(rng.integers(1, 201)), rng)
        vals = m.pdf_grid(10000)
        assert vals.min() >= -1e-9


class TestPdfGrid:
    def test_uniform_grid(self):
        m = FourierDensity([1.0])
        assert np.allclose(m.pdf_grid(4), 0.5)

    def test_cosine_grid(self):
        m = FourierDensity([1.0, 1.0])
        assert np.allclose(m.pdf_grid(4), [0.0, 0.5, 1.0, 0.5], atol=1e-12)

    def test_too_small_grid_rejected(self):
        m = random_density(10, 0)
        with pytest.raises(ValueError):
            m.pdf_grid(20)

    @pytest.mark.parametrize("n_terms", [1, 10, 100])
    @pytest.mark.parametrize("k_choice", ["min", 257, 1024])
    def test_matches_naive(self, n_terms, k_choice):
        m = random_density(n_terms, 7)
        k = 2 * n_terms + 1 if k_choice == "min" else k_choice
        if k < 2 * n_terms + 1:
            pytest.skip("grid below Nyquist for this n_terms")
        xs = -1.0 + 2.0 * np.arange(k) / k
        assert np.allclose(m.pdf_grid(k), m.pdf(xs), atol=1e-9, rtol=0)

    @pytest.mark.parametrize("k_extra", [0, 1, 19, 200])
    def test_grid_sum_identity(self, k_extra):
        m = random_density(13, 21)
        k = 2 * 13 + 1 + k_extra
        total = m.pdf_grid(k).sum()
        assert total == pytest.approx(k / 2.0, rel=1e-9)

    def test_counter_bills_k(self):
        m = random_density(5, 2)
        c = EvalCounter()
        m.pdf_grid(64, c)
        m.pdf_grid(11, c)  # K = 2N+1, the smallest grid
        assert c.pdf_evals == 75


class TestCdf:
    def test_uniform_midpoint(self):
        m = FourierDensity([1.0])
        assert m.cdf(0.0) == pytest.approx(0.5)

    def test_endpoints(self):
        m = random_density(8, 3)
        assert m.cdf(-1.0) == pytest.approx(0.0, abs=1e-12)
        assert m.cdf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_closed_form(self):
        # integral of (1 + cos(pi t))/2 from -1 to x is (x+1)/2 + sin(pi x)/(2 pi)
        m = FourierDensity([1.0, 1.0])
        for x in (-0.7, -0.2, 0.0, 0.4, 0.9):
            expected = (x + 1) / 2 + math.sin(math.pi * x) / (2 * math.pi)
            assert m.cdf(x) == pytest.approx(expected, abs=1e-12)

    def test_monotone(self):
        m = random_density(15, 9)
        xs = np.linspace(-1, 1, 2001)
        assert np.all(np.diff(m.cdf(xs)) >= -1e-12)

    def test_matches_pdf_by_finite_difference(self):
        m = random_density(12, 4)
        xs = np.linspace(-0.95, 0.95, 201)
        h = 1e-6
        fd = (m.cdf(xs + h) - m.cdf(xs - h)) / (2 * h)
        assert np.allclose(fd, m.pdf(xs), atol=1e-5, rtol=0)


class TestScore:
    def test_uniform_score_zero(self):
        m = FourierDensity([1.0])
        assert m.score(0.37) == 0.0

    def test_cosine_score_zero_at_peak(self):
        m = FourierDensity([1.0, 1.0])
        assert m.score(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_log_pdf_finite_difference(self):
        m = random_density(10, 6)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-0.99, 0.99, 500)
        keep = m.pdf(xs) > 0.01
        xs = xs[keep]
        h = 1e-6
        fd = (np.log(m.pdf(xs + h)) - np.log(m.pdf(xs - h))) / (2 * h)
        assert np.allclose(m.score(xs), fd, atol=1e-5, rtol=1e-4)

    def test_counter_bills_score(self):
        m = random_density(4, 8)
        c = EvalCounter()
        m.score(np.linspace(-0.9, 0.9, 10), c)
        assert c.score_evals == 10
        assert c.total_evals == 20


class TestRealLineTransform:
    def test_identity_at_origin(self):
        assert FourierDensity([1.0]).to_real_line(0.0) == 0.0

    def test_inverse_relation(self):
        m = FourierDensity([1.0])
        assert m.to_real_line(math.tanh(1.0)) == pytest.approx(1.0)

    def test_scale_and_offset(self):
        m = FourierDensity([1.0], scale=2.0, offset=3.0)
        assert m.to_real_line(0.5) == pytest.approx(
            2 * math.atanh(0.5) + 3, abs=1e-12
        )

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError):
            FourierDensity([1.0]).to_real_line(1.0)

    def test_strictly_increasing(self):
        xs = np.linspace(-0.999, 0.999, 101)
        vals = FourierDensity([1.0], scale=0.7, offset=-2.0).to_real_line(xs)
        assert np.all(np.diff(vals) > 0)

    def test_model_carries_transform(self):
        m = FourierDensity([1.0], scale=2.0, offset=3.0)
        assert m.to_real_line(0.5) == pytest.approx(2 * math.atanh(0.5) + 3)


class TestRandomDensity:
    def test_deterministic_per_seed(self):
        m1 = random_density(50, 7)
        m2 = random_density(50, 7)
        assert np.array_equal(m1.amplitudes, m2.amplitudes)

    def test_seeds_differ(self):
        m1 = random_density(5, 1)
        m2 = random_density(5, 2)
        assert not np.allclose(m1.coefficients, m2.coefficients)

    def test_n_zero_is_uniform(self):
        m = random_density(0, 99)
        xs = np.linspace(-1, 0.999, 50)
        assert np.allclose(m.pdf(xs), 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            random_density(-1, 0)

    def test_n_must_be_an_integer(self):
        # checked on entry, not by numpy when it is asked for N + 1 draws
        for n in (2.5, 2.0):
            with pytest.raises(TypeError, match="interpreted as an integer"):
                random_density(n, 0)
        assert np.array_equal(random_density(np.int64(2), 0).amplitudes,
                              random_density(2, 0).amplitudes)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = random_density(9, 17)
        m = FourierDensity(m.amplitudes, scale=1.5, offset=-0.25)
        path = tmp_path / "model.txt"
        save_density(m, path)
        back = load_density(path)
        assert np.array_equal(back.amplitudes, m.amplitudes)
        assert back.scale == m.scale
        assert back.offset == m.offset

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 0\n1 0\n")
        with pytest.raises(ValueError):
            load_density(path)

    def test_count_mismatch_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 0\n1 0\n1 0\n")
        with pytest.raises(ValueError) as err:
            load_density(path)
        assert str(err.value) == f"{path}: expected 3 amplitude lines, got 2"

    @pytest.mark.parametrize("text", ["-1 1 0\n", "-2 1 0\n1 0\n"])
    def test_negative_n_names_the_file(self, tmp_path, text):
        # "-1 1 0" alone has the N + 2 = 1 rows that N asks for
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_density(path)
        assert str(err.value) == f"{path}: N must be >= 0"

    @pytest.mark.parametrize("text,error", [
        ("1 1 0\n0 0\n0 0\n", "all-zero amplitudes"),
        ("0 -1 0\n1 0\n", "scale must be finite and positive"),
    ], ids=["all-zero", "negative-scale"])
    def test_rejected_values_name_the_file(self, tmp_path, text, error):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_density(path)
        assert str(err.value).startswith(f"{path}: {error}")

    @pytest.mark.parametrize("text", [
        "",
        "1 1\n1 0\n1 0\n",
        "1 1 0 9\n1 0\n1 0\n",
        "1 1 0\n1\n1 0\n",
        "x 1 0\n1 0\n1 0\n",
        "1 1 0\n1 0\n1 y\n",
    ])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_density(path)
