"""The benchmark's own model of the density, used only to check outputs.

Nothing here calls circfourier: every reference value is computed from the
generated amplitudes by the Fejer-Riesz form

    p(x) = |sum_k a_k e^{-i pi k x}|^2 / (2 sum_k |a_k|^2),

so a fault in the program cannot also hide in the reference it is
compared against.
"""
from __future__ import annotations

import math

import numpy as np

# Same floors as the program's clamp and KL estimator, so the quadrature
# reference integrates the quantity the Monte Carlo estimator samples.
FLOOR = 1e-12


def density_on_grid(amps, L: int) -> np.ndarray:
    """p at x_j = -1 + 2j/L, j = 0..L-1; needs L > len(amps) - 1.

    e^{-i pi k x_j} = (-1)^k e^{-2 pi i k j / L}, so A(x_j) is one FFT of the
    sign-alternated amplitudes zero-padded to L.
    """
    a = np.asarray(amps, dtype=complex)
    signs = np.where(np.arange(a.size) % 2 == 0, 1.0, -1.0)
    vals = np.fft.fft(a * signs, L)
    return (vals.real**2 + vals.imag**2) / (2.0 * np.sum(np.abs(a) ** 2))


def envelope_constant(amps) -> float:
    """1 + 2 sum_{n>=1} |c_n| / c_0 with c the autocorrelation of amps."""
    a = np.asarray(amps, dtype=complex)
    c = np.correlate(a, a, mode="full")[a.size - 1:]
    return 1.0 + 2.0 * float(np.sum(np.abs(c[1:])) / c[0].real)


def bin_masses(amps, bins: int, sub: int = 16) -> np.ndarray:
    """Mass of p on each of `bins` equal cells of [-1, 1), by Simpson's rule.

    `sub` (even) Simpson panels per bin; at N=200, bins=1024 the relative
    error is below 1e-9, far under the chi-square resolution.
    """
    p = density_on_grid(amps, bins * sub)
    p = np.append(p, p[0])  # periodic closing point at x = 1
    h = 2.0 / (bins * sub)
    w = np.ones(sub + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    starts = np.arange(bins) * sub
    idx = starts[:, None] + np.arange(sub + 1)[None, :]
    return (p[idx] @ w) * h / 3.0


def _cdf_table(amps, L: int = 1 << 16):
    """(x, CDF) at L+1 equally spaced points of [-1, 1], trapezoid rule."""
    p = density_on_grid(amps, L)
    p = np.append(p, p[0])
    xs = np.linspace(-1.0, 1.0, L + 1)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * (2.0 / L))))
    return xs, cdf / cdf[-1]


def exact_sample(amps, size: int, rng) -> np.ndarray:
    """Draws of p by inverting the tabulated CDF."""
    xs, cdf = _cdf_table(amps)
    return np.interp(np.random.default_rng(rng).random(size), cdf, xs)


def ks_statistic(amps, x) -> float:
    """sqrt(n) times the Kolmogorov-Smirnov distance of a sample to p."""
    xs, cdf = _cdf_table(amps)
    f = np.interp(np.sort(np.asarray(x, dtype=float)), xs, cdf)
    n = f.size
    i = np.arange(1, n + 1)
    return float(math.sqrt(n) * max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def kl_to_linear_interpolant(amps, K: int, sub: int = 32) -> float:
    """KL(p || q) by quadrature, q the periodic linear interpolant of p at
    the K grid points x_k = -1 + 2k/K (the triangle-kernel density).

    The trapezoid rule on K*sub periodic points; q is exactly linear on the
    sub-points of each cell.
    """
    L = K * sub
    p = density_on_grid(amps, L)
    nodes = p[::sub]
    t = np.arange(sub) / sub
    q = (nodes[:, None] * (1.0 - t) + np.roll(nodes, -1)[:, None] * t).ravel()
    pc = np.maximum(p, FLOOR)
    integrand = pc * np.log(pc / np.maximum(q, FLOOR))
    return float(np.sum(integrand) * (2.0 / L))


def chi_square_z(counts: np.ndarray, masses: np.ndarray) -> float:
    """Wilson-Hilferty z-score of Pearson's chi-square statistic."""
    n = counts.sum()
    expected = n * masses / masses.sum()
    stat = float(np.sum((counts - expected) ** 2 / expected))
    df = counts.size - 1
    c = 2.0 / (9.0 * df)
    return ((stat / df) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)
