"""Non-negative truncated Fourier-series densities on the circle [-1, 1).

The density is parameterized by a free complex sequence a_0..a_N whose
autocorrelation gives the Fourier coefficients c_0..c_N.  This guarantees
the series is non-negative everywhere (the PDF is |sum_k a_k e^{-i pi k x}|^2
up to normalization), so any amplitude choice yields a valid density.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Floating-point cancellation near zeros of the density can produce tiny
# negative PDF values; clamp at this floor so log/score stay well-defined.
PDF_FLOOR = 1e-12

# Below this grid size a direct evaluation beats the FFT path.
_DIRECT_EVAL_MAX = 32


@dataclass
class EvalCounter:
    """Ledger of model evaluations consumed by a sampling run.

    A score evaluation is billed as two model evaluations: the density and
    its derivative share one coefficient pass but count separately in the
    cost accounting.
    """

    pdf_evals: int = 0
    score_evals: int = 0

    @property
    def total_evals(self) -> int:
        return self.pdf_evals + 2 * self.score_evals

    def merge(self, other: "EvalCounter") -> None:
        self.pdf_evals += other.pdf_evals
        self.score_evals += other.score_evals


def autocorrelate(amplitudes) -> np.ndarray:
    """c_n = sum_{k=0}^{N-n} a_k * conj(a_{k+n}) for n = 0..N."""
    a = np.asarray(amplitudes, dtype=complex)
    n_plus_1 = a.size
    out = np.array(
        [np.sum(a[: n_plus_1 - n] * np.conj(a[n:])) for n in range(n_plus_1)]
    )
    # c_0 = sum |a_k|^2 is exactly real; keep it that way bit-for-bit.
    out[0] = np.sum(a.real**2 + a.imag**2)
    return out


class FourierDensity:
    """Density p(x) = 1/2 + sum_{n=1}^N Re{(c_n/c_0) e^{i pi n x}} on [-1, 1).

    Immutable after construction; safe to share across threads.  Coefficients
    with n < 0 are redundant (conjugate symmetry) and not stored.
    """

    def __init__(self, amplitudes, scale: float = 1.0, offset: float = 0.0):
        a = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
        if a.ndim != 1 or a.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        if not np.any(a):
            raise ValueError(
                "all-zero amplitudes: normalization constant is zero, "
                "density undefined"
            )
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError("scale must be finite and positive")
        if not math.isfinite(offset):
            raise ValueError("offset must be finite")
        self.amplitudes = a
        self.amplitudes.setflags(write=False)
        self.coefficients = autocorrelate(a)
        self.coefficients.setflags(write=False)
        self.scale = float(scale)
        self.offset = float(offset)
        c0 = float(np.real(self.coefficients[0]))
        # ratios[n-1] = c_n / c_0 for n = 1..N
        self._ratios = self.coefficients[1:] / c0

    @property
    def n_terms(self) -> int:
        return self.amplitudes.size - 1

    def _series(self, x, weights, base: float):
        """base + sum_n Re{weights[n-1] * e^{i pi n x}} via power recurrence."""
        x = np.asarray(x, dtype=float)
        z = np.exp(1j * np.pi * x)
        acc = np.zeros(z.shape, dtype=complex)
        zp = np.ones(z.shape, dtype=complex)
        for w in weights:
            zp = zp * z
            acc += w * zp
        return base + np.real(acc)

    def pdf(self, x, counter: EvalCounter | None = None, clamp: bool = True):
        """Density at x in [-1, 1).  Bills one pdf evaluation per point."""
        vals = self._series(x, self._ratios, 0.5)
        if counter is not None:
            counter.pdf_evals += int(np.size(vals))
        if clamp:
            vals = np.maximum(vals, PDF_FLOOR)
        return vals if np.ndim(vals) else float(vals)

    def _grid_weights(self, order: int) -> np.ndarray:
        """Weights for e^{2 pi i n k / K} at grid x_k = -1 + 2k/K."""
        n = np.arange(1, self.n_terms + 1)
        return self._ratios * (1j * np.pi * n) ** order * (-1.0) ** n

    def pdf_grid(self, K: int, counter: EvalCounter | None = None,
                 clamp: bool = True) -> np.ndarray:
        """Density at the K grid points x_k = -1 + 2k/K, k = 0..K-1.

        Requires K >= 2N+1 so the grid resolves every frequency term.
        Computed by an inverse DFT of the zero-padded coefficient vector in
        O(K log K); small grids fall back to direct evaluation.
        """
        K = int(K)
        if K < 2 * self.n_terms + 1:
            raise ValueError(
                f"grid size K={K} below minimum 2N+1={2 * self.n_terms + 1}"
            )
        if K <= _DIRECT_EVAL_MAX:
            xs = -1.0 + 2.0 * np.arange(K) / K
            return self.pdf(xs, counter, clamp=clamp)
        b = np.zeros(K, dtype=complex)
        b[0] = 0.5
        b[1 : self.n_terms + 1] = self._grid_weights(0)
        vals = K * np.real(np.fft.ifft(b))
        if counter is not None:
            counter.pdf_evals += K
        if clamp:
            vals = np.maximum(vals, PDF_FLOOR)
        return vals

    def deriv_grid(self, K: int, order: int = 1) -> np.ndarray:
        """Analytic derivative of given order at the K grid points."""
        K = int(K)
        if K < self.n_terms + 1:
            raise ValueError("grid too small to carry all frequency terms")
        b = np.zeros(K, dtype=complex)
        b[1 : self.n_terms + 1] = self._grid_weights(order)
        return K * np.real(np.fft.ifft(b))

    def deriv(self, x, order: int = 1):
        """Analytic derivative of the (unclamped) density at arbitrary x."""
        n = np.arange(1, self.n_terms + 1)
        weights = self._ratios * (1j * np.pi * n) ** order
        vals = self._series(x, weights, 0.0)
        return vals if np.ndim(vals) else float(vals)

    def cdf(self, x):
        """P(x) = integral of the density over [-1, x]; 0 at -1, 1 at 1.

        Term-wise antiderivative of the Fourier series.
        """
        x = np.asarray(x, dtype=float)
        n = np.arange(1, self.n_terms + 1)
        weights = self._ratios / (1j * np.pi * n)
        const = float(np.sum(np.real(weights * (-1.0) ** n)))
        vals = (x + 1.0) / 2.0 + self._series(x, weights, 0.0) - const
        vals = np.clip(vals, 0.0, 1.0)
        return vals if np.ndim(vals) else float(vals)

    def pdf_and_score(self, x, counter: EvalCounter | None = None):
        """Clamped density and score p'(x)/max(p(x), floor) in one pass.

        Bills one score evaluation per point (counted as two model
        evaluations in the ledger total).
        """
        x = np.asarray(x, dtype=float)
        z = np.exp(1j * np.pi * x)
        acc_p = np.zeros(z.shape, dtype=complex)
        acc_d = np.zeros(z.shape, dtype=complex)
        zp = np.ones(z.shape, dtype=complex)
        for n, w in enumerate(self._ratios, start=1):
            zp = zp * z
            term = w * zp
            acc_p += term
            acc_d += (1j * np.pi * n) * term
        p = np.maximum(0.5 + np.real(acc_p), PDF_FLOOR)
        score = np.real(acc_d) / p
        if counter is not None:
            counter.score_evals += int(np.size(x))
        return p, score

    def score(self, x, counter: EvalCounter | None = None):
        """Gradient of the log density, p'(x)/max(p(x), floor)."""
        _, s = self.pdf_and_score(x, counter)
        return s if np.ndim(s) else float(s)

    def derivative_bounds(self) -> tuple[float, float]:
        """(B1, B2) with |p'(x)| <= B1 and |p''(x)| <= B2 everywhere."""
        n = self.n_terms
        b1 = math.pi * n * (n + 1) / 2.0
        b2 = math.pi**2 * n * (n + 1) * (2 * n + 1) / 6.0
        return b1, b2

    def envelope_constant(self) -> float:
        """M with M * (1/2) >= p(x) everywhere; tight enough for rejection."""
        return 1.0 + 2.0 * float(np.sum(np.abs(self._ratios)))

    def to_real_line(self, x):
        """Map a circle coordinate in (-1, 1) to the real line."""
        return to_real_line(x, self.scale, self.offset)


def to_real_line(x, scale: float, offset: float):
    """s * atanh(x) + t; strictly increasing, defined on (-1, 1)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("to_real_line requires |x| < 1 (endpoints map to inf)")
    vals = scale * np.arctanh(x) + offset
    return vals if np.ndim(vals) else float(vals)


def random_density(n_terms: int, rng) -> FourierDensity:
    """Density with N+1 amplitudes drawn i.i.d. complex standard normal."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    rng = np.random.default_rng(rng)
    a = rng.standard_normal(n_terms + 1) + 1j * rng.standard_normal(n_terms + 1)
    return FourierDensity(a)


def save_density(model: FourierDensity, path) -> None:
    """Write the flat text form: 'N s t' then N+1 lines 're(a_k) im(a_k)'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.n_terms} {model.scale:.17g} {model.offset:.17g}\n")
        for a in model.amplitudes:
            fh.write(f"{a.real:.17g} {a.imag:.17g}\n")


def load_density(path) -> FourierDensity:
    """Read the flat text form written by save_density.

    Raises ValueError on a malformed file: empty, a header that is not
    'N scale offset', an amplitude line that is not 're im', a field that
    is not a number, or a count of amplitude lines other than N+1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if not rows:
        raise ValueError(f"{path}: empty model file")
    if len(rows[0]) != 3:
        raise ValueError(f"{path}: header must be 'N scale offset'")
    if any(len(r) != 2 for r in rows[1:]):
        raise ValueError(f"{path}: amplitude lines must be 're im'")
    try:
        n_terms = int(rows[0][0])
        scale, offset = float(rows[0][1]), float(rows[0][2])
        amps = np.array([complex(float(re), float(im)) for re, im in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric field: {exc}") from exc
    if len(rows) != n_terms + 2:
        raise ValueError(
            f"expected {n_terms + 1} amplitude lines, got {len(rows) - 1}"
        )
    return FourierDensity(amps, scale=scale, offset=offset)
