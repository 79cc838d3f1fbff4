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

# The density may vanish at points; clamping there keeps log and score finite.
PDF_FLOOR = 1e-12

_BLOCK = 1 << 14  # points per block of the pointwise evaluations


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


def autocorrelate(amplitudes) -> np.ndarray:
    """c_n = sum_{k=0}^{N-n} a_k * conj(a_{k+n}) for n = 0..N."""
    a = np.asarray(amplitudes, dtype=complex)
    out = np.conj(np.correlate(a, a, "full")[a.size - 1 :])
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
        self._c0 = float(np.real(self.coefficients[0]))
        # ratios[n-1] = c_n / c_0 for n = 1..N
        self._ratios = self.coefficients[1:] / self._c0

    @property
    def n_terms(self) -> int:
        return self.amplitudes.size - 1

    def pdf(self, x, counter: EvalCounter | None = None, clamp: bool = True):
        """Density |A(w)|^2 / (2 c_0) >= 0 at x in [-1, 1), with
        A(w) = sum_k a_k w^k at w = e^{-i pi x}.  Bills one pdf evaluation per
        point."""
        vals = np.empty(np.shape(x))
        for sl, (A,) in _horner([self.amplitudes], x, -1.0):
            vals.reshape(-1)[sl] = (A.real**2 + A.imag**2) / (2.0 * self._c0)
        if counter is not None:
            counter.pdf_evals += int(vals.size)
        if clamp:
            np.maximum(vals, PDF_FLOOR, out=vals)
        return vals if np.ndim(vals) else float(vals)

    def _grid_weights(self, order: int) -> np.ndarray:
        """Weights for e^{2 pi i n k / K} at grid x_k = -1 + 2k/K."""
        n = np.arange(1, self.n_terms + 1)
        return self._ratios * (1j * np.pi * n) ** order * (-1.0) ** n

    def pdf_grid(self, K: int, counter: EvalCounter | None = None,
                 clamp: bool = True) -> np.ndarray:
        """Density at the K >= 2N+1 grid points x_k = -1 + 2k/K, where
        A(w_k) is the DFT of (-1)^j a_j zero-padded to K: O(K log K)."""
        K = int(K)
        if K < 2 * self.n_terms + 1:
            raise ValueError(
                f"grid size K={K} below minimum 2N+1={2 * self.n_terms + 1}"
            )
        signs = (-1.0) ** np.arange(self.n_terms + 1)
        A = np.fft.fft(self.amplitudes * signs, K)
        vals = (A.real**2 + A.imag**2) / (2.0 * self._c0)
        if counter is not None:
            counter.pdf_evals += K
        if clamp:
            np.maximum(vals, PDF_FLOOR, out=vals)
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
        """Analytic derivative of the (unclamped) density at arbitrary x;
        order -1 gives the term-wise antiderivative of p - 1/2."""
        n = np.arange(1, self.n_terms + 1)
        b = np.concatenate(([0.0], self._ratios * (1j * np.pi * n) ** order))
        vals = np.empty(np.shape(x))
        for sl, (P,) in _horner([b], x, 1.0):
            vals.reshape(-1)[sl] = P.real  # sum_n b_n e^{i pi n x}
        return vals if np.ndim(vals) else float(vals)

    def cdf(self, x):
        """P(x) = integral of the density over [-1, x]; 0 at -1, 1 at 1.
        Term-wise (x + 1)/2 + F(x) - F(-1), with F = deriv(x, order=-1)."""
        x = np.asarray(x, dtype=float)
        vals = (x + 1.0) / 2.0 + (self.deriv(x, -1) - self.deriv(-1.0, -1))
        vals = np.clip(vals, 0.0, 1.0)
        return vals if np.ndim(vals) else float(vals)

    def pdf_and_score(self, x, counter: EvalCounter | None = None):
        """Clamped density and score p'(x)/max(p(x), floor), from one pass
        for A(w) and wA'(w) = sum_k k a_k w^k: p' = pi Im{conj(A) wA'} / c_0.
        Bills one score evaluation (two model evaluations) per point."""
        p, score = np.empty(np.shape(x)), np.empty(np.shape(x))
        rows = [self.amplitudes, np.arange(self.n_terms + 1) * self.amplitudes]
        for sl, (A, wdA) in _horner(rows, x, -1.0):
            p.reshape(-1)[sl] = (A.real**2 + A.imag**2) / (2.0 * self._c0)
            score.reshape(-1)[sl] = np.pi * (A.conj() * wdA).imag / self._c0
        np.maximum(p, PDF_FLOOR, out=p)
        score /= p
        if counter is not None:
            counter.score_evals += int(p.size)
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


def _horner(rows, x, sign: float):
    """Yield (sl, [P_0, ...]) per block of _BLOCK points of x, flattened:
    P_i = sum_k rows[i][k] u^k at u = e^{sign i pi x[sl]}, by Horner's rule
    with in-place ufuncs, so memory is flat in the number of points."""
    x = np.asarray(x, dtype=float).reshape(-1)
    for lo in range(0, x.size, _BLOCK):
        u = np.exp(1j * sign * np.pi * x[lo : lo + _BLOCK])
        Ps = [np.full(u.size, b[-1], dtype=complex) for b in rows]
        for P, b in zip(Ps, rows):
            for c in b[-2::-1]:
                P *= u
                P += c
        yield slice(lo, lo + _BLOCK), Ps


def wrap(x):
    """Wrap a real coordinate into [-1, 1); exact identity on the domain."""
    x = np.asarray(x, dtype=float)
    vals = x - 2.0 * np.floor((x + 1.0) / 2.0)
    # guard the rounding edge when (x + 1) / 2 rounds across an integer
    vals = np.where(vals >= 1.0, vals - 2.0, vals)
    vals = np.where(vals < -1.0, vals + 2.0, vals)
    return vals if np.ndim(vals) else float(vals)


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
