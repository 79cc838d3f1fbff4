"""Non-negative truncated Fourier-series densities on the circle [-1, 1).

The density is parameterized by a free complex sequence a_0..a_N whose
autocorrelation gives the Fourier coefficients c_0..c_N.  This guarantees
the series is non-negative everywhere (the PDF is |sum_k a_k e^{-i pi k x}|^2
up to normalization), so any amplitude choice yields a valid density.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# The density may vanish at points; pdf_and_score clamps p there, so that
# its score and MALA's log p stay finite.
PDF_FLOOR = 1e-12

_BLOCK = 1 << 14  # points per block of the pointwise evaluations

# e^{i pi x} by table and series (Tang 1989; Cody & Waite 1980): x rounds to
# m/J, m = rint(J x), and u = T_m (1 + eps) with T_m = e^{i pi m / J} from a
# table of double-double precision and eps = e^{i d} - 1,
# d = fl(pi x) - pi m / J.
_J = 1 << 10
# Adding 1.5 * 2^42 rounds x to a multiple of 1/J and leaves m in the low
# mantissa bits.
_ROUND = 1.5 * 2.0**42
# pi in three pieces (23, 21 and 53 bits; the sum is within 2^-102 of pi):
# m/J times each of the first two is exact while |m| <= 2^30.
_PI_PIECES = tuple(map(float.fromhex, (
    "0x1.921fb4p+1", "0x1.4442d0p-23", "0x1.8469898cc5170p-47")))
# Past this |x| the pieces are no longer exact, and x is first reduced by
# its period 2.
_REDUCE_MAX = 2.0**20


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
        with np.errstate(over="ignore"):  # an infinite c_0 raises below
            self.coefficients = autocorrelate(a)
        self.coefficients.setflags(write=False)
        self.scale = float(scale)
        self.offset = float(offset)
        self._c0 = float(np.real(self.coefficients[0]))
        if not math.isfinite(self._c0):
            raise ValueError(
                "normalization constant c_0 = sum |a_k|^2 overflows; "
                "rescale the amplitudes"
            )
        # ratios[n-1] = c_n / c_0 for n = 1..N
        self._ratios = self.coefficients[1:] / self._c0

    @property
    def n_terms(self) -> int:
        return self.amplitudes.size - 1

    def pdf(self, x, counter: EvalCounter | None = None):
        """Density |A(w)|^2 / (2 c_0) >= 0 at x in [-1, 1), with
        A(w) = sum_k a_k w^k at w = e^{-i pi x}; unclamped, as pdf_grid.
        Bills one pdf evaluation per point."""
        vals = np.empty(np.shape(x))
        flat = vals.reshape(-1)
        for sl, (A,) in _horner([self.amplitudes], x):
            _squared_modulus(A, 2.0 * self._c0, flat[sl])
        if counter is not None:
            counter.pdf_evals += int(vals.size)
        return vals if np.ndim(vals) else float(vals)

    def _series(self, order: int) -> np.ndarray:
        """s_n = conj((c_n/c_0) (i pi n)^order), s_0 = 0: the order-th
        derivative of p (order -1: the term-wise antiderivative of p - 1/2)
        is Re sum_n s_n u^n at u = e^{-i pi x}.  Order 0 would drop the
        constant 1/2, so only -1 and the integers from 1 up are defined."""
        if not isinstance(order, (int, np.integer)) or order == 0 or order < -1:
            raise ValueError(
                f"derivative order must be -1 or an integer >= 1, got {order!r}")
        n = np.arange(1, self.n_terms + 1)
        return np.conj(np.concatenate(
            ([0.0], self._ratios * (1j * np.pi * n) ** order)))

    def pdf_grid(self, K: int, counter: EvalCounter | None = None) -> np.ndarray:
        """Density at the K >= 2N+1 grid points x_k = -1 + 2k/K, from
        A = _grid(a, K), a pruned FFT; |A|^2 in one real buffer.  Unclamped:
        the values are non-negative by construction and never logged."""
        K = operator.index(K)
        if K < 2 * self.n_terms + 1:
            raise ValueError(
                f"grid size K={K} below minimum 2N+1={2 * self.n_terms + 1}"
            )
        vals = np.empty(K)
        _squared_modulus(_grid(self.amplitudes, K), 2.0 * self._c0, vals)
        if counter is not None:
            counter.pdf_evals += K
        return vals

    def deriv_grid(self, K: int, order: int = 1) -> np.ndarray:
        """Analytic derivative of given order at the K grid points."""
        K = operator.index(K)
        if K < self.n_terms + 1:
            raise ValueError("grid too small to carry all frequency terms")
        return _grid(self._series(order), K).real.copy()

    def deriv(self, x, order: int = 1):
        """Analytic derivative of the (unclamped) density at arbitrary x;
        order -1 gives the term-wise antiderivative of p - 1/2."""
        vals = np.empty(np.shape(x))
        for sl, (P,) in _horner([self._series(order)], x):
            vals.reshape(-1)[sl] = P.real
        return vals if np.ndim(vals) else float(vals)

    def cdf(self, x):
        """P(x) = integral of the density over [-1, x]; 0 at -1, 1 at 1.
        Term-wise (F(x) - F(-1)) + (x + 1)/2, with F = deriv(x, order=-1),
        one block at a time; (x + 1)/2 is formed in the block's spare
        imaginary part."""
        x = np.asarray(x, dtype=float)
        vals = np.empty(x.shape)
        flat, xf = vals.reshape(-1), x.reshape(-1)
        f0 = self.deriv(-1.0, -1)
        for sl, (F,) in _horner([self._series(-1)], x):
            np.subtract(F.real, f0, out=flat[sl])
            np.add(xf[sl], 1.0, out=F.imag)
            F.imag /= 2.0
            flat[sl] += F.imag
        np.clip(vals, 0.0, 1.0, out=vals)
        return vals if np.ndim(vals) else float(vals)

    def pdf_and_score(self, x, counter: EvalCounter | None = None):
        """Clamped density and score p'(x)/max(p(x), floor), from one pass
        for A(w) and wA'(w) = sum_k k a_k w^k: p' = pi Im{conj(A) wA'} / c_0.
        Bills one score evaluation (two model evaluations) per point."""
        p, score = np.empty(np.shape(x)), np.empty(np.shape(x))
        p_flat, s_flat = p.reshape(-1), score.reshape(-1)
        rows = [self.amplitudes, np.arange(self.n_terms + 1) * self.amplitudes]
        for sl, (A, wdA) in _horner(rows, x):
            np.conjugate(A, out=A)
            np.multiply(A, wdA, out=wdA)
            np.multiply(wdA.imag, np.pi, out=s_flat[sl])
            s_flat[sl] /= self._c0
            _squared_modulus(A, 2.0 * self._c0, p_flat[sl])
        np.maximum(p, PDF_FLOOR, out=p)
        score /= p
        if counter is not None:
            counter.score_evals += int(p.size)
        return p, score

    def score(self, x, counter: EvalCounter | None = None):
        """Gradient of the log density, p'(x)/max(p(x), floor)."""
        _, s = self.pdf_and_score(x, counter)
        return s if np.ndim(s) else float(s)

    def envelope_constant(self) -> float:
        """M with M * (1/2) >= p(x) everywhere; tight enough for rejection."""
        return 1.0 + 2.0 * float(np.sum(np.abs(self._ratios)))

    def to_real_line(self, x):
        """Map a circle coordinate in (-1, 1) to the real line."""
        return to_real_line(x, self.scale, self.offset)


def _squared_modulus(A, scale: float, out) -> None:
    """out = (A.real**2 + A.imag**2) / scale, with A.imag as scratch."""
    np.square(A.real, out=out)
    np.square(A.imag, out=A.imag)
    out += A.imag
    out /= scale


def _unit_table():
    """(T, rho): T[j] = e^{i pi j / J}, j = 0..2J-1, rounded, and rho[j] its
    relative rounding error, so T (1 + rho) holds the entry to 64 bits.
    The first quarter is computed in long double; turning it by i, -1 and
    -i is exact and leaves rho unchanged."""
    if np.finfo(np.longdouble).nmant < 63:
        raise ImportError(
            "circfourier needs an 80-bit np.longdouble to build its "
            "unit-circle table; this platform's has "
            f"{np.finfo(np.longdouble).nmant + 1} bits"
        )
    pi = 4 * np.arctan(np.longdouble(1))
    angle = np.arange(_J // 2, dtype=np.longdouble) * (pi / _J)
    c, s = np.cos(angle), np.sin(angle)
    quarter, lo = np.empty(_J // 2, complex), np.empty(_J // 2, complex)
    quarter.real, quarter.imag = c, s
    lo.real, lo.imag = c - quarter.real, s - quarter.imag
    table = np.concatenate([quarter * 1j**k for k in range(4)])
    return table, np.concatenate([lo * quarter.conj()] * 4)


_UNIT, _UNIT_RHO = _unit_table()


def _unit_circle(x, u, w, v) -> None:
    """Write u = e^{-i pi x} for |x| <= 2^20, using w and v, complex
    arrays of x's size, as work space.

    The angle is fl(-pi x), as np.exp(-1j*np.pi*x) sees it.  Its
    reduction d = fl(-pi x) - pi m/J is exact but for two roundings near
    2^-62, and |d| <= pi/(2J) + 2^-31 keeps the series' dropped terms
    below 2^-64.  Then u = T + T (eps + rho) drops only rho*eps < 2^-63,
    so each component lies within 2^-53 of the exact value
    e^{-i fl(pi x)} (most are that value correctly rounded).  NaN or
    infinite x gives NaN.
    """
    a, b = v.view(float).reshape(2, -1)  # real work space
    c, idx = u.view(float).reshape(2, -1)
    idx = idx.view(np.int64)
    np.subtract(_ROUND, x, out=a)
    np.bitwise_and(a.view(np.int64), 2 * _J - 1, out=idx)  # m mod 2J
    a -= _ROUND  # m/J, exactly
    np.multiply(x, -np.pi, out=b)
    for piece in _PI_PIECES:
        np.multiply(a, piece, out=c)
        b -= c  # d
    np.multiply(b, b, out=a)
    np.multiply(a, 1.0 / 120.0, out=c)
    c -= 1.0 / 6.0
    c *= a
    c *= b
    np.add(c, b, out=w.imag)  # sin d
    np.multiply(a, 1.0 / 24.0, out=c)
    c -= 0.5
    np.multiply(c, a, out=w.real)  # cos d - 1
    np.take(_UNIT_RHO, idx, out=v, mode="clip")
    w += v
    np.take(_UNIT, idx, out=v, mode="clip")
    w *= v
    np.add(v, w, out=u)  # T + T (eps + rho)


def _horner(rows, x):
    """Yield (sl, [P_0, ...]) per block of _BLOCK points of x, flattened:
    P_i = sum_k rows[i][k] u^k at u = e^{-i pi x[sl]}, by Horner's rule
    with in-place ufuncs.  The work arrays are made once per call and the
    next block overwrites the yielded ones, so memory is flat in the
    number of points; a caller may use them as scratch."""
    x = np.asarray(x, dtype=float).reshape(-1)
    size = min(x.size, _BLOCK)
    u, v = np.empty(size, complex), np.empty(size, complex)
    Ps = [np.empty(size, complex) for _ in rows]
    for lo in range(0, x.size, _BLOCK):
        xb = x[lo : lo + _BLOCK]
        n = xb.size
        if not (-_REDUCE_MAX <= xb.min() and xb.max() <= _REDUCE_MAX):
            # off the domain, or not finite: fmod by the period is exact
            xb = np.where(np.abs(xb) <= _REDUCE_MAX, xb, np.fmod(xb, 2.0))
        un, blk = u[:n], [P[:n] for P in Ps]
        _unit_circle(xb, un, blk[0], v[:n])
        for P, b in zip(blk, rows):
            P.fill(b[-1])
            for c in b[-2::-1]:
                P *= un
                P += c
        yield slice(lo, lo + _BLOCK), blk


def _grid(s, K: int) -> np.ndarray:
    """sum_n s_n u^n at u_k = e^{-i pi x_k}, x_k = -1 + 2k/K: the DFT of
    t_n = (-1)^n s_n zero-padded to K, as u_k^n = (-1)^n w^{nk} with
    w = e^{-2 pi i/K}, pruned to the N+1 taps (Markel 1971).

    With K = Q P, Q the least divisor of K that is at least N+1, and
    k = k1 + P k2, X[k] = sum_{n<Q} (t_n w^{n k1}) e^{-2 pi i n k2/Q}: one
    length-Q FFT down each column of a (Q, P) array whose rows n <= N
    hold t_n w^{n k1} and the rest zeros, O(K log Q) in all, and in C
    order the result is indexed by k.  The twiddle w^{n k1}, k1 = R h + l
    with R a divisor of P near sqrt(P), is w^{n R h} w^{n l}, from two
    small tables.  A prime K gives Q = K and P = 1 when N >= 1: the plain
    zero-padded FFT.
    """
    Q = _least_divisor(K, s.size)
    P = K // Q
    R = _least_divisor(P, math.isqrt(P))
    n = np.arange(s.size)[:, None]
    # n R h and n l stay below Q P = K, so no reduction mod K is needed
    coarse = np.exp(n * np.arange(0, P, R) * (-2j * np.pi / K))
    coarse *= s[:, None] * (-1.0) ** n
    fine = np.exp(n * np.arange(R) * (-2j * np.pi / K))
    Y = np.zeros((Q, P), complex)
    np.multiply(coarse[:, :, None], fine[:, None, :],
                out=Y[: s.size].reshape(s.size, P // R, R))
    return np.fft.fft(Y, axis=0, out=Y).reshape(-1)


def _least_divisor(K: int, m: int) -> int:
    """The least divisor of K that is at least m (1 <= m <= K), by trial
    division up to sqrt(K)."""
    least = K
    for d in range(1, math.isqrt(K) + 1):
        if K % d == 0:
            if d >= m:
                return d  # every cofactor K // d' is at least sqrt(K) >= d
            if K // d >= m:
                least = K // d
    return least


def wrap(x):
    """Wrap a real coordinate into [-1, 1); exact identity on the domain."""
    x = np.asarray(x, dtype=float)
    vals = np.add(x, 1.0, out=np.empty(x.shape))
    vals /= 2.0
    np.floor(vals, out=vals)
    vals *= 2.0
    np.subtract(x, vals, out=vals)
    # guard the rounding edge when (x + 1) / 2 rounds across an integer;
    # the max/min tests keep the common case free of a mask array
    if vals.max(initial=0.0) >= 1.0:
        np.subtract(vals, 2.0, out=vals, where=vals >= 1.0)
    if vals.min(initial=0.0) < -1.0:
        np.add(vals, 2.0, out=vals, where=vals < -1.0)
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

    Raises ValueError, naming the file, on a malformed file: empty, a
    header that is not 'N scale offset', an amplitude line that is not
    're im', a field that is not a number, a negative N, a count of
    amplitude lines other than N+1, or values FourierDensity rejects.
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
    if n_terms < 0:
        raise ValueError(f"{path}: N must be >= 0")
    if len(rows) != n_terms + 2:
        raise ValueError(f"{path}: expected {n_terms + 1} amplitude "
                         f"lines, got {len(rows) - 1}")
    try:
        return FourierDensity(amps, scale=scale, offset=offset)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
