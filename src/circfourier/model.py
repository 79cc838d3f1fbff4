"""Non-negative truncated Fourier-series densities on the circle [-1, 1).

The density is parameterized by a free complex sequence a_0..a_N whose
autocorrelation gives the Fourier coefficients c_0..c_N.  This guarantees
the series is non-negative everywhere (the PDF is |sum_k a_k e^{-i pi k x}|^2
up to normalization), so any amplitude choice yields a valid density.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# The density may vanish at points; pdf_and_score clamps p there, so that
# its score and MALA's log p stay finite.
PDF_FLOOR = 1e-12

# Points per block of the pointwise evaluations, compound_pdf, rejection
# passes and CSV rows: enough that the array operations amortize their
# per-call cost, few enough that a block's work arrays stay small, so that
# memory is flat in the number of points.
_BLOCK = 1 << 14

# Adding this (plus L/2) rounds t = (L/2) x to an integer r and leaves
# r + L/2 in the low mantissa bits.
_ROUND = 1.5 * 2.0**52
# pi in two pieces, the first of 19 bits, so that r times it is exact while
# |r| < 2^34; their sum is within 2^-75 of pi.
_PI_HI = float.fromhex("0x1.921fcp+1")
_PI_LO = -float.fromhex("0x1.5777a5cf72cedp-20")
# A Taylor table holds at most this many bytes when complex, where it can ...
_TABLE_BYTES = 1 << 20
# ... and its truncated terms stay below this share of sum |s_n|.
_TAYLOR_TOL = 2.0**-60
# A point keeps the density table's values only where they give p at least
# this many times the bound E on their error in p and in dp/dd
# (FourierDensity._cutoff).  There p errs by under 2^-32 of itself, and the
# score p'/p by under pi 2^-32 (1 + |p'/p|), within 1e-9 (1 + |score|).
_KEEP = 2.0**32


@dataclass
class EvalCounter:
    """Ledger of the model evaluations a sampling run makes.

    A score evaluation is billed as two model evaluations: the density and
    its derivative share one coefficient pass but count separately in the
    cost accounting.

    The Taylor tables behind pointwise evaluation are not billed.  Like
    the coefficients from `autocorrelate`, a table is a change of basis
    computed from the amplitudes, and no caller receives a value from it
    except through a billed point.

    Two diagnostics ride along, in no bill: `fallbacks`, the points of
    `pdf` and `pdf_and_score` whose density came from the amplitude table
    because the density table's could not be trusted there, and `clamps`,
    the points at which `pdf_and_score` raised p to PDF_FLOOR.
    """

    pdf_evals: int = 0
    score_evals: int = 0
    clamps: int = 0
    fallbacks: int = 0

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
    with n < 0 are redundant (conjugate symmetry) and not stored.  The one
    cache, the Taylor tables of pointwise evaluation (`_table`) and the
    density table's cutoff (`_cutoff`), is filled lazily on first use and
    is idempotent: each entry is a pure function of the amplitudes,
    read-only, and stored once (`dict.setdefault`), so threads that race
    to build one all read the same values.  A model holds at most three
    tables: the real one of p, which `pdf` and `pdf_and_score` read first;
    the amplitudes' complex one, for the points where the first is below
    its cutoff, and for the rejection hat; and the real one of the
    antiderivative, for `cdf`.  The grid methods build none.
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
        self._tables: dict[str, np.ndarray] = {}  # see _table

    @property
    def n_terms(self) -> int:
        return self.amplitudes.size - 1

    def pdf(self, x, counter: EvalCounter | None = None):
        """Density p >= 0 at x in [-1, 1), from the density table where it
        is accurate, else |A(w)|^2 / (2 c_0) with A(w) = sum_k a_k w^k at
        w = e^{-i pi x} (_evaluate); unclamped, as pdf_grid.  Bills one pdf
        evaluation per point."""
        vals = np.empty(np.shape(x))
        self._evaluate(x, vals.reshape(-1), counter=counter)
        if counter is not None:
            counter.pdf_evals += int(vals.size)
        return vals if np.ndim(vals) else float(vals)

    def pdf_grid(self, K: int, counter: EvalCounter | None = None) -> np.ndarray:
        """Density at the K >= 2N+1 grid points x_k = -1 + 2k/K, from
        A = _grid(a, K), a pruned FFT whose blocks are squared straight
        into the one real buffer it returns, |A|^2/(2 c_0).  Unclamped: the
        values are non-negative by construction and never logged."""
        K = _check_grid_size(self.n_terms, K)
        vals = np.empty(K)
        for dest, A in _grid(self.amplitudes, K, vals):
            _squared_modulus(A, 2.0 * self._c0, dest)
        if counter is not None:
            counter.pdf_evals += K
        return vals

    def _table(self, series: str) -> np.ndarray:
        """The Taylor table (_taylor_table) of a series sum_n s_n u^n at
        u = e^{-i pi x}, built on first use and kept:
        - "amplitudes": s_n = a_n, the series A; a complex table;
        - "density": s_0 = 1/2, s_n = conj(c_n/c_0), whose real part is p,
          with the c_n/c_0 formed in long double (_cutoff says why); the
          real part of the table;
        - "cdf": s_0 = 0, s_n = conj((c_n/c_0) / (i pi n)), whose real part
          is the term-wise antiderivative of p - 1/2; the real part of the
          table."""
        rows = self._tables.get(series)
        if rows is None:
            rows = self._tables.setdefault(series, _taylor_table(
                self._series(series), real=series != "amplitudes"))
        return rows

    def _series(self, series: str) -> np.ndarray:
        """The s_n of a table of _table."""
        if series == "amplitudes":
            return self.amplitudes
        if series == "cdf":
            n = np.arange(1, self.n_terms + 1)
            return np.conj(np.concatenate(
                ([0.0], self._ratios * (1j * np.pi * n) ** -1)))
        a = self.amplitudes.astype(np.clongdouble)
        # correlate gives conj(c_n) = sum_k a_{k+n} conj(a_k)
        s = np.correlate(a, a, "full")[self.n_terms :]
        s /= np.sum(a.real**2 + a.imag**2)
        s = s.astype(complex)
        s[0] = 0.5
        return s

    @functools.cached_property
    def _cutoff(self) -> float:
        """tau = _KEEP E, with E >= the error of the density table's P and
        of its slope W = dP/dd (_taylor with slope) against p and dp/dd at
        the angle fl(pi x).  With r = pi/L + 2^-32 >= |d|, rho = N r and
        h_k = sum_n n^k |s_n| e^{n r}, which bounds the table's rows (a row
        m is at most sum_n |s_n| n^m/m!) and so sum_m |R_m| r^m (h_0), its
        slope (h_1) and the slope's slope (h_2), E is twice the larger of
        the sums for P and for W of:
        - rounding, phi h_0 and phi h_1 with phi = (4M + 48 + 8 log2 Q) u:
          Horner's rule, gamma_2M for P and for W alike (Higham 2002, 5.1);
          each row's input, gamma_2M from its term recurrence, about 36 u
          from _grid's twiddles and products and u from s_n's own rounding;
          and the length-Q FFT, at most 8 u per level of the input's
          1-norm (Higham 2002, 24.1);
        - truncation, h_0 T_{M+1} and h_1 T_M, with
          T_k = rho^k/k! / (1 - rho/(k+1)) >= sum_{m>=k} rho^m/m!;
        - d's own error, at most u r + 2^-70 (_taylor): h_1 and h_2 times it;
        - the s_n's, each within (2N + 16) u' of c_n/c_0, u' the unit
          roundoff of long double: N and N(N+1)/2 times it.
        The last is why the s_n are formed in long double: in double, a
        bound of (2N + 8) u per s_n would raise tau past p's mean of 1/2
        at N = 200.  Where long double is double, tau is larger, and more
        points go to the amplitude table, but E still holds."""
        s = self._series("density")
        size, order = _table_shape(self.n_terms)
        n = np.arange(s.size)
        r = np.pi / size + 2.0**-32
        rho = self.n_terms * r
        grow = np.abs(s) * np.exp(n * r)
        h0, h1, h2 = float(np.sum(grow)), float(n @ grow), float(n**2 @ grow)
        unit = 2.0**-53
        levels = math.log2(_least_divisor(size, s.size))
        phi = (4 * order + 48 + 8 * levels) * unit
        tail = [rho**k / math.factorial(k) / (1.0 - rho / (k + 1))
                for k in (order, order + 1)]
        angle = unit * r + 2.0**-70
        coef = (2 * self.n_terms + 16) * float(np.finfo(np.longdouble).eps) / 2
        e_p = (phi + tail[1]) * h0 + angle * h1 + self.n_terms * coef
        e_d = ((phi + tail[0]) * h1 + angle * h2
               + self.n_terms * (self.n_terms + 1) / 2 * coef)
        return _KEEP * 2.0 * max(e_p, e_d)

    def _evaluate(self, x, p, score=None, counter=None) -> None:
        """p at the points x into p, and, given `score`, the clamped score
        p'/max(p, PDF_FLOOR) into it (p clamped too); all flat, of x's
        size.  Each block of _BLOCK points is evaluated by _taylor on the
        density table, with p' = pi dp/dd.  Where that p is below
        _cutoff, which holds p >= 0 elsewhere, the block's points are taken
        again on the amplitude table, as |A|^2/(2 c_0) and
        p' = pi Re{conj(A) dA/dd}/c_0; those points are counted as
        fallbacks, and those of them clamped as clamps."""
        x = np.asarray(x, dtype=float).reshape(-1)
        slope = score is not None
        cutoff, fallbacks, clamps = self._cutoff, 0, 0
        for sl, P, W in _taylor(self._table("density"), x, out=p,
                                slope=slope):
            if slope:
                s = np.multiply(W, np.pi, out=score[sl])
            low = np.flatnonzero(P < cutoff)
            if low.size:
                fallbacks += low.size
                for _, A, dA in _taylor(self._table("amplitudes"), x[sl][low],
                                        slope=slope):
                    vals = dA.real  # free once the numerator is stored
                    if slope:
                        np.multiply(A.real, dA.real, out=vals)
                        np.multiply(A.imag, dA.imag, out=dA.imag)
                        vals += dA.imag
                        vals *= np.pi
                        vals /= self._c0
                        s[low] = vals
                    _squared_modulus(A, 2.0 * self._c0, vals)
                    if slope:
                        clamps += int(np.count_nonzero(vals < PDF_FLOOR))
                        np.maximum(vals, PDF_FLOOR, out=vals)
                    P[low] = vals
            if slope:
                s /= P
        if counter is not None:
            counter.fallbacks += fallbacks
            counter.clamps += clamps

    def _hat(self) -> np.ndarray:
        """H[j] >= pdf at every double in the closed cell
        [x_j - 1/L, x_j + 1/L] of the amplitude table's anchor
        x_j = -1 + 2j/L, whichever anchor _taylor takes there (Devroye 1986,
        VIII.2); O(M^2 L), not kept.  For real d, |sum_m B_m d^m|^2 =
        sum_k q_k d^k, q_k = sum_{i+m=k} Re(B_i conj(B_m)), which is at most
        q_0 + sum_{k>=1} |q_k| r^k for |d| <= r = pi/L + 2^-32.  On the rows
        over s = sum |a_n|, |A| and sum_m |B_m| r^m are at most
        sigma = e^(N r).  |A| is widened by twice the truncation
        T = sum_{m>M} (N r)^m/m!, for an edge point taken about the next
        anchor, and each rounding by 2^-40 (thousands of ulps) of sigma,
        sigma^2 or the result."""
        rows = self._table("amplitudes")
        order, size = rows.shape[0] - 1, rows.shape[1]
        r = np.pi / size + 2.0**-32
        s = float(np.sum(np.abs(self.amplitudes)))
        re, im = rows.real / s, rows.imag / s
        q, prod = np.zeros((2 * order + 1, size)), np.empty_like(re)
        for i in range(order + 1):
            q[i : i + order + 1] += np.multiply(re[i], re, out=prod)
            q[i : i + order + 1] += np.multiply(im[i], im, out=prod)
        hat = q[0] + r ** np.arange(1, 2 * order + 1) @ np.abs(q[1:])
        rho = self.n_terms * r
        tail = (rho ** (order + 1) / math.factorial(order + 1)
                / (1.0 - rho / (order + 2)))
        sigma = math.exp(rho)
        hat += 2.0**-40 * sigma**2
        np.sqrt(hat, out=hat)
        hat += 2.0 * tail + 2.0**-40 * sigma
        np.square(hat, out=hat)
        hat *= (1.0 + 2.0**-40) * (s / math.sqrt(2.0 * self._c0)) ** 2
        return hat

    def cdf(self, x, counter: EvalCounter | None = None):
        """P(x) = integral of the density over [-1, x]; 0 at -1, 1 at 1.
        Term-wise (F(x) - F(-1)) + (x + 1)/2, with F the antiderivative
        series of _table("cdf"), one block at a time, summed by Horner's
        rule in the output itself, so that a call needs only the table and
        three work blocks beyond it; (x + 1)/2 is formed in the block's
        spare array.  Bills one pdf evaluation per point, as pdf does."""
        x = np.asarray(x, dtype=float)
        vals = np.empty(x.shape)
        flat, xf = vals.reshape(-1), x.reshape(-1)
        rows = self._table("cdf")
        f0 = rows[0, 0]  # F at the anchor x_0 = -1
        for sl, F, spare in _taylor(rows, x, out=flat):
            F -= f0
            np.add(xf[sl], 1.0, out=spare)
            spare /= 2.0
            F += spare
        np.clip(vals, 0.0, 1.0, out=vals)
        if counter is not None:
            counter.pdf_evals += int(vals.size)
        return vals if np.ndim(vals) else float(vals)

    def pdf_and_score(self, x, counter: EvalCounter | None = None):
        """Clamped density and score p'(x)/max(p(x), floor), each point
        from one pass for its value and slope on one table (_evaluate).
        Bills one score evaluation (two model evaluations) per point."""
        p, score = np.empty(np.shape(x)), np.empty(np.shape(x))
        self._evaluate(x, p.reshape(-1), score.reshape(-1), counter)
        if counter is not None:
            counter.score_evals += int(p.size)
        return p, score

    def score(self, x, counter: EvalCounter | None = None):
        """Gradient of the log density, p'(x)/max(p(x), floor)."""
        _, s = self.pdf_and_score(x, counter)
        return s if np.ndim(s) else float(s)

    def to_real_line(self, x):
        """Map a circle coordinate in (-1, 1) to the real line:
        scale * atanh(x) + offset, strictly increasing."""
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) >= 1.0):
            raise ValueError(
                "to_real_line requires |x| < 1 (endpoints map to inf)")
        vals = self.scale * np.arctanh(x) + self.offset
        return vals if np.ndim(vals) else float(vals)


def _check_grid_size(n_terms: int, K) -> int:
    """K as an int: a grid of a degree-N density needs an integer K >= 2N+1
    (TypeError if K is not an integer, ValueError if it is too small)."""
    K = operator.index(K)
    if K < 2 * n_terms + 1:
        raise ValueError(
            f"grid size K={K} below minimum 2N+1={2 * n_terms + 1}")
    return K


def _squared_modulus(A, scale: float, out) -> None:
    """out = (A.real**2 + A.imag**2) / scale, with A.imag as scratch."""
    np.square(A.real, out=out)
    np.square(A.imag, out=A.imag)
    out += A.imag
    out /= scale


def _table_shape(n_terms: int) -> tuple[int, int]:
    """(L, M) of the Taylor tables of a series of degree N: M is the least
    order whose remainder bound (pi N/L)^{M+1}/(M+1)! is at most
    _TAYLOR_TOL at an L whose complex table of M+1 rows fits in
    _TABLE_BYTES, and L the least power of two that reaches it.  The
    offset d of _taylor is at most pi/L, so the terms dropped after order
    M sum to at most that bound times sum |s_n|, times
    1/(1 - pi N/(L (M+2))) for the rest of the tail (under 1.03 for
    N <= 200).  L is at least pi N (and 2), which keeps |n d| <= 1 for
    every term; a degree too high for any table within the cap gets that
    least L."""
    least = 2
    while least < math.pi * n_terms:
        least *= 2
    order = 0
    while True:
        size = least
        while ((math.pi * n_terms / size) ** (order + 1)
               / math.factorial(order + 1) > _TAYLOR_TOL):
            size *= 2
        if 16 * (order + 1) * size <= _TABLE_BYTES or size == least:
            return size, order
        order += 1


def _taylor_table(s, real: bool) -> np.ndarray:
    """rows[m][j] = sum_n s_n (-i n)^m/m! u_j^n, the Taylor coefficients
    of sum_n s_n u^n at u = e^{-i theta} about the angles pi x_j of the L
    anchors x_j = -1 + 2j/L; (L, M) from _table_shape.  Each row is one
    _grid, its blocks copied into the row, or only their real parts when
    `real`.  Read-only."""
    size, order = _table_shape(s.size - 1)
    rows = np.empty((order + 1, size), float if real else complex)
    step = np.arange(s.size) * -1j
    term = s.astype(complex)
    for m in range(order + 1):
        if m:
            term *= step
            term /= m
        for dest, B in _grid(term, size, rows[m]):
            dest[...] = B.real if real else B
    rows.setflags(write=False)
    return rows


def _taylor(rows, x, out=None, slope: bool = False):
    """Yield (sl, P, W) per block of _BLOCK points of x, flattened, with
    P = sum_m rows[m][j] d^m: the series at each point from the Taylor
    table `rows` (of _taylor_table) about the anchor x_j = 2r/L (mod 2),
    r = rint((L/2) x), by Horner's rule in d.  Here d = fl(pi x) - pi x_j:
    the angle that np.exp(-1j*np.pi*x) sees, fl(pi x), less the anchor's.
    A block with some x outside [-1, 1) is first wrapped onto it (wrap,
    exact), so the series is exactly periodic and NaN or +-inf gives NaN.
    Then r is exact, and with pi in two pieces d errs by under 2^-20 ulp
    of fl(pi x) beyond its own rounding; |d| <= pi/L + 2^-32.  W is dP/dd
    when `slope`, else work space that the block no longer needs.  P is
    written into out[sl] when `out` (flat, of x's size) is given.  The
    work arrays are made once per call and the next block overwrites the
    yielded ones, so memory is flat in the number of points; a caller may
    use them as scratch."""
    x = np.asarray(x, dtype=float).reshape(-1)
    size, half = min(x.size, _BLOCK), 0.5 * rows.shape[1]
    shift, pi_hi, pi_lo = _ROUND + half, _PI_HI / half, _PI_LO / half
    d, idx = np.empty(size), np.empty(size, np.int64)
    # d again, in a complex table's type with imaginary part 0, so that the
    # Horner steps multiply without casting
    dt = np.zeros(size, rows.dtype) if rows.dtype != d.dtype else d
    G = np.empty(size, rows.dtype)  # the gathered coefficients
    W = np.empty(size, rows.dtype) if slope else G
    P = np.empty(size, rows.dtype) if out is None else None
    for lo in range(0, x.size, _BLOCK):
        sl = slice(lo, lo + _BLOCK)
        xb = x[sl]
        if not (-1.0 <= xb.min() and xb.max() < 1.0):  # off [-1, 1), or NaN
            xb = wrap(xb)
        n = xb.size
        db, dtb, ib, gb, wb = d[:n], dt[:n], idx[:n], G[:n], W[:n]
        pb = P[:n] if out is None else out[sl]
        # r = rint((L/2) x) and the products of r with pi's pieces use G's
        # and P's memory, which the gathers then overwrite
        r, prod = gb.view(float)[:n], pb.view(float)[:n]
        np.multiply(xb, half, out=db)
        np.add(db, shift, out=ib.view(float))
        np.subtract(ib.view(float), shift, out=r)
        np.bitwise_and(ib, rows.shape[1] - 1, out=ib)  # j = (r + L/2) mod L
        np.multiply(xb, np.pi, out=db)
        np.multiply(r, pi_hi, out=prod)
        db -= prod  # exact, as is the product
        np.multiply(r, pi_lo, out=prod)
        np.subtract(db, prod, out=dtb.real)
        # j is in range; mode "clip" writes straight into out, "raise" buffers
        np.take(rows[-1], ib, out=pb, mode="clip")
        for k, row in enumerate(rows[-2::-1]):
            if slope:  # W follows P one step behind: dP/dd
                if k:
                    wb *= dtb
                    wb += pb
                else:
                    np.copyto(wb, pb)
            pb *= dtb
            np.take(row, ib, out=gb, mode="clip")
            pb += gb
        if slope and rows.shape[0] == 1:
            wb.fill(0.0)
        yield sl, pb, wb


def _grid(s, K: int, out):
    """sum_n s_n u^n at u_k = e^{-i pi x_k}, x_k = -1 + 2k/K: the DFT of
    t_n = (-1)^n s_n zero-padded to K, as u_k^n = (-1)^n w^{nk} with
    w = e^{-2 pi i/K}, pruned to the N+1 taps (Markel 1971).

    With K = Q P, Q the least divisor of K that is at least N+1, and
    k = k1 + P k2, X[k] = sum_{n<Q} (t_n w^{n k1}) e^{-2 pi i n k2/Q}: one
    length-Q FFT down each column k1 of a (Q, P) array whose rows n <= N
    hold t_n w^{n k1} and the rest zeros, O(K log Q) in all.  The twiddle
    w^{n k1}, k1 = R h + l with R a divisor of P near sqrt(P), is
    w^{n R h} w^{n l}, from two small tables.  A prime K gives Q = K and
    P = 1 when N >= 1: the plain zero-padded FFT.

    Yields (dest, B) for h = 0..P/R-1: B, complex (Q, R), holds the
    columns R h .. R h + R - 1 of the transformed array, and dest is the
    view of `out` (K values, of any type) where they belong, X[k] at
    out[k].  The caller writes B, or what it makes of B, into dest.  B is
    one work array, which the next block overwrites, so the transform
    never holds more than one block beyond `out`; a caller may use B as
    scratch.
    """
    Q = _least_divisor(K, s.size)
    P = K // Q
    R = _least_divisor(P, math.isqrt(P))
    n = np.arange(s.size)[:, None]
    # n R h and n l stay below Q P = K, so no reduction mod K is needed
    coarse = np.exp(n * np.arange(0, P, R) * (-2j * np.pi / K))
    coarse *= s[:, None] * (-1.0) ** n
    fine = np.exp(n * np.arange(R) * (-2j * np.pi / K))
    # in C order, X[k1 + P k2] is row k2, column k1 of out viewed as (Q, P)
    columns = out.reshape(Q, P)
    B = np.empty((Q, R), complex)
    for h in range(P // R):
        B[s.size :] = 0.0
        np.multiply(coarse[:, h, None], fine, out=B[: s.size])
        yield columns[:, R * h : R * h + R], np.fft.fft(B, axis=0, out=B)


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
    """Wrap x into [-1, 1) by its period 2, exactly, as x - k with k the
    even integer nearest x (1 then goes to -1); NaN at NaN and +-inf: the
    one reduction onto the circle.  The identity on [-1, 1), -0.0 kept."""
    x = np.asarray(x, dtype=float)
    k = np.multiply(x, 0.5, out=np.empty(x.shape))
    np.rint(k, out=k)
    k *= 2.0
    k += 0.0  # -0.0 to +0.0, so that x - k keeps the sign of a zero x
    with np.errstate(invalid="ignore"):  # inf - inf: NaN at +-inf
        vals = np.subtract(x, k, out=k)
    # |x - k| <= 1, and the difference is exact; fmax skips NaN, so that
    # a NaN does not hide a 1
    if np.fmax.reduce(vals, axis=None, initial=0.0) >= 1.0:
        np.subtract(vals, 2.0, out=vals, where=vals >= 1.0)
    return vals if np.ndim(vals) else float(vals)


def random_density(n_terms: int, rng) -> FourierDensity:
    """Density with N+1 amplitudes drawn i.i.d. complex standard normal."""
    if operator.index(n_terms) < 0:
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
